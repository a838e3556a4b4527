//! The discrete-event simulation engine.
//!
//! Event model (matching §6.1's simulator):
//!
//! * **Arrival** — a transaction arrives and is routed immediately; funds
//!   are locked along every hop of each accepted `(path, amount)` unit.
//! * **Settle** — Δ seconds after locking, the hash-lock key has propagated
//!   and each hop's funds move to the downstream party. If the payment's
//!   deadline has passed in the meantime, the sender withholds the key and
//!   the hops are refunded instead (§4.1's non-atomic cancellation). The
//!   units one proposal locked settle as one event, in runs.
//! * **Poll** — every `POLL_INTERVAL` (100 ms), incomplete non-atomic payments are
//!   re-attempted in scheduling-policy order (SRPT by default) — except
//!   those whose attempt provably does nothing. Each pending payment
//!   waits on one of two witnesses, by mode:
//!
//!   - **A pinned hop (lockstep).** When the router pinned the payment
//!     to one path ([`Router::pins_single_path`]) and some hop of that
//!     path has less available than the smallest chunk of the payment's
//!     remainder, every chunk fails at that hop and the failed lock rolls
//!     back the hops before it: the attempt would leave balances,
//!     payments and the calendar untouched, so it is skipped. A pin is
//!     forgotten the moment the router receives a fault outcome, an ack
//!     or a topology callback (ordinary lock outcomes leave the promise
//!     standing), and balances are read at poll time, so no credit site
//!     (settle, refund, deposit, resize, reopen) needs a hook.
//!   - **A router token (hop by hop).** After each attempt the router may
//!     hand back a token naming the payment's pair
//!     ([`Router::idle_token`]). While [`Router::proposes_nothing`] holds
//!     for it, `route` would return no proposal and change nothing but
//!     observability counters, so the attempt — no proposal, no unit, no
//!     record — is skipped. The test reads the router's state as it is,
//!     at every poll; a token names a pair for the run, so no callback
//!     ends it.
//!
//!   Attempts within one poll only *lower* what another attempt could
//!   get: they lock balances, and the router hears of sends and ingress
//!   rejections (which shrink windows) but never an ack or a fault,
//!   which come from events. So "nothing when tested" implies "nothing
//!   at its turn": the test runs over the whole queue before the sort
//!   (only survivors are sorted, and they keep the relative policy order
//!   they had among all pending payments) and once more at each
//!   survivor's turn. `retries`, `units_failed` and
//!   `RouteRequest::attempt` therefore count attempts actually made.
//!
//!   One pass over the queue expires overdue payments, drops finished
//!   ones and runs the test. A blocked lockstep entry keeps its
//!   **witness** — the hop that blocked and the chunk it could not carry
//!   — and the next poll reads that one direction first. While it still
//!   blocks, or while the router's promise stands for a token, and the
//!   payment's deadline has not passed, the entry stays without its
//!   payment or path being read. That is exact because a payment that
//!   waits stays active. While a pin stands the unassigned amount cannot
//!   change (a settle moves value from in flight to delivered, and every
//!   refund but an expiry's comes with a callback that forgets the pins).
//!   Hop by hop, between polls only drops change it, and they only raise
//!   it; nothing but the poll expires a payment before its deadline.
//!   Deadlines are the arrival plus one constant and payments are
//!   numbered in arrival order, so those that have passed are a prefix of
//!   the ids: an **expiry cursor** tells them apart without reading a
//!   payment. Every entry is still visited at every poll.
//!
//! Ties in event time are broken by insertion sequence, so runs are fully
//! deterministic.
//!
//! ## Hot-path layout
//!
//! Paths are interned once into the shared [`PathTable`]: every event,
//! unit, and router callback carries a copyable [`PathId`] whose hops were
//! resolved to `(ChannelId, Direction)` exactly once. Event and unit slab
//! slots are recycled through free lists as soon as their last reference
//! (the pending calendar entry, the in-flight unit) dies, so resident
//! memory is bounded by *in-flight* work rather than by everything ever
//! scheduled; [`Simulation::slab_stats`] exposes the high-water marks the
//! throughput benchmarks track.
//!
//! Scheduling runs through a bucketed
//! [`CalendarQueue`](crate::CalendarQueue) (O(1) amortized push/pop;
//! exact `(time, seq)` order). Arrivals are **streamed**: the
//! workload is merged into the calendar one arrival at a time (each
//! arrival schedules its successor from a reserved seq band that keeps
//! tie-breaks bit-identical to the old pre-seeded calendar), so the live
//! event population is bounded by in-flight work, not total payments.
//! A topology-churn close finds the work crossing its channel by walking
//! the slabs once, in slot order: they hold in-flight work only, and
//! closes are rare.

mod churn;
mod core;
mod lockstep;
mod obs;
mod perturb;
mod queueing;

#[cfg(test)]
mod churn_tests;
#[cfg(test)]
mod core_tests;
#[cfg(test)]
mod queueing_tests;
#[cfg(test)]
mod rebalancing_tests;
#[cfg(test)]
mod test_util;
#[cfg(test)]
mod tests;

use self::core::{ArrivalCursor, EventCore, Net, Train};
use self::lockstep::RetryQueue;
pub(crate) use self::lockstep::POLL_INTERVAL;
use self::obs::Obs;
pub use self::perturb::Perturbation;
use self::perturb::{AdmissionState, Faults, Overload};
use self::queueing::Queueing;
use crate::channel::ChannelState;
use crate::config::{QueueingMode, SimConfig, MAX_UNITS_PER_PAYMENT};
use crate::metrics::{MetricsCollector, SimReport};
use crate::paths::{PathEntry, PathTable};
use crate::router::{Router, TopologyUpdate};
use crate::workload::{ArrivalSource, TxnSpec};
use spider_obs::trace::TraceEventKind;
use spider_obs::Phase;
use spider_topology::Topology;
use spider_types::{
    Amount, ChannelId, Direction, DropReason, NodeId, PathId, PaymentId, SimTime, TopologyEvent,
};

/// Internal payment bookkeeping.
#[derive(Debug, Clone)]
struct PaymentState {
    src: NodeId,
    dst: NodeId,
    total: Amount,
    delivered: Amount,
    inflight: Amount,
    arrival: SimTime,
    deadline: SimTime,
    attempts: u32,
    completed: bool,
    /// Deadline passed with work outstanding; remainder canceled.
    expired: bool,
    /// Lost at least one in-flight unit to a channel close (topology
    /// churn); if the payment never completes it counts as failed-by-churn.
    churn_hit: bool,
    /// Overload injection: the payment griefs — its units are silently
    /// held at the final hop until the sender-side timeout refunds them,
    /// pinning the whole path's liquidity. Drawn once per arrival from
    /// the installed overload plan's runtime stream, so it is only ever
    /// set under a plan.
    griefing: bool,
}

impl PaymentState {
    fn unassigned(&self) -> Amount {
        self.total - self.delivered - self.inflight
    }
    fn active(&self) -> bool {
        !self.completed && !self.expired && !self.unassigned().is_zero()
    }
    /// True once nothing in flight for this payment may still settle:
    /// it was canceled, or its deadline has passed.
    fn lapsed(&self, now: SimTime) -> bool {
        self.expired || now > self.deadline
    }
}

#[derive(Debug)]
enum EventKind {
    /// A transaction arrives (streamed from the workload source; each
    /// arrival schedules its successor).
    Arrival(TxnSpec),
    /// An arrival the shaping admission gate deferred, re-offered at the
    /// bucket's promised slot (does *not* advance the workload stream —
    /// its original `Arrival` already did).
    DeferredArrival(TxnSpec),
    /// Lockstep mode: everything one proposal of one attempt locked on
    /// `path` settles Δ later as one batch — its units are exactly
    /// `amount.mtu_chunks(mtu)`, every one a full MTU but the last. The
    /// handler takes each unit's verdict in lock order (a lapsed payment,
    /// griefing, then its own fault draw). Units that deliver one after
    /// another form a *run*, which settles at once: one settle per hop,
    /// the payment's counters and the throughput bucket once, one
    /// `settle` trace record and one hotspot charge per unit, and the
    /// completion check at its end. A refunded unit ends the pending run
    /// before its own refund, drop record and router callback, so
    /// balances, fault draws and records come in the order settling unit
    /// by unit gives them; without a fault plan, griefing or a lapse the
    /// whole batch is one run. The batch is exact: the units were
    /// scheduled back to back by one handler and would have popped back
    /// to back (one instant, consecutive seqs), and whatever a unit's
    /// handling schedules comes after the last of them. One event however
    /// many units: `SlabStats` counts it once, while
    /// `SimReport::units_locked` still counts units.
    Settle {
        payment: usize,
        amount: Amount,
        path: PathId,
    },
    Poll,
    /// Periodic scan for depleted channel directions (on-chain
    /// rebalancing enabled).
    RebalanceScan,
    /// An on-chain deposit confirms after the blockchain delay.
    RebalanceSettle {
        channel: ChannelId,
        dir: Direction,
        amount: Amount,
    },
    /// Queueing mode: a train of units arrives, each at the node before
    /// its hop `next_hop`, after the per-hop forwarding delay, and each
    /// in turn attempts to cross. Scheduled for one unit; the units
    /// scheduled back to back behind it for the same instant join it as
    /// members (see "Trains" in `core.rs`). The handler walks them in
    /// order, each with its own decision, lock, price stamp, fault and
    /// griefing draws, trace records and drop, so the train does exactly
    /// what one event per unit would.
    HopArrive(Train),
    /// Queueing mode: a train of fully locked units settles Δ after
    /// reaching their destinations (a unit whose payment expired
    /// meanwhile is refunded instead), member by member, each with its
    /// own delivery, ack and drain of the refilled directions. Members
    /// join as for `HopArrive`.
    UnitDeliver(Train),
    /// Queueing mode: the sender gives up on a unit — it waited past the
    /// maximum queueing delay ([`DropReason::QueueTimeout`]), or, under
    /// fault or griefing injection, its forwarding message (or delivery
    /// ack) was lost or a hop silently holds it and the per-hop timeout
    /// fired. The unit is canceled wherever it nominally is and every
    /// locked upstream hop refunded.
    UnitTimeout {
        unit: usize,
        reason: DropReason,
    },
    /// A scheduled topology-churn event (index into
    /// `Simulation::topo_events`) takes effect.
    Topology(usize),
    /// A scheduled fault-plan event (index into the installed fault
    /// plan's events — a node crash or recovery) takes effect.
    Fault(usize),
}

impl EventKind {
    /// The profiler phase a loop iteration charges the event's handler
    /// to. `Poll` splits itself between sampling and routing, and churn
    /// and fault events time themselves, each on every call; rebalancing
    /// is left unattributed.
    fn phase(&self) -> Option<Phase> {
        match self {
            EventKind::Arrival(_) | EventKind::DeferredArrival(_) => Some(Phase::Routing),
            EventKind::Settle { .. } => Some(Phase::Settlement),
            EventKind::HopArrive(_) | EventKind::UnitDeliver(_) | EventKind::UnitTimeout { .. } => {
                Some(Phase::Forwarding)
            }
            EventKind::Poll
            | EventKind::RebalanceScan
            | EventKind::RebalanceSettle { .. }
            | EventKind::Topology(_)
            | EventKind::Fault(_) => None,
        }
    }
}

/// Units that settle together along one path: `full` units of `unit`
/// each, then a `tail` unit of less (zero when there is none) — what
/// `Amount::mtu_chunks` yields for a run of a lockstep batch, or one
/// hop-by-hop unit.
#[derive(Debug, Clone, Copy)]
struct Run {
    unit: Amount,
    full: u64,
    tail: Amount,
}

impl Run {
    /// No unit yet; full units are worth `unit`.
    fn empty(unit: Amount) -> Self {
        Run {
            unit,
            full: 0,
            tail: Amount::ZERO,
        }
    }

    /// One unit of `amount`.
    fn one(amount: Amount) -> Self {
        Run {
            full: 1,
            ..Run::empty(amount)
        }
    }

    /// Appends the units `amount.mtu_chunks(unit)` yields: full units,
    /// then maybe the tail that ends the run.
    fn add(&mut self, amount: Amount) {
        debug_assert!(self.tail.is_zero(), "nothing follows a tail unit");
        self.full += amount.drops() / self.unit.drops();
        self.tail = Amount::from_drops(amount.drops() % self.unit.drops());
    }

    fn units(&self) -> u64 {
        self.full + u64::from(!self.tail.is_zero())
    }

    fn amount(&self) -> Amount {
        self.unit * self.full + self.tail
    }
}

/// Slab occupancy and lifetime counters (see [`Simulation::slab_stats`]).
///
/// The invariant the regression tests assert: `event_slots` and
/// `unit_slots` track the *peak in-flight* population, not the total ever
/// scheduled — a long run must not grow them linearly with
/// `events_scheduled` / `units_injected`.
///
/// The event counters count events, not units: a lockstep settle batch
/// (see `EventKind::Settle`) and a hop-by-hop train (`HopArrive`,
/// `UnitDeliver`) are one event however many MTU units they carry. Units
/// are counted by `units_injected` and `SimReport::units_locked`.
#[derive(Debug, Clone, Copy, Default)]
pub struct SlabStats {
    /// Events ever scheduled (a train once, however many members join
    /// it).
    pub events_scheduled: u64,
    /// Calendar entries ever pushed: one per *run* of events scheduled
    /// back to back for one instant, so at most `events_scheduled`. A
    /// train's members take their own seqs but join its entry, as they
    /// join its event.
    pub calendar_entries: u64,
    /// Events popped and executed (canceled events excluded).
    pub events_executed: u64,
    /// Event slab slots allocated (recycled slots are not re-counted).
    pub event_slots: usize,
    /// Events scheduled but not yet executed or canceled — the **true**
    /// live population (canceled-in-place entries whose calendar slot has
    /// not popped yet are excluded; they occupy a slab slot but are dead).
    pub live_events: usize,
    /// High-water mark of `live_events` — with streamed arrivals this is
    /// bounded by in-flight work, not by total payments.
    pub peak_live_events: usize,
    /// Hop-by-hop units ever injected (queueing mode).
    pub units_injected: u64,
    /// Unit slab slots allocated.
    pub unit_slots: usize,
    /// Unit slots occupied right now.
    pub live_units: usize,
    /// High-water mark of occupied unit slots.
    pub peak_live_units: usize,
    /// Distinct paths interned into the shared table.
    pub interned_paths: usize,
    /// Slab slots examined by topology-churn closes: each close walks
    /// the event slab (lockstep) or the unit slab (hop by hop) once. The
    /// churn regression test asserts this follows the slabs' in-flight
    /// high-water marks, not the total work ever scheduled.
    pub churn_scan_steps: u64,
}

/// The simulator.
pub struct Simulation {
    net: Net,
    config: SimConfig,
    router: Box<dyn Router>,
    arrivals: ArrivalCursor,
    events: EventCore,
    payments: Vec<PaymentState>,
    metrics: MetricsCollector,
    /// The retry queue both modes poll.
    retry_queue: RetryQueue,
    /// Hop-by-hop state; `Some` exactly when the config asks for
    /// [`QueueingMode::PerChannelFifo`].
    queueing: Option<Queueing>,
    /// Per (channel, direction): an on-chain deposit is in flight, so
    /// don't schedule another.
    rebalance_pending: Vec<[bool; 2]>,
    /// Topology-churn schedule, sorted by instant (installed by
    /// [`Simulation::install`] from [`Perturbation::Churn`]).
    topo_events: Vec<TopologyEvent>,
    /// Installed fault plan ([`Perturbation::Faults`]).
    faults: Option<Faults>,
    /// Installed overload plan ([`Perturbation::Overload`]).
    overload: Option<Overload>,
    /// Sender-side admission gate; `None` unless [`SimConfig::admission`]
    /// is set.
    admission: Option<AdmissionState>,
    obs: Obs,
}

impl Simulation {
    /// Builds a simulation. Channels start equally split
    /// (paper §6.2). Fails on invalid configuration.
    ///
    /// `workload` accepts a materialized [`Workload`](crate::Workload) or
    /// a lazy [`StreamingWorkload`](crate::StreamingWorkload); either way
    /// arrivals are merged into the calendar as they become due.
    pub fn new(
        topo: Topology,
        workload: impl Into<ArrivalSource>,
        router: Box<dyn Router>,
        config: SimConfig,
    ) -> spider_types::Result<Self> {
        config.validate()?;
        let source = workload.into();
        let units = source.largest().drops().div_ceil(config.mtu.drops());
        if units > MAX_UNITS_PER_PAYMENT {
            return Err(spider_types::SpiderError::InvalidConfig(format!(
                "a payment of {units} MTU units exceeds {MAX_UNITS_PER_PAYMENT}"
            )));
        }
        let arrivals = ArrivalCursor::new(source);
        let channels: Vec<ChannelState> = topo
            .channels()
            .map(|(_, c)| ChannelState::split_equally(c.capacity))
            .collect();
        let n_channels = channels.len();
        let queueing = match &config.queueing {
            QueueingMode::Lockstep => None,
            QueueingMode::PerChannelFifo(qc) => Some(Queueing::new(qc.clone(), n_channels)),
        };
        // Payments accumulate per arrival; the event slab only ever holds
        // in-flight work (arrivals are streamed), so it sizes itself.
        let n_txns = arrivals.source.count();
        Ok(Simulation {
            net: Net {
                topo,
                channels,
                paths: PathTable::new(),
                now: SimTime::ZERO,
            },
            router,
            arrivals,
            events: EventCore::default(),
            payments: Vec::with_capacity(n_txns),
            metrics: MetricsCollector::new(),
            retry_queue: RetryQueue::new(n_txns),
            queueing,
            rebalance_pending: vec![[false; 2]; n_channels],
            topo_events: Vec::new(),
            faults: None,
            overload: None,
            admission: config.admission.clone().map(AdmissionState::new),
            obs: Obs::new(&config.obs, n_channels),
            config,
        })
    }

    /// True when units travel hop by hop through router queues: queueing
    /// mode is configured and the scheme is non-atomic (atomic schemes keep
    /// lockstep all-or-nothing semantics).
    fn hop_by_hop(&self) -> bool {
        self.queueing.is_some() && !self.router.atomic()
    }

    /// Runs to the horizon and produces the report. The simulation object
    /// remains inspectable afterwards (channel states, conservation).
    pub fn run(&mut self) -> SimReport {
        let horizon = SimTime::ZERO + self.config.horizon;
        // The initial-state slice of the churn schedule (t = 0) applies
        // before anything routes: nothing is in flight, so no failback.
        // Mid-run churn fires from the calendar; sequenced before the
        // arrivals so a change at instant t applies before payments
        // arriving at t are routed.
        let mut initial = TopologyUpdate::default();
        for i in 0..self.topo_events.len() {
            let TopologyEvent { at, change } = self.topo_events[i];
            if at == SimTime::ZERO {
                self.apply_topology_change(change, &mut initial, false);
            } else if at <= horizon {
                self.events.schedule(at, EventKind::Topology(i));
            }
        }
        if !initial.is_empty() {
            self.metrics.initial_topology_state(
                initial.closed.len(),
                initial.opened.len(),
                initial.resized.len(),
            );
        }
        // Fault-plan crash/recover toggles fire from the calendar too,
        // sequenced after same-instant churn but before same-instant
        // arrivals.
        if let Some(faults) = &self.faults {
            for (i, ev) in faults.plan.events.iter().enumerate() {
                if ev.at <= horizon {
                    self.events.schedule(ev.at, EventKind::Fault(i));
                }
            }
        }
        self.events.open_runtime_band();
        // Snapshot the prewarm pairs before any arrival is consumed.
        let prewarm_pairs = if self.router.wants_prewarm() {
            let t0 = self.obs.profiler.start();
            let pairs = self.arrivals.source.distinct_pairs(Some(horizon));
            self.obs.profiler.stop(Phase::PrewarmPairs, t0);
            Some(pairs)
        } else {
            None
        };
        // Merge the first arrival; each arrival schedules its successor.
        self.arrivals.start(horizon);
        if let Some(first) = self.arrivals.next_due(horizon) {
            self.events.schedule_arrival(first);
        }
        self.events
            .schedule(SimTime::ZERO + POLL_INTERVAL, EventKind::Poll);
        if let Some(rb) = &self.config.rebalancing {
            self.events
                .schedule(SimTime::ZERO + rb.check_interval, EventKind::RebalanceScan);
        }

        self.router.configure(self.hop_by_hop());
        {
            let view = self.net.view();
            self.router.initialize(&view);
            // The schedule's initial closes happened before the router
            // existed; tell it now, so prewarmed candidate sets respect
            // the t = 0 liveness state.
            if !initial.is_empty() {
                self.router.on_topology_change(&initial, &view);
            }
            // Hand the router the distinct pairs it will be asked to
            // route, in first-arrival order (the order `route` will first
            // see them), so candidate sets are precomputed in one batched
            // pass instead of per pair on the routing hot path. Skipped
            // when the scheme keeps the default no-op hook.
            if let Some(pairs) = prewarm_pairs {
                let t0 = self.obs.profiler.start();
                self.router.prewarm(&pairs, &view);
                self.obs.profiler.stop(Phase::Prewarm, t0);
            }
        }

        loop {
            let mut it = self.obs.profiler.iteration();
            let popped = self.events.pop(horizon);
            self.obs.profiler.lap(&mut it, Phase::CalendarPop);
            let Some((t, kind)) = popped else {
                break;
            };
            self.net.now = t;
            let Some(kind) = kind else {
                continue;
            };
            let phase = kind.phase();
            match kind {
                EventKind::Arrival(spec) => {
                    if let Some(next) = self.arrivals.next_due(horizon) {
                        self.events.schedule_arrival(next);
                    }
                    self.obs.profiler.lap(&mut it, Phase::Arrivals);
                    self.on_arrival(spec, false);
                }
                EventKind::DeferredArrival(spec) => self.on_arrival(spec, true),
                EventKind::Settle {
                    payment,
                    amount,
                    path,
                } => self.on_settle(payment, amount, path),
                EventKind::Poll => self.on_poll(horizon),
                EventKind::RebalanceScan => self.on_rebalance_scan(horizon),
                EventKind::RebalanceSettle {
                    channel,
                    dir,
                    amount,
                } => {
                    self.net.channels[channel.index()].deposit(dir, amount);
                    self.obs.trace(self.net.now, || TraceEventKind::Deposit {
                        channel,
                        dir,
                        amount,
                    });
                    self.rebalance_pending[channel.index()][dir.index()] = false;
                    self.metrics.rebalanced(amount);
                    self.drain_released([(channel, dir)]);
                }
                EventKind::HopArrive(_) => self.on_hop_arrive(),
                EventKind::UnitDeliver(_) => self.on_unit_deliver(),
                EventKind::UnitTimeout { unit, reason } => self.on_unit_timeout(unit, reason),
                // Churn is too rare to sample: time every event.
                EventKind::Topology(i) => {
                    let t0 = self.obs.profiler.start();
                    self.on_topology_event(i);
                    self.obs.profiler.stop(Phase::ChurnRepair, t0);
                }
                EventKind::Fault(i) => {
                    let t0 = self.obs.profiler.start();
                    self.on_fault_event(i);
                    self.obs.profiler.stop(Phase::ChurnRepair, t0);
                }
            }
            if let Some(phase) = phase {
                self.obs.profiler.lap(&mut it, phase);
            }
            self.monitor_step();
        }
        self.events.finish();
        let failed_by_churn = self
            .payments
            .iter()
            .filter(|p| p.churn_hit && !p.completed)
            .count() as u64;
        self.metrics.payments_failed_churn(failed_by_churn);
        self.metrics.set_router_obs(self.router.observability());
        self.obs
            .finish(&self.config.obs, &self.net, &mut self.metrics);
        std::mem::take(&mut self.metrics).finish(self.router.name(), self.config.horizon)
    }

    /// Channel states (for inspection after a run).
    pub fn channel_states(&self) -> &[ChannelState] {
        &self.net.channels
    }

    /// The topology being simulated.
    pub fn topology(&self) -> &Topology {
        &self.net.topo
    }

    /// The shared path interner (for inspection after a run).
    pub fn paths(&self) -> &PathTable {
        &self.net.paths
    }

    /// Slab occupancy and event-loop counters: the quantities the
    /// engine-throughput benchmark and the slab-bound regression tests
    /// observe.
    pub fn slab_stats(&self) -> SlabStats {
        let mut stats = SlabStats {
            interned_paths: self.net.paths.len(),
            ..self.events.stats()
        };
        if let Some(q) = &self.queueing {
            q.add_stats(&mut stats);
        }
        stats
    }

    /// Units currently resident in router queues (queueing mode; zero in
    /// lockstep mode). Inspectable after a run: units may legitimately end
    /// the horizon still queued, with their upstream locks conserved.
    pub fn queued_units(&self) -> usize {
        self.queueing.as_ref().map_or(0, Queueing::queued_units)
    }

    fn on_arrival(&mut self, mut spec: TxnSpec, deferred: bool) {
        // Shaping admission (defer mode) acts before any payment state
        // exists. The re-offered spec carries the deferred time, so the
        // payment's arrival stamp — and therefore its deadline — runs
        // from when it actually enters the network. A deferred re-offer
        // bypasses the gate: its slot already spent its token when it
        // was promised.
        let gate = self.admission.as_mut().filter(|a| a.cfg.defer && !deferred);
        if let Some(at) = gate.and_then(|a| a.defer_until(self.net.now)) {
            self.metrics.admission_deferred();
            // A slot at the end of time is past every horizon: never due.
            if at < SimTime::FAR_FUTURE {
                spec.time = at;
                self.events.schedule(at, EventKind::DeferredArrival(spec));
            }
            return;
        }
        let deadline = match self.config.deadline {
            Some(d) => spec.time + d,
            None => SimTime::FAR_FUTURE,
        };
        // Payments arrive in event order and every deadline is the arrival
        // plus one constant, so deadlines never fall with the payment id:
        // the retry poll's expiry cursor rests on it.
        assert!(
            self.payments.last().is_none_or(|p| p.deadline <= deadline),
            "payment {} arrives with a deadline before its predecessor's",
            self.payments.len()
        );
        // Overload griefing: one draw per arrival (no plan, no draw).
        let griefing = self
            .overload
            .as_mut()
            .is_some_and(|o| o.rng.chance(o.plan.griefing_prob));
        let pid = self.payments.len();
        self.payments.push(PaymentState {
            src: spec.src,
            dst: spec.dst,
            total: spec.amount,
            delivered: Amount::ZERO,
            inflight: Amount::ZERO,
            arrival: spec.time,
            deadline,
            attempts: 0,
            completed: false,
            expired: false,
            churn_hit: false,
            griefing,
        });
        self.retry_queue.note_arrival();
        self.metrics.payment_arrived(spec.amount);
        self.obs
            .trace(self.net.now, || TraceEventKind::PaymentArrival {
                payment: PaymentId(pid as u64),
                src: spec.src,
                dst: spec.dst,
                amount: spec.amount,
            });
        // Policing admission: fail-fast before any routing work, so a
        // rejected payment never occupies a queue. Shaping mode already
        // made its decision above — by deferral, never by rejection.
        if !self.admit_payment(pid) {
            return;
        }
        let wait = self.attempt_payment(pid);
        self.requeue(pid, wait);
    }

    /// Queues what is left of a non-atomic payment for the next poll,
    /// waiting on `wait` (see [`Simulation::attempt_payment`]).
    fn requeue(&mut self, pid: usize, wait: Option<u32>) {
        if !self.router.atomic() && self.payments[pid].active() {
            self.retry_queue.push(pid, wait);
        }
    }

    /// The delivery tail both modes share: settles a run of units whose
    /// keys came back on every hop at once, charges the path's bottleneck
    /// once per unit, credits the payment, and records completion.
    /// `settled` is the mode's own trace record for a unit of the given
    /// value, recorded once per unit.
    fn deliver(
        &mut self,
        pid: usize,
        entry: &PathEntry,
        run: Run,
        settled: impl Fn(Amount) -> TraceEventKind,
    ) {
        let now = self.net.now;
        let amount = run.amount();
        for (c, dir) in entry.hops().iter().map(|hop| hop.parts()) {
            self.net.channels[c.index()].settle(dir, amount);
        }
        self.obs.bottleneck(entry, &self.net.channels, run.units());
        let p = &mut self.payments[pid];
        p.inflight -= amount;
        p.delivered += amount;
        self.metrics.units_settled(run.unit, run.full, now);
        self.obs.trace_n(now, run.full, || settled(run.unit));
        if !run.tail.is_zero() {
            self.metrics.unit_settled(run.tail, now);
            self.obs.trace(now, || settled(run.tail));
        }
        // Completion can only come with a payment's last unit in flight,
        // which is the last of its run.
        if p.delivered == p.total {
            p.completed = true;
            let latency = now - p.arrival;
            self.metrics.payment_completed(p.total, latency);
            self.obs.trace(now, || TraceEventKind::PaymentCompleted {
                payment: PaymentId(pid as u64),
                latency_us: latency.micros(),
            });
        }
    }

    /// Periodic depletion scan (§5.2.3): any channel direction whose
    /// available balance fell below the trigger gets an on-chain top-up
    /// back to the target fraction, arriving after the blockchain delay.
    /// Schedules the next scan if one fits the horizon.
    fn on_rebalance_scan(&mut self, horizon: SimTime) {
        let Some(rb) = &self.config.rebalancing else {
            return;
        };
        for (i, ch) in self.net.channels.iter().enumerate() {
            if ch.is_closed() {
                // A closed channel's zero availability is not depletion;
                // topping it up on-chain would strand the deposit.
                continue;
            }
            let capacity = ch.capacity();
            for dir in [Direction::Forward, Direction::Backward] {
                if self.rebalance_pending[i][dir.index()] {
                    continue;
                }
                let avail = ch.available(dir);
                if avail < capacity.mul_f64(rb.trigger_fraction) {
                    let target = capacity.mul_f64(rb.target_fraction);
                    let amount = target.saturating_sub(avail);
                    if amount.is_zero() {
                        continue;
                    }
                    self.rebalance_pending[i][dir.index()] = true;
                    self.events.schedule(
                        self.net.now + rb.confirmation_delay,
                        EventKind::RebalanceSettle {
                            channel: ChannelId::from_index(i),
                            dir,
                            amount,
                        },
                    );
                }
            }
        }
        let next = self.net.now + rb.check_interval;
        if next <= horizon {
            self.events.schedule(next, EventKind::RebalanceScan);
        }
    }

    /// Verifies fund conservation on every channel (available + in-flight
    /// equals escrowed capacity). Panics on violation.
    pub fn check_conservation(&self) {
        for (i, ch) in self.net.channels.iter().enumerate() {
            assert_eq!(
                ch.total(),
                ch.capacity(),
                "channel {i} violates conservation"
            );
        }
    }
}
