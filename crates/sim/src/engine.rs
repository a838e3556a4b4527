//! The discrete-event simulation engine.
//!
//! Event model (matching §6.1's simulator):
//!
//! * **Arrival** — a transaction arrives and is routed immediately; funds
//!   are locked along every hop of each accepted `(path, amount)` unit.
//! * **Settle** — Δ seconds after locking, the hash-lock key has propagated
//!   and each hop's funds move to the downstream party. If the payment's
//!   deadline has passed in the meantime, the sender withholds the key and
//!   the hops are refunded instead (§4.1's non-atomic cancellation).
//! * **Poll** — every `poll_interval`, incomplete non-atomic payments are
//!   re-attempted in scheduling-policy order (SRPT by default) — except
//!   those whose attempt provably locks nothing. When the router pinned
//!   the payment to one path ([`Router::pins_single_path`]) and some hop
//!   of that path has less available than the smallest chunk of the
//!   payment's remainder, every chunk fails at that hop and the failed
//!   lock rolls back the hops before it: the attempt would leave
//!   balances, payments and the calendar untouched, so it is skipped.
//!   Attempts within one poll only *lower* availability, so "blocked
//!   when tested" implies "blocked at its turn": the test runs over the
//!   whole queue before the sort (only survivors are sorted, and they
//!   keep the relative policy order they had among all pending
//!   payments) and once more at each survivor's turn. A pin is
//!   forgotten the moment the router receives any callback, and
//!   balances are read at poll time, so no credit site (settle, refund,
//!   deposit, resize, reopen) needs a hook. `retries`, `units_failed`
//!   and `RouteRequest::attempt` therefore count attempts actually made.
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
//! Scheduling runs through a bucketed [`CalendarQueue`] (O(1) amortized
//! push/pop; exact `(time, seq)` order). Arrivals are **streamed**: the
//! workload is merged into the calendar one arrival at a time (each
//! arrival schedules its successor from a reserved seq band that keeps
//! tie-breaks bit-identical to the old pre-seeded calendar), so the live
//! event population is bounded by in-flight work, not total payments.
//! Pending lockstep settles and in-flight hop-by-hop units are also
//! indexed per channel ([`ChannelIndex`]), so a topology-churn close
//! touches only its own channel's work instead of walking the slabs.

use crate::calendar::CalendarQueue;
use crate::chanindex::ChannelIndex;
use crate::channel::ChannelState;
use crate::config::{AdmissionConfig, QueueConfig, QueueingMode, SchedulingPolicy, SimConfig};
use crate::metrics::{MetricsCollector, SimReport};
use crate::monitor::{InvariantMonitor, InvariantReport};
use crate::paths::{PathEntry, PathTable};
use crate::queue::local_signal;
use crate::router::{NetworkView, RouteRequest, Router, TopologyUpdate, UnitAck, UnitOutcome};
use crate::workload::{ArrivalSource, TxnSpec};
use spider_faults::{FaultChange, FaultPlan};
use spider_obs::trace::TraceEventKind;
use spider_obs::{
    ChannelAttribution, ChannelSample, DropRecord, FlightRecorder, Phase, Profiler, Sampler, Trace,
    TraceSink, HOTSPOT_K, NUM_SERIES,
};
use spider_overload::OverloadPlan;
use spider_topology::Topology;
use spider_types::{
    Amount, ChannelId, DetRng, Direction, DropReason, MarkStamp, NodeId, PathId, PaymentId,
    SimTime, TopologyChange, TopologyEvent,
};
use std::cmp::Reverse;
use std::collections::VecDeque;
use std::rc::Rc;

/// First sequence number handed to events scheduled mid-run. Arrivals
/// draw from a reserved band below this (starting right after the churn
/// schedule's seqs), so a streamed arrival keeps exactly the tie-break
/// rank the old pre-seeded calendar gave it: at equal instants, topology
/// changes beat arrivals, and arrivals beat every event scheduled while
/// the run is underway.
const RUNTIME_SEQ_BASE: u64 = 1 << 32;

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
    /// the installed [`OverloadPlan`]'s runtime stream.
    griefing: bool,
}

impl PaymentState {
    fn unassigned(&self) -> Amount {
        self.total - self.delivered - self.inflight
    }
    fn active(&self) -> bool {
        !self.completed && !self.expired && !self.unassigned().is_zero()
    }
}

/// One slot of the lockstep retry queue.
#[derive(Debug, Clone, Copy)]
struct PendingEntry {
    payment: usize,
    /// The path the payment's last attempt was pinned to: the router
    /// promised [`Router::pins_single_path`] and proposed exactly this
    /// path for the whole remainder. While it stands, a poll skips the
    /// payment if the path cannot carry its smallest chunk. `None` when
    /// no promise was given, or since the router's last callback.
    pinned: Option<PathId>,
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
    /// Queueing mode: a unit arrives at the node before hop `next_hop`
    /// after the per-hop forwarding delay and attempts to cross.
    HopArrive {
        unit: usize,
    },
    /// Queueing mode: a fully locked unit settles Δ after reaching its
    /// destination (or is refunded if its payment expired meanwhile).
    UnitDeliver {
        unit: usize,
    },
    /// Queueing mode: a queued unit exceeded the maximum queueing delay.
    QueueTimeout {
        unit: usize,
    },
    /// Queueing mode, fault injection: the unit's forwarding message (or
    /// its delivery ack) was lost, or a hop silently holds it; the
    /// sender's per-hop timeout fires, cancels the unit, and refunds
    /// every locked upstream hop.
    HopTimeout {
        unit: usize,
        reason: DropReason,
    },
    /// A scheduled topology-churn event (index into
    /// `Simulation::topo_events`) takes effect.
    Topology(usize),
    /// A scheduled fault-plan event (index into the installed
    /// [`FaultPlan`]'s events — a node crash or recovery) takes effect.
    Fault(usize),
}

/// A transaction unit traveling hop by hop under
/// [`QueueingMode::PerChannelFifo`].
///
/// An alive unit always has exactly one pending event (`HopArrive`,
/// `QueueTimeout`, or `UnitDeliver`); retiring a unit therefore happens
/// only after that event was consumed or canceled, which is what makes
/// the slab slot safely recyclable.
#[derive(Debug)]
struct UnitState {
    payment: usize,
    amount: Amount,
    /// Interned path; hops resolve through the shared [`PathTable`].
    path: PathId,
    /// The resolved entry for `path`, pinned once at injection so the
    /// per-hop events skip the table lookup.
    entry: Rc<PathEntry>,
    /// Hops already locked; the unit currently sits before hop `next_hop`
    /// (or at the destination when `next_hop == hop_count`).
    next_hop: usize,
    injected_at: SimTime,
    /// When the unit joined its current queue (valid while queued).
    enqueued_at: SimTime,
    /// Pending `QueueTimeout` event id, cancelable on service.
    timeout_event: Option<usize>,
    /// Pending `HopArrive`/`UnitDeliver` event id while the unit travels,
    /// cancelable when a channel close fails the unit back mid-flight.
    hop_event: Option<usize>,
    /// True once the unit has waited in any queue (for metrics).
    waited: bool,
    stamp: MarkStamp,
    /// Why the unit was dropped (set just before its nack).
    drop_reason: Option<DropReason>,
    /// Settled or dropped; the slot is back on the free list.
    done: bool,
}

/// Token-bucket state for sender-side admission control.
#[derive(Debug, Clone)]
struct AdmissionState {
    cfg: AdmissionConfig,
    /// Tokens banked; refilled lazily on each arrival.
    tokens: f64,
    /// When the bucket was last refilled.
    last_refill: SimTime,
    /// Shaping mode: the time slot promised to the most recently
    /// deferred arrival; later deferrals queue behind it (FIFO pacing
    /// at exactly `rate_per_sec`).
    defer_horizon: SimTime,
}

impl AdmissionState {
    fn new(cfg: AdmissionConfig) -> Self {
        let tokens = cfg.burst;
        AdmissionState {
            cfg,
            tokens,
            last_refill: SimTime::ZERO,
            defer_horizon: SimTime::ZERO,
        }
    }

    /// Shaping mode only: decides whether an arrival at `now` must wait.
    /// `None` admits immediately; `Some(t)` defers the arrival to `t`,
    /// the deterministic time the bucket next frees a slot — behind
    /// every earlier deferral, so deferred arrivals drain in FIFO order
    /// at exactly the sustained rate.
    ///
    /// In shaping mode this function owns the bucket entirely: the
    /// token is spent here on both outcomes (a promised slot spends its
    /// token at schedule time, driving `tokens` negative — debt — under
    /// backlog), and a deferred re-offer never re-enters the gate. The
    /// occupancy gate (`max_queue_fraction`) is a policing-mode
    /// concept; shaping bounds intake by time, not by rejection.
    fn defer_until(&mut self, now: SimTime) -> Option<SimTime> {
        debug_assert!(self.cfg.defer, "defer_until requires shaping mode");
        let dt = (now - self.last_refill).as_secs_f64();
        self.last_refill = now;
        self.tokens = (self.tokens + dt * self.cfg.rate_per_sec).min(self.cfg.burst);
        let backlogged = self.defer_horizon > now;
        if !backlogged && self.tokens >= 1.0 {
            self.tokens -= 1.0;
            return None;
        }
        let at = if backlogged {
            self.defer_horizon
        } else {
            let token_wait = (1.0 - self.tokens).max(0.0) / self.cfg.rate_per_sec;
            now + spider_types::SimDuration::from_secs_f64(token_wait)
        };
        self.tokens -= 1.0;
        self.defer_horizon =
            at + spider_types::SimDuration::from_secs_f64(1.0 / self.cfg.rate_per_sec);
        Some(at)
    }

    /// Refills the bucket to `now`, then decides one payment: `true`
    /// admits (consuming a token), `false` rejects. `queue_fraction` is
    /// the global queue occupancy in [0, 1].
    fn admit(&mut self, now: SimTime, queue_fraction: f64) -> bool {
        let dt = (now - self.last_refill).as_secs_f64();
        self.last_refill = now;
        self.tokens = (self.tokens + dt * self.cfg.rate_per_sec).min(self.cfg.burst);
        if queue_fraction > self.cfg.max_queue_fraction || self.tokens < 1.0 {
            return false;
        }
        self.tokens -= 1.0;
        true
    }
}

/// Slab occupancy and lifetime counters (see [`Simulation::slab_stats`]).
///
/// The invariant the regression tests assert: `event_slots` and
/// `unit_slots` track the *peak in-flight* population, not the total ever
/// scheduled — a long run must not grow them linearly with
/// `events_scheduled` / `units_injected`.
#[derive(Debug, Clone, Copy, Default)]
pub struct SlabStats {
    /// Events ever pushed onto the calendar.
    pub events_scheduled: u64,
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
    /// Index entries examined while handling topology-churn closes (and
    /// amortized index compaction). The churn regression tests assert
    /// this scales with the closed channels' *live* work, not with the
    /// slab sizes the pre-index engine scanned.
    pub churn_scan_steps: u64,
}

/// The simulator.
pub struct Simulation {
    topo: Topology,
    channels: Vec<ChannelState>,
    config: SimConfig,
    router: Box<dyn Router>,
    /// Where arrivals come from (materialized list or lazy stream);
    /// merged into the calendar one arrival at a time.
    source: ArrivalSource,
    /// In-horizon arrival indices in `(time, index)` order
    /// ([`ArrivalSource::Fixed`] only).
    arrival_order: Vec<u32>,
    arrival_cursor: usize,
    /// Next reserved arrival sequence number (see [`RUNTIME_SEQ_BASE`]).
    arrival_seq: u64,
    payments: Vec<PaymentState>,
    /// Incomplete non-atomic payments awaiting the next poll, in the
    /// order they joined.
    pending: Vec<PendingEntry>,
    /// `in_pending[pid]` ⇔ `pid ∈ pending` — O(1) membership for the
    /// drop/failback paths that re-queue payments.
    in_pending: Vec<bool>,
    events: CalendarQueue,
    event_store: Vec<Option<EventKind>>,
    /// Slot generation, bumped on every (re)allocation: per-channel index
    /// entries are validated against it so recycled slots cannot alias.
    event_gen: Vec<u32>,
    /// Event slots whose calendar entry has been consumed; reused by the
    /// next `schedule`. Slots canceled in place (`event_store[id] = None`)
    /// are reclaimed when their calendar entry pops, never earlier, so a
    /// pending calendar entry always refers to the event that scheduled it.
    free_events: Vec<usize>,
    seq: u64,
    now: SimTime,
    metrics: MetricsCollector,
    /// Per (channel, direction): an on-chain deposit is in flight, so
    /// don't schedule another.
    rebalance_pending: Vec<[bool; 2]>,
    /// Next time a series sample is due (once per sampler cadence).
    next_sample: SimTime,
    /// Unified series sampler (see [`spider_obs::SERIES_NAMES`]).
    sampler: Sampler,
    /// Payment-lifecycle trace sink; `None` unless
    /// [`ObsConfig::trace`](crate::config::ObsConfig) — every record site
    /// is behind one `if let`, so disabled tracing costs a branch.
    trace: Option<TraceSink>,
    /// Stable per-run trace ids for unit slab slots (slots recycle, trace
    /// ids don't); maintained only while tracing.
    unit_trace_ids: Vec<u64>,
    /// Engine phase timers (zero-cost when disabled).
    profiler: Profiler,
    /// Per-channel hotspot accumulators; `None` unless
    /// [`ObsConfig::attribution`](crate::config::ObsConfig) — like the
    /// trace, every feed site is one `if let` branch when disabled.
    attribution: Option<ChannelAttribution>,
    /// Drop-forensics flight recorder; `None` unless
    /// [`ObsConfig::forensics_capacity`](crate::config::ObsConfig) > 0.
    forensics: Option<FlightRecorder>,
    /// Queueing parameters when running in `PerChannelFifo` mode.
    qcfg: Option<QueueConfig>,
    /// Per channel, per direction: FIFO of queued unit indices.
    queues: Vec<[VecDeque<usize>; 2]>,
    /// Slab of hop-by-hop units (queueing mode only).
    units: Vec<UnitState>,
    /// Unit-slot generation (same rôle as `event_gen`).
    unit_gen: Vec<u32>,
    /// Retired unit slots awaiting reuse.
    free_units: Vec<usize>,
    /// Cumulative volume serviced per channel direction (the `x_u − x_v`
    /// flow-imbalance observable of §5.3).
    flow: Vec<[Amount; 2]>,
    /// The shared path interner (routers reach it via [`NetworkView`]).
    paths: PathTable,
    /// Topology-churn schedule (sorted by instant; see
    /// [`Simulation::set_topology_events`]).
    topo_events: Vec<TopologyEvent>,
    /// Pending lockstep `Settle` event ids indexed by traversed channel
    /// (maintained only while a churn schedule is installed).
    settle_index: ChannelIndex,
    /// In-flight hop-by-hop unit ids indexed by traversed channel
    /// (likewise churn-only).
    unit_index: ChannelIndex,
    /// True while the per-channel indices are maintained — exactly when
    /// the run has a churn schedule that could close channels.
    track_channels: bool,
    /// Installed fault plan (see [`Simulation::set_fault_plan`]). `None`
    /// leaves the fault machinery entirely inert: no draw is ever made,
    /// no timer armed — fault-free runs stay bit-identical to the
    /// fault-unaware engine.
    fault_plan: Option<FaultPlan>,
    /// Runtime draw stream for per-unit fault decisions, seeded from the
    /// plan (untouched when no plan is installed).
    fault_rng: DetRng,
    /// Per-node crashed flag, toggled by [`EventKind::Fault`] events;
    /// empty when no fault plan is installed.
    crashed_nodes: Vec<bool>,
    /// Installed overload plan (see [`Simulation::set_overload_plan`]).
    /// `None` leaves the overload machinery entirely inert — like the
    /// fault plan, no draw is ever made without one.
    overload_plan: Option<OverloadPlan>,
    /// Runtime draw stream for per-payment griefing decisions, seeded
    /// from the plan (untouched when no plan is installed).
    overload_rng: DetRng,
    /// Token-bucket state for sender-side admission control; `None`
    /// unless [`SimConfig::admission`] is set.
    admission: Option<AdmissionState>,
    /// Units resident in router queues right now, across every channel
    /// direction — O(1) occupancy for the admission gate.
    queued_units_total: usize,
    /// Runtime invariant monitor; `None` unless
    /// [`ObsConfig::invariants_every`](crate::config::ObsConfig) > 0.
    monitor: Option<InvariantMonitor>,
    /// Cached `Router::observes_unit_outcomes` for the run.
    router_observes: bool,
    /// Reusable released-direction worklist for `drain`/drop cascades.
    drain_scratch: VecDeque<(ChannelId, Direction)>,
    /// Reusable id list: the hit list of an indexed churn close, or the
    /// positions in `pending` a poll re-offers.
    id_scratch: Vec<u32>,
    events_scheduled: u64,
    events_executed: u64,
    live_events: usize,
    peak_live_events: usize,
    units_injected: u64,
    peak_live_units: usize,
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
        let channels: Vec<ChannelState> = topo
            .channels()
            .map(|(_, c)| ChannelState::split_equally(c.capacity))
            .collect();
        let n_channels = channels.len();
        let rebalance_pending = vec![[false; 2]; n_channels];
        let qcfg = match &config.queueing {
            QueueingMode::Lockstep => None,
            QueueingMode::PerChannelFifo(qc) => Some(qc.clone()),
        };
        let queues = channels
            .iter()
            .map(|_| [VecDeque::new(), VecDeque::new()])
            .collect();
        let flow = vec![[Amount::ZERO; 2]; n_channels];
        let sampler = Sampler::new(config.obs.sampler.clone());
        let trace = config.obs.trace.then(TraceSink::new);
        let profiler = Profiler::new(config.obs.profile);
        let attribution = config
            .obs
            .attribution
            .then(|| ChannelAttribution::new(n_channels));
        let forensics = (config.obs.forensics_capacity > 0)
            .then(|| FlightRecorder::new(config.obs.forensics_capacity));
        let admission = config.admission.clone().map(AdmissionState::new);
        let monitor = (config.obs.invariants_every > 0)
            .then(|| InvariantMonitor::new(config.obs.invariants_every));
        // Payments accumulate per arrival; the event slab only ever holds
        // in-flight work (arrivals are streamed), so it sizes itself.
        let n_txns = source.count();
        Ok(Simulation {
            topo,
            channels,
            config,
            router,
            source,
            arrival_order: Vec::new(),
            arrival_cursor: 0,
            arrival_seq: 0,
            payments: Vec::with_capacity(n_txns),
            pending: Vec::new(),
            in_pending: Vec::with_capacity(n_txns),
            events: CalendarQueue::new(),
            event_store: Vec::new(),
            event_gen: Vec::new(),
            free_events: Vec::new(),
            seq: 0,
            now: SimTime::ZERO,
            metrics: MetricsCollector::new(),
            rebalance_pending,
            next_sample: SimTime::ZERO,
            sampler,
            trace,
            unit_trace_ids: Vec::new(),
            profiler,
            attribution,
            forensics,
            qcfg,
            queues,
            units: Vec::new(),
            unit_gen: Vec::new(),
            free_units: Vec::new(),
            flow,
            paths: PathTable::new(),
            topo_events: Vec::new(),
            settle_index: ChannelIndex::new(n_channels),
            unit_index: ChannelIndex::new(n_channels),
            track_channels: false,
            fault_plan: None,
            fault_rng: DetRng::new(0),
            crashed_nodes: Vec::new(),
            overload_plan: None,
            overload_rng: DetRng::new(0),
            admission,
            queued_units_total: 0,
            monitor,
            router_observes: true,
            drain_scratch: VecDeque::new(),
            id_scratch: Vec::new(),
            events_scheduled: 0,
            events_executed: 0,
            live_events: 0,
            peak_live_events: 0,
            units_injected: 0,
            peak_live_units: 0,
        })
    }

    /// True when units travel hop by hop through router queues: queueing
    /// mode is configured and the scheme is non-atomic (atomic schemes keep
    /// lockstep all-or-nothing semantics).
    fn hop_by_hop(&self) -> bool {
        self.qcfg.is_some() && !self.router.atomic()
    }

    /// Schedules an event with the next runtime sequence number and
    /// returns its id (needed by callers that may cancel it).
    fn schedule(&mut self, at: SimTime, kind: EventKind) -> usize {
        let seq = self.seq;
        self.seq += 1;
        self.schedule_at(at, seq, kind)
    }

    /// Schedules an event under an explicit sequence number, reusing a
    /// retired slab slot when one is free.
    fn schedule_at(&mut self, at: SimTime, seq: u64, kind: EventKind) -> usize {
        let id = match self.free_events.pop() {
            Some(id) => {
                debug_assert!(self.event_store[id].is_none());
                self.event_store[id] = Some(kind);
                self.event_gen[id] = self.event_gen[id].wrapping_add(1);
                id
            }
            None => {
                self.event_store.push(Some(kind));
                self.event_gen.push(0);
                self.event_store.len() - 1
            }
        };
        self.events.push(at, seq, id);
        self.events_scheduled += 1;
        self.live_events += 1;
        if self.live_events > self.peak_live_events {
            self.peak_live_events = self.live_events;
        }
        id
    }

    /// Cancels a pending event in place. The slot itself is reclaimed when
    /// the calendar entry pops (so the calendar never refers to a reused
    /// slot).
    fn cancel_event(&mut self, id: usize) {
        debug_assert!(self.event_store[id].is_some(), "double cancel");
        self.event_store[id] = None;
        self.live_events -= 1;
    }

    /// Installs a topology-churn schedule (see
    /// [`TopologyEvent`]); call before [`Simulation::run`]. Events are
    /// applied in `(at, list-order)` order. Entries at `t = 0` describe the
    /// initial liveness state (channels that exist in the union topology
    /// but have not opened yet) and are applied before any routing or
    /// prewarm; later entries fire from the calendar mid-run.
    pub fn set_topology_events(&mut self, mut events: Vec<TopologyEvent>) {
        // Stable by instant: same-instant events keep their list order.
        events.sort_by_key(|e| e.at);
        self.topo_events = events;
    }

    /// Installs a fault plan (see [`FaultPlan`]); call before
    /// [`Simulation::run`]. Crash/recover toggles fire from the calendar;
    /// per-unit loss/stuck/jitter decisions draw from the plan's own
    /// runtime stream, so the workload and scheme streams are unaffected.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        assert_eq!(
            plan.message_loss.len(),
            self.topo.channel_count(),
            "fault plan was generated for a different topology"
        );
        self.fault_rng = DetRng::new(plan.runtime_seed);
        self.crashed_nodes = vec![false; self.topo.node_count()];
        self.fault_plan = Some(plan);
    }

    /// Installs an overload plan (see [`OverloadPlan`]); call before
    /// [`Simulation::run`]. The engine draws per-payment griefing from
    /// the plan's own runtime stream, so the workload, scheme, churn and
    /// fault streams are unaffected; the plan's workload transforms
    /// (time warp, pair redirects) are applied by the caller before the
    /// workload reaches the engine.
    pub fn set_overload_plan(&mut self, plan: OverloadPlan) {
        self.overload_rng = DetRng::new(plan.runtime_seed);
        self.overload_plan = Some(plan);
    }

    /// Runs to the horizon and produces the report. The simulation object
    /// remains inspectable afterwards (channel states, conservation).
    pub fn run(&mut self) -> SimReport {
        let horizon = SimTime::ZERO + self.config.horizon;
        // The per-channel indices are maintained exactly when the run has
        // a churn schedule (the only source of channel closes).
        self.track_channels = !self.topo_events.is_empty();
        self.router_observes = self.router.observes_unit_outcomes();
        // Apply the initial-state slice of the churn schedule (t = 0)
        // before anything routes: nothing is in flight, so no failback.
        let mut initial = TopologyUpdate::default();
        for i in 0..self.topo_events.len() {
            if self.topo_events[i].at == SimTime::ZERO {
                let change = self.topo_events[i].change;
                self.apply_topology_change(change, &mut initial, false);
            }
        }
        if !initial.is_empty() {
            self.metrics.initial_topology_state(
                initial.closed.len(),
                initial.opened.len(),
                initial.resized.len(),
            );
        }
        // Mid-run churn fires from the calendar; sequenced before the
        // arrivals so a change at instant t applies before payments
        // arriving at t are routed.
        for i in 0..self.topo_events.len() {
            let at = self.topo_events[i].at;
            if at > SimTime::ZERO && at <= horizon {
                self.schedule(at, EventKind::Topology(i));
            }
        }
        // Fault-plan crash/recover toggles fire from the calendar too,
        // sequenced after same-instant churn but before same-instant
        // arrivals.
        let n_fault_events = self.fault_plan.as_ref().map_or(0, |p| p.events.len());
        for i in 0..n_fault_events {
            let at = self.fault_plan.as_ref().expect("plan present").events[i].at;
            if at <= horizon {
                self.schedule(at, EventKind::Fault(i));
            }
        }
        // Partition the sequence space: arrivals draw reserved seqs right
        // after the churn schedule's, runtime events from a disjoint
        // upper band. A streamed arrival therefore keeps exactly the
        // tie-break rank the old pre-seeded calendar gave it.
        debug_assert!(self.seq < RUNTIME_SEQ_BASE, "churn schedule too large");
        self.arrival_seq = self.seq;
        self.seq = RUNTIME_SEQ_BASE;
        // Snapshot the prewarm pairs before any arrival is consumed (a
        // streaming source enumerates them from a pristine clone).
        let prewarm_pairs = self
            .router
            .wants_prewarm()
            .then(|| self.source.distinct_pairs(Some(horizon)));
        // Merge the first arrival; each arrival schedules its successor.
        self.init_arrivals(horizon);
        self.schedule(SimTime::ZERO + self.config.poll_interval, EventKind::Poll);
        if let Some(rb) = &self.config.rebalancing {
            self.schedule(SimTime::ZERO + rb.check_interval, EventKind::RebalanceScan);
        }

        self.router.configure(self.hop_by_hop());
        {
            let view = NetworkView {
                topo: &self.topo,
                channels: &self.channels,
                paths: &self.paths,
                now: self.now,
            };
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
                self.router.prewarm(&pairs, &view);
            }
        }

        loop {
            let t0 = self.profiler.start();
            let popped = self.events.pop();
            self.profiler.stop(Phase::CalendarPop, t0);
            let Some((t, _, id)) = popped else {
                break;
            };
            if t > horizon {
                break;
            }
            self.now = t;
            // The calendar entry is consumed: the slot is reusable from
            // here on.
            let kind = self.event_store[id].take();
            self.free_events.push(id);
            // Canceled events (atomic rollback, serviced timeouts) leave a
            // `None` behind.
            let Some(kind) = kind else {
                continue;
            };
            self.live_events -= 1;
            self.events_executed += 1;
            match kind {
                EventKind::Arrival(spec) => {
                    let t0 = self.profiler.start();
                    self.schedule_next_arrival(horizon);
                    self.on_arrival(spec, false);
                    self.profiler.stop(Phase::Routing, t0);
                }
                EventKind::DeferredArrival(spec) => {
                    let t0 = self.profiler.start();
                    self.on_arrival(spec, true);
                    self.profiler.stop(Phase::Routing, t0);
                }
                EventKind::Settle {
                    payment,
                    amount,
                    path,
                } => {
                    let t0 = self.profiler.start();
                    self.on_settle(payment, amount, path);
                    self.profiler.stop(Phase::Settlement, t0);
                }
                EventKind::Poll => {
                    self.on_poll();
                    let next = self.now + self.config.poll_interval;
                    if next <= horizon {
                        self.schedule(next, EventKind::Poll);
                    }
                }
                EventKind::RebalanceScan => {
                    self.on_rebalance_scan();
                    if let Some(rb) = &self.config.rebalancing {
                        let next = self.now + rb.check_interval;
                        if next <= horizon {
                            self.schedule(next, EventKind::RebalanceScan);
                        }
                    }
                }
                EventKind::RebalanceSettle {
                    channel,
                    dir,
                    amount,
                } => {
                    self.channels[channel.index()].deposit(dir, amount);
                    self.rebalance_pending[channel.index()][dir.index()] = false;
                    self.metrics.rebalanced(amount);
                    debug_assert!(self.drain_scratch.is_empty());
                    self.drain_scratch.push_back((channel, dir));
                    self.drain_from_scratch();
                }
                EventKind::HopArrive { unit } => {
                    let t0 = self.profiler.start();
                    self.on_hop_arrive(unit);
                    self.profiler.stop(Phase::Forwarding, t0);
                }
                EventKind::UnitDeliver { unit } => {
                    let t0 = self.profiler.start();
                    self.on_unit_deliver(unit);
                    self.profiler.stop(Phase::Forwarding, t0);
                }
                EventKind::QueueTimeout { unit } => {
                    let t0 = self.profiler.start();
                    self.on_queue_timeout(unit);
                    self.profiler.stop(Phase::Forwarding, t0);
                }
                EventKind::HopTimeout { unit, reason } => {
                    let t0 = self.profiler.start();
                    self.on_hop_timeout(unit, reason);
                    self.profiler.stop(Phase::Forwarding, t0);
                }
                EventKind::Topology(i) => {
                    let t0 = self.profiler.start();
                    self.on_topology_event(i);
                    self.profiler.stop(Phase::ChurnRepair, t0);
                }
                EventKind::Fault(i) => {
                    let t0 = self.profiler.start();
                    self.on_fault_event(i);
                    self.profiler.stop(Phase::ChurnRepair, t0);
                }
            }
            #[cfg(debug_assertions)]
            self.debug_check_channel_indices();
            // Runtime invariant monitor: a read-only sweep every K
            // executed events when enabled; one branch when not.
            if self.monitor.is_some() {
                self.monitor_step();
            }
        }
        let failed_by_churn = self
            .payments
            .iter()
            .filter(|p| p.churn_hit && !p.completed)
            .count() as u64;
        self.metrics.payments_failed_churn(failed_by_churn);
        self.metrics.set_router_obs(self.router.observability());
        let sampler = std::mem::replace(
            &mut self.sampler,
            Sampler::new(self.config.obs.sampler.clone()),
        );
        self.metrics.set_samples(sampler.finish());
        self.metrics.set_profile(self.profiler.finish());
        if self.attribution.is_some() {
            // Close the final integral segment, then reduce to top-K.
            self.attribution_step();
            let hotspots = self
                .attribution
                .as_ref()
                .expect("attribution checked above")
                .finish(HOTSPOT_K);
            self.metrics.set_hotspots(hotspots);
        }
        std::mem::take(&mut self.metrics).finish(self.router.name(), self.config.horizon)
    }

    /// Advances the attribution time integrals to `now`, one
    /// [`ChannelSample`] per channel in dense-id order. No-op unless
    /// attribution is enabled.
    fn attribution_step(&mut self) {
        let Some(attr) = self.attribution.as_mut() else {
            return;
        };
        let now_s = self.now.as_secs_f64();
        attr.integrate(
            now_s,
            self.channels.iter().map(|ch| {
                let cap = ch.capacity().drops().max(1) as f64;
                let fwd = ch.available(Direction::Forward);
                let bwd = ch.available(Direction::Backward);
                let locked = ch
                    .capacity()
                    .drops()
                    .saturating_sub(fwd.drops())
                    .saturating_sub(bwd.drops());
                ChannelSample {
                    closed: ch.is_closed(),
                    util_frac: locked as f64 / cap,
                    at_zero: fwd.is_zero() || bwd.is_zero(),
                    imbalance_frac: ch.imbalance().drops().unsigned_abs() as f64 / cap,
                }
            }),
        );
    }

    /// Records a drop into the forensics flight recorder. `channel` is
    /// the failing hop (with its balances read in canonical channel
    /// orientation), or `None` for whole-path failures with no single
    /// failing hop. No-op unless forensics is enabled.
    #[inline]
    fn forensic_drop(
        &mut self,
        payment: usize,
        path: PathId,
        channel: Option<ChannelId>,
        reason: DropReason,
    ) {
        let Some(rec) = self.forensics.as_mut() else {
            return;
        };
        let (bal_fwd, bal_rev) = match channel {
            Some(c) => {
                let ch = &self.channels[c.index()];
                (
                    ch.balance(Direction::Forward).drops(),
                    ch.balance(Direction::Backward).drops(),
                )
            }
            None => (0, 0),
        };
        rec.record(DropRecord {
            t_us: self.now.micros(),
            payment: payment as u64,
            path: path.0 as u64,
            channel: channel.map(|c| c.0),
            bal_fwd_drops: bal_fwd,
            bal_rev_drops: bal_rev,
            retries: self.payments[payment].attempts,
            reason,
        });
    }

    /// Takes the payment-lifecycle trace recorded by the run (when
    /// [`ObsConfig::trace`](crate::config::ObsConfig) was set), resolving
    /// every referenced [`PathId`] to its node list. Call once, after
    /// [`Simulation::run`]; subsequent calls (and untraced runs) return
    /// `None`.
    pub fn take_trace(&mut self) -> Option<Trace> {
        let sink = self.trace.take()?;
        let mut ids: Vec<u32> = sink
            .events()
            .filter_map(|e| match &e.kind {
                TraceEventKind::RouteProposal { path, .. }
                | TraceEventKind::LockOutcome { path, .. }
                | TraceEventKind::UnitInjected { path, .. } => Some(path.0),
                _ => None,
            })
            .collect();
        ids.sort_unstable();
        ids.dedup();
        let paths = ids
            .into_iter()
            .map(|id| {
                let nodes = self
                    .paths
                    .map_entry(PathId(id), |e| e.nodes().iter().map(|n| n.0).collect());
                (id as u64, nodes)
            })
            .collect();
        Some(sink.finish(paths))
    }

    /// Takes the drop-forensics flight recorder (when
    /// [`ObsConfig::forensics_capacity`](crate::config::ObsConfig) was
    /// nonzero). Call once, after [`Simulation::run`]; subsequent calls
    /// (and runs without forensics) return `None`.
    pub fn take_forensics(&mut self) -> Option<FlightRecorder> {
        self.forensics.take()
    }

    /// Takes the runtime invariant monitor's report (when
    /// [`ObsConfig::invariants_every`](crate::config::ObsConfig) was
    /// nonzero). Call once, after [`Simulation::run`]; subsequent calls
    /// (and unmonitored runs) return `None`.
    pub fn take_invariant_report(&mut self) -> Option<InvariantReport> {
        self.monitor.take().map(InvariantMonitor::finish)
    }

    /// Advances the invariant monitor one executed event, running a full
    /// sweep when one is due. The sweep only reads engine state:
    /// monitored and unmonitored runs produce bit-identical reports.
    fn monitor_step(&mut self) {
        let mut mon = self.monitor.take().expect("caller checked the monitor");
        if mon.step_due() {
            self.run_invariant_checks(&mut mon);
        }
        self.monitor = Some(mon);
    }

    /// One full invariant sweep (see [`crate::monitor`]): conservation,
    /// queue bounds, unit-state legality, payment accounting.
    fn run_invariant_checks(&self, mon: &mut InvariantMonitor) {
        mon.note_check();
        let t_us = self.now.micros();
        // Conservation: available + in-flight = escrowed capacity.
        for (i, ch) in self.channels.iter().enumerate() {
            if ch.total() != ch.capacity() {
                mon.record(
                    t_us,
                    "conservation",
                    format!(
                        "channel {i}: total {} drops != capacity {} drops",
                        ch.total().drops(),
                        ch.capacity().drops()
                    ),
                );
            }
        }
        // Queue bounds: per-direction occupancy within the configured
        // cap, and the O(1) occupancy counter consistent with a recount.
        if let Some(qc) = &self.qcfg {
            let mut total = 0usize;
            for (i, q) in self.queues.iter().enumerate() {
                for (dir, dq) in q.iter().enumerate() {
                    let len = dq.len();
                    total += len;
                    if len > qc.max_queue_units {
                        mon.record(
                            t_us,
                            "queue_bounds",
                            format!(
                                "channel {i} dir {dir}: {len} queued > cap {}",
                                qc.max_queue_units
                            ),
                        );
                    }
                }
            }
            if total != self.queued_units_total {
                mon.record(
                    t_us,
                    "queue_bounds",
                    format!(
                        "occupancy counter {} != recount {total}",
                        self.queued_units_total
                    ),
                );
            }
        }
        // Unit-state legality: an alive unit has exactly one pending
        // event and a hop cursor inside its path.
        for (uid, u) in self.units.iter().enumerate() {
            if u.done {
                continue;
            }
            let pending = u.timeout_event.is_some() as u8 + u.hop_event.is_some() as u8;
            if pending != 1 {
                mon.record(
                    t_us,
                    "unit_state",
                    format!("unit {uid}: {pending} pending events (want exactly 1)"),
                );
            }
            if u.next_hop > u.entry.hop_count() {
                mon.record(
                    t_us,
                    "unit_state",
                    format!(
                        "unit {uid}: hop cursor {} past path length {}",
                        u.next_hop,
                        u.entry.hop_count()
                    ),
                );
            }
        }
        // Payment accounting: delivered + inflight never exceeds the
        // payment total, and completion implies full delivery.
        for (pid, p) in self.payments.iter().enumerate() {
            if p.delivered.drops() + p.inflight.drops() > p.total.drops() {
                mon.record(
                    t_us,
                    "payment_accounting",
                    format!(
                        "payment {pid}: delivered {} + inflight {} > total {} drops",
                        p.delivered.drops(),
                        p.inflight.drops(),
                        p.total.drops()
                    ),
                );
            }
            if p.completed && p.delivered != p.total {
                mon.record(
                    t_us,
                    "payment_accounting",
                    format!("payment {pid}: completed but not fully delivered"),
                );
            }
        }
    }

    /// Prepares the arrival stream (ordering fixed workloads by `(time,
    /// index)`) and merges the first in-horizon arrival into the calendar.
    fn init_arrivals(&mut self, horizon: SimTime) {
        if let ArrivalSource::Fixed(w) = &self.source {
            // Generated workloads are already time-sorted (identity
            // permutation); hand-built ones are normalized here so lazy
            // merging cannot reorder them. Ties keep index order — the
            // seq rank the pre-seeded calendar assigned.
            let mut order: Vec<u32> = (0..w.txns.len() as u32)
                .filter(|&i| w.txns[i as usize].time <= horizon)
                .collect();
            order.sort_by_key(|&i| (w.txns[i as usize].time, i));
            self.arrival_order = order;
            self.arrival_cursor = 0;
        }
        self.schedule_next_arrival(horizon);
    }

    /// Merges the next due arrival (if any) into the calendar under its
    /// reserved sequence number.
    fn schedule_next_arrival(&mut self, horizon: SimTime) {
        let spec = match &mut self.source {
            ArrivalSource::Fixed(w) => {
                let Some(&i) = self.arrival_order.get(self.arrival_cursor) else {
                    return;
                };
                self.arrival_cursor += 1;
                w.txns[i as usize]
            }
            ArrivalSource::Streaming(s) => {
                // Arrival times are non-decreasing: the first one past the
                // horizon ends the stream.
                match s.next_txn() {
                    Some(spec) if spec.time <= horizon => spec,
                    _ => return,
                }
            }
        };
        let seq = self.arrival_seq;
        self.arrival_seq += 1;
        debug_assert!(
            self.arrival_seq <= RUNTIME_SEQ_BASE,
            "arrival seqs overflow"
        );
        self.schedule_at(spec.time, seq, EventKind::Arrival(spec));
    }

    /// Channel states (for inspection after a run).
    pub fn channel_states(&self) -> &[ChannelState] {
        &self.channels
    }

    /// The topology being simulated.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// The shared path interner (for inspection after a run).
    pub fn paths(&self) -> &PathTable {
        &self.paths
    }

    /// Slab occupancy and event-loop counters: the quantities the
    /// engine-throughput benchmark and the slab-bound regression tests
    /// observe.
    pub fn slab_stats(&self) -> SlabStats {
        SlabStats {
            events_scheduled: self.events_scheduled,
            events_executed: self.events_executed,
            event_slots: self.event_store.len(),
            live_events: self.live_events,
            peak_live_events: self.peak_live_events,
            units_injected: self.units_injected,
            unit_slots: self.units.len(),
            live_units: self.units.len() - self.free_units.len(),
            peak_live_units: self.peak_live_units,
            interned_paths: self.paths.len(),
            churn_scan_steps: self.settle_index.scan_steps() + self.unit_index.scan_steps(),
        }
    }

    /// Units currently resident in router queues (queueing mode; zero in
    /// lockstep mode). Inspectable after a run: units may legitimately end
    /// the horizon still queued, with their upstream locks conserved.
    pub fn queued_units(&self) -> usize {
        self.queues.iter().map(|q| q[0].len() + q[1].len()).sum()
    }

    fn on_arrival(&mut self, mut spec: TxnSpec, deferred: bool) {
        // Shaping admission (defer mode): re-offer the arrival at the
        // bucket's promised slot before any payment state exists. The
        // re-offered spec carries the deferred time, so the payment's
        // arrival stamp — and therefore its deadline — runs from when it
        // actually enters the network. A deferred re-offer bypasses the
        // gate: its slot already spent its token when it was promised.
        if !deferred {
            if let Some(adm) = self.admission.as_mut() {
                if adm.cfg.defer {
                    if let Some(at) = adm.defer_until(self.now) {
                        self.metrics.admission_deferred();
                        spec.time = at;
                        self.schedule(at, EventKind::DeferredArrival(spec));
                        return;
                    }
                }
            }
        }
        let deadline = match self.config.deadline {
            Some(d) => spec.time + d,
            None => SimTime::FAR_FUTURE,
        };
        // Overload griefing: one draw per arrival from the plan's own
        // runtime stream (no plan, no draw).
        let griefing = match &self.overload_plan {
            Some(plan) => self.overload_rng.chance(plan.griefing_prob),
            None => false,
        };
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
        self.in_pending.push(false);
        self.metrics.payment_arrived(spec.amount);
        if let Some(t) = self.trace.as_mut() {
            t.record(
                self.now.micros(),
                TraceEventKind::PaymentArrival {
                    payment: PaymentId(pid as u64),
                    src: spec.src,
                    dst: spec.dst,
                    amount: spec.amount,
                },
            );
        }
        // Sender-side admission control, policing mode: fail-fast before
        // any routing work, so a rejected payment never occupies a
        // queue. Shaping mode already made its decision above — by
        // deferral, never by rejection.
        let policing = self.admission.as_ref().is_some_and(|a| !a.cfg.defer);
        if policing && !self.admit_payment(pid) {
            return;
        }
        let pinned = self.attempt_payment(pid);
        // Queue the remainder for retries (non-atomic only).
        if !self.router.atomic() && self.payments[pid].active() {
            self.pending_push(pid, pinned);
        }
    }

    /// Global queue occupancy in [0, 1] — the admission gate's
    /// congestion signal; zero under lockstep queueing, where no
    /// per-channel queues exist.
    fn queue_fraction(&self) -> f64 {
        match &self.qcfg {
            Some(qc) => {
                let capacity = qc.max_queue_units * self.channels.len() * 2;
                self.queued_units_total as f64 / capacity.max(1) as f64
            }
            None => 0.0,
        }
    }

    /// The sender-side admission gate: refills the token bucket and
    /// either admits the payment (consuming a token) or fail-fasts it
    /// with [`DropReason::AdmissionRejected`] before it enters any
    /// queue. Returns whether the payment was admitted.
    fn admit_payment(&mut self, pid: usize) -> bool {
        let queue_fraction = self.queue_fraction();
        let adm = self.admission.as_mut().expect("caller checked the gate");
        if adm.admit(self.now, queue_fraction) {
            return true;
        }
        self.payments[pid].expired = true;
        self.metrics.unit_dropped(DropReason::AdmissionRejected);
        // No path was ever proposed: a whole-payment forensic record
        // under the reserved no-path id, with no failing channel.
        self.forensic_drop(pid, PathId(u32::MAX), None, DropReason::AdmissionRejected);
        if let Some(t) = self.trace.as_mut() {
            t.record(
                self.now.micros(),
                TraceEventKind::PaymentExpired {
                    payment: PaymentId(pid as u64),
                    remaining: self.payments[pid].total,
                },
            );
        }
        false
    }

    /// Appends `pid` to the pending retry queue unless already present.
    fn pending_push(&mut self, pid: usize, pinned: Option<PathId>) {
        if !self.in_pending[pid] {
            self.in_pending[pid] = true;
            self.pending.push(PendingEntry {
                payment: pid,
                pinned,
            });
        }
    }

    /// Forgets every pinned path. Called wherever lockstep mode hands
    /// the router a callback that ends its [`Router::pins_single_path`]
    /// promise (fault and griefing outcomes, topology updates — rare, so
    /// a sweep is fine). Queueing mode never pins, so its outcome and
    /// ack sites need no sweep.
    fn forget_pins(&mut self) {
        for e in &mut self.pending {
            e.pinned = None;
        }
    }

    /// True when re-offering the payment would provably lock nothing: it
    /// is pinned to a path some hop of which cannot carry even the
    /// smallest chunk of what is unassigned (a closed hop has nothing
    /// available).
    fn locks_nothing(&self, e: PendingEntry) -> bool {
        let Some(path) = e.pinned else {
            return false;
        };
        let least = self.payments[e.payment]
            .unassigned()
            .smallest_mtu_chunk(self.config.mtu);
        self.paths.map_entry(path, |entry| {
            entry
                .hops()
                .iter()
                .any(|&(c, dir)| self.channels[c.index()].available(dir) < least)
        })
    }

    /// One routing attempt for the payment's currently unassigned amount.
    /// Returns the path the attempt was pinned to, if the router promised
    /// one (see [`PendingEntry::pinned`]).
    fn attempt_payment(&mut self, pid: usize) -> Option<PathId> {
        let p = &self.payments[pid];
        if p.completed || p.expired {
            return None;
        }
        let unassigned = p.unassigned();
        if unassigned.is_zero() {
            return None;
        }
        let req = RouteRequest {
            payment: PaymentId(pid as u64),
            src: p.src,
            dst: p.dst,
            remaining: unassigned,
            total: p.total,
            mtu: self.config.mtu,
            attempt: p.attempts,
        };
        self.payments[pid].attempts += 1;
        let proposals = {
            let view = NetworkView {
                topo: &self.topo,
                channels: &self.channels,
                paths: &self.paths,
                now: self.now,
            };
            self.router.route(&req, &view)
        };
        if let Some(t) = self.trace.as_mut() {
            for prop in proposals.iter().take(self.config.max_proposals_per_poll) {
                t.record(
                    self.now.micros(),
                    TraceEventKind::RouteProposal {
                        payment: req.payment,
                        attempt: req.attempt,
                        path: prop.path,
                        amount: prop.amount,
                    },
                );
            }
        }
        if self.hop_by_hop() {
            self.inject_proposals(pid, proposals, unassigned);
            return None;
        }
        // A router that observes lock outcomes gets a callback from this
        // very attempt, which ends any promise before it could be used.
        let pinned = match proposals.as_slice() {
            &[only]
                if only.amount == unassigned
                    && !self.router_observes
                    && self.router.pins_single_path() =>
            {
                Some(only.path)
            }
            _ => None,
        };
        let atomic = self.router.atomic();
        let mut budget = unassigned;
        // Units locked in this attempt: (amount, path, settle event id),
        // kept for atomic rollback only.
        let mut locked_units: Vec<(Amount, PathId, usize)> = Vec::new();
        let mut aborted = false;

        'proposals: for prop in proposals
            .into_iter()
            .take(self.config.max_proposals_per_poll)
        {
            if budget.is_zero() {
                break;
            }
            {
                let entry = self.paths.entry(prop.path);
                if entry.hop_count() == 0 || entry.source() != self.payments[pid].src {
                    continue;
                }
            }
            let want = prop.amount.min(budget);
            let mut chunks = want.mtu_chunks(self.config.mtu);
            while let Some(unit) = chunks.next() {
                match self.try_lock_unit(pid, unit, prop.path) {
                    Some(event_id) => {
                        if atomic {
                            locked_units.push((unit, prop.path, event_id));
                        }
                        budget -= unit;
                    }
                    None if atomic => {
                        aborted = true;
                        break 'proposals;
                    }
                    None => {
                        // A failed lock rolled back completely, so every
                        // further full-MTU chunk on this path fails the
                        // same way. When no router hook observes per-unit
                        // outcomes, count those failures instead of
                        // re-walking the path for each.
                        if !self.router_observes && unit == self.config.mtu {
                            let skipped = chunks.skip_full_chunks();
                            if skipped > 0 {
                                self.metrics.unit_lock_failures(skipped);
                            }
                        }
                    }
                }
            }
        }

        if atomic && (aborted || !budget.is_zero()) {
            // All-or-nothing: roll back every unit locked in this attempt
            // and cancel its scheduled settlement.
            for (amount, path, event_id) in locked_units {
                self.cancel_event(event_id);
                let entry = self.paths.entry(path);
                for &(c, dir) in entry.hops() {
                    self.channels[c.index()].refund(dir, amount);
                    if self.track_channels {
                        self.settle_index.note_removed(c.index());
                    }
                }
                self.payments[pid].inflight -= amount;
            }
            self.payments[pid].expired = true;
        }
        pinned
    }

    /// Attempts to lock one unit along the path; on success schedules its
    /// settlement (returning the settle event's id) and updates payment
    /// accounting.
    fn try_lock_unit(&mut self, pid: usize, amount: Amount, path: PathId) -> Option<usize> {
        let entry = self.paths.entry(path);
        let hops = entry.hops();
        // Lock hop by hop; roll back on the first failure.
        let mut locked = 0;
        let mut ok = true;
        for (i, &(c, dir)) in hops.iter().enumerate() {
            if self.channels[c.index()].lock(dir, amount) {
                locked = i + 1;
            } else {
                ok = false;
                break;
            }
        }
        if !ok {
            for &(c, dir) in &hops[..locked] {
                self.channels[c.index()].refund(dir, amount);
            }
        }
        self.metrics.unit_lock(hops.len(), ok);
        if let Some(t) = self.trace.as_mut() {
            t.record(
                self.now.micros(),
                TraceEventKind::LockOutcome {
                    payment: PaymentId(pid as u64),
                    path,
                    amount,
                    ok,
                },
            );
        }
        if self.router_observes {
            let outcome = UnitOutcome {
                payment: PaymentId(pid as u64),
                path,
                amount,
                locked: ok,
                fault: None,
            };
            let view = NetworkView {
                topo: &self.topo,
                channels: &self.channels,
                paths: &self.paths,
                now: self.now,
            };
            self.router.on_unit_outcome(&outcome, &view);
        }
        if ok {
            self.payments[pid].inflight += amount;
            let event_id = self.schedule(
                self.now + self.config.confirmation_delay,
                EventKind::Settle {
                    payment: pid,
                    amount,
                    path,
                },
            );
            if self.track_channels {
                let gen = self.event_gen[event_id];
                let store = &self.event_store;
                let gens = &self.event_gen;
                for &(c, _) in entry.hops() {
                    self.settle_index
                        .insert(c.index(), event_id as u32, gen, |s, g| {
                            gens[s as usize] == g && store[s as usize].is_some()
                        });
                }
            }
            Some(event_id)
        } else {
            None
        }
    }

    fn on_settle(&mut self, pid: usize, amount: Amount, path: PathId) {
        let entry = self.paths.entry(path);
        if self.track_channels {
            // The settle event was just consumed either way (delivery or
            // expiry rollback): its index entries are dead.
            for &(c, _) in entry.hops() {
                self.settle_index.note_removed(c.index());
            }
        }
        // A unit whose payment deadline passed between lock and settle is
        // a real drop (counted and traced, exactly like the queueing-mode
        // expiry path); an atomic rollback is pure bookkeeping and stays
        // silent.
        let deadline_expired = self.now > self.payments[pid].deadline;
        if self.payments[pid].expired || deadline_expired {
            for &(c, dir) in entry.hops() {
                self.channels[c.index()].refund(dir, amount);
            }
            let p = &mut self.payments[pid];
            p.inflight -= amount;
            p.expired = true;
            if deadline_expired {
                self.metrics.unit_dropped(DropReason::Expired);
                // Whole-path lockstep refund: no single failing hop.
                self.forensic_drop(pid, path, None, DropReason::Expired);
                if let Some(t) = self.trace.as_mut() {
                    t.record(
                        self.now.micros(),
                        TraceEventKind::UnitRefunded {
                            payment: PaymentId(pid as u64),
                            amount,
                            reason: DropReason::Expired,
                        },
                    );
                }
            }
            return;
        }
        // Overload griefing (lockstep): the receiver withholds the key,
        // so the settle refunds every hop — a stuck unit driven by the
        // overload plan rather than a fault draw (which it preempts).
        if self.overload_plan.is_some() && self.payments[pid].griefing {
            let reason = DropReason::HopTimeout;
            for &(c, dir) in entry.hops() {
                self.channels[c.index()].refund(dir, amount);
            }
            self.payments[pid].inflight -= amount;
            self.metrics.unit_dropped(reason);
            self.forensic_drop(pid, path, None, reason);
            if let Some(t) = self.trace.as_mut() {
                t.record(
                    self.now.micros(),
                    TraceEventKind::UnitRefunded {
                        payment: PaymentId(pid as u64),
                        amount,
                        reason,
                    },
                );
            }
            // Like fault outcomes, griefing bypasses the
            // `router_observes` gate so backoff sees the failure.
            let outcome = UnitOutcome {
                payment: PaymentId(pid as u64),
                path,
                amount,
                locked: true,
                fault: Some(reason),
            };
            let view = NetworkView {
                topo: &self.topo,
                channels: &self.channels,
                paths: &self.paths,
                now: self.now,
            };
            self.router.on_unit_outcome(&outcome, &view);
            self.forget_pins();
            if !self.router.atomic() && self.payments[pid].active() {
                self.pending_push(pid, None);
            }
            return;
        }
        if self.fault_plan.is_some() {
            if let Some(reason) = self.lockstep_fault(path) {
                for &(c, dir) in entry.hops() {
                    self.channels[c.index()].refund(dir, amount);
                }
                self.payments[pid].inflight -= amount;
                self.metrics.fault_injected();
                self.metrics.unit_dropped(reason);
                self.forensic_drop(pid, path, None, reason);
                if let Some(t) = self.trace.as_mut() {
                    t.record(
                        self.now.micros(),
                        TraceEventKind::UnitRefunded {
                            payment: PaymentId(pid as u64),
                            amount,
                            reason,
                        },
                    );
                }
                // Fault outcomes bypass the `router_observes` gate:
                // backoff must see failures even for routers that skip
                // ordinary lock outcomes. Fault-free runs never get here.
                let outcome = UnitOutcome {
                    payment: PaymentId(pid as u64),
                    path,
                    amount,
                    locked: true,
                    fault: Some(reason),
                };
                let view = NetworkView {
                    topo: &self.topo,
                    channels: &self.channels,
                    paths: &self.paths,
                    now: self.now,
                };
                self.router.on_unit_outcome(&outcome, &view);
                self.forget_pins();
                if !self.router.atomic() && self.payments[pid].active() {
                    self.pending_push(pid, None);
                }
                return;
            }
        }
        for &(c, dir) in entry.hops() {
            self.channels[c.index()].settle(dir, amount);
        }
        if let Some(attr) = self.attribution.as_mut() {
            // The delivered path's binding constraint: minimum post-settle
            // availability in the traversed direction, lowest id on ties.
            let bottleneck = entry
                .hops()
                .iter()
                .map(|&(c, dir)| (self.channels[c.index()].available(dir), c.0))
                .min();
            if let Some((_, c)) = bottleneck {
                attr.bottleneck(c as usize);
            }
        }
        let p = &mut self.payments[pid];
        p.inflight -= amount;
        p.delivered += amount;
        self.metrics.unit_settled(amount, self.now);
        let completed = if p.delivered == p.total {
            p.completed = true;
            let latency = self.now - p.arrival;
            self.metrics.payment_completed(p.total, latency);
            Some(latency)
        } else {
            None
        };
        if let Some(t) = self.trace.as_mut() {
            t.record(
                self.now.micros(),
                TraceEventKind::UnitSettled {
                    payment: PaymentId(pid as u64),
                    amount,
                },
            );
            if let Some(latency) = completed {
                t.record(
                    self.now.micros(),
                    TraceEventKind::PaymentCompleted {
                        payment: PaymentId(pid as u64),
                        latency_us: latency.micros(),
                    },
                );
            }
        }
    }

    /// Draws the lockstep-mode fault verdict for one settling unit: a
    /// crashed forwarding node preempts without a draw, then per-channel
    /// message loss hop by hop, then a silently stuck unit, then a lost
    /// settlement ack. The draw order is fixed so identical plans replay
    /// identically.
    fn lockstep_fault(&mut self, path: PathId) -> Option<DropReason> {
        let entry = self.paths.entry(path);
        let plan = self.fault_plan.as_ref().expect("caller checked the plan");
        let nodes = entry.nodes();
        for (i, &(c, _)) in entry.hops().iter().enumerate() {
            if !self.crashed_nodes.is_empty() && self.crashed_nodes[nodes[i].index()] {
                return Some(DropReason::NodeCrashed);
            }
            if self.fault_rng.chance(plan.message_loss[c.index()]) {
                return Some(DropReason::MessageLost);
            }
        }
        if self.fault_rng.chance(plan.stuck_prob) {
            return Some(DropReason::HopTimeout);
        }
        if self.fault_rng.chance(plan.ack_loss_prob) {
            return Some(DropReason::MessageLost);
        }
        None
    }

    // ---- §5 queueing mode: hop-by-hop forwarding through router queues ----

    /// Routes one attempt's proposals by injecting hop-by-hop units.
    fn inject_proposals(
        &mut self,
        pid: usize,
        proposals: Vec<crate::router::RouteProposal>,
        unassigned: Amount,
    ) {
        let mut budget = unassigned;
        for prop in proposals
            .into_iter()
            .take(self.config.max_proposals_per_poll)
        {
            if budget.is_zero() {
                break;
            }
            {
                let entry = self.paths.entry(prop.path);
                if entry.hop_count() == 0 || entry.source() != self.payments[pid].src {
                    continue;
                }
            }
            let want = prop.amount.min(budget);
            for unit in want.mtu_chunks(self.config.mtu) {
                let accepted = self.inject_unit(pid, unit, prop.path);
                if accepted {
                    budget -= unit;
                }
                let outcome = UnitOutcome {
                    payment: PaymentId(pid as u64),
                    path: prop.path,
                    amount: unit,
                    locked: accepted,
                    fault: None,
                };
                let view = NetworkView {
                    topo: &self.topo,
                    channels: &self.channels,
                    paths: &self.paths,
                    now: self.now,
                };
                self.router.on_unit_outcome(&outcome, &view);
            }
        }
    }

    /// Claims a unit slab slot, recycling a retired one when available.
    fn alloc_unit(&mut self, unit: UnitState) -> usize {
        self.units_injected += 1;
        let uid = match self.free_units.pop() {
            Some(i) => {
                debug_assert!(self.units[i].done, "free list holds only dead units");
                self.units[i] = unit;
                self.unit_gen[i] = self.unit_gen[i].wrapping_add(1);
                i
            }
            None => {
                self.units.push(unit);
                self.unit_gen.push(0);
                self.units.len() - 1
            }
        };
        let live = self.units.len() - self.free_units.len();
        if live > self.peak_live_units {
            self.peak_live_units = live;
        }
        if self.trace.is_some() {
            // Slab slots recycle; trace ids are the injection ordinal and
            // never do.
            if self.unit_trace_ids.len() < self.units.len() {
                self.unit_trace_ids.resize(self.units.len(), 0);
            }
            self.unit_trace_ids[uid] = self.units_injected - 1;
        }
        uid
    }

    /// Injects one unit at its first hop: it either starts forwarding,
    /// joins the first hop's queue, or is rejected outright when that queue
    /// is full. Returns whether the unit was accepted.
    fn inject_unit(&mut self, pid: usize, amount: Amount, path: PathId) -> bool {
        let entry = self.paths.entry(path);
        // A path crossing a closed channel is rejected at the ingress
        // (stale proposals can arrive in the same instant as a churn
        // event); injecting would only convert the unit into a drop.
        if entry
            .hops()
            .iter()
            .any(|&(c, _)| self.channels[c.index()].is_closed())
        {
            self.metrics.unit_lock(entry.hop_count(), false);
            return false;
        }
        // A crashed sender can't originate traffic: rejected at the
        // ingress like a closed channel, so no ack follows.
        if self.node_crashed(entry.source()) {
            self.metrics.unit_lock(entry.hop_count(), false);
            return false;
        }
        let (c, d) = entry.hops()[0];
        let queue_len = self.queues[c.index()][d.index()].len();
        let can_cross = queue_len == 0 && self.channels[c.index()].available(d) >= amount;
        if !can_cross && queue_len >= self.qcfg.as_ref().expect("queueing mode").max_queue_units {
            // Rejected at the ingress: never accepted, so no ack follows.
            self.metrics.unit_lock(entry.hop_count(), false);
            return false;
        }
        let uid = self.alloc_unit(UnitState {
            payment: pid,
            amount,
            path,
            entry: Rc::clone(&entry),
            next_hop: 0,
            injected_at: self.now,
            enqueued_at: self.now,
            timeout_event: None,
            hop_event: None,
            waited: false,
            stamp: MarkStamp::CLEAR,
            drop_reason: None,
            done: false,
        });
        if self.track_channels {
            let gen = self.unit_gen[uid];
            let units = &self.units;
            let gens = &self.unit_gen;
            for &(hc, _) in entry.hops() {
                self.unit_index.insert(hc.index(), uid as u32, gen, |s, g| {
                    gens[s as usize] == g && !units[s as usize].done
                });
            }
        }
        self.payments[pid].inflight += amount;
        if let Some(t) = self.trace.as_mut() {
            t.record(
                self.now.micros(),
                TraceEventKind::UnitInjected {
                    payment: PaymentId(pid as u64),
                    unit: self.unit_trace_ids[uid],
                    path,
                    amount,
                },
            );
        }
        if can_cross {
            self.lock_hop(uid, spider_types::SimDuration::ZERO);
        } else {
            self.enqueue_unit(uid, c, d);
        }
        true
    }

    /// Puts a unit at the tail of `(c, d)`'s queue and arms its timeout.
    /// The caller has verified the queue has room.
    fn enqueue_unit(&mut self, uid: usize, c: ChannelId, d: Direction) {
        self.queues[c.index()][d.index()].push_back(uid);
        self.queued_units_total += 1;
        let timeout = self.now + self.qcfg.as_ref().expect("queueing mode").max_queue_delay;
        let event_id = self.schedule(timeout, EventKind::QueueTimeout { unit: uid });
        let u = &mut self.units[uid];
        u.enqueued_at = self.now;
        u.timeout_event = Some(event_id);
        if let Some(t) = self.trace.as_mut() {
            t.record(
                self.now.micros(),
                TraceEventKind::UnitEnqueued {
                    unit: self.unit_trace_ids[uid],
                    channel: c,
                    qlen: self.queues[c.index()][d.index()].len() as u32,
                },
            );
        }
    }

    /// Locks the unit's next hop (the caller has verified balance), stamps
    /// the router's local price signal, and schedules the unit onward.
    fn lock_hop(&mut self, uid: usize, queue_delay: spider_types::SimDuration) {
        let entry = Rc::clone(&self.units[uid].entry);
        let (c, d) = entry.hops()[self.units[uid].next_hop];
        let amount = self.units[uid].amount;
        let locked = self.channels[c.index()].lock(d, amount);
        debug_assert!(locked, "lock_hop caller must verify balance");
        self.flow[c.index()][d.index()] += amount;
        let qcfg = self.qcfg.as_ref().expect("queueing mode");
        let ch = &self.channels[c.index()];
        let available_fraction =
            ch.available(d).drops() as f64 / ch.capacity().drops().max(1) as f64;
        let signal = local_signal(
            queue_delay,
            self.flow[c.index()][d.index()],
            self.flow[c.index()][d.reverse().index()],
            available_fraction,
            qcfg,
        );
        let hop_delay = qcfg.hop_delay;
        let u = &mut self.units[uid];
        u.stamp.absorb(signal.price, signal.marked, queue_delay);
        if !queue_delay.is_zero() {
            let first_wait = !u.waited;
            u.waited = true;
            self.metrics
                .unit_queued(queue_delay.as_secs_f64(), first_wait);
            if let Some(attr) = self.attribution.as_mut() {
                attr.queue_wait(c.index(), queue_delay.as_secs_f64());
            }
        }
        u.next_hop += 1;
        if let Some(t) = self.trace.as_mut() {
            t.record(
                self.now.micros(),
                TraceEventKind::UnitForwarded {
                    unit: self.unit_trace_ids[uid],
                    channel: c,
                    hop: (self.units[uid].next_hop - 1) as u32,
                },
            );
        }
        let final_hop = self.units[uid].next_hop == entry.hop_count();
        if final_hop {
            self.metrics.unit_lock(entry.hop_count(), true);
        }
        // Overload griefing: the final hop silently holds the unit —
        // with the whole path now locked — until the sender-side
        // timeout refunds it (the stuck-unit plumbing of fault
        // injection, driven by the overload plan instead of a fault
        // draw). Checked before the fault draws so a griefing unit
        // consumes none of the fault stream.
        if final_hop && self.payments[self.units[uid].payment].griefing {
            let hold = self
                .overload_plan
                .as_ref()
                .expect("griefing payments exist only under an overload plan")
                .griefing_hold;
            let ev = self.schedule(
                self.now + hold,
                EventKind::HopTimeout {
                    unit: uid,
                    reason: DropReason::HopTimeout,
                },
            );
            self.units[uid].hop_event = Some(ev);
            return;
        }
        // Fault draws (installed plan only; fixed per-hop draw order:
        // loss, stuck, jitter, spike). A lost forwarding message — or, on
        // the final hop, a lost delivery ack — and a silently stuck unit
        // both arm the sender's per-hop timeout *instead of* the
        // forwarding event; when it fires, every locked hop is refunded.
        let mut hop_delay = hop_delay;
        if self.fault_plan.is_some() {
            let (loss_p, stuck_p, jitter, spike_p, spike_ms, hop_timeout) = {
                let plan = self.fault_plan.as_ref().expect("plan present");
                (
                    if final_hop {
                        plan.ack_loss_prob
                    } else {
                        plan.message_loss[c.index()]
                    },
                    plan.stuck_prob,
                    plan.jitter_range_ms,
                    plan.spike_prob,
                    plan.spike_ms,
                    plan.hop_timeout,
                )
            };
            let lost = self.fault_rng.chance(loss_p);
            let stuck = !lost && self.fault_rng.chance(stuck_p);
            if lost || stuck {
                let reason = if lost {
                    DropReason::MessageLost
                } else {
                    DropReason::HopTimeout
                };
                self.metrics.fault_injected();
                let ev = self.schedule(
                    self.now + hop_timeout,
                    EventKind::HopTimeout { unit: uid, reason },
                );
                self.units[uid].hop_event = Some(ev);
                return;
            }
            if !final_hop {
                if let Some([lo, hi]) = jitter {
                    let ms = lo + self.fault_rng.uniform() * (hi - lo);
                    hop_delay += spider_types::SimDuration::from_secs_f64(ms / 1000.0);
                }
                if self.fault_rng.chance(spike_p) {
                    hop_delay += spider_types::SimDuration::from_secs_f64(spike_ms / 1000.0);
                }
            }
        }
        if final_hop {
            let ev = self.schedule(
                self.now + self.config.confirmation_delay,
                EventKind::UnitDeliver { unit: uid },
            );
            self.units[uid].hop_event = Some(ev);
        } else {
            let ev = self.schedule(self.now + hop_delay, EventKind::HopArrive { unit: uid });
            self.units[uid].hop_event = Some(ev);
        }
    }

    /// A unit arrives at an intermediate node and attempts its next hop.
    fn on_hop_arrive(&mut self, uid: usize) {
        if self.units[uid].done {
            return;
        }
        // This event just fired; it is no longer cancelable.
        self.units[uid].hop_event = None;
        let pid = self.units[uid].payment;
        if self.payments[pid].expired || self.now > self.payments[pid].deadline {
            self.drop_unit(uid, DropReason::Expired);
            return;
        }
        let forwarder = self.units[uid].entry.nodes()[self.units[uid].next_hop];
        if self.node_crashed(forwarder) {
            // The node that should forward this unit crashed while the
            // unit was traveling toward it.
            self.metrics.fault_injected();
            self.drop_unit(uid, DropReason::NodeCrashed);
            return;
        }
        let (c, d) = self.units[uid].entry.hops()[self.units[uid].next_hop];
        let amount = self.units[uid].amount;
        if self.channels[c.index()].is_closed() {
            // The next hop closed while the unit was traveling toward it.
            self.drop_unit(uid, DropReason::ChannelClosed);
            return;
        }
        let queue_len = self.queues[c.index()][d.index()].len();
        if queue_len == 0 && self.channels[c.index()].available(d) >= amount {
            self.lock_hop(uid, spider_types::SimDuration::ZERO);
        } else if queue_len >= self.qcfg.as_ref().expect("queueing mode").max_queue_units {
            if self.config.shedding {
                self.shed_into_queue(uid, c, d);
            } else {
                self.drop_unit(uid, DropReason::QueueOverflow);
            }
        } else {
            self.enqueue_unit(uid, c, d);
        }
    }

    /// Deadline-aware shedding: the queue at `(c, d)` is full. Among the
    /// queued units and the newcomer `uid`, evict the one least likely
    /// to meet its deadline — the earliest payment deadline, front-most
    /// on queue ties (it has waited longest for nothing). The newcomer
    /// is dropped when its own deadline is earliest-or-tied; otherwise
    /// the victim is shed and the newcomer takes its place.
    fn shed_into_queue(&mut self, uid: usize, c: ChannelId, d: Direction) {
        let newcomer_deadline = self.payments[self.units[uid].payment].deadline;
        let victim = self.queues[c.index()][d.index()]
            .iter()
            .copied()
            .min_by_key(|&q| self.payments[self.units[q].payment].deadline);
        let victim = match victim {
            Some(v) if self.payments[self.units[v].payment].deadline < newcomer_deadline => v,
            _ => {
                self.drop_unit(uid, DropReason::Shed);
                return;
            }
        };
        self.drop_unit(victim, DropReason::Shed);
        // The eviction's refunds can cascade (upstream queues drain,
        // drop, refund further); re-admit the newcomer against the
        // queue's state as it stands now.
        let amount = self.units[uid].amount;
        let queue_len = self.queues[c.index()][d.index()].len();
        if queue_len == 0 && self.channels[c.index()].available(d) >= amount {
            self.lock_hop(uid, spider_types::SimDuration::ZERO);
        } else if queue_len >= self.qcfg.as_ref().expect("queueing mode").max_queue_units {
            self.drop_unit(uid, DropReason::Shed);
        } else {
            self.enqueue_unit(uid, c, d);
        }
    }

    /// A fully locked unit settles (or is refunded when its payment
    /// expired while the key was in flight).
    fn on_unit_deliver(&mut self, uid: usize) {
        if self.units[uid].done {
            return;
        }
        // This event just fired; it is no longer cancelable.
        self.units[uid].hop_event = None;
        let pid = self.units[uid].payment;
        if self.payments[pid].expired || self.now > self.payments[pid].deadline {
            self.drop_unit(uid, DropReason::Expired);
            return;
        }
        let amount = self.units[uid].amount;
        let entry = Rc::clone(&self.units[uid].entry);
        debug_assert!(self.drain_scratch.is_empty());
        let mut released = std::mem::take(&mut self.drain_scratch);
        for &(c, d) in entry.hops() {
            self.channels[c.index()].settle(d, amount);
            released.push_back((c, d.reverse()));
        }
        self.drain_scratch = released;
        if let Some(attr) = self.attribution.as_mut() {
            // The delivered path's binding constraint: minimum post-settle
            // availability in the traversed direction, lowest id on ties.
            let bottleneck = entry
                .hops()
                .iter()
                .map(|&(c, d)| (self.channels[c.index()].available(d), c.0))
                .min();
            if let Some((_, c)) = bottleneck {
                attr.bottleneck(c as usize);
            }
        }
        self.units[uid].done = true;
        let p = &mut self.payments[pid];
        p.inflight -= amount;
        p.delivered += amount;
        self.metrics.unit_settled(amount, self.now);
        let completed = if p.delivered == p.total {
            p.completed = true;
            let latency = self.now - p.arrival;
            self.metrics.payment_completed(p.total, latency);
            Some(latency)
        } else {
            None
        };
        if let Some(t) = self.trace.as_mut() {
            t.record(
                self.now.micros(),
                TraceEventKind::UnitDelivered {
                    unit: self.unit_trace_ids[uid],
                },
            );
            if let Some(latency) = completed {
                t.record(
                    self.now.micros(),
                    TraceEventKind::PaymentCompleted {
                        payment: PaymentId(pid as u64),
                        latency_us: latency.micros(),
                    },
                );
            }
        }
        self.ack_unit(uid, true);
        self.retire_unit(uid);
        self.drain_from_scratch();
    }

    /// A queued unit waited past the maximum queueing delay.
    fn on_queue_timeout(&mut self, uid: usize) {
        if self.units[uid].done {
            return;
        }
        // The timeout event just fired; don't try to cancel it again.
        self.units[uid].timeout_event = None;
        self.drop_unit(uid, DropReason::QueueTimeout);
    }

    /// A lost or stuck unit's per-hop timeout fires: the sender gives up
    /// on it, cancels it wherever it nominally is, and refunds every
    /// locked hop (fault injection only — see [`Simulation::lock_hop`]).
    fn on_hop_timeout(&mut self, uid: usize, reason: DropReason) {
        if self.units[uid].done {
            return;
        }
        // The timeout was armed in place of the unit's forwarding event;
        // it just fired, so it is no longer cancelable.
        self.units[uid].hop_event = None;
        self.drop_unit(uid, reason);
    }

    /// True when fault injection has `node` crashed right now.
    #[inline]
    fn node_crashed(&self, node: NodeId) -> bool {
        !self.crashed_nodes.is_empty() && self.crashed_nodes[node.index()]
    }

    /// A scheduled fault-plan event (node crash or recovery) takes
    /// effect. Crashes act lazily: in-flight units are dropped when they
    /// next reach the crashed node (`on_hop_arrive`, queue head service,
    /// or lockstep settlement), so no slab scan is needed here.
    fn on_fault_event(&mut self, idx: usize) {
        let ev = self
            .fault_plan
            .as_ref()
            .expect("fault event without a plan")
            .events[idx];
        let (node, crashed) = match ev.change {
            FaultChange::NodeCrash { node } => (node, true),
            FaultChange::NodeRecover { node } => (node, false),
        };
        let was_crashed = self.crashed_nodes[node.index()];
        self.crashed_nodes[node.index()] = crashed;
        self.metrics.fault_event();
        if let Some(t) = self.trace.as_mut() {
            t.record(
                self.now.micros(),
                TraceEventKind::FaultApplied { node, crashed },
            );
        }
        if was_crashed && !crashed {
            // The recovered node can forward again: service every queue
            // it forwards (the frozen heads never left FIFO order).
            debug_assert!(self.drain_scratch.is_empty());
            let mut released = std::mem::take(&mut self.drain_scratch);
            for adj in self.topo.neighbors(node) {
                let dir = self.topo.channel(adj.channel).direction_from(node);
                released.push_back((adj.channel, dir));
            }
            self.drain_scratch = released;
            self.drain_from_scratch();
        }
    }

    /// Drops a unit wherever it is: leaves its queue if queued, refunds
    /// every locked hop, nacks the sender, and drains refilled directions.
    fn drop_unit(&mut self, uid: usize, reason: DropReason) {
        debug_assert!(self.drain_scratch.is_empty());
        let mut released = std::mem::take(&mut self.drain_scratch);
        self.drop_unit_collect(uid, reason, &mut released);
        self.drain_scratch = released;
        self.drain_from_scratch();
    }

    /// [`Self::drop_unit`] without the drain step, for callers already
    /// inside the drain loop: released directions are appended to `out`.
    fn drop_unit_collect(
        &mut self,
        uid: usize,
        reason: DropReason,
        out: &mut VecDeque<(ChannelId, Direction)>,
    ) {
        if let Some(ev) = self.units[uid].timeout_event.take() {
            self.cancel_event(ev);
        }
        if let Some(ev) = self.units[uid].hop_event.take() {
            // Traveling (or awaiting settlement) when a channel close
            // failed it back: its pending hop event must not fire on a
            // recycled slab slot.
            self.cancel_event(ev);
        }
        let entry = Rc::clone(&self.units[uid].entry);
        // Remove from its current queue, if present.
        let next = self.units[uid].next_hop;
        if next < entry.hop_count() {
            let (c, d) = entry.hops()[next];
            let q = &mut self.queues[c.index()][d.index()];
            let before = q.len();
            q.retain(|&q| q != uid);
            self.queued_units_total -= before - q.len();
        }
        let amount = self.units[uid].amount;
        for &(c, d) in &entry.hops()[..next] {
            self.channels[c.index()].refund(d, amount);
            out.push_back((c, d));
        }
        self.units[uid].done = true;
        self.units[uid].stamp.marked = true;
        self.units[uid].drop_reason = Some(reason);
        let pid = self.units[uid].payment;
        self.payments[pid].inflight -= amount;
        if reason == DropReason::ChannelClosed {
            self.payments[pid].churn_hit = true;
            self.metrics.unit_dropped_churn();
        }
        // A unit that never finished locking its path counts as a failed
        // lock; one that fully locked was already counted as a success
        // (it reached the destination) and is only recorded as dropped.
        if next < entry.hop_count() {
            self.metrics.unit_lock(entry.hop_count(), false);
        }
        self.metrics.unit_dropped(reason);
        // The failing hop is the one the unit was queued at or traveling
        // toward; a unit that had fully locked its path has none.
        let failing_hop = (next < entry.hop_count()).then(|| entry.hops()[next].0);
        if let Some(c) = failing_hop {
            if let Some(attr) = self.attribution.as_mut() {
                attr.drop_at(c.index());
            }
        }
        self.forensic_drop(pid, self.units[uid].path, failing_hop, reason);
        if let Some(t) = self.trace.as_mut() {
            t.record(
                self.now.micros(),
                TraceEventKind::UnitDropped {
                    unit: self.unit_trace_ids[uid],
                    reason,
                },
            );
        }
        self.ack_unit(uid, false);
        // The returned value made part of the payment unassigned again;
        // make sure the pending queue will retry it (the payment may have
        // been fully in flight and therefore absent from the queue).
        if self.payments[pid].active() {
            self.pending_push(pid, None);
        }
        self.retire_unit(uid);
    }

    /// Returns a dead unit's slab slot to the free list. Safe because an
    /// alive unit has exactly one pending event, and every retirement site
    /// runs only after that event was consumed or canceled — no stale
    /// calendar entry can reach a recycled slot.
    fn retire_unit(&mut self, uid: usize) {
        debug_assert!(self.units[uid].done);
        debug_assert!(self.units[uid].timeout_event.is_none());
        debug_assert!(self.units[uid].hop_event.is_none());
        if self.track_channels {
            let entry = Rc::clone(&self.units[uid].entry);
            for &(c, _) in entry.hops() {
                self.unit_index.note_removed(c.index());
            }
        }
        self.free_units.push(uid);
    }

    /// Sends the unit's end-to-end acknowledgement to the router.
    fn ack_unit(&mut self, uid: usize, delivered: bool) {
        let u = &self.units[uid];
        self.metrics.unit_acked(u.stamp.marked);
        // The failing hop of a dropped unit, mirroring the forensics
        // attribution: the channel it was queued at or traveling toward.
        // A unit that fully locked its path (expiry/griefing) has none.
        let drop_channel = (u.drop_reason.is_some() && u.next_hop < u.entry.hop_count())
            .then(|| u.entry.hops()[u.next_hop].0);
        let ack = UnitAck {
            payment: PaymentId(u.payment as u64),
            path: u.path,
            amount: u.amount,
            delivered,
            stamp: u.stamp,
            drop_reason: u.drop_reason,
            drop_channel,
            rtt: self.now - u.injected_at,
        };
        let view = NetworkView {
            topo: &self.topo,
            channels: &self.channels,
            paths: &self.paths,
            now: self.now,
        };
        self.router.on_unit_ack(&ack, &view);
        if let Some(t) = self.trace.as_mut() {
            t.record(
                self.now.micros(),
                TraceEventKind::UnitAcked {
                    payment: PaymentId(self.units[uid].payment as u64),
                    unit: self.unit_trace_ids[uid],
                    delivered,
                    marked: self.units[uid].stamp.marked,
                },
            );
        }
    }

    /// Services queues whose direction gained balance (the released
    /// directions accumulated in `drain_scratch`), in FIFO order, until
    /// each blocks again. Servicing can release further directions (drops
    /// refund upstream hops), so this works through the list; the buffer
    /// is recycled across calls.
    fn drain_from_scratch(&mut self) {
        if self.qcfg.is_none() {
            self.drain_scratch.clear();
            return;
        }
        let mut work = std::mem::take(&mut self.drain_scratch);
        while let Some((c, d)) = work.pop_front() {
            while let Some(&uid) = self.queues[c.index()][d.index()].front() {
                let pid = self.units[uid].payment;
                if self.payments[pid].expired || self.now > self.payments[pid].deadline {
                    self.queues[c.index()][d.index()].pop_front();
                    self.queued_units_total -= 1;
                    self.drop_unit_collect(uid, DropReason::Expired, &mut work);
                    continue;
                }
                let u = &self.units[uid];
                if self.node_crashed(u.entry.nodes()[u.next_hop]) {
                    // The queue's servicing node is down: the whole queue
                    // freezes until recovery (or each unit's timeout).
                    break;
                }
                let amount = self.units[uid].amount;
                if self.channels[c.index()].available(d) < amount {
                    break;
                }
                self.queues[c.index()][d.index()].pop_front();
                self.queued_units_total -= 1;
                if let Some(ev) = self.units[uid].timeout_event.take() {
                    self.cancel_event(ev);
                }
                let queue_delay = self.now - self.units[uid].enqueued_at;
                self.lock_hop(uid, queue_delay);
            }
        }
        self.drain_scratch = work;
    }

    fn on_poll(&mut self) {
        // Time-series telemetry, once per sampling cadence (default 1 s).
        if self.now >= self.next_sample {
            let t0 = self.profiler.start();
            self.sample_series();
            // Attribution integrals advance on the same cadence (with a
            // final catch-up segment at the end of the run).
            self.attribution_step();
            self.profiler.stop(Phase::Sampling, t0);
            self.next_sample = self.now + self.sampler.cadence();
        }
        let t0 = self.profiler.start();
        // Expire overdue payments and drop finished ones from the queue.
        let now = self.now;
        for &PendingEntry { payment: pid, .. } in &self.pending {
            let p = &mut self.payments[pid];
            if !p.completed && now > p.deadline && !p.unassigned().is_zero() {
                p.expired = true;
                if let Some(t) = self.trace.as_mut() {
                    t.record(
                        now.micros(),
                        TraceEventKind::PaymentExpired {
                            payment: PaymentId(pid as u64),
                            remaining: p.unassigned(),
                        },
                    );
                }
            }
        }
        self.pending_retain_active();
        // Re-offer only payments whose attempt can lock something: one
        // pinned to a path that cannot carry its smallest chunk is
        // skipped (see the module docs for why that is exact).
        let mut order = std::mem::take(&mut self.id_scratch);
        order.clear();
        for (i, &e) in self.pending.iter().enumerate() {
            if !self.locks_nothing(e) {
                order.push(i as u32);
            }
        }
        // Scheduling order: each policy's comparator is a strict total
        // order (index tie-break), so the unstable key sorts below yield
        // exactly the order the old dynamic comparator produced — without
        // re-matching the policy on every comparison — and sorting the
        // survivors alone leaves them in the order a sort of the whole
        // queue would.
        let payments = &self.payments;
        let pending = &self.pending;
        let at = |&i: &u32| {
            let pid = pending[i as usize].payment;
            (&payments[pid], pid)
        };
        match self.config.scheduling {
            SchedulingPolicy::Srpt => order.sort_unstable_by_key(|i| {
                let (p, pid) = at(i);
                (p.unassigned(), p.arrival, pid)
            }),
            SchedulingPolicy::Fifo => order.sort_unstable_by_key(|i| {
                let (p, pid) = at(i);
                (p.arrival, pid)
            }),
            SchedulingPolicy::Lifo => order.sort_unstable_by_key(|i| {
                let (p, pid) = at(i);
                (Reverse(p.arrival), pid)
            }),
            SchedulingPolicy::EarliestDeadline => order.sort_unstable_by_key(|i| {
                let (p, pid) = at(i);
                (p.deadline, pid)
            }),
            SchedulingPolicy::LargestRemaining => order.sort_unstable_by_key(|i| {
                let (p, pid) = at(i);
                (Reverse(p.unassigned()), p.arrival, pid)
            }),
        }
        // Attempts only append to `pending` (queueing-mode drops may
        // re-queue a payment), so the positions stay valid.
        for &i in &order {
            let e = self.pending[i as usize];
            // Tested again at its turn: an earlier attempt of this poll
            // may have taken what the scan saw.
            if self.payments[e.payment].active() && !self.locks_nothing(e) {
                self.metrics.retry();
                self.pending[i as usize].pinned = self.attempt_payment(e.payment);
            }
        }
        self.id_scratch = order;
        self.pending_retain_active();
        self.profiler.stop(Phase::Routing, t0);
    }

    /// Records one row of every registered time series (see
    /// [`spider_obs::SERIES_NAMES`] for the schema). Queue-dependent
    /// probes report zero under lockstep queueing, where no per-channel
    /// queues exist.
    fn sample_series(&mut self) {
        let mut row = [0.0f64; NUM_SERIES];
        // imbalance: mean |channel imbalance| / capacity.
        let mut sum = 0.0;
        for ch in &self.channels {
            let cap = ch.capacity().drops().max(1) as f64;
            sum += ch.imbalance().drops().unsigned_abs() as f64 / cap;
        }
        row[0] = sum / self.channels.len().max(1) as f64;
        if let Some(qc) = &self.qcfg {
            // queue_occupancy: total units waiting in per-channel queues.
            let queued: usize = self.queues.iter().map(|q| q[0].len() + q[1].len()).sum();
            row[1] = queued as f64;
            // inflight_units: live slab population (locked or queued).
            row[2] = (self.units.len() - self.free_units.len()) as f64;
            // mean_channel_price: the imbalance component of the stamped
            // price (`local_signal`'s steering term), averaged over open
            // channels.
            let mut price = 0.0;
            let mut open = 0usize;
            for (i, ch) in self.channels.iter().enumerate() {
                if ch.is_closed() {
                    continue;
                }
                open += 1;
                let sent = self.flow[i][0];
                let rev = self.flow[i][1];
                price += qc.imbalance_price_weight * crate::queue::flow_imbalance(sent, rev).abs();
            }
            row[5] = price / open.max(1) as f64;
        }
        // calendar_events: live calendar population.
        row[3] = self.live_events as f64;
        // window_sum_xrp: router-reported AIMD window gauge, if any.
        row[4] = self.router.window_gauge().unwrap_or(0.0);
        self.sampler.push_row(row);
        if self.sampler.wants_queue_depths() && self.qcfg.is_some() {
            let depths: Vec<u32> = self
                .queues
                .iter()
                .map(|q| (q[0].len() + q[1].len()) as u32)
                .collect();
            self.sampler.push_queue_depths(depths);
        }
    }

    /// Drops inactive payments from the pending queue, keeping the O(1)
    /// membership flags in sync.
    fn pending_retain_active(&mut self) {
        let payments = &self.payments;
        let in_pending = &mut self.in_pending;
        self.pending.retain(|e| {
            let keep = payments[e.payment].active();
            if !keep {
                in_pending[e.payment] = false;
            }
            keep
        });
    }

    /// Periodic depletion scan (§5.2.3): any channel direction whose
    /// available balance fell below the trigger gets an on-chain top-up
    /// back to the target fraction, arriving after the blockchain delay.
    fn on_rebalance_scan(&mut self) {
        let Some(rb) = self.config.rebalancing.clone() else {
            return;
        };
        for i in 0..self.channels.len() {
            if self.channels[i].is_closed() {
                // A closed channel's zero availability is not depletion;
                // topping it up on-chain would strand the deposit.
                continue;
            }
            let capacity = self.channels[i].capacity();
            for dir in [Direction::Forward, Direction::Backward] {
                if self.rebalance_pending[i][dir.index()] {
                    continue;
                }
                let avail = self.channels[i].available(dir);
                if avail < capacity.mul_f64(rb.trigger_fraction) {
                    let target = capacity.mul_f64(rb.target_fraction);
                    let amount = target.saturating_sub(avail);
                    if amount.is_zero() {
                        continue;
                    }
                    self.rebalance_pending[i][dir.index()] = true;
                    self.schedule(
                        self.now + rb.confirmation_delay,
                        EventKind::RebalanceSettle {
                            channel: ChannelId::from_index(i),
                            dir,
                            amount,
                        },
                    );
                }
            }
        }
    }

    // ---- topology churn: live channel open/close/resize mid-run ----

    /// Applies one scheduled churn event: mutate the channel states, fail
    /// back in-flight units crossing closed channels, then notify the
    /// router (which repairs its candidate caches incrementally).
    fn on_topology_event(&mut self, i: usize) {
        let change = self.topo_events[i].change;
        let mut update = TopologyUpdate::default();
        self.apply_topology_change(change, &mut update, true);
        if update.is_empty() {
            // Idempotent no-op (e.g. closing an already-closed channel).
            return;
        }
        self.metrics.topology_event(
            update.closed.len(),
            update.opened.len(),
            update.resized.len(),
            self.now,
        );
        if let Some(t) = self.trace.as_mut() {
            t.record(
                self.now.micros(),
                TraceEventKind::TopologyChanged {
                    closed: update.closed.len() as u32,
                    opened: update.opened.len() as u32,
                    resized: update.resized.len() as u32,
                },
            );
        }
        let view = NetworkView {
            topo: &self.topo,
            channels: &self.channels,
            paths: &self.paths,
            now: self.now,
        };
        self.router.on_topology_change(&update, &view);
        self.forget_pins();
    }

    /// Applies one [`TopologyChange`], recording what actually toggled in
    /// `update`. `failback` is false only for `t = 0` initial-state
    /// application, when nothing can be in flight.
    fn apply_topology_change(
        &mut self,
        change: TopologyChange,
        update: &mut TopologyUpdate,
        failback: bool,
    ) {
        match change {
            TopologyChange::ChannelClose { channel } => {
                self.close_channel(channel, update, failback)
            }
            TopologyChange::ChannelOpen { channel } => self.open_channel(channel, update),
            TopologyChange::ChannelResize {
                channel,
                new_capacity,
            } => {
                let ci = channel.index();
                let (deposited, withdrawn) = self.channels[ci].resize(new_capacity);
                if deposited.is_zero() && withdrawn.is_zero() {
                    return;
                }
                update.resized.push(channel);
                // Fresh balance may unblock queued units.
                if !deposited.is_zero() && !self.channels[ci].is_closed() {
                    debug_assert!(self.drain_scratch.is_empty());
                    self.drain_scratch.extend([
                        (channel, Direction::Forward),
                        (channel, Direction::Backward),
                    ]);
                    self.drain_from_scratch();
                }
            }
            TopologyChange::NodeLeave { node } => {
                let incident: Vec<ChannelId> = self
                    .topo
                    .neighbors(node)
                    .iter()
                    .map(|a| a.channel)
                    .collect();
                for c in incident {
                    self.close_channel(c, update, failback);
                }
            }
            TopologyChange::NodeJoin { node } => {
                let incident: Vec<ChannelId> = self
                    .topo
                    .neighbors(node)
                    .iter()
                    .map(|a| a.channel)
                    .collect();
                for c in incident {
                    self.open_channel(c, update);
                }
            }
        }
    }

    /// Closes a channel and fails back every in-flight unit whose path
    /// traverses it: hop-by-hop units are dropped wherever they are
    /// (queued or mid-path) with every locked hop refunded; lockstep
    /// units have their pending settlement canceled and refunded. Either
    /// way the value returns to the payment's unassigned pool (atomic
    /// payments cancel outright), so conservation holds at every instant.
    fn close_channel(&mut self, channel: ChannelId, update: &mut TopologyUpdate, failback: bool) {
        let ci = channel.index();
        if self.channels[ci].is_closed() {
            return;
        }
        self.channels[ci].close();
        update.closed.push(channel);
        if !failback {
            return;
        }
        debug_assert!(self.track_channels, "closes imply a churn schedule");
        if self.hop_by_hop() {
            // Only this channel's in-flight units, from the per-channel
            // index — ascending slab order, exactly the order the old
            // full-slab scan dropped them in.
            let mut hit = std::mem::take(&mut self.id_scratch);
            {
                let units = &self.units;
                let gens = &self.unit_gen;
                self.unit_index.collect_live_sorted(
                    ci,
                    |s, g| gens[s as usize] == g && !units[s as usize].done,
                    &mut hit,
                );
            }
            for &uid in &hit {
                let uid = uid as usize;
                // A drain cascade from an earlier drop may have already
                // retired this unit.
                if self.units[uid].done {
                    continue;
                }
                self.drop_unit(uid, DropReason::ChannelClosed);
            }
            self.id_scratch = hit;
        } else {
            let atomic = self.router.atomic();
            // Only this channel's pending settles (index entries are
            // generation-checked, so recycled slots cannot alias).
            let mut hit = std::mem::take(&mut self.id_scratch);
            {
                let store = &self.event_store;
                let gens = &self.event_gen;
                self.settle_index.collect_live_sorted(
                    ci,
                    |s, g| gens[s as usize] == g && store[s as usize].is_some(),
                    &mut hit,
                );
            }
            for &id in &hit {
                let id = id as usize;
                // Cancel in place (the calendar entry reclaims the slot)
                // and unwind the unit's locks.
                let Some(EventKind::Settle {
                    payment,
                    amount,
                    path,
                }) = self.event_store[id].take()
                else {
                    unreachable!("settle index entries are validated live");
                };
                self.live_events -= 1;
                let entry = self.paths.entry(path);
                for &(c, dir) in entry.hops() {
                    self.channels[c.index()].refund(dir, amount);
                    self.settle_index.note_removed(c.index());
                }
                let p = &mut self.payments[payment];
                p.inflight -= amount;
                p.churn_hit = true;
                // Counted in both the total and the churn-specific drop
                // counters, so `units_dropped_churn <= units_dropped`
                // holds in every engine mode.
                self.metrics.unit_dropped(DropReason::ChannelClosed);
                self.metrics.unit_dropped_churn();
                if let Some(attr) = self.attribution.as_mut() {
                    attr.drop_at(ci);
                }
                self.forensic_drop(payment, path, Some(channel), DropReason::ChannelClosed);
                if atomic {
                    // All-or-nothing schemes cannot partially retry.
                    self.payments[payment].expired = true;
                } else if self.payments[payment].active() {
                    self.pending_push(payment, None);
                }
            }
            self.id_scratch = hit;
        }
    }

    /// Reopens a closed channel; its frozen balances become spendable
    /// again and its directions are drained in case senders are waiting.
    fn open_channel(&mut self, channel: ChannelId, update: &mut TopologyUpdate) {
        let ci = channel.index();
        if !self.channels[ci].is_closed() {
            return;
        }
        self.channels[ci].reopen();
        update.opened.push(channel);
        debug_assert!(self.drain_scratch.is_empty());
        self.drain_scratch.extend([
            (channel, Direction::Forward),
            (channel, Direction::Backward),
        ]);
        self.drain_from_scratch();
    }

    /// Debug-build invariant: the per-channel indices exactly mirror the
    /// slabs — every live unit/settle crossing a channel is a
    /// generation-valid entry of that channel's list, and the live
    /// counters match the recount. Runs after every engine step while the
    /// slabs are small, and on a stride once they grow (the check itself
    /// is O(slab), so per-step checking at scale would be quadratic).
    #[cfg(debug_assertions)]
    fn debug_check_channel_indices(&self) {
        if !self.track_channels {
            return;
        }
        let slab = self.event_store.len() + self.units.len();
        if slab > 512 && !self.events_executed.is_multiple_of(256) {
            return;
        }
        let n = self.channels.len();
        let mut unit_live = vec![0u32; n];
        for (uid, u) in self.units.iter().enumerate() {
            if u.done {
                continue;
            }
            for &(c, _) in u.entry.hops() {
                unit_live[c.index()] += 1;
                assert!(
                    self.unit_index
                        .entries(c.index())
                        .contains(&(uid as u32, self.unit_gen[uid])),
                    "live unit {uid} missing from channel {c} index"
                );
            }
        }
        let mut settle_live = vec![0u32; n];
        for (id, slot) in self.event_store.iter().enumerate() {
            if let Some(EventKind::Settle { path, .. }) = slot {
                for &(c, _) in self.paths.entry(*path).hops() {
                    settle_live[c.index()] += 1;
                    assert!(
                        self.settle_index
                            .entries(c.index())
                            .contains(&(id as u32, self.event_gen[id])),
                        "pending settle {id} missing from channel {c} index"
                    );
                }
            }
        }
        for c in 0..n {
            assert_eq!(
                unit_live[c],
                self.unit_index.live(c),
                "unit index live count drifted on channel {c}"
            );
            assert_eq!(
                settle_live[c],
                self.settle_index.live(c),
                "settle index live count drifted on channel {c}"
            );
        }
    }

    /// Verifies fund conservation on every channel (available + in-flight
    /// equals escrowed capacity). Panics on violation.
    pub fn check_conservation(&self) {
        for (i, ch) in self.channels.iter().enumerate() {
            assert_eq!(
                ch.total(),
                ch.capacity(),
                "channel {i} violates conservation"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{TxnSpec, Workload};
    use spider_topology::gen;

    /// Test router: always proposes the single BFS shortest path for the
    /// full remaining amount.
    struct DirectRouter {
        atomic: bool,
    }

    impl Router for DirectRouter {
        fn name(&self) -> &'static str {
            "direct-test"
        }
        fn route(
            &mut self,
            req: &RouteRequest,
            view: &NetworkView<'_>,
        ) -> Vec<crate::router::RouteProposal> {
            match view.topo.shortest_path(req.src, req.dst) {
                Some(path) => vec![crate::router::RouteProposal {
                    path: view.intern(&path),
                    amount: req.remaining,
                }],
                None => Vec::new(),
            }
        }
        fn atomic(&self) -> bool {
            self.atomic
        }
        fn observes_unit_outcomes(&self) -> bool {
            false // exercise the engine's batched failed-lock fast path
        }
    }

    fn xrp(x: u64) -> Amount {
        Amount::from_xrp(x)
    }

    fn txn(t_ms: u64, src: u32, dst: u32, amount: Amount) -> TxnSpec {
        TxnSpec {
            time: SimTime::from_micros(t_ms * 1000),
            src: NodeId(src),
            dst: NodeId(dst),
            amount,
        }
    }

    fn base_config() -> SimConfig {
        SimConfig {
            horizon: spider_types::SimDuration::from_secs(30),
            ..SimConfig::default()
        }
    }

    fn new_sim(
        topo: Topology,
        txns: Vec<TxnSpec>,
        router: Box<dyn Router>,
        config: SimConfig,
    ) -> Simulation {
        Simulation::new(topo, Workload { txns }, router, config)
            .expect("test topology and config are valid")
    }

    fn run_sim(
        topo: Topology,
        txns: Vec<TxnSpec>,
        atomic: bool,
        config: SimConfig,
    ) -> (SimReport, Simulation) {
        let mut sim = new_sim(topo, txns, Box::new(DirectRouter { atomic }), config);
        let report = sim.run();
        sim.check_conservation();
        (report, sim)
    }

    #[test]
    fn single_payment_direct_channel() {
        let t = gen::line(2, xrp(10));
        let (r, _) = run_sim(t, vec![txn(100, 0, 1, xrp(3))], false, base_config());
        assert_eq!(r.attempted_payments, 1);
        assert_eq!(r.completed_payments, 1);
        assert_eq!(r.success_ratio(), 1.0);
        assert_eq!(r.success_volume(), 1.0);
        // Latency = confirmation delay.
        assert!((r.avg_completion_time().expect("at least one txn completed") - 0.5).abs() < 1e-9);
    }

    #[test]
    fn payment_larger_than_balance_fails_atomically() {
        // Channel 10 XRP → 5 XRP per side; an 8 XRP atomic payment fails.
        let t = gen::line(2, xrp(10));
        let (r, sim) = run_sim(t, vec![txn(100, 0, 1, xrp(8))], true, base_config());
        assert_eq!(r.completed_payments, 0);
        assert_eq!(r.delivered_volume, Amount::ZERO);
        // Rollback restored the initial split.
        assert_eq!(
            sim.channel_states()[0].available(Direction::Forward),
            xrp(5)
        );
        assert_eq!(
            sim.channel_states()[0].available(Direction::Backward),
            xrp(5)
        );
    }

    #[test]
    fn multihop_locks_every_hop() {
        let t = gen::line(3, xrp(10));
        let (r, sim) = run_sim(t, vec![txn(50, 0, 2, xrp(4))], false, base_config());
        assert_eq!(r.completed_payments, 1);
        // Both channels moved 4 XRP downstream.
        for c in sim.channel_states() {
            assert_eq!(c.available(Direction::Forward), xrp(1));
            assert_eq!(c.available(Direction::Backward), xrp(9));
        }
        // Two hops per unit, 4 XRP / 10 MTU = one unit.
        assert_eq!(r.units_locked, 1);
        assert_eq!(r.avg_path_length(), Some(2.0));
    }

    #[test]
    fn mtu_splits_units() {
        let mut cfg = base_config();
        cfg.mtu = xrp(1);
        let t = gen::line(2, xrp(20));
        let (r, _) = run_sim(t, vec![txn(10, 0, 1, xrp(5))], false, cfg);
        assert_eq!(r.units_locked, 5);
        assert_eq!(r.completed_payments, 1);
    }

    #[test]
    fn opposing_payments_rebalance_each_other() {
        // 6 XRP per side. 0→1 5 XRP, then 1→0 5 XRP, then 0→1 5 XRP again:
        // each leg is only possible because the previous one refilled it.
        let t = gen::line(2, xrp(12));
        let txns = vec![
            txn(0, 0, 1, xrp(5)),
            txn(1000, 1, 0, xrp(5)),
            txn(2000, 0, 1, xrp(5)),
        ];
        let (r, _) = run_sim(t, txns, false, base_config());
        assert_eq!(r.completed_payments, 3);
    }

    #[test]
    fn unidirectional_traffic_exhausts_channel() {
        // 5 XRP forward budget; three 2-XRP payments: the third finds only
        // 1 XRP available and completes partially (non-atomic), leaving
        // success ratio 2/3.
        let mut cfg = base_config();
        cfg.mtu = xrp(1);
        cfg.deadline = Some(spider_types::SimDuration::from_secs(2));
        let t = gen::line(2, xrp(10));
        let txns = vec![
            txn(0, 0, 1, xrp(2)),
            txn(100, 0, 1, xrp(2)),
            txn(200, 0, 1, xrp(2)),
        ];
        let (r, _) = run_sim(t, txns, false, cfg);
        assert_eq!(r.completed_payments, 2);
        // 5 of 6 XRP delivered (the stranded 1 XRP was sendable).
        assert_eq!(r.delivered_volume, xrp(5));
        assert!((r.success_volume() - 5.0 / 6.0).abs() < 1e-9);
    }

    #[test]
    fn pending_queue_retries_after_refill() {
        // 0→1 drains; payment 1→0 then refills; queued remainder completes
        // on a later poll.
        let mut cfg = base_config();
        cfg.mtu = xrp(1);
        cfg.deadline = Some(spider_types::SimDuration::from_secs(10));
        let t = gen::line(2, xrp(10));
        let txns = vec![
            txn(0, 0, 1, xrp(5)),    // drains forward side
            txn(100, 0, 1, xrp(3)),  // queued: nothing available
            txn(2000, 1, 0, xrp(4)), // refills forward side
        ];
        let (r, _) = run_sim(t, txns, false, cfg);
        assert_eq!(r.completed_payments, 3);
        assert!(r.retries > 0);
    }

    /// [`DirectRouter`] (non-atomic) that also gives the
    /// `pins_single_path` promise — until its first fault outcome, after
    /// which it withdraws it for good, as `ShortestPath` does.
    #[derive(Default)]
    struct PinningRouter {
        faulted: bool,
    }

    impl Router for PinningRouter {
        fn name(&self) -> &'static str {
            "pinning-test"
        }
        fn route(
            &mut self,
            req: &RouteRequest,
            view: &NetworkView<'_>,
        ) -> Vec<crate::router::RouteProposal> {
            DirectRouter { atomic: false }.route(req, view)
        }
        fn observes_unit_outcomes(&self) -> bool {
            false
        }
        fn on_unit_outcome(&mut self, outcome: &UnitOutcome, _view: &NetworkView<'_>) {
            self.faulted |= outcome.fault.is_some();
        }
        fn pins_single_path(&self) -> bool {
            !self.faulted
        }
    }

    fn pinned_sim(topo: Topology, txns: Vec<TxnSpec>, config: SimConfig) -> Simulation {
        new_sim(topo, txns, Box::new(PinningRouter::default()), config)
    }

    fn run_pinned(topo: Topology, txns: Vec<TxnSpec>, config: SimConfig) -> SimReport {
        let mut sim = pinned_sim(topo, txns, config);
        let report = sim.run();
        sim.check_conservation();
        report
    }

    #[test]
    fn blocked_payment_is_not_retried_until_opposing_flow_refills_its_hop() {
        // As `pending_queue_retries_after_refill`, with a pinning router:
        // the queued payment sits out every poll while 0→1 is empty and
        // is re-offered exactly once, after the 1→0 payment settles.
        let mut cfg = base_config();
        cfg.mtu = xrp(1);
        cfg.deadline = Some(spider_types::SimDuration::from_secs(10));
        let txns = vec![
            txn(0, 0, 1, xrp(5)),    // drains forward side
            txn(100, 0, 1, xrp(3)),  // queued: nothing available
            txn(2000, 1, 0, xrp(4)), // settles at 2500: forward side has 4
        ];
        let r = run_pinned(gen::line(2, xrp(10)), txns.clone(), cfg.clone());
        assert_eq!(r.completed_payments, 3);
        assert_eq!(r.retries, 1);
        // Only the arrival attempt failed: 3 one-XRP chunks.
        assert_eq!(r.units_failed, 3);
        // The same run without the promise polls 24 times before the
        // refill and fails 3 chunks each time; the outcome is the same.
        let (polled, _) = run_sim(gen::line(2, xrp(10)), txns, false, cfg);
        assert_eq!(polled.retries, 25);
        assert_eq!(polled.units_failed, 3 * 25);
        assert_eq!(polled.completed_payments, r.completed_payments);
        assert_eq!(polled.delivered_volume, r.delivered_volume);
        assert_eq!(polled.units_locked, r.units_locked);
    }

    #[test]
    fn skip_tests_the_smallest_chunk_not_the_mtu() {
        // remaining = 45, MTU = 20: chunks 20, 20, 5. A bottleneck of 7
        // fails both full chunks but carries the 5, so the payment must
        // be re-offered; what is left (40) then needs a full 20.
        let mut cfg = base_config();
        cfg.mtu = xrp(20);
        cfg.deadline = None;
        let txns = vec![
            txn(0, 0, 1, xrp(10)),   // drains forward side (10 of 20)
            txn(100, 0, 1, xrp(45)), // queued whole: 3 failed chunks
            txn(1000, 1, 0, xrp(7)), // settles at 1500: forward side has 7
        ];
        let r = run_pinned(gen::line(2, xrp(20)), txns, cfg);
        assert_eq!(r.retries, 1);
        assert_eq!(r.units_failed, 3 + 2);
        assert_eq!(r.delivered_volume, xrp(10 + 7 + 5));
    }

    #[test]
    fn skip_boundary_is_strictly_below_the_chunk() {
        // remaining = 40, MTU = 20: a bottleneck of 19 is skipped at
        // every poll, a bottleneck of exactly 20 is not.
        let mut cfg = base_config();
        cfg.mtu = xrp(20);
        cfg.deadline = None;
        let txns = vec![
            txn(0, 0, 1, xrp(20)),    // drains forward side (20 of 40)
            txn(100, 0, 1, xrp(40)),  // queued whole: 2 failed chunks
            txn(1000, 1, 0, xrp(19)), // settles at 1500: forward side has 19
            txn(3000, 1, 0, xrp(1)),  // settles at 3500: forward side has 20
        ];
        let r = run_pinned(gen::line(2, xrp(40)), txns, cfg);
        // One re-offer, after 3500: locks one 20, fails the other.
        assert_eq!(r.retries, 1);
        assert_eq!(r.units_failed, 2 + 1);
        assert_eq!(r.delivered_volume, xrp(20 + 19 + 1 + 20));
    }

    #[test]
    fn closed_hop_counts_as_empty_and_reopening_lets_the_next_poll_through() {
        // The channel is closed when the payment arrives, with 5 XRP
        // frozen on the sender's side: availability, not the frozen
        // balance, is what the skip reads. The reopen is a topology
        // callback, which forgets the pin.
        let at = |ms: u64| SimTime::from_micros(ms * 1000);
        let channel = ChannelId(0);
        let mut sim = pinned_sim(
            gen::line(2, xrp(10)),
            vec![txn(100, 0, 1, xrp(3))],
            base_config(),
        );
        sim.set_topology_events(vec![
            TopologyEvent {
                at: at(50),
                change: TopologyChange::ChannelClose { channel },
            },
            TopologyEvent {
                at: at(2000),
                change: TopologyChange::ChannelOpen { channel },
            },
        ]);
        let r = sim.run();
        sim.check_conservation();
        assert_eq!(r.completed_payments, 1);
        assert_eq!(r.retries, 1);
    }

    #[test]
    fn payment_whose_own_unit_a_fault_refunds_is_reoffered_at_the_next_poll() {
        // 0→1→2 carries 5: an 8 XRP payment locks 5, fails 3 and is
        // pinned behind an empty path. Node 1 is down when the 5 would
        // settle (500 ms), so the unit is refunded: `unassigned` grows
        // to 8, the router hears of the fault and withdraws its promise,
        // and the poll at 500 ms locks the 5 again. From then on the
        // router pins nothing and every poll re-offers the remainder.
        let at = |ms: u64| SimTime::from_micros(ms * 1000);
        let mut cfg = base_config();
        cfg.mtu = xrp(5);
        cfg.horizon = spider_types::SimDuration::from_secs(1);
        let mut sim = pinned_sim(gen::line(3, xrp(10)), vec![txn(0, 0, 2, xrp(8))], cfg);
        sim.set_fault_plan(FaultPlan {
            message_loss: vec![0.0; 2],
            ack_loss_prob: 0.0,
            stuck_prob: 0.0,
            jitter_range_ms: None,
            spike_prob: 0.0,
            spike_ms: 0.0,
            hop_timeout: spider_types::SimDuration::from_secs(1),
            events: vec![
                spider_faults::FaultEvent {
                    at: at(400),
                    change: FaultChange::NodeCrash { node: NodeId(1) },
                },
                spider_faults::FaultEvent {
                    at: at(600),
                    change: FaultChange::NodeRecover { node: NodeId(1) },
                },
            ],
            runtime_seed: 1,
        });
        let r = sim.run();
        sim.check_conservation();
        assert_eq!(r.faults_injected, 1);
        assert_eq!(r.units_locked, 2);
        // Polls at 100–400 ms skip; 500 ms re-offers and locks; 600 ms
        // to 1 s re-offer the unpinned 3 XRP remainder in vain.
        assert_eq!(r.retries, 6);
        assert_eq!(r.delivered_volume, xrp(5));
    }

    #[test]
    fn deadline_cancels_remainder() {
        let mut cfg = base_config();
        cfg.mtu = xrp(1);
        cfg.deadline = Some(spider_types::SimDuration::from_millis(800));
        let t = gen::line(2, xrp(10));
        // 5 available; 8 requested; 5 deliver, 3 can never arrive; after
        // the deadline the payment stops retrying.
        let (r, _) = run_sim(t, vec![txn(0, 0, 1, xrp(8))], false, cfg);
        assert_eq!(r.completed_payments, 0);
        assert_eq!(r.delivered_volume, xrp(5));
    }

    #[test]
    fn disconnected_destination_fails_cleanly() {
        let mut b = Topology::builder(3);
        b.channel(NodeId(0), NodeId(1), xrp(10))
            .expect("channel endpoints are distinct known nodes");
        let t = b.build();
        let (r, _) = run_sim(t, vec![txn(0, 0, 2, xrp(1))], false, base_config());
        assert_eq!(r.completed_payments, 0);
        assert_eq!(r.delivered_volume, Amount::ZERO);
    }

    #[test]
    fn determinism_across_runs() {
        let t = gen::cycle(6, xrp(50));
        let mut rng = spider_types::DetRng::new(42);
        let w = Workload::generate(
            6,
            &crate::workload::WorkloadConfig::small(200, 50.0),
            &mut rng,
        );
        let run = |w: Workload| {
            let mut sim = Simulation::new(
                gen::cycle(6, xrp(50)),
                w,
                Box::new(DirectRouter { atomic: false }),
                base_config(),
            )
            .expect("test topology and config are valid");
            sim.run()
        };
        let r1 = run(w.clone());
        let r2 = run(w);
        assert_eq!(r1.completed_payments, r2.completed_payments);
        assert_eq!(r1.delivered_volume, r2.delivered_volume);
        assert_eq!(r1.units_locked, r2.units_locked);
        let _ = t;
    }

    #[test]
    fn horizon_cuts_off_late_arrivals() {
        let mut cfg = base_config();
        cfg.horizon = spider_types::SimDuration::from_secs(1);
        let t = gen::line(2, xrp(100));
        let txns = vec![txn(0, 0, 1, xrp(1)), txn(5_000, 0, 1, xrp(1))];
        let (r, _) = run_sim(t, txns, false, cfg);
        assert_eq!(r.attempted_payments, 1);
    }

    #[test]
    fn conservation_under_random_load() {
        let t = gen::isp_topology(xrp(200));
        let mut rng = spider_types::DetRng::new(7);
        let w = Workload::generate(
            32,
            &crate::workload::WorkloadConfig::small(2_000, 500.0),
            &mut rng,
        );
        let mut cfg = base_config();
        cfg.mtu = xrp(5);
        let mut sim = Simulation::new(t, w, Box::new(DirectRouter { atomic: false }), cfg)
            .expect("test topology and config are valid");
        let r = sim.run();
        sim.check_conservation();
        assert!(r.attempted_payments == 2_000);
        assert!(r.delivered_volume <= r.attempted_volume);
    }

    #[test]
    fn streaming_source_runs_identically_to_materialized() {
        // The same generator seed, fed once as a materialized Workload
        // and once as a lazy stream: every observable must match.
        let cfg = crate::workload::WorkloadConfig::small(1_500, 400.0);
        let run = |src: crate::workload::ArrivalSource| {
            let mut sim = Simulation::new(
                gen::isp_topology(xrp(200)),
                src,
                Box::new(DirectRouter { atomic: false }),
                base_config(),
            )
            .expect("test topology and config are valid");
            let r = sim.run();
            sim.check_conservation();
            (r, sim.slab_stats())
        };
        let w = Workload::generate(32, &cfg, &mut spider_types::DetRng::new(5));
        let stream = crate::workload::StreamingWorkload::new(32, cfg, spider_types::DetRng::new(5));
        let (r1, s1) = run(w.into());
        let (r2, s2) = run(stream.into());
        assert_eq!(r1.completed_payments, r2.completed_payments);
        assert_eq!(r1.delivered_volume, r2.delivered_volume);
        assert_eq!(r1.units_locked, r2.units_locked);
        assert_eq!(r1.units_failed, r2.units_failed);
        assert_eq!(r1.retries, r2.retries);
        assert_eq!(s1.events_scheduled, s2.events_scheduled);
        assert_eq!(s1.peak_live_events, s2.peak_live_events);
    }

    #[test]
    fn failed_lock_batching_preserves_outcomes() {
        // A router with a no-op outcome hook lets the engine batch-count
        // identical failed chunks. Forcing the hook "observed" disables
        // the fast path; every outcome must be unchanged.
        struct Observing;
        impl Router for Observing {
            fn name(&self) -> &'static str {
                "direct-observing"
            }
            fn route(
                &mut self,
                req: &RouteRequest,
                view: &NetworkView<'_>,
            ) -> Vec<crate::router::RouteProposal> {
                match view.topo.shortest_path(req.src, req.dst) {
                    Some(path) => vec![crate::router::RouteProposal {
                        path: view.intern(&path),
                        amount: req.remaining,
                    }],
                    None => Vec::new(),
                }
            }
            fn on_unit_outcome(&mut self, _o: &UnitOutcome, _v: &NetworkView<'_>) {
                // Still a no-op, but overriding flips `observes` to true:
                // the engine must then walk every chunk individually.
            }
        }
        // Repeated over-sized payments at 1-XRP MTU: most chunks fail.
        let mut cfg = base_config();
        cfg.mtu = xrp(1);
        cfg.deadline = Some(spider_types::SimDuration::from_secs(3));
        let txns: Vec<TxnSpec> = (0..20).map(|i| txn(i * 200, 0, 1, xrp(9))).collect();
        let (fast, fast_sim) = run_sim(gen::line(2, xrp(10)), txns.clone(), false, cfg.clone());
        let mut slow_sim = Simulation::new(
            gen::line(2, xrp(10)),
            Workload { txns },
            Box::new(Observing),
            cfg,
        )
        .expect("test topology and config are valid");
        let slow = slow_sim.run();
        slow_sim.check_conservation();
        assert!(fast.units_failed > 100, "needs failing chunks to batch");
        assert_eq!(fast.units_failed, slow.units_failed);
        assert_eq!(fast.units_locked, slow.units_locked);
        assert_eq!(fast.completed_payments, slow.completed_payments);
        assert_eq!(fast.delivered_volume, slow.delivered_volume);
        assert_eq!(fast.retries, slow.retries);
        assert_eq!(
            fast_sim.channel_states()[0],
            slow_sim.channel_states()[0],
            "channel state must be bit-identical"
        );
    }

    #[test]
    fn event_slab_is_bounded_by_in_flight_events() {
        // A long run whose unit churn (one settle event per MTU unit)
        // vastly exceeds the in-flight population: the slab must recycle
        // dead slots instead of growing with the total ever scheduled.
        // 60 alternating 100-XRP payments at 1-XRP MTU → ~6,000 settle
        // events, of which only a confirmation-window's worth is ever
        // simultaneously pending.
        let t = gen::line(2, xrp(20_000));
        let mut cfg = base_config();
        cfg.mtu = xrp(1);
        cfg.horizon = spider_types::SimDuration::from_secs(40);
        let txns: Vec<TxnSpec> = (0..60)
            .map(|i| txn(i * 500, (i % 2) as u32, ((i + 1) % 2) as u32, xrp(100)))
            .collect();
        let (r, sim) = run_sim(t, txns, false, cfg);
        assert_eq!(r.completed_payments, 60);
        let stats = sim.slab_stats();
        assert!(stats.events_scheduled > 6_000, "{stats:?}");
        assert!(
            stats.event_slots < (stats.events_scheduled / 4) as usize,
            "event slab grew with total events: {stats:?}"
        );
        assert_eq!(stats.event_slots, stats.peak_live_events, "{stats:?}");
        // The interner deduplicates: both directions of the one pair.
        assert_eq!(stats.interned_paths, 2, "{stats:?}");
    }
}

#[cfg(test)]
mod queueing_tests {
    use super::*;
    use crate::config::QueueConfig;
    use crate::workload::{TxnSpec, Workload};
    use spider_topology::gen;
    use spider_types::SimDuration;

    struct Direct;
    impl Router for Direct {
        fn name(&self) -> &'static str {
            "direct"
        }
        fn route(
            &mut self,
            req: &RouteRequest,
            view: &NetworkView<'_>,
        ) -> Vec<crate::router::RouteProposal> {
            match view.topo.shortest_path(req.src, req.dst) {
                Some(path) => vec![crate::router::RouteProposal {
                    path: view.intern(&path),
                    amount: req.remaining,
                }],
                None => Vec::new(),
            }
        }
    }

    /// Records every ack for assertion.
    struct AckRecorder {
        acks: std::rc::Rc<std::cell::RefCell<Vec<UnitAck>>>,
        outcomes: std::rc::Rc<std::cell::RefCell<Vec<bool>>>,
    }
    impl Router for AckRecorder {
        fn name(&self) -> &'static str {
            "ack-recorder"
        }
        fn route(
            &mut self,
            req: &RouteRequest,
            view: &NetworkView<'_>,
        ) -> Vec<crate::router::RouteProposal> {
            match view.topo.shortest_path(req.src, req.dst) {
                Some(path) => vec![crate::router::RouteProposal {
                    path: view.intern(&path),
                    amount: req.remaining,
                }],
                None => Vec::new(),
            }
        }
        fn on_unit_outcome(&mut self, outcome: &UnitOutcome, _view: &NetworkView<'_>) {
            self.outcomes.borrow_mut().push(outcome.locked);
        }
        fn on_unit_ack(&mut self, ack: &UnitAck, _view: &NetworkView<'_>) {
            self.acks.borrow_mut().push(*ack);
        }
    }

    fn xrp(x: u64) -> Amount {
        Amount::from_xrp(x)
    }

    fn txn(t_ms: u64, src: u32, dst: u32, amount: Amount) -> TxnSpec {
        TxnSpec {
            time: SimTime::from_micros(t_ms * 1000),
            src: NodeId(src),
            dst: NodeId(dst),
            amount,
        }
    }

    fn qconfig(qc: QueueConfig) -> SimConfig {
        SimConfig {
            horizon: SimDuration::from_secs(30),
            mtu: xrp(1),
            deadline: Some(SimDuration::from_secs(10)),
            queueing: crate::config::QueueingMode::PerChannelFifo(qc),
            ..SimConfig::default()
        }
    }

    fn run_queue_sim(
        topo: Topology,
        txns: Vec<TxnSpec>,
        cfg: SimConfig,
    ) -> (SimReport, Simulation) {
        let mut sim = Simulation::new(topo, Workload { txns }, Box::new(Direct), cfg)
            .expect("test topology and config are valid");
        let report = sim.run();
        sim.check_conservation();
        (report, sim)
    }

    #[test]
    fn queued_unit_completes_after_refill() {
        // 5 XRP forward; the first payment drains it, the second queues at
        // the router instead of failing, and the opposing payment's
        // settlement releases it.
        let t = gen::line(2, xrp(10));
        let txns = vec![
            txn(0, 0, 1, xrp(5)),
            txn(100, 0, 1, xrp(3)),
            txn(1_000, 1, 0, xrp(4)),
        ];
        let (r, sim) = run_queue_sim(t, txns, qconfig(QueueConfig::default()));
        assert_eq!(r.completed_payments, 3);
        assert!(
            r.units_queued > 0,
            "second payment's units must have queued"
        );
        assert!(r.avg_queue_delay().expect("queue delays were recorded") > 0.0);
        assert_eq!(sim.queued_units(), 0);
    }

    #[test]
    fn conservation_holds_with_units_resident_in_queues() {
        // Nothing ever refills the forward direction: the remainder stays
        // queued at the horizon, and every drop is still accounted for.
        let t = gen::line(2, xrp(10));
        let mut cfg = qconfig(QueueConfig {
            max_queue_delay: SimDuration::from_secs(3_600),
            marking_delay: SimDuration::from_secs(3_000),
            ..QueueConfig::default()
        });
        cfg.horizon = SimDuration::from_secs(2);
        cfg.deadline = None;
        let (r, sim) = run_queue_sim(t, vec![txn(0, 0, 1, xrp(8))], cfg);
        assert_eq!(r.delivered_volume, xrp(5));
        assert!(sim.queued_units() > 0, "remainder must sit in the queue");
        sim.check_conservation(); // with units resident in queues
    }

    #[test]
    fn multihop_queues_hold_upstream_locks() {
        // Wide first channel, narrow second: units lock hop 0, queue at
        // hop 1, and the locks show up as in-flight on channel 0 while
        // they wait.
        let mut b = Topology::builder(3);
        b.channel(NodeId(0), NodeId(1), xrp(20))
            .expect("channel endpoints are distinct known nodes"); // 10 per side
        b.channel(NodeId(1), NodeId(2), xrp(10))
            .expect("channel endpoints are distinct known nodes"); // 5 per side
        let t = b.build();
        let mut cfg = qconfig(QueueConfig {
            max_queue_delay: SimDuration::from_secs(3_600),
            marking_delay: SimDuration::from_secs(3_000),
            ..QueueConfig::default()
        });
        cfg.horizon = SimDuration::from_secs(2);
        cfg.deadline = None;
        // 8 XRP: all units cross hop 0, 5 deliver through hop 1, 3 queue
        // there holding their hop-0 locks.
        let (r, sim) = run_queue_sim(t, vec![txn(0, 0, 2, xrp(8))], cfg);
        assert_eq!(r.delivered_volume, xrp(5));
        assert!(sim.queued_units() > 0);
        let inflight_upstream = sim.channel_states()[0].inflight(Direction::Forward);
        assert_eq!(
            inflight_upstream,
            xrp(3),
            "queued units keep their upstream locks"
        );
    }

    #[test]
    fn overload_marks_units() {
        let t = gen::line(2, xrp(10));
        let qc = QueueConfig {
            marking_delay: SimDuration::from_millis(50),
            ..QueueConfig::default()
        };
        // Sustained one-way overload with periodic refills so queued units
        // eventually cross (delayed → marked).
        let mut txns: Vec<TxnSpec> = (0..8).map(|i| txn(i * 100, 0, 1, xrp(1))).collect();
        txns.push(txn(3_000, 1, 0, xrp(4)));
        let (r, _) = run_queue_sim(t, txns, qconfig(qc));
        assert!(r.units_marked > 0, "delayed units must be marked");
        assert!(r.marking_rate() > 0.0);
    }

    #[test]
    fn queue_timeout_drops_and_refunds() {
        let t = gen::line(3, xrp(10));
        let qc = QueueConfig {
            max_queue_delay: SimDuration::from_millis(300),
            marking_delay: SimDuration::from_millis(100),
            ..QueueConfig::default()
        };
        let mut cfg = qconfig(qc);
        // With no deadline, the payment keeps retrying: dropped units
        // return their value to the unassigned pool and the pending queue
        // re-injects it on a later poll (so some units may sit queued
        // again at the horizon — conservation must hold regardless).
        cfg.deadline = None;
        let (r, sim) = run_queue_sim(t, vec![txn(0, 0, 2, xrp(9))], cfg);
        assert_eq!(r.delivered_volume, xrp(5), "only the channel's funds ship");
        assert!(r.units_dropped > 0, "the stuck remainder must time out");
        assert!(r.retries > 0, "dropped value must be re-queued for retry");
        // With a deadline, the remainder expires and everything unwinds.
        let mut cfg = qconfig(QueueConfig {
            max_queue_delay: SimDuration::from_millis(300),
            marking_delay: SimDuration::from_millis(100),
            ..QueueConfig::default()
        });
        cfg.deadline = Some(SimDuration::from_secs(2));
        let (r, sim2) = run_queue_sim(gen::line(3, xrp(10)), vec![txn(0, 0, 2, xrp(9))], cfg);
        assert_eq!(r.delivered_volume, xrp(5));
        assert_eq!(sim2.queued_units(), 0, "expiry unwinds the queues");
        for c in sim2.channel_states() {
            assert_eq!(c.inflight(Direction::Forward), Amount::ZERO);
            assert_eq!(c.inflight(Direction::Backward), Amount::ZERO);
        }
        let _ = sim;
    }

    #[test]
    fn ingress_overflow_rejects_without_ack() {
        let t = gen::line(2, xrp(4));
        let qc = QueueConfig {
            max_queue_units: 2,
            max_queue_delay: SimDuration::from_secs(5),
            ..QueueConfig::default()
        };
        let acks = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        let outcomes = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        let router = AckRecorder {
            acks: std::rc::Rc::clone(&acks),
            outcomes: std::rc::Rc::clone(&outcomes),
        };
        // 10 one-XRP units against 2 XRP of balance and a 2-deep queue:
        // some are rejected at the ingress.
        let mut cfg = qconfig(qc);
        cfg.deadline = None;
        cfg.horizon = SimDuration::from_secs(3);
        let mut sim = Simulation::new(
            t,
            Workload {
                txns: vec![txn(0, 0, 1, xrp(10))],
            },
            Box::new(router),
            cfg,
        )
        .expect("test topology and config are valid");
        let r = sim.run();
        sim.check_conservation();
        let rejected = outcomes.borrow().iter().filter(|ok| !**ok).count();
        assert!(rejected > 0, "ingress must reject beyond the queue bound");
        assert!(r.units_failed >= rejected as u64);
        // Every *accepted* unit acks exactly once; rejected ones never do.
        let accepted = outcomes.borrow().iter().filter(|ok| **ok).count();
        let settled_or_queued = accepted - sim.queued_units();
        assert_eq!(acks.borrow().len(), settled_or_queued);
        assert!(acks.borrow().iter().all(|a| a.delivered));
    }

    #[test]
    fn queueing_runs_are_deterministic() {
        let _t = gen::isp_topology(xrp(500));
        let mut rng = spider_types::DetRng::new(11);
        let w = Workload::generate(
            32,
            &crate::workload::WorkloadConfig::small(2_000, 500.0),
            &mut rng,
        );
        let run = |w: Workload| {
            let mut cfg = qconfig(QueueConfig::default());
            cfg.mtu = xrp(5);
            let mut sim = Simulation::new(gen::isp_topology(xrp(500)), w, Box::new(Direct), cfg)
                .expect("test topology and config are valid");
            let r = sim.run();
            sim.check_conservation();
            r
        };
        let r1 = run(w.clone());
        let r2 = run(w);
        assert_eq!(r1.completed_payments, r2.completed_payments);
        assert_eq!(r1.delivered_volume, r2.delivered_volume);
        assert_eq!(r1.units_locked, r2.units_locked);
        assert_eq!(r1.units_marked, r2.units_marked);
        assert_eq!(r1.units_dropped, r2.units_dropped);
        assert_eq!(r1.units_queued, r2.units_queued);
    }

    #[test]
    fn queueing_beats_lockstep_on_bursty_one_way_load() {
        // The whole point of router queues: a burst that exceeds the
        // instantaneous balance waits for the opposing flow instead of
        // failing. Same workload, same seeds, queueing on vs off.
        let txns = vec![
            txn(0, 0, 1, xrp(5)),
            txn(10, 0, 1, xrp(4)), // lockstep: fails now; queueing: waits
            txn(1_000, 1, 0, xrp(5)),
        ];
        let t = gen::line(2, xrp(10));
        let (queued, _) = run_queue_sim(t, txns.clone(), qconfig(QueueConfig::default()));
        let mut lockstep_cfg = SimConfig {
            horizon: SimDuration::from_secs(30),
            mtu: xrp(1),
            deadline: Some(SimDuration::from_secs(10)),
            ..SimConfig::default()
        };
        // Disable retries-driven catchup to isolate the queueing effect:
        // poll quickly in both, rely on deadline.
        lockstep_cfg.poll_interval = SimDuration::from_millis(100);
        let mut sim = Simulation::new(
            gen::line(2, xrp(10)),
            Workload { txns },
            Box::new(Direct),
            lockstep_cfg,
        )
        .expect("test topology and config are valid");
        let lockstep = sim.run();
        sim.check_conservation();
        assert!(
            queued.delivered_volume >= lockstep.delivered_volume,
            "queueing {} < lockstep {}",
            queued.delivered_volume,
            lockstep.delivered_volume
        );
        assert_eq!(queued.completed_payments, 3);
    }

    #[test]
    fn unit_slab_recycles_dead_slots() {
        // Heavy churn through a narrow line: far more units are injected
        // than are ever simultaneously alive, so the slab must stay small.
        let t = gen::line(3, xrp(40));
        let mut txns = Vec::new();
        for i in 0..60 {
            txns.push(txn(i * 250, 0, 2, xrp(4)));
            txns.push(txn(i * 250 + 100, 2, 0, xrp(4)));
        }
        let (r, sim) = run_queue_sim(t, txns, qconfig(QueueConfig::default()));
        let stats = sim.slab_stats();
        assert!(r.units_locked > 100);
        assert!(stats.units_injected > 200, "{stats:?}");
        assert_eq!(stats.unit_slots, stats.peak_live_units, "{stats:?}");
        assert!(
            stats.unit_slots < (stats.units_injected / 2) as usize,
            "unit slab grew with total units: {stats:?}"
        );
        assert_eq!(stats.live_units, sim.queued_units());
    }

    #[test]
    fn queue_depth_sampling_is_off_by_default_and_per_channel_when_on() {
        let t = gen::line(3, xrp(10));
        let txns = vec![txn(0, 0, 2, xrp(9))];
        let mut cfg = qconfig(QueueConfig {
            max_queue_delay: SimDuration::from_secs(3_600),
            marking_delay: SimDuration::from_secs(3_000),
            ..QueueConfig::default()
        });
        cfg.horizon = SimDuration::from_secs(3);
        cfg.deadline = None;
        let (r, _) = run_queue_sim(gen::line(3, xrp(10)), txns.clone(), cfg.clone());
        assert!(
            r.queue_depth_series().is_empty(),
            "sampling must cost nothing when off"
        );
        cfg.obs.sampler.queue_depths = true;
        let (r, sim) = run_queue_sim(t, txns, cfg);
        assert!(!r.queue_depth_series().is_empty());
        for sample in r.queue_depth_series() {
            assert_eq!(sample.len(), sim.topology().channel_count());
        }
        // The stuck remainder sits in channel 1's queue at the horizon.
        let last = r
            .queue_depth_series()
            .last()
            .expect("queue-depth series is non-empty");
        assert_eq!(last.iter().sum::<u32>() as usize, sim.queued_units());
    }

    #[test]
    fn drop_reasons_partition_the_drop_counter() {
        // Timeouts: the forward direction never refills, so queued units
        // hit max_queue_delay; the payment then expires at its deadline
        // with the remainder undelivered.
        let t = gen::line(2, xrp(10));
        let txns = vec![txn(0, 0, 1, xrp(9)), txn(100, 0, 1, xrp(9))];
        let mut cfg = qconfig(QueueConfig {
            max_queue_delay: SimDuration::from_secs(1),
            marking_delay: SimDuration::from_millis(500),
            max_queue_units: 4,
            ..QueueConfig::default()
        });
        cfg.deadline = Some(SimDuration::from_secs(3));
        let (r, _) = run_queue_sim(t, txns, cfg);
        assert!(r.units_dropped > 0, "scenario must produce drops");
        assert_eq!(
            r.drops_by_reason.total(),
            r.units_dropped,
            "every dropped unit must carry exactly one reason: {:?}",
            r.drops_by_reason
        );
        assert!(
            r.drops_by_reason.queue_timeout > 0 || r.drops_by_reason.queue_overflow > 0,
            "stuck queue must time out or overflow: {:?}",
            r.drops_by_reason
        );
        assert_eq!(r.drops_by_reason.channel_closed, 0, "no churn here");
    }

    #[test]
    fn trace_capture_records_the_unit_lifecycle() {
        let t = gen::line(3, xrp(10));
        let txns = vec![txn(0, 0, 2, xrp(3))];
        let mut cfg = qconfig(QueueConfig::default());
        cfg.obs.trace = true;
        cfg.obs.profile = true;
        let mut sim = Simulation::new(t, Workload { txns }, Box::new(Direct), cfg)
            .expect("test topology and config are valid");
        let r = sim.run();
        assert_eq!(r.completed_payments, 1);
        assert!(r.profile.enabled);
        assert!(r.profile.total_ns() > 0);
        let trace = sim.take_trace().expect("tracing was enabled");
        let jsonl = trace.to_jsonl();
        for ev in [
            "arrival", "route", "inject", "forward", "deliver", "ack", "complete", "path",
        ] {
            assert!(
                jsonl.contains(&format!("\"ev\":\"{ev}\"")),
                "missing {ev} in:\n{jsonl}"
            );
        }
        // Exactly one arrival and one completion for the single payment.
        assert_eq!(jsonl.matches("\"ev\":\"arrival\"").count(), 1);
        assert_eq!(jsonl.matches("\"ev\":\"complete\"").count(), 1);
        // Second take returns nothing (the sink moved out).
        assert!(sim.take_trace().is_none());
    }
}

#[cfg(test)]
mod churn_tests {
    use super::*;
    use crate::config::QueueConfig;
    use crate::workload::{TxnSpec, Workload};
    use spider_topology::gen;
    use spider_types::SimDuration;

    struct Direct;
    impl Router for Direct {
        fn name(&self) -> &'static str {
            "direct"
        }
        fn route(
            &mut self,
            req: &RouteRequest,
            view: &NetworkView<'_>,
        ) -> Vec<crate::router::RouteProposal> {
            match view.topo.shortest_path(req.src, req.dst) {
                Some(path) => vec![crate::router::RouteProposal {
                    path: view.intern(&path),
                    amount: req.remaining,
                }],
                None => Vec::new(),
            }
        }
    }

    /// `(closed, opened)` channel lists of one recorded notification.
    type RecordedUpdate = (Vec<ChannelId>, Vec<ChannelId>);

    /// Records topology-change notifications for assertions.
    struct ChangeRecorder {
        updates: std::rc::Rc<std::cell::RefCell<Vec<RecordedUpdate>>>,
    }
    impl Router for ChangeRecorder {
        fn name(&self) -> &'static str {
            "change-recorder"
        }
        fn route(
            &mut self,
            req: &RouteRequest,
            view: &NetworkView<'_>,
        ) -> Vec<crate::router::RouteProposal> {
            match view.topo.shortest_path(req.src, req.dst) {
                Some(path) => vec![crate::router::RouteProposal {
                    path: view.intern(&path),
                    amount: req.remaining,
                }],
                None => Vec::new(),
            }
        }
        fn on_topology_change(&mut self, update: &TopologyUpdate, _view: &NetworkView<'_>) {
            self.updates
                .borrow_mut()
                .push((update.closed.clone(), update.opened.clone()));
        }
    }

    fn xrp(x: u64) -> Amount {
        Amount::from_xrp(x)
    }

    fn txn(t_ms: u64, src: u32, dst: u32, amount: Amount) -> TxnSpec {
        TxnSpec {
            time: SimTime::from_micros(t_ms * 1000),
            src: NodeId(src),
            dst: NodeId(dst),
            amount,
        }
    }

    fn close_at(t_ms: u64, c: u32) -> TopologyEvent {
        TopologyEvent {
            at: SimTime::from_micros(t_ms * 1000),
            change: TopologyChange::ChannelClose {
                channel: ChannelId(c),
            },
        }
    }

    fn open_at(t_ms: u64, c: u32) -> TopologyEvent {
        TopologyEvent {
            at: SimTime::from_micros(t_ms * 1000),
            change: TopologyChange::ChannelOpen {
                channel: ChannelId(c),
            },
        }
    }

    #[test]
    fn lockstep_close_fails_back_inflight_and_blocks_traffic() {
        // Payment locks at t=100ms; the only channel closes at t=300ms,
        // before the 500ms settle: the unit must refund, the payment
        // expire at its deadline, and conservation hold throughout.
        let t = gen::line(2, xrp(10));
        let mut cfg = SimConfig {
            horizon: SimDuration::from_secs(10),
            deadline: Some(SimDuration::from_secs(2)),
            ..SimConfig::default()
        };
        cfg.mtu = xrp(5);
        let mut sim = Simulation::new(
            t,
            Workload {
                txns: vec![txn(100, 0, 1, xrp(3))],
            },
            Box::new(Direct),
            cfg,
        )
        .expect("test topology and config are valid");
        sim.set_topology_events(vec![close_at(300, 0)]);
        let r = sim.run();
        sim.check_conservation();
        assert_eq!(r.completed_payments, 0);
        assert_eq!(r.delivered_volume, Amount::ZERO);
        assert_eq!(r.topology_events, 1);
        assert_eq!(r.churn_channels_closed, 1);
        assert_eq!(r.units_dropped_churn, 1);
        assert_eq!(r.drops_by_reason.channel_closed, 1);
        assert_eq!(r.drops_by_reason.total(), r.units_dropped);
        assert_eq!(r.payments_failed_churn, 1);
        assert!(sim.channel_states()[0].is_closed());
        assert_eq!(
            sim.channel_states()[0].inflight(Direction::Forward),
            Amount::ZERO,
            "failback refunded the lock"
        );
    }

    #[test]
    fn reopen_restores_service_and_flap_is_counted() {
        // Close 400ms..1s; a payment arriving at 500ms retries from the
        // pending queue and completes after the reopen.
        let t = gen::line(2, xrp(10));
        let cfg = SimConfig {
            horizon: SimDuration::from_secs(10),
            deadline: Some(SimDuration::from_secs(5)),
            ..SimConfig::default()
        };
        let mut sim = Simulation::new(
            t,
            Workload {
                txns: vec![txn(500, 0, 1, xrp(2))],
            },
            Box::new(Direct),
            cfg,
        )
        .expect("test topology and config are valid");
        sim.set_topology_events(vec![close_at(400, 0), open_at(1_000, 0)]);
        let r = sim.run();
        sim.check_conservation();
        assert_eq!(r.completed_payments, 1, "service resumes after reopen");
        assert!(r.retries > 0, "the closed window forces retries");
        assert_eq!(r.topology_events, 2);
        assert_eq!(r.churn_channels_opened, 1);
        assert!(!sim.channel_states()[0].is_closed());
    }

    #[test]
    fn queueing_close_drops_queued_and_traveling_units() {
        // Wide first hop, narrow second: units queue at hop 1 holding
        // hop-0 locks; closing channel 1 mid-run must fail them all back.
        let mut b = Topology::builder(3);
        b.channel(NodeId(0), NodeId(1), xrp(20))
            .expect("channel endpoints are distinct known nodes");
        b.channel(NodeId(1), NodeId(2), xrp(10))
            .expect("channel endpoints are distinct known nodes");
        let t = b.build();
        let cfg = SimConfig {
            horizon: SimDuration::from_secs(5),
            mtu: xrp(1),
            deadline: None,
            queueing: crate::config::QueueingMode::PerChannelFifo(QueueConfig {
                max_queue_delay: SimDuration::from_secs(3_600),
                marking_delay: SimDuration::from_secs(3_000),
                ..QueueConfig::default()
            }),
            ..SimConfig::default()
        };
        let mut sim = Simulation::new(
            t,
            Workload {
                txns: vec![txn(0, 0, 2, xrp(8))],
            },
            Box::new(Direct),
            cfg,
        )
        .expect("test topology and config are valid");
        sim.set_topology_events(vec![close_at(700, 1)]);
        let r = sim.run();
        sim.check_conservation();
        assert_eq!(r.delivered_volume, xrp(5), "only pre-close units settle");
        assert!(r.units_dropped_churn > 0, "queued units failed back");
        assert_eq!(sim.queued_units(), 0, "the closed channel's queue drained");
        for c in sim.channel_states() {
            assert_eq!(c.inflight(Direction::Forward), Amount::ZERO);
            assert_eq!(c.inflight(Direction::Backward), Amount::ZERO);
        }
        // Reason accounting under churn: close-drops carry ChannelClosed
        // and the per-reason counts still partition the total.
        assert_eq!(r.drops_by_reason.total(), r.units_dropped);
        assert_eq!(
            r.drops_by_reason.channel_closed, r.units_dropped_churn,
            "churn drops all carry the ChannelClosed reason"
        );
    }

    #[test]
    fn resize_event_grows_capacity_midrun() {
        let t = gen::line(2, xrp(10));
        let cfg = SimConfig {
            horizon: SimDuration::from_secs(10),
            deadline: Some(SimDuration::from_secs(6)),
            ..SimConfig::default()
        };
        // 8 XRP wants to cross a 5-XRP side; the resize to 30 XRP at t=1s
        // deposits enough for the remainder to complete on retry.
        let mut sim = Simulation::new(
            t,
            Workload {
                txns: vec![txn(0, 0, 1, xrp(8))],
            },
            Box::new(Direct),
            cfg,
        )
        .expect("test topology and config are valid");
        sim.set_topology_events(vec![TopologyEvent {
            at: SimTime::from_secs(1),
            change: TopologyChange::ChannelResize {
                channel: ChannelId(0),
                new_capacity: xrp(30),
            },
        }]);
        let r = sim.run();
        sim.check_conservation();
        assert_eq!(r.completed_payments, 1);
        assert_eq!(r.churn_channels_resized, 1);
        assert_eq!(sim.channel_states()[0].capacity(), xrp(30));
    }

    #[test]
    fn node_leave_closes_all_incident_channels_and_join_reopens() {
        // Line 0-1-2: node 1 leaving severs everything.
        let t = gen::line(3, xrp(10));
        let updates = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        let router = ChangeRecorder {
            updates: std::rc::Rc::clone(&updates),
        };
        let cfg = SimConfig {
            horizon: SimDuration::from_secs(8),
            deadline: Some(SimDuration::from_secs(6)),
            ..SimConfig::default()
        };
        let mut sim = Simulation::new(
            t,
            Workload {
                txns: vec![txn(1_500, 0, 2, xrp(2))],
            },
            Box::new(router),
            cfg,
        )
        .expect("test topology and config are valid");
        sim.set_topology_events(vec![
            TopologyEvent {
                at: SimTime::from_secs(1),
                change: TopologyChange::NodeLeave { node: NodeId(1) },
            },
            TopologyEvent {
                at: SimTime::from_secs(3),
                change: TopologyChange::NodeJoin { node: NodeId(1) },
            },
        ]);
        let r = sim.run();
        sim.check_conservation();
        assert_eq!(r.completed_payments, 1, "completes after the rejoin");
        assert_eq!(r.churn_channels_closed, 2);
        assert_eq!(r.churn_channels_opened, 2);
        let got = updates.borrow();
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].0.len(), 2, "leave closed both incident channels");
        assert_eq!(got[1].1.len(), 2, "join reopened both");
    }

    #[test]
    fn initial_closes_apply_before_prewarm_without_counting_as_events() {
        // Channel closed at t=0 (a mid-run spawn): traffic fails until the
        // open event, and the t=0 slice is not a mid-run topology event.
        let t = gen::line(2, xrp(10));
        let cfg = SimConfig {
            horizon: SimDuration::from_secs(10),
            deadline: Some(SimDuration::from_secs(4)),
            ..SimConfig::default()
        };
        let mut sim = Simulation::new(
            t,
            Workload {
                txns: vec![txn(100, 0, 1, xrp(2))],
            },
            Box::new(Direct),
            cfg,
        )
        .expect("test topology and config are valid");
        sim.set_topology_events(vec![close_at(0, 0), open_at(2_000, 0)]);
        let r = sim.run();
        sim.check_conservation();
        assert_eq!(r.completed_payments, 1);
        assert_eq!(r.topology_events, 1, "only the open is a mid-run event");
        assert_eq!(r.churn_channels_closed, 1);
        assert_eq!(r.churn_channels_opened, 1);
    }

    #[test]
    fn churn_close_cost_is_indexed_not_slab_scan() {
        // Thousands of pending settles spread across the ISP graph, three
        // mid-run closes: handling them must examine only the closed
        // channels' index entries (plus amortized compaction), far below
        // the old cost of walking the whole event slab once per close.
        let t = gen::isp_topology(xrp(100_000));
        let mut rng = spider_types::DetRng::new(23);
        let w = Workload::generate(
            32,
            &crate::workload::WorkloadConfig::small(4_000, 2_000.0),
            &mut rng,
        );
        let mut cfg = SimConfig {
            horizon: SimDuration::from_secs(10),
            ..SimConfig::default()
        };
        cfg.mtu = xrp(1); // 10 units per payment → many pending settles
        let mut sim = Simulation::new(t, w, Box::new(Direct), cfg)
            .expect("test topology and config are valid");
        sim.set_topology_events(vec![close_at(500, 3), close_at(700, 11), close_at(900, 27)]);
        let r = sim.run();
        sim.check_conservation();
        let stats = sim.slab_stats();
        assert_eq!(r.topology_events, 3);
        assert!(
            stats.events_scheduled > 20_000,
            "needs a busy calendar: {stats:?}"
        );
        // What the pre-index engine paid: one full event-slab walk per
        // close. The indexed cost must be well below it — and nowhere
        // near the O(total events scheduled) the pre-recycling engine
        // paid with every arrival pre-seeded.
        let slab_scan_cost = 3 * stats.event_slots as u64;
        assert!(
            stats.churn_scan_steps * 4 < slab_scan_cost,
            "indexed close cost {} not ≪ slab scan cost {slab_scan_cost}: {stats:?}",
            stats.churn_scan_steps,
        );
        assert!(
            stats.churn_scan_steps < stats.events_scheduled / 8,
            "close cost grew with total events: {stats:?}"
        );
    }

    #[test]
    fn churn_runs_are_deterministic() {
        let mut rng = spider_types::DetRng::new(17);
        let w = Workload::generate(
            32,
            &crate::workload::WorkloadConfig::small(1_500, 400.0),
            &mut rng,
        );
        let events = vec![
            close_at(500, 3),
            close_at(900, 20),
            open_at(1_400, 3),
            TopologyEvent {
                at: SimTime::from_secs(2),
                change: TopologyChange::NodeLeave { node: NodeId(5) },
            },
            open_at(2_600, 20),
            TopologyEvent {
                at: SimTime::from_secs(3),
                change: TopologyChange::NodeJoin { node: NodeId(5) },
            },
        ];
        let run = |w: Workload| {
            let mut cfg = SimConfig {
                horizon: SimDuration::from_secs(6),
                ..SimConfig::default()
            };
            cfg.mtu = xrp(5);
            let mut sim = Simulation::new(gen::isp_topology(xrp(400)), w, Box::new(Direct), cfg)
                .expect("test topology and config are valid");
            sim.set_topology_events(events.clone());
            let r = sim.run();
            sim.check_conservation();
            r
        };
        let r1 = run(w.clone());
        let r2 = run(w);
        assert_eq!(r1.completed_payments, r2.completed_payments);
        assert_eq!(r1.delivered_volume, r2.delivered_volume);
        assert_eq!(r1.units_dropped_churn, r2.units_dropped_churn);
        assert_eq!(r1.payments_failed_churn, r2.payments_failed_churn);
        assert_eq!(r1.topology_event_times_s, r2.topology_event_times_s);
        assert!(r1.units_dropped_churn > 0 || r1.retries > 0);
    }
}

#[cfg(test)]
mod rebalancing_tests {
    use super::*;
    use crate::config::RebalancingConfig;
    use crate::workload::{TxnSpec, Workload};
    use spider_topology::gen;

    struct Direct;
    impl Router for Direct {
        fn name(&self) -> &'static str {
            "direct"
        }
        fn route(
            &mut self,
            req: &RouteRequest,
            view: &NetworkView<'_>,
        ) -> Vec<crate::router::RouteProposal> {
            match view.topo.shortest_path(req.src, req.dst) {
                Some(path) => vec![crate::router::RouteProposal {
                    path: view.intern(&path),
                    amount: req.remaining,
                }],
                None => Vec::new(),
            }
        }
    }

    fn xrp(x: u64) -> Amount {
        Amount::from_xrp(x)
    }

    /// One-way traffic that exceeds the channel's one-side funds: without
    /// rebalancing it stalls at 5 XRP; with rebalancing the chain refills
    /// the sender side and everything ships.
    fn one_way_workload() -> Workload {
        Workload {
            txns: (0..10)
                .map(|i| TxnSpec {
                    time: SimTime::from_secs(1 + 4 * i),
                    src: NodeId(0),
                    dst: NodeId(1),
                    amount: xrp(1),
                })
                .collect(),
        }
    }

    fn config(rebalancing: Option<RebalancingConfig>) -> SimConfig {
        SimConfig {
            horizon: spider_types::SimDuration::from_secs(60),
            deadline: Some(spider_types::SimDuration::from_secs(30)),
            rebalancing,
            ..SimConfig::default()
        }
    }

    #[test]
    fn without_rebalancing_dag_traffic_stalls() {
        let t = gen::line(2, xrp(10)); // 5 XRP per side
        let mut sim = Simulation::new(t, one_way_workload(), Box::new(Direct), config(None))
            .expect("test topology and config are valid");
        let r = sim.run();
        sim.check_conservation();
        assert_eq!(r.delivered_volume, xrp(5));
        assert_eq!(r.rebalance_ops, 0);
        assert_eq!(r.onchain_deposited, Amount::ZERO);
    }

    #[test]
    fn rebalancing_lifts_dag_traffic() {
        let t = gen::line(2, xrp(10));
        let rb = RebalancingConfig {
            check_interval: spider_types::SimDuration::from_millis(500),
            trigger_fraction: 0.2,
            target_fraction: 0.5,
            confirmation_delay: spider_types::SimDuration::from_secs(1),
        };
        let mut sim = Simulation::new(t, one_way_workload(), Box::new(Direct), config(Some(rb)))
            .expect("test topology and config are valid");
        let r = sim.run();
        sim.check_conservation();
        assert_eq!(r.delivered_volume, xrp(10), "all one-way traffic ships");
        assert!(r.rebalance_ops > 0);
        assert!(
            r.onchain_deposited >= xrp(4),
            "deposited {}",
            r.onchain_deposited
        );
    }

    #[test]
    fn deposits_grow_capacity_consistently() {
        let t = gen::line(2, xrp(10));
        let rb = RebalancingConfig::default();
        let mut sim = Simulation::new(
            t,
            one_way_workload(),
            Box::new(Direct),
            config(Some(RebalancingConfig {
                confirmation_delay: spider_types::SimDuration::from_secs(1),
                trigger_fraction: 0.3,
                ..rb
            })),
        )
        .expect("test topology and config are valid");
        let r = sim.run();
        sim.check_conservation();
        let ch = &sim.channel_states()[0];
        assert_eq!(ch.capacity(), xrp(10) + r.onchain_deposited);
    }

    #[test]
    fn no_duplicate_inflight_deposits() {
        // Trigger instantly but confirm slowly: only one deposit per
        // direction may be pending at a time.
        let t = gen::line(2, xrp(10));
        let rb = RebalancingConfig {
            check_interval: spider_types::SimDuration::from_millis(100),
            trigger_fraction: 0.45,
            target_fraction: 0.5,
            confirmation_delay: spider_types::SimDuration::from_secs(50),
        };
        let mut sim = Simulation::new(t, one_way_workload(), Box::new(Direct), config(Some(rb)))
            .expect("test topology and config are valid");
        let r = sim.run();
        sim.check_conservation();
        // At most one settle per direction fits in the horizon.
        assert!(r.rebalance_ops <= 2, "ops {}", r.rebalance_ops);
    }

    #[test]
    fn invalid_rebalancing_config_rejected() {
        let cfg = SimConfig {
            rebalancing: Some(RebalancingConfig {
                trigger_fraction: 0.9,
                target_fraction: 0.5,
                ..RebalancingConfig::default()
            }),
            ..SimConfig::default()
        };
        assert!(cfg.validate().is_err());
    }
}
