//! A reference lockstep engine: the executable specification the
//! simulator's lockstep mode is differential-tested against
//! (`tests/tests/reference_lockstep.rs`).
//!
//! It is written from the model, not from the engine: one
//! `BinaryHeap<(time, seq)>` and plain `Vec`s; every unit locks, settles
//! or refunds on its own; nothing is batched, skipped or indexed. It
//! shares with the simulator only `ChannelState`'s arithmetic, the
//! router-facing API (`Router`, `NetworkView`, `PathTable`) and the value
//! types — so a batching or elision bug in the engine shows up as a
//! difference, not as agreement.
//!
//! ## The specification
//!
//! * **Time and order.** Events run in `(time, seq)` order up to the
//!   horizon. Seqs count up in scheduling order, which starts with the
//!   fault plan's crash/recover toggles (plan order), then every arrival
//!   (workload order), then the first poll at [`POLL_INTERVAL`]; whatever
//!   a handler schedules comes after.
//! * **Arrival.** The payment's deadline is its arrival plus the
//!   configured deadline. It is routed at once (an *attempt*), and if the
//!   scheme is not all-or-nothing and something is left unassigned, it
//!   joins the retry queue (once; the queue keeps join order).
//! * **Attempt.** The router sees the unassigned remainder and the
//!   attempt's ordinal. Of its proposals, the first
//!   [`MAX_PROPOSALS_PER_POLL`] are traced and tried in order, until the
//!   remainder is assigned; one whose path is empty or does not start at
//!   the sender is skipped. A proposal's value, capped at what is left,
//!   is cut into MTU chunks (full MTUs, then the rest), and each chunk
//!   locks hop by hop, rolling back at the first hop that cannot carry
//!   it. Each lock is counted, traced and reported to the router as it
//!   happens, and a locked chunk settles one confirmation delay later.
//!   An all-or-nothing scheme stops at its first failed chunk; if it
//!   stopped, or left anything unassigned, every chunk it locked is
//!   refunded (traced, not a drop, in lock order) and the payment ends.
//! * **Poll.** Every [`POLL_INTERVAL`] up to the horizon: first a
//!   telemetry sample, if one is due; then, in queue order, a payment past
//!   its deadline with something unassigned ends (traced), and a payment
//!   that is no longer active leaves the queue; the rest are attempted in
//!   scheduling-policy order, ties by payment id. Every queued payment is
//!   re-offered at every poll.
//! * **Settle.** A chunk whose payment ended or whose deadline passed is
//!   refunded (a drop, `expired`, only when the deadline passed). Else,
//!   under a fault plan, one verdict is drawn along the path: a crashed
//!   sending node fails it without a draw, then each hop draws message
//!   loss, then one draw for a stuck unit and one for a lost ack. A
//!   faulted chunk is refunded as a drop, reported to the router as a
//!   fault, and its payment re-queued. Otherwise it settles at every hop
//!   and is delivered; the payment completes when all of it is.

use crate::ledger_audit::count;
use spider_faults::{FaultChange, FaultPlan};
use spider_obs::sampler::SAMPLE_CADENCE;
use spider_obs::trace::TraceEventKind;
use spider_obs::{Sampler, NUM_SERIES};
use spider_sim::{
    ChannelState, NetworkView, PathTable, QueueingMode, RouteRequest, Router, SchedulingPolicy,
    SimConfig, SimReport, TxnSpec, UnitOutcome,
};
use spider_topology::Topology;
use spider_types::{Amount, DetRng, DropReason, PathId, PaymentId, SimDuration, SimTime};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// The router's view of a [`Spec`]'s network.
macro_rules! view {
    ($s:expr) => {
        NetworkView {
            topo: $s.topo,
            channels: &$s.channels,
            paths: &$s.paths,
            now: $s.now,
        }
    };
}

/// How often the retry queue is polled.
pub const POLL_INTERVAL: SimDuration = SimDuration::from_millis(100);

/// Proposals tried per attempt.
pub const MAX_PROPOSALS_PER_POLL: usize = 64;

/// What a run of the specification produces: its report and its trace,
/// `(t_us, record)` in record order.
pub struct Outcome {
    /// The run's report.
    pub report: SimReport,
    /// The run's trace.
    pub trace: Vec<(u64, TraceEventKind)>,
}

enum Event {
    Fault(usize),
    Arrival(usize),
    Poll,
    Settle {
        pid: usize,
        path: PathId,
        unit: Amount,
    },
}

/// A payment's state; its id is its index in the workload.
struct Payment {
    total: Amount,
    delivered: Amount,
    inflight: Amount,
    deadline: SimTime,
    attempts: u32,
    completed: bool,
    expired: bool,
}

impl Payment {
    fn unassigned(&self) -> Amount {
        self.total - self.delivered - self.inflight
    }
    fn active(&self) -> bool {
        !self.completed && !self.expired && !self.unassigned().is_zero()
    }
}

struct Spec<'a> {
    cfg: &'a SimConfig,
    topo: &'a Topology,
    txns: &'a [TxnSpec],
    router: &'a mut dyn Router,
    plan: Option<&'a FaultPlan>,
    /// The fault plan's runtime draws.
    rng: DetRng,
    crashed: Vec<bool>,
    channels: Vec<ChannelState>,
    paths: PathTable,
    now: SimTime,
    /// Every event ever scheduled, by seq; `None` once run or canceled.
    events: Vec<Option<Event>>,
    heap: BinaryHeap<Reverse<(SimTime, usize)>>,
    payments: Vec<Payment>,
    /// The retry queue, in join order.
    queue: Vec<usize>,
    report: SimReport,
    trace: Vec<(u64, TraceEventKind)>,
    sampler: Sampler,
    next_sample: SimTime,
}

/// Runs the specification: `txns` (sorted by time) over `topo`, routed by
/// `router`, under `cfg` (lockstep, without rebalancing or admission) and
/// an optional fault plan.
pub fn run(
    topo: &Topology,
    txns: &[TxnSpec],
    router: &mut dyn Router,
    cfg: &SimConfig,
    plan: Option<&FaultPlan>,
) -> Outcome {
    assert!(matches!(cfg.queueing, QueueingMode::Lockstep));
    assert!(cfg.rebalancing.is_none() && cfg.admission.is_none());
    let mut s = Spec {
        cfg,
        topo,
        txns,
        router,
        plan,
        rng: DetRng::new(plan.map_or(0, |p| p.runtime_seed)),
        crashed: vec![false; topo.node_count()],
        channels: topo
            .channels()
            .map(|(_, c)| ChannelState::split_equally(c.capacity))
            .collect(),
        paths: PathTable::new(),
        now: SimTime::ZERO,
        events: Vec::new(),
        heap: BinaryHeap::new(),
        payments: Vec::new(),
        queue: Vec::new(),
        report: SimReport::default(),
        trace: Vec::new(),
        sampler: Sampler::new(cfg.obs.sampler.clone()),
        next_sample: SimTime::ZERO,
    };
    let horizon = SimTime::ZERO + cfg.horizon;
    for (i, e) in plan.map_or(&[][..], |p| &p.events).iter().enumerate() {
        s.schedule(e.at, Event::Fault(i));
    }
    let due = || txns.iter().filter(|t| t.time <= horizon);
    for (i, t) in due().enumerate() {
        s.schedule(t.time, Event::Arrival(i));
    }
    s.schedule(SimTime::ZERO + POLL_INTERVAL, Event::Poll);
    s.router.configure(false);
    let view = view!(s);
    s.router.initialize(&view);
    if s.router.wants_prewarm() {
        let mut pairs = Vec::new();
        for t in due() {
            if !pairs.contains(&(t.src, t.dst)) {
                pairs.push((t.src, t.dst));
            }
        }
        s.router.prewarm(&pairs, &view);
    }
    while let Some(Reverse((at, seq))) = s.heap.pop() {
        if at > horizon {
            break;
        }
        s.now = at;
        match s.events[seq].take() {
            Some(Event::Fault(i)) => s.on_fault(i),
            Some(Event::Arrival(i)) => s.on_arrival(i),
            Some(Event::Poll) => s.on_poll(horizon),
            Some(Event::Settle { pid, path, unit }) => s.on_settle(pid, path, unit),
            None => {}
        }
    }
    let obs = s.router.observability();
    let r = &mut s.report;
    for w in obs.windows_xrp {
        r.window_hist.record(w);
    }
    r.router_counters = obs.counters;
    r.units_dropped_fault = r.drops_by_reason.fault_total();
    r.scheme = s.router.name().to_string();
    r.horizon = cfg.horizon;
    r.samples = s.sampler.finish();
    Outcome {
        report: s.report,
        trace: s.trace,
    }
}

impl Spec<'_> {
    fn schedule(&mut self, at: SimTime, event: Event) -> usize {
        let seq = self.events.len();
        self.events.push(Some(event));
        self.heap.push(Reverse((at, seq)));
        seq
    }

    fn record(&mut self, kind: TraceEventKind) {
        self.trace.push((self.now.micros(), kind));
    }

    fn tell(&mut self, outcome: UnitOutcome) {
        self.router.on_unit_outcome(&outcome, &view!(self));
    }

    fn on_fault(&mut self, i: usize) {
        let plan = self.plan.expect("a fault event comes from a plan");
        let (node, crashed) = match plan.events[i].change {
            FaultChange::NodeCrash { node } => (node, true),
            FaultChange::NodeRecover { node } => (node, false),
        };
        self.crashed[node.index()] = crashed;
        self.report.fault_events += 1;
        self.record(TraceEventKind::FaultApplied { node, crashed });
    }

    fn on_arrival(&mut self, i: usize) {
        let t = self.txns[i];
        let pid = self.payments.len();
        self.payments.push(Payment {
            total: t.amount,
            delivered: Amount::ZERO,
            inflight: Amount::ZERO,
            deadline: self
                .cfg
                .deadline
                .map_or(SimTime::FAR_FUTURE, |d| t.time + d),
            attempts: 0,
            completed: false,
            expired: false,
        });
        self.report.attempted_payments += 1;
        self.report.attempted_volume += t.amount;
        self.record(TraceEventKind::PaymentArrival {
            payment: PaymentId(pid as u64),
            src: t.src,
            dst: t.dst,
            amount: t.amount,
        });
        self.attempt(pid);
        self.requeue(pid);
    }

    fn requeue(&mut self, pid: usize) {
        if !self.router.atomic() && self.payments[pid].active() && !self.queue.contains(&pid) {
            self.queue.push(pid);
        }
    }

    fn attempt(&mut self, pid: usize) {
        let p = &self.payments[pid];
        if !p.active() {
            return;
        }
        let (payment, t) = (PaymentId(pid as u64), self.txns[pid]);
        let (src, unassigned) = (t.src, p.unassigned());
        let req = RouteRequest {
            payment,
            src,
            dst: t.dst,
            remaining: unassigned,
            total: p.total,
            mtu: self.cfg.mtu,
            attempt: p.attempts,
        };
        self.payments[pid].attempts += 1;
        let mut proposals = self.router.route(&req, &view!(self));
        proposals.truncate(MAX_PROPOSALS_PER_POLL);
        for prop in &proposals {
            self.record(TraceEventKind::RouteProposal {
                payment,
                attempt: req.attempt,
                path: prop.path,
                amount: prop.amount,
            });
        }
        let atomic = self.router.atomic();
        let (mut budget, mut locked, mut aborted) = (unassigned, Vec::new(), false);
        'proposals: for prop in proposals {
            if budget.is_zero() {
                break;
            }
            let entry = self.paths.entry(prop.path);
            if entry.hop_count() == 0 || entry.source() != src {
                continue;
            }
            for unit in prop.amount.min(budget).mtu_chunks(self.cfg.mtu) {
                if self.lock(pid, prop.path, unit) {
                    budget -= unit;
                    self.payments[pid].inflight += unit;
                    let at = self.now + self.cfg.confirmation_delay;
                    let path = prop.path;
                    let seq = self.schedule(at, Event::Settle { pid, path, unit });
                    locked.push((seq, path, unit));
                } else if atomic {
                    aborted = true;
                    break 'proposals;
                }
            }
        }
        if atomic && (aborted || !budget.is_zero()) {
            for (seq, path, unit) in locked {
                self.events[seq] = None;
                self.refund(pid, path, unit, None);
            }
            self.payments[pid].expired = true;
        }
    }

    /// Locks one unit along `path`, rolling back on the first hop that
    /// cannot carry it; counts, traces and reports the outcome.
    fn lock(&mut self, pid: usize, path: PathId, unit: Amount) -> bool {
        let hops = self.paths.entry(path).hops().to_vec();
        let mut done = 0;
        while done < hops.len() {
            let (c, dir) = hops[done].parts();
            if !self.channels[c.index()].lock(dir, unit) {
                break;
            }
            done += 1;
        }
        let ok = done == hops.len();
        if !ok {
            for hop in &hops[..done] {
                let (c, dir) = hop.parts();
                self.channels[c.index()].refund(dir, unit);
            }
        }
        let r = &mut self.report;
        if ok {
            r.units_locked += 1;
            r.unit_hops_sum += hops.len() as u64;
            r.path_length_hist.record(hops.len() as f64);
        } else {
            r.units_failed += 1;
        }
        let payment = PaymentId(pid as u64);
        self.record(TraceEventKind::LockOutcome {
            payment,
            path,
            amount: unit,
            ok,
        });
        self.tell(UnitOutcome {
            payment,
            path,
            amount: unit,
            units: 1,
            locked: ok,
            fault: None,
        });
        ok
    }

    /// Returns a locked unit's funds on every hop; with a reason, a drop.
    fn refund(&mut self, pid: usize, path: PathId, unit: Amount, reason: Option<DropReason>) {
        for hop in self.paths.entry(path).hops() {
            let (c, dir) = hop.parts();
            self.channels[c.index()].refund(dir, unit);
        }
        self.payments[pid].inflight -= unit;
        if let Some(reason) = reason {
            self.report.units_dropped += 1;
            count(&mut self.report.drops_by_reason, reason);
        }
        self.record(TraceEventKind::UnitRefunded {
            payment: PaymentId(pid as u64),
            amount: unit,
            path,
            attempts: self.payments[pid].attempts,
            reason,
        });
    }

    fn on_poll(&mut self, horizon: SimTime) {
        if self.now >= self.next_sample {
            self.sample();
        }
        let mut order = Vec::new();
        for pid in std::mem::take(&mut self.queue) {
            let p = &mut self.payments[pid];
            if !p.completed && self.now > p.deadline && !p.unassigned().is_zero() {
                p.expired = true;
                let remaining = p.unassigned();
                self.record(TraceEventKind::PaymentExpired {
                    payment: PaymentId(pid as u64),
                    remaining,
                    rejected: false,
                });
            }
            let p = &self.payments[pid];
            if p.active() {
                let (left, arrival) = (p.unassigned().drops(), self.txns[pid].time.micros());
                order.push((
                    match self.cfg.scheduling {
                        SchedulingPolicy::Srpt => (left, arrival),
                        SchedulingPolicy::Fifo => (arrival, 0),
                        SchedulingPolicy::LargestRemaining => (u64::MAX - left, arrival),
                    },
                    pid,
                ));
                self.queue.push(pid);
            }
        }
        order.sort_unstable();
        for (_, pid) in order {
            self.report.retries += 1;
            self.attempt(pid);
        }
        let payments = &self.payments;
        self.queue.retain(|&pid| payments[pid].active());
        if self.now + POLL_INTERVAL <= horizon {
            self.schedule(self.now + POLL_INTERVAL, Event::Poll);
        }
    }

    /// One row of the lockstep telemetry: the mean channel imbalance and
    /// the router's window gauge (queues, prices and units in flight
    /// read zero; the live event count is an engine quantity, left at
    /// zero here).
    fn sample(&mut self) {
        let mut row = [0.0; NUM_SERIES];
        for ch in &self.channels {
            let cap = ch.capacity().drops().max(1) as f64;
            row[0] += ch.imbalance().drops().unsigned_abs() as f64 / cap;
        }
        row[0] /= self.channels.len().max(1) as f64;
        row[4] = self.router.window_gauge().unwrap_or(0.0);
        self.sampler.push_row(row);
        self.next_sample = self.now + SAMPLE_CADENCE;
    }

    fn on_settle(&mut self, pid: usize, path: PathId, unit: Amount) {
        let p = &self.payments[pid];
        let late = self.now > p.deadline;
        if p.expired || late {
            self.refund(pid, path, unit, late.then_some(DropReason::Expired));
            self.payments[pid].expired = true;
            return;
        }
        if let Some(reason) = self.fault_verdict(path) {
            self.report.faults_injected += 1;
            self.refund(pid, path, unit, Some(reason));
            self.tell(UnitOutcome {
                payment: PaymentId(pid as u64),
                path,
                amount: unit,
                units: 1,
                locked: true,
                fault: Some(reason),
            });
            self.requeue(pid);
            return;
        }
        for hop in self.paths.entry(path).hops() {
            let (c, dir) = hop.parts();
            self.channels[c.index()].settle(dir, unit);
        }
        let r = &mut self.report;
        r.delivered_volume += unit;
        let bucket = self.now.as_secs_f64() as usize;
        if r.throughput_series.len() <= bucket {
            r.throughput_series.resize(bucket + 1, 0.0);
        }
        r.throughput_series[bucket] += unit.as_xrp();
        let p = &mut self.payments[pid];
        p.inflight -= unit;
        p.delivered += unit;
        let payment = PaymentId(pid as u64);
        self.record(TraceEventKind::UnitSettled {
            payment,
            amount: unit,
            path,
        });
        let p = &mut self.payments[pid];
        if p.delivered == p.total {
            p.completed = true;
            let latency = self.now - self.txns[pid].time;
            let r = &mut self.report;
            r.completed_payments += 1;
            r.completed_volume += p.total;
            r.completion_times.push(latency.as_secs_f64());
            r.latency_hist.record(latency.as_secs_f64());
            self.record(TraceEventKind::PaymentCompleted {
                payment,
                latency_us: latency.micros(),
            });
        }
    }

    /// The fault plan's verdict on one settling unit (`None` without a
    /// plan).
    fn fault_verdict(&mut self, path: PathId) -> Option<DropReason> {
        let plan = self.plan?;
        let entry = self.paths.entry(path);
        for (hop, sender) in entry.hops().iter().zip(entry.nodes()) {
            if self.crashed[sender.index()] {
                return Some(DropReason::NodeCrashed);
            }
            if self.rng.chance(plan.message_loss[hop.channel().index()]) {
                return Some(DropReason::MessageLost);
            }
        }
        if self.rng.chance(plan.stuck_prob) {
            return Some(DropReason::HopTimeout);
        }
        self.rng
            .chance(plan.ack_loss_prob)
            .then_some(DropReason::MessageLost)
    }
}
