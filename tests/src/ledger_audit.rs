//! The independent ledger auditor: it reads a run's rendered JSONL trace
//! and the topology it ran on, and nothing else of the engine.
//!
//! It parses every line back into a [`TraceEventKind`], resolves each
//! `path` line's nodes to hops through the topology, seeds a
//! [`LedgerReplay`] with every channel's opening balances (the engine
//! splits each capacity equally, the odd drop forward) and replays the
//! stream. At every record it checks that the channels the record
//! touches still hold exactly their capacity (so no balance went below
//! zero), that nothing locks, settles or delivers across a closed
//! channel, that a close or reopen moves no funds, that a unit moves
//! hop by hop and ends once, that each lockstep settle or refund ends a
//! lock its payment holds on that path for that value, that `seq`
//! counts up by one and `t_us` never goes back; at every churn summary
//! record, that nothing in flight crosses a closed channel; and at the
//! horizon, that no lock went without a record for longer than its
//! state allows ([`max_silence`]). [`LedgerAudit::check`] asserts those
//! checks held and that every [`SimReport`] field in [`WITNESSED`] is
//! what the trace re-derives, floats bit for bit; [`audited_run`] adds
//! the engine's final funds and what its forensics and attribution
//! recorded, the attribution's integrals within the bounds the
//! [`crate::timeline`] of the replay gives. Every other field is in [`NOT_DERIVED`], with the reason the
//! ledger does not give it: the list is closed, and a new report field
//! must join one side (`tests/tests/ledger_audit.rs` fails on a field in
//! neither).
//!
//! A unit's value is delivered at its `settle` record (lockstep) or
//! `deliver` record (hop by hop): it counts toward the delivered volume
//! and, in XRP, toward the `throughput_series` bucket of the record's
//! whole second, added in record order as the engine adds it. Each
//! `ack` record is an acknowledged unit, and a marked one a marked unit.
//!
//! The perturbation counters come from the records each plan leaves:
//!
//! - churn: a `topology` record per mid-run event that changed something
//!   (`topology_events`, and its instant in `topology_event_times_s`),
//!   and a `channel` record per channel it closed, opened or resized,
//!   told apart by the closed flag the record leaves against the one the
//!   replay holds (`churn_channels_*`, which count the `t = 0` initial
//!   state too);
//! - a `channel_closed` drop is a unit churn failed back
//!   (`units_dropped_churn`), and a payment with one that never
//!   completes is one churn failed (`payments_failed_churn`);
//! - faults: a `fault` record per crash or recovery toggle
//!   (`fault_events`), and a drop with a fault reason per unit a fault
//!   failed (`units_dropped_fault`);
//! - rebalancing: a `deposit` record per confirmed on-chain deposit
//!   (`rebalance_ops`, and their value in `onchain_deposited`).
//!
//! A payment's latency runs from its `arrival` record to its `complete`
//! record: the two instants give `completion_times` and `latency_hist`
//! bit for bit (and the `latency_us` the `complete` record states must be
//! their difference).
//!
//! A unit queues from its `enqueue` record to the `forward` record that
//! takes it out of that queue. As the engine counts it, a wait of zero
//! (served the instant it queued) is no wait; each other wait adds its
//! seconds to `queue_delay_sum_s` and `queue_delay_hist` in record order,
//! and a unit's first such wait counts it in `units_queued`.
//!
//! A unit locks its whole path at a lockstep `lock` record with
//! `ok:true`, or at a hop-by-hop unit's `forward` record across its
//! path's last hop; its hop count is its `path` line's. The `attempt`
//! ordinals of the `route` records bound `retries` from below: a
//! payment's attempt `k` is its `k`-th from the retry poll (its first,
//! `0`, is made on arrival), so `retries` is at least the sum over
//! payments of the highest ordinal routed.

use crate::timeline::{self, Timeline};
use spider_core::{ExperimentConfig, RunOutput};
use spider_obs::trace::{parse_line, Line, TraceEvent, TraceEventKind};
use spider_obs::{DropRecord, Fact, FlightRecorder, LedgerReplay, HOTSPOT_K};
use spider_sim::{ChannelState, DropBreakdown, Histogram, QueueingMode, SimReport, Simulation};
use spider_topology::Topology;
use spider_types::{
    Amount, ChannelId, Direction, DropReason, Hop, NodeId, PathId, PaymentId, SimDuration, SimTime,
};
use std::collections::{BTreeMap, BTreeSet};

/// The [`SimReport`] fields [`LedgerAudit::check`] re-derives from the
/// trace and asserts equal.
pub const WITNESSED: &[&str] = &[
    "attempted_payments",
    "completed_payments",
    "attempted_volume",
    "delivered_volume",
    "completed_volume",
    "throughput_series",
    "units_locked",
    "unit_hops_sum",
    "path_length_hist",
    "units_acked",
    "units_marked",
    "units_dropped",
    "drops_by_reason",
    "units_dropped_fault",
    "units_queued",
    "queue_delay_sum_s",
    "queue_delay_hist",
    "completion_times",
    "latency_hist",
    "topology_events",
    "topology_event_times_s",
    "churn_channels_closed",
    "churn_channels_opened",
    "churn_channels_resized",
    "units_dropped_churn",
    "payments_failed_churn",
    "fault_events",
    "rebalance_ops",
    "onchain_deposited",
];

/// The [`SimReport`] fields the auditor does not re-derive, each with
/// the reason the ledger does not give it.
pub const NOT_DERIVED: &[(&str, &str)] = &[
    ("scheme", "the router's name is an input of the run"),
    ("horizon", "the horizon is an input of the run"),
    (
        "admission_deferred",
        "a deferred arrival leaves no record until it is admitted",
    ),
    (
        "units_failed",
        "the full-MTU units a lockstep batch lock counts as failed without \
         trying them, once one of their size has failed, and a hop-by-hop \
         unit rejected at its first hop before it is injected leave no record",
    ),
    (
        "retries",
        "an attempt whose router proposed nothing (no path, or a closed \
         window) leaves no record; `check` asserts the lower bound the \
         `route` records' attempt ordinals give",
    ),
    (
        "faults_injected",
        "a griefing hold ends in the same `hop_timeout` drop as an injected \
         stuck unit, and no record says which it was",
    ),
    (
        "window_hist",
        "the router's windows at the horizon are state no record carries",
    ),
    (
        "router_counters",
        "the router's own counters are state no record carries",
    ),
    (
        "samples",
        "the sampler reads engine and router state (windows, prices, the \
         calendar) at its own cadence, and no record carries it",
    ),
    (
        "profile",
        "wall-clock timings are not an outcome of the run",
    ),
    (
        "hotspots",
        "`audited_run` witnesses each row's drops, bottlenecks and queue \
         residency bit for bit, but not where the sampler's read falls \
         among the records stamped with its instant: that is the calendar's \
         order of same-instant events, and only the poll's own retries show \
         it had read. So the utilization, zero-liquidity and imbalance \
         integrals and the score are asserted within the bounds every such \
         place gives (`timeline::Timeline::hotspot_bounds`), which meet \
         wherever no record shares a sampler instant, and no channel left \
         out may outscore the rows",
    ),
];

/// The longest a unit's or lock's next record can be due after its
/// previous one in a run, by what it waits for.
#[derive(Debug, Clone, Copy)]
pub struct Silence {
    /// A lockstep lock: its settle or refund comes one settle delay on.
    pub lock: SimDuration,
    /// A unit in a queue: served, or dropped at the queue timeout.
    pub queued: SimDuration,
    /// A unit between hops: the hop delay with the worst jitter and
    /// spike, or the fault plan's hop timeout for a lost or stuck unit.
    pub moving: SimDuration,
    /// A unit that locked its whole path: the settle delay, the hop
    /// timeout for a lost ack or stuck unit, or the griefing hold.
    pub settling: SimDuration,
}

/// The [`Silence`] bounds of a run of `cfg`.
pub fn max_silence(cfg: &ExperimentConfig) -> Silence {
    let sim = cfg.effective_sim();
    let secs = SimDuration::from_secs_f64;
    let lock = sim.confirmation_delay;
    let (mut moving, mut settling, mut queued) = (SimDuration::ZERO, lock, SimDuration::ZERO);
    if let QueueingMode::PerChannelFifo(q) = &sim.queueing {
        moving = q.hop_delay;
        queued = q.max_queue_delay;
    }
    if let Some(f) = &cfg.faults {
        let jitter = f.jitter_range_ms.map_or(0.0, |[_, hi]| hi);
        moving = (moving + secs((jitter + f.spike_ms) / 1e3)).max(secs(f.hop_timeout_secs));
        settling = settling.max(secs(f.hop_timeout_secs));
    }
    if let Some(g) = cfg.overload.as_ref().and_then(|o| o.griefing.as_ref()) {
        settling = settling.max(secs(g.hold_secs));
    }
    Silence {
        lock,
        queued,
        moving,
        settling,
    }
}

/// Runs the traced `sim` the way `spider_core::execute` does, and
/// audits it: its rendered trace must pass [`LedgerAudit::check`] (with
/// `silence`, see [`max_silence`]), the replay must end holding the
/// engine's funds, and what the engine's forensics and attribution
/// recorded must be what the replay rebuilds ([`LedgerAudit::check_sinks`]).
/// Returns the artifacts and the rendered trace.
pub fn audited_run(name: &str, silence: Silence, mut sim: Simulation) -> (RunOutput, String) {
    let topo = sim.topology().clone();
    let report = sim.run();
    sim.check_conservation();
    let trace = sim.take_trace().expect("the run is traced");
    let jsonl = trace.clone().to_jsonl();
    let mut audit = LedgerAudit::replay(&jsonl, &topo);
    audit.check(name, &report, silence);
    audit.check_funds(name, sim.channel_states());
    let forensics = sim.take_forensics();
    audit.check_sinks(name, &report, forensics.as_ref());
    let out = RunOutput {
        report,
        trace: Some(trace),
        forensics,
        invariants: sim.take_invariant_report(),
    };
    (out, jsonl)
}

/// A rendered trace replayed, with what it re-derives of the report.
pub struct LedgerAudit {
    /// The replay, after the last record.
    pub replay: LedgerReplay,
    /// Payments that arrived, and their value.
    pub attempted: (u64, Amount),
    /// Payments that completed, and their value.
    pub completed: (u64, Amount),
    /// Value settled end to end.
    pub delivered: Amount,
    /// Value settled end to end per one-second bucket of its instant, in
    /// XRP, summed in record order.
    pub throughput: Vec<f64>,
    /// Units acknowledged (`ack` records), and how many of those acks
    /// came back marked.
    pub acked: (u64, u64),
    /// Completed payments' latencies, arrival to completion, in seconds
    /// and completion order.
    pub completion_times: Vec<f64>,
    /// Retries the `route` records prove: per payment, its highest
    /// attempt ordinal.
    pub retries_seen: u64,
    /// The instants, in seconds, of the `topology` records: one per
    /// mid-run churn event that changed something.
    pub topology_event_times: Vec<f64>,
    /// The channels churn closed, opened and resized: one `channel`
    /// record each, told apart by the closed flag it leaves (the `t = 0`
    /// initial state included).
    pub churn_channels: [u64; 3],
    /// Payments that lost a unit to a channel close and never completed.
    pub payments_failed_churn: u64,
    /// Crash and recovery toggles applied (`fault` records).
    pub fault_events: u64,
    /// On-chain deposits confirmed (`deposit` records), and their value.
    pub deposits: (u64, Amount),
    /// Units that waited in a queue, the seconds they waited summed in
    /// record order, and those waits.
    pub queued: (u64, f64, Histogram),
    /// Drops by reason.
    pub drops: DropBreakdown,
    /// The replay's drop records, in record order.
    pub drop_records: Vec<DropRecord>,
    /// Per channel: drops failing there, deliveries it bottlenecked, and
    /// seconds units queued at it, summed in record order.
    pub per_channel: Vec<(u64, u64, f64)>,
    /// Ledger checks that failed, in record order.
    pub violations: Vec<String>,
    /// Every channel's funds at the sampler's instants.
    pub timeline: Timeline,
    /// Every path's hops, by id.
    hops: Vec<Vec<Hop>>,
    /// Units that locked their whole path, per hop count of that path.
    locked_by_hops: Vec<u64>,
    /// Hop-by-hop units in flight: path, hops locked, latest record's
    /// instant, and whether that record queued it.
    units: BTreeMap<u64, (PathId, usize, u64, bool)>,
    /// Units injected so far (ids are injection ordinals).
    injected: u64,
    /// Lockstep locks held, per (payment, path, value): how many, and
    /// when the newest was taken.
    locks: BTreeMap<(PaymentId, PathId, Amount), (u32, u64)>,
}

impl LedgerAudit {
    /// Replays `jsonl` (a whole rendered trace) over `topo`.
    pub fn replay(jsonl: &str, topo: &Topology) -> Self {
        let mut hops: Vec<Vec<Hop>> = Vec::new();
        let mut events = Vec::new();
        for line in jsonl.lines() {
            match parse_line(line).unwrap_or_else(|e| panic!("{e}")) {
                Line::Path(id, nodes) => {
                    let id = id as usize;
                    if hops.len() <= id {
                        hops.resize(id + 1, Vec::new());
                    }
                    let nodes: Vec<NodeId> = nodes.into_iter().map(NodeId).collect();
                    hops[id] = topo.path_channels(&nodes).expect("a path of the topology");
                }
                Line::Event(e) => events.push(e),
            }
        }
        let opening = topo.channels().map(|(_, c)| {
            let half = c.capacity / 2;
            (c.capacity - half, half)
        });
        let mut audit = LedgerAudit {
            replay: LedgerReplay::new(opening),
            attempted: (0, Amount::ZERO),
            completed: (0, Amount::ZERO),
            delivered: Amount::ZERO,
            throughput: Vec::new(),
            acked: (0, 0),
            completion_times: Vec::new(),
            retries_seen: 0,
            topology_event_times: Vec::new(),
            churn_channels: [0; 3],
            payments_failed_churn: 0,
            fault_events: 0,
            deposits: (0, Amount::ZERO),
            queued: (0, 0.0, Histogram::new()),
            drops: DropBreakdown::default(),
            drop_records: Vec::new(),
            per_channel: vec![(0, 0, 0.0); topo.channel_count()],
            violations: Vec::new(),
            timeline: Timeline::new(topo.channel_count()),
            hops,
            locked_by_hops: Vec::new(),
            units: BTreeMap::new(),
            injected: 0,
            locks: BTreeMap::new(),
        };
        // Per unit: its value, and whether it has waited in a queue yet.
        let (mut totals, mut units, mut waited) = (Vec::new(), Vec::new(), Vec::new());
        // Per payment: its arrival instant, the highest attempt routed, and
        // whether it completed.
        let (mut arrivals, mut attempts, mut done) = (Vec::new(), Vec::new(), Vec::new());
        // Payments that lost a unit to a channel close.
        let mut churn_hit = BTreeSet::new();
        let mut last_t = 0;
        for (i, TraceEvent { seq, t_us, kind }) in events.iter().enumerate() {
            let t_us = *t_us;
            if *seq != i as u64 || t_us < last_t {
                audit.violate(
                    t_us,
                    format!("seq {seq} after {i} records, t_us after {last_t}"),
                );
            }
            last_t = t_us;
            match *kind {
                TraceEventKind::PaymentArrival {
                    payment, amount, ..
                } => {
                    audit.attempted.0 += 1;
                    audit.attempted.1 += amount;
                    let p = payment.0 as usize;
                    if totals.len() <= p {
                        totals.resize(p + 1, Amount::ZERO);
                        arrivals.resize(p + 1, 0);
                        attempts.resize(p + 1, 0);
                        done.resize(p + 1, false);
                    }
                    totals[p] = amount;
                    arrivals[p] = t_us;
                }
                TraceEventKind::RouteProposal {
                    payment, attempt, ..
                } => {
                    let seen = &mut attempts[payment.0 as usize];
                    *seen = (*seen).max(attempt);
                }
                TraceEventKind::PaymentCompleted {
                    payment,
                    latency_us,
                } => {
                    audit.completed.0 += 1;
                    audit.completed.1 += totals[payment.0 as usize];
                    done[payment.0 as usize] = true;
                    let latency = t_us - arrivals[payment.0 as usize];
                    if latency != latency_us {
                        let what = format!(
                            "{payment} completes {latency} us after it arrived, not {latency_us}"
                        );
                        audit.violate(t_us, what);
                    }
                    let secs = SimDuration::from_micros(latency).as_secs_f64();
                    audit.completion_times.push(secs);
                }
                TraceEventKind::UnitInjected { amount, .. } => {
                    units.push(amount);
                    waited.push(false);
                }
                TraceEventKind::TopologyChanged { .. } => {
                    let at = SimTime::from_micros(t_us).as_secs_f64();
                    audit.topology_event_times.push(at);
                }
                TraceEventKind::FaultApplied { .. } => audit.fault_events += 1,
                TraceEventKind::UnitAcked { marked, .. } => {
                    audit.acked.0 += 1;
                    audit.acked.1 += u64::from(marked);
                }
                TraceEventKind::Deposit { amount, .. } => {
                    audit.deposits.0 += 1;
                    audit.deposits.1 += amount;
                }
                _ => {}
            }
            let touched = audit.touched(kind);
            let settled = match *kind {
                TraceEventKind::UnitSettled { path, .. } => Some(path),
                TraceEventKind::UnitDelivered { unit } => audit.units.get(&unit).map(|u| u.0),
                _ => None,
            };
            audit.check_record(t_us, kind);
            let retry =
                matches!(*kind, TraceEventKind::RouteProposal { attempt, .. } if attempt > 0);
            audit.timeline.before(t_us, audit.replay.channels(), retry);
            let hops = &audit.hops;
            let fact = audit
                .replay
                .apply(t_us, kind, |p| hops[p.index()].as_slice());
            for c in touched {
                audit.check_conservation(t_us, c);
            }
            match (fact, kind) {
                (Fact::Drop(rec), _) => {
                    let failback = matches!(kind, TraceEventKind::UnitRefunded { .. })
                        && rec.reason == DropReason::ChannelClosed;
                    if failback && rec.channel.is_none() {
                        let what = format!("{rec:?} follows no close of a channel on its path");
                        audit.violate(t_us, what);
                    }
                    count(&mut audit.drops, rec.reason);
                    if rec.reason == DropReason::ChannelClosed {
                        churn_hit.insert(rec.payment);
                    }
                    if let Some(c) = rec.channel {
                        audit.per_channel[c as usize].0 += 1;
                    }
                    audit.drop_records.push(rec);
                }
                (Fact::Delivered { bottleneck }, _) => {
                    if let Some(c) = bottleneck {
                        audit.per_channel[c.index()].1 += 1;
                    }
                    let amount = match *kind {
                        TraceEventKind::UnitSettled { amount, .. } => amount,
                        TraceEventKind::UnitDelivered { unit } => units[unit as usize],
                        _ => unreachable!("only settles and deliveries deliver"),
                    };
                    let path = settled.expect("a delivery names its path");
                    audit.timeline.settle(&audit.hops[path.index()], amount);
                    audit.delivered += amount;
                    let bucket = SimTime::from_micros(t_us).as_secs_f64() as usize;
                    if audit.throughput.len() <= bucket {
                        audit.throughput.resize(bucket + 1, 0.0);
                    }
                    audit.throughput[bucket] += amount.as_xrp();
                }
                (
                    Fact::QueueWait { channel, secs },
                    &TraceEventKind::UnitForwarded { unit, .. },
                ) => {
                    audit.per_channel[channel.index()].2 += secs;
                    let first = !std::mem::replace(&mut waited[unit as usize], true);
                    let (count, sum, hist) = &mut audit.queued;
                    *count += u64::from(first);
                    *sum += secs;
                    hist.record(secs);
                }
                (_, TraceEventKind::TopologyChanged { .. }) => audit.check_failbacks(t_us),
                _ => {}
            }
            audit.timeline.after(t_us, audit.replay.channels());
        }
        audit.timeline.finish(audit.replay.channels());
        audit.retries_seen = attempts.iter().map(|&a| u64::from(a)).sum();
        let failed = churn_hit.iter().filter(|&&p| !done[p as usize]);
        audit.payments_failed_churn = failed.count() as u64;
        audit
    }

    fn violate(&mut self, t_us: u64, what: String) {
        self.violations.push(format!("t_us {t_us}: {what}"));
    }

    /// The channels a record moves funds on.
    fn touched(&self, kind: &TraceEventKind) -> Vec<ChannelId> {
        let path = match *kind {
            TraceEventKind::LockOutcome { path, .. }
            | TraceEventKind::UnitSettled { path, .. }
            | TraceEventKind::UnitRefunded { path, .. } => Some(path),
            TraceEventKind::UnitForwarded { unit, .. }
            | TraceEventKind::UnitDelivered { unit }
            | TraceEventKind::UnitDropped { unit, .. } => self.units.get(&unit).map(|u| u.0),
            TraceEventKind::ChannelUpdated { channel, .. }
            | TraceEventKind::Deposit { channel, .. } => return vec![channel],
            _ => None,
        };
        let hops = path.map_or(&[][..], |p| self.hops[p.index()].as_slice());
        hops.iter().map(|h| h.channel()).collect()
    }

    /// Checks one record against the ledger before it applies, follows
    /// the locks it takes or ends, and counts the channels churn changes.
    fn check_record(&mut self, t_us: u64, kind: &TraceEventKind) {
        let closed = |c: ChannelId| self.replay.channels()[c.index()].closed;
        let crosses_closed =
            |path: PathId| self.hops[path.index()].iter().any(|h| closed(h.channel()));
        let mut broken = Vec::new();
        match *kind {
            TraceEventKind::LockOutcome {
                payment,
                path,
                amount,
                ok: true,
            } => {
                if crosses_closed(path) {
                    broken.push(format!("{payment} locks across a closed channel"));
                }
                let held = self.locks.entry((payment, path, amount)).or_default();
                *held = (held.0 + 1, t_us);
                self.unit_locked(path);
            }
            TraceEventKind::UnitSettled {
                payment,
                amount,
                path,
            }
            | TraceEventKind::UnitRefunded {
                payment,
                amount,
                path,
                ..
            } => {
                let settles = matches!(kind, TraceEventKind::UnitSettled { .. });
                if settles && crosses_closed(path) {
                    broken.push(format!("{payment} settles across a closed channel"));
                }
                match self.locks.get_mut(&(payment, path, amount)) {
                    Some(held) if held.0 > 1 => held.0 -= 1,
                    Some(_) => {
                        self.locks.remove(&(payment, path, amount));
                    }
                    None => broken.push(format!(
                        "{payment} ends a lock of {amount} on path {} it does not hold",
                        path.0
                    )),
                }
            }
            TraceEventKind::UnitInjected { unit, path, .. } => {
                if unit != self.injected {
                    broken.push(format!("unit {unit} injected as unit {}", self.injected));
                }
                self.injected += 1;
                self.units.insert(unit, (path, 0, t_us, false));
            }
            TraceEventKind::UnitEnqueued { unit, channel, .. }
            | TraceEventKind::UnitForwarded { unit, channel, .. } => {
                match self.units.get_mut(&unit) {
                    Some((path, locked, last, queued)) => {
                        *last = t_us;
                        *queued = matches!(kind, TraceEventKind::UnitEnqueued { .. });
                        let next = self.hops[path.index()].get(*locked).map(|h| h.channel());
                        if next != Some(channel) {
                            broken.push(format!(
                                "unit {unit} moves at channel {} off its next hop",
                                channel.0
                            ));
                        }
                        if let TraceEventKind::UnitForwarded { hop, .. } = *kind {
                            if hop as usize != *locked || closed(channel) {
                                broken.push(format!(
                                    "unit {unit} locks hop {hop} after {locked}, or a closed one"
                                ));
                            }
                            *locked += 1;
                            let path = *path;
                            if hop as usize + 1 == self.hops[path.index()].len() {
                                self.unit_locked(path);
                            }
                        }
                    }
                    None => broken.push(format!("unit {unit} is not in flight")),
                }
            }
            TraceEventKind::UnitDelivered { unit } | TraceEventKind::UnitDropped { unit, .. } => {
                match self.units.remove(&unit) {
                    Some((path, locked, ..)) => {
                        let delivered = matches!(kind, TraceEventKind::UnitDelivered { .. });
                        let whole = locked == self.hops[path.index()].len();
                        if delivered && (!whole || crosses_closed(path)) {
                            broken.push(format!("unit {unit} delivered with {locked} hops locked, or across a closed channel"));
                        }
                    }
                    None => broken.push(format!("unit {unit} is not in flight")),
                }
            }
            TraceEventKind::ChannelUpdated {
                channel,
                closed: now_closed,
                capacity,
                fwd,
                bwd,
            } => {
                // A close or reopen moves no funds.
                let f = self.replay.channels()[channel.index()];
                let change = match (f.closed, now_closed) {
                    (false, true) => 0,
                    (true, false) => 1,
                    _ => 2,
                };
                self.churn_channels[change] += 1;
                if now_closed != f.closed && (capacity, [fwd, bwd]) != (f.capacity, f.balance) {
                    broken.push(format!(
                        "channel {} closes or opens as {kind:?} from {f:?}",
                        channel.0
                    ));
                }
            }
            _ => {}
        }
        for what in broken {
            self.violate(t_us, what);
        }
    }

    /// Counts a unit that locked all of `path`.
    fn unit_locked(&mut self, path: PathId) {
        let hops = self.hops[path.index()].len();
        if self.locked_by_hops.len() <= hops {
            self.locked_by_hops.resize(hops + 1, 0);
        }
        self.locked_by_hops[hops] += 1;
    }

    /// Balances and locks sum to the capacity — and so none went below
    /// zero, since the replay stops an overdraft at zero.
    fn check_conservation(&mut self, t_us: u64, c: ChannelId) {
        let f = self.replay.channels()[c.index()];
        let held = f.balance[0] + f.balance[1] + f.locked[0] + f.locked[1];
        if held != f.capacity {
            let what = format!("channel {} holds {held} of capacity {}", c.0, f.capacity);
            self.violate(t_us, what);
        }
    }

    /// At a churn summary record: nothing in flight crosses a closed
    /// channel — the close failed it all back.
    fn check_failbacks(&mut self, t_us: u64) {
        let channels = self.replay.channels();
        let crosses = |path: &PathId| {
            self.hops[path.index()]
                .iter()
                .any(|h| channels[h.channel().index()].closed)
        };
        let units = self.units.iter().filter(|(_, (p, ..))| crosses(p));
        let mut stranded: Vec<String> = units.map(|(u, _)| format!("unit {u}")).collect();
        let locks = self.locks.keys().filter(|(_, p, _)| crosses(p));
        stranded.extend(locks.map(|(pay, p, _)| format!("{pay}'s lock on path {}", p.0)));
        for what in stranded {
            self.violate(
                t_us,
                format!("{what} crosses a closed channel after its close"),
            );
        }
    }

    /// Asserts the ledger held, that the trace accounts for `report`,
    /// and that no lock went without a record for longer than `silence`
    /// allows before the horizon.
    pub fn check(&mut self, name: &str, report: &SimReport, silence: Silence) {
        let horizon = report.horizon.micros();
        let stale = |last: u64, bound: SimDuration| last + bound.micros() < horizon;
        for (unit, &(path, locked, last, queued)) in &self.units {
            let bound = if queued {
                silence.queued
            } else if locked == self.hops[path.index()].len() {
                silence.settling
            } else {
                silence.moving
            };
            if stale(last, bound) {
                let what =
                    format!("unit {unit} silent since t_us {last} with {locked} hops locked");
                self.violations.push(what);
            }
        }
        for ((payment, path, amount), &(n, newest)) in &self.locks {
            if stale(newest, silence.lock) {
                self.violations.push(format!(
                    "{payment}: {n} lock(s) of {amount} on path {} unsettled since t_us {newest}",
                    path.0
                ));
            }
        }
        let broken = &self.violations[..self.violations.len().min(32)];
        assert!(broken.is_empty(), "{name}: the ledger broke: {broken:#?}");
        assert_eq!(
            self.attempted,
            (report.attempted_payments, report.attempted_volume),
            "{name}: attempted"
        );
        assert_eq!(
            self.completed,
            (report.completed_payments, report.completed_volume),
            "{name}: completed"
        );
        assert_eq!(self.delivered, report.delivered_volume, "{name}: delivered");
        let times = |t: &[f64]| t.iter().map(|s| s.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            times(&self.throughput),
            times(&report.throughput_series),
            "{name}: throughput series"
        );
        assert_eq!(
            self.acked,
            (report.units_acked, report.units_marked),
            "{name}: units acked, and marked"
        );
        assert_eq!(
            self.drops.total(),
            report.units_dropped,
            "{name}: units dropped"
        );
        assert_eq!(
            self.drops, report.drops_by_reason,
            "{name}: drops by reason"
        );
        assert_eq!(
            self.drops.fault_total(),
            report.units_dropped_fault,
            "{name}: units dropped by faults"
        );
        let (mut locked, mut hops_sum) = (0, 0);
        let mut lengths = Histogram::new();
        for (hops, &n) in self.locked_by_hops.iter().enumerate() {
            locked += n;
            hops_sum += hops as u64 * n;
            lengths.record_n(hops as f64, n);
        }
        assert_eq!(
            (locked, hops_sum),
            (report.units_locked, report.unit_hops_sum),
            "{name}: units locked and their hops"
        );
        let bits = |h: &Histogram| {
            let (sum, min, max) = (h.sum.to_bits(), h.min.to_bits(), h.max.to_bits());
            (h.counts.clone(), h.count, sum, min, max)
        };
        assert_eq!(
            bits(&lengths),
            bits(&report.path_length_hist),
            "{name}: path lengths"
        );
        let churn = [
            report.churn_channels_closed,
            report.churn_channels_opened,
            report.churn_channels_resized,
        ];
        assert_eq!(
            (self.topology_event_times.len() as u64, self.churn_channels),
            (report.topology_events, churn),
            "{name}: churn events, and the channels closed, opened and resized"
        );
        assert_eq!(
            times(&self.topology_event_times),
            times(&report.topology_event_times_s),
            "{name}: churn event instants"
        );
        assert_eq!(
            (self.drops.channel_closed, self.payments_failed_churn),
            (report.units_dropped_churn, report.payments_failed_churn),
            "{name}: units and payments churn failed"
        );
        assert_eq!(
            self.fault_events, report.fault_events,
            "{name}: fault events"
        );
        assert_eq!(
            self.deposits,
            (report.rebalance_ops, report.onchain_deposited),
            "{name}: on-chain deposits"
        );
        assert_eq!(
            times(&self.completion_times),
            times(&report.completion_times),
            "{name}: completion times"
        );
        let mut latencies = Histogram::new();
        for &secs in &self.completion_times {
            latencies.record(secs);
        }
        assert_eq!(
            bits(&latencies),
            bits(&report.latency_hist),
            "{name}: latency histogram"
        );
        let (count, sum, hist) = &self.queued;
        assert_eq!(
            (*count, sum.to_bits(), bits(hist)),
            (
                report.units_queued,
                report.queue_delay_sum_s.to_bits(),
                bits(&report.queue_delay_hist)
            ),
            "{name}: units queued, their delay sum and histogram"
        );
        assert!(
            self.retries_seen <= report.retries,
            "{name}: the trace routes {} retries, the report counts {}",
            self.retries_seen,
            report.retries
        );
    }

    /// Asserts that the engine's forensics (when it ran with them) hold
    /// exactly the replay's drop records, and that each hotspot row's
    /// drop, bottleneck and queue-residency figures are the replay's for
    /// its channel, bit for bit.
    pub fn check_sinks(&self, name: &str, report: &SimReport, forensics: Option<&FlightRecorder>) {
        if let Some(engine) = forensics {
            let mut replayed = FlightRecorder::new(engine.capacity());
            for rec in &self.drop_records {
                replayed.record(rec.clone());
            }
            assert!(
                replayed.to_jsonl() == engine.to_jsonl(),
                "{name}: the forensics records are not the replay's"
            );
            assert_eq!(
                replayed.root_cause_to_jsonl(),
                engine.root_cause_to_jsonl(),
                "{name}: the root-cause table is not the replay's"
            );
        }
        for h in &report.hotspots {
            let (drops, bottlenecks, queued) = self.per_channel[h.channel as usize];
            assert_eq!(
                (h.drops, h.bottlenecks, h.queue_residency_s.to_bits()),
                (drops, bottlenecks, queued.to_bits()),
                "{name}: hotspot channel {} is not the replay's",
                h.channel
            );
        }
        if !report.hotspots.is_empty() {
            self.check_hotspot_integrals(name, report);
        }
    }

    /// Asserts that each hotspot row's integrals and score lie within the
    /// bounds the timeline gives (see [`crate::timeline`]), and that no
    /// channel left out of the table has a score its rows' bounds exclude.
    fn check_hotspot_integrals(&self, name: &str, report: &SimReport) {
        let (elapsed, bounds) = self.timeline.hotspot_bounds(report.horizon);
        let totals = (
            self.per_channel.iter().map(|c| c.0).sum::<u64>(),
            self.per_channel.iter().map(|c| c.1).sum::<u64>(),
            self.per_channel.iter().map(|c| c.2).sum::<f64>(),
        );
        let score = |c: usize, i| timeline::score(self.per_channel[c], totals, i, elapsed);
        let within = |v: f64, lo: f64, hi: f64| lo <= v && v <= hi;
        for h in &report.hotspots {
            let c = h.channel as usize;
            let (lo, hi) = (&bounds[c].lo, &bounds[c].hi);
            assert!(
                within(h.util_frac, lo.util_frac, hi.util_frac)
                    && within(h.zero_liquidity_s, lo.zero_liquidity_s, hi.zero_liquidity_s)
                    && within(h.imbalance_frac, lo.imbalance_frac, hi.imbalance_frac)
                    && within(h.score, score(c, lo), score(c, hi)),
                "{name}: hotspot {h:?} is outside the timeline's {:?}",
                bounds[c]
            );
        }
        let full = report.hotspots.len() == HOTSPOT_K;
        let floor = report
            .hotspots
            .iter()
            .map(|h| score(h.channel as usize, &bounds[h.channel as usize].hi));
        let floor = if full {
            floor.fold(f64::INFINITY, f64::min)
        } else {
            0.0
        };
        for (c, span) in bounds.iter().enumerate() {
            let listed = report.hotspots.iter().any(|h| h.channel as usize == c);
            assert!(
                listed || score(c, &span.lo) <= floor,
                "{name}: channel {c} scores at least {} but is not a hotspot",
                score(c, &span.lo)
            );
        }
    }

    /// Asserts the replay ends holding exactly the engine's funds, and,
    /// where no deposit or resize moved a channel's escrow, that the
    /// timeline's drift is what its funds moved: the backward side's
    /// balance and outgoing locks less its opening half.
    pub fn check_funds(&self, name: &str, engine: &[ChannelState]) {
        if self.deposits.0 == 0 && self.churn_channels[2] == 0 {
            let funds = self.replay.channels().iter().zip(&self.timeline.end);
            for (c, (f, end)) in funds.enumerate() {
                let owned = (f.balance[1] + f.locked[1]).drops() as i64;
                let opening = (f.capacity / 2).drops() as i64;
                assert_eq!(end.drift.lo, owned - opening, "{name}: channel {c}'s drift");
            }
        }
        for (i, (ch, funds)) in engine.iter().zip(self.replay.channels()).enumerate() {
            let dirs = [Direction::Forward, Direction::Backward];
            let engine_side = (
                ch.capacity(),
                dirs.map(|d| ch.balance(d)),
                dirs.map(|d| ch.inflight(d)),
                ch.is_closed(),
            );
            let replayed = (funds.capacity, funds.balance, funds.locked, funds.closed);
            assert_eq!(replayed, engine_side, "{name}: channel {i} at the end");
        }
    }
}

/// Counts one drop of `reason` in `drops`.
pub(crate) fn count(drops: &mut DropBreakdown, reason: DropReason) {
    let slot = match reason {
        DropReason::QueueTimeout => &mut drops.queue_timeout,
        DropReason::QueueOverflow => &mut drops.queue_overflow,
        DropReason::Expired => &mut drops.expired,
        DropReason::ChannelClosed => &mut drops.channel_closed,
        DropReason::MessageLost => &mut drops.message_lost,
        DropReason::HopTimeout => &mut drops.hop_timeout,
        DropReason::NodeCrashed => &mut drops.node_crashed,
        DropReason::Shed => &mut drops.shed,
        DropReason::AdmissionRejected => &mut drops.admission_rejected,
    };
    *slot += 1;
}

/// `jsonl` without its attempt ordinals: the `attempt` of each `route`
/// record and the `attempts` of each `drop` and `refund` record are cut.
/// They count attempts actually made, which a skipped attempt lowers
/// without moving anything else the trace records.
pub fn without_attempts(jsonl: &str) -> String {
    let mut out = String::with_capacity(jsonl.len());
    for line in jsonl.lines() {
        let field = [",\"attempt\":", ",\"attempts\":"]
            .iter()
            .find_map(|key| Some((line.find(key)?, key.len())));
        match field {
            Some((at, len)) => {
                let value = &line[at + len..];
                let end = value.find(|c: char| !c.is_ascii_digit());
                out.push_str(&line[..at]);
                out.push_str(&value[end.unwrap_or(value.len())..]);
            }
            None => out.push_str(line),
        }
        out.push('\n');
    }
    out
}

/// The trace as an engine without the ledger fields rendered it: the
/// records the ledger added (`channel`, `deposit`, rollback and
/// channel-closed `refund`s) removed, `seq` renumbered, and the fields it
/// added (`path` on `settle`; `path` and `attempts` on `refund`;
/// `attempts` on `drop`; `rejected` on `expire`) cut — each is the last
/// of its line. Pins recorded before the ledger hash this text.
pub fn pre_ledger(jsonl: &str) -> String {
    let mut out = String::with_capacity(jsonl.len());
    let mut seq = 0u64;
    for line in jsonl.lines() {
        if line.starts_with("{\"ev\":\"path\"") {
            out.push_str(line);
            out.push('\n');
            continue;
        }
        let ev = line.split_once(",\"ev\":\"").expect("an ev").1;
        let ev = &ev[..ev.find('"').expect("a quoted ev")];
        let added = match ev {
            "channel" | "deposit" => true,
            "refund" => {
                line.contains("\"reason\":null,") || line.contains("\"reason\":\"channel_closed\"")
            }
            _ => false,
        };
        if added {
            continue;
        }
        let cut = match ev {
            "settle" | "refund" => Some(",\"path\":"),
            "drop" => Some(",\"attempts\":"),
            "expire" => Some(",\"rejected\":"),
            _ => None,
        };
        let body = &line[line.find(",\"t_us\"").expect("t_us")..];
        let body = cut.map_or(body, |c| &body[..body.find(c).expect("ledger field")]);
        out.push_str(&format!("{{\"seq\":{seq}"));
        out.push_str(body.trim_end_matches('}'));
        out.push_str("}\n");
        seq += 1;
    }
    out
}
