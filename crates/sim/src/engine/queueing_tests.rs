use super::test_util::{new_sim, run_checked, shortest_path_proposal, txn, xrp, Direct};
use super::{Perturbation, Simulation};
use crate::config::{QueueConfig, SimConfig};
use crate::metrics::SimReport;
use crate::router::{NetworkView, RouteProposal, RouteRequest, Router, UnitAck, UnitOutcome};
use crate::workload::{TxnSpec, Workload};
use spider_obs::trace::TraceEventKind;
use spider_topology::{gen, Topology};
use spider_types::{
    Amount, Direction, DropReason, NodeId, SimDuration, SimTime, TopologyChange, TopologyEvent,
};

/// Records every ack for assertion.
struct AckRecorder {
    acks: std::rc::Rc<std::cell::RefCell<Vec<UnitAck>>>,
    outcomes: std::rc::Rc<std::cell::RefCell<Vec<bool>>>,
}
impl Router for AckRecorder {
    fn name(&self) -> &'static str {
        "ack-recorder"
    }
    fn route(&mut self, req: &RouteRequest, view: &NetworkView<'_>) -> Vec<RouteProposal> {
        shortest_path_proposal(req, view)
    }
    fn on_unit_outcome(&mut self, outcome: &UnitOutcome, _view: &NetworkView<'_>) {
        self.outcomes.borrow_mut().push(outcome.locked);
    }
    fn on_unit_ack(&mut self, ack: &UnitAck, _view: &NetworkView<'_>) {
        self.acks.borrow_mut().push(*ack);
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

fn run_queue_sim(topo: Topology, txns: Vec<TxnSpec>, cfg: SimConfig) -> (SimReport, Simulation) {
    run_checked(new_sim(topo, Workload { txns }, Box::new(Direct), cfg))
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
    // Sustained one-way overload with a late refill, so queued units
    // eventually cross after waiting past `MARKING_DELAY` (delayed →
    // marked).
    let mut txns: Vec<TxnSpec> = (0..8).map(|i| txn(i * 100, 0, 1, xrp(1))).collect();
    txns.push(txn(3_000, 1, 0, xrp(4)));
    let (r, _) = run_queue_sim(t, txns, qconfig(QueueConfig::default()));
    assert!(r.units_marked > 0, "delayed units must be marked");
    assert!(r.marking_rate() > 0.0);
}

#[test]
fn queue_timeout_drops_and_refunds() {
    let t = gen::line(3, xrp(10));
    let qc = QueueConfig {
        max_queue_delay: SimDuration::from_millis(300),
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
    let mut sim = new_sim(
        t,
        Workload {
            txns: vec![txn(0, 0, 1, xrp(10))],
        },
        Box::new(router),
        cfg,
    );
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
        let mut sim = new_sim(gen::isp_topology(xrp(500)), w, Box::new(Direct), cfg);
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
    let lockstep_cfg = SimConfig {
        horizon: SimDuration::from_secs(30),
        mtu: xrp(1),
        deadline: Some(SimDuration::from_secs(10)),
        ..SimConfig::default()
    };
    let mut sim = new_sim(
        gen::line(2, xrp(10)),
        Workload { txns },
        Box::new(Direct),
        lockstep_cfg,
    );
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

/// The profiler's per-phase counts are exact whichever iterations it
/// times: one fixed run on each engine, with a churn close and reopen,
/// pinned to the counts recorded when every iteration was timed.
#[test]
fn profiler_counts_are_exact_on_a_fixed_run() {
    for (mode, queueing, want) in [
        (
            "fifo",
            qconfig(QueueConfig::default()).queueing,
            [95, 55, 17, 0, 2, 5, 0, 0, 5],
        ),
        (
            "lockstep",
            crate::config::QueueingMode::Lockstep,
            [69, 55, 0, 9, 2, 5, 0, 0, 5],
        ),
    ] {
        let t = gen::line(3, xrp(10));
        let txns = vec![
            txn(0, 0, 2, xrp(7)),
            txn(50, 2, 0, xrp(4)),
            txn(120, 0, 1, xrp(6)),
            txn(400, 1, 2, xrp(3)),
            txn(2_000, 2, 0, xrp(9)),
        ];
        let mut cfg = qconfig(QueueConfig::default());
        cfg.queueing = queueing;
        cfg.horizon = SimDuration::from_secs(5);
        cfg.obs.profile = true;
        let channel = t.channel_between(NodeId(1), NodeId(2)).expect("built");
        let mut sim = new_sim(t, Workload { txns }, Box::new(Direct), cfg);
        let churn = |at_ms: u64, change| TopologyEvent {
            at: SimTime::from_micros(at_ms * 1_000),
            change,
        };
        sim.install(Perturbation::Churn(vec![
            churn(1_000, TopologyChange::ChannelClose { channel }),
            churn(1_500, TopologyChange::ChannelOpen { channel }),
        ]))
        .unwrap();
        let (r, _) = run_checked(sim);
        assert_eq!(r.completed_payments, 5, "{mode}");
        let counts = r.profile.phases().map(|(_, s)| s.count);
        assert_eq!(counts, want, "{mode}: {:?}", r.profile);
    }
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
    let mut sim = new_sim(t, Workload { txns }, Box::new(Direct), cfg);
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

/// A payment's units are injected back to back and cross every hop in
/// step, so however many there are they run in the events of one unit:
/// one `HopArrive` a hop and one `UnitDeliver`.
#[test]
fn a_unit_train_crosses_each_hop_as_one_event() {
    let hops = 4;
    let run = |units: u64| {
        let t = gen::line(hops + 1, xrp(1_000));
        let txns = vec![txn(0, 0, hops as u32, xrp(units))];
        let (r, sim) = run_queue_sim(t, txns, qconfig(QueueConfig::default()));
        assert_eq!(r.completed_payments, 1);
        (r.units_locked, sim.slab_stats())
    };
    let (one_locked, one) = run(1);
    let (locked, train) = run(12);
    assert_eq!((one_locked, locked), (1, 12));
    assert_eq!(train.units_injected, 12);
    assert_eq!(train.events_scheduled, one.events_scheduled);
    assert_eq!(train.events_executed, one.events_executed);
    assert_eq!(train.calendar_entries, one.calendar_entries);
}

/// Where a hop's balance covers only the first `m` units of a train,
/// those cross and go on together; the rest queue behind them in train
/// order, each armed with its own timeout.
#[test]
fn a_train_splits_where_the_balance_runs_out() {
    // Wide first hop; 3 XRP of forward balance on the second.
    let mut b = Topology::builder(3);
    b.channel(NodeId(0), NodeId(1), xrp(40))
        .expect("channel endpoints are distinct known nodes");
    b.channel(NodeId(1), NodeId(2), xrp(6))
        .expect("channel endpoints are distinct known nodes");
    let mut cfg = qconfig(QueueConfig::default());
    // Past the train's arrival at hop 1 (10 ms), before any timeout.
    cfg.horizon = SimDuration::from_millis(300);
    cfg.obs.trace = true;
    let txns = vec![txn(0, 0, 2, xrp(7))];
    let mut sim = new_sim(b.build(), Workload { txns }, Box::new(Direct), cfg);
    sim.run();
    sim.check_conservation();
    assert_eq!(sim.queued_units(), 4);
    // Pending at the horizon: the crossed units' one delivery train and
    // one timeout per queued unit.
    assert_eq!(sim.slab_stats().live_events, 1 + 4);
    let trace = sim.take_trace().expect("traced");
    let at_hop_1: Vec<_> = trace
        .events()
        .filter(|e| e.t_us == 10_000)
        .filter_map(|e| match e.kind {
            TraceEventKind::UnitForwarded { unit, hop: 1, .. } => Some((unit, 0)),
            TraceEventKind::UnitEnqueued { unit, qlen, .. } => Some((unit, qlen)),
            _ => None,
        })
        .collect();
    assert_eq!(
        at_hop_1,
        [(0, 0), (1, 0), (2, 0), (3, 1), (4, 2), (5, 3), (6, 4)]
    );
}

/// Proposes three paths for a 4 XRP payment from node 0 to node 2 —
/// 2 XRP over 0-1-2, then 1 XRP each over 0-1-3-2 and 0-1-4-2 — so one
/// train carries units of three paths; anything else goes whole over
/// the shortest path.
struct ThreePaths;

impl Router for ThreePaths {
    fn name(&self) -> &'static str {
        "three-paths"
    }
    fn route(&mut self, req: &RouteRequest, view: &NetworkView<'_>) -> Vec<RouteProposal> {
        if req.remaining != xrp(4) {
            return shortest_path_proposal(req, view);
        }
        [
            (vec![0, 1, 2], 2),
            (vec![0, 1, 3, 2], 1),
            (vec![0, 1, 4, 2], 1),
        ]
        .into_iter()
        .map(|(nodes, x): (Vec<u32>, u64)| RouteProposal {
            path: view.intern(&nodes.into_iter().map(NodeId).collect::<Vec<_>>()),
            amount: xrp(x),
        })
        .collect()
    }
}

/// A churn close that catches one member of a train mid-flight drops that
/// unit alone: the rest of the train crosses on schedule, and the unit
/// that reuses its slab slot before the train's turn runs once, on its
/// own schedule, never as a member of the train it left.
#[test]
fn a_churn_close_unlinks_one_member_and_its_recycled_slot_runs_once() {
    let mut b = Topology::builder(5);
    for (u, v) in [(0, 1), (1, 2), (1, 3), (3, 2), (1, 4), (4, 2)] {
        b.channel(NodeId(u), NodeId(v), xrp(100))
            .expect("channel endpoints are distinct known nodes");
    }
    let mut cfg = qconfig(QueueConfig::default());
    // Past both trains' second hops, before the first poll retries what
    // the close dropped.
    cfg.horizon = SimDuration::from_millis(50);
    cfg.obs.trace = true;
    // The four units of payment 0 (0-1-2 twice, 0-1-3-2, 0-1-4-2) reach
    // hop 1 together at 10 ms; channel 3-2 closes at 1 ms, under the
    // third; payment 1's unit is injected at 2 ms into its slot.
    let t = b.build();
    let channel = t.channel_between(NodeId(3), NodeId(2)).expect("built");
    let txns = vec![txn(0, 0, 2, xrp(4)), txn(2, 0, 2, xrp(1))];
    let mut sim = new_sim(t, Workload { txns }, Box::new(ThreePaths), cfg);
    sim.install(Perturbation::Churn(vec![TopologyEvent {
        at: SimTime::from_micros(1_000),
        change: TopologyChange::ChannelClose { channel },
    }]))
    .unwrap();
    let r = sim.run();
    sim.check_conservation();
    assert_eq!(r.drops_by_reason.channel_closed, 1);
    // Payment 1's unit took the dropped unit's slot: five units, four
    // slots.
    let stats = sim.slab_stats();
    assert_eq!((stats.units_injected, stats.unit_slots), (5, 4));
    let trace = sim.take_trace().expect("traced");
    let life = |unit: u64| -> Vec<(u64, &'static str, u32)> {
        trace
            .events()
            .filter_map(|e| match e.kind {
                TraceEventKind::UnitForwarded { unit: u, hop, .. } if u == unit => {
                    Some((e.t_us, "forward", hop))
                }
                TraceEventKind::UnitDropped {
                    unit: u, reason, ..
                } if u == unit => {
                    assert_eq!(reason, DropReason::ChannelClosed);
                    Some((e.t_us, "drop", 0))
                }
                _ => None,
            })
            .collect()
    };
    for unit in [0, 1] {
        assert_eq!(life(unit), [(0, "forward", 0), (10_000, "forward", 1)]);
    }
    assert_eq!(life(2), [(0, "forward", 0), (1_000, "drop", 0)]);
    assert_eq!(
        life(3),
        [
            (0, "forward", 0),
            (10_000, "forward", 1),
            (20_000, "forward", 2)
        ]
    );
    assert_eq!(life(4), [(2_000, "forward", 0), (12_000, "forward", 1)]);
}
