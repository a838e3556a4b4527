use super::test_util::{new_sim, run_checked, shortest_path_proposal, txn, xrp};
use super::{Perturbation, Simulation};
use crate::channel::ChannelState;
use crate::config::SimConfig;
use crate::metrics::SimReport;
use crate::router::{NetworkView, RouteProposal, RouteRequest, Router, UnitOutcome};
use crate::workload::{TxnSpec, Workload};
use spider_faults::{FaultChange, FaultPlan};
use spider_obs::trace::TraceEventKind;
use spider_topology::{gen, Topology};
use spider_types::{
    Amount, ChannelId, DetRng, Direction, DropReason, Hop, NodeId, PathId, SimDuration, SimTime,
    TopologyChange, TopologyEvent,
};

/// Test router: always proposes the single BFS shortest path for the
/// full remaining amount.
struct DirectRouter {
    atomic: bool,
}

impl Router for DirectRouter {
    fn name(&self) -> &'static str {
        "direct-test"
    }
    fn route(&mut self, req: &RouteRequest, view: &NetworkView<'_>) -> Vec<RouteProposal> {
        shortest_path_proposal(req, view)
    }
    fn atomic(&self) -> bool {
        self.atomic
    }
}

fn base_config() -> SimConfig {
    SimConfig {
        horizon: spider_types::SimDuration::from_secs(30),
        ..SimConfig::default()
    }
}

fn run_sim(
    topo: Topology,
    txns: Vec<TxnSpec>,
    atomic: bool,
    config: SimConfig,
) -> (SimReport, Simulation) {
    let router = Box::new(DirectRouter { atomic });
    run_checked(new_sim(topo, Workload { txns }, router, config))
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
    fn on_unit_outcome(&mut self, outcome: &UnitOutcome, _view: &NetworkView<'_>) {
        self.faulted |= outcome.fault.is_some();
    }
    fn pins_single_path(&self) -> bool {
        !self.faulted
    }
}

fn pinned_sim(topo: Topology, txns: Vec<TxnSpec>, config: SimConfig) -> Simulation {
    let router = Box::new(PinningRouter::default());
    new_sim(topo, Workload { txns }, router, config)
}

fn run_pinned(topo: Topology, txns: Vec<TxnSpec>, config: SimConfig) -> SimReport {
    run_checked(pinned_sim(topo, txns, config)).0
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
    sim.install(Perturbation::Churn(vec![
        TopologyEvent {
            at: at(50),
            change: TopologyChange::ChannelClose { channel },
        },
        TopologyEvent {
            at: at(2000),
            change: TopologyChange::ChannelOpen { channel },
        },
    ]))
    .unwrap();
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
    sim.install(Perturbation::Faults(FaultPlan {
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
    }))
    .unwrap();
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
        let mut sim = new_sim(
            gen::cycle(6, xrp(50)),
            w,
            Box::new(DirectRouter { atomic: false }),
            base_config(),
        );
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
    let mut sim = new_sim(t, w, Box::new(DirectRouter { atomic: false }), cfg);
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
        let mut sim = new_sim(
            gen::isp_topology(xrp(200)),
            src,
            Box::new(DirectRouter { atomic: false }),
            base_config(),
        );
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
fn lock_outcomes_come_as_counts_of_the_per_unit_loop() {
    // A proposal's locks reach the router as counts: its full units that
    // locked, its full units that failed (one tried, the rest counted),
    // then its partial unit. Expanded unit by unit they must be the
    // outcomes a per-unit lock loop reports — as many locked and failed
    // units as the report counts, each run in that order — so a hook
    // that steps once per unit (`Windowed`'s AIMD) ends where the loop
    // would have left it.
    #[derive(Default)]
    struct Recording {
        /// Per outcome: (unit value, locked, units).
        seen: std::rc::Rc<std::cell::RefCell<Vec<(Amount, bool, u64)>>>,
    }
    impl Router for Recording {
        fn name(&self) -> &'static str {
            "recording"
        }
        fn route(&mut self, req: &RouteRequest, view: &NetworkView<'_>) -> Vec<RouteProposal> {
            shortest_path_proposal(req, view)
        }
        fn on_unit_outcome(&mut self, o: &UnitOutcome, _v: &NetworkView<'_>) {
            assert!(o.units > 0 && o.fault.is_none());
            self.seen.borrow_mut().push((o.amount, o.locked, o.units));
        }
    }
    // Repeated over-sized payments at 1-XRP MTU: most chunks fail.
    let mut cfg = base_config();
    cfg.mtu = xrp(1);
    cfg.deadline = Some(spider_types::SimDuration::from_secs(3));
    cfg.obs.trace = true;
    let txns: Vec<TxnSpec> = (0..20)
        .map(|i| txn(i * 200, 0, 1, Amount::from_drops(9_500_000)))
        .collect();
    let router = Recording::default();
    let seen = router.seen.clone();
    let sim = new_sim(
        gen::line(2, xrp(10)),
        Workload { txns },
        Box::new(router),
        cfg,
    );
    let (r, mut sim) = run_checked(sim);
    let seen = seen.borrow();
    let count = |locked: bool| -> u64 { seen.iter().filter(|o| o.1 == locked).map(|o| o.2).sum() };
    assert!(r.units_failed > 100, "needs failing chunks to count");
    assert_eq!(
        (count(true), count(false)),
        (r.units_locked, r.units_failed)
    );
    assert!(
        seen.iter().any(|o| !o.1 && o.2 > 1),
        "some failures must arrive counted"
    );
    // The trace's lock records, in order, are the outcomes with each
    // failed count standing for its one traced unit: locked counts
    // expand, a failed count of full units shows once.
    let trace = sim.take_trace().expect("tracing was on");
    let traced: Vec<(Amount, bool)> = trace
        .events()
        .filter_map(|e| match e.kind {
            TraceEventKind::LockOutcome { amount, ok, .. } => Some((amount, ok)),
            _ => None,
        })
        .collect();
    let expanded: Vec<(Amount, bool)> = seen
        .iter()
        .flat_map(|&(amount, locked, units)| {
            let shown = if locked { units } else { 1 };
            std::iter::repeat_n((amount, locked), shown as usize)
        })
        .collect();
    assert_eq!(traced, expanded);
}

/// One unit's lockstep fault verdict as the fault plan specifies it
/// (no node crashed): message loss hop by hop, then a stuck unit, then a
/// lost ack — the reference a settle run's draws must reproduce.
fn per_unit_verdict(rng: &mut DetRng, plan: &FaultPlan, hops: &[Hop]) -> Option<DropReason> {
    for hop in hops {
        if rng.chance(plan.message_loss[hop.channel().index()]) {
            return Some(DropReason::MessageLost);
        }
    }
    if rng.chance(plan.stuck_prob) {
        return Some(DropReason::HopTimeout);
    }
    rng.chance(plan.ack_loss_prob)
        .then_some(DropReason::MessageLost)
}

#[test]
fn a_faulted_batch_settles_in_runs_as_it_would_unit_by_unit() {
    // 35 XRP at a 10-XRP MTU over two hops is one batch of four units;
    // the fault stream is seeded so they deliver, fault, deliver, and
    // deliver the partial one. The engine settles the first unit as a
    // run, refunds the second, and settles the last two as one run; a
    // per-unit loop over the same draws must leave the same balances,
    // the same records and the fault stream at the same state.
    let topo = gen::line(3, xrp(100));
    let nodes = [NodeId(0), NodeId(1), NodeId(2)];
    let hops = topo.path_channels(&nodes).expect("a path of the line");
    let (mtu, amount) = (xrp(10), Amount::from_xrp(35));
    let units: Vec<Amount> = amount.mtu_chunks(mtu).collect();
    let plan = |runtime_seed| FaultPlan {
        message_loss: vec![0.2, 0.2],
        ack_loss_prob: 0.1,
        stuck_prob: 0.1,
        jitter_range_ms: None,
        spike_prob: 0.0,
        spike_ms: 0.0,
        hop_timeout: SimDuration::from_secs(1),
        events: Vec::new(),
        runtime_seed,
    };
    let verdicts = |seed| {
        let mut rng = DetRng::new(seed);
        units
            .iter()
            .map(|_| per_unit_verdict(&mut rng, &plan(seed), &hops).is_some())
            .collect::<Vec<_>>()
    };
    let seed = (0..10_000)
        .find(|&s| verdicts(s) == [false, true, false, false])
        .expect("a seed with the pattern");
    // The per-unit loop.
    let mut channels: Vec<ChannelState> = topo
        .channels()
        .map(|(_, c)| ChannelState::split_equally(c.capacity))
        .collect();
    for hop in &hops {
        assert!(channels[hop.channel().index()].lock(hop.direction(), amount));
    }
    let mut rng = DetRng::new(seed);
    let mut want = Vec::new();
    for &unit in &units {
        let verdict = per_unit_verdict(&mut rng, &plan(seed), &hops);
        for hop in &hops {
            let ch = &mut channels[hop.channel().index()];
            match verdict {
                None => ch.settle(hop.direction(), unit),
                Some(_) => ch.refund(hop.direction(), unit),
            }
        }
        want.push((unit, verdict));
    }
    // The engine, stopped at the settle instant.
    let mut cfg = base_config();
    cfg.mtu = mtu;
    cfg.confirmation_delay = SimDuration::from_millis(450);
    cfg.horizon = SimDuration::from_millis(450);
    cfg.obs.trace = true;
    let router = Box::new(FixedPath {
        nodes: nodes.to_vec(),
        atomic: false,
    });
    let txns = vec![txn(0, 0, 2, amount)];
    let mut sim = new_sim(topo, Workload { txns }, router, cfg);
    sim.install(Perturbation::Faults(plan(seed))).unwrap();
    let (r, mut sim) = run_checked(sim);
    assert_eq!(sim.channel_states(), channels.as_slice(), "balances");
    let trace = sim.take_trace().expect("tracing was on");
    let got: Vec<(Amount, Option<DropReason>)> = trace
        .events()
        .filter_map(|e| match e.kind {
            TraceEventKind::UnitSettled { amount, .. } => Some((amount, None)),
            TraceEventKind::UnitRefunded { amount, reason, .. } => Some((amount, reason)),
            _ => None,
        })
        .collect();
    assert_eq!(got, want, "settle and refund records");
    assert_eq!((r.faults_injected, r.units_dropped), (1, 1));
    assert_eq!(r.delivered_volume, amount - mtu);
    // The fault stream stands where the per-unit loop's does.
    let entry = sim.net.paths.entry(PathId::from_index(0));
    let faults = sim.faults.as_mut().expect("a fault plan");
    for _ in 0..64 {
        let next = per_unit_verdict(&mut rng, &plan(seed), &hops);
        assert_eq!(faults.lockstep_verdict(&entry), next);
    }
}

#[test]
fn event_slab_is_bounded_by_in_flight_events() {
    // A long run whose event churn vastly exceeds the in-flight
    // population: the slab must recycle dead slots instead of growing
    // with the total ever scheduled. 3,200 alternating payments, one
    // every 10 ms → 3,200 arrivals and 3,200 settles (a payment's units
    // settle as one event) plus 400 polls, of which only a confirmation
    // window's worth is ever simultaneously pending.
    let t = gen::line(2, xrp(20_000));
    let mut cfg = base_config();
    cfg.mtu = xrp(1);
    cfg.horizon = spider_types::SimDuration::from_secs(40);
    let txns: Vec<TxnSpec> = (0..3_200)
        .map(|i| txn(i * 10, (i % 2) as u32, ((i + 1) % 2) as u32, xrp(3)))
        .collect();
    let (r, sim) = run_sim(t, txns, false, cfg);
    assert_eq!(r.completed_payments, 3_200);
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

/// Test router for a 4-cycle: routes half of what remains from node 0 to
/// node 2 via node 1 and the rest via node 3.
struct SplitRouter {
    atomic: bool,
}

impl Router for SplitRouter {
    fn name(&self) -> &'static str {
        "split-test"
    }
    fn route(&mut self, req: &RouteRequest, view: &NetworkView<'_>) -> Vec<RouteProposal> {
        let half = req.remaining / 2;
        vec![
            RouteProposal {
                path: view.intern(&[NodeId(0), NodeId(1), NodeId(2)]),
                amount: half,
            },
            RouteProposal {
                path: view.intern(&[NodeId(0), NodeId(3), NodeId(2)]),
                amount: req.remaining - half,
            },
        ]
    }
    fn atomic(&self) -> bool {
        self.atomic
    }
}

#[test]
fn a_lock_run_settles_as_one_event() {
    // An attempt schedules one settle per path it locked on, however
    // many MTU units that is: 7 XRP at a 2-XRP MTU is four units (the
    // last one partial) and runs in as many events as a one-unit
    // payment, while `units_locked` still counts every unit.
    let run = |topo: Topology, router: Box<dyn Router>, amount: Amount| {
        let mut cfg = base_config();
        cfg.mtu = xrp(2);
        let txns = (0..40).map(|i| txn(i * 100, 0, 2, amount)).collect();
        let (r, sim) = run_checked(new_sim(topo, Workload { txns }, router, cfg));
        assert_eq!(r.completed_payments, 40);
        assert_eq!(r.delivered_volume, amount * 40);
        (r.units_locked, sim.slab_stats().events_executed)
    };
    let direct = || Box::new(DirectRouter { atomic: false });
    let (one_unit, one_unit_events) = run(gen::line(3, xrp(1_000)), direct(), xrp(1));
    let (units, events) = run(gen::line(3, xrp(1_000)), direct(), xrp(7));
    assert_eq!((one_unit, units), (40, 4 * 40));
    assert_eq!(
        events, one_unit_events,
        "one settle per payment, not per unit"
    );
    // Split over two paths, 8 XRP and 4 units on each: one settle per
    // path, so one more event per payment.
    let split = Box::new(SplitRouter { atomic: false });
    let (units, events) = run(gen::cycle(4, xrp(1_000)), split, xrp(16));
    assert_eq!(units, 8 * 40);
    assert_eq!(events, one_unit_events + 40, "one settle per path");
}

#[test]
fn atomic_rollback_cancels_each_batch_once_and_refunds_every_unit() {
    // 0→2 on a 4-cycle whose node-3 side holds 5 XRP per direction: an
    // atomic 14 XRP payment at 1-XRP MTU locks all 7 units of its first
    // half via node 1 (one batch), then 5 of 7 via node 3 (a second
    // batch) before the sixth fails. Rolling back cancels the two
    // batches — no settle ever runs — and refunds all 12 units.
    let mut b = Topology::builder(4);
    for (u, v, cap) in [(0, 1, 20), (1, 2, 20), (0, 3, 10), (3, 2, 10)] {
        b.channel(NodeId(u), NodeId(v), xrp(cap))
            .expect("channel endpoints are distinct known nodes");
    }
    let mut cfg = base_config();
    cfg.mtu = xrp(1);
    let router = Box::new(SplitRouter { atomic: true });
    let txns = vec![txn(100, 0, 2, xrp(14))];
    let (r, sim) = run_checked(new_sim(b.build(), Workload { txns }, router, cfg));
    assert_eq!(r.completed_payments, 0);
    assert_eq!(r.delivered_volume, Amount::ZERO);
    assert_eq!((r.units_locked, r.units_failed), (12, 1));
    let stats = sim.slab_stats();
    assert_eq!(
        stats.events_scheduled - stats.events_executed,
        2,
        "two canceled batches: {stats:?}"
    );
    for (c, ch) in sim.channel_states().iter().enumerate() {
        let half = ch.capacity() / 2;
        for dir in [Direction::Forward, Direction::Backward] {
            assert_eq!(ch.available(dir), half, "channel {c} {dir:?}");
            assert_eq!(ch.inflight(dir), Amount::ZERO, "channel {c} {dir:?}");
        }
    }
}

#[test]
fn a_lockstep_fault_plan_draws_a_verdict_for_each_unit_of_a_batch() {
    // Message loss 0.5 on the only hop: the 20 units of one settle batch
    // each draw their own verdict, so its instant mixes deliveries and
    // refunds, and the per-unit counts partition the batch. The horizon
    // ends before the refunded units' retry could settle.
    let mut cfg = base_config();
    cfg.mtu = xrp(1);
    cfg.horizon = SimDuration::from_millis(900);
    cfg.obs.trace = true;
    let router = Box::new(DirectRouter { atomic: false });
    let txns = vec![txn(0, 0, 1, xrp(20))];
    let mut sim = new_sim(gen::line(2, xrp(100)), Workload { txns }, router, cfg);
    sim.install(Perturbation::Faults(FaultPlan {
        message_loss: vec![0.5],
        ack_loss_prob: 0.0,
        stuck_prob: 0.0,
        jitter_range_ms: None,
        spike_prob: 0.0,
        spike_ms: 0.0,
        hop_timeout: SimDuration::from_secs(1),
        events: Vec::new(),
        runtime_seed: 3,
    }))
    .unwrap();
    let (r, mut sim) = run_checked(sim);
    let trace = sim.take_trace().expect("tracing was on");
    let (mut settled, mut refunded) = (0, 0);
    for e in trace.events().filter(|e| e.t_us == 500_000) {
        match e.kind {
            TraceEventKind::UnitSettled { amount, .. } => {
                assert_eq!(amount, xrp(1));
                settled += 1;
            }
            TraceEventKind::UnitRefunded { amount, .. } => {
                assert_eq!(amount, xrp(1));
                refunded += 1;
            }
            _ => {}
        }
    }
    assert!(
        settled > 0 && refunded > 0,
        "{settled} settled, {refunded} refunded"
    );
    assert_eq!(settled + refunded, 20);
    assert_eq!(r.delivered_volume, xrp(settled));
    assert_eq!(r.faults_injected, refunded);
    assert_eq!(r.drops_by_reason.message_lost, refunded);
    assert_eq!(r.units_dropped, refunded);
}

/// Test router that proposes one hand-interned path for the whole
/// remainder.
struct FixedPath {
    nodes: Vec<NodeId>,
    atomic: bool,
}

impl Router for FixedPath {
    fn name(&self) -> &'static str {
        "fixed-path-test"
    }
    fn route(&mut self, req: &RouteRequest, view: &NetworkView<'_>) -> Vec<RouteProposal> {
        vec![RouteProposal {
            path: view.intern(&self.nodes),
            amount: req.remaining,
        }]
    }
    fn atomic(&self) -> bool {
        self.atomic
    }
}

/// What locking `want` over `hops` one unit at a time records — the
/// reference the engine's one-pass lock must reproduce: each chunk
/// locks hop after hop and rolls back at the first that cannot carry it; after a failed full unit the later full units are counted
/// as failed without being tried; an atomic scheme stops at the first
/// failure and refunds what it locked. Returns the traced `(amount, ok)`
/// lock records and the failures counted.
fn per_unit_reference(
    channels: &mut [ChannelState],
    hops: &[Hop],
    want: Amount,
    mtu: Amount,
    atomic: bool,
) -> (Vec<(Amount, bool)>, u64) {
    let (mut traced, mut failed, mut locked) = (Vec::new(), 0, Vec::new());
    let mut skipping = false;
    for unit in want.mtu_chunks(mtu) {
        if skipping && unit == mtu {
            failed += 1;
            continue;
        }
        let failed_at = hops
            .iter()
            .position(|hop| !channels[hop.channel().index()].lock(hop.direction(), unit));
        let ok = failed_at.is_none();
        for hop in &hops[..failed_at.unwrap_or(0)] {
            channels[hop.channel().index()].refund(hop.direction(), unit);
        }
        traced.push((unit, ok));
        if ok {
            locked.push(unit);
            continue;
        }
        failed += 1;
        if atomic {
            for unit in locked {
                for hop in hops {
                    channels[hop.channel().index()].refund(hop.direction(), unit);
                }
            }
            break;
        }
        skipping = unit == mtu;
    }
    (traced, failed)
}

/// Runs one traced payment of `amount` from `nodes[0]` along `nodes` on
/// `topo` to just after it arrives (before any poll or settle), and
/// checks the balances, lock counts and `lock` trace records against
/// [`per_unit_reference`]. Returns the traced records.
fn check_against_per_unit(
    topo: Topology,
    nodes: &[u32],
    amount: Amount,
    mtu: Amount,
    atomic: bool,
) -> Vec<(Amount, bool)> {
    let nodes: Vec<NodeId> = nodes.iter().map(|&n| NodeId(n)).collect();
    let hops = topo.path_channels(&nodes).expect("a path of the topology");
    let mut channels: Vec<ChannelState> = topo
        .channels()
        .map(|(_, c)| ChannelState::split_equally(c.capacity))
        .collect();
    let (want_traced, want_failed) = per_unit_reference(&mut channels, &hops, amount, mtu, atomic);
    let mut cfg = base_config();
    cfg.mtu = mtu;
    cfg.horizon = SimDuration::from_millis(50);
    cfg.obs.trace = true;
    let router = Box::new(FixedPath { nodes, atomic });
    let txns = vec![txn(0, 0, 1, amount)];
    let (r, mut sim) = run_checked(new_sim(topo, Workload { txns }, router, cfg));
    let trace = sim.take_trace().expect("tracing was on");
    let traced: Vec<(Amount, bool)> = trace
        .events()
        .filter_map(|e| match e.kind {
            TraceEventKind::LockOutcome { amount, ok, .. } => Some((amount, ok)),
            _ => None,
        })
        .collect();
    assert_eq!(traced, want_traced, "lock records");
    let locked = want_traced.iter().filter(|(_, ok)| *ok).count() as u64;
    assert_eq!((r.units_locked, r.units_failed), (locked, want_failed));
    assert_eq!(sim.channel_states(), &channels[..], "balances");
    traced
}

#[test]
fn a_proposal_locks_the_full_units_that_fit_then_its_partial_chunk() {
    // 0→1→2 with 3.5 XRP forward on the second hop: of 6.5 XRP at a
    // 1-XRP MTU, three full units fit, the fourth fails, the last two are
    // counted, and the 0.5 XRP chunk fits what is left.
    let mut b = Topology::builder(3);
    for (u, v, cap) in [(0, 1, xrp(20)), (1, 2, xrp(7))] {
        b.channel(NodeId(u), NodeId(v), cap)
            .expect("channel endpoints are distinct known nodes");
    }
    let half = Amount::from_drops(500_000);
    let traced = check_against_per_unit(b.build(), &[0, 1, 2], xrp(6) + half, xrp(1), false);
    let mut want = vec![(xrp(1), true); 3];
    want.extend([(xrp(1), false), (half, true)]);
    assert_eq!(traced, want);
}

#[test]
fn a_path_crossing_one_direction_twice_fits_half_as_many_units() {
    // 0→1→2→0→1 crosses 0→1 twice: its 5 XRP forward carry two 1-XRP
    // units, not five.
    let traced = check_against_per_unit(
        gen::cycle(3, xrp(10)),
        &[0, 1, 2, 0, 1],
        xrp(4),
        xrp(1),
        false,
    );
    assert_eq!(traced, [(xrp(1), true), (xrp(1), true), (xrp(1), false)]);
}

#[test]
fn an_atomic_proposal_aborts_at_the_first_unit_that_does_not_fit() {
    // As the first case, all or nothing: three units lock, the fourth
    // fails, and every balance is back where it started.
    let mut b = Topology::builder(3);
    for (u, v, cap) in [(0, 1, xrp(20)), (1, 2, xrp(7))] {
        b.channel(NodeId(u), NodeId(v), cap)
            .expect("channel endpoints are distinct known nodes");
    }
    let half = Amount::from_drops(500_000);
    let traced = check_against_per_unit(b.build(), &[0, 1, 2], xrp(6) + half, xrp(1), true);
    let mut want = vec![(xrp(1), true); 3];
    want.push((xrp(1), false));
    assert_eq!(traced, want);
}

/// The RouteProposal instants of payment `pid` in a traced run, µs.
fn proposal_times(sim: &mut Simulation, pid: u64) -> Vec<u64> {
    let trace = sim.take_trace().expect("tracing was on");
    let times = trace.events().filter_map(|e| match e.kind {
        TraceEventKind::RouteProposal { payment, .. } if payment.0 == pid => Some(e.t_us),
        _ => None,
    });
    times.collect()
}

#[test]
fn a_blocked_payment_expires_at_the_first_poll_past_its_deadline() {
    // Payment 1 waits behind an empty 0→1 that nothing refills; its
    // deadline is 1.1 s, so the 1.2 s poll expires it, traces it and
    // takes it out of the queue, without ever re-offering it.
    let mut cfg = base_config();
    cfg.mtu = xrp(1);
    cfg.deadline = Some(SimDuration::from_secs(1));
    cfg.horizon = SimDuration::from_secs(2);
    cfg.obs.trace = true;
    let txns = vec![txn(0, 0, 1, xrp(5)), txn(100, 0, 1, xrp(3))];
    let (r, mut sim) = run_checked(pinned_sim(gen::line(2, xrp(10)), txns, cfg));
    assert_eq!(r.retries, 0);
    assert_eq!(r.completed_payments, 1);
    assert!(sim.pending_witnesses().is_empty());
    let trace = sim.take_trace().expect("tracing was on");
    let expired: Vec<(u64, u64, Amount)> = trace
        .events()
        .filter_map(|e| match e.kind {
            TraceEventKind::PaymentExpired {
                payment, remaining, ..
            } => Some((e.t_us, payment.0, remaining)),
            _ => None,
        })
        .collect();
    assert_eq!(expired, [(1_200_000, 1, xrp(3))]);
}

#[test]
fn a_refilled_witness_with_another_hop_blocked_moves_the_witness() {
    // 0→1→2: payment 0 empties both forward hops. Payment 1 waits with
    // its witness on the first hop. Payment 2 (1→0) refills that hop at
    // 1.5 s, but the second stays empty: payment 1 is skipped again, now
    // witnessed by the second hop.
    let mut cfg = base_config();
    cfg.mtu = xrp(1);
    cfg.deadline = None;
    cfg.obs.trace = true;
    let t = gen::line(3, xrp(10));
    let (first, second) = (ChannelId(0), ChannelId(1));
    let txns = vec![
        txn(0, 0, 2, xrp(5)),
        txn(100, 0, 2, xrp(3)),
        txn(1_000, 1, 0, xrp(4)),
    ];
    for (horizon_ms, witness) in [(1_000, first), (2_000, second)] {
        cfg.horizon = SimDuration::from_millis(horizon_ms);
        let (r, mut sim) = run_checked(pinned_sim(t.clone(), txns.clone(), cfg.clone()));
        assert_eq!(r.retries, 0, "by {horizon_ms} ms");
        let witness = Hop::new(witness, Direction::Forward);
        assert_eq!(
            sim.pending_witnesses(),
            [(1, Some(witness))],
            "by {horizon_ms} ms"
        );
        assert_eq!(proposal_times(&mut sim, 1), [100_000], "by {horizon_ms} ms");
    }
}

#[test]
fn a_refill_of_the_witness_that_unblocks_the_path_goes_through_at_that_poll() {
    // 0→1: payment 1 waits behind the empty forward side, witnessed
    // there. Payment 2 (1→0) settles at 2.5 s, before the 2.5 s poll
    // runs, and that poll re-offers payment 1, which completes.
    let mut cfg = base_config();
    cfg.mtu = xrp(1);
    cfg.deadline = None;
    cfg.obs.trace = true;
    let txns = vec![
        txn(0, 0, 1, xrp(5)),
        txn(100, 0, 1, xrp(3)),
        txn(2_000, 1, 0, xrp(4)),
    ];
    let (r, mut sim) = run_checked(pinned_sim(gen::line(2, xrp(10)), txns, cfg));
    assert_eq!((r.retries, r.completed_payments), (1, 3));
    assert_eq!(proposal_times(&mut sim, 1), [100_000, 2_500_000]);
}
