//! Fund-conservation and accounting invariants, checked by driving the
//! simulator directly (not through the declarative API) so channel state
//! stays inspectable.

use spider_core::experiment::demand_graph;
use spider_core::SchemeConfig;
use spider_sim::{
    QueueConfig, QueueingMode, SimConfig, Simulation, SizeDistribution, Workload, WorkloadConfig,
};
use spider_topology::gen;
use spider_types::{Amount, DetRng, Direction, SimDuration};

fn run_and_check(scheme: SchemeConfig, seed: u64, capacity: Amount) {
    let topo = gen::isp_topology(capacity);
    let mut rng = DetRng::new(seed);
    let workload = Workload::generate(
        topo.node_count(),
        &WorkloadConfig {
            count: 1_200,
            rate_per_sec: 600.0,
            size: SizeDistribution::RippleIsp,
            sender_skew_scale: 8.0,
        },
        &mut rng,
    );
    let demands = demand_graph(&workload, topo.node_count());
    let router = scheme.build(&topo, &demands, 0.5);
    let total_before: Amount = topo.channels().map(|(_, c)| c.capacity).sum();
    let sim_config = SimConfig {
        horizon: SimDuration::from_secs(4),
        ..SimConfig::default()
    };
    let mut sim = Simulation::new(topo, workload, router, sim_config).expect("builds");
    let report = sim.run();

    // Per-channel conservation (available + in-flight == escrow).
    sim.check_conservation();
    // Global conservation.
    let total_after: Amount = sim.channel_states().iter().map(|c| c.total()).sum();
    assert_eq!(
        total_before, total_after,
        "{}: money created or destroyed",
        report.scheme
    );
    // No negative balances can exist by construction (Amount is unsigned),
    // but in-flight must have fully drained or be accounted: available
    // across the network plus inflight equals escrow, already checked.
    // Sanity on metrics.
    assert!(report.delivered_volume <= report.attempted_volume);
}

#[test]
fn conservation_spider_waterfilling() {
    run_and_check(
        SchemeConfig::SpiderWaterfilling { paths: 4 },
        1,
        Amount::from_xrp(8_000),
    );
}

#[test]
fn conservation_spider_lp() {
    run_and_check(
        SchemeConfig::SpiderLp { paths: 4 },
        2,
        Amount::from_xrp(8_000),
    );
}

#[test]
fn conservation_shortest_path() {
    run_and_check(SchemeConfig::ShortestPath, 3, Amount::from_xrp(8_000));
}

#[test]
fn conservation_max_flow() {
    run_and_check(SchemeConfig::MaxFlow, 4, Amount::from_xrp(8_000));
}

#[test]
fn conservation_silentwhispers() {
    run_and_check(SchemeConfig::SilentWhispers, 5, Amount::from_xrp(8_000));
}

#[test]
fn conservation_speedymurmurs() {
    run_and_check(SchemeConfig::SpeedyMurmurs, 6, Amount::from_xrp(8_000));
}

#[test]
fn conservation_under_extreme_scarcity() {
    // Almost-empty channels: nearly everything fails, and still no drop is
    // lost anywhere.
    run_and_check(
        SchemeConfig::SpiderWaterfilling { paths: 4 },
        7,
        Amount::from_xrp(50),
    );
}

#[test]
fn one_way_traffic_ends_fully_imbalanced_but_conserved() {
    // A 2-node network with traffic in one direction only: the channel
    // must end with all spendable funds on the receiver side.
    let capacity = Amount::from_xrp(100);
    let topo = gen::line(2, capacity);
    let txns: Vec<spider_sim::TxnSpec> = (0..10)
        .map(|i| spider_sim::TxnSpec {
            time: spider_types::SimTime::from_secs(i),
            src: spider_types::NodeId(0),
            dst: spider_types::NodeId(1),
            amount: Amount::from_xrp(5),
        })
        .collect();
    let demands = spider_paygraph::PaymentGraph::new(2);
    let router = SchemeConfig::ShortestPath.build(&topo, &demands, 0.5);
    let cfg = SimConfig {
        horizon: SimDuration::from_secs(30),
        ..SimConfig::default()
    };
    let mut sim = Simulation::new(topo, Workload { txns }, router, cfg).expect("builds");
    let report = sim.run();
    sim.check_conservation();
    assert_eq!(report.completed_payments, 10);
    let ch = &sim.channel_states()[0];
    assert_eq!(ch.available(Direction::Forward), Amount::ZERO);
    assert_eq!(ch.available(Direction::Backward), capacity);

    // The closed form on a line A→B→C of unequal capacities, in both
    // engine modes: one-MTU payments, one way only, offered at twice a
    // second until T/2 — twenty MTUs against the three that B→C's forward
    // escrow (30 of its 60 XRP) holds. One-way traffic never refills a
    // forward side, so exactly that escrow is delivered, to the unit, and
    // the three payments that spend it are the last to complete.
    let (ab, bc) = (Amount::from_xrp(100), Amount::from_xrp(60));
    let mut b = spider_topology::Topology::builder(3);
    b.channel(spider_types::NodeId(0), spider_types::NodeId(1), ab)
        .expect("A-B");
    b.channel(spider_types::NodeId(1), spider_types::NodeId(2), bc)
        .expect("B-C");
    let topo = b.build();
    let horizon = SimDuration::from_secs(20);
    let mtu = SimConfig::default().mtu;
    let txns: Vec<spider_sim::TxnSpec> = (0..20)
        .map(|i| spider_sim::TxnSpec {
            time: spider_types::SimTime::from_micros(500_000 * i),
            src: spider_types::NodeId(0),
            dst: spider_types::NodeId(2),
            amount: mtu,
        })
        .collect();
    assert!(txns
        .iter()
        .all(|t| t.time.as_secs_f64() < horizon.as_secs_f64() / 2.0));
    let escrow = bc / 2;
    for (mode, queueing) in [
        ("lockstep", QueueingMode::Lockstep),
        ("fifo", QueueingMode::PerChannelFifo(QueueConfig::default())),
    ] {
        let demands = spider_paygraph::PaymentGraph::new(3);
        let router = SchemeConfig::ShortestPath.build(&topo, &demands, 0.5);
        let cfg = SimConfig {
            horizon,
            queueing,
            ..SimConfig::default()
        };
        let workload = Workload { txns: txns.clone() };
        let mut sim = Simulation::new(topo.clone(), workload, router, cfg).expect("builds");
        let report = sim.run();
        sim.check_conservation();
        assert_eq!(report.attempted_payments, 20, "{mode}");
        assert_eq!(report.delivered_volume, escrow, "{mode}");
        assert_eq!(report.completed_volume, escrow, "{mode}");
        assert_eq!(report.completed_payments, 3, "{mode}");
        // The third payment arrives at 1 s and spends the last of the
        // escrow; it settles within Δ (0.5 s) plus two hop delays. The
        // fourth arrives at 1.5 s and could settle no earlier than 2 s:
        // nothing may be delivered from then on, though payments keep
        // arriving until 10 s.
        let late: f64 = report.throughput_series.iter().skip(2).sum();
        assert_eq!(late, 0.0, "{mode}: {:?}", report.throughput_series);
        // Every unit that did not deliver was failed back to A: A→B keeps
        // its escrow less the three delivered MTUs, B→C is drained.
        let (ab_state, bc_state) = (&sim.channel_states()[0], &sim.channel_states()[1]);
        assert_eq!(
            ab_state.available(Direction::Forward),
            ab / 2 - escrow,
            "{mode}"
        );
        assert_eq!(
            ab_state.available(Direction::Backward),
            ab / 2 + escrow,
            "{mode}"
        );
        assert_eq!(
            bc_state.available(Direction::Forward),
            Amount::ZERO,
            "{mode}"
        );
        assert_eq!(bc_state.available(Direction::Backward), bc, "{mode}");
    }
}

/// The line A→B→C with on-chain rebalancing (§5.2.3), in both engine
/// modes: one-MTU payments, one way only, offered far faster than B→C's
/// forward side is refilled. A→B is deep enough never to deplete, so B→C
/// forward is the only direction the depletion scan tops up, and every
/// top-up is spent as soon as it lands. Delivered volume over `T` is
/// then the initial escrow plus one top-up per confirmation cycle, each
/// to `target_fraction` of the channel's capacity at the time.
///
/// The cycle, from the scan's rules: scans run at every multiple of
/// `check_interval` (1 s). A scan that finds the direction below
/// `trigger_fraction` schedules a deposit `confirmation_delay` (2.5 s)
/// later, and no second deposit while one is pending. Demand spends a
/// deposit within 0.2 s of its landing (FIFO: at once, from the units
/// queued at B; lockstep: by the next arrivals and poll retries), before
/// the next scan, 0.5 s after the landing. (Payments have no deadline:
/// a lockstep retry that locks a unit its deadline then refunds would
/// hand the deposit back after the scan.) So the scan at `s` triggers
/// the deposit landing at `s + 2.5 s`, and the scan at `s + 3 s`, which
/// finds it spent, triggers the next: one top-up every
/// `check_interval · ⌈confirmation_delay / check_interval⌉` = 3 s. The
/// 500 XRP escrow is gone at 0.5 s (1,000 XRP/s offered), so the first
/// trigger is the scan at 1 s, and deposits land at 3.5 s, 6.5 s, … —
/// the nine up to 27.5 s are spent and settle (Δ = 0.5 s plus two hop
/// delays) before `T` = 30 s.
#[test]
fn on_chain_rebalancing_adds_one_top_up_per_cycle() {
    use spider_sim::config::RebalancingConfig;
    use spider_types::{NodeId, SimTime};
    let (ab, bc) = (Amount::from_xrp(1_000_000), Amount::from_xrp(1_000));
    let mut b = spider_topology::Topology::builder(3);
    b.channel(NodeId(0), NodeId(1), ab).expect("A-B");
    b.channel(NodeId(1), NodeId(2), bc).expect("B-C");
    let topo = b.build();
    let horizon = SimDuration::from_secs(30);
    let rebalancing = RebalancingConfig {
        check_interval: SimDuration::from_secs(1),
        trigger_fraction: 0.05,
        target_fraction: 0.1,
        confirmation_delay: SimDuration::from_millis(2_500),
    };
    let mtu = SimConfig::default().mtu;
    // One MTU every 10 ms, until the horizon.
    let txns: Vec<spider_sim::TxnSpec> = (0..3_000)
        .map(|i| spider_sim::TxnSpec {
            time: SimTime::from_micros(10_000 * i),
            src: NodeId(0),
            dst: NodeId(2),
            amount: mtu,
        })
        .collect();
    // The cycle and the deposits that land, are spent and settle by `T`.
    let check = rebalancing.check_interval.as_secs_f64();
    let delay = rebalancing.confirmation_delay.as_secs_f64();
    let cycle = check * (delay / check).ceil();
    let first_landing = check + delay;
    let landed = ((horizon.as_secs_f64() - 1.0 - first_landing) / cycle).floor() as usize + 1;
    assert_eq!((cycle, landed), (3.0, 9));
    // Each top-up refills to `target_fraction` of the capacity, which
    // the top-up itself then grows; a top-up is spent in whole MTUs, and
    // what is left (less than one) counts toward the next.
    let (mut capacity, mut left, mut top_ups) = (bc, Amount::ZERO, Vec::new());
    for _ in 0..landed {
        let top_up = capacity.mul_f64(rebalancing.target_fraction) - left;
        capacity += top_up;
        left += top_up;
        left = Amount::from_drops(left.drops() % mtu.drops());
        top_ups.push(top_up);
    }
    let escrow = bc / 2;
    let want = escrow + top_ups.iter().copied().sum::<Amount>();
    let one_top_up = *top_ups.last().expect("deposits land");
    for (mode, queueing) in [
        ("lockstep", QueueingMode::Lockstep),
        ("fifo", QueueingMode::PerChannelFifo(QueueConfig::default())),
    ] {
        let demands = spider_paygraph::PaymentGraph::new(3);
        let router = SchemeConfig::ShortestPath.build(&topo, &demands, 0.5);
        let cfg = SimConfig {
            horizon,
            queueing,
            rebalancing: Some(rebalancing.clone()),
            deadline: None,
            ..SimConfig::default()
        };
        let workload = Workload { txns: txns.clone() };
        let mut sim = Simulation::new(topo.clone(), workload, router, cfg).expect("builds");
        let report = sim.run();
        sim.check_conservation();
        assert_eq!(report.rebalance_ops, landed as u64, "{mode}");
        let got = report.delivered_volume;
        let gap = if got > want { got - want } else { want - got };
        assert!(
            gap <= one_top_up,
            "{mode}: delivered {got}, want {want} ± {one_top_up} ({top_ups:?})"
        );
        // Only B→C forward was ever topped up.
        let (ab_state, bc_state) = (&sim.channel_states()[0], &sim.channel_states()[1]);
        assert_eq!(ab_state.capacity(), ab, "{mode}");
        assert_eq!(bc_state.capacity() - bc, report.onchain_deposited, "{mode}");
    }
}
