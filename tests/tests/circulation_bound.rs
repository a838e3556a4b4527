//! The circulation bound on the real engine: no scheme, in either
//! transport, delivers more than `ν(arrivals) + (n − 1) Σ_e c_e` (see
//! [`CirculationBound`]) without on-chain rebalancing. A miss is a
//! finding about the engine's accounting, not a bound to loosen.

use spider_core::experiment::demand_graph;
use spider_core::SchemeConfig;
use spider_paygraph::generate::mixed_demand;
use spider_paygraph::PaymentGraph;
use spider_sim::{QueueConfig, QueueingMode, SimConfig, Simulation, TxnSpec, Workload};
use spider_tests::{poisson, CirculationBound};
use spider_topology::{gen, Topology};
use spider_types::{Amount, DetRng, SimDuration};

const NODES: usize = 10;
/// Every payment's size, one MTU.
const PAYMENT_XRP: u64 = 2;
/// Arrivals run over `[0, SPAN_S)`; the horizon adds a deadline.
const SPAN_S: f64 = 30.0;
/// Offered payments per second, across all pairs.
const RATE: f64 = 100.0;

/// A small random topology of `NODES` nodes with 10-XRP channels.
fn topology(seed: u64) -> Topology {
    let mut rng = DetRng::new(seed).fork("topology");
    let capacity = Amount::from_xrp(10);
    if seed.is_multiple_of(2) {
        gen::watts_strogatz(NODES, 4, 0.3, capacity, &mut rng)
    } else {
        gen::barabasi_albert(NODES, 2, capacity, &mut rng)
    }
}

/// Poisson arrivals of one-MTU payments at `demand`'s relative rates,
/// scaled to [`RATE`] payments per second overall.
fn arrivals(demand: &PaymentGraph, rng: &DetRng) -> Vec<TxnSpec> {
    let scale = RATE / demand.total_demand();
    let amount = Amount::from_xrp(PAYMENT_XRP);
    let mut txns: Vec<TxnSpec> = demand
        .edges()
        .flat_map(|e| {
            let mut rng = rng.fork(&format!("{}-{}", e.src, e.dst));
            let pair = (e.src.0, e.dst.0);
            poisson(&mut rng, e.rate * scale, SPAN_S, pair, amount)
        })
        .collect();
    txns.sort_by_key(|t| (t.time, t.src, t.dst));
    txns
}

/// Every scheme, under lockstep and — for the non-atomic ones, which the
/// engine runs hop by hop — under the §5 FIFO queues, on one seed's
/// topology and `demand`: each run delivers at most the bound, and
/// returns the offered volume over the bound.
fn check(seed: u64, demand: &PaymentGraph, what: &str) -> f64 {
    let topo = topology(seed);
    let txns = arrivals(demand, &DetRng::new(seed).fork(what));
    let mut arrived = PaymentGraph::new(NODES);
    for t in &txns {
        arrived.add_demand(t.src, t.dst, t.amount.as_xrp());
    }
    let bound = CirculationBound::new(&arrived, &topo);
    let workload = Workload { txns };
    let estimate = demand_graph(&workload, NODES);
    let fifo = QueueingMode::PerChannelFifo(QueueConfig::default());
    for scheme in SchemeConfig::extended_lineup() {
        for queueing in [QueueingMode::Lockstep, fifo.clone()] {
            let router = scheme.build(&topo, &estimate, 0.5);
            if router.atomic() && queueing != QueueingMode::Lockstep {
                continue;
            }
            let cfg = SimConfig {
                horizon: SimDuration::from_secs_f64(SPAN_S + 5.0),
                queueing: queueing.clone(),
                ..SimConfig::default()
            };
            let mut sim =
                Simulation::new(topo.clone(), workload.clone(), router, cfg).expect("valid config");
            let report = sim.run();
            sim.check_conservation();
            let delivered = report.delivered_volume.as_xrp();
            assert!(
                delivered <= bound.total(),
                "{what}, seed {seed}, {} under {queueing:?}: delivered {delivered:.1} XRP \
                 exceeds ν {:.1} + transient {:.1}",
                scheme.name(),
                bound.nu,
                bound.transient,
            );
        }
    }
    arrived.total_demand() / bound.total()
}

#[test]
fn no_scheme_delivers_past_the_circulation_bound() {
    for seed in [1, 2, 3] {
        let mut rng = DetRng::new(seed).fork("demand");
        let balanced = mixed_demand(NODES, 1.0, 0.9, &mut rng);
        check(seed, &balanced, "balanced");
        // DAG-heavy: ν is a small share of what is offered, so the bound
        // sits well below the offered volume and is what limits delivery.
        let dag_heavy = mixed_demand(NODES, 1.0, 0.1, &mut rng);
        let offered_over_bound = check(seed, &dag_heavy, "dag-heavy");
        assert!(
            offered_over_bound > 1.5,
            "seed {seed}: the DAG-heavy demand offers only {offered_over_bound:.2}× the bound"
        );
    }
}
