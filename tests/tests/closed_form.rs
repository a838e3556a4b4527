//! Closed-form cases at event level: small networks whose answer the
//! paper's theory gives exactly, checked against the real engine with no
//! second simulator. A failure here is a finding about the engine, not a
//! tolerance to loosen.

use spider_core::SchemeConfig;
use spider_paygraph::PaymentGraph;
use spider_sim::{QueueConfig, QueueingMode, SimConfig, Simulation, TxnSpec, Workload};
use spider_topology::gen;
use spider_types::distr::{Distribution, Exponential};
use spider_types::{Amount, DetRng, NodeId, SimDuration, SimTime};

/// A Poisson stream of one-MTU payments `src → dst` at `rate` per second
/// over `[0, horizon_s)`.
fn poisson(rng: &mut DetRng, rate: f64, horizon_s: f64, src: u32, dst: u32) -> Vec<TxnSpec> {
    let gap = Exponential::new(rate);
    let mut t = gap.sample(rng);
    let mut txns = Vec::new();
    while t < horizon_s {
        txns.push(TxnSpec {
            time: SimTime::from_secs_f64(t),
            src: NodeId(src),
            dst: NodeId(dst),
            amount: Amount::from_xrp(1),
        });
        t += gap.sample(rng);
    }
    txns
}

/// The stationary success ratio of the two-node chain: `A`'s balance `k`
/// (in MTUs) is a birth–death chain on `{0..n}`, down at `λ_A` while
/// `k > 0` and up at `λ_B` while `k < n`, so `π(k) ∝ (λ_B/λ_A)^k`. An
/// `A → B` payment succeeds unless `k = 0`, a `B → A` one unless `k = n`.
fn birth_death_success(n: usize, la: f64, lb: f64) -> f64 {
    let weights: Vec<f64> = (0..=n).map(|k| (lb / la).powi(k as i32)).collect();
    let z: f64 = weights.iter().sum();
    let (p0, pn) = (weights[0] / z, weights[n] / z);
    (la * (1.0 - p0) + lb * (1.0 - pn)) / (la + lb)
}

/// Two nodes, one channel of `N` one-XRP MTUs, unit payments in two
/// independent Poisson streams. Δ = 100 µs (and the §5 engine's 10 ms hop
/// delay) is small against the inter-arrival times (≥ 50 ms), and a 1 ms
/// deadline under a 1 s poll means a failed payment is practically never
/// retried, so each arrival sees the chain's state once. For each `N` and
/// rate pair, the 8-seed mean success ratio must sit within 4
/// across-seed standard errors of the closed form.
///
/// The horizon is 2,000 s because the chain starts at `k = N/2`, not from
/// `π`: at 400 s that start transient still showed (`N = 16` at equal
/// rates read 0.9476 against 0.9412, z = 3.1).
fn birth_death_chain_matches_its_closed_form(queueing: QueueingMode) {
    let horizon_s = 2_000.0;
    let seeds = 8u64;
    for n in [4usize, 16] {
        for (la, lb) in [(10.0, 10.0), (10.0, 5.0)] {
            let ratios: Vec<f64> = (0..seeds)
                .map(|seed| {
                    let topo = gen::line(2, Amount::from_xrp(n as u64));
                    let rng = DetRng::new(seed);
                    let mut txns = poisson(&mut rng.fork("a"), la, horizon_s, 0, 1);
                    txns.extend(poisson(&mut rng.fork("b"), lb, horizon_s, 1, 0));
                    txns.sort_by_key(|t| t.time);
                    let router =
                        SchemeConfig::ShortestPath.build(&topo, &PaymentGraph::new(2), 0.5);
                    let cfg = SimConfig {
                        confirmation_delay: SimDuration::from_micros(100),
                        poll_interval: SimDuration::from_secs(1),
                        mtu: Amount::from_xrp(1),
                        deadline: Some(SimDuration::from_millis(1)),
                        horizon: SimDuration::from_secs_f64(horizon_s),
                        queueing: queueing.clone(),
                        ..SimConfig::default()
                    };
                    let mut sim =
                        Simulation::new(topo, Workload { txns }, router, cfg).expect("builds");
                    let r = sim.run();
                    sim.check_conservation();
                    r.completed_payments as f64 / r.attempted_payments as f64
                })
                .collect();
            let mean = ratios.iter().sum::<f64>() / seeds as f64;
            let var = ratios.iter().map(|r| (r - mean).powi(2)).sum::<f64>() / (seeds - 1) as f64;
            let se = (var / seeds as f64).sqrt();
            let want = birth_death_success(n, la, lb);
            let z = (mean - want) / se;
            assert!(
                z.abs() <= 4.0,
                "{queueing:?}, N = {n}, λ = ({la}, {lb}): mean {mean:.4} vs closed form \
                 {want:.4}, z = {z:.2} ({ratios:?})"
            );
        }
    }
}

#[test]
fn two_node_birth_death_chain_lockstep() {
    birth_death_chain_matches_its_closed_form(QueueingMode::Lockstep);
}

#[test]
fn two_node_birth_death_chain_fifo() {
    birth_death_chain_matches_its_closed_form(QueueingMode::PerChannelFifo(QueueConfig::default()));
}
