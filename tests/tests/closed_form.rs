//! Closed-form cases at event level: small networks whose answer the
//! paper's theory gives exactly, checked against the real engine with no
//! second simulator. A failure here is a finding about the engine, not a
//! tolerance to loosen.

use spider_core::SchemeConfig;
use spider_paygraph::PaymentGraph;
use spider_sim::{QueueConfig, QueueingMode, SimConfig, SimReport, Simulation, TxnSpec, Workload};
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

/// One seed of the two-node chain: one channel of `n` one-XRP MTUs,
/// unit payments `A → B` at `la` and `B → A` at `lb` per second over
/// `horizon_s`. Δ = 100 µs (and the §5 engine's 10 ms hop delay) is
/// small against the inter-arrival times (≥ 50 ms), and a 1 ms deadline
/// under a 1 s poll means a failed payment is practically never retried,
/// so each arrival sees the chain's state once.
fn run_chain(
    queueing: &QueueingMode,
    n: usize,
    (la, lb): (f64, f64),
    horizon_s: f64,
    seed: u64,
) -> SimReport {
    let topo = gen::line(2, Amount::from_xrp(n as u64));
    let rng = DetRng::new(seed);
    let mut txns = poisson(&mut rng.fork("a"), la, horizon_s, 0, 1);
    txns.extend(poisson(&mut rng.fork("b"), lb, horizon_s, 1, 0));
    txns.sort_by_key(|t| t.time);
    let router = SchemeConfig::ShortestPath.build(&topo, &PaymentGraph::new(2), 0.5);
    let cfg = SimConfig {
        confirmation_delay: SimDuration::from_micros(100),
        poll_interval: SimDuration::from_secs(1),
        mtu: Amount::from_xrp(1),
        deadline: Some(SimDuration::from_millis(1)),
        horizon: SimDuration::from_secs_f64(horizon_s),
        queueing: queueing.clone(),
        ..SimConfig::default()
    };
    let mut sim = Simulation::new(topo, Workload { txns }, router, cfg).expect("builds");
    let r = sim.run();
    sim.check_conservation();
    r
}

/// Across-seed mean and standard error of the mean.
fn mean_se(xs: &[f64]) -> (f64, f64) {
    let k = xs.len() as f64;
    let mean = xs.iter().sum::<f64>() / k;
    let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (k - 1.0);
    (mean, (var / k).sqrt())
}

/// For each `N` and rate pair of the two-node chain, the 8-seed mean
/// success ratio must sit within 4 across-seed standard errors of the
/// closed form.
///
/// The horizon is 2,000 s because the chain starts at `k = N/2`, not from
/// `π`: at 400 s that start transient still showed (`N = 16` at equal
/// rates read 0.9476 against 0.9412, z = 3.1).
fn birth_death_chain_matches_its_closed_form(queueing: QueueingMode) {
    let horizon_s = 2_000.0;
    for n in [4usize, 16] {
        for (la, lb) in [(10.0, 10.0), (10.0, 5.0)] {
            let ratios: Vec<f64> = (0..8)
                .map(|seed| {
                    let r = run_chain(&queueing, n, (la, lb), horizon_s, seed);
                    r.completed_payments as f64 / r.attempted_payments as f64
                })
                .collect();
            let (mean, se) = mean_se(&ratios);
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

/// The chain's throughput limit: as the channel grows, the delivered rate
/// tends to `2·min(λ_A, λ_B)` — the faster side drains its balance and
/// then sends only what the slower side returns. At `N = 64` and
/// λ = (10, 5) the 8-seed mean delivered rate must sit within 4 SEs of
/// 10/s; at `N = 4` (closed form 9.68/s) it must sit below 10/s by more
/// than 4 SEs, so the test shows a limit being approached, not a
/// constant.
fn throughput_tends_to_twice_the_slower_rate(queueing: QueueingMode) {
    let (horizon_s, (la, lb)) = (2_000.0, (10.0, 5.0));
    let limit = 2.0 * f64::min(la, lb);
    let rate_z = |n: usize| {
        let rates: Vec<f64> = (0..8)
            .map(|seed| {
                run_chain(&queueing, n, (la, lb), horizon_s, seed).completed_payments as f64
                    / horizon_s
            })
            .collect();
        let (mean, se) = mean_se(&rates);
        ((mean - limit) / se, mean, rates)
    };
    let (z, mean, rates) = rate_z(64);
    assert!(
        z.abs() <= 4.0,
        "{queueing:?}, N = 64: rate {mean:.4}/s vs limit {limit}/s, z = {z:.2} ({rates:?})"
    );
    let (z, mean, rates) = rate_z(4);
    assert!(
        z < -4.0,
        "{queueing:?}, N = 4: rate {mean:.4}/s should sit below the limit {limit}/s, \
         z = {z:.2} ({rates:?})"
    );
}

#[test]
fn two_node_birth_death_chain_lockstep() {
    birth_death_chain_matches_its_closed_form(QueueingMode::Lockstep);
}

#[test]
fn two_node_birth_death_chain_fifo() {
    birth_death_chain_matches_its_closed_form(QueueingMode::PerChannelFifo(QueueConfig::default()));
}

#[test]
fn two_node_throughput_limit_lockstep() {
    throughput_tends_to_twice_the_slower_rate(QueueingMode::Lockstep);
}

#[test]
fn two_node_throughput_limit_fifo() {
    throughput_tends_to_twice_the_slower_rate(QueueingMode::PerChannelFifo(QueueConfig::default()));
}
