//! Closed-form cases at event level: small networks whose answer the
//! paper's theory gives exactly, checked against the real engine with no
//! second simulator. A failure here is a finding about the engine, not a
//! tolerance to loosen.

use spider_core::SchemeConfig;
use spider_paygraph::PaymentGraph;
use spider_sim::{QueueConfig, QueueingMode, SimConfig, SimReport, Simulation, TxnSpec, Workload};
use spider_tests::{poisson, CirculationBound};
use spider_topology::gen;
use spider_types::{Amount, DetRng, SimDuration};

/// Every payment's size: one MTU.
const XRP: Amount = Amount::from_xrp(1);

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
/// under the 100 ms poll means a failed payment is retried only when a
/// poll falls within 1 ms of its arrival (1 in 100), and then finds the
/// chain where it left it unless another payment came in that 1 ms: each
/// arrival practically sees the chain's state once.
fn run_chain(
    queueing: &QueueingMode,
    n: usize,
    (la, lb): (f64, f64),
    horizon_s: f64,
    seed: u64,
) -> SimReport {
    let topo = gen::line(2, Amount::from_xrp(n as u64));
    let rng = DetRng::new(seed);
    let mut txns = poisson(&mut rng.fork("a"), la, horizon_s, (0, 1), XRP);
    txns.extend(poisson(&mut rng.fork("b"), lb, horizon_s, (1, 0), XRP));
    txns.sort_by_key(|t| t.time);
    let router = SchemeConfig::ShortestPath.build(&topo, &PaymentGraph::new(2), 0.5);
    let cfg = SimConfig {
        confirmation_delay: SimDuration::from_micros(100),
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

/// What one run of the §5.1 example delivered over the second half of
/// its horizon, and the bounds the theory puts on it there.
struct Example {
    /// Delivered payments per second over `[H/2, H)`.
    rate: f64,
    /// ν of the payments that could complete in that window, per second:
    /// the maximum circulation of the arrivals from `H/2 − deadline` on.
    nu: f64,
    /// The escrow transient, per second: what the channels' funds let the
    /// window deliver beyond a circulation.
    transient: f64,
}

/// The §5.1 example at event level: `gen::paper_example_topology` with
/// `capacity_xrp` per channel, Poisson unit payments at
/// `examples::paper_example_demands`' eight rates over `horizon_s`, no
/// rebalancing, under `scheme` in `queueing` mode.
///
/// Bounds on the window `[H/2, H)` of length `T`: a payment delivered in
/// it arrived after `H/2 − deadline`, so the window delivers at most the
/// [`CirculationBound`] of those arrivals.
fn paper_example(
    scheme: SchemeConfig,
    queueing: QueueingMode,
    capacity_xrp: u64,
    horizon_s: f64,
    seed: u64,
) -> Example {
    use spider_paygraph::examples;
    let demands = examples::paper_example_demands();
    let topo = gen::paper_example_topology(Amount::from_xrp(capacity_xrp));
    let rng = DetRng::new(seed);
    let mut txns: Vec<TxnSpec> = demands
        .edges()
        .flat_map(|e| {
            let mut rng = rng.fork(&format!("{}-{}", e.src, e.dst));
            poisson(&mut rng, e.rate, horizon_s, (e.src.0, e.dst.0), XRP)
        })
        .collect();
    txns.sort_by_key(|t| (t.time, t.src, t.dst));
    let deadline = SimDuration::from_secs(5);
    let half = horizon_s / 2.0;
    let mut arrived = PaymentGraph::new(examples::NODES);
    for t in &txns {
        if t.time.as_secs_f64() >= half - deadline.as_secs_f64() {
            arrived.add_demand(t.src, t.dst, 1.0);
        }
    }
    let window = horizon_s - half;
    let bound = CirculationBound::new(&arrived, &topo);
    let router = scheme.build(&topo, &demands, 0.5);
    let cfg = SimConfig {
        mtu: Amount::from_xrp(1),
        deadline: Some(deadline),
        horizon: SimDuration::from_secs_f64(horizon_s),
        queueing,
        ..SimConfig::default()
    };
    let mut sim = Simulation::new(topo, Workload { txns }, router, cfg).expect("builds");
    let r = sim.run();
    sim.check_conservation();
    let delivered: f64 = r.throughput_series[half as usize..].iter().sum();
    Example {
        rate: delivered / window,
        nu: bound.nu / window,
        transient: bound.transient / window,
    }
}

/// §5.1 at event level, on four seeds of a 2,000 s horizon with 50-XRP
/// channels (Δ = 0.5 s):
///
/// * shortest path's mean delivered rate over `[H/2, H)` sits within 4
///   across-seed standard errors of the 5 units/s the paper computes for
///   balanced shortest-path routing;
/// * in every run, neither the §5 protocol (FIFO) nor Spider (LP,
///   lockstep) delivers more than `ν + transient` (see [`paper_example`];
///   the transient is 1.2/s here);
/// * in every run, each delivers at least what shortest path did on the
///   same arrivals.
///
/// It reports the fraction of ν = 8 each reaches.
#[test]
fn paper_example_reaches_the_circulation_and_not_past_it() {
    use spider_paygraph::examples::{MAX_CIRCULATION, SHORTEST_PATH_THROUGHPUT};
    let (capacity_xrp, horizon_s, seeds) = (50, 2_000.0, 1..=4);
    let fifo = QueueingMode::PerChannelFifo(QueueConfig::default());
    let schemes = [
        ("spider-protocol", SchemeConfig::spider_protocol(4), fifo),
        (
            "spider-lp",
            SchemeConfig::SpiderLp { paths: 4 },
            QueueingMode::Lockstep,
        ),
    ];
    let mut shortest = Vec::new();
    let mut reached = vec![Vec::new(); schemes.len()];
    for seed in seeds {
        let sp = paper_example(
            SchemeConfig::ShortestPath,
            QueueingMode::Lockstep,
            capacity_xrp,
            horizon_s,
            seed,
        );
        shortest.push(sp.rate);
        for ((name, scheme, queueing), reached) in schemes.iter().zip(&mut reached) {
            let e = paper_example(*scheme, queueing.clone(), capacity_xrp, horizon_s, seed);
            assert!(
                e.rate <= e.nu + e.transient,
                "{name}, seed {seed}: {:.3}/s exceeds ν {:.3} + transient {:.3}",
                e.rate,
                e.nu,
                e.transient
            );
            assert!(
                e.rate >= sp.rate,
                "{name}, seed {seed}: {:.3}/s is below shortest path's {:.3}/s",
                e.rate,
                sp.rate
            );
            reached.push(e.rate);
        }
    }
    let (mean, se) = mean_se(&shortest);
    let z = (mean - SHORTEST_PATH_THROUGHPUT) / se;
    assert!(
        z.abs() <= 4.0,
        "shortest path: {mean:.3}/s vs {SHORTEST_PATH_THROUGHPUT}/s, z = {z:.2} ({shortest:?})"
    );
    eprintln!(
        "shortest path: {mean:.3}/s, {:.1} % of ν",
        100.0 * mean / MAX_CIRCULATION
    );
    for ((name, ..), rates) in schemes.iter().zip(&reached) {
        let (mean, _) = mean_se(rates);
        eprintln!(
            "{name}: {mean:.3}/s, {:.1} % of ν",
            100.0 * mean / MAX_CIRCULATION
        );
    }
}
