//! Closed-form cases at event level: small networks whose answer the
//! paper's theory gives exactly, checked against the real engine with no
//! second simulator. A failure here is a finding about the engine, not a
//! tolerance to loosen.

use spider_core::SchemeConfig;
use spider_lp::fluid::{FluidProblem, FluidSolution, PathSelection};
use spider_paygraph::{generate, PaymentGraph};
use spider_sim::{QueueConfig, QueueingMode, SimConfig, SimReport, Simulation, Workload};
use spider_tests::gap::GapReport;
use spider_tests::poisson;
use spider_tests::stationary::{stationary, Window, XRP};
use spider_topology::{gen, Topology};
use spider_types::{Amount, DetRng, SimDuration};

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

/// §5.1 at event level, on four seeds of a 2,000 s horizon with 50-XRP
/// channels (Δ = 0.5 s):
///
/// * shortest path's mean delivered rate over `[H/2, H)` sits within 4
///   across-seed standard errors of the 5 units/s the paper computes for
///   balanced shortest-path routing;
/// * in every run, neither the §5 protocol (FIFO) nor Spider (LP,
///   lockstep) delivers more than `ν + transient`
///   ([`Window::circulation_bound`]; the transient is 1.2/s here);
/// * in every run, each delivers at least what shortest path did on the
///   same arrivals.
///
/// It reports the fraction of ν = 8 each reaches.
#[test]
fn paper_example_reaches_the_circulation_and_not_past_it() {
    use spider_paygraph::examples::{self, MAX_CIRCULATION, SHORTEST_PATH_THROUGHPUT};
    let (horizon_s, seeds) = (2_000.0, 1..=4);
    let topo = gen::paper_example_topology(Amount::from_xrp(50));
    let demands = examples::paper_example_demands();
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
        let run = |scheme, queueing| stationary(scheme, queueing, &topo, &demands, horizon_s, seed);
        let sp = run(SchemeConfig::ShortestPath, QueueingMode::Lockstep);
        shortest.push(sp.rate);
        for ((name, scheme, queueing), reached) in schemes.iter().zip(&mut reached) {
            let e = run(*scheme, queueing.clone());
            let (nu, transient) = e.circulation_bound(&topo);
            assert!(
                e.rate <= nu + transient,
                "{name}, seed {seed}: {:.3}/s exceeds ν {nu:.3} + transient {transient:.3}",
                e.rate,
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

/// Candidate paths per pair, for the §5 protocol and its fluid optimum
/// alike (§6.1 uses 4).
const PATHS: usize = 4;

/// `mixed_demand` matrices of 100 payments/s on `topo`, at 100 % and at
/// 50 % circulation, drawn from `name`'s stream, each with its floor: the
/// least fraction of the balanced optimum the protocol must deliver over
/// `[H/2, H)`.
///
/// The floors sit 5 and 15 pt under the optimum. Their margins, the least
/// fraction measured on the three seeds less the floor, were 2.3 and
/// 6.1 pt on ISP and 2.7 and 7.1 pt on the Ripple-like graph.
fn stationary_demands(name: &str, topo: &Topology) -> [(PaymentGraph, f64); 2] {
    let n = topo.node_count();
    [(1.0, 0.95), (0.5, 0.85)].map(|(circulation, floor)| {
        let mut rng = DetRng::new(0).fork(name);
        (
            generate::mixed_demand(n, 100.0, circulation, &mut rng),
            floor,
        )
    })
}

/// The balanced fluid optimum (eqs. 1–5) of `demands` on `topo` over the
/// k edge-disjoint paths of the plain search — the search the router's
/// path oracle is tested against, so the LP and the router share one
/// path set — with the engine's Δ = 0.5 s.
fn balanced_optimum(topo: &Topology, demands: &PaymentGraph) -> FluidSolution {
    let problem = FluidProblem::new(topo, demands, 0.5, PathSelection::KEdgeDisjoint(PATHS));
    problem.solve_balanced().expect("solves")
}

/// The most the window `w` can deliver on `topo` with no on-chain
/// rebalancing: `t(B)` (eqs. 12–18) on the window's arrival rates, with
/// budget `B = Σ_e c_e / T` and a Δ so small that no capacity row binds.
///
/// Let `x_p` be the units the window delivers over path `p`, per second
/// of the window. Then `x` is feasible for that LP:
///
/// * demand rows: a unit is delivered only while its payment is live (a
///   lapsed payment's unit drops where it would have been delivered), so
///   it arrived from `H/2 − deadline` on, and a payment is one unit;
/// * paths: the router's candidates are the plain search's, the LP's;
/// * rebalancing rows: the engine settles a unit on every hop of its path
///   at its delivery instant. A side's settled balance — what it holds
///   plus what it has locked toward the other side — is never negative,
///   and the two sides sum to `c_e`, so it stays in `[0, c_e]`. What the
///   window settles across `e` one way, less the other way, is therefore
///   at most `c_e`: with `b_e` the excess in its direction,
///   `Σ b ≤ Σ_e c_e / T = B`;
/// * capacity rows (`c_e/Δ`, here twice the window's whole arrival rate):
///   a simple path crosses a channel at most once, so a channel carries
///   at most the whole delivered rate.
///
/// So `x` totals at most `t(B)`; the check allows the simplex's rounding
/// (a relative 1e-9) and no more. On ISP, `B` is 38/s at `T = 200 s`,
/// where [`CirculationBound`]'s transient `(n − 1) Σ_e c_e / T` is
/// 1,178/s, above the whole arrival rate and so no bound at all.
fn window_ceiling(topo: &Topology, w: &Window) -> f64 {
    let capacities = || topo.channels().map(|(_, c)| c.capacity.as_xrp());
    let mut rates = PaymentGraph::new(w.arrived.node_count());
    for e in w.arrived.edges() {
        rates.add_demand(e.src, e.dst, e.rate / w.secs);
    }
    let delta = capacities().fold(f64::INFINITY, f64::min) / (2.0 * rates.total_demand());
    let problem = FluidProblem::new(topo, &rates, delta, PathSelection::KEdgeDisjoint(PATHS));
    let budget = capacities().sum::<f64>() / w.secs;
    problem.throughput_with_budget(budget).expect("solves")
}

/// §5.3 (eqs. 21–24): the protocol's price and window updates drive the
/// network toward the throughput-optimal balanced fluid solution. On
/// each of `name`'s [`stationary_demands`] on `topo`, over three seeds of
/// a 400 s horizon, what the §5 protocol delivers over `[H/2, H)`:
///
/// * is at least the matrix's floor times the balanced optimum on the
///   same path set ([`balanced_optimum`], solved once per matrix);
/// * is at most [`window_ceiling`] in every run, a bound that holds for
///   any scheme;
/// * falls short of the optimum by exactly the sum of its [`GapReport`]
///   terms, which each run prints with its largest channel drift.
fn protocol_approaches_its_fluid_optimum(name: &str, topo: &Topology) {
    let (horizon_s, seeds) = (400.0, 1..=3);
    let fifo = QueueingMode::PerChannelFifo(QueueConfig::default());
    for (demands, floor) in stationary_demands(name, topo) {
        let solution = balanced_optimum(topo, &demands);
        let optimum = solution.throughput;
        for seed in seeds.clone() {
            let scheme = SchemeConfig::spider_protocol(PATHS);
            let w = stationary(scheme, fifo.clone(), topo, &demands, horizon_s, seed);
            let ceiling = window_ceiling(topo, &w);
            let what = format!(
                "{name} at {} pairs, seed {seed}: {:.3}/s against the optimum {optimum:.3}/s \
                 ({:.1} %) and the ceiling {ceiling:.3}/s",
                demands.edge_count(),
                w.rate,
                100.0 * w.rate / optimum
            );
            assert!(w.rate >= floor * optimum, "{what}: below the floor {floor}");
            assert!(
                w.rate <= ceiling * (1.0 + 1e-9),
                "{what}: above the ceiling"
            );
            let gap = GapReport::new(topo, &demands, &solution, &w);
            let sum: f64 = gap.terms.iter().map(|(_, v)| v).sum();
            let measured = optimum - w.rate;
            assert!(
                (sum - measured).abs() <= 1e-9 * optimum,
                "{what}: the gap terms sum to {sum}, the gap is {measured}"
            );
            let terms: Vec<String> = gap
                .terms
                .iter()
                .map(|(n, v)| format!("{n} {v:.3}"))
                .collect();
            eprintln!(
                "{what}\n  gap {measured:.3}/s = {}; max drift {:.3}/s; in the window \
                 {} payments expired and units dropped {:?}",
                terms.join(", "),
                gap.max_drift(),
                gap.expired,
                gap.drops
            );
        }
    }
}

#[test]
fn protocol_approaches_its_fluid_optimum_on_isp() {
    let topo = gen::isp_topology(Amount::from_xrp(50));
    protocol_approaches_its_fluid_optimum("isp", &topo);
}

/// 20 nodes keep the 50 % matrix under 80 pairs: the dense simplex's
/// time grows fast with pairs.
#[test]
fn protocol_approaches_its_fluid_optimum_on_ripple() {
    let mut rng = DetRng::new(0).fork("ripple");
    let topo = gen::ripple_like(20, Amount::from_xrp(50), &mut rng);
    protocol_approaches_its_fluid_optimum("ripple", &topo);
}
