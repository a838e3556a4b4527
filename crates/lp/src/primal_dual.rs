//! The decentralized primal-dual algorithm of §5.3 (eqs. 21–24).
//!
//! Each channel direction keeps two prices: λ (capacity congestion) and µ
//! (imbalance). The price of traversing edge `(u,v)` is
//! `z_(u,v) = λ_(u,v) + λ_(v,u) + µ_(u,v) − µ_(v,u)`; a path's price is the
//! sum over its hops. End-hosts nudge each path's rate toward cheap paths
//! (`x_p += α(1 − z_p)`, projected onto the demand simplex), routers update
//! prices from what they observe locally, and — when on-chain rebalancing
//! is enabled — each channel adapts its top-up rate `b_(u,v)` by comparing
//! its imbalance price µ against the rebalancing cost γ.
//!
//! For small step sizes the iterates converge to the optimum of the LP in
//! eqs. (6)–(11); the tests verify convergence against the simplex solver.

use crate::fluid::{FluidProblem, PathFlow, PathSelection};
use crate::paths::Path;
use spider_paygraph::PaymentGraph;
use spider_topology::Topology;
use spider_types::{Direction, NodeId};

/// Step sizes and run length for the primal-dual iteration.
#[derive(Debug, Clone)]
pub struct PrimalDualConfig {
    /// Path-rate step size α (eq. 21).
    pub alpha: f64,
    /// Rebalancing-rate step size β (eq. 22).
    pub beta: f64,
    /// Capacity-price step size η (eq. 23).
    pub eta: f64,
    /// Imbalance-price step size κ (eq. 24).
    pub kappa: f64,
    /// On-chain rebalancing cost γ; ignored unless `rebalancing`.
    pub gamma: f64,
    /// Whether channels may rebalance on-chain (b > 0).
    pub rebalancing: bool,
    /// Number of iterations.
    pub iterations: usize,
    /// Record the throughput every `sample_every` iterations.
    pub sample_every: usize,
}

impl PrimalDualConfig {
    /// Step sizes that converge reliably when demands are O(`scale`) units
    /// per second: rate steps proportional to the demand scale, price steps
    /// inversely proportional (so prices move O(1) per round trip).
    pub fn for_demand_scale(scale: f64) -> Self {
        assert!(scale > 0.0 && scale.is_finite(), "invalid demand scale");
        PrimalDualConfig {
            alpha: 0.01 * scale,
            beta: 0.01 * scale,
            eta: 0.01 / scale,
            kappa: 0.01 / scale,
            gamma: 0.0,
            rebalancing: false,
            iterations: 20_000,
            sample_every: 100,
        }
    }
}

/// Result of a primal-dual run.
#[derive(Debug, Clone)]
pub struct PrimalDualSolution {
    /// Final total rate (Σ x_p).
    pub throughput: f64,
    /// Final per-path rates (zero-rate paths omitted).
    pub flows: Vec<PathFlow>,
    /// Final total on-chain rebalancing rate (0 unless enabled).
    pub total_rebalancing: f64,
    /// `(iteration, throughput)` samples for convergence plots.
    pub trajectory: Vec<(usize, f64)>,
}

/// Runs the primal-dual algorithm on `topo`/`demands` with candidate paths
/// chosen by `selection`.
pub fn solve(
    topo: &Topology,
    demands: &PaymentGraph,
    delta: f64,
    selection: PathSelection,
    cfg: &PrimalDualConfig,
) -> PrimalDualSolution {
    let problem = FluidProblem::new(topo, demands, delta, selection);
    solve_problem(topo, demands, delta, &problem, cfg)
}

/// Runs the algorithm on an explicit [`FluidProblem`] (so callers can
/// hand-pick paths and compare against [`FluidProblem::solve_balanced`]).
pub fn solve_problem(
    topo: &Topology,
    demands: &PaymentGraph,
    delta: f64,
    problem: &FluidProblem,
    cfg: &PrimalDualConfig,
) -> PrimalDualSolution {
    // Flatten variables: (pair index, path) with contiguous ids.
    let mut pair_paths: Vec<(NodeId, NodeId, f64, Vec<Path>)> = Vec::new();
    for e in demands.edges() {
        let paths = problem.paths_for(e.src, e.dst).to_vec();
        if !paths.is_empty() {
            pair_paths.push((e.src, e.dst, e.rate, paths));
        }
    }
    // Precompute hop lists per variable.
    let mut var_pair: Vec<usize> = Vec::new();
    let mut var_hops: Vec<Vec<(usize, Direction)>> = Vec::new();
    let mut pair_vars: Vec<Vec<usize>> = vec![Vec::new(); pair_paths.len()];
    let mut var_paths: Vec<&Path> = Vec::new();
    for (pi, (_, _, _, paths)) in pair_paths.iter().enumerate() {
        for p in paths {
            let v = var_pair.len();
            var_pair.push(pi);
            var_hops.push(
                p.channels(topo)
                    .into_iter()
                    .map(|hop| (hop.channel().index(), hop.direction()))
                    .collect(),
            );
            pair_vars[pi].push(v);
            var_paths.push(p);
        }
    }
    let n_vars = var_pair.len();
    let m = topo.channel_count();
    let cap_rate: Vec<f64> = topo
        .channels()
        .map(|(_, c)| c.capacity.as_xrp() / delta)
        .collect();

    // State: per channel, per direction-index.
    let mut lambda = vec![[0.0f64; 2]; m];
    let mut mu = vec![[0.0f64; 2]; m];
    let mut b = vec![[0.0f64; 2]; m];
    let mut x = vec![0.0f64; n_vars];
    let mut trajectory = Vec::new();

    // Undamped primal-dual iterates oscillate around the optimum; the
    // ergodic average over a tail window converges, so we report that
    // (standard practice for saddle-point methods).
    let avg_start = cfg.iterations - (cfg.iterations / 4).max(1).min(cfg.iterations);
    let mut x_acc = vec![0.0f64; n_vars];
    let mut b_acc = vec![[0.0f64; 2]; m];
    let mut acc_count = 0usize;

    for it in 0..cfg.iterations {
        // Edge prices z for each direction.
        // z[c][d] = λ[c][d] + λ[c][!d] + µ[c][d] − µ[c][!d].
        let z = |c: usize, d: usize, lambda: &Vec<[f64; 2]>, mu: &Vec<[f64; 2]>| {
            lambda[c][d] + lambda[c][1 - d] + mu[c][d] - mu[c][1 - d]
        };

        // Primal step: rates.
        for v in 0..n_vars {
            let zp: f64 = var_hops[v]
                .iter()
                .map(|&(c, dir)| z(c, dir.index(), &lambda, &mu))
                .sum();
            x[v] += cfg.alpha * (1.0 - zp);
        }
        // Projection onto {x ≥ 0, Σ_pair x ≤ d} per pair.
        for (pi, vars) in pair_vars.iter().enumerate() {
            let d = pair_paths[pi].2;
            project_capped_simplex(&mut x, vars, d);
        }
        // Primal step: rebalancing rates (eq. 22).
        if cfg.rebalancing {
            for c in 0..m {
                for d in 0..2 {
                    b[c][d] = (b[c][d] + cfg.beta * (mu[c][d] - cfg.gamma)).max(0.0);
                }
            }
        }

        // Dual step: aggregate per-direction rates.
        let mut rate = vec![[0.0f64; 2]; m];
        for v in 0..n_vars {
            for &(c, dir) in &var_hops[v] {
                rate[c][dir.index()] += x[v];
            }
        }
        for c in 0..m {
            let total = rate[c][0] + rate[c][1];
            for d in 0..2 {
                lambda[c][d] = (lambda[c][d] + cfg.eta * (total - cap_rate[c])).max(0.0);
                mu[c][d] =
                    (mu[c][d] + cfg.kappa * (rate[c][d] - rate[c][1 - d] - b[c][d])).max(0.0);
            }
        }

        if it % cfg.sample_every.max(1) == 0 {
            trajectory.push((it, x.iter().sum()));
        }
        if it >= avg_start {
            for v in 0..n_vars {
                x_acc[v] += x[v];
            }
            for c in 0..m {
                b_acc[c][0] += b[c][0];
                b_acc[c][1] += b[c][1];
            }
            acc_count += 1;
        }
    }

    let scale = 1.0 / acc_count.max(1) as f64;
    let x_avg: Vec<f64> = x_acc.iter().map(|v| v * scale).collect();
    let throughput: f64 = x_avg.iter().sum();
    trajectory.push((cfg.iterations, throughput));
    let mut flows = Vec::new();
    for v in 0..n_vars {
        if x_avg[v] > 1e-9 {
            let (src, dst, _, _) = pair_paths[var_pair[v]];
            flows.push(PathFlow {
                src,
                dst,
                path: var_paths[v].clone(),
                rate: x_avg[v],
            });
        }
    }
    let total_rebalancing = b_acc.iter().map(|pair| (pair[0] + pair[1]) * scale).sum();
    PrimalDualSolution {
        throughput,
        flows,
        total_rebalancing,
        trajectory,
    }
}

/// Projects the sub-vector `x[vars]` onto `{y ≥ 0, Σ y ≤ cap}` (Euclidean
/// projection). Clips negatives first; if the sum still exceeds `cap`,
/// projects onto the simplex `Σ y = cap` with the standard sort-based rule.
fn project_capped_simplex(x: &mut [f64], vars: &[usize], cap: f64) {
    for &v in vars {
        if x[v] < 0.0 {
            x[v] = 0.0;
        }
    }
    let sum: f64 = vars.iter().map(|&v| x[v]).sum();
    if sum <= cap {
        return;
    }
    // Sort values descending, find threshold tau.
    let mut vals: Vec<f64> = vars.iter().map(|&v| x[v]).collect();
    vals.sort_by(|a, b| b.partial_cmp(a).expect("finite rates"));
    let mut acc = 0.0;
    let mut tau = 0.0;
    for (k, &val) in vals.iter().enumerate() {
        acc += val;
        let candidate = (acc - cap) / (k + 1) as f64;
        if val - candidate > 0.0 {
            tau = candidate;
        }
    }
    for &v in vars {
        x[v] = (x[v] - tau).max(0.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spider_paygraph::examples;
    use spider_topology::gen;
    use spider_types::Amount;

    const DELTA: f64 = 0.5;
    const BIG: Amount = Amount::from_xrp(1_000_000);

    #[test]
    fn projection_noop_when_inside() {
        let mut x = vec![0.5, 0.3];
        project_capped_simplex(&mut x, &[0, 1], 1.0);
        assert_eq!(x, vec![0.5, 0.3]);
    }

    #[test]
    fn projection_clips_negatives() {
        let mut x = vec![-0.5, 0.3];
        project_capped_simplex(&mut x, &[0, 1], 1.0);
        assert_eq!(x, vec![0.0, 0.3]);
    }

    #[test]
    fn projection_onto_simplex_when_over() {
        let mut x = vec![2.0, 1.0];
        project_capped_simplex(&mut x, &[0, 1], 1.0);
        let sum: f64 = x.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9);
        // Euclidean projection of (2,1) onto the simplex Σ=1: (1, 0).
        assert!((x[0] - 1.0).abs() < 1e-9 && x[1].abs() < 1e-9, "{x:?}");
    }

    #[test]
    fn projection_preserves_order() {
        let mut x = vec![3.0, 2.0, 1.0];
        project_capped_simplex(&mut x, &[0, 1, 2], 3.0);
        assert!(x[0] >= x[1] && x[1] >= x[2]);
        assert!((x.iter().sum::<f64>() - 3.0).abs() < 1e-9);
    }

    #[test]
    fn two_node_circulation_converges_to_full_demand() {
        let mut b = Topology::builder(2);
        b.channel(NodeId(0), NodeId(1), BIG).unwrap();
        let t = b.build();
        let mut d = PaymentGraph::new(2);
        d.add_demand(NodeId(0), NodeId(1), 2.0);
        d.add_demand(NodeId(1), NodeId(0), 2.0);
        let cfg = PrimalDualConfig::for_demand_scale(2.0);
        let sol = solve(&t, &d, DELTA, PathSelection::ShortestOnly, &cfg);
        assert!(
            (sol.throughput - 4.0).abs() < 0.1,
            "throughput {}",
            sol.throughput
        );
    }

    #[test]
    fn pure_dag_demand_converges_to_zero() {
        // One-way demand on one channel: any sustained rate is imbalanced,
        // so µ grows until the rate collapses to ~0.
        let mut b = Topology::builder(2);
        b.channel(NodeId(0), NodeId(1), BIG).unwrap();
        let t = b.build();
        let mut d = PaymentGraph::new(2);
        d.add_demand(NodeId(0), NodeId(1), 2.0);
        let mut cfg = PrimalDualConfig::for_demand_scale(2.0);
        cfg.iterations = 60_000;
        let sol = solve(&t, &d, DELTA, PathSelection::ShortestOnly, &cfg);
        assert!(sol.throughput < 0.25, "throughput {}", sol.throughput);
    }

    #[test]
    fn paper_example_converges_near_lp_optimum() {
        let t = gen::paper_example_topology(BIG);
        let d = examples::paper_example_demands();
        let mut cfg = PrimalDualConfig::for_demand_scale(2.0);
        cfg.iterations = 60_000;
        let sol = solve(&t, &d, DELTA, PathSelection::KShortest(4), &cfg);
        // LP optimum is 8 (ν(C*)); primal-dual oscillates mildly around it.
        assert!(
            (sol.throughput - examples::MAX_CIRCULATION).abs() < 0.4,
            "throughput {}",
            sol.throughput
        );
    }

    #[test]
    fn capacity_price_throttles_rate() {
        // Tiny channel: c/Δ = 1; circulation demand 5 each way must be
        // squeezed to a total of ~1.
        let mut b = Topology::builder(2);
        b.channel(NodeId(0), NodeId(1), Amount::from_drops(500_000))
            .unwrap();
        let t = b.build();
        let mut d = PaymentGraph::new(2);
        d.add_demand(NodeId(0), NodeId(1), 5.0);
        d.add_demand(NodeId(1), NodeId(0), 5.0);
        let mut cfg = PrimalDualConfig::for_demand_scale(5.0);
        cfg.iterations = 60_000;
        let sol = solve(&t, &d, DELTA, PathSelection::ShortestOnly, &cfg);
        assert!(sol.throughput < 1.3, "throughput {}", sol.throughput);
    }

    #[test]
    fn rebalancing_lifts_dag_throughput_when_cheap() {
        // One-way demand again, but rebalancing at γ = 0.1 is cheap, so the
        // channel tops itself up and the demand flows.
        let mut b = Topology::builder(2);
        b.channel(NodeId(0), NodeId(1), BIG).unwrap();
        let t = b.build();
        let mut d = PaymentGraph::new(2);
        d.add_demand(NodeId(0), NodeId(1), 2.0);
        let mut cfg = PrimalDualConfig::for_demand_scale(2.0);
        cfg.rebalancing = true;
        cfg.gamma = 0.1;
        cfg.iterations = 60_000;
        let sol = solve(&t, &d, DELTA, PathSelection::ShortestOnly, &cfg);
        assert!(sol.throughput > 1.5, "throughput {}", sol.throughput);
        assert!(
            sol.total_rebalancing > 1.0,
            "rebalancing {}",
            sol.total_rebalancing
        );
    }

    #[test]
    fn trajectory_is_recorded() {
        let t = gen::paper_example_topology(BIG);
        let d = examples::paper_example_demands();
        let mut cfg = PrimalDualConfig::for_demand_scale(2.0);
        cfg.iterations = 1000;
        cfg.sample_every = 100;
        let sol = solve(&t, &d, DELTA, PathSelection::KShortest(4), &cfg);
        assert!(sol.trajectory.len() >= 10);
        assert_eq!(sol.trajectory.last().unwrap().0, 1000);
    }

    #[test]
    fn matches_simplex_on_random_instances() {
        use spider_paygraph::generate::mixed_demand;
        use spider_types::DetRng;
        let mut rng = DetRng::new(21);
        let t = gen::cycle(6, BIG);
        for trial in 0..3 {
            let d = mixed_demand(6, 6.0, 0.7, &mut rng);
            let problem = FluidProblem::new(&t, &d, DELTA, PathSelection::KShortest(3));
            let lp = problem.solve_balanced().unwrap();
            let mut cfg = PrimalDualConfig::for_demand_scale(2.0);
            cfg.iterations = 80_000;
            let pd = solve_problem(&t, &d, DELTA, &problem, &cfg);
            assert!(
                (pd.throughput - lp.throughput).abs() < 0.15 * lp.throughput.max(1.0),
                "trial {trial}: pd {} vs lp {}",
                pd.throughput,
                lp.throughput
            );
        }
    }
}
