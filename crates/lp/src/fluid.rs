//! Fluid-model routing LPs (§5.2).
//!
//! Transactions between each pair are modeled as continuous flows over a
//! set of candidate paths. Three problems are exposed:
//!
//! * [`FluidProblem::solve_balanced`] — eqs. (1)–(5): maximize throughput
//!   subject to demand, capacity (`c_e/Δ`) and *perfect balance* on every
//!   channel;
//! * [`FluidProblem::solve_with_rebalancing`] — eqs. (6)–(11): allow an
//!   on-chain rebalancing rate `b_(u,v) ≥ 0` per channel direction, paying
//!   `γ` per unit in the objective;
//! * [`FluidProblem::throughput_with_budget`] — eqs. (12)–(18): the
//!   throughput curve `t(B)` under a total rebalancing budget `B`
//!   (non-decreasing and concave — verified in tests).

use crate::paths::{k_edge_disjoint_paths, k_shortest_paths, Path};
use crate::simplex::{ConstraintOp, LinearProgram};
use spider_paygraph::PaymentGraph;
use spider_topology::Topology;
use spider_types::{Direction, Hop, NodeId, Result};
use std::collections::BTreeMap;

/// How candidate paths are generated for each demand pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PathSelection {
    /// Only the (BFS) shortest path — the paper's "shortest-path balanced
    /// routing" of Fig. 4b.
    ShortestOnly,
    /// Yen's k shortest loopless paths.
    KShortest(usize),
    /// k edge-disjoint shortest paths — §6.1 uses 4.
    KEdgeDisjoint(usize),
}

/// A fluid-model routing problem instance.
#[derive(Debug, Clone)]
pub struct FluidProblem {
    topo: Topology,
    demands: PaymentGraph,
    /// Mean confirmation latency Δ in seconds (capacity = c_e/Δ).
    delta: f64,
    paths: BTreeMap<(NodeId, NodeId), Vec<Path>>,
}

/// One path's optimal rate.
#[derive(Debug, Clone)]
pub struct PathFlow {
    /// Demand source.
    pub src: NodeId,
    /// Demand destination.
    pub dst: NodeId,
    /// The path carrying the flow.
    pub path: Path,
    /// Rate on this path (demand units per second).
    pub rate: f64,
}

/// Solution of the balanced-routing LP.
#[derive(Debug, Clone)]
pub struct FluidSolution {
    /// Total delivered rate Σ_p x_p.
    pub throughput: f64,
    /// Per-path rates (zero-rate paths omitted).
    pub flows: Vec<PathFlow>,
}

/// Solution of the rebalancing LP (eqs. 6–11).
#[derive(Debug, Clone)]
pub struct RebalancingSolution {
    /// Total delivered rate.
    pub throughput: f64,
    /// Total on-chain rebalancing rate Σ b.
    pub total_rebalancing: f64,
    /// Objective value: throughput − γ · total_rebalancing.
    pub objective: f64,
    /// Per-path rates.
    pub flows: Vec<PathFlow>,
}

impl FluidProblem {
    /// Builds a problem over `topo` and `demands` with confirmation latency
    /// `delta` (seconds) and the given path-selection policy.
    pub fn new(
        topo: &Topology,
        demands: &PaymentGraph,
        delta: f64,
        selection: PathSelection,
    ) -> Self {
        assert!(delta > 0.0 && delta.is_finite(), "invalid delta");
        let mut paths = BTreeMap::new();
        for e in demands.edges() {
            let ps = match selection {
                PathSelection::ShortestOnly => topo
                    .shortest_path(e.src, e.dst)
                    .map(Path::new)
                    .into_iter()
                    .collect(),
                PathSelection::KShortest(k) => k_shortest_paths(topo, e.src, e.dst, k),
                PathSelection::KEdgeDisjoint(k) => k_edge_disjoint_paths(topo, e.src, e.dst, k),
            };
            paths.insert((e.src, e.dst), ps);
        }
        FluidProblem {
            topo: topo.clone(),
            demands: demands.clone(),
            delta,
            paths,
        }
    }

    /// The candidate paths of a pair.
    pub fn paths_for(&self, src: NodeId, dst: NodeId) -> &[Path] {
        self.paths
            .get(&(src, dst))
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Flattens (pair, path) into LP variable indices; also returns, per
    /// channel, the variables crossing it forward / backward.
    fn variables(&self) -> VariableLayout {
        let mut vars = Vec::new();
        let mut per_pair: Vec<(NodeId, NodeId, Vec<usize>)> = Vec::new();
        let m = self.topo.channel_count();
        let mut fwd: Vec<Vec<usize>> = vec![Vec::new(); m];
        let mut bwd: Vec<Vec<usize>> = vec![Vec::new(); m];
        for (&(src, dst), paths) in &self.paths {
            let mut ids = Vec::with_capacity(paths.len());
            for p in paths {
                let v = vars.len();
                ids.push(v);
                for (c, dir) in p.channels(&self.topo).into_iter().map(Hop::parts) {
                    match dir {
                        Direction::Forward => fwd[c.index()].push(v),
                        Direction::Backward => bwd[c.index()].push(v),
                    }
                }
                vars.push((src, dst, p.clone()));
            }
            per_pair.push((src, dst, ids));
        }
        VariableLayout {
            vars,
            per_pair,
            fwd,
            bwd,
        }
    }

    fn base_lp(&self, layout: &VariableLayout, extra_vars: usize) -> LinearProgram {
        let n = layout.vars.len();
        let mut lp = LinearProgram::new(n + extra_vars);
        // Objective: maximize total path rate.
        for v in 0..n {
            lp.set_objective(v, 1.0);
        }
        // Demand constraints (eq. 2).
        for (src, dst, ids) in &layout.per_pair {
            let coeffs: Vec<(usize, f64)> = ids.iter().map(|&v| (v, 1.0)).collect();
            lp.constraint(&coeffs, ConstraintOp::Le, self.demands.demand(*src, *dst));
        }
        // Capacity constraints (eq. 3), one per channel (the directed pair
        // yields the same inequality twice).
        for (c, ch) in self.topo.channels() {
            let mut coeffs: Vec<(usize, f64)> = Vec::new();
            for &v in &layout.fwd[c.index()] {
                coeffs.push((v, 1.0));
            }
            for &v in &layout.bwd[c.index()] {
                coeffs.push((v, 1.0));
            }
            if !coeffs.is_empty() {
                lp.constraint(&coeffs, ConstraintOp::Le, ch.capacity.as_xrp() / self.delta);
            }
        }
        lp
    }

    fn extract_flows(&self, layout: &VariableLayout, x: &[f64]) -> (f64, Vec<PathFlow>) {
        let mut flows = Vec::new();
        let mut throughput = 0.0;
        for (v, (src, dst, path)) in layout.vars.iter().enumerate() {
            if x[v] > 1e-9 {
                throughput += x[v];
                flows.push(PathFlow {
                    src: *src,
                    dst: *dst,
                    path: path.clone(),
                    rate: x[v],
                });
            }
        }
        (throughput, flows)
    }

    /// Solves the perfectly balanced LP (eqs. 1–5).
    pub fn solve_balanced(&self) -> Result<FluidSolution> {
        let layout = self.variables();
        let mut lp = self.base_lp(&layout, 0);
        // Balance constraints (eq. 4): forward − backward ≤ 0, both ways,
        // i.e. equality.
        for c in 0..self.topo.channel_count() {
            let mut coeffs: Vec<(usize, f64)> = Vec::new();
            for &v in &layout.fwd[c] {
                coeffs.push((v, 1.0));
            }
            for &v in &layout.bwd[c] {
                coeffs.push((v, -1.0));
            }
            if !coeffs.is_empty() {
                lp.constraint(&coeffs, ConstraintOp::Eq, 0.0);
            }
        }
        let sol = lp.solve()?;
        let (throughput, flows) = self.extract_flows(&layout, &sol.x);
        Ok(FluidSolution { throughput, flows })
    }

    /// Solves the rebalancing LP (eqs. 6–11) with rebalancing cost `gamma`.
    ///
    /// Adds one `b` variable per channel direction: variable
    /// `n + 2c + dir` is the on-chain top-up rate of channel `c` in
    /// direction `dir`.
    pub fn solve_with_rebalancing(&self, gamma: f64) -> Result<RebalancingSolution> {
        assert!(gamma >= 0.0 && gamma.is_finite(), "invalid gamma");
        let layout = self.variables();
        let n = layout.vars.len();
        let m = self.topo.channel_count();
        let mut lp = self.base_lp(&layout, 2 * m);
        for b in 0..2 * m {
            lp.set_objective(n + b, -gamma);
        }
        self.add_rebalancing_constraints(&layout, &mut lp, n);
        let sol = lp.solve()?;
        let (throughput, flows) = self.extract_flows(&layout, &sol.x);
        let total_rebalancing: f64 = sol.x[n..].iter().sum();
        Ok(RebalancingSolution {
            throughput,
            total_rebalancing,
            objective: sol.objective,
            flows,
        })
    }

    /// The maximum throughput under a total rebalancing budget `B`
    /// (eqs. 12–18): `t(B)` is non-decreasing and concave in `B`.
    pub fn throughput_with_budget(&self, budget: f64) -> Result<f64> {
        assert!(budget >= 0.0 && budget.is_finite(), "invalid budget");
        let layout = self.variables();
        let n = layout.vars.len();
        let m = self.topo.channel_count();
        let mut lp = self.base_lp(&layout, 2 * m);
        self.add_rebalancing_constraints(&layout, &mut lp, n);
        // Σ b ≤ B (eq. 16).
        let coeffs: Vec<(usize, f64)> = (0..2 * m).map(|b| (n + b, 1.0)).collect();
        lp.constraint(&coeffs, ConstraintOp::Le, budget);
        Ok(lp.solve()?.objective)
    }

    /// Balance-with-rebalancing constraints (eq. 9):
    /// `fwd − bwd ≤ b_fwd` and `bwd − fwd ≤ b_bwd` per channel.
    fn add_rebalancing_constraints(
        &self,
        layout: &VariableLayout,
        lp: &mut LinearProgram,
        n: usize,
    ) {
        for c in 0..self.topo.channel_count() {
            for (dir_idx, sign) in [(0usize, 1.0f64), (1, -1.0)] {
                let mut coeffs: Vec<(usize, f64)> = Vec::new();
                for &v in &layout.fwd[c] {
                    coeffs.push((v, sign));
                }
                for &v in &layout.bwd[c] {
                    coeffs.push((v, -sign));
                }
                coeffs.push((n + 2 * c + dir_idx, -1.0));
                lp.constraint(&coeffs, ConstraintOp::Le, 0.0);
            }
        }
    }
}

struct VariableLayout {
    vars: Vec<(NodeId, NodeId, Path)>,
    per_pair: Vec<(NodeId, NodeId, Vec<usize>)>,
    fwd: Vec<Vec<usize>>,
    bwd: Vec<Vec<usize>>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use spider_paygraph::decompose::max_circulation_value;
    use spider_paygraph::examples;
    use spider_topology::gen;
    use spider_types::Amount;

    const DELTA: f64 = 0.5;
    /// Large enough that c/Δ never binds in the example tests.
    const BIG: Amount = Amount::from_xrp(1_000_000);

    fn example() -> (Topology, PaymentGraph) {
        (
            gen::paper_example_topology(BIG),
            examples::paper_example_demands(),
        )
    }

    #[test]
    fn paper_example_shortest_path_is_5() {
        let (t, d) = example();
        let p = FluidProblem::new(&t, &d, DELTA, PathSelection::ShortestOnly);
        let sol = p.solve_balanced().unwrap();
        assert!(
            (sol.throughput - examples::SHORTEST_PATH_THROUGHPUT).abs() < 1e-6,
            "throughput {}",
            sol.throughput
        );
    }

    #[test]
    fn paper_example_multipath_is_8() {
        let (t, d) = example();
        let p = FluidProblem::new(&t, &d, DELTA, PathSelection::KShortest(4));
        let sol = p.solve_balanced().unwrap();
        assert!(
            (sol.throughput - examples::MAX_CIRCULATION).abs() < 1e-6,
            "throughput {}",
            sol.throughput
        );
    }

    #[test]
    fn balanced_throughput_never_exceeds_circulation() {
        // Proposition 1 upper bound, with generous capacity.
        let (t, d) = example();
        let nu = max_circulation_value(&d, 1e-6);
        for sel in [
            PathSelection::ShortestOnly,
            PathSelection::KShortest(2),
            PathSelection::KShortest(6),
            PathSelection::KEdgeDisjoint(4),
        ] {
            let sol = FluidProblem::new(&t, &d, DELTA, sel)
                .solve_balanced()
                .unwrap();
            assert!(
                sol.throughput <= nu + 1e-6,
                "{sel:?}: {} > {nu}",
                sol.throughput
            );
        }
    }

    #[test]
    fn flows_are_balanced_per_channel() {
        let (t, d) = example();
        let p = FluidProblem::new(&t, &d, DELTA, PathSelection::KShortest(4));
        let sol = p.solve_balanced().unwrap();
        let mut net = vec![0.0; t.channel_count()];
        for f in &sol.flows {
            for (c, dir) in f.path.channels(&t).into_iter().map(Hop::parts) {
                match dir {
                    Direction::Forward => net[c.index()] += f.rate,
                    Direction::Backward => net[c.index()] -= f.rate,
                }
            }
        }
        for (i, x) in net.iter().enumerate() {
            assert!(x.abs() < 1e-6, "channel {i} imbalance {x}");
        }
    }

    #[test]
    fn flows_respect_demands() {
        let (t, d) = example();
        let p = FluidProblem::new(&t, &d, DELTA, PathSelection::KShortest(4));
        let sol = p.solve_balanced().unwrap();
        let mut per_pair: BTreeMap<(NodeId, NodeId), f64> = BTreeMap::new();
        for f in &sol.flows {
            *per_pair.entry((f.src, f.dst)).or_insert(0.0) += f.rate;
        }
        for ((s, dst), rate) in per_pair {
            assert!(rate <= d.demand(s, dst) + 1e-6);
        }
    }

    #[test]
    fn capacity_constraint_binds() {
        // Two nodes, one channel, circulation demand 10 each way, but
        // c/Δ = 4: total flow (both directions) must be ≤ 4.
        let mut b = Topology::builder(2);
        b.channel(NodeId(0), NodeId(1), Amount::from_xrp(2))
            .unwrap(); // c/Δ = 4
        let t = b.build();
        let mut d = PaymentGraph::new(2);
        d.add_demand(NodeId(0), NodeId(1), 10.0);
        d.add_demand(NodeId(1), NodeId(0), 10.0);
        let p = FluidProblem::new(&t, &d, DELTA, PathSelection::ShortestOnly);
        let sol = p.solve_balanced().unwrap();
        assert!(
            (sol.throughput - 4.0).abs() < 1e-6,
            "throughput {}",
            sol.throughput
        );
    }

    #[test]
    fn rebalancing_gamma_zero_routes_everything_feasible() {
        let (t, d) = example();
        let p = FluidProblem::new(&t, &d, DELTA, PathSelection::KShortest(4));
        let sol = p.solve_with_rebalancing(0.0).unwrap();
        // With free rebalancing and ample capacity the whole demand ships.
        assert!(
            (sol.throughput - examples::TOTAL_DEMAND).abs() < 1e-6,
            "throughput {}",
            sol.throughput
        );
        assert!(sol.total_rebalancing > 0.0);
    }

    #[test]
    fn rebalancing_large_gamma_reduces_to_balanced() {
        let (t, d) = example();
        let p = FluidProblem::new(&t, &d, DELTA, PathSelection::KShortest(4));
        let sol = p.solve_with_rebalancing(100.0).unwrap();
        assert!(
            (sol.throughput - examples::MAX_CIRCULATION).abs() < 1e-6,
            "throughput {}",
            sol.throughput
        );
        assert!(sol.total_rebalancing < 1e-6);
    }

    #[test]
    fn throughput_budget_curve_is_monotone_concave() {
        let (t, d) = example();
        let p = FluidProblem::new(&t, &d, DELTA, PathSelection::KShortest(4));
        let budgets = [0.0, 1.0, 2.0, 3.0, 4.0, 6.0, 10.0];
        let ts: Vec<f64> = budgets
            .iter()
            .map(|&b| p.throughput_with_budget(b).unwrap())
            .collect();
        // t(0) = balanced optimum; t(∞) = total demand.
        assert!((ts[0] - examples::MAX_CIRCULATION).abs() < 1e-6);
        assert!((ts.last().unwrap() - examples::TOTAL_DEMAND).abs() < 1e-6);
        // Non-decreasing.
        for w in ts.windows(2) {
            assert!(w[1] >= w[0] - 1e-9);
        }
        // Concavity along equally-informative triples.
        for i in 1..budgets.len() - 1 {
            let (b0, b1, b2) = (budgets[i - 1], budgets[i], budgets[i + 1]);
            let lam = (b1 - b0) / (b2 - b0);
            let interp = (1.0 - lam) * ts[i - 1] + lam * ts[i + 1];
            assert!(ts[i] >= interp - 1e-6, "not concave at {b1}");
        }
    }

    #[test]
    fn isp_scale_lp_solves() {
        // A moderately sized instance: ISP topology with a skewed demand
        // matrix; just verifies the solver handles hundreds of variables.
        use spider_paygraph::generate::skewed_demand;
        use spider_types::DetRng;
        let t = gen::isp_topology(Amount::from_xrp(30_000));
        let mut rng = DetRng::new(11);
        let d = skewed_demand(32, 60, 500.0, 4.0, &mut rng);
        let p = FluidProblem::new(&t, &d, DELTA, PathSelection::KEdgeDisjoint(4));
        let sol = p.solve_balanced().unwrap();
        assert!(sol.throughput >= 0.0);
        assert!(sol.throughput <= d.total_demand() + 1e-6);
        let nu = max_circulation_value(&d, 1e-9);
        assert!(sol.throughput <= nu + 1e-6);
    }

    #[test]
    fn empty_demands_give_zero() {
        let t = gen::paper_example_topology(BIG);
        let d = PaymentGraph::new(5);
        let p = FluidProblem::new(&t, &d, DELTA, PathSelection::KShortest(4));
        assert_eq!(p.solve_balanced().unwrap().throughput, 0.0);
    }
}
