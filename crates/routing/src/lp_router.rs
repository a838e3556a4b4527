//! Spider (LP).
//!
//! "Spider (LP) solves the LP in Eq. (1) once based on the long-term
//! payment demands and uses the solution to set a weight for selecting
//! each path" (§6.1). The router is constructed from a demand matrix,
//! solves the fluid LP offline, and thereafter splits every payment across
//! its pair's paths in proportion to the optimal rates. The instance's size
//! picks the solver: exact simplex up to 2,000 path variables, the
//! decentralized primal-dual iteration above (`SIMPLEX_MAX_PATH_VARS` has
//! the sizes the figures produce).
//!
//! Pairs whose LP rate is zero get **no** proposals — reproducing the
//! paper's observed weakness: "the LP assigns zero flows to all paths for
//! certain commodities, which means no payments between them will ever get
//! attempted."

use spider_lp::fluid::{FluidProblem, PathSelection};
use spider_lp::primal_dual::{solve_problem, PrimalDualConfig};
use spider_paygraph::PaymentGraph;
use spider_sim::{NetworkView, RouteProposal, RouteRequest, Router};
use spider_topology::Topology;
use spider_types::{Amount, NodeId};
use std::collections::BTreeMap;

/// Per-pair weighted path set: `(node path, weight)` with weights
/// summing to 1.
type PairWeights = BTreeMap<(NodeId, NodeId), Vec<(Vec<NodeId>, f64)>>;

/// The largest instance, in path variables (candidate paths summed over
/// demand pairs), that Spider (LP) solves with exact simplex; larger ones
/// run the primal-dual iteration.
///
/// Both branches run in the figures (seed 42). Every Spider (LP) point of
/// `fig6_success` and `fig7_capacity_sweep` is above the constant, so it
/// runs primal-dual: ISP has 975 demand pairs and 3,900 path variables,
/// the 400-node Ripple-like graph 7,222 pairs and 26,016 variables (their
/// `--smoke` resolves to the default grid). The smoke `churn_resilience`
/// and `fault_resilience` sweeps run both: ISP at 1,700 variables
/// (simplex), the 120-node Ripple-like graph at 2,816 (primal-dual).
const SIMPLEX_MAX_PATH_VARS: usize = 2_000;

/// Whether an instance of `n_path_vars` path variables is solved exactly.
fn solves_exactly(n_path_vars: usize) -> bool {
    n_path_vars <= SIMPLEX_MAX_PATH_VARS
}

/// Spider (LP): offline-optimized weighted multipath splitting (non-atomic).
#[derive(Debug)]
pub struct SpiderLp {
    /// Per-pair: list of (node path, weight) with weights summing to 1.
    weights: PairWeights,
    /// Per-pair fraction of demand the LP actually routes
    /// (`lp_rate / demand_rate`, ≤ 1). Payments are throttled to this
    /// fraction so that long-run per-path rates track the LP solution
    /// ("the frequency of usage of different paths over time is roughly
    /// proportional to the optimal flow rate along the paths", §5.3.1).
    coverage: BTreeMap<(NodeId, NodeId), f64>,
    /// Throughput of the offline solution (for diagnostics).
    offline_throughput: f64,
}

impl SpiderLp {
    /// Solves the fluid LP over `k` edge-disjoint paths per demand pair and
    /// keeps the normalized per-path weights. The instance's size picks the
    /// solver (see `SIMPLEX_MAX_PATH_VARS`).
    pub fn new(topo: &Topology, demands: &PaymentGraph, delta_secs: f64, k: usize) -> Self {
        let problem = FluidProblem::new(topo, demands, delta_secs, PathSelection::KEdgeDisjoint(k));
        let n_path_vars: usize = demands
            .edges()
            .map(|e| problem.paths_for(e.src, e.dst).len())
            .sum();
        Self::solve(
            topo,
            demands,
            delta_secs,
            &problem,
            solves_exactly(n_path_vars),
        )
    }

    /// Solves `problem` by simplex when `exact`, by the primal-dual
    /// iteration otherwise.
    fn solve(
        topo: &Topology,
        demands: &PaymentGraph,
        delta_secs: f64,
        problem: &FluidProblem,
        exact: bool,
    ) -> Self {
        let flows: Vec<(NodeId, NodeId, Vec<NodeId>, f64)> = if exact {
            let sol = problem
                .solve_balanced()
                .expect("fluid LP is always feasible (x = 0)");
            sol.flows
                .into_iter()
                .map(|f| (f.src, f.dst, f.path.nodes, f.rate))
                .collect()
        } else {
            let scale = demands.edges().map(|e| e.rate).fold(1e-9, f64::max);
            let mut cfg = PrimalDualConfig::for_demand_scale(scale);
            cfg.iterations = 30_000;
            let sol = solve_problem(topo, demands, delta_secs, problem, &cfg);
            sol.flows
                .into_iter()
                .map(|f| (f.src, f.dst, f.path.nodes, f.rate))
                .collect()
        };
        let mut weights: PairWeights = BTreeMap::new();
        let mut offline_throughput = 0.0;
        for (src, dst, path, rate) in flows {
            if rate > 1e-9 {
                offline_throughput += rate;
                weights.entry((src, dst)).or_default().push((path, rate));
            }
        }
        // Normalize to fractions; record per-pair demand coverage.
        let mut coverage = BTreeMap::new();
        for (&(src, dst), entry) in weights.iter_mut() {
            let total: f64 = entry.iter().map(|(_, r)| r).sum();
            for (_, r) in entry.iter_mut() {
                *r /= total;
            }
            let demand = demands.demand(src, dst);
            coverage.insert(
                (src, dst),
                if demand > 0.0 {
                    (total / demand).min(1.0)
                } else {
                    1.0
                },
            );
        }
        SpiderLp {
            weights,
            coverage,
            offline_throughput,
        }
    }

    /// Throughput of the offline fluid solution (units/s).
    pub fn offline_throughput(&self) -> f64 {
        self.offline_throughput
    }

    /// Number of pairs that received any positive weight.
    pub fn active_pairs(&self) -> usize {
        self.weights.len()
    }
}

impl Router for SpiderLp {
    fn name(&self) -> &'static str {
        "spider-lp"
    }

    fn route(&mut self, req: &RouteRequest, view: &NetworkView<'_>) -> Vec<RouteProposal> {
        let Some(paths) = self.weights.get(&(req.src, req.dst)) else {
            return Vec::new(); // LP gave this commodity zero rate
        };
        // Throttle to the LP's per-pair rate: of this payment, route at
        // most `coverage × total`; `total − remaining` is already assigned
        // (delivered or in flight).
        let coverage = self
            .coverage
            .get(&(req.src, req.dst))
            .copied()
            .unwrap_or(1.0);
        let cap = req.total.mul_f64(coverage);
        let assigned = req.total - req.remaining;
        let budget = cap.saturating_sub(assigned).min(req.remaining);
        if budget.is_zero() {
            return Vec::new();
        }
        // Largest-remainder split of the budget by weight.
        let mut proposals: Vec<RouteProposal> = Vec::with_capacity(paths.len());
        let mut assigned = Amount::ZERO;
        for (path, w) in paths {
            let amt = budget.mul_f64(*w);
            proposals.push(RouteProposal {
                path: view.intern(path),
                amount: amt,
            });
            assigned = assigned.saturating_add(amt);
        }
        // Rounding drift goes to the heaviest path.
        if assigned < budget {
            if let Some(p) = proposals.iter_mut().max_by(|a, b| a.amount.cmp(&b.amount)) {
                p.amount += budget - assigned;
            }
        } else if assigned > budget {
            let mut excess = assigned - budget;
            for p in proposals.iter_mut().rev() {
                let cut = excess.min(p.amount);
                p.amount -= cut;
                excess -= cut;
                if excess.is_zero() {
                    break;
                }
            }
        }
        proposals.retain(|p| !p.amount.is_zero());
        proposals
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spider_paygraph::examples;
    use spider_sim::{ChannelState, PathTable};
    use spider_topology::gen;
    use spider_types::{PaymentId, SimTime};

    const BIG: Amount = Amount::from_xrp(1_000_000);

    fn router() -> SpiderLp {
        let topo = gen::paper_example_topology(BIG);
        let demands = examples::paper_example_demands();
        SpiderLp::new(&topo, &demands, 0.5, 4)
    }

    /// The paper example solved by the named branch, whatever its size.
    fn solved(exact: bool) -> SpiderLp {
        let topo = gen::paper_example_topology(BIG);
        let demands = examples::paper_example_demands();
        let problem = FluidProblem::new(&topo, &demands, 0.5, PathSelection::KEdgeDisjoint(4));
        SpiderLp::solve(&topo, &demands, 0.5, &problem, exact)
    }

    fn view_of(t: &spider_topology::Topology) -> Vec<ChannelState> {
        t.channels()
            .map(|(_, c)| ChannelState::split_equally(c.capacity))
            .collect()
    }

    fn req(src: u32, dst: u32, amount: Amount) -> RouteRequest {
        RouteRequest {
            payment: PaymentId(0),
            src: NodeId(src),
            dst: NodeId(dst),
            remaining: amount,
            total: amount,
            mtu: Amount::from_xrp(1),
            attempt: 0,
        }
    }

    #[test]
    fn offline_solution_reaches_circulation() {
        let r = router();
        assert!(
            (r.offline_throughput() - examples::MAX_CIRCULATION).abs() < 1e-6,
            "offline throughput {}",
            r.offline_throughput()
        );
    }

    #[test]
    fn proposals_sum_to_remaining() {
        let mut r = router();
        let topo = gen::paper_example_topology(BIG);
        let ch = view_of(&topo);
        let paths = PathTable::new();
        let view = NetworkView {
            topo: &topo,
            channels: &ch,
            paths: &paths,
            now: SimTime::ZERO,
        };
        // Pair (2→4) (ids 1→3) carries weight in the optimum.
        let amount = Amount::from_drops(12_345_678);
        let props = r.route(&req(1, 3, amount), &view);
        assert!(!props.is_empty());
        let total: Amount = props.iter().map(|p| p.amount).sum();
        assert_eq!(total, amount);
        for p in &props {
            assert_eq!(view.path(p.path).source(), NodeId(1));
            assert_eq!(view.path(p.path).dest(), NodeId(3));
        }
    }

    #[test]
    fn zero_rate_pairs_get_no_proposals() {
        let mut r = router();
        let topo = gen::paper_example_topology(BIG);
        let ch = view_of(&topo);
        let paths = PathTable::new();
        let view = NetworkView {
            topo: &topo,
            channels: &ch,
            paths: &paths,
            now: SimTime::ZERO,
        };
        // (5→3) (ids 4→2) is pure-DAG demand in the example: the balanced
        // LP assigns it rate 0 in every optimum (any positive rate would
        // unbalance some channel).
        let props = r.route(&req(4, 2, Amount::from_xrp(1)), &view);
        assert!(props.is_empty(), "DAG-only pair should get zero weight");
    }

    #[test]
    fn primal_dual_variant_close_to_simplex() {
        let pd = solved(false);
        assert!(
            (pd.offline_throughput() - examples::MAX_CIRCULATION).abs() < 0.5,
            "pd throughput {}",
            pd.offline_throughput()
        );
        assert!(pd.active_pairs() >= 5);
    }

    #[test]
    fn auto_picks_simplex_for_small() {
        let (auto, exact, pd) = (router(), solved(true), solved(false));
        assert_eq!(auto.weights, exact.weights);
        assert_ne!(auto.weights, pd.weights);
    }

    #[test]
    fn simplex_up_to_the_constant_primal_dual_above() {
        assert!(solves_exactly(SIMPLEX_MAX_PATH_VARS));
        assert!(!solves_exactly(SIMPLEX_MAX_PATH_VARS + 1));
    }

    #[test]
    fn not_atomic() {
        assert!(!router().atomic());
    }

    #[test]
    fn rate_cap_throttles_partially_covered_pairs() {
        let mut r = router();
        let topo = gen::paper_example_topology(BIG);
        let ch = view_of(&topo);
        let paths = PathTable::new();
        let view = NetworkView {
            topo: &topo,
            channels: &ch,
            paths: &paths,
            now: SimTime::ZERO,
        };
        // Pair (4→1) (ids 3→0) has demand 2 but the optimum routes only 1:
        // coverage = 0.5, so of a 10-XRP payment only 5 XRP is proposed.
        let props = r.route(&req(3, 0, Amount::from_xrp(10)), &view);
        let total: Amount = props.iter().map(|p| p.amount).sum();
        assert_eq!(total, Amount::from_xrp(5));
    }

    #[test]
    fn rate_cap_stops_retries_beyond_coverage() {
        let mut r = router();
        let topo = gen::paper_example_topology(BIG);
        let ch = view_of(&topo);
        let paths = PathTable::new();
        let view = NetworkView {
            topo: &topo,
            channels: &ch,
            paths: &paths,
            now: SimTime::ZERO,
        };
        // Simulate the engine having already assigned 5 of 10 XRP: the
        // retry request has remaining = 5, and the cap (0.5 × 10) is met.
        let retry = RouteRequest {
            payment: PaymentId(0),
            src: NodeId(3),
            dst: NodeId(0),
            remaining: Amount::from_xrp(5),
            total: Amount::from_xrp(10),
            mtu: Amount::from_xrp(1),
            attempt: 1,
        };
        assert!(r.route(&retry, &view).is_empty());
    }
}
