//! The balanced fluid LP (eqs. 1–5) rebuilt row by row from a
//! [`FluidProblem`]'s candidate paths, and the Lagrangian bound of eq. 21
//! that its channel prices give.
//!
//! Price every channel `c` with `λ_c ≥ 0` on its capacity row (both
//! directions share `c_c/Δ`) and `µ_c` free on its balance row (forward
//! minus backward flow is 0). A path then costs
//! `z_p = Σ_{hops} (λ_c ± µ_c)`, `+` on a forward hop and `−` on a
//! backward one. Relaxing the capacity and balance rows leaves one
//! independent problem per pair `i`: route at most `d_i` over its paths,
//! each unit earning `1 − z_p`. The best a pair can earn is
//! `d_i · u_i` with `u_i = max(0, maxₚ (1 − z_p))`, so
//!
//! `Σ_i d_i · u_i + Σ_c (c_c/Δ) · λ_c`
//!
//! bounds the balanced optimum from above for every such `(λ, µ)`, and
//! equals it at the optimal prices: the LP's duals on the capacity and
//! balance rows, with `u_i` the dual of pair `i`'s demand row.

use spider_lp::fluid::FluidProblem;
use spider_lp::simplex::{ConstraintOp, LinearProgram};
use spider_paygraph::PaymentGraph;
use spider_topology::Topology;
use spider_types::{Direction, Hop};

/// A path's hops as (channel index, `+1` forward or `−1` backward).
type Hops = Vec<(usize, f64)>;

/// The balanced LP of a [`FluidProblem`], with the row of each channel
/// price kept so the solver's duals read back as `(λ, µ)`.
pub struct BalancedLp {
    /// Variables: one rate per (pair, candidate path), pairs in demand
    /// order. Rows: each pair's demand row, then each crossed channel's
    /// capacity row, then its balance row.
    pub lp: LinearProgram,
    /// Per pair: its demand and its paths' hops.
    pairs: Vec<(f64, Vec<Hops>)>,
    /// `c_c/Δ` per channel.
    cap_rate: Vec<f64>,
    /// Per channel: its capacity and balance rows, when a path crosses it.
    price_rows: Vec<Option<(usize, usize)>>,
}

impl BalancedLp {
    /// The LP `problem` solves in `solve_balanced`, rebuilt from
    /// [`FluidProblem::paths_for`]; `topo`, `demands` and `delta` are the
    /// ones `problem` was built with.
    pub fn new(
        problem: &FluidProblem,
        topo: &Topology,
        demands: &PaymentGraph,
        delta: f64,
    ) -> Self {
        let pairs: Vec<(f64, Vec<Hops>)> = demands
            .edges()
            .map(|e| {
                let paths = problem.paths_for(e.src, e.dst).iter().map(|p| {
                    let hop = |h: Hop| match h.parts() {
                        (c, Direction::Forward) => (c.index(), 1.0),
                        (c, Direction::Backward) => (c.index(), -1.0),
                    };
                    p.channels(topo).into_iter().map(hop).collect()
                });
                (e.rate, paths.collect())
            })
            .collect();
        let n_vars = pairs.iter().map(|(_, paths)| paths.len()).sum();
        let mut lp = LinearProgram::new(n_vars);
        // Per channel: the (variable, coefficient) terms of its capacity
        // row and of its balance row.
        let mut capacity: Vec<Vec<(usize, f64)>> = vec![Vec::new(); topo.channel_count()];
        let mut balance = capacity.clone();
        let mut var = 0;
        for (demand, paths) in &pairs {
            let first = var;
            for hops in paths {
                lp.set_objective(var, 1.0);
                for &(c, sign) in hops {
                    capacity[c].push((var, 1.0));
                    balance[c].push((var, sign));
                }
                var += 1;
            }
            let row: Vec<(usize, f64)> = (first..var).map(|v| (v, 1.0)).collect();
            lp.constraint(&row, ConstraintOp::Le, *demand);
        }
        let cap_rate: Vec<f64> = topo
            .channels()
            .map(|(_, ch)| ch.capacity.as_xrp() / delta)
            .collect();
        let mut rows = pairs.len();
        let price_rows = (0..topo.channel_count())
            .map(|c| {
                if capacity[c].is_empty() {
                    return None;
                }
                lp.constraint(&capacity[c], ConstraintOp::Le, cap_rate[c]);
                lp.constraint(&balance[c], ConstraintOp::Eq, 0.0);
                rows += 2;
                Some((rows - 2, rows - 1))
            })
            .collect();
        BalancedLp {
            lp,
            pairs,
            cap_rate,
            price_rows,
        }
    }

    /// Eq. 21's bound `Σ_i d_i · u_i + Σ_c (c_c/Δ) · λ_c` for capacity
    /// prices `lambda` (each `≥ 0`) and balance prices `mu`, one per
    /// channel.
    pub fn lagrangian_bound(&self, lambda: &[f64], mu: &[f64]) -> f64 {
        assert!(lambda.iter().all(|&l| l >= 0.0), "capacity prices are ≥ 0");
        let demand_part: f64 = self
            .pairs
            .iter()
            .map(|(demand, paths)| {
                let best = paths
                    .iter()
                    .map(|hops| {
                        1.0 - hops
                            .iter()
                            .map(|&(c, s)| lambda[c] + s * mu[c])
                            .sum::<f64>()
                    })
                    .fold(0.0, f64::max);
                demand * best
            })
            .sum();
        let capacity_part: f64 = self.cap_rate.iter().zip(lambda).map(|(r, l)| r * l).sum();
        demand_part + capacity_part
    }

    /// The channel prices `(λ, µ)` that `duals` (one per row of
    /// [`BalancedLp::lp`]) put on the capacity and balance rows; 0 on a
    /// channel no path crosses. A capacity price a rounding error below
    /// 0 reads as 0.
    pub fn prices(&self, duals: &[f64]) -> (Vec<f64>, Vec<f64>) {
        self.price_rows
            .iter()
            .map(|rows| rows.map_or((0.0, 0.0), |(cap, bal)| (duals[cap].max(0.0), duals[bal])))
            .unzip()
    }
}
