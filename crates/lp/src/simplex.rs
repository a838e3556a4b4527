//! A dense two-phase simplex solver.
//!
//! Solves `maximize c·x subject to Ax {≤,=,≥} b, x ≥ 0`. Phase 1 finds a
//! basic feasible solution by minimizing artificial variables; phase 2
//! optimizes the real objective. Bland's rule guarantees termination on
//! degenerate problems (the fluid-model LPs are heavily degenerate: many
//! path flows sit at zero).
//!
//! The implementation favours clarity and robustness over asymptotics: a
//! dense tableau with `O(m·n)` pivots is comfortably fast for the paper's
//! ISP-scale instances (thousands of variables). For the Ripple-scale
//! network, Spider's own decentralized algorithm ([`crate::primal_dual`])
//! is the intended solver, exactly as in the paper.

use spider_types::{Result, SpiderError};

/// Comparison operator of one constraint row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConstraintOp {
    /// `a·x ≤ b`
    Le,
    /// `a·x ≥ b`
    Ge,
    /// `a·x = b`
    Eq,
}

#[derive(Debug, Clone)]
struct Row {
    // Sparse coefficients (var, coef); duplicate vars are summed.
    coeffs: Vec<(usize, f64)>,
    op: ConstraintOp,
    rhs: f64,
}

/// A linear program over non-negative variables.
///
/// ```
/// use spider_lp::simplex::{LinearProgram, ConstraintOp};
/// // maximize 3x + 2y  s.t.  x + y <= 4,  x + 3y <= 6
/// let mut lp = LinearProgram::new(2);
/// lp.set_objective(0, 3.0);
/// lp.set_objective(1, 2.0);
/// lp.constraint(&[(0, 1.0), (1, 1.0)], ConstraintOp::Le, 4.0);
/// lp.constraint(&[(0, 1.0), (1, 3.0)], ConstraintOp::Le, 6.0);
/// let sol = lp.solve().unwrap();
/// assert!((sol.objective - 12.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone)]
pub struct LinearProgram {
    n_vars: usize,
    objective: Vec<f64>,
    rows: Vec<Row>,
}

/// An optimal solution.
#[derive(Debug, Clone)]
pub struct LpSolution {
    /// Optimal objective value (of the maximization).
    pub objective: f64,
    /// Optimal variable assignment, length = number of variables.
    pub x: Vec<f64>,
}

const EPS: f64 = 1e-9;

impl LinearProgram {
    /// A program with `n_vars` non-negative variables and zero objective.
    pub fn new(n_vars: usize) -> Self {
        LinearProgram {
            n_vars,
            objective: vec![0.0; n_vars],
            rows: Vec::new(),
        }
    }

    /// Number of variables.
    pub fn n_vars(&self) -> usize {
        self.n_vars
    }

    /// Sets the objective coefficient of `var` (maximization).
    pub fn set_objective(&mut self, var: usize, coef: f64) {
        assert!(var < self.n_vars, "variable out of range");
        self.objective[var] = coef;
    }

    /// Adds the constraint `Σ coeffs[i].1 · x[coeffs[i].0]  op  rhs`.
    /// Duplicate variable entries are summed.
    pub fn constraint(&mut self, coeffs: &[(usize, f64)], op: ConstraintOp, rhs: f64) {
        for &(v, c) in coeffs {
            assert!(v < self.n_vars, "variable out of range");
            assert!(c.is_finite(), "non-finite coefficient");
        }
        assert!(rhs.is_finite(), "non-finite rhs");
        self.rows.push(Row {
            coeffs: coeffs.to_vec(),
            op,
            rhs,
        });
    }

    /// Solves the program. Errors with [`SpiderError::Infeasible`] or
    /// [`SpiderError::Unbounded`] as appropriate.
    pub fn solve(&self) -> Result<LpSolution> {
        Tableau::build(self).solve()
    }
}

/// Dense simplex tableau.
///
/// Column layout: `[structural | slack/surplus | artificial | rhs]`.
/// `basis[i]` is the variable currently basic in row `i`.
struct Tableau {
    n_struct: usize,
    n_total: usize, // structural + slack + artificial
    m: usize,
    a: Vec<Vec<f64>>, // m rows × (n_total + 1); last column = rhs
    basis: Vec<usize>,
    artificial_start: usize,
    objective: Vec<f64>, // structural objective (maximization)
}

impl Tableau {
    fn build(lp: &LinearProgram) -> Tableau {
        let m = lp.rows.len();
        let n_struct = lp.n_vars;
        // Count slack/surplus and artificial columns.
        let mut n_slack = 0;
        let mut n_art = 0;
        for row in &lp.rows {
            // Normalize rhs to be >= 0 first (flips the operator).
            let (op, _) = normalized_op(row);
            match op {
                ConstraintOp::Le => n_slack += 1,
                ConstraintOp::Ge => {
                    n_slack += 1;
                    n_art += 1;
                }
                ConstraintOp::Eq => n_art += 1,
            }
        }
        let n_total = n_struct + n_slack + n_art;
        let mut a = vec![vec![0.0; n_total + 1]; m];
        let mut basis = vec![usize::MAX; m];
        let mut slack_cursor = n_struct;
        let artificial_start = n_struct + n_slack;
        let mut art_cursor = artificial_start;

        for (i, row) in lp.rows.iter().enumerate() {
            let (op, flip) = normalized_op(row);
            let sign = if flip { -1.0 } else { 1.0 };
            for &(v, c) in &row.coeffs {
                a[i][v] += sign * c;
            }
            a[i][n_total] = sign * row.rhs;
            match op {
                ConstraintOp::Le => {
                    a[i][slack_cursor] = 1.0;
                    basis[i] = slack_cursor;
                    slack_cursor += 1;
                }
                ConstraintOp::Ge => {
                    a[i][slack_cursor] = -1.0; // surplus
                    slack_cursor += 1;
                    a[i][art_cursor] = 1.0;
                    basis[i] = art_cursor;
                    art_cursor += 1;
                }
                ConstraintOp::Eq => {
                    a[i][art_cursor] = 1.0;
                    basis[i] = art_cursor;
                    art_cursor += 1;
                }
            }
        }
        Tableau {
            n_struct,
            n_total,
            m,
            a,
            basis,
            artificial_start,
            objective: lp.objective.clone(),
        }
    }

    fn solve(mut self) -> Result<LpSolution> {
        // ---- Phase 1: minimize sum of artificials. ----
        if self.artificial_start < self.n_total {
            // Cost row: +1 for each artificial (minimization), expressed as
            // reduced costs z_j - c_j for a minimization tableau.
            let mut cost = vec![0.0; self.n_total + 1];
            for c in &mut cost[self.artificial_start..self.n_total] {
                *c = -1.0; // minimizing sum(artificials) == maximizing -sum
            }
            // Price out basic artificials.
            for i in 0..self.m {
                if self.basis[i] >= self.artificial_start {
                    for (c, &a) in cost.iter_mut().zip(&self.a[i]) {
                        *c += a;
                    }
                }
            }
            self.iterate(&mut cost, self.n_total)?;
            if cost[self.n_total] > EPS {
                return Err(SpiderError::Infeasible);
            }
            self.evict_basic_artificials();
        }

        // ---- Phase 2: maximize the structural objective. ----
        let mut cost = vec![0.0; self.n_total + 1];
        for (j, &c) in self.objective.iter().enumerate() {
            cost[j] = c;
        }
        // Price out current basis.
        for i in 0..self.m {
            let b = self.basis[i];
            let cb = if b < self.n_struct {
                self.objective[b]
            } else {
                0.0
            };
            if cb != 0.0 {
                for (c, &a) in cost.iter_mut().zip(&self.a[i]) {
                    *c -= cb * a;
                }
            }
        }
        // Forbid artificials from re-entering.
        self.iterate(&mut cost, self.artificial_start)?;

        // Read out the solution.
        let mut x = vec![0.0; self.n_struct];
        for i in 0..self.m {
            if self.basis[i] < self.n_struct {
                x[self.basis[i]] = self.a[i][self.n_total];
            }
        }
        let objective = x
            .iter()
            .zip(&self.objective)
            .map(|(xi, ci)| xi * ci)
            .sum::<f64>();
        Ok(LpSolution { objective, x })
    }

    /// Runs simplex pivots until optimal. `cost` holds reduced costs for a
    /// *maximization* (entering columns have cost > EPS); only columns
    /// `< col_limit` may enter (used to lock out artificials in phase 2).
    /// Uses Bland's rule: smallest eligible entering column; smallest basis
    /// variable on ratio ties.
    fn iterate(&mut self, cost: &mut [f64], col_limit: usize) -> Result<()> {
        loop {
            // Entering column (Bland).
            let Some(enter) = (0..col_limit).find(|&j| cost[j] > EPS) else {
                return Ok(());
            };
            // Ratio test.
            let mut leave: Option<usize> = None;
            let mut best = f64::INFINITY;
            for i in 0..self.m {
                if self.a[i][enter] > EPS {
                    let ratio = self.a[i][self.n_total] / self.a[i][enter];
                    let better = ratio < best - EPS
                        || (ratio < best + EPS
                            && leave.is_some_and(|l| self.basis[i] < self.basis[l]));
                    if better {
                        best = ratio;
                        leave = Some(i);
                    }
                }
            }
            let Some(leave) = leave else {
                return Err(SpiderError::Unbounded);
            };
            self.pivot(leave, enter, cost);
        }
    }

    fn pivot(&mut self, row: usize, col: usize, cost: &mut [f64]) {
        let pivot = self.a[row][col];
        debug_assert!(pivot.abs() > EPS);
        for j in 0..=self.n_total {
            self.a[row][j] /= pivot;
        }
        self.a[row][col] = 1.0; // exactness
        for i in 0..self.m {
            if i != row {
                let factor = self.a[i][col];
                if factor != 0.0 {
                    for j in 0..=self.n_total {
                        self.a[i][j] -= factor * self.a[row][j];
                    }
                    self.a[i][col] = 0.0;
                }
            }
        }
        let factor = cost[col];
        if factor != 0.0 {
            for (c, &a) in cost.iter_mut().zip(&self.a[row]) {
                *c -= factor * a;
            }
            cost[col] = 0.0;
        }
        self.basis[row] = col;
    }

    /// After phase 1, pivot any artificial still basic (at value 0) out of
    /// the basis, or drop its (redundant) row.
    fn evict_basic_artificials(&mut self) {
        for i in 0..self.m {
            if self.basis[i] < self.artificial_start {
                continue;
            }
            // Find a non-artificial column with a nonzero entry.
            if let Some(col) = (0..self.artificial_start).find(|&j| self.a[i][j].abs() > EPS) {
                let mut dummy = vec![0.0; self.n_total + 1];
                self.pivot(i, col, &mut dummy);
            } else {
                // Redundant row: zero it so it never constrains anything.
                for j in 0..=self.n_total {
                    self.a[i][j] = 0.0;
                }
            }
        }
    }
}

/// Normalizes a row to non-negative rhs, returning the effective operator
/// and whether the row was flipped.
fn normalized_op(row: &Row) -> (ConstraintOp, bool) {
    if row.rhs >= 0.0 {
        (row.op, false)
    } else {
        let flipped = match row.op {
            ConstraintOp::Le => ConstraintOp::Ge,
            ConstraintOp::Ge => ConstraintOp::Le,
            ConstraintOp::Eq => ConstraintOp::Eq,
        };
        (flipped, true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-7, "{a} vs {b}");
    }

    #[test]
    fn textbook_maximization() {
        // max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18 → (2, 6), z = 36.
        let mut lp = LinearProgram::new(2);
        lp.set_objective(0, 3.0);
        lp.set_objective(1, 5.0);
        lp.constraint(&[(0, 1.0)], ConstraintOp::Le, 4.0);
        lp.constraint(&[(1, 2.0)], ConstraintOp::Le, 12.0);
        lp.constraint(&[(0, 3.0), (1, 2.0)], ConstraintOp::Le, 18.0);
        let sol = lp.solve().unwrap();
        assert_close(sol.objective, 36.0);
        assert_close(sol.x[0], 2.0);
        assert_close(sol.x[1], 6.0);
    }

    #[test]
    fn equality_constraints() {
        // max x + y s.t. x + y = 5, x - y = 1 → (3, 2), z = 5.
        let mut lp = LinearProgram::new(2);
        lp.set_objective(0, 1.0);
        lp.set_objective(1, 1.0);
        lp.constraint(&[(0, 1.0), (1, 1.0)], ConstraintOp::Eq, 5.0);
        lp.constraint(&[(0, 1.0), (1, -1.0)], ConstraintOp::Eq, 1.0);
        let sol = lp.solve().unwrap();
        assert_close(sol.objective, 5.0);
        assert_close(sol.x[0], 3.0);
        assert_close(sol.x[1], 2.0);
    }

    #[test]
    fn ge_constraints_and_minimization_shape() {
        // max -(x + y) s.t. x + 2y >= 4, 3x + y >= 6  (i.e. min x+y).
        // Optimum x = 8/5, y = 6/5, objective = -14/5.
        let mut lp = LinearProgram::new(2);
        lp.set_objective(0, -1.0);
        lp.set_objective(1, -1.0);
        lp.constraint(&[(0, 1.0), (1, 2.0)], ConstraintOp::Ge, 4.0);
        lp.constraint(&[(0, 3.0), (1, 1.0)], ConstraintOp::Ge, 6.0);
        let sol = lp.solve().unwrap();
        assert_close(sol.objective, -14.0 / 5.0);
        assert_close(sol.x[0], 8.0 / 5.0);
        assert_close(sol.x[1], 6.0 / 5.0);
    }

    #[test]
    fn negative_rhs_is_normalized() {
        // max x s.t. -x <= -2, x <= 5  (i.e. x >= 2) → 5.
        let mut lp = LinearProgram::new(1);
        lp.set_objective(0, 1.0);
        lp.constraint(&[(0, -1.0)], ConstraintOp::Le, -2.0);
        lp.constraint(&[(0, 1.0)], ConstraintOp::Le, 5.0);
        let sol = lp.solve().unwrap();
        assert_close(sol.objective, 5.0);
    }

    #[test]
    fn infeasible_detected() {
        let mut lp = LinearProgram::new(1);
        lp.set_objective(0, 1.0);
        lp.constraint(&[(0, 1.0)], ConstraintOp::Le, 1.0);
        lp.constraint(&[(0, 1.0)], ConstraintOp::Ge, 2.0);
        assert_eq!(lp.solve().unwrap_err(), SpiderError::Infeasible);
    }

    #[test]
    fn unbounded_detected() {
        let mut lp = LinearProgram::new(2);
        lp.set_objective(0, 1.0);
        lp.constraint(&[(1, 1.0)], ConstraintOp::Le, 1.0);
        assert_eq!(lp.solve().unwrap_err(), SpiderError::Unbounded);
    }

    #[test]
    fn degenerate_cycling_guard() {
        // Beale's classic cycling example (cycles without Bland's rule).
        let mut lp = LinearProgram::new(4);
        lp.set_objective(0, 0.75);
        lp.set_objective(1, -150.0);
        lp.set_objective(2, 0.02);
        lp.set_objective(3, -6.0);
        lp.constraint(
            &[(0, 0.25), (1, -60.0), (2, -0.04), (3, 9.0)],
            ConstraintOp::Le,
            0.0,
        );
        lp.constraint(
            &[(0, 0.5), (1, -90.0), (2, -0.02), (3, 3.0)],
            ConstraintOp::Le,
            0.0,
        );
        lp.constraint(&[(2, 1.0)], ConstraintOp::Le, 1.0);
        let sol = lp.solve().unwrap();
        assert_close(sol.objective, 0.05);
    }

    #[test]
    fn zero_objective_feasibility_check() {
        let mut lp = LinearProgram::new(2);
        lp.constraint(&[(0, 1.0), (1, 1.0)], ConstraintOp::Eq, 3.0);
        let sol = lp.solve().unwrap();
        assert_close(sol.objective, 0.0);
        assert_close(sol.x[0] + sol.x[1], 3.0);
    }

    #[test]
    fn redundant_equalities() {
        // x + y = 2 twice (redundant) plus max x.
        let mut lp = LinearProgram::new(2);
        lp.set_objective(0, 1.0);
        lp.constraint(&[(0, 1.0), (1, 1.0)], ConstraintOp::Eq, 2.0);
        lp.constraint(&[(0, 1.0), (1, 1.0)], ConstraintOp::Eq, 2.0);
        let sol = lp.solve().unwrap();
        assert_close(sol.objective, 2.0);
    }

    #[test]
    fn duplicate_coefficients_sum() {
        // max x s.t. (0.5 + 0.5)x <= 3.
        let mut lp = LinearProgram::new(1);
        lp.set_objective(0, 1.0);
        lp.constraint(&[(0, 0.5), (0, 0.5)], ConstraintOp::Le, 3.0);
        assert_close(lp.solve().unwrap().objective, 3.0);
    }

    #[test]
    fn transportation_like_problem() {
        // 2 suppliers (cap 10, 15), 2 consumers (need >= 8, >= 12),
        // maximize total shipped with per-lane caps; x[s][c] as 4 vars.
        let mut lp = LinearProgram::new(4); // x00 x01 x10 x11
        for v in 0..4 {
            lp.set_objective(v, 1.0);
        }
        lp.constraint(&[(0, 1.0), (1, 1.0)], ConstraintOp::Le, 10.0);
        lp.constraint(&[(2, 1.0), (3, 1.0)], ConstraintOp::Le, 15.0);
        lp.constraint(&[(0, 1.0), (2, 1.0)], ConstraintOp::Le, 8.0);
        lp.constraint(&[(1, 1.0), (3, 1.0)], ConstraintOp::Le, 12.0);
        let sol = lp.solve().unwrap();
        assert_close(sol.objective, 20.0);
    }

    #[test]
    fn solution_respects_constraints() {
        use spider_types::DetRng;
        let mut rng = DetRng::new(5);
        for _ in 0..20 {
            let n = 4;
            let mut lp = LinearProgram::new(n);
            for v in 0..n {
                lp.set_objective(v, rng.uniform() * 2.0 - 0.5);
            }
            let mut rows = Vec::new();
            for _ in 0..5 {
                let coeffs: Vec<(usize, f64)> = (0..n).map(|v| (v, rng.uniform())).collect();
                let rhs = 1.0 + rng.uniform() * 5.0;
                rows.push((coeffs.clone(), rhs));
                lp.constraint(&coeffs, ConstraintOp::Le, rhs);
            }
            // All-≤ with positive rhs: always feasible (x = 0); bounded when
            // every variable with positive objective has a binding row —
            // random coefficients are all positive, so bounded.
            let sol = lp.solve().unwrap();
            for (coeffs, rhs) in rows {
                let lhs: f64 = coeffs.iter().map(|&(v, c)| c * sol.x[v]).sum();
                assert!(lhs <= rhs + 1e-6, "constraint violated: {lhs} > {rhs}");
            }
            assert!(sol.x.iter().all(|&xi| xi >= -1e-9));
        }
    }
}
