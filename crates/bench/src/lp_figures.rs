//! The LP-level figures: the paper's fluid-model statements (§5.1–§5.3),
//! checked with the simplex and primal-dual solvers — no simulator runs.

use crate::figure::{holds, Body, Check, Claim, Figure};
use crate::table::Table;
use crate::{Result, Scale};
use spider_lp::fluid::{FluidProblem, PathSelection};
use spider_lp::primal_dual::{solve_problem, PrimalDualConfig};
use spider_paygraph::decompose::{decompose, max_circulation_value};
use spider_paygraph::{examples, generate, PaymentGraph};
use spider_topology::{gen, Topology};
use spider_types::{Amount, DetRng};

/// Ample per-channel capacity: isolates the balance constraints.
const AMPLE: Amount = Amount::from_xrp(1_000_000);
/// Confirmation delay Δ of the fluid model (s).
const DELTA: f64 = 0.5;

/// Every number of `column` (over the rows labelled `key`) is at least
/// `floor`; the margin is the smallest excess.
fn at_least(t: &Table, key: Option<&str>, column: &str, floor: f64) -> Check {
    let least = t
        .numbers(key, column)?
        .into_iter()
        .fold(f64::INFINITY, f64::min);
    holds(least - floor, || {
        format!("{column} reaches {least}, below {floor}")
    })
}

/// `got` equals `want` to 1e-6; the margin is what is left of the 1e-6.
fn near(got: Option<&f64>, want: f64) -> Check {
    let got = got.copied().unwrap_or(f64::NAN);
    holds(1e-6 - (got - want).abs(), || format!("{got} vs {want}"))
}

/// §5.1 / Figs. 4–5 — the motivating example: on the 5-node topology with
/// the paper's demand set (12 units/s), shortest-path balanced routing
/// achieves 5 units/s (Fig. 4b), optimal balanced routing 8 (Fig. 4c) =
/// ν(C*) (Fig. 5b), and the DAG residue carries the other 4 (Fig. 5c).
pub const FIG4_EXAMPLE: Figure = Figure {
    name: "fig4_example",
    paper_ref: "§5.1, Figs. 4–5",
    about: "5-node example: shortest-path 5 vs optimal 8 = ν(C*) units/s, DAG residue 4",
    scales: &[Scale::Default],
    body: Body::Table {
        build: fig4_table,
        claims: &[Claim::new(
            "demand 12, shortest-path 5, optimal 8 = ν(C*), DAG residue 4 units/s, exact to 1e-6",
            |t| at_least(t, None, "within_1e-6", 0.0),
        )],
    },
};

fn fig4_table(_: Scale, _: u64) -> Result<Table> {
    let topo = gen::paper_example_topology(AMPLE);
    let demands = examples::paper_example_demands();
    let balanced = |paths| FluidProblem::new(&topo, &demands, DELTA, paths).solve_balanced();
    let sp = balanced(PathSelection::ShortestOnly)?;
    let opt = balanced(PathSelection::KShortest(4))?;
    let dec = decompose(&demands, 1e-6);
    let (total, nu) = (examples::TOTAL_DEMAND, examples::MAX_CIRCULATION);
    let mut t = Table::new(["quantity", "paper", "measured", "within_1e-6"]);
    for (name, paper, measured) in [
        ("total demand (units/s)", total, demands.total_demand()),
        (
            "shortest-path balanced throughput (Fig. 4b)",
            examples::SHORTEST_PATH_THROUGHPUT,
            sp.throughput,
        ),
        ("optimal balanced throughput (Fig. 4c)", nu, opt.throughput),
        ("max circulation ν(C*) (Fig. 5b)", nu, dec.circulation_value),
        ("DAG residue (Fig. 5c)", total - nu, dec.dag.total_demand()),
    ] {
        let within = 1e-6 - (paper - measured).abs();
        t.push(Some(name), [(paper, 1), (measured, 4), (within, 9)]);
    }
    // Paper Fig. 5b: seven circulation edges weighted 2,1,1,1,1,1,1.
    let mut weights: Vec<_> = dec
        .circulation
        .edges()
        .map(|e| (e.rate, e.src.0 + 1, e.dst.0 + 1))
        .collect();
    weights.sort_by(|a, b| b.0.total_cmp(&a.0).then((a.1, a.2).cmp(&(b.1, b.2))));
    for (w, src, dst) in weights {
        eprintln!("  circulation weight {src} → {dst}: {w:.1}");
    }
    for f in &opt.flows {
        let path: Vec<String> = f.path.nodes.iter().map(|n| (n.0 + 1).to_string()).collect();
        eprintln!(
            "  Fig. 4c flow {} → {}: {:.2} via {}",
            f.src.0 + 1,
            f.dst.0 + 1,
            f.rate,
            path.join("-")
        );
    }
    Ok(t)
}

/// Proposition 1 — "the maximum achievable throughput in a payment
/// channel network with perfect balance equals ν(C*)" — on random payment
/// graphs over cycles, with the balanced-routing LP given the shortest
/// path only and then k = 6 paths.
pub const PROP1_CIRCULATION: Figure = Figure {
    name: "prop1_circulation",
    paper_ref: "§5.2.2, Prop. 1",
    about:
        "random demand graphs: balanced-LP throughput ≤ ν(C*) for any path set, = ν(C*) with k = 6",
    scales: &[Scale::Default, Scale::Full],
    body: Body::Table {
        build: prop1_table,
        claims: &[
            Claim::new(
                "balanced throughput never exceeds ν(C*), for either path set, in every trial",
                |t| at_least(t, None, "bound_slack", 0.0),
            ),
            Claim::new(
                "ν(C*) is achieved with k = 6 paths in at least 90 % of trials",
                |t| {
                    let gaps = t.numbers(None, "achieve_gap")?;
                    let achieved = gaps.iter().filter(|gap| **gap < 0.0).count();
                    let share = achieved as f64 / gaps.len().max(1) as f64;
                    holds(share - 0.9, || {
                        format!("achieved in {achieved}/{} trials", gaps.len())
                    })
                },
            ),
        ],
    },
};

fn prop1_table(scale: Scale, seed: u64) -> Result<Table> {
    let trials = if scale.is_full() { 60 } else { 20 };
    let mut rng = DetRng::new(seed);
    let mut t = Table::new([
        "trial",
        "nodes",
        "demand",
        "nu",
        "lp_shortest",
        "lp_k6",
        "bound_slack",
        "achieve_gap",
    ]);
    for trial in 0..trials {
        let n = 5 + rng.index(5);
        let topo = gen::cycle(n, AMPLE); // connected; a cycle keeps paths diverse
        let circ_frac = rng.uniform();
        let demand = generate::mixed_demand(n, 6.0 + rng.uniform() * 6.0, circ_frac, &mut rng);
        if demand.edge_count() == 0 {
            continue;
        }
        let lp = |paths| FluidProblem::new(&topo, &demand, DELTA, paths).solve_balanced();
        let (sp, k6) = (
            lp(PathSelection::ShortestOnly)?.throughput,
            lp(PathSelection::KShortest(6))?.throughput,
        );
        // `decompose` quantizes rates to its precision grid (1e-9 here),
        // so the comparison tolerance scales with the trial's demand.
        let (nu, tol) = (
            max_circulation_value(&demand, 1e-9),
            1e-6 * demand.total_demand().max(1.0),
        );
        let (bound_slack, achieve_gap) = (nu + tol - sp.max(k6), (k6 - nu).abs() - tol);
        let ids = [(trial as f64, 0), (n as f64, 0)];
        let numbers = [demand.total_demand(), nu, sp, k6, bound_slack, achieve_gap];
        t.push(None, ids.into_iter().chain(numbers.map(|v| (v, 9))));
    }
    Ok(t)
}

/// §5.2.3 — throughput with on-chain rebalancing: the t(B) curve (maximum
/// throughput under a total rebalancing budget B, eqs. 12–18) and the
/// γ-form's endpoints (eqs. 6–11; γ = 100 ⇒ the balanced optimum, γ = 0
/// ⇒ full demand), for the §5.1 example and a random small-world
/// instance, with ample channel capacity.
pub const REBALANCING_CURVE: Figure = Figure {
    name: "rebalancing_curve",
    paper_ref: "§5.2.3, eqs. 6–18",
    about: "t(B): throughput vs rebalancing budget, example + random instance; γ-form endpoints",
    scales: &[Scale::Default],
    body: Body::Table {
        build: rebalancing_table,
        claims: &[
            Claim::new(
                "t(0) = ν(C*): no rebalancing gives the Proposition 1 bound",
                |t| per_curve(t, |c| near(c.t.first(), c.nu)),
            ),
            Claim::new("t(B) is non-decreasing in the budget", |t| {
                per_curve(t, |c| {
                    let steps = c.t.iter().zip(c.t.iter().skip(1)).map(|(lo, hi)| hi - lo);
                    holds(steps.fold(f64::INFINITY, f64::min) + 1e-9, || {
                        "t(B) drops".to_string()
                    })
                })
            }),
            Claim::new("t(B) is concave in the budget", |t| {
                per_curve(t, |c| {
                    let mut margin = f64::INFINITY;
                    for (b, t) in c.budgets.windows(3).zip(c.t.windows(3)) {
                        if let ([b0, b1, b2], [t0, t1, t2]) = (b, t) {
                            let chord = t0 + (t2 - t0) * (b1 - b0) / (b2 - b0);
                            margin = margin.min(t1 - chord + 1e-6);
                        }
                    }
                    holds(margin, || "t(B) dips under a chord".to_string())
                })
            }),
            Claim::new("t(B) reaches total demand at the largest budget", |t| {
                per_curve(t, |c| near(c.t.last(), c.demand))
            }),
            Claim::new(
                "the γ-form recovers ν(C*) at γ = 100 and total demand at γ = 0",
                |t| {
                    per_curve(t, |c| {
                        let high = near(c.gamma.first(), c.nu)?;
                        Ok(high.min(near(c.gamma.last(), c.demand)?))
                    })
                },
            ),
        ],
    },
};

const INSTANCES: [&str; 2] = ["paper-example", "random-small-world"];

/// One instance's rows of the rebalancing table.
struct Curve {
    budgets: Vec<f64>,
    /// t(B) at each budget.
    t: Vec<f64>,
    /// Throughput at γ = 100, then γ = 0.
    gamma: Vec<f64>,
    nu: f64,
    demand: f64,
}

/// Applies `check` to every instance's curve; the margin is the smallest.
fn per_curve(table: &Table, check: fn(&Curve) -> Check) -> Check {
    let mut margin = f64::INFINITY;
    for name in INSTANCES {
        let (budget, gamma) = (format!("{name} t(B)"), format!("{name} γ-form"));
        let column = |column| table.numbers(Some(&budget), column);
        let first = |numbers: Vec<f64>| numbers.first().copied().unwrap_or(f64::NAN);
        let curve = Curve {
            budgets: column("value")?,
            t: column("throughput")?,
            gamma: table.numbers(Some(&gamma), "throughput")?,
            nu: first(column("nu")?),
            demand: first(column("demand")?),
        };
        margin = margin.min(check(&curve).map_err(|why| format!("{name}: {why}"))?);
    }
    Ok(margin)
}

fn rebalancing_table(_: Scale, seed: u64) -> Result<Table> {
    let mut t = Table::new(["curve", "value", "throughput", "nu", "demand"]);
    let [example, random] = INSTANCES;
    let topo = gen::paper_example_topology(AMPLE);
    let budgets = [0.0, 0.5, 1.0, 2.0, 3.0, 4.0, 6.0, 10.0];
    rebalancing_rows(
        &mut t,
        example,
        &topo,
        &examples::paper_example_demands(),
        budgets,
    )?;
    let mut rng = DetRng::new(seed);
    let topo = gen::watts_strogatz(12, 4, 0.2, AMPLE, &mut rng);
    let demands = generate::mixed_demand(12, 20.0, 0.5, &mut rng);
    let budgets = [0.0, 2.0, 4.0, 8.0, 12.0, 16.0, 24.0, 40.0];
    rebalancing_rows(&mut t, random, &topo, &demands, budgets)?;
    Ok(t)
}

fn rebalancing_rows(
    t: &mut Table,
    name: &str,
    topo: &Topology,
    demands: &PaymentGraph,
    budgets: [f64; 8],
) -> Result<()> {
    let (nu, total) = (max_circulation_value(demands, 1e-6), demands.total_demand());
    let problem = FluidProblem::new(topo, demands, DELTA, PathSelection::KShortest(4));
    let mut row = |knob: &str, value, throughput| {
        let label = format!("{name} {knob}");
        t.push(
            Some(&label),
            [(value, 2), (throughput, 9), (nu, 9), (total, 9)],
        );
    };
    for b in budgets {
        row("t(B)", b, problem.throughput_with_budget(b)?);
    }
    for gamma in [100.0, 0.0] {
        let solution = problem.solve_with_rebalancing(gamma)?;
        row("γ-form", gamma, solution.throughput);
    }
    Ok(())
}

/// §5.3 — "for sufficiently small step sizes, the above algorithm
/// converges to the optimal solution": eqs. (21)–(24) on the §5.1 example
/// (with its throughput trajectory) and on random cycle instances,
/// against the simplex optimum.
pub const PRIMAL_DUAL_CONVERGENCE: Figure = Figure {
    name: "primal_dual_convergence",
    paper_ref: "§5.3, eqs. 21–24",
    about: "primal-dual iteration vs the simplex optimum: example trajectory + random instances",
    scales: &[Scale::Default, Scale::Full],
    body: Body::Table {
        build: primal_dual_table,
        claims: &[
            Claim::new(
                "primal-dual lands within 5 % of the LP optimum on the §5.1 example",
                |t| at_least(t, Some("example-final"), "pct_inside_tolerance", 0.0),
            ),
            Claim::new(
                "primal-dual lands within 15 % of the LP optimum on every random instance",
                |t| at_least(t, Some("random-final"), "pct_inside_tolerance", 0.0),
            ),
        ],
    },
};

/// Rows: the example's sampled trajectory, its tail-averaged final row,
/// then one final row per random instance. `pct_inside_tolerance` is the
/// tolerance (5 % example, 15 % random) less the row's relative error.
fn primal_dual_table(scale: Scale, seed: u64) -> Result<Table> {
    let full = scale.is_full();
    let (example_iterations, random_iterations) = if full {
        (200_000, 200_000)
    } else {
        (60_000, 80_000)
    };
    let columns = ["stage", "iteration", "throughput", "simplex", "rel_err_pct"];
    let mut t = Table::new(columns.into_iter().chain(["pct_inside_tolerance"]));
    let topo = gen::paper_example_topology(AMPLE);
    let demands = examples::paper_example_demands();
    primal_dual_rows(&mut t, "example", &topo, &demands, 4, example_iterations)?;
    let mut rng = DetRng::new(seed);
    for _ in 0..if full { 10 } else { 4 } {
        let demands = generate::mixed_demand(6, 6.0, 0.5 + 0.5 * rng.uniform(), &mut rng);
        primal_dual_rows(
            &mut t,
            "random",
            &gen::cycle(6, AMPLE),
            &demands,
            3,
            random_iterations,
        )?;
    }
    Ok(t)
}

fn primal_dual_rows(
    t: &mut Table,
    kind: &str,
    topo: &Topology,
    demands: &PaymentGraph,
    k: usize,
    iterations: usize,
) -> Result<()> {
    let tolerance_pct = if kind == "example" { 5.0 } else { 15.0 };
    let problem = FluidProblem::new(topo, demands, DELTA, PathSelection::KShortest(k));
    let lp = problem.solve_balanced()?.throughput;
    let mut cfg = PrimalDualConfig::for_demand_scale(2.0);
    (cfg.iterations, cfg.sample_every) = (iterations, iterations / 20);
    let pd = solve_problem(topo, demands, DELTA, &problem, &cfg);
    let mut row = |stage: &str, iteration: usize, throughput: f64| {
        let gap = (throughput - lp).abs();
        let err = 100.0 * if lp > 1e-9 { gap / lp } else { gap };
        let numbers = [(iteration as f64, 0), (throughput, 4), (lp, 4), (err, 2)];
        let inside = [(tolerance_pct - err, 2)];
        t.push(
            Some(&format!("{kind}-{stage}")),
            numbers.into_iter().chain(inside),
        );
    };
    for &(iteration, throughput) in pd.trajectory.iter().filter(|_| kind == "example") {
        row("trajectory", iteration, throughput);
    }
    row("final", iterations, pd.throughput);
    Ok(())
}
