//! The figure registry, its committed scoreboard, the LP-level figures
//! end to end, and proof that the claims moved out of CI's Python
//! validators can fail.

use spider_bench::figure::{run, Body, Rows};
use spider_bench::table::Table;
use spider_bench::{Figure, Options, Scale, FIGURES};
use spider_core::output::FigureRow;
use spider_core::{ExperimentConfig, TopologyConfig};
use spider_sim::WorkloadConfig;
use std::path::PathBuf;

fn figure(name: &str) -> &'static Figure {
    FIGURES
        .iter()
        .find(|f| f.name == name)
        .unwrap_or_else(|| panic!("no figure {name}"))
}

/// The statements of `name`'s claims that `rows` fails.
fn failed_on_rows(name: &str, rows: &Rows) -> Vec<&'static str> {
    let Body::Sweep { claims, .. } = &figure(name).body else {
        panic!("{name} is not a sweep figure");
    };
    let failed = claims.iter().filter(|c| (c.check)(rows).is_err());
    failed.map(|c| c.text).collect()
}

/// The statements of `name`'s claims that `table` fails.
fn failed_on_table(name: &str, table: &Table) -> Vec<&'static str> {
    let Body::Table { claims, .. } = &figure(name).body else {
        panic!("{name} is not a table figure");
    };
    let failed = claims.iter().filter(|c| (c.check)(table).is_err());
    failed.map(|c| c.text).collect()
}

#[test]
fn registry_names_are_unique_and_every_figure_has_a_claim() {
    for (i, f) in FIGURES.iter().enumerate() {
        assert!(
            FIGURES.iter().skip(i + 1).all(|g| g.name != f.name),
            "duplicate figure name {}",
            f.name
        );
        assert!(!f.claim_texts().is_empty(), "{} has no claim", f.name);
        assert!(f.scales.contains(&Scale::Default), "{}", f.name);
        assert!(f.scales.windows(2).all(|w| w[0] < w[1]), "{}", f.name);
        // A request resolves to a scale the figure defines.
        for requested in [Scale::Smoke, Scale::Default, Scale::Full, Scale::Paper] {
            assert!(f.scales.contains(&f.resolve(requested)), "{}", f.name);
        }
    }
    // `--smoke` resizes the three resilience sweeps and fig10, nothing else.
    let smoke: Vec<&str> = FIGURES
        .iter()
        .filter(|f| f.resolve(Scale::Smoke) == Scale::Smoke)
        .map(|f| f.name)
        .collect();
    assert_eq!(
        smoke,
        [
            "fig10_queue_dynamics",
            "churn_resilience",
            "fault_resilience",
            "overload_resilience"
        ]
    );
    assert_eq!(figure("fig6_success").resolve(Scale::Paper), Scale::Full);
    assert_eq!(figure("fig4_example").resolve(Scale::Full), Scale::Default);
}

#[test]
fn committed_scoreboard_lists_exactly_the_registry_claims() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/baselines/REPRODUCTION.json");
    let doc = serde_json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
    let committed: Vec<(String, String, String)> = doc
        .as_array()
        .unwrap()
        .iter()
        .map(|rec| {
            assert_eq!(rec["pass"], true, "{rec:?}");
            let field = |k: &str| rec[k].as_str().unwrap().to_string();
            (field("figure"), field("paper_ref"), field("claim"))
        })
        .collect();
    let registry: Vec<(String, String, String)> = FIGURES
        .iter()
        .flat_map(|f| {
            f.claim_texts()
                .into_iter()
                .map(|c| (f.name.to_string(), f.paper_ref.to_string(), c.to_string()))
        })
        .collect();
    assert_eq!(committed, registry);
}

/// ROADMAP direction 3(b): the fluid-model statements that used to be
/// `assert!`s inside four binaries' `main`s.
#[test]
fn lp_level_figures_run_write_their_stem_and_pass_their_claims() {
    let out_dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("lp_figures");
    let opts = Options {
        scale: Scale::Default,
        seed: 42,
        out_dir: Some(out_dir.clone()),
        only: None,
    };
    for name in [
        "fig4_example",
        "prop1_circulation",
        "rebalancing_curve",
        "primal_dual_convergence",
    ] {
        let verdicts = run(figure(name), &opts).unwrap();
        assert_eq!(verdicts.len(), figure(name).claim_texts().len());
        for (claim, check) in verdicts {
            assert!(check.is_ok(), "{name}: {claim} — {check:?}");
        }
        for ext in ["csv", "jsonl"] {
            let file = out_dir.join(format!("{name}.{ext}"));
            assert!(file.metadata().unwrap().len() > 0, "{}", file.display());
        }
        // The whole table, not just the verdicts: a moved LP optimum
        // (say, a different path set) may still pass its claim.
        let committed = format!("{}/baselines/lp/{name}.csv", env!("CARGO_MANIFEST_DIR"));
        assert_eq!(
            std::fs::read_to_string(out_dir.join(format!("{name}.csv"))).unwrap(),
            std::fs::read_to_string(&committed).unwrap(),
            "{name}.csv differs from {committed}"
        );
    }
    // A table has no experiment labels for `--only` to select.
    let only = Options {
        only: Some("isp".to_string()),
        ..opts
    };
    assert!(run(figure("fig4_example"), &only).is_err());
}

#[test]
fn fig4_claim_fails_when_a_quantity_is_off() {
    let mut t = Table::new(["quantity", "paper", "measured", "within_1e-6"]);
    t.push(
        Some("total demand (units/s)"),
        [(12.0, 1), (12.0, 4), (1e-6, 9)],
    );
    assert!(failed_on_table("fig4_example", &t).is_empty());
    // The optimum constant 8 → 7: off by one, far outside 1e-6.
    t.push(
        Some("optimal balanced throughput (Fig. 4c)"),
        [(7.0, 1), (8.0, 4), (1e-6 - 1.0, 9)],
    );
    assert_eq!(failed_on_table("fig4_example", &t).len(), 1);
}

/// A real `FigureRow` (from a 40-payment run) to relabel and doctor.
fn template_row() -> FigureRow {
    let report = ExperimentConfig {
        topology: TopologyConfig::PaperExample { capacity_xrp: 200 },
        workload: WorkloadConfig::small(40, 100.0),
        ..ExperimentConfig::default()
    }
    .run()
    .unwrap();
    FigureRow::new("", "", 0.0, &report)
}

fn relabel(template: &FigureRow, experiment: &str, value: f64) -> FigureRow {
    FigureRow {
        experiment: experiment.to_string(),
        value,
        ..template.clone()
    }
}

#[test]
fn fault_claims_fail_on_doctored_rows() {
    let template = template_row();
    let mut rows = Rows::default();
    for experiment in ["fault-isp", "fault-ripple"] {
        for intensity in [0.0, 0.5, 1.0, 2.0] {
            let mut row = relabel(&template, experiment, intensity);
            row.units_dropped_fault = if intensity > 0.0 { 3 } else { 0 };
            rows.rows.push(row);
        }
    }
    assert!(failed_on_rows("fault_resilience", &rows).is_empty());

    let mut faulty_at_zero = rows.clone();
    faulty_at_zero.rows[0].units_dropped_fault = 1;
    assert_eq!(
        failed_on_rows("fault_resilience", &faulty_at_zero),
        ["zero-intensity runs stay fault-free"]
    );

    let mut nothing_landed = rows.clone();
    for row in &mut nothing_landed.rows {
        row.units_dropped_fault = 0;
    }
    assert_eq!(
        failed_on_rows("fault_resilience", &nothing_landed),
        ["faults land at some non-zero intensity"]
    );

    let mut one_topology = rows.clone();
    one_topology.rows.retain(|r| r.experiment == "fault-isp");
    assert_eq!(
        failed_on_rows("fault_resilience", &one_topology),
        ["at least 3 non-zero fault intensities on both topologies"]
    );
    // The churn sweep shares the coverage check.
    assert_eq!(failed_on_rows("churn_resilience", &rows).len(), 1);
}

#[test]
fn overload_claims_fail_on_doctored_rows() {
    let template = template_row();
    let mut rows = Rows::default();
    for topology in ["isp", "ripple"] {
        for variant in ["protected", "unprotected"] {
            for load in [0.5, 1.0, 2.0, 4.0, 8.0] {
                let mut row = relabel(&template, &format!("overload-{topology}-{variant}"), load);
                row.admission_deferred = u64::from(variant == "protected");
                rows.rows.push(row);
            }
        }
    }
    assert!(failed_on_rows("overload_resilience", &rows).is_empty());

    let mut unprotected_sheds = rows.clone();
    let last = unprotected_sheds.rows.last_mut().unwrap();
    assert!(last.experiment.ends_with("-unprotected"));
    last.units_dropped_shed = 2;
    assert_eq!(
        failed_on_rows("overload_resilience", &unprotected_sheds),
        ["unprotected runs never shed, reject or defer"]
    );

    let mut gate_never_trips = rows.clone();
    for row in &mut gate_never_trips.rows {
        row.admission_deferred = 0;
    }
    assert_eq!(
        failed_on_rows("overload_resilience", &gate_never_trips),
        ["some protected run trips the shaping admission gate"]
    );
}

#[test]
fn fig10_claims_fail_on_doctored_tables() {
    let mut columns = vec!["t_s".to_string()];
    for scheme in [
        "spider_protocol",
        "shortest_path_window",
        "spider_waterfilling_window",
    ] {
        columns.push(format!("thrpt_xrp_{scheme}"));
        columns.push(format!("queued_units_{scheme}"));
    }
    columns.extend((0..8).map(|c| format!("depth_n{c}-n{}", c + 1)));
    let mut table = Table::new(columns);
    for t in 0..4 {
        let zeros = std::iter::repeat_n((0.0, 0), table.columns.len() - 1);
        table.push(None, [(f64::from(t), 0)].into_iter().chain(zeros));
    }
    assert!(failed_on_table("fig10_queue_dynamics", &table).is_empty());

    let mut seven_depths = table.clone();
    seven_depths.columns.pop();
    assert_eq!(
        failed_on_table("fig10_queue_dynamics", &seven_depths),
        ["the protocol run's eight busiest channels each get a depth column"]
    );

    let mut skipped_second = table.clone();
    skipped_second.rows.remove(1);
    assert_eq!(
        failed_on_table("fig10_queue_dynamics", &skipped_second),
        ["one row per simulated second: t_s counts 0, 1, 2, … without a gap"]
    );

    let mut missing_series = table.clone();
    missing_series.columns[2] = "queued_units_other".to_string();
    missing_series.json_keys = missing_series.columns.clone();
    assert_eq!(
        failed_on_table("fig10_queue_dynamics", &missing_series),
        ["each of the three transports has a throughput and a queued-units column"]
    );
}
