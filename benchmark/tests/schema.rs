//! `BENCHMARK.json` and the bin agree: every workload and metric the file
//! names is emitted by the bin with the stated unit, and the bin emits
//! nothing the file does not name.

use serde_json::Value;
use spider_benchmark::metrics::{benchmark_json, END_TO_END, PER_LAYER};
use spider_benchmark::runner::CAP_FACTOR;
use spider_benchmark::workloads::NAMES;
use std::collections::BTreeSet;
use std::process::Command;

fn schema() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is at the repo root");
    assert_eq!(
        text,
        benchmark_json(),
        "BENCHMARK.json drifted from the bin's tables; regenerate it with `-- schema`"
    );
    assert!(text.len() <= 64 * 1024, "BENCHMARK.json is over 64 KiB");
    serde_json::parse(&text).expect("BENCHMARK.json is valid JSON")
}

fn entries<'a>(schema: &'a Value, list: &str) -> &'a [Value] {
    schema[list]
        .as_array()
        .unwrap_or_else(|| panic!("{list} is a list"))
}

fn valid_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name.chars().all(ok)
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
}

fn valid_unit(unit: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
    !unit.is_empty() && unit.len() <= 16 && unit.chars().all(ok)
}

#[test]
fn benchmark_json_meets_the_contract() {
    let schema = schema();
    let keys: Vec<&str> = schema
        .as_object()
        .expect("an object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let run_seconds = schema["run_seconds"].as_u64().expect("a whole number");
    assert!((1..=60).contains(&run_seconds));
    assert!(entries(&schema, "command").len() <= 32);
    assert_eq!(entries(&schema, "paths").len(), 1);

    let (workloads, e2e, layers) = (
        entries(&schema, "workloads"),
        entries(&schema, "end_to_end"),
        entries(&schema, "per_layer"),
    );
    assert!((2..=8).contains(&workloads.len()));
    assert!((1..=16).contains(&e2e.len()));
    assert!((1..=128).contains(&layers.len()));
    // The driver makes 4 + 22 x workloads runs inside 3420 s, two builds
    // of up to two minutes included; a run is capped at `CAP_FACTOR` times
    // `run_seconds`.
    let runs = (4 + 22 * workloads.len()) as f64;
    assert!(
        runs * CAP_FACTOR * run_seconds as f64 <= 3_420.0 - 240.0,
        "the set does not fit the time cap"
    );

    let mut names = BTreeSet::new();
    for w in workloads {
        let (name, why) = (
            w["name"].as_str().expect("name"),
            w["why"].as_str().expect("why"),
        );
        assert!(valid_name(name), "{name}");
        assert!(
            why.len() <= 200 && !why.contains('\n'),
            "{name}: why is one short line"
        );
        assert!(names.insert(name.to_string()), "{name} is used twice");
    }
    for m in e2e.iter().chain(layers) {
        let name = m["name"].as_str().expect("name");
        assert!(valid_name(name), "{name}");
        assert!(valid_unit(m["unit"].as_str().expect("unit")), "{name}");
        assert!(
            matches!(m["better"].as_str(), Some("lower" | "higher")),
            "{name}"
        );
        assert!(names.insert(name.to_string()), "{name} is used twice");
    }
    for m in e2e {
        let bound = m["bound"].as_f64().expect("bound");
        assert!(
            bound > 0.0 && bound <= 0.25,
            "{}",
            m["name"].as_str().unwrap_or("?")
        );
    }
    let setup = e2e
        .iter()
        .find(|m| m["name"].as_str() == Some("setup_s"))
        .expect("setup_s is an end-to-end metric");
    assert_eq!(setup["unit"].as_str(), Some("s"));
    assert_eq!(setup["better"].as_str(), Some("lower"));
    let largest = e2e
        .iter()
        .filter_map(|m| m["bound"].as_f64())
        .fold(0.0, f64::max);
    assert_eq!(
        setup["bound"].as_f64(),
        Some(largest),
        "setup_s has the largest bound"
    );
}

/// Runs the bin at smoke scale and returns its final stdout line, parsed.
fn smoke_result(workload: &str, trace: &str) -> Value {
    let out = Command::new(env!("CARGO_BIN_EXE_spider-benchmark"))
        .args(["--workload", workload, "--seed", "42", "--seconds", "0"])
        .args(["--trace", trace, "--smoke"])
        .output()
        .expect("the bin starts");
    assert!(
        out.status.success(),
        "{workload} --trace {trace} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let last = stdout.lines().last().expect("a result line");
    let result = serde_json::parse(last).expect("the last line is one JSON object");
    let keys: Vec<&str> = result
        .as_object()
        .expect("an object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert!(matches!(result["correct"], Value::Bool(true)));
    assert!(result["attempted"].as_u64().expect("whole") >= 1);
    assert_eq!(result["failed"].as_u64(), Some(0));
    result
}

#[test]
fn the_bin_emits_exactly_the_listed_metrics_with_their_units() {
    let schema = schema();
    let listed_workloads: Vec<&str> = entries(&schema, "workloads")
        .iter()
        .map(|w| w["name"].as_str().expect("name"))
        .collect();
    assert_eq!(listed_workloads, NAMES);
    for (list, table, trace) in [
        ("end_to_end", &END_TO_END[..], "0"),
        ("per_layer", &PER_LAYER[..], "1"),
    ] {
        let listed: Vec<(&str, &str)> = entries(&schema, list)
            .iter()
            .map(|m| {
                (
                    m["name"].as_str().expect("name"),
                    m["unit"].as_str().expect("unit"),
                )
            })
            .collect();
        let in_table: Vec<(&str, &str)> = table.iter().map(|m| (m.name, m.unit)).collect();
        assert_eq!(listed, in_table, "{list}");
        for workload in NAMES {
            let result = smoke_result(workload, trace);
            let emitted: Vec<(&str, &str)> = result["metrics"]
                .as_object()
                .expect("metrics is an object")
                .iter()
                .map(|(name, m)| {
                    assert!(
                        m["value"].as_f64().is_some_and(f64::is_finite),
                        "{workload} {name}"
                    );
                    (name.as_str(), m["unit"].as_str().expect("unit"))
                })
                .collect();
            assert_eq!(emitted, listed, "{workload} --trace {trace}");
        }
    }
}

#[test]
fn the_bin_refuses_bad_arguments_without_a_result() {
    for args in [
        &["--workload", "no-such-workload"][..],
        &["--seed", "1"],
        &["--workload", NAMES[0], "--trace", "2"],
        &["agree", "only-one-file"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_spider-benchmark"))
            .args(args)
            .output()
            .expect("the bin starts");
        assert!(!out.status.success(), "{args:?} should fail");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
