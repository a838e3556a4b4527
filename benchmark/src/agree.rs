//! The agreement tool: do two sets of runs of the benchmark agree within
//! its own bounds? This is the rule the driver applies to accept the
//! benchmark, and the rule a later change is held to against its parent.
//!
//! A set is a JSON-lines file, one run per line:
//! `{"workload": "...", "seed": 7, "result": <the run's last stdout line>}`.

use crate::metrics::{iqr_frac, median, MetricDef};
use serde_json::Value;
use std::collections::BTreeMap;

/// One run's end-to-end values, by metric name.
type RunValues = BTreeMap<String, f64>;

/// A parsed set: workload → seed → values.
pub type ResultSet = BTreeMap<String, BTreeMap<u64, RunValues>>;

/// Parses a set file's text. Runs that report `correct: false` or a
/// non-zero `failed` are errors: nothing may be concluded from them.
pub fn parse_set(text: &str) -> Result<ResultSet, String> {
    let mut set = ResultSet::new();
    for (i, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let at = |what: &str| format!("line {}: {what}", i + 1);
        let v = serde_json::parse(line).map_err(|e| at(&e.to_string()))?;
        let workload = v["workload"].as_str().ok_or_else(|| at("no workload"))?;
        let seed = v["seed"].as_u64().ok_or_else(|| at("no seed"))?;
        let result = &v["result"];
        if !matches!(result["correct"], Value::Bool(true)) || result["failed"].as_u64() != Some(0) {
            return Err(at(&format!(
                "{workload} seed {seed} reports failed operations or incorrect output"
            )));
        }
        let metrics = result["metrics"]
            .as_object()
            .ok_or_else(|| at("no metrics"))?;
        let values = metrics
            .iter()
            .map(|(name, m)| {
                let value = m["value"]
                    .as_f64()
                    .ok_or_else(|| at("metric without a value"))?;
                Ok((name.clone(), value))
            })
            .collect::<Result<RunValues, String>>()?;
        set.entry(workload.to_string())
            .or_default()
            .insert(seed, values);
    }
    Ok(set)
}

/// The bounds, read from `BENCHMARK.json`'s text.
pub fn parse_bounds(benchmark_json: &str) -> Result<Vec<MetricDef>, String> {
    let v = serde_json::parse(benchmark_json).map_err(|e| e.to_string())?;
    let listed = v["end_to_end"]
        .as_array()
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    listed
        .iter()
        .map(|m| {
            // Names are matched against the bin's own table so they stay
            // `'static`; an unknown name is a schema drift.
            let name = m["name"].as_str().ok_or("metric without a name")?;
            let known = crate::metrics::END_TO_END
                .iter()
                .find(|k| k.name == name)
                .ok_or_else(|| format!("BENCHMARK.json lists unknown metric {name}"))?;
            Ok(MetricDef {
                better: if m["better"].as_str() == Some("higher") {
                    "higher"
                } else {
                    "lower"
                },
                bound: Some(m["bound"].as_f64().ok_or("metric without a bound")?),
                ..*known
            })
        })
        .collect()
}

/// The verdict on one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadVerdict {
    /// Workload name.
    pub workload: String,
    /// The largest gap or spread seen, as a share of its bound, with the
    /// line describing it.
    pub worst: (f64, String),
    /// Every breach, one line each.
    pub breaches: Vec<String>,
}

/// Compares `b` against `a` metric by metric. For every workload and
/// bounded metric: each set's interquartile spread across seeds must stay
/// within the bound (except `setup_s`), `b`'s median must not be worse
/// than `a`'s by more than the bound, and simulated metrics (unit other
/// than host time or memory) must be identical seed by seed.
pub fn compare(a: &ResultSet, b: &ResultSet, bounds: &[MetricDef]) -> Vec<WorkloadVerdict> {
    let mut verdicts = Vec::new();
    for (workload, runs_a) in a {
        let mut v = WorkloadVerdict {
            workload: workload.clone(),
            worst: (0.0, "nothing compared".to_string()),
            breaches: Vec::new(),
        };
        let Some(runs_b) = b.get(workload) else {
            v.breaches.push("missing from the second set".to_string());
            verdicts.push(v);
            continue;
        };
        for m in bounds {
            let bound = m.bound.expect("end-to-end metrics are bounded");
            let column = |runs: &BTreeMap<u64, RunValues>| -> Vec<f64> {
                runs.values()
                    .filter_map(|r| r.get(m.name).copied())
                    .collect()
            };
            let (va, vb) = (column(runs_a), column(runs_b));
            if va.is_empty() || vb.is_empty() {
                v.breaches.push(format!("{} missing from a set", m.name));
                continue;
            }
            let mut note = |share: f64, line: String| {
                if share > 1.0 {
                    v.breaches.push(line.clone());
                }
                if share > v.worst.0 {
                    v.worst = (share, line);
                }
            };
            let (ma, mb) = (median(&va), median(&vb));
            let worse = if m.better == "higher" {
                ma - mb
            } else {
                mb - ma
            } / ma.abs();
            note(
                worse / bound,
                format!(
                    "{}: median {ma:.6} -> {mb:.6} {}, {:+.2}% worse (bound {:.1}%)",
                    m.name,
                    m.unit,
                    worse * 100.0,
                    bound * 100.0
                ),
            );
            if m.name != "setup_s" {
                for (label, values) in [("first", &va), ("second", &vb)] {
                    let spread = iqr_frac(values);
                    note(
                        spread / bound,
                        format!(
                            "{}: {label} set spread {:.2}% of median over {} seeds (bound {:.1}%)",
                            m.name,
                            spread * 100.0,
                            values.len(),
                            bound * 100.0
                        ),
                    );
                }
            }
            if !matches!(m.unit, "s" | "1/s" | "MB") {
                for (seed, ra) in runs_a {
                    let (x, y) = (ra.get(m.name), runs_b.get(seed).and_then(|r| r.get(m.name)));
                    if let (Some(x), Some(y)) = (x, y) {
                        if x.to_bits() != y.to_bits() {
                            v.breaches.push(format!(
                                "{}: seed {seed} simulated {x:?} then {y:?} - not deterministic",
                                m.name
                            ));
                        }
                    }
                }
            }
        }
        verdicts.push(v);
    }
    for workload in b.keys().filter(|w| !a.contains_key(*w)) {
        verdicts.push(WorkloadVerdict {
            workload: workload.clone(),
            worst: (0.0, "nothing compared".to_string()),
            breaches: vec!["missing from the first set".to_string()],
        });
    }
    verdicts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::END_TO_END;

    fn line(workload: &str, seed: u64, wall: f64, ratio: f64) -> String {
        format!(
            "{{\"workload\":\"{workload}\",\"seed\":{seed},\"result\":{{\"correct\":true,\
             \"attempted\":10,\"failed\":0,\"metrics\":{{\
             \"wall_s\":{{\"value\":{wall:?},\"unit\":\"s\"}},\
             \"success_ratio\":{{\"value\":{ratio:?},\"unit\":\"ratio\"}}}}}}}}\n"
        )
    }

    fn bounds() -> Vec<MetricDef> {
        END_TO_END
            .iter()
            .filter(|m| matches!(m.name, "wall_s" | "success_ratio"))
            .map(|m| MetricDef {
                bound: Some(0.10),
                ..*m
            })
            .collect()
    }

    fn set(walls: [f64; 3], ratio: f64) -> ResultSet {
        let text: String = walls
            .iter()
            .zip(1..)
            .map(|(w, seed)| line("w", seed, *w, ratio))
            .collect();
        parse_set(&text).expect("well-formed set")
    }

    #[test]
    fn agreeing_sets_pass_and_report_the_worst_gap() {
        let v = compare(
            &set([1.00, 1.01, 1.02], 0.5),
            &set([1.02, 1.03, 1.04], 0.5),
            &bounds(),
        );
        assert_eq!(v.len(), 1);
        assert!(v[0].breaches.is_empty(), "{:?}", v[0].breaches);
        assert!(v[0].worst.0 > 0.0 && v[0].worst.0 < 1.0);
    }

    #[test]
    fn a_worse_median_a_wide_spread_and_nondeterminism_each_breach() {
        let slow = compare(
            &set([1.0, 1.0, 1.0], 0.5),
            &set([1.2, 1.2, 1.2], 0.5),
            &bounds(),
        );
        assert!(slow[0]
            .breaches
            .iter()
            .any(|b| b.contains("wall_s: median")));
        // Faster is never a breach.
        let fast = compare(
            &set([1.2, 1.2, 1.2], 0.5),
            &set([1.0, 1.0, 1.0], 0.5),
            &bounds(),
        );
        assert!(fast[0].breaches.is_empty());
        let noisy = compare(
            &set([1.0, 1.3, 1.6], 0.5),
            &set([1.0, 1.3, 1.6], 0.5),
            &bounds(),
        );
        assert!(noisy[0].breaches.iter().any(|b| b.contains("spread")));
        let drift = compare(
            &set([1.0, 1.0, 1.0], 0.5),
            &set([1.0, 1.0, 1.0], 0.5001),
            &bounds(),
        );
        assert!(drift[0]
            .breaches
            .iter()
            .any(|b| b.contains("not deterministic")));
    }

    #[test]
    fn failed_runs_and_missing_workloads_are_refused() {
        let bad = line("w", 1, 1.0, 0.5).replace("\"failed\":0", "\"failed\":3");
        assert!(parse_set(&bad).is_err());
        let only_a = compare(&set([1.0, 1.0, 1.0], 0.5), &ResultSet::new(), &bounds());
        assert!(!only_a[0].breaches.is_empty());
    }

    #[test]
    fn bounds_come_from_benchmark_json() {
        let parsed = parse_bounds(&crate::metrics::benchmark_json()).expect("own schema parses");
        assert_eq!(parsed, END_TO_END.to_vec());
    }
}
