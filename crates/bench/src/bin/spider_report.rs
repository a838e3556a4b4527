//! `spider-report`: diff two bench artifacts and gate on regressions.
//!
//! ```sh
//! spider-report <baseline> <candidate> [--rel-tol F] [--abs-tol F]
//! ```
//!
//! Two artifact shapes are understood, picked by file extension:
//!
//! * `.json` — `BENCH_engine.json`-shaped documents (a top-level `runs`
//!   array of per-config records);
//! * `.jsonl` — `FigureRow` JSON-lines as written by the sweep bins
//!   (`fig6_success`, `churn_resilience`, `fault_resilience`,
//!   `overload_resilience`, …), one record per line, keyed by
//!   `experiment/scheme@parameter=value`.
//!
//! Each record is reduced to a [`RunRecord`]: deterministic outcome
//! fields (payments, units, drops, latency percentiles, the per-reason
//! drop breakdown) become *gated* metrics, wall-clock-dependent fields
//! (wall seconds, rates, profile phase timings) become
//! *informational*, and hotspot attribution collapses to its channel-id
//! set. The diff prints one line per finding (`GATE …` / `info …`) and
//! exits:
//!
//! * `0` — clean: same runs, no gated delta above tolerance, identical
//!   hotspot sets (informational drift allowed and reported);
//! * `1` — at least one gated difference;
//! * `2` — usage or I/O error (unreadable file, malformed JSON).
//!
//! With zero tolerances (the default) any change to a deterministic
//! field gates — the right bar for same-seed comparisons, and what the
//! CI regression gate over the quick-grid artifact uses.

use spider_obs::report::{diff_runs, DiffThresholds, RunRecord};
use std::process::ExitCode;

/// Deterministic per-run outcome fields: any above-tolerance change is a
/// regression (or at least a semantics change that needs a fresh
/// baseline).
const GATED: &[&str] = &[
    "events_executed",
    "attempted_payments",
    "completed_payments",
    "delivered_drops",
    "units_processed",
    "units_locked",
    "units_failed",
    "units_dropped",
    "retries",
    "peak_live_events",
    "peak_live_units",
    "interned_paths",
    "latency_p50_s",
    "latency_p99_s",
    "drops_queue_timeout",
    "drops_queue_overflow",
    "drops_expired",
    "drops_channel_closed",
    "drops_message_lost",
    "drops_hop_timeout",
    "drops_node_crashed",
    "drops_shed",
    "drops_admission_rejected",
];

/// Wall-clock-dependent fields: reported when they drift, never gating.
const INFO: &[&str] = &["wall_seconds", "events_per_sec", "units_per_sec"];

/// Deterministic `FigureRow` outcome fields (JSONL artifacts).
const ROW_GATED: &[&str] = &[
    "success_ratio_pct",
    "success_volume_pct",
    "goodput_xrp_s",
    "completed",
    "attempted",
    "units_dropped_fault",
    "units_dropped_shed",
    "units_dropped_admission",
    "admission_deferred",
    "retries",
    "avg_completion_s",
    "latency_p50_s",
    "latency_p99_s",
];

/// Wall-clock `FigureRow` fields: phase profile timings.
const ROW_INFO: &[&str] = &[
    "profile_calendar_pop_s",
    "profile_routing_s",
    "profile_forwarding_s",
    "profile_settlement_s",
    "profile_churn_repair_s",
    "profile_sampling_s",
];

/// Parses a `FigureRow` JSON-lines artifact (sweep bins) into run
/// records, one per line, in document order.
fn parse_jsonl_artifact(path: &str, text: &str) -> Result<Vec<RunRecord>, String> {
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let r = serde_json::parse(line)
            .map_err(|e| format!("{path}: line {}: malformed JSON: {e}", i + 1))?;
        let field = |k: &str| -> Result<String, String> {
            r[k].as_str()
                .map(str::to_string)
                .ok_or_else(|| format!("{path}: line {}: no \"{k}\" field", i + 1))
        };
        let mut rec = RunRecord {
            name: format!(
                "{}/{}@{}={}",
                field("experiment")?,
                field("scheme")?,
                field("parameter")?,
                r["value"].as_f64().unwrap_or(0.0),
            ),
            ..RunRecord::default()
        };
        for &m in ROW_GATED {
            if let Some(v) = r[m].as_f64() {
                rec.gated.push((m.to_string(), v));
            }
        }
        for &m in ROW_INFO {
            if let Some(v) = r[m].as_f64() {
                rec.info.push((m.to_string(), v));
            }
        }
        if let Some(c) = r["hotspot_channel"].as_u64() {
            rec.hotspots.push(c as u32);
        }
        out.push(rec);
    }
    Ok(out)
}

/// Parses one artifact into run records, in document order. `.jsonl`
/// inputs are `FigureRow` lines; anything else is an engine-benchmark
/// `runs` document.
fn parse_artifact(path: &str) -> Result<Vec<RunRecord>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    if path.ends_with(".jsonl") {
        return parse_jsonl_artifact(path, &text);
    }
    let root = serde_json::parse(&text).map_err(|e| format!("{path}: malformed JSON: {e}"))?;
    let runs = root["runs"]
        .as_array()
        .ok_or_else(|| format!("{path}: no top-level \"runs\" array"))?;
    let mut out = Vec::with_capacity(runs.len());
    for (i, r) in runs.iter().enumerate() {
        let name = r["config"]
            .as_str()
            .ok_or_else(|| format!("{path}: runs[{i}] has no \"config\" name"))?
            .to_string();
        let mut rec = RunRecord {
            name,
            ..RunRecord::default()
        };
        // Absent or null fields are skipped on both sides; the diff core
        // gates when a metric exists on only one side.
        for &m in GATED {
            if let Some(v) = r[m].as_f64() {
                rec.gated.push((m.to_string(), v));
            }
        }
        for &m in INFO {
            if let Some(v) = r[m].as_f64() {
                rec.info.push((m.to_string(), v));
            }
        }
        if let Some(hs) = r["hotspots"].as_array() {
            for h in hs {
                if let Some(c) = h["channel"].as_u64() {
                    rec.hotspots.push(c as u32);
                }
            }
        }
        out.push(rec);
    }
    Ok(out)
}

fn usage() -> ExitCode {
    eprintln!("usage: spider-report <baseline> <candidate> [--rel-tol F] [--abs-tol F]");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut paths: Vec<String> = Vec::new();
    let mut th = DiffThresholds::default();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--rel-tol" => {
                let Some(v) = args.next().and_then(|v| v.parse().ok()) else {
                    return usage();
                };
                th.rel_tol = v;
            }
            "--abs-tol" => {
                let Some(v) = args.next().and_then(|v| v.parse().ok()) else {
                    return usage();
                };
                th.abs_tol = v;
            }
            "--help" | "-h" => {
                usage();
                return ExitCode::SUCCESS;
            }
            other if other.starts_with('-') => {
                eprintln!("unknown option {other}");
                return usage();
            }
            other => paths.push(other.to_string()),
        }
    }
    let [baseline_path, candidate_path] = paths.as_slice() else {
        return usage();
    };
    let (baseline, candidate) = match (
        parse_artifact(baseline_path),
        parse_artifact(candidate_path),
    ) {
        (Ok(b), Ok(c)) => (b, c),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("spider-report: {e}");
            return ExitCode::from(2);
        }
    };
    let diff = diff_runs(&baseline, &candidate, th);
    print!("{}", diff.render());
    if diff.is_clean() {
        eprintln!(
            "spider-report: clean ({} runs compared{})",
            baseline.len(),
            if diff.info_changes.is_empty() {
                ""
            } else {
                ", informational drift only"
            }
        );
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "spider-report: {} gated difference(s)",
            diff.missing_runs.len()
                + diff.new_runs.len()
                + diff.regressions.len()
                + diff.hotspot_changes.len()
        );
        ExitCode::FAILURE
    }
}
