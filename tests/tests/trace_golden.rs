//! Golden payment-lifecycle traces: exact JSONL output recorded for tiny
//! fixed-seed runs in each engine operating mode (lockstep, Windowed AIMD,
//! and the queueing §5 protocol), and of a fault-injected run.
//!
//! The trace is an *observation* layer: it must be bit-reproducible for a
//! fixed seed (same `(time, seq)` event order every run) and must never
//! perturb the simulation itself. Each test renders the trace twice from
//! independent runs and compares byte-for-byte, then checks the pinned
//! golden under `tests/goldens/`. Regenerate with `UPDATE_GOLDENS=1` after
//! an *intentional* trace-schema change. Every traced run passes the
//! ledger auditor.

use spider_core::congestion::{WindowConfig, Windowed};
use spider_core::{ExperimentConfig, SchemeConfig, TopologyConfig};
use spider_routing::ShortestPath;
use spider_sim::{
    ObsConfig, QueueConfig, QueueingMode, Router, SimConfig, SimReport, SizeDistribution, Trace,
    WorkloadConfig,
};
use spider_tests::ledger_audit::{audited_run, max_silence};
use spider_types::SimDuration;
use std::path::PathBuf;

/// A run small enough that its golden stays a few KB: the 5-node §5.1
/// example topology, a dozen constant-size payments, a short horizon,
/// traced.
fn tiny_experiment(seed: u64, scheme: SchemeConfig) -> ExperimentConfig {
    ExperimentConfig {
        topology: TopologyConfig::PaperExample { capacity_xrp: 200 },
        workload: WorkloadConfig {
            count: 12,
            rate_per_sec: 10.0,
            size: SizeDistribution::Constant { xrp: 40.0 },
            sender_skew_scale: 4.0,
        },
        sim: SimConfig {
            horizon: SimDuration::from_secs(4),
            obs: ObsConfig {
                trace: true,
                ..ObsConfig::default()
            },
            ..SimConfig::default()
        },
        scheme,
        dynamics: None,
        faults: None,
        overload: None,
        seed,
    }
}

/// One audited run of `cfg` (through the registry scheme, or `router`
/// when given): the report and the sealed trace.
fn traced_run(cfg: &ExperimentConfig, router: Option<Box<dyn Router>>) -> (SimReport, Trace) {
    let sim = cfg.simulation(router).expect("builds");
    let (out, _) = audited_run("golden", max_silence(cfg), sim);
    (out.report, out.trace.expect("obs.trace is set"))
}

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/goldens")
        .join(name)
}

/// Checks the structure every trace must have — each JSONL line parses
/// and carries an `ev` tag, event lines carry `t_us` and a strictly
/// increasing `seq`, `path` lines a non-empty `nodes`, one `arrival` per
/// attempted and one `complete` per completed payment of `report` — then
/// compares the JSONL (the render consumes the trace) against the pinned
/// golden.
fn check_golden(name: &str, report: &SimReport, trace: Trace) {
    let jsonl = trace.to_jsonl();
    let (mut arrivals, mut completes, mut prev_seq) = (0, 0, None);
    for line in jsonl.lines() {
        let v = serde_json::parse(line).unwrap_or_else(|e| panic!("{name}: {e}: {line}"));
        let ev = v["ev"].as_str();
        assert!(ev.is_some(), "{name}: no ev: {line}");
        if ev == Some("path") {
            let nodes = v["nodes"].as_array();
            assert!(nodes.is_some_and(|n| !n.is_empty()), "{name}: {line}");
            continue;
        }
        assert!(v["t_us"].as_u64().is_some(), "{name}: no t_us: {line}");
        let seq = v["seq"].as_u64();
        assert!(
            seq.is_some() && seq > prev_seq,
            "{name}: seq not increasing: {line}"
        );
        prev_seq = seq;
        arrivals += u64::from(ev == Some("arrival"));
        completes += u64::from(ev == Some("complete"));
    }
    assert_eq!(arrivals, report.attempted_payments, "{name}: arrivals");
    assert_eq!(completes, report.completed_payments, "{name}: completes");
    compare_golden(name, &jsonl);
}

/// Compares `text` against the pinned golden `name` line by line (or
/// rewrites it when `UPDATE_GOLDENS` is set).
fn compare_golden(name: &str, text: &str) {
    let path = golden_path(name);
    if std::env::var_os("UPDATE_GOLDENS").is_some() {
        std::fs::create_dir_all(path.parent().expect("golden dir")).expect("mkdir goldens");
        std::fs::write(&path, text).expect("write golden");
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {} ({e}); record it with UPDATE_GOLDENS=1",
            path.display()
        )
    });
    if text != want {
        // A full assert_eq! on multi-KB strings is unreadable; report the
        // first diverging line instead.
        for (i, (got, exp)) in text.lines().zip(want.lines()).enumerate() {
            assert_eq!(got, exp, "{name}: first divergence at line {}", i + 1);
        }
        assert_eq!(
            text.lines().count(),
            want.lines().count(),
            "{name}: line counts differ"
        );
        panic!("{name}: outputs differ only in trailing whitespace?");
    }
}

#[test]
fn lockstep_shortest_path_trace_is_reproducible_and_matches_golden() {
    let cfg = tiny_experiment(11, SchemeConfig::ShortestPath);
    let (r1, t1) = traced_run(&cfg, None);
    let (r2, t2) = traced_run(&cfg, None);
    assert_eq!(r1.completed_payments, r2.completed_payments);
    assert_eq!(
        t1.clone().to_jsonl(),
        t2.to_jsonl(),
        "trace is not bit-reproducible"
    );
    assert!(
        r1.completed_payments > 0,
        "nothing completed; golden is vacuous"
    );
    check_golden("trace_lockstep_shortest.jsonl", &r1, t1);
}

#[test]
fn windowed_aimd_trace_is_reproducible_and_matches_golden() {
    let cfg = tiny_experiment(11, SchemeConfig::ShortestPath);
    // A window smaller than the 40-XRP payments forces the AIMD gate to
    // stagger injects, so this golden pins behavior the bare lockstep
    // golden cannot reach (it must NOT be byte-identical to it).
    let wcfg = WindowConfig {
        initial: spider_types::Amount::from_xrp(20),
    };
    let windowed = || Box::new(Windowed::new(ShortestPath::new(), wcfg.clone()));
    let (r1, t1) = traced_run(&cfg, Some(windowed()));
    let (_, t2) = traced_run(&cfg, Some(windowed()));
    assert_eq!(
        t1.clone().to_jsonl(),
        t2.to_jsonl(),
        "trace is not bit-reproducible"
    );
    assert!(
        r1.completed_payments > 0,
        "nothing completed; golden is vacuous"
    );
    let lockstep = std::fs::read_to_string(golden_path("trace_lockstep_shortest.jsonl"));
    if let Ok(lockstep) = lockstep {
        assert_ne!(
            t1.clone().to_jsonl(),
            lockstep,
            "window gating never engaged; golden duplicates the lockstep one"
        );
    }
    check_golden("trace_windowed_shortest.jsonl", &r1, t1);
}

#[test]
fn fault_injected_trace_is_reproducible_and_matches_golden() {
    let mut cfg = tiny_experiment(11, SchemeConfig::ShortestPath);
    // Heavy loss plus a crash-prone plan: the golden pins the `fault`
    // (crash/recover) and `refund` (fault-refunded unit) event kinds and
    // the fault `DropReason` spellings that zero-fault goldens never emit.
    cfg.faults = Some(spider_faults::FaultConfig {
        message_loss_prob: 0.2,
        ack_loss_prob: 0.1,
        stuck_unit_prob: 0.05,
        jitter_range_ms: None,
        spike_prob: 0.0,
        spike_ms: 0.0,
        hop_timeout_secs: 0.25,
        crash: Some(spider_faults::CrashConfig {
            rate_per_sec: 1.5,
            recovery_mean_secs: Some(1.0),
        }),
        horizon_secs: 4.0,
    });
    let (r1, t1) = traced_run(&cfg, None);
    let (r2, t2) = traced_run(&cfg, None);
    assert_eq!(r1.faults_injected, r2.faults_injected);
    assert_eq!(
        t1.clone().to_jsonl(),
        t2.to_jsonl(),
        "trace is not bit-reproducible"
    );
    assert!(
        r1.units_dropped_fault > 0,
        "no unit lost to a fault; golden is vacuous"
    );
    assert!(
        r1.fault_events > 0,
        "no crash/recovery fired; golden is vacuous"
    );
    assert!(
        r1.completed_payments > 0,
        "nothing completed; golden only shows failures"
    );
    check_golden("trace_faulted_shortest.jsonl", &r1, t1);
}

#[test]
fn spider_protocol_trace_is_reproducible_and_matches_golden() {
    let mut cfg = tiny_experiment(11, SchemeConfig::spider_protocol(4));
    cfg.sim.queueing = QueueingMode::PerChannelFifo(QueueConfig::default());
    let (r1, t1) = traced_run(&cfg, None);
    let (_, t2) = traced_run(&cfg, None);
    assert_eq!(
        t1.clone().to_jsonl(),
        t2.to_jsonl(),
        "trace is not bit-reproducible"
    );
    assert!(
        r1.completed_payments > 0,
        "nothing completed; golden is vacuous"
    );
    assert!(
        r1.units_queued > 0 || r1.units_acked > 0,
        "protocol machinery never engaged; golden is vacuous"
    );
    check_golden("trace_spider_protocol.jsonl", &r1, t1);
}
