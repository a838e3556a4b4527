//! End-to-end integration: the full stack (topology → workload → scheme →
//! simulator → report) for every scheme in the paper's lineup.

use spider_core::{ExperimentConfig, SchemeConfig, TopologyConfig};
use spider_sim::{QueueConfig, QueueingMode, SimConfig, WorkloadConfig};
use spider_tests::small_isp_experiment;
use spider_types::SimDuration;

#[test]
fn every_paper_scheme_runs_and_reports_sanely() {
    let cfg = small_isp_experiment(1, 10_000);
    let reports = cfg
        .run_schemes(&SchemeConfig::paper_lineup())
        .expect("all schemes run");
    assert_eq!(reports.len(), 6);
    for r in &reports {
        assert_eq!(r.attempted_payments, 1_500, "{}", r.scheme);
        assert!(r.completed_payments <= r.attempted_payments, "{}", r.scheme);
        assert!(r.delivered_volume <= r.attempted_volume, "{}", r.scheme);
        assert!(r.success_ratio() > 0.0, "{} delivered nothing", r.scheme);
        // Completion takes at least the confirmation delay.
        if let Some(t) = r.avg_completion_time() {
            assert!(t >= 0.5 - 1e-9, "{}: completion {t} below Δ", r.scheme);
        }
    }
}

/// The profiler attributes a run's set-up as well as its loop. In a small
/// lockstep run and a small FIFO run of a prewarming scheme, exactly the
/// phases marked ran (count > 0), the two set-up phases — listing the
/// prewarm pairs and the router's prewarm — ran once each and took time,
/// and arrival generation ran once per `Arrival` event.
#[test]
fn profile_attributes_the_prewarm() {
    let fifo = QueueingMode::PerChannelFifo(QueueConfig::default());
    // calendar_pop, routing, forwarding, settlement, churn_repair,
    // sampling, prewarm_pairs, prewarm, arrivals
    for (scheme, queueing, ran) in [
        (
            SchemeConfig::ShortestPath,
            QueueingMode::Lockstep,
            [true, true, false, true, false, true, true, true, true],
        ),
        (
            SchemeConfig::spider_protocol(4),
            fifo,
            [true, true, true, false, false, true, true, true, true],
        ),
    ] {
        let mut cfg = small_isp_experiment(5, 10_000);
        cfg.scheme = scheme;
        cfg.sim.queueing = queueing;
        cfg.sim.obs.profile = true;
        let report = cfg.run().expect("runs");
        let phases = report.profile.phases();
        let got = phases.map(|(_, phase)| phase.count > 0);
        assert_eq!(got, ran, "{}: {phases:?}", cfg.scheme.name());
        for (name, phase) in &phases[6..8] {
            assert_eq!(phase.count, 1, "{name}");
            assert!(phase.total_ns > 0, "{name}");
        }
        // No admission gate defers an arrival, so each `Arrival` event is
        // one attempted payment.
        assert!(cfg.sim.admission.is_none());
        let (name, arrivals) = phases[8];
        assert_eq!(arrivals.count, report.attempted_payments, "{name}");
    }
}

#[test]
fn identical_workload_across_schemes() {
    let cfg = small_isp_experiment(3, 30_000);
    let reports = cfg
        .run_schemes(&[SchemeConfig::ShortestPath, SchemeConfig::MaxFlow])
        .expect("schemes run");
    assert_eq!(reports[0].attempted_volume, reports[1].attempted_volume);
    assert_eq!(reports[0].attempted_payments, reports[1].attempted_payments);
}

#[test]
fn full_experiment_is_deterministic() {
    let cfg = small_isp_experiment(7, 20_000);
    let a = cfg.run().expect("runs");
    let b = cfg.run().expect("runs");
    assert_eq!(a.completed_payments, b.completed_payments);
    assert_eq!(a.delivered_volume, b.delivered_volume);
    assert_eq!(a.units_locked, b.units_locked);
    assert_eq!(a.retries, b.retries);
}

#[test]
fn atomic_schemes_never_partially_deliver() {
    // With an atomic scheme, delivered volume must equal the summed value
    // of *completed* payments exactly — nothing in between.
    let mut cfg = small_isp_experiment(11, 4_000);
    cfg.scheme = SchemeConfig::SilentWhispers;
    let r = cfg.run().expect("runs");
    assert!(
        r.completed_payments < r.attempted_payments,
        "need some failures for the test"
    );
    // Re-run and cross-check volumes through a second scheme-independent
    // accounting: success_volume × attempted == delivered.
    let reconstructed = r.attempted_volume.mul_f64(r.success_volume());
    let diff = reconstructed.drops().abs_diff(r.delivered_volume.drops());
    assert!(diff <= 1, "volume accounting inconsistent");
}

#[test]
fn more_capacity_never_hurts_spider() {
    let lo = {
        let cfg = small_isp_experiment(13, 5_000);
        cfg.run().expect("runs")
    };
    let hi = {
        let cfg = small_isp_experiment(13, 50_000);
        cfg.run().expect("runs")
    };
    assert!(hi.success_ratio() >= lo.success_ratio());
    assert!(hi.delivered_volume >= lo.delivered_volume);
}

#[test]
fn waterfilling_beats_or_matches_shortest_path_under_pressure() {
    // The paper's core comparative claim, at a constrained capacity.
    let cfg = small_isp_experiment(17, 5_000);
    let reports = cfg
        .run_schemes(&[
            SchemeConfig::SpiderWaterfilling { paths: 4 },
            SchemeConfig::ShortestPath,
        ])
        .expect("schemes run");
    assert!(
        reports[0].success_volume() >= reports[1].success_volume() - 0.02,
        "waterfilling {} vs shortest-path {}",
        reports[0].success_volume(),
        reports[1].success_volume()
    );
}

#[test]
fn paper_example_topology_runs_all_schemes() {
    let cfg = ExperimentConfig {
        topology: TopologyConfig::PaperExample { capacity_xrp: 500 },
        workload: WorkloadConfig::small(400, 200.0),
        sim: SimConfig {
            horizon: SimDuration::from_secs(4),
            ..SimConfig::default()
        },
        scheme: SchemeConfig::ShortestPath,
        dynamics: None,
        faults: None,
        overload: None,
        seed: 23,
    };
    for r in cfg
        .run_schemes(&SchemeConfig::paper_lineup())
        .expect("schemes run")
    {
        assert!(r.success_ratio() > 0.0, "{} delivered nothing", r.scheme);
    }
}

#[test]
fn ripple_like_topology_runs() {
    let cfg = ExperimentConfig {
        topology: TopologyConfig::RippleLike {
            nodes: 120,
            capacity_xrp: 10_000,
        },
        workload: WorkloadConfig::small(800, 400.0),
        sim: SimConfig {
            horizon: SimDuration::from_secs(4),
            ..SimConfig::default()
        },
        scheme: SchemeConfig::SpiderWaterfilling { paths: 4 },
        dynamics: None,
        faults: None,
        overload: None,
        seed: 29,
    };
    let r = cfg.run().expect("runs");
    assert!(r.success_ratio() > 0.3, "ratio {}", r.success_ratio());
}
