//! Metamorphic relations: transformations of an experiment's input whose
//! effect on the outcome is known exactly, so no reference value is
//! needed.

use spider_core::experiment::demand_graph;
use spider_core::{ExperimentConfig, SchemeConfig};
use spider_sim::{
    QueueConfig, QueueingMode, SimConfig, SimReport, Simulation, SizeDistribution, Workload,
    WorkloadConfig,
};
use spider_tests::ledger_audit::{audited_run, max_silence, parse_event};
use spider_topology::gen;
use spider_types::{Amount, DetRng, SimDuration};

/// Runs `scheme` on a 2,000-XRP ISP graph under a 3,000-payment workload,
/// with every capacity, payment amount and the MTU multiplied by `k`.
fn run_scaled(scheme: SchemeConfig, queueing: QueueingMode, k: u64) -> SimReport {
    let scale = |a: Amount| Amount::from_drops(a.drops() * k);
    let topo = gen::isp_topology(Amount::from_xrp(2_000)).with_capacities(|_, c| scale(c.capacity));
    let mut workload = Workload::generate(
        topo.node_count(),
        &WorkloadConfig {
            count: 3_000,
            rate_per_sec: 300.0,
            size: SizeDistribution::RippleIsp,
            sender_skew_scale: 8.0,
        },
        &mut DetRng::new(42),
    );
    for txn in &mut workload.txns {
        txn.amount = scale(txn.amount);
    }
    let cfg = SimConfig {
        mtu: scale(Amount::from_xrp(10)),
        horizon: SimDuration::from_secs(12),
        queueing,
        ..SimConfig::default()
    };
    let demands = demand_graph(&workload, topo.node_count());
    let router = scheme.build(&topo, &demands, cfg.confirmation_delay.as_secs_f64());
    Simulation::new(topo, workload, router, cfg)
        .expect("builds")
        .run()
}

/// Money has no natural unit: scaling every capacity, payment and the MTU
/// by `k` splits each payment into the same units, which meet the same
/// balance comparisons, so every count is unchanged and every volume
/// scales by exactly `k`. The LP router (which rounds through `f64`
/// weights) and the §5 protocol (whose AIMD windows are absolute amounts)
/// are not scale-free and are left out.
#[test]
fn scaling_every_amount_changes_no_outcome() {
    const K: u64 = 4;
    let schemes = [
        SchemeConfig::ShortestPath,
        SchemeConfig::SpiderWaterfilling { paths: 4 },
    ];
    let modes = [
        ("lockstep", QueueingMode::Lockstep),
        ("fifo", QueueingMode::PerChannelFifo(QueueConfig::default())),
    ];
    for scheme in schemes {
        for (mode, queueing) in &modes {
            let base = run_scaled(scheme, queueing.clone(), 1);
            let scaled = run_scaled(scheme, queueing.clone(), K);
            let label = format!("{} / {mode}", base.scheme);
            assert!(base.completed_payments > 0, "{label}: nothing completed");
            let counts = |r: &SimReport| {
                [
                    r.completed_payments,
                    r.units_locked,
                    r.units_failed,
                    r.units_dropped,
                    r.units_queued,
                    r.units_marked,
                    r.retries,
                ]
            };
            assert_eq!(counts(&base), counts(&scaled), "{label}: counts moved");
            assert_eq!(
                scaled.delivered_volume.drops(),
                base.delivered_volume.drops() * K,
                "{label}: delivered volume"
            );
            assert_eq!(
                base.success_ratio().to_bits(),
                scaled.success_ratio().to_bits(),
                "{label}: success ratio"
            );
            assert_eq!(
                base.success_volume().to_bits(),
                scaled.success_volume().to_bits(),
                "{label}: success volume"
            );
        }
    }
}

/// Runs `scheme` traced and audited on the 2,000-XRP ISP graph under a
/// 1,500-payment workload, with every arrival and the horizon `shift`
/// later: the report and the rendered trace.
fn run_shifted(
    scheme: SchemeConfig,
    queueing: QueueingMode,
    shift: SimDuration,
) -> (SimReport, String) {
    let topo = gen::isp_topology(Amount::from_xrp(2_000));
    let mut workload = Workload::generate(
        topo.node_count(),
        &WorkloadConfig {
            count: 1_500,
            rate_per_sec: 300.0,
            size: SizeDistribution::RippleIsp,
            sender_skew_scale: 8.0,
        },
        &mut DetRng::new(42),
    );
    for txn in &mut workload.txns {
        txn.time += shift;
    }
    let mut cfg = SimConfig {
        mtu: Amount::from_xrp(10),
        horizon: SimDuration::from_secs(6) + shift,
        queueing,
        ..SimConfig::default()
    };
    cfg.obs.trace = true;
    let demands = demand_graph(&workload, topo.node_count());
    let router = scheme.build(&topo, &demands, cfg.confirmation_delay.as_secs_f64());
    let silence = max_silence(&ExperimentConfig {
        sim: cfg.clone(),
        scheme,
        ..ExperimentConfig::default()
    });
    let sim = Simulation::new(topo, workload, router, cfg).expect("builds");
    let (out, jsonl) = audited_run(&format!("{scheme:?} shifted {shift:?}"), silence, sim);
    (out.report, jsonl)
}

/// Time has no natural origin: shifting every arrival and the horizon by
/// 9 s — 90 poll intervals and 9 sampler cadences, and past the
/// calendar wheel's 4.1 s span, so the first arrival enters through its
/// overflow tier — changes no outcome, and moves every trace record by
/// exactly 9 s and changes nothing else about it. This checks the
/// calendar's bucket boundaries and every absolute-time assumption.
#[test]
fn shifting_every_arrival_changes_no_outcome() {
    const SHIFT_US: u64 = 9_000_000;
    let schemes = [
        SchemeConfig::ShortestPath,
        SchemeConfig::SpiderWaterfilling { paths: 4 },
    ];
    let modes = [
        ("lockstep", QueueingMode::Lockstep),
        ("fifo", QueueingMode::PerChannelFifo(QueueConfig::default())),
    ];
    for scheme in schemes {
        for (mode, queueing) in &modes {
            let (base, base_trace) = run_shifted(scheme, queueing.clone(), SimDuration::ZERO);
            let (shifted, shifted_trace) =
                run_shifted(scheme, queueing.clone(), SimDuration::from_micros(SHIFT_US));
            let label = format!("{} / {mode}", base.scheme);
            assert!(base.completed_payments > 0, "{label}: nothing completed");
            let outcome = |r: &SimReport| {
                (
                    [
                        r.attempted_payments,
                        r.completed_payments,
                        r.units_locked,
                        r.units_failed,
                        r.units_dropped,
                        r.units_queued,
                        r.units_marked,
                        r.units_acked,
                        r.retries,
                        r.unit_hops_sum,
                    ],
                    [r.attempted_volume, r.delivered_volume, r.completed_volume],
                    r.drops_by_reason,
                    format!("{:?}", r.latency_hist),
                )
            };
            assert_eq!(outcome(&base), outcome(&shifted), "{label}: outcome moved");
            assert_eq!(
                base_trace.lines().count(),
                shifted_trace.lines().count(),
                "{label}: trace length"
            );
            for (a, b) in base_trace.lines().zip(shifted_trace.lines()) {
                if a.starts_with("{\"ev\":\"path\"") {
                    assert_eq!(a, b, "{label}: path line");
                    continue;
                }
                let ((seq_a, t_a, kind_a), (seq_b, t_b, kind_b)) = (parse_event(a), parse_event(b));
                assert_eq!(t_b, t_a + SHIFT_US, "{label}: {a} vs {b}");
                assert_eq!((seq_a, kind_a), (seq_b, kind_b), "{label}: {a} vs {b}");
            }
        }
    }
}
