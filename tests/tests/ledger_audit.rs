//! The ledger auditor beyond the goldens: a proptest over small
//! topologies × scheme × {lockstep, FIFO} × {churn, faults, overload,
//! on-chain rebalancing}, and each of the repo benchmark's four workloads
//! rebuilt at a short horizon: `isp-stress-observed` over two seconds,
//! and the three Ripple workloads at their `--smoke` shapes. Each run's
//! rendered trace must
//! replay to a ledger that never breaks, that ends holding the engine's
//! funds, that accounts for the report's outcome counts, and whose drop,
//! delivery and queue-wait facts rebuild the engine's forensics and
//! hotspot figures (see `spider_tests::ledger_audit`).

use proptest::prelude::*;
use spider_core::{ExperimentConfig, SchemeConfig, TopologyConfig};
use spider_dynamics::DynamicsConfig;
use spider_faults::{CrashConfig, FaultConfig};
use spider_overload::{
    DrainConfig, FlashCrowdConfig, GriefingConfig, HotPairsConfig, OverloadConfig,
};
use spider_sim::{
    AdmissionConfig, QueueConfig, QueueingMode, SimConfig, SimReport, SizeDistribution,
    WorkloadConfig,
};
use spider_tests::ledger_audit::{audited_run, max_silence, NOT_DERIVED, WITNESSED};
use spider_types::{Amount, SimDuration};

/// The perturbations a proptest case may switch on.
const CHURN: u8 = 1;
const FAULTS: u8 = 2;
const OVERLOAD: u8 = 4;
const REBALANCING: u8 = 8;

/// Schemes covering both lockstep flavours (non-atomic and the atomic
/// rollback) and the hop-by-hop §5 protocol.
fn scheme(i: usize) -> SchemeConfig {
    [
        SchemeConfig::ShortestPath,
        SchemeConfig::SpiderWaterfilling { paths: 4 },
        SchemeConfig::SpeedyMurmurs,
        SchemeConfig::spider_protocol(4),
    ][i]
}

/// A small run over 1.5 s of arrivals on a random scale-free graph whose
/// thin channels make units queue, fail and drop.
fn small_run(
    seed: u64,
    nodes: usize,
    scheme: SchemeConfig,
    fifo: bool,
    perturb: u8,
) -> ExperimentConfig {
    let secs = 1.5;
    let mut sim = SimConfig {
        horizon: SimDuration::from_secs_f64(secs + 1.0),
        mtu: Amount::from_xrp(10),
        deadline: Some(SimDuration::from_millis(1_200)),
        ..SimConfig::default()
    };
    sim.obs.trace = true;
    sim.obs.forensics_capacity = 4_096;
    sim.obs.attribution = true;
    if fifo {
        sim.queueing = QueueingMode::PerChannelFifo(QueueConfig {
            max_queue_units: 8,
            ..QueueConfig::default()
        });
    }
    let mut cfg = ExperimentConfig {
        topology: TopologyConfig::ScaleFree {
            nodes,
            m: 2,
            capacity_xrp: 200,
        },
        workload: WorkloadConfig {
            count: (secs * 120.0) as usize,
            rate_per_sec: 120.0,
            size: SizeDistribution::RippleIsp,
            sender_skew_scale: 4.0,
        },
        sim,
        scheme,
        dynamics: None,
        faults: None,
        overload: None,
        seed,
    };
    if perturb & CHURN != 0 {
        cfg.dynamics = Some(DynamicsConfig {
            close_rate_per_sec: 6.0,
            reopen_mean_secs: Some(0.4),
            resize_rate_per_sec: 3.0,
            node_leave_rate_per_sec: 1.0,
            spawn_fraction: 0.1,
            flap_channels: 2,
            flap_period_secs: 0.5,
            horizon_secs: secs,
            ..DynamicsConfig::default()
        });
    }
    if perturb & FAULTS != 0 {
        cfg.faults = Some(FaultConfig {
            message_loss_prob: 0.05,
            stuck_unit_prob: 0.02,
            hop_timeout_secs: 0.3,
            // λT = 3 crashes over the span: about 95 % of cases apply a
            // crash toggle.
            crash: Some(CrashConfig {
                rate_per_sec: 2.0,
                recovery_mean_secs: Some(0.3),
            }),
            horizon_secs: secs,
            ..FaultConfig::default()
        });
    }
    if perturb & OVERLOAD != 0 {
        cfg.overload = Some(OverloadConfig {
            griefing: Some(GriefingConfig {
                fraction: 0.1,
                hold_secs: 0.5,
            }),
            horizon_secs: secs,
            ..OverloadConfig::default()
        });
        cfg.sim.shedding = true;
        // Policing: a bucket slower than the arrivals rejects some.
        cfg.sim.admission = Some(AdmissionConfig {
            rate_per_sec: 80.0,
            burst: 8.0,
            defer: false,
        });
    }
    if perturb & REBALANCING != 0 {
        cfg.sim.rebalancing = Some(spider_sim::config::RebalancingConfig {
            check_interval: SimDuration::from_millis(200),
            trigger_fraction: 0.2,
            target_fraction: 0.5,
            confirmation_delay: SimDuration::from_millis(300),
        });
    }
    cfg
}

proptest! {
    /// Every run's trace replays to an unbroken ledger that accounts for
    /// its report and ends holding the engine's funds.
    #[test]
    fn every_run_passes_the_ledger_audit(
        seed in 0u64..1_000,
        nodes in 8usize..24,
        which in 0usize..4,
        fifo in 0u8..2,
        perturb in 0u8..16,
    ) {
        let fifo = fifo == 1;
        let cfg = small_run(seed, nodes, scheme(which), fifo, perturb);
        let name = format!("seed {seed}, {nodes} nodes, {:?}, fifo {fifo}, perturb {perturb:04b}", cfg.scheme);
        let (out, _) = audited_run(&name, max_silence(&cfg), cfg.simulation(None).expect("builds"));
        prop_assert!(out.report.attempted_payments > 0, "{name}: no arrivals");
    }
}

/// Every perturbation counter the auditor re-derives is engaged and
/// witnessed, in lockstep and hop by hop: churn with mid-run closes,
/// reopens, resizes and `t = 0` spawns; crash windows; and on-chain
/// deposits.
#[test]
fn perturbation_counters_pass_the_ledger_audit() {
    for (scheme, fifo) in [
        (SchemeConfig::ShortestPath, false),
        (SchemeConfig::spider_protocol(4), true),
    ] {
        let cfg = small_run(7, 16, scheme, fifo, CHURN | FAULTS | REBALANCING);
        let name = format!("{}, fifo {fifo}", scheme.name());
        let (out, _) = audited_run(
            &name,
            max_silence(&cfg),
            cfg.simulation(None).expect("builds"),
        );
        let r = &out.report;
        let counters = [
            r.topology_events,
            r.churn_channels_closed,
            r.churn_channels_opened,
            r.churn_channels_resized,
            r.units_dropped_churn,
            r.payments_failed_churn,
            r.fault_events,
            r.rebalance_ops,
        ];
        assert!(counters.iter().all(|&n| n > 0), "{name}: {counters:?}");
    }
}

/// The auditor's list is closed: every top-level key of a serialized
/// report is either witnessed or not derived with a stated reason, and no
/// field is both.
#[test]
fn every_report_field_is_witnessed_or_says_why_not() {
    let report = serde_json::to_value(&SimReport::default()).expect("serializes");
    let keys = report.as_object().expect("an object");
    let reasoned: Vec<&str> = NOT_DERIVED.iter().map(|&(key, _)| key).collect();
    for (key, _) in keys {
        let witnessed = WITNESSED.contains(&key.as_str());
        let not_derived = reasoned.contains(&key.as_str());
        assert!(
            witnessed != not_derived,
            "{key}: witnessed {witnessed}, not derived {not_derived}"
        );
    }
    let listed = WITNESSED.len() + NOT_DERIVED.len();
    assert_eq!(
        listed,
        keys.len(),
        "the lists name a field the report lacks"
    );
}

/// The repo benchmark's `isp-stress-observed` run, rebuilt here at a two
/// second span: `overload_resilience`'s protected posture (the §5
/// protocol, 256-unit queues, shedding, shaping admission) under its
/// attack and the default faults, every observability sink on.
fn isp_stress(secs: f64) -> ExperimentConfig {
    let rate = 1_000.0;
    let mut sim = SimConfig {
        horizon: SimDuration::from_secs_f64(secs * 1.1),
        mtu: Amount::from_xrp(10),
        queueing: QueueingMode::PerChannelFifo(QueueConfig {
            max_queue_delay: SimDuration::from_secs(10),
            max_queue_units: 256,
            ..QueueConfig::default()
        }),
        shedding: true,
        admission: Some(AdmissionConfig {
            rate_per_sec: rate,
            defer: true,
            ..AdmissionConfig::default()
        }),
        ..SimConfig::default()
    };
    sim.obs.trace = true;
    sim.obs.profile = true;
    sim.obs.attribution = true;
    sim.obs.forensics_capacity = 65_536;
    sim.obs.invariants_every = 10_000;
    sim.obs.sampler.queue_depths = true;
    ExperimentConfig {
        topology: TopologyConfig::Isp {
            capacity_xrp: 30_000,
        },
        workload: WorkloadConfig {
            count: (secs * rate) as usize,
            rate_per_sec: rate,
            size: SizeDistribution::RippleIsp,
            sender_skew_scale: 8.0,
        },
        sim,
        scheme: SchemeConfig::spider_protocol(4),
        dynamics: None,
        faults: Some(FaultConfig {
            horizon_secs: secs,
            ..FaultConfig::default()
        }),
        overload: Some(OverloadConfig {
            flash_crowd: Some(FlashCrowdConfig {
                start_secs: secs * 0.3,
                duration_secs: secs * 0.1,
                rate_multiplier: 2.0,
            }),
            hot_pairs: Some(HotPairsConfig::default()),
            drain: Some(DrainConfig::default()),
            griefing: Some(GriefingConfig {
                fraction: 0.05,
                hold_secs: 5.0,
            }),
            horizon_secs: secs,
        }),
        seed: 42,
    }
}

/// The stress run's trace passes the audit, and its forensics — the
/// engine's replay of the same stream — account for every drop.
#[test]
fn isp_stress_observed_passes_the_ledger_audit() {
    let cfg = isp_stress(2.0);
    let (out, _) = audited_run(
        "isp-stress",
        max_silence(&cfg),
        cfg.simulation(None).expect("builds"),
    );
    let r = &out.report;
    assert!(
        r.units_dropped > 0 && r.faults_injected > 0,
        "the stress never engaged: {r:?}"
    );
    let forensics = out.forensics.expect("forensics is on");
    assert_eq!(
        forensics.len() as u64 + forensics.evicted(),
        r.units_dropped
    );
    assert!(!r.hotspots.is_empty(), "attribution found no hotspots");
    let invariants = out.invariants.expect("the monitor is on");
    assert!(invariants.violations.is_empty(), "{invariants:?}");
}

/// FNV-1a, 64-bit.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The two-second stress run's JSONL, pinned whole: its line count and
/// FNV-1a-64 hash, as the trace rendered after the run wrote them. The
/// render worker takes hundreds of hand-offs here with every sink on, so
/// a chunk rendered out of order, twice or not at all moves the pin.
#[test]
fn isp_stress_trace_is_pinned() {
    let cfg = isp_stress(2.0);
    let (_, jsonl) = audited_run(
        "isp-stress",
        max_silence(&cfg),
        cfg.simulation(None).expect("builds"),
    );
    assert!(
        jsonl.lines().count() > 30 * 4096,
        "too few hand-offs to pin"
    );
    assert_eq!(
        (jsonl.lines().count(), fnv1a64(jsonl.as_bytes())),
        (145_539, 0xb60c_2fbd_4e11_5693)
    );
}

/// The Ripple workloads' experiment (the repo benchmark's `ripple`) at
/// their `--smoke` shape: 120 Ripple-like nodes, one second of the
/// paper's Ripple arrival rate, traced for the audit.
fn ripple_smoke(capacity_xrp: u64, scheme: SchemeConfig) -> ExperimentConfig {
    let rate = 75_000.0 / 85.0;
    let count = rate as usize;
    let mut sim = SimConfig {
        horizon: SimDuration::from_secs_f64(count as f64 / rate + 1.0),
        mtu: Amount::from_xrp(20),
        ..SimConfig::default()
    };
    // Traced for the audit, with the forensics it checks against; no
    // attribution, whose integrals the auditor bounds only over a horizon
    // of whole polls, which this one is not.
    sim.obs.trace = true;
    sim.obs.forensics_capacity = 4_096;
    ExperimentConfig {
        topology: TopologyConfig::RippleLike {
            nodes: 120,
            capacity_xrp,
        },
        workload: WorkloadConfig {
            count,
            rate_per_sec: rate,
            size: SizeDistribution::RippleFull,
            sender_skew_scale: 120.0 / 8.0,
        },
        sim,
        scheme,
        dynamics: None,
        faults: None,
        overload: None,
        seed: 42,
    }
}

/// `ripple-lockstep-shortest`, `ripple-fifo-protocol` and
/// `ripple1k-churn-waterfilling` at their `--smoke` shapes (the churn
/// workload's schedule at 1× over its horizon) pass the audit: the
/// report's success and latency figures are what their traces re-derive,
/// on lockstep refunds, FIFO hops and churn alike.
#[test]
fn ripple_workloads_pass_the_ledger_audit() {
    let lockstep = ripple_smoke(30_000, SchemeConfig::ShortestPath);
    let mut fifo = ripple_smoke(30_000, SchemeConfig::spider_protocol(4));
    fifo.sim.queueing = QueueingMode::PerChannelFifo(QueueConfig::default());
    let mut churn = ripple_smoke(4_000, SchemeConfig::SpiderWaterfilling { paths: 4 });
    let horizon = churn.sim.horizon.as_secs_f64();
    churn.dynamics = Some(
        DynamicsConfig {
            close_rate_per_sec: 0.4,
            reopen_mean_secs: Some(3.0),
            resize_rate_per_sec: 0.2,
            resize_factor_range: [0.5, 2.0],
            node_leave_rate_per_sec: 0.04,
            spawn_fraction: 0.04,
            flap_channels: 2,
            flap_period_secs: 5.0,
            horizon_secs: horizon,
        }
        .scaled(1.0),
    );
    // Each run leaves the records of the path it stands for: lockstep
    // settles, FIFO hops and acks, churn's topology records and the
    // lockstep refunds its closes cause.
    for (name, cfg, records) in [
        ("ripple-lockstep-shortest", lockstep, &["settle"][..]),
        ("ripple-fifo-protocol", fifo, &["forward", "ack"]),
        (
            "ripple1k-churn-waterfilling",
            churn,
            &["topology", "channel", "refund"],
        ),
    ] {
        let (out, jsonl) = audited_run(
            name,
            max_silence(&cfg),
            cfg.simulation(None).expect("builds"),
        );
        let r = &out.report;
        assert!(r.completed_payments > 0, "{name}: nothing completed");
        for ev in records {
            let n = jsonl.matches(&format!("\"ev\":\"{ev}\"")).count();
            assert!(n > 0, "{name}: no {ev} record");
        }
        let trace = out.trace.expect("traced");
        assert!(trace.len() > 4096, "{name}: {} records", trace.len());
    }
}
