//! Drop-forensics flight recorder: golden JSONL for a fault-injected
//! fixed-seed run, and the partition law tying the recorder's
//! reason×channel root-cause table to the report's `DropBreakdown`.
//!
//! Forensics is an *observation* layer like tracing: for a fixed seed the
//! recorded drops (and both rendered JSONL artifacts) must be
//! byte-identical across runs, and recording must never perturb the
//! simulation. Regenerate the goldens with `UPDATE_GOLDENS=1` after an
//! *intentional* schema change.
//!
//! The recorder's records are the balance replay's drop facts, so each
//! golden also pins that the replay of the event stream agrees with the
//! engine at every drop. The goldens that quote trace lines quote them
//! as the trace rendered before it became a ledger ([`pre_ledger`]), and
//! the runs that render a trace pass the ledger auditor.

use proptest::prelude::*;
use spider_core::{execute, ExperimentConfig, SchemeConfig, TopologyConfig};
use spider_sim::{
    DropRecord, FlightRecorder, Perturbation, SimConfig, SimReport, SizeDistribution,
    WorkloadConfig,
};
use spider_tests::ledger_audit::{audited_run, max_silence, pre_ledger};
use spider_types::{
    ChannelId, DropReason, NodeId, SimDuration, SimTime, TopologyChange, TopologyEvent,
};
use std::path::PathBuf;

/// The trace-golden tiny run with the same heavy fault plan as
/// `fault_injected_trace_is_reproducible_and_matches_golden`: losses,
/// stuck units, and a crash-prone plan drive drops through every fault
/// reason, which is what a drop recorder exists to capture.
fn faulted_tiny_experiment(seed: u64) -> ExperimentConfig {
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
            ..SimConfig::default()
        },
        scheme: SchemeConfig::ShortestPath,
        dynamics: None,
        faults: Some(spider_faults::FaultConfig {
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
        }),
        overload: None,
        seed,
    }
}

/// One run of `cfg` with the flight recorder on (a ring far larger than
/// the tiny run's drop count): the report and the sealed recorder.
fn forensic_run(cfg: &ExperimentConfig) -> (SimReport, FlightRecorder) {
    let mut cfg = cfg.clone();
    cfg.sim.obs.forensics_capacity = 65_536;
    let out = execute(cfg.simulation(None).expect("builds"));
    (out.report, out.forensics.expect("forensics is on"))
}

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/goldens")
        .join(name)
}

/// Compares `content` against the pinned golden (or rewrites it when
/// `UPDATE_GOLDENS` is set).
fn check_golden(name: &str, content: &str) {
    let path = golden_path(name);
    if std::env::var_os("UPDATE_GOLDENS").is_some() {
        std::fs::create_dir_all(path.parent().expect("golden dir")).expect("mkdir goldens");
        std::fs::write(&path, content).expect("write golden");
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {} ({e}); record it with UPDATE_GOLDENS=1",
            path.display()
        )
    });
    if content != want {
        for (i, (got, exp)) in content.lines().zip(want.lines()).enumerate() {
            assert_eq!(got, exp, "{name}: first divergence at line {}", i + 1);
        }
        assert_eq!(
            content.lines().count(),
            want.lines().count(),
            "{name}: line counts differ"
        );
        panic!("{name}: artifacts differ only in trailing whitespace?");
    }
}

#[test]
fn fault_injected_forensics_is_reproducible_and_matches_golden() {
    let cfg = faulted_tiny_experiment(11);
    let (r1, f1) = forensic_run(&cfg);
    let (r2, f2) = forensic_run(&cfg);
    assert_eq!(r1.units_dropped, r2.units_dropped);
    assert_eq!(
        f1.to_jsonl(),
        f2.to_jsonl(),
        "forensics is not bit-reproducible"
    );
    assert_eq!(
        f1.root_cause_to_jsonl(),
        f2.root_cause_to_jsonl(),
        "root-cause table is not bit-reproducible"
    );
    assert!(
        r1.units_dropped_fault > 0,
        "no unit lost to a fault; golden is vacuous"
    );
    assert!(f1.evicted() == 0, "tiny run must fit the ring");
    assert_eq!(
        f1.len() as u64,
        r1.units_dropped,
        "one record per dropped unit"
    );

    // Forensics must observe without perturbing: the same config run
    // without the recorder produces identical outcomes.
    let bare = cfg.run().expect("bare run");
    assert_eq!(bare.units_dropped, r1.units_dropped);
    assert_eq!(bare.completed_payments, r1.completed_payments);
    assert_eq!(bare.delivered_volume, r1.delivered_volume);

    // Every line is valid JSON; the goldens pin each field and its order.
    let lines = f1.to_jsonl() + &f1.root_cause_to_jsonl();
    for line in lines.lines() {
        serde_json::parse(line).expect("forensics line is valid JSON");
    }

    check_golden("forensics_faulted_records.jsonl", &f1.to_jsonl());
    check_golden(
        "forensics_faulted_rootcause.jsonl",
        &f1.root_cause_to_jsonl(),
    );
}

/// The recorder's per-reason totals partition the report's
/// `DropBreakdown` exactly on a real fault-injected run: every dropped
/// unit is forensically recorded with the same reason the metrics saw.
#[test]
fn recorder_totals_partition_the_report_breakdown() {
    let cfg = faulted_tiny_experiment(11);
    let (r, f) = forensic_run(&cfg);
    let d = &r.drops_by_reason;
    assert_eq!(f.reason_total(DropReason::QueueTimeout), d.queue_timeout);
    assert_eq!(f.reason_total(DropReason::QueueOverflow), d.queue_overflow);
    assert_eq!(f.reason_total(DropReason::Expired), d.expired);
    assert_eq!(f.reason_total(DropReason::ChannelClosed), d.channel_closed);
    assert_eq!(f.reason_total(DropReason::MessageLost), d.message_lost);
    assert_eq!(f.reason_total(DropReason::HopTimeout), d.hop_timeout);
    assert_eq!(f.reason_total(DropReason::NodeCrashed), d.node_crashed);
    let table_total: u64 = f.root_cause_rows().iter().map(|row| row.count).sum();
    assert_eq!(table_total, d.total());
    assert_eq!(table_total, r.units_dropped);
}

const ALL_REASONS: [DropReason; 7] = [
    DropReason::QueueTimeout,
    DropReason::QueueOverflow,
    DropReason::Expired,
    DropReason::ChannelClosed,
    DropReason::MessageLost,
    DropReason::HopTimeout,
    DropReason::NodeCrashed,
];

proptest! {
    /// For any drop sequence and any ring capacity, the root-cause table
    /// partitions the drops exactly — per-reason totals match an exact
    /// tally, rows sum to the total, and eviction never loses counts.
    #[test]
    fn root_cause_table_partitions_any_drop_sequence(
        capacity in 1usize..8,
        drops in proptest::collection::vec(
            // Channel 5 encodes "no failing hop" (`channel: None`).
            (0usize..7, 0u32..6, 0u64..1_000), 0..64,
        ),
    ) {
        let mut f = FlightRecorder::new(capacity);
        let mut tally = [0u64; 7];
        for (i, &(ri, ch, t_us)) in drops.iter().enumerate() {
            let channel = (ch < 5).then_some(ch);
            tally[ri] += 1;
            f.record(DropRecord {
                t_us,
                payment: i as u64,
                path: 0,
                channel,
                bal_fwd_drops: 10,
                bal_rev_drops: 20,
                attempts: 0,
                reason: ALL_REASONS[ri],
            });
        }
        for (ri, &reason) in ALL_REASONS.iter().enumerate() {
            prop_assert_eq!(f.reason_total(reason), tally[ri]);
        }
        let rows = f.root_cause_rows();
        let table_total: u64 = rows.iter().map(|row| row.count).sum();
        prop_assert_eq!(table_total, drops.len() as u64);
        prop_assert_eq!(f.len() as u64 + f.evicted(), drops.len() as u64);
        prop_assert!(f.len() <= f.capacity());
        // Rendered lines track the retained ring and the table rows.
        prop_assert_eq!(f.to_jsonl().lines().count(), f.len());
        prop_assert_eq!(f.root_cause_to_jsonl().lines().count(), rows.len());
    }
}

/// Lockstep refunds for all three causes in one run: a deadline short
/// enough that retried units expire between lock and settle, griefing
/// payments whose receiver withholds the key, and message loss. Stuck
/// units are off, so every `hop_timeout` refund is a griefing one.
fn lockstep_refund_experiment() -> ExperimentConfig {
    ExperimentConfig {
        workload: WorkloadConfig {
            count: 40,
            ..faulted_tiny_experiment(0).workload
        },
        sim: SimConfig {
            horizon: SimDuration::from_secs(6),
            deadline: Some(SimDuration::from_millis(800)),
            ..SimConfig::default()
        },
        faults: Some(spider_faults::FaultConfig {
            message_loss_prob: 0.1,
            ack_loss_prob: 0.0,
            stuck_unit_prob: 0.0,
            crash: None,
            horizon_secs: 6.0,
            ..faulted_tiny_experiment(0).faults.expect("fault config")
        }),
        overload: Some(spider_overload::OverloadConfig {
            flash_crowd: None,
            hot_pairs: None,
            drain: None,
            griefing: Some(spider_overload::GriefingConfig {
                fraction: 0.2,
                hold_secs: 1.0,
            }),
            horizon_secs: 6.0,
        }),
        ..faulted_tiny_experiment(7)
    }
}

/// The lockstep engine refunds a settling unit for three causes —
/// expiry, griefing, fault — through one path; this pins what that path
/// counts, records and traces for each cause (golden recorded before the
/// three branches were merged).
#[test]
fn lockstep_refunds_count_record_and_trace_every_cause() {
    let mut cfg = lockstep_refund_experiment();
    cfg.sim.obs.forensics_capacity = 65_536;
    cfg.sim.obs.trace = true;
    let (out, jsonl) = audited_run(
        "refunds",
        max_silence(&cfg),
        cfg.simulation(None).expect("builds"),
    );
    let drops = out.report.drops_by_reason;
    assert!(
        drops.expired > 0 && drops.hop_timeout > 0 && drops.message_lost > 0,
        "golden is vacuous unless every refund cause occurs: {drops:?}"
    );
    let forensics = out.forensics.expect("forensics is on");
    assert_eq!(forensics.len() as u64, out.report.units_dropped);
    let refunds: String = pre_ledger(&jsonl)
        .lines()
        .filter(|l| l.contains("\"ev\":\"refund\""))
        .map(|l| format!("{l}\n"))
        .collect();
    assert_eq!(refunds.lines().count() as u64, out.report.units_dropped);
    check_golden(
        "lockstep_refunds.txt",
        &format!("{drops:?}\n{}{refunds}", forensics.to_jsonl()),
    );
}

/// A traced, recorded run of a busy ISP experiment under scripted churn:
/// a core channel closes, then core node 0 leaves (one close per
/// channel) and rejoins. Each 40-XRP payment travels as two 20-XRP units,
/// and no deadline falls inside the horizon.
fn churn_close_run(scheme: SchemeConfig) -> (spider_core::RunOutput, String) {
    let mut cfg = ExperimentConfig {
        topology: TopologyConfig::Isp { capacity_xrp: 200 },
        workload: WorkloadConfig {
            size: SizeDistribution::Constant { xrp: 40.0 },
            ..WorkloadConfig::small(160, 80.0)
        },
        sim: SimConfig {
            horizon: SimDuration::from_secs(3),
            mtu: spider_types::Amount::from_xrp(20),
            ..SimConfig::default()
        },
        scheme,
        seed: 5,
        ..Default::default()
    };
    cfg.sim.obs.trace = true;
    cfg.sim.obs.forensics_capacity = 65_536;
    let close = |c| TopologyChange::ChannelClose {
        channel: ChannelId(c),
    };
    let mut sim = cfg.simulation(None).expect("builds");
    sim.install(Perturbation::Churn(
        [
            (1_430, close(11)),
            (1_810, TopologyChange::NodeLeave { node: NodeId(0) }),
            (2_400, TopologyChange::NodeJoin { node: NodeId(0) }),
        ]
        .map(|(ms, change)| TopologyEvent {
            at: SimTime::from_micros(ms * 1_000),
            change,
        })
        .to_vec(),
    ))
    .unwrap();
    audited_run("churn closes", max_silence(&cfg), sim)
}

/// The order in which a churn close fails back in-flight work, which
/// the outcome counters do not pin. Lockstep: the forensics records of
/// the settle batches (a batch's units drop one after another, each with
/// its balance snapshot). Hop by hop under the §5 protocol: the trace's
/// churn `drop` lines, by unit id, of units queued at a closed channel
/// and units between hops.
#[test]
fn churn_close_fail_back_order_matches_golden() {
    let (lockstep, _) = churn_close_run(SchemeConfig::ShortestPath);
    let r = &lockstep.report;
    assert_eq!(r.units_dropped, r.drops_by_reason.channel_closed);
    let records = lockstep.forensics.expect("forensics is on").to_jsonl();
    let parsed: Vec<_> = records
        .lines()
        .map(|l| serde_json::parse(l).expect("JSON"))
        .collect();
    assert_eq!(parsed.len() as u64, r.units_dropped);
    // Both the channel close and the node leave fail back a batch of
    // several units (adjacent records of one payment at one instant).
    let batch = |v: &serde_json::Value| (v["t_us"].as_u64(), v["payment"].as_u64());
    let batched: std::collections::BTreeSet<_> = parsed
        .windows(2)
        .filter(|w| batch(&w[0]) == batch(&w[1]))
        .map(|w| w[0]["t_us"].as_u64())
        .collect();
    assert_eq!(batched.len(), 2, "{batched:?}");

    let (_, trace) = churn_close_run(SchemeConfig::spider_protocol(4));
    let trace = pre_ledger(&trace);
    let mut last = std::collections::BTreeMap::new();
    let (mut drops, mut queued, mut moving) = (String::new(), 0, 0);
    for line in trace.lines() {
        let v = serde_json::parse(line).expect("JSON");
        let (Some(ev), Some(unit)) = (v["ev"].as_str(), v["unit"].as_u64()) else {
            continue;
        };
        if v["reason"].as_str() == Some("channel_closed") {
            match last.get(&unit).map(String::as_str) {
                Some("enqueue") => queued += 1,
                Some("forward") => moving += 1,
                _ => {}
            }
            drops += &format!("{line}\n");
        }
        last.insert(unit, ev.to_string());
    }
    assert!(
        queued > 0 && moving > 0,
        "queued {queued}, between hops {moving}"
    );
    check_golden("forensics_churn_closes.txt", &(records + &drops));
}
