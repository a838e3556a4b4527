//! Whole-trace pins for hop-by-hop runs: for four mid-size runs of the
//! §5 protocol on a 300-node Ripple-like graph, the JSONL trace's line
//! count and FNV-1a-64 hash, and the report's outcome fields.
//!
//! Each run carries three trace pins. The first is the trace as rendered
//! now, a ledger. The second is the same trace without what the ledger
//! added ([`pre_ledger`]). The third is the second without attempt
//! ordinals ([`without_attempts`]), and its values were recorded on the
//! engine that re-offered every pending payment at every poll, before
//! the router's promise to propose nothing let it skip those it proves
//! empty; such a skip lowers the ordinals of the payment's later
//! attempts, and the report's `retries`, and moves nothing else. (The
//! second pin's values had been recorded, in turn, on the engine that
//! scheduled one `HopArrive`/`UnitDeliver` event per unit, before units
//! crossing a hop together began to share one event.) A trace
//! record carries every unit's instant, sequence number and fate, so a
//! hash match means the two engines did the same work in the same order
//! — decisions, locks, price stamps, fault and griefing draws, drops,
//! acks — not just that they reached the same totals; and the ledger
//! only added facts to that record. The four runs cover the plain
//! protocol, fault injection (loss, stuck units, jitter, spikes,
//! crashes), overload (flash crowd, hot pairs, drain, griefing) with
//! shedding and shaping admission, and topology churn whose closes land
//! while units are mid-path. Each trace also passes the ledger auditor,
//! so the pins say the work was right as well as unchanged.

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
use spider_tests::ledger_audit::{audited_run, max_silence, pre_ledger, without_attempts};
use spider_types::{Amount, SimDuration};

/// Simulated seconds of arrivals in every run.
const SECS: f64 = 4.0;

/// FNV-1a, 64-bit.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The plain run: `spider_protocol(4)` with its default queues on a
/// 300-node Ripple-like graph, traced.
fn base() -> ExperimentConfig {
    let rate = 500.0;
    let mut sim = SimConfig {
        horizon: SimDuration::from_secs_f64(SECS + 1.0),
        mtu: Amount::from_xrp(20),
        ..SimConfig::default()
    };
    sim.obs.trace = true;
    ExperimentConfig {
        topology: TopologyConfig::RippleLike {
            nodes: 300,
            capacity_xrp: 2_000,
        },
        workload: WorkloadConfig {
            count: (SECS * rate) as usize,
            rate_per_sec: rate,
            size: SizeDistribution::RippleFull,
            sender_skew_scale: 300.0 / 8.0,
        },
        sim,
        scheme: SchemeConfig::spider_protocol(4),
        dynamics: None,
        faults: None,
        overload: None,
        seed: 42,
    }
}

fn faulted() -> ExperimentConfig {
    ExperimentConfig {
        faults: Some(FaultConfig {
            crash: Some(CrashConfig {
                rate_per_sec: 2.0,
                recovery_mean_secs: Some(0.5),
            }),
            horizon_secs: SECS,
            ..FaultConfig::default()
        }),
        ..base()
    }
}

/// The overload attack, with deadline-aware shedding into short queues,
/// shaping admission and a deadline that lapses units mid-path.
fn overloaded() -> ExperimentConfig {
    let mut cfg = base();
    cfg.sim.queueing = QueueingMode::PerChannelFifo(QueueConfig {
        max_queue_units: 16,
        ..QueueConfig::default()
    });
    cfg.sim.shedding = true;
    cfg.sim.deadline = Some(SimDuration::from_millis(1_500));
    cfg.sim.admission = Some(AdmissionConfig {
        rate_per_sec: 400.0,
        burst: 32.0,
        defer: true,
    });
    cfg.overload = Some(OverloadConfig {
        flash_crowd: Some(FlashCrowdConfig {
            start_secs: SECS * 0.3,
            duration_secs: SECS * 0.1,
            rate_multiplier: 2.0,
        }),
        hot_pairs: Some(HotPairsConfig::default()),
        drain: Some(DrainConfig::default()),
        griefing: Some(GriefingConfig {
            fraction: 0.05,
            hold_secs: 1.0,
        }),
        horizon_secs: SECS,
    });
    cfg
}

/// Churn heavy enough that channels close under trains of units.
fn churned() -> ExperimentConfig {
    ExperimentConfig {
        dynamics: Some(DynamicsConfig {
            close_rate_per_sec: 4.0,
            reopen_mean_secs: Some(1.0),
            resize_rate_per_sec: 1.0,
            node_leave_rate_per_sec: 0.5,
            spawn_fraction: 0.04,
            flap_channels: 2,
            flap_period_secs: 1.0,
            horizon_secs: SECS,
            ..DynamicsConfig::default()
        }),
        ..base()
    }
}

/// The outcome fields a pin compares, one line.
fn outcome(r: &SimReport) -> String {
    let completions = r
        .completion_times
        .iter()
        .flat_map(|t| t.to_bits().to_le_bytes())
        .collect::<Vec<u8>>();
    format!(
        "attempted={} completed={} delivered={} completed_volume={} deferred={} \
         locked={} failed={} retries={} hops={} acked={} marked={} dropped={} queued={} \
         topology={} dropped_churn={} failed_churn={} fault_events={} faults={} \
         dropped_fault={} drops={:?} completions={:016x}",
        r.attempted_payments,
        r.completed_payments,
        r.delivered_volume.drops(),
        r.completed_volume.drops(),
        r.admission_deferred,
        r.units_locked,
        r.units_failed,
        r.retries,
        r.unit_hops_sum,
        r.units_acked,
        r.units_marked,
        r.units_dropped,
        r.units_queued,
        r.topology_events,
        r.units_dropped_churn,
        r.payments_failed_churn,
        r.fault_events,
        r.faults_injected,
        r.units_dropped_fault,
        r.drops_by_reason,
        fnv1a64(&completions),
    )
}

/// A trace's line count and hash.
fn pin(text: &str) -> (usize, u64) {
    (text.lines().count(), fnv1a64(text.as_bytes()))
}

/// Runs `cfg` traced and audited, and checks the JSONL's line count and
/// hash (`ledger`), those of its [`pre_ledger`] projection (`before`),
/// those of that projection without attempt ordinals (`unnumbered`) and
/// the outcome line against the pins.
fn check(
    name: &str,
    cfg: ExperimentConfig,
    [ledger, before, unnumbered]: [(usize, u64); 3],
    want: &str,
) {
    let (out, jsonl) = audited_run(
        name,
        max_silence(&cfg),
        cfg.simulation(None).expect("builds"),
    );
    let projected = pre_ledger(&jsonl);
    let got = [
        pin(&jsonl),
        pin(&projected),
        pin(&without_attempts(&projected)),
    ];
    assert_eq!(
        got,
        [ledger, before, unnumbered],
        "{name}: trace moved (ledger, projection, projection without attempts)"
    );
    assert_eq!(outcome(&out.report), want, "{name}: outcome moved");
}

#[test]
fn plain_protocol_trace_is_pinned() {
    check(
        "plain",
        base(),
        [
            (190_426, 0xa1ba_133e_0f3d_516c),
            (190_426, 0xe068_6367_5607_b094),
            (190_426, 0xe5df_7c1b_1b29_9f2d),
        ],
        "attempted=2000 completed=1106 delivered=369430523946 \
         completed_volume=255251250597 deferred=0 locked=19700 failed=7561 retries=1492 \
         hops=66932 acked=26694 marked=16010 dropped=7561 queued=5291 topology=0 \
         dropped_churn=0 failed_churn=0 fault_events=0 faults=0 dropped_fault=0 \
         drops=DropBreakdown { queue_timeout: 7561, queue_overflow: 0, expired: 0, \
         channel_closed: 0, message_lost: 0, hop_timeout: 0, node_crashed: 0, shed: 0, \
         admission_rejected: 0 } completions=217983fdf9a35591",
    );
}

#[test]
fn faulted_protocol_trace_is_pinned() {
    check(
        "faulted",
        faulted(),
        [
            (193_819, 0x630d_c2e0_eeb6_6c77),
            (193_819, 0xee56_1949_2e92_0534),
            (193_819, 0xa6c1_c717_277c_d737),
        ],
        "attempted=2000 completed=997 delivered=361963012358 \
         completed_volume=211920057947 deferred=0 locked=19612 failed=8460 retries=2183 \
         hops=66777 acked=26934 marked=16704 dropped=8137 queued=5604 topology=0 \
         dropped_churn=0 failed_churn=0 fault_events=20 faults=982 dropped_fault=913 \
         drops=DropBreakdown { queue_timeout: 7224, queue_overflow: 0, expired: 0, \
         channel_closed: 0, message_lost: 546, hop_timeout: 126, node_crashed: 241, \
         shed: 0, admission_rejected: 0 } completions=066e17469965cc7f",
    );
}

#[test]
fn overloaded_protocol_trace_is_pinned() {
    check(
        "overloaded",
        overloaded(),
        [
            (123_424, 0xeea5_dc34_fabc_67be),
            (123_424, 0x8caf_77af_6d3a_c94b),
            (123_424, 0xf7b6_de05_474d_60ae),
        ],
        "attempted=2000 completed=793 delivered=255411896245 \
         completed_volume=163330093456 deferred=1834 locked=15514 failed=6084 \
         retries=10982 hops=53671 acked=16145 marked=7534 dropped=2808 queued=2069 \
         topology=0 dropped_churn=0 failed_churn=0 fault_events=0 faults=0 \
         dropped_fault=624 drops=DropBreakdown { queue_timeout: 740, queue_overflow: 0, \
         expired: 576, channel_closed: 0, message_lost: 0, hop_timeout: 624, \
         node_crashed: 0, shed: 868, admission_rejected: 0 } \
         completions=c60a6cab756faee4",
    );
}

#[test]
fn churned_protocol_trace_is_pinned() {
    check(
        "churned",
        churned(),
        [
            (195_912, 0x7a67_114a_7386_dc7a),
            (195_784, 0xbc48_99c2_91da_bf84),
            (195_784, 0xbcda_467d_351b_75ba),
        ],
        "attempted=2000 completed=1085 delivered=365017962866 \
         completed_volume=244261822688 deferred=0 locked=19701 failed=8134 retries=1529 \
         hops=67829 acked=27239 marked=16608 dropped=8336 queued=5360 topology=83 \
         dropped_churn=440 failed_churn=39 fault_events=0 faults=0 dropped_fault=0 \
         drops=DropBreakdown { queue_timeout: 7896, queue_overflow: 0, expired: 0, \
         channel_closed: 440, message_lost: 0, hop_timeout: 0, node_crashed: 0, shed: \
         0, admission_rejected: 0 } completions=57b9e9a647496a33",
    );
}
