//! Golden determinism tests: exact `SimReport` outcomes recorded on the
//! pre-interner engine (PR 1 tree) for fixed seeds.
//!
//! The hot-path overhaul (path interning, slab recycling, analytic
//! waterfilling, cached shortest paths) must be *bit-identical* in its
//! observable outcomes: it changes how fast decisions are computed, never
//! which decisions are made. Any drift in these numbers means a semantic
//! change snuck into the refactor.
//!
//! Two columns of the three `ShortestPath` rows are *not* the
//! pre-refactor values: `units_failed` and `retries` count work actually
//! done, and the engine no longer re-offers a pending payment whose
//! pinned path cannot carry its smallest chunk (`Router::pins_single_path`
//! — such an attempt locks nothing, so skipping it changes no balance, no
//! payment and no event). ISP seed 7 went 166,992 → 10,395 failed units
//! and 7,628 → 427 retries; seed 23 228,159 → 13,410 and 10,377 → 538;
//! Ripple-like seed 13 1,266,798 → 53,935 and 33,942 → 518. Likewise the
//! `retries` column of the three §5 protocol rows: the engine does not
//! re-offer a pending payment while the router promises to propose
//! nothing for its pair (`Router::proposes_nothing` — every window of
//! the pair is full), so ISP seed 7 went 1,586 → 352, seed 23 2,742 →
//! 488, and Ripple-like seed 13 7,985 → 4,960. Every other column of
//! those rows, and every column of every other row (no other scheme
//! gives either promise), is the value originally recorded. The
//! quick-grid table at the end has its own provenance (`QuickGolden`).

use spider_core::{ExperimentConfig, SchemeConfig, TopologyConfig};
use spider_sim::{DropBreakdown, ObsConfig, SimConfig, SizeDistribution, WorkloadConfig};
use spider_types::{Amount, SimDuration};

/// The capacity-constrained small ISP experiment the goldens were recorded
/// on (heavy retry pressure exercises every hot path).
fn golden_experiment(seed: u64, scheme: SchemeConfig) -> ExperimentConfig {
    ExperimentConfig {
        topology: TopologyConfig::Isp {
            capacity_xrp: 4_000,
        },
        workload: WorkloadConfig {
            count: 1_500,
            rate_per_sec: 500.0,
            size: SizeDistribution::RippleIsp,
            sender_skew_scale: 8.0,
        },
        sim: SimConfig {
            horizon: SimDuration::from_secs(5),
            ..SimConfig::default()
        },
        scheme,
        dynamics: None,
        faults: None,
        overload: None,
        seed,
    }
}

/// One recorded outcome.
struct Golden {
    seed: u64,
    completed: u64,
    delivered_drops: u64,
    units_locked: u64,
    units_failed: u64,
    retries: u64,
    units_acked: u64,
    units_marked: u64,
    units_dropped: u64,
    units_queued: u64,
}

fn check(scheme: SchemeConfig, golden: &[Golden]) {
    for g in golden {
        let r = golden_experiment(g.seed, scheme).run().expect("runs");
        assert_eq!(r.completed_payments, g.completed, "seed {}", g.seed);
        assert_eq!(
            r.delivered_volume.drops(),
            g.delivered_drops,
            "seed {}",
            g.seed
        );
        assert_eq!(r.units_locked, g.units_locked, "seed {}", g.seed);
        assert_eq!(r.units_failed, g.units_failed, "seed {}", g.seed);
        assert_eq!(r.retries, g.retries, "seed {}", g.seed);
        assert_eq!(r.units_acked, g.units_acked, "seed {}", g.seed);
        assert_eq!(r.units_marked, g.units_marked, "seed {}", g.seed);
        assert_eq!(r.units_dropped, g.units_dropped, "seed {}", g.seed);
        assert_eq!(r.units_queued, g.units_queued, "seed {}", g.seed);
    }
}

#[test]
fn shortest_path_outcomes_match_pre_refactor_goldens() {
    check(
        SchemeConfig::ShortestPath,
        &[
            Golden {
                seed: 7,
                completed: 1271,
                delivered_drops: 192_064_151_469,
                units_locked: 19_900,
                units_failed: 10_395,
                retries: 427,
                units_acked: 0,
                units_marked: 0,
                units_dropped: 0,
                units_queued: 0,
            },
            Golden {
                seed: 23,
                completed: 1210,
                delivered_drops: 179_990_858_251,
                units_locked: 18_695,
                units_failed: 13_410,
                retries: 538,
                units_acked: 0,
                units_marked: 0,
                units_dropped: 0,
                units_queued: 0,
            },
        ],
    );
}

#[test]
fn waterfilling_outcomes_match_pre_refactor_goldens() {
    check(
        SchemeConfig::SpiderWaterfilling { paths: 4 },
        &[
            Golden {
                seed: 7,
                completed: 1447,
                delivered_drops: 230_675_270_516,
                units_locked: 23_810,
                units_failed: 0,
                retries: 1_545,
                units_acked: 0,
                units_marked: 0,
                units_dropped: 0,
                units_queued: 0,
            },
            Golden {
                seed: 23,
                completed: 1378,
                delivered_drops: 213_391_219_630,
                units_locked: 22_100,
                units_failed: 0,
                retries: 4_062,
                units_acked: 0,
                units_marked: 0,
                units_dropped: 0,
                units_queued: 0,
            },
        ],
    );
}

#[test]
fn spider_protocol_outcomes_match_pre_refactor_goldens() {
    check(
        SchemeConfig::spider_protocol(4),
        &[
            Golden {
                seed: 7,
                completed: 1325,
                delivered_drops: 218_127_445_565,
                units_locked: 22_861,
                units_failed: 2_355,
                retries: 352,
                units_acked: 24_959,
                units_marked: 8_369,
                units_dropped: 2_355,
                units_queued: 2_988,
            },
            Golden {
                seed: 23,
                completed: 1239,
                delivered_drops: 207_952_059_002,
                units_locked: 21_593,
                units_failed: 3_726,
                retries: 488,
                units_acked: 25_239,
                units_marked: 9_484,
                units_dropped: 3_726,
                units_queued: 2_193,
            },
        ],
    );
}

/// The Ripple-like family golden: recorded on the PR 2 tree (whose
/// equivalence to the pre-interner engine was established by the seed-42
/// full-scale baseline in `crates/bench/baselines/` and the ISP goldens
/// above), pinning the scale-free-topology code paths — generator,
/// largest-component extraction, per-source BFS trees, edge-disjoint
/// oracles — that the ISP goldens cannot reach.
fn ripple_golden_experiment(seed: u64, scheme: SchemeConfig) -> ExperimentConfig {
    ExperimentConfig {
        topology: TopologyConfig::RippleLike {
            nodes: 1_200,
            capacity_xrp: 1_000,
        },
        workload: WorkloadConfig {
            count: 2_000,
            rate_per_sec: 400.0,
            size: SizeDistribution::RippleFull,
            sender_skew_scale: 150.0,
        },
        sim: SimConfig {
            horizon: SimDuration::from_secs(6),
            ..SimConfig::default()
        },
        scheme,
        dynamics: None,
        faults: None,
        overload: None,
        seed,
    }
}

#[test]
fn ripple_like_outcomes_match_recorded_goldens() {
    for (scheme, g) in [
        (
            SchemeConfig::ShortestPath,
            Golden {
                seed: 13,
                completed: 925,
                delivered_drops: 253_841_755_436,
                units_locked: 26_312,
                units_failed: 53_935,
                retries: 518,
                units_acked: 0,
                units_marked: 0,
                units_dropped: 0,
                units_queued: 0,
            },
        ),
        (
            SchemeConfig::spider_protocol(4),
            Golden {
                seed: 13,
                completed: 1_156,
                delivered_drops: 393_073_297_703,
                units_locked: 41_155,
                units_failed: 15_935,
                retries: 4_960,
                units_acked: 55_938,
                units_marked: 34_493,
                units_dropped: 15_951,
                units_queued: 9_421,
            },
        ),
    ] {
        let r = ripple_golden_experiment(g.seed, scheme)
            .run()
            .expect("runs");
        assert_eq!(r.completed_payments, g.completed, "{scheme:?}");
        assert_eq!(r.delivered_volume.drops(), g.delivered_drops, "{scheme:?}");
        assert_eq!(r.units_locked, g.units_locked, "{scheme:?}");
        assert_eq!(r.units_failed, g.units_failed, "{scheme:?}");
        assert_eq!(r.retries, g.retries, "{scheme:?}");
        assert_eq!(r.units_acked, g.units_acked, "{scheme:?}");
        assert_eq!(r.units_marked, g.units_marked, "{scheme:?}");
        assert_eq!(r.units_dropped, g.units_dropped, "{scheme:?}");
        assert_eq!(r.units_queued, g.units_queued, "{scheme:?}");
    }
}

/// One row of the quick engine grid: every deterministic field the old
/// CI run-report diff gated, plus the hotspot channel ids in table
/// order. The numbers are copied from the seed-42 quick-grid JSON anchor
/// that diff compared against, as committed under
/// `crates/bench/baselines/` at PR 24 (this test replaced the diff, its
/// anchor and the bin that wrote it in PR 25). The anchor's
/// `units_processed` column was `units_locked + units_failed` for the
/// lockstep rows and `units_injected` for the FIFO row.
///
/// The two lockstep rows' `events_executed` and `peak_live_events` are
/// newer than the anchor: since the units one proposal locks settle as
/// one event instead of one event per MTU unit, those rows execute and
/// hold far fewer events. The FIFO row's event counts and `retries` are
/// newer too (see its comments). Every other field is the anchor's.
struct QuickGolden {
    scheme: SchemeConfig,
    events_executed: u64,
    peak_live_events: usize,
    peak_live_units: usize,
    interned_paths: usize,
    units_injected: u64,
    completed: u64,
    delivered_drops: u64,
    units_locked: u64,
    units_failed: u64,
    units_dropped: u64,
    retries: u64,
    latency_p50_s: &'static str,
    latency_p99_s: &'static str,
    hotspots: [u32; 8],
}

#[test]
fn quick_grid_outcomes_match_recorded_goldens() {
    for g in [
        QuickGolden {
            scheme: SchemeConfig::ShortestPath,
            events_executed: 6_077,
            peak_live_events: 530,
            peak_live_units: 0,
            interned_paths: 715,
            units_injected: 0,
            completed: 2_954,
            delivered_drops: 478_286_013_535,
            units_locked: 49_336,
            units_failed: 3_015,
            units_dropped: 0,
            retries: 133,
            latency_p50_s: "0.524288",
            latency_p99_s: "1.048576",
            hotspots: [34, 94, 12, 84, 17, 8, 10, 44],
        },
        QuickGolden {
            scheme: SchemeConfig::SpiderWaterfilling { paths: 4 },
            events_executed: 10_231,
            peak_live_events: 1_417,
            peak_live_units: 0,
            interned_paths: 2_860,
            units_injected: 0,
            completed: 3_000,
            delivered_drops: 492_372_475_654,
            units_locked: 50_722,
            units_failed: 0,
            units_dropped: 0,
            retries: 0,
            latency_p50_s: "0.500000",
            latency_p99_s: "0.500000",
            hotspots: [67, 51, 81, 34, 94, 12, 117, 106],
        },
        QuickGolden {
            scheme: SchemeConfig::spider_protocol(4),
            // Only the event counts moved (111,254 and 9,800 before) when
            // a train of units crossing a hop together became one event:
            // the units are the same, `peak_live_units` included. And
            // `retries` (474 before) counts attempts made since polls
            // skip payments whose pair's windows are full.
            events_executed: 9_996,
            peak_live_events: 661,
            peak_live_units: 9_798,
            interned_paths: 2_860,
            units_injected: 51_007,
            completed: 2_994,
            delivered_drops: 491_713_237_131,
            units_locked: 51_007,
            units_failed: 0,
            units_dropped: 0,
            retries: 142,
            latency_p50_s: "0.524288",
            latency_p99_s: "1.129786",
            hotspots: [34, 51, 12, 94, 81, 67, 109, 44],
        },
    ] {
        let name = g.scheme.name();
        // `simulation(None)` puts the protocol on default FIFO queues.
        let cfg = ExperimentConfig {
            topology: TopologyConfig::Isp {
                capacity_xrp: 30_000,
            },
            workload: WorkloadConfig {
                count: 3_000,
                rate_per_sec: 1_000.0,
                size: SizeDistribution::RippleIsp,
                sender_skew_scale: 8.0,
            },
            sim: SimConfig {
                horizon: SimDuration::from_secs(4),
                mtu: Amount::from_xrp(10),
                obs: ObsConfig {
                    attribution: true,
                    ..ObsConfig::default()
                },
                ..SimConfig::default()
            },
            scheme: g.scheme,
            dynamics: None,
            faults: None,
            overload: None,
            seed: 42,
        };
        let mut sim = cfg.simulation(None).expect("builds");
        let r = sim.run();
        let slab = sim.slab_stats();
        assert_eq!(slab.events_executed, g.events_executed, "{name}");
        assert_eq!(slab.peak_live_events, g.peak_live_events, "{name}");
        assert_eq!(slab.peak_live_units, g.peak_live_units, "{name}");
        assert_eq!(slab.interned_paths, g.interned_paths, "{name}");
        assert_eq!(slab.units_injected, g.units_injected, "{name}");
        assert_eq!(r.attempted_payments, 3_000, "{name}");
        assert_eq!(r.completed_payments, g.completed, "{name}");
        assert_eq!(r.delivered_volume.drops(), g.delivered_drops, "{name}");
        assert_eq!(r.units_locked, g.units_locked, "{name}");
        assert_eq!(r.units_failed, g.units_failed, "{name}");
        assert_eq!(r.units_dropped, g.units_dropped, "{name}");
        assert_eq!(r.retries, g.retries, "{name}");
        let pct = |p| format!("{:.6}", r.latency_hist.percentile(p).expect("completions"));
        assert_eq!(pct(50.0), g.latency_p50_s, "{name}");
        assert_eq!(pct(99.0), g.latency_p99_s, "{name}");
        assert_eq!(r.drops_by_reason, DropBreakdown::default(), "{name}");
        let hot: Vec<u32> = r.hotspots.iter().map(|h| h.channel).collect();
        assert_eq!(hot, g.hotspots, "{name}");
    }
}
