//! Integration tests for the §5 decentralized protocol: router queues,
//! price marking, and per-path source rate control (`spider-protocol`).

use spider_core::congestion::{WindowConfig, Windowed};
use spider_core::{execute, SchemeConfig};
use spider_routing::ShortestPath;
use spider_sim::{QueueConfig, QueueingMode, SimReport};
use spider_tests::small_isp_experiment;

#[test]
fn protocol_scheme_runs_end_to_end() {
    let mut cfg = small_isp_experiment(21, 8_000);
    cfg.scheme = SchemeConfig::spider_protocol(4);
    let r = cfg.run().expect("runs");
    assert_eq!(r.scheme, "spider-protocol");
    assert!(r.success_ratio() > 0.3, "ratio {}", r.success_ratio());
    assert!(r.success_volume() > 0.3, "volume {}", r.success_volume());
}

#[test]
fn protocol_selection_auto_enables_queueing() {
    let mut cfg = small_isp_experiment(21, 8_000);
    cfg.scheme = SchemeConfig::spider_protocol(4);
    assert!(
        matches!(cfg.sim.queueing, QueueingMode::Lockstep),
        "user left the default"
    );
    assert!(matches!(
        cfg.effective_sim().queueing,
        QueueingMode::PerChannelFifo(_)
    ));
    // Other schemes keep whatever the user configured.
    cfg.scheme = SchemeConfig::ShortestPath;
    assert!(matches!(
        cfg.effective_sim().queueing,
        QueueingMode::Lockstep
    ));
}

#[test]
fn protocol_runs_are_bit_reproducible_per_seed() {
    let mut cfg = small_isp_experiment(33, 6_000);
    cfg.scheme = SchemeConfig::spider_protocol(4);
    let a = cfg.run().expect("runs");
    let b = cfg.run().expect("runs");
    assert_eq!(a.completed_payments, b.completed_payments);
    assert_eq!(a.delivered_volume, b.delivered_volume);
    assert_eq!(a.units_locked, b.units_locked);
    assert_eq!(a.units_marked, b.units_marked);
    assert_eq!(a.units_dropped, b.units_dropped);
    assert_eq!(a.units_queued, b.units_queued);
    assert_eq!(a.completion_times, b.completion_times);
}

#[test]
fn constrained_capacity_produces_queueing_and_marking() {
    // Scarce capacity: queues must form and price marking must fire.
    let mut cfg = small_isp_experiment(29, 1_500);
    cfg.scheme = SchemeConfig::spider_protocol(4);
    let r = cfg.run().expect("runs");
    assert!(r.units_queued > 0, "queues never formed");
    assert!(r.units_marked > 0, "marking never fired");
    assert!(r.marking_rate() > 0.0 && r.marking_rate() <= 1.0);
    assert!(!r.queue_occupancy_series().is_empty());
}

/// The acceptance bar: with queueing enabled on the fig6-style topology,
/// the §5 protocol extracts at least the success-volume of the coarse
/// per-pair AIMD window (the `spider-core::congestion` wrapper it
/// replaces, over the packet-switched shortest-path baseline), at the
/// same seeds and in the same queueing mode.
#[test]
fn protocol_matches_or_beats_windowed_aimd_baseline() {
    for seed in [5, 17, 31] {
        let mut cfg = small_isp_experiment(seed, 4_000);
        cfg.scheme = SchemeConfig::spider_protocol(4);
        cfg.sim.queueing = QueueingMode::PerChannelFifo(QueueConfig::default());
        let protocol = cfg.run().expect("protocol runs");
        let baseline = Box::new(Windowed::new(ShortestPath::new(), WindowConfig::default()));
        let windowed: SimReport =
            execute(cfg.simulation(Some(baseline)).expect("baseline builds")).report;
        assert!(
            protocol.success_volume() >= windowed.success_volume(),
            "seed {seed}: protocol {:.4} < windowed {:.4}",
            protocol.success_volume(),
            windowed.success_volume()
        );
    }
}

/// Units travel in trains: a payment's units are injected back to back
/// and stay so at every hop, and a train crossing a hop is one event.
/// Every injected unit waits on at least one event of its own when units
/// travel one event each, so fewer events than units means trains held.
/// On this fixture 25,018 units make 5,951 events (50,816 with one event
/// per unit and hop; 5,249 calendar entries either way). A change that
/// quietly breaks trains apart (a per-unit delay, an event scheduled
/// between two units) fails here.
#[test]
fn unit_trains_share_calendar_entries() {
    let mut cfg = small_isp_experiment(21, 8_000);
    cfg.scheme = SchemeConfig::spider_protocol(4);
    let mut sim = cfg.simulation(None).expect("builds");
    let report = sim.run();
    assert!(report.units_locked > 10_000, "{}", report.units_locked);
    let stats = sim.slab_stats();
    assert!(
        stats.events_executed < stats.units_injected,
        "{} events for {} units",
        stats.events_executed,
        stats.units_injected
    );
    assert!(
        stats.calendar_entries <= stats.events_scheduled,
        "{} calendar entries for {} events",
        stats.calendar_entries,
        stats.events_scheduled
    );
}
