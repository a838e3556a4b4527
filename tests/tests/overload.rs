//! Overload integration tests: full simulations under the adversarial
//! load plan (flash crowd, hot pairs, drain flows, griefing holds) must
//! stay deterministic and conserving for every scheme — with the
//! protections (shedding, admission control) on and off — a
//! zero-intensity plan must be observationally invisible, and the
//! per-reason drop breakdown must partition the total drop count under
//! any mix of overload, faults and churn.

use proptest::prelude::*;
use spider_core::{run_sweep, ExperimentConfig, SchemeConfig, SweepJob, TopologyConfig};
use spider_dynamics::DynamicsConfig;
use spider_faults::FaultConfig;
use spider_overload::{OverloadConfig, OverloadPlan};
use spider_sim::{AdmissionConfig, QueueConfig, QueueingMode, SimConfig, WorkloadConfig};
use spider_tests::perturbation::{zero_intensity_changes_nothing, PlanKind};
use spider_topology::gen;
use spider_types::{Amount, DetRng, Result, SimDuration};

/// A small ISP experiment with the full adversarial plan (every
/// sub-attack enabled at its default weight) scaled by `intensity`.
/// `protected` turns on deadline-aware shedding and sender-side
/// admission control over a tight per-channel queue.
fn overload_experiment(
    scheme: SchemeConfig,
    seed: u64,
    intensity: f64,
    protected: bool,
) -> ExperimentConfig {
    let mut sim = SimConfig {
        horizon: SimDuration::from_secs(5),
        queueing: QueueingMode::PerChannelFifo(QueueConfig {
            max_queue_units: 64,
            ..QueueConfig::default()
        }),
        ..SimConfig::default()
    };
    if protected {
        sim.shedding = true;
        sim.admission = Some(AdmissionConfig {
            rate_per_sec: 150.0,
            ..AdmissionConfig::default()
        });
    }
    ExperimentConfig {
        topology: TopologyConfig::Isp {
            capacity_xrp: 2_000,
        },
        workload: WorkloadConfig::small(500, 150.0),
        sim,
        scheme,
        dynamics: None,
        faults: None,
        overload: (intensity > 0.0).then(|| {
            OverloadConfig {
                horizon_secs: 5.0,
                flash_crowd: self::flash_inside_horizon(),
                ..OverloadConfig::default()
            }
            .scaled(intensity)
        }),
        seed,
    }
}

/// A flash window that lands inside the 5 s test horizon (the crate
/// default starts at 5 s, which would warp nothing here).
fn flash_inside_horizon() -> Option<spider_overload::FlashCrowdConfig> {
    Some(spider_overload::FlashCrowdConfig {
        start_secs: 1.0,
        duration_secs: 1.0,
        rate_multiplier: 3.0,
    })
}

/// Every registered scheme survives an overload-heavy run — protections
/// on — with conservation intact (checked inside `run()`), and the same
/// seed reproduces the same report bit for bit, including the shed and
/// admission counters.
#[test]
fn all_schemes_deterministic_and_conserving_under_overload() {
    let schemes = SchemeConfig::extended_lineup();
    let jobs: Vec<SweepJob> = schemes
        .iter()
        .flat_map(|&s| {
            [
                SweepJob::Scheme(overload_experiment(s, 17, 2.0, true)),
                SweepJob::Scheme(overload_experiment(s, 17, 2.0, true)),
            ]
        })
        .collect();
    let reports = run_sweep(&jobs).expect("sweep runs");
    for pair in reports.chunks(2) {
        let (a, b) = (&pair[0], &pair[1]);
        assert_eq!(a.completed_payments, b.completed_payments, "{}", a.scheme);
        assert_eq!(a.delivered_volume, b.delivered_volume, "{}", a.scheme);
        assert_eq!(a.completed_volume, b.completed_volume, "{}", a.scheme);
        assert_eq!(a.units_locked, b.units_locked, "{}", a.scheme);
        assert_eq!(a.units_dropped, b.units_dropped, "{}", a.scheme);
        assert_eq!(a.drops_by_reason, b.drops_by_reason, "{}", a.scheme);
    }
}

/// A zero-intensity overload plan is observationally identical to no
/// plan at all: scaling the config to nothing griefs no payment, so the
/// engine must draw nothing from the overload RNG stream.
#[test]
fn zero_intensity_overload_changes_nothing() -> Result<()> {
    zero_intensity_changes_nothing(PlanKind::Overload)
}

/// The generated plan itself is a pure function of (topology, config,
/// seed) — the piece `same seed ⇒ same report` rests on.
#[test]
fn overload_plan_generation_is_seed_deterministic() {
    let topo = gen::isp_topology(Amount::from_xrp(100));
    let cfg = OverloadConfig::default();
    let a = OverloadPlan::generate(&topo, &cfg, &mut DetRng::new(42)).unwrap();
    let b = OverloadPlan::generate(&topo, &cfg, &mut DetRng::new(42)).unwrap();
    assert_eq!(a, b);
    assert!(!a.is_quiet(), "default plan must attack something");
}

/// Protections engage under pressure: with the arrival rate pushed past
/// the admission gate, the protected run must actually reject payments
/// and the rejection must be visible in the drop breakdown.
#[test]
fn admission_control_rejects_under_pressure() {
    let mut cfg = overload_experiment(SchemeConfig::ShortestPath, 9, 2.0, true);
    cfg.workload = WorkloadConfig::small(1_500, 450.0); // 3x the gate
    let r = cfg.run().expect("runs");
    assert!(
        r.drops_by_reason.admission_rejected > 0,
        "3x the admitted rate must trip the token bucket"
    );
    assert!(r.completed_payments > 0, "the gate must not starve the run");
}

proptest! {
    /// The drop-reason conservation law under the full adversarial mix:
    /// for any combination of overload, fault and churn intensity — and
    /// either protection posture — the per-reason breakdown partitions
    /// `units_dropped` exactly (every drop has exactly one reason), the
    /// shed and admission counters only move when the protections are
    /// on, and the run stays seed-deterministic.
    #[test]
    fn drop_reasons_partition_units_dropped(
        seed in 0u64..500,
        scheme_idx in 0usize..3,
        overload_tenths in 0u32..25,
        fault_tenths in 0u32..15,
        churn_tenths in 0u32..10,
        protected_coin in 0u32..2,
    ) {
        let protected = protected_coin == 1;
        let scheme = [
            SchemeConfig::ShortestPath,
            SchemeConfig::SpiderWaterfilling { paths: 4 },
            SchemeConfig::spider_protocol(4),
        ][scheme_idx];
        let cfg = || {
            let mut c = overload_experiment(
                scheme, seed, overload_tenths as f64 / 10.0, protected,
            );
            c.workload = WorkloadConfig::small(150, 150.0);
            c.sim.horizon = SimDuration::from_secs(2);
            c.overload = c.overload.map(|o| OverloadConfig { horizon_secs: 2.0, ..o });
            if fault_tenths > 0 {
                c.faults = Some(FaultConfig {
                    horizon_secs: 2.0,
                    ..FaultConfig::default()
                }.scaled(fault_tenths as f64 / 10.0));
            }
            if churn_tenths > 0 {
                c.dynamics = Some(DynamicsConfig {
                    horizon_secs: 2.0,
                    ..DynamicsConfig::default()
                }.scaled(churn_tenths as f64 / 10.0));
            }
            c
        };
        let a = cfg().run().expect("runs");
        let b = cfg().run().expect("runs");
        prop_assert_eq!(a.drops_by_reason.total(), a.units_dropped);
        if !protected {
            prop_assert_eq!(a.drops_by_reason.shed, 0);
            prop_assert_eq!(a.drops_by_reason.admission_rejected, 0);
        }
        prop_assert_eq!(a.units_dropped, b.units_dropped);
        prop_assert_eq!(&a.drops_by_reason, &b.drops_by_reason);
        prop_assert_eq!(a.completed_payments, b.completed_payments);
        prop_assert_eq!(a.completed_volume, b.completed_volume);
    }
}
