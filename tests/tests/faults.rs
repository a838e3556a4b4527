//! Fault-injection integration tests: full simulations under injected
//! message loss, stuck units and node crashes must stay deterministic and
//! conserving for every scheme (alone and combined with topology churn),
//! a zero-intensity plan must be observationally invisible, and the
//! expired-unit refund path must behave the same way in both queueing
//! modes.

use proptest::prelude::*;
use spider_core::{run_sweep, ExperimentConfig, SchemeConfig, SweepJob, TopologyConfig};
use spider_dynamics::DynamicsConfig;
use spider_faults::{FaultConfig, FaultPlan};
use spider_sim::{QueueConfig, QueueingMode, SimConfig, WorkloadConfig};
use spider_tests::perturbation::{zero_intensity_changes_nothing, PlanKind};
use spider_topology::gen;
use spider_types::{Amount, DetRng, Result, SimDuration};

fn fault_experiment(scheme: SchemeConfig, seed: u64, intensity: f64) -> ExperimentConfig {
    ExperimentConfig {
        topology: TopologyConfig::Isp {
            capacity_xrp: 2_000,
        },
        workload: WorkloadConfig::small(500, 150.0),
        sim: SimConfig {
            horizon: SimDuration::from_secs(5),
            ..SimConfig::default()
        },
        scheme,
        dynamics: None,
        faults: (intensity > 0.0).then(|| {
            FaultConfig {
                horizon_secs: 5.0,
                ..FaultConfig::default()
            }
            .scaled(intensity)
        }),
        overload: None,
        seed,
    }
}

/// Every registered scheme survives a fault-heavy run with conservation
/// intact (checked inside `run()`), and the same seed reproduces the
/// same report bit for bit — including every fault counter.
#[test]
fn all_schemes_deterministic_and_conserving_under_faults() {
    let schemes = SchemeConfig::extended_lineup();
    // Two identical jobs per scheme, fanned across cores in one sweep
    // (every job seeds independently, so scheduling cannot leak in).
    let jobs: Vec<SweepJob> = schemes
        .iter()
        .flat_map(|&s| {
            [
                SweepJob::Scheme(fault_experiment(s, 11, 2.0)),
                SweepJob::Scheme(fault_experiment(s, 11, 2.0)),
            ]
        })
        .collect();
    let reports = run_sweep(&jobs).expect("sweep runs");
    for pair in reports.chunks(2) {
        let (a, b) = (&pair[0], &pair[1]);
        assert_eq!(a.completed_payments, b.completed_payments, "{}", a.scheme);
        assert_eq!(a.delivered_volume, b.delivered_volume, "{}", a.scheme);
        assert_eq!(a.units_locked, b.units_locked, "{}", a.scheme);
        assert_eq!(a.faults_injected, b.faults_injected, "{}", a.scheme);
        assert_eq!(a.fault_events, b.fault_events, "{}", a.scheme);
        assert_eq!(a.units_dropped_fault, b.units_dropped_fault, "{}", a.scheme);
        assert_eq!(
            a.drops_by_reason.message_lost, b.drops_by_reason.message_lost,
            "{}",
            a.scheme
        );
        assert_eq!(
            a.drops_by_reason.hop_timeout, b.drops_by_reason.hop_timeout,
            "{}",
            a.scheme
        );
        assert_eq!(
            a.drops_by_reason.node_crashed, b.drops_by_reason.node_crashed,
            "{}",
            a.scheme
        );
        assert!(
            a.faults_injected > 0,
            "{}: faults must actually fire",
            a.scheme
        );
        assert!(
            a.attempted_payments == 500,
            "{}: full workload attempted",
            a.scheme
        );
    }
}

/// Every scheme also stays deterministic and conserving with fault
/// injection and live topology churn active *simultaneously* — the two
/// schedules fork independent RNG streams, so neither may perturb the
/// other's reproducibility.
#[test]
fn all_schemes_deterministic_under_combined_faults_and_churn() {
    let combined = |scheme, seed| {
        let mut c = fault_experiment(scheme, seed, 1.5);
        c.dynamics = Some(
            DynamicsConfig {
                horizon_secs: 5.0,
                ..DynamicsConfig::default()
            }
            .scaled(0.75),
        );
        c
    };
    let jobs: Vec<SweepJob> = SchemeConfig::extended_lineup()
        .iter()
        .flat_map(|&s| {
            [
                SweepJob::Scheme(combined(s, 23)),
                SweepJob::Scheme(combined(s, 23)),
            ]
        })
        .collect();
    let reports = run_sweep(&jobs).expect("sweep runs");
    for pair in reports.chunks(2) {
        let (a, b) = (&pair[0], &pair[1]);
        assert_eq!(a.completed_payments, b.completed_payments, "{}", a.scheme);
        assert_eq!(a.delivered_volume, b.delivered_volume, "{}", a.scheme);
        assert_eq!(a.units_locked, b.units_locked, "{}", a.scheme);
        assert_eq!(a.faults_injected, b.faults_injected, "{}", a.scheme);
        assert_eq!(a.units_dropped_fault, b.units_dropped_fault, "{}", a.scheme);
        assert_eq!(a.units_dropped_churn, b.units_dropped_churn, "{}", a.scheme);
        assert_eq!(a.topology_events, b.topology_events, "{}", a.scheme);
        assert_eq!(a.fault_events, b.fault_events, "{}", a.scheme);
        assert!(a.faults_injected > 0, "{}: faults must fire", a.scheme);
        assert!(a.topology_events > 0, "{}: churn must fire", a.scheme);
    }
}

proptest! {
    /// Randomized (seed, scheme, fault intensity, churn intensity)
    /// combinations stay deterministic and conserving under the combined
    /// schedules. Restricted to the cache-repairing schemes so the 64
    /// fixed cases stay fast; the offline/atomic schemes get the same
    /// check at a pinned point in the sweep test above.
    #[test]
    fn random_combined_schedules_stay_deterministic(
        seed in 0u64..1_000,
        scheme_idx in 0usize..4,
        fault_tenths in 5u32..30,
        churn_tenths in 2u32..15,
    ) {
        let scheme = [
            SchemeConfig::ShortestPath,
            SchemeConfig::SpiderWaterfilling { paths: 4 },
            SchemeConfig::SpiderPricing { paths: 4 },
            SchemeConfig::spider_protocol(4),
        ][scheme_idx];
        let cfg = || {
            let mut c = fault_experiment(scheme, seed, fault_tenths as f64 / 10.0);
            c.workload = WorkloadConfig::small(120, 150.0);
            c.sim.horizon = SimDuration::from_secs(2);
            c.faults = c.faults.map(|f| FaultConfig {
                horizon_secs: 2.0,
                ..f
            });
            c.dynamics = Some(DynamicsConfig {
                horizon_secs: 2.0,
                ..DynamicsConfig::default()
            }.scaled(churn_tenths as f64 / 10.0));
            c
        };
        let a = cfg().run().expect("runs");
        let b = cfg().run().expect("runs");
        prop_assert_eq!(a.completed_payments, b.completed_payments);
        prop_assert_eq!(a.delivered_volume, b.delivered_volume);
        prop_assert_eq!(a.units_locked, b.units_locked);
        prop_assert_eq!(a.faults_injected, b.faults_injected);
        prop_assert_eq!(a.units_dropped_fault, b.units_dropped_fault);
        prop_assert_eq!(a.units_dropped_churn, b.units_dropped_churn);
        prop_assert_eq!(a.topology_events, b.topology_events);
        prop_assert_eq!(a.fault_events, b.fault_events);
    }
}

/// Faults hurt but do not zero out a retrying scheme: with the default
/// 1× plan, waterfilling still delivers most of what the clean run does
/// (the backoff layer steers units around cooled paths).
#[test]
fn backoff_scheme_retains_most_throughput_under_faults() {
    let scheme = SchemeConfig::SpiderWaterfilling { paths: 4 };
    let faulty = fault_experiment(scheme, 3, 1.0).run().expect("runs");
    let clean = fault_experiment(scheme, 3, 0.0).run().expect("runs");
    assert!(faulty.faults_injected > 0, "plan must actually inject");
    assert!(
        faulty.success_volume() > 0.5 * clean.success_volume(),
        "faulty {:.3} vs clean {:.3}",
        faulty.success_volume(),
        clean.success_volume()
    );
}

/// A zero-intensity fault plan is observationally identical to no plan at
/// all (the bit-identity regression the determinism goldens also pin).
#[test]
fn zero_intensity_faults_changes_nothing() -> Result<()> {
    zero_intensity_changes_nothing(PlanKind::Faults)
}

/// The generated plan itself is a pure function of (topology, config,
/// seed) — the piece `same seed ⇒ same report` rests on.
#[test]
fn fault_plan_generation_is_seed_deterministic() {
    let topo = gen::isp_topology(Amount::from_xrp(100));
    let cfg = FaultConfig {
        horizon_secs: 20.0,
        // One crash per second in expectation: the chance of an empty
        // 20 s plan is e^-20, i.e. none, for any seed.
        crash: Some(spider_faults::CrashConfig {
            rate_per_sec: 1.0,
            recovery_mean_secs: Some(2.0),
        }),
        ..FaultConfig::default()
    };
    let a = FaultPlan::generate(&topo, &cfg, &mut DetRng::new(42)).unwrap();
    let b = FaultPlan::generate(&topo, &cfg, &mut DetRng::new(42)).unwrap();
    assert_eq!(a, b);
    assert!(!a.events.is_empty(), "crash plan must schedule events");
}

/// Satellite regression for the expired-unit refund path: a payment whose
/// deadline passes after its units lock must refund every hop — counted
/// as `Expired` drops — in *both* queueing modes. The deadline here (5 ms)
/// is shorter than one hop delay (10 ms) and far shorter than the lockstep
/// confirmation delay (500 ms), so every locked unit expires in flight
/// and the run completes nothing; conservation is asserted inside `run()`.
#[test]
fn expired_units_refund_identically_in_both_queueing_modes() {
    let base = || {
        let mut c = fault_experiment(SchemeConfig::ShortestPath, 7, 0.0);
        c.workload = WorkloadConfig::small(200, 150.0);
        c.sim.deadline = Some(SimDuration::from_millis(5));
        c
    };

    let mut lockstep = base();
    lockstep.sim.queueing = QueueingMode::Lockstep;
    let ls = lockstep.run().expect("lockstep runs");

    let mut queueing = base();
    queueing.sim.queueing = QueueingMode::PerChannelFifo(QueueConfig::default());
    let qs = queueing.run().expect("queueing runs");

    for (mode, r) in [("lockstep", &ls), ("queueing", &qs)] {
        assert_eq!(r.completed_payments, 0, "{mode}: nothing can settle");
        assert!(
            r.units_locked > 0,
            "{mode}: units must lock before expiring"
        );
        assert!(
            r.drops_by_reason.expired > 0,
            "{mode}: in-flight expiry must be counted"
        );
        assert!(r.delivered_volume.is_zero(), "{mode}: no volume delivered");
    }
    // In lockstep every locked unit holds its whole path until the settle
    // fires, so each one must show up as exactly one expired refund.
    assert_eq!(ls.drops_by_reason.expired, ls.units_locked);
}
