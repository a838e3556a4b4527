//! The one perturbation interface, `Simulation::install`: a
//! zero-intensity plan of each kind — churn, faults, overload griefing —
//! is observationally invisible. Its report equals the no-plan run's in
//! every field but the profiler's wall-clock stats, in both engine modes
//! (the bit-identity the determinism goldens pin for `None`). Each kind's
//! integration test file runs [`zero_intensity_changes_nothing`] for its
//! own kind.

use serde_json::Value;
use spider_core::{execute, ExperimentConfig, SchemeConfig, TopologyConfig};
use spider_dynamics::{ChurnSchedule, DynamicsConfig};
use spider_faults::{FaultConfig, FaultPlan};
use spider_overload::{OverloadConfig, OverloadPlan};
use spider_sim::{Perturbation, SimConfig, SimReport, Simulation, WorkloadConfig};
use spider_types::{DetRng, Result, SimDuration};

const SECS: f64 = 5.0;

/// A kind of perturbation plan.
#[derive(Debug, Clone, Copy)]
pub enum PlanKind {
    Churn,
    Faults,
    Overload,
}

impl PlanKind {
    fn name(self) -> &'static str {
        match self {
            PlanKind::Churn => "churn",
            PlanKind::Faults => "faults",
            PlanKind::Overload => "overload",
        }
    }

    /// A plan of this kind for `sim`'s topology, scaled to nothing.
    fn quiet(self, sim: &Simulation, rng: &mut DetRng) -> Result<Perturbation> {
        let topo = sim.topology();
        Ok(match self {
            PlanKind::Churn => {
                let cfg = DynamicsConfig {
                    horizon_secs: SECS,
                    ..DynamicsConfig::default()
                };
                Perturbation::Churn(ChurnSchedule::generate(topo, &cfg.scaled(0.0), rng)?.events)
            }
            PlanKind::Faults => {
                let cfg = FaultConfig {
                    horizon_secs: SECS,
                    ..FaultConfig::default()
                };
                Perturbation::Faults(FaultPlan::generate(topo, &cfg.scaled(0.0), rng)?)
            }
            PlanKind::Overload => {
                let cfg = OverloadConfig {
                    horizon_secs: SECS,
                    // Its workload transforms are the caller's; only
                    // griefing is installed.
                    flash_crowd: None,
                    ..OverloadConfig::default()
                };
                Perturbation::Overload(OverloadPlan::generate(topo, &cfg.scaled(0.0), rng)?)
            }
        })
    }

    /// The counters only a plan of this kind moves (griefing drops are
    /// hop timeouts).
    fn own_counters(self, r: &SimReport) -> Vec<u64> {
        match self {
            PlanKind::Churn => vec![
                r.topology_events,
                r.churn_channels_closed,
                r.churn_channels_opened,
                r.churn_channels_resized,
                r.units_dropped_churn,
                r.payments_failed_churn,
                r.topology_event_times_s.len() as u64,
            ],
            PlanKind::Faults => vec![r.fault_events, r.faults_injected, r.units_dropped_fault],
            PlanKind::Overload => vec![r.drops_by_reason.hop_timeout],
        }
    }
}

fn fields(r: &SimReport) -> Vec<(String, Value)> {
    match serde_json::to_value(r) {
        Ok(Value::Object(fields)) => fields,
        other => panic!("a report serializes to an object: {other:?}"),
    }
}

/// Installs a zero-intensity plan of `kind` through `Simulation::install`
/// under `ShortestPath` (lockstep) and the §5 protocol (hop by hop), and
/// asserts that every report field but `profile` equals the no-plan
/// run's and that the kind's own counters stay zero.
pub fn zero_intensity_changes_nothing(kind: PlanKind) -> Result<()> {
    for scheme in [SchemeConfig::ShortestPath, SchemeConfig::spider_protocol(4)] {
        let cfg = ExperimentConfig {
            topology: TopologyConfig::Isp {
                capacity_xrp: 2_000,
            },
            workload: WorkloadConfig::small(500, 150.0),
            sim: SimConfig {
                horizon: SimDuration::from_secs_f64(SECS),
                ..SimConfig::default()
            },
            scheme,
            seed: 5,
            ..ExperimentConfig::default()
        };
        let plain = fields(&cfg.run()?);
        let mut sim = cfg.simulation(None)?;
        let quiet = kind.quiet(&sim, &mut DetRng::new(cfg.seed).fork(kind.name()))?;
        sim.install(quiet)?;
        let report = execute(sim).report;
        let name = format!("{} with a quiet {} plan", scheme.name(), kind.name());
        let own = kind.own_counters(&report);
        assert!(own.iter().all(|&n| n == 0), "{name}: {own:?}");
        let quiet = fields(&report);
        assert_eq!(quiet.len(), plain.len(), "{name}");
        for ((key, got), (_, want)) in quiet.iter().zip(&plain) {
            if key != "profile" {
                assert!(got == want, "{name}: {key} moved: {got:?} vs {want:?}");
            }
        }
    }
    Ok(())
}
