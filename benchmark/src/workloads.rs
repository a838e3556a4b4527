//! The four benchmark workloads. Names are fixed: later issues cite them.
//!
//! Each is an ordinary [`ExperimentConfig`] — what a user would hand to
//! `ExperimentConfig::run()` — plus how the harness feeds arrivals. The
//! simulated size is part of a workload's definition; only `--smoke`
//! (tests) shrinks it.
//!
//! `--seed` draws the *traffic* (arrival times, pairs, sizes). The network
//! and its perturbation plans (topology, churn schedule, fault and
//! overload plans) are the scenario, drawn from [`SCENARIO_SEED`]: a few
//! discrete draws there — which node crashes, which pairs run hot, how
//! many channels open — move the outcome by 15–20 % from seed to seed,
//! where 10⁴–10⁵ arrivals average out to 1–2 %. With the traffic seed
//! equal to the scenario seed a repetition is exactly
//! `ExperimentConfig::run()`.

use spider_core::{ExperimentConfig, SchemeConfig, TopologyConfig};
use spider_dynamics::DynamicsConfig;
use spider_faults::FaultConfig;
use spider_overload::{
    DrainConfig, FlashCrowdConfig, GriefingConfig, HotPairsConfig, OverloadConfig,
};
use spider_routing::PathPolicy;
use spider_sim::{
    AdmissionConfig, QueueConfig, QueueingMode, SimConfig, SizeDistribution, WorkloadConfig,
};
use spider_topology::gen::RIPPLE_NODES;
use spider_types::{Amount, DetRng, SimDuration};

/// One workload: the experiment and how the harness drives it.
#[derive(Debug, Clone)]
pub struct WorkloadDef {
    /// Fixed name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// The experiment, exactly as `ExperimentConfig::run()` would run it;
    /// `cfg.seed` is [`SCENARIO_SEED`].
    pub cfg: ExperimentConfig,
    /// Seeds the `workload` fork the arrivals are drawn from (`--seed`).
    pub traffic_seed: u64,
    /// Feed the engine a lazy `StreamingWorkload` (the paper-scale rows of
    /// `engine_throughput`) instead of the materialized list. Outcomes are
    /// identical either way; the calendar and heap footprint are not.
    pub streaming: bool,
    /// The candidate-set policy the scheme's `PathCache` runs with, for
    /// the isolated path-layer replays.
    pub policy: PathPolicy,
}

impl WorkloadDef {
    /// The stream the arrivals are drawn from: the `workload` fork
    /// `ExperimentConfig::run()` uses, of the traffic seed.
    pub fn traffic_rng(&self) -> DetRng {
        DetRng::new(self.traffic_seed).fork("workload")
    }
}

/// Every workload name, in `BENCHMARK.json` order.
pub const NAMES: [&str; 4] = [
    "ripple-lockstep-shortest",
    "ripple-fifo-protocol",
    "ripple1k-churn-waterfilling",
    "isp-stress-observed",
];

/// Why each workload exists, index-aligned with [`NAMES`] (`BENCHMARK.json`'s `why`).
pub const WORKLOAD_WHY: [&str; 4] = [
    "Full Ripple, 200 s, lockstep shortest-path: routing/lock retries dominate (96.7% of unit locks fail); path layer is one cached path per pair.",
    "Full Ripple, 120 s, hop-by-hop FIFO queues under the k=4 protocol: forwarding, calendar and sampling dominate; k=4 prewarm is a third of CPU; no lockstep retries.",
    "1000-node Ripple-like under churn with waterfilling: the path cache is written, not read - every channel open refills the whole cache (churn_repair is ~98% of phase time).",
    "32-node ISP, overload attack + faults + admission shaping with every obs sink on and rendered: the only workload that pays for sinks and the fault/overload branches; path layer negligible.",
];

/// The seed every scenario (topology and perturbation plans) is drawn from.
pub const SCENARIO_SEED: u64 = 42;

/// The paper's Ripple arrival rate: 75,000 transactions over 85 s.
const RIPPLE_RATE: f64 = 75_000.0 / 85.0;

/// The Ripple-like experiment of `spider_bench::ripple_experiment`, at
/// `nodes` nodes, driven for `secs` simulated seconds.
fn ripple(nodes: usize, capacity_xrp: u64, secs: f64) -> ExperimentConfig {
    let count = (secs * RIPPLE_RATE) as usize;
    ExperimentConfig {
        topology: TopologyConfig::RippleLike {
            nodes,
            capacity_xrp,
        },
        workload: WorkloadConfig {
            count,
            rate_per_sec: RIPPLE_RATE,
            size: SizeDistribution::RippleFull,
            sender_skew_scale: nodes as f64 / 8.0,
        },
        sim: SimConfig {
            horizon: SimDuration::from_secs_f64(count as f64 / RIPPLE_RATE + 1.0),
            mtu: Amount::from_xrp(20),
            ..SimConfig::default()
        },
        scheme: SchemeConfig::ShortestPath,
        dynamics: None,
        faults: None,
        overload: None,
        seed: SCENARIO_SEED,
    }
}

/// `churn_resilience`'s 1× schedule (its `base_dynamics`).
fn base_dynamics(horizon_secs: f64) -> DynamicsConfig {
    DynamicsConfig {
        close_rate_per_sec: 0.4,
        reopen_mean_secs: Some(3.0),
        resize_rate_per_sec: 0.2,
        resize_factor_range: [0.5, 2.0],
        node_leave_rate_per_sec: 0.04,
        spawn_fraction: 0.04,
        flap_channels: 2,
        flap_period_secs: 5.0,
        horizon_secs,
    }
}

/// `overload_resilience`'s adversarial plan (its `attack`), pinned to the
/// arrival span.
fn attack(span_secs: f64) -> OverloadConfig {
    OverloadConfig {
        flash_crowd: Some(FlashCrowdConfig {
            start_secs: span_secs * 0.3,
            duration_secs: span_secs * 0.1,
            rate_multiplier: 2.0,
        }),
        hot_pairs: Some(HotPairsConfig::default()),
        drain: Some(DrainConfig::default()),
        griefing: Some(GriefingConfig {
            fraction: 0.05,
            hold_secs: 5.0,
        }),
        horizon_secs: span_secs,
    }
}

/// The ISP stress run: `overload_resilience`'s protected posture under
/// its attack, default faults, every observability sink on.
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
        overload: Some(attack(secs)),
        seed: SCENARIO_SEED,
    }
}

/// The workload called `name` with its traffic drawn from `seed`, or
/// `None` for an unknown name.
/// `smoke` shrinks every size to a seconds-long pass for tests; smoke
/// numbers mean nothing.
pub fn workload(name: &str, seed: u64, smoke: bool) -> Option<WorkloadDef> {
    let ripple_nodes = if smoke { 120 } else { RIPPLE_NODES };
    let def = match name {
        "ripple-lockstep-shortest" => WorkloadDef {
            name: NAMES[0],
            cfg: ripple(ripple_nodes, 30_000, if smoke { 1.0 } else { 200.0 }),
            traffic_seed: seed,
            streaming: true,
            policy: PathPolicy::Shortest,
        },
        "ripple-fifo-protocol" => {
            let mut cfg = ripple(ripple_nodes, 30_000, if smoke { 1.0 } else { 120.0 });
            cfg.scheme = SchemeConfig::spider_protocol(4);
            cfg.sim.queueing = QueueingMode::PerChannelFifo(QueueConfig::default());
            WorkloadDef {
                name: NAMES[1],
                cfg,
                traffic_seed: seed,
                streaming: true,
                policy: PathPolicy::EdgeDisjoint(4),
            }
        }
        "ripple1k-churn-waterfilling" => {
            let nodes = if smoke { 120 } else { 1_000 };
            let mut cfg = ripple(nodes, 4_000, if smoke { 1.0 } else { 15.0 });
            cfg.scheme = SchemeConfig::SpiderWaterfilling { paths: 4 };
            // Smoke keeps the 16 s schedule density at 1× over its 2 s
            // horizon, so the handful of events churn repair needs exist.
            let (horizon, intensity) = (
                cfg.sim.horizon.as_secs_f64(),
                if smoke { 1.0 } else { 0.25 },
            );
            cfg.dynamics = Some(base_dynamics(horizon).scaled(intensity));
            WorkloadDef {
                name: NAMES[2],
                cfg,
                traffic_seed: seed,
                streaming: false,
                policy: PathPolicy::EdgeDisjoint(4),
            }
        }
        "isp-stress-observed" => WorkloadDef {
            name: NAMES[3],
            cfg: isp_stress(if smoke { 1.0 } else { 60.0 }),
            traffic_seed: seed,
            streaming: false,
            policy: PathPolicy::EdgeDisjoint(4),
        },
        _ => return None,
    };
    Some(def)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_scale_sizes_are_the_stated_ones() {
        let counts: Vec<usize> = NAMES
            .iter()
            .map(|n| {
                workload(n, 1, false)
                    .expect("known name")
                    .cfg
                    .workload
                    .count
            })
            .collect();
        assert_eq!(counts, [176_470, 105_882, 13_235, 60_000]);
        let isp = workload("isp-stress-observed", 1, false).expect("known name");
        assert_eq!(isp.cfg.sim.horizon, SimDuration::from_secs(66));
        let churn = workload("ripple1k-churn-waterfilling", 1, false).expect("known name");
        assert!((churn.cfg.sim.horizon.as_secs_f64() - 16.0).abs() < 1e-3);
        assert!(workload("no-such-workload", 1, false).is_none());
    }

    #[test]
    fn every_config_validates() {
        for smoke in [false, true] {
            for name in NAMES {
                let def = workload(name, 3, smoke).expect("known name");
                def.cfg.sim.validate().expect("sim config validates");
                if let Some(d) = &def.cfg.dynamics {
                    d.validate().expect("dynamics validate");
                }
                if let Some(f) = &def.cfg.faults {
                    f.validate().expect("faults validate");
                }
                if let Some(o) = &def.cfg.overload {
                    o.validate().expect("overload validates");
                }
            }
        }
    }
}
