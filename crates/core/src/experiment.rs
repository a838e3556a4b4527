//! Declarative experiments: topology + workload + scheme + seed → report.

use crate::scheme::SchemeConfig;
use spider_dynamics::{ChurnSchedule, DynamicsConfig};
use spider_faults::{FaultConfig, FaultPlan};
use spider_overload::{OverloadConfig, OverloadPlan};
use spider_paygraph::PaymentGraph;
use spider_sim::{Perturbation, SimConfig, SimReport, Simulation, Workload, WorkloadConfig};
use spider_topology::{analysis, gen, Topology};
use spider_types::{Amount, DetRng, Result, SimTime, SpiderError, DROPS_PER_XRP};

/// Topology selection for an experiment.
#[derive(Debug, Clone, PartialEq)]
pub enum TopologyConfig {
    /// The deterministic 32-node / 152-edge ISP-like graph of §6.1.
    Isp {
        /// Uniform per-channel capacity (XRP).
        capacity_xrp: u64,
    },
    /// A Ripple-like scale-free graph (§6.1 substitution — see
    /// "Reproducing the paper" in the README).
    RippleLike {
        /// Node count (3,774 reproduces the paper's scale).
        nodes: usize,
        /// Uniform per-channel capacity (XRP).
        capacity_xrp: u64,
    },
    /// The 5-node §5.1 example topology.
    PaperExample {
        /// Uniform per-channel capacity (XRP).
        capacity_xrp: u64,
    },
    /// Watts–Strogatz small world.
    SmallWorld {
        /// Node count.
        nodes: usize,
        /// Even lattice degree.
        k: usize,
        /// Rewiring probability.
        beta: f64,
        /// Uniform per-channel capacity (XRP).
        capacity_xrp: u64,
    },
    /// Barabási–Albert scale-free graph.
    ScaleFree {
        /// Node count.
        nodes: usize,
        /// Attachment edges per node.
        m: usize,
        /// Uniform per-channel capacity (XRP).
        capacity_xrp: u64,
    },
    /// A topology in the `spider-topology` text format.
    Text {
        /// The serialized topology.
        text: String,
    },
}

impl TopologyConfig {
    /// Materializes the topology. Random families draw from the `topology`
    /// fork of the experiment RNG, so the same seed always yields the same
    /// graph.
    pub fn build(&self, rng: &DetRng) -> Result<Topology> {
        self.check_generator()?;
        let mut trng = rng.fork("topology");
        let topo = match self {
            TopologyConfig::Isp { capacity_xrp } => {
                gen::isp_topology(Amount::from_xrp(*capacity_xrp))
            }
            TopologyConfig::RippleLike {
                nodes,
                capacity_xrp,
            } => {
                let raw = gen::ripple_like(*nodes, Amount::from_xrp(*capacity_xrp), &mut trng);
                analysis::largest_component(&raw)
            }
            TopologyConfig::PaperExample { capacity_xrp } => {
                gen::paper_example_topology(Amount::from_xrp(*capacity_xrp))
            }
            TopologyConfig::SmallWorld {
                nodes,
                k,
                beta,
                capacity_xrp,
            } => {
                let raw = gen::watts_strogatz(
                    *nodes,
                    *k,
                    *beta,
                    Amount::from_xrp(*capacity_xrp),
                    &mut trng,
                );
                analysis::largest_component(&raw)
            }
            TopologyConfig::ScaleFree {
                nodes,
                m,
                capacity_xrp,
            } => gen::barabasi_albert(*nodes, *m, Amount::from_xrp(*capacity_xrp), &mut trng),
            TopologyConfig::Text { text } => spider_topology::io::from_text(text)?,
        };
        if topo.node_count() < 2 {
            return Err(SpiderError::InvalidConfig(
                "topology has fewer than 2 nodes".into(),
            ));
        }
        Ok(topo)
    }

    /// The preconditions the random generators assert on, and a capacity
    /// bound: channel balances are read as signed amounts, so no capacity
    /// may exceed `i64::MAX` drops.
    fn check_generator(&self) -> Result<()> {
        let invalid = |msg: &str| Err(SpiderError::InvalidConfig(msg.into()));
        let capacity_xrp = match *self {
            TopologyConfig::Isp { capacity_xrp }
            | TopologyConfig::RippleLike { capacity_xrp, .. }
            | TopologyConfig::PaperExample { capacity_xrp }
            | TopologyConfig::SmallWorld { capacity_xrp, .. }
            | TopologyConfig::ScaleFree { capacity_xrp, .. } => Some(capacity_xrp),
            TopologyConfig::Text { .. } => None,
        };
        if capacity_xrp.is_some_and(|c| c > i64::MAX as u64 / DROPS_PER_XRP) {
            return invalid("a channel capacity may not exceed i64::MAX drops");
        }
        match *self {
            TopologyConfig::RippleLike { nodes, .. } if nodes < 8 => {
                invalid("a Ripple-like graph needs at least 8 nodes")
            }
            TopologyConfig::SmallWorld { nodes, k, beta, .. } => {
                if !(k >= 2 && k.is_multiple_of(2) && k < nodes) {
                    invalid("a small world needs an even k >= 2 below the node count")
                } else if !(0.0..=1.0).contains(&beta) {
                    invalid("a small world's beta must be in [0, 1]")
                } else {
                    Ok(())
                }
            }
            TopologyConfig::ScaleFree { nodes, m, .. } if !(m >= 1 && nodes > m) => {
                invalid("a scale-free graph needs m >= 1 and more nodes than m")
            }
            _ => Ok(()),
        }
    }
}

/// A complete experiment description.
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// The network.
    pub topology: TopologyConfig,
    /// The transaction workload.
    pub workload: WorkloadConfig,
    /// Engine parameters (Δ, MTU, polling, deadline, horizon…).
    pub sim: SimConfig,
    /// The routing scheme under test.
    pub scheme: SchemeConfig,
    /// Optional topology churn: a deterministic schedule of channel
    /// open/close/resize and node leave/join events generated from this
    /// config (via the `dynamics` fork of the experiment RNG) and applied
    /// mid-run. `None` = the paper's frozen-snapshot evaluation.
    pub dynamics: Option<DynamicsConfig>,
    /// Optional fault injection: a deterministic plan of message/ack
    /// loss, latency jitter, stuck units and node crash windows generated
    /// from this config (via the `faults` fork of the experiment RNG) and
    /// applied during the run. `None` = today's fault-free evaluation,
    /// bit-identical to builds without the fault subsystem.
    pub faults: Option<FaultConfig>,
    /// Optional adversarial overload: a deterministic plan of flash-crowd
    /// rate spikes, Zipf-skewed hot-pair redirects, liquidity-draining
    /// flows and griefing payments generated from this config (via the
    /// `overload` fork of the experiment RNG). The plan's workload
    /// transform is applied to the materialized transactions *after*
    /// demand estimation (the offline schemes plan for normal traffic;
    /// the attack is a surprise), and its griefing stream is installed
    /// into the engine. `None` = overload-free, bit-identical to builds
    /// without the overload subsystem.
    pub overload: Option<OverloadConfig>,
    /// Master seed; every random choice derives from it.
    pub seed: u64,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        ExperimentConfig {
            topology: TopologyConfig::Isp {
                capacity_xrp: 30_000,
            },
            workload: WorkloadConfig::small(1_000, 200.0),
            sim: SimConfig::default(),
            scheme: SchemeConfig::SpiderWaterfilling { paths: 4 },
            dynamics: None,
            faults: None,
            overload: None,
            seed: 0,
        }
    }
}

impl ExperimentConfig {
    /// The engine configuration actually used: `SpiderProtocol` needs the
    /// §5 queues for its feedback loop to close, so selecting it with
    /// queueing left at `Lockstep` auto-enables the default
    /// `PerChannelFifo` parameters.
    pub fn effective_sim(&self) -> SimConfig {
        let mut sim = self.sim.clone();
        if matches!(self.scheme, SchemeConfig::SpiderProtocol { .. })
            && matches!(sim.queueing, spider_sim::QueueingMode::Lockstep)
        {
            sim.queueing =
                spider_sim::QueueingMode::PerChannelFifo(spider_sim::QueueConfig::default());
        }
        sim
    }

    /// Builds the ready-to-run [`Simulation`]: topology, workload, demand
    /// matrix (estimated before the overload transform — the offline
    /// schemes plan for normal traffic; the attack is a surprise), router,
    /// and the churn / fault / overload plans installed. Every plan draws
    /// from its own fork of the experiment RNG, so none perturbs another's
    /// draws.
    ///
    /// `router: None` instantiates [`ExperimentConfig::scheme`] from the
    /// registry and runs it under [`ExperimentConfig::effective_sim`];
    /// `Some` runs a caller-built router (a scheme outside the registry,
    /// e.g. the AIMD [`Windowed`](crate::congestion::Windowed) wrapper)
    /// under `self.sim` verbatim, ignoring the `scheme` field.
    ///
    /// Simulations start with warm candidate caches: the engine hands the
    /// workload's distinct (src, dst) pairs to
    /// [`Router::prewarm`](spider_sim::Router::prewarm), and the
    /// source-routed schemes batch-fill their per-pair path sets through
    /// `spider_routing::PathCache::prefill`.
    pub fn simulation(&self, router: Option<Box<dyn spider_sim::Router>>) -> Result<Simulation> {
        let rng = DetRng::new(self.seed);
        let topo = self.topology.build(&rng)?;
        self.workload.validate()?;
        let mut wrng = rng.fork("workload");
        let mut workload = Workload::generate(topo.node_count(), &self.workload, &mut wrng);
        let (router, sim_cfg) = match router {
            Some(router) => (router, self.sim.clone()),
            None => {
                self.scheme.validate()?;
                let demands = demand_graph(&workload, topo.node_count());
                let delta = self.sim.confirmation_delay.as_secs_f64();
                (
                    self.scheme.build(&topo, &demands, delta),
                    self.effective_sim(),
                )
            }
        };
        let overload = self.apply_overload(&rng, &topo, &mut workload)?;
        let mut sim = Simulation::new(topo, workload, router, sim_cfg)?;
        if let Some(cfg) = &self.dynamics {
            let schedule = ChurnSchedule::generate(sim.topology(), cfg, &mut rng.fork("dynamics"))?;
            sim.install(Perturbation::Churn(schedule.events))?;
        }
        if let Some(cfg) = &self.faults {
            let plan = FaultPlan::generate(sim.topology(), cfg, &mut rng.fork("faults"))?;
            sim.install(Perturbation::Faults(plan))?;
        }
        if let Some(plan) = overload {
            sim.install(Perturbation::Overload(plan))?;
        }
        Ok(sim)
    }

    /// Runs the experiment end to end and returns the report:
    /// [`execute`] over [`ExperimentConfig::simulation`] with the
    /// registry scheme, artifacts dropped.
    pub fn run(&self) -> Result<SimReport> {
        Ok(execute(self.simulation(None)?).report)
    }

    /// Generates the overload plan (when configured) and applies its
    /// workload transform in place: the flash-crowd time warp compresses
    /// arrival times (monotonically, preserving order) and the hot-pair /
    /// drain redirects rewrite (src, dst) with draws from the plan's
    /// dedicated transform stream. Returns the plan so the caller can
    /// [`Simulation::install`] its runtime (griefing) half.
    fn apply_overload(
        &self,
        rng: &DetRng,
        topo: &Topology,
        workload: &mut Workload,
    ) -> Result<Option<OverloadPlan>> {
        let Some(cfg) = &self.overload else {
            return Ok(None);
        };
        let mut orng = rng.fork("overload");
        let plan = OverloadPlan::generate(topo, cfg, &mut orng)?;
        let mut trng = DetRng::new(plan.transform_seed);
        for txn in &mut workload.txns {
            txn.time = SimTime::from_secs_f64(plan.warp_secs(txn.time.as_secs_f64()));
            let (src, dst) = plan.transform_pair(txn.src, txn.dst, &mut trng);
            txn.src = src;
            txn.dst = dst;
        }
        Ok(Some(plan))
    }

    /// Runs several schemes on the *identical* topology and workload (same
    /// seed), in parallel, returning reports in scheme order.
    pub fn run_schemes(&self, schemes: &[SchemeConfig]) -> Result<Vec<SimReport>> {
        let jobs: Vec<SweepJob> = schemes
            .iter()
            .map(|&scheme| {
                SweepJob::Scheme(ExperimentConfig {
                    scheme,
                    ..self.clone()
                })
            })
            .collect();
        run_sweep(&jobs)
    }
}

/// What [`execute`] hands back: the report, plus each observability
/// artifact the simulation's [`ObsConfig`](spider_sim::ObsConfig) asked
/// for (`None` when the sink was off).
#[derive(Debug)]
pub struct RunOutput {
    /// The run's aggregate metrics.
    pub report: SimReport,
    /// The sealed payment-lifecycle trace (`obs.trace`).
    pub trace: Option<spider_sim::Trace>,
    /// The drop-forensics flight recorder (`obs.forensics_capacity > 0`).
    pub forensics: Option<spider_sim::FlightRecorder>,
    /// The runtime invariant monitor's report (`obs.invariants_every > 0`).
    pub invariants: Option<spider_sim::InvariantReport>,
}

/// Runs a built simulation to its horizon, asserts per-channel fund
/// conservation, and collects the artifacts. The sinks observe without
/// touching event order, so the report is the same whichever are on.
pub fn execute(mut sim: Simulation) -> RunOutput {
    let report = sim.run();
    sim.check_conservation();
    RunOutput {
        report,
        trace: sim.take_trace(),
        forensics: sim.take_forensics(),
        invariants: sim.take_invariant_report(),
    }
}

/// One unit of work for [`run_sweep`].
pub enum SweepJob {
    /// Run the config's scheme through the [`SchemeConfig`] registry.
    Scheme(ExperimentConfig),
    /// Run the config against a caller-built router (e.g. the
    /// [`Windowed`](crate::congestion::Windowed) wrapper). The router is
    /// constructed *inside* the worker thread, so the factory — not the
    /// router — must be `Send + Sync`.
    Custom {
        /// Topology, workload, engine parameters and seed (the `scheme`
        /// field is ignored).
        cfg: ExperimentConfig,
        /// Builds the router on the worker thread.
        build: Box<dyn Fn() -> Box<dyn spider_sim::Router> + Send + Sync>,
    },
}

impl SweepJob {
    fn run(&self) -> Result<SimReport> {
        match self {
            SweepJob::Scheme(cfg) => cfg.run(),
            SweepJob::Custom { cfg, build } => Ok(execute(cfg.simulation(Some(build()))?).report),
        }
    }
}

/// Runs a batch of experiment jobs across `std::thread::scope` workers —
/// one per available core, capped by the job count — pulling from a
/// shared atomic work queue. Results come back in job order, so callers
/// can zip them against their grid. Every job is seeded independently;
/// scheduling order cannot affect results.
///
/// This is the fan-out engine behind `spider-bench`'s figures: a whole
/// (parameter × topology × scheme) grid saturates the machine
/// instead of running one batch of schemes at a time.
pub fn run_sweep(jobs: &[SweepJob]) -> Result<Vec<SimReport>> {
    let n = jobs.len();
    if n == 0 {
        return Ok(Vec::new());
    }
    let workers = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
        .min(n);
    let next = std::sync::atomic::AtomicUsize::new(0);
    let mut out: Vec<Option<Result<SimReport>>> = (0..n).map(|_| None).collect();
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for _ in 0..workers {
            let next = &next;
            handles.push(scope.spawn(move || {
                let mut local = Vec::new();
                loop {
                    let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    local.push((i, jobs[i].run()));
                }
                local
            }));
        }
        for h in handles {
            for (i, r) in h.join().expect("sweep worker panicked") {
                out[i] = Some(r);
            }
        }
    });
    out.into_iter().map(|r| r.expect("every job ran")).collect()
}

/// Converts a workload into the long-term demand matrix (XRP/s) that
/// Spider (LP) optimizes against: each pair's volume, summed in arrival
/// order, over the span of the arrivals.
pub fn demand_graph(workload: &Workload, n_nodes: usize) -> PaymentGraph {
    let secs = workload.duration().as_secs_f64().max(1e-9);
    let mut volume = std::collections::BTreeMap::new();
    for t in &workload.txns {
        *volume.entry((t.src, t.dst)).or_insert(0.0) += t.amount.as_xrp();
    }
    let mut g = PaymentGraph::new(n_nodes);
    for ((src, dst), xrp) in volume {
        let rate = xrp / secs;
        if rate > 0.0 {
            g.add_demand(src, dst, rate);
        }
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use spider_overload::{FlashCrowdConfig, GriefingConfig};
    use spider_sim::{AdmissionConfig, QueueConfig, QueueingMode};
    use spider_types::SimDuration;

    fn quick_sim() -> SimConfig {
        SimConfig {
            horizon: SimDuration::from_secs(20),
            ..SimConfig::default()
        }
    }

    #[test]
    fn runs_end_to_end_on_paper_example() {
        let report = ExperimentConfig {
            topology: TopologyConfig::PaperExample {
                capacity_xrp: 1_000,
            },
            workload: WorkloadConfig::small(300, 100.0),
            sim: quick_sim(),
            scheme: SchemeConfig::SpiderWaterfilling { paths: 4 },
            dynamics: None,
            faults: None,
            overload: None,
            seed: 1,
        }
        .run()
        .unwrap();
        assert_eq!(report.attempted_payments, 300);
        assert!(
            report.success_ratio() > 0.5,
            "ratio {}",
            report.success_ratio()
        );
    }

    #[test]
    fn same_seed_same_report() {
        let cfg = ExperimentConfig {
            topology: TopologyConfig::ScaleFree {
                nodes: 30,
                m: 2,
                capacity_xrp: 500,
            },
            workload: WorkloadConfig::small(300, 150.0),
            sim: quick_sim(),
            scheme: SchemeConfig::ShortestPath,
            dynamics: None,
            faults: None,
            overload: None,
            seed: 9,
        };
        let a = cfg.run().unwrap();
        let b = cfg.run().unwrap();
        assert_eq!(a.completed_payments, b.completed_payments);
        assert_eq!(a.delivered_volume, b.delivered_volume);
    }

    #[test]
    fn different_seed_changes_workload() {
        let workload = WorkloadConfig {
            size: spider_sim::SizeDistribution::RippleIsp,
            ..WorkloadConfig::small(300, 150.0)
        };
        let base = ExperimentConfig {
            topology: TopologyConfig::Isp {
                capacity_xrp: 1_000,
            },
            workload,
            sim: quick_sim(),
            scheme: SchemeConfig::ShortestPath,
            dynamics: None,
            faults: None,
            overload: None,
            seed: 1,
        };
        let a = base.run().unwrap();
        let b = ExperimentConfig { seed: 2, ..base }.run().unwrap();
        assert_ne!(a.attempted_volume, b.attempted_volume);
        assert_ne!(a.delivered_volume, b.delivered_volume);
    }

    #[test]
    fn scheme_sweep_shares_workload() {
        let cfg = ExperimentConfig {
            topology: TopologyConfig::Isp {
                capacity_xrp: 2_000,
            },
            workload: WorkloadConfig::small(200, 100.0),
            sim: quick_sim(),
            scheme: SchemeConfig::ShortestPath,
            dynamics: None,
            faults: None,
            overload: None,
            seed: 5,
        };
        let reports = cfg
            .run_schemes(&[
                SchemeConfig::ShortestPath,
                SchemeConfig::SpiderWaterfilling { paths: 4 },
            ])
            .unwrap();
        assert_eq!(reports.len(), 2);
        // Identical workloads → identical attempted volume.
        assert_eq!(reports[0].attempted_volume, reports[1].attempted_volume);
        assert_eq!(reports[0].scheme, "shortest-path");
        assert_eq!(reports[1].scheme, "spider-waterfilling");
    }

    #[test]
    fn run_sweep_preserves_job_order_and_determinism() {
        let base = ExperimentConfig {
            topology: TopologyConfig::Isp {
                capacity_xrp: 2_000,
            },
            workload: WorkloadConfig::small(200, 100.0),
            sim: quick_sim(),
            scheme: SchemeConfig::ShortestPath,
            dynamics: None,
            faults: None,
            overload: None,
            seed: 0,
        };
        let seeds = [3u64, 11];
        let schemes = [
            SchemeConfig::ShortestPath,
            SchemeConfig::SpiderWaterfilling { paths: 4 },
        ];
        // Seed-major: seed `s`, scheme `c` lands at `s * schemes.len() + c`.
        let jobs: Vec<SweepJob> = seeds
            .iter()
            .flat_map(|&seed| {
                let base = &base;
                schemes.iter().map(move |&scheme| {
                    SweepJob::Scheme(ExperimentConfig {
                        seed,
                        scheme,
                        ..base.clone()
                    })
                })
            })
            .collect();
        assert_eq!(jobs.len(), 4);
        let swept = run_sweep(&jobs).unwrap();
        // Same grid run sequentially must match the parallel sweep
        // element-wise (worker scheduling cannot leak into results).
        for (i, report) in swept.iter().enumerate() {
            let (seed, scheme) = (seeds[i / schemes.len()], schemes[i % schemes.len()]);
            let solo = ExperimentConfig {
                seed,
                scheme,
                ..base.clone()
            }
            .run()
            .unwrap();
            assert_eq!(report.scheme, solo.scheme);
            assert_eq!(report.completed_payments, solo.completed_payments);
            assert_eq!(report.delivered_volume, solo.delivered_volume);
        }
        // Custom jobs run the caller's router.
        let custom = run_sweep(&[SweepJob::Custom {
            cfg: base.clone(),
            build: Box::new(|| {
                Box::new(crate::congestion::Windowed::new(
                    spider_routing::ShortestPath::new(),
                    crate::congestion::WindowConfig::default(),
                ))
            }),
        }])
        .unwrap();
        assert_eq!(custom.len(), 1);
        assert_eq!(custom[0].scheme, "shortest-path");
    }

    /// Each artifact is `Some` exactly when its `sim.obs` field asked for
    /// it, and no sink moves the report: every sink on, every sink off and
    /// `run()` serialize identically, apart from what three sinks add by
    /// design — attribution's hotspot table (non-empty, score-descending),
    /// the profiler's wall-clock stats and the queue-depth series. The
    /// profiler's sampling draw is its own stream, never a simulation one.
    #[test]
    fn artifacts_follow_obs_and_never_move_the_report() -> Result<()> {
        let base = |scheme| ExperimentConfig {
            topology: TopologyConfig::Isp {
                capacity_xrp: 1_000,
            },
            workload: WorkloadConfig::small(400, 200.0),
            sim: quick_sim(),
            scheme,
            seed: 13,
            ..ExperimentConfig::default()
        };
        let lockstep = base(SchemeConfig::ShortestPath);
        // `effective_sim` switches the §5 queues on for the protocol.
        let queueing = base(SchemeConfig::spider_protocol(4));
        let stressed = ExperimentConfig {
            faults: Some(FaultConfig::default().scaled(5.0)),
            overload: Some(OverloadConfig::default()),
            ..base(SchemeConfig::SpiderWaterfilling { paths: 4 })
        };
        // Every overload protection on (64-unit queues, shedding,
        // admission control), under a flash crowd past the admission rate.
        let mut protected = ExperimentConfig {
            workload: WorkloadConfig::small(600, 2_000.0),
            ..base(SchemeConfig::spider_protocol(4))
        };
        protected.sim.queueing = QueueingMode::PerChannelFifo(QueueConfig {
            max_queue_units: 64,
            ..QueueConfig::default()
        });
        protected.sim.shedding = true;
        protected.sim.admission = Some(AdmissionConfig::default());
        protected.overload = Some(OverloadConfig {
            flash_crowd: Some(FlashCrowdConfig {
                start_secs: 0.1,
                duration_secs: 0.1,
                rate_multiplier: 4.0,
            }),
            horizon_secs: protected.sim.horizon.as_secs_f64(),
            ..OverloadConfig::default()
        });
        let json = |r: &SimReport| serde_json::to_string(r).expect("report serializes");
        for (name, cfg) in [
            ("lockstep", lockstep),
            ("queueing", queueing),
            ("stressed", stressed),
            ("protected", protected),
        ] {
            let report = cfg.run()?;
            assert!(
                cfg.sim.admission.is_none() || report.drops_by_reason.admission_rejected > 0,
                "{name}: admission control never engaged"
            );
            let want = json(&report);
            let queues = !matches!(cfg.effective_sim().queueing, QueueingMode::Lockstep);
            // Bit i of `mask` switches sink i on: none, each alone, all.
            for mask in [0, 1, 2, 4, 8, 16, 32, 0b11_1111] {
                let mut observed = cfg.clone();
                observed.sim.obs.trace = mask & 1 != 0;
                observed.sim.obs.forensics_capacity = if mask & 2 != 0 { 512 } else { 0 };
                observed.sim.obs.invariants_every = if mask & 4 != 0 { 64 } else { 0 };
                observed.sim.obs.attribution = mask & 8 != 0;
                observed.sim.obs.profile = mask & 16 != 0;
                observed.sim.obs.sampler.queue_depths = mask & 32 != 0;
                let mut out = execute(observed.simulation(None)?);
                assert_eq!(out.trace.is_some(), mask & 1 != 0, "{name}: trace");
                assert_eq!(out.forensics.is_some(), mask & 2 != 0, "{name}: forensics");
                assert_eq!(
                    out.invariants.is_some(),
                    mask & 4 != 0,
                    "{name}: invariants"
                );
                if mask & 8 != 0 {
                    let hot = std::mem::take(&mut out.report.hotspots);
                    assert!(!hot.is_empty(), "{name}: attribution found no hotspots");
                    assert!(
                        hot.is_sorted_by(|a, b| a.score >= b.score),
                        "{name}: hotspots not score-descending"
                    );
                }
                let profile = std::mem::take(&mut out.report.profile);
                assert_eq!(profile.enabled, mask & 16 != 0, "{name}: profile");
                assert_eq!(
                    profile.calendar_pop.count > 0,
                    mask & 16 != 0,
                    "{name}: profiler counts"
                );
                let depths = std::mem::take(&mut out.report.samples.queue_depths);
                assert_eq!(
                    !depths.is_empty(),
                    mask & 32 != 0 && queues,
                    "{name}: queue depths"
                );
                assert_eq!(
                    json(&out.report),
                    want,
                    "{name}: sinks {mask:04b} moved the report"
                );
            }
        }
        Ok(())
    }

    #[test]
    fn text_topology_round_trip() {
        let topo = gen::cycle(4, Amount::from_xrp(100));
        let text = spider_topology::io::to_text(&topo);
        let cfg = TopologyConfig::Text { text };
        let built = cfg.build(&DetRng::new(0)).unwrap();
        assert_eq!(built, topo);
    }

    #[test]
    fn invalid_topology_is_rejected() {
        for text in [
            "nodes 1\n",
            "nodes 18446744073709551615\n",
            "nodes 2\nchannel 0 1 18446744073709551615\n",
        ] {
            let cfg = TopologyConfig::Text {
                text: text.to_string(),
            };
            assert!(cfg.build(&DetRng::new(0)).is_err(), "{text}");
        }
    }

    /// Each of these used to panic while the topology or the router was
    /// built, or on the router's first route.
    #[test]
    fn invalid_schemes_and_topologies_are_rejected() {
        use Expect::Rejected;
        let base = ExperimentConfig {
            workload: WorkloadConfig::small(200, 100.0),
            ..Default::default()
        };
        let scheme = |scheme| ExperimentConfig {
            scheme,
            ..base.clone()
        };
        let topology = |topology| ExperimentConfig {
            topology,
            ..base.clone()
        };
        let capacity_xrp = 1_000;
        let small_world = |k, beta| {
            topology(TopologyConfig::SmallWorld {
                nodes: 20,
                k,
                beta,
                capacity_xrp,
            })
        };
        let scale_free = |nodes, m| {
            topology(TopologyConfig::ScaleFree {
                nodes,
                m,
                capacity_xrp,
            })
        };
        let ripple = |nodes| {
            topology(TopologyConfig::RippleLike {
                nodes,
                capacity_xrp,
            })
        };
        let isp = TopologyConfig::Isp {
            capacity_xrp: 18_500_000_000_000,
        };
        check_rows([
            (
                "waterfilling, no paths",
                scheme(SchemeConfig::SpiderWaterfilling { paths: 0 }),
                Rejected,
            ),
            (
                "pricing, no paths",
                scheme(SchemeConfig::SpiderPricing { paths: 0 }),
                Rejected,
            ),
            (
                "protocol, no paths",
                scheme(SchemeConfig::spider_protocol(0)),
                Rejected,
            ),
            // This one ran, and completed nothing.
            (
                "LP, no paths",
                scheme(SchemeConfig::SpiderLp { paths: 0 }),
                Rejected,
            ),
            ("small world, k = 0", small_world(0, 0.1), Rejected),
            ("small world, odd k", small_world(3, 0.1), Rejected),
            ("small world, k > n", small_world(40, 0.1), Rejected),
            ("small world, NaN beta", small_world(4, f64::NAN), Rejected),
            ("scale free, m = 0", scale_free(20, 0), Rejected),
            ("scale free, m > n", scale_free(20, 40), Rejected),
            ("scale free, one node", scale_free(1, 1), Rejected),
            ("ripple, 3 nodes", ripple(3), Rejected),
            ("ripple, no nodes", ripple(0), Rejected),
            ("ISP, capacity overflows", topology(isp), Rejected),
        ]);
    }

    /// Each of these used to panic inside workload generation.
    #[test]
    fn invalid_workload_is_rejected() {
        use Expect::Rejected;
        let ok = WorkloadConfig::small(100, 100.0);
        let workload = |workload| ExperimentConfig {
            workload,
            ..Default::default()
        };
        let log_normal = spider_sim::SizeDistribution::LogNormal {
            mean_xrp: 1.0,
            median_xrp: 2.0,
            cap_xrp: 10.0,
        };
        check_rows([
            (
                "no payments",
                workload(WorkloadConfig::small(0, 100.0)),
                Rejected,
            ),
            (
                "zero rate",
                workload(WorkloadConfig::small(100, 0.0)),
                Rejected,
            ),
            (
                "NaN rate",
                workload(WorkloadConfig::small(100, f64::NAN)),
                Rejected,
            ),
            (
                "zero sender skew",
                workload(WorkloadConfig {
                    sender_skew_scale: 0.0,
                    ..ok.clone()
                }),
                Rejected,
            ),
            (
                "mean under median",
                workload(WorkloadConfig {
                    size: log_normal,
                    ..ok
                }),
                Rejected,
            ),
        ]);
    }

    /// What a row of a rejection table must do.
    #[derive(Clone, Copy)]
    enum Expect {
        /// `run()` fails with `InvalidConfig`.
        Rejected,
        /// It runs, and its report passes this check.
        Runs(fn(&SimReport) -> bool),
    }

    /// A run that only has to finish.
    const RUNS: Expect = Expect::Runs(|_| true);

    /// The longest duration there is: a delay this long passes the end of
    /// simulated time from any instant.
    const NEVER: SimDuration = SimDuration::from_micros(u64::MAX);

    /// Runs each `(name, config, expect)` row of a rejection table. Most
    /// delay rows are the horizon-reach rule, which `SimConfig::validate`
    /// and `Simulation::install` share; the NaN rows are each validator's
    /// own.
    fn check_rows<const N: usize>(table: [(&str, ExperimentConfig, Expect); N]) {
        for (name, cfg, expect) in table {
            let run = cfg.run();
            match expect {
                Expect::Rejected => assert!(
                    matches!(run, Err(SpiderError::InvalidConfig(_))),
                    "{name}: {run:?}"
                ),
                Expect::Runs(check) => {
                    let report = run.unwrap_or_else(|e| panic!("{name}: {e:?}"));
                    assert!(check(&report), "{name}: the report fails its check");
                }
            }
        }
    }

    /// A small default experiment under this fault config.
    fn with_faults(faults: FaultConfig) -> ExperimentConfig {
        ExperimentConfig {
            workload: WorkloadConfig::small(200, 100.0),
            faults: Some(faults),
            ..Default::default()
        }
    }

    /// Each of these passed `validate()` and then panicked while its plan
    /// was generated or applied.
    #[test]
    fn invalid_perturbation_plans_are_rejected() {
        use Expect::Rejected;
        let (inf, nan) = (f64::INFINITY, f64::NAN);
        let base = ExperimentConfig {
            workload: WorkloadConfig::small(200, 100.0),
            ..Default::default()
        };
        let churn = |dynamics| ExperimentConfig {
            dynamics: Some(dynamics),
            ..base.clone()
        };
        let crash = |crash| {
            with_faults(FaultConfig {
                crash: Some(crash),
                ..Default::default()
            })
        };
        let overload = |overload, scheme| ExperimentConfig {
            overload: Some(overload),
            scheme,
            ..base.clone()
        };
        // A griefing hold past the end of time: hop by hop, the final hop
        // armed it and overflowed; in lockstep nothing waits on it, but
        // the rule holds it in every mode.
        let griefing = OverloadConfig {
            griefing: Some(GriefingConfig {
                fraction: 1.0,
                hold_secs: 1e14,
            }),
            flash_crowd: None,
            hot_pairs: None,
            drain: None,
            horizon_secs: 20.0,
        };
        check_rows([
            (
                "close rate",
                churn(DynamicsConfig {
                    close_rate_per_sec: inf,
                    ..Default::default()
                }),
                Rejected,
            ),
            (
                "resize rate",
                churn(DynamicsConfig {
                    resize_rate_per_sec: inf,
                    ..Default::default()
                }),
                Rejected,
            ),
            (
                "leave rate",
                churn(DynamicsConfig {
                    node_leave_rate_per_sec: inf,
                    ..Default::default()
                }),
                Rejected,
            ),
            (
                "NaN reopen mean",
                churn(DynamicsConfig {
                    reopen_mean_secs: Some(nan),
                    ..Default::default()
                }),
                Rejected,
            ),
            (
                "infinite reopen mean",
                churn(DynamicsConfig {
                    reopen_mean_secs: Some(inf),
                    ..Default::default()
                }),
                Rejected,
            ),
            (
                "churn horizon",
                churn(DynamicsConfig {
                    horizon_secs: inf,
                    ..Default::default()
                }),
                Rejected,
            ),
            (
                "flap period",
                churn(DynamicsConfig {
                    flap_period_secs: 1e-12,
                    ..Default::default()
                }),
                Rejected,
            ),
            (
                "crash rate",
                crash(spider_faults::CrashConfig {
                    rate_per_sec: inf,
                    ..Default::default()
                }),
                Rejected,
            ),
            (
                "recovery mean",
                crash(spider_faults::CrashConfig {
                    recovery_mean_secs: Some(nan),
                    ..Default::default()
                }),
                Rejected,
            ),
            (
                "NaN hop timeout",
                with_faults(FaultConfig {
                    hop_timeout_secs: nan,
                    ..Default::default()
                }),
                Rejected,
            ),
            // Lockstep: the hop timeout is checked in every mode.
            (
                "hop timeout past the end of time",
                with_faults(FaultConfig {
                    hop_timeout_secs: 1e14,
                    message_loss_prob: 0.5,
                    ..Default::default()
                }),
                Rejected,
            ),
            (
                "flash-crowd multiplier",
                overload(
                    OverloadConfig {
                        flash_crowd: Some(FlashCrowdConfig {
                            start_secs: 0.0,
                            rate_multiplier: nan,
                            ..Default::default()
                        }),
                        ..Default::default()
                    },
                    base.scheme,
                ),
                Rejected,
            ),
            (
                "griefing hold, hop by hop",
                overload(griefing.clone(), SchemeConfig::spider_protocol(4)),
                Rejected,
            ),
            (
                "griefing hold, lockstep",
                overload(griefing, SchemeConfig::ShortestPath),
                Rejected,
            ),
        ]);
    }

    /// A queue hop delay and a fault spike that each fit on top of the
    /// horizon, but not together: the unit that drew the spike panicked
    /// with a `SimDuration` overflow in `lock_hop`. Hop by hop, the two
    /// are one sum; in lockstep no spike rides on a hop delay.
    #[test]
    fn a_hop_delay_plus_fault_spike_must_fit_together() {
        let half = SimDuration::from_micros(1 << 63);
        let zero = SimDuration::ZERO;
        let cfg = |hop_delay, spike: SimDuration, scheme| ExperimentConfig {
            sim: SimConfig {
                queueing: QueueingMode::PerChannelFifo(QueueConfig {
                    hop_delay,
                    ..QueueConfig::default()
                }),
                ..SimConfig::default()
            },
            scheme,
            ..with_faults(FaultConfig {
                jitter_range_ms: None,
                spike_prob: 1.0,
                spike_ms: spike.as_secs_f64() * 1e3,
                ..FaultConfig::default()
            })
        };
        let protocol = SchemeConfig::spider_protocol(4);
        check_rows([
            (
                "hop delay plus spike",
                cfg(half, half, protocol),
                Expect::Rejected,
            ),
            ("hop delay alone", cfg(half, zero, protocol), RUNS),
            ("spike alone", cfg(zero, half, protocol), RUNS),
            // Atomic schemes keep lockstep semantics under fifo queueing.
            (
                "no spike rides on a lockstep hop",
                cfg(half, half, SchemeConfig::MaxFlow),
                RUNS,
            ),
        ]);
    }

    /// Each delay config passed `validate()` and then panicked when the
    /// engine added the delay to the clock; the NaN admission parameters
    /// passed it too.
    #[test]
    fn invalid_sim_configs_are_rejected() {
        use Expect::{Rejected, Runs};
        let sim = |edit: fn(&mut SimConfig)| {
            let mut cfg = ExperimentConfig::default();
            edit(&mut cfg.sim);
            cfg
        };
        check_rows([
            (
                "confirmation delay",
                sim(|s| s.confirmation_delay = NEVER),
                Rejected,
            ),
            ("deadline", sim(|s| s.deadline = Some(NEVER)), Rejected),
            // Polls and samples land up to a constant past the horizon.
            (
                "horizon",
                sim(|s| {
                    (s.confirmation_delay, s.deadline) = (SimDuration::ZERO, None);
                    s.horizon = NEVER - SimDuration::from_millis(50);
                }),
                Rejected,
            ),
            (
                "queue hop delay",
                sim(|s| {
                    s.queueing = QueueingMode::PerChannelFifo(QueueConfig {
                        hop_delay: NEVER,
                        ..Default::default()
                    })
                }),
                Rejected,
            ),
            (
                "queue timeout",
                sim(|s| {
                    s.queueing = QueueingMode::PerChannelFifo(QueueConfig {
                        max_queue_delay: NEVER,
                        ..Default::default()
                    })
                }),
                Rejected,
            ),
            (
                "scan interval",
                sim(|s| s.rebalancing.get_or_insert_default().check_interval = NEVER),
                Rejected,
            ),
            (
                "deposit delay",
                sim(|s| s.rebalancing.get_or_insert_default().confirmation_delay = NEVER),
                Rejected,
            ),
            (
                "NaN admission rate",
                sim(|s| s.admission.get_or_insert_default().rate_per_sec = f64::NAN),
                Rejected,
            ),
            (
                "NaN admission burst",
                sim(|s| s.admission.get_or_insert_default().burst = f64::NAN),
                Rejected,
            ),
            // A tiny rate is valid: the first payment takes the one token
            // and every later one is deferred past the end of simulated
            // time.
            (
                "tiny shaping rate",
                sim(|s| {
                    let adm = s.admission.get_or_insert_default();
                    (adm.rate_per_sec, adm.burst, adm.defer) = (1e-15, 1.0, true);
                }),
                Runs(|r| r.admission_deferred == 999),
            ),
            // The longest valid scan interval ends at the last
            // representable instant, in the calendar's top bucket: a scan
            // at the end of time is never due.
            (
                "scan at the end of time",
                sim(|s| {
                    s.horizon = SimDuration::from_micros(500);
                    s.rebalancing.get_or_insert_default().check_interval =
                        SimDuration::from_micros(u64::MAX - 500);
                }),
                RUNS,
            ),
        ]);
    }

    #[test]
    fn demand_graph_matches_workload_rates() {
        let mut rng = DetRng::new(3);
        let w = Workload::generate(6, &WorkloadConfig::small(2_000, 500.0), &mut rng);
        let g = demand_graph(&w, 6);
        let volume: Amount = w.txns.iter().map(|t| t.amount).sum();
        let expect = volume.as_xrp() / w.duration().as_secs_f64();
        assert!((g.total_demand() - expect).abs() / expect < 1e-9);
    }
}
