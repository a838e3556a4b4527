//! One repetition of a workload, built through the same public calls as
//! `ExperimentConfig::run()` but decomposed, so set-up and run are timed
//! separately and every layer boundary can carry a span — and the checks
//! every repetition must pass.

use crate::alloc::{AllocSnapshot, CountingAlloc};
use crate::spans::Spans;
use crate::workloads::WorkloadDef;
use spider_core::experiment::demand_graph;
use spider_core::output::{to_json_lines, FigureRow};
use spider_dynamics::ChurnSchedule;
use spider_faults::FaultPlan;
use spider_overload::OverloadPlan;
use spider_paygraph::PaymentGraph;
use spider_sim::{
    ArrivalSource, SimReport, Simulation, SlabStats, StreamingWorkload, TxnSpec, Workload,
};
use spider_topology::Topology;
use spider_types::{DetRng, NodeId, Result, SimTime, TopologyEvent};
use std::fmt;
use std::hint::black_box;
use std::time::Instant;

/// Runs `$body` inside a span called `$name`.
macro_rules! span {
    ($spans:expr, $name:literal, $body:expr) => {{
        $spans.enter($name);
        let value = $body;
        $spans.exit();
        value
    }};
}

/// What the rendered observability sinks held (zero where a sink is off).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ObsCounts {
    /// Events in the payment-lifecycle trace.
    pub trace_events: u64,
    /// Bytes of the trace rendered as JSONL.
    pub trace_jsonl_bytes: u64,
    /// Drop records held by the flight recorder.
    pub forensics_records: u64,
    /// Sweeps the invariant monitor ran.
    pub invariant_audits: u64,
    /// Violations the invariant monitor recorded.
    pub invariant_violations: u64,
}

/// One repetition's outcome and host measurements.
#[derive(Debug, Clone)]
pub struct Rep {
    /// The repetition's number in its process; its spans carry it.
    pub id: u32,
    /// The simulator's report.
    pub report: SimReport,
    /// Event-loop and slab counters.
    pub slab: SlabStats,
    /// What the sinks held.
    pub obs: ObsCounts,
    /// Whole experiment: set-up + run + checks + rendering + teardown.
    pub wall_s: f64,
    /// Config → ready-to-run `Simulation`.
    pub setup_s: f64,
    /// `Simulation::run` alone.
    pub run_s: f64,
    /// Process user+sys CPU over the repetition, all threads.
    pub cpu_s: f64,
    /// High-water mark of live heap bytes.
    pub peak_heap_bytes: u64,
    /// How much slower than nominal the host's CPU ran around this
    /// repetition (see `hostspeed`); `1` until the runner measures it.
    pub host_slowdown: f64,
    /// Allocations during set-up.
    pub alloc_setup: AllocSnapshot,
    /// Allocations during `Simulation::run`.
    pub alloc_run: AllocSnapshot,
}

/// The outcome digest: identical across repetitions of one seed, and
/// printed so a speed-only change can show it unchanged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest {
    /// Payments attempted.
    pub attempted: u64,
    /// Payments completed.
    pub completed: u64,
    /// Delivered volume, drops.
    pub delivered_drops: u64,
    /// Units locked.
    pub units_locked: u64,
    /// Events executed.
    pub events_executed: u64,
}

impl fmt::Display for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "attempted={} completed={} delivered_drops={} units_locked={} events_executed={}",
            self.attempted,
            self.completed,
            self.delivered_drops,
            self.units_locked,
            self.events_executed
        )
    }
}

impl Rep {
    /// The repetition's outcome digest.
    pub fn digest(&self) -> Digest {
        Digest {
            attempted: self.report.attempted_payments,
            completed: self.report.completed_payments,
            delivered_drops: self.report.delivered_volume.drops(),
            units_locked: self.report.units_locked,
            events_executed: self.slab.events_executed,
        }
    }
}

/// Process user+sys CPU seconds so far, all threads (exited ones too),
/// from `/proc/self/stat` (10 ms ticks).
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("/proc/self/stat is readable");
    // The command name may contain spaces; fields resume after its ')'.
    let rest = &stat[stat.rfind(')').expect("stat has a command field") + 1..];
    let mut fields = rest.split_whitespace().skip(11);
    let mut ticks = || -> f64 {
        fields
            .next()
            .and_then(|f| f.parse().ok())
            .expect("utime and stime are numbers")
    };
    (ticks() + ticks()) / 100.0
}

/// The 1-minute load average, or `0` where `/proc/loadavg` is missing.
pub fn load1() -> f64 {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or(0.0)
}

/// Generates the overload plan and applies its workload transform in
/// place, exactly as `ExperimentConfig::run()` does: the flash-crowd time
/// warp, then hot-pair / drain redirects drawn from the plan's transform
/// stream.
fn apply_overload(
    def: &WorkloadDef,
    rng: &DetRng,
    topo: &Topology,
    workload: &mut Workload,
) -> Result<Option<OverloadPlan>> {
    let Some(cfg) = &def.cfg.overload else {
        return Ok(None);
    };
    let plan = OverloadPlan::generate(topo, cfg, &mut rng.fork("overload"))?;
    let mut trng = DetRng::new(plan.transform_seed);
    for txn in &mut workload.txns {
        txn.time = SimTime::from_secs_f64(plan.warp_secs(txn.time.as_secs_f64()));
        (txn.src, txn.dst) = plan.transform_pair(txn.src, txn.dst, &mut trng);
    }
    Ok(Some(plan))
}

/// Takes every sink the config switched on and renders it to in-memory
/// JSONL, as a user collecting the run's artifacts would.
fn render_obs(sim: &mut Simulation) -> ObsCounts {
    let mut counts = ObsCounts::default();
    if let Some(trace) = sim.take_trace() {
        counts.trace_events = trace.len() as u64;
        counts.trace_jsonl_bytes = black_box(trace.to_jsonl()).len() as u64;
    }
    if let Some(recorder) = sim.take_forensics() {
        counts.forensics_records = recorder.len() as u64;
        black_box(recorder.to_jsonl());
        black_box(recorder.root_cause_to_jsonl());
    }
    if let Some(report) = sim.take_invariant_report() {
        counts.invariant_audits = report.checks_run;
        counts.invariant_violations = report.violations_total;
        black_box(report.to_jsonl());
    }
    counts
}

/// Runs one repetition from scratch: new topology, router and
/// `Simulation`. Panics if conservation is broken (callers catch it).
pub fn run_rep(
    def: &WorkloadDef,
    id: u32,
    alloc: &CountingAlloc,
    spans: &mut Spans,
) -> Result<Rep> {
    let cfg = &def.cfg;
    spans.set_rep(id);
    // What earlier repetitions left live (their kept reports) is not this
    // repetition's heap: the high-water mark is taken above it.
    alloc.reset_peak();
    let live0 = alloc.live_bytes();
    let a0 = alloc.snapshot();
    let cpu0 = cpu_seconds();
    let t0 = Instant::now();
    spans.enter("harness.rep");
    spans.enter("harness.setup");
    let rng = DetRng::new(cfg.seed);
    let topo = span!(spans, "topology.build", cfg.topology.build(&rng))?;
    let n = topo.node_count();
    let mut wrng = def.traffic_rng();
    let mut overload = None;
    let (source, demands): (ArrivalSource, PaymentGraph) = if def.streaming {
        // Streamed schemes ignore the demand matrix and nothing may
        // rewrite a lazy stream; a workload needing either is materialized.
        assert!(
            cfg.overload.is_none()
                && !matches!(cfg.scheme, spider_core::SchemeConfig::SpiderLp { .. }),
            "{} cannot stream its arrivals",
            def.name
        );
        let stream = span!(
            spans,
            "sim.workload.generate",
            StreamingWorkload::new(n, cfg.workload.clone(), wrng)
        );
        let demands = span!(spans, "core.demand_graph", PaymentGraph::new(n));
        (stream.into(), demands)
    } else {
        let mut workload = span!(
            spans,
            "sim.workload.generate",
            Workload::generate(n, &cfg.workload, &mut wrng)
        );
        let demands = span!(spans, "core.demand_graph", demand_graph(&workload, n));
        overload = span!(
            spans,
            "overload.plan",
            apply_overload(def, &rng, &topo, &mut workload)
        )?;
        (workload.into(), demands)
    };
    let router = span!(
        spans,
        "core.scheme.build",
        cfg.scheme
            .build(&topo, &demands, cfg.sim.confirmation_delay.as_secs_f64())
    );
    let mut sim = span!(
        spans,
        "sim.engine.new",
        Simulation::new(topo, source, router, cfg.effective_sim())
    )?;
    if let Some(dynamics) = &cfg.dynamics {
        let schedule = span!(
            spans,
            "dynamics.plan",
            ChurnSchedule::generate(sim.topology(), dynamics, &mut rng.fork("dynamics"))
        )?;
        sim.set_topology_events(schedule.events);
    }
    if let Some(faults) = &cfg.faults {
        let plan = span!(
            spans,
            "faults.plan",
            FaultPlan::generate(sim.topology(), faults, &mut rng.fork("faults"))
        )?;
        sim.set_fault_plan(plan);
    }
    if let Some(plan) = overload {
        sim.set_overload_plan(plan);
    }
    spans.exit();
    let t1 = Instant::now();
    let a1 = alloc.snapshot();
    let report = span!(spans, "sim.engine.run", sim.run());
    let t2 = Instant::now();
    let a2 = alloc.snapshot();
    span!(spans, "sim.engine.conservation", sim.check_conservation());
    let obs = span!(spans, "obs.render", render_obs(&mut sim));
    span!(spans, "core.output.render", {
        let row = FigureRow::new(def.name, "seed", def.traffic_seed as f64, &report);
        black_box(to_json_lines(&[row]));
    });
    let slab = sim.slab_stats();
    drop(sim);
    spans.exit();
    let t3 = Instant::now();
    Ok(Rep {
        id,
        report,
        slab,
        obs,
        wall_s: (t3 - t0).as_secs_f64(),
        setup_s: (t1 - t0).as_secs_f64(),
        run_s: (t2 - t1).as_secs_f64(),
        cpu_s: cpu_seconds() - cpu0,
        peak_heap_bytes: alloc.peak_bytes() - live0,
        host_slowdown: 1.0,
        alloc_setup: a1.since(a0),
        alloc_run: a2.since(a1),
    })
}

/// The workload's inputs, materialized once per process outside every
/// timed region: what the repetitions are checked against and what the
/// isolated layer replays run on.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// The topology every repetition builds.
    pub topo: Topology,
    /// Every arrival, in time order, after the overload transform.
    pub txns: Vec<TxnSpec>,
    /// Arrivals at or before the horizon — what the engine is offered.
    pub due: u64,
    /// Distinct `(src, dst)` pairs of the due arrivals, first-arrival
    /// order: the list the engine hands `Router::prewarm`.
    pub pairs: Vec<(NodeId, NodeId)>,
    /// The churn schedule (empty without dynamics).
    pub churn: Vec<TopologyEvent>,
}

impl Inputs {
    /// Materializes `def`'s inputs from its seed.
    pub fn build(def: &WorkloadDef) -> Result<Inputs> {
        let cfg = &def.cfg;
        let rng = DetRng::new(cfg.seed);
        let topo = cfg.topology.build(&rng)?;
        let mut workload =
            Workload::generate(topo.node_count(), &cfg.workload, &mut def.traffic_rng());
        apply_overload(def, &rng, &topo, &mut workload)?;
        let horizon = SimTime::ZERO + cfg.sim.horizon;
        let due = workload.txns.iter().filter(|t| t.time <= horizon).count() as u64;
        let pairs = workload.distinct_pairs(Some(horizon));
        let churn = match &cfg.dynamics {
            Some(d) => ChurnSchedule::generate(&topo, d, &mut rng.fork("dynamics"))?.events,
            None => Vec::new(),
        };
        Ok(Inputs {
            topo,
            txns: workload.txns,
            due,
            pairs,
            churn,
        })
    }
}

/// The checks every repetition must pass; returns what failed.
/// (Conservation is checked inside [`run_rep`], by panic.) Expected
/// outcomes are deliberately not pinned: a routing-quality change may
/// move them.
pub fn check_rep(rep: &Rep, due: u64, reference: Option<Digest>) -> Vec<String> {
    let r = &rep.report;
    let mut failures = Vec::new();
    if r.drops_by_reason.total() != r.units_dropped {
        failures.push(format!(
            "drops_by_reason sums to {} but units_dropped is {}",
            r.drops_by_reason.total(),
            r.units_dropped
        ));
    }
    // Every due arrival is attempted, except shaped ones whose deferred
    // slot fell past the horizon.
    if r.attempted_payments > due || r.attempted_payments + r.admission_deferred < due {
        failures.push(format!(
            "attempted {} of {due} due arrivals ({} deferred)",
            r.attempted_payments, r.admission_deferred
        ));
    }
    if rep.obs.invariant_violations > 0 {
        failures.push(format!(
            "invariant monitor recorded {} violations",
            rep.obs.invariant_violations
        ));
    }
    if let Some(reference) = reference {
        if rep.digest() != reference {
            failures.push(format!(
                "outcome digest differs: {} vs first repetition {reference}",
                rep.digest()
            ));
        }
    }
    failures
}
