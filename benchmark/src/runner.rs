//! The measurement protocol: one process per workload; the whole
//! experiment repeated from scratch inside it; repetition 0 a discarded
//! warm-up; every timing the median of the measured repetitions. Each
//! repetition is bracketed by the `hostspeed` reference kernel, and the
//! end-to-end host times are divided by the slowdown it saw before the
//! median is taken, so a host that runs 30 % slow for two minutes does
//! not read as a regression (that module has the measurements).
//!
//! The timed pass (`--trace 0`) reports the end-to-end metrics with no
//! span recorded. The traced pass (`--trace 1`) reports the per-layer
//! metrics: it alternates untraced and traced repetitions (the difference
//! is the tracing overhead), then runs the isolated layer replays.

use crate::alloc::CountingAlloc;
use crate::harness::{check_rep, load1, run_rep, Digest, Inputs, Rep};
use crate::hostspeed::HostSpeed;
use crate::metrics::{
    iqr_frac, median, nearest_rank, quartiles, MetricDef, END_TO_END, PER_LAYER, SPAN_METRICS,
};
use crate::replay;
use crate::spans::Spans;
use crate::workloads::WorkloadDef;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Measured repetitions are never fewer than this while the process cap
/// holds, whatever `--seconds`.
pub const MIN_REPS: usize = 3;

/// Process time cap as a multiple of `--seconds`.
pub const CAP_FACTOR: f64 = 1.6;

/// The share of `--seconds` the traced pass spends on repetitions; the
/// isolated replays take the rest.
const TRACED_REPS_SHARE: f64 = 0.5;

/// What one process measured.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Every check of every repetition passed.
    pub correct: bool,
    /// Simulated payments over all checked repetitions.
    pub attempted: u64,
    /// Payments of repetitions that panicked or failed a check.
    pub failed: u64,
    /// `(definition, value)` for every metric of the pass.
    pub metrics: Vec<(MetricDef, f64)>,
    /// What failed, for the operator.
    pub failures: Vec<String>,
    /// The outcome digest of the first repetition.
    pub digest: Option<Digest>,
    /// The spans of the traced pass, as JSON (`None` on the timed pass).
    pub spans_json: Option<String>,
}

impl RunResult {
    /// The one-line JSON result the contract asks for.
    pub fn to_json_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(m, v)| format!("\"{}\":{{\"value\":{v:?},\"unit\":\"{}\"}}", m.name, m.unit))
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct,
            self.attempted.max(1),
            self.failed,
            metrics.join(",")
        )
    }
}

/// Runs repetitions, checks each, and hands back the passing ones.
struct Reps<'a> {
    alloc: &'a CountingAlloc,
    host: HostSpeed,
    due: u64,
    reference: Option<Digest>,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    next_rep: u32,
}

impl Reps<'_> {
    /// One checked repetition of `def`; `None` if it failed.
    fn run(&mut self, def: &WorkloadDef, label: &str, spans: &mut Spans) -> Option<Rep> {
        let id = self.next_rep;
        self.next_rep += 1;
        // The host's speed is sampled on both sides of the repetition: a
        // slow stretch lasts longer than a repetition does.
        let before = self.host.slowdown();
        let outcome = catch_unwind(AssertUnwindSafe(|| run_rep(def, id, self.alloc, spans)));
        let host_slowdown = (before + self.host.slowdown()) / 2.0;
        let failures = match &outcome {
            Ok(Ok(rep)) => check_rep(rep, self.due, self.reference),
            Ok(Err(e)) => vec![format!("experiment failed to build: {e}")],
            Err(_) => vec!["repetition panicked (conservation or an engine bug)".to_string()],
        };
        let rep = outcome.ok().and_then(|r| r.ok()).map(|rep| Rep {
            host_slowdown,
            ..rep
        });
        let payments = rep.as_ref().map_or(def.cfg.workload.count as u64, |r| {
            r.report.attempted_payments
        });
        self.attempted += payments;
        if let Some(rep) = &rep {
            eprintln!(
                "  rep {id} [{label}] host x{host_slowdown:.3} wall {:.3}s setup {:.3}s run {:.3}s cpu {:.2}s peak {:.1}MB",
                rep.wall_s,
                rep.setup_s,
                rep.run_s,
                rep.cpu_s,
                rep.peak_heap_bytes as f64 / 1e6
            );
            self.reference.get_or_insert(rep.digest());
        }
        if failures.is_empty() {
            return rep;
        }
        self.failed += payments;
        for f in failures {
            eprintln!("  rep {id} [{label}] FAILED: {f}");
            self.failures.push(format!("rep {id} [{label}]: {f}"));
        }
        None
    }
}

/// The median of `f` over `reps` (`0` for none).
fn med(reps: &[Rep], f: impl Fn(&Rep) -> f64) -> f64 {
    if reps.is_empty() {
        return 0.0;
    }
    median(&reps.iter().map(f).collect::<Vec<_>>())
}

/// The smallest `f` over `reps` (`0` for none).
fn best(reps: &[Rep], f: impl Fn(&Rep) -> f64) -> f64 {
    reps.iter().map(f).reduce(f64::min).unwrap_or(0.0)
}

/// The time a process may spend: repetitions are measured for `seconds`,
/// and the whole process — inputs, warm-up and replays included — should
/// end within `CAP_FACTOR` times that, so a slow host costs repetitions,
/// not the driver's time cap.
struct Budget {
    process_started: Instant,
    seconds: f64,
}

impl Budget {
    /// May another repetition (or group) of about `typical` seconds start?
    /// The first always may; up to `min` may while the process cap holds;
    /// later ones must also end inside `share` of the measuring window
    /// that began at `window_started`.
    fn allows(
        &self,
        window_started: Instant,
        share: f64,
        typical: f64,
        done: usize,
        min: usize,
    ) -> bool {
        let under_cap =
            self.process_started.elapsed().as_secs_f64() + typical <= CAP_FACTOR * self.seconds;
        let in_window = window_started.elapsed().as_secs_f64() + typical <= share * self.seconds;
        done == 0 || (under_cap && (done < min || in_window))
    }
}

/// Runs one workload for about `seconds` measured seconds.
pub fn run_workload(
    def: &WorkloadDef,
    seconds: f64,
    trace: bool,
    alloc: &CountingAlloc,
) -> RunResult {
    let budget = Budget {
        process_started: Instant::now(),
        seconds,
    };
    let inputs = match Inputs::build(def) {
        Ok(inputs) => inputs,
        Err(e) => {
            return RunResult {
                correct: false,
                attempted: def.cfg.workload.count as u64,
                failed: def.cfg.workload.count as u64,
                metrics: Vec::new(),
                failures: vec![format!("inputs failed to build: {e}")],
                digest: None,
                spans_json: None,
            }
        }
    };
    let mut reps = Reps {
        alloc,
        host: HostSpeed::new(),
        due: inputs.due,
        reference: None,
        attempted: 0,
        failed: 0,
        failures: Vec::new(),
        next_rep: 0,
    };
    eprintln!(
        "{} traffic seed {}: {} payments due, {} distinct pairs, {} churn events",
        def.name,
        def.traffic_seed,
        inputs.due,
        inputs.pairs.len(),
        inputs.churn.len()
    );
    // Repetition 0 warms caches, the allocator and the CPU clock; it is
    // checked like any other but never measured. It also says how long a
    // repetition takes, for the budget.
    let warm_up = reps.run(def, "warm-up", &mut Spans::new(false));
    let typical = warm_up.map_or(0.0, |r| r.wall_s);
    let (metrics, spans_json) = if trace {
        let (metrics, spans) = traced_pass(def, &inputs, &budget, typical, &mut reps);
        (metrics, Some(spans.to_json()))
    } else {
        (timed_pass(def, &budget, typical, &mut reps), None)
    };
    RunResult {
        correct: reps.failed == 0,
        attempted: reps.attempted,
        failed: reps.failed,
        metrics,
        failures: reps.failures,
        digest: reps.reference,
        spans_json,
    }
}

fn timed_pass(
    def: &WorkloadDef,
    budget: &Budget,
    typical: f64,
    reps: &mut Reps<'_>,
) -> Vec<(MetricDef, f64)> {
    let mut spans = Spans::new(false);
    let mut measured: Vec<Rep> = Vec::new();
    let started = Instant::now();
    while budget.allows(started, 1.0, typical, measured.len(), MIN_REPS) {
        // A failed repetition already decides the run: stop measuring.
        let Some(rep) = reps.run(def, "timed", &mut spans) else {
            break;
        };
        measured.push(rep);
    }
    let Some(first) = measured.first() else {
        return Vec::new();
    };
    // The simulated statistics repeat exactly (the digest check holds
    // them together), so the first repetition speaks for all.
    let r = &first.report;
    let p99 = nearest_rank(&r.completion_times, 99.0).unwrap_or(0.0);
    let p50 = nearest_rank(&r.completion_times, 50.0).unwrap_or(0.0);
    let walls: Vec<f64> = measured.iter().map(|r| r.wall_s).collect();
    if walls.len() >= 2 {
        let [q1, q2, q3] = quartiles(&walls);
        eprintln!(
            "  raw wall_s over R={} measured reps: best {:.4} q1 {q1:.4} median {q2:.4} q3 {q3:.4}; \
             host slowdown median x{:.3}",
            walls.len(),
            best(&measured, |r| r.wall_s),
            med(&measured, |r| r.host_slowdown)
        );
    }
    eprintln!(
        "  sim latency: p50 {p50:.6}s p99 {p99:.6}s over {} completions",
        r.completion_times.len()
    );
    let values = [
        med(&measured, |r| r.wall_s / r.host_slowdown),
        med(&measured, |r| r.setup_s / r.host_slowdown),
        med(&measured, |r| {
            r.report.attempted_payments as f64 / r.run_s * r.host_slowdown
        }),
        med(&measured, |r| r.cpu_s / r.host_slowdown),
        med(&measured, |r| r.peak_heap_bytes as f64 / 1e6),
        r.success_ratio(),
        r.success_volume(),
        p99,
    ];
    END_TO_END.iter().copied().zip(values).collect()
}

fn traced_pass(
    def: &WorkloadDef,
    inputs: &Inputs,
    budget: &Budget,
    typical: f64,
    reps: &mut Reps<'_>,
) -> (Vec<(MetricDef, f64)>, Spans) {
    // The traced repetition also switches the engine's own phase profiler
    // on; the bare one switches every sink off, to price the sinks.
    let mut profiled = def.clone();
    profiled.cfg.sim.obs.profile = true;
    let mut bare_def = def.clone();
    bare_def.cfg.sim.obs = Default::default();
    let prices_sinks = bare_def.cfg.sim.obs != def.cfg.sim.obs;
    let group_s = typical * if prices_sinks { 3.0 } else { 2.0 };

    let mut off = Spans::new(false);
    let mut spans = Spans::new(true);
    // Sinks-off repetitions are traced alike but their spans are not kept.
    let mut bare_spans = Spans::new(true);
    let (mut untraced, mut traced, mut bare): (Vec<Rep>, Vec<Rep>, Vec<Rep>) = Default::default();
    let started = Instant::now();
    let mut groups = 0;
    // A failed repetition already decides the run: stop measuring.
    while reps.failed == 0 && budget.allows(started, TRACED_REPS_SHARE, group_s, groups, 1) {
        groups += 1;
        untraced.extend(reps.run(def, "untraced", &mut off));
        traced.extend(reps.run(&profiled, "traced", &mut spans));
        if prices_sinks {
            bare.extend(reps.run(&bare_def, "sinks-off", &mut bare_spans));
        }
    }
    let mut values: Vec<(&'static str, f64)> = replay::run_all(def, inputs, reps.alloc);
    // Counts come from the first untraced repetition (they repeat exactly);
    // every traced time comes from the one fastest traced repetition, so
    // the phases and `unattributed_s` sum to that repetition's `run_s`.
    let fastest = traced.iter().min_by(|a, b| a.run_s.total_cmp(&b.run_s));
    let (Some(u), Some(t)) = (untraced.first(), fastest) else {
        return (Vec::new(), spans);
    };

    // Spans around public calls: self time; `0` where the workload never
    // makes the call.
    for m in &PER_LAYER[..SPAN_METRICS] {
        let span_name = m.name.strip_suffix("_s").expect("span metrics end in _s");
        values.push((m.name, spans.self_secs(span_name, t.id)));
    }

    // Inside `run`: the engine's own phase clocks.
    let profile = &t.report.profile;
    for ((_, phase), name) in profile.phases().into_iter().zip([
        "sim.engine.phase.calendar_pop_s",
        "sim.engine.phase.routing_s",
        "sim.engine.phase.forwarding_s",
        "sim.engine.phase.settlement_s",
        "sim.engine.phase.churn_repair_s",
        "sim.engine.phase.sampling_s",
    ]) {
        values.push((name, phase.total_ns as f64 / 1e9));
    }
    values.push((
        "sim.engine.phase.unattributed_s",
        t.run_s - profile.total_ns() as f64 / 1e9,
    ));

    let (r, slab) = (&u.report, &u.slab);
    // Only some routers export their `PathCache` counters; for the others
    // the replayed cache's counters (already in `values`) stand.
    for (key, metric) in [
        ("path_cache_hits", "routing.cache.hits"),
        ("path_cache_misses", "routing.cache.misses"),
        ("path_cache_prefilled", "routing.cache.prefilled"),
        ("path_cache_repairs", "routing.cache.repairs"),
    ] {
        if let Some((_, exported)) = r.router_counters.iter().find(|(k, _)| k == key) {
            values.retain(|(name, _)| *name != metric);
            values.push((metric, *exported as f64));
        }
    }
    let attempts = r.units_locked + r.units_failed;
    values.extend([
        ("sim.engine.events_scheduled", slab.events_scheduled as f64),
        ("sim.engine.events_executed", slab.events_executed as f64),
        (
            "sim.engine.ns_per_event",
            best(&untraced, |r| r.run_s) * 1e9 / slab.events_executed.max(1) as f64,
        ),
        ("sim.engine.peak_live_events", slab.peak_live_events as f64),
        ("sim.engine.peak_live_units", slab.peak_live_units as f64),
        ("sim.engine.units_locked", r.units_locked as f64),
        ("sim.engine.units_failed", r.units_failed as f64),
        ("sim.engine.units_dropped", r.units_dropped as f64),
        ("sim.engine.retries", r.retries as f64),
        (
            "sim.engine.unit_waste_ratio",
            r.units_failed as f64 / attempts.max(1) as f64,
        ),
        (
            "sim.engine.drops_queue_timeout",
            r.drops_by_reason.queue_timeout as f64,
        ),
        ("sim.engine.churn_scan_steps", slab.churn_scan_steps as f64),
        ("sim.paths.interned_paths", slab.interned_paths as f64),
        ("dynamics.topology_events", r.topology_events as f64),
        ("faults.injected", r.faults_injected as f64),
        ("overload.admission_deferred", r.admission_deferred as f64),
        ("overload.drops_shed", r.drops_by_reason.shed as f64),
        ("obs.trace.events", u.obs.trace_events as f64),
        ("obs.trace.jsonl_bytes", u.obs.trace_jsonl_bytes as f64),
        ("obs.forensics.records", u.obs.forensics_records as f64),
        ("obs.sampler.samples", r.samples.len() as f64),
        ("obs.invariants.audits", u.obs.invariant_audits as f64),
        (
            "obs.cost.all_frac",
            if bare.is_empty() {
                0.0
            } else {
                t.run_s / best(&bare, |r| r.run_s) - 1.0
            },
        ),
        ("alloc.setup_count", u.alloc_setup.count as f64),
        ("alloc.run_count", u.alloc_run.count as f64),
        ("alloc.run_bytes", u.alloc_run.bytes as f64),
        (
            "alloc.per_payment",
            u.alloc_run.count as f64 / r.attempted_payments.max(1) as f64,
        ),
        (
            "harness.reps",
            (untraced.len() + traced.len() + bare.len()) as f64,
        ),
        (
            "harness.wall_iqr_frac",
            iqr_frac(&untraced.iter().map(|r| r.wall_s).collect::<Vec<_>>()),
        ),
        (
            "harness.trace_overhead_frac",
            best(&traced, |r| r.wall_s) / best(&untraced, |r| r.wall_s) - 1.0,
        ),
        ("host.slowdown", med(&untraced, |r| r.host_slowdown)),
        (
            "host.nproc",
            std::thread::available_parallelism().map_or(1.0, |p| p.get() as f64),
        ),
        ("host.load1", load1()),
    ]);

    let metrics = PER_LAYER
        .iter()
        .map(|m| {
            let (_, v) = values
                .iter()
                .find(|(name, _)| name == &m.name)
                .unwrap_or_else(|| panic!("per-layer metric {} was not computed", m.name));
            (*m, *v)
        })
        .collect();
    (metrics, spans)
}
