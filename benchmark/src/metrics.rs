//! The benchmark's schema — every workload and metric name with its unit,
//! direction and bound — and the order statistics the harness reports.
//!
//! These tables are the source of truth: `BENCHMARK.json` is what
//! [`benchmark_json`] prints, and the schema test holds the two together.

use crate::workloads::{NAMES, WORKLOAD_WHY};

/// One metric of the schema.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    /// Metric name; per-layer names start with the layer's module path.
    pub name: &'static str,
    /// Unit. `sim_s` is simulated seconds, which repeat exactly per seed;
    /// `s` is host seconds.
    pub unit: &'static str,
    /// `lower` or `higher`.
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen before
    /// a change counts as a regression; `None` for per-layer metrics.
    pub bound: Option<f64>,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

/// What a user of the simulator sees. Each bound is three times the
/// largest spread measured across ten traffic seeds on the reference box
/// (see `README.md`, "Noise band") or the contract's cap of 0.25,
/// whichever is smaller: host time on a shared 2-core VM spreads up to
/// 20 % even normalized, and the ISP stress outcome, its trace and so its
/// heap move 7–8 % with the traffic alone.
pub const END_TO_END: [MetricDef; 8] = [
    e2e("wall_s", "s", "lower", 0.25),
    e2e("setup_s", "s", "lower", 0.25),
    e2e("payments_per_s", "1/s", "higher", 0.25),
    e2e("cpu_s", "s", "lower", 0.25),
    e2e("peak_heap_mb", "MB", "lower", 0.25),
    e2e("success_ratio", "ratio", "higher", 0.25),
    e2e("success_volume", "ratio", "higher", 0.25),
    e2e("sim_latency_p99_s", "sim_s", "lower", 0.15),
];

/// The leading entries of [`PER_LAYER`] that are spans around public
/// calls: metric `x.y_s` is the self time of the span called `x.y`.
pub const SPAN_METRICS: usize = 12;

/// Single-layer metrics, never gated. `_s` metrics are host seconds from
/// the traced repetitions; counts come from the untraced ones.
pub const PER_LAYER: [MetricDef; 73] = [
    // Spans around public calls (self time).
    layer("topology.build_s", "s", "lower"),
    layer("sim.workload.generate_s", "s", "lower"),
    layer("core.demand_graph_s", "s", "lower"),
    layer("dynamics.plan_s", "s", "lower"),
    layer("faults.plan_s", "s", "lower"),
    layer("overload.plan_s", "s", "lower"),
    layer("core.scheme.build_s", "s", "lower"),
    layer("sim.engine.new_s", "s", "lower"),
    layer("sim.engine.run_s", "s", "lower"),
    layer("sim.engine.conservation_s", "s", "lower"),
    layer("obs.render_s", "s", "lower"),
    layer("core.output.render_s", "s", "lower"),
    // Inside `run`, from the public `obs.profile` switch.
    layer("sim.engine.phase.calendar_pop_s", "s", "lower"),
    layer("sim.engine.phase.routing_s", "s", "lower"),
    layer("sim.engine.phase.forwarding_s", "s", "lower"),
    layer("sim.engine.phase.settlement_s", "s", "lower"),
    layer("sim.engine.phase.churn_repair_s", "s", "lower"),
    layer("sim.engine.phase.sampling_s", "s", "lower"),
    layer("sim.engine.phase.unattributed_s", "s", "lower"),
    // Isolated replays of one layer's public API.
    layer("routing.oracle.pairs", "count", "lower"),
    layer("routing.oracle.fill_s", "s", "lower"),
    layer("routing.oracle.fill_cpu_s", "s", "lower"),
    layer("routing.oracle.us_per_pair", "us", "lower"),
    layer("routing.cache.prefill_s", "s", "lower"),
    layer("routing.cache.repair_s", "s", "lower"),
    layer("routing.cache.repair_ms_per_event", "ms", "lower"),
    layer("routing.route.calls", "count", "higher"),
    layer("routing.route.ns_per_call", "ns", "lower"),
    layer("sim.calendar.ops", "count", "higher"),
    layer("sim.calendar.ns_per_op", "ns", "lower"),
    layer("sim.channel.ns_per_lock_settle", "ns", "lower"),
    layer("sim.workload.ns_per_arrival", "ns", "lower"),
    layer("obs.trace.record_ns_per_event", "ns", "lower"),
    layer("obs.trace.render_ns_per_event", "ns", "lower"),
    layer("obs.hist.record_ns", "ns", "lower"),
    // Counts and ratios.
    layer("sim.engine.events_scheduled", "count", "lower"),
    layer("sim.engine.events_executed", "count", "lower"),
    layer("sim.engine.ns_per_event", "ns", "lower"),
    layer("sim.engine.peak_live_events", "count", "lower"),
    layer("sim.engine.peak_live_units", "count", "lower"),
    layer("sim.engine.units_locked", "count", "higher"),
    layer("sim.engine.units_failed", "count", "lower"),
    layer("sim.engine.units_dropped", "count", "lower"),
    layer("sim.engine.retries", "count", "lower"),
    layer("sim.engine.unit_waste_ratio", "ratio", "lower"),
    layer("sim.engine.drops_queue_timeout", "count", "lower"),
    layer("sim.engine.churn_scan_steps", "count", "lower"),
    layer("sim.paths.interned_paths", "count", "lower"),
    layer("routing.cache.hits", "count", "higher"),
    layer("routing.cache.misses", "count", "lower"),
    layer("routing.cache.prefilled", "count", "lower"),
    layer("routing.cache.repairs", "count", "lower"),
    layer("dynamics.topology_events", "count", "higher"),
    layer("faults.injected", "count", "higher"),
    layer("overload.admission_deferred", "count", "lower"),
    layer("overload.drops_shed", "count", "lower"),
    layer("obs.trace.events", "count", "higher"),
    layer("obs.trace.jsonl_bytes", "bytes", "lower"),
    layer("obs.forensics.records", "count", "higher"),
    layer("obs.sampler.samples", "count", "higher"),
    layer("obs.invariants.audits", "count", "higher"),
    layer("obs.cost.all_frac", "ratio", "lower"),
    // Allocation, from the counting allocator.
    layer("alloc.setup_count", "count", "lower"),
    layer("alloc.run_count", "count", "lower"),
    layer("alloc.run_bytes", "bytes", "lower"),
    layer("alloc.oracle_fill_count", "count", "lower"),
    layer("alloc.per_payment", "count", "lower"),
    // The harness itself.
    layer("harness.reps", "count", "higher"),
    layer("harness.wall_iqr_frac", "ratio", "lower"),
    layer("harness.trace_overhead_frac", "ratio", "lower"),
    layer("host.slowdown", "ratio", "lower"),
    layer("host.nproc", "count", "higher"),
    layer("host.load1", "ratio", "lower"),
];

/// How long one run measures, seconds (`BENCHMARK.json`'s `run_seconds`).
pub const RUN_SECONDS: u64 = 20;

/// The median (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The three quartile cut points, as Python's
/// `statistics.quantiles(values, n=4)` gives them (the exclusive method).
/// Needs at least two values.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need two values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let m = n + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4) {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// Interquartile range as a share of the median; `0` when it cannot be
/// formed (fewer than two values, or a zero median).
pub fn iqr_frac(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let [q1, q2, q3] = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

/// The `p`-th percentile by nearest rank (`p` in `(0, 100]`), or `None`
/// for an empty sample.
pub fn nearest_rank(values: &[f64], p: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    Some(v[rank.clamp(1, v.len()) - 1])
}

/// `BENCHMARK.json`, rendered from the tables above.
pub fn benchmark_json() -> String {
    let mut out = String::from("{\n");
    out.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n",
    );
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    out.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    out.push_str("  \"workloads\": [\n");
    for (i, (name, why)) in NAMES.iter().zip(WORKLOAD_WHY).enumerate() {
        let sep = if i + 1 < NAMES.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"name\": \"{name}\", \"why\": \"{why}\"}}{sep}\n"
        ));
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let sep = if i + 1 < END_TO_END.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{sep}\n",
            m.name,
            m.unit,
            m.better,
            m.bound.expect("end-to-end metrics are bounded"),
        ));
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let sep = if i + 1 < PER_LAYER.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{sep}\n",
            m.name, m.unit, m.better,
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3.0, 1.0, 2.0], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        // statistics.quantiles([1.0, 2.0], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        assert!((iqr_frac(&ten) - 1.0).abs() < 1e-12);
        assert_eq!(iqr_frac(&[4.0]), 0.0);
    }

    #[test]
    fn median_and_nearest_rank() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(nearest_rank(&hundred, 99.0), Some(99.0));
        assert_eq!(nearest_rank(&hundred, 50.0), Some(50.0));
        assert_eq!(nearest_rank(&[7.0], 99.0), Some(7.0));
        assert_eq!(nearest_rank(&[], 99.0), None);
    }
}
