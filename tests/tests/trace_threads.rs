//! No trace render worker outlives its sink. A traced `Simulation` that
//! filled several hand-off chunks is dropped without `take_trace`, and a
//! traced run panics mid-run under `catch_unwind`: after each, the
//! process runs as many threads as before. This binary holds a single
//! test, so no other test thread starts or ends while it counts.

use spider_core::{ExperimentConfig, SchemeConfig, TopologyConfig};
use spider_routing::shortest::ShortestPath;
use spider_sim::{
    NetworkView, RouteProposal, RouteRequest, Router, SimConfig, SizeDistribution, UnitOutcome,
    WorkloadConfig,
};
use spider_types::{Amount, SimDuration};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// The `Threads:` count of `/proc/self/status`.
fn threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("a Linux /proc");
    let line = status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .expect("a Threads line");
    line.trim().parse().expect("a thread count")
}

/// The thread count once it is back to `want`, or after two seconds.
/// A joined thread may still be counted for a moment while the kernel
/// finishes its exit.
fn settles_to(want: usize) -> usize {
    let start = Instant::now();
    loop {
        let now = threads();
        if now == want || start.elapsed() > Duration::from_secs(2) {
            return now;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// A traced lockstep run on the ISP graph: tens of thousands of records,
/// several hand-off chunks.
fn traced() -> ExperimentConfig {
    let mut sim = SimConfig {
        horizon: SimDuration::from_secs(8),
        mtu: Amount::from_xrp(10),
        ..SimConfig::default()
    };
    sim.obs.trace = true;
    ExperimentConfig {
        topology: TopologyConfig::Isp {
            capacity_xrp: 2_000,
        },
        workload: WorkloadConfig {
            count: 6_000,
            rate_per_sec: 1_000.0,
            size: SizeDistribution::RippleIsp,
            sender_skew_scale: 8.0,
        },
        sim,
        scheme: SchemeConfig::ShortestPath,
        dynamics: None,
        faults: None,
        overload: None,
        seed: 42,
    }
}

/// Shortest-path routing that panics at its `left`-th route call.
struct PanicsAfter {
    inner: ShortestPath,
    left: u32,
}

impl Router for PanicsAfter {
    fn name(&self) -> &'static str {
        "panics-after"
    }

    fn route(&mut self, req: &RouteRequest, view: &NetworkView<'_>) -> Vec<RouteProposal> {
        self.left -= 1;
        assert!(self.left > 0, "planted router fault");
        self.inner.route(req, view)
    }

    fn on_unit_outcome(&mut self, outcome: &UnitOutcome, view: &NetworkView<'_>) {
        self.inner.on_unit_outcome(outcome, view);
    }
}

#[test]
fn no_render_worker_outlives_its_sink() {
    let before = threads();
    let cfg = traced();

    let mut sim = cfg.simulation(None).expect("builds");
    sim.run();
    let events = sim.take_trace().expect("traced").len();
    assert!(events > 5 * 4096, "{events} records fill too few chunks");
    assert_eq!(settles_to(before), before, "a sealed sink's worker");

    let mut sim = cfg.simulation(None).expect("builds");
    sim.run();
    drop(sim);
    assert_eq!(settles_to(before), before, "a dropped sink's worker");

    let router = PanicsAfter {
        inner: ShortestPath::new(),
        left: 4_000,
    };
    let sim = cfg.simulation(Some(Box::new(router))).expect("builds");
    let run = catch_unwind(AssertUnwindSafe(move || {
        let mut sim = sim;
        sim.run();
    }));
    assert!(run.is_err(), "the planted fault fires mid-run");
    assert_eq!(settles_to(before), before, "a panicked run's worker");
}
