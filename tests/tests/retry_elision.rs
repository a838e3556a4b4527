//! Differential tests for retry elision.
//!
//! The engine does not re-offer a pending payment when it can prove the
//! attempt empty:
//! - lockstep: while its router has it pinned to one path
//!   ([`Router::pins_single_path`]) and that path cannot carry the
//!   payment's smallest chunk — such an attempt would lock nothing;
//! - hop by hop: while its router promises to propose nothing for its
//!   pair ([`Router::proposes_nothing`]) — the §5 router, once every
//!   window of the pair is full.
//!
//! There is one retry loop, not two, so the reference here is the *same*
//! engine driven by a router that withholds both promises: [`Withheld`]
//! forwards everything else to the scheme it wraps, so every pending
//! payment is re-offered at every poll, as before.
//!
//! Skipped attempts must be invisible in outcomes. The two `SimReport`s
//! are compared field by field, except the counters that measure work
//! done rather than what happened. For [`ShortestPath`] those are
//! `retries`, `units_failed` and the router's `path_cache_hits`, and the
//! two traces must be equal once the records only an attempt that locks
//! nothing can add are set aside (`route` proposals — which also carry
//! the attempt ordinal — and failed `lock` outcomes). For
//! [`ProtocolRouter`] they are `retries` and the router's
//! `backoff_paths_skipped` (skips in `route` calls made), and the traces
//! must be equal once attempt ordinals are cut ([`without_attempts`]): an
//! attempt that proposes nothing leaves no record.

use spider_core::{execute, ExperimentConfig, SchemeConfig, TopologyConfig};
use spider_dynamics::DynamicsConfig;
use spider_faults::FaultConfig;
use spider_overload::{
    DrainConfig, FlashCrowdConfig, GriefingConfig, HotPairsConfig, OverloadConfig,
};
use spider_protocol::ProtocolRouter;
use spider_routing::ShortestPath;
use spider_sim::{
    AdmissionConfig, NetworkView, QueueConfig, QueueingMode, RouteProposal, RouteRequest, Router,
    RouterObs, SchedulingPolicy, SimConfig, SimReport, SizeDistribution, TopologyUpdate, Trace,
    UnitAck, UnitOutcome, WorkloadConfig,
};
use spider_tests::ledger_audit::without_attempts;
use spider_types::{Amount, NodeId, SimDuration};

/// A scheme without its `pins_single_path` and `proposes_nothing`
/// promises: the engine re-offers its pending payments at every poll.
struct Withheld<R>(R);

impl<R: Router> Router for Withheld<R> {
    fn name(&self) -> &'static str {
        self.0.name()
    }
    fn configure(&mut self, queueing: bool) {
        self.0.configure(queueing);
    }
    fn initialize(&mut self, view: &NetworkView<'_>) {
        self.0.initialize(view);
    }
    fn wants_prewarm(&self) -> bool {
        self.0.wants_prewarm()
    }
    fn prewarm(&mut self, pairs: &[(NodeId, NodeId)], view: &NetworkView<'_>) {
        self.0.prewarm(pairs, view);
    }
    fn route(&mut self, req: &RouteRequest, view: &NetworkView<'_>) -> Vec<RouteProposal> {
        self.0.route(req, view)
    }
    fn on_unit_outcome(&mut self, outcome: &UnitOutcome, view: &NetworkView<'_>) {
        self.0.on_unit_outcome(outcome, view);
    }
    fn on_unit_ack(&mut self, ack: &UnitAck, view: &NetworkView<'_>) {
        self.0.on_unit_ack(ack, view);
    }
    fn on_topology_change(&mut self, update: &TopologyUpdate, view: &NetworkView<'_>) {
        self.0.on_topology_change(update, view);
    }
    fn atomic(&self) -> bool {
        self.0.atomic()
    }
    fn window_gauge(&self) -> Option<f64> {
        self.0.window_gauge()
    }
    fn observability(&self) -> RouterObs {
        self.0.observability()
    }
}

#[derive(Debug, Clone, Copy)]
enum Net {
    /// The 32-node ISP graph at 4,000 XRP per channel, its §6.1 sizes.
    Isp,
    /// A 300-node Ripple-like graph, its §6.1 sizes.
    Ripple,
}

/// A congested five-second run: heavy retry pressure, many blocked hops.
fn experiment(net: Net, seed: u64) -> ExperimentConfig {
    let (topology, size, rate_per_sec, sender_skew_scale) = match net {
        Net::Isp => (
            TopologyConfig::Isp {
                capacity_xrp: 4_000,
            },
            SizeDistribution::RippleIsp,
            400.0,
            8.0,
        ),
        Net::Ripple => (
            TopologyConfig::RippleLike {
                nodes: 300,
                capacity_xrp: 1_000,
            },
            SizeDistribution::RippleFull,
            300.0,
            40.0,
        ),
    };
    ExperimentConfig {
        topology,
        workload: WorkloadConfig {
            count: (rate_per_sec * 3.0) as usize,
            rate_per_sec,
            size,
            sender_skew_scale,
        },
        sim: SimConfig {
            horizon: SimDuration::from_secs(5),
            ..SimConfig::default()
        },
        scheme: SchemeConfig::ShortestPath,
        dynamics: None,
        faults: None,
        overload: None,
        seed,
    }
}

/// A scheme under test.
#[derive(Debug, Clone, Copy)]
enum Scheme {
    /// [`ShortestPath`], lockstep: it pins.
    Shortest,
    /// [`ProtocolRouter`] with k = 4, hop by hop: it proposes nothing
    /// while its pair's windows are full.
    Protocol,
}

impl Scheme {
    fn router(self, withheld: bool) -> Box<dyn Router> {
        match (self, withheld) {
            (Scheme::Shortest, false) => Box::new(ShortestPath::new()),
            (Scheme::Shortest, true) => Box::new(Withheld(ShortestPath::new())),
            (Scheme::Protocol, false) => Box::new(ProtocolRouter::new(4)),
            (Scheme::Protocol, true) => Box::new(Withheld(ProtocolRouter::new(4))),
        }
    }

    /// The report as a JSON object with the work counters blanked.
    fn outcome_fields(self, mut r: SimReport) -> Vec<(String, serde_json::Value)> {
        r.retries = 0;
        let work = match self {
            Scheme::Shortest => {
                r.units_failed = 0;
                "path_cache_hits"
            }
            Scheme::Protocol => "backoff_paths_skipped",
        };
        r.router_counters.retain(|(k, _)| k != work);
        match serde_json::to_value(&r).expect("report serializes") {
            serde_json::Value::Object(fields) => fields,
            other => panic!("SimReport serialized as {other:?}"),
        }
    }

    /// The trace's JSONL lines without what only a skipped attempt moves.
    fn outcome_lines(self, trace: Trace) -> Vec<String> {
        let jsonl = trace.to_jsonl();
        match self {
            Scheme::Shortest => barren_attempts_cut(&jsonl),
            Scheme::Protocol => without_attempts(&jsonl).lines().map(String::from).collect(),
        }
    }
}

/// The trace's JSONL lines minus what only a barren attempt can add,
/// minus the record numbering those records shift, and minus the attempt
/// count a drop or refund carries (a work counter, like `retries`: it
/// counts attempts actually made, the last field of its line).
fn barren_attempts_cut(jsonl: &str) -> Vec<String> {
    jsonl
        .lines()
        .filter(|l| {
            let failed_lock = l.contains("\"ev\":\"lock\"") && l.ends_with("\"ok\":false}");
            !failed_lock && !l.contains("\"ev\":\"route\"")
        })
        .map(|l| match l.find(",\"attempts\":") {
            Some(at) => format!("{}}}", &l[..at]),
            None => l.to_string(),
        })
        .map(|l| match l.strip_prefix("{\"seq\":") {
            Some(rest) => rest
                .split_once(',')
                .expect("seq is followed by t_us")
                .1
                .to_string(),
            None => l,
        })
        .collect()
}

/// Runs `cfg` under `scheme` with and without its promise and checks that
/// nothing but the work counters tells the two apart. Returns `(elided,
/// polled)` reports.
fn assert_elision_is_invisible(
    label: &str,
    scheme: Scheme,
    cfg: &ExperimentConfig,
) -> (SimReport, SimReport) {
    let mut cfg = cfg.clone();
    cfg.sim.obs.trace = true;
    let traced = |withheld: bool| {
        let router = scheme.router(withheld);
        let out = execute(cfg.simulation(Some(router)).expect("builds"));
        (out.report, out.trace.expect("obs.trace is set"))
    };
    let (elided, elided_trace) = traced(false);
    let (polled, polled_trace) = traced(true);
    assert!(
        elided.retries <= polled.retries && elided.units_failed <= polled.units_failed,
        "{label}: elision cannot add work"
    );
    let a = scheme.outcome_fields(elided.clone());
    let b = scheme.outcome_fields(polled.clone());
    assert_eq!(a.len(), b.len(), "{label}: field counts");
    for ((name, got), (_, want)) in a.iter().zip(&b) {
        assert!(got == want, "{label}: SimReport::{name} differs");
    }
    let a = scheme.outcome_lines(elided_trace);
    let b = scheme.outcome_lines(polled_trace);
    for (i, (got, want)) in a.iter().zip(&b).enumerate() {
        assert_eq!(got, want, "{label}: traces diverge at kept record {i}");
    }
    assert_eq!(a.len(), b.len(), "{label}: trace lengths");
    (elided, polled)
}

const POLICIES: [SchedulingPolicy; 3] = [
    SchedulingPolicy::Srpt,
    SchedulingPolicy::Fifo,
    SchedulingPolicy::LargestRemaining,
];

#[test]
fn elision_is_invisible_across_policies_deadlines_and_mtus() {
    for net in [Net::Isp, Net::Ripple] {
        for seed in [3, 11, 29] {
            for policy in POLICIES {
                // Arrivals stop at 3 s: a 2 s deadline expires most of the
                // backlog inside the horizon, no deadline lets it pile up.
                for deadline in [None, Some(SimDuration::from_secs(2))] {
                    // Constant 120 XRP at MTU 20: every remainder is a
                    // whole number of MTUs (the skip tests a full MTU).
                    // The paper's sizes at MTU 10: drop-granular amounts
                    // no MTU divides (it tests the partial last chunk).
                    for mtu_divides in [true, false] {
                        let mut cfg = experiment(net, seed);
                        cfg.sim.scheduling = policy;
                        cfg.sim.deadline = deadline;
                        if mtu_divides {
                            cfg.workload.size = SizeDistribution::Constant { xrp: 120.0 };
                            cfg.sim.mtu = Amount::from_xrp(20);
                        }
                        let label = format!(
                            "{net:?} seed {seed} {policy:?} deadline {deadline:?} divides {mtu_divides}"
                        );
                        assert_elision_is_invisible(&label, Scheme::Shortest, &cfg);
                    }
                }
            }
        }
    }
}

/// A skip that silently stopped happening would pass every equality
/// above; this pins that it does happen, and by how much.
#[test]
fn elision_removes_most_retries_on_the_congested_isp_row() {
    let cfg = experiment(Net::Isp, 3);
    let (elided, polled) = assert_elision_is_invisible("ISP seed 3", Scheme::Shortest, &cfg);
    assert!(polled.retries > 1_000, "row is not congested enough");
    assert!(
        elided.retries * 4 < polled.retries,
        "{} retries with elision vs {} without",
        elided.retries,
        polled.retries
    );
    assert!(elided.units_failed * 4 < polled.units_failed);
}

#[test]
fn elision_is_invisible_under_churn() {
    // Closes, reopens, late opens and resizes: every applied event is a
    // topology callback, which ends the promise and forgets every pin.
    for net in [Net::Isp, Net::Ripple] {
        let mut cfg = experiment(net, 5);
        cfg.dynamics = Some(DynamicsConfig {
            close_rate_per_sec: 1.0,
            reopen_mean_secs: Some(1.0),
            resize_rate_per_sec: 1.0,
            spawn_fraction: 0.05,
            horizon_secs: 5.0,
            ..DynamicsConfig::default()
        });
        let (elided, polled) =
            assert_elision_is_invisible(&format!("{net:?} churn"), Scheme::Shortest, &cfg);
        assert!(elided.churn_channels_opened > 0 && elided.churn_channels_resized > 0);
        assert!(elided.retries < polled.retries);
    }
}

#[test]
fn elision_is_invisible_under_faults() {
    // The first fault outcome leaves the router's penalty table non-empty:
    // the promise is withdrawn mid-run and failover may pick another path
    // at any poll, so from then on nothing may be skipped.
    for net in [Net::Isp, Net::Ripple] {
        let mut cfg = experiment(net, 5);
        cfg.faults = Some(FaultConfig {
            horizon_secs: 5.0,
            ..FaultConfig::default()
        });
        let (elided, _) =
            assert_elision_is_invisible(&format!("{net:?} faults"), Scheme::Shortest, &cfg);
        assert!(elided.faults_injected > 0);
    }
}

#[test]
fn elision_is_invisible_under_onchain_rebalancing() {
    // Deposits credit a direction with no router callback at all; the
    // skip must see them because it reads balances at poll time.
    for net in [Net::Isp, Net::Ripple] {
        let mut cfg = experiment(net, 5);
        cfg.sim.rebalancing = Some(spider_sim::config::RebalancingConfig {
            trigger_fraction: 0.2,
            confirmation_delay: SimDuration::from_millis(700),
            ..Default::default()
        });
        let (elided, polled) =
            assert_elision_is_invisible(&format!("{net:?} deposits"), Scheme::Shortest, &cfg);
        assert!(elided.rebalance_ops > 0);
        assert!(elided.retries < polled.retries);
    }
}

#[test]
fn elision_is_invisible_under_griefing() {
    // Griefed units refund at their settle time and report to the router
    // as faults.
    for net in [Net::Isp, Net::Ripple] {
        let mut cfg = experiment(net, 5);
        cfg.overload = Some(OverloadConfig {
            flash_crowd: None,
            hot_pairs: None,
            drain: None,
            griefing: Some(GriefingConfig {
                fraction: 0.05,
                hold_secs: 1.0,
            }),
            horizon_secs: 5.0,
        });
        let (elided, _) =
            assert_elision_is_invisible(&format!("{net:?} griefing"), Scheme::Shortest, &cfg);
        assert!(elided.drops_by_reason.hop_timeout > 0);
    }
}

/// A hop-by-hop run of the §5 router on default queues: its windows
/// fill, and most of the backlog waits on them.
fn protocol_experiment(net: Net, seed: u64) -> ExperimentConfig {
    let mut cfg = experiment(net, seed);
    cfg.scheme = SchemeConfig::spider_protocol(4);
    cfg.sim.queueing = QueueingMode::PerChannelFifo(QueueConfig::default());
    cfg
}

#[test]
fn protocol_elision_is_invisible_under_the_isp_stress_mix() {
    // Faults start cooldowns (lost and stuck units, crashes), the attack
    // sheds into short queues and so trips breakers, and shaping
    // admission defers arrivals. Six seconds of arrivals with no
    // deadline keep payments pending until tripped breakers half-open,
    // so routes probe them.
    for seed in [3, 11] {
        let mut cfg = protocol_experiment(Net::Isp, seed);
        cfg.sim.queueing = QueueingMode::PerChannelFifo(QueueConfig {
            max_queue_units: 16,
            ..QueueConfig::default()
        });
        cfg.sim.shedding = true;
        cfg.sim.horizon = SimDuration::from_secs(10);
        cfg.workload.count *= 2;
        cfg.sim.admission = Some(AdmissionConfig {
            rate_per_sec: 600.0,
            burst: 32.0,
            defer: true,
        });
        cfg.faults = Some(FaultConfig {
            horizon_secs: 10.0,
            ..FaultConfig::default()
        });
        cfg.overload = Some(OverloadConfig {
            flash_crowd: Some(FlashCrowdConfig {
                start_secs: 1.0,
                duration_secs: 0.5,
                rate_multiplier: 2.0,
            }),
            hot_pairs: Some(HotPairsConfig::default()),
            drain: Some(DrainConfig::default()),
            griefing: Some(GriefingConfig {
                fraction: 0.05,
                hold_secs: 1.0,
            }),
            horizon_secs: 10.0,
        });
        let label = format!("protocol ISP stress seed {seed}");
        let (elided, polled) = assert_elision_is_invisible(&label, Scheme::Protocol, &cfg);
        let r = &elided;
        assert!(r.faults_injected > 0 && r.drops_by_reason.shed > 0 && r.admission_deferred > 0);
        let probes = r
            .router_counters
            .iter()
            .find(|(k, _)| k == "breaker_probes_allowed");
        assert!(
            probes.is_some_and(|&(_, n)| n > 0),
            "{label}: no breaker half-opened"
        );
        assert!(elided.retries < polled.retries, "{label}: nothing skipped");
    }
}

/// A skip that silently stopped happening would pass every equality
/// above; this pins that it does happen, and by how much.
#[test]
fn protocol_elision_removes_most_retries_on_the_congested_isp_row() {
    let cfg = protocol_experiment(Net::Isp, 3);
    let (elided, polled) =
        assert_elision_is_invisible("protocol ISP seed 3", Scheme::Protocol, &cfg);
    assert!(polled.retries > 500, "row is not congested enough");
    assert!(
        elided.retries * 3 < polled.retries,
        "{} retries with elision vs {} without",
        elided.retries,
        polled.retries
    );
}

/// Closes, reopens and resizes while units are mid-path: a topology
/// callback moves the router's candidates but keeps each pair's token.
/// A deadline expires payments that wait on a token.
#[test]
fn protocol_elision_is_invisible_on_a_fifo_ripple_run_with_churn() {
    let mut cfg = protocol_experiment(Net::Ripple, 5);
    cfg.sim.deadline = Some(SimDuration::from_secs(2));
    cfg.dynamics = Some(DynamicsConfig {
        close_rate_per_sec: 2.0,
        reopen_mean_secs: Some(1.0),
        resize_rate_per_sec: 1.0,
        spawn_fraction: 0.05,
        horizon_secs: 5.0,
        ..DynamicsConfig::default()
    });
    let (elided, polled) =
        assert_elision_is_invisible("protocol Ripple churn", Scheme::Protocol, &cfg);
    assert!(elided.units_dropped_churn > 0 && elided.churn_channels_opened > 0);
    assert!(elided.retries < polled.retries, "nothing skipped");
}
