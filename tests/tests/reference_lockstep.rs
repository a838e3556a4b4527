//! The lockstep engine against its executable specification
//! ([`spider_tests::reference`]).
//!
//! Small topologies × workloads × the three scheduling policies, with and
//! without a fault plan, each routed by a router written here and by the
//! real `ShortestPath`, `SpiderWaterfilling` and `Windowed`. The engine
//! batches what the specification does one unit at a time (a proposal's
//! full units lock in one pass and report to the router as counts; a
//! batch settles in runs), and skips the attempts a pinned path proves
//! barren; none of that may show in an outcome.
//!
//! The two reports must be equal field by field, except that the wall
//! clock (`profile`) and the engine's live event count (the
//! `calendar_events` series) are not outcomes, and that for a router
//! that pins (`ShortestPath`) the work counters an elided attempt would
//! have added (`retries`, `units_failed`, `path_cache_hits`) may differ.
//! The two traces must be equal modulo `seq`, normalised as in
//! `retry_elision.rs`: `route` records and failed `lock` records (an
//! attempt that locks nothing adds only those; the engine also counts,
//! rather than traces, the full units it does not try after one failed)
//! are set aside, and so is the attempt count a refund carries.

use proptest::prelude::*;
use spider_core::congestion::{WindowConfig, Windowed};
use spider_faults::{CrashConfig, FaultConfig, FaultPlan};
use spider_obs::trace::TraceEventKind;
use spider_routing::{ShortestPath, SpiderWaterfilling};
use spider_sim::{
    NetworkView, Perturbation, RouteProposal, RouteRequest, Router, SchedulingPolicy, SimConfig,
    SimReport, Simulation, TxnSpec, Workload,
};
use spider_tests::reference;
use spider_topology::{gen, Topology};
use spider_types::{Amount, DetRng, NodeId, SimDuration, SimTime};

/// A router written for the specification: the topology's shortest path,
/// proposed whole, split in two overlapping halves, or as one stray
/// proposal from the wrong end followed by more than
/// [`reference::MAX_PROPOSALS_PER_POLL`] slivers — by payment and
/// attempt.
struct SpecRouter {
    atomic: bool,
}

impl Router for SpecRouter {
    fn name(&self) -> &'static str {
        "reference-spec"
    }
    fn route(&mut self, req: &RouteRequest, view: &NetworkView<'_>) -> Vec<RouteProposal> {
        let Some(nodes) = view.topo.shortest_path(req.src, req.dst) else {
            return Vec::new();
        };
        let path = view.intern(&nodes);
        let prop = |amount| RouteProposal { path, amount };
        match (req.payment.0 + u64::from(req.attempt)) % 3 {
            0 => vec![prop(req.remaining)],
            1 => vec![prop(req.remaining / 2), prop(req.remaining)],
            _ => {
                let back: Vec<NodeId> = nodes.iter().rev().copied().collect();
                let stray = RouteProposal {
                    path: view.intern(&back),
                    amount: req.remaining,
                };
                let sliver = (req.remaining / 70).max(Amount::from_drops(1));
                std::iter::once(stray)
                    .chain((0..70).map(|_| prop(sliver)))
                    .collect()
            }
        }
    }
    fn atomic(&self) -> bool {
        self.atomic
    }
}

const POLICIES: [SchedulingPolicy; 3] = [
    SchedulingPolicy::Srpt,
    SchedulingPolicy::Fifo,
    SchedulingPolicy::LargestRemaining,
];

fn topology(kind: u64, capacity: Amount, rng: &mut DetRng) -> Topology {
    match kind {
        0 => gen::cycle(6, capacity),
        1 => gen::grid(3, 3, capacity),
        2 => gen::complete(5, capacity),
        _ => gen::erdos_renyi(9, 0.35, capacity, rng),
    }
}

/// `count` payments between distinct random nodes over the first 2.5 s,
/// in time order: of drop-granular sizes up to 25 XRP, or, with `whole`,
/// of 1 to 12 MTUs (then every chunk is a full MTU).
fn workload(
    topo: &Topology,
    count: usize,
    whole: Option<Amount>,
    rng: &mut DetRng,
) -> Vec<TxnSpec> {
    let n = topo.node_count();
    let mut times: Vec<f64> = (0..count).map(|_| rng.uniform() * 2.5).collect();
    times.sort_by(f64::total_cmp);
    times
        .into_iter()
        .map(|t| {
            let src = rng.index(n);
            let dst = (src + 1 + rng.index(n - 1)) % n;
            TxnSpec {
                time: SimTime::from_secs_f64(t),
                src: NodeId::from_index(src),
                dst: NodeId::from_index(dst),
                amount: match whole {
                    Some(mtu) => mtu * (1 + rng.index(12) as u64),
                    None => Amount::from_xrp_f64(0.3 + rng.uniform() * 25.0),
                },
            }
        })
        .collect()
}

/// The report as JSON fields, without what is not an outcome (and, for
/// a pinning router, without the work counters elision moves).
fn outcome_fields(mut r: SimReport, pins: bool) -> Vec<(String, serde_json::Value)> {
    r.profile = Default::default();
    for s in &mut r.samples.series {
        if s.name == "calendar_events" {
            s.values.clear();
        }
    }
    if pins {
        r.retries = 0;
        r.units_failed = 0;
        r.router_counters.retain(|(k, _)| k != "path_cache_hits");
    }
    match serde_json::to_value(&r).expect("report serializes") {
        serde_json::Value::Object(fields) => fields,
        other => panic!("SimReport serialized as {other:?}"),
    }
}

/// The trace records an outcome shows (see the module docs).
fn outcome_records(
    records: impl IntoIterator<Item = (u64, TraceEventKind)>,
) -> Vec<(u64, TraceEventKind)> {
    records
        .into_iter()
        .filter(|(_, k)| {
            !matches!(
                k,
                TraceEventKind::RouteProposal { .. }
                    | TraceEventKind::LockOutcome { ok: false, .. }
            )
        })
        .map(|(t, mut k)| {
            if let TraceEventKind::UnitRefunded { attempts, .. } = &mut k {
                *attempts = 0;
            }
            (t, k)
        })
        .collect()
}

/// Builds a fresh router for one run.
type MakeRouter = dyn Fn() -> Box<dyn Router>;

/// Runs one case on the engine and on the specification, asserts that
/// their outcomes agree, and returns the engine's report.
fn check_case(
    label: &str,
    topo: &Topology,
    txns: &[TxnSpec],
    cfg: &SimConfig,
    plan: Option<&FaultPlan>,
    router: &MakeRouter,
    pins: bool,
) -> SimReport {
    let mut sim = Simulation::new(
        topo.clone(),
        Workload {
            txns: txns.to_vec(),
        },
        router(),
        cfg.clone(),
    )
    .expect("a valid configuration");
    if let Some(plan) = plan {
        sim.install(Perturbation::Faults(plan.clone())).unwrap();
    }
    let report = sim.run();
    sim.check_conservation();
    let trace = sim.take_trace().expect("the run is traced");
    let engine_records = trace.events().map(|e| (e.t_us, e.kind.clone()));
    let mut spec_router = router();
    let spec = reference::run(topo, txns, spec_router.as_mut(), cfg, plan);
    let got = outcome_fields(report.clone(), pins);
    let want = outcome_fields(spec.report, pins);
    assert_eq!(got.len(), want.len(), "{label}: field counts");
    for ((name, a), (_, b)) in got.iter().zip(&want) {
        assert!(
            a == b,
            "{label}: SimReport::{name} differs: engine {a:?} spec {b:?}"
        );
    }
    let got = outcome_records(engine_records);
    let want = outcome_records(spec.trace);
    for (i, (a, b)) in got.iter().zip(&want).enumerate() {
        assert_eq!(a, b, "{label}: traces diverge at kept record {i}");
    }
    assert_eq!(got.len(), want.len(), "{label}: trace lengths");
    report
}

/// One drawn case: a topology, a workload, a configuration and maybe a
/// fault plan.
#[derive(Debug, Clone, Copy)]
struct Case {
    seed: u64,
    kind: u64,
    policy: usize,
    faulted: bool,
    mtu_tenths: u64,
    whole: bool,
    deadline: bool,
    count: usize,
}

/// Checks `case` under every router; returns the engine's reports.
fn check_drawn_case(case: Case) -> Vec<SimReport> {
    let Case {
        seed,
        kind,
        policy,
        faulted,
        mtu_tenths,
        whole,
        deadline,
        count,
    } = case;
    let mut rng = DetRng::new(seed);
    let mtu = Amount::from_xrp_f64(mtu_tenths as f64 / 10.0);
    // With whole-MTU payments, each side of a channel opens with a whole
    // number of MTUs, so balances meet chunk sizes exactly (the bound of
    // the pinned-path skip).
    let capacity = match whole {
        true => mtu * (10 + 2 * rng.index(40) as u64),
        false => Amount::from_xrp(20 + rng.index(80) as u64),
    };
    let topo = topology(kind, capacity, &mut rng);
    let txns = workload(&topo, count, whole.then_some(mtu), &mut rng);
    let mut cfg = SimConfig {
        horizon: SimDuration::from_secs(4),
        mtu,
        scheduling: POLICIES[policy],
        deadline: deadline.then(|| SimDuration::from_millis(1_500)),
        ..SimConfig::default()
    };
    cfg.obs.trace = true;
    let plan = faulted.then(|| {
        let faults = FaultConfig {
            message_loss_prob: 0.04,
            ack_loss_prob: 0.02,
            stuck_unit_prob: 0.02,
            crash: Some(CrashConfig {
                rate_per_sec: 1.0,
                recovery_mean_secs: Some(0.5),
            }),
            horizon_secs: 4.0,
            ..FaultConfig::default()
        };
        FaultPlan::generate(&topo, &faults, &mut rng).expect("a valid fault plan")
    });
    let label = format!("{case:?}");
    let atomic = seed.is_multiple_of(4);
    let windowed = || -> Box<dyn Router> {
        let window = WindowConfig {
            initial: Amount::from_xrp(15),
        };
        Box::new(Windowed::new(ShortestPath::new(), window))
    };
    let routers: [(&str, &MakeRouter, bool); 4] = [
        ("spec", &move || Box::new(SpecRouter { atomic }), false),
        ("shortest", &|| Box::new(ShortestPath::new()), true),
        (
            "waterfilling",
            &|| Box::new(SpiderWaterfilling::new(2)),
            false,
        ),
        ("windowed", &windowed, false),
    ];
    routers
        .into_iter()
        .map(|(name, router, pins)| {
            let label = format!("{label} router {name}");
            check_case(&label, &topo, &txns, &cfg, plan.as_ref(), router, pins)
        })
        .collect()
}

proptest! {
    #[test]
    fn lockstep_engine_matches_its_specification(
        seed in 0u64..1_000_000,
        kind in 0u64..4,
        policy in 0usize..3,
        faulted in 0u8..2,
        mtu_tenths in 5u64..40,
        whole in 0u8..2,
        deadline in 0u8..2,
        count in 20usize..90,
    ) {
        check_drawn_case(Case {
            seed,
            kind,
            policy,
            faulted: faulted == 1,
            mtu_tenths,
            whole: whole == 1,
            deadline: deadline == 1,
            count,
        });
    }
}

/// Agreement proves little if the cases never reach a rule: this pins
/// that a fixed handful of them reaches each one the specification
/// states.
#[test]
fn the_cases_reach_every_rule() {
    let mut reports = Vec::new();
    for seed in 0..12u64 {
        reports.extend(check_drawn_case(Case {
            seed,
            kind: seed % 4,
            policy: (seed % 3) as usize,
            faulted: seed % 2 == 1,
            mtu_tenths: 10 + seed,
            whole: seed % 4 < 2,
            deadline: seed % 3 != 0,
            count: 60,
        }));
    }
    let sum = |f: fn(&SimReport) -> u64| reports.iter().map(f).sum::<u64>();
    assert!(sum(|r| r.completed_payments) > 0, "completions");
    assert!(sum(|r| r.units_failed) > 0, "failed locks");
    assert!(sum(|r| r.retries) > 0, "retries");
    assert!(sum(|r| r.drops_by_reason.expired) > 0, "expiry at settle");
    assert!(sum(|r| r.drops_by_reason.message_lost) > 0, "message loss");
    assert!(sum(|r| r.drops_by_reason.hop_timeout) > 0, "stuck units");
    assert!(sum(|r| r.drops_by_reason.node_crashed) > 0, "crashes");
    assert!(
        sum(|r| (r.completed_payments < r.attempted_payments) as u64) > 0,
        "unfinished payments"
    );
    assert!(
        reports
            .iter()
            .any(|r| r.window_hist.count > 0 && r.window_hist.min < 15.0),
        "a window backed off"
    );
}
