//! Metamorphic relations: transformations of an experiment's input whose
//! effect on the outcome is known exactly, so no reference value is
//! needed.

use spider_core::experiment::demand_graph;
use spider_core::{ExperimentConfig, SchemeConfig};
use spider_obs::trace::{parse_event, TraceEvent, TraceEventKind};
use spider_sim::{
    QueueConfig, QueueingMode, SimConfig, SimReport, Simulation, SizeDistribution, Workload,
    WorkloadConfig,
};
use spider_tests::ledger_audit::{audited_run, max_silence};
use spider_topology::{gen, Topology};
use spider_types::{Amount, DetRng, NodeId, SimDuration};

/// One event line of a rendered trace, read back.
fn event(line: &str) -> TraceEvent {
    parse_event(line).unwrap_or_else(|e| panic!("{e}"))
}

/// Runs `scheme` on a 2,000-XRP ISP graph under a 3,000-payment workload,
/// with every capacity, payment amount and the MTU multiplied by `k`.
fn run_scaled(scheme: SchemeConfig, queueing: QueueingMode, k: u64) -> SimReport {
    let scale = |a: Amount| Amount::from_drops(a.drops() * k);
    let topo = gen::isp_topology(Amount::from_xrp(2_000)).with_capacities(|_, c| scale(c.capacity));
    let mut workload = Workload::generate(
        topo.node_count(),
        &WorkloadConfig {
            count: 3_000,
            rate_per_sec: 300.0,
            size: SizeDistribution::RippleIsp,
            sender_skew_scale: 8.0,
        },
        &mut DetRng::new(42),
    );
    for txn in &mut workload.txns {
        txn.amount = scale(txn.amount);
    }
    let cfg = SimConfig {
        mtu: scale(Amount::from_xrp(10)),
        horizon: SimDuration::from_secs(12),
        queueing,
        ..SimConfig::default()
    };
    let demands = demand_graph(&workload, topo.node_count());
    let router = scheme.build(&topo, &demands, cfg.confirmation_delay.as_secs_f64());
    Simulation::new(topo, workload, router, cfg)
        .expect("builds")
        .run()
}

/// Money has no natural unit: scaling every capacity, payment and the MTU
/// by `k` splits each payment into the same units, which meet the same
/// balance comparisons, so every count is unchanged and every volume
/// scales by exactly `k`. The LP router (which rounds through `f64`
/// weights) and the §5 protocol (whose AIMD windows are absolute amounts)
/// are not scale-free and are left out.
#[test]
fn scaling_every_amount_changes_no_outcome() {
    const K: u64 = 4;
    let schemes = [
        SchemeConfig::ShortestPath,
        SchemeConfig::SpiderWaterfilling { paths: 4 },
    ];
    let modes = [
        ("lockstep", QueueingMode::Lockstep),
        ("fifo", QueueingMode::PerChannelFifo(QueueConfig::default())),
    ];
    for scheme in schemes {
        for (mode, queueing) in &modes {
            let base = run_scaled(scheme, queueing.clone(), 1);
            let scaled = run_scaled(scheme, queueing.clone(), K);
            let label = format!("{} / {mode}", base.scheme);
            assert!(base.completed_payments > 0, "{label}: nothing completed");
            let counts = |r: &SimReport| {
                [
                    r.completed_payments,
                    r.units_locked,
                    r.units_failed,
                    r.units_dropped,
                    r.units_queued,
                    r.units_marked,
                    r.retries,
                ]
            };
            assert_eq!(counts(&base), counts(&scaled), "{label}: counts moved");
            assert_eq!(
                scaled.delivered_volume.drops(),
                base.delivered_volume.drops() * K,
                "{label}: delivered volume"
            );
            assert_eq!(
                base.success_ratio().to_bits(),
                scaled.success_ratio().to_bits(),
                "{label}: success ratio"
            );
            assert_eq!(
                base.success_volume().to_bits(),
                scaled.success_volume().to_bits(),
                "{label}: success volume"
            );
        }
    }
}

/// Runs `scheme` traced and audited on the 2,000-XRP ISP graph under a
/// 1,500-payment workload, with every arrival and the horizon `shift`
/// later: the report and the rendered trace.
fn run_shifted(
    scheme: SchemeConfig,
    queueing: QueueingMode,
    shift: SimDuration,
) -> (SimReport, String) {
    let topo = gen::isp_topology(Amount::from_xrp(2_000));
    let mut workload = Workload::generate(
        topo.node_count(),
        &WorkloadConfig {
            count: 1_500,
            rate_per_sec: 300.0,
            size: SizeDistribution::RippleIsp,
            sender_skew_scale: 8.0,
        },
        &mut DetRng::new(42),
    );
    for txn in &mut workload.txns {
        txn.time += shift;
    }
    let mut cfg = SimConfig {
        mtu: Amount::from_xrp(10),
        horizon: SimDuration::from_secs(6) + shift,
        queueing,
        ..SimConfig::default()
    };
    cfg.obs.trace = true;
    let demands = demand_graph(&workload, topo.node_count());
    let router = scheme.build(&topo, &demands, cfg.confirmation_delay.as_secs_f64());
    let silence = max_silence(&ExperimentConfig {
        sim: cfg.clone(),
        scheme,
        ..ExperimentConfig::default()
    });
    let sim = Simulation::new(topo, workload, router, cfg).expect("builds");
    let (out, jsonl) = audited_run(&format!("{scheme:?} shifted {shift:?}"), silence, sim);
    (out.report, jsonl)
}

/// Time has no natural origin: shifting every arrival and the horizon by
/// 9 s — 90 poll intervals and 9 sampler cadences, and past the
/// calendar wheel's 4.1 s span, so the first arrival enters through its
/// overflow tier — changes no outcome, and moves every trace record by
/// exactly 9 s and changes nothing else about it. This checks the
/// calendar's bucket boundaries and every absolute-time assumption.
#[test]
fn shifting_every_arrival_changes_no_outcome() {
    const SHIFT_US: u64 = 9_000_000;
    let schemes = [
        SchemeConfig::ShortestPath,
        SchemeConfig::SpiderWaterfilling { paths: 4 },
    ];
    let modes = [
        ("lockstep", QueueingMode::Lockstep),
        ("fifo", QueueingMode::PerChannelFifo(QueueConfig::default())),
    ];
    for scheme in schemes {
        for (mode, queueing) in &modes {
            let (base, base_trace) = run_shifted(scheme, queueing.clone(), SimDuration::ZERO);
            let (shifted, shifted_trace) =
                run_shifted(scheme, queueing.clone(), SimDuration::from_micros(SHIFT_US));
            let label = format!("{} / {mode}", base.scheme);
            assert!(base.completed_payments > 0, "{label}: nothing completed");
            let outcome = |r: &SimReport| {
                (
                    [
                        r.attempted_payments,
                        r.completed_payments,
                        r.units_locked,
                        r.units_failed,
                        r.units_dropped,
                        r.units_queued,
                        r.units_marked,
                        r.units_acked,
                        r.retries,
                        r.unit_hops_sum,
                    ],
                    [r.attempted_volume, r.delivered_volume, r.completed_volume],
                    r.drops_by_reason,
                    format!("{:?}", r.latency_hist),
                )
            };
            assert_eq!(outcome(&base), outcome(&shifted), "{label}: outcome moved");
            assert_eq!(
                base_trace.lines().count(),
                shifted_trace.lines().count(),
                "{label}: trace length"
            );
            for (a, b) in base_trace.lines().zip(shifted_trace.lines()) {
                if a.starts_with("{\"ev\":\"path\"") {
                    assert_eq!(a, b, "{label}: path line");
                    continue;
                }
                let (ea, eb) = (event(a), event(b));
                assert_eq!(eb.t_us, ea.t_us + SHIFT_US, "{label}: {a} vs {b}");
                assert_eq!((ea.seq, ea.kind), (eb.seq, eb.kind), "{label}: {a} vs {b}");
            }
        }
    }
}

/// Runs `scheme` traced and audited on the 2,000-XRP ISP graph under a
/// 1,500-payment workload; with `relabel`, on a copy of the graph whose
/// node `i` is node `2i + 1` of `2n + 1` (the even ids isolated), under
/// the same workload relabelled the same way. The channels are added in
/// their original order, so channel ids do not change. Returns the report
/// and the rendered trace.
fn run_relabelled(
    scheme: SchemeConfig,
    queueing: QueueingMode,
    relabel: bool,
) -> (SimReport, String) {
    let base = gen::isp_topology(Amount::from_xrp(2_000));
    let mut workload = Workload::generate(
        base.node_count(),
        &WorkloadConfig {
            count: 1_500,
            rate_per_sec: 300.0,
            size: SizeDistribution::RippleIsp,
            sender_skew_scale: 8.0,
        },
        &mut DetRng::new(42),
    );
    let topo = if relabel {
        let mut b = Topology::builder(2 * base.node_count() + 1);
        for (_, c) in base.channels() {
            b.channel(odd(c.u), odd(c.v), c.capacity)
                .expect("relabelled endpoints are distinct known nodes");
        }
        for txn in &mut workload.txns {
            (txn.src, txn.dst) = (odd(txn.src), odd(txn.dst));
        }
        b.build()
    } else {
        base
    };
    let mut cfg = SimConfig {
        mtu: Amount::from_xrp(10),
        horizon: SimDuration::from_secs(6),
        queueing,
        ..SimConfig::default()
    };
    cfg.obs.trace = true;
    let demands = demand_graph(&workload, topo.node_count());
    let router = scheme.build(&topo, &demands, cfg.confirmation_delay.as_secs_f64());
    let silence = max_silence(&ExperimentConfig {
        sim: cfg.clone(),
        scheme,
        ..ExperimentConfig::default()
    });
    let sim = Simulation::new(topo, workload, router, cfg).expect("builds");
    let (out, jsonl) = audited_run(&format!("{scheme:?} relabelled {relabel}"), silence, sim);
    (out.report, jsonl)
}

/// Node `i` of the relabelled graph: `2i + 1`.
fn odd(n: NodeId) -> NodeId {
    NodeId(2 * n.0 + 1)
}

/// Back from [`odd`].
fn unodd(n: NodeId) -> NodeId {
    assert_eq!(n.0 % 2, 1, "an even node id is isolated: {n:?}");
    NodeId(n.0 / 2)
}

/// A relabelled trace's `path` line with its nodes mapped back.
fn unodd_path_line(line: &str) -> String {
    let (head, nodes) = line.split_once("\"nodes\":[").expect("a path line");
    let nodes = nodes.trim_end_matches("]}").split(',');
    let nodes: Vec<String> = nodes
        .map(|n| unodd(NodeId(n.parse().expect("a node id"))).0.to_string())
        .collect();
    format!("{head}\"nodes\":[{}]}}", nodes.join(","))
}

/// Node ids carry no meaning beyond their order: relabelling node `i` as
/// `2i + 1`, among isolated even ids, keeps every adjacency list in the
/// same sorted order, so every BFS and lex-min tie-break and every channel
/// and path id come out the same. Every count, volume and histogram is
/// bit-equal, and the traces are equal once node ids are mapped back.
#[test]
fn relabelling_nodes_in_order_changes_no_outcome() {
    let schemes = [
        SchemeConfig::ShortestPath,
        SchemeConfig::SpiderWaterfilling { paths: 4 },
    ];
    let modes = [
        ("lockstep", QueueingMode::Lockstep),
        ("fifo", QueueingMode::PerChannelFifo(QueueConfig::default())),
    ];
    for scheme in schemes {
        for (mode, queueing) in &modes {
            let (base, base_trace) = run_relabelled(scheme, queueing.clone(), false);
            let (relabelled, relabelled_trace) = run_relabelled(scheme, queueing.clone(), true);
            let label = format!("{} / {mode}", base.scheme);
            assert!(base.completed_payments > 0, "{label}: nothing completed");
            let outcome = |r: &SimReport| {
                (
                    [
                        r.attempted_payments,
                        r.completed_payments,
                        r.units_locked,
                        r.units_failed,
                        r.units_dropped,
                        r.units_queued,
                        r.units_marked,
                        r.units_acked,
                        r.retries,
                        r.unit_hops_sum,
                    ],
                    [r.attempted_volume, r.delivered_volume, r.completed_volume],
                    r.drops_by_reason,
                    format!("{:?}", r.latency_hist),
                    format!("{:?}", r.path_length_hist),
                    [r.latency_hist.sum, r.path_length_hist.sum].map(f64::to_bits),
                )
            };
            assert_eq!(
                outcome(&base),
                outcome(&relabelled),
                "{label}: outcome moved"
            );
            assert_eq!(
                base_trace.lines().count(),
                relabelled_trace.lines().count(),
                "{label}: trace length"
            );
            for (a, b) in base_trace.lines().zip(relabelled_trace.lines()) {
                if a.starts_with("{\"ev\":\"path\"") {
                    assert_eq!(a, unodd_path_line(b), "{label}: path line");
                    continue;
                }
                let mut want = event(b);
                if let TraceEventKind::PaymentArrival { src, dst, .. } = &mut want.kind {
                    (*src, *dst) = (unodd(*src), unodd(*dst));
                }
                assert_eq!(event(a), want, "{label}: {a} vs {b}");
            }
        }
    }
}
