//! Criterion microbenchmarks for the core data structures and algorithms:
//! the per-operation costs behind the paper's overhead arguments. §3 says
//! max-flow "has high overhead, requiring O(|V|·|E|²) computation per
//! transaction" (Edmonds–Karp's bound); `maxflow-isp` times Dinic, the
//! solver the max-flow scheme runs, against Spider's per-request path
//! selection.

use criterion::{criterion_group, criterion_main, Criterion};
use spider_lp::fluid::{FluidProblem, PathSelection};
use spider_lp::paths::k_edge_disjoint_paths;
use spider_lp::primal_dual::{solve_problem, PrimalDualConfig};
use spider_maxflow::FlowNetwork;
use spider_paygraph::decompose::decompose;
use spider_paygraph::generate::skewed_demand;
use spider_sim::{ChannelState, NetworkView, PathTable, RouteRequest, Router};
use spider_topology::gen;
use spider_types::{Amount, DetRng, NodeId, PaymentId, SimTime};
use std::hint::black_box;

fn isp_flow_network() -> FlowNetwork {
    let topo = gen::isp_topology(Amount::from_xrp(30_000));
    let mut net = FlowNetwork::new(topo.node_count());
    for (_, ch) in topo.channels() {
        net.add_bidirectional(ch.u, ch.v, 15_000_000_000, 15_000_000_000);
    }
    net
}

fn bench_maxflow(c: &mut Criterion) {
    let mut g = c.benchmark_group("maxflow-isp");
    g.bench_function("dinic", |b| {
        b.iter_batched(
            isp_flow_network,
            |mut net| black_box(net.max_flow_dinic(NodeId(8), NodeId(20))),
            criterion::BatchSize::SmallInput,
        )
    });
    g.finish();
}

fn bench_paths(c: &mut Criterion) {
    let topo = gen::isp_topology(Amount::from_xrp(30_000));
    let mut g = c.benchmark_group("paths-isp");
    g.bench_function("edge_disjoint_k4", |b| {
        b.iter(|| black_box(k_edge_disjoint_paths(&topo, NodeId(8), NodeId(20), 4)))
    });
    // The per-source batched fill vs the per-pair oracle, over every
    // destination of one source — the candidate-prefill hot loop.
    let dsts: Vec<NodeId> = (0..topo.node_count() as u32)
        .filter(|&d| d != 8)
        .map(NodeId)
        .collect();
    g.bench_function("edge_disjoint_k4_all_dsts_per_pair", |b| {
        b.iter(|| {
            for &d in &dsts {
                black_box(k_edge_disjoint_paths(&topo, NodeId(8), d, 4));
            }
        })
    });
    g.bench_function("edge_disjoint_k4_all_dsts_source_oracle", |b| {
        let csr = spider_lp::paths::CsrGraph::new(&topo);
        let mut out = spider_lp::paths::FlatPaths::new();
        b.iter(|| {
            let mut oracle = spider_lp::paths::SourceOracle::new(&csr, NodeId(8));
            out.clear();
            for &d in &dsts {
                black_box(oracle.edge_disjoint(d, 4, &[], &mut out));
            }
        })
    });
    // The same kernel at paper scale (59-word bitset rows, hubs with
    // hundreds of channels, 5-6-hop detours for candidates 2-4): a search
    // regression shows here without running the repo benchmark.
    let mut rng = DetRng::new(42);
    let ripple = gen::ripple_like(gen::RIPPLE_NODES, Amount::from_xrp(30_000), &mut rng);
    let csr = spider_lp::paths::CsrGraph::new(&ripple);
    let pairs: Vec<(NodeId, NodeId)> = (0..256)
        .map(|_| {
            let pick = |rng: &mut DetRng| NodeId(rng.index(ripple.node_count()) as u32);
            (pick(&mut rng), pick(&mut rng))
        })
        .collect();
    g.bench_function("edge_disjoint_k4_ripple_256_pairs", |b| {
        let mut oracle = spider_lp::paths::SourceOracle::new(&csr, NodeId(0));
        let mut out = spider_lp::paths::FlatPaths::new();
        b.iter(|| {
            out.clear();
            for &(s, d) in &pairs {
                oracle.retarget(s);
                black_box(oracle.edge_disjoint(d, 4, &[], &mut out));
            }
        })
    });
    g.finish();
}

fn bench_lp(c: &mut Criterion) {
    let topo = gen::paper_example_topology(Amount::from_xrp(1_000_000));
    let demands = spider_paygraph::examples::paper_example_demands();
    let mut g = c.benchmark_group("fluid-lp");
    g.bench_function("simplex_paper_example", |b| {
        b.iter(|| {
            let p = FluidProblem::new(&topo, &demands, 0.5, PathSelection::KShortest(4));
            black_box(p.solve_balanced().expect("solves"))
        })
    });
    g.bench_function("primal_dual_1k_iters", |b| {
        let problem = FluidProblem::new(&topo, &demands, 0.5, PathSelection::KShortest(4));
        let mut cfg = PrimalDualConfig::for_demand_scale(2.0);
        cfg.iterations = 1_000;
        cfg.sample_every = 1_000;
        b.iter(|| black_box(solve_problem(&topo, &demands, 0.5, &problem, &cfg)))
    });
    g.finish();
}

fn bench_decompose(c: &mut Criterion) {
    let mut rng = DetRng::new(5);
    let demands = skewed_demand(100, 600, 1_000.0, 12.0, &mut rng);
    c.bench_function("circulation_decompose_100n", |b| {
        b.iter(|| black_box(decompose(&demands, 1e-6)))
    });
}

fn bench_routing(c: &mut Criterion) {
    let topo = gen::isp_topology(Amount::from_xrp(30_000));
    let channels: Vec<ChannelState> = topo
        .channels()
        .map(|(_, ch)| ChannelState::split_equally(ch.capacity))
        .collect();
    let req = RouteRequest {
        payment: PaymentId(0),
        src: NodeId(8),
        dst: NodeId(20),
        remaining: Amount::from_xrp(500),
        total: Amount::from_xrp(500),
        mtu: Amount::from_xrp(10),
        attempt: 0,
    };
    let mut g = c.benchmark_group("route-call-isp");
    g.bench_function("spider_waterfilling", |b| {
        let mut r = spider_routing::SpiderWaterfilling::new(4);
        let paths = PathTable::new();
        let view = NetworkView {
            topo: &topo,
            channels: &channels,
            paths: &paths,
            now: SimTime::ZERO,
        };
        r.route(&req, &view); // warm the path cache, as in steady state
        b.iter(|| black_box(r.route(&req, &view)))
    });
    g.bench_function("shortest_path_cached", |b| {
        let mut r = spider_routing::ShortestPath::new();
        let paths = PathTable::new();
        let view = NetworkView {
            topo: &topo,
            channels: &channels,
            paths: &paths,
            now: SimTime::ZERO,
        };
        r.route(&req, &view);
        b.iter(|| black_box(r.route(&req, &view)))
    });
    g.bench_function("max_flow", |b| {
        let mut r = spider_routing::MaxFlow::new();
        let paths = PathTable::new();
        let view = NetworkView {
            topo: &topo,
            channels: &channels,
            paths: &paths,
            now: SimTime::ZERO,
        };
        b.iter(|| black_box(r.route(&req, &view)))
    });
    g.bench_function("speedymurmurs", |b| {
        let mut r = spider_routing::SpeedyMurmurs::new(&topo, 3);
        let paths = PathTable::new();
        let view = NetworkView {
            topo: &topo,
            channels: &channels,
            paths: &paths,
            now: SimTime::ZERO,
        };
        b.iter(|| black_box(r.route(&req, &view)))
    });
    g.finish();
}

/// The per-unit hot path: bottleneck probing over interned hops vs the
/// legacy per-hop `channel_between` walk.
fn bench_path_bottleneck(c: &mut Criterion) {
    let topo = gen::isp_topology(Amount::from_xrp(30_000));
    let channels: Vec<ChannelState> = topo
        .channels()
        .map(|(_, ch)| ChannelState::split_equally(ch.capacity))
        .collect();
    let paths = PathTable::new();
    let view = NetworkView {
        topo: &topo,
        channels: &channels,
        paths: &paths,
        now: SimTime::ZERO,
    };
    let nodes = topo
        .shortest_path(NodeId(8), NodeId(20))
        .expect("reachable");
    let id = view.intern(&nodes);
    let mut g = c.benchmark_group("path-bottleneck-isp");
    g.bench_function("interned_hops", |b| {
        b.iter(|| black_box(view.bottleneck(black_box(id))))
    });
    g.bench_function("node_walk_channel_between", |b| {
        b.iter(|| black_box(view.path_bottleneck(black_box(&nodes))))
    });
    g.finish();
}

/// One engine step in isolation: a single payment's arrival → lock →
/// settle cycle, dominated by event dispatch and channel updates.
fn bench_engine_step(c: &mut Criterion) {
    use spider_sim::{SimConfig, Simulation, TxnSpec, Workload};
    use spider_types::SimDuration;
    let make = || {
        let topo = gen::isp_topology(Amount::from_xrp(30_000));
        let router = Box::new(spider_routing::ShortestPath::new());
        let workload = Workload {
            txns: vec![TxnSpec {
                time: SimTime::from_micros(1_000),
                src: NodeId(8),
                dst: NodeId(20),
                amount: Amount::from_xrp(100),
            }],
        };
        let cfg = SimConfig {
            horizon: SimDuration::from_secs(2),
            ..SimConfig::default()
        };
        Simulation::new(topo, workload, router, cfg).expect("builds")
    };
    c.bench_function("engine_step_single_payment", |b| {
        b.iter_batched(
            make,
            |mut sim| black_box(sim.run()),
            criterion::BatchSize::SmallInput,
        )
    });
}

fn bench_end_to_end(c: &mut Criterion) {
    use spider_core::{ExperimentConfig, SchemeConfig, TopologyConfig};
    use spider_sim::{SimConfig, WorkloadConfig};
    use spider_types::SimDuration;
    let cfg = ExperimentConfig {
        topology: TopologyConfig::Isp {
            capacity_xrp: 10_000,
        },
        workload: WorkloadConfig::small(1_000, 1_000.0),
        sim: SimConfig {
            horizon: SimDuration::from_secs(2),
            ..SimConfig::default()
        },
        scheme: SchemeConfig::SpiderWaterfilling { paths: 4 },
        dynamics: None,
        faults: None,
        overload: None,
        seed: 1,
    };
    c.bench_function("sim_1k_payments_isp", |b| {
        b.iter(|| black_box(cfg.run().expect("runs")))
    });
}

/// The engine calendar: bucketed calendar queue vs the binary heap it
/// replaced, on an engine-shaped mix (steady near-future settles/hops
/// plus occasional far-future timeouts), interleaved push/pop.
fn bench_calendar(c: &mut Criterion) {
    use spider_sim::CalendarQueue;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;
    const N: u64 = 50_000;
    // Deterministic pseudo-random deltas: mostly < 1 s, every 16th ~ 10 s.
    let delta = |i: u64| {
        let h = i.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 40;
        if i.is_multiple_of(16) {
            10_000_000 + h
        } else {
            h % 1_000_000
        }
    };
    let mut g = c.benchmark_group("calendar-queue");
    g.bench_function("calendar_push_pop_50k", |b| {
        b.iter(|| {
            let mut q = CalendarQueue::new();
            let mut now = 0u64;
            for i in 0..N {
                q.push(SimTime::from_micros(now + delta(i)), i, i as usize);
                // Interleave: every other op pops (half the queue drains
                // during the run, half at the end — the engine's shape).
                if i % 2 == 1 {
                    let (t, _, _) = q.pop().expect("non-empty");
                    now = now.max(t.micros());
                }
            }
            while let Some(e) = q.pop() {
                black_box(e);
            }
        })
    });
    g.bench_function("binary_heap_push_pop_50k", |b| {
        b.iter(|| {
            let mut q: BinaryHeap<Reverse<(u64, u64, usize)>> = BinaryHeap::new();
            let mut now = 0u64;
            for i in 0..N {
                q.push(Reverse((now + delta(i), i, i as usize)));
                if i % 2 == 1 {
                    let Reverse((t, _, _)) = q.pop().expect("non-empty");
                    now = now.max(t);
                }
            }
            while let Some(e) = q.pop() {
                black_box(e);
            }
        })
    });
    g.finish();
}

/// Cache repair at the `ripple1k-churn-waterfilling` workload's scale
/// (the repo benchmark's `routing.cache.repair_s`, tracked here too): its
/// 1,000-node Ripple-like graph, its 12,876 prewarmed pairs under k = 4
/// edge-disjoint paths.
///
/// * `cache_repair_close_reopen_hub` — an iteration closes, then reopens,
///   the channel most candidates cross. The close re-searches every pair
///   through the hub from its first candidate crossing it; the reopen,
///   the pairs whose candidates a route through the hub could tie.
/// * `cache_repair_churn_schedule` — the common case: an iteration replays
///   the workload's own seed-42 churn schedule (the benchmark replay's 40
///   updates, mostly single opens of ordinary channels) on a clone of the
///   prefilled cache.
fn bench_cache_repair(c: &mut Criterion) {
    use spider_core::TopologyConfig;
    use spider_dynamics::{ChurnSchedule, DynamicsConfig};
    use spider_routing::{PathCache, PathPolicy};
    use spider_sim::{SizeDistribution, TopologyUpdate, Workload, WorkloadConfig};
    use spider_types::{ChannelId, SimDuration, TopologyChange};
    const RATE: f64 = 75_000.0 / 85.0;
    let nodes = 1_000;
    let topology = TopologyConfig::RippleLike {
        nodes,
        capacity_xrp: 4_000,
    };
    let topo = topology
        .build(&DetRng::new(42))
        .expect("a valid Ripple-like config");
    let workload = WorkloadConfig {
        count: (15.0 * RATE) as usize,
        rate_per_sec: RATE,
        size: SizeDistribution::RippleFull,
        sender_skew_scale: nodes as f64 / 8.0,
    };
    let arrivals = Workload::generate(nodes, &workload, &mut DetRng::new(42).fork("workload"));
    let horizon = SimDuration::from_secs_f64(workload.count as f64 / RATE + 1.0);
    let pairs = arrivals.distinct_pairs(Some(SimTime::ZERO + horizon));
    assert_eq!(pairs.len(), 12_876, "the churn workload's prewarm list");
    let table = PathTable::new();
    let mut cache = PathCache::new(PathPolicy::EdgeDisjoint(4));
    cache.prefill(&topo, &table, &pairs);
    let prefilled = cache.clone();
    let mut crossings = vec![0u32; topo.channel_count()];
    for &(s, d) in &pairs {
        for &id in cache.get(&topo, &table, s, d) {
            table.map_entry(id, |path| {
                for &(c, _) in path.hops() {
                    crossings[c.index()] += 1;
                }
            });
        }
    }
    let hub = (0..).zip(&crossings).max_by_key(|(_, &n)| n);
    let hub = ChannelId(hub.expect("the graph has channels").0);
    let (close, reopen) = (
        TopologyUpdate {
            closed: vec![hub],
            ..TopologyUpdate::default()
        },
        TopologyUpdate {
            opened: vec![hub],
            ..TopologyUpdate::default()
        },
    );
    c.bench_function("cache_repair_close_reopen_hub", |b| {
        b.iter(|| {
            let closed = cache.on_topology_change(&topo, &table, &close).len();
            let reopened = cache.on_topology_change(&topo, &table, &reopen).len();
            black_box((closed, reopened))
        })
    });

    // The workload's dynamics (`churn_resilience`'s 1x schedule at a
    // quarter intensity) as the updates the engine hands the router: the
    // `t = 0` slice as one, then one per later event that changes anything.
    let dynamics = DynamicsConfig {
        close_rate_per_sec: 0.4,
        reopen_mean_secs: Some(3.0),
        resize_rate_per_sec: 0.2,
        resize_factor_range: [0.5, 2.0],
        node_leave_rate_per_sec: 0.04,
        spawn_fraction: 0.04,
        flap_channels: 2,
        flap_period_secs: 5.0,
        horizon_secs: horizon.as_secs_f64(),
    }
    .scaled(0.25);
    let schedule = ChurnSchedule::generate(&topo, &dynamics, &mut DetRng::new(42).fork("dynamics"))
        .expect("the workload's schedule generates");
    let mut closed = vec![false; topo.channel_count()];
    let mut updates = vec![TopologyUpdate::default()];
    for event in &schedule.events {
        if event.at > SimTime::ZERO {
            updates.push(TopologyUpdate::default());
        }
        let last = updates.len() - 1;
        let update = &mut updates[last];
        let mut set = |c: ChannelId, close: bool| {
            if std::mem::replace(&mut closed[c.index()], close) != close {
                let changed = if close {
                    &mut update.closed
                } else {
                    &mut update.opened
                };
                changed.push(c);
            }
        };
        match event.change {
            TopologyChange::ChannelClose { channel } => set(channel, true),
            TopologyChange::ChannelOpen { channel } => set(channel, false),
            TopologyChange::ChannelResize { channel, .. } => update.resized.push(channel),
            TopologyChange::NodeLeave { node } | TopologyChange::NodeJoin { node } => {
                let close = matches!(event.change, TopologyChange::NodeLeave { .. });
                for adj in topo.neighbors(node) {
                    set(adj.channel, close);
                }
            }
        }
    }
    updates.retain(|update| !update.is_empty());
    assert_eq!(updates.len(), 40, "the churn workload's updates");
    c.bench_function("cache_repair_churn_schedule", |b| {
        b.iter_batched(
            || prefilled.clone(),
            |mut cache| {
                let repair = |update| cache.on_topology_change(&topo, &table, update).len();
                updates.iter().map(repair).sum::<usize>()
            },
            criterion::BatchSize::LargeInput,
        )
    });
}

/// Trace-event record cost, backing the "zero-cost when disabled" claim:
/// `enabled` records into a live sink through the engine's
/// `Option<TraceSink>` pattern; `disabled` takes the identical loop with
/// the option `None` — one never-taken branch per would-be record, and the
/// event struct is never even constructed; `compiled_out` is the loop with
/// the trace code deleted. Disabled vs compiled-out is the true overhead
/// of leaving the hooks in the engine.
fn bench_trace_record(c: &mut Criterion) {
    use spider_obs::trace::TraceEventKind;
    use spider_obs::TraceSink;
    use spider_types::ChannelId;
    const N: u64 = 10_000;
    let mut g = c.benchmark_group("trace-record");
    g.bench_function("enabled_10k", |b| {
        b.iter(|| {
            let mut sink = Some(TraceSink::new());
            let mut acc = 0u64;
            for i in 0..N {
                if let Some(t) = sink.as_mut() {
                    t.record(
                        i,
                        TraceEventKind::UnitForwarded {
                            unit: i,
                            channel: ChannelId((i % 64) as u32),
                            hop: (i % 4) as u32,
                        },
                    );
                }
                acc = acc.wrapping_add(black_box(i));
            }
            black_box((acc, sink.expect("live sink").len()))
        })
    });
    g.bench_function("disabled_branch_only_10k", |b| {
        b.iter(|| {
            let mut sink: Option<TraceSink> = black_box(None);
            let mut acc = 0u64;
            for i in 0..N {
                if let Some(t) = sink.as_mut() {
                    t.record(
                        i,
                        TraceEventKind::UnitForwarded {
                            unit: i,
                            channel: ChannelId((i % 64) as u32),
                            hop: (i % 4) as u32,
                        },
                    );
                }
                acc = acc.wrapping_add(black_box(i));
            }
            black_box(acc)
        })
    });
    g.bench_function("compiled_out_10k", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for i in 0..N {
                acc = acc.wrapping_add(black_box(i));
            }
            black_box(acc)
        })
    });
    g.finish();
}

/// JSONL render cost on 100k events in the engine's mix of record shapes
/// (arrival, route, inject, per-hop enqueue/forward, ack, completion).
/// `to_jsonl` consumes the trace, so every sample renders a fresh clone,
/// made outside the timed region.
fn bench_trace_render(c: &mut Criterion) {
    use spider_obs::trace::TraceEventKind;
    use spider_obs::TraceSink;
    use spider_types::{ChannelId, PathId};
    let mut sink = TraceSink::new();
    for i in 0..100_000u64 {
        let (payment, unit, amount) = (PaymentId(i / 20), i / 4, Amount::from_drops(1_000_000 + i));
        let kind = match i % 8 {
            0 => TraceEventKind::PaymentArrival {
                payment,
                src: NodeId((i % 32) as u32),
                dst: NodeId((i % 31) as u32),
                amount,
            },
            1 => TraceEventKind::RouteProposal {
                payment,
                attempt: 0,
                path: PathId((i % 500) as u32),
                amount,
            },
            2 => TraceEventKind::UnitInjected {
                payment,
                unit,
                path: PathId((i % 500) as u32),
                amount,
            },
            3 | 4 => TraceEventKind::UnitEnqueued {
                unit,
                channel: ChannelId((i % 97) as u32),
                qlen: (i % 50) as u32,
            },
            5 | 6 => TraceEventKind::UnitForwarded {
                unit,
                channel: ChannelId((i % 97) as u32),
                hop: (i % 4) as u32,
            },
            _ if i % 16 == 7 => TraceEventKind::UnitAcked {
                payment,
                unit,
                delivered: true,
                marked: false,
            },
            _ => TraceEventKind::PaymentCompleted {
                payment,
                latency_us: 250_000 + i,
            },
        };
        sink.record(i * 1_000, kind);
    }
    let trace = sink.finish((0..500).map(|id| (id, vec![1, 7, 19, 30])).collect());
    let mut g = c.benchmark_group("trace-render");
    g.bench_function("jsonl_100k", |b| {
        b.iter_batched(
            || trace.clone(),
            |t| t.to_jsonl().len(),
            criterion::BatchSize::LargeInput,
        )
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_maxflow,
    bench_paths,
    bench_lp,
    bench_decompose,
    bench_routing,
    bench_path_bottleneck,
    bench_calendar,
    bench_cache_repair,
    bench_trace_record,
    bench_trace_render,
    bench_engine_step,
    bench_end_to_end
);
criterion_main!(benches);
