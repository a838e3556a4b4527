//! Isolated replays: the benchmark calls one layer's public API on inputs
//! derived from the workload, so a layer has a number of its own that no
//! other layer's change can move. Traced pass only.

use crate::alloc::CountingAlloc;
use crate::harness::{cpu_seconds, Inputs};
use crate::workloads::WorkloadDef;
use spider_obs::trace::TraceEventKind;
use spider_obs::{Histogram, TraceSink};
use spider_paygraph::PaymentGraph;
use spider_routing::{PathCache, PathOracle};
use spider_sim::{
    CalendarQueue, ChannelState, NetworkView, PathTable, QueueingMode, RouteRequest,
    StreamingWorkload, TopologyUpdate,
};
use spider_types::{
    ChannelId, Direction, NodeId, PaymentId, SimTime, TopologyChange, TopologyEvent,
};
use std::hint::black_box;
use std::time::Instant;

/// `Router::route` is replayed for this many arrivals.
const ROUTE_CALLS: usize = 10_000;

/// Runs every replay and returns `(metric name, value)` pairs — every
/// replay metric, `0` where the workload does not exercise the layer.
pub fn run_all(
    def: &WorkloadDef,
    inputs: &Inputs,
    alloc: &CountingAlloc,
) -> Vec<(&'static str, f64)> {
    let mut out = Vec::new();
    oracle_and_cache(def, inputs, alloc, &mut out);
    route_calls(def, inputs, &mut out);
    calendar(def, inputs, &mut out);
    channel(def, inputs, &mut out);
    arrivals(def, inputs, &mut out);
    trace_and_hist(inputs, &mut out);
    out
}

/// `PathOracle::fill` over the distinct pairs, `PathCache::prefill` over
/// the same, then the churn schedule replayed through
/// `PathCache::on_topology_change`.
fn oracle_and_cache(
    def: &WorkloadDef,
    inputs: &Inputs,
    alloc: &CountingAlloc,
    out: &mut Vec<(&'static str, f64)>,
) {
    let (topo, pairs) = (&inputs.topo, &inputs.pairs);
    let a0 = alloc.snapshot();
    let cpu0 = cpu_seconds();
    let t0 = Instant::now();
    black_box(PathOracle::new(topo, def.policy).fill(pairs));
    let fill_s = t0.elapsed().as_secs_f64();
    out.push(("routing.oracle.pairs", pairs.len() as f64));
    out.push(("routing.oracle.fill_s", fill_s));
    out.push(("routing.oracle.fill_cpu_s", cpu_seconds() - cpu0));
    out.push((
        "routing.oracle.us_per_pair",
        fill_s * 1e6 / pairs.len().max(1) as f64,
    ));
    out.push((
        "alloc.oracle_fill_count",
        alloc.snapshot().since(a0).count as f64,
    ));

    let table = PathTable::new();
    let mut cache = PathCache::new(def.policy);
    let t0 = Instant::now();
    cache.prefill(topo, &table, pairs);
    out.push(("routing.cache.prefill_s", t0.elapsed().as_secs_f64()));

    let updates = topology_updates(inputs);
    let t0 = Instant::now();
    for update in &updates {
        black_box(cache.on_topology_change(topo, &table, update));
    }
    let repair_s = t0.elapsed().as_secs_f64();
    // The replayed cache's own counters: what the engine's router would
    // report where it exports none (see `runner::traced_pass`).
    for (counter, metric) in cache.counters().into_iter().zip([
        "routing.cache.hits",
        "routing.cache.misses",
        "routing.cache.prefilled",
        "routing.cache.repairs",
    ]) {
        out.push((metric, counter.1 as f64));
    }
    out.push(("routing.cache.repair_s", repair_s));
    out.push((
        "routing.cache.repair_ms_per_event",
        if updates.is_empty() {
            0.0
        } else {
            repair_s * 1e3 / updates.len() as f64
        },
    ));
}

/// The churn schedule as the `TopologyUpdate`s the engine would hand the
/// router: one for the `t = 0` slice, then one per later event that
/// changes anything, with closes and opens idempotent as in the engine.
fn topology_updates(inputs: &Inputs) -> Vec<TopologyUpdate> {
    let topo = &inputs.topo;
    let mut events: Vec<TopologyEvent> = inputs.churn.clone();
    events.sort_by_key(|e| e.at);
    let mut closed = vec![false; topo.channel_count()];
    let mut apply = |change: TopologyChange, update: &mut TopologyUpdate| {
        let mut set = |c: ChannelId, close: bool, update: &mut TopologyUpdate| {
            if closed[c.index()] != close {
                closed[c.index()] = close;
                if close {
                    update.closed.push(c);
                } else {
                    update.opened.push(c);
                }
            }
        };
        match change {
            TopologyChange::ChannelClose { channel } => set(channel, true, update),
            TopologyChange::ChannelOpen { channel } => set(channel, false, update),
            TopologyChange::ChannelResize { channel, .. } => update.resized.push(channel),
            TopologyChange::NodeLeave { node } | TopologyChange::NodeJoin { node } => {
                let close = matches!(change, TopologyChange::NodeLeave { .. });
                for adj in topo.neighbors(node) {
                    set(adj.channel, close, update);
                }
            }
        }
    };
    let mut updates = Vec::new();
    let mut initial = TopologyUpdate::default();
    for e in &events {
        if e.at == SimTime::ZERO {
            apply(e.change, &mut initial);
        } else {
            let mut update = TopologyUpdate::default();
            apply(e.change, &mut update);
            updates.push(update);
        }
    }
    updates.insert(0, initial);
    updates.retain(|u| !u.is_empty());
    updates
}

/// `Router::route` for the first arrivals against a fresh, fully funded
/// network, the router prewarmed as the engine would have it.
fn route_calls(def: &WorkloadDef, inputs: &Inputs, out: &mut Vec<(&'static str, f64)>) {
    let cfg = &def.cfg;
    let topo = &inputs.topo;
    let txns = &inputs.txns[..inputs.txns.len().min(ROUTE_CALLS)];
    let channels: Vec<ChannelState> = topo
        .channels()
        .map(|(_, c)| ChannelState::split_equally(c.capacity))
        .collect();
    let table = PathTable::new();
    let view = NetworkView {
        topo,
        channels: &channels,
        paths: &table,
        now: SimTime::ZERO,
    };
    let mut router = cfg.scheme.build(
        topo,
        &PaymentGraph::new(topo.node_count()),
        cfg.sim.confirmation_delay.as_secs_f64(),
    );
    router.configure(matches!(
        cfg.effective_sim().queueing,
        QueueingMode::PerChannelFifo(_)
    ));
    router.initialize(&view);
    let mut seen = std::collections::HashSet::new();
    let pairs: Vec<(NodeId, NodeId)> = txns
        .iter()
        .map(|t| (t.src, t.dst))
        .filter(|p| seen.insert(*p))
        .collect();
    router.prewarm(&pairs, &view);
    let t0 = Instant::now();
    for (i, t) in txns.iter().enumerate() {
        let req = RouteRequest {
            payment: PaymentId(i as u64),
            src: t.src,
            dst: t.dst,
            remaining: t.amount,
            total: t.amount,
            mtu: cfg.sim.mtu,
            attempt: 0,
        };
        black_box(router.route(&req, &view));
    }
    let secs = t0.elapsed().as_secs_f64();
    out.push(("routing.route.calls", txns.len() as f64));
    out.push((
        "routing.route.ns_per_call",
        secs * 1e9 / txns.len().max(1) as f64,
    ));
}

/// `CalendarQueue` driven the way the engine drives it: each arrival,
/// when it pops, schedules its successor and a settle Δ later.
fn calendar(def: &WorkloadDef, inputs: &Inputs, out: &mut Vec<(&'static str, f64)>) {
    /// Runtime events order after every arrival at the same instant.
    const RUNTIME_SEQ: u64 = 1 << 40;
    let txns = &inputs.txns;
    let delta = def.cfg.sim.confirmation_delay;
    let mut q = CalendarQueue::new();
    let mut ops = 0u64;
    let t0 = Instant::now();
    if let Some(first) = txns.first() {
        q.push(first.time, 0, 0);
        ops += 1;
    }
    while let Some((at, seq, id)) = q.pop() {
        ops += 1;
        if seq < RUNTIME_SEQ {
            if let Some(next) = txns.get(id + 1) {
                q.push(next.time, seq + 1, id + 1);
                ops += 1;
            }
            q.push(at + delta, RUNTIME_SEQ + seq, id);
            ops += 1;
        }
        black_box(id);
    }
    let secs = t0.elapsed().as_secs_f64();
    out.push(("sim.calendar.ops", ops as f64));
    out.push(("sim.calendar.ns_per_op", secs * 1e9 / ops.max(1) as f64));
}

/// One channel locking and settling every arrival's first unit, the
/// direction alternating so the balance never drains.
fn channel(def: &WorkloadDef, inputs: &Inputs, out: &mut Vec<(&'static str, f64)>) {
    let mtu = def.cfg.sim.mtu;
    let mut ch = ChannelState::split_equally(mtu.mul_f64(4.0));
    let t0 = Instant::now();
    let mut locked = 0u64;
    for (i, t) in inputs.txns.iter().enumerate() {
        let dir = if i % 2 == 0 {
            Direction::Forward
        } else {
            Direction::Backward
        };
        let amount = t.amount.min(mtu);
        if ch.lock(dir, amount) {
            ch.settle(dir, amount);
            locked += 1;
        }
    }
    let secs = t0.elapsed().as_secs_f64();
    black_box(&ch);
    out.push((
        "sim.channel.ns_per_lock_settle",
        secs * 1e9 / locked.max(1) as f64,
    ));
}

/// Arrival generation alone: the stream drained without an engine.
fn arrivals(def: &WorkloadDef, inputs: &Inputs, out: &mut Vec<(&'static str, f64)>) {
    let cfg = &def.cfg;
    let wrng = def.traffic_rng();
    let t0 = Instant::now();
    let mut stream = StreamingWorkload::new(inputs.topo.node_count(), cfg.workload.clone(), wrng);
    let mut n = 0u64;
    while let Some(t) = stream.next_txn() {
        black_box(t);
        n += 1;
    }
    let secs = t0.elapsed().as_secs_f64();
    out.push(("sim.workload.ns_per_arrival", secs * 1e9 / n.max(1) as f64));
}

/// `TraceSink::record` and `Trace::to_jsonl` on one arrival event per
/// payment, and `Histogram::record` on every arrival time.
fn trace_and_hist(inputs: &Inputs, out: &mut Vec<(&'static str, f64)>) {
    let txns = &inputs.txns;
    let n = txns.len().max(1) as f64;
    let mut sink = TraceSink::new();
    let t0 = Instant::now();
    for (i, t) in txns.iter().enumerate() {
        sink.record(
            t.time.micros(),
            TraceEventKind::PaymentArrival {
                payment: PaymentId(i as u64),
                src: t.src,
                dst: t.dst,
                amount: t.amount,
            },
        );
    }
    out.push((
        "obs.trace.record_ns_per_event",
        t0.elapsed().as_secs_f64() * 1e9 / n,
    ));
    let trace = sink.finish(Vec::new());
    let t0 = Instant::now();
    black_box(trace.to_jsonl());
    out.push((
        "obs.trace.render_ns_per_event",
        t0.elapsed().as_secs_f64() * 1e9 / n,
    ));

    let mut hist = Histogram::new();
    let t0 = Instant::now();
    for t in txns {
        hist.record(t.time.as_secs_f64());
    }
    black_box(&hist);
    out.push(("obs.hist.record_ns", t0.elapsed().as_secs_f64() * 1e9 / n));
}
