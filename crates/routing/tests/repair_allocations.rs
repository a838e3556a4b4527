//! Allocation budget of churn repair.
//!
//! A repaired pair keeps its slot, its candidates sit in the cache's one
//! id array, and its place in the channel→pairs index is a `Vec` push per
//! hop: what `PathCache::on_topology_change` allocates is a per-event
//! set-up (the fill's workspace and buffers, a few whole-batch lists, the
//! interner's segment) — nothing per repaired pair, and nothing per hop.

mod counting;

use counting::allocations_during;
use spider_routing::{PathCache, PathPolicy};
use spider_sim::{PathTable, TopologyUpdate};
use spider_topology::{gen, Topology};
use spider_types::{Amount, ChannelId, NodeId};

/// The pairs from the first eight nodes to every `step`-th node: few
/// enough (under the fill's fan-out threshold) that every repair is filled
/// on the calling thread, so the count does not depend on the machine's
/// core count — and the same sources whatever the `step`, so what differs
/// between two steps is the number of pairs and nothing else.
fn pairs_to_every(topo: &Topology, step: usize) -> Vec<(NodeId, NodeId)> {
    let nodes = topo.node_count() as u32;
    let dsts = || (0..nodes).step_by(step);
    let all = (0..8).flat_map(|s| dsts().map(move |d| (NodeId(s), NodeId(d))));
    all.filter(|(s, d)| s != d).collect()
}

/// The channel most cached candidates cross.
fn hub(topo: &Topology, table: &PathTable, cache: &mut PathCache) -> ChannelId {
    let mut crossings = vec![0u32; topo.channel_count()];
    for (s, d) in pairs_to_every(topo, 4) {
        for &id in cache.get(topo, table, s, d) {
            for c in table.entry(id).hops().iter().map(|hop| hop.channel()) {
                crossings[c.index()] += 1;
            }
        }
    }
    let busiest = (0..).zip(&crossings).max_by_key(|(_, &n)| n);
    ChannelId(busiest.expect("the ISP graph has channels").0)
}

#[test]
fn repair_allocates_per_event_not_per_pair() {
    const CYCLES: u64 = 20;
    let topo = gen::isp_topology(Amount::from_xrp(100));
    // (The multi-path policy: a hub carries enough of its pairs for a
    // per-pair cost to stand out from the buffers' doublings.)
    let policy = PathPolicy::EdgeDisjoint(4);
    // `(allocations, pairs repaired)` over `CYCLES` close/reopen
    // cycles of the hub, for a cache of the pairs to every `step`-th
    // node.
    let cycle_hub = |step: usize| {
        let table = PathTable::new();
        let mut cache = PathCache::new(policy);
        cache.prefill(&topo, &table, &pairs_to_every(&topo, step));
        let hub = hub(&topo, &table, &mut cache);
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
        let mut repaired = 0;
        let mut cycle = |cache: &mut PathCache| {
            repaired += cache.on_topology_change(&topo, &table, &close).len();
            repaired += cache.on_topology_change(&topo, &table, &reopen).len();
        };
        // The first cycle builds the index and interns the detours.
        cycle(&mut cache);
        let allocations = allocations_during(|| (0..CYCLES).for_each(|_| cycle(&mut cache)));
        (allocations, repaired as u64)
    };
    let (few, few_repaired) = cycle_hub(4);
    let (many, many_repaired) = cycle_hub(1);
    let more_pairs = many_repaired - few_repaired;
    assert!(
        more_pairs >= 2 * CYCLES * 10,
        "{policy:?}: only {more_pairs} more pairs repaired"
    );
    // Four times the pairs through the same events: the per-event
    // buffers double a few more times, and that is all. One allocation
    // a repaired pair would be `more_pairs` more; so would one a hop,
    // several times over.
    assert!(
        2 * many.saturating_sub(few) <= more_pairs,
        "{policy:?}: {few} allocations to repair {few_repaired} pairs, \
         {many} to repair {many_repaired}"
    );
}
