//! Allocation budget of the batched path fill.
//!
//! `PathOracle::fill` hands over flat per-worker buffers: what it
//! allocates is a per-worker set-up (search workspace, thread, three
//! growing vectors) and a few whole-list index arrays — nothing per pair
//! and nothing per path.

mod counting;

use counting::allocations_during;
use spider_routing::{PathOracle, PathPolicy};
use spider_topology::gen;
use spider_types::{Amount, NodeId};

#[test]
fn fill_allocates_per_worker_not_per_pair() {
    let topo = gen::isp_topology(Amount::from_xrp(100));
    let nodes = topo.node_count() as u32;
    let all_pairs: Vec<(NodeId, NodeId)> = (0..nodes)
        .flat_map(|s| (0..nodes).map(move |d| (NodeId(s), NodeId(d))))
        .filter(|(s, d)| s != d)
        .collect();
    let twice = |pairs: &[(NodeId, NodeId)]| [pairs, pairs].concat();
    // What a fill may set up per worker (thread, workspace, a few dozen
    // doublings of its buffers) and once per call (the grouping arrays).
    // Two workers make ≈ 150 of the all-pairs list; one allocation a pair
    // would be 992, one a path several times that.
    let workers = std::thread::available_parallelism().map_or(1, |p| p.get()) as u64;
    let budget = 128 * workers.min(nodes as u64) + 32;
    // Few enough pairs (the first four sources') to be filled on the
    // calling thread, so the count does not depend on how many workers
    // got to a source before the others had drained the queue.
    let inline = &all_pairs[..4 * (nodes as usize - 1)];
    for policy in [PathPolicy::EdgeDisjoint(4), PathPolicy::Shortest] {
        let oracle = PathOracle::new(&topo, policy);
        let count = |pairs: &[(NodeId, NodeId)]| {
            let mut paths = 0;
            let allocations = allocations_during(|| paths = oracle.fill(pairs).path_count());
            assert!(paths >= pairs.len(), "every ISP pair is connected");
            allocations
        };
        for pairs in [all_pairs.clone(), twice(&all_pairs)] {
            let allocations = count(&pairs);
            assert!(
                allocations <= budget,
                "{policy:?}: {allocations} allocations for {} pairs, budget {budget}",
                pairs.len()
            );
        }
        // Twice the pairs over the same sources: the buffers double once
        // more, and that is all.
        let (once, doubled) = (count(inline), count(&twice(inline)));
        assert!(
            doubled <= once + 16,
            "{policy:?}: {once} allocations for {} pairs, {doubled} for them twice",
            inline.len()
        );
    }
}
