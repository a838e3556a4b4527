//! Allocation budget of the batched path fill.
//!
//! `PathOracle::fill` hands over flat per-worker buffers: what it
//! allocates is a per-worker set-up (search workspace, thread, three
//! growing vectors) and a few whole-list index arrays — nothing per pair
//! and nothing per path. This file is its own test binary so that it can
//! install a counting global allocator; it holds a single test, so no
//! other test thread allocates while a count is taken.

use spider_routing::{PathOracle, PathPolicy};
use spider_topology::gen;
use spider_types::{Amount, NodeId};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// `System`, counting every allocation and every `realloc`, on any thread.
/// `Relaxed`: the count is a statistic and publishes no other data.
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is only bumped beside
// those calls and never touches the memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Relaxed);
        // SAFETY: the caller guarantees `layout` has non-zero size.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Relaxed);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller guarantees `ptr` came from this allocator
        // (hence from `System`) with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Relaxed);
        // SAFETY: the caller guarantees `ptr` came from this allocator
        // with `layout`, and that `new_size` is a valid non-zero size.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations made, on all threads, while `f` runs.
fn allocations_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.load(Relaxed);
    f();
    ALLOCATIONS.load(Relaxed) - before
}

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
    for policy in [
        PathPolicy::EdgeDisjoint(4),
        PathPolicy::KShortest(3),
        PathPolicy::Shortest,
    ] {
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
