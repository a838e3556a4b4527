//! Allocation budget of a pair's first request.
//!
//! A routed pair's state — candidate ids, AIMD controllers, price
//! estimators — sits in the router's flat arrays, `k` entries to a slot,
//! beside one map entry: routing a pair for the first time allocates
//! nothing of its own. What a request does allocate is the proposal list
//! it returns; what the arrays allocate is their doublings.

#[path = "../../routing/tests/counting/mod.rs"]
mod counting;

use counting::allocations_during;
use spider_protocol::ProtocolRouter;
use spider_sim::{ChannelState, NetworkView, PathTable, RouteRequest, Router};
use spider_topology::gen;
use spider_types::{Amount, NodeId, PaymentId, SimTime};

#[test]
fn a_fresh_pair_allocates_nothing_of_its_own() {
    const PAIRS: usize = 2_000;
    let capacity = Amount::from_xrp(1_000);
    let topo = gen::grid(7, 7, capacity);
    let channels: Vec<ChannelState> = topo
        .channels()
        .map(|_| ChannelState::split_equally(capacity))
        .collect();
    let table = PathTable::new();
    let view = NetworkView {
        topo: &topo,
        channels: &channels,
        paths: &table,
        now: SimTime::ZERO,
    };
    let nodes = topo.nodes().flat_map(|s| topo.nodes().map(move |d| (s, d)));
    let pairs: Vec<(NodeId, NodeId)> = nodes.filter(|(s, d)| s != d).take(PAIRS).collect();
    assert_eq!(pairs.len(), PAIRS, "a 7 x 7 grid has enough pairs");
    let mut router = ProtocolRouter::new(4);
    // Candidates come from the prewarmed cache, as in a run.
    router.prewarm(&pairs, &view);
    let amount = Amount::from_xrp(50);
    let mut proposed = 0;
    let allocations = allocations_during(|| {
        for &(src, dst) in &pairs {
            let req = RouteRequest {
                payment: PaymentId(0),
                src,
                dst,
                remaining: amount,
                total: amount,
                mtu: Amount::from_xrp(10),
                attempt: 0,
            };
            proposed += usize::from(!router.route(&req, &view).is_empty());
        }
    });
    assert_eq!(proposed, PAIRS, "every pair is reachable");
    // One proposal list a request; the map, the slot list, the candidate
    // array and the owner table double their way up to 2,000 pairs in
    // well under a hundred steps between them. (Three vectors a pair, as
    // the state was once kept, would be 6,000 more.)
    let budget = PAIRS as u64 + 100;
    assert!(
        allocations <= budget,
        "{allocations} allocations for {PAIRS} fresh pairs (budget {budget})"
    );
}
