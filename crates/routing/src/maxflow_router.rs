//! The max-flow benchmark.
//!
//! "For each transaction, max-flow uses a distributed implementation of the
//! Ford–Fulkerson method to find source–destination paths that support the
//! largest transaction volume. If this volume exceeds the transaction
//! value, the transaction succeeds" (§3). It is the throughput gold
//! standard but costs `O(|V|·|E|²)` per transaction.
//!
//! We rebuild the flow network from the *current* directional balances on
//! every request (that is the expensive part the paper criticizes), run
//! Dinic, and decompose into explicit paths. Atomic: if the max flow is
//! below the payment value the payment fails outright.

use spider_maxflow::FlowNetwork;
use spider_sim::{NetworkView, RouteProposal, RouteRequest, Router};
use spider_types::{Amount, Direction};

/// Atomic per-transaction max-flow routing.
#[derive(Debug, Default)]
pub struct MaxFlow {
    _private: (),
}

impl MaxFlow {
    /// Creates the benchmark router.
    pub fn new() -> Self {
        MaxFlow { _private: () }
    }
}

impl Router for MaxFlow {
    fn name(&self) -> &'static str {
        "max-flow"
    }

    fn atomic(&self) -> bool {
        true
    }

    fn route(&mut self, req: &RouteRequest, view: &NetworkView<'_>) -> Vec<RouteProposal> {
        let mut net = FlowNetwork::new(view.topo.node_count());
        for (id, ch) in view.topo.channels() {
            let fwd = view.available(id, Direction::Forward).drops();
            let bwd = view.available(id, Direction::Backward).drops();
            if fwd > 0 {
                net.add_edge(ch.u, ch.v, fwd);
            }
            if bwd > 0 {
                net.add_edge(ch.v, ch.u, bwd);
            }
        }
        let value = net.max_flow_dinic(req.src, req.dst);
        if value < req.remaining.drops() {
            return Vec::new(); // transaction fails
        }
        // Decompose and take paths until the payment is covered.
        let mut remaining = req.remaining;
        let mut proposals = Vec::new();
        for (path, amt) in net.flow_paths(req.src, req.dst) {
            if remaining.is_zero() {
                break;
            }
            let take = Amount::from_drops(amt).min(remaining);
            proposals.push(RouteProposal {
                path: view.intern(&path),
                amount: take,
            });
            remaining -= take;
        }
        debug_assert!(remaining.is_zero(), "decomposition covers the max flow");
        proposals
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spider_sim::{ChannelState, PathTable};
    use spider_types::{NodeId, PaymentId, SimTime};

    fn xrp(x: u64) -> Amount {
        Amount::from_xrp(x)
    }

    fn req(src: u32, dst: u32, amount: Amount) -> RouteRequest {
        RouteRequest {
            payment: PaymentId(0),
            src: NodeId(src),
            dst: NodeId(dst),
            remaining: amount,
            total: amount,
            mtu: xrp(1_000_000),
            attempt: 0,
        }
    }

    /// Two parallel 2-hop routes of 5 XRP usable each way.
    fn double_path() -> (spider_topology::Topology, Vec<ChannelState>) {
        let mut b = spider_topology::Topology::builder(4);
        b.channel(NodeId(0), NodeId(1), xrp(10)).unwrap();
        b.channel(NodeId(1), NodeId(3), xrp(10)).unwrap();
        b.channel(NodeId(0), NodeId(2), xrp(10)).unwrap();
        b.channel(NodeId(2), NodeId(3), xrp(10)).unwrap();
        let t = b.build();
        let ch = t
            .channels()
            .map(|(_, c)| ChannelState::split_equally(c.capacity))
            .collect();
        (t, ch)
    }

    #[test]
    fn splits_over_multiple_paths() {
        let (t, ch) = double_path();
        let paths = PathTable::new();
        let view = NetworkView {
            topo: &t,
            channels: &ch,
            paths: &paths,
            now: SimTime::ZERO,
        };
        // 8 XRP exceeds any single path's 5 XRP, but max flow is 10.
        let props = MaxFlow::new().route(&req(0, 3, xrp(8)), &view);
        assert_eq!(props.iter().map(|p| p.amount).sum::<Amount>(), xrp(8));
        assert!(props.len() == 2, "expected a 2-path split, got {props:?}");
    }

    #[test]
    fn fails_when_max_flow_insufficient() {
        let (t, ch) = double_path();
        let paths = PathTable::new();
        let view = NetworkView {
            topo: &t,
            channels: &ch,
            paths: &paths,
            now: SimTime::ZERO,
        };
        let props = MaxFlow::new().route(&req(0, 3, xrp(11)), &view);
        assert!(props.is_empty());
    }

    #[test]
    fn uses_directional_balances() {
        let (t, mut ch) = double_path();
        // Drain 0→1 completely: only the 0→2→3 route remains.
        let c01 = t.channel_between(NodeId(0), NodeId(1)).unwrap();
        let avail = ch[c01.index()].available(Direction::Forward);
        assert!(ch[c01.index()].lock(Direction::Forward, avail));
        let paths = PathTable::new();
        let view = NetworkView {
            topo: &t,
            channels: &ch,
            paths: &paths,
            now: SimTime::ZERO,
        };
        let props = MaxFlow::new().route(&req(0, 3, xrp(5)), &view);
        assert_eq!(props.len(), 1);
        assert_eq!(
            view.path(props[0].path).nodes(),
            vec![NodeId(0), NodeId(2), NodeId(3)]
        );
    }

    #[test]
    fn is_atomic() {
        assert!(MaxFlow::new().atomic());
    }
}
