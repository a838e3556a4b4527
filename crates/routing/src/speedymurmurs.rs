//! SpeedyMurmurs-style embedding-based routing.
//!
//! "Embedding-based or distance-based routing learns a vector embedding
//! for each node, such that nodes that are close in network hop distance
//! are also close in embedded space. Each node relays each transaction to
//! the neighbor whose embedding is closest to the destination's
//! embedding" (§3).
//!
//! Following SpeedyMurmurs we embed the network in `n_trees` BFS spanning
//! trees rooted at the highest-degree nodes, split each payment into equal
//! shares (one per tree), and forward each share greedily: at every node,
//! move to any topology neighbor that is strictly closer to the
//! destination in that tree's metric *and* has enough balance, preferring
//! the closest (then best-funded) neighbor. Strictly decreasing distance
//! makes routes loop-free. Delivery is atomic across the shares.

use spider_sim::{NetworkView, RouteProposal, RouteRequest, Router};
use spider_topology::Topology;
use spider_types::{Amount, NodeId};
use std::collections::VecDeque;

/// One spanning tree's embedding: parent pointers and depths.
#[derive(Debug, Clone)]
struct TreeEmbedding {
    parent: Vec<Option<NodeId>>,
    depth: Vec<u32>,
    reachable: Vec<bool>,
}

impl TreeEmbedding {
    fn build(topo: &Topology, root: NodeId) -> Self {
        let n = topo.node_count();
        let mut parent = vec![None; n];
        let mut depth = vec![0u32; n];
        let mut reachable = vec![false; n];
        reachable[root.index()] = true;
        let mut queue = VecDeque::from([root]);
        while let Some(u) = queue.pop_front() {
            for adj in topo.neighbors(u) {
                let v = adj.neighbor;
                if !reachable[v.index()] {
                    reachable[v.index()] = true;
                    parent[v.index()] = Some(u);
                    depth[v.index()] = depth[u.index()] + 1;
                    queue.push_back(v);
                }
            }
        }
        TreeEmbedding {
            parent,
            depth,
            reachable,
        }
    }

    /// Tree distance `depth(u) + depth(v) − 2·depth(lca)`;
    /// `None` if either node is outside the tree.
    fn distance(&self, u: NodeId, v: NodeId) -> Option<u32> {
        if !self.reachable[u.index()] || !self.reachable[v.index()] {
            return None;
        }
        let (mut a, mut b) = (u, v);
        let mut hops = 0;
        while self.depth[a.index()] > self.depth[b.index()] {
            a = self.parent[a.index()].expect("non-root has parent");
            hops += 1;
        }
        while self.depth[b.index()] > self.depth[a.index()] {
            b = self.parent[b.index()].expect("non-root has parent");
            hops += 1;
        }
        while a != b {
            a = self.parent[a.index()].expect("non-root has parent");
            b = self.parent[b.index()].expect("non-root has parent");
            hops += 2;
        }
        Some(hops)
    }
}

/// Atomic embedding-based greedy routing over spanning trees.
#[derive(Debug)]
pub struct SpeedyMurmurs {
    trees: Vec<TreeEmbedding>,
}

impl SpeedyMurmurs {
    /// Builds `n_trees` BFS spanning trees rooted at the highest-degree
    /// nodes (distinct roots, ties toward smaller id).
    pub fn new(topo: &Topology, n_trees: usize) -> Self {
        assert!(n_trees >= 1, "need at least one tree");
        let mut roots: Vec<NodeId> = topo.nodes().collect();
        roots.sort_by_key(|&n| (std::cmp::Reverse(topo.degree(n)), n));
        roots.truncate(n_trees);
        let trees = roots
            .into_iter()
            .map(|r| TreeEmbedding::build(topo, r))
            .collect();
        SpeedyMurmurs { trees }
    }

    /// Greedy embedded walk for one share; `None` when stuck.
    fn greedy_path(
        &self,
        tree: &TreeEmbedding,
        view: &NetworkView<'_>,
        src: NodeId,
        dst: NodeId,
        share: Amount,
    ) -> Option<Vec<NodeId>> {
        let mut current = src;
        let mut dist = tree.distance(current, dst)?;
        let mut path = vec![current];
        while current != dst {
            // Eligible: strictly closer in tree metric, enough balance.
            let mut best: Option<(u32, Amount, NodeId)> = None;
            for adj in view.topo.neighbors(current) {
                let Some(d) = tree.distance(adj.neighbor, dst) else {
                    continue;
                };
                if d >= dist {
                    continue;
                }
                let dir = view.topo.channel(adj.channel).direction_from(current);
                let avail = view.available(adj.channel, dir);
                if avail < share {
                    continue;
                }
                let better = match best {
                    None => true,
                    // Prefer closer; then better funded; then smaller id.
                    Some((bd, bav, bn)) => {
                        d < bd || (d == bd && (avail > bav || (avail == bav && adj.neighbor < bn)))
                    }
                };
                if better {
                    best = Some((d, avail, adj.neighbor));
                }
            }
            let (d, _, next) = best?;
            current = next;
            dist = d;
            path.push(current);
        }
        Some(path)
    }
}

impl Router for SpeedyMurmurs {
    fn name(&self) -> &'static str {
        "speedymurmurs"
    }

    fn atomic(&self) -> bool {
        true
    }

    fn route(&mut self, req: &RouteRequest, view: &NetworkView<'_>) -> Vec<RouteProposal> {
        let n = self.trees.len() as u64;
        let share = req.remaining / n;
        let remainder = req.remaining - share * n;
        let mut proposals = Vec::with_capacity(self.trees.len());
        for (i, tree) in self.trees.iter().enumerate() {
            let amount = if i == 0 { share + remainder } else { share };
            if amount.is_zero() {
                continue;
            }
            match self.greedy_path(tree, view, req.src, req.dst, amount) {
                Some(path) => proposals.push(RouteProposal {
                    path: view.intern(&path),
                    amount,
                }),
                // Any stuck share fails the whole (atomic) payment.
                None => return Vec::new(),
            }
        }
        proposals
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spider_sim::{ChannelState, PathTable};
    use spider_topology::gen;
    use spider_types::{Direction, PaymentId, SimTime};

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
            mtu: xrp(1_000),
            attempt: 0,
        }
    }

    fn split(t: &Topology) -> Vec<ChannelState> {
        t.channels()
            .map(|(_, c)| ChannelState::split_equally(c.capacity))
            .collect()
    }

    #[test]
    fn tree_distance_on_a_line() {
        let t = gen::line(5, xrp(10));
        let e = TreeEmbedding::build(&t, NodeId(0));
        assert_eq!(e.distance(NodeId(0), NodeId(4)), Some(4));
        assert_eq!(e.distance(NodeId(2), NodeId(2)), Some(0));
        assert_eq!(e.distance(NodeId(1), NodeId(3)), Some(2));
    }

    #[test]
    fn tree_distance_unreachable() {
        let mut b = Topology::builder(3);
        b.channel(NodeId(0), NodeId(1), xrp(1)).unwrap();
        let t = b.build();
        let e = TreeEmbedding::build(&t, NodeId(0));
        assert_eq!(e.distance(NodeId(0), NodeId(2)), None);
    }

    #[test]
    fn routes_along_decreasing_distance() {
        let t = gen::isp_topology(xrp(100));
        let ch = split(&t);
        let paths = PathTable::new();
        let view = NetworkView {
            topo: &t,
            channels: &ch,
            paths: &paths,
            now: SimTime::ZERO,
        };
        let mut sm = SpeedyMurmurs::new(&t, 3);
        let props = sm.route(&req(8, 25, xrp(3)), &view);
        assert!(!props.is_empty());
        assert_eq!(props.iter().map(|p| p.amount).sum::<Amount>(), xrp(3));
        for p in &props {
            assert_eq!(view.path(p.path).source(), NodeId(8));
            assert_eq!(view.path(p.path).dest(), NodeId(25));
            // Loop-free by construction.
            let nodes = view.path(p.path).nodes().to_vec();
            let mut s = nodes.clone();
            s.sort_unstable();
            s.dedup();
            assert_eq!(s.len(), nodes.len());
        }
    }

    #[test]
    fn respects_balance_during_discovery() {
        // Line 0-1-2 with the 1→2 direction drained: share can't proceed.
        let t = gen::line(3, xrp(10));
        let mut ch = split(&t);
        let c12 = t.channel_between(NodeId(1), NodeId(2)).unwrap();
        let avail = ch[c12.index()].available(Direction::Forward);
        assert!(ch[c12.index()].lock(Direction::Forward, avail));
        let paths = PathTable::new();
        let view = NetworkView {
            topo: &t,
            channels: &ch,
            paths: &paths,
            now: SimTime::ZERO,
        };
        let mut sm = SpeedyMurmurs::new(&t, 1);
        assert!(sm.route(&req(0, 2, xrp(1)), &view).is_empty());
    }

    #[test]
    fn atomic_failure_when_one_tree_is_stuck() {
        // Two trees; drain the only channel into the destination so every
        // tree's share is stuck → no proposals at all.
        let t = gen::line(3, xrp(10));
        let mut ch = split(&t);
        let c12 = t.channel_between(NodeId(1), NodeId(2)).unwrap();
        let avail = ch[c12.index()].available(Direction::Forward);
        assert!(ch[c12.index()].lock(Direction::Forward, avail));
        let paths = PathTable::new();
        let view = NetworkView {
            topo: &t,
            channels: &ch,
            paths: &paths,
            now: SimTime::ZERO,
        };
        let mut sm = SpeedyMurmurs::new(&t, 2);
        assert!(sm.route(&req(0, 2, xrp(2)), &view).is_empty());
    }

    #[test]
    fn shares_sum_with_remainder() {
        let t = gen::isp_topology(xrp(100));
        let ch = split(&t);
        let paths = PathTable::new();
        let view = NetworkView {
            topo: &t,
            channels: &ch,
            paths: &paths,
            now: SimTime::ZERO,
        };
        let mut sm = SpeedyMurmurs::new(&t, 3);
        let amount = Amount::from_drops(10_000_001);
        let props = sm.route(&req(9, 21, amount), &view);
        if !props.is_empty() {
            assert_eq!(props.iter().map(|p| p.amount).sum::<Amount>(), amount);
        }
    }

    #[test]
    fn is_atomic() {
        let t = gen::line(2, xrp(1));
        assert!(SpeedyMurmurs::new(&t, 1).atomic());
    }
}
