//! Plain path searches for the fluid LP (§5.3.1).
//!
//! "Practical implementations would restrict the set of paths considered
//! between each source and destination … e.g., the K shortest paths or the
//! K highest-capacity paths." This module provides, over [`Topology`]:
//!
//! * [`k_shortest_paths`] — Yen's algorithm over hop counts (loopless);
//! * [`k_edge_disjoint_paths`] — successive shortest paths with used
//!   channels removed (the "4 disjoint shortest paths" of §6.1).
//!
//! Both are written to be read: a `VecDeque` BFS over `BTreeSet` bans,
//! one search at a time, which the fluid LP can afford — it asks once per
//! demand pair, on graphs of a dozen nodes in the LP-level figures and of
//! a few hundred for the simulated Spider (LP) scheme.
//! Both are deterministic: ties break toward fewer hops, then the
//! lexicographically smallest node sequence, which is what a BFS over
//! id-sorted adjacency finds. A degenerate `src == dst` query has no
//! candidate paths: both return the empty set.

use spider_topology::Topology;
use spider_types::{ChannelId, Hop, NodeId};
use std::collections::{BTreeSet, VecDeque};

/// A loop-free path through the topology (node sequence, both endpoints
/// included).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Path {
    /// Visited nodes, source first.
    pub nodes: Vec<NodeId>,
}

impl Path {
    /// Creates a path from a node sequence (≥ 1 node, no repeats).
    pub fn new(nodes: Vec<NodeId>) -> Self {
        debug_assert!(!nodes.is_empty());
        debug_assert!(
            {
                let mut s = nodes.clone();
                s.sort_unstable();
                s.dedup();
                s.len() == nodes.len()
            },
            "path has repeated nodes"
        );
        Path { nodes }
    }

    /// Number of hops (edges).
    pub fn hop_count(&self) -> usize {
        self.nodes.len() - 1
    }

    /// Source node.
    pub fn source(&self) -> NodeId {
        self.nodes[0]
    }

    /// Destination node.
    pub fn dest(&self) -> NodeId {
        *self.nodes.last().expect("non-empty")
    }

    /// The channel hops traversed, with directions. Panics if consecutive
    /// nodes are not adjacent in `topo`.
    pub fn channels(&self, topo: &Topology) -> Vec<Hop> {
        topo.path_channels(&self.nodes)
            .expect("path follows topology edges")
    }
}

/// Yen's algorithm: up to `k` loopless shortest paths by hop count, in
/// non-decreasing length (ties: lexicographic node order).
///
/// One `bfs_avoiding` search per spur. Its one user is the fluid LP's
/// path selection, whose graphs have a dozen nodes.
pub fn k_shortest_paths(topo: &Topology, src: NodeId, dst: NodeId, k: usize) -> Vec<Path> {
    if k == 0 || src == dst {
        return Vec::new();
    }
    let Some(first) = bfs_avoiding(topo, src, dst, &BTreeSet::new(), &BTreeSet::new()) else {
        return Vec::new();
    };
    let mut accepted = vec![first];
    let mut candidates: Vec<Path> = Vec::new();
    while accepted.len() < k {
        let prev = accepted[accepted.len() - 1].clone();
        for i in 0..prev.hop_count() {
            // Spur at node `i`: ban the next hop of every accepted path
            // sharing this root, and the root's nodes before the spur node
            // (looplessness).
            let root = &prev.nodes[..=i];
            let mut banned_c = BTreeSet::new();
            let mut banned_n = BTreeSet::new();
            for p in &accepted {
                if p.nodes.len() > i + 1 && p.nodes[..=i] == *root {
                    if let Some(c) = topo.channel_between(p.nodes[i], p.nodes[i + 1]) {
                        banned_c.insert(c);
                    }
                }
            }
            for n in &root[..i] {
                banned_n.insert(*n);
            }
            if let Some(spur) = bfs_avoiding(topo, prev.nodes[i], dst, &banned_c, &banned_n) {
                let mut nodes = root[..i].to_vec();
                nodes.extend(spur.nodes);
                let cand = Path::new(nodes);
                if !accepted.contains(&cand) && !candidates.contains(&cand) {
                    candidates.push(cand);
                }
            }
        }
        if candidates.is_empty() {
            break;
        }
        // Accept the best candidate: fewest hops, then lexicographically
        // smallest.
        candidates.sort_by(|a, b| {
            a.hop_count()
                .cmp(&b.hop_count())
                .then_with(|| a.nodes.cmp(&b.nodes))
        });
        accepted.push(candidates.remove(0));
    }
    accepted
}

/// The BFS path from `src` to `dst` over id-sorted adjacency (the lex-min
/// shortest path) that crosses no channel of `banned_c` and visits no node
/// of `banned_n` — Yen's spur search, and each search of
/// [`k_edge_disjoint_paths`]. Neither asks for `src == dst` or bans
/// either endpoint: the spur node and `dst` are off the spur's root.
fn bfs_avoiding(
    topo: &Topology,
    src: NodeId,
    dst: NodeId,
    banned_c: &BTreeSet<ChannelId>,
    banned_n: &BTreeSet<NodeId>,
) -> Option<Path> {
    debug_assert!(src != dst && !banned_n.contains(&src) && !banned_n.contains(&dst));
    let mut parent: Vec<Option<NodeId>> = vec![None; topo.node_count()];
    let mut seen = vec![false; topo.node_count()];
    seen[src.index()] = true;
    let mut q = VecDeque::from([src]);
    while let Some(u) = q.pop_front() {
        for adj in topo.neighbors(u) {
            if banned_c.contains(&adj.channel)
                || banned_n.contains(&adj.neighbor)
                || seen[adj.neighbor.index()]
            {
                continue;
            }
            seen[adj.neighbor.index()] = true;
            parent[adj.neighbor.index()] = Some(u);
            if adj.neighbor == dst {
                let mut nodes = vec![dst];
                let mut cur = dst;
                while let Some(p) = parent[cur.index()] {
                    nodes.push(p);
                    cur = p;
                }
                nodes.reverse();
                return Some(Path::new(nodes));
            }
            q.push_back(adj.neighbor);
        }
    }
    None
}

/// Up to `k` pairwise edge-disjoint paths, found by repeatedly taking the
/// shortest path and deleting its channels (§6.1's "4 disjoint shortest
/// paths" between every pair): successive `bfs_avoiding` searches, each
/// banning the channels of every path found before it.
///
/// A degenerate `src == dst` query returns the empty set: the single-node
/// path has no channels to delete, so the loop would make no progress.
pub fn k_edge_disjoint_paths(topo: &Topology, src: NodeId, dst: NodeId, k: usize) -> Vec<Path> {
    if src == dst {
        return Vec::new();
    }
    let mut banned = BTreeSet::new();
    let mut out = Vec::new();
    while out.len() < k {
        let Some(p) = bfs_avoiding(topo, src, dst, &banned, &BTreeSet::new()) else {
            break;
        };
        banned.extend(p.channels(topo).iter().map(|hop| hop.channel()));
        out.push(p);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use spider_topology::gen;
    use spider_types::Amount;
    use std::collections::BTreeSet;

    const CAP: Amount = Amount::from_xrp(100);

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    /// A topology of `nodes` nodes with the given channels, in order.
    fn graph(nodes: usize, edges: &[(u32, u32)]) -> Topology {
        let mut b = Topology::builder(nodes);
        for &(u, v) in edges {
            b.channel(n(u), n(v), CAP).unwrap();
        }
        b.build()
    }

    /// Diamond: 0-1-3, 0-2-3, plus direct 0-3.
    fn diamond() -> Topology {
        graph(4, &[(0, 1), (1, 3), (0, 2), (2, 3), (0, 3)])
    }

    #[test]
    fn path_basics() {
        let p = Path::new(vec![n(0), n(1), n(3)]);
        assert_eq!(p.hop_count(), 2);
        assert_eq!(p.source(), n(0));
        assert_eq!(p.dest(), n(3));
        let hops = p.channels(&diamond());
        assert_eq!(hops.len(), 2);
    }

    #[test]
    fn yen_orders_by_length_then_lex() {
        let t = diamond();
        let paths = k_shortest_paths(&t, n(0), n(3), 5);
        assert_eq!(paths.len(), 3);
        assert_eq!(paths[0].nodes, vec![n(0), n(3)]);
        assert_eq!(paths[1].nodes, vec![n(0), n(1), n(3)]);
        assert_eq!(paths[2].nodes, vec![n(0), n(2), n(3)]);
    }

    #[test]
    fn yen_k_limits_output() {
        let t = diamond();
        assert_eq!(k_shortest_paths(&t, n(0), n(3), 2).len(), 2);
        assert_eq!(k_shortest_paths(&t, n(0), n(3), 0).len(), 0);
        assert_eq!(k_shortest_paths(&t, n(0), n(0), 4).len(), 0);
    }

    #[test]
    fn yen_paths_are_loopless_and_distinct() {
        let t = gen::isp_topology(CAP);
        let paths = k_shortest_paths(&t, n(8), n(20), 8);
        assert!(paths.len() >= 4);
        let mut seen = BTreeSet::new();
        for p in &paths {
            assert!(seen.insert(p.nodes.clone()), "duplicate path");
            let mut s = p.nodes.clone();
            s.sort_unstable();
            s.dedup();
            assert_eq!(s.len(), p.nodes.len(), "loop in path");
            assert_eq!(p.source(), n(8));
            assert_eq!(p.dest(), n(20));
        }
        // Non-decreasing length.
        for w in paths.windows(2) {
            assert!(w[0].hop_count() <= w[1].hop_count());
        }
    }

    #[test]
    fn yen_on_disconnected_pair() {
        let t = graph(4, &[(0, 1), (2, 3)]);
        assert!(k_shortest_paths(&t, n(0), n(3), 3).is_empty());
    }

    #[test]
    fn edge_disjoint_paths_share_no_channel() {
        let t = diamond();
        let paths = k_edge_disjoint_paths(&t, n(0), n(3), 4);
        assert_eq!(paths.len(), 3); // direct, via 1, via 2
        let mut used = BTreeSet::new();
        for p in &paths {
            for hop in p.channels(&t) {
                assert!(used.insert(hop.channel()), "channel reused across paths");
            }
        }
    }

    #[test]
    fn edge_disjoint_respects_k() {
        let t = diamond();
        assert_eq!(k_edge_disjoint_paths(&t, n(0), n(3), 2).len(), 2);
    }

    /// Regression: the degenerate self-pair used to loop `k` times on the
    /// zero-hop path (no channels to ban ⇒ no progress) and return `k`
    /// duplicates.
    #[test]
    fn edge_disjoint_self_pair_is_empty() {
        let t = diamond();
        assert!(k_edge_disjoint_paths(&t, n(0), n(0), 4).is_empty());
    }

    #[test]
    fn paper_uses_4_disjoint_paths_on_isp() {
        let t = gen::isp_topology(CAP);
        // Core nodes have many disjoint routes; 4 must exist.
        let paths = k_edge_disjoint_paths(&t, n(0), n(5), 4);
        assert_eq!(paths.len(), 4);
    }
}
