//! The payment-channel-network graph.

use serde::Serialize;
use spider_types::{Amount, ChannelId, Direction, Hop, IdHashMap, NodeId, Result, SpiderError};
use std::collections::hash_map::Entry;
use std::collections::VecDeque;

/// An undirected payment channel with its total escrowed capacity.
///
/// Endpoints are stored in canonical order (`u < v`); [`Direction::Forward`]
/// always means `u → v`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct Channel {
    /// Canonical first endpoint (`u < v`).
    pub u: NodeId,
    /// Canonical second endpoint.
    pub v: NodeId,
    /// Total funds escrowed in the channel (both directions combined).
    pub capacity: Amount,
}

impl Channel {
    /// The direction of travel when leaving `node` through this channel.
    /// Panics if `node` is not an endpoint.
    #[inline]
    pub fn direction_from(&self, node: NodeId) -> Direction {
        if node == self.u {
            Direction::Forward
        } else {
            assert!(node == self.v, "{node} is not an endpoint of this channel");
            Direction::Backward
        }
    }

    /// The node from which `dir` departs.
    #[inline]
    pub fn source(&self, dir: Direction) -> NodeId {
        match dir {
            Direction::Forward => self.u,
            Direction::Backward => self.v,
        }
    }

    /// The node at which `dir` arrives.
    #[inline]
    pub fn target(&self, dir: Direction) -> NodeId {
        match dir {
            Direction::Forward => self.v,
            Direction::Backward => self.u,
        }
    }
}

/// One entry of a node's adjacency list.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct Adjacency {
    /// The neighboring node.
    pub neighbor: NodeId,
    /// The channel connecting to it.
    pub channel: ChannelId,
}

/// An immutable payment channel network topology.
///
/// Construct one with [`TopologyBuilder`] or a generator from
/// [`crate::gen`]. Node ids are dense `0..node_count()`, channel ids dense
/// `0..channel_count()`. Adjacency lists are sorted by neighbor id, so all
/// traversals are deterministic.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct Topology {
    node_count: usize,
    channels: Vec<Channel>,
    adj: Vec<Vec<Adjacency>>,
}

impl Topology {
    /// Starts building a topology with `nodes` nodes.
    pub fn builder(nodes: usize) -> TopologyBuilder {
        TopologyBuilder::new(nodes)
    }

    /// Number of nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// Number of channels (undirected edges).
    #[inline]
    pub fn channel_count(&self) -> usize {
        self.channels.len()
    }

    /// Iterator over all node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.node_count).map(NodeId::from_index)
    }

    /// Iterator over `(id, channel)` pairs.
    pub fn channels(&self) -> impl Iterator<Item = (ChannelId, &Channel)> + '_ {
        self.channels
            .iter()
            .enumerate()
            .map(|(i, c)| (ChannelId::from_index(i), c))
    }

    /// The channel with the given id.
    #[inline]
    pub fn channel(&self, id: ChannelId) -> &Channel {
        &self.channels[id.index()]
    }

    /// Adjacency list of `node`, sorted by neighbor id.
    #[inline]
    pub fn neighbors(&self, node: NodeId) -> &[Adjacency] {
        &self.adj[node.index()]
    }

    /// Degree of `node`.
    #[inline]
    pub fn degree(&self, node: NodeId) -> usize {
        self.adj[node.index()].len()
    }

    /// The channel between `a` and `b`, if one exists.
    pub fn channel_between(&self, a: NodeId, b: NodeId) -> Option<ChannelId> {
        let (probe, other) = if self.degree(a) <= self.degree(b) {
            (a, b)
        } else {
            (b, a)
        };
        self.adj[probe.index()]
            .binary_search_by_key(&other, |adj| adj.neighbor)
            .ok()
            .map(|i| self.adj[probe.index()][i].channel)
    }

    /// Returns a copy with per-channel capacities given by `f`.
    pub fn with_capacities(&self, mut f: impl FnMut(ChannelId, &Channel) -> Amount) -> Topology {
        let mut t = self.clone();
        for (i, c) in t.channels.iter_mut().enumerate() {
            c.capacity = f(ChannelId::from_index(i), c);
        }
        t
    }

    /// Breadth-first hop distances from `src`; `None` for unreachable nodes.
    pub fn bfs_distances(&self, src: NodeId) -> Vec<Option<u32>> {
        let mut dist = vec![None; self.node_count];
        dist[src.index()] = Some(0);
        let mut queue = VecDeque::from([src]);
        while let Some(u) = queue.pop_front() {
            let du = dist[u.index()].expect("visited");
            for adj in self.neighbors(u) {
                if dist[adj.neighbor.index()].is_none() {
                    dist[adj.neighbor.index()] = Some(du + 1);
                    queue.push_back(adj.neighbor);
                }
            }
        }
        dist
    }

    /// Full BFS parent tree from `src`: entry `i` is the predecessor of
    /// node `i` on its shortest path from `src` (`u32::MAX` = unreached;
    /// the source points at itself). Ties are broken toward the smallest
    /// neighbor id, deterministically. One tree serves *every*
    /// destination, which is what lets the shortest-path routing cache
    /// pay for a single traversal per sender.
    pub fn bfs_parents(&self, src: NodeId) -> Vec<u32> {
        let mut parent = vec![u32::MAX; self.node_count];
        parent[src.index()] = src.0;
        let mut queue = VecDeque::from([src]);
        while let Some(u) = queue.pop_front() {
            for adj in self.neighbors(u) {
                if parent[adj.neighbor.index()] == u32::MAX {
                    parent[adj.neighbor.index()] = u.0;
                    queue.push_back(adj.neighbor);
                }
            }
        }
        parent
    }

    /// Reads the `src → dst` path out of a tree from
    /// [`Topology::bfs_parents`]; `None` when `dst` is unreached, or when
    /// `src` is not on `dst`'s ancestor chain (a tree rooted elsewhere).
    pub fn path_from_parents(parents: &[u32], src: NodeId, dst: NodeId) -> Option<Vec<NodeId>> {
        if parents[dst.index()] == u32::MAX {
            return None;
        }
        let mut path = vec![dst];
        let mut cur = dst;
        while cur != src {
            let p = NodeId(parents[cur.index()]);
            if p == cur {
                // Reached the tree's root without meeting `src`.
                return None;
            }
            cur = p;
            path.push(cur);
        }
        path.reverse();
        Some(path)
    }

    /// One shortest path (by hop count) from `src` to `dst`, as the list of
    /// visited nodes including both endpoints. Ties are broken toward the
    /// smallest neighbor id, deterministically. Derived from
    /// [`Topology::bfs_parents`], so per-pair and per-source-tree callers
    /// agree by construction.
    pub fn shortest_path(&self, src: NodeId, dst: NodeId) -> Option<Vec<NodeId>> {
        if src == dst {
            return Some(vec![src]);
        }
        Self::path_from_parents(&self.bfs_parents(src), src, dst)
    }

    /// Converts a node path (as returned by [`Topology::shortest_path`])
    /// into the channel hops traversed, with the direction of travel.
    pub fn path_channels(&self, path: &[NodeId]) -> Result<Vec<Hop>> {
        let mut hops = Vec::with_capacity(path.len().saturating_sub(1));
        for w in path.windows(2) {
            let (a, b) = (w[0], w[1]);
            let id = self
                .channel_between(a, b)
                .ok_or(SpiderError::NotAdjacent(a, b))?;
            hops.push(Hop::new(id, self.channel(id).direction_from(a)));
        }
        Ok(hops)
    }

    /// True iff every node can reach every other node.
    pub fn is_connected(&self) -> bool {
        if self.node_count == 0 {
            return true;
        }
        self.bfs_distances(NodeId(0)).iter().all(Option::is_some)
    }
}

/// The id of the next channel of a topology holding `count`: an error
/// once ids no longer fit the 31 bits a [`Hop`] gives them.
fn next_channel_id(count: usize) -> Result<ChannelId> {
    if count < Hop::MAX_CHANNELS {
        Ok(ChannelId::from_index(count))
    } else {
        Err(SpiderError::InvalidConfig(format!(
            "channel id {count} does not fit 31 bits"
        )))
    }
}

/// Incremental constructor for [`Topology`].
///
/// Rejects self-loops and duplicate channels: the paper models parallel
/// channels between the same pair as one channel with the combined
/// capacity, so a pair is added once, with that capacity.
#[derive(Debug, Clone)]
pub struct TopologyBuilder {
    node_count: usize,
    channels: Vec<Channel>,
    /// Canonical `(u, v)` → position in `channels`, so the duplicate check
    /// is one lookup instead of a scan of every channel added so far.
    /// Never iterated.
    index: IdHashMap<(NodeId, NodeId), usize>,
}

impl TopologyBuilder {
    /// Creates a builder for a graph with `nodes` nodes and no channels.
    pub fn new(nodes: usize) -> Self {
        TopologyBuilder {
            node_count: nodes,
            channels: Vec::new(),
            index: IdHashMap::default(),
        }
    }

    fn canonical(&self, a: NodeId, b: NodeId) -> Result<(NodeId, NodeId)> {
        if a.index() >= self.node_count {
            return Err(SpiderError::UnknownNode(a));
        }
        if b.index() >= self.node_count {
            return Err(SpiderError::UnknownNode(b));
        }
        if a == b {
            return Err(SpiderError::InvalidConfig(format!("self-loop at {a}")));
        }
        Ok(if a < b { (a, b) } else { (b, a) })
    }

    /// Adds a channel between `a` and `b`. Errors on self-loops, unknown
    /// nodes, duplicate pairs, or a channel id a [`Hop`] cannot carry.
    pub fn channel(&mut self, a: NodeId, b: NodeId, capacity: Amount) -> Result<&mut Self> {
        let (u, v) = self.canonical(a, b)?;
        match self.index.entry((u, v)) {
            Entry::Occupied(_) => Err(SpiderError::InvalidConfig(format!(
                "duplicate channel {u}-{v}"
            ))),
            Entry::Vacant(slot) => {
                next_channel_id(self.channels.len())?;
                slot.insert(self.channels.len());
                self.channels.push(Channel { u, v, capacity });
                Ok(self)
            }
        }
    }

    /// True if a channel between `a` and `b` has been added.
    pub fn has_channel(&self, a: NodeId, b: NodeId) -> bool {
        match self.canonical(a, b) {
            Ok((u, v)) => self.index.contains_key(&(u, v)),
            Err(_) => false,
        }
    }

    /// Number of channels added so far.
    pub fn channel_count(&self) -> usize {
        self.channels.len()
    }

    /// Finalizes the topology (sorts channels canonically and builds
    /// adjacency lists).
    pub fn build(mut self) -> Topology {
        // Sort channels by (u, v) so ids are independent of insertion order.
        self.channels.sort_by_key(|c| (c.u, c.v));
        let mut adj: Vec<Vec<Adjacency>> = vec![Vec::new(); self.node_count];
        for (i, c) in self.channels.iter().enumerate() {
            let id = ChannelId::from_index(i);
            adj[c.u.index()].push(Adjacency {
                neighbor: c.v,
                channel: id,
            });
            adj[c.v.index()].push(Adjacency {
                neighbor: c.u,
                channel: id,
            });
        }
        for list in &mut adj {
            list.sort_by_key(|a| a.neighbor);
        }
        Topology {
            node_count: self.node_count,
            channels: self.channels,
            adj,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    fn small() -> Topology {
        // 0 - 1 - 2 - 3, plus chord 1 - 3; node 4 isolated.
        let mut b = Topology::builder(5);
        b.channel(n(0), n(1), Amount::from_xrp(10)).unwrap();
        b.channel(n(2), n(1), Amount::from_xrp(20)).unwrap();
        b.channel(n(2), n(3), Amount::from_xrp(30)).unwrap();
        b.channel(n(3), n(1), Amount::from_xrp(40)).unwrap();
        b.build()
    }

    #[test]
    fn counts_and_lookup() {
        let t = small();
        assert_eq!(t.node_count(), 5);
        assert_eq!(t.channel_count(), 4);
        let id = t.channel_between(n(1), n(2)).unwrap();
        let c = t.channel(id);
        assert_eq!((c.u, c.v), (n(1), n(2))); // canonicalized
        assert_eq!(c.capacity, Amount::from_xrp(20));
        assert_eq!(t.channel_between(n(0), n(3)), None);
        assert_eq!(t.channel_between(n(2), n(1)), t.channel_between(n(1), n(2)));
    }

    #[test]
    fn channel_ids_are_insertion_order_independent() {
        let mut b1 = Topology::builder(3);
        b1.channel(n(0), n(1), Amount::from_xrp(1)).unwrap();
        b1.channel(n(1), n(2), Amount::from_xrp(2)).unwrap();
        let mut b2 = Topology::builder(3);
        b2.channel(n(2), n(1), Amount::from_xrp(2)).unwrap();
        b2.channel(n(1), n(0), Amount::from_xrp(1)).unwrap();
        assert_eq!(b1.build(), b2.build());
    }

    #[test]
    fn adjacency_is_sorted() {
        let t = small();
        let neigh: Vec<NodeId> = t.neighbors(n(1)).iter().map(|a| a.neighbor).collect();
        assert_eq!(neigh, vec![n(0), n(2), n(3)]);
        assert_eq!(t.degree(n(1)), 3);
        assert_eq!(t.degree(n(4)), 0);
    }

    #[test]
    fn builder_rejects_bad_input() {
        let mut b = Topology::builder(2);
        assert!(matches!(
            b.channel(n(0), n(0), Amount::ZERO),
            Err(SpiderError::InvalidConfig(_))
        ));
        assert!(matches!(
            b.channel(n(0), n(5), Amount::ZERO),
            Err(SpiderError::UnknownNode(_))
        ));
        b.channel(n(0), n(1), Amount::from_xrp(1)).unwrap();
        assert!(matches!(
            b.channel(n(1), n(0), Amount::ZERO),
            Err(SpiderError::InvalidConfig(_))
        ));
    }

    #[test]
    fn builder_lookups_hold_at_ten_thousand_channels() {
        // Ring plus chords: 12,000 distinct channels over 4,000 nodes,
        // added with alternating endpoint order.
        let nodes = 4_000u32;
        let mut b = Topology::builder(nodes as usize);
        for i in 0..nodes {
            for step in [1, 7, 31] {
                let (x, y) = (n(i), n((i + step) % nodes));
                let (x, y) = if i % 2 == 0 { (x, y) } else { (y, x) };
                assert!(b.channel(x, y, Amount::from_xrp(1)).is_ok());
            }
        }
        assert_eq!(b.channel_count(), 12_000);
        for i in (0..nodes).step_by(97) {
            let (x, y) = (n(i), n((i + 7) % nodes));
            assert!(b.has_channel(x, y) && b.has_channel(y, x));
            assert!(!b.has_channel(x, n((i + 2) % nodes)));
            assert!(matches!(
                b.channel(y, x, Amount::ZERO),
                Err(SpiderError::InvalidConfig(_))
            ));
        }
        assert!(!b.has_channel(n(0), n(0)) && !b.has_channel(n(0), n(nodes)));
        assert_eq!(b.channel_count(), 12_000);
        let t = b.build();
        let cap = |x: u32, y: u32| {
            t.channel_between(n(x), n(y))
                .map(|id| t.channel(id).capacity.drops())
        };
        assert_eq!(cap(0, 7), Some(1_000_000));
        assert_eq!(cap(104, 97), Some(1_000_000));
        assert_eq!(cap(0, 2), None);
    }

    #[test]
    fn channel_helpers() {
        let t = small();
        let id = t.channel_between(n(1), n(3)).unwrap();
        let c = t.channel(id);
        assert_eq!(c.direction_from(n(1)), Direction::Forward);
        assert_eq!(c.direction_from(n(3)), Direction::Backward);
        assert_eq!(c.source(Direction::Forward), n(1));
        assert_eq!(c.target(Direction::Forward), n(3));
        assert_eq!(c.source(Direction::Backward), n(3));
    }

    #[test]
    fn bfs_and_shortest_paths() {
        let t = small();
        let d = t.bfs_distances(n(0));
        assert_eq!(d[0], Some(0));
        assert_eq!(d[1], Some(1));
        assert_eq!(d[2], Some(2));
        assert_eq!(d[3], Some(2));
        assert_eq!(d[4], None);
        assert_eq!(t.shortest_path(n(0), n(3)).unwrap(), vec![n(0), n(1), n(3)]);
        assert_eq!(t.shortest_path(n(0), n(4)), None);
        assert_eq!(t.shortest_path(n(2), n(2)).unwrap(), vec![n(2)]);
    }

    #[test]
    fn parent_tree_serves_every_destination() {
        let t = small();
        let tree = t.bfs_parents(n(0));
        for dst in [1u32, 2, 3] {
            assert_eq!(
                Topology::path_from_parents(&tree, n(0), n(dst)),
                t.shortest_path(n(0), n(dst)),
                "dst {dst}"
            );
        }
        // Unreached destination.
        assert_eq!(Topology::path_from_parents(&tree, n(0), n(4)), None);
        // Misuse: `src` not on `dst`'s ancestor chain in a tree rooted
        // elsewhere must return None, not loop.
        assert_eq!(Topology::path_from_parents(&tree, n(2), n(3)), None);
    }

    #[test]
    fn shortest_path_tie_break_is_smallest_id() {
        // 0-1, 0-2, 1-3, 2-3: two paths 0→3; BFS must pick via node 1.
        let mut b = Topology::builder(4);
        b.channel(n(0), n(1), Amount::ZERO).unwrap();
        b.channel(n(0), n(2), Amount::ZERO).unwrap();
        b.channel(n(1), n(3), Amount::ZERO).unwrap();
        b.channel(n(2), n(3), Amount::ZERO).unwrap();
        let t = b.build();
        assert_eq!(t.shortest_path(n(0), n(3)).unwrap(), vec![n(0), n(1), n(3)]);
    }

    #[test]
    fn path_channels_directions() {
        let t = small();
        let hops = t.path_channels(&[n(0), n(1), n(3)]).unwrap();
        assert_eq!(hops.len(), 2);
        let (c0, d0) = hops[0].parts();
        assert_eq!(t.channel(c0).source(d0), n(0));
        let (c1, d1) = hops[1].parts();
        assert_eq!(t.channel(c1).source(d1), n(1));
        assert_eq!(t.channel(c1).target(d1), n(3));
        assert!(t.path_channels(&[n(0), n(3)]).is_err());
    }

    /// Ids past 31 bits are refused (2³¹ channels cannot be built in a
    /// test, so the bound is checked where the builder asks it).
    #[test]
    fn channel_ids_must_fit_a_hop() {
        let last = Hop::MAX_CHANNELS - 1;
        assert_eq!(next_channel_id(0), Ok(ChannelId(0)));
        assert_eq!(next_channel_id(last), Ok(ChannelId::from_index(last)));
        assert!(matches!(
            next_channel_id(Hop::MAX_CHANNELS),
            Err(SpiderError::InvalidConfig(msg)) if msg.contains("31 bits")
        ));
    }

    #[test]
    fn connectivity() {
        assert!(!small().is_connected()); // node 4 isolated
        let mut b = Topology::builder(2);
        b.channel(n(0), n(1), Amount::ZERO).unwrap();
        assert!(b.build().is_connected());
        assert!(Topology::builder(0).build().is_connected());
    }

    #[test]
    fn capacity_rewrites() {
        let t = small().with_capacities(|id, _| Amount::from_xrp(id.0 as u64));
        let caps: Vec<Amount> = t.channels().map(|(_, c)| c.capacity).collect();
        assert_eq!(caps, [0, 1, 2, 3].map(Amount::from_xrp));
    }
}
