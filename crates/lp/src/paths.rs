//! Path oracles (§5.3.1).
//!
//! "Practical implementations would restrict the set of paths considered
//! between each source and destination … e.g., the K shortest paths or the
//! K highest-capacity paths." This module provides:
//!
//! * [`k_shortest_paths`] — Yen's algorithm over hop counts (loopless),
//!   one plain implementation over [`Topology`] for the fluid LP's small
//!   graphs;
//! * [`k_edge_disjoint_paths`] — successive shortest paths with used
//!   channels removed (the "4 disjoint shortest paths" of §6.1);
//! * [`SourceOracle`] — the batched per-source form of the edge-disjoint
//!   and single-shortest-path oracles: one reusable workspace (and, for a
//!   source with enough destinations to repay it, one BFS tree) answers
//!   *every* destination of a source, which is what makes precomputing a
//!   whole workload's candidate sets affordable (see
//!   `spider_routing::PathOracle`). It writes into a [`FlatPaths`] buffer
//!   — node ids *and* the hops, channel and direction, the search already
//!   knows — so a batch costs no allocation per pair or per path.
//!
//! Every search behind the edge-disjoint oracle and the batched form is
//! one routine, `BfsWorkspace::lexmin_path`: an exact *bidirectional*
//! layer search over bitsets, on the enabled channels minus a set of
//! banned ones. "The BFS path over id-sorted adjacency" is the
//! lexicographically smallest shortest path, a characterization that does
//! not care in which order the graph is explored — so instead of growing
//! one ball from an endpoint until it swallows the other (most of a
//! hub-dominated payment-channel graph, for the 5–6-hop detours that
//! candidates 2–4 of an edge-disjoint set are), two balls grow from both
//! endpoints, meet after a few dozen node expansions, and a greedy walk
//! reads the lex-min path off their layers. The invariants that make this
//! exact are on that function.
//!
//! All oracles are deterministic: ties break toward fewer hops, then the
//! lexicographically smallest node sequence. A degenerate `src == dst`
//! query has no usable candidate paths: the multi-path oracles
//! (edge-disjoint, Yen) yield the empty set, while the
//! single-shortest-path oracle returns the zero-hop path exactly as
//! `Topology::shortest_path` does.

use spider_topology::Topology;
use spider_types::{ChannelId, Direction, Hop, NodeId};
use std::collections::{BTreeSet, VecDeque};

// (Channel liveness: every oracle in this module searches only *enabled*
// channels — see [`CsrGraph::set_channel_enabled`] — so candidate sets on
// a churned network are exactly what a cold build over the live subgraph
// would produce, without reflattening anything.)

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

/// Fills the hop slot of a path's last node, which has no hop; never read.
const NO_HOP: Hop = Hop::new(ChannelId(0), Direction::Forward);

/// Many paths in one flat buffer: every path's node ids in one vector,
/// beside each node the hop that leaves it in another, and one end offset
/// per path.
///
/// This is what the batched oracles write: a search already knows which
/// channel each hop crosses and which end it leaves from, so the buffer
/// keeps both and whoever interns the path never looks a hop up. A path's
/// last node has no hop; its slot holds a filler, so one offset addresses
/// both vectors — the layout the simulation's path table stores, which is
/// why it can adopt a finished buffer ([`Self::into_parts`]) instead of
/// copying it. Appending a path costs no allocation beyond the vectors'
/// amortized growth.
#[derive(Debug, Default)]
pub struct FlatPaths {
    nodes: Vec<NodeId>,
    /// Parallel to `nodes` once a path is sealed.
    hops: Vec<Hop>,
    /// Per path: end offset into `nodes`. Nodes and hops past the last
    /// end belong to a path still being written.
    ends: Vec<u32>,
}

impl FlatPaths {
    /// An empty buffer.
    pub fn new() -> Self {
        FlatPaths::default()
    }

    /// Number of paths.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// True when no path has been written.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Forgets every path, keeping the capacity.
    pub fn clear(&mut self) {
        self.nodes.clear();
        self.hops.clear();
        self.ends.clear();
    }

    /// Where path `i`'s nodes sit in the buffer; its hops sit at the same
    /// offsets, less the last.
    fn span(&self, i: usize) -> std::ops::Range<usize> {
        let start = if i == 0 { 0 } else { self.ends[i - 1] as usize };
        start..self.ends[i] as usize
    }

    /// Path `i`: its nodes (source first) and its hops.
    pub fn get(&self, i: usize) -> (&[NodeId], &[Hop]) {
        let span = self.span(i);
        (
            &self.nodes[span.clone()],
            &self.hops[span.start..span.end - 1],
        )
    }

    /// Paths `range`, in order.
    pub fn range(
        &self,
        range: std::ops::Range<usize>,
    ) -> impl ExactSizeIterator<Item = (&[NodeId], &[Hop])> + '_ {
        range.map(|i| self.get(i))
    }

    /// Every path, in order.
    pub fn iter(&self) -> impl Iterator<Item = (&[NodeId], &[Hop])> + '_ {
        self.range(0..self.len())
    }

    /// The buffer taken apart: the nodes, the hop leaving each node, and
    /// each path's end offset into both. (A path starts where the one
    /// before it ends.)
    pub fn into_parts(self) -> (Vec<NodeId>, Vec<Hop>, Vec<u32>) {
        (self.nodes, self.hops, self.ends)
    }

    /// Appends a copy of a path.
    fn push(&mut self, nodes: &[NodeId], hops: &[Hop]) {
        self.nodes.extend_from_slice(nodes);
        self.hops.extend_from_slice(hops);
        self.seal();
    }

    /// Closes the path whose nodes and hops were just appended.
    fn seal(&mut self) {
        debug_assert_eq!(self.nodes.len(), self.hops.len() + 1);
        self.hops.push(NO_HOP);
        let end = u32::try_from(self.nodes.len()).expect("path buffer exceeds u32 offsets");
        self.ends.push(end);
    }

    /// The nodes appended since the last [`Self::seal`].
    #[cfg(test)]
    fn open_nodes(&self) -> &[NodeId] {
        &self.nodes[self.ends.last().map_or(0, |&e| e as usize)..]
    }

    /// The paths as owned [`Path`]s (the per-pair oracles' return form).
    fn to_paths(&self) -> Vec<Path> {
        self.iter()
            .map(|(nodes, _)| Path::new(nodes.to_vec()))
            .collect()
    }
}

/// Nodes at or above this degree get an adjacency *bitset* row next to
/// their CSR row: a layer expansion ORs 64 neighbors per word instead of
/// scanning the row edge by edge, which is where the hub-heavy scale-free
/// graphs spend most of their BFS time.
const HUB_MIN_DEG: usize = 16;

/// Upper bound on the hub-bitset arena (in 8-byte words, 32 MiB) so giant
/// graphs degrade to pure row scans instead of exploding memory.
const HUB_BITS_MAX_WORDS: usize = 1 << 22;

/// Flattened (CSR) copy of the topology's adjacency lists.
///
/// `Topology` stores one `Vec<Adjacency>` per node; a BFS over it chases a
/// pointer per visited node. The oracles here run *many* traversals over
/// the same static graph, so they scan this single contiguous
/// `(neighbor, channel)` array instead — same entries, same per-node
/// sorted order (traversal order, and therefore every result, is
/// unchanged) — plus adjacency *bitset* rows for hubs, which a layer
/// expansion folds in 64 neighbors at a time. Build it once and share
/// it across every [`SourceOracle`] of a batch; it is immutable and
/// `Sync`.
#[derive(Debug, Clone)]
pub struct CsrGraph {
    /// `offsets[u]..offsets[u + 1]` indexes node `u`'s adjacency slice.
    offsets: Vec<u32>,
    /// Packed adjacency entry: neighbor node index in the low 32 bits,
    /// channel index in the high 32 — one sequential load per edge
    /// instead of two parallel-array loads.
    entries: Vec<u64>,
    /// Neighbor indices alone (parallel to `entries`): the check-free
    /// expansion tier touches half the bytes per edge.
    neighbors: Vec<u32>,
    /// Bitset words per node set (`ceil(node_count / 64)`).
    words: usize,
    /// Per node: word offset of its adjacency bitset row in `hub_bits`,
    /// or `u32::MAX` for nodes expanded through their CSR row.
    hub_row: Vec<u32>,
    /// Adjacency bitset rows of high-degree nodes.
    hub_bits: Vec<u64>,
    /// Channels disabled by topology churn (bitset by channel id). The
    /// CSR arrays are never reflattened; every search tier checks this
    /// mask (hub rows have the endpoint bits of disabled edges cleared,
    /// so whole-word ORs stay exact for free).
    disabled_bits: Vec<u64>,
    /// Per node: how many of its incident channels are disabled (powers
    /// the check-free row tier and the hub feasibility shortcut).
    disabled_deg: Vec<u32>,
}

impl CsrGraph {
    /// Flattens `topo`'s adjacency lists (preserving their sorted order).
    pub fn new(topo: &Topology) -> Self {
        let n = topo.node_count();
        let total = 2 * topo.channel_count();
        let words = n.div_ceil(64);
        let mut offsets = Vec::with_capacity(n + 1);
        let mut entries = Vec::with_capacity(total);
        let mut neighbors = Vec::with_capacity(total);
        let mut hub_row = vec![u32::MAX; n];
        let mut hub_bits = Vec::new();
        offsets.push(0);
        for (u, row_slot) in hub_row.iter_mut().enumerate() {
            let adj = topo.neighbors(NodeId::from_index(u));
            if adj.len() >= HUB_MIN_DEG && hub_bits.len() + words <= HUB_BITS_MAX_WORDS {
                *row_slot = hub_bits.len() as u32;
                let start = hub_bits.len();
                hub_bits.resize(start + words, 0);
                for a in adj {
                    let v = a.neighbor.0 as usize;
                    hub_bits[start + v / 64] |= 1u64 << (v % 64);
                }
            }
            for a in adj {
                entries.push(a.neighbor.0 as u64 | ((a.channel.0 as u64) << 32));
                neighbors.push(a.neighbor.0);
            }
            offsets.push(entries.len() as u32);
        }
        let n_channels = topo.channel_count();
        CsrGraph {
            offsets,
            entries,
            neighbors,
            words,
            hub_row,
            hub_bits,
            disabled_bits: vec![0; n_channels.div_ceil(64)],
            disabled_deg: vec![0; n],
        }
    }

    /// Enables or disables one channel in O(1) — no reflattening. A
    /// disabled channel is invisible to every oracle rooted on this graph:
    /// CSR-row scans skip it, hub bitset rows have its endpoint bits
    /// cleared, feasibility probes discount it. Results over the enabled
    /// subgraph are bit-identical (as node sequences) to a cold build of
    /// the filtered topology.
    pub fn set_channel_enabled(&mut self, topo: &Topology, c: ChannelId, enabled: bool) {
        let ci = c.index() as u32;
        let currently_enabled = !bit_get(&self.disabled_bits, ci);
        if currently_enabled == enabled {
            return;
        }
        let ch = topo.channel(c);
        let (u, v) = (ch.u.0, ch.v.0);
        if enabled {
            bit_clear(&mut self.disabled_bits, ci);
            self.disabled_deg[u as usize] -= 1;
            self.disabled_deg[v as usize] -= 1;
        } else {
            bit_set(&mut self.disabled_bits, ci);
            self.disabled_deg[u as usize] += 1;
            self.disabled_deg[v as usize] += 1;
        }
        // Keep hub bitset rows exact: cleared bits mean whole-word ORs can
        // never traverse a disabled edge, so no per-search correction is
        // ever needed for liveness.
        for (a, b) in [(u, v), (v, u)] {
            let off = self.hub_row[a as usize];
            if off != u32::MAX {
                let row = &mut self.hub_bits[off as usize..off as usize + self.words];
                if enabled {
                    bit_set(row, b);
                } else {
                    bit_clear(row, b);
                }
            }
        }
    }

    /// True when the channel is enabled (the default for every channel).
    pub fn channel_enabled(&self, c: ChannelId) -> bool {
        !bit_get(&self.disabled_bits, c.index() as u32)
    }

    /// Number of `u`'s incident channels that are enabled.
    pub fn live_degree(&self, u: NodeId) -> usize {
        self.row(u.0).len() - self.disabled_at(u.0)
    }

    /// `u`'s enabled channels, each with the neighbor it leads to, in
    /// ascending neighbor order.
    pub fn live_adjacency(&self, u: NodeId) -> impl Iterator<Item = (NodeId, ChannelId)> + '_ {
        let live = self
            .row(u.0)
            .iter()
            .filter(|&&e| !self.is_disabled(Self::channel(e)));
        live.map(|&e| (NodeId(Self::neighbor(e)), ChannelId(Self::channel(e))))
    }

    /// Hop distance from `src` to every node over the enabled channels
    /// (`None` where no live path exists) — one plain BFS, the masked
    /// counterpart of [`Topology::bfs_distances`].
    pub fn hop_distances(&self, src: NodeId) -> Vec<Option<u32>> {
        let mut dist: Vec<Option<u32>> = vec![None; self.node_count()];
        let mut fifo = Vec::with_capacity(self.node_count());
        if let Some(root) = dist.get_mut(src.index()) {
            *root = Some(0);
            fifo.push((src.0, 0));
        }
        let mut head = 0;
        while let Some(&(u, d)) = fifo.get(head) {
            head += 1;
            for &e in self.row(u) {
                if self.is_disabled(Self::channel(e)) {
                    continue;
                }
                let v = Self::neighbor(e);
                if let Some(unseen) = dist.get_mut(v as usize).filter(|d| d.is_none()) {
                    *unseen = Some(d + 1);
                    fifo.push((v, d + 1));
                }
            }
        }
        dist
    }

    /// Disabled-channel probe by raw channel index.
    #[inline]
    fn is_disabled(&self, c: u32) -> bool {
        bit_get(&self.disabled_bits, c)
    }

    /// How many of `u`'s incident channels are disabled.
    #[inline]
    fn disabled_at(&self, u: u32) -> usize {
        self.disabled_deg[u as usize] as usize
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of channels (undirected edges).
    pub fn channel_count(&self) -> usize {
        self.entries.len() / 2
    }

    /// Node `u`'s packed adjacency slice, in sorted neighbor order.
    #[inline]
    fn row(&self, u: u32) -> &[u64] {
        let lo = self.offsets[u as usize] as usize;
        let hi = self.offsets[u as usize + 1] as usize;
        &self.entries[lo..hi]
    }

    /// Node `u`'s neighbor indices alone, in sorted order.
    #[inline]
    fn neighbor_row(&self, u: u32) -> &[u32] {
        let lo = self.offsets[u as usize] as usize;
        let hi = self.offsets[u as usize + 1] as usize;
        &self.neighbors[lo..hi]
    }

    /// `u`'s adjacency bitset row, if it is a hub.
    #[inline]
    fn hub_bits_row(&self, u: u32) -> Option<&[u64]> {
        let off = self.hub_row[u as usize];
        if off == u32::MAX {
            return None;
        }
        Some(&self.hub_bits[off as usize..off as usize + self.words])
    }

    #[inline]
    fn neighbor(entry: u64) -> u32 {
        entry as u32
    }

    #[inline]
    fn channel(entry: u64) -> u32 {
        (entry >> 32) as u32
    }
}

#[inline]
fn bit_get(bits: &[u64], i: u32) -> bool {
    bits[(i / 64) as usize] >> (i % 64) & 1 == 1
}

#[inline]
fn bit_set(bits: &mut [u64], i: u32) {
    bits[(i / 64) as usize] |= 1u64 << (i % 64);
}

#[inline]
fn bit_clear(bits: &mut [u64], i: u32) {
    bits[(i / 64) as usize] &= !(1u64 << (i % 64));
}

/// One side of the bidirectional search: exact distance layers grown from
/// a root (`src` forward, `dst` backward) on the residual graph.
#[derive(Debug, Default)]
struct Ball {
    /// `inner[t]` holds the nodes at residual distance exactly `t` from
    /// the root, for every `t` short of the frontier's.
    inner: Vec<Vec<u64>>,
    /// The outermost layer (distance `inner.len()`). Layers are only ever
    /// added whole.
    frontier: Vec<u64>,
    /// Popcount of `frontier`.
    frontier_len: u32,
    /// Nodes this side may still discover: in none of its layers.
    open: Vec<u64>,
}

impl Ball {
    /// Restarts the ball at `root`: the frontier is `{root}` and every
    /// other node is open. Old layers go to `spare`.
    fn restart(&mut self, root: u32, words: usize, spare: &mut Vec<Vec<u64>>) {
        spare.append(&mut self.inner);
        self.frontier.clear();
        self.frontier.resize(words, 0);
        bit_set(&mut self.frontier, root);
        self.frontier_len = 1;
        self.open.clear();
        self.open.resize(words, !0);
        bit_clear(&mut self.open, root);
    }
}

/// A cleared bitset buffer of `words` words, recycled from `spare` when
/// possible.
fn grab_bits(spare: &mut Vec<Vec<u64>>, words: usize) -> Vec<u64> {
    let mut bits = spare.pop().unwrap_or_default();
    bits.clear();
    bits.resize(words, 0);
    bits
}

/// Advances a visited-flag epoch and returns it, clearing `seen` when the
/// stamp wraps (every 255 generations).
fn next_epoch(epoch: &mut u8, seen: &mut [u8]) -> u8 {
    if *epoch == u8::MAX {
        seen.fill(0);
        *epoch = 1;
    } else {
        *epoch += 1;
    }
    *epoch
}

/// Reusable search state: epoch-stamped ban flags, the tree-build BFS
/// buffers, and the two balls of the bidirectional layer search.
///
/// The oracles run several searches per destination and serve many
/// destinations per source. Instead of clearing ban/visited arrays
/// between searches (O(n + m) writes each), channel bans are one-byte
/// stamps compared against the current epoch — bumping the epoch
/// invalidates them in O(1) (with a full clear every 255 generations) —
/// and the arrays are small enough to stay cache-resident at Ripple
/// scale. Bans accumulate across the successive searches of one
/// destination (edge disjointness) while each search gets fresh layers
/// (bitset buffers recycled through `spare_bits`; restarting a search is
/// a handful of word writes). The membership *semantics* are the ones BFS
/// over sorted adjacency always had, so results are bit-identical to the
/// per-pair oracles of earlier trees.
#[derive(Debug)]
struct BfsWorkspace {
    banned_channel: Vec<u8>,
    seen: Vec<u8>,
    /// Fixed-size FIFO for the tree build (manual length, one slot of
    /// slack).
    fifo: Vec<u32>,
    /// Endpoints of currently banned channels (bitset, cleared per ban
    /// epoch). An expanded node outside this set has only unbanned
    /// channels, so its row is folded in without per-edge ban checks.
    ban_touched_bits: Vec<u64>,
    /// The `src`-rooted ball of the current search.
    fwd: Ball,
    /// The `dst`-rooted ball of the current search.
    bwd: Ball,
    /// Recycled layer buffers.
    spare_bits: Vec<Vec<u64>>,
    ban_epoch: u8,
    bfs_epoch: u8,
}

impl BfsWorkspace {
    fn new(n_nodes: usize, n_channels: usize) -> Self {
        BfsWorkspace {
            banned_channel: vec![0; n_channels],
            seen: vec![0; n_nodes],
            fifo: vec![0; n_nodes + 1],
            ban_touched_bits: vec![0; n_nodes.div_ceil(64)],
            fwd: Ball::default(),
            bwd: Ball::default(),
            spare_bits: Vec::new(),
            // Stamps start at 0, so the first valid epoch is 1.
            ban_epoch: 1,
            bfs_epoch: 0,
        }
    }

    /// Invalidates every ban in O(1) (with a wrap-around reset every 255
    /// generations).
    fn new_ban_epoch(&mut self) {
        self.ban_touched_bits.fill(0);
        if self.ban_epoch == u8::MAX {
            self.banned_channel.fill(0);
            self.ban_epoch = 1;
        } else {
            self.ban_epoch += 1;
        }
    }

    /// Bans channel `c` (endpoints `a`, `b`) for this epoch. Endpoint
    /// tracking powers the check-free row tier of [`Residual::expand`]: a
    /// node outside `ban_touched_bits` provably has no banned channel.
    #[inline]
    fn ban_channel(&mut self, c: u32, a: u32, b: u32) {
        self.banned_channel[c as usize] = self.ban_epoch;
        bit_set(&mut self.ban_touched_bits, a);
        bit_set(&mut self.ban_touched_bits, b);
    }

    /// True when at least one of `u`'s channels is not banned this epoch.
    /// An exact feasibility probe: a further path to/from `u` must cross
    /// one of them, so a `false` here is a search failure the caller can
    /// take for free. `banned_count` (an upper bound on the channels
    /// banned this epoch) short-circuits hubs: more channels than bans
    /// means one is necessarily free.
    fn has_unbanned_channel(&self, csr: &CsrGraph, u: u32, banned_count: usize) -> bool {
        let row = csr.row(u);
        row.len() > banned_count + csr.disabled_at(u)
            || row.iter().any(|&e| {
                let c = CsrGraph::channel(e);
                self.banned_channel[c as usize] != self.ban_epoch && !csr.is_disabled(c)
            })
    }

    /// The shortest path from `src` to `dst` on the residual graph
    /// (enabled channels minus this epoch's channel bans), with the exact
    /// tie-breaks of a BFS over id-sorted adjacency — computed without
    /// simulating that BFS. `banned_edges` lists `(channel, endpoint,
    /// endpoint)` of every channel banned this epoch. On success the
    /// path's nodes and hop channels are appended to `out` — left *open*,
    /// for the caller to seal — and `true` is returned; a failed search
    /// appends nothing.
    ///
    /// BFS over id-sorted adjacency returns *the lexicographically
    /// smallest (by node sequence) shortest path*: discovery order within
    /// a layer is lexicographic in (parent's discovery order, node id),
    /// so each node's parent pointer — its earliest-discovered
    /// predecessor — is the predecessor whose own ancestor chain is
    /// lex-smallest, and the chain reaching `dst` is the lex-min shortest
    /// path (this is the documented tie-break contract of this module,
    /// and the reference tests pin it against a literal BFS). That
    /// characterization is order-free: any way of learning, for every
    /// node, whether it lies on a shortest path and how far from `dst`,
    /// supports the same greedy walk. So the search meets in the middle:
    ///
    /// 1. **Grow.** Keep exact distance layers `F_0..F_a` from `src` and
    ///    `B_0..B_b` from `dst` ([`Ball`]). Expand whichever ball has the
    ///    smaller frontier by one *complete* layer
    ///    ([`Residual::expand`]) and stop the first time a new layer
    ///    touches the other ball. On a hub-dominated graph two balls of
    ///    radius `d / 2` hold a few dozen nodes where one ball of radius
    ///    `d` holds almost the whole component.
    /// 2. **Meet.** Say the new layer is `F_a` and `x ∈ F_a` lies in some
    ///    `B_j`. If `j < b`, `x`'s predecessor `y ∈ F_{a−1}` is adjacent
    ///    to `B_j`, hence in a layer `B_i` with `i ≤ j + 1 ≤ b` — and
    ///    whichever of `F_{a−1}` and `B_i` was added later would have
    ///    touched the other ball then, because layers are added whole. So
    ///    the first contact lies in the two outermost layers; a path
    ///    shorter than `a + b` would likewise have put one of its nodes in
    ///    both balls a layer earlier, so the distance is `d = a + b`, and
    ///    the contact set `F_a ∩ B_b` is every node at distance `a` from
    ///    `src` on a shortest path (symmetrically when the new layer is
    ///    `B_b`).
    /// 3. **Pull back.** `M_a = F_a ∩ B_b`, `M_j = F_j ∩ N(M_{j+1})` for
    ///    `j = a−1 … 1` (the same `expand`, kept to `F_j`): `M_j` is the
    ///    set of nodes `j` from `src` and `d − j` from `dst`.
    /// 4. **Walk.** From `src`, at position `p = 1..=d`, take the
    ///    smallest-id neighbor over an unbanned channel that is one layer
    ///    closer to `dst`: a member of `M_p` while `p ≤ a`, of `B_{d−p}`
    ///    after. For a neighbor `v` of a node of `M_{p−1}` the two tests
    ///    agree — `v` is at most `p` from `src`, and `d − p` from `dst`
    ///    forces at least `p` — so the walk is the one a full `dst`-rooted
    ///    layering would drive: the lex-min path.
    ///
    /// A root sealed in a small residual pocket (by bans or disabled
    /// channels) exhausts *its* ball after a few tiny layers whichever
    /// side it is on — failure costs the pocket's size, not a traversal
    /// of the other endpoint's whole component.
    fn lexmin_path(
        &mut self,
        csr: &CsrGraph,
        src: u32,
        dst: u32,
        banned_edges: &[(u32, u32, u32)],
        out: &mut FlatPaths,
    ) -> bool {
        debug_assert_ne!(src, dst);
        let words = csr.words;
        self.fwd.restart(src, words, &mut self.spare_bits);
        self.bwd.restart(dst, words, &mut self.spare_bits);
        let BfsWorkspace {
            banned_channel,
            ban_touched_bits,
            ban_epoch,
            fwd,
            bwd,
            spare_bits,
            ..
        } = self;
        let residual = Residual {
            csr,
            banned_channel,
            ban_epoch: *ban_epoch,
            ban_touched_bits,
            banned_edges,
        };
        loop {
            let (ball, other) = if fwd.frontier_len < bwd.frontier_len {
                (&mut *fwd, &*bwd)
            } else {
                (&mut *bwd, &*fwd)
            };
            let mut next = grab_bits(spare_bits, words);
            residual.expand(&ball.frontier, &ball.open, &mut next);
            // `other.open` lacks exactly the other ball's nodes.
            let mut len = 0;
            let mut met = false;
            for ((&n, open), &other_open) in next.iter().zip(&mut ball.open).zip(&other.open) {
                *open &= !n;
                len += n.count_ones();
                met |= n & !other_open != 0;
            }
            if len == 0 {
                // This root's residual component is exhausted: unreachable.
                spare_bits.push(next);
                return false;
            }
            ball.inner.push(std::mem::replace(&mut ball.frontier, next));
            ball.frontier_len = len;
            if met {
                break;
            }
        }
        for (f, &b) in fwd.frontier.iter_mut().zip(&bwd.frontier) {
            *f &= b;
        }
        // Pull back in place, outermost first: `F_j` is not needed once
        // `M_j` is known, and `M_0 = F_0`.
        let mut outer = &fwd.frontier;
        for layer in fwd.inner.iter_mut().skip(1).rev() {
            let mut on_path = grab_bits(spare_bits, words);
            residual.expand(outer, layer, &mut on_path);
            std::mem::swap(layer, &mut on_path);
            spare_bits.push(on_path);
            outer = layer;
        }
        // Forward greedy walk over `M_1..M_a`, then `B_{b−1}..B_0`. Bitset
        // order and sorted-row order are both ascending node id, so a hub
        // step can AND its adjacency bitset against the layer instead of
        // scanning hundreds of entries.
        out.nodes.push(NodeId(src));
        let mut cur = src;
        let fwd_layers = fwd.inner.iter().chain([&fwd.frontier]).skip(1);
        for layer in fwd_layers.chain(bwd.inner.iter().rev()) {
            let mut step = None;
            match csr.hub_bits_row(cur) {
                Some(hubrow) => {
                    'hub: for (w, (&h, &l)) in hubrow.iter().zip(layer.iter()).enumerate() {
                        let mut cand = h & l;
                        while cand != 0 {
                            let v = (w * 64) as u32 + cand.trailing_zeros();
                            cand &= cand - 1;
                            let row = csr.neighbor_row(cur);
                            let idx = row.binary_search(&v).expect("bitset row matches CSR");
                            let c = CsrGraph::channel(csr.row(cur)[idx]);
                            if !residual.banned(c) {
                                step = Some((v, c));
                                break 'hub;
                            }
                        }
                    }
                }
                None => {
                    for &e in csr.row(cur) {
                        let v = CsrGraph::neighbor(e);
                        let c = CsrGraph::channel(e);
                        if !residual.banned(c) && !csr.is_disabled(c) && bit_get(layer, v) {
                            step = Some((v, c));
                            break;
                        }
                    }
                }
            }
            let (v, c) = step.expect("every walked node lies on a shortest path");
            out.nodes.push(NodeId(v));
            out.hops.push(Hop::new(
                ChannelId(c),
                Direction::of_hop(NodeId(cur), NodeId(v)),
            ));
            cur = v;
        }
        debug_assert_eq!(cur, dst);
        true
    }
}

/// The residual graph of one search, as [`BfsWorkspace::lexmin_path`]
/// sees it: the enabled channels of `csr` minus this epoch's channel bans.
struct Residual<'s> {
    csr: &'s CsrGraph,
    banned_channel: &'s [u8],
    ban_epoch: u8,
    ban_touched_bits: &'s [u64],
    /// `(channel, endpoint, endpoint)` of every channel banned this epoch.
    banned_edges: &'s [(u32, u32, u32)],
}

impl Residual<'_> {
    #[inline]
    fn banned(&self, c: u32) -> bool {
        self.banned_channel[c as usize] == self.ban_epoch
    }

    /// True when `node` has an unbanned, enabled channel to a node of
    /// `frontier` — the exact adjacency test behind [`Self::expand`].
    fn linked_to_frontier(&self, node: u32, frontier: &[u64]) -> bool {
        self.csr.row(node).iter().any(|&e| {
            let c = CsrGraph::channel(e);
            !self.banned(c) && !self.csr.is_disabled(c) && bit_get(frontier, CsrGraph::neighbor(e))
        })
    }

    /// Sets in `next` (all zero on entry) exactly the nodes of `keep` that
    /// an unbanned, enabled channel links to a node of `frontier` — one
    /// BFS step on the residual graph, in either direction (channels and
    /// bans are symmetric). It serves the forward step, the backward step
    /// and the pull-back alike.
    ///
    /// No visited checks or parent bookkeeping per edge: hub rows
    /// ([`HUB_MIN_DEG`]) are folded in as whole-word ORs, 64 neighbors at a
    /// time (the bulk of all edges in a scale-free graph); a row that
    /// neither a ban nor a disabled channel touches is folded in without
    /// per-edge checks; only the remaining rows test each channel. Hub
    /// rows are kept exact for *disabled* channels but know nothing of
    /// *bans*, so wherever a hub row was OR-ed the result is audited
    /// against `banned_edges`: the far endpoint of a banned channel at a
    /// frontier hub keeps its bit only if some unbanned channel really
    /// links it to the frontier. Every caller needs that audit — a
    /// spurious bit in a growth layer fakes a distance, one in a
    /// pulled-back set sends the greedy walk into a dead end.
    fn expand(&self, frontier: &[u64], keep: &[u64], next: &mut [u64]) {
        let csr = self.csr;
        for (w_idx, &frontier_word) in frontier.iter().enumerate() {
            let mut word = frontier_word;
            while word != 0 {
                let u = (w_idx * 64) as u32 + word.trailing_zeros();
                word &= word - 1;
                match csr.hub_bits_row(u) {
                    Some(row) => {
                        for (n, &r) in next.iter_mut().zip(row) {
                            *n |= r;
                        }
                    }
                    None if !bit_get(self.ban_touched_bits, u) && csr.disabled_at(u) == 0 => {
                        for &v in csr.neighbor_row(u) {
                            bit_set(next, v);
                        }
                    }
                    None => {
                        for &e in csr.row(u) {
                            let c = CsrGraph::channel(e);
                            if !self.banned(c) && !csr.is_disabled(c) {
                                bit_set(next, CsrGraph::neighbor(e));
                            }
                        }
                    }
                }
            }
        }
        for (n, k) in next.iter_mut().zip(keep) {
            *n &= k;
        }
        for &(_, a, b) in self.banned_edges {
            for (hub, far) in [(a, b), (b, a)] {
                if csr.hub_bits_row(hub).is_some()
                    && bit_get(frontier, hub)
                    && bit_get(next, far)
                    && !self.linked_to_frontier(far, frontier)
                {
                    bit_clear(next, far);
                }
            }
        }
    }
}

/// Batched per-source path oracle: one reusable `BfsWorkspace` answers
/// every destination of a source, and a BFS tree answers their first
/// paths when there are enough of them to repay it.
///
/// The lazy per-pair oracles pay, for *each* pair, a workspace allocation
/// plus `k` searches — and the first of those is always the same unbanned
/// shortest-path search from the source. A source with many destinations
/// amortizes exactly that: the unbanned BFS runs once as a full parent
/// tree (identical tie-breaks, so the extracted first path is
/// bit-identical to what the search finds). Whether it runs is planned
/// when the oracle is rooted, from how many first paths the caller will
/// ask for ([`SEARCH_ENTRIES`]). The workspace with its epoch-stamped flags
/// is reused across destinations and, via [`SourceOracle::retarget`],
/// across sources.
///
/// Every query appends its paths to a caller-owned [`FlatPaths`] and
/// returns how many it appended; the searches write there directly and
/// every scratch list lives on the oracle, so a warmed-up oracle answers
/// without allocating. Candidate sets produced here are bit-identical to
/// [`k_edge_disjoint_paths`] and [`Topology::shortest_path`] — the former
/// is itself a thin wrapper over a single-destination oracle.
#[derive(Debug)]
pub struct SourceOracle<'a> {
    csr: &'a CsrGraph,
    ws: BfsWorkspace,
    src: u32,
    /// Unbanned BFS parent tree from `src`, as [`Topology::bfs_parents`]
    /// builds it: packed `(parent, via-channel)` per node (`u64::MAX` =
    /// unreached; the source points at itself). Meaningful only while
    /// `tree_built`.
    tree: Vec<u64>,
    tree_built: bool,
    /// Scratch: `(channel, endpoint, endpoint)` of every channel banned in
    /// the current ban epoch (the search audits hub-row ORs against it).
    banned_edges: Vec<(u32, u32, u32)>,
}

/// What one unbanned search costs, in the currency of a BFS tree, which
/// scans (nearly) every adjacency entry of the graph. A source expecting
/// `q` first-path queries builds its tree up front iff `q × SEARCH_ENTRIES`
/// reaches the graph's adjacency entries; otherwise every query is a
/// search.
///
/// Measured on a 2-core x86 host, one thread, on a full-size Ripple-like
/// graph (3,774 nodes, 24.9 k adjacency entries): a tree takes 93–95 µs
/// and a search between random nodes 1.6–1.7 µs, so a tree costs 55–59
/// searches and a search 420–455 entries. Of the 3,015 sources of the
/// 172 k-pair lockstep prewarm, 841 have the 63 pairs or more that repay
/// a tree; a tree for each of the 943 with 9 to 62 would cost ≈ 90 ms of
/// one core and save less in searches. On the 32-node ISP graph a tree
/// scans fewer entries than one search, so every source builds one.
pub const SEARCH_ENTRIES: usize = 400;

impl<'a> SourceOracle<'a> {
    /// Roots an oracle at `src` over `csr`, planned for `queries`
    /// first-path queries (see [`Self::retarget`]).
    pub fn new(csr: &'a CsrGraph, src: NodeId, queries: usize) -> Self {
        let n = csr.node_count();
        let mut oracle = SourceOracle {
            csr,
            ws: BfsWorkspace::new(n, csr.channel_count()),
            src: src.0,
            tree: vec![u64::MAX; n],
            tree_built: false,
            banned_edges: Vec::new(),
        };
        oracle.plan(queries);
        oracle
    }

    /// Re-roots the oracle at `src`, reusing every buffer, planned for
    /// `queries` first-path queries: the destinations [`Self::shortest`]
    /// will be asked for, or those [`Self::edge_disjoint`] will be asked
    /// for with nothing kept. Answers do not depend on the plan, only
    /// their cost does: the BFS tree is built now when the queries repay
    /// it ([`SEARCH_ENTRIES`]), and otherwise each is one search.
    pub fn retarget(&mut self, src: NodeId, queries: usize) {
        if src.0 != self.src {
            self.src = src.0;
            self.tree_built = false;
        }
        self.plan(queries);
    }

    /// Builds the tree if `queries` first paths repay it and it is not
    /// built yet.
    fn plan(&mut self, queries: usize) {
        if !self.tree_built && queries.saturating_mul(SEARCH_ENTRIES) >= self.csr.entries.len() {
            self.build_tree();
        }
    }

    /// Appends (open, as [`BfsWorkspace::lexmin_path`] does) the unbanned
    /// lex-min shortest path to `dst`: from the tree when one was planned,
    /// by one search otherwise. Requires a fresh ban epoch.
    fn first_path(&mut self, dst: u32, out: &mut FlatPaths) -> bool {
        if self.tree_built {
            self.tree_path(dst, out)
        } else {
            self.ws.lexmin_path(self.csr, self.src, dst, &[], out)
        }
    }

    /// The source this oracle is rooted at.
    pub fn source(&self) -> NodeId {
        NodeId(self.src)
    }

    /// Full unbanned BFS parent tree from `src` — the same traversal (and
    /// tie-breaks) as [`Topology::bfs_parents`].
    fn build_tree(&mut self) {
        self.tree_built = true;
        let (csr, src) = (self.csr, self.src);
        let BfsWorkspace {
            seen,
            fifo,
            bfs_epoch,
            ..
        } = &mut self.ws;
        let tree = &mut self.tree[..];
        tree.fill(u64::MAX);
        tree[src as usize] = src as u64;
        // Visited flags through the L1-resident epoch bytes; the 8-byte
        // `tree` entries are only written on discovery.
        let epoch = next_epoch(bfs_epoch, seen);
        seen[src as usize] = epoch;
        fifo[0] = src;
        let mut len = 1usize;
        let mut head = 0;
        // Once every node is discovered no row can add anything: on a
        // connected graph the rows of the last layer or two go unscanned.
        let n = csr.node_count();
        while head < len && len < n {
            let u = fifo[head];
            head += 1;
            let row = csr.row(u);
            // A row with no disabled channel: scan the 4-byte neighbor ids
            // and read a channel only on discovery.
            let live = csr.disabled_at(u) == 0;
            for (i, &v) in csr.neighbor_row(u).iter().enumerate() {
                if seen[v as usize] == epoch
                    || (!live && csr.is_disabled(CsrGraph::channel(row[i])))
                {
                    continue;
                }
                seen[v as usize] = epoch;
                tree[v as usize] = u as u64 | ((CsrGraph::channel(row[i]) as u64) << 32);
                fifo[len] = v;
                len += 1;
            }
        }
    }

    /// Appends (open) the tree path to `dst`, nodes and hops — walked from
    /// `dst` up straight into `out`, then reversed in place. `false`,
    /// nothing appended, when `dst` is unreached.
    fn tree_path(&self, dst: u32, out: &mut FlatPaths) -> bool {
        if self.tree[dst as usize] == u64::MAX {
            return false;
        }
        let (first_node, first_hop) = (out.nodes.len(), out.hops.len());
        out.nodes.push(NodeId(dst));
        let mut cur = dst;
        while cur != self.src {
            let packed = self.tree[cur as usize];
            let parent = packed as u32;
            let hop = Direction::of_hop(NodeId(parent), NodeId(cur));
            out.hops
                .push(Hop::new(ChannelId((packed >> 32) as u32), hop));
            cur = parent;
            out.nodes.push(NodeId(cur));
        }
        out.nodes[first_node..].reverse();
        out.hops[first_hop..].reverse();
        true
    }

    /// Bans every hop of `out`'s last path for the current ban epoch.
    fn ban_last_path(&mut self, out: &FlatPaths) {
        let (nodes, hops) = out.get(out.len() - 1);
        for ((from, to), hop) in nodes.iter().zip(&nodes[1..]).zip(hops) {
            let c = hop.channel();
            self.ws.ban_channel(c.0, from.0, to.0);
            self.banned_edges.push((c.0, from.0, to.0));
        }
    }

    /// The single BFS shortest path to `dst`, exactly as
    /// [`Topology::shortest_path`] computes it (including the single-node
    /// `dst == src` path). Appends it to `out` and returns 1, or 0 when
    /// `dst` is unreachable.
    pub fn shortest(&mut self, dst: NodeId, out: &mut FlatPaths) -> usize {
        if dst.0 == self.src {
            out.push(&[dst], &[]);
            return 1;
        }
        self.ws.new_ban_epoch();
        if !self.first_path(dst.0, out) {
            return 0;
        }
        out.seal();
        1
    }

    /// Up to `k` pairwise edge-disjoint paths to `dst` — bit-identical to
    /// [`k_edge_disjoint_paths`] — resumed after the `kept` prefix: the hop
    /// channels, path after path, of the first `r` paths of that answer
    /// (empty: the whole answer). Appends paths `r..` to `out`, shortest
    /// first, and returns how many.
    ///
    /// Path `i` is the lex-min shortest path once paths `0..i` are
    /// removed, so it depends on nothing but them: banning a prefix the
    /// caller already holds and searching on is the same computation as
    /// finding that prefix again first. The kept paths are walked from
    /// `src` to recover each channel's endpoints; a path ends where the
    /// walk reaches `dst`.
    pub fn edge_disjoint(
        &mut self,
        dst: NodeId,
        k: usize,
        kept: &[ChannelId],
        out: &mut FlatPaths,
    ) -> usize {
        if k == 0 || dst.0 == self.src {
            return 0;
        }
        self.ws.new_ban_epoch();
        // Channels every accepted path used, with their endpoints.
        self.banned_edges.clear();
        let resumed = self.ban_kept(dst.0, kept);
        let mut found = resumed;
        if found == 0 {
            if !self.first_path(dst.0, out) {
                return 0;
            }
            out.seal();
            self.ban_last_path(out);
            found = 1;
        }
        while found < k {
            // Exact pruning: a further edge-disjoint path must leave `src`
            // and enter `dst` over channels no earlier path used. When
            // either endpoint is exhausted — the overwhelmingly common way
            // low-degree pairs run out of paths — the search below could
            // only fail; skip it.
            let banned = self.banned_edges.len();
            if !self.ws.has_unbanned_channel(self.csr, self.src, banned)
                || !self.ws.has_unbanned_channel(self.csr, dst.0, banned)
                || !self
                    .ws
                    .lexmin_path(self.csr, self.src, dst.0, &self.banned_edges, out)
            {
                break;
            }
            out.seal();
            self.ban_last_path(out);
            found += 1;
        }
        found - resumed
    }

    /// Bans every hop of the `kept` paths to `dst` for the current ban
    /// epoch and returns how many paths they are.
    fn ban_kept(&mut self, dst: u32, kept: &[ChannelId]) -> usize {
        let (mut paths, mut at) = (0, self.src);
        for &c in kept {
            let entry = self
                .csr
                .row(at)
                .iter()
                .find(|&&e| CsrGraph::channel(e) == c.0);
            let next = CsrGraph::neighbor(*entry.expect("a kept hop leaves the node it reaches"));
            debug_assert!(!self.csr.is_disabled(c.0), "kept hop {c:?} is closed");
            self.ws.ban_channel(c.0, at, next);
            self.banned_edges.push((c.0, at, next));
            at = next;
            if at == dst {
                paths += 1;
                at = self.src;
            }
        }
        debug_assert_eq!(at, self.src, "the kept hops end at {dst}");
        paths
    }
}

/// Yen's algorithm: up to `k` loopless shortest paths by hop count, in
/// non-decreasing length (ties: lexicographic node order).
///
/// One plain implementation over [`Topology`] — a `VecDeque` BFS per spur
/// over `BTreeSet` bans. Its one user is the fluid LP's path selection,
/// whose graphs have a dozen nodes, so it is written to be read rather
/// than to be fast; the routing layer's batched oracles never run it.
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
/// of `banned_n` — Yen's spur search. Yen never asks for `src == dst` or
/// bans either endpoint: the spur node and `dst` are off the spur's root.
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
/// paths" between every pair).
///
/// A degenerate `src == dst` query returns the empty set (it used to
/// return `k` copies of the zero-hop path: the single-node path has no
/// channels to delete, so the successive-shortest-path loop never made
/// progress).
pub fn k_edge_disjoint_paths(topo: &Topology, src: NodeId, dst: NodeId, k: usize) -> Vec<Path> {
    let csr = CsrGraph::new(topo);
    let mut out = FlatPaths::new();
    SourceOracle::new(&csr, src, 1).edge_disjoint(dst, k, &[], &mut out);
    out.to_paths()
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

    /// What one oracle query appends to a fresh buffer, as owned paths —
    /// after checking the flat form itself: the returned count is what was
    /// appended, and every carried hop channel is the one `topo` resolves
    /// between the hop's nodes.
    fn answer(topo: &Topology, query: impl FnOnce(&mut FlatPaths) -> usize) -> Vec<Path> {
        let mut out = FlatPaths::new();
        let count = query(&mut out);
        assert_eq!(count, out.len());
        for (nodes, hops) in out.iter() {
            assert_eq!(
                Ok(hops.to_vec()),
                topo.path_channels(nodes),
                "carried hops of {nodes:?}"
            );
        }
        out.to_paths()
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
        let csr = CsrGraph::new(&t);
        let mut out = FlatPaths::new();
        assert_eq!(
            SourceOracle::new(&csr, n(2), 1).edge_disjoint(n(2), 4, &[], &mut out),
            0
        );
        assert!(out.is_empty());
    }

    #[test]
    fn paper_uses_4_disjoint_paths_on_isp() {
        let t = gen::isp_topology(CAP);
        // Core nodes have many disjoint routes; 4 must exist.
        let paths = k_edge_disjoint_paths(&t, n(0), n(5), 4);
        assert_eq!(paths.len(), 4);
    }

    /// The batched per-source oracle must agree with the per-pair oracles
    /// on every destination — including after a `retarget`, and with calls
    /// of both kinds interleaved on one workspace (stale bans from a
    /// previous destination or algorithm must never leak).
    #[test]
    fn source_oracle_matches_per_pair_oracles() {
        let t = gen::isp_topology(CAP);
        let csr = CsrGraph::new(&t);
        let mut oracle = SourceOracle::new(&csr, n(8), t.node_count());
        for src in [8u32, 0, 31] {
            oracle.retarget(n(src), t.node_count());
            assert_eq!(oracle.source(), n(src));
            for dst in 0..t.node_count() as u32 {
                assert_eq!(
                    answer(&t, |out| oracle.edge_disjoint(n(dst), 4, &[], out)),
                    k_edge_disjoint_paths(&t, n(src), n(dst), 4),
                    "edge-disjoint {src}->{dst}"
                );
                assert_eq!(
                    answer(&t, |out| oracle.shortest(n(dst), out)),
                    Vec::from_iter(t.shortest_path(n(src), n(dst)).map(Path::new)),
                    "shortest {src}->{dst}"
                );
            }
        }
    }

    /// Queries append: a buffer that already holds paths keeps them, and
    /// each answer lands behind the last — the form a batch fill uses.
    #[test]
    fn queries_append_to_a_shared_buffer() {
        let t = gen::isp_topology(CAP);
        let csr = CsrGraph::new(&t);
        let mut oracle = SourceOracle::new(&csr, n(8), 5);
        let mut out = FlatPaths::new();
        let mut want: Vec<Path> = Vec::new();
        for dst in [20u32, 8, 3, 31, 20] {
            let before = out.len();
            let got =
                oracle.edge_disjoint(n(dst), 3, &[], &mut out) + oracle.shortest(n(dst), &mut out);
            assert_eq!(out.len(), before + got);
            want.extend(k_edge_disjoint_paths(&t, n(8), n(dst), 3));
            want.extend(t.shortest_path(n(8), n(dst)).map(Path::new));
        }
        assert_eq!(out.to_paths(), want);
        for (nodes, hops) in out.iter() {
            assert_eq!(hops.len() + 1, nodes.len());
        }
        out.clear();
        assert!(out.is_empty());
    }

    /// Literal successive-shortest-path BFS, kept deliberately naive: one
    /// `VecDeque` BFS per path over `BTreeSet` bans. The production oracle
    /// computes the same paths through the bidirectional layer search;
    /// this reference pins the "BFS over sorted adjacency = lex-min
    /// shortest path" equivalence that search relies on.
    fn reference_edge_disjoint(topo: &Topology, src: NodeId, dst: NodeId, k: usize) -> Vec<Path> {
        use std::collections::VecDeque;
        if k == 0 || src == dst {
            return Vec::new();
        }
        let mut banned: BTreeSet<ChannelId> = BTreeSet::new();
        let mut out = Vec::new();
        while out.len() < k {
            let mut parent: Vec<Option<NodeId>> = vec![None; topo.node_count()];
            let mut seen = vec![false; topo.node_count()];
            seen[src.index()] = true;
            let mut q = VecDeque::from([src]);
            let mut found = false;
            'bfs: while let Some(u) = q.pop_front() {
                for adj in topo.neighbors(u) {
                    if banned.contains(&adj.channel) || seen[adj.neighbor.index()] {
                        continue;
                    }
                    seen[adj.neighbor.index()] = true;
                    parent[adj.neighbor.index()] = Some(u);
                    if adj.neighbor == dst {
                        found = true;
                        break 'bfs;
                    }
                    q.push_back(adj.neighbor);
                }
            }
            if !found {
                break;
            }
            let mut nodes = vec![dst];
            let mut cur = dst;
            while let Some(p) = parent[cur.index()] {
                nodes.push(p);
                cur = p;
            }
            nodes.reverse();
            let p = Path::new(nodes);
            for hop in p.channels(topo) {
                banned.insert(hop.channel());
            }
            out.push(p);
        }
        out
    }

    /// The layer-sweep oracle must reproduce the literal BFS bit for bit,
    /// including on hub-heavy graphs where the sweep's whole-word OR path
    /// and its banned-edge corrections are exercised.
    #[test]
    fn edge_disjoint_matches_literal_bfs() {
        use spider_types::DetRng;
        let mut rng = DetRng::new(77);
        // Scale-free graphs cross HUB_MIN_DEG at their hubs; the ISP graph
        // and the diamond cover the dense and the tiny end.
        let mut graphs = vec![diamond(), gen::isp_topology(CAP)];
        graphs.push(gen::barabasi_albert(300, 3, CAP, &mut rng));
        graphs.push(gen::barabasi_albert(150, 1, CAP, &mut rng));
        for t in &graphs {
            assert!(
                t.node_count() < 320,
                "keep the exhaustive comparison affordable"
            );
            for _ in 0..600 {
                let src = NodeId(rng.index(t.node_count()) as u32);
                let dst = NodeId(rng.index(t.node_count()) as u32);
                let k = 1 + rng.index(4);
                assert_eq!(
                    k_edge_disjoint_paths(t, src, dst, k),
                    reference_edge_disjoint(t, src, dst, k),
                    "{src}->{dst} k={k} on {} nodes",
                    t.node_count()
                );
            }
        }
    }

    /// A masked `CsrGraph` (channels disabled in place, no reflattening)
    /// must answer every oracle exactly like a cold build of the filtered
    /// topology — compared as node sequences, since channel ids shift in
    /// the rebuilt graph. Random masks over hub-heavy graphs exercise the
    /// cleared hub-bitset rows, the check-free-tier gating, and the
    /// feasibility shortcuts.
    #[test]
    fn disabled_channels_match_cold_filtered_rebuild() {
        use spider_types::DetRng;
        let mut rng = DetRng::new(2026);
        let graphs = vec![
            diamond(),
            gen::isp_topology(CAP),
            gen::barabasi_albert(250, 3, CAP, &mut rng),
        ];
        for t in &graphs {
            for _case in 0..6 {
                // Disable a random ~20 % of channels.
                let disabled: Vec<ChannelId> = t
                    .channels()
                    .map(|(id, _)| id)
                    .filter(|_| rng.chance(0.2))
                    .collect();
                let mut csr = CsrGraph::new(t);
                for &c in &disabled {
                    csr.set_channel_enabled(t, c, false);
                }
                // Cold rebuild without the disabled channels.
                let disabled_set: BTreeSet<ChannelId> = disabled.iter().copied().collect();
                let mut b = Topology::builder(t.node_count());
                for (id, ch) in t.channels() {
                    if !disabled_set.contains(&id) {
                        b.channel(ch.u, ch.v, ch.capacity).unwrap();
                    }
                }
                let filtered = b.build();
                let fcsr = CsrGraph::new(&filtered);
                for _ in 0..40 {
                    let src = NodeId(rng.index(t.node_count()) as u32);
                    let dst = NodeId(rng.index(t.node_count()) as u32);
                    assert_eq!(csr.live_degree(src), filtered.degree(src));
                    assert_eq!(csr.hop_distances(src), filtered.bfs_distances(src));
                    if src == dst {
                        continue;
                    }
                    let k = 1 + rng.index(4);
                    // `answer` resolves each side's carried channels
                    // against its own topology: ids differ, nodes must not.
                    let mut masked = SourceOracle::new(&csr, src, 1);
                    let mut cold = SourceOracle::new(&fcsr, src, 1);
                    assert_eq!(
                        answer(t, |out| masked.edge_disjoint(dst, k, &[], out)),
                        answer(&filtered, |out| cold.edge_disjoint(dst, k, &[], out)),
                        "edge-disjoint {src}->{dst} k={k}"
                    );
                    assert_eq!(
                        answer(t, |out| masked.shortest(dst, out)),
                        answer(&filtered, |out| cold.shortest(dst, out)),
                        "shortest {src}->{dst}"
                    );
                }
                // Re-enabling restores the unmasked answers.
                for &c in &disabled {
                    csr.set_channel_enabled(t, c, true);
                }
                assert!(t.channels().all(|(id, _)| csr.channel_enabled(id)));
                let full = CsrGraph::new(t);
                let src = NodeId(0);
                let dst = NodeId((t.node_count() - 1) as u32);
                let whole = |csr: &CsrGraph| {
                    answer(t, |out| {
                        SourceOracle::new(csr, src, 1).edge_disjoint(dst, 4, &[], out)
                    })
                };
                assert_eq!(whole(&csr), whole(&full));
            }
        }
    }

    /// Bans channel `u`–`v` in `oracle`'s current epoch and records it in
    /// `banned_edges`, as the oracles do for every accepted path.
    fn ban(
        oracle: &mut SourceOracle<'_>,
        topo: &Topology,
        banned_edges: &mut Vec<(u32, u32, u32)>,
        u: u32,
        v: u32,
    ) {
        let c = topo.channel_between(n(u), n(v)).unwrap().0;
        oracle.ws.ban_channel(c, u, v);
        banned_edges.push((c, u, v));
    }

    /// One direct search on `oracle`'s current ban epoch.
    fn search(
        oracle: &mut SourceOracle<'_>,
        dst: u32,
        banned_edges: &[(u32, u32, u32)],
    ) -> Option<Vec<NodeId>> {
        let (csr, src) = (oracle.csr, oracle.src);
        let mut out = FlatPaths::new();
        oracle
            .ws
            .lexmin_path(csr, src, dst, banned_edges, &mut out)
            .then(|| out.open_nodes().to_vec())
    }

    /// Nodes the last search left in its two balls: the tests' measure of
    /// how much of the graph it touched.
    fn ball_nodes(oracle: &SourceOracle<'_>) -> u32 {
        let ws = &oracle.ws;
        [&ws.fwd, &ws.bwd]
            .into_iter()
            .flat_map(|ball| ball.inner.iter().chain([&ball.frontier]))
            .flatten()
            .map(|word| word.count_ones())
            .sum()
    }

    /// `Some` of the path through the given node ids.
    fn via<const N: usize>(nodes: [u32; N]) -> Option<Vec<NodeId>> {
        Some(nodes.map(NodeId).to_vec())
    }

    /// Adjacent and distance-2 pairs are the corners of the walk's layer
    /// selection: `dst`'s ball always grows first, so `d = 1` meets with
    /// no forward layer at all (`a = 0`, every step read off `B`), and
    /// `d = 2` meets with either one layer a side or two backward ones.
    #[test]
    fn adjacent_and_two_hop_pairs_match_literal_bfs() {
        use spider_types::DetRng;
        let mut rng = DetRng::new(5);
        let graphs = vec![
            diamond(),
            gen::isp_topology(CAP),
            gen::star(20, CAP),
            gen::barabasi_albert(120, 2, CAP, &mut rng),
        ];
        for t in &graphs {
            let (mut adjacent, mut two_hop) = (0, 0);
            for src in t.nodes() {
                for (dst, d) in t.nodes().zip(t.bfs_distances(src)) {
                    let Some(d @ 1..=2) = d else {
                        continue;
                    };
                    if d == 1 {
                        adjacent += 1;
                    } else {
                        two_hop += 1;
                    }
                    let got = k_edge_disjoint_paths(t, src, dst, 4);
                    assert_eq!(got.first().map(Path::hop_count), Some(d as usize));
                    assert_eq!(got, reference_edge_disjoint(t, src, dst, 4), "{src}->{dst}");
                }
            }
            assert!(adjacent > 0 && two_hop > 0);
        }
    }

    /// A root sealed in a small residual pocket — by a disabled channel or
    /// by a ban, as `src` or as `dst` — fails the search after expanding
    /// about the pocket, never the 300-node component the other root
    /// sits in.
    #[test]
    fn sealed_pocket_fails_at_the_pockets_size() {
        use spider_types::DetRng;
        const GIANT: usize = 300;
        let giant = gen::barabasi_albert(GIANT, 3, CAP, &mut DetRng::new(9));
        // Pocket: triangle 300-301-302, bridged to the giant by 301-7.
        let mut edges: Vec<(u32, u32)> = giant.channels().map(|(_, ch)| (ch.u.0, ch.v.0)).collect();
        edges.extend([(300, 301), (300, 302), (301, 302), (301, 7)]);
        let t = graph(GIANT + 3, &edges);
        let bridge = t.channel_between(n(301), n(7));
        let far = 250;
        for by_ban in [false, true] {
            for (src, dst) in [(300, far), (far, 300)] {
                let mut csr = CsrGraph::new(&t);
                {
                    let mut open = SourceOracle::new(&csr, n(src), 1);
                    assert_eq!(search(&mut open, dst, &[]), t.shortest_path(n(src), n(dst)));
                    assert!(ball_nodes(&open) < 100, "an open search stays local");
                }
                if !by_ban {
                    csr.set_channel_enabled(&t, bridge.unwrap(), false);
                }
                let mut oracle = SourceOracle::new(&csr, n(src), 1);
                let mut banned_edges = Vec::new();
                if by_ban {
                    ban(&mut oracle, &t, &mut banned_edges, 301, 7);
                }
                assert_eq!(search(&mut oracle, dst, &banned_edges), None);
                // Three pocket nodes, plus the giant-side layers grown
                // while they were no larger than the pocket's: the far
                // root and its neighbors.
                let touched = ball_nodes(&oracle) as usize;
                assert!(
                    touched <= 3 + 1 + t.degree(n(far)),
                    "{src}->{dst} by_ban={by_ban}: touched {touched}"
                );
            }
        }
    }

    /// Hub rows are OR-ed without looking at bans, so `expand` must audit
    /// them — in a growth layer and in the pull-back alike.
    #[test]
    fn hub_reached_only_over_a_banned_channel_is_audited() {
        // Growth. 0 - 1(hub) - {2..=17}; 2 - 18 - 19(dst);
        // 3 - 20 - 22 - 19; 19 - 21. With 1-2 banned the hub's row still
        // ORs node 2 into F_2; unaudited, it meets B_2 there and fakes a
        // 4-hop distance over the banned channel (the real one is 5).
        let mut edges = vec![
            (0, 1),
            (2, 18),
            (18, 19),
            (3, 20),
            (20, 22),
            (22, 19),
            (19, 21),
        ];
        edges.extend((2..=17).map(|leaf| (1, leaf)));
        let t = graph(23, &edges);
        let csr = CsrGraph::new(&t);
        assert!(csr.hub_bits_row(1).is_some());
        let mut oracle = SourceOracle::new(&csr, n(0), 1);
        assert_eq!(search(&mut oracle, 19, &[]), via([0, 1, 2, 18, 19]));
        let mut banned_edges = Vec::new();
        ban(&mut oracle, &t, &mut banned_edges, 1, 2);
        assert_eq!(
            search(&mut oracle, 19, &banned_edges),
            via([0, 1, 3, 20, 22, 19])
        );

        // Pull-back. 0 - {1, 2}; {1, 2} - 3(hub, also 4..=17); 3 - 18(dst);
        // 18 - {19, 20, 21}. The meeting set is {3}; with 1-3 banned the
        // hub's row still pulls node 1 back into M_1, and the walk would
        // step to it (smallest id) and find no way on.
        let mut edges = vec![(0, 1), (0, 2), (1, 3), (2, 3), (3, 18)];
        edges.extend((4..=17).map(|leaf| (3, leaf)));
        edges.extend((19..=21).map(|leaf| (18, leaf)));
        let t = graph(22, &edges);
        let csr = CsrGraph::new(&t);
        assert!(csr.hub_bits_row(3).is_some());
        let mut oracle = SourceOracle::new(&csr, n(0), 1);
        assert_eq!(search(&mut oracle, 18, &[]), via([0, 1, 3, 18]));
        let mut banned_edges = Vec::new();
        ban(&mut oracle, &t, &mut banned_edges, 1, 3);
        assert_eq!(search(&mut oracle, 18, &banned_edges), via([0, 2, 3, 18]));
        assert_eq!(oracle.ws.fwd.inner.len(), 2, "met after two forward layers");
    }

    /// Paper scale: on the 3,774-node Ripple-like graph a bitset row is 59
    /// words and the top hubs have hundreds of channels — neither is
    /// reached by the < 320-node graphs above.
    #[test]
    fn edge_disjoint_matches_literal_bfs_at_ripple_scale() {
        use spider_types::DetRng;
        let mut rng = DetRng::new(42);
        let t = gen::ripple_like(gen::RIPPLE_NODES, CAP, &mut rng);
        let csr = CsrGraph::new(&t);
        assert_eq!(csr.words, 59);
        let mut oracle = SourceOracle::new(&csr, n(0), 1);
        let mut long_paths = 0;
        for _ in 0..300 {
            let src = NodeId(rng.index(t.node_count()) as u32);
            let dst = NodeId(rng.index(t.node_count()) as u32);
            oracle.retarget(src, 1);
            let got = answer(&t, |out| oracle.edge_disjoint(dst, 4, &[], out));
            assert_eq!(
                got,
                reference_edge_disjoint(&t, src, dst, 4),
                "{src}->{dst}"
            );
            long_paths += got.iter().filter(|p| p.hop_count() >= 5).count();
        }
        assert!(long_paths > 100, "5-hop-plus detours covered: {long_paths}");
    }

    /// Checks every resumption of `oracle`'s answer to `dst`: for each
    /// `r ≤ m`, the search resumed after the first `r` paths of the fresh
    /// answer appends exactly fresh paths `r..`. Returns how many of the
    /// resumed searches kept a prefix through a hub — a node with a bitset
    /// row, whose whole-word ORs `expand` must audit against the bans.
    fn resumes_as_fresh(oracle: &mut SourceOracle<'_>, dst: NodeId, k: usize) -> usize {
        let csr = oracle.csr;
        let mut fresh = FlatPaths::new();
        let m = oracle.edge_disjoint(dst, k, &[], &mut fresh);
        let (mut kept, mut via_hub, mut audited) = (Vec::new(), false, 0);
        for r in 0..=m {
            let mut tail = FlatPaths::new();
            let got = oracle.edge_disjoint(dst, k, &kept, &mut tail);
            let src = oracle.source();
            assert_eq!(got, m - r, "{src}->{dst} resumed at {r} of {m}");
            assert!(
                tail.iter().eq(fresh.range(r..m)),
                "{src}->{dst} resumed at {r}: {:?}, fresh {:?}",
                tail.to_paths(),
                fresh.to_paths()
            );
            audited += usize::from(via_hub && r < k);
            if r < m {
                let (nodes, hops) = fresh.get(r);
                via_hub |= nodes.iter().any(|v| csr.hub_bits_row(v.0).is_some());
                kept.extend(hops.iter().map(|hop| hop.channel()));
            }
        }
        audited
    }

    /// `t` with about a tenth of its channels disabled.
    fn masked(t: &Topology, rng: &mut spider_types::DetRng) -> CsrGraph {
        let mut csr = CsrGraph::new(t);
        for (c, _) in t.channels() {
            if rng.chance(0.1) {
                csr.set_channel_enabled(t, c, false);
            }
        }
        csr
    }

    /// Everything `oracle` answers for `dsts`, in one buffer: each one's
    /// shortest path, its edge-disjoint set (k = 4), and that set resumed
    /// after each of its prefixes.
    fn every_answer(oracle: &mut SourceOracle<'_>, dsts: &[NodeId]) -> FlatPaths {
        let mut out = FlatPaths::new();
        for &dst in dsts {
            oracle.shortest(dst, &mut out);
            let first = out.len();
            let m = oracle.edge_disjoint(dst, 4, &[], &mut out);
            let mut kept = Vec::new();
            for r in 1..=m {
                kept.extend(out.get(first + r - 1).1.iter().map(|hop| hop.channel()));
                oracle.edge_disjoint(dst, 4, &kept, &mut out);
            }
        }
        out
    }

    proptest::proptest! {
        /// Resuming after a fresh prefix is searching, on masked random
        /// graphs: every pair of an Erdős–Rényi graph (dense ones give
        /// their nodes hub rows), and random pairs of a 300-node
        /// Ripple-like graph, whose paths run through its hubs.
        #[test]
        fn resuming_after_a_fresh_prefix_is_searching(
            seed in 0u64..u64::MAX,
            nodes in 6usize..28,
            density in 0.15f64..0.9,
            k in 1usize..6,
        ) {
            let mut rng = spider_types::DetRng::new(seed);
            let er = gen::erdos_renyi(nodes, density, CAP, &mut rng);
            let csr = masked(&er, &mut rng);
            for src in er.nodes() {
                let mut oracle = SourceOracle::new(&csr, src, er.node_count());
                for dst in er.nodes() {
                    resumes_as_fresh(&mut oracle, dst, k);
                }
            }
            let ripple = gen::ripple_like(300, CAP, &mut rng);
            let csr = masked(&ripple, &mut rng);
            let mut oracle = SourceOracle::new(&csr, n(0), 1);
            let mut audited = 0;
            for _ in 0..40 {
                oracle.retarget(NodeId(rng.index(300) as u32), 1);
                audited += resumes_as_fresh(&mut oracle, NodeId(rng.index(300) as u32), 4);
            }
            assert!(audited > 0, "no kept prefix crossed a hub");
        }
    }

    proptest::proptest! {
        /// The plan changes the cost, never the answer: on random graphs,
        /// with and without disabled channels, a source planned for a
        /// group just below and just at the size that repays a tree
        /// answers every query — nodes and hops, shortest, edge-disjoint
        /// and resumed — as an oracle held to searches and one held to
        /// the tree do.
        #[test]
        fn tree_and_search_plans_answer_alike(
            seed in 0u64..u64::MAX,
            nodes in 100usize..400,
            shape in 0usize..4,
        ) {
            let (ripple, mask) = (shape & 1 == 1, shape & 2 == 2);
            let mut rng = spider_types::DetRng::new(seed);
            let t = if ripple {
                gen::ripple_like(nodes, CAP, &mut rng)
            } else {
                gen::erdos_renyi(nodes, 8.0 / nodes as f64, CAP, &mut rng)
            };
            let csr = if mask { masked(&t, &mut rng) } else { CsrGraph::new(&t) };
            let repays = csr.entries.len().div_ceil(SEARCH_ENTRIES);
            assert!(repays > 1, "{} entries: every plan is a tree", csr.entries.len());
            let src = NodeId(rng.index(nodes) as u32);
            for group in [repays - 1, repays] {
                let dsts: Vec<NodeId> =
                    (0..group).map(|_| NodeId(rng.index(nodes) as u32)).collect();
                let mut planned = SourceOracle::new(&csr, src, group);
                assert_eq!(planned.tree_built, group == repays, "{group} of {repays}");
                let want = every_answer(&mut planned, &dsts);
                for held in [0, usize::MAX] {
                    let mut other = SourceOracle::new(&csr, src, held);
                    assert_eq!(other.tree_built, held > 0);
                    assert!(every_answer(&mut other, &dsts).iter().eq(want.iter()));
                }
            }
        }
    }

    #[test]
    fn source_oracle_on_disconnected_graph() {
        let t = graph(4, &[(0, 1), (2, 3)]);
        let csr = CsrGraph::new(&t);
        let mut oracle = SourceOracle::new(&csr, n(0), 1);
        let mut out = FlatPaths::new();
        assert_eq!(oracle.edge_disjoint(n(3), 4, &[], &mut out), 0);
        assert_eq!(oracle.shortest(n(3), &mut out), 0);
        assert!(out.is_empty(), "a failed query appends nothing");
        assert_eq!(oracle.shortest(n(1), &mut out), 1);
        assert_eq!(out.get(0).0, [n(0), n(1)]);
    }

    #[test]
    fn csr_matches_topology() {
        let t = gen::isp_topology(CAP);
        let csr = CsrGraph::new(&t);
        assert_eq!(csr.node_count(), t.node_count());
        assert_eq!(csr.channel_count(), t.channel_count());
        for u in 0..t.node_count() as u32 {
            let row = csr.row(u);
            let adj = t.neighbors(NodeId(u));
            assert_eq!(row.len(), adj.len());
            for (&e, a) in row.iter().zip(adj) {
                assert_eq!(CsrGraph::neighbor(e), a.neighbor.0);
                assert_eq!(CsrGraph::channel(e), a.channel.0);
            }
        }
    }
}
