//! Path oracles (§5.3.1).
//!
//! "Practical implementations would restrict the set of paths considered
//! between each source and destination … e.g., the K shortest paths or the
//! K highest-capacity paths." This module provides:
//!
//! * [`k_shortest_paths`] — Yen's algorithm over hop counts (loopless);
//! * [`k_edge_disjoint_paths`] — successive shortest paths with used
//!   channels removed (the "4 disjoint shortest paths" of §6.1);
//! * [`k_widest_paths`] — highest-bottleneck-capacity paths, the building
//!   block of the waterfilling heuristic;
//! * [`SourceOracle`] — the batched per-source form of the first two: one
//!   BFS tree and one reusable workspace answer *every* destination of a
//!   source, which is what makes precomputing a whole workload's candidate
//!   sets affordable (see `spider_routing::PathOracle`).
//!
//! All oracles are deterministic: ties break toward fewer hops, then the
//! lexicographically smallest node sequence. A degenerate `src == dst`
//! query has no usable candidate paths: the multi-path oracles
//! (edge-disjoint, Yen, widest) yield the empty set, while the
//! single-shortest-path oracle returns the zero-hop path exactly as
//! `Topology::shortest_path` does.

use spider_topology::Topology;
use spider_types::{ChannelId, Direction, NodeId};
use std::collections::HashSet;

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
    pub fn channels(&self, topo: &Topology) -> Vec<(ChannelId, Direction)> {
        topo.path_channels(&self.nodes)
            .expect("path follows topology edges")
    }

    /// Allocation-free variant of [`Path::channels`]: iterates the hops
    /// without materializing a vector. Panics on non-adjacent nodes.
    pub fn channels_iter<'a>(
        &'a self,
        topo: &'a Topology,
    ) -> impl Iterator<Item = (ChannelId, Direction)> + 'a {
        self.nodes.windows(2).map(move |w| {
            let id = topo
                .channel_between(w[0], w[1])
                .expect("path follows topology edges");
            (id, topo.channel(id).direction_from(w[0]))
        })
    }
}

/// Nodes at or above this degree get an adjacency *bitset* row next to
/// their CSR row: the reverse layer sweep ORs 64 neighbors per word
/// instead of scanning the row edge by edge, which is where the hub-heavy
/// scale-free graphs spend most of their BFS time.
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
/// unchanged) — plus adjacency *bitset* rows for hubs, which the reverse
/// layer sweep folds in 64 neighbors at a time. Build it once and share
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
    /// Neighbor indices alone (parallel to `entries`): the ban-free sweep
    /// tiers touch half the bytes per edge.
    neighbors: Vec<u32>,
    /// Bitset words per node set (`ceil(node_count / 64)`).
    words: usize,
    /// Per node: word offset of its adjacency bitset row in `hub_bits`,
    /// or `u32::MAX` for nodes swept through their CSR row.
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
    /// CSR-row sweeps skip it, hub bitset rows have its endpoint bits
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

/// Reusable search state: epoch-stamped ban flags, the tree-build BFS
/// buffers, and the reverse layer sweep's bitsets.
///
/// The oracles run several searches per destination and serve many
/// destinations per source. Instead of clearing ban/visited arrays
/// between searches (O(n + m) writes each), channel bans are one-byte
/// stamps compared against the current epoch — bumping the epoch
/// invalidates them in O(1) (with a full clear every 255 generations) —
/// and the arrays are small enough to stay cache-resident at Ripple
/// scale. Bans accumulate across the successive searches of one
/// destination (edge disjointness) while each search gets fresh visited
/// state. The membership *semantics* are the ones BFS over sorted
/// adjacency always had, so results are bit-identical to the per-pair
/// oracles of earlier trees.
#[derive(Debug)]
struct BfsWorkspace {
    banned_channel: Vec<u8>,
    /// Banned nodes (bitset; Yen's spur roots). Swept layers are masked
    /// against it, which is exactly BFS refusing to visit those nodes.
    banned_node_bits: Vec<u64>,
    seen: Vec<u8>,
    /// Fixed-size FIFO for the tree build (manual length, one slot of
    /// slack).
    fifo: Vec<u32>,
    /// Nodes discovered by the reverse layer sweep (bitset, cleared per
    /// search — a handful of word writes).
    visited_bits: Vec<u64>,
    /// Endpoints of currently banned channels (bitset, cleared per ban
    /// epoch). A swept node outside this set has only unbanned channels,
    /// so its row is folded in without per-edge ban checks.
    ban_touched_bits: Vec<u64>,
    /// Distance layers of the reverse sweep: `layer_bits[t]` holds the
    /// nodes at residual distance `t` from the sweep's root.
    layer_bits: Vec<Vec<u64>>,
    /// Recycled layer buffers.
    spare_bits: Vec<Vec<u64>>,
    ban_epoch: u8,
    bfs_epoch: u8,
    /// Whether any node ban is set this ban epoch (channel-only ban sets
    /// — the edge-disjoint oracle — skip the node masking entirely).
    node_bans: bool,
}

impl BfsWorkspace {
    fn new(n_nodes: usize, n_channels: usize) -> Self {
        BfsWorkspace {
            banned_channel: vec![0; n_channels],
            banned_node_bits: vec![0; n_nodes.div_ceil(64)],
            seen: vec![0; n_nodes],
            fifo: vec![0; n_nodes + 1],
            visited_bits: vec![0; n_nodes.div_ceil(64)],
            ban_touched_bits: vec![0; n_nodes.div_ceil(64)],
            layer_bits: Vec::new(),
            spare_bits: Vec::new(),
            // Stamps start at 0, so the first valid epoch is 1.
            ban_epoch: 1,
            bfs_epoch: 0,
            node_bans: false,
        }
    }

    /// Invalidates every ban in O(1) (with a wrap-around reset every 255
    /// generations).
    fn new_ban_epoch(&mut self) {
        if self.node_bans {
            self.banned_node_bits.fill(0);
            self.node_bans = false;
        }
        self.ban_touched_bits.fill(0);
        if self.ban_epoch == u8::MAX {
            self.banned_channel.fill(0);
            self.ban_epoch = 1;
        } else {
            self.ban_epoch += 1;
        }
    }

    fn next_bfs_epoch(&mut self) {
        if self.bfs_epoch == u8::MAX {
            self.seen.fill(0);
            self.bfs_epoch = 1;
        } else {
            self.bfs_epoch += 1;
        }
    }

    /// Bans channel `c` (endpoints `a`, `b`) for this epoch. Endpoint
    /// tracking powers the sweep's check-free row tier: a node outside
    /// `ban_touched_bits` provably has no banned channel.
    #[inline]
    fn ban_channel(&mut self, c: u32, a: u32, b: u32) {
        self.banned_channel[c as usize] = self.ban_epoch;
        bit_set(&mut self.ban_touched_bits, a);
        bit_set(&mut self.ban_touched_bits, b);
    }

    #[inline]
    fn ban_node(&mut self, n: u32) {
        bit_set(&mut self.banned_node_bits, n);
        self.node_bans = true;
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

    /// A cleared bitset buffer of `words` words, recycled when possible.
    fn grab_bits(&mut self, words: usize) -> Vec<u64> {
        match self.spare_bits.pop() {
            Some(mut b) => {
                b.clear();
                b.resize(words, 0);
                b
            }
            None => vec![0; words],
        }
    }

    /// True when `node` has an unbanned channel to a node of `frontier`
    /// — the exact membership test for the next reverse-sweep layer.
    fn linked_to_frontier(&self, csr: &CsrGraph, node: u32, frontier: &[u64]) -> bool {
        csr.row(node).iter().any(|&e| {
            let c = CsrGraph::channel(e);
            self.banned_channel[c as usize] != self.ban_epoch
                && !csr.is_disabled(c)
                && bit_get(frontier, CsrGraph::neighbor(e))
        })
    }

    /// The shortest path from `src` to `dst` on the channel-banned
    /// residual graph, with the exact tie-breaks of [`BfsWorkspace::bfs`]
    /// — computed without simulating the BFS.
    ///
    /// BFS over id-sorted adjacency returns *the lexicographically
    /// smallest (by node sequence) shortest path*: discovery order within
    /// a layer is lexicographic in (parent's discovery order, node id),
    /// so each node's parent pointer — its earliest-discovered
    /// predecessor — is the predecessor whose own ancestor chain is
    /// lex-smallest, and the chain reaching `dst` is the lex-min shortest
    /// path (this is the documented tie-break contract of this module,
    /// and the reference tests pin it against a literal BFS). That
    /// characterization is order-free, which unlocks a much cheaper
    /// computation:
    ///
    /// 1. a *reverse* layer-synchronous sweep from `dst` records the
    ///    distance layers of the residual graph as bitsets — no visited
    ///    checks or parent bookkeeping per edge, and hub rows
    ///    ([`HUB_MIN_DEG`]) are folded in as whole-word ORs, 64 neighbors
    ///    at a time (the bulk of all edges in a scale-free graph);
    /// 2. a forward greedy walk picks, at each step, the smallest-id
    ///    unbanned neighbor one layer closer to `dst` — the lex-min path.
    ///
    /// Hub ORs ignore bans, so each swept layer is corrected against
    /// `banned_edges` (`(channel, endpoint, endpoint)` of every banned
    /// channel): an endpoint set by a hub OR keeps its bit only if some
    /// unbanned channel really links it to the frontier. A destination
    /// cut off in a small residual pocket exhausts the sweep after a few
    /// tiny layers — failure costs the *pocket's* size, not a sweep of
    /// `src`'s whole component.
    fn lexmin_path(
        &mut self,
        csr: &CsrGraph,
        src: u32,
        dst: u32,
        banned_edges: &[(u32, u32, u32)],
    ) -> Option<(Vec<NodeId>, Vec<u32>)> {
        debug_assert_ne!(src, dst);
        if self.node_bans
            && (bit_get(&self.banned_node_bits, src) || bit_get(&self.banned_node_bits, dst))
        {
            return None;
        }
        let words = csr.words;
        let ban = self.ban_epoch;
        // Recycle the previous search's layers.
        self.spare_bits.append(&mut self.layer_bits);
        self.visited_bits.clear();
        self.visited_bits.resize(words, 0);
        let mut frontier = self.grab_bits(words);
        bit_set(&mut frontier, dst);
        bit_set(&mut self.visited_bits, dst);
        let depth = loop {
            let t = self.layer_bits.len();
            let mut next = self.grab_bits(words);
            // Sweep the frontier into `next`. `src`'s bit is polled once
            // per frontier *word* (at most 63 nodes of overshoot — the
            // layer stays exact either way, see below).
            let mut src_settled = false;
            let mut found = false;
            'sweep: for w_idx in 0..words {
                let mut word = frontier[w_idx];
                if word == 0 {
                    continue;
                }
                while word != 0 {
                    let u = (w_idx * 64) as u32 + word.trailing_zeros();
                    word &= word - 1;
                    match csr.hub_bits_row(u) {
                        Some(row) => {
                            for (n, &r) in next.iter_mut().zip(row) {
                                *n |= r;
                            }
                        }
                        None if !bit_get(&self.ban_touched_bits, u) && csr.disabled_at(u) == 0 => {
                            // Neither a ban nor a disabled channel touches
                            // `u`: fold its row in without per-edge checks.
                            for &v in csr.neighbor_row(u) {
                                bit_set(&mut next, v);
                            }
                        }
                        None => {
                            for &e in csr.row(u) {
                                let c = CsrGraph::channel(e);
                                if self.banned_channel[c as usize] != ban && !csr.is_disabled(c) {
                                    bit_set(&mut next, CsrGraph::neighbor(e));
                                }
                            }
                        }
                    }
                }
                // `src` reached? Its bit is trustworthy unless a banned
                // channel at `src` leads to a frontier hub (whose OR
                // ignores bans) — only then arbitrate against the
                // (complete) frontier, once per layer.
                if !src_settled && bit_get(&next, src) {
                    src_settled = true;
                    let maybe_spurious = banned_edges.iter().any(|&(_, a, b)| {
                        (a == src && csr.hub_row[b as usize] != u32::MAX && bit_get(&frontier, b))
                            || (b == src
                                && csr.hub_row[a as usize] != u32::MAX
                                && bit_get(&frontier, a))
                    });
                    if !maybe_spurious || self.linked_to_frontier(csr, src, &frontier) {
                        found = true;
                        break 'sweep;
                    }
                    bit_clear(&mut next, src);
                }
            }
            if found {
                // Layers 1..=t (the greedy walk's working set) are
                // complete; `src` sits in the partial layer t + 1.
                self.layer_bits.push(frontier);
                self.spare_bits.push(next);
                break t + 2;
            }
            // The verification above is definitive for this layer: a
            // re-set of `src`'s bit by a later hub OR is equally
            // spurious, and must not leak into the layer (it would mark
            // `src` visited and hide it from every later layer).
            if src_settled {
                bit_clear(&mut next, src);
            }
            // Keep only genuinely new nodes — and never banned ones
            // (masking a layer is exactly BFS refusing to visit them) —
            // then audit hub-OR bits that may exist only through a banned
            // channel.
            for (n, v) in next.iter_mut().zip(&self.visited_bits) {
                *n &= !v;
            }
            if self.node_bans {
                for (n, b) in next.iter_mut().zip(&self.banned_node_bits) {
                    *n &= !b;
                }
            }
            for &(_, a, b) in banned_edges {
                for (x, y) in [(a, b), (b, a)] {
                    if csr.hub_row[x as usize] != u32::MAX
                        && bit_get(&frontier, x)
                        && bit_get(&next, y)
                        && !self.linked_to_frontier(csr, y, &frontier)
                    {
                        bit_clear(&mut next, y);
                    }
                }
            }
            let mut any = 0u64;
            for (v, n) in self.visited_bits.iter_mut().zip(&next) {
                *v |= n;
                any |= n;
            }
            if any == 0 {
                // `dst`'s residual component is exhausted: unreachable.
                self.layer_bits.push(frontier);
                self.spare_bits.push(next);
                return None;
            }
            self.layer_bits.push(frontier);
            frontier = next;
        };
        // Forward greedy walk: from `src`, repeatedly take the
        // smallest-id unbanned neighbor one layer closer to `dst`.
        // `layer_bits[t]` holds distance-t nodes; `src` is at `depth - 1`.
        // Bitset order and sorted-row order are both ascending node id,
        // so a hub step can AND its adjacency bitset against the layer
        // instead of scanning hundreds of entries.
        let mut nodes = vec![NodeId(src)];
        let mut channels = Vec::new();
        let mut cur = src;
        for t in (0..depth - 1).rev() {
            let layer = &self.layer_bits[t];
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
                            if self.banned_channel[c as usize] != ban {
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
                        if self.banned_channel[c as usize] != ban
                            && !csr.is_disabled(c)
                            && bit_get(layer, v)
                        {
                            step = Some((v, c));
                            break;
                        }
                    }
                }
            }
            let (v, c) = step.expect("complete layer precedes the walk");
            nodes.push(NodeId(v));
            channels.push(c);
            cur = v;
        }
        debug_assert_eq!(cur, dst);
        Some((nodes, channels))
    }
}

/// Batched per-source path oracle: one BFS tree and one reusable
/// [`BfsWorkspace`] answer every destination of a source.
///
/// The lazy per-pair oracles pay, for *each* pair, a workspace allocation
/// plus `k` BFS traversals — and the first of those traversals is always
/// the same unbanned shortest-path search from the source. Rooting the
/// oracle at a source amortizes exactly that: the unbanned BFS runs once
/// as a full parent tree (identical tie-breaks, so the extracted first
/// path is bit-identical to what the per-pair search finds), and the
/// workspace with its epoch-stamped flags is reused across destinations
/// and, via [`SourceOracle::retarget`], across sources.
///
/// Candidate sets produced here are bit-identical to [`k_shortest_paths`]
/// and [`k_edge_disjoint_paths`] — the per-pair functions are themselves
/// thin wrappers over a single-destination oracle.
#[derive(Debug)]
pub struct SourceOracle<'a> {
    topo: &'a Topology,
    csr: &'a CsrGraph,
    ws: BfsWorkspace,
    src: u32,
    /// Unbanned BFS parent tree from `src`, as [`Topology::bfs_parents`]
    /// builds it: packed `(parent, via-channel)` per node (`u64::MAX` =
    /// unreached; the source points at itself). Built lazily: a source
    /// asked about only a destination or two gets per-destination reverse
    /// sweeps (identical results — both compute the lex-min shortest
    /// path) instead of paying a full-graph traversal up front.
    tree: Vec<u64>,
    tree_built: bool,
    /// First-path queries served for this source (drives tree laziness).
    queries: u32,
}

/// After this many first-path queries for one source, amortizing a full
/// BFS tree beats per-destination sweeps.
const TREE_AFTER_QUERIES: u32 = 3;

impl<'a> SourceOracle<'a> {
    /// Roots an oracle at `src`. `csr` must be [`CsrGraph::new`] of `topo`.
    pub fn new(topo: &'a Topology, csr: &'a CsrGraph, src: NodeId) -> Self {
        debug_assert_eq!(csr.node_count(), topo.node_count());
        let n = topo.node_count();
        SourceOracle {
            topo,
            csr,
            ws: BfsWorkspace::new(n, topo.channel_count()),
            src: src.0,
            tree: vec![u64::MAX; n],
            tree_built: false,
            queries: 0,
        }
    }

    /// Re-roots the oracle at a different source, reusing every buffer.
    pub fn retarget(&mut self, src: NodeId) {
        if src.0 == self.src {
            return;
        }
        self.src = src.0;
        self.tree_built = false;
        self.queries = 0;
    }

    /// The unbanned lex-min shortest path to `dst` with its hop channels:
    /// from the tree when built, by one reverse sweep otherwise (building
    /// the tree once a source proves hot). Requires a fresh ban epoch.
    fn first_path(&mut self, dst: u32) -> Option<(Vec<NodeId>, Vec<u32>)> {
        self.queries += 1;
        if !self.tree_built && self.queries > TREE_AFTER_QUERIES {
            self.build_tree();
        }
        if self.tree_built {
            self.tree_path(dst)
        } else {
            self.ws.lexmin_path(self.csr, self.src, dst, &[])
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
        self.tree.fill(u64::MAX);
        self.tree[self.src as usize] = self.src as u64;
        // Visited flags through the L1-resident epoch bytes; the 8-byte
        // `tree` entries are only written on discovery.
        self.ws.next_bfs_epoch();
        let epoch = self.ws.bfs_epoch;
        self.ws.seen[self.src as usize] = epoch;
        self.ws.fifo[0] = self.src;
        let mut len = 1usize;
        let mut head = 0;
        while head < len {
            let u = self.ws.fifo[head];
            head += 1;
            for &e in self.csr.row(u) {
                if self.csr.is_disabled(CsrGraph::channel(e)) {
                    continue;
                }
                let v = CsrGraph::neighbor(e);
                if self.ws.seen[v as usize] != epoch {
                    self.ws.seen[v as usize] = epoch;
                    self.tree[v as usize] = u as u64 | ((CsrGraph::channel(e) as u64) << 32);
                    self.ws.fifo[len] = v;
                    len += 1;
                }
            }
        }
    }

    /// The tree path to `dst` (nodes plus hop channels), or `None` when
    /// unreached. `dst == src` yields the single-node path, as
    /// [`Topology::shortest_path`] does.
    fn tree_path(&self, dst: u32) -> Option<(Vec<NodeId>, Vec<u32>)> {
        if self.tree[dst as usize] == u64::MAX {
            return None;
        }
        let mut nodes = vec![NodeId(dst)];
        let mut channels = Vec::new();
        let mut cur = dst;
        while cur != self.src {
            let packed = self.tree[cur as usize];
            channels.push((packed >> 32) as u32);
            cur = packed as u32;
            nodes.push(NodeId(cur));
        }
        nodes.reverse();
        channels.reverse();
        Some((nodes, channels))
    }

    /// The single BFS shortest path to `dst`, exactly as
    /// [`Topology::shortest_path`] computes it (including the single-node
    /// `dst == src` path).
    pub fn shortest(&mut self, dst: NodeId) -> Option<Path> {
        if dst.0 == self.src {
            return Some(Path::new(vec![dst]));
        }
        self.ws.new_ban_epoch();
        self.first_path(dst.0).map(|(nodes, _)| Path::new(nodes))
    }

    /// Up to `k` pairwise edge-disjoint paths to `dst` — bit-identical to
    /// [`k_edge_disjoint_paths`].
    pub fn edge_disjoint(&mut self, dst: NodeId, k: usize) -> Vec<Path> {
        if k == 0 || dst.0 == self.src {
            return Vec::new();
        }
        self.ws.new_ban_epoch();
        let Some((nodes, channels)) = self.first_path(dst.0) else {
            return Vec::new();
        };
        let mut out = Vec::with_capacity(k);
        // Channels every accepted path used, with their endpoints (the
        // sweep corrects hub-OR overreach against this list).
        let mut banned_edges: Vec<(u32, u32, u32)> = Vec::new();
        for (i, c) in channels.into_iter().enumerate() {
            self.ws.ban_channel(c, nodes[i].0, nodes[i + 1].0);
            banned_edges.push((c, nodes[i].0, nodes[i + 1].0));
        }
        out.push(Path::new(nodes));
        while out.len() < k {
            // Exact pruning: a further edge-disjoint path must leave `src`
            // and enter `dst` over channels no earlier path used. When
            // either endpoint is exhausted — the overwhelmingly common way
            // low-degree pairs run out of paths — the search below could
            // only fail; skip it.
            if !self
                .ws
                .has_unbanned_channel(self.csr, self.src, banned_edges.len())
                || !self
                    .ws
                    .has_unbanned_channel(self.csr, dst.0, banned_edges.len())
            {
                break;
            }
            let Some((nodes, channels)) =
                self.ws
                    .lexmin_path(self.csr, self.src, dst.0, &banned_edges)
            else {
                break;
            };
            for (i, c) in channels.into_iter().enumerate() {
                self.ws.ban_channel(c, nodes[i].0, nodes[i + 1].0);
                banned_edges.push((c, nodes[i].0, nodes[i + 1].0));
            }
            out.push(Path::new(nodes));
        }
        out
    }

    /// Yen's algorithm: up to `k` loopless shortest paths to `dst`, in
    /// non-decreasing length — bit-identical to [`k_shortest_paths`].
    pub fn k_shortest(&mut self, dst: NodeId, k: usize) -> Vec<Path> {
        if k == 0 || dst.0 == self.src {
            return Vec::new();
        }
        self.ws.new_ban_epoch();
        let Some((nodes, _)) = self.first_path(dst.0) else {
            return Vec::new();
        };
        let first = Path::new(nodes);
        let mut accepted: Vec<Path> = vec![first.clone()];
        // Hashed membership of every path ever accepted or pooled: the
        // per-spur dedup used to scan `accepted` and `candidates` linearly
        // (quadratic in the candidate pool at Ripple scale); one set
        // membership test admits exactly the same candidates.
        let mut seen: HashSet<Path> = HashSet::new();
        seen.insert(first);
        // Candidate pool, kept sorted by (hops, nodes).
        let mut candidates: Vec<Path> = Vec::new();
        while accepted.len() < k {
            let prev = accepted.last().expect("at least one accepted").clone();
            for i in 0..prev.hop_count() {
                let spur_node = prev.nodes[i];
                let root = &prev.nodes[..=i];
                // Ban the outgoing channel of every accepted path sharing
                // this root, and the root nodes except the spur node
                // (looplessness). A fresh epoch clears the previous spur's
                // bans.
                self.ws.new_ban_epoch();
                let mut banned_edges: Vec<(u32, u32, u32)> = Vec::new();
                for p in &accepted {
                    if p.nodes.len() > i + 1 && p.nodes[..=i] == *root {
                        if let Some(c) = self.topo.channel_between(p.nodes[i], p.nodes[i + 1]) {
                            self.ws.ban_channel(c.0, p.nodes[i].0, p.nodes[i + 1].0);
                            banned_edges.push((c.0, p.nodes[i].0, p.nodes[i + 1].0));
                        }
                    }
                }
                for n in &root[..i] {
                    self.ws.ban_node(n.0);
                }
                if let Some((spur_nodes, _)) =
                    self.ws
                        .lexmin_path(self.csr, spur_node.0, dst.0, &banned_edges)
                {
                    let mut nodes = root[..i].to_vec();
                    nodes.extend(spur_nodes);
                    let cand = Path::new(nodes);
                    if seen.insert(cand.clone()) {
                        candidates.push(cand);
                    }
                }
            }
            // Leave no stale bans behind for the next caller.
            self.ws.new_ban_epoch();
            if candidates.is_empty() {
                break;
            }
            candidates.sort_by(|a, b| {
                a.hop_count()
                    .cmp(&b.hop_count())
                    .then_with(|| a.nodes.cmp(&b.nodes))
            });
            accepted.push(candidates.remove(0));
        }
        accepted
    }
}

/// Yen's algorithm: up to `k` loopless shortest paths by hop count, in
/// non-decreasing length (ties: lexicographic node order).
pub fn k_shortest_paths(topo: &Topology, src: NodeId, dst: NodeId, k: usize) -> Vec<Path> {
    if k == 0 || src == dst {
        return Vec::new();
    }
    let csr = CsrGraph::new(topo);
    SourceOracle::new(topo, &csr, src).k_shortest(dst, k)
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
    if k == 0 || src == dst {
        return Vec::new();
    }
    let csr = CsrGraph::new(topo);
    SourceOracle::new(topo, &csr, src).edge_disjoint(dst, k)
}

/// The widest path from `src` to `dst`, where a path's width is the minimum
/// of `width(channel)` over its hops. Ties break toward fewer hops, then
/// smaller node ids. Channels with zero width are unusable. A degenerate
/// `src == dst` query has no usable path and returns `None`, mirroring the
/// other oracles (the zero-hop path has no channels, hence no width).
pub fn widest_path(
    topo: &Topology,
    src: NodeId,
    dst: NodeId,
    width: impl Fn(ChannelId, Direction) -> u64,
) -> Option<Path> {
    if src == dst {
        return None;
    }
    let n = topo.node_count();
    // best[(node)] = (width, neg hops) maximized lexicographically.
    let mut best: Vec<(u64, i64)> = vec![(0, 0); n];
    let mut parent: Vec<Option<NodeId>> = vec![None; n];
    let mut done = vec![false; n];
    best[src.index()] = (u64::MAX, 0);
    loop {
        // Extract the unfinished node with the best (width, -hops, -id).
        let mut pick: Option<usize> = None;
        for i in 0..n {
            if !done[i] && best[i].0 > 0 {
                let better = match pick {
                    None => true,
                    Some(p) => best[i] > best[p] || (best[i] == best[p] && i < p),
                };
                if better {
                    pick = Some(i);
                }
            }
        }
        let Some(u) = pick else { break };
        if u == dst.index() {
            break;
        }
        done[u] = true;
        let (wu, hu) = best[u];
        for adj in topo.neighbors(NodeId::from_index(u)) {
            let dir = topo
                .channel(adj.channel)
                .direction_from(NodeId::from_index(u));
            let w = width(adj.channel, dir).min(wu);
            let cand = (w, hu - 1);
            let vi = adj.neighbor.index();
            if !done[vi] && w > 0 && cand > best[vi] {
                best[vi] = cand;
                parent[vi] = Some(NodeId::from_index(u));
            }
        }
    }
    if best[dst.index()].0 == 0 {
        return None;
    }
    let mut nodes = vec![dst];
    let mut cur = dst;
    while let Some(p) = parent[cur.index()] {
        nodes.push(p);
        cur = p;
    }
    if cur != src {
        return None;
    }
    nodes.reverse();
    Some(Path::new(nodes))
}

/// Up to `k` high-capacity paths: repeatedly take the widest path, then
/// remove its bottleneck channel and repeat. Not globally optimal (that
/// problem is harder), but matches what a practical host probing "the K
/// highest-capacity paths" would discover. `src == dst` yields the empty
/// set (it used to panic looking for the zero-hop path's bottleneck).
pub fn k_widest_paths(
    topo: &Topology,
    src: NodeId,
    dst: NodeId,
    k: usize,
    width: impl Fn(ChannelId, Direction) -> u64,
) -> Vec<Path> {
    if k == 0 || src == dst {
        return Vec::new();
    }
    let mut removed: HashSet<ChannelId> = HashSet::new();
    let mut out: Vec<Path> = Vec::new();
    while out.len() < k {
        let w = |c: ChannelId, d: Direction| if removed.contains(&c) { 0 } else { width(c, d) };
        let Some(p) = widest_path(topo, src, dst, w) else {
            break;
        };
        // Identify and remove the bottleneck channel.
        let (bottleneck_channel, _) = p
            .channels(topo)
            .into_iter()
            .min_by_key(|&(c, d)| width(c, d))
            .expect("path has at least one hop");
        removed.insert(bottleneck_channel);
        if !out.contains(&p) {
            out.push(p);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use spider_topology::gen;
    use spider_types::Amount;

    const CAP: Amount = Amount::from_xrp(100);

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    /// Diamond: 0-1-3, 0-2-3, plus direct 0-3.
    fn diamond() -> Topology {
        let mut b = Topology::builder(4);
        b.channel(n(0), n(1), CAP).unwrap();
        b.channel(n(1), n(3), CAP).unwrap();
        b.channel(n(0), n(2), CAP).unwrap();
        b.channel(n(2), n(3), CAP).unwrap();
        b.channel(n(0), n(3), CAP).unwrap();
        b.build()
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
        let mut seen = HashSet::new();
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
        let mut b = Topology::builder(4);
        b.channel(n(0), n(1), CAP).unwrap();
        b.channel(n(2), n(3), CAP).unwrap();
        let t = b.build();
        assert!(k_shortest_paths(&t, n(0), n(3), 3).is_empty());
    }

    #[test]
    fn edge_disjoint_paths_share_no_channel() {
        let t = diamond();
        let paths = k_edge_disjoint_paths(&t, n(0), n(3), 4);
        assert_eq!(paths.len(), 3); // direct, via 1, via 2
        let mut used = HashSet::new();
        for p in &paths {
            for (c, _) in p.channels(&t) {
                assert!(used.insert(c), "channel reused across paths");
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
        assert!(SourceOracle::new(&t, &csr, n(2))
            .edge_disjoint(n(2), 4)
            .is_empty());
    }

    /// Regression: `k_widest_paths(s, s, …)` used to panic unwrapping the
    /// zero-hop path's bottleneck channel; `widest_path(s, s, …)` returned
    /// a zero-hop "path" no routing scheme can use.
    #[test]
    fn widest_self_pair_has_no_paths() {
        let t = diamond();
        assert!(widest_path(&t, n(1), n(1), |_, _| 7).is_none());
        assert!(k_widest_paths(&t, n(1), n(1), 3, |_, _| 7).is_empty());
        assert!(k_widest_paths(&t, n(0), n(3), 0, |_, _| 7).is_empty());
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
        let mut oracle = SourceOracle::new(&t, &csr, n(8));
        for src in [8u32, 0, 31] {
            oracle.retarget(n(src));
            assert_eq!(oracle.source(), n(src));
            for dst in 0..t.node_count() as u32 {
                assert_eq!(
                    oracle.edge_disjoint(n(dst), 4),
                    k_edge_disjoint_paths(&t, n(src), n(dst), 4),
                    "edge-disjoint {src}->{dst}"
                );
                assert_eq!(
                    oracle.k_shortest(n(dst), 4),
                    k_shortest_paths(&t, n(src), n(dst), 4),
                    "yen {src}->{dst}"
                );
                assert_eq!(
                    oracle.shortest(n(dst)).map(|p| p.nodes),
                    t.shortest_path(n(src), n(dst)),
                    "shortest {src}->{dst}"
                );
            }
        }
    }

    /// Literal successive-shortest-path BFS, kept deliberately naive: one
    /// `VecDeque` BFS per path over `HashSet` bans. The production oracle
    /// computes the same paths through the reverse layer sweep; this
    /// reference pins the "BFS over sorted adjacency = lex-min shortest
    /// path" equivalence the sweep relies on.
    fn reference_edge_disjoint(topo: &Topology, src: NodeId, dst: NodeId, k: usize) -> Vec<Path> {
        use std::collections::VecDeque;
        if k == 0 || src == dst {
            return Vec::new();
        }
        let mut banned: HashSet<ChannelId> = HashSet::new();
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
            for (c, _) in p.channels(topo) {
                banned.insert(c);
            }
            out.push(p);
        }
        out
    }

    /// Literal Yen over a naive BFS with `HashSet` bans (the shape of the
    /// pre-sweep implementation), for pinning `k_shortest_paths`.
    fn reference_k_shortest(topo: &Topology, src: NodeId, dst: NodeId, k: usize) -> Vec<Path> {
        use std::collections::VecDeque;
        fn bfs(
            topo: &Topology,
            src: NodeId,
            dst: NodeId,
            banned_c: &HashSet<ChannelId>,
            banned_n: &HashSet<NodeId>,
        ) -> Option<Path> {
            if banned_n.contains(&src) || banned_n.contains(&dst) {
                return None;
            }
            if src == dst {
                return Some(Path::new(vec![src]));
            }
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
        if k == 0 || src == dst {
            return Vec::new();
        }
        let Some(first) = bfs(topo, src, dst, &HashSet::new(), &HashSet::new()) else {
            return Vec::new();
        };
        let mut accepted = vec![first];
        let mut candidates: Vec<Path> = Vec::new();
        while accepted.len() < k {
            let prev = accepted.last().unwrap().clone();
            for i in 0..prev.hop_count() {
                let root = &prev.nodes[..=i];
                let mut banned_c = HashSet::new();
                let mut banned_n = HashSet::new();
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
                if let Some(spur) = bfs(topo, prev.nodes[i], dst, &banned_c, &banned_n) {
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
            candidates.sort_by(|a, b| {
                a.hop_count()
                    .cmp(&b.hop_count())
                    .then_with(|| a.nodes.cmp(&b.nodes))
            });
            accepted.push(candidates.remove(0));
        }
        accepted
    }

    /// Yen over the layer sweep must match the literal implementation —
    /// node bans (spur roots) and channel bans together.
    #[test]
    fn k_shortest_matches_literal_yen() {
        use spider_types::DetRng;
        let mut rng = DetRng::new(1234);
        let graphs = vec![
            diamond(),
            gen::isp_topology(CAP),
            gen::barabasi_albert(200, 2, CAP, &mut rng),
        ];
        for t in &graphs {
            for _ in 0..150 {
                let src = NodeId(rng.index(t.node_count()) as u32);
                let dst = NodeId(rng.index(t.node_count()) as u32);
                let k = 1 + rng.index(4);
                assert_eq!(
                    k_shortest_paths(t, src, dst, k),
                    reference_k_shortest(t, src, dst, k),
                    "{src}->{dst} k={k} on {} nodes",
                    t.node_count()
                );
            }
        }
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
                let disabled_set: HashSet<ChannelId> = disabled.iter().copied().collect();
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
                    let mut masked = SourceOracle::new(t, &csr, src);
                    let mut cold = SourceOracle::new(&filtered, &fcsr, src);
                    let as_nodes =
                        |ps: Vec<Path>| ps.into_iter().map(|p| p.nodes).collect::<Vec<_>>();
                    assert_eq!(
                        as_nodes(masked.edge_disjoint(dst, k)),
                        as_nodes(cold.edge_disjoint(dst, k)),
                        "edge-disjoint {src}->{dst} k={k}"
                    );
                    assert_eq!(
                        as_nodes(masked.k_shortest(dst, k)),
                        as_nodes(cold.k_shortest(dst, k)),
                        "yen {src}->{dst} k={k}"
                    );
                    assert_eq!(
                        masked.shortest(dst).map(|p| p.nodes),
                        cold.shortest(dst).map(|p| p.nodes),
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
                assert_eq!(
                    SourceOracle::new(t, &csr, src).edge_disjoint(dst, 4),
                    SourceOracle::new(t, &full, src).edge_disjoint(dst, 4),
                );
            }
        }
    }

    #[test]
    fn source_oracle_on_disconnected_graph() {
        let mut b = Topology::builder(4);
        b.channel(n(0), n(1), CAP).unwrap();
        b.channel(n(2), n(3), CAP).unwrap();
        let t = b.build();
        let csr = CsrGraph::new(&t);
        let mut oracle = SourceOracle::new(&t, &csr, n(0));
        assert!(oracle.edge_disjoint(n(3), 4).is_empty());
        assert!(oracle.k_shortest(n(3), 4).is_empty());
        assert!(oracle.shortest(n(3)).is_none());
        assert_eq!(oracle.shortest(n(1)).unwrap().nodes, vec![n(0), n(1)]);
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

    #[test]
    fn widest_path_prefers_capacity_over_hops() {
        // 0-1 thin direct; 0-2-1 fat detour.
        let mut b = Topology::builder(3);
        b.channel(n(0), n(1), CAP).unwrap();
        b.channel(n(0), n(2), CAP).unwrap();
        b.channel(n(2), n(1), CAP).unwrap();
        let t = b.build();
        let thin = t.channel_between(n(0), n(1)).unwrap();
        let width = |c: ChannelId, _d: Direction| if c == thin { 5 } else { 50 };
        let p = widest_path(&t, n(0), n(1), width).unwrap();
        assert_eq!(p.nodes, vec![n(0), n(2), n(1)]);
    }

    #[test]
    fn widest_path_tie_breaks_to_fewer_hops() {
        let t = diamond();
        let p = widest_path(&t, n(0), n(3), |_, _| 7).unwrap();
        assert_eq!(p.nodes, vec![n(0), n(3)]);
    }

    #[test]
    fn widest_path_none_when_zero_capacity() {
        let t = diamond();
        assert!(widest_path(&t, n(0), n(3), |_, _| 0).is_none());
    }

    #[test]
    fn widest_path_directional_widths() {
        // Width depends on direction: 0→1 wide, 1→0 zero.
        let mut b = Topology::builder(2);
        b.channel(n(0), n(1), CAP).unwrap();
        let t = b.build();
        let w = |_c: ChannelId, d: Direction| if d == Direction::Forward { 9 } else { 0 };
        assert!(widest_path(&t, n(0), n(1), w).is_some());
        assert!(widest_path(&t, n(1), n(0), w).is_none());
    }

    #[test]
    fn k_widest_returns_decent_set() {
        let t = diamond();
        let paths = k_widest_paths(&t, n(0), n(3), 3, |_, _| 10);
        assert_eq!(paths.len(), 3);
        let mut seen: HashSet<Vec<NodeId>> = HashSet::new();
        for p in &paths {
            assert!(seen.insert(p.nodes.clone()));
        }
    }
}
