//! The search behind [`PathOracle`](crate::PathOracle): a flattened copy
//! of the topology's adjacency ([`CsrGraph`]), the batched per-source
//! oracle over it ([`SourceOracle`]), and the flat buffer its answers go
//! to ([`FlatPaths`]). Every search is one routine,
//! `BfsWorkspace::lexmin_path`: an exact bidirectional layer search over
//! bitsets, whose invariants are on that function.
//!
//! Answers are exactly those of the plain per-pair searches,
//! [`k_edge_disjoint_paths`] and [`Topology::shortest_path`], which this
//! module's tests compare them with: ties break toward fewer hops, then
//! the lexicographically smallest node sequence, and a `src == dst` query
//! has no edge-disjoint candidates but the zero-hop shortest path. Every
//! search sees only *enabled* channels ([`CsrGraph::set_channel_enabled`]),
//! so candidate sets on a churned network are exactly what a cold build
//! over the live subgraph would produce, without reflattening anything.
//!
//! [`k_edge_disjoint_paths`]: spider_lp::paths::k_edge_disjoint_paths

use spider_topology::Topology;
use spider_types::{ChannelId, Direction, Hop, NodeId};

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
pub(crate) struct FlatPaths {
    nodes: Vec<NodeId>,
    /// Parallel to `nodes` once a path is sealed.
    hops: Vec<Hop>,
    /// Per path: end offset into `nodes`. Nodes and hops past the last
    /// end belong to a path still being written.
    ends: Vec<u32>,
}

impl FlatPaths {
    /// An empty buffer.
    pub(crate) fn new() -> Self {
        FlatPaths::default()
    }

    /// Number of paths.
    pub(crate) fn len(&self) -> usize {
        self.ends.len()
    }

    /// Where path `i`'s nodes sit in the buffer; its hops sit at the same
    /// offsets, less the last.
    fn span(&self, i: usize) -> std::ops::Range<usize> {
        let start = if i == 0 { 0 } else { self.ends[i - 1] as usize };
        start..self.ends[i] as usize
    }

    /// Path `i`: its nodes (source first) and its hops.
    pub(crate) fn get(&self, i: usize) -> (&[NodeId], &[Hop]) {
        let span = self.span(i);
        (
            &self.nodes[span.clone()],
            &self.hops[span.start..span.end - 1],
        )
    }

    /// Paths `range`, in order.
    pub(crate) fn range(
        &self,
        range: std::ops::Range<usize>,
    ) -> impl ExactSizeIterator<Item = (&[NodeId], &[Hop])> + '_ {
        range.map(|i| self.get(i))
    }

    /// Every path, in order.
    #[cfg(test)]
    fn iter(&self) -> impl Iterator<Item = (&[NodeId], &[Hop])> + '_ {
        self.range(0..self.len())
    }

    /// The buffer taken apart: the nodes, the hop leaving each node, and
    /// each path's end offset into both. (A path starts where the one
    /// before it ends.)
    pub(crate) fn into_parts(self) -> (Vec<NodeId>, Vec<Hop>, Vec<u32>) {
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
pub(crate) struct CsrGraph {
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
    pub(crate) fn new(topo: &Topology) -> Self {
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
    pub(crate) fn set_channel_enabled(&mut self, topo: &Topology, c: ChannelId, enabled: bool) {
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

    /// Number of `u`'s incident channels that are enabled.
    pub(crate) fn live_degree(&self, u: NodeId) -> usize {
        self.row(u.0).len() - self.disabled_at(u.0)
    }

    /// `u`'s enabled channels, each with the neighbor it leads to, in
    /// ascending neighbor order.
    pub(crate) fn live_adjacency(
        &self,
        u: NodeId,
    ) -> impl Iterator<Item = (NodeId, ChannelId)> + '_ {
        let live = self
            .row(u.0)
            .iter()
            .filter(|&&e| !self.is_disabled(Self::channel(e)));
        live.map(|&e| (NodeId(Self::neighbor(e)), ChannelId(Self::channel(e))))
    }

    /// Hop distance from `src` to every node over the enabled channels
    /// (`None` where no live path exists) — one plain BFS, the masked
    /// counterpart of [`Topology::bfs_distances`].
    pub(crate) fn hop_distances(&self, src: NodeId) -> Vec<Option<u32>> {
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
    pub(crate) fn node_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of channels (undirected edges).
    pub(crate) fn channel_count(&self) -> usize {
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
/// plain per-pair searches.
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
    /// path (the tie-break contract of the plain searches, which this
    /// module's tests compare every answer with). That
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
/// Answering pair by pair costs, for *each* pair, a workspace allocation
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
/// the plain searches'
/// [`k_edge_disjoint_paths`](spider_lp::paths::k_edge_disjoint_paths)
/// and [`Topology::shortest_path`].
#[derive(Debug)]
pub(crate) struct SourceOracle<'a> {
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
pub(crate) const SEARCH_ENTRIES: usize = 400;

impl<'a> SourceOracle<'a> {
    /// Roots an oracle at `src` over `csr`, planned for `queries`
    /// first-path queries (see [`Self::retarget`]).
    pub(crate) fn new(csr: &'a CsrGraph, src: NodeId, queries: usize) -> Self {
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
    pub(crate) fn retarget(&mut self, src: NodeId, queries: usize) {
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
    pub(crate) fn shortest(&mut self, dst: NodeId, out: &mut FlatPaths) -> usize {
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
    /// the plain `spider_lp::paths::k_edge_disjoint_paths` — resumed
    /// after the `kept` prefix: the hop channels, path after path, of the
    /// first `r` paths of that answer (empty: the whole answer). Appends
    /// paths `r..` to `out`, shortest first, and returns how many.
    ///
    /// Path `i` is the lex-min shortest path once paths `0..i` are
    /// removed, so it depends on nothing but them: banning a prefix the
    /// caller already holds and searching on is the same computation as
    /// finding that prefix again first. The kept paths are walked from
    /// `src` to recover each channel's endpoints; a path ends where the
    /// walk reaches `dst`.
    pub(crate) fn edge_disjoint(
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

#[cfg(test)]
mod tests {
    use super::*;
    use spider_lp::paths::k_edge_disjoint_paths;
    use spider_topology::gen;
    use spider_types::{Amount, DetRng};

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

    /// The plain per-pair edge-disjoint answer, as node sequences.
    fn plain(topo: &Topology, src: NodeId, dst: NodeId, k: usize) -> Vec<Vec<NodeId>> {
        let paths = k_edge_disjoint_paths(topo, src, dst, k);
        paths.into_iter().map(|p| p.nodes).collect()
    }

    /// What one oracle query appends to `out`, as node sequences — after
    /// checking the flat form itself: the returned count is what was
    /// appended, and every carried hop is the channel `topo` has between
    /// the hop's nodes, crossed in the direction of travel.
    fn appended(
        topo: &Topology,
        out: &mut FlatPaths,
        query: impl FnOnce(&mut FlatPaths) -> usize,
    ) -> Vec<Vec<NodeId>> {
        let before = out.len();
        let count = query(out);
        assert_eq!(out.len(), before + count);
        let answer = out.range(before..out.len()).map(|(nodes, hops)| {
            assert_eq!(
                Ok(hops.to_vec()),
                topo.path_channels(nodes),
                "carried hops of {nodes:?}"
            );
            nodes.to_vec()
        });
        answer.collect()
    }

    /// What one oracle query answers on its own, as [`appended`] checks it.
    fn answer(topo: &Topology, query: impl FnOnce(&mut FlatPaths) -> usize) -> Vec<Vec<NodeId>> {
        appended(topo, &mut FlatPaths::new(), query)
    }

    /// Checks every answer `oracle` gives for `dst` against the plain
    /// per-pair searches on `reference`, the topology `oracle`'s graph
    /// must behave as: the shortest path, the edge-disjoint set, and that
    /// set resumed after each of its prefixes — nodes, and the hops `topo`
    /// carries between them, all appended to `out`. Returns how many of
    /// the resumed searches kept a prefix through a hub — a node with a
    /// bitset row, whose whole-word ORs `expand` must audit against the
    /// bans.
    fn check_answers(
        oracle: &mut SourceOracle<'_>,
        (topo, reference): (&Topology, &Topology),
        dst: NodeId,
        k: usize,
        out: &mut FlatPaths,
    ) -> usize {
        let src = NodeId(oracle.src);
        assert_eq!(
            appended(topo, out, |out| oracle.shortest(dst, out)),
            Vec::from_iter(reference.shortest_path(src, dst)),
            "shortest {src}->{dst}"
        );
        let want = plain(reference, src, dst, k);
        let (mut kept, mut via_hub, mut audited) = (Vec::new(), false, 0);
        for r in 0..=want.len() {
            assert_eq!(
                appended(topo, out, |out| oracle.edge_disjoint(dst, k, &kept, out)),
                want[r..],
                "{src}->{dst} k={k} resumed at {r}"
            );
            audited += usize::from(via_hub && r < k);
            if let Some(nodes) = want.get(r) {
                via_hub |= nodes.iter().any(|v| oracle.csr.hub_bits_row(v.0).is_some());
                let hops = topo.path_channels(nodes).unwrap();
                kept.extend(hops.iter().map(|hop| hop.channel()));
            }
        }
        audited
    }

    /// `t` with about a tenth of its channels disabled, and a cold build
    /// of the rest: the topology the masked graph must answer as.
    fn masked(t: &Topology, rng: &mut DetRng) -> (CsrGraph, Topology) {
        let mut csr = CsrGraph::new(t);
        let mut rest = Topology::builder(t.node_count());
        for (c, ch) in t.channels() {
            if rng.chance(0.1) {
                csr.set_channel_enabled(t, c, false);
            } else {
                rest.channel(ch.u, ch.v, ch.capacity).unwrap();
            }
        }
        (csr, rest.build())
    }

    proptest::proptest! {
        /// The batched oracle answers as the plain per-pair searches do
        /// (see `check_answers`): on every pair of an Erdős–Rényi graph
        /// (dense ones give their nodes hub rows) and on random pairs of
        /// a 300-node Ripple-like graph, whose paths run through its hubs;
        /// over the whole graph or with channels disabled, then compared
        /// as node sequences against a filtered rebuild; each source
        /// planned as a tree or as searches, re-rooted on one workspace,
        /// and every answer appended to one buffer.
        #[test]
        fn source_oracle_matches_per_pair_oracles(
            seed in 0u64..u64::MAX,
            nodes in 6usize..28,
            density in 0.15f64..0.9,
            k in 1usize..6,
            mask in 0usize..2,
        ) {
            let mut rng = DetRng::new(seed);
            let cut = |t: &Topology, rng: &mut DetRng| {
                if mask == 1 {
                    masked(t, rng)
                } else {
                    (CsrGraph::new(t), t.clone())
                }
            };
            let plan = |rng: &mut DetRng| if rng.chance(0.5) { 0 } else { usize::MAX };
            let mut out = FlatPaths::new();
            let er = gen::erdos_renyi(nodes, density, CAP, &mut rng);
            let (csr, reference) = cut(&er, &mut rng);
            let mut oracle = SourceOracle::new(&csr, n(0), 0);
            for src in er.nodes() {
                assert_eq!(csr.live_degree(src), reference.degree(src));
                assert_eq!(csr.hop_distances(src), reference.bfs_distances(src));
                oracle.retarget(src, plan(&mut rng));
                for dst in er.nodes() {
                    check_answers(&mut oracle, (&er, &reference), dst, k, &mut out);
                }
            }
            let ripple = gen::ripple_like(300, CAP, &mut rng);
            let (csr, reference) = cut(&ripple, &mut rng);
            let mut oracle = SourceOracle::new(&csr, n(0), 0);
            let mut audited = 0;
            for _ in 0..40 {
                oracle.retarget(NodeId(rng.index(300) as u32), plan(&mut rng));
                let dst = NodeId(rng.index(300) as u32);
                audited += check_answers(&mut oracle, (&ripple, &reference), dst, 4, &mut out);
            }
            assert!(audited > 0, "no kept prefix crossed a hub");
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
        let mut want: Vec<Vec<NodeId>> = Vec::new();
        for dst in [20u32, 8, 3, 31, 20] {
            let before = out.len();
            let got =
                oracle.edge_disjoint(n(dst), 3, &[], &mut out) + oracle.shortest(n(dst), &mut out);
            assert_eq!(out.len(), before + got);
            want.extend(plain(&t, n(8), n(dst), 3));
            want.extend(t.shortest_path(n(8), n(dst)));
        }
        assert!(out.iter().map(|(nodes, _)| nodes).eq(&want));
        for (nodes, hops) in out.iter() {
            assert_eq!(hops.len() + 1, nodes.len());
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
        let mut rng = DetRng::new(5);
        let graphs = vec![
            diamond(),
            gen::isp_topology(CAP),
            gen::star(20, CAP),
            gen::barabasi_albert(120, 2, CAP, &mut rng),
        ];
        for t in &graphs {
            let csr = CsrGraph::new(t);
            let (mut adjacent, mut two_hop) = (0, 0);
            for src in t.nodes() {
                // Held to searches: the corners are the walk's.
                let mut oracle = SourceOracle::new(&csr, src, 0);
                for (dst, d) in t.nodes().zip(t.bfs_distances(src)) {
                    let Some(d @ 1..=2) = d else {
                        continue;
                    };
                    if d == 1 {
                        adjacent += 1;
                    } else {
                        two_hop += 1;
                    }
                    let got = answer(t, |out| oracle.edge_disjoint(dst, 4, &[], out));
                    assert_eq!(got.first().map(|p| p.len() - 1), Some(d as usize));
                    assert_eq!(got, plain(t, src, dst, 4), "{src}->{dst}");
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
            assert_eq!(got, plain(&t, src, dst, 4), "{src}->{dst}");
            long_paths += got.iter().filter(|p| p.len() > 5).count();
        }
        assert!(long_paths > 100, "5-hop-plus detours covered: {long_paths}");
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
            let csr = if mask { masked(&t, &mut rng).0 } else { CsrGraph::new(&t) };
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
        assert_eq!(out.len(), 0, "a failed query appends nothing");
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
