//! Shared per-pair candidate-path cache with incremental churn repair.
//!
//! Every source-routed scheme restricts itself to a small candidate set per
//! pair (§5.3.1); computing it once per pair and caching matches how real
//! hosts would remember their probed paths. Candidates are interned into
//! the simulation's shared [`PathTable`] on first computation, so every
//! scheme resolves a pair's paths to `(ChannelId, Direction)` arrays
//! exactly once and thereafter trades in copyable [`PathId`]s.
//!
//! Under topology churn ([`PathCache::on_topology_change`]) the cache
//! repairs itself **incrementally**, re-searching only what the oracle
//! could now answer differently. For a [`PathPolicy::EdgeDisjoint`] set
//! that is decided per candidate: each suspect pair gets a *resume
//! index*, the first candidate the update can change, keeps the
//! candidates before it, and the oracle searches on from there:
//!
//! * a channel **close** can change the first candidate that crosses it
//!   and everything after (removing an edge no earlier candidate uses
//!   leaves each of them lex-min in its residual graph);
//! * a channel **open** can change candidate `i` only when a route
//!   through it could be as short as candidate `i` in the graph that
//!   candidate was searched in — a one-hop bound from the pair's own
//!   endpoints settles that for most pairs the new edge reaches, without
//!   a search — and can rescue a failed search (a pair with fewer
//!   candidates than the policy asks for);
//! * a capacity **resize** changes nothing (the oracles are
//!   hop-count-based).
//!
//! A pair that keeps every candidate is neither searched nor reported.
//! The exact rules, their arguments and the per-policy variants are on
//! [`PathCache::on_topology_change`]. The searches run through
//! [`PathOracle`] over one retained flattened graph (`CsrGraph`) whose
//! channels are enabled/disabled in O(1) per event — the graph is
//! flattened exactly once per cache lifetime.
//!
//! Beyond the search, a repair is bookkeeping at id speed. Every cached
//! pair owns a dense slot for life; "which pairs cross this channel" is a
//! `ChannelIndex` of slots — generation-stamped per-channel lists with
//! lazy deletion. A re-searched pair whose candidates come back as they were costs
//! one comparison per path and touches nothing; one that changed costs a
//! counter decrement per old hop, a generation bump, and a `Vec` push per
//! new hop. Nothing is hashed per hop and nothing is allocated per pair.

use crate::chanindex::ChannelIndex;
use crate::oracle::{FilledPaths, KeptPrefixes, PathOracle};
use crate::paths::CsrGraph;
use spider_sim::{PathEntry, PathTable, TopologyUpdate};
use spider_topology::Topology;
use spider_types::{ChannelId, Hop, IdHashMap, NodeId, PathId};

/// Candidate-set policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PathPolicy {
    /// k edge-disjoint shortest paths (the paper's evaluation setting).
    EdgeDisjoint(usize),
    /// The single BFS shortest path (the packet-switched baseline).
    Shortest,
}

/// What the open rule reads of a cached candidate.
#[derive(Debug, Clone, Copy)]
struct Bounded {
    /// Its hop count, `L_i`.
    hops: u32,
    /// Its channel at the source (its first hop) …
    first: ChannelId,
    /// … and at the destination (its last).
    last: ChannelId,
}

impl Bounded {
    fn of(path: &PathEntry) -> Self {
        let hops = path.hops();
        Bounded {
            hops: hops.len() as u32,
            first: hops[0].channel(),
            last: hops[hops.len() - 1].channel(),
        }
    }
}

/// The first of a pair's `candidates` that an `s–t` path through the
/// opened channel `ends = (u, v)` may displace — the first `i` with
/// `B_i ≤ L_i` in the open rule of [`PathCache::on_topology_change`] — or
/// their count. `dist` holds hop distances on the new graph from `u` and
/// from `v`; `detour` is `B₀`.
fn first_displaced(
    csr: &CsrGraph,
    (s, t): (NodeId, NodeId),
    ends: (NodeId, NodeId),
    dist: (&[Option<u32>], &[Option<u32>]),
    detour: u32,
    candidates: &[Bounded],
) -> u32 {
    let through = |near: Option<u32>, far: Option<u32>| Some(near? + 1 + far?);
    let mut bound = detour;
    for (i, candidate) in candidates.iter().enumerate() {
        if i > 0 {
            let earlier = &candidates[..i];
            let near = leaving(csr, s, ends, dist, |c| earlier.iter().any(|p| p.first == c));
            let far = leaving(csr, t, ends, dist, |c| earlier.iter().any(|p| p.last == c));
            let through_uv = [through(near.0, far.1), through(near.1, far.0)];
            // The bounds only grow with `i`: once no path is left, none is.
            let Some(b) = through_uv.into_iter().flatten().min() else {
                break;
            };
            bound = b;
        }
        if bound <= candidate.hops {
            return i as u32;
        }
    }
    candidates.len() as u32
}

/// `(S(u), S(v))` for the open rule at the pair's endpoint `from`: lower
/// bounds on the hops from `from` to each end of the opened channel
/// `ends = (u, v)` once the channels `taken` says earlier candidates use
/// are gone — `0` to itself, otherwise one hop over a live channel not
/// taken plus the neighbor's distance in `dist` (`None`: no such path).
fn leaving(
    csr: &CsrGraph,
    from: NodeId,
    ends: (NodeId, NodeId),
    dist: (&[Option<u32>], &[Option<u32>]),
    taken: impl Fn(ChannelId) -> bool,
) -> (Option<u32>, Option<u32>) {
    let nearer = |best: Option<u32>, d: Option<u32>| best.into_iter().chain(d.map(|d| d + 1)).min();
    let mut best = (None, None);
    for (w, _) in csr.live_adjacency(from).filter(|&(_, c)| !taken(c)) {
        best = (
            nearer(best.0, dist.0[w.index()]),
            nearer(best.1, dist.1[w.index()]),
        );
    }
    let bound = |end: NodeId, best: Option<u32>| if from == end { Some(0) } else { best };
    (bound(ends.0, best.0), bound(ends.1, best.1))
}

/// One cached pair. A pair keeps its slot — its position in
/// [`Cached::slots`] — for the cache's lifetime, through every repair.
#[derive(Debug, Clone)]
struct Slot {
    pair: (NodeId, NodeId),
    /// How many candidates the pair has.
    count: u32,
    /// Bumped whenever the candidates are replaced, so what the reverse
    /// index holds for the old set goes stale without being searched for.
    gen: u32,
    /// Hops of the longest (the last) candidate; what the open rule
    /// compares a detour against.
    longest_hops: u32,
}

/// The cached pairs and their candidates.
#[derive(Debug, Clone)]
struct Cached {
    /// The most candidates a pair can have.
    k: usize,
    /// Where each pair's slot is — the one hash lookup of a
    /// [`PathCache::get`].
    slot_of: IdHashMap<(NodeId, NodeId), u32>,
    /// The pairs, in the order they were first cached.
    slots: Vec<Slot>,
    /// Every slot's candidates, `k` ids a slot of which the first
    /// `count` mean something: no allocation per pair.
    ids: Vec<PathId>,
}

impl Cached {
    /// `pair`'s slot; a pair seen for the first time gets the next one,
    /// with no candidates yet.
    fn slot_for(&mut self, pair: (NodeId, NodeId)) -> u32 {
        let next = self.slots.len() as u32;
        let slot = *self.slot_of.entry(pair).or_insert(next);
        if slot == next {
            self.slots.push(Slot {
                pair,
                count: 0,
                gen: 0,
                longest_hops: 0,
            });
            self.ids.resize(self.ids.len() + self.k, PathId(0));
        }
        slot
    }

    /// The candidates of `slot`, best first.
    fn candidates(&self, slot: u32) -> &[PathId] {
        let at = slot as usize * self.k;
        &self.ids[at..at + self.slots[slot as usize].count as usize]
    }

    /// Calls `visit` with the channel of every hop of every candidate of
    /// `slot`. A slot's candidates are edge-disjoint (or one loopless
    /// path), so no channel is visited twice.
    fn each_hop(&self, paths: &PathTable, slot: u32, mut visit: impl FnMut(usize)) {
        for &id in self.candidates(slot) {
            paths.map_entry(id, |path| {
                for hop in path.hops() {
                    visit(hop.channel().index());
                }
            });
        }
    }

    /// Replaces `slot`'s candidates from the `from`-th on with `tail`.
    fn replace(&mut self, paths: &PathTable, slot: u32, from: usize, tail: &[PathId]) {
        let count = from + tail.len();
        assert!(count <= self.k, "more than k = {} candidates", self.k);
        let at = slot as usize * self.k;
        self.ids[at + from..at + count].copy_from_slice(tail);
        let longest = count.checked_sub(1);
        let longest = longest.map_or(0, |last| {
            paths.map_entry(self.ids[at + last], |p| p.hop_count())
        });
        let entry = &mut self.slots[slot as usize];
        entry.count = count as u32;
        entry.gen = entry.gen.wrapping_add(1);
        entry.longest_hops = longest as u32;
        // Edge-disjoint candidates, or one loopless path: each hop's
        // channel is crossed once in the whole slot. (Counted in place —
        // the repair allocation budget holds in debug builds too.)
        debug_assert!(
            {
                let entries = || self.candidates(slot).iter().map(|&id| paths.entry(id));
                entries().all(|a| {
                    a.hops().iter().all(|&hop| {
                        let c = hop.channel();
                        let times =
                            entries().map(|b| b.hops().iter().filter(|h| h.channel() == c).count());
                        times.sum::<usize>() == 1
                    })
                })
            },
            "slot {slot}'s candidates cross a channel twice"
        );
    }

    /// True when `slot`'s candidates from the `from`-th on are exactly the
    /// node sequences of `set`, in order.
    fn holds<'a>(
        &self,
        paths: &PathTable,
        slot: u32,
        from: usize,
        mut set: impl Iterator<Item = (&'a [NodeId], &'a [Hop])>,
    ) -> bool {
        let mut held = self.candidates(slot)[from..].iter();
        let same = |&id: &PathId, nodes| paths.map_entry(id, |path| path.nodes() == nodes);
        set.all(|(nodes, _)| held.next().is_some_and(|id| same(id, nodes))) && held.next().is_none()
    }
}

/// Per-pair candidate paths, batch-filled and churn-repairable.
#[derive(Debug, Clone)]
pub struct PathCache {
    policy: PathPolicy,
    cached: Cached,
    /// Channels currently closed by churn (`true` = closed). Empty until
    /// the first topology change.
    closed: Vec<bool>,
    /// The retained flattened graph, built on first batched fill and kept
    /// in sync with `closed` through O(1) channel toggles.
    csr: Option<CsrGraph>,
    /// Reverse index: channel `c`'s members are the slots with a candidate
    /// traversing `c` (a slot's candidates share no channel, so each is a
    /// member once), each stamped with the slot's generation. A close then
    /// invalidates exactly the live members of the closed channels instead
    /// of scanning every cached pair's candidates — the difference between
    /// O(affected) and O(pairs × k × hops) per event at Ripple scale.
    /// Keeping it current costs a pair whose candidates change one counter
    /// decrement per old hop and one `Vec` push per new hop, nothing
    /// hashed. `None` until a close needs it: a static network never pays
    /// for it.
    rev: Option<ChannelIndex>,
    /// Lifetime counters surfaced through [`PathCache::counters`].
    hits: u64,
    misses: u64,
    prefilled: u64,
    repairs: u64,
    /// What the repair rules decided, counted for the tests.
    #[cfg(test)]
    decided: Decided,
}

/// Repair decisions the small graphs of the unit tests rarely reach.
#[cfg(test)]
#[derive(Debug, Clone, Default)]
struct Decided {
    /// Pairs re-searched from a later candidate than the first.
    resumed_late: u64,
    /// Pairs an opened channel reaches within their longest candidate's
    /// hops (what refilled them before the per-candidate bound) that the
    /// bound kept whole, counted once per such channel.
    kept_by_bound: u64,
}

impl PathCache {
    /// Empty cache with the given policy.
    pub fn new(policy: PathPolicy) -> Self {
        let k = match policy {
            PathPolicy::EdgeDisjoint(k) => k,
            PathPolicy::Shortest => 1,
        };
        PathCache {
            policy,
            cached: Cached {
                k,
                slot_of: IdHashMap::default(),
                slots: Vec::new(),
                ids: Vec::new(),
            },
            closed: Vec::new(),
            csr: None,
            rev: None,
            hits: 0,
            misses: 0,
            prefilled: 0,
            repairs: 0,
            #[cfg(test)]
            decided: Decided::default(),
        }
    }

    /// Empty cache with the given policy that starts from `other`'s
    /// channel-liveness mask — for a cache created mid-run, which would
    /// otherwise only hear about topology changes made after its creation.
    pub(crate) fn with_mask_of(policy: PathPolicy, other: &PathCache) -> Self {
        PathCache {
            closed: other.closed.clone(),
            ..PathCache::new(policy)
        }
    }

    /// The candidate paths for `(src, dst)`. A pair not cached yet is
    /// filled on the spot — a one-pair [`PathCache::prefill`] against the
    /// current channel-liveness mask, counted as a miss.
    pub fn get(
        &mut self,
        topo: &Topology,
        paths: &PathTable,
        src: NodeId,
        dst: NodeId,
    ) -> &[PathId] {
        let slot = self.get_slot(topo, paths, src, dst);
        self.cached.candidates(slot)
    }

    /// [`Self::get`], answered with the pair's slot: what
    /// [`Self::candidates`] reads its candidates by.
    pub(crate) fn get_slot(
        &mut self,
        topo: &Topology,
        paths: &PathTable,
        src: NodeId,
        dst: NodeId,
    ) -> u32 {
        match self.cached.slot_of.get(&(src, dst)) {
            Some(&slot) => {
                self.hits += 1;
                slot
            }
            None => {
                self.misses += 1;
                let slot = self.cached.slot_for((src, dst));
                self.fill_slots(topo, paths, &[(slot, 0)]);
                slot
            }
        }
    }

    /// The slot of `(src, dst)` if it is cached — neither a hit nor a
    /// miss. A pair keeps its slot, a dense index below [`Self::len`],
    /// for the cache's lifetime, so a caller can keep per-pair state of
    /// its own in slot order without a map of its own.
    pub fn slot(&self, src: NodeId, dst: NodeId) -> Option<u32> {
        self.cached.slot_of.get(&(src, dst)).copied()
    }

    /// The candidates of a cached pair by its slot, best first.
    pub fn candidates(&self, slot: u32) -> &[PathId] {
        self.cached.candidates(slot)
    }

    /// The pair a slot holds.
    pub fn pair(&self, slot: u32) -> (NodeId, NodeId) {
        self.cached.slots[slot as usize].pair
    }

    /// Makes `slot` a member of every channel its candidates traverse, at
    /// its current generation.
    fn register(rev: &mut ChannelIndex, cached: &Cached, paths: &PathTable, slot: u32) {
        let gen = cached.slots[slot as usize].gen;
        let current = |s: u32, g: u32| cached.slots[s as usize].gen == g;
        cached.each_hop(paths, slot, |c| rev.insert(c, slot, gen, current));
    }

    /// The reverse index of everything cached.
    fn index(cached: &Cached, topo: &Topology, paths: &PathTable) -> ChannelIndex {
        // Sized by a count first: a thousand lists doubling their way up
        // would hold twice what they need at the peak.
        let slots = 0..cached.slots.len() as u32;
        let mut members = vec![0u32; topo.channel_count()];
        for slot in slots.clone() {
            cached.each_hop(paths, slot, |c| members[c] += 1);
        }
        let mut rev = ChannelIndex::with_capacities(&members);
        for slot in slots {
            Self::register(&mut rev, cached, paths, slot);
        }
        rev
    }

    /// The retained CSR graph, built on first use and synced to `closed`.
    fn synced_csr<'a>(
        slot: &'a mut Option<CsrGraph>,
        topo: &Topology,
        closed: &[bool],
    ) -> &'a mut CsrGraph {
        slot.get_or_insert_with(|| {
            let mut csr = CsrGraph::new(topo);
            for (i, &c) in closed.iter().enumerate() {
                if c {
                    csr.set_channel_enabled(topo, ChannelId::from_index(i), false);
                }
            }
            csr
        })
    }

    /// Precomputes and interns the candidate sets of every listed pair,
    /// so later [`PathCache::get`] calls are pure lookups.
    ///
    /// Pairs are filled *per source* through a batched
    /// [`PathOracle`] — one BFS tree and one reusable
    /// workspace per source, sources fanned across worker threads — then
    /// interned into `paths` on this thread in pair order (first
    /// occurrence wins; already-cached pairs are skipped). Filling pairs
    /// one at a time through [`PathCache::get`] yields the same candidate
    /// sets and, in the same order, the same `PathId`s.
    pub fn prefill(&mut self, topo: &Topology, paths: &PathTable, pairs: &[(NodeId, NodeId)]) {
        // The one batch big enough to be worth sizing for: the prewarm
        // list, distinct pairs into an empty cache. (Repairs are many and
        // small: reserving for each only raises the peak.)
        if self.cached.slots.is_empty() {
            self.cached.slot_of.reserve(pairs.len());
            self.cached.slots.reserve(pairs.len());
            self.cached.ids.reserve(pairs.len() * self.cached.k);
        }
        // New pairs take the next slots in pair order, so the slots past
        // `known` are exactly the pairs to fill.
        let known = self.cached.slots.len();
        for &pair in pairs {
            self.cached.slot_for(pair);
        }
        let fresh = &self.cached.slots[known..];
        if fresh.is_empty() {
            return;
        }
        let todo: Vec<_> = fresh.iter().map(|slot| slot.pair).collect();
        self.prefilled += todo.len() as u64;
        let filled = self.compute(topo, &todo, &KeptPrefixes::new());
        paths.reserve(filled.path_count(), todo.len());
        let fresh = (known as u32..self.cached.slots.len() as u32).map(|slot| (slot, 0));
        self.adopt(topo, paths, fresh, filled);
    }

    /// Batch-fills the pairs of `slots` — `(slot, from)`: each keeps its
    /// candidates before the `from`-th and searches on from there — under
    /// the current channel-liveness mask, interning the results in that
    /// order. Returns those pairs.
    fn fill_slots(
        &mut self,
        topo: &Topology,
        paths: &PathTable,
        slots: &[(u32, u32)],
    ) -> Vec<(NodeId, NodeId)> {
        let pair = |&(slot, _): &(u32, u32)| self.cached.slots[slot as usize].pair;
        let todo: Vec<_> = slots.iter().map(pair).collect();
        if !todo.is_empty() {
            let mut kept = KeptPrefixes::new();
            for &(slot, from) in slots {
                for &id in &self.cached.candidates(slot)[..from as usize] {
                    paths.map_entry(id, |path| {
                        kept.extend(path.hops().iter().map(|hop| hop.channel()))
                    });
                }
                kept.seal();
            }
            let filled = self.compute(topo, &todo, &kept);
            self.adopt(topo, paths, slots.iter().copied(), filled);
        }
        todo
    }

    /// The candidates of `todo` after each pair's `kept` prefix, on the
    /// retained CSR graph, i.e. under the current channel-liveness mask.
    fn compute(
        &mut self,
        topo: &Topology,
        todo: &[(NodeId, NodeId)],
        kept: &KeptPrefixes,
    ) -> FilledPaths {
        let csr = Self::synced_csr(&mut self.csr, topo, &self.closed);
        PathOracle::with_csr(csr, self.policy).resume(todo, kept)
    }

    /// Gives each of `slots` — `(slot, from)` — its candidates from the
    /// `from`-th on from `filled` (what the search found after the kept
    /// ones). A pair that comes back with the node sequences it already
    /// holds — most of a repair — keeps its ids and its place in the
    /// reverse index untouched; the others have their new tails interned
    /// in `slots` order, hops as the search wrote them, into the buffers
    /// the search wrote them to. The ids are what interning every
    /// candidate of every pair would have assigned: the paths left out are
    /// in the table already.
    fn adopt(
        &mut self,
        topo: &Topology,
        paths: &PathTable,
        slots: impl Iterator<Item = (u32, u32)> + Clone,
        filled: FilledPaths,
    ) {
        // Per pair: how many candidates it got, if they are not the ones
        // it holds.
        let changed: Vec<Option<usize>> = slots
            .clone()
            .zip(filled.sets())
            .map(|((slot, from), set)| {
                let count = set.len();
                let held = self.cached.holds(paths, slot, from as usize, set);
                (!held).then_some(count)
            })
            .collect();
        let interned = filled.intern(topo, paths, |pair| changed[pair].is_some());
        let mut rest = interned.as_slice();
        let changed = slots
            .zip(&changed)
            .filter_map(|(fill, count)| Some((fill, (*count)?)));
        for ((slot, from), count) in changed {
            let (tail, later) = rest.split_at(count);
            rest = later;
            // What the index holds for the old candidates goes stale
            // where it is.
            if let Some(rev) = self.rev.as_mut() {
                self.cached.each_hop(paths, slot, |c| rev.note_removed(c));
            }
            self.cached.replace(paths, slot, from as usize, tail);
            if let Some(rev) = self.rev.as_mut() {
                Self::register(rev, &self.cached, paths, slot);
            }
        }
    }

    /// Repairs the cache after a topology-churn event: updates the
    /// channel-liveness mask (O(1) toggles on the retained CSR graph) and
    /// re-searches exactly the candidates that may have changed. Returns
    /// the pairs it re-searched (sorted, so callers migrating per-path
    /// state iterate deterministically); a pair not returned kept every
    /// candidate, ids included. [`PathCache::counters`]' repairs count
    /// them too.
    ///
    /// Each suspect pair gets a *resume index* `r`: it keeps candidates
    /// `P₀..P_{r−1}` and the oracle, with their channels banned, searches
    /// for `P_r..` only. Rules, each exact for the hop-count oracles (what
    /// is kept is what a cold search on the new graph would find), for
    /// candidates `P₀..P_{m−1}` of `L₀ ≤ … ≤ L_{m−1}` hops under a policy
    /// asking for `k`:
    ///
    /// * **close** — `r_close` is the first candidate that crosses a
    ///   closed channel (`m` if none does). Removing an edge that
    ///   `P₀..P_i` do not use leaves the `i`-th search's residual graph
    ///   with `P_i` in it and no shorter or lex-smaller path than it had,
    ///   so each `P_i` before `r_close` is found again, by induction.
    /// * **open** — let `R'_i` be the graph after the update minus the
    ///   channels of `P₀..P_{i−1}`, where the `i`-th search runs. Every
    ///   `s–t` path of `R'_i` through an opened channel `(u, v)` leaves
    ///   `s` over a live channel `(s, w)` that `P₀..P_{i−1}` do not use
    ///   (or is at `u` already), so it has at least
    ///   `B_i = min over opened channels and both orientations (a, b) of
    ///   S_i(a) + 1 + T_i(b)` hops, where `S_i(a)` is `0` if `s = a` and
    ///   otherwise the least `1 + d(w, a)` over those channels, `T_i(b)`
    ///   the same at `t` (a simple path crosses its endpoint once, so
    ///   `P_j`'s only channel there is its first or last hop), and `d`
    ///   hop distance on the whole new graph — the two BFS per opened
    ///   channel. `r_open` is the first `i` with `B_i ≤ L_i` (`m` if
    ///   none). When `B_i > L_i` the `≤ L_i`-hop paths of `R'_i` avoid
    ///   every opened channel, so they are a subset of the old residual
    ///   graph's that still holds `P_i` (for `i < r_close`): the search
    ///   finds `P_i` again. The comparison is strict for a reason: at
    ///   `B_i = L_i` a lex-smaller detour of equal length can exist.
    ///   `B₀ = D`, the shortest `s–t` walk through an opened channel, and
    ///   the `B_i` only grow with `i`, so a pair with `D > L_{m−1}` needs
    ///   no look at its candidates at all.
    /// * **rescue** — a pair with `m < k` also had a search *fail*, and
    ///   only a new channel can make it succeed: with every candidate kept
    ///   it resumes at `m` when `D` is finite, unless (for
    ///   [`PathPolicy::EdgeDisjoint`]) `s` or `t` already spends every live
    ///   channel on the candidates (live degree `= m`) — the oracle's own
    ///   pruning, under which the search stays failed.
    /// * **resize** — nothing: candidate selection ignores capacity.
    ///
    /// `r = min(r_close, r_open)`, and a pair with `r = m` that needs no
    /// rescue is left alone. An update carrying both closes and opens
    /// applies the close rule to the cached candidates and the open rule
    /// on the final graph.
    ///
    /// Per policy: [`PathPolicy::Shortest`] has `k = 1`, so `B₀ = D` and
    /// `r = 0` for every suspect — a whole refill, as before the
    /// per-candidate rules.
    ///
    /// Cost beyond the searches: two BFS and one pass over the cached
    /// pairs per opened channel, plus a pass over both endpoints' live
    /// channels for each pair within `D ≤ L_{m−1}` of it, and a walk over
    /// the candidates of each pair crossing a closed channel; a pair whose
    /// candidates did change costs the reverse index one counter
    /// decrement per old hop and one push per new hop.
    pub fn on_topology_change(
        &mut self,
        topo: &Topology,
        paths: &PathTable,
        update: &TopologyUpdate,
    ) -> Vec<(NodeId, NodeId)> {
        if !update.connectivity_changed() {
            return Vec::new();
        }
        if self.closed.is_empty() {
            self.closed = vec![false; topo.channel_count()];
        }
        for (channels, close) in [(&update.closed, true), (&update.opened, false)] {
            for &c in channels {
                self.closed[c.index()] = close;
                if let Some(csr) = self.csr.as_mut() {
                    csr.set_channel_enabled(topo, c, !close);
                }
            }
        }
        let mut suspect = self.resumes_after_close(topo, paths, &update.closed);
        suspect.extend(self.resumes_after_open(topo, paths, &update.opened));
        // Re-search (and therefore intern) in pair order, whatever order
        // the pairs were first cached in; a pair both rules name resumes
        // at the earlier candidate.
        let slots = &self.cached.slots;
        suspect.sort_unstable_by_key(|&(slot, from)| (slots[slot as usize].pair, from));
        suspect.dedup_by_key(|&mut (slot, _)| slot);
        #[cfg(test)]
        {
            self.decided.resumed_late +=
                suspect.iter().filter(|&&(_, from)| from > 0).count() as u64;
        }
        self.repairs += suspect.len() as u64;
        self.fill_slots(topo, paths, &suspect)
    }

    /// `(slot, resume index)` of every slot with a candidate crossing one
    /// of the `closed` channels (already closed in the mask) — the close
    /// rule of [`PathCache::on_topology_change`]. In slot order.
    fn resumes_after_close(
        &mut self,
        topo: &Topology,
        paths: &PathTable,
        closed: &[ChannelId],
    ) -> Vec<(u32, u32)> {
        let slots = self.slots_traversing(topo, paths, closed);
        // No cached candidate crosses a channel closed before this update,
        // so a closed hop is one this update closed.
        let crosses = |&id: &PathId| {
            paths.map_entry(id, |path| {
                path.hops()
                    .iter()
                    .any(|hop| self.closed[hop.channel().index()])
            })
        };
        // (Every indexed slot has a crossing candidate; a whole refill
        // would be exact regardless.)
        let first_crossing = |slot: u32| {
            let first = self.cached.candidates(slot).iter().position(crosses);
            first.map_or(0, |i| i as u32)
        };
        slots
            .into_iter()
            .map(|slot| (slot, first_crossing(slot)))
            .collect()
    }

    /// `(slot, resume index)` of every slot one of the `opened` channels
    /// (already live in the mask) may change — the open and rescue rules
    /// of [`PathCache::on_topology_change`]. In slot order.
    fn resumes_after_open(
        &mut self,
        topo: &Topology,
        paths: &PathTable,
        opened: &[ChannelId],
    ) -> Vec<(u32, u32)> {
        /// No opened channel reaches the pair.
        const UNREACHED: u32 = u32::MAX;
        if opened.is_empty() || self.cached.slots.is_empty() {
            return Vec::new();
        }
        let k = self.cached.k;
        let csr = Self::synced_csr(&mut self.csr, topo, &self.closed);
        let cached = &self.cached;
        // Per slot: the first candidate an opened channel may displace —
        // `m` where one reaches the pair but can at most rescue a failed
        // search.
        let mut first = vec![UNREACHED; cached.slots.len()];
        let mut candidates = Vec::with_capacity(k);
        let at = |dist: &[Option<u32>], n: NodeId| dist[n.index()];
        let through = |near: Option<u32>, far: Option<u32>| Some(near? + 1 + far?);
        for &c in opened {
            let ch = topo.channel(c);
            let ends = (ch.u, ch.v);
            let dist = (csr.hop_distances(ch.u), csr.hop_distances(ch.v));
            let dist = (dist.0.as_slice(), dist.1.as_slice());
            for (slot, (entry, first)) in (0..).zip(cached.slots.iter().zip(&mut first)) {
                let (s, t) = entry.pair;
                let detour = [
                    through(at(dist.0, s), at(dist.1, t)),
                    through(at(dist.1, s), at(dist.0, t)),
                ];
                let Some(detour) = detour.into_iter().flatten().min() else {
                    continue;
                };
                let m = entry.count;
                let displaced = if m == 0 || detour > entry.longest_hops {
                    m
                } else {
                    candidates.clear();
                    let ids = cached.candidates(slot).iter();
                    candidates.extend(ids.map(|&id| paths.map_entry(id, Bounded::of)));
                    let displaced =
                        first_displaced(csr, entry.pair, ends, dist, detour, &candidates);
                    #[cfg(test)]
                    if displaced == m {
                        self.decided.kept_by_bound += 1;
                    }
                    displaced
                };
                *first = displaced.min(*first);
            }
        }
        let disjoint = matches!(self.policy, PathPolicy::EdgeDisjoint(_));
        let reached = (0..).zip(&cached.slots).zip(first);
        reached
            .filter_map(|((slot, entry), first)| {
                let ((s, t), m) = (entry.pair, entry.count);
                if first < m {
                    return Some((slot, first));
                }
                let exhausted = disjoint
                    && (csr.live_degree(s) == m as usize || csr.live_degree(t) == m as usize);
                let rescued = first != UNREACHED && (m as usize) < k && !exhausted;
                rescued.then_some((slot, m))
            })
            .collect()
    }

    /// The slots with a candidate traversing any of `channels`, answered
    /// from the reverse index in O(affected) — ascending. The first call
    /// that has something to look through builds the index from the cache.
    fn slots_traversing(
        &mut self,
        topo: &Topology,
        paths: &PathTable,
        channels: &[ChannelId],
    ) -> Vec<u32> {
        let cached = &self.cached;
        if channels.is_empty() || cached.slots.is_empty() {
            return Vec::new();
        }
        let rev = self
            .rev
            .get_or_insert_with(|| Self::index(cached, topo, paths));
        let current = |s: u32, g: u32| cached.slots[s as usize].gen == g;
        let (mut found, mut members) = (Vec::new(), Vec::new());
        for &c in channels {
            rev.collect_live_sorted(c.index(), current, &mut members);
            found.append(&mut members);
        }
        found.sort_unstable();
        found.dedup();
        found
    }

    /// The cached pairs with a candidate traversing any of `channels`,
    /// from the reverse index — unsorted.
    #[cfg(test)]
    fn pairs_traversing(
        &mut self,
        topo: &Topology,
        paths: &PathTable,
        channels: &[ChannelId],
    ) -> Vec<(NodeId, NodeId)> {
        let slots = self.slots_traversing(topo, paths, channels);
        let pair = |slot: &u32| self.cached.slots[*slot as usize].pair;
        slots.iter().map(pair).collect()
    }

    /// Reference implementation of [`PathCache::pairs_traversing`]: the
    /// full cache scan the reverse index replaced — unsorted.
    #[cfg(test)]
    fn pairs_traversing_scan(
        &self,
        paths: &PathTable,
        channels: &[ChannelId],
    ) -> Vec<(NodeId, NodeId)> {
        let crosses = |slot: u32| {
            let mut crosses = false;
            let listed = |c| channels.contains(&ChannelId::from_index(c));
            self.cached.each_hop(paths, slot, |c| crosses |= listed(c));
            crosses
        };
        let slots = (0..).zip(&self.cached.slots);
        slots
            .filter(|&(i, _)| crosses(i))
            .map(|(_, slot)| slot.pair)
            .collect()
    }

    /// True when `channel` is currently closed in this cache's mask.
    #[cfg(test)]
    fn channel_closed(&self, channel: ChannelId) -> bool {
        self.closed.get(channel.index()).copied().unwrap_or(false)
    }

    /// Number of cached pairs.
    pub fn len(&self) -> usize {
        self.cached.slots.len()
    }

    /// True when nothing has been cached yet.
    pub fn is_empty(&self) -> bool {
        self.cached.slots.is_empty()
    }

    /// Lifetime counters, in a fixed order suitable for
    /// [`RouterObs::counters`](spider_sim::RouterObs): cache hits (get on
    /// a cached pair), misses (one-pair fills), pairs filled by
    /// [`PathCache::prefill`], and pairs re-searched after churn (a pair
    /// counts once per event that re-searches any of its candidates; one
    /// that keeps them all is not counted).
    pub fn counters(&self) -> [(&'static str, u64); 4] {
        [
            ("path_cache_hits", self.hits),
            ("path_cache_misses", self.misses),
            ("path_cache_prefilled", self.prefilled),
            ("path_cache_repairs", self.repairs),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paths::SEARCH_ENTRIES;
    use spider_topology::gen;
    use spider_types::{Amount, DetRng};

    #[test]
    fn caches_per_pair_and_shares_interned_ids() {
        let t = gen::isp_topology(Amount::from_xrp(100));
        let table = PathTable::new();
        let mut c = PathCache::new(PathPolicy::EdgeDisjoint(4));
        assert!(c.is_empty());
        let p1 = c.get(&t, &table, NodeId(8), NodeId(20)).to_vec();
        assert_eq!(c.len(), 1);
        let interned_after_first = table.len();
        let p2 = c.get(&t, &table, NodeId(8), NodeId(20)).to_vec();
        assert_eq!(c.len(), 1);
        assert_eq!(p1, p2);
        assert_eq!(table.len(), interned_after_first, "no re-interning");
        c.get(&t, &table, NodeId(20), NodeId(8));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn policies_differ() {
        let t = gen::isp_topology(Amount::from_xrp(100));
        let table = PathTable::new();
        let mut dis = PathCache::new(PathPolicy::EdgeDisjoint(4));
        let mut one = PathCache::new(PathPolicy::Shortest);
        let d = dis.get(&t, &table, NodeId(0), NodeId(7)).to_vec();
        let s = one.get(&t, &table, NodeId(0), NodeId(7)).to_vec();
        assert_eq!(d.len(), 4);
        // The shortest path is the disjoint set's first, interned once.
        assert_eq!(s, &d[..1]);
        // The disjoint set shares no channel.
        let mut used = std::collections::BTreeSet::new();
        for id in &d {
            for c in table.entry(*id).hops().iter().map(|hop| hop.channel()) {
                assert!(used.insert(c));
            }
        }
    }

    #[test]
    fn shortest_policy_matches_topology_bfs() {
        // The oracle's shortest path must reproduce `Topology::shortest_path`
        // exactly (same smallest-id tie-breaks) for every destination.
        let t = gen::isp_topology(Amount::from_xrp(100));
        let table = PathTable::new();
        let mut c = PathCache::new(PathPolicy::Shortest);
        for src in [0u32, 3, 8, 31] {
            for dst in 0..32u32 {
                if src == dst {
                    continue;
                }
                let ids = c.get(&t, &table, NodeId(src), NodeId(dst)).to_vec();
                assert_eq!(ids.len(), 1);
                assert_eq!(
                    table.entry(ids[0]).nodes(),
                    t.shortest_path(NodeId(src), NodeId(dst)).unwrap(),
                    "pair {src}->{dst}"
                );
            }
        }
        // Unreachable pairs cache an empty set.
        let mut b = spider_topology::Topology::builder(3);
        b.channel(NodeId(0), NodeId(1), Amount::from_xrp(1))
            .unwrap();
        let t2 = b.build();
        let table2 = PathTable::new();
        let mut c2 = PathCache::new(PathPolicy::Shortest);
        assert!(c2.get(&t2, &table2, NodeId(0), NodeId(2)).is_empty());
        assert_eq!(c2.len(), 1, "negative result is cached too");
    }

    /// `prefill` must hand out the ids one-at-a-time `get`s in pair order
    /// would: same candidates, interned in the same order, nothing extra —
    /// on pair lists long enough that the fill fans across workers and
    /// the interning order is *not* the order paths were computed in. On
    /// the ISP graph every source's first paths come from a BFS tree; on
    /// a 300-node Ripple-like graph sources with 0 to 11 pairs fall on
    /// both sides of the size that repays one.
    fn prefill_assigns_the_ids_of_gets_in_pair_order(policy: PathPolicy) {
        let isp = gen::isp_topology(Amount::from_xrp(100));
        let nodes = isp.node_count() as u32;
        // Every ordered pair (self-pairs too), sources interleaved.
        let every: Vec<(NodeId, NodeId)> = (0..nodes)
            .flat_map(|d| (0..nodes).map(move |s| (NodeId(s), NodeId((s + d) % nodes))))
            .collect();
        let ripple = gen::ripple_like(300, Amount::from_xrp(100), &mut DetRng::new(3));
        let repays = (2 * ripple.channel_count()).div_ceil(SEARCH_ENTRIES);
        assert!((2..12).contains(&repays), "a tree repays {repays} pairs");
        // Source `s` has `s % 12` destinations, sources interleaved.
        let grouped: Vec<(NodeId, NodeId)> = (0..12)
            .flat_map(|i| {
                let sources = (0..300u32).filter(move |s| s % 12 > i);
                sources.map(move |s| (NodeId(s), NodeId((s + 7 * i + 1) % 300)))
            })
            .collect();
        for (t, mut pairs) in [(isp, every), (ripple, grouped)] {
            let distinct = pairs.len() as u64;
            // The first few again at the end.
            pairs.extend_from_within(..5);
            let (batched_table, lazy_table) = (PathTable::new(), PathTable::new());
            let (mut batched, mut lazy) = (PathCache::new(policy), PathCache::new(policy));
            batched.prefill(&t, &batched_table, &pairs);
            let interned = batched_table.len();
            for &(s, d) in &pairs {
                let want = lazy.get(&t, &lazy_table, s, d).to_vec();
                assert_eq!(
                    batched.get(&t, &batched_table, s, d),
                    want,
                    "{s}->{d} under {policy:?}"
                );
                for id in want {
                    assert_eq!(batched_table.entry(id), lazy_table.entry(id));
                }
            }
            assert_eq!(lazy_table.len(), interned);
            assert_eq!(
                batched_table.len(),
                interned,
                "gets after a prefill are lookups"
            );
            let counters = |c: &PathCache| c.counters().map(|(_, n)| n);
            assert_eq!(counters(&batched), [pairs.len() as u64, 0, distinct, 0]);
            assert_eq!(counters(&lazy), [5, distinct, 0, 0]);
        }
    }

    #[test]
    fn prefill_assigns_the_ids_of_gets_in_pair_order_edge_disjoint() {
        prefill_assigns_the_ids_of_gets_in_pair_order(PathPolicy::EdgeDisjoint(4));
    }

    #[test]
    fn prefill_assigns_the_ids_of_gets_in_pair_order_shortest() {
        prefill_assigns_the_ids_of_gets_in_pair_order(PathPolicy::Shortest);
    }

    /// A 300-node Ripple-like graph and pairs from 60 sources, each with
    /// up to six destinations, itself among them now and then — enough
    /// pairs that a fill fans across workers.
    fn ripple_pairs() -> (Topology, Vec<(NodeId, NodeId)>) {
        let t = gen::ripple_like(300, Amount::from_xrp(100), &mut DetRng::new(5));
        let pairs = (0..60u32)
            .flat_map(|s| (0..6).map(move |i| (NodeId(s * 5), NodeId((s * 5 + i * 37) % 300))))
            .collect();
        (t, pairs)
    }

    /// Two caches on one table — the shortest-path scheme's primary and
    /// its `EdgeDisjoint(2)` alternate, made with the primary's mask —
    /// share ids: the alternate's first candidate of a pair is the
    /// primary's path, under its id, whether the alternate fills in a
    /// batch or one pair at a time; only the second candidates are new.
    #[test]
    fn an_alternate_cache_reuses_the_primarys_ids() {
        let (t, pairs) = ripple_pairs();
        assert!(pairs.len() >= 256 && pairs.iter().any(|(s, d)| s == d));
        let table = PathTable::new();
        let mut primary = PathCache::new(PathPolicy::Shortest);
        primary.prefill(&t, &table, &pairs);
        let after_primary = table.len();
        let (half, rest) = pairs.split_at(pairs.len() / 2);
        let mut alternate = PathCache::with_mask_of(PathPolicy::EdgeDisjoint(2), &primary);
        alternate.prefill(&t, &table, half);
        let mut seconds = 0;
        for &(s, d) in half.iter().chain(rest) {
            let first = primary.get(&t, &table, s, d).to_vec();
            let alt = alternate.get(&t, &table, s, d).to_vec();
            if s == d {
                assert_eq!((first.len(), alt.len()), (1, 0), "{s}->{s}");
                continue;
            }
            assert_eq!(alt.first(), first.first(), "{s}->{d}");
            seconds += alt.len().saturating_sub(1);
        }
        // Each distinct second path is new to the table; nothing else is.
        let distinct: std::collections::BTreeSet<_> = pairs.iter().copied().collect();
        let mut resolved = PathCache::new(PathPolicy::EdgeDisjoint(2));
        let new_seconds = distinct
            .iter()
            .filter(|&&(s, d)| resolved.get(&t, &table, s, d).len() == 2)
            .count();
        assert!(seconds >= new_seconds && new_seconds > 0);
        assert_eq!(table.len(), after_primary + new_seconds);
    }

    /// A repair that finds a path the table holds — here every path a
    /// close retired, found again once the channels reopen — gets the
    /// path's old id, and interns nothing; self-pairs (a zero-hop path, or
    /// no candidate) come through every repair as they were.
    #[test]
    fn a_repair_that_refinds_a_retired_path_gets_its_old_id() {
        let (t, pairs) = ripple_pairs();
        for policy in [PathPolicy::EdgeDisjoint(4), PathPolicy::Shortest] {
            let table = PathTable::new();
            let mut c = PathCache::new(policy);
            c.prefill(&t, &table, &pairs);
            let ids = |c: &mut PathCache| -> Vec<Vec<PathId>> {
                let all = pairs.iter().map(|&(s, d)| c.get(&t, &table, s, d).to_vec());
                all.collect()
            };
            let before = ids(&mut c);
            // The first hop of every fifth pair's first candidate.
            let victims: Vec<ChannelId> = before
                .iter()
                .step_by(5)
                .filter_map(|held| Some(table.entry(*held.first()?).hops().first()?.channel()))
                .collect::<std::collections::BTreeSet<_>>()
                .into_iter()
                .collect();
            assert!(!victims.is_empty());
            let repaired = c.on_topology_change(&t, &table, &closing(&victims));
            assert!(!repaired.is_empty());
            assert_ne!(ids(&mut c), before, "{policy:?}: the close retired paths");
            let interned = table.len();
            c.on_topology_change(&t, &table, &opening(&victims));
            assert_eq!(ids(&mut c), before, "{policy:?}: old ids after the reopen");
            assert_eq!(table.len(), interned, "{policy:?}: nothing new interned");
            for (&(s, d), held) in pairs.iter().zip(&before) {
                if s == d {
                    let want = usize::from(policy == PathPolicy::Shortest);
                    assert_eq!(held.len(), want, "{policy:?}: {s}->{s}");
                }
            }
        }
    }

    /// Resolve a cache's candidates to node sequences for comparison
    /// across caches whose interning orders (and therefore PathIds) differ.
    fn resolved(
        cache: &mut PathCache,
        topo: &Topology,
        table: &PathTable,
        pairs: &[(NodeId, NodeId)],
    ) -> Vec<Vec<Vec<NodeId>>> {
        pairs
            .iter()
            .map(|&(s, d)| {
                cache
                    .get(topo, table, s, d)
                    .iter()
                    .map(|&id| table.entry(id).nodes().to_vec())
                    .collect()
            })
            .collect()
    }

    #[test]
    fn close_repair_equals_cold_rebuild_and_is_targeted() {
        let t = gen::isp_topology(Amount::from_xrp(100));
        let table = PathTable::new();
        let mut warm = PathCache::new(PathPolicy::EdgeDisjoint(4));
        let pairs: Vec<(NodeId, NodeId)> = (0..16u32)
            .flat_map(|s| [(NodeId(s), NodeId(s + 16)), (NodeId(s + 16), NodeId(s))])
            .collect();
        warm.prefill(&t, &table, &pairs);
        // Close one channel used by somebody's candidate set.
        let victim = table
            .entry(warm.get(&t, &table, pairs[0].0, pairs[0].1)[0])
            .hops()[0]
            .channel();
        let update = TopologyUpdate {
            closed: vec![victim],
            ..TopologyUpdate::default()
        };
        let repaired = warm.on_topology_change(&t, &table, &update);
        assert!(!repaired.is_empty(), "the traversed pair must be repaired");
        assert!(
            repaired.len() < pairs.len(),
            "a close must not invalidate everything ({} of {})",
            repaired.len(),
            pairs.len()
        );
        assert!(warm.channel_closed(victim));
        // Cold cache prewarmed on the final (masked) topology.
        let cold_table = PathTable::new();
        let mut cold = PathCache::new(PathPolicy::EdgeDisjoint(4));
        cold.on_topology_change(&t, &cold_table, &update);
        cold.prefill(&t, &cold_table, &pairs);
        assert_eq!(
            resolved(&mut warm, &t, &table, &pairs),
            resolved(&mut cold, &t, &cold_table, &pairs),
            "incremental repair must equal a cold rebuild"
        );
        // No repaired candidate traverses the closed channel.
        for &(s, d) in &pairs {
            for &id in warm.get(&t, &table, s, d) {
                assert!(table
                    .entry(id)
                    .hops()
                    .iter()
                    .all(|hop| hop.channel() != victim));
            }
        }
        // Reopen: only the pairs the channel can reach are refilled, and
        // everything returns to the unmasked answers.
        let update = TopologyUpdate {
            opened: vec![victim],
            ..TopologyUpdate::default()
        };
        let repaired = warm.on_topology_change(&t, &table, &update);
        assert!(!repaired.is_empty(), "the rerouted pair must be repaired");
        assert!(
            repaired.len() < pairs.len(),
            "an open must not invalidate everything ({} of {})",
            repaired.len(),
            pairs.len()
        );
        let fresh_table = PathTable::new();
        let mut fresh = PathCache::new(PathPolicy::EdgeDisjoint(4));
        fresh.prefill(&t, &fresh_table, &pairs);
        assert_eq!(
            resolved(&mut warm, &t, &table, &pairs),
            resolved(&mut fresh, &t, &fresh_table, &pairs),
        );
    }

    #[test]
    fn reverse_index_matches_full_scan_through_churn() {
        // The rev index must answer "which pairs traverse these channels"
        // identically to the full cache scan it replaced, across prefill,
        // lazy gets, repairs, and re-fills.
        let t = gen::isp_topology(Amount::from_xrp(100));
        let table = PathTable::new();
        let mut c = PathCache::new(PathPolicy::EdgeDisjoint(4));
        let pairs: Vec<(NodeId, NodeId)> =
            (0..12u32).map(|s| (NodeId(s), NodeId(31 - s))).collect();
        c.prefill(&t, &table, &pairs);
        let mut rng = spider_types::DetRng::new(21);
        let check = |c: &mut PathCache, table: &PathTable, probe: &[ChannelId]| {
            let mut indexed = c.pairs_traversing(&t, table, probe);
            let mut scanned = c.pairs_traversing_scan(table, probe);
            indexed.sort_unstable();
            scanned.sort_unstable();
            assert_eq!(indexed, scanned, "probe {probe:?}");
        };
        // Before any change the index does not exist yet; the first
        // question builds it from the prefilled cache.
        let all: Vec<ChannelId> = t.channels().map(|(id, _)| id).collect();
        check(&mut c, &table, &all);
        for round in 0..30 {
            let ch = ChannelId(rng.index(t.channel_count()) as u32);
            let update = if round % 3 == 2 && c.channel_closed(ch) {
                TopologyUpdate {
                    opened: vec![ch],
                    ..TopologyUpdate::default()
                }
            } else {
                TopologyUpdate {
                    closed: vec![ch],
                    ..TopologyUpdate::default()
                }
            };
            c.on_topology_change(&t, &table, &update);
            // A lazily cached pair joins the index too.
            let s = rng.index(32) as u32;
            let d = (s + 1 + rng.index(30) as u32) % 32;
            c.get(&t, &table, NodeId(s), NodeId(d));
            let probe: Vec<ChannelId> = (0..3)
                .map(|_| ChannelId(rng.index(t.channel_count()) as u32))
                .collect();
            check(&mut c, &table, &probe);
        }
    }

    #[test]
    fn counters_track_hits_misses_prefills_and_repairs() {
        let t = gen::isp_topology(Amount::from_xrp(100));
        let table = PathTable::new();
        let mut c = PathCache::new(PathPolicy::EdgeDisjoint(4));
        c.get(&t, &table, NodeId(0), NodeId(9));
        c.get(&t, &table, NodeId(0), NodeId(9));
        c.get(&t, &table, NodeId(9), NodeId(0));
        c.prefill(
            &t,
            &table,
            &[(NodeId(0), NodeId(9)), (NodeId(1), NodeId(8))],
        );
        let victim = table
            .entry(c.get(&t, &table, NodeId(0), NodeId(9))[0])
            .hops()[0]
            .channel();
        let update = TopologyUpdate {
            closed: vec![victim],
            ..TopologyUpdate::default()
        };
        let repaired = c.on_topology_change(&t, &table, &update).len() as u64;
        let counters: std::collections::BTreeMap<&str, u64> = c.counters().into_iter().collect();
        assert_eq!(counters["path_cache_misses"], 2);
        // The repeat get plus the victim-lookup get above.
        assert_eq!(counters["path_cache_hits"], 2);
        assert_eq!(counters["path_cache_prefilled"], 1, "cached pair skipped");
        assert_eq!(counters["path_cache_repairs"], repaired);
        assert!(repaired > 0);
    }

    #[test]
    fn resize_invalidates_nothing() {
        let t = gen::isp_topology(Amount::from_xrp(100));
        let table = PathTable::new();
        let mut c = PathCache::new(PathPolicy::EdgeDisjoint(3));
        c.get(&t, &table, NodeId(1), NodeId(9));
        let update = TopologyUpdate {
            resized: vec![ChannelId(0), ChannelId(3)],
            ..TopologyUpdate::default()
        };
        assert!(c.on_topology_change(&t, &table, &update).is_empty());
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn lazy_get_respects_the_mask() {
        // A pair first requested *after* a close must be computed on the
        // masked graph, for every policy.
        let t = gen::isp_topology(Amount::from_xrp(100));
        for policy in [PathPolicy::EdgeDisjoint(4), PathPolicy::Shortest] {
            let table = PathTable::new();
            let mut c = PathCache::new(policy);
            // Close every channel incident to node 5's first neighbor hop
            // on the 0→5 shortest path, forcing a different route.
            let sp = t.shortest_path(NodeId(0), NodeId(5)).unwrap();
            let first_hop = t.channel_between(sp[0], sp[1]).unwrap();
            let update = TopologyUpdate {
                closed: vec![first_hop],
                ..TopologyUpdate::default()
            };
            c.on_topology_change(&t, &table, &update);
            for &id in c.get(&t, &table, NodeId(0), NodeId(5)) {
                assert!(
                    table
                        .entry(id)
                        .hops()
                        .iter()
                        .all(|hop| hop.channel() != first_hop),
                    "{policy:?} lazily computed a path over a closed channel"
                );
            }
        }
    }

    /// The update that closes `channels`.
    fn closing(channels: &[ChannelId]) -> TopologyUpdate {
        TopologyUpdate {
            closed: channels.to_vec(),
            ..TopologyUpdate::default()
        }
    }

    /// The update that opens `channels`.
    fn opening(channels: &[ChannelId]) -> TopologyUpdate {
        TopologyUpdate {
            opened: channels.to_vec(),
            ..TopologyUpdate::default()
        }
    }

    /// The index against a recount from the cache: a channel's current entries
    /// are exactly the hops the cached candidates put on it, and its live
    /// count is their number.
    fn assert_index_mirrors_cache(c: &PathCache, topo: &Topology, table: &PathTable) {
        let Some(rev) = c.rev.as_ref() else { return };
        let slots = &c.cached.slots;
        let mut hops: Vec<Vec<(u32, u32)>> = vec![Vec::new(); topo.channel_count()];
        for (slot, entry) in (0..).zip(slots) {
            c.cached
                .each_hop(table, slot, |ch| hops[ch].push((slot, entry.gen)));
        }
        for (ch, mut hops) in hops.into_iter().enumerate() {
            let current = |&&(s, g): &&(u32, u32)| slots[s as usize].gen == g;
            let mut indexed: Vec<_> = rev.entries(ch).iter().filter(current).copied().collect();
            indexed.sort_unstable();
            hops.sort_unstable();
            assert_eq!(indexed, hops, "channel {ch}");
            assert_eq!(rev.live(ch) as usize, hops.len(), "channel {ch} live count");
        }
    }

    /// One random churn history: after every update the index answers as
    /// the full scan does, mirrors the cache, and the cache resolves to
    /// what a cold cache built on the final graph resolves to.
    fn churn_case(seed: u64, nodes: usize, policy: PathPolicy, ops: &[(u8, u64)]) {
        let mut rng = spider_types::DetRng::new(seed);
        let t = gen::erdos_renyi(nodes, 0.35, Amount::from_xrp(100), &mut rng);
        let channels: Vec<ChannelId> = t.channels().map(|(id, _)| id).collect();
        if channels.is_empty() {
            return;
        }
        let n = nodes as u32;
        let all_pairs = (0..n).flat_map(|s| (0..n).map(move |d| (NodeId(s), NodeId(d))));
        let all_pairs: Vec<_> = all_pairs.filter(|(s, d)| s != d).collect();
        // Half prewarmed, the rest left to lazy gets between updates.
        let table = PathTable::new();
        let mut warm = PathCache::new(policy);
        warm.prefill(&t, &table, &all_pairs[..all_pairs.len() / 2]);
        for &(op, pick) in ops {
            let pick = pick as usize;
            let (open, shut): (Vec<_>, Vec<_>) =
                channels.iter().partition(|&&c| !warm.channel_closed(c));
            let nth = |of: &[ChannelId], i: usize| of.get((pick + i) % of.len().max(1)).copied();
            let mut update = TopologyUpdate::default();
            match op {
                0 => update.closed.extend(nth(&open, 0)),
                1 => update.opened.extend(nth(&shut, 0).or(nth(&open, 0))),
                2 => {
                    update.closed.extend(nth(&open, 0));
                    update
                        .closed
                        .extend(nth(&open, 1).filter(|c| !update.closed.contains(c)));
                    update.opened.extend(nth(&shut, 0));
                    update
                        .opened
                        .extend(nth(&shut, 1).filter(|c| !update.opened.contains(c)));
                }
                _ => {
                    let (s, d) = all_pairs[pick % all_pairs.len()];
                    warm.get(&t, &table, s, d);
                }
            }
            // An "open" of a channel that is open already is a close: the
            // history still changes something.
            if op == 1 && shut.is_empty() {
                std::mem::swap(&mut update.closed, &mut update.opened);
            }
            let repaired = warm.on_topology_change(&t, &table, &update);
            assert!(repaired.windows(2).all(|w| w[0] < w[1]), "sorted, distinct");
            assert_eq!(warm.cached.slots.len(), warm.cached.slot_of.len());
            assert_index_mirrors_cache(&warm, &t, &table);
            for probe in channels
                .iter()
                .map(std::slice::from_ref)
                .chain([&channels[..]])
            {
                let mut indexed = warm.pairs_traversing(&t, &table, probe);
                let mut scanned = warm.pairs_traversing_scan(&table, probe);
                indexed.sort_unstable();
                scanned.sort_unstable();
                assert_eq!(indexed, scanned, "{policy:?} probe {probe:?}");
            }
            assert_index_mirrors_cache(&warm, &t, &table);
            // Cold: the same pairs on the final mask, nothing repaired.
            let cached: Vec<_> = warm.cached.slots.iter().map(|slot| slot.pair).collect();
            let cold_table = PathTable::new();
            let mut cold = PathCache::new(policy);
            let shut: Vec<_> = channels
                .iter()
                .copied()
                .filter(|&c| warm.channel_closed(c))
                .collect();
            let mask = closing(&shut);
            cold.on_topology_change(&t, &cold_table, &mask);
            cold.prefill(&t, &cold_table, &cached);
            assert_eq!(
                resolved(&mut warm, &t, &table, &cached),
                resolved(&mut cold, &t, &cold_table, &cached),
                "{policy:?} after {update:?}"
            );
        }
    }

    proptest::proptest! {
        /// Random small graphs under random close / open / reopen /
        /// batched-mixed histories with lazy gets in between, for every
        /// policy.
        #[test]
        fn index_and_candidates_survive_random_churn(
            seed in 0u64..u64::MAX,
            nodes in 5usize..12,
            policy in 0usize..2,
            ops in proptest::collection::vec((0u8..4, 0u64..u64::MAX), 1..16),
        ) {
            let policy = [PathPolicy::EdgeDisjoint(3), PathPolicy::Shortest][policy];
            churn_case(seed, nodes, policy, &ops);
        }
    }

    /// A topology of `nodes` nodes with the given channels, in order.
    fn graph(nodes: usize, edges: &[(u32, u32)]) -> Topology {
        let mut b = spider_topology::Topology::builder(nodes);
        for &(u, v) in edges {
            b.channel(NodeId(u), NodeId(v), Amount::from_xrp(1))
                .unwrap();
        }
        b.build()
    }

    /// A cache of `policy` holding `pair` while the first of `edges` is
    /// closed, after that channel opens — checked against a cold fill —
    /// and the pairs the open re-searched.
    fn reopened(
        edges: &[(u32, u32)],
        policy: PathPolicy,
        pair: (NodeId, NodeId),
    ) -> (PathCache, Vec<(NodeId, NodeId)>) {
        let t = &graph(10, edges);
        let (u, v) = edges[0];
        let shut = [t.channel_between(NodeId(u), NodeId(v)).expect("listed")];
        let table = PathTable::new();
        let mut warm = PathCache::new(policy);
        warm.on_topology_change(t, &table, &closing(&shut));
        warm.get(t, &table, pair.0, pair.1);
        let repaired = warm.on_topology_change(t, &table, &opening(&shut));
        let cold_table = PathTable::new();
        let mut cold = PathCache::new(policy);
        assert_eq!(
            resolved(&mut warm, t, &table, &[pair]),
            resolved(&mut cold, t, &cold_table, &[pair]),
        );
        (warm, repaired)
    }

    /// (The channel each case opens is listed first.)
    ///
    /// The open rule's bound is strict: a route through the new channel
    /// exactly as long as a candidate can be lex-smaller than it. Here
    /// `0→9` holds `0-1-9` and `0-5-6-9`; opening `2-3` adds `0-2-3-9`,
    /// which cannot displace the 2-hop first candidate (`B₀ = 3`) but ties
    /// the second (`B₁ = 3 = L₁`) and wins on node order — so the pair
    /// resumes at its second candidate.
    #[test]
    fn a_detour_that_ties_a_candidate_displaces_it() {
        let pair = (NodeId(0), NodeId(9));
        let ties = [
            (2, 3),
            (0, 1),
            (1, 9),
            (0, 2),
            (3, 9),
            (0, 5),
            (5, 6),
            (6, 9),
        ];
        let (warm, repaired) = reopened(&ties, PathPolicy::EdgeDisjoint(2), pair);
        assert_eq!(repaired, [pair]);
        assert_eq!(warm.decided.resumed_late, 1, "resumed after the first");
        // Opening `1-3` instead reaches the pair as closely (`D = 3`), but
        // only over the first candidate's own channels: the second search
        // has them banned, and `B₁ = 5`. Nothing is searched.
        let banned = [(1, 3), (0, 1), (1, 9), (3, 9), (0, 5), (5, 6), (6, 9)];
        let (warm, repaired) = reopened(&banned, PathPolicy::EdgeDisjoint(2), pair);
        assert!(repaired.is_empty(), "kept whole: {repaired:?}");
        assert_eq!(warm.decided.kept_by_bound, 1);
    }

    /// A pair with fewer candidates than asked for had a search fail; an
    /// open that links its endpoints anew rescues it however long the new
    /// route is — unless an endpoint has no live channel left to spend.
    #[test]
    fn an_open_rescues_a_failed_search() {
        let pair = (NodeId(0), NodeId(9));
        let rescued = [(2, 3), (0, 1), (1, 9), (0, 2), (3, 4), (4, 9)];
        let (warm, repaired) = reopened(&rescued, PathPolicy::EdgeDisjoint(3), pair);
        assert_eq!(repaired, [pair]);
        assert_eq!(warm.decided.resumed_late, 1, "resumed after the kept one");
        assert_eq!(warm.cached.slots[0].count, 2);
        // `9` has one channel, spent on the first candidate: exhausted.
        let exhausted = [(2, 3), (0, 1), (1, 9), (0, 2), (3, 4), (4, 1)];
        let (_, repaired) = reopened(&exhausted, PathPolicy::EdgeDisjoint(3), pair);
        assert!(
            repaired.is_empty(),
            "an exhausted pair is kept: {repaired:?}"
        );
    }

    /// The schedule of the churn experiment (closes, reopens, resizes,
    /// node leaves and joins, channels spawning, flaps) on the 300-node
    /// Ripple-like graph whose outcomes the churn tests pin, replayed
    /// event by event through a cache prefilled with the workload's pairs:
    /// after every event the cache is what a cold fill on the live mask
    /// answers. The small random graphs above rarely resume past a
    /// candidate or keep a reached pair by the bound; this must do both.
    #[test]
    fn a_real_schedule_at_hub_scale_repairs_to_a_cold_fill() {
        use spider_dynamics::{ChurnSchedule, DynamicsConfig};
        use spider_sim::{Workload, WorkloadConfig};
        use spider_types::{DetRng, SimTime, TopologyChange};
        let rng = DetRng::new(11);
        let raw = gen::ripple_like(300, Amount::from_xrp(150), &mut rng.fork("topology"));
        let t = spider_topology::analysis::largest_component(&raw);
        let arrivals = WorkloadConfig::small(1_500, 300.0);
        let workload = Workload::generate(t.node_count(), &arrivals, &mut rng.fork("workload"));
        let pairs = workload.distinct_pairs(None);
        let dynamics = DynamicsConfig {
            close_rate_per_sec: 1.0,
            reopen_mean_secs: Some(1.5),
            resize_rate_per_sec: 0.5,
            node_leave_rate_per_sec: 0.2,
            spawn_fraction: 0.05,
            flap_channels: 2,
            flap_period_secs: 2.0,
            horizon_secs: 5.0,
            ..DynamicsConfig::default()
        };
        let schedule = ChurnSchedule::generate(&t, &dynamics, &mut rng.fork("dynamics"))
            .expect("the schedule generates");
        // The updates the engine hands the router: the `t = 0` slice as
        // one, then one per later event that changes anything.
        let mut closed = vec![false; t.channel_count()];
        let mut updates = vec![TopologyUpdate::default()];
        for event in &schedule.events {
            if event.at > SimTime::ZERO {
                updates.push(TopologyUpdate::default());
            }
            let last = updates.len() - 1;
            let update = &mut updates[last];
            let mut set = |c: ChannelId, close: bool| {
                if std::mem::replace(&mut closed[c.index()], close) != close {
                    let changed = if close {
                        &mut update.closed
                    } else {
                        &mut update.opened
                    };
                    changed.push(c);
                }
            };
            match event.change {
                TopologyChange::ChannelClose { channel } => set(channel, true),
                TopologyChange::ChannelOpen { channel } => set(channel, false),
                TopologyChange::ChannelResize { channel, .. } => update.resized.push(channel),
                TopologyChange::NodeLeave { node } | TopologyChange::NodeJoin { node } => {
                    let close = matches!(event.change, TopologyChange::NodeLeave { .. });
                    for adj in t.neighbors(node) {
                        set(adj.channel, close);
                    }
                }
            }
        }
        let table = PathTable::new();
        let mut warm = PathCache::new(PathPolicy::EdgeDisjoint(4));
        warm.on_topology_change(&t, &table, &updates[0]);
        warm.prefill(&t, &table, &pairs);
        let later: Vec<_> = updates[1..].iter().filter(|u| !u.is_empty()).collect();
        assert!(later.len() > 40, "{} events", later.len());
        for update in later {
            warm.on_topology_change(&t, &table, update);
            assert_index_mirrors_cache(&warm, &t, &table);
            let shut = t
                .channels()
                .map(|(c, _)| c)
                .filter(|&c| warm.channel_closed(c));
            let shut: Vec<_> = shut.collect();
            let cold_table = PathTable::new();
            let mut cold = PathCache::new(PathPolicy::EdgeDisjoint(4));
            cold.on_topology_change(&t, &cold_table, &closing(&shut));
            cold.prefill(&t, &cold_table, &pairs);
            assert_eq!(
                resolved(&mut warm, &t, &table, &pairs),
                resolved(&mut cold, &t, &cold_table, &pairs),
                "after {update:?}"
            );
        }
        let decided = &warm.decided;
        assert!(
            decided.resumed_late > 0,
            "no pair resumed past its first candidate"
        );
        assert!(
            decided.kept_by_bound > 0,
            "the bound kept no reached pair whole"
        );
    }

    /// 200 close/reopen cycles of the busiest channel: index memory
    /// follows the cache, not the number of repairs. Every pair through
    /// the hub changes candidates twice a cycle (its slot's generation
    /// counts them), yet no channel's entry list outgrows the members it
    /// has had at once (a leave sweeps nothing, so the bound is on the
    /// high-water mark) and the slot table stays one slot a pair.
    #[test]
    fn index_memory_follows_the_cache_not_the_repairs() {
        let t = gen::isp_topology(Amount::from_xrp(100));
        let table = PathTable::new();
        let mut c = PathCache::new(PathPolicy::EdgeDisjoint(4));
        let n = t.node_count() as u32;
        let pairs: Vec<_> = (0..n)
            .flat_map(|s| (0..n).map(move |d| (NodeId(s), NodeId(d))))
            .filter(|(s, d)| s != d)
            .collect();
        c.prefill(&t, &table, &pairs);
        let channels: Vec<ChannelId> = t.channels().map(|(id, _)| id).collect();
        let members = |c: &mut PathCache, ch| c.pairs_traversing(&t, &table, &[ch]).len();
        let hub = channels
            .iter()
            .copied()
            .max_by_key(|&ch| members(&mut c, ch));
        let hub = hub.expect("the ISP graph has channels");
        let through_hub = c.pairs_traversing(&t, &table, &[hub]);
        assert!(
            through_hub.len() > pairs.len() / 8,
            "a hub carries many pairs"
        );
        let built = c.rev.as_ref().expect("built by the question");
        let mut most_members: Vec<u32> = (0..channels.len()).map(|ch| built.live(ch)).collect();
        let mut interned = 0;
        for cycle in 0..200 {
            for update in [closing(&[hub]), opening(&[hub])] {
                let repaired = c.on_topology_change(&t, &table, &update);
                assert!(through_hub.iter().all(|pair| repaired.contains(pair)));
                let rev = c.rev.as_ref().expect("built by the first close");
                for (ch, most) in most_members.iter_mut().enumerate() {
                    *most = rev.live(ch).max(*most);
                    let (kept, most) = (rev.entries(ch).len(), *most as usize);
                    assert!(
                        kept <= 16.max(2 * most + 1),
                        "cycle {cycle}: channel {ch} keeps {kept} entries for {most} members"
                    );
                }
            }
            if cycle == 0 {
                interned = table.len();
            }
        }
        assert_eq!(table.len(), interned, "later cycles intern nothing new");
        assert_index_mirrors_cache(&c, &t, &table);
        assert_eq!(c.cached.slots.len(), pairs.len());
        assert_eq!(c.cached.slot_of.len(), pairs.len());
        assert_eq!(c.cached.ids.len(), pairs.len() * 4);
        let gen_of = |pair| c.cached.slots[c.cached.slot_of[pair] as usize].gen;
        assert!(through_hub.iter().all(|pair| gen_of(pair) > 400));
        let untouched = pairs.iter().filter(|&pair| gen_of(pair) == 1).count();
        assert!(untouched > 0, "a pair the hub cannot reach is filled once");
    }
}
