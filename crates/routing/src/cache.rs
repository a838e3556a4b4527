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
//! repairs itself **incrementally**, dropping and refilling only the
//! pairs whose answer the oracle could now give differently:
//!
//! * a channel **close** drops the pairs whose cached candidates traverse
//!   it (removing an edge no candidate uses provably cannot change any
//!   oracle's answer — see the module tests);
//! * a channel **open** drops the pairs the new edge can reach: those
//!   with an `s–t` route through it no longer than their longest cached
//!   candidate, or with fewer candidates than the policy asks for (the
//!   exact rule and its argument are on
//!   [`PathCache::on_topology_change`]);
//! * a capacity **resize** drops nothing (the oracles are
//!   hop-count-based).
//!
//! Dropped pairs are batch-refilled through
//! [`PathOracle`](crate::PathOracle) over one retained
//! [`CsrGraph`] whose channels are enabled/disabled in O(1) per event —
//! the graph is flattened exactly once per cache lifetime.

use crate::oracle::{FilledPaths, PathOracle};
use spider_lp::paths::CsrGraph;
use spider_sim::{PathTable, TopologyUpdate};
use spider_topology::Topology;
use spider_types::{ChannelId, NodeId, PathId};
use std::collections::{HashMap, HashSet};

/// Candidate-set policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PathPolicy {
    /// k edge-disjoint shortest paths (the paper's evaluation setting).
    EdgeDisjoint(usize),
    /// Yen's k shortest loopless paths.
    KShortest(usize),
    /// The single BFS shortest path (the packet-switched baseline).
    Shortest,
}

/// Per-pair candidate paths, batch-filled and churn-repairable.
#[derive(Debug, Clone)]
pub struct PathCache {
    policy: PathPolicy,
    cache: HashMap<(NodeId, NodeId), Vec<PathId>>,
    /// Channels currently closed by churn (`true` = closed). Empty until
    /// the first topology change.
    closed: Vec<bool>,
    /// The retained flattened graph, built on first batched fill and kept
    /// in sync with `closed` through O(1) channel toggles.
    csr: Option<CsrGraph>,
    /// Reverse index: `rev[c]` = the cached pairs with a candidate
    /// traversing channel `c`. A close then invalidates exactly
    /// `∪ rev[closed]` instead of scanning every cached pair's candidates
    /// — the difference between O(affected) and O(pairs × k × hops) per
    /// event at Ripple scale. `None` until something asks for it (the
    /// first connectivity change): a static network never pays for it.
    rev: Option<Vec<HashSet<(NodeId, NodeId)>>>,
    /// Lifetime counters surfaced through [`PathCache::counters`].
    hits: u64,
    misses: u64,
    prefilled: u64,
    repairs: u64,
}

impl PathCache {
    /// Empty cache with the given policy.
    pub fn new(policy: PathPolicy) -> Self {
        PathCache {
            policy,
            cache: HashMap::new(),
            closed: Vec::new(),
            csr: None,
            rev: None,
            hits: 0,
            misses: 0,
            prefilled: 0,
            repairs: 0,
        }
    }

    /// Empty cache with the given policy that starts from `other`'s
    /// channel-liveness mask — for a cache created mid-run, which would
    /// otherwise only hear about topology changes made after its creation.
    pub fn with_mask_of(policy: PathPolicy, other: &PathCache) -> Self {
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
        let pair = (src, dst);
        if self.cache.contains_key(&pair) {
            self.hits += 1;
        } else {
            self.misses += 1;
            self.fill_pairs(topo, paths, &[pair]);
        }
        &self.cache[&pair]
    }

    /// Adds `pair` to the reverse index of every channel its candidates
    /// traverse.
    fn register(
        rev: &mut [HashSet<(NodeId, NodeId)>],
        paths: &PathTable,
        pair: (NodeId, NodeId),
        ids: &[PathId],
    ) {
        for &id in ids {
            for &(c, _) in paths.entry(id).hops() {
                rev[c.index()].insert(pair);
            }
        }
    }

    /// Removes `pair` (with candidate set `ids`) from the reverse index.
    fn unregister(
        rev: &mut [HashSet<(NodeId, NodeId)>],
        paths: &PathTable,
        pair: (NodeId, NodeId),
        ids: &[PathId],
    ) {
        for &id in ids {
            for &(c, _) in paths.entry(id).hops() {
                rev[c.index()].remove(&pair);
            }
        }
    }

    /// The reverse index, built from the whole cache on first use and
    /// kept current by every later insertion and removal.
    fn rev_index<'a>(
        rev: &'a mut Option<Vec<HashSet<(NodeId, NodeId)>>>,
        cache: &HashMap<(NodeId, NodeId), Vec<PathId>>,
        topo: &Topology,
        paths: &PathTable,
    ) -> &'a mut [HashSet<(NodeId, NodeId)>] {
        rev.get_or_insert_with(|| {
            let mut rev = vec![HashSet::new(); topo.channel_count()];
            // lint: allow(unordered-iter): set insertions commute.
            for (&pair, ids) in cache {
                Self::register(&mut rev, paths, pair, ids);
            }
            rev
        })
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
    /// [`PathOracle`](crate::PathOracle) — one BFS tree and one reusable
    /// workspace per source, sources fanned across worker threads — then
    /// interned into `paths` on this thread in pair order (first
    /// occurrence wins; already-cached pairs are skipped). Filling pairs
    /// one at a time through [`PathCache::get`] yields the same candidate
    /// sets and, in the same order, the same `PathId`s.
    pub fn prefill(&mut self, topo: &Topology, paths: &PathTable, pairs: &[(NodeId, NodeId)]) {
        let todo: Vec<(NodeId, NodeId)> = {
            let mut queued = HashSet::with_capacity(pairs.len());
            let fresh =
                |pair: &(NodeId, NodeId)| !self.cache.contains_key(pair) && queued.insert(*pair);
            pairs.iter().copied().filter(fresh).collect()
        };
        if todo.is_empty() {
            return;
        }
        self.prefilled += todo.len() as u64;
        let filled = self.compute(topo, &todo);
        // The one batch big enough to be worth sizing for. (Repairs are
        // many and small: reserving for each only raises the peak.)
        paths.reserve(filled.path_count());
        self.cache.reserve(todo.len());
        self.adopt(topo, paths, &todo, &filled);
    }

    /// Batch-fills `todo` (must not already be cached) and interns the
    /// results in pair order.
    fn fill_pairs(&mut self, topo: &Topology, paths: &PathTable, todo: &[(NodeId, NodeId)]) {
        if !todo.is_empty() {
            let filled = self.compute(topo, todo);
            self.adopt(topo, paths, todo, &filled);
        }
    }

    /// The candidate sets of `todo` on the retained CSR graph, i.e. under
    /// the current channel-liveness mask.
    fn compute(&mut self, topo: &Topology, todo: &[(NodeId, NodeId)]) -> FilledPaths {
        let csr = Self::synced_csr(&mut self.csr, topo, &self.closed);
        PathOracle::with_csr(csr, self.policy).fill(todo)
    }

    /// Interns `filled` (the candidate sets of `todo`) — one pass over
    /// every candidate of every pair, hops as the search found them — and
    /// caches each pair's slice of the ids.
    fn adopt(
        &mut self,
        topo: &Topology,
        paths: &PathTable,
        todo: &[(NodeId, NodeId)],
        filled: &FilledPaths,
    ) {
        let ids = paths.intern_batch(topo, filled.paths());
        let mut cursor = ids.into_iter();
        for (&pair, count) in todo.iter().zip(filled.counts()) {
            let ids: Vec<_> = cursor.by_ref().take(count).collect();
            if let Some(rev) = self.rev.as_mut() {
                Self::register(rev, paths, pair, &ids);
            }
            self.cache.insert(pair, ids);
        }
    }

    /// Repairs the cache after a topology-churn event: updates the
    /// channel-liveness mask (O(1) toggles on the retained CSR graph),
    /// drops exactly the pairs whose candidate sets may have changed, and
    /// batch-refills them. Returns the repaired pairs (sorted, so callers
    /// migrating per-path state iterate deterministically).
    ///
    /// Invalidation rules, each exact for the hop-count oracles (a pair
    /// that is kept would have been refilled to the same node sequences):
    ///
    /// * **close** — only pairs whose cached candidates traverse a closed
    ///   channel: removing an edge used by no candidate leaves every
    ///   successively-chosen lex-min path both feasible and minimal, so
    ///   the oracle's answer is unchanged;
    /// * **open** — with candidates `P₁..P_m` of `L₁ ≤ … ≤ L_m` hops under
    ///   a policy asking for `k`, and `D` the hop count of the shortest
    ///   `s–t` walk through an opened channel `(u, v)`, measured on the
    ///   graph *after* the update as
    ///   `min(d(s,u) + 1 + d(v,t), d(s,v) + 1 + d(u,t))`: only pairs with
    ///   `D ≤ L_m`, or with `m < k` and `D` finite. Every path through the
    ///   new edge has at least `D` hops, so when `D > L_m` the `i`-th
    ///   lex-min search still sees the same set of `≤ L_i`-hop paths in
    ///   its residual graph and returns the same `P_i`; only a search
    ///   that had *failed* (`m < k`) can be rescued by a longer route.
    ///   For [`PathPolicy::EdgeDisjoint`] that search stays failed when
    ///   `s` or `t` already spends every live channel on `P₁..P_m` (live
    ///   degree `= m`) — the oracle's own pruning — so such pairs are kept;
    /// * **resize** — nothing: candidate selection ignores capacity.
    ///
    /// An update carrying both applies the close rule to the cached
    /// candidates and the open rule on the final graph. Cost beyond the
    /// refills: two BFS and one pass over the cached pairs per opened
    /// channel, `O(opened × (E + cached pairs))`.
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
        let mut dropped = self.pairs_traversing(topo, paths, &update.closed);
        dropped.extend(self.pairs_reached_by(topo, paths, &update.opened));
        // Set/map iteration order is arbitrary; sort so the refill (and
        // therefore PathId interning) order is deterministic.
        dropped.sort_unstable();
        dropped.dedup();
        self.repairs += dropped.len() as u64;
        let rev = Self::rev_index(&mut self.rev, &self.cache, topo, paths);
        for pair in &dropped {
            if let Some(ids) = self.cache.remove(pair) {
                Self::unregister(rev, paths, *pair, &ids);
            }
        }
        self.fill_pairs(topo, paths, &dropped);
        dropped
    }

    /// The cached pairs whose candidate set one of the `opened` channels
    /// (already live in the mask) may change — the open rule of
    /// [`PathCache::on_topology_change`]. Unsorted.
    fn pairs_reached_by(
        &mut self,
        topo: &Topology,
        paths: &PathTable,
        opened: &[ChannelId],
    ) -> Vec<(NodeId, NodeId)> {
        if opened.is_empty() || self.cache.is_empty() {
            return Vec::new();
        }
        let (k, disjoint) = match self.policy {
            PathPolicy::EdgeDisjoint(k) => (k, true),
            PathPolicy::KShortest(k) => (k, false),
            PathPolicy::Shortest => (1, false),
        };
        let csr = Self::synced_csr(&mut self.csr, topo, &self.closed);
        // lint: allow(unordered-iter): audited — the caller sorts the
        // pairs before refilling.
        let entries: Vec<(&(NodeId, NodeId), &Vec<PathId>)> = self.cache.iter().collect();
        // Per entry: hops of the shortest s–t walk through any opened
        // channel (`None` = no such walk).
        let mut detour: Vec<Option<u32>> = vec![None; entries.len()];
        let at = |dist: &[Option<u32>], n: NodeId| dist.get(n.index()).copied().flatten();
        let through = |near: Option<u32>, far: Option<u32>| Some(near? + 1 + far?);
        for &c in opened {
            let ch = topo.channel(c);
            let (from_u, from_v) = (csr.hop_distances(ch.u), csr.hop_distances(ch.v));
            for (best, (&(s, t), _)) in detour.iter_mut().zip(&entries) {
                *best = [
                    *best,
                    through(at(&from_u, s), at(&from_v, t)),
                    through(at(&from_v, s), at(&from_u, t)),
                ]
                .into_iter()
                .flatten()
                .min();
            }
        }
        entries
            .into_iter()
            .zip(detour)
            .filter_map(|((&(s, t), ids), detour)| {
                let detour = detour? as usize;
                let m = ids.len();
                let displaces = ids
                    .last()
                    .is_some_and(|&longest| detour <= paths.entry(longest).hops().len());
                let exhausted = disjoint && (csr.live_degree(s) == m || csr.live_degree(t) == m);
                (displaces || (m < k && !exhausted)).then_some((s, t))
            })
            .collect()
    }

    /// The cached pairs with a candidate traversing any of `channels`,
    /// answered from the reverse index in O(affected) — unsorted. The
    /// first call builds the index from the cache.
    pub(crate) fn pairs_traversing(
        &mut self,
        topo: &Topology,
        paths: &PathTable,
        channels: &[ChannelId],
    ) -> Vec<(NodeId, NodeId)> {
        let rev = Self::rev_index(&mut self.rev, &self.cache, topo, paths);
        let mut seen: HashSet<(NodeId, NodeId)> = HashSet::new();
        for set in channels.iter().filter_map(|c| rev.get(c.index())) {
            seen.extend(set.iter().copied());
        }
        // lint: allow(unordered-iter): audited — the one non-test caller
        // (`on_topology_change`) sorts the pairs before refilling, and the
        // equivalence tests compare as sets.
        seen.into_iter().collect()
    }

    /// Reference implementation of [`PathCache::pairs_traversing`]: the
    /// full cache scan the reverse index replaced — unsorted.
    #[cfg(test)]
    fn pairs_traversing_scan(
        &self,
        paths: &PathTable,
        channels: &[ChannelId],
    ) -> Vec<(NodeId, NodeId)> {
        // lint: allow(unordered-iter): audited — compared as a set.
        self.cache
            .iter()
            .filter(|(_, ids)| {
                ids.iter().any(|&id| {
                    paths
                        .entry(id)
                        .hops()
                        .iter()
                        .any(|&(c, _)| channels.contains(&c))
                })
            })
            .map(|(&pair, _)| pair)
            .collect()
    }

    /// True when `channel` is currently closed in this cache's mask.
    pub fn channel_closed(&self, channel: ChannelId) -> bool {
        self.closed.get(channel.index()).copied().unwrap_or(false)
    }

    /// Number of cached pairs.
    pub fn len(&self) -> usize {
        self.cache.len()
    }

    /// True when nothing has been cached yet.
    pub fn is_empty(&self) -> bool {
        self.cache.is_empty()
    }

    /// Lifetime counters, in a fixed order suitable for
    /// [`RouterObs::counters`](spider_sim::RouterObs): cache hits (get on
    /// a cached pair), misses (one-pair fills), pairs filled by
    /// [`PathCache::prefill`], and pairs repaired after churn.
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
    use spider_topology::gen;
    use spider_types::Amount;

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
        let mut yen = PathCache::new(PathPolicy::KShortest(4));
        let d = dis.get(&t, &table, NodeId(0), NodeId(7)).to_vec();
        let y = yen.get(&t, &table, NodeId(0), NodeId(7)).to_vec();
        assert_eq!(d.len(), 4);
        assert_eq!(y.len(), 4);
        // Yen's set may share edges; the disjoint set may not.
        let mut used = std::collections::HashSet::new();
        for id in &d {
            for &(c, _) in table.entry(*id).hops() {
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
    /// on a pair list long enough that the fill fans across workers and
    /// the interning order is *not* the order paths were computed in.
    fn prefill_assigns_the_ids_of_gets_in_pair_order(policy: PathPolicy) {
        let t = gen::isp_topology(Amount::from_xrp(100));
        let nodes = t.node_count() as u32;
        // Every ordered pair (self-pairs too), sources interleaved, and
        // the first few repeated at the end.
        let mut pairs: Vec<(NodeId, NodeId)> = (0..nodes)
            .flat_map(|d| (0..nodes).map(move |s| (NodeId(s), NodeId((s + d) % nodes))))
            .collect();
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
        let distinct = (nodes * nodes) as u64;
        assert_eq!(counters(&batched), [pairs.len() as u64, 0, distinct, 0]);
        assert_eq!(counters(&lazy), [5, distinct, 0, 0]);
    }

    #[test]
    fn prefill_assigns_the_ids_of_gets_in_pair_order_edge_disjoint() {
        prefill_assigns_the_ids_of_gets_in_pair_order(PathPolicy::EdgeDisjoint(4));
    }

    #[test]
    fn prefill_assigns_the_ids_of_gets_in_pair_order_k_shortest() {
        prefill_assigns_the_ids_of_gets_in_pair_order(PathPolicy::KShortest(3));
    }

    #[test]
    fn prefill_assigns_the_ids_of_gets_in_pair_order_shortest() {
        prefill_assigns_the_ids_of_gets_in_pair_order(PathPolicy::Shortest);
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
            .0;
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
                assert!(table.entry(id).hops().iter().all(|&(c, _)| c != victim));
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
            .0;
        let update = TopologyUpdate {
            closed: vec![victim],
            ..TopologyUpdate::default()
        };
        let repaired = c.on_topology_change(&t, &table, &update).len() as u64;
        let counters: std::collections::HashMap<&str, u64> = c.counters().into_iter().collect();
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
        let mut c = PathCache::new(PathPolicy::KShortest(3));
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
        for policy in [
            PathPolicy::EdgeDisjoint(4),
            PathPolicy::KShortest(3),
            PathPolicy::Shortest,
        ] {
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
                        .all(|&(ch, _)| ch != first_hop),
                    "{policy:?} lazily computed a path over a closed channel"
                );
            }
        }
    }
}
