//! Batched candidate-path computation: a whole pair list filled per
//! source, fanned across worker threads.
//!
//! Computing each pair's candidate set on its own costs k BFS traversals
//! plus a workspace allocation per pair, which dominates wall time at
//! Ripple scale (3,774 nodes, 1–2 × 10⁵ distinct pairs a run).
//! [`PathOracle`] groups pairs by source, answers each source with one
//! [`SourceOracle`] (one shared BFS tree,
//! one reusable epoch-stamped workspace), and lets scoped worker threads
//! pull sources from an atomic work queue (`spider_core::run_sweep`
//! style). Every entry is exactly what the per-pair reference oracles in
//! `spider_lp::paths` return (pinned by this module's tests). It is the
//! one fill path behind [`PathCache`](crate::PathCache): prefill, churn
//! repair and single-pair misses all come through here.
//!
//! Workers hand over finished paths in one flat form ([`FilledPaths`]):
//! each appends node ids *and the hop channel ids its search already knew*
//! to its own [`FlatPaths`] buffer, and a per-pair span says where a
//! pair's candidates sit. Nothing is allocated per pair or per path.
//! Interning into the simulation's shared (single-threaded)
//! [`PathTable`](spider_sim::PathTable) happens afterwards on the calling
//! thread, in pair order.
//!
//! Churn repair resumes edge-disjoint sets instead of recomputing them
//! (`PathOracle::resume`): what a pair keeps of its earlier answer reaches
//! the workers flat, as hop channels (`KeptPrefixes`) — the interned paths
//! live in a table the workers cannot share — and each worker writes only
//! the candidates after the kept ones.

use crate::cache::PathPolicy;
use spider_lp::paths::{CsrGraph, FlatPaths, SourceOracle};
use spider_topology::Topology;
use spider_types::{ChannelId, NodeId};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Batched per-source candidate-path oracle over a fixed topology.
pub struct PathOracle<'a> {
    csr: Csr<'a>,
    policy: PathPolicy,
}

/// The oracle either flattens the adjacency lists itself or borrows a
/// caller-retained [`CsrGraph`] — the latter is how `PathCache` reuses one
/// graph (with its O(1) channel enable/disable state) across every churn
/// repair instead of reflattening per event.
enum Csr<'a> {
    Owned(CsrGraph),
    Borrowed(&'a CsrGraph),
}

impl Csr<'_> {
    fn get(&self) -> &CsrGraph {
        match self {
            Csr::Owned(c) => c,
            Csr::Borrowed(c) => c,
        }
    }
}

/// The candidate sets of a pair list, as [`PathOracle::fill`] leaves them:
/// one flat path buffer per worker and, per pair, where its candidates sit
/// (after a churn repair's resumed fill: the candidates after the kept
/// ones).
#[derive(Debug)]
pub struct FilledPaths {
    buffers: Vec<FlatPaths>,
    /// `spans[i]` locates the candidates of `pairs[i]`.
    spans: Vec<Span>,
}

/// `count` consecutive paths of worker `worker`'s buffer, from `first`.
#[derive(Debug, Clone, Copy, Default)]
struct Span {
    worker: u32,
    first: u32,
    count: u32,
}

impl FilledPaths {
    /// Number of paths over all pairs.
    pub fn path_count(&self) -> usize {
        self.buffers.iter().map(FlatPaths::len).sum()
    }

    /// How many candidates each pair got, in pair order.
    pub fn counts(&self) -> impl Iterator<Item = usize> + '_ {
        self.spans.iter().map(|span| span.count as usize)
    }

    /// Each pair's candidate set, in pair order: its paths best first,
    /// each as its nodes and the channel of each of its hops.
    pub fn sets(
        &self,
    ) -> impl Iterator<Item = impl Iterator<Item = (&[NodeId], &[ChannelId])> + '_> + '_ {
        self.spans.iter().map(|span| {
            let (first, count) = (span.first as usize, span.count as usize);
            self.buffers[span.worker as usize].range(first..first + count)
        })
    }

    /// Every path, in pair order and best first within a pair.
    pub fn paths(&self) -> impl Iterator<Item = (&[NodeId], &[ChannelId])> + '_ {
        self.sets().flatten()
    }
}

/// What each pair of a [`PathOracle::resume`] keeps of its earlier
/// edge-disjoint answer: the hop channels of its first candidates, path
/// after path, every pair's back to back.
#[derive(Debug, Default)]
pub(crate) struct KeptPrefixes {
    channels: Vec<ChannelId>,
    /// Per pair: end offset into `channels`.
    ends: Vec<usize>,
}

impl KeptPrefixes {
    /// No prefix yet.
    pub(crate) fn new() -> Self {
        KeptPrefixes::default()
    }

    /// Appends hops to the prefix of the pair being written.
    pub(crate) fn extend(&mut self, hops: impl IntoIterator<Item = ChannelId>) {
        self.channels.extend(hops);
    }

    /// Closes the prefix of the pair being written; the next hops belong
    /// to the next pair.
    pub(crate) fn seal(&mut self) {
        self.ends.push(self.channels.len());
    }

    /// Number of sealed prefixes.
    fn len(&self) -> usize {
        self.ends.len()
    }

    /// Pair `i`'s prefix — empty past the last sealed one, which is how
    /// [`PathOracle::fill`] asks for whole sets.
    fn get(&self, i: usize) -> &[ChannelId] {
        let Some(&end) = self.ends.get(i) else {
            return &[];
        };
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        &self.channels[start..end]
    }
}

/// A pair list grouped by source (a counting sort: sources are dense
/// node ids), so grouping costs no allocation per source.
struct Groups {
    /// `(pair index, destination)`, grouped by source; pair order within
    /// a group.
    order: Vec<(u32, NodeId)>,
    /// The sources that have pairs, ascending, each with its range of
    /// `order`.
    sources: Vec<(NodeId, std::ops::Range<usize>)>,
}

impl Groups {
    fn new(nodes: usize, pairs: &[(NodeId, NodeId)]) -> Self {
        assert!(
            u32::try_from(pairs.len()).is_ok(),
            "pair list exceeds u32 indices"
        );
        // `ends[s]`: pairs of sources up to and including `s`, once summed.
        let mut ends = vec![0usize; nodes];
        for &(src, _) in pairs {
            ends[src.index()] += 1;
        }
        let mut total = 0;
        for end in &mut ends {
            total += *end;
            *end = total;
        }
        let starts = [0].into_iter().chain(ends.iter().copied());
        let sources = starts
            .zip(&ends)
            .enumerate()
            .filter(|(_, (start, &end))| *start < end)
            .map(|(s, (start, &end))| (NodeId(s as u32), start..end))
            .collect();
        // Filling each group from its end, back to front, walks every end
        // down to its group's start and keeps pair order within the group.
        let mut order = vec![(0, NodeId(0)); pairs.len()];
        for (i, &(src, dst)) in pairs.iter().enumerate().rev() {
            let slot = &mut ends[src.index()];
            *slot -= 1;
            order[*slot] = (i as u32, dst);
        }
        Groups { order, sources }
    }

    /// Source number `g` and its pairs: `(pair index, destination)`.
    fn get(&self, g: usize) -> Option<(NodeId, &[(u32, NodeId)])> {
        let (src, group) = self.sources.get(g)?;
        Some((*src, &self.order[group.clone()]))
    }
}

/// Below this many pairs the thread fan-out costs more than it saves;
/// fill inline on the calling thread instead.
const PARALLEL_THRESHOLD: usize = 256;

impl<'a> PathOracle<'a> {
    /// Builds the oracle (flattens the adjacency lists once).
    pub fn new(topo: &'a Topology, policy: PathPolicy) -> Self {
        PathOracle {
            csr: Csr::Owned(CsrGraph::new(topo)),
            policy,
        }
    }

    /// Builds the oracle over a caller-retained CSR graph — candidate
    /// sets then respect whatever channels `csr` has disabled.
    pub fn with_csr(csr: &'a CsrGraph, policy: PathPolicy) -> Self {
        PathOracle {
            csr: Csr::Borrowed(csr),
            policy,
        }
    }

    /// Candidate paths for every pair (the `i`-th of the result's
    /// [`sets`](FilledPaths::sets) answers `pairs[i]`). Pairs sharing a
    /// source share one BFS tree and one workspace; distinct sources are
    /// filled concurrently. Every entry is exactly what the per-pair oracle
    /// of [`Self::policy`] returns — including empty sets for unreachable
    /// or degenerate `src == dst` pairs.
    pub fn fill(&self, pairs: &[(NodeId, NodeId)]) -> FilledPaths {
        self.resume(pairs, &KeptPrefixes::new())
    }

    /// [`Self::fill`] for pairs that keep a prefix of their
    /// [`PathPolicy::EdgeDisjoint`] answer: `kept` holds one prefix per
    /// pair, and pair `i`'s set in the result is its candidates after
    /// `kept`'s — what the per-pair oracle returns past that prefix,
    /// provided the prefix is what it returns first. The other policies
    /// keep nothing.
    pub(crate) fn resume(&self, pairs: &[(NodeId, NodeId)], kept: &KeptPrefixes) -> FilledPaths {
        assert!(
            kept.len() == 0 || kept.len() == pairs.len(),
            "{} prefixes for {} pairs",
            kept.len(),
            pairs.len()
        );
        assert!(
            kept.channels.is_empty() || matches!(self.policy, PathPolicy::EdgeDisjoint(_)),
            "only an edge-disjoint set resumes"
        );
        let groups = Groups::new(self.csr.get().node_count(), pairs);
        let workers = if pairs.len() < PARALLEL_THRESHOLD {
            1
        } else {
            std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(1)
                .min(groups.sources.len())
        };
        // Sources are pulled from a shared counter; one worker is the same
        // loop run on the calling thread.
        let next = AtomicUsize::new(0);
        let work = || self.fill_groups(&groups, kept, &next);
        let filled: Vec<(FlatPaths, Vec<(u32, u32)>)> = if workers <= 1 {
            vec![work()]
        } else {
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..workers).map(|_| scope.spawn(work)).collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("oracle worker panicked"))
                    .collect()
            })
        };
        let mut spans = vec![Span::default(); pairs.len()];
        let mut buffers = Vec::with_capacity(filled.len());
        for (worker, (buffer, counts)) in filled.into_iter().enumerate() {
            // A worker appends in the order it answers, so each pair's
            // candidates start where the previous pair's ended.
            let mut first = 0;
            for (pair, count) in counts {
                spans[pair as usize] = Span {
                    worker: worker as u32,
                    first,
                    count,
                };
                first += count;
            }
            buffers.push(buffer);
        }
        FilledPaths { buffers, spans }
    }

    /// One worker: answers whole sources off the shared counter until none
    /// are left, each pair after its `kept` prefix. Returns its path buffer
    /// and, in the order answered, `(pair index, candidates appended)`.
    fn fill_groups(
        &self,
        groups: &Groups,
        kept: &KeptPrefixes,
        next: &AtomicUsize,
    ) -> (FlatPaths, Vec<(u32, u32)>) {
        let mut out = FlatPaths::new();
        let mut counts = Vec::new();
        let mut oracle: Option<SourceOracle<'_>> = None;
        while let Some((src, group)) = groups.get(next.fetch_add(1, Ordering::Relaxed)) {
            let oracle = oracle.get_or_insert_with(|| SourceOracle::new(self.csr.get(), src));
            oracle.retarget(src);
            for &(i, dst) in group {
                let count = match self.policy {
                    PathPolicy::EdgeDisjoint(k) => {
                        oracle.edge_disjoint(dst, k, kept.get(i as usize), &mut out)
                    }
                    PathPolicy::Shortest => oracle.shortest(dst, &mut out),
                };
                counts.push((i, count as u32));
            }
        }
        (out, counts)
    }

    /// The policy this oracle answers with.
    pub fn policy(&self) -> PathPolicy {
        self.policy
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spider_lp::paths::k_edge_disjoint_paths;
    use spider_topology::gen;
    use spider_types::{Amount, DetRng};

    const POLICIES: [PathPolicy; 2] = [PathPolicy::EdgeDisjoint(4), PathPolicy::Shortest];

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    /// 200 random ISP pairs (repeats included) and a degenerate self-pair:
    /// short of [`PARALLEL_THRESHOLD`], so filled on the calling thread.
    fn few_pairs(t: &Topology) -> Vec<(NodeId, NodeId)> {
        let mut rng = DetRng::new(11);
        let mut pick = || NodeId(rng.index(t.node_count()) as u32);
        let mut pairs: Vec<_> = (0..200).map(|_| (pick(), pick())).collect();
        pairs.push((n(3), n(3)));
        assert!(pairs.len() < PARALLEL_THRESHOLD);
        pairs
    }

    /// Every ordered ISP pair, self-pairs included, in an order that
    /// interleaves sources: crosses [`PARALLEL_THRESHOLD`], so sources are
    /// fanned across workers and each worker's buffer holds many pairs.
    fn many_pairs(t: &Topology) -> Vec<(NodeId, NodeId)> {
        let nodes = t.node_count() as u32;
        let pairs: Vec<_> = (0..nodes)
            .flat_map(|d| (0..nodes).map(move |s| (n(s), n((s + d) % nodes))))
            .collect();
        assert!(pairs.len() >= PARALLEL_THRESHOLD);
        pairs
    }

    /// The per-pair reference answer, as node sequences.
    fn per_pair(t: &Topology, policy: PathPolicy, s: NodeId, d: NodeId) -> Vec<Vec<NodeId>> {
        match policy {
            PathPolicy::EdgeDisjoint(k) => k_edge_disjoint_paths(t, s, d, k)
                .into_iter()
                .map(|p| p.nodes)
                .collect(),
            PathPolicy::Shortest => t.shortest_path(s, d).into_iter().collect(),
        }
    }

    /// Checks a whole hand-off: pair `i`'s candidates are the per-pair
    /// oracle's answer on `reference` (the topology the fill should behave
    /// as), every carried hop channel is the one `topo` has between the
    /// hop's nodes, and the counts and the flat iteration agree with the
    /// per-pair view.
    fn assert_filled(
        filled: &FilledPaths,
        topo: &Topology,
        reference: &Topology,
        policy: PathPolicy,
        pairs: &[(NodeId, NodeId)],
    ) {
        assert_eq!(filled.counts().count(), pairs.len());
        assert_eq!(filled.sets().count(), pairs.len());
        let mut total = 0;
        for ((&(s, d), count), set) in pairs.iter().zip(filled.counts()).zip(filled.sets()) {
            let got: Vec<Vec<NodeId>> = set
                .map(|(nodes, channels)| {
                    let hops = topo.path_channels(nodes).expect("follows topology edges");
                    assert!(
                        hops.iter().map(|hop| hop.0).eq(channels.iter().copied()),
                        "carried hops of {nodes:?} under {policy:?}"
                    );
                    nodes.to_vec()
                })
                .collect();
            assert_eq!(
                got,
                per_pair(reference, policy, s, d),
                "{s}->{d} under {policy:?}"
            );
            assert_eq!(count, got.len());
            total += count;
        }
        assert_eq!(filled.path_count(), total);
        assert_eq!(filled.paths().count(), total);
    }

    #[test]
    fn fill_matches_per_pair_oracles() {
        let t = gen::isp_topology(Amount::from_xrp(100));
        let pairs = few_pairs(&t);
        for policy in POLICIES {
            let oracle = PathOracle::new(&t, policy);
            assert_eq!(oracle.policy(), policy);
            assert_filled(&oracle.fill(&pairs), &t, &t, policy, &pairs);
            assert_filled(&oracle.fill(&[]), &t, &t, policy, &[]);
        }
    }

    #[test]
    fn fill_spans_the_parallel_path() {
        let t = gen::isp_topology(Amount::from_xrp(100));
        let pairs = many_pairs(&t);
        for policy in POLICIES {
            let filled = PathOracle::new(&t, policy).fill(&pairs);
            assert_filled(&filled, &t, &t, policy, &pairs);
        }
    }

    /// Resuming hands back exactly what follows each pair's kept prefix
    /// in its whole set — prefixes of every length, across the worker
    /// fan-out.
    #[test]
    fn resume_returns_what_follows_each_kept_prefix() {
        let t = gen::isp_topology(Amount::from_xrp(100));
        let pairs = many_pairs(&t);
        let oracle = PathOracle::new(&t, PathPolicy::EdgeDisjoint(4));
        let whole = oracle.fill(&pairs);
        let mut kept = KeptPrefixes::new();
        let mut want: Vec<Vec<Vec<NodeId>>> = Vec::new();
        for (i, set) in whole.sets().enumerate() {
            let set: Vec<_> = set.collect();
            let r = i % (set.len() + 1);
            for (_, channels) in &set[..r] {
                kept.extend(channels.iter().copied());
            }
            kept.seal();
            want.push(set[r..].iter().map(|(nodes, _)| nodes.to_vec()).collect());
        }
        assert_eq!(kept.len(), pairs.len());
        let resumed = oracle.resume(&pairs, &kept);
        let got: Vec<Vec<Vec<NodeId>>> = resumed
            .sets()
            .map(|set| set.map(|(nodes, _)| nodes.to_vec()).collect())
            .collect();
        assert_eq!(got, want);
    }

    /// Over a caller-retained graph with channels disabled the hand-off is
    /// what a cold build of the filtered topology answers — as node
    /// sequences; the carried channels stay ids of the *unfiltered*
    /// topology, which is the one paths are interned against.
    #[test]
    fn fill_over_disabled_channels_matches_cold_filtered_rebuild() {
        let t = gen::isp_topology(Amount::from_xrp(100));
        let mut rng = DetRng::new(2026);
        for _case in 0..3 {
            let mut csr = CsrGraph::new(&t);
            let mut b = Topology::builder(t.node_count());
            for (id, ch) in t.channels() {
                if rng.chance(0.2) {
                    csr.set_channel_enabled(&t, id, false);
                } else {
                    b.channel(ch.u, ch.v, ch.capacity)
                        .expect("a subset of a valid topology");
                }
            }
            let filtered = b.build();
            for policy in POLICIES {
                let oracle = PathOracle::with_csr(&csr, policy);
                for pairs in [few_pairs(&t), many_pairs(&t)] {
                    assert_filled(&oracle.fill(&pairs), &t, &filtered, policy, &pairs);
                }
            }
        }
    }
}
