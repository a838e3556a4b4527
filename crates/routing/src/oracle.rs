//! Batched candidate-path computation: a whole pair list filled per
//! source, fanned across worker threads.
//!
//! Computing each pair's candidate set on its own costs k BFS traversals
//! plus a workspace allocation per pair, which dominates wall time at
//! Ripple scale (3,774 nodes, 1–2 × 10⁵ distinct pairs a run).
//! [`PathOracle`] groups pairs by source, answers each source with one
//! [`SourceOracle`](spider_lp::paths::SourceOracle) (one shared BFS tree,
//! one reusable epoch-stamped workspace), and lets scoped worker threads
//! pull sources from an atomic work queue (`spider_core::run_sweep`
//! style). Every entry is exactly what the per-pair reference oracles in
//! `spider_lp::paths` return (pinned by this module's tests). It is the
//! one fill path behind [`PathCache`](crate::PathCache): prefill, churn
//! repair and single-pair misses all come through here.
//!
//! Workers produce plain node sequences; interning into the simulation's
//! shared (single-threaded) [`PathTable`](spider_sim::PathTable) happens
//! afterwards on the calling thread, in pair order.

use crate::cache::PathPolicy;
use spider_lp::paths::{CsrGraph, Path, SourceOracle};
use spider_topology::Topology;
use spider_types::NodeId;

/// Batched per-source candidate-path oracle over a fixed topology.
pub struct PathOracle<'a> {
    topo: &'a Topology,
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

/// Below this many pairs the thread fan-out costs more than it saves;
/// fill inline on the calling thread instead.
const PARALLEL_THRESHOLD: usize = 256;

impl<'a> PathOracle<'a> {
    /// Builds the oracle (flattens the adjacency lists once).
    pub fn new(topo: &'a Topology, policy: PathPolicy) -> Self {
        PathOracle {
            topo,
            csr: Csr::Owned(CsrGraph::new(topo)),
            policy,
        }
    }

    /// Builds the oracle over a caller-retained CSR graph — candidate
    /// sets then respect whatever channels `csr` has disabled. `csr` must
    /// be a [`CsrGraph`] of `topo`.
    pub fn with_csr(topo: &'a Topology, csr: &'a CsrGraph, policy: PathPolicy) -> Self {
        PathOracle {
            topo,
            csr: Csr::Borrowed(csr),
            policy,
        }
    }

    /// Candidate paths for every pair, in pair order (`out[i]` answers
    /// `pairs[i]`). Pairs sharing a source share one BFS tree and one
    /// workspace; distinct sources are filled concurrently. Every entry is
    /// exactly what the per-pair oracle of [`Self::policy`] returns —
    /// including empty sets for unreachable or degenerate `src == dst`
    /// pairs.
    pub fn fill(&self, pairs: &[(NodeId, NodeId)]) -> Vec<Vec<Path>> {
        // Group pair indices by source, keeping first-seen source order.
        let mut source_order: Vec<NodeId> = Vec::new();
        let mut groups: std::collections::HashMap<NodeId, Vec<usize>> =
            std::collections::HashMap::new();
        for (i, &(src, _)) in pairs.iter().enumerate() {
            groups
                .entry(src)
                .or_insert_with(|| {
                    source_order.push(src);
                    Vec::new()
                })
                .push(i);
        }
        let sources: Vec<(NodeId, Vec<usize>)> = source_order
            .into_iter()
            .map(|s| {
                let idxs = groups.remove(&s).expect("grouped");
                (s, idxs)
            })
            .collect();

        let workers = if pairs.len() < PARALLEL_THRESHOLD {
            1
        } else {
            std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(1)
                .min(sources.len())
        };
        let mut out: Vec<Option<Vec<Path>>> = (0..pairs.len()).map(|_| None).collect();
        if workers <= 1 {
            let mut oracle: Option<SourceOracle<'_>> = None;
            for (src, idxs) in &sources {
                let o = oracle
                    .get_or_insert_with(|| SourceOracle::new(self.topo, self.csr.get(), *src));
                o.retarget(*src);
                for &i in idxs {
                    out[i] = Some(self.candidates(o, pairs[i].1));
                }
            }
        } else {
            let next = std::sync::atomic::AtomicUsize::new(0);
            let merged: Vec<Vec<(usize, Vec<Path>)>> = std::thread::scope(|scope| {
                let mut handles = Vec::new();
                for _ in 0..workers {
                    let next = &next;
                    let sources = &sources;
                    handles.push(scope.spawn(move || {
                        let mut local: Vec<(usize, Vec<Path>)> = Vec::new();
                        let mut oracle: Option<SourceOracle<'_>> = None;
                        loop {
                            let g = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                            if g >= sources.len() {
                                break;
                            }
                            let (src, idxs) = &sources[g];
                            let o = oracle.get_or_insert_with(|| {
                                SourceOracle::new(self.topo, self.csr.get(), *src)
                            });
                            o.retarget(*src);
                            for &i in idxs {
                                local.push((i, self.candidates(o, pairs[i].1)));
                            }
                        }
                        local
                    }));
                }
                handles
                    .into_iter()
                    .map(|h| h.join().expect("oracle worker panicked"))
                    .collect()
            });
            for (i, cands) in merged.into_iter().flatten() {
                out[i] = Some(cands);
            }
        }
        out.into_iter()
            .map(|c| c.expect("every pair filled"))
            .collect()
    }

    /// The policy this oracle answers with.
    pub fn policy(&self) -> PathPolicy {
        self.policy
    }

    fn candidates(&self, oracle: &mut SourceOracle<'_>, dst: NodeId) -> Vec<Path> {
        match self.policy {
            PathPolicy::EdgeDisjoint(k) => oracle.edge_disjoint(dst, k),
            PathPolicy::KShortest(k) => oracle.k_shortest(dst, k),
            PathPolicy::Shortest => oracle.shortest(dst).into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spider_lp::paths::{k_edge_disjoint_paths, k_shortest_paths};
    use spider_topology::gen;
    use spider_types::{Amount, DetRng};

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    #[test]
    fn fill_matches_per_pair_oracles() {
        let t = gen::isp_topology(Amount::from_xrp(100));
        let mut rng = DetRng::new(11);
        let mut pairs = Vec::new();
        for _ in 0..200 {
            pairs.push((
                NodeId(rng.index(t.node_count()) as u32),
                NodeId(rng.index(t.node_count()) as u32),
            ));
        }
        pairs.push((n(3), n(3))); // degenerate self-pair
        for policy in [
            PathPolicy::EdgeDisjoint(4),
            PathPolicy::KShortest(3),
            PathPolicy::Shortest,
        ] {
            let oracle = PathOracle::new(&t, policy);
            let filled = oracle.fill(&pairs);
            assert_eq!(filled.len(), pairs.len());
            for (&(s, d), got) in pairs.iter().zip(&filled) {
                let want: Vec<Vec<NodeId>> = match policy {
                    PathPolicy::EdgeDisjoint(k) => k_edge_disjoint_paths(&t, s, d, k)
                        .into_iter()
                        .map(|p| p.nodes)
                        .collect(),
                    PathPolicy::KShortest(k) => k_shortest_paths(&t, s, d, k)
                        .into_iter()
                        .map(|p| p.nodes)
                        .collect(),
                    PathPolicy::Shortest => t.shortest_path(s, d).into_iter().collect(),
                };
                let got: Vec<Vec<NodeId>> = got.iter().map(|p| p.nodes.clone()).collect();
                assert_eq!(got, want, "{s}->{d} under {policy:?}");
            }
        }
    }

    #[test]
    fn fill_spans_the_parallel_path() {
        // Enough pairs to cross PARALLEL_THRESHOLD; results must still be
        // in pair order and identical to the sequential per-pair fill.
        let t = gen::isp_topology(Amount::from_xrp(100));
        let mut pairs = Vec::new();
        for s in 0..t.node_count() as u32 {
            for d in 0..t.node_count() as u32 {
                if s != d {
                    pairs.push((n(s), n(d)));
                }
            }
        }
        assert!(pairs.len() >= PARALLEL_THRESHOLD);
        let oracle = PathOracle::new(&t, PathPolicy::EdgeDisjoint(2));
        let filled = oracle.fill(&pairs);
        for (i, &(s, d)) in pairs.iter().enumerate().step_by(97) {
            let want: Vec<Vec<NodeId>> = k_edge_disjoint_paths(&t, s, d, 2)
                .into_iter()
                .map(|p| p.nodes)
                .collect();
            let got: Vec<Vec<NodeId>> = filled[i].iter().map(|p| p.nodes.clone()).collect();
            assert_eq!(got, want, "{s}->{d}");
        }
    }
}
