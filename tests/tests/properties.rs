//! Property-based tests (proptest) on the core invariants across crates.

use proptest::prelude::*;
use spider_lp::fluid::{FluidProblem, PathSelection};
use spider_lp::simplex::{ConstraintOp, LinearProgram};
use spider_paygraph::decompose::{decompose, is_dag};
use spider_paygraph::PaymentGraph;
use spider_topology::{gen, io};
use spider_types::{Amount, NodeId};

proptest! {
    /// split_mtu always conserves the total and respects the MTU bound.
    #[test]
    fn split_mtu_conserves(total in 0u64..10_000_000, mtu in 1u64..1_000_000) {
        let amount = Amount::from_drops(total);
        let parts = amount.split_mtu(Amount::from_drops(mtu));
        prop_assert_eq!(parts.iter().copied().sum::<Amount>(), amount);
        prop_assert!(parts.iter().all(|p| p.drops() <= mtu && p.drops() > 0));
    }

    /// Circulation/DAG decomposition: parts sum to the whole, the
    /// circulation is balanced, and the residue is acyclic.
    #[test]
    fn decomposition_invariants(edges in proptest::collection::vec(
        (0u32..8, 0u32..8, 1u64..50), 1..24,
    )) {
        let mut g = PaymentGraph::new(8);
        for (s, d, r) in edges {
            if s != d {
                g.add_demand(NodeId(s), NodeId(d), r as f64);
            }
        }
        let dec = decompose(&g, 1.0);
        prop_assert!(dec.optimal);
        // Sum back.
        let mut sum = dec.circulation.clone();
        for e in dec.dag.edges() {
            sum.add_demand(e.src, e.dst, e.rate);
        }
        prop_assert!(g.l1_distance(&sum) < 1e-9);
        prop_assert!(dec.circulation.is_circulation(1e-9));
        prop_assert!(is_dag(&dec.dag));
        // Value bounded by total demand.
        prop_assert!(dec.circulation_value <= g.total_demand() + 1e-9);
    }

    /// The simplex solution of a random all-≤ LP with non-negative
    /// coefficients is feasible and no worse than the zero solution.
    #[test]
    fn simplex_feasibility(
        objective in proptest::collection::vec(-1.0f64..2.0, 3),
        rows in proptest::collection::vec(
            (proptest::collection::vec(0.0f64..1.0, 3), 0.5f64..5.0), 1..6,
        ),
    ) {
        let mut lp = LinearProgram::new(3);
        for (v, c) in objective.iter().enumerate() {
            lp.set_objective(v, *c);
        }
        // Ensure boundedness: cap every variable.
        for v in 0..3 {
            lp.constraint(&[(v, 1.0)], ConstraintOp::Le, 10.0);
        }
        let mut checks = Vec::new();
        for (coeffs, rhs) in rows {
            let sparse: Vec<(usize, f64)> =
                coeffs.iter().enumerate().map(|(v, c)| (v, *c)).collect();
            lp.constraint(&sparse, ConstraintOp::Le, rhs);
            checks.push((coeffs, rhs));
        }
        let sol = lp.solve().expect("feasible and bounded");
        for (coeffs, rhs) in checks {
            let lhs: f64 = coeffs.iter().zip(&sol.x).map(|(c, x)| c * x).sum();
            prop_assert!(lhs <= rhs + 1e-6);
        }
        prop_assert!(sol.x.iter().all(|&x| x >= -1e-9));
        prop_assert!(sol.objective >= -1e-9); // x = 0 scores 0
    }

    /// Topology text serialization round-trips.
    #[test]
    fn topology_io_round_trip(
        n in 2usize..12,
        edges in proptest::collection::vec((0u32..12, 0u32..12, 0u64..1_000), 0..30),
    ) {
        let mut b = spider_topology::Topology::builder(n);
        for (u, v, cap) in edges {
            let (u, v) = (u % n as u32, v % n as u32);
            if u != v && !b.has_channel(NodeId(u), NodeId(v)) {
                b.channel(NodeId(u), NodeId(v), Amount::from_drops(cap)).unwrap();
            }
        }
        let t = b.build();
        let back = io::from_text(&io::to_text(&t)).expect("parses");
        prop_assert_eq!(t, back);
    }

    /// Balanced-LP throughput never exceeds the circulation bound
    /// (Proposition 1) on random demand over a cycle topology.
    #[test]
    fn prop1_upper_bound(edges in proptest::collection::vec(
        (0u32..6, 0u32..6, 1u64..10), 1..14,
    )) {
        let mut g = PaymentGraph::new(6);
        for (s, d, r) in edges {
            if s != d {
                g.add_demand(NodeId(s), NodeId(d), r as f64);
            }
        }
        let topo = gen::cycle(6, Amount::from_xrp(1_000_000));
        let nu = decompose(&g, 1e-6).circulation_value;
        let lp = FluidProblem::new(&topo, &g, 0.5, PathSelection::KShortest(3))
            .solve_balanced()
            .expect("LP solves")
            .throughput;
        prop_assert!(lp <= nu + 1e-4 * g.total_demand().max(1.0),
            "LP {lp} exceeded circulation bound {nu}");
    }

    /// `PathCache::prefill` is purely a throughput change: over random
    /// topologies, seeds, and every `PathPolicy`, prefilling a pair list
    /// and then reading it back yields exactly the `PathId` sets the
    /// purely lazy cache produces for the same get order, each path is
    /// interned exactly once (table sizes match, and a second prefill or
    /// the subsequent gets intern nothing new), and degenerate
    /// `src == dst` pairs resolve to empty candidate sets. Then the same
    /// comparison after close+open topology updates, against a cold cache
    /// rebuilt on the final mask.
    #[test]
    fn prefill_matches_lazy_path_cache(
        seed in 0u64..400,
        nodes in 4usize..24,
        m in 1usize..3,
        policy_idx in 0usize..2,
        k in 1usize..5,
        n_pairs in 1usize..24,
    ) {
        use spider_routing::{PathCache, PathPolicy};
        use spider_sim::PathTable;
        let mut rng = spider_types::DetRng::new(seed);
        let topo = gen::barabasi_albert(nodes, m, Amount::from_xrp(100), &mut rng);
        let policy = match policy_idx {
            0 => PathPolicy::EdgeDisjoint(k),
            _ => PathPolicy::Shortest,
        };
        // Random pairs, duplicates and self-pairs included.
        let pairs: Vec<(NodeId, NodeId)> = (0..n_pairs)
            .map(|_| {
                (
                    NodeId(rng.index(topo.node_count()) as u32),
                    NodeId(rng.index(topo.node_count()) as u32),
                )
            })
            .collect();

        let lazy_table = PathTable::new();
        let mut lazy = PathCache::new(policy);
        let lazy_ids: Vec<Vec<_>> = pairs
            .iter()
            .map(|&(s, d)| lazy.get(&topo, &lazy_table, s, d).to_vec())
            .collect();

        let table = PathTable::new();
        let mut warm = PathCache::new(policy);
        warm.prefill(&topo, &table, &pairs);
        let interned_after_prefill = table.len();
        prop_assert_eq!(interned_after_prefill, lazy_table.len(), "same distinct paths");
        // Idempotent: nothing new to compute or intern.
        warm.prefill(&topo, &table, &pairs);
        prop_assert_eq!(table.len(), interned_after_prefill);
        for (&(s, d), want) in pairs.iter().zip(&lazy_ids) {
            let got = warm.get(&topo, &table, s, d).to_vec();
            prop_assert_eq!(&got, want, "pair {}->{}", s, d);
            // Equal ids from two independently-interned tables do not by
            // themselves prove equal paths — resolve and compare.
            for (&g, &w) in got.iter().zip(want) {
                let ge = table.entry(g);
                let we = lazy_table.entry(w);
                prop_assert_eq!(ge.nodes(), we.nodes(), "pair {}->{}", s, d);
            }
            if s == d && policy != PathPolicy::Shortest {
                prop_assert!(got.is_empty(), "degenerate pair has no candidates");
            }
        }
        prop_assert_eq!(table.len(), interned_after_prefill, "gets are pure lookups");

        // The same equivalence under churn: close two channels, then
        // close a third while reopening the first; pairs first asked for
        // after that are filled one at a time vs batched on the masked
        // graph. Both must equal a cold cache built on the final mask.
        use spider_sim::TopologyUpdate;
        let first = rng.index(topo.channel_count());
        let chan = |i: usize| spider_types::ChannelId(((first + i) % topo.channel_count()) as u32);
        let updates = [
            TopologyUpdate { closed: vec![chan(0), chan(1)], ..TopologyUpdate::default() },
            TopologyUpdate { closed: vec![chan(2)], opened: vec![chan(0)], ..TopologyUpdate::default() },
        ];
        for update in &updates {
            let repaired = lazy.on_topology_change(&topo, &lazy_table, update);
            prop_assert_eq!(warm.on_topology_change(&topo, &table, update), repaired);
        }
        let late: Vec<(NodeId, NodeId)> = (0..n_pairs)
            .map(|_| {
                (
                    NodeId(rng.index(topo.node_count()) as u32),
                    NodeId(rng.index(topo.node_count()) as u32),
                )
            })
            .collect();
        let all: Vec<(NodeId, NodeId)> = pairs.iter().chain(&late).copied().collect();
        warm.prefill(&topo, &table, &late);
        let cold_table = PathTable::new();
        let mut cold = PathCache::new(policy);
        let mask = TopologyUpdate { closed: vec![chan(1), chan(2)], ..TopologyUpdate::default() };
        cold.on_topology_change(&topo, &cold_table, &mask);
        cold.prefill(&topo, &cold_table, &all);
        for &(s, d) in &all {
            let one = lazy.get(&topo, &lazy_table, s, d).to_vec();
            let batched = warm.get(&topo, &table, s, d).to_vec();
            let rebuilt = cold.get(&topo, &cold_table, s, d).to_vec();
            prop_assert_eq!(&one, &batched, "pair {}->{} after churn", s, d);
            prop_assert_eq!(one.len(), rebuilt.len(), "pair {}->{} after churn", s, d);
            for ((&o, &b), &r) in one.iter().zip(&batched).zip(&rebuilt) {
                let want = cold_table.entry(r);
                prop_assert_eq!(lazy_table.entry(o).nodes(), want.nodes(), "pair {}->{}", s, d);
                prop_assert_eq!(table.entry(b).nodes(), want.nodes(), "pair {}->{}", s, d);
                prop_assert!(
                    want.hops().iter().all(|hop| ![chan(1), chan(2)].contains(&hop.channel())),
                    "pair {}->{} crosses a closed channel", s, d
                );
            }
        }
        // Batched fills intern the hop channels their searches carried
        // (directions derived from the hop's first node); one-at-a-time
        // fills and repairs went the same way. Every entry must be what a
        // lookup against the topology resolves.
        for table in [&table, &lazy_table, &cold_table] {
            for id in 0..table.len() {
                let entry = table.entry(spider_types::PathId::from_index(id));
                let resolved = topo.path_channels(entry.nodes()).expect("follows topology edges");
                prop_assert_eq!(entry.hops(), &resolved[..], "path {:?}", entry.nodes());
            }
        }
    }

    /// Yen's paths are simple, ordered by length, and within k — and they
    /// are exactly the first `k` of every simple path, in (hop count, node
    /// sequence) order, that a brute-force depth-first search finds.
    #[test]
    fn yen_path_invariants(seed in 0u64..500, k in 1usize..6) {
        let mut rng = spider_types::DetRng::new(seed);
        let topo = gen::erdos_renyi(10, 0.4, Amount::from_xrp(1), &mut rng);
        let paths = spider_lp::paths::k_shortest_paths(&topo, NodeId(0), NodeId(9), k);
        prop_assert!(paths.len() <= k);
        for w in paths.windows(2) {
            prop_assert!(w[0].hop_count() <= w[1].hop_count());
        }
        for p in &paths {
            let mut s = p.nodes.clone();
            s.sort_unstable();
            s.dedup();
            prop_assert_eq!(s.len(), p.nodes.len(), "loop in path");
        }
        let mut every = simple_paths(&topo, NodeId(0), NodeId(9));
        every.sort_by(|a, b| a.len().cmp(&b.len()).then_with(|| a.cmp(b)));
        every.truncate(k);
        let yen: Vec<Vec<NodeId>> = paths.into_iter().map(|p| p.nodes).collect();
        prop_assert_eq!(yen, every);
    }
}

/// Every simple path from `src` to `dst` (node sequences), by exhaustive
/// depth-first search — the independent oracle for Yen's algorithm.
fn simple_paths(topo: &spider_topology::Topology, src: NodeId, dst: NodeId) -> Vec<Vec<NodeId>> {
    fn extend(
        topo: &spider_topology::Topology,
        dst: NodeId,
        path: &mut Vec<NodeId>,
        out: &mut Vec<Vec<NodeId>>,
    ) {
        let at = path[path.len() - 1];
        if at == dst {
            out.push(path.clone());
            return;
        }
        for adj in topo.neighbors(at) {
            if !path.contains(&adj.neighbor) {
                path.push(adj.neighbor);
                extend(topo, dst, path, out);
                path.pop();
            }
        }
    }
    let mut out = Vec::new();
    extend(topo, dst, &mut vec![src], &mut out);
    out
}
