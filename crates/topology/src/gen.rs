//! Topology generators.
//!
//! Deterministic families (line, cycle, star, complete, grid, tree), random
//! families (Erdős–Rényi, Watts–Strogatz small-world, Barabási–Albert
//! scale-free), and the two evaluation topologies of the paper:
//!
//! * [`isp_topology`] — a deterministic 32-node / 152-edge two-tier ISP-like
//!   graph standing in for the unnamed topology-zoo graph of §6.1;
//! * [`ripple_like`] — a scale-free graph with the degree profile of the
//!   pruned January-2013 Ripple snapshot (3,774 nodes / 12,512 edges at
//!   full scale), standing in for the proprietary trace.
//!
//! All generators take the uniform per-channel capacity as an argument
//! because that is how the paper provisions its experiments ("we set all
//! edges in the graph to have the same capacity").

use crate::graph::{Topology, TopologyBuilder};
use spider_types::{Amount, DetRng, NodeId};

fn nid(i: usize) -> NodeId {
    NodeId::from_index(i)
}

/// A path graph `0 - 1 - … - (n-1)`.
pub fn line(n: usize, capacity: Amount) -> Topology {
    let mut b = TopologyBuilder::new(n);
    for i in 1..n {
        b.channel(nid(i - 1), nid(i), capacity)
            .expect("valid line edge");
    }
    b.build()
}

/// A cycle graph on `n >= 3` nodes.
pub fn cycle(n: usize, capacity: Amount) -> Topology {
    assert!(n >= 3, "cycle needs at least 3 nodes");
    let mut b = TopologyBuilder::new(n);
    for i in 0..n {
        b.channel(nid(i), nid((i + 1) % n), capacity)
            .expect("valid cycle edge");
    }
    b.build()
}

/// A star: node 0 is the hub, nodes `1..n` are leaves.
pub fn star(n: usize, capacity: Amount) -> Topology {
    assert!(n >= 2, "star needs at least 2 nodes");
    let mut b = TopologyBuilder::new(n);
    for i in 1..n {
        b.channel(nid(0), nid(i), capacity)
            .expect("valid star edge");
    }
    b.build()
}

/// The complete graph on `n` nodes.
pub fn complete(n: usize, capacity: Amount) -> Topology {
    let mut b = TopologyBuilder::new(n);
    for i in 0..n {
        for j in (i + 1)..n {
            b.channel(nid(i), nid(j), capacity)
                .expect("valid complete edge");
        }
    }
    b.build()
}

/// A `w × h` grid (node `(x, y)` is index `y*w + x`).
pub fn grid(w: usize, h: usize, capacity: Amount) -> Topology {
    let mut b = TopologyBuilder::new(w * h);
    for y in 0..h {
        for x in 0..w {
            let i = y * w + x;
            if x + 1 < w {
                b.channel(nid(i), nid(i + 1), capacity)
                    .expect("valid grid edge");
            }
            if y + 1 < h {
                b.channel(nid(i), nid(i + w), capacity)
                    .expect("valid grid edge");
            }
        }
    }
    b.build()
}

/// Erdős–Rényi `G(n, p)`: every pair is connected independently with
/// probability `p`. The result may be disconnected; callers that need a
/// connected graph should extract the largest component
/// ([`crate::analysis::largest_component`]).
pub fn erdos_renyi(n: usize, p: f64, capacity: Amount, rng: &mut DetRng) -> Topology {
    assert!((0.0..=1.0).contains(&p), "probability out of range");
    let mut b = TopologyBuilder::new(n);
    for i in 0..n {
        for j in (i + 1)..n {
            if rng.chance(p) {
                b.channel(nid(i), nid(j), capacity).expect("valid ER edge");
            }
        }
    }
    b.build()
}

/// Watts–Strogatz small-world graph: a ring lattice where each node links to
/// its `k/2` nearest neighbors on each side (`k` even), with each edge
/// rewired with probability `beta`.
pub fn watts_strogatz(
    n: usize,
    k: usize,
    beta: f64,
    capacity: Amount,
    rng: &mut DetRng,
) -> Topology {
    assert!(k.is_multiple_of(2) && k >= 2, "k must be even and >= 2");
    assert!(k < n, "k must be smaller than n");
    assert!((0.0..=1.0).contains(&beta), "beta out of range");
    let mut b = TopologyBuilder::new(n);
    for i in 0..n {
        for off in 1..=(k / 2) {
            let mut j = (i + off) % n;
            if rng.chance(beta) {
                // Rewire the far endpoint to a uniform non-self,
                // non-duplicate node; give up after a bounded number of
                // retries to guarantee termination on dense graphs.
                for _ in 0..32 {
                    let cand = rng.index(n);
                    if cand != i && !b.has_channel(nid(i), nid(cand)) {
                        j = cand;
                        break;
                    }
                }
            }
            if !b.has_channel(nid(i), nid(j)) && i != j {
                b.channel(nid(i), nid(j), capacity).expect("valid WS edge");
            }
        }
    }
    b.build()
}

/// Barabási–Albert preferential attachment: starts from a complete graph on
/// `m + 1` nodes; each new node attaches to `m` distinct existing nodes with
/// probability proportional to their degree.
pub fn barabasi_albert(n: usize, m: usize, capacity: Amount, rng: &mut DetRng) -> Topology {
    assert!(m >= 1, "m must be at least 1");
    assert!(n > m, "need more nodes than attachment edges");
    let mut b = TopologyBuilder::new(n);
    // Repeated-endpoint list: each edge contributes both endpoints, so
    // sampling uniformly from it is degree-proportional sampling.
    let mut endpoint_pool: Vec<usize> = Vec::new();
    for i in 0..=m {
        for j in (i + 1)..=m {
            b.channel(nid(i), nid(j), capacity)
                .expect("valid BA seed edge");
            endpoint_pool.push(i);
            endpoint_pool.push(j);
        }
    }
    for new in (m + 1)..n {
        let mut targets: Vec<usize> = Vec::with_capacity(m);
        while targets.len() < m {
            let t = endpoint_pool[rng.index(endpoint_pool.len())];
            if t != new && !targets.contains(&t) {
                targets.push(t);
            }
        }
        for t in targets {
            b.channel(nid(new), nid(t), capacity)
                .expect("valid BA edge");
            endpoint_pool.push(new);
            endpoint_pool.push(t);
        }
    }
    b.build()
}

/// Number of nodes in [`isp_topology`].
pub const ISP_NODES: usize = 32;
/// Number of channels in [`isp_topology`].
pub const ISP_CHANNELS: usize = 152;

/// The deterministic 32-node / 152-channel ISP-like topology used for the
/// paper's first evaluation setting.
///
/// Structure (a classic two-tier ISP): nodes 0–7 form a fully meshed core
/// (28 channels); nodes 8–31 are access routers, each homed to four
/// distinct core nodes (96 channels); the access routers form a ring for
/// lateral traffic (24 channels); four long chords provide shortcut
/// diversity (4 channels). Total = 28 + 96 + 24 + 4 = 152, matching the
/// paper's edge count exactly.
pub fn isp_topology(capacity: Amount) -> Topology {
    let mut b = TopologyBuilder::new(ISP_NODES);
    // Core clique.
    for i in 0..8 {
        for j in (i + 1)..8 {
            b.channel(nid(i), nid(j), capacity).expect("core edge");
        }
    }
    // Access uplinks: access router a (8..32) homes to cores
    // (a, a+1, a+2, a+3) mod 8.
    for a in 8..32 {
        for off in 0..4 {
            b.channel(nid(a), nid((a + off) % 8), capacity)
                .expect("uplink edge");
        }
    }
    // Access ring.
    for i in 0..24 {
        b.channel(nid(8 + i), nid(8 + (i + 1) % 24), capacity)
            .expect("ring edge");
    }
    // Chords across the ring.
    for (x, y) in [(8, 20), (11, 23), (14, 26), (17, 29)] {
        b.channel(nid(x), nid(y), capacity).expect("chord edge");
    }
    let t = b.build();
    debug_assert_eq!(t.channel_count(), ISP_CHANNELS);
    t
}

/// Full-scale node count of the pruned Ripple snapshot (§6.1).
pub const RIPPLE_NODES: usize = 3774;

/// A Ripple-like scale-free topology with `n` nodes and roughly `3.3 × n`
/// channels (average degree ≈ 6.6, matching the pruned January-2013 Ripple
/// snapshot: 3,774 nodes and 12,512 edges).
///
/// Substitution note (see "Reproducing the paper" in the README): the real trace is not distributable;
/// a Barabási–Albert core (m = 3) plus ~10 % random chords reproduces the
/// heavy-tailed degree distribution and short path lengths that drive
/// routing behaviour. Generated with `n = RIPPLE_NODES` this produces a
/// graph of the same scale as the paper's.
pub fn ripple_like(n: usize, capacity: Amount, rng: &mut DetRng) -> Topology {
    assert!(n >= 8, "ripple-like graph needs at least 8 nodes");
    let base = barabasi_albert(n, 3, capacity, rng);
    // Add ~0.3 per-node extra chords to lift average degree from ~6 to ~6.6.
    let extra = (n as f64 * 0.3).round() as usize;
    let mut b = TopologyBuilder::new(n);
    for (_, c) in base.channels() {
        b.channel(c.u, c.v, c.capacity).expect("copy edge");
    }
    let mut added = 0;
    let mut attempts = 0;
    while added < extra && attempts < extra * 64 {
        attempts += 1;
        let i = rng.index(n);
        let j = rng.index(n);
        if i != j && !b.has_channel(nid(i), nid(j)) {
            b.channel(nid(i), nid(j), capacity).expect("chord edge");
            added += 1;
        }
    }
    b.build()
}

/// Number of nodes in the paper's §5.1 motivating example.
pub const PAPER_EXAMPLE_NODES: usize = 5;

/// The 5-node topology of the paper's Fig. 4 motivating example.
///
/// Nodes are numbered 1–5 in the paper; here they are 0–4 (paper node *k*
/// = `NodeId(k-1)`). Channels: 1-2, 2-3, 3-4, 2-4, 1-5, 3-5. On this graph,
/// with the demands of
/// [`paper-example demands`](fn@crate::gen::paper_example_topology):
///
/// * shortest-path balanced routing achieves throughput **5**,
/// * optimal balanced routing achieves **8** = ν(C*),
///
/// exactly the numbers quoted in §5.1. Every channel gets `capacity`.
pub fn paper_example_topology(capacity: Amount) -> Topology {
    let mut b = TopologyBuilder::new(PAPER_EXAMPLE_NODES);
    for (u, v) in [(1, 2), (2, 3), (3, 4), (2, 4), (1, 5), (3, 5)] {
        b.channel(nid(u - 1), nid(v - 1), capacity)
            .expect("paper example edge");
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis;

    const CAP: Amount = Amount::from_xrp(30_000);

    #[test]
    fn line_shape() {
        let t = line(5, CAP);
        assert_eq!(t.node_count(), 5);
        assert_eq!(t.channel_count(), 4);
        assert!(t.is_connected());
        assert_eq!(t.degree(NodeId(0)), 1);
        assert_eq!(t.degree(NodeId(2)), 2);
    }

    #[test]
    fn cycle_shape() {
        let t = cycle(6, CAP);
        assert_eq!(t.channel_count(), 6);
        assert!(t.nodes().all(|n| t.degree(n) == 2));
        assert!(t.is_connected());
    }

    #[test]
    fn star_shape() {
        let t = star(7, CAP);
        assert_eq!(t.channel_count(), 6);
        assert_eq!(t.degree(NodeId(0)), 6);
        assert!((1..7).all(|i| t.degree(NodeId(i)) == 1));
    }

    #[test]
    fn complete_shape() {
        let t = complete(6, CAP);
        assert_eq!(t.channel_count(), 15);
        assert!(t.nodes().all(|n| t.degree(n) == 5));
    }

    #[test]
    fn grid_shape() {
        let t = grid(3, 4, CAP);
        assert_eq!(t.node_count(), 12);
        assert_eq!(t.channel_count(), 3 * 3 + 2 * 4); // vertical + horizontal
        assert!(t.is_connected());
        assert_eq!(t.degree(NodeId(0)), 2); // corner
    }

    #[test]
    fn erdos_renyi_extremes_and_determinism() {
        let mut rng = DetRng::new(1);
        assert_eq!(erdos_renyi(10, 0.0, CAP, &mut rng).channel_count(), 0);
        let mut rng = DetRng::new(1);
        assert_eq!(erdos_renyi(10, 1.0, CAP, &mut rng).channel_count(), 45);
        let a = erdos_renyi(30, 0.2, CAP, &mut DetRng::new(9));
        let b = erdos_renyi(30, 0.2, CAP, &mut DetRng::new(9));
        assert_eq!(a, b);
    }

    #[test]
    fn watts_strogatz_no_rewire_is_ring_lattice() {
        let mut rng = DetRng::new(2);
        let t = watts_strogatz(10, 4, 0.0, CAP, &mut rng);
        assert_eq!(t.channel_count(), 10 * 4 / 2);
        assert!(t.nodes().all(|n| t.degree(n) == 4));
    }

    #[test]
    fn watts_strogatz_rewired_stays_simple() {
        let mut rng = DetRng::new(3);
        let t = watts_strogatz(50, 6, 0.3, CAP, &mut rng);
        // Simple graph invariants hold by construction; edge count can drop
        // slightly when rewiring collides.
        assert!(t.channel_count() <= 150);
        assert!(t.channel_count() >= 130);
    }

    #[test]
    fn barabasi_albert_edge_count_and_hubs() {
        let mut rng = DetRng::new(4);
        let n = 200;
        let m = 3;
        let t = barabasi_albert(n, m, CAP, &mut rng);
        // seed clique: C(4,2)=6 edges; each of the remaining 196 nodes adds 3.
        assert_eq!(t.channel_count(), 6 + (n - m - 1) * m);
        assert!(t.is_connected());
        let max_deg = t.nodes().map(|v| t.degree(v)).max().unwrap();
        // Scale-free: hubs should greatly exceed the mean degree (~6).
        assert!(max_deg > 15, "max degree {max_deg}");
    }

    #[test]
    fn isp_counts_match_paper() {
        let t = isp_topology(CAP);
        assert_eq!(t.node_count(), 32);
        assert_eq!(t.channel_count(), 152);
        assert!(t.is_connected());
        // Core nodes are the high-degree tier.
        let core_min = (0..8).map(|i| t.degree(NodeId(i))).min().unwrap();
        let access_max = (8..32).map(|i| t.degree(NodeId(i))).max().unwrap();
        assert!(core_min >= 7 + 12, "core degree {core_min}"); // clique + uplinks
        assert!(access_max <= 4 + 2 + 1, "access degree {access_max}");
    }

    #[test]
    fn isp_is_deterministic() {
        assert_eq!(isp_topology(CAP), isp_topology(CAP));
    }

    #[test]
    fn ripple_like_scale_and_skew() {
        let mut rng = DetRng::new(5);
        let n = 500;
        let t = ripple_like(n, CAP, &mut rng);
        let avg_deg = 2.0 * t.channel_count() as f64 / n as f64;
        assert!((6.0..7.4).contains(&avg_deg), "avg degree {avg_deg}");
        let comp = analysis::largest_component(&t);
        assert!(comp.node_count() >= n * 95 / 100);
        let max_deg = t.nodes().map(|v| t.degree(v)).max().unwrap();
        assert!(
            max_deg as f64 > 4.0 * avg_deg,
            "not heavy-tailed: {max_deg}"
        );
    }

    #[test]
    fn paper_example_shape() {
        let t = paper_example_topology(CAP);
        assert_eq!(t.node_count(), 5);
        assert_eq!(t.channel_count(), 6);
        // Paper node 4 (index 3) connects to 3 and 2 (indices 2, 1).
        assert!(t.channel_between(NodeId(3), NodeId(2)).is_some());
        assert!(t.channel_between(NodeId(3), NodeId(1)).is_some());
        assert!(t.channel_between(NodeId(3), NodeId(0)).is_none());
        // The unique shortest path 4→1 goes through 2 (paper's green flow).
        assert_eq!(
            t.shortest_path(NodeId(3), NodeId(0)).unwrap(),
            vec![NodeId(3), NodeId(1), NodeId(0)]
        );
    }
}
