//! # spider-maxflow
//!
//! Maximum-flow algorithms over directed networks with integer capacities
//! (drops). This is the substrate for the paper's max-flow routing
//! benchmark (§3): "for each transaction, max-flow uses a distributed
//! implementation of the Ford–Fulkerson method to find source–destination
//! paths that support the largest transaction volume".
//!
//! The solver is Dinic's algorithm (level graph + blocking flows), checked
//! in the tests against Edmonds–Karp (BFS Ford–Fulkerson, the textbook
//! method). A flow decomposition turns a flow assignment back into the
//! explicit paths a payment-channel network needs in order to actually
//! forward HTLCs.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::panic)]

use spider_types::NodeId;
use std::collections::VecDeque;

/// A directed flow network with integer (drop) capacities.
///
/// Arcs are stored with their reverse twins (residual representation), so
/// `arc ^ 1` is always the reverse of `arc`.
#[derive(Debug, Clone)]
pub struct FlowNetwork {
    n: usize,
    // to, cap, flow; arc 2k and 2k+1 are twins.
    to: Vec<usize>,
    cap: Vec<u64>,
    flow: Vec<u64>,
    adj: Vec<Vec<usize>>,
}

impl FlowNetwork {
    /// An empty network on `n` nodes.
    pub fn new(n: usize) -> Self {
        FlowNetwork {
            n,
            to: Vec::new(),
            cap: Vec::new(),
            flow: Vec::new(),
            adj: vec![Vec::new(); n],
        }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// Adds a directed arc `from → to` with capacity `cap`. A
    /// zero-capacity reverse twin is added automatically. Parallel arcs
    /// are allowed (balances in both channel directions become two
    /// independent arcs).
    pub fn add_edge(&mut self, from: NodeId, to: NodeId, cap: u64) {
        assert!(
            from.index() < self.n && to.index() < self.n,
            "node out of range"
        );
        assert_ne!(from, to, "self-loop");
        let id = self.to.len();
        self.to.push(to.index());
        self.cap.push(cap);
        self.flow.push(0);
        self.adj[from.index()].push(id);
        self.to.push(from.index());
        self.cap.push(0);
        self.flow.push(0);
        self.adj[to.index()].push(id + 1);
    }

    /// Zeroes all flow (capacities are kept).
    pub fn reset(&mut self) {
        self.flow.iter_mut().for_each(|f| *f = 0);
    }

    /// Residual capacity of arc `a` (forward: cap−flow; reverse twin: the
    /// forward arc's flow).
    fn res_cap(&self, a: usize) -> u64 {
        self.cap[a] - self.flow[a] + self.flow[a ^ 1]
    }

    /// Pushes `amount` through residual arc `a`: first cancels reverse
    /// flow, then adds forward flow.
    fn augment(&mut self, a: usize, amount: u64) {
        let twin = a ^ 1;
        let cancel = amount.min(self.flow[twin]);
        self.flow[twin] -= cancel;
        self.flow[a] += amount - cancel;
        debug_assert!(self.flow[a] <= self.cap[a]);
    }

    /// Maximum flow from `s` to `t` via Dinic's algorithm (level graph +
    /// blocking flows). `O(V² · E)` worst case, much faster in practice.
    /// A value past `u64::MAX` reads as `u64::MAX`: every arc fits a
    /// `u64`, but their sum out of `s` need not.
    pub fn max_flow_dinic(&mut self, s: NodeId, t: NodeId) -> u64 {
        assert_ne!(s, t, "source equals sink");
        let (s, t) = (s.index(), t.index());
        let mut total = 0u64;
        loop {
            // Build level graph.
            let mut level = vec![u32::MAX; self.n];
            level[s] = 0;
            let mut queue = VecDeque::from([s]);
            while let Some(u) = queue.pop_front() {
                for &arc in &self.adj[u] {
                    let v = self.to[arc];
                    if level[v] == u32::MAX && self.res_cap(arc) > 0 {
                        level[v] = level[u] + 1;
                        queue.push_back(v);
                    }
                }
            }
            if level[t] == u32::MAX {
                return total;
            }
            // Blocking flow with iteration pointers.
            let mut iter = vec![0usize; self.n];
            loop {
                let pushed = self.dinic_dfs(s, t, u64::MAX, &level, &mut iter);
                if pushed == 0 {
                    break;
                }
                total = total.saturating_add(pushed);
            }
        }
    }

    fn dinic_dfs(
        &mut self,
        u: usize,
        t: usize,
        limit: u64,
        level: &[u32],
        iter: &mut [usize],
    ) -> u64 {
        if u == t {
            return limit;
        }
        while iter[u] < self.adj[u].len() {
            let arc = self.adj[u][iter[u]];
            let v = self.to[arc];
            if level[v] == level[u] + 1 && self.res_cap(arc) > 0 {
                let pushed = self.dinic_dfs(v, t, limit.min(self.res_cap(arc)), level, iter);
                if pushed > 0 {
                    self.augment(arc, pushed);
                    return pushed;
                }
            }
            iter[u] += 1;
        }
        0
    }

    /// Decomposes the current flow into explicit `s → t` paths.
    ///
    /// Returns `(node_path, amount)` pairs whose amounts sum to the flow
    /// value. Flow cycles (possible in principle, harmless to the value)
    /// are canceled and discarded first, so the returned paths are simple.
    pub fn flow_paths(&mut self, s: NodeId, t: NodeId) -> Vec<(Vec<NodeId>, u64)> {
        let (s, t) = (s.index(), t.index());
        // Net flow per arc pair (forward only).
        let mut net: Vec<u64> = (0..self.to.len() / 2)
            .map(|k| self.flow[2 * k].saturating_sub(self.flow[2 * k + 1]))
            .collect();
        self.cancel_flow_cycles(&mut net);
        let mut paths = Vec::new();
        loop {
            // Greedy walk from s along positive-net arcs.
            let mut path_nodes = vec![s];
            let mut path_arcs: Vec<usize> = Vec::new();
            let mut u = s;
            let mut visited = vec![false; self.n];
            visited[s] = true;
            while u != t {
                let mut advanced = false;
                for &arc in &self.adj[u] {
                    if arc % 2 == 0 && net[arc / 2] > 0 {
                        let v = self.to[arc];
                        if !visited[v] {
                            visited[v] = true;
                            path_nodes.push(v);
                            path_arcs.push(arc);
                            u = v;
                            advanced = true;
                            break;
                        }
                    }
                }
                if !advanced {
                    break;
                }
            }
            if u != t {
                return paths; // no more s→t flow
            }
            let bottleneck = path_arcs
                .iter()
                .map(|&a| net[a / 2])
                .min()
                .expect("non-empty path");
            for &a in &path_arcs {
                net[a / 2] -= bottleneck;
            }
            paths.push((
                path_nodes.into_iter().map(NodeId::from_index).collect(),
                bottleneck,
            ));
        }
    }

    /// Cancels directed cycles in the net-flow graph (they carry no s→t
    /// value). Iterative DFS identical in spirit to the circulation finder.
    fn cancel_flow_cycles(&self, net: &mut [u64]) {
        loop {
            // Build adjacency of positive-net arcs.
            let mut out: Vec<Vec<usize>> = vec![Vec::new(); self.n];
            for k in 0..net.len() {
                if net[k] > 0 {
                    out[self.to[2 * k + 1]].push(2 * k); // from = to of twin
                }
            }
            let mut color = vec![0u8; self.n]; // 0 white, 1 gray, 2 black
            let mut found: Option<Vec<usize>> = None;
            'outer: for start in 0..self.n {
                if color[start] != 0 {
                    continue;
                }
                let mut stack: Vec<(usize, usize)> = vec![(start, 0)];
                let mut path_arcs: Vec<usize> = Vec::new();
                color[start] = 1;
                while let Some(&mut (u, ref mut next)) = stack.last_mut() {
                    if *next < out[u].len() {
                        let arc = out[u][*next];
                        *next += 1;
                        let v = self.to[arc];
                        match color[v] {
                            0 => {
                                color[v] = 1;
                                stack.push((v, 0));
                                path_arcs.push(arc);
                            }
                            1 => {
                                let pos = stack
                                    .iter()
                                    .position(|&(node, _)| node == v)
                                    .expect("gray node on stack");
                                let mut cycle = path_arcs[pos..].to_vec();
                                cycle.push(arc);
                                found = Some(cycle);
                                break 'outer;
                            }
                            _ => {}
                        }
                    } else {
                        color[u] = 2;
                        stack.pop();
                        path_arcs.pop();
                    }
                }
            }
            match found {
                Some(cycle) => {
                    let bottleneck = cycle
                        .iter()
                        .map(|&a| net[a / 2])
                        .min()
                        .expect("non-empty cycle");
                    for &a in &cycle {
                        net[a / 2] -= bottleneck;
                    }
                }
                None => return,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spider_types::{Amount, DetRng};

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    impl FlowNetwork {
        /// Dinic's reference: maximum flow from `s` to `t` via Edmonds–Karp
        /// (BFS augmenting paths, the textbook Ford–Fulkerson of §3).
        /// `O(V · E²)`, deterministic.
        fn max_flow_edmonds_karp(&mut self, s: NodeId, t: NodeId) -> u64 {
            assert_ne!(s, t, "source equals sink");
            let (s, t) = (s.index(), t.index());
            let mut total = 0u64;
            loop {
                // BFS for an augmenting path in the residual graph.
                let mut pred: Vec<Option<usize>> = vec![None; self.n];
                let mut seen = vec![false; self.n];
                seen[s] = true;
                let mut queue = VecDeque::from([s]);
                'bfs: while let Some(u) = queue.pop_front() {
                    for &arc in &self.adj[u] {
                        let v = self.to[arc];
                        if !seen[v] && self.res_cap(arc) > 0 {
                            seen[v] = true;
                            pred[v] = Some(arc);
                            if v == t {
                                break 'bfs;
                            }
                            queue.push_back(v);
                        }
                    }
                }
                if !seen[t] {
                    return total;
                }
                // Find bottleneck and augment.
                let mut bottleneck = u64::MAX;
                let mut v = t;
                while v != s {
                    let arc = pred[v].expect("path reaches source");
                    bottleneck = bottleneck.min(self.res_cap(arc));
                    v = self.to[arc ^ 1];
                }
                let mut v = t;
                while v != s {
                    let arc = pred[v].expect("path reaches source");
                    self.augment(arc, bottleneck);
                    v = self.to[arc ^ 1];
                }
                total += bottleneck;
            }
        }
    }

    /// The classic CLRS example network (max flow 23).
    fn clrs() -> FlowNetwork {
        let mut f = FlowNetwork::new(6);
        f.add_edge(n(0), n(1), 16);
        f.add_edge(n(0), n(2), 13);
        f.add_edge(n(1), n(2), 10);
        f.add_edge(n(2), n(1), 4);
        f.add_edge(n(1), n(3), 12);
        f.add_edge(n(3), n(2), 9);
        f.add_edge(n(2), n(4), 14);
        f.add_edge(n(4), n(3), 7);
        f.add_edge(n(3), n(5), 20);
        f.add_edge(n(4), n(5), 4);
        f
    }

    #[test]
    fn clrs_example_both_algorithms() {
        assert_eq!(clrs().max_flow_edmonds_karp(n(0), n(5)), 23);
        assert_eq!(clrs().max_flow_dinic(n(0), n(5)), 23);
    }

    #[test]
    fn disconnected_is_zero() {
        let mut f = FlowNetwork::new(4);
        f.add_edge(n(0), n(1), 10);
        f.add_edge(n(2), n(3), 10);
        assert_eq!(f.max_flow_dinic(n(0), n(3)), 0);
        assert_eq!(f.max_flow_edmonds_karp(n(0), n(3)), 0);
    }

    #[test]
    fn single_path_bottleneck() {
        let mut f = FlowNetwork::new(4);
        f.add_edge(n(0), n(1), 10);
        f.add_edge(n(1), n(2), 3);
        f.add_edge(n(2), n(3), 7);
        assert_eq!(f.max_flow_dinic(n(0), n(3)), 3);
    }

    #[test]
    fn parallel_arcs_accumulate() {
        let mut f = FlowNetwork::new(2);
        f.add_edge(n(0), n(1), 5);
        f.add_edge(n(0), n(1), 7);
        assert_eq!(f.max_flow_dinic(n(0), n(1)), 12);
    }

    /// Arcs that each fit a `u64` but together do not: the value
    /// saturates, and the paths still carry every arc in full.
    #[test]
    fn a_value_past_u64_saturates() {
        let half = u64::MAX / 2 + 1;
        let mut f = FlowNetwork::new(2);
        f.add_edge(n(0), n(1), half);
        f.add_edge(n(0), n(1), half);
        assert_eq!(f.max_flow_dinic(n(0), n(1)), u64::MAX);
        let paths = f.flow_paths(n(0), n(1));
        assert_eq!(paths.iter().map(|(_, a)| a).collect::<Vec<_>>(), [&half; 2]);
    }

    #[test]
    fn bidirectional_channel_arcs() {
        let mut f = FlowNetwork::new(3);
        for (u, v, cap_uv, cap_vu) in [(0, 1, 10, 2), (1, 2, 4, 8)] {
            f.add_edge(n(u), n(v), cap_uv);
            f.add_edge(n(v), n(u), cap_vu);
        }
        assert_eq!(f.max_flow_dinic(n(0), n(2)), 4);
        f.reset();
        assert_eq!(f.max_flow_dinic(n(2), n(0)), 2);
    }

    #[test]
    fn reset_clears_flow() {
        let mut f = clrs();
        assert_eq!(f.max_flow_dinic(n(0), n(5)), 23);
        f.reset();
        assert_eq!(f.max_flow_dinic(n(0), n(5)), 23);
    }

    #[test]
    fn zero_capacity_edges_carry_nothing() {
        let mut f = FlowNetwork::new(2);
        f.add_edge(n(0), n(1), 0);
        assert_eq!(f.max_flow_dinic(n(0), n(1)), 0);
        assert!(f.flow_paths(n(0), n(1)).is_empty());
    }

    #[test]
    fn dinic_equals_edmonds_karp_on_random_graphs() {
        let mut rng = DetRng::new(31);
        for _ in 0..25 {
            let nodes = 8;
            let mut a = FlowNetwork::new(nodes);
            let mut b = FlowNetwork::new(nodes);
            for _ in 0..20 {
                let u = rng.index(nodes);
                let v = rng.index(nodes);
                if u != v {
                    let cap = rng.range_u64(0, 20);
                    a.add_edge(NodeId::from_index(u), NodeId::from_index(v), cap);
                    b.add_edge(NodeId::from_index(u), NodeId::from_index(v), cap);
                }
            }
            let fa = a.max_flow_dinic(n(0), n(7));
            let fb = b.max_flow_edmonds_karp(n(0), n(7));
            assert_eq!(fa, fb);
        }
    }

    /// The reference at a realistic size: the ISP topology with both
    /// directions of every channel as 15,000-XRP arcs, node 8 to node 20.
    #[test]
    fn dinic_equals_edmonds_karp_on_isp() {
        let topo = spider_topology::gen::isp_topology(Amount::from_xrp(30_000));
        let mut f = FlowNetwork::new(topo.node_count());
        for (_, ch) in topo.channels() {
            f.add_edge(ch.u, ch.v, 15_000_000_000);
            f.add_edge(ch.v, ch.u, 15_000_000_000);
        }
        let dinic = f.max_flow_dinic(n(8), n(20));
        f.reset();
        assert!(dinic > 0);
        assert_eq!(f.max_flow_edmonds_karp(n(8), n(20)), dinic);
    }

    #[test]
    fn flow_paths_sum_to_value() {
        let mut f = clrs();
        let value = f.max_flow_dinic(n(0), n(5));
        let paths = f.flow_paths(n(0), n(5));
        let total: u64 = paths.iter().map(|(_, amt)| amt).sum();
        assert_eq!(total, value);
        for (path, amt) in &paths {
            assert!(*amt > 0);
            assert_eq!(path.first(), Some(&n(0)));
            assert_eq!(path.last(), Some(&n(5)));
            // Paths are simple.
            let mut sorted: Vec<_> = path.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), path.len());
        }
    }

    #[test]
    fn flow_paths_on_random_graphs_account_for_value() {
        let mut rng = DetRng::new(77);
        for _ in 0..20 {
            let nodes = 10;
            let mut f = FlowNetwork::new(nodes);
            for _ in 0..30 {
                let u = rng.index(nodes);
                let v = rng.index(nodes);
                if u != v {
                    f.add_edge(
                        NodeId::from_index(u),
                        NodeId::from_index(v),
                        rng.range_u64(1, 15),
                    );
                }
            }
            let value = f.max_flow_dinic(n(0), n(9));
            let paths = f.flow_paths(n(0), n(9));
            assert_eq!(paths.iter().map(|(_, a)| a).sum::<u64>(), value);
        }
    }

    #[test]
    fn large_line_network_is_fast_and_exact() {
        let nodes = 1000;
        let mut f = FlowNetwork::new(nodes);
        for i in 0..nodes - 1 {
            f.add_edge(NodeId::from_index(i), NodeId::from_index(i + 1), 42);
        }
        assert_eq!(f.max_flow_dinic(n(0), NodeId::from_index(nodes - 1)), 42);
    }
}
