//! The payment (demand) graph data structure.

use serde::Serialize;
use spider_types::NodeId;
use std::collections::BTreeMap;

/// One demand: node `src` wants to pay node `dst` at `rate` (currency units
/// per second, in whatever unit the caller uses consistently — the paper's
/// fluid model is unit-agnostic).
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct DemandEdge {
    /// Paying node.
    pub src: NodeId,
    /// Receiving node.
    pub dst: NodeId,
    /// Average payment rate (> 0).
    pub rate: f64,
}

/// A weighted directed graph of payment demands (`H(V, E_H)` in §5.2.2).
///
/// Edges are stored in a sorted map so iteration order — and therefore every
/// algorithm built on top — is deterministic.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct PaymentGraph {
    node_count: usize,
    demands: BTreeMap<(NodeId, NodeId), f64>,
}

impl PaymentGraph {
    /// An empty payment graph over `node_count` nodes.
    pub fn new(node_count: usize) -> Self {
        PaymentGraph {
            node_count,
            demands: BTreeMap::new(),
        }
    }

    /// Number of nodes in the underlying network.
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// Number of demand edges (pairs with positive rate).
    pub fn edge_count(&self) -> usize {
        self.demands.len()
    }

    /// Adds `rate` to the demand `src → dst`. Rates accumulate, matching how
    /// a demand matrix is estimated from a transaction stream. Zero or
    /// negative increments and self-demands are rejected.
    pub fn add_demand(&mut self, src: NodeId, dst: NodeId, rate: f64) {
        assert!(src != dst, "self-demand {src}→{src}");
        assert!(
            rate > 0.0 && rate.is_finite(),
            "rate must be positive, got {rate}"
        );
        assert!(
            src.index() < self.node_count && dst.index() < self.node_count,
            "node out of range"
        );
        *self.demands.entry((src, dst)).or_insert(0.0) += rate;
    }

    /// The demand rate `src → dst` (0 when absent).
    pub fn demand(&self, src: NodeId, dst: NodeId) -> f64 {
        self.demands.get(&(src, dst)).copied().unwrap_or(0.0)
    }

    /// Iterator over all demand edges in deterministic order.
    pub fn edges(&self) -> impl Iterator<Item = DemandEdge> + '_ {
        self.demands
            .iter()
            .map(|(&(src, dst), &rate)| DemandEdge { src, dst, rate })
    }

    /// Total demand Σ d_{i,j} — the paper's denominator for "success volume"
    /// in the fluid sense.
    pub fn total_demand(&self) -> f64 {
        self.demands.values().sum()
    }

    /// Net imbalance of `node`: outgoing minus incoming demand. A payment
    /// graph is a circulation iff every node's imbalance is ~0.
    pub fn node_imbalance(&self, node: NodeId) -> f64 {
        let mut out = 0.0;
        let mut inc = 0.0;
        for (&(s, d), &r) in &self.demands {
            if s == node {
                out += r;
            }
            if d == node {
                inc += r;
            }
        }
        out - inc
    }

    /// True iff every node's in-rate equals its out-rate within `tol`.
    pub fn is_circulation(&self, tol: f64) -> bool {
        (0..self.node_count).all(|i| self.node_imbalance(NodeId::from_index(i)).abs() <= tol)
    }

    /// Scales every demand by `factor > 0`.
    pub fn scaled(&self, factor: f64) -> PaymentGraph {
        assert!(factor > 0.0 && factor.is_finite(), "invalid scale factor");
        let mut g = PaymentGraph::new(self.node_count);
        for (&k, &r) in &self.demands {
            g.demands.insert(k, r * factor);
        }
        g
    }

    /// Sum of |demand(i,j) - other.demand(i,j)| over all pairs — a cheap
    /// distance for convergence tests.
    pub fn l1_distance(&self, other: &PaymentGraph) -> f64 {
        let mut keys: Vec<(NodeId, NodeId)> = self.demands.keys().copied().collect();
        keys.extend(other.demands.keys().copied());
        keys.sort_unstable();
        keys.dedup();
        keys.into_iter()
            .map(|(s, d)| (self.demand(s, d) - other.demand(s, d)).abs())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    #[test]
    fn add_and_query() {
        let mut g = PaymentGraph::new(3);
        g.add_demand(n(0), n(1), 2.0);
        g.add_demand(n(0), n(1), 1.5);
        g.add_demand(n(1), n(2), 4.0);
        assert_eq!(g.demand(n(0), n(1)), 3.5);
        assert_eq!(g.demand(n(1), n(0)), 0.0);
        assert_eq!(g.edge_count(), 2);
        assert_eq!(g.total_demand(), 7.5);
    }

    #[test]
    #[should_panic(expected = "self-demand")]
    fn rejects_self_demand() {
        PaymentGraph::new(2).add_demand(n(1), n(1), 1.0);
    }

    #[test]
    #[should_panic(expected = "rate must be positive")]
    fn rejects_nonpositive_rate() {
        PaymentGraph::new(2).add_demand(n(0), n(1), 0.0);
    }

    #[test]
    #[should_panic(expected = "node out of range")]
    fn rejects_out_of_range() {
        PaymentGraph::new(2).add_demand(n(0), n(5), 1.0);
    }

    #[test]
    fn imbalance_and_circulation() {
        let mut g = PaymentGraph::new(3);
        g.add_demand(n(0), n(1), 1.0);
        g.add_demand(n(1), n(2), 1.0);
        assert_eq!(g.node_imbalance(n(0)), 1.0);
        assert_eq!(g.node_imbalance(n(1)), 0.0);
        assert_eq!(g.node_imbalance(n(2)), -1.0);
        assert!(!g.is_circulation(1e-9));
        g.add_demand(n(2), n(0), 1.0);
        assert!(g.is_circulation(1e-9));
    }

    #[test]
    fn edges_iterate_deterministically() {
        let mut g = PaymentGraph::new(3);
        g.add_demand(n(2), n(0), 1.0);
        g.add_demand(n(0), n(1), 1.0);
        g.add_demand(n(1), n(2), 1.0);
        let order: Vec<(NodeId, NodeId)> = g.edges().map(|e| (e.src, e.dst)).collect();
        assert_eq!(order, vec![(n(0), n(1)), (n(1), n(2)), (n(2), n(0))]);
    }

    #[test]
    fn scaling() {
        let mut g = PaymentGraph::new(2);
        g.add_demand(n(0), n(1), 2.0);
        let s = g.scaled(2.5);
        assert_eq!(s.demand(n(0), n(1)), 5.0);
        assert_eq!(s.total_demand(), 5.0);
    }

    #[test]
    fn l1_distance_symmetric() {
        let mut a = PaymentGraph::new(3);
        a.add_demand(n(0), n(1), 2.0);
        let mut b = PaymentGraph::new(3);
        b.add_demand(n(0), n(1), 0.5);
        b.add_demand(n(1), n(2), 1.0);
        assert_eq!(a.l1_distance(&b), 1.5 + 1.0);
        assert_eq!(b.l1_distance(&a), 2.5);
        assert_eq!(a.l1_distance(&a), 0.0);
    }
}
