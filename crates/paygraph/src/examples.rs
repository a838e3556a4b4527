//! The paper's §5.1 / Fig. 4–5 motivating example, reconstructed so that
//! every quantitative claim in the text holds exactly.
//!
//! The paper states (for the 5-node topology of Fig. 4):
//!
//! * total demand is 12 units/s across 8 sender–receiver pairs
//!   (four pairs at rate 2, four at rate 1);
//! * node 1 sends at rate 1 to nodes 2 and 5; node 2 sends at rate 2 to
//!   node 4; node 4 routes rate 1 to node 1 along `4 → 2 → 1`; nodes 3 and
//!   4 send 1 unit to nodes 2 and 3 respectively;
//! * **shortest-path balanced routing tops out at 5 units/s**;
//! * **optimal balanced routing achieves 8 units/s**, which equals ν(C*)
//!   (the payment graph decomposes into a circulation of value 8 — seven
//!   edges with weights {2,1,1,1,1,1,1}, matching Fig. 5b — and a DAG of
//!   value 4);
//! * hence only 8/12 ≈ 67 % of demand is routable without rebalancing (the
//!   paper prints "8/12 = 75 %"; the quantities 8 and 12 are what we
//!   reproduce — the printed percentage is an arithmetic slip).
//!
//! The exact demand set is not printed in the paper; the instance below is
//! the (unique up to relabeling we found) assignment consistent with all of
//! the above, and the claims are verified by tests here and reproduced by
//! `spider-bench --bin fig4_example`.

use crate::graph::PaymentGraph;
use spider_types::NodeId;

/// Number of nodes in the example (paper nodes 1–5 map to ids 0–4).
pub const NODES: usize = 5;

/// Total demand of the example payment graph.
pub const TOTAL_DEMAND: f64 = 12.0;

/// Maximum circulation value ν(C*) of the example.
pub const MAX_CIRCULATION: f64 = 8.0;

/// Throughput of shortest-path balanced routing on the example topology.
pub const SHORTEST_PATH_THROUGHPUT: f64 = 5.0;

/// The example's demand matrix. Paper node *k* is `NodeId(k-1)`.
///
/// Demands: (1→2):1, (1→5):1, (3→2):1, (4→3):1, (2→4):2, (4→1):2,
/// (5→3):2, (5→1):2.
pub fn paper_example_demands() -> PaymentGraph {
    let mut g = PaymentGraph::new(NODES);
    let demands: [(u32, u32, f64); 8] = [
        (1, 2, 1.0),
        (1, 5, 1.0),
        (3, 2, 1.0),
        (4, 3, 1.0),
        (2, 4, 2.0),
        (4, 1, 2.0),
        (5, 3, 2.0),
        (5, 1, 2.0),
    ];
    for (s, d, r) in demands {
        g.add_demand(NodeId(s - 1), NodeId(d - 1), r);
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decompose::{decompose, is_dag};

    #[test]
    fn totals_match_paper() {
        let g = paper_example_demands();
        assert_eq!(g.edge_count(), 8);
        assert!((g.total_demand() - TOTAL_DEMAND).abs() < 1e-12);
        // Four rate-2 and four rate-1 demands, as in Fig. 4a.
        let mut rates: Vec<f64> = g.edges().map(|e| e.rate).collect();
        rates.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert_eq!(rates, vec![1.0, 1.0, 1.0, 1.0, 2.0, 2.0, 2.0, 2.0]);
    }

    #[test]
    fn circulation_value_is_8() {
        let g = paper_example_demands();
        let dec = decompose(&g, 1e-6);
        assert!(dec.optimal);
        assert!(
            (dec.circulation_value - MAX_CIRCULATION).abs() < 1e-9,
            "ν = {}",
            dec.circulation_value
        );
        assert!((dec.dag.total_demand() - (TOTAL_DEMAND - MAX_CIRCULATION)).abs() < 1e-9);
        assert!(is_dag(&dec.dag));
    }

    #[test]
    fn circulation_matches_fig_5b_weight_profile() {
        // Fig. 5b shows seven circulation edges with weights 2,1,1,1,1,1,1.
        let dec = decompose(&paper_example_demands(), 1e-6);
        let mut weights: Vec<f64> = dec.circulation.edges().map(|e| e.rate).collect();
        weights.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert_eq!(weights, vec![1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 2.0]);
    }

    #[test]
    fn routable_fraction_is_two_thirds() {
        // The paper says "8/12 = 75%" — the ratio of the stated quantities
        // is actually 2/3; we preserve the *quantities* (8 and 12) and note
        // the paper's arithmetic slip under "Reproducing the paper" in the
        // README.
        let dec = decompose(&paper_example_demands(), 1e-6);
        let frac = dec.circulation_value / TOTAL_DEMAND;
        assert!((frac - 2.0 / 3.0).abs() < 1e-9, "fraction {frac}");
    }
}
