//! Graph analysis utilities: connected components, induced subgraphs and
//! largest-component extraction.

use crate::graph::{Topology, TopologyBuilder};
use spider_types::NodeId;
use std::collections::VecDeque;

/// Connected components as lists of node ids (each sorted ascending);
/// components are ordered by their smallest member.
pub fn connected_components(t: &Topology) -> Vec<Vec<NodeId>> {
    let mut comp_of = vec![usize::MAX; t.node_count()];
    let mut comps: Vec<Vec<NodeId>> = Vec::new();
    for start in t.nodes() {
        if comp_of[start.index()] != usize::MAX {
            continue;
        }
        let cid = comps.len();
        let mut members = vec![start];
        comp_of[start.index()] = cid;
        let mut queue = VecDeque::from([start]);
        while let Some(u) = queue.pop_front() {
            for adj in t.neighbors(u) {
                if comp_of[adj.neighbor.index()] == usize::MAX {
                    comp_of[adj.neighbor.index()] = cid;
                    members.push(adj.neighbor);
                    queue.push_back(adj.neighbor);
                }
            }
        }
        members.sort_unstable();
        comps.push(members);
    }
    comps
}

/// Extracts the induced subgraph on `keep` (node ids are re-densified in
/// the order given). Channels with both endpoints in `keep` survive.
pub fn induced_subgraph(t: &Topology, keep: &[NodeId]) -> Topology {
    let mut new_id = vec![None; t.node_count()];
    for (fresh, old) in keep.iter().enumerate() {
        new_id[old.index()] = Some(NodeId::from_index(fresh));
    }
    let mut b = TopologyBuilder::new(keep.len());
    for (_, c) in t.channels() {
        if let (Some(nu), Some(nv)) = (new_id[c.u.index()], new_id[c.v.index()]) {
            b.channel(nu, nv, c.capacity).expect("induced edge");
        }
    }
    b.build()
}

/// The largest connected component as a re-densified topology.
/// (Ties broken toward the component with the smallest member id.)
pub fn largest_component(t: &Topology) -> Topology {
    let comps = connected_components(t);
    match comps.iter().max_by_key(|c| c.len()) {
        Some(best) => induced_subgraph(t, best),
        None => t.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;
    use spider_types::Amount;

    const CAP: Amount = Amount::from_xrp(1);

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    #[test]
    fn components_of_disjoint_lines() {
        // 0-1-2  and  3-4, node 5 isolated.
        let mut b = Topology::builder(6);
        b.channel(n(0), n(1), CAP).unwrap();
        b.channel(n(1), n(2), CAP).unwrap();
        b.channel(n(3), n(4), CAP).unwrap();
        let t = b.build();
        let comps = connected_components(&t);
        assert_eq!(comps.len(), 3);
        assert_eq!(comps[0], vec![n(0), n(1), n(2)]);
        assert_eq!(comps[1], vec![n(3), n(4)]);
        assert_eq!(comps[2], vec![n(5)]);
    }

    #[test]
    fn largest_component_extraction() {
        let mut b = Topology::builder(6);
        b.channel(n(0), n(1), CAP).unwrap();
        b.channel(n(1), n(2), CAP).unwrap();
        b.channel(n(3), n(4), CAP).unwrap();
        let t = b.build();
        let lc = largest_component(&t);
        assert_eq!(lc.node_count(), 3);
        assert_eq!(lc.channel_count(), 2);
        assert!(lc.is_connected());
    }

    #[test]
    fn induced_subgraph_remaps_ids() {
        let t = gen::cycle(5, CAP);
        let sub = induced_subgraph(&t, &[n(1), n(2), n(4)]);
        assert_eq!(sub.node_count(), 3);
        // Only edge 1-2 survives (4 is adjacent to 3 and 0, both dropped).
        assert_eq!(sub.channel_count(), 1);
        assert!(sub.channel_between(n(0), n(1)).is_some());
    }
}
