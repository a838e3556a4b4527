//! SilentWhispers-style landmark routing.
//!
//! Landmark routing "stores routing tables for the rest of the network at
//! select routers (landmarks); individual nodes only need to route
//! transactions to a landmark" (§3). Following SilentWhispers, a payment
//! is split into equal shares, one per landmark; each share travels
//! `source → landmark → destination`. Delivery is **atomic**: if any share
//! cannot be locked, the whole payment fails.
//!
//! Landmarks are the highest-degree nodes, the standard choice in the
//! SilentWhispers/SpeedyMurmurs artifact.

use spider_sim::{NetworkView, RouteProposal, RouteRequest, Router};
use spider_topology::Topology;
use spider_types::NodeId;

/// Atomic landmark-routing scheme.
#[derive(Debug)]
pub struct SilentWhispers {
    landmarks: Vec<NodeId>,
}

impl SilentWhispers {
    /// Creates the scheme with the `n_landmarks` highest-degree nodes of
    /// `topo` as landmarks (ties broken toward smaller ids).
    pub fn new(topo: &Topology, n_landmarks: usize) -> Self {
        assert!(n_landmarks >= 1, "need at least one landmark");
        let mut nodes: Vec<NodeId> = topo.nodes().collect();
        nodes.sort_by_key(|&n| (std::cmp::Reverse(topo.degree(n)), n));
        nodes.truncate(n_landmarks);
        SilentWhispers { landmarks: nodes }
    }

    /// The landmark set.
    pub fn landmarks(&self) -> &[NodeId] {
        &self.landmarks
    }

    /// `src → lm → dst` with loops erased; `None` if either leg is
    /// unreachable.
    fn via_landmark(topo: &Topology, src: NodeId, lm: NodeId, dst: NodeId) -> Option<Vec<NodeId>> {
        let up = topo.shortest_path(src, lm)?;
        let down = topo.shortest_path(lm, dst)?;
        let mut combined = up;
        combined.extend_from_slice(&down[1..]);
        Some(erase_loops(combined))
    }
}

/// Removes loops from a walk while keeping it a valid walk: whenever a node
/// repeats, everything between its two occurrences is dropped.
fn erase_loops(walk: Vec<NodeId>) -> Vec<NodeId> {
    let mut out: Vec<NodeId> = Vec::with_capacity(walk.len());
    for node in walk {
        if let Some(pos) = out.iter().position(|&n| n == node) {
            out.truncate(pos + 1);
        } else {
            out.push(node);
        }
    }
    out
}

impl Router for SilentWhispers {
    fn name(&self) -> &'static str {
        "silentwhispers"
    }

    fn atomic(&self) -> bool {
        true
    }

    fn route(&mut self, req: &RouteRequest, view: &NetworkView<'_>) -> Vec<RouteProposal> {
        // Distinct landmark paths.
        let mut paths: Vec<Vec<NodeId>> = Vec::new();
        for &lm in &self.landmarks {
            if let Some(p) = Self::via_landmark(view.topo, req.src, lm, req.dst) {
                if p.len() >= 2 && !paths.contains(&p) {
                    paths.push(p);
                }
            }
        }
        if paths.is_empty() {
            return Vec::new();
        }
        // Equal shares; the integer remainder rides on the first share.
        let n = paths.len() as u64;
        let share = req.remaining / n;
        let remainder = req.remaining - share * n;
        paths
            .into_iter()
            .enumerate()
            .map(|(i, path)| RouteProposal {
                path: view.intern(&path),
                amount: if i == 0 { share + remainder } else { share },
            })
            .filter(|p| !p.amount.is_zero())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spider_sim::{ChannelState, PathTable};
    use spider_topology::gen;
    use spider_types::{PaymentId, SimTime};

    use spider_types::Amount;

    fn xrp(x: u64) -> Amount {
        Amount::from_xrp(x)
    }

    fn req(src: u32, dst: u32, amount: Amount) -> RouteRequest {
        RouteRequest {
            payment: PaymentId(0),
            src: NodeId(src),
            dst: NodeId(dst),
            remaining: amount,
            total: amount,
            mtu: xrp(1_000),
            attempt: 0,
        }
    }

    #[test]
    fn landmarks_are_highest_degree() {
        let t = gen::star(6, xrp(10)); // hub = node 0
        let sw = SilentWhispers::new(&t, 2);
        assert_eq!(sw.landmarks()[0], NodeId(0));
        // Remaining landmarks are leaves; smallest id wins the tie.
        assert_eq!(sw.landmarks()[1], NodeId(1));
    }

    #[test]
    fn loop_erasure() {
        let walk = vec![NodeId(0), NodeId(1), NodeId(2), NodeId(1), NodeId(3)];
        assert_eq!(erase_loops(walk), vec![NodeId(0), NodeId(1), NodeId(3)]);
        let no_loop = vec![NodeId(0), NodeId(1)];
        assert_eq!(erase_loops(no_loop.clone()), no_loop);
    }

    #[test]
    fn shares_sum_to_amount() {
        let t = gen::isp_topology(xrp(100));
        let ch: Vec<ChannelState> = t
            .channels()
            .map(|(_, c)| ChannelState::split_equally(c.capacity))
            .collect();
        let paths = PathTable::new();
        let view = NetworkView {
            topo: &t,
            channels: &ch,
            paths: &paths,
            now: SimTime::ZERO,
        };
        let mut sw = SilentWhispers::new(&t, 3);
        let amount = Amount::from_drops(10_000_001); // indivisible by 3
        let props = sw.route(&req(8, 20, amount), &view);
        assert!(!props.is_empty());
        assert_eq!(props.iter().map(|p| p.amount).sum::<Amount>(), amount);
        for p in &props {
            assert_eq!(view.path(p.path).source(), NodeId(8));
            assert_eq!(view.path(p.path).dest(), NodeId(20));
            // Loopless.
            let nodes = view.path(p.path).nodes().to_vec();
            let mut s = nodes.clone();
            s.sort_unstable();
            s.dedup();
            assert_eq!(s.len(), nodes.len());
        }
    }

    #[test]
    fn landmark_on_endpoint_is_fine() {
        let t = gen::line(3, xrp(10));
        let ch: Vec<ChannelState> = t
            .channels()
            .map(|(_, c)| ChannelState::split_equally(c.capacity))
            .collect();
        let paths = PathTable::new();
        let view = NetworkView {
            topo: &t,
            channels: &ch,
            paths: &paths,
            now: SimTime::ZERO,
        };
        // Landmark will be node 1 (highest degree); route 1 → 2.
        let mut sw = SilentWhispers::new(&t, 1);
        let props = sw.route(&req(1, 2, xrp(1)), &view);
        assert_eq!(props.len(), 1);
        assert_eq!(view.path(props[0].path).nodes(), vec![NodeId(1), NodeId(2)]);
    }

    #[test]
    fn unreachable_gives_nothing() {
        let mut b = spider_topology::Topology::builder(4);
        b.channel(NodeId(0), NodeId(1), xrp(5)).unwrap();
        b.channel(NodeId(2), NodeId(3), xrp(5)).unwrap();
        let t = b.build();
        let ch: Vec<ChannelState> = t
            .channels()
            .map(|(_, c)| ChannelState::split_equally(c.capacity))
            .collect();
        let paths = PathTable::new();
        let view = NetworkView {
            topo: &t,
            channels: &ch,
            paths: &paths,
            now: SimTime::ZERO,
        };
        let mut sw = SilentWhispers::new(&t, 2);
        assert!(sw.route(&req(0, 3, xrp(1)), &view).is_empty());
    }

    #[test]
    fn is_atomic() {
        let t = gen::line(2, xrp(1));
        assert!(SilentWhispers::new(&t, 1).atomic());
    }
}
