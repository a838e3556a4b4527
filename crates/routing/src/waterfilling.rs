//! Spider (Waterfilling).
//!
//! The quickly-converging heuristic of §5.3.1: "sources … always sending
//! on paths with the largest available capacity, much like waterfilling
//! algorithms for max-min fairness. A source measures the available
//! capacity on a set of paths to the destination. It then first transmits
//! on the path with highest capacity until its capacity is the same as the
//! second-highest-capacity path; then it transmits on both … and so on."
//!
//! The discrete reference dynamics allocate the payment in MTU-sized
//! units, each to the candidate path with the largest *residual*
//! bottleneck (ties: lowest index, i.e. the shorter path). A large payment
//! over a small MTU makes that loop O(units × k); [`waterfill`] computes
//! the identical allocation in closed form by binary-searching the water
//! level over the k residual progressions — O(k log max-residual).

use crate::backoff::Candidates;
use crate::cache::PathPolicy;
use spider_sim::{NetworkView, RouteProposal, RouteRequest, Router, TopologyUpdate};
use spider_types::{Amount, NodeId};

/// The exact fixed point of the discrete waterfilling loop.
///
/// Reference semantics being reproduced: repeatedly pick the path with
/// the largest current residual (ties to the lowest index) and allocate
/// `min(mtu, remaining, residual)` to it, until `remaining` or every
/// residual is exhausted.
///
/// Each path's residual walks the arithmetic progression
/// `b_i, b_i − mtu, b_i − 2·mtu, …`, and the loop consumes chunks in
/// globally non-increasing residual order (ties by index). The final
/// allocation is therefore determined by a *water level* `v*` — the
/// lowest residual value at which a chunk is still taken — found here by
/// binary search, with the partial boundary chunk resolved in index
/// order, exactly as the loop would.
pub fn waterfill(residuals: &[Amount], remaining: Amount, mtu: Amount) -> Vec<Amount> {
    let mut alloc = Vec::new();
    let mut scratch = Vec::new();
    waterfill_into(residuals, remaining, mtu, &mut alloc, &mut scratch);
    alloc.into_iter().map(Amount::from_drops).collect()
}

/// [`waterfill`] without its allocations: writes the allocation (drops)
/// into `alloc` and uses `scratch` for the reference-dynamics fallback.
/// The routing hot path calls this ~10⁵ times per simulated run with
/// recycled buffers.
pub fn waterfill_into(
    residuals: &[Amount],
    remaining: Amount,
    mtu: Amount,
    alloc: &mut Vec<u64>,
    scratch: &mut Vec<u64>,
) {
    let m = mtu.drops();
    assert!(m > 0, "MTU must be positive");
    let r_total = remaining.drops();
    alloc.clear();
    alloc.resize(residuals.len(), 0);
    if r_total == 0 {
        return;
    }
    let capacity: u128 = residuals.iter().map(|a| a.drops() as u128).sum();
    if capacity <= r_total as u128 {
        // The loop runs every residual dry.
        for (a, r) in alloc.iter_mut().zip(residuals) {
            *a = r.drops();
        }
        return;
    }
    // Fast path: if the whole request fits strictly inside the gap
    // between the widest path and the runner-up, every chunk goes to the
    // widest path (it stays the strict maximum throughout) — one O(k)
    // scan, no search. This is the overwhelming common case under SRPT,
    // which retries small remainders first.
    {
        let (mut best, mut r1, mut r2) = (0usize, 0u64, 0u64);
        for (i, ri) in residuals.iter().enumerate() {
            let bi = ri.drops();
            if bi > r1 {
                r2 = r1;
                r1 = bi;
                best = i;
            } else if bi > r2 {
                r2 = bi;
            }
        }
        if r1 > r_total && r1 - r_total > r2 {
            alloc[best] = r_total;
            return;
        }
    }
    // Small requests take fewer chunks than the water-level search costs;
    // run the reference dynamics directly (identical output, and the
    // common case under SRPT, which retries small remainders first).
    if r_total.div_ceil(m) <= 64 {
        let residual = scratch;
        residual.clear();
        residual.extend(residuals.iter().map(|a| a.drops()));
        let mut rem = r_total;
        while rem > 0 {
            let Some(best) = (0..residual.len())
                .filter(|&i| residual[i] > 0)
                .max_by(|&a, &b| residual[a].cmp(&residual[b]).then(b.cmp(&a)))
            else {
                break;
            };
            let unit = m.min(rem).min(residual[best]);
            alloc[best] += unit;
            residual[best] -= unit;
            rem -= unit;
        }
        return;
    }
    // Allocation from all chunks whose starting residual exceeds `v`:
    // path i contributes ceil((b_i − v) / m) chunks of m, capped at b_i
    // (the last progression term is a partial chunk).
    let above = |v: u64| -> u128 {
        residuals
            .iter()
            .map(|ri| {
                let bi = ri.drops();
                if bi > v {
                    let n = (bi - v).div_ceil(m) as u128;
                    (n * m as u128).min(bi as u128)
                } else {
                    0
                }
            })
            .sum()
    };
    // Water level v* = the largest v ≥ 1 whose chunks-at-or-above cover
    // the request: above(v−1) counts chunks with starting residual ≥ v.
    // above(0) = capacity > remaining guarantees the invariant at lo = 1.
    let (mut lo, mut hi) = (1u64, residuals.iter().map(|a| a.drops()).max().unwrap_or(0));
    while lo < hi {
        let mid = lo + (hi - lo).div_ceil(2);
        if above(mid - 1) >= r_total as u128 {
            lo = mid;
        } else {
            hi = mid - 1;
        }
    }
    let v_star = lo;
    // Chunks strictly above the water level are taken in full…
    let mut cum = 0u64;
    for (a, ri) in alloc.iter_mut().zip(residuals) {
        let bi = ri.drops();
        if bi > v_star {
            let n = (bi - v_star).div_ceil(m);
            *a = (n * m).min(bi);
            cum += *a;
        }
    }
    debug_assert!(cum < r_total);
    // …then the chunks *at* the water level go in index order (the loop's
    // tie-break), the last one truncated to the remaining budget.
    for (a, ri) in alloc.iter_mut().zip(residuals) {
        if cum == r_total {
            break;
        }
        let bi = ri.drops();
        if bi >= v_star && (bi - v_star) % m == 0 {
            let chunk = m.min(v_star).min(r_total - cum);
            *a += chunk;
            cum += chunk;
        }
    }
    debug_assert_eq!(cum, r_total, "water level must cover the request");
}

/// Spider's waterfilling router (non-atomic).
#[derive(Debug)]
pub struct SpiderWaterfilling {
    candidates: Candidates,
    /// Recycled per-call buffers (candidate ids, residuals, allocation,
    /// reference-loop scratch) — the route hot path allocates only its
    /// returned proposals.
    path_ids: Vec<spider_types::PathId>,
    residuals: Vec<Amount>,
    alloc: Vec<u64>,
    scratch: Vec<u64>,
}

impl SpiderWaterfilling {
    /// Creates the router with `k` edge-disjoint candidate paths per pair
    /// (the paper uses 4).
    pub fn new(k: usize) -> Self {
        SpiderWaterfilling {
            candidates: Candidates::new(PathPolicy::EdgeDisjoint(k)),
            path_ids: Vec::new(),
            residuals: Vec::new(),
            alloc: Vec::new(),
            scratch: Vec::new(),
        }
    }
}

impl Router for SpiderWaterfilling {
    fn name(&self) -> &'static str {
        "spider-waterfilling"
    }

    fn wants_prewarm(&self) -> bool {
        true
    }

    fn prewarm(&mut self, pairs: &[(NodeId, NodeId)], view: &NetworkView<'_>) {
        self.candidates.prewarm(pairs, view);
    }

    fn on_topology_change(&mut self, update: &TopologyUpdate, view: &NetworkView<'_>) {
        self.candidates.repair(update, view);
    }

    fn on_unit_outcome(&mut self, outcome: &spider_sim::UnitOutcome, view: &NetworkView<'_>) {
        self.candidates.on_outcome(outcome, view.now);
    }

    fn on_unit_ack(&mut self, ack: &spider_sim::UnitAck, view: &NetworkView<'_>) {
        self.candidates.on_ack(ack, view.now);
    }

    fn observability(&self) -> spider_sim::RouterObs {
        self.candidates.observability()
    }

    fn route(&mut self, req: &RouteRequest, view: &NetworkView<'_>) -> Vec<RouteProposal> {
        let SpiderWaterfilling {
            candidates,
            path_ids,
            residuals,
            alloc,
            scratch,
        } = self;
        // Candidates inside a fault cooldown sit this round out (no-op in
        // fault-free runs; an all-cooled slate is kept whole).
        candidates.usable(req, view, path_ids);
        if path_ids.is_empty() {
            return Vec::new();
        }
        // Current bottleneck per candidate path, over pre-resolved hops.
        residuals.clear();
        residuals.extend(path_ids.iter().map(|&id| view.bottleneck(id)));
        waterfill_into(residuals, req.remaining, req.mtu, alloc, scratch);
        path_ids
            .iter()
            .zip(alloc.iter())
            .filter(|(_, &a)| a != 0)
            .map(|(&path, &amount)| RouteProposal {
                path,
                amount: Amount::from_drops(amount),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spider_sim::{ChannelState, PathTable};
    use spider_types::{DetRng, Direction, NodeId, PaymentId, SimTime};

    fn xrp(x: u64) -> Amount {
        Amount::from_xrp(x)
    }

    fn req(src: u32, dst: u32, amount: Amount, mtu: Amount) -> RouteRequest {
        RouteRequest {
            payment: PaymentId(0),
            src: NodeId(src),
            dst: NodeId(dst),
            remaining: amount,
            total: amount,
            mtu,
            attempt: 0,
        }
    }

    /// Diamond with asymmetric capacities: direct 0-3 thin, detours fat.
    fn diamond() -> (spider_topology::Topology, Vec<ChannelState>) {
        let mut b = spider_topology::Topology::builder(4);
        b.channel(NodeId(0), NodeId(3), xrp(4)).unwrap(); // direct: 2 avail
        b.channel(NodeId(0), NodeId(1), xrp(20)).unwrap();
        b.channel(NodeId(1), NodeId(3), xrp(20)).unwrap();
        b.channel(NodeId(0), NodeId(2), xrp(12)).unwrap();
        b.channel(NodeId(2), NodeId(3), xrp(12)).unwrap();
        let t = b.build();
        let ch: Vec<ChannelState> = t
            .channels()
            .map(|(_, c)| ChannelState::split_equally(c.capacity))
            .collect();
        (t, ch)
    }

    /// The pre-closed-form reference dynamics, kept verbatim for the
    /// equivalence tests below.
    fn reference_waterfill(residuals: &[Amount], remaining: Amount, mtu: Amount) -> Vec<Amount> {
        let mut residual = residuals.to_vec();
        let mut allocated = vec![Amount::ZERO; residuals.len()];
        let mut remaining = remaining;
        while !remaining.is_zero() {
            let Some(best) = (0..residual.len())
                .filter(|&i| !residual[i].is_zero())
                .max_by(|&a, &b| residual[a].cmp(&residual[b]).then(b.cmp(&a)))
            else {
                break;
            };
            let unit = mtu.min(remaining).min(residual[best]);
            allocated[best] += unit;
            residual[best] -= unit;
            remaining -= unit;
        }
        allocated
    }

    fn path_nodes(view: &NetworkView<'_>, p: &RouteProposal) -> Vec<NodeId> {
        view.path(p.path).nodes().to_vec()
    }

    #[test]
    fn closed_form_matches_reference_loop_exhaustively() {
        // Deterministic fuzz over residual sets, MTUs, and request sizes,
        // including exact ties and non-multiple remainders.
        let mut rng = DetRng::new(99);
        for case in 0..2_000 {
            let k = 1 + rng.index(6);
            let residuals: Vec<Amount> = (0..k)
                .map(|_| {
                    Amount::from_drops(if rng.chance(0.2) {
                        0
                    } else {
                        rng.range_u64(1, 500)
                    })
                })
                .collect();
            let mtu = Amount::from_drops(rng.range_u64(1, 40));
            let remaining = Amount::from_drops(rng.range_u64(1, 1_200));
            let fast = waterfill(&residuals, remaining, mtu);
            let slow = reference_waterfill(&residuals, remaining, mtu);
            assert_eq!(
                fast, slow,
                "case {case}: residuals {residuals:?} remaining {remaining:?} mtu {mtu:?}"
            );
        }
    }

    #[test]
    fn closed_form_handles_edge_cases() {
        let b = |xs: &[u64]| {
            xs.iter()
                .map(|&x| Amount::from_drops(x))
                .collect::<Vec<_>>()
        };
        // Capacity below the request: everything drains.
        assert_eq!(
            waterfill(&b(&[5, 3]), Amount::from_drops(100), Amount::from_drops(4)),
            b(&[5, 3])
        );
        // Exact ties resolve toward the lowest index.
        assert_eq!(
            waterfill(&b(&[10, 10]), Amount::from_drops(3), Amount::from_drops(3)),
            b(&[3, 0])
        );
        // Zero request, zero residuals.
        assert_eq!(waterfill(&b(&[10]), Amount::ZERO, Amount::DROP), b(&[0]));
        assert_eq!(
            waterfill(&[], Amount::from_drops(5), Amount::DROP),
            Vec::<Amount>::new()
        );
    }

    #[test]
    fn prefers_widest_path_first() {
        let (t, ch) = diamond();
        let paths = PathTable::new();
        let view = NetworkView {
            topo: &t,
            channels: &ch,
            paths: &paths,
            now: SimTime::ZERO,
        };
        let mut r = SpiderWaterfilling::new(4);
        // 3 XRP with MTU 1: all three units fit on the 10-XRP detour
        // (residuals: direct 2, via-1 10, via-2 6).
        let props = r.route(&req(0, 3, xrp(3), xrp(1)), &view);
        assert_eq!(props.len(), 1);
        assert_eq!(
            path_nodes(&view, &props[0]),
            vec![NodeId(0), NodeId(1), NodeId(3)]
        );
        assert_eq!(props[0].amount, xrp(3));
    }

    #[test]
    fn spreads_across_paths_when_large() {
        let (t, ch) = diamond();
        let paths = PathTable::new();
        let view = NetworkView {
            topo: &t,
            channels: &ch,
            paths: &paths,
            now: SimTime::ZERO,
        };
        let mut r = SpiderWaterfilling::new(4);
        // 14 XRP: waterfills via-1 (10 avail) down toward via-2 (6) and
        // direct (2). Expected split: via-1 gets 9, via-2 gets 5 — both
        // equalize at residual 1 — then direct 2 is still below; remaining
        // 0. Allocation: 9 + 5 = 14.
        let props = r.route(&req(0, 3, xrp(14), xrp(1)), &view);
        let total: Amount = props.iter().map(|p| p.amount).sum();
        assert_eq!(total, xrp(14));
        assert!(props.len() >= 2);
        // The widest path must carry the largest share.
        let via1 = props
            .iter()
            .find(|p| path_nodes(&view, p) == vec![NodeId(0), NodeId(1), NodeId(3)])
            .expect("widest path used");
        for p in &props {
            assert!(via1.amount >= p.amount);
        }
    }

    #[test]
    fn allocation_capped_by_total_capacity() {
        let (t, ch) = diamond();
        let paths = PathTable::new();
        let view = NetworkView {
            topo: &t,
            channels: &ch,
            paths: &paths,
            now: SimTime::ZERO,
        };
        let mut r = SpiderWaterfilling::new(4);
        // Ask for far more than the network can hold: 2 + 10 + 6 = 18 max.
        let props = r.route(&req(0, 3, xrp(100), xrp(1)), &view);
        let total: Amount = props.iter().map(|p| p.amount).sum();
        assert_eq!(total, xrp(18));
    }

    #[test]
    fn skips_empty_paths() {
        let (t, mut ch) = diamond();
        // Drain the direct channel's forward side entirely.
        let direct = t.channel_between(NodeId(0), NodeId(3)).unwrap();
        let avail = ch[direct.index()].available(Direction::Forward);
        assert!(ch[direct.index()].lock(Direction::Forward, avail));
        let paths = PathTable::new();
        let view = NetworkView {
            topo: &t,
            channels: &ch,
            paths: &paths,
            now: SimTime::ZERO,
        };
        let mut r = SpiderWaterfilling::new(4);
        let props = r.route(&req(0, 3, xrp(16), xrp(1)), &view);
        assert!(props
            .iter()
            .all(|p| path_nodes(&view, p) != vec![NodeId(0), NodeId(3)]));
        let total: Amount = props.iter().map(|p| p.amount).sum();
        assert_eq!(total, xrp(16));
    }

    #[test]
    fn unreachable_gives_nothing() {
        let mut b = spider_topology::Topology::builder(3);
        b.channel(NodeId(0), NodeId(1), xrp(2)).unwrap();
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
        assert!(SpiderWaterfilling::new(4)
            .route(&req(0, 2, xrp(1), xrp(1)), &view)
            .is_empty());
    }

    #[test]
    fn not_atomic() {
        assert!(!SpiderWaterfilling::new(4).atomic());
    }
}
