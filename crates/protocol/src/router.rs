//! The online Spider router: k edge-disjoint paths, price-steered
//! allocation, per-path AIMD windows.
//!
//! [`ProtocolRouter`] is the sender side of §5's protocol. For every
//! (sender, receiver) pair it precomputes `k` edge-disjoint candidate
//! paths (the paper's evaluation uses 4), then on every routing request
//! fills windows cheapest-path-first:
//!
//! 1. each path's AIMD controller ([`crate::rate`]) bounds the value the
//!    sender may have in flight on it;
//! 2. among paths with remaining budget, MTU-sized units go to the path
//!    with the lowest smoothed price ([`crate::price`]), ties broken
//!    toward the shorter (lower-index) path;
//! 3. acknowledgements (delivered/marked/dropped) update both the window
//!    and the price estimate.
//!
//! The router is deliberately ignorant of live channel balances: unlike
//! the offline schemes it steers *only* on the feedback a real Spider
//! host would have — acks and marks — which is what makes it runnable as
//! a fully decentralized protocol.

use crate::price::PathPriceEstimator;
use crate::rate::PathController;
use spider_routing::{Candidates, ChannelBreakers, PathPolicy};
use spider_sim::{
    NetworkView, RouteProposal, RouteRequest, Router, TopologyUpdate, UnitAck, UnitOutcome,
};
use spider_types::{Amount, NodeId, PathId};
use std::ops::Range;

/// One candidate path of a pair and the sender's state for it.
#[derive(Debug, Clone)]
struct Candidate {
    path: PathId,
    controller: PathController,
    price: PathPriceEstimator,
}

/// "Not routed yet" in [`Pairs::counts`].
const UNROUTED: u32 = u32::MAX;

/// "No pair holds this path" in [`Pairs::owner`].
const UNOWNED: u32 = u32::MAX;

/// Per-(sender, receiver) protocol state, kept beside the candidate
/// cache and indexed by the pair's cache slot: every slot's candidates
/// sit in one flat array, `k` to a slot — nothing is allocated per pair,
/// and no map of the router's own finds a pair. A path belongs to one
/// pair (its ends), so `owner`, indexed by interned id, finds an
/// acknowledged path's candidate with two array reads: no hop
/// resolution, no hash, no search.
struct Pairs {
    /// The most candidates a pair can have: the stride of `candidates`.
    k: usize,
    /// Per cache slot: how many candidates the pair has, [`UNROUTED`]
    /// until its first request (a pair's windows exist from then on).
    counts: Vec<u32>,
    /// `k` entries a slot, of which the first `count` mean something.
    candidates: Vec<Candidate>,
    /// Per [`PathId`]: the position in `candidates` of the path while it
    /// is some pair's candidate, [`UNOWNED`] otherwise (never adopted, or
    /// retired by a repair: late acks for it are ignored).
    owner: Vec<u32>,
    /// What a newly adopted path starts from (its `path` is a filler).
    fresh: Candidate,
    /// `adopt`'s staging area.
    staged: Vec<Candidate>,
}

impl Pairs {
    fn new(k: usize) -> Self {
        Pairs {
            k,
            counts: Vec::new(),
            candidates: Vec::new(),
            owner: Vec::new(),
            fresh: Candidate {
                path: PathId(0),
                controller: PathController::new(),
                price: PathPriceEstimator::new(),
            },
            staged: Vec::new(),
        }
    }

    /// Sizes the state once for `slots` pairs and `paths` interned paths
    /// — the prewarm's — so a run whose pairs were all prewarmed never
    /// grows it (nor holds an outgrown copy while it does).
    fn reserve(&mut self, slots: usize, paths: usize) {
        let more = |len: usize, total: usize| total.saturating_sub(len);
        self.counts.reserve_exact(more(self.counts.len(), slots));
        let candidates = more(self.candidates.len(), slots * self.k);
        self.candidates.reserve_exact(candidates);
        self.owner.reserve_exact(more(self.owner.len(), paths));
    }

    /// True once `slot`'s pair has been routed.
    fn routed(&self, slot: u32) -> bool {
        self.counts
            .get(slot as usize)
            .is_some_and(|&count| count != UNROUTED)
    }

    /// Opens `slot` for a pair routed for the first time, with no
    /// candidates yet.
    fn open(&mut self, slot: u32) {
        let slot = slot as usize;
        if self.counts.len() <= slot {
            self.counts.resize(slot + 1, UNROUTED);
            let filled = self.counts.len() * self.k;
            self.candidates.resize(filled, self.fresh.clone());
        }
        self.counts[slot] = 0;
    }

    /// Where the routed `slot`'s candidates are in `candidates`.
    fn span(&self, slot: u32) -> Range<usize> {
        let count = self.counts[slot as usize];
        debug_assert_ne!(count, UNROUTED, "slot {slot} is not routed");
        let at = slot as usize * self.k;
        at..at + count as usize
    }

    /// The routed slots, ascending.
    fn routed_slots(&self) -> impl Iterator<Item = u32> + '_ {
        (0..self.counts.len() as u32).filter(|&slot| self.routed(slot))
    }

    /// Position of the candidate `path` currently is, if any.
    fn owner_of(&self, path: PathId) -> Option<usize> {
        let &at = self.owner.get(path.index())?;
        (at != UNOWNED).then_some(at as usize)
    }

    /// Sum of `slot`'s controller windows.
    fn window_sum(&self, slot: u32) -> Amount {
        let held = &self.candidates[self.span(slot)];
        held.iter().map(|c| c.controller.window()).sum()
    }

    /// Makes `paths` the candidates of the routed `slot`: a path the slot
    /// already holds keeps its AIMD window, in-flight accounting and
    /// smoothed price wherever it lands in the new ordering; a path it no
    /// longer holds loses its owner; a new one starts fresh.
    fn adopt(&mut self, slot: u32, paths: &[PathId]) {
        assert!(paths.len() <= self.k, "more than k = {} paths", self.k);
        let old = self.span(slot);
        for &path in paths {
            let state = self.owner_of(path).map_or(&self.fresh, |at| {
                debug_assert!(old.contains(&at), "{path:?} belongs to another pair");
                &self.candidates[at]
            });
            self.staged.push(Candidate {
                path,
                ..state.clone()
            });
        }
        for retired in &self.candidates[old.clone()] {
            self.owner[retired.path.index()] = UNOWNED;
        }
        self.counts[slot as usize] = paths.len() as u32;
        for (at, adopted) in (old.start..).zip(self.staged.drain(..)) {
            let id = adopted.path.index();
            if self.owner.len() <= id {
                self.owner.resize(id + 1, UNOWNED);
            }
            self.owner[id] = at as u32;
            self.candidates[at] = adopted;
        }
    }
}

/// The §5 protocol router (non-atomic; requires
/// [`QueueingMode::PerChannelFifo`](spider_sim::QueueingMode::PerChannelFifo)
/// for its feedback loop to close — in lockstep mode no acks arrive and
/// windows stay pinned near their initial value).
pub struct ProtocolRouter {
    /// Each pair's candidate paths and their fault cooldowns.
    candidates: Candidates,
    pairs: Pairs,
    /// Sum of every controller's window, kept current wherever a window
    /// is created, dropped or moved — the sampler reads it every simulated
    /// second, and recounting ~10⁵ pairs there cost more than routing.
    /// Integer drops, so the running total is exact and order-free.
    window_total: Amount,
    /// Per-channel shed breakers (empty for the whole run unless
    /// overload shedding fires).
    breakers: ChannelBreakers,
    /// `route`'s per-path scratch, kept so a request costs no allocation
    /// until it has something to propose: what each candidate may still
    /// take, and what it was given.
    budgets: Vec<Amount>,
    allocated: Vec<Amount>,
}

impl ProtocolRouter {
    /// Creates the router with `k` edge-disjoint candidate paths per pair
    /// (the paper uses 4).
    pub fn new(k: usize) -> Self {
        ProtocolRouter {
            candidates: Candidates::new(PathPolicy::EdgeDisjoint(k)),
            pairs: Pairs::new(k),
            window_total: Amount::ZERO,
            breakers: ChannelBreakers::default(),
            budgets: Vec::new(),
            allocated: Vec::new(),
        }
    }

    /// The candidates of `(src, dst)` once it has been routed, best first.
    #[cfg(test)]
    fn held(&self, src: NodeId, dst: NodeId) -> Option<&[Candidate]> {
        let slot = self.candidates.cache().slot(src, dst)?;
        let pairs = &self.pairs;
        pairs
            .routed(slot)
            .then(|| &pairs.candidates[pairs.span(slot)])
    }

    /// Moves `pair` onto the candidates the cache now has for it — on
    /// its first request, which opens its slot, or after a repair — and
    /// carries the change of its windows into the total. Returns the
    /// slot. (The cache counts the lookup: a hit, or a miss that fills
    /// the pair.)
    fn adopt_cached(&mut self, pair: (NodeId, NodeId), view: &NetworkView<'_>) -> u32 {
        let slot = self.candidates.get_slot(pair.0, pair.1, view);
        if !self.pairs.routed(slot) {
            self.pairs.open(slot);
        }
        let before = self.pairs.window_sum(slot);
        self.pairs
            .adopt(slot, self.candidates.cache().candidates(slot));
        self.window_total += self.pairs.window_sum(slot);
        self.window_total -= before;
        slot
    }
}

/// Runs `step` on `controller` and carries its window change into `total`.
fn tracked(
    total: &mut Amount,
    controller: &mut PathController,
    step: impl FnOnce(&mut PathController),
) {
    let before = controller.window();
    step(controller);
    *total += controller.window();
    *total -= before;
}

impl Router for ProtocolRouter {
    fn name(&self) -> &'static str {
        "spider-protocol"
    }

    fn wants_prewarm(&self) -> bool {
        true
    }

    fn prewarm(&mut self, pairs: &[(NodeId, NodeId)], view: &NetworkView<'_>) {
        self.candidates.prewarm(pairs, view);
        let slots = self.candidates.cache().len();
        self.pairs.reserve(slots, view.paths.len());
    }

    fn on_topology_change(&mut self, update: &TopologyUpdate, view: &NetworkView<'_>) {
        for (src, dst) in self.candidates.repair(update, view) {
            // A pair never routed has nothing to migrate.
            if self
                .candidates
                .cache()
                .slot(src, dst)
                .is_some_and(|slot| self.pairs.routed(slot))
            {
                self.adopt_cached((src, dst), view);
            }
        }
    }

    fn route(&mut self, req: &RouteRequest, view: &NetworkView<'_>) -> Vec<RouteProposal> {
        let slot = match self.candidates.cache().slot(req.src, req.dst) {
            Some(slot) if self.pairs.routed(slot) => slot,
            _ => self.adopt_cached((req.src, req.dst), view),
        };
        // Split-borrow the pair state so the cooldowns stay reachable.
        let ProtocolRouter {
            pairs,
            candidates,
            breakers,
            budgets,
            allocated,
            ..
        } = self;
        let held = &pairs.candidates[pairs.span(slot)];
        if held.is_empty() {
            return Vec::new();
        }
        // Fill windows cheapest-path-first against a request-local copy of
        // each path's remaining budget. Prices are fixed for the duration
        // of one request, so the cheapest eligible path absorbs its whole
        // budget at once (identical to the per-MTU reference loop, without
        // the O(units) rescans). A path the sender's probe shows as
        // currently dead (zero bottleneck) is skipped this round — §5.3.1's
        // hosts measure available capacity on their candidate paths, and
        // pushing units at a dead path only converts them into queue drops.
        // A path inside a fault cooldown is likewise skipped, unless every
        // candidate is cooling (a penalized path still beats giving up).
        // A path crossing a shed-tripped circuit breaker is skipped
        // unconditionally — an open breaker means the channel is actively
        // shedding, and fail-fast (retry at the next poll, once it
        // half-opens) is the whole point of tripping it.
        let all_cooled = held.iter().all(|c| candidates.is_cooled(c.path, view.now));
        budgets.clear();
        budgets.extend(held.iter().map(|c| {
            if view.bottleneck(c.path).is_zero() {
                Amount::ZERO
            } else if !all_cooled && candidates.is_cooled(c.path, view.now) {
                candidates.note_skip();
                Amount::ZERO
            } else if !breakers.allow_path(c.path, view) {
                Amount::ZERO
            } else {
                c.controller.budget()
            }
        }));
        // Most requests of a congested run end here: nothing may move.
        // (The engine makes none of those `proposes_nothing` proves.)
        if budgets.iter().all(|b| b.is_zero()) {
            return Vec::new();
        }
        allocated.clear();
        allocated.resize(held.len(), Amount::ZERO);
        let mut remaining = req.remaining;
        while !remaining.is_zero() {
            let mut best: Option<(f64, usize)> = None;
            for (i, budget) in budgets.iter().enumerate() {
                if budget.is_zero() {
                    continue;
                }
                let price = held[i].price.price();
                let better = match best {
                    None => true,
                    Some((bp, _)) => price < bp - 1e-12,
                };
                if better {
                    best = Some((price, i));
                }
            }
            let Some((_, i)) = best else { break };
            let take = budgets[i].min(remaining);
            allocated[i] += take;
            budgets[i] -= take;
            remaining -= take;
        }
        held.iter()
            .zip(allocated.iter())
            .filter(|(_, a)| !a.is_zero())
            .map(|(c, &amount)| RouteProposal {
                path: c.path,
                amount,
            })
            .collect()
    }

    /// The pair's slot, once the pair is routed (`route` then neither
    /// opens nor fills it).
    fn idle_token(&self, req: &RouteRequest) -> Option<u32> {
        let slot = self.candidates.cache().slot(req.src, req.dst)?;
        self.pairs.routed(slot).then_some(slot)
    }

    /// True exactly when `route` would zero every budget without probing
    /// a path: no breaker is tracked (`allow` can move a breaker), and
    /// every candidate has a zero controller budget or is cooling while
    /// some candidate is not. `route`'s only write on the way is
    /// `note_skip`, a counter. On-send and reject only lower budgets, and
    /// only acks and faults (neither comes within a poll) end or start a
    /// cooldown.
    fn proposes_nothing(&self, slot: u32, view: &NetworkView<'_>) -> bool {
        if !self.breakers.is_empty() {
            return false;
        }
        let held = &self.pairs.candidates[self.pairs.span(slot)];
        let cooled = |c: &Candidate| self.candidates.is_cooled(c.path, view.now);
        held.iter()
            .all(|c| c.controller.budget().is_zero() || (cooled(c) && !held.iter().all(cooled)))
    }

    fn on_unit_outcome(&mut self, outcome: &UnitOutcome, view: &NetworkView<'_>) {
        if self.candidates.on_outcome(outcome, view.now) {
            // A post-lock fault notification, not a lock outcome: the
            // unit's send was already observed when it locked, so only
            // the path penalty reacts (double-counting on_send would
            // corrupt the controller's in-flight accounting).
            return;
        }
        let Some(at) = self.pairs.owner_of(outcome.path) else {
            return;
        };
        // Hop-by-hop outcomes come one unit at a time; a lockstep count
        // stands for that many.
        let controller = &mut self.pairs.candidates[at].controller;
        if outcome.locked {
            controller.on_send(outcome.amount * outcome.units);
        } else {
            tracked(&mut self.window_total, controller, |c| {
                for _ in 0..outcome.units {
                    c.on_reject();
                }
            });
        }
    }

    fn on_unit_ack(&mut self, ack: &UnitAck, view: &NetworkView<'_>) {
        self.candidates.on_ack(ack, view.now);
        self.breakers.on_ack(ack, view);
        let Some(at) = self.pairs.owner_of(ack.path) else {
            return;
        };
        let candidate = &mut self.pairs.candidates[at];
        tracked(&mut self.window_total, &mut candidate.controller, |c| {
            c.on_ack(ack.amount, ack.delivered, ack.stamp.marked)
        });
        candidate.price.observe(ack.delivered, &ack.stamp);
    }

    fn window_gauge(&self) -> Option<f64> {
        Some(self.window_total.as_xrp())
    }

    fn observability(&self) -> spider_sim::RouterObs {
        let mut obs = self.candidates.observability();
        obs.counters
            .extend(self.breakers.counters().map(|(k, v)| (k.to_string(), v)));
        // Sorted by pair key so the histogram's fill order (and therefore
        // any serialized form) does not depend on the order pairs were
        // first routed in.
        let mut slots: Vec<u32> = self.pairs.routed_slots().collect();
        let cache = self.candidates.cache();
        slots.sort_unstable_by_key(|&slot| cache.pair(slot));
        for slot in slots {
            let held = &self.pairs.candidates[self.pairs.span(slot)];
            obs.windows_xrp
                .extend(held.iter().map(|c| c.controller.window().as_xrp()));
        }
        obs
    }
}

#[cfg(test)]
#[path = "router_props.rs"]
mod props;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rate::INITIAL_WINDOW;
    use spider_sim::{ChannelState, PathTable};
    use spider_types::{DropReason, MarkStamp, PaymentId, SimDuration, SimTime};

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

    /// Two disjoint 2-hop routes 0→3, via 1 and via 2.
    fn two_routes() -> (spider_topology::Topology, Vec<ChannelState>) {
        let mut b = spider_topology::Topology::builder(4);
        b.channel(NodeId(0), NodeId(1), xrp(2_000)).unwrap();
        b.channel(NodeId(1), NodeId(3), xrp(2_000)).unwrap();
        b.channel(NodeId(0), NodeId(2), xrp(2_000)).unwrap();
        b.channel(NodeId(2), NodeId(3), xrp(2_000)).unwrap();
        let t = b.build();
        let ch = t
            .channels()
            .map(|(_, c)| ChannelState::split_equally(c.capacity))
            .collect();
        (t, ch)
    }

    /// Current AIMD window of one candidate path.
    fn path_window(r: &ProtocolRouter, candidate: usize) -> Option<Amount> {
        let held = r.held(NodeId(0), NodeId(3))?.get(candidate)?;
        Some(held.controller.window())
    }

    /// Current smoothed price of one candidate path.
    fn path_price(r: &ProtocolRouter, candidate: usize) -> Option<f64> {
        let held = r.held(NodeId(0), NodeId(3))?.get(candidate)?;
        Some(held.price.price())
    }

    /// The candidate paths the router holds for a routed pair.
    fn held(r: &ProtocolRouter, src: u32, dst: u32) -> Vec<PathId> {
        let held = r.held(NodeId(src), NodeId(dst)).expect("routed");
        held.iter().map(|c| c.path).collect()
    }

    fn marked_stamp() -> MarkStamp {
        let mut s = MarkStamp::CLEAR;
        s.absorb(1.0, true, SimDuration::from_millis(200));
        s
    }

    fn ack(path: PathId, amount: Amount, delivered: bool, stamp: MarkStamp) -> UnitAck {
        UnitAck {
            payment: PaymentId(0),
            path,
            amount,
            delivered,
            stamp,
            drop_reason: None,
            drop_channel: None,
            rtt: SimDuration::from_millis(520),
        }
    }

    #[test]
    fn splits_across_paths_within_windows() {
        let (t, ch) = two_routes();
        let paths = PathTable::new();
        let view = NetworkView {
            topo: &t,
            channels: &ch,
            paths: &paths,
            now: SimTime::ZERO,
        };
        let mut r = ProtocolRouter::new(4);
        let props = r.route(&req(0, 3, xrp(1_000), xrp(10)), &view);
        // Two candidate paths, a 200 XRP window each → 400 XRP proposed.
        let total: Amount = props.iter().map(|p| p.amount).sum();
        assert_eq!(total, INITIAL_WINDOW + INITIAL_WINDOW);
        assert_eq!(props.len(), 2);
    }

    #[test]
    fn inflight_consumes_budget_until_acked() {
        let (t, ch) = two_routes();
        let paths = PathTable::new();
        let view = NetworkView {
            topo: &t,
            channels: &ch,
            paths: &paths,
            now: SimTime::ZERO,
        };
        let mut r = ProtocolRouter::new(4);
        let props = r.route(&req(0, 3, xrp(1_000), xrp(10)), &view);
        assert_eq!(
            props.iter().map(|p| p.amount).sum::<Amount>(),
            INITIAL_WINDOW + INITIAL_WINDOW
        );
        // Report every proposed unit as accepted.
        for p in &props {
            for unit in p.amount.mtu_chunks(xrp(10)) {
                let o = UnitOutcome {
                    payment: PaymentId(0),
                    path: p.path,
                    amount: unit,
                    units: 1,
                    locked: true,
                    fault: None,
                };
                r.on_unit_outcome(&o, &view);
            }
        }
        // Windows are full: nothing more to propose.
        let empty = r.route(&req(0, 3, xrp(1_000), xrp(10)), &view);
        assert!(empty.is_empty(), "in-flight value must consume the window");
        // Acking releases budget (and clean acks grow it).
        let path = props[0].path;
        r.on_unit_ack(&ack(path, xrp(10), true, MarkStamp::CLEAR), &view);
        let again = r.route(&req(0, 3, xrp(1_000), xrp(10)), &view);
        assert!(!again.is_empty());
    }

    /// The promise holds while every window is full, or cooling beside
    /// one that is not; an ack, a cooldown on every candidate or a
    /// tracked breaker withdraws it.
    #[test]
    fn proposes_nothing_exactly_when_route_zeroes_every_budget() {
        let (t, ch) = two_routes();
        let paths = PathTable::new();
        let mut view = NetworkView {
            topo: &t,
            channels: &ch,
            paths: &paths,
            now: SimTime::ZERO,
        };
        let mut r = ProtocolRouter::new(4);
        let request = req(0, 3, xrp(1_000), xrp(10));
        assert_eq!(r.idle_token(&request), None, "not routed yet");
        let props = r.route(&request, &view);
        let slot = r.idle_token(&request).expect("routed");
        assert!(!r.proposes_nothing(slot, &view), "windows are open");
        let send = |r: &mut ProtocolRouter, p: &RouteProposal, view: &NetworkView<'_>| {
            let o = UnitOutcome {
                payment: PaymentId(0),
                path: p.path,
                amount: p.amount,
                units: 1,
                locked: true,
                fault: None,
            };
            r.on_unit_outcome(&o, view);
        };
        send(&mut r, &props[0], &view);
        assert!(!r.proposes_nothing(slot, &view), "one window is open");
        send(&mut r, &props[1], &view);
        assert!(r.proposes_nothing(slot, &view));
        assert!(r.route(&request, &view).is_empty());
        // An ack frees budget on the first path; a fault cools it while
        // the second is full and not cooling, so route skips it.
        r.on_unit_ack(&ack(props[0].path, xrp(10), true, MarkStamp::CLEAR), &view);
        assert!(!r.proposes_nothing(slot, &view));
        let fault = |path| UnitOutcome {
            payment: PaymentId(0),
            path,
            amount: xrp(10),
            units: 1,
            locked: true,
            fault: Some(DropReason::MessageLost),
        };
        r.on_unit_outcome(&fault(props[0].path), &view);
        assert!(r.proposes_nothing(slot, &view));
        assert!(r.route(&request, &view).is_empty());
        // Every candidate cooling: route uses the one with budget.
        r.on_unit_outcome(&fault(props[1].path), &view);
        assert!(!r.proposes_nothing(slot, &view));
        let more = r.route(&request, &view);
        assert_eq!(more.len(), 1);
        send(&mut r, &more[0], &view);
        // The cooldowns lapse; every window is full again.
        view.now = SimTime::ZERO + SimDuration::from_secs(1);
        assert!(r.proposes_nothing(slot, &view));
        // A shed strike makes a breaker tracked: `route` may move it.
        let mut shed = ack(props[1].path, xrp(10), false, marked_stamp());
        shed.drop_reason = Some(DropReason::Shed);
        shed.drop_channel = Some(t.channel_between(NodeId(2), NodeId(3)).unwrap());
        r.on_unit_ack(&shed, &view);
        assert!(!r.proposes_nothing(slot, &view));
    }

    #[test]
    fn marked_acks_shrink_the_marked_path_only() {
        let (t, ch) = two_routes();
        let paths = PathTable::new();
        let view = NetworkView {
            topo: &t,
            channels: &ch,
            paths: &paths,
            now: SimTime::ZERO,
        };
        let mut r = ProtocolRouter::new(4);
        // Initialize pair state.
        let props = r.route(&req(0, 3, xrp(1), xrp(1)), &view);
        let marked_path = props[0].path;
        let w0 = path_window(&r, 0).unwrap();
        let w1 = path_window(&r, 1).unwrap();
        r.on_unit_ack(&ack(marked_path, xrp(1), true, marked_stamp()), &view);
        assert!(path_window(&r, 0).unwrap() < w0);
        assert_eq!(path_window(&r, 1).unwrap(), w1);
        assert!(path_price(&r, 0).unwrap() > 0.0);
        assert_eq!(path_price(&r, 1).unwrap(), 0.0);
    }

    #[test]
    fn allocation_prefers_the_cheaper_path() {
        let (t, ch) = two_routes();
        let paths = PathTable::new();
        let view = NetworkView {
            topo: &t,
            channels: &ch,
            paths: &paths,
            now: SimTime::ZERO,
        };
        let mut r = ProtocolRouter::new(4);
        let props = r.route(&req(0, 3, xrp(1), xrp(1)), &view);
        // Make path 0 expensive.
        let p0 = props[0].path;
        for _ in 0..4 {
            r.on_unit_ack(&ack(p0, Amount::ZERO, true, marked_stamp()), &view);
        }
        // A small request now goes entirely to the other path.
        let props = r.route(&req(0, 3, xrp(5), xrp(5)), &view);
        assert_eq!(props.len(), 1);
        assert_ne!(props[0].path, p0);
    }

    #[test]
    fn unreachable_pair_proposes_nothing() {
        let mut b = spider_topology::Topology::builder(3);
        b.channel(NodeId(0), NodeId(1), xrp(10)).unwrap();
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
        let mut r = ProtocolRouter::new(4);
        assert!(r.route(&req(0, 2, xrp(1), xrp(1)), &view).is_empty());
    }

    #[test]
    fn topology_change_migrates_surviving_path_state() {
        let (t, ch) = two_routes();
        let paths = PathTable::new();
        let view = NetworkView {
            topo: &t,
            channels: &ch,
            paths: &paths,
            now: SimTime::ZERO,
        };
        let mut r = ProtocolRouter::new(4);
        let props = r.route(&req(0, 3, xrp(1), xrp(1)), &view);
        assert_eq!(held(&r, 0, 3).len(), 2);
        // Make path 0 (via node 1) expensive and remember its state.
        let p0 = props[0].path;
        r.on_unit_ack(&ack(p0, Amount::ZERO, true, marked_stamp()), &view);
        let surviving_price = path_price(&r, 0).unwrap();
        let surviving_window = path_window(&r, 0).unwrap();
        assert!(surviving_price > 0.0);
        // Close a channel on the *other* candidate (via node 2).
        let closed = t.channel_between(NodeId(0), NodeId(2)).unwrap();
        let update = spider_sim::TopologyUpdate {
            closed: vec![closed],
            ..Default::default()
        };
        r.on_topology_change(&update, &view);
        let paths = held(&r, 0, 3);
        assert_eq!(paths, [p0], "only the surviving route remains");
        assert_eq!(path_price(&r, 0), Some(surviving_price));
        assert_eq!(path_window(&r, 0), Some(surviving_window));
        // Reopen: the pair regains both candidates; the survivor keeps its
        // state, the reborn path starts fresh.
        let update = spider_sim::TopologyUpdate {
            opened: vec![closed],
            ..Default::default()
        };
        r.on_topology_change(&update, &view);
        let paths = held(&r, 0, 3);
        assert_eq!(paths.len(), 2);
        let i0 = paths.iter().position(|&p| p == p0).unwrap();
        assert_eq!(path_price(&r, i0), Some(surviving_price));
        let fresh = 1 - i0;
        assert_eq!(path_price(&r, fresh), Some(0.0));
    }

    /// The O(1) gauge is a running total; it must equal a recount of every
    /// controller after windows were created (first route), shrunk
    /// (marked ack, reject), grown (clean ack), dropped and re-created
    /// (close / reopen migration).
    #[test]
    fn window_gauge_running_total_equals_recount() {
        fn recount(r: &ProtocolRouter) -> Amount {
            let slots = r.pairs.routed_slots();
            slots.map(|slot| r.pairs.window_sum(slot)).sum()
        }
        let (t, ch) = two_routes();
        let paths = PathTable::new();
        let view = NetworkView {
            topo: &t,
            channels: &ch,
            paths: &paths,
            now: SimTime::ZERO,
        };
        let mut r = ProtocolRouter::new(4);
        assert_eq!(r.window_gauge(), Some(0.0));
        r.route(&req(0, 3, xrp(1), xrp(1)), &view);
        r.route(&req(3, 0, xrp(1), xrp(1)), &view);
        assert_eq!(r.window_total, xrp(800), "two pairs x two paths x 200");
        let candidates = held(&r, 0, 3);
        assert_eq!(candidates.len(), 2);
        for (k, &path) in candidates.iter().enumerate() {
            r.on_unit_ack(&ack(path, xrp(1), true, marked_stamp()), &view);
            r.on_unit_ack(&ack(path, xrp(1), k == 0, MarkStamp::CLEAR), &view);
            let rejected = UnitOutcome {
                payment: PaymentId(0),
                path,
                amount: xrp(1),
                units: 1,
                locked: false,
                fault: None,
            };
            r.on_unit_outcome(&rejected, &view);
            assert_eq!(r.window_total, recount(&r));
        }
        assert_ne!(r.window_total, xrp(800), "the sequence moved windows");
        // Close, then reopen, one candidate's first hop; acks for a
        // retired path must not touch the total either.
        let hop: Vec<_> = t
            .channel_between(NodeId(0), NodeId(2))
            .into_iter()
            .collect();
        for (closed, opened) in [(hop.clone(), vec![]), (vec![], hop)] {
            let update = spider_sim::TopologyUpdate {
                closed,
                opened,
                ..Default::default()
            };
            r.on_topology_change(&update, &view);
            assert_eq!(r.window_total, recount(&r));
            for &path in &candidates {
                r.on_unit_ack(&ack(path, xrp(1), true, MarkStamp::CLEAR), &view);
            }
            assert_eq!(r.window_total, recount(&r));
        }
        assert_eq!(r.window_gauge(), Some(recount(&r).as_xrp()));
    }

    /// What the router keeps per candidate path: the id, the AIMD window
    /// and in-flight value, and the price estimate — no config.
    #[test]
    fn per_path_state_fits_forty_bytes() {
        assert!(std::mem::size_of::<Candidate>() <= 40);
    }

    /// The prewarm sizes the pair state for every prewarmed pair and path
    /// once; routing them all later grows nothing, and only routed pairs
    /// hold windows.
    #[test]
    fn prewarm_sizes_the_pair_state_once() {
        let t = spider_topology::gen::grid(3, 3, xrp(2_000));
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
        let pairs: Vec<(NodeId, NodeId)> = t
            .nodes()
            .flat_map(|s| t.nodes().map(move |d| (s, d)))
            .collect();
        let mut r = ProtocolRouter::new(4);
        r.prewarm(&pairs, &view);
        let capacities = |r: &ProtocolRouter| {
            let p = &r.pairs;
            [
                p.counts.capacity(),
                p.candidates.capacity(),
                p.owner.capacity(),
            ]
        };
        let sized = capacities(&r);
        assert_eq!(sized, [pairs.len(), pairs.len() * 4, paths.len()]);
        assert_eq!(r.window_gauge(), Some(0.0), "no pair routed yet");
        for &(src, dst) in pairs.iter().rev() {
            r.route(&req(src.0, dst.0, xrp(1), xrp(1)), &view);
        }
        assert_eq!(capacities(&r), sized);
        assert_eq!(r.pairs.routed_slots().count(), pairs.len());
    }

    #[test]
    fn not_atomic_and_named() {
        let r = ProtocolRouter::new(4);
        assert!(!r.atomic());
        assert_eq!(r.name(), "spider-protocol");
    }
}
