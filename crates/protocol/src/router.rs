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
use crate::rate::{PathController, RateConfig};
use spider_routing::{BackoffConfig, ChannelBreakers, PathCache, PathPenalties, PathPolicy};
use spider_sim::{
    NetworkView, RouteProposal, RouteRequest, Router, TopologyUpdate, UnitAck, UnitOutcome,
};
use spider_types::{Amount, DropReason, IdHashMap, NodeId, PathId};
use std::ops::Range;

/// Tunables of the protocol sender.
#[derive(Debug, Clone)]
pub struct ProtocolConfig {
    /// Per-path AIMD window parameters.
    pub rate: RateConfig,
    /// EWMA weight of each new price observation.
    pub price_gamma: f64,
    /// Price attributed to a dropped unit (see
    /// [`PathPriceEstimator`]).
    pub nack_price: f64,
    /// Fault-backoff cooldown shape (base and doubling cap) for the
    /// per-path penalty table.
    pub backoff: BackoffConfig,
}

impl Default for ProtocolConfig {
    fn default() -> Self {
        ProtocolConfig {
            rate: RateConfig::default(),
            price_gamma: 0.125,
            nack_price: 2.0,
            backoff: BackoffConfig::default(),
        }
    }
}

impl ProtocolConfig {
    /// Checks what the router's controllers and price estimators assert
    /// on; a config that passes builds a router that never panics on it.
    pub fn validate(&self) -> spider_types::Result<()> {
        self.rate.validate()?;
        let invalid = |msg: &str| Err(spider_types::SpiderError::InvalidConfig(msg.into()));
        if !(self.price_gamma > 0.0 && self.price_gamma <= 1.0) {
            return invalid("price gamma must be in (0, 1]");
        }
        if self.nack_price.is_nan() || self.nack_price < 0.0 {
            return invalid("nack price must be non-negative");
        }
        Ok(())
    }
}

/// One candidate path of a pair and the sender's state for it.
#[derive(Debug, Clone)]
struct Candidate {
    path: PathId,
    controller: PathController,
    price: PathPriceEstimator,
}

/// One routed pair.
struct Slot {
    pair: (NodeId, NodeId),
    /// How many candidates the pair has.
    count: u32,
}

/// "No pair holds this path" in [`Pairs::owner`].
const UNOWNED: u32 = u32::MAX;

/// Per-(sender, receiver) protocol state, in the layout of
/// [`PathCache`]: a routed pair owns a dense slot for life, and every
/// slot's candidates sit in one flat array, `k` to a slot — nothing is
/// allocated per pair. A path belongs to one pair (its ends), so `owner`,
/// indexed by interned id, finds an acknowledged path's candidate with
/// two array reads: no hop resolution, no hash, no search.
struct Pairs {
    /// The most candidates a pair can have: the stride of `candidates`.
    k: usize,
    /// Where each routed pair's slot is — `route`'s one hash lookup.
    slot_of: IdHashMap<(NodeId, NodeId), u32>,
    /// The routed pairs, in the order they were first routed.
    slots: Vec<Slot>,
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
    fn new(k: usize, cfg: &ProtocolConfig) -> Self {
        Pairs {
            k,
            slot_of: IdHashMap::default(),
            slots: Vec::new(),
            candidates: Vec::new(),
            owner: Vec::new(),
            fresh: Candidate {
                path: PathId(0),
                controller: PathController::new(&cfg.rate),
                price: PathPriceEstimator::new(cfg.price_gamma, cfg.nack_price),
            },
            staged: Vec::new(),
        }
    }

    /// Gives a pair routed for the first time the next slot, with no
    /// candidates yet.
    fn open(&mut self, pair: (NodeId, NodeId)) -> u32 {
        let slot = self.slots.len() as u32;
        self.slot_of.insert(pair, slot);
        self.slots.push(Slot { pair, count: 0 });
        let filled = self.candidates.len() + self.k;
        self.candidates.resize(filled, self.fresh.clone());
        slot
    }

    /// Where `slot`'s candidates are in `candidates`.
    fn span(&self, slot: u32) -> Range<usize> {
        let at = slot as usize * self.k;
        at..at + self.slots[slot as usize].count as usize
    }

    /// The candidates of `pair`, best first, once it has been routed.
    fn of(&self, pair: (NodeId, NodeId)) -> Option<&[Candidate]> {
        let &slot = self.slot_of.get(&pair)?;
        Some(&self.candidates[self.span(slot)])
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

    /// Makes `paths` the candidates of `slot`: a path the slot already
    /// holds keeps its AIMD window, in-flight accounting and smoothed
    /// price wherever it lands in the new ordering; a path it no longer
    /// holds loses its owner; a new one starts fresh.
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
        self.slots[slot as usize].count = paths.len() as u32;
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
    cfg: ProtocolConfig,
    cache: PathCache,
    pairs: Pairs,
    /// Sum of every controller's window, kept current wherever a window
    /// is created, dropped or moved — the sampler reads it every simulated
    /// second, and recounting ~10⁵ pairs there cost more than routing.
    /// Integer drops, so the running total is exact and order-free.
    window_total: Amount,
    /// Fault cooldowns (empty for the whole run unless faults fire).
    penalties: PathPenalties,
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
    /// (the paper uses 4) and default tunables.
    pub fn new(k: usize) -> Self {
        Self::with_config(k, ProtocolConfig::default())
    }

    /// Creates the router with explicit tunables.
    pub fn with_config(k: usize, cfg: ProtocolConfig) -> Self {
        assert!(k >= 1, "need at least one path");
        assert!(
            cfg.price_gamma > 0.0 && cfg.price_gamma <= 1.0,
            "gamma must be in (0, 1]"
        );
        let penalties = PathPenalties::new(cfg.backoff);
        ProtocolRouter {
            cache: PathCache::new(PathPolicy::EdgeDisjoint(k)),
            pairs: Pairs::new(k, &cfg),
            cfg,
            window_total: Amount::ZERO,
            penalties,
            breakers: ChannelBreakers::default(),
            budgets: Vec::new(),
            allocated: Vec::new(),
        }
    }

    /// Current AIMD window of one candidate path (for tests/telemetry).
    pub fn path_window(&self, src: NodeId, dst: NodeId, candidate: usize) -> Option<Amount> {
        let held = self.pairs.of((src, dst))?.get(candidate)?;
        Some(held.controller.window())
    }

    /// Current smoothed price of one candidate path.
    pub fn path_price(&self, src: NodeId, dst: NodeId, candidate: usize) -> Option<f64> {
        let held = self.pairs.of((src, dst))?.get(candidate)?;
        Some(held.price.price())
    }

    /// Moves `slot` onto the candidates the cache now has for `pair` —
    /// on the pair's first request, or after a repair — and carries the
    /// change of its windows into the total.
    fn adopt_cached(&mut self, slot: u32, pair: (NodeId, NodeId), view: &NetworkView<'_>) {
        let paths = self.cache.get(view.topo, view.paths, pair.0, pair.1);
        let before = self.pairs.window_sum(slot);
        self.pairs.adopt(slot, paths);
        self.window_total += self.pairs.window_sum(slot);
        self.window_total -= before;
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
        self.cache.prefill(view.topo, view.paths, pairs);
    }

    fn on_topology_change(&mut self, update: &TopologyUpdate, view: &NetworkView<'_>) {
        let repaired = self.cache.on_topology_change(view.topo, view.paths, update);
        for pair in repaired {
            // A pair never routed has nothing to migrate.
            if let Some(&slot) = self.pairs.slot_of.get(&pair) {
                self.adopt_cached(slot, pair, view);
            }
        }
    }

    fn route(&mut self, req: &RouteRequest, view: &NetworkView<'_>) -> Vec<RouteProposal> {
        let pair = (req.src, req.dst);
        let slot = match self.pairs.slot_of.get(&pair) {
            Some(&slot) => slot,
            None => {
                let slot = self.pairs.open(pair);
                self.adopt_cached(slot, pair, view);
                slot
            }
        };
        // Split-borrow the pair state so `penalties` stays reachable.
        let ProtocolRouter {
            pairs,
            penalties,
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
        let all_cooled = held.iter().all(|c| penalties.is_cooled(c.path, view.now));
        budgets.clear();
        budgets.extend(held.iter().map(|c| {
            if view.bottleneck(c.path).is_zero() {
                Amount::ZERO
            } else if !all_cooled && penalties.is_cooled(c.path, view.now) {
                penalties.note_skip();
                Amount::ZERO
            } else if !breakers.is_empty()
                && !view
                    .path(c.path)
                    .hops()
                    .iter()
                    .all(|&(ch, _)| breakers.allow(ch, view.now))
            {
                Amount::ZERO
            } else {
                c.controller.budget()
            }
        }));
        // Most requests of a congested run end here: nothing may move.
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

    fn on_unit_outcome(&mut self, outcome: &UnitOutcome, view: &NetworkView<'_>) {
        if outcome.fault.is_some() {
            // A post-lock fault notification, not a lock outcome: the
            // unit's send was already observed when it locked, so only
            // the path penalty reacts (double-counting on_send would
            // corrupt the controller's in-flight accounting).
            self.penalties.on_fault(outcome.path, view.now);
            return;
        }
        let Some(at) = self.pairs.owner_of(outcome.path) else {
            return;
        };
        let controller = &mut self.pairs.candidates[at].controller;
        if outcome.locked {
            controller.on_send(outcome.amount);
        } else {
            tracked(&mut self.window_total, controller, |c| {
                c.on_reject(&self.cfg.rate)
            });
        }
    }

    fn on_unit_ack(&mut self, ack: &UnitAck, view: &NetworkView<'_>) {
        self.penalties
            .on_ack(ack.path, ack.delivered, ack.drop_reason, view.now);
        if ack.drop_reason == Some(DropReason::Shed) {
            if let Some(c) = ack.drop_channel {
                self.breakers.on_strike(c, view.now);
            }
        } else if ack.delivered && !self.breakers.is_empty() {
            for &(c, _) in view.path(ack.path).hops() {
                self.breakers.on_success(c);
            }
        }
        let Some(at) = self.pairs.owner_of(ack.path) else {
            return;
        };
        let candidate = &mut self.pairs.candidates[at];
        tracked(&mut self.window_total, &mut candidate.controller, |c| {
            c.on_ack(ack.amount, ack.delivered, ack.stamp.marked, &self.cfg.rate)
        });
        candidate.price.observe(ack.delivered, &ack.stamp);
    }

    fn window_gauge(&self) -> Option<f64> {
        Some(self.window_total.as_xrp())
    }

    fn observability(&self) -> spider_sim::RouterObs {
        let mut obs = spider_sim::RouterObs::default();
        obs.counters
            .extend(self.cache.counters().map(|(k, v)| (k.to_string(), v)));
        obs.counters
            .extend(self.penalties.counters().map(|(k, v)| (k.to_string(), v)));
        obs.counters
            .extend(self.breakers.counters().map(|(k, v)| (k.to_string(), v)));
        // Sorted by pair key so the histogram's fill order (and therefore
        // any serialized form) does not depend on the order pairs were
        // first routed in.
        let mut slots: Vec<u32> = (0..self.pairs.slots.len() as u32).collect();
        slots.sort_unstable_by_key(|&slot| self.pairs.slots[slot as usize].pair);
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
    use spider_sim::{ChannelState, PathTable};
    use spider_types::{MarkStamp, PaymentId, SimDuration, SimTime};

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

    /// The candidate paths the router holds for a routed pair.
    fn held(r: &ProtocolRouter, src: u32, dst: u32) -> Vec<PathId> {
        let held = r.pairs.of((NodeId(src), NodeId(dst))).expect("routed");
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
        let cfg = ProtocolConfig {
            rate: RateConfig {
                initial_window: xrp(50),
                ..RateConfig::default()
            },
            ..ProtocolConfig::default()
        };
        let mut r = ProtocolRouter::with_config(4, cfg);
        let props = r.route(&req(0, 3, xrp(200), xrp(10)), &view);
        // Two candidate paths, 50 XRP window each → 100 XRP proposed.
        let total: Amount = props.iter().map(|p| p.amount).sum();
        assert_eq!(total, xrp(100));
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
        let cfg = ProtocolConfig {
            rate: RateConfig {
                initial_window: xrp(30),
                ..RateConfig::default()
            },
            ..ProtocolConfig::default()
        };
        let mut r = ProtocolRouter::with_config(4, cfg);
        let props = r.route(&req(0, 3, xrp(100), xrp(10)), &view);
        assert_eq!(props.iter().map(|p| p.amount).sum::<Amount>(), xrp(60));
        // Report every proposed unit as accepted.
        for p in &props {
            for unit in p.amount.mtu_chunks(xrp(10)) {
                let o = UnitOutcome {
                    payment: PaymentId(0),
                    path: p.path,
                    amount: unit,
                    locked: true,
                    fault: None,
                };
                r.on_unit_outcome(&o, &view);
            }
        }
        // Windows are full: nothing more to propose.
        let empty = r.route(&req(0, 3, xrp(100), xrp(10)), &view);
        assert!(empty.is_empty(), "in-flight value must consume the window");
        // Acking releases budget (and clean acks grow it).
        let path = props[0].path;
        r.on_unit_ack(&ack(path, xrp(10), true, MarkStamp::CLEAR), &view);
        let again = r.route(&req(0, 3, xrp(100), xrp(10)), &view);
        assert!(!again.is_empty());
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
        let w0 = r.path_window(NodeId(0), NodeId(3), 0).unwrap();
        let w1 = r.path_window(NodeId(0), NodeId(3), 1).unwrap();
        r.on_unit_ack(&ack(marked_path, xrp(1), true, marked_stamp()), &view);
        assert!(r.path_window(NodeId(0), NodeId(3), 0).unwrap() < w0);
        assert_eq!(r.path_window(NodeId(0), NodeId(3), 1).unwrap(), w1);
        assert!(r.path_price(NodeId(0), NodeId(3), 0).unwrap() > 0.0);
        assert_eq!(r.path_price(NodeId(0), NodeId(3), 1).unwrap(), 0.0);
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
        let surviving_price = r.path_price(NodeId(0), NodeId(3), 0).unwrap();
        let surviving_window = r.path_window(NodeId(0), NodeId(3), 0).unwrap();
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
        assert_eq!(r.path_price(NodeId(0), NodeId(3), 0), Some(surviving_price));
        assert_eq!(
            r.path_window(NodeId(0), NodeId(3), 0),
            Some(surviving_window)
        );
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
        assert_eq!(
            r.path_price(NodeId(0), NodeId(3), i0),
            Some(surviving_price)
        );
        let fresh = 1 - i0;
        assert_eq!(r.path_price(NodeId(0), NodeId(3), fresh), Some(0.0));
    }

    /// The O(1) gauge is a running total; it must equal a recount of every
    /// controller after windows were created (first route), shrunk
    /// (marked ack, reject), grown (clean ack), dropped and re-created
    /// (close / reopen migration).
    #[test]
    fn window_gauge_running_total_equals_recount() {
        fn recount(r: &ProtocolRouter) -> Amount {
            let slots = 0..r.pairs.slots.len() as u32;
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

    #[test]
    fn not_atomic_and_named() {
        let r = ProtocolRouter::new(4);
        assert!(!r.atomic());
        assert_eq!(r.name(), "spider-protocol");
    }
}
