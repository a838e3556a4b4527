//! The slot/owner form of the router's pair state against the literal
//! by-pair form: hash the pair an acknowledged path runs between, then
//! search that pair's candidates for the path.

use super::*;
use proptest::prelude::*;
use spider_routing::PathCache;
use spider_sim::{ChannelState, PathTable};
use spider_types::{ChannelId, DropReason, MarkStamp, PaymentId, SimDuration, SimTime};
use std::collections::BTreeMap;

/// One pair, by the book: three vectors, one entry a candidate.
#[derive(Default)]
struct PairState {
    paths: Vec<PathId>,
    controllers: Vec<PathController>,
    prices: Vec<PathPriceEstimator>,
}

/// The reference: pair state in a map keyed by the pair, found through
/// the acknowledged path's end nodes.
struct ByPair {
    cache: PathCache,
    pairs: BTreeMap<(NodeId, NodeId), PairState>,
    window_total: Amount,
}

impl ByPair {
    fn new(k: usize) -> Self {
        ByPair {
            cache: PathCache::new(PathPolicy::EdgeDisjoint(k)),
            pairs: BTreeMap::new(),
            window_total: Amount::ZERO,
        }
    }

    /// Moves `pair` onto `paths`: survivors keep their state by id.
    fn migrate(&mut self, pair: (NodeId, NodeId), paths: Vec<PathId>) {
        let old = self.pairs.remove(&pair).unwrap_or_default();
        let mut new = PairState::default();
        for &path in &paths {
            let (controller, price) = match old.paths.iter().position(|&held| held == path) {
                Some(i) => (old.controllers[i].clone(), old.prices[i].clone()),
                None => (PathController::new(), PathPriceEstimator::new()),
            };
            self.window_total += controller.window();
            new.controllers.push(controller);
            new.prices.push(price);
        }
        new.paths = paths;
        self.window_total -= old.controllers.iter().map(|c| c.window()).sum::<Amount>();
        self.pairs.insert(pair, new);
    }

    fn route(&mut self, pair: (NodeId, NodeId), view: &NetworkView<'_>) {
        if !self.pairs.contains_key(&pair) {
            let paths = self
                .cache
                .get(view.topo, view.paths, pair.0, pair.1)
                .to_vec();
            self.migrate(pair, paths);
        }
    }

    fn on_topology_change(&mut self, update: &TopologyUpdate, view: &NetworkView<'_>) {
        for pair in self.cache.on_topology_change(view.topo, view.paths, update) {
            if self.pairs.contains_key(&pair) {
                let paths = self
                    .cache
                    .get(view.topo, view.paths, pair.0, pair.1)
                    .to_vec();
                self.migrate(pair, paths);
            }
        }
    }

    /// The pair `path` runs between and its index among the pair's
    /// candidates, if it is one.
    fn find(&self, path: PathId, view: &NetworkView<'_>) -> Option<((NodeId, NodeId), usize)> {
        let entry = view.path(path);
        let pair = (entry.source(), entry.dest());
        let i = self
            .pairs
            .get(&pair)?
            .paths
            .iter()
            .position(|&p| p == path)?;
        Some((pair, i))
    }

    fn on_unit_outcome(&mut self, outcome: &UnitOutcome, view: &NetworkView<'_>) {
        let Some((pair, i)) = self.find(outcome.path, view) else {
            return;
        };
        let controller = &mut self.pairs.get_mut(&pair).expect("found").controllers[i];
        let before = controller.window();
        if outcome.locked {
            controller.on_send(outcome.amount);
        } else {
            controller.on_reject();
        }
        self.window_total += controller.window();
        self.window_total -= before;
    }

    fn on_unit_ack(&mut self, ack: &UnitAck, view: &NetworkView<'_>) {
        let Some((pair, i)) = self.find(ack.path, view) else {
            return;
        };
        let state = self.pairs.get_mut(&pair).expect("found");
        let controller = &mut state.controllers[i];
        let before = controller.window();
        controller.on_ack(ack.amount, ack.delivered, ack.stamp.marked);
        self.window_total += controller.window();
        self.window_total -= before;
        state.prices[i].observe(ack.delivered, &ack.stamp);
    }
}

/// Both forms hold the same pairs, and for each the same candidates with
/// the same windows, in-flight value and prices; the running totals and
/// the window histogram agree with a recount.
fn assert_same_state(router: &ProtocolRouter, reference: &ByPair) {
    prop_assert_eq!(router.pairs.routed_slots().count(), reference.pairs.len());
    prop_assert_eq!(router.window_total, reference.window_total);
    let mut windows_xrp = Vec::new();
    for (&pair, want) in &reference.pairs {
        let held = router.held(pair.0, pair.1).expect("routed in both");
        let paths: Vec<_> = held.iter().map(|c| c.path).collect();
        prop_assert_eq!(&paths, &want.paths, "{:?}", pair);
        for (i, got) in held.iter().enumerate() {
            let (controller, price) = (&want.controllers[i], &want.prices[i]);
            prop_assert_eq!(got.controller.window(), controller.window());
            prop_assert_eq!(got.controller.inflight(), controller.inflight());
            prop_assert_eq!(got.price.price().to_bits(), price.price().to_bits());
            prop_assert_eq!(got.price.observations(), price.observations());
            windows_xrp.push(controller.window().as_xrp());
        }
    }
    prop_assert_eq!(router.observability().windows_xrp, windows_xrp);
    prop_assert_eq!(router.window_gauge(), Some(reference.window_total.as_xrp()));
}

proptest! {
    /// A random stream of requests, lock outcomes, acknowledgements and
    /// channel closes and reopens — so paths are retired and re-adopted,
    /// and acks arrive for retired paths and for paths of pairs never
    /// routed — leaves the slot/owner form and the by-pair form in the
    /// same state.
    #[test]
    fn slots_and_owners_match_the_by_pair_reference(
        ops in proptest::collection::vec((0u8..10, 0u64..u64::MAX, 0u64..u64::MAX), 1..250),
    ) {
        const K: usize = 3;
        let capacity = Amount::from_xrp(2_000);
        let topo = spider_topology::gen::grid(3, 3, capacity);
        let nodes = topo.node_count() as u64;
        let channels: Vec<ChannelState> =
            topo.channels().map(|_| ChannelState::split_equally(capacity)).collect();
        let table = PathTable::new();
        let view = NetworkView { topo: &topo, channels: &channels, paths: &table, now: SimTime::ZERO };
        let mut router = ProtocolRouter::new(K);
        let mut reference = ByPair::new(K);
        // Every pair's candidates are interned up front, so a random id
        // is a path, and mostly one of a pair not routed yet.
        let all = topo.nodes().flat_map(|s| topo.nodes().map(move |d| (s, d)));
        let all: Vec<_> = all.filter(|(s, d)| s != d).collect();
        router.prewarm(&all, &view);
        reference.cache.prefill(&topo, &table, &all);
        let mtu = Amount::from_xrp(10);
        let mut closed = vec![false; topo.channel_count()];
        // Units locked and not yet acknowledged, oldest first.
        let mut sent: Vec<(PathId, Amount)> = Vec::new();
        for (selector, a, b) in ops {
            match selector {
                0..=2 => {
                    let (src, dst) = (a % nodes, (a % nodes + 1 + b % (nodes - 1)) % nodes);
                    let pair = (NodeId(src as u32), NodeId(dst as u32));
                    let amount = Amount::from_xrp(5 + b % 60);
                    let req = RouteRequest {
                        payment: PaymentId(0),
                        src: pair.0,
                        dst: pair.1,
                        remaining: amount,
                        total: amount,
                        mtu,
                        attempt: 0,
                    };
                    let proposals = router.route(&req, &view);
                    reference.route(pair, &view);
                    let mut fate = b;
                    for p in proposals {
                        for unit in p.amount.mtu_chunks(mtu) {
                            // One unit in eight is refused at the ingress.
                            let locked = fate % 8 != 0;
                            fate = fate.rotate_right(3);
                            let outcome = UnitOutcome {
                                payment: PaymentId(0),
                                path: p.path,
                                amount: unit,
                                units: 1,
                                locked,
                                fault: None,
                            };
                            router.on_unit_outcome(&outcome, &view);
                            reference.on_unit_outcome(&outcome, &view);
                            if locked {
                                sent.push((p.path, unit));
                            }
                        }
                    }
                }
                3..=6 => {
                    // An ack for a unit in flight — its path may have
                    // been retired since — or, one time in four, for
                    // whatever path has this id.
                    let (path, amount) = if b % 4 == 0 || sent.is_empty() {
                        (PathId::from_index((a % table.len() as u64) as usize), mtu)
                    } else {
                        sent.remove((a % sent.len() as u64) as usize)
                    };
                    let mut stamp = MarkStamp::CLEAR;
                    if b % 3 == 0 {
                        stamp.absorb(1.0, true, SimDuration::from_millis(200));
                    }
                    let ack = UnitAck {
                        payment: PaymentId(0),
                        path,
                        amount,
                        delivered: b % 5 != 0,
                        stamp,
                        drop_reason: None,
                        drop_channel: None,
                        rtt: SimDuration::from_millis(520),
                    };
                    router.on_unit_ack(&ack, &view);
                    reference.on_unit_ack(&ack, &view);
                }
                _ => {
                    // Toggle one of the first few channels: the same ones
                    // close and reopen, so paths come back.
                    let c = (a % 5) as usize;
                    closed[c] = !closed[c];
                    let toggled = vec![ChannelId::from_index(c)];
                    let update = if closed[c] {
                        TopologyUpdate { closed: toggled, ..Default::default() }
                    } else {
                        TopologyUpdate { opened: toggled, ..Default::default() }
                    };
                    router.on_topology_change(&update, &view);
                    reference.on_topology_change(&update, &view);
                }
            }
            prop_assert_eq!(router.window_total, reference.window_total);
        }
        assert_same_state(&router, &reference);
    }
}

/// Per routed slot, each candidate's window, in-flight value and price
/// bits; then every observability counter but the skip counter.
type Snapshot = (Vec<[u64; 3]>, Vec<(String, u64)>);

/// Everything of the router a `route` call could move, but the skip
/// counter.
fn snapshot(router: &ProtocolRouter) -> Snapshot {
    let slots = router.pairs.routed_slots();
    let held = slots.flat_map(|slot| &router.pairs.candidates[router.pairs.span(slot)]);
    let state = held.map(|c| {
        let (window, inflight) = (c.controller.window(), c.controller.inflight());
        [window.drops(), inflight.drops(), c.price.price().to_bits()]
    });
    let mut counters = router.observability().counters;
    counters.retain(|(k, _)| k != "backoff_paths_skipped");
    (state.collect(), counters)
}

proptest! {
    /// Over a random stream of requests, lock outcomes, acks, faults,
    /// shed strikes and clock steps: whenever `proposes_nothing` holds
    /// for a routed pair, `route` proposes nothing for it and moves
    /// nothing but the skip counter.
    #[test]
    fn proposes_nothing_only_when_route_would(
        ops in proptest::collection::vec((0u8..12, 0u64..u64::MAX, 0u64..u64::MAX), 1..200),
    ) {
        let capacity = Amount::from_xrp(2_000);
        let topo = spider_topology::gen::grid(3, 3, capacity);
        let nodes = topo.node_count() as u64;
        let channels: Vec<ChannelState> =
            topo.channels().map(|_| ChannelState::split_equally(capacity)).collect();
        let table = PathTable::new();
        let mut now = SimTime::ZERO;
        let mut router = ProtocolRouter::new(3);
        let mtu = Amount::from_xrp(10);
        let request = |src: NodeId, dst: NodeId, amount: Amount| RouteRequest {
            payment: PaymentId(0),
            src,
            dst,
            remaining: amount,
            total: amount,
            mtu,
            attempt: 0,
        };
        let mut sent: Vec<(PathId, Amount)> = Vec::new();
        for (selector, a, b) in ops {
            let view = NetworkView { topo: &topo, channels: &channels, paths: &table, now };
            match selector {
                0..=3 => {
                    // A few pairs, so their windows fill.
                    let (src, dst) = (a % 3, 3 + (a / 3) % (nodes - 3));
                    let amount = Amount::from_xrp(5 + b % 300);
                    let req = request(NodeId(src as u32), NodeId(dst as u32), amount);
                    for p in router.route(&req, &view) {
                        let locked = b % 8 != 0;
                        let outcome = UnitOutcome {
                            payment: PaymentId(0),
                            path: p.path,
                            amount: p.amount,
                            units: 1,
                            locked,
                            fault: None,
                        };
                        router.on_unit_outcome(&outcome, &view);
                        if locked {
                            sent.push((p.path, p.amount));
                        }
                    }
                }
                4..=6 if !sent.is_empty() => {
                    // An ack, a fault, or (rarely) a shed strike for a
                    // unit in flight.
                    let (path, amount) = sent.remove((a % sent.len() as u64) as usize);
                    if b % 3 == 0 {
                        let fault = UnitOutcome {
                            payment: PaymentId(0),
                            path,
                            amount,
                            units: 1,
                            locked: true,
                            fault: Some(DropReason::MessageLost),
                        };
                        router.on_unit_outcome(&fault, &view);
                    }
                    let shed = b % 97 == 0;
                    let ack = UnitAck {
                        payment: PaymentId(0),
                        path,
                        amount,
                        delivered: b % 5 != 0 && !shed,
                        stamp: MarkStamp::CLEAR,
                        drop_reason: shed.then_some(DropReason::Shed),
                        drop_channel: shed.then(|| view.path(path).hops()[0].channel()),
                        rtt: SimDuration::from_millis(520),
                    };
                    router.on_unit_ack(&ack, &view);
                }
                _ => now += SimDuration::from_millis(a % 400),
            }
            let view = NetworkView { topo: &topo, channels: &channels, paths: &table, now };
            let slots: Vec<u32> = router.pairs.routed_slots().collect();
            for slot in slots {
                if router.proposes_nothing(slot, &view) {
                    let (src, dst) = router.candidates.cache().pair(slot);
                    let before = snapshot(&router);
                    let proposals = router.route(&request(src, dst, mtu * 50), &view);
                    prop_assert!(proposals.is_empty(), "slot {} proposed {:?}", slot, proposals);
                    prop_assert_eq!(snapshot(&router), before);
                }
            }
        }
    }
}
