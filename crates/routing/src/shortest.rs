//! The packet-switched shortest-path baseline.
//!
//! "We implemented shortest-path routing with non-atomic payments as
//! another baseline for our packet-switched network" (§6.1). The scheme
//! proposes the single BFS shortest path for the full remainder; the
//! engine packetizes into MTU units and queues what does not fit.
//!
//! The path is computed once per pair through the shared [`PathCache`]
//! (the topology is static, so BFS per request was pure waste) and handed
//! to the engine as an interned [`PathId`].

use crate::backoff::{BackoffConfig, ChannelBreakers, PathPenalties};
use crate::cache::{PathCache, PathPolicy};
use spider_sim::{NetworkView, RouteProposal, RouteRequest, Router, TopologyUpdate};
use spider_types::{DropReason, PathId};

/// Non-atomic single-shortest-path routing.
#[derive(Debug)]
pub struct ShortestPath {
    cache: PathCache,
    /// Fault cooldowns (empty for the whole run unless faults fire).
    penalties: PathPenalties,
    /// Per-channel shed breakers (empty for the whole run unless
    /// overload shedding fires).
    breakers: ChannelBreakers,
    /// Alternate candidates for failover while the shortest path is
    /// cooling down (or breaker-blocked). Built lazily on the first
    /// hit (from the primary cache's liveness mask), so fault-free runs
    /// never pay for (or observe) it.
    alt: Option<PathCache>,
}

impl Default for ShortestPath {
    fn default() -> Self {
        Self::new()
    }
}

impl ShortestPath {
    /// Creates the baseline router.
    pub fn new() -> Self {
        Self::with_backoff(BackoffConfig::default())
    }

    /// Creates the baseline router with explicit fault-backoff tuning
    /// (cooldown base and doubling cap).
    pub fn with_backoff(cfg: BackoffConfig) -> Self {
        ShortestPath {
            cache: PathCache::new(PathPolicy::Shortest),
            penalties: PathPenalties::new(cfg),
            breakers: ChannelBreakers::default(),
            alt: None,
        }
    }

    /// The pair's edge-disjoint failover candidates.
    fn alternates(&mut self, req: &RouteRequest, view: &NetworkView<'_>) -> Vec<PathId> {
        let primary = &self.cache;
        self.alt
            .get_or_insert_with(|| PathCache::with_mask_of(PathPolicy::EdgeDisjoint(2), primary))
            .get(view.topo, view.paths, req.src, req.dst)
            .to_vec()
    }

    /// True when every hop of `path` may be crossed at `view.now`
    /// (short-circuits on the empty breaker table).
    fn breakers_allow(
        breakers: &mut ChannelBreakers,
        path: PathId,
        view: &NetworkView<'_>,
    ) -> bool {
        view.path(path)
            .hops()
            .iter()
            .all(|&(c, _)| breakers.allow(c, view.now))
    }
}

impl Router for ShortestPath {
    /// The lock-outcome hook is the default no-op: let the engine elide
    /// it (and batch-count identical failed chunks).
    fn observes_unit_outcomes(&self) -> bool {
        false
    }

    /// With no cooldown and no breaker on record, `route` is the pair's
    /// one cached path for the whole remainder, and only a topology
    /// callback can change that path — so the engine may skip retries
    /// that provably lock nothing. The first fault or shed strike
    /// arrives through a callback (which ends the promise already given)
    /// and leaves a table non-empty, after which failover may pick a
    /// different path from poll to poll: no promise from then on.
    fn pins_single_path(&self) -> bool {
        self.penalties.is_empty() && self.breakers.is_empty()
    }

    fn name(&self) -> &'static str {
        "shortest-path"
    }

    fn wants_prewarm(&self) -> bool {
        true
    }

    fn prewarm(
        &mut self,
        pairs: &[(spider_types::NodeId, spider_types::NodeId)],
        view: &NetworkView<'_>,
    ) {
        self.cache.prefill(view.topo, view.paths, pairs);
    }

    fn on_topology_change(&mut self, update: &TopologyUpdate, view: &NetworkView<'_>) {
        self.cache.on_topology_change(view.topo, view.paths, update);
        if let Some(alt) = self.alt.as_mut() {
            alt.on_topology_change(view.topo, view.paths, update);
        }
    }

    fn route(&mut self, req: &RouteRequest, view: &NetworkView<'_>) -> Vec<RouteProposal> {
        let Some(&primary) = self
            .cache
            .get(view.topo, view.paths, req.src, req.dst)
            .first()
        else {
            return Vec::new();
        };
        let mut path = primary;
        if self.penalties.is_cooled(primary, view.now) {
            // Fail over to an edge-disjoint alternate while the shortest
            // path cools down; all-cooled falls back to the primary.
            let candidates = self.alternates(req, view);
            path = self
                .penalties
                .choose(&candidates, view.now)
                .unwrap_or(primary);
        }
        if !self.breakers.is_empty() && !Self::breakers_allow(&mut self.breakers, path, view) {
            // The chosen path crosses a tripped channel: fail over to an
            // edge-disjoint alternate whose breakers all allow traffic.
            let candidates = self.alternates(req, view);
            match candidates
                .into_iter()
                .filter(|&p| p != path)
                .find(|&p| Self::breakers_allow(&mut self.breakers, p, view))
            {
                Some(p) => path = p,
                // Every candidate is blocked: fail fast and let the next
                // poll retry once the breakers half-open.
                None => return Vec::new(),
            }
        }
        vec![RouteProposal {
            path,
            amount: req.remaining,
        }]
    }

    /// Fault outcomes arrive here unconditionally (the engine bypasses
    /// the `observes_unit_outcomes` gate for them); ordinary lock
    /// outcomes stay elided.
    fn on_unit_outcome(&mut self, outcome: &spider_sim::UnitOutcome, view: &NetworkView<'_>) {
        if let Some(reason) = outcome.fault {
            debug_assert!(reason.is_fault());
            self.penalties.on_fault(outcome.path, view.now);
        }
    }

    fn on_unit_ack(&mut self, ack: &spider_sim::UnitAck, view: &NetworkView<'_>) {
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
    }

    fn observability(&self) -> spider_sim::RouterObs {
        let mut obs = spider_sim::RouterObs::default();
        // One set of cache counters: the failover cache's work is added
        // to the primary's.
        let mut cache = self.cache.counters();
        if let Some(alt) = &self.alt {
            for (total, (_, n)) in cache.iter_mut().zip(alt.counters()) {
                total.1 += n;
            }
        }
        obs.counters.extend(cache.map(|(k, v)| (k.to_string(), v)));
        obs.counters
            .extend(self.penalties.counters().map(|(k, v)| (k.to_string(), v)));
        obs.counters
            .extend(self.breakers.counters().map(|(k, v)| (k.to_string(), v)));
        obs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spider_sim::{ChannelState, PathTable};
    use spider_types::{Amount, NodeId, PaymentId, SimTime};

    #[test]
    fn proposes_single_shortest_path() {
        let t = spider_topology::gen::line(4, Amount::from_xrp(10));
        let channels: Vec<ChannelState> = t
            .channels()
            .map(|(_, c)| ChannelState::split_equally(c.capacity))
            .collect();
        let paths = PathTable::new();
        let view = NetworkView {
            topo: &t,
            channels: &channels,
            paths: &paths,
            now: SimTime::ZERO,
        };
        let mut r = ShortestPath::new();
        let req = RouteRequest {
            payment: PaymentId(0),
            src: NodeId(0),
            dst: NodeId(3),
            remaining: Amount::from_xrp(2),
            total: Amount::from_xrp(2),
            mtu: Amount::from_xrp(1),
            attempt: 0,
        };
        let props = r.route(&req, &view);
        assert_eq!(props.len(), 1);
        assert_eq!(
            view.path(props[0].path).nodes(),
            vec![NodeId(0), NodeId(1), NodeId(2), NodeId(3)]
        );
        assert_eq!(props[0].amount, Amount::from_xrp(2));
        assert!(!r.atomic());
        // The second request hits the cache, not BFS: same interned id.
        let again = r.route(&req, &view);
        assert_eq!(again[0].path, props[0].path);
        assert_eq!(paths.len(), 1);
    }

    #[test]
    fn empty_for_unreachable() {
        let mut b = spider_topology::Topology::builder(3);
        b.channel(NodeId(0), NodeId(1), Amount::from_xrp(1))
            .unwrap();
        let t = b.build();
        let channels: Vec<ChannelState> = t
            .channels()
            .map(|(_, c)| ChannelState::split_equally(c.capacity))
            .collect();
        let paths = PathTable::new();
        let view = NetworkView {
            topo: &t,
            channels: &channels,
            paths: &paths,
            now: SimTime::ZERO,
        };
        let req = RouteRequest {
            payment: PaymentId(0),
            src: NodeId(0),
            dst: NodeId(2),
            remaining: Amount::from_xrp(1),
            total: Amount::from_xrp(1),
            mtu: Amount::from_xrp(1),
            attempt: 0,
        };
        assert!(ShortestPath::new().route(&req, &view).is_empty());
    }

    /// The failover cache is created at the first cooled primary; channels
    /// closed before that moment must still be closed to it.
    #[test]
    fn failover_cache_inherits_closed_channels() {
        let t = spider_topology::gen::isp_topology(Amount::from_xrp(100));
        let channels: Vec<ChannelState> = t
            .channels()
            .map(|(_, c)| ChannelState::split_equally(c.capacity))
            .collect();
        let paths = PathTable::new();
        let view = NetworkView {
            topo: &t,
            channels: &channels,
            paths: &paths,
            now: SimTime::ZERO,
        };
        let (src, dst) = (NodeId(8), NodeId(20));
        let nodes = |ids: &[PathId]| -> Vec<Vec<NodeId>> {
            ids.iter().map(|&p| view.path(p).nodes().to_vec()).collect()
        };
        // Close the first hop of the unmasked second alternate: the
        // primary survives, the failover set must change.
        let mut unmasked = PathCache::new(PathPolicy::EdgeDisjoint(2));
        let second = unmasked.get(&t, &paths, src, dst)[1];
        let victim = view.path(second).hops()[0].0;
        let update = TopologyUpdate {
            closed: vec![victim],
            ..TopologyUpdate::default()
        };
        let req = RouteRequest {
            payment: PaymentId(0),
            src,
            dst,
            remaining: Amount::from_xrp(2),
            total: Amount::from_xrp(2),
            mtu: Amount::from_xrp(1),
            attempt: 0,
        };
        let mut r = ShortestPath::new();
        let primary = r.route(&req, &view)[0].path;
        r.on_topology_change(&update, &view);
        assert_eq!(r.route(&req, &view)[0].path, primary, "primary untouched");
        r.penalties.on_fault(primary, view.now);
        let failover = r.route(&req, &view)[0].path;
        assert_ne!(failover, primary, "cooled primary must fail over");
        let alternates = r.alternates(&req, &view);
        for &p in alternates.iter().chain([&failover]) {
            assert!(
                view.path(p).hops().iter().all(|&(c, _)| c != victim),
                "alternate {:?} crosses the closed channel",
                view.path(p).nodes()
            );
        }
        let mut cold = PathCache::new(PathPolicy::EdgeDisjoint(2));
        cold.on_topology_change(&t, &paths, &update);
        let want = cold.get(&t, &paths, src, dst).to_vec();
        assert_eq!(nodes(&alternates), nodes(&want));
    }
}
