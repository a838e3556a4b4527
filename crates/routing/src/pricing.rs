//! Spider (Pricing): the §5.3 price intuition as an *online* router.
//!
//! The decentralized algorithm prices each channel direction by capacity
//! congestion (λ) and imbalance (µ), and steers rate toward cheap paths.
//! [`SpiderPricing`] realizes that feedback loop against live channel
//! state: each hop's price combines
//!
//! * an **imbalance term** — positive (expensive) when sending would drain
//!   the already-poorer side of the channel, negative (a discount) when
//!   sending *rebalances* the channel (the µ_(u,v) − µ_(v,u) difference in
//!   the edge price z); and
//! * a **congestion term** — growing as the sender's available balance
//!   approaches zero (the λ terms).
//!
//! Units are allocated greedily to the currently cheapest candidate path,
//! with virtual balances updated after every unit so one request's own
//! allocations feed back into its prices. Compared to waterfilling (which
//! looks only at the sender-side bottleneck), pricing also sees the far
//! side of every channel and will happily take a longer path that heals an
//! imbalanced channel — the paper's "imbalance-aware routing" in its most
//! direct online form.

use crate::backoff::PathPenalties;
use crate::cache::{PathCache, PathPolicy};
use spider_sim::{NetworkView, RouteProposal, RouteRequest, Router};
use spider_types::{Amount, ChannelId, Direction, IdHashMap};

/// Weights of the two price components.
#[derive(Debug, Clone, Copy)]
pub struct PricingConfig {
    /// Weight of the imbalance term (µ analogue).
    pub imbalance_weight: f64,
    /// Weight of the congestion term (λ analogue).
    pub congestion_weight: f64,
    /// Per-hop constant cost, discouraging needlessly long paths.
    pub hop_cost: f64,
}

impl Default for PricingConfig {
    fn default() -> Self {
        PricingConfig {
            imbalance_weight: 1.0,
            congestion_weight: 0.5,
            hop_cost: 0.1,
        }
    }
}

/// Online price-based imbalance-aware routing (non-atomic).
#[derive(Debug)]
pub struct SpiderPricing {
    cache: PathCache,
    cfg: PricingConfig,
    /// Fault cooldowns (empty for the whole run unless faults fire).
    penalties: PathPenalties,
}

impl SpiderPricing {
    /// Creates the router with `k` edge-disjoint candidate paths and
    /// default price weights.
    pub fn new(k: usize) -> Self {
        Self::with_config(k, PricingConfig::default())
    }

    /// Creates the router with explicit price weights.
    pub fn with_config(k: usize, cfg: PricingConfig) -> Self {
        assert!(k >= 1, "need at least one path");
        assert!(
            cfg.congestion_weight >= 0.0 && cfg.hop_cost >= 0.0,
            "invalid weights"
        );
        SpiderPricing {
            cache: PathCache::new(PathPolicy::EdgeDisjoint(k)),
            cfg,
            penalties: PathPenalties::default(),
        }
    }

    /// Price of sending one more unit over `channel` in `dir`, given the
    /// virtual (request-local) balances.
    fn hop_price(&self, capacity: Amount, avail_dir: Amount, avail_rev: Amount) -> f64 {
        let cap = capacity.drops().max(1) as f64;
        // Imbalance: (rev − dir)/cap ∈ [−1, 1]. Positive ⇒ the sending
        // side is poorer ⇒ sending worsens imbalance ⇒ expensive.
        let imbalance = (avail_rev.drops() as f64 - avail_dir.drops() as f64) / cap;
        // Congestion: approaches 1 as the sender's side empties.
        let congestion = 1.0 - avail_dir.drops() as f64 / cap;
        self.cfg.imbalance_weight * imbalance
            + self.cfg.congestion_weight * congestion
            + self.cfg.hop_cost
    }
}

impl Router for SpiderPricing {
    /// The lock-outcome hook is the default no-op: let the engine elide
    /// it (and batch-count identical failed chunks).
    fn observes_unit_outcomes(&self) -> bool {
        false
    }

    fn name(&self) -> &'static str {
        "spider-pricing"
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

    fn on_topology_change(&mut self, update: &spider_sim::TopologyUpdate, view: &NetworkView<'_>) {
        self.cache.on_topology_change(view.topo, view.paths, update);
    }

    /// Fault outcomes arrive here unconditionally (the engine bypasses
    /// the `observes_unit_outcomes` gate for them); ordinary lock
    /// outcomes stay elided.
    fn on_unit_outcome(&mut self, outcome: &spider_sim::UnitOutcome, view: &NetworkView<'_>) {
        if outcome.fault.is_some() {
            self.penalties.on_fault(outcome.path, view.now);
        }
    }

    fn on_unit_ack(&mut self, ack: &spider_sim::UnitAck, view: &NetworkView<'_>) {
        self.penalties
            .on_ack(ack.path, ack.delivered, ack.drop_reason, view.now);
    }

    fn observability(&self) -> spider_sim::RouterObs {
        let mut obs = spider_sim::RouterObs::default();
        obs.counters
            .extend(self.cache.counters().map(|(k, v)| (k.to_string(), v)));
        obs.counters
            .extend(self.penalties.counters().map(|(k, v)| (k.to_string(), v)));
        obs
    }

    fn route(&mut self, req: &RouteRequest, view: &NetworkView<'_>) -> Vec<RouteProposal> {
        // Copy the (small) candidate id set so the cache borrow ends
        // before pricing, which borrows `self` immutably.
        let mut paths: Vec<spider_types::PathId> = self
            .cache
            .get(view.topo, view.paths, req.src, req.dst)
            .to_vec();
        if paths.is_empty() {
            return Vec::new();
        }
        // Candidates inside a fault cooldown sit this round out (no-op in
        // fault-free runs; an all-cooled slate is kept whole).
        self.penalties.retain_usable(&mut paths, view.now);
        let paths = paths;
        // Virtual balances: shared across paths so channel overlap is
        // priced consistently within this request.
        fn avail(
            virt: &mut IdHashMap<(ChannelId, Direction), Amount>,
            view: &NetworkView<'_>,
            c: ChannelId,
            d: Direction,
        ) -> Amount {
            *virt.entry((c, d)).or_insert_with(|| view.available(c, d))
        }
        let mut virt: IdHashMap<(ChannelId, Direction), Amount> = IdHashMap::default();
        // Hops were pre-resolved at interning time.
        let entries: Vec<_> = paths.iter().map(|&id| view.path(id)).collect();
        let mut allocated = vec![Amount::ZERO; paths.len()];
        let mut remaining = req.remaining;
        while !remaining.is_zero() {
            let unit = req.mtu.min(remaining);
            // Price every candidate path at current virtual state.
            let mut best: Option<(f64, usize)> = None;
            for (i, entry) in entries.iter().enumerate() {
                let mut price = 0.0;
                let mut feasible = true;
                for &(c, d) in entry.hops() {
                    let a_dir = avail(&mut virt, view, c, d);
                    if a_dir < unit {
                        feasible = false;
                        break;
                    }
                    let a_rev = avail(&mut virt, view, c, d.reverse());
                    price += self.hop_price(view.topo.channel(c).capacity, a_dir, a_rev);
                }
                if feasible && best.is_none_or(|(bp, _)| price < bp - 1e-12) {
                    best = Some((price, i));
                }
            }
            let Some((_, i)) = best else { break };
            // Commit the unit to the cheapest path's virtual balances.
            for &(c, d) in entries[i].hops() {
                let a = avail(&mut virt, view, c, d);
                virt.insert((c, d), a - unit);
            }
            allocated[i] += unit;
            remaining -= unit;
        }
        paths
            .iter()
            .zip(allocated)
            .filter(|(_, a)| !a.is_zero())
            .map(|(&path, amount)| RouteProposal { path, amount })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spider_sim::{ChannelState, PathTable};
    use spider_types::{NodeId, PaymentId, SimTime};

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

    /// Two disjoint 2-hop routes 0→3: via 1 and via 2.
    fn two_routes() -> spider_topology::Topology {
        let mut b = spider_topology::Topology::builder(4);
        b.channel(NodeId(0), NodeId(1), xrp(20)).unwrap();
        b.channel(NodeId(1), NodeId(3), xrp(20)).unwrap();
        b.channel(NodeId(0), NodeId(2), xrp(20)).unwrap();
        b.channel(NodeId(2), NodeId(3), xrp(20)).unwrap();
        b.build()
    }

    #[test]
    fn prefers_the_path_that_rebalances() {
        let t = two_routes();
        // Route via 1: channels balanced (10/10).
        // Route via 2: the 0→2 channel is skewed 16/4 — sending 0→2 moves
        // funds toward the poorer side, i.e. REBALANCES, so it is cheaper.
        let mut ch: Vec<ChannelState> = t
            .channels()
            .map(|(_, c)| ChannelState::split_equally(c.capacity))
            .collect();
        let c02 = t.channel_between(NodeId(0), NodeId(2)).unwrap();
        // 0 is u (canonical), so Forward = 0→2; give that side 16.
        ch[c02.index()] = ChannelState::with_balances(xrp(16), xrp(4));
        let paths = PathTable::new();
        let view = NetworkView {
            topo: &t,
            channels: &ch,
            paths: &paths,
            now: SimTime::ZERO,
        };
        let mut r = SpiderPricing::new(4);
        let props = r.route(&req(0, 3, xrp(2), xrp(2)), &view);
        assert_eq!(props.len(), 1);
        assert_eq!(
            view.path(props[0].path).nodes(),
            vec![NodeId(0), NodeId(2), NodeId(3)]
        );
    }

    #[test]
    fn avoids_draining_the_poor_side() {
        let t = two_routes();
        let mut ch: Vec<ChannelState> = t
            .channels()
            .map(|(_, c)| ChannelState::split_equally(c.capacity))
            .collect();
        // Route via 2 has more instantaneous sender-side balance on hop 1
        // (12 > 10) but is heavily skewed against the sender on hop 2
        // (2→3 side has 18 of 20? no: make 2→3 poor: 3/17).
        let c02 = t.channel_between(NodeId(0), NodeId(2)).unwrap();
        ch[c02.index()] = ChannelState::with_balances(xrp(12), xrp(8));
        let c23 = t.channel_between(NodeId(2), NodeId(3)).unwrap();
        ch[c23.index()] = ChannelState::with_balances(xrp(3), xrp(17));
        let paths = PathTable::new();
        let view = NetworkView {
            topo: &t,
            channels: &ch,
            paths: &paths,
            now: SimTime::ZERO,
        };
        let mut r = SpiderPricing::new(4);
        let props = r.route(&req(0, 3, xrp(2), xrp(2)), &view);
        // Pure waterfilling would compare bottlenecks (10 vs 3) and also
        // pick via-1 here; the interesting check is the price direction:
        // via-2's second hop is priced as draining (expensive).
        assert_eq!(
            view.path(props[0].path).nodes(),
            vec![NodeId(0), NodeId(1), NodeId(3)]
        );
    }

    #[test]
    fn splits_when_cheap_path_fills_up() {
        let t = two_routes();
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
        let mut r = SpiderPricing::new(4);
        // 16 XRP with MTU 2: both paths have 10 XRP bottlenecks; virtual
        // feedback must spread the load across both.
        let props = r.route(&req(0, 3, xrp(16), xrp(2)), &view);
        assert_eq!(props.iter().map(|p| p.amount).sum::<Amount>(), xrp(16));
        assert_eq!(props.len(), 2);
        let amounts: Vec<u64> = props.iter().map(|p| p.amount.drops() / 1_000_000).collect();
        assert!(
            amounts.iter().all(|&a| a == 8),
            "even split expected, got {amounts:?}"
        );
    }

    #[test]
    fn respects_capacity_feasibility() {
        let t = two_routes();
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
        let mut r = SpiderPricing::new(4);
        let props = r.route(&req(0, 3, xrp(100), xrp(1)), &view);
        // Total sendable = 10 + 10.
        assert_eq!(props.iter().map(|p| p.amount).sum::<Amount>(), xrp(20));
    }

    #[test]
    fn hop_price_signs() {
        let r = SpiderPricing::new(1);
        // Balanced channel: imbalance 0, congestion 0.5 → positive price.
        let balanced = r.hop_price(xrp(20), xrp(10), xrp(10));
        // Sending from the rich side: negative imbalance → discount.
        let rebalancing = r.hop_price(xrp(20), xrp(18), xrp(2));
        // Sending from the poor side: expensive.
        let draining = r.hop_price(xrp(20), xrp(2), xrp(18));
        assert!(rebalancing < balanced);
        assert!(balanced < draining);
    }

    #[test]
    fn not_atomic() {
        assert!(!SpiderPricing::new(4).atomic());
    }
}
