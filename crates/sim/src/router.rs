//! The routing interface between the simulator and routing schemes.
//!
//! The engine asks the scheme where to send (the remainder of) a payment;
//! the scheme answers with `(path, amount)` proposals based on what it can
//! observe. Observability is mediated by [`NetworkView`], which exposes the
//! topology and per-channel available balances — the information a Spider
//! host gets by probing its candidate paths.

use crate::channel::ChannelState;
use crate::paths::{PathEntry, PathTable};
use spider_topology::Topology;
use spider_types::{
    Amount, ChannelId, Direction, DropReason, MarkStamp, NodeId, PathId, PaymentId, Result,
    SimDuration, SimTime,
};

/// Read-only view of the network given to routers.
pub struct NetworkView<'a> {
    /// The channel topology.
    pub topo: &'a Topology,
    /// Per-channel balance state (indexed by [`ChannelId`]).
    pub channels: &'a [ChannelState],
    /// The simulation's shared path interner: routers intern candidate
    /// paths here and hand back [`PathId`]s in their proposals.
    pub paths: &'a PathTable,
    /// Current simulation time.
    pub now: SimTime,
}

impl<'a> NetworkView<'a> {
    /// Available balance for the sender in `dir` on `channel`.
    pub fn available(&self, channel: ChannelId, dir: Direction) -> Amount {
        self.channels[channel.index()].available(dir)
    }

    /// Interns a node path known to follow topology edges (panics
    /// otherwise; use [`NetworkView::try_intern`] for candidates that may
    /// be off-topology).
    #[inline]
    pub fn intern(&self, nodes: &[NodeId]) -> PathId {
        self.paths.intern(self.topo, nodes)
    }

    /// Fallible interning for paths that may not follow topology edges.
    #[inline]
    pub fn try_intern(&self, nodes: &[NodeId]) -> Result<PathId> {
        self.paths.try_intern(self.topo, nodes)
    }

    /// The interned entry behind a [`PathId`] (a cheap clone).
    #[inline]
    pub fn path(&self, id: PathId) -> PathEntry {
        self.paths.entry(id)
    }

    /// The bottleneck (minimum available balance) along an interned path,
    /// computed over its pre-resolved hops — no per-hop adjacency lookups.
    pub fn bottleneck(&self, id: PathId) -> Amount {
        self.paths.map_entry(id, |entry| {
            let mut min = Amount::MAX;
            for (c, dir) in entry.hops().iter().map(|hop| hop.parts()) {
                min = min.min(self.available(c, dir));
            }
            min
        })
    }
}

/// A request to route (part of) a payment.
#[derive(Debug, Clone)]
pub struct RouteRequest {
    /// The payment being routed.
    pub payment: PaymentId,
    /// Sender.
    pub src: NodeId,
    /// Receiver.
    pub dst: NodeId,
    /// Amount still to deliver (≤ original payment amount).
    pub remaining: Amount,
    /// Original payment amount.
    pub total: Amount,
    /// Maximum transaction-unit size; proposals larger than this are split
    /// by the engine.
    pub mtu: Amount,
    /// Number of attempts actually made for this payment before this
    /// one (polls at which the engine proved the attempt would lock or
    /// propose nothing — see [`Router::pins_single_path`] and
    /// [`Router::proposes_nothing`] — are not attempts).
    pub attempt: u32,
}

/// One `(path, amount)` proposal from a router.
///
/// A `PathId` is valid by construction (interning resolves the hops), so
/// the engine trusts proposals blindly. Routers whose candidate paths
/// might go stale or skip edges (recomputed against a different topology,
/// assembled from external state) should intern through
/// [`NetworkView::try_intern`] and drop failures instead of letting
/// [`NetworkView::intern`] panic.
#[derive(Debug, Clone, Copy)]
pub struct RouteProposal {
    /// Interned path from source to destination (resolve via
    /// [`NetworkView::path`]).
    pub path: PathId,
    /// Amount to send along it.
    pub amount: Amount,
}

/// Outcome notification for adaptive routers: `units` units of `amount`
/// each, on one path, that fared alike.
///
/// Lockstep mode reports a proposal's locks as counts, in lock order: the
/// full units that locked, then the full units that failed (after one
/// failed, the rest are not tried — the failed one rolled back, so each
/// would fail the same way; an all-or-nothing scheme stops at the first),
/// then the partial last unit. A count stands for that many outcomes of
/// one unit each, in a row, and the [`NetworkView`] handed with it shows
/// the balances after all of them. Fault outcomes and hop-by-hop
/// outcomes come one unit at a time.
#[derive(Debug, Clone, Copy)]
pub struct UnitOutcome {
    /// The payment the units belonged to.
    pub payment: PaymentId,
    /// The path attempted.
    pub path: PathId,
    /// The value of each unit.
    pub amount: Amount,
    /// How many units the outcome stands for (at least one).
    pub units: u64,
    /// Whether funds were successfully locked end-to-end (settlement then
    /// follows after Δ unconditionally in this model).
    pub locked: bool,
    /// Set when the unit was lost to an injected transport fault *after*
    /// locking (message loss, hop timeout, node crash): `locked` reports
    /// the lock result, `fault` reports the post-lock fate. Routers use
    /// this to cool down the failed path (`spider_routing::Candidates`)
    /// without reacting to ordinary lock contention. Always `None` in
    /// fault-free runs.
    pub fault: Option<DropReason>,
}

/// End-to-end acknowledgement for one transaction unit (§5 queueing mode).
///
/// Emitted once per injected unit when the engine runs with
/// [`QueueingMode::PerChannelFifo`](crate::config::QueueingMode): either the
/// unit settled (`delivered`) or it was dropped/refunded (queue timeout,
/// queue overflow mid-path, or payment expiry). The [`MarkStamp`] carries
/// the price and mark bit routers along the path stamped onto the unit;
/// dropped units always come back marked.
#[derive(Debug, Clone, Copy)]
pub struct UnitAck {
    /// The payment the unit belonged to.
    pub payment: PaymentId,
    /// The interned path the unit was injected on.
    pub path: PathId,
    /// The unit value.
    pub amount: Amount,
    /// True iff the unit settled end-to-end.
    pub delivered: bool,
    /// Aggregated price/mark metadata stamped by the routers on the path.
    pub stamp: MarkStamp,
    /// Why the unit was dropped, when `delivered` is false.
    pub drop_reason: Option<DropReason>,
    /// The failing hop of a dropped unit — the channel it was queued at
    /// or traveling toward — or `None` for delivered units and
    /// whole-path failures (expiry after locking, griefing holds).
    /// Lets routers attribute sheds to the congested channel
    /// (`spider_routing::ChannelBreakers`) instead of the whole path.
    pub drop_channel: Option<ChannelId>,
    /// Time from injection to this acknowledgement.
    pub rtt: SimDuration,
}

/// Summary of one applied topology-churn event: the channels that
/// actually changed state (idempotent no-ops are filtered out). Handed to
/// [`Router::on_topology_change`] so schemes can repair candidate caches
/// and per-path controller state incrementally.
#[derive(Debug, Clone, Default)]
pub struct TopologyUpdate {
    /// Channels that transitioned open → closed.
    pub closed: Vec<ChannelId>,
    /// Channels that transitioned closed → open.
    pub opened: Vec<ChannelId>,
    /// Channels whose capacity was resized (connectivity unchanged — the
    /// hop-count path oracles never need invalidation for these).
    pub resized: Vec<ChannelId>,
}

/// End-of-run observability snapshot a router hands the engine (see
/// [`Router::observability`]): scheme-internal counters and the live
/// per-path/per-pair AIMD window sizes. Order must be deterministic
/// (sorted keys, not hash order) — the snapshot lands in `SimReport` and
/// golden-tested outputs.
#[derive(Debug, Clone, Default)]
pub struct RouterObs {
    /// Name–value counter pairs (cache hits/misses, repairs…).
    pub counters: Vec<(String, u64)>,
    /// Live AIMD window sizes in XRP, one per controller, in a
    /// deterministic scheme-defined order. Empty for windowless schemes.
    pub windows_xrp: Vec<f64>,
}

impl TopologyUpdate {
    /// True when the event changed nothing (every mutation was a no-op).
    pub fn is_empty(&self) -> bool {
        self.closed.is_empty() && self.opened.is_empty() && self.resized.is_empty()
    }

    /// True when connectivity changed (a cache built on hop counts may be
    /// stale).
    pub fn connectivity_changed(&self) -> bool {
        !self.closed.is_empty() || !self.opened.is_empty()
    }
}

/// A routing scheme.
///
/// Implementations live in `spider-routing`; the engine drives them through
/// this object-safe trait.
pub trait Router {
    /// Human-readable scheme name (used in reports).
    fn name(&self) -> &'static str;

    /// Called once before [`Router::initialize`] with engine-mode
    /// information: `queueing` is true when units travel hop by hop
    /// through router queues and definitive feedback arrives via
    /// [`Router::on_unit_ack`] rather than lock outcomes. Wrappers must
    /// forward to their inner scheme.
    fn configure(&mut self, _queueing: bool) {}

    /// Called once with the initial network state before any payment.
    fn initialize(&mut self, _view: &NetworkView<'_>) {}

    /// True when this scheme implements [`Router::prewarm`]; the engine
    /// only collects the workload's pair list when someone will use it.
    /// Wrappers must forward to their inner scheme.
    fn wants_prewarm(&self) -> bool {
        false
    }

    /// Called once after [`Router::initialize`] with every distinct
    /// `(src, dst)` pair the workload will route, in first-arrival order
    /// — only when [`Router::wants_prewarm`] returns true. Schemes with
    /// per-pair candidate caches warm them here in one batched,
    /// per-source pass (`spider_routing::PathCache::prefill`) instead of
    /// paying k BFS traversals per pair on the routing hot path. Purely a
    /// performance hook: candidate sets (and outcomes) must be identical
    /// with or without it. Wrappers must forward to their inner scheme.
    /// Default: no-op.
    fn prewarm(&mut self, _pairs: &[(NodeId, NodeId)], _view: &NetworkView<'_>) {}

    /// Proposes how to route `req.remaining`. Proposals are attempted in
    /// order; those that fail to lock are skipped (non-atomic) or abort the
    /// payment (atomic schemes).
    fn route(&mut self, req: &RouteRequest, view: &NetworkView<'_>) -> Vec<RouteProposal>;

    /// Observation hook invoked after every unit lock attempt, and for
    /// every unit an injected fault or griefing hold lost after it
    /// locked ([`UnitOutcome::fault`]). Lockstep locks arrive as counts
    /// (see [`UnitOutcome`]): a hook that acts per unit applies itself
    /// [`UnitOutcome::units`] times. In queueing mode `locked` means
    /// *accepted for forwarding* (possibly queued at the first hop); the
    /// definitive outcome arrives via [`Router::on_unit_ack`].
    fn on_unit_outcome(&mut self, _outcome: &UnitOutcome, _view: &NetworkView<'_>) {}

    /// The promise lockstep retry elision rests on: *until the next
    /// fault outcome ([`Router::on_unit_outcome`] with
    /// [`UnitOutcome::fault`] set), [`Router::on_unit_ack`] or
    /// [`Router::on_topology_change`] this router receives,
    /// [`Router::route`] answers every request of a `(src, dst)` pair
    /// with the same single path for the whole `remaining`, whatever the
    /// balances.* Ordinary lock outcomes do not end it, so a router that
    /// lets them shape its proposals (a window, a price) must not give
    /// it. When the promise holds and an attempt proposed exactly
    /// `[(path, remaining)]`, the engine remembers `path` and, at later
    /// polls, does not re-offer the payment while some hop of it has
    /// less available than the smallest chunk the attempt would try to
    /// lock — that attempt would lock nothing (see the engine's `Poll`
    /// docs for why this is exact).
    ///
    /// Only a scheme whose proposal is a function of the pair alone may
    /// give it: for multi-path or balance-reading schemes (waterfilling,
    /// pricing, LP, max-flow) a balance *decrease* elsewhere can change
    /// the proposal, so "nothing on the old path rose" proves nothing.
    /// Wrappers must **not** forward it unless they are stateless —
    /// a window, a price or a retry counter that shapes the proposal
    /// breaks the promise even when the inner scheme keeps it. Default:
    /// `false` — the payment is re-offered at every poll.
    fn pins_single_path(&self) -> bool {
        false
    }

    /// A token naming `req`'s `(src, dst)` pair for
    /// [`Router::proposes_nothing`], or `None` when the router gives that
    /// promise for no request of the pair. The engine asks after each
    /// hop-by-hop attempt (lockstep mode pins instead) and keeps the
    /// token with the payment while it waits in the retry queue.
    /// Wrappers must **not** forward it unless they are stateless (see
    /// [`Router::proposes_nothing`]). Default: `None`.
    fn idle_token(&self, _req: &RouteRequest) -> Option<u32> {
        None
    }

    /// The promise hop-by-hop retry elision rests on: *true only if
    /// [`Router::route`], called now with `view`, would return no
    /// proposal for any request of the pair `token` names, and would
    /// change no state of the router but observability counters.* The
    /// engine then does not re-offer that pair's pending payments at this
    /// poll; it asks again at each poll, and again at each payment's
    /// turn, so the answer may change whenever the router's state does.
    /// Until that turn, the poll's other attempts only lock balances and
    /// report sends and ingress rejections (no ack or fault arrives
    /// within a poll): none of those may turn a "nothing" into a
    /// proposal (see the engine's `Poll` docs for why a skip is then
    /// exact). Wrappers must **not** forward it unless they are stateless
    /// — a window, a price or a retry counter of their own can make a
    /// proposal where the inner scheme makes none. Default: `false` —
    /// the payment is re-offered at every poll.
    fn proposes_nothing(&self, _token: u32, _view: &NetworkView<'_>) -> bool {
        false
    }

    /// Acknowledgement hook for the §5 queueing mode: called exactly once
    /// per accepted unit with its delivery outcome and price stamp. Never
    /// called in lockstep mode.
    fn on_unit_ack(&mut self, _ack: &UnitAck, _view: &NetworkView<'_>) {}

    /// Called after every applied topology-churn event (and once before
    /// [`Router::prewarm`] when the schedule closes channels at `t = 0`),
    /// with the channels that actually changed state. Schemes with
    /// candidate-path caches repair them here (see
    /// `spider_routing::PathCache::on_topology_change`); schemes with
    /// per-path controller state migrate it across the path-set change.
    /// Wrappers must forward to their inner scheme. Default: no-op —
    /// proposals over dead channels then simply fail to lock.
    fn on_topology_change(&mut self, _update: &TopologyUpdate, _view: &NetworkView<'_>) {}

    /// Atomic schemes deliver a payment in one attempt, entirely or not at
    /// all (SilentWhispers, SpeedyMurmurs, max-flow). Non-atomic schemes
    /// (packet-switched Spider and the shortest-path baseline) may deliver
    /// partially and retry from the pending queue.
    fn atomic(&self) -> bool {
        false
    }

    /// The sum of this scheme's live AIMD window sizes in XRP, probed by
    /// the engine's series sampler each cadence; `None` for windowless
    /// schemes (the series then reads 0). Wrappers should add their own
    /// windows to the inner scheme's. Default: `None`.
    fn window_gauge(&self) -> Option<f64> {
        None
    }

    /// End-of-run observability snapshot: internal counters and live
    /// window sizes, in a deterministic order. Wrappers should merge
    /// their own snapshot with the inner scheme's. Default: empty.
    fn observability(&self) -> RouterObs {
        RouterObs::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spider_topology::gen;

    #[test]
    fn view_bottleneck() {
        let t = gen::line(3, Amount::from_xrp(10));
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
        let id = view.intern(&[NodeId(0), NodeId(1), NodeId(2)]);
        assert_eq!(view.bottleneck(id), Amount::from_xrp(5));
        assert!(view.try_intern(&[NodeId(0), NodeId(2)]).is_err());
    }

    #[test]
    fn view_directional_balances() {
        let t = gen::line(2, Amount::from_xrp(10));
        let mut channels: Vec<ChannelState> = t
            .channels()
            .map(|(_, c)| ChannelState::split_equally(c.capacity))
            .collect();
        assert!(channels[0].lock(Direction::Forward, Amount::from_xrp(5)));
        channels[0].settle(Direction::Forward, Amount::from_xrp(5));
        let paths = PathTable::new();
        let view = NetworkView {
            topo: &t,
            channels: &channels,
            paths: &paths,
            now: SimTime::ZERO,
        };
        let c = ChannelId(0);
        assert_eq!(view.available(c, Direction::Forward), Amount::ZERO);
        assert_eq!(view.available(c, Direction::Backward), Amount::from_xrp(10));
    }
}
