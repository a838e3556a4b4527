//! Transport-layer congestion control (§4.1 extension).
//!
//! The paper defers congestion-control design but sketches its interface:
//! "Spider hosts use a congestion control algorithm to determine the rate
//! to send transaction units for different payments … hosts can use
//! implicit signals like … or explicit signals from the routers."
//!
//! [`Windowed`] wraps any inner router with a per-(sender, receiver)
//! AIMD window on the amount outstanding per attempt: each successful unit
//! lock grows the pair's window additively; each failed lock shrinks it
//! multiplicatively. Routing requests are clamped to the window before the
//! inner scheme sees them, so a congested pair backs off and retries from
//! the pending queue instead of hammering depleted channels.

use spider_sim::{NetworkView, RouteProposal, RouteRequest, Router, UnitAck, UnitOutcome};
use spider_types::{Amount, IdHashMap, NodeId};
use std::collections::VecDeque;

/// Additive window increase per successfully locked unit.
const INCREASE: Amount = Amount::from_xrp(10);

/// Multiplicative window decrease on a failed lock.
const DECREASE_FACTOR: f64 = 0.5;

/// Window floor: a pair's window never decays below this.
const MIN_WINDOW: Amount = Amount::from_xrp(10);

/// Window ceiling.
const MAX_WINDOW: Amount = Amount::from_xrp(10_000);

/// Maximum number of (sender, receiver) pairs tracked. Long
/// multi-million-pair runs would otherwise grow the table without bound;
/// beyond the cap the oldest-inserted pair is evicted (it silently resets
/// to the initial window if seen again).
const MAX_TRACKED_PAIRS: usize = 1 << 20;

/// Per-pair start of [`Windowed`]'s AIMD window; its steps, bounds and
/// pair cap are constants.
#[derive(Debug, Clone)]
pub struct WindowConfig {
    /// Initial window per pair.
    pub initial: Amount,
}

impl Default for WindowConfig {
    fn default() -> Self {
        WindowConfig {
            initial: Amount::from_xrp(200),
        }
    }
}

/// AIMD windowed wrapper around an inner routing scheme.
///
/// The window bounds the amount requested *per attempt*, not the value in
/// flight: this is deliberately the coarse §4.1 transport sketch. The
/// §5 protocol (`spider-protocol`) replaces it with per-path controllers
/// that do track in-flight value against acknowledgements.
pub struct Windowed<R> {
    inner: R,
    cfg: WindowConfig,
    windows: IdHashMap<(NodeId, NodeId), Amount>,
    /// Sum of `windows`' values, kept current by [`Self::store`] so the
    /// sampler's gauge is O(1). Integer drops: exact and order-free.
    window_total: Amount,
    /// Insertion order of tracked pairs, for deterministic FIFO eviction
    /// once [`MAX_TRACKED_PAIRS`] is exceeded.
    insertion_order: VecDeque<(NodeId, NodeId)>,
    /// Set by [`Router::configure`] in §5 queueing mode (and latched on
    /// the first ack as a backstop for callers that skip `configure`).
    /// When set, `locked` outcomes mean only "accepted into a queue", so
    /// window growth uses the definitive ack signal — otherwise every
    /// unit would drive two AIMD steps and congested pairs would grow
    /// their windows on mere queue admission.
    ack_driven: bool,
}

impl<R: Router> Windowed<R> {
    /// Wraps `inner`, starting every pair's window at `cfg.initial`.
    pub fn new(inner: R, cfg: WindowConfig) -> Self {
        Windowed {
            inner,
            cfg,
            windows: IdHashMap::default(),
            window_total: Amount::ZERO,
            insertion_order: VecDeque::new(),
            ack_driven: false,
        }
    }

    /// Current window of a pair.
    pub fn window(&self, src: NodeId, dst: NodeId) -> Amount {
        self.windows
            .get(&(src, dst))
            .copied()
            .unwrap_or(self.cfg.initial)
    }

    /// Number of pairs currently tracked (≤ the configured cap).
    pub fn tracked_pairs(&self) -> usize {
        self.windows.len()
    }

    /// Stores a pair's window, evicting the oldest-inserted pair when the
    /// table is full. Eviction order is insertion order, so it is
    /// deterministic regardless of the map's internal layout.
    fn store(&mut self, key: (NodeId, NodeId), window: Amount) {
        self.window_total += window;
        match self.windows.insert(key, window) {
            Some(old) => self.window_total -= old,
            None => {
                self.insertion_order.push_back(key);
                if self.windows.len() > MAX_TRACKED_PAIRS {
                    let evicted = self.insertion_order.pop_front();
                    if let Some(old) = evicted.and_then(|key| self.windows.remove(&key)) {
                        self.window_total -= old;
                    }
                }
            }
        }
    }

    /// Applies `steps` AIMD steps of one kind to a pair's window, one
    /// after another (each multiplicative step rounds, so `steps`
    /// halvings are not one division). A window at its ceiling or floor
    /// stays there, so the steps stop when one leaves it unchanged.
    fn adjust(&mut self, src: NodeId, dst: NodeId, success: bool, steps: u64) {
        let mut cur = self.window(src, dst);
        for _ in 0..steps {
            let next = if success {
                (cur + INCREASE).min(MAX_WINDOW)
            } else {
                cur.mul_f64(DECREASE_FACTOR).max(MIN_WINDOW)
            };
            self.store((src, dst), next);
            if next == cur {
                break;
            }
            cur = next;
        }
    }
}

impl<R: Router> Router for Windowed<R> {
    fn name(&self) -> &'static str {
        // Report the inner scheme's identity: windowing is a transport
        // knob, not a different routing algorithm.
        self.inner.name()
    }

    fn atomic(&self) -> bool {
        self.inner.atomic()
    }

    fn configure(&mut self, queueing: bool) {
        self.ack_driven = queueing;
        self.inner.configure(queueing);
    }

    fn initialize(&mut self, view: &NetworkView<'_>) {
        self.inner.initialize(view);
    }

    fn wants_prewarm(&self) -> bool {
        self.inner.wants_prewarm()
    }

    fn prewarm(&mut self, pairs: &[(NodeId, NodeId)], view: &NetworkView<'_>) {
        self.inner.prewarm(pairs, view);
    }

    fn on_topology_change(&mut self, update: &spider_sim::TopologyUpdate, view: &NetworkView<'_>) {
        // Windowing is per-pair, not per-path: the windows stay valid
        // across path-set changes, only the inner scheme needs repair.
        self.inner.on_topology_change(update, view);
    }

    fn route(&mut self, req: &RouteRequest, view: &NetworkView<'_>) -> Vec<RouteProposal> {
        let window = self.window(req.src, req.dst);
        let clamped = RouteRequest {
            remaining: req.remaining.min(window),
            ..req.clone()
        };
        if clamped.remaining.is_zero() {
            return Vec::new();
        }
        self.inner.route(&clamped, view)
    }

    fn on_unit_outcome(&mut self, outcome: &UnitOutcome, view: &NetworkView<'_>) {
        let (src, dst) = {
            let entry = view.path(outcome.path);
            (entry.source(), entry.dest())
        };
        // In ack-driven (queueing) operation, a positive outcome is only
        // queue admission — growth waits for the ack. Rejections remain a
        // hard back-off signal in both modes, and a post-lock fault
        // notification (locked but never settled) backs the pair off like
        // a rejection rather than rewarding the lock. One step per unit
        // the outcome stands for.
        let ok = outcome.locked && outcome.fault.is_none();
        if !ok || !self.ack_driven {
            self.adjust(src, dst, ok, outcome.units);
        }
        self.inner.on_unit_outcome(outcome, view);
    }

    fn window_gauge(&self) -> Option<f64> {
        // Sum of the wrapper's own tracked windows plus whatever the
        // inner scheme reports (per-path controllers, when wrapping the
        // §5 protocol).
        Some(self.window_total.as_xrp() + self.inner.window_gauge().unwrap_or(0.0))
    }

    fn observability(&self) -> spider_sim::RouterObs {
        let mut obs = self.inner.observability();
        // Sorted by pair key: window_hist fill order must not depend on
        // hash-map iteration.
        let mut pairs: Vec<_> = self.windows.iter().collect();
        pairs.sort_unstable_by_key(|(&k, _)| k);
        obs.windows_xrp
            .extend(pairs.iter().map(|(_, w)| w.as_xrp()));
        obs.counters.push((
            "windowed_tracked_pairs".to_string(),
            self.windows.len() as u64,
        ));
        obs
    }

    fn on_unit_ack(&mut self, ack: &UnitAck, view: &NetworkView<'_>) {
        // §5 queueing mode: the definitive congestion signal is the ack's
        // mark bit, so the window reacts to it (a marked or dropped unit
        // backs the pair off even though its initial admission succeeded).
        self.ack_driven = true;
        let (src, dst) = {
            let entry = view.path(ack.path);
            (entry.source(), entry.dest())
        };
        self.adjust(src, dst, ack.delivered && !ack.stamp.marked, 1);
        self.inner.on_unit_ack(ack, view);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spider_routing::ShortestPath;
    use spider_sim::{ChannelState, PathTable};
    use spider_types::{PaymentId, SimTime};

    fn xrp(x: u64) -> Amount {
        Amount::from_xrp(x)
    }

    fn view_fixture() -> (spider_topology::Topology, Vec<ChannelState>) {
        let t = spider_topology::gen::line(3, xrp(1000));
        let ch = t
            .channels()
            .map(|(_, c)| ChannelState::split_equally(c.capacity))
            .collect();
        (t, ch)
    }

    fn req(amount: Amount) -> RouteRequest {
        RouteRequest {
            payment: PaymentId(0),
            src: NodeId(0),
            dst: NodeId(2),
            remaining: amount,
            total: amount,
            mtu: xrp(10),
            attempt: 0,
        }
    }

    fn outcome(view: &NetworkView<'_>, locked: bool) -> UnitOutcome {
        UnitOutcome {
            payment: PaymentId(0),
            path: view.intern(&[NodeId(0), NodeId(1), NodeId(2)]),
            amount: xrp(10),
            units: 1,
            locked,
            fault: None,
        }
    }

    #[test]
    fn clamps_to_window() {
        let (t, ch) = view_fixture();
        let paths = PathTable::new();
        let view = NetworkView {
            topo: &t,
            channels: &ch,
            paths: &paths,
            now: SimTime::ZERO,
        };
        let mut w = Windowed::new(ShortestPath::new(), WindowConfig { initial: xrp(50) });
        let props = w.route(&req(xrp(500)), &view);
        assert_eq!(props.iter().map(|p| p.amount).sum::<Amount>(), xrp(50));
    }

    #[test]
    fn aimd_dynamics() {
        let (t, ch) = view_fixture();
        let paths = PathTable::new();
        let view = NetworkView {
            topo: &t,
            channels: &ch,
            paths: &paths,
            now: SimTime::ZERO,
        };
        let mut w = Windowed::new(ShortestPath::new(), WindowConfig { initial: xrp(100) });
        w.on_unit_outcome(&outcome(&view, true), &view);
        assert_eq!(w.window(NodeId(0), NodeId(2)), xrp(100) + INCREASE);
        w.on_unit_outcome(&outcome(&view, false), &view);
        assert_eq!(w.window(NodeId(0), NodeId(2)), xrp(55));
        // Ceiling: (10,000 − 55) / 10 steps reach it.
        for _ in 0..1_000 {
            w.on_unit_outcome(&outcome(&view, true), &view);
        }
        assert_eq!(w.window(NodeId(0), NodeId(2)), MAX_WINDOW);
        // Floor: ten halvings pass it.
        for _ in 0..20 {
            w.on_unit_outcome(&outcome(&view, false), &view);
        }
        assert_eq!(w.window(NodeId(0), NodeId(2)), MIN_WINDOW);
        // One tracked pair: the O(1) gauge is that pair's window.
        assert_eq!(w.window_gauge(), Some(MIN_WINDOW.as_xrp()));
    }

    #[test]
    fn counted_outcomes_step_like_one_outcome_per_unit() {
        // Counts of up to 40 units, locked and failed, with a fault (one
        // unit) now and then, over two pairs: a wrapper fed each count at once and
        // one fed the same outcomes unit by unit must hold bit-identical
        // windows, and so the same gauge and end-of-run snapshot.
        let t = spider_topology::gen::cycle(4, xrp(1000));
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
        let routes = [
            view.intern(&[NodeId(0), NodeId(1), NodeId(2)]),
            view.intern(&[NodeId(3), NodeId(0)]),
        ];
        let initial = WindowConfig {
            initial: Amount::from_drops(123_456_789),
        };
        let mut counted = Windowed::new(ShortestPath::new(), initial.clone());
        let mut one_by_one = Windowed::new(ShortestPath::new(), initial);
        let mut state = 0x2545_f491_4f6c_dd1du64;
        for _ in 0..400 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            // Fault outcomes come one unit at a time.
            let fault = (state >> 30)
                .is_multiple_of(17)
                .then_some(spider_types::DropReason::MessageLost);
            let outcome = UnitOutcome {
                payment: PaymentId(0),
                path: routes[(state % 2) as usize],
                amount: xrp(10),
                units: if fault.is_some() {
                    1
                } else {
                    1 + (state >> 8) % 40
                },
                locked: fault.is_some() || !(state >> 20).is_multiple_of(3),
                fault,
            };
            counted.on_unit_outcome(&outcome, &view);
            for _ in 0..outcome.units {
                let unit = UnitOutcome {
                    units: 1,
                    ..outcome
                };
                one_by_one.on_unit_outcome(&unit, &view);
            }
        }
        let snapshot = |w: &Windowed<ShortestPath>| {
            let obs = w.observability();
            let windows: Vec<u64> = obs.windows_xrp.iter().map(|x| x.to_bits()).collect();
            (windows, obs.counters, w.window_gauge().map(f64::to_bits))
        };
        assert_eq!(snapshot(&counted), snapshot(&one_by_one));
        assert_ne!(
            counted.window(NodeId(0), NodeId(2)),
            Amount::from_drops(123_456_789),
            "the sequence moved the window"
        );
    }

    #[test]
    fn window_is_per_pair() {
        let (t, ch) = view_fixture();
        let paths = PathTable::new();
        let view = NetworkView {
            topo: &t,
            channels: &ch,
            paths: &paths,
            now: SimTime::ZERO,
        };
        let mut w = Windowed::new(ShortestPath::new(), WindowConfig::default());
        w.on_unit_outcome(&outcome(&view, false), &view);
        assert!(w.window(NodeId(0), NodeId(2)) < WindowConfig::default().initial);
        assert_eq!(
            w.window(NodeId(1), NodeId(2)),
            WindowConfig::default().initial
        );
    }

    #[test]
    fn zero_window_returns_no_proposals() {
        let (t, ch) = view_fixture();
        let paths = PathTable::new();
        let view = NetworkView {
            topo: &t,
            channels: &ch,
            paths: &paths,
            now: SimTime::ZERO,
        };
        let mut w = Windowed::new(ShortestPath::new(), WindowConfig::default());
        let props = w.route(&req(Amount::ZERO), &view);
        assert!(props.is_empty());
    }

    #[test]
    fn preserves_inner_identity() {
        let w = Windowed::new(ShortestPath::new(), WindowConfig::default());
        assert_eq!(w.name(), "shortest-path");
        assert!(!w.atomic());
    }

    #[test]
    fn eviction_cap_bounds_the_table() {
        let mut w = Windowed::new(ShortestPath::new(), WindowConfig::default());
        // Six pairs past the cap, each backed off once.
        let pair = |i: usize| (NodeId(i as u32), NodeId(i as u32 + 1));
        let pairs = MAX_TRACKED_PAIRS + 6;
        for i in 0..pairs {
            let (src, dst) = pair(i);
            w.adjust(src, dst, false, 1);
        }
        assert_eq!(
            w.tracked_pairs(),
            MAX_TRACKED_PAIRS,
            "table bounded at the cap"
        );
        // The running total dropped the evicted pairs' windows with them.
        assert_eq!(w.window_total, w.windows.values().sum::<Amount>());
        // The oldest pairs were evicted and read back as the initial window.
        let initial = WindowConfig::default().initial;
        for i in 0..6 {
            let (src, dst) = pair(i);
            assert_eq!(w.window(src, dst), initial);
        }
        // The newest still hold their decayed state.
        let (src, dst) = pair(pairs - 1);
        assert!(w.window(src, dst) < initial);
    }

    #[test]
    fn marked_ack_backs_off_like_a_failure() {
        let (t, ch) = view_fixture();
        let paths = PathTable::new();
        let view = NetworkView {
            topo: &t,
            channels: &ch,
            paths: &paths,
            now: SimTime::ZERO,
        };
        let mut w = Windowed::new(ShortestPath::new(), WindowConfig::default());
        let mut stamp = spider_types::MarkStamp::CLEAR;
        stamp.absorb(1.0, true, spider_types::SimDuration::from_millis(200));
        let ack = spider_sim::UnitAck {
            payment: PaymentId(0),
            path: view.intern(&[NodeId(0), NodeId(1), NodeId(2)]),
            amount: xrp(10),
            delivered: true,
            stamp,
            drop_reason: None,
            drop_channel: None,
            rtt: spider_types::SimDuration::from_millis(600),
        };
        w.on_unit_ack(&ack, &view);
        assert!(w.window(NodeId(0), NodeId(2)) < WindowConfig::default().initial);
        // A clean delivered ack grows the window again.
        let clean = spider_sim::UnitAck {
            stamp: spider_types::MarkStamp::CLEAR,
            ..ack
        };
        let before = w.window(NodeId(0), NodeId(2));
        w.on_unit_ack(&clean, &view);
        assert!(w.window(NodeId(0), NodeId(2)) > before);
    }
}
