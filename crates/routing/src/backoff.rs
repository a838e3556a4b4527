//! Sender-side feedback: Spider's hosts keep a few candidate paths per
//! pair and steer by what comes back on them (§5.3.1). [`Candidates`]
//! holds them with their fault cooldowns for every source-routed scheme.
//!
//! When a unit is lost to an injected transport fault (message loss, hop
//! timeout, node crash — exactly [`DropReason::is_fault`]), the sender
//! cools the failed path down for `base · 2^strikes` (exponent capped)
//! and the router fails over to alternate candidates while the cooldown
//! lasts. A delivery on the path clears its strikes.
//!
//! Ordinary congestion signals — failed locks, queue timeouts, expiry —
//! never penalize a path: backoff reacts *exclusively* to faults, so a
//! fault-free run behaves bit-identically with the machinery installed
//! (the penalty table stays empty and every query short-circuits).
//!
//! [`ChannelBreakers`] is the overload-side sibling: a per-channel
//! circuit breaker that trips on sustained *shedding* ([`DropReason::
//! Shed`] acks — never ordinary faults or congestion), blocks routes
//! over the tripped channel while open, and recovers through a
//! half-open probing window. Like the penalty table it stays empty in a
//! run that never sheds, so always-on wiring cannot perturb
//! overload-free outcomes. Shortest-path and the §5 protocol keep one;
//! waterfilling and pricing neither feed nor consult breakers.
//!
//! Both tables are dense: one slot per `PathId` / `ChannelId` seen so
//! far, so every routing-time query is one index, however many paths
//! have faulted.

use crate::cache::{PathCache, PathPolicy};
use spider_sim::{NetworkView, RouteRequest, RouterObs, TopologyUpdate, UnitAck, UnitOutcome};
use spider_types::{ChannelId, DropReason, NodeId, PathId, SimDuration, SimTime};

/// One `Option<T>` slot per dense id, plus the count of occupied slots
/// so "no entry at all" — the fault-free fast path every query
/// short-circuits on — stays O(1).
#[derive(Debug)]
struct IdTable<T> {
    slots: Vec<Option<T>>,
    live: usize,
}

impl<T> Default for IdTable<T> {
    fn default() -> Self {
        IdTable {
            slots: Vec::new(),
            live: 0,
        }
    }
}

impl<T> IdTable<T> {
    fn is_empty(&self) -> bool {
        self.live == 0
    }

    fn get(&self, id: usize) -> Option<&T> {
        self.slots.get(id)?.as_ref()
    }

    fn get_mut(&mut self, id: usize) -> Option<&mut T> {
        self.slots.get_mut(id)?.as_mut()
    }

    /// Occupies `id`'s slot with `value`, replacing any previous entry.
    fn insert(&mut self, id: usize, value: T) {
        if id >= self.slots.len() {
            self.slots.resize_with(id + 1, || None);
        }
        if self.slots[id].replace(value).is_none() {
            self.live += 1;
        }
    }

    fn remove(&mut self, id: usize) {
        if self.slots.get_mut(id).and_then(Option::take).is_some() {
            self.live -= 1;
        }
    }
}

/// Cooldown after a path's first fault; doubles per strike.
const BASE_COOLDOWN: SimDuration = SimDuration::from_millis(250);

/// Cap on the doubling exponent: cooldowns saturate at
/// `BASE_COOLDOWN · 2^MAX_EXPONENT` (16 s).
const MAX_EXPONENT: u32 = 6;

#[derive(Debug, Clone, Copy)]
struct Penalty {
    until: SimTime,
    strikes: u32,
}

/// A source-routed scheme's sender-side state: each pair's candidate
/// paths and their fault cooldowns, with every feedback rule the schemes
/// share written once. The scheme keeps only its split (and, where it
/// has them, its breakers and controllers).
#[derive(Debug)]
pub struct Candidates {
    cache: PathCache,
    /// Per-path strikes and cooldowns: only ever holds paths that faulted
    /// at least once — empty for the whole run unless faults fire.
    penalties: IdTable<Penalty>,
    /// Faults seen; each starts one cooldown.
    faults: u64,
    /// Cooling candidates passed over, counted in the route calls made:
    /// a poll the engine skips because the router promised to propose
    /// nothing (`Router::proposes_nothing`) makes no call, so counts no
    /// skip.
    paths_skipped: u64,
}

impl Candidates {
    /// No pair cached yet, candidates chosen by `policy`.
    ///
    /// # Panics
    /// On `PathPolicy::EdgeDisjoint(0)`: a pair needs at least one path.
    pub fn new(policy: PathPolicy) -> Self {
        assert!(policy != PathPolicy::EdgeDisjoint(0), "need a path");
        Candidates {
            cache: PathCache::new(policy),
            penalties: IdTable::default(),
            faults: 0,
            paths_skipped: 0,
        }
    }

    /// The candidate cache, for lookups that count neither a hit nor a
    /// miss.
    #[inline]
    pub fn cache(&self) -> &PathCache {
        &self.cache
    }

    /// The slot of `(src, dst)` — a cache hit, or a miss that fills it.
    #[inline]
    pub fn get_slot(&mut self, src: NodeId, dst: NodeId, view: &NetworkView<'_>) -> u32 {
        self.cache.get_slot(view.topo, view.paths, src, dst)
    }

    /// Fills the prewarm pairs (`Router::prewarm`).
    pub fn prewarm(&mut self, pairs: &[(NodeId, NodeId)], view: &NetworkView<'_>) {
        self.cache.prefill(view.topo, view.paths, pairs);
    }

    /// [`PathCache::on_topology_change`]: returns the repaired pairs.
    pub fn repair(
        &mut self,
        update: &TopologyUpdate,
        view: &NetworkView<'_>,
    ) -> Vec<(NodeId, NodeId)> {
        self.cache.on_topology_change(view.topo, view.paths, update)
    }

    /// The candidates of the request's pair into `out`, less those
    /// cooling — unless every one is, when the slate is kept whole (a
    /// penalized path still beats giving up). Counts each one removed.
    pub fn usable(&mut self, req: &RouteRequest, view: &NetworkView<'_>, out: &mut Vec<PathId>) {
        let slot = self.get_slot(req.src, req.dst, view);
        out.clear();
        out.extend_from_slice(self.cache.candidates(slot));
        self.retain_usable(out, view.now);
    }

    fn retain_usable(&mut self, paths: &mut Vec<PathId>, now: SimTime) {
        if self.penalties.is_empty() || paths.is_empty() {
            return;
        }
        let cooled = paths.iter().filter(|&&p| self.is_cooled(p, now)).count();
        if cooled == 0 || cooled == paths.len() {
            return;
        }
        self.paths_skipped += cooled as u64;
        paths.retain(|&p| !self.is_cooled(p, now));
    }

    /// Picks the first non-cooled candidate, falling back to the first
    /// when all are cooled; `None` only for an empty slate. Counts the
    /// candidates passed over.
    pub fn choose(&mut self, slate: &[PathId], now: SimTime) -> Option<PathId> {
        let first = *slate.first()?;
        if self.penalties.is_empty() {
            return Some(first);
        }
        for (i, &p) in slate.iter().enumerate() {
            if !self.is_cooled(p, now) {
                self.paths_skipped += i as u64;
                return Some(p);
            }
        }
        Some(first)
    }

    /// True when `path` is inside a fault cooldown window at `now`.
    #[inline]
    pub fn is_cooled(&self, path: PathId, now: SimTime) -> bool {
        self.penalties
            .get(path.index())
            .is_some_and(|pen| now < pen.until)
    }

    /// Counts one cooled candidate a scheme passed over inline.
    #[inline]
    pub fn note_skip(&mut self) {
        self.paths_skipped += 1;
    }

    /// True while some path holds a fault strike (never in a fault-free
    /// run).
    #[inline]
    pub fn struck(&self) -> bool {
        !self.penalties.is_empty()
    }

    /// An outcome that carries a fault cools its path; a lock outcome
    /// changes nothing. True for a fault outcome.
    #[inline]
    pub fn on_outcome(&mut self, outcome: &UnitOutcome, now: SimTime) -> bool {
        debug_assert!(outcome.fault.is_none_or(DropReason::is_fault));
        self.feedback(outcome.path, outcome.fault, false, now)
    }

    /// An ack with a fault reason strikes its path and a delivered ack
    /// clears it; congestion drops and expiry change nothing.
    #[inline]
    pub fn on_ack(&mut self, ack: &UnitAck, now: SimTime) {
        self.feedback(ack.path, ack.drop_reason, ack.delivered, now);
    }

    /// The rule behind both: a fault reason (`why`) strikes `path`, and a
    /// delivery (`ok`) clears it. True for a fault.
    fn feedback(&mut self, path: PathId, why: Option<DropReason>, ok: bool, now: SimTime) -> bool {
        let fault = why.is_some_and(DropReason::is_fault);
        if fault {
            self.on_fault(path, now);
        } else if ok {
            self.on_delivery(path);
        }
        fault
    }

    /// One more strike on `path`, and a fresh cooldown of
    /// `base · 2^min(strikes, max_exponent)` starting now.
    fn on_fault(&mut self, path: PathId, now: SimTime) {
        self.faults += 1;
        let strikes = self
            .penalties
            .get(path.index())
            .map_or(0, |pen| pen.strikes + 1);
        let exp = strikes.min(MAX_EXPONENT);
        let cooldown = SimDuration::from_micros(BASE_COOLDOWN.micros() << exp);
        let until = now + cooldown;
        self.penalties
            .insert(path.index(), Penalty { until, strikes });
    }

    /// A delivery on `path`: its strikes and any cooldown are dropped.
    fn on_delivery(&mut self, path: PathId) {
        self.penalties.remove(path.index());
    }

    /// The counters for `Router::observability`, in a fixed order: the
    /// cache's, then the backoff table's — absent until a fault, so
    /// fault-free output is unchanged by the backoff machinery.
    pub fn observability(&self) -> RouterObs {
        let backoff = [
            ("backoff_faults_seen", self.faults),
            ("backoff_cooldowns_started", self.faults),
            ("backoff_paths_skipped", self.paths_skipped),
        ];
        let backoff = backoff.into_iter().filter(|_| self.faults > 0);
        let counters = self.cache.counters().into_iter().chain(backoff);
        RouterObs {
            counters: counters.map(|(k, v)| (k.to_string(), v)).collect(),
            ..RouterObs::default()
        }
    }
}

/// Shed strikes (since the last success) that trip a breaker open.
const STRIKE_THRESHOLD: u32 = 8;

/// How long an open breaker blocks its channel before half-opening.
const OPEN_COOLDOWN: SimDuration = SimDuration::from_millis(1_000);

/// Probe units a half-open breaker lets through; a success closes the
/// breaker, a further shed re-opens it.
const HALF_OPEN_PROBES: u32 = 3;

#[derive(Debug, Clone, Copy)]
enum BreakerState {
    /// Accumulating strikes; traffic flows.
    Closed { strikes: u32 },
    /// Tripped: the channel is blocked until the cooldown elapses.
    Open { until: SimTime },
    /// Probing: up to `left` units may cross; the first ack decides
    /// (success closes, shed re-opens).
    HalfOpen { left: u32 },
}

/// Per-channel shed-driven circuit breakers (closed → open → half-open),
/// plus the counters a router surfaces through `Router::observability`.
///
/// Only channels that shed at least once get an entry, and every query
/// short-circuits on the empty table.
#[derive(Debug, Default)]
pub struct ChannelBreakers {
    entries: IdTable<BreakerState>,
    strikes_seen: u64,
    trips: u64,
    probes_allowed: u64,
}

impl ChannelBreakers {
    /// True when no channel ever shed (the overload-free fast path).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Records one shed strike against `channel`: a closed breaker
    /// accumulates toward its threshold, a half-open breaker's failed
    /// probe re-opens it, an open breaker's cooldown is refreshed
    /// (sustained shedding keeps it open).
    fn on_strike(&mut self, channel: ChannelId, now: SimTime) {
        self.strikes_seen += 1;
        let open = BreakerState::Open {
            until: now + OPEN_COOLDOWN,
        };
        let state = self.entries.get(channel.index()).copied();
        let next = match state.unwrap_or(BreakerState::Closed { strikes: 0 }) {
            BreakerState::Closed { strikes } if strikes + 1 < STRIKE_THRESHOLD => {
                BreakerState::Closed {
                    strikes: strikes + 1,
                }
            }
            BreakerState::Open { .. } => open,
            BreakerState::Closed { .. } | BreakerState::HalfOpen { .. } => {
                self.trips += 1;
                open
            }
        };
        self.entries.insert(channel.index(), next);
    }

    /// Records a successful delivery over `channel`: the breaker closes
    /// and its strikes are forgotten, whatever state it was in.
    fn on_success(&mut self, channel: ChannelId) {
        self.entries.remove(channel.index());
    }

    /// The routing-time gate: may a unit cross `channel` at `now`?
    /// An open breaker whose cooldown elapsed transitions to half-open
    /// here and starts handing out its probe allowance.
    fn allow(&mut self, channel: ChannelId, now: SimTime) -> bool {
        let Some(state) = self.entries.get_mut(channel.index()) else {
            return true;
        };
        let left = match *state {
            BreakerState::Closed { .. } => return true,
            BreakerState::Open { until } if now < until => return false,
            BreakerState::Open { .. } => HALF_OPEN_PROBES,
            BreakerState::HalfOpen { left: 0 } => return false,
            BreakerState::HalfOpen { left } => left,
        };
        *state = BreakerState::HalfOpen { left: left - 1 };
        self.probes_allowed += 1;
        true
    }

    /// The intake: a shed ack strikes the channel that shed it, and a
    /// delivered ack closes the breaker of every hop of its path.
    pub fn on_ack(&mut self, ack: &UnitAck, view: &NetworkView<'_>) {
        if ack.drop_reason == Some(DropReason::Shed) {
            if let Some(c) = ack.drop_channel {
                self.on_strike(c, view.now);
            }
        } else if ack.delivered && !self.is_empty() {
            for hop in view.path(ack.path).hops() {
                self.on_success(hop.channel());
            }
        }
    }

    /// The routing-time gate for a whole path: may a unit cross every hop
    /// of `path` at `view.now`? (Short-circuits on the empty table.)
    #[inline]
    pub fn allow_path(&mut self, path: PathId, view: &NetworkView<'_>) -> bool {
        self.is_empty()
            || view
                .path(path)
                .hops()
                .iter()
                .all(|hop| self.allow(hop.channel(), view.now))
    }

    /// Breaker counters for `Router::observability`, in a fixed order.
    /// Empty when no shed was ever seen, so overload-free observability
    /// output is unchanged by the breaker machinery.
    pub fn counters(&self) -> impl Iterator<Item = (&'static str, u64)> {
        let quiet = self.strikes_seen == 0;
        [
            ("breaker_strikes_seen", self.strikes_seen),
            ("breaker_trips", self.trips),
            ("breaker_probes_allowed", self.probes_allowed),
        ]
        .into_iter()
        .filter(move |_| !quiet)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const T0: SimTime = SimTime::ZERO;

    fn at(ms: u64) -> SimTime {
        T0 + SimDuration::from_millis(ms)
    }

    #[test]
    fn fault_cools_and_expires() {
        let mut p = Candidates::new(PathPolicy::Shortest);
        assert!(!p.is_cooled(PathId(0), T0));
        p.on_fault(PathId(0), T0);
        assert!(p.is_cooled(PathId(0), T0));
        assert!(p.is_cooled(PathId(0), at(249)));
        assert!(!p.is_cooled(PathId(0), at(250)), "cooldown over");
        assert!(!p.is_cooled(PathId(1), T0), "other paths unaffected");
    }

    #[test]
    fn strikes_double_the_cooldown_up_to_the_cap() {
        let mut p = Candidates::new(PathPolicy::Shortest);
        p.on_fault(PathId(3), T0); // strike 0 → 250 ms
        assert!(!p.is_cooled(PathId(3), at(250)));
        p.on_fault(PathId(3), at(250)); // strike 1 → 500 ms
        assert!(p.is_cooled(PathId(3), at(749)));
        assert!(!p.is_cooled(PathId(3), at(750)));
        p.on_fault(PathId(3), at(750)); // strike 2 → 1 s
        assert!(p.is_cooled(PathId(3), at(1_749)));
        assert!(!p.is_cooled(PathId(3), at(1_750)));
        // Strikes 3..=6 double on up to the cap; strike 7 stays at it.
        let mut now = 1_750;
        for strike in 3..=7u32 {
            p.on_fault(PathId(3), at(now));
            now += 250 << strike.min(MAX_EXPONENT);
            assert!(p.is_cooled(PathId(3), at(now - 1)), "strike {strike}");
            assert!(!p.is_cooled(PathId(3), at(now)), "strike {strike}");
        }
    }

    #[test]
    fn delivery_clears_the_strikes() {
        let mut p = Candidates::new(PathPolicy::Shortest);
        p.on_fault(PathId(7), T0);
        p.on_delivery(PathId(7));
        assert!(!p.is_cooled(PathId(7), T0));
        // The next fault starts over at the base cooldown.
        p.on_fault(PathId(7), at(1_000));
        assert!(!p.is_cooled(PathId(7), at(1_250)));
    }

    /// `ShortestPath::pins_single_path` reads `struck()`: it must turn
    /// true again once the last entry clears, and stay false while any
    /// other entry (at a lower or higher id) is live.
    #[test]
    fn tables_read_empty_again_after_the_last_entry_clears() {
        let mut p = Candidates::new(PathPolicy::Shortest);
        p.on_fault(PathId(9), T0);
        p.on_fault(PathId(2), T0);
        p.on_fault(PathId(9), T0);
        p.on_delivery(PathId(9));
        assert!(p.struck(), "path 2 is still penalized");
        p.on_delivery(PathId(9));
        p.on_delivery(PathId(40));
        assert!(p.struck(), "clearing absent entries changes nothing");
        p.on_delivery(PathId(2));
        assert!(!p.struck());

        let mut b = ChannelBreakers::default();
        b.on_strike(ChannelId(5), T0);
        b.on_strike(ChannelId(0), T0);
        b.on_strike(ChannelId(5), T0);
        b.on_success(ChannelId(5));
        assert!(!b.is_empty(), "channel 0 still has a strike");
        b.on_success(ChannelId(5));
        b.on_success(ChannelId(77));
        assert!(!b.is_empty(), "clearing absent entries changes nothing");
        b.on_success(ChannelId(0));
        assert!(b.is_empty());
    }

    #[test]
    fn ack_reacts_only_to_fault_reasons() {
        let mut c = Candidates::new(PathPolicy::EdgeDisjoint(2));
        let mut ack = |reason: Option<DropReason>, now: SimTime| {
            let ack = UnitAck {
                payment: spider_types::PaymentId(0),
                path: PathId(1),
                amount: spider_types::Amount::DROP,
                delivered: reason.is_none(),
                stamp: spider_types::MarkStamp::CLEAR,
                drop_reason: reason,
                drop_channel: None,
                rtt: SimDuration::from_millis(1),
            };
            c.on_ack(&ack, now);
            (c.struck(), c.is_cooled(PathId(1), now))
        };
        assert_eq!(ack(Some(DropReason::QueueTimeout), T0), (false, false));
        assert_eq!(
            ack(Some(DropReason::Expired), T0),
            (false, false),
            "congestion drops never penalize"
        );
        assert_eq!(ack(Some(DropReason::MessageLost), T0), (true, true));
        assert_eq!(ack(None, at(10)), (false, false), "delivery heals");
    }

    #[test]
    fn retain_keeps_the_slate_when_everything_is_cooled() {
        let mut p = Candidates::new(PathPolicy::Shortest);
        p.on_fault(PathId(0), T0);
        p.on_fault(PathId(1), T0);
        let mut both = vec![PathId(0), PathId(1)];
        p.retain_usable(&mut both, T0);
        assert_eq!(both, vec![PathId(0), PathId(1)], "all cooled → untouched");
        let mut mixed = vec![PathId(0), PathId(2)];
        p.retain_usable(&mut mixed, T0);
        assert_eq!(mixed, vec![PathId(2)], "cooled candidate removed");
    }

    #[test]
    fn choose_fails_over_then_falls_back() {
        let mut p = Candidates::new(PathPolicy::Shortest);
        let slate = [PathId(0), PathId(1)];
        assert_eq!(p.choose(&slate, T0), Some(PathId(0)));
        p.on_fault(PathId(0), T0);
        assert_eq!(p.choose(&slate, T0), Some(PathId(1)), "failover");
        p.on_fault(PathId(1), T0);
        assert_eq!(p.choose(&slate, T0), Some(PathId(0)), "all cooled");
        assert_eq!(p.choose(&[], T0), None);
    }

    #[test]
    fn counters_stay_silent_without_faults() {
        let mut p = Candidates::new(PathPolicy::Shortest);
        let mut slate = vec![PathId(0)];
        p.retain_usable(&mut slate, T0);
        p.choose(&slate, T0);
        let backoff = |p: &Candidates| p.observability().counters.split_off(4);
        assert!(backoff(&p).is_empty(), "fault-free output unchanged");
        p.on_fault(PathId(0), T0);
        let counters = backoff(&p);
        assert_eq!(counters[0], ("backoff_faults_seen".to_string(), 1));
        assert_eq!(counters[1], ("backoff_cooldowns_started".to_string(), 1));
    }

    /// Regression pin for the cooldown cap: `base · 2^6` with a 250 ms
    /// base, i.e. penalties saturate at 16 s however many strikes
    /// accumulate. Anyone retuning [`BASE_COOLDOWN`] or [`MAX_EXPONENT`]
    /// must update this consciously.
    #[test]
    fn default_cooldown_cap_pins_base_times_two_pow_six() {
        assert_eq!(BASE_COOLDOWN, SimDuration::from_millis(250));
        assert_eq!(MAX_EXPONENT, 6);
        let mut p = Candidates::new(PathPolicy::Shortest);
        // Strike far past the cap, each strike after the previous
        // cooldown fully expired.
        for k in 0..20u64 {
            p.on_fault(PathId(0), at(k * 100_000));
        }
        let last_ms = 19 * 100_000;
        assert!(p.is_cooled(PathId(0), at(last_ms + 15_999)));
        assert!(
            !p.is_cooled(PathId(0), at(last_ms + 16_000)),
            "cooldown must saturate at 250 ms << 6 = 16 s"
        );
    }

    /// `STRIKE_THRESHOLD` strikes on one channel at `now`.
    fn trip(b: &mut ChannelBreakers, c: ChannelId, now: SimTime) {
        for _ in 0..STRIKE_THRESHOLD {
            b.on_strike(c, now);
        }
    }

    #[test]
    fn breaker_trips_after_sustained_sheds_and_blocks() {
        let mut b = ChannelBreakers::default();
        let c = ChannelId(4);
        for _ in 1..STRIKE_THRESHOLD {
            b.on_strike(c, T0);
        }
        assert!(b.allow(c, T0), "below threshold traffic flows");
        b.on_strike(c, T0);
        assert!(!b.allow(c, at(999)), "tripped breaker blocks");
        assert!(b.allow(ChannelId(5), T0), "other channels unaffected");
    }

    #[test]
    fn breaker_recovers_through_half_open_probes() {
        let mut b = ChannelBreakers::default();
        let c = ChannelId(0);
        trip(&mut b, c, T0);
        assert!(!b.allow(c, at(999)));
        // Cooldown over: half-open hands out exactly three probes.
        for _ in 0..HALF_OPEN_PROBES {
            assert!(b.allow(c, at(1_000)));
        }
        assert!(!b.allow(c, at(1_000)), "probe allowance exhausted");
        // A successful probe closes the breaker for good ...
        b.on_success(c);
        assert!(b.allow(c, at(1_001)));
        // ... and forgets the strikes: one new shed does not re-trip it.
        b.on_strike(c, at(2_000));
        assert!(b.allow(c, at(2_000)), "a closed breaker counts afresh");
    }

    #[test]
    fn breaker_failed_probe_reopens() {
        let mut b = ChannelBreakers::default();
        let c = ChannelId(9);
        trip(&mut b, c, T0);
        assert!(b.allow(c, at(1_000)), "half-open probe");
        b.on_strike(c, at(1_010));
        assert!(!b.allow(c, at(1_500)), "failed probe re-opened the breaker");
        assert!(
            !b.allow(c, at(2_009)),
            "fresh full cooldown from the strike"
        );
        assert!(b.allow(c, at(2_010)));
    }

    #[test]
    fn breaker_stays_silent_without_sheds() {
        let mut b = ChannelBreakers::default();
        assert!(b.is_empty());
        assert!(b.allow(ChannelId(1), T0));
        b.on_success(ChannelId(1));
        assert_eq!(b.counters().count(), 0, "shed-free output unchanged");
        b.on_strike(ChannelId(1), T0);
        let counters: Vec<_> = b.counters().collect();
        assert_eq!(counters[0], ("breaker_strikes_seen", 1));
    }
}
