//! Sender-side fault backoff: temporary path penalties with exponential
//! cooldown.
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
//! overload-free outcomes.
//!
//! Both tables are dense: one slot per `PathId` / `ChannelId` seen so
//! far, so every routing-time query is one index, however many paths
//! have faulted.

use spider_types::{ChannelId, DropReason, PathId, SimDuration, SimTime};

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

/// Cooldown shape for [`PathPenalties`].
#[derive(Debug, Clone, Copy)]
pub struct BackoffConfig {
    /// Cooldown after a path's first fault; doubles per strike.
    pub base_cooldown: SimDuration,
    /// Cap on the doubling exponent (`base · 2^max_exponent` ceiling).
    pub max_exponent: u32,
}

impl Default for BackoffConfig {
    fn default() -> Self {
        BackoffConfig {
            base_cooldown: SimDuration::from_millis(250),
            max_exponent: 6,
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Penalty {
    until: SimTime,
    strikes: u32,
}

/// Per-path strike/cooldown table plus the fault-backoff counters a
/// router surfaces through `Router::observability`.
#[derive(Debug, Default)]
pub struct PathPenalties {
    cfg: BackoffConfig,
    /// Only ever holds paths that faulted at least once — empty for the
    /// whole run unless fault injection is active.
    entries: IdTable<Penalty>,
    faults_seen: u64,
    cooldowns_started: u64,
    paths_skipped: u64,
}

impl PathPenalties {
    /// A table with explicit cooldown tuning.
    pub fn new(cfg: BackoffConfig) -> Self {
        PathPenalties {
            cfg,
            ..PathPenalties::default()
        }
    }

    /// True when no path ever faulted (the fault-free fast path).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Records a fault on `path`: one more strike, and a fresh cooldown
    /// of `base · 2^min(strikes, max_exponent)` starting now.
    pub fn on_fault(&mut self, path: PathId, now: SimTime) {
        self.faults_seen += 1;
        let strikes = self
            .entries
            .get(path.index())
            .map_or(0, |pen| pen.strikes + 1);
        let exp = strikes.min(self.cfg.max_exponent);
        let cooldown = SimDuration::from_micros(self.cfg.base_cooldown.micros() << exp);
        let until = now + cooldown;
        self.entries
            .insert(path.index(), Penalty { until, strikes });
        self.cooldowns_started += 1;
    }

    /// Records a successful delivery on `path`: the path is healthy
    /// again, so its strikes (and any remaining cooldown) are dropped.
    pub fn on_delivery(&mut self, path: PathId) {
        self.entries.remove(path.index());
    }

    /// Digests a queueing-mode ack: fault reasons strike the path,
    /// deliveries clear it, everything else (congestion drops, expiry)
    /// is ignored.
    pub fn on_ack(
        &mut self,
        path: PathId,
        delivered: bool,
        drop_reason: Option<DropReason>,
        now: SimTime,
    ) {
        if let Some(r) = drop_reason {
            if r.is_fault() {
                self.on_fault(path, now);
                return;
            }
        }
        if delivered {
            self.on_delivery(path);
        }
    }

    /// True when `path` is inside a fault cooldown window at `now`.
    #[inline]
    pub fn is_cooled(&self, path: PathId, now: SimTime) -> bool {
        self.entries
            .get(path.index())
            .is_some_and(|pen| now < pen.until)
    }

    /// Removes currently-cooled candidates from `paths` (preserving
    /// order) — unless *every* candidate is cooled, in which case the
    /// set is left untouched: a penalized path still beats giving up.
    /// Counts each skipped path.
    pub fn retain_usable(&mut self, paths: &mut Vec<PathId>, now: SimTime) {
        if self.entries.is_empty() || paths.is_empty() {
            return;
        }
        let cooled = paths.iter().filter(|&&p| self.is_cooled(p, now)).count();
        if cooled == 0 || cooled == paths.len() {
            return;
        }
        self.paths_skipped += cooled as u64;
        paths.retain(|&p| !self.is_cooled(p, now));
    }

    /// Counts one externally-detected skip (for routers that gate
    /// cooled candidates inline rather than via
    /// [`PathPenalties::retain_usable`]).
    #[inline]
    pub fn note_skip(&mut self) {
        self.paths_skipped += 1;
    }

    /// Picks the first non-cooled candidate, falling back to the first
    /// candidate when all are cooled. `None` only for an empty slate.
    pub fn choose(&mut self, candidates: &[PathId], now: SimTime) -> Option<PathId> {
        let first = *candidates.first()?;
        if self.entries.is_empty() {
            return Some(first);
        }
        for (i, &p) in candidates.iter().enumerate() {
            if !self.is_cooled(p, now) {
                self.paths_skipped += i as u64;
                return Some(p);
            }
        }
        Some(first)
    }

    /// Backoff counters for `Router::observability`, in a fixed order.
    /// Empty when no fault was ever seen, so fault-free observability
    /// output is unchanged by the backoff machinery.
    pub fn counters(&self) -> impl Iterator<Item = (&'static str, u64)> {
        let quiet = self.faults_seen == 0;
        [
            ("backoff_faults_seen", self.faults_seen),
            ("backoff_cooldowns_started", self.cooldowns_started),
            ("backoff_paths_skipped", self.paths_skipped),
        ]
        .into_iter()
        .filter(move |_| !quiet)
    }
}

/// Circuit-breaker tuning for [`ChannelBreakers`].
#[derive(Debug, Clone, Copy)]
pub struct BreakerConfig {
    /// Shed strikes (since the last success) that trip a breaker open.
    pub strike_threshold: u32,
    /// How long an open breaker blocks its channel before half-opening.
    pub open_cooldown: SimDuration,
    /// Probe units a half-open breaker lets through; a success closes
    /// the breaker, a further shed re-opens it.
    pub half_open_probes: u32,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            strike_threshold: 8,
            open_cooldown: SimDuration::from_millis(1_000),
            half_open_probes: 3,
        }
    }
}

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
    cfg: BreakerConfig,
    entries: IdTable<BreakerState>,
    strikes_seen: u64,
    trips: u64,
    probes_allowed: u64,
}

impl ChannelBreakers {
    /// A breaker table with explicit tuning.
    pub fn new(cfg: BreakerConfig) -> Self {
        ChannelBreakers {
            cfg,
            ..ChannelBreakers::default()
        }
    }

    /// True when no channel ever shed (the overload-free fast path).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Records one shed strike against `channel`: a closed breaker
    /// accumulates toward its threshold, a half-open breaker's failed
    /// probe re-opens it, an open breaker's cooldown is refreshed
    /// (sustained shedding keeps it open).
    pub fn on_strike(&mut self, channel: ChannelId, now: SimTime) {
        self.strikes_seen += 1;
        let open = BreakerState::Open {
            until: now + self.cfg.open_cooldown,
        };
        let state = self.entries.get(channel.index()).copied();
        let next = match state.unwrap_or(BreakerState::Closed { strikes: 0 }) {
            BreakerState::Closed { strikes } if strikes + 1 < self.cfg.strike_threshold => {
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
    pub fn on_success(&mut self, channel: ChannelId) {
        self.entries.remove(channel.index());
    }

    /// The routing-time gate: may a unit cross `channel` at `now`?
    /// An open breaker whose cooldown elapsed transitions to half-open
    /// here and starts handing out its probe allowance.
    pub fn allow(&mut self, channel: ChannelId, now: SimTime) -> bool {
        let Some(state) = self.entries.get_mut(channel.index()) else {
            return true;
        };
        let left = match *state {
            BreakerState::Closed { .. } => return true,
            BreakerState::Open { until } if now < until => return false,
            BreakerState::Open { .. } => self.cfg.half_open_probes.max(1),
            BreakerState::HalfOpen { left: 0 } => return false,
            BreakerState::HalfOpen { left } => left,
        };
        *state = BreakerState::HalfOpen { left: left - 1 };
        self.probes_allowed += 1;
        true
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
        let mut p = PathPenalties::default();
        assert!(!p.is_cooled(PathId(0), T0));
        p.on_fault(PathId(0), T0);
        assert!(p.is_cooled(PathId(0), T0));
        assert!(p.is_cooled(PathId(0), at(249)));
        assert!(!p.is_cooled(PathId(0), at(250)), "cooldown over");
        assert!(!p.is_cooled(PathId(1), T0), "other paths unaffected");
    }

    #[test]
    fn strikes_double_the_cooldown_up_to_the_cap() {
        let mut p = PathPenalties::new(BackoffConfig {
            base_cooldown: SimDuration::from_millis(100),
            max_exponent: 2,
        });
        p.on_fault(PathId(3), T0); // strike 0 → 100 ms
        assert!(!p.is_cooled(PathId(3), at(100)));
        p.on_fault(PathId(3), at(100)); // strike 1 → 200 ms
        assert!(p.is_cooled(PathId(3), at(299)));
        assert!(!p.is_cooled(PathId(3), at(300)));
        p.on_fault(PathId(3), at(300)); // strike 2 → 400 ms
        p.on_fault(PathId(3), at(700)); // strike 3, capped → still 400 ms
        assert!(p.is_cooled(PathId(3), at(1_099)));
        assert!(!p.is_cooled(PathId(3), at(1_100)));
    }

    #[test]
    fn delivery_clears_the_strikes() {
        let mut p = PathPenalties::default();
        p.on_fault(PathId(7), T0);
        p.on_delivery(PathId(7));
        assert!(!p.is_cooled(PathId(7), T0));
        // The next fault starts over at the base cooldown.
        p.on_fault(PathId(7), at(1_000));
        assert!(!p.is_cooled(PathId(7), at(1_250)));
    }

    /// `ShortestPath::pins_single_path` reads `is_empty()`: it must turn
    /// true again once the last entry clears, and stay false while any
    /// other entry (at a lower or higher id) is live.
    #[test]
    fn tables_read_empty_again_after_the_last_entry_clears() {
        let mut p = PathPenalties::default();
        p.on_fault(PathId(9), T0);
        p.on_fault(PathId(2), T0);
        p.on_fault(PathId(9), T0);
        p.on_delivery(PathId(9));
        assert!(!p.is_empty(), "path 2 is still penalized");
        p.on_delivery(PathId(9));
        p.on_delivery(PathId(40));
        assert!(!p.is_empty(), "clearing absent entries changes nothing");
        p.on_delivery(PathId(2));
        assert!(p.is_empty());

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
        let mut p = PathPenalties::default();
        p.on_ack(PathId(1), false, Some(DropReason::QueueTimeout), T0);
        p.on_ack(PathId(1), false, Some(DropReason::Expired), T0);
        assert!(p.is_empty(), "congestion drops never penalize");
        p.on_ack(PathId(1), false, Some(DropReason::MessageLost), T0);
        assert!(p.is_cooled(PathId(1), T0));
        p.on_ack(PathId(1), true, None, at(10));
        assert!(!p.is_cooled(PathId(1), at(10)), "delivery heals");
    }

    #[test]
    fn retain_keeps_the_slate_when_everything_is_cooled() {
        let mut p = PathPenalties::default();
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
        let mut p = PathPenalties::default();
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
        let mut p = PathPenalties::default();
        let mut slate = vec![PathId(0)];
        p.retain_usable(&mut slate, T0);
        p.choose(&slate, T0);
        assert_eq!(p.counters().count(), 0, "fault-free output unchanged");
        p.on_fault(PathId(0), T0);
        let counters: Vec<_> = p.counters().collect();
        assert_eq!(counters[0], ("backoff_faults_seen", 1));
        assert_eq!(counters[1], ("backoff_cooldowns_started", 1));
    }

    /// Regression pin for the default cooldown cap: `base · 2^6` with a
    /// 250 ms base, i.e. penalties saturate at 16 s however many strikes
    /// accumulate. Anyone retuning [`BackoffConfig`] must update this
    /// consciously.
    #[test]
    fn default_cooldown_cap_pins_base_times_two_pow_six() {
        let cfg = BackoffConfig::default();
        assert_eq!(cfg.base_cooldown, SimDuration::from_millis(250));
        assert_eq!(cfg.max_exponent, 6);
        let mut p = PathPenalties::default();
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

    #[test]
    fn breaker_trips_after_sustained_sheds_and_blocks() {
        let mut b = ChannelBreakers::new(BreakerConfig {
            strike_threshold: 3,
            open_cooldown: SimDuration::from_millis(500),
            half_open_probes: 1,
        });
        let c = ChannelId(4);
        b.on_strike(c, T0);
        b.on_strike(c, T0);
        assert!(b.allow(c, T0), "below threshold traffic flows");
        b.on_strike(c, T0);
        assert!(!b.allow(c, at(499)), "tripped breaker blocks");
        assert!(b.allow(ChannelId(5), T0), "other channels unaffected");
    }

    #[test]
    fn breaker_recovers_through_half_open_probes() {
        let mut b = ChannelBreakers::new(BreakerConfig {
            strike_threshold: 1,
            open_cooldown: SimDuration::from_millis(100),
            half_open_probes: 2,
        });
        let c = ChannelId(0);
        b.on_strike(c, T0);
        assert!(!b.allow(c, at(99)));
        // Cooldown over: half-open hands out exactly two probes.
        assert!(b.allow(c, at(100)));
        assert!(b.allow(c, at(100)));
        assert!(!b.allow(c, at(100)), "probe allowance exhausted");
        // A successful probe closes the breaker for good.
        b.on_success(c);
        assert!(b.allow(c, at(101)));
        // A failed probe would have re-opened it instead.
        b.on_strike(c, at(200));
        assert!(!b.allow(c, at(200)), "threshold 1 re-trips instantly");
    }

    #[test]
    fn breaker_failed_probe_reopens() {
        let mut b = ChannelBreakers::new(BreakerConfig {
            strike_threshold: 2,
            open_cooldown: SimDuration::from_millis(100),
            half_open_probes: 1,
        });
        let c = ChannelId(9);
        b.on_strike(c, T0);
        b.on_strike(c, T0);
        assert!(b.allow(c, at(100)), "half-open probe");
        b.on_strike(c, at(110));
        assert!(!b.allow(c, at(150)), "failed probe re-opened the breaker");
        assert!(!b.allow(c, at(209)), "fresh full cooldown from the strike");
        assert!(b.allow(c, at(210)));
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
