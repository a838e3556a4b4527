//! The per-channel funds timeline a ledger replay gives at the sampler's
//! instants, beside the auditor that builds it
//! ([`crate::ledger_audit::LedgerAudit`]): each channel's value locked in
//! flight and its net drift since t = 0 (value settled forward less value
//! settled backward), and, read off the same states, the time integrals
//! `spider_obs::ChannelAttribution` accumulates for `hotspots`.
//!
//! The engine samples at the first retry poll of each sampling period.
//! Polls run every 100 ms from t = 100 ms and the cadence is one second,
//! so its instants are 0.1 s, 1.1 s, 2.1 s, … up to the horizon; the
//! integrals add each instant's state times the time since the last one
//! (a right-endpoint sum), and the run's end adds a catch-up segment to
//! the horizon read from the final state.
//!
//! At its instant the sample reads the state after some of the records
//! stamped with that instant and before the rest. Which ones, the trace
//! does not say: that is the calendar's order of same-instant events, and
//! the poll leaves no record of its own: only its retries, `route`
//! records with an attempt ordinal past 0, show that it had read by
//! then. So each [`Point`] holds the range of a quantity over every place
//! the read can fall, from before the instant's first record to after its
//! last or before its poll's first retry; where no record shares the
//! instant the range is one state. Float sums and products are
//! monotone, so integrals accumulated from the ends of each range in the
//! engine's order bound the engine's integrals, and meet them exactly
//! where every range is one state.

use spider_obs::ChannelFunds;
use spider_types::{Amount, Hop, SimDuration, SimTime};

/// The engine's retry-poll period, in microseconds: its first poll, and
/// so its first sample, is at this instant.
const POLL_US: u64 = 100_000;

/// The sampling cadence, in microseconds (`spider_obs::SAMPLE_CADENCE`).
const CADENCE_US: u64 = 1_000_000;

/// The least and greatest value of a quantity over the places a sample
/// can fall among the records of its instant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span<T> {
    /// The least value.
    pub lo: T,
    /// The greatest value.
    pub hi: T,
}

impl<T: PartialOrd + Copy> Span<T> {
    fn of(v: T) -> Self {
        Span { lo: v, hi: v }
    }

    fn widen(&mut self, v: T) {
        if v < self.lo {
            self.lo = v;
        }
        if v > self.hi {
            self.hi = v;
        }
    }
}

/// One channel at one sampler instant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Point {
    /// Value locked in flight, both directions, in drops.
    pub locked: Span<u64>,
    /// Net drift since t = 0, in drops: settled forward less backward.
    pub drift: Span<i64>,
    /// Locked value over capacity, zero while closed.
    pub util: Span<f64>,
    /// Either side at zero, never while closed.
    pub at_zero: Span<bool>,
    /// `|forward − backward| / capacity`, zero while closed.
    pub imbalance: Span<f64>,
}

impl Point {
    /// The point of one state, read as `ChannelAttribution` reads it.
    fn of(f: &ChannelFunds, drift: i64) -> Self {
        let cap_drops = f.capacity.drops();
        let [fwd, bwd] = f.balance.map(Amount::drops);
        let locked = cap_drops.saturating_sub(fwd).saturating_sub(bwd);
        let cap = cap_drops.max(1) as f64;
        let (util, at_zero, imbalance) = if f.closed {
            (0.0, false, 0.0)
        } else {
            let zero = fwd == 0 || bwd == 0;
            (locked as f64 / cap, zero, fwd.abs_diff(bwd) as f64 / cap)
        };
        Point {
            locked: Span::of(f.locked[0].drops() + f.locked[1].drops()),
            drift: Span::of(drift),
            util: Span::of(util),
            at_zero: Span::of(at_zero),
            imbalance: Span::of(imbalance),
        }
    }

    fn widen(&mut self, p: &Point) {
        self.locked.widen(p.locked.lo);
        self.drift.widen(p.drift.lo);
        self.util.widen(p.util.lo);
        self.at_zero.widen(p.at_zero.lo);
        self.imbalance.widen(p.imbalance.lo);
    }
}

/// One channel's hotspot integrals, as `ChannelAttribution::finish`
/// reports them: mean utilization, seconds at zero, mean imbalance.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Integrals {
    /// Mean in-flight utilization over the run.
    pub util_frac: f64,
    /// Seconds with either side at zero.
    pub zero_liquidity_s: f64,
    /// Mean imbalance over the run.
    pub imbalance_frac: f64,
}

/// Every channel's [`Point`] at every sampler instant the trace reaches.
#[derive(Debug, Clone)]
pub struct Timeline {
    /// The sampler instants up to the last record's, in microseconds.
    pub instants_us: Vec<u64>,
    /// Per instant, per channel.
    pub points: Vec<Vec<Point>>,
    /// Per channel, after the last record: what every later instant and
    /// the closing segment read.
    pub end: Vec<Point>,
    /// Per channel, the drift so far.
    drift: Vec<i64>,
    /// The next instant not yet closed.
    next_us: u64,
    /// Its points so far, once a record stamped with it was seen.
    open: Option<Vec<Point>>,
    /// Its poll has retried, so the sample was read before.
    sealed: bool,
}

impl Timeline {
    pub(crate) fn new(channels: usize) -> Self {
        Timeline {
            instants_us: Vec::new(),
            points: Vec::new(),
            end: Vec::new(),
            drift: vec![0; channels],
            next_us: POLL_US,
            open: None,
            sealed: false,
        }
    }

    fn read(&self, funds: &[ChannelFunds]) -> Vec<Point> {
        let state = funds.iter().zip(&self.drift);
        state.map(|(f, &d)| Point::of(f, d)).collect()
    }

    /// Folds the state `funds` into the open instant's ranges.
    fn widen(&mut self, funds: &[ChannelFunds]) {
        let now = self.read(funds);
        match &mut self.open {
            Some(open) => open.iter_mut().zip(&now).for_each(|(p, n)| p.widen(n)),
            None => self.open = Some(now),
        }
    }

    /// Before a record at `t_us` applies to `funds`: closes each instant
    /// it passes, and opens its own if it is a sampler instant. `retry`
    /// says the record is a poll's retry.
    pub(crate) fn before(&mut self, t_us: u64, funds: &[ChannelFunds], retry: bool) {
        while self.next_us < t_us {
            let points = self.open.take().unwrap_or_else(|| self.read(funds));
            self.instants_us.push(self.next_us);
            self.points.push(points);
            self.next_us += CADENCE_US;
            self.sealed = false;
        }
        self.after(t_us, funds);
        self.sealed |= retry && t_us == self.next_us;
    }

    /// A unit of `amount` settled across `hops`.
    pub(crate) fn settle(&mut self, hops: &[Hop], amount: Amount) {
        for hop in hops {
            let signed = if hop.direction().index() == 0 { 1 } else { -1 };
            self.drift[hop.channel().index()] += signed * amount.drops() as i64;
        }
    }

    /// After a record at `t_us` applied to `funds`.
    pub(crate) fn after(&mut self, t_us: u64, funds: &[ChannelFunds]) {
        if t_us == self.next_us && !self.sealed {
            self.widen(funds);
        }
    }

    /// After the last record: closes the open instant and keeps the end.
    pub(crate) fn finish(&mut self, funds: &[ChannelFunds]) {
        if let Some(points) = self.open.take() {
            self.instants_us.push(self.next_us);
            self.points.push(points);
        }
        self.end = self.read(funds);
    }

    /// Per channel, the least and greatest hotspot integrals over a run
    /// of `horizon`, accumulated as `ChannelAttribution::integrate` does,
    /// and the seconds they span.
    ///
    /// # Panics
    /// When `horizon` is not a whole number of polls: the closing
    /// segment then ends at the last event, which the trace may not show.
    pub fn hotspot_bounds(&self, horizon: SimDuration) -> (f64, Vec<Span<Integrals>>) {
        let horizon_us = horizon.micros();
        assert_eq!(horizon_us % POLL_US, 0, "the run ends on a poll");
        let n = self.end.len();
        let (mut lo, mut hi) = (vec![Integrals::default(); n], vec![Integrals::default(); n]);
        let mut last_s = 0.0;
        let mut step = |now_us: u64, points: &[Point]| {
            let now_s = SimTime::from_micros(now_us).as_secs_f64();
            let dt = now_s - last_s;
            if dt <= 0.0 {
                return;
            }
            last_s = now_s;
            for ((lo, hi), p) in lo.iter_mut().zip(hi.iter_mut()).zip(points) {
                for (sum, util, zero, imbalance) in [
                    (lo, p.util.lo, p.at_zero.lo, p.imbalance.lo),
                    (hi, p.util.hi, p.at_zero.hi, p.imbalance.hi),
                ] {
                    sum.util_frac += util * dt;
                    if zero {
                        sum.zero_liquidity_s += dt;
                    }
                    sum.imbalance_frac += imbalance * dt;
                }
            }
        };
        let reached = self.instants_us.iter().zip(&self.points);
        for (&t_us, points) in reached.filter(|&(&t, _)| t <= horizon_us) {
            step(t_us, points);
        }
        let last_us = self.instants_us.last().map_or(POLL_US, |&t| t + CADENCE_US);
        for t_us in (last_us..=horizon_us).step_by(CADENCE_US as usize) {
            step(t_us, &self.end);
        }
        step(horizon_us, &self.end);
        let elapsed = last_s.max(f64::MIN_POSITIVE);
        let mean = |s: &mut Integrals| {
            s.util_frac /= elapsed;
            s.imbalance_frac /= elapsed;
        };
        lo.iter_mut().for_each(mean);
        hi.iter_mut().for_each(mean);
        let spans = lo.into_iter().zip(hi).map(|(lo, hi)| Span { lo, hi });
        (elapsed, spans.collect())
    }
}

/// A channel's hotspot score from its integrals and its `own` drops,
/// bottlenecks and queue residency against the run's `totals`, summed as
/// `ChannelAttribution::finish` sums it.
pub fn score(
    own: (u64, u64, f64),
    totals: (u64, u64, f64),
    integrals: &Integrals,
    elapsed_s: f64,
) -> f64 {
    2.0 * (own.0 as f64 / totals.0.max(1) as f64)
        + 2.0 * (own.1 as f64 / totals.1.max(1) as f64)
        + own.2 / totals.2.max(f64::MIN_POSITIVE)
        + integrals.zero_liquidity_s / elapsed_s
        + 0.5 * integrals.imbalance_frac
}
