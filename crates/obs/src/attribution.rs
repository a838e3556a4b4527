//! Per-channel hotspot attribution.
//!
//! Spider's throughput claims are about *specific* channels: the paper's
//! routing schemes win or lose at the handful of imbalanced or
//! capacity-starved links where queues build and drops concentrate.
//! [`ChannelAttribution`] keeps one accumulator row per channel — fed
//! from the engine's lock/forward/settle/drop paths and advanced on the
//! sampler cadence — and reduces them into a deterministic top-K
//! [`ChannelHotspot`] table at the end of a run:
//!
//! * **utilization integral** — mean fraction of capacity locked
//!   in-flight over observed time,
//! * **time at zero liquidity** — seconds with either direction fully
//!   depleted (the starvation signal §5's prices react to),
//! * **imbalance integral** — mean `|imbalance| / capacity`,
//! * **queue residency** — total seconds units spent queued at the
//!   channel,
//! * **drop count** — drops whose failing hop was this channel,
//! * **bottleneck count** — delivered paths whose minimum post-settle
//!   availability was this channel (ties break to the lowest id).
//!
//! Everything is indexed by dense channel id, iterated in index order,
//! and sorted with explicit tie-breaks — no hash-order escape — so the
//! hotspot table is golden-testable like every other artifact. Its
//! schema is [`ChannelHotspot`] itself: `SimReport` serializes the rows
//! through `#[derive(Serialize)]`.

use serde::Serialize;

/// Hotspot rows kept in `SimReport` (the reduction's K).
pub const HOTSPOT_K: usize = 8;

/// One channel's state at an integration step, computed by the engine
/// (the obs crate never sees `ChannelState` itself).
#[derive(Debug, Clone, Copy)]
pub struct ChannelSample {
    /// Closed channels contribute nothing to the integrals.
    pub closed: bool,
    /// Fraction of capacity currently locked in-flight, in `[0, 1]`.
    pub util_frac: f64,
    /// True when either direction has zero available balance.
    pub at_zero: bool,
    /// `|imbalance| / capacity`, in `[0, 1]`.
    pub imbalance_frac: f64,
}

/// One row of the end-of-run hotspot table.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ChannelHotspot {
    /// Dense channel id.
    pub channel: u32,
    /// Mean in-flight utilization over observed time, `[0, 1]`.
    pub util_frac: f64,
    /// Seconds spent with either direction at zero available balance.
    pub zero_liquidity_s: f64,
    /// Mean `|imbalance| / capacity` over observed time, `[0, 1]`.
    pub imbalance_frac: f64,
    /// Total seconds units spent queued at this channel.
    pub queue_residency_s: f64,
    /// Drops whose failing hop was this channel.
    pub drops: u64,
    /// Delivered paths for which this channel was the binding constraint.
    pub bottlenecks: u64,
    /// Ranking score (see [`ChannelAttribution::finish`]).
    pub score: f64,
}

/// Per-channel accumulators, one slot per dense channel id.
#[derive(Debug, Clone)]
pub struct ChannelAttribution {
    last_t_s: f64,
    util_integral_s: Vec<f64>,
    zero_liquidity_s: Vec<f64>,
    imbalance_integral_s: Vec<f64>,
    queue_residency_s: Vec<f64>,
    drops: Vec<u64>,
    bottlenecks: Vec<u64>,
}

impl ChannelAttribution {
    /// Accumulators for `n` channels, all zero, clock at t=0.
    pub fn new(n: usize) -> Self {
        ChannelAttribution {
            last_t_s: 0.0,
            util_integral_s: vec![0.0; n],
            zero_liquidity_s: vec![0.0; n],
            imbalance_integral_s: vec![0.0; n],
            queue_residency_s: vec![0.0; n],
            drops: vec![0; n],
            bottlenecks: vec![0; n],
        }
    }

    /// Channel slots tracked.
    pub fn len(&self) -> usize {
        self.drops.len()
    }

    /// True when tracking zero channels.
    pub fn is_empty(&self) -> bool {
        self.drops.is_empty()
    }

    /// Advances the time integrals over `[last_t, now_s]` using one
    /// sample per channel, in dense-id order. Steps with non-positive
    /// `dt` (same-instant re-entry) are no-ops.
    pub fn integrate(&mut self, now_s: f64, samples: impl Iterator<Item = ChannelSample>) {
        let dt = now_s - self.last_t_s;
        if dt <= 0.0 {
            return;
        }
        self.last_t_s = now_s;
        for (i, s) in samples.enumerate() {
            if s.closed || i >= self.util_integral_s.len() {
                continue;
            }
            self.util_integral_s[i] += s.util_frac * dt;
            if s.at_zero {
                self.zero_liquidity_s[i] += dt;
            }
            self.imbalance_integral_s[i] += s.imbalance_frac * dt;
        }
    }

    /// Charges `secs` of queue residency to `channel`.
    #[inline]
    pub fn queue_wait(&mut self, channel: usize, secs: f64) {
        self.queue_residency_s[channel] += secs;
    }

    /// Counts a drop whose failing hop was `channel`.
    #[inline]
    pub fn drop_at(&mut self, channel: usize) {
        self.drops[channel] += 1;
    }

    /// Counts a delivered path whose binding constraint was `channel`.
    #[inline]
    pub fn bottleneck(&mut self, channel: usize) {
        self.bottlenecks[channel] += 1;
    }

    /// Reduces the accumulators into at most `k` hotspot rows, sorted by
    /// descending score with ascending channel id as the tie-break, and
    /// dropping channels that never registered any signal.
    ///
    /// The score weighs each channel's *share* of the run's pathologies:
    /// drops and delivered-path bottlenecks dominate (weight 2 — they
    /// witness actual payment outcomes), queue residency share and
    /// starvation-time fraction follow (weight 1), and mean imbalance is
    /// a weak tie-signal (weight 0.5).
    pub fn finish(&self, k: usize) -> Vec<ChannelHotspot> {
        let elapsed = self.last_t_s.max(f64::MIN_POSITIVE);
        let total_drops = self.drops.iter().sum::<u64>().max(1) as f64;
        let total_bn = self.bottlenecks.iter().sum::<u64>().max(1) as f64;
        let total_qr = self
            .queue_residency_s
            .iter()
            .sum::<f64>()
            .max(f64::MIN_POSITIVE);
        let mut rows: Vec<ChannelHotspot> = (0..self.drops.len())
            .map(|i| {
                let util_frac = self.util_integral_s[i] / elapsed;
                let zero_liquidity_s = self.zero_liquidity_s[i];
                let imbalance_frac = self.imbalance_integral_s[i] / elapsed;
                let queue_residency_s = self.queue_residency_s[i];
                let score = 2.0 * (self.drops[i] as f64 / total_drops)
                    + 2.0 * (self.bottlenecks[i] as f64 / total_bn)
                    + queue_residency_s / total_qr
                    + zero_liquidity_s / elapsed
                    + 0.5 * imbalance_frac;
                ChannelHotspot {
                    channel: i as u32,
                    util_frac,
                    zero_liquidity_s,
                    imbalance_frac,
                    queue_residency_s,
                    drops: self.drops[i],
                    bottlenecks: self.bottlenecks[i],
                    score,
                }
            })
            .filter(|h| h.score > 0.0)
            .collect();
        rows.sort_by(|a, b| {
            b.score
                .total_cmp(&a.score)
                .then_with(|| a.channel.cmp(&b.channel))
        });
        rows.truncate(k);
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(util: f64, zero: bool, imb: f64) -> ChannelSample {
        ChannelSample {
            closed: false,
            util_frac: util,
            at_zero: zero,
            imbalance_frac: imb,
        }
    }

    #[test]
    fn integrals_accumulate_over_time() {
        let mut a = ChannelAttribution::new(2);
        a.integrate(
            1.0,
            [sample(0.5, true, 0.2), sample(0.0, false, 0.0)].into_iter(),
        );
        a.integrate(
            3.0,
            [sample(1.0, false, 0.4), sample(0.0, false, 0.0)].into_iter(),
        );
        let rows = a.finish(8);
        assert_eq!(rows.len(), 1, "idle channel filtered: {rows:?}");
        let h = &rows[0];
        assert_eq!(h.channel, 0);
        // (0.5*1 + 1.0*2) / 3.
        assert!((h.util_frac - 2.5 / 3.0).abs() < 1e-12, "{h:?}");
        assert!((h.zero_liquidity_s - 1.0).abs() < 1e-12, "{h:?}");
        // (0.2*1 + 0.4*2) / 3.
        assert!((h.imbalance_frac - 1.0 / 3.0).abs() < 1e-12, "{h:?}");
    }

    #[test]
    fn closed_channels_and_zero_dt_are_skipped() {
        let mut a = ChannelAttribution::new(1);
        let closed = ChannelSample {
            closed: true,
            util_frac: 1.0,
            at_zero: true,
            imbalance_frac: 1.0,
        };
        a.integrate(2.0, [closed].into_iter());
        a.integrate(2.0, [sample(1.0, true, 1.0)].into_iter()); // dt == 0
        assert!(a.finish(8).is_empty());
    }

    #[test]
    fn ranking_is_deterministic_with_id_tiebreak() {
        let mut a = ChannelAttribution::new(4);
        // Channels 1 and 3 get identical signals; 2 gets a stronger one.
        a.drop_at(1);
        a.drop_at(3);
        a.drop_at(2);
        a.bottleneck(2);
        let rows = a.finish(8);
        let ids: Vec<u32> = rows.iter().map(|h| h.channel).collect();
        assert_eq!(ids, vec![2, 1, 3], "{rows:?}");
        // Truncation keeps the top of the same order.
        let top: Vec<u32> = a.finish(2).iter().map(|h| h.channel).collect();
        assert_eq!(top, vec![2, 1]);
    }

    #[test]
    fn queue_residency_counts_toward_score() {
        let mut a = ChannelAttribution::new(2);
        a.queue_wait(1, 0.75);
        a.queue_wait(1, 0.25);
        let rows = a.finish(8);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].channel, 1);
        assert!((rows[0].queue_residency_s - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_attribution_renders_empty_table() {
        let a = ChannelAttribution::new(0);
        assert!(a.is_empty());
        assert!(a.finish(8).is_empty());
    }
}
