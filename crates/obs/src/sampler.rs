//! Unified time-series sampling.
//!
//! One cadence, one schema: the engine probes every registered series at
//! the same instant (once per [`SamplerConfig::cadence`], from the poll
//! handler) and pushes one row, so all series stay index-aligned — sample
//! `i` of every series was taken at the same simulated time. This
//! replaces the ad-hoc per-metric samplers (`imbalance_series`,
//! `queue_occupancy_series`, `QueueConfig::sample_queue_depths`) that
//! each had their own plumbing.
//!
//! The registry is fixed (see [`SERIES_NAMES`]): adding a series means
//! adding a probe in the engine, not a configuration mechanism. The
//! per-channel queue-depth matrix is the one opt-in extra
//! ([`SamplerConfig::queue_depths`]) because it is O(channels) per
//! sample.

use serde::Serialize;
use spider_types::SimDuration;

/// Number of registered scalar series.
pub const NUM_SERIES: usize = 6;

/// The registered series, in row order.
///
/// * `imbalance` — network-wide mean `|fwd − bwd| / capacity` in `[0, 1]`.
/// * `queue_occupancy` — total units resident in router queues.
/// * `inflight_units` — live hop-by-hop units in the slab (0 in lockstep).
/// * `calendar_events` — events pending in the calendar queue.
/// * `window_sum_xrp` — sum of live AIMD window sizes (0 for windowless
///   schemes). Routers keep the sum as a running total in integer drops
///   and convert once, so it is exact and independent of pair order; it
///   can differ in the last ulp from the per-window `f64` sum trees before
///   PR 18 sampled. No test, golden or digest pins this series.
/// * `mean_channel_price` — mean per-channel imbalance price component
///   over open channels (queueing mode; 0 in lockstep).
pub const SERIES_NAMES: [&str; NUM_SERIES] = [
    "imbalance",
    "queue_occupancy",
    "inflight_units",
    "calendar_events",
    "window_sum_xrp",
    "mean_channel_price",
];

/// Sampling configuration, part of the engine's `SimConfig`.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SamplerConfig {
    /// Time between samples.
    pub cadence: SimDuration,
    /// Also record the per-channel queue-depth matrix (both directions
    /// summed, indexed by channel id) every sample. Off by default: it is
    /// the only probe whose cost scales with network size.
    pub queue_depths: bool,
}

impl Default for SamplerConfig {
    fn default() -> Self {
        SamplerConfig {
            cadence: SimDuration::from_secs(1),
            queue_depths: false,
        }
    }
}

/// One named series of the sample set.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SampleSeries {
    /// Name from [`SERIES_NAMES`].
    pub name: String,
    /// One value per sampling instant.
    pub values: Vec<f64>,
}

/// Every series of one run, index-aligned on the sampling instants.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SampleSet {
    /// Seconds between samples.
    pub cadence_s: f64,
    /// The scalar series, in [`SERIES_NAMES`] order.
    pub series: Vec<SampleSeries>,
    /// Per-channel queue depths per sample (empty unless
    /// [`SamplerConfig::queue_depths`] was set). Outer index: sample;
    /// inner index: channel id.
    pub queue_depths: Vec<Vec<u32>>,
}

impl Default for SampleSet {
    fn default() -> Self {
        SampleSet {
            cadence_s: 1.0,
            series: SERIES_NAMES
                .iter()
                .map(|&name| SampleSeries {
                    name: name.to_string(),
                    values: Vec::new(),
                })
                .collect(),
            queue_depths: Vec::new(),
        }
    }
}

impl SampleSet {
    /// The values of the series called `name`; empty for unknown names.
    pub fn series(&self, name: &str) -> &[f64] {
        self.series
            .iter()
            .find(|s| s.name == name)
            .map(|s| s.values.as_slice())
            .unwrap_or(&[])
    }

    /// Number of sampling instants recorded.
    pub fn len(&self) -> usize {
        self.series.first().map_or(0, |s| s.values.len())
    }

    /// True when no samples were taken.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Streaming collector the engine pushes rows into.
#[derive(Debug, Clone)]
pub struct Sampler {
    cfg: SamplerConfig,
    rows: Vec<[f64; NUM_SERIES]>,
    queue_depths: Vec<Vec<u32>>,
}

impl Sampler {
    /// A sampler with the given config.
    pub fn new(cfg: SamplerConfig) -> Self {
        Sampler {
            cfg,
            rows: Vec::new(),
            queue_depths: Vec::new(),
        }
    }

    /// Time between samples.
    pub fn cadence(&self) -> SimDuration {
        self.cfg.cadence
    }

    /// Whether the engine should also collect the per-channel depth
    /// matrix this run.
    pub fn wants_queue_depths(&self) -> bool {
        self.cfg.queue_depths
    }

    /// Records one row of probes, in [`SERIES_NAMES`] order.
    pub fn push_row(&mut self, row: [f64; NUM_SERIES]) {
        self.rows.push(row);
    }

    /// Records one per-channel depth sample (call once per `push_row`
    /// when [`Sampler::wants_queue_depths`]).
    pub fn push_queue_depths(&mut self, depths: Vec<u32>) {
        self.queue_depths.push(depths);
    }

    /// Number of rows recorded so far.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when no rows were recorded.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Transposes into the report-facing [`SampleSet`].
    pub fn finish(self) -> SampleSet {
        let series = SERIES_NAMES
            .iter()
            .enumerate()
            .map(|(i, &name)| SampleSeries {
                name: name.to_string(),
                values: self.rows.iter().map(|r| r[i]).collect(),
            })
            .collect();
        SampleSet {
            cadence_s: self.cfg.cadence.as_secs_f64(),
            series,
            queue_depths: self.queue_depths,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_transpose_into_aligned_series() {
        let mut s = Sampler::new(SamplerConfig::default());
        s.push_row([0.1, 5.0, 2.0, 10.0, 40.0, 0.5]);
        s.push_row([0.2, 6.0, 3.0, 11.0, 42.0, 0.6]);
        assert_eq!(s.len(), 2);
        let set = s.finish();
        assert_eq!(set.len(), 2);
        assert_eq!(set.series("imbalance"), &[0.1, 0.2]);
        assert_eq!(set.series("queue_occupancy"), &[5.0, 6.0]);
        assert_eq!(set.series("mean_channel_price"), &[0.5, 0.6]);
        assert_eq!(set.series("nope"), &[] as &[f64]);
        assert_eq!(set.cadence_s, 1.0);
    }

    #[test]
    fn queue_depths_are_opt_in() {
        let s = Sampler::new(SamplerConfig::default());
        assert!(!s.wants_queue_depths());
        let mut s = Sampler::new(SamplerConfig {
            queue_depths: true,
            ..SamplerConfig::default()
        });
        assert!(s.wants_queue_depths());
        s.push_row([0.0; NUM_SERIES]);
        s.push_queue_depths(vec![1, 2, 3]);
        let set = s.finish();
        assert_eq!(set.queue_depths, vec![vec![1, 2, 3]]);
    }

    #[test]
    fn default_set_has_named_empty_series() {
        let set = SampleSet::default();
        assert!(set.is_empty());
        for name in SERIES_NAMES {
            assert_eq!(set.series(name), &[] as &[f64]);
        }
    }
}
