//! Fixed-bucket log-scale histograms.
//!
//! The paper's claims are distributional (tail latency under SRPT,
//! queue-delay spread under marking), so scalar means hide exactly what
//! matters. [`Histogram`] keeps 64 power-of-two buckets spanning
//! `[1 µs, ~9.2e12 µs]` when values are seconds — wide enough for any
//! simulated quantity we record — at a fixed 64-word cost per histogram,
//! so the engine can keep several without caring about run length.

use serde::Serialize;

/// Number of log2 buckets.
const BUCKETS: usize = 64;

/// Smallest resolvable value; everything below lands in bucket 0.
const FLOOR: f64 = 1e-6;

/// A fixed-size log2-bucketed histogram over non-negative `f64` samples.
///
/// Bucket `i` covers `[FLOOR * 2^i, FLOOR * 2^(i+1))`; values below
/// `FLOOR` fall into bucket 0 and values beyond the last edge clamp into
/// bucket 63. Alongside the buckets it tracks exact count/sum/min/max, so
/// means are exact and percentiles are bucket-resolution approximations.
#[derive(Debug, Clone, Serialize)]
pub struct Histogram {
    /// Per-bucket sample counts.
    pub counts: Vec<u64>,
    /// Total samples recorded.
    pub count: u64,
    /// Exact sum of all samples.
    pub sum: f64,
    /// Smallest sample recorded (0 when empty).
    pub min: f64,
    /// Largest sample recorded (0 when empty).
    pub max: f64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram {
            counts: vec![0; BUCKETS],
            count: 0,
            sum: 0.0,
            min: 0.0,
            max: 0.0,
        }
    }

    /// Index of the bucket covering `v`.
    fn bucket(v: f64) -> usize {
        if v < FLOOR {
            return 0;
        }
        let i = (v / FLOOR).log2().floor();
        (i as usize).min(BUCKETS - 1)
    }

    /// Records one sample. Negative or non-finite samples are clamped
    /// into bucket 0 (they only arise from degenerate configs).
    pub fn record(&mut self, v: f64) {
        let v = if v.is_finite() { v.max(0.0) } else { 0.0 };
        self.counts[Self::bucket(v)] += 1;
        if self.count == 0 {
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.count += 1;
        self.sum += v;
    }

    /// Records `n` samples of `v` at once. Equals `n` calls of
    /// [`Histogram::record`] — buckets, count, min and max always, and the
    /// sum bit for bit whenever every partial sum is exact (integer `v`
    /// whose running total stays below 2⁵³), which is how the engine
    /// folds its per-hop-count unit tallies in.
    pub fn record_n(&mut self, v: f64, n: u64) {
        if n == 0 {
            return;
        }
        let v = if v.is_finite() { v.max(0.0) } else { 0.0 };
        self.counts[Self::bucket(v)] += n;
        if self.count == 0 {
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.count += n;
        self.sum += v * n as f64;
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Exact mean, or `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum / self.count as f64)
    }

    /// Approximate `p`-th percentile (`p` in `[0, 100]`): the upper edge
    /// of the bucket containing the rank, clamped into `[min, max]`.
    /// `None` when empty.
    pub fn percentile(&self, p: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let rank = ((p / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let edge = FLOOR * 2f64.powi(i as i32 + 1);
                return Some(edge.clamp(self.min, self.max));
            }
        }
        Some(self.max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram() {
        let h = Histogram::new();
        assert!(h.is_empty());
        assert_eq!(h.mean(), None);
        assert_eq!(h.percentile(50.0), None);
        assert!(h.counts.iter().all(|&c| c == 0));
    }

    #[test]
    fn records_track_exact_stats() {
        let mut h = Histogram::new();
        for v in [0.5, 1.5, 2.0, 8.0] {
            h.record(v);
        }
        assert_eq!(h.count, 4);
        assert!((h.sum - 12.0).abs() < 1e-12);
        assert_eq!(h.min, 0.5);
        assert_eq!(h.max, 8.0);
        assert!((h.mean().unwrap() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn percentile_is_bucket_resolution() {
        let mut h = Histogram::new();
        for _ in 0..99 {
            h.record(0.010);
        }
        h.record(10.0);
        // p50 lands in the 10 ms bucket: its upper edge is within 2x.
        let p50 = h.percentile(50.0).unwrap();
        assert!((0.010..0.032).contains(&p50), "p50 {p50}");
        // p100 reaches the outlier's bucket and clamps to max.
        let p100 = h.percentile(100.0).unwrap();
        assert!(p100 <= 10.0 && p100 > 5.0, "p100 {p100}");
    }

    #[test]
    fn degenerate_samples_are_clamped() {
        let mut h = Histogram::new();
        h.record(-3.0);
        h.record(f64::NAN);
        h.record(0.0);
        assert_eq!(h.count, 3);
        assert_eq!(h.counts[0], 3);
        assert_eq!(h.min, 0.0);
        assert_eq!(h.max, 0.0);
    }

    #[test]
    fn record_n_equals_n_records() {
        let assert_same = |a: &Histogram, b: &Histogram, what: &str| {
            assert_eq!(a.counts, b.counts, "{what}: buckets");
            assert_eq!(a.count, b.count, "{what}: count");
            assert_eq!(a.sum.to_bits(), b.sum.to_bits(), "{what}: sum");
            assert_eq!(a.min.to_bits(), b.min.to_bits(), "{what}: min");
            assert_eq!(a.max.to_bits(), b.max.to_bits(), "{what}: max");
        };
        let mut seeded = Histogram::new();
        for v in [3.0, 1.0, 7.0] {
            seeded.record(v);
        }
        for start in [Histogram::new(), seeded] {
            for v in [0.0, 1.0, 2.0, 5.0, 12.0, 40.0] {
                for n in [0, 1, 2, 7, 1_000] {
                    let (mut once, mut each) = (start.clone(), start.clone());
                    once.record_n(v, n);
                    for _ in 0..n {
                        each.record(v);
                    }
                    assert_same(&once, &each, &format!("{v} x {n} from {}", start.count));
                }
            }
            // A run of tallies folds in like the interleaved samples.
            let (mut folded, mut each) = (start.clone(), start.clone());
            for (v, n) in [(4.0, 3), (0.0, 2), (9.0, 5)] {
                folded.record_n(v, n);
            }
            for v in [9.0, 4.0, 0.0, 9.0, 4.0, 9.0, 0.0, 9.0, 4.0, 9.0] {
                each.record(v);
            }
            assert_same(&folded, &each, &format!("tallies from {}", start.count));
        }
    }
}
