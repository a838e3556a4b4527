//! Probability distributions for workload generation, built from first
//! principles on top of [`DetRng`].
//!
//! The paper's workloads need: exponential inter-arrival times (Poisson
//! transaction arrivals), log-normal-ish transaction sizes matching the
//! Ripple trace moments, an exponential-rank sampler for choosing senders
//! ("the sender for each transaction was sampled ... using an exponential
//! distribution", §6.1), and uniform receivers.

use crate::rng::DetRng;

/// A sampleable one-dimensional distribution over `f64`.
pub trait Distribution {
    /// Draws one sample.
    fn sample(&self, rng: &mut DetRng) -> f64;

    /// The distribution mean, if it exists in closed form.
    fn mean(&self) -> Option<f64> {
        None
    }
}

/// Exponential distribution with rate `lambda` (mean `1/lambda`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Exponential {
    lambda: f64,
}

impl Exponential {
    /// Creates an exponential distribution with the given rate (> 0).
    pub fn new(lambda: f64) -> Self {
        assert!(lambda > 0.0 && lambda.is_finite(), "rate must be positive");
        Exponential { lambda }
    }

    /// Creates an exponential distribution with the given mean (> 0).
    pub fn with_mean(mean: f64) -> Self {
        assert!(mean > 0.0 && mean.is_finite(), "mean must be positive");
        Exponential { lambda: 1.0 / mean }
    }

    /// The rate parameter λ.
    pub fn lambda(&self) -> f64 {
        self.lambda
    }
}

impl Distribution for Exponential {
    fn sample(&self, rng: &mut DetRng) -> f64 {
        // Inverse CDF: F⁻¹(u) = -ln(1-u)/λ; we use -ln(u) with u ∈ (0,1),
        // which has the same law.
        -rng.uniform_open().ln() / self.lambda
    }

    fn mean(&self) -> Option<f64> {
        Some(1.0 / self.lambda)
    }
}

/// Standard-normal sampler (Box–Muller, one value per call).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct StdNormal;

impl Distribution for StdNormal {
    fn sample(&self, rng: &mut DetRng) -> f64 {
        let u1 = rng.uniform_open();
        let u2 = rng.uniform();
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
    }

    fn mean(&self) -> Option<f64> {
        Some(0.0)
    }
}

/// Log-normal distribution: `exp(mu + sigma * Z)` with `Z ~ N(0,1)`.
///
/// Transaction sizes in the Ripple trace are heavy-tailed with a moderate
/// body; the paper reports mean 345 XRP (full trace restricted to its
/// subgraph) and mean 170 XRP (ISP workload, largest 10 % pruned). Use
/// [`LogNormal::with_mean_median`] to fit those two moments.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogNormal {
    mu: f64,
    sigma: f64,
}

impl LogNormal {
    /// Creates a log-normal with location `mu` and scale `sigma >= 0` of the
    /// underlying normal.
    pub fn new(mu: f64, sigma: f64) -> Self {
        assert!(
            sigma >= 0.0 && sigma.is_finite() && mu.is_finite(),
            "invalid parameters"
        );
        LogNormal { mu, sigma }
    }

    /// Fits a log-normal from a target mean and median (mean > median > 0).
    ///
    /// Median = exp(mu), mean = exp(mu + sigma²/2), so
    /// sigma = sqrt(2 ln(mean/median)).
    pub fn with_mean_median(mean: f64, median: f64) -> Self {
        assert!(
            mean > 0.0 && median > 0.0 && mean >= median,
            "need mean >= median > 0"
        );
        let mu = median.ln();
        let sigma = (2.0 * (mean / median).ln()).sqrt();
        LogNormal { mu, sigma }
    }

    /// Location parameter of the underlying normal.
    pub fn mu(&self) -> f64 {
        self.mu
    }

    /// Scale parameter of the underlying normal.
    pub fn sigma(&self) -> f64 {
        self.sigma
    }
}

impl Distribution for LogNormal {
    fn sample(&self, rng: &mut DetRng) -> f64 {
        (self.mu + self.sigma * StdNormal.sample(rng)).exp()
    }

    fn mean(&self) -> Option<f64> {
        Some((self.mu + self.sigma * self.sigma / 2.0).exp())
    }
}

/// Samples node *ranks* with exponentially decaying probability:
/// `P(rank = i) ∝ exp(-i / scale)`, truncated to `0..n`.
///
/// This reproduces the paper's skewed sender selection ("sampled from the
/// set of nodes using an exponential distribution") — a few nodes originate
/// most payments, which is what makes channels become imbalanced.
#[derive(Debug, Clone, PartialEq)]
pub struct ExponentialRank {
    n: usize,
    cumulative: Vec<f64>,
}

impl ExponentialRank {
    /// Creates a sampler over `n` ranks with decay scale `scale > 0`
    /// (larger scale = closer to uniform).
    pub fn new(n: usize, scale: f64) -> Self {
        assert!(n > 0, "need at least one rank");
        assert!(scale > 0.0 && scale.is_finite(), "scale must be positive");
        let mut cumulative = Vec::with_capacity(n);
        let mut acc = 0.0;
        for i in 0..n {
            acc += (-(i as f64) / scale).exp();
            cumulative.push(acc);
        }
        ExponentialRank { n, cumulative }
    }

    /// Draws a rank in `0..n`.
    pub fn sample_rank(&self, rng: &mut DetRng) -> usize {
        let total = *self.cumulative.last().expect("non-empty");
        let target = rng.uniform() * total;
        match self
            .cumulative
            .binary_search_by(|c| c.partial_cmp(&target).expect("finite"))
        {
            Ok(i) => (i + 1).min(self.n - 1),
            Err(i) => i.min(self.n - 1),
        }
    }
}

/// A Poisson arrival process: exponential inter-arrival times with the given
/// rate (events per second). Yields successive arrival timestamps in seconds.
#[derive(Debug, Clone)]
pub struct PoissonProcess {
    inter: Exponential,
    now: f64,
}

impl PoissonProcess {
    /// Creates a process with `rate` events per second, starting at t = 0.
    pub fn new(rate: f64) -> Self {
        PoissonProcess {
            inter: Exponential::new(rate),
            now: 0.0,
        }
    }

    /// Advances to and returns the next arrival time (seconds).
    pub fn next_arrival(&mut self, rng: &mut DetRng) -> f64 {
        self.now += self.inter.sample(rng);
        self.now
    }

    /// The current (last returned) arrival time in seconds.
    pub fn now(&self) -> f64 {
        self.now
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mean_of(d: &impl Distribution, seed: u64, n: usize) -> f64 {
        let mut rng = DetRng::new(seed);
        (0..n).map(|_| d.sample(&mut rng)).sum::<f64>() / n as f64
    }

    #[test]
    fn exponential_mean_matches() {
        let d = Exponential::with_mean(4.0);
        let m = mean_of(&d, 11, 100_000);
        assert!((m - 4.0).abs() < 0.1, "mean {m}");
        assert_eq!(d.mean(), Some(4.0));
        assert!((Exponential::new(0.5).mean().unwrap() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn exponential_is_positive() {
        let d = Exponential::new(1.0);
        let mut rng = DetRng::new(12);
        for _ in 0..10_000 {
            assert!(d.sample(&mut rng) > 0.0);
        }
    }

    #[test]
    fn std_normal_moments() {
        let mut rng = DetRng::new(13);
        let n = 200_000;
        let samples: Vec<f64> = (0..n).map(|_| StdNormal.sample(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.03, "var {var}");
    }

    #[test]
    fn log_normal_fit_mean_median() {
        // Paper's ISP workload: mean 170 XRP. Pick median 100 XRP for a
        // realistic right skew.
        let d = LogNormal::with_mean_median(170.0, 100.0);
        let m = mean_of(&d, 14, 200_000);
        assert!((m - 170.0).abs() / 170.0 < 0.05, "mean {m}");
        assert!((d.mean().unwrap() - 170.0).abs() < 1e-9);
    }

    #[test]
    fn exponential_rank_is_skewed_and_in_range() {
        let s = ExponentialRank::new(10, 2.0);
        let mut rng = DetRng::new(19);
        let mut counts = [0usize; 10];
        for _ in 0..50_000 {
            let r = s.sample_rank(&mut rng);
            assert!(r < 10);
            counts[r] += 1;
        }
        // Rank 0 should be sampled ~ e^{1/2} ≈ 1.65x more often than rank 1.
        assert!(counts[0] > counts[1]);
        assert!(counts[1] > counts[3]);
        assert!(counts[0] as f64 / counts[1] as f64 > 1.3);
    }

    #[test]
    fn exponential_rank_large_scale_near_uniform() {
        let s = ExponentialRank::new(4, 1e6);
        let mut rng = DetRng::new(20);
        let mut counts = [0usize; 4];
        for _ in 0..40_000 {
            counts[s.sample_rank(&mut rng)] += 1;
        }
        for c in counts {
            let f = c as f64 / 40_000.0;
            assert!((f - 0.25).abs() < 0.02, "f {f}");
        }
    }

    #[test]
    fn poisson_process_monotone_with_correct_rate() {
        let mut p = PoissonProcess::new(100.0);
        let mut rng = DetRng::new(21);
        let mut last = 0.0;
        let mut count = 0;
        while p.next_arrival(&mut rng) < 10.0 {
            assert!(p.now() > last);
            last = p.now();
            count += 1;
        }
        // Expect ~1000 arrivals in 10 s at rate 100/s.
        assert!((count as f64 - 1000.0).abs() < 120.0, "count {count}");
    }
}
