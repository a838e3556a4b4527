//! Deterministic randomness.
//!
//! Every stochastic component of the reproduction (workload, topology
//! generation, scheme-internal randomness) draws from a [`DetRng`] derived
//! from a single experiment seed, so that every run is bit-reproducible.
//! Independent subsystems *fork* labeled child generators instead of sharing
//! one stream; this keeps, e.g., the transaction workload identical across
//! routing schemes even though the schemes consume different amounts of
//! randomness.

use rand::rngs::SmallRng;
use rand::{Rng, RngExt, SeedableRng};
use std::convert::Infallible;

/// A deterministic, forkable random-number generator.
///
/// Wraps [`SmallRng`] and adds [`DetRng::fork`], which derives an independent
/// child stream from a string label. Forks with the same (parent seed, label)
/// pair always produce identical streams.
#[derive(Debug, Clone)]
pub struct DetRng {
    seed: u64,
    inner: SmallRng,
}

impl DetRng {
    /// Creates a generator from an experiment seed.
    pub fn new(seed: u64) -> Self {
        DetRng {
            seed,
            inner: SmallRng::seed_from_u64(seed),
        }
    }

    /// The seed this generator was created with.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Derives an independent child generator identified by `label`.
    ///
    /// The child's seed is a hash of the parent seed and the label, so
    /// different labels give (for all practical purposes) independent
    /// streams, and the same label always gives the same stream.
    pub fn fork(&self, label: &str) -> DetRng {
        // FNV-1a over the label, mixed with the parent seed via a
        // SplitMix64 finalizer. Stable across platforms and Rust versions
        // (unlike `DefaultHasher`).
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in label.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        let mut z = self.seed ^ h;
        z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        DetRng::new(z)
    }

    /// Uniform sample in `[0, 1)`.
    #[inline]
    pub fn uniform(&mut self) -> f64 {
        self.inner.random::<f64>()
    }

    /// Uniform sample strictly inside `(0, 1)`; safe as a log/division input.
    #[inline]
    pub fn uniform_open(&mut self) -> f64 {
        loop {
            let u = self.inner.random::<f64>();
            if u > 0.0 {
                return u;
            }
        }
    }

    /// Uniform integer in `[0, n)`. Panics if `n == 0`.
    #[inline]
    pub fn index(&mut self, n: usize) -> usize {
        assert!(n > 0, "empty range");
        self.inner.random_range(0..n)
    }

    /// Uniform integer in `[lo, hi)`. Panics if the range is empty.
    #[inline]
    pub fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range");
        self.inner.random_range(lo..hi)
    }

    /// Bernoulli trial with success probability `p` (clamped to `[0, 1]`).
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            return false;
        }
        if p >= 1.0 {
            return true;
        }
        self.inner.random::<f64>() < p
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.index(i + 1);
            items.swap(i, j);
        }
    }

    /// Picks a uniformly random element. Panics on an empty slice.
    pub fn choose<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.index(items.len())]
    }
}

// Implementing the infallible `TryRng` gives `DetRng` the full `rand::Rng`
// and `rand::RngExt` APIs through rand's blanket impls, so a `DetRng` can be
// handed to any rand-compatible consumer (e.g. proptest strategies).
impl rand::rand_core::TryRng for DetRng {
    type Error = Infallible;

    fn try_next_u32(&mut self) -> Result<u32, Infallible> {
        Ok(self.inner.next_u32())
    }
    fn try_next_u64(&mut self) -> Result<u64, Infallible> {
        Ok(self.inner.next_u64())
    }
    fn try_fill_bytes(&mut self, dst: &mut [u8]) -> Result<(), Infallible> {
        self.inner.fill_bytes(dst);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = DetRng::new(7);
        let mut b = DetRng::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn forks_are_label_stable_and_distinct() {
        let root = DetRng::new(42);
        let mut w1 = root.fork("workload");
        let mut w2 = root.fork("workload");
        let mut t = root.fork("topology");
        let s1: Vec<u64> = (0..16).map(|_| w1.next_u64()).collect();
        let s2: Vec<u64> = (0..16).map(|_| w2.next_u64()).collect();
        let s3: Vec<u64> = (0..16).map(|_| t.next_u64()).collect();
        assert_eq!(s1, s2);
        assert_ne!(s1, s3);
    }

    #[test]
    fn uniform_in_unit_interval() {
        let mut r = DetRng::new(1);
        for _ in 0..1000 {
            let u = r.uniform();
            assert!((0.0..1.0).contains(&u));
            let v = r.uniform_open();
            assert!(v > 0.0 && v < 1.0);
        }
    }

    #[test]
    fn index_bounds() {
        let mut r = DetRng::new(2);
        for _ in 0..1000 {
            assert!(r.index(5) < 5);
        }
        assert_eq!(r.index(1), 0);
    }

    #[test]
    fn chance_extremes() {
        let mut r = DetRng::new(3);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
        assert!(!r.chance(-0.5));
        assert!(r.chance(1.5));
    }

    #[test]
    fn chance_frequency_reasonable() {
        let mut r = DetRng::new(4);
        let hits = (0..10_000).filter(|_| r.chance(0.3)).count();
        let freq = hits as f64 / 10_000.0;
        assert!((freq - 0.3).abs() < 0.02, "freq {freq}");
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = DetRng::new(5);
        let mut v: Vec<u32> = (0..50).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn choose_returns_member() {
        let mut r = DetRng::new(9);
        let items = [10, 20, 30];
        for _ in 0..100 {
            assert!(items.contains(r.choose(&items)));
        }
    }
}
