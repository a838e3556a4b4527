//! A reference kernel that prices the host's CPU, not the simulator.
//!
//! On the shared 2-core reference VM the effective CPU speed drops by
//! 20–50 % for a minute or two every ten minutes or so (`/proc/stat`
//! shows no steal; wall and CPU time of everything inflate alike). Ten
//! back-to-back runs of one workload that straddle such a stretch spread
//! 20–27 % on raw `wall_s` — past any bound the contract allows. A fixed
//! kernel timed right before and after each repetition sees the same
//! stretch, so host time divided by the kernel's slowdown stays steady.
//! Over forty runs that met one (all four workloads × ten seeds) the
//! median of the per-repetition ratios spread 1.9 / 2.1 / 11.8 / 11.4 %
//! where the raw median spread 3.1 / 3.6 / 21.4 / 13.3 % and the raw
//! minimum 2.6 / 2.3 / 20.6 / 19.0 %.
//!
//! The kernel must be quieter than what it corrects, so it stays inside
//! the caches: a 32 KiB table and a 2 048-key hash map. (A 64 MiB
//! random-access table was tried first: its own time moved 8–14 % from
//! process to process on a quiet host and made three workloads of four
//! noisier; the cache-resident kernel moves 1 %.) It uses only `std` and
//! none of the simulator's code, so a change to the simulator cannot move
//! it; its mix is the simulator's hot paths — hashing, table updates,
//! data-dependent branches, vector pushes.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

/// Table entries (32 KiB of `u64`).
const TABLE_LEN: usize = 4_096;
/// Keys in the hash map.
const MAP_KEYS: u64 = 2_048;
/// Steps per timing (≈ 52 ms): long enough that timer and scheduler noise
/// average out, short enough to cost a 2 s repetition 5 %. Unoptimized
/// builds (the tests' smoke runs) measure nothing worth normalizing and
/// take a token pass.
const STEPS: usize = if cfg!(debug_assertions) {
    25_000
} else {
    2_500_000
};

/// What one timing of the kernel takes on the reference box when it is
/// quiet, in seconds: normalized host time is expressed at this speed.
pub const NOMINAL_SECS: f64 = 0.052;

/// The kernel's fixed data, built once per process outside any timing.
pub struct HostSpeed {
    table: Vec<u64>,
    map: HashMap<u64, u64>,
    state: u64,
}

fn lcg(x: u64) -> u64 {
    x.wrapping_mul(6_364_136_223_846_793_005)
        .wrapping_add(1_442_695_040_888_963_407)
}

impl HostSpeed {
    /// Builds the table and the map.
    pub fn new() -> Self {
        let mut x = 0x9e37_79b9_7f4a_7c15;
        let table = (0..TABLE_LEN)
            .map(|_| {
                x = lcg(x);
                x
            })
            .collect();
        let map = (0..MAP_KEYS).map(|k| (k, lcg(k))).collect();
        HostSpeed {
            table,
            map,
            state: x,
        }
    }

    /// Times one pass of the kernel and returns how much slower than
    /// nominal the host ran it (`1.0` on the quiet reference box).
    pub fn slowdown(&mut self) -> f64 {
        let mut x = self.state;
        let mut acc = 0u64;
        let mut spill: Vec<u64> = Vec::with_capacity(4_096);
        let t0 = Instant::now();
        for _ in 0..STEPS {
            x = lcg(x);
            let i = (x >> 20) as usize % TABLE_LEN;
            acc ^= self.table[i];
            self.table[i] = acc.rotate_left(7);
            acc = acc.wrapping_add(self.map[&((x >> 11) % MAP_KEYS)]);
            if acc & 3 == 0 {
                spill.push(acc);
                if spill.len() == 4_096 {
                    spill.clear();
                }
            }
        }
        let secs = t0.elapsed().as_secs_f64();
        self.state = x;
        black_box((acc, spill.len()));
        secs / NOMINAL_SECS
    }
}

impl Default for HostSpeed {
    fn default() -> Self {
        HostSpeed::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_does_the_same_work_every_time() {
        // Two instances walk the same sequence and leave the same state:
        // only the clock differs between timings.
        let (mut a, mut b) = (HostSpeed::new(), HostSpeed::new());
        assert!(a.slowdown() > 0.0 && b.slowdown() > 0.0);
        assert_eq!(a.state, b.state);
        assert_eq!(a.table, b.table);
        let before = a.state;
        a.slowdown();
        assert_ne!(a.state, before, "each timing continues the walk");
    }
}
