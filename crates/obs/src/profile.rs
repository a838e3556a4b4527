//! Engine phase profiling.
//!
//! Wall-clock timers around the engine's dispatch phases, answering
//! "where does a run spend its time" per scheme — the breakdown behind
//! the figures' `profile_*_s` columns and the repo benchmark's
//! `sim.engine.phase.*` metrics.
//!
//! **Counts are exact; totals are sampled estimates.** A clock read costs
//! 30–45 ns on a 2-core x86 host, as much as a cheap event, so the event
//! loop does not time every iteration. It asks [`Profiler::iteration`]
//! once per iteration, and one iteration in [`MEAN_GAP`] on average is
//! timed: the gap to the next timed one is uniform on
//! `1..=2·MEAN_GAP − 1`, drawn from the profiler's own fixed-seed stream
//! (a fixed stride would alias with periodic event patterns), and the
//! first iteration is always timed. A timed iteration reads the clock
//! before the calendar pop, between the pop and the handler, and after
//! the handler; every iteration counts its phases. [`Profiler::finish`]
//! scales each phase's sampled time by `count / sampled`. Rare, heavy
//! work (a poll's retry sweep, a series sample, a churn or fault event)
//! is timed on every call instead, through [`Profiler::start`] and
//! [`Profiler::stop`]. Every interval is charged net of the clock's own
//! read cost, measured once when an enabled profiler is built.
//!
//! Profiling is opt-in: when disabled, the loop pays one branch per
//! iteration, with no clock read and no draw.
//!
//! The measured durations are the only non-deterministic quantity in the
//! whole observability layer; they, and the sampling draw, never
//! influence the simulation and are excluded from golden tests.

use serde::Serialize;
use spider_types::DetRng;
use std::time::Instant;

/// Mean number of loop iterations per timed one.
pub const MEAN_GAP: u64 = 16;

/// Seed of the profiler's private sampling stream.
const SAMPLING_SEED: u64 = 0x7072_6f66_696c_6572;

/// Back-to-back clock reads whose smallest gap prices one read.
const CALIBRATION_READS: usize = 256;

/// The engine phases the profiler distinguishes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Popping the next event off the calendar queue.
    CalendarPop,
    /// Payment arrival processing and route computation (poll retries
    /// included: their time is dominated by `Router::route`).
    Routing,
    /// Hop-by-hop unit movement: queue/forward/deliver/timeout events.
    Forwarding,
    /// Lockstep settlement events.
    Settlement,
    /// Topology-churn application and router cache repair.
    ChurnRepair,
    /// Per-second series sampling inside the poll handler.
    Sampling,
}

/// Accumulated timing for one phase.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct PhaseStats {
    /// Times the phase ran (exact).
    pub count: u64,
    /// Estimated wall-clock nanoseconds spent in it, net of clock-read
    /// cost: the sampled loop iterations' time scaled up to `count`, plus
    /// every per-call timing.
    pub total_ns: u64,
}

/// Per-phase timing breakdown for one run.
#[derive(Debug, Clone, Default, Serialize)]
pub struct ProfileStats {
    /// Whether profiling was enabled (all-zero stats otherwise).
    pub enabled: bool,
    /// Calendar pop time.
    pub calendar_pop: PhaseStats,
    /// Routing time (arrivals + poll retries).
    pub routing: PhaseStats,
    /// Hop-by-hop forwarding time.
    pub forwarding: PhaseStats,
    /// Lockstep settlement time.
    pub settlement: PhaseStats,
    /// Churn application/repair time.
    pub churn_repair: PhaseStats,
    /// Series-sampling time.
    pub sampling: PhaseStats,
}

impl ProfileStats {
    /// Every phase with its display name, in reporting order.
    pub fn phases(&self) -> [(&'static str, PhaseStats); 6] {
        [
            ("calendar_pop", self.calendar_pop),
            ("routing", self.routing),
            ("forwarding", self.forwarding),
            ("settlement", self.settlement),
            ("churn_repair", self.churn_repair),
            ("sampling", self.sampling),
        ]
    }

    /// Total nanoseconds across all phases.
    pub fn total_ns(&self) -> u64 {
        self.phases().iter().map(|(_, s)| s.total_ns).sum()
    }
}

/// One event-loop iteration, as [`Profiler::iteration`] classed it.
#[derive(Debug, Clone, Copy)]
pub enum Iteration {
    /// Profiling is off: nothing is counted or timed.
    Off,
    /// Counted, not timed.
    Counted,
    /// Timed: the clock read that opened the current lap.
    Timed(Instant),
}

/// One phase's running sums.
#[derive(Debug, Clone, Copy, Default)]
struct Acc {
    /// Per-call timers: every call timed.
    exact: PhaseStats,
    /// Loop iterations charged to the phase.
    looped: u64,
    /// How many of those were timed.
    sampled: u64,
    /// Their summed time.
    sampled_ns: u64,
}

impl Acc {
    /// The phase's exact count and estimated total; no sampled lap means
    /// no estimate (zero).
    fn estimate(&self) -> PhaseStats {
        let scaled = (self.sampled_ns as u128 * self.looped as u128)
            .checked_div(self.sampled as u128)
            .unwrap_or(0) as u64;
        PhaseStats {
            count: self.exact.count + self.looped,
            total_ns: self.exact.total_ns + scaled,
        }
    }
}

/// The one clock read in the crates: timings go to `ProfileStats`,
/// never into simulation state.
#[inline(always)]
#[allow(clippy::disallowed_methods)]
fn now() -> Instant {
    Instant::now()
}

/// What one clock read adds to an interval: the smallest gap between
/// back-to-back reads.
fn read_cost_ns() -> u64 {
    let mut prev = now();
    (0..CALIBRATION_READS)
        .map(|_| {
            let t = now();
            let gap = net_ns(prev, t, 0);
            prev = t;
            gap
        })
        .min()
        .unwrap_or(0)
}

/// Nanoseconds from `t0` to `t1`, less the `read_ns` one of the two reads
/// added.
#[inline]
fn net_ns(t0: Instant, t1: Instant, read_ns: u64) -> u64 {
    (t1.duration_since(t0).as_nanos() as u64).saturating_sub(read_ns)
}

/// Accumulates [`PhaseStats`] from sampled loop laps and per-call timers.
#[derive(Debug, Clone)]
pub struct Profiler {
    enabled: bool,
    /// Nanoseconds one clock read adds to a measured interval.
    read_ns: u64,
    /// Iterations to skip before the next timed one.
    until_timed: u64,
    /// The sampling stream; never a simulation stream.
    rng: DetRng,
    /// Indexed by `Phase as usize`.
    acc: [Acc; 6],
}

impl Profiler {
    /// A profiler; enabled calibrates the clock's read cost, disabled
    /// never reads the clock.
    pub fn new(enabled: bool) -> Self {
        Profiler {
            enabled,
            read_ns: if enabled { read_cost_ns() } else { 0 },
            until_timed: 0,
            rng: DetRng::new(SAMPLING_SEED),
            acc: [Acc::default(); 6],
        }
    }

    /// Whether timers are live.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Opens one event-loop iteration: timed (the clock is read now), or
    /// only counted; [`Iteration::Off`] when disabled (one branch, no
    /// clock read, no draw).
    #[inline]
    pub fn iteration(&mut self) -> Iteration {
        if !self.enabled {
            return Iteration::Off;
        }
        if self.until_timed > 0 {
            self.until_timed -= 1;
            return Iteration::Counted;
        }
        self.until_timed = self.rng.range_u64(1, 2 * MEAN_GAP) - 1;
        Iteration::Timed(now())
    }

    /// Counts one run of `phase` in this iteration; on a timed one, also
    /// charges it the time since the last read and opens the next lap.
    #[inline]
    pub fn lap(&mut self, it: &mut Iteration, phase: Phase) {
        let acc = &mut self.acc[phase as usize];
        match it {
            Iteration::Off => {}
            Iteration::Counted => acc.looped += 1,
            Iteration::Timed(t0) => {
                let t1 = now();
                acc.looped += 1;
                acc.sampled += 1;
                acc.sampled_ns += net_ns(*t0, t1, self.read_ns);
                *t0 = t1;
            }
        }
    }

    /// Begins a per-call timer; `None` when disabled (one branch, no
    /// clock read).
    #[inline]
    pub fn start(&self) -> Option<Instant> {
        self.enabled.then(now)
    }

    /// Ends a per-call timer: charges the time since `start` to `phase`.
    #[inline]
    pub fn stop(&mut self, phase: Phase, t0: Option<Instant>) {
        let Some(t0) = t0 else { return };
        let ns = net_ns(t0, now(), self.read_ns);
        let exact = &mut self.acc[phase as usize].exact;
        exact.count += 1;
        exact.total_ns += ns;
    }

    /// The per-phase counts and estimates, leaving the sums empty.
    pub fn finish(&mut self) -> ProfileStats {
        let [calendar_pop, routing, forwarding, settlement, churn_repair, sampling] =
            std::mem::take(&mut self.acc).map(|a| a.estimate());
        ProfileStats {
            enabled: self.enabled,
            calendar_pop,
            routing,
            forwarding,
            settlement,
            churn_repair,
            sampling,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The indices of the timed iterations among the first `n`.
    fn timed_iterations(n: u64) -> Vec<u64> {
        let mut p = Profiler::new(true);
        (0..n)
            .filter(|_| matches!(p.iteration(), Iteration::Timed(_)))
            .collect()
    }

    /// A disabled profiler never draws, times or counts.
    #[test]
    fn disabled_profiler_never_times() {
        let mut p = Profiler::new(false);
        for _ in 0..1_000 {
            let mut it = p.iteration();
            assert!(matches!(it, Iteration::Off));
            p.lap(&mut it, Phase::CalendarPop);
            p.lap(&mut it, Phase::Forwarding);
        }
        assert!(p.start().is_none());
        p.stop(Phase::Routing, None);
        assert_eq!((p.read_ns, p.until_timed), (0, 0));
        // The sampling stream is where a fresh one starts: nothing drawn.
        assert_eq!(
            p.rng.range_u64(0, u64::MAX),
            DetRng::new(SAMPLING_SEED).range_u64(0, u64::MAX)
        );
        let s = p.finish();
        assert!(!s.enabled);
        assert!(s.phases().iter().all(|(_, s)| *s == PhaseStats::default()));
    }

    /// Counts are exact whether or not an iteration is timed.
    #[test]
    fn enabled_profiler_accumulates() {
        let mut p = Profiler::new(true);
        let handlers = [Phase::Routing, Phase::Forwarding, Phase::Settlement];
        let mut timed = 0;
        for i in 0..1_000 {
            let mut it = p.iteration();
            timed += u64::from(matches!(it, Iteration::Timed(_)));
            p.lap(&mut it, Phase::CalendarPop);
            p.lap(&mut it, handlers[i % 3]);
        }
        assert!(0 < timed && timed < 1_000, "{timed} timed");
        for phase in [Phase::Routing, Phase::ChurnRepair, Phase::Sampling] {
            let t0 = p.start();
            assert!(t0.is_some());
            p.stop(phase, t0);
        }
        let s = p.finish();
        assert!(s.enabled);
        assert_eq!(s.calendar_pop.count, 1_000);
        assert_eq!(s.routing.count, 334 + 1);
        assert_eq!(s.forwarding.count, 333);
        assert_eq!(s.settlement.count, 333);
        assert_eq!(s.churn_repair.count, 1);
        assert_eq!(s.sampling.count, 1);
        // `finish` empties the sums.
        assert_eq!(p.finish().calendar_pop, PhaseStats::default());
    }

    #[test]
    fn first_iteration_is_timed() {
        assert!(matches!(
            Profiler::new(true).iteration(),
            Iteration::Timed(_)
        ));
    }

    #[test]
    fn one_iteration_in_sixteen_is_timed() {
        let n = 10_000_000;
        let share = timed_iterations(n).len() as f64 / n as f64;
        let rel = share * MEAN_GAP as f64 - 1.0;
        assert!(rel.abs() <= 0.01, "timed share {share}");
    }

    #[test]
    fn no_period_aliases_with_the_sample() {
        // Every residue class mod p, for every period p in 2..=64, is
        // timed at 1/16 ± 5 %: about 5σ for the smallest classes
        // (n/64 iterations each).
        let n = 10_000_000;
        let timed = timed_iterations(n);
        for p in 2..=64u64 {
            let mut hits = vec![0u64; p as usize];
            for &i in &timed {
                hits[(i % p) as usize] += 1;
            }
            for (r, &h) in hits.iter().enumerate() {
                let class = n / p + u64::from((r as u64) < n % p);
                let rel = h as f64 / class as f64 * MEAN_GAP as f64 - 1.0;
                assert!(rel.abs() <= 0.05, "period {p}, residue {r}: {rel:+.4}");
            }
        }
    }

    #[test]
    fn finish_scales_sampled_time_to_the_count() {
        let mut p = Profiler::new(false);
        p.acc[Phase::Forwarding as usize] = Acc {
            exact: PhaseStats::default(),
            looped: 32,
            sampled: 2,
            sampled_ns: 100,
        };
        // Exact per-call time adds unscaled.
        p.acc[Phase::Routing as usize] = Acc {
            exact: PhaseStats {
                count: 3,
                total_ns: 70,
            },
            looped: 16,
            sampled: 1,
            sampled_ns: 10,
        };
        // Counted, never sampled: no estimate.
        p.acc[Phase::Settlement as usize].looped = 5;
        let s = p.finish();
        assert_eq!(
            s.forwarding,
            PhaseStats {
                count: 32,
                total_ns: 1_600
            }
        );
        assert_eq!(
            s.routing,
            PhaseStats {
                count: 19,
                total_ns: 230
            }
        );
        assert_eq!(
            s.settlement,
            PhaseStats {
                count: 5,
                total_ns: 0
            }
        );
    }
}
