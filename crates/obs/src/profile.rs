//! Engine phase profiling.
//!
//! Wall-clock timers around the engine's dispatch phases, answering
//! "where does a run spend its time" per scheme — the breakdown behind
//! the figures' `profile_*_s` columns and the repo benchmark's
//! `sim.engine.phase.*` metrics. Profiling is
//! opt-in: when disabled, [`Profiler::start`] returns `None` without
//! reading the clock, so the hot loop pays one branch per event.
//!
//! The measured durations are the only non-deterministic quantity in the
//! whole observability layer; they never influence the simulation and
//! are excluded from golden tests.

use serde::{Deserialize, Serialize};
use std::time::Instant;

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
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PhaseStats {
    /// Times the phase ran.
    pub count: u64,
    /// Total wall-clock nanoseconds spent in it.
    pub total_ns: u64,
}

/// Per-phase timing breakdown for one run.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
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

/// Accumulates [`PhaseStats`] from `start`/`stop` pairs.
#[derive(Debug, Clone, Default)]
pub struct Profiler {
    enabled: bool,
    stats: ProfileStats,
}

impl Profiler {
    /// A profiler; disabled means `start` never reads the clock.
    pub fn new(enabled: bool) -> Self {
        Profiler {
            enabled,
            stats: ProfileStats {
                enabled,
                ..ProfileStats::default()
            },
        }
    }

    /// Whether timers are live.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Begins timing a phase; `None` when disabled (one branch, no clock
    /// read).
    #[inline]
    pub fn start(&self) -> Option<Instant> {
        if self.enabled {
            Some(Instant::now())
        } else {
            None
        }
    }

    /// Ends timing: charges the elapsed time since `start` to `phase`.
    #[inline]
    pub fn stop(&mut self, phase: Phase, t0: Option<Instant>) {
        let Some(t0) = t0 else { return };
        let ns = t0.elapsed().as_nanos() as u64;
        let s = match phase {
            Phase::CalendarPop => &mut self.stats.calendar_pop,
            Phase::Routing => &mut self.stats.routing,
            Phase::Forwarding => &mut self.stats.forwarding,
            Phase::Settlement => &mut self.stats.settlement,
            Phase::ChurnRepair => &mut self.stats.churn_repair,
            Phase::Sampling => &mut self.stats.sampling,
        };
        s.count += 1;
        s.total_ns += ns;
    }

    /// Takes the accumulated stats, leaving the profiler empty.
    pub fn finish(&mut self) -> ProfileStats {
        let enabled = self.enabled;
        let mut stats = std::mem::take(&mut self.stats);
        stats.enabled = enabled;
        self.stats.enabled = enabled;
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_profiler_never_times() {
        let mut p = Profiler::new(false);
        assert!(p.start().is_none());
        p.stop(Phase::Routing, None);
        let s = p.finish();
        assert!(!s.enabled);
        assert_eq!(s.total_ns(), 0);
        assert_eq!(s.routing.count, 0);
    }

    #[test]
    fn enabled_profiler_accumulates() {
        let mut p = Profiler::new(true);
        for _ in 0..3 {
            let t0 = p.start();
            assert!(t0.is_some());
            p.stop(Phase::Forwarding, t0);
        }
        let t0 = p.start();
        p.stop(Phase::CalendarPop, t0);
        let s = p.finish();
        assert!(s.enabled);
        assert_eq!(s.forwarding.count, 3);
        assert_eq!(s.calendar_pop.count, 1);
        assert_eq!(s.routing.count, 0);
    }

    #[test]
    fn serde_round_trip() {
        let mut p = Profiler::new(true);
        let t0 = p.start();
        p.stop(Phase::Settlement, t0);
        let s = p.finish();
        let v = serde::Serialize::to_value(&s);
        let back: ProfileStats = serde::Deserialize::from_value(&v).unwrap();
        assert_eq!(back.settlement.count, 1);
        assert!(back.enabled);
    }
}
