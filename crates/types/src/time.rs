//! Simulation time.
//!
//! The discrete-event simulator keeps a virtual clock in integer
//! microseconds. Integer time makes event ordering deterministic and keeps
//! rate computations (drops per second) exact enough for the fluid-model
//! comparisons in the evaluation.

use serde::Serialize;
use std::fmt;
use std::ops::{Add, AddAssign, Mul, Sub, SubAssign};

/// An instant on the simulation clock, in microseconds since simulation start.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize)]
#[serde(transparent)]
pub struct SimTime(u64);

/// A span of simulation time, in microseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize)]
#[serde(transparent)]
pub struct SimDuration(u64);

impl SimTime {
    /// The simulation epoch (t = 0).
    pub const ZERO: SimTime = SimTime(0);
    /// The far future; used as an "infinite" deadline.
    pub const FAR_FUTURE: SimTime = SimTime(u64::MAX);

    /// Creates an instant from raw microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us)
    }

    /// Creates an instant from whole seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000)
    }

    /// Creates an instant from fractional seconds (rounded to microseconds).
    #[inline]
    pub fn from_secs_f64(s: f64) -> Self {
        assert!(s >= 0.0 && s.is_finite(), "invalid time {s}");
        SimTime((s * 1e6).round() as u64)
    }

    /// Raw microseconds since simulation start.
    #[inline]
    pub const fn micros(self) -> u64 {
        self.0
    }

    /// Seconds since simulation start, as a float (reporting only).
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Time elapsed since `earlier`, saturating at zero.
    #[inline]
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Checked addition of a duration (None at the far-future sentinel).
    #[inline]
    pub fn checked_add(self, d: SimDuration) -> Option<SimTime> {
        self.0.checked_add(d.0).map(SimTime)
    }
}

impl SimDuration {
    /// The zero duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Creates a duration from raw microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us)
    }

    /// Creates a duration from whole milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000)
    }

    /// Creates a duration from whole seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000)
    }

    /// Creates a duration from fractional seconds (rounded to microseconds).
    #[inline]
    pub fn from_secs_f64(s: f64) -> Self {
        assert!(s >= 0.0 && s.is_finite(), "invalid duration {s}");
        SimDuration((s * 1e6).round() as u64)
    }

    /// Raw microseconds.
    #[inline]
    pub const fn micros(self) -> u64 {
        self.0
    }

    /// Duration in seconds as a float.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// True iff zero.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.checked_add(rhs.0).expect("SimTime overflow"))
    }
}

impl AddAssign<SimDuration> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub for SimTime {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0.checked_sub(rhs.0).expect("SimTime went backwards"))
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.checked_add(rhs.0).expect("SimDuration overflow"))
    }
}

impl AddAssign for SimDuration {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.checked_sub(rhs.0).expect("SimDuration underflow"))
    }
}

impl SubAssign for SimDuration {
    #[inline]
    fn sub_assign(&mut self, rhs: SimDuration) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0.checked_mul(rhs).expect("SimDuration overflow"))
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if *self == SimTime::FAR_FUTURE {
            write!(f, "t=∞")
        } else {
            write!(f, "t={:.6}s", self.as_secs_f64())
        }
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_round_trips() {
        assert_eq!(SimTime::from_secs(2).micros(), 2_000_000);
        assert_eq!(SimTime::from_secs_f64(0.5).micros(), 500_000);
        assert_eq!(SimDuration::from_millis(3).micros(), 3_000);
        assert_eq!(SimDuration::from_secs_f64(1.25).as_secs_f64(), 1.25);
    }

    #[test]
    fn instant_duration_algebra() {
        let t0 = SimTime::from_secs(1);
        let t1 = t0 + SimDuration::from_millis(500);
        assert_eq!(t1.micros(), 1_500_000);
        assert_eq!(t1 - t0, SimDuration::from_millis(500));
        assert_eq!(t0.since(t1), SimDuration::ZERO); // saturates
        assert_eq!(t1.since(t0), SimDuration::from_millis(500));
    }

    #[test]
    #[should_panic(expected = "SimTime went backwards")]
    fn strict_sub_panics_backwards() {
        let _ = SimTime::from_secs(1) - SimTime::from_secs(2);
    }

    #[test]
    fn duration_scaling() {
        assert_eq!(SimDuration::from_secs(2) * 3, SimDuration::from_secs(6));
    }

    #[test]
    fn far_future_checked_add() {
        assert_eq!(
            SimTime::FAR_FUTURE.checked_add(SimDuration::from_micros(1)),
            None
        );
        assert!(SimTime::ZERO
            .checked_add(SimDuration::from_secs(1))
            .is_some());
    }

    #[test]
    fn ordering() {
        assert!(SimTime::from_secs(1) < SimTime::from_secs(2));
        assert!(SimTime::FAR_FUTURE > SimTime::from_secs(u32::MAX as u64));
    }

    #[test]
    fn display() {
        assert_eq!(SimTime::from_secs_f64(1.5).to_string(), "t=1.500000s");
        assert_eq!(SimTime::FAR_FUTURE.to_string(), "t=∞");
        assert_eq!(SimDuration::from_millis(250).to_string(), "0.250000s");
    }
}
