//! Runtime invariant monitor: periodic in-run checks of the engine's
//! structural invariants, recorded into a structured report.
//!
//! Debug builds already assert conservation and index coherence on every
//! step; release builds (benchmarks, CI smokes, long sweeps) run blind.
//! The monitor closes that gap: when
//! [`ObsConfig::invariants_every`](crate::config::ObsConfig) is nonzero,
//! the engine re-verifies its invariants every K executed events —
//! conservation on every channel, queue-bound compliance, unit-state
//! legality (an alive unit has exactly one pending event and a hop
//! cursor inside its path), and per-payment accounting — and records
//! each violation here instead of panicking, so a corrupted run still
//! finishes and reports *what* broke and *when*.
//!
//! The monitor is read-only over engine state: enabling it never changes
//! simulation outcomes (a CI smoke pins monitored ≡ unmonitored reports
//! bit-for-bit), and `invariants_every: 0` skips even the step counter's
//! branch companion — zero cost when off.

use std::fmt::Write as _;

/// Violations kept per report; later ones only bump the counter (a
/// broken invariant tends to re-fire every check, so the first few
/// records carry all the signal).
const MAX_RECORDED: usize = 64;

/// One invariant violation observed mid-run.
#[derive(Debug, Clone, PartialEq)]
pub struct InvariantViolation {
    /// Simulated time of the failing check, microseconds.
    pub t_us: u64,
    /// Executed-event count when the check ran.
    pub step: u64,
    /// Which invariant failed: `"conservation"`, `"queue_bounds"`,
    /// `"unit_state"`, or `"payment_accounting"`.
    pub check: &'static str,
    /// Human-readable specifics (channel / unit / payment and values).
    pub detail: String,
}

/// The monitor: a check cadence, counters, and the bounded violation log.
#[derive(Debug, Clone)]
pub struct InvariantMonitor {
    every: u64,
    steps: u64,
    checks_run: u64,
    violations_total: u64,
    violations: Vec<InvariantViolation>,
}

impl InvariantMonitor {
    /// A monitor that checks every `every` executed events (`every` ≥ 1).
    pub fn new(every: u64) -> Self {
        InvariantMonitor {
            every: every.max(1),
            steps: 0,
            checks_run: 0,
            violations_total: 0,
            violations: Vec::new(),
        }
    }

    /// Advances the step counter; true when a full check is due now.
    pub fn step_due(&mut self) -> bool {
        self.steps += 1;
        self.steps.is_multiple_of(self.every)
    }

    /// Marks one full invariant sweep as run.
    pub fn note_check(&mut self) {
        self.checks_run += 1;
    }

    /// Records one violation (bounded; the total always counts).
    pub fn record(&mut self, t_us: u64, check: &'static str, detail: String) {
        self.violations_total += 1;
        if self.violations.len() < MAX_RECORDED {
            self.violations.push(InvariantViolation {
                t_us,
                step: self.steps,
                check,
                detail,
            });
        }
    }

    /// Finalizes into the post-run report.
    pub fn finish(self) -> InvariantReport {
        InvariantReport {
            every: self.every,
            checks_run: self.checks_run,
            violations_total: self.violations_total,
            violations: self.violations,
        }
    }
}

/// The post-run invariant report (see
/// `Simulation::take_invariant_report`).
#[derive(Debug, Clone, PartialEq)]
pub struct InvariantReport {
    /// Configured check cadence (executed events between sweeps).
    pub every: u64,
    /// Full invariant sweeps performed.
    pub checks_run: u64,
    /// Violations observed (including those beyond the recorded cap).
    pub violations_total: u64,
    /// The first [`MAX_RECORDED`] violations, in observation order.
    pub violations: Vec<InvariantViolation>,
}

impl InvariantReport {
    /// True when every sweep passed.
    pub fn is_clean(&self) -> bool {
        self.violations_total == 0
    }

    /// Renders the recorded violations as JSONL, fields in
    /// [`InvariantViolation`] declaration order.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for v in &self.violations {
            write!(
                out,
                "{{\"t_us\":{},\"step\":{},\"check\":\"{}\",\"detail\":\"{}\"}}",
                v.t_us,
                v.step,
                v.check,
                v.detail.replace('\\', "\\\\").replace('"', "\\\""),
            )
            .expect("string write");
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cadence_counts_steps() {
        let mut m = InvariantMonitor::new(3);
        let due: Vec<bool> = (0..7).map(|_| m.step_due()).collect();
        assert_eq!(due, vec![false, false, true, false, false, true, false]);
        // `0` is clamped to every-step checking, not disabled (the engine
        // gates on the config before constructing a monitor).
        let mut every_step = InvariantMonitor::new(0);
        assert!(every_step.step_due());
    }

    #[test]
    fn violations_are_bounded_but_counted() {
        let mut m = InvariantMonitor::new(1);
        for i in 0..(MAX_RECORDED as u64 + 10) {
            m.record(i, "conservation", format!("channel {i}"));
        }
        let r = m.finish();
        assert!(!r.is_clean());
        assert_eq!(r.violations_total, MAX_RECORDED as u64 + 10);
        assert_eq!(r.violations.len(), MAX_RECORDED);
        assert_eq!(r.violations[0].detail, "channel 0");
    }

    #[test]
    fn jsonl_has_fixed_fields_and_escapes() {
        let mut m = InvariantMonitor::new(1);
        assert!(m.step_due());
        m.note_check();
        m.record(42, "queue_bounds", "queue \"7\" over".into());
        let r = m.finish();
        assert_eq!(r.checks_run, 1);
        let out = r.to_jsonl();
        assert_eq!(
            out,
            concat!(
                r#"{"t_us":42,"step":1,"check":"queue_bounds","detail":"queue \"7\" over"}"#,
                "\n"
            ),
            "quotes must be escaped"
        );
        assert_eq!(out, r.to_jsonl(), "rendering must be pure");
    }

    #[test]
    fn clean_report_renders_nothing() {
        let mut m = InvariantMonitor::new(5);
        m.note_check();
        let r = m.finish();
        assert!(r.is_clean());
        assert_eq!(r.to_jsonl(), "");
    }
}
