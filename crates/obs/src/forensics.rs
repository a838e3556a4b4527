//! Drop forensics: a bounded flight recorder for failed units.
//!
//! The `DropBreakdown` in `SimReport` says *how many* units died per
//! [`DropReason`]; it cannot say *where*. [`FlightRecorder`] captures one
//! structured [`DropRecord`] per drop — payment, path, the failing hop's
//! channel (when the drop has one), both channel balances at the instant
//! of failure, and the payment's retry count so far — into a bounded
//! ring buffer, so even million-event runs pay O(capacity) memory.
//!
//! Alongside the ring it keeps an *unbounded but tiny* reason×channel
//! counter table: every drop is counted there even after the ring starts
//! evicting, so the root-cause table partitions the run's full
//! `DropBreakdown` exactly (a proptest pins this). Rendering is
//! hand-written fixed-field-order JSONL, byte-equal across runs of the
//! same seed like every other artifact. The renderers are the schema:
//! the goldens `forensics_faulted_records.jsonl` and
//! `forensics_faulted_rootcause.jsonl` pin every field name and its
//! order.

use crate::trace::reason_str;
use spider_types::DropReason;
use std::collections::{BTreeMap, VecDeque};
use std::fmt::Write as _;

/// One drop, with everything needed to reconstruct why it happened.
#[derive(Debug, Clone, PartialEq)]
pub struct DropRecord {
    /// Simulated time of the drop, microseconds.
    pub t_us: u64,
    /// Payment the unit belonged to.
    pub payment: u64,
    /// Interned path the unit was traveling.
    pub path: u64,
    /// The failing hop's channel id. `None` for whole-path failures with
    /// no single failing hop (lockstep expiry/fault refunds, and units
    /// that had already locked their full path).
    pub channel: Option<u32>,
    /// The failing channel's forward-direction balance at failure, in
    /// drops (canonical channel orientation; 0 when `channel` is `None`).
    pub bal_fwd_drops: u64,
    /// The failing channel's backward-direction balance at failure.
    pub bal_rev_drops: u64,
    /// Route attempts the payment had actually made when the unit died
    /// (polls at which the engine proved an attempt would lock nothing
    /// and skipped it are not counted).
    pub attempts: u32,
    /// Why the unit died.
    pub reason: DropReason,
}

/// One row of the aggregated reason×channel root-cause table.
#[derive(Debug, Clone, PartialEq)]
pub struct RootCauseRow {
    /// Canonical reason spelling ([`reason_str`]).
    pub reason: &'static str,
    /// Failing channel, `None` for whole-path failures.
    pub channel: Option<u32>,
    /// Drops with this (reason, channel) pair — counts every drop of the
    /// run, not just those still in the ring.
    pub count: u64,
}

/// Bounded ring of [`DropRecord`]s plus the exact root-cause counters.
#[derive(Debug, Clone)]
pub struct FlightRecorder {
    capacity: usize,
    evicted: u64,
    ring: VecDeque<DropRecord>,
    root_cause: BTreeMap<(DropReason, Option<u32>), u64>,
}

impl FlightRecorder {
    /// A recorder keeping at most `capacity` records (the engine only
    /// constructs one when `capacity > 0`).
    pub fn new(capacity: usize) -> Self {
        FlightRecorder {
            capacity: capacity.max(1),
            evicted: 0,
            ring: VecDeque::new(),
            root_cause: BTreeMap::new(),
        }
    }

    /// Records one drop: counts it in the root-cause table and appends
    /// it to the ring, evicting the oldest record when full.
    pub fn record(&mut self, rec: DropRecord) {
        *self
            .root_cause
            .entry((rec.reason, rec.channel))
            .or_insert(0) += 1;
        if self.ring.len() == self.capacity {
            self.ring.pop_front();
            self.evicted += 1;
        }
        self.ring.push_back(rec);
    }

    /// Records currently held in the ring (newest `capacity` drops).
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// True when no drop has been recorded.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty() && self.evicted == 0
    }

    /// Ring capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Records evicted from the ring (total drops − `len()`).
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// Iterates retained records oldest-first.
    pub fn records(&self) -> impl Iterator<Item = &DropRecord> {
        self.ring.iter()
    }

    /// Total drops counted for `reason` across all channels — matches
    /// the corresponding `DropBreakdown` field exactly.
    pub fn reason_total(&self, reason: DropReason) -> u64 {
        self.root_cause
            .range((reason, None)..=(reason, Some(u32::MAX)))
            .map(|(_, &c)| c)
            .sum()
    }

    /// The aggregated reason×channel table, sorted by reason (in
    /// `DropReason` declaration order) then channel (`None` first) —
    /// `BTreeMap` order, fully deterministic.
    pub fn root_cause_rows(&self) -> Vec<RootCauseRow> {
        self.root_cause
            .iter()
            .map(|(&(reason, channel), &count)| RootCauseRow {
                reason: reason_str(reason),
                channel,
                count,
            })
            .collect()
    }

    /// Renders the retained records as JSONL, fields in [`DropRecord`]
    /// declaration order.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.ring.len() * 96);
        for r in &self.ring {
            write!(
                out,
                "{{\"t_us\":{},\"payment\":{},\"path\":{},\"channel\":",
                r.t_us, r.payment, r.path
            )
            .expect("string write");
            match r.channel {
                Some(c) => write!(out, "{c}"),
                None => write!(out, "null"),
            }
            .expect("string write");
            write!(
                out,
                ",\"bal_fwd_drops\":{},\"bal_rev_drops\":{},\"attempts\":{},\"reason\":\"{}\"}}",
                r.bal_fwd_drops,
                r.bal_rev_drops,
                r.attempts,
                reason_str(r.reason)
            )
            .expect("string write");
            out.push('\n');
        }
        out
    }

    /// Renders the root-cause table as JSONL, fields in [`RootCauseRow`]
    /// declaration order.
    pub fn root_cause_to_jsonl(&self) -> String {
        let mut out = String::new();
        for row in self.root_cause_rows() {
            write!(out, "{{\"reason\":\"{}\",\"channel\":", row.reason).expect("string write");
            match row.channel {
                Some(c) => write!(out, "{c}"),
                None => write!(out, "null"),
            }
            .expect("string write");
            write!(out, ",\"count\":{}}}", row.count).expect("string write");
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(t_us: u64, channel: Option<u32>, reason: DropReason) -> DropRecord {
        DropRecord {
            t_us,
            payment: 7,
            path: 3,
            channel,
            bal_fwd_drops: 1_000,
            bal_rev_drops: 2_000,
            attempts: 2,
            reason,
        }
    }

    #[test]
    fn ring_is_bounded_but_counters_are_exact() {
        let mut f = FlightRecorder::new(3);
        for i in 0..10 {
            f.record(rec(i, Some(1), DropReason::QueueTimeout));
        }
        assert_eq!(f.len(), 3);
        assert_eq!(f.evicted(), 7);
        // Newest three survive, oldest-first.
        let ts: Vec<u64> = f.records().map(|r| r.t_us).collect();
        assert_eq!(ts, vec![7, 8, 9]);
        // The table still counts all ten.
        assert_eq!(f.reason_total(DropReason::QueueTimeout), 10);
        assert_eq!(f.root_cause_rows()[0].count, 10);
    }

    #[test]
    fn root_cause_table_is_sorted_and_partitions_by_reason() {
        let mut f = FlightRecorder::new(16);
        f.record(rec(0, Some(5), DropReason::HopTimeout));
        f.record(rec(1, None, DropReason::Expired));
        f.record(rec(2, Some(2), DropReason::HopTimeout));
        f.record(rec(3, Some(5), DropReason::HopTimeout));
        let rows = f.root_cause_rows();
        let keys: Vec<(&str, Option<u32>)> = rows.iter().map(|r| (r.reason, r.channel)).collect();
        assert_eq!(
            keys,
            vec![
                ("expired", None),
                ("hop_timeout", Some(2)),
                ("hop_timeout", Some(5)),
            ]
        );
        assert_eq!(f.reason_total(DropReason::HopTimeout), 3);
        assert_eq!(f.reason_total(DropReason::Expired), 1);
        assert_eq!(f.reason_total(DropReason::MessageLost), 0);
    }

    #[test]
    fn jsonl_has_fixed_fields_and_null_channels() {
        let mut f = FlightRecorder::new(4);
        f.record(rec(10, Some(9), DropReason::MessageLost));
        f.record(rec(20, None, DropReason::Expired));
        let out = f.to_jsonl();
        assert_eq!(out, f.to_jsonl(), "rendering must be pure");
        assert_eq!(
            out,
            concat!(
                r#"{"t_us":10,"payment":7,"path":3,"channel":9,"bal_fwd_drops":1000,"bal_rev_drops":2000,"attempts":2,"reason":"message_lost"}"#,
                "\n",
                r#"{"t_us":20,"payment":7,"path":3,"channel":null,"bal_fwd_drops":1000,"bal_rev_drops":2000,"attempts":2,"reason":"expired"}"#,
                "\n",
            )
        );
        assert_eq!(
            f.root_cause_to_jsonl(),
            concat!(
                r#"{"reason":"expired","channel":null,"count":1}"#,
                "\n",
                r#"{"reason":"message_lost","channel":9,"count":1}"#,
                "\n",
            )
        );
    }

    #[test]
    fn empty_recorder_renders_nothing() {
        let f = FlightRecorder::new(8);
        assert!(f.is_empty());
        assert_eq!(f.to_jsonl(), "");
        assert_eq!(f.root_cause_to_jsonl(), "");
        assert!(f.root_cause_rows().is_empty());
    }
}
