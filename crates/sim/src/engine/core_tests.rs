//! The event core against a plain heap: one `(time, seq)` entry per event
//! and a cancelled set, the order the runs of [`EventCore`] must reproduce.

use super::core::{EventCore, RUNTIME_SEQ_BASE};
use super::{EventKind, SlabStats};
use crate::workload::TxnSpec;
use proptest::prelude::*;
use spider_types::{Amount, NodeId, SimTime};
use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap};

/// Delays a scheduled event is due after: few, so runs form; zero, so
/// events land on the instant being drained; two inside one 1 ms calendar
/// bucket, so a horizon can cut between two runs of one bucket.
const DELAYS_US: [u64; 5] = [0, 10, 200, 700, 1_500];

/// What tells one test event from another: runtime events carry their tag
/// as a unit index, arrivals as an amount, pre-run events as a schedule
/// index.
fn tag(kind: &EventKind) -> u64 {
    match kind {
        EventKind::HopArrive(tag) | EventKind::Topology(tag) => *tag as u64,
        EventKind::Arrival(spec) => spec.amount.drops(),
        // No test event is of another kind; no tag is this large.
        _ => u64::MAX,
    }
}

fn arrival(at: u64, tag: u64) -> TxnSpec {
    TxnSpec {
        time: SimTime::from_micros(at),
        src: NodeId(0),
        dst: NodeId(1),
        amount: Amount::from_drops(tag),
    }
}

/// The reference: every event is its own heap entry.
#[derive(Default)]
struct Reference {
    heap: BinaryHeap<Reverse<(u64, u64, u64)>>,
    cancelled: BTreeSet<u64>,
    seq: u64,
    arrival_seq: u64,
    stats: SlabStats,
}

impl Reference {
    fn push(&mut self, at: u64, seq: u64, tag: u64) {
        self.heap.push(Reverse((at, seq, tag)));
        let stats = &mut self.stats;
        stats.events_scheduled += 1;
        stats.live_events += 1;
        stats.peak_live_events = stats.peak_live_events.max(stats.live_events);
        // A slot is held from scheduling until the event's turn comes,
        // cancelled or not, and a free one is always reused first.
        stats.event_slots = stats.event_slots.max(self.heap.len());
    }

    fn schedule(&mut self, at: u64, tag: u64) {
        self.seq += 1;
        self.push(at, self.seq - 1, tag);
    }

    fn schedule_arrival(&mut self, at: u64, tag: u64) {
        self.arrival_seq += 1;
        self.push(at, self.arrival_seq - 1, tag);
    }

    fn open_runtime_band(&mut self) {
        self.arrival_seq = self.seq;
        self.seq = RUNTIME_SEQ_BASE;
    }

    fn cancel(&mut self, tag: u64) {
        assert!(self.cancelled.insert(tag), "double cancel");
        self.stats.live_events -= 1;
    }

    fn pop(&mut self, horizon: u64) -> Option<(u64, Option<u64>)> {
        let Reverse((at, _, tag)) = self.heap.pop()?;
        if at > horizon {
            return None;
        }
        if self.cancelled.remove(&tag) {
            return Some((at, None));
        }
        self.stats.live_events -= 1;
        self.stats.events_executed += 1;
        Some((at, Some(tag)))
    }
}

/// Both cores, driven in step.
#[derive(Default)]
struct Pair {
    core: EventCore,
    reference: Reference,
    now: u64,
    next_tag: u64,
    /// Pending, uncancelled runtime events, in scheduling order: slot id
    /// and tag.
    cancellable: Vec<(usize, u64)>,
}

impl Pair {
    fn tag(&mut self) -> u64 {
        self.next_tag += 1;
        self.next_tag - 1
    }

    fn schedule(&mut self, delay_us: u64) {
        let (at, tag) = (self.now + delay_us, self.tag());
        let kind = EventKind::HopArrive(tag as usize);
        let id = self.core.schedule(SimTime::from_micros(at), kind);
        self.reference.schedule(at, tag);
        self.cancellable.push((id, tag));
    }

    fn schedule_arrival(&mut self, delay_us: u64) {
        let (at, tag) = (self.now + delay_us, self.tag());
        self.core.schedule_arrival(arrival(at, tag));
        self.reference.schedule_arrival(at, tag);
    }

    fn cancel(&mut self, pick: u64) {
        if self.cancellable.is_empty() {
            return;
        }
        let which = (pick % self.cancellable.len() as u64) as usize;
        let (id, tag) = self.cancellable.remove(which);
        let kind = self.core.cancel(id).expect("pending");
        assert_eq!(self::tag(&kind), tag);
        self.reference.cancel(tag);
    }

    /// Pops both cores and compares; an executing arrival merges its
    /// successor `gap_us` later, as the engine's does. False once both
    /// are past the horizon (or empty).
    fn pop(&mut self, horizon: u64, gap_us: u64) -> bool {
        let got = self.core.pop(SimTime::from_micros(horizon));
        let want = self.reference.pop(horizon);
        let got_tags = got
            .as_ref()
            .map(|(t, kind)| (t.micros(), kind.as_ref().map(tag)));
        prop_assert_eq!(got_tags, want);
        let Some((t, kind)) = got else {
            return false;
        };
        self.now = t.micros();
        if let Some(kind) = kind {
            self.cancellable
                .retain(|&(_, pending)| pending != tag(&kind));
            if matches!(kind, EventKind::Arrival(_)) {
                self.schedule_arrival(gap_us);
            }
        }
        true
    }

    fn assert_same_stats(&self) {
        let (got, want) = (self.core.stats(), &self.reference.stats);
        prop_assert_eq!(got.events_scheduled, want.events_scheduled);
        prop_assert_eq!(got.events_executed, want.events_executed);
        prop_assert_eq!(got.live_events, want.live_events);
        prop_assert_eq!(got.peak_live_events, want.peak_live_events);
        prop_assert_eq!(got.event_slots, want.event_slots);
        prop_assert!(got.calendar_entries <= got.events_scheduled);
    }
}

proptest! {
    /// Random interleavings of `schedule` (runs form: half the calls
    /// repeat the delay of the one before), reserved-band arrivals (each
    /// merged by the one before it, some due at the very instant being
    /// drained), cancels of heads, middles and tails, and pops up to a
    /// horizon that falls anywhere — between two runs of one bucket
    /// included — pop the same `(t, event)` sequence from the event core
    /// and from a heap holding one entry per event, and count the same.
    #[test]
    fn runs_pop_as_one_entry_per_event_would(
        pre_run in proptest::collection::vec(0usize..DELAYS_US.len(), 0..4),
        first_arrival in 0usize..DELAYS_US.len(),
        ops in proptest::collection::vec((0u8..12, 0u64..u64::MAX), 1..300),
        horizon in 0u64..12_000,
    ) {
        let mut pair = Pair::default();
        // The pre-run schedule (churn), then the bands open, the first
        // arrival merges — behind the schedule's last event when they
        // share an instant — and the first poll is scheduled.
        for delay in pre_run {
            let (at, tag) = (DELAYS_US[delay], pair.tag());
            pair.core.schedule(SimTime::from_micros(at), EventKind::Topology(tag as usize));
            pair.reference.schedule(at, tag);
        }
        pair.core.open_runtime_band();
        pair.reference.open_runtime_band();
        pair.schedule_arrival(DELAYS_US[first_arrival]);
        pair.schedule(100);
        let mut delay = 0;
        for (selector, raw) in ops {
            match selector {
                0..=2 => pair.schedule(delay),
                3..=5 => {
                    delay = DELAYS_US[(raw % DELAYS_US.len() as u64) as usize];
                    pair.schedule(delay);
                }
                6..=9 => {
                    let gap = DELAYS_US[(raw % DELAYS_US.len() as u64) as usize];
                    if !pair.pop(horizon, gap) {
                        break;
                    }
                }
                _ => pair.cancel(raw),
            }
            pair.assert_same_stats();
        }
        // Drain to the horizon.
        while pair.pop(horizon, 700) {}
        pair.assert_same_stats();
    }
}

/// A burst scheduled back to back for one instant is one calendar entry,
/// whatever is cancelled out of it; an event at another instant, or one
/// scheduled after the burst's head was popped, starts its own.
#[test]
fn a_burst_is_one_calendar_entry() {
    let mut core = EventCore::default();
    core.open_runtime_band();
    core.schedule(SimTime::from_micros(20), EventKind::HopArrive(5));
    assert_eq!(core.stats().calendar_entries, 1);
    let at = SimTime::from_micros(10);
    let ids: Vec<_> = (0..5)
        .map(|i| core.schedule(at, EventKind::HopArrive(i)))
        .collect();
    assert_eq!(core.stats().calendar_entries, 2);
    core.cancel(ids[0]);
    core.cancel(ids[2]);
    core.cancel(ids[4]);
    let horizon = SimTime::from_micros(100);
    let mut popped = Vec::new();
    while let Some((t, kind)) = core.pop(horizon) {
        if popped.is_empty() {
            // The burst's head is out: the next event, due at the same
            // instant, must not be linked behind the burst's tail.
            core.schedule(at, EventKind::HopArrive(6));
            assert_eq!(core.stats().calendar_entries, 3);
        }
        popped.push((t.micros(), kind.as_ref().map(tag)));
    }
    let expected = [
        (10, None),
        (10, Some(1)),
        (10, None),
        (10, Some(3)),
        (10, None),
        (10, Some(6)),
        (20, Some(5)),
    ];
    assert_eq!(popped, expected);
    let stats = core.stats();
    assert_eq!((stats.events_scheduled, stats.events_executed), (7, 4));
    assert_eq!((stats.live_events, stats.event_slots), (0, 6));
}
