//! The event core against a plain heap: one `(time, seq)` entry per event
//! and unit, and a cancelled set — the order the runs and trains of
//! [`EventCore`] must reproduce.

use super::core::{EventCore, Train, RUNTIME_SEQ_BASE};
use super::{EventKind, SlabStats};
use crate::workload::TxnSpec;
use proptest::prelude::*;
use spider_types::{Amount, DropReason, NodeId, SimTime};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap};

/// Delays a scheduled event is due after: few, so runs form; zero, so
/// events land on the instant being drained; two inside one 1 ms calendar
/// bucket, so a horizon can cut between two runs of one bucket.
const DELAYS_US: [u64; 5] = [0, 10, 200, 700, 1_500];

/// What tells one test event from another: runtime events carry their tag
/// as a unit index, arrivals as an amount, pre-run events as a schedule
/// index. A train's members are told apart as they are walked.
fn tag(kind: &EventKind) -> u64 {
    match kind {
        EventKind::UnitTimeout { unit: tag, .. } | EventKind::Topology(tag) => *tag as u64,
        EventKind::Arrival(spec) => spec.amount.drops(),
        // No other test event carries a tag; no tag is this large.
        _ => u64::MAX,
    }
}

/// A runtime test event: a train member of either kind, or a unit's own
/// timeout (never a train).
fn unit_event(kind: u8, tag: u64) -> EventKind {
    let unit = tag as usize;
    match kind % 3 {
        0 => EventKind::HopArrive(Train::of(unit)),
        1 => EventKind::UnitDeliver(Train::of(unit)),
        _ => EventKind::UnitTimeout {
            unit,
            reason: DropReason::QueueTimeout,
        },
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

/// The reference: every event and every train member is its own heap
/// entry. It models which entries the core makes one event — a run
/// (same instant, next seq, behind an event whose run has not started
/// popping) and, within it, a train (a member of a pending train of its
/// own kind) — only to count events the way the core does.
#[derive(Default)]
struct Reference {
    heap: BinaryHeap<Reverse<(u64, u64, u64)>>,
    cancelled: BTreeSet<u64>,
    seq: u64,
    arrival_seq: u64,
    /// Per entry tag: the event it belongs to (named by its first tag).
    event_of: BTreeMap<u64, u64>,
    /// Per event: its entries neither cancelled nor popped.
    live: BTreeMap<u64, usize>,
    /// Per event: the run it is in (named by the run's first event).
    run_of: BTreeMap<u64, u64>,
    /// The entry scheduled last: instant, seq, event, and its train kind.
    tail: Option<(u64, u64, u64, Option<u8>)>,
    /// The run of the event popped last.
    last_run: Option<u64>,
    /// Events scheduled as trains (their first entry was a member kind).
    trains: BTreeSet<u64>,
    /// The event being walked, and whether it holds its slot until the
    /// walk ends (a train with a live member).
    walking: Option<(u64, bool)>,
    /// Events holding a slab slot: scheduled and not yet popped, or a
    /// train not yet walked to its end.
    held: usize,
    stats: SlabStats,
}

impl Reference {
    /// Schedules entry `tag` under `seq`; `train` is the kind when it is
    /// a train member.
    fn push(&mut self, at: u64, seq: u64, tag: u64, train: Option<u8>) {
        self.heap.push(Reverse((at, seq, tag)));
        let joined = self.tail.filter(|&(t, s, ..)| t == at && s + 1 == seq);
        let member_of = joined
            .filter(|&(.., event, kind)| train.is_some() && kind == train && self.live[&event] > 0)
            .map(|(.., event, _)| event);
        self.tail = Some((at, seq, member_of.unwrap_or(tag), train));
        if let Some(event) = member_of {
            self.event_of.insert(tag, event);
            *self.live.get_mut(&event).expect("pending train") += 1;
            return;
        }
        let run = joined.map_or(tag, |(.., event, _)| self.run_of[&event]);
        self.event_of.insert(tag, tag);
        self.live.insert(tag, 1);
        self.run_of.insert(tag, run);
        if train.is_some() {
            self.trains.insert(tag);
        }
        self.held += 1;
        let stats = &mut self.stats;
        stats.calendar_entries += u64::from(joined.is_none());
        stats.events_scheduled += 1;
        stats.live_events += 1;
        stats.peak_live_events = stats.peak_live_events.max(stats.live_events);
        // A free slot is always reused first.
        stats.event_slots = stats.event_slots.max(self.held);
    }

    fn schedule(&mut self, at: u64, tag: u64, train: Option<u8>) {
        self.seq += 1;
        self.push(at, self.seq - 1, tag, train);
    }

    fn schedule_arrival(&mut self, at: u64, tag: u64) {
        self.arrival_seq += 1;
        self.push(at, self.arrival_seq - 1, tag, None);
    }

    fn open_runtime_band(&mut self) {
        self.arrival_seq = self.seq;
        self.seq = RUNTIME_SEQ_BASE;
    }

    fn cancel(&mut self, tag: u64) {
        assert!(self.cancelled.insert(tag), "double cancel");
        let event = self.event_of[&tag];
        if self.walking.is_some_and(|(walked, _)| walked == event) {
            return;
        }
        let live = self.live.get_mut(&event).expect("pending event");
        *live -= 1;
        if *live == 0 {
            self.stats.live_events -= 1;
        }
    }

    /// Pops the next event due by `horizon`: its instant, and whether
    /// any of its entries is still live. [`Self::next_member`] then
    /// hands those out.
    fn pop(&mut self, horizon: u64) -> Option<(u64, bool)> {
        let &Reverse((at, _, tag)) = self.heap.peek()?;
        if at > horizon {
            return None;
        }
        let event = self.event_of[&tag];
        let run = self.run_of[&event];
        if self.last_run != Some(run) {
            // The run's head leaves the calendar: nothing joins the
            // entry scheduled last if it is due at the same instant.
            if self.tail.is_some_and(|(t, ..)| t == at) {
                self.tail = None;
            }
            self.last_run = Some(run);
        }
        let executed = self.live[&event] > 0;
        if executed {
            self.stats.live_events -= 1;
            self.stats.events_executed += 1;
        }
        let holds = executed && self.trains.contains(&event);
        if !holds {
            self.held -= 1;
        }
        self.walking = Some((event, holds));
        Some((at, executed))
    }

    /// The next live entry of the event being walked, in seq order.
    fn next_member(&mut self) -> Option<u64> {
        let (event, holds) = self.walking?;
        while let Some(&Reverse((_, _, tag))) = self.heap.peek() {
            if self.event_of[&tag] != event {
                break;
            }
            self.heap.pop();
            if !self.cancelled.remove(&tag) {
                return Some(tag);
            }
        }
        self.walking = None;
        if holds {
            self.held -= 1;
        }
        None
    }
}
/// Both cores, driven in step.
#[derive(Default)]
struct Pair {
    core: EventCore,
    reference: Reference,
    now: u64,
    next_tag: u64,
    /// Pending, uncancelled runtime entries, in scheduling order: the
    /// event id `schedule` returned (a train's, for a member) and tag.
    cancellable: Vec<(usize, u64)>,
}

impl Pair {
    fn tag(&mut self) -> u64 {
        self.next_tag += 1;
        self.next_tag - 1
    }

    fn schedule(&mut self, delay_us: u64, kind: u8) {
        let (at, tag) = (self.now + delay_us, self.tag());
        let event = unit_event(kind, tag);
        let train = (kind % 3 < 2).then_some(kind % 3);
        let id = self.core.schedule(SimTime::from_micros(at), event);
        self.reference.schedule(at, tag, train);
        self.cancellable.push((id, tag));
    }

    fn schedule_arrival(&mut self, delay_us: u64) {
        let (at, tag) = (self.now + delay_us, self.tag());
        self.core.schedule_arrival(arrival(at, tag));
        self.reference.schedule_arrival(at, tag);
    }

    /// Cancels the pending entry `pick` selects among those whose event
    /// id `only` admits.
    fn cancel(&mut self, pick: u64, only: Option<usize>) {
        let candidates: Vec<usize> = (0..self.cancellable.len())
            .filter(|&i| only.is_none_or(|id| self.cancellable[i].0 == id))
            .collect();
        if candidates.is_empty() {
            return;
        }
        let which = candidates[(pick % candidates.len() as u64) as usize];
        let (id, tag) = self.cancellable.remove(which);
        self.core.cancel_unit(id, tag as usize);
        self.reference.cancel(tag);
    }

    /// Pops both cores and compares, walking a train member by member;
    /// an executing arrival merges its successor `gap_us` later, as the
    /// engine's does. With `follow`, each walked member schedules one
    /// more event `gap_us` later, of its own kind (as a unit crossing a
    /// hop does), and after the first member's turn one member still
    /// waiting in the train is cancelled (as a churn close during the
    /// walk would). False once both are past the horizon (or empty).
    fn pop(&mut self, horizon: u64, gap_us: u64, follow: Option<u64>) -> bool {
        let got = self.core.pop(SimTime::from_micros(horizon));
        let want = self.reference.pop(horizon);
        prop_assert_eq!(
            got.as_ref().map(|(t, kind)| (t.micros(), kind.is_some())),
            want
        );
        let Some((t, kind)) = got else {
            return false;
        };
        self.now = t.micros();
        let Some(kind) = kind else {
            prop_assert_eq!(self.reference.next_member(), None);
            return true;
        };
        let train = match kind {
            EventKind::HopArrive(_) => Some(0),
            EventKind::UnitDeliver(_) => Some(1),
            _ => None,
        };
        let mut first = true;
        loop {
            let got = match train {
                Some(_) => self.core.next_member().map(|m| m as u64),
                None => first.then(|| tag(&kind)),
            };
            prop_assert_eq!(got, self.reference.next_member());
            let Some(member) = got else {
                break;
            };
            let id = self
                .cancellable
                .iter()
                .find(|&&(_, pending)| pending == member)
                .map(|&(id, _)| id);
            self.cancellable.retain(|&(_, pending)| pending != member);
            if let (Some(pick), Some(kind)) = (follow, train) {
                if first {
                    self.cancel(pick, id);
                }
                self.schedule(gap_us, kind);
            }
            first = false;
        }
        if matches!(kind, EventKind::Arrival(_)) {
            self.schedule_arrival(gap_us);
        }
        true
    }

    fn assert_same_stats(&self) {
        let (got, want) = (self.core.stats(), &self.reference.stats);
        prop_assert_eq!(got.events_scheduled, want.events_scheduled);
        prop_assert_eq!(got.calendar_entries, want.calendar_entries);
        prop_assert_eq!(got.events_executed, want.events_executed);
        prop_assert_eq!(got.live_events, want.live_events);
        prop_assert_eq!(got.peak_live_events, want.peak_live_events);
        prop_assert_eq!(got.event_slots, want.event_slots);
    }
}

proptest! {
    /// Random interleavings of `schedule` (runs and trains form: half the
    /// calls repeat the delay and kind of the one before, and two kinds
    /// of train mix with a kind that never joins one), reserved-band
    /// arrivals (each merged by the one before it, some due at the very
    /// instant being drained), cancels of single train members and of
    /// whole events — heads, middles and tails, before and during a
    /// walk — events scheduled while a train is walked, and pops up to a
    /// horizon that falls anywhere (between two runs of one bucket
    /// included) pop the same `(t, event)` sequence from the event core
    /// and from a heap holding one entry per event and member, and count
    /// the same events, entries and slots.
    #[test]
    fn runs_pop_as_one_entry_per_event_would(
        pre_run in proptest::collection::vec(0usize..DELAYS_US.len(), 0..4),
        first_arrival in 0usize..DELAYS_US.len(),
        ops in proptest::collection::vec((0u8..14, 0u64..u64::MAX), 1..300),
        horizon in 0u64..12_000,
    ) {
        let mut pair = Pair::default();
        // The pre-run schedule (churn), then the bands open, the first
        // arrival merges — behind the schedule's last event when they
        // share an instant — and the first poll is scheduled.
        for delay in pre_run {
            let (at, tag) = (DELAYS_US[delay], pair.tag());
            pair.core.schedule(SimTime::from_micros(at), EventKind::Topology(tag as usize));
            pair.reference.schedule(at, tag, None);
        }
        pair.core.open_runtime_band();
        pair.reference.open_runtime_band();
        pair.schedule_arrival(DELAYS_US[first_arrival]);
        pair.schedule(100, 2);
        let (mut delay, mut kind) = (0, 0);
        for (selector, raw) in ops {
            let pick = DELAYS_US[(raw % DELAYS_US.len() as u64) as usize];
            match selector {
                0..=2 => pair.schedule(delay, kind),
                3..=5 => {
                    (delay, kind) = (pick, (raw / 8 % 3) as u8);
                    pair.schedule(delay, kind);
                }
                6..=8 => {
                    if !pair.pop(horizon, pick, None) {
                        break;
                    }
                }
                9 => {
                    if !pair.pop(horizon, pick, Some(raw / 8)) {
                        break;
                    }
                }
                _ => pair.cancel(raw, None),
            }
            pair.assert_same_stats();
        }
        // Drain to the horizon.
        while pair.pop(horizon, 700, None) {}
        pair.assert_same_stats();
    }
}

/// A burst scheduled back to back for one instant is one calendar entry,
/// whatever is cancelled out of it; an event at another instant, or one
/// scheduled after the burst's head was popped, starts its own.
#[test]
fn a_burst_is_one_calendar_entry() {
    let timeout = |unit| unit_event(2, unit);
    let mut core = EventCore::default();
    core.open_runtime_band();
    core.schedule(SimTime::from_micros(20), timeout(5));
    assert_eq!(core.stats().calendar_entries, 1);
    let at = SimTime::from_micros(10);
    let ids: Vec<_> = (0..5).map(|i| core.schedule(at, timeout(i))).collect();
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
            core.schedule(at, timeout(6));
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

/// Walks the train `core` just popped.
fn walk(core: &mut EventCore) -> Vec<usize> {
    std::iter::from_fn(|| core.next_member()).collect()
}

/// Units scheduled back to back for one instant join one event of their
/// kind, with one slot; a cancelled member is unlinked alone wherever it
/// sits, and a train whose last member goes is cancelled. A different
/// kind, or a member scheduled once the train's head left the calendar,
/// starts a new event.
#[test]
fn a_train_is_one_event_and_loses_only_its_cancelled_members() {
    let mut core = EventCore::default();
    core.open_runtime_band();
    let at = SimTime::from_micros(10);
    let ids: Vec<_> = (0..6)
        .map(|unit| core.schedule(at, EventKind::HopArrive(Train::of(unit))))
        .collect();
    assert!(ids.iter().all(|&id| id == ids[0]), "{ids:?}");
    // The head, a middle member and the tail go; the train lives on and a
    // new member joins behind the new tail.
    for unit in [0, 3, 5] {
        core.cancel_unit(ids[0], unit);
    }
    assert_eq!(
        core.schedule(at, EventKind::HopArrive(Train::of(9))),
        ids[0]
    );
    // Another kind follows as its own event, in the same run; a train of
    // one that loses its member is cancelled.
    let deliver = core.schedule(at, EventKind::UnitDeliver(Train::of(7)));
    assert_ne!(deliver, ids[0]);
    core.cancel_unit(deliver, 7);
    let stats = core.stats();
    assert_eq!(
        (
            stats.events_scheduled,
            stats.calendar_entries,
            stats.live_events
        ),
        (2, 1, 1)
    );
    assert_eq!(stats.event_slots, 2);
    let (t, kind) = core.pop(SimTime::from_micros(100)).expect("due");
    assert!(t == at && matches!(kind, Some(EventKind::HopArrive(_))));
    // Scheduled mid-walk at the instant being drained: a new event.
    core.schedule(at, EventKind::HopArrive(Train::of(8)));
    assert_eq!(walk(&mut core), [1, 2, 4, 9]);
    let mut popped = Vec::new();
    while let Some((t, kind)) = core.pop(SimTime::from_micros(100)) {
        popped.push((t.micros(), kind.is_some(), walk(&mut core)));
    }
    assert_eq!(popped, [(10, false, vec![]), (10, true, vec![8])]);
    let stats = core.stats();
    assert_eq!((stats.events_executed, stats.live_events), (2, 0));
}

/// A member cancelled while its train is walked — next in turn or
/// further back — is skipped, and the train's slot stays out of reuse
/// until the walk ends, so nothing scheduled meanwhile can take it.
#[test]
fn a_member_cancelled_mid_walk_is_skipped() {
    let mut core = EventCore::default();
    core.open_runtime_band();
    let at = SimTime::from_micros(10);
    let id = (0..5)
        .map(|unit| core.schedule(at, EventKind::UnitDeliver(Train::of(unit))))
        .last()
        .expect("scheduled");
    core.pop(SimTime::from_micros(100)).expect("due");
    assert_eq!(core.next_member(), Some(0));
    core.cancel_unit(id, 1);
    core.cancel_unit(id, 3);
    let later = core.schedule(SimTime::from_micros(20), EventKind::HopArrive(Train::of(0)));
    assert_ne!(
        later, id,
        "a walked train's slot is reused only after the walk"
    );
    assert_eq!(walk(&mut core), [2, 4]);
    assert_eq!(
        core.schedule(SimTime::from_micros(30), EventKind::HopArrive(Train::of(1))),
        id
    );
    let stats = core.stats();
    assert_eq!((stats.events_executed, stats.live_events), (1, 2));
}

/// Cancelling a unit that is not a member of the train fails at once and
/// names both, even where stale links left by an earlier train would
/// lead the walk round a cycle.
#[test]
#[should_panic(expected = "unit 5 is not a member of the train 2..=0")]
fn cancelling_a_non_member_fails_instead_of_spinning() {
    let mut core = EventCore::default();
    core.open_runtime_band();
    let (at, later) = (SimTime::from_micros(10), SimTime::from_micros(20));
    // Units 0, 1 and 2 ride one train and are walked; their links stay.
    for unit in 0..3 {
        core.schedule(at, EventKind::HopArrive(Train::of(unit)));
    }
    core.pop(SimTime::from_micros(100)).expect("due");
    assert_eq!(walk(&mut core), [0, 1, 2]);
    // Units 2 and 0 ride a new train: the link 2 → 0 and the stale
    // 0 → 1 → 2 close a cycle.
    let ids = [2, 0].map(|unit| core.schedule(later, EventKind::HopArrive(Train::of(unit))));
    assert_eq!(ids[0], ids[1]);
    core.cancel_unit(ids[0], 5);
}
