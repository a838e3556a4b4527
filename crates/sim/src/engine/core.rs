//! The event core — calendar, event slab and sequence bands — plus the
//! arrival cursor that feeds it and the network state every handler reads.

use super::{EventKind, SlabStats};
use crate::calendar::CalendarQueue;
use crate::channel::ChannelState;
use crate::paths::PathTable;
use crate::router::NetworkView;
use crate::workload::{ArrivalSource, TxnSpec};
use spider_topology::Topology;
use spider_types::SimTime;

/// First sequence number handed to events scheduled mid-run. Arrivals
/// draw from a reserved band below this (starting right after the churn
/// schedule's seqs), so a streamed arrival keeps exactly the tie-break
/// rank the old pre-seeded calendar gave it: at equal instants, topology
/// changes beat arrivals, and arrivals beat every event scheduled while
/// the run is underway.
pub(super) const RUNTIME_SEQ_BASE: u64 = 1 << 32;

/// "No next event" in [`EventCore::next`].
const END_OF_RUN: u32 = u32::MAX;

/// The units of a train, as unit slots: the first and the last, with
/// any between linked through [`EventCore::members`] — so a train of one
/// touches no link at all.
#[derive(Debug, Clone, Copy)]
pub(super) struct Train {
    first: u32,
    last: u32,
}

impl Train {
    /// A train of the one unit in slot `unit`.
    pub(super) fn of(unit: usize) -> Train {
        Train {
            first: unit as u32,
            last: unit as u32,
        }
    }
}

impl EventKind {
    fn train(&self) -> Option<Train> {
        match *self {
            EventKind::HopArrive(train) | EventKind::UnitDeliver(train) => Some(train),
            _ => None,
        }
    }

    fn train_mut(&mut self) -> Option<&mut Train> {
        match self {
            EventKind::HopArrive(train) | EventKind::UnitDeliver(train) => Some(train),
            _ => None,
        }
    }
}

/// The calendar and the slab of pending events it refers to.
///
/// ## Runs
///
/// Units travel in trains: a route call injects a payment's units back to
/// back, all due one hop delay later, and they stay back to back at every
/// later hop. So most `schedule` calls carry the instant of the call
/// before them and the next sequence number. Such an event is not pushed
/// onto the calendar; it is *linked behind* the previous one ([`next`]),
/// and [`pop`] drains the linked run it is in before it asks the calendar
/// again. One calendar entry — the run's head — stands for the whole run.
///
/// The pop order is exactly the `(time, seq)` order of one entry per
/// event:
///
/// * the members of a run share an instant and hold consecutive
///   integers, and seqs are unique, so no calendar entry can order
///   between two of them;
/// * anything scheduled while a run drains takes a larger seq than every
///   member of it (the runtime band only counts up), so it belongs after
///   the run, which is where the calendar will deliver it;
/// * the reserved arrival band — the one source of *smaller* seqs — is
///   only ever written by an executing `Arrival`, and an arrival precedes
///   every runtime-band event of its instant: while a runtime-band run
///   drains, nothing can be scheduled ahead of its remaining members;
/// * [`tail`] is dropped the moment a head with `tail`'s instant is
///   popped, so nothing is ever joined to an event that already left
///   the calendar: the last-scheduled event is always a head still in
///   the calendar or a member of a run whose head is.
///
/// ## Trains
///
/// A `HopArrive` or `UnitDeliver` that would be linked straight behind
/// a pending event of its own kind does not become an event at all: its
/// unit becomes one more *member* of that event's [`Train`], linked
/// behind the last one ([`members`], indexed by unit slot), with no
/// slab slot, calendar entry or pop of its own. It still takes its seq,
/// so every other event's tie-break, every run and every calendar entry
/// is what it would be with one event per unit. The handler walks the
/// members in order ([`next_member`]); by the argument above, nothing
/// scheduled during the walk can order between two of them, so the walk
/// does exactly what popping one event per member would.
///
/// A unit waits on one event at a time, so a unit slot is in at most one
/// train. Cancelling a member ([`cancel_unit`]) unlinks it alone, so its
/// recycled slot can never run twice or in another unit's train; a train
/// whose last member goes is cancelled. The popped train's slot is held
/// until its walk ends, so a member still waiting for its turn names its
/// own train, and a cancel of it during the walk unlinks it there.
///
/// The horizon is tested on heads only (members share the head's
/// instant). Cancelling stays "clear the slot, skip it when reached".
/// Every counter but [`SlabStats::calendar_entries`] counts events, and
/// a train is one event; units are counted by the unit slab.
///
/// [`next`]: EventCore::next
/// [`members`]: EventCore::members
/// [`tail`]: EventCore::tail
/// [`pop`]: EventCore::pop
/// [`next_member`]: EventCore::next_member
/// [`cancel_unit`]: EventCore::cancel_unit
#[derive(Default)]
pub(super) struct EventCore {
    calendar: CalendarQueue,
    store: Vec<Option<EventKind>>,
    /// The slot linked behind this one in its run, or [`END_OF_RUN`].
    next: Vec<u32>,
    /// Per unit slot: the member behind it in its train (meaningless for
    /// a train's last member). Grows to the unit slab's high-water mark.
    members: Vec<u32>,
    /// Event slots whose turn has come and gone; reused by the next
    /// `schedule`. Slots canceled in place (`store[id] = None`) are
    /// reclaimed when their turn comes, never earlier, so a calendar
    /// entry or run link always refers to the event that scheduled it.
    free: Vec<usize>,
    seq: u64,
    /// Next reserved arrival sequence number (see [`RUNTIME_SEQ_BASE`]).
    arrival_seq: u64,
    /// The event scheduled last — `(instant, seq, slot)` — while its
    /// run's head is still in the calendar: what the next event joins if
    /// it continues the run.
    tail: Option<(SimTime, u64, usize)>,
    /// The run being drained: its instant and the slot whose turn is
    /// next.
    draining: Option<(SimTime, u32)>,
    /// The train being walked: its slot (held until the walk ends) and
    /// the members whose turn is still to come.
    walk: Option<(usize, Option<Train>)>,
    /// The event-loop counters of [`SlabStats`] and the settle share of
    /// `churn_scan_steps`; the unit and path counters stay zero here.
    stats: SlabStats,
}

impl EventCore {
    /// Schedules an event with the next sequence number of the current
    /// band and returns its id (needed by callers that may cancel it) —
    /// for a train member, the id of the train it joined.
    pub(super) fn schedule(&mut self, at: SimTime, kind: EventKind) -> usize {
        let seq = self.seq;
        self.seq += 1;
        self.schedule_at(at, seq, kind)
    }

    /// Merges one arrival into the calendar under its reserved sequence
    /// number.
    pub(super) fn schedule_arrival(&mut self, spec: TxnSpec) {
        let seq = self.arrival_seq;
        self.arrival_seq += 1;
        debug_assert!(
            self.arrival_seq <= RUNTIME_SEQ_BASE,
            "arrival seqs overflow"
        );
        self.schedule_at(spec.time, seq, EventKind::Arrival(spec));
    }

    /// Partitions the sequence space once the pre-run schedule (churn,
    /// faults) is in: arrivals draw reserved seqs right after it, runtime
    /// events from a disjoint upper band.
    pub(super) fn open_runtime_band(&mut self) {
        debug_assert!(self.seq < RUNTIME_SEQ_BASE, "churn schedule too large");
        self.arrival_seq = self.seq;
        self.seq = RUNTIME_SEQ_BASE;
    }

    /// Schedules an event under an explicit sequence number. When it
    /// continues the run of the event scheduled last, it joins that event
    /// as a train member if both are pending trains of one kind, and is
    /// linked behind it otherwise; else it heads a new run on the
    /// calendar. A new event reuses a retired slab slot when one is free.
    fn schedule_at(&mut self, at: SimTime, seq: u64, kind: EventKind) -> usize {
        let joined = self
            .tail
            .filter(|&(tail_at, tail_seq, _)| tail_at == at && tail_seq + 1 == seq)
            .map(|(.., slot)| slot);
        if let (Some(slot), Some(unit)) = (joined, kind.train()) {
            let own_kind = std::mem::discriminant(&kind);
            let pending = self.store[slot]
                .as_mut()
                .filter(|t| std::mem::discriminant(&**t) == own_kind);
            if let Some(train) = pending.and_then(EventKind::train_mut) {
                let last = std::mem::replace(&mut train.last, unit.first) as usize;
                if last >= self.members.len() {
                    self.members.resize(last + 1, 0);
                }
                self.members[last] = unit.first;
                self.tail = Some((at, seq, slot));
                return slot;
            }
        }
        let id = match self.free.pop() {
            Some(id) => {
                debug_assert!(self.store[id].is_none());
                self.store[id] = Some(kind);
                self.next[id] = END_OF_RUN;
                id
            }
            None => {
                self.store.push(Some(kind));
                self.next.push(END_OF_RUN);
                self.stats.event_slots = self.store.len();
                self.store.len() - 1
            }
        };
        match joined {
            Some(tail) => self.next[tail] = id as u32,
            None => {
                self.calendar.push(at, seq, id);
                self.stats.calendar_entries += 1;
            }
        }
        self.tail = Some((at, seq, id));
        self.stats.events_scheduled += 1;
        self.stats.live_events += 1;
        self.stats.peak_live_events = self.stats.peak_live_events.max(self.stats.live_events);
        id
    }

    /// Cancels a pending event in place. The slot itself is reclaimed
    /// when its turn comes (so neither the calendar nor a run link ever
    /// refers to a reused slot).
    pub(super) fn cancel(&mut self, id: usize) {
        let kind = self.store[id].take();
        debug_assert!(kind.is_some(), "double cancel");
        self.stats.live_events -= 1;
    }

    /// Cancels what unit slot `unit` waits on, pending event `id`: its
    /// membership alone when `id` is a train — the train runs on without
    /// it, and is cancelled once no member is left — and the whole event
    /// otherwise.
    pub(super) fn cancel_unit(&mut self, id: usize, unit: usize) {
        let unit = unit as u32;
        if let Some((slot, rest)) = self.walk.filter(|&(slot, _)| slot == id) {
            // Walked right now, and the member has not had its turn: the
            // walk skips it.
            debug_assert!(rest.is_some(), "a cancelled member is still to come");
            let rest = rest.and_then(|train| self.without(train, unit));
            self.walk = Some((slot, rest));
            return;
        }
        let Some(train) = self.store[id].as_ref().and_then(EventKind::train) else {
            self.cancel(id);
            return;
        };
        match self.without(train, unit) {
            None => self.cancel(id),
            Some(rest) => {
                if let Some(train) = self.store[id].as_mut().and_then(EventKind::train_mut) {
                    *train = rest;
                }
            }
        }
    }

    /// `train` without its member `unit`, or `None` when that was the
    /// only one. Panics when `unit` is not a member: the walk stops at
    /// the train's last member instead of following stale links.
    fn without(&mut self, train: Train, unit: u32) -> Option<Train> {
        let Train { first, last } = train;
        if first == unit {
            return (first != last).then(|| Train {
                first: self.members[first as usize],
                last,
            });
        }
        let mut before = first;
        loop {
            assert!(
                before != last,
                "unit {unit} is not a member of the train {first}..={last}"
            );
            let next = self.members[before as usize];
            if next == unit {
                break;
            }
            before = next;
        }
        if unit == last {
            return Some(Train {
                first,
                last: before,
            });
        }
        self.members[before as usize] = self.members[unit as usize];
        Some(train)
    }

    /// Cancels, in slot order, every pending event that `pick` maps to
    /// `Some`, and returns what it mapped them to. A churn close is the one
    /// caller, so the slots walked count in [`SlabStats::churn_scan_steps`].
    pub(super) fn cancel_where<T>(
        &mut self,
        mut pick: impl FnMut(&EventKind) -> Option<T>,
    ) -> Vec<T> {
        self.stats.churn_scan_steps += self.store.len() as u64;
        let mut taken = Vec::new();
        for slot in &mut self.store {
            if let Some(t) = slot.as_ref().and_then(&mut pick) {
                *slot = None;
                self.stats.live_events -= 1;
                taken.push(t);
            }
        }
        taken
    }

    /// Consumes the next event due at or before `horizon` — the next
    /// member of the run being drained, else the head the calendar
    /// delivers: its instant, and the event unless it was canceled
    /// (atomic rollback, serviced timeouts). The slot is reusable from
    /// here on, or, for a train, once [`Self::next_member`] has walked
    /// it to its end.
    pub(super) fn pop(&mut self, horizon: SimTime) -> Option<(SimTime, Option<EventKind>)> {
        debug_assert!(self.walk.is_none(), "a train is walked to its end");
        let (t, id) = match self.draining {
            Some((t, id)) => (t, id as usize),
            None => {
                let (t, _, id) = self.calendar.pop()?;
                if t > horizon {
                    return None;
                }
                if self.tail.is_some_and(|(tail_at, ..)| tail_at == t) {
                    self.tail = None;
                }
                (t, id)
            }
        };
        let next = self.next[id];
        self.draining = (next != END_OF_RUN).then_some((t, next));
        let kind = self.store[id].take();
        match kind.as_ref().and_then(EventKind::train) {
            Some(train) => self.walk = Some((id, Some(train))),
            None => self.free.push(id),
        }
        if kind.is_some() {
            self.stats.live_events -= 1;
            self.stats.events_executed += 1;
        }
        Some((t, kind))
    }

    /// The next member of the train just popped, in schedule order, or
    /// `None` once every member has had its turn (the train's slot is
    /// reusable from then on).
    pub(super) fn next_member(&mut self) -> Option<usize> {
        let (slot, rest) = self.walk?;
        let Some(Train { first, last }) = rest else {
            self.walk = None;
            self.free.push(slot);
            return None;
        };
        let rest = (first != last).then(|| Train {
            first: self.members[first as usize],
            last,
        });
        self.walk = Some((slot, rest));
        Some(first as usize)
    }

    /// Ends the run: what is still pending lies past the horizon and
    /// never runs, so the train links are dead; freeing them keeps them
    /// out of the peak of rendering the run's artifacts.
    pub(super) fn finish(&mut self) {
        self.members = Vec::new();
    }

    /// Event-loop counters: scheduled, executed, slots, live, peak live.
    pub(super) fn stats(&self) -> SlabStats {
        self.stats
    }
}

/// Where arrivals come from (materialized list or lazy stream), handed
/// out one due arrival at a time.
pub(super) struct ArrivalCursor {
    /// Read it (count, distinct pairs) before the first
    /// [`Self::next_due`]: a streaming source is consumed as it goes.
    pub(super) source: ArrivalSource,
    /// In-horizon arrival indices in `(time, index)` order
    /// ([`ArrivalSource::Fixed`] only).
    order: Vec<u32>,
    next: usize,
}

impl ArrivalCursor {
    pub(super) fn new(source: ArrivalSource) -> Self {
        ArrivalCursor {
            source,
            order: Vec::new(),
            next: 0,
        }
    }

    /// Orders a fixed workload by `(time, index)`. Generated workloads are
    /// already time-sorted (identity permutation); hand-built ones are
    /// normalized here so lazy merging cannot reorder them. Ties keep
    /// index order — the seq rank the pre-seeded calendar assigned.
    pub(super) fn start(&mut self, horizon: SimTime) {
        if let ArrivalSource::Fixed(w) = &self.source {
            let mut order: Vec<u32> = (0..w.txns.len() as u32)
                .filter(|&i| w.txns[i as usize].time <= horizon)
                .collect();
            order.sort_by_key(|&i| (w.txns[i as usize].time, i));
            self.order = order;
            self.next = 0;
        }
    }

    /// The next arrival due at or before `horizon`, if any.
    pub(super) fn next_due(&mut self, horizon: SimTime) -> Option<TxnSpec> {
        match &mut self.source {
            ArrivalSource::Fixed(w) => {
                let &i = self.order.get(self.next)?;
                self.next += 1;
                Some(w.txns[i as usize])
            }
            // Arrival times are non-decreasing: the first one past the
            // horizon ends the stream.
            ArrivalSource::Streaming(s) => s.next_txn().filter(|spec| spec.time <= horizon),
        }
    }
}

/// The network as routers see it: topology, live channel balances, the
/// shared path interner and the clock.
pub(super) struct Net {
    pub(super) topo: Topology,
    pub(super) channels: Vec<ChannelState>,
    /// The shared path interner (routers reach it via [`NetworkView`]).
    pub(super) paths: PathTable,
    pub(super) now: SimTime,
}

impl Net {
    /// The read-only view handed to every router callback.
    pub(super) fn view(&self) -> NetworkView<'_> {
        NetworkView {
            topo: &self.topo,
            channels: &self.channels,
            paths: &self.paths,
            now: self.now,
        }
    }
}
