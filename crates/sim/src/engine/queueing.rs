//! §5 queueing mode: units travel hop by hop through per-channel router
//! queues under [`QueueingMode::PerChannelFifo`](crate::config::QueueingMode).

use super::core::{Net, Train};
use super::perturb::{is_crashed, Faults};
use super::{EventKind, PaymentState, Run, Simulation, SlabStats};
use crate::channel::ChannelState;
use crate::config::QueueConfig;
use crate::monitor::InvariantMonitor;
use crate::paths::PathEntry;
use crate::queue::{flow_imbalance, local_signal, IMBALANCE_PRICE_WEIGHT};
use crate::router::UnitAck;
use spider_obs::trace::TraceEventKind;
use spider_obs::NUM_SERIES;
use spider_types::{
    Amount, ChannelId, Direction, DropReason, MarkStamp, PathId, PaymentId, SimDuration, SimTime,
};
use std::collections::VecDeque;

/// A transaction unit traveling hop by hop.
///
/// An alive unit always waits on exactly one pending event: its own
/// `UnitTimeout`, or its place in a `HopArrive` or `UnitDeliver` train.
/// Retiring a unit therefore happens only after that event (or place)
/// was consumed or canceled, which is what makes the slab slot safely
/// recyclable.
#[derive(Debug)]
struct UnitState {
    payment: usize,
    amount: Amount,
    /// Interned path; hops resolve through the shared path table.
    path: PathId,
    /// The resolved entry for `path`, pinned once at injection so the
    /// per-hop events skip the table lookup.
    entry: PathEntry,
    /// Stable per-run id for trace records: the injection ordinal (slab
    /// slots recycle, trace ids don't).
    trace_id: u64,
    /// Hops already locked; the unit currently sits before hop `next_hop`
    /// (or at the destination when `next_hop == hop_count`).
    next_hop: usize,
    injected_at: SimTime,
    /// When the unit joined its current queue (valid while queued).
    enqueued_at: SimTime,
    /// The unit's one pending event — its queue-wait `UnitTimeout` while
    /// queued (canceled on service), else the `HopArrive`/`UnitDeliver`
    /// train it is a member of, or the per-hop `UnitTimeout`, that
    /// carries it on (canceled when a channel close fails the unit back
    /// mid-flight). `None` only while its turn is handled, and once the
    /// unit is done.
    event: Option<usize>,
    /// True once the unit has waited in any queue (for metrics).
    waited: bool,
    stamp: MarkStamp,
    /// Why the unit was dropped (set just before its nack).
    drop_reason: Option<DropReason>,
    /// Settled or dropped; the slot is back on the free list.
    done: bool,
}

/// What a unit reaching a hop does there.
enum HopDecision {
    /// Nothing is queued ahead and the balance covers it: lock and go on.
    Cross,
    /// Wait at the tail of the hop's queue.
    Enqueue,
    /// The queue is at its bound.
    Full,
}

/// Everything hop-by-hop forwarding owns.
pub(super) struct Queueing {
    cfg: QueueConfig,
    /// Per channel, per direction: FIFO of queued unit indices.
    queues: Vec<[VecDeque<usize>; 2]>,
    /// Units resident in router queues right now, across every channel
    /// direction — O(1) occupancy, audited against a recount by the
    /// invariant monitor.
    queued_total: usize,
    units: Vec<UnitState>,
    /// Retired unit slots awaiting reuse.
    free_units: Vec<usize>,
    /// Cumulative volume serviced per channel direction (the `x_u − x_v`
    /// flow-imbalance observable of §5.3).
    flow: Vec<[Amount; 2]>,
    /// Unit slots churn closes examined (the unit share of
    /// [`SlabStats::churn_scan_steps`]).
    scan_steps: u64,
    injected: u64,
    peak_live: usize,
    /// Channel directions whose balance just grew and whose queues may
    /// now be serviceable; [`Simulation::drain`] works it off, so it is
    /// empty between cascades.
    released: VecDeque<(ChannelId, Direction)>,
}

impl Queueing {
    pub(super) fn new(cfg: QueueConfig, n_channels: usize) -> Self {
        Queueing {
            cfg,
            queues: (0..n_channels)
                .map(|_| [VecDeque::new(), VecDeque::new()])
                .collect(),
            queued_total: 0,
            units: Vec::new(),
            free_units: Vec::new(),
            flow: vec![[Amount::ZERO; 2]; n_channels],
            scan_steps: 0,
            injected: 0,
            peak_live: 0,
            released: VecDeque::new(),
        }
    }

    /// The one "cross now / enqueue / queue full" rule, for a unit of
    /// `amount` reaching channel `c` (state `ch`) in direction `d`.
    fn decide(&self, ch: &ChannelState, c: ChannelId, d: Direction, amount: Amount) -> HopDecision {
        let queue_len = self.queues[c.index()][d.index()].len();
        if queue_len == 0 && ch.available(d) >= amount {
            HopDecision::Cross
        } else if queue_len >= self.cfg.max_queue_units {
            HopDecision::Full
        } else {
            HopDecision::Enqueue
        }
    }

    /// Claims a slab slot for a fresh unit at the head of `entry`,
    /// recycling a retired one when available.
    fn alloc_unit(
        &mut self,
        payment: usize,
        amount: Amount,
        path: PathId,
        entry: &PathEntry,
        now: SimTime,
    ) -> usize {
        let unit = UnitState {
            payment,
            amount,
            path,
            entry: entry.clone(),
            trace_id: self.injected,
            next_hop: 0,
            injected_at: now,
            enqueued_at: now,
            event: None,
            waited: false,
            stamp: MarkStamp::CLEAR,
            drop_reason: None,
            done: false,
        };
        self.injected += 1;
        let uid = match self.free_units.pop() {
            Some(i) => {
                debug_assert!(self.units[i].done, "free list holds only dead units");
                self.units[i] = unit;
                i
            }
            None => {
                self.units.push(unit);
                self.units.len() - 1
            }
        };
        self.peak_live = self.peak_live.max(self.live_units());
        uid
    }

    /// Marks a settled or dropped unit done and returns its slab slot to
    /// the free list. Safe because an alive unit has exactly one pending
    /// event, and every retirement site runs only after that event was
    /// consumed or canceled — no stale calendar entry or train link can
    /// reach a recycled slot.
    fn retire(&mut self, uid: usize) {
        let u = &mut self.units[uid];
        debug_assert!(u.event.is_none());
        u.done = true;
        self.free_units.push(uid);
    }

    /// The hop unit `uid` is about to attempt, and why it is dropped on
    /// arriving there, if it is: its payment lapsed, the node that should
    /// forward it crashed while it traveled, or the hop's channel closed
    /// meanwhile. Only polls, admission, fault and topology events change
    /// these, never a unit's own handling, so one train's members with
    /// the same payment, path and hop share the answer.
    fn hop_verdict(
        &self,
        uid: usize,
        payments: &[PaymentState],
        faults: &Option<Faults>,
        net: &Net,
    ) -> ((ChannelId, Direction), Option<DropReason>) {
        let u = &self.units[uid];
        let (c, d) = u.entry.hops()[u.next_hop].parts();
        let verdict = if payments[u.payment].lapsed(net.now) {
            Some(DropReason::Expired)
        } else if is_crashed(faults, u.entry.nodes()[u.next_hop]) {
            Some(DropReason::NodeCrashed)
        } else if net.channels[c.index()].is_closed() {
            Some(DropReason::ChannelClosed)
        } else {
            None
        };
        ((c, d), verdict)
    }

    /// Lists `(c, d)` for the drain if its queue holds units; returns
    /// whether it did. No queue gains a unit while a drain runs (units
    /// join queues only on injection, on arriving at a hop, or when shed
    /// into one, and no drain reaches those), so an empty one would still
    /// be empty at its turn.
    fn release(&mut self, c: ChannelId, d: Direction) -> bool {
        let waiting = !self.queues[c.index()][d.index()].is_empty();
        if waiting {
            self.released.push_back((c, d));
        }
        waiting
    }

    /// Units waiting in router queues right now.
    pub(super) fn queued_units(&self) -> usize {
        self.queued_total
    }

    fn live_units(&self) -> usize {
        self.units.len() - self.free_units.len()
    }

    /// Global queue occupancy in [0, 1] over `n_channels` channels.
    pub(super) fn occupancy_fraction(&self, n_channels: usize) -> f64 {
        let capacity = self.cfg.max_queue_units * n_channels * 2;
        self.queued_total as f64 / capacity.max(1) as f64
    }

    /// Fills the queue-dependent probes of one sample row (see
    /// [`spider_obs::SERIES_NAMES`]).
    pub(super) fn sample(&self, channels: &[ChannelState], row: &mut [f64; NUM_SERIES]) {
        // queue_occupancy: total units waiting in per-channel queues.
        row[1] = self.queued_total as f64;
        // inflight_units: live slab population (locked or queued).
        row[2] = self.live_units() as f64;
        // mean_channel_price: the imbalance component of the stamped
        // price (`local_signal`'s steering term), averaged over open
        // channels.
        let mut price = 0.0;
        let mut open = 0usize;
        for (ch, flow) in channels.iter().zip(&self.flow) {
            if !ch.is_closed() {
                open += 1;
                price += IMBALANCE_PRICE_WEIGHT * flow_imbalance(flow[0], flow[1]).abs();
            }
        }
        row[5] = price / open.max(1) as f64;
    }

    /// Per-channel queue depth (both directions), in dense-id order.
    pub(super) fn queue_depths(&self) -> Vec<u32> {
        self.queues
            .iter()
            .map(|q| (q[0].len() + q[1].len()) as u32)
            .collect()
    }

    /// Adds the unit slab's share of [`SlabStats`].
    pub(super) fn add_stats(&self, stats: &mut SlabStats) {
        stats.units_injected = self.injected;
        stats.unit_slots = self.units.len();
        stats.live_units = self.live_units();
        stats.peak_live_units = self.peak_live;
        stats.churn_scan_steps += self.scan_steps;
    }

    /// Invariant sweep over this component's own state. Queue bounds:
    /// per-direction occupancy within the configured cap, and the O(1)
    /// occupancy counter consistent with a recount. Unit-state legality:
    /// an alive unit has its pending event and a hop cursor inside its
    /// path.
    pub(super) fn audit(&self, mon: &mut InvariantMonitor, t_us: u64) {
        let cap = self.cfg.max_queue_units;
        let mut total = 0usize;
        for (i, q) in self.queues.iter().enumerate() {
            for (dir, dq) in q.iter().enumerate() {
                let len = dq.len();
                total += len;
                if len > cap {
                    let what = format!("channel {i} dir {dir}: {len} queued > cap {cap}");
                    mon.record(t_us, "queue_bounds", what);
                }
            }
        }
        if total != self.queued_total {
            let what = format!("occupancy counter {} != recount {total}", self.queued_total);
            mon.record(t_us, "queue_bounds", what);
        }
        for (uid, u) in self.units.iter().enumerate().filter(|(_, u)| !u.done) {
            if u.event.is_none() {
                let what = format!("unit {uid}: alive without a pending event");
                mon.record(t_us, "unit_state", what);
            }
            let (at, len) = (u.next_hop, u.entry.hop_count());
            if at > len {
                let what = format!("unit {uid}: hop cursor {at} past path length {len}");
                mon.record(t_us, "unit_state", what);
            }
        }
    }
}

impl Simulation {
    /// Injects one unit at its first hop: it either starts forwarding,
    /// joins the first hop's queue, or is rejected outright — never
    /// accepted, so no ack follows. Returns whether the unit was accepted.
    pub(super) fn inject_unit(&mut self, pid: usize, amount: Amount, path: PathId) -> bool {
        let Some(q) = self.queueing.as_mut() else {
            return false;
        };
        let now = self.net.now;
        let channels = &self.net.channels;
        let entry = self.net.paths.entry(path);
        let (c, d) = entry.hops()[0].parts();
        let decision = q.decide(&channels[c.index()], c, d, amount);
        // Rejected at the ingress: a path crossing a closed channel (stale
        // proposals can arrive in the same instant as a churn event;
        // injecting would only convert the unit into a drop), a crashed
        // sender (it can't originate traffic), or a full first queue.
        if entry
            .hops()
            .iter()
            .any(|hop| channels[hop.channel().index()].is_closed())
            || is_crashed(&self.faults, entry.source())
            || matches!(decision, HopDecision::Full)
        {
            self.metrics.unit_lock(entry.hop_count(), false);
            return false;
        }
        let uid = q.alloc_unit(pid, amount, path, &entry, now);
        let trace_id = q.units[uid].trace_id;
        self.payments[pid].inflight += amount;
        self.obs.trace(now, || TraceEventKind::UnitInjected {
            payment: PaymentId(pid as u64),
            unit: trace_id,
            path,
            amount,
        });
        match decision {
            HopDecision::Cross => self.lock_hop(uid, SimDuration::ZERO),
            _ => self.enqueue_unit(uid, c, d),
        }
        true
    }

    /// Puts a unit at the tail of `(c, d)`'s queue and arms its timeout.
    /// The caller has verified the queue has room.
    fn enqueue_unit(&mut self, uid: usize, c: ChannelId, d: Direction) {
        let Some(q) = self.queueing.as_mut() else {
            return;
        };
        let now = self.net.now;
        let queue = &mut q.queues[c.index()][d.index()];
        queue.push_back(uid);
        let qlen = queue.len() as u32;
        q.queued_total += 1;
        let event_id = self.events.schedule(
            now + q.cfg.max_queue_delay,
            EventKind::UnitTimeout {
                unit: uid,
                reason: DropReason::QueueTimeout,
            },
        );
        let u = &mut q.units[uid];
        u.enqueued_at = now;
        u.event = Some(event_id);
        let trace_id = u.trace_id;
        self.obs.trace(now, || TraceEventKind::UnitEnqueued {
            unit: trace_id,
            channel: c,
            qlen,
        });
    }

    /// Locks the unit's next hop (the caller has verified balance), stamps
    /// the router's local price signal, and schedules the unit onward.
    fn lock_hop(&mut self, uid: usize, queue_delay: SimDuration) {
        let Some(q) = self.queueing.as_mut() else {
            return;
        };
        let now = self.net.now;
        let u = &mut q.units[uid];
        let (c, d) = u.entry.hops()[u.next_hop].parts();
        let hop_count = u.entry.hop_count();
        let ch = &mut self.net.channels[c.index()];
        let locked = ch.lock(d, u.amount);
        debug_assert!(locked, "lock_hop caller must verify balance");
        let flow = &mut q.flow[c.index()];
        flow[d.index()] += u.amount;
        let available_fraction =
            ch.available(d).drops() as f64 / ch.capacity().drops().max(1) as f64;
        let signal = local_signal(
            queue_delay,
            flow[d.index()],
            flow[d.reverse().index()],
            available_fraction,
        );
        u.stamp.absorb(signal.price, signal.marked, queue_delay);
        if !queue_delay.is_zero() {
            let first_wait = !u.waited;
            u.waited = true;
            self.metrics
                .unit_queued(queue_delay.as_secs_f64(), first_wait);
            self.obs.queue_wait(c, queue_delay.as_secs_f64());
        }
        let hop = u.next_hop as u32;
        u.next_hop += 1;
        let trace_id = u.trace_id;
        self.obs.trace(now, || TraceEventKind::UnitForwarded {
            unit: trace_id,
            channel: c,
            hop,
        });
        let final_hop = u.next_hop == hop_count;
        if final_hop {
            self.metrics.unit_lock(hop_count, true);
        }
        // Overload griefing: the final hop silently holds the unit — with
        // the whole path now locked — until the sender-side timeout
        // refunds it. It preempts the fault draws, so a griefing unit
        // consumes none of the fault stream.
        let griefing = final_hop && self.payments[u.payment].griefing;
        let held = self.overload.as_ref().filter(|_| griefing);
        let mut timeout = held.map(|o| (o.plan.griefing_hold, DropReason::HopTimeout));
        let mut hop_delay = q.cfg.hop_delay;
        if let (None, Some(faults)) = (timeout, self.faults.as_mut()) {
            if let Some(reason) = faults.hop_loss(c, final_hop) {
                self.metrics.fault_injected();
                timeout = Some((faults.plan.hop_timeout, reason));
            } else if !final_hop {
                hop_delay += faults.hop_jitter();
            }
        }
        let (at, kind) = match timeout {
            Some((after, reason)) => (now + after, EventKind::UnitTimeout { unit: uid, reason }),
            None if final_hop => (
                now + self.config.confirmation_delay,
                EventKind::UnitDeliver(Train::of(uid)),
            ),
            None => (now + hop_delay, EventKind::HopArrive(Train::of(uid))),
        };
        u.event = Some(self.events.schedule(at, kind));
    }

    /// A train of units arrives: each member in turn attempts its next
    /// hop. Consecutive members of one payment on one path at one hop
    /// share one look at the hop and at the facts that only other events
    /// change (see [`Queueing::hop_verdict`]); what a member can change
    /// for the next — queue, balance, flow, stamp — is read per member.
    pub(super) fn on_hop_arrive(&mut self) {
        // The last member's (payment, path, hop), and that hop's verdict.
        let mut group = None;
        while let Some(uid) = self.events.next_member() {
            let Some(q) = self.queueing.as_mut() else {
                return;
            };
            let u = &mut q.units[uid];
            debug_assert!(!u.done && u.event.is_some(), "a member is a waiting unit");
            // Its turn has come; it is no longer cancelable.
            u.event = None;
            let (key, amount) = ((u.payment, u.path, u.next_hop), u.amount);
            let look = |q: &Queueing| q.hop_verdict(uid, &self.payments, &self.faults, &self.net);
            let ((c, d), verdict) = match group {
                Some((k, hop)) if k == key => hop,
                _ => look(q),
            };
            group = Some((key, ((c, d), verdict)));
            debug_assert_eq!(((c, d), verdict), look(q), "a shared fact moved in a train");
            match (
                verdict,
                q.decide(&self.net.channels[c.index()], c, d, amount),
            ) {
                (Some(reason), _) => {
                    if reason == DropReason::NodeCrashed {
                        self.metrics.fault_injected();
                    }
                    self.drop_unit(uid, reason);
                }
                (None, HopDecision::Cross) => self.lock_hop(uid, SimDuration::ZERO),
                (None, HopDecision::Enqueue) => self.enqueue_unit(uid, c, d),
                (None, HopDecision::Full) if self.config.shedding => {
                    self.shed_into_queue(uid, c, d)
                }
                (None, HopDecision::Full) => self.drop_unit(uid, DropReason::QueueOverflow),
            }
        }
    }

    /// Deadline-aware shedding: the queue at `(c, d)` is full. Among the
    /// queued units and the newcomer `uid`, evict the one least likely
    /// to meet its deadline — the earliest payment deadline, front-most
    /// on queue ties (it has waited longest for nothing). The newcomer
    /// is dropped when its own deadline is earliest-or-tied; otherwise
    /// the victim is shed and the newcomer takes its place.
    fn shed_into_queue(&mut self, uid: usize, c: ChannelId, d: Direction) {
        let Some(q) = self.queueing.as_ref() else {
            return;
        };
        let deadline_of = |u: usize| self.payments[q.units[u].payment].deadline;
        let victim = q.queues[c.index()][d.index()]
            .iter()
            .copied()
            .min_by_key(|&queued| deadline_of(queued))
            .filter(|&v| deadline_of(v) < deadline_of(uid));
        let Some(victim) = victim else {
            self.drop_unit(uid, DropReason::Shed);
            return;
        };
        self.drop_unit(victim, DropReason::Shed);
        // The eviction's refunds can cascade (upstream queues drain,
        // drop, refund further); re-admit the newcomer against the
        // queue's state as it stands now.
        let Some(q) = self.queueing.as_ref() else {
            return;
        };
        let ch = &self.net.channels[c.index()];
        match q.decide(ch, c, d, q.units[uid].amount) {
            HopDecision::Cross => self.lock_hop(uid, SimDuration::ZERO),
            HopDecision::Enqueue => self.enqueue_unit(uid, c, d),
            HopDecision::Full => self.drop_unit(uid, DropReason::Shed),
        }
    }

    /// A train of fully locked units settles, member by member (a unit
    /// is refunded instead when its payment expired while the key was in
    /// flight). Consecutive members of one payment on one path share one
    /// look at whether it lapsed and one handle on the path.
    pub(super) fn on_unit_deliver(&mut self) {
        let now = self.net.now;
        // The last member's (payment, path), whether it lapsed, the path.
        let mut group: Option<((usize, PathId), bool, PathEntry)> = None;
        while let Some(uid) = self.events.next_member() {
            let Some(q) = self.queueing.as_mut() else {
                return;
            };
            let u = &mut q.units[uid];
            debug_assert!(!u.done && u.event.is_some(), "a member is a waiting unit");
            // Its turn has come; it is no longer cancelable.
            u.event = None;
            let (pid, amount, trace_id) = (u.payment, u.amount, u.trace_id);
            let key = (pid, u.path);
            let (key, lapsed, entry) = match group.take() {
                Some(g) if g.0 == key => g,
                _ => (key, self.payments[pid].lapsed(now), u.entry.clone()),
            };
            debug_assert_eq!(lapsed, self.payments[pid].lapsed(now));
            if lapsed {
                self.drop_unit(uid, DropReason::Expired);
            } else {
                self.deliver(pid, &entry, Run::one(amount), |_| {
                    TraceEventKind::UnitDelivered { unit: trace_id }
                });
                self.ack_unit(uid, true);
                self.retire_unit(uid);
                self.drain_released(
                    entry
                        .hops()
                        .iter()
                        .map(|hop| (hop.channel(), hop.direction().reverse())),
                );
            }
            group = Some((key, lapsed, entry));
        }
    }

    /// The sender gives up on a unit (see [`EventKind::UnitTimeout`]).
    pub(super) fn on_unit_timeout(&mut self, uid: usize, reason: DropReason) {
        let Some(q) = self.queueing.as_mut() else {
            return;
        };
        let u = &mut q.units[uid];
        if u.done {
            return;
        }
        // This event just fired; it is no longer cancelable.
        u.event = None;
        self.drop_unit(uid, reason);
    }

    /// Drops a unit wherever it is: leaves its queue if queued, refunds
    /// every locked hop, nacks the sender, and drains refilled directions.
    fn drop_unit(&mut self, uid: usize, reason: DropReason) {
        self.drop_unit_collect(uid, reason);
        self.drain();
    }

    /// [`Self::drop_unit`] without the drain step, for the drain loop
    /// itself: the released directions join the list it is working off.
    fn drop_unit_collect(&mut self, uid: usize, reason: DropReason) {
        let Some(q) = self.queueing.as_mut() else {
            return;
        };
        let u = &mut q.units[uid];
        // Its pending event must not fire on a recycled slab slot.
        if let Some(ev) = u.event.take() {
            self.events.cancel_unit(ev, uid);
        }
        u.stamp.marked = true;
        u.drop_reason = Some(reason);
        let (pid, amount, path, trace_id) = (u.payment, u.amount, u.path, u.trace_id);
        let entry = u.entry.clone();
        let (locked, ahead) = entry.hops().split_at(u.next_hop);
        // The failing hop is the one the unit was queued at or traveling
        // toward; a unit that had fully locked its path has none.
        let failing_hop = ahead.first().map(|hop| hop.channel());
        if let Some((c, d)) = ahead.first().map(|hop| hop.parts()) {
            // Remove from that hop's queue, if present.
            let queue = &mut q.queues[c.index()][d.index()];
            let before = queue.len();
            queue.retain(|&queued| queued != uid);
            q.queued_total -= before - queue.len();
        }
        for (c, d) in locked.iter().map(|hop| hop.parts()) {
            self.net.channels[c.index()].refund(d, amount);
            q.release(c, d);
        }
        self.payments[pid].inflight -= amount;
        if reason == DropReason::ChannelClosed {
            self.payments[pid].churn_hit = true;
            self.metrics.unit_dropped_churn();
        }
        // A unit that never finished locking its path counts as a failed
        // lock; one that fully locked was already counted as a success
        // (it reached the destination) and is only recorded as dropped.
        if failing_hop.is_some() {
            self.metrics.unit_lock(entry.hop_count(), false);
        }
        let attempts = self.payments[pid].attempts;
        self.record_drop(pid, path, failing_hop, None, reason, || {
            TraceEventKind::UnitDropped {
                unit: trace_id,
                reason,
                attempts,
            }
        });
        self.ack_unit(uid, false);
        // The returned value made part of the payment unassigned again;
        // make sure the retry queue will offer it (the payment may have
        // been fully in flight and therefore absent from the queue).
        if self.payments[pid].active() {
            self.retry_queue.push(pid, None);
        }
        self.retire_unit(uid);
    }

    fn retire_unit(&mut self, uid: usize) {
        if let Some(q) = self.queueing.as_mut() {
            q.retire(uid);
        }
    }

    /// Sends the unit's end-to-end acknowledgement to the router.
    fn ack_unit(&mut self, uid: usize, delivered: bool) {
        let Some(q) = self.queueing.as_ref() else {
            return;
        };
        let u = &q.units[uid];
        self.metrics.unit_acked(u.stamp.marked);
        // The failing hop of a dropped unit, mirroring the forensics
        // attribution: the channel it was queued at or traveling toward.
        // A unit that fully locked its path (expiry/griefing) has none.
        let drop_channel = (u.drop_reason.is_some() && u.next_hop < u.entry.hop_count())
            .then(|| u.entry.hops()[u.next_hop].channel());
        let ack = UnitAck {
            payment: PaymentId(u.payment as u64),
            path: u.path,
            amount: u.amount,
            delivered,
            stamp: u.stamp,
            drop_reason: u.drop_reason,
            drop_channel,
            rtt: self.net.now - u.injected_at,
        };
        self.router.on_unit_ack(&ack, &self.net.view());
        self.obs.trace(self.net.now, || TraceEventKind::UnitAcked {
            payment: ack.payment,
            unit: u.trace_id,
            delivered,
            marked: u.stamp.marked,
        });
    }

    /// Services the queues of directions that just gained balance. A
    /// no-op in lockstep mode, where nothing is ever queued, and when no
    /// released direction has units waiting.
    pub(super) fn drain_released(
        &mut self,
        released: impl IntoIterator<Item = (ChannelId, Direction)>,
    ) {
        if let Some(q) = self.queueing.as_mut() {
            let listed = released
                .into_iter()
                .fold(false, |listed, (c, d)| q.release(c, d) | listed);
            if listed {
                self.drain();
            }
        }
    }

    /// Services the queues of the released directions, in FIFO order,
    /// until each blocks again. Servicing can release further directions
    /// (drops refund upstream hops), so this works through the list.
    fn drain(&mut self) {
        let now = self.net.now;
        let queued_at_start = self.queued_units();
        let next = |q: &mut Queueing| q.released.pop_front();
        while let Some((c, d)) = self.queueing.as_mut().and_then(next) {
            debug_assert!(
                self.queued_units() <= queued_at_start,
                "a queue gained a unit during a drain"
            );
            while let Some(q) = self.queueing.as_mut() {
                let Some(&uid) = q.queues[c.index()][d.index()].front() else {
                    break;
                };
                let u = &mut q.units[uid];
                if self.payments[u.payment].lapsed(now) {
                    self.drop_unit_collect(uid, DropReason::Expired);
                    continue;
                }
                // A crashed servicing node freezes the whole queue until
                // recovery (or each unit's timeout); otherwise the head
                // waits for balance.
                if is_crashed(&self.faults, u.entry.nodes()[u.next_hop])
                    || self.net.channels[c.index()].available(d) < u.amount
                {
                    break;
                }
                if let Some(ev) = u.event.take() {
                    self.events.cancel(ev);
                }
                let queue_delay = now - u.enqueued_at;
                q.queues[c.index()][d.index()].pop_front();
                q.queued_total -= 1;
                self.lock_hop(uid, queue_delay);
            }
        }
    }

    /// A churn close of channel `ci`: drops, in unit-slot order, every
    /// in-flight unit whose path crosses it, wherever the unit is (queued
    /// or mid-path), every locked hop refunded.
    pub(super) fn fail_back_units(&mut self, ci: usize) {
        let Some(q) = self.queueing.as_mut() else {
            return;
        };
        q.scan_steps += q.units.len() as u64;
        let hit: Vec<usize> = (0..q.units.len())
            .filter(|&uid| {
                let u = &q.units[uid];
                !u.done && u.entry.hops().iter().any(|hop| hop.channel().index() == ci)
            })
            .collect();
        for uid in hit {
            // A drain cascade from an earlier drop may have already
            // retired this unit.
            if self.queueing.as_ref().is_some_and(|q| !q.units[uid].done) {
                self.drop_unit(uid, DropReason::ChannelClosed);
            }
        }
    }
}
