//! Lockstep mode — a unit locks its whole path at once and settles Δ
//! later, together with the other units its proposal locked — and the
//! retry queue both modes poll.

use super::{EventKind, PaymentState, Run, Simulation};
use crate::config::SchedulingPolicy;
use crate::paths::PathEntry;
use crate::router::{RouteRequest, UnitOutcome};
use spider_obs::trace::TraceEventKind;
use spider_obs::Phase;
use spider_types::{
    Amount, ChannelId, Direction, DropReason, Hop, PathId, PaymentId, SimDuration, SimTime,
};

/// How often the retry queue is polled (incomplete payments are
/// "periodically polled to see if they can make any further progress").
pub(crate) const POLL_INTERVAL: SimDuration = SimDuration::from_millis(100);

/// Cap on the (path, amount) proposals attempted per payment per poll,
/// bounding worst-case work for adversarial routers.
const MAX_PROPOSALS_PER_POLL: usize = 64;

/// Stands for "nothing to wait on" in [`PendingEntry::wait`].
const NO_WAIT: u32 = u32::MAX;

/// Stands for "finished at this poll" in [`PendingEntry::payment`].
const GONE: u32 = u32::MAX;

/// One slot of the retry queue.
#[derive(Debug, Clone, Copy)]
struct PendingEntry {
    payment: u32,
    /// What the payment waits on, or [`NO_WAIT`]; the engine's mode says
    /// which.
    /// - Lockstep: the path its last attempt was pinned to. The router
    ///   promised [`Router::pins_single_path`] and proposed exactly this
    ///   path for the whole remainder. While the pin stands, a poll skips
    ///   the payment if the path cannot carry its smallest chunk. Unpinned
    ///   when no promise was given, or since the router's last fault
    ///   outcome, ack or topology callback (ordinary lock outcomes, which
    ///   every attempt reports, leave it standing).
    /// - Hop by hop, which never pins: the router's
    ///   [`Router::idle_token`] for the payment's pair. A poll skips the
    ///   payment while [`Router::proposes_nothing`] holds for it.
    ///
    /// [`Router::pins_single_path`]: crate::router::Router::pins_single_path
    /// [`Router::idle_token`]: crate::router::Router::idle_token
    /// [`Router::proposes_nothing`]: crate::router::Router::proposes_nothing
    wait: u32,
    /// While `least` is non-zero: a hop of the pinned path whose direction
    /// had less available than `least` when the payment was last tested.
    witness: Hop,
    /// The smallest chunk of the payment's unassigned amount when
    /// `witness` was found, in drops; zero when there is no witness. A
    /// chunk past 32 bits (an MTU above 4,294 XRP) is not kept, so such
    /// an entry is tested in full at every poll.
    least: u32,
}

const _: () = assert!(std::mem::size_of::<PendingEntry>() == 16);

impl PendingEntry {
    fn new(pid: usize, wait: Option<u32>) -> Self {
        PendingEntry {
            payment: u32::try_from(pid).expect("payment ids fit in 32 bits"),
            wait: wait.unwrap_or(NO_WAIT),
            witness: Hop::new(ChannelId(0), Direction::Forward),
            least: 0,
        }
    }

    fn pid(&self) -> usize {
        self.payment as usize
    }

    /// The pinned path (lockstep mode).
    fn pinned(&self) -> Option<PathId> {
        (self.wait != NO_WAIT).then_some(PathId(self.wait))
    }

    /// Waits on `wait` (or nothing), and with it drops the witness.
    fn rewait(&mut self, wait: Option<u32>) {
        self.wait = wait.unwrap_or(NO_WAIT);
        self.least = 0;
    }

    /// Keeps `hop` as the witness that the pinned path cannot carry
    /// `least` (dropped when `least` does not fit the entry).
    fn set_witness(&mut self, (hop, least): (Hop, Amount)) {
        self.witness = hop;
        self.least = u32::try_from(least.drops()).unwrap_or(0);
    }

    /// True while the entry holds a witness.
    fn has_witness(&self) -> bool {
        self.least != 0
    }
}

/// The retry queue both modes poll.
pub(super) struct RetryQueue {
    /// Incomplete non-atomic payments awaiting the next poll, in the
    /// order they joined.
    pending: Vec<PendingEntry>,
    /// `in_pending[pid]` ⇔ `pid ∈ pending` — O(1) membership for the
    /// drop/failback paths that re-queue payments.
    in_pending: Vec<bool>,
    /// A poll's attempt order, kept between polls: `(policy key, payment,
    /// position in pending)` of every payment it re-offers.
    order: Vec<((u64, u64), usize, u32)>,
    /// The expiry cursor: payments `0..past_deadline` are past their
    /// deadline as of the last poll. Deadlines are non-decreasing in
    /// payment id (asserted at each arrival), so those are a prefix.
    past_deadline: usize,
}

impl RetryQueue {
    pub(super) fn new(n_payments: usize) -> Self {
        RetryQueue {
            pending: Vec::new(),
            in_pending: Vec::with_capacity(n_payments),
            order: Vec::new(),
            past_deadline: 0,
        }
    }

    /// Extends the membership flags for a newly arrived payment.
    pub(super) fn note_arrival(&mut self) {
        self.in_pending.push(false);
    }

    /// Appends `pid`, waiting on `wait`, to the retry queue unless
    /// already present.
    pub(super) fn push(&mut self, pid: usize, wait: Option<u32>) {
        if !self.in_pending[pid] {
            self.in_pending[pid] = true;
            self.pending.push(PendingEntry::new(pid, wait));
        }
    }

    /// Forgets every pinned path, and with them every witness. Called
    /// wherever lockstep mode hands the router a callback that ends its
    /// `pins_single_path` promise (fault and griefing outcomes, topology
    /// updates — rare, so a sweep is fine). Hop-by-hop entries hold
    /// tokens instead, which name a pair and are tested afresh at every
    /// poll: that mode never sweeps.
    pub(super) fn forget_pins(&mut self) {
        for e in &mut self.pending {
            e.rewait(None);
        }
    }

    /// Moves the expiry cursor up to `now`: afterwards, a payment is past
    /// its deadline exactly when its id is below the cursor.
    fn advance_expiry(&mut self, payments: &[PaymentState], now: SimTime) -> usize {
        while payments
            .get(self.past_deadline)
            .is_some_and(|p| now > p.deadline)
        {
            self.past_deadline += 1;
        }
        self.past_deadline
    }
}

#[cfg(test)]
impl Simulation {
    /// The retry queue, in order: each payment with the witness hop it
    /// holds, if any.
    pub(super) fn pending_witnesses(&self) -> Vec<(usize, Option<Hop>)> {
        let witness = |e: &PendingEntry| e.has_witness().then_some(e.witness);
        self.retry_queue
            .pending
            .iter()
            .map(|e| (e.pid(), witness(e)))
            .collect()
    }
}

impl Simulation {
    /// The first hop of the entry's pinned path that cannot carry the
    /// smallest chunk of what the payment has unassigned, with that
    /// chunk: re-offering the payment would provably lock nothing (a
    /// closed hop has nothing available). `None` when unpinned, or when
    /// every hop can carry the chunk. Lockstep mode only.
    fn blocking_hop(&self, e: &PendingEntry) -> Option<(Hop, Amount)> {
        let path = e.pinned()?;
        let least = self.payments[e.pid()]
            .unassigned()
            .smallest_mtu_chunk(self.config.mtu);
        let channels = &self.net.channels;
        let hop = self.net.paths.map_entry(path, |entry| {
            entry
                .hops()
                .iter()
                .copied()
                .find(|hop| channels[hop.channel().index()].available(hop.direction()) < least)
        })?;
        Some((hop, least))
    }

    /// True while the entry's witness still blocks: its direction has less
    /// available than the chunk it blocked when found.
    fn witness_blocks(&self, e: &PendingEntry) -> bool {
        let (c, dir) = e.witness.parts();
        e.has_witness() && self.net.channels[c.index()].available(dir).drops() < u64::from(e.least)
    }

    /// True while the router promises that the entry's pair gets no
    /// proposal: hop-by-hop mode's test, which reads no payment.
    fn idle(&self, e: &PendingEntry) -> bool {
        e.wait != NO_WAIT && self.router.proposes_nothing(e.wait, &self.net.view())
    }

    /// Samples telemetry when due, then re-offers the retry queue in
    /// scheduling-policy order; schedules the next poll if one fits the
    /// horizon.
    pub(super) fn on_poll(&mut self, horizon: SimTime) {
        self.sample_if_due();
        let t0 = self.obs.profiler.start();
        let now = self.net.now;
        let past_deadline = self.retry_queue.advance_expiry(&self.payments, now);
        // Hop by hop, an entry waits on a router token; in lockstep mode
        // on a pin.
        let tokens = self.hop_by_hop();
        // One pass over the queue expires overdue payments, drops
        // finished ones, and lists the payments whose attempt can do
        // something: one whose router promises to propose nothing, or
        // one pinned to a path that cannot carry its smallest chunk, is
        // skipped (see the module docs for why that is exact).
        //
        // Scheduling order: one key shape serves every policy (`!` reverses
        // an unsigned order). Each is a strict total order (payment-id
        // tie-break), so the unstable sort is deterministic, and sorting
        // the survivors alone leaves them in the order a sort of the
        // whole queue would. Keys are computed once, here, not per
        // comparison.
        let policy = self.config.scheduling;
        let mut order = std::mem::take(&mut self.retry_queue.order);
        order.clear();
        let mut pending = std::mem::take(&mut self.retry_queue.pending);
        let mut kept = 0;
        for i in 0..pending.len() {
            let mut e = pending[i];
            let pid = e.pid();
            let waits = pid >= past_deadline
                && if tokens {
                    self.idle(&e)
                } else {
                    self.witness_blocks(&e)
                };
            if waits {
                // Still waiting, before its deadline: kept without
                // reading the payment or its path.
                debug_assert!(
                    {
                        let p = &self.payments[pid];
                        p.active()
                            && now <= p.deadline
                            && (tokens
                                || self
                                    .blocking_hop(&e)
                                    .is_some_and(|(_, least)| least.drops() == u64::from(e.least)))
                    },
                    "payment {pid}: a waiting payment is active, and blocked where its witness is"
                );
                pending[kept] = e;
                kept += 1;
                continue;
            }
            let p = &mut self.payments[pid];
            if !p.completed && now > p.deadline && !p.unassigned().is_zero() {
                p.expired = true;
                self.obs.trace(now, || TraceEventKind::PaymentExpired {
                    payment: PaymentId(pid as u64),
                    remaining: p.unassigned(),
                    rejected: false,
                });
            }
            if !p.active() {
                self.retry_queue.in_pending[pid] = false;
                continue;
            }
            // A token that failed the test above fails it until an
            // attempt of this poll runs.
            let blocked = if tokens { None } else { self.blocking_hop(&e) };
            match blocked {
                Some(blocked) => e.set_witness(blocked),
                None => {
                    e.least = 0;
                    let p = &self.payments[pid];
                    let (remaining, arrival) = (p.unassigned().drops(), p.arrival.micros());
                    let key = match policy {
                        SchedulingPolicy::Srpt => (remaining, arrival),
                        SchedulingPolicy::Fifo => (arrival, 0),
                        SchedulingPolicy::LargestRemaining => (!remaining, arrival),
                    };
                    order.push((key, pid, kept as u32));
                }
            }
            pending[kept] = e;
            kept += 1;
        }
        pending.truncate(kept);
        self.retry_queue.pending = pending;
        order.sort_unstable();
        // Attempts only append to the queue (queueing-mode drops may
        // re-queue a payment), so the positions stay valid.
        let mut finished = false;
        for &(_, pid, i) in &order {
            let i = i as usize;
            // An attempt changes only its own payment, so this one is as
            // active as the scan found it.
            debug_assert!(self.payments[pid].active());
            // Tested again at its turn: an earlier attempt of this poll
            // may have taken what the scan saw.
            let e = self.retry_queue.pending[i];
            if tokens {
                if self.idle(&e) {
                    continue;
                }
            } else if let Some(blocked) = self.blocking_hop(&e) {
                self.retry_queue.pending[i].set_witness(blocked);
                continue;
            }
            self.metrics.retry();
            let wait = self.attempt_payment(pid);
            // Only an attempt can finish a payment the scan kept.
            let e = &mut self.retry_queue.pending[i];
            if self.payments[pid].active() {
                e.rewait(wait);
            } else {
                e.payment = GONE;
                self.retry_queue.in_pending[pid] = false;
                finished = true;
            }
        }
        self.retry_queue.order = order;
        if finished {
            self.retry_queue.pending.retain(|e| e.payment != GONE);
        }
        self.obs.profiler.stop(Phase::Routing, t0);
        let next = now + POLL_INTERVAL;
        if next <= horizon {
            self.events.schedule(next, EventKind::Poll);
        }
    }

    /// One routing attempt for the payment's currently unassigned amount.
    /// Returns what the payment waits on until its next attempt (see
    /// [`PendingEntry::wait`]): the path the attempt was pinned to, or
    /// the router's token for its pair, if the router gave one.
    pub(super) fn attempt_payment(&mut self, pid: usize) -> Option<u32> {
        let p = &self.payments[pid];
        if !p.active() {
            return None;
        }
        let unassigned = p.unassigned();
        let req = RouteRequest {
            payment: PaymentId(pid as u64),
            src: p.src,
            dst: p.dst,
            remaining: unassigned,
            total: p.total,
            mtu: self.config.mtu,
            attempt: p.attempts,
        };
        self.payments[pid].attempts += 1;
        let proposals = self.router.route(&req, &self.net.view());
        for prop in proposals.iter().take(MAX_PROPOSALS_PER_POLL) {
            self.obs
                .trace(self.net.now, || TraceEventKind::RouteProposal {
                    payment: req.payment,
                    attempt: req.attempt,
                    path: prop.path,
                    amount: prop.amount,
                });
        }
        let hop_by_hop = self.hop_by_hop();
        // Hop-by-hop units report acks, which end any pin before it could
        // be used: that mode waits on the router's token instead.
        let wait = match proposals.as_slice() {
            _ if hop_by_hop => self.router.idle_token(&req),
            &[only] if only.amount == unassigned && self.router.pins_single_path() => {
                Some(only.path.0)
            }
            _ => None,
        };
        let atomic = self.router.atomic();
        let mtu = self.config.mtu;
        let mut budget = unassigned;
        // Settle batches scheduled in this attempt: (path, amount, settle
        // event id), kept for atomic rollback only.
        let mut batches: Vec<(PathId, Amount, usize)> = Vec::new();
        let mut aborted = false;

        for prop in proposals.into_iter().take(MAX_PROPOSALS_PER_POLL) {
            if budget.is_zero() {
                break;
            }
            {
                let entry = self.net.paths.entry(prop.path);
                if entry.hop_count() == 0 || entry.source() != self.payments[pid].src {
                    continue;
                }
            }
            let want = prop.amount.min(budget);
            if hop_by_hop {
                for unit in want.mtu_chunks(mtu) {
                    let accepted = self.inject_unit(pid, unit, prop.path);
                    if accepted {
                        budget -= unit;
                    }
                    self.report_outcome(pid, prop.path, unit, 1, accepted, None);
                }
                continue;
            }
            // What this proposal locks settles as one batch.
            let (locked, abort) = self.lock_units(pid, prop.path, want, atomic);
            budget -= locked;
            if !locked.is_zero() {
                let event_id = self.schedule_settle(pid, prop.path, locked);
                if atomic {
                    batches.push((prop.path, locked, event_id));
                }
            }
            if abort {
                aborted = true;
                break;
            }
        }

        if atomic && (aborted || !budget.is_zero()) {
            // All-or-nothing: cancel every batch this attempt scheduled
            // and return its funds (refunds add up, so one per batch; the
            // trace records one per unit, as it recorded the locks).
            for (path, amount, event_id) in batches {
                self.events.cancel(event_id);
                let entry = self.net.paths.entry(path);
                self.refund_path(pid, &entry, amount);
                for unit in amount.mtu_chunks(mtu) {
                    self.record_refund(pid, unit, path, None, None);
                }
            }
            self.payments[pid].expired = true;
        }
        wait
    }

    /// Locks a proposal's `want` on `path`: its full units in one pass
    /// ([`Self::lock_full_units`]), then the partial last one, if any, on
    /// its own. Counts, traces and reports to the router (as counts, see
    /// [`UnitOutcome`]) exactly what locking unit by unit would, but for
    /// the full units after a failed one: counted and reported, not
    /// traced. Returns what locked, and whether an all-or-nothing scheme
    /// must abort.
    fn lock_units(
        &mut self,
        pid: usize,
        path: PathId,
        want: Amount,
        atomic: bool,
    ) -> (Amount, bool) {
        let mtu = self.config.mtu;
        let full = want.drops() / mtu.drops();
        let fit = self.lock_full_units(pid, path, full);
        let mut locked = mtu * fit;
        if fit > 0 {
            self.report_outcome(pid, path, mtu, fit, true, None);
        }
        if fit < full {
            if atomic {
                self.report_outcome(pid, path, mtu, 1, false, None);
                return (locked, true);
            }
            // The unit that did not fit rolled back, leaving every
            // balance as it was, so each later full unit would fail the
            // same way: counted, not tried.
            self.metrics.unit_lock_failures(full - fit - 1);
            self.report_outcome(pid, path, mtu, full - fit, false, None);
        }
        let partial = want - mtu * full;
        if !partial.is_zero() {
            if self.try_lock_unit(pid, partial, path) {
                locked += partial;
            } else if atomic {
                return (locked, true);
            }
        }
        (locked, false)
    }

    /// Locks as many of `full` full-MTU units on `path` as every hop can
    /// carry — `fit` — with one lock per hop, and records what locking
    /// them one by one would: `fit` locked units, then, if `fit < full`,
    /// one unit whose lock failed and rolled back. Returns `fit`.
    fn lock_full_units(&mut self, pid: usize, path: PathId, full: u64) -> u64 {
        if full == 0 {
            return 0;
        }
        let mtu = self.config.mtu;
        let channels = &mut self.net.channels;
        let (fit, hops) = self.net.paths.map_entry(path, |entry| {
            let hops = entry.hops();
            // Each unit takes one MTU per crossing, so a direction the
            // path crosses m times carries ⌊available / (m · mtu)⌋ units
            // (in-tree routers emit loop-free paths, where m = 1, but the
            // path table does not require it).
            let fit = hops
                .iter()
                .map(|&hop| {
                    let ch = &channels[hop.channel().index()];
                    match ch.available(hop.direction()).drops() / mtu.drops() {
                        0 => 0,
                        units => units / hops.iter().filter(|&&h| h == hop).count() as u64,
                    }
                })
                .min()
                .unwrap_or(0)
                .min(full);
            if fit > 0 {
                for hop in hops {
                    let ch = &mut channels[hop.channel().index()];
                    let locked = ch.lock(hop.direction(), mtu * fit);
                    debug_assert!(locked, "every hop carries the units that fit");
                }
            }
            (fit, hops.len())
        });
        let lock = |ok| {
            move || TraceEventKind::LockOutcome {
                payment: PaymentId(pid as u64),
                path,
                amount: mtu,
                ok,
            }
        };
        if fit > 0 {
            self.metrics.units_locked(hops, fit);
            self.obs.trace_n(self.net.now, fit, lock(true));
        }
        if fit < full {
            self.metrics.unit_lock(hops, false);
            self.obs.trace(self.net.now, lock(false));
        }
        fit
    }

    /// Attempts to lock one unit along the path, rolling back on the
    /// first hop that cannot carry it, and reports the outcome; returns
    /// whether it locked.
    fn try_lock_unit(&mut self, pid: usize, amount: Amount, path: PathId) -> bool {
        let entry = self.net.paths.entry(path);
        let hops = entry.hops();
        let channels = &mut self.net.channels;
        let failed_at = hops
            .iter()
            .position(|hop| !channels[hop.channel().index()].lock(hop.direction(), amount));
        for (c, dir) in failed_at
            .map_or(&[][..], |n| &hops[..n])
            .iter()
            .map(|hop| hop.parts())
        {
            channels[c.index()].refund(dir, amount);
        }
        let ok = failed_at.is_none();
        self.metrics.unit_lock(hops.len(), ok);
        self.obs
            .trace(self.net.now, || TraceEventKind::LockOutcome {
                payment: PaymentId(pid as u64),
                path,
                amount,
                ok,
            });
        self.report_outcome(pid, path, amount, 1, ok, None);
        ok
    }

    /// Puts `amount`, locked on `path` by one proposal, in flight and
    /// schedules its settlement Δ later as one batch; returns the settle
    /// event's id.
    fn schedule_settle(&mut self, pid: usize, path: PathId, amount: Amount) -> usize {
        self.payments[pid].inflight += amount;
        self.events.schedule(
            self.net.now + self.config.confirmation_delay,
            EventKind::Settle {
                payment: pid,
                amount,
                path,
            },
        )
    }

    /// Tells the router how `units` units of `amount` each fared.
    fn report_outcome(
        &mut self,
        pid: usize,
        path: PathId,
        amount: Amount,
        units: u64,
        locked: bool,
        fault: Option<DropReason>,
    ) {
        let outcome = UnitOutcome {
            payment: PaymentId(pid as u64),
            path,
            amount,
            units,
            locked,
            fault,
        };
        self.router.on_unit_outcome(&outcome, &self.net.view());
    }

    /// Records a lockstep refund of `amount` on `path`: with a `reason`
    /// a drop (failing at the `failing` channel, with the balances it
    /// left there, if one hop failed), without one the rollback of an
    /// all-or-nothing payment, traced but not a drop.
    fn record_refund(
        &mut self,
        pid: usize,
        amount: Amount,
        path: PathId,
        reason: Option<DropReason>,
        failing: Option<(ChannelId, [u64; 2])>,
    ) {
        let attempts = self.payments[pid].attempts;
        let refund = || TraceEventKind::UnitRefunded {
            payment: PaymentId(pid as u64),
            amount,
            path,
            attempts,
            reason,
        };
        match reason {
            Some(reason) => {
                let (channel, balances) = (failing.map(|f| f.0), failing.map(|f| f.1));
                self.record_drop(pid, path, channel, balances, reason, refund)
            }
            None => self.obs.trace(self.net.now, refund),
        }
    }

    /// Returns canceled or refunded funds to every hop of their path and
    /// takes them out of the payment's in-flight total.
    fn refund_path(&mut self, pid: usize, entry: &PathEntry, amount: Amount) {
        for (c, dir) in entry.hops().iter().map(|hop| hop.parts()) {
            self.net.channels[c.index()].refund(dir, amount);
        }
        self.payments[pid].inflight -= amount;
    }

    /// A settle batch comes due: takes each unit's verdict in lock order,
    /// and settles each run of delivering units at once (see
    /// [`EventKind::Settle`]). A pending run settles before the next
    /// refund, so balances, fault draws and trace records come in the
    /// order settling unit by unit gives them.
    pub(super) fn on_settle(&mut self, pid: usize, amount: Amount, path: PathId) {
        let entry = self.net.paths.entry(path);
        let mtu = self.config.mtu;
        let mut run = Run::empty(mtu);
        // What is left of the batch, from its next unit on.
        let mut left = amount;
        while !left.is_zero() {
            let unit = left.min(mtu);
            match self.settle_verdict(pid, &entry) {
                // Only a fault draw tells one unit's verdict from the
                // next's (a delivery changes none of the rest): without a
                // fault plan, every unit left delivers with this one.
                None => {
                    let delivered = if self.faults.is_some() { unit } else { left };
                    run.add(delivered);
                    left -= delivered;
                }
                Some((reason, retry)) => {
                    self.deliver_run(pid, path, &entry, run);
                    run = Run::empty(mtu);
                    self.refund_settling(pid, unit, path, &entry, reason, retry);
                    left -= unit;
                }
            }
        }
        self.deliver_run(pid, path, &entry, run);
    }

    /// Settles a run of a lockstep batch, if it holds any unit.
    fn deliver_run(&mut self, pid: usize, path: PathId, entry: &PathEntry, run: Run) {
        if run.units() > 0 {
            let payment = PaymentId(pid as u64);
            self.deliver(pid, entry, run, |amount| TraceEventKind::UnitSettled {
                payment,
                amount,
                path,
            });
        }
    }

    /// The verdict on one settling unit, drawn in lock order: `None`
    /// delivers it; `Some((reason, retry))` refunds it (see
    /// [`Self::refund_settling`]).
    fn settle_verdict(
        &mut self,
        pid: usize,
        entry: &PathEntry,
    ) -> Option<(Option<DropReason>, bool)> {
        let p = &self.payments[pid];
        // A unit whose payment deadline passed between lock and settle is
        // a real drop (counted and traced, exactly like the queueing-mode
        // expiry path); the tail of an atomic rollback is a refund, not a
        // drop.
        let deadline_expired = self.net.now > p.deadline;
        if p.expired || deadline_expired {
            Some((deadline_expired.then_some(DropReason::Expired), false))
        } else if p.griefing {
            // Overload griefing: the receiver withholds the key — a stuck
            // unit driven by the overload plan rather than a fault draw
            // (which it preempts).
            Some((Some(DropReason::HopTimeout), true))
        } else if let Some(reason) = self.faults.as_mut().and_then(|f| f.lockstep_verdict(entry)) {
            self.metrics.fault_injected();
            Some((Some(reason), true))
        } else {
            None
        }
    }

    /// Refunds a settling unit instead of delivering it: every hop gets
    /// its funds back and the payment's in-flight total shrinks. With a
    /// `reason` the refund is a drop — counted, recorded and traced;
    /// without one it is the tail of an atomic rollback, traced but not a
    /// drop. `retry` separates a failure the sender can route around
    /// (griefing, a fault: the router hears of it as a fault outcome,
    /// which ends any `pins_single_path` promise, and the remainder is
    /// re-queued) from the end of the payment (expiry).
    fn refund_settling(
        &mut self,
        pid: usize,
        amount: Amount,
        path: PathId,
        entry: &PathEntry,
        reason: Option<DropReason>,
        retry: bool,
    ) {
        self.refund_path(pid, entry, amount);
        self.payments[pid].expired |= !retry;
        // Whole-path lockstep refund: no single failing hop.
        self.record_refund(pid, amount, path, reason, None);
        if retry {
            self.report_outcome(pid, path, amount, 1, true, reason);
            self.retry_queue.forget_pins();
            self.requeue(pid, None);
        }
    }

    /// A churn close of `channel`: cancels, in event-slot order, every
    /// pending settle whose path crosses it and unwinds its locks. The
    /// value returns to the payment's unassigned pool, except that
    /// all-or-nothing schemes cannot partially retry and cancel outright.
    pub(super) fn fail_back_settles(&mut self, channel: ChannelId) {
        let atomic = self.router.atomic();
        let paths = &self.net.paths;
        let crosses = |e: &PathEntry| e.hops().iter().any(|hop| hop.channel() == channel);
        // Canceled in place: the calendar entry reclaims the slot.
        let hit = self.events.cancel_where(|kind| match *kind {
            EventKind::Settle {
                payment,
                amount,
                path,
            } if paths.map_entry(path, crosses) => Some((payment, amount, path)),
            _ => None,
        });
        let mtu = self.config.mtu;
        let dirs = [Direction::Forward, Direction::Backward];
        for (payment, amount, path) in hit {
            let entry = self.net.paths.entry(path);
            self.payments[payment].churn_hit = true;
            // Every hop refunds the batch at once. Each unit is its own
            // drop, and its record states the closed channel's balances
            // as its own refund left them: the batch's, less what the
            // units after it refund there (a unit adds itself to a side
            // once per crossing). Counted in both the total and the
            // churn-specific drop counters, so `units_dropped_churn <=
            // units_dropped` holds in every engine mode.
            self.refund_path(payment, &entry, amount);
            let crossings = dirs.map(|d| {
                entry
                    .hops()
                    .iter()
                    .filter(|&&h| h == Hop::new(channel, d))
                    .count()
            });
            let ch = &self.net.channels[channel.index()];
            let refunded = dirs.map(|d| ch.balance(d).drops());
            let mut later = amount;
            for unit in amount.mtu_chunks(mtu) {
                later -= unit;
                let balances = [0, 1].map(|d| refunded[d] - later.drops() * crossings[d] as u64);
                self.metrics.unit_dropped_churn();
                let reason = Some(DropReason::ChannelClosed);
                self.record_refund(payment, unit, path, reason, Some((channel, balances)));
            }
            if atomic {
                self.payments[payment].expired = true;
            } else {
                self.requeue(payment, None);
            }
        }
    }
}
