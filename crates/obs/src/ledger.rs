//! The balance replay: every channel's funds rebuilt from the event
//! stream alone.
//!
//! The trace is a ledger: each record that moves funds names where — a
//! lockstep lock, settle or refund its path, a hop-by-hop forward its
//! channel and hop, a drop its unit (whose path and locked hops the
//! replay remembers), a churn change the channel's state after it, a
//! deposit its side and value. Seeded with each channel's opening
//! balances and given a `PathId → &[Hop]` lookup, [`LedgerReplay`]
//! follows the records and holds, per channel and direction, the
//! balance and the value locked in flight. It sees no engine type and no
//! topology.
//!
//! Each record it applies comes back as a [`Fact`] — a drop with the
//! failing channel's balances, a delivery with its bottleneck channel, a
//! queue wait — the same facts the engine hands its drop forensics and
//! hotspot attribution, but rebuilt from the trace alone, so an auditor
//! can check what those sinks recorded against a second source. (The
//! engine does not run the replay: following every lock and settle costs
//! more than the sinks' own hooks, which only act at drops, deliveries
//! and queue exits.)
//!
//! The replay trusts the stream; an auditor checks it. Every move keeps
//! a channel's balances and locks summing to its capacity, except a
//! debit past zero, which stops at zero — so an overdraft shows as a
//! channel holding more than its capacity.

use crate::forensics::DropRecord;
use crate::trace::TraceEventKind;
use spider_types::{Amount, ChannelId, DropReason, Hop, IdHashMap, PathId, SimDuration};

/// One channel's funds as the ledger tells them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChannelFunds {
    /// Escrowed funds.
    pub capacity: Amount,
    /// What each side holds, by `Direction::index` (frozen, not
    /// spendable, while the channel is closed).
    pub balance: [Amount; 2],
    /// Value locked for units travelling in each direction.
    pub locked: [Amount; 2],
    /// Closed by churn.
    pub closed: bool,
}

/// What one applied record means to the forensics and the attribution.
#[derive(Debug, Clone, PartialEq)]
pub enum Fact {
    /// Nothing a sink consumes.
    Quiet,
    /// A unit (or an admission-rejected payment) was dropped; the record
    /// carries the failing channel's balances after its refunds.
    Drop(DropRecord),
    /// A unit delivered. Its bottleneck is the channel with the least
    /// available after the settle in the direction travelled, lowest id
    /// on ties (`None` only for an empty path).
    Delivered {
        /// The bottleneck channel.
        bottleneck: Option<ChannelId>,
    },
    /// A unit left `channel`'s queue after waiting there `secs` (> 0).
    QueueWait {
        /// The channel.
        channel: ChannelId,
        /// Seconds queued.
        secs: f64,
    },
}

/// A hop-by-hop unit between its injection and its fate.
#[derive(Debug, Clone, Copy)]
struct Unit {
    payment: u64,
    amount: Amount,
    /// When it joined the queue it waits in.
    enqueued: Option<u64>,
    path: PathId,
    /// Hops locked so far.
    locked: u32,
}

/// What [`LedgerReplay::walk`] does at each hop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Move {
    /// Balance → lock, in the direction travelled.
    Lock,
    /// Lock → the receiving side's balance.
    Settle,
    /// Lock → back to the sender's balance.
    Refund,
}

/// Per-channel balances and locks replayed from the event stream.
#[derive(Debug, Clone)]
pub struct LedgerReplay {
    channels: Vec<ChannelFunds>,
    /// Hop-by-hop units in flight, by trace id. Only the live ones: a
    /// window from the oldest would span every unit a long queue wait
    /// or griefing hold overlaps, and miss the cache on each record.
    units: IdHashMap<u64, Unit>,
    /// The channel the latest close record closed: a lockstep
    /// channel-closed refund is the failback of its close.
    closing: Option<ChannelId>,
}

impl LedgerReplay {
    /// A replay of channels opening with `balances` (forward side,
    /// backward side) each, in dense-id order, nothing locked.
    pub fn new(balances: impl IntoIterator<Item = (Amount, Amount)>) -> Self {
        let funds = |(fwd, bwd)| ChannelFunds {
            capacity: fwd + bwd,
            balance: [fwd, bwd],
            locked: [Amount::ZERO; 2],
            closed: false,
        };
        LedgerReplay {
            channels: balances.into_iter().map(funds).collect(),
            units: IdHashMap::default(),
            closing: None,
        }
    }

    /// Every channel's funds now, in dense-id order.
    pub fn channels(&self) -> &[ChannelFunds] {
        &self.channels
    }

    /// Applies one record at `t_us`; `hops` resolves the path ids the
    /// records name.
    pub fn apply<'a>(
        &mut self,
        t_us: u64,
        kind: &TraceEventKind,
        hops: impl Fn(PathId) -> &'a [Hop],
    ) -> Fact {
        match *kind {
            TraceEventKind::LockOutcome {
                path,
                amount,
                ok: true,
                ..
            } => {
                self.walk(hops(path), amount, Move::Lock);
            }
            TraceEventKind::UnitSettled { amount, path, .. } => {
                let bottleneck = self.walk(hops(path), amount, Move::Settle);
                return Fact::Delivered { bottleneck };
            }
            TraceEventKind::UnitRefunded {
                payment,
                amount,
                path,
                attempts,
                reason,
            } => {
                let hops = hops(path);
                self.walk(hops, amount, Move::Refund);
                if let Some(reason) = reason {
                    // A churn failback: its failing hop is the closing
                    // channel; other refunds fail the whole path.
                    let closing = (reason == DropReason::ChannelClosed).then_some(self.closing);
                    let channel = closing
                        .flatten()
                        .filter(|&c| hops.iter().any(|h| h.channel() == c));
                    let rec = self.drop_record(t_us, (payment.0, path), channel, attempts, reason);
                    return Fact::Drop(rec);
                }
            }
            TraceEventKind::UnitInjected {
                payment,
                unit,
                path,
                amount,
            } => {
                let u = Unit {
                    payment: payment.0,
                    amount,
                    enqueued: None,
                    path,
                    locked: 0,
                };
                self.units.insert(unit, u);
            }
            TraceEventKind::UnitEnqueued { unit, .. } => {
                if let Some(u) = self.units.get_mut(&unit) {
                    u.enqueued = Some(t_us);
                }
            }
            TraceEventKind::UnitForwarded { unit, channel, .. } => {
                let Some(u) = self.units.get_mut(&unit) else {
                    return Fact::Quiet;
                };
                let (path, at, amount) = (u.path, u.locked as usize, u.amount);
                let waited = u.enqueued.take().map_or(0, |since| t_us - since);
                u.locked += 1;
                if let Some(&hop) = hops(path).get(at) {
                    self.walk(&[hop], amount, Move::Lock);
                }
                if waited > 0 {
                    let secs = SimDuration::from_micros(waited).as_secs_f64();
                    return Fact::QueueWait { channel, secs };
                }
            }
            TraceEventKind::UnitDelivered { unit } => {
                let Some(u) = self.units.remove(&unit) else {
                    return Fact::Quiet;
                };
                let hops = hops(u.path);
                let bottleneck = self.walk(
                    &hops[..(u.locked as usize).min(hops.len())],
                    u.amount,
                    Move::Settle,
                );
                return Fact::Delivered { bottleneck };
            }
            TraceEventKind::UnitDropped {
                unit,
                reason,
                attempts,
            } => {
                let Some(u) = self.units.remove(&unit) else {
                    return Fact::Quiet;
                };
                let hops = hops(u.path);
                let locked = (u.locked as usize).min(hops.len());
                self.walk(&hops[..locked], u.amount, Move::Refund);
                // The failing hop is the one it waited at or travelled
                // toward; a unit that had locked its whole path has none.
                let channel = hops.get(locked).map(|h| h.channel());
                let rec = self.drop_record(t_us, (u.payment, u.path), channel, attempts, reason);
                return Fact::Drop(rec);
            }
            TraceEventKind::PaymentExpired {
                payment,
                rejected: true,
                ..
            } => {
                // Rejected before any route was proposed: the reserved
                // no-path id, no channel, no attempt.
                let no_path = (payment.0, PathId(u32::MAX));
                let reason = DropReason::AdmissionRejected;
                return Fact::Drop(self.drop_record(t_us, no_path, None, 0, reason));
            }
            TraceEventKind::ChannelUpdated {
                channel,
                closed,
                capacity,
                fwd,
                bwd,
            } => {
                // A close or reopen moves no funds; a resize sets new
                // balances beside the same locks.
                let f = &mut self.channels[channel.index()];
                (f.closed, f.capacity, f.balance) = (closed, capacity, [fwd, bwd]);
                if closed {
                    self.closing = Some(channel);
                }
            }
            TraceEventKind::Deposit {
                channel,
                dir,
                amount,
            } => {
                let f = &mut self.channels[channel.index()];
                f.balance[dir.index()] += amount;
                f.capacity += amount;
            }
            _ => {}
        }
        Fact::Quiet
    }

    /// Moves `amount` at every hop of `hops`; returns the bottleneck (see
    /// [`Fact::Delivered`]).
    fn walk(&mut self, hops: &[Hop], amount: Amount, how: Move) -> Option<ChannelId> {
        let mut least: Option<(Amount, ChannelId)> = None;
        for &hop in hops {
            let (c, d) = hop.parts();
            let f = &mut self.channels[c.index()];
            let (from, to) = match how {
                Move::Lock => (&mut f.balance[d.index()], &mut f.locked[d.index()]),
                Move::Settle => (
                    &mut f.locked[d.index()],
                    &mut f.balance[d.reverse().index()],
                ),
                Move::Refund => (&mut f.locked[d.index()], &mut f.balance[d.index()]),
            };
            *from = from.saturating_sub(amount);
            *to += amount;
            let available = if f.closed {
                Amount::ZERO
            } else {
                f.balance[d.index()]
            };
            least = Some(least.map_or((available, c), |l| l.min((available, c))));
        }
        least.map(|(_, c)| c)
    }

    fn drop_record(
        &self,
        t_us: u64,
        (payment, path): (u64, PathId),
        channel: Option<ChannelId>,
        attempts: u32,
        reason: DropReason,
    ) -> DropRecord {
        let [fwd, bwd] = channel.map_or([Amount::ZERO; 2], |c| self.channels[c.index()].balance);
        DropRecord {
            t_us,
            payment,
            path: u64::from(path.0),
            channel: channel.map(|c| c.0),
            bal_fwd_drops: fwd.drops(),
            bal_rev_drops: bwd.drops(),
            attempts,
            reason,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spider_types::{Direction, PaymentId};

    /// Two channels of 100 drops a side; path 0 crosses both forward.
    fn replay() -> (LedgerReplay, Vec<Hop>) {
        let fwd = |c| Hop::new(ChannelId(c), Direction::Forward);
        let each = (Amount::from_drops(100), Amount::from_drops(100));
        (LedgerReplay::new([each, each]), vec![fwd(0), fwd(1)])
    }

    fn lock(amount: u64) -> TraceEventKind {
        TraceEventKind::LockOutcome {
            payment: PaymentId(0),
            path: PathId(0),
            amount: Amount::from_drops(amount),
            ok: true,
        }
    }

    fn settle(amount: u64) -> TraceEventKind {
        TraceEventKind::UnitSettled {
            payment: PaymentId(0),
            amount: Amount::from_drops(amount),
            path: PathId(0),
        }
    }

    /// A lock, then its settle: funds cross both hops, and the
    /// bottleneck is the lower id of two equal sides.
    #[test]
    fn lockstep_settle_moves_funds_across_the_path() {
        let (mut r, hops) = replay();
        let hops = |_| hops.as_slice();
        assert_eq!(r.apply(1, &lock(30), hops), Fact::Quiet);
        let locked = [Amount::from_drops(30), Amount::ZERO];
        assert_eq!(r.channels()[1].locked, locked);
        let bottleneck = Some(ChannelId(0));
        assert_eq!(
            r.apply(2, &settle(30), hops),
            Fact::Delivered { bottleneck }
        );
        let want = [Amount::from_drops(70), Amount::from_drops(130)];
        assert!(r.channels().iter().all(|f| f.balance == want));
    }

    /// A hop-by-hop unit queued 250 ms, forwarded once, then dropped: the
    /// wait is charged to the queue's channel, the drop to the hop it
    /// never crossed, with that channel's balances.
    #[test]
    fn a_dropped_unit_refunds_its_locked_hops() {
        let (mut r, hops) = replay();
        let hops = |_| hops.as_slice();
        let inject = TraceEventKind::UnitInjected {
            payment: PaymentId(4),
            unit: 0,
            path: PathId(0),
            amount: Amount::from_drops(10),
        };
        r.apply(0, &inject, hops);
        let queued = TraceEventKind::UnitEnqueued {
            unit: 0,
            channel: ChannelId(0),
            qlen: 1,
        };
        r.apply(0, &queued, hops);
        let forward = TraceEventKind::UnitForwarded {
            unit: 0,
            channel: ChannelId(0),
            hop: 0,
        };
        let wait = Fact::QueueWait {
            channel: ChannelId(0),
            secs: 0.25,
        };
        assert_eq!(r.apply(250_000, &forward, hops), wait);
        let dropped = TraceEventKind::UnitDropped {
            unit: 0,
            reason: DropReason::QueueTimeout,
            attempts: 2,
        };
        let Fact::Drop(rec) = r.apply(300_000, &dropped, hops) else {
            panic!("a drop");
        };
        let got = (rec.payment, rec.channel, rec.bal_fwd_drops, rec.attempts);
        assert_eq!(got, (4, Some(1), 100, 2));
        assert_eq!(r.channels()[0].balance, [Amount::from_drops(100); 2]);
        // The unit is gone: a second fate is not replayed.
        assert_eq!(r.apply(300_000, &dropped, hops), Fact::Quiet);
    }

    /// An overdraft stops at zero, so the channel holds more than its
    /// capacity.
    #[test]
    fn an_overdraft_breaks_conservation() {
        let (mut r, hops) = replay();
        r.apply(5, &lock(150), |_| hops.as_slice());
        let f = r.channels()[0];
        let held = f.balance[0] + f.balance[1] + f.locked[0] + f.locked[1];
        assert_eq!(held, f.capacity + Amount::from_drops(50));
    }
}
