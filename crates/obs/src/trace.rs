//! Payment-lifecycle tracing.
//!
//! [`TraceSink`] records one structured [`TraceEvent`] per payment
//! transition: arrival, route decisions with the chosen [`PathId`]s,
//! per-hop queue/forward movement, settlement, and drops with their
//! [`DropReason`]. Events are ordered by an engine-assigned sequence
//! number (never wall clock), so two runs of the same seed produce
//! byte-identical traces — the golden-trace tests pin exactly that.
//! Every record that moves funds says where (a path, a unit, a channel),
//! so the trace alone rebuilds every channel's balances
//! ([`crate::ledger`]).
//!
//! Emission format: **JSONL** ([`Trace::to_jsonl`]) — one event per
//! line, hand-written with a fixed field order (stable across serde-shim
//! changes), plus trailing `"ev":"path"` lines resolving every referenced
//! [`PathId`] to its node list. It consumes the trace: a trace grows with
//! unit-hops and its text runs to nearly twice its events, so each
//! storage chunk is freed as soon as it is written and the two are never
//! both held in full. It is written byte by byte — fixed fragments
//! copied in, integers through a two-digit table — never through
//! `core::fmt`.
//!
//! Storage is chunked (4096 events per slab) so long traces never
//! reallocate-and-copy the whole buffer.

use spider_types::{Amount, ChannelId, Direction, DropReason, NodeId, PathId, PaymentId};

/// Events per storage chunk.
const CHUNK: usize = 4096;

/// Upper bound on one event's JSONL line: the longest record (`channel`)
/// with every integer at its type's maximum is 212 bytes.
const MAX_LINE: usize = 216;

/// The smallest step [`Trace::to_jsonl`] grows its output by while more
/// than that is left to write.
const MIN_GROWTH: usize = 64 << 10;

/// What happened, with the identities involved.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEventKind {
    /// A payment entered the system.
    PaymentArrival {
        /// The payment.
        payment: PaymentId,
        /// Sender.
        src: NodeId,
        /// Receiver.
        dst: NodeId,
        /// Full payment value.
        amount: Amount,
    },
    /// The router proposed sending `amount` along `path`.
    RouteProposal {
        /// The payment being routed.
        payment: PaymentId,
        /// Attempt ordinal (0 = first attempt).
        attempt: u32,
        /// Chosen path.
        path: PathId,
        /// Proposed amount.
        amount: Amount,
    },
    /// A lockstep whole-path lock attempt finished.
    LockOutcome {
        /// The payment.
        payment: PaymentId,
        /// The path attempted.
        path: PathId,
        /// Unit value.
        amount: Amount,
        /// Whether every hop locked.
        ok: bool,
    },
    /// A hop-by-hop unit was accepted at its first hop.
    UnitInjected {
        /// The payment.
        payment: PaymentId,
        /// Engine-assigned unit trace id (stable within a run).
        unit: u64,
        /// The unit's path.
        path: PathId,
        /// Unit value.
        amount: Amount,
    },
    /// A unit joined a channel-direction queue.
    UnitEnqueued {
        /// The unit.
        unit: u64,
        /// The channel whose queue it joined.
        channel: ChannelId,
        /// Queue length after joining.
        qlen: u32,
    },
    /// A unit locked its next hop and moved on.
    UnitForwarded {
        /// The unit.
        unit: u64,
        /// The channel crossed.
        channel: ChannelId,
        /// Hop ordinal just completed (0-based).
        hop: u32,
    },
    /// A unit fully locked its path and settled end-to-end.
    UnitDelivered {
        /// The unit.
        unit: u64,
    },
    /// A lockstep unit settled after the confirmation delay.
    UnitSettled {
        /// The payment.
        payment: PaymentId,
        /// Settled value.
        amount: Amount,
        /// The path whose locks it settled.
        path: PathId,
    },
    /// A unit was dropped in transit; its locked hops were refunded.
    UnitDropped {
        /// The unit.
        unit: u64,
        /// Why.
        reason: DropReason,
        /// Route attempts its payment had made.
        attempts: u32,
    },
    /// The sender received a unit's end-to-end acknowledgement.
    UnitAcked {
        /// The payment.
        payment: PaymentId,
        /// The unit.
        unit: u64,
        /// Whether it settled.
        delivered: bool,
        /// Whether it came back price-marked.
        marked: bool,
    },
    /// A payment delivered its full value.
    PaymentCompleted {
        /// The payment.
        payment: PaymentId,
        /// Arrival-to-completion latency, microseconds.
        latency_us: u64,
    },
    /// A payment's deadline passed with value undelivered, or the
    /// admission gate rejected it whole.
    PaymentExpired {
        /// The payment.
        payment: PaymentId,
        /// Undelivered remainder.
        remaining: Amount,
        /// True when the admission gate rejected it on arrival — a drop
        /// ([`DropReason::AdmissionRejected`]).
        rejected: bool,
    },
    /// A topology-churn event changed channel state; the per-channel
    /// [`TraceEventKind::ChannelUpdated`] records precede it.
    TopologyChanged {
        /// Channels closed.
        closed: u32,
        /// Channels opened.
        opened: u32,
        /// Channels resized.
        resized: u32,
    },
    /// A fault-plan event toggled a node's crash state.
    FaultApplied {
        /// The node that crashed or recovered.
        node: NodeId,
        /// True on crash, false on recovery.
        crashed: bool,
    },
    /// A lockstep unit was refunded along its whole path instead of
    /// settling: the payment expired between lock and settle, an injected
    /// fault consumed the unit, or a churn close canceled its settle — or,
    /// with no reason, an all-or-nothing payment rolled it back.
    UnitRefunded {
        /// The payment.
        payment: PaymentId,
        /// Refunded value.
        amount: Amount,
        /// The path whose locks it released.
        path: PathId,
        /// Route attempts its payment had made.
        attempts: u32,
        /// Why the unit failed; `None` for a rollback, which is not a
        /// drop.
        reason: Option<DropReason>,
    },
    /// Churn closed, reopened or resized a channel: its state after the
    /// change. A close precedes the failbacks it causes.
    ChannelUpdated {
        /// The channel.
        channel: ChannelId,
        /// Closed after the change.
        closed: bool,
        /// Escrowed funds after the change.
        capacity: Amount,
        /// Forward-side balance after the change.
        fwd: Amount,
        /// Backward-side balance after the change.
        bwd: Amount,
    },
    /// An on-chain rebalancing deposit confirmed.
    Deposit {
        /// The channel.
        channel: ChannelId,
        /// The side credited.
        dir: Direction,
        /// Deposited value.
        amount: Amount,
    },
}

/// One trace record: when (simulated time), in what order (sequence
/// number), and what.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Deterministic record order (0-based).
    pub seq: u64,
    /// Simulated time, microseconds.
    pub t_us: u64,
    /// The event.
    pub kind: TraceEventKind,
}

// A trace holds one event per unit-hop, so an event's width is most of a
// traced run's peak heap: the ledger fields must fit beside the largest
// variant's, not widen the event.
const _: () = assert!(std::mem::size_of::<TraceEvent>() == 48);

/// Chunked buffer the engine records into.
#[derive(Debug, Clone, Default)]
pub struct TraceSink {
    chunks: Vec<Vec<TraceEvent>>,
    len: u64,
}

impl TraceSink {
    /// An empty sink.
    pub fn new() -> Self {
        TraceSink::default()
    }

    /// Appends one event, assigning it the next sequence number.
    #[inline]
    pub fn record(&mut self, t_us: u64, kind: TraceEventKind) {
        if self.chunks.last().is_none_or(|c| c.len() == CHUNK) {
            self.chunks.push(Vec::with_capacity(CHUNK));
        }
        let seq = self.len;
        self.len += 1;
        self.chunks
            .last_mut()
            .expect("chunk")
            .push(TraceEvent { seq, t_us, kind });
    }

    /// Events recorded so far.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Iterates events in sequence order.
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.chunks.iter().flatten()
    }

    /// Seals the sink into a [`Trace`]; `paths` resolves every
    /// [`PathId`] referenced by the events to its node list (the engine
    /// supplies this from its path interner).
    pub fn finish(self, paths: Vec<(u64, Vec<u32>)>) -> Trace {
        Trace {
            chunks: self.chunks,
            paths,
        }
    }
}

/// A sealed trace: the event stream plus the path-id resolution table.
#[derive(Debug, Clone)]
pub struct Trace {
    chunks: Vec<Vec<TraceEvent>>,
    /// `(path_id, node_ids)` for every path referenced by the events,
    /// sorted by id.
    pub paths: Vec<(u64, Vec<u32>)>,
}

/// Canonical wire spelling of a [`DropReason`], shared by the trace
/// renderers and the forensics flight recorder so every artifact names
/// reasons identically.
pub fn reason_str(r: DropReason) -> &'static str {
    match r {
        DropReason::QueueTimeout => "queue_timeout",
        DropReason::QueueOverflow => "queue_overflow",
        DropReason::Expired => "expired",
        DropReason::ChannelClosed => "channel_closed",
        DropReason::MessageLost => "message_lost",
        DropReason::HopTimeout => "hop_timeout",
        DropReason::NodeCrashed => "node_crashed",
        DropReason::Shed => "shed",
        DropReason::AdmissionRejected => "admission_rejected",
    }
}

impl Trace {
    /// Iterates events in sequence order.
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.chunks.iter().flatten()
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.chunks.iter().map(|c| c.len()).sum()
    }

    /// True when the trace holds no events.
    pub fn is_empty(&self) -> bool {
        self.chunks.iter().all(|c| c.is_empty())
    }

    /// Renders the JSONL form: one `{"seq":…}` object per line in
    /// sequence order, then one `{"ev":"path",…}` line per referenced
    /// path. Field order is fixed, so equal traces render byte-equal.
    ///
    /// Consumes the trace (clone it to render twice): each storage chunk
    /// is freed once its lines are written, and the output grows by at
    /// most an eighth at a time, so the text and the events still held
    /// stay within about the larger of the two in full. Growth never
    /// passes an estimate of what is left — the mean line so far times
    /// the events to come, plus the path lines — so the output ends a
    /// little over its length, not doubled past it.
    pub fn to_jsonl(self) -> String {
        let Trace { chunks, paths } = self;
        let mut tail = Writer::default();
        for (id, nodes) in paths {
            tail.path(id, &nodes);
        }
        let total: usize = chunks.iter().map(Vec::len).sum();
        let mut out = Writer::default();
        let mut written = 0;
        for chunk in chunks {
            for e in &chunk {
                if out.0.capacity() - out.0.len() < MAX_LINE {
                    out.grow(written, total - written, tail.0.len());
                }
                out.event(e);
                written += 1;
            }
        }
        out.0.reserve_exact(tail.0.len());
        out.put(&tail.0);
        out.into_string()
    }
}

/// The two decimal digits of every value below 100, back to back.
const DIGIT_PAIRS: &[u8; 200] = b"\
    0001020304050607080910111213141516171819\
    2021222324252627282930313233343536373839\
    4041424344454647484950515253545556575859\
    6061626364656667686970717273747576777879\
    8081828384858687888990919293949596979899";

/// Text under construction, byte by byte: fixed fragments are copied in
/// and integers written through [`DIGIT_PAIRS`].
#[derive(Default)]
struct Writer(Vec<u8>);

impl Writer {
    fn put(&mut self, bytes: &[u8]) -> &mut Self {
        self.0.extend_from_slice(bytes);
        self
    }

    /// Appends `n` in decimal, two digits per step from the right (ten
    /// pairs hold `u64::MAX`).
    fn num(&mut self, n: impl Into<u64>) -> &mut Self {
        let mut n = n.into();
        let mut digits = [0; 20];
        let mut start = digits.len();
        for slot in digits.rchunks_exact_mut(2) {
            let pair = (n % 100) as usize * 2;
            slot.copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
            start -= 2;
            n /= 100;
            if n == 0 {
                // A leading pair below 10 starts with a zero to skip.
                start += usize::from(pair < 20);
                break;
            }
        }
        self.put(digits.split_at(start).1)
    }

    fn flag(&mut self, b: bool) -> &mut Self {
        self.put(if b { b"true" } else { b"false" })
    }

    /// A reason's quoted spelling, or `null`.
    fn reason(&mut self, r: Option<DropReason>) -> &mut Self {
        match r {
            Some(r) => self.put(b"\"").put(reason_str(r).as_bytes()).put(b"\""),
            None => self.put(b"null"),
        }
    }

    /// One event's JSONL line.
    fn event(&mut self, e: &TraceEvent) {
        self.put(b"{\"seq\":")
            .num(e.seq)
            .put(b",\"t_us\":")
            .num(e.t_us);
        match &e.kind {
            TraceEventKind::PaymentArrival {
                payment,
                src,
                dst,
                amount,
            } => self
                .put(b",\"ev\":\"arrival\",\"payment\":")
                .num(payment.0)
                .put(b",\"src\":")
                .num(src.0)
                .put(b",\"dst\":")
                .num(dst.0)
                .put(b",\"amount_drops\":")
                .num(amount.drops()),
            TraceEventKind::RouteProposal {
                payment,
                attempt,
                path,
                amount,
            } => self
                .put(b",\"ev\":\"route\",\"payment\":")
                .num(payment.0)
                .put(b",\"attempt\":")
                .num(*attempt)
                .put(b",\"path\":")
                .num(path.0)
                .put(b",\"amount_drops\":")
                .num(amount.drops()),
            TraceEventKind::LockOutcome {
                payment,
                path,
                amount,
                ok,
            } => self
                .put(b",\"ev\":\"lock\",\"payment\":")
                .num(payment.0)
                .put(b",\"path\":")
                .num(path.0)
                .put(b",\"amount_drops\":")
                .num(amount.drops())
                .put(b",\"ok\":")
                .flag(*ok),
            TraceEventKind::UnitInjected {
                payment,
                unit,
                path,
                amount,
            } => self
                .put(b",\"ev\":\"inject\",\"payment\":")
                .num(payment.0)
                .put(b",\"unit\":")
                .num(*unit)
                .put(b",\"path\":")
                .num(path.0)
                .put(b",\"amount_drops\":")
                .num(amount.drops()),
            TraceEventKind::UnitEnqueued {
                unit,
                channel,
                qlen,
            } => self
                .put(b",\"ev\":\"enqueue\",\"unit\":")
                .num(*unit)
                .put(b",\"channel\":")
                .num(channel.0)
                .put(b",\"qlen\":")
                .num(*qlen),
            TraceEventKind::UnitForwarded { unit, channel, hop } => self
                .put(b",\"ev\":\"forward\",\"unit\":")
                .num(*unit)
                .put(b",\"channel\":")
                .num(channel.0)
                .put(b",\"hop\":")
                .num(*hop),
            TraceEventKind::UnitDelivered { unit } => {
                self.put(b",\"ev\":\"deliver\",\"unit\":").num(*unit)
            }
            TraceEventKind::UnitSettled {
                payment,
                amount,
                path,
            } => self
                .put(b",\"ev\":\"settle\",\"payment\":")
                .num(payment.0)
                .put(b",\"amount_drops\":")
                .num(amount.drops())
                .put(b",\"path\":")
                .num(path.0),
            TraceEventKind::UnitDropped {
                unit,
                reason,
                attempts,
            } => self
                .put(b",\"ev\":\"drop\",\"unit\":")
                .num(*unit)
                .put(b",\"reason\":\"")
                .put(reason_str(*reason).as_bytes())
                .put(b"\",\"attempts\":")
                .num(*attempts),
            TraceEventKind::UnitAcked {
                payment,
                unit,
                delivered,
                marked,
            } => self
                .put(b",\"ev\":\"ack\",\"payment\":")
                .num(payment.0)
                .put(b",\"unit\":")
                .num(*unit)
                .put(b",\"delivered\":")
                .flag(*delivered)
                .put(b",\"marked\":")
                .flag(*marked),
            TraceEventKind::PaymentCompleted {
                payment,
                latency_us,
            } => self
                .put(b",\"ev\":\"complete\",\"payment\":")
                .num(payment.0)
                .put(b",\"latency_us\":")
                .num(*latency_us),
            TraceEventKind::PaymentExpired {
                payment,
                remaining,
                rejected,
            } => self
                .put(b",\"ev\":\"expire\",\"payment\":")
                .num(payment.0)
                .put(b",\"remaining_drops\":")
                .num(remaining.drops())
                .put(b",\"rejected\":")
                .flag(*rejected),
            TraceEventKind::TopologyChanged {
                closed,
                opened,
                resized,
            } => self
                .put(b",\"ev\":\"topology\",\"closed\":")
                .num(*closed)
                .put(b",\"opened\":")
                .num(*opened)
                .put(b",\"resized\":")
                .num(*resized),
            TraceEventKind::FaultApplied { node, crashed } => self
                .put(b",\"ev\":\"fault\",\"node\":")
                .num(node.0)
                .put(b",\"crashed\":")
                .flag(*crashed),
            TraceEventKind::UnitRefunded {
                payment,
                amount,
                path,
                attempts,
                reason,
            } => self
                .put(b",\"ev\":\"refund\",\"payment\":")
                .num(payment.0)
                .put(b",\"amount_drops\":")
                .num(amount.drops())
                .put(b",\"reason\":")
                .reason(*reason)
                .put(b",\"path\":")
                .num(path.0)
                .put(b",\"attempts\":")
                .num(*attempts),
            TraceEventKind::ChannelUpdated {
                channel,
                closed,
                capacity,
                fwd,
                bwd,
            } => self
                .put(b",\"ev\":\"channel\",\"channel\":")
                .num(channel.0)
                .put(b",\"closed\":")
                .flag(*closed)
                .put(b",\"capacity_drops\":")
                .num(capacity.drops())
                .put(b",\"fwd_drops\":")
                .num(fwd.drops())
                .put(b",\"bwd_drops\":")
                .num(bwd.drops()),
            TraceEventKind::Deposit {
                channel,
                dir,
                amount,
            } => self
                .put(b",\"ev\":\"deposit\",\"channel\":")
                .num(channel.0)
                .put(b",\"dir\":")
                .num(dir.index() as u32)
                .put(b",\"amount_drops\":")
                .num(amount.drops()),
        };
        self.put(b"}\n");
    }

    /// One `{"ev":"path",…}` line.
    fn path(&mut self, id: u64, nodes: &[u32]) {
        self.put(b"{\"ev\":\"path\",\"path\":")
            .num(id)
            .put(b",\"nodes\":[");
        for (i, &n) in nodes.iter().enumerate() {
            if i > 0 {
                self.put(b",");
            }
            self.num(n);
        }
        self.put(b"]}\n");
    }

    /// Makes room for at least one more line without doubling. The step
    /// is an eighth of what is written, cut to what keeps the text plus
    /// the `left` events still held within the larger of the whole trace
    /// and the whole text, but at least [`MIN_GROWTH`] — and never past
    /// what the rest is estimated to need: `left` events at the mean line
    /// so far (the [`MAX_LINE`] bound before the first), `tail` bytes of
    /// path lines, and one line of slack.
    fn grow(&mut self, written: usize, left: usize, tail: usize) {
        let (len, event) = (self.0.len(), std::mem::size_of::<TraceEvent>());
        let line = match written {
            0 => MAX_LINE,
            n => len.div_ceil(n),
        };
        let rest = line * left + tail + MAX_LINE;
        let budget = ((written + left) * event).max(len + rest);
        let room = budget.saturating_sub(len + left * event);
        let step = (len / 8).min(room).max(MIN_GROWTH).min(rest);
        self.0.reserve_exact(step);
    }

    fn into_string(self) -> String {
        String::from_utf8(self.0).expect("the writer emits ASCII")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::fmt::Write as _;

    /// The `core::fmt` renderer [`Trace::to_jsonl`] replaced, kept as the
    /// reference the writer must equal byte for byte.
    fn reference_jsonl(t: &Trace) -> String {
        let mut out = String::new();
        write_reference(&mut out, t).expect("string write");
        out
    }

    fn write_reference(out: &mut String, t: &Trace) -> std::fmt::Result {
        for e in t.events() {
            write!(out, "{{\"seq\":{},\"t_us\":{},", e.seq, e.t_us)?;
            match &e.kind {
                TraceEventKind::PaymentArrival {
                    payment,
                    src,
                    dst,
                    amount,
                } => write!(
                    out,
                    "\"ev\":\"arrival\",\"payment\":{},\"src\":{},\"dst\":{},\"amount_drops\":{}",
                    payment.0,
                    src.0,
                    dst.0,
                    amount.drops()
                ),
                TraceEventKind::RouteProposal {
                    payment,
                    attempt,
                    path,
                    amount,
                } => write!(
                    out,
                    "\"ev\":\"route\",\"payment\":{},\"attempt\":{},\"path\":{},\"amount_drops\":{}",
                    payment.0,
                    attempt,
                    path.0,
                    amount.drops()
                ),
                TraceEventKind::LockOutcome {
                    payment,
                    path,
                    amount,
                    ok,
                } => write!(
                    out,
                    "\"ev\":\"lock\",\"payment\":{},\"path\":{},\"amount_drops\":{},\"ok\":{}",
                    payment.0,
                    path.0,
                    amount.drops(),
                    ok
                ),
                TraceEventKind::UnitInjected {
                    payment,
                    unit,
                    path,
                    amount,
                } => write!(
                    out,
                    "\"ev\":\"inject\",\"payment\":{},\"unit\":{},\"path\":{},\"amount_drops\":{}",
                    payment.0,
                    unit,
                    path.0,
                    amount.drops()
                ),
                TraceEventKind::UnitEnqueued {
                    unit,
                    channel,
                    qlen,
                } => write!(
                    out,
                    "\"ev\":\"enqueue\",\"unit\":{},\"channel\":{},\"qlen\":{}",
                    unit, channel.0, qlen
                ),
                TraceEventKind::UnitForwarded { unit, channel, hop } => write!(
                    out,
                    "\"ev\":\"forward\",\"unit\":{},\"channel\":{},\"hop\":{}",
                    unit, channel.0, hop
                ),
                TraceEventKind::UnitDelivered { unit } => {
                    write!(out, "\"ev\":\"deliver\",\"unit\":{unit}")
                }
                TraceEventKind::UnitSettled {
                    payment,
                    amount,
                    path,
                } => write!(
                    out,
                    "\"ev\":\"settle\",\"payment\":{},\"amount_drops\":{},\"path\":{}",
                    payment.0,
                    amount.drops(),
                    path.0
                ),
                TraceEventKind::UnitDropped {
                    unit,
                    reason,
                    attempts,
                } => write!(
                    out,
                    "\"ev\":\"drop\",\"unit\":{},\"reason\":\"{}\",\"attempts\":{}",
                    unit,
                    reason_str(*reason),
                    attempts
                ),
                TraceEventKind::UnitAcked {
                    payment,
                    unit,
                    delivered,
                    marked,
                } => write!(
                    out,
                    "\"ev\":\"ack\",\"payment\":{},\"unit\":{},\"delivered\":{},\"marked\":{}",
                    payment.0, unit, delivered, marked
                ),
                TraceEventKind::PaymentCompleted {
                    payment,
                    latency_us,
                } => write!(
                    out,
                    "\"ev\":\"complete\",\"payment\":{},\"latency_us\":{}",
                    payment.0, latency_us
                ),
                TraceEventKind::PaymentExpired {
                    payment,
                    remaining,
                    rejected,
                } => write!(
                    out,
                    "\"ev\":\"expire\",\"payment\":{},\"remaining_drops\":{},\"rejected\":{}",
                    payment.0,
                    remaining.drops(),
                    rejected
                ),
                TraceEventKind::TopologyChanged {
                    closed,
                    opened,
                    resized,
                } => write!(
                    out,
                    "\"ev\":\"topology\",\"closed\":{closed},\"opened\":{opened},\"resized\":{resized}"
                ),
                TraceEventKind::FaultApplied { node, crashed } => write!(
                    out,
                    "\"ev\":\"fault\",\"node\":{},\"crashed\":{}",
                    node.0, crashed
                ),
                TraceEventKind::UnitRefunded {
                    payment,
                    amount,
                    path,
                    attempts,
                    reason,
                } => write!(
                    out,
                    "\"ev\":\"refund\",\"payment\":{},\"amount_drops\":{},\"reason\":{},\"path\":{},\"attempts\":{}",
                    payment.0,
                    amount.drops(),
                    reason.map_or("null".to_string(), |r| format!("\"{}\"", reason_str(r))),
                    path.0,
                    attempts
                ),
                TraceEventKind::ChannelUpdated {
                    channel,
                    closed,
                    capacity,
                    fwd,
                    bwd,
                } => write!(
                    out,
                    "\"ev\":\"channel\",\"channel\":{},\"closed\":{},\"capacity_drops\":{},\"fwd_drops\":{},\"bwd_drops\":{}",
                    channel.0,
                    closed,
                    capacity.drops(),
                    fwd.drops(),
                    bwd.drops()
                ),
                TraceEventKind::Deposit {
                    channel,
                    dir,
                    amount,
                } => write!(
                    out,
                    "\"ev\":\"deposit\",\"channel\":{},\"dir\":{},\"amount_drops\":{}",
                    channel.0,
                    dir.index(),
                    amount.drops()
                ),
            }?;
            out.push_str("}\n");
        }
        for (id, nodes) in &t.paths {
            write!(out, "{{\"ev\":\"path\",\"path\":{id},\"nodes\":[")?;
            for (i, n) in nodes.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write!(out, "{n}")?;
            }
            out.push_str("]}\n");
        }
        Ok(())
    }

    /// 0, 9, 10, 11, 99, 100, 101, …: every power of ten from 10 to
    /// 10¹⁹ with its neighbours, and the `u32` and `u64` maxima.
    fn edge_ints() -> Vec<u64> {
        let mut ints = vec![0, u64::from(u32::MAX), u64::MAX];
        let mut p = 1u64;
        while let Some(next) = p.checked_mul(10) {
            ints.extend([next - 1, next, next + 1]);
            p = next;
        }
        ints
    }

    const REASONS: [DropReason; 9] = [
        DropReason::QueueTimeout,
        DropReason::QueueOverflow,
        DropReason::Expired,
        DropReason::ChannelClosed,
        DropReason::MessageLost,
        DropReason::HopTimeout,
        DropReason::NodeCrashed,
        DropReason::Shed,
        DropReason::AdmissionRejected,
    ];

    /// Random events and path lines, every integer drawn from `ints`.
    struct Gen {
        rng: TestRng,
        ints: Vec<u64>,
    }

    impl Gen {
        /// Integers from [`edge_ints`] and a few random ones of random
        /// width.
        fn new(seed: u64) -> Self {
            let mut rng = TestRng::new(seed);
            let mut ints = edge_ints();
            ints.extend((0..16).map(|_| {
                let x = rng.next_u64();
                x >> (x % 64)
            }));
            Gen { rng, ints }
        }

        /// Every integer at its type's maximum.
        fn widest(seed: u64) -> Self {
            Gen {
                rng: TestRng::new(seed),
                ints: vec![u64::MAX],
            }
        }

        fn int(&mut self) -> u64 {
            self.ints[self.rng.below(self.ints.len() as u64) as usize]
        }

        fn int32(&mut self) -> u32 {
            u32::try_from(self.int()).unwrap_or(u32::MAX)
        }

        fn flag(&mut self) -> bool {
            self.rng.below(2) == 1
        }

        fn reason(&mut self) -> DropReason {
            REASONS[self.rng.below(REASONS.len() as u64) as usize]
        }

        /// Variant `which % 17` of [`TraceEventKind`], fields drawn.
        fn kind(&mut self, which: u64) -> TraceEventKind {
            match which % 17 {
                0 => TraceEventKind::PaymentArrival {
                    payment: PaymentId(self.int()),
                    src: NodeId(self.int32()),
                    dst: NodeId(self.int32()),
                    amount: Amount::from_drops(self.int()),
                },
                1 => TraceEventKind::RouteProposal {
                    payment: PaymentId(self.int()),
                    attempt: self.int32(),
                    path: PathId(self.int32()),
                    amount: Amount::from_drops(self.int()),
                },
                2 => TraceEventKind::LockOutcome {
                    payment: PaymentId(self.int()),
                    path: PathId(self.int32()),
                    amount: Amount::from_drops(self.int()),
                    ok: self.flag(),
                },
                3 => TraceEventKind::UnitInjected {
                    payment: PaymentId(self.int()),
                    unit: self.int(),
                    path: PathId(self.int32()),
                    amount: Amount::from_drops(self.int()),
                },
                4 => TraceEventKind::UnitEnqueued {
                    unit: self.int(),
                    channel: ChannelId(self.int32()),
                    qlen: self.int32(),
                },
                5 => TraceEventKind::UnitForwarded {
                    unit: self.int(),
                    channel: ChannelId(self.int32()),
                    hop: self.int32(),
                },
                6 => TraceEventKind::UnitDelivered { unit: self.int() },
                7 => TraceEventKind::UnitSettled {
                    payment: PaymentId(self.int()),
                    amount: Amount::from_drops(self.int()),
                    path: PathId(self.int32()),
                },
                8 => TraceEventKind::UnitDropped {
                    unit: self.int(),
                    reason: self.reason(),
                    attempts: self.int32(),
                },
                9 => TraceEventKind::UnitAcked {
                    payment: PaymentId(self.int()),
                    unit: self.int(),
                    delivered: self.flag(),
                    marked: self.flag(),
                },
                10 => TraceEventKind::PaymentCompleted {
                    payment: PaymentId(self.int()),
                    latency_us: self.int(),
                },
                11 => TraceEventKind::PaymentExpired {
                    payment: PaymentId(self.int()),
                    remaining: Amount::from_drops(self.int()),
                    rejected: self.flag(),
                },
                12 => TraceEventKind::TopologyChanged {
                    closed: self.int32(),
                    opened: self.int32(),
                    resized: self.int32(),
                },
                13 => TraceEventKind::FaultApplied {
                    node: NodeId(self.int32()),
                    crashed: self.flag(),
                },
                14 => TraceEventKind::UnitRefunded {
                    payment: PaymentId(self.int()),
                    amount: Amount::from_drops(self.int()),
                    path: PathId(self.int32()),
                    attempts: self.int32(),
                    reason: self.flag().then(|| self.reason()),
                },
                15 => TraceEventKind::ChannelUpdated {
                    channel: ChannelId(self.int32()),
                    closed: self.flag(),
                    capacity: Amount::from_drops(self.int()),
                    fwd: Amount::from_drops(self.int()),
                    bwd: Amount::from_drops(self.int()),
                },
                _ => TraceEventKind::Deposit {
                    channel: ChannelId(self.int32()),
                    dir: if self.flag() {
                        Direction::Backward
                    } else {
                        Direction::Forward
                    },
                    amount: Amount::from_drops(self.int()),
                },
            }
        }

        /// `events` events cycling through all 17 variants, then `paths`
        /// path lines of up to five nodes.
        fn trace(&mut self, events: usize, paths: usize) -> Trace {
            let mut sink = TraceSink::new();
            for i in 0..events as u64 {
                let t_us = self.int();
                let kind = self.kind(i);
                sink.record(t_us, kind);
            }
            let paths = (0..paths)
                .map(|_| {
                    let id = self.int();
                    let len = self.rng.below(6);
                    (id, (0..len).map(|_| self.int32()).collect())
                })
                .collect();
            sink.finish(paths)
        }
    }

    fn sample_sink() -> TraceSink {
        let mut s = TraceSink::new();
        s.record(
            0,
            TraceEventKind::PaymentArrival {
                payment: PaymentId(0),
                src: NodeId(1),
                dst: NodeId(2),
                amount: Amount::from_xrp(5),
            },
        );
        s.record(
            100,
            TraceEventKind::RouteProposal {
                payment: PaymentId(0),
                attempt: 0,
                path: PathId(3),
                amount: Amount::from_xrp(5),
            },
        );
        s.record(
            900,
            TraceEventKind::UnitDropped {
                unit: 7,
                reason: DropReason::QueueTimeout,
                attempts: 1,
            },
        );
        s.record(
            1_000,
            TraceEventKind::PaymentCompleted {
                payment: PaymentId(0),
                latency_us: 1_000,
            },
        );
        s
    }

    #[test]
    fn sequence_numbers_follow_record_order() {
        let s = sample_sink();
        assert_eq!(s.len(), 4);
        let seqs: Vec<u64> = s.events().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2, 3]);
    }

    /// Record order survives the storage chunks, and the render that
    /// frees them chunk by chunk writes every line, in order.
    #[test]
    fn chunking_preserves_order_across_boundaries() {
        let mut s = TraceSink::new();
        for i in 0..(CHUNK as u64 * 2 + 10) {
            s.record(i, TraceEventKind::UnitDelivered { unit: i });
        }
        assert_eq!(s.len(), CHUNK as u64 * 2 + 10);
        let t = s.finish(Vec::new());
        for (i, e) in t.events().enumerate() {
            assert_eq!(e.seq, i as u64);
            assert_eq!(e.t_us, i as u64);
        }
        let jsonl = t.to_jsonl();
        assert_eq!(jsonl.lines().count(), CHUNK * 2 + 10);
        for (i, line) in jsonl.lines().enumerate() {
            let want = format!("{{\"seq\":{i},\"t_us\":{i},\"ev\":\"deliver\",\"unit\":{i}}}");
            assert_eq!(line, want);
        }
    }

    #[test]
    fn jsonl_is_deterministic_and_line_per_event() {
        let t = sample_sink().finish(vec![(3, vec![1, 0, 2])]);
        let a = t.clone().to_jsonl();
        let b = t.to_jsonl();
        assert_eq!(a, b, "rendering must be pure");
        // 4 events + 1 path line.
        assert_eq!(a.lines().count(), 5);
        assert!(a.contains("\"ev\":\"arrival\""), "{a}");
        assert!(a.contains("\"reason\":\"queue_timeout\""), "{a}");
        assert!(
            a.contains("{\"ev\":\"path\",\"path\":3,\"nodes\":[1,0,2]}"),
            "{a}"
        );
        // Every line is an object.
        for line in a.lines() {
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        }
    }

    /// The output grows toward an estimate of its own length: whatever
    /// the mix of long and short lines, it ends a little over what it
    /// holds — never doubled on the way.
    #[test]
    fn jsonl_is_allocated_once_whatever_the_record_mix() {
        for long_every in [1, 2, 7, 1000] {
            let mut s = TraceSink::new();
            for i in 0..50_000u64 {
                let kind = if i % long_every == 0 {
                    TraceEventKind::PaymentArrival {
                        payment: PaymentId(i),
                        src: NodeId(1_000),
                        dst: NodeId(2_000),
                        amount: Amount::from_xrp(1_000 + i),
                    }
                } else {
                    TraceEventKind::UnitDelivered { unit: i }
                };
                s.record(i * 1_000, kind);
            }
            let paths = (0..3_000).map(|id| (id, vec![1, 20, 300, 4_000])).collect();
            let out = s.finish(paths).to_jsonl();
            assert_eq!(out.lines().count(), 53_000);
            assert!(
                out.capacity() <= out.len() + out.len() / 16,
                "long every {long_every}: {} bytes in {} of capacity",
                out.len(),
                out.capacity()
            );
        }
        assert_eq!(TraceSink::new().finish(Vec::new()).to_jsonl(), "");
    }

    /// [`REASONS`] lists every reason once, in declaration order, and no
    /// two share a wire spelling.
    #[test]
    fn every_reason_has_its_own_spelling() {
        assert!(REASONS.windows(2).all(|w| w[0] < w[1]));
        let spellings: std::collections::BTreeSet<&str> =
            REASONS.iter().map(|&r| reason_str(r)).collect();
        assert_eq!(spellings.len(), REASONS.len(), "{spellings:?}");
    }

    #[test]
    fn empty_trace_renders_empty_outputs() {
        let t = TraceSink::new().finish(Vec::new());
        assert!(t.is_empty());
        assert_eq!(t.to_jsonl(), "");
    }

    #[test]
    fn integers_render_as_display_does_on_every_edge() {
        for n in edge_ints() {
            let mut w = Writer::default();
            w.num(n);
            assert_eq!(w.into_string(), n.to_string());
        }
    }

    /// Traces of 0, 1, 4095, 4096, 4097 and 3·4096+7 events of every
    /// variant: the writer equals the reference across chunk boundaries.
    #[test]
    fn writer_matches_reference_across_chunk_boundaries() {
        for n in [0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 7] {
            let t = Gen::new(n as u64).trace(n, 3);
            let want = reference_jsonl(&t);
            assert!(t.to_jsonl() == want, "{n} events: writer != reference");
        }
    }

    /// Every variant, reason and flag with every integer (the sequence
    /// number too) at its maximum fits in [`MAX_LINE`], the room
    /// `to_jsonl` keeps for a line.
    #[test]
    fn max_line_bounds_every_event() {
        let mut g = Gen::widest(1);
        let events = (0..17 * 64)
            .map(|i| TraceEvent {
                seq: u64::MAX,
                t_us: u64::MAX,
                kind: g.kind(i),
            })
            .collect();
        let t = Trace {
            chunks: vec![events],
            paths: Vec::new(),
        };
        let want = reference_jsonl(&t);
        let longest = want.lines().map(|l| l.len() + 1).max();
        assert_eq!(longest, Some(212), "the longest is `channel`");
        assert!(longest <= Some(MAX_LINE));
        assert_eq!(t.to_jsonl(), want);
    }

    proptest! {
        /// Random traces of every variant with integers on digit-count
        /// edges, and their path lines: the writer equals the reference.
        #[test]
        fn writer_matches_reference_renderer(
            seed in 0u64..u64::MAX,
            events in 0usize..200,
            paths in 0usize..8
        ) {
            let t = Gen::new(seed).trace(events, paths);
            let want = reference_jsonl(&t);
            prop_assert_eq!(t.to_jsonl(), want);
        }
    }
}
