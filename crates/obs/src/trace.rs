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
//! [`PathId`] to its node list. It is written from ASCII fragments —
//! fixed text copied in, integers through a two-digit table — never
//! through `core::fmt`. [`parse_line`] reads any line back, so the wire
//! format has its writer and its reader here, side by side.
//!
//! The sink is a pipeline. A trace grows with unit-hops, so the engine
//! records into a chunk of 4096 events; a full chunk goes to a render
//! worker thread, which writes its lines into the growing text, notes
//! every path the events name, and hands the emptied chunk back for
//! reuse. The engine's per-record cost is a push, and the rendering runs
//! beside the run rather than after it. Sealing ([`TraceSink::finish`],
//! [`TraceSink::finish_named`]) joins the worker and renders the last,
//! partly filled chunk; a worker panic surfaces there. A sink dropped
//! unsealed closes the hand-off and joins the worker too, so no thread
//! outlives its sink. A [`Trace`] is that text, its event count and its
//! path table: what it holds is the text plus the few chunks in flight,
//! never every event at once.

use spider_types::{Amount, ChannelId, Direction, DropReason, NodeId, PathId, PaymentId};
use std::collections::BTreeSet;
use std::sync::mpsc::{self, Receiver, SyncSender};
use std::thread::JoinHandle;

/// Events per hand-off chunk.
const CHUNK: usize = 4096;

/// Full chunks the hand-off queues before [`TraceSink::record`] waits for
/// the worker. A worker that falls behind holds the trace's events to at
/// most `IN_FLIGHT + 3` chunks (the queue, the one it renders, the one
/// being filled and the one about to be), instead of every event at once.
/// The worker renders faster than an engine records, so the queue fills
/// only in a burst of records; each chunk it may hold is 192 KiB of peak
/// heap, and 4 queued made the engine wait far more often than 8.
const IN_FLIGHT: usize = 8;

/// Upper bound on one event's JSONL line: the longest record (`channel`)
/// with every integer at its type's maximum is 212 bytes.
const MAX_LINE: usize = 216;

/// The smallest step the rendered text grows by.
const MIN_GROWTH: usize = 64 << 10;

/// The text grows by this fraction of itself (at least [`MIN_GROWTH`]):
/// small enough that the slack left at the end stays within about 1.6 %
/// of the text, large enough that the worker reallocates it rarely.
const GROWTH_DIVISOR: usize = 64;

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

/// The buffer the engine records into: the chunk being filled, with the
/// full ones handed to a render worker.
#[derive(Debug)]
pub struct TraceSink {
    /// The chunk being filled; it holds at most [`CHUNK`] events.
    open: Vec<TraceEvent>,
    len: u64,
    /// Started by the first full chunk, so a short trace starts none.
    worker: Option<Worker>,
}

impl Default for TraceSink {
    fn default() -> Self {
        TraceSink::new()
    }
}

impl TraceSink {
    /// An empty sink.
    pub fn new() -> Self {
        TraceSink {
            open: Vec::with_capacity(CHUNK),
            len: 0,
            worker: None,
        }
    }

    /// Appends one event, assigning it the next sequence number.
    #[inline]
    pub fn record(&mut self, t_us: u64, kind: TraceEventKind) {
        let seq = self.len;
        self.len += 1;
        self.open.push(TraceEvent { seq, t_us, kind });
        if self.open.len() == CHUNK {
            self.hand_off();
        }
    }

    /// Sends the full chunk to the worker and carries on in one it has
    /// emptied, or in a new one while it has none to give back. The
    /// engine waits only when [`IN_FLIGHT`] chunks are already queued.
    #[cold]
    fn hand_off(&mut self) {
        let worker = self
            .worker
            .get_or_insert_with(|| Worker::spawn(Rendered::take));
        let spare = worker
            .emptied
            .try_recv()
            .unwrap_or_else(|_| Vec::with_capacity(CHUNK));
        let full = std::mem::replace(&mut self.open, spare);
        // A worker that stopped taking chunks panicked; sealing says so.
        let _ = worker.full.send(full);
    }

    /// Events recorded so far.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Seals the sink into a [`Trace`] whose path lines are `paths`:
    /// `(path_id, node_ids)`, sorted by id.
    pub fn finish(self, paths: Vec<(u64, Vec<u32>)>) -> Trace {
        let len = self.len as usize;
        Trace {
            text: self.seal().text.0,
            len,
            paths,
        }
    }

    /// Seals the sink into a [`Trace`] that resolves every [`PathId`] its
    /// events name, in id order, to the node list `nodes` gives (the
    /// engine supplies it from its path interner).
    pub fn finish_named(self, mut nodes: impl FnMut(PathId) -> Vec<u32>) -> Trace {
        let len = self.len as usize;
        let out = self.seal();
        let mut paths = Vec::new();
        for (word, &bits) in out.named.iter().enumerate() {
            let mut bits = bits;
            while bits != 0 {
                let id = PathId::from_index(word * 64 + bits.trailing_zeros() as usize);
                bits &= bits - 1;
                paths.push((u64::from(id.0), nodes(id)));
            }
        }
        paths.extend(out.far.iter().map(|&id| (u64::from(id), nodes(PathId(id)))));
        Trace {
            text: out.text.0,
            len,
            paths,
        }
    }

    /// Joins the worker and renders the open chunk after what it wrote.
    /// A worker panic resumes here.
    fn seal(mut self) -> Rendered {
        let mut out = match self.worker.take() {
            Some(worker) => worker.join(),
            None => Rendered::default(),
        };
        out.take(&self.open);
        out
    }
}

impl Drop for TraceSink {
    /// An unsealed sink closes the hand-off and joins its worker; what
    /// the worker rendered is dropped with it.
    fn drop(&mut self) {
        if let Some(worker) = self.worker.take() {
            drop(worker.full);
            let _ = worker.thread.join();
        }
    }
}

/// The render worker: full chunks in, emptied chunks back, and the
/// rendered text when the hand-off closes.
#[derive(Debug)]
struct Worker {
    full: SyncSender<Vec<TraceEvent>>,
    emptied: Receiver<Vec<TraceEvent>>,
    thread: JoinHandle<Rendered>,
}

impl Worker {
    /// Starts a thread that runs `render` on every chunk handed to it, in
    /// order.
    fn spawn(render: fn(&mut Rendered, &[TraceEvent])) -> Self {
        let (full, chunks) = mpsc::sync_channel::<Vec<TraceEvent>>(IN_FLIGHT);
        let (give_back, emptied) = mpsc::channel();
        let thread = std::thread::Builder::new()
            .name("trace-render".into())
            .spawn(move || {
                let mut out = Rendered::default();
                for mut chunk in chunks {
                    render(&mut out, &chunk);
                    chunk.clear();
                    // The sink stops taking chunks back once it seals.
                    let _ = give_back.send(chunk);
                }
                out
            })
            .expect("the trace render worker starts");
        Worker {
            full,
            emptied,
            thread,
        }
    }

    /// Closes the hand-off and waits for the worker to render what it
    /// was handed; its panic, if it had one, resumes on this thread.
    fn join(self) -> Rendered {
        drop(self.full);
        self.thread
            .join()
            .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
    }
}

/// Path ids below this many are noted in a bitset; an engine interns
/// ids densely from 0, so only a hand-built trace names any above.
const NAMED_BITS: usize = 1 << 20;

/// What the worker builds: the event lines, and the paths they name.
#[derive(Debug, Default)]
struct Rendered {
    text: Writer,
    /// One bit per path id below [`NAMED_BITS`] that an event names.
    named: Vec<u64>,
    /// The named ids from [`NAMED_BITS`] up.
    far: BTreeSet<u32>,
}

impl Rendered {
    /// Renders `chunk` after the lines already written and notes the
    /// paths it names.
    fn take(&mut self, chunk: &[TraceEvent]) {
        for e in chunk {
            if let TraceEventKind::RouteProposal { path, .. }
            | TraceEventKind::LockOutcome { path, .. }
            | TraceEventKind::UnitInjected { path, .. } = &e.kind
            {
                self.name(*path);
            }
            if self.text.0.capacity() - self.text.0.len() < MAX_LINE {
                self.text.grow();
            }
            self.text.event(e);
        }
    }

    fn name(&mut self, path: PathId) {
        let i = path.index();
        if i >= NAMED_BITS {
            self.far.insert(path.0);
            return;
        }
        if self.named.len() <= i / 64 {
            self.named.resize(i / 64 + 1, 0);
        }
        self.named[i / 64] |= 1 << (i % 64);
    }
}

/// A sealed trace: the rendered event lines plus the path-id resolution
/// table.
#[derive(Debug, Clone)]
pub struct Trace {
    /// One JSONL line per event, in sequence order.
    text: String,
    /// Events in `text`.
    len: usize,
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

/// Every drop reason, in declaration order, for reading spellings back.
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

impl Trace {
    /// The events in sequence order, read back from their rendered lines
    /// (for tests and audits; the engine never reads a trace).
    pub fn events(&self) -> impl Iterator<Item = TraceEvent> + '_ {
        self.text
            .lines()
            .map(|line| parse_event(line).expect("the writer's own line parses"))
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the trace holds no events.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The JSONL form: one `{"seq":…}` object per line in sequence
    /// order, then one `{"ev":"path",…}` line per referenced path. Field
    /// order is fixed, so equal traces render byte-equal.
    ///
    /// The event lines were rendered while the run recorded them; this
    /// appends the path lines to that text, growing it by exactly what
    /// they need when its slack is short.
    pub fn to_jsonl(self) -> String {
        let Trace {
            mut text, paths, ..
        } = self;
        let mut tail = Writer::default();
        for (id, nodes) in paths {
            tail.path(id, &nodes);
        }
        text.reserve_exact(tail.0.len());
        text.push_str(&tail.0);
        text
    }
}

/// The two decimal digits of every value below 100, back to back.
const DIGIT_PAIRS: &str = "\
    0001020304050607080910111213141516171819\
    2021222324252627282930313233343536373839\
    4041424344454647484950515253545556575859\
    6061626364656667686970717273747576777879\
    8081828384858687888990919293949596979899";

/// Text under construction from ASCII fragments: fixed text is copied in
/// and integers written through [`DIGIT_PAIRS`].
#[derive(Debug, Default)]
struct Writer(String);

impl Writer {
    fn put(&mut self, s: &str) -> &mut Self {
        self.0.push_str(s);
        self
    }

    /// Appends `n` in decimal: its two-digit pairs are found from the
    /// right (ten hold `u64::MAX`) and written from the left.
    fn num(&mut self, n: impl Into<u64>) -> &mut Self {
        let mut n = n.into();
        let mut pairs = [0; 10];
        let mut count = 0;
        loop {
            pairs[count] = (n % 100) as usize * 2;
            count += 1;
            n /= 100;
            if n == 0 {
                break;
            }
        }
        let lead = pairs[count - 1];
        // A leading pair below 10 starts with a zero to skip.
        self.put(&DIGIT_PAIRS[lead + usize::from(lead < 20)..lead + 2]);
        for &pair in pairs[..count - 1].iter().rev() {
            self.put(&DIGIT_PAIRS[pair..pair + 2]);
        }
        self
    }

    fn flag(&mut self, b: bool) -> &mut Self {
        self.put(if b { "true" } else { "false" })
    }

    /// A reason's quoted spelling, or `null`.
    fn reason(&mut self, r: Option<DropReason>) -> &mut Self {
        match r {
            Some(r) => self.put("\"").put(reason_str(r)).put("\""),
            None => self.put("null"),
        }
    }
    /// One event's JSONL line.
    fn event(&mut self, e: &TraceEvent) {
        self.put("{\"seq\":")
            .num(e.seq)
            .put(",\"t_us\":")
            .num(e.t_us);
        match &e.kind {
            TraceEventKind::PaymentArrival {
                payment,
                src,
                dst,
                amount,
            } => self
                .put(",\"ev\":\"arrival\",\"payment\":")
                .num(payment.0)
                .put(",\"src\":")
                .num(src.0)
                .put(",\"dst\":")
                .num(dst.0)
                .put(",\"amount_drops\":")
                .num(amount.drops()),
            TraceEventKind::RouteProposal {
                payment,
                attempt,
                path,
                amount,
            } => self
                .put(",\"ev\":\"route\",\"payment\":")
                .num(payment.0)
                .put(",\"attempt\":")
                .num(*attempt)
                .put(",\"path\":")
                .num(path.0)
                .put(",\"amount_drops\":")
                .num(amount.drops()),
            TraceEventKind::LockOutcome {
                payment,
                path,
                amount,
                ok,
            } => self
                .put(",\"ev\":\"lock\",\"payment\":")
                .num(payment.0)
                .put(",\"path\":")
                .num(path.0)
                .put(",\"amount_drops\":")
                .num(amount.drops())
                .put(",\"ok\":")
                .flag(*ok),
            TraceEventKind::UnitInjected {
                payment,
                unit,
                path,
                amount,
            } => self
                .put(",\"ev\":\"inject\",\"payment\":")
                .num(payment.0)
                .put(",\"unit\":")
                .num(*unit)
                .put(",\"path\":")
                .num(path.0)
                .put(",\"amount_drops\":")
                .num(amount.drops()),
            TraceEventKind::UnitEnqueued {
                unit,
                channel,
                qlen,
            } => self
                .put(",\"ev\":\"enqueue\",\"unit\":")
                .num(*unit)
                .put(",\"channel\":")
                .num(channel.0)
                .put(",\"qlen\":")
                .num(*qlen),
            TraceEventKind::UnitForwarded { unit, channel, hop } => self
                .put(",\"ev\":\"forward\",\"unit\":")
                .num(*unit)
                .put(",\"channel\":")
                .num(channel.0)
                .put(",\"hop\":")
                .num(*hop),
            TraceEventKind::UnitDelivered { unit } => {
                self.put(",\"ev\":\"deliver\",\"unit\":").num(*unit)
            }
            TraceEventKind::UnitSettled {
                payment,
                amount,
                path,
            } => self
                .put(",\"ev\":\"settle\",\"payment\":")
                .num(payment.0)
                .put(",\"amount_drops\":")
                .num(amount.drops())
                .put(",\"path\":")
                .num(path.0),
            TraceEventKind::UnitDropped {
                unit,
                reason,
                attempts,
            } => self
                .put(",\"ev\":\"drop\",\"unit\":")
                .num(*unit)
                .put(",\"reason\":\"")
                .put(reason_str(*reason))
                .put("\",\"attempts\":")
                .num(*attempts),
            TraceEventKind::UnitAcked {
                payment,
                unit,
                delivered,
                marked,
            } => self
                .put(",\"ev\":\"ack\",\"payment\":")
                .num(payment.0)
                .put(",\"unit\":")
                .num(*unit)
                .put(",\"delivered\":")
                .flag(*delivered)
                .put(",\"marked\":")
                .flag(*marked),
            TraceEventKind::PaymentCompleted {
                payment,
                latency_us,
            } => self
                .put(",\"ev\":\"complete\",\"payment\":")
                .num(payment.0)
                .put(",\"latency_us\":")
                .num(*latency_us),
            TraceEventKind::PaymentExpired {
                payment,
                remaining,
                rejected,
            } => self
                .put(",\"ev\":\"expire\",\"payment\":")
                .num(payment.0)
                .put(",\"remaining_drops\":")
                .num(remaining.drops())
                .put(",\"rejected\":")
                .flag(*rejected),
            TraceEventKind::TopologyChanged {
                closed,
                opened,
                resized,
            } => self
                .put(",\"ev\":\"topology\",\"closed\":")
                .num(*closed)
                .put(",\"opened\":")
                .num(*opened)
                .put(",\"resized\":")
                .num(*resized),
            TraceEventKind::FaultApplied { node, crashed } => self
                .put(",\"ev\":\"fault\",\"node\":")
                .num(node.0)
                .put(",\"crashed\":")
                .flag(*crashed),
            TraceEventKind::UnitRefunded {
                payment,
                amount,
                path,
                attempts,
                reason,
            } => self
                .put(",\"ev\":\"refund\",\"payment\":")
                .num(payment.0)
                .put(",\"amount_drops\":")
                .num(amount.drops())
                .put(",\"reason\":")
                .reason(*reason)
                .put(",\"path\":")
                .num(path.0)
                .put(",\"attempts\":")
                .num(*attempts),
            TraceEventKind::ChannelUpdated {
                channel,
                closed,
                capacity,
                fwd,
                bwd,
            } => self
                .put(",\"ev\":\"channel\",\"channel\":")
                .num(channel.0)
                .put(",\"closed\":")
                .flag(*closed)
                .put(",\"capacity_drops\":")
                .num(capacity.drops())
                .put(",\"fwd_drops\":")
                .num(fwd.drops())
                .put(",\"bwd_drops\":")
                .num(bwd.drops()),
            TraceEventKind::Deposit {
                channel,
                dir,
                amount,
            } => self
                .put(",\"ev\":\"deposit\",\"channel\":")
                .num(channel.0)
                .put(",\"dir\":")
                .num(dir.index() as u32)
                .put(",\"amount_drops\":")
                .num(amount.drops()),
        };
        self.put("}\n");
    }

    /// One `{"ev":"path",…}` line.
    fn path(&mut self, id: u64, nodes: &[u32]) {
        self.put("{\"ev\":\"path\",\"path\":")
            .num(id)
            .put(",\"nodes\":[");
        for (i, &n) in nodes.iter().enumerate() {
            if i > 0 {
                self.put(",");
            }
            self.num(n);
        }
        self.put("]}\n");
    }

    /// Makes room for at least one more line: a [`GROWTH_DIVISOR`]th of
    /// what is written, but at least [`MIN_GROWTH`]. The run's length is
    /// unknown while it records, so the slack this leaves at the end is
    /// at most that last step.
    fn grow(&mut self) {
        let step = (self.0.len() / GROWTH_DIVISOR).max(MIN_GROWTH);
        self.0.reserve_exact(step);
    }
}

/// One JSONL line of a trace, read back.
#[derive(Debug, Clone, PartialEq)]
pub enum Line {
    /// An event line.
    Event(TraceEvent),
    /// A `{"ev":"path",…}` line: the path's id and its nodes.
    Path(u64, Vec<u32>),
}

/// Reads one line of [`Trace::to_jsonl`]'s output back, or says why it
/// is not one.
pub fn parse_line(line: &str) -> Result<Line, String> {
    match line.strip_prefix("{\"ev\":\"path\",\"path\":") {
        Some(rest) => {
            let (id, nodes) = rest
                .strip_suffix("]}")
                .and_then(|r| r.split_once(",\"nodes\":["))
                .ok_or_else(|| format!("not a path line: {line}"))?;
            let id = int(id, line)?;
            let nodes = match nodes {
                "" => Vec::new(),
                nodes => nodes
                    .split(',')
                    .map(|n| int32(n, line))
                    .collect::<Result<_, _>>()?,
            };
            Ok(Line::Path(id, nodes))
        }
        None => parse_event(line).map(Line::Event),
    }
}

/// An integer field's value.
fn int(text: &str, line: &str) -> Result<u64, String> {
    text.parse().map_err(|e| format!("{text} in {line}: {e}"))
}

/// A `u32` field's value.
fn int32(text: &str, line: &str) -> Result<u32, String> {
    text.parse().map_err(|e| format!("{text} in {line}: {e}"))
}

/// One flat JSONL object's fields, split once: (key, raw value).
struct Fields<'a> {
    line: &'a str,
    pairs: [(&'a str, &'a str); 10],
    len: usize,
}

impl<'a> Fields<'a> {
    /// Splits an event line (no nested values).
    fn of(line: &'a str) -> Result<Self, String> {
        let mut f = Fields {
            line,
            pairs: [("", ""); 10],
            len: 0,
        };
        let body = line
            .strip_prefix('{')
            .and_then(|b| b.strip_suffix('}'))
            .ok_or_else(|| format!("not an object: {line}"))?;
        for pair in body.split(',') {
            let (key, value) = pair
                .split_once(':')
                .ok_or_else(|| format!("a field without a value in {line}"))?;
            let slot = f
                .pairs
                .get_mut(f.len)
                .ok_or_else(|| format!("too many fields in {line}"))?;
            *slot = (key.trim_matches('"'), value);
            f.len += 1;
        }
        Ok(f)
    }

    fn raw(&self, key: &str) -> Result<&'a str, String> {
        let found = self.pairs[..self.len].iter().find(|p| p.0 == key);
        found
            .map(|p| p.1)
            .ok_or_else(|| format!("no {key} in {}", self.line))
    }

    fn int(&self, key: &str) -> Result<u64, String> {
        int(self.raw(key)?, self.line)
    }

    fn int32(&self, key: &str) -> Result<u32, String> {
        int32(self.raw(key)?, self.line)
    }

    fn amount(&self, key: &str) -> Result<Amount, String> {
        self.int(key).map(Amount::from_drops)
    }

    fn flag(&self, key: &str) -> Result<bool, String> {
        match self.raw(key)? {
            "true" => Ok(true),
            "false" => Ok(false),
            other => Err(format!("{key} is {other} in {}", self.line)),
        }
    }

    fn reason(&self) -> Result<Option<DropReason>, String> {
        match self.raw("reason")? {
            "null" => Ok(None),
            text => {
                let name = text.trim_matches('"');
                let found = REASONS.iter().find(|&&r| reason_str(r) == name);
                found
                    .map(|&r| Some(r))
                    .ok_or_else(|| format!("unknown reason in {}", self.line))
            }
        }
    }
}

/// Reads one event line back into its record.
pub fn parse_event(line: &str) -> Result<TraceEvent, String> {
    let f = Fields::of(line)?;
    let payment = || f.int("payment").map(PaymentId);
    let path = || f.int32("path").map(PathId);
    let channel = || f.int32("channel").map(ChannelId);
    let unit = || f.int("unit");
    let amount = || f.amount("amount_drops");
    let kind = match f.raw("ev")?.trim_matches('"') {
        "arrival" => TraceEventKind::PaymentArrival {
            payment: payment()?,
            src: NodeId(f.int32("src")?),
            dst: NodeId(f.int32("dst")?),
            amount: amount()?,
        },
        "route" => TraceEventKind::RouteProposal {
            payment: payment()?,
            attempt: f.int32("attempt")?,
            path: path()?,
            amount: amount()?,
        },
        "lock" => TraceEventKind::LockOutcome {
            payment: payment()?,
            path: path()?,
            amount: amount()?,
            ok: f.flag("ok")?,
        },
        "inject" => TraceEventKind::UnitInjected {
            payment: payment()?,
            unit: unit()?,
            path: path()?,
            amount: amount()?,
        },
        "enqueue" => TraceEventKind::UnitEnqueued {
            unit: unit()?,
            channel: channel()?,
            qlen: f.int32("qlen")?,
        },
        "forward" => TraceEventKind::UnitForwarded {
            unit: unit()?,
            channel: channel()?,
            hop: f.int32("hop")?,
        },
        "deliver" => TraceEventKind::UnitDelivered { unit: unit()? },
        "settle" => TraceEventKind::UnitSettled {
            payment: payment()?,
            amount: amount()?,
            path: path()?,
        },
        "drop" => TraceEventKind::UnitDropped {
            unit: unit()?,
            reason: f
                .reason()?
                .ok_or_else(|| format!("a drop without a reason: {line}"))?,
            attempts: f.int32("attempts")?,
        },
        "ack" => TraceEventKind::UnitAcked {
            payment: payment()?,
            unit: unit()?,
            delivered: f.flag("delivered")?,
            marked: f.flag("marked")?,
        },
        "complete" => TraceEventKind::PaymentCompleted {
            payment: payment()?,
            latency_us: f.int("latency_us")?,
        },
        "expire" => TraceEventKind::PaymentExpired {
            payment: payment()?,
            remaining: f.amount("remaining_drops")?,
            rejected: f.flag("rejected")?,
        },
        "topology" => TraceEventKind::TopologyChanged {
            closed: f.int32("closed")?,
            opened: f.int32("opened")?,
            resized: f.int32("resized")?,
        },
        "fault" => TraceEventKind::FaultApplied {
            node: NodeId(f.int32("node")?),
            crashed: f.flag("crashed")?,
        },
        "refund" => TraceEventKind::UnitRefunded {
            payment: payment()?,
            amount: amount()?,
            path: path()?,
            attempts: f.int32("attempts")?,
            reason: f.reason()?,
        },
        "channel" => TraceEventKind::ChannelUpdated {
            channel: channel()?,
            closed: f.flag("closed")?,
            capacity: f.amount("capacity_drops")?,
            fwd: f.amount("fwd_drops")?,
            bwd: f.amount("bwd_drops")?,
        },
        "deposit" => TraceEventKind::Deposit {
            channel: channel()?,
            dir: match f.int("dir")? {
                0 => Direction::Forward,
                1 => Direction::Backward,
                other => return Err(format!("dir {other} in {line}")),
            },
            amount: amount()?,
        },
        other => return Err(format!("unknown record {other}: {line}")),
    };
    Ok(TraceEvent {
        seq: f.int("seq")?,
        t_us: f.int("t_us")?,
        kind,
    })
}
#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::fmt::Write as _;

    /// The `core::fmt` renderer the writer replaced, kept as the
    /// reference the writer must equal byte for byte.
    fn reference_jsonl(events: &[TraceEvent], paths: &[(u64, Vec<u32>)]) -> String {
        let mut out = String::new();
        write_reference(&mut out, events, paths).expect("string write");
        out
    }

    fn write_reference(
        out: &mut String,
        events: &[TraceEvent],
        paths: &[(u64, Vec<u32>)],
    ) -> std::fmt::Result {
        for e in events {
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
        for (id, nodes) in paths {
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

        /// `events` events cycling through all 17 variants, numbered in
        /// order.
        fn events(&mut self, events: usize) -> Vec<TraceEvent> {
            (0..events as u64)
                .map(|seq| TraceEvent {
                    seq,
                    t_us: self.int(),
                    kind: self.kind(seq),
                })
                .collect()
        }

        /// `paths` path lines of up to five nodes.
        fn paths(&mut self, paths: usize) -> Vec<(u64, Vec<u32>)> {
            (0..paths)
                .map(|_| {
                    let id = self.int();
                    let len = self.rng.below(6);
                    (id, (0..len).map(|_| self.int32()).collect())
                })
                .collect()
        }
    }

    /// A sink that recorded `events`, in order.
    fn recorded(events: &[TraceEvent]) -> TraceSink {
        let mut sink = TraceSink::new();
        for e in events {
            sink.record(e.t_us, e.kind.clone());
        }
        sink
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
        let t = s.finish(Vec::new());
        assert_eq!(t.len(), 4);
        let seqs: Vec<u64> = t.events().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2, 3]);
    }

    /// Record order survives the hand-off chunks: the worker renders
    /// every line, in order, and the seal adds the open chunk's after.
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

    /// The worker grows the text a step at a time and the path lines are
    /// appended into its slack or exactly past it: whatever the mix of
    /// long and short lines, the output ends at most one step
    /// (a [`GROWTH_DIVISOR`]th of itself, or [`MIN_GROWTH`]) over what it
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
            let step = (out.len() / GROWTH_DIVISOR).max(MIN_GROWTH);
            assert!(
                out.capacity() <= out.len() + step,
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
            assert_eq!(w.0, n.to_string());
        }
    }

    /// Traces of 0, 1, 4095, 4096, 4097 and 3·4096+7 events of every
    /// variant: the worker's text equals the reference across chunk
    /// boundaries.
    #[test]
    fn writer_matches_reference_across_chunk_boundaries() {
        for n in [0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 7] {
            let mut g = Gen::new(n as u64);
            let (events, paths) = (g.events(n), g.paths(3));
            let want = reference_jsonl(&events, &paths);
            let got = recorded(&events).finish(paths).to_jsonl();
            assert!(got == want, "{n} events: writer != reference");
        }
    }

    /// Every variant, reason and flag with every integer (the sequence
    /// number too) at its maximum fits in [`MAX_LINE`], the room the
    /// worker keeps for a line.
    #[test]
    fn max_line_bounds_every_event() {
        let mut g = Gen::widest(1);
        let events: Vec<TraceEvent> = (0..17 * 64)
            .map(|i| TraceEvent {
                seq: u64::MAX,
                t_us: u64::MAX,
                kind: g.kind(i),
            })
            .collect();
        let want = reference_jsonl(&events, &[]);
        let longest = want.lines().map(|l| l.len() + 1).max();
        assert_eq!(longest, Some(212), "the longest is `channel`");
        assert!(longest <= Some(MAX_LINE));
        let mut rendered = Rendered::default();
        rendered.take(&events);
        assert_eq!(rendered.text.0, want);
    }

    /// The paths a `route`, `lock` or `inject` record names, across
    /// chunks, are resolved once each and in id order; a `settle` or
    /// `refund` path was named by its unit's `route` and adds none.
    #[test]
    fn finish_named_resolves_each_named_path_once_in_id_order() {
        let named = [5u32, 3, 5, 130, 64, 3, 0, u32::MAX, 1 << 20];
        let mut s = TraceSink::new();
        for i in 0..(CHUNK as u64 * 2 + 10) {
            let path = PathId(named[i as usize % named.len()]);
            let (payment, amount) = (PaymentId(i), Amount::from_drops(1));
            let kind = match i % 5 {
                0 => TraceEventKind::RouteProposal {
                    payment,
                    attempt: 0,
                    path,
                    amount,
                },
                1 => TraceEventKind::LockOutcome {
                    payment,
                    path,
                    amount,
                    ok: true,
                },
                2 => TraceEventKind::UnitInjected {
                    payment,
                    unit: i,
                    path,
                    amount,
                },
                3 => TraceEventKind::UnitSettled {
                    payment,
                    amount,
                    path: PathId(900),
                },
                _ => TraceEventKind::UnitDelivered { unit: i },
            };
            s.record(i, kind);
        }
        let t = s.finish_named(|id| vec![id.0, id.0.wrapping_add(1)]);
        let ids: Vec<(u64, Vec<u32>)> = [0, 3, 5, 64, 130, 1 << 20, u32::MAX]
            .into_iter()
            .map(|id| (u64::from(id), vec![id, id.wrapping_add(1)]))
            .collect();
        assert_eq!(t.paths, ids);
    }

    /// Dropping an unsealed sink waits for its worker: by the time `drop`
    /// returns, a slow worker has rendered every chunk handed to it and
    /// ended, rather than running on past its sink. The sleep only makes
    /// a drop that did not join fail; a joining drop passes however the
    /// threads interleave.
    #[test]
    fn an_unsealed_sink_joins_its_worker_on_drop() {
        use std::sync::atomic::{AtomicUsize, Ordering::SeqCst};
        static RENDERED: AtomicUsize = AtomicUsize::new(0);
        let mut s = TraceSink::new();
        s.worker = Some(Worker::spawn(|_, chunk| {
            std::thread::sleep(std::time::Duration::from_millis(20));
            RENDERED.fetch_add(chunk.len(), SeqCst);
        }));
        for i in 0..(3 * CHUNK as u64 + 1) {
            s.record(i, TraceEventKind::UnitDelivered { unit: i });
        }
        drop(s);
        assert_eq!(RENDERED.load(SeqCst), 3 * CHUNK);
    }

    /// A render worker that panics does not leave a short trace: its
    /// panic resumes where the sink is sealed.
    #[test]
    fn a_worker_panic_surfaces_at_seal() {
        let mut s = TraceSink::new();
        s.worker = Some(Worker::spawn(|_, _| panic!("planted render fault")));
        for i in 0..(CHUNK as u64 + 1) {
            s.record(i, TraceEventKind::UnitDelivered { unit: i });
        }
        let sealed =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| s.finish(Vec::new())));
        let panic = sealed.expect_err("the worker's panic reaches the seal");
        assert_eq!(panic.downcast_ref::<&str>(), Some(&"planted render fault"));
    }

    proptest! {
        /// Random traces of every variant with integers on digit-count
        /// edges, and their path lines: the worker's text equals the
        /// reference.
        #[test]
        fn writer_matches_reference_renderer(
            seed in 0u64..u64::MAX,
            events in 0usize..200,
            paths in 0usize..8
        ) {
            let mut g = Gen::new(seed);
            let (events, paths) = (g.events(events), g.paths(paths));
            let want = reference_jsonl(&events, &paths);
            prop_assert_eq!(recorded(&events).finish(paths).to_jsonl(), want);
        }

        /// The reader inverts the writer: every event and path line of a
        /// trace — its integers on digit-count edges or all at their
        /// maxima, its length on and beside chunk boundaries — parses
        /// back to what was recorded, through [`Trace::events`] and
        /// [`parse_line`] alike.
        #[test]
        fn decode_inverts_render(
            seed in 0u64..u64::MAX,
            size in 0usize..6,
            widest in 0u8..2
        ) {
            let n = [0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK][size];
            let mut g = if widest == 1 { Gen::widest(seed) } else { Gen::new(seed) };
            let (events, paths) = (g.events(n), g.paths(4));
            let t = recorded(&events).finish(paths.clone());
            prop_assert!(t.events().eq(events.iter().cloned()), "{n} events");
            let lines: Vec<Line> = t
                .to_jsonl()
                .lines()
                .map(|l| parse_line(l).expect("a rendered line parses"))
                .collect();
            let want: Vec<Line> = events
                .into_iter()
                .map(Line::Event)
                .chain(paths.into_iter().map(|(id, nodes)| Line::Path(id, nodes)))
                .collect();
            prop_assert!(lines == want, "{n} events");
        }
    }
}
