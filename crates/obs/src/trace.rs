//! Payment-lifecycle tracing.
//!
//! [`TraceSink`] records one structured [`TraceEvent`] per payment
//! transition: arrival, route decisions with the chosen [`PathId`]s,
//! per-hop queue/forward movement, settlement, and drops with their
//! [`DropReason`]. Events are ordered by an engine-assigned sequence
//! number (never wall clock), so two runs of the same seed produce
//! byte-identical traces — the golden-trace tests pin exactly that.
//!
//! Emission formats:
//! * **JSONL** ([`Trace::to_jsonl`]) — one event per line, hand-written
//!   with a fixed field order (stable across serde-shim changes), plus
//!   trailing `"ev":"path"` lines resolving every referenced [`PathId`]
//!   to its node list.
//! * **Chrome `trace_event`** ([`Trace::to_chrome_trace`]) — payments as
//!   complete (`"X"`) slices and drops as instant events, loadable in
//!   chrome://tracing or Perfetto.
//!
//! Storage is chunked (4096 events per slab) so long traces never
//! reallocate-and-copy the whole buffer.

use spider_types::{Amount, ChannelId, DropReason, NodeId, PathId, PaymentId};
use std::fmt::Write as _;

/// Events per storage chunk.
const CHUNK: usize = 4096;

/// How many events from the head of every storage chunk
/// [`Trace::to_jsonl`] renders ahead of time to learn how long this
/// trace's records are. (Runs of neighbours, not every n-th event: a
/// trace is full of short cycles that a fixed stride can fall in step
/// with.)
const JSONL_SAMPLE_RUN: usize = 32;

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
    },
    /// A unit was dropped in transit.
    UnitDropped {
        /// The unit.
        unit: u64,
        /// Why.
        reason: DropReason,
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
    /// A payment's deadline passed with value undelivered.
    PaymentExpired {
        /// The payment.
        payment: PaymentId,
        /// Undelivered remainder.
        remaining: Amount,
    },
    /// A topology-churn event changed channel state.
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
    /// settling: the payment expired between lock and settle, or an
    /// injected fault consumed the unit.
    UnitRefunded {
        /// The payment.
        payment: PaymentId,
        /// Refunded value.
        amount: Amount,
        /// Why the unit failed.
        reason: DropReason,
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
    pub fn to_jsonl(&self) -> String {
        let render = |out: &mut String, e: &TraceEvent| {
            write!(out, "{{\"seq\":{},\"t_us\":{},", e.seq, e.t_us).expect("string write");
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
                TraceEventKind::UnitSettled { payment, amount } => write!(
                    out,
                    "\"ev\":\"settle\",\"payment\":{},\"amount_drops\":{}",
                    payment.0,
                    amount.drops()
                ),
                TraceEventKind::UnitDropped { unit, reason } => write!(
                    out,
                    "\"ev\":\"drop\",\"unit\":{},\"reason\":\"{}\"",
                    unit,
                    reason_str(*reason)
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
                TraceEventKind::PaymentExpired { payment, remaining } => write!(
                    out,
                    "\"ev\":\"expire\",\"payment\":{},\"remaining_drops\":{}",
                    payment.0,
                    remaining.drops()
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
                    reason,
                } => write!(
                    out,
                    "\"ev\":\"refund\",\"payment\":{},\"amount_drops\":{},\"reason\":\"{}\"",
                    payment.0,
                    amount.drops(),
                    reason_str(*reason)
                ),
            }
            .expect("string write");
            out.push_str("}\n");
        };
        let mut paths = String::new();
        for (id, nodes) in &self.paths {
            write!(paths, "{{\"ev\":\"path\",\"path\":{id},\"nodes\":[").expect("string write");
            for (i, n) in nodes.iter().enumerate() {
                if i > 0 {
                    paths.push(',');
                }
                write!(paths, "{n}").expect("string write");
            }
            paths.push_str("]}\n");
        }
        // Size the output from this trace's own bytes per record: a guess
        // that falls short makes the string double past the whole output
        // on its way up (a fixed 64 bytes an event ended at 354 MB of
        // capacity to hold 245 MB of records averaging 88.7). The path
        // lines above are exact; the event lines are estimated from a
        // sample, plus 1/32.
        let mut sample = String::new();
        let mut sampled = 0;
        for e in self
            .chunks
            .iter()
            .flat_map(|c| c.iter().take(JSONL_SAMPLE_RUN))
        {
            render(&mut sample, e);
            sampled += 1;
        }
        let events = sample.len() * self.len() / sampled.max(1);
        let mut out = String::with_capacity(events + events / 32 + paths.len());
        for e in self.events() {
            render(&mut out, e);
        }
        out.push_str(&paths);
        out
    }

    /// Renders the Chrome `trace_event` JSON array: each completed
    /// payment becomes a complete (`"X"`) slice from arrival to
    /// completion on its own thread row, each drop an instant (`"i"`)
    /// event. Load in chrome://tracing or Perfetto.
    pub fn to_chrome_trace(&self) -> String {
        let mut out = String::from("[");
        let mut first = true;
        let mut emit = |s: String, out: &mut String| {
            if !std::mem::take(&mut first) {
                out.push(',');
            }
            out.push('\n');
            out.push_str(&s);
        };
        // Arrival instants by payment, to anchor the completion slices.
        let mut arrivals: Vec<(u64, u64)> = Vec::new();
        for e in self.events() {
            match &e.kind {
                TraceEventKind::PaymentArrival {
                    payment, amount, ..
                } => {
                    arrivals.push((payment.0, e.t_us));
                    emit(
                        format!(
                            "{{\"name\":\"arrival\",\"ph\":\"i\",\"ts\":{},\"pid\":0,\"tid\":{},\"s\":\"t\",\"args\":{{\"amount_drops\":{}}}}}",
                            e.t_us,
                            payment.0,
                            amount.drops()
                        ),
                        &mut out,
                    );
                }
                TraceEventKind::PaymentCompleted {
                    payment,
                    latency_us,
                } => {
                    let start = arrivals
                        .iter()
                        .rev()
                        .find(|&&(p, _)| p == payment.0)
                        .map(|&(_, t)| t)
                        .unwrap_or(e.t_us.saturating_sub(*latency_us));
                    emit(
                        format!(
                            "{{\"name\":\"payment {}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":0,\"tid\":{}}}",
                            payment.0, start, latency_us, payment.0
                        ),
                        &mut out,
                    );
                }
                TraceEventKind::UnitDropped { unit, reason } => {
                    emit(
                        format!(
                            "{{\"name\":\"drop:{}\",\"ph\":\"i\",\"ts\":{},\"pid\":0,\"tid\":{},\"s\":\"t\"}}",
                            reason_str(*reason),
                            e.t_us,
                            unit
                        ),
                        &mut out,
                    );
                }
                TraceEventKind::UnitRefunded {
                    payment, reason, ..
                } => {
                    emit(
                        format!(
                            "{{\"name\":\"refund:{}\",\"ph\":\"i\",\"ts\":{},\"pid\":0,\"tid\":{},\"s\":\"t\"}}",
                            reason_str(*reason),
                            e.t_us,
                            payment.0
                        ),
                        &mut out,
                    );
                }
                TraceEventKind::FaultApplied { node, crashed } => {
                    emit(
                        format!(
                            "{{\"name\":\"{}:{}\",\"ph\":\"i\",\"ts\":{},\"pid\":0,\"tid\":0,\"s\":\"g\"}}",
                            if *crashed { "crash" } else { "recover" },
                            node.0,
                            e.t_us
                        ),
                        &mut out,
                    );
                }
                _ => {}
            }
        }
        out.push_str("\n]\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    }

    #[test]
    fn jsonl_is_deterministic_and_line_per_event() {
        let t = sample_sink().finish(vec![(3, vec![1, 0, 2])]);
        let a = t.to_jsonl();
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

    /// The output is sized from the trace's own records: whatever the mix
    /// of long and short lines, the string is allocated once, a little
    /// over what it ends up holding — never doubled on the way.
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

    #[test]
    fn chrome_trace_is_a_json_array_with_slices() {
        let t = sample_sink().finish(Vec::new());
        let c = t.to_chrome_trace();
        assert!(c.trim_start().starts_with('['), "{c}");
        assert!(c.trim_end().ends_with(']'), "{c}");
        assert!(c.contains("\"ph\":\"X\""), "completion slice: {c}");
        assert!(c.contains("\"dur\":1000"), "{c}");
        assert!(c.contains("drop:queue_timeout"), "{c}");
    }

    #[test]
    fn empty_trace_renders_empty_outputs() {
        let t = TraceSink::new().finish(Vec::new());
        assert!(t.is_empty());
        assert_eq!(t.to_jsonl(), "");
        assert_eq!(t.to_chrome_trace(), "[\n]\n");
    }
}
