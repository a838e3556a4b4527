//! # spider-obs
//!
//! The observability layer for the Spider simulator: everything the
//! engine can tell you about a run beyond the end-of-run aggregates.
//!
//! * [`trace`] — payment-lifecycle tracing: a zero-cost-when-disabled
//!   [`TraceSink`] records a structured event for every payment
//!   transition (arrival → route decision → per-hop lock/queue/forward →
//!   settle/fail) and every change to a channel's funds, ordered by a
//!   deterministic event sequence number so traces are golden-testable.
//!   A render worker thread writes the JSONL while the run records, so a
//!   sealed [`Trace`] is that text; [`trace::parse_line`] reads it back.
//!   The worker is the crate's one thread, and it never outlives its
//!   sink.
//! * [`ledger`] — the balance replay: [`LedgerReplay`] rebuilds every
//!   channel's balances and locks from the event stream alone and turns
//!   each record into a [`Fact`] — a drop with its balances, a delivery
//!   with its bottleneck, a queue wait — so an auditor can rebuild what
//!   the forensics and attribution recorded from the trace.
//! * [`hist`] — fixed-bucket log-scale [`Histogram`]s for latency,
//!   queue-delay, path-length, and AIMD-window distributions.
//! * [`sampler`] — a unified time-series [`Sampler`] registry: one
//!   cadence, one output schema ([`SampleSet`]) for every per-second
//!   series the engine probes (imbalance, queue occupancy, in-flight
//!   units, calendar occupancy, AIMD window sum, mean channel price).
//! * [`profile`] — monotonic-clock [`Profiler`] timing the engine's
//!   phases (calendar pop, routing, forwarding, settlement, churn
//!   repair, sampling, the prewarm's pair listing and fill, arrival
//!   generation) into [`ProfileStats`]: exact counts, totals
//!   estimated from a random sample of event-loop iterations.
//! * [`attribution`] — per-channel hotspot accumulators (utilization /
//!   starvation / imbalance integrals, queue residency, drop and
//!   bottleneck counts) reduced into a deterministic top-K
//!   [`ChannelHotspot`] table.
//! * [`forensics`] — a bounded [`FlightRecorder`] ring of structured
//!   per-drop records plus an exact reason×channel root-cause table.
//!
//! The crate depends only on `spider-types`; the engine owns the
//! integration points. Everything here is deterministic except the
//! profiler's wall-clock durations, which never feed back into the
//! simulation.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::panic)]

pub mod attribution;
pub mod forensics;
pub mod hist;
pub mod ledger;
pub mod profile;
pub mod sampler;
pub mod trace;

pub use attribution::{ChannelAttribution, ChannelHotspot, ChannelSample, HOTSPOT_K};
pub use forensics::{DropRecord, FlightRecorder, RootCauseRow};
pub use hist::Histogram;
pub use ledger::{ChannelFunds, Fact, LedgerReplay};
pub use profile::{Iteration, Phase, PhaseStats, ProfileStats, Profiler};
pub use sampler::{SampleSeries, SampleSet, Sampler, SamplerConfig, NUM_SERIES, SERIES_NAMES};
pub use trace::{Trace, TraceEvent, TraceEventKind, TraceSink};
