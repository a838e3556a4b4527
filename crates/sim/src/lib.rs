//! # spider-sim
//!
//! A deterministic discrete-event simulator for payment channel networks,
//! modeled on the simulator of §6.1:
//!
//! * bidirectional channels whose funds are split between the endpoints;
//! * source-routed transaction units that **lock funds in-flight along the
//!   whole path** and release them to the downstream parties after the
//!   confirmation delay Δ = 0.5 s (the hash-lock key round trip);
//! * a global queue of incomplete (non-atomic) payments, polled
//!   periodically and scheduled by SRPT (or FIFO / LIFO / EDF);
//! * per-payment deadlines after which the un-delivered remainder is
//!   canceled;
//! * pluggable routing via the [`Router`] trait (implementations live in
//!   `spider-routing`).
//!
//! Everything is driven by one seed; runs are bit-reproducible. Fund
//! conservation is asserted per channel after every state transition in
//! debug builds and checkable explicitly via
//! [`engine::Simulation::check_conservation`].

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::panic)]

pub mod calendar;
pub mod chanindex;
pub mod channel;
pub mod config;
pub mod engine;
pub mod metrics;
pub mod monitor;
pub mod paths;
pub mod queue;
pub mod router;
pub mod workload;

pub use calendar::CalendarQueue;
pub use chanindex::ChannelIndex;
pub use channel::ChannelState;
pub use config::{
    AdmissionConfig, ObsConfig, QueueConfig, QueueingMode, SchedulingPolicy, SimConfig,
};
pub use engine::{Simulation, SlabStats};
pub use metrics::{DropBreakdown, SimReport};
pub use monitor::{InvariantMonitor, InvariantReport, InvariantViolation};
pub use paths::{PathEntry, PathTable};
pub use router::{
    NetworkView, RouteProposal, RouteRequest, Router, RouterObs, TopologyUpdate, UnitAck,
    UnitOutcome,
};
pub use spider_obs::{
    ChannelHotspot, DropRecord, FlightRecorder, Histogram, PhaseStats, ProfileStats, RootCauseRow,
    SampleSet, Trace,
};
pub use workload::{
    ArrivalSource, SizeDistribution, StreamingWorkload, TxnSpec, Workload, WorkloadConfig,
};
