//! # spider-protocol
//!
//! The decentralized, packet-switched Spider protocol of §5 — the paper's
//! headline contribution — as an online routing scheme for the simulator:
//!
//! * **Router queues** (hosted in `spider-sim` behind
//!   [`QueueingMode::PerChannelFifo`]): every channel direction owns a FIFO
//!   of transaction units; a unit that finds no balance waits instead of
//!   failing.
//! * **Price signaling** (`spider-sim::queue` + [`price`]): as a queued
//!   unit is serviced, the router computes a local price from its queueing
//!   delay and the channel's flow imbalance (the `x_u − x_v` term of
//!   §5.3), stamps it onto the unit, and *marks* the unit when either
//!   observable crosses its threshold. The stamp returns to the sender on
//!   the unit's acknowledgement; [`price::PathPriceEstimator`] smooths the
//!   acked stamps into a steerable per-path price.
//! * **Per-path source rate control** ([`rate`]): each (sender, path) pair
//!   runs an AIMD window on value in flight — additive increase on clean
//!   acks, multiplicative decrease on marked or failed ones — replacing
//!   the coarse per-pair window of `spider-core::congestion` for this
//!   mode.
//! * **[`ProtocolRouter`]**: splits each payment into MTU-sized units
//!   across `k` precomputed edge-disjoint paths, filling the
//!   cheapest-priced path's window first.
//!
//! ## The three operating modes
//!
//! | Mode | Where | What it models |
//! |---|---|---|
//! | Offline LP / waterfilling | `spider-routing` (`SpiderLp`, `SpiderWaterfilling`) | §5.2's fluid optimum, instant whole-path locking |
//! | AIMD window | `spider-core::congestion::Windowed` | §4.1's transport sketch over any inner scheme, lockstep |
//! | Queue + price protocol | this crate + `QueueingMode::PerChannelFifo` | §5's deployed protocol: queues, marking, per-path AIMD |
//!
//! Select the third mode by putting `SchemeConfig::SpiderProtocol` in an
//! experiment (which auto-enables queueing) or by constructing a
//! [`ProtocolRouter`] and a `SimConfig` with
//! `queueing: QueueingMode::PerChannelFifo(..)` directly.
//!
//! Everything is deterministic given the construction inputs; runs are
//! bit-reproducible per seed.
//!
//! [`QueueingMode::PerChannelFifo`]: spider_sim::QueueingMode::PerChannelFifo

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::panic)]

pub mod price;
pub mod rate;
pub mod router;

pub use price::PathPriceEstimator;
pub use rate::{PathController, RateConfig};
pub use router::{ProtocolConfig, ProtocolRouter};
