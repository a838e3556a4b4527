//! # spider-types
//!
//! Foundation types shared by every crate in the Spider payment-channel-network
//! reproduction: fixed-point currency amounts, simulation time, entity
//! identifiers, error types, deterministic random-number utilities and the
//! probability distributions used by the workload generators.
//!
//! The paper ("Routing Cryptocurrency with the Spider Network", the arXiv
//! precursor of the NSDI 2020 Spider paper) measures everything in XRP.
//! Ripple's native integer unit is the *drop* (1 XRP = 10^6 drops), so
//! [`Amount`] is a fixed-point integer count of drops. Integer arithmetic
//! keeps the simulator deterministic and conservation-checkable to the drop.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::panic)]

pub mod amount;
pub mod check;
pub mod distr;
pub mod error;
pub mod event;
pub mod ids;
pub mod rng;
pub mod stats;
pub mod time;
pub mod unit;

pub use amount::{Amount, SignedAmount, DROPS_PER_XRP};
pub use error::{Result, SpiderError};
pub use event::{TopologyChange, TopologyEvent};
pub use ids::{
    ChannelId, Direction, Hop, IdHash, IdHashMap, IdHashSet, IdHasher, NodeId, PathId, PaymentId,
    UnitId,
};
pub use rng::DetRng;
pub use time::{SimDuration, SimTime};
pub use unit::{DropReason, MarkStamp};
