//! Live-topology churn events.
//!
//! Real payment-channel networks are not frozen snapshots: channels open,
//! close, deplete and get resized mid-flight, and nodes join and leave. A
//! [`TopologyEvent`] describes one such change at a simulated instant; the
//! engine injects them into its calendar and applies the mutation mid-run
//! (see `spider_sim::Simulation::set_topology_events`), while
//! `spider-dynamics` generates deterministic schedules of them from a
//! `DynamicsConfig`.
//!
//! The dense [`NodeId`]/[`ChannelId`] id spaces stay **stable across
//! churn**: a "closed" channel keeps its id and its escrowed funds (frozen,
//! unusable) and may later reopen; a channel that only comes into existence
//! mid-run is part of the union topology from the start, closed at `t = 0`
//! and opened by its event. This is what lets every cache, slab and CSR
//! structure survive churn without reindexing.

use crate::ids::{ChannelId, NodeId};
use crate::time::SimTime;
use crate::Amount;
use serde::Serialize;

/// One kind of mid-run topology mutation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub enum TopologyChange {
    /// An existing channel closes (cooperatively, or its funding party
    /// goes on-chain): its balances freeze, in-flight units crossing it
    /// fail back cleanly, and no new unit may lock it. Idempotent: closing
    /// a closed channel is a no-op.
    ChannelClose {
        /// The channel that closes.
        channel: ChannelId,
    },
    /// A closed channel (re)opens with the balances it froze with.
    /// Channels that only come into existence mid-run start closed at
    /// `t = 0` and open through this event. Idempotent on open channels.
    ChannelOpen {
        /// The channel that opens.
        channel: ChannelId,
    },
    /// The channel is resized toward `new_capacity` by an on-chain splice:
    /// growth deposits fresh funds split across both directions; shrinkage
    /// withdraws from the *available* balances only (in-flight funds are
    /// never clawed back, so the realized capacity may stay above the
    /// target until units settle).
    ChannelResize {
        /// The channel being resized.
        channel: ChannelId,
        /// Target total capacity after the splice.
        new_capacity: Amount,
    },
    /// `node` leaves the network: every one of its open channels closes
    /// (as [`TopologyChange::ChannelClose`] would, one by one).
    NodeLeave {
        /// The departing node.
        node: NodeId,
    },
    /// `node` rejoins: every one of its closed channels reopens.
    NodeJoin {
        /// The returning node.
        node: NodeId,
    },
}

/// A topology mutation scheduled at a simulated instant.
///
/// Events with `at == SimTime::ZERO` describe the *initial* state delta
/// (channels that start closed) and are applied before any payment or
/// router prewarm; later events fire from the simulation calendar in
/// `(at, schedule-order)` order, so runs stay bit-deterministic.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct TopologyEvent {
    /// When the change takes effect.
    pub at: SimTime,
    /// What changes.
    pub change: TopologyChange,
}
