//! Error types shared across the workspace.

use crate::ids::{ChannelId, NodeId, PaymentId};
use std::fmt;

/// Convenient result alias using [`SpiderError`].
pub type Result<T> = std::result::Result<T, SpiderError>;

/// Errors produced anywhere in the Spider stack.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SpiderError {
    /// A node id referenced a node that does not exist in the topology.
    UnknownNode(NodeId),
    /// Two nodes are not adjacent but an operation required a direct channel.
    NotAdjacent(NodeId, NodeId),
    /// No route could be found between two nodes.
    NoRoute(NodeId, NodeId),
    /// A channel direction lacked the balance for a transfer.
    InsufficientBalance {
        /// The starved channel.
        channel: ChannelId,
        /// Amount requested, in drops.
        requested: u64,
        /// Amount available, in drops.
        available: u64,
    },
    /// A payment id was not found (already completed, or never submitted).
    UnknownPayment(PaymentId),
    /// The linear program was infeasible.
    Infeasible,
    /// The linear program was unbounded.
    Unbounded,
    /// An iterative solver failed to converge within its iteration budget.
    NoConvergence {
        /// Iterations performed before giving up.
        iterations: usize,
    },
    /// Parsing external data (topology file, trace) failed.
    Parse(String),
    /// An invalid configuration value was supplied.
    InvalidConfig(String),
}

impl fmt::Display for SpiderError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpiderError::UnknownNode(n) => write!(f, "unknown node {n}"),
            SpiderError::NotAdjacent(a, b) => write!(f, "nodes {a} and {b} share no channel"),
            SpiderError::NoRoute(a, b) => write!(f, "no route from {a} to {b}"),
            SpiderError::InsufficientBalance {
                channel,
                requested,
                available,
            } => write!(
                f,
                "insufficient balance on {channel}: requested {requested} drops, have {available}"
            ),
            SpiderError::UnknownPayment(p) => write!(f, "unknown payment {p}"),
            SpiderError::Infeasible => write!(f, "linear program is infeasible"),
            SpiderError::Unbounded => write!(f, "linear program is unbounded"),
            SpiderError::NoConvergence { iterations } => {
                write!(f, "solver did not converge after {iterations} iterations")
            }
            SpiderError::Parse(msg) => write!(f, "parse error: {msg}"),
            SpiderError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
        }
    }
}

impl std::error::Error for SpiderError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert_eq!(
            SpiderError::UnknownNode(NodeId(3)).to_string(),
            "unknown node n3"
        );
        assert_eq!(
            SpiderError::NoRoute(NodeId(1), NodeId(2)).to_string(),
            "no route from n1 to n2"
        );
        let e = SpiderError::InsufficientBalance {
            channel: ChannelId(0),
            requested: 10,
            available: 5,
        };
        assert_eq!(
            e.to_string(),
            "insufficient balance on ch0: requested 10 drops, have 5"
        );
        assert_eq!(
            SpiderError::Infeasible.to_string(),
            "linear program is infeasible"
        );
    }

    #[test]
    fn is_std_error() {
        fn takes_err(_e: &dyn std::error::Error) {}
        takes_err(&SpiderError::Unbounded);
    }
}
