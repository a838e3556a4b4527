//! Transaction-unit price/marking metadata (§5's decentralized signaling).
//!
//! In the online Spider protocol, routers do not drop transaction units
//! that find an empty channel direction — they queue them, compute a local
//! *price* from the queueing delay and the channel's flow imbalance
//! (the `x_u − x_v` term of §5.3), and **mark** transiting units when the
//! local signal crosses a threshold. The sender's per-path rate controller
//! backs off on marked acknowledgements and probes upward on clean ones.
//!
//! [`MarkStamp`] is the piece of state a unit accumulates on its way:
//! each hop folds its local signal in with [`MarkStamp::absorb`], and the
//! final stamp travels back to the sender on the unit's acknowledgement.

use serde::{Deserialize, Serialize};

use crate::time::SimDuration;

/// Price-signal metadata carried by one transaction unit across its path.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MarkStamp {
    /// Set when any hop's local congestion signal crossed its marking
    /// threshold (the router "marks the packet").
    pub marked: bool,
    /// Sum of per-hop prices along the path — the path price `∑ z_e` the
    /// sender's controller steers on.
    pub price: f64,
    /// Largest single-hop queueing delay the unit experienced.
    pub max_queue_delay: SimDuration,
}

impl MarkStamp {
    /// A fresh, unmarked stamp (what a unit carries at injection).
    pub const CLEAR: MarkStamp = MarkStamp {
        marked: false,
        price: 0.0,
        max_queue_delay: SimDuration::ZERO,
    };

    /// Folds one hop's local signal into the stamp.
    pub fn absorb(&mut self, hop_price: f64, hop_marked: bool, queue_delay: SimDuration) {
        self.marked |= hop_marked;
        self.price += hop_price;
        if queue_delay > self.max_queue_delay {
            self.max_queue_delay = queue_delay;
        }
    }
}

impl Default for MarkStamp {
    fn default() -> Self {
        MarkStamp::CLEAR
    }
}

/// Why a transaction unit was dropped before reaching its destination.
///
/// Declaration order is the sort order of the forensics root-cause table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum DropReason {
    /// The unit waited in a router queue longer than the configured bound.
    QueueTimeout,
    /// The router queue it needed was full on arrival.
    QueueOverflow,
    /// Its payment's deadline passed while it was still in flight.
    Expired,
    /// A channel on its path closed (topology churn) while it was in
    /// flight; every locked hop was refunded.
    ChannelClosed,
    /// The unit's forwarding message (or its acknowledgement) was lost in
    /// transit (fault injection); the per-hop timeout fired and every
    /// locked upstream hop was refunded.
    MessageLost,
    /// A hop silently held the unit (a stuck HTLC) past the per-hop
    /// timeout; the timeout canceled it and refunded every locked hop.
    HopTimeout,
    /// A node on its path crashed while the unit was in flight; every
    /// locked hop was refunded.
    NodeCrashed,
    /// Evicted by deadline-aware overload shedding: a full queue chose to
    /// drop the unit least likely to meet its deadline (which may be the
    /// newcomer itself) rather than tail-drop blindly.
    Shed,
    /// Fail-fasted by sender-side admission control before entering any
    /// queue: the network was judged too loaded to carry it in time.
    AdmissionRejected,
}

impl DropReason {
    /// True for the drop reasons produced only by fault injection
    /// (`spider-faults`): lost messages, hop timeouts, node crashes.
    /// Zero-fault runs never produce these, which is what lets retry
    /// backoff react to them without perturbing fault-free goldens.
    pub fn is_fault(self) -> bool {
        matches!(
            self,
            DropReason::MessageLost | DropReason::HopTimeout | DropReason::NodeCrashed
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clear_stamp_is_neutral() {
        let s = MarkStamp::CLEAR;
        assert!(!s.marked);
        assert_eq!(s.price, 0.0);
        assert_eq!(s.max_queue_delay, SimDuration::ZERO);
        assert_eq!(MarkStamp::default(), s);
    }

    #[test]
    fn absorb_accumulates_price_and_mark() {
        let mut s = MarkStamp::CLEAR;
        s.absorb(0.25, false, SimDuration::from_millis(5));
        assert!(!s.marked);
        s.absorb(0.5, true, SimDuration::from_millis(80));
        s.absorb(0.125, false, SimDuration::from_millis(3));
        assert!(s.marked, "a single marked hop marks the unit");
        assert!((s.price - 0.875).abs() < 1e-12);
        assert_eq!(s.max_queue_delay, SimDuration::from_millis(80));
    }

    #[test]
    fn serde_round_trip() {
        let mut s = MarkStamp::CLEAR;
        s.absorb(1.5, true, SimDuration::from_millis(42));
        let v = serde::Serialize::to_value(&s);
        let back: MarkStamp = serde::Deserialize::from_value(&v).unwrap();
        assert_eq!(back, s);
        for r in [
            DropReason::QueueTimeout,
            DropReason::QueueOverflow,
            DropReason::Expired,
            DropReason::ChannelClosed,
            DropReason::MessageLost,
            DropReason::HopTimeout,
            DropReason::NodeCrashed,
            DropReason::Shed,
            DropReason::AdmissionRejected,
        ] {
            let v = serde::Serialize::to_value(&r);
            let back: DropReason = serde::Deserialize::from_value(&v).unwrap();
            assert_eq!(back, r);
        }
    }

    #[test]
    fn fault_reasons_are_exactly_the_injected_ones() {
        assert!(DropReason::MessageLost.is_fault());
        assert!(DropReason::HopTimeout.is_fault());
        assert!(DropReason::NodeCrashed.is_fault());
        assert!(!DropReason::QueueTimeout.is_fault());
        assert!(!DropReason::QueueOverflow.is_fault());
        assert!(!DropReason::Expired.is_fault());
        assert!(!DropReason::ChannelClosed.is_fault());
        // Overload protection is congestion response, not fault injection:
        // these must never trip the fault backoff.
        assert!(!DropReason::Shed.is_fault());
        assert!(!DropReason::AdmissionRejected.is_fault());
    }
}
