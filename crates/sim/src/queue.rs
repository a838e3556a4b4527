//! Router-local price signaling for the §5 queueing model.
//!
//! When the engine runs with [`QueueingMode::PerChannelFifo`], every
//! channel direction owns a FIFO queue of transaction units. As a unit is
//! serviced (balance becomes available and it crosses the hop), the router
//! computes a **local congestion signal** from two observables:
//!
//! * the unit's **queueing delay** at this hop — the `q_(u,v)` term the
//!   paper estimates from queue growth; and
//! * the channel's **flow imbalance** — the normalized difference of the
//!   volumes serviced in the two directions, the paper's `x_u − x_v` term:
//!   a direction that persistently carries more volume than its reverse
//!   will deplete the channel no matter how large the queue is.
//!
//! The signal has two outputs: a scalar **price** stamped (summed) onto
//! the unit, and a **mark** bit set when either observable crosses its
//! threshold. Senders see the aggregated stamp on the unit's ack and run
//! AIMD per-path rate control on it (`spider-protocol`).
//!
//! [`QueueingMode::PerChannelFifo`]: crate::config::QueueingMode::PerChannelFifo

use spider_types::{Amount, SimDuration};

/// Units whose queueing delay at a hop exceeds this are marked (the
/// router's threshold rule on queue delay).
pub const MARKING_DELAY: SimDuration = SimDuration::from_millis(150);

/// Units are also marked when the channel's one-way flow share
/// `(x_d − x_rev) / (x_d + x_rev)` exceeds this (the paper's imbalance
/// term `x_u − x_v`, normalized) *and* the sending direction is close to
/// depletion (see [`DEPLETION_FRACTION`]).
pub const IMBALANCE_THRESHOLD: f64 = 0.4;

/// Imbalance marking fires only when the sending side's available
/// balance is below this fraction of channel capacity: persistent one-way
/// flow is only a congestion signal once it threatens to drain the
/// channel.
pub const DEPLETION_FRACTION: f64 = 0.2;

/// Weight of queueing delay (seconds) in the stamped price.
pub const QUEUE_PRICE_WEIGHT: f64 = 1.0;

/// Weight of the normalized flow imbalance in the stamped price.
pub const IMBALANCE_PRICE_WEIGHT: f64 = 0.5;

/// One hop's local congestion signal for a transiting unit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueueSignal {
    /// The hop's price contribution (≥ 0).
    pub price: f64,
    /// Whether the hop marks the unit.
    pub marked: bool,
}

/// Normalized flow imbalance of a channel direction:
/// `(sent − sent_reverse) / (sent + sent_reverse)` ∈ [−1, 1], zero when the
/// channel has carried no volume yet.
pub fn flow_imbalance(sent: Amount, sent_reverse: Amount) -> f64 {
    let total = sent.drops() as f64 + sent_reverse.drops() as f64;
    if total <= 0.0 {
        0.0
    } else {
        (sent.drops() as f64 - sent_reverse.drops() as f64) / total
    }
}

/// Computes one hop's local signal for a unit serviced after waiting
/// `queue_delay`, on a channel that has serviced `sent` volume in the
/// unit's direction and `sent_reverse` the other way, and whose sending
/// side retains `available_fraction` of capacity after the unit's lock.
pub fn local_signal(
    queue_delay: SimDuration,
    sent: Amount,
    sent_reverse: Amount,
    available_fraction: f64,
) -> QueueSignal {
    let imbalance = flow_imbalance(sent, sent_reverse);
    // Price: delay plus only the *adverse* part of imbalance (sending in
    // the direction that already carried more volume is what depletes).
    let price = QUEUE_PRICE_WEIGHT * queue_delay.as_secs_f64()
        + IMBALANCE_PRICE_WEIGHT * imbalance.max(0.0);
    // Imbalance alone is a steering signal, not a congestion signal: it
    // marks only when the flow skew is actually about to drain the side
    // it is sending from.
    let depleting = imbalance > IMBALANCE_THRESHOLD && available_fraction < DEPLETION_FRACTION;
    let marked = queue_delay > MARKING_DELAY || depleting;
    QueueSignal { price, marked }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xrp(x: u64) -> Amount {
        Amount::from_xrp(x)
    }

    #[test]
    fn imbalance_is_normalized_and_signed() {
        assert_eq!(flow_imbalance(Amount::ZERO, Amount::ZERO), 0.0);
        assert_eq!(flow_imbalance(xrp(10), Amount::ZERO), 1.0);
        assert_eq!(flow_imbalance(Amount::ZERO, xrp(10)), -1.0);
        assert!((flow_imbalance(xrp(30), xrp(10)) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn fresh_hop_is_unmarked_and_free() {
        let s = local_signal(SimDuration::ZERO, Amount::ZERO, Amount::ZERO, 0.5);
        assert!(!s.marked);
        assert_eq!(s.price, 0.0);
    }

    #[test]
    fn delay_past_threshold_marks() {
        let just_under = local_signal(MARKING_DELAY, xrp(1), xrp(1), 0.5);
        assert!(!just_under.marked, "delay equal to threshold does not mark");
        let over = local_signal(
            MARKING_DELAY + SimDuration::from_micros(1),
            xrp(1),
            xrp(1),
            0.5,
        );
        assert!(over.marked);
    }

    #[test]
    fn imbalance_marks_only_near_depletion() {
        // 4:1 flow skew (0.6 > 0.4) with plenty of balance left: steering
        // price, but no mark.
        let healthy = local_signal(SimDuration::ZERO, xrp(40), xrp(10), 0.5);
        assert!(!healthy.marked);
        assert!(healthy.price > 0.0);
        // Same skew with the sending side nearly drained: marked.
        let draining = local_signal(SimDuration::ZERO, xrp(40), xrp(10), 0.1);
        assert!(draining.marked);
        // ... but not at the depletion threshold itself.
        let at_depletion = local_signal(SimDuration::ZERO, xrp(40), xrp(10), DEPLETION_FRACTION);
        assert!(!at_depletion.marked);
        // Skew at the threshold does not mark even when drained.
        let at = local_signal(SimDuration::ZERO, xrp(70), xrp(30), 0.1);
        assert_eq!(flow_imbalance(xrp(70), xrp(30)), IMBALANCE_THRESHOLD);
        assert!(!at.marked);
        // Rebalancing direction (negative imbalance) never marks.
        let heal = local_signal(SimDuration::ZERO, xrp(10), xrp(40), 0.1);
        assert!(!heal.marked);
        assert_eq!(heal.price, 0.0, "rebalancing traffic is not priced");
    }

    #[test]
    fn price_combines_delay_and_imbalance() {
        let s = local_signal(SimDuration::from_millis(250), xrp(30), xrp(10), 0.5);
        // 1.0 * 0.25 s + 0.5 * 0.5 = 0.5
        assert!((s.price - 0.5).abs() < 1e-12);
    }
}
