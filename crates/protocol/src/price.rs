//! Sender-side path price estimation (§5.3).
//!
//! Routers stamp a price — queueing delay plus the adverse part of the
//! channel's flow imbalance, the discrete analogue of the paper's
//! `λ + µ` edge price with its `x_u − x_v` imbalance term — onto every
//! transiting unit (`spider-sim::queue`). The sender cannot observe router
//! state directly; it sees only the stamps coming back on unit
//! acknowledgements. [`PathPriceEstimator`] smooths those observations
//! into a per-path price the allocator can steer on, with failed units
//! (drops, timeouts) contributing a fixed penalty price ([`NACK_PRICE`])
//! so paths that eat units look expensive even though they return no
//! stamp sum.

use spider_types::MarkStamp;

/// EWMA weight of each new price observation (0 < γ ≤ 1).
pub const PRICE_GAMMA: f64 = 0.125;

/// Price attributed to a dropped unit.
pub const NACK_PRICE: f64 = 2.0;

/// Exponentially-weighted moving average of a path's acked prices,
/// smoothed by [`PRICE_GAMMA`], with a drop priced at least
/// [`NACK_PRICE`].
#[derive(Debug, Clone, Default)]
pub struct PathPriceEstimator {
    /// Current estimate.
    estimate: f64,
    /// Number of observations folded in.
    observations: u64,
}

impl PathPriceEstimator {
    /// Creates an estimator starting at price zero.
    pub fn new() -> Self {
        PathPriceEstimator::default()
    }

    /// Folds one unit acknowledgement into the estimate, with weight
    /// [`PRICE_GAMMA`]; a unit that never arrived is priced at least
    /// [`NACK_PRICE`].
    pub fn observe(&mut self, delivered: bool, stamp: &MarkStamp) {
        let observed = if delivered {
            stamp.price
        } else {
            NACK_PRICE.max(stamp.price)
        };
        if self.observations == 0 {
            self.estimate = observed;
        } else {
            self.estimate = (1.0 - PRICE_GAMMA) * self.estimate + PRICE_GAMMA * observed;
        }
        self.observations += 1;
    }

    /// The current smoothed path price (0 before any observation).
    pub fn price(&self) -> f64 {
        self.estimate
    }

    /// Number of acknowledgements observed.
    pub fn observations(&self) -> u64 {
        self.observations
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spider_types::SimDuration;

    fn stamp(price: f64) -> MarkStamp {
        let mut s = MarkStamp::CLEAR;
        s.absorb(price, false, SimDuration::ZERO);
        s
    }

    #[test]
    fn starts_at_zero_and_adopts_first_observation() {
        let mut e = PathPriceEstimator::new();
        assert_eq!(e.price(), 0.0);
        e.observe(true, &stamp(3.0));
        assert_eq!(e.price(), 3.0, "first observation is adopted outright");
    }

    #[test]
    fn ewma_tracks_toward_new_prices() {
        let mut e = PathPriceEstimator::new();
        e.observe(true, &stamp(0.0));
        e.observe(true, &stamp(4.0));
        assert!((e.price() - 0.5).abs() < 1e-12, "γ = 1/8 of the way");
        e.observe(true, &stamp(4.0));
        assert!((e.price() - 0.9375).abs() < 1e-12);
    }

    #[test]
    fn nacks_charge_the_penalty_price() {
        let mut e = PathPriceEstimator::new();
        e.observe(false, &stamp(0.25));
        assert_eq!(e.price(), NACK_PRICE);
        // A nack with an even higher stamped price keeps the stamp.
        e.observe(false, &stamp(10.0));
        assert!((e.price() - (7.0 * NACK_PRICE + 10.0) / 8.0).abs() < 1e-12);
        assert_eq!(e.observations(), 2);
    }
}
