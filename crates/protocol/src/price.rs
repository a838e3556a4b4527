//! Sender-side path price estimation (§5.3).
//!
//! Routers stamp a price — queueing delay plus the adverse part of the
//! channel's flow imbalance, the discrete analogue of the paper's
//! `λ + µ` edge price with its `x_u − x_v` imbalance term — onto every
//! transiting unit (`spider-sim::queue`). The sender cannot observe router
//! state directly; it sees only the stamps coming back on unit
//! acknowledgements. [`PathPriceEstimator`] smooths those observations
//! into a per-path price the allocator can steer on, with failed units
//! (drops, timeouts) contributing a configurable penalty price so paths
//! that eat units look expensive even though they return no stamp sum.

use crate::router::ProtocolConfig;
use spider_types::MarkStamp;

/// Exponentially-weighted moving average of a path's acked prices. Holds
/// only the estimate: the smoothing factor and the price of a drop are
/// the router's ([`ProtocolConfig::price_gamma`],
/// [`ProtocolConfig::nack_price`]), read on each observation, so a sender
/// with 10⁵ paths keeps no 10⁵ copies of them.
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
    /// `cfg.price_gamma`; a unit that never arrived is priced at least
    /// `cfg.nack_price`.
    pub fn observe(&mut self, cfg: &ProtocolConfig, delivered: bool, stamp: &MarkStamp) {
        let observed = if delivered {
            stamp.price
        } else {
            cfg.nack_price.max(stamp.price)
        };
        if self.observations == 0 {
            self.estimate = observed;
        } else {
            self.estimate = (1.0 - cfg.price_gamma) * self.estimate + cfg.price_gamma * observed;
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
    use crate::router::ProtocolRouter;
    use spider_types::SimDuration;

    fn stamp(price: f64) -> MarkStamp {
        let mut s = MarkStamp::CLEAR;
        s.absorb(price, false, SimDuration::ZERO);
        s
    }

    fn cfg(price_gamma: f64, nack_price: f64) -> ProtocolConfig {
        ProtocolConfig {
            price_gamma,
            nack_price,
            ..ProtocolConfig::default()
        }
    }

    #[test]
    fn starts_at_zero_and_adopts_first_observation() {
        let mut e = PathPriceEstimator::new();
        assert_eq!(e.price(), 0.0);
        e.observe(&cfg(0.1, 5.0), true, &stamp(2.0));
        assert_eq!(e.price(), 2.0, "first observation is adopted outright");
    }

    #[test]
    fn ewma_tracks_toward_new_prices() {
        let (mut e, cfg) = (PathPriceEstimator::new(), cfg(0.5, 5.0));
        e.observe(&cfg, true, &stamp(0.0));
        e.observe(&cfg, true, &stamp(4.0));
        assert!((e.price() - 2.0).abs() < 1e-12);
        e.observe(&cfg, true, &stamp(4.0));
        assert!((e.price() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn nacks_charge_the_penalty_price() {
        let (mut e, cfg) = (PathPriceEstimator::new(), cfg(1.0, 7.5));
        e.observe(&cfg, false, &stamp(0.25));
        assert_eq!(e.price(), 7.5);
        // A nack with an even higher stamped price keeps the stamp.
        e.observe(&cfg, false, &stamp(9.0));
        assert_eq!(e.price(), 9.0);
        assert_eq!(e.observations(), 2);
    }

    /// The estimators read the router's gamma, which the router checks.
    #[test]
    #[should_panic(expected = "gamma")]
    fn rejects_bad_gamma() {
        let _ = ProtocolRouter::with_config(4, cfg(0.0, 1.0));
    }
}
