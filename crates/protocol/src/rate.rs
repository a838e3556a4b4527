//! Per-(sender, path) AIMD rate control (§5's source behavior).
//!
//! Each candidate path of a (sender, receiver) pair owns a window bounding
//! the value the sender may have in flight on it. Acknowledgements drive
//! the classic AIMD dynamics the paper prescribes for marked packets:
//!
//! * clean delivered ack → window grows additively (probe for capacity);
//! * marked or failed ack → window shrinks multiplicatively (back off);
//! * rejection at injection (`on_nack`) → same multiplicative back-off.
//!
//! The window floor keeps every path probing — a starved path would
//! otherwise never learn its price again — and the ceiling bounds queue
//! build-up when the network is briefly generous.

use spider_types::Amount;

/// Initial window per path.
pub const INITIAL_WINDOW: Amount = Amount::from_xrp(200);

/// Window floor.
pub const MIN_WINDOW: Amount = Amount::from_xrp(20);

/// Window ceiling.
pub const MAX_WINDOW: Amount = Amount::from_xrp(10_000);

/// The AIMD steps of one path's controller; its start, floor and
/// ceiling are [`INITIAL_WINDOW`], [`MIN_WINDOW`] and [`MAX_WINDOW`].
#[derive(Debug, Clone, Copy)]
pub struct RateConfig {
    /// Additive increase per clean delivered ack.
    pub increase: Amount,
    /// Multiplicative decrease factor on a marked or failed ack (0 < f < 1).
    pub decrease_factor: f64,
}

impl Default for RateConfig {
    fn default() -> Self {
        RateConfig {
            increase: Amount::from_xrp(10),
            decrease_factor: 0.7,
        }
    }
}

impl RateConfig {
    /// Checks the parameters a [`PathController`] needs; one that passes
    /// builds controllers without panicking.
    pub fn validate(&self) -> spider_types::Result<()> {
        let invalid = |msg: &str| Err(spider_types::SpiderError::InvalidConfig(msg.into()));
        if !(self.decrease_factor > 0.0 && self.decrease_factor < 1.0) {
            return invalid("decrease factor must be in (0, 1)");
        }
        Ok(())
    }
}

/// The AIMD window and in-flight accounting of one (sender, path) pair.
#[derive(Debug, Clone)]
pub struct PathController {
    window: Amount,
    inflight: Amount,
}

impl PathController {
    /// Fresh controller at [`INITIAL_WINDOW`], for steps `cfg`.
    pub fn new(cfg: &RateConfig) -> Self {
        let checked = cfg.validate();
        assert!(checked.is_ok(), "{checked:?}");
        PathController {
            window: INITIAL_WINDOW,
            inflight: Amount::ZERO,
        }
    }

    /// Value the sender may still inject on this path right now.
    pub fn budget(&self) -> Amount {
        self.window.saturating_sub(self.inflight)
    }

    /// Current window.
    pub fn window(&self) -> Amount {
        self.window
    }

    /// Value currently in flight on this path.
    pub fn inflight(&self) -> Amount {
        self.inflight
    }

    /// Records an accepted injection of `amount`.
    pub fn on_send(&mut self, amount: Amount) {
        self.inflight += amount;
    }

    /// Records a rejected injection: the engine refused the unit at the
    /// ingress (first-hop queue full), a hard congestion signal.
    pub fn on_reject(&mut self, cfg: &RateConfig) {
        self.backoff(cfg);
    }

    /// Records the unit acknowledgement for `amount` in flight.
    pub fn on_ack(&mut self, amount: Amount, delivered: bool, marked: bool, cfg: &RateConfig) {
        self.inflight = self.inflight.saturating_sub(amount);
        if delivered && !marked {
            self.window = (self.window + cfg.increase).min(MAX_WINDOW);
        } else {
            self.backoff(cfg);
        }
    }

    fn backoff(&mut self, cfg: &RateConfig) {
        self.window = self.window.mul_f64(cfg.decrease_factor).max(MIN_WINDOW);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xrp(x: u64) -> Amount {
        Amount::from_xrp(x)
    }

    fn cfg() -> RateConfig {
        RateConfig {
            increase: xrp(10),
            decrease_factor: 0.5,
        }
    }

    #[test]
    fn budget_tracks_inflight() {
        let c = cfg();
        let mut p = PathController::new(&c);
        assert_eq!(p.budget(), INITIAL_WINDOW);
        p.on_send(xrp(30));
        assert_eq!(p.budget(), xrp(170));
        assert_eq!(p.inflight(), xrp(30));
        p.on_send(xrp(170));
        assert_eq!(p.budget(), Amount::ZERO);
    }

    #[test]
    fn clean_acks_grow_additively_to_ceiling() {
        let c = cfg();
        let mut p = PathController::new(&c);
        p.on_send(xrp(10));
        p.on_ack(xrp(10), true, false, &c);
        assert_eq!(p.window(), xrp(210));
        assert_eq!(p.inflight(), Amount::ZERO);
        // (10,000 − 210) / 10 more steps reach the ceiling.
        for _ in 0..1_000 {
            p.on_ack(Amount::ZERO, true, false, &c);
        }
        assert_eq!(p.window(), MAX_WINDOW, "ceiling holds");
    }

    #[test]
    fn marked_or_failed_acks_backoff_to_floor() {
        let c = cfg();
        let mut p = PathController::new(&c);
        p.on_send(xrp(20));
        p.on_ack(xrp(20), true, true, &c); // delivered but marked
        assert_eq!(p.window(), xrp(100));
        p.on_ack(Amount::ZERO, false, true, &c); // dropped
        assert_eq!(p.window(), xrp(50));
        for _ in 0..20 {
            p.on_reject(&c);
        }
        assert_eq!(p.window(), MIN_WINDOW, "floor holds");
    }

    #[test]
    fn ack_never_underflows_inflight() {
        let c = cfg();
        let mut p = PathController::new(&c);
        p.on_ack(xrp(10), true, false, &c);
        assert_eq!(p.inflight(), Amount::ZERO);
    }

    #[test]
    #[should_panic(expected = "decrease factor")]
    fn rejects_bad_decrease_factor() {
        let _ = PathController::new(&RateConfig {
            decrease_factor: 1.0,
            ..cfg()
        });
    }
}
