//! Per-(sender, path) AIMD rate control (§5's source behavior).
//!
//! Each candidate path of a (sender, receiver) pair owns a window bounding
//! the value the sender may have in flight on it. Acknowledgements drive
//! the classic AIMD dynamics the paper prescribes for marked packets:
//!
//! * clean delivered ack → window grows additively (probe for capacity);
//! * marked or failed ack → window shrinks multiplicatively (back off);
//! * rejection at injection (`on_reject`) → same multiplicative back-off.
//!
//! The window floor keeps every path probing — a starved path would
//! otherwise never learn its price again — and the ceiling bounds queue
//! build-up when the network is briefly generous.
//!
//! Every step is a constant. What judges them is the protocol's gap to
//! its balanced fluid optimum (`tests/tests/closed_form.rs`).

use spider_types::Amount;

/// Initial window per path.
pub const INITIAL_WINDOW: Amount = Amount::from_xrp(200);

/// Window floor.
pub const MIN_WINDOW: Amount = Amount::from_xrp(20);

/// Window ceiling.
pub const MAX_WINDOW: Amount = Amount::from_xrp(10_000);

/// Additive increase per clean delivered ack.
pub const INCREASE: Amount = Amount::from_xrp(10);

/// Multiplicative decrease factor on a marked or failed ack, or a
/// rejection.
pub const DECREASE_FACTOR: f64 = 0.7;

/// The AIMD window and in-flight accounting of one (sender, path) pair.
#[derive(Debug, Clone)]
pub struct PathController {
    window: Amount,
    inflight: Amount,
}

impl PathController {
    /// Fresh controller at [`INITIAL_WINDOW`].
    pub fn new() -> Self {
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
    pub fn on_reject(&mut self) {
        self.backoff();
    }

    /// Records the unit acknowledgement for `amount` in flight.
    pub fn on_ack(&mut self, amount: Amount, delivered: bool, marked: bool) {
        self.inflight = self.inflight.saturating_sub(amount);
        if delivered && !marked {
            self.window = (self.window + INCREASE).min(MAX_WINDOW);
        } else {
            self.backoff();
        }
    }

    fn backoff(&mut self) {
        self.window = self.window.mul_f64(DECREASE_FACTOR).max(MIN_WINDOW);
    }
}

impl Default for PathController {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xrp(x: u64) -> Amount {
        Amount::from_xrp(x)
    }

    #[test]
    fn budget_tracks_inflight() {
        let mut p = PathController::new();
        assert_eq!(p.budget(), INITIAL_WINDOW);
        p.on_send(xrp(30));
        assert_eq!(p.budget(), xrp(170));
        assert_eq!(p.inflight(), xrp(30));
        p.on_send(xrp(170));
        assert_eq!(p.budget(), Amount::ZERO);
    }

    #[test]
    fn clean_acks_grow_additively_to_ceiling() {
        let mut p = PathController::new();
        p.on_send(xrp(10));
        p.on_ack(xrp(10), true, false);
        assert_eq!(p.window(), xrp(210));
        assert_eq!(p.inflight(), Amount::ZERO);
        // (10,000 − 210) / 10 more steps reach the ceiling.
        for _ in 0..1_000 {
            p.on_ack(Amount::ZERO, true, false);
        }
        assert_eq!(p.window(), MAX_WINDOW, "ceiling holds");
    }

    #[test]
    fn marked_or_failed_acks_backoff_to_floor() {
        let mut p = PathController::new();
        p.on_send(xrp(20));
        p.on_ack(xrp(20), true, true); // delivered but marked
        assert_eq!(p.window(), xrp(140));
        p.on_ack(Amount::ZERO, false, true); // dropped
        assert_eq!(p.window(), xrp(98));
        for _ in 0..20 {
            p.on_reject();
        }
        assert_eq!(p.window(), MIN_WINDOW, "floor holds");
    }

    #[test]
    fn ack_never_underflows_inflight() {
        let mut p = PathController::new();
        p.on_ack(xrp(10), true, false);
        assert_eq!(p.inflight(), Amount::ZERO);
    }
}
