//! The input bounds every config validator reads: each rule is stated
//! once, here, and each returns an [`SpiderError::InvalidConfig`] that
//! names the field it refused.

use crate::{Amount, Result, SpiderError};

fn rule(holds: bool, field: &str, what: &str, value: impl std::fmt::Display) -> Result<()> {
    let refusal = || SpiderError::InvalidConfig(format!("{field} must be {what}, not {value}"));
    holds.then_some(()).ok_or_else(refusal)
}

/// `value` is positive and finite (a rate, a mean, a horizon).
pub fn positive(field: &str, value: f64) -> Result<()> {
    let holds = value > 0.0 && value.is_finite();
    rule(holds, field, "positive and finite", value)
}

/// `value` is non-negative and finite (a rate that may be off, a delay).
pub fn non_negative(field: &str, value: f64) -> Result<()> {
    let holds = value >= 0.0 && value.is_finite();
    rule(holds, field, "non-negative and finite", value)
}

/// `value` is a fraction in `[0, 1]` (a probability, a share).
pub fn fraction(field: &str, value: f64) -> Result<()> {
    rule((0.0..=1.0).contains(&value), field, "in [0, 1]", value)
}

/// `amount` fits [`Amount::MAX_BALANCE`], so a channel balance holding
/// it can be read as a signed amount. Inlined: the topology builder asks
/// it once per channel.
#[inline]
pub fn balance(field: &str, amount: Amount) -> Result<()> {
    let holds = amount <= Amount::MAX_BALANCE;
    rule(holds, field, "at most Amount::MAX_BALANCE", amount)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn each_rule_admits_its_edges_and_refuses_past_them() {
        let (inf, nan) = (f64::INFINITY, f64::NAN);
        assert!(positive("rate", f64::MIN_POSITIVE).is_ok());
        for v in [0.0, -1.0, inf, nan] {
            assert!(positive("rate", v).is_err(), "{v}");
        }
        assert!(non_negative("rate", 0.0).is_ok());
        for v in [-f64::MIN_POSITIVE, inf, nan] {
            assert!(non_negative("rate", v).is_err(), "{v}");
        }
        assert!(fraction("share", 0.0).is_ok() && fraction("share", 1.0).is_ok());
        for v in [-f64::MIN_POSITIVE, 1.0 + f64::EPSILON, nan] {
            assert!(fraction("share", v).is_err(), "{v}");
        }
        assert!(balance("capacity", Amount::MAX_BALANCE).is_ok());
        let past = Amount::MAX_BALANCE + Amount::DROP;
        assert_eq!(
            balance("capacity", past),
            Err(SpiderError::InvalidConfig(
                "capacity must be at most Amount::MAX_BALANCE, not 9223372036854.775808 XRP".into()
            ))
        );
    }
}
