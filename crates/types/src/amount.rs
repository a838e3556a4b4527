//! Fixed-point currency amounts.
//!
//! All balances, transaction sizes and channel capacities are integer counts
//! of *drops* (1 XRP = 10^6 drops, Ripple's real on-ledger unit). Integer
//! arithmetic makes fund-conservation checks exact: the simulator asserts to
//! the drop that no money is created or destroyed.

use serde::Serialize;
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// Number of drops in one XRP.
pub const DROPS_PER_XRP: u64 = 1_000_000;

/// An unsigned quantity of currency, counted in drops.
///
/// `Amount` deliberately implements only the arithmetic that cannot produce
/// surprising values: addition, subtraction (panicking on underflow — use
/// [`Amount::checked_sub`] or [`Amount::saturating_sub`] where underflow is
/// an expected outcome), and scaling by integers. Fractional operations go
/// through [`Amount::mul_f64`], which rounds to the nearest drop.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize)]
#[serde(transparent)]
pub struct Amount(u64);

impl Amount {
    /// The zero amount.
    pub const ZERO: Amount = Amount(0);
    /// One drop, the smallest representable quantum of currency.
    pub const DROP: Amount = Amount(1);
    /// The largest representable amount.
    pub const MAX: Amount = Amount(u64::MAX);

    /// Creates an amount from a raw drop count.
    #[inline]
    pub const fn from_drops(drops: u64) -> Self {
        Amount(drops)
    }

    /// Creates an amount from a whole number of XRP.
    #[inline]
    pub const fn from_xrp(xrp: u64) -> Self {
        Amount(xrp * DROPS_PER_XRP)
    }

    /// Creates an amount from a fractional number of XRP, rounding to the
    /// nearest drop. Negative inputs clamp to zero.
    #[inline]
    pub fn from_xrp_f64(xrp: f64) -> Self {
        if xrp <= 0.0 || !xrp.is_finite() {
            return Amount::ZERO;
        }
        Amount((xrp * DROPS_PER_XRP as f64).round() as u64)
    }

    /// Raw drop count.
    #[inline]
    pub const fn drops(self) -> u64 {
        self.0
    }

    /// Value in XRP as a float (for reporting; never for accounting).
    #[inline]
    pub fn as_xrp(self) -> f64 {
        self.0 as f64 / DROPS_PER_XRP as f64
    }

    /// True iff this is the zero amount.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Checked subtraction; `None` on underflow.
    #[inline]
    pub fn checked_sub(self, rhs: Amount) -> Option<Amount> {
        self.0.checked_sub(rhs.0).map(Amount)
    }

    /// Checked addition; `None` on overflow.
    #[inline]
    pub fn checked_add(self, rhs: Amount) -> Option<Amount> {
        self.0.checked_add(rhs.0).map(Amount)
    }

    /// Subtraction clamped at zero.
    #[inline]
    pub fn saturating_sub(self, rhs: Amount) -> Amount {
        Amount(self.0.saturating_sub(rhs.0))
    }

    /// Addition clamped at `u64::MAX` drops.
    #[inline]
    pub fn saturating_add(self, rhs: Amount) -> Amount {
        Amount(self.0.saturating_add(rhs.0))
    }

    /// The smaller of two amounts.
    #[inline]
    pub fn min(self, rhs: Amount) -> Amount {
        Amount(self.0.min(rhs.0))
    }

    /// The larger of two amounts.
    #[inline]
    pub fn max(self, rhs: Amount) -> Amount {
        Amount(self.0.max(rhs.0))
    }

    /// Multiplies by a non-negative float, rounding to the nearest drop.
    /// Negative or non-finite factors yield zero.
    #[inline]
    pub fn mul_f64(self, factor: f64) -> Amount {
        if factor <= 0.0 || !factor.is_finite() {
            return Amount::ZERO;
        }
        Amount((self.0 as f64 * factor).round() as u64)
    }

    /// Fraction `self / denom` as a float; zero when `denom` is zero.
    #[inline]
    pub fn ratio(self, denom: Amount) -> f64 {
        if denom.0 == 0 {
            0.0
        } else {
            self.0 as f64 / denom.0 as f64
        }
    }

    /// Splits this amount into chunks of at most `mtu`, preserving the total.
    ///
    /// This is exactly the transport layer's packetization rule: a payment of
    /// value `v` becomes `ceil(v / mtu)` transaction units, all of size `mtu`
    /// except a possibly-smaller final unit. An empty vector is returned for
    /// the zero amount. Panics if `mtu` is zero.
    pub fn split_mtu(self, mtu: Amount) -> Vec<Amount> {
        assert!(!mtu.is_zero(), "MTU must be positive");
        let mut remaining = self.0;
        let mut units = Vec::with_capacity((self.0 / mtu.0 + 1) as usize);
        while remaining > 0 {
            let u = remaining.min(mtu.0);
            units.push(Amount(u));
            remaining -= u;
        }
        units
    }

    /// Allocation-free variant of [`Amount::split_mtu`]: iterates the same
    /// chunks without materializing a vector (the engine packetizes every
    /// proposal, so this runs once per routed unit). Panics if `mtu` is
    /// zero.
    pub fn mtu_chunks(self, mtu: Amount) -> MtuChunks {
        assert!(!mtu.is_zero(), "MTU must be positive");
        MtuChunks {
            remaining: self.0,
            mtu: mtu.0,
        }
    }

    /// The smallest chunk [`Amount::mtu_chunks`] yields for this (non-zero)
    /// amount: the final partial unit when `mtu` does not divide it, else
    /// `mtu` itself. A path that cannot carry this much cannot carry any
    /// chunk of the amount. Panics if `mtu` is zero.
    #[inline]
    pub fn smallest_mtu_chunk(self, mtu: Amount) -> Amount {
        assert!(!mtu.is_zero(), "MTU must be positive");
        match self.0 % mtu.0 {
            0 => mtu,
            partial => Amount(partial),
        }
    }

    /// Converts to a signed amount. Panics if the value exceeds `i64::MAX`
    /// drops (≈ 9.2 trillion XRP — far beyond any simulated economy).
    #[inline]
    pub fn signed(self) -> SignedAmount {
        SignedAmount(i64::try_from(self.0).expect("amount exceeds i64::MAX drops"))
    }
}

/// Iterator over MTU-sized chunks of an amount (see [`Amount::mtu_chunks`]).
#[derive(Debug, Clone)]
pub struct MtuChunks {
    remaining: u64,
    mtu: u64,
}

impl MtuChunks {
    /// Skips every remaining full-MTU chunk, returning how many were
    /// skipped; the iterator then yields at most the final partial chunk.
    ///
    /// Used by the engine's failed-lock fast path: when a full-size unit
    /// fails to lock a path and the lock attempt left channel balances
    /// unchanged, every further full-size chunk on the same path would
    /// fail identically, so they can be counted instead of re-walked.
    pub fn skip_full_chunks(&mut self) -> u64 {
        let full = self.remaining / self.mtu;
        self.remaining -= full * self.mtu;
        full
    }
}

impl Iterator for MtuChunks {
    type Item = Amount;

    fn next(&mut self) -> Option<Amount> {
        if self.remaining == 0 {
            return None;
        }
        let u = self.remaining.min(self.mtu);
        self.remaining -= u;
        Some(Amount(u))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.remaining.div_ceil(self.mtu) as usize;
        (n, Some(n))
    }
}

impl ExactSizeIterator for MtuChunks {}

impl Add for Amount {
    type Output = Amount;
    #[inline]
    fn add(self, rhs: Amount) -> Amount {
        Amount(self.0.checked_add(rhs.0).expect("Amount overflow"))
    }
}

impl AddAssign for Amount {
    #[inline]
    fn add_assign(&mut self, rhs: Amount) {
        *self = *self + rhs;
    }
}

impl Sub for Amount {
    type Output = Amount;
    #[inline]
    fn sub(self, rhs: Amount) -> Amount {
        Amount(self.0.checked_sub(rhs.0).expect("Amount underflow"))
    }
}

impl SubAssign for Amount {
    #[inline]
    fn sub_assign(&mut self, rhs: Amount) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for Amount {
    type Output = Amount;
    #[inline]
    fn mul(self, rhs: u64) -> Amount {
        Amount(self.0.checked_mul(rhs).expect("Amount overflow"))
    }
}

impl Div<u64> for Amount {
    type Output = Amount;
    #[inline]
    fn div(self, rhs: u64) -> Amount {
        Amount(self.0 / rhs)
    }
}

impl Sum for Amount {
    fn sum<I: Iterator<Item = Amount>>(iter: I) -> Amount {
        iter.fold(Amount::ZERO, |a, b| a + b)
    }
}

impl<'a> Sum<&'a Amount> for Amount {
    fn sum<I: Iterator<Item = &'a Amount>>(iter: I) -> Amount {
        iter.fold(Amount::ZERO, |a, b| a + *b)
    }
}

impl fmt::Display for Amount {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let whole = self.0 / DROPS_PER_XRP;
        let frac = self.0 % DROPS_PER_XRP;
        if frac == 0 {
            write!(f, "{whole} XRP")
        } else {
            let s = format!("{frac:06}");
            write!(f, "{whole}.{} XRP", s.trim_end_matches('0'))
        }
    }
}

/// A signed quantity of currency in drops, used for channel *imbalance*
/// (flow in one direction minus flow in the other) and price gradients.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize)]
#[serde(transparent)]
pub struct SignedAmount(i64);

impl SignedAmount {
    /// The zero signed amount.
    pub const ZERO: SignedAmount = SignedAmount(0);

    /// Creates from a raw signed drop count.
    #[inline]
    pub const fn from_drops(drops: i64) -> Self {
        SignedAmount(drops)
    }

    /// Raw signed drop count.
    #[inline]
    pub const fn drops(self) -> i64 {
        self.0
    }

    /// Value in XRP as a float.
    #[inline]
    pub fn as_xrp(self) -> f64 {
        self.0 as f64 / DROPS_PER_XRP as f64
    }

    /// Absolute value as an unsigned [`Amount`].
    #[inline]
    pub fn abs(self) -> Amount {
        Amount(self.0.unsigned_abs())
    }
}

impl Add for SignedAmount {
    type Output = SignedAmount;
    #[inline]
    fn add(self, rhs: SignedAmount) -> SignedAmount {
        SignedAmount(self.0.checked_add(rhs.0).expect("SignedAmount overflow"))
    }
}

impl AddAssign for SignedAmount {
    #[inline]
    fn add_assign(&mut self, rhs: SignedAmount) {
        *self = *self + rhs;
    }
}

impl Sub for SignedAmount {
    type Output = SignedAmount;
    #[inline]
    fn sub(self, rhs: SignedAmount) -> SignedAmount {
        SignedAmount(self.0.checked_sub(rhs.0).expect("SignedAmount overflow"))
    }
}

impl SubAssign for SignedAmount {
    #[inline]
    fn sub_assign(&mut self, rhs: SignedAmount) {
        *self = *self - rhs;
    }
}

impl Neg for SignedAmount {
    type Output = SignedAmount;
    #[inline]
    fn neg(self) -> SignedAmount {
        SignedAmount(-self.0)
    }
}

impl fmt::Display for SignedAmount {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 < 0 {
            write!(f, "-{}", self.abs())
        } else {
            write!(f, "{}", self.abs())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xrp_drop_round_trip() {
        assert_eq!(Amount::from_xrp(3).drops(), 3_000_000);
        assert_eq!(Amount::from_drops(1_500_000).as_xrp(), 1.5);
        assert_eq!(Amount::from_xrp_f64(2.5), Amount::from_drops(2_500_000));
    }

    #[test]
    fn from_xrp_f64_clamps_garbage() {
        assert_eq!(Amount::from_xrp_f64(-1.0), Amount::ZERO);
        assert_eq!(Amount::from_xrp_f64(f64::NAN), Amount::ZERO);
        assert_eq!(Amount::from_xrp_f64(f64::NEG_INFINITY), Amount::ZERO);
    }

    #[test]
    fn arithmetic_basics() {
        let a = Amount::from_xrp(10);
        let b = Amount::from_xrp(4);
        assert_eq!(a + b, Amount::from_xrp(14));
        assert_eq!(a - b, Amount::from_xrp(6));
        assert_eq!(a * 3, Amount::from_xrp(30));
        assert_eq!(a / 2, Amount::from_xrp(5));
        assert_eq!(b.saturating_sub(a), Amount::ZERO);
        assert_eq!(b.checked_sub(a), None);
        assert_eq!(a.min(b), b);
        assert_eq!(a.max(b), a);
    }

    #[test]
    #[should_panic(expected = "Amount underflow")]
    fn sub_underflow_panics() {
        let _ = Amount::from_xrp(1) - Amount::from_xrp(2);
    }

    #[test]
    fn split_mtu_preserves_total_and_bounds() {
        let total = Amount::from_drops(10_500_000);
        let mtu = Amount::from_xrp(3);
        let parts = total.split_mtu(mtu);
        assert_eq!(parts.iter().copied().sum::<Amount>(), total);
        assert!(parts.iter().all(|p| *p <= mtu && !p.is_zero()));
        assert_eq!(parts.len(), 4);
        assert_eq!(parts[3], Amount::from_drops(1_500_000));
    }

    #[test]
    fn split_mtu_zero_amount() {
        assert!(Amount::ZERO.split_mtu(Amount::DROP).is_empty());
    }

    #[test]
    fn split_mtu_exact_multiple() {
        let parts = Amount::from_xrp(9).split_mtu(Amount::from_xrp(3));
        assert_eq!(parts.len(), 3);
        assert!(parts.iter().all(|p| *p == Amount::from_xrp(3)));
    }

    #[test]
    fn mtu_chunks_matches_split_mtu() {
        for (total, mtu) in [
            (Amount::from_drops(10_500_000), Amount::from_xrp(3)),
            (Amount::from_xrp(9), Amount::from_xrp(3)),
            (Amount::ZERO, Amount::DROP),
            (Amount::from_drops(1), Amount::from_xrp(10)),
        ] {
            let iter: Vec<Amount> = total.mtu_chunks(mtu).collect();
            assert_eq!(iter, total.split_mtu(mtu));
            assert_eq!(total.mtu_chunks(mtu).len(), iter.len());
        }
    }

    #[test]
    fn smallest_mtu_chunk_is_the_minimum_over_mtu_chunks() {
        for (total, mtu) in [
            (Amount::from_xrp(45), Amount::from_xrp(20)),
            (Amount::from_xrp(40), Amount::from_xrp(20)),
            (Amount::from_drops(10_500_000), Amount::from_xrp(3)),
            (Amount::from_drops(1), Amount::from_xrp(10)),
            (Amount::from_xrp(10), Amount::from_xrp(10)),
        ] {
            assert_eq!(
                Some(total.smallest_mtu_chunk(mtu)),
                total.mtu_chunks(mtu).min(),
                "{total} at MTU {mtu}"
            );
        }
    }

    #[test]
    fn skip_full_chunks_leaves_only_the_partial() {
        // 10.5 XRP at 3-XRP MTU: chunks are 3, 3, 3, 1.5.
        let mut it = Amount::from_drops(10_500_000).mtu_chunks(Amount::from_xrp(3));
        assert_eq!(it.next(), Some(Amount::from_xrp(3)));
        assert_eq!(it.skip_full_chunks(), 2);
        assert_eq!(it.next(), Some(Amount::from_drops(1_500_000)));
        assert_eq!(it.next(), None);
        // Exact multiple: skipping consumes everything.
        let mut it = Amount::from_xrp(9).mtu_chunks(Amount::from_xrp(3));
        assert_eq!(it.skip_full_chunks(), 3);
        assert_eq!(it.next(), None);
        // Nothing but a partial: nothing to skip.
        let mut it = Amount::from_drops(1).mtu_chunks(Amount::from_xrp(10));
        assert_eq!(it.skip_full_chunks(), 0);
        assert_eq!(it.next(), Some(Amount::from_drops(1)));
    }

    #[test]
    fn display_formats() {
        assert_eq!(Amount::from_xrp(5).to_string(), "5 XRP");
        assert_eq!(Amount::from_drops(1_230_000).to_string(), "1.23 XRP");
        assert_eq!(SignedAmount::from_drops(-1_000_000).to_string(), "-1 XRP");
    }

    #[test]
    fn signed_amount_ops() {
        let x = SignedAmount::from_drops(5);
        let y = SignedAmount::from_drops(-8);
        assert_eq!((x + y).drops(), -3);
        assert_eq!((x - y).drops(), 13);
        assert_eq!((-y).drops(), 8);
        assert_eq!(y.abs(), Amount::from_drops(8));
    }

    #[test]
    fn mul_f64_rounds() {
        let a = Amount::from_drops(10);
        assert_eq!(a.mul_f64(0.25), Amount::from_drops(3)); // 2.5 rounds to 3 (round half away)
        assert_eq!(a.mul_f64(-1.0), Amount::ZERO);
        assert_eq!(a.mul_f64(f64::NAN), Amount::ZERO);
    }

    #[test]
    fn ratio_handles_zero_denominator() {
        assert_eq!(Amount::from_xrp(1).ratio(Amount::ZERO), 0.0);
        assert_eq!(Amount::from_xrp(1).ratio(Amount::from_xrp(4)), 0.25);
    }

    #[test]
    fn sum_iterator() {
        let v = vec![
            Amount::from_xrp(1),
            Amount::from_xrp(2),
            Amount::from_xrp(3),
        ];
        assert_eq!(v.iter().sum::<Amount>(), Amount::from_xrp(6));
        assert_eq!(v.into_iter().sum::<Amount>(), Amount::from_xrp(6));
    }
}
