//! A from-scratch arbitrary-precision unsigned integer.
//!
//! The combinadic subset codec needs exact binomial coefficients such as
//! `C(100000, 500)`, whose values exceed any machine word by thousands of
//! bits. Rather than pulling a big-integer dependency, this module implements
//! the small arithmetic surface the codec needs: addition, subtraction,
//! comparison, multiplication and exact division by a `u64`, and bit length.
//!
//! Values are stored as little-endian `u64` limbs with no leading zero limb
//! (the canonical form; zero is the empty limb vector).

use std::cmp::Ordering;
use std::fmt;

/// An arbitrary-precision unsigned integer.
///
/// # Example
///
/// ```
/// use bci_encoding::bignum::BigUint;
///
/// let mut x = BigUint::from(u64::MAX);
/// x.add_assign(&BigUint::from(1u64));
/// assert_eq!(x.bit_length(), 65);
/// assert_eq!(x.to_u64(), None); // no longer fits
/// x.div_assign_u64(2);
/// assert_eq!(x.to_u64(), Some(1u64 << 63));
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct BigUint {
    /// Little-endian limbs; invariant: no trailing (most-significant) zero.
    limbs: Vec<u64>,
}

impl BigUint {
    /// The value zero.
    pub fn zero() -> Self {
        BigUint { limbs: Vec::new() }
    }

    /// The value one.
    pub fn one() -> Self {
        BigUint { limbs: vec![1] }
    }

    /// Whether the value is zero.
    pub fn is_zero(&self) -> bool {
        self.limbs.is_empty()
    }

    fn normalize(&mut self) {
        while self.limbs.last() == Some(&0) {
            self.limbs.pop();
        }
    }

    /// Number of bits in the binary representation (`0` for zero).
    pub fn bit_length(&self) -> u64 {
        match self.limbs.last() {
            None => 0,
            Some(&top) => {
                (self.limbs.len() as u64 - 1) * 64 + (64 - u64::from(top.leading_zeros()))
            }
        }
    }

    /// Returns bit `i` (little-endian), `false` past the top.
    pub fn bit(&self, i: u64) -> bool {
        let limb = (i / 64) as usize;
        if limb >= self.limbs.len() {
            return false;
        }
        (self.limbs[limb] >> (i % 64)) & 1 == 1
    }

    /// Builds a value from bits in little-endian (LSB-first) order.
    ///
    /// # Example
    ///
    /// ```
    /// use bci_encoding::bignum::BigUint;
    ///
    /// let v = BigUint::from_bits_lsb([true, false, true]); // 0b101
    /// assert_eq!(v.to_u64(), Some(5));
    /// ```
    pub fn from_bits_lsb<I: IntoIterator<Item = bool>>(bits: I) -> Self {
        let mut limbs = Vec::new();
        for (i, bit) in bits.into_iter().enumerate() {
            if i % 64 == 0 {
                limbs.push(0u64);
            }
            if bit {
                *limbs.last_mut().expect("pushed above") |= 1u64 << (i % 64);
            }
        }
        let mut v = BigUint { limbs };
        v.normalize();
        v
    }

    /// Converts to `u64` if the value fits.
    pub fn to_u64(&self) -> Option<u64> {
        match self.limbs.len() {
            0 => Some(0),
            1 => Some(self.limbs[0]),
            _ => None,
        }
    }

    /// `self += other`.
    pub fn add_assign(&mut self, other: &BigUint) {
        let mut carry = 0u64;
        for i in 0..other.limbs.len().max(self.limbs.len()) {
            if i == self.limbs.len() {
                self.limbs.push(0);
            }
            let b = other.limbs.get(i).copied().unwrap_or(0);
            let (s1, c1) = self.limbs[i].overflowing_add(b);
            let (s2, c2) = s1.overflowing_add(carry);
            self.limbs[i] = s2;
            carry = u64::from(c1) + u64::from(c2);
        }
        if carry > 0 {
            self.limbs.push(carry);
        }
    }

    /// `self -= other`.
    ///
    /// # Panics
    ///
    /// Panics if `other > self` (the result would be negative).
    pub fn sub_assign(&mut self, other: &BigUint) {
        assert!(
            self.cmp_big(other) != Ordering::Less,
            "BigUint subtraction underflow"
        );
        let mut borrow = 0u64;
        for i in 0..self.limbs.len() {
            let b = other.limbs.get(i).copied().unwrap_or(0);
            let (d1, c1) = self.limbs[i].overflowing_sub(b);
            let (d2, c2) = d1.overflowing_sub(borrow);
            self.limbs[i] = d2;
            borrow = u64::from(c1) + u64::from(c2);
        }
        debug_assert_eq!(borrow, 0);
        self.normalize();
    }

    /// `self *= m` for a machine-word multiplier.
    pub fn mul_assign_u64(&mut self, m: u64) {
        if m == 0 {
            self.limbs.clear();
            return;
        }
        let mut carry = 0u128;
        for limb in &mut self.limbs {
            let prod = u128::from(*limb) * u128::from(m) + carry;
            *limb = prod as u64;
            carry = prod >> 64;
        }
        while carry > 0 {
            self.limbs.push(carry as u64);
            carry >>= 64;
        }
    }

    /// `self /= d`, returning the remainder.
    ///
    /// # Panics
    ///
    /// Panics if `d == 0`.
    pub fn div_assign_u64(&mut self, d: u64) -> u64 {
        assert_ne!(d, 0, "division by zero");
        let mut rem = 0u128;
        for limb in self.limbs.iter_mut().rev() {
            let cur = (rem << 64) | u128::from(*limb);
            *limb = (cur / u128::from(d)) as u64;
            rem = cur % u128::from(d);
        }
        self.normalize();
        rem as u64
    }

    /// Three-way comparison with another `BigUint`.
    pub fn cmp_big(&self, other: &BigUint) -> Ordering {
        if self.limbs.len() != other.limbs.len() {
            return self.limbs.len().cmp(&other.limbs.len());
        }
        for (a, b) in self.limbs.iter().rev().zip(other.limbs.iter().rev()) {
            match a.cmp(b) {
                Ordering::Equal => continue,
                ord => return ord,
            }
        }
        Ordering::Equal
    }

    /// Decimal string representation.
    pub fn to_decimal(&self) -> String {
        if self.is_zero() {
            return "0".to_owned();
        }
        let mut digits = Vec::new();
        let mut v = self.clone();
        while !v.is_zero() {
            digits.push(v.div_assign_u64(10) as u8);
        }
        digits.iter().rev().map(|d| char::from(b'0' + d)).collect()
    }
}

impl From<u64> for BigUint {
    fn from(v: u64) -> Self {
        let mut b = BigUint { limbs: vec![v] };
        b.normalize();
        b
    }
}

impl From<u128> for BigUint {
    fn from(v: u128) -> Self {
        let mut b = BigUint {
            limbs: vec![v as u64, (v >> 64) as u64],
        };
        b.normalize();
        b
    }
}

impl PartialOrd for BigUint {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for BigUint {
    fn cmp(&self, other: &Self) -> Ordering {
        self.cmp_big(other)
    }
}

impl fmt::Debug for BigUint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BigUint({})", self.to_decimal())
    }
}

impl fmt::Display for BigUint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_decimal())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn big(v: u128) -> BigUint {
        BigUint::from(v)
    }

    #[test]
    fn zero_properties() {
        let z = BigUint::zero();
        assert!(z.is_zero());
        assert_eq!(z.bit_length(), 0);
        assert_eq!(z.to_u64(), Some(0));
        assert_eq!(z.to_decimal(), "0");
    }

    #[test]
    fn from_u64_normalizes_zero() {
        assert!(BigUint::from(0u64).is_zero());
    }

    #[test]
    fn add_with_carry_chain() {
        let mut x = big(u128::from(u64::MAX));
        x.add_assign(&BigUint::one());
        assert_eq!(x.to_decimal(), (u128::from(u64::MAX) + 1).to_string());
        assert_eq!(x.bit_length(), 65);
    }

    #[test]
    fn add_grows_limbs() {
        let mut x = big(u128::MAX);
        x.add_assign(&BigUint::one());
        assert_eq!(x.bit_length(), 129);
        // 2^128 in decimal
        assert_eq!(x.to_decimal(), "340282366920938463463374607431768211456");
    }

    #[test]
    fn sub_round_trips_add() {
        let mut x = big(123_456_789_000_000_000_000_000u128);
        let y = big(999_999_999_999_999u128);
        let orig = x.clone();
        x.add_assign(&y);
        x.sub_assign(&y);
        assert_eq!(x, orig);
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn sub_underflow_panics() {
        let mut x = big(5);
        x.sub_assign(&big(6));
    }

    #[test]
    fn mul_div_round_trip() {
        let mut x = big(0xDEAD_BEEF_u128);
        for m in [3u64, 1_000_000_007, u64::MAX, 2] {
            x.mul_assign_u64(m);
        }
        let mut y = x.clone();
        for d in [2u64, u64::MAX, 1_000_000_007, 3] {
            assert_eq!(y.div_assign_u64(d), 0, "exact division expected");
        }
        assert_eq!(y.to_u64(), Some(0xDEAD_BEEF));
    }

    #[test]
    fn mul_by_zero_gives_zero() {
        let mut x = big(123456);
        x.mul_assign_u64(0);
        assert!(x.is_zero());
    }

    #[test]
    fn div_remainder() {
        let mut x = big(1001);
        let r = x.div_assign_u64(10);
        assert_eq!(r, 1);
        assert_eq!(x.to_u64(), Some(100));
    }

    #[test]
    fn comparison_orders_by_magnitude() {
        assert!(big(u128::MAX) > big(u128::from(u64::MAX)));
        assert!(big(7) < big(8));
        assert_eq!(big(42).cmp(&big(42)), Ordering::Equal);
    }

    #[test]
    fn bit_access() {
        let x = big(0b1010);
        assert!(!x.bit(0));
        assert!(x.bit(1));
        assert!(!x.bit(2));
        assert!(x.bit(3));
        assert!(!x.bit(200));
    }

    #[test]
    fn factorial_100_known_value() {
        // 100! has a well-known decimal expansion; check its prefix and length.
        let mut f = BigUint::one();
        for i in 1..=100u64 {
            f.mul_assign_u64(i);
        }
        let dec = f.to_decimal();
        assert_eq!(dec.len(), 158);
        assert!(dec.starts_with(
            "93326215443944152681699238856266700490715968264381621468592963895217599993229915"
        ));
    }
}
