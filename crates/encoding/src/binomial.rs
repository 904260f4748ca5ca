//! Exact binomial coefficients on [`BigUint`], with incremental updates.
//!
//! The combinadic codec walks along rows of Pascal's triangle; recomputing
//! each `C(m, j)` from scratch would cost `O(j)` big-integer operations per
//! step. [`BinomialWalker`] instead maintains a current coefficient and moves
//! to neighbouring ones with a single exact multiply/divide, using
//!
//! * `C(m+1, j) = C(m, j) · (m+1) / (m+1−j)`
//! * `C(m−1, j) = C(m, j) · (m−j) / m`
//! * `C(m, j−1) = C(m, j) · j / (m−j+1)`
//!
//! all of which are exact integer operations in this order.
//!
//! Walks that only need the coefficients at a few stops (the combinadic
//! rank, [`binomial`] itself) fold runs of consecutive moves into a step
//! group: one `u64` numerator and one `u64` denominator, applied as
//! a single multiply and a single exact divide when the next factor would
//! overflow either word, or at a stop. Every point of a Pascal walk is a
//! binomial coefficient, so each group's division is exact.

use crate::bignum::BigUint;

/// Computes `C(n, k)` exactly.
///
/// Returns zero when `k > n`, matching the combinatorial convention.
///
/// # Example
///
/// ```
/// use bci_encoding::binomial::binomial;
///
/// assert_eq!(binomial(10, 3).to_u64(), Some(120));
/// assert_eq!(binomial(0, 0).to_u64(), Some(1));
/// assert_eq!(binomial(3, 10).to_u64(), Some(0));
/// // C(200, 100) is a 196-bit number:
/// assert_eq!(binomial(200, 100).bit_length(), 196);
/// ```
pub fn binomial(n: u64, k: u64) -> BigUint {
    if k > n {
        return BigUint::zero();
    }
    let k = k.min(n - k);
    let mut v = BigUint::one();
    let mut group = StepGroup::new();
    for i in 1..=k {
        // C(n−k+i, i) = C(n−k+i−1, i−1) · (n−k+i) / i.
        group.push(&mut v, n - k + i, i);
    }
    group.flush(&mut v);
    v
}

/// The exact number of bits needed to index one of the `C(n, k)` subsets:
/// `⌈log₂ C(n, k)⌉` (and `0` when `C(n,k) ≤ 1`).
pub fn binomial_code_len(n: u64, k: u64) -> u32 {
    index_code_len(&binomial(n, k))
}

/// `⌈log₂ c⌉`, the bits needed to index one of `c` objects (`0` when
/// `c ≤ 1`).
pub(crate) fn index_code_len(c: &BigUint) -> u32 {
    if c.is_zero() {
        return 0;
    }
    // ⌈log₂ c⌉ = bit_length(c - 1) for c ≥ 1.
    let mut m = c.clone();
    m.sub_assign(&BigUint::one());
    m.bit_length() as u32
}

/// A run of Pascal-walk moves folded into one ratio `num / den` of machine
/// words, so the run costs one big-integer multiply and one exact divide
/// instead of one of each per move.
///
/// The caller must [`flush`](Self::flush) wherever it reads the walked
/// value; [`push`](Self::push) flushes on its own before a word would
/// overflow. Both leave the value on a binomial coefficient, which is what
/// makes the division exact.
#[derive(Debug)]
pub(crate) struct StepGroup {
    num: u64,
    den: u64,
}

impl StepGroup {
    pub(crate) fn new() -> Self {
        StepGroup { num: 1, den: 1 }
    }

    /// Appends one move, which multiplies the walked value by `num / den`.
    pub(crate) fn push(&mut self, value: &mut BigUint, num: u64, den: u64) {
        debug_assert!(num > 0 && den > 0, "a move onto or off a zero coefficient");
        match (self.num.checked_mul(num), self.den.checked_mul(den)) {
            (Some(n), Some(d)) => {
                self.num = n;
                self.den = d;
            }
            _ => {
                self.flush(value);
                self.num = num;
                self.den = den;
            }
        }
    }

    /// Applies the pending moves to `value`.
    pub(crate) fn flush(&mut self, value: &mut BigUint) {
        if self.num != self.den {
            value.mul_assign_u64(self.num);
            let rem = value.div_assign_u64(self.den);
            debug_assert_eq!(rem, 0, "step group did not end on a binomial");
        }
        self.num = 1;
        self.den = 1;
    }
}

/// A cursor over Pascal's triangle holding the exact value of `C(m, j)` and
/// supporting O(1) big-integer moves to adjacent coefficients.
///
/// # Example
///
/// ```
/// use bci_encoding::binomial::BinomialWalker;
///
/// let mut w = BinomialWalker::new(10, 3); // C(10,3) = 120
/// assert_eq!(w.value().to_u64(), Some(120));
/// w.dec_m(); // C(9,3) = 84
/// assert_eq!(w.value().to_u64(), Some(84));
/// w.dec_j(); // C(9,2) = 36
/// assert_eq!(w.value().to_u64(), Some(36));
/// w.inc_m(); // C(10,2) = 45
/// assert_eq!(w.value().to_u64(), Some(45));
/// ```
#[derive(Debug, Clone)]
pub struct BinomialWalker {
    m: u64,
    j: u64,
    value: BigUint,
}

impl BinomialWalker {
    /// Positions the cursor at `C(m, j)`.
    pub fn new(m: u64, j: u64) -> Self {
        BinomialWalker {
            m,
            j,
            value: binomial(m, j),
        }
    }

    /// Current upper index `m`.
    pub fn m(&self) -> u64 {
        self.m
    }

    /// Current lower index `j`.
    pub fn j(&self) -> u64 {
        self.j
    }

    /// Current exact coefficient value.
    pub fn value(&self) -> &BigUint {
        &self.value
    }

    /// Moves to `C(m+1, j)`.
    pub fn inc_m(&mut self) {
        self.m += 1;
        if self.j > self.m {
            // Still zero.
            return;
        }
        if self.value.is_zero() {
            self.value = binomial(self.m, self.j);
            return;
        }
        self.value.mul_assign_u64(self.m);
        let rem = self.value.div_assign_u64(self.m - self.j);
        debug_assert_eq!(rem, 0);
    }

    /// Moves to `C(m−1, j)`.
    ///
    /// # Panics
    ///
    /// Panics if `m == 0`.
    pub fn dec_m(&mut self) {
        assert!(self.m > 0, "cannot decrement m below 0");
        if self.j > self.m - 1 {
            self.m -= 1;
            self.value = BigUint::zero();
            return;
        }
        if !self.value.is_zero() {
            self.value.mul_assign_u64(self.m - self.j);
            let rem = self.value.div_assign_u64(self.m);
            debug_assert_eq!(rem, 0);
        }
        self.m -= 1;
    }

    /// Moves to `C(m, j−1)`.
    ///
    /// # Panics
    ///
    /// Panics if `j == 0`.
    pub fn dec_j(&mut self) {
        assert!(self.j > 0, "cannot decrement j below 0");
        if self.value.is_zero() {
            self.j -= 1;
            self.value = binomial(self.m, self.j);
            return;
        }
        self.value.mul_assign_u64(self.j);
        let rem = self.value.div_assign_u64(self.m - self.j + 1);
        debug_assert_eq!(rem, 0);
        self.j -= 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_match_pascal() {
        let mut row = vec![1u64];
        for n in 0..=20u64 {
            for (k, &expect) in row.iter().enumerate() {
                assert_eq!(binomial(n, k as u64).to_u64(), Some(expect), "C({n},{k})");
            }
            let mut next = vec![1u64];
            for w in row.windows(2) {
                next.push(w[0] + w[1]);
            }
            next.push(1);
            row = next;
        }
    }

    #[test]
    fn symmetric() {
        for n in 0..30u64 {
            for k in 0..=n {
                assert_eq!(binomial(n, k), binomial(n, n - k));
            }
        }
    }

    #[test]
    fn zero_above_diagonal() {
        assert!(binomial(5, 6).is_zero());
        assert!(binomial(0, 1).is_zero());
    }

    #[test]
    fn central_binomial_large() {
        // C(64, 32) = 1832624140942590534 fits in u64.
        assert_eq!(binomial(64, 32).to_u64(), Some(1_832_624_140_942_590_534));
    }

    #[test]
    fn code_len_examples() {
        assert_eq!(binomial_code_len(10, 3), 7); // C=120, ⌈log₂⌉=7
        assert_eq!(binomial_code_len(4, 2), 3); // C=6
        assert_eq!(binomial_code_len(1, 1), 0); // C=1, nothing to send
        assert_eq!(binomial_code_len(4, 0), 0); // C=1
        assert_eq!(binomial_code_len(2, 1), 1); // C=2
    }

    #[test]
    fn code_len_exact_powers_of_two() {
        // C(8, 1) = 8 = 2^3 needs exactly 3 bits (indices 0..=7).
        assert_eq!(binomial_code_len(8, 1), 3);
    }

    #[test]
    fn walker_matches_direct_computation() {
        let mut w = BinomialWalker::new(30, 10);
        assert_eq!(w.value(), &binomial(30, 10));
        for m in (11..30u64).rev() {
            w.dec_m();
            assert_eq!(w.value(), &binomial(m, 10), "C({m},10)");
        }
        for j in (1..=10u64).rev() {
            w.dec_j();
            assert_eq!(w.value(), &binomial(11, j - 1), "C(11,{})", j - 1);
        }
        for m in 12..=40u64 {
            w.inc_m();
            assert_eq!(w.value(), &binomial(m, 0));
        }
    }

    #[test]
    fn walker_through_zero_region() {
        // Start at C(3, 5) = 0, walk m up until nonzero.
        let mut w = BinomialWalker::new(3, 5);
        assert!(w.value().is_zero());
        w.inc_m(); // C(4,5) = 0
        assert!(w.value().is_zero());
        w.inc_m(); // C(5,5) = 1
        assert_eq!(w.value().to_u64(), Some(1));
        w.inc_m(); // C(6,5) = 6
        assert_eq!(w.value().to_u64(), Some(6));
        w.dec_m(); // back to C(5,5)
        assert_eq!(w.value().to_u64(), Some(1));
        w.dec_m(); // C(4,5) = 0
        assert!(w.value().is_zero());
        w.dec_j(); // C(4,4) = 1
        assert_eq!(w.value().to_u64(), Some(1));
    }

    #[test]
    fn huge_binomial_bit_length_matches_entropy_estimate() {
        // log2 C(n, k) ≈ n·h(k/n); for n = 10_000, k = 100:
        let n = 10_000u64;
        let k = 100u64;
        let bits = binomial(n, k).bit_length() as f64;
        let p = k as f64 / n as f64;
        let h = -p * p.log2() - (1.0 - p) * (1.0 - p).log2();
        let est = n as f64 * h;
        // Entropy estimate is an upper bound up to lower-order terms.
        assert!(bits <= est + 1.0, "bits={bits} est={est}");
        assert!(
            bits >= est - 10.0 * (n as f64).log2(),
            "bits={bits} est={est}"
        );
    }
}
