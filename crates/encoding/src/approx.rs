//! Fast floating-point approximations of combinatorial code lengths.
//!
//! The communication-cost sweeps in the benches evaluate `log₂ C(z, b)` for
//! thousands of `(z, b)` pairs; the exact big-integer computation is only
//! needed when bits actually cross the blackboard. This module provides a
//! from-scratch `ln Γ` (Lanczos approximation) and derived `log₂`-binomial
//! and binary-entropy helpers, accurate to ~1e-10 relative error — far below
//! the single-bit resolution of any code length.

/// Natural log of the gamma function `ln Γ(x)` for `x > 0`.
///
/// Implements the Lanczos approximation with the classic g = 7, n = 9
/// coefficient set (relative error below 1e-13 over the positive reals).
///
/// # Panics
///
/// Panics if `x <= 0`.
///
/// # Example
///
/// ```
/// use bci_encoding::approx::ln_gamma;
///
/// // Γ(5) = 4! = 24
/// assert!((ln_gamma(5.0) - 24f64.ln()).abs() < 1e-12);
/// ```
pub fn ln_gamma(x: f64) -> f64 {
    assert!(x > 0.0, "ln_gamma requires a positive argument, got {x}");
    const G: f64 = 7.0;
    const COEF: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        // Reflection formula: Γ(x)Γ(1−x) = π / sin(πx).
        return std::f64::consts::PI.ln()
            - (std::f64::consts::PI * x).sin().ln()
            - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut a = COEF[0];
    let t = x + G + 0.5;
    for (i, &c) in COEF.iter().enumerate().skip(1) {
        a += c / (x + i as f64);
    }
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + a.ln()
}

/// `log₂ C(n, k)`, computed in floating point.
///
/// Returns `f64::NEG_INFINITY` when `k > n` (the coefficient is zero).
pub fn log2_binomial(n: u64, k: u64) -> f64 {
    if k > n {
        return f64::NEG_INFINITY;
    }
    if k == 0 || k == n {
        return 0.0;
    }
    (ln_gamma(n as f64 + 1.0) - ln_gamma(k as f64 + 1.0) - ln_gamma((n - k) as f64 + 1.0))
        / std::f64::consts::LN_2
}

/// Approximate code length `⌈log₂ C(n, k)⌉` as a float-rounded integer.
///
/// Agrees with the exact [`binomial_code_len`](crate::binomial::binomial_code_len)
/// except possibly when `log₂ C(n,k)` is within float error of an integer.
pub fn approx_binomial_code_len(n: u64, k: u64) -> u64 {
    let l = log2_binomial(n, k);
    if l <= 0.0 {
        0
    } else {
        l.ceil() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binomial::{binomial, binomial_code_len};

    #[test]
    fn ln_gamma_matches_factorials() {
        let mut fact = 1.0f64;
        for n in 1..=20u32 {
            fact *= f64::from(n);
            let rel = (ln_gamma(f64::from(n) + 1.0) - fact.ln()).abs() / fact.ln().max(1.0);
            assert!(rel < 1e-12, "n={n}");
        }
    }

    #[test]
    fn ln_gamma_half() {
        // Γ(1/2) = √π.
        let expect = std::f64::consts::PI.sqrt().ln();
        assert!((ln_gamma(0.5) - expect).abs() < 1e-12);
    }

    #[test]
    fn ln_gamma_reflection_region() {
        // Γ(0.3) ≈ 2.991568987687590...
        assert!((ln_gamma(0.3) - 2.991_568_987_687_59_f64.ln()).abs() < 1e-10);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn ln_gamma_rejects_nonpositive() {
        ln_gamma(0.0);
    }

    #[test]
    fn log2_binomial_matches_exact() {
        for n in [10u64, 100, 1000] {
            for k in [0u64, 1, 2, n / 10, n / 3, n / 2, n] {
                // The decimal expansion parses to the correctly rounded f64.
                let exact: f64 = binomial(n, k).to_decimal().parse().unwrap();
                let exact = exact.log2();
                let approx = log2_binomial(n, k);
                let expect = if k == 0 || k == n { 0.0 } else { exact };
                assert!(
                    (approx - expect).abs() < 1e-8 * expect.abs().max(1.0),
                    "C({n},{k}): approx={approx} exact={expect}"
                );
            }
        }
    }

    #[test]
    fn approx_code_len_matches_exact_code_len() {
        for n in [5u64, 17, 64, 200, 1000] {
            for k in 0..=n.min(12) {
                assert_eq!(
                    approx_binomial_code_len(n, k),
                    u64::from(binomial_code_len(n, k)),
                    "C({n},{k})"
                );
            }
        }
    }
}
