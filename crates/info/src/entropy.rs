//! Shannon entropy (Definition 1 of the paper).

use crate::num::{clamp_nonneg, xlog2x};

/// Shannon entropy `H(p) = Σ p(x) log₂ 1/p(x)` of a probability vector,
/// in bits.
///
/// Zero entries contribute nothing (`0 log 0 = 0`). The input is assumed
/// normalized; see [`Dist`](crate::dist::Dist) for validated construction.
///
/// # Example
///
/// ```
/// use bci_info::entropy::entropy;
///
/// assert!((entropy(&[0.5, 0.5]) - 1.0).abs() < 1e-15);
/// assert_eq!(entropy(&[1.0, 0.0]), 0.0);
/// ```
pub fn entropy(probs: &[f64]) -> f64 {
    clamp_nonneg(-probs.iter().copied().map(xlog2x).sum::<f64>(), 1e-9)
}

/// Entropy of an empirical distribution given raw counts.
///
/// Returns `0` for empty input.
pub fn entropy_from_counts(counts: &[u64]) -> f64 {
    let total: u64 = counts.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let t = total as f64;
    clamp_nonneg(
        counts
            .iter()
            .filter(|&&c| c > 0)
            .map(|&c| {
                let p = c as f64 / t;
                -xlog2x(p)
            })
            .sum(),
        1e-9,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_entropy_is_log_n() {
        for n in [2usize, 4, 8, 1024] {
            let p = vec![1.0 / n as f64; n];
            assert!((entropy(&p) - (n as f64).log2()).abs() < 1e-9, "n={n}");
        }
    }

    #[test]
    fn deterministic_entropy_is_zero() {
        assert_eq!(entropy(&[0.0, 1.0, 0.0]), 0.0);
    }

    #[test]
    fn entropy_is_maximized_by_uniform() {
        let skewed = entropy(&[0.9, 0.05, 0.05]);
        let uniform = entropy(&[1.0 / 3.0; 3]);
        assert!(skewed < uniform);
    }

    #[test]
    fn counts_match_plugin_probabilities() {
        let h = entropy_from_counts(&[1, 1, 2]);
        assert!((h - entropy(&[0.25, 0.25, 0.5])).abs() < 1e-12);
        assert_eq!(entropy_from_counts(&[]), 0.0);
        assert_eq!(entropy_from_counts(&[0, 5, 0]), 0.0);
    }
}
