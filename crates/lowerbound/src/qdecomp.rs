//! The Lemma 3/4 machinery: α-coefficients and pointing posteriors.
//!
//! For a transcript (leaf) `ℓ` with the product decomposition
//! `Pr[Π(X) = ℓ] = ∏ᵢ q_{i,Xᵢ}^ℓ`, the ratio `α_i^ℓ = q_{i,0}^ℓ / q_{i,1}^ℓ`
//! measures how much the transcript "prefers" player `i`'s input to be 0.
//! Lemma 4 turns α into a posterior under the hard distribution:
//!
//! `Pr[Xᵢ = 0 | Π = ℓ, Z ≠ i] = αᵢ / (αᵢ + k − 1)`.
//!
//! A transcript *points* at player `i` when `αᵢ = Ω(k)`, which makes the
//! posterior constant even though the prior is only `1/k`.

use bci_blackboard::tree::Leaf;

/// The ratio `α_i^ℓ`, with `∞` represented explicitly (the case
/// `q_{i,1} = 0`, where the transcript *proves* `Xᵢ = 0`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Alpha {
    /// `q_{i,1} > 0`: the finite ratio `q_{i,0}/q_{i,1}`.
    Finite(f64),
    /// `q_{i,1} = 0` while `q_{i,0} > 0`: the posterior of zero is 1.
    Infinite,
    /// `q_{i,0} = q_{i,1} = 0`: the leaf is unreachable for player `i`
    /// entirely; α is undefined.
    Undefined,
}

impl Alpha {
    /// Whether `α ≥ threshold` (true for `Infinite`, false for `Undefined`).
    pub fn at_least(&self, threshold: f64) -> bool {
        match self {
            Alpha::Finite(a) => *a >= threshold,
            Alpha::Infinite => true,
            Alpha::Undefined => false,
        }
    }

    /// The finite value, if any.
    pub fn value(&self) -> Option<f64> {
        match self {
            Alpha::Finite(a) => Some(*a),
            _ => None,
        }
    }
}

/// Computes `α_i^ℓ` for one player.
pub fn alpha(leaf: &Leaf, player: usize) -> Alpha {
    let q0 = leaf.q(player, false);
    let q1 = leaf.q(player, true);
    if q1 > 0.0 {
        Alpha::Finite(q0 / q1)
    } else if q0 > 0.0 {
        Alpha::Infinite
    } else {
        Alpha::Undefined
    }
}

/// Lemma 4: the posterior `Pr[Xᵢ = 0 | Π = ℓ, Z ≠ i]` under the hard
/// distribution, i.e. with prior `Pr[Xᵢ = 0] = 1/k`:
/// `α/(α + k − 1)` (1 when `α = ∞`, 0 when undefined).
pub fn posterior_zero(leaf: &Leaf, player: usize, k: usize) -> f64 {
    match alpha(leaf, player) {
        Alpha::Finite(a) => a / (a + (k as f64 - 1.0)),
        Alpha::Infinite => 1.0,
        Alpha::Undefined => 0.0,
    }
}

/// The largest α among all players of a leaf (`Infinite` dominates).
pub fn max_alpha(leaf: &Leaf, k: usize) -> Alpha {
    let mut best = Alpha::Undefined;
    for i in 0..k {
        match (alpha(leaf, i), &best) {
            (Alpha::Infinite, _) => return Alpha::Infinite,
            (Alpha::Finite(a), Alpha::Finite(b)) if a > *b => best = Alpha::Finite(a),
            (Alpha::Finite(a), Alpha::Undefined) => best = Alpha::Finite(a),
            _ => {}
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use bci_protocols::and_trees::{noisy_sequential_and, sequential_and};

    #[test]
    fn alpha_on_deterministic_sequential_and() {
        let k = 5;
        let t = sequential_and(k);
        // The leaf where player 2 announced 0 (path "110"): q_{2,0}=1, q_{2,1}=0.
        let leaf = t
            .leaves()
            .iter()
            .find(|l| l.path_bits == 3 && l.output == 0)
            .expect("third-player-zero leaf");
        assert_eq!(alpha(leaf, 2), Alpha::Infinite);
        // Players 0,1 announced 1: q_{i,0} = 0 → α = 0.
        assert_eq!(alpha(leaf, 0), Alpha::Finite(0.0));
        // Players 3,4 never spoke: q = (1,1) → α = 1.
        assert_eq!(alpha(leaf, 3), Alpha::Finite(1.0));
        assert_eq!(alpha(leaf, 4), Alpha::Finite(1.0));
    }

    #[test]
    fn posterior_matches_lemma4_formula() {
        let k = 10;
        let t = noisy_sequential_and(k, 0.1);
        for leaf in t.leaves() {
            for i in 0..k {
                if let Alpha::Finite(a) = alpha(leaf, i) {
                    let expect = a / (a + 9.0);
                    assert!((posterior_zero(leaf, i, k) - expect).abs() < 1e-12);
                }
            }
        }
    }

    #[test]
    fn posterior_is_bayes_under_hard_distribution() {
        // Cross-check Lemma 4 against the tree's own Bayes computation with
        // prior Pr[Xᵢ = 1] = 1 − 1/k (a non-special player).
        let k = 6;
        let t = noisy_sequential_and(k, 0.2);
        let prior_one = 1.0 - 1.0 / k as f64;
        for leaf in t.leaves() {
            for i in 0..k {
                if let Some(post_one) = leaf.posterior_one(i, prior_one) {
                    let lemma4 = posterior_zero(leaf, i, k);
                    assert!(
                        ((1.0 - post_one) - lemma4).abs() < 1e-12,
                        "leaf output {} player {i}",
                        leaf.output
                    );
                }
            }
        }
    }

    #[test]
    fn pointing_posterior_is_constant_when_alpha_is_order_k() {
        for k in [16usize, 64, 256] {
            let t = sequential_and(k);
            // Every 0-output leaf of the exact protocol proves some Xᵢ = 0.
            for leaf in t.leaves().iter().filter(|l| l.output == 0) {
                let m = max_alpha(leaf, k);
                assert_eq!(m, Alpha::Infinite);
                let pointer = (0..k)
                    .find(|&i| alpha(leaf, i) == Alpha::Infinite)
                    .expect("pointing player");
                assert_eq!(posterior_zero(leaf, pointer, k), 1.0);
            }
        }
    }

    #[test]
    fn max_alpha_on_noisy_tree_is_finite_and_large() {
        let k = 32;
        let eps = 0.001;
        let t = noisy_sequential_and(k, eps);
        // The first-player-zero leaf: α₀ = (1−ε)/ε ≫ k.
        let leaf = t
            .leaves()
            .iter()
            .find(|l| l.path_bits == 1)
            .expect("first leaf");
        match max_alpha(leaf, k) {
            Alpha::Finite(a) => {
                assert!((a - (1.0 - eps) / eps).abs() < 1e-9);
                assert!(a > k as f64);
            }
            other => panic!("expected finite alpha, got {other:?}"),
        }
    }

    #[test]
    fn alpha_helpers() {
        assert!(Alpha::Infinite.at_least(1e18));
        assert!(!Alpha::Undefined.at_least(0.0));
        assert!(Alpha::Finite(5.0).at_least(5.0));
        assert!(!Alpha::Finite(4.9).at_least(5.0));
        assert_eq!(Alpha::Finite(2.0).value(), Some(2.0));
        assert_eq!(Alpha::Infinite.value(), None);
    }
}
