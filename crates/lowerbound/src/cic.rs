//! Exact conditional information cost (Definition 6).
//!
//! `CIC_μ(Π) = I(Π; X | D)` where `D` is the auxiliary variable; under the
//! hard distribution the auxiliary variable is the special player `Z`, and
//! conditioned on `Z = z` the inputs are independent Bernoullis — exactly
//! the situation where
//! [`ProtocolTree::information_cost_product`](bci_blackboard::tree::ProtocolTree::information_cost_product)
//! computes `I(Π; X | Z = z)` exactly. `CIC` is then the `Z`-average.

use bci_blackboard::tree::ProtocolTree;

use crate::hard_dist::HardDist;

/// Exact `I(Π; X | D)` for a protocol tree, where `D` ranges over `slices`:
/// each slice is `(Pr[D = d], conditional priors given d)` with
/// `priors[i] = Pr[Xᵢ = 1 | D = d]`.
///
/// All slices are evaluated through the batched
/// [`information_cost_product_many`](ProtocolTree::information_cost_product_many)
/// kernel, which is bit-identical to the per-slice dense path; the weighted
/// fold below keeps the dense implementation's summation order.
///
/// # Panics
///
/// Panics if the slice weights do not sum to 1 (within `1e-9`), or a priors
/// vector has the wrong length.
pub fn cic_product(tree: &ProtocolTree, slices: &[(f64, Vec<f64>)]) -> f64 {
    let total: f64 = slices.iter().map(|(w, _)| w).sum();
    assert!(
        (total - 1.0).abs() < 1e-9,
        "auxiliary-variable weights sum to {total}"
    );
    let priors: Vec<&[f64]> = slices.iter().map(|(_, p)| p.as_slice()).collect();
    let costs = tree.information_cost_product_many(&priors);
    slices
        .iter()
        .zip(&costs)
        .map(|((w, _), &cost)| w * cost)
        .sum()
}

/// Exact `CIC_μ(Π) = I(Π; X | Z)` under the hard distribution of
/// Section 4.1.
///
/// # Panics
///
/// Panics if the tree and distribution disagree on `k`.
///
/// # Example
///
/// ```
/// use bci_lowerbound::cic::cic_hard;
/// use bci_lowerbound::hard_dist::HardDist;
/// use bci_protocols::and_trees::{all_speak_and, sequential_and};
///
/// let k = 12;
/// let mu = HardDist::new(k);
/// let seq = cic_hard(&sequential_and(k), &mu);
/// let all = cic_hard(&all_speak_and(k), &mu);
/// // Both protocols reveal Ω(log k) — and all-speak reveals more.
/// assert!(seq > 0.0 && seq <= all);
/// ```
pub fn cic_hard(tree: &ProtocolTree, dist: &HardDist) -> f64 {
    let k = dist.k();
    assert_eq!(
        tree.num_players(),
        k,
        "tree has {} players, distribution has {k}",
        tree.num_players()
    );
    let w = 1.0 / k as f64;
    // One batched pass over all k prior slices. The hard distribution has
    // only two distinct prior values (0 and 1−1/k), so a slice costs two
    // transcendentals per distinct q-pair rather than per (leaf, player).
    // For `sequential_and(k)`, consecutive leaves share all but the last
    // entry of their writer lists and slice z's mass is exactly 0 from
    // player z on, so the prefix-shared fold does O(k) work per slice and
    // O(k²) in all, the order of building the leaf table once.
    // Bit-identical to `w * information_cost_product(slice)` summed in
    // z-order.
    let slices: Vec<Vec<f64>> = (0..k).map(|z| dist.priors_given_z(z)).collect();
    let costs = tree.information_cost_product_many(&slices);
    costs.iter().map(|&cost| w * cost).sum()
}

/// The paper's Theorem 1 lower-bound form `c · log₂ k` evaluated with the
/// constant that the proof yields for posterior level `p`:
/// `(p/2)·log₂ k` (Equation (8), valid once `k ≥ 2^{2/p}`).
pub fn theorem1_bound(k: usize, p: f64) -> f64 {
    assert!((0.0..=1.0).contains(&p));
    0.5 * p * (k as f64).log2()
}

#[cfg(test)]
mod tests {
    use super::*;
    use bci_protocols::and_trees::{lazy_and, noisy_sequential_and, sequential_and};

    #[test]
    fn cic_hard_of_sequential_and_grows_like_log_k() {
        let mut prev = 0.0;
        for k in [4usize, 8, 16, 32, 64] {
            let cic = cic_hard(&sequential_and(k), &HardDist::new(k));
            assert!(cic > prev, "CIC must grow with k");
            let ratio = cic / (k as f64).log2();
            assert!(
                ratio > 0.3 && ratio < 1.5,
                "k={k}: CIC={cic}, ratio {ratio}"
            );
            prev = cic;
        }
    }

    #[test]
    fn cic_hard_matches_manual_average() {
        let k = 6;
        let mu = HardDist::new(k);
        let tree = sequential_and(k);
        let manual: f64 = (0..k)
            .map(|z| tree.information_cost_product(&mu.priors_given_z(z)) / k as f64)
            .sum();
        assert!((cic_hard(&tree, &mu) - manual).abs() < 1e-12);
    }

    #[test]
    fn cic_hard_is_bitwise_identical_to_per_slice_dense_kernel() {
        // The batched lane must not move a single digit of the e2 table:
        // compare against the pre-batching implementation (per-slice dense
        // kernel, identical fold order) bit for bit. The larger k give long
        // writer lists whose shared prefixes die at every position z; the
        // lazy tree's root has three moves, one of them input-independent.
        for k in [2usize, 3, 8, 33, 64, 128, 257] {
            let mu = HardDist::new(k);
            for tree in [
                sequential_and(k),
                noisy_sequential_and(k, 0.2),
                lazy_and(k, 0.5),
            ] {
                let w = 1.0 / k as f64;
                let dense: f64 = (0..k)
                    .map(|z| w * tree.information_cost_product(&mu.priors_given_z(z)))
                    .sum();
                let batched = cic_hard(&tree, &mu);
                assert_eq!(batched.to_bits(), dense.to_bits(), "k={k}");
            }
        }
    }

    #[test]
    fn cic_product_validates_weights() {
        let tree = sequential_and(3);
        let slices = vec![(0.5, vec![0.5; 3]), (0.5, vec![0.9; 3])];
        let v = cic_product(&tree, &slices);
        assert!(v > 0.0);
    }

    #[test]
    #[should_panic(expected = "weights sum")]
    fn cic_product_rejects_bad_weights() {
        let tree = sequential_and(3);
        cic_product(&tree, &[(0.4, vec![0.5; 3])]);
    }

    #[test]
    fn noise_reduces_information() {
        // A noisier channel reveals less about the input.
        let k = 8;
        let mu = HardDist::new(k);
        let crisp = cic_hard(&sequential_and(k), &mu);
        let noisy = cic_hard(&noisy_sequential_and(k, 0.2), &mu);
        let noisier = cic_hard(&noisy_sequential_and(k, 0.4), &mu);
        assert!(noisy < crisp, "{noisy} !< {crisp}");
        assert!(noisier < noisy, "{noisier} !< {noisy}");
    }

    #[test]
    fn lazy_giveup_mass_scales_information_down() {
        let k = 8;
        let mu = HardDist::new(k);
        let full = cic_hard(&sequential_and(k), &mu);
        let half_lazy = cic_hard(&lazy_and(k, 0.5), &mu);
        assert!(half_lazy < full);
        // The give-up branch contributes nothing, so roughly half remains
        // (up to the cost of revealing the coin itself, which is 0: the coin
        // is input-independent).
        assert!(half_lazy > 0.3 * full);
    }

    #[test]
    fn cic_respects_theorem1_shape() {
        // The sequential protocol (a valid δ=0 protocol) must sit above the
        // Theorem 1 bound with some constant p — here p is the posterior
        // level, and the bound (p/2)·log k holds with p ≈ 1/2 asymptotically.
        for k in [64usize, 256, 1024] {
            let cic = cic_hard(&sequential_and(k), &HardDist::new(k));
            assert!(
                cic >= theorem1_bound(k, 0.5) * 0.5,
                "k={k}: CIC {cic} below bound shape"
            );
        }
    }

    #[test]
    fn cic_hard_cross_validates_against_bruteforce_cmi() {
        // Full joint enumeration of (Z, X, Π) for a small randomized tree.
        use bci_info::joint::{conditional_mutual_information, Joint2};
        let k = 4;
        let mu = HardDist::new(k);
        let tree = noisy_sequential_and(k, 0.15);
        let mut slices = Vec::new();
        for z in 0..k {
            let priors = mu.priors_given_z(z);
            let mut rows = Vec::new();
            for xi in 0..(1u32 << k) {
                let x: Vec<bool> = (0..k).map(|i| (xi >> i) & 1 == 1).collect();
                let px: f64 = x
                    .iter()
                    .zip(&priors)
                    .map(|(&b, &p)| if b { p } else { 1.0 - p })
                    .product();
                let row: Vec<f64> = tree
                    .transcript_dist_given_input(&x)
                    .into_iter()
                    .map(|p| px * p)
                    .collect();
                rows.push(row);
            }
            slices.push((1.0 / k as f64, Joint2::new(rows).unwrap()));
        }
        let brute = conditional_mutual_information(&slices);
        let fast = cic_hard(&tree, &mu);
        assert!((brute - fast).abs() < 1e-9, "{brute} vs {fast}");
    }
}
