//! Brute-force verification of the direct-sum results (Lemma 1 and the
//! Theorem 4 equality on product distributions).
//!
//! The paper's Lemma 1 lower-bounds `CIC_{μⁿ}(DISJ_{n,k})` by
//! `n · CIC_μ(AND_k)`; the matching upper-bound direction is witnessed by the
//! *coordinate-wise protocol* `Πⁿ` that runs the `AND_k` protocol on each of
//! the `n` coordinates independently. These functions compute the
//! information cost of `Πⁿ` **by full joint enumeration of**
//! `(D, X, transcript)` — no additivity assumption anywhere — so comparing
//! them against `n ×` the single-copy exact value is a genuine machine check
//! of additivity.
//!
//! Everything here is exponential by design; the guards keep parameters in
//! the regime where exhaustive enumeration is still exact and fast.

use bci_blackboard::tree::ProtocolTree;
use bci_info::dist::Dist;
use bci_info::joint::{conditional_mutual_information, Joint2};
use bci_protocols::disj_trees::coordinatewise_disj_tree;

use crate::hard_dist::HardDist;

fn check_size(k: usize, n: usize, leaves: usize, with_aux: bool) {
    assert!(n >= 1, "need at least one copy");
    assert!(n * k <= 14, "2^(nk) enumeration too large: n·k = {}", n * k);
    assert!(
        leaves.pow(n as u32) <= 1 << 16,
        "transcript space too large"
    );
    if with_aux {
        assert!(k.pow(n as u32) <= 4096, "auxiliary space too large");
    }
}

/// Decodes joint-input index `xi` into `n` per-coordinate inputs of `k` bits.
fn decode_input(xi: usize, n: usize, k: usize) -> Vec<Vec<bool>> {
    (0..n)
        .map(|j| {
            let block = (xi >> (j * k)) & ((1 << k) - 1);
            (0..k).map(|i| (block >> i) & 1 == 1).collect()
        })
        .collect()
}

/// Exact `IC_{μⁿ}(Πⁿ) = I(Πⁿ; X)` of the n-fold coordinate-wise protocol
/// under the product distribution with independent per-player priors
/// (`priors[i] = Pr[Xᵢ = 1]`, identical across copies), by full enumeration.
///
/// # Panics
///
/// Panics if the enumeration would be too large (`n·k > 14` or more than
/// `2¹⁶` transcripts).
pub fn nfold_ic_bruteforce(tree: &ProtocolTree, priors: &[f64], n: usize) -> f64 {
    let k = tree.num_players();
    assert_eq!(priors.len(), k, "prior length mismatch");
    let leaves = tree.leaves().len();
    check_size(k, n, leaves, false);
    let n_inputs = 1usize << (n * k);
    let n_transcripts = leaves.pow(n as u32);
    let mut rows = Vec::with_capacity(n_inputs);
    for xi in 0..n_inputs {
        let coords = decode_input(xi, n, k);
        let px: f64 = coords
            .iter()
            .flat_map(|x| x.iter().zip(priors))
            .map(|(&b, &p)| if b { p } else { 1.0 - p })
            .product();
        // Per-coordinate transcript distributions.
        let per_coord: Vec<Vec<f64>> = coords
            .iter()
            .map(|x| tree.transcript_dist_given_input(x))
            .collect();
        let mut row = Vec::with_capacity(n_transcripts);
        for t in 0..n_transcripts {
            let mut p = px;
            let mut rest = t;
            for dist in per_coord.iter() {
                p *= dist[rest % leaves];
                rest /= leaves;
            }
            row.push(p);
        }
        rows.push(row);
    }
    Joint2::new(rows)
        .expect("joint enumeration is a distribution")
        .mutual_information()
}

/// Exact `CIC_{μⁿ}(Πⁿ) = I(Πⁿ; X | Z₁…Z_n)` of the n-fold coordinate-wise
/// protocol under the n-fold hard distribution, by full enumeration over the
/// auxiliary vector, the joint input, and the joint transcript.
///
/// # Panics
///
/// Panics if the enumeration would be too large.
pub fn nfold_cic_bruteforce(tree: &ProtocolTree, dist: &HardDist, n: usize) -> f64 {
    let k = tree.num_players();
    assert_eq!(k, dist.k(), "tree/distribution k mismatch");
    let leaves = tree.leaves().len();
    check_size(k, n, leaves, true);
    let n_inputs = 1usize << (n * k);
    let n_transcripts = leaves.pow(n as u32);
    let n_aux = k.pow(n as u32);
    let w = 1.0 / n_aux as f64;
    let mut slices = Vec::with_capacity(n_aux);
    for zi in 0..n_aux {
        let zvec: Vec<usize> = {
            let mut v = Vec::with_capacity(n);
            let mut rest = zi;
            for _ in 0..n {
                v.push(rest % k);
                rest /= k;
            }
            v
        };
        let mut rows = Vec::with_capacity(n_inputs);
        for xi in 0..n_inputs {
            let coords = decode_input(xi, n, k);
            let px: f64 = coords
                .iter()
                .zip(&zvec)
                .map(|(x, &z)| dist.prob_given_z(x, z))
                .product();
            let mut row = vec![0.0; n_transcripts];
            if px > 0.0 {
                let per_coord: Vec<Vec<f64>> = coords
                    .iter()
                    .map(|x| tree.transcript_dist_given_input(x))
                    .collect();
                for (t, slot) in row.iter_mut().enumerate() {
                    let mut p = px;
                    let mut rest = t;
                    for dist_j in per_coord.iter() {
                        p *= dist_j[rest % leaves];
                        rest /= leaves;
                    }
                    *slot = p;
                }
            }
            rows.push(row);
        }
        slices.push((w, Joint2::new(rows).expect("valid joint")));
    }
    conditional_mutual_information(&slices)
}

/// The n-fold hard-distribution prior for one player: the product over
/// coordinates of `Bern(Pr[Xᵢ = 1 | Z = zⱼ])`, as a distribution over set
/// symbols in `0..2ⁿ`.
fn player_prior(dist: &HardDist, player: usize, zvec: &[usize]) -> Dist {
    let n = zvec.len();
    let p1: Vec<f64> = zvec
        .iter()
        .map(|&z| dist.priors_given_z(z)[player])
        .collect();
    let probs: Vec<f64> = (0..(1usize << n))
        .map(|s| {
            p1.iter()
                .enumerate()
                .map(|(j, &p)| if (s >> j) & 1 == 1 { p } else { 1.0 - p })
                .product()
        })
        .collect();
    Dist::new(probs).expect("product of Bernoullis")
}

/// Exact `CIC_{μⁿ}(coordinate-wise DISJ_{n,k}) = I(Π; X | Z₁…Z_n)`,
/// computed directly on the full set-valued
/// [`coordinatewise_disj_tree`] by averaging over all `kⁿ` auxiliary
/// vectors. This is the general-alphabet counterpart of
/// [`nfold_cic_bruteforce`]: it shares no code with the binary kernel
/// behind [`cic_hard`](crate::cic::cic_hard).
///
/// # Panics
///
/// Panics if `k < 2` or `kⁿ > 4096`.
pub fn disj_cic_exact(n: usize, k: usize) -> f64 {
    let dist = HardDist::new(k);
    let n_aux = k.pow(n as u32);
    assert!(n_aux <= 4096, "auxiliary space too large");
    let tree = coordinatewise_disj_tree(n, k);
    let w = 1.0 / n_aux as f64;
    let mut total = 0.0;
    for zi in 0..n_aux {
        let mut rest = zi;
        let zvec: Vec<usize> = (0..n)
            .map(|_| {
                let z = rest % k;
                rest /= k;
                z
            })
            .collect();
        let priors: Vec<Dist> = (0..k).map(|i| player_prior(&dist, i, &zvec)).collect();
        total += w * tree.information_cost_product(&priors);
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cic::cic_hard;
    use bci_protocols::and_trees::{noisy_sequential_and, sequential_and};

    #[test]
    fn one_fold_matches_single_copy() {
        let k = 3;
        let tree = sequential_and(k);
        let priors = vec![0.8; k];
        let one = nfold_ic_bruteforce(&tree, &priors, 1);
        let single = tree.information_cost_product(&priors);
        assert!((one - single).abs() < 1e-10);
    }

    #[test]
    fn ic_is_additive_across_copies_product_dist() {
        // Theorem 4 direction: IC_{μⁿ}(Πⁿ) = n · IC_μ(Π) for product μ.
        let k = 3;
        let tree = sequential_and(k);
        let priors = vec![2.0 / 3.0; k];
        let single = tree.information_cost_product(&priors);
        for n in [2usize, 3, 4] {
            let nfold = nfold_ic_bruteforce(&tree, &priors, n);
            assert!(
                (nfold - n as f64 * single).abs() < 1e-9,
                "n={n}: {nfold} vs {}",
                n as f64 * single
            );
        }
    }

    #[test]
    fn ic_additivity_holds_for_randomized_protocols_too() {
        let k = 2;
        let tree = noisy_sequential_and(k, 0.2);
        let priors = vec![0.75; k];
        let single = tree.information_cost_product(&priors);
        for n in [2usize, 3] {
            let nfold = nfold_ic_bruteforce(&tree, &priors, n);
            assert!((nfold - n as f64 * single).abs() < 1e-9, "n={n}");
        }
    }

    #[test]
    fn cic_is_additive_under_hard_distribution() {
        // Lemma 1's equality case: the coordinate-wise protocol on μⁿ has
        // CIC exactly n · CIC_μ(AND_k).
        let k = 3;
        let tree = sequential_and(k);
        let mu = HardDist::new(k);
        let single = cic_hard(&tree, &mu);
        for n in [2usize, 3] {
            let nfold = nfold_cic_bruteforce(&tree, &mu, n);
            assert!(
                (nfold - n as f64 * single).abs() < 1e-9,
                "n={n}: {nfold} vs {}",
                n as f64 * single
            );
        }
    }

    #[test]
    fn cic_additivity_for_noisy_protocol() {
        let k = 2;
        let tree = noisy_sequential_and(k, 0.1);
        let mu = HardDist::new(k);
        let single = cic_hard(&tree, &mu);
        let two = nfold_cic_bruteforce(&tree, &mu, 2);
        assert!(
            (two - 2.0 * single).abs() < 1e-9,
            "{two} vs {}",
            2.0 * single
        );
    }

    #[test]
    fn lemma1_equality_on_the_full_disjointness_tree() {
        // CIC_{μⁿ}(DISJ tree) = n · CIC_μ(AND_k): the general-alphabet
        // tree on one side, the binary batched kernel on the other.
        for (n, k) in [(1usize, 3usize), (2, 3), (3, 3), (2, 4)] {
            let whole = disj_cic_exact(n, k);
            let per_copy = cic_hard(&sequential_and(k), &HardDist::new(k));
            assert!(
                (whole - n as f64 * per_copy).abs() < 1e-9,
                "(n={n},k={k}): {whole} vs {}",
                n as f64 * per_copy
            );
        }
    }

    #[test]
    fn disj_cic_grows_linearly_in_n() {
        let k = 3;
        let c1 = disj_cic_exact(1, k);
        let c2 = disj_cic_exact(2, k);
        let c3 = disj_cic_exact(3, k);
        assert!((c2 - 2.0 * c1).abs() < 1e-9);
        assert!((c3 - 3.0 * c1).abs() < 1e-9);
    }

    #[test]
    fn player_prior_is_a_valid_product_distribution() {
        let d = player_prior(&HardDist::new(4), 1, &[0, 1, 2]);
        assert_eq!(d.len(), 8);
        // Player 1 is special in coordinate 1: every symbol with bit 1 set
        // has probability 0.
        for s in 0..8usize {
            if (s >> 1) & 1 == 1 {
                assert_eq!(d.prob(s), 0.0, "symbol {s}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "too large")]
    fn guards_reject_huge_enumerations() {
        let tree = sequential_and(5);
        nfold_ic_bruteforce(&tree, &[0.5; 5], 3);
    }
}
