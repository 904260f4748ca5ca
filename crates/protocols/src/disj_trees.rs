//! `DISJ_{n,k}` as an exact [`GeneralTree`] — the whole problem, not just
//! its one-bit pieces, under the exact-analysis machinery.
//!
//! Player `i`'s input is its set `Xᵢ ⊆ [n]`, encoded as a symbol in
//! `0..2ⁿ`. The protocol is the coordinate-wise one the direct sum speaks
//! about: process columns `j = 0, …, n−1` in order; in a column, players
//! announce bit `j` of their set sequentially; a zero moves to the next
//! column, a full column of ones ends with output 0 ("non-disjoint"); all
//! columns cleared ends with output 1 ("disjoint").
//!
//! `bci_lowerbound::direct_sum::disj_cic_exact` computes
//! `CIC_{μⁿ}(DISJ_{n,k})` on this tree *directly* — no additivity
//! assumption — and checks the Lemma 1 equality
//! `CIC_{μⁿ}(Πⁿ) = n · CIC_μ(AND_k)` at the level of the full disjointness
//! protocol.

use bci_blackboard::general_tree::{GeneralTree, GeneralTreeBuilder};
use bci_encoding::bitio::BitVec;

fn bit(v: bool) -> BitVec {
    BitVec::from_bools(&[v])
}

/// Builds the coordinate-wise `DISJ_{n,k}` tree over set-valued inputs.
///
/// # Panics
///
/// Panics if the tree would be too large (`(k+1)ⁿ > 4096` paths) — the
/// exact machinery is for small instances; use the executable protocols for
/// sweeps.
pub fn coordinatewise_disj_tree(n: usize, k: usize) -> GeneralTree {
    assert!(n >= 1 && k >= 1, "need n, k ≥ 1");
    assert!(
        (k + 1).pow(n as u32) <= 4096,
        "tree too large: (k+1)^n = {}",
        (k + 1).pow(n as u32)
    );
    let alphabet = 1usize << n;
    let mut b = GeneralTreeBuilder::new(vec![alphabet; k]);

    /// Probability vector for "player announces bit j = value".
    fn col_prob(alphabet: usize, j: usize, value: bool) -> Vec<f64> {
        (0..alphabet)
            .map(|s| {
                let has = (s >> j) & 1 == 1;
                if has == value {
                    1.0
                } else {
                    0.0
                }
            })
            .collect()
    }

    /// Builds the subtree starting at column `j`, player `i`.
    fn build(
        b: &mut GeneralTreeBuilder,
        n: usize,
        k: usize,
        alphabet: usize,
        j: usize,
        i: usize,
    ) -> usize {
        if j == n {
            return b.leaf(1); // all columns cleared: disjoint
        }
        // On a one-announcement: next player in this column, or the
        // non-disjoint leaf if this was the last.
        let on_one = if i + 1 < k {
            build(b, n, k, alphabet, j, i + 1)
        } else {
            b.leaf(0) // full column of ones: intersection found
        };
        // On a zero-announcement: this column is cleared; start the next.
        let on_zero = build(b, n, k, alphabet, j + 1, 0);
        b.internal(
            i,
            vec![
                (bit(false), col_prob(alphabet, j, false), on_zero),
                (bit(true), col_prob(alphabet, j, true), on_one),
            ],
        )
    }

    let root = build(&mut b, n, k, alphabet, 0, 0);
    b.finish(root)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disj::{coordinatewise, disj_function};
    use bci_encoding::bitset::BitSet;

    #[test]
    fn tree_computes_disjointness_exactly() {
        let (n, k) = (3, 3);
        let tree = coordinatewise_disj_tree(n, k);
        for xi in 0..(1usize << (n * k)) {
            let symbols: Vec<usize> = (0..k).map(|i| (xi >> (i * n)) & ((1 << n) - 1)).collect();
            let sets: Vec<BitSet> = symbols
                .iter()
                .map(|&s| BitSet::from_elements(n, (0..n).filter(|&j| (s >> j) & 1 == 1)))
                .collect();
            let expect = usize::from(disj_function(&sets));
            let dist = tree.transcript_dist_given_input(&symbols);
            let leaf = dist
                .iter()
                .position(|&p| p > 0.999)
                .expect("deterministic tree");
            assert_eq!(tree.leaves()[leaf].output, expect, "input {symbols:?}");
        }
    }

    #[test]
    fn tree_communication_matches_executable_protocol() {
        let (n, k) = (2, 3);
        let tree = coordinatewise_disj_tree(n, k);
        for xi in 0..(1usize << (n * k)) {
            let symbols: Vec<usize> = (0..k).map(|i| (xi >> (i * n)) & ((1 << n) - 1)).collect();
            let sets: Vec<BitSet> = symbols
                .iter()
                .map(|&s| BitSet::from_elements(n, (0..n).filter(|&j| (s >> j) & 1 == 1)))
                .collect();
            let run = coordinatewise::run(&sets);
            let dist = tree.transcript_dist_given_input(&symbols);
            let leaf = dist.iter().position(|&p| p > 0.999).expect("deterministic");
            assert_eq!(tree.leaves()[leaf].path_bits, run.bits, "input {symbols:?}");
        }
    }

    #[test]
    #[should_panic(expected = "too large")]
    fn guards_reject_big_trees() {
        coordinatewise_disj_tree(8, 8);
    }
}
