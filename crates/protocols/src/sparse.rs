//! The Håstad–Wigderson `O(s)` protocol for *sparse* two-player set
//! disjointness.
//!
//! The paper's introduction uses this protocol as the cautionary example:
//! where one might expect `O(s log n)` (sending `s` elements of `[n]`), the
//! right answer has *no* log factor. Two players holding `X, Y ⊆ [n]` with
//! `|X| = |Y| = s` decide `X ∩ Y = ∅` in `O(s)` expected bits.
//!
//! The mechanism is the same find-the-index-in-shared-randomness idea as the
//! paper's Lemma 7 sampler: shared randomness defines an infinite sequence
//! of uniformly random sets `R₁, R₂, …`. The current speaker (say Alice,
//! holding candidate set `A`) announces the index `I` of the first `R_I ⊇ A`
//! — a geometric variable with mean `2^{|A|}`, so the (Elias-δ-coded) index
//! costs `≈ |A| + O(log |A|)` bits. Since `A ⊆ R_I`, every element of Bob's
//! set outside `R_I` is provably not in `A`, so Bob prunes `B ← B ∩ R_I`,
//! halving `B` in expectation. Roles alternate; the candidate sets shrink
//! geometrically, and the total cost telescopes to
//! `≈ 2·(s + s/2 + s/4 + …) = O(s)`.
//!
//! Invariant: `A ∩ B = X ∩ Y` at all times (pruned elements are provably
//! outside the other side's candidate set). So:
//! * a candidate set hits `∅` ⇒ disjoint, zero error;
//! * intersecting inputs shrink to the intersection and stall; after a few
//!   stalled rounds the speaker falls back to announcing its (by then tiny)
//!   candidate set explicitly — still zero error.
//!
//! **Simulation note** (cf. DESIGN.md substitution 2): scanning
//! `≈ 2^{|A|}` shared random sets is physically impossible, so the
//! simulation samples the index from its exact geometric law (in the log
//! domain for large `|A|`) and draws `R_I` from its exact conditional
//! distribution (`R ⊇ A`, rest iid fair). Behaviour and cost are
//! distribution-exact; only the unenumerable scan is elided.

use bci_encoding::bitset::SparseBitSet;
use rand::Rng;

/// Result of one run of the sparse-disjointness protocol.
#[derive(Debug, Clone)]
pub struct SparseRun {
    /// Total communication in bits (fractional: index codes are accounted
    /// by their exact Elias-δ lengths, which for astronomically large
    /// indices are computed from `log₂ I`).
    pub bits: f64,
    /// `true` = disjoint.
    pub output: bool,
    /// Pruning rounds executed.
    pub rounds: usize,
    /// Whether the explicit-announcement fallback fired.
    pub fallback: bool,
}

/// Elias-δ code length for an index known only through its base-2 log.
fn delta_len_from_log2(log2_i: f64) -> f64 {
    let bits = log2_i.max(0.0).floor(); // ⌊log₂ I⌋
                                        // γ(bits + 1) + bits  =  2⌊log₂(bits+1)⌋ + 1 + bits.
    2.0 * (bits + 1.0).log2().floor() + 1.0 + bits
}

/// Samples `log₂ I` where `I` is the (1-based) index of the first success
/// in Bernoulli(`2^{-a}`) trials.
fn sample_log2_index<R: Rng + ?Sized>(a: usize, rng: &mut R) -> f64 {
    if a <= 12 {
        // Exact geometric sampling by inverse CDF from a single uniform
        // draw: Pr[I > i] = (1−p)^i, so I = ⌊ln U / ln(1−p)⌋ + 1 follows
        // the geometric law exactly — where the old loop burned an
        // expected 2^a ≤ 4096 `random_bool` calls per round, this is one
        // `f64` draw regardless of `a`.
        let p = 2f64.powi(-(a as i32));
        if p >= 1.0 {
            return 0.0; // a = 0: the first set always works, I = 1
        }
        let u: f64 = rng.random::<f64>().max(1e-300);
        let i = (u.ln() / (1.0 - p).ln()).floor() + 1.0;
        i.log2()
    } else {
        // I ≈ Exp(mean 2^a): I = −ln(U)·2^a, so log₂I = a + log₂(−ln U).
        let u: f64 = rng.random::<f64>().max(1e-300);
        a as f64 + (-(u.ln())).log2().max(-(a as f64)) // clamp at I ≥ 1
    }
}

/// Bits to name one coordinate of `[n]` explicitly: `⌈log₂ n⌉`, at least 1.
fn coord_bits(n: usize) -> f64 {
    if n <= 1 {
        1.0
    } else {
        (usize::BITS - (n - 1).leading_zeros()) as f64
    }
}

/// How many consecutive non-shrinking rounds trigger the explicit fallback.
const STALL_LIMIT: usize = 4;

/// Runs the protocol on `(x, y)`.
///
/// Zero-error: the output always equals `x ∩ y = ∅`. The communication is
/// random; see [`SparseRun::bits`].
///
/// Each round samples the shared random set `R ⊇ a` *lazily on exactly
/// the words the listener's set occupies* (`R`'s word at index `i` is
/// `a.word(i) | random`), so one round costs `O(occupied words)` —
/// independent of the universe size. The tests keep a dense reference
/// that materializes `R` on all `n` coordinates; its RNG stream differs,
/// but the distribution of `(output, bits, rounds, fallback)` is the same,
/// which they check statistically.
///
/// # Panics
///
/// Panics if the sets' capacities differ.
pub fn run_sparse<R: Rng + ?Sized>(x: &SparseBitSet, y: &SparseBitSet, rng: &mut R) -> SparseRun {
    assert_eq!(x.capacity(), y.capacity(), "universe mismatch");
    let coord_bits = coord_bits(x.capacity());
    let mut a = x.clone();
    let mut b = y.clone();
    let mut bits = 0.0f64;
    let mut rounds = 0usize;
    let mut stall = 0usize;
    loop {
        if a.is_empty() {
            bits += 1.0; // "my set is empty" flag
            return SparseRun {
                bits,
                output: true,
                rounds,
                fallback: false,
            };
        }
        if stall >= STALL_LIMIT {
            bits += 1.0 + coord_bits + a.len() as f64 * coord_bits;
            let disjoint = a.intersection(&b).is_empty();
            return SparseRun {
                bits,
                output: disjoint,
                rounds,
                fallback: true,
            };
        }
        bits += 1.0 + delta_len_from_log2(sample_log2_index(a.len(), rng));
        // Prune `b` against `R ⊇ a`, materializing `R` only on the words
        // `b` occupies (in word order, one random u64 each).
        let before = b.len();
        b.retain_words(|idx, w| w & (a.word(idx) | rng.random::<u64>()));
        if b.len() == before {
            stall += 1;
        } else {
            stall = 0;
        }
        rounds += 1;
        std::mem::swap(&mut a, &mut b);
    }
}

/// The naive baseline: one side sends its whole set
/// (`s·⌈log₂ n⌉ + ⌈log₂ n⌉` bits), the other answers with one bit.
pub fn naive_bits(n: usize, s: usize) -> f64 {
    let coord_bits = coord_bits(n);
    s as f64 * coord_bits + coord_bits + 1.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use bci_encoding::bitset::BitSet;
    use rand::SeedableRng;

    fn rng(seed: u64) -> rand_chacha::ChaCha8Rng {
        rand_chacha::ChaCha8Rng::seed_from_u64(seed)
    }

    /// Draws `R` from its conditional law given `R ⊇ a_set` on all `n`
    /// coordinates: the forced elements plus each other element
    /// independently with probability ½ (one random `u64` per 64 elements).
    fn conditioned_random_set<R: Rng + ?Sized>(a_set: &BitSet, rng: &mut R) -> BitSet {
        let words = a_set
            .words()
            .iter()
            .map(|&w| w | rng.random::<u64>())
            .collect();
        BitSet::from_words(a_set.capacity(), words)
    }

    /// The dense reference for [`run_sparse`]: the same protocol, with the
    /// shared random set materialized on all `n` coordinates every round
    /// (`O(n)` per round).
    fn run(x: &BitSet, y: &BitSet, rng: &mut impl Rng) -> SparseRun {
        assert_eq!(x.capacity(), y.capacity(), "universe mismatch");
        let coord_bits = coord_bits(x.capacity());
        let mut a = x.clone();
        let mut b = y.clone();
        let mut bits = 0.0f64;
        let mut rounds = 0usize;
        let mut stall = 0usize;
        loop {
            if a.is_empty() {
                bits += 1.0;
                return SparseRun {
                    bits,
                    output: true,
                    rounds,
                    fallback: false,
                };
            }
            if stall >= STALL_LIMIT {
                bits += 1.0 + coord_bits + a.len() as f64 * coord_bits;
                return SparseRun {
                    bits,
                    output: a.intersection(&b).is_empty(),
                    rounds,
                    fallback: true,
                };
            }
            bits += 1.0 + delta_len_from_log2(sample_log2_index(a.len(), rng));
            let pruned = b.intersection(&conditioned_random_set(&a, rng));
            if pruned.len() == b.len() {
                stall += 1;
            } else {
                stall = 0;
            }
            b = pruned;
            rounds += 1;
            std::mem::swap(&mut a, &mut b);
        }
    }

    /// Brody et al.'s **exact intersection** `X ∩ Y` in `O(s)` expected
    /// bits, the stronger primitive the paper's introduction mentions ("two
    /// players can even compute the exact intersection … using `O(s)`
    /// bits"): `(bits, intersection)`.
    ///
    /// The same alternating pruning as [`run`]; the candidate sets converge
    /// onto the intersection (`A ∩ B = X ∩ Y` is invariant and elements
    /// outside it are halved away each round). Once a candidate set stops
    /// shrinking or empties, its holder announces it explicitly — by then
    /// it is within a constant factor of `|X ∩ Y|` — and the other side
    /// intersects with its own candidate and announces the (tiny) result.
    fn intersect(x: &BitSet, y: &BitSet, rng: &mut impl Rng) -> (f64, BitSet) {
        let coord_bits = coord_bits(x.capacity());
        let mut a = x.clone();
        let mut b = y.clone();
        let mut bits = 0.0f64;
        let mut stall = 0usize;
        while !a.is_empty() && stall < STALL_LIMIT {
            bits += 1.0 + delta_len_from_log2(sample_log2_index(a.len(), rng));
            let pruned = b.intersection(&conditioned_random_set(&a, rng));
            if pruned.len() == b.len() {
                stall += 1;
            } else {
                stall = 0;
            }
            b = pruned;
            std::mem::swap(&mut a, &mut b);
        }
        let announce = |set: &BitSet| 1.0 + coord_bits + set.len() as f64 * coord_bits;
        bits += announce(&a);
        let result = a.intersection(&b);
        bits += announce(&result);
        (bits, result)
    }

    /// Two random disjoint s-subsets of [n].
    fn disjoint_pair<R: Rng + ?Sized>(n: usize, s: usize, r: &mut R) -> (BitSet, BitSet) {
        assert!(2 * s <= n);
        let mut perm: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            perm.swap(i, r.random_range(0..=i));
        }
        (
            BitSet::from_elements(n, perm[..s].iter().copied()),
            BitSet::from_elements(n, perm[s..2 * s].iter().copied()),
        )
    }

    fn overlapping_pair<R: Rng + ?Sized>(
        n: usize,
        s: usize,
        overlap: usize,
        r: &mut R,
    ) -> (BitSet, BitSet) {
        let (mut x, y) = disjoint_pair(n, s, r);
        let shared: Vec<usize> = y.iter().take(overlap).collect();
        let drop: Vec<usize> = x.iter().take(overlap).collect();
        for (d, s) in drop.into_iter().zip(shared) {
            x.remove(d);
            x.insert(s);
        }
        (x, y)
    }

    #[test]
    fn cost_is_linear_in_s_not_s_log_n() {
        let n = 1 << 20;
        let mut r = rng(3);
        let mean_bits = |s: usize, r: &mut rand_chacha::ChaCha8Rng| {
            let trials = 30;
            let mut total = 0.0;
            for _ in 0..trials {
                let (x, y) = disjoint_pair(n, s, r);
                total += run_sparse(&to_sparse(&x), &to_sparse(&y), r).bits;
            }
            total / trials as f64
        };
        let c64 = mean_bits(64, &mut r);
        let c256 = mean_bits(256, &mut r);
        // Linear: quadrupling s roughly quadruples cost (within 2x slack).
        let growth = c256 / c64;
        assert!(
            (2.5..6.0).contains(&growth),
            "growth {growth} not ≈ 4 ({c64} → {c256})"
        );
        // And far below the naive s·log₂(n) = 20·s baseline.
        assert!(
            c256 < 0.5 * naive_bits(n, 256),
            "HW {c256} vs naive {}",
            naive_bits(n, 256)
        );
    }

    #[test]
    fn per_element_cost_is_constant_in_n() {
        // Same s, universe grown 256×: cost unchanged (no log n factor).
        let mut r = rng(4);
        let mean = |n: usize, r: &mut rand_chacha::ChaCha8Rng| {
            let trials = 30;
            (0..trials)
                .map(|_| {
                    let (x, y) = disjoint_pair(n, 128, r);
                    run_sparse(&to_sparse(&x), &to_sparse(&y), r).bits
                })
                .sum::<f64>()
                / trials as f64
        };
        let small = mean(1 << 12, &mut r);
        let big = mean(1 << 20, &mut r);
        assert!(
            (big - small).abs() < 0.2 * small,
            "cost moved with n: {small} → {big}"
        );
    }

    #[test]
    fn intersecting_inputs_trigger_fallback_cheaply() {
        let mut r = rng(5);
        let n = 1 << 16;
        let (x, y) = overlapping_pair(n, 200, 2, &mut r);
        let out = run_sparse(&to_sparse(&x), &to_sparse(&y), &mut r);
        assert!(!out.output);
        // The fallback announces only the stalled candidate set (≈ the
        // intersection), not the original 200 elements.
        assert!(
            out.bits < naive_bits(n, 200),
            "cost {} vs naive {}",
            out.bits,
            naive_bits(n, 200)
        );
    }

    #[test]
    fn intersect_is_always_exact() {
        let mut r = rng(8);
        let n = 1 << 14;
        for trial in 0..30 {
            let s = 10 + trial * 3;
            let overlap = trial % 5;
            let (x, y) = if overlap == 0 {
                disjoint_pair(n, s, &mut r)
            } else {
                overlapping_pair(n, s, overlap, &mut r)
            };
            let (_, found) = intersect(&x, &y, &mut r);
            assert_eq!(found, x.intersection(&y), "trial {trial}");
        }
    }

    #[test]
    fn intersect_cost_is_linear_in_s() {
        let n = 1 << 18;
        let mut r = rng(9);
        let mean = |s: usize, r: &mut rand_chacha::ChaCha8Rng| {
            let trials = 20;
            (0..trials)
                .map(|_| {
                    let (x, y) = overlapping_pair(n, s, 3, r);
                    intersect(&x, &y, r).0
                })
                .sum::<f64>()
                / trials as f64
        };
        let c64 = mean(64, &mut r);
        let c256 = mean(256, &mut r);
        let growth = c256 / c64;
        assert!((2.0..7.0).contains(&growth), "growth {growth}");
        assert!(c256 < naive_bits(n, 256), "{c256} vs naive");
    }

    #[test]
    fn intersect_of_identical_sets_returns_them() {
        let mut r = rng(10);
        let x = BitSet::from_elements(1000, [3, 99, 500]);
        assert_eq!(intersect(&x, &x, &mut r).1, x);
    }

    fn to_sparse(s: &BitSet) -> SparseBitSet {
        SparseBitSet::from_dense(s)
    }

    #[test]
    fn sparse_lane_always_correct_on_disjoint_inputs() {
        let mut r = rng(11);
        for trial in 0..40 {
            let s = 4 + trial % 30;
            let (x, y) = disjoint_pair(1 << 20, s, &mut r);
            let out = run_sparse(&to_sparse(&x), &to_sparse(&y), &mut r);
            assert!(out.output, "trial {trial}");
        }
    }

    #[test]
    fn sparse_lane_always_correct_on_intersecting_inputs() {
        let mut r = rng(12);
        for trial in 0..40 {
            let s = 6 + trial % 30;
            let overlap = 1 + trial % 3;
            let (x, y) = overlapping_pair(1 << 16, s, overlap, &mut r);
            let out = run_sparse(&to_sparse(&x), &to_sparse(&y), &mut r);
            assert!(!out.output, "trial {trial}");
        }
    }

    #[test]
    fn sparse_lane_cost_distribution_matches_dense_lane() {
        // Same protocol, different RNG stream: mean bits and fallback
        // behavior must agree statistically with the dense path.
        let n = 1 << 18;
        let s = 128;
        let trials = 60;
        let mut r = rng(13);
        let mut dense_bits = 0.0;
        let mut sparse_bits = 0.0;
        for _ in 0..trials {
            let (x, y) = disjoint_pair(n, s, &mut r);
            dense_bits += run(&x, &y, &mut r).bits;
            sparse_bits += run_sparse(&to_sparse(&x), &to_sparse(&y), &mut r).bits;
        }
        let (dense_mean, sparse_mean) = (dense_bits / trials as f64, sparse_bits / trials as f64);
        assert!(
            (dense_mean - sparse_mean).abs() < 0.1 * dense_mean,
            "dense {dense_mean} vs sparse {sparse_mean}"
        );
    }

    #[test]
    fn sparse_lane_empty_sets_cost_one_bit() {
        let mut r = rng(14);
        let x = SparseBitSet::new(100);
        let y = SparseBitSet::from_elements(100, [3, 7]);
        let out = run_sparse(&x, &y, &mut r);
        assert!(out.output);
        assert_eq!(out.bits, 1.0);
        assert_eq!(out.rounds, 0);
    }

    #[test]
    fn log_index_sampler_is_exact_at_small_a() {
        // a = 1: I is geometric(1/2), so Pr[I = 1] = 1/2 and E[I] = 2.
        let mut r = rng(15);
        let trials = 4000;
        let mut ones = 0usize;
        let mut sum = 0.0;
        for _ in 0..trials {
            let i = 2f64.powf(sample_log2_index(1, &mut r)).round();
            assert!(i >= 1.0);
            if i == 1.0 {
                ones += 1;
            }
            sum += i;
        }
        let p1 = ones as f64 / trials as f64;
        assert!((p1 - 0.5).abs() < 0.03, "Pr[I=1] = {p1}");
        assert!((sum / trials as f64 - 2.0).abs() < 0.15, "E[I]");
        // a = 0: the first set always contains the (empty) candidate set.
        assert_eq!(sample_log2_index(0, &mut r), 0.0);
    }

    #[test]
    fn log_index_sampler_has_the_right_mean() {
        // E[log₂ I] ≈ a + log₂(ln 2) − γ/ln2 ≈ a − 0.5287/... just check
        // it concentrates near a for both sampling regimes.
        let mut r = rng(7);
        for a in [10usize, 50] {
            let trials = 2000;
            let mean: f64 = (0..trials)
                .map(|_| sample_log2_index(a, &mut r))
                .sum::<f64>()
                / trials as f64;
            assert!(
                (mean - a as f64).abs() < 1.5,
                "a={a}: mean log index {mean}"
            );
        }
    }
}
