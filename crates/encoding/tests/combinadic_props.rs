//! Property tests for the grouped-factor combinadic kernel.
//!
//! [`SubsetCodec::rank`] folds runs of Pascal-walk moves into word-sized
//! ratios and starts its walk at the largest element; [`binomial`] folds its
//! product the same way. Both are checked here against the plain
//! one-move-per-step forms they replaced: the single-step rank walk over a
//! [`BinomialWalker`] from `C(z−1, b)`, and the multiply-then-divide
//! binomial product. The edge cases get their own tests: `b ∈ {0, 1, z}`,
//! the all-zero-terms subset `{0, …, b−1}`, and universes past `2³²`, where
//! no two walk factors fit in one word, so every group holds one move.

use bci_encoding::bignum::BigUint;
use bci_encoding::binomial::{binomial, BinomialWalker};
use bci_encoding::bitio::{BitReader, BitWriter};
use bci_encoding::combinadic::SubsetCodec;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The single-step reference rank: walk `m` from `z−1` down with one
/// walker move (one big-integer multiply and divide) per step, adding
/// `C(m, j)` whenever `m` is the next element from the top.
fn single_step_rank(z: u64, subset: &[u64]) -> BigUint {
    let mut rank = BigUint::zero();
    if subset.is_empty() {
        return rank;
    }
    let mut walker = BinomialWalker::new(z - 1, subset.len() as u64);
    let mut next = subset.len(); // one past the next element to match
    let mut m = z - 1;
    loop {
        if next > 0 && subset[next - 1] == m {
            rank.add_assign(walker.value());
            next -= 1;
            if next == 0 {
                break;
            }
            walker.dec_m();
            walker.dec_j();
        } else {
            walker.dec_m();
        }
        m -= 1;
    }
    rank
}

/// The combinadic sum `Σ_t C(c_t, t+1)` term by term: an oracle that needs
/// no walk, for universes too large to walk from the top.
fn term_sum_rank(subset: &[u64]) -> BigUint {
    let mut rank = BigUint::zero();
    for (t, &c) in subset.iter().enumerate() {
        rank.add_assign(&binomial(c, t as u64 + 1));
    }
    rank
}

/// The multiply-then-divide product `C(n, k) = Π_{i ≤ k} (n−k+i) / i`, one
/// big-integer multiply and divide per factor.
fn step_by_step_binomial(n: u64, k: u64) -> BigUint {
    if k > n {
        return BigUint::zero();
    }
    let k = k.min(n - k);
    let mut v = BigUint::one();
    for i in 1..=k {
        v.mul_assign_u64(n - k + i);
        assert_eq!(v.div_assign_u64(i), 0, "C({n},{k}): inexact step {i}");
    }
    v
}

/// A uniformly random `b`-subset of `{0, …, z−1}`, sorted ascending.
fn random_subset(z: u64, b: u64, seed: u64) -> Vec<u64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut pool: Vec<u64> = (0..z).collect();
    for i in 0..b as usize {
        let j = rng.random_range(i..pool.len());
        pool.swap(i, j);
    }
    let mut subset = pool[..b as usize].to_vec();
    subset.sort_unstable();
    subset
}

/// Encodes `subset`, checks the bits spell `rank` in exactly
/// `code_len_bits` bits, and checks decoding gives the subset back.
fn assert_round_trip(codec: &SubsetCodec, subset: &[u64], rank: &BigUint) {
    let mut w = BitWriter::new();
    codec.encode(subset, &mut w);
    let bits = w.into_bits();
    assert_eq!(bits.len(), codec.code_len_bits() as usize);
    assert_eq!(&BigUint::from_bits_lsb(bits.iter()), rank);
    let mut r = BitReader::new(&bits);
    assert_eq!(codec.decode(&mut r), subset);
    assert_eq!(r.remaining(), 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn grouped_rank_matches_single_step_walk(
        z in 1u64..=5000,
        b_raw in any::<u64>(),
        seed in any::<u64>(),
    ) {
        let b = b_raw % (z + 1);
        let subset = random_subset(z, b, seed);
        let codec = SubsetCodec::new(z, b);
        prop_assert_eq!(codec.rank(&subset), single_step_rank(z, &subset), "z={} b={}", z, b);
    }

    #[test]
    fn encode_decode_round_trips(
        z in 1u64..=5000,
        b_raw in any::<u64>(),
        seed in any::<u64>(),
    ) {
        let b = b_raw % (z + 1);
        let subset = random_subset(z, b, seed);
        let codec = SubsetCodec::new(z, b);
        assert_round_trip(&codec, &subset, &single_step_rank(z, &subset));
    }

    #[test]
    fn small_universes_match_single_step_walk(
        z in 1u64..=64,
        b_raw in any::<u64>(),
        seed in any::<u64>(),
    ) {
        let b = b_raw % (z + 1);
        let subset = random_subset(z, b, seed);
        let codec = SubsetCodec::new(z, b);
        let rank = codec.rank(&subset);
        prop_assert_eq!(&rank, &single_step_rank(z, &subset));
        prop_assert_eq!(&rank, &term_sum_rank(&subset));
        assert_round_trip(&codec, &subset, &rank);
    }
}

#[test]
fn extreme_subset_sizes_match_single_step_walk() {
    for z in [1u64, 2, 3, 7, 64, 65, 1000, 4096] {
        for b in [0, 1, z] {
            let codec = SubsetCodec::new(z, b);
            for seed in 0..4 {
                let subset = random_subset(z, b, seed);
                let rank = codec.rank(&subset);
                assert_eq!(rank, single_step_rank(z, &subset), "z={z} b={b}");
                assert_round_trip(&codec, &subset, &rank);
            }
        }
    }
}

#[test]
fn lowest_subset_has_rank_zero() {
    // {0, …, b−1}: every term C(t, t+1) is zero.
    for z in [1u64, 5, 100, 3000] {
        for b in [0, 1, 2, z / 2, z - 1, z].into_iter().filter(|&b| b <= z) {
            let codec = SubsetCodec::new(z, b);
            let subset: Vec<u64> = (0..b).collect();
            assert!(codec.rank(&subset).is_zero(), "z={z} b={b}");
            assert_eq!(single_step_rank(z, &subset), BigUint::zero());
            assert_round_trip(&codec, &subset, &BigUint::zero());
        }
    }
}

#[test]
fn universes_past_two_to_the_32_rank_with_single_factor_groups() {
    // Every walk factor exceeds 2³², so no two fit in one u64 and every
    // group is a single move. The elements sit in the top 1000 positions
    // so the walks (rank's from the largest element, unrank's from z−1)
    // stay short.
    let mut rng = StdRng::seed_from_u64(32);
    for z in [(1u64 << 32) + 1000, (1 << 40) + 7, u64::MAX / 2] {
        for b in [1u64, 2, 5, 17, 60] {
            for _ in 0..4 {
                let offsets = random_subset(1000, b, rng.random());
                let subset: Vec<u64> = offsets.iter().map(|o| z - 1000 + o).collect();
                let codec = SubsetCodec::new(z, b);
                let rank = codec.rank(&subset);
                assert_eq!(rank, term_sum_rank(&subset), "z={z} b={b}");
                assert_round_trip(&codec, &subset, &rank);
            }
        }
    }
}

#[test]
fn grouped_binomial_equals_step_by_step_product() {
    for n in 0..=300u64 {
        for k in 0..=n + 1 {
            assert_eq!(binomial(n, k), step_by_step_binomial(n, k), "C({n},{k})");
        }
    }
}

#[test]
fn grouped_binomial_handles_word_sized_factors() {
    // Factors past 2³² fill a word alone; the symmetric k keeps the
    // product short.
    for n in [(1u64 << 32) + 3, (1 << 50) + 11, u64::MAX - 1] {
        for k in [0u64, 1, 2, 3, 8] {
            assert_eq!(binomial(n, k), step_by_step_binomial(n, k), "C({n},{k})");
            assert_eq!(binomial(n, n - k), binomial(n, k));
        }
    }
}
