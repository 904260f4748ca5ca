//! Input generators for the set-disjointness experiments.
//!
//! The paper's upper bound is worst-case, so the sweeps use instances that
//! stress different parts of the protocol:
//!
//! * [`planted_zero_cover`] — disjoint instances where zeros are scarce
//!   (each coordinate has exactly one guaranteed zero holder): the protocol
//!   must publish essentially all `n` coordinates, exposing the
//!   per-coordinate cost (`log k` vs `log n`).
//! * [`planted_intersection`] — non-disjoint instances with a planted
//!   intersection, for correctness and early-termination behaviour.
//! * [`random_sets`] — iid `Bernoulli(density)` sets, the unstructured case.

use bci_encoding::bitset::BitSet;
use rand::Rng;

/// Each player's set contains each coordinate independently with probability
/// `density`.
///
/// Coordinate `j` of a player is in the set iff the `j`-th `u64` drawn for
/// that player passes [`Rng::random_bool`]'s test, so the sets and the
/// generator's position afterwards are exactly those of one `random_bool`
/// call per coordinate. The draws are taken up to 64 at a time through
/// [`rand::RngCore::fill_bytes`], and each becomes one bit of a backing word
/// by an integer compare: `random_bool` accepts `x` iff `(x >> 11)·2⁻⁵³ < p`,
/// both sides exact in `f64`, which holds iff `(x >> 11) < ⌈p·2⁵³⌉`.
/// `density` 0 and 1 draw nothing, as `random_bool` does.
///
/// # Panics
///
/// Panics if `k == 0` or `density ∉ [0, 1]`.
pub fn random_sets<R: Rng + ?Sized>(n: usize, k: usize, density: f64, rng: &mut R) -> Vec<BitSet> {
    assert!(k > 0, "need at least one player");
    assert!((0.0..=1.0).contains(&density), "density outside [0,1]");
    if density <= 0.0 {
        return vec![BitSet::new(n); k];
    }
    if density >= 1.0 {
        return vec![BitSet::full(n); k];
    }
    let threshold = (density * (1u64 << 53) as f64).ceil() as u64;
    let mut draws = [0u8; 64 * 8];
    (0..k)
        .map(|_| {
            let words = (0..n.div_ceil(64))
                .map(|w| {
                    let bytes = &mut draws[..8 * (n - 64 * w).min(64)];
                    rng.fill_bytes(bytes);
                    bytes.chunks_exact(8).enumerate().fold(0, |word, (i, x)| {
                        let x = u64::from_le_bytes(x.try_into().expect("8 bytes"));
                        word | u64::from((x >> 11) < threshold) << i
                    })
                })
                .collect();
            BitSet::from_words(n, words)
        })
        .collect()
}

/// A guaranteed-disjoint instance: for every coordinate `j` one uniformly
/// random player is forced to exclude `j`; every other player excludes `j`
/// independently with probability `extra_zero_prob` (0 gives the densest,
/// hardest instances).
///
/// # Panics
///
/// Panics if `k == 0` or `extra_zero_prob ∉ [0, 1]`.
pub fn planted_zero_cover<R: Rng + ?Sized>(
    n: usize,
    k: usize,
    extra_zero_prob: f64,
    rng: &mut R,
) -> Vec<BitSet> {
    assert!(k > 0, "need at least one player");
    assert!(
        (0.0..=1.0).contains(&extra_zero_prob),
        "probability outside [0,1]"
    );
    let mut sets = vec![BitSet::full(n); k];
    for j in 0..n {
        let z = rng.random_range(0..k);
        sets[z].remove(j);
        for (i, s) in sets.iter_mut().enumerate() {
            if i != z && extra_zero_prob > 0.0 && rng.random_bool(extra_zero_prob) {
                s.remove(j);
            }
        }
    }
    sets
}

/// A guaranteed-non-disjoint instance: iid `Bernoulli(density)` sets with
/// `m ≥ 1` uniformly chosen coordinates forced into every set.
///
/// # Panics
///
/// Panics if `k == 0`, `m == 0`, `m > n`, or `density ∉ [0, 1]`.
pub fn planted_intersection<R: Rng + ?Sized>(
    n: usize,
    k: usize,
    m: usize,
    density: f64,
    rng: &mut R,
) -> Vec<BitSet> {
    assert!(m >= 1, "need at least one planted coordinate");
    assert!(m <= n, "cannot plant {m} coordinates in a universe of {n}");
    let mut sets = random_sets(n, k, density, rng);
    let mut planted = Vec::with_capacity(m);
    while planted.len() < m {
        let j = rng.random_range(0..n);
        if !planted.contains(&j) {
            planted.push(j);
        }
    }
    for s in &mut sets {
        for &j in &planted {
            s.insert(j);
        }
    }
    sets
}

/// A *unique-intersection promise* instance: every player's set has
/// `set_size` elements, all `k` sets share exactly one common coordinate,
/// and apart from it they are pairwise disjoint. This is the promise version
/// of disjointness the paper's related-work section connects to streaming
/// lower bounds (\[2, 17\] and Alon–Matias–Szegedy \[1\]).
///
/// Returns the instance and the planted common coordinate.
///
/// # Panics
///
/// Panics if `set_size == 0` or the sets don't fit
/// (`k·(set_size−1) + 1 > n`).
pub fn unique_intersection<R: Rng + ?Sized>(
    n: usize,
    k: usize,
    set_size: usize,
    rng: &mut R,
) -> (Vec<BitSet>, usize) {
    assert!(k > 0, "need at least one player");
    assert!(set_size >= 1, "sets must be nonempty");
    assert!(
        k * (set_size - 1) < n,
        "universe too small: need {} ≤ {n}",
        k * (set_size - 1) + 1
    );
    let mut perm: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        perm.swap(i, rng.random_range(0..=i));
    }
    let common = perm[0];
    let mut sets = Vec::with_capacity(k);
    let mut next = 1;
    for _ in 0..k {
        let mut s = BitSet::new(n);
        s.insert(common);
        for _ in 0..set_size - 1 {
            s.insert(perm[next]);
            next += 1;
        }
        sets.push(s);
    }
    (sets, common)
}

/// The matching no-intersection promise instance: `k` pairwise-disjoint
/// sets of `set_size` elements each.
///
/// # Panics
///
/// Panics if `k·set_size > n`.
pub fn pairwise_disjoint<R: Rng + ?Sized>(
    n: usize,
    k: usize,
    set_size: usize,
    rng: &mut R,
) -> Vec<BitSet> {
    assert!(k > 0, "need at least one player");
    assert!(k * set_size <= n, "universe too small");
    let mut perm: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        perm.swap(i, rng.random_range(0..=i));
    }
    (0..k)
        .map(|i| BitSet::from_elements(n, perm[i * set_size..(i + 1) * set_size].iter().copied()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disj::disj_function;
    use proptest::prelude::*;
    use rand::{RngCore, SeedableRng};

    fn rng(seed: u64) -> rand_chacha::ChaCha8Rng {
        rand_chacha::ChaCha8Rng::seed_from_u64(seed)
    }

    #[test]
    fn planted_zero_cover_is_always_disjoint() {
        let mut r = rng(1);
        for _ in 0..20 {
            let inputs = planted_zero_cover(97, 7, 0.2, &mut r);
            assert!(disj_function(&inputs));
        }
    }

    #[test]
    fn planted_zero_cover_dense_has_one_zero_per_coordinate() {
        let mut r = rng(2);
        let inputs = planted_zero_cover(50, 5, 0.0, &mut r);
        for j in 0..50 {
            let zeros = inputs.iter().filter(|s| !s.contains(j)).count();
            assert_eq!(zeros, 1, "coordinate {j}");
        }
    }

    #[test]
    fn planted_intersection_is_never_disjoint() {
        let mut r = rng(3);
        for _ in 0..20 {
            let inputs = planted_intersection(64, 4, 2, 0.1, &mut r);
            assert!(!disj_function(&inputs));
        }
    }

    #[test]
    fn planted_intersection_has_at_least_m_common() {
        let mut r = rng(4);
        let inputs = planted_intersection(64, 4, 5, 0.0, &mut r);
        let mut common = inputs[0].clone();
        for s in &inputs[1..] {
            common = common.intersection(s);
        }
        assert!(common.len() >= 5);
    }

    /// The per-coordinate sampler `random_sets` must reproduce exactly.
    fn random_sets_oracle(n: usize, k: usize, density: f64, rng: &mut impl Rng) -> Vec<BitSet> {
        (0..k)
            .map(|_| {
                let mut s = BitSet::new(n);
                for j in 0..n {
                    if rng.random_bool(density) {
                        s.insert(j);
                    }
                }
                s
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(400))]

        #[test]
        fn random_sets_matches_the_per_coordinate_oracle(
            n in 0usize..=300,
            k in 1usize..=6,
            pick in 0usize..7,
            arbitrary in 0.0f64..1.0,
            seed in any::<u64>(),
        ) {
            let densities = [0.0, 2f64.powi(-60), 0.3, 0.7, 1.0 - 2f64.powi(-53), 1.0, arbitrary];
            let density = densities[pick];
            let mut a = rng(seed);
            let mut b = rng(seed);
            prop_assert_eq!(
                random_sets(n, k, density, &mut a),
                random_sets_oracle(n, k, density, &mut b)
            );
            prop_assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    /// Replays chosen draws; `fill_bytes` yields them as little-endian
    /// `next_u64`s, as the workspace's generators do.
    struct Replay(std::vec::IntoIter<u64>);

    impl RngCore for Replay {
        fn next_u32(&mut self) -> u32 {
            unreachable!("random_sets draws whole u64s")
        }
        fn next_u64(&mut self) -> u64 {
            self.0.next().expect("a draw left")
        }
        fn fill_bytes(&mut self, dest: &mut [u8]) {
            for chunk in dest.chunks_exact_mut(8) {
                chunk.copy_from_slice(&self.next_u64().to_le_bytes());
            }
        }
    }

    #[test]
    fn random_sets_agrees_with_random_bool_at_the_threshold() {
        // Random draws land next to ⌈p·2⁵³⌉ with probability ~2⁻⁵², so
        // place them there: the 53-bit draws t − 1, t and t + 1, each with
        // every low bit set (`random_bool` ignores them).
        for density in [2f64.powi(-60), 0.1, 0.3, 0.5, 0.7, 1.0 - 2f64.powi(-53)] {
            let t = (density * (1u64 << 53) as f64).ceil() as u64;
            let draws: Vec<u64> = [t - 1, t, t + 1].map(|m| m << 11 | 0x7ff).to_vec();
            let sets = random_sets(3, 1, density, &mut Replay(draws.clone().into_iter()));
            let oracle = random_sets_oracle(3, 1, density, &mut Replay(draws.into_iter()));
            assert_eq!(sets, oracle, "density {density}");
        }
    }

    #[test]
    fn random_sets_stream_is_pinned() {
        // A change here changes every seeded DISJ input in the repository.
        let sets = random_sets(256, 4, 0.7, &mut rng(1));
        let words: Vec<u64> = sets
            .iter()
            .flat_map(|s| s.words().iter().copied())
            .collect();
        assert_eq!(
            words,
            [
                0xf5ee_5f2d_f3d7_7fb6,
                0x36cb_f15b_bf91_f87e,
                0xae37_8ed3_e6cf_f096,
                0xf57f_cbfe_fff8_b7bb,
                0x632a_f7f5_f65e_e7f7,
                0xf7f7_6f67_ffdf_df7d,
                0xa7b3_6dd9_3fd3_fbef,
                0xc7ff_fe8d_cfde_faf4,
                0x57e3_7fdf_ff72_b9f9,
                0x5e3b_bd67_f6fd_f7c8,
                0x51ff_7f92_ff7f_dbe4,
                0x8b3f_9fce_e1f5_f89f,
                0xfff5_dabd_9ebf_e75e,
                0xefd7_6ff5_3ff3_ffdf,
                0x812d_ff9b_edfb_3bff,
                0x853d_7c7f_dc0f_cd2f,
            ]
        );
    }

    #[test]
    fn random_sets_density_is_respected() {
        let mut r = rng(5);
        let sets = random_sets(10_000, 1, 0.3, &mut r);
        let frac = sets[0].len() as f64 / 10_000.0;
        assert!((frac - 0.3).abs() < 0.02);
    }

    #[test]
    fn random_sets_degenerate_densities() {
        let mut r = rng(6);
        assert!(random_sets(100, 2, 0.0, &mut r)
            .iter()
            .all(BitSet::is_empty));
        assert!(random_sets(100, 2, 1.0, &mut r)
            .iter()
            .all(|s| s.len() == 100));
    }

    #[test]
    fn unique_intersection_promise_holds() {
        let mut r = rng(8);
        for trial in 0..15 {
            let k = 2 + trial % 5;
            let s = 3 + trial % 7;
            let (sets, common) = unique_intersection(200, k, s, &mut r);
            assert_eq!(sets.len(), k);
            // Every set has the right size and contains the common element.
            for set in &sets {
                assert_eq!(set.len(), s);
                assert!(set.contains(common));
            }
            // The intersection of all sets is exactly {common}.
            let mut inter = sets[0].clone();
            for set in &sets[1..] {
                inter = inter.intersection(set);
            }
            assert_eq!(inter.iter().collect::<Vec<_>>(), vec![common]);
            // Pairwise, the only shared element is the common one.
            for i in 0..k {
                for j in (i + 1)..k {
                    let shared: Vec<usize> = sets[i].intersection(&sets[j]).iter().collect();
                    assert_eq!(shared, vec![common], "pair ({i},{j})");
                }
            }
        }
    }

    #[test]
    fn pairwise_disjoint_promise_holds() {
        let mut r = rng(9);
        let sets = pairwise_disjoint(100, 4, 10, &mut r);
        for i in 0..4 {
            assert_eq!(sets[i].len(), 10);
            for j in (i + 1)..4 {
                assert!(sets[i].is_disjoint(&sets[j]), "pair ({i},{j})");
            }
        }
        assert!(disj_function(&sets));
    }

    #[test]
    fn promise_instances_are_decided_correctly_by_the_protocols() {
        use crate::disj::{batched, naive};
        let mut r = rng(10);
        let (with, _) = unique_intersection(256, 4, 20, &mut r);
        assert!(!naive::run(&with).output);
        assert!(!batched::run(&with).output);
        let without = pairwise_disjoint(256, 4, 20, &mut r);
        assert!(naive::run(&without).output);
        assert!(batched::run(&without).output);
    }

    #[test]
    #[should_panic(expected = "universe too small")]
    fn unique_intersection_validates_fit() {
        let mut r = rng(11);
        unique_intersection(10, 4, 4, &mut r);
    }

    #[test]
    #[should_panic(expected = "cannot plant")]
    fn planted_intersection_validates_m() {
        let mut r = rng(7);
        planted_intersection(4, 2, 5, 0.5, &mut r);
    }
}
