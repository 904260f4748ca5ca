//! The combinadic (combinatorial number system) subset codec.
//!
//! A `b`-element subset of `{0, …, z−1}` is one of `C(z, b)` objects, so it
//! can be indexed by an integer in `[0, C(z,b))` and transmitted in exactly
//! `⌈log₂ C(z,b)⌉` bits. This is the "packing" trick at the heart of the
//! paper's Theorem 2 protocol: writing `z/k` coordinates as one subset costs
//! `log₂(e·k)` bits *per coordinate* instead of `log₂ z` bits per coordinate.
//!
//! The index of a subset `{c₀ < c₁ < … < c_{b−1}}` is the standard combinadic
//! rank `Σ_j C(c_j, j+1)`. Unranking walks Pascal's triangle down from
//! `C(z−1, b)` with the O(1)-per-step moves of [`BinomialWalker`], in `O(z)`
//! big-integer operations. Ranking only reads the walk at the `b` elements,
//! so it starts at `C(c_{b−1}, b)` and folds the moves between two elements
//! into a few word-sized ratios, each applied as one big-integer multiply
//! and one exact divide.

use crate::bignum::BigUint;
use crate::binomial::{binomial, index_code_len, BinomialWalker, StepGroup};
use crate::bitio::{BitReader, BitWriter};

/// Fixed-size-subset codec: encodes `b`-element subsets of `{0, …, z−1}`.
///
/// # Example
///
/// ```
/// use bci_encoding::bitio::{BitReader, BitWriter};
/// use bci_encoding::combinadic::SubsetCodec;
///
/// let codec = SubsetCodec::new(52, 5); // poker hands
/// assert_eq!(codec.code_len_bits(), 22); // C(52,5) = 2_598_960 < 2^22
/// let hand = [3, 17, 25, 40, 51];
/// let mut w = BitWriter::new();
/// codec.encode(&hand, &mut w);
/// let bits = w.into_bits();
/// let mut r = BitReader::new(&bits);
/// assert_eq!(codec.decode(&mut r), hand);
/// ```
#[derive(Debug, Clone)]
pub struct SubsetCodec {
    z: u64,
    b: u64,
    /// `C(z, b)`, the number of codewords; every valid rank lies below it.
    count: BigUint,
    code_len: u32,
}

impl SubsetCodec {
    /// Creates a codec for `b`-element subsets of `{0, …, z−1}`.
    ///
    /// # Panics
    ///
    /// Panics if `b > z` (no such subsets exist).
    pub fn new(z: u64, b: u64) -> Self {
        assert!(b <= z, "cannot choose {b} elements from {z}");
        let count = binomial(z, b);
        SubsetCodec {
            z,
            b,
            code_len: index_code_len(&count),
            count,
        }
    }

    /// Universe size `z`.
    pub fn universe(&self) -> u64 {
        self.z
    }

    /// Subset size `b`.
    pub fn subset_size(&self) -> u64 {
        self.b
    }

    /// Exact code length `⌈log₂ C(z, b)⌉` in bits.
    pub fn code_len_bits(&self) -> u32 {
        self.code_len
    }

    /// Computes the combinadic rank of a subset.
    ///
    /// # Panics
    ///
    /// Panics if `subset` is not strictly increasing, has length `!= b`, or
    /// contains an element `≥ z`.
    pub fn rank(&self, subset: &[u64]) -> BigUint {
        assert_eq!(
            subset.len() as u64,
            self.b,
            "subset size {} != codec size {}",
            subset.len(),
            self.b
        );
        assert!(
            subset.windows(2).all(|w| w[0] < w[1]),
            "subset must be strictly increasing"
        );
        if let Some(&last) = subset.last() {
            assert!(last < self.z, "element {last} outside universe {}", self.z);
        }
        let mut rank = BigUint::zero();
        // Term t is C(c_t, t+1), which is zero exactly when c_t = t; then
        // c_i = i for every i ≤ t, so all the remaining terms are zero too.
        let Some((&top, rest)) = subset.split_last() else {
            return rank;
        };
        let (mut m, mut j) = (top, self.b);
        if m < j {
            return rank;
        }
        let mut value = binomial(m, j);
        rank.add_assign(&value);
        let mut group = StepGroup::new();
        for (t, &c) in rest.iter().enumerate().rev() {
            if c == t as u64 {
                break;
            }
            // Hit move C(m, j) → C(m−1, j−1), then gap moves
            // C(m, j) → C(m−1, j) down to m = c_t.
            group.push(&mut value, j, m);
            m -= 1;
            j -= 1;
            while m > c {
                group.push(&mut value, m - j, m);
                m -= 1;
            }
            group.flush(&mut value);
            rank.add_assign(&value);
        }
        rank
    }

    /// Recovers the subset with the given combinadic rank, sorted ascending.
    ///
    /// # Panics
    ///
    /// Panics if `rank ≥ C(z, b)`.
    pub fn unrank(&self, rank: &BigUint) -> Vec<u64> {
        assert!(rank < &self.count, "rank out of range");
        let mut out = vec![0u64; self.b as usize];
        if self.b == 0 {
            return out;
        }
        let mut r = rank.clone();
        let mut walker = BinomialWalker::new(self.z - 1, self.b);
        let mut m = self.z - 1;
        let mut j = self.b as usize;
        loop {
            if walker.value().cmp_big(&r) != std::cmp::Ordering::Greater {
                // C(m, j) ≤ r: m is the j-th smallest... select it.
                r.sub_assign(walker.value());
                out[j - 1] = m;
                j -= 1;
                if j == 0 {
                    break;
                }
                walker.dec_m();
                walker.dec_j();
            } else {
                walker.dec_m();
            }
            m = m.checked_sub(1).expect("walk ran past zero");
        }
        out
    }

    /// Encodes a subset as exactly [`code_len_bits`](Self::code_len_bits)
    /// bits.
    ///
    /// # Panics
    ///
    /// Same conditions as [`rank`](Self::rank).
    pub fn encode(&self, subset: &[u64], writer: &mut BitWriter) {
        let rank = self.rank(subset);
        for i in 0..u64::from(self.code_len) {
            writer.write_bit(rank.bit(i));
        }
    }

    /// Decodes a subset written by [`encode`](Self::encode).
    ///
    /// Returns `None` if the reader runs out of bits or the read rank is out
    /// of range (corrupted input).
    pub fn decode(&self, reader: &mut BitReader<'_>) -> Vec<u64> {
        self.try_decode(reader)
            .expect("truncated or corrupt subset code")
    }

    /// Fallible form of [`decode`](Self::decode).
    pub fn try_decode(&self, reader: &mut BitReader<'_>) -> Option<Vec<u64>> {
        let mut bits = Vec::with_capacity(self.code_len as usize);
        for _ in 0..self.code_len {
            bits.push(reader.read_bit()?);
        }
        let rank = BigUint::from_bits_lsb(bits);
        if rank >= self.count {
            return None;
        }
        Some(self.unrank(&rank))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every 3-subset of a 6-universe round-trips and ranks are a bijection.
    #[test]
    fn exhaustive_rank_bijection_small() {
        let codec = SubsetCodec::new(6, 3);
        let mut seen = [false; 20]; // C(6,3) = 20
        for a in 0..6u64 {
            for b in (a + 1)..6 {
                for c in (b + 1)..6 {
                    let subset = [a, b, c];
                    let r = codec.rank(&subset).to_u64().unwrap() as usize;
                    assert!(r < 20, "rank in range");
                    assert!(!seen[r], "rank collision at {r}");
                    seen[r] = true;
                    assert_eq!(codec.unrank(&codec.rank(&subset)), subset);
                }
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn rank_is_colex_order() {
        // Combinadic rank orders subsets colexicographically:
        // {0,1,2} < {0,1,3} < {0,2,3} < {1,2,3} < {0,1,4} < ...
        let codec = SubsetCodec::new(10, 3);
        assert_eq!(codec.rank(&[0, 1, 2]).to_u64(), Some(0));
        assert_eq!(codec.rank(&[0, 1, 3]).to_u64(), Some(1));
        assert_eq!(codec.rank(&[0, 2, 3]).to_u64(), Some(2));
        assert_eq!(codec.rank(&[1, 2, 3]).to_u64(), Some(3));
        assert_eq!(codec.rank(&[0, 1, 4]).to_u64(), Some(4));
    }

    #[test]
    fn empty_subset() {
        let codec = SubsetCodec::new(17, 0);
        assert_eq!(codec.code_len_bits(), 0);
        let mut w = BitWriter::new();
        codec.encode(&[], &mut w);
        let bits = w.into_bits();
        assert!(bits.is_empty());
        let mut r = BitReader::new(&bits);
        assert_eq!(codec.decode(&mut r), Vec::<u64>::new());
    }

    #[test]
    fn full_subset() {
        let codec = SubsetCodec::new(5, 5);
        assert_eq!(codec.code_len_bits(), 0);
        let subset = [0, 1, 2, 3, 4];
        assert_eq!(codec.rank(&subset).to_u64(), Some(0));
        assert_eq!(codec.unrank(&BigUint::zero()), subset);
    }

    #[test]
    fn big_universe_round_trip() {
        // 40-subset of 2000: rank needs ~240 bits, exceeding u128.
        let codec = SubsetCodec::new(2000, 40);
        assert!(codec.code_len_bits() > 128);
        let subset: Vec<u64> = (0..40).map(|i| i * i + 7).collect();
        let mut w = BitWriter::new();
        codec.encode(&subset, &mut w);
        let bits = w.into_bits();
        assert_eq!(bits.len(), codec.code_len_bits() as usize);
        let mut r = BitReader::new(&bits);
        assert_eq!(codec.decode(&mut r), subset);
    }

    #[test]
    fn per_element_cost_is_log_ek_not_log_n() {
        // The Theorem 2 accounting: a (z/k)-subset of [z] costs at most
        // (z/k)·log₂(e·k) bits.
        let z = 4096u64;
        for k in [8u64, 16, 64, 256] {
            let b = z / k;
            let codec = SubsetCodec::new(z, b);
            let per_coord = f64::from(codec.code_len_bits()) / b as f64;
            let bound = ((std::f64::consts::E) * k as f64).log2();
            assert!(
                per_coord <= bound + 0.01,
                "k={k}: per-coordinate {per_coord} > log2(ek) = {bound}"
            );
            // And it really is much less than the naive log₂ z = 12 bits for
            // small k.
            if k <= 16 {
                assert!(per_coord < (z as f64).log2() * 0.75);
            }
        }
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn rank_rejects_unsorted() {
        SubsetCodec::new(10, 2).rank(&[5, 3]);
    }

    #[test]
    #[should_panic(expected = "outside universe")]
    fn rank_rejects_out_of_range() {
        SubsetCodec::new(10, 2).rank(&[3, 10]);
    }

    #[test]
    #[should_panic(expected = "rank out of range")]
    fn unrank_rejects_out_of_range() {
        SubsetCodec::new(4, 2).unrank(&BigUint::from(6u64)); // C(4,2) = 6
    }

    #[test]
    fn try_decode_detects_truncation() {
        let codec = SubsetCodec::new(52, 5);
        let bits = crate::bitio::BitVec::from_bools(&[true; 10]); // too short
        let mut r = BitReader::new(&bits);
        assert!(codec.try_decode(&mut r).is_none());
    }
}
