//! Bit-granular I/O: [`BitVec`], [`BitWriter`] and [`BitReader`].
//!
//! Blackboard messages are counted in *bits*, not bytes, so the whole
//! workspace uses these types as the wire format. A [`BitVec`] is a compact
//! vector of bits; a [`BitWriter`] appends bits and whole integers; a
//! [`BitReader`] consumes them in the same order.

use std::fmt;

/// A growable, compact vector of bits stored LSB-first inside `u64` words.
///
/// # Example
///
/// ```
/// use bci_encoding::bitio::BitVec;
///
/// let mut v = BitVec::new();
/// v.push(true);
/// v.push(false);
/// v.push(true);
/// assert_eq!(v.len(), 3);
/// assert_eq!(v.get(0), Some(true));
/// assert_eq!(v.get(1), Some(false));
/// assert_eq!(v.iter().collect::<Vec<_>>(), vec![true, false, true]);
/// ```
#[derive(Clone, Default, PartialEq, Eq, Hash)]
pub struct BitVec {
    words: Vec<u64>,
    len: usize,
}

impl BitVec {
    /// Creates an empty bit vector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty bit vector with room for `n` bits.
    pub fn with_capacity(n: usize) -> Self {
        BitVec {
            words: Vec::with_capacity(n.div_ceil(64)),
            len: 0,
        }
    }

    /// Creates a bit vector from a slice of bools.
    pub fn from_bools(bits: &[bool]) -> Self {
        let mut v = BitVec::with_capacity(bits.len());
        for &b in bits {
            v.push(b);
        }
        v
    }

    /// Builds a bit vector from LSB-first words holding at least `len`
    /// bits; bits past `len` are cleared, so equal bits compare and hash
    /// equal whatever the source held there.
    ///
    /// # Panics
    ///
    /// Panics unless `words` has exactly `⌈len/64⌉` words.
    pub(crate) fn from_words(mut words: Vec<u64>, len: usize) -> Self {
        assert_eq!(words.len(), len.div_ceil(64), "word count for {len} bits");
        if !len.is_multiple_of(64) {
            *words.last_mut().expect("len > 0") &= low_mask(len as u32 % 64);
        }
        BitVec { words, len }
    }

    /// The backing words: bit `i` is bit `i % 64` of word `i / 64`, and
    /// the bits past [`len`](Self::len) are zero.
    pub(crate) fn words(&self) -> &[u64] {
        &self.words
    }

    /// Number of bits stored.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the vector holds no bits.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Appends one bit.
    #[inline]
    pub fn push(&mut self, bit: bool) {
        self.push_word(u64::from(bit), 1);
    }

    /// Appends the `width` low bits of `value`, LSB first: ORs them into
    /// the last word and spills what does not fit into a new one. The
    /// bits of `value` at and above `width` must be zero, so the bits
    /// past `len` stay zero.
    #[inline]
    fn push_word(&mut self, value: u64, width: u32) {
        debug_assert!(width <= 64 && (width == 64 || value >> width == 0));
        if width == 0 {
            return;
        }
        let off = (self.len % 64) as u32;
        match self.words.last_mut() {
            Some(last) if off != 0 => {
                *last |= value << off;
                if off + width > 64 {
                    self.words.push(value >> (64 - off));
                }
            }
            _ => self.words.push(value),
        }
        self.len += width as usize;
    }

    /// Returns bit `i`, or `None` past the end.
    #[inline]
    pub fn get(&self, i: usize) -> Option<bool> {
        if i >= self.len {
            return None;
        }
        Some((self.words[i / 64] >> (i % 64)) & 1 == 1)
    }

    /// Appends all bits of `other`.
    pub fn extend_from(&mut self, other: &BitVec) {
        self.words.reserve(other.len.div_ceil(64));
        let mut left = other.len;
        for &word in &other.words {
            let width = left.min(64);
            self.push_word(word, width as u32);
            left -= width;
        }
    }

    /// Iterates over the bits in order.
    pub fn iter(&self) -> Iter<'_> {
        Iter { v: self, i: 0 }
    }
}

impl fmt::Debug for BitVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BitVec[")?;
        for b in self.iter() {
            write!(f, "{}", u8::from(b))?;
        }
        write!(f, "]")
    }
}

impl fmt::Display for BitVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for b in self.iter() {
            write!(f, "{}", u8::from(b))?;
        }
        Ok(())
    }
}

impl FromIterator<bool> for BitVec {
    fn from_iter<I: IntoIterator<Item = bool>>(iter: I) -> Self {
        let mut v = BitVec::new();
        for b in iter {
            v.push(b);
        }
        v
    }
}

impl Extend<bool> for BitVec {
    fn extend<I: IntoIterator<Item = bool>>(&mut self, iter: I) {
        for b in iter {
            self.push(b);
        }
    }
}

/// The `width` low bits set, for `width` in `0..=64`.
#[inline]
fn low_mask(width: u32) -> u64 {
    u64::MAX.checked_shr(64 - width).unwrap_or(0)
}

/// Iterator over the bits of a [`BitVec`], produced by [`BitVec::iter`].
#[derive(Debug, Clone)]
pub struct Iter<'a> {
    v: &'a BitVec,
    i: usize,
}

impl Iterator for Iter<'_> {
    type Item = bool;

    fn next(&mut self) -> Option<bool> {
        let b = self.v.get(self.i)?;
        self.i += 1;
        Some(b)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.v.len - self.i;
        (n, Some(n))
    }
}

impl ExactSizeIterator for Iter<'_> {}

/// Appends bits and fixed- or variable-width integers to a [`BitVec`].
///
/// # Example
///
/// ```
/// use bci_encoding::bitio::{BitReader, BitWriter};
///
/// let mut w = BitWriter::new();
/// w.write_bit(true);
/// w.write_bits(0b1011, 4);
/// let bits = w.into_bits();
/// let mut r = BitReader::new(&bits);
/// assert_eq!(r.read_bit(), Some(true));
/// assert_eq!(r.read_bits(4), Some(0b1011));
/// ```
#[derive(Debug, Clone, Default)]
pub struct BitWriter {
    bits: BitVec,
}

impl BitWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a single bit.
    #[inline]
    pub fn write_bit(&mut self, bit: bool) {
        self.bits.push(bit);
    }

    /// Appends the `width` low bits of `value`, LSB first.
    ///
    /// # Panics
    ///
    /// Panics if `width > 64`, or if `value` does not fit in `width` bits.
    #[inline]
    pub fn write_bits(&mut self, value: u64, width: u32) {
        assert!(width <= 64, "width {width} exceeds 64");
        assert!(
            value & !low_mask(width) == 0,
            "value {value} does not fit in {width} bits"
        );
        self.bits.push_word(value, width);
    }

    /// Number of bits written so far.
    pub fn len(&self) -> usize {
        self.bits.len()
    }

    /// Whether nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.bits.is_empty()
    }

    /// Extracts the accumulated bits.
    #[inline]
    pub fn into_bits(self) -> BitVec {
        self.bits
    }

    /// Borrows the accumulated bits.
    pub fn bits(&self) -> &BitVec {
        &self.bits
    }
}

/// Reads bits and integers from a [`BitVec`] in writing order.
#[derive(Debug, Clone)]
pub struct BitReader<'a> {
    bits: &'a BitVec,
    pos: usize,
}

impl<'a> BitReader<'a> {
    /// Creates a reader positioned at the first bit.
    #[inline]
    pub fn new(bits: &'a BitVec) -> Self {
        BitReader { bits, pos: 0 }
    }

    /// Reads one bit, or `None` at end of input.
    #[inline]
    pub fn read_bit(&mut self) -> Option<bool> {
        let b = self.bits.get(self.pos)?;
        self.pos += 1;
        Some(b)
    }

    /// Reads `width` bits as an LSB-first integer, or `None` if fewer remain.
    ///
    /// # Panics
    ///
    /// Panics if `width > 64`.
    #[inline]
    pub fn read_bits(&mut self, width: u32) -> Option<u64> {
        assert!(width <= 64, "width {width} exceeds 64");
        if self.remaining() < width as usize {
            return None;
        }
        if width == 0 {
            return Some(0);
        }
        // The bits start at `off` in word `i` and, past its end, continue
        // at the bottom of word `i + 1`, which then exists.
        let (i, off) = (self.pos / 64, (self.pos % 64) as u32);
        let words = &self.bits.words;
        let mut v = words[i] >> off;
        if off + width > 64 {
            v |= words[i + 1] << (64 - off);
        }
        self.pos += width as usize;
        Some(v & low_mask(width))
    }

    /// Bits not yet consumed.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.bits.len() - self.pos
    }

    /// Current read position in bits.
    pub fn position(&self) -> usize {
        self.pos
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_bitvec() {
        let v = BitVec::new();
        assert!(v.is_empty());
        assert_eq!(v.len(), 0);
        assert_eq!(v.get(0), None);
        assert_eq!(format!("{v:?}"), "BitVec[]");
    }

    #[test]
    fn push_and_get_across_word_boundary() {
        let mut v = BitVec::new();
        for i in 0..130 {
            v.push(i % 3 == 0);
        }
        assert_eq!(v.len(), 130);
        for i in 0..130 {
            assert_eq!(v.get(i), Some(i % 3 == 0), "bit {i}");
        }
        assert_eq!(v.get(130), None);
    }

    #[test]
    fn from_bools_round_trip() {
        let bools = [true, false, false, true, true];
        let v = BitVec::from_bools(&bools);
        assert_eq!(v.iter().collect::<Vec<_>>(), bools);
    }

    #[test]
    fn collect_and_extend() {
        let v: BitVec = [true, false].into_iter().collect();
        let mut w = BitVec::new();
        w.extend([false, true]);
        let mut joined = v.clone();
        joined.extend_from(&w);
        assert_eq!(
            joined.iter().collect::<Vec<_>>(),
            vec![true, false, false, true]
        );
    }

    #[test]
    fn display_is_bit_string() {
        let v = BitVec::from_bools(&[true, false, true]);
        assert_eq!(v.to_string(), "101");
    }

    #[test]
    fn writer_reader_round_trip_fixed_widths() {
        let mut w = BitWriter::new();
        w.write_bits(0, 0); // zero-width write is a no-op
        w.write_bits(42, 6);
        w.write_bit(true);
        w.write_bits(u64::MAX, 64);
        w.write_bits(7, 3);
        let bits = w.into_bits();
        assert_eq!(bits.len(), 6 + 1 + 64 + 3);

        let mut r = BitReader::new(&bits);
        assert_eq!(r.read_bits(6), Some(42));
        assert_eq!(r.read_bit(), Some(true));
        assert_eq!(r.read_bits(64), Some(u64::MAX));
        assert_eq!(r.read_bits(3), Some(7));
        assert_eq!(r.read_bit(), None);
    }

    #[test]
    fn reader_refuses_overread_without_consuming() {
        let bits = BitVec::from_bools(&[true, true]);
        let mut r = BitReader::new(&bits);
        assert_eq!(r.read_bits(3), None);
        assert_eq!(r.remaining(), 2, "failed read must not consume bits");
        assert_eq!(r.read_bits(2), Some(0b11));
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn writer_rejects_oversized_value() {
        let mut w = BitWriter::new();
        w.write_bits(8, 3);
    }

    /// Deterministic pseudo-random words for the oracle tests.
    fn words(seed: u64) -> impl Iterator<Item = u64> {
        use rand::{RngCore, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        std::iter::repeat_with(move || rng.next_u64())
    }

    /// The bit-by-bit `write_bits` the word-level one replaced.
    fn oracle_write_bits(bits: &mut Vec<bool>, value: u64, width: u32) {
        for i in 0..width {
            bits.push((value >> i) & 1 == 1);
        }
    }

    /// The bit-by-bit `read_bits` the word-level one replaced.
    fn oracle_read_bits(bits: &[bool], pos: usize, width: u32) -> Option<u64> {
        let field = bits.get(pos..pos + width as usize)?;
        Some(
            field
                .iter()
                .enumerate()
                .fold(0, |v, (i, &b)| v | (u64::from(b) << i)),
        )
    }

    #[test]
    fn write_and_read_bits_match_the_bit_oracle_at_every_offset_and_width() {
        let mut values = words(1);
        for start in 0..128 {
            let prefix: Vec<bool> = (0..start).map(|i| i % 3 == 1).collect();
            for width in 0..=64 {
                let value = values.next().unwrap() & low_mask(width);
                let mut w = BitWriter::new();
                for &b in &prefix {
                    w.write_bit(b);
                }
                w.write_bits(value, width);
                w.write_bit(true);
                let mut expected = prefix.clone();
                oracle_write_bits(&mut expected, value, width);
                expected.push(true);
                let bits = w.into_bits();
                assert_eq!(bits, BitVec::from_bools(&expected), "{start}+{width}");

                let mut r = BitReader::new(&bits);
                for _ in 0..start {
                    r.read_bit();
                }
                if width + 2 <= 64 {
                    // One bit more than remains reads nothing.
                    assert_eq!(r.clone().read_bits(width + 2), None);
                }
                let got = r.read_bits(width);
                assert_eq!(got, oracle_read_bits(&expected, start, width));
                assert_eq!(got, Some(value), "{start}+{width}");
                assert_eq!(r.position(), start + width as usize);
                assert_eq!(r.read_bit(), Some(true));
                assert_eq!(r.read_bits(0), Some(0));
                assert!((1..=64).all(|w| r.clone().read_bits(w).is_none()));
            }
        }
    }

    #[test]
    fn extend_from_matches_the_bit_oracle_across_word_boundaries() {
        let mut source = words(2);
        let lens = [0usize, 1, 5, 63, 64, 65, 127, 128, 129, 200];
        for &a in &lens {
            for &b in &lens {
                let left: Vec<bool> = (0..a).map(|_| source.next().unwrap() & 1 == 1).collect();
                let right: Vec<bool> = (0..b).map(|_| source.next().unwrap() & 1 == 1).collect();
                let mut joined = BitVec::from_bools(&left);
                joined.extend_from(&BitVec::from_bools(&right));
                let expected: Vec<bool> = left.iter().chain(&right).copied().collect();
                assert_eq!(joined, BitVec::from_bools(&expected), "{a}+{b}");
                assert_eq!(joined.iter().collect::<Vec<_>>(), expected);
            }
        }
    }

    #[test]
    fn equal_bits_compare_and_hash_equal_however_they_were_written() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let hash = |v: &BitVec| {
            let mut h = DefaultHasher::new();
            v.hash(&mut h);
            h.finish()
        };
        let mut source = words(3);
        for round in 0..200 {
            // One random sequence of fields, written once through mixed
            // `push`/`write_bits`/`extend_from` calls and once bit by bit.
            let mut mixed = BitWriter::new();
            let mut expected = Vec::new();
            for _ in 0..round % 23 {
                let r = source.next().unwrap();
                let width = (r % 65) as u32;
                let value = source.next().unwrap() & low_mask(width);
                match r >> 60 {
                    0..=5 => mixed.write_bit(value & 1 == 1),
                    6..=11 => mixed.write_bits(value, width),
                    _ => {
                        let mut tail = BitWriter::new();
                        tail.write_bits(value, width);
                        let mut bits = mixed.into_bits();
                        bits.extend_from(&tail.into_bits());
                        mixed = BitWriter { bits };
                    }
                }
                match r >> 60 {
                    0..=5 => expected.push(value & 1 == 1),
                    _ => oracle_write_bits(&mut expected, value, width),
                }
            }
            let mixed = mixed.into_bits();
            let plain = BitVec::from_bools(&expected);
            assert_eq!(mixed, plain, "round {round}");
            assert_eq!(hash(&mixed), hash(&plain), "round {round}");
            let tail = mixed.len() as u32 % 64;
            if tail != 0 {
                let last = mixed.words[mixed.words.len() - 1];
                assert_eq!(last & !low_mask(tail), 0, "bits past len");
            }
        }
    }

    #[test]
    fn from_words_clears_the_bits_past_len() {
        let v = BitVec::from_words(vec![u64::MAX, u64::MAX], 70);
        assert_eq!(v, (0..70).map(|_| true).collect());
        assert_eq!(BitVec::from_words(Vec::new(), 0), BitVec::new());
    }

    #[test]
    fn exact_size_iterator() {
        let v = BitVec::from_bools(&[true, false, true, false]);
        let it = v.iter();
        assert_eq!(it.len(), 4);
    }
}
