//! The Elias γ universal code for positive integers.
//!
//! The compression protocol of Section 6 sends two variable-length fields —
//! the block index `⌈t/|U|⌉` and the log-ratio `s` — whose magnitudes are
//! unbounded but typically tiny. Elias codes give `O(log n)` bits for value
//! `n` while remaining self-delimiting, exactly the "variable-length
//! encoding" the paper stipulates.
//!
//! γ(n) is `⌊log₂ n⌋` in unary, then the `⌊log₂ n⌋` low bits of `n`
//! (`2⌊log₂ n⌋ + 1` bits total). It codes *positive* integers; callers
//! encoding values that may be zero shift by one (`encode(v + 1)`).

use crate::bitio::{BitReader, BitWriter};
use crate::unary;

/// Writes `n ≥ 1` in Elias γ.
///
/// # Panics
///
/// Panics if `n == 0`.
///
/// # Example
///
/// ```
/// use bci_encoding::bitio::{BitReader, BitWriter};
/// use bci_encoding::elias;
///
/// let mut w = BitWriter::new();
/// elias::gamma_encode(9, &mut w);
/// assert_eq!(w.len() as u64, elias::gamma_len(9)); // 7 bits
/// let bits = w.into_bits();
/// let mut r = BitReader::new(&bits);
/// assert_eq!(elias::gamma_decode(&mut r), Some(9));
/// ```
pub fn gamma_encode(n: u64, writer: &mut BitWriter) {
    assert!(n >= 1, "Elias gamma codes positive integers only");
    let bits = 63 - n.leading_zeros(); // ⌊log₂ n⌋
    unary::encode(u64::from(bits), writer);
    writer.write_bits(n & !(1u64 << bits), bits);
}

/// Length in bits of γ(n).
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn gamma_len(n: u64) -> u64 {
    assert!(n >= 1, "Elias gamma codes positive integers only");
    let bits = u64::from(63 - n.leading_zeros());
    2 * bits + 1
}

/// Reads a γ-coded value; `None` on truncated input.
pub fn gamma_decode(reader: &mut BitReader<'_>) -> Option<u64> {
    let bits = unary::decode(reader)?;
    if bits > 63 {
        return None; // corrupt: would overflow u64
    }
    let low = reader.read_bits(bits as u32)?;
    Some((1u64 << bits) | low)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitio::BitVec;

    #[test]
    fn gamma_known_codewords() {
        // Classic table: γ(1)=0, γ(2)=100, γ(3)=110, γ(4)=10100 ...
        // (our bit order within the suffix is LSB-first, so compare via
        // round-trip + length instead of literal strings for n ≥ 4).
        let mut w = BitWriter::new();
        gamma_encode(1, &mut w);
        assert_eq!(w.bits().to_string(), "0");
        let mut w = BitWriter::new();
        gamma_encode(2, &mut w);
        assert_eq!(w.len(), 3);
        let mut w = BitWriter::new();
        gamma_encode(4, &mut w);
        assert_eq!(w.len(), 5);
    }

    #[test]
    fn gamma_round_trip() {
        for n in (1..200u64).chain([1 << 20, u64::MAX, (1 << 63) + 5]) {
            let mut w = BitWriter::new();
            gamma_encode(n, &mut w);
            assert_eq!(w.len() as u64, gamma_len(n), "len of gamma({n})");
            let bits = w.into_bits();
            let mut r = BitReader::new(&bits);
            assert_eq!(gamma_decode(&mut r), Some(n));
            assert_eq!(r.remaining(), 0);
        }
    }

    #[test]
    fn gamma_len_is_2floorlog_plus_1() {
        assert_eq!(gamma_len(1), 1);
        assert_eq!(gamma_len(2), 3);
        assert_eq!(gamma_len(3), 3);
        assert_eq!(gamma_len(4), 5);
        assert_eq!(gamma_len(7), 5);
        assert_eq!(gamma_len(8), 7);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn gamma_rejects_zero() {
        let mut w = BitWriter::new();
        gamma_encode(0, &mut w);
    }

    #[test]
    fn mixed_stream_is_self_delimiting() {
        let mut w = BitWriter::new();
        gamma_encode(5, &mut w);
        gamma_encode(1000, &mut w);
        gamma_encode(1, &mut w);
        w.write_bits(0b101, 3);
        let bits = w.into_bits();
        let mut r = BitReader::new(&bits);
        assert_eq!(gamma_decode(&mut r), Some(5));
        assert_eq!(gamma_decode(&mut r), Some(1000));
        assert_eq!(gamma_decode(&mut r), Some(1));
        assert_eq!(r.read_bits(3), Some(0b101));
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn truncated_gamma_is_none() {
        let bits = BitVec::from_bools(&[true, true, false]); // promises 2 suffix bits
        let mut r = BitReader::new(&bits);
        assert_eq!(gamma_decode(&mut r), None);
    }

    #[test]
    fn corrupt_overlong_gamma_is_none() {
        // 70 ones: claims ⌊log₂ n⌋ = 70 > 63.
        let bits: BitVec = std::iter::repeat_n(true, 70)
            .chain([false])
            .chain(std::iter::repeat_n(true, 70))
            .collect();
        let mut r = BitReader::new(&bits);
        assert_eq!(gamma_decode(&mut r), None);
    }
}
