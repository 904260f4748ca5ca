//! Dependency-free binary encoding for values that cross the network.
//!
//! The TCP transport (`bci-net`) ships protocol inputs, outputs, and board
//! messages between a coordinator and player processes. [`Wire`] is the
//! codec those frames use: fixed-width little-endian integers,
//! length-prefixed strings and vectors, and the bit-exact [`BitVec`] /
//! [`BitSet`] layouts the blackboard already serializes with
//! (LSB-first packed bits, `u64` backing words).
//!
//! Decoding is total: any byte slice either decodes or returns a
//! [`WireError`]; malformed input can never panic or over-allocate (vector
//! length prefixes are validated against the bytes actually remaining).
//!
//! # Example
//!
//! ```
//! use bci_encoding::wire::Wire;
//!
//! let xs: Vec<u32> = vec![7, 11];
//! let bytes = xs.to_wire_bytes();
//! assert_eq!(Vec::<u32>::from_wire_bytes(&bytes).unwrap(), xs);
//! ```

use std::fmt;

use crate::bitio::BitVec;
use crate::bitset::BitSet;

/// Why a decode failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// Input ended before the value was fully decoded.
    Truncated,
    /// A field held an impossible value (bad bool byte, oversized length
    /// prefix, invalid UTF-8, …). The payload names the field.
    Invalid(&'static str),
    /// Bytes were left over after [`Wire::from_wire_bytes`] decoded a
    /// complete value.
    TrailingBytes,
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated => write!(f, "input truncated"),
            WireError::Invalid(what) => write!(f, "invalid field: {what}"),
            WireError::TrailingBytes => write!(f, "trailing bytes after value"),
        }
    }
}

impl std::error::Error for WireError {}

/// A value with a canonical binary encoding.
///
/// Encodings are deterministic (equal values produce equal bytes) and
/// self-delimiting under sequential decoding: `decode` consumes exactly the
/// bytes `encode` wrote, so values concatenate without external framing.
pub trait Wire: Sized {
    /// Appends this value's encoding to `out`.
    fn encode(&self, out: &mut Vec<u8>);

    /// Decodes one value from the front of `input`, advancing it past the
    /// consumed bytes.
    fn decode(input: &mut &[u8]) -> Result<Self, WireError>;

    /// Encodes into a fresh buffer.
    fn to_wire_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode(&mut out);
        out
    }

    /// Decodes a value that must span `bytes` exactly.
    fn from_wire_bytes(mut bytes: &[u8]) -> Result<Self, WireError> {
        let v = Self::decode(&mut bytes)?;
        if bytes.is_empty() {
            Ok(v)
        } else {
            Err(WireError::TrailingBytes)
        }
    }
}

fn take<'a>(input: &mut &'a [u8], n: usize) -> Result<&'a [u8], WireError> {
    if input.len() < n {
        return Err(WireError::Truncated);
    }
    let (head, rest) = input.split_at(n);
    *input = rest;
    Ok(head)
}

impl Wire for () {
    fn encode(&self, _out: &mut Vec<u8>) {}

    fn decode(_input: &mut &[u8]) -> Result<Self, WireError> {
        Ok(())
    }
}

impl Wire for bool {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }

    fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
        match take(input, 1)?[0] {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(WireError::Invalid("bool byte")),
        }
    }
}

macro_rules! wire_int {
    ($($ty:ty),*) => {$(
        impl Wire for $ty {
            fn encode(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }

            fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
                let bytes = take(input, std::mem::size_of::<$ty>())?;
                Ok(<$ty>::from_le_bytes(bytes.try_into().expect("sized")))
            }
        }
    )*};
}

wire_int!(u8, u16, u32, u64, i64);

impl Wire for usize {
    /// Encoded as `u64` so 32- and 64-bit peers interoperate.
    fn encode(&self, out: &mut Vec<u8>) {
        (*self as u64).encode(out);
    }

    fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
        let v = u64::decode(input)?;
        usize::try_from(v).map_err(|_| WireError::Invalid("usize overflow"))
    }
}

impl Wire for f64 {
    /// IEEE-754 bits, little-endian; NaN payloads round-trip exactly.
    fn encode(&self, out: &mut Vec<u8>) {
        self.to_bits().encode(out);
    }

    fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
        Ok(f64::from_bits(u64::decode(input)?))
    }
}

impl Wire for String {
    /// `u32` byte length, then UTF-8 bytes.
    fn encode(&self, out: &mut Vec<u8>) {
        let len = u32::try_from(self.len()).expect("string fits a frame");
        len.encode(out);
        out.extend_from_slice(self.as_bytes());
    }

    fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
        let len = u32::decode(input)? as usize;
        let bytes = take(input, len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| WireError::Invalid("utf-8 string"))
    }
}

impl<T: Wire> Wire for Vec<T> {
    /// `u32` element count, then each element in order.
    fn encode(&self, out: &mut Vec<u8>) {
        let len = u32::try_from(self.len()).expect("vec fits a frame");
        len.encode(out);
        for item in self {
            item.encode(out);
        }
    }

    fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
        let len = u32::decode(input)? as usize;
        // Guard the allocation against a forged length prefix: with at
        // least one byte per element, `len` can never exceed what remains.
        // Zero-sized elements ((), …) are exempt but also allocate nothing.
        if std::mem::size_of::<T>() > 0 && len > input.len() {
            return Err(WireError::Truncated);
        }
        let mut out = Vec::with_capacity(len.min(input.len().max(1)));
        for _ in 0..len {
            out.push(T::decode(input)?);
        }
        Ok(out)
    }
}

impl Wire for BitVec {
    /// `u32` bit length, then the bits packed LSB-first into bytes — the
    /// payload layout of
    /// [`Board::to_bytes`](../../bci_blackboard/board/struct.Board.html)
    /// and the routed board's serialization.
    fn encode(&self, out: &mut Vec<u8>) {
        let len = u32::try_from(self.len()).expect("bitvec fits a frame");
        len.encode(out);
        // The bits past `len` are zero, so whole little-endian words cut
        // to `⌈len/8⌉` bytes are the packed bits.
        let mut left = self.len().div_ceil(8);
        out.reserve(left);
        for word in self.words() {
            let bytes = word.to_le_bytes();
            let n = left.min(bytes.len());
            out.extend_from_slice(&bytes[..n]);
            left -= n;
        }
    }

    /// Bits past the length in the last byte are ignored.
    fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
        let len = u32::decode(input)? as usize;
        let bytes = take(input, len.div_ceil(8))?;
        let words = bytes
            .chunks(8)
            .map(|chunk| {
                let mut word = [0u8; 8];
                word[..chunk.len()].copy_from_slice(chunk);
                u64::from_le_bytes(word)
            })
            .collect();
        Ok(BitVec::from_words(words, len))
    }
}

impl Wire for BitSet {
    /// `u64` capacity, then the `⌈capacity/64⌉` backing words — the word
    /// count is implied by the capacity, so no second length field.
    fn encode(&self, out: &mut Vec<u8>) {
        (self.capacity() as u64).encode(out);
        for &w in self.words() {
            w.encode(out);
        }
    }

    fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
        let capacity = usize::decode(input)?;
        let word_count = capacity.div_ceil(64);
        // Every word costs 8 bytes; reject a capacity the remaining input
        // cannot back before allocating for it.
        if word_count > input.len() / 8 {
            return Err(WireError::Truncated);
        }
        let mut words = Vec::with_capacity(word_count);
        for _ in 0..word_count {
            words.push(u64::decode(input)?);
        }
        Ok(BitSet::from_words(capacity, words))
    }
}

/// FNV-1a (64-bit) over a byte slice: the digest every transcript
/// replay check in the workspace folds over canonical bytes.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_reference_vectors() {
        // Standard FNV-1a 64 test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }

    fn round_trip<T: Wire + PartialEq + std::fmt::Debug>(value: T) {
        let bytes = value.to_wire_bytes();
        assert_eq!(T::from_wire_bytes(&bytes).unwrap(), value);
    }

    #[test]
    fn scalars_round_trip() {
        round_trip(());
        round_trip(true);
        round_trip(false);
        round_trip(0xABu8);
        round_trip(0xBEEFu16);
        round_trip(0xDEAD_BEEFu32);
        round_trip(u64::MAX);
        round_trip(-42i64);
        round_trip(usize::MAX);
        round_trip(std::f64::consts::PI);
        round_trip(f64::NEG_INFINITY);
    }

    #[test]
    fn strings_and_vecs_round_trip() {
        round_trip(String::new());
        round_trip("blåbær δ".to_owned());
        round_trip(Vec::<u64>::new());
        round_trip(vec![1u32, 2, 3]);
        round_trip(vec!["a".to_owned(), String::new()]);
        round_trip(vec![vec![1u8], vec![], vec![2, 3]]);
    }

    #[test]
    fn bitvec_round_trips_all_lengths_near_byte_boundaries() {
        for len in 0..40 {
            let bools: Vec<bool> = (0..len).map(|i| (i * 7 + 3) % 5 < 2).collect();
            round_trip(BitVec::from_bools(&bools));
        }
    }

    /// The bit-by-bit `BitVec` encoder the word-level one replaced.
    fn oracle_encode(bits: &BitVec) -> Vec<u8> {
        let mut out = (bits.len() as u32).to_wire_bytes();
        let mut byte = 0u8;
        for (i, bit) in bits.iter().enumerate() {
            byte |= u8::from(bit) << (i % 8);
            if i % 8 == 7 {
                out.push(byte);
                byte = 0;
            }
        }
        if !bits.len().is_multiple_of(8) {
            out.push(byte);
        }
        out
    }

    /// The bit-by-bit `BitVec` decoder the word-level one replaced: it
    /// reads only the first `len` bits of the payload.
    fn oracle_decode(bytes: &[u8]) -> BitVec {
        let mut input = bytes;
        let len = u32::decode(&mut input).unwrap() as usize;
        (0..len)
            .map(|i| input[i / 8] & (1 << (i % 8)) != 0)
            .collect()
    }

    #[test]
    fn bitvec_codec_matches_the_bit_oracle() {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        for len in 0..300 {
            let bits: BitVec = (0..len)
                .map(|_| {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    state & 1 == 1
                })
                .collect();
            let bytes = bits.to_wire_bytes();
            assert_eq!(bytes, oracle_encode(&bits), "len {len}");
            assert_eq!(BitVec::from_wire_bytes(&bytes).unwrap(), bits);
            if len % 8 != 0 {
                // Garbage above the length in the last byte is ignored.
                let mut dirty = bytes.clone();
                *dirty.last_mut().unwrap() |= 0xFF << (len % 8);
                let decoded = BitVec::from_wire_bytes(&dirty).unwrap();
                assert_eq!(decoded, oracle_decode(&dirty), "len {len}");
                assert_eq!(decoded, bits, "len {len}");
                assert_eq!(decoded.to_wire_bytes(), bytes, "len {len}");
            }
        }
    }

    #[test]
    fn bitset_round_trips_including_partial_last_word() {
        for cap in [0usize, 1, 63, 64, 65, 200] {
            let mut s = BitSet::new(cap);
            for e in (0..cap).step_by(3) {
                s.insert(e);
            }
            round_trip(s);
        }
    }

    #[test]
    fn values_concatenate_without_framing() {
        let mut buf = Vec::new();
        7u32.encode(&mut buf);
        "hi".to_owned().encode(&mut buf);
        true.encode(&mut buf);
        let mut input = buf.as_slice();
        assert_eq!(u32::decode(&mut input).unwrap(), 7);
        assert_eq!(String::decode(&mut input).unwrap(), "hi");
        assert!(bool::decode(&mut input).unwrap());
        assert!(input.is_empty());
    }

    #[test]
    fn truncated_inputs_error_out() {
        assert_eq!(u64::from_wire_bytes(&[1, 2, 3]), Err(WireError::Truncated));
        let mut bytes = "hello".to_owned().to_wire_bytes();
        bytes.pop();
        assert_eq!(String::from_wire_bytes(&bytes), Err(WireError::Truncated));
    }

    #[test]
    fn forged_length_prefixes_do_not_allocate() {
        // A vec claiming u32::MAX elements backed by no bytes.
        let bytes = u32::MAX.to_wire_bytes();
        assert_eq!(
            Vec::<u64>::from_wire_bytes(&bytes),
            Err(WireError::Truncated)
        );
        // A bitset claiming a huge capacity with no words behind it.
        let bytes = (u64::MAX / 2).to_wire_bytes();
        assert_eq!(BitSet::from_wire_bytes(&bytes), Err(WireError::Truncated));
    }

    #[test]
    fn invalid_payloads_are_rejected() {
        assert_eq!(
            bool::from_wire_bytes(&[2]),
            Err(WireError::Invalid("bool byte"))
        );
        assert_eq!(u8::from_wire_bytes(&[1, 9]), Err(WireError::TrailingBytes));
        let mut bad_utf8 = 2u32.to_wire_bytes();
        bad_utf8.extend_from_slice(&[0xFF, 0xFE]);
        assert_eq!(
            String::from_wire_bytes(&bad_utf8),
            Err(WireError::Invalid("utf-8 string"))
        );
    }
}
