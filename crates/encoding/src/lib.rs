#![warn(missing_docs)]

//! Bit-level encoding substrate for the broadcast-model protocols.
//!
//! The paper's optimal set-disjointness protocol (Theorem 2) writes *batches*
//! of coordinates on the blackboard, encoded as a `b`-element subset of a
//! `z`-element universe in exactly `⌈log₂ C(z,b)⌉` bits. Making that protocol
//! actually decodable requires:
//!
//! * bit-granular message I/O ([`bitio`]),
//! * self-delimiting integer codes for the variable-length fields of the
//!   compression protocol ([`unary`], [`elias`]),
//! * exact binomial coefficients far beyond `u128` ([`bignum`], [`binomial`]),
//! * the combinadic (combinatorial number system) subset codec
//!   ([`combinadic`]),
//! * compact set representations for player inputs ([`bitset`]),
//! * fast floating-point `log₂ C(z,b)` for cost-only sweeps ([`approx`]),
//! * and a canonical binary codec for values crossing the network
//!   ([`wire`]), used by the `bci-net` frames the mux daemon speaks.
//!
//! Everything here is implemented from scratch; the crate has no runtime
//! dependencies.
//!
//! # Example
//!
//! ```
//! use bci_encoding::bitio::{BitReader, BitWriter};
//! use bci_encoding::combinadic::SubsetCodec;
//!
//! // Encode the subset {1, 4, 7} of {0..10} in ⌈log₂ C(10,3)⌉ = 7 bits.
//! let codec = SubsetCodec::new(10, 3);
//! assert_eq!(codec.code_len_bits(), 7);
//! let mut w = BitWriter::new();
//! codec.encode(&[1, 4, 7], &mut w);
//! let bits = w.into_bits();
//! assert_eq!(bits.len(), 7);
//! let mut r = BitReader::new(&bits);
//! assert_eq!(codec.decode(&mut r), vec![1, 4, 7]);
//! ```

pub mod approx;
pub mod arithmetic;
pub mod bignum;
pub mod binomial;
pub mod bitio;
pub mod bitset;
pub mod combinadic;
pub mod elias;
pub mod huffman;
pub mod unary;
pub mod wire;

pub use bignum::BigUint;
pub use bitio::{BitReader, BitVec, BitWriter};
pub use bitset::BitSet;
pub use combinadic::SubsetCodec;
pub use wire::{Wire, WireError};
