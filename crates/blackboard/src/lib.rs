#![warn(missing_docs)]

//! The k-party broadcast (shared blackboard) communication model.
//!
//! The model, following Section 3 of the paper: `k` players each hold a
//! private input and communicate by writing messages on a shared blackboard
//! that everyone reads for free. At every point, *the current contents of the
//! board determine whose turn it is to speak*; the speaker produces a message
//! from its own input, its private randomness, and the board; the protocol
//! halts when the board determines an output.
//!
//! Two complementary representations of a protocol live here:
//!
//! * [`protocol::Protocol`] — an *executable* protocol: arbitrary input
//!   types, real bit-level messages, run on concrete inputs by
//!   [`runner`]. Used by the upper-bound experiments, where inputs are sets
//!   over `[n]` and communication is counted on real encodings.
//! * [`tree::ProtocolTree`] — a protocol *tree* over one-bit inputs, with an
//!   explicit message distribution at every node. Supports exact computation
//!   of the transcript distribution, the Lemma-3 product decomposition
//!   `Pr[Π = ℓ | X] = ∏ᵢ q_{i,Xᵢ}^ℓ`, and exact (conditional) information
//!   cost. Used by all lower-bound and compression experiments.
//!
//! # Example: running a protocol
//!
//! ```
//! use bci_blackboard::board::Board;
//! use bci_blackboard::protocol::{Protocol, run};
//! use bci_encoding::bitio::BitVec;
//! use rand::SeedableRng;
//!
//! /// Players announce their bit in turn; stop at the first zero.
//! struct SequentialAnd {
//!     k: usize,
//! }
//!
//! impl Protocol for SequentialAnd {
//!     type Input = bool;
//!     type Output = bool;
//!
//!     fn num_players(&self) -> usize {
//!         self.k
//!     }
//!
//!     fn next_speaker(&self, board: &Board) -> Option<usize> {
//!         match board.messages().last() {
//!             Some(m) if m.bits.get(0) == Some(false) => None, // someone said 0
//!             _ if board.messages().len() >= self.k => None,   // everyone spoke
//!             _ => Some(board.messages().len()),
//!         }
//!     }
//!
//!     fn message(
//!         &self,
//!         _player: usize,
//!         input: &bool,
//!         _board: &Board,
//!         _rng: &mut dyn rand::RngCore,
//!     ) -> BitVec {
//!         BitVec::from_bools(&[*input])
//!     }
//!
//!     fn output(&self, board: &Board) -> bool {
//!         board.messages().iter().all(|m| m.bits.get(0) == Some(true))
//!             && board.messages().len() == self.k
//!     }
//! }
//!
//! let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0);
//! let exec = run(&SequentialAnd { k: 5 }, &[true, true, false, true, true], &mut rng);
//! assert!(!exec.output);
//! assert_eq!(exec.bits_written, 3); // players 0, 1, 2 spoke
//! ```

pub mod board;
pub mod engine;
pub mod general_tree;
pub mod protocol;
pub mod runner;
pub mod stats;
pub mod tree;

pub use board::{Board, Message};
pub use engine::{Engine, Grant, ProtocolViolation, Step, TranscriptModel, TurnEngine};
pub use protocol::{run, run_traced, Execution, Protocol};
pub use stats::CommStats;
pub use tree::ProtocolTree;

/// Index of a player, `0 ≤ id < k`.
pub type PlayerId = usize;

#[cfg(test)]
mod tree_protocol;
