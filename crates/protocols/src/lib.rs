#![warn(missing_docs)]

//! Concrete broadcast protocols from the paper.
//!
//! * [`and`] — executable `AND_k` protocols: the sequential protocol whose
//!   information cost is `O(log k)` (Section 6), the all-speak variant, and
//!   the truncated deterministic family used by the Lemma-6 `Ω(k)` bound.
//! * [`and_trees`] — the same protocols as exact
//!   [`ProtocolTree`](bci_blackboard::tree::ProtocolTree)s, plus noisy and
//!   lazy variants with tunable error, for the lower-bound experiments.
//! * [`disj`] — set disjointness: the naive `O(n log n + k)` protocol from
//!   the introduction and the batched `O(n log k + k)` protocol of
//!   Theorem 2, each with an input-free board decoder that proves the
//!   transcript is self-describing.
//! * [`disj_trees`] — the coordinate-wise `DISJ_{n,k}` protocol as one
//!   exact tree over set-valued inputs. Its information cost under the
//!   hard distribution is `bci-lowerbound`'s (`direct_sum::disj_cic_exact`):
//!   this crate holds protocols only, and no copy of the distribution.
//! * [`msgpass`] — the message-passing counterparts the separations are
//!   measured against: `DISJ` on the BEOPV coordinator star and on a
//!   point-to-point ring (both `Θ(nk)`), and star `AND_k` — all as
//!   [`RoutedProtocol`](bci_topology::RoutedProtocol)s over explicit
//!   topologies.
//! * [`union`] — the pointwise-OR (set union) problem the paper discusses
//!   alongside symmetrization, with the same naive/batched pair.
//! * [`sparse`] — the Håstad–Wigderson `O(s)` two-player protocol for
//!   sparse set disjointness cited in the introduction (the classic example
//!   of a log factor that *doesn't* arise), run on `SparseBitSet`s in
//!   `O(s)` time per round.
//! * [`workload`] — input generators for the disjointness experiments.
//!
//! # Example
//!
//! ```
//! use bci_protocols::disj::{batched, naive};
//! use bci_protocols::workload;
//! use rand::SeedableRng;
//!
//! let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1);
//! let inputs = workload::planted_zero_cover(512, 16, 0.0, &mut rng);
//! let fast = batched::run(&inputs);
//! let slow = naive::run(&inputs);
//! assert!(fast.output && slow.output); // the instance is disjoint
//! assert!(fast.bits < slow.bits); // log k beats log n per coordinate
//! ```

pub mod and;
pub mod and_trees;
pub mod disj;
pub mod disj_trees;
pub mod msgpass;
pub mod sparse;
pub mod union;
pub mod workload;
