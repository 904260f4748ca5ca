#![warn(missing_docs)]

//! The paper's lower-bound machinery, made executable.
//!
//! The `Ω(n log k + k)` lower bound on set disjointness (Section 4) is a
//! proof, not a program — but every quantity the proof manipulates is
//! computable exactly for concrete protocols, and this crate computes them:
//!
//! * [`hard_dist`] — the hard distribution `μ`: a uniformly random special
//!   player `Z` receives 0; everyone else receives 0 independently with
//!   probability `1/k`. Conditioned on `Z` the inputs are independent
//!   (Lemma 1's condition 2) and `AND_k` is always 0 on the support
//!   (condition 1). It is the workspace's only copy of `μ`.
//! * [`cic`] — exact conditional information cost `CIC_μ(Π) = I(Π; X | Z)`
//!   for protocol trees, via the factorized posterior computation.
//! * [`qdecomp`] — the Lemma 3 `q`-decomposition and the α-coefficients
//!   `α_i^ℓ = q_{i,0}^ℓ / q_{i,1}^ℓ`, plus the Lemma 4 posteriors.
//! * [`good_transcripts`] — the sets `L` and `L′` of "pointing" transcripts,
//!   the conditional transcript distributions `π_c`, and a checker for
//!   Lemma 5 (for most of `π₂`'s mass, some player has `α_i^ℓ ≥ c·k`).
//! * [`direct_sum`] — brute-force verification of Lemma 1 (`CIC` adds up
//!   across independent copies) and the Theorem 4 equality on product
//!   distributions, plus `CIC_{μⁿ}` of the full set-valued `DISJ_{n,k}`
//!   tree.
//! * [`counting`] — the Lemma 6 fooling argument: deterministic protocols in
//!   which few players speak err under the two-point hard distribution `μ′`.
//!
//! # Example
//!
//! ```
//! use bci_lowerbound::cic::cic_hard;
//! use bci_lowerbound::hard_dist::HardDist;
//! use bci_protocols::and_trees::sequential_and;
//!
//! // The sequential AND witness has CIC = Θ(log k): the ratio to log₂ k is
//! // bounded on both sides.
//! for k in [8usize, 32, 128] {
//!     let cic = cic_hard(&sequential_and(k), &HardDist::new(k));
//!     let ratio = cic / (k as f64).log2();
//!     assert!(ratio > 0.1 && ratio < 2.0, "k={k}: ratio {ratio}");
//! }
//! ```

pub mod cic;
pub mod counting;
pub mod direct_sum;
pub mod good_transcripts;
pub mod hard_dist;
pub mod internal;
pub mod qdecomp;

pub use cic::{cic_hard, cic_product};
pub use hard_dist::HardDist;

#[cfg(test)]
mod fooling;
