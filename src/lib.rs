//! # broadcast-ic
//!
//! Reproduction of *"On Information Complexity in the Broadcast Model"*
//! (Braverman & Oshman, PODC 2015) as a Rust library suite.
//!
//! This root crate re-exports the whole workspace behind one name and hosts
//! the runnable `examples/` and cross-crate integration `tests/`. See the
//! README for a tour, `DESIGN.md` for the system inventory, and
//! `EXPERIMENTS.md` for the paper-vs-measured record.
//!
//! The sub-crates:
//!
//! * [`info`] — finite-support information theory (distributions, entropy,
//!   KL divergence, mutual information, estimators).
//! * [`encoding`] — bit I/O, universal codes, exact combinadic subset codec.
//! * [`blackboard`] — the k-party broadcast model: boards, transcripts,
//!   executable protocols and protocol trees with exact analysis.
//! * [`protocols`] — the paper's protocols: `AND_k` variants and the naive /
//!   optimal set-disjointness protocols.
//! * [`lowerbound`] — the lower-bound machinery made executable:
//!   q-decompositions, α-coefficients, posteriors, good transcripts, exact
//!   conditional information cost.
//! * [`compression`] — the Lemma-7 sampling protocol and Theorem-3 amortized
//!   compression.
//! * [`fabric`] — the concurrent execution fabric: transports, session
//!   scheduling with backpressure, fault injection, and a deterministic
//!   parallel Monte-Carlo driver.
//! * [`net`] — the wire layer under the multiplexed TCP coordinator
//!   (`bci-mux`): session-id frames, the admin stats channel, reconnect
//!   backoff, and wire-overhead accounting (see `docs/net.md`).
//! * [`telemetry`] — structured tracing and metrics: spans, counters,
//!   fixed-bucket histograms, and a dependency-free JSON writer; recording
//!   never perturbs results (see `docs/telemetry.md`).
//! * [`core`] — high-level facade and the experiment drivers behind every
//!   table in `EXPERIMENTS.md`.

pub use bci_blackboard as blackboard;
pub use bci_compression as compression;
pub use bci_core as core;
pub use bci_encoding as encoding;
pub use bci_fabric as fabric;
pub use bci_info as info;
pub use bci_lowerbound as lowerbound;
pub use bci_net as net;
pub use bci_protocols as protocols;
pub use bci_telemetry as telemetry;
