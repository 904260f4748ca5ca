#![warn(missing_docs)]

//! Umbrella API for the broadcast-model information-complexity library.
//!
//! This crate ties the workspace together:
//!
//! * re-exports of the sub-crates under stable names;
//! * [`table`] — plain-text table rendering used by every experiment report;
//! * [`experiments`] — one driver per result in the paper, each producing
//!   structured rows *and* a rendered table. `bci-bench`'s `table_all` and
//!   the integration tests both call these drivers, so the numbers in
//!   `EXPERIMENTS.md` are regenerable with one command
//!   (`table_all --experiment <id>` for one table).
//!
//! # Quickstart
//!
//! ```
//! use bci_core::experiments::e2_and_cic;
//!
//! // Regenerate (a small slice of) the AND_k information-cost table.
//! let rows = e2_and_cic::run(&[4, 16, 64]);
//! for r in &rows {
//!     assert!(r.cic > 0.0);
//!     assert!(r.cic_over_log_k > 0.2 && r.cic_over_log_k < 1.5);
//! }
//! println!("{}", e2_and_cic::render(&rows));
//! ```

pub mod experiments;
pub mod table;

pub use bci_blackboard as blackboard;
pub use bci_compression as compression;
pub use bci_encoding as encoding;
pub use bci_info as info;
pub use bci_lowerbound as lowerbound;
pub use bci_protocols as protocols;
