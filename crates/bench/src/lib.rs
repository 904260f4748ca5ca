//! Experiment report generator for the broadcast-ic workspace.
//!
//! * `src/bin/table_all.rs` — the one runner: prints every experiment
//!   table in `EXPERIMENTS.md` order, or one with `--experiment <id>`
//!   (`cargo run -p bci-bench --release --bin table_all -- --experiment
//!   e1`). `--workers N` runs grid points on an `N`-wide fabric job pool;
//!   the output is byte-identical for every `N`. `--json <path>` writes a
//!   schema-stable JSON report next to the text output (see [`report`]).
//! * [`suite`] — the generic [`suite::report_for`] bridge from the
//!   experiment registry in `bci-core` to [`report::Report`]; canonical
//!   parameters live on the registry entries themselves.
//!
//! Timing lives in the in-process benchmark (`examples/benchmark`), not
//! here: reports carry no timing or host-specific fields.

#![warn(missing_docs)]

pub mod report;
pub mod suite;
