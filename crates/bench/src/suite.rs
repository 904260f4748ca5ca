//! Registry-driven [`Report`] generation.
//!
//! Every experiment lives in `bci-core`'s
//! [`registry`](bci_core::experiments::registry): identity, notes,
//! parameter metadata, sweep grid, and per-point computation. This module
//! turns any registry entry into a [`Report`] with [`report_for`], running
//! the sweep on a [`JobPool`] — one job per grid point, each under its own
//! derived seed — so `table_all --workers N` produces byte-identical
//! reports for every `N`. `table_all --experiment <id>` is a thin
//! [`report_by_id`] lookup; there are no per-experiment constructors here.

use bci_core::experiments::registry::{find, registry, run_grid_pooled, Experiment};
use bci_fabric::pool::{JobPool, PoolConfig};
use bci_telemetry::Recorder;

use crate::report::Report;

/// Builds the report for one experiment, running its default grid on a
/// `workers`-wide [`JobPool`].
///
/// Point `i` computes under `derive_trial_seed(exp.seed(), i)`; Monte-Carlo
/// experiments exposing the registry's `TrialSplit` hook additionally split
/// each point into fixed-size trial chunks so one heavy point spreads
/// across workers. Either way results are assembled in point (and trial)
/// order, so the report — text and JSON — is byte-identical for any worker
/// count, including the serial `workers = 1`.
pub fn report_for(exp: &dyn Experiment, workers: usize) -> Report {
    let pool = JobPool::new(PoolConfig {
        workers,
        // Grid points (and trial chunks) are few and individually heavy;
        // schedule one per queue entry so a slow point never strands cheap
        // ones behind it.
        batch_size: 1,
        queue_capacity: 8,
        metric_prefix: "experiments",
        job_spans: true,
        recorder: Recorder::disabled(),
    });
    let results = run_grid_pooled(exp, &pool, exp.seed());
    let mut report = Report::new(exp.id(), exp.title());
    for note in exp.notes() {
        report = report.note(note);
    }
    for (key, value) in exp.meta() {
        report = report.meta(key, value);
    }
    for (label, table) in exp.tables(&results) {
        report.push_table(label, &table);
    }
    report
}

/// Builds the report for a registry id (`"e7"`), or `None` if no experiment
/// has that id.
pub fn report_by_id(id: &str, workers: usize) -> Option<Report> {
    find(id).map(|exp| report_for(exp, workers))
}

/// The experiment ids [`all`] emits, in order (= registry order).
pub fn suite_ids() -> Vec<&'static str> {
    registry().iter().map(|e| e.id()).collect()
}

/// Every experiment report in `EXPERIMENTS.md` order.
pub fn all(workers: usize) -> Vec<Report> {
    registry()
        .iter()
        .map(|exp| report_for(*exp, workers))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::SCHEMA;

    #[test]
    fn cheap_reports_have_stable_identity_and_tables() {
        for (id, tables) in [("e2", 1), ("e8", 1), ("e16", 2), ("e17", 1)] {
            let report = report_by_id(id, 1).expect("registered");
            assert_eq!(report.experiment, id);
            assert!(!report.title.is_empty());
            assert_eq!(report.tables.len(), tables, "{}", report.experiment);
            for t in &report.tables {
                assert!(!t.columns.is_empty());
                assert!(!t.rows.is_empty());
                for row in &t.rows {
                    assert_eq!(row.len(), t.columns.len());
                }
            }
            let json = report.to_json().to_string();
            assert!(json.contains(SCHEMA), "{}", report.experiment);
        }
    }

    #[test]
    fn parallel_report_is_byte_identical_to_serial() {
        // e2 and e8 are cheap and exercise both the plain-table and the
        // per-point-result shapes; the full-suite equivalence is checked in
        // CI by diffing `table_all --workers 1` against `--workers 4`.
        for id in ["e2", "e8"] {
            let serial = report_by_id(id, 1).expect("registered");
            let parallel = report_by_id(id, 4).expect("registered");
            assert_eq!(serial.render_text(), parallel.render_text(), "{id}");
            assert_eq!(
                serial.to_json().to_string(),
                parallel.to_json().to_string(),
                "{id}"
            );
        }
    }

    #[test]
    fn unknown_ids_are_rejected() {
        assert!(report_by_id("e21", 1).is_none());
        assert!(report_by_id("fabric", 1).is_none());
    }
}
