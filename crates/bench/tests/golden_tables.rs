//! Golden-output regression tests for the deterministic experiments.
//!
//! The ids snapshotted here compute exact quantities — no RNG anywhere in
//! their point computation — so their rendered reports must stay
//! byte-identical across refactors. This is the guard behind the suite's
//! fast paths (the sparse `ProtocolTree` walk feeding E13, the sparse
//! information-cost accumulation): an algorithmic change that shifts any
//! digit of any deterministic table fails here, not in review.
//!
//! Seeded Monte-Carlo experiments are *reproducible*: a fixed seed gives
//! fixed bytes, so they are snapshotted too. A codec change that alters a
//! single transmitted bit (E1, E10, E18 and E19 ride the exact combinadic
//! subset codec), a change in how an experiment consumes its RNG stream,
//! or an engine change that reorders a turn (E4 cross-checks its decision
//! rule against engine execution) fails here and becomes an explicit,
//! reviewed re-bless. Their shape is checked as well: at least one table,
//! a fixed number of rows per grid point, and consistent row widths.
//!
//! Regenerate snapshots after an intentional change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p bci-bench --test golden_tables
//! ```

use bci_bench::suite::report_by_id;
use bci_core::experiments::registry::find;
use std::path::PathBuf;

/// Experiments whose point computation is exact (no RNG): snapshotted.
const DETERMINISTIC: &[&str] = &[
    "e2", "e3", "e5", "e8", "e9", "e11", "e13", "e16", "e17", "e20",
];

/// Seeded Monte-Carlo experiments: snapshotted and shape-checked.
const SEEDED: &[&str] = &[
    "e1", "e4", "e6", "e7", "e10", "e12", "e14", "e15", "e18", "e19",
];

fn golden_path(id: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{id}.txt"))
}

/// Renders each id serially and compares it to its snapshot, or rewrites
/// the snapshot under `UPDATE_GOLDEN`.
fn check_snapshots(ids: &[&str]) {
    let bless = std::env::var_os("UPDATE_GOLDEN").is_some();
    for id in ids {
        let rendered = report_by_id(id, 1).expect("registered").render_text();
        let path = golden_path(id);
        if bless {
            std::fs::create_dir_all(path.parent().expect("snapshot dir")).expect("mkdir");
            std::fs::write(&path, &rendered).expect("write snapshot");
            continue;
        }
        let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "missing snapshot {} ({e}); run with UPDATE_GOLDEN=1 to create it",
                path.display()
            )
        });
        assert!(
            rendered == expected,
            "{id}: rendered report differs from {}.\n\
             If the change is intentional, regenerate with UPDATE_GOLDEN=1.\n\
             --- expected ---\n{expected}\n--- got ---\n{rendered}",
            path.display()
        );
    }
}

#[test]
fn deterministic_reports_match_golden_snapshots() {
    check_snapshots(DETERMINISTIC);
}

#[test]
fn seeded_reports_match_golden_snapshots() {
    check_snapshots(SEEDED);
}

#[test]
fn deterministic_snapshots_are_worker_count_independent() {
    // The snapshot tests run serial; the same bytes must come out of a
    // parallel pool (including any TrialSplit chunking: e19 splits its 16
    // trials into chunks of 4).
    for id in ["e13", "e16", "e19"] {
        let serial = report_by_id(id, 1).expect("registered").render_text();
        let parallel = report_by_id(id, 3).expect("registered").render_text();
        assert_eq!(serial, parallel, "{id}");
    }
}

#[test]
fn randomized_reports_keep_their_shape() {
    for id in SEEDED {
        let exp = find(id).expect("registered");
        let report = report_by_id(id, 1).expect("registered");
        assert!(!report.tables.is_empty(), "{id}: no tables");
        // A fixed number of rows per grid point (usually 1; e18 emits one
        // row per promise case, e7 splits its points across two tables),
        // so a silently dropped point still fails.
        let rows: usize = report.tables.iter().map(|t| t.rows.len()).sum();
        let points = exp.grid().len();
        assert!(
            rows >= points && rows.is_multiple_of(points),
            "{id}: first table has {rows} rows for {points} grid points"
        );
        for t in &report.tables {
            assert!(!t.columns.is_empty(), "{id}");
            for row in &t.rows {
                assert_eq!(row.len(), t.columns.len(), "{id}");
            }
        }
    }
}

#[test]
fn every_registry_id_is_classified() {
    // A new experiment must be placed in exactly one of the two lists,
    // so the golden suite can't silently skip it.
    let mut ids: Vec<&str> = DETERMINISTIC.iter().chain(SEEDED).copied().collect();
    ids.sort_unstable();
    let mut registered: Vec<&str> = bci_bench::suite::suite_ids();
    registered.sort_unstable();
    assert_eq!(ids, registered);
}
