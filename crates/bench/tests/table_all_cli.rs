//! Integration tests of the `table_all` binary's command line: one
//! experiment's text and JSON, and every way a bad invocation exits 2.

use std::path::PathBuf;
use std::process::{Command, Output};

fn table_all(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_table_all"))
        .args(args)
        .output()
        .expect("binary runs")
}

#[test]
fn one_experiment_prints_its_golden_and_writes_its_json() {
    let dir = std::env::temp_dir().join(format!("bci-table-all-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let json = dir.join("e5.json");
    let out = table_all(&[
        "--experiment",
        "e5",
        "--json",
        json.to_str().expect("utf8 path"),
    ]);
    assert!(out.status.success(), "{out:?}");
    let golden = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/e5.txt");
    let expected = std::fs::read_to_string(golden).expect("e5 golden");
    assert_eq!(String::from_utf8(out.stdout).expect("utf8"), expected);
    let doc = std::fs::read_to_string(&json).expect("json written");
    let report = bci_bench::suite::report_by_id("e5", 1).expect("registered");
    assert_eq!(doc, format!("{}\n", report.to_json()));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn unknown_experiment_exits_2_and_lists_the_known_ids() {
    let out = table_all(&["--experiment", "e99"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert!(out.stdout.is_empty());
    let stderr = String::from_utf8(out.stderr).expect("utf8");
    assert!(stderr.contains("unknown experiment 'e99'"), "{stderr}");
    let known = bci_bench::suite::suite_ids().join(", ");
    assert!(stderr.contains(&format!("(known: {known})")), "{stderr}");
}

#[test]
fn bad_arguments_exit_2_with_usage() {
    for (args, message) in [
        (vec!["--workers", "0"], "invalid worker count '0'"),
        (vec!["--workers"], "--workers needs a count"),
        (vec!["--sede", "5"], "unknown argument '--sede'"),
        (vec!["--json"], "--json needs a path"),
    ] {
        let out = table_all(&args);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {out:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a table");
        let stderr = String::from_utf8(out.stderr).expect("utf8");
        assert!(stderr.contains(message), "{args:?}: {stderr}");
        assert!(stderr.contains("usage: table_all"), "{args:?}: {stderr}");
    }
}
