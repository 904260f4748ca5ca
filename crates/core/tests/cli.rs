//! Integration tests of the `bci` CLI binary: every subcommand runs, prints
//! what it promises, and bad invocations fail with usage help.

use std::process::Command;

fn bci(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_bci"))
        .args(args)
        .output()
        .expect("binary runs")
}

#[test]
fn disj_subcommand_prints_all_three_protocols() {
    let out = bci(&["disj", "--n", "512", "--k", "8", "--seed", "3"]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8(out.stdout).expect("utf8");
    assert!(stdout.contains("naive"));
    assert!(stdout.contains("batched (Thm 2)"));
    assert!(stdout.contains("coordinate-wise AND"));
    assert!(stdout.contains("disjoint = true"));
}

#[test]
fn cic_subcommand_reports_the_ratio() {
    let out = bci(&["cic", "--k", "64"]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).expect("utf8");
    assert!(stdout.contains("CIC_mu(sequential AND_64)"));
    assert!(stdout.contains("CIC / log2(k)"));
}

#[test]
fn gap_subcommand_reports_both_sides() {
    let out = bci(&["gap", "--k", "256"]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).expect("utf8");
    assert!(stdout.contains("external information"));
    assert!(stdout.contains("communication bound"));
}

#[test]
fn sample_subcommand_respects_lemma7() {
    let out = bci(&[
        "sample",
        "--universe",
        "64",
        "--sharpness",
        "0.5",
        "--trials",
        "50",
    ]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).expect("utf8");
    assert!(stdout.contains("agreement     = 50/50"), "{stdout}");
}

#[test]
fn sparse_and_amortize_and_union_run() {
    for args in [
        vec!["sparse", "--n", "65536", "--s", "32", "--trials", "5"],
        vec!["amortize", "--k", "8", "--copies", "16", "--trials", "3"],
        vec!["union", "--n", "256", "--k", "4"],
    ] {
        let out = bci(&args);
        assert!(out.status.success(), "{args:?}: {out:?}");
    }
}

#[test]
fn help_prints_usage() {
    let out = bci(&["help"]);
    assert!(out.status.success());
    assert!(String::from_utf8(out.stdout)
        .expect("utf8")
        .contains("USAGE"));
}

#[test]
fn zero_workers_is_rejected_with_a_clear_error() {
    // `--workers 0` would deadlock a pool; both pooled entry points must
    // refuse it up front instead of hanging.
    for args in [
        vec!["fabric", "--sessions", "4", "--workers", "0"],
        vec!["experiments", "run", "e2", "--workers", "0"],
        vec!["trace", "--workers", "0"],
    ] {
        let out = bci(&args);
        assert!(!out.status.success(), "{args:?} should fail");
        let stderr = String::from_utf8(out.stderr).expect("utf8");
        assert!(
            stderr.contains("--workers") && stderr.contains("positive"),
            "{args:?}: {stderr}"
        );
    }
}

#[test]
fn experiments_run_rejects_unknown_options() {
    // A misspelled option must not fall back to the canonical seed or the
    // default worker count and exit 0.
    for (args, bad) in [
        (vec!["experiments", "run", "e2", "--sede", "5"], "--sede"),
        (
            vec!["experiments", "run", "e2", "--wrokers", "4"],
            "--wrokers",
        ),
        (
            vec!["experiments", "run", "e2", "--workers", "2", "--quiet"],
            "--quiet",
        ),
    ] {
        let out = bci(&args);
        assert!(!out.status.success(), "{args:?} should fail");
        assert!(out.stdout.is_empty(), "{args:?} printed a table");
        let stderr = String::from_utf8(out.stderr).expect("utf8");
        assert!(
            stderr.contains(&format!("unknown option '{bad}'")),
            "{args:?}: {stderr}"
        );
    }
    let out = bci(&["experiments", "run", "e2", "--workers", "2", "--seed", "5"]);
    assert!(out.status.success(), "{out:?}");
}

#[test]
fn netrun_verifies_transcripts_and_writes_bench_json() {
    let dir = std::env::temp_dir().join(format!("bci-netrun-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let json = dir.join("netrun.json");
    let json_path = json.to_str().expect("utf8 path");
    let out = bci(&[
        "netrun",
        "--points",
        "64x3,96x4",
        "--sessions",
        "2",
        "--seed",
        "9",
        "--json",
        json_path,
    ]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8(out.stdout).expect("utf8");
    assert!(stdout.contains("overhead x"), "{stdout}");
    assert!(stdout.contains("match"), "{stdout}");
    assert!(!stdout.contains("MISMATCH"), "{stdout}");
    let doc = std::fs::read_to_string(&json).expect("json written");
    assert!(doc.contains("\"schema\":\"bci.bench.v1\""), "{doc}");
    assert!(doc.contains("\"experiment\":\"netrun\""), "{doc}");
    assert!(doc.contains("transcript bits"), "{doc}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn netrun_rejects_bad_point_specs() {
    for bad in ["64", "64x0", "0x4", "64xfour", "64x4,,"] {
        let out = bci(&["netrun", "--points", bad]);
        assert!(!out.status.success(), "--points {bad} should fail");
    }
}

#[test]
fn load_runs_the_mux_harness_and_writes_bench_json() {
    let dir = std::env::temp_dir().join(format!("bci-load-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let json = dir.join("load.json");
    let json_path = json.to_str().expect("utf8 path");
    let out = bci(&[
        "load",
        "--sessions",
        "60",
        "--players",
        "3",
        "--n",
        "48",
        "--seed",
        "4",
        "--compare",
        "--json",
        json_path,
    ]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8(out.stdout).expect("utf8");
    assert!(stdout.contains("mux"), "{stdout}");
    assert!(stdout.contains("thread-per-conn"), "{stdout}");
    assert!(stdout.contains("match"), "{stdout}");
    assert!(!stdout.contains("MISMATCH"), "{stdout}");
    let doc = std::fs::read_to_string(&json).expect("json written");
    assert!(doc.contains("\"schema\":\"bci.bench.v1\""), "{doc}");
    assert!(doc.contains("\"experiment\":\"load\""), "{doc}");
    assert!(doc.contains("\"mux\""), "{doc}");
    assert!(doc.contains("\"thread-per-conn\""), "{doc}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn load_and_serve_reject_unusable_limits() {
    // Zero / absurd heartbeat miss limits and frame caps must be refused
    // up front (NetConfig::validate), not discovered mid-run.
    for bad in [
        vec![
            "load",
            "--sessions",
            "2",
            "--players",
            "2",
            "--miss-limit",
            "0",
        ],
        vec![
            "load",
            "--sessions",
            "2",
            "--players",
            "2",
            "--miss-limit",
            "100000",
        ],
        vec![
            "load",
            "--sessions",
            "2",
            "--players",
            "2",
            "--max-frame-len",
            "3",
        ],
        vec![
            "load",
            "--sessions",
            "2",
            "--players",
            "2",
            "--max-frame-len",
            "2000000000",
        ],
        vec![
            "load",
            "--sessions",
            "2",
            "--players",
            "2",
            "--inflight",
            "0",
        ],
        vec!["load", "--sessions", "0", "--players", "2"],
        vec![
            "serve",
            "--port",
            "0",
            "--players",
            "2",
            "--mux",
            "--miss-limit",
            "0",
        ],
        vec![
            "serve",
            "--port",
            "0",
            "--players",
            "2",
            "--mux",
            "--max-frame-len",
            "1",
        ],
        vec![
            "serve",
            "--port",
            "0",
            "--players",
            "2",
            "--mux",
            "--inflight",
            "0",
        ],
    ] {
        let out = bci(&bad);
        assert!(!out.status.success(), "{bad:?} should be rejected");
        let stderr = String::from_utf8(out.stderr).expect("utf8");
        assert!(stderr.contains("error"), "{bad:?}: {stderr}");
    }
}

#[test]
fn load_coordinator_flag_is_validated() {
    let out = bci(&[
        "load",
        "--sessions",
        "2",
        "--players",
        "2",
        "--coordinator",
        "carrier-pigeon",
    ]);
    assert!(!out.status.success());
    let stderr = String::from_utf8(out.stderr).expect("utf8");
    assert!(stderr.contains("unknown coordinator"), "{stderr}");
}

#[test]
fn bad_invocations_fail_with_usage() {
    for args in [
        vec![],                                    // no command
        vec!["frobnicate"],                        // unknown command
        vec!["disj"],                              // missing required options
        vec!["disj", "--n", "banana", "--k", "4"], // unparsable value
        vec!["disj", "--n"],                       // dangling option
    ] {
        let out = bci(&args);
        assert!(!out.status.success(), "{args:?} should fail");
        let stderr = String::from_utf8(out.stderr).expect("utf8");
        assert!(stderr.contains("USAGE"), "{args:?}: {stderr}");
    }
}
