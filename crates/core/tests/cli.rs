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
    // The whole output is pinned: the batched `exchange_many` lane is
    // identical per seed to the per-seed `exchange`, so no number moves.
    assert_eq!(
        String::from_utf8(out.stdout).expect("utf8"),
        "Lemma 7 sampling over |U| = 64, D(eta||nu) = 2.011 bits:\n\
         \x20 mean bits     = 8.12\n\
         \x20 Lemma 7 curve = 12.02\n\
         \x20 naive cost    = 6.0 (log2 |U|)\n\
         \x20 agreement     = 50/50\n"
    );
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
        (vec!["experiments", "run", "e2", "--qiuet"], "--qiuet"),
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
fn experiments_and_top_honour_the_global_flags() {
    // `--quiet` drops the run's stderr note and leaves the table alone.
    let normal = bci(&["experiments", "run", "e2", "--workers", "2"]);
    let quiet = bci(&["experiments", "run", "e2", "--workers", "2", "--quiet"]);
    let verbose = bci(&["experiments", "run", "e2", "--verbose", "--workers", "2"]);
    for out in [&normal, &quiet, &verbose] {
        assert!(out.status.success(), "{out:?}");
        assert_eq!(out.stdout, normal.stdout);
    }
    let note = String::from_utf8(normal.stderr).expect("utf8");
    assert!(
        note.starts_with("e2: ") && note.contains("worker(s)"),
        "{note}"
    );
    assert!(quiet.stderr.is_empty(), "{quiet:?}");
    assert!(bci(&["experiments", "list", "--quiet"]).status.success());
    // `stat` takes them too: nothing listens on port 1, so the scrape
    // fails, and `--verbose` names what it tried first.
    let quiet = bci(&["stat", "127.0.0.1:1", "--quiet"]);
    let verbose = bci(&["stat", "127.0.0.1:1", "--prom", "--verbose"]);
    for out in [&quiet, &verbose] {
        assert!(!out.status.success(), "{out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!stderr.contains("unknown stat flag"), "{stderr}");
    }
    let stderr = String::from_utf8_lossy(&verbose.stderr);
    assert!(
        stderr.starts_with("stat: scraping 127.0.0.1:1 (json false, prom true, events false)"),
        "{stderr}"
    );
    assert!(!String::from_utf8_lossy(&quiet.stderr).contains("stat: scraping"));
    // Both at once is an error here as everywhere.
    for args in [
        vec!["experiments", "run", "e2", "--quiet", "--verbose"],
        vec!["experiments", "list", "--quiet", "--verbose"],
        vec!["top", "127.0.0.1:1", "--quiet", "--verbose"],
        vec!["stat", "127.0.0.1:1", "--quiet", "--verbose"],
    ] {
        let out = bci(&args);
        assert!(!out.status.success(), "{args:?} should fail");
        let stderr = String::from_utf8(out.stderr).expect("utf8");
        assert!(stderr.contains("mutually exclusive"), "{args:?}: {stderr}");
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
        "--json",
        json_path,
    ]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8(out.stdout).expect("utf8");
    assert!(stdout.contains("mux"), "{stdout}");
    assert!(stdout.contains("transcript bits"), "{stdout}");
    assert!(stdout.contains("match"), "{stdout}");
    assert!(!stdout.contains("MISMATCH"), "{stdout}");
    let doc = std::fs::read_to_string(&json).expect("json written");
    assert!(doc.contains("\"schema\":\"bci.bench.v1\""), "{doc}");
    assert!(doc.contains("\"experiment\":\"load\""), "{doc}");
    assert!(doc.contains("\"mux\""), "{doc}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn load_and_serve_reject_unusable_limits() {
    // Zero / absurd heartbeat miss limits and frame caps must be refused
    // up front (NetConfig::validate), not discovered mid-run, and the
    // error must name the limit.
    let load = ["load", "--sessions", "2", "--players", "2"];
    let serve = ["serve", "--port", "0", "--players", "2"];
    for (base, limit, value, named) in [
        (&load, "--miss-limit", "0", "miss_limit"),
        (&load, "--miss-limit", "100000", "miss_limit"),
        (&load, "--max-frame-len", "3", "max_frame_len"),
        (&load, "--max-frame-len", "2000000000", "max_frame_len"),
        (&load, "--inflight", "0", "--inflight"),
        (&serve, "--miss-limit", "0", "miss_limit"),
        (&serve, "--max-frame-len", "1", "max_frame_len"),
        (&serve, "--inflight", "0", "--inflight"),
    ] {
        let mut args = base.to_vec();
        args.extend([limit, value]);
        let out = bci(&args);
        assert!(!out.status.success(), "{args:?} should be rejected");
        let stderr = String::from_utf8(out.stderr).expect("utf8");
        assert!(
            stderr.contains("error") && stderr.contains(named),
            "{args:?}: {stderr}"
        );
    }
    let out = bci(&["load", "--sessions", "0", "--players", "2"]);
    assert!(!out.status.success());
    let stderr = String::from_utf8(out.stderr).expect("utf8");
    assert!(stderr.contains("--sessions"), "{stderr}");
}

#[test]
fn removed_and_misspelled_fabric_options_are_rejected_by_name() {
    // `--transport` selected the deleted channel transport; like any
    // option a command does not read, it must fail loudly instead of
    // being ignored.
    for (args, bad) in [
        (
            vec!["fabric", "--sessions", "4", "--transport", "channel"],
            "--transport",
        ),
        (
            vec!["trace", "--sessions", "2", "--transport", "inprocess"],
            "--transport",
        ),
        (vec!["fabric", "--sesions", "4"], "--sesions"),
        (vec!["disj", "--n", "64", "--k", "4", "--sed", "2"], "--sed"),
        (
            vec!["union", "--n", "64", "--k", "4", "--densty", "0.3"],
            "--densty",
        ),
        (vec!["cic", "--k", "8", "--n", "4"], "--n"),
        (vec!["gap", "--kk", "8"], "--kk"),
        (
            vec![
                "sample",
                "--universe",
                "8",
                "--sharpness",
                "0.5",
                "--trails",
                "5",
            ],
            "--trails",
        ),
        (
            vec!["sparse", "--n", "256", "--s", "8", "--trails", "5"],
            "--trails",
        ),
        (
            vec!["amortize", "--k", "4", "--copies", "2", "--copys", "3"],
            "--copys",
        ),
        (vec!["top", "127.0.0.1:1", "--interval", "5"], "--interval"),
    ] {
        let out = bci(&args);
        assert!(!out.status.success(), "{args:?} should fail");
        assert!(out.stdout.is_empty(), "{args:?} printed a report");
        let stderr = String::from_utf8(out.stderr).expect("utf8");
        assert!(
            stderr.contains(&format!("unknown option '{bad}'")),
            "{args:?}: {stderr}"
        );
    }
}

#[test]
fn removed_and_unknown_network_options_are_rejected_by_name() {
    // The options of the deleted thread-per-connection coordinator must
    // fail loudly, not be ignored or swallow the next argument.
    for (args, bad) in [
        (
            vec!["serve", "--port", "0", "--players", "2", "--mux"],
            "--mux",
        ),
        (
            vec![
                "serve",
                "--admin-port",
                "7701",
                "--port",
                "0",
                "--players",
                "2",
            ],
            "--admin-port",
        ),
        (
            vec![
                "load",
                "--coordinator",
                "thread",
                "--sessions",
                "2",
                "--players",
                "2",
            ],
            "--coordinator",
        ),
        (
            vec!["load", "--sessions", "2", "--compare", "--players", "2"],
            "--compare",
        ),
        (
            vec![
                "join",
                "--addr",
                "127.0.0.1:1",
                "--player",
                "0",
                "--points",
                "8x2",
            ],
            "--points",
        ),
    ] {
        let out = bci(&args);
        assert!(!out.status.success(), "{args:?} should fail");
        assert!(out.stdout.is_empty(), "{args:?} printed a report");
        let stderr = String::from_utf8(out.stderr).expect("utf8");
        assert!(
            stderr.contains(&format!("unknown option '{bad}'")),
            "{args:?}: {stderr}"
        );
    }
    let out = bci(&["netrun", "--points", "64x4"]);
    assert!(!out.status.success());
    let stderr = String::from_utf8(out.stderr).expect("utf8");
    assert!(stderr.contains("unknown command 'netrun'"), "{stderr}");
}

#[test]
fn serve_and_two_joins_run_every_session_end_to_end() {
    use std::io::{BufRead, BufReader, Read};
    use std::process::{Child, Stdio};
    use std::time::{Duration, Instant};

    /// Waits for `child` to exit, killing it past `deadline`.
    fn wait(mut child: Child, deadline: Instant) -> std::process::Output {
        while child.try_wait().expect("poll child").is_none() {
            if Instant::now() >= deadline {
                child.kill().ok();
                break;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        child.wait_with_output().expect("collect output")
    }

    // Reserve a loopback port, then hand it to `bci serve`.
    let port = std::net::TcpListener::bind("127.0.0.1:0")
        .and_then(|l| l.local_addr())
        .expect("reserve a port")
        .port()
        .to_string();
    let spawn = |args: &[&str]| {
        Command::new(env!("CARGO_BIN_EXE_bci"))
            .args(args)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("binary runs")
    };
    let mut serve = spawn(&[
        "serve",
        "--port",
        &port,
        "--players",
        "2",
        "--n",
        "32",
        "--sessions",
        "3",
        "--roster-timeout-s",
        "20",
    ]);
    // Dial only once the listener is bound: serve says so on stderr. The
    // pipe stays open until serve exits, so its later lines can land.
    let mut serve_err = BufReader::new(serve.stderr.take().expect("piped stderr"));
    let mut bound = String::new();
    serve_err
        .read_line(&mut bound)
        .expect("read serve's first line");
    assert!(bound.contains("serving"), "serve: {bound}");
    let addr = format!("127.0.0.1:{port}");
    let joins: Vec<Child> = ["0", "1"]
        .iter()
        .map(|player| spawn(&["join", "--addr", &addr, "--player", player]))
        .collect();

    let deadline = Instant::now() + Duration::from_secs(60);
    for (player, join) in joins.into_iter().enumerate() {
        let out = wait(join, deadline);
        assert!(out.status.success(), "join {player}: {out:?}");
        let stdout = String::from_utf8(out.stdout).expect("utf8");
        assert!(
            stdout.contains(&format!("player {player}: 3 session(s) finished")),
            "join {player}: {stdout}"
        );
    }
    let out = wait(serve, deadline);
    let mut rest = String::new();
    serve_err.read_to_string(&mut rest).ok();
    assert!(out.status.success(), "serve: {out:?} {rest}");
    let stdout = String::from_utf8(out.stdout).expect("utf8");
    assert!(stdout.contains("transcript fold"), "{stdout}");
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
