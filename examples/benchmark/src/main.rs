//! One in-process benchmark of the workspace, end to end and per layer.
//!
//! ```text
//! benchmark [--workload suite|suite_pool|fabric_inproc|mux_serial|mux_window|all]
//!           [--seed N] [--seconds S] [--trace 0|1] [--out PATH] [--spans DIR]
//! ```
//!
//! With `--trace 0` (the default) the chosen workload runs untraced for
//! `--seconds` and the end-to-end metrics are printed; with `--trace 1`
//! every per-layer probe runs, then the workload's repetitions alternate
//! untraced and traced for the rest of `--seconds`, and the spans are
//! written as JSON lines under `--spans`. Every output is checked. A
//! table goes to stderr; the last line of stdout is the result as one
//! JSON object (one line per workload for `all`), and `--out` writes the
//! result with quartiles and sample counts. The exit code is 1 when any
//! output was wrong, 2 on a usage error. The program starts copies of
//! itself with `--first-result` to time set-up in fresh processes.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use bci_telemetry::{obj, Json};

mod probes;
mod spans;
mod stats;
mod workloads;

use probes::Metric;
use spans::Spans;
use stats::Summary;
use workloads::{Checks, Latencies, Rep, Workload, NAMES};

const USAGE: &str = "usage: benchmark [--workload NAME|all] [--seed N] [--seconds S] \
                     [--trace 0|1] [--out PATH] [--spans DIR]\n  workloads: suite, suite_pool, \
                     fabric_inproc, mux_serial, mux_window";

/// Fewest timed repetitions per run, however short `--seconds` is.
const MIN_REPS: usize = 3;

/// Fewest timed repetitions of a traced run, half of them traced; the
/// probes before them take most of `--seconds`.
const MIN_TRACED_REPS: usize = 4;

/// Fresh processes timed for an in-process workload's `setup_s` after
/// each repetition.
const SETUP_SPAWNS: usize = 4;

/// The flag a fresh process is started with to run up to its first
/// result and print it.
const FIRST_RESULT: &str = "--first-result";

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    out: Option<PathBuf>,
    spans: Option<PathBuf>,
    first_result: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: "all".to_owned(),
        seed: 1,
        seconds: 10,
        trace: false,
        out: None,
        spans: None,
        first_result: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == FIRST_RESULT {
            args.first_result = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = |v: &str| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag}: '{v}' is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = number(&value)?,
            "--seconds" => args.seconds = number(&value)?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not '{value}'")),
                }
            }
            "--out" => args.out = Some(PathBuf::from(value)),
            "--spans" => args.spans = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown argument '{flag}'")),
        }
    }
    if args.workload != "all" && !NAMES.contains(&args.workload.as_str()) {
        return Err(format!("unknown workload '{}'", args.workload));
    }
    if args.seconds == 0 {
        return Err("--seconds must be at least 1".to_owned());
    }
    if args.first_result && !workloads::in_process(&args.workload) {
        return Err(format!("{FIRST_RESULT} takes an in-process workload"));
    }
    Ok(args)
}

/// What one workload's run produced.
struct Outcome {
    workload: &'static str,
    checks: Checks,
    metrics: Vec<Metric>,
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("error: {e}\n{USAGE}");
        std::process::exit(2);
    });
    if args.first_result {
        print!("{}", workloads::first_result(&args.workload, args.seed));
        return;
    }
    let names: Vec<&'static str> = NAMES
        .into_iter()
        .filter(|&n| args.workload == "all" || args.workload == n)
        .collect();
    let mut docs = Vec::new();
    let mut correct = true;
    for name in names {
        let outcome = if args.trace {
            traced(name, &args)
        } else {
            untraced(name, &args)
        };
        print_table(&outcome, &args);
        println!("{}", result_line(&outcome));
        correct &= outcome.checks.failed == 0;
        docs.push(document(&outcome, &args));
    }
    if let Some(path) = &args.out {
        let doc = match docs.len() {
            1 => docs.pop().expect("one document"),
            _ => obj([("schema", Json::str(SCHEMA)), ("runs", Json::Arr(docs))]),
        };
        if let Err(e) = write_file(path, &format!("{doc}\n")) {
            eprintln!("error: writing {}: {e}", path.display());
            std::process::exit(1);
        }
    }
    if !correct {
        std::process::exit(1);
    }
}

/// Runs timed repetitions until `deadline` (at least `min_reps`);
/// repetition `i` records spans when `traced(i)`, and `after_rep` runs,
/// untimed, after each one.
fn timed_reps(
    workload: &mut dyn Workload,
    deadline: Instant,
    min_reps: usize,
    traced: impl Fn(usize) -> bool,
    mut after_rep: impl FnMut(&mut Checks),
    spans: &mut Spans,
    checks: &mut Checks,
) -> Vec<(bool, Rep)> {
    let mut reps = Vec::new();
    while reps.len() < min_reps || Instant::now() < deadline {
        let t = traced(reps.len());
        spans.set_enabled(t);
        reps.push((t, workload.rep(spans, checks)));
        after_rep(checks);
    }
    spans.set_enabled(false);
    reps
}

fn untraced(name: &'static str, args: &Args) -> Outcome {
    let mut checks = Checks::default();
    let mut spans = Spans::new(false);
    let mut workload = workloads::build(name, args.seed).expect("workload name was checked");
    workload.warm_up(&mut spans, &mut checks);
    // Set-up processes run between the repetitions, so their median sees
    // the whole run rather than one moment of it.
    let in_process = workloads::in_process(name);
    let first = in_process.then(|| workloads::first_result(name, args.seed));
    let mut spawned = Vec::new();
    let reps: Vec<Rep> = timed_reps(
        &mut *workload,
        Instant::now() + Duration::from_secs(args.seconds),
        MIN_REPS,
        |_| false,
        |checks| {
            if let Some(first) = &first {
                spawned.extend(spawned_setup_s(name, args.seed, first, checks));
            }
        },
        &mut spans,
        &mut checks,
    )
    .into_iter()
    .map(|(_, rep)| rep)
    .collect();
    Outcome {
        workload: name,
        metrics: end_to_end(&reps, in_process.then_some(spawned)),
        checks,
    }
}

/// `setup_s` samples of an in-process workload: the wall time, from spawn
/// to exit, of fresh processes that run up to the workload's first result
/// ([`workloads::first_result`]), which must equal `expected`. A one-shot
/// run pays this before its first result; in one long-lived process the
/// set-up part would be paid once and hidden.
fn spawned_setup_s(name: &str, seed: u64, expected: &str, checks: &mut Checks) -> Vec<f64> {
    let exe = std::env::current_exe().expect("the benchmark's own path");
    let seed = seed.to_string();
    (0..SETUP_SPAWNS)
        .filter_map(|_| {
            let began = Instant::now();
            let out = Command::new(&exe)
                .args(["--workload", name, "--seed", &seed, FIRST_RESULT])
                .stdin(Stdio::null())
                .output();
            let s = began.elapsed().as_secs_f64();
            let ok = matches!(&out, Ok(o) if o.status.success() && o.stdout == expected.as_bytes());
            checks.record(1, u64::from(!ok), || match &out {
                Ok(o) if o.status.success() => {
                    "setup: a fresh process's first result differs from this one's".to_owned()
                }
                _ => format!("setup: the fresh process failed: {out:?}"),
            });
            ok.then_some(s)
        })
        .collect()
}

/// Medians over repetitions, so a stall in one repetition moves no value.
/// Where repetitions run the same operations (the in-process workloads),
/// a latency percentile is taken over each operation's median latency;
/// the mux's turn histograms give one percentile per repetition.
fn end_to_end(reps: &[Rep], setup: Option<Vec<f64>>) -> Vec<Metric> {
    let reps: Vec<&Rep> = reps.iter().filter(|r| r.ops > 0).collect();
    let rates: Vec<f64> = reps.iter().map(|r| r.ops as f64 / r.wall_s).collect();
    let per_op = Latencies::per_op_medians(&reps.iter().map(|r| &r.latencies).collect::<Vec<_>>());
    let latency = |p: f64| -> Summary {
        let per_rep: Vec<f64> = reps.iter().map(|r| r.latencies.percentile(p)).collect();
        match &per_op {
            Some(ops) => Summary::with_value(stats::percentile(ops, p), &per_rep),
            None => Summary::of(&per_rep),
        }
    };
    let setup = setup.unwrap_or_else(|| reps.iter().filter_map(|r| r.setup_s).collect());
    vec![
        Metric::median("ops_per_s", "1/s", &rates),
        Metric {
            name: "latency_p50_us".to_owned(),
            unit: "us",
            summary: latency(50.0),
        },
        Metric {
            name: "latency_p99_us".to_owned(),
            unit: "us",
            summary: latency(99.0),
        },
        Metric::median("setup_s", "s", &setup),
    ]
}

/// The probes and the workload's repetitions share one `--seconds`
/// budget, so a traced run takes about as long as an untraced one
/// whenever the probes fit in it.
fn traced(name: &'static str, args: &Args) -> Outcome {
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let mut checks = Checks::default();
    let mut spans = Spans::new(false);
    let mut workload = workloads::build(name, args.seed).expect("workload name was checked");
    spans.set_enabled(true);
    let mut metrics = probes::run_all(args.seed, &mut spans, &mut checks);
    spans.set_enabled(false);
    // The warm-up follows the probes, so the first timed repetition finds
    // the caches as the others do.
    workload.warm_up(&mut spans, &mut checks);
    // Alternate untraced and traced repetitions so both see the same
    // machine; their medians give the tracing overhead.
    let reps = timed_reps(
        &mut *workload,
        deadline,
        MIN_TRACED_REPS,
        |i| i % 2 == 1,
        |_| {},
        &mut spans,
        &mut checks,
    );
    let walls = |traced: bool| -> Vec<f64> {
        reps.iter()
            .filter(|(t, r)| *t == traced && r.ops > 0)
            .map(|(_, r)| r.wall_s)
            .collect()
    };
    let base = Summary::of(&walls(false)).value;
    let overhead: Vec<f64> = walls(true)
        .iter()
        .map(|w| (w / base - 1.0) * 100.0)
        .collect();
    metrics.push(Metric {
        name: "trace_overhead_pct".to_owned(),
        unit: "%",
        summary: Summary::with_value(
            (Summary::of(&walls(true)).value / base - 1.0) * 100.0,
            &overhead,
        ),
    });

    let dir = args.spans.clone().unwrap_or_else(default_spans_dir);
    let path = dir.join(format!("spans-{name}-seed{}.jsonl", args.seed));
    match spans.write_jsonl(&path) {
        Ok(()) => eprintln!(
            "{name}: {} spans written to {}",
            spans.len(),
            path.display()
        ),
        Err(e) => checks.record(1, 1, || format!("spans: writing {}: {e}", path.display())),
    }
    Outcome {
        workload: name,
        metrics,
        checks,
    }
}

/// `$CARGO_TARGET_DIR/benchmark-spans`, or `target/benchmark-spans`.
fn default_spans_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("target"), PathBuf::from)
        .join("benchmark-spans")
}

const SCHEMA: &str = "bci.benchmark.v1";

/// Each metric's value and unit, and with `spread` its quartiles and
/// sample count.
fn metrics_json(o: &Outcome, spread: bool) -> Json {
    Json::Obj(
        o.metrics
            .iter()
            .map(|m| {
                let s = &m.summary;
                let mut v = vec![
                    ("value".to_owned(), Json::Num(s.value)),
                    ("unit".to_owned(), Json::str(m.unit)),
                ];
                if spread {
                    v.push(("q1".to_owned(), Json::Num(s.q1)));
                    v.push(("q3".to_owned(), Json::Num(s.q3)));
                    v.push(("n".to_owned(), Json::UInt(s.n as u64)));
                }
                (m.name.clone(), Json::Obj(v))
            })
            .collect(),
    )
}

/// The one-line result: whether every output was right, operations
/// attempted and failed, and each metric's value and unit.
fn result_line(o: &Outcome) -> Json {
    obj([
        ("correct", Json::Bool(o.checks.failed == 0)),
        ("attempted", Json::UInt(o.checks.attempted.max(1))),
        ("failed", Json::UInt(o.checks.failed)),
        ("metrics", metrics_json(o, false)),
    ])
}

/// The full result: every metric with its quartiles and sample count.
fn document(o: &Outcome, args: &Args) -> Json {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get() as u64);
    obj([
        ("schema", Json::str(SCHEMA)),
        ("workload", Json::str(o.workload)),
        ("seed", Json::UInt(args.seed)),
        ("seconds", Json::UInt(args.seconds)),
        ("trace", Json::UInt(u64::from(args.trace))),
        ("nproc", Json::UInt(nproc)),
        ("correct", Json::Bool(o.checks.failed == 0)),
        ("attempted", Json::UInt(o.checks.attempted)),
        ("failed", Json::UInt(o.checks.failed)),
        (
            "failures",
            Json::Arr(o.checks.failures.iter().map(Json::str).collect()),
        ),
        ("metrics", metrics_json(o, true)),
    ])
}

fn print_table(o: &Outcome, args: &Args) {
    eprintln!(
        "{} (seed {}, {} s, trace {}): {} attempted, {} failed",
        o.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        o.checks.attempted,
        o.checks.failed
    );
    for f in &o.checks.failures {
        eprintln!("  FAILED: {f}");
    }
    eprintln!(
        "  {:<32} {:>16} {:>16} {:>16} {:>4}  unit",
        "metric", "value", "q1", "q3", "n"
    );
    for m in &o.metrics {
        let s = &m.summary;
        eprintln!(
            "  {:<32} {:>16.6} {:>16.6} {:>16.6} {:>4}  {}",
            m.name, s.value, s.q1, s.q3, s.n, m.unit
        );
    }
}

fn write_file(path: &Path, text: &str) -> std::io::Result<()> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, text)
}
