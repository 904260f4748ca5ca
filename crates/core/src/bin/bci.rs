//! `bci` — command-line front end to the broadcast-ic library.
//!
//! ```text
//! bci disj   --n 4096 --k 16 [--workload planted|random|intersect] [--density 0.5] [--seed 1]
//! bci union  --n 4096 --k 16 [--density 0.5] [--seed 1]
//! bci cic    --k 64
//! bci gap    --k 1024
//! bci sample --universe 256 --sharpness 0.5 --trials 200 [--seed 1]
//! bci sparse --n 1048576 --s 128 --trials 20 [--seed 1]
//! bci amortize --k 16 --copies 256 --trials 10 [--seed 1]
//! bci fabric --sessions 1024 --workers 4 --seed 1 [--protocol disj|and] [--n 256] [--k 4]
//! bci trace  --engine fabric|serial [--sessions 8] [--out events.jsonl]
//! bci serve  --port 7701 --players 4 [--protocol disj] [--n 256] [--sessions 1] [--seed 1]
//! bci join   --addr 127.0.0.1:7701 --player 0 [--protocol disj]
//! bci load   --sessions 10000 --players 3 [--inflight 1024] [--json BENCH_net.json]
//! bci stat   127.0.0.1:7701 [--json|--prom|--events]
//! bci top    127.0.0.1:7701 [--interval-ms 1000] [--iters 10]
//! bci experiments list
//! bci experiments run e7 [--workers 4] [--seed 5]
//! ```

use std::collections::HashMap;
use std::process::ExitCode;

use bci_blackboard::runner::monte_carlo_seeded_traced;
use bci_compression::amortized::compress_nfold;
use bci_compression::gap::and_gap;
use bci_compression::sampling::{exchange, lemma7_bound, SamplerConfig};
use bci_core::table::{f, Table};
use bci_fabric::driver::{monte_carlo_fabric, FabricReport};
use bci_fabric::scheduler::SchedulerConfig;
use bci_fabric::session::{FaultKind, FaultPlan, FaultSpec, SessionSelector};
use bci_fabric::transport::InProcessTransport;
use bci_info::divergence::kl;
use bci_lowerbound::cic::cic_hard;
use bci_lowerbound::hard_dist::HardDist;
use bci_protocols::and::{and_function, SequentialAnd};
use bci_protocols::and_trees::sequential_and;
use bci_protocols::disj::broadcast::BroadcastDisj;
use bci_protocols::disj::{batched, coordinatewise, disj_function, naive};
use bci_protocols::{sparse, union, workload};
use bci_telemetry::Recorder;
use rand::{Rng, RngCore, SeedableRng};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        Diag::default().error(USAGE);
        return ExitCode::FAILURE;
    };
    if cmd == "experiments" {
        // Takes positional subcommands (`list`, `run <id>`), so it parses
        // its own argument tail instead of going through `parse_opts`.
        return match cmd_experiments(&args[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                Diag::default().error(&format!("error: {e}\n\n{USAGE}"));
                ExitCode::FAILURE
            }
        };
    }
    if cmd == "stat" || cmd == "top" {
        // The address is a positional operand and `--json` is a boolean
        // here (it is a value option everywhere else), so these parse
        // their own argument tails too.
        let result = if cmd == "stat" {
            cmd_stat(&args[1..])
        } else {
            cmd_top(&args[1..])
        };
        return match result {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                Diag::default().error(&format!("error: {e}\n\n{USAGE}"));
                ExitCode::FAILURE
            }
        };
    }
    let opts = match parse_opts(&args[1..], known_options(cmd)) {
        Ok(o) => o,
        Err(e) => {
            Diag::default().error(&format!("error: {e}\n\n{USAGE}"));
            return ExitCode::FAILURE;
        }
    };
    let diag = match Diag::from_opts(&opts) {
        Ok(d) => d,
        Err(e) => {
            Diag::default().error(&format!("error: {e}\n\n{USAGE}"));
            return ExitCode::FAILURE;
        }
    };
    let result = match cmd.as_str() {
        "disj" => cmd_disj(&opts),
        "union" => cmd_union(&opts),
        "cic" => cmd_cic(&opts),
        "gap" => cmd_gap(&opts),
        "sample" => cmd_sample(&opts),
        "sparse" => cmd_sparse(&opts),
        "amortize" => cmd_amortize(&opts),
        "fabric" => cmd_fabric(&opts, &diag),
        "trace" => cmd_trace(&opts, &diag),
        "serve" => cmd_serve(&opts, &diag),
        "join" => cmd_join(&opts, &diag),
        "load" => cmd_load(&opts, &diag),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command '{other}'")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            diag.error(&format!("error: {e}\n\n{USAGE}"));
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "bci — protocols and information costs in the broadcast model

USAGE:
  bci disj     --n <N> --k <K> [--workload planted|random|intersect] [--density D] [--seed S]
  bci union    --n <N> --k <K> [--density D] [--seed S]
  bci cic      --k <K>
  bci gap      --k <K>
  bci sample   --universe <U> --sharpness <P> [--trials T] [--seed S]
  bci sparse   --n <N> --s <S> [--trials T] [--seed S]
  bci amortize --k <K> --copies <N> [--trials T] [--seed S]
  bci fabric   --sessions <N> --workers <W> [--protocol disj|and] [--n N] [--k K] [--seed S]
               [--density D] [--deadline-ms MS] [--batch B] [--queue Q]
               [--fault none|slow|crash|drop] [--fault-player P] [--fault-every N] [--slow-ms MS]
               [--trace PATH]
  bci trace    [--engine fabric|serial] [--sessions N] [--n N] [--k K] [--seed S] [--workers W]
               [--out PATH]
  bci serve    --port <P> --players <K> [--protocol disj] [--n N] [--sessions N] [--seed S]
               [--density D] [--deadline-ms MS] [--roster-timeout-s SECS]
               [--inflight M] [--max-frame-len B] [--miss-limit N] [--max-steps T]
               [--flight N] [--admin-linger-ms MS]
  bci join     --addr <HOST:PORT> --player <I> [--protocol disj] [--seed S]
  bci load     --sessions <M> --players <K> [--n N] [--density D] [--seed S]
               [--deadline-ms MS] [--inflight M] [--addr HOST:PORT] [--json PATH]
               [--no-verify] [--scrape-ms MS] [--max-frame-len B] [--miss-limit N]
               [--max-steps T]
  bci stat     <HOST:PORT> [--json|--prom|--events]
  bci top      <HOST:PORT> [--interval-ms MS] [--iters K]
  bci experiments list
  bci experiments run <id> [--workers W] [--seed S] [--topology blackboard|star|p2p]

GLOBAL FLAGS:
  --quiet      suppress informational diagnostics on stderr
  --verbose    add debug diagnostics on stderr

REPORTS:
  bci fabric --trace PATH writes the run's telemetry event stream as JSON lines;
  bci trace dumps the event stream of one run to stdout (or --out PATH).
  bci load --json PATH writes a bci.bench.v1 throughput and wire-overhead report.
  table_all [--experiment <id>] --json PATH writes the experiment reports as JSON.

NETWORK:
  bci serve binds the coordinator: it owns the blackboard, samples the inputs
  from --seed, and sequences sessions over TCP, one reactor thread running up
  to --inflight concurrent sessions over the k player connections. bci join
  connects one player client. bci load drives M sessions x K synthetic players
  against the coordinator (an in-process one, or a remote bci serve via --addr),
  reports sessions/sec, turn-latency percentiles, wire bytes against transcript
  bits, verifies transcripts against an in-process replay of the same seeds,
  and with --json writes a bci.bench.v1 report. --scrape-ms re-runs the
  workload with a live admin scraper attached and records the overhead in the
  report's meta. --max-steps caps turns per session (the runaway guard): a
  protocol that has not halted by then is aborted. fabric, trace, serve, join
  and load reject any option they do not read.

OBSERVABILITY:
  The coordinator answers read-only admin Stats frames inline on its own
  listener. bci stat scrapes one snapshot and prints JSON (--json, default),
  Prometheus text exposition (--prom), or the flight-recorder ring as JSON
  lines (--events).
  bci top refreshes a delta-aware sessions/sec + latency-percentile view every
  --interval-ms. bci serve --admin-linger-ms keeps answering scrapes that long
  after the run so one-shot stats can collect the final numbers; --flight N
  sizes the in-memory flight-recorder ring (0 disables it).";

/// Option keys that are boolean flags: present means on, they take no value.
const FLAGS: [&str; 3] = ["quiet", "verbose", "no-verify"];

/// The options a command reads, for the commands that reject all others:
/// a stale or misspelled option then fails by name instead of being
/// ignored, or swallowing the next argument as its value. `--quiet` and
/// `--verbose` are accepted everywhere.
fn known_options(cmd: &str) -> Option<(&str, &'static [&'static str])> {
    let known: &'static [&'static str] = match cmd {
        "fabric" => &[
            "sessions",
            "workers",
            "seed",
            "protocol",
            "n",
            "k",
            "density",
            "deadline-ms",
            "batch",
            "queue",
            "fault",
            "fault-player",
            "fault-every",
            "slow-ms",
            "trace",
        ],
        "trace" => &["engine", "sessions", "n", "k", "seed", "workers", "out"],
        "serve" => &[
            "port",
            "players",
            "protocol",
            "n",
            "sessions",
            "seed",
            "density",
            "deadline-ms",
            "roster-timeout-s",
            "inflight",
            "max-frame-len",
            "miss-limit",
            "max-steps",
            "flight",
            "admin-linger-ms",
        ],
        "join" => &["addr", "player", "protocol", "seed"],
        "load" => &[
            "sessions",
            "players",
            "n",
            "density",
            "seed",
            "deadline-ms",
            "inflight",
            "addr",
            "json",
            "no-verify",
            "scrape-ms",
            "max-frame-len",
            "miss-limit",
            "max-steps",
        ],
        _ => return None,
    };
    Some((cmd, known))
}

/// Parses `--key value` pairs and [`FLAGS`]. With `known` set, any option
/// outside it (or `--quiet` / `--verbose`) is an error naming it.
fn parse_opts(
    args: &[String],
    known: Option<(&str, &[&str])>,
) -> Result<HashMap<String, String>, String> {
    let mut map = HashMap::new();
    let mut it = args.iter();
    while let Some(key) = it.next() {
        let key = key
            .strip_prefix("--")
            .ok_or_else(|| format!("expected --option, got '{key}'"))?;
        if let Some((cmd, known)) = known {
            if !known.contains(&key) && key != "quiet" && key != "verbose" {
                return Err(format!("{cmd}: unknown option '--{key}'"));
            }
        }
        if FLAGS.contains(&key) {
            map.insert(key.to_owned(), "true".to_owned());
            continue;
        }
        let value = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
        map.insert(key.to_owned(), value.clone());
    }
    Ok(map)
}

/// Diagnostic verbosity, controlled by `--quiet` / `--verbose`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
enum Verbosity {
    Quiet,
    #[default]
    Normal,
    Verbose,
}

/// The single funnel for stderr diagnostics: errors always print,
/// informational notes respect `--quiet`, debug detail needs `--verbose`.
#[derive(Debug, Default)]
struct Diag {
    level: Verbosity,
}

impl Diag {
    fn from_opts(opts: &HashMap<String, String>) -> Result<Self, String> {
        let quiet = opts.contains_key("quiet");
        let verbose = opts.contains_key("verbose");
        if quiet && verbose {
            return Err("--quiet and --verbose are mutually exclusive".into());
        }
        let level = if quiet {
            Verbosity::Quiet
        } else if verbose {
            Verbosity::Verbose
        } else {
            Verbosity::Normal
        };
        Ok(Diag { level })
    }

    /// Unconditional: errors and usage always reach stderr.
    fn error(&self, msg: &str) {
        eprintln!("{msg}");
    }

    /// Informational progress notes; suppressed by `--quiet`.
    fn info(&self, msg: &str) {
        if self.level != Verbosity::Quiet {
            eprintln!("{msg}");
        }
    }

    /// Debug detail; printed only with `--verbose`.
    fn debug(&self, msg: &str) {
        if self.level == Verbosity::Verbose {
            eprintln!("{msg}");
        }
    }
}

fn get<T: std::str::FromStr>(
    opts: &HashMap<String, String>,
    key: &str,
    default: Option<T>,
) -> Result<T, String> {
    match opts.get(key) {
        Some(v) => v
            .parse()
            .map_err(|_| format!("--{key}: cannot parse '{v}'")),
        None => default.ok_or_else(|| format!("--{key} is required")),
    }
}

fn rng_from(opts: &HashMap<String, String>) -> Result<rand_chacha::ChaCha8Rng, String> {
    Ok(rand_chacha::ChaCha8Rng::seed_from_u64(get(
        opts,
        "seed",
        Some(1u64),
    )?))
}

fn cmd_disj(opts: &HashMap<String, String>) -> Result<(), String> {
    let n: usize = get(opts, "n", None)?;
    let k: usize = get(opts, "k", None)?;
    let density: f64 = get(opts, "density", Some(0.5))?;
    let workload_name = opts.get("workload").map_or("planted", String::as_str);
    let mut rng = rng_from(opts)?;
    let inputs = match workload_name {
        "planted" => workload::planted_zero_cover(n, k, 0.0, &mut rng),
        "random" => workload::random_sets(n, k, density, &mut rng),
        "intersect" => workload::planted_intersection(n, k, 1, density, &mut rng),
        other => return Err(format!("unknown workload '{other}'")),
    };
    let expect = disj_function(&inputs);
    println!("DISJ_{{n={n}, k={k}}} ({workload_name}): disjoint = {expect}\n");
    let mut t = Table::new(["protocol", "bits", "cycles", "bits/n"]);
    let nv = naive::run(&inputs);
    t.row([
        "naive".to_owned(),
        nv.bits.to_string(),
        nv.cycles.to_string(),
        f(nv.bits as f64 / n.max(1) as f64, 2),
    ]);
    let bt = if n <= 8192 {
        batched::run(&inputs)
    } else {
        batched::cost(&inputs)
    };
    t.row([
        "batched (Thm 2)".to_owned(),
        bt.bits.to_string(),
        bt.cycles.to_string(),
        f(bt.bits as f64 / n.max(1) as f64, 2),
    ]);
    let cw = coordinatewise::run(&inputs);
    t.row([
        "coordinate-wise AND".to_owned(),
        cw.bits.to_string(),
        cw.cycles.to_string(),
        f(cw.bits as f64 / n.max(1) as f64, 2),
    ]);
    assert_eq!(nv.output, expect);
    assert_eq!(bt.output, expect);
    assert_eq!(cw.output, expect);
    println!("{}", t.render());
    Ok(())
}

fn cmd_union(opts: &HashMap<String, String>) -> Result<(), String> {
    let n: usize = get(opts, "n", None)?;
    let k: usize = get(opts, "k", None)?;
    let density: f64 = get(opts, "density", Some(0.5))?;
    let mut rng = rng_from(opts)?;
    let inputs = workload::random_sets(n, k, density, &mut rng);
    let u = union::union_function(&inputs);
    println!("UNION_{{n={n}, k={k}}}: |union| = {}\n", u.len());
    let nv = union::naive::run(&inputs);
    let bt = union::batched::run(&inputs);
    let mut t = Table::new(["protocol", "bits", "bits/member"]);
    t.row([
        "naive".to_owned(),
        nv.bits.to_string(),
        f(nv.bits as f64 / u.len().max(1) as f64, 2),
    ]);
    t.row([
        "batched".to_owned(),
        bt.bits.to_string(),
        f(bt.bits as f64 / u.len().max(1) as f64, 2),
    ]);
    println!("{}", t.render());
    Ok(())
}

fn cmd_cic(opts: &HashMap<String, String>) -> Result<(), String> {
    let k: usize = get(opts, "k", None)?;
    if k < 2 {
        return Err("--k must be at least 2".into());
    }
    let cic = cic_hard(&sequential_and(k), &HardDist::new(k));
    println!("CIC_mu(sequential AND_{k}) = {cic:.4} bits");
    println!(
        "CIC / log2(k)              = {:.4}",
        cic / (k as f64).log2()
    );
    println!("worst-case communication   = {k} bits");
    Ok(())
}

fn cmd_gap(opts: &HashMap<String, String>) -> Result<(), String> {
    let k: usize = get(opts, "k", None)?;
    let rep = and_gap(k, 0.05, 0.1);
    println!("AND_{k}: information vs communication (eps=0.05, eps'=0.1)");
    println!("  external information : {:.3} bits", rep.ic_bits);
    println!("  communication bound  : {:.1} bits", rep.cc_lower_bound);
    println!(
        "  gap                  : {:.2}  (k/log2 k = {:.2})",
        rep.ratio(),
        k as f64 / (k as f64).log2()
    );
    Ok(())
}

fn cmd_sample(opts: &HashMap<String, String>) -> Result<(), String> {
    let u: usize = get(opts, "universe", None)?;
    let sharp: f64 = get(opts, "sharpness", None)?;
    let trials: u64 = get(opts, "trials", Some(200u64))?;
    let seed: u64 = get(opts, "seed", Some(1u64))?;
    if u < 2 || !(0.0..1.0).contains(&sharp) {
        return Err("need --universe ≥ 2 and --sharpness in [0,1)".into());
    }
    let rest = (1.0 - sharp) / (u as f64 - 1.0);
    let mut probs = vec![rest; u];
    probs[0] = sharp;
    let eta = bci_info::dist::Dist::new(probs).map_err(|e| e.to_string())?;
    let nu = bci_info::dist::Dist::uniform(u);
    let d = kl(&eta, &nu);
    let config = SamplerConfig::default();
    let mut bits = 0usize;
    let mut agreed = 0u64;
    for t in 0..trials {
        let e = exchange(&eta, &nu, &config, seed.wrapping_add(t * 104_729));
        bits += e.bits;
        agreed += u64::from(e.agreed());
    }
    println!("Lemma 7 sampling over |U| = {u}, D(eta||nu) = {d:.3} bits:");
    println!("  mean bits     = {:.2}", bits as f64 / trials as f64);
    println!("  Lemma 7 curve = {:.2}", lemma7_bound(d));
    println!("  naive cost    = {:.1} (log2 |U|)", (u as f64).log2());
    println!("  agreement     = {}/{trials}", agreed);
    Ok(())
}

fn cmd_sparse(opts: &HashMap<String, String>) -> Result<(), String> {
    let n: usize = get(opts, "n", None)?;
    let s: usize = get(opts, "s", None)?;
    let trials: u64 = get(opts, "trials", Some(20u64))?;
    if 2 * s > n {
        return Err("need 2s ≤ n".into());
    }
    let mut rng = rng_from(opts)?;
    let mut bits = 0.0;
    for _ in 0..trials {
        let mut x = bci_encoding::bitset::BitSet::new(n);
        let mut y = bci_encoding::bitset::BitSet::new(n);
        while x.len() < s {
            x.insert(rng.random_range(0..n));
        }
        while y.len() < s {
            let e = rng.random_range(0..n);
            if !x.contains(e) {
                y.insert(e);
            }
        }
        let out = sparse::run(&x, &y, &mut rng);
        bits += out.bits;
    }
    println!("Hastad-Wigderson sparse disjointness, |X| = |Y| = {s}, n = {n}:");
    println!(
        "  mean bits = {:.1}  ({:.2} per element)",
        bits / trials as f64,
        bits / trials as f64 / s as f64
    );
    println!(
        "  naive     = {:.0}  (send the set)",
        sparse::naive_bits(n, s)
    );
    Ok(())
}

fn cmd_amortize(opts: &HashMap<String, String>) -> Result<(), String> {
    let k: usize = get(opts, "k", None)?;
    let copies: usize = get(opts, "copies", None)?;
    let trials: usize = get(opts, "trials", Some(10usize))?;
    if k < 1 || copies < 1 {
        return Err("need --k ≥ 1 and --copies ≥ 1".into());
    }
    let mut rng = rng_from(opts)?;
    let tree = sequential_and(k);
    let priors = vec![1.0 - 1.0 / k as f64; k];
    let rep = compress_nfold(&tree, &priors, copies, trials, &mut rng);
    println!("Theorem 3: {copies} parallel copies of sequential AND_{k}:");
    println!("  per-copy raw        = {:.2} bits", rep.per_copy_raw());
    println!(
        "  per-copy compressed = {:.2} bits",
        rep.per_copy_compressed()
    );
    println!("  information cost    = {:.2} bits", rep.ic_per_copy);
    Ok(())
}

fn cmd_fabric(opts: &HashMap<String, String>, diag: &Diag) -> Result<(), String> {
    use std::time::Duration;

    let sessions: u64 = get(opts, "sessions", Some(1024u64))?;
    let workers: usize = get(opts, "workers", Some(4usize))?;
    let seed: u64 = get(opts, "seed", Some(1u64))?;
    let n: usize = get(opts, "n", Some(256usize))?;
    let k: usize = get(opts, "k", Some(4usize))?;
    let density: f64 = get(opts, "density", Some(0.7))?;
    let deadline_ms: u64 = get(opts, "deadline-ms", Some(5000u64))?;
    let batch: usize = get(opts, "batch", Some(32usize))?;
    let queue: usize = get(opts, "queue", Some(8usize))?;
    let protocol_name = opts.get("protocol").map_or("disj", String::as_str);
    let fault_name = opts.get("fault").map_or("none", String::as_str);
    let fault_player: usize = get(opts, "fault-player", Some(0usize))?;
    let fault_every: u64 = get(opts, "fault-every", Some(10u64))?;
    let slow_ms: u64 = get(opts, "slow-ms", Some(10u64))?;
    if workers == 0 || batch == 0 || queue == 0 {
        return Err("--workers, --batch, and --queue must be positive".into());
    }
    if k == 0 {
        return Err("--k must be positive".into());
    }
    if fault_name != "none" && fault_player >= k {
        return Err(format!(
            "--fault-player {fault_player} out of range for k = {k}"
        ));
    }

    let trace_path = opts.get("trace").cloned();
    let recorder = if trace_path.is_some() {
        Recorder::new()
    } else {
        Recorder::disabled()
    };
    let config = SchedulerConfig {
        workers,
        batch_size: batch,
        queue_capacity: queue,
        deadline: Some(Duration::from_millis(deadline_ms)),
        keep_transcripts: false,
        recorder: recorder.clone(),
    };
    let selector = SessionSelector::EveryNth(fault_every);
    let plan = match fault_name {
        "none" => FaultPlan::new(),
        "slow" => FaultPlan::new().with(FaultSpec {
            kind: FaultKind::SlowPlayer(Duration::from_millis(slow_ms)),
            player: fault_player,
            sessions: selector,
        }),
        "crash" => FaultPlan::new().with(FaultSpec {
            kind: FaultKind::CrashedPlayer,
            player: fault_player,
            sessions: selector,
        }),
        "drop" => FaultPlan::new().with(FaultSpec {
            kind: FaultKind::DroppedWakeup,
            player: fault_player,
            sessions: selector,
        }),
        other => return Err(format!("unknown fault '{other}'")),
    };

    println!(
        "fabric: {sessions} sessions of {protocol_name} (n={n}, k={k}) on {workers} workers, \
         seed {seed}, fault {fault_name}\n"
    );
    match protocol_name {
        "disj" => {
            let proto = BroadcastDisj::new(n, k);
            let sample = move |rng: &mut dyn RngCore| workload::random_sets(n, k, density, rng);
            let report = monte_carlo_fabric(
                &InProcessTransport,
                &proto,
                &sample,
                &|inputs: &[_]| disj_function(inputs),
                sessions,
                seed,
                &plan,
                &config,
            );
            print_fabric_report(&report, &recorder);
        }
        "and" => {
            let proto = SequentialAnd::new(k);
            let sample = move |rng: &mut dyn RngCore| -> Vec<bool> {
                (0..k).map(|_| rng.random_bool(0.9)).collect()
            };
            let report = monte_carlo_fabric(
                &InProcessTransport,
                &proto,
                &sample,
                &|inputs: &[bool]| and_function(inputs),
                sessions,
                seed,
                &plan,
                &config,
            );
            print_fabric_report(&report, &recorder);
        }
        other => return Err(format!("unknown protocol '{other}'")),
    }
    if let Some(path) = trace_path {
        let events = recorder.events();
        diag.debug(&format!("captured {} telemetry events", events.len()));
        std::fs::write(&path, recorder.events_jsonl())
            .map_err(|e| format!("cannot write trace to '{path}': {e}"))?;
        diag.info(&format!("wrote {} events to {path}", events.len()));
    }
    Ok(())
}

/// `bci trace` — run one workload with event recording on and dump the
/// JSON-lines event stream to stdout (or `--out PATH`).
fn cmd_trace(opts: &HashMap<String, String>, diag: &Diag) -> Result<(), String> {
    use std::time::Duration;

    let engine = opts.get("engine").map_or("fabric", String::as_str);
    let sessions: u64 = get(opts, "sessions", Some(8u64))?;
    let n: usize = get(opts, "n", Some(64usize))?;
    let k: usize = get(opts, "k", Some(4usize))?;
    let seed: u64 = get(opts, "seed", Some(1u64))?;
    let workers: usize = get(opts, "workers", Some(2usize))?;
    if workers == 0 || k == 0 {
        return Err("--workers and --k must be positive".into());
    }

    let recorder = Recorder::new();
    let proto = BroadcastDisj::new(n, k);
    let sample = move |rng: &mut dyn RngCore| workload::random_sets(n, k, 0.7, rng);
    match engine {
        "fabric" => {
            let config = SchedulerConfig {
                workers,
                deadline: Some(Duration::from_millis(5000)),
                recorder: recorder.clone(),
                ..SchedulerConfig::default()
            };
            monte_carlo_fabric(
                &InProcessTransport,
                &proto,
                &sample,
                &|inputs: &[_]| disj_function(inputs),
                sessions,
                seed,
                &FaultPlan::new(),
                &config,
            );
        }
        "serial" => {
            monte_carlo_seeded_traced::<_, _, _, rand_chacha::ChaCha8Rng>(
                &proto,
                sample,
                |inputs: &[_]| disj_function(inputs),
                sessions,
                seed,
                &recorder,
            );
        }
        other => return Err(format!("unknown engine '{other}'")),
    }

    let events = recorder.events();
    diag.info(&format!(
        "trace: {engine} engine, {sessions} sessions of disj (n={n}, k={k}), {} events",
        events.len()
    ));
    let snap = recorder.snapshot();
    diag.debug(&format!("telemetry snapshot: {}", snap.to_json()));
    let jsonl = recorder.events_jsonl();
    match opts.get("out") {
        Some(path) => {
            std::fs::write(path, &jsonl)
                .map_err(|e| format!("cannot write trace to '{path}': {e}"))?;
            diag.info(&format!("wrote {} events to {path}", events.len()));
        }
        None => print!("{jsonl}"),
    }
    Ok(())
}

/// Builds a [`bci_net::NetConfig`] from the shared `--max-frame-len` /
/// `--miss-limit` / `--max-steps` overrides and rejects unusable values
/// via [`bci_net::NetConfig::validate`].
fn net_config_from(opts: &HashMap<String, String>) -> Result<bci_net::NetConfig, String> {
    let mut config = bci_net::NetConfig::default();
    if let Some(v) = opts.get("max-frame-len") {
        config.max_frame_len = v
            .parse()
            .map_err(|_| format!("--max-frame-len: cannot parse '{v}'"))?;
    }
    if let Some(v) = opts.get("miss-limit") {
        config.miss_limit = v
            .parse()
            .map_err(|_| format!("--miss-limit: cannot parse '{v}'"))?;
    }
    if let Some(v) = opts.get("max-steps") {
        config.max_steps = v
            .parse()
            .map_err(|_| format!("--max-steps: cannot parse '{v}'"))?;
    }
    config.validate()?;
    Ok(config)
}

/// `bci serve` — run the coordinator daemon: bind a TCP port, accept
/// player registrations until the roster is full, then sequence
/// `--sessions` protocol sessions over the wire, up to `--inflight` of
/// them parked and resumed concurrently by one reactor thread. The
/// coordinator owns the blackboard and samples the inputs, so the whole
/// run is reproducible from `--seed` alone.
fn cmd_serve(opts: &HashMap<String, String>, diag: &Diag) -> Result<(), String> {
    use bci_mux::daemon::{
        accept_mux_roster, linger_admin, run_mux_daemon, MuxOptions, SessionInfo,
        DEFAULT_MAX_INFLIGHT,
    };
    use std::net::TcpListener;
    use std::time::{Duration, Instant};

    let port: u16 = get(opts, "port", None)?;
    let players: usize = get(opts, "players", None)?;
    let n: usize = get(opts, "n", Some(256usize))?;
    let sessions: u32 = get(opts, "sessions", Some(1u32))?;
    let seed: u64 = get(opts, "seed", Some(1u64))?;
    let density: f64 = get(opts, "density", Some(0.7))?;
    let deadline_ms: u64 = get(opts, "deadline-ms", Some(30_000u64))?;
    let roster_secs: u64 = get(opts, "roster-timeout-s", Some(60u64))?;
    let protocol_name = opts.get("protocol").map_or("disj", String::as_str);
    if protocol_name != "disj" {
        return Err(format!(
            "unknown protocol '{protocol_name}' (serve supports: disj)"
        ));
    }
    if players == 0 || sessions == 0 {
        return Err("--players and --sessions must be positive".into());
    }
    let config = net_config_from(opts)?;
    let inflight: usize = get(opts, "inflight", Some(DEFAULT_MAX_INFLIGHT))?;
    if inflight == 0 {
        return Err("--inflight must be positive".into());
    }
    let flight: usize = get(opts, "flight", Some(256usize))?;
    let admin_linger_ms: u64 = get(opts, "admin-linger-ms", Some(0u64))?;
    let recorder = if flight > 0 {
        Recorder::with_flight(flight)
    } else {
        Recorder::metrics_only()
    };

    let listener = TcpListener::bind(("0.0.0.0", port))
        .map_err(|e| format!("cannot bind port {port}: {e}"))?;
    let bound = listener
        .local_addr()
        .map_err(|e| format!("local addr: {e}"))?;
    diag.info(&format!(
        "serving {protocol_name} (n={n}, k={players}) on {bound} [inflight={inflight}]: \
         waiting for {players} players (up to {roster_secs}s)"
    ));
    let info = SessionInfo {
        protocol_id: protocol_name.to_string(),
        players: players as u32,
        seed,
        params: vec![n as u64, u64::from(sessions)],
    };
    let conns = accept_mux_roster(
        &listener,
        &info,
        &config,
        Instant::now() + Duration::from_secs(roster_secs),
        &recorder,
    )
    .map_err(|e| e.to_string())?;
    diag.info(&format!(
        "roster complete: {players} players registered; admin stats channel live on {bound}"
    ));
    let proto = BroadcastDisj::new(n, players);
    let mux_opts = MuxOptions {
        deadline: Some(Duration::from_millis(deadline_ms)),
        max_inflight: inflight,
        config: config.clone(),
        dump_flight_on_failure: flight > 0,
    };
    let report = run_mux_daemon(
        &proto,
        conns,
        Some(&listener),
        u64::from(sessions),
        seed,
        |_, rng| workload::random_sets(n, players, density, rng),
        &mux_opts,
        &recorder,
    );
    if admin_linger_ms > 0 {
        // Keep answering scrapes after the run, so a one-shot
        // `bci stat` can still collect the final numbers.
        diag.info(&format!("admin channel lingering {admin_linger_ms}ms"));
        let until = Instant::now() + Duration::from_millis(admin_linger_ms);
        linger_admin(&listener, &recorder, &config, || Instant::now() >= until);
    }
    let snap = recorder.snapshot();
    let hist = snap.hist("mux.turn_latency_us");
    let (completed, failed) = (report.completed(), report.failed());
    let secs = report.elapsed.as_secs_f64().max(1e-9);
    let mut t = Table::new(["sessions", "completed", "failed", "sessions/sec"]);
    t.row([
        sessions.to_string(),
        completed.to_string(),
        failed.to_string(),
        f(completed as f64 / secs, 1),
    ]);
    println!("{}", t.render());
    if let Some(h) = hist {
        println!(
            "turn latency: p50 {}us  p95 {}us  p99 {}us over {} turns",
            h.percentile(50.0),
            h.percentile(95.0),
            h.percentile(99.0),
            h.count()
        );
    }
    println!(
        "wire: {} bytes sent, {} bytes received; transcript fold {:#018x}",
        report.wire.bytes_tx,
        report.wire.bytes_rx,
        report.digest_fold()
    );
    if failed > 0 {
        return Err(format!("{failed} session(s) did not complete"));
    }
    Ok(())
}

/// `bci join` — connect one player client to a coordinator started with
/// `bci serve`. The protocol parameters (universe size, roster size)
/// arrive in the handshake ack, so the client needs only the address and
/// its player index.
fn cmd_join(opts: &HashMap<String, String>, diag: &Diag) -> Result<(), String> {
    use bci_mux::player::{connect_mux_player, run_mux_player};
    use bci_net::NetConfig;
    use std::net::ToSocketAddrs;

    let addr_str: String = get(opts, "addr", None)?;
    let player: usize = get(opts, "player", None)?;
    let seed: u64 = get(opts, "seed", Some(1u64))?;
    let protocol_name = opts.get("protocol").map_or("disj", String::as_str);
    if protocol_name != "disj" {
        return Err(format!(
            "unknown protocol '{protocol_name}' (join supports: disj)"
        ));
    }
    let addr = addr_str
        .to_socket_addrs()
        .map_err(|e| format!("cannot resolve '{addr_str}': {e}"))?
        .next()
        .ok_or_else(|| format!("'{addr_str}' resolved to no address"))?;

    let config = NetConfig::default();
    let (conn, ack, retries) = connect_mux_player(addr, player, protocol_name, &config, seed)
        .map_err(|e| e.to_string())?;
    let n = ack.params.first().copied().unwrap_or(0) as usize;
    let k = ack.players as usize;
    diag.info(&format!(
        "joined {addr} as player {player}: {protocol_name} (n={n}, k={k}), seed {}, \
         {retries} connect retries",
        ack.seed
    ));
    let proto = BroadcastDisj::new(n, k);
    let report = run_mux_player(&proto, conn, player, &config, false).map_err(|e| e.to_string())?;
    println!("player {player}: {} session(s) finished", report.sessions);
    Ok(())
}

/// `bci load` — the load harness: M sessions × K synthetic players
/// against the coordinator, reporting sessions/sec, turn-latency
/// percentiles, wire bytes against transcript bits, and an end-to-end
/// transcript check against the in-process transport. Exits nonzero if any session fails
/// or any transcript diverges, so CI can gate on it directly.
fn cmd_load(opts: &HashMap<String, String>, diag: &Diag) -> Result<(), String> {
    use bci_mux::load::{bench_document, run_load, LoadSpec};
    use bci_mux::LoadReport;
    use std::net::ToSocketAddrs;
    use std::time::Duration;

    let sessions: u64 = get(opts, "sessions", None)?;
    let players: usize = get(opts, "players", None)?;
    if sessions == 0 || players == 0 {
        return Err("--sessions and --players must be positive".into());
    }
    let mut spec = LoadSpec::new(sessions, players);
    spec.n = get(opts, "n", Some(spec.n))?;
    spec.density = get(opts, "density", Some(spec.density))?;
    spec.seed = get(opts, "seed", Some(spec.seed))?;
    spec.max_inflight = get(opts, "inflight", Some(spec.max_inflight))?;
    if spec.max_inflight == 0 {
        return Err("--inflight must be positive".into());
    }
    let deadline_ms: u64 = get(opts, "deadline-ms", Some(30_000u64))?;
    spec.deadline = Some(Duration::from_millis(deadline_ms));
    spec.config = net_config_from(opts)?;
    spec.verify = !opts.contains_key("no-verify");
    if let Some(addr_str) = opts.get("addr") {
        spec.addr = Some(
            addr_str
                .to_socket_addrs()
                .map_err(|e| format!("cannot resolve '{addr_str}': {e}"))?
                .next()
                .ok_or_else(|| format!("'{addr_str}' resolved to no address"))?,
        );
    }
    let scrape_ms: u64 = get(opts, "scrape-ms", Some(0u64))?;

    diag.info(&format!(
        "load: {sessions} session(s) x {players} player(s) against {} (inflight {})",
        spec.addr
            .map_or_else(|| "in-process mux daemon".to_owned(), |a| a.to_string()),
        spec.max_inflight
    ));
    let mut reports: Vec<LoadReport> = vec![run_load(&spec).map_err(|e| e.to_string())?];
    if scrape_ms > 0 {
        // Same workload again with a live admin scraper attached — the
        // report pair becomes the scrape-overhead measurement.
        diag.info(&format!(
            "load: re-running with a {scrape_ms}ms admin scraper attached"
        ));
        let mut scraped = spec.clone();
        scraped.scrape_interval = Some(Duration::from_millis(scrape_ms));
        reports.push(run_load(&scraped).map_err(|e| e.to_string())?);
    }

    let mut t = Table::new([
        "coordinator",
        "sessions",
        "completed",
        "failed",
        "sessions/sec",
        "p50 us",
        "p95 us",
        "p99 us",
        "wire bytes",
        "transcript bits",
        "bits/bit",
        "scrapes",
        "digest",
    ]);
    for r in &reports {
        t.row([
            r.kind.label().to_owned(),
            r.sessions.to_string(),
            r.completed.to_string(),
            r.failed.to_string(),
            f(r.sessions_per_sec(), 1),
            r.turn_latency.percentile(50.0).to_string(),
            r.turn_latency.percentile(95.0).to_string(),
            r.turn_latency.percentile(99.0).to_string(),
            r.wire.bytes_total().to_string(),
            r.wire.transcript_bits.to_string(),
            f(r.wire_bits_per_transcript_bit(), 2),
            r.scrapes.to_string(),
            match r.verified() {
                Some(true) => "match".to_owned(),
                Some(false) => "MISMATCH".to_owned(),
                None => format!("{:#018x}", r.digest),
            },
        ]);
    }
    println!(
        "load — {sessions} session(s) x {players} player(s), seed {}\n",
        spec.seed
    );
    println!("{}", t.render());

    if let Some(path) = opts.get("json") {
        // The doc spec carries the scrape interval so the meta's
        // overhead measurement can name it.
        let mut doc_spec = spec.clone();
        if scrape_ms > 0 {
            doc_spec.scrape_interval = Some(Duration::from_millis(scrape_ms));
        }
        let doc = bench_document(&doc_spec, &reports);
        std::fs::write(path, format!("{doc}\n"))
            .map_err(|e| format!("cannot write report to '{path}': {e}"))?;
        diag.info(&format!("wrote bci.bench.v1 report to {path}"));
    }

    for r in &reports {
        if r.failed > 0 {
            return Err(format!(
                "{} failed {} of {} session(s)",
                r.kind.label(),
                r.failed,
                r.sessions
            ));
        }
        if r.verified() == Some(false) {
            return Err(format!(
                "{} transcripts diverged from the in-process transport \
                 ({:#018x} != {:#018x})",
                r.kind.label(),
                r.digest,
                r.digest_inprocess.unwrap_or(0)
            ));
        }
    }
    Ok(())
}

/// `bci stat <addr>` — one-shot scrape of a coordinator's admin stats
/// channel. Prints the live snapshot as JSON (`--json`, the default),
/// Prometheus text exposition (`--prom`), or the flight-recorder ring as
/// JSON lines (`--events`); the flags combine.
fn cmd_stat(args: &[String]) -> Result<(), String> {
    use bci_net::admin::scrape;
    use bci_net::frame::stats_request;

    let Some(addr) = args.first().filter(|a| !a.starts_with("--")) else {
        return Err("stat needs an address: bci stat <host:port> [--json|--prom|--events]".into());
    };
    let (mut json, mut prom, mut events) = (false, false, false);
    for flag in &args[1..] {
        match flag.as_str() {
            "--json" => json = true,
            "--prom" => prom = true,
            "--events" => events = true,
            other => return Err(format!("unknown stat flag '{other}'")),
        }
    }
    if !json && !prom && !events {
        json = true;
    }
    let mut what = 0u8;
    if json || prom {
        what |= stats_request::SNAPSHOT;
    }
    if events {
        what |= stats_request::EVENTS;
    }
    let config = bci_net::NetConfig::default();
    let reply = scrape(addr, what, &config).map_err(|e| e.to_string())?;
    if json || prom {
        let snap = reply
            .payload
            .into_snapshot()
            .map_err(|e| format!("malformed snapshot from {addr}: {e}"))?;
        if json {
            println!("{}", snap.to_json());
        }
        if prom {
            print!("{}", snap.to_prometheus());
        }
    }
    if events {
        print!("{}", reply.events_jsonl);
    }
    Ok(())
}

/// `bci top <addr>` — refreshing live view of a coordinator: scrapes the
/// admin channel every `--interval-ms` and prints one delta-aware line
/// per tick (sessions/sec and latency percentiles computed over the tick
/// window via histogram deltas, not cumulative totals). `--iters 0`
/// refreshes until interrupted.
fn cmd_top(args: &[String]) -> Result<(), String> {
    use bci_net::admin::AdminClient;
    use bci_telemetry::Snapshot;
    use std::time::Duration;

    let Some(addr) = args.first().filter(|a| !a.starts_with("--")) else {
        return Err(
            "top needs an address: bci top <host:port> [--interval-ms MS] [--iters K]".into(),
        );
    };
    let opts = parse_opts(&args[1..], None)?;
    let interval_ms: u64 = get(&opts, "interval-ms", Some(1000u64))?;
    let iters: u64 = get(&opts, "iters", Some(0u64))?;
    if interval_ms == 0 {
        return Err("--interval-ms must be positive".into());
    }
    let config = bci_net::NetConfig::default();
    let mut client = AdminClient::connect(addr, &config).map_err(|e| e.to_string())?;
    let mut prev: Option<Snapshot> = None;
    let mut tick = 0u64;
    loop {
        let snap = client.fetch_snapshot().map_err(|e| e.to_string())?;
        println!("{}", top_line(&snap, prev.as_ref()));
        prev = Some(snap);
        tick += 1;
        if iters != 0 && tick >= iters {
            return Ok(());
        }
        std::thread::sleep(Duration::from_millis(interval_ms));
    }
}

/// Sessions the coordinator has finished so far, whatever their outcome.
fn sessions_finished(snap: &bci_telemetry::Snapshot) -> u64 {
    snap.counter("mux.sessions_completed")
        + snap.counter("mux.sessions_timed_out")
        + snap.counter("mux.sessions_aborted")
}

/// One `bci top` output line: uptime, completed sessions with the
/// tick-window rate, inflight/parked gauges, and the window's turn-
/// latency percentiles (from the histogram delta when a previous
/// snapshot exists, else cumulative).
fn top_line(snap: &bci_telemetry::Snapshot, prev: Option<&bci_telemetry::Snapshot>) -> String {
    let finished = sessions_finished(snap);
    let uptime_s = snap.uptime_us as f64 / 1e6;
    let (delta, rate) = match prev {
        Some(p) => {
            let d = finished.saturating_sub(sessions_finished(p));
            let window_s = (snap.uptime_us.saturating_sub(p.uptime_us)) as f64 / 1e6;
            (
                d,
                if window_s > 0.0 {
                    d as f64 / window_s
                } else {
                    0.0
                },
            )
        }
        None => (finished, 0.0),
    };
    let mut line = format!(
        "up {uptime_s:7.1}s  sessions {finished} (+{delta}, {rate:.1}/s)  inflight {}/{}",
        snap.gauge("mux.inflight"),
        snap.gauge("mux.inflight_limit"),
    );
    line.push_str(&format!(
        "  parked {}  remaining {}",
        snap.gauge("mux.sessions_parked"),
        snap.gauge("mux.sessions_remaining"),
    ));
    let name = "mux.turn_latency_us";
    if let Some(cur) = snap.hist(name) {
        let window = match prev.and_then(|p| p.hist(name)) {
            Some(old) => cur.delta_since(old),
            None => cur.clone(),
        };
        line.push_str(&format!(
            "  turn p50/p95/p99 {}/{}/{}us ({} turns)",
            window.percentile(50.0),
            window.percentile(95.0),
            window.percentile(99.0),
            window.count(),
        ));
    }
    // The mux splits each turn into four phases; show the window's p50
    // of each, in turn order.
    let phases = ["queue", "flush", "remote", "apply"].map(|phase| {
        let name = format!("mux.turn_{phase}_us");
        let cur = snap.hist(&name)?;
        let window = match prev.and_then(|p| p.hist(&name)) {
            Some(old) => cur.delta_since(old),
            None => cur.clone(),
        };
        Some(window.percentile(50.0))
    });
    if let [Some(queue), Some(flush), Some(remote), Some(apply)] = phases {
        line.push_str(&format!(
            "  queue/flush/remote/apply p50 {queue}/{flush}/{remote}/{apply}us"
        ));
    }
    if let Some(q) = snap.hist("mux.outbound_queue_bytes") {
        line.push_str(&format!("  outq p95 {}B", q.percentile(95.0)));
    }
    line
}

/// `bci experiments list | run <id>` — front end to the experiment
/// registry. `run` executes the sweep on a fabric [`JobPool`]
/// (`--workers`, default 1) and prints the same text `table_all
/// --experiment <id>` emits; `--seed` overrides the experiment's canonical
/// master seed; `--topology` restricts a cross-model experiment (see the
/// `model` column of `experiments list`) to one communication model's
/// columns. Any other option is an error.
///
/// [`JobPool`]: bci_fabric::pool::JobPool
fn cmd_experiments(args: &[String]) -> Result<(), String> {
    use bci_core::experiments::registry::{
        find, registry, render_report, run_grid_pooled, Experiment,
    };
    use bci_fabric::pool::{JobPool, PoolConfig};
    use bci_telemetry::Json;

    /// The experiment's communication model(s), from its `model` meta
    /// key; everything without one is a plain blackboard experiment.
    fn model_of(exp: &dyn Experiment) -> String {
        exp.meta()
            .iter()
            .find_map(|(key, value)| match (key, value) {
                (&"model", Json::Str(s)) => Some(s.clone()),
                _ => None,
            })
            .unwrap_or_else(|| "blackboard".to_owned())
    }

    let Some(sub) = args.first() else {
        return Err("experiments needs a subcommand: list | run <id>".into());
    };
    match sub.as_str() {
        "list" => {
            if let Some(extra) = args.get(1) {
                return Err(format!(
                    "experiments list takes no arguments, got '{extra}'"
                ));
            }
            let mut t = Table::new(["id", "points", "seed", "model", "title"]);
            for exp in registry() {
                t.row([
                    exp.id().to_owned(),
                    exp.grid().len().to_string(),
                    exp.seed().to_string(),
                    model_of(*exp),
                    exp.title().to_owned(),
                ]);
            }
            println!("{}", t.render());
            Ok(())
        }
        "run" => {
            let id = args
                .get(1)
                .filter(|a| !a.starts_with("--"))
                .ok_or("experiments run needs an id (try 'bci experiments list')")?;
            let exp = find(id).ok_or_else(|| {
                format!(
                    "unknown experiment '{id}' (known: {})",
                    registry()
                        .iter()
                        .map(|e| e.id())
                        .collect::<Vec<_>>()
                        .join(", ")
                )
            })?;
            let opts = parse_opts(&args[2..], None)?;
            if let Some(bad) = opts
                .keys()
                .filter(|k| !["workers", "seed", "topology"].contains(&k.as_str()))
                .min()
            {
                return Err(format!(
                    "experiments run: unknown option '--{bad}' (expected --workers, --seed or --topology)"
                ));
            }
            let restricted: Box<dyn Experiment>;
            let exp: &dyn Experiment = match opts.get("topology") {
                None => exp,
                Some(name) => {
                    if bci_topology::Topology::parse(name).is_none() {
                        return Err(format!(
                            "--topology: unknown model '{name}' (expected blackboard | star | p2p)"
                        ));
                    }
                    restricted = exp.with_topology(name).ok_or_else(|| {
                        format!(
                            "experiment '{id}' has no {name} lane (its models: {})",
                            model_of(exp)
                        )
                    })?;
                    &*restricted
                }
            };
            let workers: usize = get(&opts, "workers", Some(1usize))?;
            if workers == 0 {
                return Err("--workers must be positive".into());
            }
            let seed: u64 = get(&opts, "seed", Some(exp.seed()))?;
            let pool = JobPool::new(PoolConfig {
                workers,
                batch_size: 1,
                queue_capacity: 8,
                metric_prefix: "experiments",
                job_spans: true,
                recorder: Recorder::disabled(),
            });
            let results = run_grid_pooled(exp, &pool, seed);
            print!("{}", render_report(exp, &exp.tables(&results)));
            Ok(())
        }
        other => Err(format!(
            "unknown experiments subcommand '{other}' (expected list | run)"
        )),
    }
}

fn print_fabric_report<O>(report: &FabricReport<O>, recorder: &Recorder) {
    let m = &report.metrics;
    let mut t = Table::new(["metric", "value"]);
    t.row(["sessions".to_owned(), m.sessions.to_string()]);
    t.row(["completed".to_owned(), m.completed.to_string()]);
    t.row(["timed out".to_owned(), m.timed_out.to_string()]);
    t.row(["aborted".to_owned(), m.aborted.to_string()]);
    t.row(["errors".to_owned(), report.report.errors.to_string()]);
    t.row(["error rate".to_owned(), f(report.report.error_rate(), 4)]);
    t.row(["bits/session mean".to_owned(), f(m.bits.mean(), 2)]);
    t.row(["bits/session stddev".to_owned(), f(m.bits.stddev(), 2)]);
    t.row(["latency p50".to_owned(), format!("{:?}", m.latency_p50())]);
    t.row(["latency p95".to_owned(), format!("{:?}", m.latency_p95())]);
    t.row(["latency p99".to_owned(), format!("{:?}", m.latency_p99())]);
    t.row(["latency max".to_owned(), format!("{:?}", m.latency_max)]);
    t.row([
        "queue depth p50".to_owned(),
        m.queue_depth.percentile(50.0).to_string(),
    ]);
    t.row([
        "queue depth p95".to_owned(),
        m.queue_depth.percentile(95.0).to_string(),
    ]);
    t.row(["max queue depth".to_owned(), m.max_queue_depth.to_string()]);
    t.row(["workers".to_owned(), m.workers.to_string()]);
    t.row(["elapsed".to_owned(), format!("{:?}", m.elapsed)]);
    t.row(["sessions/sec".to_owned(), f(m.sessions_per_sec(), 1)]);
    if recorder.enabled() {
        let snap = recorder.snapshot();
        t.row([
            "backpressure stalls".to_owned(),
            snap.counter("fabric.backpressure_stalls").to_string(),
        ]);
        t.row([
            "telemetry events".to_owned(),
            recorder.events().len().to_string(),
        ]);
    }
    println!("{}", t.render());
}
