//! The five workloads: what one timed repetition runs and how its outputs
//! are checked.
//!
//! | workload        | one repetition                                       | one operation       |
//! |-----------------|------------------------------------------------------|---------------------|
//! | `suite`         | all 20 registry experiments on a 1-worker `JobPool`  | one rendered report |
//! | `suite_pool`    | the same on a 2-worker `JobPool`                     | one rendered report |
//! | `fabric_inproc` | `monte_carlo_fabric`, 20 000 DISJ sessions, 1 worker | one session         |
//! | `mux_serial`    | `run_load`, 2 000 sessions, `max_inflight = 1`       | one session         |
//! | `mux_window`    | `run_load`, 50 000 sessions, `max_inflight = 1024`   | one session         |
//!
//! Every workload is closed-loop and uses at most two load threads and
//! two connections.

use std::time::{Duration, Instant};

use bci_blackboard::runner::derive_trial_seed;
use bci_core::experiments::registry::{registry, render_report, run_grid_pooled, Experiment};
use bci_fabric::pool::{JobPool, PoolConfig};
use bci_fabric::{monte_carlo_fabric, FaultPlan, InProcessTransport, SchedulerConfig};
use bci_mux::load::{inprocess_digest_fold, run_load, LoadSpec};
use bci_protocols::disj::broadcast::BroadcastDisj;
use bci_protocols::disj::disj_function;
use bci_protocols::workload;
use bci_telemetry::{Histogram, Recorder};
use rand::RngCore;

use crate::spans::{SpanId, Spans};
use crate::stats::{self, Summary};

/// Workload names, in the order `--workload all` runs them.
pub const NAMES: [&str; 5] = [
    "suite",
    "suite_pool",
    "fabric_inproc",
    "mux_serial",
    "mux_window",
];

/// DISJ sessions per `fabric_inproc` repetition.
const FABRIC_SESSIONS: u64 = 20_000;
/// Universe size, players and element density of a `fabric_inproc`
/// session.
const FABRIC_N: usize = 256;
const FABRIC_K: usize = 4;
const FABRIC_DENSITY: f64 = 0.7;

/// How often the mux probe's runs scrape the admin channel.
const SCRAPE_INTERVAL: Duration = Duration::from_millis(100);

/// The golden snapshot of experiment `$id`'s rendered report, as
/// `crates/bench/tests/golden_tables.rs` keeps it.
macro_rules! golden {
    ($id:literal) => {
        (
            $id,
            include_str!(concat!("../../../crates/bench/tests/golden/", $id, ".txt")),
        )
    };
}

/// The rendered reports of the experiments whose point computation uses
/// no randomness.
const GOLDEN: [(&str, &str); 10] = [
    golden!("e2"),
    golden!("e3"),
    golden!("e5"),
    golden!("e8"),
    golden!("e9"),
    golden!("e11"),
    golden!("e13"),
    golden!("e16"),
    golden!("e17"),
    golden!("e20"),
];

/// Operations attempted and failed, with a description of each failure.
#[derive(Debug, Default)]
pub struct Checks {
    /// Operations whose output was checked.
    pub attempted: u64,
    /// Operations whose output was missing or wrong.
    pub failed: u64,
    /// One line per failed check.
    pub failures: Vec<String>,
}

impl Checks {
    /// Counts `ops` checked operations, `bad` of them failed.
    pub fn record(&mut self, ops: u64, bad: u64, what: impl FnOnce() -> String) {
        self.attempted += ops;
        if bad > 0 {
            self.failed += bad;
            self.failures.push(what());
        }
    }
}

/// Per-operation latencies of one repetition.
pub enum Latencies {
    /// Raw samples, in microseconds.
    Samples(Vec<f64>),
    /// A fixed-bucket histogram of microseconds (the mux's turn latency).
    Hist(Histogram),
}

impl Latencies {
    /// The `p`-th percentile, in microseconds.
    pub fn percentile(&self, p: f64) -> f64 {
        match self {
            Latencies::Samples(s) => stats::percentile(s, p),
            Latencies::Hist(h) => stats::hist_percentile(h, p),
        }
    }

    /// Each operation's median latency over `reps`, which ran the same
    /// operations in the same order; `None` for histograms, which keep no
    /// operation apart.
    pub fn per_op_medians(reps: &[&Latencies]) -> Option<Vec<f64>> {
        let samples: Vec<&Vec<f64>> = reps
            .iter()
            .map(|r| match r {
                Latencies::Samples(s) => Some(s),
                Latencies::Hist(_) => None,
            })
            .collect::<Option<_>>()?;
        let ops = samples.first()?.len();
        Some(
            (0..ops)
                .map(|op| Summary::of(&samples.iter().map(|s| s[op]).collect::<Vec<_>>()).value)
                .collect(),
        )
    }
}

/// One timed repetition.
pub struct Rep {
    /// Seconds the operations took: the timed call, or for the mux
    /// `LoadReport::elapsed` (roster complete to last outcome).
    pub wall_s: f64,
    /// Operations completed.
    pub ops: u64,
    /// Per-operation latencies.
    pub latencies: Latencies,
    /// Set-up seconds paid inside the timed call, where the layer reports
    /// it (the mux's roster bind, accept, handshakes and thread join).
    pub setup_s: Option<f64>,
}

impl Rep {
    /// A repetition of `latencies.len()` operations timed one by one.
    fn from_samples(wall_s: f64, latencies: Vec<f64>) -> Rep {
        Rep {
            wall_s,
            ops: latencies.len() as u64,
            latencies: Latencies::Samples(latencies),
            setup_s: None,
        }
    }
}

/// A workload ready to run repetitions.
pub trait Workload {
    /// Runs one untimed repetition that fills caches and fixes the
    /// reference outputs later repetitions must reproduce.
    fn warm_up(&mut self, spans: &mut Spans, checks: &mut Checks);
    /// Runs one timed repetition, recording spans when `spans` is enabled.
    fn rep(&mut self, spans: &mut Spans, checks: &mut Checks) -> Rep;
}

/// Builds workload `name` for `seed`.
pub fn build(name: &str, seed: u64) -> Option<Box<dyn Workload>> {
    Some(match name {
        "suite" => Box::new(Suite::new(1, seed)),
        "suite_pool" => Box::new(Suite::new(2, seed)),
        "fabric_inproc" => Box::new(Fabric::new(seed)),
        "mux_serial" => Box::new(Mux::new(mux_spec(2_000, 1, seed))),
        "mux_window" => Box::new(Mux::new(mux_spec(50_000, 1024, seed))),
        _ => return None,
    })
}

/// Whether the workload runs without sockets. Its set-up is then timed in
/// fresh processes that stop at [`first_result`]; the mux workloads time
/// theirs inside each repetition.
pub fn in_process(name: &str) -> bool {
    matches!(name, "suite" | "suite_pool" | "fabric_inproc")
}

/// What a one-shot run of in-process workload `name` does up to its first
/// result, and that result: the first registry experiment's rendered
/// report on the workload's pool, or the first `fabric_inproc` session's
/// record. A fresh process pays the lazy set-up (first-call allocations,
/// pool start-up, per-tree caches) here that a long-lived one pays once.
pub fn first_result(name: &str, seed: u64) -> String {
    if name == "fabric_inproc" {
        let record = &Fabric::new(seed).run(1).records[0];
        format!(
            "{:?} {:?} {:?} {}",
            record.outcome, record.output, record.correct, record.bits_written
        )
    } else {
        let suite = Suite::new(if name == "suite" { 1 } else { 2 }, seed);
        suite.report(registry()[0], &suite.pool, &mut Spans::new(false), None)
    }
}

fn pool(workers: usize) -> JobPool {
    // The same pool `table_all` builds: grid points and trial chunks are
    // few and heavy, so each queue entry holds one.
    JobPool::new(PoolConfig {
        workers,
        batch_size: 1,
        queue_capacity: 8,
        metric_prefix: "experiments",
        job_spans: true,
        recorder: Recorder::disabled(),
    })
}

/// The registry suite: `run_grid_pooled` → `tables` → `render_report`
/// for every experiment.
pub struct Suite {
    workers: usize,
    seed: u64,
    pool: JobPool,
    /// Reports from the warm-up pass, in registry order.
    reference: Vec<String>,
}

impl Suite {
    /// A suite on a `workers`-wide pool. Each randomized experiment runs
    /// under a master seed derived from its canonical seed and `seed`;
    /// deterministic experiments ignore it.
    pub fn new(workers: usize, seed: u64) -> Suite {
        Suite {
            workers,
            seed,
            pool: pool(workers),
            reference: Vec::new(),
        }
    }

    fn master_seed(&self, exp: &dyn Experiment) -> u64 {
        derive_trial_seed(exp.seed(), self.seed)
    }

    /// `run_grid_pooled` → `tables` → `render_report` for `exp` on `pool`,
    /// inside a span parented by `parent`.
    fn report(
        &self,
        exp: &dyn Experiment,
        pool: &JobPool,
        spans: &mut Spans,
        parent: Option<SpanId>,
    ) -> String {
        let name = format!("core.{}", exp.id());
        spans.span(&name, parent, |spans, s| {
            let results = spans.span("core.run_grid_pooled", s, |_, _| {
                run_grid_pooled(exp, pool, self.master_seed(exp))
            });
            let tables = spans.span("core.tables", s, |_, _| exp.tables(&results));
            spans.span("core.render_report", s, |_, _| render_report(exp, &tables))
        })
    }

    /// One pass over the registry on `pool`: per-report latencies (µs) and
    /// reports, in registry order.
    fn pass(&self, pool: &JobPool, spans: &mut Spans) -> (Vec<f64>, Vec<String>) {
        spans.span("suite.pass", None, |spans, pass| {
            registry()
                .iter()
                .map(|&exp| {
                    let began = Instant::now();
                    let text = self.report(exp, pool, spans, pass);
                    (began.elapsed().as_secs_f64() * 1e6, text)
                })
                .unzip()
        })
    }

    /// Checks every report against the golden snapshots and the reference.
    fn check(&self, reports: &[String], checks: &mut Checks, what: &str) {
        for (i, (exp, text)) in registry().iter().zip(reports).enumerate() {
            let golden = GOLDEN.iter().find(|(id, _)| *id == exp.id());
            let bad_golden = golden.is_some_and(|&(_, g)| g != text);
            let bad_reference = self.reference.get(i).is_some_and(|r| r != text);
            checks.record(1, u64::from(bad_golden || bad_reference), || {
                format!(
                    "{what}: the {} report differs from the {}",
                    exp.id(),
                    if bad_golden {
                        "golden snapshot"
                    } else {
                        "warm-up pass"
                    }
                )
            });
        }
    }
}

impl Workload for Suite {
    /// The warm-up pass runs on a pool of the *other* width, so every
    /// timed pass also checks worker-count identity.
    fn warm_up(&mut self, spans: &mut Spans, checks: &mut Checks) {
        let other = pool(3 - self.workers);
        let (_, reports) = self.pass(&other, spans);
        self.check(&reports, checks, "warm-up pass");
        self.reference = reports;
    }

    fn rep(&mut self, spans: &mut Spans, checks: &mut Checks) -> Rep {
        let began = Instant::now();
        let (latencies, reports) = self.pass(&self.pool, spans);
        let wall_s = began.elapsed().as_secs_f64();
        self.check(&reports, checks, &format!("{}-worker pass", self.workers));
        Rep::from_samples(wall_s, latencies)
    }
}

/// Theorem 2's broadcast DISJ protocol on the fabric's in-process
/// transport, one worker.
pub struct Fabric {
    seed: u64,
    protocol: BroadcastDisj,
    /// `(trials, errors, mean bits, variance bits)` of the warm-up run.
    reference: Option<(u64, u64, u64, u64)>,
}

impl Fabric {
    /// Sessions derive their inputs from `seed`.
    pub fn new(seed: u64) -> Fabric {
        Fabric {
            seed,
            protocol: BroadcastDisj::new(FABRIC_N, FABRIC_K),
            reference: None,
        }
    }

    /// The protocol every session runs.
    pub fn protocol(&self) -> &BroadcastDisj {
        &self.protocol
    }

    /// The fabric workload's session inputs.
    pub fn sample(rng: &mut dyn RngCore) -> Vec<bci_encoding::bitset::BitSet> {
        workload::random_sets(FABRIC_N, FABRIC_K, FABRIC_DENSITY, rng)
    }

    /// Runs `sessions` sessions through `monte_carlo_fabric`.
    pub fn run(&self, sessions: u64) -> bci_fabric::FabricReport<bool> {
        monte_carlo_fabric(
            &InProcessTransport,
            &self.protocol,
            &Fabric::sample,
            &|inputs: &[_]| disj_function(inputs),
            sessions,
            self.seed,
            &FaultPlan::new(),
            &SchedulerConfig {
                workers: 1,
                ..SchedulerConfig::default()
            },
        )
    }

    fn checked_run(&mut self, spans: &mut Spans, checks: &mut Checks) -> Rep {
        let began = Instant::now();
        let report = spans.span("fabric.monte_carlo_fabric", None, |_, _| {
            self.run(FABRIC_SESSIONS)
        });
        let wall_s = began.elapsed().as_secs_f64();
        let bad = report
            .records
            .iter()
            .filter(|r| !r.outcome.is_completed() || r.correct != Some(true))
            .count() as u64;
        checks.record(FABRIC_SESSIONS, bad, || {
            format!("fabric: {bad} sessions failed or answered wrong")
        });
        let r = &report.report;
        let key = (
            r.trials,
            r.errors,
            r.comm.mean().to_bits(),
            r.comm.variance().to_bits(),
        );
        let reference = *self.reference.get_or_insert(key);
        checks.record(1, u64::from(key != reference || r.errors != 0), || {
            format!("fabric: RunReport {key:?} differs from the warm-up run's {reference:?}")
        });
        let latencies = report
            .records
            .iter()
            .map(|r| r.latency.as_secs_f64() * 1e6)
            .collect();
        Rep::from_samples(wall_s, latencies)
    }
}

impl Workload for Fabric {
    fn warm_up(&mut self, spans: &mut Spans, checks: &mut Checks) {
        self.checked_run(spans, checks);
    }

    fn rep(&mut self, spans: &mut Spans, checks: &mut Checks) -> Rep {
        self.checked_run(spans, checks)
    }
}

/// A `bci load` run against an in-process mux daemon: 2 players, DISJ
/// over n = 64, verification kept outside the timed call.
pub fn mux_spec(sessions: u64, max_inflight: usize, seed: u64) -> LoadSpec {
    LoadSpec {
        seed,
        max_inflight,
        verify: false,
        ..LoadSpec::new(sessions, 2)
    }
}

/// The mux serving path, driven closed-loop by `run_load`.
pub struct Mux {
    spec: LoadSpec,
    /// The in-process transport's digest fold of the same sessions.
    expected: u64,
}

impl Mux {
    /// Computes the expected digest fold once, outside any timing.
    pub fn new(spec: LoadSpec) -> Mux {
        let expected = inprocess_digest_fold(&spec);
        Mux { spec, expected }
    }

    /// Runs `run_load` once, scraping the admin channel every
    /// [`SCRAPE_INTERVAL`] when `scraped`; checks every session.
    pub fn checked_run(
        &self,
        scraped: bool,
        spans: &mut Spans,
        checks: &mut Checks,
    ) -> Option<(f64, bci_mux::load::LoadReport)> {
        let spec = LoadSpec {
            scrape_interval: scraped.then_some(SCRAPE_INTERVAL),
            ..self.spec.clone()
        };
        let sessions = spec.sessions;
        let began = Instant::now();
        let result = spans.span("mux.run_load", None, |_, _| run_load(&spec));
        let wall_s = began.elapsed().as_secs_f64();
        match result {
            Ok(report) => {
                let wrong = report.digest != self.expected;
                let bad = if wrong { sessions } else { report.failed };
                checks.record(sessions, bad, || {
                    format!(
                        "mux: {} failed sessions; digest {:#018x}, in-process {:#018x}",
                        report.failed, report.digest, self.expected
                    )
                });
                Some((wall_s, report))
            }
            Err(e) => {
                checks.record(sessions, sessions, || format!("mux: run_load failed: {e}"));
                None
            }
        }
    }
}

impl Workload for Mux {
    fn warm_up(&mut self, spans: &mut Spans, checks: &mut Checks) {
        self.checked_run(false, spans, checks);
    }

    fn rep(&mut self, spans: &mut Spans, checks: &mut Checks) -> Rep {
        match self.checked_run(false, spans, checks) {
            Some((wall_s, report)) => Rep {
                wall_s: report.elapsed.as_secs_f64(),
                ops: report.completed,
                setup_s: Some(wall_s - report.elapsed.as_secs_f64()),
                latencies: Latencies::Hist(report.turn_latency),
            },
            None => Rep {
                wall_s: 0.0,
                ops: 0,
                setup_s: None,
                latencies: Latencies::Samples(Vec::new()),
            },
        }
    }
}
