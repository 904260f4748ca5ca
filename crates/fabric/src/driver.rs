//! Parallel Monte-Carlo with serial-identical statistics.
//!
//! [`monte_carlo_fabric`] is the fabric's counterpart to
//! [`bci_blackboard::runner::monte_carlo_seeded`]. It submits one
//! [`JobPool`] job per session id; the pool supplies the bounded batch
//! queue, producer backpressure, worker threads and in-order result
//! collection. Each job derives session `i`'s RNG from `(master_seed, i)`
//! via [`derive_trial_seed`](bci_blackboard::runner::derive_trial_seed),
//! samples inputs, runs the session through the shared [`Transport`] and
//! emits the per-session telemetry (spans, outcome counters, latency and
//! bits histograms). So each session's inputs and transcript are the
//! serial runner's, whichever worker runs it and whenever.
//!
//! The records come back in session-id order, and one pass over them
//! builds everything else the [`FabricReport`] holds: the [`RunReport`],
//! the outcome counts and the latency histogram. Accumulating in
//! session-id order makes the statistics identical too: Welford
//! accumulation is not associative in floating point.
//!
//! Sessions that time out or abort are excluded from the report's
//! communication and error statistics: a fault is an execution failure,
//! not a protocol error. They are counted in [`FabricReport::timed_out`]
//! and [`FabricReport::aborted`].

use std::time::Duration;

use bci_blackboard::board::Board;
use bci_blackboard::protocol::Protocol;
use bci_blackboard::runner::RunReport;
use bci_blackboard::stats::CommStats;
use bci_telemetry::hist::{Histogram, BITS_BOUNDS, LATENCY_US_BOUNDS};
use bci_telemetry::{Json, Recorder, SpanKind};
use rand::{RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::pool::{JobPool, PoolConfig};
use crate::session::{FaultPlan, SessionOutcome};
use crate::transport::{SessionContext, Transport};

/// Fabric tuning knobs.
#[derive(Debug, Clone)]
pub struct SchedulerConfig {
    /// Number of worker threads.
    pub workers: usize,
    /// Sessions per queue entry. Batching amortizes queue synchronization
    /// over several sessions when individual sessions are very short.
    pub batch_size: usize,
    /// Maximum batches queued ahead of the workers. The producer blocks
    /// when the queue is full (backpressure).
    pub queue_capacity: usize,
    /// Wall-clock budget per session, if any.
    pub deadline: Option<Duration>,
    /// Keep each session's final board in its record. Costs memory
    /// proportional to total transcript size; enable for tests and
    /// replay, disable for large sweeps.
    pub keep_transcripts: bool,
    /// Telemetry sink for the run: session spans, outcome counters,
    /// latency/bits/queue-depth histograms, backpressure stalls. The
    /// default ([`Recorder::disabled`]) records nothing and costs one
    /// branch per instrumentation site. The recorder only observes — with
    /// recording on or off, per-session transcripts and the
    /// [`RunReport`] are bit-identical.
    pub recorder: Recorder,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        SchedulerConfig {
            workers: 4,
            batch_size: 32,
            queue_capacity: 8,
            deadline: Some(Duration::from_secs(5)),
            keep_transcripts: false,
            recorder: Recorder::disabled(),
        }
    }
}

/// Everything recorded about one scheduled session.
#[derive(Debug, Clone)]
pub struct SessionRecord<O> {
    /// The session's id (also its RNG-derivation index).
    pub session_id: u64,
    /// How the session ended.
    pub outcome: SessionOutcome,
    /// The output, iff completed.
    pub output: Option<O>,
    /// Whether the output matched the reference function (iff completed).
    pub correct: Option<bool>,
    /// Bits on the board at termination.
    pub bits_written: usize,
    /// Wall-clock duration of the session.
    pub latency: Duration,
    /// The final board, if `keep_transcripts` was set.
    pub board: Option<Board>,
}

/// The fabric driver's full product: the Monte-Carlo report over completed
/// sessions, failure counts, run telemetry, and per-session records.
#[derive(Debug)]
pub struct FabricReport<O> {
    /// Communication/error statistics over *completed* sessions,
    /// bit-identical to the serial seeded runner when no faults fire.
    pub report: RunReport,
    /// Sessions that hit their deadline (excluded from `report`).
    pub timed_out: u64,
    /// Sessions aborted by a crash/panic/runaway (excluded from `report`).
    pub aborted: u64,
    /// Session-latency histogram in microseconds ([`LATENCY_US_BOUNDS`]
    /// ladder); see [`latency_percentile`](FabricReport::latency_percentile).
    pub latency: Histogram,
    /// Worst session latency (exact, not bucketed).
    pub latency_max: Duration,
    /// Queue-depth histogram: one sample per enqueued batch, taken at
    /// enqueue time.
    pub queue_depth: Histogram,
    /// Highest queue depth (batches) observed. The gauge counts a batch
    /// from just before the producer enqueues it until just after a worker
    /// dequeues it, so it can transiently exceed the queue capacity by up
    /// to `workers + 1`.
    pub max_queue_depth: usize,
    /// Wall-clock duration of the whole run.
    pub elapsed: Duration,
    /// Per-session records, sorted by session id.
    pub records: Vec<SessionRecord<O>>,
}

impl<O> FabricReport<O> {
    /// The `p`-th percentile session latency (bucket-resolved, exact max
    /// for outliers).
    pub fn latency_percentile(&self, p: f64) -> Duration {
        Duration::from_micros(self.latency.percentile(p))
    }

    /// Sessions per wall-clock second (0 for an instant run).
    pub fn sessions_per_sec(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs > 0.0 {
            self.records.len() as f64 / secs
        } else {
            0.0
        }
    }
}

/// Runs `sessions` Monte-Carlo sessions of `protocol` on the fabric.
///
/// Session `i` draws its inputs and protocol randomness from the RNG
/// derived from `(master_seed, i)`; `reference` supplies the expected
/// output for correctness accounting. Faults in `plan` are injected into
/// their selected sessions.
///
/// For a fault-free run, `report` equals the one returned by
/// `monte_carlo_seeded::<_, _, _, ChaCha8Rng>(protocol, sample_inputs,
/// reference, sessions, master_seed)` — same trial inputs, same
/// transcripts, same floating-point statistics.
///
/// # Panics
///
/// Panics if `config.workers`, `config.batch_size`, or
/// `config.queue_capacity` is zero.
#[allow(clippy::too_many_arguments)]
pub fn monte_carlo_fabric<T, P, S, F>(
    transport: &T,
    protocol: &P,
    sample_inputs: &S,
    reference: &F,
    sessions: u64,
    master_seed: u64,
    plan: &FaultPlan,
    config: &SchedulerConfig,
) -> FabricReport<P::Output>
where
    T: Transport,
    P: Protocol + Sync,
    P::Input: Sync,
    P::Output: PartialEq + Send,
    S: Fn(&mut dyn RngCore) -> Vec<P::Input> + Sync,
    F: Fn(&[P::Input]) -> P::Output + Sync,
{
    let pool = JobPool::new(PoolConfig {
        workers: config.workers,
        batch_size: config.batch_size,
        queue_capacity: config.queue_capacity,
        // Historical metric names: the fabric predates the generic pool.
        metric_prefix: "fabric",
        // The job emits its own Session spans; pool-level Job spans would
        // double every session in the event stream.
        job_spans: false,
        recorder: config.recorder.clone(),
    });
    let recorder = &config.recorder;
    let session_ids: Vec<u64> = (0..sessions).collect();
    let run = pool.run(&session_ids, master_seed, &|seed, &session_id| {
        let token = recorder.span_start(SpanKind::Session, session_id, vec![]);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let inputs = sample_inputs(&mut rng);
        let expected = reference(&inputs);
        let faults = plan.for_session(session_id);
        let ctx = SessionContext {
            session_id,
            deadline: config.deadline,
            faults: &faults,
            recorder,
        };
        let result = transport.run_session(protocol, &inputs, rng, &ctx);
        if recorder.enabled() {
            recorder.counter_add("fabric.sessions", 1);
            recorder.counter_add(
                match result.outcome {
                    SessionOutcome::Completed => "fabric.completed",
                    SessionOutcome::TimedOut => "fabric.timed_out",
                    SessionOutcome::Aborted(_) => "fabric.aborted",
                },
                1,
            );
            recorder.hist_record(
                "fabric.latency_us",
                result.latency.as_micros() as u64,
                LATENCY_US_BOUNDS,
            );
            recorder.hist_record(
                "fabric.bits_per_session",
                result.bits_written as u64,
                BITS_BOUNDS,
            );
            recorder.span_end(
                SpanKind::Session,
                session_id,
                token,
                vec![
                    ("outcome", Json::str(result.outcome.label())),
                    ("bits", Json::UInt(result.bits_written as u64)),
                ],
            );
        }
        let correct = result.output.as_ref().map(|o| *o == expected);
        SessionRecord {
            session_id,
            outcome: result.outcome,
            output: result.output,
            correct,
            bits_written: result.bits_written,
            latency: result.latency,
            board: config.keep_transcripts.then_some(result.board),
        }
    });

    // The one ordered pass: session-id order keeps the float stream the
    // serial runner's.
    let mut comm = CommStats::new();
    let mut errors = 0u64;
    let mut timed_out = 0u64;
    let mut aborted = 0u64;
    let mut latency = Histogram::new(LATENCY_US_BOUNDS);
    let mut latency_max = Duration::ZERO;
    for rec in &run.outputs {
        match rec.outcome {
            SessionOutcome::Completed => {
                comm.record(rec.bits_written as f64);
                errors += u64::from(rec.correct == Some(false));
            }
            SessionOutcome::TimedOut => timed_out += 1,
            SessionOutcome::Aborted(_) => aborted += 1,
        }
        latency.record(rec.latency.as_micros() as u64);
        latency_max = latency_max.max(rec.latency);
    }
    FabricReport {
        report: RunReport {
            trials: comm.count(),
            comm,
            errors,
        },
        timed_out,
        aborted,
        latency,
        latency_max,
        queue_depth: run.queue_depth_hist,
        max_queue_depth: run.max_queue_depth,
        elapsed: run.elapsed,
        records: run.outputs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::{FaultKind, FaultSpec, SessionSelector};
    use crate::transport::InProcessTransport;
    use bci_blackboard::runner::monte_carlo_seeded;
    use bci_protocols::disj::broadcast::BroadcastDisj;
    use bci_protocols::disj::disj_function;
    use bci_protocols::workload;
    use rand::Rng;

    fn cfg(workers: usize) -> SchedulerConfig {
        SchedulerConfig {
            workers,
            batch_size: 16,
            queue_capacity: 4,
            deadline: Some(Duration::from_secs(10)),
            ..SchedulerConfig::default()
        }
    }

    /// `sessions` DISJ sessions over a universe of `n` with `k` players.
    fn disj_run(
        n: usize,
        k: usize,
        density: f64,
        sessions: u64,
        seed: u64,
        plan: &FaultPlan,
        config: &SchedulerConfig,
    ) -> FabricReport<bool> {
        monte_carlo_fabric(
            &InProcessTransport,
            &BroadcastDisj::new(n, k),
            &|rng: &mut dyn RngCore| workload::random_sets(n, k, density, rng),
            &|inputs: &[_]| disj_function(inputs),
            sessions,
            seed,
            plan,
            config,
        )
    }

    fn small_batches(workers: usize) -> SchedulerConfig {
        SchedulerConfig {
            batch_size: 8,
            ..cfg(workers)
        }
    }

    #[test]
    fn fabric_report_is_bit_identical_to_the_serial_runner() {
        let proto = BroadcastDisj::new(96, 5);
        let sample = |rng: &mut dyn RngCore| workload::random_sets(96, 5, 0.75, rng);
        let reference = |inputs: &[_]| disj_function(inputs);
        let serial = monte_carlo_seeded::<_, _, _, ChaCha8Rng>(&proto, sample, reference, 300, 17);
        for workers in [1usize, 3, 6] {
            let fabric = monte_carlo_fabric(
                &InProcessTransport,
                &proto,
                &sample,
                &reference,
                300,
                17,
                &FaultPlan::new(),
                &cfg(workers),
            );
            assert_eq!(fabric.report.trials, serial.trials);
            assert_eq!(fabric.report.errors, serial.errors);
            assert_eq!(
                fabric.report.comm.mean().to_bits(),
                serial.comm.mean().to_bits(),
                "workers = {workers}: float-identical mean"
            );
            assert_eq!(
                fabric.report.comm.variance().to_bits(),
                serial.comm.variance().to_bits(),
                "workers = {workers}: float-identical variance"
            );
            assert_eq!(fabric.timed_out, 0);
            assert_eq!(fabric.aborted, 0);
        }
    }

    #[test]
    fn all_sessions_run_exactly_once_and_in_order() {
        let run = disj_run(64, 4, 0.7, 100, 7, &FaultPlan::new(), &small_batches(4));
        assert_eq!(run.records.len(), 100);
        for (i, rec) in run.records.iter().enumerate() {
            assert_eq!(rec.session_id, i as u64, "sorted by id");
            assert_eq!(rec.outcome, SessionOutcome::Completed);
            assert_eq!(rec.correct, Some(true));
        }
        assert_eq!(run.report.trials, 100);
    }

    #[test]
    fn worker_count_does_not_change_results() {
        let runs: Vec<_> = [1usize, 2, 7]
            .iter()
            .map(|&w| disj_run(48, 3, 0.6, 60, 11, &FaultPlan::new(), &small_batches(w)))
            .collect();
        for run in &runs[1..] {
            for (a, b) in runs[0].records.iter().zip(&run.records) {
                assert_eq!(a.session_id, b.session_id);
                assert_eq!(a.bits_written, b.bits_written);
                assert_eq!(a.output, b.output);
            }
        }
    }

    #[test]
    fn transcripts_are_kept_on_request() {
        let keep = SchedulerConfig {
            keep_transcripts: true,
            ..small_batches(2)
        };
        let run = disj_run(32, 3, 0.5, 10, 3, &FaultPlan::new(), &keep);
        assert!(run.records.iter().all(|r| r.board.is_some()));
        let no_keep = disj_run(32, 3, 0.5, 10, 3, &FaultPlan::new(), &small_batches(2));
        assert!(no_keep.records.iter().all(|r| r.board.is_none()));
    }

    #[test]
    fn queue_depth_is_bounded_by_capacity() {
        // Slow sessions force the producer to fill the queue; the gauge
        // must never exceed capacity + the batch the producer is blocked on.
        let plan = FaultPlan::new().with(FaultSpec {
            kind: FaultKind::SlowPlayer(Duration::from_millis(2)),
            player: 0,
            sessions: SessionSelector::All,
        });
        let config = SchedulerConfig {
            workers: 2,
            batch_size: 2,
            queue_capacity: 3,
            ..cfg(2)
        };
        let run = disj_run(16, 2, 0.5, 40, 5, &plan, &config);
        assert_eq!(run.records.len(), 40);
        assert!(
            run.max_queue_depth <= config.queue_capacity + config.workers + 1,
            "depth {} exceeds bound",
            run.max_queue_depth
        );
        assert!(run.max_queue_depth >= 1);
    }

    #[test]
    fn mixed_bool_random_range_inputs_are_reproducible() {
        // Sanity: sample_inputs sees the same rng stream as the serial
        // runner would; bits consumed by random_range do not desync.
        let proto = BroadcastDisj::new(40, 4);
        let sample = |rng: &mut dyn RngCore| {
            let density = rng.random_range(0.3..0.9);
            workload::random_sets(40, 4, density, rng)
        };
        let [a, b] = [3, 5].map(|workers| {
            monte_carlo_fabric(
                &InProcessTransport,
                &proto,
                &sample,
                &|inputs: &[_]| disj_function(inputs),
                30,
                21,
                &FaultPlan::new(),
                &small_batches(workers),
            )
        });
        for (x, y) in a.records.iter().zip(&b.records) {
            assert_eq!(x.bits_written, y.bits_written);
            assert_eq!(x.output, y.output);
        }
    }

    #[test]
    fn faulty_sessions_are_excluded_from_error_statistics() {
        let plan = FaultPlan::new().with(FaultSpec {
            kind: FaultKind::CrashedPlayer,
            player: 1,
            sessions: SessionSelector::EveryNth(5),
        });
        let fabric = disj_run(64, 4, 0.7, 50, 23, &plan, &cfg(4));
        assert_eq!(fabric.aborted, 10, "sessions 0, 5, ..., 45 crash");
        assert_eq!(fabric.timed_out, 0);
        assert_eq!(fabric.report.trials, 40);
        assert_eq!(fabric.report.errors, 0, "completed sessions are correct");
        assert_eq!(fabric.report.comm.count(), 40);
        assert_eq!(fabric.latency.count(), 50, "every session's latency");
    }

    #[test]
    fn throughput_and_latency_are_populated() {
        let fabric = disj_run(32, 3, 0.5, 64, 1, &FaultPlan::new(), &cfg(4));
        assert_eq!(fabric.records.len(), 64);
        assert!(fabric.sessions_per_sec() > 0.0);
        assert!(fabric.latency_percentile(50.0) <= fabric.latency_percentile(99.0));
        assert!(fabric.latency_percentile(99.0) <= fabric.latency_max + Duration::from_micros(1));
        assert_eq!(fabric.report.comm.count(), 64);
        assert_eq!(fabric.latency.count(), 64);
        assert!(
            fabric.queue_depth.count() >= 1,
            "one sample per batch enqueued"
        );
        assert!(fabric.max_queue_depth >= 1);
    }

    #[test]
    fn empty_runs_do_not_divide_by_zero() {
        let fabric = disj_run(16, 2, 0.5, 0, 1, &FaultPlan::new(), &cfg(4));
        assert!(fabric.records.is_empty());
        assert_eq!(fabric.sessions_per_sec(), 0.0);
        assert_eq!(fabric.latency_percentile(50.0), Duration::ZERO);
        assert_eq!(fabric.latency_percentile(99.0), Duration::ZERO);
    }

    #[test]
    fn latency_percentiles_come_from_the_histogram() {
        // 99 samples land in the `le = 100` bucket; percentiles
        // interpolate inside [min=80, bound=100] by rank, and the
        // straggler in the `le = 10_000` bucket only shows at p100.
        let mut fabric = disj_run(16, 2, 0.5, 0, 1, &FaultPlan::new(), &cfg(1));
        for _ in 0..99 {
            fabric.latency.record(80);
        }
        fabric.latency.record(9_000);
        let us = Duration::from_micros;
        assert_eq!(fabric.latency_percentile(50.0), us(90));
        assert_eq!(fabric.latency_percentile(95.0), us(99));
        assert_eq!(fabric.latency_percentile(99.0), us(100));
        assert_eq!(fabric.latency_percentile(100.0), us(9_000));
    }

    #[test]
    fn recording_does_not_change_the_report_and_populates_telemetry() {
        let quiet = disj_run(48, 4, 0.6, 80, 29, &FaultPlan::new(), &cfg(3));
        let recorder = Recorder::new();
        let traced_cfg = SchedulerConfig {
            recorder: recorder.clone(),
            ..cfg(3)
        };
        let traced = disj_run(48, 4, 0.6, 80, 29, &FaultPlan::new(), &traced_cfg);
        assert_eq!(
            quiet.report.comm.mean().to_bits(),
            traced.report.comm.mean().to_bits()
        );
        assert_eq!(
            quiet.report.comm.variance().to_bits(),
            traced.report.comm.variance().to_bits()
        );
        let snap = recorder.snapshot();
        assert_eq!(snap.counter("fabric.sessions"), 80);
        assert_eq!(snap.counter("fabric.completed"), 80);
        assert_eq!(snap.hist("fabric.latency_us").map(|h| h.count()), Some(80));
        // Session spans: one start + one end event per session, at least.
        assert!(recorder.events().len() >= 160);
    }
}
