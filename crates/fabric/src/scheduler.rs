//! Sharding many sessions across a fixed worker pool.
//!
//! The scheduler is a thin protocol-aware layer over the generic
//! [`crate::pool::JobPool`]: it submits one job per session id,
//! and the pool supplies the bounded batch queue, producer backpressure,
//! worker threads, and in-order result collection. Each job derives the
//! session RNG from the pool-provided seed, samples inputs, runs the
//! session through the shared [`Transport`], and emits the per-session
//! telemetry (spans, outcome counters, latency/bits histograms). Per-worker
//! [`CommStats`] shards ride the pool's worker-local accumulators, so
//! pooled statistics are recovered by merging without any cross-worker
//! locking during the run.
//!
//! Determinism does not depend on the schedule: session `i`'s RNG is
//! derived from `(master_seed, i)` via
//! [`derive_trial_seed`](bci_blackboard::runner::derive_trial_seed), so
//! whichever worker runs it — and in whatever order — the transcript is
//! the one the serial runner would produce. The pool returns records in
//! session-id order, which also makes downstream statistics
//! order-independent.

use std::time::Duration;

use bci_blackboard::board::Board;
use bci_blackboard::protocol::Protocol;
use bci_blackboard::stats::CommStats;
use bci_telemetry::hist::{Histogram, BITS_BOUNDS, LATENCY_US_BOUNDS};
use bci_telemetry::{Json, Recorder, SpanKind};
use rand::{RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::pool::{JobPool, PoolConfig};
use crate::session::{FaultPlan, SessionOutcome};
use crate::transport::{SessionContext, Transport};

/// Scheduler tuning knobs.
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
    /// recording on or off, per-session transcripts and the downstream
    /// [`RunReport`](bci_blackboard::runner::RunReport) are bit-identical.
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

/// The scheduler's raw product: per-session records plus pool telemetry.
#[derive(Debug)]
pub struct SchedulerRun<O> {
    /// One record per session, sorted by session id.
    pub records: Vec<SessionRecord<O>>,
    /// Per-worker communication statistics over the sessions that worker
    /// completed. Merging the shards (see
    /// [`CommStats::merge`](bci_blackboard::stats::CommStats)) recovers
    /// the pooled statistics without any cross-worker locking during the
    /// run.
    pub shards: Vec<CommStats>,
    /// Highest queue depth (batches) observed during the run. The gauge
    /// counts a batch from just before the producer enqueues it until just
    /// after a worker dequeues it, so it can transiently exceed the queue
    /// capacity by up to `workers + 1` (one batch per mid-pop worker plus
    /// the batch a blocked producer is holding).
    pub max_queue_depth: usize,
    /// Queue-depth histogram: one sample per enqueued batch, taken at
    /// enqueue time. Feeds the `queue p50/p95/p99` columns of
    /// [`FabricMetrics`](crate::metrics::FabricMetrics).
    pub queue_depth_hist: Histogram,
    /// Wall-clock duration of the whole run.
    pub elapsed: Duration,
}

/// Runs `sessions` sessions of `protocol` across the worker pool.
///
/// Session `i` draws its inputs and protocol randomness from the RNG
/// derived from `(master_seed, i)`; `reference` supplies the expected
/// output for correctness accounting. Faults in `plan` are injected into
/// their selected sessions.
///
/// # Panics
///
/// Panics if `config.workers`, `config.batch_size`, or
/// `config.queue_capacity` is zero.
#[allow(clippy::too_many_arguments)]
pub fn run_sessions<T, P, S, F>(
    transport: &T,
    protocol: &P,
    sample_inputs: &S,
    reference: &F,
    sessions: u64,
    master_seed: u64,
    plan: &FaultPlan,
    config: &SchedulerConfig,
) -> SchedulerRun<P::Output>
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
        // Historical metric names: the scheduler predates the generic pool.
        metric_prefix: "fabric",
        // The job closure emits its own Session spans; pool-level Job spans
        // would double every session in the event stream.
        job_spans: false,
        recorder: config.recorder.clone(),
    });
    let recorder = &config.recorder;
    let session_ids: Vec<u64> = (0..sessions).collect();
    let run = pool.run_with(
        &session_ids,
        master_seed,
        &CommStats::new,
        &|seed, &session_id, shard: &mut CommStats| {
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
            if result.outcome.is_completed() {
                shard.record(result.bits_written as f64);
            }
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
        },
    );
    SchedulerRun {
        records: run.outputs,
        shards: run.shards,
        max_queue_depth: run.max_queue_depth,
        queue_depth_hist: run.queue_depth_hist,
        elapsed: run.elapsed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::{FaultKind, FaultSpec, SessionSelector};
    use crate::transport::InProcessTransport;
    use bci_protocols::disj::broadcast::BroadcastDisj;
    use bci_protocols::disj::disj_function;
    use bci_protocols::workload;
    use rand::Rng;

    fn config(workers: usize) -> SchedulerConfig {
        SchedulerConfig {
            workers,
            batch_size: 8,
            queue_capacity: 4,
            deadline: Some(Duration::from_secs(10)),
            ..SchedulerConfig::default()
        }
    }

    #[test]
    fn all_sessions_run_exactly_once_and_in_order() {
        let proto = BroadcastDisj::new(64, 4);
        let run = run_sessions(
            &InProcessTransport,
            &proto,
            &|rng: &mut dyn RngCore| workload::random_sets(64, 4, 0.7, rng),
            &|inputs: &[_]| disj_function(inputs),
            100,
            7,
            &FaultPlan::new(),
            &config(4),
        );
        assert_eq!(run.records.len(), 100);
        for (i, rec) in run.records.iter().enumerate() {
            assert_eq!(rec.session_id, i as u64, "sorted by id");
            assert_eq!(rec.outcome, SessionOutcome::Completed);
            assert_eq!(rec.correct, Some(true));
        }
        // Every worker shard saw some sessions; pooled count matches.
        let total: u64 = run.shards.iter().map(CommStats::count).sum();
        assert_eq!(total, 100);
    }

    #[test]
    fn worker_count_does_not_change_results() {
        let proto = BroadcastDisj::new(48, 3);
        let sample = |rng: &mut dyn RngCore| workload::random_sets(48, 3, 0.6, rng);
        let runs: Vec<_> = [1usize, 2, 7]
            .iter()
            .map(|&w| {
                run_sessions(
                    &InProcessTransport,
                    &proto,
                    &sample,
                    &|inputs: &[_]| disj_function(inputs),
                    60,
                    11,
                    &FaultPlan::new(),
                    &config(w),
                )
            })
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
    fn sharded_stats_merge_to_the_pooled_stream() {
        let proto = BroadcastDisj::new(80, 4);
        let run = run_sessions(
            &InProcessTransport,
            &proto,
            &|rng: &mut dyn RngCore| workload::random_sets(80, 4, 0.5, rng),
            &|inputs: &[_]| disj_function(inputs),
            200,
            13,
            &FaultPlan::new(),
            &config(4),
        );
        let mut merged = CommStats::new();
        for shard in &run.shards {
            merged.merge(shard);
        }
        // Reference: one serial accumulation in session order.
        let mut serial = CommStats::new();
        for rec in &run.records {
            serial.record(rec.bits_written as f64);
        }
        assert_eq!(merged.count(), serial.count());
        assert!((merged.mean() - serial.mean()).abs() < 1e-9);
        assert!((merged.variance() - serial.variance()).abs() < 1e-6);
        assert_eq!(merged.min(), serial.min());
        assert_eq!(merged.max(), serial.max());
    }

    #[test]
    fn transcripts_are_kept_on_request() {
        let proto = BroadcastDisj::new(32, 3);
        let mut cfg = config(2);
        cfg.keep_transcripts = true;
        let run = run_sessions(
            &InProcessTransport,
            &proto,
            &|rng: &mut dyn RngCore| workload::random_sets(32, 3, 0.5, rng),
            &|inputs: &[_]| disj_function(inputs),
            10,
            3,
            &FaultPlan::new(),
            &cfg,
        );
        assert!(run.records.iter().all(|r| r.board.is_some()));
        let no_keep = run_sessions(
            &InProcessTransport,
            &proto,
            &|rng: &mut dyn RngCore| workload::random_sets(32, 3, 0.5, rng),
            &|inputs: &[_]| disj_function(inputs),
            10,
            3,
            &FaultPlan::new(),
            &config(2),
        );
        assert!(no_keep.records.iter().all(|r| r.board.is_none()));
    }

    #[test]
    fn queue_depth_is_bounded_by_capacity() {
        // Slow sessions force the producer to fill the queue; the gauge
        // must never exceed capacity + the batch the producer is blocked on.
        let proto = BroadcastDisj::new(16, 2);
        let plan = FaultPlan::new().with(FaultSpec {
            kind: FaultKind::SlowPlayer(Duration::from_millis(2)),
            player: 0,
            sessions: SessionSelector::All,
        });
        let cfg = SchedulerConfig {
            workers: 2,
            batch_size: 2,
            queue_capacity: 3,
            deadline: Some(Duration::from_secs(10)),
            ..SchedulerConfig::default()
        };
        let run = run_sessions(
            &InProcessTransport,
            &proto,
            &|rng: &mut dyn RngCore| workload::random_sets(16, 2, 0.5, rng),
            &|inputs: &[_]| disj_function(inputs),
            40,
            5,
            &plan,
            &cfg,
        );
        assert_eq!(run.records.len(), 40);
        assert!(
            run.max_queue_depth <= cfg.queue_capacity + cfg.workers + 1,
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
        let a = run_sessions(
            &InProcessTransport,
            &proto,
            &sample,
            &|inputs: &[_]| disj_function(inputs),
            30,
            21,
            &FaultPlan::new(),
            &config(3),
        );
        let b = run_sessions(
            &InProcessTransport,
            &proto,
            &sample,
            &|inputs: &[_]| disj_function(inputs),
            30,
            21,
            &FaultPlan::new(),
            &config(5),
        );
        for (x, y) in a.records.iter().zip(&b.records) {
            assert_eq!(x.bits_written, y.bits_written);
            assert_eq!(x.output, y.output);
        }
    }
}
