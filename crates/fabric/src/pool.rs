//! A generic deterministic job pool — the fabric's worker/queue machinery,
//! decoupled from protocol sessions.
//!
//! [`JobPool`] runs `Fn(seed, &point) -> T` jobs over a slice of sweep
//! points on a fixed worker pool, with bounded-queue backpressure: the
//! producer enumerates index batches into a
//! [`std::sync::mpsc::sync_channel`] and blocks when workers fall behind.
//! Determinism does not depend on the schedule — job `i`'s seed is derived
//! from `(master_seed, i)` via
//! [`bci_blackboard::runner::derive_trial_seed`], and outputs are returned
//! **in point order**, so the result vector is byte-identical to a serial
//! `points.iter().map(...)` loop for any worker count.
//!
//! [`monte_carlo_fabric`](crate::driver::monte_carlo_fabric) is one
//! client: it submits one job per session. Experiment sweeps (`bci-bench`'s
//! `report_for`, `bci experiments run`) are the other: one job per grid
//! point.

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use bci_blackboard::runner::derive_trial_seed;
use bci_telemetry::hist::{Histogram, LATENCY_US_BOUNDS, QUEUE_DEPTH_BOUNDS};
use bci_telemetry::{Json, Recorder, SpanKind};

/// Job-pool tuning knobs.
#[derive(Debug, Clone)]
pub struct PoolConfig {
    /// Number of worker threads.
    pub workers: usize,
    /// Jobs per queue entry. Batching amortizes queue synchronization over
    /// several jobs when individual jobs are very short.
    pub batch_size: usize,
    /// Maximum batches queued ahead of the workers. The producer blocks
    /// when the queue is full (backpressure).
    pub queue_capacity: usize,
    /// Prefix for the pool's counter/histogram names (`{prefix}.queue_depth`,
    /// `{prefix}.backpressure_stalls`, `{prefix}.stall_us`, `{prefix}.job_us`).
    /// `monte_carlo_fabric` passes `"fabric"` to keep its historical metric
    /// names; standalone pools default to `"pool"`.
    pub metric_prefix: &'static str,
    /// Emit a [`SpanKind::Job`] span (plus a `{prefix}.job_us` histogram
    /// sample) per job. Clients that already emit their own per-job spans —
    /// `monte_carlo_fabric` emits [`SpanKind::Session`] — turn this off so
    /// the event stream is not doubled.
    pub job_spans: bool,
    /// Telemetry sink. The default ([`Recorder::disabled`]) records nothing
    /// and costs one branch per instrumentation site; recording on or off,
    /// pool outputs are byte-identical.
    pub recorder: Recorder,
}

impl Default for PoolConfig {
    fn default() -> Self {
        PoolConfig {
            workers: 4,
            batch_size: 32,
            queue_capacity: 8,
            metric_prefix: "pool",
            job_spans: true,
            recorder: Recorder::disabled(),
        }
    }
}

/// Everything a pool run produces: ordered outputs plus pool telemetry.
#[derive(Debug)]
pub struct PoolRun<T> {
    /// One output per point, **in point order** (serial order), regardless
    /// of worker count or scheduling.
    pub outputs: Vec<T>,
    /// Highest queue depth (batches) observed during the run. The gauge
    /// counts a batch from just before the producer enqueues it until just
    /// after a worker dequeues it, so it can transiently exceed the queue
    /// capacity by up to `workers + 1`.
    pub max_queue_depth: usize,
    /// Queue-depth histogram: one sample per enqueued batch, at enqueue
    /// time.
    pub queue_depth_hist: Histogram,
    /// Wall-clock duration of the whole run.
    pub elapsed: Duration,
}

/// A fixed-size deterministic worker pool for `Fn(seed, &point) -> T` jobs.
///
/// # Example
///
/// ```
/// use bci_fabric::pool::{JobPool, PoolConfig};
///
/// let pool = JobPool::new(PoolConfig { workers: 3, ..PoolConfig::default() });
/// let points: Vec<u64> = (0..100).collect();
/// let run = pool.run(&points, 42, &|seed, &p| p * 2 + seed % 2);
/// // Outputs are in point order, independent of which worker ran what.
/// assert_eq!(run.outputs.len(), 100);
/// assert_eq!(run.outputs[7] / 2, 7);
/// ```
#[derive(Debug, Clone, Default)]
pub struct JobPool {
    config: PoolConfig,
}

impl JobPool {
    /// Creates a pool with the given configuration.
    ///
    /// # Panics
    ///
    /// Panics if `workers`, `batch_size`, or `queue_capacity` is zero.
    pub fn new(config: PoolConfig) -> JobPool {
        assert!(config.workers > 0, "need at least one worker");
        assert!(config.batch_size > 0, "batches hold at least one job");
        assert!(config.queue_capacity > 0, "queue needs capacity");
        JobPool { config }
    }

    /// The pool's configuration.
    pub fn config(&self) -> &PoolConfig {
        &self.config
    }

    /// Runs points whose work splits into independently-seeded *chunks* —
    /// the intra-point parallelism lane for Monte-Carlo sweeps whose
    /// critical path is one heavy grid point.
    ///
    /// `chunks(i, &point)` names the number of sub-jobs for point `i`
    /// (must be ≥ 1 and must not depend on the worker count);
    /// `job(point_seed, &point, chunk)` runs one sub-job, where
    /// `point_seed = derive_trial_seed(master_seed, i)` is the *point's*
    /// seed — the job derives its own per-trial seeds from it, so chunk
    /// outputs are independent of how trials are grouped;
    /// `merge(i, &point, parts)` folds the chunk outputs (always in chunk
    /// order) into the point output on the caller's thread.
    ///
    /// Because chunking is part of the call rather than the schedule, the
    /// merged outputs are byte-identical for any worker count; with one
    /// chunk everywhere this degenerates to [`run`](JobPool::run).
    ///
    /// # Panics
    ///
    /// Panics if `chunks` returns 0 for any point.
    pub fn run_chunked<P, T, C, J, M>(
        &self,
        points: &[P],
        master_seed: u64,
        chunks: &C,
        job: &J,
        merge: &M,
    ) -> PoolRun<T>
    where
        P: Sync,
        T: Send,
        C: Fn(usize, &P) -> usize,
        J: Fn(u64, &P, usize) -> T + Sync,
        M: Fn(usize, &P, Vec<T>) -> T,
    {
        // Flatten to (point, chunk) sub-jobs; the flat list is what the
        // queue schedules, so a 40-trial point occupies many workers at
        // once instead of bounding the whole run.
        let counts: Vec<usize> = points
            .iter()
            .enumerate()
            .map(|(i, p)| {
                let c = chunks(i, p);
                assert!(c > 0, "point {i} must have at least one chunk");
                c
            })
            .collect();
        let subjobs: Vec<(usize, usize)> = counts
            .iter()
            .enumerate()
            .flat_map(|(i, &c)| (0..c).map(move |chunk| (i, chunk)))
            .collect();
        let run = self.run(&subjobs, master_seed, &|_, &(i, chunk)| {
            job(derive_trial_seed(master_seed, i as u64), &points[i], chunk)
        });
        // Sub-job outputs come back in sub-job order (= point-major), so
        // each point's chunk outputs are a contiguous run.
        let mut outputs = run.outputs.into_iter();
        let merged = counts
            .iter()
            .enumerate()
            .map(|(i, &c)| merge(i, &points[i], outputs.by_ref().take(c).collect()))
            .collect();
        PoolRun {
            outputs: merged,
            ..run
        }
    }

    /// Runs one job per point; job `i` receives
    /// `derive_trial_seed(master_seed, i)`.
    pub fn run<P, T, J>(&self, points: &[P], master_seed: u64, job: &J) -> PoolRun<T>
    where
        P: Sync,
        T: Send,
        J: Fn(u64, &P) -> T + Sync,
    {
        let config = &self.config;
        let start = Instant::now();
        let (batch_tx, batch_rx) = mpsc::sync_channel::<Range<usize>>(config.queue_capacity);
        let batch_rx = Mutex::new(batch_rx);
        let (result_tx, result_rx) = mpsc::channel::<(usize, T)>();
        let queue_depth = AtomicUsize::new(0);
        let max_queue_depth = AtomicUsize::new(0);

        let mut slots: Vec<Option<T>> = Vec::with_capacity(points.len());
        slots.resize_with(points.len(), || None);
        let mut queue_depth_hist = Histogram::new(QUEUE_DEPTH_BOUNDS);

        let recorder = &config.recorder;
        let prefix = config.metric_prefix;

        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(config.workers);
            for _ in 0..config.workers {
                let result_tx = result_tx.clone();
                let batch_rx = &batch_rx;
                let queue_depth = &queue_depth;
                handles.push(scope.spawn(move || {
                    loop {
                        // Take the receiver lock only long enough to pop one
                        // batch; the batch itself is processed lock-free.
                        // Poisoning requires a sibling worker to panic while
                        // holding the lock, which `recv()` cannot do — and a
                        // panicking job propagates through `join` below
                        // anyway, so unwrapping here adds no failure mode.
                        let batch = match batch_rx.lock().expect("queue lock").recv() {
                            Ok(batch) => batch,
                            Err(_) => break, // producer done and queue drained
                        };
                        queue_depth.fetch_sub(1, Ordering::Relaxed);
                        for index in batch {
                            let seed = derive_trial_seed(master_seed, index as u64);
                            let spans = config.job_spans && recorder.enabled();
                            let token = spans.then(|| {
                                let token =
                                    recorder.span_start(SpanKind::Job, index as u64, vec![]);
                                (token, Instant::now())
                            });
                            let output = job(seed, &points[index]);
                            if let Some((token, began)) = token {
                                let latency = began.elapsed();
                                recorder.hist_record(
                                    metric_name(prefix, "job_us"),
                                    latency.as_micros() as u64,
                                    LATENCY_US_BOUNDS,
                                );
                                recorder.span_end(
                                    SpanKind::Job,
                                    index as u64,
                                    token,
                                    vec![("latency_us", Json::UInt(latency.as_micros() as u64))],
                                );
                            }
                            if result_tx.send((index, output)).is_err() {
                                return; // collector went away
                            }
                        }
                    }
                }));
            }
            drop(result_tx); // the collector detects completion by hangup

            // Producer: enumerate index batches, blocking on the bounded
            // queue when the workers fall behind.
            let mut next = 0usize;
            let mut batch_index = 0u64;
            while next < points.len() {
                let end = (next + config.batch_size).min(points.len());
                let batch = next..end;
                next = end;
                let depth = queue_depth.fetch_add(1, Ordering::Relaxed) + 1;
                max_queue_depth.fetch_max(depth, Ordering::Relaxed);
                queue_depth_hist.record(depth as u64);
                if recorder.enabled() {
                    recorder.hist_record(
                        metric_name(prefix, "queue_depth"),
                        depth as u64,
                        QUEUE_DEPTH_BOUNDS,
                    );
                    if recorder.events_enabled() {
                        recorder.point(
                            SpanKind::Batch,
                            batch_index,
                            vec![
                                ("first", Json::UInt(batch.start as u64)),
                                ("len", Json::UInt(batch.len() as u64)),
                                ("depth", Json::UInt(depth as u64)),
                            ],
                        );
                    }
                }
                batch_index += 1;
                // Distinguish an immediate hand-off from a backpressure
                // stall: try first, and only if the queue is full count the
                // stall and fall back to the blocking send.
                match batch_tx.try_send(batch) {
                    Ok(()) => {}
                    Err(mpsc::TrySendError::Full(batch)) => {
                        let stalled = Instant::now();
                        let failed = batch_tx.send(batch).is_err();
                        if recorder.enabled() {
                            recorder.counter_add(metric_name(prefix, "backpressure_stalls"), 1);
                            recorder.hist_record(
                                metric_name(prefix, "stall_us"),
                                stalled.elapsed().as_micros() as u64,
                                LATENCY_US_BOUNDS,
                            );
                        }
                        if failed {
                            break; // all workers died (only possible via panic)
                        }
                    }
                    Err(mpsc::TrySendError::Disconnected(_)) => {
                        break; // all workers died (only possible via panic)
                    }
                }
            }
            drop(batch_tx); // workers drain the queue and exit

            for (index, output) in result_rx.iter() {
                slots[index] = Some(output);
            }
            for handle in handles {
                // Deliberate: a panicking job must fail the whole run, not
                // silently drop its output, so the worker's panic payload is
                // re-raised on the caller's thread here.
                handle.join().expect("worker panicked");
            }
        });

        let outputs = slots
            .into_iter()
            .enumerate()
            // Invariant: the producer enqueued every index exactly once and
            // all workers joined cleanly above, so every slot is filled; an
            // empty slot means the pool itself lost a result.
            .map(|(i, slot)| slot.unwrap_or_else(|| panic!("job {i} produced no output")))
            .collect();
        PoolRun {
            outputs,
            max_queue_depth: max_queue_depth.load(Ordering::Relaxed),
            queue_depth_hist,
            elapsed: start.elapsed(),
        }
    }
}

/// Interns `{prefix}.{suffix}` as a `&'static str`.
///
/// The recorder keys counters and histograms by `&'static str` so the hot
/// path never hashes owned strings. Pool metric names are composed at run
/// time from the configurable prefix, so they are leaked — once per
/// distinct `(prefix, suffix)` pair per process, which is bounded by the
/// handful of prefixes clients use ("fabric", "pool", "experiments").
fn metric_name(prefix: &'static str, suffix: &'static str) -> &'static str {
    use std::collections::HashMap;
    use std::sync::OnceLock;
    static NAMES: OnceLock<Mutex<HashMap<(&'static str, &'static str), &'static str>>> =
        OnceLock::new();
    let map = NAMES.get_or_init(|| Mutex::new(HashMap::new()));
    // Poisoning would need a formatting/allocation panic inside the critical
    // section below; there is no recovery that keeps metric names coherent,
    // so propagating the panic is the right behavior.
    let mut map = map.lock().expect("metric-name lock");
    map.entry((prefix, suffix))
        .or_insert_with(|| Box::leak(format!("{prefix}.{suffix}").into_boxed_str()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool(workers: usize) -> JobPool {
        JobPool::new(PoolConfig {
            workers,
            batch_size: 4,
            queue_capacity: 3,
            ..PoolConfig::default()
        })
    }

    #[test]
    fn outputs_are_in_point_order_for_any_worker_count() {
        let points: Vec<u32> = (0..101).collect();
        let serial: Vec<u64> = points
            .iter()
            .enumerate()
            .map(|(i, &p)| derive_trial_seed(9, i as u64) ^ u64::from(p))
            .collect();
        for workers in [1usize, 2, 5, 8] {
            let run = pool(workers).run(&points, 9, &|seed, &p| seed ^ u64::from(p));
            assert_eq!(run.outputs, serial, "workers = {workers}");
        }
    }

    #[test]
    fn seeds_follow_the_trial_derivation() {
        let points = [(); 5];
        let run = pool(2).run(&points, 77, &|seed, _| seed);
        for (i, &seed) in run.outputs.iter().enumerate() {
            assert_eq!(seed, derive_trial_seed(77, i as u64));
        }
    }

    #[test]
    fn chunked_outputs_merge_in_order_for_any_worker_count() {
        // Each point's output is the list of (chunk, per-trial seed) pairs
        // its chunks produced, so the test detects both reordered chunks
        // and wrong seed derivation.
        let points: Vec<u64> = (0..9).map(|i| 3 + (i % 4)).collect(); // trials per point
        let job = |point_seed: u64, &_trials: &u64, chunk: usize| {
            vec![(chunk, derive_trial_seed(point_seed, chunk as u64))]
        };
        let merge = |_: usize, _: &u64, parts: Vec<Vec<(usize, u64)>>| {
            parts.into_iter().flatten().collect::<Vec<_>>()
        };
        let reference: Vec<Vec<(usize, u64)>> = points
            .iter()
            .enumerate()
            .map(|(i, &trials)| {
                let point_seed = derive_trial_seed(5, i as u64);
                (0..trials as usize)
                    .map(|c| (c, derive_trial_seed(point_seed, c as u64)))
                    .collect()
            })
            .collect();
        for workers in [1usize, 2, 4, 7] {
            let run =
                pool(workers).run_chunked(&points, 5, &|_, &trials| trials as usize, &job, &merge);
            assert_eq!(run.outputs, reference, "workers = {workers}");
        }
    }

    #[test]
    fn chunked_with_one_chunk_everywhere_degenerates_to_run() {
        let points: Vec<u32> = (0..37).collect();
        let plain = pool(3).run(&points, 8, &|seed, &p| seed ^ u64::from(p));
        let chunked = pool(3).run_chunked(
            &points,
            8,
            &|_, _| 1,
            &|seed, &p, _| seed ^ u64::from(p),
            &|_, _, mut parts: Vec<u64>| parts.pop().expect("one chunk"),
        );
        assert_eq!(plain.outputs, chunked.outputs);
    }

    #[test]
    #[should_panic(expected = "at least one chunk")]
    fn chunked_rejects_zero_chunks() {
        pool(2).run_chunked(&[1u8], 0, &|_, _| 0, &|_, _, _| 0u8, &|_, _, _| 0u8);
    }

    #[test]
    fn empty_grid_is_fine() {
        let run = pool(4).run(&[] as &[u8], 1, &|_, _| 0u8);
        assert!(run.outputs.is_empty());
        assert_eq!(run.max_queue_depth, 0);
    }

    #[test]
    fn queue_depth_is_bounded_and_latency_recorded() {
        let points: Vec<u8> = vec![0; 64];
        let p = JobPool::new(PoolConfig {
            workers: 2,
            batch_size: 2,
            queue_capacity: 3,
            ..PoolConfig::default()
        });
        let run = p.run(&points, 0, &|_, _| {
            std::thread::sleep(Duration::from_micros(200))
        });
        assert!(run.max_queue_depth >= 1);
        assert!(
            run.max_queue_depth <= 3 + 2 + 1,
            "depth {} exceeds capacity + workers + 1",
            run.max_queue_depth
        );
        assert!(run.elapsed > Duration::ZERO);
    }

    #[test]
    fn job_spans_and_metrics_are_emitted_when_enabled() {
        let recorder = Recorder::new();
        let p = JobPool::new(PoolConfig {
            workers: 2,
            recorder: recorder.clone(),
            ..PoolConfig::default()
        });
        let points: Vec<u8> = vec![0; 10];
        p.run(&points, 0, &|_, _| ());
        let snap = recorder.snapshot();
        assert_eq!(snap.hist("pool.job_us").map(|h| h.count()), Some(10));
        // One start + one end event per job, plus batch points.
        assert!(recorder.events().len() >= 20);
    }

    #[test]
    fn job_spans_can_be_disabled() {
        let recorder = Recorder::new();
        let p = JobPool::new(PoolConfig {
            workers: 2,
            job_spans: false,
            recorder: recorder.clone(),
            ..PoolConfig::default()
        });
        let points: Vec<u8> = vec![0; 10];
        p.run(&points, 0, &|_, _| ());
        let snap = recorder.snapshot();
        assert!(snap.hist("pool.job_us").is_none());
        assert!(recorder.events().iter().all(|e| e.span != SpanKind::Job));
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_panics() {
        JobPool::new(PoolConfig {
            workers: 0,
            ..PoolConfig::default()
        });
    }
}
