//! Aggregate telemetry for a fabric run.
//!
//! [`FabricMetrics`] condenses a [`SchedulerRun`] into outcome counts,
//! latency and queue-depth histograms (fixed bucket ladders from
//! [`bci_telemetry::hist`]), and pooled bits-per-session statistics.
//! Because every ingredient is mergeable — counts add, histograms add
//! bucket-wise, [`CommStats`] merges exactly — metrics from independent
//! runs combine via [`FabricMetrics::merge`] into the metrics of the
//! concatenated workload.

use std::time::Duration;

use bci_blackboard::stats::CommStats;
use bci_telemetry::hist::{Histogram, LATENCY_US_BOUNDS, QUEUE_DEPTH_BOUNDS};

use crate::scheduler::SchedulerRun;
use crate::session::SessionOutcome;

/// Latency, throughput, and queue telemetry for one (or, after
/// [`merge`](FabricMetrics::merge), several) fabric runs.
#[derive(Debug, Clone)]
pub struct FabricMetrics {
    /// Total sessions scheduled.
    pub sessions: u64,
    /// Sessions that completed normally.
    pub completed: u64,
    /// Sessions that hit their deadline.
    pub timed_out: u64,
    /// Sessions aborted (crash, panic, runaway).
    pub aborted: u64,
    /// Session-latency histogram in microseconds
    /// ([`LATENCY_US_BOUNDS`] ladder); percentiles come from
    /// [`latency_p50`](FabricMetrics::latency_p50) and friends.
    pub latency: Histogram,
    /// Worst session latency (exact, not bucketed).
    pub latency_max: Duration,
    /// Queue-depth histogram: one sample per enqueued batch
    /// ([`QUEUE_DEPTH_BOUNDS`] ladder).
    pub queue_depth: Histogram,
    /// Bits-per-session statistics over completed sessions, pooled from
    /// the per-worker shards via
    /// [`CommStats::merge`](bci_blackboard::stats::CommStats).
    pub bits: CommStats,
    /// Highest queue depth (batches) observed.
    pub max_queue_depth: usize,
    /// Wall-clock duration of the run (summed across merged runs).
    pub elapsed: Duration,
    /// Worker threads used (max across merged runs).
    pub workers: usize,
}

impl FabricMetrics {
    /// Computes the metrics for a finished [`SchedulerRun`].
    pub fn collect<O>(run: &SchedulerRun<O>, workers: usize) -> Self {
        let mut completed = 0u64;
        let mut timed_out = 0u64;
        let mut aborted = 0u64;
        let mut latency = Histogram::new(LATENCY_US_BOUNDS);
        let mut latency_max = Duration::ZERO;
        for rec in &run.records {
            match rec.outcome {
                SessionOutcome::Completed => completed += 1,
                SessionOutcome::TimedOut => timed_out += 1,
                SessionOutcome::Aborted(_) => aborted += 1,
            }
            latency.record(rec.latency.as_micros() as u64);
            latency_max = latency_max.max(rec.latency);
        }
        let mut bits = CommStats::new();
        for shard in &run.shards {
            bits.merge(shard);
        }
        FabricMetrics {
            sessions: run.records.len() as u64,
            completed,
            timed_out,
            aborted,
            latency,
            latency_max,
            queue_depth: run.queue_depth_hist.clone(),
            bits,
            max_queue_depth: run.max_queue_depth,
            elapsed: run.elapsed,
            workers,
        }
    }

    /// An all-zero metrics value, the identity element of
    /// [`merge`](FabricMetrics::merge).
    pub fn empty() -> Self {
        FabricMetrics {
            sessions: 0,
            completed: 0,
            timed_out: 0,
            aborted: 0,
            latency: Histogram::new(LATENCY_US_BOUNDS),
            latency_max: Duration::ZERO,
            queue_depth: Histogram::new(QUEUE_DEPTH_BOUNDS),
            bits: CommStats::new(),
            max_queue_depth: 0,
            elapsed: Duration::ZERO,
            workers: 0,
        }
    }

    /// Folds `other` into `self`, producing the metrics of the combined
    /// workload: counts and histograms add, `bits` merges exactly,
    /// `latency_max`/`max_queue_depth`/`workers` take the max, and
    /// `elapsed` sums (total wall-clock across the merged runs).
    pub fn merge(&mut self, other: &FabricMetrics) {
        self.sessions += other.sessions;
        self.completed += other.completed;
        self.timed_out += other.timed_out;
        self.aborted += other.aborted;
        self.latency.merge(&other.latency);
        self.latency_max = self.latency_max.max(other.latency_max);
        self.queue_depth.merge(&other.queue_depth);
        self.bits.merge(&other.bits);
        self.max_queue_depth = self.max_queue_depth.max(other.max_queue_depth);
        self.elapsed += other.elapsed;
        self.workers = self.workers.max(other.workers);
    }

    /// Median session latency (bucket-resolved, exact max for outliers).
    pub fn latency_p50(&self) -> Duration {
        Duration::from_micros(self.latency.percentile(50.0))
    }

    /// 95th-percentile session latency.
    pub fn latency_p95(&self) -> Duration {
        Duration::from_micros(self.latency.percentile(95.0))
    }

    /// 99th-percentile session latency.
    pub fn latency_p99(&self) -> Duration {
        Duration::from_micros(self.latency.percentile(99.0))
    }

    /// Sessions per wall-clock second.
    pub fn sessions_per_sec(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs > 0.0 {
            self.sessions as f64 / secs
        } else {
            0.0
        }
    }
}

/// The `p`-th percentile (nearest-rank) of an ascending-sorted slice.
pub fn percentile(sorted: &[Duration], p: f64) -> Duration {
    if sorted.is_empty() {
        return Duration::ZERO;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }

    #[test]
    fn percentile_nearest_rank() {
        let sorted: Vec<Duration> = (1..=100).map(ms).collect();
        assert_eq!(percentile(&sorted, 50.0), ms(50));
        assert_eq!(percentile(&sorted, 99.0), ms(99));
        assert_eq!(percentile(&sorted, 100.0), ms(100));
        assert_eq!(percentile(&sorted, 1.0), ms(1));
        assert_eq!(percentile(&[], 50.0), Duration::ZERO);
        assert_eq!(percentile(&[ms(7)], 99.0), ms(7));
    }

    #[test]
    fn empty_metrics_do_not_divide_by_zero() {
        let run: SchedulerRun<bool> = SchedulerRun {
            records: Vec::new(),
            shards: Vec::new(),
            max_queue_depth: 0,
            queue_depth_hist: Histogram::new(QUEUE_DEPTH_BOUNDS),
            elapsed: Duration::ZERO,
        };
        let m = FabricMetrics::collect(&run, 4);
        assert_eq!(m.sessions, 0);
        assert_eq!(m.sessions_per_sec(), 0.0);
        assert_eq!(m.latency_p50(), Duration::ZERO);
        assert_eq!(m.latency_p99(), Duration::ZERO);
    }

    #[test]
    fn merge_combines_counts_histograms_and_extremes() {
        let mut a = FabricMetrics::empty();
        a.sessions = 10;
        a.completed = 9;
        a.timed_out = 1;
        a.latency.record(100);
        a.latency_max = Duration::from_micros(100);
        a.queue_depth.record(2);
        a.bits.record(32.0);
        a.max_queue_depth = 2;
        a.elapsed = ms(5);
        a.workers = 2;

        let mut b = FabricMetrics::empty();
        b.sessions = 4;
        b.completed = 3;
        b.aborted = 1;
        b.latency.record(900);
        b.latency_max = Duration::from_micros(900);
        b.queue_depth.record(7);
        b.bits.record(64.0);
        b.max_queue_depth = 7;
        b.elapsed = ms(3);
        b.workers = 8;

        a.merge(&b);
        assert_eq!(a.sessions, 14);
        assert_eq!(a.completed, 12);
        assert_eq!(a.timed_out, 1);
        assert_eq!(a.aborted, 1);
        assert_eq!(a.latency.count(), 2);
        assert_eq!(a.latency_max, Duration::from_micros(900));
        assert_eq!(a.queue_depth.count(), 2);
        assert_eq!(a.bits.count(), 2);
        assert_eq!(a.max_queue_depth, 7);
        assert_eq!(a.elapsed, ms(8));
        assert_eq!(a.workers, 8);
    }

    #[test]
    fn merge_with_empty_is_identity_on_counts() {
        let mut a = FabricMetrics::empty();
        a.sessions = 3;
        a.completed = 3;
        a.latency.record(50);
        a.merge(&FabricMetrics::empty());
        assert_eq!(a.sessions, 3);
        assert_eq!(a.latency.count(), 1);
        assert_eq!(a.workers, 0);
    }

    #[test]
    fn latency_percentiles_come_from_the_histogram() {
        let mut m = FabricMetrics::empty();
        for _ in 0..99 {
            m.latency.record(80); // -> bucket le=100
        }
        m.latency.record(9_000); // -> bucket le=10_000
        m.latency_max = Duration::from_micros(9_000);
        // 99 samples land in the `le = 100` bucket; percentiles
        // interpolate inside [min=80, bound=100] by rank, and the
        // straggler only shows at p100.
        assert_eq!(m.latency_p50(), Duration::from_micros(90));
        assert_eq!(m.latency_p95(), Duration::from_micros(99));
        assert_eq!(m.latency_p99(), Duration::from_micros(100));
        assert_eq!(
            Duration::from_micros(m.latency.percentile(100.0)),
            m.latency_max
        );
    }
}
