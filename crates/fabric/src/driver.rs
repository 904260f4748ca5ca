//! Parallel Monte-Carlo with serial-identical statistics.
//!
//! [`monte_carlo_fabric`] is the fabric's counterpart to
//! [`bci_blackboard::runner::monte_carlo_seeded`]. Both derive session
//! `i`'s RNG from `(master_seed, i)`, so each session's inputs and
//! transcript are identical regardless of which worker runs it or when.
//! To make the *statistics* identical too — Welford accumulation is not
//! associative in floating point — the driver replays the per-session
//! records in session-id order when assembling the [`RunReport`], instead
//! of using the per-worker shards (those still feed the
//! [`FabricMetrics`], where rounding is irrelevant).
//!
//! Sessions that time out or abort are excluded from the report's
//! communication and error statistics: a fault is an execution failure,
//! not a protocol error. They are accounted separately in
//! [`FabricReport::timed_out`] / [`FabricReport::aborted`].

use bci_blackboard::protocol::Protocol;
use bci_blackboard::runner::RunReport;
use bci_blackboard::stats::CommStats;
use rand::RngCore;

use crate::metrics::FabricMetrics;
use crate::scheduler::{run_sessions, SchedulerConfig, SessionRecord};
use crate::session::{FaultPlan, SessionOutcome};
use crate::transport::Transport;

/// The fabric driver's full product: the Monte-Carlo report over completed
/// sessions, failure accounting, pool telemetry, and per-session records.
#[derive(Debug)]
pub struct FabricReport<O> {
    /// Communication/error statistics over *completed* sessions,
    /// bit-identical to the serial seeded runner when no faults fire.
    pub report: RunReport,
    /// Sessions that hit their deadline (excluded from `report`).
    pub timed_out: u64,
    /// Sessions aborted by a crash/panic/runaway (excluded from `report`).
    pub aborted: u64,
    /// Latency/throughput/queue telemetry.
    pub metrics: FabricMetrics,
    /// Per-session records, sorted by session id.
    pub records: Vec<SessionRecord<O>>,
}

/// Runs `sessions` Monte-Carlo sessions of `protocol` on the fabric.
///
/// For a fault-free run, `report` equals the one returned by
/// `monte_carlo_seeded::<_, _, _, ChaCha8Rng>(protocol, sample_inputs,
/// reference, sessions, master_seed)` — same trial inputs, same
/// transcripts, same floating-point statistics.
///
/// # Panics
///
/// Panics on a zero-sized pool/queue (see
/// [`run_sessions`]).
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
    let run = run_sessions(
        transport,
        protocol,
        sample_inputs,
        reference,
        sessions,
        master_seed,
        plan,
        config,
    );
    let metrics = FabricMetrics::collect(&run, config.workers);

    // Ordered replay: accumulate in session-id order so the float stream
    // matches the serial runner exactly.
    let mut comm = CommStats::new();
    let mut errors = 0u64;
    let mut completed = 0u64;
    let mut timed_out = 0u64;
    let mut aborted = 0u64;
    for rec in &run.records {
        match rec.outcome {
            SessionOutcome::Completed => {
                completed += 1;
                comm.record(rec.bits_written as f64);
                if rec.correct == Some(false) {
                    errors += 1;
                }
            }
            SessionOutcome::TimedOut => timed_out += 1,
            SessionOutcome::Aborted(_) => aborted += 1,
        }
    }
    FabricReport {
        report: RunReport {
            comm,
            errors,
            trials: completed,
        },
        timed_out,
        aborted,
        metrics,
        records: run.records,
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
    use rand_chacha::ChaCha8Rng;
    use std::time::Duration;

    fn cfg(workers: usize) -> SchedulerConfig {
        SchedulerConfig {
            workers,
            batch_size: 16,
            queue_capacity: 4,
            deadline: Some(Duration::from_secs(10)),
            ..SchedulerConfig::default()
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
    fn faulty_sessions_are_excluded_from_error_statistics() {
        let proto = BroadcastDisj::new(64, 4);
        let sample = |rng: &mut dyn RngCore| workload::random_sets(64, 4, 0.7, rng);
        let reference = |inputs: &[_]| disj_function(inputs);
        let plan = FaultPlan::new().with(FaultSpec {
            kind: FaultKind::CrashedPlayer,
            player: 1,
            sessions: SessionSelector::EveryNth(5),
        });
        let fabric = monte_carlo_fabric(
            &InProcessTransport,
            &proto,
            &sample,
            &reference,
            50,
            23,
            &plan,
            &cfg(4),
        );
        assert_eq!(fabric.aborted, 10, "sessions 0, 5, ..., 45 crash");
        assert_eq!(fabric.report.trials, 40);
        assert_eq!(fabric.report.errors, 0, "completed sessions are correct");
        assert_eq!(fabric.report.comm.count(), 40);
        assert_eq!(fabric.metrics.completed, 40);
        assert_eq!(fabric.metrics.aborted, 10);
    }

    #[test]
    fn metrics_throughput_and_latency_are_populated() {
        let proto = BroadcastDisj::new(32, 3);
        let fabric = monte_carlo_fabric(
            &InProcessTransport,
            &proto,
            &|rng: &mut dyn RngCore| workload::random_sets(32, 3, 0.5, rng),
            &|inputs: &[_]| disj_function(inputs),
            64,
            1,
            &FaultPlan::new(),
            &cfg(4),
        );
        let m = &fabric.metrics;
        assert_eq!(m.sessions, 64);
        assert!(m.sessions_per_sec() > 0.0);
        assert!(m.latency_p50() <= m.latency_p99());
        assert!(m.latency_p99() <= m.latency_max + Duration::from_micros(1));
        assert_eq!(m.bits.count(), 64);
        assert_eq!(m.latency.count(), 64);
        assert!(m.queue_depth.count() >= 1, "one sample per batch enqueued");
        assert!(m.max_queue_depth >= 1);
        assert_eq!(m.workers, 4);
    }

    #[test]
    fn recording_does_not_change_the_report_and_populates_telemetry() {
        let proto = BroadcastDisj::new(48, 4);
        let sample = |rng: &mut dyn RngCore| workload::random_sets(48, 4, 0.6, rng);
        let reference = |inputs: &[_]| disj_function(inputs);
        let quiet = monte_carlo_fabric(
            &InProcessTransport,
            &proto,
            &sample,
            &reference,
            80,
            29,
            &FaultPlan::new(),
            &cfg(3),
        );
        let recorder = bci_telemetry::Recorder::new();
        let mut traced_cfg = cfg(3);
        traced_cfg.recorder = recorder.clone();
        let traced = monte_carlo_fabric(
            &InProcessTransport,
            &proto,
            &sample,
            &reference,
            80,
            29,
            &FaultPlan::new(),
            &traced_cfg,
        );
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
