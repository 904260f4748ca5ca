//! The fabric's two contracts, tested end to end:
//!
//! 1. **Determinism** — for any master seed, protocol, and pool shape, the
//!    fabric produces per-session transcripts *bit-identical* to
//!    the serial seeded runner, and a `RunReport` whose floating-point
//!    statistics match exactly.
//! 2. **Fault containment** — injected faults (crashes, dropped wakeups,
//!    slow players) end their sessions in structured outcomes within the
//!    deadline, never panic a worker, and never contaminate the error
//!    statistics of healthy sessions.

use std::time::{Duration, Instant};

use broadcast_ic::blackboard::protocol::run;
use broadcast_ic::blackboard::runner::{derive_trial_rng, monte_carlo_seeded};
use broadcast_ic::fabric::session::{
    FaultKind, FaultPlan, FaultSpec, SessionOutcome, SessionSelector,
};
use broadcast_ic::fabric::{monte_carlo_fabric, InProcessTransport, SchedulerConfig};
use broadcast_ic::protocols::and::{and_function, SequentialAnd};
use broadcast_ic::protocols::disj::broadcast::BroadcastDisj;
use broadcast_ic::protocols::disj::disj_function;
use broadcast_ic::protocols::workload;
use proptest::prelude::*;
use rand::{Rng, RngCore};
use rand_chacha::ChaCha8Rng;

fn config(workers: usize, keep: bool) -> SchedulerConfig {
    SchedulerConfig {
        workers,
        batch_size: 4,
        queue_capacity: 4,
        deadline: Some(Duration::from_secs(30)),
        keep_transcripts: keep,
        ..SchedulerConfig::default()
    }
}

/// Serial ground truth for session `i`: inputs, transcript, output.
fn serial_disj_transcripts(
    n: usize,
    k: usize,
    density: f64,
    sessions: u64,
    seed: u64,
) -> Vec<(broadcast_ic::blackboard::board::Board, bool, usize)> {
    (0..sessions)
        .map(|i| {
            let mut rng: ChaCha8Rng = derive_trial_rng(seed, i);
            let inputs = workload::random_sets(n, k, density, &mut rng);
            let exec = run(&BroadcastDisj::new(n, k), &inputs, &mut rng);
            (exec.board, exec.output, exec.bits_written)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Fabric == serial runner, transcript for transcript, on DISJ.
    #[test]
    fn fabric_disj_transcripts_match_serial(
        n in 16usize..80,
        k in 2usize..6,
        seed in 0u64..1_000_000,
        workers in 1usize..6,
    ) {
        let sessions = 12u64;
        let density = 0.7;
        let serial = serial_disj_transcripts(n, k, density, sessions, seed);

        let proto = BroadcastDisj::new(n, k);
        let fabric = monte_carlo_fabric(
            &InProcessTransport,
            &proto,
            &move |rng: &mut dyn RngCore| workload::random_sets(n, k, density, rng),
            &|inputs: &[_]| disj_function(inputs),
            sessions,
            seed,
            &FaultPlan::new(),
            &config(workers, true),
        );
        prop_assert_eq!(fabric.records.len(), serial.len());
        for (rec, (board, output, bits)) in fabric.records.iter().zip(&serial) {
            prop_assert_eq!(&rec.outcome, &SessionOutcome::Completed);
            prop_assert_eq!(rec.board.as_ref().expect("kept"), board);
            prop_assert_eq!(rec.output.as_ref(), Some(output));
            prop_assert_eq!(rec.bits_written, *bits);
        }
    }

    /// Fabric RunReport == serial seeded RunReport, floats included, on
    /// DISJ.
    #[test]
    fn fabric_disj_report_is_float_identical(
        n in 16usize..64,
        k in 2usize..5,
        seed in 0u64..1_000_000,
        workers in 1usize..5,
    ) {
        let sessions = 20u64;
        let proto = BroadcastDisj::new(n, k);
        let sample = move |rng: &mut dyn RngCore| workload::random_sets(n, k, 0.6, rng);
        let serial = monte_carlo_seeded::<_, _, _, ChaCha8Rng>(
            &proto, sample, |inputs: &[_]| disj_function(inputs), sessions, seed,
        );
        let cfg = config(workers, false);
        let inproc = monte_carlo_fabric(
            &InProcessTransport, &proto, &sample,
            &|inputs: &[_]| disj_function(inputs), sessions, seed, &FaultPlan::new(), &cfg,
        );
        let fabric = &inproc.report;
        prop_assert_eq!(fabric.trials, serial.trials);
        prop_assert_eq!(fabric.errors, serial.errors);
        prop_assert_eq!(fabric.comm.count(), serial.comm.count());
        prop_assert_eq!(fabric.comm.mean().to_bits(), serial.comm.mean().to_bits());
        prop_assert_eq!(
            fabric.comm.variance().to_bits(),
            serial.comm.variance().to_bits()
        );
        prop_assert_eq!(fabric.comm.min().to_bits(), serial.comm.min().to_bits());
        prop_assert_eq!(fabric.comm.max().to_bits(), serial.comm.max().to_bits());
    }

    /// Same determinism contract on AND_k, whose input sampling consumes a
    /// different bit pattern from the per-session RNG.
    #[test]
    fn fabric_and_report_is_float_identical(
        k in 2usize..8,
        seed in 0u64..1_000_000,
        workers in 1usize..5,
        p in 0.5f64..0.99,
    ) {
        let sessions = 24u64;
        let proto = SequentialAnd::new(k);
        let sample = move |rng: &mut dyn RngCore| -> Vec<bool> {
            (0..k).map(|_| rng.random_bool(p)).collect()
        };
        let serial = monte_carlo_seeded::<_, _, _, ChaCha8Rng>(
            &proto, sample, |inputs: &[bool]| and_function(inputs), sessions, seed,
        );
        let fabric = monte_carlo_fabric(
            &InProcessTransport, &proto, &sample,
            &|inputs: &[bool]| and_function(inputs), sessions, seed,
            &FaultPlan::new(), &config(workers, false),
        );
        prop_assert_eq!(fabric.report.trials, serial.trials);
        prop_assert_eq!(fabric.report.errors, serial.errors);
        prop_assert_eq!(
            fabric.report.comm.mean().to_bits(),
            serial.comm.mean().to_bits()
        );
        prop_assert_eq!(
            fabric.report.comm.variance().to_bits(),
            serial.comm.variance().to_bits()
        );
    }
}

#[test]
fn crashed_player_sessions_abort_and_others_complete() {
    let n = 64;
    let k = 4;
    let sessions = 60u64;
    let deadline = Duration::from_millis(800);
    let proto = BroadcastDisj::new(n, k);
    let plan = FaultPlan::new().with(FaultSpec {
        kind: FaultKind::CrashedPlayer,
        player: 2,
        sessions: SessionSelector::EveryNth(6),
    });
    let cfg = SchedulerConfig {
        workers: 4,
        batch_size: 4,
        queue_capacity: 4,
        deadline: Some(deadline),
        ..SchedulerConfig::default()
    };
    let started = Instant::now();
    let fabric = monte_carlo_fabric(
        &InProcessTransport,
        &proto,
        &move |rng: &mut dyn RngCore| workload::random_sets(n, k, 0.7, rng),
        &|inputs: &[_]| disj_function(inputs),
        sessions,
        9,
        &plan,
        &cfg,
    );
    // Sessions 0, 6, 12, ..., 54 crash: 10 of 60. Aborted (or timed out,
    // if the crash raced the deadline) — never panicked, never counted as
    // protocol errors.
    let faulty: Vec<_> = fabric
        .records
        .iter()
        .filter(|r| r.session_id % 6 == 0)
        .collect();
    assert_eq!(faulty.len(), 10);
    for rec in &faulty {
        match &rec.outcome {
            SessionOutcome::Aborted(reason) => {
                assert!(reason.contains("player 2"), "reason: {reason}")
            }
            SessionOutcome::TimedOut => {}
            SessionOutcome::Completed => panic!("session {} completed", rec.session_id),
        }
        assert!(rec.output.is_none());
        assert!(
            rec.latency <= deadline + Duration::from_secs(2),
            "fault resolved within the deadline (+margin)"
        );
    }
    for rec in fabric.records.iter().filter(|r| r.session_id % 6 != 0) {
        assert_eq!(rec.outcome, SessionOutcome::Completed);
        assert_eq!(rec.correct, Some(true));
    }
    // Error statistics cover only the 50 healthy sessions.
    assert_eq!(fabric.report.trials, 50);
    assert_eq!(fabric.report.errors, 0);
    assert_eq!(fabric.report.comm.count(), 50);
    assert_eq!(fabric.aborted + fabric.timed_out, 10);
    // The healthy sessions are *the same* sessions the serial runner would
    // have produced: spot-check against standalone replays.
    for rec in fabric
        .records
        .iter()
        .filter(|r| r.session_id % 6 != 0)
        .take(5)
    {
        let mut rng: ChaCha8Rng = derive_trial_rng(9, rec.session_id);
        let inputs = workload::random_sets(n, k, 0.7, &mut rng);
        let exec = run(&proto, &inputs, &mut rng);
        assert_eq!(rec.bits_written, exec.bits_written);
        assert_eq!(rec.output, Some(exec.output));
    }
    assert!(
        started.elapsed() < Duration::from_secs(60),
        "the whole run finishes promptly"
    );
}

#[test]
fn dropped_wakeup_sessions_time_out_within_deadline() {
    let proto = BroadcastDisj::new(32, 3);
    let deadline = Duration::from_millis(100);
    let plan = FaultPlan::new().with(FaultSpec {
        kind: FaultKind::DroppedWakeup,
        player: 0,
        sessions: SessionSelector::One(3),
    });
    let cfg = SchedulerConfig {
        workers: 2,
        batch_size: 2,
        queue_capacity: 2,
        deadline: Some(deadline),
        ..SchedulerConfig::default()
    };
    let fabric = monte_carlo_fabric(
        &InProcessTransport,
        &proto,
        &|rng: &mut dyn RngCore| workload::random_sets(32, 3, 0.6, rng),
        &|inputs: &[_]| disj_function(inputs),
        8,
        5,
        &plan,
        &cfg,
    );
    assert_eq!(fabric.records[3].outcome, SessionOutcome::TimedOut);
    assert!(fabric.records[3].latency >= deadline);
    assert!(fabric.records[3].latency < deadline + Duration::from_secs(2));
    for rec in fabric.records.iter().filter(|r| r.session_id != 3) {
        assert_eq!(rec.outcome, SessionOutcome::Completed);
    }
    assert_eq!(fabric.report.trials, 7);
    assert_eq!(fabric.timed_out, 1);
}
