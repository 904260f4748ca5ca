//! Telemetry must be purely observational: turning the recorder on — in
//! either mode, at any worker count — leaves the
//! fabric's `RunReport` bit-identical to the serial seeded runner, while
//! still populating counters, histograms, and (in event mode) the event
//! stream.

use std::time::Duration;

use broadcast_ic::blackboard::runner::monte_carlo_seeded;
use broadcast_ic::fabric::driver::monte_carlo_fabric;
use broadcast_ic::fabric::scheduler::SchedulerConfig;
use broadcast_ic::fabric::session::FaultPlan;
use broadcast_ic::fabric::transport::InProcessTransport;
use broadcast_ic::protocols::disj::broadcast::BroadcastDisj;
use broadcast_ic::protocols::disj::disj_function;
use broadcast_ic::protocols::workload;
use broadcast_ic::telemetry::Recorder;
use proptest::prelude::*;
use rand::RngCore;
use rand_chacha::ChaCha8Rng;

const N: usize = 48;
const K: usize = 3;
const DENSITY: f64 = 0.6;

fn traced_config(workers: usize, recorder: Recorder) -> SchedulerConfig {
    SchedulerConfig {
        workers,
        batch_size: 4,
        queue_capacity: 4,
        deadline: Some(Duration::from_secs(30)),
        recorder,
        ..SchedulerConfig::default()
    }
}

fn fabric_report(
    workers: usize,
    sessions: u64,
    seed: u64,
    recorder: Recorder,
) -> broadcast_ic::blackboard::runner::RunReport {
    let proto = BroadcastDisj::new(N, K);
    let sample = |rng: &mut dyn RngCore| workload::random_sets(N, K, DENSITY, rng);
    let reference = |inputs: &[_]| disj_function(inputs);
    let config = traced_config(workers, recorder);
    monte_carlo_fabric(
        &InProcessTransport,
        &proto,
        &sample,
        &reference,
        sessions,
        seed,
        &FaultPlan::new(),
        &config,
    )
    .report
}

fn assert_reports_bit_identical(
    a: &broadcast_ic::blackboard::runner::RunReport,
    b: &broadcast_ic::blackboard::runner::RunReport,
) {
    assert_eq!(a.trials, b.trials);
    assert_eq!(a.errors, b.errors);
    assert_eq!(a.comm.count(), b.comm.count());
    assert_eq!(a.comm.mean().to_bits(), b.comm.mean().to_bits());
    assert_eq!(a.comm.variance().to_bits(), b.comm.variance().to_bits());
    assert_eq!(a.comm.min().to_bits(), b.comm.min().to_bits());
    assert_eq!(a.comm.max().to_bits(), b.comm.max().to_bits());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// For any worker count and recorder mode, the traced
    /// fabric run is bit-identical to the serial runner — and to the
    /// untraced fabric run.
    #[test]
    fn recording_never_perturbs_the_report(
        workers in 1usize..6,
        events in any::<bool>(),
        seed in 0u64..1_000,
    ) {
        let sessions = 24u64;
        let proto = BroadcastDisj::new(N, K);
        let serial = monte_carlo_seeded::<_, _, _, ChaCha8Rng>(
            &proto,
            |rng: &mut dyn RngCore| workload::random_sets(N, K, DENSITY, rng),
            |inputs: &[_]| disj_function(inputs),
            sessions,
            seed,
        );

        let recorder = if events { Recorder::new() } else { Recorder::metrics_only() };
        let traced = fabric_report(workers, sessions, seed, recorder.clone());
        let quiet = fabric_report(workers, sessions, seed, Recorder::disabled());

        assert_reports_bit_identical(&serial, &traced);
        assert_reports_bit_identical(&quiet, &traced);

        // The recorder really was live: every session is accounted for.
        let snap = recorder.snapshot();
        prop_assert_eq!(snap.counter("fabric.sessions"), sessions);
        prop_assert_eq!(snap.counter("fabric.completed"), sessions);
        let latency = snap.hist("fabric.latency_us").expect("latency histogram");
        prop_assert_eq!(latency.count(), sessions);
        if events {
            // At least a start and an end event per session.
            prop_assert!(recorder.events().len() >= 2 * sessions as usize);
        } else {
            prop_assert!(recorder.events().is_empty());
        }
    }
}
