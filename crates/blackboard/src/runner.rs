//! Monte-Carlo harness for executable protocols: communication statistics
//! and error rates.

use bci_telemetry::{Json, Recorder, SpanKind};
use rand::{RngCore, SeedableRng};

use crate::protocol::{run_traced, Protocol};
use crate::stats::CommStats;

/// Aggregate result of a Monte-Carlo run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Per-execution communication cost in bits.
    pub comm: CommStats,
    /// Number of trials whose output disagreed with the reference function.
    pub errors: u64,
    /// Total trials.
    pub trials: u64,
}

impl RunReport {
    /// Empirical error rate.
    pub fn error_rate(&self) -> f64 {
        if self.trials == 0 {
            0.0
        } else {
            self.errors as f64 / self.trials as f64
        }
    }
}

/// Derives the RNG seed for one trial from a master seed.
///
/// Two rounds of SplitMix64 finalization over `(master_seed, trial)` — the
/// derived seeds are decorrelated even for adjacent trial ids, and the
/// mapping is a pure function, so trial `i` can be replayed (or executed on
/// a different worker) without running trials `0..i` first. This is the
/// contract that lets a parallel executor reproduce the serial
/// [`monte_carlo_seeded`] run bit for bit.
pub fn derive_trial_seed(master_seed: u64, trial: u64) -> u64 {
    fn splitmix(mut z: u64) -> u64 {
        z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
    splitmix(splitmix(master_seed) ^ trial.wrapping_mul(0xA076_1D64_78BD_642F))
}

/// The RNG for one trial: `R` seeded with [`derive_trial_seed`].
pub fn derive_trial_rng<R: SeedableRng>(master_seed: u64, trial: u64) -> R {
    R::seed_from_u64(derive_trial_seed(master_seed, trial))
}

/// Runs `protocol` on `trials` sampled inputs, comparing each output
/// against `reference`; `sample_inputs` draws one joint input (one entry
/// per player) per trial. Each trial runs on its own RNG derived from
/// `master_seed` via [`derive_trial_rng`].
///
/// Trial `i` samples its inputs and executes the protocol on a fresh
/// `R::seed_from_u64(derive_trial_seed(master_seed, i))`, so trials are
/// independent of execution order: running them serially (this function),
/// in parallel, or individually produces identical per-trial transcripts.
/// Statistics are accumulated in trial order, making the whole
/// [`RunReport`] — floating-point rounding included — reproducible from
/// `master_seed` alone.
pub fn monte_carlo_seeded<P, S, F, R>(
    protocol: &P,
    sample_inputs: S,
    reference: F,
    trials: u64,
    master_seed: u64,
) -> RunReport
where
    P: Protocol,
    P::Output: PartialEq,
    S: FnMut(&mut dyn RngCore) -> Vec<P::Input>,
    F: Fn(&[P::Input]) -> P::Output,
    R: RngCore + SeedableRng,
{
    monte_carlo_seeded_traced::<P, S, F, R>(
        protocol,
        sample_inputs,
        reference,
        trials,
        master_seed,
        &Recorder::disabled(),
    )
}

/// Like [`monte_carlo_seeded`], but reports telemetry to `recorder`: a
/// `trial` span per trial (bits written, error flag), `runner.trials` /
/// `runner.errors` counters, and a `runner.bits_per_trial` histogram.
///
/// The recorder never touches the trial RNGs, so the returned [`RunReport`]
/// is bit-identical to [`monte_carlo_seeded`]'s for every `(protocol,
/// master_seed)` — recording is free to enable on a verification run.
pub fn monte_carlo_seeded_traced<P, S, F, R>(
    protocol: &P,
    mut sample_inputs: S,
    reference: F,
    trials: u64,
    master_seed: u64,
    recorder: &Recorder,
) -> RunReport
where
    P: Protocol,
    P::Output: PartialEq,
    S: FnMut(&mut dyn RngCore) -> Vec<P::Input>,
    F: Fn(&[P::Input]) -> P::Output,
    R: RngCore + SeedableRng,
{
    let mut comm = CommStats::new();
    let mut errors = 0u64;
    for trial in 0..trials {
        let token = recorder.span_start(SpanKind::Trial, trial, vec![]);
        let mut rng: R = derive_trial_rng(master_seed, trial);
        let inputs = sample_inputs(&mut rng);
        let expected = reference(&inputs);
        let exec = run_traced(protocol, &inputs, &mut rng, recorder);
        comm.record(exec.bits_written as f64);
        let wrong = exec.output != expected;
        if wrong {
            errors += 1;
        }
        if recorder.enabled() {
            recorder.counter_add("runner.trials", 1);
            if wrong {
                recorder.counter_add("runner.errors", 1);
            }
            recorder.hist_record(
                "runner.bits_per_trial",
                exec.bits_written as u64,
                bci_telemetry::hist::BITS_BOUNDS,
            );
            recorder.span_end(
                SpanKind::Trial,
                trial,
                token,
                vec![
                    ("bits", Json::UInt(exec.bits_written as u64)),
                    ("error", Json::Bool(wrong)),
                ],
            );
        }
    }
    RunReport {
        comm,
        errors,
        trials,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::board::Board;
    use crate::protocol::run;
    use crate::PlayerId;
    use bci_encoding::bitio::BitVec;
    use rand::Rng;

    /// k players announce their bit in order; output = AND.
    struct AllSpeakAnd {
        k: usize,
    }

    impl Protocol for AllSpeakAnd {
        type Input = bool;
        type Output = bool;

        fn num_players(&self) -> usize {
            self.k
        }

        fn next_speaker(&self, board: &Board) -> Option<PlayerId> {
            (board.messages().len() < self.k).then_some(board.messages().len())
        }

        fn message(
            &self,
            _player: PlayerId,
            input: &bool,
            _board: &Board,
            _rng: &mut dyn RngCore,
        ) -> BitVec {
            BitVec::from_bools(&[*input])
        }

        fn output(&self, board: &Board) -> bool {
            board.messages().iter().all(|m| m.bits.get(0) == Some(true))
        }
    }

    #[test]
    fn correct_protocol_has_zero_errors() {
        let report = monte_carlo_seeded::<_, _, _, rand_chacha::ChaCha8Rng>(
            &AllSpeakAnd { k: 5 },
            |rng| (0..5).map(|_| rng.random_bool(0.5)).collect(),
            |inputs| inputs.iter().all(|&b| b),
            500,
            3,
        );
        assert_eq!(report.errors, 0);
        assert_eq!(report.error_rate(), 0.0);
        assert_eq!(report.trials, 500);
        assert_eq!(report.comm.mean(), 5.0, "everyone speaks exactly once");
    }

    #[test]
    fn wrong_reference_shows_errors() {
        let report = monte_carlo_seeded::<_, _, _, rand_chacha::ChaCha8Rng>(
            &AllSpeakAnd { k: 3 },
            |rng| (0..3).map(|_| rng.random_bool(0.5)).collect(),
            |inputs| inputs.iter().any(|&b| b), // OR, not AND
            2000,
            3,
        );
        // AND != OR whenever the input is mixed: prob = 1 − 2/8 = 3/4.
        assert!((report.error_rate() - 0.75).abs() < 0.05);
    }

    #[test]
    fn derived_seeds_are_order_free_and_distinct() {
        let a = derive_trial_seed(7, 0);
        let b = derive_trial_seed(7, 1);
        let c = derive_trial_seed(8, 0);
        assert_ne!(a, b);
        assert_ne!(a, c);
        // Pure function of (master, trial): replayable in any order.
        assert_eq!(derive_trial_seed(7, 1), b);
        // 1000 trials of one master seed never collide.
        let seeds: std::collections::HashSet<u64> =
            (0..1000).map(|t| derive_trial_seed(42, t)).collect();
        assert_eq!(seeds.len(), 1000);
    }

    #[test]
    fn seeded_runner_is_reproducible_and_correct() {
        let run = || {
            monte_carlo_seeded::<_, _, _, rand_chacha::ChaCha8Rng>(
                &AllSpeakAnd { k: 5 },
                |rng| (0..5).map(|_| rng.random_bool(0.5)).collect(),
                |inputs| inputs.iter().all(|&b| b),
                400,
                99,
            )
        };
        let a = run();
        let b = run();
        assert_eq!(a.errors, 0);
        assert_eq!(a.trials, 400);
        assert_eq!(a.comm.mean(), 5.0);
        // Bit-identical statistics across invocations.
        assert_eq!(a.comm.mean().to_bits(), b.comm.mean().to_bits());
        assert_eq!(a.comm.variance().to_bits(), b.comm.variance().to_bits());
    }

    #[test]
    fn seeded_trials_match_standalone_replay() {
        // Trial 17 replayed on its own produces the same inputs and
        // transcript as within the full sweep — the order-independence
        // contract a parallel executor relies on.
        let sample =
            |rng: &mut dyn RngCore| -> Vec<bool> { (0..4).map(|_| rng.random_bool(0.5)).collect() };
        let mut rng: rand_chacha::ChaCha8Rng = derive_trial_rng(5, 17);
        let inputs = sample(&mut rng);
        let solo = run(&AllSpeakAnd { k: 4 }, &inputs, &mut rng);

        let mut rng2: rand_chacha::ChaCha8Rng = derive_trial_rng(5, 17);
        let inputs2 = sample(&mut rng2);
        assert_eq!(inputs, inputs2);
        let again = run(&AllSpeakAnd { k: 4 }, &inputs2, &mut rng2);
        assert_eq!(solo.board, again.board);
        assert_eq!(solo.output, again.output);
    }
}
