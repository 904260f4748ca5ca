//! How a session's board writes are published and observed.
//!
//! A [`Transport`] executes one protocol session.
//! [`InProcessTransport`] runs the whole session on the calling worker
//! thread, like [`bci_blackboard::protocol::run`] plus deadlines and
//! fault emulation; it is the fabric's one transport. Its turn loop is a
//! sequencer over a [`TurnEngine`]: it owns the board, lends the session
//! RNG out with each grant and takes it back with the reply, so the
//! transcript and the randomness stream are the serial executor's.
//! The `bci-mux` daemon runs the same discipline over TCP, one thread per
//! player, and its transcripts match this transport's bit for bit.
//!
//! The transport honors per-session deadlines and emulates the fault
//! kinds in [`FaultKind`]: a crashed or panicking player aborts *its*
//! session with a structured [`SessionOutcome`], never the worker.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use bci_blackboard::board::Board;
use bci_blackboard::engine::{Step, TurnEngine};
use bci_blackboard::protocol::Protocol;
use bci_telemetry::{Json, Recorder, SpanKind};
use rand_chacha::ChaCha8Rng;

use crate::session::{FaultKind, FaultSpec, SessionOutcome, SessionResult};

/// A recorder that is always off; the default for contexts built by hand.
pub static DISABLED_RECORDER: Recorder = Recorder::disabled();

/// Hard cap on how long a session may stall waiting for a player when no
/// deadline was configured. Keeps a dropped wakeup from hanging a worker
/// forever.
pub const DEFAULT_STALL_CAP: Duration = Duration::from_secs(60);

/// Per-session execution parameters handed to a transport.
#[derive(Debug, Clone)]
pub struct SessionContext<'a> {
    /// The session's id (used only for reporting).
    pub session_id: u64,
    /// Wall-clock budget for the whole session, if any.
    pub deadline: Option<Duration>,
    /// Faults to inject, already filtered down to this session.
    pub faults: &'a [FaultSpec],
    /// Telemetry sink for hop events. Use [`DISABLED_RECORDER`] when not
    /// tracing; the recorder observes only and never perturbs execution.
    pub recorder: &'a Recorder,
}

impl SessionContext<'_> {
    /// Emits one `hop` point event (board write) when event capture is on.
    fn record_hop(&self, hop: usize, speaker: usize, msg_bits: usize, board: &Board) {
        if self.recorder.events_enabled() {
            self.recorder.point(
                SpanKind::Hop,
                self.session_id,
                vec![
                    ("hop", Json::UInt(hop as u64)),
                    ("speaker", Json::UInt(speaker as u64)),
                    ("msg_bits", Json::UInt(msg_bits as u64)),
                    ("board_bits", Json::UInt(board.total_bits() as u64)),
                ],
            );
        }
    }
    fn fault_for(&self, player: usize, kind_matches: impl Fn(&FaultKind) -> bool) -> bool {
        self.faults
            .iter()
            .any(|f| f.player == player && kind_matches(&f.kind))
    }

    fn slow_delay(&self, player: usize) -> Option<Duration> {
        self.faults.iter().find_map(|f| match f.kind {
            FaultKind::SlowPlayer(d) if f.player == player => Some(d),
            _ => None,
        })
    }
}

/// Executes one session of a protocol.
pub trait Transport: Sync {
    /// Runs `protocol` on `inputs` with the session RNG `rng`, honoring the
    /// deadline and faults in `ctx`. Never panics on injected faults: the
    /// failure mode is encoded in the returned
    /// [`SessionOutcome`].
    fn run_session<P>(
        &self,
        protocol: &P,
        inputs: &[P::Input],
        rng: ChaCha8Rng,
        ctx: &SessionContext<'_>,
    ) -> SessionResult<P::Output>
    where
        P: Protocol + Sync,
        P::Input: Sync;
}

/// Runs the whole session on the calling thread.
///
/// Faults are emulated: a crashed player aborts the session the moment it
/// is scheduled to speak; a dropped wakeup stalls the session, sleeping
/// out the remaining deadline, as a sequencer waiting on a player that
/// never heard its turn would; a slow player sleeps before each message.
#[derive(Debug, Clone, Copy, Default)]
pub struct InProcessTransport;

impl Transport for InProcessTransport {
    fn run_session<P>(
        &self,
        protocol: &P,
        inputs: &[P::Input],
        rng: ChaCha8Rng,
        ctx: &SessionContext<'_>,
    ) -> SessionResult<P::Output>
    where
        P: Protocol + Sync,
        P::Input: Sync,
    {
        let start = Instant::now();
        let mut engine = match TurnEngine::with_rng(protocol, inputs.len(), &rng) {
            Ok(engine) => engine,
            Err(violation) => {
                return SessionResult::seal(violation.into(), None, Board::new(), start.elapsed())
            }
        };
        // Every exit from the turn loop names its outcome; the board and
        // the latency are sealed in one place below.
        let outcome = loop {
            if ctx
                .deadline
                .is_some_and(|deadline| start.elapsed() >= deadline)
            {
                break SessionOutcome::TimedOut;
            }
            let grant = match engine.poll() {
                Ok(Step::Grant(grant)) => grant,
                Ok(Step::Halted) => break SessionOutcome::Completed,
                Err(violation) => break violation.into(),
            };
            let speaker = grant.speaker;
            if ctx.fault_for(speaker, |k| matches!(k, FaultKind::CrashedPlayer)) {
                break SessionOutcome::Aborted(format!("player {speaker} crashed"));
            }
            if ctx.fault_for(speaker, |k| matches!(k, FaultKind::DroppedWakeup)) {
                // The wakeup is lost: nothing happens until the deadline.
                let stall = ctx
                    .deadline
                    .map(|d| d.saturating_sub(start.elapsed()))
                    .unwrap_or(DEFAULT_STALL_CAP);
                std::thread::sleep(stall);
                break SessionOutcome::TimedOut;
            }
            if let Some(delay) = ctx.slow_delay(speaker) {
                std::thread::sleep(delay);
            }
            let mut rng = grant.resume_rng();
            let Ok(bits) = catch_unwind(AssertUnwindSafe(|| {
                protocol.message(speaker, &inputs[speaker], engine.board(), &mut rng)
            })) else {
                break SessionOutcome::Aborted(format!("player {speaker} panicked"));
            };
            let msg_bits = bits.len();
            if let Err(violation) = engine.apply(speaker, bits, Some(&rng.state_bytes())) {
                break violation.into();
            }
            ctx.record_hop(grant.turn, speaker, msg_bits, engine.board());
        };
        let output = outcome.is_completed().then(|| engine.output());
        SessionResult::seal(outcome, output, engine.into_board(), start.elapsed())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bci_blackboard::runner::derive_trial_rng;
    use bci_blackboard::PlayerId;
    use bci_encoding::bitio::BitVec;
    use bci_protocols::and::SequentialAnd;
    use bci_protocols::disj::broadcast::BroadcastDisj;
    use bci_protocols::workload;
    use rand::{Rng, RngCore, SeedableRng};

    fn no_faults(id: u64) -> SessionContext<'static> {
        SessionContext {
            session_id: id,
            deadline: Some(Duration::from_secs(10)),
            faults: &[],
            recorder: &DISABLED_RECORDER,
        }
    }

    #[test]
    fn inprocess_transport_matches_the_serial_executor() {
        let proto = BroadcastDisj::new(120, 5);
        for trial in 0..10u64 {
            let mut sample_rng: ChaCha8Rng = derive_trial_rng(3, trial);
            let inputs = workload::random_sets(120, 5, 0.7, &mut sample_rng);

            let serial = {
                let mut rng = sample_rng.clone();
                bci_blackboard::protocol::run(&proto, &inputs, &mut rng)
            };
            let inproc = InProcessTransport.run_session(
                &proto,
                &inputs,
                sample_rng.clone(),
                &no_faults(trial),
            );

            assert_eq!(inproc.outcome, SessionOutcome::Completed);
            assert_eq!(inproc.board, serial.board, "trial {trial}");
            assert_eq!(inproc.output, Some(serial.output));
            assert_eq!(inproc.bits_written, serial.bits_written);
        }
    }

    /// A protocol that consumes randomness in every message, to prove the
    /// RNG round trip preserves the stream exactly.
    struct NoisyEcho {
        k: usize,
    }

    impl Protocol for NoisyEcho {
        type Input = bool;
        type Output = usize;

        fn num_players(&self) -> usize {
            self.k
        }

        fn next_speaker(&self, board: &Board) -> Option<PlayerId> {
            (board.messages().len() < 2 * self.k).then_some(board.messages().len() % self.k)
        }

        fn message(
            &self,
            _player: PlayerId,
            input: &bool,
            _board: &Board,
            rng: &mut dyn RngCore,
        ) -> BitVec {
            let coin = rng.random_bool(0.5);
            BitVec::from_bools(&[*input ^ coin, coin])
        }

        fn output(&self, board: &Board) -> usize {
            board
                .messages()
                .iter()
                .filter(|m| m.bits.get(0) == Some(true))
                .count()
        }
    }

    #[test]
    fn the_rng_round_trip_preserves_the_randomness_stream() {
        let proto = NoisyEcho { k: 4 };
        let inputs = vec![true, false, true, true];
        for seed in 0..20u64 {
            let serial = {
                let mut rng = ChaCha8Rng::seed_from_u64(seed);
                bci_blackboard::protocol::run(&proto, &inputs, &mut rng)
            };
            let inproc = InProcessTransport.run_session(
                &proto,
                &inputs,
                ChaCha8Rng::seed_from_u64(seed),
                &no_faults(seed),
            );
            assert_eq!(inproc.board, serial.board, "seed {seed}");
            assert_eq!(inproc.output, Some(serial.output));
        }
    }

    #[test]
    fn crashed_player_aborts_gracefully() {
        let faults = [FaultSpec {
            kind: FaultKind::CrashedPlayer,
            player: 2,
            sessions: crate::session::SessionSelector::All,
        }];
        let ctx = SessionContext {
            session_id: 0,
            deadline: Some(Duration::from_secs(5)),
            faults: &faults,
            recorder: &DISABLED_RECORDER,
        };
        let proto = SequentialAnd::new(4);
        let inputs = vec![true; 4];
        let result =
            InProcessTransport.run_session(&proto, &inputs, ChaCha8Rng::seed_from_u64(0), &ctx);
        match &result.outcome {
            SessionOutcome::Aborted(reason) => {
                assert!(reason.contains("player 2"), "reason: {reason}")
            }
            other => panic!("expected abort, got {other:?}"),
        }
        assert!(result.output.is_none());
        // Players 0 and 1 got their writes in before the crash.
        assert_eq!(result.board.messages().len(), 2);
    }

    #[test]
    fn dropped_wakeup_times_out_within_the_deadline() {
        let faults = [FaultSpec {
            kind: FaultKind::DroppedWakeup,
            player: 0,
            sessions: crate::session::SessionSelector::All,
        }];
        let deadline = Duration::from_millis(50);
        let ctx = SessionContext {
            session_id: 0,
            deadline: Some(deadline),
            faults: &faults,
            recorder: &DISABLED_RECORDER,
        };
        let proto = SequentialAnd::new(3);
        let inputs = vec![true; 3];
        let started = Instant::now();
        let result =
            InProcessTransport.run_session(&proto, &inputs, ChaCha8Rng::seed_from_u64(1), &ctx);
        assert_eq!(result.outcome, SessionOutcome::TimedOut);
        assert!(result.output.is_none());
        assert!(
            started.elapsed() < deadline + Duration::from_secs(2),
            "timeout honored promptly"
        );
    }

    #[test]
    fn slow_player_exceeds_a_tight_deadline() {
        // Player 1 naps longer than the whole session budget: the next
        // turn finds the deadline passed.
        let faults = [FaultSpec {
            kind: FaultKind::SlowPlayer(Duration::from_millis(80)),
            player: 1,
            sessions: crate::session::SessionSelector::All,
        }];
        let ctx = SessionContext {
            session_id: 0,
            deadline: Some(Duration::from_millis(30)),
            faults: &faults,
            recorder: &DISABLED_RECORDER,
        };
        let proto = SequentialAnd::new(4);
        let inputs = vec![true; 4];
        let result =
            InProcessTransport.run_session(&proto, &inputs, ChaCha8Rng::seed_from_u64(2), &ctx);
        assert_eq!(result.outcome, SessionOutcome::TimedOut);
        assert!(result.output.is_none());
    }

    #[test]
    fn slow_player_completes_under_a_generous_deadline() {
        let faults = [FaultSpec {
            kind: FaultKind::SlowPlayer(Duration::from_millis(5)),
            player: 0,
            sessions: crate::session::SessionSelector::All,
        }];
        let ctx = SessionContext {
            session_id: 0,
            deadline: Some(Duration::from_secs(10)),
            faults: &faults,
            recorder: &DISABLED_RECORDER,
        };
        let proto = SequentialAnd::new(3);
        let inputs = vec![true; 3];
        let result =
            InProcessTransport.run_session(&proto, &inputs, ChaCha8Rng::seed_from_u64(3), &ctx);
        assert_eq!(result.outcome, SessionOutcome::Completed);
        assert_eq!(result.output, Some(true));
        assert!(result.latency >= Duration::from_millis(5));
    }

    /// A protocol whose player 1 panics when asked to speak.
    struct PanickyPlayer;

    impl Protocol for PanickyPlayer {
        type Input = ();
        type Output = ();

        fn num_players(&self) -> usize {
            2
        }

        fn next_speaker(&self, board: &Board) -> Option<PlayerId> {
            (board.messages().len() < 2).then_some(board.messages().len())
        }

        fn message(
            &self,
            player: PlayerId,
            _input: &(),
            _board: &Board,
            _rng: &mut dyn RngCore,
        ) -> BitVec {
            assert!(player != 1, "player 1 always fails");
            BitVec::from_bools(&[true])
        }

        fn output(&self, _board: &Board) {}
    }

    #[test]
    fn player_panic_is_contained_as_abort() {
        let ctx = no_faults(0);
        let result = InProcessTransport.run_session(
            &PanickyPlayer,
            &[(), ()],
            ChaCha8Rng::seed_from_u64(0),
            &ctx,
        );
        match &result.outcome {
            SessionOutcome::Aborted(reason) => {
                assert!(reason.contains("player 1"), "reason: {reason}")
            }
            other => panic!("expected abort, got {other:?}"),
        }
    }
}
