//! The sans-io turn engine: one protocol state machine for every driver
//! and every communication model.
//!
//! The paper's broadcast model is a pure state machine — the board alone
//! determines the next speaker — yet historically each transport in this
//! repo re-implemented the turn-drive loop: the serial runner, the two
//! in-process fabric transports, the v1 TCP coordinator, and the mux
//! daemon's park/resume table. [`Engine`] extracts that loop into one
//! place with **no I/O, no threads, and no clocks** inside:
//!
//! * [`Engine::poll`] asks the protocol whose turn it is and returns a
//!   [`Step`]: either a [`Grant`] (speaker + turn number + the parked
//!   session-RNG state, when the engine holds one) or [`Step::Halted`].
//! * The *driver* performs the granted turn wherever it likes — on the
//!   calling thread, on a player thread, or on the far side of a TCP
//!   socket — and hands the written bits (plus the post-message RNG
//!   state) back via [`Engine::apply`].
//!
//! The engine owns the board, the turn cursor, the serialized
//! [`STATE_LEN`]-byte ChaCha8 session-RNG state between turns, the
//! runaway step guard, and bits-written accounting. Everything a protocol
//! can do wrong — naming an out-of-range speaker, granting an illegal
//! link, never halting, a reply without an outstanding grant, the wrong
//! speaker replying, a malformed RNG state — is a structured [`ProtocolViolation`] whose `Display` is
//! the canonical abort-reason string shared by every transport, so the
//! fabric's `SessionOutcome` taxonomy is populated identically no matter
//! which driver detected the violation.
//!
//! # Transcript models
//!
//! The engine is generic over a [`TranscriptModel`]: the board it owns,
//! the *route* a granted message travels on, the schedule, a legality
//! check on each granted route, and how a reply is recorded. Every
//! blackboard [`Protocol`] is a model through `&P` (a [`Board`], route
//! `()`, no check), and [`TurnEngine`] is that instance. The
//! message-passing models of `bci-topology` are a second instance whose
//! route is a link and whose check is the topology's link rule, so both
//! models share one grant discipline, one RNG parking slot, one runaway
//! budget, and one violation taxonomy.
//!
//! # Determinism
//!
//! Because the engine serializes writes (one outstanding grant at a time)
//! and the RNG state makes the round trip through the speaking player,
//! every driver consumes the randomness stream in the same order and
//! produces **bit-identical transcripts** for the same seed. The
//! driver-equivalence gate (`crates/mux/tests/driver_equivalence.rs`)
//! asserts this across all five drivers.
//!
//! # Example: a serial driver
//!
//! ```
//! use bci_blackboard::engine::{Step, TurnEngine};
//! use bci_blackboard::protocol::Protocol;
//! use bci_blackboard::board::Board;
//! use bci_encoding::bitio::BitVec;
//! use rand::SeedableRng;
//! use rand_chacha::ChaCha8Rng;
//!
//! struct Echo;
//! impl Protocol for Echo {
//!     type Input = bool;
//!     type Output = usize;
//!     fn num_players(&self) -> usize { 2 }
//!     fn next_speaker(&self, board: &Board) -> Option<usize> {
//!         (board.messages().len() < 2).then_some(board.messages().len())
//!     }
//!     fn message(&self, _p: usize, input: &bool, _b: &Board,
//!                _rng: &mut dyn rand::RngCore) -> BitVec {
//!         BitVec::from_bools(&[*input])
//!     }
//!     fn output(&self, board: &Board) -> usize { board.total_bits() }
//! }
//!
//! let protocol = Echo;
//! let inputs = [true, false];
//! let rng = ChaCha8Rng::seed_from_u64(7);
//! let mut engine = TurnEngine::with_rng(&protocol, inputs.len(), &rng).unwrap();
//! loop {
//!     match engine.poll().unwrap() {
//!         Step::Grant(grant) => {
//!             let mut rng = grant.resume_rng();
//!             let bits = protocol.message(grant.speaker, &inputs[grant.speaker],
//!                                         engine.board(), &mut rng);
//!             engine.apply(grant.speaker, bits, Some(&rng.state_bytes())).unwrap();
//!         }
//!         Step::Halted => break,
//!     }
//! }
//! assert_eq!(engine.output(), 2);
//! assert_eq!(engine.bits_written(), 2);
//! ```

use std::fmt;

use bci_encoding::bitio::BitVec;
use rand_chacha::{ChaCha8Rng, STATE_LEN};

use crate::board::Board;
use crate::protocol::{Protocol, MAX_STEPS};
use crate::PlayerId;

/// What the engine asks its driver to do next.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Step<R = ()> {
    /// A turn is granted: the driver must have `speaker` compute its
    /// message and hand the bits back via [`Engine::apply`].
    Grant(Grant<R>),
    /// The protocol halted; the board is final and [`Engine::output`] is
    /// defined.
    Halted,
}

/// One granted turn.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Grant<R = ()> {
    /// The player whose turn it is.
    pub speaker: PlayerId,
    /// Zero-based turn number (== board writes so far).
    pub turn: usize,
    /// The serialized session-RNG state the speaker must resume from,
    /// when the engine holds the RNG (engines built with
    /// [`Engine::with_rng`]). `None` for external-RNG engines
    /// ([`Engine::new`]), where the driver owns the random source.
    pub rng_state: Option<[u8; STATE_LEN]>,
    /// Where the message travels ([`TranscriptModel::Route`]): `()` on
    /// the blackboard.
    pub route: R,
}

impl<R> Grant<R> {
    /// Resumes the session RNG from the grant's serialized state.
    ///
    /// # Panics
    ///
    /// Panics if the engine was built without an RNG ([`Engine::new`]);
    /// external-RNG drivers bring their own.
    pub fn resume_rng(&self) -> ChaCha8Rng {
        let state = self
            .rng_state
            .as_ref()
            .expect("grant carries no RNG state (external-RNG engine)");
        ChaCha8Rng::from_state_bytes(state)
    }
}

/// A violation of the protocol/driver contract, detected by the engine.
///
/// The `Display` impl renders the canonical abort-reason string used
/// across every transport, so mapping a violation onto the fabric's
/// `SessionOutcome::Aborted` (or a panic, for the serial runner) yields
/// identical wording no matter which driver caught it.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ProtocolViolation {
    /// The driver supplied a different number of inputs than the
    /// protocol has players.
    InputCount {
        /// `Protocol::num_players()`.
        expected: usize,
        /// Inputs the driver supplied.
        got: usize,
    },
    /// `next_speaker` named a player outside `0..num_players`.
    SpeakerOutOfRange {
        /// The out-of-range speaker.
        speaker: PlayerId,
        /// Roster size `k`.
        players: usize,
    },
    /// The model's [`check`](TranscriptModel::check) refused the granted
    /// route: a malformed link, a link that does not start at the
    /// speaker, or one the topology forbids.
    IllegalLink {
        /// The granted speaker.
        speaker: PlayerId,
        /// The model's rendered reason (the `Display` string).
        reason: String,
    },
    /// The protocol did not halt within the step budget.
    Runaway {
        /// The configured cap ([`Engine::with_max_steps`]).
        max_steps: usize,
    },
    /// [`Engine::apply`] was called with no grant outstanding.
    ReplyWithoutGrant {
        /// The player that replied.
        speaker: PlayerId,
    },
    /// A different player replied than the one holding the grant.
    WrongSpeaker {
        /// The player holding the outstanding grant.
        granted: PlayerId,
        /// The player that actually replied.
        speaker: PlayerId,
    },
    /// A reply named an earlier turn than the one its speaker was
    /// granted: a duplicate or delayed answer. Only a driver that sees
    /// the turn on the wire (the mux daemon) can report it.
    StaleTurn {
        /// The replying player.
        speaker: PlayerId,
        /// The turn the outstanding grant is for ([`Engine::steps`]).
        expected: usize,
        /// The turn the reply named.
        got: usize,
    },
    /// The reply's serialized RNG state was missing or malformed.
    BadRngState {
        /// The replying player.
        speaker: PlayerId,
        /// Length of the state supplied (`!= STATE_LEN`).
        len: usize,
    },
}

impl fmt::Display for ProtocolViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtocolViolation::InputCount { expected, got } => {
                write!(f, "expected {expected} inputs, got {got}")
            }
            ProtocolViolation::SpeakerOutOfRange { speaker, players } => {
                write!(f, "protocol named speaker {speaker} of {players}")
            }
            ProtocolViolation::IllegalLink { reason, .. } => f.write_str(reason),
            ProtocolViolation::Runaway { max_steps } => {
                write!(f, "protocol exceeded {max_steps} turns")
            }
            ProtocolViolation::ReplyWithoutGrant { speaker } => {
                write!(f, "player {speaker} replied without an outstanding grant")
            }
            ProtocolViolation::WrongSpeaker { granted, speaker } => {
                write!(f, "player {speaker} replied on player {granted}'s grant")
            }
            ProtocolViolation::StaleTurn {
                speaker,
                expected,
                got,
            } => write!(
                f,
                "player {speaker} replied to turn {got} during turn {expected}"
            ),
            ProtocolViolation::BadRngState { speaker, .. } => {
                write!(f, "player {speaker} returned a bad RNG state")
            }
        }
    }
}

impl std::error::Error for ProtocolViolation {}

/// The transcript model an [`Engine`] drives: the board it owns, the
/// route a message travels on, whose turn it is, whether the granted
/// route is legal, and what the final board means.
///
/// Every blackboard [`Protocol`] is a model through `&P`; see the
/// [module docs](self).
pub trait TranscriptModel {
    /// The transcript the engine owns.
    type Board: Default + Clone + fmt::Debug;
    /// Where a granted message travels: `()` on the blackboard.
    type Route: Copy + fmt::Debug + Eq;
    /// What a final board means.
    type Output;

    /// Number of players `k`; every speaker must lie in `0..k`.
    fn num_players(&self) -> usize;

    /// Whose turn it is and on which route, or `None` once halted. Must
    /// be a function of the board alone.
    fn next_turn(&self, board: &Self::Board) -> Option<(PlayerId, Self::Route)>;

    /// Whether `speaker` may write on `route`. The engine checks this
    /// after the speaker's range and before the runaway budget.
    ///
    /// # Errors
    ///
    /// The model's [`ProtocolViolation::IllegalLink`].
    fn check(&self, _speaker: PlayerId, _route: Self::Route) -> Result<(), ProtocolViolation> {
        Ok(())
    }

    /// Appends the granted speaker's `bits` to the board.
    fn record(&self, board: &mut Self::Board, speaker: PlayerId, route: Self::Route, bits: BitVec);

    /// The output determined by `board`.
    fn output(&self, board: &Self::Board) -> Self::Output;
}

impl<P: Protocol> TranscriptModel for &P {
    type Board = Board;
    type Route = ();
    type Output = P::Output;

    fn num_players(&self) -> usize {
        P::num_players(self)
    }

    fn next_turn(&self, board: &Board) -> Option<(PlayerId, ())> {
        P::next_speaker(self, board).map(|speaker| (speaker, ()))
    }

    fn record(&self, board: &mut Board, speaker: PlayerId, _route: (), bits: BitVec) {
        board.write(speaker, bits);
    }

    fn output(&self, board: &Board) -> P::Output {
        P::output(self, board)
    }
}

/// Where the session RNG lives right now.
#[derive(Debug, Clone)]
enum RngSlot {
    /// The driver owns the random source; the engine never sees it.
    External,
    /// Parked in the engine between turns.
    Parked([u8; STATE_LEN]),
    /// Out with the granted speaker. The copy lets [`Engine::poll`]
    /// re-issue an identical grant (idempotence), e.g. for a
    /// reconnect-and-regrant driver.
    Lent([u8; STATE_LEN]),
}

/// The sans-io state machine driving one session of transcript model `M`.
///
/// See the [module docs](self) for the contract and an example driver.
#[derive(Clone)]
pub struct Engine<M: TranscriptModel> {
    model: M,
    board: M::Board,
    rng: RngSlot,
    steps: usize,
    bits: usize,
    max_steps: usize,
    granted: Option<(PlayerId, M::Route)>,
    halted: bool,
}

/// The blackboard engine: a [`Protocol`] writing on one shared [`Board`].
pub type TurnEngine<'p, P> = Engine<&'p P>;

// Manual impl: a derive would demand `M: Debug`, and a protocol need not
// be.
impl<M: TranscriptModel> fmt::Debug for Engine<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Engine")
            .field("board", &self.board)
            .field("rng", &self.rng)
            .field("steps", &self.steps)
            .field("max_steps", &self.max_steps)
            .field("granted", &self.granted)
            .field("halted", &self.halted)
            .finish_non_exhaustive()
    }
}

impl<M: TranscriptModel> Engine<M> {
    /// An engine whose driver owns the random source (grants carry no
    /// RNG state). Used by the serial runner, whose public API accepts
    /// any `&mut dyn RngCore`.
    ///
    /// # Errors
    ///
    /// [`ProtocolViolation::InputCount`] if `input_count` differs from
    /// `model.num_players()`.
    pub fn new(model: M, input_count: usize) -> Result<Self, ProtocolViolation> {
        Self::build(model, input_count, RngSlot::External)
    }

    /// An engine that parks the serialized ChaCha8 session-RNG state
    /// between turns and ships it inside every [`Grant`] — the discipline
    /// all transports share.
    ///
    /// # Errors
    ///
    /// [`ProtocolViolation::InputCount`] if `input_count` differs from
    /// `model.num_players()`.
    pub fn with_rng(
        model: M,
        input_count: usize,
        rng: &ChaCha8Rng,
    ) -> Result<Self, ProtocolViolation> {
        Self::build(model, input_count, RngSlot::Parked(rng.state_bytes()))
    }

    fn build(model: M, input_count: usize, rng: RngSlot) -> Result<Self, ProtocolViolation> {
        let expected = model.num_players();
        if input_count != expected {
            return Err(ProtocolViolation::InputCount {
                expected,
                got: input_count,
            });
        }
        Ok(Engine {
            model,
            board: M::Board::default(),
            rng,
            steps: 0,
            bits: 0,
            max_steps: MAX_STEPS,
            granted: None,
            halted: false,
        })
    }

    /// Overrides the runaway guard (default
    /// [`MAX_STEPS`]). Networked coordinators thread their
    /// deployment's cap through here so a buggy non-terminating
    /// protocol aborts instead of spinning a session forever.
    #[must_use]
    pub fn with_max_steps(mut self, max_steps: usize) -> Self {
        self.max_steps = max_steps;
        self
    }

    /// Advances the state machine: grants the next turn, re-issues the
    /// outstanding grant (polling is idempotent), or reports the halt.
    ///
    /// # Errors
    ///
    /// In check order:
    ///
    /// * [`ProtocolViolation::SpeakerOutOfRange`] — the schedule named a
    ///   player `>= num_players`;
    /// * the model's [`check`](TranscriptModel::check) — e.g.
    ///   [`ProtocolViolation::IllegalLink`];
    /// * [`ProtocolViolation::Runaway`] — the step budget is exhausted
    ///   and the protocol still wants to speak.
    pub fn poll(&mut self) -> Result<Step<M::Route>, ProtocolViolation> {
        if self.halted {
            return Ok(Step::Halted);
        }
        if let Some((speaker, route)) = self.granted {
            return Ok(Step::Grant(self.issue(speaker, route)));
        }
        let Some((speaker, route)) = self.model.next_turn(&self.board) else {
            self.halted = true;
            return Ok(Step::Halted);
        };
        let players = self.model.num_players();
        if speaker >= players {
            return Err(ProtocolViolation::SpeakerOutOfRange { speaker, players });
        }
        self.model.check(speaker, route)?;
        if self.steps >= self.max_steps {
            return Err(ProtocolViolation::Runaway {
                max_steps: self.max_steps,
            });
        }
        self.granted = Some((speaker, route));
        if let RngSlot::Parked(state) = self.rng {
            self.rng = RngSlot::Lent(state);
        }
        Ok(Step::Grant(self.issue(speaker, route)))
    }

    fn issue(&self, speaker: PlayerId, route: M::Route) -> Grant<M::Route> {
        Grant {
            speaker,
            turn: self.steps,
            rng_state: match self.rng {
                RngSlot::External => None,
                RngSlot::Parked(state) | RngSlot::Lent(state) => Some(state),
            },
            route,
        }
    }

    /// Applies the granted speaker's reply: records `bits` on the granted
    /// route, re-parks the returned RNG state, and advances the turn
    /// cursor.
    ///
    /// `rng_state` must be the speaker's post-message serialized state
    /// for engines built with [`with_rng`](Self::with_rng); external-RNG
    /// engines ignore it.
    ///
    /// # Errors
    ///
    /// * [`ProtocolViolation::ReplyWithoutGrant`] — no grant outstanding;
    /// * [`ProtocolViolation::WrongSpeaker`] — `speaker` is not the
    ///   granted player;
    /// * [`ProtocolViolation::BadRngState`] — the engine parks the RNG
    ///   but the reply's state is missing or not [`STATE_LEN`] bytes.
    pub fn apply(
        &mut self,
        speaker: PlayerId,
        bits: BitVec,
        rng_state: Option<&[u8]>,
    ) -> Result<(), ProtocolViolation> {
        let Some((granted, route)) = self.granted else {
            return Err(ProtocolViolation::ReplyWithoutGrant { speaker });
        };
        if speaker != granted {
            return Err(ProtocolViolation::WrongSpeaker { granted, speaker });
        }
        if let RngSlot::Lent(_) = self.rng {
            let state: [u8; STATE_LEN] = match rng_state {
                Some(bytes) => match bytes.try_into() {
                    Ok(state) => state,
                    Err(_) => {
                        return Err(ProtocolViolation::BadRngState {
                            speaker,
                            len: bytes.len(),
                        })
                    }
                },
                None => return Err(ProtocolViolation::BadRngState { speaker, len: 0 }),
            };
            self.rng = RngSlot::Parked(state);
        }
        self.granted = None;
        self.bits += bits.len();
        self.model.record(&mut self.board, speaker, route, bits);
        self.steps += 1;
        Ok(())
    }

    /// The transcript model (the protocol) this engine drives.
    pub fn model(&self) -> &M {
        &self.model
    }

    /// The board (= the transcript so far).
    pub fn board(&self) -> &M::Board {
        &self.board
    }

    /// Turn cursor: board writes applied so far.
    pub fn steps(&self) -> usize {
        self.steps
    }

    /// Total bits written — the communication cost so far.
    pub fn bits_written(&self) -> usize {
        self.bits
    }

    /// The player holding an outstanding grant, if any.
    pub fn granted(&self) -> Option<PlayerId> {
        self.granted.map(|(speaker, _)| speaker)
    }

    /// The parked session-RNG state, when the engine holds one and no
    /// grant is outstanding. Lets a driver snapshot a session mid-run.
    pub fn rng_state(&self) -> Option<&[u8; STATE_LEN]> {
        match &self.rng {
            RngSlot::Parked(state) => Some(state),
            _ => None,
        }
    }

    /// The protocol's output for the final board.
    ///
    /// Meaningful once the engine halted; on a partial board this is
    /// whatever the protocol makes of it. May panic if the *protocol's*
    /// `output` does — drivers that must contain that wrap this call in
    /// `catch_unwind`.
    pub fn output(&self) -> M::Output {
        self.model.output(&self.board)
    }

    /// Consumes the engine, returning the board (for drivers that seal a
    /// session result with the partial transcript).
    pub fn into_board(self) -> M::Board {
        self.board
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{RngCore, SeedableRng};

    /// Players 0..k speak one random bit each, in order.
    struct RoundRobin {
        k: usize,
    }

    impl Protocol for RoundRobin {
        type Input = ();
        type Output = usize;

        fn num_players(&self) -> usize {
            self.k
        }

        fn next_speaker(&self, board: &Board) -> Option<PlayerId> {
            (board.messages().len() < self.k).then_some(board.messages().len())
        }

        fn message(
            &self,
            _player: PlayerId,
            _input: &(),
            _board: &Board,
            rng: &mut dyn RngCore,
        ) -> BitVec {
            BitVec::from_bools(&[rng.next_u32() & 1 == 1])
        }

        fn output(&self, board: &Board) -> usize {
            board.total_bits()
        }
    }

    /// Never halts: player 0 speaks forever.
    struct NeverHalts;

    impl Protocol for NeverHalts {
        type Input = ();
        type Output = ();
        fn num_players(&self) -> usize {
            1
        }
        fn next_speaker(&self, _board: &Board) -> Option<PlayerId> {
            Some(0)
        }
        fn message(&self, _p: PlayerId, _i: &(), _b: &Board, _r: &mut dyn RngCore) -> BitVec {
            BitVec::from_bools(&[true])
        }
        fn output(&self, _board: &Board) {}
    }

    /// A directed `(from, to)` edge of a message-passing schedule.
    type Edge = (PlayerId, PlayerId);

    /// The coordinator-star link rule with hub 0: the edge starts at the
    /// speaker and exactly one endpoint is the hub.
    fn star_check(speaker: PlayerId, (from, to): Edge) -> Result<(), ProtocolViolation> {
        if from == speaker && (from == 0) != (to == 0) {
            Ok(())
        } else {
            Err(ProtocolViolation::IllegalLink {
                speaker,
                reason: format!(
                    "player {speaker} granted link {from}->{to}, not allowed under the star topology"
                ),
            })
        }
    }

    /// A routed star schedule: each spoke in turn sends one bit up to hub
    /// 0, `rounds` times over (`usize::MAX`: never halts).
    struct Star {
        k: usize,
        rounds: usize,
    }

    impl TranscriptModel for Star {
        type Board = Vec<(PlayerId, Edge, BitVec)>;
        type Route = Edge;
        type Output = usize;

        fn num_players(&self) -> usize {
            self.k
        }

        fn next_turn(&self, board: &Self::Board) -> Option<(PlayerId, Edge)> {
            let spoke = 1 + board.len() % (self.k - 1);
            (board.len() / (self.k - 1) < self.rounds).then_some((spoke, (spoke, 0)))
        }

        fn check(&self, speaker: PlayerId, edge: Edge) -> Result<(), ProtocolViolation> {
            star_check(speaker, edge)
        }

        fn record(&self, board: &mut Self::Board, speaker: PlayerId, edge: Edge, bits: BitVec) {
            board.push((speaker, edge, bits));
        }

        fn output(&self, board: &Self::Board) -> usize {
            board.len()
        }
    }

    /// Grants the same `(speaker, edge)` forever, under the star rule.
    struct Fixed {
        turn: (PlayerId, Edge),
    }

    impl TranscriptModel for Fixed {
        type Board = Vec<BitVec>;
        type Route = Edge;
        type Output = ();

        fn num_players(&self) -> usize {
            3
        }

        fn next_turn(&self, _board: &Self::Board) -> Option<(PlayerId, Edge)> {
            Some(self.turn)
        }

        fn check(&self, speaker: PlayerId, edge: Edge) -> Result<(), ProtocolViolation> {
            star_check(speaker, edge)
        }

        fn record(&self, board: &mut Self::Board, _speaker: PlayerId, _edge: Edge, bits: BitVec) {
            board.push(bits);
        }

        fn output(&self, _board: &Self::Board) {}
    }

    fn drive(engine: &mut TurnEngine<'_, RoundRobin>, inputs: &[()]) {
        while let Step::Grant(grant) = engine.poll().expect("no violation") {
            let mut rng = grant.resume_rng();
            let bits = engine.model().message(
                grant.speaker,
                &inputs[grant.speaker],
                engine.board(),
                &mut rng,
            );
            engine
                .apply(grant.speaker, bits, Some(&rng.state_bytes()))
                .expect("apply");
        }
    }

    /// Re-polling re-issues the identical grant, route included.
    fn check_idempotent_poll<M: TranscriptModel>(model: M, speaker: PlayerId, route: M::Route) {
        let k = model.num_players();
        let mut engine = Engine::with_rng(model, k, &ChaCha8Rng::seed_from_u64(0)).unwrap();
        let first = engine.poll().unwrap();
        assert_eq!(
            engine.poll().unwrap(),
            first,
            "re-poll re-issues the same grant"
        );
        let Step::Grant(grant) = first else {
            panic!("expected a grant")
        };
        assert_eq!(
            (grant.speaker, grant.turn, grant.route),
            (speaker, 0, route)
        );
        assert!(grant.rng_state.is_some());
        assert_eq!(engine.granted(), Some(speaker));
    }

    /// The reply contract: no grant, wrong speaker, bad RNG state — each a
    /// structured violation that leaves the engine where it was — and
    /// then a good reply that lands and re-parks the RNG.
    fn check_reply_contract<M: TranscriptModel>(model: M) {
        let k = model.num_players();
        let mut engine = Engine::with_rng(model, k, &ChaCha8Rng::seed_from_u64(1)).unwrap();
        let err = engine.apply(0, BitVec::new(), None).unwrap_err();
        assert_eq!(err, ProtocolViolation::ReplyWithoutGrant { speaker: 0 });
        assert_eq!(
            err.to_string(),
            "player 0 replied without an outstanding grant"
        );

        let Step::Grant(grant) = engine.poll().unwrap() else {
            panic!("grant expected")
        };
        let granted = grant.speaker;
        let other = (granted + 1) % k;
        let err = engine
            .apply(other, BitVec::new(), Some(&[0u8; STATE_LEN]))
            .unwrap_err();
        assert_eq!(
            err,
            ProtocolViolation::WrongSpeaker {
                granted,
                speaker: other
            }
        );
        assert_eq!(
            err.to_string(),
            format!("player {other} replied on player {granted}'s grant")
        );

        let err = engine
            .apply(granted, BitVec::new(), Some(&[1, 2, 3]))
            .unwrap_err();
        assert_eq!(
            err,
            ProtocolViolation::BadRngState {
                speaker: granted,
                len: 3
            }
        );
        assert_eq!(
            err.to_string(),
            format!("player {granted} returned a bad RNG state")
        );
        let err = engine.apply(granted, BitVec::new(), None).unwrap_err();
        assert_eq!(
            err,
            ProtocolViolation::BadRngState {
                speaker: granted,
                len: 0
            }
        );
        assert_eq!(engine.steps(), 0);

        let mut rng = grant.resume_rng();
        let bits = BitVec::from_bools(&[rng.next_u32() & 1 == 1]);
        engine
            .apply(granted, bits, Some(&rng.state_bytes()))
            .expect("valid reply");
        assert_eq!(engine.steps(), 1);
        assert_eq!(engine.bits_written(), 1);
        assert_eq!(engine.rng_state(), Some(&rng.state_bytes()));
    }

    /// A never-halting model lands exactly `max_steps` writes, then trips
    /// the runaway guard.
    fn check_runaway<M: TranscriptModel>(model: M) {
        let k = model.num_players();
        let mut engine = Engine::new(model, k).unwrap().with_max_steps(16);
        let mut applied = 0usize;
        let err = loop {
            match engine.poll() {
                Ok(Step::Grant(grant)) => {
                    engine
                        .apply(grant.speaker, BitVec::from_bools(&[true]), None)
                        .unwrap();
                    applied += 1;
                }
                Ok(Step::Halted) => panic!("a never-halting model halted"),
                Err(v) => break v,
            }
        };
        assert_eq!(applied, 16, "exactly max_steps writes land");
        assert_eq!(engine.steps(), 16);
        assert_eq!(err, ProtocolViolation::Runaway { max_steps: 16 });
        assert_eq!(err.to_string(), "protocol exceeded 16 turns");
    }

    #[test]
    fn engine_matches_the_serial_runner() {
        let protocol = RoundRobin { k: 5 };
        let inputs = [(); 5];
        for seed in 0..20u64 {
            let serial = {
                let mut rng = ChaCha8Rng::seed_from_u64(seed);
                crate::protocol::run(&protocol, &inputs, &mut rng)
            };
            let rng = ChaCha8Rng::seed_from_u64(seed);
            let mut engine = TurnEngine::with_rng(&protocol, 5, &rng).unwrap();
            drive(&mut engine, &inputs);
            assert_eq!(engine.board(), &serial.board, "seed {seed}");
            assert_eq!(engine.output(), serial.output);
            assert_eq!(engine.bits_written(), serial.bits_written);
            assert_eq!(engine.steps(), 5);
            assert_eq!(engine.poll().unwrap(), Step::Halted);
        }
    }

    #[test]
    fn rng_round_trips_through_grants() {
        // The final parked state equals a straight-line run's state: the
        // engine neither loses nor duplicates randomness.
        let protocol = RoundRobin { k: 4 };
        let mut straight = ChaCha8Rng::seed_from_u64(9);
        let board = {
            let mut b = Board::new();
            for p in 0..4 {
                b.write(p, protocol.message(p, &(), &Board::new(), &mut straight));
            }
            b
        };
        let rng = ChaCha8Rng::seed_from_u64(9);
        let mut engine = TurnEngine::with_rng(&protocol, 4, &rng).unwrap();
        drive(&mut engine, &[(); 4]);
        assert_eq!(
            engine.rng_state().expect("parked"),
            &straight.state_bytes(),
            "post-run RNG states diverged"
        );
        assert_eq!(engine.board().total_bits(), board.total_bits());
    }

    #[test]
    fn input_count_is_checked_at_construction() {
        let protocol = RoundRobin { k: 3 };
        let err = TurnEngine::new(&protocol, 2).unwrap_err();
        assert_eq!(
            err,
            ProtocolViolation::InputCount {
                expected: 3,
                got: 2
            }
        );
        assert_eq!(err.to_string(), "expected 3 inputs, got 2");
    }

    #[test]
    fn poll_is_idempotent_while_a_grant_is_outstanding() {
        check_idempotent_poll(&RoundRobin { k: 2 }, 0, ());
        check_idempotent_poll(Star { k: 3, rounds: 1 }, 1, (1, 0));
    }

    #[test]
    fn halted_poll_is_idempotent() {
        let mut engine = TurnEngine::new(&RoundRobin { k: 0 }, 0).unwrap();
        assert_eq!(engine.poll().unwrap(), Step::Halted);
        assert_eq!(engine.poll().unwrap(), Step::Halted);
        let mut engine = Engine::new(Star { k: 3, rounds: 0 }, 3).unwrap();
        assert_eq!(engine.poll().unwrap(), Step::Halted);
        assert_eq!(engine.poll().unwrap(), Step::Halted);
    }

    #[test]
    fn reply_contract_violations_are_structured() {
        check_reply_contract(&RoundRobin { k: 3 });
        check_reply_contract(Star { k: 3, rounds: 1 });
    }

    #[test]
    fn out_of_range_speaker_is_a_violation() {
        struct Bad;
        impl Protocol for Bad {
            type Input = ();
            type Output = ();
            fn num_players(&self) -> usize {
                2
            }
            fn next_speaker(&self, _board: &Board) -> Option<PlayerId> {
                Some(7)
            }
            fn message(&self, _p: PlayerId, _i: &(), _b: &Board, _r: &mut dyn RngCore) -> BitVec {
                BitVec::new()
            }
            fn output(&self, _board: &Board) {}
        }
        let mut engine = TurnEngine::new(&Bad, 2).unwrap();
        let err = engine.poll().unwrap_err();
        assert_eq!(
            err,
            ProtocolViolation::SpeakerOutOfRange {
                speaker: 7,
                players: 2
            }
        );
        assert_eq!(err.to_string(), "protocol named speaker 7 of 2");
        // The violation is stable: polling again reports it again.
        assert_eq!(engine.poll().unwrap_err(), err);
    }

    #[test]
    fn illegal_links_are_checked_between_speaker_range_and_runaway() {
        let poll = |turn, max_steps| {
            Engine::new(Fixed { turn }, 3)
                .unwrap()
                .with_max_steps(max_steps)
                .poll()
        };
        // An out-of-range speaker on an illegal edge: the range wins.
        assert_eq!(
            poll((7, (7, 1)), 0).unwrap_err(),
            ProtocolViolation::SpeakerOutOfRange {
                speaker: 7,
                players: 3
            }
        );
        // A spoke-to-spoke edge on an exhausted budget: the link wins.
        let err = poll((1, (1, 2)), 0).unwrap_err();
        assert_eq!(
            err,
            ProtocolViolation::IllegalLink {
                speaker: 1,
                reason: "player 1 granted link 1->2, not allowed under the star topology".into(),
            }
        );
        assert_eq!(
            err.to_string(),
            "player 1 granted link 1->2, not allowed under the star topology"
        );
        // A legal edge on an exhausted budget: the runaway guard.
        assert_eq!(
            poll((1, (1, 0)), 0).unwrap_err(),
            ProtocolViolation::Runaway { max_steps: 0 }
        );
        // Budget left: a grant on the route.
        let Step::Grant(grant) = poll((1, (1, 0)), 1).unwrap() else {
            panic!("grant expected")
        };
        assert_eq!((grant.speaker, grant.route), (1, (1, 0)));
    }

    #[test]
    fn runaway_guard_trips_at_the_configured_budget() {
        check_runaway(&NeverHalts);
        check_runaway(Star {
            k: 3,
            rounds: usize::MAX,
        });
    }

    #[test]
    fn external_rng_grants_carry_no_state() {
        let protocol = RoundRobin { k: 2 };
        let mut engine = TurnEngine::new(&protocol, 2).unwrap();
        let Step::Grant(grant) = engine.poll().unwrap() else {
            panic!("grant expected")
        };
        assert_eq!(grant.rng_state, None);
        // apply ignores rng_state in external mode.
        engine
            .apply(grant.speaker, BitVec::from_bools(&[true]), None)
            .unwrap();
        assert_eq!(engine.steps(), 1);
        assert_eq!(engine.rng_state(), None);
    }
}
