//! Session-level vocabulary: outcomes, deadlines, and injectable faults.
//!
//! A *session* is one protocol execution scheduled on the fabric: inputs
//! are sampled from the session's derived RNG, the protocol runs under a
//! [`Transport`](crate::transport::Transport), and the session ends in a
//! structured [`SessionOutcome`] — it never panics the worker that ran it.

use std::time::Duration;

use bci_blackboard::board::Board;
use bci_blackboard::engine::ProtocolViolation;
use bci_blackboard::PlayerId;

/// How one session ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SessionOutcome {
    /// The protocol ran to completion (within the deadline, if any).
    Completed,
    /// The deadline elapsed before the protocol halted. The partial board
    /// is preserved; no output was produced.
    TimedOut,
    /// The session was cut short — a crashed player, a runaway protocol, or
    /// a player panic — with a human-readable reason.
    Aborted(String),
}

impl SessionOutcome {
    /// `true` iff the session completed normally.
    pub fn is_completed(&self) -> bool {
        matches!(self, SessionOutcome::Completed)
    }

    /// A stable snake_case label, used as a telemetry attribute and in
    /// counter names (`fabric.completed` etc.).
    pub fn label(&self) -> &'static str {
        match self {
            SessionOutcome::Completed => "completed",
            SessionOutcome::TimedOut => "timed_out",
            SessionOutcome::Aborted(_) => "aborted",
        }
    }
}

/// Every driver maps an engine-detected [`ProtocolViolation`] onto the
/// same [`SessionOutcome::Aborted`] reason — the violation's canonical
/// `Display` string — so transcripts of a misbehaving protocol carry
/// identical diagnostics no matter which transport ran it.
impl From<ProtocolViolation> for SessionOutcome {
    fn from(violation: ProtocolViolation) -> Self {
        SessionOutcome::Aborted(violation.to_string())
    }
}

/// Everything a transport reports about one finished session.
#[derive(Debug, Clone)]
pub struct SessionResult<O> {
    /// Structured termination status.
    pub outcome: SessionOutcome,
    /// The protocol output — `Some` iff the outcome is
    /// [`Completed`](SessionOutcome::Completed).
    pub output: Option<O>,
    /// The board at termination (partial for timed-out/aborted sessions).
    pub board: Board,
    /// Bits on the board at termination.
    pub bits_written: usize,
    /// Wall-clock duration of the session.
    pub latency: Duration,
}

impl<O> SessionResult<O> {
    /// Seals a finished (or failed) session into its result, deriving
    /// `bits_written` from the board. The single finish path of every
    /// fabric session.
    pub fn seal(
        outcome: SessionOutcome,
        output: Option<O>,
        board: Board,
        latency: Duration,
    ) -> Self {
        let bits_written = board.total_bits();
        SessionResult {
            outcome,
            output,
            board,
            bits_written,
            latency,
        }
    }
}

/// Which sessions a fault applies to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionSelector {
    /// Every session.
    All,
    /// Exactly the session with this id.
    One(u64),
    /// Sessions whose id is divisible by `n` (`n = 0` matches none).
    EveryNth(u64),
}

impl SessionSelector {
    /// Does this selector match `session_id`?
    pub fn matches(&self, session_id: u64) -> bool {
        match *self {
            SessionSelector::All => true,
            SessionSelector::One(id) => session_id == id,
            SessionSelector::EveryNth(n) => n != 0 && session_id.is_multiple_of(n),
        }
    }
}

/// The failure mode injected into a player.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The player sleeps this long before every message it writes. Sessions
    /// exceed their deadline if the accumulated delay is large enough.
    SlowPlayer(Duration),
    /// The player dies the first time it is asked to speak, without
    /// replying. Transports detect the hangup and abort the session.
    CrashedPlayer,
    /// The player's first turn notification is lost: the player stays
    /// alive but never sees the request, so the session stalls until its
    /// deadline.
    DroppedWakeup,
}

/// One injected fault: a kind, the player it afflicts, and the sessions it
/// applies to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultSpec {
    /// What goes wrong.
    pub kind: FaultKind,
    /// The afflicted player.
    pub player: PlayerId,
    /// Which sessions are affected.
    pub sessions: SessionSelector,
}

/// A set of faults to inject across a fabric run.
///
/// # Example
///
/// ```
/// use bci_fabric::session::{FaultKind, FaultPlan, FaultSpec, SessionSelector};
///
/// let plan = FaultPlan::new()
///     .with(FaultSpec {
///         kind: FaultKind::CrashedPlayer,
///         player: 2,
///         sessions: SessionSelector::EveryNth(10),
///     });
/// assert_eq!(plan.for_session(20).len(), 1);
/// assert!(plan.for_session(7).is_empty());
/// ```
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    specs: Vec<FaultSpec>,
}

impl FaultPlan {
    /// An empty plan: no faults.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a fault.
    pub fn with(mut self, spec: FaultSpec) -> Self {
        self.specs.push(spec);
        self
    }

    /// All faults, regardless of selector.
    pub fn specs(&self) -> &[FaultSpec] {
        &self.specs
    }

    /// The faults that apply to `session_id`.
    pub fn for_session(&self, session_id: u64) -> Vec<FaultSpec> {
        self.specs
            .iter()
            .filter(|s| s.sessions.matches(session_id))
            .copied()
            .collect()
    }

    /// `true` if no session is ever affected.
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn selectors_match_as_documented() {
        assert!(SessionSelector::All.matches(0));
        assert!(SessionSelector::All.matches(u64::MAX));
        assert!(SessionSelector::One(5).matches(5));
        assert!(!SessionSelector::One(5).matches(6));
        assert!(SessionSelector::EveryNth(4).matches(0));
        assert!(SessionSelector::EveryNth(4).matches(8));
        assert!(!SessionSelector::EveryNth(4).matches(9));
        assert!(!SessionSelector::EveryNth(0).matches(0), "n = 0 is inert");
    }

    #[test]
    fn plan_filters_by_session() {
        let plan = FaultPlan::new()
            .with(FaultSpec {
                kind: FaultKind::CrashedPlayer,
                player: 0,
                sessions: SessionSelector::One(3),
            })
            .with(FaultSpec {
                kind: FaultKind::DroppedWakeup,
                player: 1,
                sessions: SessionSelector::All,
            });
        assert_eq!(plan.for_session(3).len(), 2);
        assert_eq!(plan.for_session(4).len(), 1);
        assert!(!plan.is_empty());
        assert!(FaultPlan::new().is_empty());
    }

    #[test]
    fn outcome_completed_predicate() {
        assert!(SessionOutcome::Completed.is_completed());
        assert!(!SessionOutcome::TimedOut.is_completed());
        assert!(!SessionOutcome::Aborted("x".into()).is_completed());
    }

    #[test]
    fn an_illegal_link_aborts_with_its_canonical_reason() {
        let reason = "player 1 granted link 1->2, not allowed under the star topology";
        let violation = ProtocolViolation::IllegalLink {
            speaker: 1,
            reason: reason.into(),
        };
        assert_eq!(
            SessionOutcome::from(violation),
            SessionOutcome::Aborted(reason.into())
        );
    }
}
