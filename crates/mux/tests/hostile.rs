//! Well-framed but adversarial peers on the simulated network, each
//! next to an honest player 0: a reply for a session that is finished or
//! was never admitted, and a second reply to one grant. Either must
//! cost exactly what it names — a `mux.late_replies` count, or the one
//! session it targets — while every honest session completes with the
//! transcript of an `InProcessTransport` replay of its seed.

mod sim;

use std::time::Instant;

use bci_blackboard::engine::ProtocolViolation;
use bci_encoding::bitio::BitVec;
use bci_mux::{MuxCore, MuxOptions, Outbox};
use bci_net::frame::{BroadcastFrame, Frame, NO_PLAYER};
use bci_net::NetConfig;
use bci_telemetry::{Recorder, Snapshot};

use sim::{
    coin_inputs, fingerprint, honest, inprocess_digests, Coins, Peer, Script, SimNet, SimRun,
};

const SEED: u64 = 0xBAD5EED;
const SESSIONS: u64 = 8;
static COINS: Coins = Coins { turns: 4 };

/// Runs [`SESSIONS`] sessions of [`Coins`] with the honest player 0 and
/// `player1`.
fn simulate(player1: Script<'static>) -> (SimRun, Snapshot) {
    let recorder = Recorder::metrics_only();
    let config = NetConfig::default();
    let opts = MuxOptions {
        max_inflight: 4,
        config: config.clone(),
        ..MuxOptions::default()
    };
    let base = Instant::now();
    let outboxes = vec![Outbox::default(); 2];
    let core = MuxCore::new(
        base,
        &COINS,
        outboxes,
        SESSIONS,
        SEED,
        coin_inputs,
        &opts,
        &recorder,
    );
    let peers = vec![Peer::new(honest(&COINS, 0)), Peer::new(player1)];
    let run = SimNet::new(base, core, peers, &config).run();
    (run, recorder.snapshot())
}

/// A well-framed reply from player 1, as an honest one looks.
fn forged_reply() -> Frame {
    Frame::Broadcast(BroadcastFrame {
        turn: 1,
        speaker: 1,
        bits: BitVec::from_bools(&[true]),
        next: NO_PLAYER,
        rng: vec![0; 41],
    })
}

/// The honest player 1, which also sends `extra` (on its session) the
/// first time `trigger` picks a frame it read.
fn honest_plus(trigger: fn(u64, &Frame) -> bool, extra: (u64, Frame)) -> Script<'static> {
    let mut play = honest(&COINS, 1);
    let mut extra = Some(extra);
    Box::new(move |now, session, frame| {
        let fire = trigger(session, &frame);
        let mut answer = play(now, session, frame)?;
        if fire {
            answer.extend(extra.take());
        }
        Some(answer)
    })
}

/// The honest player 1, which sends its first answer in `target` twice.
fn doubles_first_answer_in(target: u64) -> Script<'static> {
    let mut play = honest(&COINS, 1);
    let mut doubled = false;
    Box::new(move |now, session, frame| {
        let mut answer = play(now, session, frame)?;
        if session == target && !doubled && !answer.is_empty() {
            doubled = true;
            answer.push(answer[0].clone());
        }
        Some(answer)
    })
}

/// Simulates with `player1()` 100 times, checks every repeat gives the
/// same records, counters and end, and returns the first.
fn simulate_100(player1: impl Fn() -> Script<'static>) -> (SimRun, Snapshot) {
    let (run, snapshot) = simulate(player1());
    let first = fingerprint(&run, &snapshot);
    for _ in 1..100 {
        let (run, snapshot) = simulate(player1());
        assert_eq!(fingerprint(&run, &snapshot), first);
    }
    (run, snapshot)
}

/// Asserts that the sessions not in `spoiled` completed with their
/// in-process replay's digest, and both players saw every session end.
fn assert_honest_sessions_match_inprocess(run: &SimRun, spoiled: &[u64]) {
    let replay = inprocess_digests(&COINS, SESSIONS, SEED, coin_inputs);
    assert_eq!(run.report.records.len() as u64, SESSIONS);
    for record in &run.report.records {
        if spoiled.contains(&record.session) {
            continue;
        }
        assert_eq!(record.kind, 0, "{record:?}");
        assert_eq!(record.digest, replay[record.session as usize], "{record:?}");
    }
    assert_eq!(run.outcomes, [(SESSIONS, true), (SESSIONS, true)]);
}

#[test]
fn a_reply_for_a_dead_session_counts_one_late_reply_and_nothing_else() {
    type Trigger = fn(u64, &Frame) -> bool;
    let cases: [(&str, Trigger, u64); 2] = [
        // Right after the first input, for an id the run never admits.
        (
            "never admitted",
            |_, f| matches!(f, Frame::Input(_)),
            SESSIONS + 7,
        ),
        // Once session 0's outcome is in, for session 0.
        (
            "finished",
            |s, f| s == 0 && matches!(f, Frame::Outcome(_)),
            0,
        ),
    ];
    for (name, trigger, session) in cases {
        let (run, snapshot) = simulate_100(|| honest_plus(trigger, (session, forged_reply())));
        assert_eq!(snapshot.counter("mux.late_replies"), 1, "{name}");
        assert_eq!(
            snapshot.counter("mux.sessions_completed"),
            SESSIONS,
            "{name}"
        );
        assert_eq!(snapshot.counter("mux.sessions_aborted"), 0, "{name}");
        assert_honest_sessions_match_inprocess(&run, &[]);
    }
}

#[test]
fn a_second_reply_to_one_grant_aborts_only_that_session() {
    // Player 1 answers its first grant in session 2 twice. The first copy
    // is applied and grants player 0, so the second names the wrong
    // speaker.
    const TARGET: u64 = 2;
    let (run, snapshot) = simulate_100(|| doubles_first_answer_in(TARGET));
    let reason = ProtocolViolation::WrongSpeaker {
        granted: 0,
        speaker: 1,
    }
    .to_string();
    let target = &run.report.records[TARGET as usize];
    assert_eq!((target.kind, target.reason.as_str()), (2, reason.as_str()));
    assert_eq!(target.turns, 2, "the first copy was applied");
    assert_honest_sessions_match_inprocess(&run, &[TARGET]);
    assert_eq!(snapshot.counter("mux.sessions_aborted"), 1);
    assert_eq!(snapshot.counter("mux.sessions_completed"), SESSIONS - 1);
    // Player 0 answered the grant the first copy earned before the abort
    // reached it; that answer lands late.
    assert_eq!(snapshot.counter("mux.late_replies"), 1);
}
