//! Well-framed but adversarial peers on the simulated network, each
//! next to an honest peer: a reply for a session that is finished or
//! was never admitted, a second reply to one grant, both when the next
//! grant goes to the other player and when it goes to the same one, and
//! a DISJ reply whose bits do not parse. Each must cost exactly what it
//! names — a `mux.late_replies` count, or the one session it targets —
//! while every honest session completes with the transcript of an
//! `InProcessTransport` replay of its seed.

mod sim;

use std::sync::LazyLock;
use std::time::Instant;

use bci_blackboard::engine::ProtocolViolation;
use bci_blackboard::protocol::Protocol;
use bci_encoding::bitio::{BitVec, BitWriter};
use bci_encoding::bitset::BitSet;
use bci_encoding::wire::Wire;
use bci_mux::sequencer::POLL_PANICKED;
use bci_mux::{MuxCore, MuxOptions, Outbox};
use bci_net::frame::{BroadcastFrame, Frame, NO_PLAYER};
use bci_net::NetConfig;
use bci_protocols::disj::broadcast::BroadcastDisj;
use bci_protocols::workload::random_sets;
use bci_telemetry::{Recorder, Snapshot};
use rand_chacha::ChaCha8Rng;

use sim::{
    coin_inputs, fingerprint, honest, inprocess_digests, Coins, Peer, Script, SimNet, SimRun,
};

const SEED: u64 = 0xBAD5EED;
const SESSIONS: u64 = 8;
/// The players alternate every turn.
static COINS: Coins = Coins {
    turns: 4,
    streak: 1,
};
/// Each player speaks twice in a row: turns 0, 1 are player 0's and
/// turns 2, 3 player 1's.
static PAIRS: Coins = Coins {
    turns: 4,
    streak: 2,
};

/// Two-player DISJ over a universe that is not a power of two, so a
/// 4-bit coordinate can name an element past it.
static DISJ: LazyLock<BroadcastDisj> = LazyLock::new(|| BroadcastDisj::new(12, 2));

/// Samples two half-density sets over [`DISJ`]'s universe.
fn disj_inputs(_session: u64, rng: &mut ChaCha8Rng) -> Vec<BitSet> {
    random_sets(DISJ.universe(), 2, 0.5, rng)
}

/// Runs [`SESSIONS`] sessions of `protocol`, with inputs from `sample`,
/// between `players`.
fn simulate<P, F>(
    protocol: &'static P,
    sample: F,
    players: [Script<'static>; 2],
) -> (SimRun, Snapshot)
where
    P: Protocol,
    P::Input: Wire,
    P::Output: Wire,
    F: Fn(u64, &mut ChaCha8Rng) -> Vec<P::Input>,
{
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
        base, protocol, outboxes, SESSIONS, SEED, sample, &opts, &recorder,
    );
    let peers = players.map(Peer::new).into();
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
fn doubles_first_answer_in(protocol: &'static Coins, target: u64) -> Script<'static> {
    let mut play = honest(protocol, 1);
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

/// Simulates `protocol` between the honest player 0 and `player1()` 100
/// times, checks every repeat gives the same records, counters and end,
/// and returns the first.
fn simulate_100(
    protocol: &'static Coins,
    player1: impl Fn() -> Script<'static>,
) -> (SimRun, Snapshot) {
    repeat_100(|| simulate(protocol, coin_inputs, [honest(protocol, 0), player1()]))
}

/// Runs `simulate` 100 times, checks every repeat gives the same
/// records, counters and end, and returns the first.
fn repeat_100(simulate: impl Fn() -> (SimRun, Snapshot)) -> (SimRun, Snapshot) {
    let (run, snapshot) = simulate();
    let first = fingerprint(&run, &snapshot);
    for _ in 1..100 {
        let (run, snapshot) = simulate();
        assert_eq!(fingerprint(&run, &snapshot), first);
    }
    (run, snapshot)
}

/// Asserts that the sessions not in `spoiled` completed with their
/// in-process replay's digest under `protocol` and `sample`, and both
/// players saw every session end.
fn assert_honest_sessions_match_inprocess<P, F>(
    protocol: &P,
    sample: F,
    run: &SimRun,
    spoiled: &[u64],
) where
    P: Protocol + Sync,
    P::Input: Sync + Wire,
    P::Output: Wire,
    F: Fn(u64, &mut ChaCha8Rng) -> Vec<P::Input>,
{
    let replay = inprocess_digests(protocol, SESSIONS, SEED, sample);
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
        let (run, snapshot) =
            simulate_100(&COINS, || honest_plus(trigger, (session, forged_reply())));
        assert_eq!(snapshot.counter("mux.late_replies"), 1, "{name}");
        assert_eq!(
            snapshot.counter("mux.sessions_completed"),
            SESSIONS,
            "{name}"
        );
        assert_eq!(snapshot.counter("mux.sessions_aborted"), 0, "{name}");
        assert_honest_sessions_match_inprocess(&COINS, coin_inputs, &run, &[]);
    }
}

#[test]
fn a_second_reply_to_one_grant_aborts_only_that_session() {
    // Player 1 answers its first grant in session 2 twice. The first copy
    // is applied and grants player 0, so the second names the wrong
    // speaker.
    const TARGET: u64 = 2;
    let (run, snapshot) = simulate_100(&COINS, || doubles_first_answer_in(&COINS, TARGET));
    let reason = ProtocolViolation::WrongSpeaker {
        granted: 0,
        speaker: 1,
    }
    .to_string();
    let target = &run.report.records[TARGET as usize];
    assert_eq!((target.kind, target.reason.as_str()), (2, reason.as_str()));
    assert_eq!(target.turns, 2, "the first copy was applied");
    assert_honest_sessions_match_inprocess(&COINS, coin_inputs, &run, &[TARGET]);
    assert_eq!(snapshot.counter("mux.sessions_aborted"), 1);
    assert_eq!(snapshot.counter("mux.sessions_completed"), SESSIONS - 1);
    // Player 0 answered the grant the first copy earned before the abort
    // reached it; that answer lands late.
    assert_eq!(snapshot.counter("mux.late_replies"), 1);
}

#[test]
fn a_second_reply_when_the_same_player_speaks_next_is_a_stale_turn() {
    // Player 1 answers turn 2 of session 2 twice. The first copy is
    // applied and grants player 1 turn 3, so the second copy is for a
    // turn already spent: it must not be applied as turn 3's message.
    const TARGET: u64 = 2;
    let (run, snapshot) = simulate_100(&PAIRS, || doubles_first_answer_in(&PAIRS, TARGET));
    let reason = ProtocolViolation::StaleTurn {
        speaker: 1,
        expected: 3,
        got: 2,
    }
    .to_string();
    let target = &run.report.records[TARGET as usize];
    assert_eq!((target.kind, target.reason.as_str()), (2, reason.as_str()));
    assert_eq!(target.turns, 3, "the first copy was applied");
    assert_honest_sessions_match_inprocess(&PAIRS, coin_inputs, &run, &[TARGET]);
    assert_eq!(snapshot.counter("mux.sessions_aborted"), 1);
    assert_eq!(snapshot.counter("mux.sessions_completed"), SESSIONS - 1);
    // Player 1 answered turn 3's grant before the abort reached it; that
    // answer lands late.
    assert_eq!(snapshot.counter("mux.late_replies"), 1);
}

#[test]
fn a_disj_reply_that_does_not_parse_aborts_only_that_session() {
    // Player 0's reply at turn 0 of session 2 is replaced: with two
    // players, replaying it to pick turn 1's speaker is the daemon's
    // only parse of it.
    const TARGET: u64 = 2;
    let mut bad_coordinate = BitWriter::new();
    bad_coordinate.write_bit(true);
    bad_coordinate.write_bits(15, 4); // past the universe [12]
    bad_coordinate.write_bit(false);
    let cases = [
        ("empty", BitVec::new()),
        ("coordinate 15", bad_coordinate.into_bits()),
    ];
    for (name, bits) in cases {
        let (run, snapshot) = repeat_100(|| {
            let player0 = replaces_first_answer_in(&DISJ, TARGET, bits.clone());
            simulate(&*DISJ, disj_inputs, [player0, honest(&*DISJ, 1)])
        });
        let target = &run.report.records[TARGET as usize];
        assert_eq!(
            (target.kind, target.reason.as_str()),
            (2, POLL_PANICKED),
            "{name}"
        );
        assert_eq!(target.turns, 1, "{name}: the reply was applied");
        assert_honest_sessions_match_inprocess(&*DISJ, disj_inputs, &run, &[TARGET]);
        assert_eq!(snapshot.counter("mux.sessions_aborted"), 1, "{name}");
        assert_eq!(
            snapshot.counter("mux.sessions_completed"),
            SESSIONS - 1,
            "{name}"
        );
        assert_eq!(snapshot.counter("mux.late_replies"), 0, "{name}");
    }
}

/// The honest player 0 of `protocol`, which sends `bits` in place of its
/// first answer in `target`.
fn replaces_first_answer_in(
    protocol: &'static BroadcastDisj,
    target: u64,
    bits: BitVec,
) -> Script<'static> {
    let mut play = honest(protocol, 0);
    let mut bits = Some(bits);
    Box::new(move |now, session, frame| {
        let mut answer = play(now, session, frame)?;
        if session == target {
            if let Some((_, Frame::Broadcast(reply))) = answer.first_mut() {
                if let Some(bits) = bits.take() {
                    reply.bits = bits;
                }
            }
        }
        Some(answer)
    })
}
