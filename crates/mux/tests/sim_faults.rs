//! Connection-level faults on the simulated network: a roster player
//! that holds its grants, goes silent, hangs up, stops reading, reads
//! only a trickle, answers slowly, or panics while computing a message.
//! Player 0 is always the honest player; player 1 is scripted. Every
//! case pins the outcome kind and reason of every session, the
//! counters, and the virtual instant the run ends at — and gives the
//! same answer on every repeat.

mod sim;

use std::time::{Duration, Instant};

use bci_mux::{MuxCore, MuxOptions, Outbox};
use bci_net::NetConfig;
use bci_telemetry::{Recorder, Snapshot};

use sim::{fingerprint, honest, mute, PanickyRelay, Peer, Relay, SimNet, SimRun, MS};

const SEED: u64 = 0xFA17;
static RELAY: Relay = Relay { turns: 4 };
static PANICKY: PanickyRelay = PanickyRelay(Relay { turns: 4 });

/// One fault case: socket policy, daemon options, workload size.
#[derive(Clone)]
struct Case {
    config: NetConfig,
    deadline: Option<Duration>,
    sessions: u64,
    max_inflight: usize,
    /// Bytes in each player's input.
    payload: usize,
}

impl Case {
    fn new(sessions: u64, max_inflight: usize) -> Case {
        Case {
            config: NetConfig {
                heartbeat_interval: Duration::from_millis(50),
                miss_limit: 4,
                io_timeout: Duration::from_secs(2),
                ..NetConfig::default()
            },
            deadline: Some(Duration::from_secs(30)),
            sessions,
            max_inflight,
            payload: 8,
        }
    }
}

/// Runs `case` with the honest player 0 and `player1`.
fn simulate(case: &Case, player1: Peer<'static>) -> (SimRun, Snapshot) {
    let recorder = Recorder::metrics_only();
    let opts = MuxOptions {
        deadline: case.deadline,
        max_inflight: case.max_inflight,
        config: case.config.clone(),
        ..MuxOptions::default()
    };
    let payload = case.payload;
    let base = Instant::now();
    let core = MuxCore::new(
        base,
        &RELAY,
        vec![Outbox::default(); 2],
        case.sessions,
        SEED,
        move |_, _| vec![vec![0u8; payload]; 2],
        &opts,
        &recorder,
    );
    let peers = vec![Peer::new(honest(&RELAY, 0)), player1];
    let run = SimNet::new(base, core, peers, &case.config).run();
    (run, recorder.snapshot())
}

fn held_grants() -> (SimRun, Snapshot) {
    let mut case = Case::new(6, 3);
    case.deadline = Some(Duration::from_millis(150));
    simulate(&case, Peer::new(mute()))
}

fn silent() -> (SimRun, Snapshot) {
    simulate(&Case::new(4, 4), Peer::new(mute()).silent())
}

fn hung_up() -> (SimRun, Snapshot) {
    simulate(&Case::new(4, 4), Peer::new(mute()).hung_up())
}

/// 32 sessions x 4 KiB inputs queue ~128 KiB for each player at
/// admission, far past the 16 KiB a link holds unread.
fn stall_case() -> Case {
    let mut case = Case::new(32, 32);
    case.payload = 4 << 10;
    case.config.io_timeout = Duration::from_millis(300);
    case
}

fn stops_reading() -> (SimRun, Snapshot) {
    simulate(&stall_case(), Peer::new(mute()).budget(0))
}

fn trickle() -> (SimRun, Snapshot) {
    simulate(&stall_case(), Peer::new(mute()).budget(256))
}

fn slow() -> (SimRun, Snapshot) {
    simulate(
        &Case::new(4, 4),
        Peer::new(honest(&RELAY, 1)).delay(10 * MS),
    )
}

fn panicking() -> (SimRun, Snapshot) {
    simulate(&Case::new(4, 4), Peer::new(honest(&PANICKY, 1)))
}

/// Checks every session ended with `kind` and `reason`, the counters
/// are exactly `counters` (sorted by name), the run ended at `ended`,
/// and player 0 was released by the final outcome, having seen every
/// session end.
fn check(
    (run, snapshot): &(SimRun, Snapshot),
    sessions: u64,
    (kind, reason): (u8, &str),
    counters: &[(&str, u64)],
    ended: Duration,
) {
    let records = &run.report.records;
    assert_eq!(records.len() as u64, sessions);
    for record in records {
        assert_eq!(
            (record.kind, record.reason.as_str()),
            (kind, reason),
            "{record:?}"
        );
    }
    let got: Vec<(&str, u64)> = snapshot
        .counters
        .iter()
        .map(|(name, &v)| (name.as_str(), v))
        .collect();
    assert_eq!(got, counters);
    assert_eq!(run.ended, ended);
    assert_eq!(run.outcomes[0], (sessions, true));
}

const TIMED_OUT: (u8, &str) = (1, "");

#[test]
fn held_grants_time_out_every_session() {
    // Two deadline waves: sessions 0-2 expire at 150 ms, 3-5 (admitted
    // as the first wave frees the window) at 300 ms.
    let outcome = held_grants();
    let counters = [
        ("mux.bytes_rx", 702),
        ("mux.bytes_tx", 2544),
        ("mux.frames_rx", 18),
        ("mux.frames_tx", 48),
        ("mux.sessions_started", 6),
        ("mux.sessions_timed_out", 6),
    ];
    check(&outcome, 6, TIMED_OUT, &counters, 300 * MS);
    assert!(outcome
        .0
        .report
        .records
        .iter()
        .all(|r| r.latency_us == 150_000));
}

#[test]
fn silent_player_aborts_on_missed_heartbeats() {
    // Player 1 was last heard at the start; the first tick past the
    // 4 x 50 ms horizon fails it.
    let counters = [
        ("mux.bytes_rx", 384),
        ("mux.bytes_tx", 1704),
        ("mux.frames_rx", 8),
        ("mux.frames_tx", 32),
        ("mux.sessions_aborted", 4),
        ("mux.sessions_started", 4),
    ];
    let reason = (2, "player 1 missed 4 heartbeats");
    check(&silent(), 4, reason, &counters, 201 * MS);
}

#[test]
fn hung_up_player_aborts_and_the_daemon_returns() {
    // The end of player 1's stream arrives right behind player 0's first
    // reply (session 0's first turn); nothing else happens.
    let outcome = hung_up();
    let counters = [
        ("mux.bytes_rx", 300),
        ("mux.bytes_tx", 1151),
        ("mux.frames_rx", 1),
        ("mux.frames_tx", 26),
        ("mux.sessions_aborted", 4),
        ("mux.sessions_started", 4),
    ];
    check(
        &outcome,
        4,
        (2, "player 1 disconnected"),
        &counters,
        Duration::ZERO,
    );
    let turns: Vec<u32> = outcome.0.report.records.iter().map(|r| r.turns).collect();
    assert_eq!(turns, [1, 0, 0, 0]);
}

const STALLED: (u8, &str) = (2, "player 1 stalled writes past io_timeout");

#[test]
fn player_that_stops_reading_aborts_on_stalled_writes() {
    // Player 1's link fills with the first 16 KiB and never drains: the
    // flush gives up at io_timeout, before any reply is read. Player 0
    // takes its 4 264 bytes a session, outcomes included.
    let counters = [
        ("mux.bytes_rx", 0),
        ("mux.bytes_tx", 32 * 4264 + (16 << 10)),
        ("mux.frames_rx", 0),
        ("mux.frames_tx", 192),
        ("mux.sessions_aborted", 32),
        ("mux.sessions_started", 32),
        ("mux.write_stalls", 1),
    ];
    check(&stops_reading(), 32, STALLED, &counters, 300 * MS);
}

#[test]
fn player_that_reads_a_trickle_aborts_within_io_timeout() {
    // Player 1 reads 256 bytes every millisecond, so every write to it
    // makes progress — 301 x 256 bytes more than the reader that stopped —
    // but the admission backlog would take half a second: io_timeout
    // bounds the whole flush, not each write.
    let counters = [
        ("mux.bytes_rx", 0),
        ("mux.bytes_tx", 32 * 4264 + (16 << 10) + 301 * 256),
        ("mux.frames_rx", 0),
        ("mux.frames_tx", 192),
        ("mux.sessions_aborted", 32),
        ("mux.sessions_started", 32),
        ("mux.write_stalls", 1),
    ];
    check(&trickle(), 32, STALLED, &counters, 300 * MS);
}

#[test]
fn slow_player_finishes_every_session_under_a_generous_deadline() {
    // Player 1 spends 10 ms on each answer, one at a time: its first
    // answers go out at 10, 20, 30 and 40 ms, its second at 50-80 ms.
    let outcome = slow();
    let counters = [
        ("mux.bytes_rx", 1200),
        ("mux.bytes_tx", 3232),
        ("mux.frames_rx", 16),
        ("mux.frames_tx", 56),
        ("mux.sessions_completed", 4),
        ("mux.sessions_started", 4),
    ];
    check(&outcome, 4, (0, ""), &counters, 80 * MS);
    let latencies: Vec<u64> = outcome
        .0
        .report
        .records
        .iter()
        .map(|r| r.latency_us)
        .collect();
    assert_eq!(latencies, [50_000, 60_000, 70_000, 80_000]);
    assert_eq!(outcome.0.outcomes[1], (4, true));
}

#[test]
fn player_whose_message_panics_hangs_up_and_every_session_aborts() {
    // Player 1 panics on its first grant and hangs up; the daemon has
    // read player 0's four first-turn replies by then.
    let outcome = panicking();
    let counters = [
        ("mux.bytes_rx", 300),
        ("mux.bytes_tx", 1676),
        ("mux.frames_rx", 4),
        ("mux.frames_tx", 32),
        ("mux.sessions_aborted", 4),
        ("mux.sessions_started", 4),
    ];
    let reason = (2, "player 1 disconnected");
    check(&outcome, 4, reason, &counters, Duration::ZERO);
    assert!(outcome.0.report.records.iter().all(|r| r.turns == 1));
}

#[test]
fn every_case_is_identical_over_100_runs() {
    let cases: [fn() -> (SimRun, Snapshot); 7] = [
        held_grants,
        silent,
        hung_up,
        stops_reading,
        trickle,
        slow,
        panicking,
    ];
    for case in cases {
        let (run, snapshot) = case();
        let first = fingerprint(&run, &snapshot);
        for _ in 1..100 {
            let (run, snapshot) = case();
            assert_eq!(fingerprint(&run, &snapshot), first);
        }
    }
}
