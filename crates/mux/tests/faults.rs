//! Connection-level faults against the live mux daemon, one for each
//! path the TCP shell owns: a roster player that stops reading (the
//! bounded flush), hangs up (a reader thread's end of stream), or goes
//! silent (the wall-clock heartbeat horizon). Player 0 is always honest
//! (`run_mux_player`); player 1 is a scripted peer on its handshaken
//! [`MuxConn`]. Every case must end in bounded wall time with every
//! session carrying the expected typed outcome, the matching
//! per-outcome counter, and player 0 released by the final
//! `remaining == 0` outcome. The session logic behind each fault, and
//! the other faults, are pinned exactly on the simulated network
//! (`sim_faults.rs`).

mod sim;

use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use bci_mux::daemon::{accept_mux_roster, MuxRunReport, SessionInfo};
use bci_mux::{connect_mux_player, run_mux_daemon, run_mux_player, MuxConn, MuxOptions};
use bci_net::frame::{Frame, CONTROL_SESSION};
use bci_net::NetConfig;
use bci_telemetry::{Recorder, Snapshot};

use sim::Relay;

const PROTOCOL_ID: &str = "relay";
const SEED: u64 = 0xFA17;

/// One fault case: socket policy, daemon options, workload size.
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

/// What one case produced.
struct Outcome {
    report: MuxRunReport,
    counters: Snapshot,
    /// Sessions player 0 saw end before its final outcome released it.
    player0_sessions: u64,
    wall: Duration,
}

/// Runs `case` with an honest player 0 and `peer` scripting player 1.
/// `peer` gets its handshaken connection and a flag raised once the
/// daemon has returned.
fn run_case<F>(case: &Case, peer: F) -> Outcome
where
    F: FnOnce(MuxConn, &AtomicBool) + Send,
{
    let proto = Relay { turns: 4 };
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr");
    let info = SessionInfo {
        protocol_id: PROTOCOL_ID.into(),
        players: 2,
        seed: SEED,
        params: vec![],
    };
    let recorder = Recorder::metrics_only();
    let opts = MuxOptions {
        deadline: case.deadline,
        max_inflight: case.max_inflight,
        config: case.config.clone(),
        ..MuxOptions::default()
    };
    let config = &case.config;
    let done = AtomicBool::new(false);
    let started = Instant::now();
    let (report, player0_sessions) = std::thread::scope(|scope| {
        let proto = &proto;
        let honest = scope.spawn(move || {
            let (conn, _ack, _retries) =
                connect_mux_player(addr, 0, PROTOCOL_ID, config, SEED).expect("player 0 connects");
            run_mux_player(proto, conn, 0, config, false)
                .expect("player 0 runs to the final outcome")
        });
        let done = &done;
        let scripted = scope.spawn(move || {
            let (conn, _ack, _retries) =
                connect_mux_player(addr, 1, PROTOCOL_ID, config, SEED).expect("player 1 connects");
            peer(conn, done);
        });
        let conns = accept_mux_roster(
            &listener,
            &info,
            config,
            Instant::now() + config.io_timeout,
            &recorder,
        )
        .expect("roster fills");
        let payload = case.payload;
        let report = run_mux_daemon(
            proto,
            conns,
            None,
            case.sessions,
            SEED,
            |_, _| vec![vec![0u8; payload]; 2],
            &opts,
            &recorder,
        );
        done.store(true, Ordering::Release);
        let player0 = honest.join().expect("player 0 thread");
        scripted.join().expect("player 1 thread");
        (report, player0.sessions)
    });
    Outcome {
        report,
        counters: recorder.snapshot(),
        player0_sessions,
        wall: started.elapsed(),
    }
}

/// Sends a heartbeat on the control session; false once the daemon is
/// gone.
fn heartbeat(conn: &mut MuxConn, seq: u64) -> bool {
    conn.send_now(CONTROL_SESSION, &Frame::Heartbeat { seq })
        .is_ok()
}

/// Checks the shape every case shares: one record per admitted session,
/// each with `kind` and `reason`, the matching counter, and player 0
/// released with exactly those sessions.
fn assert_all_ended(outcome: &Outcome, kind: u8, reason: &str, counter: &str) {
    let records = &outcome.report.records;
    assert!(!records.is_empty(), "at least one session was admitted");
    for record in records {
        assert_eq!(record.kind, kind, "session {}: {record:?}", record.session);
        assert_eq!(record.reason, reason, "session {}", record.session);
        assert!(record.output.is_empty());
    }
    assert_eq!(outcome.counters.counter(counter), records.len() as u64);
    assert_eq!(outcome.counters.counter("mux.sessions_completed"), 0);
    assert_eq!(
        outcome.player0_sessions,
        records.len() as u64,
        "player 0 exits on the final outcome, having seen every session end"
    );
}

#[test]
fn silent_player_aborts_on_missed_heartbeats() {
    let case = Case::new(4, 4);
    let outcome = run_case(&case, |conn, done| {
        // Never write, never read; hang up only after the daemon ends.
        while !done.load(Ordering::Acquire) {
            std::thread::sleep(Duration::from_millis(5));
        }
        drop(conn);
    });
    assert_all_ended(
        &outcome,
        2,
        "player 1 missed 4 heartbeats",
        "mux.sessions_aborted",
    );
    assert!(
        outcome.wall < Duration::from_secs(3),
        "staleness took {:?}",
        outcome.wall
    );
}

#[test]
fn hung_up_player_aborts_and_the_daemon_returns() {
    let case = Case::new(4, 4);
    let outcome = run_case(&case, |conn, _done| drop(conn));
    assert_all_ended(&outcome, 2, "player 1 disconnected", "mux.sessions_aborted");
    assert!(
        outcome.wall < Duration::from_secs(3),
        "hang-up took {:?}",
        outcome.wall
    );
}

#[test]
fn player_that_stops_reading_aborts_on_stalled_writes() {
    // 128 sessions x 64 KiB inputs queue 8 MiB for each player at
    // admission, past what the loopback socket buffers hold, so writes
    // to a player that never reads stop making progress.
    let mut case = Case::new(128, 128);
    case.payload = 64 << 10;
    case.config.io_timeout = Duration::from_millis(300);
    let outcome = run_case(&case, |mut conn, done| {
        // Heartbeat so staleness never fires, but never read.
        let mut seq = 0;
        while !done.load(Ordering::Acquire) {
            seq += 1;
            if !heartbeat(&mut conn, seq) {
                break;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
    });
    assert_eq!(outcome.report.records.len(), case.sessions as usize);
    assert_all_ended(
        &outcome,
        2,
        "player 1 stalled writes past io_timeout",
        "mux.sessions_aborted",
    );
    assert_eq!(outcome.counters.counter("mux.write_stalls"), 1);
    assert!(
        outcome.wall < Duration::from_secs(5),
        "the stall took {:?} to surface",
        outcome.wall
    );
}
