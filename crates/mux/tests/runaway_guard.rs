//! The engine's runaway guard surfacing through the mux daemon: every
//! session of a never-halting protocol must end as a structured abort
//! (`SessionRecord.kind == outcome_kind::ABORTED`) after
//! `NetConfig::max_steps` turns, and the final outcome must still reach
//! the clients so they exit cleanly.

use std::net::TcpListener;
use std::time::{Duration, Instant};

use bci_blackboard::board::Board;
use bci_blackboard::protocol::Protocol;
use bci_blackboard::PlayerId;
use bci_encoding::bitio::BitVec;
use bci_mux::{connect_mux_player, run_mux_daemon, run_mux_player, MuxOptions, SessionInfo};
use bci_net::frame::outcome_kind;
use bci_net::NetConfig;
use bci_telemetry::Recorder;
use rand::{Rng, RngCore};

/// Round-robins forever: `next_speaker` never returns `None`.
struct NeverHalts {
    k: usize,
}

impl Protocol for NeverHalts {
    type Input = bool;
    type Output = usize;

    fn num_players(&self) -> usize {
        self.k
    }

    fn next_speaker(&self, board: &Board) -> Option<PlayerId> {
        Some(board.messages().len() % self.k)
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

    fn output(&self, board: &Board) -> usize {
        board.total_bits()
    }
}

#[test]
fn every_runaway_session_is_aborted_with_the_step_budget() {
    let max_steps = 32;
    let sessions = 4u64;
    let config = NetConfig {
        heartbeat_interval: Duration::from_millis(100),
        io_timeout: Duration::from_secs(5),
        max_steps,
        ..NetConfig::default()
    };
    let proto = NeverHalts { k: 3 };
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr");
    let info = SessionInfo {
        protocol_id: "never-halts".into(),
        players: proto.k as u32,
        seed: 7,
        params: vec![],
    };
    let recorder = Recorder::metrics_only();
    let opts = MuxOptions {
        // A generous per-session deadline: aborts must come from the step
        // budget, not from timers.
        deadline: Some(Duration::from_secs(60)),
        config: config.clone(),
        ..MuxOptions::default()
    };

    let report = std::thread::scope(|scope| {
        let players: Vec<_> = (0..proto.k)
            .map(|player| {
                let config = &config;
                let proto = &proto;
                scope.spawn(move || {
                    let (conn, _ack, _retries) =
                        connect_mux_player(addr, player, "never-halts", config, 7)
                            .expect("player connects");
                    run_mux_player(proto, conn, player, config, player == 0)
                        .expect("player runs to the final outcome")
                })
            })
            .collect();
        let conns = bci_mux::daemon::accept_mux_roster(
            &listener,
            &info,
            &config,
            Instant::now() + config.io_timeout,
            &recorder,
        )
        .expect("roster fills");
        let report = run_mux_daemon(
            &proto,
            conns,
            None,
            sessions,
            7,
            |_, rng| (0..proto.k).map(|_| rng.random_bool(0.5)).collect(),
            &opts,
            &recorder,
        );
        for handle in players {
            let player_report = handle.join().expect("player thread");
            assert_eq!(player_report.sessions, sessions);
            assert_eq!(player_report.completed, 0, "nothing completes");
        }
        report
    });

    assert_eq!(report.records.len(), sessions as usize);
    assert_eq!(report.completed(), 0);
    assert_eq!(report.failed(), sessions as usize);
    for record in &report.records {
        assert_eq!(
            record.kind,
            outcome_kind::ABORTED,
            "session {} must abort",
            record.session
        );
        assert!(
            record.reason.contains("exceeded") && record.reason.contains("32"),
            "abort reason must name the step budget: {}",
            record.reason
        );
        assert_eq!(
            record.turns, max_steps as u32,
            "the guard fires after exactly max_steps writes"
        );
        assert!(record.output.is_empty());
    }
}
