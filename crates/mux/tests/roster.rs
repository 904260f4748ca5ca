//! Roster assembly on the mux daemon: a bad `Hello` gets a structured
//! `Error` frame and never burns its slot, so a later valid hello for
//! the same player still registers.

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::{Duration, Instant};

use bci_mux::daemon::{accept_mux_roster, SessionInfo};
use bci_mux::{connect_mux_player, MuxConn};
use bci_net::frame::{Frame, Hello, CONTROL_SESSION, PROTOCOL_VERSION_MUX};
use bci_net::NetConfig;
use bci_telemetry::Recorder;

fn fast_config() -> NetConfig {
    NetConfig {
        io_timeout: Duration::from_secs(5),
        backoff_base: Duration::from_millis(20),
        backoff_cap: Duration::from_millis(200),
        ..NetConfig::default()
    }
}

/// Sends one `Hello` on a fresh connection and returns the daemon's
/// `Error` message, panicking on anything else.
fn rejected_hello(addr: SocketAddr, config: &NetConfig, hello: Hello) -> String {
    let mut conn = MuxConn::new(TcpStream::connect(addr).expect("dial"), config).expect("wrap");
    conn.send_now(CONTROL_SESSION, &Frame::Hello(hello))
        .expect("send hello");
    match conn.recv_deadline(Instant::now() + config.io_timeout) {
        Ok((_, Frame::Error { message, .. })) => message,
        other => panic!("expected an error frame, got {other:?}"),
    }
}

fn hello(version: u16, protocol_id: &str, player: u32) -> Hello {
    Hello {
        version,
        protocol_id: protocol_id.into(),
        player,
        players: 0,
        seed: 0,
        params: vec![],
    }
}

#[test]
fn roster_rejects_bad_hellos_with_structured_errors() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr");
    let config = fast_config();
    let info = SessionInfo {
        protocol_id: "disj".into(),
        players: 2,
        seed: 7,
        params: vec![64, 1],
    };
    let recorder = Recorder::metrics_only();

    let (conns, (rejections, acks)) = std::thread::scope(|scope| {
        let config = &config;
        let client = scope.spawn(move || {
            let mut rejections = vec![
                rejected_hello(addr, config, hello(PROTOCOL_VERSION_MUX, "union", 0)),
                rejected_hello(addr, config, hello(1, "disj", 0)),
                rejected_hello(addr, config, hello(PROTOCOL_VERSION_MUX, "disj", 2)),
            ];
            // Player 0's slot survived both rejected claims on it.
            let (_p0, ack0, _) =
                connect_mux_player(addr, 0, "disj", config, 7).expect("player 0 registers");
            rejections.push(rejected_hello(
                addr,
                config,
                hello(PROTOCOL_VERSION_MUX, "disj", 0),
            ));
            let (_p1, ack1, _) =
                connect_mux_player(addr, 1, "disj", config, 7).expect("player 1 registers");
            (rejections, vec![ack0, ack1])
        });
        let conns = accept_mux_roster(
            &listener,
            &info,
            config,
            Instant::now() + config.io_timeout,
            &recorder,
        )
        .expect("roster fills after the rejections");
        (conns, client.join().expect("client thread"))
    });

    assert_eq!(conns.len(), 2);
    let expected = [
        "protocol mismatch",
        "version mismatch",
        "out of range",
        "already registered",
    ];
    for (message, needle) in rejections.iter().zip(expected) {
        assert!(message.contains(needle), "{needle:?} not in {message:?}");
    }
    for (player, ack) in acks.iter().enumerate() {
        assert_eq!(ack.player, player as u32);
        assert_eq!(ack.players, 2);
        assert_eq!(ack.params, vec![64, 1]);
    }
    let counters = recorder.snapshot();
    assert_eq!(counters.counter("mux.hello_rejected"), 4);
    assert_eq!(counters.counter("mux.roster_accepted"), 2);
}
