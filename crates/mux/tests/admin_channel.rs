//! End-to-end tests for the admin stats channel of a mux daemon: a real
//! daemon runs a short workload with its roster listener doubling as the
//! admin listener, then lingers on that listener answering scrapes, and
//! [`AdminClient`] (or a raw socket) scrapes it over TCP.

use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use bci_mux::daemon::{accept_mux_roster, linger_admin, run_mux_daemon, MuxOptions, SessionInfo};
use bci_mux::{connect_mux_player, run_mux_player};
use bci_net::admin::{scrape, AdminClient};
use bci_net::frame::{stats_request, Frame, FrameReader, Hello, ADMIN_PLAYER, CONTROL_SESSION};
use bci_net::{NetConfig, PROTOCOL_VERSION_MUX};
use bci_protocols::disj::broadcast::BroadcastDisj;
use bci_protocols::workload;
use bci_telemetry::hist::TURN_LATENCY_US_BOUNDS;
use bci_telemetry::{Recorder, SpanKind};

/// Sessions the daemon runs before it starts lingering.
const SESSIONS: u64 = 2;

fn test_config() -> NetConfig {
    NetConfig {
        io_timeout: Duration::from_secs(5),
        connect_attempts: 3,
        ..NetConfig::default()
    }
}

/// Runs a two-player DISJ daemon for [`SESSIONS`] sessions on a loopback
/// listener, then keeps answering admin scrapes on that listener while
/// `scrape` runs against it. Everything the daemon records lands on
/// `recorder`, which `scrape` may keep writing to.
fn with_lingering_daemon<T>(recorder: &Recorder, scrape: impl FnOnce(SocketAddr) -> T) -> T {
    let config = test_config();
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr");
    let proto = BroadcastDisj::new(16, 2);
    let info = SessionInfo {
        protocol_id: "disj".into(),
        players: 2,
        seed: 3,
        params: vec![16, SESSIONS],
    };
    let opts = MuxOptions {
        config: config.clone(),
        ..MuxOptions::default()
    };
    let done = AtomicBool::new(false);
    let (ready_tx, ready_rx) = mpsc::channel();
    std::thread::scope(|scope| {
        let (proto, config, done) = (&proto, &config, &done);
        for player in 0..2 {
            scope.spawn(move || {
                let (conn, _ack, _) =
                    connect_mux_player(addr, player, "disj", config, 3).expect("player connects");
                run_mux_player(proto, conn, player, config, false).expect("player runs")
            });
        }
        scope.spawn(move || {
            let conns = accept_mux_roster(
                &listener,
                &info,
                config,
                Instant::now() + config.io_timeout,
                recorder,
            )
            .expect("roster fills");
            let report = run_mux_daemon(
                proto,
                conns,
                Some(&listener),
                SESSIONS,
                3,
                |_, rng| workload::random_sets(16, 2, 0.7, rng),
                &opts,
                recorder,
            );
            assert_eq!(report.completed(), SESSIONS as usize);
            ready_tx.send(()).expect("test waits for the run");
            linger_admin(&listener, recorder, config, || done.load(Ordering::Acquire));
        });
        // Stops the linger however `scrape` exits, failed asserts included.
        let _stop = StopOnDrop(done);
        ready_rx.recv().expect("the run finished");
        scrape(addr)
    })
}

/// Raises its flag when dropped.
struct StopOnDrop<'a>(&'a AtomicBool);

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Release);
    }
}

/// Reads frames off a raw admin socket until one arrives.
fn next_frame(stream: &mut TcpStream, reader: &mut FrameReader) -> Frame {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        if let Some((_, frame)) = reader.poll_mux(stream).expect("read") {
            return frame;
        }
        assert!(Instant::now() < deadline, "server never answered");
    }
}

/// Dials `addr` with a short read timeout, so [`next_frame`] polls.
fn raw_admin_socket(addr: SocketAddr) -> TcpStream {
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_millis(10)))
        .expect("timeout");
    stream
}

#[test]
fn scrape_returns_the_live_snapshot() {
    let rec = Recorder::metrics_only();
    with_lingering_daemon(&rec, |addr| {
        let addr = addr.to_string();
        rec.gauge_set("test.inflight", 7);
        rec.hist_record("test.turn_latency_us", 1_234, TURN_LATENCY_US_BOUNDS);

        let reply = scrape(&addr, stats_request::SNAPSHOT, &test_config()).expect("scrape");
        let snap = reply.payload.into_snapshot().expect("valid payload");
        // The daemon's own numbers from the finished run ...
        assert_eq!(snap.counter("mux.sessions_completed"), SESSIONS);
        assert_eq!(snap.counter("mux.roster_accepted"), 2);
        assert!(snap.hist("mux.turn_latency_us").expect("turns").count() > 0);
        // ... and what was recorded after it.
        assert_eq!(snap.gauge("test.inflight"), 7);
        let hist = snap.hist("test.turn_latency_us").expect("histogram");
        assert_eq!(hist.count(), 1);
        assert_eq!(hist.max(), 1_234);

        // The scrape is a point-in-time copy: recording more and
        // re-scraping observes the new state.
        rec.counter_add("mux.sessions_completed", 8);
        let again = scrape(&addr, stats_request::SNAPSHOT, &test_config())
            .expect("second scrape")
            .payload
            .into_snapshot()
            .expect("valid");
        assert_eq!(again.counter("mux.sessions_completed"), SESSIONS + 8);
        assert!(again.uptime_us >= snap.uptime_us, "uptime is monotone");
    });
}

#[test]
fn one_connection_serves_repeated_fetches_and_events() {
    let rec = Recorder::with_flight(4);
    with_lingering_daemon(&rec, |addr| {
        for id in 0..6u64 {
            rec.point(SpanKind::Session, id, vec![]);
        }
        let mut client = AdminClient::connect(&addr.to_string(), &test_config()).expect("connect");
        let first = client.fetch_snapshot().expect("snapshot fetch");
        rec.counter_add("ticks", 1);
        let second = client.fetch_snapshot().expect("refetch on same conn");
        assert_eq!(second.counter("ticks"), first.counter("ticks") + 1);

        let events = client
            .fetch(stats_request::EVENTS)
            .expect("events fetch")
            .events_jsonl;
        let lines: Vec<&str> = events.lines().collect();
        assert_eq!(lines.len(), 4, "ring capacity bounds the dump");
        assert!(lines.iter().all(|l| l.starts_with("{\"ts_us\":")));
        assert!(lines.last().expect("last").contains("\"id\":5"));

        let both = client
            .fetch(stats_request::SNAPSHOT | stats_request::EVENTS)
            .expect("combined fetch");
        assert!(!both.events_jsonl.is_empty());
        assert_eq!(
            both.payload.into_snapshot().expect("snap").counter("ticks"),
            1
        );
    });
}

#[test]
fn prometheus_rendering_of_a_scrape_is_well_formed() {
    let rec = Recorder::metrics_only();
    with_lingering_daemon(&rec, |addr| {
        rec.hist_record("test.turn_latency_us", 50, TURN_LATENCY_US_BOUNDS);
        let snap = scrape(&addr.to_string(), stats_request::SNAPSHOT, &test_config())
            .expect("scrape")
            .payload
            .into_snapshot()
            .expect("valid");
        let text = snap.to_prometheus();
        assert!(text.contains("# TYPE bci_uptime_seconds gauge\n"));
        assert!(text.contains(&format!(
            "# TYPE mux_sessions_completed counter\nmux_sessions_completed {SESSIONS}\n"
        )));
        assert!(text.contains("# TYPE mux_turn_latency_us histogram\n"));
        assert!(text.contains("# TYPE test_turn_latency_us histogram\n"));
        assert!(text.contains("test_turn_latency_us_bucket{le=\"+Inf\"} 1\n"));
        assert!(text.contains("test_turn_latency_us_count 1\n"));
    });
}

#[test]
fn non_admin_hellos_are_rejected() {
    with_lingering_daemon(&Recorder::metrics_only(), |addr| {
        // A roster-player hello (wrong sentinel) must be turned away.
        let mut stream = raw_admin_socket(addr);
        let hello = Frame::Hello(Hello {
            version: PROTOCOL_VERSION_MUX,
            protocol_id: "disj".into(),
            player: 0,
            players: 0,
            seed: 0,
            params: vec![],
        });
        stream
            .write_all(&hello.to_bytes_mux(CONTROL_SESSION))
            .expect("send");
        match next_frame(&mut stream, &mut FrameReader::new_mux()) {
            Frame::Error { message, .. } => {
                assert!(
                    message.contains("ADMIN_PLAYER"),
                    "explains the rejection: {message}"
                )
            }
            other => panic!("expected rejection, got {other:?}"),
        }

        // A stale version is refused too.
        let mut stream = raw_admin_socket(addr);
        let hello = Frame::Hello(Hello {
            version: 1,
            protocol_id: "bci-admin".into(),
            player: ADMIN_PLAYER,
            players: 0,
            seed: 0,
            params: vec![],
        });
        stream
            .write_all(&hello.to_bytes_mux(CONTROL_SESSION))
            .expect("send");
        let reply = next_frame(&mut stream, &mut FrameReader::new_mux());
        assert!(matches!(reply, Frame::Error { .. }), "{reply:?}");
    });
}

#[test]
fn stats_before_hello_is_a_protocol_violation() {
    with_lingering_daemon(&Recorder::metrics_only(), |addr| {
        let mut stream = raw_admin_socket(addr);
        stream
            .write_all(
                &Frame::Stats {
                    what: stats_request::SNAPSHOT,
                }
                .to_bytes_mux(CONTROL_SESSION),
            )
            .expect("send");
        let reply = next_frame(&mut stream, &mut FrameReader::new_mux());
        assert!(
            matches!(reply, Frame::Error { .. }),
            "unauthenticated stats must be refused, got {reply:?}"
        );
    });
}
