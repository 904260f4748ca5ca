//! The `bci load` harness: N synthetic players × M sessions against a
//! coordinator, with deadlines, percentiles, and a `bci.bench.v1` row.
//!
//! Two coordinator shapes are driven with the *same* workload and the
//! same per-session seeding discipline, so their transcript digests are
//! directly comparable (to each other and to the in-process transport):
//!
//! * [`CoordinatorKind::Mux`] — the `crates/mux` reactor daemon,
//!   multiplexing up to `max_inflight` concurrent sessions over one
//!   pooled connection per player;
//! * [`CoordinatorKind::ThreadPerConn`] — the PR-5 `bci-net`
//!   coordinator, which owns one session at a time and runs the M
//!   sessions back to back over persistent v1 connections. This is the
//!   baseline the mux daemon is measured against.
//!
//! By default each run is **verified**: player 0's replicas are digested
//! at outcome time, folded in session-id order, and compared against an
//! [`InProcessTransport`] replay of the identical seeds — an end-to-end
//! bit-identity check that crosses the wire, not a daemon self-report.

use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use bci_blackboard::runner::derive_trial_seed;
use bci_fabric::session::SessionOutcome;
use bci_fabric::transport::{InProcessTransport, SessionContext, Transport};
use bci_net::admin::{AdminClient, AdminServer};
use bci_net::client::{connect_player, run_player, PlayerBehavior};
use bci_net::coordinator::{accept_roster, run_coordinator_session, SessionInfo};
use bci_net::frame::NetError;
use bci_net::overhead::{fold_digest_u64, transcript_digest, SWEEP_DENSITY};
use bci_net::transport::WireStats;
use bci_net::NetConfig;
use bci_protocols::disj::broadcast::BroadcastDisj;
use bci_protocols::workload;
use bci_telemetry::hist::TURN_LATENCY_US_BOUNDS;
use bci_telemetry::{obj, Histogram, Json, Recorder, Snapshot};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::daemon::{accept_mux_roster, run_mux_daemon_with_admin, MuxOptions, MuxRunReport};
use crate::player::{connect_mux_player, run_mux_player};

/// Which coordinator a load run drove.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoordinatorKind {
    /// The multiplexed reactor daemon (`crates/mux`).
    Mux,
    /// The mux daemon with a live admin scraper attached
    /// (`LoadSpec::scrape_interval`) — same workload, same digests;
    /// comparing its row against [`CoordinatorKind::Mux`] measures the
    /// observation overhead.
    MuxScraped,
    /// The single-session, thread-per-connection coordinator
    /// (`bci_net::coordinator`), running sessions sequentially.
    ThreadPerConn,
    /// The thread-per-connection coordinator scraped through its
    /// dedicated [`AdminServer`] listener.
    ThreadPerConnScraped,
}

impl CoordinatorKind {
    /// Stable label used in reports and bench rows.
    pub fn label(&self) -> &'static str {
        match self {
            CoordinatorKind::Mux => "mux",
            CoordinatorKind::MuxScraped => "mux+scrape",
            CoordinatorKind::ThreadPerConn => "thread-per-conn",
            CoordinatorKind::ThreadPerConnScraped => "thread-per-conn+scrape",
        }
    }
}

/// Everything one load run needs.
#[derive(Debug, Clone)]
pub struct LoadSpec {
    /// Sessions to run (`M`).
    pub sessions: u64,
    /// Synthetic players (`N`, the roster size `k`).
    pub players: usize,
    /// DISJ universe size.
    pub n: usize,
    /// Workload density (probability each element is in a player's set).
    pub density: f64,
    /// Master seed; session `s` derives `derive_trial_seed(seed, s)`.
    pub seed: u64,
    /// Per-session wall-clock budget, enforced by the coordinator.
    pub deadline: Option<Duration>,
    /// Mux-only: cap on concurrently in-flight sessions.
    pub max_inflight: usize,
    /// Socket configuration shared by both sides.
    pub config: NetConfig,
    /// Verify transcripts against the in-process transport.
    pub verify: bool,
    /// Drive a remote coordinator instead of an in-process one. The
    /// remote daemon owns session admission; this side only plays.
    pub addr: Option<SocketAddr>,
    /// Attach a live admin scraper polling the coordinator's stats
    /// channel at this interval while the run is in flight. The report
    /// kind flips to the `*Scraped` variant and records how many
    /// snapshots landed — the digest discipline is unchanged, which is
    /// exactly the point: observation must not perturb transcripts.
    pub scrape_interval: Option<Duration>,
}

impl LoadSpec {
    /// A spec with the harness defaults: DISJ over `n = 64` at the sweep
    /// density, 30s per-session deadline, verification on.
    pub fn new(sessions: u64, players: usize) -> Self {
        LoadSpec {
            sessions,
            players,
            n: 64,
            density: SWEEP_DENSITY,
            seed: 1,
            deadline: Some(Duration::from_secs(30)),
            max_inflight: crate::daemon::DEFAULT_MAX_INFLIGHT,
            config: NetConfig::default(),
            verify: true,
            addr: None,
            scrape_interval: None,
        }
    }
}

/// What one load run measured.
#[derive(Debug)]
pub struct LoadReport {
    /// Which coordinator was driven.
    pub kind: CoordinatorKind,
    /// Sessions the run was asked for.
    pub sessions: u64,
    /// Sessions that ended `Completed`.
    pub completed: u64,
    /// Sessions that timed out, aborted, or never finished.
    pub failed: u64,
    /// Roster-complete → last outcome.
    pub elapsed: Duration,
    /// Turn service latencies. For the mux daemon this is the
    /// authoritative grant→reply histogram (`mux.turn_latency_us`); for
    /// the thread baseline it is `net.hop_rtt_us`; for a remote daemon
    /// it is the client-observed inter-broadcast gap.
    pub turn_latency: Histogram,
    /// Wire accounting (coordinator view when available, else the
    /// client view summed over players).
    pub wire: WireStats,
    /// Connect retries summed over players.
    pub reconnects: u64,
    /// End-to-end transcript digest fold (player 0's replicas for mux,
    /// the coordinator's boards for the thread baseline), in session-id
    /// order.
    pub digest: u64,
    /// The in-process replay's digest fold, when verification ran.
    pub digest_inprocess: Option<u64>,
    /// Stats snapshots the live scraper landed while the run was in
    /// flight (0 when no scraper was attached).
    pub scrapes: u64,
    /// The last snapshot the scraper saw, for post-run inspection.
    pub scrape_snapshot: Option<Snapshot>,
}

impl LoadReport {
    /// Completed sessions per wall-clock second.
    pub fn sessions_per_sec(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs == 0.0 {
            0.0
        } else {
            self.completed as f64 / secs
        }
    }

    /// Wire bits spent per transcript bit (0.0 when no transcript).
    pub fn wire_bits_per_transcript_bit(&self) -> f64 {
        self.wire.overhead_ratio()
    }

    /// Whether the end-to-end digest matched the in-process replay.
    /// `None` when verification was skipped.
    pub fn verified(&self) -> Option<bool> {
        self.digest_inprocess.map(|d| d == self.digest)
    }
}

/// Replays every session on [`InProcessTransport`] with the identical
/// seeding discipline and folds the transcript digests in session order.
pub fn inprocess_digest_fold(spec: &LoadSpec) -> u64 {
    let protocol = BroadcastDisj::new(spec.n, spec.players);
    let mut fold = 0u64;
    for session in 0..spec.sessions {
        let seed = derive_trial_seed(spec.seed, session);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let inputs = workload::random_sets(spec.n, spec.players, spec.density, &mut rng);
        let ctx = SessionContext {
            session_id: session,
            deadline: None,
            faults: &[],
            recorder: &bci_fabric::transport::DISABLED_RECORDER,
        };
        let result = InProcessTransport.run_session(&protocol, &inputs, rng, &ctx);
        fold = fold_digest_u64(fold, transcript_digest(&result.board));
    }
    fold
}

fn fold_sorted_digests(digests: &[(u64, u64)]) -> u64 {
    digests
        .iter()
        .fold(0u64, |acc, &(_, d)| fold_digest_u64(acc, d))
}

/// What the live scraper observed.
struct ScrapeRun {
    scrapes: u64,
    last: Option<Snapshot>,
}

/// Polls the coordinator's admin channel every `interval` until `stop`.
/// Waits on `ready` first so the dial never races roster assembly, and
/// swallows every error — a scraper must never be able to fail the run
/// it is watching (a failed fetch just drops the connection and redials
/// on the next tick).
fn run_scraper(
    addr: SocketAddr,
    interval: Duration,
    config: &NetConfig,
    ready: &AtomicBool,
    stop: &AtomicBool,
) -> ScrapeRun {
    let mut out = ScrapeRun {
        scrapes: 0,
        last: None,
    };
    while !ready.load(Ordering::Acquire) {
        if stop.load(Ordering::Acquire) {
            return out;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    let addr = addr.to_string();
    // A scraper must never outlive the run it observes: the load
    // listener stays bound after the daemon exits, so a full-fat
    // connect (5 attempts x 10s handshake timeout) against a dead
    // coordinator would stall the harness for ~50s. One attempt with a
    // short timeout keeps the tail bounded; the loop redials anyway.
    let mut config = config.clone();
    config.connect_attempts = 1;
    config.io_timeout = config.io_timeout.min(Duration::from_millis(500));
    let mut client = None;
    while !stop.load(Ordering::Acquire) {
        if client.is_none() {
            client = AdminClient::connect(&addr, &config).ok();
        }
        if let Some(c) = client.as_mut() {
            match c.fetch_snapshot() {
                Ok(snap) => {
                    out.scrapes += 1;
                    out.last = Some(snap);
                }
                Err(_) => client = None, // daemon gone or mid-shutdown
            }
        }
        std::thread::sleep(interval);
    }
    out
}

/// Drives the multiplexed coordinator. With `spec.addr` unset, an
/// in-process daemon is spun up on an ephemeral loopback listener; the
/// calling thread hosts the reactor and `spec.players` client threads
/// dial in through the full connect path. With `spec.addr` set, only
/// the players run, against the remote daemon.
pub fn run_load(spec: &LoadSpec) -> Result<LoadReport, NetError> {
    let protocol = BroadcastDisj::new(spec.n, spec.players);
    let protocol_id = "disj";
    let recorder = Recorder::metrics_only();

    type MuxRun = (Option<MuxRunReport>, Vec<PlayerRun>, Option<ScrapeRun>);
    let (daemon_report, player_reports, scrape): MuxRun = match spec.addr {
        Some(addr) => {
            // Remote daemon: the admin channel (if any) lives at the same
            // address, multiplexed over the roster listener.
            let ready = AtomicBool::new(true);
            let stop = AtomicBool::new(false);
            std::thread::scope(|scope| -> Result<MuxRun, NetError> {
                let (ready, stop) = (&ready, &stop);
                let scraper = spec.scrape_interval.map(|interval| {
                    scope.spawn(move || run_scraper(addr, interval, &spec.config, ready, stop))
                });
                let reports = run_players(&protocol, protocol_id, addr, spec);
                stop.store(true, Ordering::Release);
                let scrape = scraper.map(|h| h.join().expect("scraper thread panicked"));
                Ok((None, reports?, scrape))
            })?
        }
        None => {
            let listener = TcpListener::bind("127.0.0.1:0").map_err(NetError::Io)?;
            let addr = listener.local_addr().map_err(NetError::Io)?;
            let info = SessionInfo {
                protocol_id: protocol_id.to_string(),
                players: spec.players as u32,
                seed: spec.seed,
                params: vec![spec.n as u64, spec.sessions],
            };
            let opts = MuxOptions {
                deadline: spec.deadline,
                max_inflight: spec.max_inflight,
                config: spec.config.clone(),
                dump_flight_on_failure: false,
            };
            let ready = AtomicBool::new(false);
            let stop = AtomicBool::new(false);
            std::thread::scope(|scope| -> Result<MuxRun, NetError> {
                let players = scope.spawn(|| run_players(&protocol, protocol_id, addr, spec));
                let (ready, stop) = (&ready, &stop);
                let scraper = spec.scrape_interval.map(|interval| {
                    scope.spawn(move || run_scraper(addr, interval, &spec.config, ready, stop))
                });
                // Everything the daemon side does is wrapped so the stop
                // flag is set on *every* exit path — a roster failure must
                // not leave the scraper thread spinning.
                let run = (|| -> Result<MuxRunReport, NetError> {
                    let roster_deadline = Instant::now() + spec.config.io_timeout;
                    let conns = accept_mux_roster(
                        &listener,
                        &info,
                        &spec.config,
                        roster_deadline,
                        &recorder,
                    )?;
                    ready.store(true, Ordering::Release);
                    let n = spec.n;
                    let density = spec.density;
                    let k = spec.players;
                    Ok(run_mux_daemon_with_admin(
                        &protocol,
                        conns,
                        spec.scrape_interval.is_some().then_some(&listener),
                        spec.sessions,
                        spec.seed,
                        |_, rng| workload::random_sets(n, k, density, rng),
                        &opts,
                        &recorder,
                    ))
                })();
                stop.store(true, Ordering::Release);
                let scrape = scraper.map(|h| h.join().expect("scraper thread panicked"));
                let report = run?;
                let player_reports = players.join().expect("player host thread panicked")?;
                Ok((Some(report), player_reports, scrape))
            })?
        }
    };

    // Player 0 collects replica digests; its fold is the end-to-end
    // transcript identity for the whole run.
    let digest = fold_sorted_digests(&player_reports[0].digests);
    let mut reconnects = 0u64;
    let mut client_wire = WireStats::default();
    for pr in &player_reports {
        reconnects += pr.reconnects as u64;
        client_wire.merge(&pr.wire);
    }

    let (completed, failed, elapsed, wire, turn_latency) = match &daemon_report {
        Some(report) => {
            debug_assert_eq!(
                report.digest_fold(),
                digest,
                "daemon and player-0 transcript folds diverged"
            );
            let hist = recorder
                .snapshot()
                .hist("mux.turn_latency_us")
                .cloned()
                .unwrap_or_else(|| Histogram::new(TURN_LATENCY_US_BOUNDS));
            let mut wire = report.wire;
            wire.reconnects = reconnects;
            (
                report.completed() as u64,
                spec.sessions - report.completed() as u64,
                report.elapsed,
                wire,
                hist,
            )
        }
        None => {
            // Remote daemon: client-side view only.
            let completed = player_reports[0].completed;
            let mut hist = Histogram::new(TURN_LATENCY_US_BOUNDS);
            hist.merge(&player_reports[0].turn_gaps);
            let elapsed = player_reports[0].elapsed;
            client_wire.reconnects = reconnects;
            client_wire.transcript_bits = player_reports[0].transcript_bits;
            (
                completed,
                spec.sessions.saturating_sub(completed),
                elapsed,
                client_wire,
                hist,
            )
        }
    };

    let digest_inprocess = spec.verify.then(|| inprocess_digest_fold(spec));
    let (scrapes, scrape_snapshot) = match scrape {
        Some(s) => (s.scrapes, s.last),
        None => (0, None),
    };
    Ok(LoadReport {
        kind: if spec.scrape_interval.is_some() {
            CoordinatorKind::MuxScraped
        } else {
            CoordinatorKind::Mux
        },
        sessions: spec.sessions,
        completed,
        failed,
        elapsed,
        turn_latency,
        wire,
        reconnects,
        digest,
        digest_inprocess,
        scrapes,
        scrape_snapshot,
    })
}

/// A player report plus harness-side timing.
struct PlayerRun {
    digests: Vec<(u64, u64)>,
    turn_gaps: Histogram,
    wire: WireStats,
    reconnects: u32,
    completed: u64,
    elapsed: Duration,
    transcript_bits: u64,
}

/// Spawns one thread per synthetic player and joins them.
fn run_players(
    protocol: &BroadcastDisj,
    protocol_id: &str,
    addr: SocketAddr,
    spec: &LoadSpec,
) -> Result<Vec<PlayerRun>, NetError> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..spec.players)
            .map(|player| {
                scope.spawn(move || -> Result<PlayerRun, NetError> {
                    let (conn, _ack, retries) =
                        connect_mux_player(addr, player, protocol_id, &spec.config, spec.seed)?;
                    let started = Instant::now();
                    let mut report =
                        run_mux_player(protocol, conn, player, &spec.config, player == 0)?;
                    report.reconnects = retries;
                    Ok(PlayerRun {
                        digests: std::mem::take(&mut report.digests),
                        turn_gaps: report.turn_gaps,
                        wire: report.wire,
                        reconnects: retries,
                        completed: report.completed,
                        elapsed: started.elapsed(),
                        transcript_bits: report.transcript_bits,
                    })
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("player thread panicked"))
            .collect()
    })
}

/// Drives the PR-5 thread-per-connection coordinator over the same
/// workload: the roster connects once, then the `M` sessions run
/// sequentially (that coordinator owns one sequencer at a time — the
/// very bottleneck the mux daemon removes). Always in-process.
pub fn run_load_thread_baseline(spec: &LoadSpec) -> Result<LoadReport, NetError> {
    let protocol = BroadcastDisj::new(spec.n, spec.players);
    let protocol_id = "disj";
    let recorder = Recorder::metrics_only();
    let listener = TcpListener::bind("127.0.0.1:0").map_err(NetError::Io)?;
    let addr = listener.local_addr().map_err(NetError::Io)?;
    let info = SessionInfo {
        protocol_id: protocol_id.to_string(),
        players: spec.players as u32,
        seed: spec.seed,
        params: vec![spec.n as u64, spec.sessions],
    };

    // The v1 coordinator has no mux envelope to ride, so its stats
    // channel is a dedicated listener served by `AdminServer` threads.
    let admin = match spec.scrape_interval {
        Some(_) => {
            let admin_listener = TcpListener::bind("127.0.0.1:0").map_err(NetError::Io)?;
            Some(AdminServer::spawn(
                admin_listener,
                recorder.clone(),
                spec.config.clone(),
            )?)
        }
        None => None,
    };
    let scrape_ready = AtomicBool::new(true);
    let scrape_stop = AtomicBool::new(false);

    let (digest, completed, elapsed, wire, reconnects, scrape) =
        std::thread::scope(|scope| -> Result<_, NetError> {
            let handles: Vec<_> = (0..spec.players)
                .map(|player| {
                    scope.spawn(move || -> Result<u32, NetError> {
                        let (conn, _ack, retries) =
                            connect_player(addr, player, protocol_id, &spec.config, spec.seed)?;
                        run_player(
                            &BroadcastDisj::new(spec.n, spec.players),
                            conn,
                            player,
                            PlayerBehavior::default(),
                            &spec.config,
                        )?;
                        Ok(retries)
                    })
                })
                .collect();
            let (ready, stop) = (&scrape_ready, &scrape_stop);
            let scraper = admin
                .as_ref()
                .zip(spec.scrape_interval)
                .map(|(server, interval)| {
                    let admin_addr = server.local_addr();
                    scope
                        .spawn(move || run_scraper(admin_addr, interval, &spec.config, ready, stop))
                });

            let run = (|| -> Result<_, NetError> {
                let roster_deadline = Instant::now() + spec.config.io_timeout;
                let mut conns = accept_roster(&listener, &info, &spec.config, roster_deadline)?;
                let start = Instant::now();
                let mut digest = 0u64;
                let mut completed = 0u64;
                let mut transcript_bits = 0u64;
                for session in 0..spec.sessions {
                    let seed = derive_trial_seed(spec.seed, session);
                    let mut rng = ChaCha8Rng::seed_from_u64(seed);
                    let inputs =
                        workload::random_sets(spec.n, spec.players, spec.density, &mut rng);
                    let ctx = SessionContext {
                        session_id: session,
                        deadline: spec.deadline,
                        faults: &[],
                        recorder: &recorder,
                    };
                    let remaining = (spec.sessions - 1 - session) as u32;
                    let result = run_coordinator_session(
                        &protocol,
                        &inputs,
                        rng,
                        &ctx,
                        &mut conns,
                        &spec.config,
                        session as u32,
                        remaining,
                    );
                    digest = fold_digest_u64(digest, transcript_digest(&result.board));
                    transcript_bits += result.board.total_bits() as u64;
                    if result.outcome == SessionOutcome::Completed {
                        completed += 1;
                    }
                }
                let elapsed = start.elapsed();
                let mut wire = WireStats {
                    transcript_bits,
                    ..WireStats::default()
                };
                for pc in &conns {
                    wire.bytes_tx += pc.conn.bytes_written;
                    wire.bytes_rx += pc.conn.bytes_read();
                    wire.frames_tx += pc.conn.frames_written;
                    wire.frames_rx += pc.conn.frames_read();
                    wire.payload_bytes_tx += pc.conn.payload_bytes_written;
                    wire.payload_bytes_rx += pc.conn.payload_bytes_read();
                }
                drop(conns); // hang up so any stuck player thread exits
                let mut reconnects = 0u64;
                for h in handles {
                    if let Ok(retries) = h.join().expect("player thread panicked") {
                        reconnects += retries as u64;
                    }
                }
                Ok((digest, completed, elapsed, wire, reconnects))
            })();
            stop.store(true, Ordering::Release);
            let scrape = scraper.map(|h| h.join().expect("scraper thread panicked"));
            let (digest, completed, elapsed, wire, reconnects) = run?;
            Ok((digest, completed, elapsed, wire, reconnects, scrape))
        })?;
    if let Some(server) = admin {
        server.stop();
    }

    let turn_latency = recorder
        .snapshot()
        .hist("net.hop_rtt_us")
        .cloned()
        .unwrap_or_else(Histogram::latency_us);
    let mut wire = wire;
    wire.reconnects = reconnects;
    let digest_inprocess = spec.verify.then(|| inprocess_digest_fold(spec));
    let (scrapes, scrape_snapshot) = match scrape {
        Some(s) => (s.scrapes, s.last),
        None => (0, None),
    };
    Ok(LoadReport {
        kind: if spec.scrape_interval.is_some() {
            CoordinatorKind::ThreadPerConnScraped
        } else {
            CoordinatorKind::ThreadPerConn
        },
        sessions: spec.sessions,
        completed,
        failed: spec.sessions - completed,
        elapsed,
        turn_latency,
        wire,
        reconnects,
        digest,
        digest_inprocess,
        scrapes,
        scrape_snapshot,
    })
}

/// The bench document's `meta` object. When the report set contains both
/// a scraped and an unscraped mux run of the same workload, the pair is
/// distilled into a scrape-overhead measurement: sessions/sec with and
/// without a live admin scraper attached.
fn bench_meta(spec: &LoadSpec, reports: &[LoadReport]) -> Json {
    let mut meta = vec![
        ("seed".to_owned(), Json::UInt(spec.seed)),
        ("sessions".to_owned(), Json::UInt(spec.sessions)),
        ("players".to_owned(), Json::UInt(spec.players as u64)),
        ("n".to_owned(), Json::UInt(spec.n as u64)),
        (
            "max_inflight".to_owned(),
            Json::UInt(spec.max_inflight as u64),
        ),
    ];
    let round2 = |x: f64| (x * 100.0).round() / 100.0;
    let unscraped = reports.iter().find(|r| r.kind == CoordinatorKind::Mux);
    let scraped = reports
        .iter()
        .find(|r| r.kind == CoordinatorKind::MuxScraped);
    if let (Some(base), Some(with)) = (unscraped, scraped) {
        let base_rate = base.sessions_per_sec();
        let with_rate = with.sessions_per_sec();
        meta.push((
            "sessions_per_sec_unscraped".to_owned(),
            Json::Num(round2(base_rate)),
        ));
        meta.push((
            "sessions_per_sec_scraped".to_owned(),
            Json::Num(round2(with_rate)),
        ));
        if let Some(interval) = spec.scrape_interval {
            meta.push((
                "scrape_interval_ms".to_owned(),
                Json::UInt(interval.as_millis() as u64),
            ));
        }
        let overhead_pct = if base_rate > 0.0 {
            (base_rate - with_rate) / base_rate * 100.0
        } else {
            0.0
        };
        meta.push((
            "scrape_overhead_pct".to_owned(),
            Json::Num(round2(overhead_pct)),
        ));
    }
    Json::Obj(meta)
}

/// Renders load reports as one `bci.bench.v1` document — the schema
/// `table_all --experiment <id> --json` and `bci netrun --json` already
/// emit, so the CI validators apply unchanged.
pub fn bench_document(spec: &LoadSpec, reports: &[LoadReport]) -> Json {
    let columns = [
        "coordinator",
        "sessions",
        "players",
        "completed",
        "failed",
        "elapsed ms",
        "sessions/sec",
        "turn p50 us",
        "turn p95 us",
        "turn p99 us",
        "wire bytes",
        "transcript bits",
        "wire bits/bit",
        "reconnects",
        "scrapes",
        "digest",
    ];
    let rows: Vec<Json> = reports
        .iter()
        .map(|r| {
            Json::Arr(vec![
                Json::str(r.kind.label()),
                Json::UInt(r.sessions),
                Json::UInt(spec.players as u64),
                Json::UInt(r.completed),
                Json::UInt(r.failed),
                Json::UInt(r.elapsed.as_millis() as u64),
                Json::Num((r.sessions_per_sec() * 100.0).round() / 100.0),
                Json::UInt(r.turn_latency.percentile(50.0)),
                Json::UInt(r.turn_latency.percentile(95.0)),
                Json::UInt(r.turn_latency.percentile(99.0)),
                Json::UInt(r.wire.bytes_total()),
                Json::UInt(r.wire.transcript_bits),
                Json::Num((r.wire_bits_per_transcript_bit() * 100.0).round() / 100.0),
                Json::UInt(r.reconnects),
                Json::UInt(r.scrapes),
                Json::str(match r.verified() {
                    Some(true) => "match",
                    Some(false) => "MISMATCH",
                    None => "unverified",
                }),
            ])
        })
        .collect();
    obj([
        ("schema", Json::str("bci.bench.v1")),
        ("experiment", Json::str("load")),
        (
            "title",
            Json::str("load — concurrent-session throughput by coordinator"),
        ),
        (
            "notes",
            Json::Arr(vec![Json::str(
                "(digest column compares player-observed transcripts against an \
                 in-process replay of the same seeds, folded in session order)",
            )]),
        ),
        ("meta", bench_meta(spec, reports)),
        (
            "tables",
            Json::Arr(vec![obj([
                ("label", Json::str("")),
                (
                    "columns",
                    Json::Arr(columns.iter().map(|c| Json::str(*c)).collect()),
                ),
                ("rows", Json::Arr(rows)),
            ])]),
        ),
    ])
}
