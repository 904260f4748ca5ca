//! The multiplexed coordinator daemon: the TCP shell around [`MuxCore`],
//! which holds thousands of parked sequencer sessions over a pool of `k`
//! player connections.
//!
//! [`run_mux_daemon`] owns the clock, the sockets and the threads. One
//! blocking reader thread per connection decodes frames and sends each,
//! stamped with its decode instant, into one bounded channel. The
//! reactor loops: write every player's queue (each connection's flush
//! bounded by `NetConfig::io_timeout`), block on the channel until a
//! frame arrives or the core's next timer is due, hand the core every
//! frame that has arrived, then a tick. With an admin listener attached
//! it also serves admin scrapers every [`ADMIN_TICK`]; [`linger_admin`]
//! keeps serving them once the run is over.

use std::io::ErrorKind;
use std::net::{TcpListener, TcpStream};
use std::sync::mpsc::{self, SyncSender};
use std::time::{Duration, Instant};

use bci_blackboard::protocol::Protocol;
use bci_encoding::wire::Wire;
use bci_net::admin::{check_admin_hello, stats_reply};
use bci_net::frame::{Frame, FrameReader, Hello, NetError, CONTROL_SESSION, PROTOCOL_VERSION_MUX};
use bci_net::overhead::fold_digest_u64;
use bci_net::{NetConfig, WireStats};
use bci_telemetry::Recorder;
use rand_chacha::ChaCha8Rng;

use crate::conn::MuxConn;
use crate::sequencer::{Event, MuxCore};

/// How often the reactor accepts and serves admin scrapers, when an
/// admin listener is attached: a scrape waits at most this long.
pub const ADMIN_TICK: Duration = Duration::from_millis(10);

/// In-flight window beyond which the inbound channel stops growing.
const MAX_INBOUND_WINDOW: usize = 1 << 14;

/// Sleep between accept attempts while the roster fills.
const ACCEPT_POLL: Duration = Duration::from_micros(200);

/// Default bound on concurrently in-flight sessions. Bounds daemon
/// memory and keeps the outcome `remaining` countdown meaningful while
/// still saturating the connection pool.
pub const DEFAULT_MAX_INFLIGHT: usize = 1024;

/// The run parameters the daemon advertises in its `Hello` ack.
#[derive(Debug, Clone)]
pub struct SessionInfo {
    /// Protocol identifier both sides must agree on (e.g. `"disj"`).
    pub protocol_id: String,
    /// Roster size `k`.
    pub players: u32,
    /// Master seed of the run (lets clients derive their backoff streams
    /// and, in the CLI path, display what they joined).
    pub seed: u64,
    /// Protocol-specific parameters (for `disj`: `[n, sessions]`).
    pub params: Vec<u64>,
}

/// Knobs for one daemon run.
#[derive(Debug, Clone)]
pub struct MuxOptions {
    /// Wall-clock budget per session, measured from admission.
    pub deadline: Option<Duration>,
    /// Cap on concurrently in-flight sessions.
    pub max_inflight: usize,
    /// Socket-level configuration (timeouts, heartbeat policy, frame cap).
    pub config: NetConfig,
    /// Dump the recorder's flight ring to stderr when a session ends
    /// `TimedOut`/`Aborted` (rate-limited to once per second so an
    /// abort storm doesn't flood the log). No-op unless the recorder
    /// was built with [`Recorder::with_flight`].
    pub dump_flight_on_failure: bool,
}

impl Default for MuxOptions {
    fn default() -> Self {
        MuxOptions {
            deadline: None,
            max_inflight: DEFAULT_MAX_INFLIGHT,
            config: NetConfig::default(),
            dump_flight_on_failure: false,
        }
    }
}

/// How one session ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionRecord {
    /// The session id.
    pub session: u64,
    /// 0 = completed, 1 = timed out, 2 = aborted (the
    /// `SessionOutcome` variants, in declaration order).
    pub kind: u8,
    /// Abort reason; empty otherwise.
    pub reason: String,
    /// Wire-encoded `P::Output` when completed; empty otherwise.
    pub output: Vec<u8>,
    /// FNV-1a digest of the final board's canonical bytes.
    pub digest: u64,
    /// Bits on the final board (the paper's communication measure).
    pub transcript_bits: u64,
    /// Board writes applied before the end.
    pub turns: u32,
    /// Admission → outcome, in microseconds.
    pub latency_us: u64,
}

/// Everything one daemon run produced.
#[derive(Debug)]
pub struct MuxRunReport {
    /// One record per session, sorted by session id.
    pub records: Vec<SessionRecord>,
    /// Wire accounting summed over the connection pool (v2 framing).
    pub wire: WireStats,
    /// Roster-complete → last outcome queued.
    pub elapsed: Duration,
}

impl MuxRunReport {
    /// Sessions that completed.
    pub fn completed(&self) -> usize {
        self.records.iter().filter(|r| r.kind == 0).count()
    }

    /// Sessions that timed out or aborted.
    pub fn failed(&self) -> usize {
        self.records.len() - self.completed()
    }

    /// Folds the per-session transcript digests in session-id order
    /// (records are kept sorted, so completion order doesn't leak in).
    pub fn digest_fold(&self) -> u64 {
        self.records
            .iter()
            .fold(0u64, |acc, r| fold_digest_u64(acc, r.digest))
    }
}

/// Accepts handshakes on `listener` until every slot in
/// `0..info.players` is registered via a valid `Hello`, or `deadline`
/// passes. Clients must announce [`PROTOCOL_VERSION_MUX`], and all
/// control frames ride the [`CONTROL_SESSION`] id. A hello with the
/// wrong version or protocol id, or an out-of-range or duplicate player
/// index, gets an `Error` frame and is dropped; the slot stays open for a
/// retry, which is what makes client reconnect-with-backoff work.
///
/// Roster assembly is counted on `recorder` (`mux.roster_accepted`,
/// `mux.hello_rejected`) so a live scrape shows how many dial attempts
/// it took to fill the pool.
pub fn accept_mux_roster(
    listener: &TcpListener,
    info: &SessionInfo,
    config: &NetConfig,
    deadline: Instant,
    recorder: &Recorder,
) -> Result<Vec<MuxConn>, NetError> {
    listener.set_nonblocking(true)?;
    let k = info.players as usize;
    let mut slots: Vec<Option<MuxConn>> = (0..k).map(|_| None).collect();
    let mut registered = 0usize;
    while registered < k {
        if Instant::now() >= deadline {
            return Err(NetError::Protocol(format!(
                "mux roster incomplete: {registered}/{k} players registered before deadline"
            )));
        }
        match listener.accept() {
            Ok((stream, _)) => {
                let mut conn = MuxConn::new(stream, config)?;
                let hello_deadline = Instant::now() + config.io_timeout;
                let Ok((_, frame)) = conn.recv_deadline(hello_deadline) else {
                    continue; // died before saying hello
                };
                let verdict = match frame {
                    Frame::Hello(h) if h.version != PROTOCOL_VERSION_MUX => Err(format!(
                        "version mismatch: mux daemon speaks {PROTOCOL_VERSION_MUX}, client {}",
                        h.version
                    )),
                    Frame::Hello(h) if h.protocol_id != info.protocol_id => Err(format!(
                        "protocol mismatch: serving {:?}, client asked for {:?}",
                        info.protocol_id, h.protocol_id
                    )),
                    Frame::Hello(h) if h.player as usize >= k => Err(format!(
                        "player index {} out of range (roster size {k})",
                        h.player
                    )),
                    Frame::Hello(h) if slots[h.player as usize].is_some() => {
                        Err(format!("player {} already registered", h.player))
                    }
                    Frame::Hello(h) => Ok(h.player),
                    other => Err(format!("expected hello, got {}", other.name())),
                };
                let player = match verdict {
                    Ok(player) => player,
                    Err(message) => {
                        recorder.counter_add("mux.hello_rejected", 1);
                        let _ = conn.send_now(CONTROL_SESSION, &Frame::Error { code: 1, message });
                        continue;
                    }
                };
                let ack = Frame::Hello(Hello {
                    version: PROTOCOL_VERSION_MUX,
                    protocol_id: info.protocol_id.clone(),
                    player,
                    players: info.players,
                    seed: info.seed,
                    params: info.params.clone(),
                });
                if conn.send_now(CONTROL_SESSION, &ack).is_err() {
                    continue;
                }
                slots[player as usize] = Some(conn);
                registered += 1;
                recorder.counter_add("mux.roster_accepted", 1);
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                std::thread::sleep(ACCEPT_POLL);
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(NetError::Io(e)),
        }
    }
    Ok(slots.into_iter().flatten().collect())
}

/// One connected admin scraper, served on the admin tick by [`serve_admins`].
struct AdminPeer {
    conn: MuxConn,
    greeted: bool,
}

/// Accepts and serves admin scrapers on `listener` without ever
/// blocking the caller: admin sockets are nonblocking, handshakes are
/// validated with the shared [`check_admin_hello`], replies are built by
/// the shared [`stats_reply`], and a misbehaving or dead peer is dropped
/// — never aborted into the run the way a player failure is.
/// `before_stats` runs before each snapshot is taken for a reply.
fn serve_admins(
    listener: &TcpListener,
    peers: &mut Vec<AdminPeer>,
    config: &NetConfig,
    recorder: &Recorder,
    mut before_stats: impl FnMut(),
) {
    // Drain the accept queue; WouldBlock (or a transient error) ends the
    // sweep until the next tick.
    while let Ok((stream, _)) = listener.accept() {
        if let Ok(conn) = MuxConn::new(stream, config) {
            if conn.set_nonblocking().is_ok() {
                peers.push(AdminPeer {
                    conn,
                    greeted: false,
                });
            }
        }
    }
    peers.retain_mut(|peer| serve_admin(peer, recorder, &mut before_stats));
}

/// Answers everything `peer` has sent so far; false once it is dead or
/// was turned away.
fn serve_admin(peer: &mut AdminPeer, recorder: &Recorder, before_stats: &mut impl FnMut()) -> bool {
    let conn = &mut peer.conn;
    if conn.flush().is_err() {
        return false;
    }
    loop {
        let (reply, keep) = match conn.recv() {
            Ok(Some((_, Frame::Hello(hello)))) if !peer.greeted => {
                match check_admin_hello(&hello) {
                    Ok(ack) => {
                        peer.greeted = true;
                        (ack, true)
                    }
                    Err(rejection) => (rejection, false),
                }
            }
            Ok(Some((_, Frame::Stats { what }))) if peer.greeted => {
                before_stats();
                let reply = Frame::StatsReply(Box::new(stats_reply(recorder, what)));
                recorder.counter_add("mux.stats_served", 1);
                (reply, true)
            }
            Ok(Some((_, Frame::Heartbeat { .. }))) => continue,
            Ok(Some((_, other))) => {
                let message = format!("unexpected {} on admin channel", other.name());
                (Frame::Error { code: 1, message }, false)
            }
            Ok(None) => return conn.flush().is_ok(),
            Err(_) => return false,
        };
        conn.out.queue(CONTROL_SESSION, &reply);
        if !keep {
            let _ = conn.flush();
            return false;
        }
    }
}

/// Serves admin scrapers on `listener` every [`ADMIN_TICK`] until `done`
/// returns true: the reactor's inline admin code, with no run attached.
/// `bci serve --admin-linger-ms` calls it after the run returns, so a
/// one-shot `bci stat` can still collect the final numbers. Gauges keep
/// the values the last in-run scrape published.
pub fn linger_admin(
    listener: &TcpListener,
    recorder: &Recorder,
    config: &NetConfig,
    done: impl Fn() -> bool,
) {
    // The roster phase left it nonblocking; make sure regardless.
    let _ = listener.set_nonblocking(true);
    let mut peers = Vec::new();
    while !done() {
        serve_admins(listener, &mut peers, config, recorder, || {});
        std::thread::sleep(ADMIN_TICK);
    }
}

/// A connection's reader thread: blocks on `stream`, decodes frames with
/// the connection's own `reader`, and forwards each one as a core
/// [`Event`], stamped with its decode instant — or the error that ends
/// the stream. The channel is bounded, so a peer that sends faster than
/// the reactor dispatches blocks this thread and TCP pushes back on it.
/// Hands the reader back, with its wire accounting, once the stream ends
/// or the reactor hangs up.
fn read_frames(
    player: usize,
    mut stream: TcpStream,
    mut reader: FrameReader,
    tx: SyncSender<Event>,
) -> FrameReader {
    loop {
        let event = match reader.poll_mux(&mut stream) {
            Ok(Some((session, frame))) => {
                let at = Instant::now();
                Event::Frame {
                    player,
                    at,
                    session,
                    frame,
                }
            }
            Ok(None) => continue,
            Err(error) => Event::Closed { player, error },
        };
        let ended = matches!(event, Event::Closed { .. });
        if tx.send(event).is_err() || ended {
            return reader;
        }
    }
}

/// Shuts down the read half of every connection when dropped, so the
/// reader threads end even if the reactor unwinds.
struct ReadShutdown(Vec<TcpStream>);

impl Drop for ReadShutdown {
    fn drop(&mut self) {
        for stream in &self.0 {
            let _ = stream.shutdown(std::net::Shutdown::Read);
        }
    }
}

/// Runs `total_sessions` sessions of `protocol` over an already-accepted
/// connection pool, multiplexing up to `opts.max_inflight` at a time.
///
/// `sample_inputs(session, rng)` must sample the per-player inputs from
/// `rng` (already seeded with `derive_trial_seed(master_seed, session)`)
/// and leave `rng` positioned to serve as the session RNG — the
/// discipline that makes transcripts comparable across every driver in
/// the repo.
///
/// With an `admin` listener (typically the roster listener, reused once
/// the roster is full) the reactor also answers read-only admin peers'
/// `Stats` requests inline every [`ADMIN_TICK`], without a lock, a
/// second thread, or any effect on session state or the run's wire
/// accounting.
///
/// The report carries one [`SessionRecord`] per session (sorted by id)
/// and the pool's wire accounting. A dead, stale or stalled connection
/// aborts every unfinished session, but still returns a report rather
/// than an error, so the load harness can count the damage.
#[allow(clippy::too_many_arguments)]
pub fn run_mux_daemon<P, F>(
    protocol: &P,
    mut conns: Vec<MuxConn>,
    admin: Option<&TcpListener>,
    total_sessions: u64,
    master_seed: u64,
    sample_inputs: F,
    opts: &MuxOptions,
    recorder: &Recorder,
) -> MuxRunReport
where
    P: Protocol,
    P::Input: Wire,
    P::Output: Wire,
    F: Fn(u64, &mut ChaCha8Rng) -> Vec<P::Input>,
{
    let k = conns.len();
    // The roster handshake went out on each connection's own queue; the
    // core carries on from its counts.
    let outboxes = conns.iter_mut().map(|c| std::mem::take(&mut c.out));
    let mut core = MuxCore::new(
        Instant::now(),
        protocol,
        outboxes.collect(),
        total_sessions,
        master_seed,
        sample_inputs,
        opts,
        recorder,
    );
    if let Some(listener) = admin {
        // The roster phase left it nonblocking; make sure regardless.
        let _ = listener.set_nonblocking(true);
    }

    std::thread::scope(|scope| {
        // Room for one reply per in-flight session, which is all an
        // honest pool ever has outstanding, plus heartbeats.
        let capacity = 2 * opts.max_inflight.min(MAX_INBOUND_WINDOW) + 2 * k;
        let (tx, rx) = mpsc::sync_channel(capacity);
        let mut readers = Vec::with_capacity(k);
        let mut shutdown = ReadShutdown(Vec::with_capacity(k));
        for (player, conn) in conns.iter_mut().enumerate() {
            match conn.split_reader() {
                Ok((stream, handle, reader)) => {
                    shutdown.0.push(handle);
                    let tx = tx.clone();
                    let thread = scope.spawn(move || read_frames(player, stream, reader, tx));
                    readers.push((player, thread));
                }
                Err(e) => {
                    core.handle(
                        Instant::now(),
                        Event::Closed {
                            player,
                            error: e.into(),
                        },
                    );
                    break;
                }
            }
        }
        drop(tx);

        let mut admin_peers = Vec::new();
        let mut next_admin = Instant::now() + ADMIN_TICK;
        core.handle(Instant::now(), Event::Tick);
        while !core.done() {
            // Write every queue, each connection's flush bounded by
            // io_timeout, and tell the core how it went.
            let began = Instant::now();
            if core.begin_flush() {
                let mut written = Vec::with_capacity(k);
                let mut outboxes = conns.iter_mut().zip(core.outboxes()).enumerate();
                let failed =
                    outboxes.find_map(|(player, (conn, out))| match conn.flush_from(out) {
                        Ok(true) => {
                            written.push(Instant::now());
                            None
                        }
                        Ok(false) => Some(Event::Stalled { player }),
                        Err(error) => Some(Event::Closed { player, error }),
                    });
                let flushed = failed.unwrap_or(Event::Flushed { began, written });
                core.handle(Instant::now(), flushed);
                if core.done() {
                    break;
                }
            }
            // Sleep until a frame arrives or the next timer is due, then
            // hand the core every frame that has arrived. Every reader
            // hands the core its own end before it hangs up, and the
            // first one ends the run, so a hung-up channel only ever
            // reads as a timeout.
            let mut wake = core.next_wake();
            if admin.is_some() {
                wake = wake.min(next_admin);
            }
            let mut next = rx
                .recv_timeout(wake.saturating_duration_since(Instant::now()))
                .ok();
            while let Some(event) = next {
                core.handle(Instant::now(), event);
                next = if core.done() {
                    None
                } else {
                    rx.try_recv().ok()
                };
            }
            let now = Instant::now();
            core.handle(now, Event::Tick);
            if let Some(listener) = admin.filter(|_| now >= next_admin) {
                next_admin = now + ADMIN_TICK;
                serve_admins(listener, &mut admin_peers, &opts.config, recorder, || {
                    core.set_gauges()
                });
            }
        }

        // Push the final outcomes out, each flush bounded by io_timeout.
        let culprit = core.culprit();
        for (player, (conn, out)) in conns.iter_mut().zip(core.outboxes()).enumerate() {
            if culprit != Some(player) {
                let _ = conn.flush_from(out);
            }
        }
        // Close gracefully: end each honest stream after its outcomes and
        // drain its reader until the peer hangs up (bounded by
        // io_timeout). A late reply left unread when the socket closes
        // would answer the peer with a reset, which can destroy outcomes
        // it has not read yet.
        for (player, stream) in shutdown.0.iter().enumerate() {
            let how = if culprit == Some(player) {
                std::net::Shutdown::Both
            } else {
                std::net::Shutdown::Write
            };
            let _ = stream.shutdown(how);
        }
        let until = Instant::now() + opts.config.io_timeout;
        while rx
            .recv_timeout(until.saturating_duration_since(Instant::now()))
            .is_ok()
        {}
        // Readers still blocked on a read see end-of-stream; readers
        // blocked on a full channel see the reactor hang up.
        drop(shutdown);
        drop(rx);
        for (player, thread) in readers {
            let reader = thread.join().expect("reader thread panicked");
            conns[player].rejoin_reader(reader);
        }
    });
    core.into_report(Instant::now(), conns.iter().map(MuxConn::reader))
}
