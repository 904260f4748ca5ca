//! The multiplexed coordinator daemon: one reactor thread, thousands of
//! parked sequencer sessions.
//!
//! ## Shape
//!
//! The daemon owns a pool of `k` player connections (one per roster
//! slot, speaking the session-id frame envelope) and a **session table**.
//! Each in-flight session is parked as a `SessionSlot` holding the
//! session's sans-io [`TurnEngine`] — board prefix, 41-byte serialized
//! ChaCha8 session-RNG state, turn cursor, and runaway budget — plus
//! the wall-clock bookkeeping (admission time, turn-phase stamps) the
//! engine deliberately doesn't own. A session consumes daemon CPU only
//! for the instants it takes to apply a reply and issue the next grant;
//! the rest of its lifetime it is 100-odd bytes in a `HashMap`.
//!
//! ## The reactor
//!
//! Each player connection has one blocking reader thread. It decodes
//! frames with the connection's own frame reader and sends each one,
//! stamped with its decode instant, into one bounded channel.
//! [`run_mux_daemon`] loops: write every connection's queued grants and
//! outcomes, block on the channel until a frame arrives or the next
//! timer is due, apply every frame that has arrived, and admit new
//! sessions. The timers are the oldest per-session deadline (a FIFO: one
//! deadline for all sessions makes admission order expiry order), the
//! heartbeat staleness horizon, and — only with an admin listener
//! attached — the [`ADMIN_TICK`] on which admin scrapers are served.
//! [`linger_admin`] serves them on the same tick once the run is over.
//!
//! Writes block; each flush as a whole is bounded by
//! `NetConfig::io_timeout`. Every grant in a broadcast session goes to
//! every player, so a player that stops draining its socket stalls every
//! session; the daemon ends the run with a typed abort (`player i
//! stalled writes past io_timeout`) instead of queueing without bound.
//! At the end of the run the read halves are shut down, the reader
//! threads see end-of-stream, and their frame readers (with the inbound
//! wire accounting) are joined back.
//!
//! ## Determinism
//!
//! Per session `s`: `seed = derive_trial_seed(master_seed, s)`, inputs
//! sampled from `ChaCha8Rng::seed_from_u64(seed)`, and the post-sampling
//! RNG becomes the session RNG — exactly the discipline of the fabric
//! schedulers and [`crate::load::inprocess_digest_fold`]. Turn replies carry the
//! post-message RNG state, which is parked verbatim and embedded in the
//! next grant, so randomness is consumed in serial order and the
//! transcript is bit-identical to `InProcessTransport` for the same
//! seed, regardless of how sessions interleave on the wire.

use std::collections::{HashMap, VecDeque};
use std::net::{TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, SyncSender};
use std::time::{Duration, Instant};

use bci_blackboard::engine::{Step, TurnEngine};
use bci_blackboard::protocol::Protocol;
use bci_blackboard::runner::derive_trial_seed;
use bci_encoding::bitio::BitVec;
use bci_encoding::wire::Wire;
use bci_fabric::transport::DEFAULT_STALL_CAP;
use bci_net::admin::{check_admin_hello, stats_reply};
use bci_net::frame::{
    BroadcastFrame, Frame, FrameReader, Hello, InputFrame, NetError, OutcomeFrame, CONTROL_SESSION,
    NO_PLAYER, PROTOCOL_VERSION_MUX,
};
use bci_net::overhead::{fold_digest_u64, transcript_digest};
use bci_net::{NetConfig, WireStats};
use bci_telemetry::hist::{QUEUE_BYTES_BOUNDS, TURN_LATENCY_US_BOUNDS};
use bci_telemetry::{Json, Recorder, SpanKind};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::conn::MuxConn;

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

/// One session parked in the daemon's table.
///
/// The parked state *is* the sans-io [`TurnEngine`]: board prefix, turn
/// cursor, runaway budget, and the serialized ChaCha8 state between
/// turns all live inside it. While a grant is outstanding the engine
/// records who holds it and the slot records when each phase of the
/// turn began (the one clock the engine refuses to own).
#[derive(Debug)]
struct SessionSlot<'p, P: Protocol> {
    engine: TurnEngine<'p, P>,
    /// When the outstanding grant was queued.
    granted_at: Option<Instant>,
    /// When the flush that carried the outstanding grant began, and when
    /// it finished writing the speaker's connection.
    flushed: Option<(Instant, Instant)>,
    /// The previous authoritative write, folded into the next grant.
    prev: Option<(u32, BitVec)>,
    started: Instant,
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
                let (_, frame) = match conn.recv_deadline(hello_deadline) {
                    Ok(hit) => hit,
                    Err(_) => continue, // died before saying hello
                };
                let reject = |mut conn: MuxConn, message: String| {
                    recorder.counter_add("mux.hello_rejected", 1);
                    let _ = conn.send_now(CONTROL_SESSION, &Frame::Error { code: 1, message });
                };
                let hello = match frame {
                    Frame::Hello(h) => h,
                    other => {
                        reject(conn, format!("expected hello, got {}", other.name()));
                        continue;
                    }
                };
                if hello.version != PROTOCOL_VERSION_MUX {
                    reject(
                        conn,
                        format!(
                            "version mismatch: mux daemon speaks {PROTOCOL_VERSION_MUX}, \
                             client {}",
                            hello.version
                        ),
                    );
                    continue;
                }
                if hello.protocol_id != info.protocol_id {
                    reject(
                        conn,
                        format!(
                            "protocol mismatch: serving {:?}, client asked for {:?}",
                            info.protocol_id, hello.protocol_id
                        ),
                    );
                    continue;
                }
                let player = hello.player as usize;
                if player >= k {
                    reject(
                        conn,
                        format!("player index {player} out of range (roster size {k})"),
                    );
                    continue;
                }
                if slots[player].is_some() {
                    reject(conn, format!("player {player} already registered"));
                    continue;
                }
                let ack = Frame::Hello(Hello {
                    version: PROTOCOL_VERSION_MUX,
                    protocol_id: info.protocol_id.clone(),
                    player: hello.player,
                    players: info.players,
                    seed: info.seed,
                    params: info.params.clone(),
                });
                if conn.send_now(CONTROL_SESSION, &ack).is_err() {
                    continue;
                }
                slots[player] = Some(conn);
                registered += 1;
                recorder.counter_add("mux.roster_accepted", 1);
            }
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                std::thread::sleep(ACCEPT_POLL);
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(NetError::Io(e)),
        }
    }
    Ok(slots
        .into_iter()
        .map(|s| s.expect("all slots registered"))
        .collect())
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
    let mut i = 0;
    while i < peers.len() {
        let mut dead = peers[i].conn.flush().is_err();
        while !dead {
            match peers[i].conn.recv() {
                Ok(Some((_, frame))) => match frame {
                    Frame::Hello(hello) if !peers[i].greeted => match check_admin_hello(&hello) {
                        Ok(ack) => {
                            peers[i].conn.queue(CONTROL_SESSION, &ack);
                            peers[i].greeted = true;
                        }
                        Err(rejection) => {
                            peers[i].conn.queue(CONTROL_SESSION, &rejection);
                            let _ = peers[i].conn.flush();
                            dead = true;
                        }
                    },
                    Frame::Stats { what } if peers[i].greeted => {
                        before_stats();
                        let reply = Frame::StatsReply(Box::new(stats_reply(recorder, what)));
                        peers[i].conn.queue(CONTROL_SESSION, &reply);
                        recorder.counter_add("mux.stats_served", 1);
                    }
                    Frame::Heartbeat { .. } => {}
                    other => {
                        peers[i].conn.queue(
                            CONTROL_SESSION,
                            &Frame::Error {
                                code: 1,
                                message: format!("unexpected {} on admin channel", other.name()),
                            },
                        );
                        let _ = peers[i].conn.flush();
                        dead = true;
                    }
                },
                Ok(None) => break,
                Err(_) => dead = true,
            }
        }
        if !dead {
            dead = peers[i].conn.flush().is_err();
        }
        if dead {
            peers.swap_remove(i);
        } else {
            i += 1;
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

/// One frame decoded on a connection's reader thread, or the read error
/// that ended the thread.
struct Inbound {
    player: usize,
    /// When the reader thread finished decoding the frame.
    at: Instant,
    frame: Result<(u64, Frame), NetError>,
}

/// A connection's reader thread: blocks on `stream`, decodes frames with
/// the connection's own `reader`, and forwards each one (or the error
/// that ends the stream) to the reactor. The channel is bounded, so a
/// peer that sends faster than the reactor dispatches blocks this thread
/// and TCP pushes back on it. Hands the reader back, with its wire
/// accounting, once the stream ends or the reactor hangs up.
fn read_frames(
    player: usize,
    mut stream: TcpStream,
    mut reader: FrameReader,
    tx: SyncSender<Inbound>,
) -> FrameReader {
    loop {
        let frame = match reader.poll_mux(&mut stream) {
            Ok(Some(hit)) => Ok(hit),
            Ok(None) => continue,
            Err(e) => Err(e),
        };
        let ended = frame.is_err();
        let event = Inbound {
            player,
            at: Instant::now(),
            frame,
        };
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

/// Microseconds from `from` to `to`, 0 if `to` is earlier.
fn micros(from: Instant, to: Instant) -> u64 {
    to.saturating_duration_since(from).as_micros() as u64
}

/// The daemon's mutable state while the reactor runs.
struct Reactor<'a, P: Protocol> {
    protocol: &'a P,
    conns: Vec<MuxConn>,
    /// When each connection last delivered a frame (decode instant).
    last_seen: Vec<Instant>,
    table: HashMap<u64, SessionSlot<'a, P>>,
    /// `(expiry, session)` in admission order; finished ids are skipped
    /// when they reach the front.
    deadlines: VecDeque<(Instant, u64)>,
    /// Sessions whose grant was queued since the last flush.
    unflushed: Vec<u64>,
    /// When the last flush finished writing each connection.
    flushed_at: Vec<Instant>,
    records: Vec<SessionRecord>,
    next_session: u64,
    total: u64,
    finished: u64,
    /// `finished` as of the last time every player write buffer was
    /// fully drained. Sessions finished since then may still have
    /// outcomes sitting in a buffer — they are "draining".
    drain_watermark: u64,
    /// The player whose failure ended the run; its connection is not
    /// flushed again.
    culprit: Option<usize>,
    master_seed: u64,
    opts: &'a MuxOptions,
    recorder: &'a Recorder,
    last_flight_dump: Option<Instant>,
}

impl<'a, P> Reactor<'a, P>
where
    P: Protocol,
    P::Input: Wire,
    P::Output: Wire,
{
    /// Admits sessions until the in-flight cap or the total is reached:
    /// derives the session seed, samples inputs, ships each player its
    /// share, and issues the first grant.
    fn admit<F>(&mut self, sample_inputs: &F)
    where
        F: Fn(u64, &mut ChaCha8Rng) -> Vec<P::Input>,
    {
        while self.table.len() < self.opts.max_inflight && self.next_session < self.total {
            let session = self.next_session;
            self.next_session += 1;
            let seed = derive_trial_seed(self.master_seed, session);
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let inputs = sample_inputs(session, &mut rng);
            debug_assert_eq!(inputs.len(), self.conns.len(), "input count");
            for (player, input) in inputs.iter().enumerate() {
                self.conns[player].queue(
                    session,
                    &Frame::Input(InputFrame {
                        session: session as u32,
                        player: player as u32,
                        payload: input.to_wire_bytes(),
                    }),
                );
            }
            let engine = TurnEngine::with_rng(self.protocol, inputs.len(), &rng)
                .expect("sample_inputs produced one input per player")
                .with_max_steps(self.opts.config.max_steps);
            let started = Instant::now();
            let slot = SessionSlot {
                engine,
                granted_at: None,
                flushed: None,
                prev: None,
                started,
            };
            self.table.insert(session, slot);
            if let Some(deadline) = self.opts.deadline {
                self.deadlines.push_back((started + deadline, session));
            }
            self.recorder.counter_add("mux.sessions_started", 1);
            if self.recorder.events_enabled() {
                self.recorder.point(
                    SpanKind::Session,
                    session,
                    vec![("phase", Json::str("admit"))],
                );
            }
            self.grant(session);
        }
    }

    /// Queues `frame` for `session` on every connection, encoded once.
    fn fan_out(&mut self, session: u64, frame: &Frame) {
        let bytes = frame.to_bytes_mux(session);
        for conn in &mut self.conns {
            conn.queue_encoded(&bytes);
        }
    }

    /// Polls the session's engine and issues the next grant (folding in
    /// the previous authoritative write), or finishes the session when
    /// the engine halts. Engine violations — out-of-range speaker,
    /// runaway protocol — finish the session aborted with the
    /// violation's canonical reason.
    fn grant(&mut self, session: u64) {
        let step = {
            let slot = self
                .table
                .get_mut(&session)
                .expect("granting a live session");
            match slot.engine.poll() {
                Ok(step) => step,
                Err(violation) => {
                    self.finish(session, 2, violation.to_string(), Vec::new());
                    return;
                }
            }
        };
        let next = match &step {
            Step::Grant(grant) => Some(grant),
            Step::Halted => None,
        };
        let frame = {
            let slot = self
                .table
                .get_mut(&session)
                .expect("granting a live session");
            let (prev_speaker, prev_bits) = slot.prev.take().unwrap_or((NO_PLAYER, BitVec::new()));
            let rng_bytes = match next {
                Some(grant) => grant
                    .rng_state
                    .expect("mux engine carries the session rng")
                    .to_vec(),
                None => Vec::new(),
            };
            if next.is_some() {
                slot.granted_at = Some(Instant::now());
                self.unflushed.push(session);
            }
            Frame::Broadcast(BroadcastFrame {
                turn: slot.engine.steps() as u32,
                speaker: prev_speaker,
                bits: prev_bits,
                next: next.map(|g| g.speaker as u32).unwrap_or(NO_PLAYER),
                rng: rng_bytes,
            })
        };
        self.fan_out(session, &frame);
        if next.is_none() {
            let output = {
                let slot = &self.table[&session];
                catch_unwind(AssertUnwindSafe(|| slot.engine.output()))
            };
            match output {
                Ok(o) => self.finish(session, 0, String::new(), o.to_wire_bytes()),
                Err(_) => self.finish(session, 2, "protocol output panicked".into(), Vec::new()),
            }
        }
    }

    /// Applies a granted speaker's reply, decoded at `decoded_at`,
    /// through the session's engine (which re-parks the RNG state and
    /// writes the board), records the turn's latency and phases, and
    /// issues the next grant. Engine violations — a reply with no grant
    /// outstanding, the wrong speaker, a malformed RNG state — finish the
    /// session aborted.
    fn apply_reply(
        &mut self,
        session: u64,
        player: usize,
        reply: BroadcastFrame,
        decoded_at: Instant,
    ) {
        let Some(slot) = self.table.get_mut(&session) else {
            // A reply raced a deadline outcome; it has nowhere to land.
            self.recorder.counter_add("mux.late_replies", 1);
            return;
        };
        // The wire names a speaker twice (connection index and frame
        // field); cross-check both against the engine's outstanding
        // grant before applying, so a mismatched connection can't spend
        // another player's grant.
        let failure = match slot.engine.granted() {
            None => Some(format!(
                "player {player} replied without an outstanding grant"
            )),
            Some(speaker) if player != speaker || reply.speaker as usize != speaker => Some(
                format!("player {player} replied on player {speaker}'s grant"),
            ),
            Some(speaker) => {
                match slot
                    .engine
                    .apply(speaker, reply.bits.clone(), Some(&reply.rng))
                {
                    Ok(()) => {
                        if let Some(granted_at) = slot.granted_at.take() {
                            let applied = Instant::now();
                            // A reply can only follow the flush that
                            // carried its grant, so `flushed` is set.
                            let (began, written) =
                                slot.flushed.take().unwrap_or((granted_at, granted_at));
                            // The turn's latency, then its four phases.
                            for (name, from, to) in [
                                ("mux.turn_latency_us", granted_at, applied),
                                ("mux.turn_queue_us", granted_at, began),
                                ("mux.turn_flush_us", began, written),
                                ("mux.turn_remote_us", written, decoded_at),
                                ("mux.turn_apply_us", decoded_at, applied),
                            ] {
                                self.recorder.hist_record(
                                    name,
                                    micros(from, to),
                                    TURN_LATENCY_US_BOUNDS,
                                );
                            }
                        }
                        slot.prev = Some((speaker as u32, reply.bits));
                        None
                    }
                    Err(violation) => Some(violation.to_string()),
                }
            }
        };
        match failure {
            Some(reason) => self.finish(session, 2, reason, Vec::new()),
            None => self.grant(session),
        }
    }

    /// Removes `session` from the table, queues its outcome to every
    /// connection, and records it. `remaining` in the outcome frame is
    /// the global count of unfinished sessions, so the run's final
    /// outcome (in TCP order on every connection) carries 0 and releases
    /// the clients.
    fn finish(&mut self, session: u64, kind: u8, reason: String, output: Vec<u8>) {
        let slot = self
            .table
            .remove(&session)
            .expect("finishing a live session");
        self.finished += 1;
        let remaining = (self.total - self.finished) as u32;
        let frame = Frame::Outcome(OutcomeFrame {
            kind,
            reason: reason.clone(),
            output: output.clone(),
            remaining,
        });
        self.fan_out(session, &frame);
        let counter = match kind {
            0 => "mux.sessions_completed",
            1 => "mux.sessions_timed_out",
            _ => "mux.sessions_aborted",
        };
        self.recorder.counter_add(counter, 1);
        let turns = slot.engine.steps() as u32;
        if self.recorder.events_enabled() {
            let mut attrs = vec![
                ("phase", Json::str("finish")),
                ("kind", Json::UInt(kind as u64)),
                ("turns", Json::UInt(turns as u64)),
            ];
            if !reason.is_empty() {
                attrs.push(("reason", Json::str(&reason)));
            }
            self.recorder.point(SpanKind::Session, session, attrs);
        }
        let board = slot.engine.into_board();
        self.records.push(SessionRecord {
            session,
            kind,
            reason: reason.clone(),
            output,
            digest: transcript_digest(&board),
            transcript_bits: board.total_bits() as u64,
            turns,
            latency_us: slot.started.elapsed().as_micros() as u64,
        });
        if kind != 0 && self.opts.dump_flight_on_failure {
            self.dump_flight(session, kind, &reason);
        }
    }

    /// Dumps the flight ring to stderr for a failed session, at most
    /// once per second (an `abort_all` storm finishes thousands of
    /// sessions with the same ring contents).
    fn dump_flight(&mut self, session: u64, kind: u8, reason: &str) {
        let now = Instant::now();
        let due = self
            .last_flight_dump
            .is_none_or(|last| now.duration_since(last) >= Duration::from_secs(1));
        if !due {
            return;
        }
        let dump = self.recorder.flight_jsonl();
        if dump.is_empty() {
            return;
        }
        self.last_flight_dump = Some(now);
        eprintln!("--- flight recorder (session {session} ended kind={kind} {reason}) ---");
        eprint!("{dump}");
        eprintln!("--- end flight recorder ---");
    }

    /// Publishes the daemon's internal levels as gauges, immediately
    /// before a snapshot is taken for an admin reply. Gauges the
    /// recorder can't see on its own: roster and session-table
    /// occupancy, per-state session counts, inflight-window usage, and
    /// outbound queue depth.
    fn set_gauges(&self) {
        let inflight = self.table.len() as u64;
        let granted = self
            .table
            .values()
            .filter(|slot| slot.engine.granted().is_some())
            .count() as u64;
        let rec = self.recorder;
        rec.gauge_set("mux.roster_players", self.conns.len() as u64);
        rec.gauge_set("mux.inflight", inflight);
        rec.gauge_set("mux.inflight_limit", self.opts.max_inflight as u64);
        rec.gauge_set("mux.sessions_granted", granted);
        rec.gauge_set("mux.sessions_parked", inflight - granted);
        rec.gauge_set(
            "mux.sessions_draining",
            self.finished - self.drain_watermark,
        );
        rec.gauge_set("mux.sessions_remaining", self.total - self.finished);
        rec.gauge_set(
            "mux.outbound_queue_bytes",
            self.conns.iter().map(MuxConn::pending_out).sum::<usize>() as u64,
        );
    }

    /// Marks every unfinished session aborted (connection-pool failure:
    /// with a player gone, no session can make progress). Shrinking
    /// `total` to the admitted count *before* finishing makes the last
    /// outcome's `remaining` hit 0, so any surviving client still exits
    /// cleanly instead of waiting for sessions that will never start.
    fn abort_all(&mut self, reason: &str) {
        self.total = self.next_session;
        let mut live: Vec<u64> = self.table.keys().copied().collect();
        live.sort_unstable();
        for session in live {
            self.finish(session, 2, reason.to_string(), Vec::new());
        }
    }

    /// Aborts the run because of `player`, whose connection is then left
    /// alone by the final flush.
    fn fail(&mut self, player: usize, reason: &str) {
        self.culprit = Some(player);
        self.abort_all(reason);
    }

    /// Writes every connection's queued bytes and stamps the grants they
    /// carried. A connection that takes nothing for `io_timeout`, or
    /// fails, names the player to fail the run with.
    fn flush_all(&mut self) -> Result<(), (usize, String)> {
        let queued: usize = self.conns.iter().map(MuxConn::pending_out).sum();
        if queued > 0 {
            self.recorder.hist_record(
                "mux.outbound_queue_bytes",
                queued as u64,
                QUEUE_BYTES_BOUNDS,
            );
            let began = Instant::now();
            for (player, conn) in self.conns.iter_mut().enumerate() {
                match conn.flush() {
                    Ok(true) => self.flushed_at[player] = Instant::now(),
                    Ok(false) => {
                        self.recorder.counter_add("mux.write_stalls", 1);
                        return Err((
                            player,
                            format!("player {player} stalled writes past io_timeout"),
                        ));
                    }
                    Err(_) => return Err((player, format!("player {player} disconnected"))),
                }
            }
            for session in self.unflushed.drain(..) {
                if let Some(slot) = self.table.get_mut(&session) {
                    if let Some(speaker) = slot.engine.granted() {
                        slot.flushed = Some((began, self.flushed_at[speaker]));
                    }
                }
            }
        }
        self.drain_watermark = self.finished;
        Ok(())
    }

    /// Handles one inbound event; a connection-level failure names the
    /// player to fail the run with.
    fn dispatch(&mut self, event: Inbound) -> Result<(), (usize, String)> {
        let player = event.player;
        self.last_seen[player] = event.at;
        match event.frame {
            Ok((_, Frame::Heartbeat { .. })) => Ok(()),
            Ok((session, Frame::Broadcast(b))) => {
                self.apply_reply(session, player, b, event.at);
                Ok(())
            }
            Ok((_, Frame::Error { message, .. })) => {
                Err((player, format!("player {player} error: {message}")))
            }
            Ok((_, other)) => Err((
                player,
                format!("player {player} sent unexpected {} frame", other.name()),
            )),
            Err(NetError::Disconnected | NetError::Io(_)) => {
                Err((player, format!("player {player} disconnected")))
            }
            Err(e) => Err((player, format!("player {player}: {e}"))),
        }
    }

    /// Times out every session whose deadline has passed, in admission
    /// order, dropping finished ids from the front of the queue.
    fn expire_deadlines(&mut self, now: Instant) -> bool {
        let mut expired = false;
        while let Some(&(due, session)) = self.deadlines.front() {
            if !self.table.contains_key(&session) {
                self.deadlines.pop_front();
            } else if due <= now {
                self.deadlines.pop_front();
                self.finish(session, 1, String::new(), Vec::new());
                expired = true;
            } else {
                break;
            }
        }
        expired
    }

    /// The reactor loop: flush, wait for frames or the next timer, apply,
    /// admit, fire timers — until every session has finished or the pool
    /// fails.
    fn run<F>(
        &mut self,
        inbound: &Receiver<Inbound>,
        admin: Option<&TcpListener>,
        sample_inputs: &F,
    ) where
        F: Fn(u64, &mut ChaCha8Rng) -> Vec<P::Input>,
    {
        let miss_limit = self.opts.config.miss_limit;
        let stale_after = self.opts.config.heartbeat_interval * miss_limit;
        let mut admin_peers: Vec<AdminPeer> = Vec::new();
        let mut next_admin = Instant::now() + ADMIN_TICK;
        let mut last_progress = Instant::now();
        self.admit(sample_inputs);
        while self.finished < self.total {
            if let Err((player, reason)) = self.flush_all() {
                self.fail(player, &reason);
                return;
            }

            // Sleep until a frame arrives or the next timer is due.
            let oldest_seen = *self.last_seen.iter().min().expect("non-empty pool");
            let mut wake = (oldest_seen + stale_after).min(last_progress + DEFAULT_STALL_CAP);
            if let Some(&(due, _)) = self.deadlines.front() {
                wake = wake.min(due);
            }
            if admin.is_some() {
                wake = wake.min(next_admin);
            }
            match inbound.recv_timeout(wake.saturating_duration_since(Instant::now())) {
                Ok(first) => {
                    last_progress = Instant::now();
                    let mut event = Some(first);
                    while let Some(e) = event {
                        if let Err((player, reason)) = self.dispatch(e) {
                            self.fail(player, &reason);
                            return;
                        }
                        event = inbound.try_recv().ok();
                    }
                }
                Err(RecvTimeoutError::Timeout) => {}
                // Every reader reports its own end before hanging up.
                Err(RecvTimeoutError::Disconnected) => {
                    self.abort_all("every player connection closed");
                    return;
                }
            }

            // Finishing sessions freed in-flight slots; top the table up.
            self.admit(sample_inputs);
            let now = Instant::now();
            if self.expire_deadlines(now) {
                last_progress = now;
                self.admit(sample_inputs);
            }
            if let Some(listener) = admin {
                if now >= next_admin {
                    next_admin = now + ADMIN_TICK;
                    serve_admins(
                        listener,
                        &mut admin_peers,
                        &self.opts.config,
                        self.recorder,
                        || self.set_gauges(),
                    );
                }
            }
            if let Some(player) = self
                .last_seen
                .iter()
                .position(|&seen| now.saturating_duration_since(seen) > stale_after)
            {
                self.fail(
                    player,
                    &format!("player {player} missed {miss_limit} heartbeats"),
                );
                return;
            }
            if now.saturating_duration_since(last_progress) > DEFAULT_STALL_CAP {
                self.abort_all("reactor stalled past the stall cap");
                return;
            }
        }
    }
}

/// Runs `total_sessions` sessions of `protocol` over an already-accepted
/// v2 connection pool, multiplexing up to `opts.max_inflight` at a time.
///
/// `sample_inputs(session, rng)` must sample the per-player inputs from
/// `rng` (already seeded with `derive_trial_seed(master_seed, session)`)
/// and leave `rng` positioned to serve as the session RNG — the exact
/// discipline of the fabric schedulers, which is what makes transcripts
/// comparable across every driver in the repo.
///
/// The returned report carries one [`SessionRecord`] per session
/// (sorted by id) and the pool's wire accounting. A dead, stale or
/// stalled connection aborts every unfinished session — with a roster
/// player gone, no session can complete — but still returns a report
/// rather than an error, so the load harness can count the damage.
pub fn run_mux_daemon<P, F>(
    protocol: &P,
    conns: Vec<MuxConn>,
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
    run_mux_daemon_with_admin(
        protocol,
        conns,
        None,
        total_sessions,
        master_seed,
        sample_inputs,
        opts,
        recorder,
    )
}

/// [`run_mux_daemon`] plus a live admin stats channel: when
/// `admin_listener` is given, the reactor also accepts read-only admin
/// peers on it (typically the roster listener, reused once the roster
/// is full) and answers their `Stats` requests inline every
/// [`ADMIN_TICK`] — so a scrape observes the daemon mid-run without a
/// lock, a second thread, or any effect on session state. Admin traffic
/// is excluded from the run's wire accounting.
#[allow(clippy::too_many_arguments)]
pub fn run_mux_daemon_with_admin<P, F>(
    protocol: &P,
    conns: Vec<MuxConn>,
    admin_listener: Option<&TcpListener>,
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
    assert_eq!(conns.len(), protocol.num_players(), "pool size");
    assert!(opts.max_inflight > 0, "max_inflight must be positive");
    let start = Instant::now();
    let k = conns.len();
    let mut reactor = Reactor {
        protocol,
        conns,
        last_seen: vec![Instant::now(); k],
        table: HashMap::new(),
        deadlines: VecDeque::new(),
        unflushed: Vec::new(),
        flushed_at: vec![Instant::now(); k],
        records: Vec::new(),
        next_session: 0,
        total: total_sessions,
        finished: 0,
        drain_watermark: 0,
        culprit: None,
        master_seed,
        opts,
        recorder,
        last_flight_dump: None,
    };
    if let Some(listener) = admin_listener {
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
        for player in 0..k {
            let split = reactor.conns[player]
                .split_reader()
                .and_then(|(stream, reader)| match stream.try_clone() {
                    Ok(handle) => Ok((stream, reader, handle)),
                    Err(e) => {
                        reactor.conns[player].rejoin_reader(reader);
                        Err(e)
                    }
                });
            match split {
                Ok((stream, reader, handle)) => {
                    shutdown.0.push(handle);
                    let tx = tx.clone();
                    readers.push((
                        player,
                        scope.spawn(move || read_frames(player, stream, reader, tx)),
                    ));
                }
                Err(e) => {
                    reactor.fail(player, &format!("player {player}: {e}"));
                    break;
                }
            }
        }
        drop(tx);
        reactor.run(&rx, admin_listener, &sample_inputs);

        // Push the final outcomes out, each flush bounded by io_timeout.
        for (player, conn) in reactor.conns.iter_mut().enumerate() {
            if reactor.culprit != Some(player) {
                let _ = conn.flush();
            }
        }
        // Readers blocked on a read see end-of-stream; readers blocked on
        // a full channel see the reactor hang up.
        drop(shutdown);
        drop(rx);
        for (player, handle) in readers {
            let reader = handle.join().expect("reader thread panicked");
            reactor.conns[player].rejoin_reader(reader);
        }
    });

    let mut wire = WireStats::default();
    for conn in &reactor.conns {
        wire.bytes_tx += conn.bytes_written;
        wire.bytes_rx += conn.bytes_read();
        wire.frames_tx += conn.frames_written;
        wire.frames_rx += conn.frames_read();
        wire.payload_bytes_tx += conn.payload_bytes_written;
        wire.payload_bytes_rx += conn.payload_bytes_read();
    }
    recorder.counter_add("mux.bytes_tx", wire.bytes_tx);
    recorder.counter_add("mux.bytes_rx", wire.bytes_rx);
    recorder.counter_add("mux.frames_tx", wire.frames_tx);
    recorder.counter_add("mux.frames_rx", wire.frames_rx);

    let mut records = reactor.records;
    records.sort_unstable_by_key(|r| r.session);
    wire.transcript_bits = records.iter().map(|r| r.transcript_bits).sum();
    MuxRunReport {
        records,
        wire,
        elapsed: start.elapsed(),
    }
}
