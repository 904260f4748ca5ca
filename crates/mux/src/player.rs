//! The multiplexed player client: one connection, many concurrent
//! sessions.
//!
//! The player keeps an independent board replica **per in-flight
//! session**, keyed by the session id on every frame. Replicas are built
//! exclusively from the coordinator's authoritative `Broadcast` frames —
//! a player never applies its own write speculatively, so a replica
//! cannot diverge from the daemon's board — grants are answered with the
//! post-message RNG state, and heartbeats ride the control session
//! whenever the client hasn't written anything for one interval.
//! Receiving proves the daemon is alive, not that this player is; only
//! outbound traffic refreshes the daemon's liveness clock.
//!
//! Because the replica applies every authoritative write, at `Outcome`
//! time it *is* the coordinator's final board — which is what lets the
//! load harness verify transcripts end to end from the client side,
//! without trusting the daemon's own digests.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use bci_blackboard::board::Board;
use bci_blackboard::protocol::Protocol;
use bci_encoding::wire::Wire;
use bci_net::backoff::connect_with_backoff;
use bci_net::frame::{
    outcome_kind, BroadcastFrame, Frame, Hello, NetError, CONTROL_SESSION, NO_PLAYER,
    PROTOCOL_VERSION_MUX,
};
use bci_net::overhead::transcript_digest;
use bci_net::{NetConfig, WireStats};
use bci_telemetry::hist::TURN_LATENCY_US_BOUNDS;
use bci_telemetry::Histogram;
use rand_chacha::{ChaCha8Rng, STATE_LEN};

use crate::conn::MuxConn;

/// Per-session state a player tracks while the session is in flight.
struct SessionReplica<I> {
    input: I,
    board: Board,
    /// When the last authoritative `Broadcast` for this session arrived;
    /// consecutive gaps are the client-observed turn service time.
    last_broadcast: Option<Instant>,
}

/// What one player observed across a whole run.
#[derive(Debug)]
pub struct MuxPlayerReport {
    /// Sessions this player saw end (any outcome kind).
    pub sessions: u64,
    /// Sessions that ended `Completed`.
    pub completed: u64,
    /// `(session, digest)` of the replica at outcome time, when digest
    /// collection was requested; sorted by session id.
    pub digests: Vec<(u64, u64)>,
    /// Client-observed turn service times: gaps between consecutive
    /// authoritative `Broadcast` frames of the same session.
    pub turn_gaps: Histogram,
    /// Connect retries spent dialing in.
    pub reconnects: u32,
    /// This player's wire accounting (`tx` = player → coordinator).
    pub wire: WireStats,
    /// Total bits across the final boards of digested sessions (the
    /// replica at outcome time *is* the coordinator's board, so this is
    /// the paper's transcript-length measure). Collected with digests.
    pub transcript_bits: u64,
}

/// Dials the mux daemon with capped-exponential backoff and performs
/// the handshake. Returns the pooled connection, the daemon's ack
/// (roster size, seed, protocol params), and the retry count.
pub fn connect_mux_player(
    addr: SocketAddr,
    player: usize,
    protocol_id: &str,
    config: &NetConfig,
    master_seed: u64,
) -> Result<(MuxConn, Hello, u32), NetError> {
    let (stream, retries) = connect_with_backoff(addr, config, master_seed, player as u64)?;
    let mut conn = MuxConn::new(stream, config)?;
    let hello = Frame::Hello(Hello {
        version: PROTOCOL_VERSION_MUX,
        protocol_id: protocol_id.to_string(),
        player: player as u32,
        players: 0,
        seed: 0,
        params: Vec::new(),
    });
    conn.send_now(CONTROL_SESSION, &hello)?;
    let ack_deadline = Instant::now() + config.io_timeout;
    match conn.recv_deadline(ack_deadline)? {
        (_, Frame::Hello(ack)) => Ok((conn, ack, retries)),
        (_, Frame::Error { message, .. }) => Err(NetError::Protocol(message)),
        (_, other) => Err(NetError::Protocol(format!(
            "expected hello ack, got {} frame",
            other.name()
        ))),
    }
}

/// What one frame made a player do ([`MuxPlayer::play`]).
#[derive(Debug)]
pub enum Played {
    /// Nothing to send.
    Idle,
    /// Answer with this frame, on the frame's session.
    Reply(Frame),
    /// The message computation panicked: hang up (the daemon then aborts
    /// every session, `player i disconnected`).
    HangUp,
    /// The run's final outcome (`remaining == 0`) arrived.
    Finished,
}

/// The socket-free half of [`run_mux_player`]: one player's per-session
/// replicas and its running report, advanced one daemon frame at a time
/// by [`MuxPlayer::play`].
pub struct MuxPlayer<'p, P: Protocol> {
    protocol: &'p P,
    player: usize,
    collect_digests: bool,
    replicas: HashMap<u64, SessionReplica<P::Input>>,
    /// What the player has observed so far; the socket loop fills in
    /// `wire` and `reconnects`.
    pub report: MuxPlayerReport,
}

impl<'p, P> MuxPlayer<'p, P>
where
    P: Protocol,
    P::Input: Wire,
{
    /// A player with no session in flight. `collect_digests` switches on
    /// per-session replica digests.
    pub fn new(protocol: &'p P, player: usize, collect_digests: bool) -> Self {
        MuxPlayer {
            protocol,
            player,
            collect_digests,
            replicas: HashMap::new(),
            report: MuxPlayerReport {
                sessions: 0,
                completed: 0,
                digests: Vec::new(),
                turn_gaps: Histogram::new(TURN_LATENCY_US_BOUNDS),
                reconnects: 0,
                wire: WireStats::default(),
                transcript_bits: 0,
            },
        }
    }

    /// Applies one frame the daemon sent on `session`, received at
    /// `now`: registers an input, applies an authoritative write and
    /// answers a grant addressed to this player, or seals an outcome.
    pub fn play(&mut self, now: Instant, session: u64, frame: Frame) -> Result<Played, NetError> {
        let player = self.player;
        match frame {
            Frame::Input(inp) => {
                if inp.player as usize != player {
                    return Err(NetError::Protocol(format!(
                        "input addressed to player {}, I am {player}",
                        inp.player
                    )));
                }
                self.replicas.insert(
                    session,
                    SessionReplica {
                        input: P::Input::from_wire_bytes(&inp.payload)?,
                        board: Board::new(),
                        last_broadcast: None,
                    },
                );
            }
            Frame::Broadcast(b) => {
                let replica = self.replicas.get_mut(&session).ok_or_else(|| {
                    NetError::Protocol(format!("broadcast for unknown session {session}"))
                })?;
                if let Some(prev) = replica.last_broadcast.replace(now) {
                    self.report
                        .turn_gaps
                        .record(now.duration_since(prev).as_micros() as u64);
                }
                // Apply the authoritative write first; the grant below
                // must see the post-write board.
                if b.speaker != NO_PLAYER {
                    replica.board.write(b.speaker as usize, b.bits);
                }
                if b.next == NO_PLAYER || b.next as usize != player {
                    return Ok(Played::Idle);
                }
                let state: [u8; STATE_LEN] = b
                    .rng
                    .as_slice()
                    .try_into()
                    .map_err(|_| NetError::BadFrame("grant without RNG state"))?;
                let mut rng = ChaCha8Rng::from_state_bytes(&state);
                let protocol = self.protocol;
                let Ok(bits) = catch_unwind(AssertUnwindSafe(|| {
                    protocol.message(player, &replica.input, &replica.board, &mut rng)
                })) else {
                    return Ok(Played::HangUp);
                };
                return Ok(Played::Reply(Frame::Broadcast(BroadcastFrame {
                    turn: b.turn,
                    speaker: player as u32,
                    bits,
                    next: NO_PLAYER,
                    rng: rng.state_bytes().to_vec(),
                })));
            }
            Frame::Outcome(outcome) => {
                self.report.sessions += 1;
                if outcome.kind == outcome_kind::COMPLETED {
                    self.report.completed += 1;
                }
                if let Some(replica) = self.replicas.remove(&session) {
                    if self.collect_digests {
                        self.report
                            .digests
                            .push((session, transcript_digest(&replica.board)));
                        self.report.transcript_bits += replica.board.total_bits() as u64;
                    }
                }
                if outcome.remaining == 0 {
                    self.report.digests.sort_unstable_by_key(|&(s, _)| s);
                    return Ok(Played::Finished);
                }
            }
            Frame::Heartbeat { .. } => {}
            Frame::Error { message, .. } => return Err(NetError::Protocol(message)),
            Frame::Hello(_) => return Err(NetError::Protocol("unexpected mid-run hello".into())),
            // Admin traffic is answered on the admin peer's own
            // connection; it never reaches a roster player.
            Frame::Stats { .. } | Frame::StatsReply(_) => {
                let message = "unexpected admin frame on player channel";
                return Err(NetError::Protocol(message.into()));
            }
        }
        Ok(Played::Idle)
    }
}

/// Plays every session multiplexed onto `conn` until the daemon's final
/// `Outcome` (one with `remaining == 0`), one [`MuxPlayer::play`] per
/// frame, heartbeating whenever nothing was sent for one interval.
///
/// Replies are coalesced: every frame one read brought in is answered
/// into the connection's queue, and the queue goes out in one write just
/// before the loop would block on the next read, or before it returns.
///
/// `collect_digests` switches on per-session replica digests — the load
/// harness enables it on player 0 only, so the verification cost is
/// paid once, not `k` times.
pub fn run_mux_player<P>(
    protocol: &P,
    mut conn: MuxConn,
    player: usize,
    config: &NetConfig,
    collect_digests: bool,
) -> Result<MuxPlayerReport, NetError>
where
    P: Protocol,
    P::Input: Wire,
{
    let mut state = MuxPlayer::new(protocol, player, collect_digests);
    // Block for frames, waking at least once per heartbeat interval so
    // an idle player still heartbeats on time.
    conn.set_read_timeout(Some(config.heartbeat_interval))?;
    let mut last_sent = Instant::now();
    let mut heartbeat_seq = 0u64;
    loop {
        let (session, frame) = loop {
            if let Some(hit) = conn.recv_buffered()? {
                break hit;
            }
            // Nothing left to answer without reading: write the replies
            // queued so far, plus a heartbeat when one is due.
            if last_sent.elapsed() >= config.heartbeat_interval {
                heartbeat_seq += 1;
                let heartbeat = Frame::Heartbeat { seq: heartbeat_seq };
                conn.out.queue(CONTROL_SESSION, &heartbeat);
            }
            if !conn.out.pending().is_empty() {
                conn.send_queued()?;
                last_sent = Instant::now();
            }
            if let Some(hit) = conn.recv()? {
                break hit;
            }
        };
        match state.play(Instant::now(), session, frame)? {
            Played::Idle => {}
            Played::Reply(reply) => conn.out.queue(session, &reply),
            Played::HangUp | Played::Finished => {
                conn.send_queued()?;
                let mut report = state.report;
                conn.out.tally(conn.reader(), &mut report.wire);
                return Ok(report);
            }
        }
    }
}
