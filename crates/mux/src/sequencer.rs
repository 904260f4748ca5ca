//! [`MuxCore`]: the mux daemon's session logic as a sans-io state machine.
//!
//! The core owns the session table, the deadline FIFO, heartbeat
//! liveness, the per-player write queues and the run's records, and
//! never reads a clock, touches a socket or starts a thread. A driver
//! hands it each [`Event`] with the instant it happened, drains the
//! queues it fills, and sleeps until [`MuxCore::next_wake`]. The TCP
//! reactor ([`crate::daemon::run_mux_daemon`]) drives it on the wall
//! clock; the `bci-mux` tests drive it on a simulated network with a
//! virtual clock.
//!
//! Determinism: session `s` samples its inputs from
//! `ChaCha8Rng::seed_from_u64(derive_trial_seed(master_seed, s))`, and
//! the post-sampling RNG becomes the session RNG — the discipline of
//! every driver in the repo. Replies carry the post-message RNG state,
//! parked verbatim and embedded in the next grant, so a transcript is
//! bit-identical to `InProcessTransport`'s for the same seed however
//! sessions interleave on the wire.

use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use bci_blackboard::engine::{ProtocolViolation, Step, TurnEngine};
use bci_blackboard::protocol::Protocol;
use bci_blackboard::runner::derive_trial_seed;
use bci_encoding::bitio::BitVec;
use bci_encoding::wire::Wire;
use bci_fabric::transport::DEFAULT_STALL_CAP;
use bci_net::frame::{
    BroadcastFrame, Frame, FrameReader, InputFrame, NetError, OutcomeFrame, NO_PLAYER,
};
use bci_net::overhead::transcript_digest;
use bci_net::WireStats;
use bci_telemetry::hist::{QUEUE_BYTES_BOUNDS, TURN_LATENCY_US_BOUNDS};
use bci_telemetry::{Json, Recorder, SpanKind};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::conn::Outbox;
use crate::daemon::{MuxOptions, MuxRunReport, SessionRecord};

/// The outcome reason of a session whose protocol panicked choosing the
/// next speaker, as a board replay does on a reply a peer malformed.
pub const POLL_PANICKED: &str = "protocol next_speaker panicked";

/// The outcome reason of a session whose protocol panicked computing its
/// output.
pub const OUTPUT_PANICKED: &str = "protocol output panicked";

/// Something that happened to the pool, handed to [`MuxCore::handle`]
/// with the instant the driver observed it.
#[derive(Debug)]
#[allow(missing_docs)] // each variant's doc names its fields
pub enum Event {
    /// Player `player` sent `frame` on `session`; it was decoded at `at`.
    Frame {
        player: usize,
        at: Instant,
        session: u64,
        frame: Frame,
    },
    /// Player `player`'s stream ended or failed, reading or writing.
    Closed { player: usize, error: NetError },
    /// A flush begun at `began` drained every queue, player `i`'s at `written[i]`.
    Flushed {
        began: Instant,
        written: Vec<Instant>,
    },
    /// A flush could not drain player `player`'s queue within
    /// `io_timeout`.
    Stalled { player: usize },
    /// A timer may be due: admit, expire deadlines, check liveness.
    Tick,
}

/// One parked session: its sans-io [`TurnEngine`] (board prefix, turn
/// cursor, runaway budget, parked ChaCha8 state), plus when each phase
/// of the outstanding turn began — the one clock the engine refuses to
/// own.
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

/// Microseconds from `from` to `to`, 0 if `to` is earlier.
fn micros(from: Instant, to: Instant) -> u64 {
    to.saturating_duration_since(from).as_micros() as u64
}

/// The daemon's session logic for one run over a pool of `k` players.
pub struct MuxCore<'a, P: Protocol, F> {
    protocol: &'a P,
    sample_inputs: F,
    /// Frames queued for each player.
    out: Vec<Outbox>,
    /// When each player last delivered a frame (decode instant).
    last_seen: Vec<Instant>,
    /// When a frame last arrived or a deadline last fired.
    last_progress: Instant,
    table: HashMap<u64, SessionSlot<'a, P>>,
    /// `(expiry, session)` in admission order; finished ids are skipped
    /// when they reach the front.
    deadlines: VecDeque<(Instant, u64)>,
    /// Sessions whose grant was queued since the last flush.
    unflushed: Vec<u64>,
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
    started: Instant,
    last_flight_dump: Option<Instant>,
}

impl<'a, P, F> MuxCore<'a, P, F>
where
    P: Protocol,
    P::Input: Wire,
    P::Output: Wire,
    F: Fn(u64, &mut ChaCha8Rng) -> Vec<P::Input>,
{
    /// A core started at `now`, with one queue per player in `out`;
    /// nothing is admitted before the first [`Event::Tick`]. The rest is
    /// as for [`crate::daemon::run_mux_daemon`].
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        now: Instant,
        protocol: &'a P,
        out: Vec<Outbox>,
        total_sessions: u64,
        master_seed: u64,
        sample_inputs: F,
        opts: &'a MuxOptions,
        recorder: &'a Recorder,
    ) -> Self {
        assert_eq!(out.len(), protocol.num_players(), "pool size");
        assert!(opts.max_inflight > 0, "max_inflight must be positive");
        MuxCore {
            protocol,
            sample_inputs,
            last_seen: vec![now; out.len()],
            out,
            last_progress: now,
            table: HashMap::new(),
            deadlines: VecDeque::new(),
            unflushed: Vec::new(),
            records: Vec::new(),
            next_session: 0,
            total: total_sessions,
            finished: 0,
            drain_watermark: 0,
            culprit: None,
            master_seed,
            opts,
            recorder,
            started: now,
            last_flight_dump: None,
        }
    }

    /// True once every session has finished (or the pool failed).
    pub fn done(&self) -> bool {
        self.finished >= self.total
    }

    /// The player whose failure ended the run, if one did.
    pub fn culprit(&self) -> Option<usize> {
        self.culprit
    }

    /// The latest instant the driver may sleep to: the oldest heartbeat
    /// horizon, the stall cap, or the oldest session deadline.
    pub fn next_wake(&self) -> Instant {
        let stale_after = self.opts.config.heartbeat_interval * self.opts.config.miss_limit;
        let oldest_seen = *self.last_seen.iter().min().expect("non-empty pool");
        let mut wake = (oldest_seen + stale_after).min(self.last_progress + DEFAULT_STALL_CAP);
        if let Some(&(due, _)) = self.deadlines.front() {
            wake = wake.min(due);
        }
        wake
    }

    /// The per-player write queues, for the driver to drain.
    pub fn outboxes(&mut self) -> &mut [Outbox] {
        &mut self.out
    }

    /// Starts a flush: false when nothing is queued (a flush with nothing
    /// to do). Otherwise records the bytes queued; the driver drains
    /// [`MuxCore::outboxes`] in player order and reports
    /// [`Event::Flushed`], or the first player it could not drain.
    pub fn begin_flush(&mut self) -> bool {
        let queued: usize = self.out.iter().map(|o| o.pending().len()).sum();
        if queued == 0 {
            self.drain_watermark = self.finished;
            return false;
        }
        self.recorder.hist_record(
            "mux.outbound_queue_bytes",
            queued as u64,
            QUEUE_BYTES_BOUNDS,
        );
        true
    }

    /// Advances the state machine by one event that happened at `now`.
    pub fn handle(&mut self, now: Instant, event: Event) {
        let (player, reason) = match event {
            Event::Frame {
                player,
                at,
                session,
                frame,
            } => {
                self.last_seen[player] = at;
                self.last_progress = now;
                match frame {
                    Frame::Heartbeat { .. } => return,
                    Frame::Broadcast(reply) => {
                        return self.apply_reply(now, session, player, reply, at)
                    }
                    Frame::Error { message, .. } => {
                        (player, format!("player {player} error: {message}"))
                    }
                    other => (
                        player,
                        format!("player {player} sent unexpected {} frame", other.name()),
                    ),
                }
            }
            Event::Closed {
                player,
                error: NetError::Disconnected | NetError::Io(_),
            } => (player, format!("player {player} disconnected")),
            Event::Closed { player, error } => (player, format!("player {player}: {error}")),
            Event::Flushed { began, written } => {
                for session in self.unflushed.drain(..) {
                    if let Some(slot) = self.table.get_mut(&session) {
                        if let Some(speaker) = slot.engine.granted() {
                            slot.flushed = Some((began, written[speaker]));
                        }
                    }
                }
                self.drain_watermark = self.finished;
                return;
            }
            Event::Stalled { player } => {
                self.recorder.counter_add("mux.write_stalls", 1);
                (
                    player,
                    format!("player {player} stalled writes past io_timeout"),
                )
            }
            Event::Tick => return self.tick(now),
        };
        self.fail(now, player, &reason);
    }

    /// Admits, times out expired sessions, and fails the run on a stale
    /// player or a stall past the cap. A no-op once the run is done.
    fn tick(&mut self, now: Instant) {
        if self.done() {
            return;
        }
        // Finishing sessions freed in-flight slots; top the table up.
        self.admit(now);
        if self.expire_deadlines(now) {
            self.last_progress = now;
            self.admit(now);
        }
        let miss_limit = self.opts.config.miss_limit;
        let stale_after = self.opts.config.heartbeat_interval * miss_limit;
        if let Some(player) = self
            .last_seen
            .iter()
            .position(|&seen| now.saturating_duration_since(seen) > stale_after)
        {
            self.fail(
                now,
                player,
                &format!("player {player} missed {miss_limit} heartbeats"),
            );
        } else if now.saturating_duration_since(self.last_progress) > DEFAULT_STALL_CAP {
            self.abort_all(now, "reactor stalled past the stall cap");
        }
    }

    /// Admits sessions until the in-flight cap or the total is reached:
    /// derives the session seed, samples inputs, ships each player its
    /// share, and issues the first grant.
    fn admit(&mut self, now: Instant) {
        while self.table.len() < self.opts.max_inflight && self.next_session < self.total {
            let session = self.next_session;
            self.next_session += 1;
            let seed = derive_trial_seed(self.master_seed, session);
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let inputs = (self.sample_inputs)(session, &mut rng);
            debug_assert_eq!(inputs.len(), self.out.len(), "input count");
            for (player, input) in inputs.iter().enumerate() {
                self.out[player].queue(
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
            let slot = SessionSlot {
                engine,
                granted_at: None,
                flushed: None,
                prev: None,
                started: now,
            };
            self.table.insert(session, slot);
            if let Some(deadline) = self.opts.deadline {
                self.deadlines.push_back((now + deadline, session));
            }
            self.recorder.counter_add("mux.sessions_started", 1);
            if self.recorder.events_enabled() {
                self.recorder.point(
                    SpanKind::Session,
                    session,
                    vec![("phase", Json::str("admit"))],
                );
            }
            self.grant(now, session);
        }
    }

    /// Queues `frame` for `session` on every player's queue, encoded once.
    fn fan_out(&mut self, session: u64, frame: &Frame) {
        let bytes = frame.to_bytes_mux(session);
        for out in &mut self.out {
            out.queue_encoded(&bytes);
        }
    }

    /// Polls the session's engine and issues the next grant (folding in
    /// the previous authoritative write), or finishes the session when
    /// the engine halts. Engine violations — out-of-range speaker,
    /// runaway protocol — finish the session aborted with the
    /// violation's canonical reason, and a protocol that panics choosing
    /// the speaker or computing the output with [`POLL_PANICKED`] or
    /// [`OUTPUT_PANICKED`]: the board holds bits remote peers chose.
    fn grant(&mut self, now: Instant, session: u64) {
        let slot = self
            .table
            .get_mut(&session)
            .expect("granting a live session");
        let next = match catch_unwind(AssertUnwindSafe(|| slot.engine.poll())) {
            Ok(Ok(Step::Grant(grant))) => Some(grant),
            Ok(Ok(Step::Halted)) => None,
            Ok(Err(violation)) => return self.abort(now, session, violation.to_string()),
            Err(_) => return self.abort(now, session, POLL_PANICKED.into()),
        };
        let (prev_speaker, prev_bits) = slot.prev.take().unwrap_or((NO_PLAYER, BitVec::new()));
        let rng_bytes = next.as_ref().map_or_else(Vec::new, |grant| {
            let state = grant.rng_state.expect("mux engine carries the session rng");
            state.to_vec()
        });
        if next.is_some() {
            slot.granted_at = Some(now);
            self.unflushed.push(session);
        }
        let frame = Frame::Broadcast(BroadcastFrame {
            turn: slot.engine.steps() as u32,
            speaker: prev_speaker,
            bits: prev_bits,
            next: next.as_ref().map_or(NO_PLAYER, |g| g.speaker as u32),
            rng: rng_bytes,
        });
        self.fan_out(session, &frame);
        if next.is_none() {
            let slot = &self.table[&session];
            match catch_unwind(AssertUnwindSafe(|| slot.engine.output())) {
                Ok(o) => self.finish(now, session, 0, String::new(), o.to_wire_bytes()),
                Err(_) => self.abort(now, session, OUTPUT_PANICKED.into()),
            }
        }
    }

    /// Applies player `player`'s reply, decoded at `decoded_at`, through
    /// the session's engine (which re-parks the RNG state and writes the
    /// board), records the turn's latency and phases, and issues the next
    /// grant. Engine violations — a reply with no grant outstanding, the
    /// wrong speaker, a stale turn, a malformed RNG state — finish the
    /// session aborted with the violation's canonical reason.
    fn apply_reply(
        &mut self,
        now: Instant,
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
        // The wire names the speaker twice (connection index and frame
        // field) and echoes the grant's turn; a frame naming another
        // player or an earlier turn spends no grant.
        let expected = slot.engine.steps();
        let applied = match slot.engine.granted() {
            Some(granted) if reply.speaker as usize != player => {
                Err(ProtocolViolation::WrongSpeaker {
                    granted,
                    speaker: player,
                })
            }
            Some(granted) if granted == player && reply.turn as usize != expected => {
                Err(ProtocolViolation::StaleTurn {
                    speaker: player,
                    expected,
                    got: reply.turn as usize,
                })
            }
            _ => slot
                .engine
                .apply(player, reply.bits.clone(), Some(&reply.rng)),
        };
        if let Err(violation) = applied {
            return self.abort(now, session, violation.to_string());
        }
        if let Some(granted_at) = slot.granted_at.take() {
            // A reply can only follow the flush that carried its grant,
            // so `flushed` is set.
            let (began, written) = slot.flushed.take().unwrap_or((granted_at, granted_at));
            // The turn's latency, then its four phases.
            for (name, from, to) in [
                ("mux.turn_latency_us", granted_at, now),
                ("mux.turn_queue_us", granted_at, began),
                ("mux.turn_flush_us", began, written),
                ("mux.turn_remote_us", written, decoded_at),
                ("mux.turn_apply_us", decoded_at, now),
            ] {
                self.recorder
                    .hist_record(name, micros(from, to), TURN_LATENCY_US_BOUNDS);
            }
        }
        slot.prev = Some((player as u32, reply.bits));
        self.grant(now, session);
    }

    /// Removes `session` from the table, queues its outcome to every
    /// player, and records it. `remaining` in the outcome frame is the
    /// global count of unfinished sessions, so the run's final outcome
    /// (in TCP order on every connection) carries 0 and releases the
    /// clients.
    fn finish(&mut self, now: Instant, session: u64, kind: u8, reason: String, output: Vec<u8>) {
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
        if kind != 0 && self.opts.dump_flight_on_failure {
            self.dump_flight(now, session, kind, &reason);
        }
        self.records.push(SessionRecord {
            session,
            kind,
            reason,
            output,
            digest: transcript_digest(&board),
            transcript_bits: board.total_bits() as u64,
            turns,
            latency_us: micros(slot.started, now),
        });
    }

    /// Finishes `session` aborted with `reason`.
    fn abort(&mut self, now: Instant, session: u64, reason: String) {
        self.finish(now, session, 2, reason, Vec::new());
    }

    /// Dumps the flight ring to stderr for a failed session, at most
    /// once per second of `now` (an `abort_all` storm finishes thousands
    /// of sessions with the same ring contents).
    fn dump_flight(&mut self, now: Instant, session: u64, kind: u8, reason: &str) {
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
    pub fn set_gauges(&self) {
        let inflight = self.table.len() as u64;
        let granted = self
            .table
            .values()
            .filter(|slot| slot.engine.granted().is_some())
            .count() as u64;
        let queued: usize = self.out.iter().map(|o| o.pending().len()).sum();
        for (name, value) in [
            ("mux.roster_players", self.out.len() as u64),
            ("mux.inflight", inflight),
            ("mux.inflight_limit", self.opts.max_inflight as u64),
            ("mux.sessions_granted", granted),
            ("mux.sessions_parked", inflight - granted),
            (
                "mux.sessions_draining",
                self.finished - self.drain_watermark,
            ),
            ("mux.sessions_remaining", self.total - self.finished),
            ("mux.outbound_queue_bytes", queued as u64),
        ] {
            self.recorder.gauge_set(name, value);
        }
    }

    /// Marks every unfinished session aborted (connection-pool failure:
    /// with a player gone, no session can make progress). Shrinking
    /// `total` to the admitted count *before* finishing makes the last
    /// outcome's `remaining` hit 0, so any surviving client still exits
    /// cleanly instead of waiting for sessions that will never start.
    fn abort_all(&mut self, now: Instant, reason: &str) {
        self.total = self.next_session;
        let mut live: Vec<u64> = self.table.keys().copied().collect();
        live.sort_unstable();
        for session in live {
            self.abort(now, session, reason.to_string());
        }
    }

    /// Aborts the run because of `player`, whose connection is then left
    /// alone by the final flush.
    fn fail(&mut self, now: Instant, player: usize, reason: &str) {
        self.culprit = Some(player);
        self.abort_all(now, reason);
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
                self.finish(now, session, 1, String::new(), Vec::new());
                expired = true;
            } else {
                break;
            }
        }
        expired
    }

    /// Ends the run at `now`: the records sorted by session id, and the
    /// pool's wire accounting — this core's queues for the write side,
    /// `readers` (the daemon's frame readers, in player order) for the
    /// read side — also added to the `mux.bytes_*`/`mux.frames_*`
    /// counters.
    pub fn into_report<'r>(
        self,
        now: Instant,
        readers: impl IntoIterator<Item = &'r FrameReader>,
    ) -> MuxRunReport {
        let mut wire = WireStats::default();
        for (out, reader) in self.out.iter().zip(readers) {
            out.tally(reader, &mut wire);
        }
        let recorder = self.recorder;
        recorder.counter_add("mux.bytes_tx", wire.bytes_tx);
        recorder.counter_add("mux.bytes_rx", wire.bytes_rx);
        recorder.counter_add("mux.frames_tx", wire.frames_tx);
        recorder.counter_add("mux.frames_rx", wire.frames_rx);
        let mut records = self.records;
        records.sort_unstable_by_key(|r| r.session);
        wire.transcript_bits = records.iter().map(|r| r.transcript_bits).sum();
        MuxRunReport {
            records,
            wire,
            elapsed: now.saturating_duration_since(self.started),
        }
    }
}
