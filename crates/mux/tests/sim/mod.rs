//! `SimNet`: the mux daemon's sans-io [`MuxCore`] driven on a virtual
//! clock over in-memory links, against scripted peers.
//!
//! The driver mirrors `run_mux_daemon`'s loop step for step — tick,
//! flush, wait for frames or the next timer, hand the core every frame
//! that has arrived, tick — but time is one base `Instant` plus virtual
//! offsets, and it only moves when nothing else can happen. So every run
//! is deterministic, takes milliseconds, and ends at an exact virtual
//! instant.
//!
//! Each player's link carries real wire bytes both ways (so the wire
//! counters are the daemon's own): daemon → peer through a buffer of
//! [`LINK_CAPACITY`] bytes the peer drains at its per-millisecond
//! byte budget (a trickle reader, or one that stops reading), and
//! peer → daemon through the daemon's own [`FrameReader`]. A flush that
//! finds a link full waits a virtual millisecond at a time, up to
//! `io_timeout`, exactly as a blocking write would.
//!
//! Honest peers answer through [`MuxPlayer::play`], the per-frame step
//! `run_mux_player` runs; misbehaving peers wrap or replace it.

#![allow(dead_code)]

use std::collections::VecDeque;
use std::io::{self, Read};
use std::time::{Duration, Instant};

use bci_blackboard::board::Board;
use bci_blackboard::protocol::Protocol;
use bci_blackboard::runner::derive_trial_seed;
use bci_blackboard::PlayerId;
use bci_encoding::bitio::BitVec;
use bci_encoding::wire::Wire;
use bci_fabric::transport::{InProcessTransport, SessionContext, Transport, DISABLED_RECORDER};
use bci_mux::{Event, MuxCore, MuxPlayer, MuxRunReport, Played};
use bci_net::frame::{Frame, FrameReader, CONTROL_SESSION};
use bci_net::overhead::transcript_digest;
use bci_net::NetConfig;
use bci_telemetry::Snapshot;
use rand::{Rng, RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// The virtual clock's step.
pub const MS: Duration = Duration::from_millis(1);

/// Bytes a daemon → peer link holds unread before a write blocks (the
/// two socket buffers between them).
const LINK_CAPACITY: usize = 16 << 10;

/// Two players alternate for `turns` one-bit writes, so every session
/// needs player 1 before it can complete. The input is an opaque byte
/// string whose length sets the size of each `Input` frame.
pub struct Relay {
    pub turns: usize,
}

impl Protocol for Relay {
    type Input = Vec<u8>;
    type Output = usize;

    fn num_players(&self) -> usize {
        2
    }

    fn next_speaker(&self, board: &Board) -> Option<PlayerId> {
        let written = board.messages().len();
        (written < self.turns).then_some(written % 2)
    }

    fn message(&self, _: PlayerId, input: &Vec<u8>, _: &Board, _: &mut dyn RngCore) -> BitVec {
        BitVec::from_bools(&[input.len() % 2 == 1])
    }

    fn output(&self, board: &Board) -> usize {
        board.total_bits()
    }
}

/// [`Relay`] as a player plays it whose message computation panics.
pub struct PanickyRelay(pub Relay);

impl Protocol for PanickyRelay {
    type Input = Vec<u8>;
    type Output = usize;

    fn num_players(&self) -> usize {
        2
    }

    fn next_speaker(&self, board: &Board) -> Option<PlayerId> {
        self.0.next_speaker(board)
    }

    fn message(&self, player: PlayerId, _: &Vec<u8>, _: &Board, _: &mut dyn RngCore) -> BitVec {
        panic!("player {player} panics mid-message")
    }

    fn output(&self, board: &Board) -> usize {
        board.total_bits()
    }
}

/// Two players take turns of `streak` consecutive writes each, for
/// `turns` writes of one coin-flipped bit (XOR their input bit), so a
/// transcript depends on the session seed and on the RNG riding every
/// grant.
pub struct Coins {
    pub turns: usize,
    pub streak: usize,
}

impl Protocol for Coins {
    type Input = bool;
    type Output = usize;

    fn num_players(&self) -> usize {
        2
    }

    fn next_speaker(&self, board: &Board) -> Option<PlayerId> {
        let written = board.messages().len();
        (written < self.turns).then_some(written / self.streak % 2)
    }

    fn message(&self, _: PlayerId, input: &bool, _: &Board, rng: &mut dyn RngCore) -> BitVec {
        BitVec::from_bools(&[*input ^ rng.random_bool(0.5)])
    }

    fn output(&self, board: &Board) -> usize {
        board
            .messages()
            .iter()
            .filter(|m| m.bits.get(0) == Some(true))
            .count()
    }
}

/// Samples one coin per player for [`Coins`].
pub fn coin_inputs(_session: u64, rng: &mut ChaCha8Rng) -> Vec<bool> {
    vec![rng.random_bool(0.5), rng.random_bool(0.5)]
}

/// The transcript digest of every session `0..sessions` replayed on
/// [`InProcessTransport`] with the daemon's seeding discipline.
pub fn inprocess_digests<P, F>(protocol: &P, sessions: u64, seed: u64, sample: F) -> Vec<u64>
where
    P: Protocol + Sync,
    P::Input: Sync + Wire,
    P::Output: Wire,
    F: Fn(u64, &mut ChaCha8Rng) -> Vec<P::Input>,
{
    (0..sessions)
        .map(|session| {
            let mut rng = ChaCha8Rng::seed_from_u64(derive_trial_seed(seed, session));
            let inputs = sample(session, &mut rng);
            let ctx = SessionContext {
                session_id: session,
                deadline: None,
                faults: &[],
                recorder: &DISABLED_RECORDER,
            };
            let result = InProcessTransport.run_session(protocol, &inputs, rng, &ctx);
            transcript_digest(&result.board)
        })
        .collect()
}

/// How a peer answers one frame it read at an instant: the frames it
/// sends back, each on its session, or `None` to hang up.
pub type Script<'p> = Box<dyn FnMut(Instant, u64, Frame) -> Option<Vec<(u64, Frame)>> + 'p>;

/// The honest player's answer: exactly what `run_mux_player` does with
/// each frame.
pub fn honest<'p, P>(protocol: &'p P, player: usize) -> Script<'p>
where
    P: Protocol,
    P::Input: Wire,
{
    let mut state = MuxPlayer::new(protocol, player, false);
    Box::new(
        move |now, session, frame| match state.play(now, session, frame) {
            Ok(Played::Reply(reply)) => Some(vec![(session, reply)]),
            Ok(Played::Idle | Played::Finished) => Some(Vec::new()),
            Ok(Played::HangUp) => None,
            Err(e) => panic!("honest player {player} failed: {e}"),
        },
    )
}

/// A peer that reads and heartbeats but never answers.
pub fn mute<'p>() -> Script<'p> {
    Box::new(|_, _, _| Some(Vec::new()))
}

/// Reads a byte queue as a socket would: what is there, up to `limit`
/// bytes; end-of-stream once it is empty and `closed`; otherwise
/// "would block".
struct Pipe<'b> {
    bytes: &'b mut VecDeque<u8>,
    limit: usize,
    closed: bool,
}

impl Read for Pipe<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        // The front slice is empty only when the queue is.
        let front = self.bytes.as_slices().0;
        let n = buf.len().min(self.limit).min(front.len());
        if n == 0 {
            return match self.closed && front.is_empty() {
                true => Ok(0),
                false => Err(io::ErrorKind::WouldBlock.into()),
            };
        }
        buf[..n].copy_from_slice(&front[..n]);
        self.bytes.drain(..n);
        self.limit -= n;
        Ok(n)
    }
}

/// One scripted peer and its link to the daemon.
pub struct Peer<'p> {
    script: Script<'p>,
    /// Bytes read per virtual millisecond; `None` reads all there is.
    budget: Option<usize>,
    /// Heartbeats whenever nothing was sent for one interval.
    heartbeats: bool,
    /// Time spent on each frame answered, one frame at a time.
    delay: Duration,
    /// Hung up: reads nothing, sends nothing, and the daemon's reader
    /// sees end-of-stream after what was already sent.
    closed: bool,
    /// Daemon → peer bytes not yet read, and the peer's decoder.
    down: VecDeque<u8>,
    peer_reader: FrameReader,
    /// Peer → daemon bytes not yet decoded, and the daemon's decoder.
    up: VecDeque<u8>,
    reader: FrameReader,
    /// Answers waiting out `delay`, in the order they become due.
    sends: VecDeque<(Instant, Vec<(u64, Frame)>)>,
    busy_until: Option<Instant>,
    last_sent: Option<Instant>,
    /// The millisecond `used` bytes of budget were read in.
    budget_ms: Duration,
    used: usize,
    heartbeat_seq: u64,
    eof_delivered: bool,
    /// `Outcome` frames read, and whether the final one was.
    pub outcomes: u64,
    pub released: bool,
}

impl<'p> Peer<'p> {
    /// A peer that reads everything at once, answers through `script`
    /// without delay, and heartbeats.
    pub fn new(script: Script<'p>) -> Self {
        Peer {
            script,
            budget: None,
            heartbeats: true,
            delay: Duration::ZERO,
            closed: false,
            down: VecDeque::new(),
            peer_reader: FrameReader::new_mux(),
            up: VecDeque::new(),
            reader: FrameReader::new_mux(),
            sends: VecDeque::new(),
            busy_until: None,
            last_sent: None,
            budget_ms: Duration::MAX,
            used: 0,
            heartbeat_seq: 0,
            eof_delivered: false,
            outcomes: 0,
            released: false,
        }
    }

    /// Reads at most `bytes` per virtual millisecond.
    pub fn budget(mut self, bytes: usize) -> Self {
        self.budget = Some(bytes);
        self
    }

    /// Spends `delay` on each frame it answers.
    pub fn delay(mut self, delay: Duration) -> Self {
        self.delay = delay;
        self
    }

    /// Never reads and never writes.
    pub fn silent(mut self) -> Self {
        self.budget = Some(0);
        self.heartbeats = false;
        self
    }

    /// Hangs up before the run starts.
    pub fn hung_up(mut self) -> Self {
        self.closed = true;
        self
    }

    fn active(&self) -> bool {
        !self.closed && !self.released
    }

    /// Queues `frames` on the link to the daemon, sent at `now`.
    fn send(&mut self, now: Instant, frames: Vec<(u64, Frame)>) {
        for (session, frame) in frames {
            self.up.extend(frame.to_bytes_mux(session));
        }
        self.last_sent = Some(now);
    }

    /// Everything the peer does at `now`: read what its budget allows
    /// and answer it, send answers whose delay is over, heartbeat.
    /// Returns whether it read anything.
    fn step(&mut self, now: Instant, since: Duration, heartbeat: Duration) -> bool {
        if !self.active() {
            self.down.clear();
            return false;
        }
        if self.budget_ms != since {
            self.budget_ms = since;
            self.used = 0;
        }
        let limit = self.budget.map_or(usize::MAX, |b| b - self.used);
        let before = self.down.len();
        let mut pipe = Pipe {
            bytes: &mut self.down,
            limit,
            closed: false,
        };
        let mut frames = Vec::new();
        while let Ok(Some(hit)) = self.peer_reader.poll_mux(&mut pipe) {
            frames.push(hit);
        }
        let read = before - self.down.len();
        self.used += read;
        for (session, frame) in frames {
            if let Frame::Outcome(outcome) = &frame {
                self.outcomes += 1;
                self.released |= outcome.remaining == 0;
            }
            let Some(answer) = (self.script)(now, session, frame) else {
                self.closed = true;
                return true;
            };
            if !answer.is_empty() {
                let due = self.busy_until.map_or(now, |b| b.max(now)) + self.delay;
                self.busy_until = Some(due);
                self.sends.push_back((due, answer));
            }
        }
        while self.sends.front().is_some_and(|&(due, _)| due <= now) {
            let (_, answer) = self.sends.pop_front().expect("front");
            self.send(now, answer);
        }
        let last = self.last_sent.expect("set at start");
        if self.heartbeats && self.active() && now - last >= heartbeat {
            self.heartbeat_seq += 1;
            let seq = self.heartbeat_seq;
            self.send(now, vec![(CONTROL_SESSION, Frame::Heartbeat { seq })]);
        }
        read > 0
    }

    /// The next instant after `now` this peer does something on its
    /// own: sends a delayed answer, heartbeats, or reads on.
    fn next_event(&self, now: Instant, heartbeat: Duration) -> Option<Instant> {
        if !self.active() {
            return None;
        }
        let beat = self.last_sent.expect("set at start") + heartbeat;
        let reads_on = self.budget != Some(0) && !self.down.is_empty();
        [
            self.sends.front().map(|&(due, _)| due),
            self.heartbeats.then_some(beat),
            reads_on.then_some(now + MS),
        ]
        .into_iter()
        .flatten()
        .min()
    }
}

/// What one simulated run produced.
#[derive(Debug)]
pub struct SimRun {
    pub report: MuxRunReport,
    /// Virtual time from the start to the instant the core was done.
    pub ended: Duration,
    /// `Outcome` frames each peer read, and whether it saw the final one.
    pub outcomes: Vec<(u64, bool)>,
}

/// The core, its peers, and the virtual clock.
pub struct SimNet<'a, 'p, P: Protocol, F> {
    core: MuxCore<'a, P, F>,
    peers: Vec<Peer<'p>>,
    base: Instant,
    now: Instant,
    heartbeat: Duration,
    io_timeout: Duration,
}

impl<'a, 'p, P, F> SimNet<'a, 'p, P, F>
where
    P: Protocol,
    P::Input: Wire,
    P::Output: Wire,
    F: Fn(u64, &mut ChaCha8Rng) -> Vec<P::Input>,
{
    /// A network of `peers` around `core`, which was started at `base`
    /// with `config` as its socket policy.
    pub fn new(
        base: Instant,
        core: MuxCore<'a, P, F>,
        peers: Vec<Peer<'p>>,
        config: &NetConfig,
    ) -> Self {
        let mut peers = peers;
        for peer in &mut peers {
            // The handshake was the last thing each peer sent.
            peer.last_sent = Some(base);
        }
        SimNet {
            core,
            peers,
            base,
            now: base,
            heartbeat: config.heartbeat_interval,
            io_timeout: config.io_timeout,
        }
    }

    /// Runs to the end the way the reactor does, then flushes the final
    /// outcomes and lets every peer read them.
    pub fn run(mut self) -> SimRun {
        self.core.handle(self.now, Event::Tick);
        while !self.core.done() {
            self.flush();
            if self.core.done() {
                break;
            }
            self.step_peers();
            if !self.deliver() {
                let wake = self.core.next_wake();
                let heartbeat = self.heartbeat;
                let now = self.now;
                let next = self
                    .peers
                    .iter()
                    .filter_map(|p| p.next_event(now, heartbeat));
                let due = next.fold(wake, Instant::min);
                self.now = due.max(self.now + MS);
                self.step_peers();
                self.deliver();
            }
            self.core.handle(self.now, Event::Tick);
        }
        let ended = self.now - self.base;
        let culprit = self.core.culprit();
        for player in 0..self.peers.len() {
            if culprit != Some(player) {
                self.write_link(player);
            }
        }
        self.step_peers();
        let outcomes = self
            .peers
            .iter()
            .map(|p| (p.outcomes, p.released))
            .collect();
        let readers = self.peers.iter().map(|p| &p.reader);
        SimRun {
            report: self.core.into_report(self.now, readers),
            ended,
            outcomes,
        }
    }

    fn step_peers(&mut self) {
        let since = self.now - self.base;
        for peer in &mut self.peers {
            peer.step(self.now, since, self.heartbeat);
        }
    }

    /// Hands the core every frame the peers have sent — one per player
    /// per round, so the links interleave — and end-of-stream for a peer
    /// that hung up. False if there was nothing to hand over.
    fn deliver(&mut self) -> bool {
        let mut any = false;
        loop {
            let mut round = false;
            for (player, peer) in self.peers.iter_mut().enumerate() {
                let mut pipe = Pipe {
                    bytes: &mut peer.up,
                    limit: usize::MAX,
                    closed: peer.closed,
                };
                let event = match peer.reader.poll_mux(&mut pipe) {
                    Ok(Some((session, frame))) => Event::Frame {
                        player,
                        at: self.now,
                        session,
                        frame,
                    },
                    Ok(None) => continue,
                    Err(_) if peer.eof_delivered => continue,
                    Err(error) => {
                        peer.eof_delivered = true;
                        Event::Closed { player, error }
                    }
                };
                round = true;
                self.core.handle(self.now, event);
                if self.core.done() {
                    return true;
                }
            }
            if !round {
                return any;
            }
            any = true;
        }
    }

    /// The reactor's flush: every queue, in player order, each bounded by
    /// `io_timeout`, reported to the core.
    fn flush(&mut self) {
        let began = self.now;
        if !self.core.begin_flush() {
            return;
        }
        let mut written = Vec::with_capacity(self.peers.len());
        for player in 0..self.peers.len() {
            if !self.write_link(player) {
                return self.core.handle(self.now, Event::Stalled { player });
            }
            written.push(self.now);
        }
        self.core
            .handle(self.now, Event::Flushed { began, written });
    }

    /// Moves `player`'s queue onto its link. While the link is full the
    /// clock moves a millisecond at a time (the other peers carry on);
    /// false if `io_timeout` passes first. A hung-up peer's link takes
    /// everything and drops it, as a socket does until the reset.
    fn write_link(&mut self, player: usize) -> bool {
        let deadline = self.now + self.io_timeout;
        loop {
            let peer = &mut self.peers[player];
            let out = &mut self.core.outboxes()[player];
            let room = match peer.closed {
                true => usize::MAX,
                false => LINK_CAPACITY.saturating_sub(peer.down.len()),
            };
            let n = room.min(out.pending().len());
            if !peer.closed {
                peer.down.extend(&out.pending()[..n]);
            }
            out.consume(n);
            if out.pending().is_empty() {
                return true;
            }
            // A reader with budget left this millisecond makes room now.
            if peer.step(self.now, self.now - self.base, self.heartbeat) {
                continue;
            }
            if self.now >= deadline {
                return false;
            }
            self.now += MS;
            self.step_peers();
        }
    }
}

/// The parts of a run that must not vary between repeats: records,
/// counters and histograms (the snapshot minus its wall-clock uptime),
/// the virtual end, and what each peer saw.
pub fn fingerprint(run: &SimRun, counters: &Snapshot) -> String {
    let mut snapshot = counters.clone();
    snapshot.uptime_us = 0;
    format!(
        "{:?}|{:?}|{:?}|{:?}|{:?}",
        run.report.records, run.report.wire, run.ended, run.outcomes, snapshot
    )
}
