//! Length-prefixed binary frames and the incremental frame reader.
//!
//! Every message on a `bci-net` socket is one frame, and every frame
//! carries a session id so thousands of concurrent sessions can
//! interleave on one pooled connection (`Hello.version == 2`, spoken by
//! the `bci-mux` daemon):
//!
//! ```text
//! ┌────────────────┬───────────────────┬─────────┬────────────────────┐
//! │ u32 LE length  │ u64 LE session_id │ u8 tag  │ payload (Wire-coded)│
//! └────────────────┴───────────────────┴─────────┴────────────────────┘
//! ```
//!
//! The length counts everything after the length prefix (session id,
//! tag, payload), so a reader needs exactly two reads to know how much to
//! buffer. Payloads are encoded with the dependency-free [`Wire`] codec
//! from `bci-encoding`; see `docs/net.md` for the per-tag field tables.
//!
//! [`FrameReader`] is deliberately *incremental*: it consumes whatever
//! bytes `read` returns and surfaces a frame only once one is complete, so
//! a read timeout that fires mid-frame never corrupts the stream — the
//! partial bytes stay buffered and the caller observes an idle tick.
//! [`FrameReader::with_limits`] caps the accepted frame length below
//! [`MAX_FRAME_LEN`].

use std::fmt;
use std::io::{self, Read};

use bci_encoding::bitio::BitVec;
use bci_encoding::wire::{decode_bytes, encode_bytes, Wire, WireError};
use bci_telemetry::{Histogram, Snapshot};

/// `Hello` version spoken by the multiplexed coordinator (`bci-mux`):
/// every frame carries a `u64` session id between the length prefix and
/// the tag byte. Peers announcing another version are refused.
pub const PROTOCOL_VERSION_MUX: u16 = 2;

/// Framing bytes every frame pays: the `u32` length prefix, the `u64`
/// session id and the tag byte.
pub const HEADER_BYTES: u64 = 13;

/// Sentinel player id: "nobody" (initial grant has no prior speaker; a
/// final broadcast grants no next turn).
pub const NO_PLAYER: u32 = u32::MAX;

/// Session id used for connection-scoped frames (`Hello`,
/// `Heartbeat`, fatal `Error`) that belong to no particular session.
pub const CONTROL_SESSION: u64 = u64::MAX;

/// Sentinel player id announced in an admin `Hello`: the peer is a
/// read-only stats scraper, not a protocol participant. Coordinators
/// never assign this id to a real player (rosters are far smaller and
/// [`NO_PLAYER`] is the other reserved value).
pub const ADMIN_PLAYER: u32 = u32::MAX - 1;

/// Default hard cap on a frame's length field. A peer announcing more is
/// treated as malformed before any allocation happens. Deployments can
/// lower (or raise, up to [`MAX_FRAME_LEN_CEILING`]) the cap via
/// `NetConfig::max_frame_len`.
pub const MAX_FRAME_LEN: usize = 1 << 24;

/// Absolute ceiling any configured frame-length cap must stay under: a
/// cap above this cannot be satisfied by honest traffic and only widens
/// the pre-allocation attack surface.
pub const MAX_FRAME_LEN_CEILING: usize = 1 << 30;

/// Smallest admissible frame-length cap: a header (8-byte session id and
/// tag) plus a `Heartbeat` payload must fit, or no liveness traffic
/// can flow at all.
pub const MIN_FRAME_LEN_CAP: usize = 64;

/// Everything that can go wrong on a connection.
#[derive(Debug)]
pub enum NetError {
    /// The underlying socket failed.
    Io(io::Error),
    /// The peer closed the connection (clean EOF).
    Disconnected,
    /// A frame payload failed to decode.
    Decode(WireError),
    /// A structurally invalid frame: unknown tag, zero or oversized
    /// length, bad RNG-state length.
    BadFrame(&'static str),
    /// The peer violated the session protocol (bad handshake, unexpected
    /// frame, duplicate registration, …).
    Protocol(String),
    /// The peer went silent: no frame for more than
    /// `heartbeat_interval × miss_limit`.
    HeartbeatsMissed(u32),
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::Io(e) => write!(f, "i/o error: {e}"),
            NetError::Disconnected => write!(f, "connection closed"),
            NetError::Decode(e) => write!(f, "frame decode error: {e}"),
            NetError::BadFrame(what) => write!(f, "malformed frame: {what}"),
            NetError::Protocol(msg) => write!(f, "protocol violation: {msg}"),
            NetError::HeartbeatsMissed(n) => write!(f, "peer missed {n} heartbeats"),
        }
    }
}

impl std::error::Error for NetError {}

impl From<io::Error> for NetError {
    fn from(e: io::Error) -> Self {
        NetError::Io(e)
    }
}

impl From<WireError> for NetError {
    fn from(e: WireError) -> Self {
        NetError::Decode(e)
    }
}

/// The versioned handshake, sent client → coordinator on connect and
/// echoed back (with the session parameters filled in) as the ack.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hello {
    /// [`PROTOCOL_VERSION_MUX`] for roster players and admin peers.
    pub version: u16,
    /// Protocol identifier both sides must agree on (e.g. `"disj"`).
    pub protocol_id: String,
    /// Requested player index (client) / confirmed index (ack).
    pub player: u32,
    /// Roster size `k`. Zero in the client hello; filled in by the ack.
    pub players: u32,
    /// Master seed of the run. Zero in the client hello.
    pub seed: u64,
    /// Protocol-specific parameters (for `disj`: `[n]`). Empty in the
    /// client hello.
    pub params: Vec<u64>,
}

impl Wire for Hello {
    fn encode(&self, out: &mut Vec<u8>) {
        self.version.encode(out);
        self.protocol_id.encode(out);
        self.player.encode(out);
        self.players.encode(out);
        self.seed.encode(out);
        self.params.encode(out);
    }

    fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
        Ok(Hello {
            version: u16::decode(input)?,
            protocol_id: String::decode(input)?,
            player: u32::decode(input)?,
            players: u32::decode(input)?,
            seed: u64::decode(input)?,
            params: Vec::decode(input)?,
        })
    }
}

/// A player's input share, coordinator → player, once per session.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InputFrame {
    /// Session index within the run (0-based).
    pub session: u32,
    /// The addressee (defense in depth; each socket belongs to one player).
    pub player: u32,
    /// The [`Wire`]-encoded `P::Input`.
    pub payload: Vec<u8>,
}

impl Wire for InputFrame {
    fn encode(&self, out: &mut Vec<u8>) {
        self.session.encode(out);
        self.player.encode(out);
        encode_bytes(&self.payload, out);
    }

    fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
        Ok(InputFrame {
            session: u32::decode(input)?,
            player: u32::decode(input)?,
            payload: decode_bytes(input)?,
        })
    }
}

/// A board write and/or turn grant.
///
/// Coordinator → players: "`speaker` wrote `bits` (apply it to your board
/// replica); `next` speaks now, seeded with `rng`". The initial grant has
/// `speaker == NO_PLAYER` and empty `bits`; the final publish has
/// `next == NO_PLAYER` and empty `rng`.
///
/// Player → coordinator: the granted player's reply — `speaker` is the
/// sender, `bits` its message, `rng` the session RNG state *after*
/// computing it (the RNG round-trips exactly as in the in-process channel
/// transport, which is what keeps transcripts bit-identical).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BroadcastFrame {
    /// Turn index (number of board writes before this one).
    pub turn: u32,
    /// Who wrote `bits`; [`NO_PLAYER`] on the initial grant.
    pub speaker: u32,
    /// The written message bits.
    pub bits: BitVec,
    /// Who speaks next; [`NO_PLAYER`] when no turn is granted.
    pub next: u32,
    /// Serialized ChaCha8 session RNG state
    /// ([`rand_chacha::STATE_LEN`] bytes) when a turn is granted or a
    /// reply hands the RNG back; empty otherwise.
    pub rng: Vec<u8>,
}

impl Wire for BroadcastFrame {
    fn encode(&self, out: &mut Vec<u8>) {
        self.turn.encode(out);
        self.speaker.encode(out);
        self.bits.encode(out);
        self.next.encode(out);
        encode_bytes(&self.rng, out);
    }

    fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
        Ok(BroadcastFrame {
            turn: u32::decode(input)?,
            speaker: u32::decode(input)?,
            bits: BitVec::decode(input)?,
            next: u32::decode(input)?,
            rng: decode_bytes(input)?,
        })
    }
}

/// How a session ended, coordinator → players.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OutcomeFrame {
    /// How the session ended: one of the [`outcome_kind`] values.
    pub kind: u8,
    /// The abort reason; empty otherwise.
    pub reason: String,
    /// The [`Wire`]-encoded `P::Output` when completed; empty otherwise.
    pub output: Vec<u8>,
    /// Sessions still to come on this connection. Non-zero means "stay
    /// connected, the next `Input` frame is on its way".
    pub remaining: u32,
}

impl Wire for OutcomeFrame {
    fn encode(&self, out: &mut Vec<u8>) {
        self.kind.encode(out);
        self.reason.encode(out);
        encode_bytes(&self.output, out);
        self.remaining.encode(out);
    }

    fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
        Ok(OutcomeFrame {
            kind: u8::decode(input)?,
            reason: String::decode(input)?,
            output: decode_bytes(input)?,
            remaining: u32::decode(input)?,
        })
    }
}

/// The [`OutcomeFrame::kind`] values: the `SessionOutcome` variants, in
/// declaration order.
pub mod outcome_kind {
    /// The protocol ran to completion.
    pub const COMPLETED: u8 = 0;
    /// The session hit its deadline.
    pub const TIMED_OUT: u8 = 1;
    /// The session was cut short (crash, disconnect, runaway, bad reply).
    pub const ABORTED: u8 = 2;
}

/// One named `u64` metric (a counter or gauge) inside a
/// [`StatsPayload`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NamedValue {
    /// Metric name (e.g. `mux.sessions_started`).
    pub name: String,
    /// Metric value.
    pub value: u64,
}

impl Wire for NamedValue {
    fn encode(&self, out: &mut Vec<u8>) {
        self.name.encode(out);
        self.value.encode(out);
    }

    fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
        Ok(NamedValue {
            name: String::decode(input)?,
            value: u64::decode(input)?,
        })
    }
}

/// One histogram inside a [`StatsPayload`]: the full bucket ladder plus
/// counts and exact extremes, enough for the receiving side to rebuild a
/// [`Histogram`] and compute percentiles or deltas locally.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistPayload {
    /// Histogram name (e.g. `mux.turn_latency_us`).
    pub name: String,
    /// Bucket upper bounds, strictly increasing.
    pub bounds: Vec<u64>,
    /// `bounds.len() + 1` per-bucket counts, overflow last.
    pub counts: Vec<u64>,
    /// Total samples.
    pub count: u64,
    /// Saturating sum of samples.
    pub sum: u64,
    /// Exact smallest sample (0 when empty).
    pub min: u64,
    /// Exact largest sample (0 when empty).
    pub max: u64,
}

impl Wire for HistPayload {
    fn encode(&self, out: &mut Vec<u8>) {
        self.name.encode(out);
        self.bounds.encode(out);
        self.counts.encode(out);
        self.count.encode(out);
        self.sum.encode(out);
        self.min.encode(out);
        self.max.encode(out);
    }

    fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
        Ok(HistPayload {
            name: String::decode(input)?,
            bounds: Vec::decode(input)?,
            counts: Vec::decode(input)?,
            count: u64::decode(input)?,
            sum: u64::decode(input)?,
            min: u64::decode(input)?,
            max: u64::decode(input)?,
        })
    }
}

/// A live [`Snapshot`] in wire form: uptime, counters, gauges, and full
/// histograms. Transported binary (not JSON) so the scraping side can
/// rebuild a real [`Snapshot`] — rendering JSON or Prometheus text
/// locally and subtracting successive scrapes for delta views.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct StatsPayload {
    /// Microseconds the serving recorder had been alive.
    pub uptime_us: u64,
    /// Monotone counters, name-sorted.
    pub counters: Vec<NamedValue>,
    /// Point-in-time gauges, name-sorted.
    pub gauges: Vec<NamedValue>,
    /// Histograms, name-sorted.
    pub hists: Vec<HistPayload>,
}

impl Wire for StatsPayload {
    fn encode(&self, out: &mut Vec<u8>) {
        self.uptime_us.encode(out);
        self.counters.encode(out);
        self.gauges.encode(out);
        self.hists.encode(out);
    }

    fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
        Ok(StatsPayload {
            uptime_us: u64::decode(input)?,
            counters: Vec::decode(input)?,
            gauges: Vec::decode(input)?,
            hists: Vec::decode(input)?,
        })
    }
}

impl StatsPayload {
    /// Wire form of a snapshot (BTreeMap iteration keeps names sorted).
    pub fn from_snapshot(snap: &Snapshot) -> Self {
        StatsPayload {
            uptime_us: snap.uptime_us,
            counters: snap
                .counters
                .iter()
                .map(|(name, &value)| NamedValue {
                    name: name.clone(),
                    value,
                })
                .collect(),
            gauges: snap
                .gauges
                .iter()
                .map(|(name, &value)| NamedValue {
                    name: name.clone(),
                    value,
                })
                .collect(),
            hists: snap
                .hists
                .iter()
                .map(|(name, h)| HistPayload {
                    name: name.clone(),
                    bounds: h.bounds().to_vec(),
                    counts: h.counts().to_vec(),
                    count: h.count(),
                    sum: h.sum(),
                    min: h.min(),
                    max: h.max(),
                })
                .collect(),
        }
    }

    /// Rebuilds a [`Snapshot`], validating every histogram's internal
    /// consistency ([`Histogram::from_parts`]). Fails as a protocol
    /// violation on corrupt or self-contradictory payloads.
    pub fn into_snapshot(self) -> Result<Snapshot, NetError> {
        let mut snap = Snapshot {
            uptime_us: self.uptime_us,
            ..Snapshot::default()
        };
        for nv in self.counters {
            snap.counters.insert(nv.name, nv.value);
        }
        for nv in self.gauges {
            snap.gauges.insert(nv.name, nv.value);
        }
        for h in self.hists {
            let hist = Histogram::from_parts(h.bounds, h.counts, h.count, h.sum, h.min, h.max)
                .map_err(|e| NetError::Protocol(format!("bad histogram '{}': {e}", h.name)))?;
            snap.hists.insert(h.name, hist);
        }
        Ok(snap)
    }
}

/// What a [`Frame::Stats`] request asks for; bits combine.
pub mod stats_request {
    /// The metrics snapshot (counters, gauges, histograms, uptime).
    pub const SNAPSHOT: u8 = 1;
    /// The flight-recorder ring as JSON lines.
    pub const EVENTS: u8 = 2;
}

/// Reply to a [`Frame::Stats`] request.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct StatsReplyFrame {
    /// The live snapshot; empty (all-default) unless
    /// [`stats_request::SNAPSHOT`] was asked for.
    pub payload: StatsPayload,
    /// Flight-recorder dump, one JSON object per line; empty unless
    /// [`stats_request::EVENTS`] was asked for (or no ring is attached).
    pub events_jsonl: String,
}

impl Wire for StatsReplyFrame {
    fn encode(&self, out: &mut Vec<u8>) {
        self.payload.encode(out);
        self.events_jsonl.encode(out);
    }

    fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
        Ok(StatsReplyFrame {
            payload: StatsPayload::decode(input)?,
            events_jsonl: String::decode(input)?,
        })
    }
}

/// One frame on the wire.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Handshake (tag 0).
    Hello(Hello),
    /// Input share delivery (tag 1).
    Input(InputFrame),
    /// Board write / turn grant / reply (tag 2).
    Broadcast(BroadcastFrame),
    /// Liveness ping with a monotone sequence number (tag 3).
    Heartbeat {
        /// Sender-local monotone counter.
        seq: u64,
    },
    /// Session end (tag 4).
    Outcome(OutcomeFrame),
    /// Fatal structured error (tag 5). The sender closes after this.
    Error {
        /// Machine-readable error class (currently informational).
        code: u8,
        /// Human-readable description.
        message: String,
    },
    /// Read-only stats request from an admin peer (tag 6). `what` is a
    /// bitmask of [`stats_request`] bits.
    Stats {
        /// Which sections the scraper wants.
        what: u8,
    },
    /// Reply to [`Frame::Stats`] (tag 7). Boxed: a full snapshot dwarfs
    /// every other variant and would bloat `size_of::<Frame>()` on the
    /// hot dispatch paths.
    StatsReply(Box<StatsReplyFrame>),
}

const TAG_HELLO: u8 = 0;
const TAG_INPUT: u8 = 1;
const TAG_BROADCAST: u8 = 2;
const TAG_HEARTBEAT: u8 = 3;
const TAG_OUTCOME: u8 = 4;
const TAG_ERROR: u8 = 5;
const TAG_STATS: u8 = 6;
const TAG_STATS_REPLY: u8 = 7;

impl Frame {
    /// The frame's tag byte.
    pub fn tag(&self) -> u8 {
        match self {
            Frame::Hello(_) => TAG_HELLO,
            Frame::Input(_) => TAG_INPUT,
            Frame::Broadcast(_) => TAG_BROADCAST,
            Frame::Heartbeat { .. } => TAG_HEARTBEAT,
            Frame::Outcome(_) => TAG_OUTCOME,
            Frame::Error { .. } => TAG_ERROR,
            Frame::Stats { .. } => TAG_STATS,
            Frame::StatsReply(_) => TAG_STATS_REPLY,
        }
    }

    /// A short name for diagnostics.
    pub fn name(&self) -> &'static str {
        match self {
            Frame::Hello(_) => "hello",
            Frame::Input(_) => "input",
            Frame::Broadcast(_) => "broadcast",
            Frame::Heartbeat { .. } => "heartbeat",
            Frame::Outcome(_) => "outcome",
            Frame::Error { .. } => "error",
            Frame::Stats { .. } => "stats",
            Frame::StatsReply(_) => "stats_reply",
        }
    }

    /// Serializes the tag + Wire payload (no envelope).
    fn encode_body(&self, body: &mut Vec<u8>) {
        body.push(self.tag());
        match self {
            Frame::Hello(h) => h.encode(body),
            Frame::Input(i) => i.encode(body),
            Frame::Broadcast(b) => b.encode(body),
            Frame::Heartbeat { seq } => seq.encode(body),
            Frame::Outcome(o) => o.encode(body),
            Frame::Error { code, message } => {
                code.encode(body);
                message.encode(body);
            }
            Frame::Stats { what } => what.encode(body),
            Frame::StatsReply(reply) => reply.encode(body),
        }
    }

    /// Appends the frame, write-ready, to `out` in one pass: a length
    /// placeholder, `session`, the tag and payload, then the length
    /// patched in.
    pub fn encode_mux_into(&self, session: u64, out: &mut Vec<u8>) {
        let start = out.len();
        out.extend_from_slice(&[0; 4]);
        out.extend_from_slice(&session.to_le_bytes());
        self.encode_body(out);
        let len = u32::try_from(out.len() - start - 4).expect("frame fits u32");
        out[start..start + 4].copy_from_slice(&len.to_le_bytes());
    }

    /// [`Frame::encode_mux_into`] a fresh buffer.
    pub fn to_bytes_mux(&self, session: u64) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_mux_into(session, &mut out);
        out
    }

    /// Decodes a frame body (tag byte + payload, no length prefix).
    pub fn from_body(body: &[u8]) -> Result<Frame, NetError> {
        let (&tag, payload) = body.split_first().ok_or(NetError::BadFrame("empty body"))?;
        let frame = match tag {
            TAG_HELLO => Frame::Hello(Hello::from_wire_bytes(payload)?),
            TAG_INPUT => Frame::Input(InputFrame::from_wire_bytes(payload)?),
            TAG_BROADCAST => Frame::Broadcast(BroadcastFrame::from_wire_bytes(payload)?),
            TAG_HEARTBEAT => Frame::Heartbeat {
                seq: u64::from_wire_bytes(payload)?,
            },
            TAG_OUTCOME => Frame::Outcome(OutcomeFrame::from_wire_bytes(payload)?),
            TAG_ERROR => {
                let mut input = payload;
                let code = u8::decode(&mut input)?;
                let message = String::decode(&mut input)?;
                if !input.is_empty() {
                    return Err(NetError::Decode(WireError::TrailingBytes));
                }
                Frame::Error { code, message }
            }
            TAG_STATS => Frame::Stats {
                what: u8::from_wire_bytes(payload)?,
            },
            TAG_STATS_REPLY => {
                Frame::StatsReply(Box::new(StatsReplyFrame::from_wire_bytes(payload)?))
            }
            _ => return Err(NetError::BadFrame("unknown tag")),
        };
        Ok(frame)
    }
}

/// Most bytes one read may take: a read goes straight into the free
/// tail of the reader's buffer, up to this much at a time.
pub const READ_CHUNK: usize = 64 << 10;

/// Incremental frame decoder over any [`Read`].
///
/// `poll_mux` returns `Ok(Some((session, frame)))` when a complete frame
/// is buffered,
/// `Ok(None)` on an idle tick (the read timed out / would block with no
/// complete frame available), and errors on EOF, I/O failure, or a
/// malformed frame. Partial frames persist in the buffer across polls.
///
/// The unread bytes are `buf[start..end]`: a frame is consumed by moving
/// `start`, reads land straight in the free tail past `end`, at most
/// [`READ_CHUNK`] bytes at a time, and the unread bytes move to the front
/// only before a read. So the buffer never holds more than one partial
/// frame (at most `4 + max_len` bytes) plus one read.
///
/// [`FrameReader::new_mux`] accepts frames up to [`MAX_FRAME_LEN`];
/// [`FrameReader::with_limits`] sets another cap.
#[derive(Debug)]
pub struct FrameReader {
    buf: Vec<u8>,
    start: usize,
    end: usize,
    /// Frames whose length field exceeds this are rejected before any
    /// payload is buffered.
    max_len: usize,
    /// Total raw bytes consumed from the stream (length prefixes,
    /// session ids, tags, payloads — everything).
    pub bytes_read: u64,
    /// Total complete frames produced.
    pub frames_read: u64,
    /// Total Wire-payload bytes decoded: [`Self::bytes_read`] minus the
    /// [`HEADER_BYTES`] of framing each frame pays.
    pub payload_bytes_read: u64,
    /// Read calls that returned bytes. How many frames each one carried
    /// depends on timing, so this count is diagnostic only.
    pub read_calls: u64,
}

impl FrameReader {
    /// A reader with an empty buffer and the default length cap.
    pub fn new_mux() -> Self {
        FrameReader::with_limits(MAX_FRAME_LEN)
    }

    /// A reader rejecting frames longer than `max_len`.
    pub fn with_limits(max_len: usize) -> Self {
        FrameReader {
            buf: Vec::new(),
            start: 0,
            end: 0,
            max_len,
            bytes_read: 0,
            frames_read: 0,
            payload_bytes_read: 0,
            read_calls: 0,
        }
    }

    /// Bytes of buffer the reader holds, never more than
    /// `4 + max_len + READ_CHUNK`.
    pub fn buffer_len(&self) -> usize {
        self.buf.len()
    }

    /// The next complete frame already buffered, without reading:
    /// `Ok(None)` when what is buffered is not a whole frame yet.
    pub fn take_buffered(&mut self) -> Result<Option<(u64, Frame)>, NetError> {
        let pending = &self.buf[self.start..self.end];
        if pending.len() < 4 {
            return Ok(None);
        }
        let len = u32::from_le_bytes(pending[..4].try_into().expect("4 bytes")) as usize;
        if len == 0 {
            return Err(NetError::BadFrame("zero-length frame"));
        }
        if len > self.max_len {
            return Err(NetError::BadFrame("oversized frame"));
        }
        if pending.len() < 4 + len {
            return Ok(None);
        }
        if len < 9 {
            return Err(NetError::BadFrame("truncated session header"));
        }
        let session = u64::from_le_bytes(pending[4..12].try_into().expect("8 bytes"));
        let body = &pending[12..4 + len];
        let frame = Frame::from_body(body)?;
        // The body still holds the tag byte; payload is everything after.
        self.payload_bytes_read += (body.len() - 1) as u64;
        self.start += 4 + len;
        if self.start == self.end {
            (self.start, self.end) = (0, 0);
        }
        self.frames_read += 1;
        Ok(Some((session, frame)))
    }

    fn fill_from(&mut self, stream: &mut impl Read) -> Result<Option<()>, NetError> {
        if self.start > 0 {
            self.buf.copy_within(self.start..self.end, 0);
            (self.start, self.end) = (0, self.end - self.start);
        }
        if self.buf.len() < self.end + READ_CHUNK {
            self.buf.resize(self.end + READ_CHUNK, 0);
        }
        loop {
            match stream.read(&mut self.buf[self.end..self.end + READ_CHUNK]) {
                Ok(0) => return Err(NetError::Disconnected),
                Ok(n) => {
                    self.end += n;
                    self.bytes_read += n as u64;
                    self.read_calls += 1;
                    return Ok(Some(()));
                }
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) =>
                {
                    return Ok(None)
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(NetError::Io(e)),
            }
        }
    }

    /// Makes progress on `stream`: drains buffered frames first, then
    /// reads, and surfaces `(session_id, frame)` pairs. See the type docs
    /// for the return contract.
    pub fn poll_mux(&mut self, stream: &mut impl Read) -> Result<Option<(u64, Frame)>, NetError> {
        loop {
            if let Some(hit) = self.take_buffered()? {
                return Ok(Some(hit));
            }
            if self.fill_from(stream)?.is_none() {
                return Ok(None);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serves its bytes one per `read` call, then "would block".
    struct Dribble<'a>(&'a [u8]);

    impl Read for Dribble<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let Some((&byte, rest)) = self.0.split_first() else {
                return Err(io::ErrorKind::WouldBlock.into());
            };
            buf[0] = byte;
            self.0 = rest;
            Ok(1)
        }
    }

    fn sample_frames() -> Vec<Frame> {
        vec![
            Frame::Hello(Hello {
                version: PROTOCOL_VERSION_MUX,
                protocol_id: "disj".into(),
                player: 2,
                players: 4,
                seed: 0xFEED,
                params: vec![256],
            }),
            Frame::Input(InputFrame {
                session: 1,
                player: 2,
                payload: vec![1, 2, 3],
            }),
            Frame::Broadcast(BroadcastFrame {
                turn: 7,
                speaker: 1,
                bits: BitVec::from_bools(&[true, false, true]),
                next: 2,
                rng: vec![0; 41],
            }),
            Frame::Heartbeat { seq: 99 },
            Frame::Outcome(OutcomeFrame {
                kind: outcome_kind::ABORTED,
                reason: "player 1 crashed".into(),
                output: vec![],
                remaining: 0,
            }),
            Frame::Error {
                code: 1,
                message: "bad hello".into(),
            },
            Frame::Stats {
                what: stats_request::SNAPSHOT | stats_request::EVENTS,
            },
            Frame::StatsReply(Box::new(StatsReplyFrame {
                payload: StatsPayload {
                    uptime_us: 123_456,
                    counters: vec![NamedValue {
                        name: "mux.sessions_started".into(),
                        value: 10,
                    }],
                    gauges: vec![NamedValue {
                        name: "mux.inflight".into(),
                        value: 4,
                    }],
                    hists: vec![HistPayload {
                        name: "mux.turn_latency_us".into(),
                        bounds: vec![10, 20],
                        counts: vec![1, 2, 0],
                        count: 3,
                        sum: 45,
                        min: 5,
                        max: 19,
                    }],
                },
                events_jsonl: "{\"ts_us\":1,\"ev\":\"point\",\"span\":\"session\",\"id\":0}\n"
                    .into(),
            })),
        ]
    }

    #[test]
    fn frames_round_trip_through_bytes() {
        for frame in sample_frames() {
            let bytes = frame.to_bytes_mux(9);
            let len = u32::from_le_bytes(bytes[..4].try_into().unwrap()) as usize;
            assert_eq!(len, bytes.len() - 4);
            assert_eq!(u64::from_le_bytes(bytes[4..12].try_into().unwrap()), 9);
            assert_eq!(Frame::from_body(&bytes[12..]).unwrap(), frame);
        }
    }

    #[test]
    fn reader_reassembles_frames_from_dribbled_bytes() {
        // Concatenate all sample frames, then feed the stream one byte at
        // a time: every frame must come out intact and in order.
        let frames = sample_frames();
        let stream: Vec<u8> = frames.iter().flat_map(|f| f.to_bytes_mux(3)).collect();
        let mut reader = FrameReader::new_mux();
        let mut out = Vec::new();
        let mut dribble = Dribble(&stream);
        while let Some((session, frame)) = reader.poll_mux(&mut dribble).unwrap() {
            assert_eq!(session, 3);
            out.push(frame);
        }
        assert_eq!(out, frames);
        assert_eq!(reader.bytes_read, stream.len() as u64);
        assert_eq!(reader.read_calls, stream.len() as u64, "one byte per read");
        assert_eq!(
            reader.payload_bytes_read + reader.frames_read * HEADER_BYTES,
            reader.bytes_read,
            "payload + framing must account for every byte"
        );
    }

    #[test]
    fn mux_reader_round_trips_session_ids() {
        let frames = sample_frames();
        let sessions: Vec<u64> = vec![0, 7, u64::MAX, 42, 9_999_999_999, 3, CONTROL_SESSION, 1];
        assert_eq!(
            sessions.len(),
            frames.len(),
            "every sample frame rides once"
        );
        let stream: Vec<u8> = frames
            .iter()
            .zip(&sessions)
            .flat_map(|(f, &s)| f.to_bytes_mux(s))
            .collect();
        let mut reader = FrameReader::new_mux();
        let mut cursor = &stream[..];
        let mut out = Vec::new();
        while let Ok(Some(hit)) = reader.poll_mux(&mut cursor) {
            out.push(hit);
        }
        let expected: Vec<(u64, Frame)> = sessions.into_iter().zip(frames).collect();
        assert_eq!(out, expected);
        let header_bytes = reader.frames_read * HEADER_BYTES;
        assert_eq!(reader.payload_bytes_read + header_bytes, reader.bytes_read);
    }

    #[test]
    fn mux_reader_rejects_truncated_session_headers() {
        // A v2 frame must be at least session id + tag = 9 bytes long.
        let mut reader = FrameReader::new_mux();
        let mut bytes = 5u32.to_le_bytes().to_vec();
        bytes.extend_from_slice(&[0; 5]);
        assert!(matches!(
            reader.poll_mux(&mut Dribble(&bytes)),
            Err(NetError::BadFrame("truncated session header"))
        ));
    }

    #[test]
    fn configured_length_cap_is_enforced() {
        let mut reader = FrameReader::with_limits(128);
        let frame = Frame::Error {
            code: 0,
            message: "x".repeat(200),
        };
        let bytes = frame.to_bytes_mux(0);
        let mut cursor = &bytes[..];
        assert!(matches!(
            reader.poll_mux(&mut cursor),
            Err(NetError::BadFrame("oversized frame"))
        ));
    }

    #[test]
    fn oversized_and_zero_length_frames_are_rejected() {
        let mut reader = FrameReader::new_mux();
        assert!(matches!(
            reader.poll_mux(&mut Dribble(&0u32.to_le_bytes())),
            Err(NetError::BadFrame("zero-length frame"))
        ));

        let mut reader = FrameReader::new_mux();
        let announced = (MAX_FRAME_LEN as u32 + 1).to_le_bytes();
        // The length field alone convicts the frame — no payload needed.
        assert!(matches!(
            reader.poll_mux(&mut Dribble(&announced)),
            Err(NetError::BadFrame("oversized frame"))
        ));
    }

    #[test]
    fn unknown_tags_are_rejected() {
        assert!(matches!(
            Frame::from_body(&[0xEE, 0, 0]),
            Err(NetError::BadFrame("unknown tag"))
        ));
        assert!(matches!(
            Frame::from_body(&[]),
            Err(NetError::BadFrame("empty body"))
        ));
    }

    #[test]
    fn stats_payload_round_trips_through_a_snapshot() {
        use bci_telemetry::Recorder;
        let rec = Recorder::metrics_only();
        rec.counter_add("net.frames_tx", 9);
        rec.gauge_set("net.roster", 3);
        rec.hist_record("net.lat_us", 42, &[10, 100]);
        rec.hist_record("net.lat_us", 7, &[10, 100]);
        let snap = rec.snapshot();
        let payload = StatsPayload::from_snapshot(&snap);
        let bytes = payload.to_wire_bytes();
        let rebuilt = StatsPayload::from_wire_bytes(&bytes)
            .expect("decode")
            .into_snapshot()
            .expect("validate");
        assert_eq!(rebuilt, snap, "snapshot survives the wire round-trip");
        assert_eq!(
            rebuilt.hist("net.lat_us").expect("hist").percentile(100.0),
            42
        );
    }

    #[test]
    fn corrupt_stats_payloads_are_rejected_loudly() {
        let payload = StatsPayload {
            uptime_us: 0,
            counters: vec![],
            gauges: vec![],
            hists: vec![HistPayload {
                name: "bad".into(),
                bounds: vec![10, 20],
                counts: vec![1, 0, 0],
                count: 7, // contradicts the bucket counts
                sum: 5,
                min: 5,
                max: 5,
            }],
        };
        match payload.into_snapshot() {
            Err(NetError::Protocol(msg)) => {
                assert!(msg.contains("bad"), "names the culprit: {msg}")
            }
            other => panic!("corrupt histogram must be rejected, got {other:?}"),
        }
    }

    #[test]
    fn admin_player_is_disjoint_from_real_and_sentinel_ids() {
        assert_ne!(ADMIN_PLAYER, NO_PLAYER);
        assert!(
            ADMIN_PLAYER > u16::MAX as u32,
            "no realistic roster reaches it"
        );
    }

    #[test]
    fn eof_is_disconnected() {
        let mut reader = FrameReader::new_mux();
        let mut empty: &[u8] = &[];
        assert!(matches!(
            reader.poll_mux(&mut empty),
            Err(NetError::Disconnected)
        ));
    }
}
