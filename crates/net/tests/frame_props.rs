//! Property tests (proptest) for the incremental [`FrameReader`]: any
//! frame stream must decode identically no matter how the bytes are cut
//! into reads — byte-at-a-time, randomized split boundaries, headers
//! torn across reads, reads far past one [`READ_CHUNK`] — while the
//! buffer stays within one frame plus one read, and malicious length
//! prefixes must be rejected before any payload allocation.

use std::io::{self, Read};

use bci_encoding::bitio::BitVec;
use bci_net::frame::{
    BroadcastFrame, Frame, FrameReader, Hello, InputFrame, NetError, OutcomeFrame, HEADER_BYTES,
    MAX_FRAME_LEN, MIN_FRAME_LEN_CAP, PROTOCOL_VERSION_MUX, READ_CHUNK,
};
use proptest::prelude::*;

/// Serves a fixed byte string in caller-chosen chunk sizes, answering
/// `WouldBlock` once the bytes run out — the shape of a non-blocking
/// socket mid-conversation (`Ok(0)` would mean hangup).
struct ChunkedReader {
    data: Vec<u8>,
    pos: usize,
    chunks: Vec<usize>,
    next_chunk: usize,
}

impl ChunkedReader {
    fn new(data: Vec<u8>, chunks: Vec<usize>) -> Self {
        ChunkedReader {
            data,
            pos: 0,
            chunks,
            next_chunk: 0,
        }
    }
}

impl Read for ChunkedReader {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if self.pos >= self.data.len() {
            return Err(io::Error::new(io::ErrorKind::WouldBlock, "drained"));
        }
        let chunk = self
            .chunks
            .get(self.next_chunk)
            .copied()
            .unwrap_or(usize::MAX)
            .clamp(1, buf.len())
            .min(self.data.len() - self.pos);
        self.next_chunk += 1;
        buf[..chunk].copy_from_slice(&self.data[self.pos..self.pos + chunk]);
        self.pos += chunk;
        Ok(chunk)
    }
}

fn bitvec_from(bits: &[bool]) -> BitVec {
    let mut v = BitVec::new();
    for &b in bits {
        v.push(b);
    }
    v
}

/// A strategy over every frame variant (selector + shared field pool —
/// the vendored proptest has no `prop_oneof!`), exercising
/// variable-length payloads (strings, byte vectors, bit vectors).
fn any_frame() -> impl Strategy<Value = Frame> {
    (
        0u8..6,
        any::<u64>(),
        (any::<u32>(), any::<u32>(), any::<u32>()),
        prop::collection::vec(any::<u8>(), 0..48),
        prop::collection::vec(any::<bool>(), 0..48),
        prop::collection::vec(0u8..26, 0..16),
    )
        .prop_map(|(variant, a, (b, c, d), bytes, bits, letters)| {
            let text: String = letters.iter().map(|&l| (b'a' + l) as char).collect();
            match variant {
                0 => Frame::Hello(Hello {
                    version: PROTOCOL_VERSION_MUX,
                    protocol_id: text,
                    player: b,
                    players: c,
                    seed: a,
                    params: vec![a, u64::from(d)],
                }),
                1 => Frame::Input(InputFrame {
                    session: b,
                    player: c,
                    payload: bytes,
                }),
                2 => Frame::Broadcast(BroadcastFrame {
                    turn: b,
                    speaker: c,
                    bits: bitvec_from(&bits),
                    next: d,
                    rng: bytes,
                }),
                3 => Frame::Heartbeat { seq: a },
                4 => Frame::Outcome(OutcomeFrame {
                    kind: (b % 3) as u8,
                    reason: text,
                    output: bytes,
                    remaining: d,
                }),
                _ => Frame::Error {
                    code: b as u8,
                    message: text,
                },
            }
        })
}

fn frames_and_chunks() -> impl Strategy<Value = (Vec<(u64, Frame)>, Vec<usize>)> {
    (
        prop::collection::vec((any::<u64>(), any_frame()), 1..12),
        prop::collection::vec(1usize..64, 0..128),
    )
}

/// Drains everything the reader can produce from `data` served in
/// `chunks`-sized reads.
fn drain_v2(data: Vec<u8>, chunks: Vec<usize>) -> (FrameReader, Vec<(u64, Frame)>) {
    let mut stream = ChunkedReader::new(data, chunks);
    let mut reader = FrameReader::new_mux();
    let mut out = Vec::new();
    while let Some(hit) = reader.poll_mux(&mut stream).expect("valid stream") {
        out.push(hit);
    }
    (reader, out)
}

proptest! {
    /// v2 streams survive any read fragmentation: session ids and frames
    /// round-trip in order, and the accounting identity
    /// `bytes = payload + 13 × frames` holds exactly.
    #[test]
    fn v2_decodes_identically_at_any_split((frames, chunks) in frames_and_chunks()) {
        let mut data = Vec::new();
        for (session, frame) in &frames {
            data.extend_from_slice(&frame.to_bytes_mux(*session));
        }
        let total = data.len() as u64;
        let (reader, decoded) = drain_v2(data, chunks);
        prop_assert_eq!(&decoded, &frames);
        prop_assert_eq!(reader.bytes_read, total);
        prop_assert_eq!(reader.frames_read, frames.len() as u64);
        prop_assert_eq!(
            reader.bytes_read,
            reader.payload_bytes_read + HEADER_BYTES * reader.frames_read
        );
    }

    /// Byte-at-a-time delivery — every header (length prefix, session
    /// id, tag) torn across maximally many reads.
    #[test]
    fn v2_survives_byte_at_a_time(frames in prop::collection::vec((any::<u64>(), any_frame()), 1..6)) {
        let mut data = Vec::new();
        for (session, frame) in &frames {
            data.extend_from_slice(&frame.to_bytes_mux(*session));
        }
        let n = data.len();
        let (_, decoded) = drain_v2(data, vec![1; n]);
        prop_assert_eq!(decoded, frames);
    }

    /// A maliciously huge length prefix is rejected as soon as the
    /// 4-byte header is readable — before the rest of the "frame"
    /// arrives, no matter how the bytes dribble in — and never
    /// allocates the announced length.
    #[test]
    fn huge_length_prefix_is_rejected_without_allocation(
        announced in (MAX_FRAME_LEN as u32 + 1)..u32::MAX,
        junk in prop::collection::vec(any::<u8>(), 0..32),
        chunks in prop::collection::vec(1usize..8, 0..16),
    ) {
        let mut data = announced.to_le_bytes().to_vec();
        data.extend_from_slice(&junk);
        let mut stream = ChunkedReader::new(data, chunks);
        let mut reader = FrameReader::new_mux();
        // The 4-byte prefix is always present, so however the reads are
        // cut, the reader must reach it and reject — never decode, never
        // wait for the announced gigabytes.
        match reader.poll_mux(&mut stream) {
            Err(NetError::BadFrame(msg)) => prop_assert_eq!(msg, "oversized frame"),
            other => prop_assert!(false, "expected rejection, got {other:?}"),
        }
    }

    /// A configured (smaller) cap is enforced the same way: a frame
    /// legal under the default cap is thrown out by a stricter reader.
    #[test]
    fn configured_cap_rejects_midsize_frames(
        payload_len in (MIN_FRAME_LEN_CAP + 1)..4096usize,
        session in any::<u64>(),
    ) {
        let frame = Frame::Input(InputFrame {
            session: 1,
            player: 0,
            payload: vec![0xAB; payload_len],
        });
        let data = frame.to_bytes_mux(session);
        let mut stream = ChunkedReader::new(data, Vec::new());
        let mut reader = FrameReader::with_limits(MIN_FRAME_LEN_CAP);
        match reader.poll_mux(&mut stream) {
            Err(NetError::BadFrame(msg)) => prop_assert_eq!(msg, "oversized frame"),
            other => prop_assert!(false, "expected rejection, got {other:?}"),
        }
    }

    /// Zero-length frames (a length prefix of 0) are malformed.
    #[test]
    fn zero_length_frames_are_rejected(tail in prop::collection::vec(any::<u8>(), 0..8)) {
        let mut data = 0u32.to_le_bytes().to_vec();
        data.extend_from_slice(&tail);
        let mut stream = ChunkedReader::new(data, Vec::new());
        let mut reader = FrameReader::new_mux();
        match reader.poll_mux(&mut stream) {
            Err(NetError::BadFrame(msg)) => prop_assert_eq!(msg, "zero-length frame"),
            other => prop_assert!(false, "expected rejection, got {other:?}"),
        }
    }
}

/// An `Input` frame `len` bytes long (its length field reads
/// `len - 4`), for `len >= 25`.
fn input_frame_of_len(len: usize, fill: u8) -> Frame {
    Frame::Input(InputFrame {
        session: 7,
        player: 1,
        payload: vec![fill; len - 25],
    })
}

/// Serves `data` in `chunks`-sized reads like [`ChunkedReader`], and
/// remembers the largest buffer a read was offered.
struct Watched {
    inner: ChunkedReader,
    largest_offer: usize,
}

impl Read for Watched {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.largest_offer = self.largest_offer.max(buf.len());
        self.inner.read(buf)
    }
}

/// Drains `data` through a reader capped at `max_len`, checking after
/// every poll that the buffer stays within one partial frame plus one
/// read.
fn drain_bounded(data: Vec<u8>, chunks: Vec<usize>, max_len: usize) -> Vec<(u64, Frame)> {
    let mut stream = Watched {
        inner: ChunkedReader::new(data, chunks),
        largest_offer: 0,
    };
    let mut reader = FrameReader::with_limits(max_len);
    let mut out = Vec::new();
    while let Some(hit) = reader.poll_mux(&mut stream).expect("valid stream") {
        assert!(reader.buffer_len() <= 4 + max_len + READ_CHUNK);
        out.push(hit);
    }
    assert!(reader.buffer_len() <= 4 + max_len + READ_CHUNK);
    assert!(
        stream.largest_offer <= READ_CHUNK,
        "a read asked for more than one chunk"
    );
    out
}

/// Frames of up to ~150 KiB, mixed with ordinary ones.
fn bulky_frames() -> impl Strategy<Value = Vec<(u64, Frame)>> {
    prop::collection::vec(
        (
            any::<u64>(),
            any_frame(),
            any::<bool>(),
            25usize..150_000,
            any::<u8>(),
        ),
        1..6,
    )
    .prop_map(|items| {
        items
            .into_iter()
            .map(|(session, frame, bulky, len, fill)| match bulky {
                true => (session, input_frame_of_len(len, fill)),
                false => (session, frame),
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Reads of any size, some far past one chunk, decode the same
    /// frames, and the buffer stays within one frame plus one read.
    #[test]
    fn v2_decodes_identically_at_any_chunk_size(
        frames in bulky_frames(),
        chunks in prop::collection::vec(
            (any::<bool>(), 1usize..64, 1usize..200_000)
                .prop_map(|(small, a, b)| if small { a } else { b }),
            0..24,
        ),
    ) {
        let mut data = Vec::new();
        for (session, frame) in &frames {
            frame.encode_mux_into(*session, &mut data);
        }
        let decoded = drain_bounded(data, chunks, 1 << 18);
        prop_assert_eq!(decoded, frames);
    }

    /// Encoding after bytes already queued appends exactly the frame's
    /// own bytes, with its length field counting what follows it.
    #[test]
    fn encode_mux_into_appends_to_bytes_mux(
        prefix in prop::collection::vec(any::<u8>(), 0..64),
        session in any::<u64>(),
        frame in any_frame(),
    ) {
        let mut out = prefix.clone();
        frame.encode_mux_into(session, &mut out);
        let start = prefix.len();
        prop_assert_eq!(&out[..start], &prefix[..]);
        prop_assert_eq!(&out[start..], &frame.to_bytes_mux(session)[..]);
        let len = u32::from_le_bytes(out[start..start + 4].try_into().unwrap()) as usize;
        prop_assert_eq!(len, out.len() - start - 4);
        prop_assert_eq!(u64::from_le_bytes(out[start + 4..start + 12].try_into().unwrap()), session);
        prop_assert_eq!(Frame::from_body(&out[start + 12..]).unwrap(), frame);
    }
}

/// A frame whose header or body straddles the end of a full first read
/// is finished by the next one.
#[test]
fn frames_straddling_a_full_read_are_reassembled() {
    for head in [1, 3, 4, 5, 12, 13, 30, 200] {
        // The filler ends `head` bytes before the first read does; the
        // next frame starts there and runs on into the second read.
        let filler = input_frame_of_len(READ_CHUNK - head, 0xAA);
        for tail in [
            input_frame_of_len(25, 1),
            input_frame_of_len(READ_CHUNK + 99, 2),
        ] {
            let frames = vec![
                (1, filler.clone()),
                (2, tail),
                (3, Frame::Heartbeat { seq: 9 }),
            ];
            let mut data = Vec::new();
            for (session, frame) in &frames {
                frame.encode_mux_into(*session, &mut data);
            }
            let decoded = drain_bounded(data, Vec::new(), MAX_FRAME_LEN);
            assert_eq!(decoded, frames, "header {head} bytes before the refill");
        }
    }
}

/// A frame exactly `max_len` long is accepted, one byte longer rejected,
/// for a cap below one read and one spanning several.
#[test]
fn frames_of_exactly_max_len_are_accepted() {
    for max_len in [MIN_FRAME_LEN_CAP, 3 * READ_CHUNK + 7] {
        let exact = input_frame_of_len(4 + max_len, 5);
        let data = exact.to_bytes_mux(11);
        assert_eq!(data.len(), 4 + max_len);
        for chunks in [Vec::new(), vec![1; 64], vec![4, 8, 1 << 20]] {
            let decoded = drain_bounded(data.clone(), chunks, max_len);
            assert_eq!(decoded, vec![(11, exact.clone())], "cap {max_len}");
        }
        let over = input_frame_of_len(5 + max_len, 5).to_bytes_mux(11);
        let mut reader = FrameReader::with_limits(max_len);
        assert!(matches!(
            reader.poll_mux(&mut ChunkedReader::new(over, Vec::new())),
            Err(NetError::BadFrame("oversized frame"))
        ));
    }
}
