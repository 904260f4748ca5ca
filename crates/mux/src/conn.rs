//! A pooled, write-buffered connection speaking the session-id frame
//! envelope, and the socket-free write queue it drains.
//!
//! An [`Outbox`] holds queued frames and the exact write-side wire
//! accounting. [`MuxConn::flush_from`] writes one out on a blocking
//! socket, bounded as a whole by `NetConfig::io_timeout`, so a peer that
//! stops draining, or drains a trickle, surfaces as a stall, never as an
//! unbounded queue or an endless flush. Reads go through a
//! [`FrameReader`]; the daemon hands each connection's read side to a
//! reader thread ([`MuxConn::split_reader`]) and takes the reader, with
//! its wire accounting, back at the end ([`MuxConn::rejoin_reader`]).

use std::io::{self, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use bci_net::frame::{Frame, FrameReader, NetError, HEADER_BYTES};
use bci_net::{NetConfig, WireStats};

/// Shortest socket timeout set: the OS rejects a zero timeout.
const MIN_TIMEOUT: Duration = Duration::from_millis(1);

/// A `TimedOut` I/O error.
fn timed_out(what: &'static str) -> NetError {
    NetError::Io(io::Error::new(io::ErrorKind::TimedOut, what))
}

/// Frames queued for one peer but not yet written, with the write-side
/// wire accounting. Socket-free: whoever owns the socket drains it with
/// [`Outbox::pending`] and [`Outbox::consume`].
#[derive(Debug, Clone, Default)]
pub struct Outbox {
    /// Queued wire bytes; the first `cursor` of them are already written.
    /// Compacted on every full drain.
    buf: Vec<u8>,
    cursor: usize,
    /// Total raw bytes written out (framing included).
    pub bytes_written: u64,
    /// Total frames queued for write.
    pub frames_written: u64,
    /// Total Wire-payload bytes queued: framing excluded.
    pub payload_bytes_written: u64,
}

impl Outbox {
    /// Queues one frame for `session`.
    pub fn queue(&mut self, session: u64, frame: &Frame) {
        self.queue_encoded(&frame.to_bytes_mux(session));
    }

    /// Queues one frame already encoded by [`Frame::to_bytes_mux`], so a
    /// frame fanned out to every peer is encoded once. Accounts exactly
    /// as [`Outbox::queue`] does.
    pub fn queue_encoded(&mut self, bytes: &[u8]) {
        self.payload_bytes_written += bytes.len() as u64 - HEADER_BYTES;
        self.frames_written += 1;
        self.buf.extend_from_slice(bytes);
    }

    /// The queued bytes not yet written.
    pub fn pending(&self) -> &[u8] {
        &self.buf[self.cursor..]
    }

    /// Marks the first `n` pending bytes written.
    pub fn consume(&mut self, n: usize) {
        self.cursor += n;
        self.bytes_written += n as u64;
        if self.cursor == self.buf.len() {
            self.buf.clear();
            self.cursor = 0;
        }
    }

    /// Adds this queue's write side and `reader`'s read side of one
    /// connection to `wire`.
    pub fn tally(&self, reader: &FrameReader, wire: &mut WireStats) {
        wire.bytes_tx += self.bytes_written;
        wire.bytes_rx += reader.bytes_read;
        wire.frames_tx += self.frames_written;
        wire.frames_rx += reader.frames_read;
        wire.payload_bytes_tx += self.payload_bytes_written;
        wire.payload_bytes_rx += reader.payload_bytes_read;
    }
}

/// One session-multiplexed peer connection.
#[derive(Debug)]
pub struct MuxConn {
    stream: TcpStream,
    reader: FrameReader,
    /// Budget for one whole flush.
    io_timeout: Duration,
    /// The socket's write timeout as last set: `io_timeout`, or what was
    /// left of a flush's budget after a partial write.
    write_timeout: Duration,
    /// This connection's own write queue, drained by [`MuxConn::flush`].
    pub out: Outbox,
}

impl MuxConn {
    /// Wraps a connected stream: disables Nagle, makes it blocking with
    /// each flush bounded by `config.io_timeout`, and installs a frame
    /// reader capped at `config.max_frame_len`.
    pub fn new(stream: TcpStream, config: &NetConfig) -> io::Result<Self> {
        let io_timeout = config.io_timeout.max(MIN_TIMEOUT);
        stream.set_nodelay(true)?;
        stream.set_nonblocking(false)?;
        stream.set_write_timeout(Some(io_timeout))?;
        Ok(MuxConn {
            stream,
            reader: FrameReader::with_limits(config.max_frame_len),
            io_timeout,
            write_timeout: io_timeout,
            out: Outbox::default(),
        })
    }

    /// The frame reader, with the read-side wire accounting.
    pub fn reader(&self) -> &FrameReader {
        &self.reader
    }

    /// [`MuxConn::flush_from`] this connection's own queue.
    pub fn flush(&mut self) -> Result<bool, NetError> {
        let mut out = std::mem::take(&mut self.out);
        let drained = self.flush_from(&mut out);
        self.out = out;
        drained
    }

    /// Writes `out`'s queued bytes. Returns `Ok(true)` when the queue is
    /// fully drained, `Ok(false)` when `io_timeout` passes before it is
    /// (or, on a nonblocking socket, when a write would block); the
    /// unwritten bytes stay queued. The budget covers the whole flush, so
    /// a peer that reads a few bytes at a time cannot stretch it.
    pub fn flush_from(&mut self, out: &mut Outbox) -> Result<bool, NetError> {
        let deadline = Instant::now() + self.io_timeout;
        self.set_write_timeout(self.io_timeout)?;
        while !out.pending().is_empty() {
            match self.stream.write(out.pending()) {
                Ok(0) => return Err(NetError::Disconnected),
                Ok(n) => {
                    out.consume(n);
                    if !out.pending().is_empty() {
                        // A partial write: the next one gets what is left.
                        let left = deadline.saturating_duration_since(Instant::now());
                        if left.is_zero() {
                            return Ok(false);
                        }
                        self.set_write_timeout(left)?;
                    }
                }
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) =>
                {
                    return Ok(false)
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(NetError::Io(e)),
            }
        }
        Ok(true)
    }

    /// Sets the socket's write timeout, skipping the call when unchanged.
    fn set_write_timeout(&mut self, timeout: Duration) -> io::Result<()> {
        let timeout = timeout.max(MIN_TIMEOUT);
        if timeout != self.write_timeout {
            self.stream.set_write_timeout(Some(timeout))?;
            self.write_timeout = timeout;
        }
        Ok(())
    }

    /// Queues `frame` and writes everything queued, failing with
    /// `TimedOut` when the flush runs past `io_timeout`.
    pub fn send_now(&mut self, session: u64, frame: &Frame) -> Result<(), NetError> {
        self.out.queue(session, frame);
        let drained = self.flush()?;
        drained
            .then_some(())
            .ok_or_else(|| timed_out("write stalled past io_timeout"))
    }

    /// Reads the next frame: `Ok(Some((session, frame)))` when one
    /// arrives, `Ok(None)` when the read timeout (or, on a nonblocking
    /// socket, an empty socket) ends the wait first.
    pub fn recv(&mut self) -> Result<Option<(u64, Frame)>, NetError> {
        self.reader.poll_mux(&mut self.stream)
    }

    /// Blocks until a frame arrives or `deadline` passes. Leaves a read
    /// timeout set; [`MuxConn::set_read_timeout`] replaces it.
    pub fn recv_deadline(&mut self, deadline: Instant) -> Result<(u64, Frame), NetError> {
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Err(timed_out("no frame before deadline"));
            }
            self.set_read_timeout(Some(left))?;
            if let Some(hit) = self.recv()? {
                return Ok(hit);
            }
        }
    }

    /// Bounds how long [`MuxConn::recv`] blocks (`None`: forever).
    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        self.stream
            .set_read_timeout(timeout.map(|t| t.max(MIN_TIMEOUT)))
    }

    /// Switches the socket to nonblocking mode, for a peer served from a
    /// periodic tick rather than its own thread.
    pub fn set_nonblocking(&self) -> io::Result<()> {
        self.stream.set_nonblocking(true)
    }

    /// Hands the read side to a dedicated reader thread: a clone of the
    /// socket that blocks without a timeout, a second clone to shut the
    /// read half down with, and this connection's frame reader. Until
    /// [`MuxConn::rejoin_reader`], the read counts here read zero.
    pub fn split_reader(&mut self) -> io::Result<(TcpStream, TcpStream, FrameReader)> {
        let stream = self.stream.try_clone()?;
        let handle = self.stream.try_clone()?;
        stream.set_read_timeout(None)?;
        let reader = std::mem::replace(&mut self.reader, FrameReader::with_limits(0));
        Ok((stream, handle, reader))
    }

    /// Takes back the frame reader given out by
    /// [`MuxConn::split_reader`], with everything it decoded.
    pub fn rejoin_reader(&mut self, reader: FrameReader) {
        self.reader = reader;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bci_encoding::bitio::BitVec;
    use bci_net::frame::{BroadcastFrame, OutcomeFrame};
    use std::net::TcpListener;

    fn pair(config: &NetConfig) -> (MuxConn, MuxConn) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server, _) = listener.accept().unwrap();
        (
            MuxConn::new(client, config).unwrap(),
            MuxConn::new(server, config).unwrap(),
        )
    }

    #[test]
    fn queued_frames_cross_after_flush() {
        let config = NetConfig::default();
        let (mut client, mut server) = pair(&config);

        let frame = Frame::Heartbeat { seq: 7 };
        client.out.queue(11, &frame);
        client.out.queue(22, &frame);
        assert!(!client.out.pending().is_empty());
        assert!(client.flush().unwrap(), "loopback drains instantly");
        assert!(client.out.pending().is_empty());

        let deadline = Instant::now() + config.io_timeout;
        assert_eq!(server.recv_deadline(deadline).unwrap(), (11, frame.clone()));
        assert_eq!(server.recv_deadline(deadline).unwrap(), (22, frame));

        // The framing identity on both ends.
        let (sent, got) = (&client.out, server.reader());
        assert_eq!(sent.frames_written, 2);
        assert_eq!(
            sent.bytes_written,
            sent.payload_bytes_written + HEADER_BYTES * sent.frames_written
        );
        assert_eq!(got.bytes_read, sent.bytes_written);
        assert_eq!(
            got.bytes_read,
            got.payload_bytes_read + HEADER_BYTES * got.frames_read
        );
    }

    #[test]
    fn encoded_once_fan_out_matches_per_connection_queueing() {
        let frames = [
            (
                3,
                Frame::Broadcast(BroadcastFrame {
                    turn: 4,
                    speaker: 1,
                    bits: BitVec::from_bools(&[true, false, true]),
                    next: 0,
                    rng: vec![9; 41],
                }),
            ),
            (
                3,
                Frame::Outcome(OutcomeFrame {
                    kind: 2,
                    reason: "player 1 disconnected".into(),
                    output: vec![],
                    remaining: 0,
                }),
            ),
        ];
        let config = NetConfig::default();
        let (mut per_frame, mut per_frame_peer) = pair(&config);
        let (mut encoded, mut encoded_peer) = pair(&config);
        for (session, frame) in &frames {
            per_frame.out.queue(*session, frame);
            encoded.out.queue_encoded(&frame.to_bytes_mux(*session));
        }
        assert!(per_frame.flush().unwrap() && encoded.flush().unwrap());
        let counters = |c: &MuxConn| {
            let out = &c.out;
            (
                out.bytes_written,
                out.frames_written,
                out.payload_bytes_written,
            )
        };
        assert_eq!(counters(&per_frame), counters(&encoded));
        let deadline = Instant::now() + config.io_timeout;
        for expected in &frames {
            let a = per_frame_peer.recv_deadline(deadline).unwrap();
            let b = encoded_peer.recv_deadline(deadline).unwrap();
            assert_eq!(&a, expected);
            assert_eq!(a, b);
        }
    }

    #[test]
    fn split_reader_blocks_until_shutdown_and_keeps_its_counts() {
        let config = NetConfig::default();
        let (mut client, mut server) = pair(&config);
        client.send_now(5, &Frame::Heartbeat { seq: 1 }).unwrap();
        let (mut stream, handle, mut reader) = server.split_reader().unwrap();
        let reader = std::thread::scope(|scope| {
            let thread = scope.spawn(move || {
                assert_eq!(
                    reader.poll_mux(&mut stream).unwrap(),
                    Some((5, Frame::Heartbeat { seq: 1 }))
                );
                // Blocks with no timeout until the read half shuts.
                assert!(matches!(
                    reader.poll_mux(&mut stream),
                    Err(NetError::Disconnected)
                ));
                reader
            });
            std::thread::sleep(Duration::from_millis(20));
            handle.shutdown(std::net::Shutdown::Read).unwrap();
            thread.join().unwrap()
        });
        server.rejoin_reader(reader);
        assert_eq!(server.reader().frames_read, 1);
        assert_eq!(server.reader().bytes_read, client.out.bytes_written);
    }
}
