//! The read-only admin stats channel.
//!
//! The coordinator exposes its live [`Recorder`] over a tiny protocol,
//! spoken in the session-id frame envelope on [`CONTROL_SESSION`]:
//!
//! 1. the scraper dials in and sends a `Hello` with `version ==`
//!    [`PROTOCOL_VERSION_MUX`] and `player ==` [`ADMIN_PLAYER`] — the
//!    sentinel marks it as an observer, never a roster participant;
//! 2. the server acks by echoing the `Hello`;
//! 3. each [`Frame::Stats`] request (a bitmask of [`stats_request`]
//!    bits) is answered by one [`Frame::StatsReply`] carrying the
//!    snapshot in wire form and/or the flight-recorder JSON lines;
//! 4. either side closes whenever it likes — the channel is stateless
//!    after the handshake, so `bci top` holds one connection open and
//!    re-requests, while `bci stat` does one round trip and hangs up.
//!
//! The mux daemon answers admin peers inline from its reactor loop, and
//! after the run while `bci serve --admin-linger-ms` lasts (`bci-mux`);
//! it builds every reply with [`stats_reply`] and validates every
//! handshake with [`check_admin_hello`]. [`AdminClient`] and [`scrape`]
//! are the scraping side.
//!
//! Scraping is read-only by construction: nothing in this module touches
//! session state or any RNG, which is how the determinism gates can
//! prove a scraped run produces bit-identical transcripts.

use std::io::Write;
use std::net::TcpStream;
use std::time::{Duration, Instant};

use bci_telemetry::{Recorder, Snapshot};

use crate::frame::{
    stats_request, Frame, FrameReader, Hello, NetError, StatsPayload, StatsReplyFrame,
    ADMIN_PLAYER, CONTROL_SESSION, PROTOCOL_VERSION_MUX,
};
use crate::NetConfig;

/// How long one [`AdminClient`] read blocks before the reply deadline is
/// checked again.
const READ_TIMEOUT: Duration = Duration::from_millis(1);

/// Protocol id announced in admin hellos. The daemon accepts any id
/// from an [`ADMIN_PLAYER`] peer (the sentinel alone authorizes
/// read-only access), but a distinct id keeps diagnostics legible.
pub const ADMIN_PROTOCOL_ID: &str = "bci-admin";

/// Builds the reply to a [`Frame::Stats`] request from a live recorder.
pub fn stats_reply(recorder: &Recorder, what: u8) -> StatsReplyFrame {
    StatsReplyFrame {
        payload: if what & stats_request::SNAPSHOT != 0 {
            StatsPayload::from_snapshot(&recorder.snapshot())
        } else {
            StatsPayload::default()
        },
        events_jsonl: if what & stats_request::EVENTS != 0 {
            recorder.flight_jsonl()
        } else {
            String::new()
        },
    }
}

/// Validates an admin handshake `Hello`. Returns the ack to send, or an
/// error frame describing the rejection.
pub fn check_admin_hello(hello: &Hello) -> Result<Frame, Frame> {
    if hello.version != PROTOCOL_VERSION_MUX {
        return Err(Frame::Error {
            code: 1,
            message: format!(
                "admin channel speaks v{PROTOCOL_VERSION_MUX}, got v{}",
                hello.version
            ),
        });
    }
    if hello.player != ADMIN_PLAYER {
        return Err(Frame::Error {
            code: 1,
            message: "admin channel requires the ADMIN_PLAYER sentinel".into(),
        });
    }
    Ok(Frame::Hello(hello.clone()))
}

fn send_control(stream: &mut TcpStream, frame: &Frame) -> Result<(), NetError> {
    stream.write_all(&frame.to_bytes_mux(CONTROL_SESSION))?;
    Ok(())
}

fn recv_control(
    stream: &mut TcpStream,
    reader: &mut FrameReader,
    deadline: Instant,
) -> Result<Frame, NetError> {
    loop {
        match reader.poll_mux(stream)? {
            Some((_, frame)) => return Ok(frame),
            None if Instant::now() >= deadline => {
                return Err(NetError::Protocol("admin peer timed out".into()))
            }
            None => {}
        }
    }
}

/// A connected admin scrape client. Holds the connection open so
/// repeated fetches (the `bci top` refresh loop) pay the dial and
/// handshake once.
#[derive(Debug)]
pub struct AdminClient {
    stream: TcpStream,
    reader: FrameReader,
    io_timeout: Duration,
}

impl AdminClient {
    /// Dials `addr`, retrying per `config.connect_attempts` with
    /// doubling backoff, and completes the admin handshake.
    pub fn connect(addr: &str, config: &NetConfig) -> Result<AdminClient, NetError> {
        let mut last_err: Option<NetError> = None;
        let mut delay = config.backoff_base;
        for attempt in 0..config.connect_attempts.max(1) {
            if attempt > 0 {
                std::thread::sleep(delay);
                delay = (delay * 2).min(config.backoff_cap);
            }
            match TcpStream::connect(addr) {
                Ok(stream) => match AdminClient::handshake(stream, config) {
                    Ok(client) => return Ok(client),
                    Err(e) => last_err = Some(e),
                },
                Err(e) => last_err = Some(NetError::Io(e)),
            }
        }
        Err(last_err.unwrap_or(NetError::Protocol("no connect attempts".into())))
    }

    fn handshake(mut stream: TcpStream, config: &NetConfig) -> Result<AdminClient, NetError> {
        stream.set_nodelay(true).ok();
        stream.set_read_timeout(Some(READ_TIMEOUT))?;
        stream.set_write_timeout(Some(config.io_timeout))?;
        send_control(
            &mut stream,
            &Frame::Hello(Hello {
                version: PROTOCOL_VERSION_MUX,
                protocol_id: ADMIN_PROTOCOL_ID.into(),
                player: ADMIN_PLAYER,
                players: 0,
                seed: 0,
                params: vec![],
            }),
        )?;
        let mut reader = FrameReader::with_limits(config.max_frame_len);
        let deadline = Instant::now() + config.io_timeout;
        match recv_control(&mut stream, &mut reader, deadline)? {
            Frame::Hello(_) => Ok(AdminClient {
                stream,
                reader,
                io_timeout: config.io_timeout,
            }),
            Frame::Error { message, .. } => Err(NetError::Protocol(format!(
                "admin hello rejected: {message}"
            ))),
            other => Err(NetError::Protocol(format!(
                "expected hello ack, got {}",
                other.name()
            ))),
        }
    }

    /// One stats round trip: sends [`Frame::Stats`] and waits for the
    /// reply. `what` is a bitmask of [`stats_request`] bits.
    pub fn fetch(&mut self, what: u8) -> Result<StatsReplyFrame, NetError> {
        send_control(&mut self.stream, &Frame::Stats { what })?;
        let deadline = Instant::now() + self.io_timeout;
        loop {
            match recv_control(&mut self.stream, &mut self.reader, deadline)? {
                Frame::StatsReply(reply) => return Ok(*reply),
                Frame::Heartbeat { .. } => {}
                Frame::Error { message, .. } => {
                    return Err(NetError::Protocol(format!("stats refused: {message}")))
                }
                other => {
                    return Err(NetError::Protocol(format!(
                        "expected stats reply, got {}",
                        other.name()
                    )))
                }
            }
        }
    }

    /// Fetches and rebuilds the live [`Snapshot`].
    pub fn fetch_snapshot(&mut self) -> Result<Snapshot, NetError> {
        self.fetch(stats_request::SNAPSHOT)?.payload.into_snapshot()
    }
}

/// One-shot scrape: connect, handshake, fetch, hang up.
pub fn scrape(addr: &str, what: u8, config: &NetConfig) -> Result<StatsReplyFrame, NetError> {
    AdminClient::connect(addr, config)?.fetch(what)
}
