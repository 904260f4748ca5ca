//! `bci-net` — the wire layer under the multiplexed coordinator.
//!
//! The fabric's in-process transports emulate distribution; the
//! `bci-mux` daemon does it for real over TCP, and this crate holds what
//! that daemon, its players and its observers share on the wire:
//!
//! * [`frame`] — the wire format: `u32` LE length + `u64` LE session id +
//!   tag byte + a [`bci_encoding::wire::Wire`]-encoded payload, and the
//!   incremental [`frame::FrameReader`] that never tears a frame on a
//!   timeout;
//! * [`admin`] — the read-only admin stats channel's client side and
//!   reply builder: live [`bci_telemetry::Snapshot`] scrapes and
//!   flight-recorder dumps for `bci stat` / `bci top` (see
//!   `docs/observability.md`);
//! * [`backoff`] — capped exponential reconnect backoff with
//!   deterministic jitter, seeded per `(run, player)`;
//! * [`overhead`] — [`WireStats`] byte/frame accounting and the
//!   transcript digests that compare a networked run with the
//!   in-process transport.
//!
//! [`NetConfig`] carries the timeouts, heartbeat policy, frame cap and
//! runaway guard every connection of a deployment shares.

#![warn(missing_docs)]

use std::time::Duration;

pub mod admin;
pub mod backoff;
pub mod frame;
pub mod overhead;

pub use frame::{Frame, NetError, PROTOCOL_VERSION_MUX};
pub use overhead::WireStats;

/// Timeouts, heartbeat cadence, and reconnect policy for one deployment.
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// How often an otherwise-silent peer announces liveness.
    pub heartbeat_interval: Duration,
    /// Consecutive missed heartbeat intervals before a peer is declared
    /// dead.
    pub miss_limit: u32,
    /// Bound on any single blocking-ish wait: handshake ack, roster
    /// assembly, stalled writes.
    pub io_timeout: Duration,
    /// Total connection attempts before a dial gives up (≥ 1).
    pub connect_attempts: u32,
    /// First reconnect backoff delay; doubles per retry.
    pub backoff_base: Duration,
    /// Ceiling on the backoff delay.
    pub backoff_cap: Duration,
    /// Largest frame length this deployment accepts; peers announcing
    /// more are treated as malformed before any allocation happens.
    /// Bounded by [`frame::MIN_FRAME_LEN_CAP`] and
    /// [`frame::MAX_FRAME_LEN_CEILING`] (enforced by
    /// [`NetConfig::validate`]).
    pub max_frame_len: usize,
    /// Runaway guard: a session whose protocol has not halted after this
    /// many turns is aborted (`protocol exceeded … turns`) by the mux
    /// daemon; defaults to the serial runner's
    /// [`bci_blackboard::protocol::MAX_STEPS`].
    pub max_steps: usize,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            heartbeat_interval: Duration::from_secs(1),
            miss_limit: 5,
            io_timeout: Duration::from_secs(10),
            connect_attempts: 5,
            backoff_base: Duration::from_millis(50),
            backoff_cap: Duration::from_secs(2),
            max_frame_len: frame::MAX_FRAME_LEN,
            max_steps: bci_blackboard::protocol::MAX_STEPS,
        }
    }
}

impl NetConfig {
    /// Upper bound on `miss_limit` accepted by [`NetConfig::validate`]: a
    /// peer allowed to miss more heartbeats than this is effectively
    /// immortal, which defeats the liveness machinery.
    pub const MISS_LIMIT_CEILING: u32 = 10_000;

    /// Rejects configurations that cannot work: a zero or absurd
    /// `miss_limit` (0 declares every peer instantly dead; beyond
    /// [`Self::MISS_LIMIT_CEILING`] never declares anyone dead), and a
    /// frame cap no frame fits under ([`frame::MIN_FRAME_LEN_CAP`]) or
    /// past the pre-allocation guard ([`frame::MAX_FRAME_LEN_CEILING`]).
    pub fn validate(&self) -> Result<(), String> {
        if self.miss_limit == 0 {
            return Err("miss_limit must be at least 1 (0 declares every peer dead)".into());
        }
        if self.miss_limit > Self::MISS_LIMIT_CEILING {
            return Err(format!(
                "miss_limit {} is absurd (max {})",
                self.miss_limit,
                Self::MISS_LIMIT_CEILING
            ));
        }
        if self.max_frame_len < frame::MIN_FRAME_LEN_CAP {
            return Err(format!(
                "max_frame_len {} is too small to fit any frame (min {})",
                self.max_frame_len,
                frame::MIN_FRAME_LEN_CAP
            ));
        }
        if self.max_frame_len > frame::MAX_FRAME_LEN_CEILING {
            return Err(format!(
                "max_frame_len {} exceeds the allocation guard ({})",
                self.max_frame_len,
                frame::MAX_FRAME_LEN_CEILING
            ));
        }
        if self.connect_attempts == 0 {
            return Err("connect_attempts must be at least 1".into());
        }
        if self.max_steps == 0 {
            return Err("max_steps must be at least 1 (0 aborts every session)".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_validates() {
        NetConfig::default().validate().expect("defaults are sane");
    }

    #[test]
    fn zero_and_absurd_limits_are_rejected() {
        let mut config = NetConfig {
            miss_limit: 0,
            ..NetConfig::default()
        };
        assert!(config.validate().is_err(), "miss_limit 0 must be rejected");
        config.miss_limit = NetConfig::MISS_LIMIT_CEILING + 1;
        assert!(config.validate().is_err(), "absurd miss_limit rejected");

        let mut config = NetConfig {
            max_frame_len: 0,
            ..NetConfig::default()
        };
        assert!(config.validate().is_err(), "frame cap 0 must be rejected");
        config.max_frame_len = frame::MIN_FRAME_LEN_CAP - 1;
        assert!(config.validate().is_err(), "tiny frame cap rejected");
        config.max_frame_len = frame::MAX_FRAME_LEN_CEILING + 1;
        assert!(config.validate().is_err(), "huge frame cap rejected");
        config.max_frame_len = frame::MIN_FRAME_LEN_CAP;
        assert!(config.validate().is_ok(), "boundary cap accepted");

        let config = NetConfig {
            max_steps: 0,
            ..NetConfig::default()
        };
        assert!(config.validate().is_err(), "max_steps 0 must be rejected");
    }
}
