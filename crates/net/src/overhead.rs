//! Wire overhead accounting: how many wire bytes a networked run spends,
//! against how many transcript bits it carries, and the transcript
//! digests that compare a networked run with the in-process transport.
//!
//! Digests follow the scheduler's seeding discipline
//! (`derive_trial_seed(master, session)` → sample inputs → the same RNG
//! becomes the session RNG), so a networked fold is comparable to any
//! fabric monte-carlo run with the same seeds.

use bci_blackboard::board::Board;
use bci_encoding::wire::fnv1a;

/// Input density of the synthetic DISJ workloads the load harness runs
/// (matches the fabric's smoke-test workloads).
pub const SWEEP_DENSITY: f64 = 0.7;

/// Wire-level accounting for a networked run, measured at the
/// coordinator (whose tx+rx sees every byte on every connection) or, for
/// a remote coordinator, summed over the players' connections.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WireStats {
    /// Bytes the coordinator wrote across all player connections.
    pub bytes_tx: u64,
    /// Bytes the coordinator read across all player connections.
    pub bytes_rx: u64,
    /// Frames the coordinator wrote.
    pub frames_tx: u64,
    /// Frames the coordinator read.
    pub frames_rx: u64,
    /// Wire-payload bytes the coordinator wrote (framing excluded).
    pub payload_bytes_tx: u64,
    /// Wire-payload bytes the coordinator read (framing excluded).
    pub payload_bytes_rx: u64,
    /// Bits on the final boards (the quantity the paper's communication
    /// measures count).
    pub transcript_bits: u64,
    /// Total connect retries across all players.
    pub reconnects: u64,
}

impl WireStats {
    /// Total bytes on the wire in both directions.
    pub fn bytes_total(&self) -> u64 {
        self.bytes_tx + self.bytes_rx
    }

    /// Framing bytes in both directions: length prefixes, session ids
    /// and tag bytes, i.e. `bytes_total - payload_total`. The identity
    /// `framing_bytes == 13 × (frames_tx + frames_rx)` holds and is
    /// asserted by the mux determinism gate.
    pub fn framing_bytes(&self) -> u64 {
        self.bytes_total() - (self.payload_bytes_tx + self.payload_bytes_rx)
    }

    /// Folds another run's stats into this accumulator.
    pub fn merge(&mut self, other: &WireStats) {
        self.bytes_tx += other.bytes_tx;
        self.bytes_rx += other.bytes_rx;
        self.frames_tx += other.frames_tx;
        self.frames_rx += other.frames_rx;
        self.payload_bytes_tx += other.payload_bytes_tx;
        self.payload_bytes_rx += other.payload_bytes_rx;
        self.transcript_bits += other.transcript_bits;
        self.reconnects += other.reconnects;
    }

    /// Wire bits per transcript bit: `8 × bytes_total / transcript_bits`
    /// (`∞`-avoiding: 0.0 when the transcript is empty).
    pub fn overhead_ratio(&self) -> f64 {
        if self.transcript_bits == 0 {
            return 0.0;
        }
        (self.bytes_total() * 8) as f64 / self.transcript_bits as f64
    }
}

/// FNV-1a digest of a board's canonical byte serialization.
pub fn transcript_digest(board: &Board) -> u64 {
    fnv1a(&board.to_bytes())
}

/// Folds a per-session digest (e.g. [`transcript_digest`]) into a running
/// accumulator. Start from `0`; two runs agree iff every folded digest is
/// equal in the same order. Order-sensitive, so callers with
/// out-of-order completion must fold in a canonical order (the mux
/// harness folds by session id).
pub fn fold_digest_u64(acc: u64, digest: u64) -> u64 {
    let mut bytes = [0u8; 16];
    bytes[..8].copy_from_slice(&acc.to_le_bytes());
    bytes[8..].copy_from_slice(&digest.to_le_bytes());
    fnv1a(&bytes)
}
