//! Wire overhead measurement: how many wire bits the TCP deployment
//! spends per transcript bit, swept over `(n, k)` points.
//!
//! Each session is run twice from the same derived seed — once over the
//! loopback TCP harness, once on the in-process transport — and the two
//! transcripts are digest-compared, so every sweep doubles as a
//! determinism check. Seeding follows the scheduler's discipline exactly
//! (`derive_trial_seed(point_seed, session)` → sample inputs → clone the
//! RNG into the session), which makes the digests comparable to any
//! fabric monte-carlo run with the same seeds.

use bci_blackboard::board::Board;
use bci_blackboard::runner::derive_trial_seed;
use bci_encoding::wire::fnv1a;
use bci_fabric::session::SessionOutcome;
use bci_fabric::transport::{InProcessTransport, SessionContext, Transport, DISABLED_RECORDER};
use bci_protocols::disj::broadcast::BroadcastDisj;
use bci_protocols::workload;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::transport::{loopback_session, WireStats};
use crate::NetConfig;

/// Input density used by the sweep's random DISJ workloads (matches the
/// fabric's smoke-test workloads).
pub const SWEEP_DENSITY: f64 = 0.7;

/// Measurements for one `(n, k)` sweep point.
#[derive(Debug, Clone)]
pub struct OverheadPoint {
    /// Universe size.
    pub n: usize,
    /// Number of players.
    pub k: usize,
    /// Sessions run at this point.
    pub sessions: usize,
    /// Wire stats accumulated across all sessions.
    pub wire: WireStats,
    /// FNV-1a digest of the concatenated TCP transcripts.
    pub digest_tcp: u64,
    /// FNV-1a digest of the concatenated in-process transcripts.
    pub digest_inprocess: u64,
    /// Sessions that completed on the TCP side.
    pub completed: usize,
}

impl OverheadPoint {
    /// Did the TCP and in-process transcripts agree byte for byte?
    pub fn digests_match(&self) -> bool {
        self.digest_tcp == self.digest_inprocess
    }
}

/// FNV-1a digest of a board's canonical byte serialization.
pub fn transcript_digest(board: &Board) -> u64 {
    fnv1a(&board.to_bytes())
}

/// Folds another board into a running concatenated-transcript digest.
/// Start from `0` and fold boards in session order; two runs agree iff
/// every folded transcript is bit-identical in the same order. The mux
/// load harness folds per-session digests with [`fold_digest_u64`]
/// instead (sessions finish out of order there), so the two digests are
/// *not* interchangeable — compare like with like.
pub fn fold_digest(acc: u64, board: &Board) -> u64 {
    let mut bytes = acc.to_le_bytes().to_vec();
    bytes.extend_from_slice(&board.to_bytes());
    fnv1a(&bytes)
}

/// Folds a per-session digest (e.g. [`transcript_digest`]) into a running
/// accumulator. Order-sensitive, so callers with out-of-order completion
/// must fold in a canonical order (the mux harness folds by session id).
pub fn fold_digest_u64(acc: u64, digest: u64) -> u64 {
    let mut bytes = [0u8; 16];
    bytes[..8].copy_from_slice(&acc.to_le_bytes());
    bytes[8..].copy_from_slice(&digest.to_le_bytes());
    fnv1a(&bytes)
}

/// Runs `sessions` DISJ sessions at `(n, k)` over both transports and
/// accumulates wire stats and transcript digests.
pub fn overhead_point(
    n: usize,
    k: usize,
    sessions: usize,
    point_seed: u64,
    config: &NetConfig,
) -> OverheadPoint {
    let protocol = BroadcastDisj::new(n, k);
    let mut wire = WireStats::default();
    let mut digest_tcp = 0u64;
    let mut digest_inprocess = 0u64;
    let mut completed = 0usize;
    for session in 0..sessions {
        let seed = derive_trial_seed(point_seed, session as u64);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let inputs = workload::random_sets(n, k, SWEEP_DENSITY, &mut rng);
        let ctx = SessionContext {
            session_id: session as u64,
            deadline: None,
            faults: &[],
            recorder: &DISABLED_RECORDER,
        };
        let (tcp, stats) =
            loopback_session(&protocol, &inputs, rng.clone(), &ctx, config, "disj", seed);
        let inproc = InProcessTransport.run_session(&protocol, &inputs, rng.clone(), &ctx);
        wire.merge(&stats);
        digest_tcp = fold_digest(digest_tcp, &tcp.board);
        digest_inprocess = fold_digest(digest_inprocess, &inproc.board);
        if tcp.outcome == SessionOutcome::Completed {
            completed += 1;
        }
        debug_assert_eq!(tcp.output, inproc.output, "outputs diverge at n={n} k={k}");
    }
    OverheadPoint {
        n,
        k,
        sessions,
        wire,
        digest_tcp,
        digest_inprocess,
        completed,
    }
}

/// Runs [`overhead_point`] for every `(n, k)` in `points`, deriving each
/// point's seed from `master_seed` by index.
pub fn overhead_sweep(
    points: &[(usize, usize)],
    sessions: usize,
    master_seed: u64,
    config: &NetConfig,
) -> Vec<OverheadPoint> {
    points
        .iter()
        .enumerate()
        .map(|(idx, &(n, k))| {
            overhead_point(
                n,
                k,
                sessions,
                derive_trial_seed(master_seed, idx as u64),
                config,
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overhead_point_agrees_across_transports() {
        let point = overhead_point(32, 3, 2, 7, &NetConfig::default());
        assert!(point.digests_match(), "transcripts diverged");
        assert_eq!(point.completed, 2);
        assert!(point.wire.transcript_bits > 0);
        assert!(
            point.wire.overhead_ratio() > 1.0,
            "framing cannot be free: {}",
            point.wire.overhead_ratio()
        );
    }
}
