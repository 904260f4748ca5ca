//! `bci-mux` — the broadcast coordinator over TCP, and its load harness.
//!
//! One daemon thread plays sequencer for **thousands of concurrent
//! sessions**, multiplexed over a pool of `k` player connections:
//!
//! * [`conn`] — [`conn::MuxConn`]: a blocking socket speaking the
//!   session-id frame envelope, with a write queue flushed in batches,
//!   each flush bounded by `io_timeout`, and a read side that can be handed to a
//!   dedicated reader thread;
//! * [`daemon`] — [`daemon::accept_mux_roster`] assembles the roster and
//!   [`daemon::run_mux_daemon`] is the reactor. One reader
//!   thread per connection feeds decoded frames into a channel; the
//!   reactor sleeps on it until a frame or a timer is due. Sessions are
//!   *parked* as a board prefix + the 41-byte ChaCha8 session-RNG state +
//!   a turn cursor, resumed for exactly the time it takes to apply one
//!   reply and issue the next grant;
//! * [`player`] — [`player::run_mux_player`]: the client side, keeping an
//!   independent board replica per in-flight session;
//! * [`load`] — the `bci load` harness: N synthetic players × M sessions
//!   against an in-process or remote coordinator, with per-session
//!   deadlines, latency percentiles, and a `bci.bench.v1` report.
//!
//! The daemon also serves the **admin stats channel** inline
//! ([`daemon::run_mux_daemon_with_admin`]): read-only `Stats` frames on
//! the control session answer with a live telemetry snapshot plus
//! reactor gauges, without touching session state or RNG, and
//! [`daemon::linger_admin`] keeps answering them after the run — see
//! `docs/observability.md`.
//!
//! Determinism is inherited, not re-proven: the per-session seeding
//! discipline (`derive_trial_seed(master, session)` → sample inputs →
//! session RNG) and the RNG-rides-the-grant turn loop are exactly the
//! fabric's channel transport's, so a multiplexed transcript is
//! bit-identical to [`bci_fabric::transport::InProcessTransport`] for the
//! same seed — the load harness verifies this end to end from the
//! *player's* replica.

#![warn(missing_docs)]

pub mod conn;
pub mod daemon;
pub mod load;
pub mod player;

pub use conn::MuxConn;
pub use daemon::{
    linger_admin, run_mux_daemon, run_mux_daemon_with_admin, MuxOptions, MuxRunReport, SessionInfo,
    SessionRecord,
};
pub use load::{run_load, CoordinatorKind, LoadReport, LoadSpec};
pub use player::{connect_mux_player, run_mux_player, MuxPlayerReport};
