//! `bci-mux` — the broadcast coordinator over TCP, and its load harness.
//!
//! One daemon thread plays sequencer for **thousands of concurrent
//! sessions**, multiplexed over a pool of `k` player connections:
//!
//! * [`sequencer`] — [`MuxCore`], the daemon's session logic as a sans-io
//!   state machine: sessions are *parked* as a board prefix + the 41-byte
//!   ChaCha8 session-RNG state + a turn cursor, resumed for exactly the
//!   time it takes to apply one reply and issue the next grant;
//! * [`daemon`] — [`daemon::accept_mux_roster`] assembles the roster and
//!   [`run_mux_daemon`] is the reactor around the core: one reader thread
//!   per connection feeds decoded frames into a channel, and the reactor
//!   sleeps on it until a frame or a timer is due. It also answers the
//!   read-only **admin stats channel** inline, and [`linger_admin`] after
//!   the run (see `docs/observability.md`);
//! * [`conn`] — [`MuxConn`], a blocking socket speaking the session-id
//!   frame envelope, which drains an [`Outbox`] with each flush bounded
//!   by `io_timeout`;
//! * [`player`] — [`run_mux_player`]: the client side, keeping an
//!   independent board replica per in-flight session ([`MuxPlayer`]);
//! * [`load`] — the `bci load` harness: N synthetic players × M sessions
//!   against an in-process or remote coordinator, with per-session
//!   deadlines, latency percentiles, and a `bci.bench.v1` report.
//!
//! Determinism is inherited, not re-proven: the per-session seeding
//! discipline (`derive_trial_seed(master, session)` → sample inputs →
//! session RNG) and the RNG-rides-the-grant turn loop are exactly
//! [`bci_fabric::transport::InProcessTransport`]'s, so a multiplexed
//! transcript is bit-identical to it for the same seed — the load
//! harness verifies this end to end from the *player's* replica.

#![warn(missing_docs)]

pub mod conn;
pub mod daemon;
pub mod load;
pub mod player;
pub mod sequencer;

pub use conn::{MuxConn, Outbox};
pub use daemon::{
    linger_admin, run_mux_daemon, MuxOptions, MuxRunReport, SessionInfo, SessionRecord,
};
pub use load::{run_load, CoordinatorKind, LoadReport, LoadSpec};
pub use player::{connect_mux_player, run_mux_player, MuxPlayer, MuxPlayerReport, Played};
pub use sequencer::{Event, MuxCore};
