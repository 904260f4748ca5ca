#![warn(missing_docs)]

//! A concurrent execution fabric for broadcast protocols.
//!
//! The rest of the workspace executes protocols *serially*:
//! [`bci_blackboard::protocol::run`] drives one session on one thread, and
//! [`monte_carlo_seeded`](bci_blackboard::runner::monte_carlo_seeded) loops it. This
//! crate scales that up to many concurrent sessions without giving up the
//! property experiments live and die by — **determinism**: for a given
//! master seed, the fabric produces the same per-session transcripts and
//! the same floating-point statistics as the serial runner, regardless of
//! worker count or scheduling order.
//!
//! The pieces:
//!
//! * [`transport`] — how one session runs. [`InProcessTransport`]
//!   executes it on the calling worker, sequencing board writes and
//!   round-tripping the session RNG with each turn so the randomness
//!   stream is consumed in serial order.
//! * [`session`] — structured outcomes
//!   ([`SessionOutcome`]), per-session deadlines,
//!   and injectable faults ([`FaultPlan`]): slow
//!   players, crashed players, dropped wakeups. Faulty sessions abort
//!   gracefully; they never take a worker down.
//! * [`pool`] — the generic deterministic [`JobPool`]: the bounded batch
//!   queue, producer backpressure, and in-order result collection, usable
//!   for any `Fn(seed, &point) -> T` job (experiment sweeps run on it).
//! * [`driver`] — [`monte_carlo_fabric`], the parallel Monte-Carlo entry
//!   point: one pool job per session, with per-session fault injection
//!   and telemetry. Its [`FabricReport`] holds a
//!   [`RunReport`](bci_blackboard::runner::RunReport) bit-identical to
//!   [`monte_carlo_seeded`](bci_blackboard::runner::monte_carlo_seeded)
//!   on fault-free runs, plus outcome counts, latency percentiles,
//!   throughput and queue depth.
//!
//! # Example
//!
//! ```
//! use bci_fabric::{monte_carlo_fabric, FaultPlan, InProcessTransport, SchedulerConfig};
//! use bci_protocols::disj::broadcast::BroadcastDisj;
//! use bci_protocols::disj::disj_function;
//! use bci_protocols::workload;
//! use rand::RngCore;
//!
//! let protocol = BroadcastDisj::new(64, 4);
//! let report = monte_carlo_fabric(
//!     &InProcessTransport,
//!     &protocol,
//!     &|rng: &mut dyn RngCore| workload::random_sets(64, 4, 0.7, rng),
//!     &|inputs: &[_]| disj_function(inputs),
//!     32,          // sessions
//!     1,           // master seed
//!     &FaultPlan::new(),
//!     &SchedulerConfig::default(),
//! );
//! assert_eq!(report.report.trials, 32);
//! assert_eq!(report.report.errors, 0);
//! ```

pub mod driver;
pub mod pool;
pub mod session;
pub mod transport;

pub use driver::{monte_carlo_fabric, FabricReport, SchedulerConfig, SessionRecord};
pub use pool::{JobPool, PoolConfig, PoolRun};
pub use session::{FaultKind, FaultPlan, FaultSpec, SessionOutcome, SessionSelector};
pub use transport::{InProcessTransport, Transport, DISABLED_RECORDER};
