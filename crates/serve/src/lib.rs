//! misam-serve: a multi-threaded dataflow-selection server.
//!
//! Exposes the trained Misam pipeline — design selection, latency
//! prediction, reconfiguration policy, and the cycle-level simulator —
//! over a newline-delimited JSON protocol on plain TCP, with the pieces
//! a long-running service needs:
//!
//! - a versioned wire [`protocol`] with typed error replies;
//! - [`batch`]: micro-batching of predict traffic (size-or-empty-queue
//!   flush) over a bounded admission queue that sheds with
//!   `Overloaded { retry_after_ms }` instead of growing without limit;
//! - [`state`]: a hot-reloadable model bundle (snapshot on read, atomic
//!   swap on reload) and per-connection sessions that carry bitstream
//!   state;
//! - [`metrics`]: lock-free counters and log-bucketed latency
//!   histograms (sharded per reactor, folded at snapshot) behind the
//!   `Stats` endpoint, dumped on shutdown;
//! - [`poll`]: a zero-dependency epoll/eventfd/`SO_REUSEPORT` wrapper
//!   over raw syscalls (Linux; other platforms compile it out);
//! - [`server`]: startup and SIGINT-safe graceful drain of the epoll
//!   reactor shards, the one serving engine (Linux only; elsewhere
//!   [`Server::start`] returns `Unsupported`);
//! - [`client`]: a blocking client plus a closed- or open-loop
//!   multi-connection load generator with idle-connection floods.
//!
//! Heavy jobs (workload synthesis, simulation) run on a shared
//! [`misam_oracle::pool::WorkerPool`] and hit the process-global
//! memoizing simulation oracle, so identical queries from different
//! connections are simulated once.

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod batch;
pub mod client;
pub mod metrics;
pub mod poll;
pub mod protocol;
#[cfg(target_os = "linux")]
pub(crate) mod reactor;
pub mod server;
pub mod state;
pub mod tap;

pub use client::{Client, GenTraffic, LoadGen, LoadReport};
pub use protocol::{GenSpec, LearnStatsReply, Request, Response, StatsReply, PROTOCOL_VERSION};
pub use server::{sigint_flag, ServeConfig, Server};
pub use state::SharedModel;
pub use tap::{LearnTap, TapSample};
