//! `cr-server`: a long-running reasoning service for CR schemas.
//!
//! The reasoning procedures in this workspace (finite satisfiability and
//! constraint implication over ISA + cardinality schemas, after
//! Calvanese–Lenzerini ICDE'94) are worst-case exponential in the schema
//! expansion — exactly the profile that rewards a resident daemon with a
//! verdict cache over a fork-per-question CLI. This crate provides that
//! daemon, std-only:
//!
//! * [`protocol`] — a versioned JSON-lines request/response protocol
//!   (`{"v":1,"id":…,"op":…,…}` with the reasoning ops `check`, `implies`,
//!   `pin_base` and `check_delta`, and the plain ops `ping`, `stats`,
//!   `shutdown`, `replicate` and `promote`) spoken identically over TCP
//!   and stdio, built on `cr-trace`'s hand-rolled JSON writer/parser;
//! * [`pool`] — a fixed-size worker thread pool with a bounded queue
//!   (backpressure, not unbounded buffering, under overload);
//! * [`cache`] — a sharded LRU verdict cache keyed by
//!   [`cr_core::canonical_form`], so reordered/reformatted copies of the
//!   same schema share one entry;
//! * [`eval`] — the bridge onto `cr-core`'s governed reasoning entry
//!   points, verdict-identical to `crsat check` / `crsat implies`;
//! * [`persist`] — the durable side of the cache: a crash-safe `cr-store`
//!   log of *certified* verdicts, rehydrated on boot so a restarted daemon
//!   answers previously settled questions warm;
//! * [`Server`] — ties the above together. Every reasoning op takes one
//!   request pipeline (budget and deadline, quarantine, in-flight
//!   registration, panic containment; then cache, store, singleflight,
//!   compute, certify, persist), and its response embeds a `cr-trace`
//!   `RunReport` whose `cache_hits` / `cache_misses` counters prove where
//!   the verdict came from;
//! * [`signal`] — SIGTERM/SIGINT → graceful drain; a second signal aborts
//!   in-flight reasoning via per-request cancel tokens and the budget
//!   governor.
//!
//! High availability (this crate's serving layer is expected to survive
//! crashes, overload, and its own bugs):
//!
//! * [`repl`] — primary→standby replication by byte-level log shipping
//!   (`replicate`/`promote` ops); a warm standby promotes itself when the
//!   primary's heartbeat lapses, losing no acknowledged verdict;
//! * [`supervise`] — worker respawn, wedge detection (deadline + grace →
//!   cancel), and quarantine of schemas that crash the pipeline;
//! * [`admission`] — deadline-aware admission control and AIMD
//!   priority-based load shedding (`shed` responses are retryable, with
//!   the shared [`backoff_delay`] schedule);
//! * [`flight`] — coalescing of concurrent identical requests onto one
//!   computation;
//! * [`metrics`] — the live telemetry plane: sliding-window time series
//!   over every response, scraped through a hand-rolled HTTP endpoint
//!   (`/metrics` Prometheus text, `/statusz` JSON), plus end-to-end
//!   trace-id propagation: ids minted at admission ride the response,
//!   its embedded report, the verdict cache, the durable log, and
//!   replicated chunks.
//!
//! The `crsat serve` and `crsat batch` subcommands in `cr-cli` are thin
//! shells over this crate.

#![deny(unsafe_code)] // sole exception: the `signal(2)` binding in `signal`
#![warn(missing_docs)]

pub mod admission;
pub mod cache;
pub mod eval;
pub mod flight;
pub mod metrics;
pub mod persist;
pub mod pool;
pub mod protocol;
pub mod repl;
pub mod signal;
pub mod supervise;
pub mod transport;

mod server;

pub use admission::backoff_delay;
pub use cache::{CacheKey, CachedVerdict, VerdictCache};
pub use metrics::{MetricsView, SharedSink};
pub use persist::StoreRecovery;
pub use pool::{Job, SubmitError};
pub use protocol::{Op, ReplChunk, Request, Response, Status, PROTOCOL_VERSION};
pub use server::{FollowerStep, Server, ServerConfig};
pub use transport::{Conn, Connector, Listener, TcpConn, TcpConnector, TcpListenerSource};
