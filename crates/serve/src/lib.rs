//! `schedtaskd`: a long-running simulation-job server.
//!
//! The serve layer turns one-shot `repro` invocations into a service
//! shaped like a production scheduler front-end:
//!
//! - **Protocol** — JSON lines over TCP; see
//!   [`schedtask_experiments::serve_api`] for the request/response
//!   vocabulary and the client.
//! - **Admission** — a bounded [`queue::JobQueue`]; when full,
//!   submissions are rejected with a `retry_after_ms` backpressure
//!   response instead of queueing unboundedly.
//! - **Execution** — `--workers` long-lived executors each take one
//!   job at a time from the queue, so an idle executor takes the next
//!   job instead of waiting for a busy one.
//! - **Caching** — a content-addressed [`cache::ResultCache`] keyed by
//!   the canonical hash of the full job spec. The engine is
//!   deterministic, so a hit replays byte-identical canonical
//!   `SimStats` JSON and JSONL event text. Identical in-flight
//!   submissions coalesce onto one execution.
//! - **Observability** — the worker counts hits, misses, rejections,
//!   executions, disk writes and chaos injections, and the router its
//!   hot hits, forwards, sheds and failovers, each in a
//!   `schedtask-obs` `CounterSet` of its own; the `stats` op serves it
//!   and `--profile` prints it as a counter table.
//! - **Durability** — with `--cache-dir`, every result is also appended
//!   to a crash-safe [`disk::DiskCache`] segment log before it is
//!   published. Startup recovery truncates torn tails, quarantines
//!   corrupt records, and fills the memory tier with the stats bytes and
//!   record location of everything that survived, which is then served
//!   as byte-identical cache hits. The memory tier is the only index. A
//!   persisted result's JSONL stream lives only in the log, which is
//!   read again only to answer a request that asks for the stream.
//! - **Chaos** — a seed-driven [`chaos::ChaosPlan`] can tear disk
//!   writes, panic workers, and mangle responses deterministically, so
//!   tests assert recovery invariants instead of getting lucky.
//! - **Fleet** — `schedtaskd --router` consistent-hashes job keys
//!   across downstream workers via [`router::Router`], layering a
//!   router-side single-flight hot-key cache above each worker's memory
//!   tier and propagating honest backpressure upstream.
//! - **Transport** — [`daemon::serve`] is the one accept loop for
//!   workers and routers alike: newline framing, read deadlines,
//!   chaos-mangled writes, and a bounded drain on stop. Every request
//!   line of either daemon passes the one front end in [`daemon`], which
//!   answers what both answer alike and hands `stats` and `run` on.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod cache;
pub mod chaos;
pub mod daemon;
pub mod disk;
pub mod queue;
pub mod router;
pub mod server;

pub use cache::{EventStream, JobOutput, Lookup, ResultCache};
pub use chaos::{ChaosInjector, ChaosPlan, ResponseAction};
pub use daemon::{serve, Daemon, Listener, Serving};
pub use disk::{crc32, DiskCache, DiskRecord, RecordLoc, RecoveryReport};
pub use queue::{Backpressure, JobQueue, QueuedJob, SubmitError};
pub use router::{Router, RouterConfig};
pub use server::{ServeConfig, Server};
