#![forbid(unsafe_code)]
//! # dagsched-serve — scheduling as a service
//!
//! The workspace's long-running front end: a std-only TCP daemon that
//! answers schedule requests (`taskbench serve`), and the load-generator
//! client that replays benchmark suites against it at a configurable
//! request rate (`taskbench loadgen`).
//!
//! A request carries a DAG (TGF text or the compact binary frame of
//! [`dagsched_graph::binio`]), a platform spec (`bnp:8`, `hypercube:3`,
//! …), and an algorithm name — any of the fifteen roster acronyms or a
//! `compose:` grammar variant. The response is the schedule (one line per
//! task), its makespan and processor count, or a structured error whose
//! machine-readable code is shared with the CLI ([`proto`]).
//!
//! Production concerns are the point of this crate:
//!
//! * **Framing** ([`frame`]) — u32 length-prefixed frames with a hard
//!   size cap; a malformed or oversize frame fails one connection with a
//!   structured error, never the daemon.
//! * **Backpressure** ([`server`]) — a counting gate: a bounded number
//!   of requests schedule at once and a bounded number wait for a slot;
//!   past that a request is rejected immediately with `E_QUEUE_FULL` and
//!   a `retry_after_ms` hint instead of stacking latency.
//! * **Memoization** ([`cache`]) — two sharded LRUs over the same
//!   rendered response bytes, so a cache hit returns *byte-identical*
//!   output to the original computation: a wire tier keyed by a hash of
//!   the raw request bytes, answered on the connection thread without
//!   decoding or waiting for a slot, and a structural tier keyed by
//!   (structural graph hash, platform, canonical algorithm name), probed
//!   after decoding. Hit/miss/eviction counters live in
//!   [`dagsched_obs::registry`].
//! * **Containment** ([`server`]) — a scheduler panic fails its request
//!   with `E_INTERNAL`, never its connection or the daemon.
//! * **Threads** ([`server`]) — one acceptor and one thread per
//!   connection, which schedules its own requests; the slot count is
//!   `TASKBENCH_THREADS`-aware (via [`dagsched_ws::worker_count`]).
//!   Graceful shutdown stops accepting, answers in-flight requests, then
//!   joins every thread.
//!
//! Everything is plain threads over blocking sockets, with no hand-off
//! between threads on the request path.
//!
//! ## Determinism contract
//!
//! Served schedules are byte-identical to in-process scheduling for the
//! same (graph, platform, algorithm) — the e2e suite pins this for every
//! roster algorithm — and independent of slot count and cache state.
//! Wall-clock throughput/latency numbers from [`loadgen`] are indicative
//! only and are never CI-diffed.

pub mod cache;
pub mod frame;
pub mod loadgen;
pub mod proto;
pub mod server;

pub use cache::{CacheKey, ShardedLru, WireKey};
pub use frame::{FrameError, FrameReader, MAX_FRAME};
pub use loadgen::{LoadgenParams, LoadgenReport};
pub use proto::{Request, Response, ServeError};
pub use server::{Config, Handle};
