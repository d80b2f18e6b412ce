#![forbid(unsafe_code)]
//! # dagsched-metrics — the paper's performance measures and reporting
//!
//! §6 of Kwok & Ahmad defines six comparison measures; this crate
//! implements the quantitative ones plus the table machinery the harness
//! binaries use to render them:
//!
//! * [`measures::nsl`] — **Normalized Schedule Length**:
//!   `NSL = L / Σ_{n ∈ CP} w(n)` (schedule length over the computation
//!   cost of the critical path). `NSL ≥ 1` always.
//! * [`measures::degradation_pct`] — percentage degradation from a known
//!   optimal length, the measure of Tables 2–5.
//! * [`measures::speedup`] / [`measures::efficiency`] — classic derived
//!   measures (serial time over makespan).
//! * number of processors used — available directly as
//!   `Schedule::procs_used` (§6.4.2).
//!
//! Running time (Table 6) is wall clock, so it is measured outside this
//! crate: `bench::runner::run_timed` times each harness run, and the
//! `perfbench` benchmark records each algorithm's ns per task.
//!
//! [`stats::Running`] aggregates mean/min/max/std via Welford's method;
//! [`table::Table`] renders aligned ASCII tables and CSV for
//! EXPERIMENTS.md.

pub mod measures;
pub mod stats;
pub mod table;

pub use measures::{degradation_pct, efficiency, nsl, speedup};
pub use stats::{percentile, Running};
pub use table::Table;
