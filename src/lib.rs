#![forbid(unsafe_code)]
//! # taskbench — benchmarking task-graph scheduling algorithms
//!
//! A from-scratch Rust reproduction of **Kwok & Ahmad, "Benchmarking the
//! Task Graph Scheduling Algorithms", IPPS 1998**: the fifteen classic DAG
//! scheduling algorithms (BNP, UNC and APN classes), the five benchmark
//! graph families the paper proposes, the branch-and-bound optimal solver
//! it calibrates against, and a harness that regenerates every table and
//! figure of its evaluation section.
//!
//! This facade crate re-exports the workspace:
//!
//! * [`graph`] — the weighted-DAG task-graph substrate (levels, critical
//!   paths, I/O);
//! * [`platform`] — processors, schedules, timelines, interconnect
//!   topologies and link-level message schedules;
//! * [`core`] — the [`core::Scheduler`] trait and all fifteen algorithms;
//! * [`suites`] — PSG / RGBOS / RGPOS / RGNOS / traced generators;
//! * [`optimal`] — branch-and-bound optimal schedules;
//! * [`metrics`] — NSL, degradation, speedup and reporting tables;
//! * [`adversary`] — adversarial instance search and pairwise dominance
//!   analysis over the roster;
//! * [`obs`] — zero-cost event tracing, Chrome-trace export, hot-path
//!   counters and histograms (the `taskbench trace` / `taskbench profile`
//!   front door);
//! * [`crate::bench`] — the experiment harness behind every table and
//!   figure, plus the perf-baseline machinery;
//! * [`serve`] — scheduling as a service: the framed TCP daemon behind
//!   `taskbench serve` and the `taskbench loadgen` replay client.
//!
//! ## Quickstart
//!
//! ```
//! use taskbench::prelude::*;
//!
//! // A diamond task graph.
//! let mut b = GraphBuilder::new();
//! let n0 = b.add_task(4);
//! let n1 = b.add_task(3);
//! let n2 = b.add_task(5);
//! let n3 = b.add_task(2);
//! b.add_edge(n0, n1, 2).unwrap();
//! b.add_edge(n0, n2, 2).unwrap();
//! b.add_edge(n1, n3, 2).unwrap();
//! b.add_edge(n2, n3, 2).unwrap();
//! let g = b.build().unwrap();
//!
//! // Schedule it with every algorithm in the paper's roster.
//! for algo in registry::all() {
//!     let env = match algo.class() {
//!         AlgoClass::Apn => Env::apn(Topology::ring(4).unwrap()),
//!         _ => Env::bnp(4),
//!     };
//!     let out = algo.schedule(&g, &env).unwrap();
//!     out.validate(&g).unwrap();
//!     assert!(out.schedule.makespan() >= 11); // computation critical path
//! }
//! ```

pub use dagsched_adversary as adversary;
pub use dagsched_bench as bench;
pub use dagsched_core as core;
pub use dagsched_graph as graph;
pub use dagsched_metrics as metrics;
pub use dagsched_obs as obs;
pub use dagsched_optimal as optimal;
pub use dagsched_platform as platform;
pub use dagsched_serve as serve;
pub use dagsched_suites as suites;

/// The names most programs need, in one import.
pub mod prelude {
    pub use dagsched_core::{registry, AlgoClass, Env, Outcome, SchedError, Scheduler};
    pub use dagsched_graph::{levels, GraphBuilder, GraphError, TaskGraph, TaskId};
    pub use dagsched_metrics::{degradation_pct, nsl, speedup, Table};
    pub use dagsched_optimal::{solve, OptimalParams};
    pub use dagsched_platform::{gantt, Network, ProcId, Schedule, Topology};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_reexports_work_together() {
        let mut b = GraphBuilder::new();
        let a = b.add_task(3);
        let c = b.add_task(4);
        b.add_edge(a, c, 1).unwrap();
        let g = b.build().unwrap();
        let out = registry::by_name("DCP")
            .unwrap()
            .schedule(&g, &Env::bnp(1))
            .unwrap();
        assert!(out.validate(&g).is_ok());
        assert_eq!(out.schedule.makespan(), 7);
    }
}
