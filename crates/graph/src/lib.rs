#![forbid(unsafe_code)]
//! # dagsched-graph — the task graph substrate
//!
//! A *task graph* (also called a macro-dataflow graph) is a weighted directed
//! acyclic graph modelling a parallel program, as defined in §2 of
//! Kwok & Ahmad, *Benchmarking the Task Graph Scheduling Algorithms*
//! (IPPS 1998):
//!
//! * each node is a **task**: a sequentially executed, non-preemptible block
//!   of instructions with a *computation cost* `w(nᵢ) > 0`;
//! * each edge `nᵢ → nⱼ` is a **precedence constraint** carrying a
//!   *communication cost* `c(nᵢ, nⱼ) ≥ 0`, incurred only when the two tasks
//!   execute on different processors;
//! * the **CCR** (communication-to-computation ratio) of a graph is its mean
//!   edge cost divided by its mean node cost.
//!
//! The crate provides the compact, index-based DAG representation every other
//! crate in the workspace builds on, plus the classic *level* attributes that
//! drive list-scheduling priorities (§3 of the paper):
//!
//! * [`Levels::t_levels`] — the *top level*: length of the longest path from
//!   an entry node to `n` (excluding `n` itself), edge costs included;
//! * [`Levels::b_levels`] — the *bottom level*: length of the longest path
//!   from `n` to an exit node, edge costs included;
//! * [`Levels::static_levels`] — the bottom level computed over computation
//!   costs only (the classic *static level* of HLFET/DLS);
//! * [`Levels::alap_times`] — `CP − b-level`, the as-late-as-possible start;
//! * [`levels::critical_path`] — a maximal-length entry→exit path.
//!
//! The graph computes the four level attributes once, on first use, and
//! caches them: [`TaskGraph::levels`] borrows them.
//!
//! All representations are index-based (`Vec` adjacency, `u32` ids) rather
//! than pointer-based: scheduling algorithms are dominated by dense
//! level/priority recomputations over all nodes, which want cache-friendly
//! sequential scans, not graph-object traversal.
//!
//! ## Quick example
//!
//! ```
//! use dagsched_graph::GraphBuilder;
//!
//! // The classic two-level fork-join:  n0 → {n1, n2} → n3
//! let mut b = GraphBuilder::new();
//! let n0 = b.add_task(4);
//! let n1 = b.add_task(3);
//! let n2 = b.add_task(5);
//! let n3 = b.add_task(2);
//! b.add_edge(n0, n1, 1).unwrap();
//! b.add_edge(n0, n2, 1).unwrap();
//! b.add_edge(n1, n3, 2).unwrap();
//! b.add_edge(n2, n3, 2).unwrap();
//! let g = b.build().unwrap();
//!
//! assert_eq!(g.num_tasks(), 4);
//! assert_eq!(g.levels().cp_length(), 4 + 1 + 5 + 2 + 2); // n0→n2→n3 incl. comm
//! ```

pub mod binio;
pub mod builder;
pub mod error;
pub mod graph;
pub mod io;
pub mod levels;
pub mod stats;
pub mod topo;

pub use builder::GraphBuilder;
pub use error::GraphError;
pub use graph::{EdgeRef, TaskGraph, TaskId};
pub use levels::Levels;
pub use stats::GraphStats;
