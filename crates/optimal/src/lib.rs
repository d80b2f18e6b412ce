#![forbid(unsafe_code)]
//! # dagsched-optimal — branch-and-bound optimal schedules
//!
//! The RGBOS benchmark family (§5.2 of the paper) measures each heuristic's
//! *percentage degradation from the optimal solution*; the authors obtained
//! the optima with a (parallel) A* search \[23\]. This crate provides the
//! equivalent: a depth-first branch-and-bound over the space of list
//! schedules. The search itself is serial and byte-deterministic; the
//! experiment grids get their parallelism by solving independent cells
//! concurrently (see [`bnb`]'s module docs).
//!
//! ## Search space and completeness
//!
//! States append one *ready* task at a time to some processor at its
//! earliest feasible start (`max(data-ready time, processor ready time)`).
//! Any feasible schedule can be replayed in global start-time order with
//! earliest-start timing without growing any start time, so this space
//! contains an optimal schedule — the search is exact.
//!
//! ## Pruning
//!
//! * **Incumbent** — seeded with the best of the fifteen heuristics, so
//!   even an immediately-capped search reports a meaningful bound.
//! * **Lower bounds** — pruned when
//!   `max(makespan-so-far, critical-path bound, workload bound) ≥
//!   incumbent`. The critical-path bound propagates computation-only
//!   earliest start times (communication may always be zeroed by
//!   colocation, so it is admissible); the workload bound is
//!   `(Σ processor-ready + remaining work) / p`.
//! * **Processor symmetry** — identical processors: only the
//!   lowest-indexed empty processor may be opened.
//! * **Duplicate detection** — states reached by permuted decision orders
//!   collapse via a 128-bit signature over the canonical (processor-
//!   relabelled) partial schedule: one `(task, processor)` word and one
//!   full 64-bit start word per scheduled task, so no start time, however
//!   large, can alias a processor. Hash collisions (< 2⁻¹⁰⁰ for any
//!   realistic search) are the only source of unsoundness and are treated
//!   as impossible.
//!
//! ## Cost model
//!
//! The search tree is exponential in the worst case; per node the work is
//! O(p) for the earliest-start probe plus O(v + e) amortized for bound
//! maintenance. Equal-length optima are tie-broken by a canonical
//! placement key rather than discovery order, and the node counters are
//! identical on every run and host.
//!
//! Searches are capped by node count; [`OptimalResult::proven`] reports
//! whether the space was exhausted, [`OptimalResult::nodes_expanded`] and
//! [`OptimalResult::pruned`] how the budget was spent. EXPERIMENTS.md
//! records the proven flag for every RGBOS instance.

pub mod bnb;
pub mod exhaustive;

pub use bnb::{solve, OptimalParams, OptimalResult};
