#![forbid(unsafe_code)]
//! # dagsched-platform — processors, schedules and interconnects
//!
//! The machine-side substrate of the benchmark study. Three machine models
//! appear in the paper (§2, §4):
//!
//! * **BNP** — a *bounded* number of identical processors, fully connected,
//!   contention-free links: a message `c(u,v)` arrives exactly `c` time units
//!   after the producer finishes, and only if producer and consumer sit on
//!   different processors.
//! * **UNC** — the same contention-free model with an *unbounded* processor
//!   supply (one per task in the worst case); clustering algorithms target it.
//! * **APN** — an *arbitrary processor network*: a [`Topology`] of processors
//!   joined by point-to-point links. Messages are scheduled **on the links**:
//!   a message occupies every link of its route for `c` time units, hop by
//!   hop (store-and-forward), and links are contended resources.
//!
//! The central types:
//!
//! * [`Track`] — a sorted set of non-overlapping occupancy intervals with
//!   insertion-based earliest-slot queries. Both processor timelines and link
//!   schedules are tracks. Hot-path variants exist for the APN message
//!   layer: a fused probe+reserve ([`Track::reserve_earliest`]) and a
//!   batch compaction ([`Track::retain`]).
//! * [`Schedule`] — a (partial or complete) mapping of tasks to
//!   `(processor, start, finish)`, with full validation against a task graph
//!   under either communication model, Gantt rendering, and the performance
//!   measures the paper reports (makespan, processors used).
//! * [`Topology`] — the interconnect graph with deterministic BFS routing.
//!   All `p²` routes are flattened into one CSR array at construction, so
//!   [`Topology::route`] is an allocation-free slice view.
//! * [`Network`] — mutable link-schedule state used by APN algorithms to
//!   probe and commit message transmissions. Messages form a stack in
//!   commit order with all hops in one arena; [`Network::truncate`] rolls
//!   the stack back with one compaction pass per touched link — the
//!   primitive under the trial-commit/rollback journal that
//!   `dagsched-core`'s incremental BSA drives (see `ReplayEngine` there).

pub mod analysis;
pub mod error;
pub mod gantt;
pub mod network;
pub mod schedule;
pub mod timeline;
pub mod topology;

pub use analysis::{report, ScheduleReport};
pub use error::{PlaceError, ValidationError};
pub use network::{Message, MessageHop, MsgId, Network};
pub use schedule::{Placement, Schedule};
pub use timeline::Track;
pub use topology::{LinkId, ProcId, Topology, TopologyKind, MAX_PROCS};
