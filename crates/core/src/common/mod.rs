//! Machinery shared by the scheduling algorithms: start-time estimation
//! under the contention-free model, ready-set tracking and static list
//! order, rekeyable priority queues, and dynamic level computation on
//! partially scheduled graphs.

pub mod dynengine;
pub mod dynlevels;
pub mod estimate;
pub mod indexed_heap;
pub mod ready;

pub use dynengine::{DynLevelsEngine, EngineStats};
pub use dynlevels::DynLevels;
pub use estimate::{best_proc, drt, est_on, SlotPolicy};
pub use indexed_heap::{HeapOps, IndexedHeap};
pub(crate) use ready::sort_list_order;
pub use ready::{list_order, ReadyQueue, ReadySet};

use crate::{Env, SchedError};
use dagsched_platform::Schedule;

/// The one entry guard every scheduler shares: an environment without
/// processors cannot host any schedule. Returns the processor count so
/// callers that build their own state don't re-read the topology.
pub fn require_procs(env: &Env) -> Result<usize, SchedError> {
    match env.procs() {
        0 => Err(SchedError::NoProcessors),
        p => Ok(p),
    }
}

/// Guarded schedule construction: [`require_procs`] plus an empty
/// [`Schedule`] sized for `g` — the common prologue of the BNP/composed
/// drivers (APN algorithms wrap it in their own state, UNC mapping
/// adapters only need the guard).
pub fn new_schedule(g: &dagsched_graph::TaskGraph, env: &Env) -> Result<Schedule, SchedError> {
    let p = require_procs(env)?;
    Ok(Schedule::new(g.num_tasks(), p))
}
