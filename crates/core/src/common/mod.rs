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
