//! Error types for schedule construction, validation and topology building.

use dagsched_graph::TaskId;
use std::fmt;

use crate::topology::{LinkId, ProcId};

/// Errors raised while placing tasks into a [`crate::Schedule`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlaceError {
    /// The task is already placed; unplace it first.
    AlreadyPlaced { task: TaskId },
    /// Processor id out of range.
    BadProc { proc: ProcId },
    /// Task id out of range for the schedule's task count.
    BadTask { task: TaskId },
    /// The requested interval overlaps an existing occupation on the
    /// processor.
    Overlap { task: TaskId, proc: ProcId },
}

impl fmt::Display for PlaceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlaceError::AlreadyPlaced { task } => write!(f, "{task} is already placed"),
            PlaceError::BadProc { proc } => write!(f, "processor {proc} out of range"),
            PlaceError::BadTask { task } => write!(f, "task {task} out of range"),
            PlaceError::Overlap { task, proc } => {
                write!(f, "{task} overlaps existing work on {proc}")
            }
        }
    }
}

impl std::error::Error for PlaceError {}

/// A violated schedule invariant, found by [`crate::Schedule::validate`] or
/// [`crate::Schedule::validate_apn`]. Each variant carries enough context to
/// pinpoint the offence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ValidationError {
    /// A task was never placed although the schedule is meant to be complete.
    Unplaced { task: TaskId },
    /// `finish − start` differs from the task's computation cost.
    WrongDuration {
        task: TaskId,
        expected: u64,
        actual: u64,
    },
    /// Two tasks overlap on one processor.
    ProcOverlap { proc: ProcId, a: TaskId, b: TaskId },
    /// A precedence/communication constraint is violated:
    /// the child starts before its data can be available.
    Precedence {
        src: TaskId,
        dst: TaskId,
        data_ready: u64,
        actual_start: u64,
    },
    /// (APN) a cross-processor edge with non-zero cost has no message.
    MissingMessage { src: TaskId, dst: TaskId },
    /// (APN) a message's hop sequence is not a valid link path between the
    /// producing and consuming processors.
    BadRoute { src: TaskId, dst: TaskId },
    /// (APN) a hop starts before the previous hop finished, a hop has the
    /// wrong duration, or the first hop starts before the producer finished.
    MessageTiming { src: TaskId, dst: TaskId },
    /// (APN) two messages overlap on one link.
    LinkOverlap { link: LinkId },
    /// (APN) a message carries no edge that needs one: a second message
    /// for one edge, or a message for an absent, co-located or zero-cost
    /// edge.
    StrayMessage { src: TaskId, dst: TaskId },
    /// A placement references a processor outside the machine.
    BadProcessor { task: TaskId, proc: ProcId },
}

impl fmt::Display for ValidationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValidationError::Unplaced { task } => write!(f, "{task} is not placed"),
            ValidationError::WrongDuration {
                task,
                expected,
                actual,
            } => {
                write!(f, "{task} runs for {actual} but costs {expected}")
            }
            ValidationError::ProcOverlap { proc, a, b } => {
                write!(f, "{a} and {b} overlap on {proc}")
            }
            ValidationError::Precedence {
                src,
                dst,
                data_ready,
                actual_start,
            } => write!(
                f,
                "{dst} starts at {actual_start} but data from {src} is ready at {data_ready}"
            ),
            ValidationError::MissingMessage { src, dst } => {
                write!(
                    f,
                    "no message scheduled for cross-processor edge {src} -> {dst}"
                )
            }
            ValidationError::BadRoute { src, dst } => {
                write!(
                    f,
                    "message for {src} -> {dst} does not follow a valid link path"
                )
            }
            ValidationError::MessageTiming { src, dst } => {
                write!(f, "message for {src} -> {dst} has inconsistent hop timing")
            }
            ValidationError::LinkOverlap { link } => {
                write!(f, "two messages overlap on link {}", link.0)
            }
            ValidationError::StrayMessage { src, dst } => {
                write!(
                    f,
                    "message for {src} -> {dst} carries no edge that needs one"
                )
            }
            ValidationError::BadProcessor { task, proc } => {
                write!(f, "{task} placed on non-existent {proc}")
            }
        }
    }
}

impl std::error::Error for ValidationError {}

/// Errors raised when constructing a [`crate::Topology`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TopologyError {
    /// A topology needs at least one processor.
    Empty,
    /// A link references a processor id out of range.
    BadEndpoint { proc: u32 },
    /// A link connects a processor to itself.
    SelfLink { proc: u32 },
    /// The same processor pair is linked twice.
    DuplicateLink { a: u32, b: u32 },
    /// The link graph is not connected; APN scheduling requires every
    /// processor to be reachable.
    Disconnected,
    /// Parameter out of range (e.g. a mesh with zero rows).
    BadParameter(String),
}

impl fmt::Display for TopologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopologyError::Empty => write!(f, "topology has no processors"),
            TopologyError::BadEndpoint { proc } => write!(f, "link endpoint P{proc} out of range"),
            TopologyError::SelfLink { proc } => write!(f, "self link on P{proc}"),
            TopologyError::DuplicateLink { a, b } => write!(f, "duplicate link P{a} – P{b}"),
            TopologyError::Disconnected => write!(f, "link graph is not connected"),
            TopologyError::BadParameter(msg) => write!(f, "bad parameter: {msg}"),
        }
    }
}

impl std::error::Error for TopologyError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_render() {
        let e = ValidationError::Precedence {
            src: TaskId(1),
            dst: TaskId(2),
            data_ready: 10,
            actual_start: 5,
        };
        let s = e.to_string();
        assert!(s.contains("n2") && s.contains("10") && s.contains('5'));

        let p = PlaceError::Overlap {
            task: TaskId(3),
            proc: ProcId(1),
        };
        assert!(p.to_string().contains("n3"));

        let t = TopologyError::DuplicateLink { a: 0, b: 1 };
        assert!(t.to_string().contains("P0"));
    }
}
