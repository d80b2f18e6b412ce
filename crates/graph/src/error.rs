//! Error types for graph construction and parsing.

use std::fmt;

/// Errors produced while building or parsing a [`crate::TaskGraph`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// A task was declared with computation cost zero. The model (§2 of the
    /// paper) requires strictly positive computation costs; zero-cost tasks
    /// would create zero-length execution intervals whose overlap semantics
    /// are ambiguous.
    ZeroWeightTask { task: u32 },
    /// An edge references a task id that was never declared.
    UnknownTask { task: u32 },
    /// An edge connects a task to itself.
    SelfLoop { task: u32 },
    /// The same (src, dst) pair was declared twice.
    DuplicateEdge { src: u32, dst: u32 },
    /// The edge set contains a directed cycle; a task graph must be acyclic.
    /// Contains one task id known to lie on a cycle.
    Cycle { task: u32 },
    /// The graph has no tasks at all.
    Empty,
    /// More than `u32::MAX` tasks were requested.
    TooManyTasks,
    /// More than `u32::MAX` edges were requested (the CSR offsets are
    /// 32-bit).
    TooManyEdges,
    /// The computation costs plus the communication costs sum to more
    /// than [`crate::builder::MAX_TOTAL_COST`]. Every start, finish and
    /// level a scheduler computes is bounded by that sum, so the bound
    /// keeps all of them (and the sums built from them) far from `u64`
    /// wrap-around.
    CostOverflow,
    /// A `.tgf` parse failure, with the 1-based line number and a reason.
    Parse { line: usize, reason: String },
    /// A compact binary frame ([`crate::binio`]) failed to decode: bad
    /// magic, truncation, or a length field inconsistent with the buffer.
    Bin { reason: String },
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::ZeroWeightTask { task } => {
                write!(f, "task {task} has zero computation cost (must be > 0)")
            }
            GraphError::UnknownTask { task } => write!(f, "edge references unknown task {task}"),
            GraphError::SelfLoop { task } => write!(f, "self loop on task {task}"),
            GraphError::DuplicateEdge { src, dst } => {
                write!(f, "duplicate edge {src} -> {dst}")
            }
            GraphError::Cycle { task } => {
                write!(f, "edge set is cyclic (task {task} lies on a cycle)")
            }
            GraphError::Empty => write!(f, "graph has no tasks"),
            GraphError::TooManyTasks => write!(f, "too many tasks (max {})", u32::MAX),
            GraphError::TooManyEdges => write!(f, "too many edges (max {})", u32::MAX),
            GraphError::CostOverflow => write!(
                f,
                "computation plus communication costs sum to more than 2^62 ({})",
                crate::builder::MAX_TOTAL_COST
            ),
            GraphError::Parse { line, reason } => write!(f, "parse error at line {line}: {reason}"),
            GraphError::Bin { reason } => write!(f, "binary frame error: {reason}"),
        }
    }
}

impl GraphError {
    /// Stable machine-readable code, shared by the CLI and the serve
    /// protocol. Codes are part of the public contract (tests pin them):
    /// clients branch on these strings, never on `Display` text.
    pub fn code(&self) -> &'static str {
        match self {
            GraphError::ZeroWeightTask { .. } => "E_GRAPH_ZERO_WEIGHT",
            GraphError::UnknownTask { .. } => "E_GRAPH_UNKNOWN_TASK",
            GraphError::SelfLoop { .. } => "E_GRAPH_SELF_LOOP",
            GraphError::DuplicateEdge { .. } => "E_GRAPH_DUP_EDGE",
            GraphError::Cycle { .. } => "E_GRAPH_CYCLE",
            GraphError::Empty => "E_GRAPH_EMPTY",
            GraphError::TooManyTasks | GraphError::TooManyEdges => "E_GRAPH_TOO_LARGE",
            GraphError::CostOverflow => "E_GRAPH_COST_OVERFLOW",
            GraphError::Parse { .. } => "E_GRAPH_PARSE",
            GraphError::Bin { .. } => "E_GRAPH_BIN",
        }
    }
}

impl std::error::Error for GraphError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let cases: Vec<(GraphError, &str)> = vec![
            (GraphError::ZeroWeightTask { task: 3 }, "task 3"),
            (GraphError::UnknownTask { task: 9 }, "unknown task 9"),
            (GraphError::SelfLoop { task: 1 }, "self loop"),
            (GraphError::DuplicateEdge { src: 1, dst: 2 }, "1 -> 2"),
            (GraphError::Cycle { task: 5 }, "cyclic"),
            (GraphError::Empty, "no tasks"),
            (GraphError::CostOverflow, "2^62"),
            (
                GraphError::Parse {
                    line: 7,
                    reason: "bad token".into(),
                },
                "line 7",
            ),
        ];
        for (err, needle) in cases {
            let msg = err.to_string();
            assert!(msg.contains(needle), "{msg:?} should contain {needle:?}");
        }
    }

    /// The codes are a wire contract shared by the CLI and the serve
    /// protocol; pin every one of them.
    #[test]
    fn codes_are_pinned() {
        let cases: Vec<(GraphError, &str)> = vec![
            (
                GraphError::ZeroWeightTask { task: 3 },
                "E_GRAPH_ZERO_WEIGHT",
            ),
            (GraphError::UnknownTask { task: 9 }, "E_GRAPH_UNKNOWN_TASK"),
            (GraphError::SelfLoop { task: 1 }, "E_GRAPH_SELF_LOOP"),
            (
                GraphError::DuplicateEdge { src: 1, dst: 2 },
                "E_GRAPH_DUP_EDGE",
            ),
            (GraphError::Cycle { task: 5 }, "E_GRAPH_CYCLE"),
            (GraphError::Empty, "E_GRAPH_EMPTY"),
            (GraphError::TooManyTasks, "E_GRAPH_TOO_LARGE"),
            (GraphError::TooManyEdges, "E_GRAPH_TOO_LARGE"),
            (GraphError::CostOverflow, "E_GRAPH_COST_OVERFLOW"),
            (
                GraphError::Parse {
                    line: 7,
                    reason: "bad token".into(),
                },
                "E_GRAPH_PARSE",
            ),
            (
                GraphError::Bin {
                    reason: "truncated".into(),
                },
                "E_GRAPH_BIN",
            ),
        ];
        for (err, code) in cases {
            assert_eq!(err.code(), code, "{err}");
        }
    }
}
