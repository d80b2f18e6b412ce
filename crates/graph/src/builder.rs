//! Mutable construction of [`TaskGraph`]s with full validation.

use crate::error::GraphError;
use crate::graph::{TaskGraph, TaskId};
use crate::topo;
use std::sync::Arc;

/// Incremental builder for a [`TaskGraph`].
///
/// Tasks receive dense ids in insertion order. Edges may be added in any
/// order; all model invariants are checked in [`GraphBuilder::build`]:
///
/// * every computation cost is positive,
/// * no self loops, no duplicate `(src, dst)` pairs,
/// * edge endpoints exist,
/// * the edge set is acyclic,
/// * all computation and communication costs sum to at most
///   [`MAX_TOTAL_COST`] (2^62).
///
/// ```
/// use dagsched_graph::GraphBuilder;
/// let mut b = GraphBuilder::named("pipeline");
/// let a = b.add_task(3);
/// let c = b.add_task(4);
/// b.add_edge(a, c, 2).unwrap();
/// let g = b.build().unwrap();
/// assert_eq!(g.name(), "pipeline");
/// ```
#[derive(Debug, Clone, Default)]
pub struct GraphBuilder {
    name: String,
    weights: Vec<u64>,
    labels: Vec<String>,
    edges: Vec<(TaskId, TaskId, u64)>,
}

impl GraphBuilder {
    /// New builder with an empty name.
    pub fn new() -> Self {
        Self::default()
    }

    /// New builder carrying a graph name used in reports.
    pub fn named(name: impl Into<String>) -> Self {
        GraphBuilder {
            name: name.into(),
            ..Self::default()
        }
    }

    /// Pre-allocate for `tasks` tasks and `edges` edges.
    pub fn with_capacity(tasks: usize, edges: usize) -> Self {
        GraphBuilder {
            name: String::new(),
            weights: Vec::with_capacity(tasks),
            labels: Vec::with_capacity(tasks),
            edges: Vec::with_capacity(edges),
        }
    }

    /// Number of tasks added so far.
    pub fn num_tasks(&self) -> usize {
        self.weights.len()
    }

    /// Number of edges added so far (unvalidated).
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Add a task with computation cost `weight`; returns its id.
    pub fn add_task(&mut self, weight: u64) -> TaskId {
        self.add_labeled_task(weight, String::new())
    }

    /// Add a task with a display label.
    pub fn add_labeled_task(&mut self, weight: u64, label: impl Into<String>) -> TaskId {
        let id = TaskId(self.weights.len() as u32);
        self.weights.push(weight);
        self.labels.push(label.into());
        id
    }

    /// Add the edge `src → dst` with communication cost `cost`.
    ///
    /// Endpoint existence and self loops are rejected immediately; duplicate
    /// edges and cycles are rejected at [`GraphBuilder::build`] time (cycle
    /// detection needs the whole edge set anyway).
    pub fn add_edge(&mut self, src: TaskId, dst: TaskId, cost: u64) -> Result<(), GraphError> {
        let v = self.weights.len() as u32;
        if src.0 >= v {
            return Err(GraphError::UnknownTask { task: src.0 });
        }
        if dst.0 >= v {
            return Err(GraphError::UnknownTask { task: dst.0 });
        }
        if src == dst {
            return Err(GraphError::SelfLoop { task: src.0 });
        }
        self.edges.push((src, dst, cost));
        Ok(())
    }

    /// Whether an edge `src → dst` has been added (linear scan; intended for
    /// generators that must avoid duplicates on small edge counts — use your
    /// own set for large ones).
    pub fn has_edge(&self, src: TaskId, dst: TaskId) -> bool {
        self.edges.iter().any(|&(s, d, _)| s == src && d == dst)
    }

    /// Finalize into an immutable, validated [`TaskGraph`].
    ///
    /// Each shared array is allocated once, at its final size, directly
    /// as an `Arc<[T]>` and filled in place. Edges that arrive in
    /// `(src, dst)` order — as every [`crate::io::to_tgf`] and
    /// [`crate::binio::to_bin`] body lists them — need no per-row sort:
    /// the order check that detects them also finds their duplicates.
    pub fn build(self) -> Result<TaskGraph, GraphError> {
        let v = self.weights.len();
        if v == 0 {
            return Err(GraphError::Empty);
        }
        if v > u32::MAX as usize {
            return Err(GraphError::TooManyTasks);
        }
        let mut total = 0u128;
        for (i, &w) in self.weights.iter().enumerate() {
            if w == 0 {
                return Err(GraphError::ZeroWeightTask { task: i as u32 });
            }
            total += u128::from(w);
        }

        if self.edges.len() > u32::MAX as usize {
            return Err(GraphError::TooManyEdges);
        }

        // One pass: degree counts, the cost total, and whether the edges
        // are already in non-decreasing `(src, dst)` order — in which
        // case the first equal neighbour pair is the smallest duplicate.
        let mut succ_off = filled(v + 1, 0u32);
        let mut pred_off = filled(v + 1, 0u32);
        let (succ_cnt, pred_cnt) = (unique(&mut succ_off), unique(&mut pred_off));
        let mut sorted = true;
        let mut first_dup = None;
        let mut prev = (0u32, 0u32);
        for (k, &(s, d, c)) in self.edges.iter().enumerate() {
            succ_cnt[s.index() + 1] += 1;
            pred_cnt[d.index() + 1] += 1;
            total += u128::from(c);
            let cur = (s.0, d.0);
            if k > 0 {
                if cur < prev {
                    sorted = false;
                } else if cur == prev && first_dup.is_none() {
                    first_dup = Some(cur);
                }
            }
            prev = cur;
        }
        if let (true, Some((src, dst))) = (sorted, first_dup) {
            return Err(GraphError::DuplicateEdge { src, dst });
        }
        for i in 0..v {
            succ_cnt[i + 1] += succ_cnt[i];
            pred_cnt[i + 1] += pred_cnt[i];
        }

        // Scatter into rows by counting sort. In sorted input every row
        // fills in id order; otherwise each row is sorted afterwards and
        // scanned for duplicates.
        let e = self.edges.len();
        let mut succ_adj: Arc<[(TaskId, u64)]> = if sorted {
            self.edges.iter().map(|&(_, d, c)| (d, c)).collect()
        } else {
            filled(e, (TaskId(0), 0))
        };
        let mut pred_adj = filled(e, (TaskId(0), 0u64));
        let succ_rows = unique(&mut succ_adj);
        let pred_rows = unique(&mut pred_adj);
        let mut pred_cur: Vec<u32> = pred_off[..v].to_vec();
        for &(s, d, c) in &self.edges {
            pred_rows[pred_cur[d.index()] as usize] = (s, c);
            pred_cur[d.index()] += 1;
        }
        if !sorted {
            let mut succ_cur: Vec<u32> = succ_off[..v].to_vec();
            for &(s, d, c) in &self.edges {
                succ_rows[succ_cur[s.index()] as usize] = (d, c);
                succ_cur[s.index()] += 1;
            }
            for i in 0..v {
                let (lo, hi) = (succ_off[i] as usize, succ_off[i + 1] as usize);
                let row = &mut succ_rows[lo..hi];
                row.sort_unstable_by_key(|&(t, _)| t);
                if let Some(pair) = row.windows(2).find(|p| p[0].0 == p[1].0) {
                    return Err(GraphError::DuplicateEdge {
                        src: i as u32,
                        dst: pair[0].0 .0,
                    });
                }
                pred_rows[pred_off[i] as usize..pred_off[i + 1] as usize]
                    .sort_unstable_by_key(|&(t, _)| t);
            }
        }

        let mut g = TaskGraph {
            name: self.name,
            weights: self.weights.into_iter().collect(),
            labels: self.labels.into_iter().collect(),
            succ_off,
            succ_adj,
            pred_off,
            pred_adj,
            topo: Arc::from([]),
            levels: std::sync::OnceLock::new(),
        };
        g.topo = topo::topological_order(&g).map_err(|n| GraphError::Cycle { task: n.0 })?;
        if total > u128::from(MAX_TOTAL_COST) {
            return Err(GraphError::CostOverflow);
        }
        Ok(g)
    }
}

/// The largest accepted sum of all computation and communication costs.
/// Any start, finish or level is at most this sum, so schedulers may add
/// a few of them together without wrapping.
pub const MAX_TOTAL_COST: u64 = 1 << 62;

/// A shared slice of `n` copies of `x`, allocated once at its final size.
pub(crate) fn filled<T: Clone>(n: usize, x: T) -> Arc<[T]> {
    std::iter::repeat_n(x, n).collect()
}

/// Mutable access to a slice this function's caller just allocated.
pub(crate) fn unique<T>(a: &mut Arc<[T]>) -> &mut [T] {
    Arc::get_mut(a).expect("a freshly allocated slice has no other owner")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_empty() {
        assert_eq!(GraphBuilder::new().build().unwrap_err(), GraphError::Empty);
    }

    #[test]
    fn rejects_zero_weight() {
        let mut b = GraphBuilder::new();
        b.add_task(0);
        assert_eq!(
            b.build().unwrap_err(),
            GraphError::ZeroWeightTask { task: 0 }
        );
    }

    #[test]
    fn rejects_self_loop_immediately() {
        let mut b = GraphBuilder::new();
        let a = b.add_task(1);
        assert_eq!(
            b.add_edge(a, a, 1).unwrap_err(),
            GraphError::SelfLoop { task: 0 }
        );
    }

    #[test]
    fn rejects_unknown_endpoint() {
        let mut b = GraphBuilder::new();
        let a = b.add_task(1);
        let ghost = TaskId(99);
        assert_eq!(
            b.add_edge(a, ghost, 1).unwrap_err(),
            GraphError::UnknownTask { task: 99 }
        );
        assert_eq!(
            b.add_edge(ghost, a, 1).unwrap_err(),
            GraphError::UnknownTask { task: 99 }
        );
    }

    #[test]
    fn rejects_duplicate_edge_at_build() {
        let mut b = GraphBuilder::new();
        let a = b.add_task(1);
        let c = b.add_task(1);
        b.add_edge(a, c, 1).unwrap();
        b.add_edge(a, c, 2).unwrap();
        assert_eq!(
            b.build().unwrap_err(),
            GraphError::DuplicateEdge { src: 0, dst: 1 }
        );
    }

    #[test]
    fn rejects_two_cycle() {
        let mut b = GraphBuilder::new();
        let a = b.add_task(1);
        let c = b.add_task(1);
        b.add_edge(a, c, 1).unwrap();
        b.add_edge(c, a, 1).unwrap();
        assert!(matches!(b.build().unwrap_err(), GraphError::Cycle { .. }));
    }

    #[test]
    fn rejects_long_cycle() {
        let mut b = GraphBuilder::new();
        let ids: Vec<_> = (0..5).map(|_| b.add_task(1)).collect();
        for i in 0..5 {
            b.add_edge(ids[i], ids[(i + 1) % 5], 1).unwrap();
        }
        assert!(matches!(b.build().unwrap_err(), GraphError::Cycle { .. }));
    }

    #[test]
    fn builds_disconnected_graph() {
        let mut b = GraphBuilder::new();
        b.add_task(1);
        b.add_task(2);
        let g = b.build().unwrap();
        assert_eq!(g.num_tasks(), 2);
        assert_eq!(g.entries().count(), 2);
    }

    #[test]
    fn adjacency_is_sorted() {
        let mut b = GraphBuilder::new();
        let n0 = b.add_task(1);
        let n1 = b.add_task(1);
        let n2 = b.add_task(1);
        let n3 = b.add_task(1);
        // Insert in reverse order; rows must come out sorted by id.
        b.add_edge(n0, n3, 3).unwrap();
        b.add_edge(n0, n2, 2).unwrap();
        b.add_edge(n0, n1, 1).unwrap();
        let g = b.build().unwrap();
        let ids: Vec<u32> = g.succs(n0).iter().map(|&(t, _)| t.0).collect();
        assert_eq!(ids, vec![1, 2, 3]);
    }

    #[test]
    fn labels_round_trip() {
        let mut b = GraphBuilder::new();
        let a = b.add_labeled_task(1, "potrf(0)");
        let g = b.build().unwrap();
        assert_eq!(g.label(a), "potrf(0)");
    }
}
