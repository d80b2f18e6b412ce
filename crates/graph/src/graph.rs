//! The immutable [`TaskGraph`] representation.

use crate::levels::Levels;
use crate::topo;
use std::sync::{Arc, OnceLock};

/// Identifier of a task (node) in a [`TaskGraph`].
///
/// Ids are dense indices `0..num_tasks`, assigned in insertion order by the
/// [`crate::GraphBuilder`]. A `TaskId` is only meaningful relative to the
/// graph that produced it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TaskId(pub u32);

impl TaskId {
    /// The id as a `usize` index into per-task arrays.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for TaskId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// A borrowed view of one edge: `src → dst` with communication cost `cost`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EdgeRef {
    pub src: TaskId,
    pub dst: TaskId,
    pub cost: u64,
}

/// An immutable weighted DAG of tasks.
///
/// Construction goes through [`crate::GraphBuilder`], which validates the
/// model invariants (positive computation costs, no self loops, no duplicate
/// edges, acyclicity, a cost total of at most 2^62) so that every
/// `TaskGraph` in existence is well-formed.
/// A deterministic topological order is computed once at build time and
/// cached.
///
/// Adjacency is stored in CSR (compressed sparse row) form: one flat
/// `(TaskId, cost)` array per direction plus `v + 1` offsets. Schedulers
/// spend most of their time sweeping neighbour lists of consecutive tasks,
/// and the flat layout keeps those sweeps on contiguous cache lines instead
/// of chasing one heap allocation per task. The public [`TaskGraph::succs`] /
/// [`TaskGraph::preds`] slice API is unchanged from the `Vec<Vec<_>>` days.
///
/// A graph never changes after it is built, so its arrays are
/// reference-counted slices: a clone shares them (as it already shares
/// the level attributes) instead of copying the adjacency. Reading
/// through an `Arc<[T]>` costs the same single indirection as a `Vec`.
#[derive(Debug, Clone)]
pub struct TaskGraph {
    pub(crate) name: String,
    pub(crate) weights: Arc<[u64]>,
    pub(crate) labels: Arc<[String]>,
    /// CSR offsets into `succ_adj`; row `i` is `succ_adj[off[i]..off[i+1]]`.
    pub(crate) succ_off: Arc<[u32]>,
    /// Packed successor entries `(child, edge cost)`, each row sorted by id.
    pub(crate) succ_adj: Arc<[(TaskId, u64)]>,
    /// CSR offsets into `pred_adj`.
    pub(crate) pred_off: Arc<[u32]>,
    /// Packed predecessor entries `(parent, edge cost)`, each row sorted by id.
    pub(crate) pred_adj: Arc<[(TaskId, u64)]>,
    /// Cached deterministic topological order (parents before children).
    pub(crate) topo: Arc<[TaskId]>,
    /// Level attributes, computed on first use and shared across clones.
    pub(crate) levels: OnceLock<Arc<Levels>>,
}

impl TaskGraph {
    /// Human-readable name (used by the benchmark suites and reports).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of tasks `v`.
    #[inline]
    pub fn num_tasks(&self) -> usize {
        self.weights.len()
    }

    /// Number of edges `e`.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.succ_adj.len()
    }

    /// Computation cost `w(n)` of a task. Always `> 0`.
    #[inline]
    pub fn weight(&self, n: TaskId) -> u64 {
        self.weights[n.index()]
    }

    /// All computation costs, indexed by task id.
    #[inline]
    pub fn weights(&self) -> &[u64] {
        &self.weights
    }

    /// Optional label of a task (empty string when unlabelled).
    pub fn label(&self, n: TaskId) -> &str {
        &self.labels[n.index()]
    }

    /// Successors of `n` with edge costs, sorted by task id.
    #[inline]
    pub fn succs(&self, n: TaskId) -> &[(TaskId, u64)] {
        let i = n.index();
        &self.succ_adj[self.succ_off[i] as usize..self.succ_off[i + 1] as usize]
    }

    /// Predecessors of `n` with edge costs, sorted by parent id.
    #[inline]
    pub fn preds(&self, n: TaskId) -> &[(TaskId, u64)] {
        let i = n.index();
        &self.pred_adj[self.pred_off[i] as usize..self.pred_off[i + 1] as usize]
    }

    /// Out-degree of `n`.
    #[inline]
    pub fn out_degree(&self, n: TaskId) -> usize {
        let i = n.index();
        (self.succ_off[i + 1] - self.succ_off[i]) as usize
    }

    /// In-degree of `n`.
    #[inline]
    pub fn in_degree(&self, n: TaskId) -> usize {
        let i = n.index();
        (self.pred_off[i + 1] - self.pred_off[i]) as usize
    }

    /// The level attributes of this graph (t-level, b-level, static level,
    /// ALAP, critical-path length), computed lazily in two topological
    /// passes and cached for the life of the graph. Clones share the cache.
    #[inline]
    pub fn levels(&self) -> &Levels {
        self.levels.get_or_init(|| Arc::new(Levels::compute(self)))
    }

    /// Iterator over all task ids `0..v`.
    pub fn tasks(&self) -> impl Iterator<Item = TaskId> + '_ {
        (0..self.num_tasks() as u32).map(TaskId)
    }

    /// Entry nodes: tasks with no predecessors.
    pub fn entries(&self) -> impl Iterator<Item = TaskId> + '_ {
        self.tasks().filter(|n| self.in_degree(*n) == 0)
    }

    /// Exit nodes: tasks with no successors.
    pub fn exits(&self) -> impl Iterator<Item = TaskId> + '_ {
        self.tasks().filter(|n| self.out_degree(*n) == 0)
    }

    /// The cached topological order (every parent precedes its children).
    #[inline]
    pub fn topo_order(&self) -> &[TaskId] {
        &self.topo
    }

    /// Cost of the edge `src → dst`, or `None` when no such edge exists.
    pub fn edge_cost(&self, src: TaskId, dst: TaskId) -> Option<u64> {
        let row = self.succs(src);
        row.binary_search_by_key(&dst, |&(d, _)| d)
            .ok()
            .map(|i| row[i].1)
    }

    /// Whether the edge `src → dst` exists.
    pub fn has_edge(&self, src: TaskId, dst: TaskId) -> bool {
        self.edge_cost(src, dst).is_some()
    }

    /// Iterator over all edges, grouped by source id ascending.
    pub fn edges(&self) -> impl Iterator<Item = EdgeRef> + '_ {
        self.tasks().flat_map(move |src| {
            self.succs(src)
                .iter()
                .map(move |&(dst, cost)| EdgeRef { src, dst, cost })
        })
    }

    /// Sum of all computation costs (the sequential execution time of the
    /// program, and the numerator of the classic speedup metric).
    pub fn total_work(&self) -> u64 {
        self.weights.iter().sum()
    }

    /// Sum of all communication costs.
    pub fn total_comm(&self) -> u64 {
        self.edges().map(|e| e.cost).sum()
    }

    /// Actual communication-to-computation ratio of this graph:
    /// mean edge cost / mean node cost. Zero when the graph has no edges.
    pub fn ccr(&self) -> f64 {
        if self.num_edges() == 0 {
            return 0.0;
        }
        let mean_comm = self.total_comm() as f64 / self.num_edges() as f64;
        let mean_comp = self.total_work() as f64 / self.num_tasks() as f64;
        mean_comm / mean_comp
    }

    /// The set of all descendants of `n` (transitively reachable via
    /// successor edges), excluding `n` itself, as a sorted id list.
    ///
    /// Used by MCP's ALAP-list priority, which compares a node's ALAP
    /// together with the ALAPs of everything below it. Costs what it
    /// reaches: a leaf allocates nothing, and the reached set is sorted
    /// instead of scanning every id (the visited set is one bit per task).
    pub fn descendants(&self, n: TaskId) -> Vec<TaskId> {
        let mut out = Vec::new();
        if self.succs(n).is_empty() {
            return out;
        }
        let mut seen = vec![0u64; self.num_tasks().div_ceil(64)];
        let mut stack: Vec<TaskId> = self.succs(n).iter().map(|&(s, _)| s).collect();
        while let Some(t) = stack.pop() {
            let (word, bit) = (t.index() / 64, 1u64 << (t.index() % 64));
            if seen[word] & bit == 0 {
                seen[word] |= bit;
                out.push(t);
                stack.extend(self.succs(t).iter().map(|&(s, _)| s));
            }
        }
        out.sort_unstable();
        out
    }

    /// Rename the graph (builders of derived graphs use this).
    pub fn with_name(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// Re-check every structural invariant. `TaskGraph`s are validated at
    /// build time, so this is intended for tests and for graphs deserialized
    /// from external files.
    pub fn validate(&self) -> Result<(), crate::GraphError> {
        use crate::GraphError;
        if self.weights.is_empty() {
            return Err(GraphError::Empty);
        }
        for n in self.tasks() {
            if self.weight(n) == 0 {
                return Err(GraphError::ZeroWeightTask { task: n.0 });
            }
            for &(s, _) in self.succs(n) {
                if s == n {
                    return Err(GraphError::SelfLoop { task: n.0 });
                }
                if s.index() >= self.num_tasks() {
                    return Err(GraphError::UnknownTask { task: s.0 });
                }
            }
        }
        // Topological order must be a permutation with all edges forward.
        if !topo::is_topological(self, &self.topo) {
            // A bad cached order implies a cycle (the builder would have
            // produced a complete order otherwise).
            return Err(GraphError::Cycle {
                task: self.topo.first().map(|t| t.0).unwrap_or(0),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use crate::GraphBuilder;

    use super::*;

    fn diamond() -> TaskGraph {
        // n0 → n1 → n3, n0 → n2 → n3
        let mut b = GraphBuilder::new();
        let n0 = b.add_task(10);
        let n1 = b.add_task(20);
        let n2 = b.add_task(30);
        let n3 = b.add_task(40);
        b.add_edge(n0, n1, 5).unwrap();
        b.add_edge(n0, n2, 6).unwrap();
        b.add_edge(n1, n3, 7).unwrap();
        b.add_edge(n2, n3, 8).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn basic_accessors() {
        let g = diamond();
        assert_eq!(g.num_tasks(), 4);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.weight(TaskId(2)), 30);
        assert_eq!(g.total_work(), 100);
        assert_eq!(g.total_comm(), 26);
        assert_eq!(g.edge_cost(TaskId(0), TaskId(2)), Some(6));
        assert_eq!(g.edge_cost(TaskId(1), TaskId(2)), None);
        assert!(g.has_edge(TaskId(1), TaskId(3)));
    }

    #[test]
    fn clones_share_the_arrays() {
        let g = diamond();
        let h = g.clone();
        assert!(std::ptr::eq(g.weights(), h.weights()));
        assert!(std::ptr::eq(g.succs(TaskId(0)), h.succs(TaskId(0))));
        assert!(std::ptr::eq(g.preds(TaskId(3)), h.preds(TaskId(3))));
        assert!(std::ptr::eq(g.topo_order(), h.topo_order()));
    }

    #[test]
    fn entries_and_exits() {
        let g = diamond();
        assert_eq!(g.entries().collect::<Vec<_>>(), vec![TaskId(0)]);
        assert_eq!(g.exits().collect::<Vec<_>>(), vec![TaskId(3)]);
    }

    #[test]
    fn degrees() {
        let g = diamond();
        assert_eq!(g.out_degree(TaskId(0)), 2);
        assert_eq!(g.in_degree(TaskId(3)), 2);
        assert_eq!(g.in_degree(TaskId(0)), 0);
    }

    #[test]
    fn edges_iterator_covers_everything() {
        let g = diamond();
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges.len(), 4);
        assert!(edges.contains(&EdgeRef {
            src: TaskId(0),
            dst: TaskId(2),
            cost: 6
        }));
    }

    #[test]
    fn ccr_matches_hand_computation() {
        let g = diamond();
        // mean comm = 26/4, mean comp = 100/4 → ccr = 26/100
        assert!((g.ccr() - 0.26).abs() < 1e-12);
    }

    #[test]
    fn descendants_are_transitive() {
        let g = diamond();
        assert_eq!(
            g.descendants(TaskId(0)),
            vec![TaskId(1), TaskId(2), TaskId(3)]
        );
        assert_eq!(g.descendants(TaskId(1)), vec![TaskId(3)]);
        assert!(g.descendants(TaskId(3)).is_empty());
    }

    #[test]
    fn descendants_of_a_leaf_are_empty_and_reached_sets_ascend() {
        // A fan-out whose ids run against the DFS order: the reached set
        // must still come back ascending, and every leaf reaches nothing.
        let mut b = GraphBuilder::new();
        let root = b.add_task(1);
        let mid: Vec<TaskId> = (0..70).map(|_| b.add_task(1)).collect();
        let sink = b.add_task(1);
        for &m in mid.iter().rev() {
            b.add_edge(root, m, 1).unwrap();
            b.add_edge(m, sink, 1).unwrap();
        }
        let g = b.build().unwrap();
        let all: Vec<TaskId> = g.tasks().skip(1).collect();
        assert_eq!(g.descendants(root), all);
        assert_eq!(g.descendants(mid[3]), vec![sink]);
        assert!(g.descendants(sink).is_empty());
    }

    #[test]
    fn validate_accepts_built_graphs() {
        assert!(diamond().validate().is_ok());
    }

    #[test]
    fn single_node_graph() {
        let mut b = GraphBuilder::new();
        b.add_task(7);
        let g = b.build().unwrap();
        assert_eq!(g.num_tasks(), 1);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.ccr(), 0.0);
        assert_eq!(g.entries().count(), 1);
        assert_eq!(g.exits().count(), 1);
    }
}
