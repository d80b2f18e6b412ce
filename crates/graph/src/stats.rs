//! Structural statistics of a task graph, used by the benchmark suites to
//! characterize generated instances (§5 of the paper varies size, CCR and
//! *parallelism*, i.e. graph width).

use crate::graph::{TaskGraph, TaskId};
use crate::levels;

/// Summary statistics of one task graph.
#[derive(Debug, Clone, PartialEq)]
pub struct GraphStats {
    /// Number of tasks `v`.
    pub tasks: usize,
    /// Number of edges `e`.
    pub edges: usize,
    /// Σ computation costs.
    pub total_work: u64,
    /// Σ communication costs.
    pub total_comm: u64,
    /// Mean-edge-cost / mean-node-cost ratio.
    pub ccr: f64,
    /// Number of precedence levels (longest chain measured in node count).
    pub depth: usize,
    /// Maximum number of tasks sharing the same precedence level.
    ///
    /// This is a cheap upper-structure proxy for the paper's *width* (the
    /// largest antichain): every same-level set is an antichain, so
    /// `level_width ≤ true width`. Exact antichain width needs a bipartite
    /// matching (Dilworth) and is not required by any experiment.
    pub level_width: usize,
    /// Critical-path length including communication.
    pub cp_length: u64,
    /// Σ computation along the (deterministic) critical path.
    pub cp_computation: u64,
    /// Number of entry nodes.
    pub entries: usize,
    /// Number of exit nodes.
    pub exits: usize,
}

/// Precedence level of each node: entry nodes are level 0; otherwise
/// `1 + max(level of parents)`. (Node-count depth, weights ignored.)
pub fn precedence_levels(g: &TaskGraph) -> Vec<usize> {
    let mut lvl = vec![0usize; g.num_tasks()];
    for &n in g.topo_order() {
        let best = g
            .preds(n)
            .iter()
            .map(|&(p, _)| lvl[p.index()] + 1)
            .max()
            .unwrap_or(0);
        lvl[n.index()] = best;
    }
    lvl
}

impl GraphStats {
    /// Compute all statistics for `g`.
    pub fn of(g: &TaskGraph) -> GraphStats {
        let lvl = precedence_levels(g);
        let depth = lvl.iter().copied().max().map(|d| d + 1).unwrap_or(0);
        let mut counts = vec![0usize; depth];
        for &l in &lvl {
            counts[l] += 1;
        }
        GraphStats {
            tasks: g.num_tasks(),
            edges: g.num_edges(),
            total_work: g.total_work(),
            total_comm: g.total_comm(),
            ccr: g.ccr(),
            depth,
            level_width: counts.iter().copied().max().unwrap_or(0),
            cp_length: g.levels().cp_length(),
            cp_computation: levels::cp_computation(g),
            entries: g.entries().count(),
            exits: g.exits().count(),
        }
    }
}

/// Whether two tasks are precedence-related (one reaches the other).
/// O(v + e) per query; used by tests to check antichain claims.
pub fn related(g: &TaskGraph, a: TaskId, b: TaskId) -> bool {
    if a == b {
        return true;
    }
    reaches(g, a, b) || reaches(g, b, a)
}

fn reaches(g: &TaskGraph, from: TaskId, to: TaskId) -> bool {
    let mut seen = vec![false; g.num_tasks()];
    let mut stack = vec![from];
    while let Some(n) = stack.pop() {
        if n == to {
            return true;
        }
        for &(s, _) in g.succs(n) {
            if !seen[s.index()] {
                seen[s.index()] = true;
                stack.push(s);
            }
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    fn two_level_fan() -> TaskGraph {
        // n0 → n1..n4 (fan-out of 4)
        let mut b = GraphBuilder::new();
        let root = b.add_task(10);
        for _ in 0..4 {
            let c = b.add_task(5);
            b.add_edge(root, c, 2).unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn stats_of_fan() {
        let g = two_level_fan();
        let s = GraphStats::of(&g);
        assert_eq!(s.tasks, 5);
        assert_eq!(s.edges, 4);
        assert_eq!(s.total_work, 30);
        assert_eq!(s.total_comm, 8);
        assert_eq!(s.depth, 2);
        assert_eq!(s.level_width, 4);
        assert_eq!(s.entries, 1);
        assert_eq!(s.exits, 4);
        assert_eq!(s.cp_length, 17);
    }

    #[test]
    fn precedence_levels_of_chain() {
        let mut b = GraphBuilder::new();
        let ids: Vec<_> = (0..4).map(|_| b.add_task(1)).collect();
        for w in ids.windows(2) {
            b.add_edge(w[0], w[1], 0).unwrap();
        }
        let g = b.build().unwrap();
        assert_eq!(precedence_levels(&g), vec![0, 1, 2, 3]);
        let s = GraphStats::of(&g);
        assert_eq!(s.depth, 4);
        assert_eq!(s.level_width, 1);
    }

    #[test]
    fn related_detects_ancestry_both_ways() {
        let g = two_level_fan();
        assert!(related(&g, TaskId(0), TaskId(3)));
        assert!(related(&g, TaskId(3), TaskId(0)));
        assert!(!related(&g, TaskId(1), TaskId(2)));
        assert!(related(&g, TaskId(2), TaskId(2)));
    }

    #[test]
    fn same_level_nodes_form_an_antichain() {
        let g = two_level_fan();
        let lvl = precedence_levels(&g);
        for a in g.tasks() {
            for b in g.tasks() {
                if a < b && lvl[a.index()] == lvl[b.index()] {
                    assert!(
                        !related(&g, a, b),
                        "{a} and {b} share a level but are related"
                    );
                }
            }
        }
    }
}
