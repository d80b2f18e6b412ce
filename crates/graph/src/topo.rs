//! Topological ordering utilities (Kahn's algorithm).

use crate::builder::{filled, unique};
use crate::graph::{TaskGraph, TaskId};
use std::sync::Arc;

/// Deterministic topological order of `g`: Kahn's algorithm with a FIFO
/// frontier seeded with entry nodes in ascending id order. When the edge
/// set is cyclic, returns `Err` with one node that lies on a cycle.
///
/// The order doubles as the FIFO queue (a node is appended when its last
/// parent is popped), so it is written once, straight into the shared
/// slice the graph keeps.
///
/// Determinism matters: the benchmark suites and the schedulers must produce
/// byte-identical results across runs for EXPERIMENTS.md to be reproducible.
pub fn topological_order(g: &TaskGraph) -> Result<Arc<[TaskId]>, TaskId> {
    let v = g.num_tasks();
    let mut indeg: Vec<u32> = (0..v)
        .map(|i| g.in_degree(TaskId(i as u32)) as u32)
        .collect();
    let mut order = filled(v, TaskId(0));
    let queue = unique(&mut order);
    let mut tail = 0;
    for n in (0..v as u32).map(TaskId) {
        if indeg[n.index()] == 0 {
            queue[tail] = n;
            tail += 1;
        }
    }
    let mut head = 0;
    while head < tail {
        let n = queue[head];
        head += 1;
        for &(s, _) in g.succs(n) {
            indeg[s.index()] -= 1;
            if indeg[s.index()] == 0 {
                queue[tail] = s;
                tail += 1;
            }
        }
    }
    if tail == v {
        return Ok(order);
    }
    // Every undrained node lies on or downstream of a cycle and has an
    // undrained predecessor. Walking those from any undrained node must
    // revisit a node, and the repeated node lies on a directed cycle.
    let mut cur = (0..v as u32)
        .map(TaskId)
        .find(|n| indeg[n.index()] > 0)
        .expect("a partial drain leaves a node undrained");
    let mut seen = vec![false; v];
    while !seen[cur.index()] {
        seen[cur.index()] = true;
        cur = g
            .preds(cur)
            .iter()
            .map(|&(p, _)| p)
            .find(|p| indeg[p.index()] > 0)
            .expect("undrained node must have an undrained predecessor");
    }
    Err(cur)
}

/// Whether `order` is a valid topological order of `g`: a permutation of all
/// tasks in which every edge points forward.
pub fn is_topological(g: &TaskGraph, order: &[TaskId]) -> bool {
    if order.len() != g.num_tasks() {
        return false;
    }
    let mut pos = vec![usize::MAX; g.num_tasks()];
    for (i, &n) in order.iter().enumerate() {
        if n.index() >= g.num_tasks() || pos[n.index()] != usize::MAX {
            return false; // out of range or repeated
        }
        pos[n.index()] = i;
    }
    g.edges().all(|e| pos[e.src.index()] < pos[e.dst.index()])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    fn chain(n: usize) -> TaskGraph {
        let mut b = GraphBuilder::new();
        let ids: Vec<_> = (0..n).map(|_| b.add_task(1)).collect();
        for w in ids.windows(2) {
            b.add_edge(w[0], w[1], 1).unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn chain_order_is_the_chain() {
        let g = chain(6);
        let order: Vec<u32> = g.topo_order().iter().map(|t| t.0).collect();
        assert_eq!(order, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn cached_order_is_topological() {
        let g = chain(10);
        assert!(is_topological(&g, g.topo_order()));
    }

    #[test]
    fn is_topological_rejects_backward_edge() {
        let g = chain(3);
        let bad = vec![TaskId(2), TaskId(1), TaskId(0)];
        assert!(!is_topological(&g, &bad));
    }

    #[test]
    fn is_topological_rejects_non_permutation() {
        let g = chain(3);
        assert!(!is_topological(&g, &[TaskId(0), TaskId(0), TaskId(1)]));
        assert!(!is_topological(&g, &[TaskId(0), TaskId(1)]));
    }

    #[test]
    fn cycle_with_a_downstream_node_reports_a_node_on_the_cycle() {
        // 1 → 2 → 3 → 1 plus 3 → 0: node 0 is undrained but not on the
        // cycle.
        let mut b = GraphBuilder::new();
        let n: Vec<_> = (0..4).map(|_| b.add_task(1)).collect();
        for (s, d) in [(1, 2), (2, 3), (3, 1), (3, 0)] {
            b.add_edge(n[s], n[d], 1).unwrap();
        }
        let task = match b.build() {
            Err(crate::GraphError::Cycle { task }) => task,
            other => panic!("expected a cycle error, got {other:?}"),
        };
        assert!((1..=3).contains(&task), "task {task} is not on the cycle");
    }

    #[test]
    fn diamond_parents_precede_children() {
        let mut b = GraphBuilder::new();
        let n0 = b.add_task(1);
        let n1 = b.add_task(1);
        let n2 = b.add_task(1);
        let n3 = b.add_task(1);
        b.add_edge(n0, n1, 0).unwrap();
        b.add_edge(n0, n2, 0).unwrap();
        b.add_edge(n1, n3, 0).unwrap();
        b.add_edge(n2, n3, 0).unwrap();
        let g = b.build().unwrap();
        let pos: std::collections::HashMap<u32, usize> = g
            .topo_order()
            .iter()
            .enumerate()
            .map(|(i, t)| (t.0, i))
            .collect();
        assert!(pos[&0] < pos[&1] && pos[&0] < pos[&2]);
        assert!(pos[&1] < pos[&3] && pos[&2] < pos[&3]);
    }
}
