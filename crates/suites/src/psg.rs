//! PSG — the Peer Set Graphs (§5.1 / §6.1).
//!
//! "Example task graphs used by various researchers and documented in
//! publications … usually small in size but useful in that they can be used
//! to trace the operation of an algorithm by examining the schedule
//! produced." The IPPS'98 paper does not reprint the graphs themselves, so
//! this module encodes nine small instances **in the style of** the classic
//! examples of the cited literature (Kwok–Ahmad DCP '96, Wu–Gajski MCP '90,
//! Yang–Gerasoulis DSC '94, Sih–Lee DLS '93, plus the structured families
//! the early literature assumed). Weights are fixed constants, so every
//! schedule in Table 1 is exactly reproducible and hand-traceable.

use dagsched_graph::{GraphBuilder, TaskGraph, TaskId};

use crate::shapes;

/// The classic nine-node, single-entry / single-exit example in the style of
/// the running example of the Kwok–Ahmad papers. Mixed edge weights (1–10)
/// make the critical path communication-sensitive: zeroing the heavy
/// `n4 → n7` edge is the key scheduling decision.
pub fn classic_nine() -> TaskGraph {
    let mut b = GraphBuilder::named("psg-classic-nine");
    let w = [2u64, 3, 3, 4, 5, 4, 4, 4, 1];
    let n: Vec<TaskId> = w.iter().map(|&w| b.add_task(w)).collect();
    let edges: [(usize, usize, u64); 13] = [
        (0, 1, 4),
        (0, 2, 1),
        (0, 3, 1),
        (0, 4, 1),
        (1, 6, 1),
        (2, 5, 1),
        (2, 6, 5),
        (3, 5, 5),
        (3, 7, 4),
        (4, 7, 10),
        (5, 8, 4),
        (6, 8, 6),
        (7, 8, 5),
    ];
    for (s, d, c) in edges {
        b.add_edge(n[s], n[d], c).unwrap();
    }
    b.build().unwrap()
}

/// A thirteen-node, two-entry irregular graph in the style of the Wu–Gajski
/// MCP/MD examples: two independent sources whose subtrees share a late
/// join, exercising ALAP-based orderings.
pub fn two_entry_thirteen() -> TaskGraph {
    let mut b = GraphBuilder::named("psg-two-entry-thirteen");
    let w = [6u64, 5, 4, 7, 3, 6, 5, 4, 3, 6, 5, 4, 8];
    let n: Vec<TaskId> = w.iter().map(|&w| b.add_task(w)).collect();
    let edges: [(usize, usize, u64); 16] = [
        (0, 2, 3),
        (0, 3, 6),
        (1, 3, 2),
        (1, 4, 8),
        (2, 5, 4),
        (2, 6, 1),
        (3, 6, 7),
        (3, 7, 2),
        (4, 7, 3),
        (5, 8, 5),
        (6, 9, 2),
        (6, 10, 6),
        (7, 10, 4),
        (8, 12, 3),
        (9, 12, 9),
        (10, 11, 1),
    ];
    for (s, d, c) in edges {
        b.add_edge(n[s], n[d], c).unwrap();
    }
    // n11 → n12 closes the join.
    b.add_edge(n[11], n[12], 2).unwrap();
    b.build().unwrap()
}

/// A seven-node graph in the style of the Yang–Gerasoulis DSC example:
/// shallow, join-dominated, where the whole game is which incoming edge of
/// the join to zero.
pub fn join_seven() -> TaskGraph {
    let mut b = GraphBuilder::named("psg-join-seven");
    let w = [3u64, 2, 4, 4, 3, 2, 5];
    let n: Vec<TaskId> = w.iter().map(|&w| b.add_task(w)).collect();
    let edges: [(usize, usize, u64); 8] = [
        (0, 1, 1),
        (0, 2, 6),
        (0, 3, 2),
        (1, 4, 4),
        (2, 4, 1),
        (2, 5, 2),
        (3, 5, 7),
        (4, 6, 5),
    ];
    for (s, d, c) in edges {
        b.add_edge(n[s], n[d], c).unwrap();
    }
    b.add_edge(n[5], n[6], 3).unwrap();
    b.build().unwrap()
}

/// An eight-node graph in the style of the Sih–Lee DLS example: two parallel
/// branches of unequal grain with heavy cross traffic.
pub fn branches_eight() -> TaskGraph {
    let mut b = GraphBuilder::named("psg-branches-eight");
    let w = [4u64, 8, 2, 6, 3, 7, 2, 5];
    let n: Vec<TaskId> = w.iter().map(|&w| b.add_task(w)).collect();
    let edges: [(usize, usize, u64); 10] = [
        (0, 1, 2),
        (0, 2, 9),
        (1, 3, 1),
        (1, 4, 6),
        (2, 4, 2),
        (2, 5, 8),
        (3, 6, 3),
        (4, 6, 1),
        (4, 7, 5),
        (5, 7, 2),
    ];
    for (s, d, c) in edges {
        b.add_edge(n[s], n[d], c).unwrap();
    }
    b.build().unwrap()
}

/// Uneven fork-join: one source fans to five workers of very different
/// grain, then joins. The classic stress test for greedy min-EST processor
/// selection.
pub fn uneven_fork_join() -> TaskGraph {
    let mut b = GraphBuilder::named("psg-uneven-fork-join");
    let src = b.add_task(3);
    let sink_w = 4;
    let worker_w = [12u64, 7, 5, 2, 1];
    let worker_c = [1u64, 3, 5, 8, 13];
    let sink = {
        let workers: Vec<TaskId> = worker_w.iter().map(|&w| b.add_task(w)).collect();
        let sink = b.add_task(sink_w);
        for (i, &m) in workers.iter().enumerate() {
            b.add_edge(src, m, worker_c[i]).unwrap();
            b.add_edge(m, sink, worker_c[i]).unwrap();
        }
        sink
    };
    let _ = sink;
    b.build().unwrap()
}

/// The nine peer-set graphs of this reproduction, in Table-1 row order.
pub fn peer_set() -> Vec<TaskGraph> {
    vec![
        classic_nine(),
        two_entry_thirteen(),
        join_seven(),
        branches_eight(),
        uneven_fork_join(),
        shapes::diamond(5, 4, 3).with_name("psg-diamond-5"),
        shapes::out_tree(3, 2, 5, 4).with_name("psg-out-tree-15"),
        shapes::in_tree(3, 2, 5, 4).with_name("psg-in-tree-15"),
        crate::traced::cholesky(5, 1.0).with_name("psg-cholesky-5"),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use dagsched_graph::levels;

    #[test]
    fn all_peers_validate_and_are_small() {
        let set = peer_set();
        assert_eq!(set.len(), 9);
        for g in &set {
            assert!(g.validate().is_ok(), "{}", g.name());
            assert!(g.num_tasks() <= 32, "{} too big for a peer graph", g.name());
            assert!(!g.name().is_empty());
        }
    }

    #[test]
    fn names_are_unique() {
        let set = peer_set();
        let mut names: Vec<&str> = set.iter().map(|g| g.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), set.len());
    }

    #[test]
    fn classic_nine_hand_checked() {
        let g = classic_nine();
        assert_eq!(g.num_tasks(), 9);
        assert_eq!(g.num_edges(), 13);
        assert_eq!(g.entries().count(), 1);
        assert_eq!(g.exits().count(), 1);
        // CP: n0 →(1) n4 →(10) n7 →(5) n8 = 2+1+5+10+4+5+1 = 28.
        assert_eq!(g.levels().cp_length(), 28);
        let cp: Vec<u32> = levels::critical_path(&g).iter().map(|t| t.0).collect();
        assert_eq!(cp, vec![0, 4, 7, 8]);
    }

    #[test]
    fn two_entry_thirteen_has_two_entries() {
        let g = two_entry_thirteen();
        assert_eq!(g.entries().count(), 2);
        assert_eq!(g.num_tasks(), 13);
    }

    #[test]
    fn join_seven_is_join_dominated() {
        let g = join_seven();
        assert_eq!(g.num_tasks(), 7);
        assert_eq!(g.exits().count(), 1);
        assert!(g.in_degree(dagsched_graph::TaskId(6)) == 2);
    }

    #[test]
    fn peer_graphs_are_deterministic() {
        let a = peer_set();
        let b = peer_set();
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(dagsched_graph::io::to_tgf(x), dagsched_graph::io::to_tgf(y));
        }
    }
}
