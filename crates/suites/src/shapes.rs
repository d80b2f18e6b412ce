//! Parametric structural graph families: chains, trees, fork-joins,
//! diamonds, pipelines.
//!
//! The earliest scheduling literature (§4 of the paper: Hu '61, Coffman–
//! Graham '72) assumed graphs of special structure; these families both
//! serve as easy-to-reason-about test fixtures and as members of the peer
//! set. All weights are caller-provided constants, so hand-computed optima
//! stay hand-computable.

use dagsched_graph::{GraphBuilder, TaskGraph, TaskId};

/// Linear chain of `n` tasks: `0 → 1 → … → n−1`.
pub fn chain(n: usize, w: u64, c: u64) -> TaskGraph {
    assert!(n >= 1);
    let mut b = GraphBuilder::named(format!("chain-{n}"));
    let ids: Vec<_> = (0..n).map(|_| b.add_task(w)).collect();
    for win in ids.windows(2) {
        b.add_edge(win[0], win[1], c).unwrap();
    }
    b.build().unwrap()
}

/// Fork-join: a source, `width` independent middle tasks, a sink.
pub fn fork_join(width: usize, w: u64, c: u64) -> TaskGraph {
    assert!(width >= 1);
    let mut b = GraphBuilder::named(format!("fork-join-{width}"));
    let src = b.add_task(w);
    let sink_weight = w;
    let mids: Vec<_> = (0..width).map(|_| b.add_task(w)).collect();
    let sink = b.add_task(sink_weight);
    for m in &mids {
        b.add_edge(src, *m, c).unwrap();
        b.add_edge(*m, sink, c).unwrap();
    }
    b.build().unwrap()
}

/// Complete out-tree (root spreads work): `fanout^0 + … + fanout^depth`
/// nodes.
pub fn out_tree(depth: usize, fanout: usize, w: u64, c: u64) -> TaskGraph {
    assert!(fanout >= 1);
    let mut b = GraphBuilder::named(format!("out-tree-d{depth}-f{fanout}"));
    let root = b.add_task(w);
    let mut frontier = vec![root];
    for _ in 0..depth {
        let mut next = Vec::new();
        for parent in frontier {
            for _ in 0..fanout {
                let child = b.add_task(w);
                b.add_edge(parent, child, c).unwrap();
                next.push(child);
            }
        }
        frontier = next;
    }
    b.build().unwrap()
}

/// Complete in-tree (reduction): mirror image of [`out_tree`].
pub fn in_tree(depth: usize, fanin: usize, w: u64, c: u64) -> TaskGraph {
    assert!(fanin >= 1);
    let mut b = GraphBuilder::named(format!("in-tree-d{depth}-f{fanin}"));
    // Build level by level from the leaves down to the root.
    let mut level: Vec<TaskId> = (0..fanin.pow(depth as u32))
        .map(|_| b.add_task(w))
        .collect();
    while level.len() > 1 {
        let mut next = Vec::new();
        for chunk in level.chunks(fanin) {
            let parent = b.add_task(w);
            for &c_id in chunk {
                b.add_edge(c_id, parent, c).unwrap();
            }
            next.push(parent);
        }
        level = next;
    }
    b.build().unwrap()
}

/// Diamond lattice of `levels` rows: row `r` has `min(r+1, levels−r)` …
/// specifically the widths go `1, 2, …, k, …, 2, 1` for `levels = 2k−1`.
/// Each node feeds the one or two nodes below it, like Pascal's triangle
/// glued to its mirror image.
pub fn diamond(levels: usize, w: u64, c: u64) -> TaskGraph {
    assert!(
        levels >= 1 && levels % 2 == 1,
        "diamond needs an odd level count"
    );
    let k = levels / 2; // widths 1..=k+1..=1
    let width_of = |r: usize| if r <= k { r + 1 } else { levels - r };
    let mut b = GraphBuilder::named(format!("diamond-{levels}"));
    let mut rows: Vec<Vec<TaskId>> = Vec::with_capacity(levels);
    for r in 0..levels {
        rows.push((0..width_of(r)).map(|_| b.add_task(w)).collect());
    }
    for r in 0..levels - 1 {
        let (cur, nxt) = (&rows[r], &rows[r + 1]);
        if nxt.len() > cur.len() {
            // expanding: node i feeds i and i+1
            for (i, &n) in cur.iter().enumerate() {
                b.add_edge(n, nxt[i], c).unwrap();
                b.add_edge(n, nxt[i + 1], c).unwrap();
            }
        } else {
            // contracting: node i of next row is fed by i and i+1
            for (i, &m) in nxt.iter().enumerate() {
                b.add_edge(cur[i], m, c).unwrap();
                b.add_edge(cur[i + 1], m, c).unwrap();
            }
        }
    }
    b.build().unwrap()
}

/// `lanes` parallel chains of `stages` tasks with cross links between
/// consecutive stages (a software pipeline with data exchange).
pub fn pipeline(stages: usize, lanes: usize, w: u64, c: u64) -> TaskGraph {
    assert!(stages >= 1 && lanes >= 1);
    let mut b = GraphBuilder::named(format!("pipeline-{stages}x{lanes}"));
    let grid: Vec<Vec<TaskId>> = (0..stages)
        .map(|_| (0..lanes).map(|_| b.add_task(w)).collect())
        .collect();
    for s in 0..stages - 1 {
        for l in 0..lanes {
            b.add_edge(grid[s][l], grid[s + 1][l], c).unwrap();
            if l + 1 < lanes {
                b.add_edge(grid[s][l], grid[s + 1][l + 1], c).unwrap();
            }
        }
    }
    b.build().unwrap()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dagsched_graph::{levels, GraphStats};

    #[test]
    fn chain_cp_is_everything() {
        let g = chain(5, 3, 2);
        assert_eq!(g.num_tasks(), 5);
        assert_eq!(g.levels().cp_length(), 5 * 3 + 4 * 2);
        assert_eq!(levels::cp_computation(&g), 15);
    }

    #[test]
    fn fork_join_shape() {
        let g = fork_join(4, 2, 1);
        assert_eq!(g.num_tasks(), 6);
        assert_eq!(g.num_edges(), 8);
        assert_eq!(g.entries().count(), 1);
        assert_eq!(g.exits().count(), 1);
        assert_eq!(g.levels().cp_length(), 2 + 1 + 2 + 1 + 2);
    }

    #[test]
    fn out_tree_counts() {
        let g = out_tree(3, 2, 1, 1);
        assert_eq!(g.num_tasks(), 1 + 2 + 4 + 8);
        assert_eq!(g.exits().count(), 8);
    }

    #[test]
    fn in_tree_counts() {
        let g = in_tree(3, 2, 1, 1);
        assert_eq!(g.num_tasks(), 15);
        assert_eq!(g.entries().count(), 8);
        assert_eq!(g.exits().count(), 1);
    }

    #[test]
    fn diamond_is_symmetric() {
        let g = diamond(5, 1, 1);
        // widths 1,2,3,2,1 → 9 nodes
        assert_eq!(g.num_tasks(), 9);
        assert_eq!(g.entries().count(), 1);
        assert_eq!(g.exits().count(), 1);
        let s = GraphStats::of(&g);
        assert_eq!(s.depth, 5);
        assert_eq!(s.level_width, 3);
    }

    #[test]
    fn pipeline_grid() {
        let g = pipeline(3, 4, 2, 1);
        assert_eq!(g.num_tasks(), 12);
        assert_eq!(g.entries().count(), 4);
        // per stage transition: lanes + (lanes-1) edges, 2 transitions
        assert_eq!(g.num_edges(), 2 * (4 + 3));
    }

    #[test]
    fn all_shapes_validate() {
        for g in [
            chain(7, 2, 3),
            fork_join(5, 1, 9),
            out_tree(2, 3, 4, 4),
            in_tree(2, 3, 4, 4),
            diamond(7, 2, 2),
            pipeline(4, 4, 3, 1),
        ] {
            assert!(g.validate().is_ok(), "{}", g.name());
        }
    }
}
