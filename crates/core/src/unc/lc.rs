//! LC — Linear Clustering (Kim & Browne, 1988).
//!
//! Taxonomy (§3): **static**, CP-based, non-greedy. LC repeatedly extracts
//! the current critical path of the *remaining* graph (edge costs included),
//! makes its nodes one linear cluster (zeroing their mutual edges), removes
//! them, and recurses on the rest. Every cluster is therefore a chain —
//! "linear" clustering — and the number of clusters equals the number of
//! extracted paths.
//!
//! The paper notes LC pays no attention to processor economy (Fig. 3(b):
//! LC and EZ use the most processors) and is the fastest UNC algorithm
//! (Table 6).
//!
//! Complexity: O(v · (v + e)) — each extraction is one level computation.

use dagsched_graph::{TaskGraph, TaskId};

use crate::{AlgoClass, Env, Outcome, SchedError, Scheduler};

/// The LC scheduler.
#[derive(Debug, Default, Clone, Copy)]
pub struct Lc;

impl Scheduler for Lc {
    fn name(&self) -> &'static str {
        "LC"
    }

    fn class(&self) -> AlgoClass {
        AlgoClass::Unc
    }

    fn schedule(&self, g: &TaskGraph, _env: &Env) -> Result<Outcome, SchedError> {
        let v = g.num_tasks();
        let mut clusters: Vec<u32> = vec![u32::MAX; v];
        let mut marked = vec![false; v];
        let mut next_cluster = 0u32;
        let mut remaining = v;

        while remaining > 0 {
            let path = critical_path_unmarked(g, &marked);
            debug_assert!(!path.is_empty());
            for &n in &path {
                clusters[n.index()] = next_cluster;
                marked[n.index()] = true;
            }
            remaining -= path.len();
            next_cluster += 1;
        }

        let schedule = super::schedule_clustering(g, &clusters, v);
        Ok(Outcome {
            schedule,
            network: None,
        })
    }
}

/// Critical path of the subgraph induced by unmarked nodes (edge costs
/// included), deterministic smallest-id tie-breaks.
fn critical_path_unmarked(g: &TaskGraph, marked: &[bool]) -> Vec<TaskId> {
    // b-levels over unmarked nodes, using only unmarked→unmarked edges.
    let mut bl = vec![0u64; g.num_tasks()];
    for &n in g.topo_order().iter().rev() {
        if marked[n.index()] {
            continue;
        }
        let mut best = 0u64;
        for &(s, c) in g.succs(n) {
            if !marked[s.index()] {
                best = best.max(c + bl[s.index()]);
            }
        }
        bl[n.index()] = g.weight(n) + best;
    }
    // Start: unmarked node with no unmarked predecessor, max b-level.
    let start = g
        .tasks()
        .filter(|&n| !marked[n.index()])
        .filter(|&n| g.preds(n).iter().all(|&(p, _)| marked[p.index()]))
        .max_by_key(|&n| (bl[n.index()], std::cmp::Reverse(n.0)));
    let Some(mut cur) = start else {
        return Vec::new();
    };
    let mut path = vec![cur];
    loop {
        let need = bl[cur.index()] - g.weight(cur);
        let next = g
            .succs(cur)
            .iter()
            .filter(|&&(s, c)| !marked[s.index()] && c + bl[s.index()] == need)
            .map(|&(s, _)| s)
            .min();
        match next {
            Some(s) if need > 0 => {
                path.push(s);
                cur = s;
            }
            _ => return path,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::unc::testutil;
    use dagsched_graph::GraphBuilder;

    #[test]
    fn satisfies_unc_contract() {
        testutil::standard_contract(&Lc);
    }

    #[test]
    fn clusters_are_linear_chains() {
        let g = testutil::classic_nine();
        let out = testutil::run(&Lc, &g);
        // Within each used processor, consecutive tasks must be connected by
        // an edge (linearity) — the defining property of LC.
        for p in out.schedule.used_procs() {
            let tasks = out.schedule.tasks_on(p);
            for w in tasks.windows(2) {
                assert!(
                    g.has_edge(w[0], w[1]),
                    "cluster on {p} is not linear: {} !→ {}",
                    w[0],
                    w[1]
                );
            }
        }
    }

    #[test]
    fn first_cluster_is_the_static_cp() {
        let g = testutil::classic_nine();
        let cp = dagsched_graph::levels::critical_path(&g);
        let out = testutil::run(&Lc, &g);
        let p0 = out.schedule.proc_of(cp[0]).unwrap();
        for n in &cp {
            assert_eq!(out.schedule.proc_of(*n), Some(p0), "{n} off the CP cluster");
        }
    }

    #[test]
    fn parallel_chains_get_separate_clusters() {
        // Two disjoint chains: two clusters, fully parallel.
        let mut gb = GraphBuilder::new();
        let a1 = gb.add_task(5);
        let a2 = gb.add_task(5);
        let b1 = gb.add_task(3);
        let b2 = gb.add_task(3);
        gb.add_edge(a1, a2, 4).unwrap();
        gb.add_edge(b1, b2, 4).unwrap();
        let g = gb.build().unwrap();
        let out = testutil::run(&Lc, &g);
        assert_eq!(out.schedule.procs_used(), 2);
        assert_eq!(out.schedule.makespan(), 10);
    }
}
