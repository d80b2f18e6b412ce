//! EZ — Edge Zeroing (Sarkar, 1989).
//!
//! Taxonomy (§3): **static list** (edges sorted once, by weight descending),
//! non-greedy in processor choice (clusters are merged, never picked by
//! EST), not CP-based.
//!
//! The algorithm walks the edges from heaviest to lightest; for each edge
//! joining two distinct clusters it *tentatively* merges them and keeps the
//! merge iff the estimated parallel time — the makespan of the clustering's
//! list schedule, see `ClusterTimer` (module source) — does not increase.
//!
//! Complexity: O(e · (v log v + e)). Each of the `e` merge trials
//! relabels a reused trial clustering, recomputes its zeroed b-levels,
//! re-sorts the list and runs one timing pass, all on arrays allocated
//! once per run; no `Schedule` is built until the final one. The paper
//! groups EZ mid-field on running time among UNC algorithms.

use dagsched_graph::TaskGraph;

use super::ClusterTimer;
use crate::{AlgoClass, Env, Outcome, SchedError, Scheduler};

/// The EZ scheduler.
#[derive(Debug, Default, Clone, Copy)]
pub struct Ez;

impl Scheduler for Ez {
    fn name(&self) -> &'static str {
        "EZ"
    }

    fn class(&self) -> AlgoClass {
        AlgoClass::Unc
    }

    fn schedule(&self, g: &TaskGraph, _env: &Env) -> Result<Outcome, SchedError> {
        let v = g.num_tasks();
        let mut clusters: Vec<u32> = (0..v as u32).collect();
        let mut trial = clusters.clone();
        let mut timer = ClusterTimer::new(g, v);
        let mut best_pt = timer.parallel_time(g, &clusters);

        // Heaviest edges first; ties by (src, dst) ascending for determinism.
        let mut edges: Vec<_> = g.edges().collect();
        edges.sort_by_key(|e| (std::cmp::Reverse(e.cost), e.src, e.dst));

        for e in edges {
            let (cu, cv) = (clusters[e.src.index()], clusters[e.dst.index()]);
            if cu == cv {
                continue; // already zeroed by an earlier merge
            }
            // Tentative merge: relabel the higher cluster id into the lower.
            let (keep, fold) = (cu.min(cv), cu.max(cv));
            for (t, &c) in trial.iter_mut().zip(&clusters) {
                *t = if c == fold { keep } else { c };
            }
            let pt = timer.parallel_time(g, &trial);
            if pt <= best_pt {
                std::mem::swap(&mut clusters, &mut trial);
                best_pt = pt;
            }
        }

        let schedule = super::schedule_clustering(g, &clusters, v);
        debug_assert_eq!(schedule.makespan(), best_pt);
        Ok(Outcome {
            schedule,
            network: None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::unc::testutil;
    use dagsched_graph::GraphBuilder;

    #[test]
    fn satisfies_unc_contract() {
        testutil::standard_contract(&Ez);
    }

    #[test]
    fn zeroes_the_heavy_edge_first() {
        // a →(100) b and a →(1) c: EZ must merge {a, b}; merging c too would
        // serialize it behind b for no benefit (pt grows), so c stays out.
        let mut gb = GraphBuilder::new();
        let a = gb.add_task(5);
        let b = gb.add_task(5);
        let c = gb.add_task(5);
        gb.add_edge(a, b, 100).unwrap();
        gb.add_edge(a, c, 1).unwrap();
        let g = gb.build().unwrap();
        let out = testutil::run(&Ez, &g);
        assert_eq!(
            out.schedule.proc_of(dagsched_graph::TaskId(0)),
            out.schedule.proc_of(dagsched_graph::TaskId(1))
        );
        // pt: a[0,5) b[5,10) same cluster; c starts 5+1=6 elsewhere → 11.
        assert_eq!(out.schedule.makespan(), 11);
        assert_eq!(out.schedule.procs_used(), 2);
    }

    #[test]
    fn never_inflates_parallel_time() {
        // EZ accepts only non-increasing merges, so its result can never be
        // worse than the identity clustering.
        let g = testutil::classic_nine();
        let identity: Vec<u32> = (0..g.num_tasks() as u32).collect();
        let baseline = ClusterTimer::new(&g, g.num_tasks()).parallel_time(&g, &identity);
        let out = testutil::run(&Ez, &g);
        assert!(out.schedule.makespan() <= baseline);
    }

    #[test]
    fn join_graph_merges_toward_the_join() {
        // Two chains joining at a sink with asymmetric comm: the heavier
        // side must share the sink's cluster.
        let mut gb = GraphBuilder::new();
        let l = gb.add_task(4);
        let r = gb.add_task(4);
        let sink = gb.add_task(4);
        gb.add_edge(l, sink, 50).unwrap();
        gb.add_edge(r, sink, 2).unwrap();
        let g = gb.build().unwrap();
        let out = testutil::run(&Ez, &g);
        assert_eq!(
            out.schedule.proc_of(dagsched_graph::TaskId(0)),
            out.schedule.proc_of(dagsched_graph::TaskId(2))
        );
        // l[0,4) with sink on one cluster; r's message still arrives at
        // 4 + 2 = 6, so sink runs [6,10): parallel time 10 (identity
        // clustering would have been 58).
        assert_eq!(out.schedule.makespan(), 10);
    }
}
