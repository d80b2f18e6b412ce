//! UNC — unbounded-number-of-clusters (clustering) scheduling algorithms.
//!
//! The five UNC algorithms of the paper — EZ, LC, DSC, MD, DCP — assume an
//! unlimited supply of fully connected processors (§4): "at the beginning of
//! the scheduling process, each node is considered a cluster; in subsequent
//! steps, two clusters are merged if the merging reduces the completion
//! time". A cluster is identified with a processor throughout.
//!
//! All five produce a [`dagsched_platform::Schedule`] over `v` processors
//! (one per task in the worst case); callers that want dense processor ids
//! can use `Schedule::compact_procs`. The paper's "number of processors
//! used" measure is the count of non-empty clusters.
//!
//! A fixed clustering is timed by one pass (Sarkar's parallel-time
//! estimate, see `time_fixed` in the module source): EZ's merge trials,
//! LC's and EZ's final schedules, and [`mapping`]'s candidate scores and
//! re-timing all go through it.

pub mod dcp;
pub mod dsc;
pub mod ez;
pub mod lc;
pub mod mapping;
pub mod md;

pub use dcp::Dcp;
pub use dsc::Dsc;
pub use ez::Ez;
pub use lc::Lc;
pub use mapping::{map_clusters, ClusterMapping, UncCs};
pub use md::Md;

use dagsched_graph::{TaskGraph, TaskId};
use dagsched_platform::{ProcId, Schedule};

use crate::common::sort_list_order;

/// `finish` of a task the current timing pass has not timed.
const UNTIMED: u64 = u64::MAX;

/// The timing pass over a fixed assignment, the one timing loop for fixed
/// clusterings: each task of `order` runs on processor `assign[n]`,
/// appended after that processor's tail at its data-ready time, where
/// edges within a processor cost 0. Parents not timed earlier in the pass
/// are ignored. `finish` (one entry per task) and `tail` (one per
/// processor) are caller-owned scratch, reset here; afterwards `finish`
/// holds each timed task's finish time. Returns the makespan.
pub(crate) fn time_fixed(
    g: &TaskGraph,
    assign: &[u32],
    order: impl IntoIterator<Item = TaskId>,
    finish: &mut [u64],
    tail: &mut [u64],
) -> u64 {
    finish.fill(UNTIMED);
    tail.fill(0);
    let mut makespan = 0;
    for n in order {
        let p = assign[n.index()];
        let mut drt = 0u64;
        for &(q, c) in g.preds(n) {
            let f = finish[q.index()];
            if f != UNTIMED {
                drt = drt.max(f + if assign[q.index()] == p { 0 } else { c });
            }
        }
        let f = drt.max(tail[p as usize]) + g.weight(n);
        finish[n.index()] = f;
        tail[p as usize] = f;
        makespan = makespan.max(f);
    }
    makespan
}

/// Sarkar's parallel-time estimate of a fixed assignment (cluster =
/// processor): [`time_fixed`] in descending b-level on the *zeroed view*
/// (edges within a cluster cost 0), on scratch reused across calls — EZ
/// prices each tentative merge with one timer.
pub(crate) struct ClusterTimer {
    bl: Vec<u64>,
    order: Vec<TaskId>,
    finish: Vec<u64>,
    tail: Vec<u64>,
}

impl ClusterTimer {
    /// Scratch for `g` on `procs` processors.
    pub(crate) fn new(g: &TaskGraph, procs: usize) -> ClusterTimer {
        ClusterTimer {
            bl: vec![0; g.num_tasks()],
            order: g.tasks().collect(),
            finish: vec![0; g.num_tasks()],
            tail: vec![0; procs],
        }
    }

    /// The parallel time (makespan) of `assign`'s list schedule.
    pub(crate) fn parallel_time(&mut self, g: &TaskGraph, assign: &[u32]) -> u64 {
        zeroed_b_levels(g, assign, &mut self.bl);
        sort_list_order(g, &self.bl, &mut self.order);
        let order = self.order.iter().copied();
        time_fixed(g, assign, order, &mut self.finish, &mut self.tail)
    }
}

/// The list schedule of a fixed assignment onto `procs` processors
/// ([`ClusterTimer`]'s timing): LC's final schedule, EZ's, and the
/// re-timing after cluster mapping.
pub(crate) fn schedule_clustering(g: &TaskGraph, assign: &[u32], procs: usize) -> Schedule {
    let mut timer = ClusterTimer::new(g, procs);
    timer.parallel_time(g, assign);
    let mut s = Schedule::new(g.num_tasks(), procs);
    for &n in &timer.order {
        let w = g.weight(n);
        let start = timer.finish[n.index()] - w;
        s.place(n, ProcId(assign[n.index()]), start, w)
            .expect("the timing pass appends");
    }
    s
}

/// b-levels with intra-cluster edges zeroed, into `bl`.
fn zeroed_b_levels(g: &TaskGraph, clusters: &[u32], bl: &mut [u64]) {
    for &n in g.topo_order().iter().rev() {
        let own = clusters[n.index()];
        let tails = g
            .succs(n)
            .iter()
            .map(|&(sx, c)| bl[sx.index()] + if clusters[sx.index()] == own { 0 } else { c });
        bl[n.index()] = g.weight(n) + tails.max().unwrap_or(0);
    }
}

/// Candidate processor set used by DCP: processors that hold a parent or a
/// child of `n`, plus the first completely idle processor (a "fresh
/// cluster"), deduplicated ascending. When nothing is placed yet this is
/// just the first processor.
pub(crate) fn neighbourhood_procs(g: &TaskGraph, s: &Schedule, n: TaskId) -> Vec<ProcId> {
    let mut out: Vec<ProcId> = Vec::new();
    for &(q, _) in g.preds(n).iter().chain(g.succs(n).iter()) {
        if let Some(p) = s.proc_of(q) {
            out.push(p);
        }
    }
    // First idle processor = a fresh cluster.
    for pi in 0..s.num_procs() as u32 {
        if s.timeline(ProcId(pi)).is_empty() {
            out.push(ProcId(pi));
            break;
        }
    }
    out.sort_unstable();
    out.dedup();
    out
}

#[cfg(test)]
pub(crate) mod testutil {
    //! Shared fixtures for UNC algorithm tests.

    use crate::{AlgoClass, Env, Outcome, Scheduler};
    use dagsched_graph::TaskGraph;

    pub use crate::bnp::testutil::{chain4, classic_nine, independent};

    /// Run a UNC algorithm (env is ignored by the class, but passed for the
    /// trait) and validate.
    pub fn run(algo: &dyn Scheduler, g: &TaskGraph) -> Outcome {
        assert_eq!(algo.class(), AlgoClass::Unc);
        let out = algo
            .schedule(g, &Env::bnp(1))
            .expect("UNC scheduling must succeed");
        out.validate(g)
            .unwrap_or_else(|e| panic!("{} invalid: {e}", algo.name()));
        out
    }

    /// Contract every clustering algorithm must meet.
    pub fn standard_contract(algo: &dyn Scheduler) {
        // Heavy-comm chain: one cluster, length Σw.
        let chain = chain4();
        let out = run(algo, &chain);
        assert_eq!(
            out.schedule.makespan(),
            20,
            "{}: chain must be one cluster",
            algo.name()
        );
        assert_eq!(out.schedule.procs_used(), 1, "{}", algo.name());

        // Independent tasks: unlimited clusters ⇒ full parallelism.
        let ind = independent(6, 7);
        let out = run(algo, &ind);
        assert_eq!(out.schedule.makespan(), 7, "{}", algo.name());
        assert_eq!(out.schedule.procs_used(), 6, "{}", algo.name());

        // Classic nine: never worse than fully serial, never better than
        // the computation critical path; UNC must beat the zero-merging
        // upper bound too (CP with all comm = 28 here… the unmerged
        // clustering's makespan).
        let g = classic_nine();
        let out = run(algo, &g);
        let m = out.schedule.makespan();
        assert!(m >= 12, "{}: below CP computation bound: {m}", algo.name());
        assert!(
            m <= g.total_work(),
            "{}: worse than serial: {m}",
            algo.name()
        );

        // Determinism.
        let again = run(algo, &g);
        for n in g.tasks() {
            assert_eq!(
                out.schedule.placement(n),
                again.schedule.placement(n),
                "{} nondeterministic",
                algo.name()
            );
        }

        // Single node.
        let mut b = dagsched_graph::GraphBuilder::new();
        b.add_task(5);
        let single = b.build().unwrap();
        let out = run(algo, &single);
        assert_eq!(out.schedule.makespan(), 5, "{}", algo.name());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dagsched_graph::GraphBuilder;

    fn fork() -> TaskGraph {
        // a → {b, c} with costs 10 each; w = 2 everywhere.
        let mut gb = GraphBuilder::new();
        let a = gb.add_task(2);
        let b = gb.add_task(2);
        let c = gb.add_task(2);
        gb.add_edge(a, b, 10).unwrap();
        gb.add_edge(a, c, 10).unwrap();
        gb.build().unwrap()
    }

    fn parallel_time(g: &TaskGraph, clusters: &[u32]) -> u64 {
        ClusterTimer::new(g, g.num_tasks()).parallel_time(g, clusters)
    }

    #[test]
    fn identity_clustering_pays_all_comm() {
        let g = fork();
        let clusters: Vec<u32> = (0..3).collect();
        // a at 0..2; b, c both start at 12.
        assert_eq!(parallel_time(&g, &clusters), 14);
    }

    #[test]
    fn merging_zeroes_comm() {
        let g = fork();
        // {a, b} together, c alone: b starts at 2 locally; c at 12.
        let clusters = vec![0, 0, 2];
        assert_eq!(parallel_time(&g, &clusters), 14);
        // All together: serial 6 < 14.
        let clusters = vec![0, 0, 0];
        assert_eq!(parallel_time(&g, &clusters), 6);
    }

    #[test]
    fn one_timer_times_many_clusterings() {
        // Reused scratch carries nothing from one clustering to the next.
        let g = fork();
        let mut timer = ClusterTimer::new(&g, 3);
        for (clusters, pt) in [
            ([0, 1, 2], 14),
            ([0, 0, 0], 6),
            ([0, 0, 2], 14),
            ([0, 0, 0], 6),
        ] {
            assert_eq!(timer.parallel_time(&g, &clusters), pt);
        }
    }

    #[test]
    fn timing_pass_ignores_untimed_parents() {
        // Timing only b and c: a is never timed, so its edges are ignored
        // and both are ready at 0; on one processor c appends behind b.
        let g = fork();
        let (mut finish, mut tail) = ([0; 3], [0; 2]);
        let order = [TaskId(1), TaskId(2)];
        assert_eq!(time_fixed(&g, &[0, 0, 1], order, &mut finish, &mut tail), 2);
        assert_eq!(finish[1..], [2, 2]);
        assert_eq!(time_fixed(&g, &[0, 1, 1], order, &mut finish, &mut tail), 4);
        assert_eq!(finish[0], UNTIMED);
    }

    #[test]
    fn zeroed_b_levels_reflect_clustering() {
        let g = fork();
        let mut bl = [0; 3];
        zeroed_b_levels(&g, &[0, 1, 2], &mut bl);
        assert_eq!(bl[0], 2 + 10 + 2);
        zeroed_b_levels(&g, &[0, 0, 0], &mut bl);
        assert_eq!(bl[0], 2 + 2);
    }

    #[test]
    fn schedule_clustering_respects_cluster_assignment() {
        let g = fork();
        let clusters = vec![0u32, 0, 2];
        let s = schedule_clustering(&g, &clusters, 3);
        assert_eq!(s.proc_of(TaskId(0)), Some(ProcId(0)));
        assert_eq!(s.proc_of(TaskId(1)), Some(ProcId(0)));
        assert_eq!(s.proc_of(TaskId(2)), Some(ProcId(2)));
        assert!(s.validate(&g).is_ok());
    }

    #[test]
    fn neighbourhood_includes_parents_and_fresh() {
        let g = fork();
        let mut s = Schedule::new(3, 3);
        s.place(TaskId(0), ProcId(1), 0, 2).unwrap();
        let cands = neighbourhood_procs(&g, &s, TaskId(1));
        // parent on P1 + first idle P0.
        assert_eq!(cands, vec![ProcId(0), ProcId(1)]);
    }
}
