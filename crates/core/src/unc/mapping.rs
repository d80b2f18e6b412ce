//! Cluster scheduling (CS): mapping UNC clusters onto a bounded machine.
//!
//! §7 of the paper: "In UNC algorithms, clusters obtained through
//! scheduling are assigned to a bounded number of processors. … Two such
//! algorithms called Sarkar's assignment algorithm and Yang's RCP
//! algorithm are described in \[28\] and \[33\]. … It would be an interesting
//! study to compare the BNP approach with the UNC+CS approach." This
//! module implements both mappers plus the [`UncCs`] adapter that turns
//! any UNC algorithm into a BNP-class scheduler, making that study
//! runnable (see the `unc_cs` ablation table in EXPERIMENTS.md).
//!
//! * [`ClusterMapping::Sarkar`] — order-aware: clusters are visited in
//!   order of their earliest task start; each is tentatively merged onto
//!   every physical processor and the choice minimizing the re-simulated
//!   schedule length wins ("combines the cluster merging and ordering
//!   nodes into one step, considering the execution order").
//! * [`ClusterMapping::Rcp`] — order-free and cheap, after Yang's RCP:
//!   clusters sorted by descending total work go to the least-loaded
//!   processor ("merges clusters without considering the execution order,
//!   which may lead to a poor decision on merging; however, RCP has a
//!   lower complexity").
//!
//! After mapping, tasks are re-timed by the same b-level list scheduling
//! used throughout the UNC class, with co-located communication zeroed.
//! Sarkar's candidate score and that re-timing both run the class's one
//! timing pass for fixed assignments (see the [`super`] module docs).

use dagsched_graph::{TaskGraph, TaskId};
use dagsched_platform::Schedule;

use super::{schedule_clustering, time_fixed};
use crate::{AlgoClass, Env, Outcome, SchedError, Scheduler};

/// Which cluster-to-processor assignment strategy to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClusterMapping {
    /// Sarkar's order-aware assignment (better, slower).
    Sarkar,
    /// Yang's RCP-style load balancing (cheaper, order-blind).
    Rcp,
}

/// Map the clusters of `unc_schedule` onto `procs` physical processors and
/// re-time the tasks. The input schedule's processor ids are treated as
/// cluster ids (exactly what every UNC algorithm here produces).
pub fn map_clusters(
    g: &TaskGraph,
    unc_schedule: &Schedule,
    procs: usize,
    method: ClusterMapping,
) -> Schedule {
    assert!(procs >= 1);
    // Collect clusters: (earliest start, total work, member tasks).
    let mut clusters: Vec<(u64, u64, Vec<TaskId>)> = Vec::new();
    for p in unc_schedule.used_procs() {
        let tasks = unc_schedule.tasks_on(p);
        let start = tasks
            .iter()
            .map(|&t| unc_schedule.start_of(t).expect("complete"))
            .min()
            .expect("non-empty cluster");
        let work = tasks.iter().map(|&t| g.weight(t)).sum();
        clusters.push((start, work, tasks));
    }

    // proc_of_cluster decision per strategy.
    let mut assign: Vec<u32> = vec![0; g.num_tasks()]; // task → physical proc
    match method {
        ClusterMapping::Rcp => {
            clusters.sort_by_key(|&(start, work, _)| (std::cmp::Reverse(work), start));
            let mut load = vec![0u64; procs];
            for (_, work, tasks) in &clusters {
                let target = (0..procs)
                    .min_by_key(|&i| (load[i], i))
                    .expect("procs >= 1");
                load[target] += work;
                for &t in tasks {
                    assign[t.index()] = target as u32;
                }
            }
        }
        ClusterMapping::Sarkar => {
            clusters.sort_by_key(|&(start, _, ref tasks)| (start, tasks[0]));
            // Score a candidate by timing the tasks mapped so far plus the
            // current cluster in topological order, on the physical
            // machine; unmapped clusters are never timed, so their edges
            // do not count. Exact timing happens in the final re-timing.
            let mut included = vec![false; g.num_tasks()];
            let (mut finish, mut tail) = (vec![0; g.num_tasks()], vec![0; procs]);
            for (_, _, tasks) in &clusters {
                for &t in tasks {
                    included[t.index()] = true;
                }
                let mut best: Option<(u64, u32)> = None;
                for cand in 0..procs as u32 {
                    for &t in tasks {
                        assign[t.index()] = cand;
                    }
                    let order = g.topo_order().iter().copied();
                    let order = order.filter(|t| included[t.index()]);
                    let len = time_fixed(g, &assign, order, &mut finish, &mut tail);
                    if best.is_none_or(|b| (len, cand) < b) {
                        best = Some((len, cand));
                    }
                }
                let (_, chosen) = best.expect("at least one candidate");
                for &t in tasks {
                    assign[t.index()] = chosen;
                }
            }
        }
    }

    // Final re-timing: b-level list scheduling on the physical machine with
    // the fixed assignment.
    schedule_clustering(g, &assign, procs)
}

/// Adapter: a UNC algorithm plus a cluster-scheduling pass, presented as a
/// BNP-class scheduler (bounded machine in, bounded machine out).
pub struct UncCs<S> {
    pub inner: S,
    pub mapping: ClusterMapping,
}

impl<S: Scheduler> Scheduler for UncCs<S> {
    fn name(&self) -> &'static str {
        // The adapter reports the inner algorithm's name; harness tables
        // label the mapping variant themselves.
        self.inner.name()
    }

    fn class(&self) -> AlgoClass {
        AlgoClass::Bnp
    }

    fn schedule(&self, g: &TaskGraph, env: &Env) -> Result<Outcome, SchedError> {
        crate::common::require_procs(env)?;
        let unc = self.inner.schedule(g, env)?;
        let schedule = map_clusters(g, &unc.schedule, env.procs(), self.mapping);
        Ok(Outcome {
            schedule,
            network: None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::unc::{testutil, Dcp, Dsc, Lc};

    #[test]
    fn rcp_mapping_respects_processor_bound() {
        let g = testutil::classic_nine();
        let unc = testutil::run(&Lc, &g);
        for procs in [1usize, 2, 4] {
            let s = map_clusters(&g, &unc.schedule, procs, ClusterMapping::Rcp);
            assert!(s.validate(&g).is_ok());
            assert!(s.procs_used() <= procs);
        }
    }

    #[test]
    fn sarkar_mapping_respects_processor_bound() {
        let g = testutil::classic_nine();
        let unc = testutil::run(&Dsc, &g);
        for procs in [1usize, 2, 4] {
            let s = map_clusters(&g, &unc.schedule, procs, ClusterMapping::Sarkar);
            assert!(s.validate(&g).is_ok());
            assert!(s.procs_used() <= procs);
        }
    }

    #[test]
    fn one_processor_mapping_serializes() {
        let g = testutil::classic_nine();
        let unc = testutil::run(&Dcp::default(), &g);
        for m in [ClusterMapping::Sarkar, ClusterMapping::Rcp] {
            let s = map_clusters(&g, &unc.schedule, 1, m);
            assert_eq!(s.makespan(), g.total_work());
        }
    }

    #[test]
    fn adapter_behaves_like_a_bnp_scheduler() {
        let adapter = UncCs {
            inner: Dcp::default(),
            mapping: ClusterMapping::Sarkar,
        };
        assert_eq!(adapter.class(), AlgoClass::Bnp);
        let g = testutil::classic_nine();
        let out = adapter.schedule(&g, &crate::Env::bnp(3)).unwrap();
        out.validate(&g).unwrap();
        assert!(out.schedule.procs_used() <= 3);
        assert!(out.schedule.makespan() >= 12);
    }

    #[test]
    fn mapping_preserves_cluster_colocation() {
        // Tasks sharing a UNC cluster must share a physical processor.
        let g = testutil::classic_nine();
        let unc = testutil::run(&Dsc, &g);
        let s = map_clusters(&g, &unc.schedule, 3, ClusterMapping::Rcp);
        for p in unc.schedule.used_procs() {
            let members = unc.schedule.tasks_on(p);
            let target = s.proc_of(members[0]);
            for &t in &members {
                assert_eq!(s.proc_of(t), target, "{t} split from its cluster");
            }
        }
    }

    #[test]
    fn sarkar_not_worse_than_rcp_on_average_fixture() {
        // Order-aware mapping should beat blind load balance on a
        // communication-sensitive fixture (loose: allow ties).
        let g = testutil::classic_nine();
        let unc = testutil::run(&Dsc, &g);
        let sarkar = map_clusters(&g, &unc.schedule, 2, ClusterMapping::Sarkar).makespan();
        let rcp = map_clusters(&g, &unc.schedule, 2, ClusterMapping::Rcp).makespan();
        assert!(
            sarkar <= rcp + 5,
            "Sarkar {sarkar} much worse than RCP {rcp}"
        );
    }
}
