//! BU — Bottom-Up scheduling (Mehdiratta & Ghose, 1994).
//!
//! Taxonomy (§3): **static list**, two-phase, network-aware. Phase one
//! walks the graph *bottom-up* (reverse topological order) assigning each
//! task a processor by communication affinity — stay with the child you
//! exchange the most data with — under a load-balance guard; phase two
//! walks top-down, list-scheduling the tasks onto their pre-assigned
//! processors in b-level list order ([`crate::common::list_order`]) and
//! committing the messages onto links.
//!
//! The original's boundary-refinement details are under-specified in print;
//! the rule here preserves its defining trait — the assignment is made
//! *before* any timing information exists: walking bottom-up, each task
//! goes to the processor minimizing `accumulated load + Σ cross-processor
//! edge costs to its already-assigned children`. That single expression is
//! the affinity/balance trade-off: heavy edges pull a task onto its
//! children's processor until the load term outweighs them. Timing-free
//! assignment is why BU is the fastest APN algorithm (Table 6) but trails
//! BSA on schedule quality for large graphs (Fig. 2(c)). Recorded in
//! DESIGN.md §2.

use dagsched_graph::TaskGraph;
use dagsched_platform::ProcId;

use crate::common::list_order;
use crate::{AlgoClass, Env, Outcome, SchedError, Scheduler};

use super::ApnState;

/// The BU scheduler.
#[derive(Debug, Default, Clone, Copy)]
pub struct Bu;

impl Scheduler for Bu {
    fn name(&self) -> &'static str {
        "BU"
    }

    fn class(&self) -> AlgoClass {
        AlgoClass::Apn
    }

    fn schedule(&self, g: &TaskGraph, env: &Env) -> Result<Outcome, SchedError> {
        let mut st = ApnState::new(g, env);
        let procs = st.s.num_procs();

        // Phase 1: bottom-up processor assignment. For each task (children
        // first), choose the processor minimizing
        //   load[p] + Σ_{assigned children c} (proc(c) != p) · c(n, c),
        // ties to the smaller processor id.
        let mut assignment: Vec<ProcId> = vec![ProcId(0); g.num_tasks()];
        let mut load = vec![0u64; procs];
        for &n in g.topo_order().iter().rev() {
            let mut best = (u64::MAX, ProcId(0));
            for pi in 0..procs as u32 {
                let p = ProcId(pi);
                let remote_comm: u64 = g
                    .succs(n)
                    .iter()
                    .filter(|&&(c, _)| assignment[c.index()] != p)
                    .map(|&(_, cost)| cost)
                    .sum();
                let score = load[p.index()] + remote_comm;
                if score < best.0 {
                    best = (score, p);
                }
            }
            let chosen = best.1;
            assignment[n.index()] = chosen;
            load[chosen.index()] += g.weight(n);
        }

        // Phase 2: top-down list scheduling on the fixed assignment.
        for n in list_order(g, g.levels().b_levels()) {
            st.commit_and_place(g, n, assignment[n.index()]);
        }
        Ok(st.into_outcome())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apn::testutil;
    use dagsched_graph::GraphBuilder;
    use dagsched_platform::Topology;

    #[test]
    fn satisfies_apn_contract() {
        testutil::standard_contract(&Bu);
    }

    #[test]
    fn affinity_keeps_heavy_edges_local() {
        // x →(100) y and x →(1) z: x must land with y, not z.
        let mut gb = GraphBuilder::new();
        let x = gb.add_task(2);
        let y = gb.add_task(2);
        let z = gb.add_task(2);
        gb.add_edge(x, y, 100).unwrap();
        gb.add_edge(x, z, 1).unwrap();
        let g = gb.build().unwrap();
        let out = testutil::run(&Bu, &g, Topology::chain(2).unwrap());
        assert_eq!(out.schedule.proc_of(x), out.schedule.proc_of(y));
    }

    #[test]
    fn load_guard_spreads_independent_work() {
        // 8 equal independent tasks on 4 procs: affinity is moot (no
        // edges), so the least-loaded rule must balance 2 per processor.
        let g = testutil::independent(8, 5);
        let out = testutil::run(&Bu, &g, Topology::fully_connected(4).unwrap());
        assert_eq!(out.schedule.makespan(), 10);
        assert_eq!(out.schedule.procs_used(), 4);
    }

    #[test]
    fn assignment_is_timing_free_but_schedule_is_valid() {
        // A join-heavy graph on a ring: whatever phase 1 decided, phase 2
        // must produce a feasible message schedule.
        let g = testutil::classic_nine();
        let out = testutil::run(&Bu, &g, Topology::ring(4).unwrap());
        assert!(out.schedule.makespan() >= 12);
    }
}
