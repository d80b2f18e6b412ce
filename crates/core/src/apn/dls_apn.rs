//! DLS-APN — Dynamic Level Scheduling with routed communication
//! (Sih & Lee, 1993; the paper evaluates DLS in both its BNP and APN
//! incarnations — this is the latter, designed for
//! "interconnection-constrained heterogeneous processor architectures").
//!
//! Taxonomy (§3): **dynamic list**, priority = dynamic level
//! `DL(n, p) = SL(n) − EST(n, p)` where the EST probes actual routed,
//! contended message arrivals on the topology. Non-insertion, greedy.
//!
//! The exhaustive (ready node × processor) probe scan makes DLS the
//! slowest APN algorithm in the paper's Table 6 — reproduced by the
//! `table6_runtimes` bin and perfbench's `core.DLS-APN.ns_per_task`.

use dagsched_graph::{TaskGraph, TaskId};
use dagsched_platform::ProcId;

use crate::common::ReadySet;
use crate::{AlgoClass, Env, Outcome, SchedError, Scheduler};

use super::ApnState;

/// The network-aware DLS scheduler.
#[derive(Debug, Default, Clone, Copy)]
pub struct DlsApn;

impl Scheduler for DlsApn {
    fn name(&self) -> &'static str {
        "DLS-APN"
    }

    fn class(&self) -> AlgoClass {
        AlgoClass::Apn
    }

    fn schedule(&self, g: &TaskGraph, env: &Env) -> Result<Outcome, SchedError> {
        let mut st = ApnState::new(g, env)?;
        let sl = g.levels().static_levels();
        let mut ready = ReadySet::new(g);
        let mut ests = Vec::new();
        while !ready.is_empty() {
            type Key = (
                i64,
                std::cmp::Reverse<u64>,
                std::cmp::Reverse<u32>,
                std::cmp::Reverse<u32>,
            );
            let mut best_key: Option<Key> = None;
            let mut chosen: Option<(TaskId, ProcId)> = None;
            for n in ready.iter() {
                st.probe_est_all(g, n, &mut ests);
                for (pi, &est) in ests.iter().enumerate() {
                    let dl = sl[n.index()] as i64 - est as i64;
                    let key = (
                        dl,
                        std::cmp::Reverse(est),
                        std::cmp::Reverse(n.0),
                        std::cmp::Reverse(pi as u32),
                    );
                    if best_key.is_none_or(|b| key > b) {
                        best_key = Some(key);
                        chosen = Some((n, ProcId(pi as u32)));
                    }
                }
            }
            let (n, p) = chosen.expect("ready set non-empty");
            st.commit_and_place(g, n, p);
            ready.take(g, n);
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
        testutil::standard_contract(&DlsApn);
    }

    #[test]
    fn chooses_nearer_processor_under_contention() {
        // Star topology: hub P0, leaves P1..P3. Producer on the hub; a
        // consumer with heavy data should stay on the hub rather than pay a
        // hop.
        let mut gb = GraphBuilder::new();
        let a = gb.add_task(1);
        let b = gb.add_task(5);
        gb.add_edge(a, b, 20).unwrap();
        let g = gb.build().unwrap();
        let out = testutil::run(&DlsApn, &g, Topology::star(4).unwrap());
        assert_eq!(out.schedule.proc_of(a), out.schedule.proc_of(b));
    }

    #[test]
    fn matches_bnp_dls_on_fully_connected_when_comm_free() {
        // With zero comm costs, routed EST degenerates to the BNP EST, so
        // both DLS variants must produce identical makespans.
        let mut gb = GraphBuilder::new();
        let ids: Vec<_> = (0..6).map(|i| gb.add_task(2 + i as u64)).collect();
        for w in ids.windows(2) {
            gb.add_edge(w[0], w[1], 0).unwrap();
        }
        let g = gb.build().unwrap();
        let apn = testutil::run(&DlsApn, &g, Topology::fully_connected(3).unwrap());
        let bnp = crate::bnp::testutil::run(&crate::bnp::dls(), &g, 3);
        assert_eq!(apn.schedule.makespan(), bnp.schedule.makespan());
    }

    #[test]
    fn deterministic_on_mesh() {
        let g = testutil::classic_nine();
        let t = Topology::mesh(2, 2).unwrap();
        let a = testutil::run(&DlsApn, &g, t.clone());
        let b = testutil::run(&DlsApn, &g, t);
        for n in g.tasks() {
            assert_eq!(a.schedule.placement(n), b.schedule.placement(n));
        }
    }
}
