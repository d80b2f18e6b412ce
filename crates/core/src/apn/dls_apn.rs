//! DLS-APN — Dynamic Level Scheduling with routed communication
//! (Sih & Lee, 1993; the paper evaluates DLS in both its BNP and APN
//! incarnations — this is the latter, designed for
//! "interconnection-constrained heterogeneous processor architectures").
//!
//! Taxonomy (§3): **dynamic list**, priority = dynamic level
//! `DL(n, p) = SL(n) − EST(n, p)` where the EST probes actual routed,
//! contended message arrivals on the topology. Non-insertion, greedy.
//!
//! Per step the (ready node, processor) pair with the largest `(DL, smaller
//! EST, smaller task id, smaller proc id)` wins. It is found through the
//! best-first probe kernel DLS-APN shares with MH (`apn::BestFirst`):
//! every pair starts keyed by MH's contention-free bound `lb ≤ EST`, which
//! caps its key from above; the kernel evaluates one parent arrival at a
//! time on the pair of largest key, lowers that key to each arrival, and
//! stops at the first pair whose parents are all evaluated while its key
//! is still the largest.
//!
//! Complexity: per step O(r·p) bound terms per ready parent edge and an
//! O(r·p) heap build, plus route walks of only the parent arrivals the
//! best-first order reaches (`apn.probe_arrivals`: 0.25–4.97 per `p·e`
//! on RGNOS v=500, 8-processor hypercube, against 22–46 for the
//! exhaustive scan). Each step first reindexes the link tracks, so a
//! walk's hole searches skip blocks of too-short holes
//! (`apn.link_slots_scanned`). The paper's Table 6 ranks DLS the slowest
//! APN algorithm: its definition scans every pair.

use std::cmp::Reverse;

use dagsched_graph::{TaskGraph, TaskId};
use dagsched_platform::ProcId;

use crate::common::ReadySet;
use crate::{AlgoClass, Env, Outcome, SchedError, Scheduler};

use super::{ApnState, BestFirst};

/// The selection key of a (task, processor) pair, maximised:
/// `(SL − EST, smaller EST, smaller task id, smaller processor id)`.
type Key = (i64, Reverse<u64>, Reverse<u32>, Reverse<u32>);

fn key(sl: u64, est: u64, n: TaskId, p: ProcId) -> Key {
    let dl = sl as i64 - est as i64;
    (dl, Reverse(est), Reverse(n.0), Reverse(p.0))
}

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
        let mut st = ApnState::new(g, env);
        let sl = g.levels().static_levels();
        let mut ready = ReadySet::new(g);
        let mut probes = BestFirst::new();
        while !ready.is_empty() {
            // The pair of largest key is the one of least `Reverse(key)`.
            for n in ready.iter() {
                probes.add_task(&st, g, n);
            }
            let (n, p, _) = probes.select(
                &mut st,
                |n, p, est| Reverse(key(sl[n.index()], est, n, p)),
                |_, _, _| {},
            );
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

    /// The exhaustive scan DLS-APN ran before its bound pruning: probe
    /// every (ready task, processor) pair, keep the largest key. The
    /// reference the best-first kernel must match placement for placement
    /// and message for message.
    fn run_exhaustive(g: &TaskGraph, env: &Env) -> Outcome {
        let mut st = ApnState::new(g, env);
        let sl = g.levels().static_levels();
        let mut ready = ReadySet::new(g);
        while !ready.is_empty() {
            let mut best: Option<Key> = None;
            for n in ready.iter() {
                for p in (0..env.procs() as u32).map(ProcId) {
                    let est = testutil::exhaustive_est(&st, g, n, p);
                    best = best.max(Some(key(sl[n.index()], est, n, p)));
                }
            }
            let (_, _, Reverse(n), Reverse(p)) = best.expect("ready set non-empty");
            st.commit_and_place(g, TaskId(n), ProcId(p));
            ready.take(g, TaskId(n));
        }
        st.into_outcome()
    }

    #[test]
    fn pruned_scan_matches_the_exhaustive_scan() {
        for spec in [
            "ring:5",
            "star:6",
            "mesh:3x3",
            "full:4",
            "chain:6",
            "hypercube:3",
        ] {
            let env = Env::apn(Topology::parse_spec(spec).unwrap());
            for (i, g) in testutil::equivalence_graphs().iter().enumerate() {
                let out = DlsApn.schedule(g, &env).unwrap();
                out.validate(g).unwrap();
                assert_eq!(
                    out.digest(),
                    run_exhaustive(g, &env).digest(),
                    "{spec} graph {i}"
                );
            }
        }
    }

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
