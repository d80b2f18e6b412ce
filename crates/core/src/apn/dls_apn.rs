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
//! EST, smaller task id, smaller proc id)` wins. MH's contention-free bound
//! `lb ≤ EST` gives every pair an upper-bound key; pairs are probed in
//! descending bound order only while the bound beats the best key, each
//! walk abandoned once its start passes `SL(n) − best DL`.
//!
//! Complexity: per step O(r·p) bound terms per ready parent edge and an
//! O(r·p·log(r·p)) sort, plus route walks of only the pairs the bound
//! cannot exclude (`apn.probe_arrivals`: 0.01–0.26 of the exhaustive scan's
//! on RGNOS v=500, 8-processor hypercube). Each step first reindexes the
//! link tracks, so a walk's hole searches skip blocks of too-short holes
//! (`apn.link_slots_scanned`). The paper's Table 6 ranks DLS the slowest
//! APN algorithm: its definition scans every pair.

use std::cmp::Reverse;

use dagsched_graph::{TaskGraph, TaskId};
use dagsched_platform::ProcId;

use crate::common::ReadySet;
use crate::{AlgoClass, Env, Outcome, SchedError, Scheduler};

use super::{ApnState, ProbeWork};

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
        let mut st = ApnState::new(g, env)?;
        let sl = g.levels().static_levels();
        let mut ready = ReadySet::new(g);
        let mut lbs = Vec::new();
        let mut cands: Vec<Key> = Vec::new();
        let mut work = ProbeWork::default();
        while !ready.is_empty() {
            // One upper-bound key per pair, in descending order; the
            // probes run over freshly indexed link tracks.
            st.net.reindex();
            cands.clear();
            for n in ready.iter() {
                st.est_lower_bounds(g, n, &mut lbs);
                let sl = sl[n.index()];
                cands.extend(
                    lbs.iter()
                        .enumerate()
                        .map(|(pi, &lb)| key(sl, lb, n, ProcId(pi as u32))),
                );
            }
            cands.sort_unstable_by_key(|&k| Reverse(k));
            let mut best: Option<Key> = None;
            for &bound @ (_, _, Reverse(n), Reverse(p)) in &cands {
                let (n, p) = (TaskId(n), ProcId(p));
                let cap = match best {
                    // Bounds descend: once one cannot beat the best, no
                    // later one can.
                    Some(b) if bound < b => break,
                    // A start past `SL(n) − best DL` loses on DL. The bound
                    // beats the best, so that cap is at least `lb ≥ 0`.
                    Some(b) => (sl[n.index()] as i64 - b.0) as u64,
                    None => u64::MAX,
                };
                if let Some(est) = st.probe_est(g, n, p, cap, &mut work) {
                    best = best.max(Some(key(sl[n.index()], est, n, p)));
                }
            }
            let (_, _, Reverse(n), Reverse(p)) = best.expect("the first probe is uncapped");
            st.commit_and_place(g, TaskId(n), ProcId(p));
            ready.take(g, TaskId(n));
        }
        work.flush();
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
    /// reference the pruned scan must match placement for placement and
    /// message for message.
    fn run_exhaustive(g: &TaskGraph, env: &Env) -> Outcome {
        let mut st = ApnState::new(g, env).unwrap();
        let sl = g.levels().static_levels();
        let mut ready = ReadySet::new(g);
        let mut work = ProbeWork::default();
        while !ready.is_empty() {
            let mut best: Option<Key> = None;
            for n in ready.iter() {
                for p in (0..env.procs() as u32).map(ProcId) {
                    let est = st.probe_est(g, n, p, u64::MAX, &mut work).unwrap();
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
