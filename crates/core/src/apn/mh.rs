//! MH — Mapping Heuristic (El-Rewini & Lewis, 1990).
//!
//! Taxonomy (§3): **static list**, priority = static b-level (communication
//! included), non-insertion, greedy, network-aware: the start-time estimate
//! of a node on a processor accounts for hop-by-hop routed message arrivals
//! over contended links (the original maintains routing tables updated with
//! network traffic; our [`dagsched_platform::Network`] plays that role).
//!
//! Per step: take the next node of the b-level list order
//! ([`crate::common::list_order`]: descending b-level, ties toward the
//! smaller id — the sequence a ready list would pop, since b-levels fall
//! along every edge), place it on the processor with the smallest
//! `(EST, id)`, commit the messages toward the winner.
//!
//! The winner is found best-first, through the probe kernel MH shares
//! with DLS-APN (`apn::BestFirst`). Each processor starts keyed by a
//! contention-free bound `lb(p) ≤ EST(p)` (ready time, and each parent's
//! finish plus `hops·c`). The kernel evaluates one remote parent arrival
//! at a time on the processor of smallest `(key, id)`, heaviest `finish +
//! cost` first, and raises its key to each arrival. The first processor
//! whose parents are all evaluated while it is still smallest is the
//! exhaustive scan's minimum. The parent arrivals evaluated are counted
//! in `apn.probe_arrivals` (`tests/work_ceilings.rs` gates them against
//! the exhaustive `p·e`).
//!
//! Tracing: one `PlacementProbed` per EST computed in full — the winner's,
//! and any other processor's whose last parent arrival pushed it past the
//! best key. Processors left with a partial key emit nothing, the rule the
//! compose driver documents.
//!
//! Complexity: O(v log v) selection (one sort), O(p · e) hop-count bound
//! terms plus route-walking probes of only the parent arrivals the
//! best-first order reaches — 0.14–0.33 of the exhaustive scan's
//! `p · e` (each a walk of `d` hops, the route length) on RGNOS v=500 over
//! an 8-processor hypercube. Each hop searches its link track for a hole;
//! every step first reindexes the tracks, so the search skips 16-slot
//! blocks of too-short holes (`apn.link_slots_scanned`: 9.8–19.4 per
//! probed arrival on the `tests/work_ceilings.rs` instances, 44–183 slot
//! by slot). Committing the winner's parent messages walks each route once
//! more, reserving one hole per hop; the messages are pushed onto the
//! network's message stack and their hops onto its arena, so a commit
//! neither looks up the edge nor allocates once the buffers have grown.
//! The paper's Table 6 places MH mid-field among APN algorithms.

use dagsched_graph::TaskGraph;
use dagsched_obs::{emit, Event, NullSink, Sink};

use crate::common::list_order;
use crate::{AlgoClass, Env, Outcome, SchedError, Scheduler};

use super::{ApnState, BestFirst};

/// The MH scheduler.
#[derive(Debug, Default, Clone, Copy)]
pub struct Mh;

impl Scheduler for Mh {
    fn name(&self) -> &'static str {
        "MH"
    }

    fn class(&self) -> AlgoClass {
        AlgoClass::Apn
    }

    fn schedule(&self, g: &TaskGraph, env: &Env) -> Result<Outcome, SchedError> {
        Ok(run(g, env, &mut NullSink))
    }

    fn schedule_traced(
        &self,
        g: &TaskGraph,
        env: &Env,
        mut sink: &mut dyn Sink,
    ) -> Result<Outcome, SchedError> {
        Ok(run(g, env, &mut sink))
    }
}

/// The engine proper, generic over the trace sink (see `dsc::run`).
fn run<S: Sink>(g: &TaskGraph, env: &Env, sink: &mut S) -> Outcome {
    let mut st = ApnState::new(g, env);
    let bl = g.levels().b_levels();
    let mut probes = BestFirst::new();
    for n in list_order(g, bl) {
        emit!(
            sink,
            Event::TaskSelected {
                task: n.0,
                key: bl[n.index()],
                tie: n.0 as u64,
            }
        );
        // The processor of least `(EST, id)`; one `PlacementProbed` per
        // start the kernel completes.
        probes.add_task(&st, g, n);
        let (_, p, _) = probes.select(
            &mut st,
            |_, p, t| (t, p),
            |n, p, start| {
                emit!(
                    sink,
                    Event::PlacementProbed {
                        task: n.0,
                        proc: p.0,
                        start,
                    }
                );
            },
        );
        // Route the parent messages (emits one `MessageRouted` per
        // cross-processor edge), then append-place.
        let drt = st.commit_parent_messages(g, n, p, sink);
        let w = g.weight(n);
        let start = st.s.timeline(p).earliest_append(drt);
        st.s.place(n, p, start, w).expect("append start is free");
        emit!(
            sink,
            Event::PlacementCommitted {
                task: n.0,
                proc: p.0,
                start,
                finish: start + w,
                hole: false,
            }
        );
    }
    st.into_outcome()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apn::testutil;
    use dagsched_graph::GraphBuilder;
    use dagsched_platform::{ProcId, Topology};
    use dagsched_suites::rgnos::{self, RgnosParams};

    /// The exhaustive scan MH ran before its bound pruning: probe every
    /// processor, keep the smallest `(EST, id)`. The reference the
    /// best-first kernel must match placement for placement and message
    /// for message.
    fn run_exhaustive(g: &TaskGraph, env: &Env) -> Outcome {
        use crate::common::ReadySet;
        let mut st = ApnState::new(g, env);
        let bl = g.levels().b_levels();
        let mut ready = ReadySet::new(g);
        while !ready.is_empty() {
            let n = ready.argmax_by_key(|n| bl[n.index()]).expect("non-empty");
            let p = (0..env.procs() as u32)
                .map(ProcId)
                .min_by_key(|&p| (testutil::exhaustive_est(&st, g, n, p), p))
                .unwrap();
            st.commit_and_place(g, n, p);
            ready.take(g, n);
        }
        st.into_outcome()
    }

    #[test]
    fn pruned_probing_matches_the_exhaustive_scan() {
        for spec in [
            "ring:5",
            "star:6",
            "mesh:3x3",
            "mesh:2x4",
            "full:4",
            "chain:6",
            "hypercube:3",
        ] {
            let env = Env::apn(Topology::parse_spec(spec).unwrap());
            for (i, g) in testutil::equivalence_graphs().iter().enumerate() {
                let out = Mh.schedule(g, &env).unwrap();
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
    fn traced_and_untraced_runs_agree() {
        let env = Env::apn(Topology::hypercube(3).unwrap());
        let mut graphs: Vec<TaskGraph> = [(60, 0.1, 1), (80, 1.0, 2), (100, 10.0, 3)]
            .into_iter()
            .map(|(v, ccr, seed)| rgnos::generate(RgnosParams::new(v, ccr, 3, seed)))
            .collect();
        graphs.push(testutil::classic_nine());
        for g in &graphs {
            let mut sink = dagsched_obs::MemSink::new();
            let traced = Mh.schedule_traced(g, &env, &mut sink).unwrap();
            assert_eq!(traced.digest(), Mh.schedule(g, &env).unwrap().digest());
            let probes = sink
                .events
                .iter()
                .filter(|e| matches!(e, Event::PlacementProbed { .. }))
                .count();
            assert!(
                (g.num_tasks()..=g.num_tasks() * env.procs()).contains(&probes),
                "one to p full probes per task, got {probes}"
            );
        }
    }

    #[test]
    fn satisfies_apn_contract() {
        testutil::standard_contract(&Mh);
    }

    #[test]
    fn avoids_distant_processors_for_heavy_messages() {
        // a →(10) b on a 3-chain: placing b on P2 costs two hops (arrival
        // 22); P0 costs nothing. MH must keep b local.
        let mut gb = GraphBuilder::new();
        let a = gb.add_task(2);
        let b = gb.add_task(2);
        gb.add_edge(a, b, 10).unwrap();
        let g = gb.build().unwrap();
        let out = testutil::run(&Mh, &g, Topology::chain(3).unwrap());
        assert_eq!(out.schedule.proc_of(a), out.schedule.proc_of(b));
        assert_eq!(out.schedule.makespan(), 4);
    }

    #[test]
    fn contention_pushes_second_message_later() {
        // One producer, two far consumers over a single link: messages
        // serialize on the link; MH keeps consumers where the math says.
        let mut gb = GraphBuilder::new();
        let a = gb.add_task(2);
        let c1 = gb.add_task(20);
        let c2 = gb.add_task(20);
        gb.add_edge(a, c1, 4).unwrap();
        gb.add_edge(a, c2, 4).unwrap();
        let g = gb.build().unwrap();
        // Two processors joined by one link: the only way to parallelize is
        // to ship one consumer across.
        let out = testutil::run(&Mh, &g, Topology::chain(2).unwrap());
        // One consumer local (starts 2), the other remote (arrival 6,
        // starts 6): makespan 26.
        assert_eq!(out.schedule.makespan(), 26);
        let net = out.network.as_ref().unwrap();
        assert_eq!(net.len(), 1);
        assert_eq!(net.hops(&net.messages()[0]).len(), 1);
    }

    #[test]
    fn messages_are_recorded_for_every_cross_edge() {
        let g = testutil::classic_nine();
        let out = testutil::run(&Mh, &g, Topology::mesh(2, 2).unwrap());
        let net = out.network.as_ref().unwrap();
        for e in g.edges() {
            let (pu, pv) = (
                out.schedule.proc_of(e.src).unwrap(),
                out.schedule.proc_of(e.dst).unwrap(),
            );
            if pu != pv && e.cost > 0 {
                assert!(
                    net.message_for(e.src, e.dst).is_some(),
                    "{} -> {}",
                    e.src,
                    e.dst
                );
            }
        }
    }
}
