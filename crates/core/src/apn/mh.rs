//! MH — Mapping Heuristic (El-Rewini & Lewis, 1990).
//!
//! Taxonomy (§3): **static list**, priority = static b-level (communication
//! included), non-insertion, greedy, network-aware: the start-time estimate
//! of a node on a processor accounts for hop-by-hop routed message arrivals
//! over contended links (the original maintains routing tables updated with
//! network traffic; our [`dagsched_platform::Network`] plays that role).
//!
//! Per step: pop the highest-b-level ready node, probe its earliest start
//! on every processor, commit the messages toward the winner.
//!
//! Complexity: O(v · p · (e/v · d)) probes, where `d` is the route length —
//! the paper's Table 6 places MH mid-field among APN algorithms.

use dagsched_graph::TaskGraph;
use dagsched_obs::{emit, Event, NullSink, Sink};
use dagsched_platform::ProcId;

use crate::common::ReadySet;
use crate::{AlgoClass, Env, Outcome, SchedError, Scheduler};

use super::ApnState;

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
        run(g, env, &mut NullSink)
    }

    fn schedule_traced(
        &self,
        g: &TaskGraph,
        env: &Env,
        mut sink: &mut dyn Sink,
    ) -> Result<Outcome, SchedError> {
        run(g, env, &mut sink)
    }
}

/// The engine proper, generic over the trace sink (see `dsc::run`).
fn run<S: Sink>(g: &TaskGraph, env: &Env, sink: &mut S) -> Result<Outcome, SchedError> {
    let mut st = ApnState::new(g, env)?;
    let bl = g.levels().b_levels();
    let mut ready = ReadySet::new(g);
    let mut ests = Vec::new();
    while !ready.is_empty() {
        let n = ready.argmax_by_key(|n| bl[n.index()]).expect("non-empty");
        emit!(
            sink,
            Event::TaskSelected {
                task: n.0,
                key: bl[n.index()],
                tie: n.0 as u64,
            }
        );
        // Batched probe of every processor; smallest EST wins, ties to
        // smaller id (the ascending scan keeps the first minimum).
        st.probe_est_all(g, n, &mut ests);
        let mut best = (ProcId(0), u64::MAX);
        for (pi, &est) in ests.iter().enumerate() {
            emit!(
                sink,
                Event::PlacementProbed {
                    task: n.0,
                    proc: pi as u32,
                    start: est,
                }
            );
            if est < best.1 {
                best = (ProcId(pi as u32), est);
            }
        }
        // Route the parent messages (emits one `MessageRouted` per
        // cross-processor edge), then append-place.
        let drt = st.commit_parent_messages(g, n, best.0, sink, |_| {});
        let w = g.weight(n);
        let start = st.s.timeline(best.0).earliest_append(drt);
        st.s.place(n, best.0, start, w)
            .expect("append start is free");
        emit!(
            sink,
            Event::PlacementCommitted {
                task: n.0,
                proc: best.0 .0,
                start,
                finish: start + w,
                hole: false,
            }
        );
        ready.take(g, n);
    }
    Ok(st.into_outcome())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apn::testutil;
    use dagsched_graph::GraphBuilder;
    use dagsched_platform::Topology;

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
        let msgs: Vec<_> = out.network.as_ref().unwrap().messages().collect();
        assert_eq!(msgs.len(), 1);
        assert_eq!(msgs[0].hops.len(), 1);
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
