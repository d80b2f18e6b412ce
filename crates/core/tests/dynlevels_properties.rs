//! Property tests for [`dagsched_core::common::DynLevelsEngine`]: the
//! incremental repair must be **value-identical** to the full
//! [`dagsched_core::common::DynLevels::compute`] rescan after *every*
//! placement of a random placement sequence over a random DAG — the
//! per-step analog of the whole-schedule MD/DCP placement digests in the
//! workspace's `tests/placement_digests.rs`. Placement sequences deliberately include
//! insert-into-hole seatings (random start padding), co-located parents
//! and children (edge zeroing), and late pins, so every repair path of
//! the engine — forward cone, backward cone, sequence-edge rewiring, cp
//! rekeying — is exercised against the oracle.

use dagsched_core::common::{DynLevels, DynLevelsEngine};
use dagsched_graph::{GraphBuilder, TaskGraph, TaskId};
use dagsched_platform::{ProcId, Schedule};
use proptest::prelude::*;

/// Random DAG: weights 1..50, forward edges only (i → j with i < j),
/// costs 0..120 so zero-cost edges and heavy edges both appear.
fn arb_dag() -> impl Strategy<Value = TaskGraph> {
    (2usize..14).prop_flat_map(|n| {
        let weights = proptest::collection::vec(1u64..50, n);
        let edges = proptest::collection::vec((0usize..n, 0usize..n, 0u64..120), 0..30);
        (weights, edges).prop_map(|(weights, edges)| {
            let mut b = GraphBuilder::new();
            let ids: Vec<TaskId> = weights.iter().map(|&w| b.add_task(w)).collect();
            let mut seen = std::collections::HashSet::new();
            for (x, y, c) in edges {
                let (lo, hi) = (x.min(y), x.max(y));
                if lo != hi && seen.insert((lo, hi)) {
                    b.add_edge(ids[lo], ids[hi], c).unwrap();
                }
            }
            b.build().expect("forward edges keep the graph acyclic")
        })
    })
}

/// Drive a random but *precedence-respecting* placement sequence: at each
/// step pick a ready task, a processor, and a start padding; seat the task
/// at the earliest insertion slot at-or-after its data-ready time plus the
/// padding (padding opens holes for later seatings to fill).
fn drive(g: &TaskGraph, picks: &[(u8, u8, u8)]) {
    let procs = g.num_tasks().min(4);
    let mut s = Schedule::new(g.num_tasks(), procs);
    let mut engine = DynLevelsEngine::new(g);
    let mut placed = vec![false; g.num_tasks()];

    let oracle_matches = |s: &Schedule, e: &DynLevelsEngine, step: usize| {
        let d = DynLevels::compute(g, s);
        for n in g.tasks() {
            assert_eq!(e.aest(n), d.aest(n), "step {step}: tl({n})");
            assert_eq!(e.blevel(n), d.bl[n.index()], "step {step}: bl({n})");
            assert_eq!(e.alst(n), d.alst(n), "step {step}: alst({n})");
            assert_eq!(e.mobility(n), d.mobility(n), "step {step}: mobility({n})");
        }
    };

    oracle_matches(&s, &engine, 0);
    for (step, &(tpick, ppick, pad)) in picks.iter().enumerate() {
        let ready: Vec<TaskId> = g
            .tasks()
            .filter(|&n| !placed[n.index()])
            .filter(|&n| g.preds(n).iter().all(|&(q, _)| placed[q.index()]))
            .collect();
        let Some(&n) = ready.get(tpick as usize % ready.len().max(1)) else {
            break;
        };
        let p = ProcId(ppick as u32 % procs as u32);
        let mut drt = 0u64;
        for &(q, c) in g.preds(n) {
            let pl = s.placement(q).expect("ready ⇒ parents placed");
            let cost = if pl.proc == p { 0 } else { c };
            drt = drt.max(pl.finish + cost);
        }
        let start = s
            .timeline(p)
            .earliest_fit(drt + (pad as u64 % 25), g.weight(n));
        s.place(n, p, start, g.weight(n)).expect("probed slot");
        placed[n.index()] = true;
        engine.placed(g, &s, n);
        oracle_matches(&s, &engine, step + 1);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    // Engine ≡ rescan after every placement of a random sequence.
    #[test]
    fn engine_matches_rescan_after_every_placement(
        g in arb_dag(),
        picks in proptest::collection::vec((0u8..255, 0u8..255, 0u8..255), 1..=16),
    ) {
        drive(&g, &picks);
    }
}
