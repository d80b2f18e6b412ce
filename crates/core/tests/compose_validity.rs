//! Validity across the *entire* composed-scheduler space: every point the
//! grammar can express must produce a valid schedule — on the classic-nine
//! peer fixture, on seeded RGNOS instances, and on proptest-generated
//! arbitrary DAGs. The six paper presets are pinned exactly elsewhere
//! (the workspace's `tests/placement_digests.rs`); this file covers the other 122
//! combinations nobody hand-checks.

use dagsched_core::{registry, Env, Scheduler};
use dagsched_graph::{GraphBuilder, TaskGraph, TaskId};
use dagsched_suites::rgnos::{self, RgnosParams};
use proptest::prelude::*;

/// The classic-nine peer graph (same shape as core's internal fixture).
fn classic_nine() -> TaskGraph {
    let mut b = GraphBuilder::named("classic-nine");
    let w = [2u64, 3, 3, 4, 5, 4, 4, 4, 1];
    let n: Vec<_> = w.iter().map(|&w| b.add_task(w)).collect();
    for (s, d, c) in [
        (0usize, 1usize, 4u64),
        (0, 2, 1),
        (0, 3, 1),
        (0, 4, 1),
        (1, 6, 1),
        (2, 5, 1),
        (2, 6, 5),
        (3, 5, 5),
        (3, 7, 4),
        (4, 7, 10),
        (5, 8, 4),
        (6, 8, 6),
        (7, 8, 5),
    ] {
        b.add_edge(n[s], n[d], c).unwrap();
    }
    b.build().unwrap()
}

fn check(algo: &dyn Scheduler, g: &TaskGraph, procs: usize) {
    let out = algo
        .schedule(g, &Env::bnp(procs))
        .unwrap_or_else(|e| panic!("{} failed on {:?}: {e}", algo.name(), g.name()));
    out.validate(g)
        .unwrap_or_else(|e| panic!("{} invalid on {:?}: {e}", algo.name(), g.name()));
    assert!(out.network.is_none(), "{}", algo.name());
    // No serial upper bound here: with communication costs a greedy list
    // schedule can legitimately exceed Σw (remote parents can delay a
    // child on every processor).
    assert!(
        out.schedule.makespan() >= g.weights().iter().copied().max().unwrap_or(0),
        "{}",
        algo.name()
    );
    assert!(out.schedule.procs_used() <= procs, "{}", algo.name());
}

/// Exhaustive: all enumerated variants, classic-nine and three RGNOS
/// instances, several machine sizes. The space is small enough (128) to
/// skip sampling; if an axis ever grows it past ~200, sample and log.
#[test]
fn every_enumerated_variant_is_valid() {
    let variants = registry::enumerate();
    assert!(
        variants.len() <= 200,
        "space grew to {}: switch this test to sampling and log the count",
        variants.len()
    );
    let mut graphs = vec![classic_nine()];
    for seed in 0..3u64 {
        graphs.push(rgnos::generate(RgnosParams::new(
            30,
            [0.1, 1.0, 10.0][seed as usize],
            3,
            seed,
        )));
    }
    for v in &variants {
        for g in &graphs {
            for procs in [1usize, 3, 8] {
                check(v, g, procs);
            }
        }
    }
}

/// On one processor every variant — greedy or not, insertion or not —
/// serializes to the total work.
#[test]
fn every_variant_serializes_on_one_processor() {
    let g = classic_nine();
    for v in registry::enumerate() {
        let out = v.schedule(&g, &Env::bnp(1)).unwrap();
        assert_eq!(out.schedule.makespan(), g.total_work(), "{}", v.name());
    }
}

/// Arbitrary DAG: forward-only random edges (same strategy as
/// `properties.rs`).
fn arb_dag() -> impl Strategy<Value = TaskGraph> {
    (1usize..16).prop_flat_map(|n| {
        let weights = proptest::collection::vec(1u64..50, n);
        let edges =
            proptest::collection::vec((0usize..n.max(1), 0usize..n.max(1), 0u64..120), 0..36);
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
            b.build().expect("forward edges are acyclic")
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    // Random DAG × random point of the space × random machine: still
    // valid, still bounded. Indexing into the deterministic enumeration
    // pins each failure to a specific variant.
    #[test]
    fn random_variant_on_random_dag_is_valid(
        g in arb_dag(),
        which in 0usize..128,
        procs in 1usize..5,
    ) {
        let variants = registry::enumerate();
        let v = &variants[which % variants.len()];
        let out = v.schedule(&g, &Env::bnp(procs)).unwrap();
        prop_assert!(out.validate(&g).is_ok(), "{} invalid", v.name());
        prop_assert!(out.schedule.procs_used() <= procs, "{}", v.name());
    }
}
