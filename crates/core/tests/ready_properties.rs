//! Property tests for [`dagsched_core::common::ReadyQueue`]'s lazy
//! invalidation. The queue backs static-priority selection under the
//! adversarial search's millions of schedule evaluations, so its contract —
//! `peek_max` always agrees with a naive rescan of the ready set — is
//! checked here over random DAGs, random (heavily tied) priorities, and
//! interleaved out-of-order takes that stale the heap exactly the way ISH's
//! hole fillers do. [`dagsched_core::common::list_order`] is checked
//! against the same naive rescan: for keys that strictly decrease along
//! every edge, the sort is the ready list's sequence.

use dagsched_core::common::{list_order, ReadyQueue, ReadySet};
use dagsched_graph::{GraphBuilder, TaskGraph, TaskId};
use proptest::prelude::*;

/// An arbitrary DAG plus per-task priority keys and an interleaving script:
/// (weights, raw forward edges, priority keys from a small range so ties
/// abound, interleaving picks).
type Scenario = (Vec<u64>, Vec<(usize, usize, u64)>, Vec<u64>, Vec<usize>);

fn arb_scenario() -> impl Strategy<Value = Scenario> {
    (2usize..=20).prop_flat_map(|n| {
        (
            proptest::collection::vec(1u64..50, n),
            proptest::collection::vec((0usize..n, 0usize..n, 1u64..9), 0..=50),
            proptest::collection::vec(0u64..5, n),
            proptest::collection::vec(0usize..16, 1..=40),
        )
    })
}

fn build(weights: &[u64], raw_edges: &[(usize, usize, u64)]) -> TaskGraph {
    let mut b = GraphBuilder::new();
    let ids: Vec<TaskId> = weights.iter().map(|&w| b.add_task(w)).collect();
    let mut seen = std::collections::HashSet::new();
    for &(x, y, c) in raw_edges {
        let (lo, hi) = (x.min(y), x.max(y));
        if lo != hi && seen.insert((lo, hi)) {
            b.add_edge(ids[lo], ids[hi], c).unwrap();
        }
    }
    b.build().expect("forward edges are acyclic")
}

/// b-levels with the edges inside a cluster costing 0: the key of the
/// UNC cluster timer.
fn zeroed_b_levels(g: &TaskGraph, clusters: &[u64]) -> Vec<u64> {
    let mut bl = vec![0u64; g.num_tasks()];
    for &n in g.topo_order().iter().rev() {
        let tail = g.succs(n).iter().map(|&(s, c)| {
            let c = if clusters[s.index()] == clusters[n.index()] {
                0
            } else {
                c
            };
            c + bl[s.index()]
        });
        bl[n.index()] = g.weight(n) + tail.max().unwrap_or(0);
    }
    bl
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    // Drain both structures by one script of heap maxima and arbitrary
    // ready nodes ("fillers"), each choosing its own victims: the queue
    // from its lazily-invalidated heap and its candidate list, the set by
    // a full rescan. The two sequences of (maximum, taken task) must be
    // equal, and every task must be taken once.
    #[test]
    fn peek_max_matches_naive_rescan_under_interleaved_takes(
        (weights, edges, keys, picks) in arb_scenario()
    ) {
        let g = build(&weights, &edges);
        // The k-th smallest-id candidate: a deterministic "filler".
        let kth = |it: &mut dyn Iterator<Item = TaskId>, k: usize| {
            let mut ready: Vec<TaskId> = it.collect();
            ready.sort_unstable();
            ready[k % ready.len()]
        };
        let mut queue = ReadyQueue::new(&g, keys.clone());
        let mut queue_pops = Vec::new();
        for step in 0.. {
            let pick = picks[step % picks.len()];
            let Some(max) = queue.peek_max() else { break };
            let victim = if pick % 2 == 0 { max } else { kth(&mut queue.iter(), pick) };
            queue.take(&g, victim);
            queue_pops.push((max, victim));
        }
        prop_assert_eq!(queue.iter().count(), 0);
        let mut naive = ReadySet::new(&g);
        let mut naive_pops = Vec::new();
        for step in 0.. {
            let pick = picks[step % picks.len()];
            let Some(max) = naive.argmax_by_key(|n| keys[n.index()]) else { break };
            let victim = if pick % 2 == 0 { max } else { kth(&mut naive.iter(), pick) };
            naive.take(&g, victim);
            naive_pops.push((max, victim));
        }
        prop_assert_eq!(&queue_pops, &naive_pops);
        let mut sorted: Vec<TaskId> = queue_pops.iter().map(|&(_, v)| v).collect();
        sorted.sort_unstable();
        prop_assert_eq!(sorted, g.tasks().collect::<Vec<_>>());
    }

    // Draining purely by maximum must visit every task exactly once in
    // key-descending order within each ready frontier.
    #[test]
    fn max_drain_takes_every_task_once(
        (weights, edges, keys, _picks) in arb_scenario()
    ) {
        let g = build(&weights, &edges);
        let mut queue = ReadyQueue::new(&g, keys);
        let mut taken = vec![false; g.num_tasks()];
        while let Some(n) = queue.peek_max() {
            prop_assert!(!taken[n.index()], "{n} taken twice");
            taken[n.index()] = true;
            queue.take(&g, n);
        }
        prop_assert!(taken.iter().all(|&t| t), "some task never became ready");
    }

    // A static list is a sort: for b-levels, static levels and the zeroed
    // b-levels of a random clustering (the keys double as cluster labels),
    // `list_order` must equal the sequence of a ready list that takes its
    // max-key task each step.
    #[test]
    fn list_order_matches_the_ready_list_sequence(
        (weights, edges, clusters, _picks) in arb_scenario()
    ) {
        let g = build(&weights, &edges);
        let lv = g.levels();
        let zeroed = zeroed_b_levels(&g, &clusters);
        for keys in [lv.b_levels(), lv.static_levels(), &zeroed] {
            let mut ready = ReadySet::new(&g);
            let mut expected = Vec::new();
            while let Some(n) = ready.argmax_by_key(|n| keys[n.index()]) {
                expected.push(n);
                ready.take(&g, n);
            }
            prop_assert_eq!(list_order(&g, keys), expected);
        }
    }
}
