//! DSC — Dominant Sequence Clustering (Yang & Gerasoulis, 1994).
//!
//! Taxonomy (§3): **dynamic list**, CP-based (the *dominant sequence* is the
//! critical path of the partially scheduled graph), greedy in start-time
//! reduction.
//!
//! Per step, DSC examines the free node (all parents scheduled) with the
//! highest priority `t-level + b-level` — the head of the dominant
//! sequence — and tries to *zero* incoming edges by appending the node to
//! the cluster of one of its parents, choosing the cluster that minimizes
//! its start time; the merge is accepted only if it strictly reduces the
//! node's t-level. A **DSRW guard** (dominant sequence reduction warranty)
//! protects a higher-priority *partially free* node: if attaching the
//! current node to a cluster would delay the estimated start of that node,
//! the merge is rejected and the current node opens its own cluster.
//!
//! ## The incremental priority-queue engine
//!
//! This implementation hits the original's **O((v+e)·log v)** bound with
//! two rekeyable [`IndexedHeap`]s, replacing the per-step scans of the
//! previous revision:
//!
//! * **free heap** — free nodes keyed by `t-level + b-level`. A node's
//!   t-level is final by the time its last parent is scheduled, so entries
//!   are inserted once with their final key and never rekeyed: selection
//!   is a plain `pop_max`.
//! * **partial heap** — *partially free* nodes (unscheduled, ≥1 scheduled
//!   parent, not yet free) under the same key. T-levels of waiting nodes
//!   only grow as more parents get placed, so each edge relaxation is an
//!   [`IndexedHeap::increase_key`]; when the last parent is placed the node
//!   moves from the partial heap to the free heap. The DSRW guard's
//!   protected node is then an O(1) `peek_max` instead of an O(v + e)
//!   whole-graph rescan per step.
//!
//! Every task enters and leaves each heap at most once (O(v·log v)) and
//! every edge triggers at most one rekey (O(e·log v)); the DSRW estimate
//! stays O(e_local) via clone-free place/estimate/unplace on the live
//! schedule. Selection order is bit-for-bit the order of the scan version:
//! both heaps break key ties toward the smallest task id, exactly like
//! `ReadySet::argmax_by_key` and the old `max_by_key` scan. A
//! multi-thousand-instance equivalence sweep proved that, and the
//! workspace's `tests/placement_digests.rs` pins its placements.
//!
//! Simplification vs. the original (recorded in DESIGN.md): the DSRW is
//! enforced via an explicit re-estimation of the protected node's start
//! time rather than the original's reservation bookkeeping. Schedule
//! quality characteristics (dynamic CP focus, edge zeroing) are preserved.

use dagsched_graph::{TaskGraph, TaskId};
use dagsched_obs::{emit, Event, NullSink, Sink};
use dagsched_platform::{ProcId, Schedule};

use crate::common::IndexedHeap;
use crate::{AlgoClass, Env, Outcome, SchedError, Scheduler};

/// The DSC scheduler.
#[derive(Debug, Default, Clone, Copy)]
pub struct Dsc;

impl Scheduler for Dsc {
    fn name(&self) -> &'static str {
        "DSC"
    }

    fn class(&self) -> AlgoClass {
        AlgoClass::Unc
    }

    fn schedule(&self, g: &TaskGraph, _env: &Env) -> Result<Outcome, SchedError> {
        run(g, &mut NullSink)
    }

    fn schedule_traced(
        &self,
        g: &TaskGraph,
        _env: &Env,
        mut sink: &mut dyn Sink,
    ) -> Result<Outcome, SchedError> {
        run(g, &mut sink)
    }
}

/// The engine proper, generic over the trace sink so the untraced entry
/// point monomorphizes with [`NullSink`] and pays nothing for the events.
fn run<S: Sink>(g: &TaskGraph, sink: &mut S) -> Result<Outcome, SchedError> {
    let v = g.num_tasks();
    let bl = g.levels().b_levels(); // static b-levels, as in the original
    let mut s = Schedule::new(v, v);
    // tlevel[n] = current estimate of n's earliest start: for scheduled
    // nodes their actual start; for unscheduled, max over scheduled
    // parents of finish + c (full c: no cluster commitment yet).
    let mut tlevel = vec![0u64; v];
    let mut missing: Vec<u32> = g.tasks().map(|n| g.in_degree(n) as u32).collect();
    // Free nodes by final priority; entry nodes start free at t-level 0.
    let mut free: IndexedHeap<u64> = IndexedHeap::new(v);
    for n in g.entries() {
        free.insert(n.0, bl[n.index()]);
    }
    // Partially free nodes by current priority, rekeyed as t-levels grow.
    let mut partial: IndexedHeap<u64> = IndexedHeap::new(v);
    let mut next_fresh = 0u32; // clusters are allocated in id order

    while let Some(h) = free.pop_max() {
        let nf = TaskId(h);
        emit!(
            sink,
            Event::TaskSelected {
                task: nf.0,
                key: priority(nf, &tlevel, bl),
                tie: tlevel[nf.index()],
            }
        );

        // Highest-priority *partially free* node: unscheduled, not free,
        // with at least one scheduled parent (its start estimate is
        // meaningful). O(1) on the incrementally maintained heap.
        let pfp = partial.peek_max().map(TaskId);

        // Candidate clusters: those of nf's parents, evaluated by the
        // start time nf would get appended there (edges from parents in
        // that cluster are zeroed).
        let mut best: Option<(u64, ProcId)> = None;
        let mut parent_procs: Vec<ProcId> = g
            .preds(nf)
            .iter()
            .filter_map(|&(q, _)| s.proc_of(q))
            .collect();
        parent_procs.sort_unstable();
        parent_procs.dedup();
        for &p in &parent_procs {
            let start = append_start(g, &s, nf, p);
            if best.is_none_or(|(bs, bp)| start < bs || (start == bs && p < bp)) {
                best = Some((start, p));
            }
        }

        // Accept the merge only if it strictly reduces nf's t-level and
        // does not violate the DSRW guard.
        let mut placed = false;
        if let Some((start, p)) = best {
            if start < tlevel[nf.index()] {
                let dsrw_ok = match pfp {
                    Some(pf) if priority(pf, &tlevel, bl) > priority(nf, &tlevel, bl) => {
                        // Estimate pf's start on that cluster before and
                        // after the attachment; reject if it would grow.
                        // The trial placement goes onto the live
                        // schedule and is rolled back immediately —
                        // place/estimate/unplace restores the exact
                        // previous state, no clone needed.
                        let before = est_partially_free(g, &s, pf, p);
                        s.place(nf, p, start, g.weight(nf))
                            .expect("append start is free");
                        let after = est_partially_free(g, &s, pf, p);
                        s.unplace(nf);
                        after <= before
                    }
                    _ => true,
                };
                if dsrw_ok {
                    s.place(nf, p, start, g.weight(nf))
                        .expect("append start is free");
                    tlevel[nf.index()] = start;
                    placed = true;
                    emit!(
                        sink,
                        Event::ClusterMerged {
                            task: nf.0,
                            cluster: p.0,
                            start,
                        }
                    );
                } else {
                    emit!(
                        sink,
                        Event::MergeRejected {
                            task: nf.0,
                            cluster: p.0,
                            dsrw: true,
                        }
                    );
                }
            } else {
                emit!(
                    sink,
                    Event::MergeRejected {
                        task: nf.0,
                        cluster: p.0,
                        dsrw: false,
                    }
                );
            }
        }
        if !placed {
            // Own (fresh) cluster at the plain t-level.
            while !s.timeline(ProcId(next_fresh)).is_empty() {
                next_fresh += 1;
            }
            let p = ProcId(next_fresh);
            let start = tlevel[nf.index()];
            s.place(nf, p, start, g.weight(nf))
                .expect("fresh cluster is idle");
            emit!(
                sink,
                Event::ClusterOpened {
                    task: nf.0,
                    cluster: p.0,
                }
            );
        }

        // Relax each out-edge once: grow the child's t-level estimate
        // (rekeying it if it is waiting in the partial heap) and move it
        // between heaps as its last scheduled parent arrives.
        let fin = s.finish_of(nf).expect("just placed");
        for &(c, cost) in g.succs(nf) {
            let ci = c.index();
            if fin + cost > tlevel[ci] {
                tlevel[ci] = fin + cost;
                if partial.contains(c.0) {
                    partial.increase_key(c.0, tlevel[ci] + bl[ci]);
                }
            }
            missing[ci] -= 1;
            if missing[ci] == 0 {
                // Last parent scheduled: the node's t-level is final —
                // it graduates from partially free to free.
                if partial.contains(c.0) {
                    partial.remove(c.0);
                }
                free.insert(c.0, tlevel[ci] + bl[ci]);
            } else if !partial.contains(c.0) {
                // First scheduled parent: the node becomes partially
                // free (its start estimate is now meaningful).
                partial.insert(c.0, tlevel[ci] + bl[ci]);
            }
        }
    }

    free.ops().merged(partial.ops()).flush_to_registry();
    Ok(Outcome {
        schedule: s,
        network: None,
    })
}

#[inline]
fn priority(n: TaskId, tlevel: &[u64], bl: &[u64]) -> u64 {
    tlevel[n.index()] + bl[n.index()]
}

/// Start time of `n` appended to cluster `p`: edges from parents already on
/// `p` are zeroed; the node goes after everything on the cluster.
fn append_start(g: &TaskGraph, s: &Schedule, n: TaskId, p: ProcId) -> u64 {
    let mut drt = 0u64;
    for &(q, c) in g.preds(n) {
        if let Some(pl) = s.placement(q) {
            let cost = if pl.proc == p { 0 } else { c };
            drt = drt.max(pl.finish + cost);
        }
    }
    s.timeline(p).earliest_append(drt)
}

/// Estimated start of a partially free node on cluster `p`: only its
/// *scheduled* parents constrain it (unscheduled ones are unknown), zeroing
/// edges from parents on `p`, append policy.
fn est_partially_free(g: &TaskGraph, s: &Schedule, n: TaskId, p: ProcId) -> u64 {
    append_start(g, s, n, p)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::unc::testutil;
    use dagsched_graph::GraphBuilder;

    #[test]
    fn satisfies_unc_contract() {
        testutil::standard_contract(&Dsc);
    }

    #[test]
    fn zeroes_the_dominant_incoming_edge() {
        // join: a(2) →(9) j(3), b(2) →(1) j. DSC should put j with a
        // (dominant arrival 2+9=11 vs 2+1=3), starting j at 2 locally —
        // constrained also by b's message (arrives 3). Start = max(2, 3)…
        // append_start zeroes only a's edge: drt = max(2, 2+1=3) = 3.
        let mut gb = GraphBuilder::new();
        let a = gb.add_task(2);
        let b = gb.add_task(2);
        let j = gb.add_task(3);
        gb.add_edge(a, j, 9).unwrap();
        gb.add_edge(b, j, 1).unwrap();
        let g = gb.build().unwrap();
        let out = testutil::run(&Dsc, &g);
        assert_eq!(out.schedule.proc_of(j), out.schedule.proc_of(a));
        assert_eq!(out.schedule.start_of(j), Some(3));
        assert_eq!(out.schedule.makespan(), 6);
    }

    #[test]
    fn rejects_merges_that_do_not_reduce_tlevel() {
        // a →(1) b where waiting for the message (start 3) equals staying
        // after a locally… make local strictly worse: occupy a's cluster.
        // fork: a(5) → {x(1, comm 1), y(5, comm 1)}. Priority order: a, y
        // (bl 10 ⊕), then x. y joins a's cluster (start 5 < tlevel 11?
        // tlevel(y)=5+1=6 → 5 < 6 ✓ merge). x: append to a's cluster start
        // = 10; tlevel(x) = 6 → 10 ≥ 6 ⇒ merge rejected, x opens its own
        // cluster at 6.
        let mut gb = GraphBuilder::new();
        let a = gb.add_task(5);
        let x = gb.add_task(1);
        let y = gb.add_task(5);
        gb.add_edge(a, x, 1).unwrap();
        gb.add_edge(a, y, 1).unwrap();
        let g = gb.build().unwrap();
        let out = testutil::run(&Dsc, &g);
        assert_eq!(out.schedule.proc_of(y), out.schedule.proc_of(a));
        assert_ne!(out.schedule.proc_of(x), out.schedule.proc_of(a));
        assert_eq!(out.schedule.start_of(x), Some(6));
        assert_eq!(out.schedule.makespan(), 10);
    }

    #[test]
    fn chain_with_light_comm_still_merges() {
        // Even tiny comm is worth zeroing on a chain (start strictly
        // earlier).
        let mut gb = GraphBuilder::new();
        let a = gb.add_task(4);
        let b = gb.add_task(4);
        gb.add_edge(a, b, 1).unwrap();
        let g = gb.build().unwrap();
        let out = testutil::run(&Dsc, &g);
        assert_eq!(out.schedule.procs_used(), 1);
        assert_eq!(out.schedule.makespan(), 8);
    }

    #[test]
    fn uses_many_clusters_on_wide_graphs() {
        // The paper (Fig. 3(a)): DSC is processor-hungry. A wide fork must
        // open a cluster per branch when comm is cheap relative to waiting.
        let mut gb = GraphBuilder::new();
        let a = gb.add_task(1);
        let branches: Vec<_> = (0..6).map(|_| gb.add_task(10)).collect();
        for &br in &branches {
            gb.add_edge(a, br, 1).unwrap();
        }
        let g = gb.build().unwrap();
        let out = testutil::run(&Dsc, &g);
        // One branch is zeroed onto a's cluster; the rest run remotely in
        // parallel: 6 clusters total… at least 4 to be robust.
        assert!(
            out.schedule.procs_used() >= 4,
            "used {}",
            out.schedule.procs_used()
        );
        assert!(out.schedule.makespan() <= 1 + 1 + 10);
    }

    #[test]
    fn partial_heap_tracks_the_dsrw_candidate_exactly() {
        // A join whose head becomes partially free the moment its first
        // parent is placed, then free once the second lands: the DSRW
        // candidate the heap engine reports must match a hand computation.
        // a(1) →(5) j(2) ←(5) b(8); plus a →(1) k(1) so the DSRW guard has
        // a lower-priority node to evaluate while j is still waiting on b.
        let mut gb = GraphBuilder::new();
        let a = gb.add_task(1);
        let b = gb.add_task(8);
        let j = gb.add_task(2);
        let k = gb.add_task(1);
        gb.add_edge(a, j, 5).unwrap();
        gb.add_edge(b, j, 5).unwrap();
        gb.add_edge(a, k, 1).unwrap();
        let g = gb.build().unwrap();
        let out = testutil::run(&Dsc, &g);
        out.validate(&g).unwrap();
        // j's dominant parent is b (arrival 8+5=13 vs 1+5=6): zeroing b's
        // edge starts j at max(8, 6) = 8 on b's cluster.
        assert_eq!(out.schedule.proc_of(j), out.schedule.proc_of(b));
        assert_eq!(out.schedule.start_of(j), Some(8));
    }
}
