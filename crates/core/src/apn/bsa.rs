//! BSA — Bubble Scheduling and Allocation (Kwok & Ahmad, 1995).
//!
//! Taxonomy (§3): **dynamic list**, CP-based, insertion-by-migration,
//! network-aware. The paper highlights BSA as the strongest APN algorithm
//! on large graphs thanks to "an efficient scheduling of communication
//! messages" (§6.4.1).
//!
//! Three phases, per the original publication:
//!
//! 1. **CPN-dominant sequence** — a topological total order that lists every
//!    critical-path node as early as possible: each CP node is preceded by
//!    its not-yet-listed ancestors (in-branch nodes, topological order);
//!    the remaining out-branch nodes follow in descending b-level order.
//! 2. **Serial injection** — all tasks are placed on a single *pivot*
//!    processor (P0) in sequence order: zero communication, maximal
//!    serialization.
//! 3. **Bubbling migration** — processors are visited in breadth-first
//!    order from the pivot; each task on the current processor may migrate
//!    to an adjacent processor when that does not delay its start time nor
//!    the overall makespan (strict start-time improvements are preferred;
//!    equal-start migrations are allowed so later passes can keep bubbling
//!    the task outward). Every tentative migration is evaluated through
//!    the incremental `super::ReplayEngine`: the trial orders' commit
//!    sequence is diffed against the live journal, only the divergent
//!    suffix is rolled back (batched) and recommitted, and the resulting
//!    schedule is byte-identical to a from-scratch replay (locked by
//!    equivalence tests against the retained `replay` reference, and by
//!    the committed placement-and-message digests of the workspace's
//!    `tests/placement_digests.rs`).
//!
//! The incremental update discipline follows the original publication
//! (which bubbles messages and tasks in place rather than rebuilding);
//! our acceptance rule is the explicit `(start, makespan)` dominance
//! check described above (DESIGN.md §2). Three further mechanics keep
//! decisions identical while skipping provably-doomed work (details on
//! `super::Cutoff`): the dominance bounds are evaluated *inside* the
//! replay (probe-ahead start bounds, monotone-tail bounds, and the
//! remaining-row-work makespan bound cut a trial early), the engine idles
//! on a rejected trial's half-built state until the next candidate diffs
//! against it (the decided schedule lives in caches), and neighbours are
//! evaluated likely-loser-first so the eventual winner usually is the
//! live state already.
//!
//! Complexity: O(v · deg(topology) · (v + e + suffix)) where `suffix` is
//! the recommitted tail after the migration point, with the bounds above
//! collapsing most candidates' suffix work — against the former
//! O(v · deg · replay) with replay = O(v·p + e·hops) *plus* a topology
//! clone, a fresh network/schedule and per-hop allocations per candidate.
//! On the paper-scale instance (500-node CCR 0.1 RGNOS on the 8-processor
//! hypercube) a trial commits ~427 messages where a full replay recommits
//! up to e = 2632; the workspace's `tests/work_ceilings.rs` gates that
//! count.

use dagsched_graph::{levels, TaskGraph, TaskId};
use dagsched_obs::{emit, Event, NullSink, Sink, TrialVerdict};
use dagsched_platform::ProcId;

use crate::{AlgoClass, Env, Outcome, SchedError, Scheduler};

use super::{ApplyOutcome, CutReason, Cutoff, ReplayEngine};

/// The BSA scheduler.
#[derive(Debug, Default, Clone, Copy)]
pub struct Bsa;

impl Scheduler for Bsa {
    fn name(&self) -> &'static str {
        "BSA"
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

/// Which dominance bound rejected a trial, as a trace verdict (see
/// [`super::CutReason`]).
fn verdict_of(reason: CutReason) -> TrialVerdict {
    match reason {
        CutReason::ProbeAhead => TrialVerdict::CutProbeAhead,
        CutReason::RowWork => TrialVerdict::CutRowWork,
        CutReason::Finish => TrialVerdict::CutFinish,
        CutReason::WatchStart => TrialVerdict::CutWatchStart,
        CutReason::TieCap => TrialVerdict::CutTieCap,
        CutReason::TargetTail => TrialVerdict::CutTargetTail,
    }
}

/// The engine proper, generic over the trace sink (see `dsc::run`).
fn run<S: Sink>(g: &TaskGraph, env: &Env, sink: &mut S) -> Outcome {
    let procs = env.procs();
    let seq = cpn_dominant_sequence(g);
    let mut seq_pos = vec![0usize; g.num_tasks()];
    for (i, &n) in seq.iter().enumerate() {
        seq_pos[n.index()] = i;
    }

    // Phase 2: serial injection on the pivot.
    let pivot = ProcId(0);
    let mut orders: Vec<Vec<TaskId>> = vec![Vec::new(); procs];
    orders[pivot.index()] = seq.clone();
    let mut engine = ReplayEngine::new(g, env);
    let ok = engine.apply(g, &orders);
    debug_assert!(ok, "serial injection follows a topological order");
    // The bubbling order and the arrival ranks read the network the
    // engine routes on (built by the engine when `env` is a `bnp`
    // machine); one copy, since the engine is mutated below.
    let topo = engine.state().net.topology().clone();

    // The *decided* schedule (the state `replay(orders)` would build)
    // is tracked through caches instead of being kept live in the
    // engine: after a rejected candidate loop nothing changed, so the
    // engine is allowed to idle on a half-built trial until the next
    // candidate diffs against it — rejected tasks cost a short
    // rollback instead of a full suffix rebuild. The caches refresh
    // only when a migration is accepted (the engine then really lands
    // on the decided orders).
    let mut assignment: Vec<ProcId> = vec![pivot; g.num_tasks()];
    let mut starts: Vec<u64> = vec![0; g.num_tasks()];
    let mut decided_makespan = 0u64;
    let mut decided_tails: Vec<u64> = vec![0; procs];
    let refresh =
        |st: &super::ApnState, starts: &mut Vec<u64>, makespan: &mut u64, tails: &mut Vec<u64>| {
            for t in g.tasks() {
                starts[t.index()] = st.s.start_of(t).expect("complete");
            }
            *makespan = st.s.makespan();
            for (r, tail) in tails.iter_mut().enumerate() {
                *tail = st.s.timeline(ProcId(r as u32)).ready_time();
            }
        };
    refresh(
        engine.state(),
        &mut starts,
        &mut decided_makespan,
        &mut decided_tails,
    );
    let mut neighbor_order: Vec<ProcId> = Vec::new();
    // Trial tallies, kept in locals on the hot path and flushed to the
    // global registry once at the end of the run.
    let (mut trials, mut trials_cut, mut trials_accepted) = (0u64, 0u64, 0u64);

    // Phase 3: bubble tasks outward, processor by processor. The
    // `orders` vector is edited in place per candidate (move `n` from
    // `p`'s row into `q`'s at its sequence position) and undone after
    // the engine evaluates it — no cloning, no from-scratch replays.
    // Each processor's snapshot is its decided row: under the append
    // policy tasks execute in row order, so this equals the old
    // `tasks_on(p)` execution-order snapshot.
    for p in topo.bfs_order(pivot) {
        let snapshot = orders[p.index()].clone();
        for n in snapshot {
            if assignment[n.index()] != p {
                continue; // already bubbled away by an earlier decision
            }
            let cur_start = starts[n.index()];
            let cur_makespan = decided_makespan;
            let pos_in_p = orders[p.index()]
                .iter()
                .position(|&t| t == n)
                .expect("orders track placements");
            let mut best: Option<(u64, u64, u32, usize)> = None;
            // Evaluate likely-rejected neighbours first, likely winner
            // last. The winning key is the lexicographic minimum over
            // (start, makespan, q) — evaluation order cannot change it
            // — but when the winner happens to be the last trial
            // evaluated, accepting it re-applies against an
            // already-live state for free. The rank is a heuristic
            // (decided tail plus uncontended parent arrivals, higher =
            // more likely cut early); correctness never depends on it.
            neighbor_order.clear();
            neighbor_order.extend(topo.neighbors(p).iter().map(|&(q, _)| q));
            let rank = |q: ProcId| -> u64 {
                let mut r = decided_tails[q.index()];
                for &(par, c) in g.preds(n) {
                    let pf = starts[par.index()] + g.weight(par);
                    let pp = assignment[par.index()];
                    let arr = if pp == q || c == 0 {
                        pf
                    } else {
                        pf + c * topo.distance(pp, q) as u64
                    };
                    r = r.max(arr);
                }
                r
            };
            neighbor_order.sort_by_key(|&q| std::cmp::Reverse((rank(q), q.0)));
            for qi in 0..neighbor_order.len() {
                let q = neighbor_order[qi];
                // NOTE: no decided-state precheck is sound here.
                // Inserting `n` into q's row can *block* q's
                // round-robin turn where the decided replay ran
                // through, reordering commits well before `n`'s old
                // position — even `n`'s parents may land on different
                // start times in the trial. Rejection bounds therefore
                // live inside `apply_cut`, which only ever reasons
                // about the trial's own prefix state.
                // The dominance bounds (and the incumbent's key) are
                // pushed into the replay itself: a candidate is cut
                // the moment it is provably rejectable.
                let cutoff = Cutoff {
                    watch: Some(n),
                    watch_proc: Some(q),
                    max_start: cur_start,
                    max_finish: cur_makespan,
                    best: best.map(|(bs, bm, bq, _)| {
                        // On a start tie, this trial wins a full tie
                        // iff its id is smaller than the incumbent's.
                        (bs, if q.0 < bq { bm } else { bm.saturating_sub(1) })
                    }),
                };
                orders[p.index()].remove(pos_in_p);
                let row = &mut orders[q.index()];
                let at = row
                    .iter()
                    .position(|&t| seq_pos[t.index()] > seq_pos[n.index()])
                    .unwrap_or(row.len());
                row.insert(at, n);
                trials += 1;
                let verdict = match engine.apply_cut(g, &orders, &cutoff) {
                    ApplyOutcome::Done => {
                        let ns = engine.state().s.start_of(n).expect("placed in replay");
                        let nm = engine.state().s.makespan();
                        debug_assert!(ns <= cur_start && nm <= cur_makespan);
                        let key = (ns, nm, q.0);
                        if best
                            .as_ref()
                            .is_none_or(|&(bs, bm, bq, _)| key < (bs, bm, bq))
                        {
                            best = Some((ns, nm, q.0, at));
                            TrialVerdict::Accepted
                        } else {
                            TrialVerdict::Dominated
                        }
                    }
                    ApplyOutcome::Deadlock => TrialVerdict::Deadlock,
                    ApplyOutcome::Cut(reason) => {
                        trials_cut += 1;
                        verdict_of(reason)
                    }
                };
                emit!(
                    sink,
                    Event::BsaTrial {
                        task: n.0,
                        from: p.0,
                        to: q.0,
                        verdict,
                    }
                );
                orders[q.index()].remove(at);
                orders[p.index()].insert(pos_in_p, n);
            }
            if let Some((ns, _, bq, at)) = best {
                orders[p.index()].remove(pos_in_p);
                orders[bq as usize].insert(at, n);
                assignment[n.index()] = ProcId(bq);
                trials_accepted += 1;
                // Land the live state on the accepted orders and
                // refresh the decided-schedule caches.
                let ok = engine.apply(g, &orders);
                debug_assert!(ok, "accepted orders replayed successfully before");
                refresh(
                    engine.state(),
                    &mut starts,
                    &mut decided_makespan,
                    &mut decided_tails,
                );
                emit!(
                    sink,
                    Event::PlacementCommitted {
                        task: n.0,
                        proc: bq,
                        start: ns,
                        finish: ns + g.weight(n),
                        hole: false,
                    }
                );
            }
        }
    }

    // Land the live state on the final decided orders (the engine may
    // be idling on the last rejected trial).
    let ok = engine.apply(g, &orders);
    debug_assert!(ok, "decided orders replayed successfully before");
    let reg = dagsched_obs::global();
    reg.add(dagsched_obs::Metric::BsaTrials, trials);
    reg.add(dagsched_obs::Metric::BsaTrialsCut, trials_cut);
    reg.add(dagsched_obs::Metric::BsaTrialsAccepted, trials_accepted);
    engine.into_outcome()
}

/// The CPN-dominant sequence: CP nodes as early as possible, each preceded
/// by its unlisted ancestors (IBNs, topological order); out-branch nodes
/// appended in descending b-level order (which is itself topologically
/// consistent, since b-levels strictly decrease along edges).
fn cpn_dominant_sequence(g: &TaskGraph) -> Vec<TaskId> {
    let cp = levels::critical_path(g);
    let bl = g.levels().b_levels();
    let topo_pos: Vec<usize> = {
        let mut v = vec![0usize; g.num_tasks()];
        for (i, &n) in g.topo_order().iter().enumerate() {
            v[n.index()] = i;
        }
        v
    };
    let mut listed = vec![false; g.num_tasks()];
    let mut seq = Vec::with_capacity(g.num_tasks());
    for &cpn in &cp {
        // Unlisted ancestors of cpn, in topological order.
        let mut anc = Vec::new();
        let mut stack = vec![cpn];
        let mut seen = vec![false; g.num_tasks()];
        while let Some(x) = stack.pop() {
            for &(q, _) in g.preds(x) {
                if !seen[q.index()] && !listed[q.index()] {
                    seen[q.index()] = true;
                    anc.push(q);
                    stack.push(q);
                }
            }
        }
        anc.sort_unstable_by_key(|&n| topo_pos[n.index()]);
        for n in anc {
            listed[n.index()] = true;
            seq.push(n);
        }
        if !listed[cpn.index()] {
            listed[cpn.index()] = true;
            seq.push(cpn);
        }
    }
    let mut rest: Vec<TaskId> = g.tasks().filter(|n| !listed[n.index()]).collect();
    rest.sort_unstable_by_key(|&n| (std::cmp::Reverse(bl[n.index()]), n.0));
    seq.extend(rest);
    seq
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apn::testutil;
    use dagsched_graph::GraphBuilder;
    use dagsched_platform::Topology;

    #[test]
    fn satisfies_apn_contract() {
        testutil::standard_contract(&Bsa);
    }

    #[test]
    fn cpn_dominant_sequence_is_topological_and_cp_first() {
        let g = testutil::classic_nine();
        let seq = cpn_dominant_sequence(&g);
        assert!(dagsched_graph::topo::is_topological(&g, &seq));
        // The CP here is n0→n4→n7→n8; n0 and n4 must occupy the first two
        // slots (n0 has no other ancestors).
        assert_eq!(seq[0], TaskId(0));
        assert_eq!(seq[1], TaskId(4));
    }

    #[test]
    fn never_worse_than_serial_injection() {
        // Migration only accepts makespan-non-increasing moves, so BSA is
        // bounded by the serial time on every topology.
        let g = testutil::classic_nine();
        for topo in [Topology::chain(4).unwrap(), Topology::ring(5).unwrap()] {
            let out = testutil::run(&Bsa, &g, topo);
            assert!(out.schedule.makespan() <= g.total_work());
        }
    }

    #[test]
    fn bubbles_independent_work_across_a_chain() {
        // Three independent tasks on a 3-chain must end up one per
        // processor (the equal-start migration rule lets the middle task
        // keep travelling to P2 on P1's pass).
        let g = testutil::independent(3, 7);
        let out = testutil::run(&Bsa, &g, Topology::chain(3).unwrap());
        assert_eq!(out.schedule.makespan(), 7);
        assert_eq!(out.schedule.procs_used(), 3);
    }

    #[test]
    fn keeps_heavy_chain_on_pivot() {
        let mut gb = GraphBuilder::new();
        let a = gb.add_task(3);
        let b = gb.add_task(3);
        gb.add_edge(a, b, 50).unwrap();
        let g = gb.build().unwrap();
        let out = testutil::run(&Bsa, &g, Topology::chain(3).unwrap());
        assert_eq!(out.schedule.proc_of(a), Some(ProcId(0)));
        assert_eq!(out.schedule.proc_of(b), Some(ProcId(0)));
        assert_eq!(out.schedule.makespan(), 6);
    }

    #[test]
    fn messages_respect_link_capacity_on_star() {
        // Fan-out from one producer on a star: all messages cross the hub's
        // links; validation (run inside testutil::run) checks link overlap.
        let mut gb = GraphBuilder::new();
        let a = gb.add_task(1);
        for _ in 0..5 {
            let c = gb.add_task(20);
            gb.add_edge(a, c, 3).unwrap();
        }
        let g = gb.build().unwrap();
        let out = testutil::run(&Bsa, &g, Topology::star(4).unwrap());
        // Serial bound 101; parallelizing should do much better.
        assert!(out.schedule.makespan() < 101);
    }
}
