//! The composed list-scheduler driver: one run loop generic over the
//! component axes and the trace sink.
//!
//! Both [`Scheduler::schedule`](crate::Scheduler::schedule) entry points of
//! [`super::ComposedScheduler`] route through [`run`], so the untraced path
//! is monomorphized with [`NullSink`](dagsched_obs::NullSink) and pays
//! nothing for the instrumentation, while *every* composed variant gets the
//! full event narrative (`TaskSelected` → `PlacementProbed`* →
//! `PlacementCommitted`) without per-variant wiring.
//!
//! Event semantics: a `PlacementProbed` is emitted for every EST the
//! selection loop actually computes — once per processor of the selected
//! task under a static list, once per (candidate, processor) under a
//! dynamic one. Hole-filler scans (`FILL=holes`) are not probed; fillers
//! are announced by their own `TaskSelected` and a `PlacementCommitted`
//! with `hole: true`.

use dagsched_graph::{TaskGraph, TaskId};
use dagsched_obs::{emit, Event, Sink};
use dagsched_platform::{ProcId, Schedule};
use std::cmp::Reverse;

use super::priority::{Ctx, Key};
use super::{Fill, ListPolicy, Selection, Spec};
use crate::common::{best_proc, drt, est_on, ReadyQueue, ReadySet};
use crate::{Env, Outcome};

/// A chosen placement: (task, processor, start time).
type Pick = (TaskId, ProcId, u64);
/// `SEL=ready` scan key: priority, then smaller task id.
type ReadyKey = (Key, Reverse<u32>);
/// `SEL=pair` scan key: priority, then smaller task id, then smaller
/// processor id.
type PairKey = (Key, Reverse<u32>, Reverse<u32>);

/// Ready-candidate access shared by the two list policies, so the
/// hole-filling pass is written once.
trait Candidates {
    fn iter_ready(&self) -> impl Iterator<Item = TaskId> + '_;
    fn take_ready(&mut self, g: &TaskGraph, n: TaskId);
}

impl Candidates for ReadySet {
    fn iter_ready(&self) -> impl Iterator<Item = TaskId> + '_ {
        self.iter()
    }
    fn take_ready(&mut self, g: &TaskGraph, n: TaskId) {
        self.take(g, n);
    }
}

impl Candidates for ReadyQueue<Reverse<u32>> {
    fn iter_ready(&self) -> impl Iterator<Item = TaskId> + '_ {
        self.iter()
    }
    fn take_ready(&mut self, g: &TaskGraph, n: TaskId) {
        self.take(g, n);
    }
}

/// The driver proper.
pub(crate) fn run<S: Sink>(g: &TaskGraph, env: &Env, spec: Spec, sink: &mut S) -> Outcome {
    let mut s = Schedule::new(g.num_tasks(), env.procs());
    let cx = Ctx::new(g, spec);
    match spec.list {
        ListPolicy::Static => {
            // Max-heap over `Reverse(rank)`: peek_max is the lowest-ranked
            // (earliest in the static order) ready task. Ranks are unique,
            // so the heap's id tie-break never engages. `SEL` is inert
            // here: the static order fixes the task, leaving only the
            // slot-policy processor choice.
            let keys: Vec<Reverse<u32>> = cx.rank.iter().map(|&r| Reverse(r)).collect();
            let mut ready = ReadyQueue::new(g, keys);
            while let Some(n) = ready.peek_max() {
                emit!(
                    sink,
                    Event::TaskSelected {
                        task: n.0,
                        // The static stand-in for EST is the t-level (see
                        // `Prio::static_key`).
                        key: spec.prio.trace_key(&cx, n, cx.tl[n.index()]),
                        tie: n.0 as u64,
                    }
                );
                let (p, est) = probe_best(g, &s, n, spec, sink);
                let hole_start = s.timeline(p).ready_time();
                commit(g, &mut s, n, p, est, sink);
                ready.take(g, n);
                if spec.fill == Fill::Holes {
                    fill_hole(&cx, &mut s, &mut ready, spec, p, hole_start, est, sink);
                }
            }
        }
        ListPolicy::Dynamic => {
            let mut ready = ReadySet::new(g);
            while !ready.is_empty() {
                let (n, p, est) = match spec.sel {
                    Selection::Ready => select_ready(&cx, &s, &ready, spec, sink),
                    Selection::Pair => select_pair(&cx, &s, &ready, spec, sink),
                };
                emit!(
                    sink,
                    Event::TaskSelected {
                        task: n.0,
                        key: spec.prio.trace_key(&cx, n, est),
                        tie: n.0 as u64,
                    }
                );
                let hole_start = s.timeline(p).ready_time();
                commit(g, &mut s, n, p, est, sink);
                ready.take(g, n);
                if spec.fill == Fill::Holes {
                    fill_hole(&cx, &mut s, &mut ready, spec, p, hole_start, est, sink);
                }
            }
        }
    }
    Outcome {
        schedule: s,
        network: None,
    }
}

/// Scan every processor for the selected task's best start under the slot
/// policy (ties: smallest processor id), emitting one `PlacementProbed`
/// per EST computed. Monomorphizes to [`best_proc`] under a null sink.
fn probe_best<S: Sink>(
    g: &TaskGraph,
    s: &Schedule,
    n: TaskId,
    spec: Spec,
    sink: &mut S,
) -> (ProcId, u64) {
    let mut best = (ProcId(0), u64::MAX);
    for pi in 0..s.num_procs() as u32 {
        let p = ProcId(pi);
        let est = est_on(g, s, n, p, spec.slot);
        emit!(
            sink,
            Event::PlacementProbed {
                task: n.0,
                proc: pi,
                start: est,
            }
        );
        if est < best.1 {
            best = (p, est);
        }
    }
    best
}

/// `SEL=ready`: rank ready tasks by their priority at their own best
/// (processor, EST); ties toward the smaller task id.
fn select_ready<S: Sink>(
    cx: &Ctx,
    s: &Schedule,
    ready: &ReadySet,
    spec: Spec,
    sink: &mut S,
) -> Pick {
    let mut best: Option<(ReadyKey, Pick)> = None;
    for m in ready.iter() {
        let (pm, em) = probe_best(cx.g, s, m, spec, sink);
        let key = (spec.prio.ready_key(cx, m, em), Reverse(m.0));
        if best.as_ref().is_none_or(|(bk, _)| key > *bk) {
            best = Some((key, (m, pm, em)));
        }
    }
    best.expect("ready set non-empty").1
}

/// `SEL=pair`: rank every (ready task, processor) pair by the priority at
/// that pair's EST; ties toward the smaller task id, then processor id —
/// the ETF/DLS exhaustive scan.
fn select_pair<S: Sink>(
    cx: &Ctx,
    s: &Schedule,
    ready: &ReadySet,
    spec: Spec,
    sink: &mut S,
) -> Pick {
    let mut best: Option<(PairKey, Pick)> = None;
    for m in ready.iter() {
        for pi in 0..s.num_procs() as u32 {
            let p = ProcId(pi);
            let est = est_on(cx.g, s, m, p, spec.slot);
            emit!(
                sink,
                Event::PlacementProbed {
                    task: m.0,
                    proc: pi,
                    start: est,
                }
            );
            let key = (spec.prio.pair_key(cx, m, est), Reverse(m.0), Reverse(pi));
            if best.as_ref().is_none_or(|(bk, _)| key > *bk) {
                best = Some((key, (m, p, est)));
            }
        }
    }
    best.expect("ready set non-empty").1
}

/// Place `n` at `(p, est)` and emit the commit event. The `hole` flag is
/// computed only when the sink is live: a placement finishing strictly
/// before the processor's append point went into an idle hole.
fn commit<S: Sink>(g: &TaskGraph, s: &mut Schedule, n: TaskId, p: ProcId, est: u64, sink: &mut S) {
    let w = g.weight(n);
    let hole = sink.enabled() && est + w < s.timeline(p).earliest_append(0);
    s.place(n, p, est, w).expect("chosen slot fits");
    emit!(
        sink,
        Event::PlacementCommitted {
            task: n.0,
            proc: p.0,
            start: est,
            finish: est + w,
            hole,
        }
    );
}

/// `FILL=holes` — the ISH insertion pass. Placing `n` at `est` on `p` left
/// the idle window `[hole_start, est)`; fill it left-to-right with the
/// best ready task (by schedule-independent priority, ties smaller id)
/// that (a) fits entirely and (b) would start no later in the hole than on
/// its own best processor — filling must never delay the filler itself.
#[allow(clippy::too_many_arguments)]
fn fill_hole<R: Candidates, S: Sink>(
    cx: &Ctx,
    s: &mut Schedule,
    ready: &mut R,
    spec: Spec,
    p: ProcId,
    hole_start: u64,
    est: u64,
    sink: &mut S,
) {
    let g = cx.g;
    let mut cursor = hole_start;
    while cursor < est {
        let mut filler: Option<(ReadyKey, (TaskId, u64))> = None;
        for m in ready.iter_ready() {
            let start = drt(g, s, m, p).max(cursor);
            if start + g.weight(m) > est {
                continue; // does not fit in the remaining hole
            }
            let (_, best_elsewhere) = best_proc(g, s, m, spec.slot);
            if start > best_elsewhere {
                continue; // the hole would delay this node
            }
            let key = (spec.prio.static_key(cx, m), Reverse(m.0));
            if filler.as_ref().is_none_or(|(bk, _)| key > *bk) {
                filler = Some((key, (m, start)));
            }
        }
        let Some((_, (m, start))) = filler else { break };
        emit!(
            sink,
            Event::TaskSelected {
                task: m.0,
                key: spec.prio.trace_key(cx, m, start),
                tie: m.0 as u64,
            }
        );
        let w = g.weight(m);
        s.place(m, p, start, w).expect("filler fits in the hole");
        emit!(
            sink,
            Event::PlacementCommitted {
                task: m.0,
                proc: p.0,
                start,
                finish: start + w,
                hole: true,
            }
        );
        ready.take_ready(g, m);
        cursor = start + w;
    }
}
