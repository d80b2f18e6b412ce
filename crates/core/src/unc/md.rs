//! MD — Mobility Directed scheduling (Wu & Gajski, 1990).
//!
//! Taxonomy (§3): **dynamic list**, CP-based, insertion. The priority is
//! the **relative mobility** `M(n) = (L − (tl(n) + bl(n))) / w(n)` computed
//! on the partially scheduled graph ([`crate::common::DynLevelsEngine`],
//! value-identical to the [`crate::common::DynLevels`] rescan): nodes on
//! the current (dynamic) critical path have mobility 0 and are scheduled
//! first.
//!
//! The selected node scans the already-used processors in id order and
//! takes the **first** one offering an insertion slot that does not stretch
//! the current critical path (`start ≤ ALST(n)`); failing that it opens a
//! fresh processor at its t-level (always possible without stretching,
//! since `tl + bl ≤ L`). This first-fit scan is why MD uses markedly fewer
//! processors than LC/DSC/EZ (Fig. 3(a) of the paper).
//!
//! Simplification vs. the original (DESIGN.md §2): candidates are restricted
//! to *ready* nodes, and insertion never displaces already-placed nodes
//! (the original may shift them). Both keep every intermediate schedule
//! physically valid.
//!
//! Complexity: levels are maintained by [`crate::common::DynLevelsEngine`]
//! — each placement repairs only the affected cone instead of the former
//! O(v + e) whole-graph rescan, leaving the O(|ready|) selection scan per
//! step as the dominant cost. The engine was proven placement-identical
//! to the rescan version it replaced; the workspace's
//! `tests/placement_digests.rs` pins those placements as digests.

use dagsched_graph::TaskGraph;
use dagsched_obs::{emit, Event, NullSink, Sink};
use dagsched_platform::{ProcId, Schedule};

use crate::common::{drt, DynLevelsEngine, ReadySet};
use crate::{AlgoClass, Env, Outcome, SchedError, Scheduler};

/// The MD scheduler.
#[derive(Debug, Default, Clone, Copy)]
pub struct Md;

impl Scheduler for Md {
    fn name(&self) -> &'static str {
        "MD"
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

/// The engine proper, generic over the trace sink (see `dsc::run`).
fn run<S: Sink>(g: &TaskGraph, sink: &mut S) -> Result<Outcome, SchedError> {
    let v = g.num_tasks();
    let mut s = Schedule::new(v, v);
    let mut ready = ReadySet::new(g);
    let mut d = DynLevelsEngine::new(g);
    let mut used = 0u32; // processors 0..used have been opened

    while !ready.is_empty() {
        // Minimum relative mobility; exact comparison via
        // cross-multiplication: M(a) < M(b) ⇔ slack_a·w_b < slack_b·w_a.
        let n = ready
            .iter()
            .min_by(|&a, &b| {
                let (sa, sb) = (d.mobility(a) as u128, d.mobility(b) as u128);
                let (wa, wb) = (g.weight(a) as u128, g.weight(b) as u128);
                (sa * wb)
                    .cmp(&(sb * wa))
                    .then(d.aest(a).cmp(&d.aest(b)))
                    .then(a.0.cmp(&b.0))
            })
            .expect("ready set non-empty");
        emit!(
            sink,
            Event::TaskSelected {
                task: n.0,
                key: d.mobility(n),
                tie: d.aest(n),
            }
        );

        let alst = d.alst(n);
        let w = g.weight(n);
        // First used processor with an insertion slot that keeps the CP.
        let mut placed_at: Option<(ProcId, u64)> = None;
        for pi in 0..used {
            let p = ProcId(pi);
            let start = s.timeline(p).earliest_fit(drt(g, &s, n, p), w);
            emit!(
                sink,
                Event::PlacementProbed {
                    task: n.0,
                    proc: p.0,
                    start,
                }
            );
            if start <= alst {
                placed_at = Some((p, start));
                break;
            }
        }
        let (p, start) = placed_at.unwrap_or_else(|| {
            // Fresh processor: starts exactly at the t-level.
            let p = ProcId(used);
            (p, d.aest(n))
        });
        if p.0 == used {
            used += 1;
        }
        // An insertion strictly before the processor's tail fills a hole;
        // fresh processors and tail appends do not.
        let hole = sink.enabled() && start + w < s.timeline(p).earliest_append(0);
        s.place(n, p, start, w).expect("chosen slot is free");
        emit!(
            sink,
            Event::PlacementCommitted {
                task: n.0,
                proc: p.0,
                start,
                finish: start + w,
                hole,
            }
        );
        d.placed(g, &s, n);
        emit!(sink, {
            let (fwd, bwd) = d.last_repair();
            Event::ConeRepaired {
                task: n.0,
                fwd,
                bwd,
            }
        });
        ready.take(g, n);
    }

    d.flush_to_registry();
    Ok(Outcome {
        schedule: s,
        network: None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::unc::testutil;
    use dagsched_graph::{GraphBuilder, TaskId};

    #[test]
    fn satisfies_unc_contract() {
        testutil::standard_contract(&Md);
    }

    #[test]
    fn cp_nodes_scheduled_first_and_together() {
        let g = testutil::classic_nine();
        let out = testutil::run(&Md, &g);
        // The static CP here is n0 → n4 → n7 → n8; MD zeroes it onto P0.
        let p0 = out.schedule.proc_of(TaskId(0)).unwrap();
        for n in [4u32, 7] {
            assert_eq!(out.schedule.proc_of(TaskId(n)), Some(p0), "n{n}");
        }
    }

    #[test]
    fn first_fit_reuses_processors() {
        // Wide fork of cheap-comm branches: unlike DSC, MD packs branches
        // back into used processors whenever the slack allows it. With
        // a(10) → 4 × (m(1), c=1) the CP length is 12 and every branch has
        // ALST 11: m1 appends on P0 at 10 (local data, 10 ≤ 11) and m2 at
        // 11 (11 ≤ 11), but m3/m4 would start at 12 > 11 there — the
        // ALST guard stops the packing and each opens a fresh processor
        // at its t-level. Exactly three processors, CP preserved.
        let mut gb = GraphBuilder::new();
        let a = gb.add_task(10);
        let branches: Vec<TaskId> = (0..4)
            .map(|_| {
                let m = gb.add_task(1);
                gb.add_edge(a, m, 1).unwrap();
                m
            })
            .collect();
        let g = gb.build().unwrap();
        let out = testutil::run(&Md, &g);
        let s = &out.schedule;
        let p0 = s.proc_of(a).unwrap();
        assert_eq!(s.proc_of(branches[0]), Some(p0), "m1 packs after a");
        assert_eq!(s.start_of(branches[0]), Some(10));
        assert_eq!(s.proc_of(branches[1]), Some(p0), "m2 fills the last slack");
        assert_eq!(s.start_of(branches[1]), Some(11));
        for &late in &branches[2..] {
            assert_ne!(
                s.proc_of(late),
                Some(p0),
                "{late} would start past its ALST on P0"
            );
            assert_eq!(s.start_of(late), Some(11), "fresh processor at t-level");
        }
        assert_eq!(s.procs_used(), 3, "a+m1+m2 | m3 | m4");
        assert_eq!(s.makespan(), 12, "CP must not stretch");
    }

    #[test]
    fn never_stretches_cp_when_avoidable() {
        // Chain + independent filler: L = chain length; the filler has huge
        // mobility and must slot in without stretching the CP.
        let mut gb = GraphBuilder::new();
        let a = gb.add_task(5);
        let b = gb.add_task(5);
        let _f = gb.add_task(3);
        gb.add_edge(a, b, 2).unwrap();
        let g = gb.build().unwrap();
        let out = testutil::run(&Md, &g);
        assert_eq!(out.schedule.makespan(), 10, "CP must stay 10");
    }

    #[test]
    fn fresh_processor_start_is_tlevel() {
        let mut gb = GraphBuilder::new();
        let a = gb.add_task(2);
        let b = gb.add_task(2);
        gb.add_edge(a, b, 50).unwrap();
        let g = gb.build().unwrap();
        let out = testutil::run(&Md, &g);
        // Both on one processor (b's merge keeps CP at 4 < 54).
        assert_eq!(out.schedule.makespan(), 4);
        assert_eq!(out.schedule.procs_used(), 1);
    }
}
