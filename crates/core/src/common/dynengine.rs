//! Incremental dynamic-levels engine for the dynamic-list algorithms.
//!
//! [`super::DynLevels::compute`] rebuilds the whole scheduled-graph view —
//! combined adjacency, Kahn order, two level passes — after **every**
//! placement, which is what kept MD and DCP quadratic after DSC moved to
//! its heap engine. But a single placement of `n` on processor `p`
//! perturbs the view in exactly three bounded ways:
//!
//! 1. `tl[n]` becomes pinned at the actual start time;
//! 2. the original edges incident to `n` drop to cost 0 where the other
//!    endpoint is already placed on `p`;
//! 3. `p`'s timeline gains the sequence edges `prev → n → next` around
//!    `n`'s slot (replacing the former `prev → next`).
//!
//! [`DynLevelsEngine`] therefore repairs `tl`/`bl`/`cp` along the affected
//! cone only:
//!
//! * **Forward (t-levels).** An *unplaced* node carries no sequence edges
//!   and none of its in-edges can be zeroed (zeroing needs both endpoints
//!   placed), so its t-level is a function of its original predecessors
//!   alone: `tl[m] = max_q (finish(q) + c(q,m))` with `finish(q)` read from
//!   the schedule for placed `q` and `tl[q] + w(q)` otherwise. Pinning
//!   `tl[n]` dirties only `n`'s unplaced successors; dirty nodes are
//!   drained in static topological order through an [`IndexedHeap`], each
//!   recomputed once and propagated only while its value actually moves.
//! * **Backward (b-levels).** `bl` lives on the full combined view, so the
//!   dirty seeds are `n`, its timeline predecessor `prev` (whose sequence
//!   successor changed), and `n`'s placed parents on `p` (whose out-edge
//!   was zeroed). Dirty nodes drain deepest-first — keyed by `tl`, which
//!   is monotone along every combined edge because task weights are
//!   positive — and re-dirty their combined predecessors when their value
//!   moves, so each placement touches only the cone that can actually
//!   change. A node whose recomputation exceeds `Σw + Σc` (the longest
//!   possible acyclic path) proves the combined view has a cycle; the
//!   engine hard-errors instead of looping, matching the acyclicity
//!   assertion of the scan version.
//! * **`cp`.** Every task sits in a third [`IndexedHeap`] keyed by
//!   `tl + bl`; repairs rekey it, and the dynamic critical-path length is
//!   an O(1) `peek_max`.
//!
//! The engine is value-identical to [`super::DynLevels::compute`] after
//! every placement (proptested per step in
//! `crates/core/tests/dynlevels_properties.rs`, and end-to-end by the
//! MD/DCP placement digests of the workspace's
//! `tests/placement_digests.rs`). Worst-case repair cost per placement is
//! still O((v + e) · log v), but the touched cone is typically a small
//! neighbourhood — `perf_baseline`'s `work` section gates the cone nodes
//! per repair at paper scale (≤ 100, against 2v for a full rescan).

use dagsched_graph::{TaskGraph, TaskId};
use dagsched_platform::{Placement, Schedule};
use std::cmp::Reverse;

use super::IndexedHeap;

/// Incrementally maintained `tl`/`bl`/`cp` of the scheduled-graph view.
///
/// Create it against a fresh (empty) [`Schedule`], then call
/// [`DynLevelsEngine::placed`] after **every** `Schedule::place` so the
/// engine sees each placement exactly once. Reads
/// ([`DynLevelsEngine::aest`], [`DynLevelsEngine::alst`],
/// [`DynLevelsEngine::mobility`], [`DynLevelsEngine::cp`]) are O(1).
#[derive(Debug, Clone)]
pub struct DynLevelsEngine {
    /// Absolute earliest start times (AEST); placed tasks pinned at start.
    tl: Vec<u64>,
    /// Bottom levels on the combined scheduled-graph view.
    bl: Vec<u64>,
    /// All tasks keyed by `tl + bl`; `peek_max` is the dynamic CP length.
    path: IndexedHeap<u64>,
    /// Static topological position of every task (forward drain order).
    topo_pos: Vec<u32>,
    /// Forward dirty set, drained in ascending static topological order.
    fwd: IndexedHeap<Reverse<u32>>,
    /// Backward dirty set, drained deepest (largest `tl`) first.
    bwd: IndexedHeap<u64>,
    /// `Σ weights + Σ costs`: no acyclic combined path can be longer, so a
    /// `bl` beyond this proves the schedule corrupted the view into a cycle.
    bl_bound: u64,
    /// Cone-repair accounting (plain locals; flushed once per run via
    /// [`DynLevelsEngine::flush_to_registry`]).
    stats: EngineStats,
    /// Nodes drained by the most recent [`DynLevelsEngine::placed`] call
    /// (forward, backward) — the cone-repair extent for trace events.
    last_repair: (u32, u32),
}

/// Lifetime repair totals of one [`DynLevelsEngine`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// `placed` calls (one per placement).
    pub repairs: u64,
    /// Total nodes drained by forward (AEST) repairs.
    pub fwd_nodes: u64,
    /// Total nodes drained by backward (ALST) repairs.
    pub bwd_nodes: u64,
}

impl DynLevelsEngine {
    /// Engine for graph `g` over an **empty** schedule: levels start at the
    /// static `t`/`b`-levels, exactly like the scan on no placements.
    pub fn new(g: &TaskGraph) -> DynLevelsEngine {
        let v = g.num_tasks();
        let lv = g.levels();
        let tl = lv.t_levels().to_vec();
        let bl = lv.b_levels().to_vec();
        let mut path = IndexedHeap::new(v);
        for i in 0..v {
            path.insert(i as u32, tl[i] + bl[i]);
        }
        let mut topo_pos = vec![0u32; v];
        for (i, &n) in g.topo_order().iter().enumerate() {
            topo_pos[n.index()] = i as u32;
        }
        DynLevelsEngine {
            tl,
            bl,
            path,
            topo_pos,
            fwd: IndexedHeap::new(v),
            bwd: IndexedHeap::new(v),
            bl_bound: g.total_work() + g.total_comm(),
            stats: EngineStats::default(),
            last_repair: (0, 0),
        }
    }

    /// Lifetime repair totals (see [`EngineStats`]).
    pub fn stats(&self) -> EngineStats {
        self.stats
    }

    /// Nodes drained (forward, backward) by the most recent
    /// [`DynLevelsEngine::placed`] call — the cone-repair extent.
    pub fn last_repair(&self) -> (u32, u32) {
        self.last_repair
    }

    /// Flush repair totals and the three internal heaps' operation counts
    /// onto the global observability registry. Call once per run.
    pub fn flush_to_registry(&self) {
        use dagsched_obs::{global, Metric};
        let r = global();
        r.add(Metric::EngineRepairs, self.stats.repairs);
        r.add(Metric::EngineFwdNodes, self.stats.fwd_nodes);
        r.add(Metric::EngineBwdNodes, self.stats.bwd_nodes);
        self.path
            .ops()
            .merged(self.fwd.ops())
            .merged(self.bwd.ops())
            .flush_to_registry();
    }

    /// Absolute earliest start time of `n` (AEST in DCP terminology).
    #[inline]
    pub fn aest(&self, n: TaskId) -> u64 {
        self.tl[n.index()]
    }

    /// Bottom level of `n` on the scheduled-graph view.
    #[inline]
    pub fn blevel(&self, n: TaskId) -> u64 {
        self.bl[n.index()]
    }

    /// Current (dynamic) critical-path length: `max(tl + bl)`.
    #[inline]
    pub fn cp(&self) -> u64 {
        self.path
            .peek_max()
            .and_then(|h| self.path.key_of(h))
            .unwrap_or(0)
    }

    /// Absolute latest start time of `n` that does not stretch the dynamic
    /// critical path.
    #[inline]
    pub fn alst(&self, n: TaskId) -> u64 {
        self.cp() - self.bl[n.index()]
    }

    /// `alst − aest`: zero exactly on the dynamic critical path.
    #[inline]
    pub fn mobility(&self, n: TaskId) -> u64 {
        self.alst(n).saturating_sub(self.aest(n))
    }

    /// Repair the levels after `n` was placed on `s` (call once, right
    /// after the `Schedule::place` that seated it).
    ///
    /// # Panics
    ///
    /// If `n` is not in the schedule, or if the placement bent the combined
    /// scheduled-graph view into a cycle (a corrupt schedule — e.g. a task
    /// seated on a timeline *before* one of its ancestors).
    pub fn placed(&mut self, g: &TaskGraph, s: &Schedule, n: TaskId) {
        let pl = s
            .placement(n)
            .expect("placed: task must be in the schedule");

        // Forward repair: pin tl[n]; a child's view of n moves from
        // `tl + w` to the recorded finish.
        let old_contrib = self.tl[n.index()] + g.weight(n);
        if pl.start != self.tl[n.index()] {
            self.tl[n.index()] = pl.start;
            self.rekey_path(n);
        }
        if pl.finish != old_contrib {
            for &(m, _) in g.succs(n) {
                self.mark_fwd(s, m);
            }
        }
        let mut fwd_drained = 0u32;
        while let Some(h) = self.fwd.pop_max() {
            fwd_drained += 1;
            let m = TaskId(h);
            let mut t = 0u64;
            for &(q, c) in g.preds(m) {
                let finish = match s.placement(q) {
                    Some(qp) => qp.finish,
                    None => self.tl[q.index()] + g.weight(q),
                };
                t = t.max(finish + c);
            }
            if t != self.tl[m.index()] {
                self.tl[m.index()] = t;
                self.rekey_path(m);
                for &(x, _) in g.succs(m) {
                    self.mark_fwd(s, x);
                }
            }
        }

        // Backward repair: n itself (new sequence successor + zeroed
        // out-edges), the slot before it (its sequence successor changed),
        // and placed parents on the same processor (in-edge to n zeroed).
        self.mark_bwd(n);
        if let Some(prev) = seq_neighbor(s, n, &pl, -1) {
            self.mark_bwd(prev);
        }
        for &(q, _) in g.preds(n) {
            if s.placement(q).is_some_and(|qp| qp.proc == pl.proc) {
                self.mark_bwd(q);
            }
        }
        let mut bwd_drained = 0u32;
        while let Some(h) = self.bwd.pop_max() {
            bwd_drained += 1;
            let u = TaskId(h);
            let pu = s.placement(u);
            let mut best = 0u64;
            for &(m, c) in g.succs(u) {
                let cost = match (&pu, s.placement(m)) {
                    (Some(a), Some(b)) if a.proc == b.proc => 0,
                    _ => c,
                };
                best = best.max(cost + self.bl[m.index()]);
            }
            if let Some(pu) = &pu {
                if let Some(next) = seq_neighbor(s, u, pu, 1) {
                    best = best.max(self.bl[next.index()]);
                }
            }
            let new_bl = g.weight(u) + best;
            assert!(
                new_bl <= self.bl_bound,
                "combined scheduled graph must stay acyclic (bl({u}) grew past {})",
                self.bl_bound
            );
            if new_bl != self.bl[u.index()] {
                self.bl[u.index()] = new_bl;
                self.rekey_path(u);
                for &(q, _) in g.preds(u) {
                    self.mark_bwd(q);
                }
                if let Some(pu) = &pu {
                    if let Some(prev) = seq_neighbor(s, u, pu, -1) {
                        self.mark_bwd(prev);
                    }
                }
            }
        }

        self.stats.repairs += 1;
        self.stats.fwd_nodes += fwd_drained as u64;
        self.stats.bwd_nodes += bwd_drained as u64;
        self.last_repair = (fwd_drained, bwd_drained);
        let reg = dagsched_obs::global();
        reg.hist(dagsched_obs::HistId::EngineFwdCone)
            .record(fwd_drained as u64);
        reg.hist(dagsched_obs::HistId::EngineBwdCone)
            .record(bwd_drained as u64);
    }

    #[inline]
    fn rekey_path(&mut self, n: TaskId) {
        self.path
            .rekey(n.0, self.tl[n.index()] + self.bl[n.index()]);
    }

    /// Queue an *unplaced* node for forward recomputation (placed t-levels
    /// are pinned and never repaired).
    #[inline]
    fn mark_fwd(&mut self, s: &Schedule, m: TaskId) {
        if s.placement(m).is_none() && !self.fwd.contains(m.0) {
            // `Reverse`: pop_max drains the smallest topological position.
            self.fwd.insert(m.0, Reverse(self.topo_pos[m.index()]));
        }
    }

    #[inline]
    fn mark_bwd(&mut self, u: TaskId) {
        if !self.bwd.contains(u.0) {
            self.bwd.insert(u.0, self.tl[u.index()]);
        }
    }
}

/// The task seated `offset` slots away from `u` on its own timeline
/// (−1 = sequence predecessor, +1 = sequence successor), if any.
fn seq_neighbor(s: &Schedule, u: TaskId, pl: &Placement, offset: i32) -> Option<TaskId> {
    let slots = s.timeline(pl.proc).slots();
    let i = slots.partition_point(|sl| sl.start < pl.start);
    debug_assert!(slots.get(i).is_some_and(|sl| sl.tag == u), "slot of {u}");
    let j = i as i64 + offset as i64;
    if j < 0 {
        return None;
    }
    slots.get(j as usize).map(|sl| sl.tag)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::DynLevels;
    use dagsched_graph::GraphBuilder;
    use dagsched_platform::ProcId;

    /// a(2) →(5) b(3); c(4) independent — the `dynlevels` fixture.
    fn fixture() -> TaskGraph {
        let mut gb = GraphBuilder::new();
        let a = gb.add_task(2);
        let _b = gb.add_task(3);
        let _c = gb.add_task(4);
        gb.add_edge(a, TaskId(1), 5).unwrap();
        gb.build().unwrap()
    }

    fn assert_matches_scan(g: &TaskGraph, s: &Schedule, e: &DynLevelsEngine) {
        let d = DynLevels::compute(g, s);
        for n in g.tasks() {
            assert_eq!(e.aest(n), d.aest(n), "tl({n})");
            assert_eq!(e.blevel(n), d.bl[n.index()], "bl({n})");
        }
        assert_eq!(e.cp(), d.cp, "cp");
    }

    #[test]
    fn fresh_engine_equals_static_levels() {
        let g = fixture();
        let s = Schedule::new(g.num_tasks(), 2);
        let e = DynLevelsEngine::new(&g);
        assert_matches_scan(&g, &s, &e);
        assert_eq!(e.cp(), 10);
        assert_eq!(e.mobility(TaskId(2)), 6);
    }

    #[test]
    fn tracks_the_scan_through_a_full_schedule() {
        let g = fixture();
        let mut s = Schedule::new(g.num_tasks(), 2);
        let mut e = DynLevelsEngine::new(&g);
        for (n, p, at, w) in [
            (TaskId(2), ProcId(0), 0u64, 4u64),
            (TaskId(0), ProcId(0), 4, 2),
            (TaskId(1), ProcId(0), 6, 3),
        ] {
            s.place(n, p, at, w).unwrap();
            e.placed(&g, &s, n);
            assert_matches_scan(&g, &s, &e);
        }
        // All colocated: the a→b edge zeroed, c→a→b sequence chain.
        assert_eq!(e.cp(), 9);
    }

    #[test]
    fn insertion_into_a_hole_rewires_sequence_edges() {
        // Seat two tasks with a gap, then insert the third into the hole:
        // the engine must replace the old sequence edge with the pair
        // around the new slot.
        let g = fixture();
        let mut s = Schedule::new(g.num_tasks(), 2);
        let mut e = DynLevelsEngine::new(&g);
        s.place(TaskId(0), ProcId(0), 0, 2).unwrap();
        e.placed(&g, &s, TaskId(0));
        s.place(TaskId(1), ProcId(0), 20, 3).unwrap();
        e.placed(&g, &s, TaskId(1));
        assert_matches_scan(&g, &s, &e);
        s.place(TaskId(2), ProcId(0), 5, 4).unwrap(); // hole [2, 20)
        e.placed(&g, &s, TaskId(2));
        assert_matches_scan(&g, &s, &e);
        // bl(a) now runs a → c → b through sequence edges: 2 + 4+... the
        // scan agrees; spot-check the headline number too.
        assert_eq!(e.blevel(TaskId(0)), 2 + 4 + 3);
    }

    #[test]
    fn late_placement_raises_descendant_t_levels() {
        let g = fixture();
        let mut s = Schedule::new(g.num_tasks(), 2);
        let mut e = DynLevelsEngine::new(&g);
        s.place(TaskId(0), ProcId(1), 50, 2).unwrap();
        e.placed(&g, &s, TaskId(0));
        assert_eq!(e.aest(TaskId(0)), 50);
        assert_eq!(e.aest(TaskId(1)), 50 + 2 + 5);
        assert_matches_scan(&g, &s, &e);
    }

    #[test]
    #[should_panic(expected = "stay acyclic")]
    fn corrupt_schedule_is_a_hard_error() {
        // b seated *before* its parent a on the same processor: the
        // sequence edge b → a closes a cycle with the original a → b.
        let g = fixture();
        let mut s = Schedule::new(g.num_tasks(), 1);
        let mut e = DynLevelsEngine::new(&g);
        s.place(TaskId(1), ProcId(0), 0, 3).unwrap();
        e.placed(&g, &s, TaskId(1));
        s.place(TaskId(0), ProcId(0), 3, 2).unwrap();
        e.placed(&g, &s, TaskId(0));
    }
}
