//! Dynamic level attributes on a *partially scheduled* graph.
//!
//! §3 of the paper: "the t-level of a node is a dynamic attribute because
//! the weight of an edge may be zeroed when the two incident nodes are
//! scheduled to the same processor". The MD and DCP algorithms need these
//! levels after every placement on the **scheduled-graph view**:
//!
//! * original edges, with cost 0 when both endpoints currently share a
//!   processor;
//! * zero-cost *sequence edges* between consecutive tasks on each
//!   processor's timeline (execution order is a real constraint);
//! * placed tasks are pinned: their t-level is their actual start time.
//!
//! `AEST`/`ALST` of the DCP paper are exactly `tl` and `cp − bl` on this
//! view.
//!
//! [`DynLevels::compute`] is the full O(v + e) rescan — the independent
//! oracle `crates/core/tests/dynlevels_properties.rs` checks the engine
//! against after every placement. The schedulers themselves maintain the
//! same values incrementally through [`super::DynLevelsEngine`], which
//! repairs only the cone a single placement can affect.

use dagsched_graph::{TaskGraph, TaskId};
use dagsched_platform::Schedule;

/// t-levels, b-levels and critical-path length of the scheduled-graph view.
#[derive(Debug, Clone)]
pub struct DynLevels {
    /// Absolute earliest start times (AEST in DCP terminology).
    pub tl: Vec<u64>,
    /// Bottom levels on the scheduled-graph view.
    pub bl: Vec<u64>,
    /// Current (dynamic) critical-path length: `max(tl + bl)`.
    pub cp: u64,
}

impl DynLevels {
    /// Compute levels for graph `g` under partial schedule `s`.
    pub fn compute(g: &TaskGraph, s: &Schedule) -> DynLevels {
        let v = g.num_tasks();
        // Combined adjacency = original edges (possibly zeroed) + sequence
        // edges. Build successor lists once per call.
        let mut succs: Vec<Vec<(TaskId, u64)>> = vec![Vec::new(); v];
        let mut indeg: Vec<u32> = vec![0; v];
        for e in g.edges() {
            let cost = match (s.placement(e.src), s.placement(e.dst)) {
                (Some(a), Some(b)) if a.proc == b.proc => 0,
                _ => e.cost,
            };
            succs[e.src.index()].push((e.dst, cost));
            indeg[e.dst.index()] += 1;
        }
        for pi in 0..s.num_procs() as u32 {
            let slots = s.timeline(dagsched_platform::ProcId(pi)).slots();
            for w in slots.windows(2) {
                succs[w[0].tag.index()].push((w[1].tag, 0));
                indeg[w[1].tag.index()] += 1;
            }
        }

        // Kahn order over the combined DAG.
        let mut queue: std::collections::VecDeque<TaskId> = (0..v as u32)
            .map(TaskId)
            .filter(|n| indeg[n.index()] == 0)
            .collect();
        let mut order = Vec::with_capacity(v);
        {
            let mut indeg = indeg.clone();
            while let Some(n) = queue.pop_front() {
                order.push(n);
                for &(m, _) in &succs[n.index()] {
                    indeg[m.index()] -= 1;
                    if indeg[m.index()] == 0 {
                        queue.push_back(m);
                    }
                }
            }
        }
        // A truncated Kahn order means the schedule corrupted the combined
        // view into a cycle (e.g. a task seated on a timeline before one of
        // its ancestors); levels over a truncated order would be silent
        // garbage, so this is a hard error even in release builds.
        assert_eq!(order.len(), v, "combined scheduled graph must stay acyclic");

        // Forward pass: t-levels. Placed tasks are pinned at their actual
        // start and propagate their *recorded* finish (not `start + weight`,
        // so levels stay honest if slot durations ever diverge from
        // weights); unplaced children take the max over their parents.
        let mut tl = vec![0u64; v];
        for &n in &order {
            let finish = match s.placement(n) {
                Some(p) => {
                    tl[n.index()] = p.start;
                    p.finish
                }
                None => tl[n.index()] + g.weight(n),
            };
            for &(m, c) in &succs[n.index()] {
                if s.placement(m).is_none() {
                    let cand = finish + c;
                    if cand > tl[m.index()] {
                        tl[m.index()] = cand;
                    }
                }
            }
        }

        // Backward pass: b-levels.
        let mut bl = vec![0u64; v];
        for &n in order.iter().rev() {
            let mut best = 0u64;
            for &(m, c) in &succs[n.index()] {
                best = best.max(c + bl[m.index()]);
            }
            bl[n.index()] = g.weight(n) + best;
        }

        let cp = (0..v).map(|i| tl[i] + bl[i]).max().unwrap_or(0);
        DynLevels { tl, bl, cp }
    }

    /// Absolute earliest start time of `n`.
    #[inline]
    pub fn aest(&self, n: TaskId) -> u64 {
        self.tl[n.index()]
    }

    /// Absolute latest start time of `n` that does not stretch the dynamic
    /// critical path.
    #[inline]
    pub fn alst(&self, n: TaskId) -> u64 {
        self.cp - self.bl[n.index()]
    }

    /// `alst − aest`: zero exactly on the dynamic critical path.
    #[inline]
    pub fn mobility(&self, n: TaskId) -> u64 {
        self.alst(n).saturating_sub(self.aest(n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dagsched_graph::GraphBuilder;
    use dagsched_platform::ProcId;

    /// a(2) →(5) b(3); c(4) independent.
    fn fixture() -> TaskGraph {
        let mut gb = GraphBuilder::new();
        let a = gb.add_task(2);
        let _b = gb.add_task(3);
        let _c = gb.add_task(4);
        gb.add_edge(a, TaskId(1), 5).unwrap();
        gb.build().unwrap()
    }

    #[test]
    fn unscheduled_matches_static_levels() {
        let g = fixture();
        let s = Schedule::new(g.num_tasks(), 2);
        let d = DynLevels::compute(&g, &s);
        assert_eq!(d.tl, g.levels().t_levels());
        assert_eq!(d.bl, g.levels().b_levels());
        assert_eq!(d.cp, g.levels().cp_length());
    }

    #[test]
    fn same_proc_zeroes_edge() {
        let g = fixture();
        let mut s = Schedule::new(g.num_tasks(), 2);
        s.place(TaskId(0), ProcId(0), 0, 2).unwrap();
        s.place(TaskId(1), ProcId(0), 2, 3).unwrap();
        let d = DynLevels::compute(&g, &s);
        // Edge a→b zeroed: bl(a) = 2 + 0 + 3 = 5 (was 2+5+3 = 10).
        assert_eq!(d.bl[0], 5);
        assert_eq!(d.tl[1], 2); // pinned at its start
        assert_eq!(d.cp, 5);
    }

    #[test]
    fn sequence_edges_constrain_b_levels() {
        let g = fixture();
        let mut s = Schedule::new(g.num_tasks(), 2);
        // c before a on the same processor: sequence edge c→a.
        s.place(TaskId(2), ProcId(0), 0, 4).unwrap();
        s.place(TaskId(0), ProcId(0), 4, 2).unwrap();
        let d = DynLevels::compute(&g, &s);
        // bl(c) = 4 + 0 + bl(a) where bl(a) = 2 + 5 + 3 = 10 → 14.
        assert_eq!(d.bl[2], 14);
        // tl(a) pinned at 4.
        assert_eq!(d.tl[0], 4);
        // b unscheduled: tl(b) = finish(a) + 5 = 11.
        assert_eq!(d.tl[1], 11);
        assert_eq!(d.cp, 14);
    }

    #[test]
    fn pinned_start_overrides_recurrence() {
        let g = fixture();
        let mut s = Schedule::new(g.num_tasks(), 2);
        // a placed late on purpose: tl must equal the actual start.
        s.place(TaskId(0), ProcId(1), 50, 2).unwrap();
        let d = DynLevels::compute(&g, &s);
        assert_eq!(d.tl[0], 50);
        assert_eq!(d.tl[1], 50 + 2 + 5);
    }

    #[test]
    #[should_panic(expected = "stay acyclic")]
    fn corrupt_schedule_is_a_hard_error() {
        // b seated *before* its parent a on the same processor: the
        // sequence edge b → a closes a cycle with the original a → b, and
        // the truncated Kahn order must abort instead of yielding garbage
        // levels silently.
        let g = fixture();
        let mut s = Schedule::new(g.num_tasks(), 1);
        s.place(TaskId(1), ProcId(0), 0, 3).unwrap();
        s.place(TaskId(0), ProcId(0), 3, 2).unwrap();
        let _ = DynLevels::compute(&g, &s);
    }

    #[test]
    fn mobility_zero_on_dynamic_cp() {
        let g = fixture();
        let s = Schedule::new(g.num_tasks(), 2);
        let d = DynLevels::compute(&g, &s);
        // CP is a→b (2+5+3=10): both have zero mobility.
        assert_eq!(d.mobility(TaskId(0)), 0);
        assert_eq!(d.mobility(TaskId(1)), 0);
        // c has slack 10−4 = 6.
        assert_eq!(d.mobility(TaskId(2)), 6);
    }
}
