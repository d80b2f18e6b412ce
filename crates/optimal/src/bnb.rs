//! Depth-first branch-and-bound over earliest-start list schedules.
//!
//! The search is serial and byte-deterministic: the same graph and
//! parameters give the same length, placements and counters on every run
//! and host, and [`solve_traced`] emits the same event stream. Callers
//! that want throughput run independent solves in parallel (the RGBOS
//! table grids and the adversary matrix fan cells out over `dagsched-ws`).
//! Among equal-length optima the search keeps the one with the smallest
//! canonical placement key (processors relabelled in first-task order,
//! placements compared lexicographically).

use dagsched_core::{registry, Env};
use dagsched_graph::{TaskGraph, TaskId};
use dagsched_obs::{emit, Event, NullSink, PruneBound, Sink};
use dagsched_platform::{ProcId, Schedule};
use std::collections::HashSet;

/// Search configuration.
#[derive(Debug, Clone)]
pub struct OptimalParams {
    /// Number of identical processors. `None` = unbounded (one per task),
    /// matching the reference point the paper uses for both UNC and BNP
    /// degradation tables.
    pub procs: Option<usize>,
    /// Abort after expanding this many search nodes (`proven = false`).
    pub node_limit: u64,
    /// Seed the incumbent with the best heuristic schedule first.
    pub heuristic_incumbent: bool,
    /// Ignored: the search is serial. Kept so that existing struct
    /// literals still compile; nothing in this workspace sets it.
    pub threads: Option<usize>,
}

impl Default for OptimalParams {
    fn default() -> Self {
        OptimalParams {
            procs: None,
            node_limit: 4_000_000,
            heuristic_incumbent: true,
            threads: None,
        }
    }
}

/// Outcome of a branch-and-bound run.
#[derive(Debug, Clone)]
pub struct OptimalResult {
    /// Best schedule length found.
    pub length: u64,
    /// The schedule achieving it.
    pub schedule: Schedule,
    /// Whether the search space was exhausted (the length is optimal).
    pub proven: bool,
    /// Search nodes expanded (deterministic).
    pub nodes_expanded: u64,
    /// States cut by a lower-bound test or duplicate-state detection
    /// (always `pruned_bound + pruned_duplicate`).
    pub pruned: u64,
    /// States cut by the admissible lower-bound test alone.
    pub pruned_bound: u64,
    /// States cut by canonical duplicate-state detection alone.
    pub pruned_duplicate: u64,
}

/// The undo-based DFS state: one partial schedule plus the derived arrays
/// needed for earliest-start timing, bounding and duplicate detection.
struct State<'g> {
    g: &'g TaskGraph,
    procs: usize,
    weights: Vec<u64>,
    /// Computation-only b-levels (admissible tail bound).
    slc: Vec<u64>,
    proc_ready: Vec<u64>,
    finish: Vec<u64>,
    proc_of: Vec<u8>,
    scheduled: Vec<bool>,
    missing: Vec<u32>,
    ready: Vec<TaskId>,
    n_scheduled: usize,
    makespan: u64,
    total_remaining: u64,
    current: Vec<(ProcId, u64)>, // (proc, start) per task of this partial
}

impl<'g> State<'g> {
    fn new(g: &'g TaskGraph, procs: usize) -> State<'g> {
        let v = g.num_tasks();
        State {
            g,
            procs,
            weights: g.weights().to_vec(),
            slc: g.levels().static_levels().to_vec(),
            proc_ready: vec![0; procs],
            finish: vec![0; v],
            proc_of: vec![u8::MAX; v],
            scheduled: vec![false; v],
            missing: g.tasks().map(|n| g.in_degree(n) as u32).collect(),
            ready: g.entries().collect(),
            n_scheduled: 0,
            makespan: 0,
            total_remaining: g.total_work(),
            current: vec![(ProcId(0), 0); v],
        }
    }

    fn complete(&self) -> bool {
        self.n_scheduled == self.g.num_tasks()
    }

    fn est(&self, n: TaskId, p: ProcId) -> u64 {
        let mut drt = 0u64;
        for &(q, c) in self.g.preds(n) {
            let arrive = if self.proc_of[q.index()] as u32 == p.0 {
                self.finish[q.index()]
            } else {
                self.finish[q.index()] + c
            };
            drt = drt.max(arrive);
        }
        drt.max(self.proc_ready[p.index()])
    }

    /// Every branch from this state in canonical order: tasks by
    /// descending computation b-level (critical work first, ties by id),
    /// processors by ascending start time — good moves first tightens the
    /// incumbent early. Identical processors: only one empty processor may
    /// be opened (symmetry).
    fn ordered_moves(&self) -> Vec<(TaskId, u64, u32)> {
        let mut tasks: Vec<TaskId> = self.ready.clone();
        tasks.sort_unstable_by_key(|&n| (std::cmp::Reverse(self.slc[n.index()]), n.0));
        let mut all = Vec::with_capacity(tasks.len() * self.procs);
        for n in tasks {
            let mut opened_empty = false;
            let mut moves: Vec<(u64, u32)> = Vec::with_capacity(self.procs);
            for pi in 0..self.procs as u32 {
                let empty =
                    self.proc_ready[pi as usize] == 0 && !self.proc_of.contains(&(pi as u8));
                if empty {
                    if opened_empty {
                        continue; // processor symmetry: one empty proc only
                    }
                    opened_empty = true;
                }
                let start = self.est(n, ProcId(pi));
                moves.push((start, pi));
            }
            moves.sort_unstable();
            for (start, pi) in moves {
                all.push((n, start, pi));
            }
        }
        all
    }

    fn apply(&mut self, n: TaskId, p: ProcId, start: u64) {
        let fin = start + self.weights[n.index()];
        self.current[n.index()] = (p, start);
        self.proc_of[n.index()] = p.0 as u8;
        self.finish[n.index()] = fin;
        self.scheduled[n.index()] = true;
        self.proc_ready[p.index()] = fin;
        self.makespan = self.makespan.max(fin);
        self.total_remaining -= self.weights[n.index()];
        self.n_scheduled += 1;
        let pos = self
            .ready
            .iter()
            .position(|&r| r == n)
            .expect("n was ready");
        self.ready.swap_remove(pos);
        for &(c, _) in self.g.succs(n) {
            self.missing[c.index()] -= 1;
            if self.missing[c.index()] == 0 {
                self.ready.push(c);
            }
        }
    }

    fn undo(&mut self, n: TaskId, p: ProcId, start: u64) {
        for &(c, _) in self.g.succs(n) {
            if self.missing[c.index()] == 0 {
                let pos = self
                    .ready
                    .iter()
                    .position(|&r| r == c)
                    .expect("child was ready");
                self.ready.swap_remove(pos);
            }
            self.missing[c.index()] += 1;
        }
        self.ready.push(n);
        self.n_scheduled -= 1;
        self.total_remaining += self.weights[n.index()];
        self.scheduled[n.index()] = false;
        self.proc_of[n.index()] = u8::MAX;
        // proc_ready and makespan are recomputed cheaply from scratch for
        // the processor (append-only: previous ready time is the max finish
        // of remaining tasks on p).
        let _ = start;
        let mut pr = 0u64;
        for t in self.g.tasks() {
            if self.scheduled[t.index()] && self.proc_of[t.index()] as u32 == p.0 {
                pr = pr.max(self.finish[t.index()]);
            }
        }
        self.proc_ready[p.index()] = pr;
        let mut m = 0u64;
        for t in self.g.tasks() {
            if self.scheduled[t.index()] {
                m = m.max(self.finish[t.index()]);
            }
        }
        self.makespan = m;
    }

    /// Admissible lower bound on any completion of the current state.
    fn lower_bound(&self) -> u64 {
        let mut lb = self.makespan;
        // Workload bound.
        let busy: u64 = self.proc_ready.iter().sum();
        lb = lb.max((busy + self.total_remaining).div_ceil(self.procs as u64));
        // Critical-path bound: computation-only earliest starts.
        let mut ees = vec![0u64; self.g.num_tasks()];
        let mut cp_bound = 0u64;
        for &n in self.g.topo_order() {
            if self.scheduled[n.index()] {
                continue;
            }
            let mut start = 0u64;
            for &(q, _) in self.g.preds(n) {
                let t = if self.scheduled[q.index()] {
                    self.finish[q.index()]
                } else {
                    ees[q.index()] + self.weights[q.index()]
                };
                start = start.max(t);
            }
            ees[n.index()] = start;
            cp_bound = cp_bound.max(start + self.slc[n.index()]);
        }
        lb.max(cp_bound)
    }

    /// 128-bit canonical signature: processors relabelled by their first
    /// (lowest-id) task, so permuted identical configurations collide.
    fn signature(&self) -> u128 {
        // Canonical processor order: sort processors by the smallest task
        // id they host (empty procs last).
        let mut first_task = vec![u32::MAX; self.procs];
        for t in self.g.tasks() {
            let p = self.proc_of[t.index()];
            if p != u8::MAX {
                let slot = &mut first_task[p as usize];
                *slot = (*slot).min(t.0);
            }
        }
        let mut order: Vec<usize> = (0..self.procs).collect();
        order.sort_unstable_by_key(|&p| first_task[p]);
        let mut canon = vec![u8::MAX; self.procs];
        for (rank, &p) in order.iter().enumerate() {
            canon[p] = rank as u8;
        }
        // FNV-1a over one (task, canon proc) word and one start word per
        // scheduled task. Starts get a word of their own: packed next to
        // the processor, a start ≥ 2³² would alias it.
        let mut h1: u64 = 0xcbf2_9ce4_8422_2325;
        let mut h2: u64 = 0x9e37_79b9_7f4a_7c15;
        let mut fold = |x: u64| {
            h1 = (h1 ^ x).wrapping_mul(0x0000_0100_0000_01B3);
            h2 = (h2 ^ x).wrapping_mul(0xff51_afd7_ed55_8ccd);
        };
        for t in self.g.tasks() {
            if self.scheduled[t.index()] {
                let p = canon[self.proc_of[t.index()] as usize] as u64;
                fold((t.0 as u64) << 8 | p);
                fold(self.current[t.index()].1);
            }
        }
        (h1 as u128) << 64 | h2 as u128
    }
}

/// Canonical placement key of a complete schedule: processors relabelled
/// in order of their first (lowest-id) hosted task, then one
/// `(processor rank, start)` pair per task. Lexicographic comparison of
/// these keys is the deterministic tie-break among equal-length optima.
fn canon_key(placements: &[(ProcId, u64)], procs: usize) -> Vec<(u8, u64)> {
    let mut rank = vec![u8::MAX; procs];
    let mut next = 0u8;
    let mut key = Vec::with_capacity(placements.len());
    for &(p, start) in placements {
        let r = &mut rank[p.index()];
        if *r == u8::MAX {
            *r = next;
            next += 1;
        }
        key.push((*r, start));
    }
    key
}

/// The incumbent and the search counters: the best complete schedule
/// found so far, its canonical key, and how the node budget was spent.
struct Search {
    best_len: u64,
    best: Vec<(ProcId, u64)>,
    /// `None` = the incumbent's key is unknown/absent (treated as +∞).
    best_key: Option<Vec<(u8, u64)>>,
    nodes: u64,
    pruned_bound: u64,
    pruned_duplicate: u64,
    node_limit: u64,
    capped: bool,
}

impl Search {
    /// Report a complete schedule; keeps it if it improves the incumbent
    /// (shorter, or equal with a smaller canonical placement key).
    fn offer(&mut self, len: u64, placements: &[(ProcId, u64)], procs: usize) {
        if len > self.best_len {
            return;
        }
        let key = canon_key(placements, procs);
        let better = len < self.best_len
            || match &self.best_key {
                None => true,
                Some(k) => key < *k,
            };
        if better {
            self.best_len = len;
            self.best.copy_from_slice(placements);
            self.best_key = Some(key);
        }
    }

    /// Count one expansion. `false` = node budget exhausted; the search is
    /// capped and must stop.
    fn note_expanded(&mut self) -> bool {
        if self.nodes >= self.node_limit {
            self.capped = true;
            return false;
        }
        self.nodes += 1;
        true
    }

    /// Count one pruned state, by which bound cut it.
    fn note_pruned(&mut self, bound: PruneBound) {
        match bound {
            PruneBound::LowerBound => self.pruned_bound += 1,
            PruneBound::Duplicate => self.pruned_duplicate += 1,
        }
    }
}

/// The depth-first search, generic over the trace sink (`NullSink`
/// monomorphizes the event emissions away).
fn dfs<S: Sink>(
    state: &mut State<'_>,
    seen: &mut HashSet<u128>,
    search: &mut Search,
    sink: &mut S,
) {
    if !search.note_expanded() {
        return;
    }
    emit!(
        sink,
        Event::BnbExpanded {
            depth: state.n_scheduled as u32,
        }
    );
    if state.complete() {
        search.offer(state.makespan, &state.current, state.procs);
        return;
    }
    if state.lower_bound() >= search.best_len {
        search.note_pruned(PruneBound::LowerBound);
        emit!(
            sink,
            Event::BnbPruned {
                depth: state.n_scheduled as u32,
                bound: PruneBound::LowerBound,
            }
        );
        return;
    }
    if !seen.insert(state.signature()) {
        search.note_pruned(PruneBound::Duplicate);
        emit!(
            sink,
            Event::BnbPruned {
                depth: state.n_scheduled as u32,
                bound: PruneBound::Duplicate,
            }
        );
        return;
    }
    for (n, start, pi) in state.ordered_moves() {
        state.apply(n, ProcId(pi), start);
        dfs(state, seen, search, sink);
        state.undo(n, ProcId(pi), start);
        if search.capped {
            return;
        }
    }
}

/// Find an optimal (or best-within-limits) schedule of `g`.
///
/// Panics if the graph has more than 64 tasks: the RGBOS family tops out
/// at 32, and the search is exponential well before that size.
pub fn solve(g: &TaskGraph, params: &OptimalParams) -> OptimalResult {
    solve_with(g, params, &mut NullSink)
}

/// [`solve`] with a trace sink: every expansion and prune is emitted as
/// [`Event::BnbExpanded`] / [`Event::BnbPruned`], a deterministic
/// depth-first narrative of the search.
pub fn solve_traced(
    g: &TaskGraph,
    params: &OptimalParams,
    mut sink: &mut dyn Sink,
) -> OptimalResult {
    solve_with(g, params, &mut sink)
}

fn solve_with<S: Sink>(g: &TaskGraph, params: &OptimalParams, sink: &mut S) -> OptimalResult {
    let v = g.num_tasks();
    assert!(
        v <= 64,
        "branch-and-bound supports at most 64 tasks (got {v})"
    );
    let procs = params.procs.unwrap_or(v).min(v).max(1);

    // Incumbent from the heuristic roster.
    let mut best_len = u64::MAX;
    let mut best: Vec<(ProcId, u64)> = vec![(ProcId(0), 0); v];
    if params.heuristic_incumbent {
        let env = Env::bnp(procs);
        for algo in registry::bnp().into_iter().chain(registry::unc()) {
            if let Ok(out) = algo.schedule(g, &env) {
                debug_assert!(out.validate(g).is_ok());
                // UNC algorithms may use more than `procs` processors; only
                // accept schedules that fit the machine.
                if out.schedule.procs_used() <= procs {
                    let m = out.schedule.makespan();
                    if m < best_len {
                        best_len = m;
                        let compact = out.schedule.compact_procs();
                        for n in g.tasks() {
                            let pl = compact.placement(n).expect("complete");
                            best[n.index()] = (pl.proc, pl.start);
                        }
                    }
                }
            }
        }
    }

    let mut search = Search {
        best_len,
        best_key: (best_len != u64::MAX).then(|| canon_key(&best, procs)),
        best,
        nodes: 0,
        pruned_bound: 0,
        pruned_duplicate: 0,
        node_limit: params.node_limit,
        capped: false,
    };
    dfs(
        &mut State::new(g, procs),
        &mut HashSet::new(),
        &mut search,
        sink,
    );

    // Flush the search totals to the global observability registry.
    {
        use dagsched_obs::Metric;
        let reg = dagsched_obs::global();
        reg.add(Metric::BnbExpanded, search.nodes);
        reg.add(Metric::BnbPrunedBound, search.pruned_bound);
        reg.add(Metric::BnbPrunedDuplicate, search.pruned_duplicate);
    }

    let mut schedule = Schedule::new(v, procs);
    for n in g.tasks() {
        let (p, st) = search.best[n.index()];
        schedule
            .place(n, p, st, g.weight(n))
            .expect("incumbent is feasible");
    }
    debug_assert!(schedule.validate(g).is_ok());
    OptimalResult {
        length: search.best_len,
        schedule,
        proven: !search.capped,
        nodes_expanded: search.nodes,
        pruned: search.pruned_bound + search.pruned_duplicate,
        pruned_bound: search.pruned_bound,
        pruned_duplicate: search.pruned_duplicate,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dagsched_graph::GraphBuilder;

    fn params(procs: usize) -> OptimalParams {
        OptimalParams {
            procs: Some(procs),
            ..OptimalParams::default()
        }
    }

    #[test]
    fn chain_optimum_is_serial() {
        let mut b = GraphBuilder::new();
        let ids: Vec<_> = (0..5).map(|_| b.add_task(4)).collect();
        for w in ids.windows(2) {
            b.add_edge(w[0], w[1], 9).unwrap();
        }
        let g = b.build().unwrap();
        let r = solve(&g, &params(3));
        assert!(r.proven);
        assert_eq!(r.length, 20);
        assert!(r.schedule.validate(&g).is_ok());
    }

    #[test]
    fn independent_tasks_pack_perfectly() {
        let mut b = GraphBuilder::new();
        for _ in 0..6 {
            b.add_task(5);
        }
        let g = b.build().unwrap();
        let r = solve(&g, &params(3));
        assert!(r.proven);
        assert_eq!(r.length, 10);
    }

    #[test]
    fn fork_join_tradeoff_solved_exactly() {
        // src(2) → {m1(6), m2(6)} → sink(2), comm 3 everywhere.
        // Parallel: src 0-2, m1 local 2-8, m2 remote 5-11, sink on m2's
        // proc? arrivals: m1 8+3=11, m2 11 → sink 11-13 = 13.
        // Serial: 2+6+6+2 = 16. Optimal = 13.
        let mut b = GraphBuilder::new();
        let src = b.add_task(2);
        let m1 = b.add_task(6);
        let m2 = b.add_task(6);
        let sink = b.add_task(2);
        b.add_edge(src, m1, 3).unwrap();
        b.add_edge(src, m2, 3).unwrap();
        b.add_edge(m1, sink, 3).unwrap();
        b.add_edge(m2, sink, 3).unwrap();
        let g = b.build().unwrap();
        let r = solve(&g, &params(2));
        assert!(r.proven);
        assert_eq!(r.length, 13);
    }

    #[test]
    fn heavy_comm_fork_join_stays_serial() {
        let mut b = GraphBuilder::new();
        let src = b.add_task(2);
        let m1 = b.add_task(3);
        let m2 = b.add_task(3);
        let sink = b.add_task(2);
        for &(s, d) in &[(src, m1), (src, m2), (m1, sink), (m2, sink)] {
            b.add_edge(s, d, 50).unwrap();
        }
        let g = b.build().unwrap();
        let r = solve(&g, &params(4));
        assert!(r.proven);
        assert_eq!(r.length, 10);
    }

    #[test]
    fn optimum_never_exceeds_any_heuristic() {
        use dagsched_core::{registry, Env};
        let g = crate::exhaustive::tests::random_small(11, 42);
        let r = solve(&g, &params(3));
        assert!(r.proven);
        let env = Env::bnp(3);
        for algo in registry::bnp() {
            let m = algo.schedule(&g, &env).unwrap().schedule.makespan();
            assert!(r.length <= m, "{} beat the optimum?!", algo.name());
        }
    }

    #[test]
    fn node_cap_reports_unproven() {
        let g = crate::exhaustive::tests::random_small(14, 7);
        let p = OptimalParams {
            procs: Some(4),
            node_limit: 10,
            ..OptimalParams::default()
        };
        let r = solve(&g, &p);
        assert!(!r.proven);
        // Still returns the heuristic incumbent, which is feasible.
        assert!(r.schedule.validate(&g).is_ok());
    }

    #[test]
    fn unbounded_procs_defaults_to_v() {
        let mut b = GraphBuilder::new();
        for _ in 0..5 {
            b.add_task(3);
        }
        let g = b.build().unwrap();
        let r = solve(&g, &OptimalParams::default());
        assert!(r.proven);
        assert_eq!(r.length, 3);
    }

    #[test]
    fn serial_counters_are_deterministic() {
        let g = crate::exhaustive::tests::random_small(11, 9);
        let a = solve(&g, &params(3));
        let b = solve(&g, &params(3));
        assert!(a.proven && b.proven);
        assert_eq!(a.length, b.length);
        assert_eq!(a.nodes_expanded, b.nodes_expanded);
        assert_eq!(a.pruned, b.pruned);
        assert!(a.nodes_expanded > 0);
    }

    #[test]
    fn prune_breakdown_sums_to_total() {
        // The per-bound split must partition the old aggregate exactly,
        // and the trace-sink events must agree with the counters one for
        // one.
        for seed in [5u64, 9, 42] {
            let g = crate::exhaustive::tests::random_small(11, seed);
            let r = solve(&g, &params(3));
            assert!(r.proven);
            assert_eq!(r.pruned, r.pruned_bound + r.pruned_duplicate, "{seed}");
            assert!(r.pruned_bound > 0, "seed {seed} never hit the bound?");

            let mut sink = dagsched_obs::MemSink::default();
            let traced = solve_traced(&g, &params(3), &mut sink);
            assert_eq!(traced.nodes_expanded, r.nodes_expanded);
            assert_eq!(traced.pruned_bound, r.pruned_bound);
            assert_eq!(traced.pruned_duplicate, r.pruned_duplicate);
            let mut expanded = 0u64;
            let (mut by_bound, mut by_dup) = (0u64, 0u64);
            for ev in &sink.events {
                match ev {
                    dagsched_obs::Event::BnbExpanded { .. } => expanded += 1,
                    dagsched_obs::Event::BnbPruned { bound, .. } => match bound {
                        dagsched_obs::PruneBound::LowerBound => by_bound += 1,
                        dagsched_obs::PruneBound::Duplicate => by_dup += 1,
                    },
                    _ => {}
                }
            }
            assert_eq!(expanded, r.nodes_expanded, "seed {seed}");
            assert_eq!(by_bound, r.pruned_bound, "seed {seed}");
            assert_eq!(by_dup, r.pruned_duplicate, "seed {seed}");
        }
    }
}
