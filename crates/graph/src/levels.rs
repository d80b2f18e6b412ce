//! Level attributes: t-level, b-level, static level, ALAP, critical path.
//!
//! These are the priority attributes of §3 of the paper. All are defined on
//! the *static* graph (no partial schedule); the scheduling algorithms that
//! need levels on partially scheduled graphs (DSC, MD, DCP) recompute them on
//! their own scheduled-graph view in `dagsched-core`.
//!
//! Definitions (path length = sum of node **and** edge weights on the path):
//!
//! * `t-level(n)` — length of the longest entry→`n` path **excluding** `n`'s
//!   own weight. Correlates with `n`'s earliest possible start time.
//! * `b-level(n)` — length of the longest `n`→exit path **including** `n`'s
//!   weight. Bounded by the critical-path length.
//! * `static level(n)` — b-level with all edge costs taken as zero
//!   (the priority of HLFET, ISH, DLS).
//! * `CP length` — `max_n (t-level(n) + b-level(n))`, the longest entry→exit
//!   path.
//! * `ALAP(n)` — `CP − b-level(n)`, the as-late-as-possible start time that
//!   does not stretch the critical path (the priority of MCP).

use crate::graph::{TaskGraph, TaskId};

/// Every level attribute of one graph, computed together and cached on the
/// [`TaskGraph`] (see [`TaskGraph::levels`]).
///
/// One forward topological pass produces the t-levels; one backward pass
/// produces b-levels **and** static levels together; ALAP and the CP length
/// are O(v) derivations from the b-levels. The scheduling algorithms borrow
/// these slices instead of recomputing levels per run — before this cache,
/// `cp_length` and `alap_times` each re-ran the full b-level pass and every
/// algorithm recomputed its priority attribute from scratch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Levels {
    t: Vec<u64>,
    b: Vec<u64>,
    stat: Vec<u64>,
    alap: Vec<u64>,
    cp: u64,
}

impl Levels {
    /// Compute all attributes for `g`.
    pub(crate) fn compute(g: &TaskGraph) -> Levels {
        let v = g.num_tasks();
        let mut t = vec![0u64; v];
        for &n in g.topo_order() {
            let mut best = 0u64;
            for &(p, c) in g.preds(n) {
                best = best.max(t[p.index()] + g.weight(p) + c);
            }
            t[n.index()] = best;
        }
        let mut b = vec![0u64; v];
        let mut stat = vec![0u64; v];
        for &n in g.topo_order().iter().rev() {
            let mut best_b = 0u64;
            let mut best_s = 0u64;
            for &(s, c) in g.succs(n) {
                best_b = best_b.max(c + b[s.index()]);
                best_s = best_s.max(stat[s.index()]);
            }
            let w = g.weight(n);
            b[n.index()] = w + best_b;
            stat[n.index()] = w + best_s;
        }
        let cp = b.iter().copied().max().unwrap_or(0);
        let alap = b.iter().map(|&bl| cp - bl).collect();
        Levels {
            t,
            b,
            stat,
            alap,
            cp,
        }
    }

    /// t-levels of every task, indexed by task id.
    #[inline]
    pub fn t_levels(&self) -> &[u64] {
        &self.t
    }

    /// b-levels of every task, indexed by task id.
    #[inline]
    pub fn b_levels(&self) -> &[u64] {
        &self.b
    }

    /// Static levels (computation-only b-levels) of every task.
    #[inline]
    pub fn static_levels(&self) -> &[u64] {
        &self.stat
    }

    /// ALAP start times of every task.
    #[inline]
    pub fn alap_times(&self) -> &[u64] {
        &self.alap
    }

    /// Critical-path length (edge costs included).
    #[inline]
    pub fn cp_length(&self) -> u64 {
        self.cp
    }
}

/// One critical path (entry→exit node sequence), deterministic: at every
/// step the smallest-id qualifying node is chosen.
pub fn critical_path(g: &TaskGraph) -> Vec<TaskId> {
    let bl = g.levels().b_levels();
    // Start: entry node with maximal b-level, smallest id on ties.
    let mut cur = match g
        .entries()
        .max_by_key(|n| (bl[n.index()], std::cmp::Reverse(n.0)))
    {
        Some(n) => n,
        None => return Vec::new(),
    };
    let mut path = vec![cur];
    loop {
        let need = bl[cur.index()] - g.weight(cur);
        let next = g
            .succs(cur)
            .iter()
            .filter(|&&(s, c)| c + bl[s.index()] == need)
            .map(|&(s, _)| s)
            .min();
        match next {
            Some(s) => {
                path.push(s);
                cur = s;
            }
            None => return path,
        }
    }
}

/// Sum of computation costs along [`critical_path`]: the denominator of the
/// paper's Normalized Schedule Length (`NSL = L / Σ_{n∈CP} w(n)`).
///
/// When several critical paths exist the paper does not specify which one to
/// sum; we use the deterministic path of [`critical_path`], which makes NSL
/// values reproducible run-to-run.
pub fn cp_computation(g: &TaskGraph) -> u64 {
    critical_path(g).iter().map(|&n| g.weight(n)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    /// The running example used across the Kwok–Ahmad papers: a 9-node graph.
    /// We hand-verify levels on a smaller graph here; the 9-node classic
    /// lives in the `dagsched-suites` peer set.
    fn sample() -> TaskGraph {
        // n0(2) → n1(3) [c=4], n0 → n2(5) [c=1], n1 → n3(4) [c=1],
        // n2 → n3 [c=1], n2 → n4(2) [c=10], n3 → n4 [c=1]
        let mut b = GraphBuilder::new();
        let n0 = b.add_task(2);
        let n1 = b.add_task(3);
        let n2 = b.add_task(5);
        let n3 = b.add_task(4);
        let n4 = b.add_task(2);
        b.add_edge(n0, n1, 4).unwrap();
        b.add_edge(n0, n2, 1).unwrap();
        b.add_edge(n1, n3, 1).unwrap();
        b.add_edge(n2, n3, 1).unwrap();
        b.add_edge(n2, n4, 10).unwrap();
        b.add_edge(n3, n4, 1).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn t_levels_hand_checked() {
        let g = sample();
        let tl = g.levels().t_levels();
        // n0: 0. n1: 0+2+4=6. n2: 0+2+1=3. n3: max(6+3+1, 3+5+1)=10.
        // n4: max(3+5+10, 10+4+1)=18.
        assert_eq!(tl, vec![0, 6, 3, 10, 18]);
    }

    #[test]
    fn b_levels_hand_checked() {
        let g = sample();
        let bl = g.levels().b_levels();
        // n4: 2. n3: 4+1+2=7. n2: 5+max(1+7, 10+2)=17. n1: 3+1+7=11.
        // n0: 2+max(4+11, 1+17)=20.
        assert_eq!(bl, vec![20, 11, 17, 7, 2]);
    }

    #[test]
    fn static_levels_ignore_comm() {
        let g = sample();
        let sl = g.levels().static_levels();
        // n4: 2. n3: 4+2=6. n2: 5+max(6,2)=11. n1: 3+6=9. n0: 2+11=13.
        assert_eq!(sl, vec![13, 9, 11, 6, 2]);
    }

    #[test]
    fn cp_length_equals_max_tl_plus_bl() {
        let g = sample();
        let l = g.levels();
        let (tl, bl, cp) = (l.t_levels(), l.b_levels(), l.cp_length());
        let max_sum = g
            .tasks()
            .map(|n| tl[n.index()] + bl[n.index()])
            .max()
            .unwrap();
        assert_eq!(cp, max_sum);
        assert_eq!(cp, 20);
    }

    #[test]
    fn alap_plus_blevel_is_cp() {
        let g = sample();
        let l = g.levels();
        let (bl, alap, cp) = (l.b_levels(), l.alap_times(), l.cp_length());
        for n in g.tasks() {
            assert_eq!(alap[n.index()] + bl[n.index()], cp);
        }
    }

    #[test]
    fn critical_path_is_the_longest_path() {
        let g = sample();
        let path: Vec<u32> = critical_path(&g).iter().map(|t| t.0).collect();
        // n0 →(1) n2 →(10) n4 : 2+1+5+10+2 = 20.
        assert_eq!(path, vec![0, 2, 4]);
        assert_eq!(cp_computation(&g), 2 + 5 + 2);
    }

    #[test]
    fn critical_path_starts_at_entry_ends_at_exit() {
        let g = sample();
        let path = critical_path(&g);
        assert_eq!(g.in_degree(path[0]), 0);
        assert_eq!(g.out_degree(*path.last().unwrap()), 0);
        // consecutive nodes are connected
        for w in path.windows(2) {
            assert!(g.has_edge(w[0], w[1]));
        }
    }

    #[test]
    fn single_node_levels() {
        let mut b = GraphBuilder::new();
        b.add_task(7);
        let g = b.build().unwrap();
        assert_eq!(g.levels().t_levels(), [0]);
        assert_eq!(g.levels().b_levels(), [7]);
        assert_eq!(g.levels().cp_length(), 7);
        assert_eq!(cp_computation(&g), 7);
    }

    #[test]
    fn cached_levels_match_a_fresh_computation() {
        let g = sample();
        assert_eq!(g.levels(), &Levels::compute(&g));
        // The cache survives cloning (shared Arc).
        let h = g.clone();
        assert_eq!(h.levels().cp_length(), 20);
    }

    #[test]
    fn tie_breaking_is_deterministic() {
        // Two identical parallel paths; the min-id rule must pick n1.
        let mut b = GraphBuilder::new();
        let n0 = b.add_task(1);
        let n1 = b.add_task(2);
        let n2 = b.add_task(2);
        let n3 = b.add_task(1);
        b.add_edge(n0, n1, 1).unwrap();
        b.add_edge(n0, n2, 1).unwrap();
        b.add_edge(n1, n3, 1).unwrap();
        b.add_edge(n2, n3, 1).unwrap();
        let g = b.build().unwrap();
        let path: Vec<u32> = critical_path(&g).iter().map(|t| t.0).collect();
        assert_eq!(path, vec![0, 1, 3]);
    }
}
