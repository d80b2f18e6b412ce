//! The priority-attribute axis of the composed scheduler: per-task (and
//! per-pair) selection keys for each [`Prio`] value.
//!
//! Every key is an exact, totally ordered value — no floating point, so
//! selection is deterministic and the LAST-style defined-edge *fraction*
//! compares by integer cross-multiplication instead of division.

use dagsched_graph::{TaskGraph, TaskId};
use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

use super::{ListPolicy, Prio, Spec};

/// Immutable per-run context: the cached level attributes plus the
/// priority-specific precomputations (LAST's incident weights, the static
/// order ranks). Built once per `schedule()` call.
pub(crate) struct Ctx<'a> {
    pub g: &'a TaskGraph,
    pub sl: &'a [u64],
    pub bl: &'a [u64],
    pub tl: &'a [u64],
    pub alap: &'a [u64],
    /// Σ incident edge weight per task ([`Prio::Dnode`] only, else empty).
    pub total_w: Vec<u64>,
    /// Σ predecessor edge weight per task — for a *ready* task this is
    /// exactly LAST's "defined" weight, since every predecessor of a ready
    /// task is already scheduled ([`Prio::Dnode`] only, else empty).
    pub pred_w: Vec<u64>,
    /// Position of each task in the static order ([`ListPolicy::Static`]
    /// only, else empty). Lower rank = scheduled earlier.
    pub rank: Vec<u32>,
}

impl<'a> Ctx<'a> {
    pub fn new(g: &'a TaskGraph, spec: Spec) -> Ctx<'a> {
        let lv = g.levels();
        let (pred_w, total_w) = if spec.prio == Prio::Dnode {
            let pred_w: Vec<u64> = g
                .tasks()
                .map(|n| g.preds(n).iter().map(|&(_, c)| c).sum())
                .collect();
            let total_w = g
                .tasks()
                .map(|n| pred_w[n.index()] + g.succs(n).iter().map(|&(_, c)| c).sum::<u64>())
                .collect();
            (pred_w, total_w)
        } else {
            (Vec::new(), Vec::new())
        };
        let mut cx = Ctx {
            g,
            sl: lv.static_levels(),
            bl: lv.b_levels(),
            tl: lv.t_levels(),
            alap: lv.alap_times(),
            total_w,
            pred_w,
            rank: Vec::new(),
        };
        if spec.list == ListPolicy::Static {
            let order = static_order(&cx, spec.prio);
            let mut rank = vec![0u32; g.num_tasks()];
            for (i, &n) in order.iter().enumerate() {
                rank[n.index()] = i as u32;
            }
            cx.rank = rank;
        }
        cx
    }
}

/// A selection key; larger is better. One run uses one shape throughout —
/// the shape is a function of the [`Prio`], never of the candidate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Key {
    /// Lexicographic `(a, b)`.
    Lex(i128, i128),
    /// LAST's defined-edge fraction `num / tot` (0-denominator compared as
    /// ratio 0), tie-broken by larger total incident weight, then `tie`.
    Ratio { num: u64, tot: u64, tie: i128 },
}

impl Ord for Key {
    fn cmp(&self, other: &Key) -> Ordering {
        match (self, other) {
            (Key::Lex(a1, b1), Key::Lex(a2, b2)) => (a1, b1).cmp(&(a2, b2)),
            (
                Key::Ratio {
                    num: n1,
                    tot: t1,
                    tie: e1,
                },
                Key::Ratio {
                    num: n2,
                    tot: t2,
                    tie: e2,
                },
            ) => {
                // n1/t1 vs n2/t2 by cross-multiplication, exact in u128.
                let lhs = *n1 as u128 * (*t2).max(1) as u128;
                let rhs = *n2 as u128 * (*t1).max(1) as u128;
                lhs.cmp(&rhs).then(t1.cmp(t2)).then(e1.cmp(e2))
            }
            _ => unreachable!("a run never mixes key shapes"),
        }
    }
}

impl PartialOrd for Key {
    fn partial_cmp(&self, other: &Key) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Prio {
    /// Schedule-independent key of a *ready* task: the basis of the static
    /// order and of hole-filler ranking. Where the dynamic key would use
    /// the EST ([`Prio::Dl`], [`Prio::Est`]), the t-level — the earliest
    /// start the graph alone permits — stands in.
    pub(crate) fn static_key(self, cx: &Ctx, n: TaskId) -> Key {
        let i = n.index();
        match self {
            Prio::Sl => Key::Lex(cx.sl[i] as i128, 0),
            Prio::BLevel => Key::Lex(cx.bl[i] as i128, 0),
            Prio::TLevel => Key::Lex(-(cx.tl[i] as i128), 0),
            Prio::Alap => Key::Lex(-(cx.alap[i] as i128), 0),
            Prio::Bt => Key::Lex(cx.bl[i] as i128 + cx.tl[i] as i128, 0),
            Prio::Dl => Key::Lex(cx.sl[i] as i128 - cx.tl[i] as i128, -(cx.tl[i] as i128)),
            Prio::Est => Key::Lex(-(cx.tl[i] as i128), cx.sl[i] as i128),
            Prio::Dnode => Key::Ratio {
                num: cx.pred_w[i],
                tot: cx.total_w[i],
                tie: 0,
            },
        }
    }

    /// Key of a ready task under `SEL=ready`, given the EST on its best
    /// processor. [`Prio::Dnode`] deliberately ignores the EST: LAST picks
    /// purely by defined fraction (ties: total weight, then task id).
    pub(crate) fn ready_key(self, cx: &Ctx, n: TaskId, est: u64) -> Key {
        let i = n.index();
        match self {
            Prio::Sl => Key::Lex(cx.sl[i] as i128, -(est as i128)),
            Prio::BLevel => Key::Lex(cx.bl[i] as i128, -(est as i128)),
            Prio::TLevel => Key::Lex(-(cx.tl[i] as i128), -(est as i128)),
            Prio::Alap => Key::Lex(-(cx.alap[i] as i128), -(est as i128)),
            Prio::Bt => Key::Lex(cx.bl[i] as i128 + cx.tl[i] as i128, -(est as i128)),
            Prio::Dl => Key::Lex(cx.sl[i] as i128 - est as i128, -(est as i128)),
            Prio::Est => Key::Lex(-(est as i128), cx.sl[i] as i128),
            Prio::Dnode => Key::Ratio {
                num: cx.pred_w[i],
                tot: cx.total_w[i],
                tie: 0,
            },
        }
    }

    /// Key of a (task, processor) pair under `SEL=pair`: the same attribute
    /// with the pair's own EST, so ETF's "globally earliest pair" and DLS's
    /// "max dynamic level over pairs" fall out of [`Prio::Est`] /
    /// [`Prio::Dl`] directly.
    pub(crate) fn pair_key(self, cx: &Ctx, n: TaskId, est: u64) -> Key {
        match self {
            Prio::Dnode => Key::Ratio {
                num: cx.pred_w[n.index()],
                tot: cx.total_w[n.index()],
                tie: -(est as i128),
            },
            _ => self.ready_key(cx, n, est),
        }
    }

    /// A `u64` digest of the selected task's priority for the
    /// `TaskSelected` trace event (signed attributes saturate at 0).
    pub(crate) fn trace_key(self, cx: &Ctx, n: TaskId, est: u64) -> u64 {
        let i = n.index();
        match self {
            Prio::Sl => cx.sl[i],
            Prio::BLevel => cx.bl[i],
            Prio::TLevel => cx.tl[i],
            Prio::Alap => cx.alap[i],
            Prio::Bt => cx.bl[i] + cx.tl[i],
            Prio::Dl => cx.sl[i].saturating_sub(est),
            Prio::Est => est,
            Prio::Dnode => cx.pred_w[i],
        }
    }
}

/// The static scheduling order for `LIST=static`: tasks sorted by
/// descending [`Prio::static_key`], ties toward the smaller id — except
/// `PRIO=alap`, which uses MCP's lexicographic ALAP *lists* (own ALAP plus
/// all descendants', ascending), the paper's published refinement that
/// makes the ALAP order both topological and CP-first.
///
/// The ALAP lists are never built. Every descendant's ALAP is at least the
/// node's own, so a list starts with the node's ALAP and the order is
/// `(alap, id)` except inside groups of tied ALAP. There a node with no
/// successors has the one-element list `[alap]`, a prefix of every other
/// list in its group, so leaves lead in id order; the remaining tied nodes
/// are sorted by an [`AlapCmp`] comparison that pulls list elements only
/// until the two lists differ. A graph without ALAP ties costs one sort.
pub(crate) fn static_order(cx: &Ctx, prio: Prio) -> Vec<TaskId> {
    let mut order: Vec<TaskId> = cx.g.tasks().collect();
    if prio == Prio::Alap {
        let (g, alap) = (cx.g, cx.alap);
        order.sort_unstable_by_key(|&n| (alap[n.index()], n.0));
        let mut cmp = AlapCmp::new(g.num_tasks());
        for group in order.chunk_by_mut(|a, b| alap[a.index()] == alap[b.index()]) {
            // Stable: leaves first, each part still in id order.
            group.sort_by_key(|&n| !g.succs(n).is_empty());
            let leaves = group.partition_point(|&n| g.succs(n).is_empty());
            let inner = &mut group[leaves..];
            if inner.len() >= 2 {
                inner.sort_unstable_by(|&a, &b| cmp.cmp(g, alap, a, b).then(a.0.cmp(&b.0)));
            }
        }
        if cmp.elems > 0 {
            dagsched_obs::global().add(dagsched_obs::Metric::McpAlapListElems, cmp.elems);
        }
    } else {
        order.sort_by(|&a, &b| {
            prio.static_key(cx, b)
                .cmp(&prio.static_key(cx, a))
                .then(a.0.cmp(&b.0))
        });
    }
    order
}

/// Lazy comparison of two nodes' ALAP lists. ALAP strictly increases along
/// every edge (task weights are ≥ 1 at graph formation), so a best-first
/// walk over a node's descendants — a min-heap on ALAP — yields its list
/// in ascending order. Two walks run in lockstep and stop at the first
/// element that differs; the walk that runs out first is the shorter list,
/// a prefix of the other. The heaps and the stamp-based `seen` marks are
/// reused across comparisons.
struct AlapCmp {
    walks: [Walk; 2],
    /// ALAP values pulled so far (`mcp.alap_list_elems`).
    elems: u64,
}

/// One best-first descendant walk of an [`AlapCmp`].
struct Walk {
    heap: BinaryHeap<Reverse<(u64, u32)>>,
    /// `seen[n] == stamp` iff `n` was pushed in the current walk.
    seen: Vec<u32>,
    stamp: u32,
}

impl Walk {
    /// Begin the walk below `n`: its own ALAP, the list's first element,
    /// is the same for every node of a tied group and is never compared.
    fn start(&mut self, g: &TaskGraph, alap: &[u64], n: TaskId) {
        self.stamp += 1;
        self.heap.clear();
        self.push_succs(g, alap, n);
    }

    fn push_succs(&mut self, g: &TaskGraph, alap: &[u64], n: TaskId) {
        for &(c, _) in g.succs(n) {
            if self.seen[c.index()] != self.stamp {
                self.seen[c.index()] = self.stamp;
                self.heap.push(Reverse((alap[c.index()], c.0)));
            }
        }
    }

    /// The next list element: pop the smallest ALAP, push its unseen
    /// successors.
    fn next(&mut self, g: &TaskGraph, alap: &[u64]) -> Option<u64> {
        let Reverse((a, n)) = self.heap.pop()?;
        self.push_succs(g, alap, TaskId(n));
        Some(a)
    }
}

impl AlapCmp {
    fn new(v: usize) -> AlapCmp {
        let walk = || Walk {
            heap: BinaryHeap::new(),
            seen: vec![0; v],
            stamp: 0,
        };
        AlapCmp {
            walks: [walk(), walk()],
            elems: 0,
        }
    }

    /// `a`'s ALAP list against `b`'s, lexicographically, for two nodes of
    /// equal ALAP.
    fn cmp(&mut self, g: &TaskGraph, alap: &[u64], a: TaskId, b: TaskId) -> Ordering {
        debug_assert_eq!(alap[a.index()], alap[b.index()]);
        let [wa, wb] = &mut self.walks;
        wa.start(g, alap, a);
        wb.start(g, alap, b);
        loop {
            let (x, y) = (wa.next(g, alap), wb.next(g, alap));
            self.elems += u64::from(x.is_some()) + u64::from(y.is_some());
            // `None` (the list ended) sorts before every element.
            match x.cmp(&y) {
                Ordering::Equal if x.is_some() => {}
                ord => return ord,
            }
        }
    }
}

/// `n`'s ascending ALAP list (own ALAP + all descendants') — MCP's
/// ordering attribute, built in full for the tests' reference order.
#[cfg(test)]
fn alap_list(g: &TaskGraph, alap: &[u64], n: TaskId) -> Vec<u64> {
    let mut list: Vec<u64> = std::iter::once(alap[n.index()])
        .chain(g.descendants(n).into_iter().map(|d| alap[d.index()]))
        .collect();
    list.sort_unstable();
    list
}

/// Every node's ALAP list: the reference [`static_order`] is tested
/// against.
#[cfg(test)]
pub(crate) fn alap_lists(g: &TaskGraph, alap: &[u64]) -> Vec<Vec<u64>> {
    g.tasks().map(|n| alap_list(g, alap, n)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratio_orders_by_cross_multiplication() {
        let r = |num, tot| Key::Ratio { num, tot, tie: 0 };
        // 1/2 < 2/3; zero denominators compare as ratio 0.
        assert!(r(1, 2) < r(2, 3));
        assert!(r(0, 0) < r(1, 10));
        // Equal ratios: larger total wins.
        assert!(r(1, 2) < r(2, 4));
        // Fully equal keys are equal.
        assert_eq!(r(3, 7).cmp(&r(3, 7)), Ordering::Equal);
    }

    #[test]
    fn ratio_tie_component_is_last() {
        let r = |num, tot, tie| Key::Ratio { num, tot, tie };
        assert!(r(1, 2, -5) < r(1, 2, -3));
        assert!(r(1, 2, 100) < r(2, 2, -100), "ratio dominates tie");
    }

    #[test]
    fn lex_is_lexicographic() {
        assert!(Key::Lex(1, 99) < Key::Lex(2, 0));
        assert!(Key::Lex(2, 1) < Key::Lex(2, 3));
    }

    #[test]
    fn alap_order_is_topological() {
        // MCP's ordering guarantee: ALAP strictly increases along every
        // edge, so the lexicographic-lists order is topologically
        // consistent and the ready gate in the driver never bites.
        let g = crate::bnp::testutil::classic_nine();
        let order = reference_alap_order(&g);
        assert!(dagsched_graph::topo::is_topological(&g, &order));
        // CP nodes (ALAP 0) come first; the entry node leads.
        assert_eq!(order[0], TaskId(0));
    }

    #[test]
    fn alap_lists_start_with_own_alap() {
        let g = crate::bnp::testutil::classic_nine();
        let alap = g.levels().alap_times();
        let lists = alap_lists(&g, alap);
        for n in g.tasks() {
            assert_eq!(lists[n.index()][0], alap[n.index()], "{n}");
        }
        // Exit node's list is a singleton.
        assert_eq!(lists[8].len(), 1);
        // Entry node's list covers the whole graph.
        assert_eq!(lists[0].len(), 9);
    }

    /// The full-lists sort [`static_order`] must reproduce for `alap`.
    fn reference_alap_order(g: &TaskGraph) -> Vec<TaskId> {
        let lists = alap_lists(g, g.levels().alap_times());
        let mut order: Vec<TaskId> = g.tasks().collect();
        order.sort_by(|&a, &b| lists[a.index()].cmp(&lists[b.index()]).then(a.0.cmp(&b.0)));
        order
    }

    /// A random DAG with unit task weights and edge costs in `0..=max_c`:
    /// ALAP ties everywhere, leaves and inner nodes mixed in each group.
    fn unit_weight_dag(v: u32, max_c: u64, mut seed: u64) -> TaskGraph {
        let mut next = || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        let mut b = dagsched_graph::GraphBuilder::new();
        let ids: Vec<TaskId> = (0..v).map(|_| b.add_task(1)).collect();
        for i in 0..v as usize {
            for j in i + 1..v as usize {
                if next() % 5 == 0 {
                    b.add_edge(ids[i], ids[j], next() % (max_c + 1)).unwrap();
                }
            }
        }
        b.build().unwrap()
    }

    /// A deep layered DAG with unit task weights: `layers` layers of
    /// `width` nodes, each node feeding one to three nodes of the next layer
    /// at edge cost 0 or 1. Whole layers tie on ALAP, and tied nodes' lists
    /// agree over long prefixes, so comparisons walk deep.
    fn deep_unit_weight_dag(layers: u32, width: u32, mut seed: u64) -> TaskGraph {
        let mut next = || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        let mut b = dagsched_graph::GraphBuilder::new();
        let ids: Vec<TaskId> = (0..layers * width).map(|_| b.add_task(1)).collect();
        for l in 0..layers - 1 {
            for i in 0..width {
                let src = ids[(l * width + i) as usize];
                let fan = 1 + next() % 3;
                for k in 0..fan as u32 {
                    let dst = ids[((l + 1) * width + (i + k) % width) as usize];
                    b.add_edge(src, dst, next() % 2).unwrap();
                }
            }
        }
        b.build().unwrap()
    }

    #[test]
    fn alap_static_order_matches_full_lists_sort() {
        use dagsched_suites::rgnos::{self, RgnosParams};
        let mut graphs: Vec<TaskGraph> = Vec::new();
        for (v, ccr, seed) in [
            (40, 0.1, 1),
            (90, 1.0, 2),
            (150, 10.0, 3),
            (300, 1.0, 4),
            (1000, 0.1, 42),
        ] {
            graphs.push(rgnos::generate(RgnosParams::new(v, ccr, 3, seed)));
        }
        for seed in 1..=12u64 {
            let v = 10 + 7 * seed as u32;
            graphs.push(unit_weight_dag(v, seed % 3, seed * 0x9e37_79b9));
        }
        graphs.push(deep_unit_weight_dag(120, 5, 0x5eed));
        let mut tied = 0;
        for (i, g) in graphs.iter().enumerate() {
            let cx = Ctx::new(g, Spec::default());
            let got = static_order(&cx, Prio::Alap);
            assert_eq!(got, reference_alap_order(g), "graph {i}");
            let alap = cx.alap;
            tied += got
                .windows(2)
                .filter(|w| alap[w[0].index()] == alap[w[1].index()])
                .count();
        }
        assert!(tied > 100, "the graphs must exercise ALAP ties ({tied})");
    }

    #[test]
    fn static_order_for_sl_is_descending_with_id_ties() {
        let g = crate::bnp::testutil::classic_nine();
        let spec = Spec::default();
        let cx = Ctx::new(&g, spec);
        let order = static_order(&cx, Prio::Sl);
        for w in order.windows(2) {
            let (a, b) = (w[0], w[1]);
            let ka = (cx.sl[a.index()], std::cmp::Reverse(a.0));
            let kb = (cx.sl[b.index()], std::cmp::Reverse(b.0));
            assert!(ka > kb, "{a} before {b}");
        }
    }
}
