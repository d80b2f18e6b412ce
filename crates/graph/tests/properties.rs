//! Property-based tests for the graph substrate: every invariant the rest of
//! the workspace relies on, checked over arbitrary random DAGs.

use dagsched_graph::{binio, io, levels, stats, topo, GraphBuilder, TaskGraph, TaskId};
use proptest::prelude::*;

/// Strategy: an arbitrary DAG described as (weights, upper-triangular edges).
/// Edges always point from lower to higher id, which guarantees acyclicity;
/// the builder's cycle detection is tested separately with reversed edges.
fn arb_dag() -> impl Strategy<Value = (Vec<u64>, Vec<(usize, usize, u64)>)> {
    (1usize..24).prop_flat_map(|n| {
        let weights = proptest::collection::vec(1u64..100, n);
        let max_pairs = n * (n.saturating_sub(1)) / 2;
        let edges = proptest::collection::vec(
            (0usize..n.max(1), 0usize..n.max(1), 0u64..200),
            0..=max_pairs.min(60),
        );
        (weights, edges)
    })
}

/// Character pool for labels and graph names: heavy on the characters the
/// line-oriented format must escape or preserve (space runs, backslash,
/// newline, tab, `#`, non-ASCII, and Unicode whitespace that line trimming
/// would otherwise eat — NBSP, line separator, vertical tab).
const TEXT_CHARS: [char; 19] = [
    'a', 'b', 'z', '0', '(', ')', '.', '_', ' ', ' ', ' ', '\\', '\n', '\t', '#', 'é', '\u{a0}',
    '\u{2028}', '\u{b}',
];

fn build(weights: &[u64], raw_edges: &[(usize, usize, u64)]) -> TaskGraph {
    let mut b = GraphBuilder::new();
    let ids: Vec<TaskId> = weights.iter().map(|&w| b.add_task(w)).collect();
    let mut seen = std::collections::HashSet::new();
    for &(a, bb, c) in raw_edges {
        let (lo, hi) = (a.min(bb), a.max(bb));
        if lo != hi && seen.insert((lo, hi)) {
            b.add_edge(ids[lo], ids[hi], c).unwrap();
        }
    }
    b.build().expect("forward-only edges are acyclic")
}

proptest! {
    #[test]
    fn built_graphs_validate((weights, edges) in arb_dag()) {
        let g = build(&weights, &edges);
        prop_assert!(g.validate().is_ok());
    }

    #[test]
    fn topo_order_is_valid((weights, edges) in arb_dag()) {
        let g = build(&weights, &edges);
        prop_assert!(topo::is_topological(&g, g.topo_order()));
    }

    #[test]
    fn cp_is_max_tl_plus_bl((weights, edges) in arb_dag()) {
        let g = build(&weights, &edges);
        let (tl, bl, cp) = (g.levels().t_levels(), g.levels().b_levels(), g.levels().cp_length());
        let mut attained = false;
        for n in g.tasks() {
            prop_assert!(tl[n.index()] + bl[n.index()] <= cp);
            attained |= tl[n.index()] + bl[n.index()] == cp;
        }
        prop_assert!(attained, "some node must lie on the critical path");
    }

    #[test]
    fn edge_level_recurrences_hold((weights, edges) in arb_dag()) {
        let g = build(&weights, &edges);
        let (tl, bl) = (g.levels().t_levels(), g.levels().b_levels());
        for e in g.edges() {
            // t-level grows along edges by at least w(src)+c.
            prop_assert!(tl[e.dst.index()] >= tl[e.src.index()] + g.weight(e.src) + e.cost);
            // b-level of the source covers the edge and the child's b-level.
            prop_assert!(bl[e.src.index()] >= g.weight(e.src) + e.cost + bl[e.dst.index()]);
        }
    }

    #[test]
    fn static_level_bounded_by_blevel((weights, edges) in arb_dag()) {
        let g = build(&weights, &edges);
        let (sl, bl) = (g.levels().static_levels(), g.levels().b_levels());
        for n in g.tasks() {
            prop_assert!(sl[n.index()] <= bl[n.index()]);
            prop_assert!(sl[n.index()] >= g.weight(n));
        }
    }

    #[test]
    fn alap_identity((weights, edges) in arb_dag()) {
        let g = build(&weights, &edges);
        let (bl, alap, cp) = (g.levels().b_levels(), g.levels().alap_times(), g.levels().cp_length());
        for n in g.tasks() {
            prop_assert_eq!(alap[n.index()] + bl[n.index()], cp);
        }
    }

    #[test]
    fn critical_path_length_checks_out((weights, edges) in arb_dag()) {
        let g = build(&weights, &edges);
        let path = levels::critical_path(&g);
        prop_assert!(!path.is_empty());
        prop_assert_eq!(g.in_degree(path[0]), 0);
        prop_assert_eq!(g.out_degree(*path.last().unwrap()), 0);
        let mut len = 0u64;
        for w in path.windows(2) {
            prop_assert!(g.has_edge(w[0], w[1]));
            len += g.weight(w[0]) + g.edge_cost(w[0], w[1]).unwrap();
        }
        len += g.weight(*path.last().unwrap());
        prop_assert_eq!(len, g.levels().cp_length());
    }

    #[test]
    fn tgf_round_trip((weights, edges) in arb_dag()) {
        let g = build(&weights, &edges);
        let h = io::from_tgf(&io::to_tgf(&g)).unwrap();
        prop_assert_eq!(h.num_tasks(), g.num_tasks());
        prop_assert_eq!(h.num_edges(), g.num_edges());
        for n in g.tasks() {
            prop_assert_eq!(h.weight(n), g.weight(n));
        }
        for e in g.edges() {
            prop_assert_eq!(h.edge_cost(e.src, e.dst), Some(e.cost));
        }
    }

    #[test]
    fn tgf_round_trip_is_exact_with_labels_and_name(
        (weights, edges) in arb_dag(),
        label_picks in proptest::collection::vec(
            proptest::collection::vec(0usize..TEXT_CHARS.len(), 0..10), 24),
        name_pick in proptest::collection::vec(0usize..TEXT_CHARS.len(), 0..12),
    ) {
        // TGF is the archival format for discovered adversarial instances,
        // so `from_tgf(to_tgf(g))` must be the identity on *everything*:
        // weights, edge costs, and arbitrary labels/names, including
        // whitespace runs, escapes and newlines.
        let text_of = |picks: &[usize]| -> String {
            picks.iter().map(|&i| TEXT_CHARS[i]).collect()
        };
        let mut b = GraphBuilder::named(text_of(&name_pick));
        let ids: Vec<TaskId> = weights
            .iter()
            .enumerate()
            .map(|(i, &w)| b.add_labeled_task(w, text_of(&label_picks[i % 24])))
            .collect();
        let mut seen = std::collections::HashSet::new();
        for &(x, y, c) in &edges {
            let (lo, hi) = (x.min(y), x.max(y));
            if lo != hi && seen.insert((lo, hi)) {
                b.add_edge(ids[lo], ids[hi], c).unwrap();
            }
        }
        let g = b.build().unwrap();
        let h = io::from_tgf(&io::to_tgf(&g)).unwrap();
        prop_assert_eq!(h.name(), g.name());
        prop_assert_eq!(h.num_tasks(), g.num_tasks());
        prop_assert_eq!(h.num_edges(), g.num_edges());
        for n in g.tasks() {
            prop_assert_eq!(h.weight(n), g.weight(n));
            prop_assert_eq!(h.label(n), g.label(n));
        }
        for e in g.edges() {
            prop_assert_eq!(h.edge_cost(e.src, e.dst), Some(e.cost));
        }
        // Canonical: a second trip is byte-identical.
        prop_assert_eq!(io::to_tgf(&h), io::to_tgf(&g));
    }

    #[test]
    fn bin_round_trip_is_exact_and_agrees_with_tgf(
        (weights, edges) in arb_dag(),
        label_picks in proptest::collection::vec(
            proptest::collection::vec(0usize..TEXT_CHARS.len(), 0..10), 24),
        name_pick in proptest::collection::vec(0usize..TEXT_CHARS.len(), 0..12),
    ) {
        // The compact binary frame is the serve protocol's second wire
        // format; `from_bin(to_bin(g))` must be the identity on exactly
        // the same hostile labels/names the TGF round trip survives, and
        // both decode paths must agree with each other.
        let text_of = |picks: &[usize]| -> String {
            picks.iter().map(|&i| TEXT_CHARS[i]).collect()
        };
        let mut b = GraphBuilder::named(text_of(&name_pick));
        let ids: Vec<TaskId> = weights
            .iter()
            .enumerate()
            .map(|(i, &w)| b.add_labeled_task(w, text_of(&label_picks[i % 24])))
            .collect();
        let mut seen = std::collections::HashSet::new();
        for &(x, y, c) in &edges {
            let (lo, hi) = (x.min(y), x.max(y));
            if lo != hi && seen.insert((lo, hi)) {
                b.add_edge(ids[lo], ids[hi], c).unwrap();
            }
        }
        let g = b.build().unwrap();
        let h = binio::from_bin(&binio::to_bin(&g)).unwrap();
        prop_assert_eq!(h.name(), g.name());
        prop_assert_eq!(h.num_tasks(), g.num_tasks());
        prop_assert_eq!(h.num_edges(), g.num_edges());
        for n in g.tasks() {
            prop_assert_eq!(h.weight(n), g.weight(n));
            prop_assert_eq!(h.label(n), g.label(n));
        }
        for e in g.edges() {
            prop_assert_eq!(h.edge_cost(e.src, e.dst), Some(e.cost));
        }
        // Canonical: a second trip is byte-identical…
        prop_assert_eq!(binio::to_bin(&h), binio::to_bin(&g));
        // …and the two wire formats decode to byte-identical re-encodings.
        let via_tgf = io::from_tgf(&io::to_tgf(&g)).unwrap();
        prop_assert_eq!(binio::to_bin(&via_tgf), binio::to_bin(&g));
        prop_assert_eq!(io::to_tgf(&h), io::to_tgf(&g));
    }

    #[test]
    fn structural_hash_equality_iff_structural_equality(
        (weights, edges) in arb_dag(),
        tweak in 0usize..3,
        pick in 0usize..64,
    ) {
        // The serve cache keys on this hash, so both directions matter:
        // relabeling must not change it (hits across labels are correct —
        // labels don't affect schedules), while any weight, edge-cost or
        // shape change must (a stale hit would serve the wrong schedule).
        let g = build(&weights, &edges);
        let mut relabeled = GraphBuilder::named("other-name");
        let ids: Vec<TaskId> = weights
            .iter()
            .enumerate()
            .map(|(i, &w)| relabeled.add_labeled_task(w, format!("L{i}")))
            .collect();
        for e in g.edges() {
            relabeled.add_edge(ids[e.src.index()], ids[e.dst.index()], e.cost).unwrap();
        }
        let r = relabeled.build().unwrap();
        prop_assert_eq!(binio::structural_hash(&r), binio::structural_hash(&g));

        // One structural mutation, chosen by (tweak, pick).
        let mut m = GraphBuilder::new();
        let mut w2 = weights.clone();
        let bump_weight = tweak == 0 || g.num_edges() == 0 && tweak == 1;
        if bump_weight {
            let i = pick % w2.len();
            w2[i] += 1;
        }
        let ids: Vec<TaskId> = w2.iter().map(|&w| m.add_task(w)).collect();
        if tweak == 2 {
            // Extra task: different shape even with identical prefix.
            m.add_task(1);
        }
        let es: Vec<_> = g.edges().collect();
        for (j, e) in es.iter().enumerate() {
            let bump_cost = !bump_weight && tweak == 1 && j == pick % es.len();
            m.add_edge(
                ids[e.src.index()],
                ids[e.dst.index()],
                e.cost + u64::from(bump_cost),
            ).unwrap();
        }
        let mutated = m.build().unwrap();
        prop_assert!(binio::structural_hash(&mutated) != binio::structural_hash(&g));
    }

    #[test]
    fn depth_times_width_covers_graph((weights, edges) in arb_dag()) {
        let g = build(&weights, &edges);
        let s = stats::GraphStats::of(&g);
        prop_assert!(s.depth * s.level_width >= s.tasks);
        prop_assert!(s.depth <= s.tasks);
        prop_assert!(s.level_width <= s.tasks);
    }

    #[test]
    fn reversing_an_edge_of_a_chain_is_cyclic(n in 2usize..10) {
        // chain 0→1→…→n-1 plus the back edge n-1→0 must be rejected.
        let mut b = GraphBuilder::new();
        let ids: Vec<TaskId> = (0..n).map(|_| b.add_task(1)).collect();
        for w in ids.windows(2) {
            b.add_edge(w[0], w[1], 1).unwrap();
        }
        b.add_edge(ids[n - 1], ids[0], 1).unwrap();
        let is_cycle =
            matches!(b.build().unwrap_err(), dagsched_graph::GraphError::Cycle { .. });
        prop_assert!(is_cycle);
    }
}
