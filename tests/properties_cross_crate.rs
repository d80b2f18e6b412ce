//! Cross-crate property tests: relations that need the optimal solver, the
//! metrics and the algorithms together.

use proptest::prelude::*;
use taskbench::prelude::*;

fn arb_dag() -> impl Strategy<Value = TaskGraph> {
    (2usize..11).prop_flat_map(|n| {
        let weights = proptest::collection::vec(1u64..40, n);
        let edges =
            proptest::collection::vec((0usize..n.max(1), 0usize..n.max(1), 0u64..90), 0..24);
        (weights, edges).prop_map(|(weights, edges)| {
            let mut b = GraphBuilder::new();
            let ids: Vec<TaskId> = weights.iter().map(|&w| b.add_task(w)).collect();
            let mut seen = std::collections::HashSet::new();
            for (x, y, c) in edges {
                let (lo, hi) = (x.min(y), x.max(y));
                if lo != hi && seen.insert((lo, hi)) {
                    b.add_edge(ids[lo], ids[hi], c).unwrap();
                }
            }
            b.build().expect("forward edges are acyclic")
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn proven_optimum_lower_bounds_all_heuristics(g in arb_dag()) {
        let r = solve(&g, &OptimalParams {
            procs: Some(3),
            node_limit: 200_000,
            ..OptimalParams::default()
        });
        prop_assert!(r.schedule.validate(&g).is_ok());
        if r.proven {
            let env = Env::bnp(3);
            for algo in registry::bnp() {
                let m = algo.schedule(&g, &env).unwrap().schedule.makespan();
                prop_assert!(m >= r.length, "{} beat a proven optimum", algo.name());
            }
            // Optimum respects the classic lower bounds itself.
            let cp_comp: u64 = levels::critical_path(&g).iter().map(|&n| g.weight(n)).sum();
            prop_assert!(r.length >= cp_comp);
            prop_assert!(r.length >= g.total_work().div_ceil(3));
        }
    }

    #[test]
    fn nsl_consistent_with_degradation(g in arb_dag()) {
        // For any two schedules of the same graph, NSL ordering equals
        // makespan ordering (shared denominator).
        let env = Env::bnp(2);
        let a = registry::by_name("MCP").unwrap().schedule(&g, &env).unwrap().schedule;
        let b = registry::by_name("LAST").unwrap().schedule(&g, &env).unwrap().schedule;
        let (na, nb) = (nsl(&g, &a), nsl(&g, &b));
        prop_assert_eq!(na < nb, a.makespan() < b.makespan());
        prop_assert!(na >= 1.0 - 1e-12);
    }

    #[test]
    fn more_processors_never_hurt_the_proven_optimum(g in arb_dag()) {
        let solve_p = |p: usize| {
            solve(&g, &OptimalParams {
                procs: Some(p),
                node_limit: 150_000,
                ..OptimalParams::default()
            })
        };
        let r2 = solve_p(2);
        let r3 = solve_p(3);
        if r2.proven && r3.proven {
            prop_assert!(r3.length <= r2.length);
        }
    }

    #[test]
    fn gantt_renders_for_any_valid_schedule(g in arb_dag()) {
        let out = registry::by_name("ETF").unwrap().schedule(&g, &Env::bnp(3)).unwrap();
        let listing = gantt::listing(&out.schedule, &g);
        prop_assert!(listing.contains("makespan"));
        let bars = gantt::bars(&out.schedule, 40);
        prop_assert!(bars.contains("time 0.."));
    }
}
