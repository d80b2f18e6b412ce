//! Cross-crate checks of the optimality references behind Tables 2–5:
//! the branch-and-bound (RGBOS) and the constructed schedules (RGPOS).

use taskbench::prelude::*;
use taskbench::suites::{rgbos, rgpos};

#[test]
fn bnb_lower_bounds_every_heuristic_on_rgbos() {
    for seed in 0..4u64 {
        let g = rgbos::generate(rgbos::RgbosParams {
            nodes: 14,
            ccr: 1.0,
            seed,
        });
        let opt = solve(
            &g,
            &OptimalParams {
                procs: None,
                node_limit: 50_000_000,
                ..OptimalParams::default()
            },
        );
        assert!(
            opt.proven,
            "seed {seed}: 14-node instance should be provable"
        );
        assert!(opt.schedule.validate(&g).is_ok());
        let env = Env::bnp(g.num_tasks());
        for algo in registry::bnp().into_iter().chain(registry::unc()) {
            let m = algo.schedule(&g, &env).unwrap().schedule.makespan();
            assert!(
                m >= opt.length,
                "seed {seed}: {} found {m} < proven optimum {}",
                algo.name(),
                opt.length
            );
        }
    }
}

#[test]
fn bnb_respects_ccr_difficulty() {
    // Same structure, heavier comm ⇒ optimal length can only grow.
    let light = rgbos::generate(rgbos::RgbosParams {
        nodes: 12,
        ccr: 0.1,
        seed: 9,
    });
    let opt_light = solve(
        &light,
        &OptimalParams {
            procs: None,
            node_limit: 3_000_000,
            ..OptimalParams::default()
        },
    );
    assert!(opt_light.proven);
    // Lower bound sanity: optimum ≥ computation critical path and
    // ≥ ceil(total work / v) trivially.
    let cp = levels::critical_path(&light)
        .iter()
        .map(|&n| light.weight(n))
        .sum::<u64>();
    assert!(opt_light.length >= cp);
}

#[test]
fn rgpos_embedded_schedule_is_the_packing_optimum() {
    for &(v, ccr, seed) in &[(50usize, 0.1, 1u64), (80, 1.0, 2), (100, 10.0, 3)] {
        let inst = rgpos::generate(rgpos::RgposParams::new(v, ccr, seed));
        // The embedded schedule is feasible and meets the utilization bound
        // exactly — no schedule on p processors can be shorter.
        assert!(inst.schedule.validate(&inst.graph).is_ok());
        assert_eq!(inst.schedule.makespan(), inst.optimal);
        assert_eq!(
            inst.graph.total_work(),
            inst.procs as u64 * inst.optimal,
            "zero idle by construction"
        );
        let env = Env::bnp(inst.procs);
        for algo in registry::bnp() {
            let m = algo
                .schedule(&inst.graph, &env)
                .unwrap()
                .schedule
                .makespan();
            assert!(
                m >= inst.optimal,
                "{} beat the packing bound on v={v} ccr={ccr}",
                algo.name()
            );
        }
    }
}

#[test]
fn bnb_on_rgpos_small_instance_confirms_construction() {
    // A tiny RGPOS instance is within branch-and-bound reach: the search
    // must confirm the constructed optimum exactly (on the same machine).
    let inst = rgpos::generate(rgpos::RgposParams {
        nodes: 12,
        procs: 3,
        ccr: 1.0,
        edge_factor: 1.5,
        chain_edges: true,
        seed: 4,
    });
    let opt = solve(
        &inst.graph,
        &OptimalParams {
            procs: Some(inst.procs),
            node_limit: 5_000_000,
            ..OptimalParams::default()
        },
    );
    assert!(opt.proven);
    assert_eq!(opt.length, inst.optimal, "construction and search disagree");
}
