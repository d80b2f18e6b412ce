//! RGPOS — random graphs with *pre-determined* optimal schedules (§5.3).
//!
//! Instead of solving for an optimum, the generator works backwards from
//! one: every processor's interval `[0, L_opt)` is randomly partitioned into
//! task execution spans with **zero idle time**, then edges are drawn only
//! between tasks `(a, b)` with `FT(a) ≤ ST(b)`, with cross-processor edge
//! weights capped by the slack `ST(b) − FT(a)` so the embedded schedule
//! remains feasible.
//!
//! Two properties can make the embedded schedule *optimal*, not merely
//! feasible:
//!
//! 1. all `p` processors are busy for exactly `L_opt` time units, so
//!    `L_opt = Σw / p` meets the machine-utilization lower bound — no
//!    schedule on `p` processors can be shorter;
//! 2. with [`RgposParams::chain_edges`] enabled, consecutive tasks on each
//!    processor are threaded with *chain edges*, so the graph contains a
//!    computation path of length exactly `L_opt` — no schedule on **any**
//!    number of processors can be shorter either.
//!
//! Property 2 makes "degradation from optimal" well-defined for the UNC
//! class (which may open more than `p` clusters); chain edges live on one
//! processor in the embedded schedule, so their (CCR-drawn) weights cost
//! it nothing. The flip side is that fully chained instances are easy for
//! *bounded*-processor list schedulers (one chain per processor is the
//! obvious packing). The paper does not pin this construction detail down,
//! and no single choice keeps both tables informative, so the harness uses
//! chained instances for the UNC table (Table 4) and unchained ones for
//! the BNP table (Table 5) — see DESIGN.md's substitution notes.

use dagsched_graph::{GraphBuilder, TaskGraph, TaskId};
use dagsched_platform::{ProcId, Schedule};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::rng::{choose_distinct, uniform_mean, uniform_mean_capped};

/// Parameters of one RGPOS instance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RgposParams {
    /// Number of tasks `v`.
    pub nodes: usize,
    /// Number of processors `p` the optimal schedule uses.
    pub procs: usize,
    /// Target communication-to-computation ratio.
    pub ccr: f64,
    /// Edges ≈ `edge_factor · nodes` (the paper leaves density unspecified;
    /// 2.0 reproduces the qualitative results).
    pub edge_factor: f64,
    /// Thread each processor's consecutive tasks with chain edges, pinning
    /// the optimum machine-independently (see module docs).
    pub chain_edges: bool,
    /// RNG seed.
    pub seed: u64,
}

impl RgposParams {
    /// Paper-style defaults: 8 processors, density factor 2, chained.
    pub fn new(nodes: usize, ccr: f64, seed: u64) -> RgposParams {
        RgposParams {
            nodes,
            procs: 8,
            ccr,
            edge_factor: 2.0,
            chain_edges: true,
            seed,
        }
    }

    /// Same, without the chain edges: the optimum is pinned only for
    /// machines with at most `procs` processors (utilization bound).
    pub fn unchained(nodes: usize, ccr: f64, seed: u64) -> RgposParams {
        RgposParams {
            chain_edges: false,
            ..Self::new(nodes, ccr, seed)
        }
    }
}

/// A generated instance: the graph, its embedded (optimal) schedule, and the
/// optimal length.
#[derive(Debug, Clone)]
pub struct RgposInstance {
    pub graph: TaskGraph,
    pub schedule: Schedule,
    pub procs: usize,
    pub optimal: u64,
}

/// The CCR values of the published suite.
pub const CCRS: [f64; 3] = [0.1, 1.0, 10.0];

/// The graph sizes of the published suite: 50, 100, …, 500.
pub fn sizes() -> Vec<usize> {
    (1..=10).map(|k| k * 50).collect()
}

/// Generate one RGPOS instance.
pub fn generate(p: RgposParams) -> RgposInstance {
    assert!(
        p.procs >= 1 && p.nodes >= p.procs,
        "need at least one task per processor"
    );
    let mut rng = StdRng::seed_from_u64(p.seed);

    // 1. Tasks per processor: uniform around v/p, adjusted to sum exactly v.
    let mean = p.nodes as f64 / p.procs as f64;
    let mut counts: Vec<usize> = (0..p.procs)
        .map(|_| uniform_mean(&mut rng, mean) as usize)
        .collect();
    let mut sum: usize = counts.iter().sum();
    while sum > p.nodes {
        let i = counts
            .iter()
            .enumerate()
            .max_by_key(|(_, &c)| c)
            .map(|(i, _)| i)
            .unwrap();
        counts[i] -= 1;
        sum -= 1;
    }
    while sum < p.nodes {
        let i = counts
            .iter()
            .enumerate()
            .min_by_key(|(_, &c)| c)
            .map(|(i, _)| i)
            .unwrap();
        counts[i] += 1;
        sum += 1;
    }
    // A processor with zero tasks would idle the whole interval and break
    // the optimality argument; give it one task from the largest pile.
    while let Some(zi) = counts.iter().position(|&c| c == 0) {
        let max = counts
            .iter()
            .enumerate()
            .max_by_key(|(_, &c)| c)
            .map(|(i, _)| i)
            .unwrap();
        counts[max] -= 1;
        counts[zi] += 1;
    }

    // 2. Optimal length: long enough for every processor to host its tasks
    //    with strictly positive spans, aiming at mean task weight ≈ 40.
    let max_count = *counts.iter().max().unwrap() as u64;
    let l_opt = (40 * p.nodes as u64 / p.procs as u64).max(max_count + 1);

    // 3. Partition [0, L_opt) of each processor into `counts[i]` spans.
    let mut b = GraphBuilder::named(format!(
        "rgpos-v{}-p{}-ccr{}-s{}",
        p.nodes, p.procs, p.ccr, p.seed
    ));
    let mut placements: Vec<(ProcId, u64, u64)> = Vec::with_capacity(p.nodes); // (proc, st, ft)
    for (pi, &cnt) in counts.iter().enumerate() {
        let mut cuts: Vec<u64> = (1..l_opt).collect();
        let k = choose_distinct(&mut rng, &mut cuts, cnt - 1);
        let mut cuts: Vec<u64> = cuts[..k].to_vec();
        cuts.sort_unstable();
        cuts.insert(0, 0);
        cuts.push(l_opt);
        for w in cuts.windows(2) {
            let (st, ft) = (w[0], w[1]);
            b.add_task(ft - st);
            placements.push((ProcId(pi as u32), st, ft));
        }
    }

    // 4a. Chain edges: thread each processor's consecutive spans, creating
    //     the computation path of length L_opt that pins the optimum.
    let edge_mean = 40.0 * p.ccr;
    let mut have: std::collections::HashSet<(u32, u32)> = std::collections::HashSet::new();
    if p.chain_edges {
        let mut by_proc: Vec<Vec<(u64, usize)>> = vec![Vec::new(); p.procs];
        for (i, &(proc, st, _)) in placements.iter().enumerate() {
            by_proc[proc.index()].push((st, i));
        }
        for row in &mut by_proc {
            row.sort_unstable();
            for w in row.windows(2) {
                let (a, c) = (w[0].1, w[1].1);
                have.insert((a as u32, c as u32));
                b.add_edge(
                    TaskId(a as u32),
                    TaskId(c as u32),
                    uniform_mean(&mut rng, edge_mean),
                )
                .expect("chain edges follow time order");
            }
        }
    }

    // 4b. Random edges between time-compatible pairs.
    let target = (p.edge_factor * p.nodes as f64).round() as usize;
    let mut added = 0usize;
    let mut attempts = 0usize;
    let max_attempts = target * 30;
    while added < target && attempts < max_attempts {
        attempts += 1;
        let a = rng.random_range(0..p.nodes);
        let c = rng.random_range(0..p.nodes);
        if a == c {
            continue;
        }
        let (pa, _, fta) = placements[a];
        let (pb, stb, _) = placements[c];
        if fta > stb {
            continue; // b must start after a finishes
        }
        if !have.insert((a as u32, c as u32)) {
            continue;
        }
        let cost = if pa == pb {
            // Same processor: the edge never delays anything; any positive
            // weight drawn from the CCR distribution is fine.
            uniform_mean(&mut rng, edge_mean)
        } else {
            let gap = stb - fta;
            if gap == 0 {
                have.remove(&(a as u32, c as u32));
                continue; // no slack for a cross-processor message
            }
            uniform_mean_capped(&mut rng, edge_mean, gap)
        };
        b.add_edge(TaskId(a as u32), TaskId(c as u32), cost)
            .unwrap();
        added += 1;
    }

    let graph = b
        .build()
        .expect("edges point forward in time, hence acyclic");
    let mut schedule = Schedule::new(p.nodes, p.procs);
    for (i, &(proc, st, ft)) in placements.iter().enumerate() {
        schedule
            .place(TaskId(i as u32), proc, st, ft - st)
            .expect("spans partition each processor exactly");
    }
    debug_assert!(schedule.validate(&graph).is_ok());
    RgposInstance {
        graph,
        schedule,
        procs: p.procs,
        optimal: l_opt,
    }
}

/// The full published suite: `sizes() × CCRS` on 8 processors.
pub fn suite(base_seed: u64) -> Vec<RgposInstance> {
    let mut out = Vec::new();
    for (ci, &ccr) in CCRS.iter().enumerate() {
        for (si, nodes) in sizes().into_iter().enumerate() {
            let seed = base_seed
                .wrapping_mul(0xD134_2543_DE82_EF95)
                .wrapping_add((ci * 100 + si) as u64);
            out.push(generate(RgposParams::new(nodes, ccr, seed)));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn embedded_schedule_is_valid_and_tight() {
        let inst = generate(RgposParams::new(60, 1.0, 3));
        assert!(inst.schedule.validate(&inst.graph).is_ok());
        assert_eq!(inst.schedule.makespan(), inst.optimal);
        // Zero idle: total work = p × L_opt.
        assert_eq!(inst.graph.total_work(), inst.procs as u64 * inst.optimal);
        assert_eq!(inst.schedule.procs_used(), inst.procs);
    }

    #[test]
    fn optimal_is_the_utilization_bound() {
        let inst = generate(RgposParams::new(100, 10.0, 17));
        let bound = inst.graph.total_work().div_ceil(inst.procs as u64);
        assert_eq!(inst.optimal, bound);
    }

    #[test]
    fn cp_never_exceeds_optimal_times_procs() {
        // Sanity: the critical path (a lower bound on any schedule) cannot
        // exceed serial time; and NSL denominator ≤ L_opt must hold for the
        // degradation tables to be meaningful.
        let inst = generate(RgposParams::new(80, 0.1, 11));
        let cp_comp = dagsched_graph::levels::cp_computation(&inst.graph);
        assert!(
            cp_comp <= inst.optimal,
            "cp computation {cp_comp} > L_opt {}",
            inst.optimal
        );
    }

    #[test]
    fn respects_node_count_exactly() {
        for &v in &[50, 137, 200] {
            let inst = generate(RgposParams::new(v, 1.0, 1));
            assert_eq!(inst.graph.num_tasks(), v);
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let a = generate(RgposParams::new(64, 1.0, 5));
        let b = generate(RgposParams::new(64, 1.0, 5));
        assert_eq!(
            dagsched_graph::io::to_tgf(&a.graph),
            dagsched_graph::io::to_tgf(&b.graph)
        );
    }

    #[test]
    fn edge_density_close_to_target() {
        let inst = generate(RgposParams {
            nodes: 200,
            procs: 8,
            ccr: 1.0,
            edge_factor: 2.0,
            chain_edges: true,
            seed: 2,
        });
        // ~192 chain edges (v − p) + up to 400 random ones.
        let e = inst.graph.num_edges();
        assert!(e >= 300, "too sparse: {e}");
        assert!(e <= 640, "too dense: {e}");
    }

    #[test]
    fn chain_edges_pin_the_optimum_machine_independently() {
        // The computation-only longest path must equal L_opt exactly, so no
        // machine of any size can beat the embedded schedule.
        for &(v, ccr, seed) in &[(40usize, 0.1, 1u64), (60, 1.0, 2), (80, 10.0, 3)] {
            let inst = generate(RgposParams::new(v, ccr, seed));
            let sl = inst.graph.levels().static_levels();
            let comp_cp = inst.graph.entries().map(|n| sl[n.index()]).max().unwrap();
            assert_eq!(comp_cp, inst.optimal, "v={v} ccr={ccr}");
        }
    }

    #[test]
    fn small_instances_work() {
        let inst = generate(RgposParams {
            nodes: 8,
            procs: 4,
            ccr: 1.0,
            edge_factor: 1.0,
            chain_edges: true,
            seed: 0,
        });
        assert!(inst.schedule.validate(&inst.graph).is_ok());
        assert_eq!(inst.graph.num_tasks(), 8);
    }

    #[test]
    fn suite_shape() {
        let s = suite(1);
        assert_eq!(s.len(), 30);
        assert!(s.iter().all(|i| i.schedule.validate(&i.graph).is_ok()));
    }
}
