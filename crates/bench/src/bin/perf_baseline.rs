// Examples and bench binaries own their stdout (terminal reports).
#![allow(clippy::print_stdout)]
//! The workspace's two wall-clock CI gates, reported on stdout.
//!
//! 1. **runner_scaling** — wall-clock of the same (algorithm × graph)
//!    sweep through the work-stealing runner with 1 worker vs all cores
//!    (warmup pass, then median of 3 timed passes per leg). Both legs must
//!    produce identical results, and the many-worker leg must be ≥1.5×
//!    faster when the host has ≥4 cores (smaller hosts run the
//!    determinism check but are exempt and flagged).
//! 2. **paper_sweep_budget** — wall-clock of the full Table-6 replication
//!    (all fifteen algorithms, serial, honest per-run timings) under an
//!    asserted ceiling: the quick CI-sized sweep must stay under
//!    [`QUICK_SWEEP_BUDGET_S`], and with `TASKBENCH_FULL=1` the
//!    paper-scale sweep (10 sizes × 25 (CCR, parallelism) points) must
//!    stay under [`FULL_SWEEP_BUDGET_S`] — the regression tripwire that
//!    keeps the whole replication runnable.
//!
//! Placements and logical work are pinned by tier-1 tests
//! (`tests/placement_digests.rs`, `tests/work_ceilings.rs`); running
//! times per algorithm and of the served path are measured by the
//! `perfbench` benchmark (`core.<ALGO>.ns_per_task`, `serve_*`). This
//! binary writes no file. Run with `--release`; debug timings are not
//! comparable.

use dagsched_core::{registry, Env};
use dagsched_suites::rgnos::{self, RgnosParams};
use std::time::Instant;

/// Wall-clock ceiling for the quick (CI-sized) Table-6 replication sweep.
const QUICK_SWEEP_BUDGET_S: f64 = 120.0;
/// Wall-clock ceiling for the `TASKBENCH_FULL=1` paper-scale Table-6 sweep.
const FULL_SWEEP_BUDGET_S: f64 = 900.0;

/// Median wall time of three timed passes of `f`, after one untimed
/// warmup pass (page-faults, branch predictors and allocator pools paid
/// for up front — the median then resists one-off scheduling noise that
/// best-of-N would hide and mean-of-N would absorb).
fn median_of_3<R>(mut f: impl FnMut() -> R) -> (f64, R) {
    let mut out = f(); // warmup
    let mut times = [0.0f64; 3];
    for t in &mut times {
        let t0 = Instant::now();
        out = f();
        *t = t0.elapsed().as_secs_f64();
    }
    times.sort_by(f64::total_cmp);
    (times[1], out)
}

fn runner_scaling() {
    // A fixed sweep of quality cells: (BNP ∪ UNC algorithms) × 8 RGNOS
    // graphs at v=300. Per-cell work is identical in both runs; only the
    // worker count changes.
    let algos: Vec<_> = registry::bnp().into_iter().chain(registry::unc()).collect();
    let graphs: Vec<_> = (0..8u64)
        .map(|s| rgnos::generate(RgnosParams::new(300, 1.0, 3, 100 + s)))
        .collect();
    let cells: Vec<(usize, usize)> = (0..algos.len())
        .flat_map(|ai| (0..graphs.len()).map(move |gi| (ai, gi)))
        .collect();
    let run_cell = |(ai, gi): (usize, usize)| {
        let env = Env::bnp(32);
        algos[ai]
            .schedule(&graphs[gi], &env)
            .unwrap()
            .schedule
            .makespan()
    };

    let (serial_s, serial) =
        median_of_3(|| dagsched_ws::parallel_map_with(1, cells.clone(), run_cell));
    // On a small host a timing comparison is meaningless (too few cores to
    // clear the bar); still run the sweep on ≥2 workers so the threaded
    // path's determinism is exercised, but flag the numbers.
    let cores = dagsched_ws::worker_count();
    let workers = cores.max(2);
    let (parallel_s, parallel) =
        median_of_3(|| dagsched_ws::parallel_map_with(workers, cells.clone(), run_cell));
    assert_eq!(serial, parallel, "parallel runner changed results");
    let speedup = serial_s / parallel_s;
    let meaningful = cores >= 4;
    println!(
        "runner: {} cells, serial {serial_s:.3}s vs {workers} workers {parallel_s:.3}s \
         → {speedup:.1}x (median of 3 after warmup){}",
        cells.len(),
        if meaningful {
            ""
        } else {
            " — <4 cores: determinism check only, speedup bar exempt"
        }
    );
    if meaningful {
        assert!(
            speedup >= 1.5,
            "acceptance bar: the work-stealing runner must be ≥1.5x faster than \
             1 worker on a ≥4-core host, got {speedup:.1}x on {workers} workers"
        );
    }
}

fn paper_sweep_budget() {
    let cfg = dagsched_bench::Config::from_env();
    let budget = if cfg.full {
        FULL_SWEEP_BUDGET_S
    } else {
        QUICK_SWEEP_BUDGET_S
    };
    let t0 = Instant::now();
    let tables = dagsched_bench::experiments::table6::run(&cfg);
    let elapsed = t0.elapsed().as_secs_f64();
    assert_eq!(tables.len(), 1, "Table 6 renders as one table");
    println!(
        "paper sweep (Table 6, full={}): {elapsed:.1}s (budget {budget:.0}s)",
        cfg.full
    );
    assert!(
        elapsed <= budget,
        "Table-6 replication blew its wall-clock budget: {elapsed:.1}s > {budget:.0}s \
         (full={}) — a per-evaluation cost regression somewhere in the roster",
        cfg.full
    );
}

fn main() {
    runner_scaling();
    paper_sweep_budget();
}
