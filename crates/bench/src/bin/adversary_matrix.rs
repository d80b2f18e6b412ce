// Examples and bench binaries own their stdout (terminal reports).
#![allow(clippy::print_stdout)]
//! All-pairs adversarial search → dominance matrix → archived instances.
//!
//! For every ordered scheduler pair in a class this binary searches graph
//! space for the instance maximizing `L_target / L_baseline`
//! (`dagsched-adversary`), renders the per-class dominance matrix, and
//! archives every discovered instance as TGF under `examples/adversarial/`
//! (override the directory with `TASKBENCH_ADV_DIR`). Each archived file is
//! immediately read back from disk and re-verified by rescheduling both
//! algorithms to the recorded makespans.
//!
//! Quick mode covers the UNC and APN classes (APN pairs became affordable
//! with the incremental-BSA message-layer overhaul — per-evaluation cost
//! used to be the blocker); `TASKBENCH_FULL=1` adds BNP and raises the
//! per-cell evaluation budget. Cells run on the shared-queue pool
//! (`dagsched_ws::parallel_map` — an idle worker takes the next queued
//! cell, so uneven cells never pin a static share of the sweep to one
//! worker) and derive their seeds from the pair names, so stdout and
//! every archived file are byte-identical across runs and thread counts
//! with the same seed and budget — wall-clock goes to stderr only.
//!
//! Acceptance gate: at least one UNC pair must reach a makespan ratio
//! ≥ 1.10 on a ≤ 60-node instance.

use dagsched_adversary::{archive, matrix, Budget};
use dagsched_core::AlgoClass;
use std::path::PathBuf;
use std::time::Instant;

fn out_dir() -> PathBuf {
    dagsched_bench::config::adversary_dir().unwrap_or_else(|| {
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../examples/adversarial")
    })
}

fn main() {
    let cfg = dagsched_bench::Config::from_env();
    let budget = if cfg.full {
        Budget::full(cfg.seed)
    } else {
        Budget::quick(cfg.seed)
    };
    let classes = if cfg.full {
        vec![AlgoClass::Unc, AlgoClass::Bnp, AlgoClass::Apn]
    } else {
        vec![AlgoClass::Unc, AlgoClass::Apn]
    };
    let dir = out_dir();
    std::fs::create_dir_all(&dir).expect("create archive directory");

    let t0 = Instant::now();
    let mut max_unc_ratio = 0.0f64;
    for class in classes {
        let pairs = matrix::ordered_pairs(class);
        let outcomes =
            dagsched_ws::parallel_map(pairs, |(t, b)| matrix::run_pair(class, &t, &b, &budget));

        println!("{}", matrix::dominance_table(class, &outcomes).ascii());
        for o in &outcomes {
            let g = &o.result.graph;
            assert!(
                g.num_tasks() <= budget.max_nodes,
                "instance exceeds the {}-node cap",
                budget.max_nodes
            );
            let path = dir.join(format!(
                "{}.tgf",
                archive::file_stem(class, &o.target, &o.baseline)
            ));
            std::fs::write(&path, archive::archived_pair_tgf(o)).expect("write archived instance");
            let text = std::fs::read_to_string(&path).expect("read archived instance back");
            archive::reverify_pair(&text, o).unwrap_or_else(|e| {
                panic!("re-verification failed for {}: {e}", path.display());
            });
            println!(
                "{:>8} vs {:<8} ratio {:.4}  ({} vs {}, v={} e={}, seed {})",
                o.target,
                o.baseline,
                o.result.ratio(),
                o.result.target_makespan,
                o.result.baseline_makespan,
                g.num_tasks(),
                g.num_edges(),
                o.seed,
            );
            if class == AlgoClass::Unc {
                max_unc_ratio = max_unc_ratio.max(o.result.ratio());
            }
        }
        println!();
    }

    assert!(
        max_unc_ratio >= 1.10,
        "acceptance bar: some UNC pair must reach ratio >= 1.10, best was {max_unc_ratio:.4}"
    );
    println!(
        "max UNC ratio {max_unc_ratio:.4}; instances archived under {}",
        dir.display()
    );
    eprintln!("wall time {:.1}s", t0.elapsed().as_secs_f64());
}
