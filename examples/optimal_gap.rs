// Examples and bench binaries own their stdout (terminal reports).
#![allow(clippy::print_stdout)]
//! How close do the heuristics get? Solve an RGBOS instance to proven
//! optimality with the branch-and-bound and report every algorithm's
//! percentage degradation — one cell of the paper's Tables 2 and 3,
//! end to end.
//!
//! ```text
//! cargo run --release --example optimal_gap [v] [ccr] [seed]
//! ```

use taskbench::prelude::*;
use taskbench::suites::rgbos::{self, RgbosParams};

fn main() {
    let mut args = std::env::args().skip(1);
    let v: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(16);
    let ccr: f64 = args.next().and_then(|s| s.parse().ok()).unwrap_or(1.0);
    let seed: u64 = args.next().and_then(|s| s.parse().ok()).unwrap_or(2024);

    let g = rgbos::generate(RgbosParams {
        nodes: v,
        ccr,
        seed,
    });
    println!(
        "instance: {} ({} tasks, {} edges)\n",
        g.name(),
        g.num_tasks(),
        g.num_edges()
    );

    // lint:allow(no-wall-clock) example-only runtime readout printed to the
    // terminal; never feeds a schedule decision or a committed artifact.
    let t0 = std::time::Instant::now();
    let opt = solve(
        &g,
        &OptimalParams {
            procs: None,
            node_limit: 10_000_000,
            ..OptimalParams::default()
        },
    );
    println!(
        "branch-and-bound: length {} ({}) — {} nodes in {:.2?}\n",
        opt.length,
        if opt.proven {
            "proven optimal"
        } else {
            "best found, node-capped"
        },
        opt.nodes_expanded,
        t0.elapsed()
    );

    let mut table = Table::new(
        "degradation from optimal (BNP and UNC classes)",
        &["algorithm", "class", "makespan", "degradation %"],
    );
    let env = Env::bnp(g.num_tasks()); // virtually unlimited, like the paper
    for algo in registry::bnp().into_iter().chain(registry::unc()) {
        let out = algo.schedule(&g, &env).unwrap();
        out.validate(&g).unwrap();
        let m = out.schedule.makespan();
        table.row(vec![
            algo.name().to_string(),
            algo.class().to_string(),
            m.to_string(),
            format!("{:.1}", degradation_pct(m, opt.length)),
        ]);
    }
    println!("{}", table.ascii());
    print!(
        "optimal schedule:\n{}",
        gantt::listing(&opt.schedule.compact_procs(), &g)
    );
}
