// Examples and bench binaries own their stdout (terminal reports).
#![allow(clippy::print_stdout)]
//! Quickstart: build a task graph, schedule it with two algorithms from
//! different classes, inspect the result.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use taskbench::prelude::*;

fn main() {
    // The miniature program of the paper's §2: weights on nodes are
    // computation costs, weights on edges are communication costs paid only
    // across processors.
    let mut b = GraphBuilder::named("quickstart");
    let load = b.add_labeled_task(4, "load");
    let fft_l = b.add_labeled_task(8, "fft-left");
    let fft_r = b.add_labeled_task(8, "fft-right");
    let norm = b.add_labeled_task(2, "normalize");
    let sum = b.add_labeled_task(5, "reduce");
    b.add_edge(load, fft_l, 3).unwrap();
    b.add_edge(load, fft_r, 3).unwrap();
    b.add_edge(fft_l, sum, 4).unwrap();
    b.add_edge(fft_r, sum, 4).unwrap();
    b.add_edge(load, norm, 1).unwrap();
    b.add_edge(norm, sum, 1).unwrap();
    let g = b.build().expect("acyclic by construction");

    println!(
        "graph: {} tasks, {} edges, CCR {:.2}",
        g.num_tasks(),
        g.num_edges(),
        g.ccr()
    );
    println!(
        "critical path length (with comm): {}\n",
        g.levels().cp_length()
    );

    // A BNP algorithm on a 2-processor machine…
    let mcp = registry::by_name("MCP").unwrap();
    let out = mcp.schedule(&g, &Env::bnp(2)).unwrap();
    out.validate(&g).unwrap();
    println!(
        "MCP on 2 processors → makespan {}, NSL {:.2}",
        out.schedule.makespan(),
        nsl(&g, &out.schedule)
    );
    print!("{}", gantt::listing(&out.schedule, &g));
    print!("{}", gantt::bars(&out.schedule, 60));

    // …and a UNC clustering algorithm that chooses its own processor count.
    let dcp = registry::by_name("DCP").unwrap();
    let out = dcp.schedule(&g, &Env::bnp(1)).unwrap();
    out.validate(&g).unwrap();
    println!(
        "\nDCP (unbounded clusters) → makespan {}, {} processors used",
        out.schedule.makespan(),
        out.schedule.procs_used()
    );
    print!("{}", gantt::listing(&out.schedule.compact_procs(), &g));

    // Exact reference for this toy instance.
    let opt = solve(&g, &OptimalParams::default());
    println!(
        "\nbranch-and-bound optimum: {} ({}, {} nodes expanded)",
        opt.length,
        if opt.proven { "proven" } else { "node-capped" },
        opt.nodes_expanded
    );
}
