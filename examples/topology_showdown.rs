// Examples and bench binaries own their stdout (terminal reports).
#![allow(clippy::print_stdout)]
//! APN scheduling up close: one communication-heavy graph, four network
//! topologies, full message-level inspection (§6.4's excluded topology
//! study, zoomed into a single instance).
//!
//! ```text
//! cargo run --release --example topology_showdown
//! ```

use std::cmp::Reverse;

use taskbench::prelude::*;
use taskbench::suites::rgnos::{self, RgnosParams};

fn main() {
    let g = rgnos::generate(RgnosParams::new(60, 2.0, 3, 77));
    println!(
        "workload: {} ({} tasks, {} edges, CCR {:.1})\n",
        g.name(),
        g.num_tasks(),
        g.num_edges(),
        g.ccr()
    );

    let topologies = [
        ("chain-8", Topology::chain(8).unwrap()),
        ("ring-8", Topology::ring(8).unwrap()),
        ("hypercube-3", Topology::hypercube(3).unwrap()),
        ("full-8", Topology::fully_connected(8).unwrap()),
    ];

    let mut table = Table::new(
        "BSA and friends across 8-processor networks",
        &[
            "algorithm",
            "topology",
            "links",
            "makespan",
            "NSL",
            "messages",
            "link busy",
        ],
    );
    for algo in registry::apn() {
        for (name, topo) in &topologies {
            let out = algo.schedule(&g, &Env::apn(topo.clone())).unwrap();
            out.validate(&g).unwrap();
            let net = out.network.as_ref().expect("APN outcome has messages");
            table.row(vec![
                algo.name().to_string(),
                name.to_string(),
                topo.num_links().to_string(),
                out.schedule.makespan().to_string(),
                format!("{:.2}", nsl(&g, &out.schedule)),
                net.len().to_string(),
                net.total_link_busy().to_string(),
            ]);
        }
    }
    println!("{}", table.ascii());

    // Zoom in: the longest single message route under BSA on the chain,
    // ties broken toward the smallest (source, destination) edge so the
    // pick does not depend on the order the network stores messages in.
    let bsa = registry::by_name("BSA").unwrap();
    let out = bsa
        .schedule(&g, &Env::apn(Topology::chain(8).unwrap()))
        .unwrap();
    let net = out.network.unwrap();
    let longest = net
        .messages()
        .iter()
        .max_by_key(|m| (net.hops(m).len(), Reverse((m.src_task, m.dst_task))));
    if let Some(msg) = longest {
        println!(
            "longest BSA route on chain-8: {} → {} ({} hops, departs {}, arrives {})",
            msg.src_task,
            msg.dst_task,
            net.hops(msg).len(),
            msg.ready,
            msg.arrival
        );
        for hop in net.hops(msg) {
            let (a, b) = net.topology().link_ends(hop.link);
            println!("  link {a}–{b}: [{}, {})", hop.start, hop.finish);
        }
    }
}
