//! Deep checks of the APN message model across the four network-aware
//! algorithms: every cross-processor edge is carried by a message, routes
//! are real link paths, links never double-book, and contention actually
//! bites on narrow topologies.

use proptest::prelude::*;
use taskbench::prelude::*;
use taskbench::suites::rgnos::{self, RgnosParams};

fn workload() -> TaskGraph {
    rgnos::generate(RgnosParams::new(50, 2.0, 3, 31))
}

#[test]
fn every_cross_edge_has_a_message_with_a_real_route() {
    let g = workload();
    for algo in registry::apn() {
        let topo = Topology::mesh(2, 4).unwrap();
        let out = algo.schedule(&g, &Env::apn(topo.clone())).unwrap();
        let net = out.network.as_ref().unwrap();
        for e in g.edges() {
            let (pu, pv) = (
                out.schedule.proc_of(e.src).unwrap(),
                out.schedule.proc_of(e.dst).unwrap(),
            );
            if pu == pv || e.cost == 0 {
                continue;
            }
            let msg = net.message_for(e.src, e.dst).unwrap_or_else(|| {
                panic!("{}: no message for {} -> {}", algo.name(), e.src, e.dst)
            });
            assert_eq!(msg.from, pu, "{}", algo.name());
            assert_eq!(msg.to, pv, "{}", algo.name());
            assert!(!net.hops(msg).is_empty());
            // Each hop holds the link for exactly the edge cost.
            for hop in net.hops(msg) {
                assert_eq!(hop.finish - hop.start, e.cost, "{}", algo.name());
            }
            // Arrival feeds the consumer.
            assert!(msg.arrival <= out.schedule.start_of(e.dst).unwrap());
        }
    }
}

#[test]
fn no_link_carries_two_messages_at_once() {
    let g = workload();
    for algo in registry::apn() {
        let topo = Topology::ring(6).unwrap();
        let out = algo.schedule(&g, &Env::apn(topo.clone())).unwrap();
        let net = out.network.as_ref().unwrap();
        // Rebuild occupancy per link independently of Network's tracks.
        let mut occ: Vec<Vec<(u64, u64)>> = vec![Vec::new(); topo.num_links()];
        for m in net.messages() {
            for hop in net.hops(m) {
                occ[hop.link.index()].push((hop.start, hop.finish));
            }
        }
        for (li, windows) in occ.iter_mut().enumerate() {
            windows.sort_unstable();
            for w in windows.windows(2) {
                assert!(
                    w[1].0 >= w[0].1,
                    "{}: link {li} overlap {:?} vs {:?}",
                    algo.name(),
                    w[0],
                    w[1]
                );
            }
        }
    }
}

#[test]
fn narrow_topologies_cannot_beat_wide_ones_for_mh() {
    // MH's processor choice minimizes its routed EST; on a machine whose
    // links are a superset (full vs chain), the attainable makespan can
    // only improve or tie for the same greedy rule. (Not a theorem for all
    // algorithms — greedy rules can be lucky — so we assert it for MH on a
    // seeded sample where it holds and track it as a shape property.)
    let mh = registry::by_name("MH").unwrap();
    for seed in [31u64, 32, 33] {
        let g = rgnos::generate(RgnosParams::new(50, 2.0, 3, seed));
        let chain = mh
            .schedule(&g, &Env::apn(Topology::chain(8).unwrap()))
            .unwrap()
            .schedule
            .makespan();
        let full = mh
            .schedule(&g, &Env::apn(Topology::fully_connected(8).unwrap()))
            .unwrap()
            .schedule
            .makespan();
        assert!(full <= chain, "seed {seed}: full {full} > chain {chain}");
    }
}

#[test]
fn zero_comm_graphs_need_no_messages() {
    let mut b = GraphBuilder::new();
    let a = b.add_task(3);
    let c = b.add_task(4);
    let d = b.add_task(5);
    b.add_edge(a, c, 0).unwrap();
    b.add_edge(a, d, 0).unwrap();
    let g = b.build().unwrap();
    for algo in registry::apn() {
        let out = algo
            .schedule(&g, &Env::apn(Topology::ring(4).unwrap()))
            .unwrap();
        out.validate(&g).unwrap();
        assert_eq!(
            out.network.as_ref().unwrap().len(),
            0,
            "{}: zero-cost edges need no messages",
            algo.name()
        );
    }
}

/// One of the machine shapes the APN experiments run on, picked by index.
fn topology_menu(which: usize) -> Topology {
    match which % 6 {
        0 => Topology::chain(5).unwrap(),
        1 => Topology::ring(6).unwrap(),
        2 => Topology::star(5).unwrap(),
        3 => Topology::mesh(2, 3).unwrap(),
        4 => Topology::hypercube(3).unwrap(),
        _ => Topology::fully_connected(4).unwrap(),
    }
}

// The probe/commit contract under arbitrary topologies and loads:
// `probe_arrival` answers exactly what `commit` then reserves — probing
// first and committing right after must agree, and the arrival never beats
// the uncontended store-and-forward walk.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn probe_equals_committed_arrival_on_random_topologies_and_loads(
        which in 0usize..6,
        load in proptest::collection::vec((0u32..8, 0u32..8, 0u64..60, 1u64..25), 0..30),
        query in (0u32..8, 0u32..8, 0u64..60, 1u64..25),
    ) {
        let topo = topology_menu(which);
        let p = topo.num_procs() as u32;
        let mut net = Network::new(topo);
        for (i, &(from, to, ready, size)) in load.iter().enumerate() {
            net.commit(
                TaskId(1000 + i as u32),
                TaskId(2000 + i as u32),
                ProcId(from % p),
                ProcId(to % p),
                ready,
                size,
            );
        }
        let (from, to, ready, size) = (ProcId(query.0 % p), ProcId(query.1 % p), query.2, query.3);
        let probed = net.probe_arrival(from, to, ready, size);
        let (_, committed) = net.commit(TaskId(1), TaskId(2), from, to, ready, size);
        prop_assert_eq!(probed, committed, "probe and commit disagree");
        // Store-and-forward floor: never earlier than the uncontended walk.
        let hops = net.topology().distance(from, to) as u64;
        prop_assert!(committed >= ready + hops * size);
    }
}

#[test]
fn star_hub_serializes_fanout_messages() {
    // One producer on a star's hub sending to consumers on distinct leaves:
    // each leaf has its own hub link, so messages may overlap in time on
    // *different* links, but two messages to the same leaf must serialize.
    let mut b = GraphBuilder::new();
    let src = b.add_task(2);
    let c1 = b.add_task(1);
    let c2 = b.add_task(1);
    b.add_edge(src, c1, 10).unwrap();
    b.add_edge(src, c2, 10).unwrap();
    let g = b.build().unwrap();
    let mh = registry::by_name("MH").unwrap();
    let out = mh
        .schedule(&g, &Env::apn(Topology::star(4).unwrap()))
        .unwrap();
    out.validate(&g).unwrap();
}
