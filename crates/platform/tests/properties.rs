//! Property tests for the platform substrate: tracks, topologies, routing
//! and the network message model, under arbitrary inputs.

use dagsched_graph::TaskId;
use dagsched_platform::timeline::Slot;
use dagsched_platform::{LinkId, Network, ProcId, Topology, Track};
use proptest::prelude::*;

proptest! {
    #[test]
    fn track_never_overlaps(ops in proptest::collection::vec((0u64..200, 1u64..20), 1..60)) {
        let mut t: Track<TaskId> = Track::new();
        for (i, &(start, dur)) in ops.iter().enumerate() {
            let _ = t.insert(start, start + dur, TaskId(i as u32)); // may reject
        }
        // Invariant: sorted by start, half-open intervals never overlap.
        let slots = t.slots();
        for w in slots.windows(2) {
            prop_assert!(w[0].finish <= w[1].start);
        }
    }

    #[test]
    fn earliest_fit_is_feasible_and_minimal(
        ops in proptest::collection::vec((0u64..150, 1u64..15), 0..40),
        earliest in 0u64..100,
        dur in 1u64..20,
    ) {
        let mut t: Track<TaskId> = Track::new();
        for (i, &(start, d)) in ops.iter().enumerate() {
            let _ = t.insert(start, start + d, TaskId(i as u32));
        }
        let at = t.earliest_fit(earliest, dur);
        prop_assert!(at >= earliest);
        // The returned slot must actually be insertable.
        let mut copy = t.clone();
        prop_assert!(copy.insert(at, at + dur, TaskId(9999)).is_ok());
        // Minimality: no feasible start strictly earlier (scan integers in
        // a bounded window — durations and starts are small by strategy).
        for cand in earliest..at {
            let mut probe = t.clone();
            prop_assert!(
                probe.insert(cand, cand + dur, TaskId(9998)).is_err(),
                "earlier start {cand} was feasible but earliest_fit said {at}"
            );
        }
    }

    #[test]
    fn append_is_never_earlier_than_fit(
        ops in proptest::collection::vec((0u64..150, 1u64..15), 0..40),
        earliest in 0u64..100,
        dur in 1u64..20,
    ) {
        let mut t: Track<TaskId> = Track::new();
        for (i, &(start, d)) in ops.iter().enumerate() {
            let _ = t.insert(start, start + d, TaskId(i as u32));
        }
        prop_assert!(t.earliest_fit(earliest, dur) <= t.earliest_append(earliest));
    }

    #[test]
    fn remove_then_reinsert_round_trips(
        ops in proptest::collection::vec((0u64..150, 1u64..15), 1..30),
    ) {
        let mut t: Track<TaskId> = Track::new();
        let mut inserted = Vec::new();
        for (i, &(start, d)) in ops.iter().enumerate() {
            if t.insert(start, start + d, TaskId(i as u32)).is_ok() {
                inserted.push((TaskId(i as u32), start, start + d));
            }
        }
        for &(tag, s, f) in &inserted {
            let got = t.remove_at(s, tag);
            prop_assert_eq!(got, Some((s, f)));
            prop_assert!(t.insert(s, f, tag).is_ok());
        }
    }

    #[test]
    fn routes_are_shortest_on_random_connected_topologies(
        extra in proptest::collection::vec((0u32..12, 0u32..12), 0..20),
    ) {
        // Spanning chain guarantees connectivity; extra links at random.
        let p = 12usize;
        let mut links: Vec<(u32, u32)> = (0..p as u32 - 1).map(|i| (i, i + 1)).collect();
        for &(a, b) in &extra {
            if a != b && !links.contains(&(a.min(b), a.max(b))) {
                links.push((a.min(b), a.max(b)));
            }
        }
        let topo = Topology::custom(p, &links).expect("connected by construction");
        for a in topo.procs() {
            for b in topo.procs() {
                let route = topo.route(a, b);
                prop_assert_eq!(route.len() as u32, topo.distance(a, b));
                prop_assert_eq!(topo.distance(a, b), topo.distance(b, a));
                // Triangle inequality through any intermediate node.
                for m in topo.procs() {
                    prop_assert!(
                        topo.distance(a, b) <= topo.distance(a, m) + topo.distance(m, b)
                    );
                }
            }
        }
    }

    #[test]
    fn message_arrivals_monotone_in_ready_time(
        ready in 0u64..100,
        delta in 1u64..50,
        size in 1u64..30,
    ) {
        let mut net = Network::new(Topology::chain(4).unwrap());
        net.commit(TaskId(0), TaskId(1), ProcId(0), ProcId(3), 5, 7);
        let early = net.probe_arrival(ProcId(0), ProcId(3), ready, size);
        let late = net.probe_arrival(ProcId(0), ProcId(3), ready + delta, size);
        prop_assert!(late >= early);
        prop_assert!(early >= ready + 3 * size); // 3 hops store-and-forward
    }

    #[test]
    fn committed_messages_never_overlap_on_links(
        msgs in proptest::collection::vec((0u32..4, 0u32..4, 0u64..50, 1u64..20), 1..25),
    ) {
        let topo = Topology::ring(4).unwrap();
        let mut net = Network::new(topo);
        for (i, &(from, to, ready, size)) in msgs.iter().enumerate() {
            if from != to {
                net.commit(
                    TaskId(i as u32),
                    TaskId(1000 + i as u32),
                    ProcId(from),
                    ProcId(to),
                    ready,
                    size,
                );
            }
        }
        // Re-derive per-link occupancy from messages and check disjointness.
        let mut occ: Vec<Vec<(u64, u64)>> =
            vec![Vec::new(); net.topology().num_links()];
        for m in net.messages() {
            for hop in net.hops(m) {
                occ[hop.link.index()].push((hop.start, hop.finish));
            }
        }
        for windows in occ.iter_mut() {
            windows.sort_unstable();
            for w in windows.windows(2) {
                prop_assert!(w[1].0 >= w[0].1, "link overlap: {:?} vs {:?}", w[0], w[1]);
            }
        }
    }
}

/// First fit by definition, slot by slot: the earliest `t ≥ earliest` whose
/// `[t, t + dur)` overlaps no slot (`dur ≥ 1`, no zero-length slots). The
/// reference the block-skipping scan must reproduce.
fn linear_fit(slots: &[Slot<u32>], earliest: u64, dur: u64) -> u64 {
    let mut t = earliest;
    for s in slots {
        if s.finish <= t {
            continue;
        }
        if s.start >= t + dur {
            break;
        }
        t = s.finish;
    }
    t
}

// Block summaries are a pure cache: under any interleaving of mutations
// and reindexing, an indexed track answers exactly what the slot-by-slot
// definition answers and stays equal to an unindexed twin that received
// the same mutations.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn block_summaries_never_change_an_answer(
        ops in proptest::collection::vec((0u8..6, 0u64..800, 1u64..12), 40..400),
    ) {
        let mut indexed: Track<u32> = Track::new();
        let mut plain: Track<u32> = Track::new();
        for (i, &(kind, a, b)) in ops.iter().enumerate() {
            let tag = i as u32;
            match kind {
                0 => {
                    let r = indexed.insert(a, a + b, tag);
                    prop_assert_eq!(r, plain.insert(a, a + b, tag));
                }
                1 => {
                    let want = linear_fit(plain.slots(), a, b);
                    prop_assert_eq!(indexed.reserve_earliest(a, b, tag), want);
                    prop_assert_eq!(plain.reserve_earliest(a, b, tag), want);
                }
                2 if !plain.is_empty() => {
                    let s = plain.slots()[a as usize % plain.len()];
                    let r = indexed.remove_at(s.start, s.tag);
                    prop_assert_eq!(r, plain.remove_at(s.start, s.tag));
                }
                3 if a % 8 == 0 => {
                    indexed.retain(|s| s.tag % 5 != b as u32 % 5);
                    plain.retain(|s| s.tag % 5 != b as u32 % 5);
                }
                _ => indexed.reindex(),
            }
            prop_assert!(indexed == plain, "op {i}: slots diverged");
            // Queries of every length from anywhere on the track, and
            // queries exactly as long as one of its holes.
            let holes = plain.holes(plain.ready_time());
            let mut queries = vec![(a / 2, b + a % 7)];
            if !holes.is_empty() {
                let (from, to) = holes[a as usize % holes.len()];
                queries.push((from.saturating_sub(b * b), to - from));
            }
            for (earliest, dur) in queries {
                let want = linear_fit(plain.slots(), earliest, dur);
                prop_assert_eq!(indexed.earliest_fit(earliest, dur), want, "op {}", i);
                prop_assert_eq!(plain.earliest_fit(earliest, dur), want, "op {}", i);
            }
        }
    }
}

/// The six machine shapes the APN message tests draw from (the same menu
/// as `tests/apn_messages.rs`).
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

/// The arguments of one `Network::commit` call.
type Commit = (TaskId, TaskId, ProcId, ProcId, u64, u64);

// Rollback is exact: under any interleaving of commits, truncations (the
// rollbacks of BSA's replay engine) and reindexing, the network equals one
// rebuilt by committing only the surviving messages, in order — messages,
// hops, every link track's slots and every probe answer — and the hop
// arena holds exactly the live messages' hops.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn truncate_matches_a_rebuild_from_the_surviving_commits(
        which in 0usize..6,
        ops in proptest::collection::vec((0u32..40, 0u32..8, 0u64..80, 0u64..20), 1..120),
    ) {
        let topo = topology_menu(which);
        let p = topo.num_procs() as u32;
        let mut net = Network::new(topo.clone());
        let mut live: Vec<Commit> = Vec::new();
        for (i, &(op, b, ready, size)) in ops.iter().enumerate() {
            let a = op / 5;
            match op % 5 {
                0 => {
                    let len = (a as usize * 8 + b as usize) % (net.len() + 1);
                    net.truncate(len);
                    live.truncate(len);
                }
                1 => net.reindex(),
                _ => {
                    let c = (TaskId(i as u32), TaskId(1000 + i as u32), ProcId(a % p), ProcId(b % p), ready, size);
                    if net.commit(c.0, c.1, c.2, c.3, c.4, c.5).0.is_some() {
                        live.push(c);
                    }
                }
            }
            prop_assert_eq!(net.len(), live.len());
        }
        let mut fresh = Network::new(topo);
        for &(src, dst, from, to, ready, size) in &live {
            fresh.commit(src, dst, from, to, ready, size);
        }
        prop_assert_eq!(net.messages(), fresh.messages());
        for (m, f) in net.messages().iter().zip(fresh.messages()) {
            prop_assert_eq!(net.hops(m), fresh.hops(f));
        }
        let live_hops: usize = net.messages().iter().map(|m| net.hops(m).len()).sum();
        prop_assert_eq!(net.all_hops().len(), live_hops);
        prop_assert_eq!(net.all_hops(), fresh.all_hops());
        for l in 0..net.topology().num_links() as u32 {
            prop_assert_eq!(net.link_track(LinkId(l)).slots(), fresh.link_track(LinkId(l)).slots());
        }
        net.reindex();
        for from in net.topology().procs() {
            for to in net.topology().procs() {
                for (ready, size) in [(0, 1), (7, 5), (40, 19), (90, 3)] {
                    prop_assert_eq!(
                        net.probe_arrival(from, to, ready, size),
                        fresh.probe_arrival(from, to, ready, size)
                    );
                }
            }
        }
    }
}
