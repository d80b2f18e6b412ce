//! Best-first probing is exact: MH and DLS-APN select through one
//! best-first kernel that evaluates parent arrivals only while a candidate
//! can still win, and here they must match exhaustive scans — every
//! candidate's start probed in full — digest for digest (placements and
//! every committed message). Inputs are random RGNOS graphs, their copies
//! with every weight and cost set to 1 (so bounds and starts tie
//! constantly), and their copies with unit weights but the original costs,
//! each on a random small topology.

use std::cmp::Reverse;

use dagsched_core::common::{list_order, ReadySet};
use dagsched_core::{registry, Env, Outcome};
use dagsched_graph::{GraphBuilder, TaskGraph, TaskId};
use dagsched_platform::{Network, ProcId, Schedule, Topology};
use dagsched_suites::rgnos::{self, RgnosParams};
use proptest::prelude::*;

const TOPOLOGIES: &[&str] = &[
    "full:3",
    "chain:4",
    "ring:5",
    "star:5",
    "mesh:2x3",
    "mesh:2x4",
    "torus:3x3",
    "hypercube:2",
    "hypercube:3",
];

/// The schedule and link state the exhaustive references build, through
/// the platform's public API only.
struct Reference {
    s: Schedule,
    net: Network,
}

impl Reference {
    fn new(g: &TaskGraph, topo: &Topology) -> Reference {
        Reference {
            s: Schedule::new(g.num_tasks(), topo.num_procs()),
            net: Network::new(topo.clone()),
        }
    }

    /// The start of `n` on `p` by definition: `p`'s ready time or the
    /// latest probed parent arrival, whichever is later.
    fn est(&self, g: &TaskGraph, n: TaskId, p: ProcId) -> u64 {
        g.preds(n)
            .iter()
            .fold(self.s.timeline(p).ready_time(), |t, &(q, c)| {
                let pl = self.s.placement(q).unwrap();
                t.max(self.net.probe_arrival(pl.proc, p, pl.finish, c))
            })
    }

    /// Commit `n`'s parent messages toward `p` in parent order, then
    /// append `n` after the latest arrival.
    fn place(&mut self, g: &TaskGraph, n: TaskId, p: ProcId) {
        let mut drt = 0;
        for &(q, c) in g.preds(n) {
            let pl = self.s.placement(q).unwrap();
            let arrival = if pl.proc == p || c == 0 {
                pl.finish
            } else {
                self.net.commit(q, n, pl.proc, p, pl.finish, c).1
            };
            drt = drt.max(arrival);
        }
        let start = self.s.timeline(p).earliest_append(drt);
        self.s.place(n, p, start, g.weight(n)).unwrap();
    }

    fn digest(self) -> [u64; 2] {
        Outcome {
            schedule: self.s,
            network: Some(self.net),
        }
        .digest()
    }
}

/// MH by definition: the b-level list, each task on the processor of
/// smallest `(EST, id)` over every processor.
fn mh_exhaustive(g: &TaskGraph, topo: &Topology) -> [u64; 2] {
    let mut r = Reference::new(g, topo);
    for n in list_order(g, g.levels().b_levels()) {
        let p = topo.procs().min_by_key(|&p| (r.est(g, n, p), p)).unwrap();
        r.place(g, n, p);
    }
    r.digest()
}

/// DLS-APN by definition: the (ready task, processor) pair of largest
/// `(SL − EST, smaller EST, smaller task id, smaller processor id)`.
fn dls_apn_exhaustive(g: &TaskGraph, topo: &Topology) -> [u64; 2] {
    let sl = g.levels().static_levels();
    let mut r = Reference::new(g, topo);
    let mut ready = ReadySet::new(g);
    while !ready.is_empty() {
        let (_, _, Reverse(n), Reverse(p)) = ready
            .iter()
            .flat_map(|n| topo.procs().map(move |p| (n, p)))
            .map(|(n, p)| {
                let est = r.est(g, n, p);
                let dl = sl[n.index()] as i64 - est as i64;
                (dl, Reverse(est), Reverse(n), Reverse(p))
            })
            .max()
            .unwrap();
        r.place(g, n, p);
        ready.take(g, n);
    }
    r.digest()
}

/// `g` with every task weight set to 1 and every edge cost to `c` (or
/// kept, when `None`).
fn unit_weighted(g: &TaskGraph, c: Option<u64>) -> TaskGraph {
    let mut b = GraphBuilder::new();
    for _ in g.tasks() {
        b.add_task(1);
    }
    for e in g.edges() {
        b.add_edge(e.src, e.dst, c.unwrap_or(e.cost)).unwrap();
    }
    b.build().unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn best_first_selection_matches_the_exhaustive_scans(
        (v, ccr, par, seed) in (8usize..=48, 0usize..3, 1u32..=4, 0u64..1_000_000),
        (topo, copy) in (0usize..TOPOLOGIES.len(), 0usize..3)
    ) {
        let g = rgnos::generate(RgnosParams::new(v, [0.1, 1.0, 10.0][ccr], par, seed));
        let g = match copy {
            0 => g,
            1 => unit_weighted(&g, Some(1)),
            _ => unit_weighted(&g, None),
        };
        let topo = Topology::parse_spec(TOPOLOGIES[topo]).unwrap();
        let env = Env::apn(topo.clone());
        let tag = format!("v={v} ccr#{ccr} par={par} seed={seed} copy#{copy} on {:?}", topo.kind());
        for (name, exhaustive) in [
            ("MH", mh_exhaustive as fn(&TaskGraph, &Topology) -> [u64; 2]),
            ("DLS-APN", dls_apn_exhaustive),
        ] {
            let out = registry::by_name(name).unwrap().schedule(&g, &env).unwrap();
            prop_assert!(out.validate(&g).is_ok(), "{name} invalid: {tag}");
            prop_assert_eq!(out.digest(), exhaustive(&g, &topo), "{} {}", name, tag);
        }
    }
}
