//! BNP — bounded-number-of-processors scheduling algorithms.
//!
//! All six operate on a fully connected, contention-free machine with a
//! fixed processor count (§4 of the paper): HLFET, ISH, MCP, ETF, DLS and
//! LAST. They are list schedulers differing in priority attribute, list
//! dynamism and slot policy — exactly the §3 taxonomy axes — and since the
//! composable-scheduler refactor each is a named *preset* of
//! [`crate::compose::ComposedScheduler`] (see the preset → component table
//! in [`crate::compose`]). Every preset was proven placement-identical to
//! its pre-refactor monolith across a multi-thousand-instance RGNOS sweep;
//! the workspace's `tests/placement_digests.rs` now pins those placements
//! as committed digests.

use crate::compose::{self, ComposedScheduler, SlotPolicy};

/// HLFET (Adam, Chandy & Dickson, 1974): static list by static level,
/// append slots. `compose:PRIO=sl,LIST=static,SLOT=append,SEL=ready`.
pub fn hlfet() -> ComposedScheduler {
    compose::preset("HLFET").expect("HLFET is a preset")
}

/// ISH (Kruatrachue & Lewis, 1987): HLFET plus hole filling.
/// `compose:…,FILL=holes`. The paper singles it out: "a simple algorithm
/// such as ISH employing insertion can yield dramatic performance" (§7).
pub fn ish() -> ComposedScheduler {
    compose::preset("ISH").expect("ISH is a preset")
}

/// MCP (Wu & Gajski, 1990): static list by lexicographic ALAP lists,
/// insertion slots. `compose:PRIO=alap,LIST=static,SLOT=insert,SEL=ready`.
/// The paper finds MCP the best BNP algorithm overall (Table 6).
pub fn mcp() -> ComposedScheduler {
    compose::preset("MCP").expect("MCP is a preset")
}

/// The append-only MCP ablation used by the `ablate_insertion` bench to
/// quantify the paper's "insertion is better than non-insertion"
/// conclusion (§7). Keeps the `"MCP"` name: harness tables label the
/// variants themselves.
pub fn mcp_append() -> ComposedScheduler {
    let mut spec = compose::preset_spec("MCP").expect("MCP is a preset");
    spec.slot = SlotPolicy::Append;
    ComposedScheduler::named("MCP", spec)
}

/// ETF (Hwang, Chow, Anger & Lee, 1989): dynamic list, globally earliest
/// (task, processor) pair. `compose:PRIO=est,LIST=dynamic,SEL=pair`.
pub fn etf() -> ComposedScheduler {
    compose::preset("ETF").expect("ETF is a preset")
}

/// DLS (Sih & Lee, 1993), BNP variant: dynamic level `SL − EST` maximized
/// over (task, processor) pairs. `compose:PRIO=dl,LIST=dynamic,SEL=pair`.
/// See [`crate::apn::DlsApn`] for the network-aware APN variant.
pub fn dls() -> ComposedScheduler {
    compose::preset("DLS").expect("DLS is a preset")
}

/// LAST (Baxter & Patel, 1989): dynamic list by `D_NODE` — the defined
/// fraction of incident edge weight — append slots.
/// `compose:PRIO=dnode,LIST=dynamic,SEL=ready`.
pub fn last() -> ComposedScheduler {
    compose::preset("LAST").expect("LAST is a preset")
}

#[cfg(test)]
pub(crate) mod testutil {
    //! Shared fixtures for the per-algorithm tests.

    use crate::{AlgoClass, Env, Outcome, Scheduler};
    use dagsched_graph::{GraphBuilder, TaskGraph};

    /// The classic-nine peer graph, rebuilt here to keep `dagsched-core`'s
    /// unit tests free of suite fixtures.
    pub fn classic_nine() -> TaskGraph {
        let mut b = GraphBuilder::named("classic-nine");
        let w = [2u64, 3, 3, 4, 5, 4, 4, 4, 1];
        let n: Vec<_> = w.iter().map(|&w| b.add_task(w)).collect();
        for (s, d, c) in [
            (0usize, 1usize, 4u64),
            (0, 2, 1),
            (0, 3, 1),
            (0, 4, 1),
            (1, 6, 1),
            (2, 5, 1),
            (2, 6, 5),
            (3, 5, 5),
            (3, 7, 4),
            (4, 7, 10),
            (5, 8, 4),
            (6, 8, 6),
            (7, 8, 5),
        ] {
            b.add_edge(n[s], n[d], c).unwrap();
        }
        b.build().unwrap()
    }

    /// A single chain: any sane algorithm must keep it on one processor.
    pub fn chain4() -> TaskGraph {
        let mut b = GraphBuilder::new();
        let ids: Vec<_> = (0..4).map(|_| b.add_task(5)).collect();
        for w in ids.windows(2) {
            b.add_edge(w[0], w[1], 100).unwrap();
        }
        b.build().unwrap()
    }

    /// Independent tasks: must spread across processors.
    pub fn independent(n: usize, w: u64) -> TaskGraph {
        let mut b = GraphBuilder::new();
        for _ in 0..n {
            b.add_task(w);
        }
        b.build().unwrap()
    }

    /// Run `algo` on `g` with `p` processors, validating the result.
    pub fn run(algo: &dyn Scheduler, g: &TaskGraph, p: usize) -> Outcome {
        assert_eq!(algo.class(), AlgoClass::Bnp);
        let out = algo
            .schedule(g, &Env::bnp(p))
            .expect("scheduling must succeed");
        out.validate(g)
            .unwrap_or_else(|e| panic!("{} invalid: {e}", algo.name()));
        assert!(
            out.network.is_none(),
            "BNP algorithms do not schedule messages"
        );
        out
    }

    /// Exercise the standard BNP contract on all fixtures.
    pub fn standard_contract(algo: &dyn Scheduler) {
        // Chain with heavy comm: serialized on one processor, length = Σw.
        let chain = chain4();
        let out = run(algo, &chain, 4);
        assert_eq!(
            out.schedule.makespan(),
            20,
            "{}: chain must not be split",
            algo.name()
        );
        assert_eq!(out.schedule.procs_used(), 1, "{}", algo.name());

        // Independent tasks on enough processors: perfectly parallel.
        let ind = independent(6, 7);
        let out = run(algo, &ind, 6);
        assert_eq!(out.schedule.makespan(), 7, "{}", algo.name());
        assert_eq!(out.schedule.procs_used(), 6, "{}", algo.name());

        // Independent tasks on fewer processors: optimal balance is 2 rounds.
        let out = run(algo, &ind, 3);
        assert_eq!(out.schedule.makespan(), 14, "{}", algo.name());

        // Single processor: any graph serializes to Σw.
        let g = classic_nine();
        let out = run(algo, &g, 1);
        assert_eq!(out.schedule.makespan(), g.total_work(), "{}", algo.name());

        // The classic nine on 4 procs: must beat the serial time (30) given
        // 4 processors, and respect the computation-only CP lower bound (12).
        let out = run(algo, &g, 4);
        assert!(out.schedule.makespan() < 30, "{}", algo.name());
        assert!(out.schedule.makespan() >= 12, "{}", algo.name());
    }
}

#[cfg(test)]
mod tests {
    //! Behavioral tests for the six presets, migrated from the monolith
    //! modules they replaced — the observable contracts hold unchanged
    //! under the composed driver.

    use super::*;
    use crate::bnp::testutil;
    use crate::Scheduler;
    use dagsched_graph::GraphBuilder;

    #[test]
    fn all_presets_satisfy_the_bnp_contract() {
        for algo in [hlfet(), ish(), mcp(), etf(), dls(), last(), mcp_append()] {
            testutil::standard_contract(&algo);
        }
    }

    #[test]
    fn preset_names_and_classes() {
        for (algo, name) in [
            (hlfet(), "HLFET"),
            (ish(), "ISH"),
            (mcp(), "MCP"),
            (etf(), "ETF"),
            (dls(), "DLS"),
            (last(), "LAST"),
            (mcp_append(), "MCP"),
        ] {
            assert_eq!(algo.name(), name);
            assert_eq!(algo.class(), crate::AlgoClass::Bnp);
        }
    }

    #[test]
    fn presets_are_deterministic() {
        let g = testutil::classic_nine();
        for algo in [hlfet(), ish(), mcp(), etf(), dls(), last()] {
            let a = testutil::run(&algo, &g, 3);
            let b = testutil::run(&algo, &g, 3);
            for n in g.tasks() {
                assert_eq!(
                    a.schedule.placement(n),
                    b.schedule.placement(n),
                    "{}",
                    algo.name()
                );
            }
        }
    }

    // --- HLFET ---

    #[test]
    fn hlfet_prefers_higher_static_level() {
        // Two entries: a (long downstream chain) and b (leaf). HLFET must
        // schedule a first; with one processor that puts a at time 0.
        let mut gb = GraphBuilder::new();
        let a = gb.add_task(1);
        let b = gb.add_task(1);
        let c = gb.add_task(10);
        gb.add_edge(a, c, 0).unwrap();
        let g = gb.build().unwrap();
        let out = testutil::run(&hlfet(), &g, 1);
        assert_eq!(out.schedule.start_of(a), Some(0));
        assert!(out.schedule.start_of(b).unwrap() > 0);
    }

    #[test]
    fn hlfet_non_insertion_leaves_holes_unused() {
        // a(1) →(8) b(1); filler f(6) independent. HLFET (SLs: a=2, f=6,
        // b=1) schedules f first on P0, a on P1; b co-locates with a. The
        // point: makespan is computed with append-only placements.
        let mut gb = GraphBuilder::new();
        let a = gb.add_task(1);
        let _f = gb.add_task(6);
        let b = gb.add_task(1);
        gb.add_edge(a, b, 8).unwrap();
        let g = gb.build().unwrap();
        let out = testutil::run(&hlfet(), &g, 2);
        // a and b co-located (start 0 and 1), f alone.
        assert_eq!(out.schedule.proc_of(a), out.schedule.proc_of(b));
        assert_eq!(out.schedule.makespan(), 6);
    }

    // --- ISH ---

    #[test]
    fn ish_fills_the_communication_hole() {
        // On 2 procs: ISH picks a (SL=11) → P0@0; b stays local at 2 — no
        // hole; f on P1@0; makespan 11.
        let mut gb = GraphBuilder::new();
        let a = gb.add_task(2);
        let b = gb.add_task(9);
        let _f = gb.add_task(3);
        gb.add_edge(a, b, 7).unwrap();
        let g = gb.build().unwrap();
        let out = testutil::run(&ish(), &g, 2);
        assert_eq!(out.schedule.makespan(), 11);

        // Now make staying local expensive: a blocker keeps P0 busy
        // [2,22); b then goes to P1 at 9, leaving hole [0,9) on P1 where
        // f (3) fits at 0.
        let mut gb = GraphBuilder::new();
        let a = gb.add_task(2);
        let blocker = gb.add_task(20);
        let b = gb.add_task(9);
        let f = gb.add_task(3);
        gb.add_edge(a, blocker, 0).unwrap();
        gb.add_edge(a, b, 7).unwrap();
        let g = gb.build().unwrap();
        let out = testutil::run(&ish(), &g, 2);
        let fp = out.schedule.placement(f).unwrap();
        let bp = out.schedule.placement(b).unwrap();
        assert_eq!(fp.proc, bp.proc);
        assert!(
            fp.finish <= bp.start,
            "filler must not delay the hole creator"
        );
        assert_eq!(out.schedule.makespan(), 22);
    }

    #[test]
    fn ish_never_worse_than_hlfet_on_small_fixtures() {
        // ISH = HLFET + hole filling; on these fixtures filling only helps.
        for p in [2usize, 3, 4] {
            let g = testutil::classic_nine();
            let i = testutil::run(&ish(), &g, p).schedule.makespan();
            let h = testutil::run(&hlfet(), &g, p).schedule.makespan();
            assert!(i <= h, "p={p}: ISH {i} > HLFET {h}");
        }
    }

    // --- MCP ---

    #[test]
    fn mcp_insertion_exploits_holes() {
        // a(2)→(10)b(3) forces b to wait; independent c(4) can fill.
        let mut gb = GraphBuilder::new();
        let a = gb.add_task(2);
        let b = gb.add_task(3);
        let _c = gb.add_task(4);
        gb.add_edge(a, b, 10).unwrap();
        let g = gb.build().unwrap();
        let out = testutil::run(&mcp(), &g, 2);
        // Everything fits by 9: a[0,2) b[2,5) on P0 (local edge), c on P1
        // or inserted.
        assert!(out.schedule.makespan() <= 9);
    }

    #[test]
    fn mcp_beats_or_matches_hlfet_on_classic_nine() {
        // Insertion + CP order: the paper ranks MCP above HLFET.
        let g = testutil::classic_nine();
        for p in [2usize, 4, 8] {
            let m = testutil::run(&mcp(), &g, p).schedule.makespan();
            let h = testutil::run(&hlfet(), &g, p).schedule.makespan();
            assert!(m <= h, "p={p}: MCP {m} vs HLFET {h}");
        }
    }

    // --- ETF ---

    #[test]
    fn etf_picks_globally_earliest_pair() {
        // Ready nodes: x (can start now anywhere), y (waits for heavy
        // comm). ETF must schedule x first even if y has higher static
        // level.
        let mut gb = GraphBuilder::new();
        let a = gb.add_task(1);
        let y = gb.add_task(9); // child of a, heavy comm
        let x = gb.add_task(2); // independent
        gb.add_edge(a, y, 50).unwrap();
        let g = gb.build().unwrap();
        let out = testutil::run(&etf(), &g, 2);
        // a at 0 on P0. Then ready = {x, y}. y local EST = 1, x EST = 0 on
        // P1 → x scheduled at 0.
        assert_eq!(out.schedule.start_of(x), Some(0));
        // y follows a locally (zeroed comm) rather than waiting 51 remotely.
        assert_eq!(out.schedule.proc_of(y), out.schedule.proc_of(a));
    }

    #[test]
    fn etf_tie_on_est_broken_by_static_level() {
        // Both u, v ready with EST 0 everywhere; u has the longer tail, so
        // ETF must pick u first (it lands on P0, the smallest-id processor).
        let mut gb = GraphBuilder::new();
        let v = gb.add_task(3);
        let u = gb.add_task(3);
        let tail = gb.add_task(10);
        gb.add_edge(u, tail, 1).unwrap();
        let g = gb.build().unwrap();
        let out = testutil::run(&etf(), &g, 2);
        assert_eq!(out.schedule.proc_of(u), Some(dagsched_platform::ProcId(0)));
        assert_eq!(out.schedule.proc_of(v), Some(dagsched_platform::ProcId(1)));
    }

    // --- DLS ---

    #[test]
    fn dls_high_level_node_wins_despite_later_start() {
        // u: high SL, waits for comm; x: low SL, could start now. DL(u) >
        // DL(x) → DLS selects u first (ETF would pick x).
        let mut gb = GraphBuilder::new();
        let a = gb.add_task(3);
        let u = gb.add_task(3);
        let tail = gb.add_task(100);
        let x = gb.add_task(2);
        gb.add_edge(a, u, 9).unwrap();
        gb.add_edge(u, tail, 1).unwrap();
        let g = gb.build().unwrap();
        let out = testutil::run(&dls(), &g, 1);
        // Single processor: after a, ready = {u, x}. EST(u) = EST(x) = 3;
        // DL(u) = 103−3 = 100, DL(x) = 2−3 = −1 → u first.
        let su = out.schedule.start_of(u).unwrap();
        let sx = out.schedule.start_of(x).unwrap();
        assert!(su < sx, "u must be selected before x (u@{su}, x@{sx})");
    }

    #[test]
    fn dls_dl_can_be_negative_without_breaking() {
        // All static levels small, big comm delays → negative DLs everywhere.
        let mut gb = GraphBuilder::new();
        let a = gb.add_task(1);
        let b = gb.add_task(1);
        gb.add_edge(a, b, 1000).unwrap();
        let g = gb.build().unwrap();
        let out = testutil::run(&dls(), &g, 2);
        assert_eq!(out.schedule.makespan(), 2); // colocated, comm zeroed
    }

    // --- LAST ---

    #[test]
    fn last_prefers_strongly_connected_candidates() {
        // After a is placed, u (edge weight 50 of 50 incident) must be
        // selected before x (edge weight 1 of 1+100 incident).
        let mut gb = GraphBuilder::new();
        let a = gb.add_task(2);
        let u = gb.add_task(2);
        let x = gb.add_task(2);
        let xd = gb.add_task(2);
        gb.add_edge(a, u, 50).unwrap();
        gb.add_edge(a, x, 1).unwrap();
        gb.add_edge(x, xd, 100).unwrap();
        let g = gb.build().unwrap();
        let out = testutil::run(&last(), &g, 1);
        let su = out.schedule.start_of(u).unwrap();
        let sx = out.schedule.start_of(x).unwrap();
        assert!(su < sx, "u@{su} must precede x@{sx}");
    }

    #[test]
    fn last_entry_tie_broken_by_total_weight() {
        // Two entries, no defined edges: heavier-wired first.
        let mut gb = GraphBuilder::new();
        let light = gb.add_task(3);
        let heavy = gb.add_task(3);
        let c1 = gb.add_task(1);
        let c2 = gb.add_task(1);
        gb.add_edge(light, c1, 1).unwrap();
        gb.add_edge(heavy, c2, 40).unwrap();
        let g = gb.build().unwrap();
        let out = testutil::run(&last(), &g, 1);
        assert!(out.schedule.start_of(heavy).unwrap() < out.schedule.start_of(light).unwrap());
    }

    // --- ablation knob ---

    #[test]
    fn mcp_append_differs_only_in_slot_policy() {
        let full = mcp().spec();
        let ablated = mcp_append().spec();
        assert_eq!(ablated.slot, SlotPolicy::Append);
        assert_eq!(
            crate::compose::Spec {
                slot: full.slot,
                ..ablated
            },
            full
        );
    }
}
