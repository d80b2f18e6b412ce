//! The six BNP list schedulers as they stood before the composable-
//! scheduler refactor — kept verbatim (minus trace instrumentation) so the
//! equivalence sweep proves the `dagsched_core::compose` presets against
//! the real former code instead of a straw man. Nothing here is wired into
//! the algorithm registry; every scheduler answers to its paper acronym
//! plus a `-monolith` suffix.
//!
//! The placement-identity sweep at the bottom is the same discipline that
//! validated the DSC/MD/DCP/BSA overhauls: every preset must match its
//! monolith on every placement across a multi-thousand-instance RGNOS
//! sweep, plus paper-scale spot checks.

use dagsched_core::common::{best_proc, drt, est_on, ReadyQueue, ReadySet, SlotPolicy};
use dagsched_core::{AlgoClass, Env, Outcome, SchedError, Scheduler};
use dagsched_graph::{TaskGraph, TaskId};
use dagsched_platform::{ProcId, Schedule};

/// The entry guard as each monolith carried it.
fn new_schedule(g: &TaskGraph, env: &Env) -> Result<Schedule, SchedError> {
    let p = env.procs();
    if p == 0 {
        return Err(SchedError::NoProcessors);
    }
    Ok(Schedule::new(g.num_tasks(), p))
}

/// HLFET as shipped: static-level [`ReadyQueue`] selection, append slots.
#[derive(Debug, Default, Clone, Copy)]
pub struct HlfetMono;

impl Scheduler for HlfetMono {
    fn name(&self) -> &'static str {
        "HLFET-monolith"
    }

    fn class(&self) -> AlgoClass {
        AlgoClass::Bnp
    }

    fn schedule(&self, g: &TaskGraph, env: &Env) -> Result<Outcome, SchedError> {
        let mut s = new_schedule(g, env)?;
        let sl = g.levels().static_levels();
        let mut ready = ReadyQueue::new(g, sl.to_vec());
        while let Some(n) = ready.peek_max() {
            let (p, est) = best_proc(g, &s, n, SlotPolicy::Append);
            s.place(n, p, est, g.weight(n))
                .expect("append EST cannot collide");
            ready.take(g, n);
        }
        Ok(Outcome {
            schedule: s,
            network: None,
        })
    }
}

/// ISH as shipped: HLFET selection plus the hole-filling pass.
#[derive(Debug, Default, Clone, Copy)]
pub struct IshMono;

impl Scheduler for IshMono {
    fn name(&self) -> &'static str {
        "ISH-monolith"
    }

    fn class(&self) -> AlgoClass {
        AlgoClass::Bnp
    }

    fn schedule(&self, g: &TaskGraph, env: &Env) -> Result<Outcome, SchedError> {
        let mut s = new_schedule(g, env)?;
        let sl = g.levels().static_levels();
        let mut ready = ReadyQueue::new(g, sl.to_vec());
        while let Some(n) = ready.peek_max() {
            let (p, est) = best_proc(g, &s, n, SlotPolicy::Append);
            let hole_start = s.timeline(p).ready_time();
            s.place(n, p, est, g.weight(n))
                .expect("append EST cannot collide");
            ready.take(g, n);

            // Fill [hole_start, est) left-to-right with the highest-
            // static-level ready nodes that fit and are not delayed.
            let mut cursor = hole_start;
            while cursor < est {
                let mut filler: Option<(u64, TaskId, u64)> = None;
                for m in ready.iter() {
                    let start = drt(g, &s, m, p).max(cursor);
                    if start + g.weight(m) > est {
                        continue; // does not fit in the remaining hole
                    }
                    let (_, best_elsewhere) = best_proc(g, &s, m, SlotPolicy::Append);
                    if start > best_elsewhere {
                        continue; // the hole would delay this node
                    }
                    let key = (sl[m.index()], std::cmp::Reverse(m.0));
                    if filler.is_none_or(|(bk, bm, _)| key > (bk, std::cmp::Reverse(bm.0))) {
                        filler = Some((sl[m.index()], m, start));
                    }
                }
                let Some((_, m, start)) = filler else { break };
                s.place(m, p, start, g.weight(m))
                    .expect("filler fits in the hole");
                ready.take(g, m);
                cursor = start + g.weight(m);
            }
        }
        Ok(Outcome {
            schedule: s,
            network: None,
        })
    }
}

/// MCP as shipped: lexicographic ALAP-lists order, insertion slots (the
/// `insertion: false` knob is the append-only ablation).
#[derive(Debug, Clone, Copy)]
pub struct McpMono {
    pub insertion: bool,
}

impl Default for McpMono {
    fn default() -> Self {
        McpMono { insertion: true }
    }
}

/// Build each node's ascending ALAP list (own ALAP + all descendants').
fn alap_lists(g: &TaskGraph, alap: &[u64]) -> Vec<Vec<u64>> {
    g.tasks()
        .map(|n| {
            let mut list: Vec<u64> = std::iter::once(alap[n.index()])
                .chain(g.descendants(n).into_iter().map(|d| alap[d.index()]))
                .collect();
            list.sort_unstable();
            list
        })
        .collect()
}

impl Scheduler for McpMono {
    fn name(&self) -> &'static str {
        "MCP-monolith"
    }

    fn class(&self) -> AlgoClass {
        AlgoClass::Bnp
    }

    fn schedule(&self, g: &TaskGraph, env: &Env) -> Result<Outcome, SchedError> {
        let mut s = new_schedule(g, env)?;
        let alap = g.levels().alap_times();
        let lists = alap_lists(g, alap);
        let mut order: Vec<TaskId> = g.tasks().collect();
        order.sort_by(|&a, &b| lists[a.index()].cmp(&lists[b.index()]).then(a.0.cmp(&b.0)));

        let policy = if self.insertion {
            SlotPolicy::Insertion
        } else {
            SlotPolicy::Append
        };
        for n in order {
            let mut best = (ProcId(0), u64::MAX);
            for pi in 0..s.num_procs() as u32 {
                let p = ProcId(pi);
                let est = est_on(g, &s, n, p, policy);
                if est < best.1 {
                    best = (p, est);
                }
            }
            s.place(n, best.0, best.1, g.weight(n))
                .expect("chosen slot fits");
        }
        Ok(Outcome {
            schedule: s,
            network: None,
        })
    }
}

/// ETF as shipped: globally earliest (ready node, processor) pair, ties
/// toward higher static level, then smaller ids.
#[derive(Debug, Default, Clone, Copy)]
pub struct EtfMono;

impl Scheduler for EtfMono {
    fn name(&self) -> &'static str {
        "ETF-monolith"
    }

    fn class(&self) -> AlgoClass {
        AlgoClass::Bnp
    }

    fn schedule(&self, g: &TaskGraph, env: &Env) -> Result<Outcome, SchedError> {
        let mut s = new_schedule(g, env)?;
        let sl = g.levels().static_levels();
        let mut ready = ReadySet::new(g);
        while !ready.is_empty() {
            type Key = (u64, std::cmp::Reverse<u64>, u32, u32);
            let mut best: Option<Key> = None;
            let mut chosen: Option<(TaskId, ProcId, u64)> = None;
            for n in ready.iter() {
                for pi in 0..s.num_procs() as u32 {
                    let p = ProcId(pi);
                    let est = est_on(g, &s, n, p, SlotPolicy::Append);
                    let key = (est, std::cmp::Reverse(sl[n.index()]), n.0, pi);
                    if best.is_none_or(|b| key < b) {
                        best = Some(key);
                        chosen = Some((n, p, est));
                    }
                }
            }
            let (n, p, est) = chosen.expect("ready set non-empty");
            s.place(n, p, est, g.weight(n))
                .expect("append EST cannot collide");
            ready.take(g, n);
        }
        Ok(Outcome {
            schedule: s,
            network: None,
        })
    }
}

/// DLS as shipped: dynamic level `SL − EST` maximized over pairs.
#[derive(Debug, Default, Clone, Copy)]
pub struct DlsMono;

impl Scheduler for DlsMono {
    fn name(&self) -> &'static str {
        "DLS-monolith"
    }

    fn class(&self) -> AlgoClass {
        AlgoClass::Bnp
    }

    fn schedule(&self, g: &TaskGraph, env: &Env) -> Result<Outcome, SchedError> {
        let mut s = new_schedule(g, env)?;
        let sl = g.levels().static_levels();
        let mut ready = ReadySet::new(g);
        while !ready.is_empty() {
            type Key = (
                i64,
                std::cmp::Reverse<u64>,
                std::cmp::Reverse<u32>,
                std::cmp::Reverse<u32>,
            );
            let mut best_key: Option<Key> = None;
            let mut chosen: Option<(TaskId, ProcId, u64)> = None;
            for n in ready.iter() {
                for pi in 0..s.num_procs() as u32 {
                    let p = ProcId(pi);
                    let est = est_on(g, &s, n, p, SlotPolicy::Append);
                    let dl = sl[n.index()] as i64 - est as i64;
                    let key = (
                        dl,
                        std::cmp::Reverse(est),
                        std::cmp::Reverse(n.0),
                        std::cmp::Reverse(pi),
                    );
                    if best_key.is_none_or(|b| key > b) {
                        best_key = Some(key);
                        chosen = Some((n, p, est));
                    }
                }
            }
            let (n, p, est) = chosen.expect("ready set non-empty");
            s.place(n, p, est, g.weight(n))
                .expect("append EST cannot collide");
            ready.take(g, n);
        }
        Ok(Outcome {
            schedule: s,
            network: None,
        })
    }
}

/// LAST as shipped: max defined-fraction `D_NODE` by exact integer
/// cross-multiplication, ties by total incident weight then id.
#[derive(Debug, Default, Clone, Copy)]
pub struct LastMono;

impl Scheduler for LastMono {
    fn name(&self) -> &'static str {
        "LAST-monolith"
    }

    fn class(&self) -> AlgoClass {
        AlgoClass::Bnp
    }

    fn schedule(&self, g: &TaskGraph, env: &Env) -> Result<Outcome, SchedError> {
        let mut s = new_schedule(g, env)?;
        let total: Vec<u64> = g
            .tasks()
            .map(|n| {
                g.preds(n).iter().map(|&(_, c)| c).sum::<u64>()
                    + g.succs(n).iter().map(|&(_, c)| c).sum::<u64>()
            })
            .collect();
        let mut ready = ReadySet::new(g);
        while !ready.is_empty() {
            let n = last_select(g, &ready, &total);
            let (p, est) = best_proc(g, &s, n, SlotPolicy::Append);
            s.place(n, p, est, g.weight(n))
                .expect("append EST cannot collide");
            ready.take(g, n);
        }
        Ok(Outcome {
            schedule: s,
            network: None,
        })
    }
}

/// LAST's selection: max `D_NODE`, exact via cross-multiplication
/// (0-denominator treated as ratio 0), ties by total weight then id.
fn last_select(g: &TaskGraph, ready: &ReadySet, total: &[u64]) -> TaskId {
    let mut best: Option<(TaskId, u64, u64)> = None; // (node, defined, total)
    for n in ready.iter() {
        let defined: u64 = g.preds(n).iter().map(|&(_, c)| c).sum();
        let tot = total[n.index()];
        let better = match best {
            None => true,
            Some((bn, bd, bt)) => {
                let lhs = defined as u128 * bt.max(1) as u128;
                let rhs = bd as u128 * tot.max(1) as u128;
                lhs > rhs || (lhs == rhs && (tot > bt || (tot == bt && n.0 < bn.0)))
            }
        };
        if better {
            best = Some((n, defined, tot));
        }
    }
    best.expect("ready set non-empty").0
}

#[cfg(test)]
mod tests {
    use super::*;
    use dagsched_core::bnp;
    use dagsched_suites::rgnos::{self, RgnosParams};

    /// The composed presets against the retained monoliths, placement by
    /// placement, across the multi-thousand-instance RGNOS sweep — the
    /// baseline-equivalence discipline that validated every prior
    /// overhaul. Sizes × CCRs × parallelisms × seeds = 2025 instances,
    /// plus paper-scale spot checks, each compared for all six pairs.
    #[test]
    fn composed_presets_match_monoliths_across_sweep() {
        let pairs: Vec<(Box<dyn Scheduler>, Box<dyn Scheduler>)> = vec![
            (Box::new(bnp::hlfet()), Box::new(HlfetMono)),
            (Box::new(bnp::ish()), Box::new(IshMono)),
            (Box::new(bnp::mcp()), Box::new(McpMono::default())),
            (Box::new(bnp::etf()), Box::new(EtfMono)),
            (Box::new(bnp::dls()), Box::new(DlsMono)),
            (Box::new(bnp::last()), Box::new(LastMono)),
        ];
        let env = Env::bnp(4);
        let mut instances = 0usize;
        for &v in &[10usize, 18, 30, 45, 60] {
            for &ccr in &[0.1f64, 1.0, 10.0] {
                for &par in &[1u32, 3, 5] {
                    for seed in 0..45u64 {
                        let g = rgnos::generate(RgnosParams::new(v, ccr, par, seed));
                        for (new, old) in &pairs {
                            assert_identical(new.as_ref(), old.as_ref(), &g, &env);
                        }
                        instances += 1;
                    }
                }
            }
        }
        // Paper-scale spot checks on top of the small-instance sweep: two
        // on the sweep's 4 processors, then v ∈ {100, 300} × CCR ∈
        // {0.1, 1, 10} × seeds 0–2 on 8 processors.
        let paper_grid = [100usize, 300].into_iter().flat_map(|v| {
            [0.1f64, 1.0, 10.0]
                .into_iter()
                .flat_map(move |ccr| (0..3u64).map(move |seed| (v, ccr, seed, 8usize)))
        });
        let spot = [(150usize, 1.0f64, 7u64, 4usize), (150, 0.1, 8, 4)]
            .into_iter()
            .chain(paper_grid);
        for (v, ccr, seed, procs) in spot {
            let g = rgnos::generate(RgnosParams::new(v, ccr, 3, seed));
            for (new, old) in &pairs {
                assert_identical(new.as_ref(), old.as_ref(), &g, &Env::bnp(procs));
            }
            instances += 1;
        }
        assert!(instances > 2000, "sweep must stay multi-thousand-instance");
    }

    /// The append-only ablation knob survives the rewire: the composed
    /// `SLOT=append` MCP matches the monolith's `insertion: false` leg.
    #[test]
    fn mcp_append_ablation_matches_monolith() {
        let env = Env::bnp(4);
        for &(v, ccr, seed) in &[(20usize, 0.5f64, 1u64), (40, 2.0, 2), (60, 10.0, 3)] {
            let g = rgnos::generate(RgnosParams::new(v, ccr, 3, seed));
            assert_identical(&bnp::mcp_append(), &McpMono { insertion: false }, &g, &env);
        }
    }

    /// Processor-count spread: equivalence is not an artifact of p=4.
    #[test]
    fn composed_presets_match_monoliths_across_proc_counts() {
        for p in [1usize, 2, 3, 8, 16] {
            let env = Env::bnp(p);
            for seed in 0..8u64 {
                let g = rgnos::generate(RgnosParams::new(35, 1.0, 3, seed));
                assert_identical(&bnp::hlfet(), &HlfetMono, &g, &env);
                assert_identical(&bnp::ish(), &IshMono, &g, &env);
                assert_identical(&bnp::mcp(), &McpMono::default(), &g, &env);
                assert_identical(&bnp::etf(), &EtfMono, &g, &env);
                assert_identical(&bnp::dls(), &DlsMono, &g, &env);
                assert_identical(&bnp::last(), &LastMono, &g, &env);
            }
        }
    }

    fn assert_identical(new: &dyn Scheduler, old: &dyn Scheduler, g: &TaskGraph, env: &Env) {
        let a = old.schedule(g, env).unwrap();
        let b = new.schedule(g, env).unwrap();
        for n in g.tasks() {
            assert_eq!(
                a.schedule.placement(n),
                b.schedule.placement(n),
                "{} vs {}: task {n} (graph {:?}, p={})",
                new.name(),
                old.name(),
                g.name(),
                env.procs(),
            );
        }
    }
}
