//! Annealed restart hill-climbing over graph space.
//!
//! The engine maximizes the makespan ratio `L_target(g) / L_baseline(g)`
//! over graphs reachable from random RGNOS seeds through the
//! [`crate::perturb`] operators. The baseline is either a second scheduler
//! or the branch-and-bound bound from `dagsched-optimal` (small graphs
//! only). Every run is fully determined by [`Budget::seed`]: the RNG drives
//! seed-graph generation, operator choice, operator randomness and the
//! annealing acceptance test, so a fixed `(seed, budget)` pair replays
//! byte-identically.

use crate::perturb::{standard, Limits};
use dagsched_core::{Env, Scheduler};
use dagsched_graph::TaskGraph;
use dagsched_optimal::{solve, OptimalParams};
use dagsched_suites::rgnos::{self, RgnosParams};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Deterministic search budget.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    /// Maximum number of (target, baseline) schedule-pair evaluations.
    pub max_evals: u64,
    /// Master RNG seed; the whole run derives from it.
    pub seed: u64,
    /// Cap on instance size — discovered graphs never exceed this.
    pub max_nodes: usize,
}

impl Budget {
    /// CI-sized budget: a few hundred evaluations, ≤60-node instances.
    pub fn quick(seed: u64) -> Budget {
        Budget {
            max_evals: 400,
            seed,
            max_nodes: 60,
        }
    }

    /// Paper-scale budget for `TASKBENCH_FULL=1` runs.
    pub fn full(seed: u64) -> Budget {
        Budget {
            max_evals: 5_000,
            seed,
            max_nodes: 60,
        }
    }
}

/// What the target scheduler is measured against.
pub enum Reference<'a> {
    /// Another scheduler from the registry.
    Algo(&'a dyn Scheduler),
    /// The branch-and-bound bound (unbounded processors, as in the paper's
    /// degradation tables). Only usable while instances stay ≤ 64 tasks.
    Optimal {
        /// Search-node cap per evaluation (`proven` is not required — the
        /// incumbent is still a valid schedule length, hence a sound
        /// denominator for a ratio ≥ 1 claim it only understates).
        node_limit: u64,
    },
}

impl Reference<'_> {
    /// Display label ("OPT" for the bound).
    pub fn label(&self) -> String {
        match self {
            Reference::Algo(a) => a.name().to_string(),
            Reference::Optimal { .. } => "OPT".to_string(),
        }
    }

    fn makespan(&self, g: &TaskGraph, env: &Env) -> Option<u64> {
        match self {
            Reference::Algo(a) => scored_makespan(*a, g, env),
            Reference::Optimal { node_limit } => {
                if g.num_tasks() > 64 {
                    return None;
                }
                let params = OptimalParams {
                    procs: None,
                    node_limit: *node_limit,
                    ..OptimalParams::default()
                };
                Some(solve(g, &params).length)
            }
        }
    }
}

/// The makespan `algo` scores on `g`, or `None` when it returns an error
/// (the evaluation is skipped). An invalid schedule is a scheduler bug,
/// never an adversarial win: it panics naming the algorithm and the
/// graph, as `bench::run_timed` does.
fn scored_makespan(algo: &dyn Scheduler, g: &TaskGraph, env: &Env) -> Option<u64> {
    let out = algo.schedule(g, env).ok()?;
    out.validate(g).unwrap_or_else(|e| {
        panic!(
            "{} produced an invalid schedule on {}: {e}",
            algo.name(),
            g.name()
        )
    });
    Some(out.schedule.makespan())
}

/// The best instance a search found.
#[derive(Debug, Clone)]
pub struct SearchResult {
    /// The discovered adversarial graph.
    pub graph: TaskGraph,
    /// Target scheduler's makespan on [`SearchResult::graph`].
    pub target_makespan: u64,
    /// Baseline makespan on the same graph.
    pub baseline_makespan: u64,
    /// Evaluations actually spent.
    pub evals: u64,
}

impl SearchResult {
    /// The objective: target over baseline makespan (≥ 1 means the target
    /// loses on this instance).
    pub fn ratio(&self) -> f64 {
        self.target_makespan as f64 / self.baseline_makespan as f64
    }
}

/// Run the adversarial search for one (target, baseline) pair.
///
/// Restart hill-climbing with a simulated-annealing acceptance test: each
/// segment starts from a fresh RGNOS seed graph (random size ≤
/// `budget.max_nodes`, random CCR regime, random width), proposes mutations
/// from the standard operator set, always accepts improvements, accepts
/// regressions with probability `exp(Δ/T)` under a geometrically cooling
/// temperature, and restarts after a stall. The best instance across all
/// segments is returned.
pub fn search(
    target: &dyn Scheduler,
    baseline: &Reference<'_>,
    env: &Env,
    budget: &Budget,
) -> SearchResult {
    assert!(budget.max_nodes >= 8, "max_nodes too small to search");
    let mut rng = StdRng::seed_from_u64(budget.seed);
    let ops = standard();
    let limits = Limits::with_max_nodes(budget.max_nodes);
    let mut evals = 0u64;
    let mut best: Option<(TaskGraph, u64, u64)> = None;
    let stall_limit = (budget.max_evals / 5).max(60);

    let ratio = |t: u64, b: u64| t as f64 / b as f64;

    while evals < budget.max_evals {
        // Fresh seed instance for this segment.
        let mut cur = None;
        while cur.is_none() && evals < budget.max_evals {
            let nodes = rng.random_range((budget.max_nodes / 2).max(8)..=budget.max_nodes);
            let ccr = [0.1, 0.5, 1.0, 2.0, 5.0, 10.0][rng.random_range(0..6usize)];
            let par = rng.random_range(1u32..=3);
            let gseed = rng.random_range(0..u64::MAX);
            let g = rgnos::generate(RgnosParams::new(nodes, ccr, par, gseed));
            evals += 1;
            if let Some(t) = scored_makespan(target, &g, env) {
                if let Some(b) = baseline.makespan(&g, env) {
                    if b > 0 {
                        cur = Some((g, t, b));
                    }
                }
            }
        }
        let Some(mut cur) = cur else { break };
        if best
            .as_ref()
            .is_none_or(|(_, t, b)| ratio(cur.1, cur.2) > ratio(*t, *b))
        {
            best = Some(cur.clone());
        }

        let mut stall = 0u64;
        let mut temp = 0.08f64;
        while evals < budget.max_evals && stall < stall_limit {
            let op = &ops[rng.random_range(0..ops.len())];
            let Some(gm) = op.perturb(&cur.0, &limits, &mut rng) else {
                continue; // inapplicable operator: free, draw again
            };
            evals += 1;
            let Some(t) = scored_makespan(target, &gm, env) else {
                continue;
            };
            let Some(b) = baseline.makespan(&gm, env) else {
                continue;
            };
            if b == 0 {
                continue;
            }
            let (rc, rn) = (ratio(cur.1, cur.2), ratio(t, b));
            temp = (temp * 0.995).max(1e-3);
            let accept = rn >= rc || rng.random_bool(((rn - rc) / temp).exp().min(1.0));
            if accept {
                cur = (gm, t, b);
            }
            let best_ratio = best.as_ref().map_or(0.0, |(_, t, b)| ratio(*t, *b));
            if rn > best_ratio {
                best = Some((cur.0.clone(), t, b));
                stall = 0;
            } else {
                stall += 1;
            }
        }
    }

    let (graph, target_makespan, baseline_makespan) =
        best.expect("budget admits at least one successful evaluation");
    SearchResult {
        graph,
        target_makespan,
        baseline_makespan,
        evals,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dagsched_core::{registry, AlgoClass, Outcome, SchedError};
    use dagsched_graph::io::to_tgf;
    use dagsched_platform::{ProcId, Schedule};

    fn tiny_budget(seed: u64) -> Budget {
        Budget {
            max_evals: 60,
            seed,
            max_nodes: 24,
        }
    }

    #[test]
    fn search_is_deterministic_per_seed() {
        let lc = registry::by_name("LC").unwrap();
        let dsc = registry::by_name("DSC").unwrap();
        let env = Env::bnp(1);
        let a = search(
            lc.as_ref(),
            &Reference::Algo(dsc.as_ref()),
            &env,
            &tiny_budget(9),
        );
        let b = search(
            lc.as_ref(),
            &Reference::Algo(dsc.as_ref()),
            &env,
            &tiny_budget(9),
        );
        assert_eq!(to_tgf(&a.graph), to_tgf(&b.graph));
        assert_eq!(a.target_makespan, b.target_makespan);
        assert_eq!(a.baseline_makespan, b.baseline_makespan);
        assert_eq!(a.evals, b.evals);
    }

    #[test]
    fn search_respects_budget_and_caps() {
        let ez = registry::by_name("EZ").unwrap();
        let dcp = registry::by_name("DCP").unwrap();
        let env = Env::bnp(1);
        let budget = tiny_budget(4);
        let r = search(ez.as_ref(), &Reference::Algo(dcp.as_ref()), &env, &budget);
        assert!(r.evals <= budget.max_evals);
        assert!(r.graph.num_tasks() <= budget.max_nodes);
        assert!(r.ratio() >= 1.0 || r.ratio() > 0.0); // ratio is well-defined
                                                      // The reported makespans must be reproducible by rescheduling.
        let t = ez.schedule(&r.graph, &env).unwrap().schedule.makespan();
        let b = dcp.schedule(&r.graph, &env).unwrap().schedule.makespan();
        assert_eq!(t, r.target_makespan);
        assert_eq!(b, r.baseline_makespan);
    }

    #[test]
    fn optimal_reference_bounds_from_below() {
        // Against the optimal bound the ratio can never drop below 1.
        let lc = registry::by_name("LC").unwrap();
        let env = Env::bnp(1);
        let budget = Budget {
            max_evals: 8,
            seed: 2,
            max_nodes: 12,
        };
        let r = search(
            lc.as_ref(),
            &Reference::Optimal { node_limit: 50_000 },
            &env,
            &budget,
        );
        assert!(
            r.target_makespan >= r.baseline_makespan,
            "heuristic beat the optimal bound: {} < {}",
            r.target_makespan,
            r.baseline_makespan
        );
    }

    /// Starts every task at time 0, each on its own processor: every
    /// child overlaps its parent, so any graph with an edge is invalid.
    struct AllAtZero;

    impl Scheduler for AllAtZero {
        fn name(&self) -> &'static str {
            "ALL-AT-ZERO"
        }

        fn class(&self) -> AlgoClass {
            AlgoClass::Unc
        }

        fn schedule(&self, g: &TaskGraph, _env: &Env) -> Result<Outcome, SchedError> {
            let mut schedule = Schedule::new(g.num_tasks(), g.num_tasks());
            for n in g.tasks() {
                schedule.place(n, ProcId(n.0), 0, g.weight(n)).unwrap();
            }
            Ok(Outcome {
                schedule,
                network: None,
            })
        }
    }

    #[test]
    #[should_panic(expected = "ALL-AT-ZERO produced an invalid schedule on")]
    fn an_invalid_target_schedule_panics_instead_of_scoring() {
        let dsc = registry::by_name("DSC").unwrap();
        search(
            &AllAtZero,
            &Reference::Algo(dsc.as_ref()),
            &Env::bnp(1),
            &tiny_budget(3),
        );
    }

    #[test]
    #[should_panic(expected = "ALL-AT-ZERO produced an invalid schedule on")]
    fn an_invalid_baseline_schedule_panics_instead_of_scoring() {
        let dsc = registry::by_name("DSC").unwrap();
        search(
            dsc.as_ref(),
            &Reference::Algo(&AllAtZero),
            &Env::bnp(1),
            &tiny_budget(3),
        );
    }

    #[test]
    fn reference_labels() {
        let lc = registry::by_name("LC").unwrap();
        assert_eq!(Reference::Algo(lc.as_ref()).label(), "LC");
        assert_eq!(Reference::Optimal { node_limit: 1 }.label(), "OPT");
    }
}
