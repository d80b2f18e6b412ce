//! Ablations of the design choices the paper's conclusions single out (§7):
//!
//! * "**Insertion is better than non-insertion**" — MCP with its insertion
//!   slot policy vs an append-only MCP.
//! * "**Dynamic critical path is better than static**" / look-ahead — DCP
//!   with and without its critical-child look-ahead.
//! * "Different DSAs have used the t-level and b-level attributes in a
//!   variety of ways" (§3) — one fixed list scheduler (greedy min-EST,
//!   append) under three priority attributes: static level, b-level, and
//!   `b-level − t-level`.

use dagsched_core::common::{best_proc, list_order, SlotPolicy};
use dagsched_core::{bnp, registry, unc::Dcp, Env};
use dagsched_graph::TaskGraph;
use dagsched_metrics::{table::f2, Running, Table};
use dagsched_platform::Schedule;
use dagsched_suites::rgnos::RgnosParams;

use crate::runner::run_timed;
use crate::Config;

/// Which attribute orders the list in the priority ablation.
#[derive(Debug, Clone, Copy)]
pub enum Priority {
    StaticLevel,
    BLevel,
    BMinusT,
}

/// Plain greedy list scheduler (append policy, min-EST processor) with a
/// configurable priority attribute — the §3 taxonomy knob isolated from
/// everything else.
pub fn list_schedule(g: &TaskGraph, procs: usize, prio: Priority) -> Schedule {
    let lv = g.levels();
    let key: Vec<i64> = match prio {
        Priority::StaticLevel => lv.static_levels().iter().map(|&x| x as i64).collect(),
        Priority::BLevel => lv.b_levels().iter().map(|&x| x as i64).collect(),
        Priority::BMinusT => g
            .tasks()
            .map(|n| lv.b_levels()[n.index()] as i64 - lv.t_levels()[n.index()] as i64)
            .collect(),
    };
    let mut s = Schedule::new(g.num_tasks(), procs);
    for n in list_order(g, &key) {
        let (p, est) = best_proc(g, &s, n, SlotPolicy::Append);
        s.place(n, p, est, g.weight(n))
            .expect("append cannot collide");
    }
    s
}

fn sample_graphs(cfg: &Config) -> Vec<TaskGraph> {
    let sizes: &[usize] = if cfg.full {
        &[50, 100, 200, 300]
    } else {
        &[50, 100]
    };
    let mut out = Vec::new();
    for (si, &v) in sizes.iter().enumerate() {
        for (pi, (ccr, par)) in cfg.rgnos_points().into_iter().enumerate() {
            let seed = cfg
                .seed
                .wrapping_mul(0x94D0_49BB_1331_11EB)
                .wrapping_add((si * 1000 + pi) as u64);
            out.push(dagsched_suites::rgnos::generate(RgnosParams::new(
                v, ccr, par, seed,
            )));
        }
    }
    out
}

/// Run all three ablations; one table each.
pub fn run(cfg: &Config) -> Vec<Table> {
    let graphs = sample_graphs(cfg);
    let mut tables = Vec::new();

    // 1. Insertion.
    {
        let variants = [
            ("MCP (insertion)", bnp::mcp()),
            ("MCP (append-only)", bnp::mcp_append()),
        ];
        let mut t = Table::new(
            "Ablation: insertion vs non-insertion (avg NSL, RGNOS sample)",
            &["variant", "avg NSL", "avg procs"],
        );
        for (label, algo) in variants {
            let mut nsl = Running::new();
            let mut procs = Running::new();
            for g in &graphs {
                let env = Env::bnp(cfg.bnp_unlimited_procs(g.num_tasks()));
                let rec = run_timed(&algo, g, &env);
                nsl.push(rec.nsl);
                procs.push(rec.procs_used as f64);
            }
            t.row(vec![label.to_string(), f2(nsl.mean()), f2(procs.mean())]);
        }
        tables.push(t);
    }

    // 2. DCP look-ahead.
    {
        let variants: [(&str, Dcp); 2] = [
            ("DCP (look-ahead)", Dcp { lookahead: true }),
            ("DCP (greedy start)", Dcp { lookahead: false }),
        ];
        let mut t = Table::new(
            "Ablation: DCP critical-child look-ahead (avg NSL, RGNOS sample)",
            &["variant", "avg NSL", "avg procs"],
        );
        for (label, algo) in variants {
            let mut nsl = Running::new();
            let mut procs = Running::new();
            for g in &graphs {
                let env = Env::bnp(1); // UNC ignores the environment
                let rec = run_timed(&algo, g, &env);
                nsl.push(rec.nsl);
                procs.push(rec.procs_used as f64);
            }
            t.row(vec![label.to_string(), f2(nsl.mean()), f2(procs.mean())]);
        }
        tables.push(t);
    }

    // 3. Priority attribute.
    {
        let mut t = Table::new(
            "Ablation: list-scheduling priority attribute (avg NSL, RGNOS sample)",
            &["priority", "avg NSL"],
        );
        for (label, prio) in [
            ("static level (HLFET)", Priority::StaticLevel),
            ("b-level", Priority::BLevel),
            ("b-level − t-level", Priority::BMinusT),
        ] {
            let mut nsl = Running::new();
            for g in &graphs {
                let procs = cfg.bnp_unlimited_procs(g.num_tasks());
                let s = list_schedule(g, procs, prio);
                s.validate(g).expect("ablation scheduler must stay valid");
                nsl.push(dagsched_metrics::nsl(g, &s));
            }
            t.row(vec![label.to_string(), f2(nsl.mean())]);
        }
        tables.push(t);
    }

    // Context row: the full roster's best on the same sample, for scale.
    {
        let mut t = Table::new(
            "Reference: best-of-roster avg NSL on the same sample",
            &["algorithm", "avg NSL"],
        );
        let mut best_algo = ("", f64::INFINITY);
        for algo in registry::bnp().into_iter().chain(registry::unc()) {
            let mut nsl = Running::new();
            for g in &graphs {
                let env = Env::bnp(cfg.bnp_unlimited_procs(g.num_tasks()));
                nsl.push(run_timed(algo.as_ref(), g, &env).nsl);
            }
            if nsl.mean() < best_algo.1 {
                best_algo = (algo.name(), nsl.mean());
            }
        }
        t.row(vec![best_algo.0.to_string(), f2(best_algo.1)]);
        tables.push(t);
    }

    tables
}

#[cfg(test)]
mod tests {
    use super::*;
    use dagsched_core::Scheduler;

    #[test]
    fn priority_variants_produce_valid_schedules() {
        let g = dagsched_suites::rgnos::generate(RgnosParams::new(60, 1.0, 3, 2));
        for prio in [Priority::StaticLevel, Priority::BLevel, Priority::BMinusT] {
            let s = list_schedule(&g, 8, prio);
            assert!(s.validate(&g).is_ok());
        }
    }

    #[test]
    fn insertion_never_hurts_mcp_on_average() {
        // Insertion strictly widens the slot choice per node; on a small
        // deterministic sample the average NSL must not be worse.
        let cfg = Config::quick(5);
        let graphs = sample_graphs(&cfg);
        let (mut with, mut without) = (Running::new(), Running::new());
        for g in &graphs[..4.min(graphs.len())] {
            let env = Env::bnp(cfg.bnp_unlimited_procs(g.num_tasks()));
            with.push(run_timed(&bnp::mcp(), g, &env).nsl);
            without.push(run_timed(&bnp::mcp_append(), g, &env).nsl);
        }
        assert!(
            with.mean() <= without.mean() + 1e-9,
            "insertion {} vs append {}",
            with.mean(),
            without.mean()
        );
    }

    #[test]
    fn ablation_scheduler_name_is_stable() {
        // The append-only MCP keeps its public name whatever the knob
        // (tables label the variants themselves).
        assert_eq!(bnp::mcp_append().name(), "MCP");
        assert_eq!(Dcp { lookahead: false }.name(), "DCP");
    }
}
