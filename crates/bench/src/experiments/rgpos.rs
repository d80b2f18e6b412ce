//! Tables 4 & 5 — percentage degradations from the pre-determined optimal
//! schedules on the RGPOS benchmarks (§6.3).
//!
//! The reference length is exact by construction (`Σw / p` with zero idle
//! on `p = 8` processors), so no search is involved. Two instance variants
//! (the paper underspecifies this; see `dagsched_suites::rgpos` and
//! DESIGN.md):
//!
//! * **Table 4 (UNC)** uses *chained* instances, whose optimum is pinned
//!   machine-independently — meaningful for algorithms that may open more
//!   than `p` clusters, and every degradation is provably non-negative.
//! * **Table 5 (BNP)** uses *unchained* instances on the construction
//!   machine itself (`p = 8`), where the utilization bound pins the
//!   optimum and the free within-processor ordering keeps the problem
//!   hard for list schedulers.

use dagsched_core::{registry, AlgoClass, Env};
use dagsched_metrics::{measures, table::f1, Running, Table};
use dagsched_suites::rgpos::{self, RgposParams};
use dagsched_ws::parallel_map;

use crate::runner::run_timed;
use crate::Config;

/// Build Table 4 (`class = Unc`) or Table 5 (`class = Bnp`).
///
/// Like the RGBOS tables, the (CCR, size) grid runs through
/// [`parallel_map`] and folds back in input order.
pub fn run(cfg: &Config, class: AlgoClass) -> Vec<Table> {
    let which = match class {
        AlgoClass::Unc => "Table 4: % degradation from optimal, RGPOS, UNC algorithms",
        AlgoClass::Bnp => "Table 5: % degradation from optimal, RGPOS, BNP algorithms",
        AlgoClass::Apn => unreachable!("the paper has no RGPOS APN table"),
    };
    let algos = registry::by_class(class);
    let names: Vec<&'static str> = algos.iter().map(|a| a.name()).collect();
    let sizes: Vec<usize> = if cfg.full {
        rgpos::sizes()
    } else {
        vec![50, 100, 200, 300, 500]
    };

    let cells: Vec<(usize, usize, usize)> = rgpos::CCRS
        .iter()
        .enumerate()
        .flat_map(|(ci, _)| sizes.iter().enumerate().map(move |(si, &v)| (ci, si, v)))
        .collect();
    let cell_results = parallel_map(cells, |(ci, si, v)| {
        let ccr = rgpos::CCRS[ci];
        let seed = cfg
            .seed
            .wrapping_mul(0xD134_2543_DE82_EF95)
            .wrapping_add((ci * 100 + si) as u64);
        let params = match class {
            AlgoClass::Unc => RgposParams::new(v, ccr, seed),
            _ => RgposParams::unchained(v, ccr, seed),
        };
        let inst = rgpos::generate(params);
        let env = Env::bnp(inst.procs);
        algos
            .iter()
            .map(|algo| {
                let rec = run_timed(algo.as_ref(), &inst.graph, &env);
                measures::degradation_pct(rec.makespan, inst.optimal)
            })
            .collect::<Vec<f64>>()
    });

    let mut tables = Vec::new();
    for (ci, &ccr) in rgpos::CCRS.iter().enumerate() {
        let mut header: Vec<&str> = vec!["v"];
        header.extend(names.iter().copied());
        let mut t = Table::new(format!("{which} — CCR {ccr}"), &header);

        let mut opt_counts = vec![0u32; algos.len()];
        let mut degs: Vec<Running> = vec![Running::new(); algos.len()];
        for (si, v) in sizes.iter().copied().enumerate() {
            let cell_degs = &cell_results[ci * sizes.len() + si];
            let mut row = vec![v.to_string()];
            for (ai, &d) in cell_degs.iter().enumerate() {
                if d.abs() <= 1e-9 {
                    opt_counts[ai] += 1;
                }
                degs[ai].push(d);
                row.push(f1(d));
            }
            t.row(row);
        }
        let mut row = vec!["no. of optimal".to_string()];
        row.extend(opt_counts.iter().map(|c| c.to_string()));
        t.row(row);
        let mut row = vec!["avg. degradation".to_string()];
        row.extend(degs.iter().map(|r| f1(r.mean())));
        t.row(row);
        tables.push(t);
    }
    tables
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bnp_never_beats_the_packing_bound() {
        // On the construction machine (p = 8), L_opt = Σw/p is a hard lower
        // bound: every BNP degradation must be ≥ 0.
        let inst = rgpos::generate(RgposParams::new(60, 1.0, 5));
        let env = Env::bnp(inst.procs);
        for algo in registry::bnp() {
            let rec = run_timed(algo.as_ref(), &inst.graph, &env);
            assert!(
                rec.makespan >= inst.optimal,
                "{} beat the utilization bound",
                algo.name()
            );
        }
    }

    #[test]
    fn degradations_shrink_for_easy_ccr() {
        // Not a strict law, but with CCR 0.1 the embedded schedule is easy
        // to approach: the best BNP algorithm should be within 50% of
        // optimal on a small instance.
        let inst = rgpos::generate(RgposParams::new(50, 0.1, 9));
        let env = Env::bnp(inst.procs);
        let best = registry::bnp()
            .iter()
            .map(|a| run_timed(a.as_ref(), &inst.graph, &env).makespan)
            .min()
            .unwrap();
        let d = measures::degradation_pct(best, inst.optimal);
        assert!(d < 50.0, "best BNP degradation unexpectedly high: {d}");
    }
}
