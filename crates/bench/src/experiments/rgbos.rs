//! Tables 2 & 3 — percentage degradations from the branch-and-bound
//! optimal solutions on the RGBOS benchmarks (§6.2).
//!
//! One sub-table per CCR ∈ {0.1, 1.0, 10.0}; rows are graph sizes 10…32,
//! columns the class's algorithms. The last three rows reproduce the
//! paper's summary lines — number of optimal solutions generated, average
//! degradation — plus one extra honesty row: for how many instances the
//! branch-and-bound *proved* optimality within its node budget (unproven
//! reference values are best-known bounds; see DESIGN.md).

use dagsched_core::{registry, AlgoClass, Env};
use dagsched_metrics::{measures, table::f1, Running, Table};
use dagsched_optimal::{solve, OptimalParams};
use dagsched_suites::rgbos::{self, RgbosParams};
use dagsched_ws::parallel_map;

use crate::runner::run_timed;
use crate::Config;

/// Build Table 2 (`class = Unc`) or Table 3 (`class = Bnp`).
///
/// Every (CCR, size) cell — one branch-and-bound solve plus one run per
/// algorithm — is independent, so the full grid executes through
/// [`parallel_map`]; the rows fold back in deterministic input order.
pub fn run(cfg: &Config, class: AlgoClass) -> Vec<Table> {
    let which = match class {
        AlgoClass::Unc => "Table 2: % degradation from optimal, RGBOS, UNC algorithms",
        AlgoClass::Bnp => "Table 3: % degradation from optimal, RGBOS, BNP algorithms",
        AlgoClass::Apn => unreachable!("the paper has no RGBOS APN table"),
    };
    let algos = registry::by_class(class);
    let names: Vec<&'static str> = algos.iter().map(|a| a.name()).collect();

    let sizes = rgbos::sizes();
    let cells: Vec<(usize, usize, usize)> = rgbos::CCRS
        .iter()
        .enumerate()
        .flat_map(|(ci, _)| sizes.iter().enumerate().map(move |(si, &v)| (ci, si, v)))
        .collect();
    let cell_results = parallel_map(cells, |(ci, si, v)| {
        let ccr = rgbos::CCRS[ci];
        let seed = cfg
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add((ci * 100 + si) as u64);
        let g = rgbos::generate(RgbosParams {
            nodes: v,
            ccr,
            seed,
        });
        let opt = solve(
            &g,
            &OptimalParams {
                procs: None,
                node_limit: cfg.bnb_node_limit(),
                ..OptimalParams::default()
            },
        );
        let env = Env::bnp(cfg.bnp_unlimited_procs(v));
        let cell_degs: Vec<f64> = algos
            .iter()
            .map(|algo| {
                let rec = run_timed(algo.as_ref(), &g, &env);
                measures::degradation_pct(rec.makespan, opt.length)
            })
            .collect();
        (opt.proven, cell_degs)
    });

    let mut tables = Vec::new();
    for (ci, &ccr) in rgbos::CCRS.iter().enumerate() {
        let mut header: Vec<&str> = vec!["v"];
        header.extend(names.iter().copied());
        let mut t = Table::new(format!("{which} — CCR {ccr}"), &header);

        let mut opt_counts = vec![0u32; algos.len()];
        let mut degs: Vec<Running> = vec![Running::new(); algos.len()];
        let mut proven = 0u32;
        let mut total = 0u32;
        for (si, v) in sizes.iter().copied().enumerate() {
            let (cell_proven, cell_degs) = &cell_results[ci * sizes.len() + si];
            total += 1;
            if *cell_proven {
                proven += 1;
            }
            let mut row = vec![v.to_string()];
            for (ai, &d) in cell_degs.iter().enumerate() {
                if d <= 1e-9 {
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
        let mut row = vec!["(B&B proven)".to_string()];
        row.push(format!("{proven}/{total}"));
        row.extend(std::iter::repeat_n(String::new(), algos.len() - 1));
        t.row(row);
        tables.push(t);
    }
    tables
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tiny-but-real slice of Table 2/3 used in tests: one CCR, small sizes.
    fn tiny_check(class: AlgoClass) {
        let cfg = Config::quick(7);
        let g = rgbos::generate(RgbosParams {
            nodes: 12,
            ccr: 1.0,
            seed: 3,
        });
        let opt = solve(
            &g,
            &OptimalParams {
                procs: None,
                node_limit: 2_000_000,
                ..OptimalParams::default()
            },
        );
        let env = Env::bnp(cfg.bnp_unlimited_procs(12));
        for algo in registry::by_class(class) {
            let rec = run_timed(algo.as_ref(), &g, &env);
            let d = measures::degradation_pct(rec.makespan, opt.length);
            assert!(d >= -1e-9, "{} beat a proven optimum: {d}", algo.name());
        }
    }

    #[test]
    fn unc_degradations_are_nonnegative() {
        tiny_check(AlgoClass::Unc);
    }

    #[test]
    fn bnp_degradations_are_nonnegative() {
        tiny_check(AlgoClass::Bnp);
    }
}
