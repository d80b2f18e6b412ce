//! Figures 2, 3 and 4 — NSL and processor-count series (§6.4, §6.5).
//!
//! * **Fig. 2(a–c)** — average NSL vs graph size on RGNOS, one sub-table
//!   per class (UNC, BNP, APN). APN runs on the 8-processor hypercube.
//! * **Fig. 3(a–b)** — average number of processors used vs graph size on
//!   RGNOS for the UNC and BNP classes (BNP given a virtually unlimited
//!   machine, §6.4.2).
//! * **Fig. 4(a–c)** — average NSL on Cholesky-factorization traced graphs
//!   vs matrix dimension, one sub-table per class.

use dagsched_core::{registry, AlgoClass, Env};
use dagsched_metrics::{table::f2, Running, Table};
use dagsched_suites::{rgnos::RgnosParams, traced};
use dagsched_ws::parallel_map;

use crate::runner::run_timed;
use crate::Config;

fn class_env(cfg: &Config, class: AlgoClass, v: usize) -> Env {
    match class {
        AlgoClass::Apn => Env::apn(cfg.apn_topology()),
        _ => Env::bnp(cfg.bnp_unlimited_procs(v)),
    }
}

/// Shared sweep behind Figures 2 and 3: one RGNOS graph per (size, point)
/// cell, every algorithm of `class` run on it, `measure` extracted. Cells
/// execute through [`parallel_map`] (each regenerates its graph from its
/// own seed); the per-size averages fold back in deterministic input order.
fn rgnos_averages(
    cfg: &Config,
    class: AlgoClass,
    measure: impl Fn(&crate::runner::RunRecord) -> f64 + Sync,
) -> Vec<Vec<f64>> {
    let algos = registry::by_class(class);
    let sizes = cfg.rgnos_sizes();
    let points = cfg.rgnos_points();
    let cells: Vec<(usize, usize)> = (0..sizes.len())
        .flat_map(|si| (0..points.len()).map(move |pi| (si, pi)))
        .collect();
    let cell_results = parallel_map(cells, |(si, pi)| {
        let v = sizes[si];
        let (ccr, par) = points[pi];
        let env = class_env(cfg, class, v);
        let seed = cfg
            .seed
            .wrapping_mul(0xA076_1D64_78BD_642F)
            .wrapping_add((si * 1000 + pi) as u64);
        let g = dagsched_suites::rgnos::generate(RgnosParams::new(v, ccr, par, seed));
        algos
            .iter()
            .map(|algo| measure(&run_timed(algo.as_ref(), &g, &env)))
            .collect::<Vec<f64>>()
    });
    sizes
        .iter()
        .enumerate()
        .map(|(si, _)| {
            let mut acc = vec![Running::new(); algos.len()];
            for pi in 0..points.len() {
                for (ai, &x) in cell_results[si * points.len() + pi].iter().enumerate() {
                    acc[ai].push(x);
                }
            }
            acc.iter().map(|r| r.mean()).collect()
        })
        .collect()
}

/// Fig. 2: average NSL of the UNC (a), BNP (b) and APN (c) algorithms on
/// RGNOS, by graph size.
pub fn fig2(cfg: &Config) -> Vec<Table> {
    let mut tables = Vec::new();
    for (sub, class) in [
        ("(a) UNC", AlgoClass::Unc),
        ("(b) BNP", AlgoClass::Bnp),
        ("(c) APN", AlgoClass::Apn),
    ] {
        let algos = registry::by_class(class);
        let names: Vec<&'static str> = algos.iter().map(|a| a.name()).collect();
        let mut header: Vec<&str> = vec!["v"];
        header.extend(names.iter().copied());
        let mut t = Table::new(
            format!("Figure 2{sub}: average NSL on RGNOS vs graph size"),
            &header,
        );
        let means = rgnos_averages(cfg, class, |rec| rec.nsl);
        for (si, v) in cfg.rgnos_sizes().into_iter().enumerate() {
            let mut row = vec![v.to_string()];
            row.extend(means[si].iter().map(|&m| f2(m)));
            t.row(row);
        }
        tables.push(t);
    }
    tables
}

/// Fig. 3: average number of processors used on RGNOS by the UNC (a) and
/// BNP (b) algorithms.
pub fn fig3(cfg: &Config) -> Vec<Table> {
    let mut tables = Vec::new();
    for (sub, class) in [("(a) UNC", AlgoClass::Unc), ("(b) BNP", AlgoClass::Bnp)] {
        let algos = registry::by_class(class);
        let names: Vec<&'static str> = algos.iter().map(|a| a.name()).collect();
        let mut header: Vec<&str> = vec!["v"];
        header.extend(names.iter().copied());
        let mut t = Table::new(
            format!("Figure 3{sub}: average processors used on RGNOS vs graph size"),
            &header,
        );
        let means = rgnos_averages(cfg, class, |rec| rec.procs_used as f64);
        for (si, v) in cfg.rgnos_sizes().into_iter().enumerate() {
            let mut row = vec![v.to_string()];
            row.extend(means[si].iter().map(|&m| format!("{m:.1}")));
            t.row(row);
        }
        tables.push(t);
    }
    tables
}

/// Fig. 4: average NSL on Cholesky traced graphs vs matrix dimension, per
/// class.
pub fn fig4(cfg: &Config) -> Vec<Table> {
    let dims: Vec<usize> = if cfg.full {
        traced::cholesky_dimensions()
    } else {
        vec![8, 12, 16, 20, 24]
    };
    let ccrs: [f64; 2] = [0.1, 1.0];
    let mut tables = Vec::new();
    for (sub, class) in [
        ("(a) UNC", AlgoClass::Unc),
        ("(b) BNP", AlgoClass::Bnp),
        ("(c) APN", AlgoClass::Apn),
    ] {
        let algos = registry::by_class(class);
        let names: Vec<&'static str> = algos.iter().map(|a| a.name()).collect();
        let mut header: Vec<&str> = vec!["N", "v"];
        header.extend(names.iter().copied());
        let mut t = Table::new(
            format!("Figure 4{sub}: average NSL on Cholesky graphs vs matrix dimension"),
            &header,
        );
        for &n in &dims {
            let v = n * (n + 1) / 2;
            let env = class_env(cfg, class, v);
            let mut acc = vec![Running::new(); algos.len()];
            for &ccr in &ccrs {
                let g = traced::cholesky(n, ccr);
                for (ai, algo) in algos.iter().enumerate() {
                    acc[ai].push(run_timed(algo.as_ref(), &g, &env).nsl);
                }
            }
            let mut row = vec![n.to_string(), v.to_string()];
            row.extend(acc.iter().map(|r| f2(r.mean())));
            t.row(row);
        }
        tables.push(t);
    }
    tables
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig4_runs_on_smallest_dims() {
        // One dimension, all three classes — checks the plumbing end to end.
        let cfg = Config::quick(2);
        let g = traced::cholesky(6, 1.0);
        for class in [AlgoClass::Unc, AlgoClass::Bnp, AlgoClass::Apn] {
            let env = class_env(&cfg, class, g.num_tasks());
            for algo in registry::by_class(class) {
                let rec = run_timed(algo.as_ref(), &g, &env);
                assert!(rec.nsl >= 1.0, "{}: NSL {}", algo.name(), rec.nsl);
            }
        }
    }

    #[test]
    fn nsl_is_at_least_one_everywhere() {
        let cfg = Config::quick(4);
        let g = dagsched_suites::rgnos::generate(RgnosParams::new(50, 1.0, 2, 11));
        for class in [AlgoClass::Unc, AlgoClass::Bnp] {
            let env = class_env(&cfg, class, 50);
            for algo in registry::by_class(class) {
                assert!(
                    run_timed(algo.as_ref(), &g, &env).nsl >= 1.0,
                    "{}",
                    algo.name()
                );
            }
        }
    }
}
