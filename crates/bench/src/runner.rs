//! Timed, validated execution of one algorithm on one graph.

use dagsched_core::{Env, Scheduler};
use dagsched_graph::TaskGraph;
use dagsched_metrics::measures;
use dagsched_obs::{global, HistId, Metric};
use std::time::Duration;

/// The measurements the paper reports for one (algorithm, graph) run.
#[derive(Debug, Clone)]
pub struct RunRecord {
    pub algo: &'static str,
    pub makespan: u64,
    pub nsl: f64,
    pub procs_used: usize,
    pub elapsed: Duration,
}

/// Run `algo` on `g`, validate the result (a benchmark over invalid
/// schedules would be meaningless), and collect the paper's measures.
pub fn run_timed(algo: &dyn Scheduler, g: &TaskGraph, env: &Env) -> RunRecord {
    let t0 = std::time::Instant::now();
    let out = algo
        .schedule(g, env)
        .unwrap_or_else(|e| panic!("{} failed: {e}", algo.name()));
    let elapsed = t0.elapsed();
    out.validate(g).unwrap_or_else(|e| {
        panic!(
            "{} produced an invalid schedule on {}: {e}",
            algo.name(),
            g.name()
        )
    });
    // One registry touch per cell (a cell is milliseconds of work, so the
    // sharded add + histogram record are noise): the profile front door
    // reads these as the sweep-shape summary.
    global().incr(Metric::RunnerCells);
    global()
        .hist(HistId::RunnerCellUs)
        .record(elapsed.as_micros() as u64);
    RunRecord {
        algo: algo.name(),
        makespan: out.schedule.makespan(),
        nsl: measures::nsl(g, &out.schedule),
        procs_used: out.schedule.procs_used(),
        elapsed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dagsched_core::registry;
    use dagsched_suites::psg;

    #[test]
    fn record_fields_are_consistent() {
        let g = psg::classic_nine();
        let algo = registry::by_name("MCP").unwrap();
        let rec = run_timed(algo.as_ref(), &g, &Env::bnp(4));
        assert_eq!(rec.algo, "MCP");
        assert!(rec.makespan >= 12);
        assert!(rec.nsl >= 1.0);
        assert!(rec.procs_used >= 1 && rec.procs_used <= 4);
    }

    #[test]
    fn scheduling_cells_in_parallel_matches_serial_results() {
        use dagsched_core::{registry, Env};
        use dagsched_suites::rgnos::{self, RgnosParams};
        use dagsched_ws::parallel_map_with;
        let algos = registry::bnp();
        let cells: Vec<(usize, u64)> = (0..algos.len())
            .flat_map(|ai| (0..3u64).map(move |seed| (ai, seed)))
            .collect();
        let run = |(ai, seed): (usize, u64)| {
            let g = rgnos::generate(RgnosParams::new(40, 1.0, 2, seed));
            let env = Env::bnp(8);
            algos[ai].schedule(&g, &env).unwrap().schedule.makespan()
        };
        let serial = parallel_map_with(1, cells.clone(), run);
        let parallel = parallel_map_with(4, cells, run);
        assert_eq!(serial, parallel);
    }
}
