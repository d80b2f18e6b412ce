// Examples and bench binaries own their stdout (terminal reports).
#![allow(clippy::print_stdout)]
//! Records the workspace perf baseline into `BENCH_RESULTS.json`.
//!
//! Seven sections, all deterministic given the seed:
//!
//! 1. **dsc_speedup** — the refactored DSC against the retained
//!    pre-refactor implementation ([`dagsched_bench::baseline`]) on
//!    1000-node CCR=1.0 RGNOS graphs; asserts byte-identical placements
//!    and a ≥5× speedup (PR 1's acceptance bar).
//! 2. **dsc_incremental_speedup** — the indexed-heap DSC engine against
//!    the retained scan version
//!    ([`dagsched_bench::baseline::DscScanBaseline`]: clone-free DSRW but
//!    O(v + e) partially-free rescans per step) on paper-scale 5000-node
//!    RGNOS graphs; asserts placement-identical schedules and a ≥2×
//!    speedup on the headline v=5000 instance (PR 4's acceptance bar).
//! 3. **md_incremental_speedup** / **dcp_incremental_speedup** — the
//!    [`DynLevelsEngine`](dagsched_core::common::DynLevelsEngine)-driven
//!    MD and DCP against the retained per-placement-rescan versions
//!    ([`dagsched_bench::baseline::MdScan`] /
//!    [`dagsched_bench::baseline::DcpScan`]) on paper-scale 2000-node
//!    RGNOS graphs; asserts placement-identical schedules and a ≥3×
//!    speedup on each headline v=2000 instance (PR 5's acceptance bar).
//! 4. **bsa_speedup** — the journal-driven incremental BSA against the
//!    retained replay-per-candidate baseline over the old message layer
//!    ([`dagsched_bench::baseline::BsaBaseline`]) on the paper-scale APN
//!    instance (500-node RGNOS on the 8-processor hypercube, §6.4);
//!    asserts placement- and message-identical schedules and a ≥5×
//!    speedup on the headline CCR=0.1 instance (PR 3's acceptance bar),
//!    with CCR 1.0 and 10.0 rows recorded alongside.
//! 5. **runner_scaling** — wall-clock of the same (algorithm × graph)
//!    sweep through the work-stealing runner with 1 worker vs all cores
//!    (warmup pass, then median of 3 timed passes per leg); asserts a
//!    ≥1.5× speedup when the host has ≥4 cores (PR 6's acceptance bar —
//!    smaller hosts run the determinism check but are exempt and
//!    flagged).
//! 6. **bnb_parallel_speedup** — the parallel branch-and-bound against
//!    its own serial path on proving RGNOS instances (same warmup +
//!    median-of-3 protocol); asserts makespan equality and both sides
//!    proven, records the serial node/prune counters, and gates ≥1.5×
//!    on ≥4 workers (serial fallback exempt; PR 6's second bar).
//! 7. **paper_sweep_budget** — wall-clock of the full Table-6 replication
//!    (all fifteen algorithms, serial, honest per-run timings) under an
//!    asserted ceiling: the quick CI-sized sweep must stay under
//!    [`QUICK_SWEEP_BUDGET_S`], and with `TASKBENCH_FULL=1` the
//!    paper-scale sweep (10 sizes × 25 (CCR, parallelism) points) must
//!    stay under [`FULL_SWEEP_BUDGET_S`] — the regression tripwire that
//!    keeps the whole replication runnable.
//!
//! Per-algorithm running times and the served path are measured by the
//! `perfbench` benchmark (`core.<ALGO>.ns_per_task`, `serve_*`), not here.
//!
//! Output path: `TASKBENCH_BENCH_OUT` or `<workspace>/BENCH_RESULTS.json`.
//! Additionally, one summary record per run is *appended* to
//! `BENCH_HISTORY.jsonl` (override with `TASKBENCH_BENCH_HISTORY`), keyed
//! by git SHA and UTC date, so the perf trajectory across PRs survives the
//! overwrite of the full report. Run with `--release`; debug timings are
//! not comparable.

use dagsched_bench::baseline::{BsaBaseline, DcpScan, DscBaseline, DscScanBaseline, MdScan};
use dagsched_bench::report::Json;
use dagsched_core::{registry, Env, Scheduler};
use dagsched_optimal::{solve, OptimalParams};
use dagsched_suites::rgnos::{self, RgnosParams};
use std::time::Instant;

/// Wall-clock ceiling for the quick (CI-sized) Table-6 replication sweep.
const QUICK_SWEEP_BUDGET_S: f64 = 120.0;
/// Wall-clock ceiling for the `TASKBENCH_FULL=1` paper-scale Table-6 sweep.
const FULL_SWEEP_BUDGET_S: f64 = 900.0;

/// Best-of-`reps` wall time of `algo`, with the outcome of the last rep
/// (so equivalence checks can reuse a timed run instead of paying an
/// extra one).
fn time_schedule(
    reps: usize,
    algo: &dyn Scheduler,
    g: &dagsched_graph::TaskGraph,
    env: &Env,
) -> (f64, dagsched_core::Outcome) {
    let mut best = f64::INFINITY;
    let mut outcome = None;
    for _ in 0..reps {
        let t0 = Instant::now();
        let out = algo.schedule(g, env).expect("schedules");
        best = best.min(t0.elapsed().as_secs_f64());
        outcome = Some(out);
    }
    (best, outcome.expect("reps >= 1"))
}

fn dsc_speedup_section() -> Json {
    let dsc = registry::by_name("DSC").unwrap();
    let env = Env::bnp(1); // UNC algorithms ignore the environment
    let mut rows = Vec::new();
    let mut headline = 0.0;
    for &(v, seed) in &[(500usize, 42u64), (1000, 42), (1000, 43)] {
        let g = rgnos::generate(RgnosParams::new(v, 1.0, 3, seed));
        let reps = 3;
        let (base_s, base_out) = time_schedule(reps, &DscBaseline, &g, &env);
        let (new_s, new_out) = time_schedule(reps, dsc.as_ref(), &g, &env);
        let (base_m, new_m) = (base_out.schedule.makespan(), new_out.schedule.makespan());
        assert_eq!(
            base_m, new_m,
            "refactored DSC changed the makespan on v={v} seed={seed}"
        );
        let speedup = base_s / new_s;
        if v == 1000 && seed == 42 {
            headline = speedup;
        }
        println!(
            "DSC v={v} seed={seed}: baseline {base_s:.4}s vs refactored {new_s:.4}s \
             → {speedup:.1}x (makespan {new_m})"
        );
        rows.push(Json::obj([
            ("nodes", Json::Int(v as i64)),
            ("ccr", Json::Num(1.0)),
            ("seed", Json::Int(seed as i64)),
            ("baseline_s", Json::Num(base_s)),
            ("refactored_s", Json::Num(new_s)),
            ("speedup", Json::Num(speedup)),
            ("makespan", Json::Int(new_m as i64)),
        ]));
    }
    assert!(
        headline >= 5.0,
        "acceptance bar: DSC must be ≥5x faster on the 1000-node CCR=1.0 instance, got {headline:.1}x"
    );
    Json::obj([
        ("headline_speedup_v1000", Json::Num(headline)),
        ("instances", Json::Arr(rows)),
    ])
}

/// Shared driver for the incremental-vs-rescan speedup sections (DSC's
/// heap engine, MD/DCP's dynamic-levels engine): time the engine-driven
/// scheduler against its retained rescan baseline, assert
/// placement-identical schedules (reusing the timed outcomes — no extra
/// runs), and gate the speedup on the `(headline_v, 42)` instance.
fn incremental_speedup_section(
    name: &str,
    scan: &dyn Scheduler,
    instances: &[(usize, u64)],
    headline_v: usize,
    bar: f64,
) -> Json {
    let algo = registry::by_name(name).unwrap();
    let env = Env::bnp(1); // UNC algorithms ignore the environment
    let mut rows = Vec::new();
    let mut headline = 0.0;
    for &(v, seed) in instances {
        let g = rgnos::generate(RgnosParams::new(v, 1.0, 3, seed));
        let reps = 3;
        let (base_s, base_out) = time_schedule(reps, scan, &g, &env);
        let (new_s, new_out) = time_schedule(reps, algo.as_ref(), &g, &env);
        // Placement-identical schedules, not just equal makespans.
        for n in g.tasks() {
            assert_eq!(
                base_out.schedule.placement(n),
                new_out.schedule.placement(n),
                "incremental {name} placement diverged on v={v} seed={seed} task {n}"
            );
        }
        let makespan = new_out.schedule.makespan();
        let speedup = base_s / new_s;
        if v == headline_v && seed == 42 {
            headline = speedup;
        }
        println!(
            "{name}-incremental v={v} seed={seed}: rescan {base_s:.4}s vs engine {new_s:.4}s \
             → {speedup:.1}x (makespan {makespan})"
        );
        rows.push(Json::obj([
            ("nodes", Json::Int(v as i64)),
            ("ccr", Json::Num(1.0)),
            ("seed", Json::Int(seed as i64)),
            ("rescan_s", Json::Num(base_s)),
            ("incremental_s", Json::Num(new_s)),
            ("speedup", Json::Num(speedup)),
            ("makespan", Json::Int(makespan as i64)),
        ]));
    }
    assert!(
        headline >= bar,
        "acceptance bar: incremental {name} must be ≥{bar}x faster than the \
         retained rescan baseline on the {headline_v}-node RGNOS instance, \
         got {headline:.1}x"
    );
    Json::Obj(vec![
        (
            format!("headline_speedup_v{headline_v}"),
            Json::Num(headline),
        ),
        ("instances".to_string(), Json::Arr(rows)),
    ])
}

fn bsa_speedup_section() -> Json {
    let bsa = registry::by_name("BSA").unwrap();
    let topo = dagsched_bench::Config::quick(0x1998).apn_topology();
    let env = Env::apn(topo);
    let mut rows = Vec::new();
    let mut headline = 0.0;
    for &ccr in &[0.1f64, 1.0, 10.0] {
        let g = rgnos::generate(RgnosParams::new(500, ccr, 3, 42));
        let reps = 3;
        let (base_s, a) = time_schedule(reps, &BsaBaseline, &g, &env);
        let (new_s, b) = time_schedule(reps, bsa.as_ref(), &g, &env);
        let new_m = b.schedule.makespan();
        // Byte-identical schedules: placements AND committed messages
        // (reusing the timed outcomes — no extra runs).
        for n in g.tasks() {
            assert_eq!(
                a.schedule.placement(n),
                b.schedule.placement(n),
                "BSA placement diverged on ccr={ccr} task {n}"
            );
        }
        let msgs = |o: &dagsched_core::Outcome| {
            let mut m: Vec<_> = o.network.as_ref().unwrap().messages().cloned().collect();
            m.sort_by_key(|m| (m.src_task, m.dst_task));
            m
        };
        assert_eq!(msgs(&a), msgs(&b), "BSA messages diverged on ccr={ccr}");
        let speedup = base_s / new_s;
        if ccr == 0.1 {
            headline = speedup;
        }
        println!(
            "BSA v=500 ccr={ccr}: baseline {base_s:.4}s vs incremental {new_s:.4}s \
             → {speedup:.1}x (makespan {new_m})"
        );
        rows.push(Json::obj([
            ("nodes", Json::Int(500)),
            ("ccr", Json::Num(ccr)),
            ("seed", Json::Int(42)),
            ("baseline_s", Json::Num(base_s)),
            ("incremental_s", Json::Num(new_s)),
            ("speedup", Json::Num(speedup)),
            ("makespan", Json::Int(new_m as i64)),
        ]));
    }
    assert!(
        headline >= 5.0,
        "acceptance bar: BSA must be ≥5x faster on the 500-node CCR=0.1 APN instance, got {headline:.1}x"
    );
    Json::obj([
        ("headline_speedup_v500_ccr01", Json::Num(headline)),
        ("instances", Json::Arr(rows)),
    ])
}

/// Median wall time of three timed passes of `f`, after one untimed
/// warmup pass (page-faults, branch predictors and allocator pools paid
/// for up front — the median then resists one-off scheduling noise that
/// best-of-N would hide and mean-of-N would absorb).
fn median_of_3<R>(mut f: impl FnMut() -> R) -> (f64, R) {
    let mut out = f(); // warmup
    let mut times = [0.0f64; 3];
    for t in &mut times {
        let t0 = Instant::now();
        out = f();
        *t = t0.elapsed().as_secs_f64();
    }
    times.sort_by(f64::total_cmp);
    (times[1], out)
}

fn runner_scaling_section() -> Json {
    // A fixed sweep of quality cells: (BNP ∪ UNC algorithms) × 8 RGNOS
    // graphs at v=300. Per-cell work is identical in both runs; only the
    // worker count changes.
    let algos: Vec<_> = registry::bnp().into_iter().chain(registry::unc()).collect();
    let graphs: Vec<_> = (0..8u64)
        .map(|s| rgnos::generate(RgnosParams::new(300, 1.0, 3, 100 + s)))
        .collect();
    let cells: Vec<(usize, usize)> = (0..algos.len())
        .flat_map(|ai| (0..graphs.len()).map(move |gi| (ai, gi)))
        .collect();
    let run_cell = |(ai, gi): (usize, usize)| {
        let env = Env::bnp(32);
        algos[ai]
            .schedule(&graphs[gi], &env)
            .unwrap()
            .schedule
            .makespan()
    };

    let (serial_s, serial) =
        median_of_3(|| dagsched_ws::parallel_map_with(1, cells.clone(), run_cell));
    // On a small host a timing comparison is meaningless (too few cores to
    // clear the bar); still run the sweep on ≥2 workers so the threaded
    // path's determinism is exercised, but flag the numbers.
    let cores = dagsched_ws::worker_count();
    let workers = cores.max(2);
    let (parallel_s, parallel) =
        median_of_3(|| dagsched_ws::parallel_map_with(workers, cells.clone(), run_cell));
    assert_eq!(serial, parallel, "parallel runner changed results");
    let speedup = serial_s / parallel_s;
    let meaningful = cores >= 4;
    println!(
        "runner: {} cells, serial {serial_s:.3}s vs {workers} workers {parallel_s:.3}s \
         → {speedup:.1}x (median of 3 after warmup){}",
        cells.len(),
        if meaningful {
            ""
        } else {
            " — <4 cores: determinism check only, speedup bar exempt"
        }
    );
    if meaningful {
        assert!(
            speedup >= 1.5,
            "acceptance bar: the work-stealing runner must be ≥1.5x faster than \
             1 worker on a ≥4-core host, got {speedup:.1}x on {workers} workers"
        );
    }
    Json::obj([
        ("cells", Json::Int(cells.len() as i64)),
        ("host_cores", Json::Int(cores as i64)),
        ("workers", Json::Int(workers as i64)),
        ("serial_s", Json::Num(serial_s)),
        ("parallel_s", Json::Num(parallel_s)),
        ("speedup", Json::Num(speedup)),
        ("speedup_meaningful", Json::Bool(meaningful)),
    ])
}

fn bnb_parallel_speedup_section() -> Json {
    // Instances curated to *prove* within the node budget on both paths —
    // a capped search's wall time measures the cap, not the search. Serial
    // counters are recorded (they are deterministic; parallel counts vary
    // with steal timing and per-worker duplicate detection).
    let sweep: &[(usize, f64, u32, u64, usize)] = &[
        (22, 0.1, 3, 7, 4),
        (24, 1.0, 3, 42, 4),
        (14, 1.0, 4, 7, 4),
        (16, 1.0, 2, 7, 2),
    ];
    let cores = dagsched_ws::worker_count();
    let workers = cores.max(2);
    let meaningful = cores >= 4;
    let mut rows = Vec::new();
    let mut total_serial = 0.0f64;
    let mut total_parallel = 0.0f64;
    let mut total_nodes = 0u64;
    let mut total_pruned = 0u64;
    for &(v, ccr, gpar, seed, procs) in sweep {
        let g = rgnos::generate(RgnosParams::new(v, ccr, gpar, seed));
        let params = |threads: usize| OptimalParams {
            procs: Some(procs),
            node_limit: 4_000_000,
            heuristic_incumbent: true,
            threads: Some(threads),
        };
        let (serial_s, serial) = median_of_3(|| solve(&g, &params(1)));
        let (parallel_s, parallel) = median_of_3(|| solve(&g, &params(workers)));
        assert!(
            serial.proven && parallel.proven,
            "sweep instance must prove"
        );
        assert_eq!(
            serial.length, parallel.length,
            "parallel B&B optimum diverged on v={v} ccr={ccr} seed={seed}"
        );
        let speedup = serial_s / parallel_s;
        total_serial += serial_s;
        total_parallel += parallel_s;
        total_nodes += serial.nodes_expanded;
        total_pruned += serial.pruned;
        println!(
            "bnb v={v} ccr={ccr} seed={seed} procs={procs}: serial {serial_s:.4}s \
             ({} nodes) vs {workers} workers {parallel_s:.4}s → {speedup:.1}x",
            serial.nodes_expanded
        );
        rows.push(Json::obj([
            ("nodes", Json::Int(v as i64)),
            ("ccr", Json::Num(ccr)),
            ("seed", Json::Int(seed as i64)),
            ("procs", Json::Int(procs as i64)),
            ("serial_s", Json::Num(serial_s)),
            ("parallel_s", Json::Num(parallel_s)),
            ("speedup", Json::Num(speedup)),
            ("length", Json::Int(serial.length as i64)),
            ("nodes_expanded", Json::Int(serial.nodes_expanded as i64)),
            ("pruned", Json::Int(serial.pruned as i64)),
        ]));
    }
    let speedup = total_serial / total_parallel;
    println!(
        "bnb sweep total: serial {total_serial:.3}s vs {workers} workers \
         {total_parallel:.3}s → {speedup:.1}x{}",
        if meaningful {
            ""
        } else {
            " — <4 cores: equivalence check only, speedup bar exempt"
        }
    );
    if meaningful {
        assert!(
            speedup >= 1.5,
            "acceptance bar: parallel branch-and-bound must be ≥1.5x faster than \
             its serial path on a ≥4-core host, got {speedup:.1}x on {workers} workers"
        );
    }
    Json::obj([
        ("host_cores", Json::Int(cores as i64)),
        ("workers", Json::Int(workers as i64)),
        ("serial_s", Json::Num(total_serial)),
        ("parallel_s", Json::Num(total_parallel)),
        ("speedup", Json::Num(speedup)),
        ("speedup_meaningful", Json::Bool(meaningful)),
        ("nodes_expanded", Json::Int(total_nodes as i64)),
        ("pruned", Json::Int(total_pruned as i64)),
        ("instances", Json::Arr(rows)),
    ])
}

fn paper_sweep_budget_section() -> Json {
    let cfg = dagsched_bench::Config::from_env();
    let budget = if cfg.full {
        FULL_SWEEP_BUDGET_S
    } else {
        QUICK_SWEEP_BUDGET_S
    };
    let t0 = Instant::now();
    let tables = dagsched_bench::experiments::table6::run(&cfg);
    let elapsed = t0.elapsed().as_secs_f64();
    assert_eq!(tables.len(), 1, "Table 6 renders as one table");
    println!(
        "paper sweep (Table 6, full={}): {elapsed:.1}s (budget {budget:.0}s)",
        cfg.full
    );
    assert!(
        elapsed <= budget,
        "Table-6 replication blew its wall-clock budget: {elapsed:.1}s > {budget:.0}s \
         (full={}) — a per-evaluation cost regression somewhere in the roster",
        cfg.full
    );
    Json::obj([
        ("full", Json::Bool(cfg.full)),
        ("elapsed_s", Json::Num(elapsed)),
        ("budget_s", Json::Num(budget)),
    ])
}

/// The current git commit (short SHA), or `"unknown"` outside a checkout.
fn git_sha() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Today's UTC date as `YYYY-MM-DD` (civil-from-days, no external deps).
fn utc_date() -> String {
    let secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .expect("clock after 1970")
        .as_secs();
    let days = (secs / 86_400) as i64;
    // Howard Hinnant's civil_from_days.
    let z = days + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    let y = if m <= 2 { y + 1 } else { y };
    format!("{y:04}-{m:02}-{d:02}")
}

/// Pull a numeric field out of a `Json::Obj` by key.
fn field(j: &Json, key: &str) -> Json {
    match j {
        Json::Obj(fields) => fields
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.clone())
            .expect("field present"),
        _ => panic!("not an object"),
    }
}

fn main() {
    let dsc = dsc_speedup_section();
    let dsc_inc = incremental_speedup_section(
        "DSC",
        &DscScanBaseline,
        &[(2000, 42), (5000, 42), (5000, 43)],
        5000,
        2.0,
    );
    let md_inc = incremental_speedup_section(
        "MD",
        &MdScan,
        &[(1000, 42), (2000, 42), (2000, 43)],
        2000,
        3.0,
    );
    let dcp_inc = incremental_speedup_section(
        "DCP",
        &DcpScan,
        &[(1000, 42), (2000, 42), (2000, 43)],
        2000,
        3.0,
    );
    let bsa = bsa_speedup_section();
    let runner = runner_scaling_section();
    let bnb = bnb_parallel_speedup_section();
    let sweep = paper_sweep_budget_section();
    let report = Json::obj([
        ("suite", Json::str("rgnos ccr=1.0 par=3")),
        ("dsc_speedup", dsc.clone()),
        ("dsc_incremental_speedup", dsc_inc.clone()),
        ("md_incremental_speedup", md_inc.clone()),
        ("dcp_incremental_speedup", dcp_inc.clone()),
        ("bsa_speedup", bsa.clone()),
        ("runner_scaling", runner.clone()),
        ("bnb_parallel_speedup", bnb.clone()),
        ("paper_sweep_budget", sweep.clone()),
    ]);
    let path = dagsched_bench::config::bench_out().unwrap_or_else(|| {
        format!("{}/../../BENCH_RESULTS.json", env!("CARGO_MANIFEST_DIR")).into()
    });
    let path = path.display().to_string();
    std::fs::write(&path, report.pretty()).expect("write BENCH_RESULTS.json");
    println!("wrote {path}");

    // Append the run's headline numbers to the trend file: one JSONL record
    // per run, keyed by commit and date, never overwritten.
    let record = Json::obj([
        ("sha", Json::str(git_sha())),
        ("date", Json::str(utc_date())),
        ("dsc_speedup_v1000", field(&dsc, "headline_speedup_v1000")),
        (
            "dsc_incremental_speedup_v5000",
            field(&dsc_inc, "headline_speedup_v5000"),
        ),
        (
            "md_incremental_speedup_v2000",
            field(&md_inc, "headline_speedup_v2000"),
        ),
        (
            "dcp_incremental_speedup_v2000",
            field(&dcp_inc, "headline_speedup_v2000"),
        ),
        (
            "bsa_speedup_v500_ccr01",
            field(&bsa, "headline_speedup_v500_ccr01"),
        ),
        ("runner_speedup", field(&runner, "speedup")),
        ("runner_workers", field(&runner, "workers")),
        ("runner_cells", field(&runner, "cells")),
        ("bnb_parallel_speedup", field(&bnb, "speedup")),
        ("bnb_nodes_expanded", field(&bnb, "nodes_expanded")),
        ("bnb_pruned", field(&bnb, "pruned")),
        ("paper_sweep_full", field(&sweep, "full")),
        ("paper_sweep_s", field(&sweep, "elapsed_s")),
    ]);
    let history = dagsched_bench::config::bench_history().unwrap_or_else(|| {
        format!("{}/../../BENCH_HISTORY.jsonl", env!("CARGO_MANIFEST_DIR")).into()
    });
    let history = history.display().to_string();
    use std::io::Write as _;
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&history)
        .expect("open BENCH_HISTORY.jsonl");
    writeln!(f, "{}", record.compact()).expect("append BENCH_HISTORY.jsonl");
    println!("appended {history}");
}
