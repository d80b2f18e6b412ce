// Examples and bench binaries own their stdout (terminal reports).
#![allow(clippy::print_stdout)]
//! Records the workspace perf baseline into `BENCH_RESULTS.json`.
//!
//! Three sections, all deterministic given the seed:
//!
//! 1. **work** — the headline instances of the DSC, MD, DCP and BSA
//!    hot-path overhauls (paper-scale RGNOS, parallelism 3), each run once
//!    on the main thread. Every run must reproduce its committed
//!    [`Outcome::digest`](dagsched_core::Outcome::digest), and its
//!    `obs::registry` counter deltas are gated on logical work: DSC pops
//!    each task once (`heap.pops == v`) within [`HEAP_OPS_MAX`] heap
//!    operations per task (a scan selects with no pops); MD and DCP make
//!    one engine repair per placement within [`CONE_NODES_MAX`] cone nodes
//!    per repair (a rescan touches 2v); BSA commits at most [`MSGS_MAX`]
//!    messages per trial (a full replay recommits every cross-processor
//!    message). A branch-and-bound row solves the [`BNB`] instances: each
//!    must prove, within [`BNB_NODES_MAX`] expanded nodes in total.
//!    Single-threaded counters are identical on every host, so these gates
//!    need no core-count exemption and no retries.
//! 2. **runner_scaling** — wall-clock of the same (algorithm × graph)
//!    sweep through the work-stealing runner with 1 worker vs all cores
//!    (warmup pass, then median of 3 timed passes per leg); asserts a
//!    ≥1.5× speedup when the host has ≥4 cores (PR 6's acceptance bar —
//!    smaller hosts run the determinism check but are exempt and
//!    flagged).
//! 3. **paper_sweep_budget** — wall-clock of the full Table-6 replication
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

use dagsched_bench::report::Json;
use dagsched_core::{registry, Env};
use dagsched_optimal::{solve, OptimalParams};
use dagsched_suites::rgnos::{self, RgnosParams};
use std::time::Instant;

/// Wall-clock ceiling for the quick (CI-sized) Table-6 replication sweep.
const QUICK_SWEEP_BUDGET_S: f64 = 120.0;
/// Wall-clock ceiling for the `TASKBENCH_FULL=1` paper-scale Table-6 sweep.
const FULL_SWEEP_BUDGET_S: f64 = 900.0;

/// Ceiling on DSC's `heap.*` operations per task (5.99 at v=5000).
const HEAP_OPS_MAX: f64 = 12.0;
/// Ceiling on MD/DCP `(engine.fwd_nodes + engine.bwd_nodes) / repairs`
/// (44 and 52 at v=2000; a full rescan touches 2v = 4000 per placement).
const CONE_NODES_MAX: f64 = 100.0;
/// Ceiling on BSA's `apn.msgs_committed / bsa.trials` (427 at v=500, CCR
/// 0.1; a full replay recommits up to e = 2632 messages per trial).
const MSGS_MAX: f64 = 1000.0;

/// The `work` branch-and-bound instances, RGNOS `(v, ccr, parallelism,
/// seed, procs)`; each must prove.
const BNB: &[(usize, f64, u32, u64, usize)] = &[
    (22, 0.1, 3, 7, 4),
    (24, 1.0, 3, 42, 4),
    (14, 1.0, 4, 7, 4),
    (16, 1.0, 2, 7, 2),
];
/// Ceiling on Σ `nodes_expanded` over [`BNB`] (exactly 515,623 today).
const BNB_NODES_MAX: u64 = 515_623;

/// One `work` instance: RGNOS `(v, ccr, seed)` at parallelism 3 and the
/// committed digest of its schedule.
type WorkInstance = (usize, f64, u64, [u64; 2]);

/// The `work` instances per algorithm; BSA runs on the quick APN topology
/// (the 8-processor hypercube). The digests were generated from the
/// pre-overhaul reference schedulers, which the live ones matched.
const WORK: &[(&str, &[WorkInstance])] = &[
    (
        "DSC",
        &[
            (500, 1.0, 42, [0xf9f93f868ddd6823, 0x145879764e97f098]),
            (1000, 1.0, 42, [0xa9a6103fbe9308bb, 0x68179e96194e6905]),
            (1000, 1.0, 43, [0x73521a470ed8f028, 0x00d8bc2a6434994b]),
            (2000, 1.0, 42, [0x0db71b2e4548b2f1, 0x35641c5bc935671b]),
            (5000, 1.0, 42, [0x54643699064d2fe2, 0x96e4761e2139925c]),
            (5000, 1.0, 43, [0x3249d43d77396e0f, 0xe4d457b5d644cc7c]),
        ],
    ),
    (
        "MD",
        &[
            (1000, 1.0, 42, [0x5172631ff470f4f6, 0xfe97717fe7d785b9]),
            (2000, 1.0, 42, [0x16bf209b976e59a6, 0x49b14af2f6e02c08]),
            (2000, 1.0, 43, [0x760e87047a8edb2f, 0x60d7f3285bd93c6f]),
        ],
    ),
    (
        "DCP",
        &[
            (1000, 1.0, 42, [0x9173b36fe1ce4402, 0xf4a78658206773b9]),
            (2000, 1.0, 42, [0xc7f2a0dd95cda5b4, 0x7817f42908189f3c]),
            (2000, 1.0, 43, [0x6840135b66ef625a, 0xc296061d6691dba4]),
        ],
    ),
    (
        "BSA",
        &[
            (500, 0.1, 42, [0xbbdea3c473d9fa56, 0x7fce281a4a0cfcf7]),
            (500, 1.0, 42, [0x58e3872c82edf92f, 0x3f7a316697c6f2bf]),
            (500, 10.0, 42, [0xd603be9b99c074ae, 0x30a7dc24dbae8407]),
        ],
    ),
];

fn work_section() -> Json {
    use dagsched_obs::Metric::*;
    let reg = dagsched_obs::global();
    let apn = Env::apn(dagsched_bench::Config::quick(0x1998).apn_topology());
    let unc = Env::bnp(1); // UNC algorithms ignore the environment
    let mut summary = Vec::new();
    let mut rows = Vec::new();
    for &(name, instances) in WORK {
        let algo = registry::by_name(name).unwrap();
        let env = if name == "BSA" { &apn } else { &unc };
        for &(v, ccr, seed, digest) in instances {
            let tag = format!("{name} v={v} ccr={ccr} seed={seed}");
            let g = rgnos::generate(RgnosParams::new(v, ccr, 3, seed));
            let before = reg.snapshot();
            let out = algo.schedule(&g, env).expect("schedules");
            let d = reg.snapshot().since(&before);
            assert_eq!(out.digest(), digest, "{tag}: placement digest changed");
            let pops = d.get(HeapPops);
            let heap_ops = pops + d.get(HeapInserts) + d.get(HeapRekeys) + d.get(HeapRemoves);
            let repairs = d.get(EngineRepairs);
            let cone = d.get(EngineFwdNodes) + d.get(EngineBwdNodes);
            let (msgs, trials) = (d.get(ApnMsgsCommitted), d.get(BsaTrials));
            // Work per unit against its ceiling.
            let v64 = v as u64;
            let (key, num, den, max) = match name {
                "DSC" => ("heap_ops_per_task", heap_ops, v64, HEAP_OPS_MAX),
                "BSA" => ("msgs_per_trial", msgs, trials, MSGS_MAX),
                _ => ("cone_nodes_per_repair", cone, repairs, CONE_NODES_MAX),
            };
            let value = num as f64 / den.max(1) as f64;
            println!("work {tag}: {key} {value:.2} {:?}", d.nonzero());
            assert!(value <= max, "{tag}: {key} {value:.2} > ceiling {max}");
            // Exactly one heap pop per DSC task, one repair per MD/DCP placement.
            match name {
                "DSC" => assert_eq!(pops, v64, "{tag}: heap.pops must equal v"),
                "MD" | "DCP" => assert_eq!(repairs, v64, "{tag}: engine.repairs must equal v"),
                _ => {}
            }
            // The headline instance of each overhaul names the section's
            // summary fields (and their BENCH_HISTORY columns).
            let suffix = match (name, v, ccr, seed) {
                ("DSC", 5000, _, 42) | ("MD" | "DCP", 2000, _, 42) => Some(""),
                ("BSA", _, 0.1, _) => Some("_ccr01"),
                _ => None,
            };
            if let Some(suffix) = suffix {
                let field = format!("{}_{key}_v{v}{suffix}", name.to_lowercase());
                summary.push((field, Json::Num(value)));
            }
            let mut row = vec![
                ("algorithm", Json::str(name)),
                ("nodes", Json::Int(v as i64)),
                ("ccr", Json::Num(ccr)),
                ("seed", Json::Int(seed as i64)),
                ("makespan", Json::Int(out.schedule.makespan() as i64)),
                (key, Json::Num(value)),
            ];
            row.extend(
                d.nonzero()
                    .into_iter()
                    .map(|(k, n)| (k, Json::Int(n as i64))),
            );
            rows.push(Json::obj(row));
        }
    }
    let (mut nodes, mut pruned) = (0u64, 0u64);
    for &(v, ccr, par, seed, procs) in BNB {
        let tag = format!("B&B v={v} ccr={ccr} par={par} seed={seed} procs={procs}");
        let g = rgnos::generate(RgnosParams::new(v, ccr, par, seed));
        let params = OptimalParams {
            procs: Some(procs),
            ..OptimalParams::default()
        };
        let before = reg.snapshot();
        let r = solve(&g, &params);
        let d = reg.snapshot().since(&before);
        assert!(r.proven, "{tag}: must prove");
        println!(
            "work {tag}: nodes_expanded {} pruned {}",
            r.nodes_expanded, r.pruned
        );
        nodes += r.nodes_expanded;
        pruned += r.pruned;
        let mut row = vec![
            ("algorithm", Json::str("B&B")),
            ("nodes", Json::Int(v as i64)),
            ("ccr", Json::Num(ccr)),
            ("parallelism", Json::Int(par as i64)),
            ("seed", Json::Int(seed as i64)),
            ("procs", Json::Int(procs as i64)),
            ("makespan", Json::Int(r.length as i64)),
            ("nodes_expanded", Json::Int(r.nodes_expanded as i64)),
            ("pruned", Json::Int(r.pruned as i64)),
        ];
        row.extend(
            d.nonzero()
                .into_iter()
                .map(|(k, n)| (k, Json::Int(n as i64))),
        );
        rows.push(Json::obj(row));
    }
    println!("work B&B: {nodes} nodes expanded, {pruned} pruned");
    assert!(
        nodes <= BNB_NODES_MAX,
        "B&B: {nodes} nodes expanded > ceiling {BNB_NODES_MAX}"
    );
    summary.push(("bnb_nodes_expanded".to_string(), Json::Int(nodes as i64)));
    summary.push(("bnb_pruned".to_string(), Json::Int(pruned as i64)));
    summary.push(("instances".to_string(), Json::Arr(rows)));
    Json::Obj(summary)
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
    let work = work_section();
    let runner = runner_scaling_section();
    let sweep = paper_sweep_budget_section();
    let report = Json::obj([
        ("suite", Json::str("rgnos ccr=1.0 par=3")),
        ("work", work.clone()),
        ("runner_scaling", runner.clone()),
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
        (
            "dsc_heap_ops_per_task_v5000",
            field(&work, "dsc_heap_ops_per_task_v5000"),
        ),
        (
            "md_cone_nodes_per_repair_v2000",
            field(&work, "md_cone_nodes_per_repair_v2000"),
        ),
        (
            "dcp_cone_nodes_per_repair_v2000",
            field(&work, "dcp_cone_nodes_per_repair_v2000"),
        ),
        (
            "bsa_msgs_per_trial_v500_ccr01",
            field(&work, "bsa_msgs_per_trial_v500_ccr01"),
        ),
        ("runner_speedup", field(&runner, "speedup")),
        ("runner_workers", field(&runner, "workers")),
        ("runner_cells", field(&runner, "cells")),
        ("bnb_nodes_expanded", field(&work, "bnb_nodes_expanded")),
        ("bnb_pruned", field(&work, "bnb_pruned")),
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
