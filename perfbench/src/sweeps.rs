//! `table6_sweep` and `rgbos_quality`: the paper's Table 6 and Table 2
//! sweeps, in-process.
//!
//! Both mirror their `experiments` functions (`table6::run`, `rgbos::run`)
//! with the same public pieces — the suite generators, `registry`,
//! `Config` quick sizing, `bench::run_timed`, `optimal::solve` and
//! `ws::parallel_map`. Those functions return only rendered tables and derive
//! their graphs from a seed of their own; the benchmark needs every
//! makespan to check and digest, and keeps the seed's role to itself.
//! Each timed pass is one whole sweep on fresh graphs drawn from the seed.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use dagsched_bench::{run_timed, Config};
use dagsched_core::{registry, AlgoClass, Env, Scheduler};
use dagsched_graph::TaskGraph;
use dagsched_obs::registry::global;
use dagsched_optimal::{solve, OptimalParams};
use dagsched_serve::cache::ShardedLru;
use dagsched_serve::proto::GraphWire;
use dagsched_suites::rgbos::{self, RgbosParams};
use dagsched_suites::rgnos::{self, RgnosParams};

use crate::layers::{self, class_index, Op, Replay, CELL_PATH, RGBOS_PATH};
use crate::spans::Tracer;
use crate::stats::{fold, mix, ratio};
use crate::{repeat_setup, Budget, E2e, Opts, Report};

/// Node budget of each RGBOS cell's branch-and-bound. The quick harness
/// uses 1M; 8k keeps a grid near 160 ms on one core, so a run of
/// seconds holds the 200 latency samples its percentiles need.
pub const BNB_NODES: u64 = 8_000;
const TINY_BNB_NODES: u64 = 1_000;
/// A Table-2 grid is timed as this many batches, each holding every
/// RGBOS size once (cell (CCR i, size j) is in batch (i + j) mod 3).
const BATCHES: usize = 3;

/// The quick experiment sizing (its seed is unused: seeds come from the
/// benchmark).
fn quick() -> Config {
    Config::quick(0)
}

fn wire_of(i: u64) -> GraphWire {
    if i % 2 == 0 {
        GraphWire::Tgf
    } else {
        GraphWire::Bin
    }
}

/// The graphs of one Table-6 pass: every quick RGNOS size × (CCR,
/// parallelism) point.
pub fn table6_graphs(seed: u64, pass: u64, tiny: bool) -> Vec<TaskGraph> {
    let sizes = if tiny {
        vec![20, 40]
    } else {
        quick().rgnos_sizes()
    };
    let mut out = Vec::new();
    for (si, &v) in sizes.iter().enumerate() {
        for (pi, (ccr, par)) in quick().rgnos_points().into_iter().enumerate() {
            let s = mix(mix(seed, pass), (si * 1000 + pi) as u64);
            out.push(rgnos::generate(RgnosParams::new(v, ccr, par, s)));
        }
    }
    out
}

/// The graphs of one Table-2 pass: every RGBOS size × CCR cell.
pub fn rgbos_graphs(seed: u64, pass: u64, tiny: bool) -> Vec<TaskGraph> {
    let sizes = if tiny { vec![10, 12] } else { rgbos::sizes() };
    let mut out = Vec::new();
    for (ci, &ccr) in rgbos::CCRS.iter().enumerate() {
        for (si, &v) in sizes.iter().enumerate() {
            let seed = mix(mix(seed, pass), (ci * 100 + si) as u64);
            out.push(rgbos::generate(RgbosParams {
                nodes: v,
                ccr,
                seed,
            }));
        }
    }
    out
}

/// Table 6's machine for an algorithm class, as a platform spec:
/// `Env::parse_spec` of it is the machine `table6::run` builds.
fn platform_for(class: AlgoClass, v: usize) -> String {
    match class {
        AlgoClass::Apn => "hypercube:3".into(),
        _ => format!("bnp:{}", quick().bnp_unlimited_procs(v)),
    }
}

fn env_for(class: AlgoClass, v: usize) -> Env {
    match class {
        AlgoClass::Apn => Env::apn(quick().apn_topology()),
        _ => Env::bnp(quick().bnp_unlimited_procs(v)),
    }
}

/// One runner cell. `bench::run_timed` schedules and validates, and
/// panics when either fails; that panic is a failed output, not a crash.
fn cell(algo: &dyn Scheduler, g: &TaskGraph, env: &Env) -> Result<u64, String> {
    catch_unwind(AssertUnwindSafe(|| run_timed(algo, g, env).makespan)).map_err(|p| {
        p.downcast_ref::<String>()
            .cloned()
            .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "panicked".into())
    })
}

/// Timed Table-6 passes until the budget is spent; returns the next
/// pass number. `algo_ns` accumulates scheduler time per roster index.
fn table6_passes(
    opts: &Opts,
    first_pass: u64,
    mut graphs: Vec<TaskGraph>,
    e2e: &mut E2e,
    algo_ns: &mut [u64],
    t: &mut Tracer,
) -> u64 {
    let budget = Budget::new(opts.pass_seconds());
    let algos = registry::all();
    let mut pass = first_pass;
    loop {
        if pass != first_pass {
            graphs = table6_graphs(opts.seed, pass, opts.tiny);
        }
        let t0 = Instant::now();
        for (gi, g) in graphs.iter().enumerate() {
            for (ai, algo) in algos.iter().enumerate() {
                let id = (pass << 20) | (gi * algos.len() + ai) as u64;
                let env = env_for(algo.class(), g.num_tasks());
                e2e.attempted += 1;
                let span = t.open(id, "bench.runner.cell");
                let start = Instant::now();
                let r = cell(algo.as_ref(), g, &env);
                let dt = start.elapsed();
                t.close(span);
                match r {
                    Ok(makespan) => {
                        e2e.ok(g.num_tasks(), dt.as_secs_f64() * 1e3);
                        algo_ns[ai] += dt.as_nanos() as u64;
                        if pass == 0 {
                            e2e.digest = fold(e2e.digest, makespan);
                        }
                    }
                    Err(e) => e2e.fail(format!("{} on pass {pass} graph {gi}: {e}", algo.name())),
                }
            }
        }
        e2e.elapsed_s += t0.elapsed().as_secs_f64();
        pass += 1;
        if budget.done(e2e.elapsed_s, e2e.lat_ms.len()) {
            return pass;
        }
    }
}

pub fn run_table6(opts: &Opts) -> Result<Report, String> {
    let mut e2e = E2e::default();
    let graphs = repeat_setup(
        opts,
        &mut e2e,
        |_| Ok(table6_graphs(opts.seed, 0, opts.tiny)),
        drop,
    )?;
    let algos = registry::all();
    let mut algo_ns = vec![0u64; algos.len()];
    let epoch = Instant::now();
    let next = table6_passes(
        opts,
        0,
        graphs,
        &mut e2e,
        &mut algo_ns,
        &mut Tracer::new(epoch, false),
    );
    repeat_setup(
        opts,
        &mut e2e,
        |_| Ok(table6_graphs(opts.seed, 0, opts.tiny)),
        drop,
    )?;

    // The property that defines the workload: nearly all of its time is
    // scheduler time, split by class and dominated by a few algorithms.
    let total = algo_ns.iter().sum::<u64>() as f64;
    let mut class = [0u64; 3];
    for (a, ns) in algos.iter().zip(&algo_ns) {
        class[class_index(a.class())] += ns;
    }
    e2e.notes.push(format!(
        "scheduler time share by class: BNP {:.3} UNC {:.3} APN {:.3}; of wall time {:.3}",
        ratio(class[0] as f64, total),
        ratio(class[1] as f64, total),
        ratio(class[2] as f64, total),
        ratio(total / 1e9, e2e.elapsed_s)
    ));
    let mut top: Vec<(&str, u64)> = algos
        .iter()
        .map(|a| a.name())
        .zip(algo_ns.iter().copied())
        .collect();
    top.sort_by_key(|&(_, ns)| std::cmp::Reverse(ns));
    let top: Vec<String> = top
        .iter()
        .take(3)
        .map(|(n, ns)| format!("{n} {:.3}", ratio(*ns as f64, total)))
        .collect();
    e2e.notes
        .push(format!("largest scheduler time shares: {}", top.join(", ")));

    let mut report = Report::new(e2e);
    if opts.trace {
        let mut traced = E2e::default();
        let mut spans = Tracer::new(epoch, true);
        let fresh = table6_graphs(opts.seed, next, opts.tiny);
        table6_passes(
            opts,
            next,
            fresh,
            &mut traced,
            &mut vec![0; algos.len()],
            &mut spans,
        );

        let graphs = table6_graphs(opts.seed, 0, opts.tiny);
        let mut ops = Vec::new();
        for g in &graphs {
            for a in &algos {
                let id = ops.len() as u64;
                ops.push(Op {
                    id,
                    graph: g,
                    wire: wire_of(id),
                    algo: a.name(),
                    platform: platform_for(a.class(), g.num_tasks()),
                });
            }
        }
        let mut rp = Replay::new(epoch);
        let before = global().snapshot();
        rp.requests(&ops, &ShardedLru::new(ops.len()));
        let delta = global().snapshot().since(&before);
        rp.bnb_probe(opts.seed);
        rp.queue_probe(opts.seed);
        layers::finish(opts, &mut report, traced, rp, spans, delta, &CELL_PATH);
    }
    Ok(report)
}

/// What one Table-2 cell produced.
struct CellOut {
    lat_ms: f64,
    bnb_ns: u64,
    length: u64,
    proven: bool,
    makespans: Vec<u64>,
    err: Option<String>,
    tracer: Tracer,
}

/// One Table-2 cell: a serial branch-and-bound optimum, then every UNC
/// algorithm through the runner. The optimum's schedule must be valid
/// and as long as the length reported, and no UNC makespan may beat it.
/// (The search starts from the UNC algorithms' own schedules on the same
/// machine, so the last check holds by construction; the first two are
/// the ones that test `optimal::bnb`.)
fn rgbos_cell(g: &TaskGraph, nodes: u64, id: u64, mut t: Tracer) -> CellOut {
    let start = Instant::now();
    let root = t.open(id, "bench.rgbos.cell");
    let s = t.open(id, "optimal.bnb");
    let b0 = Instant::now();
    let opt = solve(
        g,
        &OptimalParams {
            procs: None,
            node_limit: nodes,
            heuristic_incumbent: true,
            threads: Some(1),
        },
    );
    let bnb_ns = b0.elapsed().as_nanos() as u64;
    t.close(s);
    let mut err = match opt.schedule.validate(g) {
        Err(e) => Some(format!("branch-and-bound schedule is invalid: {e}")),
        Ok(()) if opt.schedule.makespan() != opt.length => Some(format!(
            "branch-and-bound reports length {} for a schedule of makespan {}",
            opt.length,
            opt.schedule.makespan()
        )),
        Ok(()) => None,
    };
    let env = Env::bnp(quick().bnp_unlimited_procs(g.num_tasks()));
    let mut makespans = Vec::new();
    for algo in registry::unc() {
        let s = t.open(id, "bench.runner.cell");
        let r = cell(algo.as_ref(), g, &env);
        t.close(s);
        match r {
            Ok(m) if m >= opt.length => makespans.push(m),
            Ok(m) => {
                err = Some(format!(
                    "{} makespan {m} beats the branch-and-bound optimum {} on {} tasks",
                    algo.name(),
                    opt.length,
                    g.num_tasks()
                ))
            }
            Err(e) => err = Some(format!("{}: {e}", algo.name())),
        }
    }
    t.close(root);
    CellOut {
        lat_ms: start.elapsed().as_secs_f64() * 1e3,
        bnb_ns,
        length: opt.length,
        proven: opt.proven,
        makespans,
        err,
        tracer: t,
    }
}

#[derive(Default)]
struct RgbosAcc {
    bnb_ns: u64,
    cell_ns: u64,
    proven: u64,
    cells: u64,
}

fn bnb_nodes(opts: &Opts) -> u64 {
    if opts.tiny {
        TINY_BNB_NODES
    } else {
        BNB_NODES
    }
}

/// Timed Table-2 passes until the budget is spent; returns the next pass
/// number. Cells run one after another: fanned across two workers on a
/// shared two-vCPU host, grid times swung ±16% with the host's steal
/// time, against ±6% serially. Throughput counts cells; a latency sample
/// is one batch of the grid ([`BATCHES`]). Single cells are bimodal
/// (proven vs budget-bound), so their p50 jumps between the modes; a
/// batch holding every size once averages them.
fn rgbos_passes(
    opts: &Opts,
    first_pass: u64,
    mut graphs: Vec<TaskGraph>,
    e2e: &mut E2e,
    acc: &mut RgbosAcc,
    t: &mut Tracer,
) -> u64 {
    let budget = Budget::new(opts.pass_seconds());
    let nodes = bnb_nodes(opts);
    let mut pass = first_pass;
    loop {
        if pass != first_pass {
            graphs = rgbos_graphs(opts.seed, pass, opts.tiny);
        }
        let sizes = graphs.len() / rgbos::CCRS.len();
        let mut outs: Vec<Option<CellOut>> = graphs.iter().map(|_| None).collect();
        for batch in 0..BATCHES {
            let t0 = Instant::now();
            for (ci, g) in graphs.iter().enumerate() {
                if (ci / sizes + ci % sizes) % BATCHES == batch {
                    let id = (pass << 20) | ci as u64;
                    outs[ci] = Some(rgbos_cell(g, nodes, id, t.child()));
                }
            }
            let batch_s = t0.elapsed().as_secs_f64();
            e2e.elapsed_s += batch_s;
            e2e.lat_ms.push(batch_s * 1e3);
        }
        for (o, g) in outs.into_iter().zip(&graphs) {
            let o = o.expect("every cell is in a batch");
            e2e.attempted += 1;
            acc.bnb_ns += o.bnb_ns;
            acc.cell_ns += (o.lat_ms * 1e6) as u64;
            acc.proven += u64::from(o.proven);
            acc.cells += 1;
            t.absorb(o.tracer);
            match o.err {
                Some(e) => e2e.fail(format!("pass {pass}: {e}")),
                None => {
                    e2e.ops += 1;
                    e2e.tasks += g.num_tasks() as u64;
                    if pass == 0 {
                        let d = fold(e2e.digest, o.length);
                        e2e.digest = o.makespans.iter().fold(d, |d, &m| fold(d, m));
                    }
                }
            }
        }
        pass += 1;
        if budget.done(e2e.elapsed_s, e2e.lat_ms.len()) {
            return pass;
        }
    }
}

pub fn run_rgbos(opts: &Opts) -> Result<Report, String> {
    let mut e2e = E2e::default();
    let graphs = repeat_setup(
        opts,
        &mut e2e,
        |_| Ok(rgbos_graphs(opts.seed, 0, opts.tiny)),
        drop,
    )?;
    let epoch = Instant::now();
    let mut acc = RgbosAcc::default();
    let next = rgbos_passes(
        opts,
        0,
        graphs,
        &mut e2e,
        &mut acc,
        &mut Tracer::new(epoch, false),
    );
    repeat_setup(
        opts,
        &mut e2e,
        |_| Ok(rgbos_graphs(opts.seed, 0, opts.tiny)),
        drop,
    )?;
    // The property that defines the workload: most cell time is spent
    // inside optimal::bnb.
    e2e.notes.push(format!(
        "share of cell time inside optimal::bnb: {:.3}; proven optimum in {:.3} of {} cells",
        ratio(acc.bnb_ns as f64, acc.cell_ns as f64),
        ratio(acc.proven as f64, acc.cells as f64),
        acc.cells
    ));

    let mut report = Report::new(e2e);
    if opts.trace {
        let mut traced = E2e::default();
        let mut spans = Tracer::new(epoch, true);
        let fresh = rgbos_graphs(opts.seed, next, opts.tiny);
        rgbos_passes(
            opts,
            next,
            fresh,
            &mut traced,
            &mut RgbosAcc::default(),
            &mut spans,
        );

        // The `ws` layer: one grid fanned across every worker, with the
        // registry delta around it; its cells are checked like the rest.
        let graphs = rgbos_graphs(opts.seed, 0, opts.tiny);
        let before = global().snapshot();
        let fanned = dagsched_ws::parallel_map(graphs.iter().enumerate().collect(), |(ci, g)| {
            rgbos_cell(g, bnb_nodes(opts), ci as u64, Tracer::new(epoch, false)).err
        });
        let ws = global().snapshot().since(&before);
        for (ci, err) in fanned.into_iter().enumerate() {
            traced.attempted += 1;
            if let Some(e) = err {
                traced.fail(format!("fanned cell {ci}: {e}"));
            }
        }

        let unc = registry::unc();
        let mut rp = Replay::new(epoch);
        let mut ops = Vec::new();
        for (ci, g) in graphs.iter().enumerate() {
            let id = ci as u64;
            rp.bnb(
                id,
                g,
                &OptimalParams {
                    procs: None,
                    node_limit: bnb_nodes(opts),
                    heuristic_incumbent: true,
                    threads: Some(1),
                },
            );
            for (ai, a) in unc.iter().enumerate() {
                ops.push(Op {
                    id,
                    graph: g,
                    wire: wire_of((ci + ai) as u64),
                    algo: a.name(),
                    platform: platform_for(a.class(), g.num_tasks()),
                });
            }
        }
        let before = global().snapshot();
        rp.requests(&ops, &ShardedLru::new(ops.len()));
        let delta = global().snapshot().since(&before);
        rp.roster_probe(&graphs[0]);
        rp.queue_probe(opts.seed);
        rp.ws = Some(ws);
        layers::finish(opts, &mut report, traced, rp, spans, delta, &RGBOS_PATH);
    }
    Ok(report)
}
