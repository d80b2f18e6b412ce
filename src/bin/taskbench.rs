//! `taskbench` — command-line front end.
//!
//! ```text
//! taskbench gen  <family> [args…]        generate a graph, print TGF
//! taskbench run  <ALGO> <file.tgf> [-p N] [--topology T] [--gantt]
//! taskbench trace <ALGO> <file.tgf> [-p N] [--topology T]
//! taskbench profile <ALGO> <file.tgf> [-p N] [--topology T] [--reps N]
//! taskbench adversary <TARGET> <BASELINE|optimal> [flags]
//! taskbench info <file.tgf>              structural statistics
//! taskbench dot  <file.tgf>              Graphviz export
//! taskbench list                         the fifteen algorithms
//! taskbench serve [--addr H:P]           scheduling-as-a-service daemon
//! taskbench loadgen --addr H:P [flags]   replay a suite against a daemon
//! ```
//!
//! Families for `gen`: `rgbos v ccr seed`, `rgnos v ccr par seed`,
//! `rgpos v ccr seed`, `cholesky n ccr`, `gauss n ccr`, `fft m ccr`,
//! `psg idx`. Topologies: `full:N`, `ring:N`, `chain:N`, `star:N`,
//! `mesh:RxC`, `torus:RxC`, `hypercube:D`.
//!
//! **Output discipline:** stdout carries exactly one artifact per
//! invocation (a TGF file, a trace JSON, a table…); everything else —
//! progress notes, derived facts, warnings — goes to stderr through one
//! leveled path. `-q`/`--quiet` silences the notes, `-v`/`--verbose`
//! adds diagnostics; neither touches stdout, so shell pipelines and CI
//! byte-diffs see the same artifact at every level.

use std::process::ExitCode;
use std::sync::atomic::{AtomicI8, Ordering};

use taskbench::prelude::*;
use taskbench::suites::{psg, rgbos, rgnos, rgpos, traced};

/// −1 = quiet, 0 = normal, 1 = verbose. Set once at startup from the
/// global flags; read by [`note`]/[`verbose`].
static VERBOSITY: AtomicI8 = AtomicI8::new(0);

/// Progress/side-fact channel (stderr). Suppressed by `-q`.
fn note(text: &str) {
    // relaxed-ok: verbosity is written once in main before any reader
    // runs; the atomic exists only to satisfy static-mut rules.
    if VERBOSITY.load(Ordering::Relaxed) >= 0 {
        eprintln!("{text}");
    }
}

/// Diagnostic channel (stderr). Printed only with `-v`.
fn verbose(text: &str) {
    // relaxed-ok: same write-once-at-startup contract as note().
    if VERBOSITY.load(Ordering::Relaxed) >= 1 {
        eprintln!("{text}");
    }
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    // Global flags may appear anywhere; strip them before dispatch.
    args.retain(|a| match a.as_str() {
        "-q" | "--quiet" => {
            // relaxed-ok: single-threaded startup, before any reader.
            VERBOSITY.store(-1, Ordering::Relaxed);
            false
        }
        "-v" | "--verbose" => {
            // relaxed-ok: single-threaded startup, before any reader.
            VERBOSITY.store(1, Ordering::Relaxed);
            false
        }
        _ => true,
    });
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("taskbench: {msg}");
            eprintln!("run `taskbench help` for usage");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> Result<(), String> {
    match args.first().map(String::as_str) {
        Some("gen") => cmd_gen(&args[1..]),
        Some("run") => cmd_run(&args[1..]),
        Some("trace") => cmd_trace(&args[1..]),
        Some("profile") => cmd_profile(&args[1..]),
        Some("adversary") => cmd_adversary(&args[1..]),
        Some("info") => cmd_info(&args[1..]),
        Some("dot") => cmd_dot(&args[1..]),
        Some("list") => {
            let mut text = String::new();
            for algo in registry::all() {
                text.push_str(&format!("{:8} {}\n", algo.name(), algo.class()));
            }
            emit(&text);
            Ok(())
        }
        Some("variants") => cmd_variants(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("loadgen") => cmd_loadgen(&args[1..]),
        Some("lint") => cmd_lint(&args[1..]),
        Some("help") | None => {
            emit(HELP);
            emit("\n");
            Ok(())
        }
        Some(other) => Err(format!("unknown subcommand `{other}`")),
    }
}

/// Print to stdout, exiting quietly when the reader went away (e.g.
/// `taskbench list | head -3`) instead of panicking on a broken pipe.
fn emit(text: &str) {
    use std::io::Write;
    if std::io::stdout().lock().write_all(text.as_bytes()).is_err() {
        std::process::exit(0);
    }
}

const HELP: &str = "\
taskbench — benchmarking task graph scheduling algorithms (Kwok & Ahmad, IPPS'98)

  taskbench gen rgbos <v> <ccr> <seed>        random graph (optimal-solvable sizes)
  taskbench gen rgnos <v> <ccr> <par> <seed>  random graph (size/CCR/width sweep)
  taskbench gen rgpos <v> <ccr> <seed>        graph with known optimal schedule
  taskbench gen cholesky <n> <ccr>            Cholesky factorization trace
  taskbench gen gauss <n> <ccr>               Gaussian elimination trace
  taskbench gen fft <m> <ccr>                 2^m-point FFT butterfly
  taskbench gen psg <0..8>                    one of the nine peer set graphs
  taskbench run <ALGO> <file.tgf> [-p N] [--topology T] [--gantt]
  taskbench trace <ALGO> <file.tgf> [-p N] [--topology T]
            deterministic decision trace + schedule timeline (Chrome JSON, stdout)
  taskbench profile <ALGO> <file.tgf> [-p N] [--topology T] [--reps N]
            wall-clock schedule/validate times + counter/histogram registry dump
  taskbench adversary <TARGET> <BASELINE|optimal> [--budget N] [--seed S]
            [--max-nodes V] [--out file.tgf]     adversarial instance search
  taskbench info <file.tgf>
  taskbench dot <file.tgf>
  taskbench list
  taskbench variants                         the composed-scheduler space
  taskbench serve [--addr H:P] [--workers N] [--queue-cap N] [--cache-cap N]
            scheduling daemon; prints the bound address, runs until `shutdown`
  taskbench loadgen --addr H:P [--qps Q] [--conns N] [--repeat N] [--seed S]
            [--algo NAME]... [--suite rgnos|adversarial] [--verify] [--shutdown]
            replay a graph suite against a daemon; prints a JSON report
  taskbench lint [--json] [ROOT]             workspace invariant checker: scan all
            Rust sources for rule violations (nonzero exit on any diagnostic)

<ALGO> is a paper acronym (`taskbench list`) or a composed variant such as
`compose:PRIO=blevel,LIST=dynamic,SLOT=insert,SEL=ready` (`taskbench variants`).

global flags: -q/--quiet silence stderr notes, -v/--verbose add diagnostics;
stdout always carries exactly the artifact.";

fn parse<T: std::str::FromStr>(v: Option<&String>, what: &str) -> Result<T, String> {
    v.ok_or_else(|| format!("missing {what}"))?
        .parse()
        .map_err(|_| format!("invalid {what}: `{}`", v.unwrap()))
}

fn cmd_gen(args: &[String]) -> Result<(), String> {
    let family = args.first().map(String::as_str).ok_or("missing family")?;
    let g = match family {
        "rgbos" => rgbos::generate(rgbos::RgbosParams {
            nodes: parse(args.get(1), "v")?,
            ccr: parse(args.get(2), "ccr")?,
            seed: parse(args.get(3), "seed")?,
        }),
        "rgnos" => rgnos::generate(rgnos::RgnosParams::new(
            parse(args.get(1), "v")?,
            parse(args.get(2), "ccr")?,
            parse(args.get(3), "parallelism")?,
            parse(args.get(4), "seed")?,
        )),
        "rgpos" => {
            let inst = rgpos::generate(rgpos::RgposParams::new(
                parse(args.get(1), "v")?,
                parse(args.get(2), "ccr")?,
                parse(args.get(3), "seed")?,
            ));
            note(&format!(
                "# optimal length on {} procs: {}",
                inst.procs, inst.optimal
            ));
            inst.graph
        }
        "cholesky" => traced::cholesky(parse(args.get(1), "n")?, parse(args.get(2), "ccr")?),
        "gauss" => {
            traced::gaussian_elimination(parse(args.get(1), "n")?, parse(args.get(2), "ccr")?)
        }
        "fft" => traced::fft(parse(args.get(1), "m")?, parse(args.get(2), "ccr")?),
        "psg" => {
            let idx: usize = parse(args.get(1), "index")?;
            psg::peer_set()
                .into_iter()
                .nth(idx)
                .ok_or("psg index out of range (0..8)")?
        }
        other => return Err(format!("unknown family `{other}`")),
    };
    emit(&taskbench::graph::io::to_tgf(&g));
    Ok(())
}

/// Load a TGF file. Parse failures lead with the same stable
/// machine-readable code (`[E_GRAPH_*]`) the serve protocol returns, so
/// scripts branch identically on both front ends.
fn load(path: &str) -> Result<TaskGraph, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    taskbench::graph::io::from_tgf(&text).map_err(|e| format!("{path}: [{}] {e}", e.code()))
}

/// Registry lookup. On a miss the error leads with its stable code
/// (`[E_ALGO_UNKNOWN]` / `[E_ALGO_COMPOSE_PARSE]` — shared with the
/// serve protocol) followed by the full roster and `compose:` grammar.
fn lookup_algo(name: &str) -> Result<Box<dyn Scheduler>, String> {
    registry::lookup(name).map_err(|e| format!("[{}] {e}", e.code()))
}

/// Shared `-p` / `--topology` parsing for the run/trace/profile commands.
/// Both go through the checked platform parsers the serve protocol uses
/// ([`Env::checked_bnp`] and [`Topology::parse_spec`]), so a zero or
/// oversize machine is an error, not a panic or an abort.
/// Flags this parser doesn't own are handed to `extra`; it returns how
/// many arguments it consumed (0 = unknown flag, an error).
fn parse_env_flags(
    args: &[String],
    bnp: &mut Option<Env>,
    topo: &mut Option<Topology>,
    mut extra: impl FnMut(&str, Option<&String>) -> Result<usize, String>,
) -> Result<(), String> {
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "-p" => {
                let p = parse(args.get(i + 1), "processor count")?;
                *bnp = Some(Env::checked_bnp(p)?);
                i += 2;
            }
            "--topology" => {
                *topo = Some(Topology::parse_spec(
                    args.get(i + 1).ok_or("missing topology")?,
                )?);
                i += 2;
            }
            other => match extra(other, args.get(i + 1))? {
                0 => return Err(format!("unknown flag `{other}`")),
                n => i += n,
            },
        }
    }
    Ok(())
}

/// The environment a CLI invocation schedules in: APN algorithms get the
/// requested (or default 8-processor hypercube) topology, everything else
/// the `-p` BNP machine (default `min(v, 32)` processors).
fn env_for(algo: &dyn Scheduler, g: &TaskGraph, bnp: Option<Env>, topo: Option<Topology>) -> Env {
    match (algo.class(), topo) {
        (AlgoClass::Apn, Some(t)) => Env::apn(t),
        (AlgoClass::Apn, None) => Env::apn(Topology::hypercube(3).expect("valid")),
        (_, _) => bnp.unwrap_or_else(|| Env::bnp(g.num_tasks().min(32))),
    }
}

fn cmd_run(args: &[String]) -> Result<(), String> {
    let algo_name = args.first().ok_or("missing algorithm name")?;
    let path = args.get(1).ok_or("missing graph file")?;
    let algo = lookup_algo(algo_name)?;
    let g = load(path)?;

    let mut bnp: Option<Env> = None;
    let mut topo: Option<Topology> = None;
    let mut want_gantt = false;
    parse_env_flags(&args[2..], &mut bnp, &mut topo, |flag, _| {
        if flag == "--gantt" {
            want_gantt = true;
            Ok(1)
        } else {
            Ok(0)
        }
    })?;
    let env = env_for(algo.as_ref(), &g, bnp, topo);
    verbose(&format!(
        "loaded {}: v={} e={}; scheduling with {} on {} processors",
        g.name(),
        g.num_tasks(),
        g.num_edges(),
        algo.name(),
        env.procs()
    ));
    let out = algo.schedule(&g, &env).map_err(|e| e.to_string())?;
    out.validate(&g)
        .map_err(|e| format!("internal: invalid schedule: {e}"))?;
    emit(&format!(
        "{}  on {}: makespan {}  NSL {:.3}  procs used {}\n",
        algo.name(),
        g.name(),
        out.schedule.makespan(),
        nsl(&g, &out.schedule),
        out.schedule.procs_used()
    ));
    emit(&taskbench::platform::report(&g, &out.schedule.compact_procs()).to_string());
    if want_gantt {
        emit(&gantt::listing(&out.schedule, &g));
    }
    Ok(())
}

fn cmd_trace(args: &[String]) -> Result<(), String> {
    use taskbench::obs::{ArgVal, ChromeTrace, MemSink};

    let algo_name = args.first().ok_or("missing algorithm name")?;
    let path = args.get(1).ok_or("missing graph file")?;
    let algo = lookup_algo(algo_name)?;
    let g = load(path)?;
    let mut bnp: Option<Env> = None;
    let mut topo: Option<Topology> = None;
    parse_env_flags(&args[2..], &mut bnp, &mut topo, |_, _| Ok(0))?;
    let env = env_for(algo.as_ref(), &g, bnp, topo);

    let mut sink = MemSink::new();
    let out = algo
        .schedule_traced(&g, &env, &mut sink)
        .map_err(|e| e.to_string())?;
    out.validate(&g)
        .map_err(|e| format!("internal: invalid schedule: {e}"))?;
    let sched = out.schedule.compact_procs();

    // Two viewer process groups: pid 0 streams the decision narrative as
    // instants at their logical step stamps; pid 1 is the resulting
    // schedule as a Gantt chart in graph time units. Both axes are
    // deterministic, so the whole artifact byte-diffs across runs and
    // thread counts.
    let mut t = ChromeTrace::new();
    t.process_name(0, &format!("{} decisions", algo.name()));
    t.thread_name(0, 0, "decision stream");
    t.process_name(1, "schedule");
    for p in 0..sched.procs_used() {
        t.thread_name(1, p as u64, &format!("P{p}"));
    }
    for (step, ev) in sink.events.iter().enumerate() {
        t.instant(0, 0, ev.name(), step as u64, &ev.args());
    }
    for n in 0..g.num_tasks() {
        let task = TaskId(n as u32);
        let pl = sched
            .placement(task)
            .expect("validated schedule places every task");
        t.complete(
            1,
            pl.proc.index() as u64,
            &format!("n{n}"),
            pl.start,
            pl.finish - pl.start,
            &[("task", ArgVal::U(n as u64))],
        );
    }
    emit(&t.finish());
    note(&format!(
        "{} on {}: {} events, makespan {}, {} procs used \
         (load in chrome://tracing or ui.perfetto.dev)",
        algo.name(),
        g.name(),
        sink.events.len(),
        sched.makespan(),
        sched.procs_used()
    ));
    Ok(())
}

fn cmd_profile(args: &[String]) -> Result<(), String> {
    use std::time::{Duration, Instant};
    use taskbench::obs::{global, registry::HISTS};

    let algo_name = args.first().ok_or("missing algorithm name")?;
    let path = args.get(1).ok_or("missing graph file")?;
    let algo = lookup_algo(algo_name)?;
    let g = load(path)?;
    let mut bnp: Option<Env> = None;
    let mut topo: Option<Topology> = None;
    let mut reps: usize = 5;
    parse_env_flags(&args[2..], &mut bnp, &mut topo, |flag, val| match flag {
        "--reps" => {
            reps = parse(val, "reps")?;
            Ok(2)
        }
        _ => Ok(0),
    })?;
    if reps == 0 {
        return Err("reps must be at least 1".into());
    }
    let env = env_for(algo.as_ref(), &g, bnp, topo);

    let before = global().snapshot();
    let (mut schedule_time, mut validate_time) = (Duration::ZERO, Duration::ZERO);
    let mut makespan = 0;
    for _ in 0..reps {
        // lint:allow(no-wall-clock) stage timing printed by `profile` only;
        // never feeds a schedule decision or a committed artifact.
        let t0 = Instant::now();
        let out = algo.schedule(&g, &env).map_err(|e| e.to_string())?;
        // lint:allow(no-wall-clock) same stage timing, for validation.
        let t1 = Instant::now();
        schedule_time += t1 - t0;
        out.validate(&g)
            .map_err(|e| format!("internal: invalid schedule: {e}"))?;
        validate_time += t1.elapsed();
        makespan = out.schedule.makespan();
    }

    let mut text = format!(
        "profile: {} on {} (v={} e={}, {} procs)  reps={}  makespan={}\n\n",
        algo.name(),
        g.name(),
        g.num_tasks(),
        g.num_edges(),
        env.procs(),
        reps,
        makespan
    );
    text.push_str(&format!(
        "{:<20} {:>7} {:>12}\n",
        "stage", "count", "total ms"
    ));
    for (stage, time) in [("schedule", schedule_time), ("validate", validate_time)] {
        text.push_str(&format!(
            "{stage:<20} {reps:>7} {:>12.3}\n",
            time.as_secs_f64() * 1e3
        ));
    }
    let delta = global().snapshot().since(&before);
    let counters = delta.nonzero();
    if !counters.is_empty() {
        text.push_str("\ncounters (this invocation):\n");
        for (name, v) in counters {
            text.push_str(&format!("  {name:<22} {v}\n"));
        }
    }
    let mut any_hist = false;
    for h in HISTS {
        let hist = global().hist(h);
        if !hist.is_empty() {
            if !any_hist {
                text.push_str("\nhistograms (process lifetime):\n");
                any_hist = true;
            }
            text.push_str(&format!("  {:<22} {}\n", h.name(), hist.brief()));
        }
    }
    emit(&text);
    note("profile times are wall-clock: indicative, never CI-diffed");
    Ok(())
}

/// `taskbench variants` — the composed-scheduler design space, one
/// canonical grammar name per line in the deterministic enumeration
/// order, with the six paper presets annotated by their acronym. The
/// output is byte-stable across runs; CI diffs two invocations.
fn cmd_variants(args: &[String]) -> Result<(), String> {
    use taskbench::core::compose;

    if let Some(a) = args.first() {
        return Err(format!("unexpected argument `{a}`"));
    }
    let variants = registry::enumerate();
    let mut text = String::new();
    for v in &variants {
        match compose::PRESETS.iter().find(|&&(_, s)| s == v.spec()) {
            Some(&(acronym, _)) => text.push_str(&format!("{:<68} = {acronym}\n", v.name())),
            None => {
                text.push_str(v.name());
                text.push('\n');
            }
        }
    }
    emit(&text);
    note(&format!(
        "{} composed variants; grammar: {}",
        variants.len(),
        compose::Spec::grammar()
    ));
    Ok(())
}

fn cmd_info(args: &[String]) -> Result<(), String> {
    let g = load(args.first().ok_or("missing graph file")?)?;
    let s = taskbench::graph::GraphStats::of(&g);
    emit(&format!(
        "graph        {}\n\
         tasks        {}\n\
         edges        {}\n\
         total work   {}\n\
         total comm   {}\n\
         CCR          {:.3}\n\
         depth        {}\n\
         level width  {}\n\
         CP length    {}\n\
         CP work      {}\n\
         entries      {}\n\
         exits        {}\n",
        g.name(),
        s.tasks,
        s.edges,
        s.total_work,
        s.total_comm,
        s.ccr,
        s.depth,
        s.level_width,
        s.cp_length,
        s.cp_computation,
        s.entries,
        s.exits
    ));
    Ok(())
}

fn cmd_dot(args: &[String]) -> Result<(), String> {
    let g = load(args.first().ok_or("missing graph file")?)?;
    emit(&taskbench::graph::io::to_dot(&g));
    Ok(())
}

fn cmd_adversary(args: &[String]) -> Result<(), String> {
    use taskbench::adversary::{archive, matrix, search, Budget, Reference};

    let target_name = args.first().ok_or("missing target algorithm")?;
    let baseline_name = args.get(1).ok_or("missing baseline algorithm")?;
    let target = lookup_algo(target_name)?;
    let against_optimal = baseline_name.eq_ignore_ascii_case("optimal");
    let baseline_algo = if against_optimal {
        None
    } else {
        let b = lookup_algo(baseline_name)?;
        if b.class() != target.class() {
            return Err(format!(
                "target {} is {} but baseline {} is {}; compare within one class \
                 (or against `optimal`)",
                target.name(),
                target.class(),
                b.name(),
                b.class()
            ));
        }
        Some(b)
    };

    // The optimal bound re-solves a branch-and-bound per evaluation, so its
    // defaults are much smaller.
    let mut budget = Budget {
        max_evals: if against_optimal { 60 } else { 400 },
        seed: 0x1998,
        max_nodes: if against_optimal { 20 } else { 60 },
    };
    let mut out: Option<String> = None;
    let mut i = 2;
    while i < args.len() {
        match args[i].as_str() {
            "--budget" => {
                budget.max_evals = parse(args.get(i + 1), "budget")?;
                i += 2;
            }
            "--seed" => {
                budget.seed = parse(args.get(i + 1), "seed")?;
                i += 2;
            }
            "--max-nodes" => {
                budget.max_nodes = parse(args.get(i + 1), "max-nodes")?;
                i += 2;
            }
            "--out" => {
                out = Some(args.get(i + 1).ok_or("missing output path")?.clone());
                i += 2;
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }

    if budget.max_evals == 0 {
        return Err("budget must be at least 1".into());
    }
    if budget.max_nodes < 8 {
        return Err("max-nodes must be at least 8".into());
    }
    if against_optimal && budget.max_nodes > 64 {
        return Err(format!(
            "the optimal baseline supports at most 64 tasks (branch-and-bound cap); \
             --max-nodes {} is too large",
            budget.max_nodes
        ));
    }
    let reference = match &baseline_algo {
        Some(b) => Reference::Algo(b.as_ref()),
        None => Reference::Optimal {
            node_limit: 300_000,
        },
    };
    let env = matrix::env_for(target.class());
    let r = search::search(target.as_ref(), &reference, &env, &budget);
    emit(&format!(
        "{} vs {}: max ratio {:.4}  ({} vs {})  on {} (v={} e={} ccr={:.2})  \
         [{} evals, seed {}]\n",
        target.name(),
        reference.label(),
        r.ratio(),
        r.target_makespan,
        r.baseline_makespan,
        r.graph.name(),
        r.graph.num_tasks(),
        r.graph.num_edges(),
        r.graph.ccr(),
        r.evals,
        budget.seed,
    ));
    if let Some(path) = out {
        let text = archive::archived_tgf(
            target.class(),
            target.name(),
            &reference.label(),
            budget.seed,
            &r,
        );
        std::fs::write(&path, text).map_err(|e| format!("{path}: {e}"))?;
        note(&format!("wrote {path}"));
    }
    Ok(())
}

/// `taskbench serve` — run the scheduling daemon. The artifact on stdout
/// is the bound address (one line), so scripts can use an ephemeral port
/// (`--addr 127.0.0.1:0`) and still find the server. Runs until a client
/// sends `shutdown`, then drains in-flight requests and exits.
fn cmd_serve(args: &[String]) -> Result<(), String> {
    use taskbench::obs::{global, registry::Metric};
    use taskbench::serve::Config;

    let mut cfg = Config::default();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--addr" => {
                cfg.addr = args.get(i + 1).ok_or("missing address")?.clone();
                i += 2;
            }
            "--workers" => {
                cfg.workers = parse(args.get(i + 1), "workers")?;
                i += 2;
            }
            "--queue-cap" => {
                cfg.queue_cap = parse(args.get(i + 1), "queue-cap")?;
                i += 2;
            }
            "--cache-cap" => {
                cfg.cache_cap = parse(args.get(i + 1), "cache-cap")?;
                i += 2;
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if cfg.queue_cap == 0 {
        return Err("queue-cap must be at least 1".into());
    }
    let handle = taskbench::serve::server::start(cfg).map_err(|e| e.to_string())?;
    emit(&format!("{}\n", handle.addr()));
    // stdout is block-buffered under a pipe; the address must reach the
    // launching script before the daemon parks in `wait()`.
    let _ = std::io::Write::flush(&mut std::io::stdout());
    note("serving; send a `shutdown` request (taskbench loadgen --shutdown) to stop");
    handle.wait();
    let snap = global().snapshot();
    note(&format!(
        "served {} requests ({} errors, {} queue rejects); cache {} hits ({} from raw bytes) / {} misses / {} evictions",
        snap.get(Metric::ServeRequests),
        snap.get(Metric::ServeErrors),
        snap.get(Metric::ServeQueueRejects),
        snap.get(Metric::ServeCacheHits),
        snap.get(Metric::ServeCacheWireHits),
        snap.get(Metric::ServeCacheMisses),
        snap.get(Metric::ServeCacheEvictions),
    ));
    Ok(())
}

/// The deterministic graph suite `taskbench loadgen` replays: RGNOS
/// graphs across the paper's CCR corners, or small adversarially-searched
/// instances (both seeded — the same seed replays the same suite).
fn loadgen_suite(name: &str, seed: u64) -> Result<Vec<TaskGraph>, String> {
    use taskbench::adversary::{matrix, search, Budget, Reference};
    use taskbench::suites::rgnos;

    match name {
        "rgnos" => Ok([0.1, 1.0, 10.0]
            .iter()
            .flat_map(|&ccr| {
                [seed, seed + 1].map(|s| rgnos::generate(rgnos::RgnosParams::new(40, ccr, 2, s)))
            })
            .collect()),
        "adversarial" => {
            let mut graphs = Vec::new();
            for (target, baseline) in [("MCP", "HLFET"), ("DSC", "EZ"), ("BSA", "MH")] {
                let t = lookup_algo(target)?;
                let b = lookup_algo(baseline)?;
                let budget = Budget {
                    max_evals: 25,
                    seed,
                    max_nodes: 20,
                };
                let env = matrix::env_for(t.class());
                let r = search::search(t.as_ref(), &Reference::Algo(b.as_ref()), &env, &budget);
                graphs.push(r.graph);
            }
            Ok(graphs)
        }
        other => Err(format!("unknown suite `{other}` (rgnos, adversarial)")),
    }
}

/// `taskbench loadgen` — replay a suite against a running daemon. The
/// artifact on stdout is a one-object JSON report; throughput/latency
/// numbers in it are wall-clock and machine-dependent (indicative only,
/// never CI-diffed — CI gates on `errors` and the cache hit count).
fn cmd_loadgen(args: &[String]) -> Result<(), String> {
    use taskbench::serve::loadgen;

    let mut params = loadgen::LoadgenParams::default();
    let mut suite = "rgnos".to_string();
    let mut algos: Vec<String> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--addr" => {
                params.addr = args.get(i + 1).ok_or("missing address")?.clone();
                i += 2;
            }
            "--qps" => {
                params.qps = parse(args.get(i + 1), "qps")?;
                i += 2;
            }
            "--conns" => {
                params.conns = parse(args.get(i + 1), "conns")?;
                i += 2;
            }
            "--repeat" => {
                params.repeat = parse(args.get(i + 1), "repeat")?;
                i += 2;
            }
            "--seed" => {
                params.seed = parse(args.get(i + 1), "seed")?;
                i += 2;
            }
            "--algo" => {
                algos.push(args.get(i + 1).ok_or("missing algorithm name")?.clone());
                i += 2;
            }
            "--suite" => {
                suite = args.get(i + 1).ok_or("missing suite name")?.clone();
                i += 2;
            }
            "--verify" => {
                params.verify = true;
                i += 1;
            }
            "--shutdown" => {
                params.shutdown = true;
                i += 1;
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if params.addr.is_empty() {
        return Err("loadgen needs --addr (the daemon's address)".into());
    }
    if !algos.is_empty() {
        // Validate eagerly so a typo fails before any traffic is sent.
        for a in &algos {
            lookup_algo(a)?;
        }
        params.algos = algos;
    }
    params.graphs = loadgen_suite(&suite, params.seed)?;
    verbose(&format!(
        "replaying {} graphs × {} algos × {} repeats at {} qps over {} conns",
        params.graphs.len(),
        params.algos.len(),
        params.repeat,
        params.qps,
        params.conns
    ));
    let report = loadgen::run(&params)?;
    emit(&format!(
        "{{\"requests\": {}, \"errors\": {}, \"cache_hits\": {}, \
         \"elapsed_s\": {:.3}, \"throughput_rps\": {:.1}, \
         \"p50_us\": {}, \"p95_us\": {}, \"p99_us\": {}}}\n",
        report.requests,
        report.errors,
        report.cache_hits,
        report.elapsed.as_secs_f64(),
        report.throughput_rps,
        report.p50_us,
        report.p95_us,
        report.p99_us
    ));
    for e in &report.error_detail {
        note(&format!("error: {e}"));
    }
    if report.errors > 0 {
        return Err(format!(
            "{} of {} requests failed",
            report.errors, report.requests
        ));
    }
    Ok(())
}

fn cmd_lint(args: &[String]) -> Result<(), String> {
    let mut json = false;
    let mut root: Option<std::path::PathBuf> = None;
    for a in args {
        match a.as_str() {
            "--json" => json = true,
            other if root.is_none() && !other.starts_with('-') => {
                root = Some(std::path::PathBuf::from(other))
            }
            other => return Err(format!("unknown lint flag `{other}`")),
        }
    }
    let root = match root {
        Some(r) => r,
        None => {
            let cwd = std::env::current_dir().map_err(|e| format!("getcwd: {e}"))?;
            dagsched_lint::find_workspace_root(&cwd)
                .ok_or("no workspace root found above the current directory; pass ROOT")?
        }
    };
    let report = dagsched_lint::lint_tree(&root).map_err(|e| format!("lint walk: {e}"))?;
    if json {
        emit(&dagsched_lint::render_json(&report.diagnostics));
    } else {
        emit(&dagsched_lint::render_text(&report.diagnostics));
    }
    note(&format!(
        "lint: {} files scanned, {} diagnostic{}",
        report.files,
        report.diagnostics.len(),
        if report.diagnostics.len() == 1 {
            ""
        } else {
            "s"
        }
    ));
    if report.clean() {
        Ok(())
    } else {
        Err(format!("{} lint diagnostics", report.diagnostics.len()))
    }
}
