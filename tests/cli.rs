//! End-to-end tests of the `taskbench` command-line interface, driving the
//! real binary through generate → inspect → schedule round trips.

use std::process::Command;

fn taskbench(args: &[&str]) -> (bool, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_taskbench"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn help_and_list() {
    let (ok, stdout, _) = taskbench(&["help"]);
    assert!(ok);
    assert!(stdout.contains("taskbench gen rgbos"));

    let (ok, stdout, _) = taskbench(&["list"]);
    assert!(ok);
    for name in ["HLFET", "MCP", "DCP", "BSA", "DLS-APN"] {
        assert!(stdout.contains(name), "missing {name}");
    }
    assert_eq!(stdout.lines().count(), 15);
}

#[test]
fn gen_run_round_trip() {
    let dir = std::env::temp_dir().join(format!("taskbench-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("g.tgf");

    let (ok, tgf, _) = taskbench(&["gen", "rgnos", "40", "1.0", "2", "7"]);
    assert!(ok);
    assert!(tgf.contains("task 0"));
    std::fs::write(&path, &tgf).unwrap();
    let p = path.to_str().unwrap();

    let (ok, stdout, _) = taskbench(&["info", p]);
    assert!(ok);
    assert!(stdout.contains("tasks        40"));

    let (ok, stdout, _) = taskbench(&["run", "MCP", p, "-p", "4", "--gantt"]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("makespan"));
    assert!(stdout.contains("utilization"));
    assert!(stdout.contains("P0 |"));

    let (ok, stdout, _) = taskbench(&["run", "BSA", p, "--topology", "torus:3x3"]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("BSA"));

    let (ok, dot, _) = taskbench(&["dot", p]);
    assert!(ok);
    assert!(dot.starts_with("digraph"));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn gen_rgpos_reports_optimum_on_stderr() {
    let (ok, tgf, stderr) = taskbench(&["gen", "rgpos", "24", "1.0", "3"]);
    assert!(ok);
    assert!(tgf.contains("edge"));
    assert!(stderr.contains("optimal length on 8 procs"));
}

#[test]
fn errors_are_reported_not_panicked() {
    let (ok, _, stderr) = taskbench(&["run", "NOPE", "/nonexistent.tgf"]);
    assert!(!ok);
    assert!(stderr.contains("unknown algorithm"));
    // The stable machine-readable code leads the message — the same code
    // the serve protocol returns for this failure.
    assert!(stderr.contains("[E_ALGO_UNKNOWN]"), "{stderr}");
    // A miss lists every valid name instead of a bare error.
    assert!(stderr.contains("valid names"), "{stderr}");
    for name in ["HLFET", "MCP", "DCP", "BSA", "DLS-APN"] {
        assert!(stderr.contains(name), "miss list lacks {name}: {stderr}");
    }
    // …and the composed-variant grammar, so the space is discoverable.
    assert!(stderr.contains("compose:"), "{stderr}");
    assert!(stderr.contains("PRIO"), "{stderr}");

    // Grammar parse errors surface with the offending detail and their
    // own stable code.
    let (ok, _, stderr) = taskbench(&["run", "compose:PRIO=bogus", "/nonexistent.tgf"]);
    assert!(!ok);
    assert!(stderr.contains("unknown value `bogus`"), "{stderr}");
    assert!(stderr.contains("[E_ALGO_COMPOSE_PARSE]"), "{stderr}");

    let (ok, _, stderr) = taskbench(&["gen", "martian", "1"]);
    assert!(!ok);
    assert!(stderr.contains("unknown family"));

    let (ok, _, stderr) = taskbench(&["frobnicate"]);
    assert!(!ok);
    assert!(stderr.contains("unknown subcommand"));

    let (ok, _, stderr) = taskbench(&["run", "BSA", "/nonexistent.tgf"]);
    assert!(!ok);
    assert!(stderr.contains("nonexistent"));

    // A zero or oversize machine is a usage error (exit 1), not a panic
    // (exit 101) or an allocation abort (exit 134).
    let dir = std::env::temp_dir().join(format!("taskbench-procs-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("g.tgf");
    std::fs::write(&path, taskbench(&["gen", "psg", "0"]).1).unwrap();
    let g = path.to_str().unwrap();
    for (flag, value) in [
        ("-p", "0"),
        ("-p", "4294967297"),
        ("--topology", "full:60000"),
        ("--topology", "ring:3000000"),
        ("--topology", "mesh:100000x100000"),
        ("--topology", "hypercube:16"),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_taskbench"))
            .args(["run", "MH", g, flag, value])
            .output()
            .expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{flag} {value}: {stderr}");
        assert!(
            stderr.starts_with("taskbench: "),
            "{flag} {value}: {stderr}"
        );
        assert!(stderr.contains("processor"), "{flag} {value}: {stderr}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// TGF load failures lead with the same stable `E_GRAPH_*` codes the
/// serve protocol uses, pinned here at the CLI surface.
#[test]
fn graph_errors_carry_stable_codes() {
    let dir = std::env::temp_dir().join(format!("taskbench-codes-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();

    let bad = dir.join("bad.tgf");
    std::fs::write(&bad, "task zero five\n").unwrap();
    let (ok, _, stderr) = taskbench(&["info", bad.to_str().unwrap()]);
    assert!(!ok);
    assert!(stderr.contains("[E_GRAPH_PARSE]"), "{stderr}");

    let cyclic = dir.join("cyclic.tgf");
    std::fs::write(&cyclic, "task 0 1\ntask 1 1\nedge 0 1 1\nedge 1 0 1\n").unwrap();
    let (ok, _, stderr) = taskbench(&["info", cyclic.to_str().unwrap()]);
    assert!(!ok);
    assert!(stderr.contains("[E_GRAPH_CYCLE]"), "{stderr}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn adversary_search_reports_and_archives() {
    let dir = std::env::temp_dir().join(format!("taskbench-adv-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let out = dir.join("found.tgf");
    let out_s = out.to_str().unwrap();

    let (ok, report, stderr) = taskbench(&[
        "adversary",
        "lc",
        "dcp",
        "--budget",
        "80",
        "--seed",
        "5",
        "--max-nodes",
        "24",
        "--out",
        out_s,
    ]);
    assert!(ok, "stdout: {report}\nstderr: {stderr}");
    assert!(report.contains("LC vs DCP: max ratio"), "{report}");
    assert!(report.contains("evals, seed 5"), "{report}");

    // The archived instance parses, schedules, and reproduces the report.
    let text = std::fs::read_to_string(&out).unwrap();
    assert!(text.starts_with("# dagsched-adversary"), "{text}");
    let (ok, run_out, _) = taskbench(&["run", "LC", out_s]);
    assert!(ok, "{run_out}");
    assert!(run_out.contains("makespan"));

    // Same seed and budget → byte-identical report (search determinism
    // end to end through the CLI).
    let (_, again, _) = taskbench(&[
        "adversary",
        "lc",
        "dcp",
        "--budget",
        "80",
        "--seed",
        "5",
        "--max-nodes",
        "24",
    ]);
    let first_line = again.lines().next().unwrap_or("");
    assert!(
        !first_line.is_empty() && report.starts_with(first_line),
        "non-deterministic: {report} vs {again}"
    );

    // Cross-class pairs are rejected with a helpful message.
    let (ok, _, stderr) = taskbench(&["adversary", "LC", "MCP"]);
    assert!(!ok);
    assert!(stderr.contains("compare within one class"), "{stderr}");

    // Degenerate budgets are reported as errors, never panics.
    let (ok, _, stderr) = taskbench(&["adversary", "LC", "DCP", "--budget", "0"]);
    assert!(!ok);
    assert!(stderr.contains("budget must be at least 1"), "{stderr}");
    let (ok, _, stderr) = taskbench(&["adversary", "LC", "DCP", "--max-nodes", "4"]);
    assert!(!ok);
    assert!(stderr.contains("max-nodes must be at least 8"), "{stderr}");
    let (ok, _, stderr) = taskbench(&["adversary", "LC", "optimal", "--max-nodes", "130"]);
    assert!(!ok);
    assert!(stderr.contains("at most 64 tasks"), "{stderr}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn variants_enumerates_the_composed_space_deterministically() {
    let (ok, stdout, _) = taskbench(&["variants"]);
    assert!(ok);
    let lines: Vec<&str> = stdout.lines().collect();
    assert!(lines.len() >= 100, "only {} variants", lines.len());
    assert!(lines.iter().all(|l| l.starts_with("compose:")), "{stdout}");
    // The six paper presets are annotated with their acronyms.
    for acronym in ["HLFET", "ISH", "MCP", "ETF", "DLS", "LAST"] {
        assert!(
            lines.iter().any(|l| l.ends_with(&format!("= {acronym}"))),
            "preset {acronym} not annotated:\n{stdout}"
        );
    }
    // Byte-determinism: a second invocation is identical.
    let (_, again, _) = taskbench(&["variants"]);
    assert_eq!(stdout, again);
}

#[test]
fn composed_variant_names_run_end_to_end() {
    let dir = std::env::temp_dir().join(format!("taskbench-compose-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("g.tgf");
    let (ok, tgf, _) = taskbench(&["gen", "rgnos", "30", "1.0", "3", "11"]);
    assert!(ok);
    std::fs::write(&path, &tgf).unwrap();
    let p = path.to_str().unwrap();

    let name = "compose:PRIO=blevel,LIST=dynamic,SLOT=insert,SEL=ready";
    let (ok, stdout, _) = taskbench(&["run", name, p, "-p", "4"]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("makespan"), "{stdout}");
    // The schedule header carries the canonical (FILL-completed) name.
    assert!(stdout.contains("FILL=none"), "{stdout}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn psg_indices_cover_the_set() {
    let (ok, tgf, _) = taskbench(&["gen", "psg", "0"]);
    assert!(ok);
    assert!(tgf.contains("psg-classic-nine"));
    let (ok, _, stderr) = taskbench(&["gen", "psg", "99"]);
    assert!(!ok);
    assert!(stderr.contains("out of range"));
}
