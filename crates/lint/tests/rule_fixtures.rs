//! One known-bad and one known-good fixture per rule.
//!
//! Fixtures are raw-string snippets passed straight to [`lint_source`]
//! with a synthetic path that selects the rule's allowlist branch. The
//! snippets live inside string literals, so the full-tree scan (which
//! blanks literal contents) never sees them — the bad fixtures cannot
//! leak diagnostics into `taskbench lint`.

use dagsched_lint::rules::{self, lint_source};

/// Rules firing on `src` at `path`, deduplicated, sorted.
fn fired(path: &str, src: &str) -> Vec<&'static str> {
    let mut rules: Vec<&'static str> = lint_source(path, src).into_iter().map(|d| d.rule).collect();
    rules.sort();
    rules.dedup();
    rules
}

#[test]
fn no_wall_clock_fires_outside_the_timing_layer() {
    let bad = r#"
        fn tick() {
            let t0 = std::time::Instant::now();
            let _ = SystemTime::now();
        }
    "#;
    assert_eq!(
        fired("crates/core/src/sched.rs", bad),
        vec![rules::NO_WALL_CLOCK]
    );
    // Statistics helpers and bench targets are not part of the timing layer.
    for path in ["crates/metrics/src/stats.rs", "crates/bench/benches/x.rs"] {
        assert_eq!(fired(path, bad), vec![rules::NO_WALL_CLOCK], "{path}");
    }
    // Same source inside the timing layer is fine.
    assert_eq!(fired("crates/bench/src/runner.rs", bad), Vec::<&str>::new());
    // Mentions in comments and strings never count.
    let good = r#"
        // Instant::now is forbidden here; "SystemTime" too.
        fn tick() { let s = "Instant::now"; }
    "#;
    assert_eq!(fired("crates/core/src/sched.rs", good), Vec::<&str>::new());
}

#[test]
fn no_unordered_output_fires_in_artifact_files() {
    let bad = r#"
        use std::collections::HashMap;
        fn render(m: &HashMap<u32, u32>) -> String { String::new() }
    "#;
    assert_eq!(
        fired("crates/metrics/src/table.rs", bad),
        vec![rules::NO_UNORDERED_OUTPUT]
    );
    // Hash containers are fine in non-artifact files...
    assert_eq!(fired("crates/core/src/sched.rs", bad), Vec::<&str>::new());
    // ...and ordered containers are fine in artifact files.
    let good = r#"
        use std::collections::BTreeMap;
        fn render(m: &BTreeMap<u32, u32>) -> String { String::new() }
    "#;
    assert_eq!(
        fired("crates/metrics/src/table.rs", good),
        Vec::<&str>::new()
    );
}

#[test]
fn no_float_decisions_fires_in_core_only() {
    let bad = r#"
        fn priority(a: u64, b: u64) -> f64 { a as f64 / b as f64 }
    "#;
    assert_eq!(
        fired("crates/core/src/dnode.rs", bad),
        vec![rules::NO_FLOAT_DECISIONS]
    );
    // Floats are fine outside the decision crate (metrics, suites, ...).
    assert_eq!(
        fired("crates/metrics/src/stats.rs", bad),
        Vec::<&str>::new()
    );
    let good = r#"
        fn cross(a: (u64, u64), b: (u64, u64)) -> bool {
            (a.0 as u128) * (b.1 as u128) < (b.0 as u128) * (a.1 as u128)
        }
    "#;
    assert_eq!(fired("crates/core/src/dnode.rs", good), Vec::<&str>::new());
}

#[test]
fn unsafe_free_fires_on_use_sites_everywhere() {
    let bad = r#"
        fn f(p: *const u8) -> u8 { unsafe { *p } }
    "#;
    assert_eq!(
        fired("crates/graph/src/util.rs", bad),
        vec![rules::UNSAFE_FREE]
    );
    let good = r#"
        // the word unsafe in a comment is fine
        fn f(unsafe_name_part: u8) {}
    "#;
    assert_eq!(fired("crates/graph/src/util.rs", good), Vec::<&str>::new());
}

#[test]
fn unsafe_free_requires_forbid_in_crate_roots() {
    let bad = "//! A crate.\npub fn f() {}\n";
    let diags = lint_source("crates/demo/src/lib.rs", bad);
    assert_eq!(diags.len(), 1);
    assert_eq!(diags[0].rule, rules::UNSAFE_FREE);
    assert_eq!(diags[0].line, 1);
    // Non-root files don't need the attribute.
    assert_eq!(fired("crates/demo/src/util.rs", bad), Vec::<&str>::new());
    let good = "#![forbid(unsafe_code)]\n//! A crate.\npub fn f() {}\n";
    assert_eq!(fired("crates/demo/src/lib.rs", good), Vec::<&str>::new());
}

#[test]
fn relaxed_ordering_audit_demands_a_reason() {
    let bad = r#"
        fn get(c: &AtomicU64) -> u64 { c.load(Ordering::Relaxed) }
    "#;
    assert_eq!(
        fired("crates/obs/src/registry.rs", bad),
        vec![rules::RELAXED_ORDERING_AUDIT]
    );
    let good = r#"
        fn get(c: &AtomicU64) -> u64 {
            // relaxed-ok: monotone tally read after writers join.
            c.load(Ordering::Relaxed)
        }
    "#;
    assert_eq!(
        fired("crates/obs/src/registry.rs", good),
        Vec::<&str>::new()
    );
    // Import lines are not use sites.
    let import = "use std::sync::atomic::Ordering::Relaxed;\n";
    assert_eq!(
        fired("crates/obs/src/registry.rs", import),
        Vec::<&str>::new()
    );
}

#[test]
fn one_artifact_stdout_fires_outside_binaries() {
    let bad = r#"
        fn log(x: u32) { println!("{x}"); print!("!"); }
    "#;
    assert_eq!(
        fired("crates/graph/src/util.rs", bad),
        vec![rules::ONE_ARTIFACT_STDOUT]
    );
    // Binaries, examples and tests own stdout.
    assert_eq!(
        fired("crates/graph/src/bin/tool.rs", bad),
        Vec::<&str>::new()
    );
    assert_eq!(fired("examples/demo.rs", bad), Vec::<&str>::new());
    assert_eq!(fired("crates/graph/tests/io.rs", bad), Vec::<&str>::new());
    // eprintln (stderr) is always fine.
    let good = r#"
        fn log(x: u32) { eprintln!("{x}"); }
    "#;
    assert_eq!(fired("crates/graph/src/util.rs", good), Vec::<&str>::new());
}

#[test]
fn env_discipline_fires_outside_the_parse_helpers() {
    let bad = r#"
        fn threads() -> usize {
            std::env::var("TASKBENCH_THREADS").unwrap().parse().unwrap()
        }
    "#;
    assert_eq!(
        fired("crates/graph/src/util.rs", bad),
        vec![rules::ENV_DISCIPLINE]
    );
    // The helpers themselves are allowlisted.
    assert_eq!(fired("crates/bench/src/config.rs", bad), Vec::<&str>::new());
    assert_eq!(fired("crates/obs/src/env.rs", bad), Vec::<&str>::new());
    // Non-TASKBENCH variables are out of scope.
    let good = r#"
        fn home() -> String { std::env::var("HOME").unwrap() }
    "#;
    assert_eq!(fired("crates/graph/src/util.rs", good), Vec::<&str>::new());
}

#[test]
fn sink_via_emit_fires_on_direct_sink_calls_outside_obs() {
    let bad = r#"
        fn trace<S: Sink>(sink: &mut S, ev: Event) {
            sink.emit(ev);
        }
    "#;
    assert_eq!(
        fired("crates/core/src/sched.rs", bad),
        vec![rules::SINK_VIA_EMIT]
    );
    // Path-qualified calls skip the guard just the same.
    let ufcs = r#"
        fn trace<S: Sink>(sink: &mut S, ev: Event) { Sink::emit(sink, ev); }
    "#;
    assert_eq!(
        fired("crates/core/src/sched.rs", ufcs),
        vec![rules::SINK_VIA_EMIT]
    );
    // The tracing layer itself drives sinks directly (the macro body and
    // the forwarding impls).
    assert_eq!(fired("crates/obs/src/sink.rs", bad), Vec::<&str>::new());
    assert_eq!(fired("crates/obs/src/sink.rs", ufcs), Vec::<&str>::new());
    // The guarded macro, a free `emit(` helper and longer method names
    // are fine.
    let good = r#"
        fn trace<S: Sink>(sink: &mut S, ev: Event) {
            emit!(sink, ev);
            dagsched_obs::emit!(sink, Event::BnbExpanded { depth: 0 });
            emit(&text);
            out.emit_all();
        }
    "#;
    assert_eq!(fired("crates/core/src/sched.rs", good), Vec::<&str>::new());
}
