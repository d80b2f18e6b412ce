//! The invariant rules and the pragma engine.
//!
//! Each rule encodes one promise ARCHITECTURE.md makes about this
//! workspace; the rule IDs below are the names used in diagnostics and
//! in `lint:allow(...)` pragmas. Diagnostics render as
//! `file:line: RULE_ID message`, sorted and byte-stable.
//!
//! ## Pragmas
//!
//! Two comment pragmas grant audited exceptions. Both must start the
//! comment (a doc comment or prose mentioning the syntax never parses
//! as one), carry a non-empty reason, and actually suppress something —
//! a reasonless allow and an allow that suppresses nothing are
//! themselves diagnostics (`bare-allow` / `unused-allow`):
//!
//! * `lint:allow(<rule-id>) <reason>` — suppress `<rule-id>` on the
//!   same line, or (as a comment-only line) on the next code line.
//! * `relaxed-ok: <reason>` — the justification the
//!   `relaxed-ordering-audit` rule requires at every
//!   `Ordering::Relaxed` use site.

use crate::scan::{has_macro, has_qualified_call, has_token, scan, Line};

/// One `file:line: RULE_ID message` finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Workspace-relative path with `/` separators.
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// Rule ID (one of [`RULES`] or a pragma meta-rule).
    pub rule: &'static str,
    pub message: String,
}

/// Invariant rules, in diagnostic-ID order.
pub const RULES: [&str; 8] = [
    ENV_DISCIPLINE,
    NO_FLOAT_DECISIONS,
    NO_UNORDERED_OUTPUT,
    NO_WALL_CLOCK,
    ONE_ARTIFACT_STDOUT,
    RELAXED_ORDERING_AUDIT,
    SINK_VIA_EMIT,
    UNSAFE_FREE,
];

pub const NO_WALL_CLOCK: &str = "no-wall-clock";
pub const NO_UNORDERED_OUTPUT: &str = "no-unordered-output";
pub const NO_FLOAT_DECISIONS: &str = "no-float-decisions";
pub const UNSAFE_FREE: &str = "unsafe-free";
pub const RELAXED_ORDERING_AUDIT: &str = "relaxed-ordering-audit";
pub const ONE_ARTIFACT_STDOUT: &str = "one-artifact-stdout";
pub const ENV_DISCIPLINE: &str = "env-discipline";
pub const SINK_VIA_EMIT: &str = "sink-via-emit";

/// Pragma meta-rules (not allowable themselves).
pub const BARE_ALLOW: &str = "bare-allow";
pub const UNUSED_ALLOW: &str = "unused-allow";
pub const UNKNOWN_RULE: &str = "unknown-rule";

/// The timing layer: the only files where wall clock may be read.
/// Everything here feeds human-facing timing output (span profiles,
/// Table-6 runtimes, loadgen latency percentiles) — never scheduler
/// decisions or committed artifacts.
const WALL_CLOCK_ALLOWED: [&str; 4] = [
    "crates/obs/src/span.rs",
    "crates/serve/src/loadgen.rs",
    "crates/bench/src/runner.rs",
    "crates/bench/src/bin/",
];

/// Files that render committed artifacts or stdout output; unordered
/// iteration here silently breaks the byte-determinism contract.
const ARTIFACT_FILES: [&str; 11] = [
    "crates/adversary/src/archive.rs",
    "crates/adversary/src/matrix.rs",
    "crates/bench/src/bin/",
    "crates/bench/src/report.rs",
    "crates/graph/src/binio.rs",
    "crates/graph/src/io.rs",
    "crates/metrics/src/table.rs",
    "crates/obs/src/chrome.rs",
    "crates/platform/src/gantt.rs",
    "crates/serve/src/proto.rs",
    "src/bin/taskbench.rs",
];

/// The `TASKBENCH_*` parse helpers: the only files that may read the
/// environment directly. Everything else takes parsed values as
/// arguments.
const ENV_HELPERS: [&str; 3] = [
    "crates/bench/src/config.rs",
    "crates/obs/src/env.rs",
    "crates/ws/src/lib.rs",
];

/// The tracing layer: the only place a `Sink` may be driven directly
/// (the `emit!` macro itself and the forwarding impls).
const SINK_OWNER: &str = "crates/obs/src/";

/// Paths where `println!`/`print!` are legitimate: CLI/binary front
/// doors, examples and tests.
const STDOUT_ALLOWED: [&str; 3] = ["/bin/", "examples/", "/tests/"];

/// `path` matches an allowlist entry: exact file, or prefix/substring
/// for entries ending in `/` (substring so `/bin/` and `/tests/` match
/// at any depth).
fn in_list(path: &str, list: &[&str]) -> bool {
    list.iter().any(|e| {
        if e.ends_with('/') {
            path.starts_with(e) || path.contains(e)
        } else {
            path == *e
        }
    })
}

/// Whether `path` is a crate root whose `#![forbid(unsafe_code)]` the
/// unsafe-free rule demands.
fn is_crate_root(path: &str) -> bool {
    path == "src/lib.rs" || (path.starts_with("crates/") && path.ends_with("/src/lib.rs"))
}

// ---------------------------------------------------------------------------
// Pragmas
// ---------------------------------------------------------------------------

enum PragmaKind {
    /// `lint:allow(rule)`
    Allow(String),
    /// `relaxed-ok:`
    RelaxedOk,
}

struct Pragma {
    decl_line: usize,
    /// Code line the pragma applies to (same line, or next code line for
    /// a comment-only pragma). `None` when no code follows.
    target: Option<usize>,
    kind: PragmaKind,
    reason_ok: bool,
    used: bool,
}

/// Parse every pragma in the file. Targets resolve to the pragma's own
/// line when it shares the line with code, otherwise to the next line
/// that has code.
fn parse_pragmas(lines: &[Line], diags: &mut Vec<Diagnostic>, file: &str) -> Vec<Pragma> {
    let mut out = Vec::new();
    for (idx, line) in lines.iter().enumerate() {
        let lineno = idx + 1;
        let text = line.comment.trim_start();
        let (kind, reason) = if let Some(rest) = text.strip_prefix("lint:allow") {
            let rest = rest.trim_start();
            let Some(inner) = rest.strip_prefix('(') else {
                diags.push(Diagnostic {
                    file: file.into(),
                    line: lineno,
                    rule: BARE_ALLOW,
                    message: "malformed lint:allow — expected `lint:allow(<rule-id>) <reason>`"
                        .into(),
                });
                continue;
            };
            let Some(close) = inner.find(')') else {
                diags.push(Diagnostic {
                    file: file.into(),
                    line: lineno,
                    rule: BARE_ALLOW,
                    message: "malformed lint:allow — missing `)`".into(),
                });
                continue;
            };
            let rule = inner[..close].trim().to_string();
            if !RULES.contains(&rule.as_str()) {
                diags.push(Diagnostic {
                    file: file.into(),
                    line: lineno,
                    rule: UNKNOWN_RULE,
                    message: format!(
                        "lint:allow names unknown rule `{rule}` (known: {})",
                        RULES.join(", ")
                    ),
                });
                continue;
            }
            (PragmaKind::Allow(rule), inner[close + 1..].trim())
        } else if let Some(rest) = text.strip_prefix("relaxed-ok") {
            match rest.trim_start().strip_prefix(':') {
                Some(reason) => (PragmaKind::RelaxedOk, reason.trim()),
                None => {
                    diags.push(Diagnostic {
                        file: file.into(),
                        line: lineno,
                        rule: BARE_ALLOW,
                        message: "malformed relaxed-ok — expected `relaxed-ok: <reason>`".into(),
                    });
                    continue;
                }
            }
        } else {
            continue;
        };
        let reason_ok = !reason.is_empty();
        if !reason_ok {
            let what = match &kind {
                PragmaKind::Allow(rule) => format!("lint:allow({rule})"),
                PragmaKind::RelaxedOk => "relaxed-ok".into(),
            };
            diags.push(Diagnostic {
                file: file.into(),
                line: lineno,
                rule: BARE_ALLOW,
                message: format!("{what} without a reason — justify the exception"),
            });
        }
        let target = if line.has_code() {
            Some(lineno)
        } else {
            lines[idx + 1..]
                .iter()
                .position(Line::has_code)
                .map(|off| lineno + 1 + off)
        };
        out.push(Pragma {
            decl_line: lineno,
            target,
            kind,
            reason_ok,
            used: false,
        });
    }
    out
}

/// Consume a pragma covering (`line`, `rule`), if any. Reasonless
/// pragmas never suppress (they were already reported as `bare-allow`).
fn suppressed(pragmas: &mut [Pragma], line: usize, rule: &str) -> bool {
    let mut hit = false;
    for p in pragmas.iter_mut() {
        if p.target != Some(line) || !p.reason_ok {
            continue;
        }
        let covers = match &p.kind {
            PragmaKind::Allow(r) => r == rule,
            PragmaKind::RelaxedOk => rule == RELAXED_ORDERING_AUDIT,
        };
        if covers {
            p.used = true;
            hit = true;
        }
    }
    hit
}

// ---------------------------------------------------------------------------
// The rule engine
// ---------------------------------------------------------------------------

/// Lint one file's source under its workspace-relative `path`.
/// Diagnostics come back sorted by (line, rule).
pub fn lint_source(path: &str, src: &str) -> Vec<Diagnostic> {
    let lines = scan(src);
    let mut diags = Vec::new();
    let mut pragmas = parse_pragmas(&lines, &mut diags, path);

    let push = |diags: &mut Vec<Diagnostic>,
                pragmas: &mut [Pragma],
                lineno: usize,
                rule: &'static str,
                message: String| {
        if !suppressed(pragmas, lineno, rule) {
            diags.push(Diagnostic {
                file: path.into(),
                line: lineno,
                rule,
                message,
            });
        }
    };

    for (idx, line) in lines.iter().enumerate() {
        let lineno = idx + 1;
        let code = line.code.as_str();

        // no-wall-clock: wall clock must never reach scheduler logic or
        // artifact bytes; only the timing layer may read it.
        if !in_list(path, &WALL_CLOCK_ALLOWED)
            && (has_token(code, "Instant::now") || has_token(code, "SystemTime"))
        {
            push(
                &mut diags,
                &mut pragmas,
                lineno,
                NO_WALL_CLOCK,
                "wall clock outside the timing layer — route timing through obs::span, \
                 bench::runner or the bench/loadgen timing bins"
                    .into(),
            );
        }

        // no-unordered-output: artifact renderers must not touch
        // hash-ordered containers at all.
        if in_list(path, &ARTIFACT_FILES)
            && (has_token(code, "HashMap") || has_token(code, "HashSet"))
        {
            push(
                &mut diags,
                &mut pragmas,
                lineno,
                NO_UNORDERED_OUTPUT,
                "HashMap/HashSet in an artifact-rendering file — iteration order is \
                 unstable; use BTreeMap/BTreeSet or sort before rendering"
                    .into(),
            );
        }

        // no-float-decisions: the dnode-priority discipline — scheduler
        // decisions compare integers (u128 cross-multiplication), never
        // floats.
        if path.starts_with("crates/core/src/")
            && (has_token(code, "f32") || has_token(code, "f64"))
        {
            push(
                &mut diags,
                &mut pragmas,
                lineno,
                NO_FLOAT_DECISIONS,
                "float type in a crates/core decision path — compare integers \
                 (cross-multiply like the dnode priority) so ties and rounding \
                 are platform-independent"
                    .into(),
            );
        }

        // unsafe-free (use sites): the workspace carries no unsafe at all.
        if has_token(code, "unsafe") {
            push(
                &mut diags,
                &mut pragmas,
                lineno,
                UNSAFE_FREE,
                "unsafe code in a workspace that promises none — every crate \
                 carries #![forbid(unsafe_code)]"
                    .into(),
            );
        }

        // relaxed-ordering-audit: every Relaxed use site carries a
        // `// relaxed-ok: <reason>` justification. Import lines don't
        // count as use sites.
        if has_token(code, "Relaxed") && !code.trim_start().starts_with("use ") {
            let justified = suppressed(&mut pragmas, lineno, RELAXED_ORDERING_AUDIT);
            if !justified {
                diags.push(Diagnostic {
                    file: path.into(),
                    line: lineno,
                    rule: RELAXED_ORDERING_AUDIT,
                    message: "Ordering::Relaxed without a `// relaxed-ok: <reason>` \
                              justification — state why no acquire/release pairing \
                              is needed, or upgrade the ordering"
                        .into(),
                });
            }
        }

        // one-artifact-stdout: stdout is the artifact channel; only
        // binaries, examples and tests print.
        if !in_list(path, &STDOUT_ALLOWED)
            && (has_macro(code, "println") || has_macro(code, "print"))
        {
            push(
                &mut diags,
                &mut pragmas,
                lineno,
                ONE_ARTIFACT_STDOUT,
                "print!/println! outside a CLI/binary module — stdout carries \
                 exactly one artifact per invocation; use eprintln! (stderr) or \
                 return the text to the caller"
                    .into(),
            );
        }

        // env-discipline: TASKBENCH_* knobs are read once, through the
        // parse helpers, so every consumer agrees on parse and default.
        if !in_list(path, &ENV_HELPERS)
            && (has_token(code, "env::var") || has_token(code, "env::var_os"))
            && line.strings.contains("TASKBENCH_")
        {
            push(
                &mut diags,
                &mut pragmas,
                lineno,
                ENV_DISCIPLINE,
                "TASKBENCH_* read outside the parse helpers — go through \
                 ws::worker_count/parse_workers, bench::Config, or obs::env"
                    .into(),
            );
        }

        // sink-via-emit: zero-cost tracing holds structurally. Every event
        // delivery goes through `emit!`, whose `Sink::enabled` guard is a
        // constant `false` under `NullSink`, so the disabled path never
        // builds a payload. A direct `.emit(` / `Sink::emit(` outside the
        // tracing layer would skip that guard. Like every token rule, the
        // match is textual: `. emit (` with inner spaces is not seen.
        if !path.starts_with(SINK_OWNER) && has_qualified_call(code, "emit") {
            push(
                &mut diags,
                &mut pragmas,
                lineno,
                SINK_VIA_EMIT,
                "direct Sink::emit outside crates/obs — deliver events with \
                 `emit!(sink, event)` so the payload is only built when the \
                 sink is enabled"
                    .into(),
            );
        }
    }

    // unsafe-free (crate roots): the promise is compiler-enforced via
    // `#![forbid(unsafe_code)]` in every crate root. Not pragma-able.
    if is_crate_root(path) {
        let has_forbid = lines.iter().any(|l| {
            let squashed: String = l.code.chars().filter(|c| !c.is_whitespace()).collect();
            squashed.contains("#![forbid(unsafe_code)]")
        });
        if !has_forbid {
            diags.push(Diagnostic {
                file: path.into(),
                line: 1,
                rule: UNSAFE_FREE,
                message: "crate root missing #![forbid(unsafe_code)] — the workspace \
                          promises no unsafe and the compiler must hold it"
                    .into(),
            });
        }
    }

    // Pragma hygiene: a well-formed allow that suppressed nothing is an
    // error (it hides future violations or marks dead policy).
    for p in &pragmas {
        if p.reason_ok && !p.used {
            let what = match &p.kind {
                PragmaKind::Allow(rule) => format!("lint:allow({rule})"),
                PragmaKind::RelaxedOk => "relaxed-ok".into(),
            };
            diags.push(Diagnostic {
                file: path.into(),
                line: p.decl_line,
                rule: UNUSED_ALLOW,
                message: format!("{what} suppresses nothing — remove the stale pragma"),
            });
        }
    }

    diags.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    diags
}
