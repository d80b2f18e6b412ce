#![forbid(unsafe_code)]
//! # dagsched-lint — the workspace invariant checker
//!
//! ARCHITECTURE.md promises byte-deterministic schedules, traces and
//! archives at any thread count. Those promises were enforced only
//! dynamically (equivalence sweeps, CI byte-diffs) — violations
//! surfaced *after* they shipped. This crate makes the invariants
//! statically checkable: a comment- and string-literal-aware scanner
//! ([`scan`]) walks every Rust source file in the workspace and a small
//! rule engine ([`rules`]) reports violations as deterministic
//! `file:line: RULE_ID message` diagnostics (sorted, byte-stable,
//! machine-readable with [`render_json`]).
//!
//! The rules, each guarding a named invariant:
//!
//! | Rule | Invariant it guards |
//! |------|---------------------|
//! | `no-wall-clock` | wall clock never reaches scheduler logic or artifact bytes (timing layer only) |
//! | `no-unordered-output` | artifact renderers never iterate hash-ordered containers |
//! | `no-float-decisions` | scheduler decisions compare integers, never floats |
//! | `unsafe-free` | `#![forbid(unsafe_code)]` in every crate, no `unsafe` anywhere |
//! | `relaxed-ordering-audit` | every `Ordering::Relaxed` carries a `// relaxed-ok: <reason>` |
//! | `one-artifact-stdout` | stdout carries exactly one artifact (no `println!` outside binaries) |
//! | `env-discipline` | `TASKBENCH_*` is read only through the parse helpers |
//! | `sink-via-emit` | trace events reach a `Sink` only through the guarded `emit!` (zero-cost tracing) |
//!
//! Exceptions are granted inline — `lint:allow(<rule>) <reason>` — and
//! are themselves audited: a reasonless allow is a `bare-allow` error,
//! an allow that suppresses nothing is `unused-allow`. See [`rules`]
//! for the pragma grammar.
//!
//! The front door is `taskbench lint` (text or `--json`, nonzero exit
//! on any diagnostic) and the CI `lint` job; `crates/lint/tests/` keeps
//! every rule demonstrably live with one known-bad and one known-good
//! fixture per rule.

pub mod rules;
pub mod scan;

pub use rules::{lint_source, Diagnostic, RULES};

use std::io;
use std::path::{Path, PathBuf};

/// Result of a whole-tree lint run.
#[derive(Debug)]
pub struct Report {
    /// Number of `.rs` files scanned.
    pub files: usize,
    /// All diagnostics, sorted by (file, line, rule).
    pub diagnostics: Vec<Diagnostic>,
}

impl Report {
    pub fn clean(&self) -> bool {
        self.diagnostics.is_empty()
    }
}

/// Top-level directories scanned under the workspace root.
const SCAN_DIRS: [&str; 4] = ["crates", "examples", "src", "tests"];

/// Collect every `.rs` file under the scan dirs, as sorted
/// (workspace-relative path, absolute path) pairs. `target` and hidden
/// directories are skipped.
fn collect_files(root: &Path) -> io::Result<Vec<(String, PathBuf)>> {
    fn visit(dir: &Path, rel: &str, out: &mut Vec<(String, PathBuf)>) -> io::Result<()> {
        let mut entries: Vec<_> = std::fs::read_dir(dir)?
            .collect::<Result<Vec<_>, _>>()?
            .into_iter()
            .map(|e| e.path())
            .collect();
        entries.sort();
        for path in entries {
            let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
                continue;
            };
            let child_rel = if rel.is_empty() {
                name.to_string()
            } else {
                format!("{rel}/{name}")
            };
            if path.is_dir() {
                if name == "target" || name.starts_with('.') {
                    continue;
                }
                visit(&path, &child_rel, out)?;
            } else if name.ends_with(".rs") {
                out.push((child_rel, path));
            }
        }
        Ok(())
    }
    let mut out = Vec::new();
    for dir in SCAN_DIRS {
        let abs = root.join(dir);
        if abs.is_dir() {
            visit(&abs, dir, &mut out)?;
        }
    }
    out.sort();
    Ok(out)
}

/// Lint every Rust source file under `root` (a workspace checkout).
/// Diagnostics come back sorted by (file, line, rule) — byte-identical
/// across runs on an identical tree.
pub fn lint_tree(root: &Path) -> io::Result<Report> {
    let files = collect_files(root)?;
    let mut diagnostics = Vec::new();
    for (rel, abs) in &files {
        let src = std::fs::read_to_string(abs)?;
        diagnostics.extend(lint_source(rel, &src));
    }
    diagnostics.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    Ok(Report {
        files: files.len(),
        diagnostics,
    })
}

/// Find the workspace root by walking up from `start` to the first
/// directory whose `Cargo.toml` declares `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(dir);
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}

/// Render diagnostics as `file:line: RULE_ID message` lines.
pub fn render_text(diags: &[Diagnostic]) -> String {
    let mut out = String::new();
    for d in diags {
        out.push_str(&format!(
            "{}:{}: {} {}\n",
            d.file, d.line, d.rule, d.message
        ));
    }
    out
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Render diagnostics as a JSON array, one object per line (stable
/// field order, trailing newline) so CI can both parse and byte-diff it.
pub fn render_json(diags: &[Diagnostic]) -> String {
    let mut out = String::from("[");
    for (i, d) in diags.iter().enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        out.push_str(&format!(
            "  {{\"file\": \"{}\", \"line\": {}, \"rule\": \"{}\", \"message\": \"{}\"}}",
            json_escape(&d.file),
            d.line,
            d.rule,
            json_escape(&d.message)
        ));
    }
    out.push_str(if diags.is_empty() { "]\n" } else { "\n]\n" });
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_text_is_one_line_per_diagnostic() {
        let diags = vec![Diagnostic {
            file: "a.rs".into(),
            line: 3,
            rule: rules::NO_WALL_CLOCK,
            message: "msg".into(),
        }];
        assert_eq!(render_text(&diags), "a.rs:3: no-wall-clock msg\n");
    }

    #[test]
    fn render_json_escapes_and_terminates() {
        let diags = vec![Diagnostic {
            file: "a\"b.rs".into(),
            line: 1,
            rule: rules::UNSAFE_FREE,
            message: "x\\y".into(),
        }];
        let j = render_json(&diags);
        assert!(j.contains("a\\\"b.rs"));
        assert!(j.contains("x\\\\y"));
        assert!(j.ends_with("]\n"));
        assert_eq!(render_json(&[]), "[]\n");
    }

    #[test]
    fn workspace_root_found_from_crate_dir() {
        let here = Path::new(env!("CARGO_MANIFEST_DIR"));
        let root = find_workspace_root(here).expect("workspace root");
        assert!(root.join("ROADMAP.md").exists());
    }
}
