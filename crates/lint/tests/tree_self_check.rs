//! The linter's own workspace is its hardest fixture: the full tree
//! must lint clean, byte-identically across runs, with the unsafe-free
//! promise visible in every crate root.

use std::path::Path;

use dagsched_lint::{find_workspace_root, lint_tree, render_json, render_text};

fn workspace_root() -> std::path::PathBuf {
    find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR"))).expect("workspace root")
}

#[test]
fn full_tree_is_clean() {
    let report = lint_tree(&workspace_root()).expect("walk");
    assert!(report.files > 100, "walk found only {} files", report.files);
    assert!(
        report.clean(),
        "in-tree violations:\n{}",
        render_text(&report.diagnostics)
    );
}

#[test]
fn full_tree_runs_are_byte_identical() {
    let root = workspace_root();
    let a = lint_tree(&root).expect("first run");
    let b = lint_tree(&root).expect("second run");
    assert_eq!(a.files, b.files);
    assert_eq!(render_text(&a.diagnostics), render_text(&b.diagnostics));
    assert_eq!(render_json(&a.diagnostics), render_json(&b.diagnostics));
}

/// The unsafe-free rule's self-test: every crate root in the real tree
/// carries `#![forbid(unsafe_code)]` (ISSUE: the ws README promises "no
/// unsafe"; the compiler now holds it everywhere).
#[test]
fn every_crate_root_forbids_unsafe() {
    let root = workspace_root();
    let mut roots = vec![root.join("src/lib.rs")];
    let mut crate_dirs: Vec<_> = std::fs::read_dir(root.join("crates"))
        .expect("crates dir")
        .map(|e| e.expect("entry").path())
        .collect();
    crate_dirs.sort();
    for dir in crate_dirs {
        let direct = dir.join("src/lib.rs");
        if direct.exists() {
            roots.push(direct);
        }
        // compat/* nests one level deeper.
        if dir.ends_with("compat") {
            for sub in ["rand", "proptest"] {
                let p = dir.join(sub).join("src/lib.rs");
                if p.exists() {
                    roots.push(p);
                }
            }
        }
    }
    roots.sort();
    roots.dedup();
    assert!(roots.len() >= 13, "only {} crate roots found", roots.len());
    for p in roots {
        let src = std::fs::read_to_string(&p).expect("read crate root");
        assert!(
            src.contains("#![forbid(unsafe_code)]"),
            "{} lacks #![forbid(unsafe_code)]",
            p.display()
        );
    }
}
