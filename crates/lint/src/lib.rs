//! `layered-lint` — the determinism & contract static-analysis pass.
//!
//! Every engine in this workspace rests on a determinism contract:
//! interning order and snapshot bytes are a function of the model alone,
//! quotient scans de-quotient into verifier-clean executions, sim
//! schedules replay bit-for-bit, and `--json` experiment records are
//! byte-stable modulo documented timing fields. This crate guards that
//! contract *statically*: a hand-rolled, offline, dependency-free pass
//! over the workspace sources — a small Rust tokenizer
//! ([`lexer`]) plus a rule engine ([`rules`]) with per-file token rules
//! (L001–L006) and whole-program call-graph rules ([`wholeprog`]:
//! L007, L009, L010), reported through the same hand-rolled JSON
//! encoder as the experiment records ([`report`]).
//!
//! Run it as a binary:
//!
//! ```text
//! cargo run -p layered-lint                  # human-readable findings
//! cargo run -p layered-lint -- --json lint.json
//! ```
//!
//! or through the repo-wide assertion test (`tests/repo_clean.rs`),
//! which fails if any unsuppressed finding exists. Findings are waived
//! with inline `// lint:allow(L00x, reason)` comments; suppressions are
//! counted in the report and must carry a reason.
//!
//! See DESIGN.md ("Static analysis & the determinism contract") for the
//! rule catalog and the suppression policy.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod graph;
pub mod items;
pub mod lexer;
pub mod report;
pub mod rules;
pub mod wholeprog;

use std::fs;
use std::path::{Path, PathBuf};

use report::Report;
use rules::{check_file, FileInput, FileKind};

/// A workspace source file scheduled for linting.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SourceFile {
    /// Absolute path on disk.
    pub abs: PathBuf,
    /// Workspace-relative path with `/` separators.
    pub rel: String,
    /// Classification (decides which rules apply).
    pub kind: FileKind,
    /// Whether this is a crate root (`src/lib.rs`).
    pub crate_root: bool,
}

/// Collects every lintable `.rs` file under `root`, in sorted order.
///
/// Scanned trees: the workspace `src/`, `tests/`, `examples/`,
/// `benches/`, and each `crates/<name>/{src,tests,benches,examples}`.
/// `vendor/` (external stand-ins) and `target/` are skipped. The
/// result is sorted by relative path so reports — and therefore the
/// lint's own output — are deterministic regardless of directory
/// enumeration order.
#[must_use]
pub fn workspace_files(root: &Path) -> Vec<SourceFile> {
    let mut files = Vec::new();
    for dir in ["src", "tests", "examples", "benches"] {
        collect(&root.join(dir), root, &mut files);
    }
    if let Ok(entries) = fs::read_dir(root.join("crates")) {
        for entry in entries.flatten() {
            for dir in ["src", "tests", "benches", "examples"] {
                collect(&entry.path().join(dir), root, &mut files);
            }
        }
    }
    files.sort_by(|a, b| a.rel.cmp(&b.rel));
    files
}

fn collect(dir: &Path, root: &Path, out: &mut Vec<SourceFile>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            collect(&path, root, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .components()
                .map(|c| c.as_os_str().to_string_lossy())
                .collect::<Vec<_>>()
                .join("/");
            out.push(SourceFile {
                kind: classify(&rel),
                crate_root: rel.ends_with("src/lib.rs"),
                abs: path,
                rel,
            });
        }
    }
}

/// Classifies a workspace-relative path into a [`FileKind`].
#[must_use]
pub fn classify(rel: &str) -> FileKind {
    if rel.contains("/tests/") || rel.starts_with("tests/") {
        FileKind::Test
    } else if rel.contains("/benches/") || rel.starts_with("benches/") {
        FileKind::Bench
    } else if rel.contains("/examples/") || rel.starts_with("examples/") {
        FileKind::Example
    } else if rel.contains("/bin/") || rel.ends_with("/main.rs") || rel.ends_with("build.rs") {
        FileKind::Bin
    } else {
        FileKind::Library
    }
}

/// Lints a set of in-memory sources — both tiers: the per-file token
/// rules (L001–L006) and the whole-program call-graph rules (L007, L009,
/// L010). Each entry is `(rel path, src)`; classification is derived
/// from the path exactly as for on-disk files.
///
/// This is the engine behind [`lint_workspace`] and the fixture suites'
/// way of exercising multi-file rules without touching disk.
#[must_use]
pub fn lint_sources(sources: &[(String, String)]) -> Report {
    let mut result = Report::default();
    for (rel, src) in sources {
        let outcome = check_file(&FileInput {
            path: rel.clone(),
            kind: classify(rel),
            crate_root: rel.ends_with("src/lib.rs"),
            src,
        });
        result.findings.extend(outcome.findings);
        result.suppressed.extend(outcome.suppressed);
        result.files_scanned += 1;
    }
    let typed: Vec<(String, FileKind, &str)> = sources
        .iter()
        .map(|(rel, src)| (rel.clone(), classify(rel), src.as_str()))
        .collect();
    let (whole, stats) = wholeprog::check_workspace(&typed);
    result.findings.extend(whole.findings);
    result.suppressed.extend(whole.suppressed);
    result.graph = Some(stats);
    result.sort();
    result
}

/// Lints every workspace source under `root` against the full catalog
/// (token rules and call-graph rules).
#[must_use]
pub fn lint_workspace(root: &Path) -> Report {
    let sources: Vec<(String, String)> = workspace_files(root)
        .into_iter()
        .filter_map(|file| {
            fs::read_to_string(&file.abs)
                .ok()
                .map(|src| (file.rel, src))
        })
        .collect();
    lint_sources(&sources)
}

/// Locates the workspace root: `--root`'s value if given, else the
/// lint crate's own manifest directory's grandparent (set by cargo),
/// else the current directory.
#[must_use]
pub fn default_root() -> PathBuf {
    if let Some(manifest) = std::env::var_os("CARGO_MANIFEST_DIR") {
        let manifest = PathBuf::from(manifest);
        if let Some(root) = manifest.ancestors().nth(2) {
            if root.join("Cargo.toml").exists() {
                return root.to_path_buf();
            }
        }
    }
    PathBuf::from(".")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_covers_the_layout() {
        assert_eq!(classify("crates/core/src/space.rs"), FileKind::Library);
        assert_eq!(classify("crates/core/tests/space_props.rs"), FileKind::Test);
        assert_eq!(classify("crates/bench/benches/sim.rs"), FileKind::Bench);
        assert_eq!(classify("examples/quickstart.rs"), FileKind::Example);
        assert_eq!(
            classify("crates/bench/src/bin/experiments.rs"),
            FileKind::Bin
        );
        assert_eq!(classify("tests/interning.rs"), FileKind::Test);
        assert_eq!(classify("src/lib.rs"), FileKind::Library);
    }

    #[test]
    fn workspace_walk_is_sorted_and_finds_crate_roots() {
        let root = default_root();
        let files = workspace_files(&root);
        assert!(!files.is_empty(), "workspace sources under {root:?}");
        let rels: Vec<&str> = files.iter().map(|f| f.rel.as_str()).collect();
        let mut sorted = rels.clone();
        sorted.sort_unstable();
        assert_eq!(rels, sorted, "deterministic file order");
        assert!(files
            .iter()
            .any(|f| f.rel == "crates/lint/src/lib.rs" && f.crate_root));
        assert!(!rels.iter().any(|r| r.contains("vendor/")));
    }
}
