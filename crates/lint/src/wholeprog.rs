//! The whole-program rules L007, L009 and L010, computed over the call
//! graph.
//!
//! Where L001–L006 are per-file token patterns, these rules are
//! reachability questions over [`crate::graph::CallGraph`]:
//!
//! * **L007** — nondeterminism taint: a wall-clock, laundered-iteration
//!   or randomness source reachable from a scan/sim/snapshot entry
//!   point, flagged *at the source* with the entry→source call chain in
//!   the message (so one suppression covers one source, not one per
//!   entry).
//! * **L009** — panic freedom: a computed-range slice reachable from an
//!   entry point, with the call chain.
//! * **L010** — cross-crate conformance: `SimModel`/`Symmetric`
//!   implementers whose crate lacks a `SnapshotState` impl or a
//!   `state_packer` definition; and telemetry name constants declared in
//!   `telemetry/names.rs` but used in no other file.
//!
//! Findings land in real files and are waivable with the same
//! `// lint:allow(L00x, reason)` comments as the token rules; the
//! suppression logic here mirrors `rules::check_file` (same line or the
//! next code line).

use std::collections::BTreeSet;

use crate::graph::{CallGraph, ChainStep, Effect, GraphStats};
use crate::items::Workspace;
use crate::lexer::TokKind;
use crate::rules::{
    next_code_line, FileKind, FileReport, Finding, Severity, SuppressedFinding, RULES,
};

/// Runs L007, L009 and L010 over `sources` and returns the merged
/// outcome plus the call-graph statistics for `--graph-stats`.
///
/// `sources` is every workspace file as `(rel path, kind, src)`; only
/// library/bin files contribute graph nodes, but test/bench sources
/// still count as telemetry use sites for L010.
#[must_use]
pub fn check_workspace(sources: &[(String, FileKind, &str)]) -> (FileReport, GraphStats) {
    let ws = Workspace::parse(sources);
    let g = CallGraph::build(&ws);
    let mut raw: Vec<Finding> = Vec::new();
    rule_l007(&ws, &g, &mut raw);
    rule_l009(&ws, &g, &mut raw);
    rule_l010(&ws, sources, &mut raw);
    raw.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    raw.dedup();

    // Apply suppressions per defining file, mirroring rules::check_file.
    let mut report = FileReport::default();
    'findings: for finding in raw {
        if let Some(file) = ws.files.iter().find(|f| f.rel == finding.file) {
            for sup in &file.suppressions {
                let covers = sup.line == finding.line
                    || next_code_line(&file.toks, sup.line) == Some(finding.line);
                if covers && sup.rules.iter().any(|r| r == finding.rule) {
                    report.suppressed.push(SuppressedFinding {
                        finding,
                        reason: sup.reason.clone(),
                    });
                    continue 'findings;
                }
            }
        }
        report.findings.push(finding);
    }
    (report, GraphStats::compute(&ws, &g))
}

fn severity_of(rule: &str) -> Severity {
    RULES
        .iter()
        .find(|r| r.id == rule)
        .map_or(Severity::Deny, |r| r.severity)
}

/// Renders an entry→site call chain as `a → b → c`.
fn chain_names(ws: &Workspace, chain: &[ChainStep]) -> String {
    chain
        .iter()
        .map(|s| ws.fns[s.func].qualified_name())
        .collect::<Vec<_>>()
        .join(" → ")
}

/// L007 + L009 shared shape: flag local occurrences of `eff` in
/// functions reachable from the entry set, chain included.
fn taint_rule(
    ws: &Workspace,
    g: &CallGraph,
    rule: &'static str,
    effects: &[Effect],
    out: &mut Vec<Finding>,
) {
    for (idx, f) in ws.fns.iter().enumerate() {
        if !g.reachable(idx) {
            continue;
        }
        let chain = g.chain_from_entry(idx);
        for &eff in effects {
            let mut seen_lines: BTreeSet<u32> = BTreeSet::new();
            for occ in g.local[idx].iter().filter(|l| l.effect == eff) {
                if !seen_lines.insert(occ.line) {
                    continue;
                }
                let via = chain_names(ws, &chain);
                out.push(Finding {
                    rule,
                    severity: severity_of(rule),
                    file: ws.files[f.file].rel.clone(),
                    line: occ.line,
                    message: format!("{} — reachable from entry via {via}", occ.detail),
                });
            }
        }
    }
}

/// L007: nondeterministic sources reachable from entry points.
fn rule_l007(ws: &Workspace, g: &CallGraph, out: &mut Vec<Finding>) {
    taint_rule(
        ws,
        g,
        "L007",
        &[Effect::WallClock, Effect::UnorderedIter, Effect::Random],
        out,
    );
}

/// L009: computed-range slices reachable from entry points.
fn rule_l009(ws: &Workspace, g: &CallGraph, out: &mut Vec<Finding>) {
    taint_rule(ws, g, "L009", &[Effect::PanicIndex], out);
}

/// L010: model-crate conformance and dead telemetry names.
fn rule_l010(ws: &Workspace, sources: &[(String, FileKind, &str)], out: &mut Vec<Finding>) {
    // (1) Every crate with a SimModel/Symmetric impl provides
    // SnapshotState and state_packer.
    let crate_of = |file: usize| ws.files[file].crate_name.as_str();
    let crates_with_snapshot: BTreeSet<&str> = ws
        .impls
        .iter()
        .filter(|i| i.trait_name.as_deref() == Some("SnapshotState"))
        .map(|i| crate_of(i.file))
        .collect();
    let crates_with_packer: BTreeSet<&str> = ws
        .fns
        .iter()
        .filter(|f| f.name == "state_packer")
        .map(|f| crate_of(f.file))
        .collect();
    let mut flagged: BTreeSet<(String, String)> = BTreeSet::new();
    for imp in ws
        .impls
        .iter()
        .filter(|i| matches!(i.trait_name.as_deref(), Some("SimModel" | "Symmetric")))
    {
        let krate = crate_of(imp.file);
        let mut missing: Vec<&str> = Vec::new();
        if !crates_with_snapshot.contains(krate) {
            missing.push("a `SnapshotState` impl");
        }
        if !crates_with_packer.contains(krate) {
            missing.push("a `state_packer` definition");
        }
        if missing.is_empty() {
            continue;
        }
        if !flagged.insert((krate.to_string(), imp.self_ty.clone())) {
            continue;
        }
        out.push(Finding {
            rule: "L010",
            severity: severity_of("L010"),
            file: ws.files[imp.file].rel.clone(),
            line: imp.line,
            message: format!(
                "`{}` implements `{}` but crate `{krate}` provides no {} — its state spaces cannot be checkpointed/packed like the other models'",
                imp.self_ty,
                imp.trait_name.as_deref().unwrap_or(""),
                missing.join(" or "),
            ),
        });
    }

    // (2) Dead registry names: a `CONST = "name"` entry of
    // telemetry/names.rs whose constant no other file mentions.
    let Some(reg) = ws
        .files
        .iter()
        .find(|f| f.rel.ends_with("telemetry/names.rs"))
    else {
        return;
    };
    for w in reg.toks.windows(3) {
        let (id, eq, text) = (&w[0], &w[1], &w[2]);
        if !(id.kind == TokKind::Ident
            && id
                .text
                .bytes()
                .all(|b| b.is_ascii_uppercase() || b.is_ascii_digit() || b == b'_')
            && eq.is_punct('=')
            && text.kind == TokKind::Str)
        {
            continue;
        }
        let used = sources
            .iter()
            .any(|(rel, _, src)| rel != &reg.rel && mentions(src, &id.text));
        if !used {
            out.push(Finding {
                rule: "L010",
                severity: severity_of("L010"),
                file: reg.rel.clone(),
                line: id.line,
                message: format!(
                    "telemetry name `{}` (\"{}\") is registered but never used — dead registry entries are stale contracts",
                    id.text, text.text
                ),
            });
        }
    }
}

/// Whether `src` contains `ident` as a whole identifier.
fn mentions(src: &str, ident: &str) -> bool {
    let is_ident = |c: char| c.is_ascii_alphanumeric() || c == '_';
    src.match_indices(ident).any(|(at, _)| {
        !src[..at].ends_with(is_ident) && !src[at + ident.len()..].starts_with(is_ident)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(files: &[(&str, &str)]) -> FileReport {
        let sources: Vec<(String, FileKind, &str)> = files
            .iter()
            .map(|(rel, src)| ((*rel).to_string(), crate::classify(rel), *src))
            .collect();
        check_workspace(&sources).0
    }

    #[test]
    fn l007_flags_cross_file_laundering_with_a_chain() {
        // File A declares the unordered field; file B iterates it behind
        // a helper. Token-local L001 sees neither: A never iterates, and
        // B never names a hash type.
        let report = run(&[
            (
                "crates/x/src/store.rs",
                "pub struct Store { pub buckets: HashMap<u64, u32> }",
            ),
            (
                "crates/x/src/scan.rs",
                "pub fn scan_all(s: &Store) -> Vec<u32> { summarize(s) }\n\
                 fn summarize(s: &Store) -> Vec<u32> { bucket_order(s) }\n\
                 fn bucket_order(s: &Store) -> Vec<u32> { s.buckets.values().copied().collect() }",
            ),
        ]);
        assert_eq!(report.findings.len(), 1, "{:?}", report.findings);
        let f = &report.findings[0];
        assert_eq!(f.rule, "L007");
        assert_eq!(f.file, "crates/x/src/scan.rs");
        assert!(
            f.message.contains("scan_all → summarize → bucket_order"),
            "≥2-deep chain in the diagnostic: {}",
            f.message
        );
    }

    #[test]
    fn l007_is_silent_when_the_sink_is_ordered() {
        let report = run(&[
            (
                "crates/x/src/store.rs",
                "pub struct Store { pub buckets: HashMap<u64, u32> }",
            ),
            (
                "crates/x/src/scan.rs",
                "pub fn scan_all(s: &Store) -> BTreeMap<u64, u32> {\n\
                 let mut out = BTreeMap::new();\n\
                 for (k, v) in s.buckets.iter() { out.insert(*k, *v); }\nout }",
            ),
        ]);
        assert!(report.findings.is_empty(), "{:?}", report.findings);
    }

    #[test]
    fn l007_flags_wall_clock_behind_a_helper() {
        let report = run(&[(
            "crates/x/src/scan.rs",
            "pub fn scan_run() -> u64 { stamp() }\n\
             fn stamp() -> u64 { let t = std::time::Instant::now(); 0 }",
        )]);
        assert_eq!(report.findings.len(), 1);
        assert_eq!(report.findings[0].rule, "L007");
        assert!(report.findings[0].message.contains("scan_run → stamp"));
    }

    #[test]
    fn l009_flags_reachable_computed_range_slices() {
        let report = run(&[(
            "crates/x/src/scan.rs",
            "pub fn scan_bytes(v: &[u8]) -> &[u8] { window(v, 2, 3) }\n\
             fn window(v: &[u8], a: usize, n: usize) -> &[u8] { &v[a..a + n] }\n\
             fn unreachable_helper(v: &[u8]) -> &[u8] { &v[1..1 + 1] }",
        )]);
        assert_eq!(report.findings.len(), 1, "{:?}", report.findings);
        assert_eq!(report.findings[0].rule, "L009");
        assert_eq!(report.findings[0].line, 2);
        assert!(report.findings[0].message.contains("scan_bytes → window"));
    }

    #[test]
    fn l010_flags_a_model_crate_without_snapshot_support() {
        let report = run(&[
            (
                "crates/badmodel/src/lib.rs",
                "pub struct M;\nimpl SimModel for M { fn moves(&self) {} }",
            ),
            (
                "crates/goodmodel/src/lib.rs",
                "pub struct G;\nimpl SimModel for G { fn moves(&self) {} }\n\
                 impl SnapshotState for G {}\n\
                 impl G { fn state_packer(&self) -> u32 { 0 } }",
            ),
        ]);
        assert_eq!(report.findings.len(), 1, "{:?}", report.findings);
        let f = &report.findings[0];
        assert_eq!(f.rule, "L010");
        assert!(f.file.contains("badmodel"));
        assert!(f.message.contains("SnapshotState"));
    }

    #[test]
    fn l010_flags_dead_registry_names() {
        let report = run(&[
            (
                "crates/core/src/telemetry/names.rs",
                "registry! {\n    SIM_STEP = \"sim.step\",\n    SIM_RUN = \"sim.run\",\n}",
            ),
            (
                "crates/x/src/lib.rs",
                "pub fn busy(o: &dyn Observer) { o.counter(names::SIM_RUN, 1); }\n\
                 // SIM_STEP_COUNT is a different identifier\n\
                 pub fn quiet() {}",
            ),
        ]);
        assert_eq!(report.findings.len(), 1, "{:?}", report.findings);
        let f = &report.findings[0];
        assert_eq!((f.rule, f.line), ("L010", 2));
        assert!(f.message.contains("SIM_STEP") && f.message.contains("sim.step"));
    }

    #[test]
    fn suppressions_cover_whole_program_findings() {
        let report = run(&[(
            "crates/x/src/scan.rs",
            "pub fn scan_run() -> u64 { stamp() }\n\
             fn stamp() -> u64 {\n\
             // lint:allow(L007, timing is stripped before hashing)\n\
             let t = std::time::Instant::now(); 0 }",
        )]);
        assert!(report.findings.is_empty(), "{:?}", report.findings);
        assert_eq!(report.suppressed.len(), 1);
        assert_eq!(
            report.suppressed[0].reason,
            "timing is stripped before hashing"
        );
    }
}
