//! The repo-wide lint-clean assertion: the workspace must have zero
//! unsuppressed findings, and every suppression must state a reason.
//!
//! This is the CI teeth of the determinism contract — a `HashMap`
//! iteration leaking into output, a dead telemetry name, or a new
//! `unwrap()` in a library hot path fails this test.

use layered_lint::{default_root, lint_workspace};

#[test]
fn workspace_is_lint_clean() {
    let root = default_root();
    let report = lint_workspace(&root);
    assert!(
        report.files_scanned > 50,
        "walker found only {} files under {root:?} — wrong root?",
        report.files_scanned
    );
    let rendered: Vec<String> = report
        .findings
        .iter()
        .map(|f| format!("{}:{}: [{}] {}", f.file, f.line, f.rule, f.message))
        .collect();
    assert!(
        report.is_clean(),
        "workspace has {} unsuppressed lint finding(s):\n{}",
        report.findings.len(),
        rendered.join("\n")
    );
}

#[test]
fn every_suppression_states_a_reason() {
    let report = lint_workspace(&default_root());
    for s in &report.suppressed {
        assert!(
            !s.reason.is_empty(),
            "{}:{}: lint:allow({}) without a reason — suppressions must say why",
            s.finding.file,
            s.finding.line,
            s.finding.rule
        );
    }
}

#[test]
fn json_report_is_canonical_and_consistent() {
    let report = lint_workspace(&default_root());
    let json = report.to_json();
    let rendered = json.to_string();
    // Canonical: re-rendering a parsed copy is byte-identical.
    let reparsed = layered_core::telemetry::json::Json::parse(&rendered).expect("report parses");
    assert_eq!(
        reparsed.to_string(),
        rendered,
        "canonical key order survives"
    );
    // Counts in the report body match the structured totals.
    let by_rule_total: u64 = [
        "L001", "L002", "L003", "L004", "L006", "L007", "L009", "L010",
    ]
    .iter()
    .filter_map(|r| reparsed["rules"][*r]["suppressed"].as_u64())
    .sum();
    assert_eq!(by_rule_total, report.suppressed.len() as u64);
    assert_eq!(
        reparsed["files_scanned"].as_u64(),
        Some(report.files_scanned as u64)
    );
    // The graph census from the whole-program tier rides along.
    let graph = &reparsed["graph"];
    assert!(graph["fns"].as_u64().unwrap_or(0) > 500, "{graph:?}");
    assert!(graph["entries"].as_u64().unwrap_or(0) > 20, "{graph:?}");
}

#[test]
fn finding_and_suppression_census_is_exact() {
    // The workspace carries zero findings and exactly one suppression
    // (the documented `Instant` read inside `telemetry::clock`). A new
    // suppression is a deliberate act: update this count in the same
    // change that adds the `lint:allow` and its reason.
    let report = lint_workspace(&default_root());
    assert_eq!(report.findings.len(), 0);
    assert_eq!(
        report.suppressed.len(),
        1,
        "suppression census changed: {:?}",
        report
            .suppressed
            .iter()
            .map(|s| format!(
                "{}:{} [{}] {}",
                s.finding.file, s.finding.line, s.finding.rule, s.reason
            ))
            .collect::<Vec<_>>()
    );
    assert_eq!(report.suppressed[0].finding.rule, "L002");
    assert_eq!(
        report.suppressed[0].finding.file,
        "crates/core/src/telemetry/clock.rs"
    );
}
