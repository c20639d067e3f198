//! Fixture tests for the whole-program tier through the public
//! [`lint_sources`] entry point — both tiers run together, exactly as
//! they do over the real workspace. The headline fixture is the
//! *laundering* case: a hash-ordered field iterated behind two layers
//! of helpers, which the token-local L001 provably misses and the
//! call-graph L007 catches with the full entry→source chain.

use layered_lint::lint_sources;
use layered_lint::report::Report;

fn lint(files: &[(&str, &str)]) -> Report {
    let sources: Vec<(String, String)> = files
        .iter()
        .map(|(rel, src)| ((*rel).to_string(), (*src).to_string()))
        .collect();
    lint_sources(&sources)
}

/// The two-file laundering fixture: `store.rs` declares the unordered
/// field, `scan.rs` drains it behind `scan_all → summarize →
/// bucket_order`. No single file both names a hash type and iterates
/// it, so L001 has nothing to see.
fn laundering_fixture() -> Vec<(&'static str, &'static str)> {
    vec![
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
    ]
}

#[test]
fn laundered_iteration_is_invisible_to_l001_but_caught_by_l007() {
    let report = lint(&laundering_fixture());
    assert!(
        !report.findings.iter().any(|f| f.rule == "L001"),
        "the token tier cannot see the laundering: {:?}",
        report.findings
    );
    let l007: Vec<_> = report
        .findings
        .iter()
        .filter(|f| f.rule == "L007")
        .collect();
    assert_eq!(l007.len(), 1, "{:?}", report.findings);
    let f = l007[0];
    assert_eq!(f.file, "crates/x/src/scan.rs");
    assert_eq!(f.line, 3, "flagged at the source site, not the entry");
    // The chain is ≥2 calls deep: entry → helper → source.
    assert!(
        f.message.contains("scan_all → summarize → bucket_order"),
        "full call chain in the diagnostic: {}",
        f.message
    );
}

#[test]
fn the_same_pattern_in_one_function_is_an_l001_matter() {
    // Control: collapse the laundering into one function that names the
    // hash type directly, and the token tier owns the finding.
    let report = lint(&[(
        "crates/x/src/scan.rs",
        "pub fn scan_all(m: &HashMap<u64, u32>) -> Vec<u32> { m.values().copied().collect() }",
    )]);
    assert!(
        report.findings.iter().any(|f| f.rule == "L001"),
        "{:?}",
        report.findings
    );
}

#[test]
fn both_tiers_report_into_one_sorted_document() {
    let mut files = laundering_fixture();
    files.push((
        "crates/x/src/lib.rs",
        "pub fn f(x: Option<u32>) -> u32 { x.unwrap() }",
    ));
    let report = lint(&files);
    let rules: Vec<&str> = report.findings.iter().map(|f| f.rule).collect();
    assert!(rules.contains(&"L003"), "token tier ran: {rules:?}");
    assert!(rules.contains(&"L007"), "graph tier ran: {rules:?}");
    let mut sorted = report.findings.clone();
    sorted.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    assert_eq!(
        report.findings, sorted,
        "combined findings arrive in canonical order"
    );
}

#[test]
fn l009_scopes_to_reachable_code_and_suppressions_carry_reasons() {
    let report = lint(&[(
        "crates/x/src/scan.rs",
        "pub fn scan_bytes(v: &[u8]) -> &[u8] { window(v, 2, 3) }\n\
         fn window(v: &[u8], a: usize, n: usize) -> &[u8] {\n\
         // lint:allow(L009, fixture states the bounds invariant)\n\
         &v[a..a + n] }\n\
         fn cold(v: &[u8]) -> &[u8] { &v[1..1 + 1] }",
    )]);
    assert!(report.findings.is_empty(), "{:?}", report.findings);
    assert_eq!(report.suppressed.len(), 1);
    assert_eq!(report.suppressed[0].finding.rule, "L009");
    assert_eq!(
        report.suppressed[0].reason,
        "fixture states the bounds invariant"
    );
}

#[test]
fn l010_cross_crate_conformance_and_dead_names() {
    let report = lint(&[
        (
            "crates/badmodel/src/lib.rs",
            "pub struct M;\nimpl SimModel for M { fn moves(&self) {} }",
        ),
        (
            "crates/core/src/telemetry/names.rs",
            "registry! {\n    SCAN_PROGRESS = \"scan.progress\",\n    SIM_STEP = \"sim.step\",\n}",
        ),
        (
            "crates/x/src/lib.rs",
            "pub fn emit(obs: &dyn Observer) { obs.counter(names::SCAN_PROGRESS, 1); }",
        ),
    ]);
    let l010: Vec<&str> = report
        .findings
        .iter()
        .filter(|f| f.rule == "L010")
        .map(|f| f.message.as_str())
        .collect();
    assert_eq!(l010.len(), 2, "{:?}", report.findings);
    assert!(l010.iter().any(|m| m.contains("SnapshotState")));
    assert!(
        l010.iter().any(|m| m.contains("sim.step")),
        "the unused constant is dead; the used one is not: {l010:?}"
    );
}

#[test]
fn graph_stats_ride_along_in_the_json_report() {
    let report = lint(&laundering_fixture());
    let stats = report.graph.as_ref().expect("whole-program tier ran");
    assert_eq!(stats.files, 2);
    assert!(stats.fns >= 3, "store has none, scan has three: {stats:?}");
    assert!(
        stats.edges >= 2,
        "scan_all→summarize→bucket_order: {stats:?}"
    );
    assert!(stats.entries >= 1);
    let json = report.to_json();
    let rendered = json.to_string();
    assert!(rendered.contains("\"graph\":{"), "{rendered}");
    assert!(rendered.contains("\"unordered-iter\""), "{rendered}");
}

#[test]
fn sarif_export_carries_results_rules_and_suppressions() {
    let mut files = laundering_fixture();
    files.push((
        "crates/x/src/pack.rs",
        "pub fn build_pack(x: Option<u32>) -> u32 {\n\
         x.unwrap() // lint:allow(L003, fixture)\n}",
    ));
    let report = lint(&files);
    let sarif = report.to_sarif().to_string();
    let parsed = layered_core::telemetry::json::Json::parse(&sarif).expect("SARIF parses");
    assert_eq!(parsed["version"].as_str(), Some("2.1.0"));
    let runs = &parsed["runs"];
    let driver = &runs[0]["tool"]["driver"];
    assert_eq!(driver["name"].as_str(), Some("layered-lint"));
    // One catalog entry per rule, L001..L010.
    let rules_json = driver["rules"].to_string();
    for id in ["L001", "L007", "L010"] {
        assert!(rules_json.contains(id), "{rules_json}");
    }
    let results = runs[0]["results"].to_string();
    assert!(results.contains("\"ruleId\":\"L007\""), "{results}");
    assert!(results.contains("\"startLine\":3"), "{results}");
    assert!(
        results.contains("\"suppressions\":[{\"kind\":\"inSource\"}]"),
        "suppressed finding carried as a suppressed SARIF result: {results}"
    );
    // Canonical: re-render round-trips byte-identically.
    assert_eq!(parsed.to_string(), sarif);
}
