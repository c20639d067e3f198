//! Fixture tests for the lint engine: a known-bad and a known-good
//! snippet per rule, plus suppression handling.

use layered_lint::rules::{check_file, FileInput, FileKind, Severity, RULES};

fn lint(src: &str) -> layered_lint::rules::FileReport {
    lint_as(src, FileKind::Library, false)
}

fn lint_as(src: &str, kind: FileKind, crate_root: bool) -> layered_lint::rules::FileReport {
    check_file(&FileInput {
        path: "crates/fake/src/fixture.rs".to_string(),
        kind,
        crate_root,
        src,
    })
}

fn rules_hit(report: &layered_lint::rules::FileReport) -> Vec<&'static str> {
    report.findings.iter().map(|f| f.rule).collect()
}

#[test]
fn l001_flags_hashmap_iteration_in_library_code() {
    let bad = r#"
        use std::collections::HashMap;
        fn leak(m: &HashMap<u32, u32>) -> Vec<u32> {
            m.keys().copied().collect()
        }
    "#;
    let report = lint(bad);
    assert_eq!(rules_hit(&report), vec!["L001"]);
    assert_eq!(report.findings[0].line, 4);
    assert!(report.findings[0].message.contains("keys"));
}

#[test]
fn l001_flags_let_bound_sets_and_for_loops() {
    let bad = r#"
        fn leak() {
            let mut seen = std::collections::HashSet::new();
            seen.insert(1u32);
            for x in &seen { emit(x); }
        }
    "#;
    assert_eq!(rules_hit(&lint(bad)), vec!["L001"]);
}

#[test]
fn l001_allows_order_insensitive_reductions_and_sorts() {
    let good = r#"
        use std::collections::{HashMap, HashSet};
        fn fine(m: &HashMap<u32, u32>, s: &HashSet<u32>) -> (usize, u32, Vec<u32>) {
            let n = m.keys().count();
            let mx = s.iter().copied().max().unwrap_or(0);
            let mut v: Vec<u32> = m.values().copied().collect::<std::collections::BTreeSet<_>>().into_iter().collect();
            v.extend(s.iter().copied().map(|x| x).sum::<u32>().to_string().bytes().map(u32::from));
            (n, mx, v)
        }
    "#;
    assert_eq!(rules_hit(&lint(good)), Vec::<&str>::new());
}

#[test]
fn l001_exempt_in_cfg_test_and_test_files() {
    let in_test_mod = r#"
        fn lib_code() {}
        #[cfg(test)]
        mod tests {
            fn helper(m: &std::collections::HashMap<u32, u32>) -> Vec<u32> {
                m.keys().copied().collect()
            }
        }
    "#;
    assert_eq!(rules_hit(&lint(in_test_mod)), Vec::<&str>::new());
    let bad = "fn f(m: &std::collections::HashMap<u32,u32>) -> Vec<u32> { m.keys().collect() }";
    assert_eq!(
        rules_hit(&lint_as(bad, FileKind::Test, false)),
        Vec::<&str>::new()
    );
    assert_eq!(
        rules_hit(&lint_as(bad, FileKind::Example, false)),
        Vec::<&str>::new()
    );
}

#[test]
fn l002_flags_wall_clock_reads() {
    let bad = r#"
        fn record() -> u64 {
            let t = std::time::Instant::now();
            t.elapsed().as_nanos() as u64
        }
    "#;
    assert_eq!(rules_hit(&lint(bad)), vec!["L002"]);
    let bad_sys = "fn now() { let _ = SystemTime::now(); }";
    assert_eq!(rules_hit(&lint(bad_sys)), vec!["L002"]);
}

#[test]
fn l002_exempt_in_benches() {
    let timing = "fn bench() { let _ = std::time::Instant::now(); }";
    assert_eq!(
        rules_hit(&lint_as(timing, FileKind::Bench, false)),
        Vec::<&str>::new()
    );
}

#[test]
fn l003_flags_unwrap_and_empty_expect() {
    let bad = r#"
        fn f(x: Option<u32>, y: Option<u32>) -> u32 {
            x.unwrap() + y.expect("")
        }
    "#;
    let report = lint(bad);
    assert_eq!(rules_hit(&report), vec!["L003", "L003"]);
    assert_eq!(report.findings[0].severity, Severity::Warn);
}

#[test]
fn l003_allows_stated_invariants_and_test_code() {
    let good = r#"
        fn f(x: Option<u32>) -> u32 {
            x.expect("interning guarantees the id was assigned")
        }
        #[cfg(test)]
        mod tests {
            fn t(x: Option<u32>) -> u32 { x.unwrap() }
        }
    "#;
    assert_eq!(rules_hit(&lint(good)), Vec::<&str>::new());
    let bench = "fn b(x: Option<u32>) -> u32 { x.unwrap() }";
    assert_eq!(
        rules_hit(&lint_as(bench, FileKind::Bench, false)),
        Vec::<&str>::new()
    );
}

#[test]
fn l003_does_not_fire_on_strings_or_comments() {
    let good = r#"
        /// Calling `.unwrap()` here would be wrong; see the docs.
        fn f() -> &'static str {
            "contains .unwrap() in text"
        }
    "#;
    assert_eq!(rules_hit(&lint(good)), Vec::<&str>::new());
}

#[test]
fn l004_requires_both_crate_headers() {
    let bare = "//! Docs.\npub fn f() {}";
    let report = lint_as(bare, FileKind::Library, true);
    assert_eq!(rules_hit(&report), vec!["L004", "L004"]);
    let good = "//! Docs.\n#![forbid(unsafe_code)]\n#![deny(missing_docs)]\npub fn f() {}";
    assert_eq!(
        rules_hit(&lint_as(good, FileKind::Library, true)),
        Vec::<&str>::new()
    );
    // Non-roots are exempt.
    assert_eq!(
        rules_hit(&lint_as(bare, FileKind::Library, false)),
        Vec::<&str>::new()
    );
}

#[test]
fn l006_flags_float_formatting_into_json_text() {
    let bad = r#"
        fn emit(rate: u64) -> String {
            format!("{{\"rate\":{}}}", rate as f64 / 1000.0)
        }
    "#;
    assert_eq!(rules_hit(&lint(bad)), vec!["L006"]);
}

#[test]
fn l006_allows_integer_json_and_non_json_floats() {
    let good = r#"
        fn emit(delta: u64, ratio: f64) -> (String, String) {
            let json = format!("{{\"delta\":{delta}}}");
            let label = format!("ratio {:.3}", ratio * 0.5);
            (json, label)
        }
    "#;
    assert_eq!(rules_hit(&lint(good)), Vec::<&str>::new());
}

#[test]
fn suppressions_waive_and_are_counted_with_reasons() {
    let suppressed = r#"
        fn record() -> u64 {
            // lint:allow(L002, timing lands in a documented field)
            let t = std::time::Instant::now();
            t.elapsed().as_nanos() as u64
        }
    "#;
    let report = lint(suppressed);
    assert!(report.findings.is_empty());
    assert_eq!(report.suppressed.len(), 1);
    assert_eq!(report.suppressed[0].finding.rule, "L002");
    assert_eq!(
        report.suppressed[0].reason,
        "timing lands in a documented field"
    );
}

#[test]
fn suppression_only_covers_its_own_rule_and_adjacent_line() {
    let wrong_rule = r#"
        fn f(x: Option<u32>) -> u32 {
            // lint:allow(L002, wrong rule for this site)
            x.unwrap()
        }
    "#;
    assert_eq!(rules_hit(&lint(wrong_rule)), vec!["L003"]);
    let too_far = r#"
        // lint:allow(L002, too far above the offending line)
        fn pad() {}
        fn record() -> std::time::Instant { std::time::Instant::now() }
    "#;
    assert_eq!(rules_hit(&lint(too_far)), vec!["L002"]);
}

#[test]
fn trailing_same_line_suppressions_work() {
    let src = "fn f(x: Option<u32>) -> u32 { x.unwrap() } // lint:allow(L003, fixture)";
    let report = lint(src);
    assert!(report.findings.is_empty());
    assert_eq!(report.suppressed.len(), 1);
}

#[test]
fn catalog_is_complete_and_ordered() {
    let ids: Vec<&str> = RULES.iter().map(|r| r.id).collect();
    assert_eq!(
        ids,
        vec!["L001", "L002", "L003", "L004", "L006", "L007", "L009", "L010"]
    );
}

#[test]
fn every_rule_has_explain_prose() {
    for r in RULES {
        let prose = layered_lint::rules::explain(r.id)
            .unwrap_or_else(|| panic!("--explain {} has prose", r.id));
        assert!(
            prose.starts_with(r.id),
            "explain text opens with the rule id: {prose}"
        );
        assert!(prose.len() > 120, "more than a one-liner for {}", r.id);
    }
    assert!(layered_lint::rules::explain("L999").is_none());
    // Retired ids stay retired.
    assert!(layered_lint::rules::explain("L005").is_none());
    assert!(layered_lint::rules::explain("L008").is_none());
}
