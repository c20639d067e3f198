//! Every experiment of the harness must match the paper's claim.
//!
//! This is the top-level reproduction gate. One quick-scope run (CI-friendly
//! sizes) of every experiment is shared by all the tests below, so no
//! experiment runs twice: they assert its verdicts, and pin each
//! experiment's machine-readable record against a fixture committed in
//! `tests/records/`.

use std::sync::OnceLock;

use layered_bench::{all_experiments, Experiment, Scope};
use layered_core::telemetry::json::Json;

/// The quick-scope run, made on first use.
fn quick() -> &'static [Experiment] {
    static RUN: OnceLock<Vec<Experiment>> = OnceLock::new();
    RUN.get_or_init(|| all_experiments(Scope::Quick))
}

/// The experiment with id `id` from the quick-scope run.
fn experiment(id: &str) -> &'static Experiment {
    quick()
        .iter()
        .find(|e| e.id == id)
        .unwrap_or_else(|| panic!("no experiment {id}"))
}

#[test]
fn every_experiment_matches_the_paper() {
    for exp in quick() {
        assert!(
            exp.ok,
            "experiment {} ({}) deviated from the paper:\n{}",
            exp.id, exp.claim, exp.table
        );
    }
}

#[test]
fn experiment_tables_are_nonempty() {
    for exp in quick() {
        assert!(
            !exp.table.is_empty(),
            "experiment {} printed no rows",
            exp.id
        );
    }
}

#[test]
fn experiment_ids_are_unique() {
    let mut ids: Vec<&str> = quick().iter().map(|e| e.id).collect();
    let before = ids.len();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), before, "duplicate experiment ids");
}

#[test]
fn lemma_3_6_alone() {
    assert!(experiment("E-3.6").ok);
}

#[test]
fn theorem_4_2_alone() {
    assert!(experiment("E-4.2").ok);
}

#[test]
fn lower_bound_alone() {
    assert!(experiment("E-6.3").ok);
}

#[test]
fn task_solvability_alone() {
    assert!(experiment("E-7.3").ok);
}

/// Nulls every `_ns`-suffixed member, recursively: the documented timing
/// fields (the same stripping `crates/bench/tests/byte_stability.rs`
/// applies). No other field is masked: every counter, gauge, histogram,
/// span count and event of a quick-scope record is deterministic.
fn strip_timing(json: &mut Json) {
    match json {
        Json::Object(members) => {
            for (key, value) in members.iter_mut() {
                if key.ends_with("_ns") {
                    *value = Json::Null;
                } else {
                    strip_timing(value);
                }
            }
        }
        Json::Array(items) => {
            for item in items {
                strip_timing(item);
            }
        }
        _ => {}
    }
}

/// Each quick-scope record, timing nulled, equals its fixture
/// `tests/records/<id>.json`, and every fixture belongs to an experiment.
/// The fixtures are not regenerated to make a change pass: a diff against
/// them is a change in what an experiment measures.
#[test]
fn experiment_records_match_their_fixtures() {
    let dir = format!("{}/tests/records", env!("CARGO_MANIFEST_DIR"));
    for exp in quick() {
        let mut record = exp.json_record();
        strip_timing(&mut record);
        let path = format!("{dir}/{}.json", exp.id);
        let fixture =
            std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {path}: {e}"));
        assert_eq!(
            record.to_string(),
            fixture.trim_end(),
            "record of {} differs from {path}",
            exp.id
        );
    }
    let mut fixtures: Vec<String> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("listing {dir}: {e}"))
        .map(|entry| entry.expect("directory entry").file_name())
        .map(|name| name.to_string_lossy().into_owned())
        .collect();
    fixtures.sort_unstable();
    let mut expected: Vec<String> = quick().iter().map(|e| format!("{}.json", e.id)).collect();
    expected.sort_unstable();
    assert_eq!(fixtures, expected, "stale or missing fixtures in {dir}");
}
