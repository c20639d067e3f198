//! The machine-readable twin of every experiment table: each experiment
//! must emit a JSON record that parses back, carries the headline engine
//! counters, and telemetry must never perturb the analysis itself.

use layered_bench::{all_experiments, Scope};
use layered_core::telemetry::json::Json;
use layered_core::telemetry::MetricsRegistry;
use layered_core::telemetry::NOOP;
use layered_core::{census, check_consensus};
use layered_protocols::FloodMin;
use layered_sync_crash::CrashModel;

#[test]
fn every_experiment_emits_a_parsable_json_record() {
    for exp in all_experiments(Scope::Quick) {
        let rendered = exp.json_record().to_string();
        let parsed = Json::parse(&rendered)
            .unwrap_or_else(|e| panic!("[{}] json does not parse: {e} in {rendered}", exp.id));
        assert_eq!(parsed["id"].as_str(), Some(exp.id), "in {rendered}");
        assert_eq!(parsed["ok"].as_bool(), Some(exp.ok), "in {rendered}");
        // The headline counters are always present, defaulting to 0 when an
        // experiment never touches that engine.
        for field in [
            "wall_ns",
            "states_visited",
            "dedup_hits",
            "valence_cache_hits",
            "max_frontier_width",
        ] {
            assert!(
                parsed[field].as_u64().is_some(),
                "[{}] missing numeric field {field} in {rendered}",
                exp.id
            );
        }
        // The full metrics dump rides along for offline analysis.
        assert!(
            matches!(parsed["metrics"]["counters"], Json::Object(_)),
            "[{}] missing metrics.counters in {rendered}",
            exp.id
        );
    }
}

#[test]
fn engine_experiments_record_real_work() {
    let by_id = |id: &str| {
        all_experiments(Scope::Quick)
            .into_iter()
            .find(|e| e.id == id)
            .unwrap_or_else(|| panic!("experiment {id} exists"))
    };

    // The census experiment sweeps five models breadth-first.
    let census = by_id("E-census");
    assert!(census.metrics.counter("engine.states_visited") > 0);
    assert!(census.metrics.gauge_max("engine.frontier_width") > 0);

    // Theorem 4.2 exercises the valence solver (and its memo) heavily.
    let thm = by_id("E-4.2");
    assert!(thm.metrics.counter("valence.queries") > 0);
    assert!(thm.metrics.counter("valence.memo_hits") > 0);

    // The lower-bound experiment runs the consensus checker.
    let lb = by_id("E-6.3");
    assert!(lb.metrics.counter("engine.states_visited") > 0);
    assert!(lb.metrics.counter("checker.violations") > 0);
}

#[test]
fn telemetry_does_not_perturb_engine_results() {
    let m = CrashModel::new(3, 1, FloodMin::new(2));

    let plain = check_consensus(&m, 2, 5, &NOOP);
    let reg = MetricsRegistry::new();
    let observed = check_consensus(&m, 2, 5, &reg);
    assert_eq!(plain.states_explored, observed.states_explored);
    assert_eq!(plain.violations, observed.violations);
    assert!(reg.snapshot().counter("engine.states_visited") > 0);

    let plain = census(&m, 2, &NOOP);
    let reg = MetricsRegistry::new();
    let observed = census(&m, 2, &reg);
    assert_eq!(plain, observed);
    assert!(reg.snapshot().counter("engine.states_visited") > 0);
}

#[test]
fn quick_and_full_scopes_share_record_shape() {
    // Every record has the same top-level keys regardless of experiment, so
    // downstream tooling can ingest the JSONL stream without special cases.
    let mut keys: Option<Vec<String>> = None;
    for exp in all_experiments(Scope::Quick) {
        let Json::Object(members) = exp.json_record() else {
            panic!("record must be an object");
        };
        let these: Vec<String> = members.into_iter().map(|(k, _)| k).collect();
        match &keys {
            None => keys = Some(these),
            Some(first) => assert_eq!(first, &these, "record shape diverged at {}", exp.id),
        }
    }
}
