//! The bench regression gate against the *real* committed `BENCH_*.json`
//! records: the latest committed record must pass its own gate, and a
//! synthetically slowed copy of it must fail (the negative test that
//! proves the gate can actually fire).

use layered_bench::regress::{
    collect_baselines, compare, sort_commit_order, BenchRecord, Tolerance,
};

/// All committed baseline records, oldest PR first (the order the `bench`
/// binary's directory discovery produces).
fn committed_records() -> Vec<BenchRecord> {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    let mut names: Vec<String> = std::fs::read_dir(root)
        .expect("repo root")
        .map(|e| e.expect("entry").file_name().to_string_lossy().into_owned())
        .filter(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
        .collect();
    sort_commit_order(&mut names);
    assert!(
        names.contains(&"BENCH_PR6.json".to_string()),
        "BENCH_PR6.json must be committed"
    );
    let mut records = Vec::new();
    for name in names {
        let text = std::fs::read_to_string(format!("{root}/{name}")).expect("readable");
        records.append(&mut BenchRecord::parse_lines(&text).expect("parseable"));
    }
    records
}

/// The records of the most recent committed bench file, used as the
/// stand-in for a "fresh" run (re-running the experiments here would make
/// the test hostage to CI machine speed).
fn latest_committed() -> Vec<BenchRecord> {
    let baselines = collect_baselines(&committed_records());
    baselines.latest.into_values().collect()
}

#[test]
fn committed_records_pass_their_own_gate() {
    let baselines = collect_baselines(&committed_records());
    let fresh = latest_committed();
    let verdicts = compare(&baselines, &fresh, Tolerance::default());
    assert!(!verdicts.is_empty());
    for v in &verdicts {
        assert!(v.passed(), "{}: {:?}", v.key, v.failures);
        assert!(v.baseline_wall_ns.is_some(), "{} has no baseline", v.key);
    }
}

#[test]
fn synthetically_slowed_records_fail_the_gate() {
    let baselines = collect_baselines(&committed_records());
    let slowed: Vec<BenchRecord> = latest_committed()
        .into_iter()
        .map(|mut r| {
            // 100x the committed wall time: far beyond both the 2x ratio
            // and the 50 ms floor for every committed experiment.
            r.wall_ns = r.wall_ns.saturating_mul(100);
            r
        })
        .collect();
    let verdicts = compare(&baselines, &slowed, Tolerance::default());
    for v in &verdicts {
        assert!(!v.passed(), "{} should have regressed", v.key);
        assert!(
            v.failures.iter().any(|f| f.contains("wall")),
            "{}: wall gate should fire, got {:?}",
            v.key,
            v.failures
        );
    }
}

#[test]
fn blown_up_work_counters_fail_the_gate() {
    let baselines = collect_baselines(&committed_records());
    let blown: Vec<BenchRecord> = latest_committed()
        .into_iter()
        .map(|mut r| {
            for (_, v) in &mut r.counters {
                *v = v.saturating_mul(2);
            }
            r
        })
        .collect();
    let verdicts = compare(&baselines, &blown, Tolerance::default());
    for v in &verdicts {
        assert!(!v.passed(), "{} should have failed the counter gate", v.key);
    }
}
