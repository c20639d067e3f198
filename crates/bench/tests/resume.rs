//! The E-resume experiment must pass end to end: warm reloads are
//! bit-identical and fast, resume-and-extend matches cold scans on both
//! pipelines, and the differential refresh both reuses and recomputes.
//!
//! The warm-reload speedup is a wall-clock ratio, and it shrinks whenever
//! cold scans get faster. The warm-path tests below state what the cache
//! is for without timing: a scan over a reloaded arena interns no new
//! state, expands no layer and computes no successor row.

use layered_bench::{resume_roundtrip, ScanConfig};
use layered_core::telemetry::json::Json;
use layered_core::telemetry::{MetricsRegistry, NOOP};
use layered_core::{
    load_arena, save_arena, scan_layer_valence_connectivity, ArenaMeta, Orbits, QuotientSolver,
};
use layered_protocols::FloodMin;
use layered_sync_mobile::{MobileLayering, MobileModel, MODEL_KEY};

#[test]
fn resume_roundtrip_passes_and_records_canonically() {
    let exp = resume_roundtrip(&ScanConfig::default());
    assert!(exp.ok, "E-resume failed:\n{}", exp.table);
    assert_eq!(exp.id, "E-resume");

    // The machine-readable record is canonical JSON and carries the
    // snapshot telemetry the bench gate trends.
    let record = exp.json_record();
    let rendered = record.to_string();
    let reparsed = Json::parse(&rendered).expect("record parses");
    assert_eq!(reparsed.to_string(), rendered, "record is not canonical");
    let speedup = exp.metrics.gauge_max("scan.resume.speedup_x1000");
    assert!(
        speedup >= 5_000,
        "warm reload speedup x1000 = {speedup}, want >= 5000"
    );
    assert!(exp.metrics.counter("space.resume.loads") > 0);
    assert!(exp.metrics.gauge_max("space.snapshot.bytes_written") > 0);
}

#[test]
fn resume_roundtrip_passes_at_n3() {
    let cfg = ScanConfig {
        n: 3,
        depth: 1,
        ..ScanConfig::default()
    };
    let exp = resume_roundtrip(&cfg);
    assert!(exp.ok, "E-resume at n=3 failed:\n{}", exp.table);
}

/// E-resume's warm reload at `n` processes and the default depth, with the
/// reload and the warm scan recorded under their own registry.
fn assert_warm_reload_does_no_model_work(n: usize) {
    let depth = ScanConfig::default().depth;
    let horizon = depth + 2;
    let m = MobileModel::new(n, FloodMin::new(horizon as u16)).with_layering(MobileLayering::Full);
    let mut cold = QuotientSolver::with_observer(&m, horizon, &NOOP);
    let cold_scan = scan_layer_valence_connectivity(&mut cold, depth, true);
    let meta = ArenaMeta {
        model: MODEL_KEY.to_string(),
        protocol: "floodmin".to_string(),
        n: n as u64,
        horizon: horizon as u64,
        depth: depth as u64,
        layering: "full".to_string(),
    };
    let (bytes, _) = save_arena(cold.space(), &meta, &NOOP);

    let reg = MetricsRegistry::new();
    let (space, _, _) = load_arena::<_, Orbits>(&m, &bytes, &reg).expect("the snapshot reloads");
    let mut warm = QuotientSolver::with_space(&m, horizon, space, &reg);
    let warm_scan = scan_layer_valence_connectivity(&mut warm, depth, true);
    assert_eq!(warm_scan, cold_scan, "n={n}: warm scan differs from cold");
    let metrics = reg.snapshot();
    assert_eq!(
        metrics.counter("space.intern.misses"),
        0,
        "n={n}: the warm scan interned new states"
    );
    assert!(
        metrics.histogram("space.layer_expand_ns").is_none(),
        "n={n}: the warm scan expanded a layer"
    );
    assert!(
        metrics.histogram("space.succ_fanout").is_none(),
        "n={n}: the warm scan computed a successor row"
    );
}

#[test]
fn warm_reload_does_no_model_work_at_n3() {
    assert_warm_reload_does_no_model_work(3);
}

#[test]
fn warm_reload_does_no_model_work_at_n4() {
    assert_warm_reload_does_no_model_work(4);
}
