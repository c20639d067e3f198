//! Byte-stability of the machine-readable experiment records.
//!
//! The determinism contract for `experiments --json`: two runs of the
//! same experiment produce **byte-identical** records modulo the
//! documented timing fields. The documented
//! timing fields are exactly the `_ns`-suffixed keys (the telemetry
//! naming convention reserves that suffix for wall-clock values — see
//! `telemetry::names`):
//!
//! * the top-level `wall_ns` of every record,
//! * every span's `total_ns` under `metrics.spans`,
//! * the `*.wall_ns` gauges (e.g. `scan.sym.quotient.wall_ns`),
//! * the `*_ns` timing histograms (e.g. `space.layer_expand_ns`).
//!
//! Everything else — counters, gauge levels, work histograms, events,
//! verdicts — must not move from one run to the next, or something other
//! than the instance (hash seeds, addresses, the clock) is leaking into
//! results.
//!
//! A second contract rides along since the packed encodings landed:
//! packed and boxed arenas produce byte-identical records modulo the
//! *representation-dependent* telemetry (`mem.*` footprints, `space.pack.*`,
//! and the hash-distribution metrics under `space.intern.*`). Ids, layers,
//! verdicts and every work counter are storage-independent. The scan
//! experiments always store states the way their model says, so that
//! contract is checked one layer down: the same scans, witness and
//! metrics on the mobile model and on its codec-less twin
//! (`testkit::Unpacked`, whose arenas store every state boxed).

use layered_bench::{layer_scan, ScanConfig};
use layered_core::telemetry::json::Json;
use layered_core::telemetry::{MetricsRegistry, NOOP};
use layered_core::testkit::Unpacked;
use layered_core::{
    scan_layer_valence_connectivity, witness_to_json, ImpossibilityWitness, LayerScan,
    LayeredModel, MemoryFootprint, QuotientSolver, Symmetric, ValenceSolver,
};
use layered_protocols::FloodMin;
use layered_sync_mobile::{MobileLayering, MobileModel};

/// Zeroes the documented timing fields, leaving all other structure.
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

/// Removes object members whose key satisfies `drop`, recursively — for
/// metrics whose *presence* is representation-dependent.
fn strip_keys(json: &mut Json, drop: &dyn Fn(&str) -> bool) {
    match json {
        Json::Object(members) => {
            members.retain(|(key, _)| !drop(key));
            for (_, value) in members.iter_mut() {
                strip_keys(value, drop);
            }
        }
        Json::Array(items) => {
            for item in items {
                strip_keys(item, drop);
            }
        }
        _ => {}
    }
}

/// The comparison form for thread-count stability: timing zeroed.
fn record_modulo_timing(record: Json) -> String {
    let mut record = record;
    strip_timing(&mut record);
    record.to_string()
}

/// The comparison form for packed-vs-boxed stability: timing zeroed and
/// the representation-dependent metrics removed — memory footprints,
/// packing stats, and the hash-distribution metrics of the intern table
/// (packed words hash differently than boxed states, so probe lengths
/// and load factors legitimately move; hits and misses are work counters
/// and must not).
fn record_modulo_representation(record: Json) -> String {
    let mut record = record;
    strip_timing(&mut record);
    strip_keys(&mut record, &|key| {
        key.starts_with("mem.")
            || key.starts_with("space.pack.")
            || key == "space.intern.probe_len"
            || key == "space.intern.load_x1000"
    });
    record.to_string()
}

fn scan_record(quotient: bool) -> Json {
    let cfg = ScanConfig {
        n: 3,
        depth: 1,
        quotient,
        ..ScanConfig::default()
    };
    let exp = layer_scan(&cfg, &NOOP).0;
    assert!(
        exp.ok,
        "scan experiment must pass for the comparison to mean anything"
    );
    exp.json_record()
}

#[test]
fn interned_scan_records_are_identical_across_runs() {
    assert_eq!(
        record_modulo_timing(scan_record(false)),
        record_modulo_timing(scan_record(false)),
        "E-scan records diverged between two runs"
    );
}

#[test]
fn quotient_scan_records_are_identical_across_runs() {
    assert_eq!(
        record_modulo_timing(scan_record(true)),
        record_modulo_timing(scan_record(true)),
        "E-sym records diverged between two runs"
    );
}

/// The scan experiments' horizon and depth at `--depth 1`.
const HORIZON: usize = 2;
const DEPTH: usize = 1;

/// One record of layer scans, the witness they support and the metrics
/// registry everything reported to.
fn storage_record<M: LayeredModel>(
    m: &M,
    scans: &[LayerScan<M::State>],
    witness: Option<ImpossibilityWitness<M::State>>,
    reg: &MetricsRegistry,
) -> Json {
    let witness = witness.expect("the scan instance has a witness");
    assert!(witness.verify(m).is_ok(), "the witness re-verifies");
    let scans = scans.iter().map(|s| Json::String(format!("{s:?}")));
    Json::Object(vec![
        ("scans".into(), Json::Array(scans.collect())),
        (
            "witness".into(),
            witness_to_json(m, &witness).expect("encodes"),
        ),
        ("metrics".into(), reg.snapshot().to_json()),
    ])
}

/// What `layer_scan` runs without `quotient`, one layer down: the Lemma
/// 5.1 scan and the Theorem 4.2 witness built on its solver.
fn interned_storage_record<M: LayeredModel>(m: &M) -> Json {
    let reg = MetricsRegistry::new();
    let mut solver = ValenceSolver::with_observer(m, HORIZON, &reg);
    let scan = scan_layer_valence_connectivity(&mut solver, DEPTH, true);
    solver.report_memory(&reg);
    let witness = ImpossibilityWitness::from_solver(&mut solver, DEPTH);
    storage_record(m, &[scan], witness, &reg)
}

/// What `layer_scan` runs with `quotient`, one layer down: the quotient
/// scan, the full-space baseline and the de-quotiented witness built on
/// the quotient scan's solver.
fn quotient_storage_record<M: Symmetric>(m: &M) -> Json {
    let reg = MetricsRegistry::new();
    let mut solver = QuotientSolver::with_observer(m, HORIZON, &reg);
    let quot = scan_layer_valence_connectivity(&mut solver, DEPTH, true);
    solver.report_memory(&reg);
    let mut full = ValenceSolver::with_observer(m, HORIZON, &reg);
    let baseline = scan_layer_valence_connectivity(&mut full, DEPTH, true);
    let witness = ImpossibilityWitness::from_solver(&mut solver, DEPTH);
    storage_record(m, &[quot, baseline], witness, &reg)
}

#[test]
fn packed_and_boxed_interned_scans_are_identical() {
    let m = MobileModel::new(3, FloodMin::new(HORIZON as u16));
    let packed = record_modulo_representation(interned_storage_record(&m));
    let boxed = record_modulo_representation(interned_storage_record(&Unpacked(m)));
    assert_eq!(
        packed, boxed,
        "E-scan records diverged between packed and boxed arenas"
    );
}

#[test]
fn packed_and_boxed_quotient_scans_are_identical() {
    let m = MobileModel::new(3, FloodMin::new(HORIZON as u16)).with_layering(MobileLayering::Full);
    let packed = record_modulo_representation(quotient_storage_record(&m));
    let boxed = record_modulo_representation(quotient_storage_record(&Unpacked(m)));
    assert_eq!(
        packed, boxed,
        "E-sym records diverged between packed and boxed arenas"
    );
}

#[test]
fn records_are_canonical_json() {
    let record = scan_record(false);
    let rendered = record.to_string();
    let reparsed = Json::parse(&rendered).expect("record parses");
    assert_eq!(
        reparsed.to_string(),
        rendered,
        "parse→render round trip is byte-identical (keys sorted at the encoder boundary)"
    );
    // Spot-check that stripping really only nulled timing.
    let stripped = record_modulo_timing(record);
    assert!(stripped.contains("\"states_visited\""));
    assert!(stripped.contains("\"wall_ns\":null"));
}
