//! Byte-stability of the machine-readable experiment records.
//!
//! The determinism contract for `experiments --json`: two runs of the
//! same experiment produce **byte-identical** records modulo the
//! documented timing fields, regardless of `--threads`. The documented
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
//! verdicts — must not move when the thread count changes, or parallel
//! scans are leaking scheduling order into results.
//!
//! A second contract rides along since the packed encodings landed:
//! packed and boxed arenas produce byte-identical records modulo the
//! *representation-dependent* telemetry (`mem.*` footprints, `space.pack.*`,
//! and the hash-distribution metrics under `space.intern.*`). Ids, layers,
//! verdicts and every work counter are storage-independent.

use layered_bench::{interned_scan, quotient_scan, ScanConfig};
use layered_core::telemetry::json::Json;

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

fn scan_record_with(threads: usize, quotient: bool, packed: bool) -> Json {
    let cfg = ScanConfig {
        n: 3,
        depth: 1,
        threads,
        quotient,
        packed,
        ..ScanConfig::default()
    };
    let exp = if quotient {
        quotient_scan(&cfg)
    } else {
        interned_scan(&cfg)
    };
    assert!(
        exp.ok,
        "scan experiment must pass for the comparison to mean anything"
    );
    exp.json_record()
}

fn scan_record(threads: usize, quotient: bool) -> Json {
    scan_record_with(threads, quotient, true)
}

#[test]
fn interned_scan_records_are_identical_across_thread_counts() {
    let one = record_modulo_timing(scan_record(1, false));
    for threads in [2, 8] {
        assert_eq!(
            one,
            record_modulo_timing(scan_record(threads, false)),
            "E-scan records diverged between --threads 1 and --threads {threads}"
        );
    }
    // And across repeated runs at the same thread count.
    assert_eq!(one, record_modulo_timing(scan_record(1, false)));
}

#[test]
fn quotient_scan_records_are_identical_across_thread_counts() {
    let one = record_modulo_timing(scan_record(1, true));
    for threads in [2, 8] {
        assert_eq!(
            one,
            record_modulo_timing(scan_record(threads, true)),
            "E-sym records diverged between --threads 1 and --threads {threads}"
        );
    }
}

#[test]
fn packed_and_boxed_interned_scans_are_identical() {
    let packed = record_modulo_representation(scan_record_with(4, false, true));
    let boxed = record_modulo_representation(scan_record_with(4, false, false));
    assert_eq!(
        packed, boxed,
        "E-scan records diverged between packed and boxed arenas"
    );
}

#[test]
fn packed_and_boxed_quotient_scans_are_identical() {
    let packed = record_modulo_representation(scan_record_with(4, true, true));
    let boxed = record_modulo_representation(scan_record_with(4, true, false));
    assert_eq!(
        packed, boxed,
        "E-sym records diverged between packed and boxed arenas"
    );
}

#[test]
fn records_are_canonical_json() {
    let record = scan_record(2, false);
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
