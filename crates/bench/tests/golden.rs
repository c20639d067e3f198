//! Golden records: the scan experiment records and arena snapshot bytes
//! pinned against fixtures committed alongside this file.
//!
//! `byte_stability.rs` compares runs of the *same* build against each
//! other; this test compares the current build against recorded output, so
//! a refactor of the arena, solver or scan engines that moves any counter,
//! gauge, event, verdict or snapshot byte fails here. The fixtures are not
//! regenerated to make a change pass: a diff against them is a behaviour
//! change.
//!
//! * `golden/*.json` — `interned_scan` (n = 3) and `quotient_scan`
//!   (n = 3, 4) records at depth 1 and one thread, with every `_ns` timing
//!   field nulled (the same stripping `byte_stability.rs` applies).
//! * `golden/snapshot_sha256.txt` — the SHA-256 of the `save_arena` and
//!   `save_arena` blobs of the mobile-failure model running FloodMin at
//!   n = 3, horizon 3, for packed and boxed arenas.

use layered_bench::{interned_scan, quotient_scan, ScanConfig};
use layered_core::hash::sha256_hex;
use layered_core::telemetry::json::Json;
use layered_core::{save_arena, ArenaMeta, LayeredModel, NoopObserver, QuotientSpace, StateSpace};
use layered_protocols::FloodMin;
use layered_sync_mobile::{MobileLayering, MobileModel, MODEL_KEY};

const NOOP: NoopObserver = NoopObserver;

/// Nulls every `_ns`-suffixed member, recursively (the documented timing
/// fields; identical to `byte_stability.rs`'s helper of the same name).
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

fn fixture(name: &str) -> String {
    let path = format!("{}/tests/golden/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {path}: {e}"))
}

fn scan_record(n: usize, quotient: bool) -> String {
    let cfg = ScanConfig {
        n,
        depth: 1,
        threads: 1,
        quotient,
        ..ScanConfig::default()
    };
    let exp = if quotient {
        quotient_scan(&cfg, &NOOP).0
    } else {
        interned_scan(&cfg, &NOOP).0
    };
    assert!(exp.ok, "scan experiment n={n} quotient={quotient} failed");
    let mut record = exp.json_record();
    strip_timing(&mut record);
    record.to_string()
}

#[test]
fn interned_scan_record_matches_golden_n3() {
    assert_eq!(
        scan_record(3, false),
        fixture("interned_scan_n3.json").trim_end()
    );
}

#[test]
fn quotient_scan_record_matches_golden_n3() {
    assert_eq!(
        scan_record(3, true),
        fixture("quotient_scan_n3.json").trim_end()
    );
}

#[test]
fn quotient_scan_record_matches_golden_n4() {
    assert_eq!(
        scan_record(4, true),
        fixture("quotient_scan_n4.json").trim_end()
    );
}

fn meta(layering: &str) -> ArenaMeta {
    ArenaMeta {
        model: MODEL_KEY.to_string(),
        protocol: "floodmin".to_string(),
        n: 3,
        horizon: 3,
        depth: 3,
        layering: layering.to_string(),
    }
}

/// `name sha256` lines for the four snapshot blobs.
fn snapshot_digests() -> String {
    let m = MobileModel::new(3, FloodMin::new(3));
    let full = MobileModel::new(3, FloodMin::new(3)).with_layering(MobileLayering::Full);
    let mut lines = Vec::new();
    for (name, mut space) in [
        ("space-packed", StateSpace::for_model(&m)),
        ("space-boxed", StateSpace::new()),
    ] {
        space.expand_layers(&m, &m.initial_states(), 3, &NOOP);
        let (bytes, _) = save_arena(&space, &meta("s1"), &NOOP);
        lines.push(format!("{name} {}", sha256_hex(&bytes)));
    }
    for (name, mut space) in [
        ("quotient-packed", QuotientSpace::new(&full)),
        ("quotient-boxed", QuotientSpace::new_boxed(&full)),
    ] {
        space.expand_layers(&full, &full.initial_states(), 3, &NOOP);
        let (bytes, _) = save_arena(&space, &meta("full"), &NOOP);
        lines.push(format!("{name} {}", sha256_hex(&bytes)));
    }
    lines.join("\n")
}

#[test]
fn snapshot_blobs_match_golden_digests() {
    assert_eq!(
        snapshot_digests(),
        fixture("snapshot_sha256.txt").trim_end()
    );
}
