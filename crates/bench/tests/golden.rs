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
//! * `golden/*.json` — `layer_scan` records, plain (n = 3) and over
//!   orbits (n = 3, 4), at depth 1, with every `_ns` timing
//!   field nulled (the same stripping `byte_stability.rs` applies).
//! * `golden/snapshot_sha256.txt` — the SHA-256 of the `save_arena` and
//!   `save_arena` blobs of the mobile-failure model running FloodMin at
//!   n = 3, horizon 3, for packed and boxed arenas (the boxed ones built
//!   for the model with its codec hidden, `testkit::Unpacked`).

use layered_bench::{layer_scan, ScanConfig};
use layered_core::hash::sha256_hex;
use layered_core::telemetry::json::Json;
use layered_core::testkit::Unpacked;
use layered_core::{
    save_arena, Arena, ArenaMeta, Keying, LayeredModel, NoopObserver, Orbits, Plain, SnapshotState,
};
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
        quotient,
        ..ScanConfig::default()
    };
    let exp = layer_scan(&cfg, &NOOP).0;
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

/// The SHA-256 of the snapshot of `model`'s arena under keying `K`,
/// expanded three layers from the initial states.
fn blob_digest<M, K>(model: &M, layering: &str) -> String
where
    M: LayeredModel,
    M::State: SnapshotState,
    K: Keying<M>,
{
    let mut space = Arena::<M, K>::for_model(model);
    space.expand_layers(model, &model.initial_states(), 3, &NOOP);
    sha256_hex(&save_arena(&space, &meta(layering), &NOOP).0)
}

/// `name sha256` lines for the four snapshot blobs.
fn snapshot_digests() -> String {
    let m = MobileModel::new(3, FloodMin::new(3));
    let full = MobileModel::new(3, FloodMin::new(3)).with_layering(MobileLayering::Full);
    [
        ("space-packed", blob_digest::<_, Plain>(&m, "s1")),
        (
            "space-boxed",
            blob_digest::<_, Plain>(&Unpacked(m.clone()), "s1"),
        ),
        ("quotient-packed", blob_digest::<_, Orbits>(&full, "full")),
        (
            "quotient-boxed",
            blob_digest::<_, Orbits>(&Unpacked(full.clone()), "full"),
        ),
    ]
    .map(|(name, digest)| format!("{name} {digest}"))
    .join("\n")
}

#[test]
fn snapshot_blobs_match_golden_digests() {
    assert_eq!(
        snapshot_digests(),
        fixture("snapshot_sha256.txt").trim_end()
    );
}
