//! Satellite: store→load→verify is the identity for every certificate
//! kind, the integrity hash rejects tampered files, and verify refuses a
//! recorded horizon too deep to re-check and meta fields the registry does
//! not know for the certificate's model and kind.

use std::path::PathBuf;

use layered_cert::{
    registry, CertKind, CertMeta, CertStore, Certificate, RegistryError, StoreError,
};
use layered_core::telemetry::json::Json;
use layered_core::telemetry::{MetricsRegistry, NoopObserver};
use layered_core::MAX_HORIZON;
use layered_protocols::FloodMin;
use layered_sim::{RandomAdversary, SimConfig, Simulator};
use layered_sync_mobile::MobileModel;
use proptest::prelude::*;

/// A fresh store directory under the system temp dir, unique per test.
fn store_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "layered-cert-roundtrip-{}-{name}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Puts `cert`, gets it back by hash, and asserts the round trip is the
/// identity: same certificate, byte-identical encoding, same address, and
/// the reloaded copy re-verifies.
fn assert_roundtrip(store: &mut CertStore, cert: &Certificate) {
    let obs = MetricsRegistry::new();
    let (hash, _) = store.put(cert, &obs).expect("put succeeds");
    assert_eq!(hash, cert.hash());
    let back = store
        .get(&hash, &obs)
        .expect("get succeeds")
        .expect("object exists");
    assert_eq!(back, *cert, "store→load is not the identity");
    assert_eq!(back.encode(), cert.encode(), "bytes changed in the store");
    assert_eq!(back.hash(), hash, "address changed in the store");
    registry::verify(&back, &obs).expect("reloaded certificate verifies");
    assert_eq!(obs.snapshot().counter("cert.verify.ok"), 1);
    assert_eq!(obs.snapshot().counter("cert.store.hits"), 1);
}

proptest! {
    /// Witness certificates (Theorem 4.2) round-trip for every computable
    /// model/size.
    #[test]
    fn witness_roundtrip_is_identity(case in 0usize..5) {
        let (model, n) = [
            ("sync-mobile", 2),
            ("sync-mobile", 3),
            ("async-sm", 2),
            ("async-sm", 3),
            ("async-mp", 2),
        ][case];
        let dir = store_dir("witness");
        let mut store = CertStore::open(&dir).expect("store opens");
        let cert = registry::compute(model, n, "theorem_4_2", &NoopObserver)
            .expect("witness computes");
        prop_assert_eq!(cert.kind, CertKind::Witness);
        assert_roundtrip(&mut store, &cert);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Schedule certificates round-trip: a recorded simulator run replays
    /// to the same outcome class after store→load.
    #[test]
    fn schedule_roundtrip_is_identity(seed in 0u64..500) {
        let model = MobileModel::new(3, FloodMin::new(4));
        let sim = Simulator::new(&model);
        let config = SimConfig::new(seed, 2, 4);
        let dir = store_dir("schedule");
        let mut store = CertStore::open(&dir).expect("store opens");
        for run in sim.run_many(&config, || RandomAdversary) {
            let cert = registry::schedule_certificate(
                "sync-mobile",
                &model,
                4,
                None,
                run.outcome.class(),
                &run.schedule,
            )
            .expect("schedule packages");
            prop_assert_eq!(cert.kind, CertKind::Schedule);
            assert_roundtrip(&mut store, &cert);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Run certificates (Lemma 6.1 chains) round-trip.
#[test]
fn run_roundtrip_is_identity() {
    let dir = store_dir("run");
    let mut store = CertStore::open(&dir).expect("store opens");
    for n in [3usize, 4] {
        let cert =
            registry::compute("sync-crash", n, "lemma_6_1", &NoopObserver).expect("run computes");
        assert_eq!(cert.kind, CertKind::Run);
        assert_roundtrip(&mut store, &cert);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Scan-verdict certificates (Lemma 5.1) round-trip.
#[test]
fn scan_verdict_roundtrip_is_identity() {
    let dir = store_dir("scan");
    let mut store = CertStore::open(&dir).expect("store opens");
    for n in [2usize, 3] {
        let cert =
            registry::compute("sync-mobile", n, "lemma_5_1", &NoopObserver).expect("scan computes");
        assert_eq!(cert.kind, CertKind::ScanVerdict);
        assert_roundtrip(&mut store, &cert);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Putting the same certificate twice dedups by address and the index
/// keeps a single entry; reopening the store reloads the index.
#[test]
fn puts_dedup_and_index_survives_reopen() {
    let dir = store_dir("dedup");
    let obs = MetricsRegistry::new();
    let cert = registry::compute("sync-mobile", 3, "theorem_4_2", &NoopObserver).expect("computes");
    let hash = {
        let mut store = CertStore::open(&dir).expect("store opens");
        let (h1, fresh1) = store.put(&cert, &obs).expect("first put");
        let (h2, fresh2) = store.put(&cert, &obs).expect("second put");
        assert!(fresh1 && !fresh2, "second put must dedup");
        assert_eq!(h1, h2);
        assert_eq!(store.len(), 1, "index must not duplicate");
        h1
    };
    assert_eq!(obs.snapshot().counter("cert.store.puts"), 1);
    let store = CertStore::open(&dir).expect("store reopens");
    assert_eq!(store.len(), 1);
    let entry = store
        .query("sync-mobile", 3, "theorem_4_2")
        .expect("reloaded index answers");
    assert_eq!(entry.hash, hash);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A single flipped byte in a stored object is caught by the integrity
/// re-hash on read — for every byte position in the file.
#[test]
fn corrupted_bytes_are_rejected() {
    let dir = store_dir("corrupt");
    let obs = NoopObserver;
    let mut store = CertStore::open(&dir).expect("store opens");
    let cert = registry::compute("sync-mobile", 2, "theorem_4_2", &NoopObserver).expect("computes");
    let (hash, _) = store.put(&cert, &obs).expect("put succeeds");
    let path = dir
        .join("v1")
        .join("objects")
        .join(&hash[..2])
        .join(format!("{hash}.json"));
    let pristine = std::fs::read(&path).expect("object readable");
    // Flip one bit at a spread of positions (every 7th byte keeps the test
    // fast while still covering header, meta, and body regions).
    for pos in (0..pristine.len()).step_by(7) {
        let mut tampered = pristine.clone();
        tampered[pos] ^= 0x01;
        std::fs::write(&path, &tampered).expect("tamper written");
        match store.get(&hash, &obs) {
            Err(StoreError::Corrupt { hash: h }) => assert_eq!(h, hash),
            other => panic!("tampering at byte {pos} not caught: {other:?}"),
        }
    }
    // Restoring the pristine bytes restores the certificate.
    std::fs::write(&path, &pristine).expect("restore written");
    let back = store
        .get(&hash, &obs)
        .expect("get succeeds")
        .expect("object exists");
    assert_eq!(back, cert);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Truncation (a partial write) is also caught, not just bit flips.
#[test]
fn truncated_objects_are_rejected() {
    let dir = store_dir("truncate");
    let obs = NoopObserver;
    let mut store = CertStore::open(&dir).expect("store opens");
    let cert = registry::compute("sync-mobile", 2, "theorem_4_2", &NoopObserver).expect("computes");
    let (hash, _) = store.put(&cert, &obs).expect("put succeeds");
    let path = dir
        .join("v1")
        .join("objects")
        .join(&hash[..2])
        .join(format!("{hash}.json"));
    let pristine = std::fs::read(&path).expect("object readable");
    std::fs::write(&path, &pristine[..pristine.len() / 2]).expect("truncate written");
    assert!(matches!(
        store.get(&hash, &obs),
        Err(StoreError::Corrupt { .. })
    ));
    let _ = std::fs::remove_dir_all(&dir);
}

/// The sync-mobile n = 3 Theorem 4.2 witness certificate with only its
/// recorded horizon replaced.
fn witness_with_horizon(horizon: u64) -> Certificate {
    let cert = registry::compute("sync-mobile", 3, "theorem_4_2", &NoopObserver)
        .expect("witness computes");
    let Json::Object(mut members) = cert.body else {
        panic!("witness bodies are objects");
    };
    for (key, value) in &mut members {
        if key == "horizon" {
            *value = Json::from(horizon);
        }
    }
    Certificate::new(cert.meta, cert.kind, Json::Object(members))
}

/// A horizon above `MAX_HORIZON` is refused with an actionable reason, on
/// the 2 MiB stack `cert-serve` gives each connection: without the bound,
/// the valence re-check recurses once per round of the horizon and
/// overflows that stack, aborting the process. The bound itself verifies.
#[test]
fn oversized_horizon_is_refused() {
    let verify_on_server_stack = |cert: Certificate| {
        std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(move || registry::verify(&cert, &NoopObserver))
            .expect("verifier thread starts")
            .join()
            .expect("verifier thread returns")
    };
    let bound = u64::try_from(MAX_HORIZON).expect("small bound");
    for horizon in [bound + 1, 70_000, 1_000_000_000] {
        assert_eq!(
            verify_on_server_stack(witness_with_horizon(horizon)),
            Err(RegistryError::VerifyFailed(
                "horizon above layered_core::MAX_HORIZON; re-certify at a smaller horizon"
            )),
            "horizon {horizon}"
        );
    }
    let bound = u64::try_from(MAX_HORIZON).expect("small bound");
    assert_eq!(verify_on_server_stack(witness_with_horizon(bound)), Ok(()));
}

/// `cert` with its meta fields passed through `edit`.
fn with_meta(cert: &Certificate, edit: impl FnOnce(&mut CertMeta)) -> Certificate {
    let mut meta = cert.meta.clone();
    edit(&mut meta);
    Certificate::new(meta, cert.kind, cert.body.clone())
}

/// A `sync-crash` schedule certificate at `n` recording failure budget
/// `t`; the body is refused before the schedule is read.
fn crash_schedule(n: usize, t: u64) -> Certificate {
    let body = Json::Object(vec![
        ("deadline".into(), Json::from(3u64)),
        ("outcome".into(), Json::from("agreement")),
        ("schedule".into(), Json::Object(Vec::new())),
        ("t".into(), Json::from(t)),
    ]);
    let meta = CertMeta {
        model: "sync-crash".to_string(),
        n,
        layering: "s_t".to_string(),
        claim: registry::SIM_VIOLATION_CLAIM.to_string(),
    };
    Certificate::new(meta, CertKind::Schedule, body)
}

/// Meta fields are checked against what the registry knows for the
/// certificate's model and kind before a model is built from them: sizes
/// and failure budgets a model constructor panics on, and claims or
/// layerings the registry never writes, are refused with a reason.
#[test]
fn meta_fields_outside_the_registry_are_refused() {
    let failed = |what| Err(RegistryError::VerifyFailed(what));
    let bad_n = "n is outside the sizes the model is defined at (2..=256, sync-crash 3..=256)";
    let bad_t = "sync-crash t is outside 1..=n-2";
    let bad_layering =
        "layering is not one this model's certificates carry (see registry::layering_key)";
    let bad_claim =
        "claim does not match the model and kind (see registry::claims_for and sim_violation)";
    let verify = |cert: &Certificate| registry::verify(cert, &NoopObserver);

    assert_eq!(verify(&crash_schedule(4, 0)), failed(bad_t));
    assert_eq!(verify(&crash_schedule(4, 3)), failed(bad_t));
    assert_eq!(verify(&crash_schedule(2, 1)), failed(bad_n));

    let model = MobileModel::new(3, FloodMin::new(4));
    let run = Simulator::new(&model)
        .run_many(&SimConfig::new(7, 1, 4), || RandomAdversary)
        .remove(0);
    let schedule = registry::schedule_certificate(
        "sync-mobile",
        &model,
        4,
        None,
        run.outcome.class(),
        &run.schedule,
    )
    .expect("schedule packages");
    assert_eq!(verify(&schedule), Ok(()));
    assert_eq!(verify(&with_meta(&schedule, |m| m.n = 1)), failed(bad_n));
    assert_eq!(verify(&with_meta(&schedule, |m| m.n = 257)), failed(bad_n));

    let crash_run =
        registry::compute("sync-crash", 3, "lemma_6_1", &NoopObserver).expect("run computes");
    assert_eq!(verify(&crash_run), Ok(()));
    assert_eq!(verify(&with_meta(&crash_run, |m| m.n = 2)), failed(bad_n));

    let scan =
        registry::compute("sync-mobile", 3, "lemma_5_1", &NoopObserver).expect("scan computes");
    assert_eq!(verify(&scan), Ok(()));
    for layering in ["bogus", "s_rw"] {
        let bad = with_meta(&scan, |m| m.layering = layering.to_string());
        assert_eq!(verify(&bad), failed(bad_layering), "layering {layering}");
    }
    for claim in ["theorem_4_2", "lemma_6_1", ""] {
        let bad = with_meta(&scan, |m| m.claim = claim.to_string());
        assert_eq!(verify(&bad), failed(bad_claim), "claim {claim:?}");
    }
    let witness =
        registry::compute("async-mp", 2, "theorem_4_2", &NoopObserver).expect("witness computes");
    let bad = with_meta(&witness, |m| m.layering = "s_rw".to_string());
    assert_eq!(verify(&bad), failed(bad_layering));
}
