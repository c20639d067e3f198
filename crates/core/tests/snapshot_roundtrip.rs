//! Satellite: snapshot save→load is the identity for both arena kinds,
//! re-saving is byte-identical, and the integrity seal rejects tampered,
//! truncated, and version-mismatched blobs — mirroring the certificate
//! store's round-trip suite (`crates/cert/tests/roundtrip.rs`).

use proptest::prelude::*;

use layered_core::telemetry::NOOP;
use layered_core::testkit::CounterModel;
use layered_core::{
    load_quotient, load_space, save_arena, ArenaMeta, LayeredModel, QuotientSpace, SnapshotError,
    StateId, StateSpace,
};

/// Provenance stamped on every test snapshot.
fn meta(n: u64, depth: u64) -> ArenaMeta {
    ArenaMeta {
        model: "counter".to_string(),
        protocol: "toy".to_string(),
        n,
        horizon: depth + 1,
        depth,
        layering: "s1".to_string(),
    }
}

/// Builds an interned arena over `depth` layers of a counter model and
/// returns it with the interned levels (the source of valid [`StateId`]s).
fn built_state_space(
    n: usize,
    branch: u8,
    depth: usize,
) -> (CounterModel, StateSpace<CounterModel>, Vec<Vec<StateId>>) {
    let m = CounterModel::new(n, branch);
    let roots = m.initial_states();
    let mut space = StateSpace::for_model(&m);
    let levels = space.expand_layers(&m, &roots, depth, &NOOP);
    (m, space, levels)
}

/// The quotient twin of [`built_state_space`].
fn built_quotient_space(
    n: usize,
    branch: u8,
    depth: usize,
) -> (CounterModel, QuotientSpace<CounterModel>, Vec<Vec<StateId>>) {
    let m = CounterModel::new(n, branch);
    let roots = m.initial_states();
    let mut space = QuotientSpace::new(&m);
    let levels = space.expand_layers(&m, &roots, depth, &NOOP);
    (m, space, levels)
}

proptest! {
    /// Interned arenas round-trip for arbitrary sizes, branching factors
    /// and depths: same states under the same ids, same cached successor
    /// rows, same fingerprints — and re-saving the loaded arena
    /// reproduces the blob byte for byte.
    #[test]
    fn state_space_roundtrip_is_identity(
        n in 2usize..4,
        branch in 1u8..4,
        depth in 0usize..4,
    ) {
        let (model, space, levels) = built_state_space(n, branch, depth);
        let m = meta(n as u64, depth as u64);
        let (bytes, digest) = save_arena(&space, &m, &NOOP);
        let (loaded, got_meta, got_digest) =
            load_space(&model, &bytes, &NOOP).expect("pristine blob loads");
        prop_assert_eq!(got_meta, m.clone());
        prop_assert_eq!(got_digest, digest);
        prop_assert_eq!(loaded.len(), space.len());
        prop_assert_eq!(loaded.edge_count(), space.edge_count());
        for id in levels.iter().flatten().copied() {
            prop_assert_eq!(loaded.resolve(id), space.resolve(id));
            prop_assert_eq!(loaded.get(&space.resolve(id)), Some(id));
            prop_assert_eq!(loaded.cached_successors(id), space.cached_successors(id));
            prop_assert_eq!(
                loaded.successor_fingerprint_of(id),
                space.successor_fingerprint_of(id)
            );
        }
        let (again, again_digest) = save_arena(&loaded, &m, &NOOP);
        prop_assert_eq!(again, bytes, "re-save is not byte-identical");
        prop_assert_eq!(again_digest, got_digest);
    }

    /// Quotient arenas round-trip the same way, including orbit sizes and
    /// the per-edge recovery permutations.
    #[test]
    fn quotient_space_roundtrip_is_identity(
        n in 2usize..4,
        branch in 1u8..4,
        depth in 0usize..4,
    ) {
        let (model, space, levels) = built_quotient_space(n, branch, depth);
        let m = meta(n as u64, depth as u64);
        let (bytes, digest) = save_arena(&space, &m, &NOOP);
        let (loaded, got_meta, got_digest) =
            load_quotient(&model, &bytes, &NOOP).expect("pristine blob loads");
        prop_assert_eq!(got_meta, m.clone());
        prop_assert_eq!(got_digest, digest);
        prop_assert_eq!(loaded.len(), space.len());
        prop_assert_eq!(loaded.edge_count(), space.edge_count());
        prop_assert_eq!(loaded.covered_states(), space.covered_states());
        for id in levels.iter().flatten().copied() {
            prop_assert_eq!(loaded.resolve(id), space.resolve(id));
            prop_assert_eq!(loaded.orbit_size_of(id), space.orbit_size_of(id));
            prop_assert_eq!(
                loaded.cached_successors_with_perms(id),
                space.cached_successors_with_perms(id)
            );
            prop_assert_eq!(
                loaded.successor_fingerprint_of(id),
                space.successor_fingerprint_of(id)
            );
        }
        let (again, again_digest) = save_arena(&loaded, &m, &NOOP);
        prop_assert_eq!(again, bytes, "re-save is not byte-identical");
        prop_assert_eq!(again_digest, got_digest);
    }
}

/// A single flipped bit anywhere in the blob — header, seal, index, CSR,
/// fingerprints — is rejected; no tampered blob ever loads.
#[test]
fn corrupted_bytes_are_rejected() {
    let (model, space, _) = built_state_space(3, 3, 3);
    let (pristine, _) = save_arena(&space, &meta(3, 3), &NOOP);
    // Flip one bit at a spread of positions (every 7th byte keeps the test
    // fast while still covering header, index, CSR, and fingerprint
    // regions).
    for pos in (0..pristine.len()).step_by(7) {
        let mut tampered = pristine.clone();
        tampered[pos] ^= 0x01;
        assert!(
            load_space(&model, &tampered, &NOOP).is_err(),
            "tampering at byte {pos} not caught"
        );
    }
    // The pristine bytes still load.
    load_space(&model, &pristine, &NOOP).expect("pristine blob loads");
}

/// The quotient loader rejects the same bit flips, including in the
/// orbit-size and permutation sections the interned format lacks.
#[test]
fn corrupted_quotient_bytes_are_rejected() {
    let (model, space, _) = built_quotient_space(3, 3, 2);
    let (pristine, _) = save_arena(&space, &meta(3, 2), &NOOP);
    for pos in (0..pristine.len()).step_by(7) {
        let mut tampered = pristine.clone();
        tampered[pos] ^= 0x01;
        assert!(
            load_quotient(&model, &tampered, &NOOP).is_err(),
            "tampering at byte {pos} not caught"
        );
    }
    load_quotient(&model, &pristine, &NOOP).expect("pristine blob loads");
}

/// Truncation (a partial write) is caught at every prefix length, and so
/// are trailing garbage bytes.
#[test]
fn truncated_and_padded_blobs_are_rejected() {
    let (model, space, _) = built_state_space(3, 2, 2);
    let (pristine, _) = save_arena(&space, &meta(3, 2), &NOOP);
    for len in [
        0,
        1,
        pristine.len() / 4,
        pristine.len() / 2,
        pristine.len() - 1,
    ] {
        assert!(
            load_space(&model, &pristine[..len], &NOOP).is_err(),
            "truncation to {len} bytes not caught"
        );
    }
    let mut padded = pristine.clone();
    padded.push(0);
    assert!(
        load_space(&model, &padded, &NOOP).is_err(),
        "trailing byte not caught"
    );
}

/// A future format version is reported as [`SnapshotError::UnsupportedVersion`]
/// — deterministically, *before* the integrity hash is checked, so old
/// readers give actionable errors on new blobs instead of "corrupt".
#[test]
fn version_mismatch_is_rejected_before_hashing() {
    let (model, space, _) = built_state_space(3, 2, 2);
    let (pristine, _) = save_arena(&space, &meta(3, 2), &NOOP);
    let needle = b"\"version\":2";
    let pos = pristine
        .windows(needle.len())
        .position(|w| w == needle)
        .expect("canonical header carries the version");
    let mut tampered = pristine;
    tampered[pos + needle.len() - 1] = b'3';
    match load_space(&model, &tampered, &NOOP) {
        Err(SnapshotError::UnsupportedVersion(3)) => {}
        Err(other) => panic!("expected UnsupportedVersion(3), got {other:?}"),
        Ok(_) => panic!("version-tampered blob loaded"),
    }
}

/// Loading a snapshot as the wrong arena kind fails with
/// [`SnapshotError::WrongKind`] in both directions.
#[test]
fn wrong_kind_is_rejected_both_ways() {
    let (model, qspace, _) = built_quotient_space(3, 2, 2);
    let (qbytes, _) = save_arena(&qspace, &meta(3, 2), &NOOP);
    match load_space(&model, &qbytes, &NOOP) {
        Err(SnapshotError::WrongKind { expected, found }) => {
            assert_eq!(expected, "state");
            assert_eq!(found, "quotient");
        }
        Ok(_) => panic!("quotient snapshot loaded as state space"),
        Err(other) => panic!("expected WrongKind, got {other:?}"),
    }

    let (_, space, _) = built_state_space(3, 2, 2);
    let (bytes, _) = save_arena(&space, &meta(3, 2), &NOOP);
    match load_quotient(&model, &bytes, &NOOP) {
        Err(SnapshotError::WrongKind { expected, found }) => {
            assert_eq!(expected, "quotient");
            assert_eq!(found, "state");
        }
        Ok(_) => panic!("state snapshot loaded as quotient space"),
        Err(other) => panic!("expected WrongKind, got {other:?}"),
    }
}

/// An empty arena (no states interned at all) still round-trips.
#[test]
fn empty_space_roundtrips() {
    let model = CounterModel::new(3, 2);
    let space: StateSpace<CounterModel> = StateSpace::new();
    let m = meta(3, 0);
    let (bytes, _) = save_arena(&space, &m, &NOOP);
    let (loaded, got_meta, _) = load_space(&model, &bytes, &NOOP).expect("empty blob loads");
    assert_eq!(got_meta, m);
    assert_eq!(loaded.len(), 0);
    assert_eq!(loaded.edge_count(), 0);
    let (again, _) = save_arena(&loaded, &m, &NOOP);
    assert_eq!(again, bytes);
}
