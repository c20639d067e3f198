//! Snapshot round-trip for the shared-memory model: `SmState` (local
//! states plus the register file) survives the arena codec, and
//! re-saving the reloaded arena is byte-identical.

use layered_async_sm::{SmModel, MODEL_KEY};
use layered_core::{load_space, save_arena, ArenaMeta, LayeredModel, NoopObserver, StateSpace};
use layered_protocols::SmFloodMin;

const NOOP: NoopObserver = NoopObserver;

fn meta() -> ArenaMeta {
    ArenaMeta {
        model: MODEL_KEY.to_string(),
        protocol: "floodmin".to_string(),
        n: 3,
        horizon: 3,
        depth: 2,
        layering: "s1".to_string(),
    }
}

#[test]
fn interned_arena_roundtrips_at_n3() {
    let m = SmModel::new(3, SmFloodMin::new(2));
    let roots = m.initial_states();
    let mut space: StateSpace<SmModel<SmFloodMin>> = StateSpace::new();
    let levels = space.expand_layers(&m, &roots, 2, &NOOP);
    let (bytes, digest) = save_arena(&space, &meta(), &NOOP);
    let (loaded, got_meta, got_digest) =
        load_space(&m, &bytes, &NOOP).expect("pristine blob loads");
    assert_eq!(got_meta, meta());
    assert_eq!(got_digest, digest);
    assert_eq!(loaded.len(), space.len());
    assert_eq!(loaded.edge_count(), space.edge_count());
    for id in levels.iter().flatten().copied() {
        assert_eq!(loaded.resolve(id), space.resolve(id));
        assert_eq!(loaded.cached_successors(id), space.cached_successors(id));
        assert_eq!(
            loaded.successor_fingerprint_of(id),
            space.successor_fingerprint_of(id)
        );
    }
    let (again, _) = save_arena(&loaded, &meta(), &NOOP);
    assert_eq!(again, bytes, "re-save is not byte-identical");
}

#[test]
fn tampered_blobs_are_rejected() {
    let m = SmModel::new(2, SmFloodMin::new(2));
    let roots = m.initial_states();
    let mut space: StateSpace<SmModel<SmFloodMin>> = StateSpace::new();
    space.expand_layers(&m, &roots, 1, &NOOP);
    let (pristine, _) = save_arena(&space, &meta(), &NOOP);
    for pos in (0..pristine.len()).step_by(13) {
        let mut tampered = pristine.clone();
        tampered[pos] ^= 0x01;
        assert!(
            load_space(&m, &tampered, &NOOP).is_err(),
            "tampering at byte {pos} not caught"
        );
    }
}
