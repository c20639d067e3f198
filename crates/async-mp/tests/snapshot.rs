//! Snapshot round-trip for the message-passing model: `MpState` (local
//! states plus in-flight mailboxes) survives the arena codec, and
//! re-saving the reloaded arena is byte-identical.

use layered_async_mp::{MpModel, MODEL_KEY};
use layered_core::testkit::Unpacked;
use layered_core::{
    load_arena, save_arena, ArenaMeta, LayeredModel, NoopObserver, Plain, StateSpace,
};
use layered_protocols::MpFloodMin;

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
    let m = MpModel::new(3, MpFloodMin::new(2));
    let roots = m.initial_states();
    let boxed = Unpacked(m.clone());
    let mut space = StateSpace::for_model(&boxed);
    let levels = space.expand_layers(&boxed, &roots, 2, &NOOP);
    let (bytes, digest) = save_arena(&space, &meta(), &NOOP);
    let (loaded, got_meta, got_digest) =
        load_arena::<_, Plain>(&m, &bytes, &NOOP).expect("pristine blob loads");
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
    let m = MpModel::new(2, MpFloodMin::new(2));
    let roots = m.initial_states();
    let boxed = Unpacked(m.clone());
    let mut space = StateSpace::for_model(&boxed);
    space.expand_layers(&boxed, &roots, 1, &NOOP);
    let (pristine, _) = save_arena(&space, &meta(), &NOOP);
    for pos in (0..pristine.len()).step_by(13) {
        let mut tampered = pristine.clone();
        tampered[pos] ^= 0x01;
        assert!(
            load_arena::<_, Plain>(&m, &tampered, &NOOP).is_err(),
            "tampering at byte {pos} not caught"
        );
    }
}
