//! Snapshot round-trips for the mobile-failure model, and the resume
//! acceptance case: an n = 4 scan *extended* from a reloaded snapshot is
//! bit-identical to a cold scan at the deeper depth — on the sequential
//! and the parallel expansion path, for both arena kinds.

use layered_core::{
    load_quotient, load_space, save_arena, scan_layer_valence_connectivity,
    scan_layer_valence_connectivity_parallel, ArenaMeta, LayeredModel, NoopObserver,
    QuotientSolver, QuotientSpace, SnapshotError, StateSpace, ValenceSolver,
};
use layered_protocols::FloodMin;
use layered_sync_mobile::{MobileLayering, MobileModel, MODEL_KEY};

const NOOP: NoopObserver = NoopObserver;

fn meta(n: usize, horizon: usize, depth: usize, layering: &str) -> ArenaMeta {
    ArenaMeta {
        model: MODEL_KEY.to_string(),
        protocol: "floodmin".to_string(),
        n: n as u64,
        horizon: horizon as u64,
        depth: depth as u64,
        layering: layering.to_string(),
    }
}

/// FloodMin states (with their known-sets) survive the snapshot codec:
/// the reloaded interned arena is state-for-state identical.
#[test]
fn interned_arena_roundtrips_at_n3() {
    let m = MobileModel::new(3, FloodMin::new(3));
    let roots = m.initial_states();
    let mut space: StateSpace<MobileModel<FloodMin>> = StateSpace::new();
    let levels = space.expand_layers(&m, &roots, 2, &NOOP);
    let (bytes, _) = save_arena(&space, &meta(3, 3, 2, "s1"), &NOOP);
    let (loaded, _, _) = load_space(&m, &bytes, &NOOP).expect("pristine blob loads");
    assert_eq!(loaded.len(), space.len());
    assert_eq!(loaded.edge_count(), space.edge_count());
    for id in levels.iter().flatten().copied() {
        assert_eq!(loaded.resolve(id), space.resolve(id));
        assert_eq!(loaded.cached_successors(id), space.cached_successors(id));
    }
    let (again, _) = save_arena(&loaded, &meta(3, 3, 2, "s1"), &NOOP);
    assert_eq!(again, bytes, "re-save is not byte-identical");
}

/// The quotient arena round-trips too, orbit sizes and recovery
/// permutations included.
#[test]
fn quotient_arena_roundtrips_at_n3() {
    let m = MobileModel::new(3, FloodMin::new(3)).with_layering(MobileLayering::Full);
    let roots = m.initial_states();
    let mut space = QuotientSpace::new(&m);
    let levels = space.expand_layers(&m, &roots, 2, &NOOP);
    let (bytes, _) = save_arena(&space, &meta(3, 3, 2, "full"), &NOOP);
    let (loaded, _, _) = load_quotient(&m, &bytes, &NOOP).expect("pristine blob loads");
    assert_eq!(loaded.len(), space.len());
    assert_eq!(loaded.edge_count(), space.edge_count());
    assert_eq!(loaded.covered_states(), space.covered_states());
    for id in levels.iter().flatten().copied() {
        assert_eq!(loaded.resolve(id), space.resolve(id));
        assert_eq!(loaded.orbit_size_of(id), space.orbit_size_of(id));
        assert_eq!(
            loaded.cached_successors_with_perms(id),
            space.cached_successors_with_perms(id)
        );
    }
    let (again, _) = save_arena(&loaded, &meta(3, 3, 2, "full"), &NOOP);
    assert_eq!(again, bytes, "re-save is not byte-identical");
}

/// A snapshot of an n = 3 arena fails closed against an n = 4 model, for
/// both kinds and both storages: its packed words would otherwise decode
/// into corrupt states (a fourth process with nothing known).
#[test]
fn snapshot_of_another_process_count_is_rejected() {
    let m3 = MobileModel::new(3, FloodMin::new(3)).with_layering(MobileLayering::Full);
    let m4 = MobileModel::new(4, FloodMin::new(3)).with_layering(MobileLayering::Full);
    let roots = m3.initial_states();
    let mismatch = SnapshotError::Malformed("snapshot n does not match model");
    for mut space in [StateSpace::for_model(&m3), StateSpace::new()] {
        space.expand_layers(&m3, &roots, 2, &NOOP);
        let (bytes, _) = save_arena(&space, &meta(3, 3, 2, "full"), &NOOP);
        assert!(
            load_space(&m3, &bytes, &NOOP).is_ok(),
            "pristine blob loads"
        );
        match load_space(&m4, &bytes, &NOOP) {
            Ok(_) => panic!("n = 3 state snapshot loaded against an n = 4 model"),
            Err(e) => assert_eq!(e, mismatch),
        }
    }
    for mut space in [QuotientSpace::new(&m3), QuotientSpace::new_boxed(&m3)] {
        space.expand_layers(&m3, &roots, 2, &NOOP);
        let (bytes, _) = save_arena(&space, &meta(3, 3, 2, "full"), &NOOP);
        match load_quotient(&m4, &bytes, &NOOP) {
            Ok(_) => panic!("n = 3 quotient snapshot loaded against an n = 4 model"),
            Err(e) => assert_eq!(e, mismatch),
        }
    }
}

/// The interned acceptance case at n = 4: scan at depth 1, snapshot,
/// reload, extend to depth 2 — the extended verdict must be bit-identical
/// to a cold depth-2 scan, sequentially and in parallel.
#[test]
fn resumed_interned_scan_is_bit_identical_at_n4() {
    let horizon = 3; // room to deepen without moving the deadline
    let m = MobileModel::new(4, FloodMin::new(horizon as u16));
    let mut cold = ValenceSolver::with_observer(&m, horizon, &NOOP);
    scan_layer_valence_connectivity(&mut cold, 1, true);
    let (bytes, _) = save_arena(cold.space(), &meta(4, horizon, 1, "s1"), &NOOP);

    let mut deep_seq = ValenceSolver::with_observer(&m, horizon, &NOOP);
    let cold_seq = scan_layer_valence_connectivity(&mut deep_seq, 2, true);
    let mut deep_par = ValenceSolver::with_observer(&m, horizon, &NOOP);
    let cold_par = scan_layer_valence_connectivity_parallel(&mut deep_par, 2, true, 4);
    assert_eq!(cold_seq, cold_par, "seq/par cold scans disagree");

    for threads in [0, 4] {
        let (space, _, _) = load_space(&m, &bytes, &NOOP).expect("snapshot reloads");
        let mut resumed = ValenceSolver::with_space(&m, horizon, space, &NOOP);
        let scan = if threads == 0 {
            scan_layer_valence_connectivity(&mut resumed, 2, true)
        } else {
            scan_layer_valence_connectivity_parallel(&mut resumed, 2, true, threads)
        };
        assert_eq!(scan, cold_seq, "resumed scan (threads={threads}) diverged");
    }
}

/// The quotient acceptance case at n = 4: same shape through the
/// symmetry-reduced arena.
#[test]
fn resumed_quotient_scan_is_bit_identical_at_n4() {
    let horizon = 3;
    let m = MobileModel::new(4, FloodMin::new(horizon as u16)).with_layering(MobileLayering::Full);
    let mut cold = QuotientSolver::with_observer(&m, horizon, &NOOP);
    scan_layer_valence_connectivity(&mut cold, 1, true);
    let (bytes, _) = save_arena(cold.space(), &meta(4, horizon, 1, "full"), &NOOP);

    let mut deep_seq = QuotientSolver::with_observer(&m, horizon, &NOOP);
    let cold_seq = scan_layer_valence_connectivity(&mut deep_seq, 2, true);
    let mut deep_par = QuotientSolver::with_observer(&m, horizon, &NOOP);
    let cold_par = scan_layer_valence_connectivity_parallel(&mut deep_par, 2, true, 4);
    assert_eq!(cold_seq, cold_par, "seq/par cold scans disagree");

    for threads in [0, 4] {
        let (space, _, _) = load_quotient(&m, &bytes, &NOOP).expect("snapshot reloads");
        let mut resumed = QuotientSolver::with_space(&m, horizon, space, &NOOP);
        let scan = if threads == 0 {
            scan_layer_valence_connectivity(&mut resumed, 2, true)
        } else {
            scan_layer_valence_connectivity_parallel(&mut resumed, 2, true, threads)
        };
        assert_eq!(scan, cold_seq, "resumed scan (threads={threads}) diverged");
    }
}

/// Differential refresh after a deadline move: rows far from the deadline
/// are reused, rows adjacent to it are recomputed, and the refreshed
/// arena's scan matches a cold scan under the new protocol.
#[test]
fn differential_refresh_matches_cold_scan_after_deadline_move() {
    let m1 = MobileModel::new(3, FloodMin::new(2)).with_layering(MobileLayering::Full);
    let mut cold = QuotientSolver::with_observer(&m1, 2, &NOOP);
    scan_layer_valence_connectivity(&mut cold, 1, true);
    let (bytes, _) = save_arena(cold.space(), &meta(3, 2, 1, "full"), &NOOP);

    let m2 = MobileModel::new(3, FloodMin::new(3)).with_layering(MobileLayering::Full);
    let mut cold2 = QuotientSolver::with_observer(&m2, 3, &NOOP);
    let want = scan_layer_valence_connectivity(&mut cold2, 1, true);

    let (mut space, _, _) = load_quotient(&m2, &bytes, &NOOP).expect("snapshot reloads");
    let diff = space.refresh_differential(&m2, &NOOP);
    assert!(diff.reused > 0, "no rows reused: {diff:?}");
    assert!(diff.recomputed > 0, "no rows recomputed: {diff:?}");
    let mut resumed = QuotientSolver::with_space(&m2, 3, space, &NOOP);
    let got = scan_layer_valence_connectivity(&mut resumed, 1, true);
    assert_eq!(got, want, "refreshed scan diverged from cold scan");
}
