//! Interned-space conformance for the mobile-failure model: packed and boxed
//! arenas expand to identical ids and rows, the layer scan
//! finds every checked layer valence connected, and witnesses built
//! through the interned engines re-verify from scratch.

use layered_core::testkit::Unpacked;
use layered_core::{
    scan_layer_valence_connectivity, ImpossibilityWitness, LayeredModel, NoopObserver, StateSpace,
    ValenceSolver,
};
use layered_protocols::FloodMin;
use layered_sync_mobile::MobileModel;

#[test]
fn scan_is_valence_connected_at_n3() {
    let m = MobileModel::new(3, FloodMin::new(2));
    let mut solver = ValenceSolver::new(&m, 2);
    assert!(scan_layer_valence_connectivity(&mut solver, 1, true).all_connected());
}

#[test]
fn packed_and_boxed_expansions_agree_at_n3() {
    // The arena `for_model` picks and the arena of the same model with its
    // codec hidden assign identical ids, levels and successor rows.
    let m = MobileModel::new(3, FloodMin::new(2));
    let boxed = Unpacked(m.clone());
    let roots = m.initial_states();
    let mut packed = StateSpace::for_model(&m);
    let mut unpacked = StateSpace::for_model(&boxed);
    let levels = packed.expand_layers(&m, &roots, 2, &NoopObserver);
    assert_eq!(
        levels,
        unpacked.expand_layers(&boxed, &roots, 2, &NoopObserver)
    );
    assert_eq!(packed.len(), unpacked.len());
    assert_eq!(packed.edge_count(), unpacked.edge_count());
    for id in levels.iter().flatten().copied() {
        assert_eq!(packed.resolve(id), unpacked.resolve(id));
        assert_eq!(packed.cached_successors(id), unpacked.cached_successors(id));
    }
}

#[test]
fn interned_witness_verifies() {
    let m = MobileModel::new(3, FloodMin::new(2));
    let w = ImpossibilityWitness::build(&m, 2, 1).expect("S₁ keeps a bivalent run alive");
    assert!(w.verify(&m).is_ok());
}
