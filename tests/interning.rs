//! Cross-model interning conformance: a layer scan over an arena expanded
//! up front must produce the [`LayerScan`] report of a scan that fills its
//! arena lazily, over every model at n = 3 and over the mobile model's
//! symmetry quotient, and impossibility witnesses built through the
//! interned engines must still re-verify from scratch.
//!
//! These are the acceptance checks for the dense-id refactor: how the
//! arena is filled may change how fast the state space is built, never
//! what it contains.

use layered_consensus::async_mp::MpModel;
use layered_consensus::async_sm::SmModel;
use layered_consensus::core::telemetry::NOOP;
use layered_consensus::core::{
    scan_layer_valence_connectivity, Arena, ImpossibilityWitness, Keying, LayerScan, LayeredModel,
    Orbits, Plain, Solver,
};
use layered_consensus::iis::IisModel;
use layered_consensus::protocols::{FloodMin, MpFloodMin, SmFloodMin};
use layered_consensus::sync_crash::CrashModel;
use layered_consensus::sync_mobile::{MobileLayering, MobileModel};

/// The Lemma 4.1 layer scan under keying `K`, over a fresh arena or over
/// one expanded with [`Arena::expand_layers`] first, as deep as the scan
/// and the valence lookahead reach.
fn scan<M: LayeredModel, K: Keying<M>>(
    model: &M,
    horizon: usize,
    depth: usize,
    pre_expand: bool,
) -> LayerScan<M::State> {
    let mut space = Arena::<M, K>::for_model(model);
    if pre_expand {
        let levels = horizon.max(depth + 1);
        space.expand_layers(model, &model.initial_states(), levels, &NOOP);
    }
    let mut solver = Solver::with_space(model, horizon, space, &NOOP);
    scan_layer_valence_connectivity(&mut solver, depth, true)
}

/// Asserts that the scan over a pre-expanded arena reports exactly what
/// the lazy scan does.
fn assert_preexpanded_scan_matches_lazy<M: LayeredModel, K: Keying<M>>(
    model: &M,
    horizon: usize,
    depth: usize,
) {
    assert_eq!(
        scan::<M, K>(model, horizon, depth, false),
        scan::<M, K>(model, horizon, depth, true)
    );
}

#[test]
fn preexpanded_scan_matches_lazy_sync_mobile() {
    assert_preexpanded_scan_matches_lazy::<_, Plain>(&MobileModel::new(3, FloodMin::new(2)), 2, 1);
}

#[test]
fn preexpanded_scan_matches_lazy_sync_mobile_quotient() {
    let m = MobileModel::new(3, FloodMin::new(2)).with_layering(MobileLayering::Full);
    assert_preexpanded_scan_matches_lazy::<_, Orbits>(&m, 2, 1);
}

#[test]
fn preexpanded_scan_matches_lazy_async_sm() {
    assert_preexpanded_scan_matches_lazy::<_, Plain>(&SmModel::new(3, SmFloodMin::new(2)), 2, 1);
}

#[test]
fn preexpanded_scan_matches_lazy_async_mp() {
    assert_preexpanded_scan_matches_lazy::<_, Plain>(&MpModel::new(3, MpFloodMin::new(2)), 2, 1);
}

#[test]
fn preexpanded_scan_matches_lazy_sync_crash() {
    let m = CrashModel::new(3, 1, FloodMin::new(2));
    assert_preexpanded_scan_matches_lazy::<_, Plain>(&m, 2, 1);
}

#[test]
fn preexpanded_scan_matches_lazy_iis() {
    assert_preexpanded_scan_matches_lazy::<_, Plain>(&IisModel::new(3, SmFloodMin::new(2)), 2, 1);
}

/// Witnesses built by the interned Theorem 4.2 engine materialize into
/// state-typed chains that a fresh, untrusting solver accepts.
#[test]
fn interned_witnesses_verify_across_models() {
    let m = MobileModel::new(3, FloodMin::new(2));
    let w = ImpossibilityWitness::build(&m, 2, 1).expect("bivalent run in M^mf");
    assert!(w.verify(&m).is_ok());

    let m = MpModel::new(3, MpFloodMin::new(2));
    let w = ImpossibilityWitness::build(&m, 2, 1).expect("bivalent run in MP");
    assert!(w.verify(&m).is_ok());
}
