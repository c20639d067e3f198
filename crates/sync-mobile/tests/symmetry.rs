//! Symmetry-reduction soundness for the mobile-failure model: the `Full`
//! layering is equivariant under process renaming, valence flags are
//! orbit-invariant, quotient and full scans agree, de-quotiented witnesses
//! re-verify, and the n = 4 quotient scan achieves the promised reduction.

use std::collections::HashSet;

use layered_core::{
    build_bivalent_run, scan_layer_valence_connectivity, scan_layer_valence_connectivity_parallel,
    ImpossibilityWitness, LayeredModel, PidPerm, QuotientSolver, Symmetric, ValenceSolver,
};
use layered_protocols::FloodMin;
use layered_sync_mobile::{MobileLayering, MobileModel};

fn sym_model(n: usize, rounds: u16) -> MobileModel<FloodMin> {
    MobileModel::new(n, FloodMin::new(rounds)).with_layering(MobileLayering::Full)
}

#[test]
fn only_the_full_layering_is_symmetric() {
    assert!(!MobileModel::new(3, FloodMin::new(2)).symmetric_layering());
    assert!(sym_model(3, 2).symmetric_layering());
}

#[test]
fn full_layering_is_equivariant() {
    // S(π·x) = π·S(x) for every initial state and every renaming.
    let m = sym_model(3, 2);
    for x in m.initial_states() {
        let layer: Vec<_> = m.successors(&x);
        for pi in PidPerm::all(3) {
            let renamed_layer: HashSet<_> = m
                .successors(&m.permute_state(&x, &pi))
                .into_iter()
                .collect();
            let layer_renamed: HashSet<_> = layer.iter().map(|y| m.permute_state(y, &pi)).collect();
            assert_eq!(renamed_layer, layer_renamed, "not equivariant under {pi:?}");
        }
    }
}

#[test]
fn prefix_layering_is_not_equivariant() {
    // The counterexample that forces the symmetric-layering guard: S₁'s
    // prefix destination sets are not closed under renaming.
    let m = MobileModel::new(3, FloodMin::new(2));
    let violated = m.initial_states().iter().any(|x| {
        let layer: Vec<_> = m.successors(x);
        PidPerm::all(3).iter().any(|pi| {
            let renamed_layer: HashSet<_> =
                m.successors(&m.permute_state(x, pi)).into_iter().collect();
            let layer_renamed: HashSet<_> = layer.iter().map(|y| m.permute_state(y, pi)).collect();
            renamed_layer != layer_renamed
        })
    });
    assert!(violated, "S₁ unexpectedly equivariant — guard obsolete?");
}

#[test]
fn valence_flags_are_orbit_invariant() {
    let m = sym_model(3, 2);
    let mut solver = ValenceSolver::new(&m, 2);
    let mut flags_of = |x| {
        let id = solver.intern(&x);
        solver.valences_id(id)
    };
    for x in m.initial_states() {
        let flags = flags_of(x.clone());
        let (rep, _) = m.canonicalize(&x);
        assert_eq!(flags, flags_of(rep));
        for pi in PidPerm::all(3) {
            assert_eq!(flags, flags_of(m.permute_state(&x, &pi)));
        }
    }
}

#[test]
fn quotient_and_full_scans_agree_at_n3() {
    let m = sym_model(3, 2);
    let mut full_solver = ValenceSolver::new(&m, 2);
    let full = scan_layer_valence_connectivity(&mut full_solver, 1, true);
    let mut quot_solver = QuotientSolver::new(&m, 2);
    let quot = scan_layer_valence_connectivity(&mut quot_solver, 1, true);
    assert_eq!(full.violation.is_none(), quot.violation.is_none());
    assert!(quot.states_seen <= full.states_seen);
}

#[test]
fn quotient_scan_parallel_matches_sequential() {
    let m = sym_model(3, 2);
    let mut seq = QuotientSolver::new(&m, 2);
    let a = scan_layer_valence_connectivity(&mut seq, 1, true);
    let mut par = QuotientSolver::new(&m, 2);
    let b = scan_layer_valence_connectivity_parallel(&mut par, 1, true, 4);
    assert_eq!(a.layers_checked, b.layers_checked);
    assert_eq!(a.states_seen, b.states_seen);
    assert_eq!(a.violation.is_none(), b.violation.is_none());
}

#[test]
fn dequotiented_witness_verifies() {
    let m = sym_model(3, 2);
    let w = ImpossibilityWitness::build_quotient(&m, 2, 1)
        .expect("a bivalent run exists under a mobile failure");
    assert_eq!(w.len(), 1);
    assert!(w.verify(&m).is_ok(), "de-quotiented witness must re-verify");
}

#[test]
fn generic_run_over_the_quotient_is_a_genuine_execution() {
    // The Theorem 4.2 run over a fresh quotient solver comes back
    // de-quotiented: a genuine execution, the chain the quotient witness
    // packages, and the same verdict as the full-space run.
    for n in [3, 4] {
        let m = sym_model(n, 2);
        let quot = build_bivalent_run(&mut QuotientSolver::new(&m, 2), 1);
        let full = build_bivalent_run(&mut ValenceSolver::new(&m, 2), 1);
        let chain = quot
            .chain
            .as_ref()
            .expect("a bivalent initial orbit exists");
        assert_eq!(chain.validate(&m), Ok(()), "n = {n}");
        let witness = ImpossibilityWitness::build_quotient(&m, 2, 1).expect("witness builds");
        assert_eq!(*chain, witness.chain, "n = {n}");
        assert_eq!(quot.stuck, full.stuck, "n = {n}");
        assert_eq!(quot.reached_target(), full.reached_target(), "n = {n}");
    }
}

#[test]
fn quotient_scan_reduces_states_3x_at_n4() {
    // The PR's acceptance bound: at n = 4 the quotient scan visits at least
    // 3× fewer states than the full scan, with the same lemma verdict.
    let m = sym_model(4, 2);
    let mut full_solver = ValenceSolver::new(&m, 2);
    let full = scan_layer_valence_connectivity(&mut full_solver, 1, true);
    let mut quot_solver = QuotientSolver::new(&m, 2);
    let quot = scan_layer_valence_connectivity(&mut quot_solver, 1, true);
    assert_eq!(full.violation.is_none(), quot.violation.is_none());
    assert!(
        full.states_seen >= 3 * quot.states_seen,
        "expected >= 3x reduction: full={} quotient={}",
        full.states_seen,
        quot.states_seen
    );
}
