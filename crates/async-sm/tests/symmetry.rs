//! Symmetry-reduction soundness for the shared-memory model: the
//! `FullSplit` layering (arbitrary early-reader sets) is equivariant while
//! the synchronic `S^rw` is not, valence flags are orbit-invariant,
//! quotient and full scans agree, and de-quotiented witnesses re-verify.

use std::collections::HashSet;

use layered_async_sm::{SmLayering, SmModel};
use layered_core::{
    build_bivalent_run, scan_layer_valence_connectivity, ImpossibilityWitness, LayeredModel,
    PidPerm, QuotientSolver, Symmetric, ValenceSolver,
};
use layered_protocols::SmFloodMin;

fn sym_model(n: usize, phases: u16) -> SmModel<SmFloodMin> {
    SmModel::new(n, SmFloodMin::new(phases)).with_layering(SmLayering::FullSplit)
}

#[test]
fn only_the_full_split_layering_is_symmetric() {
    assert!(!SmModel::new(3, SmFloodMin::new(2)).symmetric_layering());
    assert!(sym_model(3, 2).symmetric_layering());
}

#[test]
fn full_split_layering_is_equivariant() {
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
fn split_layer_contains_the_synchronic_layer() {
    // Prefixes are particular subsets: S^rw(x) ⊆ FullSplit(x).
    let m = sym_model(3, 2);
    let x = m.initial_states().remove(1);
    let full: HashSet<_> = m.full_split_layer(&x).into_iter().collect();
    for y in m.layer(&x) {
        assert!(
            full.contains(&y),
            "synchronic successor missing from split layer"
        );
    }
}

#[test]
fn valence_flags_are_orbit_invariant() {
    let m = sym_model(3, 1);
    let mut solver = ValenceSolver::new(&m, 1);
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
fn quotient_and_full_scans_agree_at_n2() {
    let m = sym_model(2, 2);
    let mut full_solver = ValenceSolver::new(&m, 2);
    let full = scan_layer_valence_connectivity(&mut full_solver, 1, true);
    let mut quot_solver = QuotientSolver::new(&m, 2);
    let quot = scan_layer_valence_connectivity(&mut quot_solver, 1, true);
    assert_eq!(full.violation.is_none(), quot.violation.is_none());
    assert!(quot.states_seen <= full.states_seen);
}

#[test]
fn dequotiented_witness_verifies() {
    // Corollary 5.4: consensus is unsolvable in M^rw, so a bivalent run
    // exists; build it over the quotient and re-verify the genuine states.
    // (Deadline 2 keeps the first layer undecided — see the mp twin.)
    let m = sym_model(2, 2);
    let w = ImpossibilityWitness::build_quotient(&m, 2, 1)
        .expect("a bivalent run exists in the asynchronous model");
    assert!(w.verify(&m).is_ok(), "de-quotiented witness must re-verify");
}

#[test]
fn generic_run_over_the_quotient_is_a_genuine_execution() {
    // The Theorem 4.2 run over a fresh quotient solver comes back
    // de-quotiented: a genuine execution, the chain the quotient witness
    // packages, and the same verdict as the full-space run.
    let m = sym_model(2, 2);
    let quot = build_bivalent_run(&mut QuotientSolver::new(&m, 2), 1);
    let full = build_bivalent_run(&mut ValenceSolver::new(&m, 2), 1);
    let chain = quot
        .chain
        .as_ref()
        .expect("a bivalent initial orbit exists");
    assert_eq!(chain.validate(&m), Ok(()));
    let witness = ImpossibilityWitness::build_quotient(&m, 2, 1).expect("witness builds");
    assert_eq!(*chain, witness.chain);
    assert_eq!(quot.stuck, full.stuck);
    assert_eq!(quot.reached_target(), full.reached_target());
}
