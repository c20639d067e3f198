//! Symmetry-reduction soundness for the t-resilient crash model: the
//! subset-failure `Full` layering is equivariant (failure records
//! included), valence flags are orbit-invariant, quotient and full scans
//! agree, and de-quotiented witnesses re-verify.

use std::collections::HashSet;

use layered_core::{
    scan_layer_valence_connectivity, ImpossibilityWitness, LayeredModel, Pid, PidPerm,
    QuotientSolver, Symmetric, ValenceSolver, Value,
};
use layered_protocols::FloodMin;
use layered_sync_crash::{CrashLayering, CrashModel};

fn sym_model(n: usize, t: usize, rounds: u16) -> CrashModel<FloodMin> {
    CrashModel::new(n, t, FloodMin::new(rounds)).with_layering(CrashLayering::Full)
}

#[test]
fn only_the_full_layering_is_symmetric() {
    assert!(!CrashModel::new(3, 1, FloodMin::new(2)).symmetric_layering());
    assert!(sym_model(3, 1, 2).symmetric_layering());
}

#[test]
fn full_layering_is_equivariant_with_failure_records() {
    let m = sym_model(3, 1, 2);
    // Check from the initial states and from a state with a recorded failure.
    let mut frontier = m.initial_states();
    let failed = m.apply(&frontier[1], Some((Pid::new(2), 3)));
    assert!(!failed.failed.is_empty());
    frontier.push(failed);
    for x in &frontier {
        let layer: Vec<_> = m.successors(x);
        for pi in PidPerm::all(3) {
            let renamed_layer: HashSet<_> =
                m.successors(&m.permute_state(x, &pi)).into_iter().collect();
            let layer_renamed: HashSet<_> = layer.iter().map(|y| m.permute_state(y, &pi)).collect();
            assert_eq!(renamed_layer, layer_renamed, "not equivariant under {pi:?}");
        }
    }
}

#[test]
fn permutation_relabels_the_failure_record() {
    let m = sym_model(3, 1, 2);
    let x = m.initial_state(&[Value::ZERO, Value::ONE, Value::ONE]);
    let y = m.apply(&x, Some((Pid::new(0), 3)));
    assert!(y.is_failed(Pid::new(0)));
    // The cyclic renaming 0→1→2→0.
    let pi = PidPerm::from_map(vec![1, 2, 0]);
    let z = m.permute_state(&y, &pi);
    assert!(z.is_failed(Pid::new(1)) && !z.is_failed(Pid::new(0)));
}

#[test]
fn valence_flags_are_orbit_invariant() {
    let m = sym_model(3, 1, 1);
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
fn quotient_and_full_scans_agree_at_n3() {
    let m = sym_model(3, 1, 2);
    let mut full_solver = ValenceSolver::new(&m, 2);
    let full = scan_layer_valence_connectivity(&mut full_solver, 1, true);
    let mut quot_solver = QuotientSolver::new(&m, 2);
    let quot = scan_layer_valence_connectivity(&mut quot_solver, 1, true);
    assert_eq!(full.violation.is_none(), quot.violation.is_none());
    assert!(quot.states_seen <= full.states_seen);
}

#[test]
fn dequotiented_witness_verifies() {
    // FloodMin at its t-round deadline cannot solve consensus (Corollary
    // 6.3): a bivalent initial state exists and the quotient engine packages
    // it into a witness that re-verifies against the full model.
    let m = sym_model(3, 1, 1);
    let w = ImpossibilityWitness::build_quotient(&m, 1, 0)
        .expect("a bivalent initial state exists below the Dolev-Strong bound");
    assert!(w.verify(&m).is_ok(), "de-quotiented witness must re-verify");
}
