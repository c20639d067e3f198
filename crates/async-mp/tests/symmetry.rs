//! Symmetry-reduction soundness for the message-passing model: the
//! permutation layering `S^per` is itself equivariant (its action alphabet
//! is closed under renaming), so the quotient engine applies to the
//! paper's own layering with no variant switch.

use std::collections::HashSet;

use layered_async_mp::{MpAction, MpModel};
use layered_core::{
    scan_layer_valence_connectivity, ImpossibilityWitness, LayeredModel, Pid, PidPerm,
    QuotientSolver, Symmetric, ValenceSolver, Value,
};
use layered_protocols::MpFloodMin;

fn model(n: usize, phases: u16) -> MpModel<MpFloodMin> {
    MpModel::new(n, MpFloodMin::new(phases))
}

#[test]
fn s_per_is_always_symmetric() {
    assert!(model(3, 2).symmetric_layering());
}

#[test]
fn s_per_is_equivariant() {
    let m = model(3, 2);
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
fn permutation_relocates_mailboxes_and_relabels_senders() {
    let m = model(3, 2);
    let x = m.initial_state(&[Value::ZERO, Value::ONE, Value::ONE]);
    // Drop p2: p0 and p1 take phases. p2's mailbox holds both their
    // messages; p0's holds p1's (sent after p0 already received).
    let y = m.apply(&x, &MpAction::Sequential(vec![Pid::new(0), Pid::new(1)]));
    assert_eq!(y.mailboxes[2].len(), 2);
    assert_eq!(y.mailboxes[0].len(), 1);
    // Swap p0 and p2: the mailboxes trade places, senders relabeled.
    let pi = PidPerm::from_map(vec![2, 1, 0]);
    let z = m.permute_state(&y, &pi);
    assert_eq!(z.mailboxes[0].len(), 2);
    assert_eq!(z.mailboxes[2].len(), 1);
    let senders: Vec<Pid> = z.mailboxes[0].iter().map(|&(from, _)| from).collect();
    assert_eq!(
        senders,
        vec![Pid::new(1), Pid::new(2)],
        "sender-sorted after relabel"
    );
}

#[test]
fn valence_flags_are_orbit_invariant() {
    let m = model(3, 1);
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
    let m = model(2, 2);
    let mut full_solver = ValenceSolver::new(&m, 2);
    let full = scan_layer_valence_connectivity(&mut full_solver, 1, true);
    let mut quot_solver = QuotientSolver::new(&m, 2);
    let quot = scan_layer_valence_connectivity(&mut quot_solver, 1, true);
    assert_eq!(full.violation.is_none(), quot.violation.is_none());
    assert!(quot.states_seen <= full.states_seen);
}

#[test]
fn dequotiented_witness_verifies() {
    // FLP via S^per: a bivalent run exists; the quotient-built witness must
    // replay as a genuine execution of the model. (Deadline 2 keeps the
    // chain undecided — at deadline 1 agreement is already broken in the
    // first layer and `verify` correctly reports `TooFewUndecided`.)
    let m = model(2, 2);
    let w = ImpossibilityWitness::build_quotient(&m, 2, 1)
        .expect("a bivalent run exists in the asynchronous model");
    assert!(w.verify(&m).is_ok(), "de-quotiented witness must re-verify");
}
