//! Property tests for the mobile-failure model: invariants along random
//! action sequences.

use proptest::prelude::*;

use layered_core::{orbit_size, LayeredModel, Pid, PidPerm, Symmetric, Value};
use layered_protocols::{FloodMin, SyncProtocol};
use layered_sync_mobile::{MobileLayering, MobileModel, MobileState};

type State = MobileState<<FloodMin as SyncProtocol>::LocalState>;

fn arb_inputs(n: usize) -> impl Strategy<Value = Vec<Value>> {
    proptest::collection::vec(0u32..2, n).prop_map(|v| v.into_iter().map(Value::new).collect())
}

/// A random `(j, lost_prefix)` action.
fn arb_action(n: usize) -> impl Strategy<Value = (usize, usize)> {
    (0..n, 0..=n)
}

fn walk(m: &MobileModel<FloodMin>, inputs: &[Value], actions: &[(usize, usize)]) -> Vec<State> {
    let mut states = vec![m.initial_state(inputs)];
    for &(j, k) in actions {
        let prefix: Vec<Pid> = Pid::all(k).collect();
        let next = m.apply(states.last().unwrap(), Pid::new(j), &prefix);
        states.push(next);
    }
    states
}

proptest! {
    /// Depth is graded, decisions are write-once, and local knowledge only
    /// grows along arbitrary runs.
    #[test]
    fn run_invariants(
        inputs in arb_inputs(3),
        actions in proptest::collection::vec(arb_action(3), 1..4),
    ) {
        let m = MobileModel::new(3, FloodMin::new(2));
        let states = walk(&m, &inputs, &actions);
        for (d, w) in states.windows(2).enumerate() {
            prop_assert_eq!(m.depth(&w[0]), d);
            prop_assert_eq!(m.depth(&w[1]), d + 1);
            for i in 0..3 {
                // Write-once decisions.
                if let Some(v) = w[0].decided[i] {
                    prop_assert_eq!(w[1].decided[i], Some(v));
                }
                // FloodMin knowledge is monotone.
                prop_assert!(w[0].locals[i].known.is_subset(w[1].locals[i].known));
                // Validity of knowledge: everything known is someone's input.
                prop_assert!(w[1].locals[i].known.iter().all(|v| inputs.contains(&v)));
            }
        }
    }

    /// Every S₁ successor is also a full-model successor at every state of
    /// a random run (Lemma 5.1(i) along runs).
    #[test]
    fn s1_is_sublayer_along_runs(
        inputs in arb_inputs(3),
        actions in proptest::collection::vec(arb_action(3), 0..3),
    ) {
        let m = MobileModel::new(3, FloodMin::new(3));
        let states = walk(&m, &inputs, &actions);
        prop_assert!(m.s1_is_sublayer_at(states.last().unwrap()));
    }

    /// agree_modulo is reflexive and symmetric on reachable states.
    #[test]
    fn agree_modulo_is_reflexive_and_symmetric(
        inputs in arb_inputs(3),
        a in arb_action(3),
        b in arb_action(3),
        j in 0usize..3,
    ) {
        let m = MobileModel::new(3, FloodMin::new(2));
        let x0 = m.initial_state(&inputs);
        let x = m.apply(&x0, Pid::new(a.0), &Pid::all(a.1).collect::<Vec<_>>());
        let y = m.apply(&x0, Pid::new(b.0), &Pid::all(b.1).collect::<Vec<_>>());
        let j = Pid::new(j);
        prop_assert!(m.agree_modulo(&x, &x, j));
        prop_assert_eq!(m.agree_modulo(&x, &y, j), m.agree_modulo(&y, &x, j));
    }

    /// The packed codec round-trips every state of a random run, and the
    /// word-level renaming shuffle commutes with `permute_state`.
    #[test]
    fn packed_codec_round_trips_and_commutes(
        inputs in arb_inputs(3),
        actions in proptest::collection::vec(arb_action(3), 0..3),
        perm_ix in 0usize..6,
    ) {
        let m = MobileModel::new(3, FloodMin::new(2));
        let packer = m.state_packer().expect("FloodMin mobile states pack");
        let perm = &PidPerm::all(3)[perm_ix];
        for x in walk(&m, &inputs, &actions) {
            let w = packer.pack(&x).expect("reachable states pack");
            prop_assert_eq!(packer.unpack(w), x.clone());
            let shuffled = packer.permute_word(w, perm).expect("shuffle present");
            prop_assert_eq!(
                packer.unpack(shuffled),
                m.permute_state(&x, perm),
                "word shuffle must match the state-level renaming"
            );
        }
    }

    /// The packed canonicalization agrees with the brute-force one: same
    /// orbit size, a valid transport witness, and an orbit-invariant rep.
    #[test]
    fn packed_canonicalization_is_orbit_consistent(
        inputs in arb_inputs(3),
        actions in proptest::collection::vec(arb_action(3), 0..2),
        perm_ix in 0usize..6,
    ) {
        let m = MobileModel::new(3, FloodMin::new(2)).with_layering(MobileLayering::Full);
        let x = walk(&m, &inputs, &actions).pop().unwrap();
        let (rep, pi, orbit) = m.canonicalize_with_orbit(&x);
        prop_assert_eq!(&m.permute_state(&x, &pi), &rep);
        prop_assert_eq!(orbit, orbit_size(&m, &x) as u64);
        // Every orbit member canonicalizes to the same representative.
        let y = m.permute_state(&x, &PidPerm::all(3)[perm_ix]);
        let (rep_y, pi_y) = m.canonicalize(&y);
        prop_assert_eq!(&rep_y, &rep);
        prop_assert_eq!(&m.permute_state(&y, &pi_y), &rep);
    }

    /// The clean action (no losses) is independent of the chosen j, at any
    /// reachable state.
    #[test]
    fn clean_action_independent_of_j(
        inputs in arb_inputs(3),
        actions in proptest::collection::vec(arb_action(3), 0..3),
        j1 in 0usize..3,
        j2 in 0usize..3,
    ) {
        let m = MobileModel::new(3, FloodMin::new(4));
        let states = walk(&m, &inputs, &actions);
        let x = states.last().unwrap();
        let a = m.apply(x, Pid::new(j1), &[]);
        let b = m.apply(x, Pid::new(j2), &[]);
        prop_assert_eq!(a, b);
    }
}
