//! Property tests for the shared-memory model: layered transitions must
//! replay as atomic schedules at arbitrary reachable states, and run
//! invariants hold along random schedules.

use proptest::prelude::*;

use layered_async_sm::{layer_action_is_legal_schedule, SmAction, SmLayering, SmModel, SmState};
use layered_core::{orbit_size, LayeredModel, Pid, PidPerm, Symmetric, Value};
use layered_protocols::{SmFloodMin, SmProtocol};

type State = SmState<<SmFloodMin as SmProtocol>::LocalState, <SmFloodMin as SmProtocol>::Reg>;

fn arb_inputs(n: usize) -> impl Strategy<Value = Vec<Value>> {
    proptest::collection::vec(0u32..2, n).prop_map(|v| v.into_iter().map(Value::new).collect())
}

/// `(j, k)` with `k == n + 1` encoding the absent action.
fn arb_action(n: usize) -> impl Strategy<Value = (usize, usize)> {
    (0..n, 0..=n + 1)
}

fn to_action(n: usize, (j, k): (usize, usize)) -> SmAction {
    if k == n + 1 {
        SmAction::Absent(Pid::new(j))
    } else {
        SmAction::Staggered { j: Pid::new(j), k }
    }
}

fn walk(m: &SmModel<SmFloodMin>, inputs: &[Value], actions: &[(usize, usize)]) -> Vec<State> {
    let mut states = vec![m.initial_state(inputs)];
    for &a in actions {
        let next = m.apply(states.last().unwrap(), to_action(3, a));
        states.push(next);
    }
    states
}

proptest! {
    /// The packed codec round-trips every state of a random run — register
    /// array included — and the word shuffle commutes with renaming.
    #[test]
    fn packed_codec_round_trips_and_commutes(
        inputs in arb_inputs(3),
        actions in proptest::collection::vec(arb_action(3), 0..3),
        perm_ix in 0usize..6,
    ) {
        let m = SmModel::new(3, SmFloodMin::new(2));
        let packer = m.state_packer().expect("SmFloodMin states pack");
        let perm = &PidPerm::all(3)[perm_ix];
        for x in walk(&m, &inputs, &actions) {
            let w = packer.pack(&x).expect("reachable states pack");
            prop_assert_eq!(packer.unpack(w), x.clone());
            let shuffled = packer.permute_word(w, perm).expect("shuffle present");
            prop_assert_eq!(
                packer.unpack(shuffled),
                m.permute_state(&x, perm),
                "word shuffle must relocate lanes, registers included"
            );
        }
    }

    /// Packed canonicalization: valid witness, brute-force orbit size, and
    /// an orbit-invariant representative.
    #[test]
    fn packed_canonicalization_is_orbit_consistent(
        inputs in arb_inputs(3),
        actions in proptest::collection::vec(arb_action(3), 0..2),
        perm_ix in 0usize..6,
    ) {
        let m = SmModel::new(3, SmFloodMin::new(2)).with_layering(SmLayering::FullSplit);
        let x = walk(&m, &inputs, &actions).pop().unwrap();
        let (rep, pi, orbit) = m.canonicalize_with_orbit(&x);
        prop_assert_eq!(&m.permute_state(&x, &pi), &rep);
        prop_assert_eq!(orbit, orbit_size(&m, &x) as u64);
        let y = m.permute_state(&x, &PidPerm::all(3)[perm_ix]);
        let (rep_y, pi_y) = m.canonicalize(&y);
        prop_assert_eq!(&rep_y, &rep);
        prop_assert_eq!(&m.permute_state(&y, &pi_y), &rep);
    }

    /// Lemma 5.3(i) along random runs: at every reachable state, every
    /// layer action replays as a legal atomic W₁R₁W₂R₂ schedule.
    #[test]
    fn layers_replay_everywhere(
        inputs in arb_inputs(3),
        actions in proptest::collection::vec(arb_action(3), 0..3),
        probe in arb_action(3),
    ) {
        let m = SmModel::new(3, SmFloodMin::new(4));
        let states = walk(&m, &inputs, &actions);
        prop_assert!(layer_action_is_legal_schedule(
            &m,
            states.last().unwrap(),
            to_action(3, probe)
        ));
    }

    /// The Lemma 5.3 bridge holds at arbitrary reachable states.
    #[test]
    fn bridge_holds_everywhere(
        inputs in arb_inputs(3),
        actions in proptest::collection::vec(arb_action(3), 0..3),
        j in 0usize..3,
    ) {
        let m = SmModel::new(3, SmFloodMin::new(8));
        let states = walk(&m, &inputs, &actions);
        prop_assert!(m.bridge_agrees(states.last().unwrap(), Pid::new(j)));
    }

    /// Run invariants: grading, write-once decisions, monotone registers
    /// (FloodMin only grows its sets), phase counts bounded by rounds.
    #[test]
    fn run_invariants(
        inputs in arb_inputs(3),
        actions in proptest::collection::vec(arb_action(3), 1..4),
    ) {
        let m = SmModel::new(3, SmFloodMin::new(2));
        let states = walk(&m, &inputs, &actions);
        for (d, w) in states.windows(2).enumerate() {
            prop_assert_eq!(m.depth(&w[1]), d + 1);
            for i in 0..3 {
                if let Some(v) = w[0].decided[i] {
                    prop_assert_eq!(w[1].decided[i], Some(v));
                }
                prop_assert!(w[1].phases_done[i] <= (d + 1) as u16);
                prop_assert!(w[1].phases_done[i] >= w[0].phases_done[i]);
                match (&w[0].regs[i], &w[1].regs[i]) {
                    (Some(old), Some(new)) => prop_assert!(old.is_subset(*new)),
                    (Some(_), None) => prop_assert!(false, "register erased"),
                    _ => {}
                }
            }
        }
    }

    /// Exactly one process misses a phase per Absent action; everyone
    /// advances on staggered actions.
    #[test]
    fn phase_accounting(
        inputs in arb_inputs(3),
        a in arb_action(3),
    ) {
        let m = SmModel::new(3, SmFloodMin::new(2));
        let x = m.initial_state(&inputs);
        let y = m.apply(&x, to_action(3, a));
        let advanced = (0..3).filter(|&i| y.phases_done[i] == 1).count();
        match to_action(3, a) {
            SmAction::Absent(_) => prop_assert_eq!(advanced, 2),
            SmAction::Staggered { .. } | SmAction::Split { .. } => prop_assert_eq!(advanced, 3),
        }
    }
}
