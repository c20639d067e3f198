//! Property tests for the IIS model: immediate-snapshot containment
//! structure and run invariants along random schedules.

use proptest::prelude::*;

use layered_core::{LayeredModel, Pid, Value};
use layered_iis::{ordered_partitions, IisModel, IisState, OrderedPartition};
use layered_protocols::{SmFloodMin, SmProtocol};

type State = IisState<<SmFloodMin as SmProtocol>::LocalState>;

fn arb_inputs(n: usize) -> impl Strategy<Value = Vec<Value>> {
    proptest::collection::vec(0u32..2, n).prop_map(|v| v.into_iter().map(Value::new).collect())
}

fn arb_schedule(n: usize) -> impl Strategy<Value = OrderedPartition> {
    let parts = ordered_partitions(&Pid::all(n).collect::<Vec<_>>());
    let count = parts.len();
    (0..count).prop_map(move |i| parts[i].clone())
}

fn walk(m: &IisModel<SmFloodMin>, inputs: &[Value], schedules: &[OrderedPartition]) -> Vec<State> {
    let mut states = vec![m.initial_state(inputs)];
    for s in schedules {
        let next = m.apply(states.last().unwrap(), s);
        states.push(next);
    }
    states
}

proptest! {
    /// Immediate-snapshot containment: within one round, the views of two
    /// processes are comparable or equal if they share a block — concretely
    /// for FloodMin, a later-block process knows at least what any
    /// earlier-block process learned this round.
    #[test]
    fn snapshot_containment(inputs in arb_inputs(3), schedule in arb_schedule(3)) {
        let m = IisModel::new(3, SmFloodMin::new(8));
        let x = m.initial_state(&inputs);
        let y = m.apply(&x, &schedule);
        let block_of = |p: Pid| schedule.block_of(p).expect("full schedule");
        for a in Pid::all(3) {
            for b in Pid::all(3) {
                if block_of(a) <= block_of(b) {
                    prop_assert!(
                        y.locals[a.index()].known.is_subset(y.locals[b.index()].known),
                        "earlier blocks see subsets: {:?} vs {:?}",
                        y.locals[a.index()].known,
                        y.locals[b.index()].known
                    );
                }
            }
        }
    }

    /// The singleton-split bridge holds at arbitrary reachable states.
    #[test]
    fn split_bridge_everywhere(
        inputs in arb_inputs(3),
        path in proptest::collection::vec(arb_schedule(3), 0..2),
        probe in arb_schedule(3),
        p in 0usize..3,
    ) {
        let m = IisModel::new(3, SmFloodMin::new(8));
        let states = walk(&m, &inputs, &path);
        if let Some(holds) = m.singleton_split_bridge(states.last().unwrap(), &probe, Pid::new(p)) {
            prop_assert!(holds);
        }
    }

    /// Run invariants: grading, write-once decisions, monotone knowledge.
    #[test]
    fn run_invariants(
        inputs in arb_inputs(3),
        path in proptest::collection::vec(arb_schedule(3), 1..3),
    ) {
        let m = IisModel::new(3, SmFloodMin::new(2));
        let states = walk(&m, &inputs, &path);
        for (d, w) in states.windows(2).enumerate() {
            prop_assert_eq!(m.depth(&w[1]), d + 1);
            for i in 0..3 {
                if let Some(v) = w[0].decided[i] {
                    prop_assert_eq!(w[1].decided[i], Some(v));
                }
                prop_assert!(w[0].locals[i].known.is_subset(w[1].locals[i].known));
            }
        }
    }

    /// A single concurrent block is the "everyone sees everything" round:
    /// afterwards all processes have equal knowledge.
    #[test]
    fn one_block_round_synchronizes(inputs in arb_inputs(3)) {
        let m = IisModel::new(3, SmFloodMin::new(8));
        let x = m.initial_state(&inputs);
        let all = OrderedPartition::new(vec![Pid::all(3).collect()]);
        let y = m.apply(&x, &all);
        prop_assert_eq!(&y.locals[0].known, &y.locals[1].known);
        prop_assert_eq!(&y.locals[1].known, &y.locals[2].known);
    }
}
