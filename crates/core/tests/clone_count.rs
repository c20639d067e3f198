//! Clone-count regression test for the boxed arena and the consensus
//! checker: successors are interned by move, states are expanded and
//! checked by reference, and the only clones left are the states a
//! reported `Violation` keeps.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use layered_core::{check_consensus, LayeredModel, NoopObserver, Pid, StateSpace, Value};

/// Clones of [`Tally`] made so far.
static CLONES: AtomicUsize = AtomicUsize::new(0);

/// Serializes the tests of this file, which share [`CLONES`].
static SERIAL: Mutex<()> = Mutex::new(());

/// A state whose `Clone` is counted. `Eq` and `Hash` see only the fields.
#[derive(PartialEq, Eq, Hash, Debug)]
struct Tally {
    inputs: Vec<Value>,
    depth: u8,
    label: u8,
}

impl Clone for Tally {
    fn clone(&self) -> Self {
        CLONES.fetch_add(1, Ordering::SeqCst);
        Tally {
            inputs: self.inputs.clone(),
            depth: self.depth,
            label: self.label,
        }
    }
}

/// Each state has `branch` successors labelled `0..branch`; successors of
/// different parents with the same inputs coincide, so expansion hits the
/// intern index. At label 0 (past the roots) every process decides its own
/// input — an agreement violation on mixed inputs — and elsewhere nobody
/// decides, a decision violation at the horizon.
struct TallyModel {
    n: usize,
    branch: u8,
}

impl LayeredModel for TallyModel {
    type State = Tally;

    fn num_processes(&self) -> usize {
        self.n
    }

    fn max_failures(&self) -> usize {
        0
    }

    fn initial_state(&self, inputs: &[Value]) -> Tally {
        Tally {
            inputs: inputs.to_vec(),
            depth: 0,
            label: 0,
        }
    }

    fn successors(&self, x: &Tally) -> Vec<Tally> {
        (0..self.branch)
            .map(|label| Tally {
                inputs: x.inputs.clone(),
                depth: x.depth + 1,
                label,
            })
            .collect()
    }

    fn depth(&self, x: &Tally) -> usize {
        usize::from(x.depth)
    }

    fn inputs_of(&self, x: &Tally) -> Vec<Value> {
        x.inputs.clone()
    }

    fn decision(&self, x: &Tally, i: Pid) -> Option<Value> {
        (x.depth > 0 && x.label == 0).then(|| x.inputs[i.index()])
    }

    fn failed_at(&self, _: &Tally, _: Pid) -> bool {
        false
    }

    fn agree_modulo(&self, x: &Tally, y: &Tally, j: Pid) -> bool {
        x.depth == y.depth
            && x.label == y.label
            && (0..self.n).all(|i| i == j.index() || x.inputs[i] == y.inputs[i])
    }

    fn crash_step(&self, x: &Tally, _: Pid) -> Tally {
        Tally {
            inputs: x.inputs.clone(),
            depth: x.depth + 1,
            label: 0,
        }
    }
}

fn clones() -> usize {
    CLONES.load(Ordering::SeqCst)
}

#[test]
fn boxed_expansion_clones_no_interned_successor() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let m = TallyModel { n: 3, branch: 3 };
    let mut space: StateSpace<TallyModel> = StateSpace::new();
    let mut frontier: Vec<_> = m.initial_states().iter().map(|x| space.intern(x)).collect();
    let before = clones();
    let mut edges = 0;
    for _ in 0..3 {
        let mut next = Vec::new();
        for &id in &frontier {
            for y in space.successor_ids(&m, id, &NoopObserver) {
                edges += 1;
                if !next.contains(&y) {
                    next.push(y);
                }
            }
        }
        frontier = next;
    }
    assert!(edges > space.len(), "expansion hit the intern index");
    assert_eq!(clones() - before, 0, "expanding and interning cloned");
}

#[test]
fn consensus_check_clones_only_violation_states() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let m = TallyModel { n: 3, branch: 3 };
    let before = clones();
    let report = check_consensus(&m, 2, usize::MAX, &NoopObserver);
    let cloned = clones() - before;
    assert!(report.of_kind("agreement").next().is_some());
    assert!(report.of_kind("decision").next().is_some());
    assert!(report.states_explored > report.violations.len());
    assert_eq!(cloned, report.violations.len(), "one clone per violation");
}
