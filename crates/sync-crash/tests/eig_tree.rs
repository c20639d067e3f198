//! Differential test of EIG's tree representation against a reference
//! that stores the tree as a map from labels to reports.
//!
//! The reference below is the map-based EIG the flat layout replaced,
//! kept as it was apart from its type names. Both protocols run under
//! `CrashModel` in lockstep, under both layerings, for every deadline up
//! to `t + 1`: every pair of states must agree on each process's reports
//! (absent labels, silenced labels and values alike), completed rounds and
//! decisions, and on the failure record. The consensus checker must visit
//! the same number of states for both.

use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap};

use layered_core::telemetry::NOOP;
use layered_core::{check_consensus, LayeredModel, Pid, Value};
use layered_protocols::{Eig, SyncProtocol};
use layered_sync_crash::{CrashLayering, CrashModel, CrashState};

/// A map-based EIG tree: labels mapped to reported values.
type RefTree = BTreeMap<Vec<Pid>, Option<Value>>;

/// Local state of [`RefEig`].
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
struct RefEigState {
    tree: RefTree,
    completed: u16,
    me: Pid,
}

impl RefEigState {
    /// The frontier of the tree at depth `level`.
    fn frontier(&self, level: usize) -> BTreeMap<Vec<Pid>, Option<Value>> {
        self.tree
            .iter()
            .filter(|(label, _)| label.len() == level)
            .map(|(l, v)| (l.clone(), *v))
            .collect()
    }

    /// The minimum value present anywhere in the tree.
    fn min_value(&self) -> Value {
        self.tree
            .values()
            .flatten()
            .min()
            .copied()
            .expect("the root always holds the own input")
    }
}

/// The map-based EIG protocol with a decision deadline of `rounds` rounds.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct RefEig {
    rounds: u16,
}

impl SyncProtocol for RefEig {
    type LocalState = RefEigState;
    type Msg = BTreeMap<Vec<Pid>, Option<Value>>;

    fn init(&self, _n: usize, me: Pid, input: Value) -> RefEigState {
        let mut tree = RefTree::new();
        tree.insert(Vec::new(), Some(input));
        RefEigState {
            tree,
            completed: 0,
            me,
        }
    }

    fn message(&self, ls: &RefEigState, _to: Pid) -> Self::Msg {
        ls.frontier(usize::from(ls.completed))
    }

    fn transition(
        &self,
        mut ls: RefEigState,
        me: Pid,
        received: &[Option<Self::Msg>],
    ) -> RefEigState {
        let level = usize::from(ls.completed);
        for (from, msg) in received.iter().enumerate() {
            let from = Pid::new(from);
            match msg {
                Some(frontier) => {
                    for (label, v) in frontier {
                        if label.len() == level && !label.contains(&from) && from != me {
                            let mut child = label.clone();
                            child.push(from);
                            ls.tree.insert(child, *v);
                        }
                    }
                }
                None => {
                    // The sender was silenced: mark every child label it
                    // would have reported as absent.
                    let labels: Vec<Vec<Pid>> = ls
                        .tree
                        .keys()
                        .filter(|l| l.len() == level && !l.contains(&from))
                        .cloned()
                        .collect();
                    if from != me {
                        for label in labels {
                            let mut child = label;
                            child.push(from);
                            ls.tree.insert(child, None);
                        }
                    }
                }
            }
        }
        ls.completed += 1;
        ls
    }

    fn decide(&self, ls: &RefEigState) -> Option<Value> {
        (ls.completed >= self.rounds).then(|| ls.min_value())
    }
}

type State = CrashState<<Eig as SyncProtocol>::LocalState>;
type RefState = CrashState<RefEigState>;

/// Asserts that `x` and `r` are the same global state.
fn assert_same(x: &State, r: &RefState, ctx: &str) {
    assert_eq!(x.round, r.round, "{ctx}: round");
    assert_eq!(x.inputs, r.inputs, "{ctx}: inputs");
    assert_eq!(x.decided, r.decided, "{ctx}: decisions");
    assert_eq!(x.failed, r.failed, "{ctx}: failure record");
    assert_eq!(x.locals.len(), r.locals.len(), "{ctx}: processes");
    for (i, (ls, rs)) in x.locals.iter().zip(&r.locals).enumerate() {
        assert_eq!(ls.completed, rs.completed, "{ctx}: p{i} completed");
        assert_eq!(ls.me, rs.me, "{ctx}: p{i} id");
        let reports: Vec<_> = ls.reports().collect();
        let expected: Vec<_> = rs.tree.iter().map(|(l, v)| (l.clone(), *v)).collect();
        assert_eq!(reports, expected, "{ctx}: p{i} reports");
    }
}

/// Walks both models breadth-first in lockstep for `depth` rounds,
/// comparing every pair of states and every successor list; returns the
/// number of distinct states compared.
///
/// A state reached again is not compared report by report a second time:
/// its reference twin must equal the one it was already checked against.
fn walk_lockstep(m: &CrashModel<Eig>, r: &CrashModel<RefEig>, depth: usize, ctx: &str) -> usize {
    let roots = r.initial_states();
    assert_eq!(m.initial_states().len(), roots.len(), "{ctx}: roots");
    let mut frontier: Vec<(State, RefState)> = m.initial_states().into_iter().zip(roots).collect();
    let mut seen: HashMap<State, RefState> = HashMap::new();
    for d in 0..=depth {
        let mut next = Vec::new();
        for (x, rx) in frontier {
            match seen.entry(x) {
                Entry::Occupied(e) => {
                    assert_eq!(e.get(), &rx, "{ctx}: twin of {:?}", e.key());
                }
                Entry::Vacant(e) => {
                    assert_same(e.key(), &rx, ctx);
                    if d < depth {
                        let succ = m.successors(e.key());
                        let ref_succ = r.successors(&rx);
                        assert_eq!(succ.len(), ref_succ.len(), "{ctx}: layer size at {rx:?}");
                        next.extend(succ.into_iter().zip(ref_succ));
                    }
                    e.insert(rx);
                }
            }
        }
        frontier = next;
    }
    seen.len()
}

/// Both protocols with decision deadline `rounds` in the `n`-process,
/// `t`-resilient model under `layering`, and a label for messages.
fn models(
    n: usize,
    t: usize,
    rounds: u16,
    layering: CrashLayering,
) -> (CrashModel<Eig>, CrashModel<RefEig>, String) {
    (
        CrashModel::new(n, t, Eig::new(rounds)).with_layering(layering),
        CrashModel::new(n, t, RefEig { rounds }).with_layering(layering),
        format!("n={n} t={t} EIG({rounds}) {layering:?}"),
    )
}

/// The deadlines `1..=t + 1`.
fn deadlines(t: usize) -> impl Iterator<Item = u16> {
    1..=u16::try_from(t + 1).expect("small t")
}

/// The lockstep walk, up to each deadline.
fn lockstep(n: usize, t: usize, layering: CrashLayering) {
    for rounds in deadlines(t) {
        let (m, r, ctx) = models(n, t, rounds, layering);
        let compared = walk_lockstep(&m, &r, usize::from(rounds), &ctx);
        assert!(compared > 1 << n, "{ctx}: walked past the roots");
    }
}

/// The checker's sweep to `t + 1` rounds, for each deadline.
fn checker(n: usize, t: usize, layering: CrashLayering) {
    for rounds in deadlines(t) {
        let (m, r, ctx) = models(n, t, rounds, layering);
        let report = check_consensus(&m, t + 1, 1, &NOOP);
        let ref_report = check_consensus(&r, t + 1, 1, &NOOP);
        assert_eq!(
            report.states_explored, ref_report.states_explored,
            "{ctx}: states explored"
        );
        assert_eq!(report.passed(), ref_report.passed(), "{ctx}: verdict");
        assert_eq!(
            report.passed(),
            usize::from(rounds) == t + 1,
            "{ctx}: EIG passes exactly at t + 1 rounds"
        );
    }
}

/// Both comparisons under both layerings.
fn check(n: usize, t: usize) {
    for layering in [CrashLayering::Prefix, CrashLayering::Full] {
        lockstep(n, t, layering);
        checker(n, t, layering);
    }
}

#[test]
fn n3_t1_matches_map_reference() {
    check(3, 1);
}

#[test]
fn n4_t1_matches_map_reference() {
    check(4, 1);
}

#[test]
fn n5_t1_matches_map_reference() {
    check(5, 1);
}

#[test]
fn n4_t2_prefix_matches_map_reference() {
    lockstep(4, 2, CrashLayering::Prefix);
    checker(4, 2, CrashLayering::Prefix);
}

// The largest instance, split in two so that its halves run in parallel.

#[test]
fn n4_t2_full_lockstep_matches_map_reference() {
    lockstep(4, 2, CrashLayering::Full);
}

#[test]
fn n4_t2_full_checker_matches_map_reference() {
    checker(4, 2, CrashLayering::Full);
}
