//! Exhaustive checking of the consensus requirements and of the abstract
//! failure-model properties of Section 2.
//!
//! * [`check_consensus`] sweeps every `S`-execution up to a horizon and
//!   reports *Agreement*, *Validity*, and *Decision* violations with explicit
//!   state witnesses. Combined with the impossibility engine in
//!   [`crate::layering`], this is the workhorse of all the paper's
//!   experiments: the paper proves no protocol can pass; the checker finds
//!   the concrete violation for each candidate protocol.
//! * [`check_crash_display`] verifies the *arbitrary crash failure* display
//!   property (Section 2) in its inductive form over the reachable graph.
//! * [`check_fault_independence`] verifies the *fault independence* property
//!   in its inductive form: every state has a successor introducing no new
//!   failures.
//! * [`check_graded`] validates the state-graph contract every model must
//!   satisfy (see [`LayeredModel`]).
//!
//! The three structural checks read one [`Region`] built by the caller,
//! which several checks of one model instance share; each covers the
//! levels below the region's horizon, the ones whose rows are cached.

use std::collections::HashSet;
use std::ops::ControlFlow;

use crate::space::{walk, NextLevel, Region, StateId, StateSpace};
use crate::telemetry::{Observer, Span, NOOP};
use crate::{LayeredModel, Pid, Value};

/// A violation of one of the three consensus requirements, with its witness
/// state.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Violation<S> {
    /// Two non-failed processes decided differently in the same state.
    Agreement {
        /// Witness state.
        state: S,
        /// First decided process and its value.
        p: (Pid, Value),
        /// Second decided process and its conflicting value.
        q: (Pid, Value),
    },
    /// A non-failed process decided a value that is nobody's input.
    Validity {
        /// Witness state.
        state: S,
        /// The deciding process.
        p: Pid,
        /// The invalid decided value.
        v: Value,
        /// The run's input assignment.
        inputs: Vec<Value>,
    },
    /// An execution reached the horizon with obligated processes undecided.
    Decision {
        /// Witness state at the horizon.
        state: S,
        /// Obligated processes that have not decided.
        undecided: Vec<Pid>,
    },
}

impl<S> Violation<S> {
    /// Short tag for reporting.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            Violation::Agreement { .. } => "agreement",
            Violation::Validity { .. } => "validity",
            Violation::Decision { .. } => "decision",
        }
    }
}

/// Result of an exhaustive consensus sweep.
#[derive(Clone, Debug)]
pub struct ConsensusReport<S> {
    /// Number of distinct states visited.
    pub states_explored: usize,
    /// The horizon used (layers from the initial states).
    pub horizon: usize,
    /// All violations found, capped by the `max_violations` argument.
    pub violations: Vec<Violation<S>>,
}

impl<S> ConsensusReport<S> {
    /// Whether the protocol passed the sweep.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }

    /// Violations of a particular kind.
    pub fn of_kind<'a>(&'a self, kind: &'a str) -> impl Iterator<Item = &'a Violation<S>> + 'a {
        self.violations.iter().filter(move |v| v.kind() == kind)
    }
}

/// Checks Agreement and Validity at a single state; used by the sweep and
/// exposed for targeted tests.
pub fn state_violations<M: LayeredModel>(model: &M, x: &M::State) -> Vec<Violation<M::State>> {
    let n = model.num_processes();
    let mut out = Vec::new();
    let inputs = model.inputs_of(x);
    let decided: Vec<(Pid, Value)> = Pid::all(n)
        .filter(|&i| !model.failed_at(x, i))
        .filter_map(|i| model.decision(x, i).map(|v| (i, v)))
        .collect();
    for (idx, &(p, vp)) in decided.iter().enumerate() {
        if !inputs.contains(&vp) {
            out.push(Violation::Validity {
                state: x.clone(),
                p,
                v: vp,
                inputs: inputs.clone(),
            });
        }
        let later = decided
            .get(idx + 1..)
            .expect("idx comes from enumerate, so idx + 1 <= decided.len()");
        for &(q, vq) in later {
            if vp != vq {
                out.push(Violation::Agreement {
                    state: x.clone(),
                    p: (p, vp),
                    q: (q, vq),
                });
            }
        }
    }
    out
}

/// Exhaustively checks the three consensus requirements over all
/// `S`-executions of up to `horizon` layers.
///
/// *Decision* is checked at horizon states via
/// [`LayeredModel::obligated`]; *Agreement* and *Validity* at every state.
/// Exploration stops early once `max_violations` have been collected.
/// States visited, frontier dedup hits, frontier widths and violations
/// found are reported to `obs`.
pub fn check_consensus<M: LayeredModel>(
    model: &M,
    horizon: usize,
    max_violations: usize,
    obs: &dyn Observer,
) -> ConsensusReport<M::State> {
    let (states_explored, violations) = sweep(
        model,
        model.initial_states(),
        horizon,
        max_violations,
        obs,
        |x, at_horizon| {
            let mut found = state_violations(model, x);
            if at_horizon {
                let undecided = undecided_obligated(model, x);
                if !undecided.is_empty() {
                    found.push(Violation::Decision {
                        state: x.clone(),
                        undecided,
                    });
                }
            }
            found
        },
    );
    ConsensusReport {
        states_explored,
        horizon,
        violations,
    }
}

/// The obligated processes of `x` that have not decided: a *Decision*
/// violation when `x` is at the horizon.
pub fn undecided_obligated<M: LayeredModel>(model: &M, x: &M::State) -> Vec<Pid> {
    model
        .obligated(x)
        .into_iter()
        .filter(|&i| model.decision(x, i).is_none())
        .collect()
}

/// The exhaustive sweep behind [`check_consensus`] and the Section 7 task
/// checker: visits every distinct state within `horizon` layers of
/// `roots`, level by level in first-seen order, and collects the
/// violations `check(x, at_horizon)` finds at each, up to
/// `max_violations`. Returns the number of states visited and the
/// violations.
///
/// `check` sees each state once, borrowed from the arena; `at_horizon`
/// marks the last level. The sweep stops right after the state that
/// fills the cap. States are interned (roots deduplicated), so each
/// successor row is computed once; the sweep runs under the
/// `checker.sweep` span and reports `engine.states_visited`,
/// `engine.dedup_hits`, `checker.violations` and the
/// `engine.frontier_width` gauge.
pub fn sweep<M: LayeredModel, V>(
    model: &M,
    roots: impl IntoIterator<Item = M::State>,
    horizon: usize,
    max_violations: usize,
    obs: &dyn Observer,
    mut check: impl FnMut(&M::State, bool) -> Vec<V>,
) -> (usize, Vec<V>) {
    let _span = Span::enter(obs, "checker.sweep");
    let mut visited = 0;
    let mut violations = Vec::new();
    let mut space = StateSpace::for_model(model);
    let mut first = NextLevel::default();
    first.offer(roots.into_iter().map(|x| space.intern_owned(x, obs)), &NOOP);
    walk(first, horizon + 1, |depth, level, next| {
        obs.gauge("engine.frontier_width", level.len() as u64);
        for &id in level {
            visited += 1;
            obs.counter("engine.states_visited", 1);
            for v in check(&space.state(id), depth == horizon) {
                if violations.len() < max_violations {
                    obs.counter("checker.violations", 1);
                    violations.push(v);
                }
            }
            if depth < horizon {
                next.offer(space.successor_ids(model, id, obs), obs);
            }
            if violations.len() >= max_violations {
                return ControlFlow::Break(());
            }
        }
        ControlFlow::Continue(())
    });
    (visited, violations)
}

/// Reconstructs an execution from an initial state to `target`, if `target`
/// is reachable within `max_depth` layers.
///
/// Breadth-first with parent tracking; the result is a legal
/// [`ExecutionTrace`](crate::ExecutionTrace) (verified by construction) that
/// can be attached to a [`Violation`] as a full run witness.
///
/// This is the one breadth-first loop outside [`walk`]: it keeps a parent
/// per id across levels rather than a per-level dedup set, and it stops
/// at the level where `target` appears instead of visiting that level.
pub fn trace_to<M: LayeredModel>(
    model: &M,
    target: &M::State,
    max_depth: usize,
) -> Option<crate::ExecutionTrace<M::State>> {
    use std::collections::HashMap;
    let mut space = StateSpace::for_model(model);
    let mut parent: HashMap<StateId, Option<StateId>> = HashMap::new();
    let mut frontier: Vec<StateId> = Vec::new();
    for x in model.initial_states() {
        let id = space.intern(&x);
        if parent.insert(id, None).is_none() {
            frontier.push(id);
        }
    }
    let is_found = |space: &StateSpace<M>, parent: &HashMap<StateId, Option<StateId>>| {
        space.get(target).filter(|id| parent.contains_key(id))
    };
    let mut found = is_found(&space, &parent);
    let mut depth = 0;
    while found.is_none() && depth < max_depth && !frontier.is_empty() {
        let mut next = Vec::new();
        for &id in &frontier {
            for y in space.successor_ids(model, id, &NOOP) {
                if let std::collections::hash_map::Entry::Vacant(e) = parent.entry(y) {
                    e.insert(Some(id));
                    next.push(y);
                }
            }
        }
        frontier = next;
        depth += 1;
        found = is_found(&space, &parent);
    }
    let target_id = found?;
    let mut ids = vec![target_id];
    while let Some(Some(p)) = parent.get(ids.last().expect("non-empty")) {
        ids.push(*p);
    }
    ids.reverse();
    Some(crate::ExecutionTrace::new(space.materialize(&ids)))
}

fn failed_set<M: LayeredModel>(model: &M, x: &M::State) -> Vec<Pid> {
    Pid::all(model.num_processes())
        .filter(|&i| model.failed_at(x, i))
        .collect()
}

/// Verifies the inductive form of the *arbitrary crash failure* display
/// property on the levels of `region` below its horizon (depths
/// `0..horizon`): for every pair `x, y` on one level that agree modulo
/// `j`,
///
/// 1. `crash_step(x, j)` and `crash_step(y, j)` again agree modulo `j`, and
/// 2. every process `i ≠ j` non-failed in both `x` and `y` remains
///    non-failed in both crash successors, and
/// 3. each crash successor is a member of its layer.
///
/// Unrolling the induction yields exactly the paired runs `r^x, r^y` of the
/// paper's definition. Returns the first violating triple `(x, y, j)`.
#[allow(clippy::type_complexity)]
pub fn check_crash_display<M: LayeredModel>(
    model: &M,
    region: &Region<M>,
) -> Option<(M::State, M::State, Pid)> {
    let n = model.num_processes();
    let space = region.space();
    let in_layer =
        |x: StateId, c: &M::State| space.get(c).is_some_and(|c| region.row(x).contains(&c));
    for level in &region.levels()[..region.horizon()] {
        let states = space.materialize(level);
        for (ai, x) in states.iter().enumerate() {
            for (bi, y) in states.iter().enumerate().skip(ai) {
                for j in Pid::all(n) {
                    if !model.agree_modulo(x, y, j) {
                        continue;
                    }
                    let cx = model.crash_step(x, j);
                    let cy = model.crash_step(y, j);
                    let members = in_layer(level[ai], &cx) && in_layer(level[bi], &cy);
                    let agrees = model.agree_modulo(&cx, &cy, j);
                    let preserves = Pid::all(n).all(|i| {
                        i == j
                            || model.failed_at(x, i)
                            || model.failed_at(y, i)
                            || (!model.failed_at(&cx, i) && !model.failed_at(&cy, i))
                    });
                    if !(members && agrees && preserves) {
                        return Some((x.clone(), y.clone(), j));
                    }
                }
            }
        }
    }
    None
}

/// Verifies the inductive form of *fault independence* on the levels of
/// `region` below its horizon (depths `0..horizon`): every state has a
/// successor whose failed set is exactly its own (no new failures).
/// Iterating that successor choice produces the run `r^x` of the paper's
/// definition. Returns the first violating state.
pub fn check_fault_independence<M: LayeredModel>(
    model: &M,
    region: &Region<M>,
) -> Option<M::State> {
    let space = region.space();
    let failed = |id: StateId| failed_set(model, &space.state(id));
    region.levels()[..region.horizon()]
        .iter()
        .flatten()
        .find(|&&x| {
            let fx = failed(x);
            !region.row(x).iter().any(|&y| failed(y) == fx)
        })
        .map(|&x| space.resolve(x))
}

/// Validates the grading contract on `region`: all initial states have
/// depth 0, and along every edge out of a level below the horizon (depths
/// `0..horizon`) the successor is one layer deeper, layers are non-empty
/// and duplicate-free, and failed sets only grow.
///
/// Returns a description of the first contract breach.
pub fn check_graded<M: LayeredModel>(model: &M, region: &Region<M>) -> Option<String> {
    let space = region.space();
    for x in space.materialize(&region.levels()[0]) {
        if model.depth(&x) != 0 {
            return Some(format!("initial state at depth {}: {x:?}", model.depth(&x)));
        }
    }
    for &xid in region.levels()[..region.horizon()].iter().flatten() {
        let x = space.resolve(xid);
        let succ = region.row(xid);
        if succ.is_empty() {
            return Some(format!("empty layer at {x:?}"));
        }
        let fx = failed_set(model, &x);
        let mut dedup = HashSet::new();
        for &yid in succ {
            let y = space.resolve(yid);
            if !dedup.insert(yid) {
                return Some(format!("duplicate successor {y:?} of {x:?}"));
            }
            if model.depth(&y) != model.depth(&x) + 1 {
                return Some(format!(
                    "depth jump {} -> {} at {y:?}",
                    model.depth(&x),
                    model.depth(&y)
                ));
            }
            if !fx.iter().all(|&i| model.failed_at(&y, i)) {
                return Some(format!("failed set shrank along edge {x:?} -> {y:?}"));
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::{flp_diamond, CounterModel, ScriptedModelBuilder};

    #[test]
    fn diamond_fails_decision_at_short_horizon() {
        let m = flp_diamond();
        // At horizon 1 nothing has decided: both processes undecided.
        let report = check_consensus(&m, 1, 10, &NOOP);
        assert!(!report.passed());
        assert!(report.of_kind("decision").next().is_some());
        assert!(report.of_kind("agreement").next().is_none());
    }

    #[test]
    fn diamond_passes_at_full_horizon() {
        // At horizon 2 every leaf has p1 decided; p2 is obligated but
        // undecided in this toy — so decision still fails for p2.
        let m = flp_diamond();
        let report = check_consensus(&m, 2, 10, &NOOP);
        let decision_violations: Vec<_> = report.of_kind("decision").collect();
        assert!(!decision_violations.is_empty());
    }

    #[test]
    fn agreement_violation_detected() {
        let m = ScriptedModelBuilder::new(2, 1)
            .initial(&[Value::ZERO, Value::ONE], 0)
            .decision(0, 0, Value::ZERO)
            .decision(0, 1, Value::ONE)
            .depth(0, 0)
            .build();
        let vs = state_violations(&m, &0);
        assert_eq!(vs.len(), 1);
        assert_eq!(vs[0].kind(), "agreement");
    }

    #[test]
    fn validity_violation_detected() {
        let m = ScriptedModelBuilder::new(2, 1)
            .initial(&[Value::ZERO, Value::ZERO], 0)
            .decision(0, 0, Value::ONE) // 1 is nobody's input
            .depth(0, 0)
            .build();
        let vs = state_violations(&m, &0);
        assert_eq!(vs.len(), 1);
        assert_eq!(vs[0].kind(), "validity");
        match &vs[0] {
            Violation::Validity { v, inputs, .. } => {
                assert_eq!(*v, Value::ONE);
                assert_eq!(inputs, &vec![Value::ZERO, Value::ZERO]);
            }
            other => panic!("wrong violation {other:?}"),
        }
    }

    #[test]
    fn failed_process_decisions_are_exempt() {
        let m = ScriptedModelBuilder::new(2, 1)
            .initial(&[Value::ZERO, Value::ZERO], 0)
            .decision(0, 0, Value::ONE)
            .failed(0, 0)
            .depth(0, 0)
            .build();
        assert!(state_violations(&m, &0).is_empty());
    }

    #[test]
    fn violation_cap_respected() {
        let m = flp_diamond();
        let report = check_consensus(&m, 1, 1, &NOOP);
        assert_eq!(report.violations.len(), 1);
    }

    #[test]
    fn trace_to_reconstructs_witness_runs() {
        let m = flp_diamond();
        // State 4 ("decided 1") is reachable in 2 layers via 0 -> 2 -> 4.
        let trace = trace_to(&m, &4u32, 2).expect("reachable");
        assert_eq!(trace.states(), &[0, 2, 4]);
        assert!(trace.verify(&m).is_ok());
        // An unreachable state yields None.
        assert!(trace_to(&m, &99u32, 5).is_none());
        // Depth limits are respected.
        assert!(trace_to(&m, &4u32, 1).is_none());
        // An initial state traces to itself.
        let trivial = trace_to(&m, &0u32, 0).expect("initial");
        assert_eq!(trivial.states(), &[0]);
    }

    #[test]
    fn violations_can_be_traced() {
        // Combine the checker and the tracer: find a violation, then
        // reconstruct the full run that exhibits it.
        let m = flp_diamond();
        let report = check_consensus(&m, 2, 10, &NOOP);
        let v = report
            .violations
            .first()
            .expect("diamond violates decision");
        let state = match v {
            Violation::Decision { state, .. } => state,
            Violation::Agreement { state, .. } => state,
            Violation::Validity { state, .. } => state,
        };
        let trace = trace_to(&m, state, 2).expect("witness reachable");
        assert!(trace.verify(&m).is_ok());
        assert_eq!(trace.first(), &0);
    }

    #[test]
    fn counter_model_satisfies_structural_properties() {
        let m = CounterModel::new(3, 3);
        let region = Region::reachable(&m, 3, &NOOP);
        assert_eq!(check_graded(&m, &region), None);
        assert_eq!(check_fault_independence(&m, &region), None);
        assert_eq!(check_crash_display(&m, &region), None);
    }

    #[test]
    fn graded_check_catches_depth_jump() {
        let m = ScriptedModelBuilder::new(2, 1)
            .initial(&[Value::ZERO, Value::ZERO], 0)
            .edge(0, 1)
            .depth(0, 0)
            .depth(1, 5) // wrong
            .build();
        let err = check_graded(&m, &Region::reachable(&m, 1, &NOOP)).expect("depth jump");
        assert!(err.contains("depth jump"), "{err}");
    }

    #[test]
    fn fault_independence_catches_forced_failures() {
        // Every successor of 0 adds a failure: fault independence fails.
        let m = ScriptedModelBuilder::new(2, 1)
            .initial(&[Value::ZERO, Value::ZERO], 0)
            .edge(0, 1)
            .depth(0, 0)
            .depth(1, 1)
            .failed(1, 0)
            .build();
        let region = Region::reachable(&m, 2, &NOOP);
        assert_eq!(check_fault_independence(&m, &region), Some(0));
    }
}
