//! The model-independent interface to a layered system.
//!
//! Section 2 of the paper fixes an abstract setting: global states drawn from
//! `G = L_e × L_1 × ⋯ × L_n`, runs over `G`, admissible systems, a `Faulty`
//! function satisfying *fault independence*, and the *arbitrary crash
//! failure* display property. Section 4 adds *successor functions*
//! `S : G → 2^G \ {∅}` and *layerings*.
//!
//! [`LayeredModel`] is the executable counterpart: a finite-instance model
//! together with a distinguished successor function (its layering). Every
//! concrete model in this workspace — the mobile-failure synchronous model
//! `M^mf`, asynchronous read/write shared memory `M^rw`, asynchronous message
//! passing, and the t-resilient synchronous model — implements this trait,
//! and all analyses (valence, connectivity, bivalent-run construction, the
//! consensus checker) are written once against it.
//!
//! # State-graph contract
//!
//! Implementations must guarantee that the successor graph is *graded*: every
//! state has a well-defined depth ([`LayeredModel::depth`]), successors of a
//! state at depth `d` are all at depth `d + 1`, and equal states have equal
//! depths. All models in this workspace satisfy this by construction because
//! their states carry a layer counter. The analyses exploit this to memoize
//! by state without tracking depth separately.

use std::fmt::Debug;
use std::hash::Hash;

use crate::space::pack::StatePacker;
use crate::{Pid, Value};

/// A finite-instance model of distributed computation equipped with a
/// layering (successor function), per Sections 2 and 4 of the paper.
///
/// The associated [`State`](LayeredModel::State) type is the *global* state:
/// one local state per process plus the environment's local state (registers,
/// message pools, failure records, …).
///
/// The successor graph must be *graded*: successors of a state at depth `d`
/// are all at depth `d + 1` ([`depth`](LayeredModel::depth)), and equal
/// states have equal depths ([`check_graded`](crate::check_graded) checks
/// it on a region).
pub trait LayeredModel {
    /// The global state type.
    type State: Clone + Eq + Hash + Debug;

    /// The number of processes `n` (the paper requires `n >= 2`).
    fn num_processes(&self) -> usize;

    /// The maximum number of processes that may fail in any run (`t`).
    fn max_failures(&self) -> usize;

    /// The initial state whose input assignment is `inputs`
    /// (`inputs.len() == n`).
    ///
    /// # Panics
    ///
    /// Implementations panic if `inputs.len() != self.num_processes()`.
    fn initial_state(&self, inputs: &[Value]) -> Self::State;

    /// All initial states of the system.
    ///
    /// For systems for consensus this is exactly `Con₀`: one state per binary
    /// input vector, with the environment in a fixed initial local state.
    fn initial_states(&self) -> Vec<Self::State> {
        crate::binary_input_vectors(self.num_processes())
            .iter()
            .map(|inputs| self.initial_state(inputs))
            .collect()
    }

    /// The layer `S(x)`: all states reachable from `x` by one environment
    /// action of the layering.
    ///
    /// Must be non-empty (successor functions map into `2^G \ {∅}`) and free
    /// of duplicates.
    fn successors(&self, x: &Self::State) -> Vec<Self::State>;

    /// The number of layers applied to reach `x` from an initial state.
    fn depth(&self, x: &Self::State) -> usize;

    /// The input assignment of the run(s) through `x` (readable because every
    /// model threads the inputs through its states).
    fn inputs_of(&self, x: &Self::State) -> Vec<Value>;

    /// The value of the write-once decision variable `d_i` at `x`, if set.
    fn decision(&self, x: &Self::State, i: Pid) -> Option<Value>;

    /// Whether process `i` is *failed at* `x`, i.e. faulty in every run of
    /// the system in which `x` appears.
    ///
    /// Models that *display no finite failure* (all the asynchronous models
    /// and `M^mf`) return `false` everywhere.
    fn failed_at(&self, x: &Self::State, i: Pid) -> bool;

    /// Whether `x` and `y` *agree modulo `j`*: `x_e = y_e` and `x_i = y_i`
    /// for all processes `i ≠ j` (Section 2).
    fn agree_modulo(&self, x: &Self::State, y: &Self::State, j: Pid) -> bool;

    /// The canonical crash/silence successor used to check the *arbitrary
    /// crash failure* display property: the unique state in `S(x)` in which
    /// process `j` is silenced (loses all sends / is absent / is skipped)
    /// during the layer and every other process proceeds normally.
    ///
    /// The display property requires that if `x` and `y` agree modulo `j`,
    /// then `crash_step(x, j)` and `crash_step(y, j)` again agree modulo `j`;
    /// [`check_crash_display`](crate::checker::check_crash_display) verifies
    /// this inductively over the reachable graph.
    fn crash_step(&self, x: &Self::State, j: Pid) -> Self::State;

    /// Processes that are *obliged to have decided* at `x` if the protocol
    /// under analysis meets its claimed deadline at `depth(x)` layers.
    ///
    /// Defaults to all non-failed processes, which is right for the
    /// synchronous models. Asynchronous models override this to the set of
    /// processes that have completed enough local phases.
    fn obligated(&self, x: &Self::State) -> Vec<Pid> {
        Pid::all(self.num_processes())
            .filter(|&i| !self.failed_at(x, i))
            .collect()
    }

    /// Convenience: processes non-failed at `x`.
    fn non_failed(&self, x: &Self::State) -> Vec<Pid> {
        Pid::all(self.num_processes())
            .filter(|&i| !self.failed_at(x, i))
            .collect()
    }

    /// A packed `u128` codec for this model's states, if the instance fits
    /// one (see [`crate::space::pack`] for the codec contract). Arenas built
    /// with [`StateSpace::for_model`](crate::space::StateSpace::for_model)
    /// use it as their storage and hash key; with `None` (the default) they
    /// spill every state, storing it as the model struct.
    ///
    /// Implementations construct the packer once per model instance and
    /// lend it out, returning `None` for configurations that exceed the
    /// codec's field widths. Symmetry canonicalization reads it on every
    /// call, so it must not be rebuilt here.
    fn state_packer(&self) -> Option<&StatePacker<Self::State>> {
        None
    }
}

/// Why an [`ExecutionTrace`] failed validation against a model.
///
/// Produced by [`ExecutionTrace::validate`], which is the single source of
/// truth for "this trace is a genuine `S`-execution from an initial state" —
/// both [`ImpossibilityWitness::verify`](crate::ImpossibilityWitness::verify)
/// and the simulation replay path build on it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceError {
    /// The first trace state is not an initial state of the model.
    NotInitial,
    /// A step is not a layer transition: `states[step + 1] ∉ S(states[step])`.
    IllegalStep {
        /// Index of the first illegal step.
        step: usize,
    },
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceError::NotInitial => write!(f, "first trace state is not initial"),
            TraceError::IllegalStep { step } => {
                write!(f, "step {step} is not a layer transition")
            }
        }
    }
}

impl std::error::Error for TraceError {}

/// A finite execution: a path `x⁰, x¹, …, x^k` through the layered graph,
/// recorded for use as a machine-checkable witness.
///
/// Corresponds to the paper's notion of an *execution* (a finite subinterval
/// of a run) restricted to `S`-runs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ExecutionTrace<S> {
    states: Vec<S>,
}

impl<S: Clone + Eq + Debug> ExecutionTrace<S> {
    /// Creates a trace from a non-empty path of states.
    ///
    /// # Panics
    ///
    /// Panics if `states` is empty.
    #[must_use]
    pub fn new(states: Vec<S>) -> Self {
        assert!(
            !states.is_empty(),
            "an execution contains at least one state"
        );
        ExecutionTrace { states }
    }

    /// The states of the trace, in order.
    #[must_use]
    pub fn states(&self) -> &[S] {
        &self.states
    }

    /// The first state.
    #[must_use]
    pub fn first(&self) -> &S {
        &self.states[0]
    }

    /// The last state.
    #[must_use]
    pub fn last(&self) -> &S {
        self.states.last().expect("non-empty")
    }

    /// Number of layer steps (`len() - 1`).
    #[must_use]
    pub fn steps(&self) -> usize {
        self.states.len() - 1
    }

    /// Appends a state.
    pub fn push(&mut self, state: S) {
        self.states.push(state);
    }

    /// Verifies that the trace is a legal `S`-execution of `model`: each
    /// state is among the successors of its predecessor.
    ///
    /// Returns the index of the first illegal step, or `Ok(())`.
    ///
    /// # Errors
    ///
    /// Returns `Err(k)` if `states[k+1] ∉ S(states[k])`.
    pub fn verify<M>(&self, model: &M) -> Result<(), usize>
    where
        M: LayeredModel<State = S>,
    {
        for (k, w) in self.states.windows(2).enumerate() {
            if !model.successors(&w[0]).contains(&w[1]) {
                return Err(k);
            }
        }
        Ok(())
    }

    /// Validates the trace end-to-end: the first state must be an initial
    /// state of `model` and every step must be a layer transition.
    ///
    /// This is the full "is a genuine `S`-execution" check shared by witness
    /// re-verification and simulation replay; [`verify`](Self::verify) checks
    /// only the transition relation.
    ///
    /// # Errors
    ///
    /// Returns the first [`TraceError`] encountered, checking the initial
    /// state before the steps.
    pub fn validate<M>(&self, model: &M) -> Result<(), TraceError>
    where
        M: LayeredModel<State = S>,
    {
        if !model.initial_states().contains(self.first()) {
            return Err(TraceError::NotInitial);
        }
        self.verify(model)
            .map_err(|step| TraceError::IllegalStep { step })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::CounterModel;

    #[test]
    fn trace_verify_accepts_legal_path() {
        let m = CounterModel::new(2, 5);
        let x0 = m.initial_states().remove(0);
        let x1 = m.successors(&x0).remove(0);
        let x2 = m.successors(&x1).remove(0);
        let tr = ExecutionTrace::new(vec![x0, x1, x2]);
        assert_eq!(tr.steps(), 2);
        assert!(tr.verify(&m).is_ok());
    }

    #[test]
    fn trace_verify_rejects_illegal_path() {
        let m = CounterModel::new(2, 5);
        let x0 = m.initial_states().remove(0);
        let far = {
            let x1 = m.successors(&x0).remove(0);
            m.successors(&x1).remove(0)
        };
        let tr = ExecutionTrace::new(vec![x0, far]);
        assert_eq!(tr.verify(&m), Err(0));
    }

    #[test]
    #[should_panic(expected = "at least one state")]
    fn trace_requires_nonempty() {
        let _: ExecutionTrace<u32> = ExecutionTrace::new(vec![]);
    }

    #[test]
    fn trace_validate_accepts_rooted_legal_path() {
        let m = CounterModel::new(2, 5);
        let x0 = m.initial_states().remove(0);
        let x1 = m.successors(&x0).remove(0);
        let tr = ExecutionTrace::new(vec![x0, x1]);
        assert!(tr.validate(&m).is_ok());
    }

    #[test]
    fn trace_validate_rejects_unrooted_path() {
        let m = CounterModel::new(2, 5);
        let x0 = m.initial_states().remove(0);
        let x1 = m.successors(&x0).remove(0);
        let x2 = m.successors(&x1).remove(0);
        let tr = ExecutionTrace::new(vec![x1, x2]);
        assert_eq!(tr.validate(&m), Err(TraceError::NotInitial));
    }

    #[test]
    fn trace_validate_reports_illegal_step() {
        let m = CounterModel::new(2, 5);
        let x0 = m.initial_states().remove(0);
        let far = {
            let x1 = m.successors(&x0).remove(0);
            m.successors(&x1).remove(0)
        };
        let tr = ExecutionTrace::new(vec![x0, far]);
        assert_eq!(tr.validate(&m), Err(TraceError::IllegalStep { step: 0 }));
    }
}
