//! Bundled, re-verifiable impossibility witnesses.
//!
//! The layered analysis produces its conclusions from a handful of
//! artifacts: a bivalent initial state (Lemma 3.6), an ever-bivalent chain
//! (Lemma 4.1 / Theorem 4.2), undecided-process counts along it
//! (Lemmas 3.1/3.2), and the layer connectivity premises. An
//! [`ImpossibilityWitness`] packages all of them so a consumer — or a
//! referee — can re-verify the whole argument from scratch against the
//! model, without trusting the engine that produced it.

use crate::connectivity::valence_report;
use crate::layering::build_bivalent_run;
use crate::model::{ExecutionTrace, TraceError};
use crate::space::{Keying, Orbits, Plain};
use crate::sym::Symmetric;
use crate::valence::{undecided_non_failed, Solver};
use crate::{LayeredModel, ValenceSolver};

/// A packaged impossibility argument for one model + protocol instance.
#[derive(Clone, Debug)]
pub struct ImpossibilityWitness<S> {
    /// The ever-bivalent chain, starting at a bivalent initial state.
    pub chain: ExecutionTrace<S>,
    /// The analysis horizon used for valence.
    pub horizon: usize,
    /// Undecided non-failed processes at each chain state, recorded at
    /// construction (re-verified by [`verify`](Self::verify)).
    pub undecided: Vec<usize>,
}

/// Why re-verification of a witness failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WitnessError {
    /// A chain step is not a layer transition.
    NotAnExecution {
        /// Index of the offending step.
        step: usize,
    },
    /// The first chain state is not an initial state of the model.
    NotInitial,
    /// A chain state failed the bivalence re-check.
    NotBivalent {
        /// Index of the non-bivalent state.
        index: usize,
    },
    /// The recorded undecided counts do not match the states.
    UndecidedMismatch {
        /// Index of the mismatching state.
        index: usize,
    },
    /// Fewer than `n − t` processes undecided at a bivalent state — the
    /// model/protocol pair violates Lemma 3.1's guarantee (i.e. agreement
    /// is already broken nearby).
    TooFewUndecided {
        /// Index of the offending state.
        index: usize,
    },
    /// A layer along the chain is not valence connected (a Theorem 4.2
    /// premise does not hold where the witness claims it was used).
    LayerDisconnected {
        /// Index of the state whose layer disconnects.
        index: usize,
    },
}

impl<S: Clone + Eq + std::hash::Hash + std::fmt::Debug> ImpossibilityWitness<S> {
    /// Constructs a witness by running the Theorem 4.2 engine for `steps`
    /// layers at the given horizon.
    ///
    /// Returns `None` if no bivalent initial state exists or the chain
    /// cannot be extended to the requested length (in which case the
    /// [checker](crate::check_consensus) will localize the protocol's
    /// violation instead). Kept beside [`build_quotient`](Self::build_quotient)
    /// because `perfbench/src/scan.rs` calls both.
    pub fn build<M>(model: &M, horizon: usize, steps: usize) -> Option<Self>
    where
        M: LayeredModel<State = S>,
    {
        Self::build_keyed::<M, Plain>(model, horizon, steps)
    }

    /// Like [`build`](Self::build), but runs the Theorem 4.2 engine over
    /// the symmetry-reduced quotient graph — one orbit representative per
    /// equivalence class of states under process renaming — and then
    /// *de-quotients* the resulting chain back into a genuine execution of
    /// `model` using the per-edge witnessing permutations.
    ///
    /// The returned witness is indistinguishable from a full-space one: it
    /// passes the same [`verify`](Self::verify) (which replays layer
    /// transitions, bivalence, and undecided counts against the model from
    /// scratch, with no knowledge of the quotient).
    ///
    /// # Panics
    ///
    /// Panics if the model's active layering is not equivariant
    /// (`symmetric_layering()` is `false`) — quotienting a non-equivariant
    /// layering would be unsound. Kept public because `perfbench/src/scan.rs`
    /// calls it.
    pub fn build_quotient<M>(model: &M, horizon: usize, steps: usize) -> Option<Self>
    where
        M: Symmetric<State = S>,
    {
        Self::build_keyed::<M, Orbits>(model, horizon, steps)
    }

    /// The Theorem 4.2 run over the arena keyed by `K`, materialized into
    /// an execution of `model` by [`build_bivalent_run`].
    fn build_keyed<M, K>(model: &M, horizon: usize, steps: usize) -> Option<Self>
    where
        M: LayeredModel<State = S>,
        K: Keying<M>,
    {
        let mut solver = Solver::<M, K>::new(model, horizon);
        let run = build_bivalent_run(&mut solver, steps);
        if !run.reached_target() {
            return None;
        }
        Some(ImpossibilityWitness {
            chain: run.chain?,
            horizon,
            undecided: run.undecided_per_state,
        })
    }

    /// Re-verifies every part of the witness from scratch.
    ///
    /// # Errors
    ///
    /// Returns the first [`WitnessError`] encountered; `Ok(())` means a
    /// fresh solver agrees with every claim the witness makes.
    pub fn verify<M>(&self, model: &M) -> Result<(), WitnessError>
    where
        M: LayeredModel<State = S>,
    {
        // The execution-shape checks (initial state, layer transitions) are
        // shared with the simulation replay path via `ExecutionTrace::validate`.
        match self.chain.validate(model) {
            Ok(()) => {}
            Err(TraceError::IllegalStep { step }) => {
                return Err(WitnessError::NotAnExecution { step });
            }
            Err(TraceError::NotInitial) => return Err(WitnessError::NotInitial),
        }
        let mut solver = ValenceSolver::new(model, self.horizon);
        let n = model.num_processes();
        let t = model.max_failures();
        for (index, x) in self.chain.states().iter().enumerate() {
            if !solver.is_bivalent(x) {
                return Err(WitnessError::NotBivalent { index });
            }
            let u = undecided_non_failed(model, x).len();
            if self.undecided.get(index) != Some(&u) {
                return Err(WitnessError::UndecidedMismatch { index });
            }
            if u < n - t {
                return Err(WitnessError::TooFewUndecided { index });
            }
            // The premise used at each extension step.
            if index + 1 < self.chain.states().len() {
                let layer = model.successors(x);
                if !valence_report(&mut solver, &layer).connected {
                    return Err(WitnessError::LayerDisconnected { index });
                }
            }
        }
        Ok(())
    }

    /// Length of the witnessed bivalent run, in layers.
    #[must_use]
    pub fn len(&self) -> usize {
        self.chain.steps()
    }

    /// Whether the witness is a single state.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.chain.steps() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::{flp_diamond, ScriptedModelBuilder};
    use crate::Value;

    fn spine() -> crate::testkit::ScriptedModel {
        // 0 -> 1 -> 2 spine with decided leaves at each level (see
        // layering.rs tests for the same shape).
        let mut b = ScriptedModelBuilder::new(2, 1).initial(&[Value::ZERO, Value::ONE], 0);
        for d in 0..2 {
            let (s, s2) = (d as u32, (d + 1) as u32);
            let (l0, l1) = (100 + d as u32, 200 + d as u32);
            b = b
                .edge(s, s2)
                .edge(s, l0)
                .edge(s, l1)
                .depth(s, d)
                .depth(l0, d + 1)
                .depth(l1, d + 1)
                .decision(l0, 0, Value::ZERO)
                .decision(l1, 1, Value::ONE)
                .agree(s2, l0, 1)
                .agree(s2, l1, 0);
        }
        b.depth(2, 2)
            .edge(2, 102)
            .edge(2, 202)
            .depth(102, 3)
            .depth(202, 3)
            .decision(102, 0, Value::ZERO)
            .decision(202, 1, Value::ONE)
            .build()
    }

    #[test]
    fn witness_builds_and_verifies_on_spine() {
        let m = spine();
        let w = ImpossibilityWitness::build(&m, 3, 2).expect("spine stays bivalent");
        assert_eq!(w.len(), 2);
        assert!(w.verify(&m).is_ok());
    }

    #[test]
    fn witness_build_fails_when_chain_cannot_extend() {
        let m = flp_diamond();
        assert!(ImpossibilityWitness::build(&m, 2, 2).is_none());
    }

    #[test]
    fn tampered_witness_is_rejected() {
        let m = spine();
        let w = ImpossibilityWitness::build(&m, 3, 2).expect("witness");

        // Tamper with the chain: replace the last state with a univalent leaf.
        let mut tampered = w.clone();
        let mut states: Vec<u32> = tampered.chain.states().to_vec();
        let last = states.len() - 1;
        states[last] = 201; // decided leaf: a legal successor of state 1, but univalent
        tampered.chain = ExecutionTrace::new(states);
        tampered.undecided[last] = undecided_non_failed(&m, &201).len();
        assert_eq!(
            tampered.verify(&m),
            Err(WitnessError::NotBivalent { index: last })
        );

        // Tamper with the undecided counts.
        let mut tampered = w.clone();
        tampered.undecided[0] = 0;
        assert_eq!(
            tampered.verify(&m),
            Err(WitnessError::UndecidedMismatch { index: 0 })
        );

        // Tamper with the path legality.
        let mut tampered = w;
        let states = vec![0u32, 2];
        tampered.chain = ExecutionTrace::new(states);
        tampered.undecided.truncate(2);
        assert_eq!(
            tampered.verify(&m),
            Err(WitnessError::NotAnExecution { step: 0 })
        );
    }
}
