//! Coverings and generalized valence (Section 7).
//!
//! A pair `O₀, O₁` of complexes is a *covering* of a set of runs if every
//! decided output simplex lies in one or both of them and each contains at
//! least one. Valence generalizes: a state is `v`-valent w.r.t. the
//! covering if some extension's nonfaulty-decision simplex lies in `O_v`.
//! Lemma 7.1 then replays the Theorem 4.2 construction: under the usual
//! layer-connectivity premises, a run exists all of whose states are
//! bivalent w.r.t. the covering — which is how the paper characterizes
//! solvable decision problems.
//!
//! A [`Covering`] is a [`ValenceProbe`]: core's solver, given one through
//! [`Solver::with_probe`](layered_core::Solver::with_probe), computes
//! generalized valence with the same arena, memo and telemetry as binary
//! valence, and [`build_bivalent_run`](layered_core::build_bivalent_run)
//! over that solver is the Lemma 7.1 construction.

use layered_core::{LayeredModel, Pid, ValenceProbe, Valences, Value};

use crate::complex::Complex;
use crate::simplex::Simplex;

/// A covering `O₀, O₁` of a set of runs.
#[derive(Clone, Debug)]
pub struct Covering {
    o0: Complex,
    o1: Complex,
}

impl Covering {
    /// A covering from its two complexes.
    ///
    /// # Panics
    ///
    /// Panics if either complex is empty (a covering's parts each contain a
    /// decided output simplex).
    #[must_use]
    pub fn new(o0: Complex, o1: Complex) -> Self {
        assert!(
            !o0.is_empty() && !o1.is_empty(),
            "both parts of a covering must be non-empty"
        );
        Covering { o0, o1 }
    }

    /// The canonical consensus covering: `O_v` is generated by the all-`v`
    /// output simplex. Under it, generalized valence coincides with the
    /// binary valence of Section 3.
    #[must_use]
    pub fn consensus(n: usize) -> Self {
        Covering::new(
            Complex::from_facets([Simplex::full(&vec![Value::ZERO; n])]),
            Complex::from_facets([Simplex::full(&vec![Value::ONE; n])]),
        )
    }

    /// The part `O₀`.
    #[must_use]
    pub fn o0(&self) -> &Complex {
        &self.o0
    }

    /// The part `O₁`.
    #[must_use]
    pub fn o1(&self) -> &Complex {
        &self.o1
    }

    /// Membership of a decision simplex in each part: `zero` for `O₀`,
    /// `one` for `O₁`.
    #[must_use]
    pub fn classify(&self, s: &Simplex) -> Valences {
        Valences {
            zero: self.o0.contains(s),
            one: self.o1.contains(s),
        }
    }

    /// Whether the pair covers the given decided output simplexes: every
    /// one lies in `O₀ ∪ O₁`, and each part contains at least one.
    #[must_use]
    pub fn is_covering_of(&self, outputs: &[Simplex]) -> bool {
        outputs
            .iter()
            .all(|s| self.o0.contains(s) || self.o1.contains(s))
            && outputs.iter().any(|s| self.o0.contains(s))
            && outputs.iter().any(|s| self.o1.contains(s))
    }
}

/// Generalized valence: a state at the horizon is classified by every
/// decision simplex its runs can present (see
/// [`nonfaulty_decision_simplexes`]); a state below it contributes nothing
/// itself and takes the union over its layer. As with binary valence this
/// under-approximates the infinite-run notion and coincides with it when
/// the protocol decides within the horizon.
impl<M: LayeredModel> ValenceProbe<M> for Covering {
    fn probe(&self, model: &M, x: &M::State, at_horizon: bool) -> Valences {
        if !at_horizon {
            return Valences::NONE;
        }
        // Empty simplexes contribute nothing: under the Decision
        // requirement a run's nonfaulty processes decide, so the run's
        // output simplex is never empty — counting the empty face would
        // make every state vacuously bivalent.
        nonfaulty_decision_simplexes(model, x)
            .iter()
            .filter(|s| !s.is_empty())
            .map(|s| self.classify(s))
            .fold(Valences::NONE, Valences::union)
    }
}

/// The decision simplex of the non-failed processes at a state.
pub fn decided_simplex<M: LayeredModel>(model: &M, x: &M::State) -> Simplex {
    Simplex::from_pairs(
        Pid::all(model.num_processes())
            .filter(|&i| !model.failed_at(x, i))
            .filter_map(|i| model.decision(x, i).map(|v| (i, v))),
    )
}

/// All decision simplexes a run through `x` can present as "the decisions
/// of the nonfaulty processes": the paper excludes faulty processes'
/// decisions from the output simplex, and by fault independence any set of
/// currently non-failed processes within the remaining failure budget can
/// still turn out faulty in an extension. Returns the decided simplex with
/// each admissible exclusion set removed.
pub fn nonfaulty_decision_simplexes<M: LayeredModel>(model: &M, x: &M::State) -> Vec<Simplex> {
    let n = model.num_processes();
    let failed: Vec<Pid> = Pid::all(n).filter(|&i| model.failed_at(x, i)).collect();
    let budget = model.max_failures().saturating_sub(failed.len());
    let candidates: Vec<Pid> = Pid::all(n).filter(|i| !failed.contains(i)).collect();
    let mut out = Vec::new();
    // Enumerate exclusion sets E ⊆ candidates with |E| <= budget.
    let masks = 1usize << candidates.len();
    for mask in 0..masks {
        if (mask.count_ones() as usize) > budget {
            continue;
        }
        let simplex = Simplex::from_pairs(
            candidates
                .iter()
                .enumerate()
                .filter(|(bit, _)| (mask >> bit) & 1 == 0)
                .filter_map(|(_, &i)| model.decision(x, i).map(|v| (i, v))),
        );
        out.push(simplex);
    }
    out
}

#[cfg(test)]
mod tests {
    use layered_core::telemetry::NOOP;
    use layered_core::testkit::flp_diamond;
    use layered_core::{build_bivalent_run, Stuck, Valence, ValenceSolver};

    use super::*;

    #[test]
    fn consensus_covering_matches_binary_valence() {
        let m = flp_diamond();
        let cov = Covering::consensus(2);
        let mut gsolver = ValenceSolver::with_probe(&m, 2, &cov, &NOOP);
        let mut bsolver = ValenceSolver::new(&m, 2);
        for x in [0u32, 1, 2, 3, 4] {
            let id = gsolver.intern(&x);
            let g = gsolver.valences_id(id);
            let b = bsolver.valence(&x);
            match b {
                Valence::Bivalent => assert!(g.classify().is_bivalent()),
                Valence::Univalent(Value::ZERO) => assert!(g.zero && !g.one),
                Valence::Univalent(Value::ONE) => assert!(g.one && !g.zero),
                _ => {}
            }
        }
    }

    #[test]
    fn classify_uses_face_membership() {
        let cov = Covering::consensus(2);
        let partial = Simplex::from_pairs([(Pid::new(0), Value::ZERO)]);
        let flags = cov.classify(&partial);
        assert!(flags.zero && !flags.one);
        // The empty simplex is a face of everything: bivalent.
        assert!(cov.classify(&Simplex::new()).classify().is_bivalent());
    }

    #[test]
    fn is_covering_of_requires_both_parts_hit() {
        let cov = Covering::consensus(2);
        let zero = Simplex::full(&[Value::ZERO, Value::ZERO]);
        let one = Simplex::full(&[Value::ONE, Value::ONE]);
        assert!(cov.is_covering_of(&[zero.clone(), one.clone()]));
        assert!(!cov.is_covering_of(std::slice::from_ref(&zero)));
        let stray = Simplex::full(&[Value::ZERO, Value::ONE]);
        assert!(!cov.is_covering_of(&[zero, one, stray]));
    }

    #[test]
    fn lemma_7_1_builds_chain_on_diamond() {
        let m = flp_diamond();
        let cov = Covering::consensus(2);
        let mut solver = ValenceSolver::with_probe(&m, 2, &cov, &NOOP);
        let out = build_bivalent_run(&mut solver, 0);
        assert!(out.reached_target());
        // Asking for more steps than bivalence survives stalls gracefully.
        let mut solver = ValenceSolver::with_probe(&m, 2, &cov, &NOOP);
        let out = build_bivalent_run(&mut solver, 2);
        assert!(!out.reached_target());
        assert!(matches!(
            out.stuck,
            Some(Stuck::NoBivalentSuccessor { depth: 0, .. })
        ));
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_covering_part_rejected() {
        let _ = Covering::new(Complex::new(), Complex::new());
    }
}
