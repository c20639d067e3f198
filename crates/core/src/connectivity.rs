//! Similarity and valence connectivity (Section 3, "Connectivity", and the
//! s-diameter machinery of Section 7).
//!
//! Two states are *similar* (`x ∼_s y`) if they agree modulo some process
//! `j` and some process `i ≠ j` is non-failed in both. Two states have a
//! *shared valence* (`x ∼_v y`) if both are `w`-valent for some `w`. A set
//! `X` of states is *similarity connected* (resp. *valence connected*) if
//! the graph `(X, ∼_s)` (resp. `(X, ∼_v)`) is connected.
//!
//! Everything here produces machine-checkable artifacts: connectivity
//! reports carry component structure, and [`SimilarityChain`] is an explicit
//! certificate (a path plus the per-edge witness processes) that can be
//! re-verified from scratch with [`SimilarityChain::verify`].

use std::fmt::Debug;

use crate::graph::Graph;
use crate::space::{Keying, StateId};
use crate::telemetry::{names, Observer, NOOP};
use crate::valence::{Solver, Valences};
use crate::{LayeredModel, Pid, ValenceSolver, Value};

/// Witness that `x ∼_s y`: the process `j` modulo which they agree, and a
/// process `i ≠ j` non-failed in both states.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SimilarityWitness {
    /// The process modulo which the two states agree.
    pub modulo: Pid,
    /// A process distinct from `modulo` that is non-failed in both states.
    pub non_failed: Pid,
}

/// Checks `x ∼_s y` and returns a witness if they are similar.
///
/// Returns the witness for the smallest qualifying `j`.
pub fn similarity_witness<M: LayeredModel>(
    model: &M,
    x: &M::State,
    y: &M::State,
) -> Option<SimilarityWitness> {
    let n = model.num_processes();
    for j in Pid::all(n) {
        if !model.agree_modulo(x, y, j) {
            continue;
        }
        let i = Pid::all(n).find(|&i| i != j && !model.failed_at(x, i) && !model.failed_at(y, i));
        if let Some(i) = i {
            return Some(SimilarityWitness {
                modulo: j,
                non_failed: i,
            });
        }
    }
    None
}

/// Whether `x ∼_s y`.
pub fn similar<M: LayeredModel>(model: &M, x: &M::State, y: &M::State) -> bool {
    similarity_witness(model, x, y).is_some()
}

/// The graph `(X, ∼_s)` over the given set of states. Reports pairs tested
/// (`connectivity.pairs_tested`) and similarity edges found
/// (`connectivity.similarity_edges`) to `obs`.
pub fn similarity_graph<M: LayeredModel>(
    model: &M,
    states: &[M::State],
    obs: &dyn Observer,
) -> Graph {
    Graph::from_predicate(states.len(), |a, b| {
        obs.counter(names::CONNECTIVITY_PAIRS_TESTED, 1);
        let edge = similar(model, &states[a], &states[b]);
        if edge {
            obs.counter(names::CONNECTIVITY_SIMILARITY_EDGES, 1);
        }
        edge
    })
}

/// Summary of a connectivity analysis of a state set.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ConnectivityReport {
    /// Number of states analyzed.
    pub states: usize,
    /// Whether the graph is connected.
    pub connected: bool,
    /// Number of connected components.
    pub components: usize,
    /// Diameter, when connected and non-empty.
    pub diameter: Option<usize>,
}

impl ConnectivityReport {
    fn from_graph(g: &Graph, obs: &dyn Observer) -> Self {
        ConnectivityReport {
            states: g.len(),
            connected: g.is_connected(),
            components: g.component_count(),
            diameter: g.diameter(obs),
        }
    }
}

/// Connectivity of `(X, ∼_s)`; edge tests and BFS metrics go to `obs`.
pub fn similarity_report<M: LayeredModel>(
    model: &M,
    states: &[M::State],
    obs: &dyn Observer,
) -> ConnectivityReport {
    ConnectivityReport::from_graph(&similarity_graph(model, states, obs), obs)
}

/// Connectivity of `(X, ∼_v)` over the given states, interned into
/// `solver`'s arena. Telemetry goes to the solver's observer.
pub fn valence_report<M: LayeredModel>(
    solver: &mut ValenceSolver<'_, M>,
    states: &[M::State],
) -> ConnectivityReport {
    let ids: Vec<StateId> = states.iter().map(|x| solver.intern(x)).collect();
    valence_report_ids(solver, &ids)
}

/// Connectivity of `(X, ∼_v)` over interned states, counted from the
/// valence flags the solver computes for each entry (no graph is built;
/// see `valence_census`). Telemetry goes to the solver's observer. Over a
/// [`QuotientSolver`](crate::QuotientSolver) the entries are orbit
/// representatives: valence is invariant under process renaming, so orbit
/// collapse preserves which classes are present, and with them the
/// `connected` verdict of every layer that holds a valent entry, while
/// `states`, `components` and `diameter` describe the collapsed set. Kept
/// public beside [`valence_report`] because `perfbench/src/scan.rs`
/// imports it.
pub fn valence_report_ids<M: LayeredModel, K: Keying<M>>(
    solver: &mut Solver<'_, M, K>,
    ids: &[StateId],
) -> ConnectivityReport {
    let flags: Vec<Valences> = ids.iter().map(|&id| solver.valences_id(id)).collect();
    valence_census(&flags)
}

/// The connectivity of `(X, ∼_v)` for entries with the given flags.
///
/// `x ∼_v y` depends only on the two entries' flags, so the graph is a
/// 0-valent clique and a 1-valent clique that share the bivalent entries,
/// plus one isolated vertex per entry with no valence. Counting the
/// 0-univalent (U0), 1-univalent (U1) and bivalent (B) entries therefore
/// decides everything: the valent entries form no component if there are
/// none, two if U0 and U1 are both non-empty and B is empty, and one
/// otherwise; any two valent entries are adjacent unless one is in U0 and
/// the other in U1, where a bivalent entry joins them in two steps.
/// Entries are counted by position, so a state listed twice counts twice.
fn valence_census(flags: &[Valences]) -> ConnectivityReport {
    let count = |zero, one| {
        flags
            .iter()
            .filter(|v| (v.zero, v.one) == (zero, one))
            .count()
    };
    let (u0, u1, b) = (count(true, false), count(false, true), count(true, true));
    let split = u0 > 0 && u1 > 0;
    // One valent component if any entry is valent, plus one more when no
    // bivalent entry bridges U0 and U1.
    let valent_components = usize::from(u0 + u1 + b > 0) + usize::from(split && b == 0);
    let components = count(false, false) + valent_components;
    let connected = components <= 1;
    let diameter = match flags.len() {
        0 => None,
        1 => Some(0),
        _ => connected.then_some(if split { 2 } else { 1 }),
    };
    ConnectivityReport {
        states: flags.len(),
        connected,
        components,
        diameter,
    }
}

/// The quotient name of [`valence_report_ids`] (the same function), kept
/// public because `perfbench/src/scan.rs` imports it.
pub use valence_report_ids as quotient_valence_report_ids;

/// The *s-diameter* of a state set: the diameter of `(X, ∼_s)`
/// (Section 7), or `None` if the set is not similarity connected.
pub fn s_diameter<M: LayeredModel>(model: &M, states: &[M::State]) -> Option<usize> {
    similarity_graph(model, states, &NOOP).diameter(&NOOP)
}

/// An explicit similarity-connectivity certificate: a path
/// `x = z⁰ ∼_s z¹ ∼_s ⋯ ∼_s z^k = y` together with per-edge witnesses.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SimilarityChain<S> {
    states: Vec<S>,
    witnesses: Vec<SimilarityWitness>,
}

impl<S: Clone + Eq + Debug> SimilarityChain<S> {
    /// Creates a chain; `witnesses.len()` must equal `states.len() - 1`.
    ///
    /// # Panics
    ///
    /// Panics if the lengths are inconsistent or the chain is empty.
    #[must_use]
    pub fn new(states: Vec<S>, witnesses: Vec<SimilarityWitness>) -> Self {
        assert!(!states.is_empty(), "chain must contain at least one state");
        assert_eq!(
            witnesses.len(),
            states.len() - 1,
            "one witness per chain edge"
        );
        SimilarityChain { states, witnesses }
    }

    /// The chain's states in order.
    #[must_use]
    pub fn states(&self) -> &[S] {
        &self.states
    }

    /// The per-edge witnesses.
    #[must_use]
    pub fn witnesses(&self) -> &[SimilarityWitness] {
        &self.witnesses
    }

    /// Chain length in edges.
    #[must_use]
    pub fn len(&self) -> usize {
        self.witnesses.len()
    }

    /// Whether the chain is a single state.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.witnesses.is_empty()
    }

    /// Re-verifies every edge of the certificate against the model from
    /// scratch: agreement modulo the witness process, distinctness, and
    /// non-failedness of the witness observer.
    ///
    /// # Errors
    ///
    /// Returns `Err(k)` for the first edge `k` whose witness fails.
    pub fn verify<M>(&self, model: &M) -> Result<(), usize>
    where
        M: LayeredModel<State = S>,
    {
        for (k, (w, pair)) in self
            .witnesses
            .iter()
            .zip(self.states.windows(2))
            .enumerate()
        {
            let (x, y) = (&pair[0], &pair[1]);
            let ok = w.modulo != w.non_failed
                && model.agree_modulo(x, y, w.modulo)
                && !model.failed_at(x, w.non_failed)
                && !model.failed_at(y, w.non_failed);
            if !ok {
                return Err(k);
            }
        }
        Ok(())
    }
}

/// Extracts a similarity chain between `states[from]` and `states[to]`
/// through the set `states`, or `None` if they are in different components
/// of `(X, ∼_s)`. Reports edge tests and, on success, the extracted chain
/// length (`connectivity.chain_length` gauge) to `obs`.
pub fn similarity_chain_between<M: LayeredModel>(
    model: &M,
    states: &[M::State],
    from: usize,
    to: usize,
    obs: &dyn Observer,
) -> Option<SimilarityChain<M::State>> {
    let g = similarity_graph(model, states, obs);
    let path = g.shortest_path(from, to)?;
    obs.gauge(names::CONNECTIVITY_CHAIN_LENGTH, (path.len() - 1) as u64);
    let chain_states: Vec<M::State> = path.iter().map(|&i| states[i].clone()).collect();
    let witnesses: Vec<SimilarityWitness> = chain_states
        .windows(2)
        .map(|w| similarity_witness(model, &w[0], &w[1]).expect("edge implies witness"))
        .collect();
    Some(SimilarityChain::new(chain_states, witnesses))
}

/// The interpolation chain of input vectors used in the proof of Lemma 3.6.
///
/// Produces `c⁰ = x, c¹, …, cⁿ = y` where `c^l` takes `y`'s values on the
/// first `l` coordinates and `x`'s on the rest, so consecutive vectors
/// differ in exactly one coordinate (`c^{l-1}` and `c^l` differ at process
/// `l`, hence the corresponding initial states agree modulo that process).
/// Degenerate steps (where `x` and `y` already agree at the coordinate) are
/// kept, so the result always has `n + 1` entries.
///
/// # Examples
///
/// ```
/// use layered_core::{input_interpolation, Value};
///
/// let x = vec![Value::ZERO, Value::ZERO];
/// let y = vec![Value::ONE, Value::ONE];
/// let chain = input_interpolation(&x, &y);
/// assert_eq!(chain.len(), 3);
/// assert_eq!(chain[0], x);
/// assert_eq!(chain[2], y);
/// assert_eq!(chain[1], vec![Value::ONE, Value::ZERO]);
/// ```
#[must_use]
pub fn input_interpolation(x: &[Value], y: &[Value]) -> Vec<Vec<Value>> {
    assert_eq!(x.len(), y.len(), "input vectors must have equal length");
    let n = x.len();
    (0..=n)
        .map(|l| {
            let mut c = Vec::with_capacity(n);
            c.extend_from_slice(&y[..l]);
            c.extend_from_slice(&x[l..]);
            c
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::{flp_diamond, ScriptedModelBuilder};
    use crate::{binary_input_vectors, LayeredModel};

    #[test]
    fn similarity_witness_found_in_diamond() {
        let m = flp_diamond();
        let w = similarity_witness(&m, &1, &2).expect("1 ~s 2 was scripted");
        assert_eq!(w.modulo, Pid::new(1));
        assert_eq!(w.non_failed, Pid::new(0));
        assert!(similar(&m, &1, &2));
        assert!(!similar(&m, &3, &4));
    }

    #[test]
    fn similarity_requires_nonfailed_observer() {
        // x and y agree modulo p1, but the only other process (p2) is failed
        // in x — so they are NOT similar.
        let m = ScriptedModelBuilder::new(2, 1)
            .initial(&[Value::ZERO, Value::ZERO], 0)
            .initial(&[Value::ONE, Value::ZERO], 1)
            .agree(0, 1, 0)
            .failed(0, 1)
            .build();
        assert!(similarity_witness(&m, &0, &1).is_none());
    }

    #[test]
    fn similarity_graph_and_report() {
        let m = flp_diamond();
        let states = vec![1u32, 2u32];
        let rep = similarity_report(&m, &states, &NOOP);
        assert!(rep.connected);
        assert_eq!(rep.components, 1);
        assert_eq!(rep.diameter, Some(1));
        let disc = similarity_report(&m, &[3u32, 4u32], &NOOP);
        assert!(!disc.connected);
        assert_eq!(disc.components, 2);
    }

    #[test]
    fn valence_report_on_diamond_layer() {
        let m = flp_diamond();
        let mut solver = ValenceSolver::new(&m, 2);
        let layer = m.successors(&0);
        // states 1 and 2 are univalent with different values and not
        // bivalent: the valence graph over {1,2} is disconnected...
        let rep = valence_report(&mut solver, &layer);
        assert!(!rep.connected);
        // ...but adding the bivalent root connects everything.
        let with_root = vec![0u32, 1, 2];
        let rep2 = valence_report(&mut solver, &with_root);
        assert!(rep2.connected);
    }

    /// The report of the explicit graph `(X, ∼_v)` over entries with the
    /// given flags: the reference the census must match.
    fn graph_report(flags: &[Valences]) -> ConnectivityReport {
        let g = Graph::from_predicate(flags.len(), |a, b| {
            (flags[a].zero && flags[b].zero) || (flags[a].one && flags[b].one)
        });
        ConnectivityReport::from_graph(&g, &NOOP)
    }

    /// Flags from class codes: bit 0 is 0-valent, bit 1 is 1-valent.
    fn flags_of(classes: &[u8]) -> Vec<Valences> {
        let flag = |c: u8| Valences {
            zero: c & 1 != 0,
            one: c & 2 != 0,
        };
        classes.iter().map(|&c| flag(c)).collect()
    }

    proptest::proptest! {
        /// On random flag vectors, and on the empty set, each vector's
        /// first entry, the vector listed twice, and the same number of
        /// no-valence entries.
        #[test]
        fn census_matches_the_graph(classes in proptest::collection::vec(0u8..4, 0..10)) {
            let flags = flags_of(&classes);
            let first = &flags[..flags.len().min(1)];
            let doubled = [flags.as_slice(), flags.as_slice()].concat();
            let no_valence = vec![Valences::NONE; flags.len()];
            for set in [&[][..], first, &flags, &doubled, &no_valence] {
                proptest::prop_assert_eq!(valence_census(set), graph_report(set), "{:?}", set);
            }
        }
    }

    #[test]
    fn chain_extraction_and_verification() {
        let m = flp_diamond();
        let states = vec![1u32, 2u32];
        let chain = similarity_chain_between(&m, &states, 0, 1, &NOOP).expect("connected");
        assert_eq!(chain.len(), 1);
        assert!(chain.verify(&m).is_ok());
    }

    #[test]
    fn chain_verify_detects_forged_certificate() {
        let m = flp_diamond();
        let forged = SimilarityChain::new(
            vec![3u32, 4u32],
            vec![SimilarityWitness {
                modulo: Pid::new(0),
                non_failed: Pid::new(1),
            }],
        );
        assert_eq!(forged.verify(&m), Err(0));
    }

    #[test]
    fn interpolation_endpoints_and_single_coordinate_steps() {
        for n in 1..=4 {
            let vecs = binary_input_vectors(n);
            for x in &vecs {
                for y in &vecs {
                    let chain = input_interpolation(x, y);
                    assert_eq!(chain.len(), n + 1);
                    assert_eq!(&chain[0], x);
                    assert_eq!(&chain[n], y);
                    for l in 1..=n {
                        let diffs = chain[l - 1]
                            .iter()
                            .zip(&chain[l])
                            .filter(|(a, b)| a != b)
                            .count();
                        assert!(diffs <= 1, "consecutive vectors differ in ≤1 coordinate");
                        if diffs == 1 {
                            assert_ne!(chain[l - 1][l - 1], chain[l][l - 1]);
                        }
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn interpolation_length_mismatch_panics() {
        let _ = input_interpolation(&[Value::ZERO], &[Value::ZERO, Value::ONE]);
    }

    #[test]
    fn s_diameter_of_disconnected_set_is_none() {
        let m = flp_diamond();
        assert_eq!(s_diameter(&m, &[3u32, 4u32]), None);
        assert_eq!(s_diameter(&m, &[1u32, 2u32]), Some(1));
    }
}
