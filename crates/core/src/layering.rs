//! The layering engine (Section 4 of the paper).
//!
//! Lemma 4.1: if `x` is bivalent and `S(x)` is valence connected, then
//! `S(x)` contains a bivalent state. Theorem 4.2 iterates this from a
//! bivalent initial state (supplied by Lemma 3.6) into an ever-bivalent run,
//! contradicting *Decision* — the unified impossibility argument.
//!
//! This module mechanizes both steps: [`bivalent_successor_id`] is Lemma 4.1
//! for one layer, [`build_bivalent_run`] is the Theorem 4.2 loop, and
//! [`scan_layer_valence_connectivity`] verifies the theorem's premise (iii)
//! — valence connectivity of every layer — over the reachable graph.
//!
//! # Horizon soundness
//!
//! Valence is computed within a finite horizon and therefore
//! *under-approximates* the paper's notion (see [`ValenceSolver`]): every
//! state reported bivalent is genuinely bivalent, so every chain produced
//! here is a sound impossibility witness. When the chain cannot be extended,
//! the outcome records why — typically because the protocol under analysis
//! already violates Decision/Agreement/Validity at the horizon, which the
//! [checker](crate::checker) surfaces separately.

use std::ops::ControlFlow;

use crate::connectivity::{valence_report_ids, ConnectivityReport};
use crate::model::ExecutionTrace;
use crate::space::{walk, Keying, NextLevel, StateId};
use crate::telemetry::{names, Span, NOOP};
use crate::valence::{undecided_non_failed, Solver, Valence};
use crate::{LayeredModel, ValenceSolver};

/// Lemma 4.1, executed: the first bivalent entry in `S(x)`, if any.
///
/// Walks the interned successor list of `x` (cached in the solver's arena)
/// in edge order without cloning states, which keeps runs deterministic and
/// reproducible. Under [`Orbits`](crate::space::Orbits) it is the first
/// bivalent orbit in the collapsed layer of `x`'s representative.
pub fn bivalent_successor_id<M: LayeredModel, K: Keying<M>>(
    solver: &mut Solver<'_, M, K>,
    x: StateId,
) -> Option<StateId> {
    let obs = solver.observer();
    solver.successor_ids(x).into_iter().find(|&y| {
        obs.counter(names::LAYERING_CANDIDATES_TESTED, 1);
        solver.is_bivalent_id(y)
    })
}

/// Why a bivalent run stopped before reaching its target length.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Stuck {
    /// No initial state is bivalent. By Lemma 3.6, a protocol satisfying
    /// Decision and Validity (with arbitrary-crash display on `Con₀`) must
    /// have one, so this certifies a violation of one of those requirements
    /// within the horizon.
    NoBivalentInitialState,
    /// The chain reached a bivalent state whose layer contains no bivalent
    /// state. If the layer is valence connected, Lemma 4.1 says this is
    /// impossible for a decision-satisfying protocol; the attached report
    /// shows which premise broke.
    NoBivalentSuccessor {
        /// Depth at which the chain stalled.
        depth: usize,
        /// Valence connectivity of the stalling layer.
        layer_report: ConnectivityReport,
    },
}

/// Result of the Theorem 4.2 construction.
#[derive(Clone, Debug)]
pub struct BivalentRunOutcome<S> {
    /// The constructed chain of bivalent states (always starts at an initial
    /// state when one bivalent initial state exists).
    pub chain: Option<ExecutionTrace<S>>,
    /// Why construction stopped early, if it did.
    pub stuck: Option<Stuck>,
    /// For each chain state, the number of non-failed undecided processes —
    /// the quantity Lemma 3.1 lower-bounds by `n − t`.
    pub undecided_per_state: Vec<usize>,
}

impl<S> BivalentRunOutcome<S> {
    /// Whether a chain of the requested length was built.
    #[must_use]
    pub fn reached_target(&self) -> bool {
        self.stuck.is_none() && self.chain.is_some()
    }
}

/// The Theorem 4.2 loop: find a bivalent initial state and extend it through
/// `steps` layers, keeping every state bivalent.
///
/// The solver's horizon bounds the lookahead used for valence; callers
/// normally set it to the protocol's claimed decision deadline and request
/// `steps <= horizon`.
///
/// The loop runs on dense ids, and the chain is materialized into a
/// *genuine execution* of the model only on return. Over a
/// [`QuotientSolver`](crate::QuotientSolver) it finds a bivalent initial
/// orbit, extends it through collapsed layers, and de-quotients the chain
/// from the per-edge witnessing permutations (see
/// [`Arena::dequotient_path`](crate::space::Arena::dequotient_path)). The
/// undecided counts are taken on the representatives, which is sound: the
/// number of undecided non-failed processes is invariant under renaming
/// (`decision` and `failed_at` transport along the permutation).
pub fn build_bivalent_run<M: LayeredModel, K: Keying<M>>(
    solver: &mut Solver<'_, M, K>,
    steps: usize,
) -> BivalentRunOutcome<M::State> {
    let Some(x0) = solver.bivalent_initial_id() else {
        let obs = solver.observer();
        obs.counter(names::LAYERING_STUCK, 1);
        obs.event(names::LAYERING_STUCK, "no_bivalent_initial_state");
        return BivalentRunOutcome {
            chain: None,
            stuck: Some(Stuck::NoBivalentInitialState),
            undecided_per_state: Vec::new(),
        };
    };
    run_from(solver, x0, steps)
}

/// The Theorem 4.2 loop from a given bivalent starting state.
///
/// # Panics
///
/// Panics if `start` is not bivalent under the solver's horizon.
pub fn extend_bivalent_run<M: LayeredModel>(
    solver: &mut ValenceSolver<'_, M>,
    start: M::State,
    steps: usize,
) -> BivalentRunOutcome<M::State> {
    let id = solver.intern(&start);
    run_from(solver, id, steps)
}

/// The Theorem 4.2 chain from the bivalent `start` (Lemma 4.1 applied
/// layer by layer), materialized once the loop is done.
fn run_from<M: LayeredModel, K: Keying<M>>(
    solver: &mut Solver<'_, M, K>,
    start: StateId,
    steps: usize,
) -> BivalentRunOutcome<M::State> {
    assert!(
        solver.is_bivalent_id(start),
        "extend_bivalent_run requires a bivalent starting state"
    );
    let (chain, stuck, undecided_per_state) = {
        let _span = Span::enter(solver.observer(), names::LAYERING_BIVALENT_RUN);
        extend_chain(solver, start, steps)
    };
    let states = solver
        .space()
        .dequotient_path(solver.model(), &chain)
        .expect("run chains follow cached edges");
    BivalentRunOutcome {
        chain: Some(ExecutionTrace::new(states)),
        stuck,
        undecided_per_state,
    }
}

/// The id chain from `start`, why it stopped early (if it did), and the
/// undecided count of each chain entry.
fn extend_chain<M: LayeredModel, K: Keying<M>>(
    solver: &mut Solver<'_, M, K>,
    start: StateId,
    steps: usize,
) -> (Vec<StateId>, Option<Stuck>, Vec<usize>) {
    let model = solver.model();
    let obs = solver.observer();
    let mut chain = vec![start];
    let mut undecided = vec![undecided_non_failed(model, &solver.space().resolve(start)).len()];
    for _ in 0..steps {
        let x = *chain.last().expect("chain is non-empty");
        match bivalent_successor_id(solver, x) {
            Some(y) => {
                obs.counter(names::LAYERING_EXTENSIONS, 1);
                undecided.push(undecided_non_failed(model, &solver.space().resolve(y)).len());
                chain.push(y);
                obs.gauge(names::LAYERING_RUN_LENGTH, (chain.len() - 1) as u64);
            }
            None => {
                let layer = solver.successor_ids(x);
                let report = valence_report_ids(solver, &layer);
                let depth = model.depth(&solver.space().resolve(x));
                obs.counter(names::LAYERING_STUCK, 1);
                obs.event(
                    names::LAYERING_STUCK,
                    &format!(
                        "no_bivalent_successor depth={depth} layer_{}={} components={}",
                        K::UNIT,
                        report.states,
                        report.components
                    ),
                );
                let stuck = Stuck::NoBivalentSuccessor {
                    depth,
                    layer_report: report,
                };
                return (chain, Some(stuck), undecided);
            }
        }
    }
    (chain, None, undecided)
}

/// Result of sweeping layer valence connectivity over the reachable graph —
/// premise (iii) of Theorem 4.2.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LayerScan<S> {
    /// Number of states whose layer was checked.
    pub layers_checked: usize,
    /// Total states enumerated.
    pub states_seen: usize,
    /// First state whose layer `S(x)` is not valence connected, with its
    /// report, if any.
    pub violation: Option<(S, ConnectivityReport)>,
}

impl<S> LayerScan<S> {
    /// Whether every checked layer was valence connected.
    #[must_use]
    pub fn all_connected(&self) -> bool {
        self.violation.is_none()
    }
}

/// Checks that `S(x)` is valence connected for every state `x` reachable
/// within `depth_limit` layers of the initial states.
///
/// `only_bivalent` restricts the sweep to bivalent states — the only ones
/// Lemma 4.1 is ever applied to — which is both cheaper and avoids vacuous
/// failures on univalent states near the horizon (whose layers can contain
/// `NoValence` successors purely due to lookahead truncation).
///
/// Over a [`QuotientSolver`](crate::QuotientSolver) the sweep visits one
/// representative per reachable orbit and checks each representative's
/// *orbit-collapsed* layer. Soundness: over an equivariant layering the
/// quotient BFS visits exactly the orbits of the full BFS's states
/// (bivalence is orbit-invariant, so the `only_bivalent` filter selects the
/// same orbits), and orbit collapse preserves which valence classes a
/// layer holds, which fixes the `connected` verdict of every layer with a
/// valent entry (see [`valence_report_ids`]). `layers_checked` /
/// `states_seen` then count *orbits* and are smaller than the full scan's
/// — that reduction is the point.
pub fn scan_layer_valence_connectivity<M: LayeredModel, K: Keying<M>>(
    solver: &mut Solver<'_, M, K>,
    depth_limit: usize,
    only_bivalent: bool,
) -> LayerScan<M::State> {
    let model = solver.model();
    let obs = solver.observer();
    let _span = Span::enter(obs, names::LAYERING_LAYER_SCAN);
    let mut first = NextLevel::default();
    let initial = model.initial_states();
    first.offer(initial.iter().map(|x| solver.intern_id(x)), &NOOP);
    let mut states_seen = first.ids().len();
    let mut layers_checked = 0;
    obs.gauge(names::ENGINE_FRONTIER_WIDTH, states_seen as u64);
    let violation = walk(first, depth_limit + 1, |_, level, next| {
        for &id in level {
            obs.counter(names::ENGINE_STATES_VISITED, 1);
            let _check_span = Span::enter_with(
                obs,
                names::LAYERING_CHECK_LAYER,
                &[("state", id.index() as u64)],
            );
            if only_bivalent {
                let bivalent = {
                    let _classify_span = Span::enter(obs, names::VALENCE_CLASSIFY);
                    solver.is_bivalent_id(id)
                };
                if !bivalent {
                    continue;
                }
            }
            let layer = solver.successor_ids(id);
            let report = valence_report_ids(solver, &layer);
            layers_checked += 1;
            obs.counter(names::LAYERING_LAYERS_SCANNED, 1);
            if !report.connected {
                obs.event(
                    names::LAYERING_SCAN_VIOLATION,
                    &format!(
                        "disconnected layer: {} {} in {} components",
                        report.states,
                        K::UNIT,
                        report.components
                    ),
                );
                return ControlFlow::Break((solver.space().resolve(id), report));
            }
            if model.depth(&solver.space().resolve(id)) < depth_limit {
                next.offer(layer, obs);
            }
        }
        obs.gauge(names::ENGINE_FRONTIER_WIDTH, next.ids().len() as u64);
        states_seen += next.ids().len();
        ControlFlow::Continue(())
    });
    LayerScan {
        layers_checked,
        states_seen,
        violation,
    }
}

/// The quotient name of [`scan_layer_valence_connectivity`] (the same
/// function), kept public because `perfbench/src/scan.rs` imports it.
pub use scan_layer_valence_connectivity as scan_layer_valence_connectivity_quotient;

/// Lemma 3.1, checked exhaustively: every bivalent state reachable within
/// `depth_limit` layers has at least `n − t` non-failed undecided processes.
///
/// Returns the first violating state, if any.
pub fn check_lemma_3_1<M: LayeredModel>(
    solver: &mut ValenceSolver<'_, M>,
    depth_limit: usize,
) -> Option<M::State> {
    let model = solver.model();
    let t = model.max_failures();
    let n = model.num_processes();
    lemma_sweep(solver, depth_limit, n - t, |_, _| {})
}

/// Lemma 3.2, checked exhaustively for systems displaying *no finite
/// failure*: no process has decided at any bivalent state reachable within
/// `depth_limit` layers. Returns the first violating state, if any.
///
/// # Panics
///
/// Panics if the model records a failed process anywhere in the scanned
/// region (such a model does not display "no finite failure", and the lemma
/// does not apply).
pub fn check_lemma_3_2<M: LayeredModel>(
    solver: &mut ValenceSolver<'_, M>,
    depth_limit: usize,
) -> Option<M::State> {
    let model = solver.model();
    let n = model.num_processes();
    lemma_sweep(solver, depth_limit, n, |m, x| {
        assert!(
            (0..n).all(|i| !m.failed_at(x, crate::Pid::new(i))),
            "Lemma 3.2 applies only to systems displaying no finite failure"
        );
    })
}

/// The [`walk`] behind the Lemma 3.1/3.2 checkers: returns the first
/// bivalent state within `depth_limit` layers whose non-failed undecided
/// count drops below `min_undecided`, running `precheck` on every visited
/// state first.
fn lemma_sweep<M: LayeredModel>(
    solver: &mut ValenceSolver<'_, M>,
    depth_limit: usize,
    min_undecided: usize,
    precheck: impl Fn(&M, &M::State),
) -> Option<M::State> {
    let model = solver.model();
    let obs = solver.observer();
    let mut first = NextLevel::default();
    let initial = model.initial_states();
    first.offer(initial.iter().map(|x| solver.intern(x)), &NOOP);
    walk(first, depth_limit + 1, |_, level, next| {
        for &id in level {
            obs.counter(names::ENGINE_STATES_VISITED, 1);
            let x = solver.space().resolve(id);
            precheck(model, &x);
            if solver.valence_id(id) == Valence::Bivalent
                && undecided_non_failed(model, &x).len() < min_undecided
            {
                return ControlFlow::Break(x);
            }
            if model.depth(&x) < depth_limit {
                next.offer(solver.successor_ids(id), obs);
            }
        }
        obs.gauge(names::ENGINE_FRONTIER_WIDTH, next.ids().len() as u64);
        ControlFlow::Continue(())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::{flp_diamond, ScriptedModelBuilder};
    use crate::Value;

    /// A model where the root stays bivalent for 3 layers:
    /// a chain of bivalent states each with a decided 0-branch and 1-branch.
    fn bivalent_spine(depth: usize) -> crate::testkit::ScriptedModel {
        let mut b = ScriptedModelBuilder::new(2, 1).initial(&[Value::ZERO, Value::ONE], 0);
        // ids: spine state at depth d = d; leaf0 at 100+d; leaf1 at 200+d.
        for d in 0..depth {
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
                // spine, leaf0, leaf1 pairwise linked for valence via spine
                .agree(s2, l0, 1)
                .agree(s2, l1, 0);
        }
        // terminal spine state decides both ways one last time
        let s = depth as u32;
        b = b
            .depth(s, depth)
            .edge(s, 100 + depth as u32)
            .edge(s, 200 + depth as u32)
            .depth(100 + depth as u32, depth + 1)
            .depth(200 + depth as u32, depth + 1)
            .decision(100 + depth as u32, 0, Value::ZERO)
            .decision(200 + depth as u32, 1, Value::ONE);
        b.build()
    }

    #[test]
    fn bivalent_successor_finds_spine() {
        let m = bivalent_spine(3);
        let mut solver = ValenceSolver::new(&m, 4);
        let x = solver.intern(&0);
        let y = bivalent_successor_id(&mut solver, x).expect("spine continues");
        assert_eq!(solver.space().resolve(y), 1);
    }

    #[test]
    fn build_bivalent_run_walks_the_spine() {
        let m = bivalent_spine(3);
        let mut solver = ValenceSolver::new(&m, 4);
        let out = build_bivalent_run(&mut solver, 3);
        assert!(out.reached_target());
        let chain = out.chain.expect("chain built");
        assert_eq!(chain.states(), &[0, 1, 2, 3]);
        assert!(chain.verify(&m).is_ok());
        // Lemma 3.2 flavor: nobody decided along the chain (n = 2 undecided).
        assert!(out.undecided_per_state.iter().all(|&u| u == 2));
    }

    #[test]
    fn run_reports_stuck_when_spine_ends() {
        let m = bivalent_spine(2);
        let mut solver = ValenceSolver::new(&m, 3);
        let out = build_bivalent_run(&mut solver, 10);
        assert!(!out.reached_target());
        match out.stuck {
            Some(Stuck::NoBivalentSuccessor { depth, .. }) => assert_eq!(depth, 2),
            other => panic!("unexpected outcome: {other:?}"),
        }
    }

    #[test]
    fn no_bivalent_initial_state_is_reported() {
        // Single initial state that decides 0 immediately: univalent.
        let m = ScriptedModelBuilder::new(2, 1)
            .initial(&[Value::ZERO, Value::ZERO], 0)
            .decision(0, 0, Value::ZERO)
            .depth(0, 0)
            .build();
        let mut solver = ValenceSolver::new(&m, 0);
        let out = build_bivalent_run(&mut solver, 1);
        assert_eq!(out.stuck, Some(Stuck::NoBivalentInitialState));
    }

    #[test]
    fn layer_scan_flags_disconnected_layer() {
        // The diamond's root layer {1, 2} is NOT valence connected (0- and
        // 1-univalent with no bridge), so the scan over bivalent states
        // reports it.
        let m = flp_diamond();
        let mut solver = ValenceSolver::new(&m, 2);
        let scan = scan_layer_valence_connectivity(&mut solver, 1, true);
        assert!(!scan.all_connected());
        let (state, report) = scan.violation.expect("diamond layer disconnects");
        assert_eq!(state, 0);
        assert_eq!(report.components, 2);
    }

    #[test]
    fn layer_scan_passes_on_spine() {
        let m = bivalent_spine(2);
        let mut solver = ValenceSolver::new(&m, 3);
        let scan = scan_layer_valence_connectivity(&mut solver, 1, true);
        assert!(scan.all_connected(), "violation: {:?}", scan.violation);
        assert!(scan.layers_checked >= 2);
    }

    #[test]
    fn lemma_3_1_holds_on_spine() {
        let m = bivalent_spine(3);
        let mut solver = ValenceSolver::new(&m, 4);
        assert_eq!(check_lemma_3_1(&mut solver, 3), None);
        assert_eq!(check_lemma_3_2(&mut solver, 3), None);
    }

    #[test]
    fn lemma_3_1_detects_violation_in_corrupt_model() {
        // A bivalent state where a process has already decided while both
        // completions remain reachable — violates agreement, and Lemma 3.1's
        // conclusion fails (n - t = 1 undecided required... craft 0 undecided).
        let m = ScriptedModelBuilder::new(2, 1)
            .initial(&[Value::ZERO, Value::ONE], 0)
            .decision(0, 0, Value::ZERO)
            .decision(0, 1, Value::ONE) // both decided at a bivalent state
            .depth(0, 0)
            .build();
        let mut solver = ValenceSolver::new(&m, 0);
        assert_eq!(check_lemma_3_1(&mut solver, 0), Some(0));
    }

    #[test]
    #[should_panic(expected = "no finite failure")]
    fn lemma_3_2_rejects_models_with_finite_failures() {
        let m = ScriptedModelBuilder::new(2, 1)
            .initial(&[Value::ZERO, Value::ONE], 0)
            .failed(0, 1)
            .depth(0, 0)
            .build();
        let mut solver = ValenceSolver::new(&m, 0);
        let _ = check_lemma_3_2(&mut solver, 0);
    }
}
