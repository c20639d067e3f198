//! Valence of states (Section 3 of the paper, "Decisions and valence").
//!
//! With respect to a system `R`, a state `x` is *v-valent* if there is an
//! execution of `R` extending `x` in which at least one nonfaulty process
//! decides `v`; *v-univalent* if it is `v`-valent for exactly one `v`; and
//! *bivalent* if it is both 0-valent and 1-valent.
//!
//! # Finite-horizon semantics
//!
//! The paper quantifies over infinite executions. The executable counterpart
//! quantifies over all `S`-executions within a *horizon* `H` (total layers
//! from the initial states): `x` is `v`-valent iff some state `y` reachable
//! from `x` at depth ≤ `H` has a process `i` with `d_i = v` that is
//! *non-failed at* `y`. By fault independence such an `i` is nonfaulty in
//! some run through `y`, so finite-horizon valence is sound. It coincides
//! with the paper's notion whenever the protocol under analysis decides in
//! all executions by depth `H` — which is precisely the situation in every
//! lower-bound argument (the protocol claims a deadline, and the analysis
//! refutes it). Executions that reach the horizon undecided are themselves
//! *Decision*-violation witnesses and are surfaced by the
//! [checker](crate::checker).
//!
//! # One engine, many valence notions
//!
//! What a single state contributes to its own valence is a
//! [`ValenceProbe`]; the solver folds the probes of everything reachable
//! within the horizon. The default probe, [`DECIDED`], is the binary notion
//! above. Section 7's generalized valence w.r.t. a covering is another
//! probe (`layered_topology::Covering`), run by the same solver, memo and
//! [Theorem 4.2 loop](crate::build_bivalent_run).

use crate::space::{Arena, Keying, NextLevel, Orbits, Plain, StateId};
use crate::sym::{PidPerm, Symmetric};
use crate::telemetry::{names, MemoryBreakdown, MemoryFootprint, Observer, NOOP};
use crate::{LayeredModel, Pid, Value};

/// Which of the two binary decision values are reachable-by-a-nonfaulty
/// decision from a state.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub struct Valences {
    /// The state is 0-valent.
    pub zero: bool,
    /// The state is 1-valent.
    pub one: bool,
}

impl Valences {
    /// No reachable nonfaulty decision at all.
    pub const NONE: Valences = Valences {
        zero: false,
        one: false,
    };

    /// Union of reachable decisions.
    #[must_use]
    pub fn union(self, other: Valences) -> Valences {
        Valences {
            zero: self.zero || other.zero,
            one: self.one || other.one,
        }
    }

    /// The classification induced by the flags.
    #[must_use]
    pub fn classify(self) -> Valence {
        match (self.zero, self.one) {
            (true, true) => Valence::Bivalent,
            (true, false) => Valence::Univalent(Value::ZERO),
            (false, true) => Valence::Univalent(Value::ONE),
            (false, false) => Valence::NoValence,
        }
    }
}

/// What one state contributes to its own valence: the solver unions the
/// probes of every state reachable within the horizon.
///
/// `at_horizon` tells a state at the horizon depth (one whose extensions
/// the solver does not look at) from one below it. Only full-space solvers
/// take a probe other than [`DECIDED`] ([`Solver::with_probe`]): a
/// quotient would need it invariant under process renaming, which a
/// covering need not be.
pub trait ValenceProbe<M: LayeredModel> {
    /// The valences `x` witnesses itself.
    fn probe(&self, model: &M, x: &M::State, at_horizon: bool) -> Valences;
}

/// The binary probe of Section 3 (see [`DECIDED`]).
#[derive(Clone, Copy, Debug, Default)]
pub struct DecidedValues;

/// The default probe: at every depth, the binary values decided by the
/// processes non-failed at the state. Non-binary decision values are
/// ignored (Section 7's coverings classify them).
pub static DECIDED: DecidedValues = DecidedValues;

impl<M: LayeredModel> ValenceProbe<M> for DecidedValues {
    fn probe(&self, model: &M, x: &M::State, _at_horizon: bool) -> Valences {
        let mut flags = Valences::NONE;
        for i in Pid::all(model.num_processes()) {
            if model.failed_at(x, i) {
                continue;
            }
            match model.decision(x, i) {
                Some(Value::ZERO) => flags.zero = true,
                Some(Value::ONE) => flags.one = true,
                _ => {}
            }
        }
        flags
    }
}

/// The valence classification of a state.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Valence {
    /// `v`-valent and not `v'`-valent for `v' ≠ v`.
    Univalent(Value),
    /// Both 0-valent and 1-valent.
    Bivalent,
    /// No nonfaulty decision is reachable within the horizon. For a protocol
    /// that claims to decide within the horizon this already refutes the
    /// *Decision* requirement.
    NoValence,
}

impl Valence {
    /// Whether the classification is [`Valence::Bivalent`].
    #[must_use]
    pub fn is_bivalent(self) -> bool {
        self == Valence::Bivalent
    }
}

/// Memoizing valence solver over the graded successor graph of a model,
/// keyed by the policy `K` (see [`Keying`]).
///
/// Valence is invariant under process renaming — a permutation relocates
/// processes, never decision values, and transports `failed_at` along with
/// `decision` — so under [`Orbits`](crate::space::Orbits) the flags of an
/// orbit representative are the flags of every member, and one memo entry
/// per orbit replaces up to `n!` entries of the full-space solver.
///
/// Use it through [`ValenceSolver`] or [`QuotientSolver`].
pub struct Solver<'a, M: LayeredModel, K: Keying<M>> {
    model: &'a M,
    horizon: usize,
    /// Hash-consing arena shared by every engine built on this solver:
    /// valence memoization, successor caching and the layer scans all key on
    /// the dense [`StateId`]s it hands out.
    space: Arena<M, K>,
    /// Valence memo, indexed by [`StateId`] (grown lazily as the space
    /// grows; `None` = not classified yet).
    memo: Vec<Option<Valences>>,
    /// What each state contributes to its own valence.
    probe: &'a dyn ValenceProbe<M>,
    obs: &'a dyn Observer,
}

/// The deepest valence horizon accepted from outside the program: a
/// certificate's recorded `horizon` and the `experiments --scan` flags
/// `--horizon` and `--depth`.
///
/// [`Solver::valences_id`] recurses once per round down to the horizon, so
/// the horizon bounds its stack depth. In a debug build a sync-mobile n = 3
/// witness verifies at horizon 4000 on a 2 MiB thread (the stack
/// `cert-serve` gives each connection) and overflows at 8000; this bound
/// leaves a fourfold margin. The experiments use horizons below 10.
pub const MAX_HORIZON: usize = 1024;

/// Memoizing valence solver over the full state space.
///
/// # Examples
///
/// ```
/// use layered_core::{LayeredModel, Valence, ValenceSolver, Value};
/// use layered_core::testkit::flp_diamond;
///
/// let m = flp_diamond();
/// let mut solver = ValenceSolver::new(&m, 2);
/// let x0 = m.initial_states().remove(0);
/// assert_eq!(solver.valence(&x0), Valence::Bivalent);
/// ```
pub type ValenceSolver<'a, M> = Solver<'a, M, Plain>;

/// Memoizing valence solver over the *quotient* successor graph of a
/// [`Symmetric`](crate::Symmetric) model, with the memo indexed by
/// canonical orbit id.
pub type QuotientSolver<'a, M> = Solver<'a, M, Orbits>;

impl<'a, M: LayeredModel, K: Keying<M>> Solver<'a, M, K> {
    /// Creates a solver that explores to total depth `horizon` from the
    /// initial states.
    ///
    /// # Panics
    ///
    /// Panics if `K` cannot key `model` (a [`QuotientSolver`] needs an
    /// equivariant layering).
    #[must_use]
    pub fn new(model: &'a M, horizon: usize) -> Self {
        Self::with_observer(model, horizon, &NOOP)
    }

    /// Like [`Solver::new`], with telemetry: valence queries, memo hits,
    /// decided-run probes and states classified are reported to `obs`,
    /// and engines built on this solver (the [layering](crate::layering)
    /// engine, [valence connectivity](crate::connectivity)) report through
    /// it as well.
    #[must_use]
    pub fn with_observer(model: &'a M, horizon: usize, obs: &'a dyn Observer) -> Self {
        Self::with_space(model, horizon, Arena::for_model(model), obs)
    }

    /// Creates a solver over an arena restored from a
    /// [snapshot](crate::space::snapshot) (or otherwise pre-built), so a
    /// resumed scan re-uses every interned state and cached successor row
    /// instead of recomputing them.
    ///
    /// The valence memo starts empty: it is cheap derived data, and its
    /// entries depend on the horizon, which a resumed scan may have changed.
    /// Interning-order ids are a property of the arena, so id-dependent
    /// artifacts (runs, witnesses) remain valid across save/load.
    ///
    /// # Panics
    ///
    /// Panics if `K` cannot key `model`, exactly as [`Solver::new`] would:
    /// a restored arena is only meaningful under the layering it was built
    /// with.
    #[must_use]
    pub fn with_space(
        model: &'a M,
        horizon: usize,
        space: Arena<M, K>,
        obs: &'a dyn Observer,
    ) -> Self {
        K::check_model(model);
        Solver {
            model,
            horizon,
            space,
            memo: Vec::new(),
            probe: &DECIDED,
            obs,
        }
    }

    /// The solver's hash-consing arena. Ids returned by the solver's
    /// `intern` and the id-typed engine entry points are relative to this
    /// space.
    #[must_use]
    pub fn space(&self) -> &Arena<M, K> {
        &self.space
    }

    /// Mutable access to the arena (to expand layers before classifying
    /// them).
    pub fn space_mut(&mut self) -> &mut Arena<M, K> {
        &mut self.space
    }

    /// Interns the key of `x`, returning its id.
    pub(crate) fn intern_id(&mut self, x: &M::State) -> StateId {
        self.space.intern_state(self.model, x, self.obs).0
    }

    /// The successor ids of `id`, computed (and cached) via the arena.
    pub fn successor_ids(&mut self, id: StateId) -> Vec<StateId> {
        let (model, obs) = (self.model, self.obs);
        self.space.successor_ids(model, id, obs)
    }

    /// The observer engines built on this solver report to.
    #[must_use]
    pub fn observer(&self) -> &'a dyn Observer {
        self.obs
    }

    /// Points the solver's reports at `obs`, returning the observer it
    /// reported to before.
    pub(crate) fn replace_observer(&mut self, obs: &'a dyn Observer) -> &'a dyn Observer {
        std::mem::replace(&mut self.obs, obs)
    }

    /// The analysis horizon.
    #[must_use]
    pub fn horizon(&self) -> usize {
        self.horizon
    }

    /// The underlying model.
    #[must_use]
    pub fn model(&self) -> &'a M {
        self.model
    }

    /// The valence flags of the interned entry `id` (memoized in a flat
    /// vector indexed by id — no state hashing or cloning on the hot path).
    pub fn valences_id(&mut self, id: StateId) -> Valences {
        self.obs.counter(names::VALENCE_QUERIES, 1);
        if let Some(Some(v)) = self.memo.get(id.index()) {
            self.obs.counter(names::VALENCE_MEMO_HITS, 1);
            return *v;
        }
        let (mut flags, below_horizon) = {
            let x = self.space.resolve(id);
            let below_horizon = self.model.depth(&x) < self.horizon;
            self.obs.counter(names::VALENCE_DECIDED_PROBES, 1);
            (
                self.probe.probe(self.model, &x, !below_horizon),
                below_horizon,
            )
        };
        if below_horizon && !(flags.zero && flags.one) {
            for y in self.successor_ids(id) {
                flags = flags.union(self.valences_id(y));
                if flags.zero && flags.one {
                    break;
                }
            }
        }
        if self.memo.len() < self.space.len() {
            self.memo.resize(self.space.len(), None);
        }
        self.memo[id.index()] = Some(flags);
        self.obs.counter(names::VALENCE_STATES_CLASSIFIED, 1);
        flags
    }

    /// The valence classification of the interned entry `id`.
    pub fn valence_id(&mut self, id: StateId) -> Valence {
        self.valences_id(id).classify()
    }

    /// Whether the interned entry `id` is bivalent.
    pub fn is_bivalent_id(&mut self, id: StateId) -> bool {
        self.valence_id(id).is_bivalent()
    }

    /// Number of memoized entries (useful to report exploration effort).
    #[must_use]
    pub fn memo_len(&self) -> usize {
        self.memo.iter().filter(|v| v.is_some()).count()
    }

    /// Interns the initial states (in order, each key once) and returns
    /// the first bivalent one. Since the consensus initial set `Con₀` is
    /// closed under renaming, representatives of initial orbits are
    /// themselves genuine initial states.
    pub fn bivalent_initial_id(&mut self) -> Option<StateId> {
        let mut roots = NextLevel::default();
        let initial = self.model.initial_states();
        roots.offer(initial.iter().map(|x0| self.intern_id(x0)), &NOOP);
        let ids = roots.ids();
        ids.iter().copied().find(|&id| self.is_bivalent_id(id))
    }
}

impl<'a, M: LayeredModel> Solver<'a, M, Plain> {
    /// A solver over the full state space whose valence notion is `probe`
    /// instead of [`DECIDED`], reporting to `obs` like
    /// [`Solver::with_observer`].
    #[must_use]
    pub fn with_probe(
        model: &'a M,
        horizon: usize,
        probe: &'a dyn ValenceProbe<M>,
        obs: &'a dyn Observer,
    ) -> Self {
        Solver {
            probe,
            ..Self::with_observer(model, horizon, obs)
        }
    }

    /// Interns `x` into the solver's space.
    pub fn intern(&mut self, x: &M::State) -> StateId {
        self.space.intern_with(x, self.obs)
    }

    /// The valence classification of `x`.
    pub fn valence(&mut self, x: &M::State) -> Valence {
        let id = self.intern(x);
        self.valence_id(id)
    }

    /// Whether `x` is bivalent.
    pub fn is_bivalent(&mut self, x: &M::State) -> bool {
        self.valence(x).is_bivalent()
    }

    /// Scans the initial states for a bivalent one, in order.
    ///
    /// By Lemma 3.6 a system for consensus that satisfies *decision* and
    /// *validity* and displays an arbitrary crash failure with respect to
    /// `Con₀` must have one; returning `None` therefore certifies that the
    /// protocol violates decision or validity already at the horizon.
    pub fn bivalent_initial_state(&mut self) -> Option<M::State> {
        let id = self.bivalent_initial_id()?;
        Some(self.space.resolve(id))
    }
}

impl<M: Symmetric> Solver<'_, M, Orbits> {
    /// Interns `x`'s orbit, returning the representative's id and the
    /// witnessing permutation (`π · x` = representative).
    pub fn intern(&mut self, x: &M::State) -> (StateId, PidPerm) {
        self.space.intern_with(self.model, x, self.obs)
    }
}

/// Bytes held by a valence memo vector (shallow: the flat `Vec` only).
fn memo_bytes(memo: &[Option<Valences>]) -> u64 {
    // `capacity` is what a `&[_]` cannot see, but the memo is resized to
    // exactly `space.len()`, so `len` is the honest shallow figure.
    memo.len() as u64 * std::mem::size_of::<Option<Valences>>() as u64
}

impl<M: LayeredModel, K: Keying<M>> MemoryFootprint for Solver<'_, M, K> {
    /// The underlying arena's components plus the `mem.valence.memo_bytes`
    /// of the flat valence memo.
    fn memory_footprint(&self) -> MemoryBreakdown {
        let mut b = self.space.memory_footprint();
        b.push(names::MEM_VALENCE_MEMO_BYTES, memo_bytes(&self.memo));
        b
    }

    fn report_memory(&self, obs: &dyn Observer) {
        // Delegate to the arena so the intern-table load-factor gauge rides
        // along, then add the memo.
        self.space.report_memory(obs);
        obs.gauge(names::MEM_VALENCE_MEMO_BYTES, memo_bytes(&self.memo));
    }
}

/// Caveat-free enumeration of undecided, non-failed processes at a state —
/// the quantity bounded from below by Lemma 3.1.
pub fn undecided_non_failed<M: LayeredModel>(model: &M, x: &M::State) -> Vec<Pid> {
    Pid::all(model.num_processes())
        .filter(|&i| !model.failed_at(x, i) && model.decision(x, i).is_none())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::{flp_diamond, ScriptedModelBuilder};

    #[test]
    fn diamond_root_is_bivalent_children_univalent() {
        let m = flp_diamond();
        let mut s = ValenceSolver::new(&m, 2);
        let x0 = m.initial_states().remove(0);
        assert_eq!(s.valence(&x0), Valence::Bivalent);
        let succ = m.successors(&x0);
        let vals: Vec<Valence> = succ.iter().map(|y| s.valence(y)).collect();
        assert!(vals.contains(&Valence::Univalent(Value::ZERO)));
        assert!(vals.contains(&Valence::Univalent(Value::ONE)));
    }

    #[test]
    fn memo_is_populated_and_reused() {
        let m = flp_diamond();
        let mut s = ValenceSolver::new(&m, 2);
        let x0 = m.initial_states().remove(0);
        let _ = s.valence(&x0);
        let before = s.memo_len();
        let _ = s.valence(&x0);
        assert_eq!(s.memo_len(), before);
        assert!(before >= 1);
    }

    #[test]
    fn horizon_truncates_lookahead() {
        // Decision only appears at depth 2; with horizon 1 nothing is
        // reachable, so the root has no valence.
        let m = flp_diamond();
        let x0 = m.initial_states().remove(0);
        let mut shallow = ValenceSolver::new(&m, 1);
        assert_eq!(shallow.valence(&x0), Valence::NoValence);
        let mut deep = ValenceSolver::new(&m, 2);
        assert_eq!(deep.valence(&x0), Valence::Bivalent);
    }

    #[test]
    fn failed_process_decision_does_not_count() {
        // One state where the only decided process is failed-at: no valence.
        let m = ScriptedModelBuilder::new(2, 1)
            .initial(&[Value::ZERO, Value::ZERO], 0)
            .decision(0, 0, Value::ZERO)
            .failed(0, 0)
            .depth(0, 0)
            .build();
        let mut s = ValenceSolver::new(&m, 0);
        assert_eq!(s.valence(&0), Valence::NoValence);
    }

    #[test]
    fn undecided_non_failed_counts() {
        let m = flp_diamond();
        let x0 = m.initial_states().remove(0);
        assert_eq!(undecided_non_failed(&m, &x0).len(), m.num_processes());
    }
}
