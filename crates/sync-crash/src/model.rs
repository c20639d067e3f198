//! The t-resilient synchronous message-passing model and the layering `S^t`
//! (Section 6 of the paper).
//!
//! Failure model: in the first round in which a process fails, the
//! environment blocks an arbitrary subset of its messages (prefixes `[k]`
//! under the layering); afterwards the process is silenced forever, and the
//! environment's state records the failure. At most `t` processes fail per
//! run, with `1 ≤ t ≤ n − 2`.
//!
//! The layering:
//!
//! ```text
//! S^t(x) = S₁(x)        if fewer than t processes are failed at x
//!          { x(1,[0]) }  otherwise (the unique failure-free successor)
//! ```
//!
//! From this the paper derives, and this crate makes executable:
//!
//! * Lemma 6.1 — from a bivalent state with `f` failures, a bivalent
//!   `S^t`-execution of `t − f − 1` further layers exists;
//! * Lemma 6.2 — after any bivalent state, some successor still has an
//!   undecided non-failed process (so two more rounds are needed);
//! * Corollary 6.3 — the Dolev–Strong `t + 1`-round lower bound;
//! * Lemma 6.4 — in a *fast* (always `t + 1`-round) protocol, a state
//!   reached by `k` failures in `k` rounds plus one failure-free round is
//!   univalent.

use std::collections::{BTreeSet, HashSet};

use layered_core::{LayeredModel, Pid, PidGroup, PidPerm, StatePacker, Symmetric, Value};
use layered_protocols::round::RoundLanes;
use layered_protocols::{Anonymous, SyncProtocol};

use crate::state::CrashState;

/// Which successor function the model exposes through
/// [`LayeredModel::successors`].
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum CrashLayering {
    /// The paper's `S^t`: a newly failing process blocks its messages to a
    /// prefix `[k]` of the processes.
    #[default]
    Prefix,
    /// The full failure environment: a newly failing process blocks its
    /// messages to an *arbitrary* destination subset `G`. (Exponential
    /// branching, but closed under process renaming — the layering the
    /// symmetry-reduced engine quotients.)
    Full,
}

/// The t-resilient synchronous model, parameterized by a deterministic
/// round protocol.
///
/// # Examples
///
/// FloodMin with deadline `t + 1` solves consensus; with deadline `t` the
/// checker finds the violation — the two halves of Corollary 6.3:
///
/// ```
/// use layered_core::check_consensus;
/// use layered_core::telemetry::NOOP;
/// use layered_protocols::FloodMin;
/// use layered_sync_crash::CrashModel;
///
/// let good = CrashModel::new(3, 1, FloodMin::new(2));
/// assert!(check_consensus(&good, 2, 1, &NOOP).passed());
///
/// let bad = CrashModel::new(3, 1, FloodMin::new(1));
/// assert!(!check_consensus(&bad, 1, 1, &NOOP).passed());
/// ```
#[derive(Clone, Debug)]
pub struct CrashModel<P: SyncProtocol> {
    n: usize,
    t: usize,
    protocol: P,
    layering: CrashLayering,
    packer: Option<StatePacker<CrashState<P::LocalState>>>,
}

impl<P: SyncProtocol> CrashModel<P> {
    /// A model with `n` processes tolerating `t` failures.
    ///
    /// # Panics
    ///
    /// Panics unless `1 ≤ t ≤ n − 2` (the paper's standing assumption,
    /// which forces `n ≥ 3`).
    #[must_use]
    pub fn new(n: usize, t: usize, protocol: P) -> Self {
        assert!(n >= 3, "the Section 6 analysis assumes n >= 3");
        assert!((1..=n - 2).contains(&t), "requires 1 <= t <= n - 2");
        let packer = build_packer(n, &protocol);
        CrashModel {
            n,
            t,
            protocol,
            layering: CrashLayering::Prefix,
            packer,
        }
    }

    /// Selects the successor function exposed by [`LayeredModel`].
    #[must_use]
    pub fn with_layering(mut self, layering: CrashLayering) -> Self {
        self.layering = layering;
        self
    }

    /// The resilience parameter `t`.
    #[must_use]
    pub fn resilience(&self) -> usize {
        self.t
    }

    /// The protocol under analysis.
    #[must_use]
    pub fn protocol(&self) -> &P {
        &self.protocol
    }

    /// Applies one round in which `new_failure = Some((j, k))` makes `j`
    /// newly fail with its messages to the prefix `[k]` blocked, or
    /// `None` for a failure-free round. Previously failed processes are
    /// silent regardless.
    ///
    /// The failure is *recorded* only if a message is actually lost (the
    /// observable-fault convention), which also makes `x(1,[1])` — "block
    /// `p1`'s message to itself" — identical to the failure-free round.
    ///
    /// # Panics
    ///
    /// Panics if `j` is already failed, `k > n`, or the failure budget `t`
    /// is exhausted.
    #[must_use]
    pub fn apply(
        &self,
        x: &CrashState<P::LocalState>,
        new_failure: Option<(Pid, usize)>,
    ) -> CrashState<P::LocalState> {
        let prefixed = new_failure.map(|(j, k)| {
            assert!(k <= self.n, "prefix bound out of range");
            (j, Pid::all(k).collect::<Vec<_>>())
        });
        self.apply_subset(x, prefixed.as_ref().map(|(j, g)| (*j, g.as_slice())))
    }

    /// Like [`apply`](Self::apply), but `new_failure = Some((j, G))` blocks
    /// `j`'s messages to an *arbitrary* destination subset `G` — the general
    /// failure environment that [`CrashLayering::Full`] exposes.
    ///
    /// As with prefixes, the failure is recorded only if a message is
    /// actually lost, so `G ⊆ {j}` is identical to the failure-free round.
    ///
    /// # Panics
    ///
    /// Panics if `j` is already failed or the failure budget `t` is
    /// exhausted.
    #[must_use]
    pub fn apply_subset(
        &self,
        x: &CrashState<P::LocalState>,
        new_failure: Option<(Pid, &[Pid])>,
    ) -> CrashState<P::LocalState> {
        let mut failed = x.failed.clone();
        let mut lost_from = vec![None; self.n];
        if let Some((j, lost_to)) = new_failure {
            assert!(!x.failed.contains(&j), "process already failed");
            assert!(x.failed.len() < self.t, "failure budget exhausted");
            for to in lost_to.iter().filter(|&&to| to != j) {
                if let Some(from) = lost_from.get_mut(to.index()) {
                    *from = Some(j.index());
                }
            }
            if lost_to.iter().any(|&to| to != j) {
                failed.insert(j);
            }
        }
        let mut round = Round::new(&self.protocol, x);
        let outcomes: Vec<_> = (0..self.n)
            .map(|to| round.outcome(to, lost_from[to]))
            .collect();
        round.successor(failed, outcomes)
    }

    /// The layer `S^t(x)`, deduplicated.
    #[must_use]
    pub fn layer(&self, x: &CrashState<P::LocalState>) -> Vec<CrashState<P::LocalState>> {
        // Action k blocks the prefix [k].
        self.layer_by(x, 1..=self.n, |k, to| to < k)
    }

    /// The full-environment layer of `x`: `{ x(j, G) }` over all arbitrary
    /// destination subsets `G`, deduplicated (what
    /// [`CrashLayering::Full`] exposes as [`LayeredModel::successors`]).
    #[must_use]
    pub fn full_layer(&self, x: &CrashState<P::LocalState>) -> Vec<CrashState<P::LocalState>> {
        // Action `mask` blocks the destinations whose bits it sets.
        self.layer_by(x, 1..(1usize << self.n), |mask, to| (mask >> to) & 1 == 1)
    }

    /// The layer of `x` whose failure actions are, for each live `j`, the
    /// destination sets `{ to : blocks(a, to) }` for `a` in `actions`:
    /// the failure-free successor first, then live `j` ascending, then
    /// `actions` in order, each distinct successor once.
    ///
    /// The round is simulated once. Every successor selects, per receiver,
    /// either its outcome when every message arrives or its outcome when
    /// `j`'s message is lost. Two actions of the same `j` yield the same
    /// state exactly when they select the same outcome at every receiver,
    /// and actions of different `j` never do (their failure records
    /// differ), so deduplicating on the selection is state equality.
    fn layer_by(
        &self,
        x: &CrashState<P::LocalState>,
        actions: impl Iterator<Item = usize> + Clone,
        blocks: impl Fn(usize, usize) -> bool,
    ) -> Vec<CrashState<P::LocalState>> {
        let n = self.n;
        let mut round = Round::new(&self.protocol, x);
        let clean: Vec<_> = (0..n).map(|to| round.outcome(to, None)).collect();
        if x.failed.len() >= self.t {
            return vec![round.successor(x.failed.clone(), clean)];
        }
        let mut out = vec![round.successor(x.failed.clone(), clean.clone())];
        for j in Pid::all(n).filter(|j| !x.failed.contains(j)) {
            // Each receiver's outcome without j's message, where it differs
            // from the clean one (a process always hears itself).
            let lost: Vec<_> = (0..n)
                .map(|to| {
                    if to == j.index() {
                        return None;
                    }
                    let o = round.outcome(to, Some(j.index()));
                    (o != clean[to]).then_some(o)
                })
                .collect();
            let mut failed = x.failed.clone();
            failed.insert(j);
            let mut seen = HashSet::new();
            for a in actions.clone() {
                // x(j, G ⊆ {j}) loses no message: it is the clean round.
                if !(0..n).any(|to| to != j.index() && blocks(a, to)) {
                    continue;
                }
                let select: Vec<bool> = (0..n)
                    .map(|to| lost[to].is_some() && blocks(a, to))
                    .collect();
                if !seen.insert(select.clone()) {
                    continue;
                }
                let outcomes = (0..n)
                    .map(|to| match &lost[to] {
                        Some(o) if select[to] => o.clone(),
                        _ => clean[to].clone(),
                    })
                    .collect();
                out.push(round.successor(failed.clone(), outcomes));
            }
        }
        out
    }
}

/// One receiver's result of a round: its next local state and its latched
/// decision.
type Outcome<L> = (L, Option<Value>);

/// One synchronous round from `x`, simulated once: the `n × n` messages are
/// built a single time (already-failed senders silent), and each receiver's
/// outcome is computed on demand with every message arriving or with one
/// sender's message lost. Every action of the round assembles its successor
/// from these outcomes.
struct Round<'a, P: SyncProtocol> {
    protocol: &'a P,
    x: &'a CrashState<P::LocalState>,
    /// `inbox[to][from]`: the message `to` receives from `from` when
    /// nothing new is blocked.
    inbox: Vec<Vec<Option<P::Msg>>>,
}

impl<'a, P: SyncProtocol> Round<'a, P> {
    fn new(protocol: &'a P, x: &'a CrashState<P::LocalState>) -> Self {
        let n = x.locals.len();
        let inbox = (0..n)
            .map(|to| {
                (0..n)
                    .map(|from| {
                        let silenced = from != to && x.failed.contains(&Pid::new(from));
                        (!silenced).then(|| protocol.message(&x.locals[from], Pid::new(to)))
                    })
                    .collect()
            })
            .collect();
        Round { protocol, x, inbox }
    }

    /// Receiver `to`'s outcome when the message from `lost` (if any) does
    /// not arrive.
    fn outcome(&mut self, to: usize, lost: Option<usize>) -> Outcome<P::LocalState> {
        let held = lost.map(|from| (from, self.inbox[to][from].take()));
        let ls = self
            .protocol
            .transition(self.x.locals[to].clone(), Pid::new(to), &self.inbox[to]);
        if let Some((from, msg)) = held {
            self.inbox[to][from] = msg;
        }
        let decided = self.x.decided[to].or_else(|| self.protocol.decide(&ls));
        (ls, decided)
    }

    /// The successor with failure record `failed` and one outcome per
    /// receiver.
    fn successor(
        &self,
        failed: BTreeSet<Pid>,
        outcomes: Vec<Outcome<P::LocalState>>,
    ) -> CrashState<P::LocalState> {
        let (locals, decided) = outcomes.into_iter().unzip();
        CrashState {
            round: self.x.round + 1,
            inputs: self.x.inputs.clone(),
            locals,
            decided,
            failed,
        }
    }
}

/// Builds the packed codec for an `n`-process crash model: the
/// [`RoundLanes`], then above the round bits the environment's failure
/// record as an `n`-bit membership mask. The lanes and the mask bits are
/// the two pid groups.
fn build_packer<P: SyncProtocol>(
    n: usize,
    protocol: &P,
) -> Option<StatePacker<CrashState<P::LocalState>>> {
    let lanes = RoundLanes::new(n, protocol, n as u32)?;
    let top = lanes.top();
    let groups = [
        lanes.group(),
        PidGroup {
            start: top,
            width: 1,
        },
    ];
    let codec = lanes.clone();
    let pack = move |x: &CrashState<P::LocalState>| {
        let mut w = codec.pack(x.round, &x.inputs, &x.decided, &x.locals)?;
        for p in &x.failed {
            w |= 1 << (top + p.index() as u32);
        }
        Some(w)
    };
    let unpack = move |w: u128| {
        let (round, inputs, decided, locals) = lanes.unpack(w);
        CrashState {
            round,
            inputs,
            locals,
            decided,
            failed: (0..n)
                .filter(|i| w >> (top + *i as u32) & 1 == 1)
                .map(Pid::new)
                .collect(),
        }
    };
    Some(StatePacker::new(pack, unpack).with_pid_groups(n, &groups))
}

impl<P: SyncProtocol> LayeredModel for CrashModel<P> {
    type State = CrashState<P::LocalState>;

    fn num_processes(&self) -> usize {
        self.n
    }

    fn max_failures(&self) -> usize {
        self.t
    }

    fn initial_state(&self, inputs: &[Value]) -> Self::State {
        assert_eq!(inputs.len(), self.n, "one input per process");
        let locals: Vec<P::LocalState> = inputs
            .iter()
            .enumerate()
            .map(|(i, &v)| self.protocol.init(self.n, Pid::new(i), v))
            .collect();
        let decided = locals.iter().map(|ls| self.protocol.decide(ls)).collect();
        CrashState {
            round: 0,
            inputs: inputs.to_vec(),
            locals,
            decided,
            failed: BTreeSet::new(),
        }
    }

    fn successors(&self, x: &Self::State) -> Vec<Self::State> {
        match self.layering {
            CrashLayering::Prefix => self.layer(x),
            CrashLayering::Full => self.full_layer(x),
        }
    }

    fn depth(&self, x: &Self::State) -> usize {
        usize::from(x.round)
    }

    fn inputs_of(&self, x: &Self::State) -> Vec<Value> {
        x.inputs.clone()
    }

    fn decision(&self, x: &Self::State, i: Pid) -> Option<Value> {
        x.decided[i.index()]
    }

    fn failed_at(&self, x: &Self::State, i: Pid) -> bool {
        // A recorded process is silenced forever in every continuation, so
        // it is faulty in every run through x.
        x.failed.contains(&i)
    }

    fn agree_modulo(&self, x: &Self::State, y: &Self::State, j: Pid) -> bool {
        // The failure record of process i is attributed to i's extended
        // state: records of processes other than j must match, j's may
        // differ. (Locals, decisions and inputs except j as usual.)
        x.round == y.round
            && (0..self.n).all(|i| {
                i == j.index()
                    || (x.locals[i] == y.locals[i]
                        && x.decided[i] == y.decided[i]
                        && x.inputs[i] == y.inputs[i]
                        && x.failed.contains(&Pid::new(i)) == y.failed.contains(&Pid::new(i)))
            })
    }

    fn crash_step(&self, x: &Self::State, j: Pid) -> Self::State {
        if !x.failed.contains(&j) && x.failed.len() < self.t {
            self.apply(x, Some((j, self.n)))
        } else {
            // j is already silenced (or the budget is exhausted): the
            // failure-free round is the canonical "j stays silent" step.
            self.apply(x, None)
        }
    }

    fn obligated(&self, x: &Self::State) -> Vec<Pid> {
        self.non_failed(x)
    }

    fn state_packer(&self) -> Option<&StatePacker<Self::State>> {
        self.packer.as_ref()
    }
}

// Renaming relocates the per-process vectors and relabels the environment's
// failure record. For an anonymous protocol the *full* environment is
// equivariant — `(π·x)(π(j), π(G)) = π·(x(j, G))`, including the
// observable-fault record, since "some message actually lost" is
// renaming-invariant. The prefix layering `S^t` is not (prefixes `[k]` are
// not closed under renaming), so only `CrashLayering::Full` may be
// quotiented.
impl<P> Symmetric for CrashModel<P>
where
    P: SyncProtocol + Anonymous,
    P::LocalState: Ord,
{
    fn permute_state(&self, x: &Self::State, perm: &PidPerm) -> Self::State {
        CrashState {
            round: x.round,
            inputs: perm.permute_vec(&x.inputs),
            locals: perm.permute_vec(&x.locals),
            decided: perm.permute_vec(&x.decided),
            failed: x.failed.iter().map(|&p| perm.apply(p)).collect(),
        }
    }

    fn symmetric_layering(&self) -> bool {
        self.layering == CrashLayering::Full
    }
}

#[cfg(test)]
mod tests {
    use layered_core::telemetry::NOOP;
    use layered_core::{
        check_fault_independence, check_graded, similarity_report, LayeredModel, Region,
    };
    use layered_protocols::FloodMin;

    use super::*;

    fn model(n: usize, t: usize, rounds: u16) -> CrashModel<FloodMin> {
        CrashModel::new(n, t, FloodMin::new(rounds))
    }

    #[test]
    fn structural_contracts_hold() {
        let m = model(3, 1, 2);
        let region = Region::reachable(&m, 3, &NOOP);
        assert_eq!(check_graded(&m, &region), None);
        assert_eq!(check_fault_independence(&m, &region), None);
    }

    #[test]
    fn failure_is_recorded_and_silences_forever() {
        let m = model(3, 1, 3);
        let x = m.initial_state(&[Value::ZERO, Value::ONE, Value::ONE]);
        // p1 fails, blocking its messages to everyone.
        let y = m.apply(&x, Some((Pid::new(0), 3)));
        assert!(y.is_failed(Pid::new(0)));
        assert!(m.failed_at(&y, Pid::new(0)));
        // Next round is failure-free, but p1 stays silent: p2/p3 never learn 0.
        let z = m.apply(&y, None);
        let z2 = m.apply(&z, None);
        assert_eq!(z2.decided[1], Some(Value::ONE));
        assert_eq!(z2.decided[2], Some(Value::ONE));
    }

    #[test]
    fn self_only_block_is_failure_free() {
        // x(1,[1]) blocks only p1 -> p1, which is not a real message: the
        // state equals the failure-free round and records nothing.
        let m = model(3, 1, 2);
        let x = m.initial_state(&[Value::ZERO, Value::ONE, Value::ZERO]);
        let clean = m.apply(&x, None);
        let fake = m.apply(&x, Some((Pid::new(0), 1)));
        assert_eq!(clean, fake);
        assert!(fake.failed.is_empty());
    }

    #[test]
    fn budget_exhaustion_restricts_layer_to_clean() {
        let m = model(3, 1, 3);
        let x = m.initial_state(&[Value::ZERO, Value::ONE, Value::ONE]);
        let y = m.apply(&x, Some((Pid::new(1), 3)));
        assert_eq!(y.failure_count(), 1);
        let layer = m.layer(&y);
        assert_eq!(layer.len(), 1, "S^t(y) = {{ failure-free }} once t failed");
    }

    #[test]
    #[should_panic(expected = "budget exhausted")]
    fn over_budget_failure_panics() {
        let m = model(3, 1, 3);
        let x = m.initial_state(&[Value::ZERO, Value::ONE, Value::ONE]);
        let y = m.apply(&x, Some((Pid::new(1), 3)));
        let _ = m.apply(&y, Some((Pid::new(0), 3)));
    }

    #[test]
    fn layer_size_below_budget() {
        let m = model(4, 2, 3);
        let x = m.initial_state(&[Value::ZERO, Value::ONE, Value::ONE, Value::ZERO]);
        let layer = m.layer(&x);
        // clean + per (j, k>=1) actions, deduplicated; bounded by n*n + 1.
        assert!(layer.len() > 1 && layer.len() <= 4 * 4 + 1);
    }

    #[test]
    fn failed_set_only_grows() {
        let m = model(3, 1, 3);
        let x = m.initial_state(&[Value::ZERO, Value::ONE, Value::ZERO]);
        for y in m.layer(&x) {
            assert!(y.failed.len() <= 1);
            for z in m.layer(&y) {
                assert!(y.failed.iter().all(|p| z.failed.contains(p)));
            }
        }
    }

    #[test]
    fn same_failure_chain_is_similarity_connected() {
        // x(j,[k]) ~s x(j,[k+1]) for k >= 1: equal failure records, one
        // local-state difference.
        let m = model(4, 2, 3);
        let x = m.initial_state(&[Value::ZERO, Value::ONE, Value::ONE, Value::ONE]);
        // j = p4 so that every prefix [k], k >= 1, blocks a real message and
        // all chain states carry the same failure record {p4}.
        let j = Pid::new(3);
        let states: Vec<_> = (1..=4).map(|k| m.apply(&x, Some((j, k)))).collect();
        let rep = similarity_report(&m, &states, &NOOP);
        assert!(
            rep.connected,
            "the prefix chain must be similarity connected"
        );
    }

    #[test]
    fn agree_modulo_attributes_failure_flag_to_its_process() {
        let m = model(3, 1, 3);
        // p3 holds the unique minimum so its blocked message is observable.
        let x = m.initial_state(&[Value::ONE, Value::ONE, Value::ZERO]);
        let clean = m.apply(&x, None);
        // p3 fails, blocking its message to p1 (prefix [1] = {p1}).
        let failed = m.apply(&x, Some((Pid::new(2), 1)));
        // These differ in p1's local AND p3's failure flag: they agree
        // modulo NEITHER p1 (flag of p3 differs) NOR p3 (local of p1
        // differs). This is the k = 0 link of the prefix chain, which is
        // genuinely not a similarity edge once failures are recorded.
        assert!(!m.agree_modulo(&clean, &failed, Pid::new(0)));
        assert!(!m.agree_modulo(&clean, &failed, Pid::new(2)));
    }

    #[test]
    fn floodmin_t_plus_one_solves_consensus() {
        // Tightness of Corollary 6.3 at (n, t) = (3, 1): exhaustive over all
        // S^t-runs of 2 rounds.
        let m = model(3, 1, 2);
        let report = layered_core::check_consensus(&m, 2, 5, &NOOP);
        assert!(report.passed(), "violations: {:?}", report.violations);
    }

    #[test]
    fn floodmin_t_rounds_fails_consensus() {
        // The lower bound itself: a t-round protocol must violate a
        // requirement (here: agreement).
        let m = model(3, 1, 1);
        let report = layered_core::check_consensus(&m, 1, 5, &NOOP);
        assert!(!report.passed());
        assert!(report.of_kind("agreement").next().is_some());
    }
}
