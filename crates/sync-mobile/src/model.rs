//! The single-mobile-failure synchronous model `M^mf` and its layering `S₁`
//! (Section 5 of the paper).
//!
//! The model is the standard synchronous round model, except that in every
//! round the environment may pick one process `j` and a destination set `G`
//! and lose all of `j`'s messages to `G` — the *mobile* omission failure of
//! Santoro and Widmayer. The environment action at a state is the pair
//! `(j, G)`.
//!
//! The layering `S₁` restricts the environment to prefix destination sets:
//! `S₁(x) = { x(j, [k]) : 1 ≤ j ≤ n, 0 ≤ k ≤ n }` where `[k] = {1, …, k}`.
//! Lemma 5.1 shows `S₁` is a layering of `M^mf`, displays an arbitrary
//! crash failure, and has valence-connected layers — from which
//! Corollary 5.2 (consensus is unsolvable with a single mobile failure)
//! follows by Theorem 4.2. Every part of that argument is executable here.

use std::collections::HashSet;

use layered_core::{
    pack_decision, unpack_decision, LayeredModel, Pid, PidGroup, PidPerm, StatePacker, Symmetric,
    Value, DECISION_BITS,
};
use layered_protocols::{Anonymous, SyncProtocol};

use crate::state::MobileState;

/// Which successor function the model exposes through
/// [`LayeredModel::successors`].
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum MobileLayering {
    /// The paper's `S₁`: one process may lose its messages to a prefix
    /// `[k]` of the processes.
    #[default]
    S1,
    /// The full `M^mf` environment: one process may lose its messages to an
    /// arbitrary subset `G`. (Exponential branching; used to validate that
    /// `S₁`-layers are genuine `M^mf` rounds.)
    Full,
}

/// The mobile-failure synchronous model, parameterized by a deterministic
/// round protocol.
///
/// # Examples
///
/// ```
/// use layered_core::telemetry::NOOP;
/// use layered_core::{check_consensus, LayeredModel};
/// use layered_protocols::FloodMin;
/// use layered_sync_mobile::MobileModel;
///
/// let m = MobileModel::new(3, FloodMin::new(2));
/// // Corollary 5.2: no protocol solves consensus here — the checker finds
/// // a violation for FloodMin with deadline 2.
/// let report = check_consensus(&m, 2, 1, &NOOP);
/// assert!(!report.passed());
/// ```
#[derive(Clone, Debug)]
pub struct MobileModel<P: SyncProtocol> {
    n: usize,
    protocol: P,
    layering: MobileLayering,
    packer: Option<StatePacker<MobileState<P::LocalState>>>,
}

impl<P: SyncProtocol> MobileModel<P> {
    /// A model with `n` processes under the `S₁` layering.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`.
    #[must_use]
    pub fn new(n: usize, protocol: P) -> Self {
        assert!(n >= 2, "the paper assumes n >= 2");
        let packer = build_packer(n, &protocol);
        MobileModel {
            n,
            protocol,
            layering: MobileLayering::S1,
            packer,
        }
    }

    /// Selects the successor function exposed by [`LayeredModel`].
    #[must_use]
    pub fn with_layering(mut self, layering: MobileLayering) -> Self {
        self.layering = layering;
        self
    }

    /// The protocol under analysis.
    #[must_use]
    pub fn protocol(&self) -> &P {
        &self.protocol
    }

    /// Applies the environment action `(j, G)`: runs one synchronous round
    /// in which all messages from `j` to processes in `lost_to` are lost.
    ///
    /// Self-delivery is never lost (a process always knows its own message).
    #[must_use]
    pub fn apply(
        &self,
        x: &MobileState<P::LocalState>,
        j: Pid,
        lost_to: &[Pid],
    ) -> MobileState<P::LocalState> {
        let n = self.n;
        let lost: HashSet<usize> = lost_to.iter().map(|p| p.index()).collect();
        let mut next_locals = Vec::with_capacity(n);
        let mut next_decided = x.decided.clone();
        #[allow(clippy::needless_range_loop)] // `to` doubles as message index
        for to in 0..n {
            let received: Vec<Option<P::Msg>> = (0..n)
                .map(|from| {
                    let msg = self.protocol.message(&x.locals[from], Pid::new(to));
                    let is_lost = from == j.index() && from != to && lost.contains(&to);
                    (!is_lost).then_some(msg)
                })
                .collect();
            let ls = self
                .protocol
                .transition(x.locals[to].clone(), Pid::new(to), &received);
            if next_decided[to].is_none() {
                next_decided[to] = self.protocol.decide(&ls);
            }
            next_locals.push(ls);
        }
        MobileState {
            round: x.round + 1,
            inputs: x.inputs.clone(),
            locals: next_locals,
            decided: next_decided,
        }
    }

    /// The `S₁` layer of `x`: `{ x(j, [k]) }` with prefix destination sets,
    /// deduplicated.
    #[must_use]
    pub fn s1_layer(&self, x: &MobileState<P::LocalState>) -> Vec<MobileState<P::LocalState>> {
        let mut out = Vec::new();
        let mut seen = HashSet::new();
        // k = 0 is independent of j (no message lost): emit once.
        let clean = self.apply(x, Pid::new(0), &[]);
        seen.insert(clean.clone());
        out.push(clean);
        for j in Pid::all(self.n) {
            for k in 1..=self.n {
                let prefix: Vec<Pid> = Pid::all(k).collect();
                let y = self.apply(x, j, &prefix);
                if seen.insert(y.clone()) {
                    out.push(y);
                }
            }
        }
        out
    }

    /// The full `M^mf` layer of `x`: `{ x(j, G) }` over all subsets `G`,
    /// deduplicated.
    #[must_use]
    pub fn full_layer(&self, x: &MobileState<P::LocalState>) -> Vec<MobileState<P::LocalState>> {
        let mut out = Vec::new();
        let mut seen = HashSet::new();
        for j in Pid::all(self.n) {
            for mask in 0..(1usize << self.n) {
                let lost: Vec<Pid> = Pid::all(self.n)
                    .filter(|p| (mask >> p.index()) & 1 == 1)
                    .collect();
                let y = self.apply(x, j, &lost);
                if seen.insert(y.clone()) {
                    out.push(y);
                }
            }
        }
        out
    }

    /// Checks that `S₁` is a layering of `M^mf` at `x`: every `S₁` successor
    /// is an `M^mf` successor (here layers are single rounds, so the
    /// monotone embedding of the layering definition is the identity).
    #[must_use]
    pub fn s1_is_sublayer_at(&self, x: &MobileState<P::LocalState>) -> bool {
        let full: HashSet<MobileState<P::LocalState>> = self.full_layer(x).into_iter().collect();
        self.s1_layer(x).iter().all(|y| full.contains(y))
    }
}

/// Builds the packed codec for an `n`-process mobile model, if the protocol
/// packs its local states and the lanes fit one word. Layout, low bits
/// first: `n` lanes of `2` input bits, [`DECISION_BITS`] decision bits and
/// the protocol's local codec (the one pid group), then 8 round bits on
/// top.
fn build_packer<P: SyncProtocol>(
    n: usize,
    protocol: &P,
) -> Option<StatePacker<MobileState<P::LocalState>>> {
    let lp = protocol.local_packer()?;
    let lane = 2 + DECISION_BITS + lp.bits();
    let head = n as u32 * lane;
    if head + 8 > 127 {
        return None;
    }
    let pack = {
        let lp = lp.clone();
        move |x: &MobileState<P::LocalState>| {
            if x.locals.len() != n || x.round >= 1 << 8 {
                return None;
            }
            let mut w = u128::from(x.round) << head;
            for i in 0..n {
                let off = i as u32 * lane;
                let inp = u64::from(x.inputs[i].get());
                if inp >= 4 {
                    return None;
                }
                let dec = pack_decision(x.decided[i])?;
                let loc = lp.pack(&x.locals[i])?;
                w |= u128::from(inp) << off;
                w |= u128::from(dec) << (off + 2);
                w |= u128::from(loc) << (off + 2 + DECISION_BITS);
            }
            Some(w)
        }
    };
    let unpack = move |w: u128| {
        let mut inputs = Vec::with_capacity(n);
        let mut decided = Vec::with_capacity(n);
        let mut locals = Vec::with_capacity(n);
        for i in 0..n {
            let off = i as u32 * lane;
            inputs.push(Value::new(((w >> off) & 0b11) as u32));
            decided.push(unpack_decision(
                ((w >> (off + 2)) as u64) & ((1 << DECISION_BITS) - 1),
            ));
            locals.push(lp.unpack(((w >> (off + 2 + DECISION_BITS)) as u64) & lp.mask()));
        }
        MobileState {
            round: ((w >> head) & 0xFF) as u16,
            inputs,
            locals,
            decided,
        }
    };
    let lanes = PidGroup {
        start: 0,
        width: lane,
    };
    Some(StatePacker::new(pack, unpack).with_pid_groups(n, &[lanes]))
}

impl<P: SyncProtocol> LayeredModel for MobileModel<P> {
    type State = MobileState<P::LocalState>;

    fn num_processes(&self) -> usize {
        self.n
    }

    fn max_failures(&self) -> usize {
        // A single mobile failure: at most one process is faulty per run
        // (the one silenced from some round on).
        1
    }

    fn initial_state(&self, inputs: &[Value]) -> Self::State {
        assert_eq!(inputs.len(), self.n, "one input per process");
        let locals: Vec<P::LocalState> = inputs
            .iter()
            .enumerate()
            .map(|(i, &v)| self.protocol.init(self.n, Pid::new(i), v))
            .collect();
        let decided = locals.iter().map(|ls| self.protocol.decide(ls)).collect();
        MobileState {
            round: 0,
            inputs: inputs.to_vec(),
            locals,
            decided,
        }
    }

    fn successors(&self, x: &Self::State) -> Vec<Self::State> {
        match self.layering {
            MobileLayering::S1 => self.s1_layer(x),
            MobileLayering::Full => self.full_layer(x),
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

    fn failed_at(&self, _x: &Self::State, _i: Pid) -> bool {
        // M^mf displays no finite failure: the environment can always stop
        // losing messages, so no finite state pins a process as faulty.
        false
    }

    fn agree_modulo(&self, x: &Self::State, y: &Self::State, j: Pid) -> bool {
        x.round == y.round
            && (0..self.n).all(|i| {
                i == j.index()
                    || (x.locals[i] == y.locals[i]
                        && x.decided[i] == y.decided[i]
                        && x.inputs[i] == y.inputs[i])
            })
    }

    fn crash_step(&self, x: &Self::State, j: Pid) -> Self::State {
        let everyone: Vec<Pid> = Pid::all(self.n).collect();
        self.apply(x, j, &everyone)
    }

    fn state_packer(&self) -> Option<&StatePacker<Self::State>> {
        self.packer.as_ref()
    }
}

// Process renaming acts on M^mf states by relocating every per-process
// component. For an anonymous protocol the *full* environment is
// equivariant: `(π·x)(π(j), π(G)) = π·(x(j, G))`, because losing `π(j)`'s
// messages to `π(G)` in the renamed state loses exactly the renamed copies
// of the messages lost in the original, and local transitions ignore pids.
// Enumerating all `(j, G)` therefore enumerates the same layer up to
// renaming — the `Full` layering is symmetric. `S₁` is *not*: prefix sets
// `[k]` are not closed under renaming (checked by the symmetry tests), so
// `symmetric_layering` reports it unusable for quotienting.
impl<P> Symmetric for MobileModel<P>
where
    P: SyncProtocol + Anonymous,
    P::LocalState: Ord,
{
    fn permute_state(&self, x: &Self::State, perm: &PidPerm) -> Self::State {
        MobileState {
            round: x.round,
            inputs: perm.permute_vec(&x.inputs),
            locals: perm.permute_vec(&x.locals),
            decided: perm.permute_vec(&x.decided),
        }
    }

    fn symmetric_layering(&self) -> bool {
        self.layering == MobileLayering::Full
    }
}

#[cfg(test)]
mod tests {
    use layered_core::telemetry::NOOP;
    use layered_core::{
        check_crash_display, check_fault_independence, check_graded, similarity_report,
        similarity_witness, Region,
    };
    use layered_protocols::{FloodMin, HastyMin};

    use super::*;

    fn model(n: usize, rounds: u16) -> MobileModel<FloodMin> {
        MobileModel::new(n, FloodMin::new(rounds))
    }

    #[test]
    fn initial_states_form_con0() {
        let m = model(3, 2);
        let inits = m.initial_states();
        assert_eq!(inits.len(), 8);
        assert!(inits.iter().all(|x| x.round == 0));
        assert!(inits.iter().all(|x| x.decided.iter().all(Option::is_none)));
    }

    #[test]
    fn structural_contracts_hold() {
        let m = model(3, 2);
        let region = Region::reachable(&m, 2, &NOOP);
        assert_eq!(check_graded(&m, &region), None);
        assert_eq!(check_fault_independence(&m, &region), None);
        assert_eq!(check_crash_display(&m, &region), None);
    }

    #[test]
    fn clean_action_is_j_independent() {
        // x(j, [0]) is the same state for all j (paper, Section 5).
        let m = model(3, 2);
        let x = m.initial_state(&[Value::ZERO, Value::ONE, Value::ONE]);
        let a = m.apply(&x, Pid::new(0), &[]);
        let b = m.apply(&x, Pid::new(2), &[]);
        assert_eq!(a, b);
    }

    #[test]
    fn prefix_actions_differ_in_one_process() {
        // x(j,[k]) and x(j,[k+1]) agree modulo process k+1 (Lemma 5.1(iii)).
        let m = model(3, 2);
        let x = m.initial_state(&[Value::ZERO, Value::ONE, Value::ONE]);
        let j = Pid::new(0);
        for k in 0..3usize {
            let a = m.apply(&x, j, &Pid::all(k).collect::<Vec<_>>());
            let b = m.apply(&x, j, &Pid::all(k + 1).collect::<Vec<_>>());
            assert!(
                m.agree_modulo(&a, &b, Pid::new(k)),
                "x(j,[{k}]) and x(j,[{}]) must agree modulo p{}",
                k + 1,
                k + 1
            );
            // And they are similar: some third process is non-failed.
            assert!(similarity_witness(&m, &a, &b).is_some());
        }
    }

    #[test]
    fn s1_layer_is_similarity_connected() {
        // Lemma 5.1(iii), first half: S₁(x) is similarity connected.
        let m = model(3, 2);
        for x0 in m.initial_states() {
            let layer = m.s1_layer(&x0);
            let rep = similarity_report(&m, &layer, &NOOP);
            assert!(rep.connected, "S₁(x) must be similarity connected");
            // And one level deeper.
            for x1 in layer.iter().take(3) {
                let rep1 = similarity_report(&m, &m.s1_layer(x1), &NOOP);
                assert!(rep1.connected);
            }
        }
    }

    #[test]
    fn s1_is_sublayering_of_full_model() {
        // Lemma 5.1(i): S₁-runs are runs of M^mf.
        let m = model(3, 1);
        let x = m.initial_state(&[Value::ZERO, Value::ZERO, Value::ONE]);
        assert!(m.s1_is_sublayer_at(&x));
    }

    #[test]
    fn s1_layer_size_is_at_most_n_squared_plus_one() {
        let m = model(3, 2);
        let x = m.initial_state(&[Value::ZERO, Value::ONE, Value::ZERO]);
        let layer = m.s1_layer(&x);
        assert!(layer.len() <= 3 * 3 + 1);
        assert!(layer.len() >= 2, "losses must matter on mixed inputs");
    }

    #[test]
    fn crash_step_silences_all_messages() {
        let m = model(2, 1);
        let x = m.initial_state(&[Value::ZERO, Value::ONE]);
        let y = m.crash_step(&x, Pid::new(0));
        // p2 never heard p1's 0, so p2 decides 1 after round 1; p1 knows both.
        assert_eq!(y.decided[1], Some(Value::ONE));
        assert_eq!(y.decided[0], Some(Value::ZERO));
    }

    #[test]
    fn decisions_are_write_once() {
        let m = MobileModel::new(2, HastyMin);
        let x = m.initial_state(&[Value::ONE, Value::ZERO]);
        assert_eq!(x.decided[0], Some(Value::ONE));
        // After a clean round p1 learns 0; HastyMin would now "decide" 0,
        // but the latch must keep the original decision.
        let y = m.apply(&x, Pid::new(0), &[]);
        assert_eq!(y.decided[0], Some(Value::ONE));
    }

    #[test]
    fn rounds_advance_depth() {
        let m = model(2, 2);
        let x = m.initial_state(&[Value::ZERO, Value::ZERO]);
        let y = m.apply(&x, Pid::new(0), &[]);
        assert_eq!(m.depth(&x), 0);
        assert_eq!(m.depth(&y), 1);
    }
}
