//! The asynchronous message-passing model under the *permutation layering*
//! `S^per` (Section 5.1 of the paper).
//!
//! A local phase of process `i` is a send step (at most one message per
//! destination, computed from `i`'s state at the start of the phase)
//! followed by a receive step (absorb every outstanding message). The
//! environment schedules local phases with actions of three shapes:
//!
//! * `[p₁, …, pₙ]` — a full permutation: everyone takes a phase, in order;
//! * `[p₁, …, p_{n−1}]` — drop-last: one process is skipped entirely;
//! * `[p₁, …, {p_k, p_{k+1}}, …, pₙ]` — full, but one adjacent pair acts
//!   *concurrently*: both send before either receives, so each sees the
//!   other's current-phase message.
//!
//! This is the message-passing analogue of immediate-snapshot executions
//! (the paper notes no such analogue had been proposed before). The three
//! structural facts driving valence connectivity of a layer are all
//! executable here:
//!
//! * [`MpModel::transposition_bridges`] — sequential and concurrent
//!   versions of an adjacent pair agree modulo a single process;
//! * [`MpModel::diamond_identity_holds`] — the two-layer diamond
//!   `x[p₁…pₙ][p₁…p_{n−1}] = x[p₁…p_{n−1}][pₙ, p₁…p_{n−1}]` is an exact
//!   state equality ("the FLP diamond argument reduced to its bare
//!   minimum");
//! * the footnote that `x[p₁…pₙ] ≁_s x[p₁…p_{n−1}]` — their differences
//!   spill into other processes' mailboxes.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::OnceLock;

use layered_core::{
    pack_decision, unpack_decision, LayeredModel, Pid, PidPerm, StatePacker, Symmetric, Value,
    WordReader, WordWriter, DECISION_BITS,
};
use layered_protocols::{Anonymous, MpProtocol};

use crate::perm::{drop_last_arrangements, permutations};
use crate::phase::{self, Distinct, PidSet};
use crate::state::MpState;

/// An environment action of the permutation layering.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum MpAction {
    /// Processes take local phases strictly in the given order. A full
    /// action lists all `n` processes; a drop-last action lists `n − 1`.
    Sequential(Vec<Pid>),
    /// All `n` processes take phases in order, except that the pair at
    /// positions `(at, at + 1)` acts concurrently (both send, then both
    /// receive).
    Concurrent {
        /// The full order (length `n`).
        order: Vec<Pid>,
        /// Position of the first element of the concurrent pair
        /// (`at + 1 < n`).
        at: usize,
    },
}

/// The asynchronous message-passing model, parameterized by a deterministic
/// phase protocol.
///
/// # Examples
///
/// ```
/// use layered_core::check_consensus;
/// use layered_core::telemetry::NOOP;
/// use layered_protocols::MpFloodMin;
/// use layered_async_mp::MpModel;
///
/// let m = MpModel::new(3, MpFloodMin::new(2));
/// // FLP via the permutation layering: the checker exhibits a violation
/// // for this candidate at its own deadline.
/// assert!(!check_consensus(&m, 2, 1, &NOOP).passed());
/// ```
#[derive(Clone, Debug)]
pub struct MpModel<P: MpProtocol> {
    n: usize,
    protocol: P,
    obligation: Option<u16>,
    packer: Option<StatePacker<MpState<P::LocalState, P::Msg>>>,
    /// The layer's schedules, built on the first [`MpModel::layer`] call:
    /// enumerating `(n + 1)·n!` actions is hopeless at the sizes the
    /// simulator runs.
    plan: OnceLock<PhasePlan>,
}

impl<P: MpProtocol> MpModel<P> {
    /// A model with `n` processes.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`.
    #[must_use]
    pub fn new(n: usize, protocol: P) -> Self {
        assert!(n >= 2, "the paper assumes n >= 2");
        let packer = build_packer(n, &protocol);
        MpModel {
            n,
            protocol,
            obligation: None,
            packer,
            plan: OnceLock::new(),
        }
    }

    /// Obliges every process with at least `phases` completed local phases
    /// to have decided at horizon states.
    #[must_use]
    pub fn with_obligation(mut self, phases: u16) -> Self {
        self.obligation = Some(phases);
        self
    }

    /// The protocol under analysis.
    #[must_use]
    pub fn protocol(&self) -> &P {
        &self.protocol
    }

    /// All actions available in a layer: `n!` full, `n!` drop-last, and
    /// `(n−1)·n!` concurrent-pair actions.
    #[must_use]
    pub fn actions(&self) -> Vec<MpAction> {
        let mut out = Vec::new();
        for p in permutations(self.n) {
            for at in 0..self.n.saturating_sub(1) {
                out.push(MpAction::Concurrent {
                    order: p.clone(),
                    at,
                });
            }
            out.push(MpAction::Sequential(p));
        }
        for a in drop_last_arrangements(self.n) {
            out.push(MpAction::Sequential(a));
        }
        out
    }

    /// Applies an environment action (one layer).
    ///
    /// # Panics
    ///
    /// Panics if the action is malformed (wrong length, repeated processes,
    /// or a concurrent position out of range).
    #[must_use]
    pub fn apply(
        &self,
        x: &MpState<P::LocalState, P::Msg>,
        action: &MpAction,
    ) -> MpState<P::LocalState, P::Msg> {
        let plan = PhasePlan::new(self.n, std::slice::from_ref(action));
        let mut successors = self.evaluate(x, &plan);
        successors.next().expect("one action has one schedule")
    }

    /// The layer `S^per(x)`, deduplicated, in the order of first occurrence
    /// along [`MpModel::actions`].
    ///
    /// Each process's sends and each distinct receive phase of the layer
    /// are computed once, and every action's successor is assembled from
    /// them (see `PhasePlan`).
    #[must_use]
    pub fn layer(&self, x: &MpState<P::LocalState, P::Msg>) -> Vec<MpState<P::LocalState, P::Msg>> {
        let plan = self
            .plan
            .get_or_init(|| PhasePlan::new(self.n, &self.actions()));
        let mut out = Distinct::with_capacity(plan.schedules.len());
        for y in self.evaluate(x, plan) {
            out.push(y);
        }
        out.into_vec()
    }

    /// The successors of `x` under `plan`'s schedules, in plan order: the
    /// sends of every process that takes a phase, computed from its state
    /// in `x`, then each receive phase, then one state per schedule.
    fn evaluate<'a>(
        &'a self,
        x: &'a MpState<P::LocalState, P::Msg>,
        plan: &'a PhasePlan,
    ) -> impl Iterator<Item = MpState<P::LocalState, P::Msg>> + 'a {
        let n = self.n;
        // `fresh[to]`: the layer's message to `to` from each sender,
        // sender-sorted.
        let mut fresh: Vec<Vec<(Pid, P::Msg)>> = vec![Vec::new(); n];
        for p in Pid::all(n).filter(|&p| plan.acting.contains(p)) {
            for (to, msg) in phase::outbox(&self.protocol, n, &x.locals[p.index()], p) {
                fresh[to.index()].push((p, msg));
            }
        }
        let received: Vec<_> = plan
            .receives
            .iter()
            .map(|&(p, before)| {
                let i = p.index();
                let delivered = merged(&x.mailboxes[i], &fresh[i], |from| before.contains(from));
                phase::absorb(&self.protocol, x, p, &delivered)
            })
            .collect();
        plan.schedules.iter().map(move |schedule| {
            let acting = |from: Pid| schedule[from.index()].is_some();
            let mut y = MpState {
                round: x.round + 1,
                inputs: x.inputs.clone(),
                locals: Vec::with_capacity(n),
                decided: Vec::with_capacity(n),
                phases_done: Vec::with_capacity(n),
                mailboxes: Vec::with_capacity(n),
            };
            for (i, &receive) in schedule.iter().enumerate() {
                match receive {
                    Some(k) => {
                        let (ls, decided) = &received[k];
                        let before = plan.receives[k].1;
                        y.locals.push(ls.clone());
                        y.decided.push(*decided);
                        y.phases_done.push(x.phases_done[i] + 1);
                        // Drained by the receive; holds what was sent after.
                        y.mailboxes.push(
                            fresh[i]
                                .iter()
                                .filter(|&&(from, _)| acting(from) && !before.contains(from))
                                .cloned()
                                .collect(),
                        );
                    }
                    None => {
                        y.locals.push(x.locals[i].clone());
                        y.decided.push(x.decided[i]);
                        y.phases_done.push(x.phases_done[i]);
                        y.mailboxes.push(merged(&x.mailboxes[i], &fresh[i], acting));
                    }
                }
            }
            y
        })
    }

    /// Checks the two similarity bridges around an adjacent pair at
    /// positions `(at, at+1)` of `order`:
    ///
    /// * `x[…, p_k, p_{k+1}, …]` agrees modulo `p_k` with the concurrent
    ///   version (only `p_k` sees `p_{k+1}`'s fresh message in the latter);
    /// * the concurrent version agrees modulo `p_{k+1}` with
    ///   `x[…, p_{k+1}, p_k, …]`.
    ///
    /// Returns `(first_holds, second_holds)`.
    #[must_use]
    pub fn transposition_bridges(
        &self,
        x: &MpState<P::LocalState, P::Msg>,
        order: &[Pid],
        at: usize,
    ) -> (bool, bool) {
        let seq = self.apply(x, &MpAction::Sequential(order.to_vec()));
        let conc = self.apply(
            x,
            &MpAction::Concurrent {
                order: order.to_vec(),
                at,
            },
        );
        let mut swapped = order.to_vec();
        swapped.swap(at, at + 1);
        let seq_swapped = self.apply(x, &MpAction::Sequential(swapped));
        (
            self.agree_modulo(&seq, &conc, order[at]),
            self.agree_modulo(&conc, &seq_swapped, order[at + 1]),
        )
    }

    /// Checks the paper's diamond identity at `x` for the given full order:
    /// `x[p₁…pₙ][p₁…p_{n−1}] = x[p₁…p_{n−1}][pₙ, p₁…p_{n−1}]`.
    #[must_use]
    pub fn diamond_identity_holds(
        &self,
        x: &MpState<P::LocalState, P::Msg>,
        order: &[Pid],
    ) -> bool {
        assert_eq!(order.len(), self.n, "diamond needs a full order");
        let dropped: Vec<Pid> = order[..self.n - 1].to_vec();
        let last = order[self.n - 1];
        let mut rotated = vec![last];
        rotated.extend_from_slice(&dropped);

        let left = self.apply(
            &self.apply(x, &MpAction::Sequential(order.to_vec())),
            &MpAction::Sequential(dropped.clone()),
        );
        let right = self.apply(
            &self.apply(x, &MpAction::Sequential(dropped)),
            &MpAction::Sequential(rotated),
        );
        left == right
    }
}

/// `carried` followed by the messages of `fresh` whose sender is in
/// `senders`, stably sender-sorted: each sender's carried messages stay
/// ahead of its fresh one, as if the fresh ones had been sent one by one
/// (see [`phase::send`]).
fn merged<M: Clone>(
    carried: &[(Pid, M)],
    fresh: &[(Pid, M)],
    senders: impl Fn(Pid) -> bool,
) -> Vec<(Pid, M)> {
    let mut mailbox = carried.to_vec();
    mailbox.extend(fresh.iter().filter(|&&(from, _)| senders(from)).cloned());
    if mailbox.len() > carried.len() {
        mailbox.sort_by_key(|&(from, _)| from);
    }
    mailbox
}

/// Per process, the senders whose send precedes its receive under
/// `action`, or `None` if it takes no phase.
///
/// # Panics
///
/// Panics if the action is malformed (see [`MpModel::apply`]).
fn receive_sets(n: usize, action: &MpAction) -> Vec<Option<PidSet>> {
    let (order, pair_at) = match action {
        MpAction::Sequential(order) => {
            assert!(
                order.len() == n || order.len() + 1 == n,
                "sequential actions list n or n-1 processes"
            );
            (order, None)
        }
        MpAction::Concurrent { order, at } => {
            assert_eq!(order.len(), n, "concurrent actions are full");
            assert!(at + 1 < n, "pair position out of range");
            (order, Some(*at))
        }
    };
    let mut seen = PidSet::default();
    for &p in order {
        assert!(seen.insert(p), "processes in an action must be distinct");
    }
    let mut sets = vec![None; n];
    let mut sent = PidSet::default();
    for (pos, &p) in order.iter().enumerate() {
        let mut hears = sent;
        if pair_at == Some(pos) {
            // A concurrent pair: the second member sends before the first
            // receives (and hears the first, which sent just before it).
            hears.insert(order[pos + 1]);
        }
        sets[p.index()] = Some(hears);
        sent.insert(p);
    }
    sets
}

/// A list of actions reduced to what their successors depend on.
///
/// Two facts make this reduction exact. Every process sends at most once
/// per layer, from its state in the layer's source `x`, because its send
/// precedes its own receive. And mailboxes are sender-sorted, so what a
/// receiver absorbs depends only on the *set* of senders whose send
/// precedes its receive. An action's successor is therefore fixed by its
/// *receive phases*: which processes take a phase, each with that sender
/// set. Equal schedules give equal states; distinct ones may still collide
/// (a protocol that sends nothing), which [`Distinct`] catches.
#[derive(Clone, Debug)]
struct PhasePlan {
    /// Every process that takes a phase in some schedule: the senders.
    acting: PidSet,
    /// The distinct receive phases, each a receiver with the senders whose
    /// send precedes its receive, in the order of first use.
    receives: Vec<(Pid, PidSet)>,
    /// The distinct schedules, in the order of their first action: per
    /// process, the index of its receive phase in `receives`, or `None` if
    /// it takes no phase.
    schedules: Vec<Vec<Option<usize>>>,
}

impl PhasePlan {
    fn new(n: usize, actions: &[MpAction]) -> Self {
        let mut plan = PhasePlan {
            acting: PidSet::default(),
            receives: Vec::new(),
            schedules: Vec::new(),
        };
        let mut receive_ids = BTreeMap::new();
        let mut seen = BTreeSet::new();
        for action in actions {
            let mut schedule = Vec::with_capacity(n);
            for (p, before) in Pid::all(n).zip(receive_sets(n, action)) {
                schedule.push(before.map(|before| {
                    plan.acting.insert(p);
                    *receive_ids.entry((p, before)).or_insert_with(|| {
                        plan.receives.push((p, before));
                        plan.receives.len() - 1
                    })
                }));
            }
            if seen.insert(schedule.clone()) {
                plan.schedules.push(schedule);
            }
        }
        plan
    }
}

/// Builds the packed codec for an `n ≤ 8` process message-passing model,
/// if the protocol packs both its local states and its messages. Mailboxes
/// make the layout variable-width, so the codec streams fields through a
/// [`WordWriter`], low bits first: 8 round bits, then per process `2`
/// input bits, [`DECISION_BITS`] decision bits, 4 phases-done bits, the
/// local codec, a 3-bit mailbox length (longer mailboxes spill) and per
/// undelivered message a 3-bit sender pid plus the message codec. No pid
/// groups are declared — relocating variable-width sections is not a bit
/// shuffle — so quotient canonicalization takes the `Ord` half of the
/// rule in `layered_core::sym`, and packing is storage-only here.
fn build_packer<P: MpProtocol>(
    n: usize,
    protocol: &P,
) -> Option<StatePacker<MpState<P::LocalState, P::Msg>>> {
    let lp = protocol.local_packer()?;
    let mp = protocol.msg_packer()?;
    if n > 8 {
        return None;
    }
    let pack = {
        let lp = lp.clone();
        let mp = mp.clone();
        move |x: &MpState<P::LocalState, P::Msg>| {
            if x.locals.len() != n {
                return None;
            }
            let mut w = WordWriter::new().push(u64::from(x.round), 8)?;
            for i in 0..n {
                w = w
                    .push(u64::from(x.inputs[i].get()), 2)?
                    .push(pack_decision(x.decided[i])?, DECISION_BITS)?
                    .push(u64::from(x.phases_done[i]), 4)?
                    .push(lp.pack(&x.locals[i])?, lp.bits())?
                    .push(u64::try_from(x.mailboxes[i].len()).ok()?, 3)?;
                for (from, msg) in &x.mailboxes[i] {
                    w = w
                        .push(u64::try_from(from.index()).ok()?, 3)?
                        .push(mp.pack(msg)?, mp.bits())?;
                }
            }
            Some(w.finish())
        }
    };
    let unpack = move |word: u128| {
        let mut r = WordReader::new(word);
        let round = r.take(8) as u16;
        let mut inputs = Vec::with_capacity(n);
        let mut locals = Vec::with_capacity(n);
        let mut decided = Vec::with_capacity(n);
        let mut phases_done = Vec::with_capacity(n);
        let mut mailboxes = Vec::with_capacity(n);
        for _ in 0..n {
            inputs.push(Value::new(r.take(2) as u32));
            decided.push(unpack_decision(r.take(DECISION_BITS)));
            phases_done.push(r.take(4) as u16);
            locals.push(lp.unpack(r.take(lp.bits())));
            let len = r.take(3) as usize;
            let mut mailbox = Vec::with_capacity(len);
            for _ in 0..len {
                let from = Pid::new(r.take(3) as usize);
                mailbox.push((from, mp.unpack(r.take(mp.bits()))));
            }
            mailboxes.push(mailbox);
        }
        MpState {
            round,
            inputs,
            locals,
            decided,
            phases_done,
            mailboxes,
        }
    };
    Some(StatePacker::new(pack, unpack))
}

impl<P: MpProtocol> LayeredModel for MpModel<P> {
    type State = MpState<P::LocalState, P::Msg>;

    fn num_processes(&self) -> usize {
        self.n
    }

    fn max_failures(&self) -> usize {
        1
    }

    fn initial_state(&self, inputs: &[Value]) -> Self::State {
        phase::initial_state(&self.protocol, self.n, inputs)
    }

    fn successors(&self, x: &Self::State) -> Vec<Self::State> {
        self.layer(x)
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
        // No finite failure: a skipped process can always resume.
        false
    }

    fn agree_modulo(&self, x: &Self::State, y: &Self::State, j: Pid) -> bool {
        phase::agree_modulo(x, y, j)
    }

    fn crash_step(&self, x: &Self::State, j: Pid) -> Self::State {
        let order: Vec<Pid> = Pid::all(self.n).filter(|&p| p != j).collect();
        self.apply(x, &MpAction::Sequential(order))
    }

    fn state_packer(&self) -> Option<&StatePacker<Self::State>> {
        self.packer.as_ref()
    }

    fn obligated(&self, x: &Self::State) -> Vec<Pid> {
        phase::obligated(x, self.obligation)
    }
}

// Renaming relocates the per-process vectors, moves each mailbox to its
// renamed receiver, and relabels sender tags inside it (re-sorted to keep
// the sender-sorted canonical mailbox order). Unlike the other models,
// `S^per` itself is equivariant: its action alphabet — all permutations,
// all drop-last arrangements, all concurrent adjacent pairs — is closed
// under renaming, so `symmetric_layering` is unconditionally true and the
// quotient engine applies to the paper's own layering.
impl<P> Symmetric for MpModel<P>
where
    P: MpProtocol + Anonymous,
    P::LocalState: Ord,
    P::Msg: Ord,
{
    fn permute_state(&self, x: &Self::State, perm: &PidPerm) -> Self::State {
        let mailboxes = perm
            .permute_vec(&x.mailboxes)
            .into_iter()
            .map(|mailbox| {
                let mut mailbox: Vec<(Pid, P::Msg)> = mailbox
                    .into_iter()
                    .map(|(from, msg)| (perm.apply(from), msg))
                    .collect();
                mailbox.sort_by_key(|&(from, _)| from);
                mailbox
            })
            .collect();
        MpState {
            round: x.round,
            inputs: perm.permute_vec(&x.inputs),
            locals: perm.permute_vec(&x.locals),
            decided: perm.permute_vec(&x.decided),
            phases_done: perm.permute_vec(&x.phases_done),
            mailboxes,
        }
    }

    fn symmetric_layering(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use layered_core::sim::SimModel;
    use layered_core::telemetry::NOOP;
    use layered_core::{
        check_crash_display, check_fault_independence, check_graded, valence_report, LayeredModel,
        Region, ValenceSolver,
    };
    use layered_protocols::{MpCollectMin, MpFloodMin};

    use super::*;
    use crate::perm::permutations;

    fn model(n: usize, phases: u16) -> MpModel<MpFloodMin> {
        MpModel::new(n, MpFloodMin::new(phases))
    }

    #[test]
    fn initial_states_form_con0() {
        let m = model(3, 2);
        let inits = m.initial_states();
        assert_eq!(inits.len(), 8);
        assert!(inits.iter().all(|x| x.in_transit() == 0));
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
    fn action_count_matches_paper() {
        // n! full + n! drop-last + (n−1)·n! concurrent.
        let m = model(3, 2);
        assert_eq!(m.actions().len(), 6 + 6 + 2 * 6);
    }

    #[test]
    fn full_action_behaves_like_a_round() {
        // After x[p1,p2,p3], later processes saw earlier fresh messages.
        let m = model(3, 1);
        let x = m.initial_state(&[Value::ZERO, Value::ONE, Value::ONE]);
        let order: Vec<Pid> = Pid::all(3).collect();
        let y = m.apply(&x, &MpAction::Sequential(order));
        // p1 sent its 0 before p2 and p3 received: both decide 0.
        assert_eq!(y.decided[1], Some(Value::ZERO));
        assert_eq!(y.decided[2], Some(Value::ZERO));
        // p1 received nothing fresh (it acted first): decides its own 0.
        assert_eq!(y.decided[0], Some(Value::ZERO));
    }

    #[test]
    fn drop_last_skips_a_process() {
        let m = model(3, 1);
        let x = m.initial_state(&[Value::ZERO, Value::ONE, Value::ONE]);
        // p1 (holding 0) is dropped: the others decide 1.
        let y = m.apply(&x, &MpAction::Sequential(vec![Pid::new(1), Pid::new(2)]));
        assert_eq!(y.decided[0], None);
        assert_eq!(y.decided[1], Some(Value::ONE));
        assert_eq!(y.decided[2], Some(Value::ONE));
        assert_eq!(y.phases_done, vec![0, 1, 1]);
        // p1's input is unknown to the others; messages TO p1 are pending.
        assert!(y.mailboxes[0].len() == 2);
    }

    #[test]
    fn concurrent_pair_sees_each_other() {
        let m = model(2, 1);
        let x = m.initial_state(&[Value::ZERO, Value::ONE]);
        let order: Vec<Pid> = Pid::all(2).collect();
        // Sequential [p1, p2]: p1 receives nothing, p2 sees p1's 0.
        let seq = m.apply(&x, &MpAction::Sequential(order.clone()));
        assert_eq!(seq.decided[0], Some(Value::ZERO));
        assert_eq!(seq.decided[1], Some(Value::ZERO));
        // Concurrent {p1, p2}: both send first, so both see each other.
        let conc = m.apply(&x, &MpAction::Concurrent { order, at: 0 });
        assert_eq!(conc.decided[0], Some(Value::ZERO));
        assert_eq!(conc.decided[1], Some(Value::ZERO));
        // In seq, p1 never saw p2's 1.
        assert_ne!(seq.locals[0], conc.locals[0]);
        assert_eq!(seq.locals[1], conc.locals[1]);
    }

    #[test]
    fn transposition_bridges_hold_everywhere() {
        // The Section 5.1 similarity chain, checked exhaustively at depth 0
        // and for a sample state at depth 1.
        let m = model(3, 3);
        for x in m.initial_states() {
            for order in permutations(3) {
                for at in 0..2 {
                    let (a, b) = m.transposition_bridges(&x, &order, at);
                    assert!(a && b, "bridge failed at {order:?}/{at} from {x:?}");
                }
            }
        }
        let x = m.initial_state(&[Value::ZERO, Value::ONE, Value::ONE]);
        let x1 = m.apply(&x, &MpAction::Sequential(vec![Pid::new(2), Pid::new(0)]));
        for order in permutations(3) {
            for at in 0..2 {
                let (a, b) = m.transposition_bridges(&x1, &order, at);
                assert!(a && b);
            }
        }
    }

    #[test]
    fn diamond_identity_holds_everywhere() {
        let m = model(3, 3);
        for x in m.initial_states().into_iter().take(4) {
            for order in permutations(3) {
                assert!(
                    m.diamond_identity_holds(&x, &order),
                    "diamond failed for {order:?}"
                );
            }
        }
    }

    #[test]
    fn full_and_drop_last_are_not_similar() {
        // The paper's footnote: x[p1..pn] and x[p1..p_{n-1}] do NOT agree
        // modulo p_n — p_n's messages sit in other processes' mailboxes.
        let m = model(3, 3);
        let x = m.initial_state(&[Value::ZERO, Value::ONE, Value::ONE]);
        let order: Vec<Pid> = Pid::all(3).collect();
        let full = m.apply(&x, &MpAction::Sequential(order.clone()));
        let dropped = m.apply(&x, &MpAction::Sequential(order[..2].to_vec()));
        assert!(!m.agree_modulo(&full, &dropped, Pid::new(2)));
    }

    #[test]
    fn layer_is_valence_connected() {
        let m = model(3, 2);
        let x = m.initial_state(&[Value::ZERO, Value::ONE, Value::ONE]);
        let mut solver = ValenceSolver::new(&m, 2);
        let layer = m.layer(&x);
        let rep = valence_report(&mut solver, &layer);
        assert!(rep.connected, "S^per(x) must be valence connected");
    }

    #[test]
    fn collect_quorum_n_never_decides_under_drops() {
        // MpCollectMin with quorum n: repeatedly dropping p1 leaves everyone
        // else unable to decide — the Decision face of FLP.
        let m = MpModel::new(3, MpCollectMin::new(3)).with_obligation(2);
        let x = m.initial_state(&[Value::ZERO, Value::ONE, Value::ONE]);
        let drop_p1 = MpAction::Sequential(vec![Pid::new(1), Pid::new(2)]);
        let y = m.apply(&m.apply(&x, &drop_p1), &drop_p1);
        assert!(y.decided.iter().all(Option::is_none));
    }

    #[test]
    fn large_n_construction_and_simulation_stay_cheap() {
        // The simulator runs `S^per` at n = 16, where a layer has 17·16!
        // actions: constructing the model and taking a step must not
        // enumerate them.
        let start = std::time::Instant::now();
        let m = model(16, 2);
        let inputs: Vec<Value> = (0..16).map(|i| Value::new(i % 2)).collect();
        let x = m.initial_state(&inputs);
        let y = m.apply_move(&x, &m.sample_move(&x, &mut |bound| bound / 2));
        assert_eq!(y.round, 1);
        assert!(m.plan.get().is_none(), "the layer plan is built lazily");
        assert!(start.elapsed() < std::time::Duration::from_secs(1));
    }

    #[test]
    #[should_panic(expected = "distinct")]
    fn repeated_process_in_action_rejected() {
        let m = model(2, 1);
        let x = m.initial_state(&[Value::ZERO, Value::ZERO]);
        let _ = m.apply(&x, &MpAction::Sequential(vec![Pid::new(0), Pid::new(0)]));
    }
}
