//! The pieces both message-passing layerings are built from: the send and
//! receive halves of a local phase, the model-independent parts of
//! [`LayeredModel`](layered_core::LayeredModel), and the in-order
//! deduplication of a layer.

use std::collections::BTreeMap;
use std::hash::Hash;

use layered_core::space::fx_hash;
use layered_core::{Pid, Value};
use layered_protocols::MpProtocol;

use crate::state::MpState;

/// The global state of a message-passing model running `P`.
type State<P> = MpState<<P as MpProtocol>::LocalState, <P as MpProtocol>::Msg>;

/// A set of processes, one bit per [`Pid`] (indices fit in a byte).
#[derive(Default)]
pub(crate) struct PidSet([u64; 4]);

impl PidSet {
    /// Adds `p`; returns whether it was absent.
    pub(crate) fn insert(&mut self, p: Pid) -> bool {
        let (word, bit) = (p.index() / 64, 1u64 << (p.index() % 64));
        let fresh = self.0[word] & bit == 0;
        self.0[word] |= bit;
        fresh
    }
}

/// The send half of `p`'s local phase: at most one message per destination,
/// computed from `p`'s current state, each appended to its receiver's
/// mailbox.
///
/// Channels are FIFO per sender but unordered across senders, so mailboxes
/// are kept sender-sorted (stably, preserving per-sender FIFO). States of
/// schedules that differ only in cross-sender arrival order are therefore
/// equal; in particular the two send orders of a concurrent pair give one
/// state.
pub(crate) fn send<P: MpProtocol>(protocol: &P, n: usize, state: &mut State<P>, p: Pid) {
    let sends = protocol.send(&state.locals[p.index()], p, n);
    let mut dests = PidSet::default();
    for (to, msg) in sends {
        assert_ne!(to, p, "protocols do not send to themselves");
        assert!(
            dests.insert(to),
            "at most one message per destination per phase"
        );
        let mailbox = &mut state.mailboxes[to.index()];
        mailbox.push((p, msg));
        mailbox.sort_by_key(|&(from, _)| from);
    }
}

/// The receive half of `p`'s local phase: drain and absorb `p`'s mailbox,
/// latch a decision, count the phase.
pub(crate) fn receive<P: MpProtocol>(protocol: &P, state: &mut State<P>, p: Pid) {
    let delivered = std::mem::take(&mut state.mailboxes[p.index()]);
    let ls = protocol.absorb(state.locals[p.index()].clone(), p, &delivered);
    if state.decided[p.index()].is_none() {
        state.decided[p.index()] = protocol.decide(&ls);
    }
    state.locals[p.index()] = ls;
    state.phases_done[p.index()] += 1;
}

/// The initial state for `inputs`: no phase taken, every mailbox empty.
pub(crate) fn initial_state<P: MpProtocol>(protocol: &P, n: usize, inputs: &[Value]) -> State<P> {
    assert_eq!(inputs.len(), n, "one input per process");
    let locals: Vec<P::LocalState> = inputs
        .iter()
        .enumerate()
        .map(|(i, &v)| protocol.init(n, Pid::new(i), v))
        .collect();
    let decided = locals.iter().map(|ls| protocol.decide(ls)).collect();
    MpState {
        round: 0,
        inputs: inputs.to_vec(),
        locals,
        decided,
        phases_done: vec![0; n],
        mailboxes: vec![Vec::new(); n],
    }
}

/// Whether `x` and `y` agree modulo `j`. Mailboxes are receiver-attributed:
/// `mailboxes[i]` is part of `i`'s extended local state (see [`MpState`]).
pub(crate) fn agree_modulo<L: Eq, M: Eq>(x: &MpState<L, M>, y: &MpState<L, M>, j: Pid) -> bool {
    x.round == y.round
        && (0..x.len()).all(|i| {
            i == j.index()
                || (x.locals[i] == y.locals[i]
                    && x.decided[i] == y.decided[i]
                    && x.inputs[i] == y.inputs[i]
                    && x.phases_done[i] == y.phases_done[i]
                    && x.mailboxes[i] == y.mailboxes[i])
        })
}

/// The processes obliged to have decided at `x`: those with at least
/// `phases` completed phases, or without an obligation the always-proper.
pub(crate) fn obligated<L, M>(x: &MpState<L, M>, phases: Option<u16>) -> Vec<Pid> {
    match phases {
        Some(r) => Pid::all(x.len())
            .filter(|i| x.phases_done[i.index()] >= r)
            .collect(),
        None => x.always_proper().collect(),
    }
}

/// A layer under construction: distinct states in first-occurrence order.
///
/// States are moved in, never cloned. A candidate is compared only with the
/// states sharing its deterministic hash, and is kept unless one of them is
/// equal.
pub(crate) struct Distinct<S> {
    states: Vec<S>,
    /// The latest state per hash.
    latest: BTreeMap<u64, usize>,
    /// Per state, the previous state with the same hash.
    previous: Vec<Option<usize>>,
}

impl<S: Hash + Eq> Distinct<S> {
    /// An empty layer with room for `capacity` states.
    pub(crate) fn with_capacity(capacity: usize) -> Self {
        Distinct {
            states: Vec::with_capacity(capacity),
            latest: BTreeMap::new(),
            previous: Vec::with_capacity(capacity),
        }
    }

    /// Appends `y` unless an equal state is already present.
    pub(crate) fn push(&mut self, y: S) {
        let hash = fx_hash(&y);
        let mut at = self.latest.get(&hash).copied();
        while let Some(i) = at {
            if self.states[i] == y {
                return;
            }
            at = self.previous[i];
        }
        self.previous
            .push(self.latest.insert(hash, self.states.len()));
        self.states.push(y);
    }

    /// The distinct states, in first-occurrence order.
    pub(crate) fn into_vec(self) -> Vec<S> {
        self.states
    }
}

#[cfg(test)]
mod tests {
    use std::hash::{Hash, Hasher};

    use super::Distinct;

    /// A value whose hash ignores it, so every pair of values collides.
    #[derive(PartialEq, Eq, Debug)]
    struct Blind(u8);

    impl Hash for Blind {
        fn hash<H: Hasher>(&self, _state: &mut H) {}
    }

    #[test]
    fn distinct_compares_states_that_share_a_hash() {
        // Layer states hash apart in every differential sweep, so the
        // equality check behind a hash match is pinned here.
        let mut layer = Distinct::with_capacity(5);
        for v in [3, 1, 3, 2, 1] {
            layer.push(Blind(v));
        }
        assert_eq!(layer.into_vec(), [Blind(3), Blind(1), Blind(2)]);
    }
}
