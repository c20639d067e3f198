//! Differential test of the message-passing layerings against a naive
//! reference simulator.
//!
//! The reference replays every environment action from a fresh clone of the
//! state, one local phase at a time, and deduplicates the layer through a
//! `HashSet` in first-occurrence order. The models' `successors` must return
//! exactly the reference's layer, as an ordered vector, and `apply` /
//! `crash_step` must return the reference's state for every action, on every
//! state reachable within a few layers.

use std::collections::HashSet;
use std::hash::Hash;

use layered_async_mp::{MpAction, MpModel, MpState, MpSyncAction, MpSyncModel};
use layered_core::{LayeredModel, Pid};
use layered_protocols::{MpCollectMin, MpFloodMin, MpIdentity, MpProtocol, MpRelayRace};

type State<P> = MpState<<P as MpProtocol>::LocalState, <P as MpProtocol>::Msg>;

/// One send step: messages computed from the pre-phase state, each pushed
/// into its receiver's mailbox, which is kept sender-sorted.
fn send_step<P: MpProtocol>(protocol: &P, n: usize, state: &mut State<P>, p: Pid) {
    let sends = protocol.send(&state.locals[p.index()], p, n);
    let mut dests = HashSet::new();
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

/// One receive step: drain and absorb the own mailbox, latch a decision.
fn receive_step<P: MpProtocol>(protocol: &P, state: &mut State<P>, p: Pid) {
    let delivered = std::mem::take(&mut state.mailboxes[p.index()]);
    let ls = protocol.absorb(state.locals[p.index()].clone(), p, &delivered);
    if state.decided[p.index()].is_none() {
        state.decided[p.index()] = protocol.decide(&ls);
    }
    state.locals[p.index()] = ls;
    state.phases_done[p.index()] += 1;
}

fn assert_distinct(order: &[Pid]) {
    let mut seen = HashSet::new();
    for &p in order {
        assert!(seen.insert(p), "processes in an action must be distinct");
    }
}

/// One `S^per` action, replayed phase by phase from a fresh clone.
fn naive_apply<P: MpProtocol>(protocol: &P, n: usize, x: &State<P>, action: &MpAction) -> State<P> {
    let mut state = x.clone();
    match action {
        MpAction::Sequential(order) => {
            assert!(order.len() == n || order.len() + 1 == n);
            assert_distinct(order);
            for &p in order {
                send_step(protocol, n, &mut state, p);
                receive_step(protocol, &mut state, p);
            }
        }
        MpAction::Concurrent { order, at } => {
            assert_eq!(order.len(), n);
            assert_distinct(order);
            assert!(at + 1 < n);
            for (pos, &p) in order.iter().enumerate() {
                if pos == *at {
                    // Both send, in action order, before either receives.
                    let q = order[*at + 1];
                    send_step(protocol, n, &mut state, p);
                    send_step(protocol, n, &mut state, q);
                    receive_step(protocol, &mut state, p);
                    receive_step(protocol, &mut state, q);
                } else if pos != *at + 1 {
                    send_step(protocol, n, &mut state, p);
                    receive_step(protocol, &mut state, p);
                }
            }
        }
    }
    state.round = x.round + 1;
    state
}

/// First occurrences in order: the layer's `HashSet` dedup.
fn dedup_in_order<S: Clone + Eq + Hash>(ys: impl IntoIterator<Item = S>) -> Vec<S> {
    let mut out = Vec::new();
    let mut seen = HashSet::new();
    for y in ys {
        if seen.insert(y.clone()) {
            out.push(y);
        }
    }
    out
}

/// One `Send₁ Recv₁ Send₂ Recv₂` round of the synchronic layering.
fn naive_sync_apply<P: MpProtocol>(
    protocol: &P,
    n: usize,
    x: &State<P>,
    action: MpSyncAction,
) -> State<P> {
    let mut state = x.clone();
    let (j, early_bound, j_participates) = match action {
        MpSyncAction::Absent(j) => (j, n, false),
        MpSyncAction::Staggered { j, k } => (j, k, true),
    };
    let proper = || Pid::all(n).filter(move |&i| i != j);
    for i in proper() {
        send_step(protocol, n, &mut state, i);
    }
    for i in proper().filter(|i| i.index() < early_bound) {
        receive_step(protocol, &mut state, i);
    }
    if j_participates {
        send_step(protocol, n, &mut state, j);
    }
    for i in proper().filter(|i| i.index() >= early_bound) {
        receive_step(protocol, &mut state, i);
    }
    if j_participates {
        receive_step(protocol, &mut state, j);
    }
    state.round = x.round + 1;
    state
}

/// Layers whose states also get every action replayed through `apply` and
/// `crash_step`. The deeper layers check `successors` only, which keeps the
/// sweep within a few seconds at `opt-level = 1`.
const APPLY_LAYERS: usize = 2;

/// Compares `successors` with the reference on every state reachable in
/// fewer than `layers` layers, so that every state within `layers` layers
/// is produced by both, and `apply` / `crash_step` on the states within
/// [`APPLY_LAYERS`] − 1 layers. Returns how many states it compared.
fn sweep_per<P: MpProtocol>(m: &MpModel<P>, layers: usize) -> usize {
    let n = m.num_processes();
    let actions = m.actions();
    let mut frontier = m.initial_states();
    let mut compared = 0;
    for depth in 0..layers {
        let mut produced = Vec::new();
        for x in &frontier {
            let ys: Vec<State<P>> = actions
                .iter()
                .map(|a| naive_apply(m.protocol(), n, x, a))
                .collect();
            if depth < APPLY_LAYERS {
                for (action, y) in actions.iter().zip(&ys) {
                    assert_eq!(&m.apply(x, action), y, "{action:?} at {x:?}");
                }
                for j in Pid::all(n) {
                    let order: Vec<Pid> = Pid::all(n).filter(|&p| p != j).collect();
                    let y = naive_apply(m.protocol(), n, x, &MpAction::Sequential(order));
                    assert_eq!(m.crash_step(x, j), y, "crash step of {j} at {x:?}");
                }
            }
            let want = dedup_in_order(ys);
            assert_eq!(m.successors(x), want, "layer of {x:?}");
            compared += 1;
            produced.extend(want);
        }
        frontier = dedup_in_order(produced);
    }
    compared
}

/// The same comparison for the synchronic layering.
fn sweep_sync<P: MpProtocol>(m: &MpSyncModel<P>, layers: usize) -> usize {
    let n = m.num_processes();
    let actions = m.actions();
    let mut frontier = m.initial_states();
    let mut compared = 0;
    for depth in 0..layers {
        let mut produced = Vec::new();
        for x in &frontier {
            let ys: Vec<State<P>> = actions
                .iter()
                .map(|&a| naive_sync_apply(m.protocol(), n, x, a))
                .collect();
            if depth < APPLY_LAYERS {
                for (&action, y) in actions.iter().zip(&ys) {
                    assert_eq!(&m.apply(x, action), y, "{action:?} at {x:?}");
                }
            }
            let want = dedup_in_order(ys);
            assert_eq!(m.successors(x), want, "layer of {x:?}");
            compared += 1;
            produced.extend(want);
        }
        frontier = dedup_in_order(produced);
    }
    compared
}

/// Layers swept per process count: every state within three layers at
/// `n ≤ 3`, within one at `n = 4` (120 actions per layer).
fn layers_for(n: usize) -> usize {
    if n <= 3 {
        3
    } else {
        1
    }
}

#[test]
fn permutation_layers_match_the_reference() {
    for n in 2..=4 {
        let layers = layers_for(n);
        assert!(sweep_per(&MpModel::new(n, MpFloodMin::new(2)), layers) > 0);
        assert!(sweep_per(&MpModel::new(n, MpFloodMin::new(3)), layers) > 0);
        let collect = MpModel::new(n, MpCollectMin::new(n - 1)).with_obligation(2);
        assert!(sweep_per(&collect, layers) > 0);
        // Sends nothing: every receive absorbs only the carried mailbox.
        assert!(sweep_per(&MpModel::new(n, MpIdentity), layers) > 0);
        // Leader-dependent partial sends: a process's messages depend on its
        // state at the start of the layer, and only some destinations get one.
        assert!(sweep_per(&MpModel::new(n, MpRelayRace), layers) > 0);
    }
}

#[test]
fn synchronic_layers_match_the_reference() {
    for n in 2..=4 {
        let layers = layers_for(n);
        assert!(sweep_sync(&MpSyncModel::new(n, MpFloodMin::new(3)), layers) > 0);
        let collect = MpSyncModel::new(n, MpCollectMin::new(n - 1)).with_obligation(2);
        assert!(sweep_sync(&collect, layers) > 0);
    }
}
