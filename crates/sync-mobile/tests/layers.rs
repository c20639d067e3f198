//! Differential test of the mobile-failure model's successor functions
//! against a naive reference simulator.
//!
//! The reference re-simulates the whole round for every environment action
//! `(j, G)`: it builds all `n²` messages, loses `j`'s messages to `G` and
//! runs every receiver's transition. The model's `s1_layer`, `full_layer`,
//! `successors` (under both layerings), `apply` and `crash_step` must each
//! return exactly what the reference returns, as ordered vectors, on every
//! state reachable within 2 rounds of `M^mf` — so every state reachable
//! within 3 rounds is produced by both and compared.

use std::collections::{BTreeSet, HashSet};

use layered_core::{LayeredModel, Pid, Value};
use layered_protocols::{
    EarlyFloodMin, FloodMin, FullInfoMin, HastyMin, SyncProtocol, SyncRelayRace,
};
use layered_sync_mobile::{MobileLayering, MobileModel, MobileState};

type State<P> = MobileState<<P as SyncProtocol>::LocalState>;

/// The reference model: one naive simulation per action.
struct Reference<'a, P> {
    protocol: &'a P,
    n: usize,
}

impl<P: SyncProtocol> Reference<'_, P> {
    /// The naive one-action round simulator: every message of the round is
    /// built and every receiver transitions, for this one action. Messages
    /// from `j` to `lost_to` are lost; self-delivery never is.
    fn apply(&self, x: &State<P>, j: Pid, lost_to: &[Pid]) -> State<P> {
        let lost: HashSet<usize> = lost_to.iter().map(|p| p.index()).collect();
        let mut next_locals = Vec::with_capacity(self.n);
        let mut next_decided = x.decided.clone();
        #[allow(clippy::needless_range_loop)] // `to` doubles as message index
        for to in 0..self.n {
            let received: Vec<Option<P::Msg>> = (0..self.n)
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

    /// The destination set whose bits `mask` sets.
    fn subset(&self, mask: usize) -> Vec<Pid> {
        Pid::all(self.n)
            .filter(|p| (mask >> p.index()) & 1 == 1)
            .collect()
    }

    /// `S₁(x)`: the clean round first, then `j` ascending, then `k`
    /// ascending, each distinct state once.
    fn s1_layer(&self, x: &State<P>) -> Vec<State<P>> {
        let mut out = Vec::new();
        let mut seen = HashSet::new();
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

    /// The full `M^mf` layer: `j` ascending, then destination mask
    /// ascending (so the clean round `(p1, ∅)` comes first), each distinct
    /// state once.
    fn full_layer(&self, x: &State<P>) -> Vec<State<P>> {
        let mut out = Vec::new();
        let mut seen = HashSet::new();
        for j in Pid::all(self.n) {
            for mask in 0..(1usize << self.n) {
                let y = self.apply(x, j, &self.subset(mask));
                if seen.insert(y.clone()) {
                    out.push(y);
                }
            }
        }
        out
    }

    fn crash_step(&self, x: &State<P>, j: Pid) -> State<P> {
        let everyone: Vec<Pid> = Pid::all(self.n).collect();
        self.apply(x, j, &everyone)
    }
}

/// Every state reachable within `depth` rounds of `M^mf`, in first-seen
/// order.
fn reachable<P: SyncProtocol>(
    r: &Reference<'_, P>,
    m: &MobileModel<P>,
    depth: usize,
) -> Vec<State<P>> {
    let mut seen: HashSet<State<P>> = HashSet::new();
    let mut all = Vec::new();
    let mut frontier: Vec<State<P>> = m.initial_states();
    for d in 0..=depth {
        let mut next = Vec::new();
        for x in frontier {
            if !seen.insert(x.clone()) {
                continue;
            }
            if d < depth {
                next.extend(r.full_layer(&x));
            }
            all.push(x);
        }
        frontier = next;
    }
    all
}

/// Checks every successor function of `MobileModel::new(n, protocol)`
/// against the reference on every state reachable within 2 rounds, for
/// each `n` in `sizes`.
fn check_protocol<P: SyncProtocol + Clone>(protocol: &P, sizes: &[usize]) {
    for &n in sizes {
        let r = Reference { protocol, n };
        let s1 = MobileModel::new(n, protocol.clone());
        let full = MobileModel::new(n, protocol.clone()).with_layering(MobileLayering::Full);
        let states = reachable(&r, &s1, 2);
        assert!(states.len() > 1 << n, "n={n}: reached past the roots");
        for x in &states {
            let s1_layer = r.s1_layer(x);
            let full_layer = r.full_layer(x);
            assert_eq!(s1.s1_layer(x), s1_layer, "s1_layer, n={n} x={x:?}");
            assert_eq!(s1.full_layer(x), full_layer, "full_layer, n={n} x={x:?}");
            assert_eq!(s1.successors(x), s1_layer, "S1 successors, n={n} x={x:?}");
            assert_eq!(
                full.successors(x),
                full_layer,
                "Full successors, n={n} x={x:?}"
            );
            for j in Pid::all(n) {
                for mask in 0..(1usize << n) {
                    let lost = r.subset(mask);
                    assert_eq!(
                        s1.apply(x, j, &lost),
                        r.apply(x, j, &lost),
                        "apply j={j:?} G={lost:?}, n={n} x={x:?}"
                    );
                }
                assert_eq!(
                    s1.crash_step(x, j),
                    r.crash_step(x, j),
                    "crash_step j={j:?}, n={n} x={x:?}"
                );
            }
        }
    }
}

/// A test protocol whose message depends on its destination: each message
/// names its addressee, and receivers log what they got from whom. A
/// simulator that builds one message per sender and fans it out to every
/// receiver would hand receivers messages addressed to someone else.
#[derive(Clone, Copy, Debug)]
struct Addressed {
    deadline: u16,
}

#[derive(Clone, PartialEq, Eq, Hash, Debug)]
struct AddressedState {
    known: BTreeSet<Value>,
    /// Per round, per sender: the addressee the message named, or `None`
    /// if nothing arrived.
    log: Vec<Vec<Option<usize>>>,
}

impl SyncProtocol for Addressed {
    type LocalState = AddressedState;
    type Msg = (usize, BTreeSet<Value>);

    fn init(&self, _n: usize, _me: Pid, input: Value) -> AddressedState {
        AddressedState {
            known: BTreeSet::from([input]),
            log: Vec::new(),
        }
    }

    fn message(&self, ls: &AddressedState, to: Pid) -> Self::Msg {
        (to.index(), ls.known.clone())
    }

    fn transition(
        &self,
        mut ls: AddressedState,
        _me: Pid,
        received: &[Option<Self::Msg>],
    ) -> AddressedState {
        let mut row = Vec::with_capacity(received.len());
        for msg in received {
            row.push(msg.as_ref().map(|(to, _)| *to));
            if let Some((_, known)) = msg {
                ls.known.extend(known.iter().copied());
            }
        }
        ls.log.push(row);
        ls
    }

    fn decide(&self, ls: &AddressedState) -> Option<Value> {
        (ls.log.len() >= usize::from(self.deadline)).then(|| *ls.known.first().expect("own input"))
    }
}

#[test]
fn floodmin_one_round_matches_reference() {
    check_protocol(&FloodMin::new(1), &[3, 4]);
}

#[test]
fn floodmin_two_rounds_matches_reference() {
    check_protocol(&FloodMin::new(2), &[3, 4]);
}

#[test]
fn early_floodmin_matches_reference() {
    check_protocol(&EarlyFloodMin::new(2), &[3]);
}

#[test]
fn full_info_min_matches_reference() {
    check_protocol(&FullInfoMin::new(2), &[3]);
}

#[test]
fn hasty_min_matches_reference() {
    check_protocol(&HastyMin, &[3, 4]);
}

#[test]
fn relay_race_matches_reference() {
    check_protocol(&SyncRelayRace, &[3, 4]);
}

#[test]
fn destination_dependent_messages_match_reference() {
    check_protocol(&Addressed { deadline: 2 }, &[3]);
}
