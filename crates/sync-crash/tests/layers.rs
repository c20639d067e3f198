//! Differential test of the crash model's successor functions against a
//! naive reference simulator.
//!
//! The reference re-simulates the whole round for every environment action:
//! it builds all `n²` messages, silences the blocked ones and runs every
//! receiver's transition. The model's `layer`, `full_layer`, `successors`
//! (under both layerings), `apply` and `crash_step` must each return exactly
//! what the reference returns, as ordered vectors, on every state reachable
//! within `t` rounds — so every state reachable within `t + 1` rounds is
//! produced by both and compared.

use std::collections::{BTreeSet, HashSet};

use layered_core::{LayeredModel, Pid, Value};
use layered_protocols::{EarlyFloodMin, Eig, FloodMin, HastyMin, SyncProtocol};
use layered_sync_crash::{CrashLayering, CrashModel, CrashState};

/// The naive one-action round simulator: every message of the round is
/// built and every receiver transitions, for this one action.
fn naive_apply_subset<P: SyncProtocol>(
    protocol: &P,
    n: usize,
    t: usize,
    x: &CrashState<P::LocalState>,
    new_failure: Option<(Pid, &[Pid])>,
) -> CrashState<P::LocalState> {
    let mut failed = x.failed.clone();
    let mut blocked: HashSet<(usize, usize)> = HashSet::new(); // (from, to)
    if let Some((j, lost_to)) = new_failure {
        assert!(!x.failed.contains(&j), "process already failed");
        assert!(x.failed.len() < t, "failure budget exhausted");
        for to in lost_to {
            if *to != j {
                blocked.insert((j.index(), to.index()));
            }
        }
        if !blocked.is_empty() {
            failed.insert(j);
        }
    }

    let mut next_locals = Vec::with_capacity(n);
    let mut next_decided = x.decided.clone();
    #[allow(clippy::needless_range_loop)] // `to` doubles as message index
    for to in 0..n {
        let received: Vec<Option<P::Msg>> = (0..n)
            .map(|from| {
                let silenced = from != to
                    && (x.failed.contains(&Pid::new(from)) || blocked.contains(&(from, to)));
                (!silenced).then(|| protocol.message(&x.locals[from], Pid::new(to)))
            })
            .collect();
        let ls = protocol.transition(x.locals[to].clone(), Pid::new(to), &received);
        if next_decided[to].is_none() {
            next_decided[to] = protocol.decide(&ls);
        }
        next_locals.push(ls);
    }
    CrashState {
        round: x.round + 1,
        inputs: x.inputs.clone(),
        locals: next_locals,
        decided: next_decided,
        failed,
    }
}

/// The reference model: one naive simulation per action.
struct Reference<'a, P> {
    protocol: &'a P,
    n: usize,
    t: usize,
}

type State<P> = CrashState<<P as SyncProtocol>::LocalState>;

impl<P: SyncProtocol> Reference<'_, P> {
    fn apply(&self, x: &State<P>, new_failure: Option<(Pid, usize)>) -> State<P> {
        let prefixed = new_failure.map(|(j, k)| (j, Pid::all(k).collect::<Vec<_>>()));
        naive_apply_subset(
            self.protocol,
            self.n,
            self.t,
            x,
            prefixed.as_ref().map(|(j, g)| (*j, g.as_slice())),
        )
    }

    fn live(&self, x: &State<P>) -> Vec<Pid> {
        Pid::all(self.n).filter(|j| !x.failed.contains(j)).collect()
    }

    /// `S^t(x)`: clean first, then live `j` ascending, then `k` ascending.
    fn layer(&self, x: &State<P>) -> Vec<State<P>> {
        let mut out = Vec::new();
        let mut seen = HashSet::new();
        let clean = self.apply(x, None);
        seen.insert(clean.clone());
        out.push(clean);
        if x.failed.len() < self.t {
            for j in self.live(x) {
                for k in 1..=self.n {
                    let y = self.apply(x, Some((j, k)));
                    if seen.insert(y.clone()) {
                        out.push(y);
                    }
                }
            }
        }
        out
    }

    /// The full-environment layer: clean first, then live `j` ascending,
    /// then destination mask ascending.
    fn full_layer(&self, x: &State<P>) -> Vec<State<P>> {
        let mut out = Vec::new();
        let mut seen = HashSet::new();
        let clean = naive_apply_subset(self.protocol, self.n, self.t, x, None);
        seen.insert(clean.clone());
        out.push(clean);
        if x.failed.len() < self.t {
            for j in self.live(x) {
                for mask in 1..(1usize << self.n) {
                    let lost: Vec<Pid> = Pid::all(self.n)
                        .filter(|p| (mask >> p.index()) & 1 == 1)
                        .collect();
                    let y = naive_apply_subset(self.protocol, self.n, self.t, x, Some((j, &lost)));
                    if seen.insert(y.clone()) {
                        out.push(y);
                    }
                }
            }
        }
        out
    }

    fn crash_step(&self, x: &State<P>, j: Pid) -> State<P> {
        if !x.failed.contains(&j) && x.failed.len() < self.t {
            self.apply(x, Some((j, self.n)))
        } else {
            self.apply(x, None)
        }
    }
}

/// Every state reachable within `depth` rounds under `S^t`, in first-seen
/// order.
fn reachable<P: SyncProtocol>(
    r: &Reference<'_, P>,
    m: &CrashModel<P>,
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
                next.extend(r.layer(&x));
            }
            all.push(x);
        }
        frontier = next;
    }
    all
}

/// Checks every successor function of `CrashModel::new(n, t, protocol)`
/// against the reference on every state reachable within `t` rounds, whose
/// successors are every state reachable within `t + 1` rounds.
fn check_protocol<P: SyncProtocol + Clone>(make: impl Fn(usize) -> P) {
    for n in 3..=4 {
        for t in 1..=n - 2 {
            let protocol = make(t);
            let r = Reference {
                protocol: &protocol,
                n,
                t,
            };
            let prefix = CrashModel::new(n, t, protocol.clone());
            let full = CrashModel::new(n, t, protocol.clone()).with_layering(CrashLayering::Full);
            let states = reachable(&r, &prefix, t);
            assert!(states.len() > 1 << n, "n={n} t={t}: reached past the roots");
            for x in &states {
                let layer = r.layer(x);
                let full_layer = r.full_layer(x);
                assert_eq!(prefix.layer(x), layer, "layer, n={n} t={t} x={x:?}");
                assert_eq!(
                    prefix.full_layer(x),
                    full_layer,
                    "full_layer, n={n} t={t} x={x:?}"
                );
                assert_eq!(
                    prefix.successors(x),
                    layer,
                    "Prefix successors, n={n} t={t} x={x:?}"
                );
                assert_eq!(
                    full.successors(x),
                    full_layer,
                    "Full successors, n={n} t={t} x={x:?}"
                );
                assert_eq!(
                    prefix.apply(x, None),
                    r.apply(x, None),
                    "clean, n={n} t={t} x={x:?}"
                );
                if x.failed.len() < t {
                    for j in r.live(x) {
                        for k in 0..=n {
                            assert_eq!(
                                prefix.apply(x, Some((j, k))),
                                r.apply(x, Some((j, k))),
                                "apply j={j:?} k={k}, n={n} t={t} x={x:?}"
                            );
                        }
                    }
                }
                for j in Pid::all(n) {
                    assert_eq!(
                        prefix.crash_step(x, j),
                        r.crash_step(x, j),
                        "crash_step j={j:?}, n={n} t={t} x={x:?}"
                    );
                }
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

fn rounds(t: usize) -> u16 {
    u16::try_from(t).expect("small t")
}

#[test]
fn floodmin_t_matches_reference() {
    check_protocol(|t| FloodMin::new(rounds(t)));
}

#[test]
fn floodmin_t_plus_one_matches_reference() {
    check_protocol(|t| FloodMin::new(rounds(t) + 1));
}

#[test]
fn early_floodmin_matches_reference() {
    check_protocol(|t| EarlyFloodMin::new(rounds(t) + 1));
}

#[test]
fn eig_matches_reference() {
    check_protocol(|t| Eig::new(rounds(t) + 1));
}

#[test]
fn hasty_min_matches_reference() {
    check_protocol(|_| HastyMin);
}

#[test]
fn destination_dependent_messages_match_reference() {
    check_protocol(|t| Addressed {
        deadline: rounds(t) + 1,
    });
}
