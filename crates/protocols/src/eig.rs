//! Exponential Information Gathering (EIG) consensus.
//!
//! The classical t+1-round agreement protocol built on the EIG tree: node
//! labels are strings of distinct process ids; `val(σ·j)` is the value `j`
//! reported for node `σ`. For crash/omission failures, deciding the
//! minimum value present anywhere in the tree yields consensus in `t + 1`
//! rounds — behaviorally matching FloodMin but carrying the full
//! who-said-what structure, which makes it (a) a second, independently
//! structured witness that the Dolev–Strong bound is tight, and (b) a
//! heavier state-space workload for the engine.
//!
//! # Layout
//!
//! A process's tree is one flat array of slots, one per label, at positions
//! fixed by the label alone ([`EigTree`]). Labels are stored level by level
//! (the root, then every label of one pid, then of two, …), and within a
//! level in lexicographic order. Level `L` holds the `n!/(n − L)!` strings
//! of `L` distinct pids, so a tree through level `L` has
//! `Σ_{k=0..=L} n!/(n − k)!` slots: 41 at `n = 4, L = 3`. The rank of a
//! child is `rank(σ·j) = rank(σ)·(n − L) + d`, where `σ` has length `L` and
//! `d` is `j`'s position among the pids not in `σ`. The array grows by one
//! level per round, and a message is the sender's array itself, shared
//! rather than copied.
//!
//! A slot has three states, and all three are part of state identity:
//! *absent* (the label was never written), *silenced* (written with no
//! value, because the reporter was silent) and *reported* (written with a
//! value).
//!
//! # Silenced senders
//!
//! In round `L + 1`, a sender `j` that is heard fills `σ·j` for every
//! level-`L` label `σ` without `j`, copying `j`'s slot for `σ` whatever its
//! state: a report, a silence, or nothing at all. A sender `j` that is
//! silent fills `σ·j` with a silence only under the labels `σ` that the
//! *receiver* holds. From level 1 on, the receiver holds no label ending in
//! its own id (it never reports to itself), and no label it was never sent,
//! so under those labels `σ·j` stays absent: the same crash leaves a label
//! absent at one receiver and silenced at another. Because the absent and
//! silenced slots differ, this splits states that a uniform convention
//! would merge; Corollary 6.3's EIG sweep counts them (8128 states at
//! `n = 4, t = 2`), so the convention is kept as is.

use std::fmt;
use std::sync::Arc;

use layered_core::{Pid, Value};

use crate::traits::SyncProtocol;

/// One label's slot, packed into a word so that hashing and comparing a
/// tree is a pass over plain integers: `0` absent, `1` silenced, `v + 2` a
/// report of `v`.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
struct Slot(u64);

impl Slot {
    const ABSENT: Slot = Slot(0);
    const SILENCED: Slot = Slot(1);

    fn reported(v: Value) -> Slot {
        Slot(u64::from(v.get()) + 2)
    }

    /// `None` if absent, else the report (`None` for a silence).
    fn report(self) -> Option<Option<Value>> {
        match self.0 {
            0 => None,
            1 => Some(None),
            w => Some(Some(Value::new(
                u32::try_from(w - 2).expect("slots hold u32 values"),
            ))),
        }
    }
}

/// The slots of every label shorter than `level`: `Σ_{k<level} n!/(n − k)!`.
fn level_start(n: usize, level: usize) -> usize {
    let (mut start, mut width) = (0, 1);
    for k in 0..level {
        start += width;
        width *= n.saturating_sub(k);
    }
    start
}

/// `j`'s position among the pids not in `label`.
fn digit(label: &[Pid], j: Pid) -> usize {
    j.index() - label.iter().filter(|p| **p < j).count()
}

/// Calls `f(label, rank)` on every label of at most `depth` distinct pids
/// below `n`, in lexicographic order, with the label's rank in its level.
fn visit(n: usize, depth: usize, f: &mut impl FnMut(&[Pid], usize)) {
    fn go(
        n: usize,
        depth: usize,
        label: &mut Vec<Pid>,
        rank: usize,
        f: &mut impl FnMut(&[Pid], usize),
    ) {
        f(label, rank);
        if label.len() == depth {
            return;
        }
        let fan = n - label.len();
        let mut d = 0;
        for j in Pid::all(n) {
            if label.contains(&j) {
                continue;
            }
            label.push(j);
            go(n, depth, label, rank * fan + d, f);
            label.pop();
            d += 1;
        }
    }
    go(n, depth, &mut Vec::with_capacity(depth), 0, f);
}

/// One process's EIG tree for an `n`-process system: a flat array with one
/// slot per label, stored level by level and, within a level, in
/// lexicographic label order. Level `L` holds `n!/(n − L)!` slots, so a
/// tree through level `L` holds `Σ_{k≤L} n!/(n − k)!`. Each slot is absent,
/// silenced or reported. Cloning shares the array.
///
/// Its `Debug` form maps every present label to its report.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct EigTree {
    n: usize,
    slots: Arc<[Slot]>,
}

impl EigTree {
    /// The levels the array holds, below the root.
    fn depth(&self) -> usize {
        (0..)
            .find(|&level| level_start(self.n, level + 1) >= self.slots.len())
            .expect("the array ends at a level boundary")
    }

    /// The slot at `label`, decoded; `None` also for a label that is not
    /// a string of distinct pids below `n`.
    fn report(&self, label: &[Pid]) -> Option<Option<Value>> {
        let mut rank = 0;
        for (k, &j) in label.iter().enumerate() {
            let prefix = &label[..k];
            if j.index() >= self.n || prefix.contains(&j) {
                return None;
            }
            rank = rank * (self.n - k) + digit(prefix, j);
        }
        self.slots
            .get(level_start(self.n, label.len()) + rank)?
            .report()
    }

    /// Every present label with its report, in label order.
    fn reports(&self) -> impl Iterator<Item = (Vec<Pid>, Option<Value>)> {
        let mut out = Vec::new();
        visit(self.n, self.depth(), &mut |label, rank| {
            if let Some(v) = self.slots[level_start(self.n, label.len()) + rank].report() {
                out.push((label.to_vec(), v));
            }
        });
        out.into_iter()
    }
}

impl fmt::Debug for EigTree {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.reports()).finish()
    }
}

/// Local state of [`Eig`].
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct EigState {
    /// The gathered tree.
    pub tree: EigTree,
    /// Completed rounds.
    pub completed: u16,
    /// The process's own id (labels ending in `me` are never written).
    pub me: Pid,
}

impl EigState {
    /// The report at `label`: `None` if the label is absent, `Some(None)`
    /// if it is silenced, `Some(Some(v))` if it holds `v`.
    #[must_use]
    pub fn report(&self, label: &[Pid]) -> Option<Option<Value>> {
        self.tree.report(label)
    }

    /// Every label present in the tree with its report, in label order.
    pub fn reports(&self) -> impl Iterator<Item = (Vec<Pid>, Option<Value>)> {
        self.tree.reports()
    }

    /// The minimum value present anywhere in the tree.
    #[must_use]
    pub fn min_value(&self) -> Value {
        self.tree
            .slots
            .iter()
            .filter_map(|s| s.report().flatten())
            .min()
            .expect("the root always holds the own input")
    }
}

/// EIG consensus with a decision deadline of `rounds` rounds.
///
/// `Eig::new(t + 1)` solves t-resilient consensus in the synchronous
/// model; `Eig::new(t)` is refuted by the checker, like truncated FloodMin.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Eig {
    rounds: u16,
}

impl Eig {
    /// An EIG protocol deciding after exactly `rounds` rounds.
    ///
    /// # Panics
    ///
    /// Panics if `rounds == 0`.
    #[must_use]
    pub fn new(rounds: u16) -> Self {
        assert!(rounds > 0, "EIG needs at least one round");
        Eig { rounds }
    }

    /// The decision deadline in rounds.
    #[must_use]
    pub fn rounds(&self) -> u16 {
        self.rounds
    }
}

impl SyncProtocol for Eig {
    type LocalState = EigState;
    /// Each round a process sends its whole tree; the receiver reads the
    /// sender's newest level.
    type Msg = EigTree;

    fn init(&self, n: usize, me: Pid, input: Value) -> EigState {
        EigState {
            tree: EigTree {
                n,
                slots: Arc::new([Slot::reported(input)]),
            },
            completed: 0,
            me,
        }
    }

    fn message(&self, ls: &EigState, _to: Pid) -> Self::Msg {
        ls.tree.clone()
    }

    fn transition(&self, mut ls: EigState, me: Pid, received: &[Option<Self::Msg>]) -> EigState {
        let n = ls.tree.n;
        let level = usize::from(ls.completed);
        let frontier = level_start(n, level);
        let children = level_start(n, level + 1);
        let fan = n.saturating_sub(level);
        let own = &ls.tree.slots;
        let mut slots = own.to_vec();
        slots.resize(level_start(n, level + 2), Slot::ABSENT);
        visit(n, level, &mut |label, rank| {
            if label.len() < level {
                return;
            }
            for (from, msg) in received.iter().enumerate() {
                let from = Pid::new(from);
                if from == me || label.contains(&from) {
                    continue;
                }
                let slot = match msg {
                    // A tree of another round carries no level-`level` labels.
                    Some(tree) if tree.slots.len() != own.len() => continue,
                    Some(tree) => tree.slots[frontier + rank],
                    // Silence is recorded only under labels the receiver holds.
                    None if own[frontier + rank] == Slot::ABSENT => continue,
                    None => Slot::SILENCED,
                };
                slots[children + rank * fan + digit(label, from)] = slot;
            }
        });
        ls.tree.slots = slots.into();
        ls.completed += 1;
        ls
    }

    fn decide(&self, ls: &EigState) -> Option<Value> {
        (ls.completed >= self.rounds).then(|| ls.min_value())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn msg_of(ls: &EigState, p: &Eig) -> EigTree {
        p.message(ls, Pid::new(0))
    }

    /// One round of `n` processes in which `to` hears `from` iff
    /// `heard(from, to)` (a process always hears itself).
    fn round(p: &Eig, states: &[EigState], heard: impl Fn(usize, usize) -> bool) -> Vec<EigState> {
        (0..states.len())
            .map(|to| {
                let msgs: Vec<_> = (0..states.len())
                    .map(|from| (from == to || heard(from, to)).then(|| msg_of(&states[from], p)))
                    .collect();
                p.transition(states[to].clone(), Pid::new(to), &msgs)
            })
            .collect()
    }

    fn pids(ids: &[usize]) -> Vec<Pid> {
        ids.iter().copied().map(Pid::new).collect()
    }

    #[test]
    fn tree_grows_one_level_per_round() {
        let p = Eig::new(2);
        let n = 3;
        let states: Vec<EigState> = (0..n)
            .map(|i| p.init(n, Pid::new(i), Value::new(i as u32)))
            .collect();
        let msgs: Vec<_> = states.iter().map(|ls| Some(msg_of(ls, &p))).collect();
        let ls = p.transition(states[0].clone(), Pid::new(0), &msgs);
        // Level 1: one node per other process.
        assert_eq!(
            ls.reports().filter(|(l, _)| l.len() == 1).count(),
            2,
            "own report is not duplicated as a child"
        );
        assert_eq!(ls.report(&pids(&[1])), Some(Some(Value::new(1))));
        assert_eq!(ls.report(&pids(&[2])), Some(Some(Value::new(2))));
    }

    #[test]
    fn silence_recorded_as_none() {
        let p = Eig::new(1);
        let n = 3;
        let ls = p.init(n, Pid::new(0), Value::ONE);
        let other = p.init(n, Pid::new(2), Value::ZERO);
        let msgs = vec![Some(msg_of(&ls, &p)), None, Some(msg_of(&other, &p))];
        let ls = p.transition(ls, Pid::new(0), &msgs);
        assert_eq!(ls.report(&pids(&[1])), Some(None));
        assert_eq!(p.decide(&ls), Some(Value::ZERO));
    }

    #[test]
    fn labels_never_repeat_processes() {
        let p = Eig::new(2);
        let n = 3;
        let mut states: Vec<EigState> = (0..n)
            .map(|i| p.init(n, Pid::new(i), Value::new(i as u32)))
            .collect();
        for _ in 0..2 {
            states = round(&p, &states, |_, _| true);
        }
        for ls in &states {
            for (label, _) in ls.reports() {
                let mut sorted = label.clone();
                sorted.sort();
                sorted.dedup();
                assert_eq!(sorted.len(), label.len(), "distinct pids per label");
                assert!(label.len() <= 2);
            }
        }
    }

    #[test]
    fn decides_min_at_deadline() {
        let p = Eig::new(1);
        let n = 3;
        let states: Vec<EigState> = (0..n)
            .map(|i| p.init(n, Pid::new(i), Value::new(2 - i as u32)))
            .collect();
        let msgs: Vec<_> = states.iter().map(|ls| Some(msg_of(ls, &p))).collect();
        let ls = p.transition(states[0].clone(), Pid::new(0), &msgs);
        assert_eq!(p.decide(&ls), Some(Value::ZERO));
    }

    /// A silent sender `j` leaves `σ·j` absent under the labels `σ` the
    /// receiver does not hold — those ending in its own id — and silenced
    /// under the rest; a heard `j` fills `σ·j` from its own slot for `σ`.
    #[test]
    fn silent_sender_leaves_labels_under_own_reports_absent() {
        let p = Eig::new(2);
        let n = 3;
        let init: Vec<EigState> = (0..n)
            .map(|i| p.init(n, Pid::new(i), Value::new(i as u32)))
            .collect();
        let first = round(&p, &init, |_, _| true);

        // p2 silent towards p0 in round 2.
        let silent = round(&p, &first, |from, to| !(from == 2 && to == 0));
        assert_eq!(silent[0].report(&pids(&[0])), None, "no own label");
        assert_eq!(silent[0].report(&pids(&[0, 2])), None, "stays absent");
        assert_eq!(silent[0].report(&pids(&[1, 2])), Some(None), "silenced");

        // p2 heard: it forwards its record of p0's report.
        let heard = round(&p, &first, |_, _| true);
        assert_eq!(heard[0].report(&pids(&[0, 2])), Some(Some(Value::ZERO)));

        // p2 heard, but it missed p0 in round 1: it forwards the silence.
        let missed = round(&p, &init, |from, to| !(from == 0 && to == 2));
        let heard = round(&p, &missed, |_, _| true);
        assert_eq!(heard[0].report(&pids(&[0, 2])), Some(None));

        assert_ne!(silent[0], heard[0], "absent and silenced slots differ");
    }

    /// The slot count is `Σ_{k≤L} n!/(n − k)!`, and every slot the walk
    /// visits is the one `report` looks up.
    #[test]
    fn layout_matches_label_lookup() {
        for (n, rounds) in [(3, 3), (4, 3), (5, 2)] {
            let p = Eig::new(rounds);
            let mut states: Vec<EigState> = (0..n)
                .map(|i| p.init(n, Pid::new(i), Value::new(i as u32)))
                .collect();
            for _ in 0..rounds {
                // Everyone misses p1 every round.
                states = round(&p, &states, |from, _| from != 1);
            }
            let mut want = 0;
            let mut width = 1;
            for k in 0..=usize::from(rounds) {
                want += width;
                width *= n - k;
            }
            for ls in &states {
                assert_eq!(ls.tree.slots.len(), want, "n={n} depth {rounds}");
                let mut visited = 0;
                visit(n, usize::from(rounds), &mut |label, rank| {
                    let slot = ls.tree.slots[level_start(n, label.len()) + rank];
                    assert_eq!(ls.report(label), slot.report(), "n={n} {label:?}");
                    visited += 1;
                });
                assert_eq!(visited, want, "every slot has one label");
            }
        }
    }
}
