//! Differential test of `EarlyFloodMin`'s local-state representation
//! against a reference that keeps its sets in `BTreeSet`s.
//!
//! The module `reference` below is the `BTreeSet`-based `EarlyFloodMin`:
//! its known values a `BTreeSet<Value>`, its previous-round sender record
//! an `Option<BTreeSet<Pid>>` and its message a `BTreeMap` holding the
//! known set under a dummy key, kept as it was apart from its visibility
//! and one addition: it reports the packed local codec spelled out in
//! `reference::local_packer` (a 4-bit value mask, a presence bit and an
//! 8-bit pid mask for the sender record, a stopped bit and a 4-bit round
//! counter, low bits first). Its local state is named `EarlyState` like
//! the library's, so the derived `Debug` of a whole model state prints the
//! same line for both.
//!
//! Both protocols run in lockstep under `CrashModel` (both layerings) at
//! `(n, t)` in `{(3, 1), (4, 1), (4, 2)}` and under `MobileModel` (`S1` and
//! `Full`) at `n = 3`. At every reached state the library's state, with
//! each set mapped to a `BTreeSet`, must equal the reference state; its
//! FxHash and `Debug` line must equal the reference's; each successor list
//! must agree in order; and where both models pack, their words must
//! agree. The consensus checker must visit the same number of states,
//! reach the same verdict and print the same violations for both.
//!
//! A property test then checks the reference codec on its own: in-lane
//! states round-trip, and values of 4 or more, round counters of 16 or
//! more and pids of 8 or more are refused. Where the library reports a
//! codec, its words must equal the reference's.

use std::collections::hash_map::Entry;
use std::collections::{BTreeSet, HashMap};
use std::fmt::Debug;
use std::hash::Hash;

use layered_consensus::core::space::fx_hash;
use layered_consensus::core::telemetry::NOOP;
use layered_consensus::core::{check_consensus, LayeredModel, Pid, Value};
use layered_consensus::protocols::{EarlyFloodMin, EarlyState, SyncProtocol};
use layered_consensus::sync_crash::{CrashLayering, CrashModel, CrashState};
use layered_consensus::sync_mobile::{MobileLayering, MobileModel, MobileState};
use proptest::prelude::*;

/// The `BTreeSet`-based `EarlyFloodMin`.
mod reference {
    use std::collections::{BTreeMap, BTreeSet};

    use layered_consensus::core::{FieldPacker, Pid, Value};
    use layered_consensus::protocols::SyncProtocol;

    /// Values below this pack into the 4-bit value mask.
    pub const VALUE_BITS: u32 = 4;
    /// Pids below this pack into the 8-bit sender mask.
    pub const PID_BITS: u32 = 8;
    /// Round counters below `1 << ROUND_BITS` pack.
    pub const ROUND_BITS: u32 = 4;
    /// The codec's width.
    pub const LOCAL_BITS: u32 = VALUE_BITS + 1 + PID_BITS + 1 + ROUND_BITS;

    /// The mask of `items` under `index`, if every index is below `width`.
    fn mask<T>(items: &BTreeSet<T>, width: u32, index: impl Fn(&T) -> u32) -> Option<u64> {
        items.iter().try_fold(0u64, |m, x| {
            let i = index(x);
            (i < width).then(|| m | 1 << i)
        })
    }

    /// The set bits of the low `width` bits of `m`, mapped by `item`.
    fn members<T: Ord>(m: u64, width: u32, item: impl Fn(u32) -> T) -> BTreeSet<T> {
        (0..width).filter(|b| m >> b & 1 == 1).map(item).collect()
    }

    /// The packed local codec, low bits first: value mask, sender-record
    /// presence bit, sender mask, stopped bit, round counter.
    pub fn local_packer() -> FieldPacker<EarlyState> {
        let heard_at = VALUE_BITS + 1;
        let stopped_at = heard_at + PID_BITS;
        let round_at = stopped_at + 1;
        FieldPacker::new(
            LOCAL_BITS,
            move |ls: &EarlyState| {
                if ls.completed >= 1 << ROUND_BITS {
                    return None;
                }
                let mut w = mask(&ls.known, VALUE_BITS, |v| v.get())?;
                if let Some(heard) = &ls.prev_heard {
                    w |= 1 << VALUE_BITS;
                    w |= mask(heard, PID_BITS, |p| p.index() as u32)? << heard_at;
                }
                w |= u64::from(ls.stopped) << stopped_at;
                Some(w | u64::from(ls.completed) << round_at)
            },
            move |w| EarlyState {
                known: members(w, VALUE_BITS, Value::new),
                prev_heard: (w >> VALUE_BITS & 1 == 1)
                    .then(|| members(w >> heard_at, PID_BITS, |i| Pid::new(i as usize))),
                stopped: w >> stopped_at & 1 == 1,
                completed: (w >> round_at & ((1 << ROUND_BITS) - 1)) as u16,
            },
        )
    }

    #[derive(Clone, PartialEq, Eq, Hash, Debug)]
    pub struct EarlyState {
        pub known: BTreeSet<Value>,
        pub prev_heard: Option<BTreeSet<Pid>>,
        pub stopped: bool,
        pub completed: u16,
    }

    #[derive(Clone, Copy, PartialEq, Eq, Debug)]
    pub struct EarlyFloodMin {
        pub deadline: u16,
    }

    impl SyncProtocol for EarlyFloodMin {
        type LocalState = EarlyState;
        type Msg = BTreeMap<Pid, BTreeSet<Value>>;

        fn init(&self, _n: usize, me: Pid, input: Value) -> EarlyState {
            let _ = me;
            EarlyState {
                known: BTreeSet::from([input]),
                prev_heard: None,
                stopped: false,
                completed: 0,
            }
        }

        fn message(&self, ls: &EarlyState, _to: Pid) -> Self::Msg {
            BTreeMap::from([(Pid::new(0), ls.known.clone())])
        }

        fn transition(
            &self,
            mut ls: EarlyState,
            me: Pid,
            received: &[Option<Self::Msg>],
        ) -> EarlyState {
            let mut heard = BTreeSet::new();
            for (from, msg) in received.iter().enumerate() {
                if let Some(m) = msg {
                    if Pid::new(from) != me {
                        heard.insert(Pid::new(from));
                    }
                    for set in m.values() {
                        ls.known.extend(set.iter().copied());
                    }
                }
            }
            if !ls.stopped {
                if let Some(prev) = &ls.prev_heard {
                    if *prev == heard {
                        ls.stopped = true;
                    }
                }
            }
            ls.prev_heard = Some(heard);
            ls.completed += 1;
            ls
        }

        fn decide(&self, ls: &EarlyState) -> Option<Value> {
            (ls.stopped || ls.completed >= self.deadline)
                .then(|| *ls.known.iter().next().expect("known is non-empty"))
        }

        fn local_packer(&self) -> Option<FieldPacker<EarlyState>> {
            Some(local_packer())
        }
    }
}

fn ref_local(ls: &EarlyState) -> reference::EarlyState {
    let mut known = BTreeSet::new();
    known.extend(ls.known.iter());
    let prev_heard = ls.prev_heard.as_ref().map(|heard| {
        let mut out = BTreeSet::new();
        out.extend(heard.iter());
        out
    });
    reference::EarlyState {
        known,
        prev_heard,
        stopped: ls.stopped,
        completed: ls.completed,
    }
}

fn lib_local(r: &reference::EarlyState) -> EarlyState {
    EarlyState {
        known: r.known.iter().copied().collect(),
        prev_heard: r
            .prev_heard
            .as_ref()
            .map(|heard| heard.iter().copied().collect()),
        stopped: r.stopped,
        completed: r.completed,
    }
}

fn ref_locals(locals: &[EarlyState]) -> Vec<reference::EarlyState> {
    locals.iter().map(ref_local).collect()
}

fn ref_mobile(x: &MobileState<EarlyState>) -> MobileState<reference::EarlyState> {
    MobileState {
        round: x.round,
        inputs: x.inputs.clone(),
        locals: ref_locals(&x.locals),
        decided: x.decided.clone(),
    }
}

fn ref_crash(x: &CrashState<EarlyState>) -> CrashState<reference::EarlyState> {
    CrashState {
        round: x.round,
        inputs: x.inputs.clone(),
        locals: ref_locals(&x.locals),
        decided: x.decided.clone(),
        failed: x.failed.clone(),
    }
}

/// Asserts that the library state `x` and the reference state `r` are the
/// same global state, hash the same and print the same.
fn assert_same<S: Debug + Hash, R: Debug + Eq + Hash>(
    x: &S,
    r: &R,
    map: &impl Fn(&S) -> R,
    ctx: &str,
) {
    assert_eq!(&map(x), r, "{ctx}: state");
    assert_eq!(fx_hash(x), fx_hash(r), "{ctx}: fx_hash of {r:?}");
    assert_eq!(format!("{x:?}"), format!("{r:?}"), "{ctx}: Debug");
}

/// Where both models pack, `x` and `r` must pack to the same word, and the
/// word must decode back to each.
fn assert_same_word<M: LayeredModel, R: LayeredModel>(
    m: &M,
    r: &R,
    x: &M::State,
    rx: &R::State,
    ctx: &str,
) {
    let (Some(packer), Some(ref_packer)) = (m.state_packer(), r.state_packer()) else {
        return;
    };
    let word = packer.pack(x);
    assert_eq!(word, ref_packer.pack(rx), "{ctx}: packed word of {rx:?}");
    if let Some(w) = word {
        assert_eq!(&packer.unpack(w), x, "{ctx}: unpacked {w:#x}");
        assert_eq!(
            &ref_packer.unpack(w),
            rx,
            "{ctx}: reference unpacked {w:#x}"
        );
    }
}

/// Walks both models breadth-first in lockstep for `depth` layers,
/// comparing every pair of states, their packed words and their successor
/// lists; returns the number of distinct states compared.
fn walk_lockstep<M, R>(
    m: &M,
    r: &R,
    map: impl Fn(&M::State) -> R::State,
    depth: usize,
    ctx: &str,
) -> usize
where
    M: LayeredModel,
    R: LayeredModel,
    M::State: Debug + Hash,
    R::State: Debug + Eq + Hash,
{
    let roots = r.initial_states();
    assert_eq!(m.initial_states().len(), roots.len(), "{ctx}: roots");
    let mut frontier: Vec<(M::State, R::State)> =
        m.initial_states().into_iter().zip(roots).collect();
    let mut seen: HashMap<M::State, R::State> = HashMap::new();
    for d in 0..=depth {
        let mut next = Vec::new();
        for (x, rx) in frontier {
            match seen.entry(x) {
                Entry::Occupied(e) => assert_eq!(e.get(), &rx, "{ctx}: twin of {:?}", e.key()),
                Entry::Vacant(e) => {
                    let x = e.key();
                    assert_same(x, &rx, &map, ctx);
                    assert_same_word(m, r, x, &rx, ctx);
                    if d < depth {
                        let succ = m.successors(x);
                        let ref_succ = r.successors(&rx);
                        assert_eq!(succ.len(), ref_succ.len(), "{ctx}: layer size at {rx:?}");
                        for (y, ry) in succ.iter().zip(&ref_succ) {
                            assert_eq!(&map(y), ry, "{ctx}: successor order at {rx:?}");
                        }
                        next.extend(succ.into_iter().zip(ref_succ));
                    }
                    e.insert(rx);
                }
            }
        }
        frontier = next;
    }
    seen.len()
}

/// The consensus checker's sweep to `horizon` must agree on both models:
/// states explored, verdict, and every violation as printed.
fn checker_agrees<M: LayeredModel, R: LayeredModel>(m: &M, r: &R, horizon: usize, ctx: &str) {
    let report = check_consensus(m, horizon, 8, &NOOP);
    let ref_report = check_consensus(r, horizon, 8, &NOOP);
    assert_eq!(
        report.states_explored, ref_report.states_explored,
        "{ctx}: states explored"
    );
    assert_eq!(report.passed(), ref_report.passed(), "{ctx}: verdict");
    assert_eq!(
        format!("{:?}", report.violations),
        format!("{:?}", ref_report.violations),
        "{ctx}: violations"
    );
}

/// Both comparisons for one pair of models walked to `depth` layers.
fn compare<M, R>(m: &M, r: &R, map: impl Fn(&M::State) -> R::State, depth: usize, ctx: &str)
where
    M: LayeredModel,
    R: LayeredModel,
    M::State: Debug + Hash,
    R::State: Debug + Eq + Hash,
{
    let compared = walk_lockstep(m, r, map, depth, ctx);
    assert!(
        compared > m.initial_states().len(),
        "{ctx}: walked past the roots"
    );
    checker_agrees(m, r, depth, ctx);
}

fn crash(n: usize, t: usize) {
    let deadline = u16::try_from(t + 1).expect("small t");
    for layering in [CrashLayering::Prefix, CrashLayering::Full] {
        compare(
            &CrashModel::new(n, t, EarlyFloodMin::new(deadline)).with_layering(layering),
            &CrashModel::new(n, t, reference::EarlyFloodMin { deadline }).with_layering(layering),
            ref_crash,
            t + 1,
            &format!("crash n={n} t={t} EarlyFloodMin({deadline}) {layering:?}"),
        );
    }
}

fn mobile(n: usize, deadline: u16, depth: usize) {
    for layering in [MobileLayering::S1, MobileLayering::Full] {
        compare(
            &MobileModel::new(n, EarlyFloodMin::new(deadline)).with_layering(layering),
            &MobileModel::new(n, reference::EarlyFloodMin { deadline }).with_layering(layering),
            ref_mobile,
            depth,
            &format!("mobile n={n} EarlyFloodMin({deadline}) {layering:?}"),
        );
    }
}

#[test]
fn crash_n3_matches_btreeset_reference() {
    crash(3, 1);
}

#[test]
fn crash_n4_t1_matches_btreeset_reference() {
    crash(4, 1);
}

#[test]
fn crash_n4_t2_matches_btreeset_reference() {
    crash(4, 2);
}

#[test]
fn mobile_matches_btreeset_reference() {
    for deadline in 1..=3 {
        mobile(3, deadline, usize::from(deadline));
    }
}

/// A reference local state drawn to straddle every lane edge: values in
/// `0..6`, pids in `0..10`, round counters in `0..20`.
fn arb_state() -> impl Strategy<Value = reference::EarlyState> {
    // Bit 10 of the second draw is the sender record's presence bit.
    (1u32..1 << 6, 0u32..1 << 11, 0u32..2, 0u16..20).prop_map(
        |(known, heard, stopped, completed)| reference::EarlyState {
            known: (0..6)
                .filter(|b| known >> b & 1 == 1)
                .map(Value::new)
                .collect(),
            prev_heard: (heard >> 10 == 1).then(|| {
                (0..10)
                    .filter(|b| heard >> b & 1 == 1)
                    .map(Pid::new)
                    .collect()
            }),
            stopped: stopped == 1,
            completed,
        },
    )
}

/// Whether `ls` lies inside every lane of the codec.
fn in_lanes(ls: &reference::EarlyState) -> bool {
    ls.known.iter().all(|v| v.get() < reference::VALUE_BITS)
        && ls
            .prev_heard
            .iter()
            .flatten()
            .all(|p| (p.index() as u32) < reference::PID_BITS)
        && ls.completed < 1 << reference::ROUND_BITS
}

proptest! {
    /// The reference codec round-trips in-lane states and refuses the
    /// rest; the library's codec, where it has one, packs every state to
    /// the same word and decodes it back.
    #[test]
    fn local_codec_round_trips_and_rejects_out_of_lane(states in proptest::collection::vec(arb_state(), 16)) {
        let codec = reference::local_packer();
        let lib = EarlyFloodMin::new(2).local_packer();
        if let Some(lib) = &lib {
            prop_assert_eq!(lib.bits(), reference::LOCAL_BITS);
        }
        for rs in &states {
            let word = codec.pack(rs);
            prop_assert_eq!(word.is_some(), in_lanes(rs), "{:?}", rs);
            if let Some(w) = word {
                prop_assert_eq!(&codec.unpack(w), rs);
            }
            let ls = lib_local(rs);
            prop_assert_eq!(&ref_local(&ls), rs);
            prop_assert_eq!(fx_hash(&ls), fx_hash(rs));
            prop_assert_eq!(format!("{:?}", ls), format!("{:?}", rs));
            if let Some(lib) = &lib {
                prop_assert_eq!(lib.pack(&ls), word, "{:?}", rs);
                if let Some(w) = word {
                    prop_assert_eq!(lib.unpack(w), ls);
                }
            }
        }
    }
}

/// The sender record's presence bit tells "no round yet" from "heard
/// nobody", and the pid-mask lane edge sits at pid 8.
#[test]
fn local_codec_lane_edges() {
    let codec = reference::local_packer();
    let state = |heard: Option<Vec<usize>>, completed| reference::EarlyState {
        known: BTreeSet::from([Value::ZERO, Value::new(3)]),
        prev_heard: heard.map(|h| h.into_iter().map(Pid::new).collect()),
        stopped: true,
        completed,
    };
    let none = codec.pack(&state(None, 15)).expect("in lanes");
    let empty = codec.pack(&state(Some(vec![]), 15)).expect("in lanes");
    assert_ne!(none, empty);
    assert!(codec.pack(&state(Some(vec![7]), 0)).is_some());
    assert_eq!(codec.pack(&state(Some(vec![8]), 0)), None);
    assert_eq!(codec.pack(&state(None, 16)), None);
    let mut wide = state(None, 0);
    wide.known.insert(Value::new(4));
    assert_eq!(codec.pack(&wide), None);
    if let Some(lib) = EarlyFloodMin::new(2).local_packer() {
        for rs in [
            state(None, 15),
            state(Some(vec![]), 15),
            state(Some(vec![7]), 0),
        ] {
            assert_eq!(lib.pack(&lib_local(&rs)), codec.pack(&rs), "{rs:?}");
        }
        assert_eq!(lib.pack(&lib_local(&state(Some(vec![8]), 0))), None);
        assert_eq!(lib.pack(&lib_local(&state(None, 16))), None);
        assert_eq!(lib.pack(&lib_local(&wide)), None);
    }
}
