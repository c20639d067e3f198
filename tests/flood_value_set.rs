//! Differential test of FloodMin's value-set representation against a
//! reference that keeps each set in a `BTreeSet<Value>`.
//!
//! The module `reference` below is the `BTreeSet`-based FloodMin family
//! (`FloodMin`, `SmFloodMin`, `MpFloodMin`, their packers and their local
//! state), kept as it was apart from its visibility. Its local state is
//! named `FloodState` like the library's, so the derived `Debug` of a whole
//! model state prints the same line for both.
//!
//! Both families run in lockstep under `MobileModel` (`S1` and `Full`),
//! `CrashModel` (both layerings), `SmModel` (both layerings) and `MpModel`.
//! At every reached state the library's state, with each value set mapped
//! to a `BTreeSet`, must equal the reference state; its FxHash and `Debug`
//! line must equal the reference's; each successor list must agree in
//! order, and sort into the same order under `Ord`; and both canonical
//! representatives (the model's own rule and the minimum over the orbit)
//! must agree. The consensus checker must visit the same number of states,
//! reach the same verdict and print the same violations for both.
//!
//! A property test then checks the set type on its own over random subsets
//! of `0..64`: order, FxHash, `Debug`, snapshot bytes and the packed codecs
//! must all equal those of the same `BTreeSet<Value>`.

use std::collections::hash_map::Entry;
use std::collections::{BTreeSet, HashMap};
use std::fmt::Debug;

use layered_consensus::async_mp::{MpModel, MpState};
use layered_consensus::async_sm::{SmLayering, SmModel, SmState};
use layered_consensus::core::space::fx_hash;
use layered_consensus::core::telemetry::NOOP;
use layered_consensus::core::{canonicalize_by_min, check_consensus, Symmetric, Value};
use layered_consensus::core::{SnapshotReader, SnapshotState};
use layered_consensus::protocols::{
    FloodMin, FloodState, MpFloodMin, MpProtocol, SmFloodMin, SmProtocol, SyncProtocol, ValueSet,
};
use layered_consensus::sync_crash::{CrashLayering, CrashModel, CrashState};
use layered_consensus::sync_mobile::{MobileLayering, MobileModel, MobileState};
use proptest::prelude::*;

/// The `BTreeSet`-based FloodMin family.
mod reference {
    use std::collections::BTreeSet;

    use layered_consensus::core::{
        FieldPacker, Pid, SnapshotError, SnapshotReader, SnapshotState, Value,
    };
    use layered_consensus::protocols::{Anonymous, MpProtocol, SmProtocol, SyncProtocol};

    const MASK_BITS: u32 = 4;

    fn flood_local_packer() -> FieldPacker<FloodState> {
        FieldPacker::new(
            2 * MASK_BITS,
            |ls: &FloodState| {
                if ls.completed >= 1 << MASK_BITS {
                    return None;
                }
                Some(pack_value_set(&ls.known)? | (u64::from(ls.completed) << MASK_BITS))
            },
            |w| FloodState {
                known: unpack_value_set(w & ((1 << MASK_BITS) - 1)),
                completed: ((w >> MASK_BITS) & ((1 << MASK_BITS) - 1)) as u16,
            },
        )
    }

    fn flood_set_packer() -> FieldPacker<BTreeSet<Value>> {
        FieldPacker::new(MASK_BITS, pack_value_set, unpack_value_set)
    }

    fn pack_value_set(s: &BTreeSet<Value>) -> Option<u64> {
        let mut mask = 0u64;
        for v in s {
            if v.get() >= MASK_BITS {
                return None;
            }
            mask |= 1 << v.get();
        }
        Some(mask)
    }

    fn unpack_value_set(mask: u64) -> BTreeSet<Value> {
        (0..MASK_BITS)
            .filter(|b| mask & (1 << b) != 0)
            .map(Value::new)
            .collect()
    }

    #[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
    pub struct FloodState {
        pub known: BTreeSet<Value>,
        pub completed: u16,
    }

    impl FloodState {
        fn new(input: Value) -> Self {
            FloodState {
                known: BTreeSet::from([input]),
                completed: 0,
            }
        }

        fn min_known(&self) -> Value {
            *self
                .known
                .iter()
                .next()
                .expect("known always contains own input")
        }
    }

    impl SnapshotState for FloodState {
        fn encode(&self, out: &mut Vec<u8>) {
            self.known.encode(out);
            self.completed.encode(out);
        }

        fn decode(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
            Ok(FloodState {
                known: BTreeSet::decode(r)?,
                completed: u16::decode(r)?,
            })
        }
    }

    #[derive(Clone, Copy, PartialEq, Eq, Debug)]
    pub struct FloodMin {
        pub rounds: u16,
    }

    impl SyncProtocol for FloodMin {
        type LocalState = FloodState;
        type Msg = BTreeSet<Value>;

        fn init(&self, _n: usize, _me: Pid, input: Value) -> FloodState {
            FloodState::new(input)
        }

        fn message(&self, ls: &FloodState, _to: Pid) -> BTreeSet<Value> {
            ls.known.clone()
        }

        fn transition(
            &self,
            mut ls: FloodState,
            _me: Pid,
            received: &[Option<BTreeSet<Value>>],
        ) -> FloodState {
            for msg in received.iter().flatten() {
                ls.known.extend(msg.iter().copied());
            }
            ls.completed += 1;
            ls
        }

        fn decide(&self, ls: &FloodState) -> Option<Value> {
            (ls.completed >= self.rounds).then(|| ls.min_known())
        }

        fn name(&self) -> String {
            format!("FloodMin(deadline={})", self.rounds)
        }

        fn local_packer(&self) -> Option<FieldPacker<FloodState>> {
            Some(flood_local_packer())
        }
    }

    impl Anonymous for FloodMin {}

    #[derive(Clone, Copy, PartialEq, Eq, Debug)]
    pub struct SmFloodMin {
        pub phases: u16,
    }

    impl SmProtocol for SmFloodMin {
        type LocalState = FloodState;
        type Reg = BTreeSet<Value>;

        fn init(&self, _n: usize, _me: Pid, input: Value) -> FloodState {
            FloodState::new(input)
        }

        fn write_value(&self, ls: &FloodState) -> Option<BTreeSet<Value>> {
            Some(ls.known.clone())
        }

        fn absorb(
            &self,
            mut ls: FloodState,
            _me: Pid,
            regs: &[Option<BTreeSet<Value>>],
        ) -> FloodState {
            for reg in regs.iter().flatten() {
                ls.known.extend(reg.iter().copied());
            }
            ls.completed += 1;
            ls
        }

        fn decide(&self, ls: &FloodState) -> Option<Value> {
            (ls.completed >= self.phases).then(|| ls.min_known())
        }

        fn name(&self) -> String {
            format!("SmFloodMin(deadline={})", self.phases)
        }

        fn local_packer(&self) -> Option<FieldPacker<FloodState>> {
            Some(flood_local_packer())
        }

        fn reg_packer(&self) -> Option<FieldPacker<BTreeSet<Value>>> {
            Some(flood_set_packer())
        }
    }

    impl Anonymous for SmFloodMin {}

    #[derive(Clone, Copy, PartialEq, Eq, Debug)]
    pub struct MpFloodMin {
        pub phases: u16,
    }

    impl MpProtocol for MpFloodMin {
        type LocalState = FloodState;
        type Msg = BTreeSet<Value>;

        fn init(&self, _n: usize, _me: Pid, input: Value) -> FloodState {
            FloodState::new(input)
        }

        fn send(&self, ls: &FloodState, me: Pid, n: usize) -> Vec<(Pid, BTreeSet<Value>)> {
            Pid::all(n)
                .filter(|&p| p != me)
                .map(|p| (p, ls.known.clone()))
                .collect()
        }

        fn absorb(
            &self,
            mut ls: FloodState,
            _me: Pid,
            delivered: &[(Pid, BTreeSet<Value>)],
        ) -> FloodState {
            for (_, msg) in delivered {
                ls.known.extend(msg.iter().copied());
            }
            ls.completed += 1;
            ls
        }

        fn decide(&self, ls: &FloodState) -> Option<Value> {
            (ls.completed >= self.phases).then(|| ls.min_known())
        }

        fn name(&self) -> String {
            format!("MpFloodMin(deadline={})", self.phases)
        }

        fn local_packer(&self) -> Option<FieldPacker<FloodState>> {
            Some(flood_local_packer())
        }

        fn msg_packer(&self) -> Option<FieldPacker<BTreeSet<Value>>> {
            Some(flood_set_packer())
        }
    }

    impl Anonymous for MpFloodMin {}
}

/// `s` as a `BTreeSet`.
fn ref_set(s: &ValueSet) -> BTreeSet<Value> {
    s.iter().collect()
}

fn ref_local(ls: &FloodState) -> reference::FloodState {
    reference::FloodState {
        known: ref_set(&ls.known),
        completed: ls.completed,
    }
}

fn ref_locals(locals: &[FloodState]) -> Vec<reference::FloodState> {
    locals.iter().map(ref_local).collect()
}

fn ref_mobile(x: &MobileState<FloodState>) -> MobileState<reference::FloodState> {
    MobileState {
        round: x.round,
        inputs: x.inputs.clone(),
        locals: ref_locals(&x.locals),
        decided: x.decided.clone(),
    }
}

fn ref_crash(x: &CrashState<FloodState>) -> CrashState<reference::FloodState> {
    CrashState {
        round: x.round,
        inputs: x.inputs.clone(),
        locals: ref_locals(&x.locals),
        decided: x.decided.clone(),
        failed: x.failed.clone(),
    }
}

fn ref_sm(x: &SmState<FloodState, ValueSet>) -> SmState<reference::FloodState, BTreeSet<Value>> {
    SmState {
        phase: x.phase,
        inputs: x.inputs.clone(),
        regs: x.regs.iter().map(|r| r.as_ref().map(ref_set)).collect(),
        locals: ref_locals(&x.locals),
        decided: x.decided.clone(),
        phases_done: x.phases_done.clone(),
    }
}

fn ref_mp(x: &MpState<FloodState, ValueSet>) -> MpState<reference::FloodState, BTreeSet<Value>> {
    MpState {
        round: x.round,
        inputs: x.inputs.clone(),
        locals: ref_locals(&x.locals),
        decided: x.decided.clone(),
        phases_done: x.phases_done.clone(),
        mailboxes: x
            .mailboxes
            .iter()
            .map(|mb| mb.iter().map(|(p, m)| (*p, ref_set(m))).collect())
            .collect(),
    }
}

/// Asserts that the library state `x` and the reference state `r` are the
/// same global state, hash the same and print the same.
fn assert_same<S: Debug + std::hash::Hash, R: Debug + Eq + std::hash::Hash>(
    x: &S,
    r: &R,
    map: &impl Fn(&S) -> R,
    ctx: &str,
) {
    assert_eq!(&map(x), r, "{ctx}: state");
    assert_eq!(fx_hash(x), fx_hash(r), "{ctx}: fx_hash of {r:?}");
    assert_eq!(format!("{x:?}"), format!("{r:?}"), "{ctx}: Debug");
}

/// The permutation that sorts `xs` stably under `Ord`.
fn sort_order<T: Ord>(xs: &[T]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..xs.len()).collect();
    order.sort_by(|&i, &j| xs[i].cmp(&xs[j]));
    order
}

/// Walks both models breadth-first in lockstep for `depth` layers,
/// comparing every pair of states, their canonical representatives and
/// their successor lists; returns the number of distinct states compared.
fn walk_lockstep<M, R>(
    m: &M,
    r: &R,
    map: impl Fn(&M::State) -> R::State,
    depth: usize,
    ctx: &str,
) -> usize
where
    M: Symmetric,
    R: Symmetric,
    M::State: Ord,
    R::State: Ord,
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
                    let (rep, pi) = m.canonicalize(x);
                    let (ref_rep, ref_pi) = r.canonicalize(&rx);
                    assert_same(&rep, &ref_rep, &map, &format!("{ctx}: canonical rep"));
                    assert_eq!(pi, ref_pi, "{ctx}: canonicalizing permutation");
                    let (rep, pi) = canonicalize_by_min(m, x);
                    let (ref_rep, ref_pi) = canonicalize_by_min(r, &rx);
                    assert_same(&rep, &ref_rep, &map, &format!("{ctx}: orbit minimum"));
                    assert_eq!(pi, ref_pi, "{ctx}: orbit-minimum permutation");
                    if d < depth {
                        let succ = m.successors(x);
                        let ref_succ = r.successors(&rx);
                        assert_eq!(succ.len(), ref_succ.len(), "{ctx}: layer size at {rx:?}");
                        assert_eq!(
                            sort_order(&succ),
                            sort_order(&ref_succ),
                            "{ctx}: successor order at {rx:?}"
                        );
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
fn checker_agrees<M: Symmetric, R: Symmetric>(m: &M, r: &R, horizon: usize, ctx: &str) {
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
    M: Symmetric,
    R: Symmetric,
    M::State: Ord,
    R::State: Ord,
{
    let compared = walk_lockstep(m, r, map, depth, ctx);
    assert!(
        compared > m.initial_states().len(),
        "{ctx}: walked past the roots"
    );
    checker_agrees(m, r, depth, ctx);
}

fn mobile(n: usize, rounds: u16, depth: usize) {
    for layering in [MobileLayering::S1, MobileLayering::Full] {
        compare(
            &MobileModel::new(n, FloodMin::new(rounds)).with_layering(layering),
            &MobileModel::new(n, reference::FloodMin { rounds }).with_layering(layering),
            ref_mobile,
            depth,
            &format!("mobile n={n} FloodMin({rounds}) {layering:?}"),
        );
    }
}

fn crash(n: usize, t: usize, rounds: u16) {
    for layering in [CrashLayering::Prefix, CrashLayering::Full] {
        compare(
            &CrashModel::new(n, t, FloodMin::new(rounds)).with_layering(layering),
            &CrashModel::new(n, t, reference::FloodMin { rounds }).with_layering(layering),
            ref_crash,
            t + 1,
            &format!("crash n={n} t={t} FloodMin({rounds}) {layering:?}"),
        );
    }
}

fn shared_memory(n: usize, phases: u16, depth: usize) {
    for layering in [SmLayering::Synchronic, SmLayering::FullSplit] {
        compare(
            &SmModel::new(n, SmFloodMin::new(phases)).with_layering(layering),
            &SmModel::new(n, reference::SmFloodMin { phases }).with_layering(layering),
            ref_sm,
            depth,
            &format!("sm n={n} SmFloodMin({phases}) {layering:?}"),
        );
    }
}

fn message_passing(n: usize, phases: u16, depth: usize) {
    compare(
        &MpModel::new(n, MpFloodMin::new(phases)),
        &MpModel::new(n, reference::MpFloodMin { phases }),
        ref_mp,
        depth,
        &format!("mp n={n} MpFloodMin({phases})"),
    );
}

#[test]
fn mobile_matches_btreeset_reference() {
    for n in [2, 3] {
        for rounds in 1..=3 {
            mobile(n, rounds, usize::from(rounds));
        }
    }
}

#[test]
fn mobile_n4_matches_btreeset_reference() {
    for rounds in 1..=3 {
        mobile(4, rounds, usize::from(rounds));
    }
}

/// The crash model needs `1 <= t <= n - 2`, so its smallest instance is
/// `n = 3, t = 1`.
#[test]
fn crash_matches_btreeset_reference() {
    for rounds in 1..=2 {
        crash(3, 1, rounds);
    }
}

#[test]
fn crash_n4_matches_btreeset_reference() {
    for t in 1..=2 {
        for rounds in 1..=u16::try_from(t + 1).expect("small t") {
            crash(4, t, rounds);
        }
    }
}

#[test]
fn shared_memory_matches_btreeset_reference() {
    for n in [2, 3] {
        for phases in 1..=2 {
            shared_memory(n, phases, 3);
        }
    }
}

#[test]
fn message_passing_matches_btreeset_reference() {
    for (n, depth) in [(2, 3), (3, 2)] {
        for phases in 1..=2 {
            message_passing(n, phases, depth);
        }
    }
}

/// The members of `mask` as a `BTreeSet`, built without [`ValueSet`].
fn tree_of(mask: u64) -> BTreeSet<Value> {
    (0..64)
        .filter(|b| mask >> b & 1 == 1)
        .map(Value::new)
        .collect()
}

/// A random subset of `0..64`, drawn in one of several shapes: dense,
/// sparse, very sparse, within the packable `0..4`, around both ends of
/// the range, and empty or a singleton.
fn arb_mask() -> impl Strategy<Value = u64> {
    (0u8..6, proptest::collection::vec(0u32..=u32::MAX, 4)).prop_map(|(shape, w)| {
        let word = |lo: u32, hi: u32| u64::from(lo) | u64::from(hi) << 32;
        match shape {
            0 => word(w[0], w[1]),
            1 => word(w[0], w[1]) & word(w[2], w[3]),
            2 => word(w[0] & w[2] & w[3], w[1] & w[2] & w[3]),
            3 => u64::from(w[0] & 0xf),
            4 => u64::from(w[0] & 0xf) << 60 | u64::from(w[1] & 0x3),
            _ => u64::from(w[0] % 2) << (w[1] % 64),
        }
    })
}

fn encoded<T: SnapshotState>(x: &T) -> Vec<u8> {
    let mut out = Vec::new();
    x.encode(&mut out);
    out
}

/// Order, hash, `Debug`, encoding and packing of one set.
fn assert_set_parity(mask: u64) {
    let tree = tree_of(mask);
    let set: ValueSet = tree.iter().copied().collect();
    assert_eq!(set.bits(), mask);
    assert_eq!(set, ValueSet::from_bits(mask));
    assert_eq!(ref_set(&set), tree, "iteration of {mask:#x}");
    assert_eq!(set.len(), tree.len());
    assert_eq!(set.first(), tree.first().copied());
    assert_eq!(fx_hash(&set), fx_hash(&tree), "fx_hash of {tree:?}");
    assert_eq!(format!("{set:?}"), format!("{tree:?}"));
    let bytes = encoded(&tree);
    assert_eq!(encoded(&set), bytes, "encoding of {tree:?}");
    let decoded = ValueSet::decode(&mut SnapshotReader::new(&bytes));
    assert_eq!(decoded, Ok(set), "decoding of {tree:?}");

    let regs = SmFloodMin::new(1).reg_packer().expect("registers pack");
    let ref_regs = reference::SmFloodMin { phases: 1 }
        .reg_packer()
        .expect("registers pack");
    let msgs = MpFloodMin::new(1).msg_packer().expect("messages pack");
    assert_eq!(
        regs.pack(&set),
        ref_regs.pack(&tree),
        "register word of {tree:?}"
    );
    assert_eq!(
        msgs.pack(&set),
        ref_regs.pack(&tree),
        "message word of {tree:?}"
    );
    if let Some(w) = regs.pack(&set) {
        assert_eq!(regs.unpack(w), set);
        assert_eq!(msgs.unpack(w), set);
    }

    let local = FloodMin::new(1).local_packer().expect("local states pack");
    let ref_local_packer = reference::FloodMin { rounds: 1 }
        .local_packer()
        .expect("local states pack");
    for completed in [0, 3, 15, 16] {
        let ls = FloodState {
            known: set,
            completed,
        };
        let rs = ref_local(&ls);
        assert_eq!(fx_hash(&ls), fx_hash(&rs));
        assert_eq!(encoded(&ls), encoded(&rs));
        let w = local.pack(&ls);
        assert_eq!(w, ref_local_packer.pack(&rs), "local word of {rs:?}");
        if let Some(w) = w {
            assert_eq!(local.unpack(w), ls);
        }
    }
}

proptest! {
    /// `ValueSet` agrees with `BTreeSet<Value>` on every observable: order
    /// between any two sets, and hash, `Debug`, snapshot bytes and packed
    /// words of each.
    #[test]
    fn value_set_matches_btreeset(masks in proptest::collection::vec(arb_mask(), 8)) {
        for &a in &masks {
            assert_set_parity(a);
            for &b in &masks {
                let (x, y) = (ValueSet::from_bits(a), ValueSet::from_bits(b));
                prop_assert_eq!(x.cmp(&y), tree_of(a).cmp(&tree_of(b)), "{:?} vs {:?}", x, y);
                prop_assert_eq!(x | y, ValueSet::from_bits(a | b));
                prop_assert_eq!(x.is_subset(y), tree_of(a).is_subset(&tree_of(b)));
            }
        }
    }
}

/// The order, exhaustively over pairs of subsets of `0..6` shifted to
/// both ends of the range (so elements 58..64 are covered too).
#[test]
fn value_set_order_matches_btreeset_exhaustively() {
    for shift in [0, 58] {
        let masks: Vec<u64> = (0..64u64).map(|m| m << shift).collect();
        for &a in &masks {
            for &b in &masks {
                assert_eq!(
                    ValueSet::from_bits(a).cmp(&ValueSet::from_bits(b)),
                    tree_of(a).cmp(&tree_of(b)),
                    "{a:#x} vs {b:#x}"
                );
            }
        }
    }
}
