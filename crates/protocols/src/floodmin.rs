//! The FloodSet/FloodMin protocol family.
//!
//! FloodMin is the classical flooding consensus protocol: every process
//! maintains the set of input values it has heard of, forwards that set
//! every round (phase), and after a fixed number of rounds decides the
//! minimum of its set. With deadline `t + 1` rounds it solves t-resilient
//! consensus in the synchronous model — witnessing that the Dolev–Strong
//! lower bound reproduced by Corollary 6.3 is *tight*. With any shorter
//! deadline, or in any of the asynchronous models, the layered-analysis
//! engine finds explicit violations, as the paper's impossibility results
//! dictate.
//!
//! Variants for all three model families are provided: [`FloodMin`]
//! (synchronous rounds), [`SmFloodMin`] (shared-memory phases), and
//! [`MpFloodMin`] (message-passing phases).
//!
//! Every variant floods a [`ValueSet`]: the set of values it has heard of,
//! held as one `u64` membership mask over values `0..64`. A union is one
//! `|`, and states, messages and registers are `Copy`. The type's `Ord`,
//! `Hash`, `Debug` and [`SnapshotState`] encoding reproduce those of
//! `BTreeSet<Value>` exactly, so hashes, canonical representatives, arena
//! ids, snapshot bytes and printed states are the same as for a tree-based
//! set. Inserting a value of 64 or more panics, and decoding one is
//! [`SnapshotError::Malformed`]; every protocol in this workspace uses
//! values below 4.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::{BitOr, BitOrAssign};

use layered_core::{FieldPacker, Pid, SnapshotError, SnapshotReader, SnapshotState, Value};

use crate::traits::{Anonymous, MpProtocol, SmProtocol, SyncProtocol};

/// A set of values drawn from `0..64`, held as one membership bitmask.
///
/// A drop-in for `BTreeSet<Value>` in the FloodMin family: iteration is
/// ascending, and `Ord` (lexicographic over the ascending elements), `Hash`
/// (the length as a `usize`, then each element), `Debug` (`{Value(0), …}`)
/// and the snapshot encoding (a `u32` length, then the elements) all match
/// the tree-based set's.
///
/// # Examples
///
/// ```
/// use layered_core::Value;
/// use layered_protocols::ValueSet;
///
/// let mut s = ValueSet::singleton(Value::ONE);
/// s |= ValueSet::singleton(Value::ZERO);
/// assert_eq!(s.len(), 2);
/// assert_eq!(s.first(), Some(Value::ZERO));
/// assert_eq!(format!("{s:?}"), "{Value(0), Value(1)}");
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Default)]
pub struct ValueSet(u64);

/// Members of a [`ValueSet`] lie in `0..SET_BITS`.
const SET_BITS: u32 = u64::BITS;

impl ValueSet {
    /// The set `{v}`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is 64 or more.
    #[must_use]
    pub fn singleton(v: Value) -> Self {
        ValueSet(bit(v))
    }

    /// The set whose members are the set bits of `mask`.
    #[must_use]
    pub const fn from_bits(mask: u64) -> Self {
        ValueSet(mask)
    }

    /// The membership mask: bit `v` is set iff `Value::new(v)` is a member.
    #[must_use]
    pub const fn bits(self) -> u64 {
        self.0
    }

    /// Adds `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is 64 or more.
    pub fn insert(&mut self, v: Value) {
        self.0 |= bit(v);
    }

    /// Whether `v` is a member.
    #[must_use]
    pub fn contains(self, v: Value) -> bool {
        v.get() < SET_BITS && self.0 & (1 << v.get()) != 0
    }

    /// Whether every member of `self` is a member of `other`.
    #[must_use]
    pub fn is_subset(self, other: ValueSet) -> bool {
        self.0 & !other.0 == 0
    }

    /// The number of members.
    #[must_use]
    pub fn len(self) -> usize {
        self.0.count_ones() as usize
    }

    /// Whether the set has no members.
    #[must_use]
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// The smallest member, if any.
    #[must_use]
    pub fn first(self) -> Option<Value> {
        (self.0 != 0).then(|| Value::new(self.0.trailing_zeros()))
    }

    /// The members in ascending order.
    pub fn iter(self) -> impl Iterator<Item = Value> {
        let mut rest = self.0;
        std::iter::from_fn(move || {
            let v = ValueSet(rest).first()?;
            rest &= rest - 1;
            Some(v)
        })
    }
}

/// The mask bit of `v`.
///
/// # Panics
///
/// Panics if `v` is 64 or more.
fn bit(v: Value) -> u64 {
    assert!(
        v.get() < SET_BITS,
        "ValueSet holds values in 0..64, not {}",
        v.get()
    );
    1 << v.get()
}

impl FromIterator<Value> for ValueSet {
    fn from_iter<I: IntoIterator<Item = Value>>(iter: I) -> Self {
        iter.into_iter()
            .fold(ValueSet::default(), |s, v| s | ValueSet::singleton(v))
    }
}

impl BitOr for ValueSet {
    type Output = ValueSet;

    fn bitor(self, rhs: ValueSet) -> ValueSet {
        ValueSet(self.0 | rhs.0)
    }
}

impl BitOrAssign for ValueSet {
    fn bitor_assign(&mut self, rhs: ValueSet) {
        self.0 |= rhs.0;
    }
}

/// `BTreeSet`'s order: lexicographic over the ascending elements, so a
/// proper prefix sorts first. Below the lowest bit `k` where the masks
/// differ the two sets agree; the set holding `k` is smaller unless the
/// other has nothing at or above `k`, in which case the other is a prefix
/// of it.
impl Ord for ValueSet {
    fn cmp(&self, other: &Self) -> Ordering {
        let diff = self.0 ^ other.0;
        if diff == 0 {
            return Ordering::Equal;
        }
        let k = diff.trailing_zeros();
        let (holder, rest) = if self.0 & (1 << k) != 0 {
            (Ordering::Less, other.0 >> k)
        } else {
            (Ordering::Greater, self.0 >> k)
        };
        if rest == 0 {
            holder.reverse()
        } else {
            holder
        }
    }
}

impl PartialOrd for ValueSet {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// `BTreeSet`'s hash: the length as a `usize`, then each element.
impl Hash for ValueSet {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_usize(self.len());
        for v in self.iter() {
            v.hash(state);
        }
    }
}

impl fmt::Debug for ValueSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

/// `BTreeSet`'s encoding: a `u32` length, then the elements in ascending
/// order. Decoding keeps its strictly-sorted rule and rejects values the
/// mask cannot hold.
impl SnapshotState for ValueSet {
    fn encode(&self, out: &mut Vec<u8>) {
        (self.len() as u32).encode(out);
        for v in self.iter() {
            v.encode(out);
        }
    }

    fn decode(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        let len = r.u32()?;
        let mut out = ValueSet::default();
        let mut prev: Option<Value> = None;
        for _ in 0..len {
            let v = Value::decode(r)?;
            if prev.is_some_and(|p| p >= v) {
                return Err(SnapshotError::Malformed("set elements not strictly sorted"));
            }
            if v.get() >= SET_BITS {
                return Err(SnapshotError::Malformed("value-set element outside 0..64"));
            }
            out.0 |= 1 << v.get();
            prev = Some(v);
        }
        Ok(out)
    }
}

/// Width of the value-set bitmask in the packed codecs below: sets over
/// values `0..4` pack, wider values spill.
pub(crate) const MASK_BITS: u32 = 4;

/// The set's mask if every member is below [`MASK_BITS`].
pub(crate) fn small_mask(s: ValueSet) -> Option<u64> {
    (s.bits() < 1 << MASK_BITS).then_some(s.bits())
}

/// The 8-bit [`FloodState`] codec every FloodMin variant reports from its
/// `local_packer` hook: a 4-bit membership mask over values `0..4` in the
/// low bits, the completed-phase counter (capped at 15) above it.
fn flood_local_packer() -> FieldPacker<FloodState> {
    FieldPacker::new(
        2 * MASK_BITS,
        |ls: &FloodState| {
            if ls.completed >= 1 << MASK_BITS {
                return None;
            }
            Some(small_mask(ls.known)? | (u64::from(ls.completed) << MASK_BITS))
        },
        |w| FloodState {
            known: ValueSet::from_bits(w & ((1 << MASK_BITS) - 1)),
            completed: ((w >> MASK_BITS) & ((1 << MASK_BITS) - 1)) as u16,
        },
    )
}

/// The 4-bit value-set codec the shared-memory and message-passing variants
/// report for registers and messages.
fn flood_set_packer() -> FieldPacker<ValueSet> {
    FieldPacker::new(
        MASK_BITS,
        |s: &ValueSet| small_mask(*s),
        ValueSet::from_bits,
    )
}

/// Local state of every FloodMin variant: the set of known input values and
/// the number of completed rounds/phases.
///
/// Derives `Ord` (sets compare lexicographically, then the phase counter)
/// so model states built over it can be canonicalized by the symmetry
/// engine's minimum-over-orbit rule.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct FloodState {
    /// Input values heard of so far (always contains the own input).
    pub known: ValueSet,
    /// Completed rounds (synchronous) or local phases (asynchronous).
    pub completed: u16,
}

impl FloodState {
    fn new(input: Value) -> Self {
        FloodState {
            known: ValueSet::singleton(input),
            completed: 0,
        }
    }

    fn min_known(&self) -> Value {
        self.known.first().expect("known always contains own input")
    }
}

impl SnapshotState for FloodState {
    fn encode(&self, out: &mut Vec<u8>) {
        self.known.encode(out);
        self.completed.encode(out);
    }

    fn decode(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        Ok(FloodState {
            known: ValueSet::decode(r)?,
            completed: u16::decode(r)?,
        })
    }
}

/// Synchronous FloodMin with a decision deadline of `rounds` rounds.
///
/// `FloodMin::new(t + 1)` solves consensus t-resiliently; `FloodMin::new(t)`
/// is the *truncated* variant whose agreement violation the Section 6
/// experiments exhibit.
///
/// # Examples
///
/// ```
/// use layered_protocols::{FloodMin, SyncProtocol};
/// use layered_core::{Pid, Value};
///
/// let p = FloodMin::new(2);
/// let ls = p.init(3, Pid::new(0), Value::ONE);
/// assert_eq!(p.decide(&ls), None); // undecided before the deadline
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct FloodMin {
    rounds: u16,
}

impl FloodMin {
    /// A FloodMin deciding after exactly `rounds` rounds.
    ///
    /// # Panics
    ///
    /// Panics if `rounds == 0` (use [`HastyMin`](crate::HastyMin) for the
    /// degenerate protocol that decides immediately).
    #[must_use]
    pub fn new(rounds: u16) -> Self {
        assert!(rounds > 0, "FloodMin needs at least one round");
        FloodMin { rounds }
    }

    /// The decision deadline in rounds.
    #[must_use]
    pub fn rounds(&self) -> u16 {
        self.rounds
    }
}

impl SyncProtocol for FloodMin {
    type LocalState = FloodState;
    type Msg = ValueSet;

    fn init(&self, _n: usize, _me: Pid, input: Value) -> FloodState {
        FloodState::new(input)
    }

    fn message(&self, ls: &FloodState, _to: Pid) -> ValueSet {
        ls.known
    }

    fn transition(
        &self,
        mut ls: FloodState,
        _me: Pid,
        received: &[Option<ValueSet>],
    ) -> FloodState {
        for msg in received.iter().flatten() {
            ls.known |= *msg;
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

// FloodMin's transitions only union value sets and bump a counter; no hook
// reads `me`, `to`, or a sender pid.
impl Anonymous for FloodMin {}

/// A protocol that decides its own input immediately, without communicating.
///
/// Violates Agreement on every mixed-input run; used to validate that the
/// checker reports agreement violations (and as the paper's reminder that
/// Validity alone is trivial to satisfy).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct HastyMin;

impl SyncProtocol for HastyMin {
    type LocalState = FloodState;
    type Msg = ValueSet;

    fn init(&self, _n: usize, _me: Pid, input: Value) -> FloodState {
        FloodState::new(input)
    }

    fn message(&self, ls: &FloodState, _to: Pid) -> ValueSet {
        ls.known
    }

    fn transition(
        &self,
        mut ls: FloodState,
        _me: Pid,
        received: &[Option<ValueSet>],
    ) -> FloodState {
        for msg in received.iter().flatten() {
            ls.known |= *msg;
        }
        ls.completed += 1;
        ls
    }

    fn decide(&self, ls: &FloodState) -> Option<Value> {
        Some(ls.min_known())
    }

    fn local_packer(&self) -> Option<FieldPacker<FloodState>> {
        Some(flood_local_packer())
    }
}

impl Anonymous for HastyMin {}

/// Shared-memory FloodMin: write the known set, read all registers, union
/// them in; decide the minimum after `phases` local phases.
///
/// In the synchronic layering `S^rw` this protocol cannot solve consensus
/// (Corollary 5.4): the experiments exhibit its agreement/decision
/// violations for every deadline.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SmFloodMin {
    phases: u16,
}

impl SmFloodMin {
    /// A shared-memory FloodMin deciding after `phases` local phases.
    ///
    /// # Panics
    ///
    /// Panics if `phases == 0`.
    #[must_use]
    pub fn new(phases: u16) -> Self {
        assert!(phases > 0, "SmFloodMin needs at least one phase");
        SmFloodMin { phases }
    }

    /// The decision deadline in local phases.
    #[must_use]
    pub fn phases(&self) -> u16 {
        self.phases
    }
}

impl SmProtocol for SmFloodMin {
    type LocalState = FloodState;
    type Reg = ValueSet;

    fn init(&self, _n: usize, _me: Pid, input: Value) -> FloodState {
        FloodState::new(input)
    }

    fn write_value(&self, ls: &FloodState) -> Option<ValueSet> {
        Some(ls.known)
    }

    fn absorb(&self, mut ls: FloodState, _me: Pid, regs: &[Option<ValueSet>]) -> FloodState {
        for reg in regs.iter().flatten() {
            ls.known |= *reg;
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

    fn reg_packer(&self) -> Option<FieldPacker<ValueSet>> {
        Some(flood_set_packer())
    }
}

impl Anonymous for SmFloodMin {}

/// Message-passing FloodMin: broadcast the known set each local phase;
/// decide the minimum after `phases` local phases.
///
/// The FLP-style impossibility under the permutation layering `S^per`
/// guarantees this protocol cannot solve consensus for any deadline; the
/// experiments exhibit its violations.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct MpFloodMin {
    phases: u16,
}

impl MpFloodMin {
    /// A message-passing FloodMin deciding after `phases` local phases.
    ///
    /// # Panics
    ///
    /// Panics if `phases == 0`.
    #[must_use]
    pub fn new(phases: u16) -> Self {
        assert!(phases > 0, "MpFloodMin needs at least one phase");
        MpFloodMin { phases }
    }

    /// The decision deadline in local phases.
    #[must_use]
    pub fn phases(&self) -> u16 {
        self.phases
    }
}

impl MpProtocol for MpFloodMin {
    type LocalState = FloodState;
    type Msg = ValueSet;

    fn init(&self, _n: usize, _me: Pid, input: Value) -> FloodState {
        FloodState::new(input)
    }

    fn send(&self, ls: &FloodState, me: Pid, n: usize) -> Vec<(Pid, ValueSet)> {
        Pid::all(n)
            .filter(|&p| p != me)
            .map(|p| (p, ls.known))
            .collect()
    }

    fn absorb(&self, mut ls: FloodState, _me: Pid, delivered: &[(Pid, ValueSet)]) -> FloodState {
        for (_, msg) in delivered {
            ls.known |= *msg;
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

    fn msg_packer(&self) -> Option<FieldPacker<ValueSet>> {
        Some(flood_set_packer())
    }
}

// The broadcast in `send` enumerates destinations but the *message* is
// pid-independent, and `absorb` ignores sender tags.
impl Anonymous for MpFloodMin {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flood_state_tracks_minimum() {
        let mut s = FloodState::new(Value::new(3));
        assert_eq!(s.min_known(), Value::new(3));
        s.known.insert(Value::ZERO);
        assert_eq!(s.min_known(), Value::ZERO);
    }

    #[test]
    fn floodmin_decides_only_at_deadline() {
        let p = FloodMin::new(2);
        let mut ls = p.init(3, Pid::new(0), Value::ONE);
        assert_eq!(p.decide(&ls), None);
        ls = p.transition(ls, Pid::new(0), &[None, None, None]);
        assert_eq!(p.decide(&ls), None);
        ls = p.transition(ls, Pid::new(0), &[None, None, None]);
        assert_eq!(p.decide(&ls), Some(Value::ONE));
    }

    #[test]
    fn floodmin_unions_received_sets() {
        let p = FloodMin::new(1);
        let ls = p.init(2, Pid::new(0), Value::ONE);
        let msg = ValueSet::singleton(Value::ZERO);
        let ls = p.transition(ls, Pid::new(0), &[None, Some(msg)]);
        assert_eq!(p.decide(&ls), Some(Value::ZERO));
    }

    #[test]
    fn hasty_decides_immediately() {
        let p = HastyMin;
        let ls = p.init(2, Pid::new(1), Value::ONE);
        assert_eq!(p.decide(&ls), Some(Value::ONE));
    }

    #[test]
    #[should_panic(expected = "at least one round")]
    fn floodmin_zero_rounds_rejected() {
        let _ = FloodMin::new(0);
    }

    #[test]
    fn flood_codec_round_trips_and_spills_wide_states() {
        let p = FloodMin::new(2).local_packer().expect("FloodMin packs");
        assert_eq!(p.bits(), 8);
        for mask in 1u64..16 {
            for completed in 0u16..16 {
                let s = FloodState {
                    known: ValueSet::from_bits(mask),
                    completed,
                };
                let w = p.pack(&s).expect("in-range state packs");
                assert_eq!(p.unpack(w), s);
            }
        }
        let wide_value = FloodState {
            known: ValueSet::singleton(Value::new(4)),
            completed: 0,
        };
        assert_eq!(p.pack(&wide_value), None, "values above 3 spill");
        let deep = FloodState {
            known: ValueSet::singleton(Value::ZERO),
            completed: 16,
        };
        assert_eq!(p.pack(&deep), None, "phase counters above 15 spill");
    }

    #[test]
    fn flood_set_codec_round_trips() {
        let p = SmFloodMin::new(1)
            .reg_packer()
            .expect("SmFloodMin packs regs");
        let set: ValueSet = [Value::ZERO, Value::new(2)].into_iter().collect();
        let w = p.pack(&set).expect("small set packs");
        assert_eq!(p.unpack(w), set);
        assert_eq!(p.pack(&ValueSet::singleton(Value::new(9))), None);
    }

    /// `FloodState`'s snapshot encoding, built by hand: a `u32` set length,
    /// the `u32` elements, then the `u16` phase counter.
    fn flood_state_blob(elements: &[u32]) -> Vec<u8> {
        let mut out = Vec::new();
        (elements.len() as u32).encode(&mut out);
        for e in elements {
            e.encode(&mut out);
        }
        0u16.encode(&mut out);
        out
    }

    fn decode_flood_state(bytes: &[u8]) -> Result<FloodState, SnapshotError> {
        FloodState::decode(&mut SnapshotReader::new(bytes))
    }

    #[test]
    fn flood_state_snapshot_round_trips() {
        let s = FloodState {
            known: [Value::ZERO, Value::new(5), Value::new(63)]
                .into_iter()
                .collect(),
            completed: 7,
        };
        let mut bytes = Vec::new();
        s.encode(&mut bytes);
        assert_eq!(decode_flood_state(&bytes), Ok(s));
    }

    #[test]
    fn flood_state_snapshot_rejects_values_the_mask_cannot_hold() {
        assert_eq!(
            decode_flood_state(&flood_state_blob(&[0, 63])).map(|s| s.known.len()),
            Ok(2)
        );
        for elements in [&[64][..], &[1, 64], &[0, u32::MAX]] {
            assert_eq!(
                decode_flood_state(&flood_state_blob(elements)),
                Err(SnapshotError::Malformed("value-set element outside 0..64")),
                "{elements:?}"
            );
        }
    }

    #[test]
    fn flood_state_snapshot_rejects_unsorted_sets() {
        for elements in [&[1, 0][..], &[2, 2], &[0, 3, 1]] {
            assert_eq!(
                decode_flood_state(&flood_state_blob(elements)),
                Err(SnapshotError::Malformed("set elements not strictly sorted")),
                "{elements:?}"
            );
        }
    }

    #[test]
    fn flood_state_snapshot_rejects_truncated_sets() {
        let mut bytes = flood_state_blob(&[0, 1]);
        bytes.truncate(6);
        assert_eq!(decode_flood_state(&bytes), Err(SnapshotError::Truncated));
    }

    #[test]
    #[should_panic(expected = "ValueSet holds values in 0..64, not 64")]
    fn floodmin_rejects_inputs_the_mask_cannot_hold() {
        let _ = FloodMin::new(1).init(2, Pid::new(0), Value::new(64));
    }

    #[test]
    #[should_panic(expected = "ValueSet holds values in 0..64, not 100")]
    fn value_set_insert_rejects_wide_values() {
        ValueSet::default().insert(Value::new(100));
    }
}
