//! Early-stopping FloodMin.
//!
//! The classical early-deciding rule for crash-style failures: keep
//! flooding known values, track which senders were heard from each round,
//! and decide as soon as two consecutive rounds deliver messages from the
//! *same* sender set (no failure interfered in between, so everyone heard
//! everything you heard); fall back to the `t + 1`-round deadline
//! otherwise. In failure-free runs this decides after 2 rounds regardless
//! of `t` — matching the spirit of Lemma 6.4 (once failures stop, valence
//! collapses) and the Dwork–Moses-style `f + 2` bounds the paper discusses
//! after it.
//!
//! Its correctness over all `S^t`-runs is *checked*, not assumed: the
//! experiment harness sweeps it exhaustively next to plain FloodMin.
//!
//! The local state is `Copy`: the known values are a [`ValueSet`] and the
//! previous round's senders a [`PidSet`], both one-word bitmasks, and a
//! message is the sender's [`ValueSet`]. The protocol reports an 18-bit
//! local codec, so the synchronous models pack its states into one word
//! at small `n`.

use std::fmt;
use std::hash::{Hash, Hasher};

use layered_core::{FieldPacker, Pid, Value};

use crate::floodmin::{small_mask, MASK_BITS};
use crate::traits::SyncProtocol;
use crate::ValueSet;

/// A set of process ids in `0..64`, held as one membership bitmask.
///
/// Iteration is ascending, and `Hash` (the length as a `usize`, then each
/// element) and `Debug` (`{Pid(0), …}`) match those of `BTreeSet<Pid>`, so
/// states holding one hash and print as with a tree-based set.
///
/// # Examples
///
/// ```
/// use layered_core::Pid;
/// use layered_protocols::PidSet;
///
/// let s: PidSet = [Pid::new(2), Pid::new(0)].into_iter().collect();
/// assert_eq!(s.bits(), 0b101);
/// assert_eq!(format!("{s:?}"), "{Pid(0), Pid(2)}");
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Default)]
pub struct PidSet(u64);

impl PidSet {
    /// The set whose members are the set bits of `mask`.
    #[must_use]
    pub const fn from_bits(mask: u64) -> Self {
        PidSet(mask)
    }

    /// The membership mask: bit `i` is set iff `Pid::new(i)` is a member.
    #[must_use]
    pub const fn bits(self) -> u64 {
        self.0
    }

    /// Adds `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p`'s index is 64 or more.
    pub fn insert(&mut self, p: Pid) {
        assert!(
            p.index() < u64::BITS as usize,
            "PidSet holds pids in 0..64, not {}",
            p.index()
        );
        self.0 |= 1 << p.index();
    }

    /// The members in ascending order.
    pub fn iter(self) -> impl Iterator<Item = Pid> {
        let mut rest = self.0;
        std::iter::from_fn(move || {
            (rest != 0).then(|| {
                let p = Pid::new(rest.trailing_zeros() as usize);
                rest &= rest - 1;
                p
            })
        })
    }
}

impl FromIterator<Pid> for PidSet {
    fn from_iter<I: IntoIterator<Item = Pid>>(iter: I) -> Self {
        let mut out = PidSet::default();
        for p in iter {
            out.insert(p);
        }
        out
    }
}

/// `BTreeSet`'s hash: the length as a `usize`, then each element.
impl Hash for PidSet {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_usize(self.0.count_ones() as usize);
        for p in self.iter() {
            p.hash(state);
        }
    }
}

impl fmt::Debug for PidSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

/// Local state of [`EarlyFloodMin`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct EarlyState {
    /// Input values heard of so far.
    pub known: ValueSet,
    /// Senders heard from in the previous round (`None` before round 1).
    pub prev_heard: Option<PidSet>,
    /// Whether the early rule has fired.
    pub stopped: bool,
    /// Completed rounds.
    pub completed: u16,
}

/// Width of the sender mask in the packed codec: senders `0..8` pack.
const HEARD_BITS: u32 = 8;

/// Width of the round counter in the packed codec: counters below 16 pack.
const ROUND_BITS: u32 = 4;

/// The 18-bit [`EarlyState`] codec, low bits first: the 4-bit value mask,
/// a presence bit and the 8-bit sender mask of `prev_heard`, the stopped
/// bit, and the 4-bit round counter. Values of 4 or more, senders of 8 or
/// more and counters of 16 or more spill.
fn early_local_packer() -> FieldPacker<EarlyState> {
    const HEARD_AT: u32 = MASK_BITS + 1;
    const STOPPED_AT: u32 = HEARD_AT + HEARD_BITS;
    const ROUND_AT: u32 = STOPPED_AT + 1;
    FieldPacker::new(
        ROUND_AT + ROUND_BITS,
        |ls: &EarlyState| {
            if ls.completed >= 1 << ROUND_BITS {
                return None;
            }
            let mut w = small_mask(ls.known)?;
            if let Some(heard) = ls.prev_heard {
                if heard.bits() >= 1 << HEARD_BITS {
                    return None;
                }
                w |= 1 << MASK_BITS | heard.bits() << HEARD_AT;
            }
            Some(w | u64::from(ls.stopped) << STOPPED_AT | u64::from(ls.completed) << ROUND_AT)
        },
        |w| EarlyState {
            known: ValueSet::from_bits(w & ((1 << MASK_BITS) - 1)),
            prev_heard: (w >> MASK_BITS & 1 == 1)
                .then(|| PidSet::from_bits(w >> HEARD_AT & ((1 << HEARD_BITS) - 1))),
            stopped: w >> STOPPED_AT & 1 == 1,
            completed: (w >> ROUND_AT & ((1 << ROUND_BITS) - 1)) as u16,
        },
    )
}

/// FloodMin with the two-identical-rounds early-stopping rule and a hard
/// deadline of `deadline` rounds (use `t + 1`).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct EarlyFloodMin {
    deadline: u16,
}

impl EarlyFloodMin {
    /// An early-stopping FloodMin with the given hard deadline.
    ///
    /// # Panics
    ///
    /// Panics if `deadline == 0`.
    #[must_use]
    pub fn new(deadline: u16) -> Self {
        assert!(deadline > 0, "deadline must be at least one round");
        EarlyFloodMin { deadline }
    }

    /// The hard deadline in rounds.
    #[must_use]
    pub fn deadline(&self) -> u16 {
        self.deadline
    }
}

impl SyncProtocol for EarlyFloodMin {
    type LocalState = EarlyState;
    /// Messages carry the sender's known set; the receiver tells senders
    /// apart by their position in the received vector.
    type Msg = ValueSet;

    fn init(&self, _n: usize, _me: Pid, input: Value) -> EarlyState {
        EarlyState {
            known: ValueSet::singleton(input),
            prev_heard: None,
            stopped: false,
            completed: 0,
        }
    }

    fn message(&self, ls: &EarlyState, _to: Pid) -> ValueSet {
        ls.known
    }

    fn transition(&self, mut ls: EarlyState, me: Pid, received: &[Option<ValueSet>]) -> EarlyState {
        let mut heard = PidSet::default();
        for (from, msg) in received.iter().enumerate() {
            if let Some(m) = msg {
                if from != me.index() {
                    heard.insert(Pid::new(from));
                }
                ls.known |= *m;
            }
        }
        ls.stopped |= ls.prev_heard == Some(heard);
        ls.prev_heard = Some(heard);
        ls.completed += 1;
        ls
    }

    fn decide(&self, ls: &EarlyState) -> Option<Value> {
        (ls.stopped || ls.completed >= self.deadline)
            .then(|| ls.known.first().expect("known is non-empty"))
    }

    fn local_packer(&self) -> Option<FieldPacker<EarlyState>> {
        Some(early_local_packer())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn full_msg(v: u32) -> Option<ValueSet> {
        Some(ValueSet::singleton(Value::new(v)))
    }

    #[test]
    fn decides_after_two_identical_rounds() {
        let p = EarlyFloodMin::new(4);
        let me = Pid::new(0);
        let mut ls = p.init(3, me, Value::ONE);
        // Round 1: heard everyone.
        ls = p.transition(ls, me, &[full_msg(1), full_msg(1), full_msg(0)]);
        assert_eq!(p.decide(&ls), None, "one round is not enough");
        // Round 2: same sender set => early stop, well before the deadline.
        ls = p.transition(ls, me, &[full_msg(1), full_msg(1), full_msg(0)]);
        assert_eq!(p.decide(&ls), Some(Value::ZERO));
        assert_eq!(ls.completed, 2);
    }

    #[test]
    fn sender_set_change_defers_decision() {
        let p = EarlyFloodMin::new(4);
        let me = Pid::new(0);
        let mut ls = p.init(3, me, Value::ONE);
        ls = p.transition(ls, me, &[full_msg(1), full_msg(1), full_msg(1)]);
        // Round 2: p3 silenced — sets differ, no early decision.
        ls = p.transition(ls, me, &[full_msg(1), full_msg(1), None]);
        assert_eq!(p.decide(&ls), None);
        // Round 3: same (reduced) set twice => decide.
        ls = p.transition(ls, me, &[full_msg(1), full_msg(1), None]);
        assert_eq!(p.decide(&ls), Some(Value::ONE));
    }

    #[test]
    fn hard_deadline_forces_decision() {
        let p = EarlyFloodMin::new(2);
        let me = Pid::new(0);
        let mut ls = p.init(2, me, Value::ONE);
        // Alternating sender sets never trigger the early rule...
        ls = p.transition(ls, me, &[full_msg(1), full_msg(0)]);
        ls = p.transition(ls, me, &[full_msg(1), None]);
        // ...but the deadline fires.
        assert_eq!(p.decide(&ls), Some(Value::ZERO));
    }
}
