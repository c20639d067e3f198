//! Global states of the mobile-failure synchronous model.

use layered_core::{Pid, SnapshotError, SnapshotReader, SnapshotState, Value};

/// A global state of `M^mf` (and of any synchronous round model built on a
/// [`SyncProtocol`](layered_protocols::SyncProtocol)).
///
/// Per the paper (Section 5, footnote 3), the environment's local state in
/// `M^mf` is constant and is therefore not represented; the `round` counter
/// is analysis bookkeeping that is common knowledge in a synchronous model.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct MobileState<L> {
    /// Completed rounds.
    pub round: u16,
    /// The run's input assignment (recoverable from the local states; kept
    /// explicit for the validity checker).
    pub inputs: Vec<Value>,
    /// Per-process protocol local states.
    pub locals: Vec<L>,
    /// Per-process write-once decision variables `d_i`.
    pub decided: Vec<Option<Value>>,
}

impl<L> MobileState<L> {
    /// Number of processes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.locals.len()
    }

    /// Whether the state is degenerate (no processes). Never true for
    /// states produced by a model (`n >= 2`).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.locals.is_empty()
    }

    /// The decision of process `i`, if made.
    #[must_use]
    pub fn decision(&self, i: Pid) -> Option<Value> {
        self.decided[i.index()]
    }
}

impl<L: SnapshotState> SnapshotState for MobileState<L> {
    fn encode(&self, out: &mut Vec<u8>) {
        self.round.encode(out);
        self.inputs.encode(out);
        self.locals.encode(out);
        self.decided.encode(out);
    }

    fn decode(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        Ok(MobileState {
            round: u16::decode(r)?,
            inputs: Vec::decode(r)?,
            locals: Vec::decode(r)?,
            decided: Vec::decode(r)?,
        })
    }
}
