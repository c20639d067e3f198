//! The *synchronic* layering for asynchronous message passing.
//!
//! Section 5.1 remarks that "a completely analogous impossibility proof can
//! be given for asynchronous message passing as well. The structure of the
//! layering function, and the reasoning underlying the results remain
//! unchanged" — and that the resulting submodel "is even closer to the
//! synchronous models that are popular in the literature". This module is
//! that layering: virtual rounds with stages `Send₁ Recv₁ Send₂ Recv₂`
//! mirroring the shared-memory `W₁ R₁ W₂ R₂`:
//!
//! * `(j, A)` — `j` is absent: the proper processes send (from their
//!   pre-round states) and then receive; `j` does nothing and its mailbox
//!   accumulates.
//! * `(j, k)` — the proper processes send first; proper processes `i ≤ k`
//!   receive *early* (missing `j`'s message), then `j` sends, then `j` and
//!   the proper processes `i > k` receive late.
//!
//! The Lemma 5.3 bridge `x(j,n)(j,A) ≡ x(j,A)(j,0) (mod j)` transfers
//! verbatim ([`MpSyncModel::bridge_agrees`]), and with it valence
//! connectivity of every layer and the FLP-style impossibility.

use layered_core::{LayeredModel, Pid, Value};
use layered_protocols::MpProtocol;

use crate::phase::{self, Distinct};
use crate::state::MpState;

/// An environment action of the message-passing synchronic layering.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum MpSyncAction {
    /// `(j, A)`: `j` neither sends nor receives this round.
    Absent(Pid),
    /// `(j, k)`: `j` sends late; proper processes with 0-based index `< k`
    /// receive early (missing `j`'s fresh message).
    Staggered {
        /// The slow process.
        j: Pid,
        /// The early-receiver prefix bound `0 ≤ k ≤ n`.
        k: usize,
    },
}

/// The asynchronous message-passing model under the synchronic layering —
/// the "even closer to synchronous" submodel of the Section 5.1 remark.
///
/// # Examples
///
/// ```
/// use layered_core::check_consensus;
/// use layered_core::telemetry::NOOP;
/// use layered_protocols::MpFloodMin;
/// use layered_async_mp::MpSyncModel;
///
/// let m = MpSyncModel::new(3, MpFloodMin::new(2));
/// assert!(!check_consensus(&m, 2, 1, &NOOP).passed());
/// ```
#[derive(Clone, Debug)]
pub struct MpSyncModel<P: MpProtocol> {
    n: usize,
    protocol: P,
    obligation: Option<u16>,
}

impl<P: MpProtocol> MpSyncModel<P> {
    /// A model with `n` processes.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`.
    #[must_use]
    pub fn new(n: usize, protocol: P) -> Self {
        assert!(n >= 2, "the paper assumes n >= 2");
        MpSyncModel {
            n,
            protocol,
            obligation: None,
        }
    }

    /// Obliges every process with at least `phases` completed rounds to
    /// have decided at horizon states.
    #[must_use]
    pub fn with_obligation(mut self, phases: u16) -> Self {
        self.obligation = Some(phases);
        self
    }

    /// The protocol under analysis.
    #[must_use]
    pub fn protocol(&self) -> &P {
        &self.protocol
    }

    /// All actions of a layer.
    #[must_use]
    pub fn actions(&self) -> Vec<MpSyncAction> {
        let mut out = Vec::new();
        for j in Pid::all(self.n) {
            for k in 0..=self.n {
                out.push(MpSyncAction::Staggered { j, k });
            }
            out.push(MpSyncAction::Absent(j));
        }
        out
    }

    /// Applies one `Send₁ Recv₁ Send₂ Recv₂` virtual round.
    #[must_use]
    pub fn apply(
        &self,
        x: &MpState<P::LocalState, P::Msg>,
        action: MpSyncAction,
    ) -> MpState<P::LocalState, P::Msg> {
        let n = self.n;
        let mut state = x.clone();
        let (j, early_bound, j_participates) = match action {
            MpSyncAction::Absent(j) => (j, n, false),
            MpSyncAction::Staggered { j, k } => {
                assert!(k <= n, "k ranges over 0..=n");
                (j, k, true)
            }
        };
        // Send₁: proper processes send from their pre-round states.
        for i in 0..n {
            if i != j.index() {
                phase::send(&self.protocol, n, &mut state, Pid::new(i));
            }
        }
        // Recv₁: early proper receivers drain (missing j's message).
        for i in 0..n {
            if i != j.index() && i < early_bound {
                phase::receive(&self.protocol, &mut state, Pid::new(i));
            }
        }
        // Send₂: j sends.
        if j_participates {
            phase::send(&self.protocol, n, &mut state, j);
        }
        // Recv₂: the rest drain.
        for i in 0..n {
            if i != j.index() && i >= early_bound {
                phase::receive(&self.protocol, &mut state, Pid::new(i));
            }
        }
        if j_participates {
            phase::receive(&self.protocol, &mut state, j);
        }
        state.round = x.round + 1;
        state
    }

    /// The layer `S(x)`, deduplicated.
    #[must_use]
    pub fn layer(&self, x: &MpState<P::LocalState, P::Msg>) -> Vec<MpState<P::LocalState, P::Msg>> {
        let actions = self.actions();
        let mut out = Distinct::with_capacity(actions.len());
        for action in actions {
            out.push(self.apply(x, action));
        }
        out.into_vec()
    }

    /// The Lemma 5.3 bridge, transferred to message passing:
    /// `x(j,n)(j,A)` and `x(j,A)(j,0)` agree modulo `j`.
    #[must_use]
    pub fn bridge_agrees(&self, x: &MpState<P::LocalState, P::Msg>, j: Pid) -> bool {
        let y = self.apply(
            &self.apply(x, MpSyncAction::Staggered { j, k: self.n }),
            MpSyncAction::Absent(j),
        );
        let y2 = self.apply(
            &self.apply(x, MpSyncAction::Absent(j)),
            MpSyncAction::Staggered { j, k: 0 },
        );
        self.agree_modulo(&y, &y2, j)
    }
}

impl<P: MpProtocol> LayeredModel for MpSyncModel<P> {
    type State = MpState<P::LocalState, P::Msg>;

    fn num_processes(&self) -> usize {
        self.n
    }

    fn max_failures(&self) -> usize {
        1
    }

    fn initial_state(&self, inputs: &[Value]) -> Self::State {
        phase::initial_state(&self.protocol, self.n, inputs)
    }

    fn successors(&self, x: &Self::State) -> Vec<Self::State> {
        self.layer(x)
    }

    fn depth(&self, x: &Self::State) -> usize {
        usize::from(x.round)
    }

    fn inputs_of(&self, x: &Self::State) -> Vec<Value> {
        x.inputs.clone()
    }

    fn decision(&self, x: &Self::State, i: Pid) -> Option<Value> {
        x.decided[i.index()]
    }

    fn failed_at(&self, _x: &Self::State, _i: Pid) -> bool {
        false
    }

    fn agree_modulo(&self, x: &Self::State, y: &Self::State, j: Pid) -> bool {
        phase::agree_modulo(x, y, j)
    }

    fn crash_step(&self, x: &Self::State, j: Pid) -> Self::State {
        self.apply(x, MpSyncAction::Absent(j))
    }

    fn obligated(&self, x: &Self::State) -> Vec<Pid> {
        phase::obligated(x, self.obligation)
    }
}

#[cfg(test)]
mod tests {
    use layered_core::telemetry::NOOP;
    use layered_core::{
        build_bivalent_run, check_consensus, check_fault_independence, check_graded,
        valence_report, Region, ValenceSolver,
    };
    use layered_protocols::MpFloodMin;

    use super::*;

    fn model(n: usize, phases: u16) -> MpSyncModel<MpFloodMin> {
        MpSyncModel::new(n, MpFloodMin::new(phases))
    }

    #[test]
    fn structural_contracts_hold() {
        let m = model(3, 2);
        let region = Region::reachable(&m, 2, &NOOP);
        assert_eq!(check_graded(&m, &region), None);
        assert_eq!(check_fault_independence(&m, &region), None);
    }

    #[test]
    fn action_j_zero_is_j_independent() {
        let m = model(3, 2);
        let x = m.initial_state(&[Value::ZERO, Value::ONE, Value::ONE]);
        let a = m.apply(
            &x,
            MpSyncAction::Staggered {
                j: Pid::new(0),
                k: 0,
            },
        );
        let b = m.apply(
            &x,
            MpSyncAction::Staggered {
                j: Pid::new(2),
                k: 0,
            },
        );
        assert_eq!(a, b);
    }

    #[test]
    fn staggering_controls_visibility() {
        let m = model(3, 1);
        let x = m.initial_state(&[Value::ZERO, Value::ONE, Value::ONE]);
        let j = Pid::new(0); // holds the minimum
                             // Everyone proper receives early: they miss j's 0.
        let y = m.apply(&x, MpSyncAction::Staggered { j, k: 3 });
        assert_eq!(y.decided[1], Some(Value::ONE));
        assert_eq!(y.decided[2], Some(Value::ONE));
        // k = 0: everyone receives late and sees j's 0.
        let z = m.apply(&x, MpSyncAction::Staggered { j, k: 0 });
        assert_eq!(z.decided[1], Some(Value::ZERO));
        assert_eq!(z.decided[2], Some(Value::ZERO));
    }

    #[test]
    fn absent_process_accumulates_mail() {
        let m = model(3, 2);
        let x = m.initial_state(&[Value::ZERO, Value::ONE, Value::ONE]);
        let y = m.apply(&x, MpSyncAction::Absent(Pid::new(0)));
        assert_eq!(y.phases_done, vec![0, 1, 1]);
        assert_eq!(y.mailboxes[0].len(), 2, "undrained offers from the proper");
    }

    #[test]
    fn bridge_transfers_to_message_passing() {
        let m = model(3, 4);
        for x in m.initial_states() {
            for j in Pid::all(3) {
                assert!(m.bridge_agrees(&x, j), "bridge failed at {x:?}, j={j}");
            }
        }
        // One layer deeper as well.
        let x = m.initial_state(&[Value::ZERO, Value::ONE, Value::ZERO]);
        let x1 = m.apply(
            &x,
            MpSyncAction::Staggered {
                j: Pid::new(1),
                k: 2,
            },
        );
        for j in Pid::all(3) {
            assert!(m.bridge_agrees(&x1, j));
        }
    }

    #[test]
    fn layers_valence_connected_and_runs_bivalent() {
        let m = model(3, 2);
        let mut solver = ValenceSolver::new(&m, 2);
        let x0 = solver.bivalent_initial_state().expect("bivalent init");
        let rep = valence_report(&mut solver, &m.layer(&x0));
        assert!(rep.connected);
        assert!(build_bivalent_run(&mut solver, 1).reached_target());
    }

    #[test]
    fn consensus_is_refuted() {
        for r in 1..=2u16 {
            let m = model(3, r);
            assert!(!check_consensus(&m, usize::from(r), 1, &NOOP).passed());
        }
    }
}
