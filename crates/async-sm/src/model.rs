//! The asynchronous read/write shared-memory model `M^rw` under the
//! synchronic layering `S^rw` (Section 5.1 of the paper).
//!
//! Registers are single-writer multi-reader. A *local phase* of process `i`
//! is at most one write of `V_i` followed by a read of every variable. The
//! layering organizes runs into virtual rounds with four stages
//! `W₁, R₁, W₂, R₂`, driven by environment actions:
//!
//! * `(j, A)` — process `j` is *absent*: the proper (other) processes write
//!   in `W₁` and read in `R₁`; `j` does nothing.
//! * `(j, k)` with `0 ≤ k ≤ n` — all proper processes write in `W₁` and `j`
//!   writes in `W₂`; proper processes `i ≤ k` read in `R₁` (missing `j`'s
//!   fresh write), while `j` and proper processes `i > k` read in `R₂`.
//!
//! Every `S^rw`-run is fair — all processes except at most one take local
//! phases infinitely often — which is how the layering sidesteps the
//! liveness bookkeeping of FLP-style proofs. Lemma 5.3 transfers the
//! abstract analysis, and Corollary 5.4 (Loui–Abu-Amara) follows: consensus
//! is unsolvable even in this barely-asynchronous submodel.

use std::collections::HashSet;

use layered_core::{
    pack_decision, unpack_decision, LayeredModel, Pid, PidGroup, PidPerm, StatePacker, Symmetric,
    Value, DECISION_BITS,
};
use layered_protocols::{Anonymous, SmProtocol};

use crate::state::SmState;

/// Shorthand for the state type of a model over protocol `P`.
pub type StateOf<P> = SmState<<P as SmProtocol>::LocalState, <P as SmProtocol>::Reg>;

/// An environment action of the synchronic layering.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum SmAction {
    /// `(j, A)`: process `j` neither writes nor reads this round.
    Absent(Pid),
    /// `(j, k)`: `j` writes late (`W₂`); proper processes with 1-based index
    /// `≤ k` read early (`R₁`), the rest — and `j` — read late (`R₂`).
    Staggered {
        /// The slow process.
        j: Pid,
        /// The early-reader prefix bound `0 ≤ k ≤ n` (1-based, as in the
        /// paper).
        k: usize,
    },
    /// `(j, E)`: `j` writes late; the proper processes in the *arbitrary*
    /// set `E` read early, the rest — and `j` — read late. The
    /// renaming-closed generalization of `Staggered` (whose prefix `[k]` is
    /// the special case `E = {0, …, k−1}`) that
    /// [`SmLayering::FullSplit`] enumerates.
    Split {
        /// The slow process.
        j: Pid,
        /// Early-reader set as a bitmask over 0-based process indices
        /// (bit `i` ⇒ process `i` reads at `R₁`; `j`'s bit is ignored).
        early: u64,
    },
}

/// Which successor function the model exposes through
/// [`LayeredModel::successors`].
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum SmLayering {
    /// The paper's synchronic layering `S^rw`: early readers form a prefix
    /// `[k]`.
    #[default]
    Synchronic,
    /// Early readers form an arbitrary subset `E` ([`SmAction::Split`]),
    /// plus the absences. (Exponential branching, but closed under process
    /// renaming — the layering the symmetry-reduced engine quotients.)
    FullSplit,
}

/// The shared-memory model, parameterized by a deterministic phase protocol.
///
/// # Examples
///
/// ```
/// use layered_core::check_consensus;
/// use layered_core::telemetry::NOOP;
/// use layered_protocols::SmFloodMin;
/// use layered_async_sm::SmModel;
///
/// let m = SmModel::new(3, SmFloodMin::new(2));
/// // Corollary 5.4: consensus is unsolvable; the checker exhibits a
/// // violation for this candidate at its own deadline.
/// assert!(!check_consensus(&m, 2, 1, &NOOP).passed());
/// ```
#[derive(Clone, Debug)]
pub struct SmModel<P: SmProtocol> {
    n: usize,
    protocol: P,
    /// Processes with at least this many completed phases are obliged to
    /// have decided at horizon states; `None` means "completed every phase".
    obligation: Option<u16>,
    layering: SmLayering,
    packer: Option<StatePacker<SmState<P::LocalState, P::Reg>>>,
}

impl<P: SmProtocol> SmModel<P> {
    /// A model with `n` processes.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`.
    #[must_use]
    pub fn new(n: usize, protocol: P) -> Self {
        assert!(n >= 2, "the paper assumes n >= 2");
        let packer = build_packer(n, &protocol);
        SmModel {
            n,
            protocol,
            obligation: None,
            layering: SmLayering::Synchronic,
            packer,
        }
    }

    /// Selects the successor function exposed by [`LayeredModel`].
    #[must_use]
    pub fn with_layering(mut self, layering: SmLayering) -> Self {
        self.layering = layering;
        self
    }

    /// Obliges every process with at least `phases` completed local phases
    /// to have decided at horizon states (used when a protocol's deadline is
    /// below the analysis horizon).
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

    /// All actions available in a synchronic (`S^rw`) layer.
    #[must_use]
    pub fn actions(&self) -> Vec<SmAction> {
        let mut out = Vec::new();
        for j in Pid::all(self.n) {
            for k in 0..=self.n {
                out.push(SmAction::Staggered { j, k });
            }
            out.push(SmAction::Absent(j));
        }
        out
    }

    /// All actions available in a full-split layer: per slow process `j`,
    /// every early-reader subset of the proper processes, plus the absence.
    #[must_use]
    pub fn split_actions(&self) -> Vec<SmAction> {
        let mut out = Vec::new();
        for j in Pid::all(self.n) {
            for early in 0..(1u64 << self.n) {
                if (early >> j.index()) & 1 == 0 {
                    out.push(SmAction::Split { j, early });
                }
            }
            out.push(SmAction::Absent(j));
        }
        out
    }

    /// Applies an environment action: one `W₁ R₁ W₂ R₂` virtual round.
    #[must_use]
    pub fn apply(
        &self,
        x: &SmState<P::LocalState, P::Reg>,
        action: SmAction,
    ) -> SmState<P::LocalState, P::Reg> {
        let n = self.n;
        let mut regs = x.regs.clone();
        let mut locals = x.locals.clone();
        let mut decided = x.decided.clone();
        let mut phases_done = x.phases_done.clone();

        // Early readers as a bitmask: with `j` absent there is no `W₂`, so
        // the two snapshots coincide and the mask is irrelevant.
        let (j, early_mask, j_participates) = match action {
            SmAction::Absent(j) => (j, u64::MAX, false),
            SmAction::Staggered { j, k } => {
                assert!(k <= n, "k ranges over 0..=n");
                let mask = if k == 0 { 0 } else { u64::MAX >> (64 - k) };
                (j, mask, true)
            }
            SmAction::Split { j, early } => (j, early, true),
        };

        // W₁: proper processes write.
        for i in 0..n {
            if i == j.index() {
                continue;
            }
            if let Some(w) = self.protocol.write_value(&locals[i]) {
                regs[i] = Some(w);
            }
        }
        // R₁: early readers snapshot the registers now.
        let early_snapshot = regs.clone();
        // W₂: j writes (if participating).
        if j_participates {
            if let Some(w) = self.protocol.write_value(&locals[j.index()]) {
                regs[j.index()] = Some(w);
            }
        }
        // R₂ snapshot.
        let late_snapshot = regs.clone();

        let mut absorb = |i: usize, snapshot: &[Option<P::Reg>]| {
            let ls = self
                .protocol
                .absorb(locals[i].clone(), Pid::new(i), snapshot);
            if decided[i].is_none() {
                decided[i] = self.protocol.decide(&ls);
            }
            locals[i] = ls;
            phases_done[i] += 1;
        };

        for i in 0..n {
            if i == j.index() {
                continue;
            }
            // The paper's `i ≤ k` is 1-based; as a 0-based mask: bit i set.
            if (early_mask >> i) & 1 == 1 {
                absorb(i, &early_snapshot);
            } else {
                absorb(i, &late_snapshot);
            }
        }
        if j_participates {
            absorb(j.index(), &late_snapshot);
        }

        SmState {
            phase: x.phase + 1,
            inputs: x.inputs.clone(),
            regs,
            locals,
            decided,
            phases_done,
        }
    }

    /// The layer `S^rw(x)`, deduplicated.
    #[must_use]
    pub fn layer(&self, x: &SmState<P::LocalState, P::Reg>) -> Vec<SmState<P::LocalState, P::Reg>> {
        self.layer_of(x, self.actions())
    }

    /// The full-split layer of `x` (what [`SmLayering::FullSplit`] exposes
    /// as [`LayeredModel::successors`]), deduplicated.
    #[must_use]
    pub fn full_split_layer(
        &self,
        x: &SmState<P::LocalState, P::Reg>,
    ) -> Vec<SmState<P::LocalState, P::Reg>> {
        self.layer_of(x, self.split_actions())
    }

    fn layer_of(
        &self,
        x: &SmState<P::LocalState, P::Reg>,
        actions: Vec<SmAction>,
    ) -> Vec<SmState<P::LocalState, P::Reg>> {
        let mut out = Vec::new();
        let mut seen = HashSet::new();
        for action in actions {
            let y = self.apply(x, action);
            if seen.insert(y.clone()) {
                out.push(y);
            }
        }
        out
    }

    /// The bridge pair of Lemma 5.3: `(x(j,n)(j,A), x(j,A)(j,0))`.
    ///
    /// The paper's argument shows these two states agree modulo `j`, which
    /// links `x(j, n) ∼_v x(j, A)` and completes valence connectivity of the
    /// layer. [`Self::bridge_agrees`] checks the claim on a concrete state.
    #[must_use]
    pub fn bridge_pair(&self, x: &StateOf<P>, j: Pid) -> (StateOf<P>, StateOf<P>) {
        let y = self.apply(
            &self.apply(x, SmAction::Staggered { j, k: self.n }),
            SmAction::Absent(j),
        );
        let y2 = self.apply(
            &self.apply(x, SmAction::Absent(j)),
            SmAction::Staggered { j, k: 0 },
        );
        (y, y2)
    }

    /// Whether the Lemma 5.3 bridge states agree modulo `j` at `x`.
    #[must_use]
    pub fn bridge_agrees(&self, x: &SmState<P::LocalState, P::Reg>, j: Pid) -> bool {
        let (y, y2) = self.bridge_pair(x, j);
        self.agree_modulo(&y, &y2, j)
    }
}

/// Builds the packed codec for an `n`-process shared-memory model, if the
/// protocol packs both its local states and its register values and the
/// lanes fit one word. Layout, low bits first: `n` lanes of `2` input
/// bits, [`DECISION_BITS`] decision bits, the local codec, a register
/// presence tag plus the register codec (the single-writer `V_i` travels
/// with process `i`), and 4 phases-done bits (the one pid group); then 8
/// phase bits on top.
fn build_packer<P: SmProtocol>(
    n: usize,
    protocol: &P,
) -> Option<StatePacker<SmState<P::LocalState, P::Reg>>> {
    let lp = protocol.local_packer()?;
    let rp = protocol.reg_packer()?;
    let reg_off = 2 + DECISION_BITS + lp.bits();
    let phases_off = reg_off + 1 + rp.bits();
    let lane = phases_off + 4;
    let head = n as u32 * lane;
    if head + 8 > 127 {
        return None;
    }
    let pack = {
        let lp = lp.clone();
        let rp = rp.clone();
        move |x: &SmState<P::LocalState, P::Reg>| {
            if x.locals.len() != n || x.phase >= 1 << 8 {
                return None;
            }
            let mut w = u128::from(x.phase) << head;
            for i in 0..n {
                let off = i as u32 * lane;
                let inp = u64::from(x.inputs[i].get());
                if inp >= 4 || x.phases_done[i] >= 16 {
                    return None;
                }
                let dec = pack_decision(x.decided[i])?;
                let loc = lp.pack(&x.locals[i])?;
                if let Some(r) = &x.regs[i] {
                    w |= 1 << (off + reg_off);
                    w |= u128::from(rp.pack(r)?) << (off + reg_off + 1);
                }
                w |= u128::from(inp) << off;
                w |= u128::from(dec) << (off + 2);
                w |= u128::from(loc) << (off + 2 + DECISION_BITS);
                w |= u128::from(x.phases_done[i]) << (off + phases_off);
            }
            Some(w)
        }
    };
    let unpack = move |w: u128| {
        let mut inputs = Vec::with_capacity(n);
        let mut regs = Vec::with_capacity(n);
        let mut locals = Vec::with_capacity(n);
        let mut decided = Vec::with_capacity(n);
        let mut phases_done = Vec::with_capacity(n);
        for i in 0..n {
            let off = i as u32 * lane;
            inputs.push(Value::new(((w >> off) & 0b11) as u32));
            decided.push(unpack_decision(
                ((w >> (off + 2)) as u64) & ((1 << DECISION_BITS) - 1),
            ));
            locals.push(lp.unpack(((w >> (off + 2 + DECISION_BITS)) as u64) & lp.mask()));
            regs.push(
                (w >> (off + reg_off) & 1 == 1)
                    .then(|| rp.unpack(((w >> (off + reg_off + 1)) as u64) & rp.mask())),
            );
            phases_done.push(((w >> (off + phases_off)) & 0xF) as u16);
        }
        SmState {
            phase: ((w >> head) & 0xFF) as u16,
            inputs,
            regs,
            locals,
            decided,
            phases_done,
        }
    };
    let lanes = PidGroup {
        start: 0,
        width: lane,
    };
    Some(StatePacker::new(pack, unpack).with_pid_groups(n, &[lanes]))
}

impl<P: SmProtocol> LayeredModel for SmModel<P> {
    type State = SmState<P::LocalState, P::Reg>;

    fn num_processes(&self) -> usize {
        self.n
    }

    fn max_failures(&self) -> usize {
        1
    }

    fn initial_state(&self, inputs: &[Value]) -> Self::State {
        assert_eq!(inputs.len(), self.n, "one input per process");
        let locals: Vec<P::LocalState> = inputs
            .iter()
            .enumerate()
            .map(|(i, &v)| self.protocol.init(self.n, Pid::new(i), v))
            .collect();
        let decided = locals.iter().map(|ls| self.protocol.decide(ls)).collect();
        SmState {
            phase: 0,
            inputs: inputs.to_vec(),
            regs: vec![None; self.n],
            locals,
            decided,
            phases_done: vec![0; self.n],
        }
    }

    fn successors(&self, x: &Self::State) -> Vec<Self::State> {
        match self.layering {
            SmLayering::Synchronic => self.layer(x),
            SmLayering::FullSplit => self.full_split_layer(x),
        }
    }

    fn depth(&self, x: &Self::State) -> usize {
        usize::from(x.phase)
    }

    fn inputs_of(&self, x: &Self::State) -> Vec<Value> {
        x.inputs.clone()
    }

    fn decision(&self, x: &Self::State, i: Pid) -> Option<Value> {
        x.decided[i.index()]
    }

    fn failed_at(&self, _x: &Self::State, _i: Pid) -> bool {
        // The asynchronous model displays no finite failure: a process that
        // has been absent can always resume.
        false
    }

    fn agree_modulo(&self, x: &Self::State, y: &Self::State, j: Pid) -> bool {
        // Environment (registers, including V_j!) must be equal; locals,
        // decisions, inputs and phase counts equal except at j.
        x.phase == y.phase
            && x.regs == y.regs
            && (0..self.n).all(|i| {
                i == j.index()
                    || (x.locals[i] == y.locals[i]
                        && x.decided[i] == y.decided[i]
                        && x.inputs[i] == y.inputs[i]
                        && x.phases_done[i] == y.phases_done[i])
            })
    }

    fn crash_step(&self, x: &Self::State, j: Pid) -> Self::State {
        self.apply(x, SmAction::Absent(j))
    }

    fn state_packer(&self) -> Option<&StatePacker<Self::State>> {
        self.packer.as_ref()
    }

    fn obligated(&self, x: &Self::State) -> Vec<Pid> {
        match self.obligation {
            Some(r) => Pid::all(self.n)
                .filter(|i| x.phases_done[i.index()] >= r)
                .collect(),
            None => x.always_proper().collect(),
        }
    }
}

// Renaming relocates every per-process component, registers included (the
// registers are single-writer, so `V_i` travels with process `i`). For an
// anonymous protocol the full-split environment is equivariant:
// `(π·x)(π(j), π(E)) = π·(x(j, E))` and `(π·x)(π(j), A) = π·(x(j, A))`, and
// arbitrary early-reader subsets are closed under renaming. The synchronic
// `S^rw` is not (prefixes `[k]` aren't renaming-closed), so only
// `SmLayering::FullSplit` may be quotiented.
impl<P> Symmetric for SmModel<P>
where
    P: SmProtocol + Anonymous,
    P::LocalState: Ord,
    P::Reg: Ord,
{
    fn permute_state(&self, x: &Self::State, perm: &PidPerm) -> Self::State {
        SmState {
            phase: x.phase,
            inputs: perm.permute_vec(&x.inputs),
            regs: perm.permute_vec(&x.regs),
            locals: perm.permute_vec(&x.locals),
            decided: perm.permute_vec(&x.decided),
            phases_done: perm.permute_vec(&x.phases_done),
        }
    }

    fn symmetric_layering(&self) -> bool {
        self.layering == SmLayering::FullSplit
    }
}

#[cfg(test)]
mod tests {
    use layered_core::telemetry::NOOP;
    use layered_core::{
        check_crash_display, check_fault_independence, check_graded, similarity_report,
        valence_report, Region, ValenceSolver,
    };
    use layered_protocols::SmFloodMin;

    use super::*;

    fn model(n: usize, phases: u16) -> SmModel<SmFloodMin> {
        SmModel::new(n, SmFloodMin::new(phases))
    }

    #[test]
    fn initial_states_form_con0() {
        let m = model(3, 2);
        let inits = m.initial_states();
        assert_eq!(inits.len(), 8);
        assert!(inits.iter().all(|x| x.regs.iter().all(Option::is_none)));
    }

    #[test]
    fn structural_contracts_hold() {
        let m = model(3, 2);
        let region = Region::reachable(&m, 2, &NOOP);
        assert_eq!(check_graded(&m, &region), None);
        assert_eq!(check_fault_independence(&m, &region), None);
        assert_eq!(check_crash_display(&m, &region), None);
    }

    #[test]
    fn action_j_zero_is_j_independent() {
        // The paper: the state from (j, 0) depends on x but not on j.
        let m = model(3, 2);
        let x = m.initial_state(&[Value::ZERO, Value::ONE, Value::ONE]);
        let a = m.apply(
            &x,
            SmAction::Staggered {
                j: Pid::new(0),
                k: 0,
            },
        );
        let b = m.apply(
            &x,
            SmAction::Staggered {
                j: Pid::new(2),
                k: 0,
            },
        );
        assert_eq!(a, b);
    }

    #[test]
    fn absent_process_takes_no_phase() {
        let m = model(2, 2);
        let x = m.initial_state(&[Value::ZERO, Value::ONE]);
        let y = m.apply(&x, SmAction::Absent(Pid::new(0)));
        assert_eq!(y.phases_done, vec![0, 1]);
        assert_eq!(y.locals[0], x.locals[0]);
        assert_eq!(y.regs[0], None, "absent process never wrote");
    }

    #[test]
    fn staggered_k_controls_visibility_of_js_write() {
        let m = model(3, 1);
        let x = m.initial_state(&[Value::ZERO, Value::ONE, Value::ONE]);
        let j = Pid::new(0); // j holds the minimum 0
                             // k = n: every proper process reads early and misses j's write.
        let y = m.apply(&x, SmAction::Staggered { j, k: 3 });
        assert_eq!(y.decided[1], Some(Value::ONE));
        assert_eq!(y.decided[2], Some(Value::ONE));
        // j read late and saw everything.
        assert_eq!(y.decided[0], Some(Value::ZERO));
        // k = 0: every proper process reads late and sees j's 0.
        let z = m.apply(&x, SmAction::Staggered { j, k: 0 });
        assert_eq!(z.decided[1], Some(Value::ZERO));
        assert_eq!(z.decided[2], Some(Value::ZERO));
    }

    #[test]
    fn intermediate_k_splits_readers() {
        let m = model(3, 1);
        let x = m.initial_state(&[Value::ZERO, Value::ONE, Value::ONE]);
        let j = Pid::new(0);
        // k = 2: proper p2 reads early (misses 0), proper p3 reads late.
        let y = m.apply(&x, SmAction::Staggered { j, k: 2 });
        assert_eq!(y.decided[1], Some(Value::ONE));
        assert_eq!(y.decided[2], Some(Value::ZERO));
    }

    #[test]
    fn bridge_lemma_5_3_holds() {
        // x(j,n)(j,A) agrees modulo j with x(j,A)(j,0) — for every x and j.
        let m = model(3, 4);
        for x in m.initial_states() {
            for j in Pid::all(3) {
                assert!(m.bridge_agrees(&x, j), "bridge failed at {x:?}, j={j}");
            }
            // Also one level deeper.
            let x1 = m.apply(
                &x,
                SmAction::Staggered {
                    j: Pid::new(1),
                    k: 1,
                },
            );
            for j in Pid::all(3) {
                assert!(m.bridge_agrees(&x1, j));
            }
        }
    }

    #[test]
    fn subset_y_of_layer_is_similarity_connected() {
        // Lemma 5.3 proof, first step: Y = { x(j,k) : k ≠ A } is similarity
        // connected.
        let m = model(3, 2);
        let x = m.initial_state(&[Value::ZERO, Value::ONE, Value::ZERO]);
        let mut y: Vec<_> = Vec::new();
        let mut seen = std::collections::HashSet::new();
        for j in Pid::all(3) {
            for k in 0..=3 {
                let s = m.apply(&x, SmAction::Staggered { j, k });
                if seen.insert(s.clone()) {
                    y.push(s);
                }
            }
        }
        let rep = similarity_report(&m, &y, &NOOP);
        assert!(rep.connected, "Y must be similarity connected");
    }

    #[test]
    fn full_layer_is_valence_connected() {
        // Lemma 5.3(iii): S^rw(x) is valence connected (via the bridge).
        let m = model(3, 2);
        let x = m.initial_state(&[Value::ZERO, Value::ONE, Value::ONE]);
        let mut solver = ValenceSolver::new(&m, 2);
        let layer = m.layer(&x);
        let rep = valence_report(&mut solver, &layer);
        assert!(rep.connected, "S^rw(x) must be valence connected");
    }

    #[test]
    fn obligation_override() {
        let m = model(2, 1).with_obligation(1);
        let x = m.initial_state(&[Value::ZERO, Value::ZERO]);
        let y = m.apply(&x, SmAction::Absent(Pid::new(0)));
        // p2 completed 1 phase => obligated; p1 completed 0 => not.
        assert_eq!(m.obligated(&y), vec![Pid::new(1)]);
    }

    #[test]
    fn write_once_decisions() {
        let m = model(2, 1);
        let x = m.initial_state(&[Value::ONE, Value::ONE]);
        // p2 decides 1 after its first phase while p1 is absent...
        let y = m.apply(&x, SmAction::Absent(Pid::new(0)));
        assert_eq!(y.decided[1], Some(Value::ONE));
        // ...then p1 wakes with a 0... cannot happen for inputs (1,1); use a
        // mixed instance instead:
        let x = m.initial_state(&[Value::ZERO, Value::ONE]);
        let y = m.apply(&x, SmAction::Absent(Pid::new(0)));
        assert_eq!(y.decided[1], Some(Value::ONE));
        let z = m.apply(
            &y,
            SmAction::Staggered {
                j: Pid::new(0),
                k: 0,
            },
        );
        // p2 now knows 0, but its decision is latched at 1.
        assert_eq!(z.decided[1], Some(Value::ONE));
        assert_eq!(z.decided[0], Some(Value::ZERO)); // agreement violation!
    }
}
