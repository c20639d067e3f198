//! The *base* shared-memory model: an interpreter over atomic read/write
//! steps, used to certify that `S^rw` is a layering of `M^rw`
//! (Lemma 5.3(i)).
//!
//! The paper defines a local phase as "at most one `write_i` action,
//! followed by a maximal sequence of `read_i(V_j)` actions in which no
//! variable is read more than once", and the layering as a scheduler
//! discipline over such phases. [`replay`] executes an arbitrary atomic
//! schedule under exactly those rules; [`schedule_for`] produces the
//! `W₁ R₁ W₂ R₂` schedule realizing a layer action. The soundness check —
//! replaying the schedule reproduces the layered transition — is
//! [`layer_action_is_legal_schedule`], exercised over every action in the
//! crate's tests and experiments.

use layered_core::Pid;
use layered_protocols::SmProtocol;

use crate::model::SmAction;
use crate::state::SmState;

/// One atomic step of the base model.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SmOp {
    /// `write_i`: process `i` writes its register (value determined by its
    /// protocol and current local state). Must be the first action of `i`'s
    /// local phase.
    Write(Pid),
    /// `read_i(V_var)`: process `i` reads register `var`. Each variable at
    /// most once per phase; the phase completes when all `n` variables have
    /// been read.
    Read {
        /// The reading process.
        reader: Pid,
        /// The register being read.
        var: Pid,
    },
}

/// Why a schedule is illegal.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ScheduleError {
    /// A write after the process already started reading (or wrote twice).
    WriteMidPhase(Pid),
    /// A write scheduled for a process whose protocol skips the write.
    WriteSkipped(Pid),
    /// The same variable read twice within one phase.
    DoubleRead {
        /// The reading process.
        reader: Pid,
        /// The doubly-read register.
        var: Pid,
    },
    /// The schedule ended with a process mid-phase.
    IncompletePhase(Pid),
}

/// Per-process phase progress.
#[derive(Clone, Debug)]
struct PhaseProgress<R> {
    wrote: bool,
    reads: Vec<Option<Option<R>>>, // reads[var] = Some(value-read)
}

impl<R> PhaseProgress<R> {
    fn fresh(n: usize) -> Self {
        PhaseProgress {
            wrote: false,
            reads: std::iter::repeat_with(|| None).take(n).collect(),
        }
    }

    fn started(&self) -> bool {
        self.wrote || self.reads.iter().any(Option::is_some)
    }

    fn complete(&self) -> bool {
        self.reads.iter().all(Option::is_some)
    }
}

/// Replays an atomic schedule from `x` under the base-model rules and
/// returns the resulting state (with the virtual round counter advanced by
/// `rounds`, for comparison against layered transitions).
///
/// # Errors
///
/// Returns a [`ScheduleError`] if the schedule violates the local-phase
/// discipline.
pub fn replay<P: SmProtocol>(
    protocol: &P,
    x: &SmState<P::LocalState, P::Reg>,
    ops: &[SmOp],
    rounds: u16,
) -> Result<SmState<P::LocalState, P::Reg>, ScheduleError> {
    let n = x.len();
    let mut regs = x.regs.clone();
    let mut locals = x.locals.clone();
    let mut decided = x.decided.clone();
    let mut phases_done = x.phases_done.clone();
    let mut progress: Vec<PhaseProgress<P::Reg>> =
        (0..n).map(|_| PhaseProgress::fresh(n)).collect();

    for &op in ops {
        match op {
            SmOp::Write(i) => {
                let p = &mut progress[i.index()];
                if p.started() {
                    return Err(ScheduleError::WriteMidPhase(i));
                }
                match protocol.write_value(&locals[i.index()]) {
                    Some(w) => regs[i.index()] = Some(w),
                    None => return Err(ScheduleError::WriteSkipped(i)),
                }
                p.wrote = true;
            }
            SmOp::Read { reader, var } => {
                let p = &mut progress[reader.index()];
                if p.reads[var.index()].is_some() {
                    return Err(ScheduleError::DoubleRead { reader, var });
                }
                p.reads[var.index()] = Some(regs[var.index()].clone());
                if p.complete() {
                    let collected: Vec<Option<P::Reg>> = p
                        .reads
                        .iter()
                        .map(|slot| slot.clone().expect("complete phase"))
                        .collect();
                    let ls = protocol.absorb(locals[reader.index()].clone(), reader, &collected);
                    if decided[reader.index()].is_none() {
                        decided[reader.index()] = protocol.decide(&ls);
                    }
                    locals[reader.index()] = ls;
                    phases_done[reader.index()] += 1;
                    progress[reader.index()] = PhaseProgress::fresh(n);
                }
            }
        }
    }
    if let Some(i) = (0..n).find(|&i| progress[i].started()) {
        return Err(ScheduleError::IncompletePhase(Pid::new(i)));
    }
    Ok(SmState {
        phase: x.phase + rounds,
        inputs: x.inputs.clone(),
        regs,
        locals,
        decided,
        phases_done,
    })
}

/// The `W₁ R₁ W₂ R₂` atomic schedule realizing a layer action at `x`.
///
/// Write steps are emitted only for processes whose protocol actually
/// writes in this phase (the paper's "at most one write").
pub fn schedule_for<P: SmProtocol>(
    protocol: &P,
    x: &SmState<P::LocalState, P::Reg>,
    action: SmAction,
) -> Vec<SmOp> {
    let n = x.len();
    let mut ops = Vec::new();
    let (j, early_mask, j_participates) = match action {
        SmAction::Absent(j) => (j, u64::MAX, false),
        SmAction::Staggered { j, k } => {
            let mask = if k == 0 { 0 } else { u64::MAX >> (64 - k) };
            (j, mask, true)
        }
        SmAction::Split { j, early } => (j, early, true),
    };
    let wants_write = |i: usize| protocol.write_value(&x.locals[i]).is_some();
    let emit_reads = |ops: &mut Vec<SmOp>, reader: usize| {
        for var in 0..n {
            ops.push(SmOp::Read {
                reader: Pid::new(reader),
                var: Pid::new(var),
            });
        }
    };
    // W₁
    for i in 0..n {
        if i != j.index() && wants_write(i) {
            ops.push(SmOp::Write(Pid::new(i)));
        }
    }
    // R₁
    for i in 0..n {
        if i != j.index() && (early_mask >> i) & 1 == 1 {
            emit_reads(&mut ops, i);
        }
    }
    // W₂
    if j_participates && wants_write(j.index()) {
        ops.push(SmOp::Write(j));
    }
    // R₂
    for i in 0..n {
        if i != j.index() && (early_mask >> i) & 1 == 0 {
            emit_reads(&mut ops, i);
        }
    }
    if j_participates {
        emit_reads(&mut ops, j.index());
    }
    ops
}

/// Lemma 5.3(i), one action at a time: replaying the `W₁ R₁ W₂ R₂` schedule
/// of `action` in the base model reproduces the layered transition exactly.
pub fn layer_action_is_legal_schedule<P: SmProtocol>(
    model: &crate::model::SmModel<P>,
    x: &SmState<P::LocalState, P::Reg>,
    action: SmAction,
) -> bool {
    let ops = schedule_for(model.protocol(), x, action);
    match replay(model.protocol(), x, &ops, 1) {
        Ok(replayed) => replayed == model.apply(x, action),
        Err(_) => false,
    }
}

#[cfg(test)]
mod tests {
    use layered_core::{LayeredModel, Value};
    use layered_protocols::SmFloodMin;

    use super::*;
    use crate::model::SmModel;

    fn setup(
        n: usize,
    ) -> (
        SmModel<SmFloodMin>,
        SmState<layered_protocols::FloodState, layered_protocols::ValueSet>,
    ) {
        let m = SmModel::new(n, SmFloodMin::new(2));
        let x = m.initial_state(
            &(0..n)
                .map(|i| if i == 0 { Value::ZERO } else { Value::ONE })
                .collect::<Vec<_>>(),
        );
        (m, x)
    }

    #[test]
    fn every_layer_action_is_a_legal_schedule() {
        let (m, x) = setup(3);
        for action in m.actions() {
            assert!(
                layer_action_is_legal_schedule(&m, &x, action),
                "action {action:?} failed the base-model replay"
            );
        }
        // One layer deeper as well.
        let x1 = m.apply(
            &x,
            SmAction::Staggered {
                j: Pid::new(1),
                k: 2,
            },
        );
        for action in m.actions() {
            assert!(layer_action_is_legal_schedule(&m, &x1, action));
        }
    }

    #[test]
    fn double_read_is_rejected() {
        let (m, x) = setup(2);
        let reader = Pid::new(0);
        let var = Pid::new(1);
        let ops = vec![SmOp::Read { reader, var }, SmOp::Read { reader, var }];
        assert_eq!(
            replay(m.protocol(), &x, &ops, 1),
            Err(ScheduleError::DoubleRead { reader, var })
        );
    }

    #[test]
    fn write_mid_phase_is_rejected() {
        let (m, x) = setup(2);
        let p = Pid::new(0);
        let ops = vec![
            SmOp::Read {
                reader: p,
                var: Pid::new(0),
            },
            SmOp::Write(p),
        ];
        assert_eq!(
            replay(m.protocol(), &x, &ops, 1),
            Err(ScheduleError::WriteMidPhase(p))
        );
    }

    #[test]
    fn incomplete_phase_is_rejected() {
        let (m, x) = setup(2);
        let ops = vec![SmOp::Write(Pid::new(0))];
        assert_eq!(
            replay(m.protocol(), &x, &ops, 1),
            Err(ScheduleError::IncompletePhase(Pid::new(0)))
        );
    }

    #[test]
    fn interleaved_phases_are_legal() {
        // Base model allows arbitrary interleavings, not just layer shapes.
        let (m, x) = setup(2);
        let (a, b) = (Pid::new(0), Pid::new(1));
        let ops = vec![
            SmOp::Write(a),
            SmOp::Write(b),
            SmOp::Read { reader: a, var: a },
            SmOp::Read { reader: b, var: b },
            SmOp::Read { reader: a, var: b },
            SmOp::Read { reader: b, var: a },
        ];
        let y = replay(m.protocol(), &x, &ops, 1).expect("legal schedule");
        assert_eq!(y.phases_done, vec![1, 1]);
    }

    #[test]
    fn two_layer_composition_replays() {
        // Composing two layer schedules end-to-end is again legal: the
        // monotone-embedding part of the layering definition.
        let (m, x) = setup(3);
        let a1 = SmAction::Staggered {
            j: Pid::new(0),
            k: 3,
        };
        let a2 = SmAction::Absent(Pid::new(0));
        let mut ops = schedule_for(m.protocol(), &x, a1);
        let mid = m.apply(&x, a1);
        ops.extend(schedule_for(m.protocol(), &mid, a2));
        let end = replay(m.protocol(), &x, &ops, 2).expect("legal composition");
        assert_eq!(end, m.apply(&mid, a2));
    }
}
