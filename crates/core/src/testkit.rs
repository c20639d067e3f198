//! Tiny hand-scripted models for testing the kernel.
//!
//! Two families are provided:
//!
//! * [`CounterModel`] — a contentless graded graph (no decisions, no
//!   failures), useful for exercising exploration plumbing.
//! * [`ScriptedModel`] — a model defined by explicit adjacency, decision,
//!   failure, and agreement tables, so kernel analyses can be tested against
//!   hand-computed expectations. Build one with [`ScriptedModelBuilder`].
//!
//! These types are exposed publicly (rather than `#[cfg(test)]`) so that
//! doc-tests and downstream crates' tests can use them; they are not part of
//! the conceptual API surface.

use std::collections::{HashMap, HashSet};

use crate::space::pack::{PidGroup, StatePacker};
use crate::space::snapshot::{SnapshotError, SnapshotReader, SnapshotState};
use crate::sym::{PidPerm, Symmetric};
use crate::{LayeredModel, Pid, Value};

/// A trivial graded model: each state has `branch` successors, no decisions,
/// no failures. Used to exercise exploration utilities.
#[derive(Clone, Debug)]
pub struct CounterModel {
    n: usize,
    branch: u8,
    packer: Option<StatePacker<CounterState>>,
}

/// The state of a [`CounterModel`].
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct CounterState {
    /// The input vector this run started from.
    pub inputs: Vec<Value>,
    /// Layer counter.
    pub depth: u8,
    /// Which branch was taken last.
    pub label: u8,
}

impl CounterModel {
    /// A model with `n` processes and `branch`-way branching.
    #[must_use]
    pub fn new(n: usize, branch: u8) -> Self {
        assert!(n >= 2 && branch >= 1);
        CounterModel {
            n,
            branch,
            packer: counter_packer(n),
        }
    }
}

/// Packs a counter state as `n` two-bit input lanes (values below 4, the
/// one pid group), then 8 bits of depth and 8 bits of label.
fn counter_packer(n: usize) -> Option<StatePacker<CounterState>> {
    if 2 * n + 16 > 127 {
        return None;
    }
    let pack = move |x: &CounterState| {
        if x.inputs.len() != n {
            return None;
        }
        let mut w = 0u128;
        for i in 0..n {
            let v = x.inputs[i].get();
            if v >= 4 {
                return None;
            }
            w |= u128::from(v) << (2 * i);
        }
        w |= u128::from(x.depth) << (2 * n);
        w |= u128::from(x.label) << (2 * n + 8);
        Some(w)
    };
    let unpack = move |w: u128| CounterState {
        inputs: (0..n)
            .map(|i| Value::new(((w >> (2 * i)) & 0b11) as u32))
            .collect(),
        depth: ((w >> (2 * n)) & 0xFF) as u8,
        label: ((w >> (2 * n + 8)) & 0xFF) as u8,
    };
    let lanes = PidGroup { start: 0, width: 2 };
    Some(StatePacker::new(pack, unpack).with_pid_groups(n, &[lanes]))
}

impl SnapshotState for CounterState {
    fn encode(&self, out: &mut Vec<u8>) {
        self.inputs.encode(out);
        self.depth.encode(out);
        self.label.encode(out);
    }

    fn decode(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        Ok(CounterState {
            inputs: Vec::decode(r)?,
            depth: u8::decode(r)?,
            label: u8::decode(r)?,
        })
    }
}

impl LayeredModel for CounterModel {
    type State = CounterState;

    fn num_processes(&self) -> usize {
        self.n
    }

    fn max_failures(&self) -> usize {
        1
    }

    fn initial_state(&self, inputs: &[Value]) -> CounterState {
        assert_eq!(inputs.len(), self.n);
        CounterState {
            inputs: inputs.to_vec(),
            depth: 0,
            label: 0,
        }
    }

    fn successors(&self, x: &CounterState) -> Vec<CounterState> {
        (0..self.branch)
            .map(|label| CounterState {
                inputs: x.inputs.clone(),
                depth: x.depth + 1,
                label,
            })
            .collect()
    }

    fn depth(&self, x: &CounterState) -> usize {
        usize::from(x.depth)
    }

    fn inputs_of(&self, x: &CounterState) -> Vec<Value> {
        x.inputs.clone()
    }

    fn decision(&self, _x: &CounterState, _i: Pid) -> Option<Value> {
        None
    }

    fn failed_at(&self, _x: &CounterState, _i: Pid) -> bool {
        false
    }

    fn agree_modulo(&self, x: &CounterState, y: &CounterState, j: Pid) -> bool {
        x.depth == y.depth
            && x.label == y.label
            && x.inputs
                .iter()
                .zip(&y.inputs)
                .enumerate()
                .all(|(i, (a, b))| i == j.index() || a == b)
    }

    fn crash_step(&self, x: &CounterState, _j: Pid) -> CounterState {
        CounterState {
            inputs: x.inputs.clone(),
            depth: x.depth + 1,
            label: 0,
        }
    }

    fn state_packer(&self) -> Option<&StatePacker<CounterState>> {
        self.packer.as_ref()
    }
}

impl Symmetric for CounterModel {
    fn permute_state(&self, x: &CounterState, perm: &PidPerm) -> CounterState {
        CounterState {
            inputs: perm.permute_vec(&x.inputs),
            depth: x.depth,
            label: x.label,
        }
    }

    fn symmetric_layering(&self) -> bool {
        // Successors ignore process identity entirely (only `depth` and
        // `label` change), so the layering is trivially equivariant.
        true
    }
}

/// A model with its codec hidden: every [`LayeredModel`] and [`Symmetric`]
/// method forwards to the wrapped model except
/// [`state_packer`](LayeredModel::state_packer), which returns `None`, so an
/// arena built for it stores every state boxed. Canonicalization still
/// forwards (the one override of the provided rule), so quotient
/// representatives are unchanged. The boxed side of packed ≡ boxed tests.
#[derive(Clone, Debug)]
pub struct Unpacked<M>(pub M);

impl<M: LayeredModel> LayeredModel for Unpacked<M> {
    type State = M::State;

    fn num_processes(&self) -> usize {
        self.0.num_processes()
    }

    fn max_failures(&self) -> usize {
        self.0.max_failures()
    }

    fn initial_state(&self, inputs: &[Value]) -> M::State {
        self.0.initial_state(inputs)
    }

    fn initial_states(&self) -> Vec<M::State> {
        self.0.initial_states()
    }

    fn successors(&self, x: &M::State) -> Vec<M::State> {
        self.0.successors(x)
    }

    fn depth(&self, x: &M::State) -> usize {
        self.0.depth(x)
    }

    fn inputs_of(&self, x: &M::State) -> Vec<Value> {
        self.0.inputs_of(x)
    }

    fn decision(&self, x: &M::State, i: Pid) -> Option<Value> {
        self.0.decision(x, i)
    }

    fn failed_at(&self, x: &M::State, i: Pid) -> bool {
        self.0.failed_at(x, i)
    }

    fn agree_modulo(&self, x: &M::State, y: &M::State, j: Pid) -> bool {
        self.0.agree_modulo(x, y, j)
    }

    fn crash_step(&self, x: &M::State, j: Pid) -> M::State {
        self.0.crash_step(x, j)
    }

    fn obligated(&self, x: &M::State) -> Vec<Pid> {
        self.0.obligated(x)
    }

    fn non_failed(&self, x: &M::State) -> Vec<Pid> {
        self.0.non_failed(x)
    }
}

impl<M: Symmetric> Symmetric for Unpacked<M> {
    fn permute_state(&self, x: &M::State, perm: &PidPerm) -> M::State {
        self.0.permute_state(x, perm)
    }

    fn symmetric_layering(&self) -> bool {
        self.0.symmetric_layering()
    }

    fn canonicalize_with_orbit(&self, x: &M::State) -> (M::State, PidPerm, u64) {
        self.0.canonicalize_with_orbit(x)
    }
}

/// A model given by explicit tables over `u32` state identifiers.
#[derive(Clone, Debug, Default)]
pub struct ScriptedModel {
    n: usize,
    t: usize,
    initial: Vec<(Vec<Value>, u32)>,
    succ: HashMap<u32, Vec<u32>>,
    depth: HashMap<u32, usize>,
    inputs: HashMap<u32, Vec<Value>>,
    decisions: HashMap<(u32, usize), Value>,
    failed: HashSet<(u32, usize)>,
    agree: HashSet<(u32, u32, usize)>,
    crash: HashMap<(u32, usize), u32>,
}

impl LayeredModel for ScriptedModel {
    type State = u32;

    fn num_processes(&self) -> usize {
        self.n
    }

    fn max_failures(&self) -> usize {
        self.t
    }

    fn initial_state(&self, inputs: &[Value]) -> u32 {
        self.initial
            .iter()
            .find(|(iv, _)| iv == inputs)
            .map(|&(_, id)| id)
            .expect("scripted model has no initial state for these inputs")
    }

    fn initial_states(&self) -> Vec<u32> {
        self.initial.iter().map(|&(_, id)| id).collect()
    }

    fn successors(&self, x: &u32) -> Vec<u32> {
        self.succ.get(x).cloned().unwrap_or_default()
    }

    fn depth(&self, x: &u32) -> usize {
        self.depth.get(x).copied().unwrap_or(0)
    }

    fn inputs_of(&self, x: &u32) -> Vec<Value> {
        self.inputs
            .get(x)
            .cloned()
            .unwrap_or_else(|| vec![Value::ZERO; self.n])
    }

    fn decision(&self, x: &u32, i: Pid) -> Option<Value> {
        self.decisions.get(&(*x, i.index())).copied()
    }

    fn failed_at(&self, x: &u32, i: Pid) -> bool {
        self.failed.contains(&(*x, i.index()))
    }

    fn agree_modulo(&self, x: &u32, y: &u32, j: Pid) -> bool {
        x == y
            || self.agree.contains(&(*x, *y, j.index()))
            || self.agree.contains(&(*y, *x, j.index()))
    }

    fn crash_step(&self, x: &u32, j: Pid) -> u32 {
        if let Some(&to) = self.crash.get(&(*x, j.index())) {
            return to;
        }
        self.succ
            .get(x)
            .and_then(|v| v.first())
            .copied()
            .unwrap_or(*x)
    }
}

/// Builder for [`ScriptedModel`].
///
/// # Examples
///
/// ```
/// use layered_core::testkit::ScriptedModelBuilder;
/// use layered_core::{LayeredModel, Value};
///
/// let m = ScriptedModelBuilder::new(2, 1)
///     .initial(&[Value::ZERO, Value::ONE], 0)
///     .edge(0, 1)
///     .depth(0, 0)
///     .depth(1, 1)
///     .decision(1, 0, Value::ZERO)
///     .build();
/// assert_eq!(m.successors(&0), vec![1]);
/// ```
#[derive(Clone, Debug)]
pub struct ScriptedModelBuilder {
    model: ScriptedModel,
}

impl ScriptedModelBuilder {
    /// Starts a scripted model with `n` processes and resilience `t`.
    #[must_use]
    pub fn new(n: usize, t: usize) -> Self {
        ScriptedModelBuilder {
            model: ScriptedModel {
                n,
                t,
                ..ScriptedModel::default()
            },
        }
    }

    /// Declares `id` as the initial state for `inputs`.
    #[must_use]
    pub fn initial(mut self, inputs: &[Value], id: u32) -> Self {
        self.model.initial.push((inputs.to_vec(), id));
        self.model.inputs.insert(id, inputs.to_vec());
        self
    }

    /// Adds a layer edge `from → to`.
    #[must_use]
    pub fn edge(mut self, from: u32, to: u32) -> Self {
        let inherited = self.model.inputs.get(&from).cloned();
        self.model.succ.entry(from).or_default().push(to);
        if let (Some(iv), None) = (inherited, self.model.inputs.get(&to)) {
            self.model.inputs.insert(to, iv);
        }
        self
    }

    /// Sets the depth of `id`.
    #[must_use]
    pub fn depth(mut self, id: u32, d: usize) -> Self {
        self.model.depth.insert(id, d);
        self
    }

    /// Sets the input vector visible at `id`.
    #[must_use]
    pub fn inputs(mut self, id: u32, inputs: &[Value]) -> Self {
        self.model.inputs.insert(id, inputs.to_vec());
        self
    }

    /// Records that process `pid` has decided `v` at `id`.
    #[must_use]
    pub fn decision(mut self, id: u32, pid: usize, v: Value) -> Self {
        self.model.decisions.insert((id, pid), v);
        self
    }

    /// Records that process `pid` is failed at `id`.
    #[must_use]
    pub fn failed(mut self, id: u32, pid: usize) -> Self {
        self.model.failed.insert((id, pid));
        self
    }

    /// Records that `x` and `y` agree modulo `j` (symmetric).
    #[must_use]
    pub fn agree(mut self, x: u32, y: u32, j: usize) -> Self {
        self.model.agree.insert((x, y, j));
        self
    }

    /// Sets the crash successor of (`id`, `pid`).
    #[must_use]
    pub fn crash(mut self, id: u32, pid: usize, to: u32) -> Self {
        self.model.crash.insert((id, pid), to);
        self
    }

    /// Finalizes the model.
    #[must_use]
    pub fn build(self) -> ScriptedModel {
        self.model
    }
}

/// The minimal FLP "diamond" instance: a bivalent root whose two successors
/// are 0- and 1-univalent.
///
/// ```text
///            0            (depth 0, bivalent)
///          /   \
///         1     2         (depth 1, univalent)
///         |     |
///         3     4         (depth 2, decided 0 / decided 1 by p1)
/// ```
#[must_use]
pub fn flp_diamond() -> ScriptedModel {
    ScriptedModelBuilder::new(2, 1)
        .initial(&[Value::ZERO, Value::ONE], 0)
        .edge(0, 1)
        .edge(0, 2)
        .edge(1, 3)
        .edge(2, 4)
        .depth(0, 0)
        .depth(1, 1)
        .depth(2, 1)
        .depth(3, 2)
        .depth(4, 2)
        .decision(3, 0, Value::ZERO)
        .decision(4, 0, Value::ONE)
        .agree(1, 2, 1)
        .build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LayeredModel;

    #[test]
    fn counter_model_basics() {
        let m = CounterModel::new(3, 2);
        let x0 = m.initial_state(&[Value::ZERO, Value::ONE, Value::ZERO]);
        assert_eq!(m.depth(&x0), 0);
        assert_eq!(m.successors(&x0).len(), 2);
        assert_eq!(m.inputs_of(&x0).len(), 3);
        assert!(!m.failed_at(&x0, Pid::new(0)));
    }

    #[test]
    fn counter_agree_modulo_ignores_one_coordinate() {
        let m = CounterModel::new(2, 2);
        let x = m.initial_state(&[Value::ZERO, Value::ZERO]);
        let y = m.initial_state(&[Value::ZERO, Value::ONE]);
        assert!(m.agree_modulo(&x, &y, Pid::new(1)));
        assert!(!m.agree_modulo(&x, &y, Pid::new(0)));
    }

    #[test]
    fn scripted_model_tables() {
        let m = flp_diamond();
        assert_eq!(m.initial_states(), vec![0]);
        assert_eq!(m.successors(&0), vec![1, 2]);
        assert_eq!(m.decision(&3, Pid::new(0)), Some(Value::ZERO));
        assert_eq!(m.decision(&3, Pid::new(1)), None);
        assert!(m.agree_modulo(&1, &2, Pid::new(1)));
        assert!(m.agree_modulo(&2, &1, Pid::new(1))); // symmetric
        assert!(!m.agree_modulo(&1, &2, Pid::new(0)));
        assert!(m.agree_modulo(&1, &1, Pid::new(0))); // reflexive
    }

    #[test]
    fn scripted_crash_defaults_to_first_successor() {
        let m = flp_diamond();
        assert_eq!(m.crash_step(&0, Pid::new(0)), 1);
        assert_eq!(m.crash_step(&3, Pid::new(0)), 3); // terminal: stays
    }

    #[test]
    #[should_panic(expected = "no initial state")]
    fn scripted_missing_initial_panics() {
        let m = flp_diamond();
        let _ = m.initial_state(&[Value::ONE, Value::ONE]);
    }

    #[test]
    fn edges_inherit_inputs() {
        let m = flp_diamond();
        assert_eq!(m.inputs_of(&3), vec![Value::ZERO, Value::ONE]);
    }
}
