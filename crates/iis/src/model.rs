//! The iterated immediate snapshot (IIS) model with skip-one layers.
//!
//! In round `r` every participating process accesses a fresh one-shot
//! immediate-snapshot object: scheduled by an ordered partition
//! `B₁, …, B_k`, the processes of each block write concurrently and then
//! snapshot, observing the writes of their own and all earlier blocks.
//! The layering allows the environment to skip at most one process per
//! round (the 1-resilient flavor matching the paper's other layerings);
//! the paper's full version extends the Section 7 equivalence to this
//! model, and the experiments verify the same claims here: bivalent
//! initial states, valence-connected layers, ever-bivalent runs, and
//! protocol refutation.
//!
//! Protocols are ordinary [`SmProtocol`]s: `write_value` feeds the IS
//! object, `absorb` receives the snapshot (with `None` for processes whose
//! write is invisible — later blocks or skipped).

use std::collections::HashSet;

use layered_core::{LayeredModel, Pid, Value};
use layered_protocols::SmProtocol;

use crate::partition::{ordered_partitions, OrderedPartition};

/// A global state of the IIS model.
///
/// The environment has no persistent component: each round's IS object is
/// fresh, so the global state is just the processes' protocol states plus
/// bookkeeping.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct IisState<L> {
    /// Completed rounds.
    pub round: u16,
    /// The run's input assignment.
    pub inputs: Vec<Value>,
    /// Per-process protocol local states.
    pub locals: Vec<L>,
    /// Per-process write-once decision variables.
    pub decided: Vec<Option<Value>>,
    /// Per-process completed IS accesses.
    pub phases_done: Vec<u16>,
}

impl<L> IisState<L> {
    /// Number of processes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.locals.len()
    }

    /// Whether the state is degenerate (no processes). Never true for
    /// model-produced states.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.locals.is_empty()
    }
}

/// The IIS model, parameterized by a shared-memory phase protocol.
///
/// # Examples
///
/// ```
/// use layered_core::check_consensus;
/// use layered_core::telemetry::NOOP;
/// use layered_protocols::SmFloodMin;
/// use layered_iis::IisModel;
///
/// let m = IisModel::new(3, SmFloodMin::new(2));
/// // Consensus is unsolvable here too: the same checker refutes the
/// // candidate.
/// assert!(!check_consensus(&m, 2, 1, &NOOP).passed());
/// ```
#[derive(Clone, Debug)]
pub struct IisModel<P: SmProtocol> {
    n: usize,
    protocol: P,
    obligation: Option<u16>,
}

impl<P: SmProtocol> IisModel<P> {
    /// A model with `n` processes.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`.
    #[must_use]
    pub fn new(n: usize, protocol: P) -> Self {
        assert!(n >= 2, "the paper assumes n >= 2");
        IisModel {
            n,
            protocol,
            obligation: None,
        }
    }

    /// Obliges every process with at least `phases` completed IS accesses
    /// to have decided at horizon states.
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

    /// All layer schedules: ordered partitions of all `n` processes plus
    /// ordered partitions of each `(n−1)`-subset (one process skipped).
    #[must_use]
    pub fn actions(&self) -> Vec<OrderedPartition> {
        let all: Vec<Pid> = Pid::all(self.n).collect();
        let mut out = ordered_partitions(&all);
        for skip in Pid::all(self.n) {
            let rest: Vec<Pid> = Pid::all(self.n).filter(|&p| p != skip).collect();
            out.extend(ordered_partitions(&rest));
        }
        out
    }

    /// Applies one IS round under the given schedule.
    #[must_use]
    pub fn apply(
        &self,
        x: &IisState<P::LocalState>,
        schedule: &OrderedPartition,
    ) -> IisState<P::LocalState> {
        let n = self.n;
        let mut locals = x.locals.clone();
        let mut decided = x.decided.clone();
        let mut phases_done = x.phases_done.clone();

        // The IS object's memory for this round.
        let mut memory: Vec<Option<P::Reg>> = vec![None; n];
        for block in schedule.blocks() {
            // All of the block write...
            for &p in block {
                if let Some(w) = self.protocol.write_value(&locals[p.index()]) {
                    memory[p.index()] = Some(w);
                }
            }
            // ...then all of the block snapshot (same view for the block).
            let snapshot = memory.clone();
            for &p in block {
                let ls = self
                    .protocol
                    .absorb(locals[p.index()].clone(), p, &snapshot);
                if decided[p.index()].is_none() {
                    decided[p.index()] = self.protocol.decide(&ls);
                }
                locals[p.index()] = ls;
                phases_done[p.index()] += 1;
            }
        }

        IisState {
            round: x.round + 1,
            inputs: x.inputs.clone(),
            locals,
            decided,
            phases_done,
        }
    }

    /// The layer `S(x)`, deduplicated.
    #[must_use]
    pub fn layer(&self, x: &IisState<P::LocalState>) -> Vec<IisState<P::LocalState>> {
        let mut out = Vec::new();
        let mut seen = HashSet::new();
        for schedule in self.actions() {
            let y = self.apply(x, &schedule);
            if seen.insert(y.clone()) {
                out.push(y);
            }
        }
        out
    }

    /// The classical immediate-snapshot connectivity move: splitting a
    /// process `p` out of its block into a singleton placed first changes
    /// only `p`'s view, so the two round-results agree modulo `p`.
    ///
    /// Returns `None` if the split is undefined (singleton block).
    #[must_use]
    pub fn singleton_split_bridge(
        &self,
        x: &IisState<P::LocalState>,
        schedule: &OrderedPartition,
        p: Pid,
    ) -> Option<bool> {
        let split = schedule.split_first(p)?;
        let a = self.apply(x, schedule);
        let b = self.apply(x, &split);
        Some(self.agree_modulo(&a, &b, p))
    }
}

impl<P: SmProtocol> LayeredModel for IisModel<P> {
    type State = IisState<P::LocalState>;

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
        IisState {
            round: 0,
            inputs: inputs.to_vec(),
            locals,
            decided,
            phases_done: vec![0; self.n],
        }
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
        // No finite failure: a skipped process may participate next round.
        false
    }

    fn agree_modulo(&self, x: &Self::State, y: &Self::State, j: Pid) -> bool {
        // Fresh IS objects leave no persistent environment: compare locals.
        x.round == y.round
            && (0..self.n).all(|i| {
                i == j.index()
                    || (x.locals[i] == y.locals[i]
                        && x.decided[i] == y.decided[i]
                        && x.inputs[i] == y.inputs[i]
                        && x.phases_done[i] == y.phases_done[i])
            })
    }

    fn crash_step(&self, x: &Self::State, j: Pid) -> Self::State {
        let rest: Vec<Pid> = Pid::all(self.n).filter(|&p| p != j).collect();
        self.apply(x, &OrderedPartition::new(vec![rest]))
    }

    fn obligated(&self, x: &Self::State) -> Vec<Pid> {
        match self.obligation {
            Some(r) => Pid::all(self.n)
                .filter(|i| x.phases_done[i.index()] >= r)
                .collect(),
            None => {
                let round = x.round;
                Pid::all(self.n)
                    .filter(|i| x.phases_done[i.index()] == round)
                    .collect()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use layered_core::telemetry::NOOP;
    use layered_core::{
        build_bivalent_run, check_consensus, check_fault_independence, check_graded,
        valence_report, Region, ValenceSolver,
    };
    use layered_protocols::SmFloodMin;

    use super::*;

    fn model(n: usize, phases: u16) -> IisModel<SmFloodMin> {
        IisModel::new(n, SmFloodMin::new(phases))
    }

    #[test]
    fn action_counts() {
        // Fubini(3) + 3 * Fubini(2) = 13 + 9 = 22.
        assert_eq!(model(3, 2).actions().len(), 22);
    }

    #[test]
    fn structural_contracts_hold() {
        let m = model(3, 2);
        let region = Region::reachable(&m, 2, &NOOP);
        assert_eq!(check_graded(&m, &region), None);
        assert_eq!(check_fault_independence(&m, &region), None);
    }

    #[test]
    fn block_order_controls_visibility() {
        let m = model(3, 1);
        let x = m.initial_state(&[Value::ZERO, Value::ONE, Value::ONE]);
        // p1 (holding 0) alone in the last block: others decide 1, p1 sees all.
        let late = OrderedPartition::new(vec![vec![Pid::new(1), Pid::new(2)], vec![Pid::new(0)]]);
        let y = m.apply(&x, &late);
        assert_eq!(y.decided[1], Some(Value::ONE));
        assert_eq!(y.decided[2], Some(Value::ONE));
        assert_eq!(y.decided[0], Some(Value::ZERO));
        // One concurrent block: everyone sees everything, all decide 0.
        let all = OrderedPartition::new(vec![Pid::all(3).collect()]);
        let z = m.apply(&x, &all);
        assert!(z.decided.iter().all(|d| *d == Some(Value::ZERO)));
    }

    #[test]
    fn skipped_process_takes_no_phase() {
        let m = model(3, 1);
        let x = m.initial_state(&[Value::ZERO, Value::ONE, Value::ONE]);
        let skip_p1 = OrderedPartition::new(vec![vec![Pid::new(1), Pid::new(2)]]);
        let y = m.apply(&x, &skip_p1);
        assert_eq!(y.phases_done, vec![0, 1, 1]);
        assert_eq!(y.decided[0], None);
        assert_eq!(y.decided[1], Some(Value::ONE));
    }

    #[test]
    fn singleton_split_bridges_hold() {
        // The IS connectivity move: splitting p first changes only p's view.
        let m = model(3, 3);
        let x = m.initial_state(&[Value::ZERO, Value::ONE, Value::ONE]);
        for schedule in m.actions() {
            for p in Pid::all(3) {
                if let Some(holds) = m.singleton_split_bridge(&x, &schedule, p) {
                    assert!(holds, "split bridge failed at {schedule:?}, p={p}");
                }
            }
        }
    }

    #[test]
    fn layers_are_valence_connected_and_runs_bivalent() {
        let m = model(3, 2);
        let mut solver = ValenceSolver::new(&m, 2);
        let x0 = solver.bivalent_initial_state().expect("bivalent init");
        let layer = m.layer(&x0);
        let rep = valence_report(&mut solver, &layer);
        assert!(rep.connected, "IIS layer must be valence connected");
        let run = build_bivalent_run(&mut solver, 1);
        assert!(run.reached_target());
    }

    #[test]
    fn consensus_is_refuted() {
        for phases in 1..=2u16 {
            let m = model(3, phases);
            assert!(
                !check_consensus(&m, usize::from(phases), 1, &NOOP).passed(),
                "SmFloodMin({phases}) unexpectedly solves consensus in IIS"
            );
        }
    }
}
