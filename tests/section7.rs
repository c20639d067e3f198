//! Differential test of the Section 7 engines against a naive reference.
//!
//! The reference is written straight from the definitions, with clone-keyed
//! maps and per-level `HashSet` dedup and no arena:
//!
//! * [`NaiveCovering::valences`]: generalized valence w.r.t. a covering.
//!   A horizon state is classified by every non-empty decision simplex its
//!   runs can present as the nonfaulty decisions; a state below the
//!   horizon takes the union over its layer.
//! * [`naive_covering_run`]: Lemma 7.1. Take the first covering-bivalent
//!   initial state, then repeatedly the first covering-bivalent successor.
//! * [`naive_check_task`]: the exhaustive Decision / Validity sweep of a
//!   decision task.
//!
//! The engine side is what the experiments E-7.1, E-7.3 and E-7.4 run:
//! core's `Solver` with the covering as its valence probe,
//! `build_bivalent_run` over it, and `check_task` on core's checker sweep.
//! Both sides must agree on the flags of every state within the horizon,
//! on the chains and on the task reports, witness states and their order
//! included. The test also pins where binary valence and valence w.r.t.
//! the consensus covering differ, and that `check_task` computes `Δ(s)`
//! once per input vector rather than once per state.

use std::cell::Cell;
use std::collections::{BTreeSet, HashMap, HashSet};
use std::rc::Rc;

use layered_consensus::async_mp::MpModel;
use layered_consensus::core::telemetry::NOOP;
use layered_consensus::core::testkit::{flp_diamond, ScriptedModel, ScriptedModelBuilder};
use layered_consensus::core::{
    build_bivalent_run, LayeredModel, Pid, Region, Valence, ValenceSolver, Value,
};
use layered_consensus::protocols::{FloodMin, MpCollectMin, MpFloodMin, MpIdentity};
use layered_consensus::sync_crash::CrashModel;
use layered_consensus::sync_mobile::MobileModel;
use layered_consensus::topology::{
    check_task, decided_simplex, nonfaulty_decision_simplexes, tasks, Covering, DecisionTask,
    TaskViolation,
};

/// Covering valence flags: `(0-valent, 1-valent)` w.r.t. `O₀` / `O₁`.
type Flags = (bool, bool);

fn union(a: Flags, b: Flags) -> Flags {
    (a.0 || b.0, a.1 || b.1)
}

fn bivalent(f: Flags) -> bool {
    f.0 && f.1
}

/// Memoizing generalized-valence reference.
struct NaiveCovering<'a, M: LayeredModel> {
    model: &'a M,
    covering: &'a Covering,
    horizon: usize,
    memo: HashMap<M::State, Flags>,
}

impl<'a, M: LayeredModel> NaiveCovering<'a, M> {
    fn new(model: &'a M, covering: &'a Covering, horizon: usize) -> Self {
        NaiveCovering {
            model,
            covering,
            horizon,
            memo: HashMap::new(),
        }
    }

    fn valences(&mut self, x: &M::State) -> Flags {
        if let Some(&v) = self.memo.get(x) {
            return v;
        }
        let flags = if self.model.depth(x) >= self.horizon {
            nonfaulty_decision_simplexes(self.model, x)
                .iter()
                .filter(|s| !s.is_empty())
                .map(|s| {
                    (
                        self.covering.o0().contains(s),
                        self.covering.o1().contains(s),
                    )
                })
                .fold((false, false), union)
        } else {
            let mut acc = (false, false);
            for y in self.model.successors(x) {
                acc = union(acc, self.valences(&y));
                if bivalent(acc) {
                    break;
                }
            }
            acc
        };
        self.memo.insert(x.clone(), flags);
        flags
    }
}

/// Lemma 7.1 reference: the chain built and whether it reached `steps`.
fn naive_covering_run<M: LayeredModel>(
    model: &M,
    covering: &Covering,
    horizon: usize,
    steps: usize,
) -> (Vec<M::State>, bool) {
    let mut solver = NaiveCovering::new(model, covering, horizon);
    let roots = model.initial_states();
    let Some(x0) = roots.iter().find(|x| bivalent(solver.valences(x))).cloned() else {
        return (Vec::new(), false);
    };
    let mut chain = vec![x0];
    for _ in 0..steps {
        let x = chain.last().expect("non-empty").clone();
        let next = model
            .successors(&x)
            .into_iter()
            .find(|y| bivalent(solver.valences(y)));
        match next {
            Some(y) => chain.push(y),
            None => return (chain, false),
        }
    }
    (chain, true)
}

/// A task report reduced to what the experiments read: states explored and
/// each violation's kind and witness state, in order.
type TaskOutcome<S> = (usize, Vec<(&'static str, S)>);

/// Exhaustive task sweep reference.
fn naive_check_task<M: LayeredModel>(
    model: &M,
    task: &DecisionTask,
    horizon: usize,
    max_violations: usize,
) -> TaskOutcome<M::State> {
    let mut explored = 0usize;
    let mut violations: Vec<(&'static str, M::State)> = Vec::new();
    let mut frontier: Vec<M::State> = task
        .inputs()
        .iter()
        .map(|inputs| model.initial_state(inputs))
        .collect();
    for depth in 0..=horizon {
        let mut next = Vec::new();
        for x in &frontier {
            explored += 1;
            let decisions = decided_simplex(model, x);
            if !task.decision_allowed(&model.inputs_of(x), &decisions)
                && violations.len() < max_violations
            {
                violations.push(("validity", x.clone()));
            }
            if depth == horizon {
                let undecided: Vec<Pid> = model
                    .obligated(x)
                    .into_iter()
                    .filter(|&i| model.decision(x, i).is_none())
                    .collect();
                if !undecided.is_empty() && violations.len() < max_violations {
                    violations.push(("decision", x.clone()));
                }
            } else {
                next.extend(model.successors(x));
            }
            if violations.len() >= max_violations {
                return (explored, violations);
            }
        }
        let mut seen = HashSet::new();
        frontier = next
            .into_iter()
            .filter(|s| seen.insert(s.clone()))
            .collect();
        if frontier.is_empty() {
            break;
        }
    }
    (explored, violations)
}

// ---- the engine side ----------------------------------------------------

fn engine_flags<M: LayeredModel>(
    model: &M,
    covering: &Covering,
    horizon: usize,
    states: &[M::State],
) -> Vec<Flags> {
    let mut solver = ValenceSolver::with_probe(model, horizon, covering, &NOOP);
    states
        .iter()
        .map(|x| {
            let id = solver.intern(x);
            let v = solver.valences_id(id);
            (v.zero, v.one)
        })
        .collect()
}

fn engine_run<M: LayeredModel>(
    model: &M,
    covering: &Covering,
    horizon: usize,
    steps: usize,
) -> (Vec<M::State>, bool) {
    let mut solver = ValenceSolver::with_probe(model, horizon, covering, &NOOP);
    let out = build_bivalent_run(&mut solver, steps);
    let reached = out.reached_target();
    let chain = out.chain.map_or_else(Vec::new, |c| c.states().to_vec());
    (chain, reached)
}

fn engine_check_task<M: LayeredModel>(
    model: &M,
    task: &DecisionTask,
    horizon: usize,
    max_violations: usize,
) -> TaskOutcome<M::State> {
    let report = check_task(model, task, horizon, max_violations, &NOOP);
    let violations = report
        .violations
        .into_iter()
        .map(|v| {
            let kind = v.kind();
            let state = match v {
                TaskViolation::Validity { state, .. } | TaskViolation::Decision { state, .. } => {
                    state
                }
            };
            (kind, state)
        })
        .collect();
    (report.states_explored, violations)
}

// ---- helpers ------------------------------------------------------------

/// Every state within `horizon` layers of the initial states, level order.
fn states_within<M: LayeredModel>(model: &M, horizon: usize) -> Vec<M::State> {
    let region = Region::reachable(model, horizon, &NOOP);
    region
        .levels()
        .iter()
        .flat_map(|level| region.space().materialize(level))
        .collect()
}

/// Asserts that the engine's covering flags equal the reference's on every
/// state within the horizon; returns the states and their flags.
fn assert_flags_agree<M: LayeredModel>(
    name: &str,
    model: &M,
    horizon: usize,
) -> (Vec<M::State>, Vec<Flags>) {
    let covering = Covering::consensus(model.num_processes());
    let states = states_within(model, horizon);
    let mut naive = NaiveCovering::new(model, &covering, horizon);
    let expected: Vec<Flags> = states.iter().map(|x| naive.valences(x)).collect();
    let got = engine_flags(model, &covering, horizon, &states);
    for (i, x) in states.iter().enumerate() {
        assert_eq!(
            got[i], expected[i],
            "[{name}] covering flags differ at state #{i}: {x:?}"
        );
    }
    (states, expected)
}

fn binary_flags(v: Valence) -> Flags {
    match v {
        Valence::Bivalent => (true, true),
        Valence::Univalent(w) => (w == Value::ZERO, w == Value::ONE),
        Valence::NoValence => (false, false),
    }
}

/// The number of states whose binary valence differs from their valence
/// w.r.t. the consensus covering; asserts that each is a horizon state.
fn binary_disagreements<M: LayeredModel>(
    model: &M,
    horizon: usize,
    states: &[M::State],
    covering_flags: &[Flags],
) -> usize {
    let mut binary = ValenceSolver::new(model, horizon);
    let differing: Vec<&M::State> = states
        .iter()
        .zip(covering_flags)
        .filter(|(x, &f)| binary_flags(binary.valence(x)) != f)
        .map(|(x, _)| x)
        .collect();
    for x in &differing {
        assert_eq!(model.depth(x), horizon, "{x:?}");
    }
    differing.len()
}

/// A chain `0 → 1 → 2` in which p0 decides 0 at depth 1 and is failed at
/// the horizon state 2, where p1 has decided 1. Covering valence reads the
/// horizon only, so every state is 1-univalent; a probe that also read
/// state 1 would find p0's decision and call it bivalent.
fn decided_then_failed() -> ScriptedModel {
    ScriptedModelBuilder::new(2, 1)
        .initial(&[Value::ZERO, Value::ONE], 0)
        .edge(0, 1)
        .edge(1, 2)
        .depth(0, 0)
        .depth(1, 1)
        .depth(2, 2)
        .decision(1, 0, Value::ZERO)
        .decision(2, 0, Value::ZERO)
        .decision(2, 1, Value::ONE)
        .failed(2, 0)
        .build()
}

// ---- (a) covering flags -------------------------------------------------

#[test]
fn covering_flags_match_the_reference_on_every_state() {
    let (states, flags) = assert_flags_agree("mp", &MpModel::new(3, MpFloodMin::new(3)), 3);
    assert_eq!(states.len(), 5324);
    let m = MpModel::new(3, MpFloodMin::new(3));
    assert_eq!(binary_disagreements(&m, 3, &states, &flags), 0);

    let m = MobileModel::new(3, FloodMin::new(3));
    let (states, flags) = assert_flags_agree("mobile", &m, 3);
    assert_eq!(states.len(), 68);
    // Binary valence reads decisions at every depth; covering valence only
    // classifies horizon states, by their nonfaulty decision simplexes. On
    // a terminal state whose non-failed processes disagree, the simplex
    // lies in neither `O_v`, but excluding one process within the failure
    // budget leaves a simplex in one of them.
    assert_eq!(binary_disagreements(&m, 3, &states, &flags), 6);

    let m = CrashModel::new(3, 1, FloodMin::new(2));
    let (states, flags) = assert_flags_agree("crash(3,1)", &m, 2);
    assert_eq!(states.len(), 84);
    assert_eq!(binary_disagreements(&m, 2, &states, &flags), 0);

    let m = CrashModel::new(4, 2, FloodMin::new(3));
    let (states, flags) = assert_flags_agree("crash(4,2)", &m, 3);
    assert_eq!(states.len(), 552);
    assert_eq!(binary_disagreements(&m, 3, &states, &flags), 0);

    let m = flp_diamond();
    let (states, flags) = assert_flags_agree("diamond", &m, 2);
    assert_eq!(binary_disagreements(&m, 2, &states, &flags), 0);

    let m = decided_then_failed();
    let (_, flags) = assert_flags_agree("decided-then-failed", &m, 2);
    assert_eq!(flags, vec![(false, true); 3]);
}

// ---- (b) Lemma 7.1 chains -----------------------------------------------

fn assert_runs_agree<M: LayeredModel>(name: &str, model: &M, horizon: usize, steps: usize) {
    let covering = Covering::consensus(model.num_processes());
    let expected = naive_covering_run(model, &covering, horizon, steps);
    let got = engine_run(model, &covering, horizon, steps);
    assert_eq!(
        got, expected,
        "[{name}] Lemma 7.1 chains differ at horizon {horizon}, {steps} steps"
    );
    // Where the two valence notions differ (the mobile instance), they do
    // so on no state these runs pass through: the binary run is the same.
    let binary = build_bivalent_run(&mut ValenceSolver::new(model, horizon), steps);
    let binary_chain = binary
        .chain
        .as_ref()
        .map_or_else(Vec::new, |c| c.states().to_vec());
    assert_eq!(
        (binary_chain, binary.reached_target()),
        got,
        "[{name}] binary and covering runs differ at horizon {horizon}, {steps} steps"
    );
}

#[test]
fn lemma_7_1_chains_match_the_reference() {
    // E-7.1: the quick (steps 1, horizon 2) and full (steps 2, horizon 3)
    // instances.
    for steps in [1usize, 2] {
        let h = steps + 1;
        assert_runs_agree(
            "E-7.1 mp",
            &MpModel::new(3, MpFloodMin::new(h as u16)),
            h,
            steps,
        );
        assert_runs_agree(
            "E-7.1 mobile",
            &MobileModel::new(3, FloodMin::new(h as u16)),
            h,
            steps,
        );
    }
    // E-7.4: horizon t + 1 and t − 1 steps, and one step further.
    for (n, t) in [(3usize, 1usize), (4, 2)] {
        let m = CrashModel::new(n, t, FloodMin::new((t + 1) as u16));
        for steps in [t - 1, t] {
            assert_runs_agree("E-7.4 crash", &m, t + 1, steps);
        }
    }
    // The diamond reaches zero steps and stalls at depth 0 asked for more.
    for steps in 0..=2 {
        assert_runs_agree("diamond", &flp_diamond(), 2, steps);
    }
}

// ---- (c) task reports ---------------------------------------------------

fn assert_task_reports_agree<M: LayeredModel>(
    name: &str,
    model: &M,
    task: &DecisionTask,
    horizon: usize,
) {
    for cap in [1usize, 100] {
        let expected = naive_check_task(model, task, horizon, cap);
        let got = engine_check_task(model, task, horizon, cap);
        assert_eq!(got, expected, "[{name}] task reports differ at cap {cap}");
    }
}

#[test]
fn task_reports_match_the_reference() {
    // The four E-7.3 instances.
    let n = 3;
    let m = MpModel::new(n, MpFloodMin::new(2));
    assert_task_reports_agree("consensus", &m, &tasks::consensus(n), 2);
    let m = MpModel::new(n, MpCollectMin::new(n - 1)).with_obligation(2);
    assert_task_reports_agree("2-set", &m, &tasks::k_set_agreement(n, 2), 2);
    let m = MpModel::new(n, MpIdentity).with_obligation(1);
    assert_task_reports_agree("identity", &m, &tasks::identity(n), 1);
    assert_task_reports_agree("pseudo-consensus", &m, &tasks::pseudo_consensus(n), 1);
}

/// Every task of the `tasks::` library at `n` processes.
fn every_task(n: usize) -> Vec<DecisionTask> {
    vec![
        tasks::consensus(n),
        tasks::k_set_agreement(n, 1),
        tasks::k_set_agreement(n, 2),
        tasks::identity(n),
        tasks::constant(n, Value::ZERO),
        tasks::constant(n, Value::ONE),
        tasks::pseudo_consensus(n),
    ]
}

#[test]
fn every_task_on_the_e_7_3_models_matches_the_reference() {
    // Each library task on each E-7.3 model at that model's horizon, so
    // that every task meets passing and failing protocols alike.
    let n = 3;
    let flood = MpModel::new(n, MpFloodMin::new(2));
    let collect = MpModel::new(n, MpCollectMin::new(n - 1)).with_obligation(2);
    let identity = MpModel::new(n, MpIdentity).with_obligation(1);
    for task in every_task(n) {
        let name = task.name();
        assert_task_reports_agree(&format!("{name} / MpFloodMin(2)"), &flood, &task, 2);
        assert_task_reports_agree(&format!("{name} / MpCollectMin(2)"), &collect, &task, 2);
        assert_task_reports_agree(&format!("{name} / MpIdentity"), &identity, &task, 1);
    }
}

/// `task` with a `Δ` that counts its calls in the returned cell.
fn counted(task: &DecisionTask) -> (DecisionTask, Rc<Cell<usize>>) {
    let calls = Rc::new(Cell::new(0));
    let delta = {
        let (calls, task) = (Rc::clone(&calls), task.clone());
        move |inputs: &[Value]| {
            calls.set(calls.get() + 1);
            task.allowed(inputs)
        }
    };
    let name = format!("counted {}", task.name());
    let n = task.num_processes();
    (
        DecisionTask::new(n, name, task.inputs().to_vec(), delta),
        calls,
    )
}

fn assert_delta_once_per_input_vector<M: LayeredModel>(
    model: &M,
    task: &DecisionTask,
    horizon: usize,
) {
    let (probe, calls) = counted(task);
    let report = check_task(model, &probe, horizon, usize::MAX, &NOOP);
    let vectors: BTreeSet<&Vec<Value>> = task.inputs().iter().collect();
    assert!(report.states_explored > vectors.len());
    assert!(
        calls.get() <= vectors.len(),
        "[{}] Δ ran {} times for {} input vectors over {} states",
        task.name(),
        calls.get(),
        vectors.len(),
        report.states_explored
    );
}

#[test]
fn check_task_computes_delta_once_per_input_vector() {
    let n = 3;
    let flood = MpModel::new(n, MpFloodMin::new(2));
    assert_delta_once_per_input_vector(&flood, &tasks::consensus(n), 2);
    let collect = MpModel::new(n, MpCollectMin::new(n - 1)).with_obligation(2);
    assert_delta_once_per_input_vector(&collect, &tasks::k_set_agreement(n, 2), 2);
}
