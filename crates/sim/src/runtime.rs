//! The simulation runtime: seeded runs, outcome classification, telemetry,
//! and per-run JSON records.
//!
//! A [`Simulator`] executes a protocol-vs-adversary game round by round: the
//! adversary picks a legal layer move, the model applies it, and the runtime
//! watches the resulting state for consensus violations with the same
//! predicate the exhaustive checker uses
//! ([`state_violations`]). Every
//! run is a pure function of `(master seed, run index, config)` and records
//! a [`Schedule`] that replays to the identical state sequence.

use layered_core::checker::{state_violations, Violation};
use layered_core::telemetry::json::Json;
use layered_core::telemetry::{Observer, Span, NOOP};
use layered_core::{Pid, SimModel, Value};

use crate::adversary::Adversary;
use crate::rng::SimRng;
use crate::schedule::Schedule;

/// Configuration of a batch of simulated runs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SimConfig {
    /// Master seed; run `i` derives its own stream from `(seed, i)`.
    pub seed: u64,
    /// Number of independent runs.
    pub runs: usize,
    /// Layers per run.
    pub horizon: usize,
    /// Fixed input assignment, or `None` to draw uniform binary inputs per
    /// run from the run's stream.
    pub inputs: Option<Vec<Value>>,
}

impl SimConfig {
    /// A config with `runs` runs of `horizon` layers under `seed`, with
    /// per-run random binary inputs.
    #[must_use]
    pub fn new(seed: u64, runs: usize, horizon: usize) -> Self {
        SimConfig {
            seed,
            runs,
            horizon,
            inputs: None,
        }
    }
}

/// How a simulated run ended.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RunOutcome {
    /// Every non-failed process decided, consistently, within the horizon.
    Decided {
        /// The layer by which the last decision latched.
        round: usize,
        /// The common decided value.
        value: Value,
    },
    /// The horizon elapsed with some non-failed process undecided.
    Undecided {
        /// The undecided non-failed processes.
        undecided: Vec<Pid>,
    },
    /// Two non-failed processes decided different values.
    AgreementViolation {
        /// The layer at which the disagreement first appeared.
        round: usize,
    },
    /// A process decided a value that is nobody's input.
    ValidityViolation {
        /// The layer at which the invalid decision first appeared.
        round: usize,
    },
}

impl RunOutcome {
    /// Short class tag (`"decided"`, `"undecided"`, `"agreement"`,
    /// `"validity"`) for reports and shrinking oracles.
    #[must_use]
    pub fn class(&self) -> &'static str {
        match self {
            RunOutcome::Decided { .. } => "decided",
            RunOutcome::Undecided { .. } => "undecided",
            RunOutcome::AgreementViolation { .. } => "agreement",
            RunOutcome::ValidityViolation { .. } => "validity",
        }
    }

    /// Whether the run ended in a safety violation (agreement or validity).
    #[must_use]
    pub fn is_violation(&self) -> bool {
        matches!(
            self,
            RunOutcome::AgreementViolation { .. } | RunOutcome::ValidityViolation { .. }
        )
    }
}

/// One finished simulated run: its schedule and how it ended.
#[derive(Clone, Debug)]
pub struct SimRun<Mv> {
    /// Index within the batch.
    pub index: usize,
    /// The run's derived seed.
    pub seed: u64,
    /// The recorded schedule (seed, inputs, moves).
    pub schedule: Schedule<Mv>,
    /// How the run ended.
    pub outcome: RunOutcome,
    /// Number of fault moves the adversary injected.
    pub faults: usize,
    /// Number of layers actually executed (≤ horizon; violations stop the
    /// run early).
    pub steps: usize,
}

/// Classifies the state sequence of a (replayed or live) run.
///
/// Scans for the first safety violation with the checker's own
/// [`state_violations`] predicate; absent one, the run is `Decided` iff
/// every non-failed process has decided at the final state. Both the live
/// runtime and the shrinking oracle classify through this single function,
/// so "same violation class" means the same thing everywhere.
pub fn classify<M: SimModel>(model: &M, states: &[M::State]) -> RunOutcome {
    for (round, x) in states.iter().enumerate() {
        for v in state_violations(model, x) {
            match v {
                Violation::Agreement { .. } => {
                    return RunOutcome::AgreementViolation { round };
                }
                Violation::Validity { .. } => {
                    return RunOutcome::ValidityViolation { round };
                }
                Violation::Decision { .. } => {}
            }
        }
    }
    let last = states.last().expect("runs have an initial state");
    let undecided: Vec<Pid> = model
        .non_failed(last)
        .into_iter()
        .filter(|&i| model.decision(last, i).is_none())
        .collect();
    if !undecided.is_empty() {
        return RunOutcome::Undecided { undecided };
    }
    let value = model
        .non_failed(last)
        .first()
        .and_then(|&i| model.decision(last, i))
        .unwrap_or(Value::ZERO);
    // The latch round: first state where every survivor had decided.
    let round = states
        .iter()
        .position(|x| {
            model
                .non_failed(last)
                .iter()
                .all(|&i| model.decision(x, i).is_some())
        })
        .unwrap_or(states.len() - 1);
    RunOutcome::Decided { round, value }
}

/// The simulation driver for one model instance.
pub struct Simulator<'a, M: SimModel> {
    model: &'a M,
    observer: &'a dyn Observer,
}

impl<'a, M: SimModel> Simulator<'a, M> {
    /// A simulator over `model` with telemetry disabled.
    pub fn new(model: &'a M) -> Self {
        Simulator {
            model,
            observer: &NOOP,
        }
    }

    /// A simulator over `model` reporting to `observer`.
    pub fn with_observer(model: &'a M, observer: &'a dyn Observer) -> Self {
        Simulator { model, observer }
    }

    /// The model under simulation.
    pub fn model(&self) -> &M {
        self.model
    }

    /// Executes run `index` of the batch configured by `config` under
    /// `adversary`.
    ///
    /// The run is a pure function of `(config.seed, index, adversary)`: the
    /// per-run stream is derived with [`SimRng::derive`], inputs are either
    /// `config.inputs` or drawn from that stream, and the adversary's
    /// choices consume the same stream. Safety violations stop the run at
    /// the violating layer.
    pub fn run_one<A: Adversary<M>>(
        &self,
        config: &SimConfig,
        index: usize,
        adversary: &mut A,
    ) -> SimRun<M::Move> {
        let _span = Span::enter(self.observer, "sim.run");
        let seed = SimRng::derive(config.seed, index as u64);
        let mut rng = SimRng::new(seed);
        let n = self.model.num_processes();
        let inputs: Vec<Value> = match &config.inputs {
            Some(fixed) => {
                assert_eq!(fixed.len(), n, "input assignment length != n");
                fixed.clone()
            }
            None => (0..n)
                .map(|_| if rng.coin() { Value::ONE } else { Value::ZERO })
                .collect(),
        };
        self.observer.counter("sim.runs", 1);

        let mut states = vec![self.model.initial_state(&inputs)];
        let mut moves = Vec::with_capacity(config.horizon);
        let mut faults = 0usize;
        let mut first_fault_round: Option<usize> = None;
        for round in 0..config.horizon {
            let x = states.last().expect("non-empty");
            let mv = adversary.next_move(self.model, x, round, &mut rng);
            if self.model.is_fault(&mv) {
                faults += 1;
                first_fault_round.get_or_insert(round);
                self.observer.counter("sim.faults_injected", 1);
            }
            let next = self.model.apply_move(x, &mv);
            moves.push(mv);
            states.push(next);
            self.observer.counter("sim.steps", 1);
            if classify_prefix_violates(self.model, states.last().expect("non-empty")) {
                break;
            }
        }

        let outcome = classify(self.model, &states);
        self.observer
            .histogram("sim.run_layers", moves.len() as u64);
        if outcome.is_violation() {
            self.observer.event("sim.violation", outcome.class());
            if let (
                Some(first),
                RunOutcome::AgreementViolation { round } | RunOutcome::ValidityViolation { round },
            ) = (first_fault_round, &outcome)
            {
                // Layers between the first injected fault and the violation
                // surfacing — the "blast latency" of the fault.
                self.observer.histogram(
                    "sim.fault_to_violation_layers",
                    round.saturating_sub(first) as u64,
                );
            }
        }
        SimRun {
            index,
            seed,
            steps: moves.len(),
            schedule: Schedule {
                seed,
                inputs,
                moves,
            },
            outcome,
            faults,
        }
    }

    /// Executes the whole batch, one fresh `adversary` per run.
    pub fn run_many<A: Adversary<M>>(
        &self,
        config: &SimConfig,
        mut make_adversary: impl FnMut() -> A,
    ) -> Vec<SimRun<M::Move>> {
        (0..config.runs)
            .map(|i| {
                let mut adversary = make_adversary();
                self.run_one(config, i, &mut adversary)
            })
            .collect()
    }
}

/// Whether `x` alone exhibits a safety violation (the early-stop test the
/// live loop applies per layer).
fn classify_prefix_violates<M: SimModel>(model: &M, x: &M::State) -> bool {
    state_violations(model, x)
        .iter()
        .any(|v| !matches!(v, Violation::Decision { .. }))
}

/// The JSON record of one run, shaped like the experiment harness's
/// records: one object per line in `--json` output.
///
/// Records are canonicalized (object keys sorted recursively) before
/// rendering so identical runs are byte-identical — part of the replay
/// determinism contract.
pub fn run_record<M: SimModel>(
    model: &M,
    run: &SimRun<M::Move>,
    model_name: &str,
    protocol: &str,
    adversary: &str,
) -> Json {
    let outcome_round = match run.outcome {
        RunOutcome::Decided { round, .. }
        | RunOutcome::AgreementViolation { round }
        | RunOutcome::ValidityViolation { round } => Some(round),
        RunOutcome::Undecided { .. } => None,
    };
    let mut fields = vec![
        ("experiment".to_string(), Json::from("sim")),
        ("model".to_string(), Json::from(model_name)),
        ("protocol".to_string(), Json::from(protocol)),
        ("adversary".to_string(), Json::from(adversary)),
        ("n".to_string(), Json::from(model.num_processes() as u64)),
        ("run".to_string(), Json::from(run.index as u64)),
        ("seed".to_string(), Json::from(run.seed)),
        (
            "inputs".to_string(),
            Json::Array(
                run.schedule
                    .inputs
                    .iter()
                    .map(|v| Json::from(u64::from(v.get())))
                    .collect(),
            ),
        ),
        ("outcome".to_string(), Json::from(run.outcome.class())),
        ("steps".to_string(), Json::from(run.steps as u64)),
        ("faults".to_string(), Json::from(run.faults as u64)),
    ];
    if let Some(round) = outcome_round {
        fields.push(("round".to_string(), Json::from(round as u64)));
    }
    if let RunOutcome::Decided { value, .. } = run.outcome {
        fields.push(("value".to_string(), Json::from(u64::from(value.get()))));
    }
    fields.push(("schedule".to_string(), run.schedule.to_json(model)));
    Json::Object(fields).canonicalize()
}
