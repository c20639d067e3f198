//! Experiment harness regenerating every numbered claim of the paper.
//!
//! The paper has no tables or figures; its reproducible units are the
//! lemmas, theorems and corollaries. Each experiment here verifies one of
//! them by exhaustive enumeration on finite instances and prints a
//! paper-vs-measured table. Run all of them with the `experiments` binary:
//!
//! ```text
//! cargo run --release -p layered-bench --bin experiments          # full
//! cargo run --release -p layered-bench --bin experiments -- quick # small
//! ```
//!
//! The functions are also exposed as a library so the workspace integration
//! tests can assert that every experiment reports `ok`.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

use std::cell::Cell;

use layered_core::report::Table;
use layered_core::telemetry::json::Json;
use layered_core::telemetry::{
    clock, names, Fanout, MetricsRegistry, MetricsSnapshot, Observer, Span, NOOP,
};

mod experiments {
    pub mod certstore;
    pub mod decision_tasks;
    pub mod foundations;
    pub mod impossibility;
    pub mod resume;
    pub mod scaling;
    pub mod synchronous;
}
pub mod regress;
pub mod simruns;

pub use experiments::certstore::cert_store;
pub use experiments::decision_tasks::{
    bivalence_profile, covering_sanity, diameter, lemma_7_1, lemma_7_4, task_solvability,
};
pub use experiments::foundations::{census, lemma_3_1, lemma_3_6, theorem_4_2};
pub use experiments::impossibility::{iis, message_passing, mobile, shared_memory};
pub use experiments::resume::resume_roundtrip;
pub use experiments::scaling::{
    layer_scan, ScanConfig, QUOTIENT_SNAPSHOT_FILE, STATE_SNAPSHOT_FILE,
};
pub use experiments::synchronous::{early_stopping, lemma_6_4, lemmas_6_1_6_2, lower_bound};
pub use simruns::{known_adversary, sim_batch, SimBatch, SimBatchConfig};

/// How large an instance each experiment should use.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Scope {
    /// Small instances (CI-friendly, sub-second each).
    Quick,
    /// The sizes reported in EXPERIMENTS.md.
    Full,
}

/// One experiment: a paper claim, the measured table, an overall pass/fail
/// verdict, and the engine telemetry gathered while producing it.
#[derive(Clone, Debug)]
pub struct Experiment {
    /// Experiment identifier (`E-<claim>`): see DESIGN.md's index.
    pub id: &'static str,
    /// The paper claim being reproduced.
    pub claim: &'static str,
    /// The measured table.
    pub table: Table,
    /// Whether every row matched the paper's claim.
    pub ok: bool,
    /// Engine counters, gauges, spans and events recorded during the run.
    pub metrics: MetricsSnapshot,
}

impl Experiment {
    /// Wall-clock time spent producing the table, in nanoseconds.
    ///
    /// Derived from the `experiment.run` span that `measured` wraps around
    /// every experiment body, so the JSON record's top-level `wall_ns` and
    /// `metrics.spans["experiment.run"]` can never disagree.
    #[must_use]
    pub fn wall_nanos(&self) -> u64 {
        self.metrics.span_total_ns("experiment.run")
    }

    /// The experiment as one machine-readable JSON record — the twin of the
    /// printed table. The top-level fields are stable: `id`, `claim`, `ok`,
    /// `wall_ns`, the headline engine counters (`states_visited`,
    /// `dedup_hits`, `valence_cache_hits`, `max_frontier_width`; `0` when an
    /// experiment never touches that engine), and the full `metrics` dump.
    ///
    /// Records are canonicalized (object keys sorted recursively) before
    /// rendering, so two runs of the same experiment produce byte-identical
    /// records modulo the documented timing fields (`wall_ns`, span
    /// `total_ns`, and the `*.wall_ns` gauges) — see the byte-stability
    /// test in `crates/bench/tests/byte_stability.rs`.
    #[must_use]
    pub fn json_record(&self) -> Json {
        Json::Object(vec![
            ("id".into(), Json::String(self.id.to_string())),
            ("claim".into(), Json::String(self.claim.to_string())),
            ("ok".into(), Json::from(self.ok)),
            ("wall_ns".into(), Json::from(self.wall_nanos())),
            (
                "states_visited".into(),
                Json::from(self.metrics.counter("engine.states_visited")),
            ),
            (
                "dedup_hits".into(),
                Json::from(self.metrics.counter("engine.dedup_hits")),
            ),
            (
                "valence_cache_hits".into(),
                Json::from(self.metrics.counter("valence.memo_hits")),
            ),
            (
                "max_frontier_width".into(),
                Json::from(self.metrics.gauge_max("engine.frontier_width")),
            ),
            ("metrics".into(), self.metrics.to_json()),
        ])
        .canonicalize()
    }
}

thread_local! {
    /// Set while [`unobserved`] runs: experiment bodies get [`NOOP`].
    static UNOBSERVED: Cell<bool> = const { Cell::new(false) };
}

/// Runs `f` with every experiment it runs on this thread observed by
/// [`NOOP`] instead of a [`MetricsRegistry`]. Their tables and verdicts
/// are unchanged, and their metrics hold only the `experiment.run` wall.
/// `bench regress` compares that wall with a registry-observed run to
/// price the registry.
pub fn unobserved<T>(f: impl FnOnce() -> T) -> T {
    let was = UNOBSERVED.replace(true);
    let out = f();
    UNOBSERVED.set(was);
    out
}

/// Runs an experiment body against a fresh [`MetricsRegistry`], timing it
/// via the `experiment.run` span and freezing the telemetry into the
/// returned [`Experiment`].
pub(crate) fn measured(
    id: &'static str,
    claim: &'static str,
    body: impl FnOnce(&dyn Observer) -> (Table, bool),
) -> Experiment {
    measured_on(id, claim, None, body)
}

/// [`measured`] with a second observer teed alongside the registry —
/// the hook the `--trace` / `--profile` modes use to capture span records
/// without disturbing the metrics snapshot.
pub(crate) fn measured_with(
    id: &'static str,
    claim: &'static str,
    extra: &dyn Observer,
    body: impl FnOnce(&dyn Observer) -> (Table, bool),
) -> Experiment {
    measured_on(id, claim, Some(extra), body)
}

fn measured_on(
    id: &'static str,
    claim: &'static str,
    extra: Option<&dyn Observer>,
    body: impl FnOnce(&dyn Observer) -> (Table, bool),
) -> Experiment {
    let registry = MetricsRegistry::new();
    let (table, ok) = if UNOBSERVED.get() {
        let started = clock::monotonic_ns();
        let out = body(extra.unwrap_or(&NOOP));
        let wall = clock::monotonic_ns().saturating_sub(started);
        registry.span_end(names::EXPERIMENT_RUN, wall);
        out
    } else if let Some(extra) = extra {
        let targets: [&dyn Observer; 2] = [&registry, extra];
        run_spanned(&Fanout::new(&targets), body)
    } else {
        run_spanned(&registry, body)
    };
    Experiment {
        id,
        claim,
        table,
        ok,
        metrics: registry.snapshot(),
    }
}

/// Runs `body` on `obs` inside the `experiment.run` span.
fn run_spanned<T>(obs: &dyn Observer, body: impl FnOnce(&dyn Observer) -> T) -> T {
    let _run_span = Span::enter(obs, names::EXPERIMENT_RUN);
    body(obs)
}

/// Runs every experiment at the given scope, in paper order.
#[must_use]
pub fn all_experiments(scope: Scope) -> Vec<Experiment> {
    vec![
        lemma_3_1(scope),
        lemma_3_6(scope),
        theorem_4_2(scope),
        census(scope),
        mobile(scope),
        shared_memory(scope),
        message_passing(scope),
        iis(scope),
        lower_bound(scope),
        lemmas_6_1_6_2(scope),
        lemma_6_4(scope),
        early_stopping(scope),
        task_solvability(scope),
        lemma_7_1(scope),
        lemma_7_4(scope),
        bivalence_profile(scope),
        covering_sanity(scope),
        diameter(scope),
        cert_store(scope),
    ]
}
