//! Model-independent kernel for the *layered analysis* of consensus.
//!
//! This crate is the executable core of Moses & Rajsbaum, *"The Unified
//! Structure of Consensus: a Layered Analysis Approach"* (PODC 1998). The
//! paper analyzes consensus once, abstractly, in terms of *layerings* —
//! successor functions `S : G → 2^G` over global states — and then derives
//! the classical impossibility results and lower bounds in four models by
//! exhibiting suitable layerings. This crate implements the abstract side:
//!
//! * global states, runs and executions over a model ([`LayeredModel`]),
//! * valence of states — 0-valent / 1-valent / bivalent ([`Valence`]),
//! * similarity and valence connectivity with machine-checkable
//!   certificates ([`connectivity`]),
//! * the layering engine: Lemma 4.1 and the Theorem 4.2 bivalent-run
//!   construction ([`layering`]),
//! * exhaustive checking of Decision / Agreement / Validity and of the
//!   abstract failure-model properties ([`checker`]).
//!
//! The concrete models live in sibling crates (`layered-sync-mobile`,
//! `layered-async-sm`, `layered-async-mp`, `layered-sync-crash`), protocols
//! in `layered-protocols`, and the Section 7 decision-task machinery in
//! `layered-topology`.
//!
//! # Quick example
//!
//! Build a toy layered model and run the Theorem 4.2 engine on it:
//!
//! ```
//! use layered_core::{build_bivalent_run, LayeredModel, ValenceSolver};
//! use layered_core::testkit::flp_diamond;
//!
//! let model = flp_diamond();
//! let mut solver = ValenceSolver::new(&model, 2);
//! let outcome = build_bivalent_run(&mut solver, 0);
//! // The diamond's initial state is bivalent: the engine finds it.
//! assert!(outcome.reached_target());
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod artifact;
pub mod checker;
pub mod connectivity;
pub mod graph;
pub mod hash;
mod model;
mod pid;
pub mod report;
pub mod sim;
pub mod space;
pub mod stats;
pub mod sym;
pub mod telemetry;
pub mod testkit;
mod valence;
mod witness;

pub mod layering;

pub use artifact::{
    fnv1a64, state_fingerprint, trace_from_json, trace_to_json, witness_from_json, witness_to_json,
    ArtifactError,
};
pub use checker::{
    check_consensus, check_crash_display, check_fault_independence, check_graded, sweep, trace_to,
    undecided_obligated, ConsensusReport, Violation,
};
pub use connectivity::{
    input_interpolation, quotient_valence_report_ids, s_diameter, similar,
    similarity_chain_between, similarity_graph, similarity_report, similarity_witness,
    valence_report, valence_report_ids, ConnectivityReport, SimilarityChain, SimilarityWitness,
};
pub use layering::{
    bivalent_successor_id, build_bivalent_run, check_lemma_3_1, check_lemma_3_2,
    extend_bivalent_run, scan_layer_valence_connectivity, scan_layer_valence_connectivity_parallel,
    scan_layer_valence_connectivity_quotient, BivalentRunOutcome, LayerScan, Stuck,
};
pub use model::{ExecutionTrace, LayeredModel, TraceError};
pub use pid::{binary_input_vectors, Pid, Value};
pub use sim::{MoveRecord, SimModel};
pub use space::pack::{
    pack_decision, unpack_decision, FieldPacker, PidGroup, StatePacker, WordReader, WordWriter,
    DECISION_BITS,
};
pub use space::snapshot::{
    load_arena, save_arena, ArenaMeta, SnapshotError, SnapshotReader, SnapshotState,
    SNAPSHOT_VERSION,
};
pub use space::{
    Arena, DiffReport, Keying, Orbits, Plain, QuotientSpace, Region, StateId, StateSpace,
};
pub use stats::{census, LevelCensus};
pub use sym::{canonicalize_by_min, orbit_size, PidPerm, Symmetric};
pub use telemetry::{
    Fanout, Heartbeat, Histogram, MemoryBreakdown, MemoryFootprint, MetricsRegistry,
    MetricsSnapshot, NoopObserver, Observer, Span, TraceObserver,
};
pub use valence::{
    undecided_non_failed, DecidedValues, QuotientSolver, Solver, Valence, ValenceProbe,
    ValenceSolver, Valences, DECIDED,
};
pub use witness::{ImpossibilityWitness, WitnessError};
