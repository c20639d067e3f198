//! # layered-sim
//!
//! A deterministic adversary-scheduler simulation runtime over the layered
//! models of Moses & Rajsbaum's *"The Unified Structure of Consensus"*
//! (PODC 1998).
//!
//! The exhaustive engines in `layered-core` analyze *all* runs of a protocol
//! by enumerating every layer successor — exact, but capped around `n ≤ 3`.
//! This crate takes the complementary, Gafni–Losa-style view of the same
//! objects: consensus as an adversary-vs-protocol game, executed one long
//! run at a time. A pluggable [`Adversary`] strategy plays one legal layer
//! move per round against any
//! [`SimModel`](layered_core::SimModel) — the four model families all
//! implement it — so every simulated run is a genuine `S`-execution by
//! construction, at sizes (`n = 16`, `n = 64`) the enumerator cannot touch.
//!
//! Three guarantees organize the crate:
//!
//! * **Determinism** ([`rng`], [`runtime`]) — a run is a pure function of
//!   `(master seed, run index, config)`; re-running reproduces it
//!   bit-for-bit.
//! * **Replayability** ([`schedule`]) — every run records a compact
//!   [`Schedule`] that rebuilds the exact state sequence and can be
//!   re-verified against the model's layering via
//!   [`ExecutionTrace::validate`](layered_core::ExecutionTrace::validate).
//! * **Shrinkability** ([`shrink`](mod@shrink)) — a violating schedule reduces, by
//!   delta debugging, to a minimal prefix with the same violation class.
//!
//! The runtime reports through the `layered-core` telemetry bus
//! (`sim.runs`, `sim.steps`, `sim.faults_injected` counters and `sim.run`
//! spans) and emits one JSON record per run via [`run_record`], in the same
//! shape the experiment harness writes with `--json`.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod adversary;
pub mod rng;
pub mod runtime;
pub mod schedule;
pub mod shrink;

pub use adversary::{
    Adversary, CrashAtRound, MessageDropper, MobileRoamer, RandomAdversary, RoundRobinAdversary,
};
pub use rng::SimRng;
pub use runtime::{classify, run_record, RunOutcome, SimConfig, SimRun, Simulator};
pub use schedule::{Schedule, ScheduleJsonError};
pub use shrink::shrink;
