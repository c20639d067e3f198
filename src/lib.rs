//! # layered-consensus
//!
//! A complete, executable reproduction of Yoram Moses and Sergio Rajsbaum,
//! *"The Unified Structure of Consensus: a Layered Analysis Approach"*
//! (PODC 1998).
//!
//! The paper unifies the classical consensus impossibility results and
//! lower bounds through one abstraction — a *layering*, a successor
//! function `S : G → 2^G` over global states that carves a well-structured
//! submodel out of a model of distributed computation — and one argument:
//! if every layer is valence connected, a bivalent initial state extends to
//! an ever-bivalent run, so consensus cannot be reached. This workspace
//! turns every definition, lemma, and model of the paper into code:
//!
//! | Crate | Paper content |
//! |-------|---------------|
//! | [`core`] | §2–4: states, runs, systems, failures, valence, similarity/valence connectivity, layerings, the Theorem 4.2 engine, the consensus checker |
//! | [`sync_mobile`] | §5: the single-mobile-failure synchronous model `M^mf` and layering `S₁` (Santoro–Widmayer) |
//! | [`async_sm`] | §5.1: asynchronous r/w shared memory `M^rw`, the synchronic layering `S^rw`, and the atomic base-model interpreter (Loui–Abu-Amara) |
//! | [`async_mp`] | §5.1: asynchronous message passing and the permutation layering `S^per` (the message-passing immediate-snapshot analogue; FLP) |
//! | [`sync_crash`] | §6: the t-resilient synchronous model, layering `S^t`, and the Dolev–Strong `t+1`-round lower bound |
//! | [`iis`] | full-version outlook: the iterated immediate snapshot model under skip-one layers |
//! | [`topology`] | §7: simplexes, complexes, decision tasks, coverings, generalized valence, k-thick-connectivity, the s-diameter recurrence |
//! | [`protocols`] | the protocol library the experiments run: FloodMin, full-information, quorum-collect, RelayRace, trivial deciders |
//! | [`sim`] | the adversary-scheduler simulation runtime: seeded fault injection, schedule recording/replay, delta-debugging shrinking |
//!
//! The experiment harness (`layered-bench`, binary `experiments`)
//! regenerates a paper-vs-measured table for every numbered claim; see
//! EXPERIMENTS.md.
//!
//! ## Quickstart
//!
//! Refute a candidate consensus protocol in asynchronous message passing
//! and extract the FLP witness:
//!
//! ```
//! use layered_consensus::core::telemetry::NOOP;
//! use layered_consensus::core::{build_bivalent_run, check_consensus, ValenceSolver};
//! use layered_consensus::async_mp::MpModel;
//! use layered_consensus::protocols::MpFloodMin;
//!
//! // Flooding with a 2-phase deadline, 3 processes, 1-resilient.
//! let model = MpModel::new(3, MpFloodMin::new(2));
//!
//! // The checker finds a concrete Agreement/Validity/Decision violation...
//! let report = check_consensus(&model, 2, 1, &NOOP);
//! assert!(!report.passed());
//!
//! // ...and the layering engine exhibits the bivalent run behind it.
//! let mut solver = ValenceSolver::new(&model, 2);
//! let run = build_bivalent_run(&mut solver, 1);
//! assert!(run.chain.is_some());
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub use layered_async_mp as async_mp;
pub use layered_async_sm as async_sm;
pub use layered_core as core;
pub use layered_iis as iis;
pub use layered_protocols as protocols;
pub use layered_sim as sim;
pub use layered_sync_crash as sync_crash;
pub use layered_sync_mobile as sync_mobile;
pub use layered_topology as topology;

/// The most commonly used items, re-exported flat.
pub mod prelude {
    pub use layered_async_mp::MpModel;
    pub use layered_async_sm::SmModel;
    pub use layered_core::telemetry::NOOP;
    pub use layered_core::{
        build_bivalent_run, check_consensus, similarity_report, valence_report, LayeredModel, Pid,
        Valence, ValenceSolver, Value,
    };
    pub use layered_protocols::{
        FloodMin, FullInfoMin, MpCollectMin, MpFloodMin, MpProtocol, SmFloodMin, SmProtocol,
        SyncProtocol,
    };
    pub use layered_sync_crash::CrashModel;
    pub use layered_sync_mobile::MobileModel;
    pub use layered_topology::{check_task, tasks, Complex, DecisionTask, Simplex};
}
