//! Combinatorial-topology machinery for general decision problems, per
//! Section 7 of Moses & Rajsbaum, PODC 1998.
//!
//! Provides vertices/simplexes/complexes ([`Simplex`], [`Complex`]),
//! decision problems `⟨I, O, Δ⟩` with a standard task library
//! ([`DecisionTask`], [`tasks`]), coverings ([`Covering`]),
//! k-thick-connectivity ([`Complex::is_k_thick_connected`]), an exhaustive
//! task checker over any layered model ([`check_task`]), and the Lemma 7.6
//! s-diameter recurrence ([`diameter_sweep`]).
//!
//! The crate has no engine of its own. A [`Covering`] is a
//! [`ValenceProbe`](layered_core::ValenceProbe): core's
//! [`Solver::with_probe`](layered_core::Solver::with_probe) computes
//! generalized valence w.r.t. it, and core's
//! [`build_bivalent_run`](layered_core::build_bivalent_run) over that
//! solver is the Lemma 7.1 construction. [`check_task`] is a task
//! predicate on core's checker [`sweep`](layered_core::sweep), and
//! [`diameter_sweep`] reads its levels and layers from a core
//! [`Region`](layered_core::Region).
//!
//! Together these reproduce the paper's characterization story
//! (Theorem 7.2, Corollary 7.3, Theorem 7.7): consensus's output structure
//! fails 1-thick-connectivity and no protocol passes the checker in any of
//! the 1-resilient models, while 2-set agreement, identity, and constant
//! tasks pass on both counts.
//!
//! # Example
//!
//! ```
//! use layered_core::telemetry::NOOP;
//! use layered_core::testkit::flp_diamond;
//! use layered_core::{build_bivalent_run, ValenceSolver};
//! use layered_topology::{tasks, Covering};
//!
//! // The combinatorial half of the FLP story:
//! assert!(!tasks::consensus(3).is_k_thick_connected(1));
//! assert!(tasks::k_set_agreement(3, 2).is_k_thick_connected(1));
//!
//! // Lemma 7.1 on a toy model: a run bivalent w.r.t. the consensus
//! // covering, built by core's engine.
//! let m = flp_diamond();
//! let cov = Covering::consensus(2);
//! let mut solver = ValenceSolver::with_probe(&m, 2, &cov, &NOOP);
//! assert!(build_bivalent_run(&mut solver, 0).reached_target());
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod checker;
mod complex;
mod covering;
mod diameter;
mod simplex;
mod task;

pub use checker::{check_task, TaskReport, TaskViolation};
pub use complex::Complex;
pub use covering::{decided_simplex, nonfaulty_decision_simplexes, Covering};
pub use diameter::{diameter_sweep, lemma_7_6_bound, DiameterRow};
pub use simplex::Simplex;
pub use task::{tasks, DecisionTask};
