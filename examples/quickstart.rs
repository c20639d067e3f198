//! Quickstart: refute a consensus protocol with the layered-analysis engine.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! Builds the asynchronous message-passing model under the permutation
//! layering (Section 5.1 of the paper), runs the exhaustive consensus
//! checker against a flooding protocol, and extracts both halves of the
//! FLP-style story: the concrete requirement violation, and the bivalent
//! run showing why *no* deadline could have worked.

use layered_consensus::async_mp::MpModel;
use layered_consensus::core::telemetry::NOOP;
use layered_consensus::core::{
    build_bivalent_run, check_consensus, undecided_non_failed, ValenceSolver, Violation,
};
use layered_consensus::protocols::MpFloodMin;

fn main() {
    let n = 3;
    let deadline = 2u16;
    println!("== layered-consensus quickstart ==");
    println!("model: asynchronous message passing, n = {n}, 1-resilient");
    println!("layering: S^per (permutation layering, Section 5.1)");
    println!("protocol: MpFloodMin with a {deadline}-phase deadline\n");

    let model = MpModel::new(n, MpFloodMin::new(deadline));

    // 1. The checker sweeps every S^per-execution up to the deadline and
    //    finds a concrete violation of Decision, Agreement or Validity.
    let report = check_consensus(&model, usize::from(deadline), 3, &NOOP);
    println!(
        "checker: explored {} states, found {} violation(s)",
        report.states_explored,
        report.violations.len()
    );
    for v in &report.violations {
        match v {
            Violation::Agreement { p, q, .. } => println!(
                "  - agreement: {} decided {} while {} decided {}",
                p.0, p.1, q.0, q.1
            ),
            Violation::Validity { p, v, .. } => {
                println!("  - validity: {p} decided {v}, which is nobody's input");
            }
            Violation::Decision { undecided, .. } => println!(
                "  - decision: {} obligated process(es) undecided at the deadline",
                undecided.len()
            ),
        }
    }

    // 2. The Theorem 4.2 engine: a bivalent initial state (Lemma 3.6)
    //    extended through bivalent layers (Lemma 4.1).
    let mut solver = ValenceSolver::new(&model, usize::from(deadline));
    let run = build_bivalent_run(&mut solver, usize::from(deadline) - 1);
    match run.chain {
        Some(chain) => {
            println!(
                "\nbivalent run: {} layer(s), starting from inputs {:?}",
                chain.steps(),
                chain
                    .first()
                    .inputs
                    .iter()
                    .map(|v| v.get())
                    .collect::<Vec<_>>()
            );
            for (k, state) in chain.states().iter().enumerate() {
                let undecided = undecided_non_failed(&model, state).len();
                println!(
                    "  layer {k}: bivalent, {undecided}/{n} processes undecided, {} message(s) in transit",
                    state.in_transit()
                );
            }
            println!(
                "\nEvery state of the run is bivalent, so by Lemma 3.2 nobody has\n\
                 decided — consensus cannot have been reached by the deadline."
            );
        }
        None => println!("no bivalent initial state: the protocol already fails validity/decision"),
    }
}
