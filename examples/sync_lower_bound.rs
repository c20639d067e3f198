//! The Dolev–Strong t+1-round lower bound, reproduced end to end
//! (Section 6 of the paper, Corollary 6.3).
//!
//! ```text
//! cargo run --release --example sync_lower_bound
//! ```
//!
//! For each instance (n, t): FloodMin with deadline `t` is refuted with an
//! explicit agreement-violating run, FloodMin with deadline `t + 1` is
//! verified exhaustively over every `S^t`-run, and the Lemma 6.1 bivalent
//! chain plus the Lemma 6.2 undecided successor are constructed — the two
//! halves of the lower-bound argument.

use layered_consensus::core::telemetry::NOOP;
use layered_consensus::core::{check_consensus, ValenceSolver};
use layered_consensus::protocols::FloodMin;
use layered_consensus::sync_crash::{lemma_6_1_chain, lemma_6_2_witness, CrashModel};

fn main() {
    println!("== the t+1-round lower bound (Corollary 6.3) ==\n");
    for (n, t) in [(3usize, 1usize), (4, 1), (4, 2)] {
        println!("--- n = {n}, t = {t} ---");

        // A t-round candidate must fail.
        let fast = CrashModel::new(n, t, FloodMin::new(t as u16));
        let report = check_consensus(&fast, t, 1, &NOOP);
        match report.violations.first() {
            Some(v) => println!(
                "FloodMin({t}): REFUTED over {} states ({} violation found)",
                report.states_explored,
                v.kind()
            ),
            None => println!("FloodMin({t}): unexpectedly passed — lower bound violated!"),
        }

        // The t+1-round protocol passes, exhaustively.
        let tight = CrashModel::new(n, t, FloodMin::new((t + 1) as u16));
        let report = check_consensus(&tight, t + 1, 1, &NOOP);
        println!(
            "FloodMin({}): {} over {} states (the bound is tight)",
            t + 1,
            if report.passed() {
                "VERIFIED"
            } else {
                "FAILED"
            },
            report.states_explored
        );

        // Why t rounds cannot suffice: bivalence survives t - 1 layers
        // (Lemma 6.1), and one more round still leaves an undecided
        // non-failed process (Lemma 6.2).
        let mut solver = ValenceSolver::new(&tight, t + 1);
        if let Some(x0) = solver.bivalent_initial_state() {
            let out = lemma_6_1_chain(&tight, &mut solver, x0);
            if let Some(chain) = &out.chain {
                println!(
                    "Lemma 6.1: bivalent chain of {} layer(s) built, {} failure(s) at its end",
                    chain.steps(),
                    chain.last().failure_count()
                );
                if let Some((y, undecided)) = lemma_6_2_witness(&tight, chain.last()) {
                    println!(
                        "Lemma 6.2: successor at round {} with {} undecided non-failed process(es)",
                        y.round,
                        undecided.len()
                    );
                }
            }
        }
        println!();
    }
    println!(
        "Every t-round candidate was refuted and every (t+1)-round FloodMin verified:\n\
         worst-case decision requires exactly t + 1 rounds."
    );
}
