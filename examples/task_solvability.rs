//! Decision-task solvability via k-thick-connectivity (Section 7 of the
//! paper; Theorem 7.2 and Corollary 7.3).
//!
//! ```text
//! cargo run --release --example task_solvability
//! ```
//!
//! Classifies a suite of decision problems by the 1-thick-connectivity of
//! their output structure and confirms each verdict operationally: a
//! protocol in the 1-resilient asynchronous message-passing model either
//! solves the task over every explored run or is refuted with a witness.

use layered_consensus::async_mp::MpModel;
use layered_consensus::core::telemetry::NOOP;
use layered_consensus::core::Value;
use layered_consensus::protocols::{MpCollectMin, MpFloodMin, MpIdentity};
use layered_consensus::topology::{check_task, tasks, DecisionTask};

fn classify(task: &DecisionTask) {
    let n = task.num_processes();
    let conn = task.is_k_thick_connected(1);
    let span = task.full_span();
    println!(
        "{:<18} facets = {:<3} 1-thick-connected = {}",
        task.name(),
        span.facet_count(),
        if conn { "yes" } else { "NO " },
    );
    let _ = n;
}

fn main() {
    let n = 3;
    println!("== combinatorial classification (C_Δ over all inputs) ==\n");
    let suite = [
        tasks::consensus(n),
        tasks::k_set_agreement(n, 2),
        tasks::k_set_agreement(n, 1),
        tasks::identity(n),
        tasks::constant(n, Value::ZERO),
        tasks::pseudo_consensus(n),
    ];
    for task in &suite {
        classify(task);
    }

    println!("\n== operational confirmation in 1-resilient message passing ==\n");

    // Consensus: disconnected => unsolvable. Flooding is refuted.
    let task = tasks::consensus(n);
    let m = MpModel::new(n, MpFloodMin::new(2));
    let report = check_task(&m, &task, 2, 1, &NOOP);
    println!(
        "consensus        + MpFloodMin(2):     {} ({} states)",
        report.violations.first().map_or("solves?!", |v| v.kind()),
        report.states_explored
    );

    // 2-set agreement: connected => solvable. Collect n-1 inputs, decide min.
    let task = tasks::k_set_agreement(n, 2);
    let m = MpModel::new(n, MpCollectMin::new(n - 1)).with_obligation(2);
    let report = check_task(&m, &task, 2, 1, &NOOP);
    println!(
        "2-set agreement  + MpCollectMin(n−1): {} ({} states)",
        if report.passed() {
            "solved"
        } else {
            report.violations[0].kind()
        },
        report.states_explored
    );

    // Identity: solvable wait-free by deciding the own input.
    let task = tasks::identity(n);
    let m = MpModel::new(n, MpIdentity).with_obligation(1);
    let report = check_task(&m, &task, 1, 1, &NOOP);
    println!(
        "identity         + MpIdentity:        {} ({} states)",
        if report.passed() {
            "solved"
        } else {
            report.violations[0].kind()
        },
        report.states_explored
    );

    println!(
        "\nThe verdicts line up with Corollary 7.3: a task is solvable\n\
         1-resiliently exactly if its output structure is 1-thick-connected."
    );
}
