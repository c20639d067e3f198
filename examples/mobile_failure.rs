//! The single mobile failure model `M^mf` and its layering `S₁`
//! (Section 5 of the paper; Santoro–Widmayer impossibility).
//!
//! ```text
//! cargo run --release --example mobile_failure
//! ```
//!
//! Shows a layer `S₁(x)` in full, extracts and re-verifies a similarity
//! chain certificate across it (Lemma 5.1(iii)), and runs the impossibility
//! pipeline of Corollary 5.2.

use layered_consensus::core::telemetry::NOOP;
use layered_consensus::core::{
    check_consensus, similarity_chain_between, similarity_report, LayeredModel, Value,
};
use layered_consensus::protocols::FloodMin;
use layered_consensus::sync_mobile::MobileModel;

fn main() {
    let n = 3;
    let model = MobileModel::new(n, FloodMin::new(2));
    let x = model.initial_state(&[Value::ZERO, Value::ONE, Value::ONE]);

    println!("== the mobile-failure model M^mf with layering S₁ ==\n");
    println!("state x: inputs (0,1,1), round 0");

    // The layer S₁(x): one successor per environment action (j, [k]).
    let layer = model.s1_layer(&x);
    println!("layer S₁(x): {} distinct states", layer.len());
    for (i, y) in layer.iter().enumerate() {
        let knowledge: Vec<usize> = y.locals.iter().map(|ls| ls.known.len()).collect();
        println!("  state {i}: per-process #known-values = {knowledge:?}");
    }

    // Lemma 5.1(iii): the layer is similarity connected; extract an
    // explicit chain certificate between its extremes and re-verify it.
    let rep = similarity_report(&model, &layer, &NOOP);
    println!(
        "\nsimilarity connectivity: connected = {}, diameter = {:?}",
        rep.connected, rep.diameter
    );
    let chain = similarity_chain_between(&model, &layer, 0, layer.len() - 1, &NOOP)
        .expect("Lemma 5.1(iii): the layer is similarity connected");
    println!(
        "certificate: chain of {} edge(s) from state 0 to state {}",
        chain.len(),
        layer.len() - 1
    );
    for (k, w) in chain.witnesses().iter().enumerate() {
        println!(
            "  edge {k}: agree modulo {}, observer {} non-failed in both",
            w.modulo, w.non_failed
        );
    }
    assert!(chain.verify(&model).is_ok(), "certificate must re-verify");
    println!("certificate re-verified from scratch: ok");

    // Corollary 5.2: no protocol solves consensus here. The checker
    // refutes FloodMin at every deadline we try.
    println!("\n== Corollary 5.2: refuting candidate protocols ==");
    for deadline in 1..=3u16 {
        let m = MobileModel::new(n, FloodMin::new(deadline));
        let report = check_consensus(&m, usize::from(deadline), 1, &NOOP);
        println!(
            "FloodMin({deadline}): {} ({} states)",
            report
                .violations
                .first()
                .map_or("unexpectedly passed!", |v| v.kind()),
            report.states_explored
        );
    }
    println!("\nNo deadline works — consensus is unsolvable under one mobile failure.");
}
