//! Experiments for Section 5: the three 1-resilient impossibility results
//! (mobile failures, shared memory, message passing), each as a structural
//! check plus a protocol-refutation sweep.

use layered_async_mp::{permutations, MpModel};
use layered_async_sm::{layer_action_is_legal_schedule, SmModel};
use layered_core::report::{yes_no, Table};
use layered_core::{
    build_bivalent_run, check_consensus, check_crash_display, check_fault_independence,
    check_graded, similarity_report, valence_report, LayeredModel, Pid, ValenceSolver, Value,
};
use layered_iis::IisModel;
use layered_protocols::{FloodMin, FullInfoMin, MpCollectMin, MpFloodMin, SmFloodMin};
use layered_sync_mobile::MobileModel;

use crate::{Experiment, Scope};

/// Lemma 5.1 + Corollary 5.2: the mobile-failure model.
///
/// Checks, per candidate protocol: (i) `S₁` layers are legal `M^mf` rounds,
/// (ii) structural properties (grading, fault independence, crash display),
/// (iii) `S₁(x)` similarity connected over the explored region, and finally
/// (iv) the consensus checker's verdict — which must be a violation, for
/// every deadline, as Corollary 5.2 dictates.
pub fn mobile(scope: Scope) -> Experiment {
    crate::measured(
        "E-5.2",
        "Corollary 5.2 (no consensus under one mobile failure)",
        |obs| {
            let mut table = Table::new(
                "Lemma 5.1 / Corollary 5.2 — single mobile failure (M^mf, S₁)",
                &[
                    "protocol",
                    "deadline",
                    "states",
                    "layers sim-conn",
                    "verdict",
                ],
            );
            let mut ok = true;

            // Structural facts once (protocol-independent mechanics).
            let m = MobileModel::new(3, FloodMin::new(2));
            let x0 = m.initial_state(&[Value::ZERO, Value::ONE, Value::ONE]);
            let structural = m.s1_is_sublayer_at(&x0)
                && check_graded(&m, 2).is_none()
                && check_fault_independence(&m, 1).is_none()
                && check_crash_display(&m, 1).is_none();
            ok &= structural;

            let deadlines: &[u16] = match scope {
                Scope::Quick => &[1, 2],
                Scope::Full => &[1, 2, 3],
            };
            for &r in deadlines {
                let m = MobileModel::new(3, FloodMin::new(r));
                // Similarity connectivity of every layer on the explored region.
                let mut sim_ok = true;
                let mut frontier = m.initial_states();
                for _ in 0..r.min(2) {
                    let mut next = Vec::new();
                    for x in &frontier {
                        let layer = m.s1_layer(x);
                        sim_ok &= similarity_report(&m, &layer, obs).connected;
                        next.extend(layer);
                    }
                    frontier = next;
                    frontier.dedup();
                }
                ok &= sim_ok;
                let report = check_consensus(&m, usize::from(r), 1, obs);
                let verdict = report.violations.first().map_or("PASSED (!)", |v| v.kind());
                ok &= !report.passed();
                table.row_owned(vec![
                    format!("FloodMin({r})"),
                    r.to_string(),
                    report.states_explored.to_string(),
                    yes_no(sim_ok).to_string(),
                    verdict.to_string(),
                ]);
            }
            if matches!(scope, Scope::Full) {
                let m = MobileModel::new(3, FullInfoMin::new(2));
                let report = check_consensus(&m, 2, 1, obs);
                ok &= !report.passed();
                table.row_owned(vec![
                    "FullInfoMin(2)".into(),
                    "2".into(),
                    report.states_explored.to_string(),
                    "-".into(),
                    report
                        .violations
                        .first()
                        .map_or("PASSED (!)", |v| v.kind())
                        .into(),
                ]);
            }

            (table, ok)
        },
    )
}

/// Lemma 5.3 + Corollary 5.4: asynchronous read/write shared memory under
/// the synchronic layering.
pub fn shared_memory(scope: Scope) -> Experiment {
    crate::measured(
        "E-5.4",
        "Corollary 5.4 (no 1-resilient consensus in r/w shared memory)",
        |obs| {
            let mut table = Table::new(
                "Lemma 5.3 / Corollary 5.4 — async shared memory (M^rw, S^rw)",
                &["check", "instances", "holds/verdict"],
            );
            let mut ok = true;
            let m = SmModel::new(3, SmFloodMin::new(2));

            // (i) every layer action is a legal atomic schedule (layering!).
            let mut replayed = 0usize;
            let mut replay_ok = true;
            for x in m.initial_states().into_iter().take(4) {
                for action in m.actions() {
                    replay_ok &= layer_action_is_legal_schedule(&m, &x, action);
                    replayed += 1;
                }
            }
            ok &= replay_ok;
            table.row_owned(vec![
                "S^rw actions replay as W₁R₁W₂R₂ schedules (Lemma 5.3(i))".into(),
                replayed.to_string(),
                yes_no(replay_ok).into(),
            ]);

            // (ii) the bridge x(j,n)(j,A) ≡ x(j,A)(j,0) (mod j).
            let mut bridges = 0usize;
            let mut bridge_ok = true;
            for x in m.initial_states() {
                for j in Pid::all(3) {
                    bridge_ok &= m.bridge_agrees(&x, j);
                    bridges += 1;
                }
            }
            ok &= bridge_ok;
            table.row_owned(vec![
                "bridge x(j,n)(j,A) ≡ x(j,A)(j,0) mod j (Lemma 5.3(iii))".into(),
                bridges.to_string(),
                yes_no(bridge_ok).into(),
            ]);

            // (iii) layer valence connectivity on the bivalent region.
            let mut solver = ValenceSolver::with_observer(&m, 2, obs);
            let mut val_ok = true;
            let mut layers = 0usize;
            for x in m.initial_states() {
                if solver.valence(&x) == layered_core::Valence::Bivalent {
                    let layer = m.layer(&x);
                    val_ok &= valence_report(&mut solver, &layer).connected;
                    layers += 1;
                }
            }
            ok &= val_ok;
            table.row_owned(vec![
                "S^rw(x) valence connected at bivalent x".into(),
                layers.to_string(),
                yes_no(val_ok).into(),
            ]);

            // (iv) the Corollary 5.4 verdicts.
            let deadlines: &[u16] = match scope {
                Scope::Quick => &[2],
                Scope::Full => &[1, 2, 3],
            };
            for &r in deadlines {
                let m = SmModel::new(3, SmFloodMin::new(r));
                let report = check_consensus(&m, usize::from(r), 1, obs);
                ok &= !report.passed();
                table.row_owned(vec![
                    format!("consensus verdict for SmFloodMin({r})"),
                    report.states_explored.to_string(),
                    report
                        .violations
                        .first()
                        .map_or("PASSED (!)", |v| v.kind())
                        .into(),
                ]);
            }

            (table, ok)
        },
    )
}

/// The permutation layering: transposition bridges, the diamond identity,
/// and FLP-style verdicts in asynchronous message passing.
pub fn message_passing(scope: Scope) -> Experiment {
    crate::measured(
        "E-5.per",
        "Section 5.1 MP (FLP via the permutation layering)",
        |obs| {
            let mut table = Table::new(
                "Section 5.1 (MP) — permutation layering S^per",
                &["check", "instances", "holds/verdict"],
            );
            let mut ok = true;
            let m = MpModel::new(3, MpFloodMin::new(2));

            // Transposition similarity bridges.
            let mut bridges = 0usize;
            let mut bridge_ok = true;
            for x in m.initial_states() {
                for order in permutations(3) {
                    for at in 0..2 {
                        let (a, b) = m.transposition_bridges(&x, &order, at);
                        bridge_ok &= a && b;
                        bridges += 2;
                    }
                }
            }
            ok &= bridge_ok;
            table.row_owned(vec![
                "seq ~s conc ~s swapped (transposition chain)".into(),
                bridges.to_string(),
                yes_no(bridge_ok).into(),
            ]);

            // The diamond identity.
            let mut diamonds = 0usize;
            let mut diamond_ok = true;
            for x in m.initial_states() {
                for order in permutations(3) {
                    diamond_ok &= m.diamond_identity_holds(&x, &order);
                    diamonds += 1;
                }
            }
            ok &= diamond_ok;
            table.row_owned(vec![
                "x[p₁…pₙ][p₁…p_{n−1}] = x[p₁…p_{n−1}][pₙ,p₁…] (diamond)".into(),
                diamonds.to_string(),
                yes_no(diamond_ok).into(),
            ]);

            // Layer valence connectivity at bivalent initial states.
            let mut solver = ValenceSolver::with_observer(&m, 2, obs);
            let mut val_ok = true;
            let mut layers = 0usize;
            for x in m.initial_states() {
                if solver.valence(&x) == layered_core::Valence::Bivalent {
                    let layer = m.layer(&x);
                    val_ok &= valence_report(&mut solver, &layer).connected;
                    layers += 1;
                }
            }
            ok &= val_ok;
            table.row_owned(vec![
                "S^per(x) valence connected at bivalent x".into(),
                layers.to_string(),
                yes_no(val_ok).into(),
            ]);

            // FLP verdicts: flooding violates agreement/decision; collect-all
            // violates decision (it waits for the silent process forever).
            let r = 2u16;
            let m = MpModel::new(3, MpFloodMin::new(r));
            let report = check_consensus(&m, usize::from(r), 1, obs);
            ok &= !report.passed();
            table.row_owned(vec![
                format!("consensus verdict for MpFloodMin({r})"),
                report.states_explored.to_string(),
                report
                    .violations
                    .first()
                    .map_or("PASSED (!)", |v| v.kind())
                    .into(),
            ]);

            // The synchronic layering transferred to message passing: the bridge
            // carries over and the submodel refutes consensus just the same (the
            // paper's "completely analogous proof" remark).
            let ms = layered_async_mp::MpSyncModel::new(3, MpFloodMin::new(2));
            let mut bridge_ok = true;
            let mut bridges = 0usize;
            for x in ms.initial_states() {
                for j in Pid::all(3) {
                    bridge_ok &= ms.bridge_agrees(&x, j);
                    bridges += 1;
                }
            }
            ok &= bridge_ok;
            table.row_owned(vec![
                "synchronic-MP bridge x(j,n)(j,A) ≡ x(j,A)(j,0) mod j".into(),
                bridges.to_string(),
                yes_no(bridge_ok).into(),
            ]);
            let report = check_consensus(&ms, 2, 1, obs);
            ok &= !report.passed();
            table.row_owned(vec![
                "consensus verdict for MpFloodMin(2) under synchronic MP".into(),
                report.states_explored.to_string(),
                report
                    .violations
                    .first()
                    .map_or("PASSED (!)", |v| v.kind())
                    .into(),
            ]);

            let m = MpModel::new(3, MpCollectMin::new(3)).with_obligation(2);
            let report = check_consensus(&m, 2, 1, obs);
            ok &= !report.passed();
            table.row_owned(vec![
                "consensus verdict for MpCollectMin(quorum=n)".into(),
                report.states_explored.to_string(),
                report
                    .violations
                    .first()
                    .map_or("PASSED (!)", |v| v.kind())
                    .into(),
            ]);

            if matches!(scope, Scope::Full) {
                let m = MpModel::new(3, MpCollectMin::new(2)).with_obligation(2);
                let report = check_consensus(&m, 2, 1, obs);
                ok &= !report.passed();
                table.row_owned(vec![
                    "consensus verdict for MpCollectMin(quorum=n−1)".into(),
                    report.states_explored.to_string(),
                    report
                        .violations
                        .first()
                        .map_or("PASSED (!)", |v| v.kind())
                        .into(),
                ]);
            }

            (table, ok)
        },
    )
}

/// The iterated immediate snapshot extension (full-paper outlook after
/// Corollary 7.3): the same pipeline — split bridges, valence-connected
/// layers, bivalent runs, checker refutation — holds in the IIS model.
pub fn iis(scope: Scope) -> Experiment {
    crate::measured(
        "E-iis",
        "IIS extension (the same analysis transfers; full-paper outlook)",
        |obs| {
            let mut table = Table::new(
                "IIS extension — immediate-snapshot layers (skip-one)",
                &["check", "instances", "holds/verdict"],
            );
            let mut ok = true;
            let n = 3usize;
            let m = IisModel::new(n, SmFloodMin::new(2));

            // The classical IS connectivity move at every schedule and process.
            let mut bridges = 0usize;
            let mut bridge_ok = true;
            for x in m.initial_states() {
                for schedule in m.actions() {
                    for p in Pid::all(n) {
                        if let Some(holds) = m.singleton_split_bridge(&x, &schedule, p) {
                            bridge_ok &= holds;
                            bridges += 1;
                        }
                    }
                }
            }
            ok &= bridge_ok;
            table.row_owned(vec![
                "singleton-split bridges (IS connectivity move)".into(),
                bridges.to_string(),
                yes_no(bridge_ok).into(),
            ]);

            // Layer valence connectivity at bivalent initial states.
            let mut solver = ValenceSolver::with_observer(&m, 2, obs);
            let mut val_ok = true;
            let mut layers = 0usize;
            for x in m.initial_states() {
                if solver.is_bivalent(&x) {
                    let layer = m.layer(&x);
                    val_ok &= valence_report(&mut solver, &layer).connected;
                    layers += 1;
                }
            }
            ok &= val_ok;
            table.row_owned(vec![
                "S(x) valence connected at bivalent x".into(),
                layers.to_string(),
                yes_no(val_ok).into(),
            ]);

            // Theorem 4.2 in IIS: an ever-bivalent run.
            let mut solver = ValenceSolver::with_observer(&m, 2, obs);
            let run = build_bivalent_run(&mut solver, 1);
            ok &= run.reached_target();
            table.row_owned(vec![
                "bivalent run of full length".into(),
                run.chain.as_ref().map_or(0, |c| c.steps()).to_string(),
                yes_no(run.reached_target()).into(),
            ]);

            // Refutation of consensus candidates, as in every other model.
            let deadlines: &[u16] = match scope {
                Scope::Quick => &[2],
                Scope::Full => &[1, 2],
            };
            for &r in deadlines {
                let m = IisModel::new(n, SmFloodMin::new(r));
                let report = check_consensus(&m, usize::from(r), 1, obs);
                ok &= !report.passed();
                table.row_owned(vec![
                    format!("consensus verdict for SmFloodMin({r})"),
                    report.states_explored.to_string(),
                    report
                        .violations
                        .first()
                        .map_or("PASSED (!)", |v| v.kind())
                        .into(),
                ]);
            }

            (table, ok)
        },
    )
}
