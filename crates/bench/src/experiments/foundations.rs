//! Experiments for the model-independent core: Lemmas 3.1, 3.2, 3.6 and
//! Theorem 4.2, instantiated in every model.

use layered_async_mp::MpModel;
use layered_async_sm::SmModel;
use layered_core::report::{yes_no, Table};
use layered_core::telemetry::Observer;
use layered_core::{
    build_bivalent_run, check_lemma_3_1, check_lemma_3_2, scan_layer_valence_connectivity,
    scan_layer_valence_connectivity_parallel, similarity_report, valence_report, LayeredModel,
    Valence, ValenceSolver,
};
use layered_protocols::{FloodMin, MpFloodMin, SmFloodMin};
use layered_sync_crash::CrashModel;
use layered_sync_mobile::MobileModel;

use crate::{Experiment, Scope};

fn lemma_3_6_row<M: LayeredModel>(
    model: &M,
    name: &str,
    horizon: usize,
    table: &mut Table,
    obs: &dyn Observer,
) -> bool {
    let inits = model.initial_states();
    let sim = similarity_report(model, &inits, obs);
    let mut solver = ValenceSolver::with_observer(model, horizon, obs);
    let val = valence_report(&mut solver, &inits);
    let bivalent = inits
        .iter()
        .filter(|x| solver.valence(x) == Valence::Bivalent)
        .count();
    table.row_owned(vec![
        name.to_string(),
        model.num_processes().to_string(),
        inits.len().to_string(),
        yes_no(sim.connected).to_string(),
        sim.diameter.map_or("-".into(), |d| d.to_string()),
        yes_no(val.connected).to_string(),
        bivalent.to_string(),
    ]);
    sim.connected && val.connected && bivalent > 0
}

/// Lemma 3.6: `Con₀` is similarity connected; with decision + validity +
/// arbitrary-crash display it is valence connected and contains a bivalent
/// initial state. Checked in all four models.
pub fn lemma_3_6(scope: Scope) -> Experiment {
    crate::measured(
        "E-3.6",
        "Lemma 3.6 (bivalent initial state exists; Con₀ connected)",
        |obs| {
            let mut table = Table::new(
                "Lemma 3.6 — Con₀ connectivity and bivalent initial states",
                &[
                    "model",
                    "n",
                    "|Con₀|",
                    "sim-conn",
                    "s-diam",
                    "val-conn",
                    "#bivalent",
                ],
            );
            let mut ok = true;
            let ns: &[usize] = match scope {
                Scope::Quick => &[3],
                Scope::Full => &[2, 3, 4],
            };
            for &n in ns {
                ok &= lemma_3_6_row(
                    &MobileModel::new(n, FloodMin::new(2)),
                    "M^mf (S₁)",
                    2,
                    &mut table,
                    obs,
                );
                ok &= lemma_3_6_row(
                    &SmModel::new(n, SmFloodMin::new(2)),
                    "M^rw (S^rw)",
                    2,
                    &mut table,
                    obs,
                );
                if n <= 3 {
                    ok &= lemma_3_6_row(
                        &MpModel::new(n, MpFloodMin::new(2)),
                        "MP (S^per)",
                        2,
                        &mut table,
                        obs,
                    );
                }
                if n >= 3 {
                    ok &= lemma_3_6_row(
                        &CrashModel::new(n, 1, FloodMin::new(2)),
                        "sync t=1 (S^t)",
                        2,
                        &mut table,
                        obs,
                    );
                }
            }
            (table, ok)
        },
    )
}

/// Lemmas 3.1 and 3.2: the undecided-process bounds at bivalent states,
/// swept over every reachable state.
///
/// Both lemmas presuppose Agreement, so the subject protocols must satisfy
/// it on every run: the asynchronous rows use the RelayRace family
/// (agreement-safe by construction, genuinely bivalent), and the
/// synchronous rows use FloodMin at its correct deadline `t + 1`
/// (exhaustively verified by E-6.3).
pub fn lemma_3_1(scope: Scope) -> Experiment {
    crate::measured(
        "E-3.1",
        "Lemmas 3.1/3.2 (bivalence keeps processes undecided)",
        |obs| {
            let mut table = Table::new(
                "Lemmas 3.1/3.2 — undecided processes at bivalent states",
                &["model", "protocol", "n", "t", "depth", "claim", "holds"],
            );
            let mut ok = true;
            let depth = match scope {
                Scope::Quick => 1,
                Scope::Full => 2,
            };
            let horizon = depth + 2;

            // No-finite-failure models: the stronger Lemma 3.2 (nobody decided).
            let m = MobileModel::new(3, layered_protocols::SyncRelayRace);
            let mut solver = ValenceSolver::with_observer(&m, horizon, obs);
            let holds = check_lemma_3_2(&mut solver, depth).is_none();
            ok &= holds;
            table.row(&[
                "M^mf (S₁)",
                "RelayRace",
                "3",
                "1",
                &depth.to_string(),
                "3.2: none decided",
                yes_no(holds),
            ]);

            let m = SmModel::new(3, layered_protocols::SmRelayRace);
            let mut solver = ValenceSolver::with_observer(&m, horizon, obs);
            let holds = check_lemma_3_2(&mut solver, depth).is_none();
            ok &= holds;
            table.row(&[
                "M^rw (S^rw)",
                "RelayRace",
                "3",
                "1",
                &depth.to_string(),
                "3.2: none decided",
                yes_no(holds),
            ]);

            let m = MpModel::new(3, layered_protocols::MpRelayRace);
            let mut solver = ValenceSolver::with_observer(&m, horizon.min(3), obs);
            let holds = check_lemma_3_2(&mut solver, depth.min(2)).is_none();
            ok &= holds;
            table.row(&[
                "MP (S^per)",
                "RelayRace",
                "3",
                "1",
                &depth.min(2).to_string(),
                "3.2: none decided",
                yes_no(holds),
            ]);

            // Finite-failure model: Lemma 3.1's n - t bound, against the
            // verified t+1-round FloodMin.
            let m = CrashModel::new(3, 1, FloodMin::new(2));
            let mut solver = ValenceSolver::with_observer(&m, 2, obs);
            let holds = check_lemma_3_1(&mut solver, depth).is_none();
            ok &= holds;
            table.row(&[
                "sync t=1 (S^t)",
                "FloodMin(t+1)",
                "3",
                "1",
                &depth.to_string(),
                "3.1: ≥ n−t undecided",
                yes_no(holds),
            ]);

            if matches!(scope, Scope::Full) {
                let m = CrashModel::new(4, 2, FloodMin::new(3));
                let mut solver = ValenceSolver::with_observer(&m, 3, obs);
                let holds = check_lemma_3_1(&mut solver, 2).is_none();
                ok &= holds;
                table.row(&[
                    "sync t=2 (S^t)",
                    "FloodMin(t+1)",
                    "4",
                    "2",
                    "2",
                    "3.1: ≥ n−t undecided",
                    yes_no(holds),
                ]);
            }

            (table, ok)
        },
    )
}

/// Theorem 4.2: every layer of every model is valence connected over the
/// bivalent region, and an ever-bivalent run of the full horizon exists —
/// so no candidate protocol satisfies all of consensus.
pub fn theorem_4_2(scope: Scope) -> Experiment {
    crate::measured(
        "E-4.2",
        "Theorem 4.2 (ever-bivalent runs exist in every async model)",
        |obs| {
            let mut table = Table::new(
                "Theorem 4.2 — layer valence connectivity and bivalent runs",
                &[
                    "model",
                    "n",
                    "layers checked",
                    "all val-conn",
                    "run len",
                    "reached",
                ],
            );
            let mut ok = true;
            let depth = match scope {
                Scope::Quick => 1,
                Scope::Full => 2,
            };
            let horizon = depth + 1;

            macro_rules! run_for {
                ($model:expr, $name:expr, $n:expr) => {{
                    let m = $model;
                    let mut solver = ValenceSolver::with_observer(&m, horizon, obs);
                    let scan = scan_layer_valence_connectivity(&mut solver, depth, true);
                    // Cross-check: the parallel expansion path must report
                    // exactly what the sequential path did.
                    let mut par_solver = ValenceSolver::with_observer(&m, horizon, obs);
                    let par_scan =
                        scan_layer_valence_connectivity_parallel(&mut par_solver, depth, true, 4);
                    let run = build_bivalent_run(&mut solver, depth);
                    let reached = run.reached_target();
                    let len = run.chain.as_ref().map_or(0, |c| c.steps());
                    ok &= scan.all_connected() && scan == par_scan && reached;
                    table.row_owned(vec![
                        $name.to_string(),
                        $n.to_string(),
                        scan.layers_checked.to_string(),
                        yes_no(scan.all_connected()).to_string(),
                        len.to_string(),
                        yes_no(reached).to_string(),
                    ]);
                }};
            }

            run_for!(
                MobileModel::new(3, FloodMin::new(horizon as u16)),
                "M^mf (S₁)",
                3
            );
            run_for!(
                SmModel::new(3, SmFloodMin::new(horizon as u16)),
                "M^rw (S^rw)",
                3
            );
            run_for!(
                MpModel::new(3, MpFloodMin::new(horizon as u16)),
                "MP (S^per)",
                3
            );

            (table, ok)
        },
    )
}

/// Census: the size of the submodels the layerings induce — the
/// quantitative payoff of working in a layered submodel instead of the full
/// model (footnote 1 and the Section 5.1 discussion).
pub fn census(scope: Scope) -> Experiment {
    use layered_core::stats::census;
    crate::measured(
        "E-census",
        "Induced-submodel census (layerings keep the state space small)",
        |obs| {
            let mut table = Table::new(
                "Model census — induced state spaces, level by level",
                &[
                    "model",
                    "n",
                    "depth",
                    "states",
                    "avg layer",
                    "max layer",
                    "decided",
                ],
            );
            let depth = match scope {
                Scope::Quick => 1,
                Scope::Full => 2,
            };
            let mut ok = true;

            macro_rules! census_rows {
                ($model:expr, $name:expr, $n:expr) => {{
                    let m = $model;
                    let rows = census(&m, depth, obs);
                    for r in &rows {
                        table.row_owned(vec![
                            $name.to_string(),
                            $n.to_string(),
                            r.depth.to_string(),
                            r.states.to_string(),
                            format!("{:.1}", r.avg_layer()),
                            r.max_layer.to_string(),
                            r.with_decisions.to_string(),
                        ]);
                    }
                    // Sanity: state counts never shrink to zero mid-exploration.
                    ok &= rows.iter().all(|r| r.states > 0);
                }};
            }

            census_rows!(
                MobileModel::new(3, FloodMin::new((depth + 1) as u16)),
                "M^mf (S₁)",
                3
            );
            census_rows!(
                SmModel::new(3, SmFloodMin::new((depth + 1) as u16)),
                "M^rw (S^rw)",
                3
            );
            census_rows!(
                MpModel::new(3, MpFloodMin::new((depth + 1) as u16)),
                "MP (S^per)",
                3
            );
            census_rows!(
                CrashModel::new(3, 1, FloodMin::new((depth + 1) as u16)),
                "sync t=1 (S^t)",
                3
            );
            census_rows!(
                layered_iis::IisModel::new(3, SmFloodMin::new((depth + 1) as u16)),
                "IIS (skip-1)",
                3
            );

            (table, ok)
        },
    )
}
