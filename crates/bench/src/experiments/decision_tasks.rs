//! Experiments for Section 7: k-thick-connectivity, task solvability
//! (Theorem 7.2 / Corollary 7.3), generalized valence (Lemma 7.1), and the
//! s-diameter recurrence (Lemma 7.6 / Theorem 7.7).

use layered_async_mp::MpModel;
use layered_core::report::{yes_no, Table};
use layered_core::{build_bivalent_run, LayeredModel, Region, ValenceSolver};
use layered_protocols::{MpCollectMin, MpFloodMin, MpIdentity};
use layered_sync_crash::CrashModel;
use layered_sync_mobile::MobileModel;
use layered_topology::{check_task, decided_simplex, diameter_sweep, tasks, Covering};

use crate::{Experiment, Scope};

/// Theorem 7.2 / Corollary 7.3: 1-thick-connectivity of each task's output
/// span versus the verdict of an actual protocol in the 1-resilient
/// message-passing model. Solvable ⟺ 1-thick-connected, on the task suite.
pub fn task_solvability(scope: Scope) -> Experiment {
    crate::measured(
        "E-7.3",
        "Corollary 7.3 (1-thick-connectivity characterizes solvability)",
        |obs| {
            let mut table = Table::new(
                "Thm 7.2 / Cor 7.3 — 1-thick-connectivity vs. 1-resilient solvability (MP)",
                &[
                    "task",
                    "n",
                    "1-thick-conn",
                    "protocol",
                    "verdict",
                    "consistent",
                ],
            );
            let mut ok = true;
            let n = 3usize;
            let _ = scope;

            // consensus: not 1-thick-connected; flooding fails.
            {
                let task = tasks::consensus(n);
                let conn = task.is_k_thick_connected(1);
                let m = MpModel::new(n, MpFloodMin::new(2));
                let report = check_task(&m, &task, 2, 1, obs);
                let consistent = !conn && !report.passed();
                ok &= consistent;
                table.row_owned(vec![
                    task.name().into(),
                    n.to_string(),
                    yes_no(conn).into(),
                    "MpFloodMin(2)".into(),
                    if report.passed() {
                        "solves".into()
                    } else {
                        report.violations[0].kind().to_string()
                    },
                    yes_no(consistent).into(),
                ]);
            }

            // 2-set agreement (ternary inputs): 1-thick-connected; collect(n-1)
            // solves it — after two local phases a process has heard from at least
            // n - 1 processes.
            {
                let task = tasks::k_set_agreement(n, 2);
                let conn = task.is_k_thick_connected(1);
                let m = MpModel::new(n, MpCollectMin::new(n - 1)).with_obligation(2);
                let report = check_task(&m, &task, 2, 1, obs);
                let consistent = conn && report.passed();
                ok &= consistent;
                table.row_owned(vec![
                    task.name().into(),
                    n.to_string(),
                    yes_no(conn).into(),
                    "MpCollectMin(n−1)".into(),
                    if report.passed() {
                        "solves".into()
                    } else {
                        report.violations[0].kind().to_string()
                    },
                    yes_no(consistent).into(),
                ]);
            }

            // identity: 1-thick-connected; decide-own-input solves it wait-free.
            {
                let task = tasks::identity(n);
                let conn = task.is_k_thick_connected(1);
                let m = MpModel::new(n, MpIdentity).with_obligation(1);
                let report = check_task(&m, &task, 1, 1, obs);
                let consistent = conn && report.passed();
                ok &= consistent;
                table.row_owned(vec![
                    task.name().into(),
                    n.to_string(),
                    yes_no(conn).into(),
                    "MpIdentity".into(),
                    if report.passed() {
                        "solves".into()
                    } else {
                        report.violations[0].kind().to_string()
                    },
                    yes_no(consistent).into(),
                ]);
            }

            // pseudo-consensus: connected via the identity facets; identity solves.
            {
                let task = tasks::pseudo_consensus(n);
                let conn = task.is_k_thick_connected(1);
                let m = MpModel::new(n, MpIdentity).with_obligation(1);
                let report = check_task(&m, &task, 1, 1, obs);
                let consistent = conn && report.passed();
                ok &= consistent;
                table.row_owned(vec![
                    task.name().into(),
                    n.to_string(),
                    yes_no(conn).into(),
                    "MpIdentity".into(),
                    if report.passed() {
                        "solves".into()
                    } else {
                        report.violations[0].kind().to_string()
                    },
                    yes_no(consistent).into(),
                ]);
            }

            // 1-set agreement = consensus: same disconnection verdict.
            {
                let task = tasks::k_set_agreement(n, 1);
                let conn = task.is_k_thick_connected(1);
                ok &= !conn;
                table.row_owned(vec![
                    task.name().into(),
                    n.to_string(),
                    yes_no(conn).into(),
                    "-".into(),
                    "unsolvable (≡ consensus)".into(),
                    yes_no(!conn).into(),
                ]);
            }

            (table, ok)
        },
    )
}

/// Lemma 7.1: the Theorem 4.2 loop over core's solver with the consensus
/// covering as its valence probe builds covering-bivalent runs.
pub fn lemma_7_1(scope: Scope) -> Experiment {
    crate::measured(
        "E-7.1",
        "Lemma 7.1 (bivalent runs w.r.t. arbitrary coverings)",
        |obs| {
            let mut table = Table::new(
                "Lemma 7.1 — covering-bivalent runs (generalized valence)",
                &["model", "covering", "run len", "reached"],
            );
            let mut ok = true;
            let steps = match scope {
                Scope::Quick => 1,
                Scope::Full => 2,
            };
            let horizon = steps + 1;

            let m = MpModel::new(3, MpFloodMin::new(horizon as u16));
            let cov = Covering::consensus(3);
            let out = build_bivalent_run(
                &mut ValenceSolver::with_probe(&m, horizon, &cov, obs),
                steps,
            );
            ok &= out.reached_target();
            table.row_owned(vec![
                "MP (S^per)".into(),
                "O_v = all-v outputs".into(),
                out.chain.as_ref().map_or(0, |c| c.steps()).to_string(),
                yes_no(out.reached_target()).into(),
            ]);

            let m = MobileModel::new(3, layered_protocols::FloodMin::new(horizon as u16));
            let out = build_bivalent_run(
                &mut ValenceSolver::with_probe(&m, horizon, &cov, obs),
                steps,
            );
            ok &= out.reached_target();
            table.row_owned(vec![
                "M^mf (S₁)".into(),
                "O_v = all-v outputs".into(),
                out.chain.as_ref().map_or(0, |c| c.steps()).to_string(),
                yes_no(out.reached_target()).into(),
            ]);

            (table, ok)
        },
    )
}

/// Lemma 7.6 / Theorem 7.7: measured s-diameters of the depth-m state sets
/// versus the recurrence bound `d_X·d_Y + d_X + d_Y`.
pub fn diameter(scope: Scope) -> Experiment {
    crate::measured(
        "E-7.6",
        "Lemma 7.6 (s-diameter recurrence bounds hold)",
        |obs| {
            let mut table = Table::new(
                "Lemma 7.6 — s-diameter growth vs. the recurrence bound",
                &[
                    "model",
                    "depth",
                    "states",
                    "measured d",
                    "layer d_Y",
                    "bound",
                    "within",
                ],
            );
            let mut ok = true;
            let depth = match scope {
                Scope::Quick => 1,
                Scope::Full => 2,
            };

            let m = CrashModel::new(3, 1, layered_protocols::FloodMin::new((depth + 1) as u16));
            for row in diameter_sweep(&m, &Region::reachable(&m, depth, obs)) {
                ok &= row.within_bound();
                table.row_owned(vec![
                    "sync t=1 (S^t)".into(),
                    row.depth.to_string(),
                    row.states.to_string(),
                    row.measured.map_or("disc".into(), |d| d.to_string()),
                    row.layer_diameter.map_or("-".into(), |d| d.to_string()),
                    row.bound.map_or("-".into(), |d| d.to_string()),
                    yes_no(row.within_bound()).into(),
                ]);
            }

            let m = MobileModel::new(3, layered_protocols::FloodMin::new((depth + 1) as u16));
            for row in diameter_sweep(&m, &Region::reachable(&m, depth, obs)) {
                ok &= row.within_bound();
                table.row_owned(vec![
                    "M^mf (S₁)".into(),
                    row.depth.to_string(),
                    row.states.to_string(),
                    row.measured.map_or("disc".into(), |d| d.to_string()),
                    row.layer_diameter.map_or("-".into(), |d| d.to_string()),
                    row.bound.map_or("-".into(), |d| d.to_string()),
                    yes_no(row.within_bound()).into(),
                ]);
            }

            (table, ok)
        },
    )
}

/// Extra: the covering validity check — the consensus covering really is a
/// covering of the runs of a correct synchronous protocol, and the decided
/// outputs it classifies match the binary decisions.
pub fn covering_sanity(_scope: Scope) -> Experiment {
    crate::measured(
        "E-7.cov",
        "Coverings classify real protocol outputs",
        |obs| {
            let mut table = Table::new(
                "Covering sanity — decided outputs of FloodMin(t+1) are covered",
                &["n", "t", "terminal simplexes", "covered"],
            );
            let mut ok = true;
            let m = CrashModel::new(3, 1, layered_protocols::FloodMin::new(2));
            let cov = Covering::consensus(3);
            let region = Region::reachable(&m, 2, obs);
            let outputs: Vec<_> = region
                .space()
                .materialize(&region.levels()[region.horizon()])
                .iter()
                .map(|x| decided_simplex(&m, x))
                .collect();
            let covered = cov.is_covering_of(&outputs);
            ok &= covered;
            table.row_owned(vec![
                "3".into(),
                "1".into(),
                outputs.len().to_string(),
                yes_no(covered).into(),
            ]);
            (table, ok)
        },
    )
}

/// Lemma 7.4: in the t-resilient synchronous model, for any covering, there
/// is a run whose prefix `x⁰, …, x^t` is bivalent throughout with at most
/// `m` failures at `x^m` — so no algorithm can decide within `t` rounds for
/// tasks whose coverings separate the outputs.
pub fn lemma_7_4(scope: Scope) -> Experiment {
    crate::measured(
        "E-7.4",
        "Lemma 7.4 (covering-bivalent prefixes survive t−1 rounds)",
        |obs| {
            let mut table = Table::new(
                "Lemma 7.4 — covering-bivalent prefixes in the synchronous model",
                &["n", "t", "chain len", "reached", "failures ≤ m at x^m"],
            );
            let mut ok = true;
            let cases: &[(usize, usize)] = match scope {
                Scope::Quick => &[(3, 1)],
                Scope::Full => &[(3, 1), (4, 2)],
            };
            for &(n, t) in cases {
                let m = CrashModel::new(n, t, layered_protocols::FloodMin::new((t + 1) as u16));
                let cov = Covering::consensus(n);
                let mut solver = ValenceSolver::with_probe(&m, t + 1, &cov, obs);
                // The lemma promises bivalence through round t - 1 at least; with
                // the (t+1)-deadline protocol the chain of length t - 1 must exist
                // (round t states become univalent once the budget pins the run).
                let steps = t.saturating_sub(1);
                let out = build_bivalent_run(&mut solver, steps);
                let reached = out.reached_target();
                ok &= reached;
                let failures_ok = out.chain.as_ref().is_some_and(|c| {
                    c.states()
                        .iter()
                        .enumerate()
                        .all(|(m_idx, x)| x.failure_count() <= m_idx)
                }); // failures(x^m) <= m
                ok &= failures_ok;
                table.row_owned(vec![
                    n.to_string(),
                    t.to_string(),
                    out.chain.as_ref().map_or(0, |c| c.steps()).to_string(),
                    yes_no(reached).into(),
                    yes_no(failures_ok).into(),
                ]);
            }
            (table, ok)
        },
    )
}

/// Bivalence profile: the fraction of bivalent states per depth in each
/// model — a figure-like view of how long the adversary can keep the
/// outcome open, and of how little asynchrony the synchronic submodel needs
/// (the Section 5.1 discussion).
pub fn bivalence_profile(scope: Scope) -> Experiment {
    crate::measured(
        "E-profile",
        "Bivalence persists below the horizon in every model (Thm 4.2 view)",
        |obs| {
            let mut table = Table::new(
                "Bivalence profile — bivalent states per depth",
                &[
                    "model",
                    "depth",
                    "states",
                    "bivalent",
                    "univalent",
                    "novalence",
                ],
            );
            let mut ok = true;
            let depth = match scope {
                Scope::Quick => 1,
                Scope::Full => 2,
            };
            let horizon = depth + 1;

            // The depth through which the adversary is GUARANTEED to keep some
            // state bivalent: below the horizon in the asynchronous models
            // (Theorem 4.2), but only through round t − 1 in the synchronous model
            // (Lemma 6.1 — bivalence dies once the failure budget can no longer
            // protect it, which is the whole point of the t + 1 lower bound).
            macro_rules! profile {
                ($model:expr, $name:expr, $guarantee:expr) => {{
                    let m = $model;
                    let mut solver = ValenceSolver::with_observer(&m, horizon, obs);
                    let roots = m.initial_states();
                    let levels = solver.space_mut().expand_layers(&m, &roots, depth, obs);
                    for (d, level) in levels.iter().enumerate() {
                        let mut biv = 0usize;
                        let mut uni = 0usize;
                        let mut none = 0usize;
                        for &x in level {
                            match solver.valence_id(x) {
                                layered_core::Valence::Bivalent => biv += 1,
                                layered_core::Valence::Univalent(_) => uni += 1,
                                layered_core::Valence::NoValence => none += 1,
                            }
                        }
                        #[allow(clippy::int_plus_one)]
                        if d <= $guarantee {
                            ok &= biv > 0;
                        }
                        table.row_owned(vec![
                            $name.to_string(),
                            d.to_string(),
                            level.len().to_string(),
                            biv.to_string(),
                            uni.to_string(),
                            none.to_string(),
                        ]);
                    }
                }};
            }

            profile!(
                MobileModel::new(3, layered_protocols::FloodMin::new(horizon as u16)),
                "M^mf (S₁)",
                horizon - 1
            );
            profile!(
                layered_async_sm::SmModel::new(
                    3,
                    layered_protocols::SmFloodMin::new(horizon as u16)
                ),
                "M^rw (S^rw)",
                horizon - 1
            );
            profile!(
                MpModel::new(3, MpFloodMin::new(horizon as u16)),
                "MP (S^per)",
                horizon - 1
            );
            let t = 1usize;
            profile!(
                CrashModel::new(3, t, layered_protocols::FloodMin::new(horizon as u16)),
                "sync t=1 (S^t)",
                t - 1
            );

            (table, ok)
        },
    )
}
