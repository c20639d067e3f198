//! Experiments for Section 6: the t+1-round lower bound and its
//! surrounding lemmas in the t-resilient synchronous model.

use layered_core::report::{yes_no, Table};
use layered_core::telemetry::{names, Observer, NOOP};
use layered_core::{check_consensus, Region, Valence, ValenceSolver};
use layered_protocols::FloodMin;
use layered_sync_crash::{
    check_display_below_budget, check_lemma_6_4, lemma_6_1_chain, lemma_6_2_witness, CrashModel,
};

use crate::{Experiment, Scope};

/// Corollary 6.3: every `t`-round candidate fails; FloodMin at `t + 1`
/// passes exhaustively — the Dolev–Strong bound, and its tightness.
pub fn lower_bound(scope: Scope) -> Experiment {
    crate::measured(
        "E-6.3",
        "Corollary 6.3 (t+1 rounds necessary; FloodMin(t+1) sufficient)",
        |obs| {
            let mut table = Table::new(
                "Corollary 6.3 — the t+1-round lower bound (and tightness)",
                &["n", "t", "protocol", "states", "verdict", "as expected"],
            );
            let mut ok = true;
            let cases: &[(usize, usize)] = match scope {
                Scope::Quick => &[(3, 1)],
                Scope::Full => &[(3, 1), (4, 1), (4, 2)],
            };
            for &(n, t) in cases {
                // The too-fast candidate: t rounds.
                let m = CrashModel::new(n, t, FloodMin::new(t as u16));
                let report = check_consensus(&m, t, 1, obs);
                let expected = !report.passed();
                ok &= expected;
                table.row_owned(vec![
                    n.to_string(),
                    t.to_string(),
                    format!("FloodMin({t})"),
                    report.states_explored.to_string(),
                    report
                        .violations
                        .first()
                        .map_or("passed", |v| v.kind())
                        .to_string(),
                    yes_no(expected).to_string(),
                ]);
                // The tight protocols: t + 1 rounds, exhaustively verified —
                // three independently structured witnesses that the bound is
                // tight.
                let m = CrashModel::new(n, t, FloodMin::new((t + 1) as u16));
                let report = check_consensus(&m, t + 1, 1, obs);
                let expected = report.passed();
                ok &= expected;
                table.row_owned(vec![
                    n.to_string(),
                    t.to_string(),
                    format!("FloodMin({})", t + 1),
                    report.states_explored.to_string(),
                    if report.passed() {
                        "passed".into()
                    } else {
                        report.violations[0].kind().to_string()
                    },
                    yes_no(expected).to_string(),
                ]);

                let m = CrashModel::new(n, t, layered_protocols::Eig::new((t + 1) as u16));
                let report = check_consensus(&m, t + 1, 1, obs);
                let expected = report.passed();
                ok &= expected;
                table.row_owned(vec![
                    n.to_string(),
                    t.to_string(),
                    format!("EIG({})", t + 1),
                    report.states_explored.to_string(),
                    if report.passed() {
                        "passed".into()
                    } else {
                        report.violations[0].kind().to_string()
                    },
                    yes_no(expected).to_string(),
                ]);

                let m =
                    CrashModel::new(n, t, layered_protocols::EarlyFloodMin::new((t + 1) as u16));
                let report = check_consensus(&m, t + 1, 1, obs);
                let expected = report.passed();
                ok &= expected;
                table.row_owned(vec![
                    n.to_string(),
                    t.to_string(),
                    format!("EarlyFloodMin({})", t + 1),
                    report.states_explored.to_string(),
                    if report.passed() {
                        "passed".into()
                    } else {
                        report.violations[0].kind().to_string()
                    },
                    yes_no(expected).to_string(),
                ]);
            }
            (table, ok)
        },
    )
}

/// Lemmas 6.1 and 6.2: bivalence survives `t − f − 1` layers, and one more
/// round still leaves an undecided non-failed process.
pub fn lemmas_6_1_6_2(scope: Scope) -> Experiment {
    crate::measured(
        "E-6.1",
        "Lemmas 6.1/6.2 (bivalence forces t+1 rounds)",
        |obs| {
            let mut table = Table::new(
                "Lemmas 6.1/6.2 — bivalent chains and undecided successors",
                &[
                    "n",
                    "t",
                    "chain len (t−1)",
                    "built",
                    "6.2 witness",
                    "undecided",
                ],
            );
            let mut ok = true;
            let cases: &[(usize, usize)] = match scope {
                Scope::Quick => &[(3, 1)],
                Scope::Full => &[(3, 1), (4, 2)],
            };
            for &(n, t) in cases {
                let m = CrashModel::new(n, t, FloodMin::new((t + 1) as u16));
                let mut solver = ValenceSolver::with_observer(&m, t + 1, obs);
                let x0 = solver.bivalent_initial_state();
                let Some(x0) = x0 else {
                    ok = false;
                    table.row_owned(vec![
                        n.to_string(),
                        t.to_string(),
                        "-".into(),
                        "NO BIVALENT INIT".into(),
                        "-".into(),
                        "-".into(),
                    ]);
                    continue;
                };
                let out = lemma_6_1_chain(&m, &mut solver, x0);
                let built = out.reached_target();
                ok &= built;
                let last = out.chain.as_ref().map(|c| c.last().clone());
                let (witness, undecided) = match last {
                    Some(ref x) if solver.valence(x) == Valence::Bivalent => {
                        match lemma_6_2_witness(&m, x) {
                            Some((y, u)) => {
                                let _ = y;
                                (true, u.len())
                            }
                            None => (false, 0),
                        }
                    }
                    _ => (false, 0),
                };
                ok &= witness;
                table.row_owned(vec![
                    n.to_string(),
                    t.to_string(),
                    (t - 1).to_string(),
                    yes_no(built).to_string(),
                    yes_no(witness).to_string(),
                    undecided.to_string(),
                ]);
            }
            (table, ok)
        },
    )
}

/// Ablation: early-stopping vs. plain FloodMin — rounds until every
/// non-failed process has decided, grouped by the run's failure count.
///
/// This quantifies the discussion after Lemma 6.4 (the Dwork–Moses-style
/// `f + 2` upper bounds): wasting failures costs the adversary rounds. The
/// experiment enumerates *every* `S^t`-run to the deadline and records when
/// each protocol finished.
pub fn early_stopping(scope: Scope) -> Experiment {
    crate::measured(
        "E-early",
        "Early stopping decides by round min(f+2, t+1) (post-6.4 discussion)",
        |obs| {
            let mut table = Table::new(
                "Early stopping — decision round vs. failures (all S^t-runs)",
                &[
                    "n",
                    "t",
                    "protocol",
                    "f",
                    "runs",
                    "min round",
                    "max round",
                    "≤ min(f+2, t+1)",
                ],
            );
            let mut ok = true;
            let cases: &[(usize, usize)] = match scope {
                Scope::Quick => &[(3, 1)],
                Scope::Full => &[(3, 1), (4, 2)],
            };

            // Enumerate all paths, recording (failures at the end, first depth at
            // which every non-failed process had decided).
            fn sweep<M: layered_core::LayeredModel>(
                model: &M,
                horizon: usize,
                obs: &dyn Observer,
            ) -> std::collections::BTreeMap<usize, (usize, usize, usize)> {
                // f -> (runs, min_round, max_round)
                let mut acc = std::collections::BTreeMap::new();
                fn all_decided<M: layered_core::LayeredModel>(m: &M, x: &M::State) -> bool {
                    m.non_failed(x)
                        .into_iter()
                        .all(|i| m.decision(x, i).is_some())
                }
                fn rec<M: layered_core::LayeredModel>(
                    m: &M,
                    x: &M::State,
                    depth: usize,
                    horizon: usize,
                    first_done: Option<usize>,
                    acc: &mut std::collections::BTreeMap<usize, (usize, usize, usize)>,
                    obs: &dyn Observer,
                ) {
                    obs.counter(names::ENGINE_STATES_VISITED, 1);
                    let first_done = first_done.or_else(|| all_decided(m, x).then_some(depth));
                    if depth == horizon {
                        let f = m.non_failed(x).len();
                        let f = m.num_processes() - f;
                        let round = first_done.unwrap_or(horizon + 1);
                        let e = acc.entry(f).or_insert((0, usize::MAX, 0));
                        e.0 += 1;
                        e.1 = e.1.min(round);
                        e.2 = e.2.max(round);
                        return;
                    }
                    for y in m.successors(x) {
                        rec(m, &y, depth + 1, horizon, first_done, acc, obs);
                    }
                }
                for x0 in model.initial_states() {
                    rec(model, &x0, 0, horizon, None, &mut acc, obs);
                }
                acc
            }

            for &(n, t) in cases {
                for early in [false, true] {
                    let name = if early { "EarlyFloodMin" } else { "FloodMin" };
                    let rows: std::collections::BTreeMap<usize, (usize, usize, usize)> = if early {
                        let m = CrashModel::new(
                            n,
                            t,
                            layered_protocols::EarlyFloodMin::new((t + 1) as u16),
                        );
                        sweep(&m, t + 1, obs)
                    } else {
                        let m = CrashModel::new(n, t, FloodMin::new((t + 1) as u16));
                        sweep(&m, t + 1, obs)
                    };
                    for (f, (runs, min_r, max_r)) in rows {
                        let bound = (f + 2).min(t + 1);
                        // Plain FloodMin always takes t + 1; the early rule must
                        // respect the f-adaptive bound.
                        let within = if early {
                            max_r <= bound
                        } else {
                            max_r == t + 1
                        };
                        ok &= within;
                        table.row_owned(vec![
                            n.to_string(),
                            t.to_string(),
                            name.to_string(),
                            f.to_string(),
                            runs.to_string(),
                            min_r.to_string(),
                            max_r.to_string(),
                            yes_no(within).to_string(),
                        ]);
                    }
                }
            }
            (table, ok)
        },
    )
}

/// Lemma 6.4 plus the display property below the failure budget.
pub fn lemma_6_4(scope: Scope) -> Experiment {
    crate::measured(
        "E-6.4",
        "Lemma 6.4 (fast protocols decide once failures stop)",
        |obs| {
            let mut table = Table::new(
                "Lemma 6.4 — fast protocols are univalent after a failure-free round",
                &["n", "t", "check", "holds"],
            );
            let mut ok = true;
            let cases: &[(usize, usize)] = match scope {
                Scope::Quick => &[(3, 1)],
                Scope::Full => &[(3, 1), (4, 2)],
            };
            for &(n, t) in cases {
                let m = CrashModel::new(n, t, FloodMin::new((t + 1) as u16));
                let mut solver = ValenceSolver::with_observer(&m, t + 2, obs);
                let holds = check_lemma_6_4(&m, &mut solver, t + 1).is_none();
                ok &= holds;
                table.row_owned(vec![
                    n.to_string(),
                    t.to_string(),
                    "6.4: univalent after clean round".into(),
                    yes_no(holds).to_string(),
                ]);
                let holds =
                    check_display_below_budget(&m, &Region::reachable(&m, 1, &NOOP)).is_none();
                ok &= holds;
                table.row_owned(vec![
                    n.to_string(),
                    t.to_string(),
                    "crash display below budget".into(),
                    yes_no(holds).to_string(),
                ]);
            }
            (table, ok)
        },
    )
}
