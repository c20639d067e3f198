//! The checker sweeps must not depend on how their arena stores states.
//!
//! Each sweep runs on a model and on the same model with its codec hidden
//! ([`Unpacked`], which makes the arena store every state boxed), and the
//! two reports must agree exactly: states explored, and every violation
//! with its witness state, in order. The instances are the ones the paper
//! experiments check: E-6.3's FloodMin crash protocols and E-7.3's
//! message-passing tasks. `trace_to` and `check_display_below_budget` are
//! pinned on the E-6.3 quick instance, the latter against a naive
//! breadth-first reference that uses no arena at all.
//!
//! The reachable-region sweeps — a `Region`'s levels, and `census`,
//! `check_graded`, `check_fault_independence` and `check_crash_display`
//! run on one region per model and horizon, and `check_lemma_3_1` and
//! `check_lemma_6_4` — are compared the same way with naive references on
//! every model family at n ≤ 3 and on scripted models that break each
//! contract; topology's `diameter_sweep` is compared row for row with one
//! on the counter, crash and mobile models.

use std::collections::HashSet;

use layered_async_mp::{MpModel, MpSyncModel};
use layered_async_sm::SmModel;
use layered_core::telemetry::NOOP;
use layered_core::testkit::{
    flp_diamond, CounterModel, ScriptedModel, ScriptedModelBuilder, Unpacked,
};
use layered_core::{
    census, check_consensus, check_crash_display, check_fault_independence, check_graded,
    check_lemma_3_1, s_diameter, trace_to, undecided_non_failed, LayeredModel, LevelCensus, Pid,
    Region, Valence, ValenceSolver, Value,
};
use layered_iis::IisModel;
use layered_protocols::{
    FloodMin, HastyMin, MpCollectMin, MpFloodMin, MpIdentity, SmFloodMin, SyncProtocol,
};
use layered_sync_crash::{check_display_below_budget, check_lemma_6_4, CrashLayering, CrashModel};
use layered_sync_mobile::MobileModel;
use layered_topology::{
    check_task, diameter_sweep, lemma_7_6_bound, tasks, DecisionTask, DiameterRow,
};

/// The E-6.3 FloodMin instances: `(n, t, rounds, horizon)`, the too-fast
/// `t`-round candidate and the tight `t + 1`-round protocol.
fn floodmin_instances() -> Vec<(usize, usize, u16, usize)> {
    [(3, 1), (4, 1), (4, 2)]
        .into_iter()
        .flat_map(|(n, t)| [(n, t, t as u16, t), (n, t, t as u16 + 1, t + 1)])
        .collect()
}

#[test]
fn consensus_sweeps_agree_with_the_boxed_reference() {
    for (n, t, rounds, horizon) in floodmin_instances() {
        let m = CrashModel::new(n, t, FloodMin::new(rounds));
        // Uncapped, so a failing instance compares its full violation list.
        let own = check_consensus(&m, horizon, usize::MAX, &NOOP);
        let boxed = check_consensus(&Unpacked(m), horizon, usize::MAX, &NOOP);
        let instance = format!("n={n} t={t} FloodMin({rounds})");
        assert_eq!(own.states_explored, boxed.states_explored, "{instance}");
        assert_eq!(own.violations, boxed.violations, "{instance}");
        // The E-6.3 verdict itself: t rounds fail, t + 1 pass.
        assert_eq!(own.passed(), usize::from(rounds) > t, "{instance}");
    }
}

/// Runs `check_task` on `m` and on `Unpacked(m)` and requires identical
/// reports.
fn assert_task_sweeps_agree<M>(m: M, task: &DecisionTask, horizon: usize)
where
    M: LayeredModel + Clone,
{
    let own = check_task(&m, task, horizon, usize::MAX, &NOOP);
    let boxed = check_task(&Unpacked(m), task, horizon, usize::MAX, &NOOP);
    assert_eq!(
        own.states_explored,
        boxed.states_explored,
        "{}",
        task.name()
    );
    assert_eq!(
        format!("{:?}", own.violations),
        format!("{:?}", boxed.violations),
        "{}",
        task.name()
    );
}

#[test]
fn task_sweeps_agree_with_the_boxed_reference() {
    let n = 3;
    assert_task_sweeps_agree(MpModel::new(n, MpFloodMin::new(2)), &tasks::consensus(n), 2);
    assert_task_sweeps_agree(
        MpModel::new(n, MpCollectMin::new(n - 1)).with_obligation(2),
        &tasks::k_set_agreement(n, 2),
        2,
    );
    let identity = MpModel::new(n, MpIdentity).with_obligation(1);
    assert_task_sweeps_agree(identity.clone(), &tasks::identity(n), 1);
    assert_task_sweeps_agree(identity, &tasks::pseudo_consensus(n), 1);
}

#[test]
fn trace_to_agrees_with_the_boxed_reference() {
    let m = CrashModel::new(3, 1, FloodMin::new(2));
    let boxed = Unpacked(m.clone());
    let mut frontier = m.initial_states();
    let mut targets = 0;
    for depth in 0..=2 {
        for target in frontier.iter().step_by(7) {
            let own = trace_to(&m, target, depth).expect("reachable at its depth");
            let reference = trace_to(&boxed, target, depth).expect("reachable at its depth");
            assert_eq!(own.states(), reference.states());
            assert_eq!(own.last(), target);
            targets += 1;
        }
        let mut seen = HashSet::new();
        frontier = frontier
            .iter()
            .flat_map(|x| m.successors(x))
            .filter(|y| seen.insert(y.clone()))
            .collect();
    }
    assert!(targets > 10, "only {targets} targets traced");
    // A state one layer too deep is out of reach.
    let deep = m.successors(&frontier[0]).remove(0);
    assert!(trace_to(&m, &deep, 2).is_none());
    assert!(trace_to(&boxed, &deep, 2).is_none());
}

type CrashFloodMin = <CrashModel<FloodMin> as LayeredModel>::State;

/// The first pair `check_display_below_budget` reports, computed over plain
/// state vectors: levels in first-seen order, pairs `(a, b)` with `b` at or
/// after `a` in the level, both below the failure budget.
fn naive_display_below_budget(
    m: &CrashModel<FloodMin>,
    depth_limit: usize,
) -> Option<(CrashFloodMin, CrashFloodMin, Pid)> {
    let t = m.resilience();
    let mut seen = HashSet::new();
    let mut level: Vec<_> = m
        .initial_states()
        .into_iter()
        .filter(|x| seen.insert(x.clone()))
        .collect();
    for depth in 0..=depth_limit {
        let live: Vec<_> = level.iter().filter(|x| x.failure_count() < t).collect();
        for (k, x) in live.iter().enumerate() {
            for y in &live[k..] {
                for j in Pid::all(m.num_processes()) {
                    if m.agree_modulo(x, y, j)
                        && !m.agree_modulo(&m.crash_step(x, j), &m.crash_step(y, j), j)
                    {
                        return Some(((*x).clone(), (*y).clone(), j));
                    }
                }
            }
        }
        if depth < depth_limit {
            level = level
                .iter()
                .flat_map(|x| m.successors(x))
                .filter(|y| seen.insert(y.clone()))
                .collect();
        }
    }
    None
}

#[test]
fn display_check_agrees_with_a_naive_reference() {
    let m = CrashModel::new(3, 1, FloodMin::new(2));
    for depth_limit in 0..=2 {
        assert_eq!(
            check_display_below_budget(&m, &Region::reachable(&m, depth_limit, &NOOP)),
            naive_display_below_budget(&m, depth_limit),
            "depth limit {depth_limit}"
        );
    }
}

// ---------------------------------------------------------------------------
// Naive references for the reachable-region sweeps.
//
// Each reference below walks plain state vectors: roots as the model lists
// them, then every level's successors in first-seen order, deduplicated
// within the level by cloned state, with no arena. The engine's sweeps must
// return exactly what they return, first violating state included, on every
// model family at n ≤ 3 and on scripted models that break each contract.
// ---------------------------------------------------------------------------

/// Levels `0..=depth` of the reachable graph over plain state vectors.
fn naive_levels<M: LayeredModel>(m: &M, depth: usize) -> Vec<Vec<M::State>> {
    let mut levels = vec![m.initial_states()];
    for d in 0..depth {
        let mut seen = HashSet::new();
        let next = levels[d]
            .iter()
            .flat_map(|x| m.successors(x))
            .filter(|y| seen.insert(y.clone()))
            .collect();
        levels.push(next);
    }
    levels
}

fn naive_census<M: LayeredModel>(m: &M, depth: usize) -> Vec<LevelCensus> {
    let n = m.num_processes();
    let levels = naive_levels(m, depth);
    let mut out = Vec::new();
    for (d, level) in levels.iter().enumerate() {
        let layers: Vec<usize> = if d < depth {
            level.iter().map(|x| m.successors(x).len()).collect()
        } else {
            Vec::new()
        };
        out.push(LevelCensus {
            depth: d,
            states: level.len(),
            edges: layers.iter().sum(),
            min_layer: layers.iter().copied().min().unwrap_or(0),
            max_layer: layers.iter().copied().max().unwrap_or(0),
            with_decisions: level
                .iter()
                .filter(|x| Pid::all(n).any(|i| m.decision(x, i).is_some()))
                .count(),
        });
    }
    out
}

fn failed_set<M: LayeredModel>(m: &M, x: &M::State) -> HashSet<Pid> {
    Pid::all(m.num_processes())
        .filter(|&i| m.failed_at(x, i))
        .collect()
}

fn naive_graded<M: LayeredModel>(m: &M, depth_limit: usize) -> Option<String> {
    let levels = naive_levels(m, depth_limit);
    for x in &levels[0] {
        if m.depth(x) != 0 {
            return Some(format!("initial state at depth {}: {x:?}", m.depth(x)));
        }
    }
    for level in &levels[..depth_limit] {
        for x in level {
            let succ = m.successors(x);
            if succ.is_empty() {
                return Some(format!("empty layer at {x:?}"));
            }
            for (k, y) in succ.iter().enumerate() {
                if succ[..k].contains(y) {
                    return Some(format!("duplicate successor {y:?} of {x:?}"));
                }
                if m.depth(y) != m.depth(x) + 1 {
                    return Some(format!(
                        "depth jump {} -> {} at {y:?}",
                        m.depth(x),
                        m.depth(y)
                    ));
                }
                if !failed_set(m, x).is_subset(&failed_set(m, y)) {
                    return Some(format!("failed set shrank along edge {x:?} -> {y:?}"));
                }
            }
        }
    }
    None
}

fn naive_fault_independence<M: LayeredModel>(m: &M, depth_limit: usize) -> Option<M::State> {
    naive_levels(m, depth_limit)
        .into_iter()
        .flatten()
        .find(|x| {
            let fx = failed_set(m, x);
            !m.successors(x).iter().any(|y| failed_set(m, y) == fx)
        })
}

#[allow(clippy::type_complexity)]
fn naive_crash_display<M: LayeredModel>(
    m: &M,
    depth_limit: usize,
) -> Option<(M::State, M::State, Pid)> {
    let n = m.num_processes();
    for level in naive_levels(m, depth_limit) {
        for (k, x) in level.iter().enumerate() {
            for y in &level[k..] {
                for j in Pid::all(n).filter(|&j| m.agree_modulo(x, y, j)) {
                    let (cx, cy) = (m.crash_step(x, j), m.crash_step(y, j));
                    let members = m.successors(x).contains(&cx) && m.successors(y).contains(&cy);
                    let preserves = Pid::all(n).all(|i| {
                        i == j
                            || m.failed_at(x, i)
                            || m.failed_at(y, i)
                            || (!m.failed_at(&cx, i) && !m.failed_at(&cy, i))
                    });
                    if !(members && m.agree_modulo(&cx, &cy, j) && preserves) {
                        return Some((x.clone(), y.clone(), j));
                    }
                }
            }
        }
    }
    None
}

/// The first bivalent state within `depth_limit` layers with fewer than
/// `n − t` non-failed undecided processes, valence taken from a fresh
/// solver of horizon `horizon` (graded models only: levels are depths).
fn naive_lemma_3_1<M: LayeredModel>(m: &M, horizon: usize, depth_limit: usize) -> Option<M::State> {
    let mut solver = ValenceSolver::new(m, horizon);
    let bound = m.num_processes() - m.max_failures();
    naive_levels(m, depth_limit)
        .into_iter()
        .flatten()
        .find(|x| {
            solver.valence(x) == Valence::Bivalent && undecided_non_failed(m, x).len() < bound
        })
}

/// The first state `check_lemma_6_4` reports: at each level `k < limit`,
/// the failure-free successor of every state with at most `k` failures,
/// if it is bivalent.
fn naive_lemma_6_4<P: SyncProtocol>(
    m: &CrashModel<P>,
    horizon: usize,
    limit: usize,
) -> Option<<CrashModel<P> as LayeredModel>::State> {
    let mut solver = ValenceSolver::new(m, horizon);
    let levels = naive_levels(m, limit.saturating_sub(1));
    for (k, level) in levels.iter().enumerate().take(limit) {
        for x in level.iter().filter(|x| x.failure_count() <= k) {
            let y = m.apply(x, None);
            if solver.valence(&y) == Valence::Bivalent {
                return Some(y);
            }
        }
    }
    None
}

/// The rows `diameter_sweep` reports, computed over plain state vectors:
/// levels from `naive_levels`, each layer `S(x)` from `successors`.
fn naive_diameter_sweep<M: LayeredModel>(m: &M, depth: usize) -> Vec<DiameterRow> {
    let mut rows: Vec<DiameterRow> = Vec::new();
    for (d, level) in naive_levels(m, depth).iter().enumerate() {
        let layer_diameter = if d < depth {
            level
                .iter()
                .map(|x| s_diameter(m, &m.successors(x)))
                .try_fold(0, |worst, dy| dy.map(|dy| worst.max(dy)))
        } else {
            None
        };
        let bound = rows
            .last()
            .and_then(|prev| Some(lemma_7_6_bound(prev.measured?, prev.layer_diameter?)));
        rows.push(DiameterRow {
            depth: d,
            states: level.len(),
            measured: s_diameter(m, level),
            layer_diameter,
            bound,
        });
    }
    rows
}

/// Runs every generic sweep on `m` and on its reference at the depths the
/// model crates' own tests use, and requires identical results.
fn assert_sweeps_match_references<M: LayeredModel>(name: &str, m: &M) {
    for depth in 0..=2 {
        let region = Region::reachable(m, depth, &NOOP);
        let levels: Vec<_> = region
            .levels()
            .iter()
            .map(|level| region.space().materialize(level))
            .collect();
        assert_eq!(levels, naive_levels(m, depth), "{name}: levels to {depth}");
        assert_eq!(
            census(m, &region, &NOOP),
            naive_census(m, depth),
            "{name}: census to {depth}"
        );
        assert_eq!(
            check_graded(m, &region),
            naive_graded(m, depth),
            "{name}: graded to {depth}"
        );
        // The fault-independence and crash-display checks to `depth - 1`
        // read the levels below this horizon.
        if let Some(limit) = depth.checked_sub(1) {
            assert_eq!(
                check_fault_independence(m, &region),
                naive_fault_independence(m, limit),
                "{name}: fault independence to {limit}"
            );
            assert_eq!(
                check_crash_display(m, &region),
                naive_crash_display(m, limit),
                "{name}: crash display to {limit}"
            );
        }
    }
    for depth in 0..=2 {
        let mut solver = ValenceSolver::new(m, 2);
        assert_eq!(
            check_lemma_3_1(&mut solver, depth),
            naive_lemma_3_1(m, 2, depth),
            "{name}: Lemma 3.1 to {depth}"
        );
    }
}

#[test]
fn sweeps_agree_with_naive_references_on_every_model_family() {
    assert_sweeps_match_references("counter", &CounterModel::new(3, 2));
    assert_sweeps_match_references("diamond", &flp_diamond());
    assert_sweeps_match_references("mobile", &MobileModel::new(3, FloodMin::new(2)));
    assert_sweeps_match_references("crash", &CrashModel::new(3, 1, FloodMin::new(2)));
    assert_sweeps_match_references("shared memory", &SmModel::new(3, SmFloodMin::new(2)));
    assert_sweeps_match_references("iis", &IisModel::new(3, SmFloodMin::new(2)));
    assert_sweeps_match_references("message passing", &MpModel::new(3, MpFloodMin::new(2)));
    assert_sweeps_match_references(
        "synchronic message passing",
        &MpSyncModel::new(3, MpFloodMin::new(2)),
    );
}

#[test]
fn diameter_sweep_agrees_with_a_naive_reference() {
    fn check<M: LayeredModel>(name: &str, m: &M) {
        for depth in 0..=2 {
            assert_eq!(
                diameter_sweep(m, &Region::reachable(m, depth, &NOOP)),
                naive_diameter_sweep(m, depth),
                "{name}: depth {depth}"
            );
        }
    }
    check("counter", &CounterModel::new(3, 2));
    check("crash", &CrashModel::new(3, 1, FloodMin::new(2)));
    check("mobile", &MobileModel::new(3, FloodMin::new(2)));
}

/// A scripted model whose level 1 holds two states, `1` then `2`, that
/// break the same contract; each breach is reported at the first of them,
/// so the level's order shows in the result.
fn breaking(edit: impl Fn(ScriptedModelBuilder) -> ScriptedModelBuilder) -> ScriptedModel {
    let b = ScriptedModelBuilder::new(2, 1)
        .initial(&[Value::ZERO, Value::ONE], 0)
        .edge(0, 1)
        .edge(0, 2)
        .depth(1, 1)
        .depth(2, 1);
    edit(b).build()
}

#[test]
fn sweeps_agree_with_naive_references_on_contract_breaking_models() {
    let cases: Vec<(&str, ScriptedModel)> = vec![
        ("initial depth", breaking(|b| b.depth(0, 1))),
        ("empty layer", breaking(|b| b.edge(2, 4).depth(4, 2))),
        (
            "duplicate successor",
            breaking(|b| {
                b.edge(1, 3)
                    .edge(1, 3)
                    .edge(2, 4)
                    .edge(2, 4)
                    .depth(3, 2)
                    .depth(4, 2)
            }),
        ),
        (
            "depth jump",
            breaking(|b| b.edge(1, 3).edge(2, 4).depth(3, 5).depth(4, 7)),
        ),
        (
            "failed set shrinks",
            breaking(|b| {
                b.failed(1, 0)
                    .failed(2, 1)
                    .edge(1, 3)
                    .edge(2, 4)
                    .depth(3, 2)
                    .depth(4, 2)
            }),
        ),
        (
            "forced failures",
            breaking(|b| {
                b.edge(1, 3)
                    .edge(2, 4)
                    .depth(3, 2)
                    .depth(4, 2)
                    .failed(3, 0)
                    .failed(4, 1)
            }),
        ),
        (
            "crash step outside its layer",
            breaking(|b| {
                b.edge(1, 3)
                    .edge(2, 4)
                    .depth(3, 2)
                    .depth(4, 2)
                    .crash(1, 0, 9)
                    .crash(2, 0, 9)
            }),
        ),
        (
            "crash steps disagree",
            breaking(|b| {
                b.edge(1, 3)
                    .edge(1, 5)
                    .edge(2, 4)
                    .edge(2, 6)
                    .depth(3, 2)
                    .depth(4, 2)
                    .depth(5, 2)
                    .depth(6, 2)
                    .agree(1, 2, 1)
                    .crash(1, 1, 3)
                    .crash(2, 1, 4)
            }),
        ),
        (
            "crash step fails a bystander",
            breaking(|b| {
                b.edge(1, 3)
                    .edge(1, 5)
                    .edge(2, 4)
                    .edge(2, 6)
                    .depth(3, 2)
                    .depth(4, 2)
                    .depth(5, 2)
                    .depth(6, 2)
                    .failed(5, 0)
                    .failed(6, 0)
                    .crash(1, 1, 5)
                    .crash(2, 1, 6)
            }),
        ),
        (
            "decided both ways while bivalent",
            breaking(|b| {
                b.decision(1, 0, Value::ZERO)
                    .decision(1, 1, Value::ONE)
                    .decision(2, 0, Value::ZERO)
                    .decision(2, 1, Value::ONE)
            }),
        ),
    ];
    for (name, m) in &cases {
        assert_sweeps_match_references(name, m);
    }
    // Each model breaks what its name says, so the comparisons above
    // compared violations and not only clean passes.
    let breach = |name: &str| &cases.iter().find(|(n, _)| *n == name).expect("case").1;
    let region = |name: &str, horizon| Region::reachable(breach(name), horizon, &NOOP);
    let graded = |name: &str, horizon| check_graded(breach(name), &region(name, horizon));
    assert!(graded("initial depth", 0).is_some());
    for name in [
        "empty layer",
        "duplicate successor",
        "depth jump",
        "failed set shrinks",
    ] {
        assert!(graded(name, 2).is_some(), "{name}");
    }
    let name = "forced failures";
    assert_eq!(
        check_fault_independence(breach(name), &region(name, 2)),
        Some(1)
    );
    for name in [
        "crash step outside its layer",
        "crash steps disagree",
        "crash step fails a bystander",
    ] {
        assert!(
            check_crash_display(breach(name), &region(name, 2)).is_some(),
            "{name}"
        );
    }
    let mut solver = ValenceSolver::new(breach("decided both ways while bivalent"), 2);
    assert_eq!(check_lemma_3_1(&mut solver, 1), Some(1));
}

#[test]
fn lemma_6_4_agrees_with_a_naive_reference() {
    fn check<P: SyncProtocol>(name: &str, m: &CrashModel<P>) -> bool {
        let mut found = false;
        for limit in 0..=2 {
            let mut solver = ValenceSolver::new(m, 3);
            let own = check_lemma_6_4(m, &mut solver, limit);
            assert_eq!(own, naive_lemma_6_4(m, 3, limit), "{name}: limit {limit}");
            found |= own.is_some();
        }
        found
    }
    assert!(!check(
        "FloodMin(2)",
        &CrashModel::new(3, 1, FloodMin::new(2))
    ));
    let full = CrashModel::new(3, 1, FloodMin::new(2)).with_layering(CrashLayering::Full);
    assert!(!check("FloodMin(2), full layering", &full));
    // HastyMin decides in round 0, so the lemma's premise fails and the
    // check reports a bivalent state after a clean round.
    assert!(check("HastyMin", &CrashModel::new(3, 1, HastyMin)));
}
