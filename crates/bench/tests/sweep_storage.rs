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

use std::collections::HashSet;

use layered_async_mp::MpModel;
use layered_core::telemetry::NOOP;
use layered_core::testkit::Unpacked;
use layered_core::{check_consensus, trace_to, LayeredModel, Pid};
use layered_protocols::{FloodMin, MpCollectMin, MpFloodMin, MpIdentity};
use layered_sync_crash::{check_display_below_budget, CrashModel};
use layered_topology::{check_task, tasks, DecisionTask};

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
            check_display_below_budget(&m, depth_limit),
            naive_display_below_budget(&m, depth_limit),
            "depth limit {depth_limit}"
        );
    }
}
