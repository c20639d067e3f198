//! Differential reference for valence connectivity: on every layer `S(x)`
//! of every state within a small depth, `valence_report_ids` must equal the
//! report read off the explicit graph `(S(x), ∼v)`, built pair by pair
//! from the solver's own valence flags. Covers every model family, under
//! the plain keying and, where the model is `Symmetric`, the orbit keying.
//! Each layer is also checked with every state listed twice, since a
//! report counts positions, not distinct states.

use std::collections::HashSet;

use layered_async_mp::MpModel;
use layered_async_sm::{SmLayering, SmModel};
use layered_core::graph::Graph;
use layered_core::telemetry::NOOP;
use layered_core::{
    valence_report_ids, ConnectivityReport, Keying, LayeredModel, QuotientSolver, Solver, StateId,
    Symmetric, ValenceSolver, Valences,
};
use layered_iis::IisModel;
use layered_protocols::{FloodMin, MpFloodMin, SmFloodMin};
use layered_sync_crash::{CrashLayering, CrashModel};
use layered_sync_mobile::{MobileLayering, MobileModel};

/// The report of the explicit `∼v` graph over `ids`.
fn reference<M: LayeredModel, K: Keying<M>>(
    solver: &mut Solver<'_, M, K>,
    ids: &[StateId],
) -> ConnectivityReport {
    let flags: Vec<Valences> = ids.iter().map(|&id| solver.valences_id(id)).collect();
    let g = Graph::from_predicate(flags.len(), |a, b| {
        (flags[a].zero && flags[b].zero) || (flags[a].one && flags[b].one)
    });
    ConnectivityReport {
        states: g.len(),
        connected: g.is_connected(),
        components: g.component_count(),
        diameter: g.diameter(&NOOP),
    }
}

/// Checks every layer of every state within `depth` layers of `roots`,
/// returning how many layers were compared and how many of those were
/// disconnected (so a caller can see both verdicts were exercised).
fn check_layers<M: LayeredModel, K: Keying<M>>(
    solver: &mut Solver<'_, M, K>,
    roots: Vec<StateId>,
    depth: usize,
    what: &str,
) -> (usize, usize) {
    let (mut checked, mut disconnected) = (0, 0);
    let mut seen: HashSet<StateId> = roots.iter().copied().collect();
    let mut frontier = roots;
    for level in 0..=depth {
        let mut next = Vec::new();
        for &id in &frontier {
            let layer = solver.successor_ids(id);
            let doubled = [layer.as_slice(), layer.as_slice()].concat();
            for ids in [&layer, &doubled] {
                let want = reference(solver, ids);
                let got = valence_report_ids(solver, ids);
                assert_eq!(
                    got,
                    want,
                    "{what}: layer of state {id:?}, {} ids",
                    ids.len()
                );
            }
            checked += 1;
            disconnected += usize::from(!valence_report_ids(solver, &layer).connected);
            if level < depth {
                next.extend(layer.into_iter().filter(|&y| seen.insert(y)));
            }
        }
        frontier = next;
    }
    (checked, disconnected)
}

/// Sweeps `m` under the plain keying.
fn plain<M: LayeredModel>(m: &M, horizon: usize, depth: usize, what: &str) -> (usize, usize) {
    let mut solver = ValenceSolver::new(m, horizon);
    let roots = m
        .initial_states()
        .iter()
        .map(|x| solver.intern(x))
        .collect();
    check_layers(&mut solver, roots, depth, what)
}

/// Sweeps `m`, whose layering is closed under process renaming, under
/// both keyings.
fn both<M: Symmetric>(m: &M, horizon: usize, depth: usize, what: &str) {
    plain(m, horizon, depth, what);
    let mut solver = QuotientSolver::new(m, horizon);
    let roots = m
        .initial_states()
        .iter()
        .map(|x| solver.intern(x).0)
        .collect();
    check_layers(&mut solver, roots, depth, &format!("{what}, orbits"));
}

/// The protocols' deadline. Horizon 1 truncates the lookahead, so layers
/// also hold states with no valence; horizon 2 reaches every decision.
const DEADLINE: u16 = 2;
const HORIZONS: [usize; 2] = [1, 2];

#[test]
fn sync_mobile_layers_match_the_graph() {
    for n in [2, 3, 4] {
        for h in HORIZONS {
            let m = MobileModel::new(n, FloodMin::new(DEADLINE));
            plain(&m, h, 1, &format!("mobile S1 n={n} h={h}"));
            let m = m.with_layering(MobileLayering::Full);
            both(&m, h, 1, &format!("mobile Full n={n} h={h}"));
        }
    }
}

#[test]
fn sync_crash_layers_match_the_graph() {
    for (n, t) in [(3, 1), (4, 1), (4, 2)] {
        for h in HORIZONS {
            let m = CrashModel::new(n, t, FloodMin::new(DEADLINE));
            plain(&m, h, 1, &format!("crash n={n} t={t} h={h}"));
            let m = m.with_layering(CrashLayering::Full);
            both(&m, h, 1, &format!("crash Full n={n} t={t} h={h}"));
        }
    }
}

#[test]
fn async_sm_layers_match_the_graph() {
    for n in [2, 3] {
        for h in HORIZONS {
            let m = SmModel::new(n, SmFloodMin::new(DEADLINE));
            plain(&m, h, 1, &format!("sm n={n} h={h}"));
            let m = m.with_layering(SmLayering::FullSplit);
            both(&m, h, 1, &format!("sm FullSplit n={n} h={h}"));
        }
    }
}

#[test]
fn async_mp_layers_match_the_graph() {
    for n in [2, 3] {
        for h in HORIZONS {
            let m = MpModel::new(n, MpFloodMin::new(DEADLINE));
            both(&m, h, 1, &format!("mp n={n} h={h}"));
        }
    }
}

#[test]
fn iis_layers_match_the_graph() {
    for n in [2, 3] {
        for h in HORIZONS {
            let m = IisModel::new(n, SmFloodMin::new(DEADLINE));
            plain(&m, h, 1, &format!("iis n={n} h={h}"));
        }
    }
}

/// The sweep is not vacuous: it meets connected and disconnected layers.
#[test]
fn the_sweep_meets_both_verdicts() {
    let m = MobileModel::new(3, FloodMin::new(DEADLINE));
    let (checked, disconnected) = plain(&m, 1, 1, "mobile S1 n=3 h=1");
    assert!(disconnected > 0, "some layer is disconnected");
    assert!(disconnected < checked, "some layer is connected");
}
