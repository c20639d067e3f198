//! Differential reference for the scan experiments' witness: the
//! Theorem 4.2 chain built on the solver a Lemma 5.1 scan already ran on
//! must equal the one a fresh solver builds from scratch — same chain
//! states, same undecided counts, same `witness_to_json` bytes — for both
//! arena keyings, and also when the scan's arena was reloaded from a
//! snapshot or refreshed after a FloodMin deadline move.

use layered_core::telemetry::{MetricsRegistry, NOOP};
use layered_core::{
    load_arena, save_arena, scan_layer_valence_connectivity, witness_to_json, ArenaMeta,
    ImpossibilityWitness, Keying, LayeredModel, Orbits, Plain, QuotientSolver, Solver,
    ValenceSolver,
};
use layered_protocols::FloodMin;
use layered_sync_mobile::{MobileLayering, MobileModel, MODEL_KEY};

/// The scan mode's default depth, and its horizon `depth + 1`.
const DEPTH: usize = 1;
const HORIZON: usize = DEPTH + 1;

type Mobile = MobileModel<FloodMin>;
type Witness = ImpossibilityWitness<<Mobile as LayeredModel>::State>;

fn s1(n: usize, horizon: usize) -> Mobile {
    MobileModel::new(n, FloodMin::new(horizon as u16))
}

fn full(n: usize, horizon: usize) -> Mobile {
    s1(n, horizon).with_layering(MobileLayering::Full)
}

/// Runs the sequential Lemma 5.1 scan on `solver`, which reports to
/// `reg`, then builds the Theorem 4.2 witness on the same solver. The
/// witness build must leave `reg` exactly as the scan left it.
fn witness_after_scan<M, K>(
    solver: &mut Solver<'_, M, K>,
    reg: &MetricsRegistry,
) -> ImpossibilityWitness<M::State>
where
    M: LayeredModel,
    K: Keying<M>,
{
    let scan = scan_layer_valence_connectivity(solver, DEPTH, true);
    assert!(scan.all_connected(), "the scanned layers are connected");
    let before = reg.snapshot();
    let witness = ImpossibilityWitness::from_solver(solver, DEPTH);
    assert_eq!(reg.snapshot(), before, "the witness build reported metrics");
    witness.expect("the chain reaches the scan depth")
}

/// Asserts that `got` and the fresh reference are the same witness, down
/// to the encoded bytes.
fn assert_same_witness(m: &Mobile, got: &Witness, want: Option<Witness>, what: &str) {
    let want = want.unwrap_or_else(|| panic!("{what}: the reference witness builds"));
    assert_eq!(got.chain.states(), want.chain.states(), "{what}: chain");
    assert_eq!(got.undecided, want.undecided, "{what}: undecided counts");
    assert_eq!(got.horizon, want.horizon, "{what}: horizon");
    assert_eq!(
        witness_to_json(m, got).expect("encodes").to_string(),
        witness_to_json(m, &want).expect("encodes").to_string(),
        "{what}: witness bytes"
    );
    assert!(got.verify(m).is_ok(), "{what}: the witness re-verifies");
}

fn meta(n: usize, horizon: usize, layering: &str) -> ArenaMeta {
    ArenaMeta {
        model: MODEL_KEY.to_string(),
        protocol: "floodmin".to_string(),
        n: n as u64,
        horizon: horizon as u64,
        depth: DEPTH as u64,
        layering: layering.to_string(),
    }
}

#[test]
fn plain_chain_on_the_scan_solver_matches_a_fresh_build() {
    for n in [3, 4] {
        let m = s1(n, HORIZON);
        let reg = MetricsRegistry::new();
        let got = witness_after_scan(&mut ValenceSolver::with_observer(&m, HORIZON, &reg), &reg);
        let want = ImpossibilityWitness::build(&m, HORIZON, DEPTH);
        assert_same_witness(&m, &got, want, &format!("plain n={n}"));
    }
}

#[test]
fn orbit_chain_on_the_scan_solver_matches_a_fresh_build() {
    for n in 3..=6 {
        let m = full(n, HORIZON);
        let reg = MetricsRegistry::new();
        let got = witness_after_scan(&mut QuotientSolver::with_observer(&m, HORIZON, &reg), &reg);
        let want = ImpossibilityWitness::build_quotient(&m, HORIZON, DEPTH);
        assert_same_witness(&m, &got, want, &format!("orbits n={n}"));
    }
}

#[test]
fn chain_on_a_reloaded_arena_matches_a_fresh_build() {
    let reg = MetricsRegistry::new();
    let n = 4;
    let m = s1(n, HORIZON);
    let mut cold = ValenceSolver::with_observer(&m, HORIZON, &NOOP);
    scan_layer_valence_connectivity(&mut cold, DEPTH, true);
    let (bytes, _) = save_arena(cold.space(), &meta(n, HORIZON, "s1"), &NOOP);
    let (space, _, _) = load_arena::<_, Plain>(&m, &bytes, &NOOP).expect("the snapshot reloads");
    let got = witness_after_scan(
        &mut ValenceSolver::with_space(&m, HORIZON, space, &reg),
        &reg,
    );
    let want = ImpossibilityWitness::build(&m, HORIZON, DEPTH);
    assert_same_witness(&m, &got, want, "plain, reloaded");

    let m = full(n, HORIZON);
    let mut cold = QuotientSolver::with_observer(&m, HORIZON, &NOOP);
    scan_layer_valence_connectivity(&mut cold, DEPTH, true);
    let (bytes, _) = save_arena(cold.space(), &meta(n, HORIZON, "full"), &NOOP);
    let (space, _, _) = load_arena::<_, Orbits>(&m, &bytes, &NOOP).expect("the snapshot reloads");
    let got = witness_after_scan(
        &mut QuotientSolver::with_space(&m, HORIZON, space, &reg),
        &reg,
    );
    let want = ImpossibilityWitness::build_quotient(&m, HORIZON, DEPTH);
    assert_same_witness(&m, &got, want, "orbits, reloaded");
}

#[test]
fn chain_on_a_refreshed_arena_matches_a_fresh_build() {
    let reg = MetricsRegistry::new();
    // The snapshot is taken at the default horizon; the resumed scan moves
    // the FloodMin deadline one round later, as `--resume --horizon` does.
    let (n, moved) = (3, HORIZON + 1);
    let old = s1(n, HORIZON);
    let mut cold = ValenceSolver::with_observer(&old, HORIZON, &NOOP);
    scan_layer_valence_connectivity(&mut cold, DEPTH, true);
    let (bytes, _) = save_arena(cold.space(), &meta(n, HORIZON, "s1"), &NOOP);
    let m = s1(n, moved);
    let (mut space, _, _) =
        load_arena::<_, Plain>(&m, &bytes, &NOOP).expect("the snapshot reloads");
    let diff = space.refresh_differential(&m, &NOOP);
    assert!(diff.recomputed > 0, "the deadline move recomputes rows");
    let got = witness_after_scan(&mut ValenceSolver::with_space(&m, moved, space, &reg), &reg);
    let want = ImpossibilityWitness::build(&m, moved, DEPTH);
    assert_same_witness(&m, &got, want, "plain, refreshed");

    let old = full(n, HORIZON);
    let mut cold = QuotientSolver::with_observer(&old, HORIZON, &NOOP);
    scan_layer_valence_connectivity(&mut cold, DEPTH, true);
    let (bytes, _) = save_arena(cold.space(), &meta(n, HORIZON, "full"), &NOOP);
    let m = full(n, moved);
    let (mut space, _, _) =
        load_arena::<_, Orbits>(&m, &bytes, &NOOP).expect("the snapshot reloads");
    let diff = space.refresh_differential(&m, &NOOP);
    assert!(diff.recomputed > 0, "the deadline move recomputes orbits");
    let got = witness_after_scan(
        &mut QuotientSolver::with_space(&m, moved, space, &reg),
        &reg,
    );
    let want = ImpossibilityWitness::build_quotient(&m, moved, DEPTH);
    assert_same_witness(&m, &got, want, "orbits, refreshed");
}
