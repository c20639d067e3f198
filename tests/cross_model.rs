//! Cross-model integration tests: the same kernel analyses run unchanged
//! over all four models, and the paper's uniform claims hold in each.

use std::collections::HashSet;

use layered_consensus::async_mp::MpModel;
use layered_consensus::async_sm::{SmLayering, SmModel};
use layered_consensus::core::telemetry::NOOP;
use layered_consensus::core::testkit::{CounterModel, Unpacked};
use layered_consensus::core::{
    build_bivalent_run, check_consensus, check_fault_independence, check_graded, similarity_report,
    LayeredModel, PidPerm, Region, Symmetric, Valence, ValenceProbe, ValenceSolver, Value, DECIDED,
};
use layered_consensus::protocols::{
    FloodMin, MpFloodMin, MpRelayRace, SmFloodMin, SmRelayRace, SyncRelayRace,
};
use layered_consensus::sync_crash::{CrashLayering, CrashModel};
use layered_consensus::sync_mobile::{MobileLayering, MobileModel};

/// The paper's uniform impossibility: the same candidate-protocol family is
/// refuted by the same engine in all three 1-resilient models.
#[test]
fn flooding_consensus_is_refuted_in_every_1_resilient_model() {
    let r = 2;
    assert!(!check_consensus(&MobileModel::new(3, FloodMin::new(r as u16)), r, 1, &NOOP).passed());
    assert!(!check_consensus(&SmModel::new(3, SmFloodMin::new(r as u16)), r, 1, &NOOP).passed());
    assert!(!check_consensus(&MpModel::new(3, MpFloodMin::new(r as u16)), r, 1, &NOOP).passed());
}

/// ...while the t-resilient synchronous model admits a solution at t + 1
/// rounds — the asymmetry the layered analysis explains.
#[test]
fn synchronous_model_admits_consensus_at_t_plus_one() {
    assert!(check_consensus(&CrashModel::new(3, 1, FloodMin::new(2)), 2, 1, &NOOP).passed());
}

/// Structural contracts hold in every model, each checked on one region
/// per model.
#[test]
fn structural_contracts_hold_in_every_model() {
    fn check<M: LayeredModel>(m: &M) {
        let region = Region::reachable(m, 2, &NOOP);
        assert_eq!(check_graded(m, &region), None);
        assert_eq!(check_fault_independence(m, &region), None);
    }
    check(&MobileModel::new(3, FloodMin::new(2)));
    check(&SmModel::new(3, SmFloodMin::new(2)));
    check(&MpModel::new(3, MpFloodMin::new(2)));
    check(&CrashModel::new(3, 1, FloodMin::new(2)));
}

/// Con₀ is similarity connected in every model (Lemma 3.6's first half),
/// with the diameter n realized by the interpolation chain.
#[test]
fn con0_similarity_connected_everywhere() {
    fn check<M: LayeredModel>(m: &M) {
        let rep = similarity_report(m, &m.initial_states(), &NOOP);
        assert!(rep.connected);
        assert_eq!(rep.diameter, Some(m.num_processes()));
    }
    check(&MobileModel::new(3, FloodMin::new(2)));
    check(&SmModel::new(3, SmFloodMin::new(2)));
    check(&MpModel::new(3, MpFloodMin::new(2)));
    check(&CrashModel::new(3, 1, FloodMin::new(2)));
}

/// The RelayRace family is agreement-safe in every model: an exhaustive
/// sweep finds no agreement or validity violation at any depth (decision
/// violations are expected — the leader can be silenced).
#[test]
fn relay_race_is_agreement_safe_everywhere() {
    let mobile = MobileModel::new(3, SyncRelayRace);
    let report = check_consensus(&mobile, 3, 50, &NOOP);
    assert!(report.of_kind("agreement").next().is_none());
    assert!(report.of_kind("validity").next().is_none());

    let sm = SmModel::new(3, SmRelayRace);
    let report = check_consensus(&sm, 3, 50, &NOOP);
    assert!(report.of_kind("agreement").next().is_none());
    assert!(report.of_kind("validity").next().is_none());

    let mp = MpModel::new(3, MpRelayRace);
    let report = check_consensus(&mp, 2, 50, &NOOP);
    assert!(report.of_kind("agreement").next().is_none());
    assert!(report.of_kind("validity").next().is_none());
}

/// RelayRace has genuinely bivalent initial states in every model — the
/// scheduler decides the race.
#[test]
fn relay_race_is_bivalent_everywhere() {
    let mobile = MobileModel::new(3, SyncRelayRace);
    let mut solver = ValenceSolver::new(&mobile, 3);
    assert!(solver.bivalent_initial_state().is_some());

    let sm = SmModel::new(3, SmRelayRace);
    let mut solver = ValenceSolver::new(&sm, 3);
    assert!(solver.bivalent_initial_state().is_some());

    let mp = MpModel::new(3, MpRelayRace);
    let mut solver = ValenceSolver::new(&mp, 2);
    assert!(solver.bivalent_initial_state().is_some());
}

/// Bivalent runs of the full requested length exist in all three
/// 1-resilient models (Theorem 4.2's conclusion).
#[test]
fn bivalent_runs_exist_in_all_async_models() {
    let mobile = MobileModel::new(3, FloodMin::new(3));
    let mut solver = ValenceSolver::new(&mobile, 3);
    assert!(build_bivalent_run(&mut solver, 2).reached_target());

    let sm = SmModel::new(3, SmFloodMin::new(3));
    let mut solver = ValenceSolver::new(&sm, 3);
    assert!(build_bivalent_run(&mut solver, 2).reached_target());

    let mp = MpModel::new(3, MpFloodMin::new(2));
    let mut solver = ValenceSolver::new(&mp, 2);
    assert!(build_bivalent_run(&mut solver, 1).reached_target());
}

/// The unanimous initial states are univalent in every model (validity
/// pins the decision), while some mixed state is bivalent.
#[test]
fn unanimity_is_univalent_mixes_are_bivalent() {
    fn check<M: LayeredModel>(m: &M, horizon: usize) {
        let mut solver = ValenceSolver::new(m, horizon);
        let zeros = m.initial_state(&vec![Value::ZERO; m.num_processes()]);
        let ones = m.initial_state(&vec![Value::ONE; m.num_processes()]);
        assert_eq!(solver.valence(&zeros), Valence::Univalent(Value::ZERO));
        assert_eq!(solver.valence(&ones), Valence::Univalent(Value::ONE));
        assert!(solver.bivalent_initial_state().is_some());
    }
    check(&MobileModel::new(3, FloodMin::new(2)), 2);
    check(&SmModel::new(3, SmFloodMin::new(2)), 2);
    check(&MpModel::new(3, MpFloodMin::new(2)), 2);
    check(&CrashModel::new(3, 1, FloodMin::new(2)), 2);
}

/// Exploding the deadline does not rescue flooding consensus in the mobile
/// model: deeper deadlines fail too (the violation merely moves deeper).
#[test]
fn longer_deadlines_do_not_help_in_mobile_model() {
    for r in 1..=3usize {
        let m = MobileModel::new(3, FloodMin::new(r as u16));
        assert!(
            !check_consensus(&m, r, 1, &NOOP).passed(),
            "FloodMin({r}) unexpectedly passed in M^mf"
        );
    }
}

/// Packaged impossibility witnesses build and re-verify in every
/// 1-resilient model — the complete Theorem 4.2 argument as a checkable
/// artifact.
#[test]
fn impossibility_witnesses_verify_in_every_model() {
    use layered_consensus::core::ImpossibilityWitness;

    let mobile = MobileModel::new(3, FloodMin::new(3));
    let w = ImpossibilityWitness::build(&mobile, 3, 2).expect("mobile witness");
    assert_eq!(w.len(), 2);
    assert!(w.verify(&mobile).is_ok());

    let sm = SmModel::new(3, SmFloodMin::new(3));
    let w = ImpossibilityWitness::build(&sm, 3, 2).expect("shared-memory witness");
    assert!(w.verify(&sm).is_ok());

    let mp = MpModel::new(3, MpFloodMin::new(2));
    let w = ImpossibilityWitness::build(&mp, 2, 1).expect("message-passing witness");
    assert!(w.verify(&mp).is_ok());
}

/// The synchronic layering transferred to message passing refutes the same
/// candidates as the permutation layering.
#[test]
fn synchronic_mp_agrees_with_permutation_mp() {
    use layered_consensus::async_mp::MpSyncModel;
    for r in 1..=2usize {
        let perm = MpModel::new(3, MpFloodMin::new(r as u16));
        let sync = MpSyncModel::new(3, MpFloodMin::new(r as u16));
        assert_eq!(
            check_consensus(&perm, r, 1, &NOOP).passed(),
            check_consensus(&sync, r, 1, &NOOP).passed()
        );
    }
}

/// The IIS model joins the equivalence class: same refutation verdicts.
#[test]
fn iis_agrees_with_the_other_models() {
    use layered_consensus::iis::IisModel;
    for r in 1..=2usize {
        let m = IisModel::new(3, SmFloodMin::new(r as u16));
        assert!(!check_consensus(&m, r, 1, &NOOP).passed());
    }
}

/// The canonicalization rule written out from its definition. When the
/// model's codec permutes and `x` packs, the representative is the orbit
/// member with the least packed word over all `n!` renamings; otherwise it
/// is the `Ord`-least member. The witness is the first minimising renaming
/// in `PidPerm::all` order (`min_by_key` keeps the first of equal keys),
/// and the orbit size counts the distinct members.
fn naive_canonical<M>(m: &M, x: &M::State) -> (M::State, PidPerm, u64)
where
    M: Symmetric,
    M::State: Ord,
{
    let perms = PidPerm::all(m.num_processes());
    let orbit: HashSet<M::State> = perms.iter().map(|p| m.permute_state(x, p)).collect();
    let packed = m
        .state_packer()
        .filter(|p| p.permutes())
        .and_then(|p| p.pack(x).map(|w| (p, w)));
    let pi = match packed {
        Some((p, w)) => perms.iter().min_by_key(|pi| p.permute_word(w, pi)),
        None => perms.iter().min_by_key(|pi| m.permute_state(x, pi)),
    }
    .expect("n >= 1");
    (m.permute_state(x, pi), pi.clone(), orbit.len() as u64)
}

/// Every state of `m`'s region within `horizon` layers.
fn region_states<M: LayeredModel>(m: &M, horizon: usize) -> Vec<M::State> {
    let region = Region::reachable(m, horizon, &NOOP);
    let space = region.space();
    region
        .levels()
        .iter()
        .flatten()
        .map(|&id| space.resolve(id))
        .collect()
}

/// `m`'s canonicalization agrees with the naive rule applied to
/// `reference` on every state of `m`'s region: the representative, the
/// witness and the orbit size.
fn assert_follows_canonical_rule<R, M>(reference: &R, m: &M, horizon: usize)
where
    R: Symmetric,
    R::State: Ord,
    M: Symmetric<State = R::State>,
{
    let states = region_states(m, horizon);
    assert!(states.len() > m.initial_states().len(), "region grew");
    for x in &states {
        let (rep, pi, orbit) = naive_canonical(reference, x);
        assert_eq!(
            m.canonicalize_with_orbit(x),
            (rep.clone(), pi.clone(), orbit),
            "{x:?}"
        );
        assert_eq!(m.canonicalize(x), (rep, pi), "{x:?}");
    }
}

/// Canonicalization follows one rule in every model family: the packed
/// minimum where the codec permutes (mobile, crash, shared memory, the
/// counter model), the `Ord` minimum where it does not (message passing),
/// and the wrapped model's rule behind `Unpacked`, which hides the codec.
#[test]
fn canonicalization_follows_the_one_rule_in_every_model() {
    let mobile = MobileModel::new(3, FloodMin::new(2)).with_layering(MobileLayering::Full);
    assert_follows_canonical_rule(&mobile, &mobile, 2);
    let crash = CrashModel::new(3, 1, FloodMin::new(2)).with_layering(CrashLayering::Full);
    assert_follows_canonical_rule(&crash, &crash, 2);
    let sm = SmModel::new(3, SmFloodMin::new(2)).with_layering(SmLayering::FullSplit);
    assert_follows_canonical_rule(&sm, &sm, 2);
    let mp = MpModel::new(3, MpFloodMin::new(2));
    assert_follows_canonical_rule(&mp, &mp, 2);
    let mobile4 = MobileModel::new(4, FloodMin::new(2)).with_layering(MobileLayering::Full);
    assert_follows_canonical_rule(&mobile4, &mobile4, 1);
    assert_follows_canonical_rule(&mobile, &Unpacked(mobile.clone()), 2);
    let counter = CounterModel::new(3, 2);
    assert_follows_canonical_rule(&counter, &counter, 2);
}

/// The binary valence probe sees decisions, not names: for every region
/// state, every renaming and both horizon flags, `DECIDED` reads the same
/// flags on `π · x` as on `x`. Quotient valence rests on this.
#[test]
fn decided_probe_is_invariant_under_renaming() {
    fn check<M: Symmetric>(m: &M, horizon: usize) {
        let perms = PidPerm::all(m.num_processes());
        for x in &region_states(m, horizon) {
            for at_horizon in [false, true] {
                let flags = DECIDED.probe(m, x, at_horizon);
                for pi in &perms {
                    let y = m.permute_state(x, pi);
                    assert_eq!(
                        DECIDED.probe(m, &y, at_horizon),
                        flags,
                        "{x:?} under {pi:?}"
                    );
                }
            }
        }
    }
    let mobile = MobileModel::new(3, FloodMin::new(2)).with_layering(MobileLayering::Full);
    check(&mobile, 2);
    check(
        &CrashModel::new(3, 1, FloodMin::new(2)).with_layering(CrashLayering::Full),
        2,
    );
    check(
        &SmModel::new(3, SmFloodMin::new(2)).with_layering(SmLayering::FullSplit),
        2,
    );
    check(&MpModel::new(3, MpFloodMin::new(2)), 2);
    check(
        &MobileModel::new(4, FloodMin::new(2)).with_layering(MobileLayering::Full),
        1,
    );
    check(&Unpacked(mobile), 2);
}
