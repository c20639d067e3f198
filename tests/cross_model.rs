//! Cross-model integration tests: the same kernel analyses run unchanged
//! over all four models, and the paper's uniform claims hold in each.

use layered_consensus::async_mp::MpModel;
use layered_consensus::async_sm::SmModel;
use layered_consensus::core::telemetry::NOOP;
use layered_consensus::core::{
    build_bivalent_run, check_consensus, check_fault_independence, check_graded, similarity_report,
    LayeredModel, Region, Valence, ValenceSolver, Value,
};
use layered_consensus::protocols::{
    FloodMin, MpFloodMin, MpRelayRace, SmFloodMin, SmRelayRace, SyncRelayRace,
};
use layered_consensus::sync_crash::CrashModel;
use layered_consensus::sync_mobile::MobileModel;

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
