//! The claim registry: which certificates this crate can compute from
//! scratch, and how every stored certificate is re-verified before it is
//! served.
//!
//! # Computable claims
//!
//! | model         | claim         | kind           | construction                          |
//! |---------------|---------------|----------------|---------------------------------------|
//! | `sync-mobile` | `lemma_5_1`   | `scan_verdict` | depth-1 layer-connectivity scan at horizon 2 plus the Theorem 4.2 witness |
//! | `sync-mobile` | `theorem_4_2` | `witness`      | one-layer ever-bivalent chain, horizon 2 |
//! | `sync-crash`  | `lemma_6_1`   | `run`          | Lemma 6.1 bivalent `S^t`-chain from a bivalent initial state, horizon `t+1` |
//! | `async-sm`    | `theorem_4_2` | `witness`      | one-layer ever-bivalent chain, horizon 2 |
//! | `async-mp`    | `theorem_4_2` | `witness`      | one-layer ever-bivalent chain, horizon 2 |
//!
//! `sim_violation` (kind `schedule`) certificates are *recorded* by the
//! simulation harness, never computed here — there is no way to conjure a
//! violating schedule on demand; [`verify`] replays them.
//!
//! # Verify-on-read policy
//!
//! Every certificate is re-verified before being served, in two tiers so
//! warm reads stay cheap while small instances get the full semantic
//! re-check:
//!
//! * **always** — the chain (or schedule) is *replayed against the model*:
//!   `trace_from_json` rebuilds the execution from its successor-index
//!   path, so a decoded trace is a genuine `S`-execution by construction
//!   and the stored fingerprints must match; undecided counts are
//!   recomputed and compared.
//! * **`n ≤ FULL_VERIFY_MAX_N`** — additionally the expensive semantic
//!   claims: full [`ImpossibilityWitness::verify`] for witnesses
//!   (bivalence, Lemma 3.1 counts, layer connectivity), per-state
//!   bivalence for runs, and `ExecutionTrace::validate` for replayed
//!   schedules.

use layered_core::telemetry::json::Json;
use layered_core::telemetry::Observer;
use layered_core::{
    scan_layer_valence_connectivity, undecided_non_failed, witness_from_json, witness_to_json,
    ImpossibilityWitness, LayeredModel, SimModel, ValenceSolver,
};
use layered_protocols::{FloodMin, MpFloodMin, SmFloodMin};
use layered_sim::{classify, Schedule};
use layered_sync_crash::lemma_6_1_chain;
use layered_sync_crash::CrashModel;
use layered_sync_mobile::MobileModel;

use crate::cert::{CertKind, CertMeta, Certificate};

/// Largest `n` at which the full semantic tier (bivalence, Lemma 3.1,
/// layer connectivity, `validate`) runs during verify-on-read; above it
/// only the always-on replay tier runs.
pub const FULL_VERIFY_MAX_N: usize = 3;

/// The claim key under which recorded violating schedules are stored.
pub const SIM_VIOLATION_CLAIM: &str = "sim_violation";

/// All model keys the registry knows.
pub const MODEL_KEYS: &[&str] = &[
    layered_sync_mobile::MODEL_KEY,
    layered_sync_crash::MODEL_KEY,
    layered_async_sm::MODEL_KEY,
    layered_async_mp::MODEL_KEY,
];

/// Why a compute or verify request failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RegistryError {
    /// The model key is not one of [`MODEL_KEYS`].
    UnknownModel,
    /// The claim key is not computable/verifiable for that model.
    UnknownClaim,
    /// `n` is outside the range the claim's construction supports.
    BadSize {
        /// Smallest supported `n`.
        min: usize,
        /// Largest `n` the registry will compute at.
        max: usize,
    },
    /// The engine could not build the claimed artifact (e.g. no bivalent
    /// initial state at this size).
    Unconstructible(&'static str),
    /// A stored certificate failed re-verification.
    VerifyFailed(&'static str),
}

impl std::fmt::Display for RegistryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RegistryError::UnknownModel => write!(f, "unknown model key"),
            RegistryError::UnknownClaim => write!(f, "unknown claim for this model"),
            RegistryError::BadSize { min, max } => {
                write!(
                    f,
                    "n out of range for this claim (supported: {min}..={max})"
                )
            }
            RegistryError::Unconstructible(what) => {
                write!(f, "artifact not constructible: {what}")
            }
            RegistryError::VerifyFailed(what) => write!(f, "verification failed: {what}"),
        }
    }
}

impl std::error::Error for RegistryError {}

/// The layering key certificates for `model` carry.
#[must_use]
pub fn layering_key(model: &str) -> Option<&'static str> {
    match model {
        "sync-mobile" => Some("s1"),
        "sync-crash" => Some("s_t"),
        "async-sm" => Some("s_rw"),
        "async-mp" => Some("s_per"),
        _ => None,
    }
}

/// The claims the registry can compute for `model` (recorded
/// [`SIM_VIOLATION_CLAIM`] certificates are verifiable but not listed —
/// they cannot be computed on demand).
#[must_use]
pub fn claims_for(model: &str) -> &'static [&'static str] {
    match model {
        "sync-mobile" => layered_sync_mobile::CLAIM_KEYS,
        "sync-crash" => layered_sync_crash::CLAIM_KEYS,
        "async-sm" => layered_async_sm::CLAIM_KEYS,
        "async-mp" => layered_async_mp::CLAIM_KEYS,
        _ => &[],
    }
}

/// The largest `n` the registry will compute a certificate at for `model`
/// (the exhaustive engines are exponential in `n`; beyond this, serve only
/// what the harness stored).
#[must_use]
pub fn max_compute_n(model: &str) -> usize {
    match model {
        "sync-mobile" | "sync-crash" => 4,
        "async-sm" | "async-mp" => 3,
        _ => 0,
    }
}

/// The `t` used for `sync-crash` instances at size `n` — the same choice
/// the simulation batch makes.
#[must_use]
pub fn crash_resilience(n: usize) -> usize {
    (n / 2).clamp(1, n.saturating_sub(2).max(1))
}

fn meta(model: &str, n: usize, claim: &str) -> Result<CertMeta, RegistryError> {
    Ok(CertMeta {
        model: model.to_string(),
        n,
        layering: layering_key(model)
            .ok_or(RegistryError::UnknownModel)?
            .to_string(),
        claim: claim.to_string(),
    })
}

fn check_size(n: usize, min: usize, max: usize) -> Result<(), RegistryError> {
    if n < min || n > max {
        return Err(RegistryError::BadSize { min, max });
    }
    Ok(())
}

/// Builds the Theorem 4.2 witness certificate body for one model instance:
/// a one-layer ever-bivalent chain at horizon 2, serialized replayably.
fn witness_body<M: LayeredModel>(model: &M, _obs: &dyn Observer) -> Result<Json, RegistryError> {
    let witness = ImpossibilityWitness::build(model, 2, 1)
        .ok_or(RegistryError::Unconstructible("no ever-bivalent chain"))?;
    witness_to_json(model, &witness)
        .map_err(|_| RegistryError::Unconstructible("witness not serializable"))
}

fn lemma_5_1_body<M: LayeredModel>(model: &M, obs: &dyn Observer) -> Result<Json, RegistryError> {
    let mut solver = ValenceSolver::with_observer(model, 2, obs);
    let scan = scan_layer_valence_connectivity(&mut solver, 1, true);
    // The witness reuses every state and valence the scan computed.
    let witness = ImpossibilityWitness::from_solver(&mut solver, 1)
        .ok_or(RegistryError::Unconstructible("no ever-bivalent chain"))?;
    let witness_json = witness_to_json(model, &witness)
        .map_err(|_| RegistryError::Unconstructible("witness not serializable"))?;
    Ok(Json::Object(vec![
        ("depth".into(), Json::from(1u64)),
        ("horizon".into(), Json::from(2u64)),
        (
            "layers_checked".into(),
            Json::from(scan.layers_checked as u64),
        ),
        ("states_seen".into(), Json::from(scan.states_seen as u64)),
        ("connected".into(), Json::from(scan.all_connected())),
        ("witness".into(), witness_json),
    ]))
}

fn lemma_6_1_body(n: usize, obs: &dyn Observer) -> Result<Json, RegistryError> {
    let t = crash_resilience(n);
    let deadline = u16::try_from(t + 1).unwrap_or(u16::MAX);
    let model = CrashModel::new(n, t, FloodMin::new(deadline));
    let mut solver = ValenceSolver::with_observer(&model, t + 1, obs);
    let x0 = solver
        .bivalent_initial_state()
        .ok_or(RegistryError::Unconstructible("no bivalent initial state"))?;
    let outcome = lemma_6_1_chain(&model, &mut solver, x0);
    if !outcome.reached_target() {
        return Err(RegistryError::Unconstructible("lemma 6.1 chain stalled"));
    }
    let chain = outcome
        .chain
        .ok_or(RegistryError::Unconstructible("lemma 6.1 chain stalled"))?;
    // Package the chain in the same replayable shape as a witness: the
    // undecided counts are the Lemma 3.1 quantities along the run.
    let run = ImpossibilityWitness {
        chain,
        horizon: t + 1,
        undecided: outcome.undecided_per_state,
    };
    witness_to_json(&model, &run)
        .map_err(|_| RegistryError::Unconstructible("run not serializable"))
}

/// Computes the certificate for `(model, n, claim)` from scratch.
///
/// # Errors
///
/// [`RegistryError`] when the model/claim is unknown, `n` is out of the
/// supported range, or the engine cannot build the artifact.
pub fn compute(
    model: &str,
    n: usize,
    claim: &str,
    obs: &dyn Observer,
) -> Result<Certificate, RegistryError> {
    if !claims_for(model).contains(&claim) {
        return Err(if layering_key(model).is_none() {
            RegistryError::UnknownModel
        } else {
            RegistryError::UnknownClaim
        });
    }
    let max = max_compute_n(model);
    let (kind, body) = match (model, claim) {
        ("sync-mobile", "lemma_5_1") => {
            check_size(n, 2, max)?;
            let m = MobileModel::new(n, FloodMin::new(2));
            (CertKind::ScanVerdict, lemma_5_1_body(&m, obs)?)
        }
        ("sync-mobile", "theorem_4_2") => {
            check_size(n, 2, max)?;
            let m = MobileModel::new(n, FloodMin::new(2));
            (CertKind::Witness, witness_body(&m, obs)?)
        }
        ("sync-crash", "lemma_6_1") => {
            check_size(n, 3, max)?;
            (CertKind::Run, lemma_6_1_body(n, obs)?)
        }
        ("async-sm", "theorem_4_2") => {
            check_size(n, 2, max)?;
            let m = layered_async_sm::SmModel::new(n, SmFloodMin::new(2));
            (CertKind::Witness, witness_body(&m, obs)?)
        }
        ("async-mp", "theorem_4_2") => {
            check_size(n, 2, max)?;
            let m = layered_async_mp::MpModel::new(n, MpFloodMin::new(2));
            (CertKind::Witness, witness_body(&m, obs)?)
        }
        _ => return Err(RegistryError::UnknownClaim),
    };
    Ok(Certificate::new(meta(model, n, claim)?, kind, body))
}

/// Replay-tier witness check, shared by the `witness`, `run`, and
/// `scan_verdict` paths: decode (which replays the chain and re-checks
/// fingerprints), recount undecided processes, and at small `n` run the
/// kind-appropriate semantic tier.
fn verify_chain_body<M: LayeredModel>(
    model: &M,
    body: &Json,
    kind: CertKind,
) -> Result<(), RegistryError> {
    let witness = witness_from_json(model, body)
        .map_err(|_| RegistryError::VerifyFailed("chain does not replay"))?;
    for (index, x) in witness.chain.states().iter().enumerate() {
        let u = undecided_non_failed(model, x).len();
        if witness.undecided.get(index) != Some(&u) {
            return Err(RegistryError::VerifyFailed("undecided count mismatch"));
        }
    }
    if model.num_processes() <= FULL_VERIFY_MAX_N {
        match kind {
            CertKind::Witness | CertKind::ScanVerdict => {
                witness
                    .verify(model)
                    .map_err(|_| RegistryError::VerifyFailed("witness premises fail"))?;
            }
            CertKind::Run => {
                let mut solver = ValenceSolver::new(model, witness.horizon);
                for x in witness.chain.states() {
                    if !solver.is_bivalent(x) {
                        return Err(RegistryError::VerifyFailed("run state not bivalent"));
                    }
                }
            }
            CertKind::Schedule => {}
        }
    }
    Ok(())
}

fn verify_scan_verdict<M: LayeredModel>(model: &M, body: &Json) -> Result<(), RegistryError> {
    let layers = body
        .get("layers_checked")
        .and_then(Json::as_u64)
        .ok_or(RegistryError::VerifyFailed("missing layers_checked"))?;
    let seen = body
        .get("states_seen")
        .and_then(Json::as_u64)
        .ok_or(RegistryError::VerifyFailed("missing states_seen"))?;
    let connected = body
        .get("connected")
        .and_then(Json::as_bool)
        .ok_or(RegistryError::VerifyFailed("missing connected"))?;
    if layers == 0 || seen < layers {
        return Err(RegistryError::VerifyFailed("implausible scan counts"));
    }
    if !connected {
        return Err(RegistryError::VerifyFailed("scan verdict is negative"));
    }
    let witness = body
        .get("witness")
        .ok_or(RegistryError::VerifyFailed("missing witness"))?;
    verify_chain_body(model, witness, CertKind::ScanVerdict)
}

fn verify_schedule<M>(model: &M, body: &Json) -> Result<(), RegistryError>
where
    M: SimModel,
{
    let claimed = body
        .get("outcome")
        .and_then(Json::as_str)
        .ok_or(RegistryError::VerifyFailed("missing outcome"))?;
    let schedule_json = body
        .get("schedule")
        .ok_or(RegistryError::VerifyFailed("missing schedule"))?;
    let schedule = Schedule::from_json(model, schedule_json)
        .map_err(|_| RegistryError::VerifyFailed("schedule does not decode"))?;
    let trace = schedule.replay(model);
    let outcome = classify(model, trace.states());
    if outcome.class() != claimed {
        return Err(RegistryError::VerifyFailed("replay class mismatch"));
    }
    if model.num_processes() <= FULL_VERIFY_MAX_N + 3 {
        trace
            .validate(model)
            .map_err(|_| RegistryError::VerifyFailed("replay is not an S-execution"))?;
    }
    Ok(())
}

fn schedule_deadline(body: &Json) -> Result<u16, RegistryError> {
    body.get("deadline")
        .and_then(Json::as_u64)
        .and_then(|d| u16::try_from(d).ok())
        .filter(|&d| d > 0)
        .ok_or(RegistryError::VerifyFailed("missing deadline"))
}

/// The protocol deadline to rebuild the model with when re-verifying a
/// chain-shaped body: the recorded horizon (certificates produced by the
/// scan harness may use a deeper horizon than the registry's default 2).
fn chain_deadline(body: &Json) -> u16 {
    // Scan-verdict bodies nest the chain under "witness"; plain witness
    // and run bodies carry "horizon" at top level.
    let horizon = body
        .get("horizon")
        .or_else(|| body.get("witness").and_then(|w| w.get("horizon")))
        .and_then(Json::as_u64)
        .unwrap_or(2);
    u16::try_from(horizon).unwrap_or(u16::MAX).max(1)
}

/// Rebuilds the mobile model a certificate's chain was produced under:
/// the `layering` meta key selects prefix (`s1`, the default) or full
/// (`full`, used by the symmetry-reduced scans) layer actions.
fn mobile_model(n: usize, deadline: u16, layering: &str) -> MobileModel<FloodMin> {
    let m = MobileModel::new(n, FloodMin::new(deadline));
    if layering == "full" {
        m.with_layering(layered_sync_mobile::MobileLayering::Full)
    } else {
        m
    }
}

/// Re-verifies `cert` from scratch per the tiered policy in the
/// [module docs](self), moving the `cert.verify.ok` / `cert.verify.fail`
/// counters.
///
/// # Errors
///
/// [`RegistryError::VerifyFailed`] (or `UnknownModel`/`UnknownClaim`) with
/// a reason; `Ok(())` means the artifact replayed and every tier-applicable
/// claim held.
pub fn verify(cert: &Certificate, obs: &dyn Observer) -> Result<(), RegistryError> {
    let result = verify_inner(cert);
    match &result {
        Ok(()) => obs.counter("cert.verify.ok", 1),
        Err(_) => obs.counter("cert.verify.fail", 1),
    }
    result
}

fn verify_inner(cert: &Certificate) -> Result<(), RegistryError> {
    let n = cert.meta.n;
    if layering_key(&cert.meta.model).is_none() {
        return Err(RegistryError::UnknownModel);
    }
    match (cert.meta.model.as_str(), cert.kind) {
        ("sync-mobile", CertKind::Schedule) => {
            let deadline = schedule_deadline(&cert.body)?;
            let m = MobileModel::new(n, FloodMin::new(deadline));
            verify_schedule(&m, &cert.body)
        }
        ("sync-crash", CertKind::Schedule) => {
            let deadline = schedule_deadline(&cert.body)?;
            let t = cert
                .body
                .get("t")
                .and_then(Json::as_u64)
                .and_then(|t| usize::try_from(t).ok())
                .unwrap_or_else(|| crash_resilience(n));
            let m = CrashModel::new(n, t, FloodMin::new(deadline));
            verify_schedule(&m, &cert.body)
        }
        ("async-sm", CertKind::Schedule) => {
            let deadline = schedule_deadline(&cert.body)?;
            let m = layered_async_sm::SmModel::new(n, SmFloodMin::new(deadline));
            verify_schedule(&m, &cert.body)
        }
        ("async-mp", CertKind::Schedule) => {
            let deadline = schedule_deadline(&cert.body)?;
            let m = layered_async_mp::MpModel::new(n, MpFloodMin::new(deadline));
            verify_schedule(&m, &cert.body)
        }
        ("sync-mobile", CertKind::ScanVerdict) => {
            let m = mobile_model(n, chain_deadline(&cert.body), &cert.meta.layering);
            verify_scan_verdict(&m, &cert.body)
        }
        ("sync-mobile", CertKind::Witness) => {
            let m = mobile_model(n, chain_deadline(&cert.body), &cert.meta.layering);
            verify_chain_body(&m, &cert.body, CertKind::Witness)
        }
        ("async-sm", CertKind::Witness) => {
            let m = layered_async_sm::SmModel::new(n, SmFloodMin::new(chain_deadline(&cert.body)));
            verify_chain_body(&m, &cert.body, CertKind::Witness)
        }
        ("async-mp", CertKind::Witness) => {
            let m = layered_async_mp::MpModel::new(n, MpFloodMin::new(chain_deadline(&cert.body)));
            verify_chain_body(&m, &cert.body, CertKind::Witness)
        }
        ("sync-crash", CertKind::Run) => {
            let t = crash_resilience(n);
            let deadline = u16::try_from(t + 1).unwrap_or(u16::MAX);
            let m = CrashModel::new(n, t, FloodMin::new(deadline));
            verify_chain_body(&m, &cert.body, CertKind::Run)
        }
        _ => Err(RegistryError::UnknownClaim),
    }
}

/// Packages a recorded simulation schedule as a certificate:
/// `claim = sim_violation`, body
/// `{"deadline", ("t",) "outcome", "schedule"}` with the schedule in its
/// fully replayable form ([`Schedule::to_json_full`]).
///
/// # Errors
///
/// [`RegistryError::UnknownModel`] for an unknown `model_key`.
pub fn schedule_certificate<M>(
    model_key: &str,
    model: &M,
    deadline: u16,
    t: Option<usize>,
    outcome_class: &str,
    schedule: &Schedule<M::Move>,
) -> Result<Certificate, RegistryError>
where
    M: SimModel,
{
    let mut body = vec![
        ("deadline".into(), Json::from(u64::from(deadline))),
        ("outcome".into(), Json::from(outcome_class)),
        ("schedule".into(), schedule.to_json_full(model)),
    ];
    if let Some(t) = t {
        body.push(("t".into(), Json::from(t as u64)));
    }
    Ok(Certificate::new(
        meta(model_key, model.num_processes(), SIM_VIOLATION_CLAIM)?,
        CertKind::Schedule,
        Json::Object(body),
    ))
}
