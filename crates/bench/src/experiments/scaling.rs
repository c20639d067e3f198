//! Scaling experiment for the interned state spaces: a Lemma 5.1 instance
//! (layer valence connectivity in the mobile-failure model) at n = 4,
//! run through both the sequential and the parallel expansion path.
//!
//! This is the acceptance experiment for the dense-id refactor: the two
//! paths must produce identical [`LayerScan`] reports, and the witness the
//! interned Theorem 4.2 engine extracts must still re-verify from scratch.
//! n = 4 was out of enumeration reach for the state-keyed engines; the
//! `--scan` mode of the `experiments` binary runs this instance in CI.

use std::cell::RefCell;
use std::path::Path;

use layered_cert::{CertKind, CertMeta, Certificate};
use layered_core::report::Table;
use layered_core::telemetry::json::Json;
use layered_core::telemetry::{clock, Observer};
use layered_core::{
    load_quotient, load_space, save_arena, scan_layer_valence_connectivity,
    scan_layer_valence_connectivity_parallel, witness_to_json, ArenaMeta, ImpossibilityWitness,
    LayeredModel, MemoryFootprint, QuotientSolver, QuotientSpace, StateSpace, ValenceSolver,
};
use layered_protocols::FloodMin;
use layered_sync_mobile::{MobileLayering, MobileModel, MODEL_KEY};

use crate::Experiment;

/// File name of an interned-arena snapshot inside a `--snapshot`/`--resume`
/// directory.
pub const STATE_SNAPSHOT_FILE: &str = "arena-state.bin";

/// File name of a quotient-arena snapshot inside a `--snapshot`/`--resume`
/// directory.
pub const QUOTIENT_SNAPSHOT_FILE: &str = "arena-quotient.bin";

/// Protocol key recorded in scan snapshot headers.
const PROTOCOL_KEY: &str = "floodmin";

/// Reads a snapshot blob from `dir/file`.
fn read_snapshot(dir: &str, file: &str) -> Result<Vec<u8>, String> {
    let path = Path::new(dir).join(file);
    std::fs::read(&path).map_err(|e| format!("cannot read {}: {e}", path.display()))
}

/// Writes a snapshot blob to `dir/file`, creating `dir` as needed.
fn write_snapshot(dir: &str, file: &str, bytes: &[u8]) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {dir}: {e}"))?;
    let path = Path::new(dir).join(file);
    std::fs::write(&path, bytes).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// Checks that a loaded snapshot was built for the scan being resumed.
///
/// Model, protocol, `n` and layering must all match — a snapshot of a
/// different instance shares no states with this one and resuming over it
/// would be meaningless. The *horizon* is deliberately not checked here: a
/// horizon change is a protocol change (the FloodMin deadline moves), and
/// the caller answers it with a differential refresh instead of a
/// rejection.
fn check_resume_compat(meta: &ArenaMeta, n: usize, layering: &str) -> Result<(), String> {
    if meta.model != MODEL_KEY {
        return Err(format!(
            "snapshot is for model `{}`, not `{MODEL_KEY}`",
            meta.model
        ));
    }
    if meta.protocol != PROTOCOL_KEY {
        return Err(format!(
            "snapshot is for protocol `{}`, not `{PROTOCOL_KEY}`",
            meta.protocol
        ));
    }
    if meta.n != n as u64 {
        return Err(format!("snapshot has n={}, scan has n={n}", meta.n));
    }
    if meta.layering != layering {
        return Err(format!(
            "snapshot is for layering `{}`, not `{layering}`",
            meta.layering
        ));
    }
    Ok(())
}

/// The [`ArenaMeta`] a scan stamps into the snapshots it writes.
fn scan_meta(cfg: &ScanConfig, horizon: usize, layering: &str) -> ArenaMeta {
    ArenaMeta {
        model: MODEL_KEY.to_string(),
        protocol: PROTOCOL_KEY.to_string(),
        n: cfg.n as u64,
        horizon: horizon as u64,
        depth: cfg.depth as u64,
        layering: layering.to_string(),
    }
}

/// Packages a finished layer scan and its supporting witness as a
/// `lemma_5_1` scan-verdict certificate, ready for a `--store` directory.
fn scan_certificate<M: LayeredModel>(
    model: &M,
    layering: &str,
    depth: usize,
    horizon: usize,
    scan: (usize, usize, bool),
    witness: &ImpossibilityWitness<M::State>,
    snapshot_sha256: Option<&str>,
) -> Option<Certificate> {
    let (layers_checked, states_seen, connected) = scan;
    let witness_json = witness_to_json(model, witness).ok()?;
    let mut body = vec![
        ("depth".into(), Json::from(depth as u64)),
        ("horizon".into(), Json::from(horizon as u64)),
        ("layers_checked".into(), Json::from(layers_checked as u64)),
        ("states_seen".into(), Json::from(states_seen as u64)),
        ("connected".into(), Json::from(connected)),
        ("witness".into(), witness_json),
    ];
    // Tie the verdict to the exact arena it was computed over (or resumed
    // from): a cold `--snapshot` run and a warm `--resume` run of the same
    // scan produce byte-identical certificates, which is how CI asserts
    // the warm path recomputed nothing it shouldn't have.
    if let Some(h) = snapshot_sha256 {
        body.push(("snapshot_sha256".into(), Json::from(h)));
    }
    Some(Certificate::new(
        CertMeta {
            model: MODEL_KEY.to_string(),
            n: model.num_processes(),
            layering: layering.to_string(),
            claim: "lemma_5_1".to_string(),
        },
        CertKind::ScanVerdict,
        Json::Object(body),
    ))
}

/// Parameters of the `--scan` mode.
#[derive(Clone, Debug)]
pub struct ScanConfig {
    /// Number of processes (default 4 — the size the interning unlocked).
    pub n: usize,
    /// Scan depth: layers of every bivalent state down to this depth are
    /// checked for valence connectivity.
    pub depth: usize,
    /// Worker threads for the parallel expansion path.
    pub threads: usize,
    /// Run the symmetry-reduced quotient scan instead of the plain
    /// interned scan (the `--quotient` flag).
    pub quotient: bool,
    /// Valence horizon override (the `--horizon` flag). `None` keeps the
    /// historical coupling `horizon = depth + 1`; setting it explicitly is
    /// what lets a resumed scan deepen `depth` without silently moving the
    /// FloodMin deadline (a deadline move is a protocol change and triggers
    /// the differential refresh instead).
    pub horizon: Option<usize>,
    /// Directory to write an arena snapshot into after the scan (the
    /// `--snapshot` flag).
    pub snapshot_dir: Option<String>,
    /// Directory to load an arena snapshot from before the scan (the
    /// `--resume` flag).
    pub resume_dir: Option<String>,
    /// Store states packed (bitfield words) when the model provides a
    /// codec. `false` (the `--boxed` flag) forces boxed storage — the
    /// cross-check path that demonstrates packing is representation-only.
    pub packed: bool,
}

impl ScanConfig {
    /// The effective valence horizon of the scan.
    #[must_use]
    pub fn effective_horizon(&self) -> usize {
        self.horizon.unwrap_or(self.depth + 1)
    }
}

impl Default for ScanConfig {
    fn default() -> Self {
        ScanConfig {
            n: 4,
            depth: 1,
            threads: 4,
            quotient: false,
            horizon: None,
            snapshot_dir: None,
            resume_dir: None,
            packed: true,
        }
    }
}

/// Runs the Lemma 5.1 layer scan sequentially and in parallel on the mobile
/// model and cross-checks the results (see the module docs).
///
/// `trace` is teed alongside the metrics registry — pass a `TraceObserver`
/// to capture the span tree for `--trace` / `--profile`, or `&NOOP`. The
/// scan verdict and its witness come back packaged as a storable
/// certificate (`None` when the witness could not be built — in which case
/// the experiment is not `ok` either).
#[must_use]
pub fn interned_scan(cfg: &ScanConfig, trace: &dyn Observer) -> (Experiment, Option<Certificate>) {
    let cfg = cfg.clone();
    let slot: RefCell<Option<Certificate>> = RefCell::new(None);
    let slot_ref = &slot;
    let exp = crate::measured_with(
        "E-scan",
        "Lemma 5.1 layer scan on interned state spaces (sequential ≡ parallel)",
        trace,
        move |obs| {
            let mut table = Table::new(
                "Interned layer scan — sequential vs. parallel expansion",
                &[
                    "model",
                    "n",
                    "path",
                    "layers checked",
                    "states seen",
                    "all val-conn",
                    "wall ms",
                ],
            );
            let horizon = cfg.effective_horizon();
            let m = MobileModel::new(cfg.n, FloodMin::new(horizon as u16));

            // Resume: restore the arena twice (the sequential and parallel
            // paths must stay independent to mean anything as a
            // cross-check), refreshing differentially if the deadline
            // moved since the snapshot was taken.
            let mut resume_err: Option<String> = None;
            let mut resume_note: Option<String> = None;
            let mut snapshot_hash: Option<String> = None;
            let mut spaces = None;
            if let Some(dir) = &cfg.resume_dir {
                let loaded = read_snapshot(dir, STATE_SNAPSHOT_FILE).and_then(|bytes| {
                    let (a, meta, hash) = load_space(&m, &bytes, obs).map_err(|e| e.to_string())?;
                    let (b, _, _) = load_space(&m, &bytes, obs).map_err(|e| e.to_string())?;
                    check_resume_compat(&meta, cfg.n, "s1")?;
                    Ok((a, b, meta, hash))
                });
                match loaded {
                    Ok((mut a, mut b, meta, hash)) => {
                        if meta.horizon == horizon as u64 {
                            resume_note = Some(format!(
                                "resumed: {} states, {} edges reused",
                                a.len(),
                                a.edge_count()
                            ));
                        } else {
                            let diff = a.refresh_differential(&m, obs);
                            b.refresh_differential(&m, obs);
                            resume_note = Some(format!(
                                "deadline {} -> {horizon}: {} rows reused, {} recomputed",
                                meta.horizon, diff.reused, diff.recomputed
                            ));
                        }
                        snapshot_hash = Some(hash);
                        spaces = Some((a, b));
                    }
                    Err(e) => resume_err = Some(e),
                }
            }
            let (seq_space, par_space) = match spaces {
                Some((a, b)) => (Some(a), Some(b)),
                None => (None, None),
            };

            let start = clock::monotonic_ns();
            let mut solver = match seq_space {
                Some(space) => ValenceSolver::with_space(&m, horizon, space, obs),
                None if cfg.packed => ValenceSolver::with_observer(&m, horizon, obs),
                None => ValenceSolver::with_space(&m, horizon, StateSpace::new(), obs),
            };
            let seq = scan_layer_valence_connectivity(&mut solver, cfg.depth, true);
            let seq_ms = clock::monotonic_ns().saturating_sub(start) as f64 / 1e6;

            // Snapshot the (possibly extended) sequential arena before the
            // certificate is built, so the verdict can carry its hash.
            if resume_err.is_none() {
                if let Some(dir) = &cfg.snapshot_dir {
                    let meta = scan_meta(&cfg, horizon, "s1");
                    let (bytes, hash) = save_arena(solver.space(), &meta, obs);
                    match write_snapshot(dir, STATE_SNAPSHOT_FILE, &bytes) {
                        Ok(()) => snapshot_hash = Some(hash),
                        Err(e) => resume_err = Some(e),
                    }
                }
            }

            let start = clock::monotonic_ns();
            let mut solver = match par_space {
                Some(space) => ValenceSolver::with_space(&m, horizon, space, obs),
                None if cfg.packed => ValenceSolver::with_observer(&m, horizon, obs),
                None => ValenceSolver::with_space(&m, horizon, StateSpace::new(), obs),
            };
            let par =
                scan_layer_valence_connectivity_parallel(&mut solver, cfg.depth, true, cfg.threads);
            let par_ms = clock::monotonic_ns().saturating_sub(start) as f64 / 1e6;
            solver.report_memory(obs);

            let identical = seq == par;
            let witness = ImpossibilityWitness::build(&m, horizon, cfg.depth);
            let verified = witness.as_ref().is_some_and(|w| w.verify(&m).is_ok());
            if let Some(w) = &witness {
                *slot_ref.borrow_mut() = scan_certificate(
                    &m,
                    "s1",
                    cfg.depth,
                    horizon,
                    (seq.layers_checked, seq.states_seen, seq.all_connected()),
                    w,
                    snapshot_hash.as_deref(),
                );
            }

            for (path, scan, ms) in [("sequential", &seq, seq_ms), ("parallel", &par, par_ms)] {
                table.row_owned(vec![
                    "M^mf (S₁)".to_string(),
                    cfg.n.to_string(),
                    path.to_string(),
                    scan.layers_checked.to_string(),
                    scan.states_seen.to_string(),
                    if scan.all_connected() { "yes" } else { "no" }.to_string(),
                    format!("{ms:.1}"),
                ]);
            }
            table.row_owned(vec![
                "M^mf (S₁)".to_string(),
                cfg.n.to_string(),
                "cross-check".to_string(),
                "-".to_string(),
                "-".to_string(),
                if identical { "identical" } else { "DIVERGED" }.to_string(),
                if verified {
                    "witness ok"
                } else {
                    "witness BAD"
                }
                .to_string(),
            ]);
            for (label, msg) in [("resume", &resume_note), ("snapshot ERROR", &resume_err)] {
                if let Some(msg) = msg {
                    table.row_owned(vec![
                        "M^mf (S₁)".to_string(),
                        cfg.n.to_string(),
                        label.to_string(),
                        "-".to_string(),
                        "-".to_string(),
                        msg.clone(),
                        "-".to_string(),
                    ]);
                }
            }

            (
                table,
                identical && seq.all_connected() && verified && resume_err.is_none(),
            )
        },
    );
    (exp, slot.into_inner())
}

/// Runs the symmetry-reduced Lemma 5.1 layer scan over canonical orbits
/// (the `--scan --quotient` mode).
///
/// The mobile model is switched to its equivariant `Full` layering and the
/// scan walks the quotient under process renaming. At n ≤ 5 the full-space
/// scan is run alongside as a baseline (packed encodings pushed the full
/// engine past its old n = 4 wall) and the two must reach the same lemma
/// verdict — with the quotient visiting at least 3× fewer states at
/// n ≥ 4 (the acceptance bound). At n ≥ 6 only the quotient runs: the
/// whole point of the reduction is that the full space is out of reach
/// there. In every case the de-quotiented witness must re-verify against
/// the full model.
///
/// `trace` and the returned certificate are as for [`interned_scan`]; the
/// certificate's layering key is `full` — the equivariant layering the
/// quotient runs under.
#[must_use]
pub fn quotient_scan(cfg: &ScanConfig, trace: &dyn Observer) -> (Experiment, Option<Certificate>) {
    let cfg = cfg.clone();
    let slot: RefCell<Option<Certificate>> = RefCell::new(None);
    let slot_ref = &slot;
    let exp = crate::measured_with(
        "E-sym",
        "Lemma 5.1 layer scan over canonical orbits (quotient ≡ full verdicts)",
        trace,
        move |obs| {
            let mut table = Table::new(
                "Symmetry-reduced layer scan — canonical orbits vs. the full space",
                &[
                    "model",
                    "n",
                    "space",
                    "layers checked",
                    "states seen",
                    "all val-conn",
                    "wall ms",
                ],
            );
            let horizon = cfg.effective_horizon();
            let m = MobileModel::new(cfg.n, FloodMin::new(horizon as u16))
                .with_layering(MobileLayering::Full);
            let model_label = "M^mf (Full)";

            // Resume: restore the quotient arena for the sequential and
            // parallel paths independently (see the interned twin).
            let mut resume_err: Option<String> = None;
            let mut resume_note: Option<String> = None;
            let mut snapshot_hash: Option<String> = None;
            let mut spaces = None;
            if let Some(dir) = &cfg.resume_dir {
                let loaded = read_snapshot(dir, QUOTIENT_SNAPSHOT_FILE).and_then(|bytes| {
                    let (a, meta, hash) =
                        load_quotient(&m, &bytes, obs).map_err(|e| e.to_string())?;
                    let (b, _, _) = load_quotient(&m, &bytes, obs).map_err(|e| e.to_string())?;
                    check_resume_compat(&meta, cfg.n, "full")?;
                    Ok((a, b, meta, hash))
                });
                match loaded {
                    Ok((mut a, mut b, meta, hash)) => {
                        if meta.horizon == horizon as u64 {
                            resume_note = Some(format!(
                                "resumed: {} orbits, {} edges reused",
                                a.len(),
                                a.edge_count()
                            ));
                        } else {
                            let diff = a.refresh_differential(&m, obs);
                            b.refresh_differential(&m, obs);
                            resume_note = Some(format!(
                                "deadline {} -> {horizon}: {} orbits reused, {} recomputed",
                                meta.horizon, diff.reused, diff.recomputed
                            ));
                        }
                        snapshot_hash = Some(hash);
                        spaces = Some((a, b));
                    }
                    Err(e) => resume_err = Some(e),
                }
            }
            let (seq_space, par_space) = match spaces {
                Some((a, b)) => (Some(a), Some(b)),
                None => (None, None),
            };

            // Quotient scan, sequential and parallel expansion paths.
            let start = clock::monotonic_ns();
            let mut solver = match seq_space {
                Some(space) => QuotientSolver::with_space(&m, horizon, space, obs),
                None if cfg.packed => QuotientSolver::with_observer(&m, horizon, obs),
                None => QuotientSolver::with_space(&m, horizon, QuotientSpace::new_boxed(&m), obs),
            };
            let quot = scan_layer_valence_connectivity(&mut solver, cfg.depth, true);
            let quot_ms = clock::monotonic_ns().saturating_sub(start) as f64 / 1e6;
            let orbits = solver.space().len();
            let covered = solver.space().covered_states();

            // Snapshot the (possibly extended) sequential quotient arena
            // before the certificate is built.
            if resume_err.is_none() {
                if let Some(dir) = &cfg.snapshot_dir {
                    let meta = scan_meta(&cfg, horizon, "full");
                    let (bytes, hash) = save_arena(solver.space(), &meta, obs);
                    match write_snapshot(dir, QUOTIENT_SNAPSHOT_FILE, &bytes) {
                        Ok(()) => snapshot_hash = Some(hash),
                        Err(e) => resume_err = Some(e),
                    }
                }
            }

            let start = clock::monotonic_ns();
            let mut par_solver = match par_space {
                Some(space) => QuotientSolver::with_space(&m, horizon, space, obs),
                None if cfg.packed => QuotientSolver::with_observer(&m, horizon, obs),
                None => QuotientSolver::with_space(&m, horizon, QuotientSpace::new_boxed(&m), obs),
            };
            let par = scan_layer_valence_connectivity_parallel(
                &mut par_solver,
                cfg.depth,
                true,
                cfg.threads,
            );
            let par_ms = clock::monotonic_ns().saturating_sub(start) as f64 / 1e6;
            par_solver.report_memory(obs);
            let paths_agree = quot == par;

            // Full-space baseline, only at sizes the full engine can reach
            // (n = 5 became reachable when the arenas went packed).
            let full = (cfg.n <= 5).then(|| {
                let start = clock::monotonic_ns();
                let mut solver = if cfg.packed {
                    ValenceSolver::with_observer(&m, horizon, obs)
                } else {
                    ValenceSolver::with_space(&m, horizon, StateSpace::new(), obs)
                };
                let scan = scan_layer_valence_connectivity(&mut solver, cfg.depth, true);
                (
                    scan,
                    clock::monotonic_ns().saturating_sub(start) as f64 / 1e6,
                )
            });

            let witness = ImpossibilityWitness::build_quotient(&m, horizon, cfg.depth);
            let verified = witness.as_ref().is_some_and(|w| w.verify(&m).is_ok());
            if let Some(w) = &witness {
                *slot_ref.borrow_mut() = scan_certificate(
                    &m,
                    "full",
                    cfg.depth,
                    horizon,
                    (quot.layers_checked, quot.states_seen, quot.all_connected()),
                    w,
                    snapshot_hash.as_deref(),
                );
            }

            // Headline numbers as gauges so the JSON record carries the
            // full-vs-quotient comparison as stable machine-readable fields.
            obs.gauge("scan.sym.n", cfg.n as u64);
            obs.gauge("scan.sym.quotient.states_seen", quot.states_seen as u64);
            obs.gauge("scan.sym.quotient.wall_ns", (quot_ms * 1e6) as u64);
            if let Some((scan, ms)) = &full {
                obs.gauge("scan.sym.full.states_seen", scan.states_seen as u64);
                obs.gauge("scan.sym.full.wall_ns", (*ms * 1e6) as u64);
            }

            let mut rows: Vec<(&str, &layered_core::LayerScan<_>, f64)> = Vec::new();
            if let Some((scan, ms)) = &full {
                rows.push(("full", scan, *ms));
            }
            rows.push(("quotient (seq)", &quot, quot_ms));
            rows.push(("quotient (par)", &par, par_ms));
            for (space, scan, ms) in rows {
                table.row_owned(vec![
                    model_label.to_string(),
                    cfg.n.to_string(),
                    space.to_string(),
                    scan.layers_checked.to_string(),
                    scan.states_seen.to_string(),
                    if scan.all_connected() { "yes" } else { "no" }.to_string(),
                    format!("{ms:.1}"),
                ]);
            }

            let parity = full
                .as_ref()
                .is_none_or(|(scan, _)| scan.violation.is_none() == quot.violation.is_none());
            // Acceptance bound on the reduction: ≥ 3× fewer states at
            // n = 4, ≥ 10× at n = 5 (the orbit factor grows with n!, so
            // the bar rises with the sizes packed arenas made reachable).
            let factor = if cfg.n >= 5 { 10 } else { 3 };
            let reduced = cfg.n < 4
                || full
                    .as_ref()
                    .is_none_or(|(scan, _)| scan.states_seen >= factor * quot.states_seen);
            table.row_owned(vec![
                model_label.to_string(),
                cfg.n.to_string(),
                "cross-check".to_string(),
                format!("{orbits} orbits"),
                format!("{covered} covered"),
                match (&full, parity, reduced) {
                    (None, _, _) => "quotient only".to_string(),
                    (Some(_), true, true) => "verdicts agree".to_string(),
                    (Some(_), false, _) => "verdict DIVERGED".to_string(),
                    (Some(_), _, false) => format!("reduction < {factor}x"),
                },
                if verified {
                    "witness ok"
                } else {
                    "witness BAD"
                }
                .to_string(),
            ]);
            for (label, msg) in [("resume", &resume_note), ("snapshot ERROR", &resume_err)] {
                if let Some(msg) = msg {
                    table.row_owned(vec![
                        model_label.to_string(),
                        cfg.n.to_string(),
                        label.to_string(),
                        "-".to_string(),
                        "-".to_string(),
                        msg.clone(),
                        "-".to_string(),
                    ]);
                }
            }

            (
                table,
                paths_agree
                    && parity
                    && reduced
                    && verified
                    && quot.all_connected()
                    && resume_err.is_none(),
            )
        },
    );
    (exp, slot.into_inner())
}
