//! Scaling experiments for the interned state spaces: a Lemma 5.1 instance
//! (layer valence connectivity in the mobile-failure model) scanned over
//! the plain arena (E-scan) or over canonical orbits (E-sym).
//!
//! Every checked layer must be valence connected, and the Theorem 4.2
//! witness, built on the scan's own solver, must re-verify from scratch.
//! The `--scan` mode of the `experiments` binary runs these instances in
//! CI.

use std::path::Path;

use layered_cert::{CertKind, CertMeta, Certificate};
use layered_core::report::Table;
use layered_core::telemetry::json::Json;
use layered_core::telemetry::{clock, names, Observer};
use layered_core::{
    load_arena, save_arena, scan_layer_valence_connectivity, witness_to_json, Arena, ArenaMeta,
    ImpossibilityWitness, Keying, LayerScan, LayeredModel, MemoryFootprint, Orbits, Plain, Solver,
    ValenceSolver,
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
            quotient: false,
            horizon: None,
            snapshot_dir: None,
            resume_dir: None,
        }
    }
}

/// Runs the Lemma 5.1 layer scan on the mobile model and builds the
/// Theorem 4.2 witness on the scan's solver (see the module docs).
///
/// `cfg.quotient` picks the arena: the plain interned scan (E-scan) under
/// the `S₁` layering, or the symmetry-reduced scan over canonical orbits
/// (E-sym) under the equivariant `Full` layering. At n ≤ 5 E-sym also runs
/// the full-space scan as a baseline (packed encodings pushed the full
/// engine past its old n = 4 wall), and the two must reach the same lemma
/// verdict — with the quotient visiting at least 3× fewer states at
/// n ≥ 4 (the acceptance bound). At n ≥ 6 only the quotient runs: the
/// whole point of the reduction is that the full space is out of reach
/// there. In every case the de-quotiented witness must re-verify against
/// the full model.
///
/// `trace` is teed alongside the metrics registry — pass a `TraceObserver`
/// to capture the span tree for `--trace` / `--profile`, or `&NOOP`. The
/// scan verdict and its witness come back packaged as a storable
/// certificate whose layering key is the scan's (`s1` or `full`); it is
/// `None` when the witness could not be built, in which case the
/// experiment is not `ok` either.
#[must_use]
pub fn layer_scan(cfg: &ScanConfig, trace: &dyn Observer) -> (Experiment, Option<Certificate>) {
    if cfg.quotient {
        scan::<Orbits>(cfg, trace)
    } else {
        scan::<Plain>(cfg, trace)
    }
}

type Mobile = MobileModel<FloodMin>;
type Scan = LayerScan<<Mobile as LayeredModel>::State>;

/// What tells the plain layer scan (E-scan) from the orbit one (E-sym).
/// The resume, snapshot, witness and certificate steps are [`scan`]'s and
/// the same for both.
trait ScanKeying: Keying<Mobile> {
    /// Experiment id.
    const ID: &'static str;
    /// The paper claim the experiment reproduces.
    const CLAIM: &'static str;
    /// Table title.
    const TITLE: &'static str;
    /// Header of the table column naming each row.
    const COLUMN: &'static str;
    /// The layering the scan runs under.
    const LAYERING: MobileLayering;
    /// The layering's key in snapshot and certificate headers.
    const LAYERING_KEY: &'static str;
    /// The model column of every row.
    const MODEL_LABEL: &'static str;
    /// Snapshot file inside a `--snapshot`/`--resume` directory.
    const SNAPSHOT_FILE: &'static str;
    /// Row label of the scan.
    const PATH: &'static str;
    /// What the resume row calls a refreshed successor row.
    const ROWS: &'static str;

    /// The keying's own checks, run once the scan is done and before the
    /// witness is built on `solver`, the scan's solver (they report to its
    /// observer).
    fn cross_check(
        cfg: &ScanConfig,
        solver: &Solver<'_, Mobile, Self>,
        scan: (&Scan, f64),
    ) -> CrossCheck;
}

/// A keying's contribution to the scan table and verdict.
struct CrossCheck {
    /// A scan row shown above the keying's own.
    baseline: Option<(&'static str, Scan, f64)>,
    /// The cross-check row's cells before its witness cell.
    cells: [String; 3],
    /// Whether the keying's own checks pass.
    ok: bool,
}

impl ScanKeying for Plain {
    const ID: &'static str = "E-scan";
    const CLAIM: &'static str = "Lemma 5.1 layer scan on interned state spaces";
    const TITLE: &'static str = "Interned layer scan";
    const COLUMN: &'static str = "path";
    const LAYERING: MobileLayering = MobileLayering::S1;
    const LAYERING_KEY: &'static str = "s1";
    const MODEL_LABEL: &'static str = "M^mf (S₁)";
    const SNAPSHOT_FILE: &'static str = STATE_SNAPSHOT_FILE;
    const PATH: &'static str = "sequential";
    const ROWS: &'static str = "rows";

    fn cross_check(_: &ScanConfig, _: &Solver<'_, Mobile, Self>, _: (&Scan, f64)) -> CrossCheck {
        CrossCheck {
            baseline: None,
            cells: ["-".to_string(), "-".to_string(), "-".to_string()],
            ok: true,
        }
    }
}

impl ScanKeying for Orbits {
    const ID: &'static str = "E-sym";
    const CLAIM: &'static str =
        "Lemma 5.1 layer scan over canonical orbits (quotient ≡ full verdicts)";
    const TITLE: &'static str = "Symmetry-reduced layer scan — canonical orbits vs. the full space";
    const COLUMN: &'static str = "space";
    const LAYERING: MobileLayering = MobileLayering::Full;
    const LAYERING_KEY: &'static str = "full";
    const MODEL_LABEL: &'static str = "M^mf (Full)";
    const SNAPSHOT_FILE: &'static str = QUOTIENT_SNAPSHOT_FILE;
    const PATH: &'static str = "quotient (seq)";
    const ROWS: &'static str = "orbits";

    /// The full-space baseline at n ≤ 5, the `scan.sym.*` gauges, and the
    /// verdict-parity and reduction checks against the baseline.
    fn cross_check(
        cfg: &ScanConfig,
        solver: &Solver<'_, Mobile, Self>,
        (quot, quot_ms): (&Scan, f64),
    ) -> CrossCheck {
        let obs = solver.observer();
        // Full-space baseline, only at sizes the full engine can reach
        // (n = 5 became reachable when the arenas went packed).
        let full = (cfg.n <= 5).then(|| {
            let start = clock::monotonic_ns();
            let mut full = ValenceSolver::with_observer(solver.model(), solver.horizon(), obs);
            let scan = scan_layer_valence_connectivity(&mut full, cfg.depth, true);
            (scan, ms_since(start))
        });

        // Headline numbers as gauges so the JSON record carries the
        // full-vs-quotient comparison as stable machine-readable fields.
        obs.gauge(names::SCAN_SYM_N, cfg.n as u64);
        obs.gauge(
            names::SCAN_SYM_QUOTIENT_STATES_SEEN,
            quot.states_seen as u64,
        );
        obs.gauge(names::SCAN_SYM_QUOTIENT_WALL_NS, (quot_ms * 1e6) as u64);
        if let Some((scan, ms)) = &full {
            obs.gauge(names::SCAN_SYM_FULL_STATES_SEEN, scan.states_seen as u64);
            obs.gauge(names::SCAN_SYM_FULL_WALL_NS, (*ms * 1e6) as u64);
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
        let verdict = match (&full, parity, reduced) {
            (None, _, _) => "quotient only".to_string(),
            (Some(_), true, true) => "verdicts agree".to_string(),
            (Some(_), false, _) => "verdict DIVERGED".to_string(),
            (Some(_), _, false) => format!("reduction < {factor}x"),
        };
        let space = solver.space();
        CrossCheck {
            baseline: full.map(|(scan, ms)| ("full", scan, ms)),
            cells: [
                format!("{} orbits", space.len()),
                format!("{} covered", space.covered_states()),
                verdict,
            ],
            ok: parity && reduced,
        }
    }
}

/// Milliseconds since the monotonic timestamp `start`.
fn ms_since(start: u64) -> f64 {
    clock::monotonic_ns().saturating_sub(start) as f64 / 1e6
}

/// A resumed scan's arena, its resume-row note and the snapshot's
/// integrity hash.
type Resumed<K> = (Arena<Mobile, K>, String, String);

/// Restores the arena snapshot in `dir`, refreshing it differentially if
/// the deadline moved since the snapshot was taken.
fn resume<K: ScanKeying>(
    dir: &str,
    m: &Mobile,
    horizon: usize,
    obs: &dyn Observer,
) -> Result<Resumed<K>, String> {
    let bytes = read_snapshot(dir, K::SNAPSHOT_FILE)?;
    let (mut a, meta, hash) = load_arena::<_, K>(m, &bytes, obs).map_err(|e| e.to_string())?;
    check_resume_compat(&meta, m.num_processes(), K::LAYERING_KEY)?;
    let note = if meta.horizon == horizon as u64 {
        format!(
            "resumed: {} {}, {} edges reused",
            a.len(),
            K::UNIT,
            a.edge_count()
        )
    } else {
        let diff = a.refresh_differential(m, obs);
        format!(
            "deadline {} -> {horizon}: {} {} reused, {} recomputed",
            meta.horizon,
            diff.reused,
            K::ROWS,
            diff.recomputed
        )
    };
    Ok((a, note, hash))
}

/// The layer scan under the keying `K` (see [`layer_scan`]).
fn scan<K: ScanKeying>(
    cfg: &ScanConfig,
    trace: &dyn Observer,
) -> (Experiment, Option<Certificate>) {
    let mut certificate = None;
    let exp = crate::measured_with(K::ID, K::CLAIM, trace, |obs| {
        let horizon = cfg.effective_horizon();
        let m = MobileModel::new(cfg.n, FloodMin::new(horizon as u16)).with_layering(K::LAYERING);

        let resumed = cfg
            .resume_dir
            .as_deref()
            .map(|dir| resume::<K>(dir, &m, horizon, obs));
        let (resumed, mut resume_err) = match resumed.transpose() {
            Ok(resumed) => (resumed, None),
            Err(e) => (None, Some(e)),
        };
        let (space, resume_note, mut snapshot_hash) = match resumed {
            Some((space, note, hash)) => (space, Some(note), Some(hash)),
            None => (Arena::for_model(&m), None, None),
        };

        let start = clock::monotonic_ns();
        let mut solver = Solver::with_space(&m, horizon, space, obs);
        let scan = scan_layer_valence_connectivity(&mut solver, cfg.depth, true);
        let scan_ms = ms_since(start);

        // Snapshot the (possibly extended) arena before the certificate is
        // built, so the verdict can carry its hash.
        if let (None, Some(dir)) = (&resume_err, &cfg.snapshot_dir) {
            let meta = scan_meta(cfg, horizon, K::LAYERING_KEY);
            let (bytes, hash) = save_arena(solver.space(), &meta, obs);
            match write_snapshot(dir, K::SNAPSHOT_FILE, &bytes) {
                Ok(()) => snapshot_hash = Some(hash),
                Err(e) => resume_err = Some(e),
            }
        }
        solver.report_memory(obs);

        let check = K::cross_check(cfg, &solver, (&scan, scan_ms));
        let witness = ImpossibilityWitness::from_solver(&mut solver, cfg.depth);
        let verified = witness.as_ref().is_some_and(|w| w.verify(&m).is_ok());
        if let Some(w) = &witness {
            certificate = scan_certificate(
                &m,
                K::LAYERING_KEY,
                cfg.depth,
                horizon,
                (scan.layers_checked, scan.states_seen, scan.all_connected()),
                w,
                snapshot_hash.as_deref(),
            );
        }

        let mut table = Table::new(
            K::TITLE,
            &[
                "model",
                "n",
                K::COLUMN,
                "layers checked",
                "states seen",
                "all val-conn",
                "wall ms",
            ],
        );
        let mut row = |label: &str, cells: [String; 4]| {
            let mut row = vec![
                K::MODEL_LABEL.to_string(),
                cfg.n.to_string(),
                label.to_string(),
            ];
            row.extend(cells);
            table.row_owned(row);
        };
        let baseline = check
            .baseline
            .as_ref()
            .map(|(label, scan, ms)| (*label, scan, *ms));
        for (label, scan, ms) in baseline.into_iter().chain([(K::PATH, &scan, scan_ms)]) {
            row(
                label,
                [
                    scan.layers_checked.to_string(),
                    scan.states_seen.to_string(),
                    if scan.all_connected() { "yes" } else { "no" }.to_string(),
                    format!("{ms:.1}"),
                ],
            );
        }
        let [a, b, c] = check.cells;
        let witness = if verified {
            "witness ok"
        } else {
            "witness BAD"
        };
        row("cross-check", [a, b, c, witness.to_string()]);
        for (label, msg) in [("resume", &resume_note), ("snapshot ERROR", &resume_err)] {
            if let Some(msg) = msg {
                row(
                    label,
                    [
                        "-".to_string(),
                        "-".to_string(),
                        msg.clone(),
                        "-".to_string(),
                    ],
                );
            }
        }

        (
            table,
            scan.all_connected() && check.ok && verified && resume_err.is_none(),
        )
    });
    (exp, certificate)
}
