//! Round-trip experiment for the persistent arenas: snapshot, resume,
//! extend, and differentially re-verify — all in memory.
//!
//! This is the acceptance experiment for the snapshot subsystem. Four
//! properties are checked on one FloodMin instance of the mobile model:
//!
//! 1. **Warm reload** — a scan over a reloaded arena is bit-identical to
//!    the cold scan that produced the snapshot, and at least 5× faster
//!    (the arena's successor cache replaces all model and
//!    canonicalization work).
//! 2. **Resume-and-extend** — deepening the scan by one layer over the
//!    reloaded arena matches a cold scan at the deeper depth, on both the
//!    sequential and the parallel expansion path (the seq ≡ par contract
//!    survives save/load).
//! 3. **Interned twin** — the plain (non-quotient) arena round-trips and
//!    extends the same way.
//! 4. **Differential refresh** — after a *protocol change* (the FloodMin
//!    deadline moves by one round), reloading the stale snapshot and
//!    refreshing it re-expands only the arena rows whose raw successor
//!    sets actually moved, and the scan over the refreshed arena matches
//!    a cold scan under the changed protocol.
//!
//! The deadline change is the canonical differential case: rows more than
//! one round below the old deadline keep their successor sets (the
//! protocol behaves identically far from the deadline), while rows
//! adjacent to it change — so the refresh must both reuse *and* recompute
//! something for the experiment to pass.

use layered_core::report::Table;
use layered_core::telemetry::clock;
use layered_core::{
    load_arena, save_arena, scan_layer_valence_connectivity,
    scan_layer_valence_connectivity_parallel, ArenaMeta, Orbits, Plain, QuotientSolver,
    ValenceSolver,
};
use layered_protocols::FloodMin;
use layered_sync_mobile::{MobileLayering, MobileModel, MODEL_KEY};

use crate::experiments::scaling::ScanConfig;
use crate::Experiment;

/// Provenance stamped on the in-memory snapshots the experiment writes.
fn meta(cfg: &ScanConfig, horizon: usize, depth: usize, layering: &str) -> ArenaMeta {
    ArenaMeta {
        model: MODEL_KEY.to_string(),
        protocol: "floodmin".to_string(),
        n: cfg.n as u64,
        horizon: horizon as u64,
        depth: depth as u64,
        layering: layering.to_string(),
    }
}

/// Renders a pass/fail cell.
fn verdict(ok: bool) -> String {
    if ok { "yes" } else { "NO" }.to_string()
}

/// Runs the snapshot round-trip acceptance experiment (see the module
/// docs). `cfg.n` and `cfg.depth` choose the instance; the valence
/// horizon is pinned to `depth + 2` so the extension step can deepen the
/// scan without moving the FloodMin deadline.
#[must_use]
pub fn resume_roundtrip(cfg: &ScanConfig) -> Experiment {
    let cfg = cfg.clone();
    crate::measured(
        "E-resume",
        "Persistent arenas: resumed scans are bit-identical to cold scans",
        move |obs| {
            let mut table = Table::new(
                "Snapshot round-trip — cold vs. resumed scans",
                &["pipeline", "case", "outcome", "identical"],
            );
            let depth0 = cfg.depth;
            let deeper = depth0 + 1;
            // Room to deepen by one layer with the deadline fixed.
            let horizon = depth0 + 2;
            let m = MobileModel::new(cfg.n, FloodMin::new(horizon as u16))
                .with_layering(MobileLayering::Full);

            // 1. Cold quotient scan; snapshot the arena.
            let t0 = clock::monotonic_ns();
            let mut cold = QuotientSolver::with_observer(&m, horizon, obs);
            let cold_scan = scan_layer_valence_connectivity(&mut cold, depth0, true);
            let cold_ns = clock::monotonic_ns().saturating_sub(t0).max(1);
            let (qbytes, _) = save_arena(cold.space(), &meta(&cfg, horizon, depth0, "full"), obs);

            // 2. Warm reload at the same depth: identical verdict, ≥5×
            // faster (every successor row comes from the snapshot).
            let t0 = clock::monotonic_ns();
            let warm_scan = load_arena::<_, Orbits>(&m, &qbytes, obs)
                .ok()
                .map(|(space, _, _)| {
                    let mut warm = QuotientSolver::with_space(&m, horizon, space, obs);
                    scan_layer_valence_connectivity(&mut warm, depth0, true)
                });
            let warm_ns = clock::monotonic_ns().saturating_sub(t0).max(1);
            let warm_identical = warm_scan.as_ref() == Some(&cold_scan);
            let speedup_x1000 = cold_ns.saturating_mul(1000) / warm_ns;
            obs.gauge("scan.sym.n", cfg.n as u64);
            obs.gauge("scan.resume.cold_wall_ns", cold_ns);
            obs.gauge("scan.resume.warm_wall_ns", warm_ns);
            obs.gauge("scan.resume.speedup_x1000", speedup_x1000);
            let fast_enough = speedup_x1000 >= 5_000;
            table.row_owned(vec![
                "quotient".to_string(),
                format!("warm reload @ depth {depth0}"),
                format!("speedup x1000 = {speedup_x1000}"),
                verdict(warm_identical),
            ]);

            // 3. Resume-and-extend, sequential and parallel, vs. cold
            // scans at the deeper depth.
            let mut cs = QuotientSolver::with_observer(&m, horizon, obs);
            let cold_deep_seq = scan_layer_valence_connectivity(&mut cs, deeper, true);
            let mut cp = QuotientSolver::with_observer(&m, horizon, obs);
            let cold_deep_par =
                scan_layer_valence_connectivity_parallel(&mut cp, deeper, true, cfg.threads);
            let resumed_seq =
                load_arena::<_, Orbits>(&m, &qbytes, obs)
                    .ok()
                    .map(|(space, _, _)| {
                        let mut s = QuotientSolver::with_space(&m, horizon, space, obs);
                        scan_layer_valence_connectivity(&mut s, deeper, true)
                    });
            let resumed_par =
                load_arena::<_, Orbits>(&m, &qbytes, obs)
                    .ok()
                    .map(|(space, _, _)| {
                        let mut s = QuotientSolver::with_space(&m, horizon, space, obs);
                        scan_layer_valence_connectivity_parallel(&mut s, deeper, true, cfg.threads)
                    });
            let extend_identical = cold_deep_seq == cold_deep_par
                && resumed_seq.as_ref() == Some(&cold_deep_seq)
                && resumed_par.as_ref() == Some(&cold_deep_par);
            table.row_owned(vec![
                "quotient".to_string(),
                format!("extend to depth {deeper} (seq + par)"),
                format!("{} states seen", cold_deep_seq.states_seen),
                verdict(extend_identical),
            ]);

            // 4. The interned (non-quotient) pipeline: round-trip and
            // extend through the plain arena.
            let mi = MobileModel::new(cfg.n, FloodMin::new(horizon as u16));
            let mut icold = ValenceSolver::with_observer(&mi, horizon, obs);
            let icold_scan = scan_layer_valence_connectivity(&mut icold, depth0, true);
            let (ibytes, _) = save_arena(icold.space(), &meta(&cfg, horizon, depth0, "s1"), obs);
            let mut ideep = ValenceSolver::with_observer(&mi, horizon, obs);
            let icold_deep_seq = scan_layer_valence_connectivity(&mut ideep, deeper, true);
            let mut ideep_par = ValenceSolver::with_observer(&mi, horizon, obs);
            let icold_deep_par =
                scan_layer_valence_connectivity_parallel(&mut ideep_par, deeper, true, cfg.threads);
            let iwarm = load_arena::<_, Plain>(&mi, &ibytes, obs)
                .ok()
                .map(|(space, _, _)| {
                    let mut s = ValenceSolver::with_space(&mi, horizon, space, obs);
                    scan_layer_valence_connectivity(&mut s, depth0, true)
                });
            let iresumed = load_arena::<_, Plain>(&mi, &ibytes, obs)
                .ok()
                .map(|(space, _, _)| {
                    let mut s = ValenceSolver::with_space(&mi, horizon, space, obs);
                    scan_layer_valence_connectivity(&mut s, deeper, true)
                });
            let iresumed_par =
                load_arena::<_, Plain>(&mi, &ibytes, obs)
                    .ok()
                    .map(|(space, _, _)| {
                        let mut s = ValenceSolver::with_space(&mi, horizon, space, obs);
                        scan_layer_valence_connectivity_parallel(&mut s, deeper, true, cfg.threads)
                    });
            let interned_identical = iwarm.as_ref() == Some(&icold_scan)
                && icold_deep_seq == icold_deep_par
                && iresumed.as_ref() == Some(&icold_deep_seq)
                && iresumed_par.as_ref() == Some(&icold_deep_par);
            table.row_owned(vec![
                "interned".to_string(),
                format!("reload @ {depth0}, extend to {deeper} (seq + par)"),
                format!("{} states seen", icold_deep_seq.states_seen),
                verdict(interned_identical),
            ]);

            // 5. Differential refresh after a protocol change: the
            // FloodMin deadline moves one round later, the stale quotient
            // snapshot is refreshed, and the scan over it must match a
            // cold scan under the changed protocol — with the refresh
            // both reusing and recomputing rows.
            let h2 = horizon + 1;
            let m2 = MobileModel::new(cfg.n, FloodMin::new(h2 as u16))
                .with_layering(MobileLayering::Full);
            let mut cold2 = QuotientSolver::with_observer(&m2, h2, obs);
            let cold2_scan = scan_layer_valence_connectivity(&mut cold2, depth0, true);
            let refreshed =
                load_arena::<_, Orbits>(&m2, &qbytes, obs)
                    .ok()
                    .map(|(mut space, _, _)| {
                        let diff = space.refresh_differential(&m2, obs);
                        let mut s = QuotientSolver::with_space(&m2, h2, space, obs);
                        (scan_layer_valence_connectivity(&mut s, depth0, true), diff)
                    });
            let (diff_identical, diff_partial, diff_label) = match &refreshed {
                Some((scan, diff)) => (
                    *scan == cold2_scan,
                    diff.reused > 0 && diff.recomputed > 0,
                    format!("{} reused, {} recomputed", diff.reused, diff.recomputed),
                ),
                None => (false, false, "reload FAILED".to_string()),
            };
            table.row_owned(vec![
                "quotient".to_string(),
                format!("deadline {horizon} -> {h2}, differential refresh"),
                diff_label,
                verdict(diff_identical && diff_partial),
            ]);

            (
                table,
                warm_identical
                    && fast_enough
                    && extend_identical
                    && interned_identical
                    && diff_identical
                    && diff_partial,
            )
        },
    )
}
