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
//! 3. **Interned twin** — the plain (non-quotient) arena runs the same
//!    round-trip and extend steps (one `round_trip`, generic over the
//!    arena keying).
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
use layered_core::telemetry::{clock, Observer};
use layered_core::{
    load_arena, save_arena, scan_layer_valence_connectivity,
    scan_layer_valence_connectivity_parallel, ArenaMeta, Keying, Orbits, Plain, QuotientSolver,
    Solver,
};
use layered_protocols::FloodMin;
use layered_sync_mobile::{MobileLayering, MobileModel, MODEL_KEY};

use crate::experiments::scaling::ScanConfig;
use crate::Experiment;

/// Renders a pass/fail cell.
fn verdict(ok: bool) -> String {
    if ok { "yes" } else { "NO" }.to_string()
}

/// What one keying's round trip found (see [`round_trip`]).
struct RoundTrip {
    /// The snapshot of the cold scan's arena.
    bytes: Vec<u8>,
    /// Wall time of the cold scan at `cfg.depth`, in nanoseconds.
    cold_ns: u64,
    /// Wall time of the reload and warm scan at `cfg.depth`.
    warm_ns: u64,
    /// Whether the warm scan equals the cold one.
    warm_identical: bool,
    /// Whether the resumed scans one layer deeper, sequential and
    /// parallel, equal cold scans there, which equal each other.
    extend_identical: bool,
    /// States the cold scan one layer deeper saw.
    deep_states_seen: usize,
}

/// Under the keying `K`: a cold scan at `cfg.depth`, its snapshot, a warm
/// scan over the reloaded arena, then cold and resumed scans one layer
/// deeper, each sequential and parallel.
fn round_trip<K: Keying<MobileModel<FloodMin>>>(
    cfg: &ScanConfig,
    m: &MobileModel<FloodMin>,
    horizon: usize,
    layering: &str,
    obs: &dyn Observer,
) -> RoundTrip {
    let deeper = cfg.depth + 1;
    let fresh = || Solver::<_, K>::with_observer(m, horizon, obs);

    let t0 = clock::monotonic_ns();
    let mut cold = fresh();
    let cold_scan = scan_layer_valence_connectivity(&mut cold, cfg.depth, true);
    let cold_ns = clock::monotonic_ns().saturating_sub(t0).max(1);
    // Provenance stamped on the in-memory snapshot.
    let meta = ArenaMeta {
        model: MODEL_KEY.to_string(),
        protocol: "floodmin".to_string(),
        n: cfg.n as u64,
        horizon: horizon as u64,
        depth: cfg.depth as u64,
        layering: layering.to_string(),
    };
    let (bytes, _) = save_arena(cold.space(), &meta, obs);
    let reload = || {
        load_arena::<_, K>(m, &bytes, obs)
            .ok()
            .map(|(space, _, _)| Solver::with_space(m, horizon, space, obs))
    };

    let t0 = clock::monotonic_ns();
    let warm = reload().map(|mut s| scan_layer_valence_connectivity(&mut s, cfg.depth, true));
    let warm_ns = clock::monotonic_ns().saturating_sub(t0).max(1);

    let cold_seq = scan_layer_valence_connectivity(&mut fresh(), deeper, true);
    let cold_par =
        scan_layer_valence_connectivity_parallel(&mut fresh(), deeper, true, cfg.threads);
    let seq = reload().map(|mut s| scan_layer_valence_connectivity(&mut s, deeper, true));
    let par = reload()
        .map(|mut s| scan_layer_valence_connectivity_parallel(&mut s, deeper, true, cfg.threads));
    RoundTrip {
        bytes,
        cold_ns,
        warm_ns,
        warm_identical: warm.as_ref() == Some(&cold_scan),
        extend_identical: cold_seq == cold_par
            && seq.as_ref() == Some(&cold_seq)
            && par.as_ref() == Some(&cold_par),
        deep_states_seen: cold_seq.states_seen,
    }
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
            let mi = MobileModel::new(cfg.n, FloodMin::new(horizon as u16));
            let m = mi.clone().with_layering(MobileLayering::Full);

            // 1-3. The quotient pipeline: cold scan and snapshot, warm
            // reload at the same depth (identical verdict, >=5x faster:
            // every successor row comes from the snapshot), and
            // resume-and-extend, sequential and parallel.
            let quot = round_trip::<Orbits>(&cfg, &m, horizon, "full", obs);
            let speedup_x1000 = quot.cold_ns.saturating_mul(1000) / quot.warm_ns;
            obs.gauge("scan.sym.n", cfg.n as u64);
            obs.gauge("scan.resume.cold_wall_ns", quot.cold_ns);
            obs.gauge("scan.resume.warm_wall_ns", quot.warm_ns);
            obs.gauge("scan.resume.speedup_x1000", speedup_x1000);
            table.row_owned(vec![
                "quotient".to_string(),
                format!("warm reload @ depth {depth0}"),
                format!("speedup x1000 = {speedup_x1000}"),
                verdict(quot.warm_identical),
            ]);
            table.row_owned(vec![
                "quotient".to_string(),
                format!("extend to depth {deeper} (seq + par)"),
                format!("{} states seen", quot.deep_states_seen),
                verdict(quot.extend_identical),
            ]);

            // 4. The interned (non-quotient) pipeline: round-trip and
            // extend through the plain arena.
            let interned = round_trip::<Plain>(&cfg, &mi, horizon, "s1", obs);
            let interned_identical = interned.warm_identical && interned.extend_identical;
            table.row_owned(vec![
                "interned".to_string(),
                format!("reload @ {depth0}, extend to {deeper} (seq + par)"),
                format!("{} states seen", interned.deep_states_seen),
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
                load_arena::<_, Orbits>(&m2, &quot.bytes, obs)
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
                quot.warm_identical
                    && speedup_x1000 >= 5_000
                    && quot.extend_identical
                    && interned_identical
                    && diff_identical
                    && diff_partial,
            )
        },
    )
}
