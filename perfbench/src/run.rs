//! The runner: set-up, the paired measurement loop, the traced run, and
//! the metrics they yield.

use std::path::PathBuf;
use std::time::Instant;

use crate::measure::{median, peak_rss_mb, process_cpu_ms, quantile, Sampler};
use crate::scan::ScanWorkload;
use crate::serve::ServeWorkload;
use crate::suite::SuiteWorkload;
use crate::trace::Tracer;

/// One op whose output checked out.
#[derive(Clone, Copy, Debug, Default)]
pub struct Timed {
    /// Wall time of the op in nanoseconds.
    pub ns: u64,
    /// The op's time in reference units.
    pub ref_units: f64,
}

/// Per-layer values of one traced op; a name a workload does not report
/// reads as 0.
pub type LayerValues = Vec<(&'static str, f64)>;

/// A benchmark workload: one closed-loop client with one op in flight.
pub trait Workload {
    /// Runs one op between reference runs and checks its output.
    ///
    /// # Errors
    ///
    /// Why the op's output is wrong; a failed op contributes no time.
    fn op(&mut self, s: &mut Sampler) -> Result<Timed, String>;

    /// Runs one op under spans (an `op` root, then a `probe` root) and
    /// returns its timing and per-layer values.
    ///
    /// # Errors
    ///
    /// As [`Workload::op`].
    fn traced_op(
        &mut self,
        s: &mut Sampler,
        t: &mut Tracer,
        op: u64,
    ) -> Result<(Timed, LayerValues), String>;
}

/// Times `f` between reference runs; the time counts only if `f` passes.
///
/// # Errors
///
/// `f`'s error.
pub fn timed_op(s: &mut Sampler, f: impl FnOnce() -> Result<(), String>) -> Result<Timed, String> {
    let (res, ns, r) = s.paired(f);
    res?;
    Ok(Timed {
        ns,
        ref_units: ns as f64 / r,
    })
}

/// Runs `f` under a root span between reference runs; returns its value,
/// its timing, and the root's index.
///
/// # Errors
///
/// `f`'s error.
pub fn traced_root<T>(
    s: &mut Sampler,
    t: &mut Tracer,
    op: u64,
    name: &'static str,
    f: impl FnOnce(&mut Tracer) -> Result<T, String>,
) -> Result<(T, Timed, usize), String> {
    let ((res, root), ns, r) = s.paired(|| t.root(name, op, f));
    t.set_root_ref(root, r);
    Ok((
        res?,
        Timed {
            ns,
            ref_units: ns as f64 / r,
        },
        root,
    ))
}

/// The reference time a timing was normalized by, in nanoseconds.
#[must_use]
pub fn ref_of(t: &Timed) -> f64 {
    t.ns as f64 / t.ref_units
}

/// The workloads, by name.
pub const WORKLOADS: &[&str] = &["scan-full", "scan-quotient", "serve", "paper-suite"];

/// Per-layer metrics (`--trace 1`): name and unit. `_ref` is self time per
/// op in reference units; counts are per op.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("sync-mobile.successors_ref", "ref"),
    ("space.expand_ref", "ref"),
    ("space.states", "count"),
    ("space.edges", "count"),
    ("space.intern_hit_ratio", "fraction"),
    ("sym.canonicalize_ref", "ref"),
    ("sym.canonicalize_calls", "count"),
    ("valence.classify_ref", "ref"),
    ("valence.states_classified", "count"),
    ("valence.memo_hit_ratio", "fraction"),
    ("connectivity.report_ref", "ref"),
    ("connectivity.pairs_tested", "count"),
    ("graph.bfs_visits", "count"),
    ("layering.scan_self_ref", "ref"),
    ("layering.layers_scanned", "count"),
    ("witness.build_ref", "ref"),
    ("witness.verify_ref", "ref"),
    ("witness.chain_len", "count"),
    ("cert.transport_ref", "ref"),
    ("cert.store_get_ref", "ref"),
    ("cert.verify_ref", "ref"),
    ("cert.encode_hash_ref", "ref"),
    ("cert.store.hits", "count"),
    ("cert.verify.ok", "count"),
    ("suite.E-3.1_ref", "ref"),
    ("suite.E-3.6_ref", "ref"),
    ("suite.E-4.2_ref", "ref"),
    ("suite.E-census_ref", "ref"),
    ("suite.E-5.2_ref", "ref"),
    ("suite.E-5.4_ref", "ref"),
    ("suite.E-5.per_ref", "ref"),
    ("suite.E-iis_ref", "ref"),
    ("suite.E-6.3_ref", "ref"),
    ("suite.E-6.1_ref", "ref"),
    ("suite.E-6.4_ref", "ref"),
    ("suite.E-early_ref", "ref"),
    ("suite.E-7.3_ref", "ref"),
    ("suite.E-7.1_ref", "ref"),
    ("suite.E-7.4_ref", "ref"),
    ("suite.E-profile_ref", "ref"),
    ("suite.E-7.cov_ref", "ref"),
    ("suite.E-7.6_ref", "ref"),
    ("suite.E-cert_ref", "ref"),
    ("host.ref_ms.p50", "ms"),
    ("proc.cpu_ms_per_op", "ms"),
    ("op_ms.p50", "ms"),
    ("op_ms.p90", "ms"),
    ("op_ref.p90", "ref"),
    ("ops.count", "count"),
    ("trace.overhead_frac", "fraction"),
    ("trace.unattributed_frac", "fraction"),
];

/// Largest share of a traced op that its child spans may leave uncovered.
pub const MAX_UNATTRIBUTED: f64 = 0.05;

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 5;

/// Ops attempted per run at the least, whatever `--seconds` says.
pub const MIN_OPS: u64 = 3;

/// One run's settings.
#[derive(Clone, Debug)]
pub struct Config {
    /// Workload name (one of [`WORKLOADS`]).
    pub workload: String,
    /// Seed for route and experiment orders.
    pub seed: u64,
    /// Measurement time in seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the gated one.
    pub trace: bool,
    /// Directory for the serve workload's stores and the span files.
    pub work_dir: PathBuf,
}

/// Builds a workload from scratch; `slot` keeps repeated set-ups apart.
///
/// # Errors
///
/// Unknown workload, or a serve set-up that failed.
pub fn build(cfg: &Config, slot: usize) -> Result<Box<dyn Workload>, String> {
    Ok(match cfg.workload.as_str() {
        "scan-full" => Box::new(ScanWorkload::full()),
        "scan-quotient" => Box::new(ScanWorkload::quotient()),
        "serve" => Box::new(ServeWorkload::start(
            &cfg.work_dir.join(format!("serve-store-{slot}")),
            cfg.seed,
        )?),
        "paper-suite" => Box::new(SuiteWorkload::new(cfg.seed)),
        other => return Err(format!("unknown workload `{other}`")),
    })
}

/// What the measurement loop saw.
#[derive(Default)]
pub struct Measurement {
    /// Untraced ops that passed.
    pub untraced: Vec<Timed>,
    /// Traced ops that passed.
    pub traced: Vec<Timed>,
    /// Per-layer values of each traced op that passed.
    pub layers: Vec<LayerValues>,
    /// Ops attempted.
    pub attempted: u64,
    /// Ops whose output was wrong (never timed).
    pub failed: u64,
    /// The first failure's reason.
    pub first_error: Option<String>,
}

/// The closed loop: runs ops for `seconds` (and at least `min_ops`); with
/// a tracer, every second op is traced.
pub fn measure(
    w: &mut dyn Workload,
    s: &mut Sampler,
    seconds: f64,
    min_ops: u64,
    mut tracer: Option<&mut Tracer>,
) -> Measurement {
    let mut m = Measurement::default();
    let start = Instant::now();
    while m.attempted < min_ops || start.elapsed().as_secs_f64() < seconds {
        m.attempted += 1;
        let res = match tracer.as_deref_mut() {
            Some(t) if m.attempted % 2 == 0 => {
                w.traced_op(s, t, m.attempted).map(|(timed, layer)| {
                    m.traced.push(timed);
                    m.layers.push(layer);
                })
            }
            _ => w.op(s).map(|timed| m.untraced.push(timed)),
        };
        if let Err(e) = res {
            m.failed += 1;
            m.first_error.get_or_insert(e);
        }
    }
    m
}

/// One run's result.
pub struct Outcome {
    /// Every op passed and every metric was measured.
    pub correct: bool,
    /// Ops attempted.
    pub attempted: u64,
    /// Ops failed.
    pub failed: u64,
    /// Metrics: name, unit, value.
    pub metrics: Vec<(&'static str, &'static str, f64)>,
    /// Human-readable notes (first failure, fail rate).
    pub notes: Vec<String>,
    /// The traced run's spans.
    pub tracer: Option<Tracer>,
}

/// The reference time of the nominal host `setup_s` is expressed on.
pub const NOMINAL_REF_NS: f64 = 5e6;

/// Set-up, repeated [`SETUPS`] times from scratch (sampler, workload, one
/// warm-up op); returns the last workload and sampler, and the median
/// set-up time. The first set-up is timed from `process_start`.
///
/// Each set-up's wall time is scaled by [`NOMINAL_REF_NS`] over the median
/// reference time measured during it: seconds on a host of fixed speed.
/// Raw set-up wall time drifted by a third over a quarter of an hour on a
/// shared host while the reference-normalized op times held steady.
fn set_up(
    cfg: &Config,
    process_start: Instant,
) -> Result<(Box<dyn Workload>, Sampler, f64), String> {
    let mut times = Vec::with_capacity(SETUPS);
    let mut last = None;
    for slot in 0..SETUPS {
        let t0 = if slot == 0 {
            process_start
        } else {
            Instant::now()
        };
        let mut sampler = Sampler::start();
        let mut w = build(cfg, slot)?;
        w.op(&mut sampler)
            .map_err(|e| format!("warm-up op failed: {e}"))?;
        let wall_s = t0.elapsed().as_secs_f64();
        let refs: Vec<f64> = sampler.refs().iter().map(|&ns| ns as f64).collect();
        times.push(wall_s * NOMINAL_REF_NS / median(&refs));
        last = Some((w, sampler));
    }
    let (w, s) = last.expect("SETUPS > 0");
    Ok((w, s, median(&times)))
}

/// Runs one workload: set-up, then the measurement loop, then metrics.
#[must_use]
pub fn run(cfg: &Config, process_start: Instant) -> Outcome {
    let (mut w, mut s, setup_s) = match set_up(cfg, process_start) {
        Ok(v) => v,
        Err(e) => {
            return Outcome {
                correct: false,
                attempted: 1,
                failed: 1,
                metrics: Vec::new(),
                notes: vec![format!("set-up failed: {e}")],
                tracer: None,
            }
        }
    };
    let mut tracer = cfg.trace.then(Tracer::new);
    let refs_before = s.refs().len();
    let cpu_before = process_cpu_ms();
    let m = measure(w.as_mut(), &mut s, cfg.seconds, MIN_OPS, tracer.as_mut());
    let cpu_ms = process_cpu_ms()
        .zip(cpu_before)
        .map_or(f64::NAN, |(a, b)| a - b);

    let ratios: Vec<f64> = m.untraced.iter().map(|t| t.ref_units).collect();
    let metrics: Vec<(&'static str, &'static str, f64)> = if cfg.trace {
        let op_ms: Vec<f64> = m.untraced.iter().map(|t| t.ns as f64 / 1e6).collect();
        let ref_ms: Vec<f64> = s.refs()[refs_before..]
            .iter()
            .map(|&ns| ns as f64 / 1e6)
            .collect();
        let traced: Vec<f64> = m.traced.iter().map(|t| t.ref_units).collect();
        PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let value = match name {
                    "host.ref_ms.p50" => median(&ref_ms),
                    "proc.cpu_ms_per_op" => cpu_ms / m.attempted as f64,
                    "op_ms.p50" => quantile(&op_ms, 0.5),
                    "op_ms.p90" => quantile(&op_ms, 0.9),
                    "op_ref.p90" => quantile(&ratios, 0.9),
                    "ops.count" => m.untraced.len() as f64,
                    "trace.overhead_frac" => median(&traced) / median(&ratios) - 1.0,
                    "trace.unattributed_frac" => layer_values(&m.layers, name)
                        .into_iter()
                        .fold(f64::NAN, f64::max),
                    _ => median(&layer_values(&m.layers, name)),
                };
                (name, unit, value)
            })
            .collect()
    } else {
        vec![
            ("op_ref.p50", "ref", median(&ratios)),
            ("setup_s", "s", setup_s),
            ("peak_rss_mb", "MB", peak_rss_mb().unwrap_or(f64::NAN)),
        ]
    };

    let mut notes = vec![format!(
        "fail_rate = {} fraction ({} of {} ops failed)",
        m.failed as f64 / m.attempted as f64,
        m.failed,
        m.attempted
    )];
    if let Some(e) = &m.first_error {
        notes.push(format!("first failure: {e}"));
    }
    let mut correct = m.failed == 0 && metrics.iter().all(|(_, _, v)| v.is_finite());
    if let Some(t) = &tracer {
        if let Err(e) = t.check_nesting() {
            notes.push(format!("trace: {e}"));
            correct = false;
        }
    }
    Outcome {
        correct,
        attempted: m.attempted,
        failed: m.failed,
        metrics,
        notes,
        tracer,
    }
}

/// The values one per-layer metric took over the traced ops (0 where an
/// op did not report it).
fn layer_values(layers: &[LayerValues], name: &str) -> Vec<f64> {
    layers
        .iter()
        .map(|l| l.iter().find(|(n, _)| *n == name).map_or(0.0, |(_, v)| *v))
        .collect()
}
