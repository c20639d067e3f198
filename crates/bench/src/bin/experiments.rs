//! Runs every experiment and prints its paper-vs-measured table.
//!
//! Usage:
//!
//! ```text
//! experiments [quick] [--json <path>] [--metrics] [--store <dir>]
//! experiments --sim [--seed <u64>] [--runs <k>] [--n <k>] [--horizon <k>]
//!             [--adversary <name>] [--json <path>] [--metrics] [--store <dir>]
//! experiments --scan [--quotient] [--n <k>] [--depth <k>] [--horizon <k>]
//!             [--snapshot <dir>] [--resume <dir>] [--json <path>]
//!             [--metrics] [--trace <path>] [--profile] [--heartbeat-ms <k>]
//!             [--store <dir>]
//! ```
//!
//! Arguments of one mode are rejected in the others (exit 2 with the
//! usage text) rather than ignored.
//!
//! * `quick` — small CI-friendly instances (default: the full sizes).
//! * `--json <path>` — additionally write one JSON record per experiment
//!   (or, under `--sim`, per simulated run) to `<path>`, one object per
//!   line (the machine-readable twin of every table).
//! * `--metrics` — print the engine counters after each table.
//! * `--sim` — instead of the exhaustive experiments, run seeded
//!   adversary-scheduler simulations in all four model families
//!   (`--seed`/`--runs`/`--n`/`--horizon` control the batch; `--adversary`
//!   is one of `random`, `round-robin`, `roamer`, `dropper`).
//! * `--scan` — run only the interned layer-scan scaling experiment: one
//!   Lemma 5.1 instance (default n = 4) scanned over the interned arena,
//!   its witness re-verified (`--n`/`--depth` control the instance).
//! * `--scan --quotient` — the symmetry-reduced variant: the same Lemma
//!   5.1 instance over canonical orbits, cross-checked against the full
//!   space when n ≤ 5 and quotient-only beyond (the reduction plus packed
//!   arenas are what make n = 6 reachable).
//! * `--snapshot <dir>` — (scan mode) after the scan, write the explored
//!   arena into `<dir>` as a versioned, SHA-256-sealed snapshot
//!   (`arena-state.bin`, or `arena-quotient.bin` under `--quotient`).
//! * `--resume <dir>` — (scan mode) load the arena snapshot from `<dir>`
//!   instead of re-expanding from scratch, then run the scan over it —
//!   possibly extended to a larger `--depth`. Resumed scans are
//!   bit-identical to cold ones; if the snapshot was taken under a
//!   different `--horizon` (a FloodMin deadline change), only the arena
//!   rows whose raw successor sets actually moved are re-expanded.
//! * `--horizon <k>` — (scan mode) fix the valence horizon / FloodMin
//!   deadline independently of `--depth` (default `depth + 1`); this is
//!   what keeps the *model* unchanged when a resumed scan deepens the
//!   scan depth. The scan's horizon must lie in `1..=MAX_HORIZON` and
//!   `--depth` in `0..=MAX_HORIZON` (`layered_core::MAX_HORIZON`, 1024: the
//!   valence recursion nests one call per round). (In `--sim` mode: layers
//!   per simulated run.)
//! * `--trace <path>` — (scan mode) record the hierarchical span tree and
//!   write it as Chrome trace-event JSON, loadable in `chrome://tracing`
//!   or [Perfetto](https://ui.perfetto.dev).
//! * `--profile` — (scan mode) print the self-time profile derived from
//!   the same span tree.
//! * `--heartbeat-ms <k>` — progress-event cadence during layer expansion
//!   (default 1000 ms).
//! * `--store <dir>` — persist every certificate the run produces into the
//!   content-addressed store at `<dir>` (created if absent; puts are
//!   deduplicated by hash). In `--scan` mode that is the scan-verdict
//!   certificate; in `--sim` mode the shrunk-schedule certificates of every
//!   violating run; in the default mode one certificate per registry claim
//!   at small n. Serve the directory with `cert-serve --store <dir>`.

use std::io::Write;

use layered_bench::{
    all_experiments, known_adversary, layer_scan, sim_batch, ScanConfig, Scope, SimBatchConfig,
};
use layered_cert::{registry, CertStore, Certificate};
use layered_core::sym::MAX_ENUMERATED_N;
use layered_core::telemetry::profile::{profile, profile_table};
use layered_core::telemetry::{set_heartbeat_period_ns, Observer, TraceObserver, NOOP};
use layered_core::MAX_HORIZON;

/// The default mode, as error messages name it.
const SUITE: &str = "the experiment suite";

/// Arguments that apply in some modes only, with those modes: [`SUITE`],
/// `--sim` or `--scan`. Any other mode rejects them.
const MODE_SCOPED: &[(&str, &[&str])] = &[
    ("quick", &[SUITE]),
    ("full", &[SUITE]),
    ("--seed", &["--sim"]),
    ("--runs", &["--sim"]),
    ("--adversary", &["--sim"]),
    ("--quotient", &["--scan"]),
    ("--depth", &["--scan"]),
    ("--snapshot", &["--scan"]),
    ("--resume", &["--scan"]),
    ("--trace", &["--scan"]),
    ("--profile", &["--scan"]),
    ("--n", &["--sim", "--scan"]),
    ("--horizon", &["--sim", "--scan"]),
];

struct Options {
    scope: Scope,
    json_path: Option<String>,
    metrics: bool,
    sim: Option<SimBatchConfig>,
    scan: Option<ScanConfig>,
    trace_path: Option<String>,
    profile: bool,
    store_path: Option<String>,
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        scope: Scope::Full,
        json_path: None,
        metrics: false,
        sim: None,
        scan: None,
        trace_path: None,
        profile: false,
        store_path: None,
    };
    let mut sim_cfg = SimBatchConfig::default();
    let mut sim_requested = false;
    let mut scan_cfg = ScanConfig::default();
    let mut scan_requested = false;
    let mut scoped: Vec<(&str, &[&str])> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        scoped.extend(MODE_SCOPED.iter().find(|(flag, _)| *flag == arg));
        let mut numeric = |flag: &str| -> Result<u64, String> {
            args.next()
                .ok_or(format!("{flag} requires a value"))?
                .parse::<u64>()
                .map_err(|e| format!("{flag}: {e}"))
        };
        match arg.as_str() {
            "quick" => opts.scope = Scope::Quick,
            "full" => opts.scope = Scope::Full,
            "--sim" => sim_requested = true,
            "--scan" => scan_requested = true,
            "--quotient" => scan_cfg.quotient = true,
            "--seed" => sim_cfg.seed = numeric("--seed")?,
            "--runs" => sim_cfg.runs = numeric("--runs")? as usize,
            "--n" => {
                let n = numeric("--n")? as usize;
                sim_cfg.n = n;
                scan_cfg.n = n;
            }
            "--depth" => scan_cfg.depth = numeric("--depth")? as usize,
            "--horizon" => {
                let h = numeric("--horizon")? as usize;
                sim_cfg.horizon = h;
                scan_cfg.horizon = Some(h);
            }
            "--snapshot" => {
                scan_cfg.snapshot_dir = Some(args.next().ok_or("--snapshot requires a directory")?);
            }
            "--resume" => {
                scan_cfg.resume_dir = Some(args.next().ok_or("--resume requires a directory")?);
            }
            "--adversary" => {
                let name = args.next().ok_or("--adversary requires a name")?;
                if !known_adversary(&name) {
                    return Err(format!(
                        "unknown adversary `{name}` (expected random, round-robin, roamer or dropper)"
                    ));
                }
                sim_cfg.adversary = name;
            }
            "--json" => {
                opts.json_path = Some(args.next().ok_or("--json requires a path argument")?);
            }
            "--store" => {
                opts.store_path = Some(args.next().ok_or("--store requires a directory")?);
            }
            "--trace" => {
                opts.trace_path = Some(args.next().ok_or("--trace requires a path argument")?);
            }
            "--profile" => opts.profile = true,
            "--heartbeat-ms" => set_heartbeat_period_ns(
                numeric("--heartbeat-ms")?
                    .checked_mul(1_000_000)
                    .ok_or("--heartbeat-ms is too large (the period overflows u64 nanoseconds)")?,
            ),
            "--metrics" => opts.metrics = true,
            other => return Err(format!("unrecognized argument `{other}`")),
        }
    }
    if sim_requested && scan_requested {
        return Err("--sim and --scan are mutually exclusive".to_string());
    }
    let mode = match (sim_requested, scan_requested) {
        (true, _) => "--sim",
        (_, true) => "--scan",
        _ => SUITE,
    };
    if let Some((flag, modes)) = scoped.into_iter().find(|(_, modes)| !modes.contains(&mode)) {
        return Err(format!("{flag} only applies to {}", modes.join(" and ")));
    }
    if sim_requested {
        if sim_cfg.n < 3 {
            return Err(
                "--n must be at least 3 (the crash model needs 1 <= t <= n - 2)".to_string(),
            );
        }
        if sim_cfg.runs == 0 || sim_cfg.horizon == 0 {
            return Err("--runs and --horizon must be positive".to_string());
        }
        opts.sim = Some(sim_cfg);
    }
    if scan_requested {
        if scan_cfg.depth > MAX_HORIZON {
            return Err(format!(
                "--depth must lie in 0..={MAX_HORIZON} (the valence recursion nests one call per round)"
            ));
        }
        let horizon = scan_cfg.horizon.unwrap_or(scan_cfg.depth + 1);
        if !(1..=MAX_HORIZON).contains(&horizon) {
            return Err(format!(
                "the scan horizon (--horizon, default --depth + 1) must lie in 1..={MAX_HORIZON} (the valence recursion nests one call per round)"
            ));
        }
        if scan_cfg.n < 2 {
            return Err("--n must be at least 2 for the layer scan".to_string());
        }
        if scan_cfg.quotient && scan_cfg.n > MAX_ENUMERATED_N {
            return Err(format!(
                "--quotient supports --n up to {MAX_ENUMERATED_N} (canonicalization enumerates all n! renamings)"
            ));
        }
        opts.scan = Some(scan_cfg);
    }
    Ok(opts)
}

fn write_json_lines(path: &str, lines: &[String]) {
    match std::fs::File::create(path) {
        Ok(file) => {
            let mut out = std::io::BufWriter::new(file);
            for line in lines {
                if let Err(e) = writeln!(out, "{line}") {
                    eprintln!("error: writing {path}: {e}");
                    std::process::exit(2);
                }
            }
            if let Err(e) = out.flush() {
                eprintln!("error: flushing {path}: {e}");
                std::process::exit(2);
            }
            println!("Wrote {} JSON records to {path}.", lines.len());
        }
        Err(e) => {
            eprintln!("error: creating {path}: {e}");
            std::process::exit(2);
        }
    }
}

/// Persists `certs` into the content-addressed store at `path`, reporting
/// how many were fresh vs. already present. Store I/O errors are fatal
/// (exit 2), like any other output-path failure.
fn store_certificates(path: &str, certs: &[Certificate]) {
    let mut store = match CertStore::open(std::path::Path::new(path)) {
        Ok(store) => store,
        Err(e) => {
            eprintln!("error: opening store {path}: {e}");
            std::process::exit(2);
        }
    };
    let mut fresh = 0usize;
    for cert in certs {
        match store.put(cert, &NOOP) {
            Ok((_, true)) => fresh += 1,
            Ok((_, false)) => {}
            Err(e) => {
                eprintln!("error: storing certificate in {path}: {e}");
                std::process::exit(2);
            }
        }
    }
    println!(
        "Stored {} certificate(s) in {path} ({fresh} new, {} already present).",
        certs.len(),
        certs.len() - fresh
    );
}

fn run_simulations(cfg: &SimBatchConfig, opts: &Options) {
    println!("Layered analysis of consensus — adversary-scheduler simulation\n");
    let batch = sim_batch(cfg);
    println!("{}", batch.table);
    println!(
        "  {} runs, {} layers executed, {} faults injected",
        batch.metrics.counter("sim.runs"),
        batch.metrics.counter("sim.steps"),
        batch.faults
    );
    if opts.metrics {
        for (name, total) in &batch.metrics.counters {
            println!("  {name}: {total}");
        }
    }
    println!();
    if let Some(path) = &opts.json_path {
        let lines: Vec<String> = batch.records.iter().map(ToString::to_string).collect();
        write_json_lines(path, &lines);
    }
    if let Some(path) = &opts.store_path {
        store_certificates(path, &batch.certificates);
    }
    println!("Replay any run with its recorded seed: outcomes above are a pure function of (seed, run index).");
    if !batch.verified {
        println!("Shrunk-schedule verification FAILED: a minimized schedule no longer replays to its recorded outcome.");
        std::process::exit(1);
    }
}

fn run_scan(cfg: &ScanConfig, opts: &Options) {
    if cfg.quotient {
        println!("Layered analysis of consensus — symmetry-reduced layer-scan check\n");
    } else {
        println!("Layered analysis of consensus — interned layer-scan scaling check\n");
    }
    let tracing = opts.trace_path.is_some() || opts.profile;
    let tracer = TraceObserver::new();
    let extra: &dyn Observer = if tracing { &tracer } else { &NOOP };
    let (exp, certificate) = layer_scan(cfg, extra);
    println!("[{}] {}", exp.id, exp.claim);
    println!("{}", exp.table);
    if opts.metrics {
        println!("  wall time: {:.3} ms", exp.wall_nanos() as f64 / 1e6);
        for (name, total) in &exp.metrics.counters {
            println!("  {name}: {total}");
        }
        for (name, g) in &exp.metrics.gauges {
            println!("  {name}: last {} / max {}", g.last, g.max);
        }
    }
    if let Some(path) = &opts.json_path {
        write_json_lines(path, &[exp.json_record().to_string()]);
    }
    if let Some(path) = &opts.trace_path {
        match std::fs::write(path, tracer.to_chrome_trace().to_string()) {
            Ok(()) => println!(
                "Wrote {} span(s) of Chrome trace-event JSON to {path} (open in chrome://tracing or ui.perfetto.dev).",
                tracer.spans().len()
            ),
            Err(e) => {
                eprintln!("error: writing {path}: {e}");
                std::process::exit(2);
            }
        }
    }
    if opts.profile {
        println!("{}", profile_table(&profile(&tracer.spans())));
    }
    if tracing && tracer.dropped() > 0 {
        println!(
            "  (trace ring overflowed: {} span record(s) dropped)",
            tracer.dropped()
        );
    }
    if let Some(path) = &opts.store_path {
        match &certificate {
            Some(cert) => store_certificates(path, std::slice::from_ref(cert)),
            None => {
                eprintln!("error: no scan certificate produced (witness construction failed)");
                std::process::exit(1);
            }
        }
    }
    if exp.ok {
        if cfg.quotient {
            println!("Quotient and full verdicts agree; the de-quotiented witness re-verifies.");
        } else {
            println!("Every checked layer is valence connected; the witness re-verifies.");
        }
    } else {
        println!(
            "Scan FAILED: a layer is disconnected, a cross-check diverged or the witness broke."
        );
        std::process::exit(1);
    }
}

fn main() {
    let opts = match parse_args() {
        Ok(opts) => opts,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!(
                "usage: experiments [quick|full] [--json <path>] [--metrics] [--store <dir>]\n       experiments --sim [--seed <u64>] [--runs <k>] [--n <k>] [--horizon <k>] [--adversary <name>] [--json <path>] [--store <dir>]\n       experiments --scan [--quotient] [--n <k>] [--depth <k>] [--horizon <k>] [--snapshot <dir>] [--resume <dir>] [--json <path>] [--trace <path>] [--profile] [--heartbeat-ms <k>] [--store <dir>]"
            );
            std::process::exit(2);
        }
    };
    if let Some(sim_cfg) = &opts.sim {
        run_simulations(sim_cfg, &opts);
        return;
    }
    if let Some(scan_cfg) = &opts.scan {
        run_scan(scan_cfg, &opts);
        return;
    }
    println!(
        "Layered analysis of consensus — experiment harness ({:?} scope)",
        opts.scope
    );
    println!("Reproducing Moses & Rajsbaum, PODC 1998, claim by claim.\n");
    let experiments = all_experiments(opts.scope);
    let mut failures = 0;
    for exp in &experiments {
        println!("[{}] {}", exp.id, exp.claim);
        println!("{}", exp.table);
        if opts.metrics {
            println!("  wall time: {:.3} ms", exp.wall_nanos() as f64 / 1e6);
            for (name, total) in &exp.metrics.counters {
                println!("  {name}: {total}");
            }
            for (name, g) in &exp.metrics.gauges {
                println!("  {name}: last {} / max {}", g.last, g.max);
            }
        }
        if exp.ok {
            println!("  => OK\n");
        } else {
            failures += 1;
            println!("  => MISMATCH\n");
        }
    }
    if let Some(path) = &opts.json_path {
        let lines: Vec<String> = experiments
            .iter()
            .map(|e| e.json_record().to_string())
            .collect();
        write_json_lines(path, &lines);
    }
    if let Some(path) = &opts.store_path {
        // One certificate per registry claim, at every computable size:
        // the default mode leaves behind a store that answers the whole
        // query surface cold.
        let mut certs = Vec::new();
        for &model in registry::MODEL_KEYS {
            let max_n = match opts.scope {
                Scope::Quick => 3,
                Scope::Full => registry::max_compute_n(model),
            };
            for claim in registry::claims_for(model) {
                for n in 3..=max_n {
                    match registry::compute(model, n, claim, &NOOP) {
                        Ok(cert) => certs.push(cert),
                        Err(e) => {
                            eprintln!("error: computing {model} n={n} {claim}: {e}");
                            failures += 1;
                        }
                    }
                }
            }
        }
        store_certificates(path, &certs);
    }
    if failures == 0 {
        println!("All experiments match the paper's claims.");
    } else {
        println!("{failures} experiment(s) deviated from the paper's claims.");
        std::process::exit(1);
    }
}
