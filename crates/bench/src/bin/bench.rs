//! Bench tooling. Currently one subcommand:
//!
//! ```text
//! bench regress [--baseline <path>]... [--fresh <path>] [--out <path>]
//! ```
//!
//! Compares a fresh run of the gated experiments (E-scan at n = 4, E-sym at
//! n = 4, 5 and 6, E-resume at n = 4, the full-scope E-6.3 consensus checks,
//! the full-scope E-4.2 layer scans, the one key on the message-passing
//! `S^per` path, and the full-scope Section 7 keys E-7.3, which runs the
//! checker sweep on task predicates, and E-7.1, which runs the solver with
//! a covering as its valence probe — the instances the committed records
//! cover) against the best
//! committed `BENCH_*.json` baseline per experiment, with the noise
//! tolerances documented in [`layered_bench::regress`]. The fresh run is
//! repeated three times: the samples must agree on every work counter and
//! verdict, and each key is gated on its least wall time
//! ([`layered_bench::regress::fold_samples`]). Exits 1 on a regression or
//! a disagreement between samples, 2 on usage or I/O errors.
//!
//! * `--baseline <path>` — a committed record file; repeatable. Defaults to
//!   every `BENCH_*.json` in the current directory.
//! * `--fresh <path>` — gate the records in `<path>` instead of running the
//!   experiments (the hook the negative test uses).
//! * `--out <path>` — write the fresh records, each key's least-wall
//!   sample, to `<path>` (the next committed `BENCH_PR<k>.json`).
//!
//! The tolerances are [`Tolerance::default`]'s and the lint gate's budget
//! is [`LINT_BUDGET_MS`]; neither has a command-line override, so a bar
//! moves only by a committed change. The lint gate runs the
//! whole-workspace static-analysis pass — both tiers, including the
//! call-graph rules — and fails if it exceeds the budget or finds
//! anything: the lint must stay cheap enough to run on every push.

use layered_bench::regress::{
    collect_baselines, compare, fold_samples, sort_commit_order, verdict_table, BenchRecord,
    Tolerance, Verdict,
};
use layered_bench::{
    layer_scan, lemma_7_1, lower_bound, resume_roundtrip, task_solvability, theorem_4_2,
    ScanConfig, Scope,
};
use layered_core::telemetry::NOOP;

struct Options {
    baselines: Vec<String>,
    fresh: Option<String>,
    out: Option<String>,
}

/// The lint gate's wall budget.
const LINT_BUDGET_MS: u64 = 10_000;

fn parse_args() -> Result<Options, String> {
    let mut args = std::env::args().skip(1);
    match args.next().as_deref() {
        Some("regress") => {}
        Some(other) => return Err(format!("unknown subcommand `{other}` (expected `regress`)")),
        None => return Err("missing subcommand (expected `regress`)".to_string()),
    }
    let mut opts = Options {
        baselines: Vec::new(),
        fresh: None,
        out: None,
    };
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| args.next().ok_or(format!("{flag} requires a value"));
        match arg.as_str() {
            "--baseline" => opts.baselines.push(value("--baseline")?),
            "--fresh" => opts.fresh = Some(value("--fresh")?),
            "--out" => opts.out = Some(value("--out")?),
            other => return Err(format!("unrecognized argument `{other}`")),
        }
    }
    if opts.baselines.is_empty() {
        opts.baselines = discover_baselines()?;
    }
    if opts.baselines.is_empty() {
        return Err("no baselines: no --baseline given and no BENCH_*.json here".to_string());
    }
    Ok(opts)
}

/// The lint wall-time gate: the whole-workspace static-analysis pass —
/// both tiers, including call-graph construction — must stay within the
/// budget *and* clean. A lint that outgrows its budget stops being run
/// on every push, which is how determinism bugs sneak back in.
fn lint_gate() -> Result<(), String> {
    let root = layered_lint::default_root();
    let t0 = layered_core::telemetry::clock::monotonic_ns();
    let report = layered_lint::lint_workspace(&root);
    let wall_ms = (layered_core::telemetry::clock::monotonic_ns() - t0) / 1_000_000;
    println!(
        "Lint gate: {} file(s), {} finding(s), {} suppressed, {wall_ms} ms (budget {LINT_BUDGET_MS} ms).",
        report.files_scanned,
        report.findings.len(),
        report.suppressed.len(),
    );
    if report.files_scanned < 50 {
        return Err(format!(
            "lint walked only {} file(s) under {root:?} — wrong working directory?",
            report.files_scanned
        ));
    }
    if !report.is_clean() {
        return Err(format!(
            "{} unsuppressed lint finding(s) — run `cargo run -p layered-lint` for the list",
            report.findings.len()
        ));
    }
    if wall_ms > LINT_BUDGET_MS {
        return Err(format!(
            "lint pass took {wall_ms} ms > {LINT_BUDGET_MS} ms budget — the pass must stay cheap \
             enough for every push"
        ));
    }
    Ok(())
}

/// Every `BENCH_*.json` in the current directory, in commit order.
fn discover_baselines() -> Result<Vec<String>, String> {
    let mut found = Vec::new();
    let entries = std::fs::read_dir(".").map_err(|e| format!("reading .: {e}"))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("reading .: {e}"))?;
        let name = entry.file_name().to_string_lossy().into_owned();
        if name.starts_with("BENCH_") && name.ends_with(".json") {
            found.push(name);
        }
    }
    sort_commit_order(&mut found);
    Ok(found)
}

fn load_records(path: &str) -> Result<Vec<BenchRecord>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    BenchRecord::parse_lines(&text).map_err(|e| format!("{path}: {e}"))
}

/// How many times a fresh run repeats the gated experiments; each key is
/// gated on its least wall time over the samples.
const SAMPLES: usize = 3;

/// Runs the experiments the committed baselines cover and returns their
/// JSON record lines.
fn fresh_run() -> Vec<String> {
    let scan = ScanConfig::default();
    let sym4 = ScanConfig {
        quotient: true,
        ..ScanConfig::default()
    };
    let sym5 = ScanConfig {
        n: 5,
        quotient: true,
        ..ScanConfig::default()
    };
    let sym6 = ScanConfig {
        n: 6,
        quotient: true,
        ..ScanConfig::default()
    };
    let sym7 = ScanConfig {
        n: 7,
        quotient: true,
        ..ScanConfig::default()
    };
    [
        layer_scan(&scan, &NOOP).0,
        layer_scan(&sym4, &NOOP).0,
        layer_scan(&sym5, &NOOP).0,
        layer_scan(&sym6, &NOOP).0,
        layer_scan(&sym7, &NOOP).0,
        resume_roundtrip(&ScanConfig::default()),
        lower_bound(Scope::Full),
        theorem_4_2(Scope::Full),
        task_solvability(Scope::Full),
        lemma_7_1(Scope::Full),
    ]
    .iter()
    .map(|e| e.json_record().to_string())
    .collect()
}

fn main() {
    let opts = match parse_args() {
        Ok(opts) => opts,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!(
                "usage: bench regress [--baseline <path>]... [--fresh <path>] [--out <path>]"
            );
            std::process::exit(2);
        }
    };

    let mut baseline_records = Vec::new();
    for path in &opts.baselines {
        match load_records(path) {
            Ok(mut records) => {
                println!("Loaded {} baseline record(s) from {path}.", records.len());
                baseline_records.append(&mut records);
            }
            Err(msg) => {
                eprintln!("error: {msg}");
                std::process::exit(2);
            }
        }
    }
    let baselines = collect_baselines(&baseline_records);

    let samples: Vec<Vec<String>> = match &opts.fresh {
        Some(path) => match std::fs::read_to_string(path) {
            Ok(text) => vec![text
                .lines()
                .map(str::trim)
                .filter(|l| !l.is_empty())
                .map(str::to_string)
                .collect()],
            Err(e) => {
                eprintln!("error: reading {path}: {e}");
                std::process::exit(2);
            }
        },
        None => {
            println!(
                "Running fresh experiments {SAMPLES} times (E-scan n=4, E-sym n=4/5/6/7, E-resume n=4, E-6.3 full, E-4.2 full, E-7.3 full, E-7.1 full)..."
            );
            (0..SAMPLES).map(|_| fresh_run()).collect()
        }
    };
    let parsed: Vec<Vec<BenchRecord>> = match samples
        .iter()
        .map(|lines| BenchRecord::parse_lines(&lines.join("\n")))
        .collect()
    {
        Ok(parsed) => parsed,
        Err(msg) => {
            eprintln!("error: fresh records: {msg}");
            std::process::exit(2);
        }
    };
    let chosen = match fold_samples(&parsed) {
        Ok(chosen) => chosen,
        Err(reasons) => {
            println!("The fresh samples disagree on deterministic work:");
            for reason in &reasons {
                println!("  {reason}");
            }
            std::process::exit(1);
        }
    };
    let fresh_lines: Vec<&str> = chosen
        .iter()
        .enumerate()
        .map(|(i, &s)| samples[s][i].as_str())
        .collect();
    let fresh: Vec<BenchRecord> = chosen
        .iter()
        .enumerate()
        .map(|(i, &s)| parsed[s][i].clone())
        .collect();

    if let Some(path) = &opts.out {
        if let Err(e) = std::fs::write(path, fresh_lines.join("\n") + "\n") {
            eprintln!("error: writing {path}: {e}");
            std::process::exit(2);
        }
        println!("Wrote {} fresh record(s) to {path}.", fresh_lines.len());
    }

    let verdicts = compare(&baselines, &fresh, Tolerance::default());
    println!("{}", verdict_table(&verdicts));
    let failed: Vec<&Verdict> = verdicts.iter().filter(|v| !v.passed()).collect();
    if failed.is_empty() {
        println!("No regressions against the committed baselines.");
    } else {
        println!("{} experiment(s) regressed:", failed.len());
        for v in &failed {
            for reason in &v.failures {
                println!("  {}: {reason}", v.key);
            }
        }
        std::process::exit(1);
    }

    if let Err(msg) = lint_gate() {
        eprintln!("error: lint gate: {msg}");
        std::process::exit(1);
    }
}
