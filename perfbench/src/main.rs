//! `perfbench`: runs one workload of the layered-consensus benchmark and
//! prints every metric with its unit and a check; the last line is one
//! JSON object (`correct`, `attempted`, `failed`, `metrics`).
//!
//! ```text
//! perfbench --workload <name> [--seed <n>] [--seconds <n>] [--trace 0|1] [--work-dir <dir>]
//! perfbench --noise [--seconds <n>]
//! ```
//!
//! `run.py` in this directory builds it and pins it to one CPU.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use layered_perfbench::measure::{median, quantile, reference_ns};
use layered_perfbench::run::{self, Config, MAX_UNATTRIBUTED, WORKLOADS};

const USAGE: &str = "usage: perfbench --workload <name> [--seed <n>] [--seconds <n>] [--trace 0|1] [--work-dir <dir>]\n       perfbench --noise [--seconds <n>]";

enum Mode {
    Run(Config),
    Noise(f64),
}

fn parse(args: &[String]) -> Result<Mode, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut work_dir = PathBuf::from(".bench_build/perfbench-work");
    let mut noise = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => {
                seed = value()?
                    .parse()
                    .map_err(|_| "--seed takes a whole number")?;
            }
            "--seconds" => {
                seconds = value()?
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s >= 0.0)
                    .ok_or("--seconds takes a non-negative number")?;
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                };
            }
            "--work-dir" => work_dir = PathBuf::from(value()?),
            "--noise" => noise = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if noise {
        return Ok(Mode::Noise(seconds));
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}` (one of {})",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Mode::Run(Config {
        workload,
        seed,
        seconds,
        trace,
        work_dir,
    }))
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn print_table(metrics: &[(&str, &str, f64)]) {
    println!("{:<30} {:>18} {:<9} check", "metric", "value", "unit");
    for &(name, unit, value) in metrics {
        let check = if !value.is_finite() {
            "FAIL (not measured)"
        } else if name == "trace.unattributed_frac" && value >= MAX_UNATTRIBUTED {
            "FAIL (unattributed >= 0.05)"
        } else {
            "pass"
        };
        println!("{name:<30} {value:>18.6} {unit:<9} {check}");
    }
}

fn print_result(correct: bool, attempted: u64, failed: u64, metrics: &[(&str, &str, f64)]) {
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, u, v)| {
            format!(
                "\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}",
                json_number(*v)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
}

/// Runs only the reference kernel and prints its spread.
fn noise(seconds: f64) -> ExitCode {
    let start = Instant::now();
    let mut ms = Vec::new();
    while ms.len() < 10 || start.elapsed().as_secs_f64() < seconds {
        ms.push(reference_ns() as f64 / 1e6);
    }
    let p50 = median(&ms);
    let iqr = (quantile(&ms, 0.75) - quantile(&ms, 0.25)) / p50;
    println!(
        "reference kernel: {} runs, p10 {:.4} ms, p50 {p50:.4} ms, p90 {:.4} ms, IQR/median {iqr:.4}",
        ms.len(),
        quantile(&ms, 0.1),
        quantile(&ms, 0.9)
    );
    let metrics = [
        ("host.ref_ms.p50", "ms", p50),
        ("host.ref_ms.iqr_frac", "fraction", iqr),
    ];
    print_table(&metrics);
    print_result(true, ms.len() as u64, 0, &metrics);
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse(&args) {
        Ok(Mode::Noise(seconds)) => return noise(seconds),
        Ok(Mode::Run(cfg)) => cfg,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&cfg.work_dir) {
        eprintln!("error: cannot create {}: {e}", cfg.work_dir.display());
        return ExitCode::from(2);
    }
    println!(
        "perfbench workload={} seed={} seconds={} trace={}",
        cfg.workload,
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace)
    );
    let out = run::run(&cfg, process_start);
    print_table(&out.metrics);
    for note in &out.notes {
        println!("{note}");
    }
    let mut correct = out.correct;
    if let Some(tracer) = &out.tracer {
        let table = tracer.self_time_table();
        println!("self time per traced root:\n{table}");
        let spans = cfg.work_dir.join(format!("spans-{}.jsonl", cfg.workload));
        let selftime = cfg.work_dir.join(format!("selftime-{}.txt", cfg.workload));
        match std::fs::write(&spans, tracer.to_jsonl())
            .and_then(|()| std::fs::write(&selftime, table))
        {
            Ok(()) => println!(
                "spans: {}\nself-time table: {}",
                spans.display(),
                selftime.display()
            ),
            Err(e) => {
                println!("cannot write the span files: {e}");
                correct = false;
            }
        }
    }
    print_result(correct, out.attempted, out.failed, &out.metrics);
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
