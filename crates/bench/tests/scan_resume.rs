//! The `--scan` mode's snapshot and resume plumbing, for both arena
//! keyings: a cold run writes a snapshot, a warm run resumes from it and
//! reports the reuse, a run that moves the FloodMin deadline refreshes the
//! reloaded arena differentially, and the cold and warm scan-verdict
//! certificates are byte-identical.

use layered_bench::{layer_scan, ScanConfig};
use layered_cert::Certificate;
use layered_core::telemetry::NOOP;

/// Runs the scan mode under `cfg` and requires it to pass.
fn run(cfg: &ScanConfig, what: &str) -> (String, Certificate) {
    let (exp, cert) = layer_scan(cfg, &NOOP);
    assert!(exp.ok, "{what} run failed:\n{}", exp.table);
    let table = exp.table.to_string();
    let cert = cert.unwrap_or_else(|| panic!("{what} run certifies:\n{table}"));
    (table, cert)
}

fn cold_warm_and_deadline_runs(quotient: bool) {
    let dir = std::env::temp_dir().join(format!(
        "layered-scan-resume-{}-{}",
        std::process::id(),
        if quotient { "orbits" } else { "plain" }
    ));
    let dir_str = dir.to_str().expect("temp dir is UTF-8").to_string();
    let base = ScanConfig {
        n: 3,
        depth: 1,
        quotient,
        ..ScanConfig::default()
    };

    let (_, cold) = run(
        &ScanConfig {
            snapshot_dir: Some(dir_str.clone()),
            ..base.clone()
        },
        "cold",
    );
    let resumed = ScanConfig {
        resume_dir: Some(dir_str),
        ..base.clone()
    };
    let (table, warm) = run(&resumed, "warm");
    assert!(
        table.contains("resumed:"),
        "warm table has no resume row:\n{table}"
    );
    assert_eq!(
        cold.encode(),
        warm.encode(),
        "cold and warm certificates differ"
    );

    let (table, _) = run(
        &ScanConfig {
            horizon: Some(base.depth + 2),
            ..resumed
        },
        "deadline",
    );
    let row = table
        .lines()
        .find(|line| line.contains("deadline "))
        .unwrap_or_else(|| panic!("deadline table has no refresh row:\n{table}"));
    assert!(
        row.contains(" reused, ") && row.contains(" recomputed"),
        "refresh row names no reuse:\n{row}"
    );

    std::fs::remove_dir_all(&dir).expect("temp dir is removable");
}

#[test]
fn plain_scan_snapshot_resume_and_deadline_move() {
    cold_warm_and_deadline_runs(false);
}

#[test]
fn orbit_scan_snapshot_resume_and_deadline_move() {
    cold_warm_and_deadline_runs(true);
}
