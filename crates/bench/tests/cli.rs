//! Command-line contract of the `experiments` binary: arguments it cannot
//! honour exit 2 with an `error:` line and the usage text, never a panic.

use std::process::Command;

#[test]
fn quotient_scan_above_the_permutation_limit_exits_2() {
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(["--scan", "--quotient", "--n", "9"])
        .output()
        .expect("experiments binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(
        stderr.contains("error: --quotient supports --n up to 8"),
        "stderr: {stderr}"
    );
    assert!(stderr.contains("usage: experiments"), "stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
}
