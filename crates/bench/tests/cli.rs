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

#[test]
fn heartbeat_period_overflowing_u64_nanoseconds_exits_2() {
    // 18446744073710 ms is just above u64::MAX / 10⁶: its nanosecond
    // period does not fit in a u64.
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(["--scan", "--heartbeat-ms", "18446744073710"])
        .output()
        .expect("experiments binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(
        stderr.contains("error: --heartbeat-ms is too large"),
        "stderr: {stderr}"
    );
    assert!(stderr.contains("usage: experiments"), "stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
}

/// Runs `experiments` with `args` and asserts a clean exit 2 whose stderr
/// carries `error: {message}` and the usage text.
fn assert_rejected(args: &[&str], message: &str) {
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(args)
        .output()
        .expect("experiments binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: stderr: {stderr}");
    assert!(
        stderr.contains(&format!("error: {message}")),
        "{args:?}: stderr: {stderr}"
    );
    assert!(
        stderr.contains("usage: experiments"),
        "{args:?}: stderr: {stderr}"
    );
    assert!(!stderr.contains("panicked"), "{args:?}: stderr: {stderr}");
}

#[test]
fn scan_arguments_outside_scan_mode_exit_2() {
    assert_rejected(&["quick", "--depth", "3"], "--depth only applies to --scan");
    assert_rejected(
        &["--sim", "--runs", "1", "--depth", "1"],
        "--depth only applies to --scan",
    );
}

#[test]
fn sim_arguments_outside_sim_mode_exit_2() {
    assert_rejected(
        &["quick", "--seed", "5", "--runs", "2"],
        "--seed only applies to --sim",
    );
    assert_rejected(&["quick", "--runs", "2"], "--runs only applies to --sim");
    assert_rejected(
        &["quick", "--adversary", "roamer"],
        "--adversary only applies to --sim",
    );
    assert_rejected(
        &["--scan", "--seed", "3", "--n", "3", "--depth", "0"],
        "--seed only applies to --sim",
    );
}

#[test]
fn instance_size_arguments_in_suite_mode_exit_2() {
    assert_rejected(
        &["quick", "--n", "3"],
        "--n only applies to --sim and --scan",
    );
    assert_rejected(
        &["--horizon", "2"],
        "--horizon only applies to --sim and --scan",
    );
}

#[test]
fn suite_scopes_with_scan_or_sim_exit_2() {
    assert_rejected(
        &["--scan", "quick", "--n", "3", "--depth", "0"],
        "quick only applies to the experiment suite",
    );
    assert_rejected(
        &["--sim", "full", "--runs", "1"],
        "full only applies to the experiment suite",
    );
}

#[test]
fn threads_is_not_an_argument() {
    // The scan has one expansion path, so no mode takes a thread count.
    let message = "unrecognized argument `--threads`";
    assert_rejected(&["--scan", "--threads", "2"], message);
    assert_rejected(&["quick", "--threads", "9"], message);
}

#[test]
fn scan_horizon_and_depth_beyond_max_horizon_exit_2() {
    // `--horizon 65535` used to be accepted and overflow the main thread's
    // stack in the valence recursion.
    let horizon = "the scan horizon (--horizon, default --depth + 1) must lie in 1..=1024";
    for h in ["0", "1025", "65535", "65536"] {
        assert_rejected(&["--scan", "--horizon", h], horizon);
    }
    assert_rejected(&["--scan", "--depth", "1024"], horizon);
    let depth = "--depth must lie in 0..=1024";
    for d in [
        "1025".to_string(),
        "65535".to_string(),
        u64::MAX.to_string(),
    ] {
        assert_rejected(
            &["--scan", "--n", "2", "--depth", &d, "--horizon", "2"],
            depth,
        );
    }
    assert_eq!(
        layered_core::MAX_HORIZON,
        1024,
        "the messages above name it"
    );
}
