//! A wrong count and a corrupted response are each counted as a failed op
//! and never timed. Run with `cargo test --release` from this directory.

use std::path::PathBuf;

use layered_perfbench::measure::Sampler;
use layered_perfbench::run::measure;
use layered_perfbench::scan::{check, Golden, Observed, ScanWorkload};
use layered_perfbench::serve::{check_reply, parse_reply, Route, ServeWorkload};

fn work_dir(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("perfbench-{name}"))
}

#[test]
fn wrong_scan_count_is_failed_and_untimed() {
    let right = ScanWorkload::full().golden();
    let wrong = Golden {
        states_seen: right.states_seen + 1,
        ..right
    };
    let mut w = ScanWorkload::full().with_golden(wrong);
    let mut s = Sampler::start();
    let m = measure(&mut w, &mut s, 0.0, 3, None);
    assert_eq!((m.attempted, m.failed), (3, 3));
    assert!(
        m.untraced.is_empty() && m.traced.is_empty(),
        "a failed op was timed"
    );
    let reason = m.first_error.expect("failure recorded");
    assert!(reason.contains("scan counts"), "{reason}");
}

#[test]
fn scan_check_rejects_each_wrong_field() {
    let golden = ScanWorkload::quotient().golden();
    let good = Observed {
        counts: golden,
        connected: true,
        witness_ok: true,
    };
    assert!(check(&golden, &good).is_ok());
    assert!(check(
        &golden,
        &Observed {
            connected: false,
            ..good
        }
    )
    .is_err());
    assert!(check(
        &golden,
        &Observed {
            witness_ok: false,
            ..good
        }
    )
    .is_err());
    for counts in [
        Golden {
            layers_checked: 3,
            ..golden
        },
        Golden {
            arena_states: 40,
            ..golden
        },
        Golden {
            covered: 935,
            ..golden
        },
    ] {
        assert!(check(&golden, &Observed { counts, ..good }).is_err());
    }
}

#[test]
fn corrupted_response_is_failed_and_untimed() {
    let mut w = ServeWorkload::start(&work_dir("corrupt"), 7).expect("serve set-up");
    let mut s = Sampler::start();
    let healthy = measure(&mut w, &mut s, 0.0, 2, None);
    assert_eq!((healthy.failed, healthy.untraced.len()), (0, 2));

    w.corrupt_expected_body();
    let m = measure(&mut w, &mut s, 0.0, 2, None);
    assert_eq!((m.attempted, m.failed), (2, 2));
    assert!(m.untraced.is_empty(), "a failed op was timed");
    let reason = m.first_error.expect("failure recorded");
    assert!(
        reason.contains("differs from the stored certificate"),
        "{reason}"
    );
}

#[test]
fn reply_check_rejects_status_hash_and_body() {
    let body = b"{\"v\":1}".to_vec();
    let hash = layered_cert::sha256_hex(&body);
    let route = Route {
        path: "/cert/x".into(),
        hash: hash.clone(),
        body: body.clone(),
    };
    let raw = |status: u16, hash: &str, body: &[u8]| {
        let mut r = format!("HTTP/1.1 {status} X\r\nX-Cert-Hash: {hash}\r\n\r\n").into_bytes();
        r.extend_from_slice(body);
        parse_reply(&r).expect("parses")
    };
    assert!(check_reply(&route, &raw(200, &hash, &body)).is_ok());
    assert!(check_reply(&route, &raw(500, &hash, &body)).is_err());
    let mut flipped = body.clone();
    flipped[0] ^= 1;
    assert!(check_reply(&route, &raw(200, &hash, &flipped)).is_err());
    let other = layered_cert::sha256_hex(&flipped);
    assert!(check_reply(&route, &raw(200, &other, &flipped)).is_err());
    assert!(parse_reply(b"HTTP/1.1 200 OK").is_err());
}
