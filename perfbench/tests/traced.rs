//! The traced run on every workload: spans nest within each op, child spans
//! leave under 5% of every traced op unattributed, and every per-layer
//! metric is emitted. Run with `cargo test --release` from this directory.

use std::path::PathBuf;
use std::time::Instant;

use layered_perfbench::run::{run, Config, MAX_UNATTRIBUTED, PER_LAYER, WORKLOADS};

#[test]
fn traced_runs_nest_attribute_and_emit_every_metric() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("perfbench-traced");
    let tmp = dir.join("tmp");
    std::fs::create_dir_all(&tmp).expect("work dir");
    // The suite's certificate-store experiment writes under TMPDIR.
    std::env::set_var("TMPDIR", &tmp);
    for workload in WORKLOADS {
        let cfg = Config {
            workload: (*workload).to_string(),
            seed: 11,
            seconds: 0.0,
            trace: true,
            work_dir: dir.clone(),
        };
        let out = run(&cfg, Instant::now());
        assert!(out.correct, "{workload}: {:?}", out.notes);
        let tracer = out.tracer.expect("traced run keeps its spans");
        tracer.check_nesting().expect("spans nest within their op");
        let roots: Vec<usize> = tracer
            .spans()
            .iter()
            .enumerate()
            .filter(|(i, s)| s.root == *i && s.name == "op")
            .map(|(i, _)| i)
            .collect();
        assert!(!roots.is_empty(), "{workload}: no traced op");
        for root in roots {
            let frac = tracer.unattributed_frac(root);
            assert!(
                frac < MAX_UNATTRIBUTED,
                "{workload}: op {root} {frac} unattributed"
            );
        }
        for (name, unit) in PER_LAYER {
            assert!(
                out.metrics.iter().any(|(n, u, _)| n == name && u == unit),
                "{workload}: {name} not emitted"
            );
        }
    }
}
