//! Pins what a `MetricsRegistry` records, alone and behind a `Fanout`
//! with a trace ring: a scripted sequence of every observer call, frozen
//! into snapshot JSON and compared with a fixed string, plus exact totals
//! under concurrent updates (cert-serve shares one registry across its
//! connection threads).

use layered_core::telemetry::names::NAMES;
use layered_core::telemetry::{Fanout, MetricsRegistry, Observer, TraceObserver};

/// The registered name spelled `$s`, looked up in the registry.
macro_rules! name {
    ($s:literal) => {
        NAMES
            .iter()
            .copied()
            .find(|n| *n == $s)
            .expect("registered telemetry name")
    };
}

/// The snapshot JSON the script below must produce, byte for byte. The
/// JSON encoder holds numbers as `f64`, so the saturated histogram sum
/// (`u64::MAX`) renders as 18446744073709552000.
const PINNED: &str = concat!(
    r#"{"counters":{"valence.memo_hits":0,"valence.queries":7},"#,
    r#""gauges":{"engine.frontier_width":{"last":4,"max":9}},"#,
    r#""histograms":{"space.succ_fanout":{"count":3,"sum":18446744073709552000,"#,
    r#""p50":7,"p90":18446744073709552000,"p99":18446744073709552000,"max":18446744073709552000}},"#,
    r#""spans":{"space.layer":{"count":2,"total_ns":350},"valence.classify":{"count":1,"total_ns":7}},"#,
    r#""events":[{"name":"layering.stuck","detail":"first"},"#,
    r#"{"name":"sim.violation","detail":"second"},"#,
    r#"{"name":"layering.stuck","detail":"third"}]}"#,
);

/// Every observer call kind, in a fixed order.
fn script(obs: &dyn Observer) {
    obs.counter(name!("valence.queries"), 3);
    obs.counter(name!("valence.memo_hits"), 0);
    obs.gauge(name!("engine.frontier_width"), 9);
    obs.counter(name!("valence.queries"), 4);
    obs.gauge(name!("engine.frontier_width"), 4);
    obs.histogram(name!("space.succ_fanout"), 0);
    obs.histogram(name!("space.succ_fanout"), u64::MAX);
    obs.histogram(name!("space.succ_fanout"), 5);
    obs.span_start(name!("space.layer"));
    obs.span_end(name!("space.layer"), 100);
    obs.span_start(name!("valence.classify"));
    obs.span_end(name!("valence.classify"), 7);
    obs.span_start(name!("space.layer"));
    obs.span_end(name!("space.layer"), 250);
    obs.event(name!("layering.stuck"), "first");
    obs.progress(name!("scan.progress"), "depth=1");
    obs.event(name!("sim.violation"), "second");
    obs.event(name!("layering.stuck"), "third");
}

#[test]
fn registry_snapshot_matches_the_pinned_json() {
    let reg = MetricsRegistry::new();
    script(&reg);
    assert_eq!(reg.snapshot().to_json().to_string(), PINNED);
}

#[test]
fn fanout_to_registry_and_trace_records_the_same_snapshot() {
    let reg = MetricsRegistry::new();
    let trace = TraceObserver::new();
    script(&Fanout::new(&[&reg, &trace]));
    assert_eq!(reg.snapshot().to_json().to_string(), PINNED);
    let instants: Vec<(&str, String)> = trace
        .instants()
        .into_iter()
        .map(|i| (i.name, i.detail))
        .collect();
    assert_eq!(
        instants,
        [
            ("layering.stuck", "first".to_string()),
            ("scan.progress", "depth=1".to_string()),
            ("sim.violation", "second".to_string()),
            ("layering.stuck", "third".to_string()),
        ]
    );
}

#[test]
fn concurrent_counters_and_gauges_keep_exact_totals() {
    const THREADS: u64 = 4;
    const ADDS: u64 = 10_000;
    let reg = MetricsRegistry::new();
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let reg = &reg;
            s.spawn(move || {
                for i in 0..ADDS {
                    reg.counter(name!("engine.states_visited"), 1);
                    reg.gauge(name!("engine.frontier_width"), t * ADDS + i);
                }
            });
        }
    });
    let snap = reg.snapshot();
    assert_eq!(snap.counter("engine.states_visited"), THREADS * ADDS);
    assert_eq!(snap.gauge_max("engine.frontier_width"), THREADS * ADDS - 1);
}
