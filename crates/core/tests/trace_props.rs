//! Properties of the hierarchical trace layer: parent attribution of the
//! expansion spans, guard drop-order safety, and balance of the Chrome
//! trace-event export.

use proptest::prelude::*;

use layered_core::telemetry::json::Json;
use layered_core::telemetry::{names, Observer, Span, SpanRecord, TraceObserver};
use layered_core::testkit::{CounterModel, Unpacked};
use layered_core::{LayeredModel, StateSpace, Value};

#[test]
fn expansion_spans_nest_under_the_build_and_export_balanced() {
    let model = Unpacked(CounterModel::new(2, 8));
    let roots = [model.initial_state(&[Value::ZERO, Value::ZERO])];
    let tracer = TraceObserver::new();
    let mut space = StateSpace::for_model(&model);
    space.expand_layers(&model, &roots, 3, &tracer);
    let spans = tracer.spans();
    let build = spans
        .iter()
        .find(|s| s.name == "space.build")
        .expect("the expansion records its root span");
    let layers: Vec<&SpanRecord> = spans.iter().filter(|s| s.name == "space.layer").collect();
    assert_eq!(layers.len(), 3, "one layer span per expansion level");
    for layer in &layers {
        assert_eq!(layer.parent, build.id, "layer spans nest under the build");
        assert!(
            layer.attrs.iter().any(|&(k, _)| k == "depth"),
            "layer spans carry their depth attribute"
        );
    }
    assert_balanced(&tracer.to_chrome_trace());
}

#[test]
fn out_of_order_guard_drops_keep_attribution_and_export_sane() {
    let tracer = TraceObserver::new();
    let a = Span::enter(&tracer, names::SPACE_BUILD);
    let b = Span::enter(&tracer, names::SPACE_LAYER);
    let c = Span::enter(&tracer, names::VALENCE_CLASSIFY);
    let (a_id, b_id) = (a.id(), b.id());
    // Drop the *outermost* guard first: the overlapping survivors must
    // keep their original parents and the export must stay balanced.
    drop(a);
    let d = Span::enter(&tracer, names::LAYERING_CHECK_LAYER);
    drop(d);
    drop(c);
    drop(b);
    let spans = tracer.spans();
    let by_name = |n: &str| {
        spans
            .iter()
            .find(|s| s.name == n)
            .unwrap_or_else(|| panic!("span {n} recorded"))
    };
    assert_eq!(by_name("space.layer").parent, a_id);
    assert_eq!(by_name("valence.classify").parent, b_id);
    // `a` was already closed when `d` opened; the innermost *open* span
    // was `c`.
    assert_eq!(
        by_name("layering.check_layer").parent,
        by_name("valence.classify").id
    );
    assert_balanced(&tracer.to_chrome_trace());
}

/// Walks a Chrome trace export and asserts the duration events are
/// balanced and properly nested per thread.
fn assert_balanced(trace: &Json) {
    let events = match trace.get("traceEvents") {
        Some(Json::Array(events)) => events,
        other => panic!("export must be {{\"traceEvents\": [...]}}, got {other:?}"),
    };
    let mut stacks: std::collections::BTreeMap<u64, Vec<(String, f64)>> =
        std::collections::BTreeMap::new();
    for ev in events {
        let ph = ev.get("ph").and_then(Json::as_str).expect("ph");
        let tid = ev.get("tid").and_then(Json::as_u64).expect("tid");
        let name = ev.get("name").and_then(Json::as_str).expect("name");
        let ts = ev.get("ts").and_then(Json::as_f64).expect("ts");
        match ph {
            "B" => stacks.entry(tid).or_default().push((name.to_string(), ts)),
            "E" => {
                let (open_name, open_ts) = stacks
                    .get_mut(&tid)
                    .and_then(Vec::pop)
                    .unwrap_or_else(|| panic!("E \"{name}\" on thread {tid} with nothing open"));
                assert_eq!(open_name, name, "E must close the innermost open B");
                assert!(open_ts <= ts, "span \"{name}\" ends before it starts");
            }
            "i" => {}
            other => panic!("unexpected phase {other:?}"),
        }
    }
    for (tid, stack) in &stacks {
        assert!(stack.is_empty(), "thread {tid} left spans open: {stack:?}");
    }
}

/// A pool of registered names for synthetic records (the export does not
/// depend on names, but keeping them real keeps the fixture honest).
const NAME_POOL: [&str; 3] = ["space.layer", "layering.check_layer", "valence.classify"];

proptest! {
    /// Feeding *arbitrary* span records — any threads, any overlaps, any
    /// parents, zero-length intervals included — always yields a balanced,
    /// properly nested Chrome trace.
    #[test]
    fn chrome_export_is_always_balanced(
        raw in proptest::collection::vec((0u64..4, 0u64..500, 0u64..500), 0..48)
    ) {
        let tracer = TraceObserver::new();
        for (i, &(thread, a, b)) in raw.iter().enumerate() {
            tracer.span_record(&SpanRecord {
                id: i as u64 + 1,
                parent: i as u64, // arbitrary; export nests by containment
                name: NAME_POOL[i % NAME_POOL.len()],
                thread,
                start_ns: a.min(b),
                end_ns: a.max(b),
                attrs: vec![("ix", i as u64)],
            });
        }
        assert_balanced(&tracer.to_chrome_trace());
        // Every span produces exactly one B and one E.
        let trace = tracer.to_chrome_trace();
        if let Some(Json::Array(events)) = trace.get("traceEvents") {
            let b = events.iter().filter(|e| e.get("ph").and_then(Json::as_str) == Some("B")).count();
            let e = events.iter().filter(|e| e.get("ph").and_then(Json::as_str) == Some("E")).count();
            prop_assert_eq!(b, raw.len());
            prop_assert_eq!(e, raw.len());
        }
    }
}
