//! Hierarchical span tracing: span ids, parent/child structure, thread
//! attribution, and Chrome trace-event export.
//!
//! The flat [`Observer`] span hooks aggregate per-name
//! totals; this module records *individual* spans with structure. Every
//! [`Span`](super::Span) entered against an observer that opts in via
//! [`Observer::wants_span_records`]
//! allocates a process-unique span id, captures its parent (the innermost
//! open span on the same thread), and on drop delivers a completed
//! [`SpanRecord`] to the observer.
//!
//! [`TraceObserver`] is the standard sink: a bounded in-memory ring of
//! completed spans plus instantaneous events. When the ring is full the
//! *newest* records are dropped (and counted), so the head of a runaway
//! scan is preserved. Export with [`TraceObserver::to_chrome_trace`] — the
//! output loads in `chrome://tracing` and [Perfetto](https://ui.perfetto.dev)
//! — or summarize with [`profile`](super::profile).
//!
//! Nothing here is canonical: span ids, timestamps and durations are
//! nondeterministic by nature, and trace output is explicitly outside the
//! byte-stability surface (`DESIGN.md` §10).

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use super::json::Json;
use super::{Name, Observer};

/// Default ring capacity of a [`TraceObserver`] (completed spans).
pub const DEFAULT_TRACE_CAPACITY: usize = 1 << 16;

/// Process-wide span id allocator. Ids start at 1; 0 means "no span".
static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);

/// Process-wide dense thread index allocator.
static NEXT_THREAD_IX: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// This thread's dense index, assigned on first use.
    static THREAD_IX: u64 = NEXT_THREAD_IX.fetch_add(1, Ordering::Relaxed);
    /// Ids of the open traced spans on this thread, innermost last.
    static OPEN_SPANS: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// Allocates a fresh process-unique span id (never 0).
#[must_use]
pub fn next_span_id() -> u64 {
    NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed)
}

/// The calling thread's dense index (0, 1, 2, … in first-use order).
#[must_use]
pub fn thread_index() -> u64 {
    THREAD_IX.with(|ix| *ix)
}

/// The innermost open traced span on this thread, or 0 if none: the
/// parent a [`Span`](super::Span) entered now records.
#[must_use]
pub fn current_span_id() -> u64 {
    OPEN_SPANS.with(|s| s.borrow().last().copied().unwrap_or(0))
}

/// Pushes `id` as the innermost open span on this thread.
pub(super) fn push_open(id: u64) {
    OPEN_SPANS.with(|s| s.borrow_mut().push(id));
}

/// Removes `id` from this thread's open-span stack, wherever it sits.
///
/// Guards are usually dropped innermost-first, making this a pop; an
/// explicit out-of-order `drop` just removes the id mid-stack, so
/// overlapping guard lifetimes cannot corrupt attribution of the others.
pub(super) fn pop_open(id: u64) {
    OPEN_SPANS.with(|s| {
        let mut stack = s.borrow_mut();
        if let Some(pos) = stack.iter().rposition(|&x| x == id) {
            stack.remove(pos);
        }
    });
}

/// One completed span, as delivered to
/// [`Observer::span_record`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanRecord {
    /// Process-unique id (never 0).
    pub id: u64,
    /// Id of the enclosing span, 0 for a root.
    pub parent: u64,
    /// Registered span name.
    pub name: &'static str,
    /// Dense index of the thread the span ran on.
    pub thread: u64,
    /// Start, in [`clock::monotonic_ns`](super::clock::monotonic_ns) time.
    pub start_ns: u64,
    /// End, in the same timebase; `end_ns >= start_ns`.
    pub end_ns: u64,
    /// Static attribute pairs attached at entry (depth, width, …).
    pub attrs: Vec<(&'static str, u64)>,
}

impl SpanRecord {
    /// The span's duration in nanoseconds.
    #[must_use]
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// One instantaneous record (an event or progress heartbeat).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct InstantRecord {
    /// Registered event name.
    pub name: &'static str,
    /// Dense thread index.
    pub thread: u64,
    /// Timestamp in monotonic-clock nanoseconds.
    pub ts_ns: u64,
    /// Free-form detail.
    pub detail: String,
}

#[derive(Debug, Default)]
struct TraceRing {
    spans: Vec<SpanRecord>,
    instants: Vec<InstantRecord>,
    dropped: u64,
}

/// Bounded in-memory trace sink: completed spans and instant events.
///
/// Implements [`Observer`], so it can be handed to any engine entry point
/// that takes one — alone, or alongside a [`MetricsRegistry`](super::MetricsRegistry)
/// through a [`Fanout`](super::Fanout).
///
/// # Examples
///
/// ```
/// use layered_core::telemetry::{names, Span, TraceObserver};
///
/// let trace = TraceObserver::new();
/// {
///     let _outer = Span::enter(&trace, names::LAYERING_LAYER_SCAN);
///     let _inner = Span::enter(&trace, names::VALENCE_CLASSIFY);
/// }
/// let spans = trace.spans();
/// assert_eq!(spans.len(), 2);
/// // Inner spans complete (and are recorded) first.
/// assert_eq!(spans[0].parent, spans[1].id);
/// ```
#[derive(Debug)]
pub struct TraceObserver {
    capacity: usize,
    inner: Mutex<TraceRing>,
}

impl Default for TraceObserver {
    fn default() -> Self {
        TraceObserver::new()
    }
}

impl TraceObserver {
    /// A trace sink holding up to [`DEFAULT_TRACE_CAPACITY`] spans.
    #[must_use]
    pub fn new() -> Self {
        TraceObserver::with_capacity(DEFAULT_TRACE_CAPACITY)
    }

    /// A trace sink holding up to `capacity` completed spans (and as many
    /// instant records). Once full, newer records are counted but dropped.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        TraceObserver {
            capacity: capacity.max(1),
            inner: Mutex::new(TraceRing::default()),
        }
    }

    /// All completed spans recorded so far, in completion order.
    ///
    /// # Panics
    ///
    /// Panics if the ring mutex was poisoned.
    #[must_use]
    pub fn spans(&self) -> Vec<SpanRecord> {
        self.inner
            .lock()
            .expect("trace ring poisoned")
            .spans
            .clone()
    }

    /// All instant records (events, heartbeats) so far.
    ///
    /// # Panics
    ///
    /// Panics if the ring mutex was poisoned.
    #[must_use]
    pub fn instants(&self) -> Vec<InstantRecord> {
        self.inner
            .lock()
            .expect("trace ring poisoned")
            .instants
            .clone()
    }

    /// How many records were dropped because the ring was full.
    ///
    /// # Panics
    ///
    /// Panics if the ring mutex was poisoned.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.inner.lock().expect("trace ring poisoned").dropped
    }

    /// Exports the ring as a Chrome trace-event JSON object
    /// (`{"traceEvents": [...]}`), loadable in `chrome://tracing` and
    /// Perfetto.
    ///
    /// Spans become `B`/`E` duration-event pairs, instants become `i`
    /// events. Pairs are emitted by recursive descent over a per-thread
    /// containment forest, so the output is always balanced and properly
    /// nested: every `B` has exactly one matching `E` on the same thread,
    /// and a child interval that outlives its parent (possible only with
    /// explicit out-of-order drops) is clipped to the parent's end.
    #[must_use]
    pub fn to_chrome_trace(&self) -> Json {
        let spans = self.spans();
        let instants = self.instants();
        let mut events: Vec<Json> = Vec::with_capacity(spans.len() * 2 + instants.len());

        // Group span indices per thread, sorted for containment building.
        let mut threads: Vec<u64> = spans.iter().map(|s| s.thread).collect();
        threads.sort_unstable();
        threads.dedup();
        for t in threads {
            let mut ix: Vec<usize> = (0..spans.len()).filter(|&i| spans[i].thread == t).collect();
            ix.sort_by_key(|&i| {
                (
                    spans[i].start_ns,
                    std::cmp::Reverse(spans[i].end_ns),
                    spans[i].id,
                )
            });
            emit_thread(&spans, &ix, &mut events);
        }
        for inst in &instants {
            events.push(Json::Object(vec![
                ("name".into(), Json::from(inst.name)),
                ("ph".into(), Json::from("i")),
                ("s".into(), Json::from("t")),
                ("ts".into(), Json::Number(inst.ts_ns as f64 / 1000.0)),
                ("pid".into(), Json::from(1u64)),
                ("tid".into(), Json::from(inst.thread)),
                (
                    "args".into(),
                    Json::Object(vec![("detail".into(), Json::from(inst.detail.as_str()))]),
                ),
            ]));
        }
        Json::Object(vec![("traceEvents".into(), Json::Array(events))])
    }
}

/// Emits balanced `B`/`E` pairs for one thread's spans (indices `ix`,
/// sorted by start ascending / end descending) by maintaining an explicit
/// open-span stack; clips children to their parent's end.
fn emit_thread(spans: &[SpanRecord], ix: &[usize], events: &mut Vec<Json>) {
    // Stack of (span index, clipped end).
    let mut stack: Vec<(usize, u64)> = Vec::new();
    let close = |events: &mut Vec<Json>, spans: &[SpanRecord], (i, end): (usize, u64)| {
        events.push(Json::Object(vec![
            ("name".into(), Json::from(spans[i].name)),
            ("ph".into(), Json::from("E")),
            ("ts".into(), Json::Number(end as f64 / 1000.0)),
            ("pid".into(), Json::from(1u64)),
            ("tid".into(), Json::from(spans[i].thread)),
        ]));
    };
    for &i in ix {
        while let Some(&top) = stack.last() {
            if top.1 <= spans[i].start_ns {
                stack.pop();
                close(events, spans, top);
            } else {
                break;
            }
        }
        let clipped_end = match stack.last() {
            Some(&(_, parent_end)) => spans[i].end_ns.min(parent_end),
            None => spans[i].end_ns,
        };
        let mut args: Vec<(String, Json)> = vec![
            ("id".into(), Json::from(spans[i].id)),
            ("parent".into(), Json::from(spans[i].parent)),
        ];
        for &(k, v) in &spans[i].attrs {
            args.push((k.to_string(), Json::from(v)));
        }
        events.push(Json::Object(vec![
            ("name".into(), Json::from(spans[i].name)),
            ("ph".into(), Json::from("B")),
            ("ts".into(), Json::Number(spans[i].start_ns as f64 / 1000.0)),
            ("pid".into(), Json::from(1u64)),
            ("tid".into(), Json::from(spans[i].thread)),
            ("args".into(), Json::Object(args)),
        ]));
        stack.push((i, clipped_end));
    }
    while let Some(top) = stack.pop() {
        close(events, spans, top);
    }
}

impl Observer for TraceObserver {
    fn enabled(&self) -> bool {
        true
    }

    fn wants_span_records(&self) -> bool {
        true
    }

    fn span_record(&self, record: &SpanRecord) {
        let mut inner = self.inner.lock().expect("trace ring poisoned");
        if inner.spans.len() < self.capacity {
            inner.spans.push(record.clone());
        } else {
            inner.dropped += 1;
        }
    }

    fn event(&self, name: Name, detail: &str) {
        self.instant(name.as_str(), detail);
    }

    fn progress(&self, name: Name, detail: &str) {
        self.instant(name.as_str(), detail);
    }
}

impl TraceObserver {
    fn instant(&self, name: &'static str, detail: &str) {
        let ts_ns = super::clock::monotonic_ns();
        let thread = thread_index();
        let mut inner = self.inner.lock().expect("trace ring poisoned");
        if inner.instants.len() < self.capacity {
            inner.instants.push(InstantRecord {
                name,
                thread,
                ts_ns,
                detail: detail.to_string(),
            });
        } else {
            inner.dropped += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::{names, Span};
    use super::*;

    #[test]
    fn span_ids_are_unique_and_nonzero() {
        let a = next_span_id();
        let b = next_span_id();
        assert_ne!(a, 0);
        assert_ne!(b, 0);
        assert_ne!(a, b);
    }

    #[test]
    fn nested_guards_record_parent_links() {
        let trace = TraceObserver::new();
        {
            let _outer = Span::enter(&trace, names::SPACE_BUILD);
            {
                let _inner = Span::enter(&trace, names::SPACE_LAYER);
            }
        }
        let spans = trace.spans();
        assert_eq!(spans.len(), 2);
        let inner = &spans[0];
        let outer = &spans[1];
        assert_eq!(inner.name, "space.layer");
        assert_eq!(outer.name, "space.build");
        assert_eq!(inner.parent, outer.id);
        assert_eq!(outer.parent, 0);
        assert_eq!(inner.thread, outer.thread);
        assert!(inner.start_ns >= outer.start_ns);
        assert!(inner.end_ns <= outer.end_ns);
    }

    #[test]
    fn ring_capacity_drops_newest_and_counts() {
        let trace = TraceObserver::with_capacity(2);
        for _ in 0..4 {
            let _s = Span::enter(&trace, names::SIM_RUN);
        }
        assert_eq!(trace.spans().len(), 2);
        assert_eq!(trace.dropped(), 2);
    }

    #[test]
    fn chrome_trace_pairs_are_balanced() {
        let trace = TraceObserver::new();
        {
            let _a = Span::enter(&trace, names::SPACE_BUILD);
            let _b = Span::enter(&trace, names::SPACE_LAYER);
        }
        trace.event(names::SIM_VIOLATION, "agreement");
        let json = trace.to_chrome_trace();
        let rendered = json.to_string();
        let parsed = Json::parse(&rendered).expect("valid json");
        let Json::Array(events) = &parsed["traceEvents"] else {
            panic!("traceEvents must be an array in {rendered}");
        };
        let begins = events
            .iter()
            .filter(|e| e["ph"].as_str() == Some("B"))
            .count();
        let ends = events
            .iter()
            .filter(|e| e["ph"].as_str() == Some("E"))
            .count();
        let instants = events
            .iter()
            .filter(|e| e["ph"].as_str() == Some("i"))
            .count();
        assert_eq!(begins, 2);
        assert_eq!(ends, 2);
        assert_eq!(instants, 1);
    }

    #[test]
    fn out_of_order_drops_keep_the_stack_sane() {
        let trace = TraceObserver::new();
        let a = Span::enter(&trace, names::SPACE_BUILD);
        let b = Span::enter(&trace, names::SPACE_LAYER);
        drop(a); // outer dropped first, on purpose
        assert_eq!(current_span_id(), b.id());
        drop(b);
        assert_eq!(current_span_id(), 0);
        assert_eq!(trace.spans().len(), 2);
    }
}
