//! Dependency-free telemetry for the analysis engines.
//!
//! The engines in this crate — reachability ([`explore`](crate::explore)),
//! valence ([`ValenceSolver`](crate::ValenceSolver)), connectivity
//! ([`crate::connectivity`]), the layering engine ([`crate::layering`]) and
//! the consensus checker ([`crate::checker`]) — are instrumented with
//! counter, gauge, histogram, span, event and progress hooks behind the
//! [`Observer`] trait. Every engine entry point takes the observer as an
//! argument, and observability is strictly opt-in: callers that want none
//! pass [`NOOP`], whose callbacks are empty and inlined away, so
//! uninstrumented runs behave (and print) exactly as before.
//!
//! Sinks provided here:
//!
//! * [`MetricsRegistry`] — an in-memory aggregator; freeze it into a
//!   [`MetricsSnapshot`] to read totals, distributions, or serialize them
//!   as JSON,
//! * [`JsonlObserver`] — streams every event as one JSON object per line to
//!   any [`std::io::Write`], for offline analysis of hot paths,
//! * [`TraceObserver`] — a bounded ring of individual spans with
//!   parent/child structure, exportable as Chrome trace-event JSON
//!   ([`trace`]) and foldable into a self-profile ([`profile`]),
//! * [`Fanout`] — tees one engine's telemetry to several sinks at once
//!   (e.g. a registry *and* a trace ring).
//!
//! Like [`crate::report`], everything here is hand-rolled and free of
//! dependencies; the [`json`] submodule carries the tiny serializer/parser
//! the sinks and the experiment harness share, [`clock`] is the single
//! monotonic time source every duration derives from, and [`mem`] adds
//! byte-level arena accounting.
//!
//! # Naming conventions
//!
//! Metric names are `engine.metric` strings. Counters shared by all
//! breadth-first sweeps use the `engine.` prefix (`engine.states_visited`,
//! `engine.dedup_hits`, and the `engine.frontier_width` gauge), so totals
//! can be aggregated across engines; engine-specific metrics use their own
//! prefix (`valence.memo_hits`, `connectivity.similarity_edges`,
//! `layering.extensions`, …). Every name must be registered in
//! [`names::NAMES`] (lint rule L005), and names of timing-valued metrics
//! end in `_ns` — the suffix the byte-stability contract strips.

use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

pub mod clock;
pub mod hist;
pub mod json;
pub mod mem;
pub mod names;
pub mod profile;
pub mod trace;

pub use hist::Histogram;
pub use mem::{MemoryBreakdown, MemoryFootprint};
pub use trace::{InstantRecord, SpanRecord, TraceObserver};

/// Receiver for engine telemetry.
///
/// All methods default to no-ops so sinks only implement what they need.
/// Methods take `&self`: sinks use interior mutability, which lets one
/// observer be shared by several engines in a single analysis. `Sync` is a
/// supertrait for the same reason — parallel engines hand the observer to
/// `std::thread::scope` workers.
pub trait Observer: Sync {
    /// Whether this observer records anything. Engines may skip computing
    /// expensive telemetry (e.g. span timing) when this is `false`.
    fn enabled(&self) -> bool {
        false
    }

    /// Adds `delta` to the named monotone counter.
    fn counter(&self, name: &'static str, delta: u64) {
        let _ = (name, delta);
    }

    /// Records an instantaneous level (frontier width, chain length, …).
    /// Sinks keep both the last and the maximum observed value.
    fn gauge(&self, name: &'static str, value: u64) {
        let _ = (name, value);
    }

    /// Records one sample into the named distribution (probe length,
    /// fan-out, per-layer nanoseconds, …). Sinks bucket log-scale; see
    /// [`Histogram`].
    fn histogram(&self, name: &'static str, value: u64) {
        let _ = (name, value);
    }

    /// Marks the start of a named span. Paired with [`Observer::span_end`];
    /// prefer the RAII [`Span`] guard over calling these directly.
    fn span_start(&self, name: &'static str) {
        let _ = name;
    }

    /// Marks the end of a named span that took `nanos` nanoseconds.
    fn span_end(&self, name: &'static str, nanos: u64) {
        let _ = (name, nanos);
    }

    /// Whether this observer wants structured [`SpanRecord`]s. When `true`,
    /// [`Span`] guards allocate span ids, maintain the per-thread parent
    /// stack, and deliver a record to [`Observer::span_record`] on drop.
    fn wants_span_records(&self) -> bool {
        false
    }

    /// Receives one completed structured span. Only called when
    /// [`Observer::wants_span_records`] returns `true`.
    fn span_record(&self, record: &SpanRecord) {
        let _ = record;
    }

    /// Records a discrete event with free-form detail (e.g. why a bivalent
    /// run got stuck).
    fn event(&self, name: &'static str, detail: &str) {
        let _ = (name, detail);
    }

    /// Receives a progress heartbeat (see [`Heartbeat`]). Deliberately a
    /// separate channel from [`Observer::event`]: heartbeats fire on a
    /// wall-clock cadence, so [`MetricsRegistry`] ignores them to keep
    /// snapshots deterministic, while streaming/trace sinks surface them.
    fn progress(&self, name: &'static str, detail: &str) {
        let _ = (name, detail);
    }
}

/// The default observer: records nothing, costs nothing.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NoopObserver;

impl Observer for NoopObserver {}

/// A `&'static` no-op observer, the default for every engine entry point.
pub static NOOP: NoopObserver = NoopObserver;

/// Tees every telemetry call to each of several observers, in order.
///
/// # Examples
///
/// ```
/// use layered_core::telemetry::{Fanout, MetricsRegistry, Observer, TraceObserver};
///
/// let reg = MetricsRegistry::new();
/// let trace = TraceObserver::new();
/// let tee = Fanout::new(&[&reg, &trace]);
/// tee.counter("engine.states_visited", 1);
/// assert_eq!(reg.snapshot().counter("engine.states_visited"), 1);
/// ```
pub struct Fanout<'a> {
    targets: Vec<&'a dyn Observer>,
}

impl<'a> Fanout<'a> {
    /// A fanout over `targets` (calls are forwarded in slice order).
    #[must_use]
    pub fn new(targets: &[&'a dyn Observer]) -> Self {
        Fanout {
            targets: targets.to_vec(),
        }
    }
}

impl Observer for Fanout<'_> {
    fn enabled(&self) -> bool {
        self.targets.iter().copied().any(|t| t.enabled())
    }

    fn counter(&self, name: &'static str, delta: u64) {
        for t in &self.targets {
            t.counter(name, delta);
        }
    }

    fn gauge(&self, name: &'static str, value: u64) {
        for t in &self.targets {
            t.gauge(name, value);
        }
    }

    fn histogram(&self, name: &'static str, value: u64) {
        for t in &self.targets {
            t.histogram(name, value);
        }
    }

    fn span_start(&self, name: &'static str) {
        for t in &self.targets {
            t.span_start(name);
        }
    }

    fn span_end(&self, name: &'static str, nanos: u64) {
        for t in &self.targets {
            t.span_end(name, nanos);
        }
    }

    fn wants_span_records(&self) -> bool {
        self.targets.iter().copied().any(|t| t.wants_span_records())
    }

    fn span_record(&self, record: &SpanRecord) {
        for t in &self.targets {
            if t.wants_span_records() {
                t.span_record(record);
            }
        }
    }

    fn event(&self, name: &'static str, detail: &str) {
        for t in &self.targets {
            t.event(name, detail);
        }
    }

    fn progress(&self, name: &'static str, detail: &str) {
        for t in &self.targets {
            t.progress(name, detail);
        }
    }
}

/// Per-span context kept only while tracing is active.
#[derive(Debug)]
struct TraceCtx {
    id: u64,
    parent: u64,
    attrs: Vec<(&'static str, u64)>,
}

/// RAII guard timing a named span against an observer.
///
/// With a disabled observer ([`Observer::enabled`] is `false` and
/// [`Observer::wants_span_records`] is `false`) no clock is read at all.
/// Against a structured sink (e.g. [`TraceObserver`]) the guard also
/// allocates a span id, records its parent — the innermost open span on
/// the same thread — and delivers a full [`SpanRecord`] on drop, giving
/// traces their hierarchy without any engine-side bookkeeping.
pub struct Span<'a> {
    obs: &'a dyn Observer,
    name: &'static str,
    started: Option<u64>,
    ctx: Option<TraceCtx>,
    /// Whether to feed the flat per-name aggregates
    /// ([`Observer::span_start`]/[`Observer::span_end`]). Worker spans
    /// entered with [`Span::enter_under`] skip them: their per-name counts
    /// depend on the thread count, which would break the byte-stability
    /// contract for [`MetricsSnapshot`].
    aggregate: bool,
}

impl<'a> Span<'a> {
    /// Starts the span (and the clock, if `obs` records anything).
    pub fn enter(obs: &'a dyn Observer, name: &'static str) -> Self {
        Span::enter_with(obs, name, &[])
    }

    /// Starts the span with static attribute pairs (layer depth, chunk
    /// size, …) that ride along on the [`SpanRecord`] when tracing.
    pub fn enter_with(
        obs: &'a dyn Observer,
        name: &'static str,
        attrs: &[(&'static str, u64)],
    ) -> Self {
        let tracing = obs.wants_span_records();
        if !obs.enabled() && !tracing {
            return Span {
                obs,
                name,
                started: None,
                ctx: None,
                aggregate: false,
            };
        }
        obs.span_start(name);
        let ctx = tracing.then(|| {
            let id = trace::next_span_id();
            let parent = trace::current_span_id();
            trace::push_open(id);
            TraceCtx {
                id,
                parent,
                attrs: attrs.to_vec(),
            }
        });
        Span {
            obs,
            name,
            started: Some(clock::monotonic_ns()),
            ctx,
            aggregate: true,
        }
    }

    /// Starts a span under an explicit parent id, for work dispatched to
    /// another thread (capture [`trace::current_span_id`] *before*
    /// `std::thread::scope` and pass it to the worker).
    ///
    /// Worker spans feed only the structured trace, not the flat per-name
    /// aggregates: how many there are depends on the thread count, and the
    /// aggregate surface must stay thread-count-independent.
    pub fn enter_under(
        obs: &'a dyn Observer,
        name: &'static str,
        parent: u64,
        attrs: &[(&'static str, u64)],
    ) -> Self {
        if !obs.wants_span_records() {
            return Span {
                obs,
                name,
                started: None,
                ctx: None,
                aggregate: false,
            };
        }
        let id = trace::next_span_id();
        trace::push_open(id);
        Span {
            obs,
            name,
            started: Some(clock::monotonic_ns()),
            ctx: Some(TraceCtx {
                id,
                parent,
                attrs: attrs.to_vec(),
            }),
            aggregate: false,
        }
    }

    /// The span's trace id, or 0 when not tracing.
    #[must_use]
    pub fn id(&self) -> u64 {
        self.ctx.as_ref().map_or(0, |c| c.id)
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        let Some(started) = self.started else {
            return;
        };
        let end = clock::monotonic_ns();
        if self.aggregate {
            self.obs.span_end(self.name, end.saturating_sub(started));
        }
        if let Some(ctx) = self.ctx.take() {
            trace::pop_open(ctx.id);
            self.obs.span_record(&SpanRecord {
                id: ctx.id,
                parent: ctx.parent,
                name: self.name,
                thread: trace::thread_index(),
                start_ns: started,
                end_ns: end,
                attrs: ctx.attrs,
            });
        }
    }
}

/// Default heartbeat cadence: once a second.
const DEFAULT_HEARTBEAT_PERIOD_NS: u64 = 1_000_000_000;

/// Process-wide default heartbeat period, settable by harness front-ends.
static HEARTBEAT_PERIOD_NS: AtomicU64 = AtomicU64::new(DEFAULT_HEARTBEAT_PERIOD_NS);

/// Sets the process-wide default [`Heartbeat`] cadence (`0` = every tick).
///
/// Cadence only shapes the *progress* channel, which is excluded from
/// canonical output, so this is safe to expose as a CLI flag.
pub fn set_heartbeat_period_ns(period_ns: u64) {
    HEARTBEAT_PERIOD_NS.store(period_ns, Ordering::Relaxed);
}

/// The current process-wide default heartbeat period.
#[must_use]
pub fn heartbeat_period_ns() -> u64 {
    HEARTBEAT_PERIOD_NS.load(Ordering::Relaxed)
}

/// Rate-limited progress reporter for long scans.
///
/// Engines call [`Heartbeat::tick`] once per layer; at most once per
/// period it emits a `scan.progress` line via [`Observer::progress`] with
/// the layer depth, frontier width, total states and states/second.
/// Heartbeats are wall-clock-gated and therefore *never* recorded by
/// [`MetricsRegistry`]: they exist to make long scans watchable, not to be
/// compared byte-for-byte.
#[derive(Debug)]
pub struct Heartbeat {
    period_ns: u64,
    start_ns: u64,
    last_ns: u64,
}

impl Default for Heartbeat {
    fn default() -> Self {
        Heartbeat::new()
    }
}

impl Heartbeat {
    /// A heartbeat at the process-wide default cadence
    /// (see [`set_heartbeat_period_ns`]).
    #[must_use]
    pub fn new() -> Self {
        Heartbeat::with_period_ns(heartbeat_period_ns())
    }

    /// A heartbeat firing at most once per `period_ns` (`0` = every tick).
    #[must_use]
    pub fn with_period_ns(period_ns: u64) -> Self {
        Heartbeat {
            period_ns,
            start_ns: 0,
            last_ns: 0,
        }
    }

    /// Reports progress if the period has elapsed. Cheap when it hasn't;
    /// free (no clock read) when `obs` is disabled.
    pub fn tick(&mut self, obs: &dyn Observer, depth: usize, frontier: usize, total_states: usize) {
        if !obs.enabled() {
            return;
        }
        let now = clock::monotonic_ns();
        if self.start_ns == 0 {
            self.start_ns = now;
        }
        if self.last_ns != 0 && now.saturating_sub(self.last_ns) < self.period_ns {
            return;
        }
        self.last_ns = now.max(1);
        let elapsed_ns = now.saturating_sub(self.start_ns).max(1);
        let per_sec = (total_states as u128 * 1_000_000_000 / u128::from(elapsed_ns)) as u64;
        obs.progress(
            "scan.progress",
            &format!(
                "depth={depth} frontier={frontier} states={total_states} states_per_sec={per_sec}"
            ),
        );
    }
}

/// Last/maximum pair recorded for a gauge.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GaugeStat {
    /// The most recent value.
    pub last: u64,
    /// The maximum value observed.
    pub max: u64,
}

/// Count/total pair recorded for a span.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SpanStat {
    /// Number of completed spans.
    pub count: u64,
    /// Total nanoseconds across all completed spans.
    pub total_nanos: u64,
}

/// One recorded event.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Event {
    /// Event name.
    pub name: &'static str,
    /// Free-form detail.
    pub detail: String,
}

#[derive(Debug, Default)]
struct RegistryInner {
    counters: BTreeMap<&'static str, u64>,
    gauges: BTreeMap<&'static str, GaugeStat>,
    hists: BTreeMap<&'static str, Histogram>,
    spans: BTreeMap<&'static str, SpanStat>,
    events: Vec<Event>,
}

/// In-memory metrics sink: aggregates counters, gauges, histograms, spans
/// and events. Progress heartbeats are deliberately *not* recorded (their
/// presence depends on wall-clock cadence; snapshots must not).
///
/// # Examples
///
/// ```
/// use layered_core::telemetry::{MetricsRegistry, Observer};
///
/// let reg = MetricsRegistry::new();
/// reg.counter("engine.states_visited", 3);
/// reg.gauge("engine.frontier_width", 12);
/// let snap = reg.snapshot();
/// assert_eq!(snap.counter("engine.states_visited"), 3);
/// assert_eq!(snap.gauge_max("engine.frontier_width"), 12);
/// ```
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    inner: Mutex<RegistryInner>,
}

impl MetricsRegistry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Freezes the current totals into an immutable snapshot.
    ///
    /// # Panics
    ///
    /// Panics if the registry mutex was poisoned.
    #[must_use]
    pub fn snapshot(&self) -> MetricsSnapshot {
        let inner = self.inner.lock().expect("metrics registry poisoned");
        MetricsSnapshot {
            counters: inner.counters.clone(),
            gauges: inner.gauges.clone(),
            hists: inner.hists.clone(),
            spans: inner.spans.clone(),
            events: inner.events.clone(),
        }
    }
}

impl Observer for MetricsRegistry {
    fn enabled(&self) -> bool {
        true
    }

    fn counter(&self, name: &'static str, delta: u64) {
        let mut inner = self.inner.lock().expect("metrics registry poisoned");
        *inner.counters.entry(name).or_insert(0) += delta;
    }

    fn gauge(&self, name: &'static str, value: u64) {
        let mut inner = self.inner.lock().expect("metrics registry poisoned");
        let g = inner.gauges.entry(name).or_default();
        g.last = value;
        g.max = g.max.max(value);
    }

    fn histogram(&self, name: &'static str, value: u64) {
        let mut inner = self.inner.lock().expect("metrics registry poisoned");
        inner.hists.entry(name).or_default().record(value);
    }

    fn span_end(&self, name: &'static str, nanos: u64) {
        let mut inner = self.inner.lock().expect("metrics registry poisoned");
        let s = inner.spans.entry(name).or_default();
        s.count += 1;
        s.total_nanos += nanos;
    }

    fn event(&self, name: &'static str, detail: &str) {
        let mut inner = self.inner.lock().expect("metrics registry poisoned");
        inner.events.push(Event {
            name,
            detail: detail.to_string(),
        });
    }
}

/// An immutable view of a [`MetricsRegistry`]'s totals.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Counter totals by name.
    pub counters: BTreeMap<&'static str, u64>,
    /// Gauge statistics by name.
    pub gauges: BTreeMap<&'static str, GaugeStat>,
    /// Histograms by name.
    pub hists: BTreeMap<&'static str, Histogram>,
    /// Span statistics by name.
    pub spans: BTreeMap<&'static str, SpanStat>,
    /// Events in recording order.
    pub events: Vec<Event>,
}

impl MetricsSnapshot {
    /// The total of a counter, `0` if never incremented.
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// The maximum a gauge reached, `0` if never set.
    #[must_use]
    pub fn gauge_max(&self, name: &str) -> u64 {
        self.gauges.get(name).map_or(0, |g| g.max)
    }

    /// The last value a gauge held, `0` if never set.
    #[must_use]
    pub fn gauge_last(&self, name: &str) -> u64 {
        self.gauges.get(name).map_or(0, |g| g.last)
    }

    /// The named histogram, if any samples were recorded.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.hists.get(name)
    }

    /// Total nanoseconds across completed spans of `name`, `0` if none.
    #[must_use]
    pub fn span_total_ns(&self, name: &str) -> u64 {
        self.spans.get(name).map_or(0, |s| s.total_nanos)
    }

    /// Sum of all counters sharing a `prefix.` (e.g. `engine`).
    #[must_use]
    pub fn counter_prefix_total(&self, prefix: &str) -> u64 {
        self.counters
            .iter()
            .filter(|(name, _)| {
                name.strip_prefix(prefix)
                    .is_some_and(|rest| rest.starts_with('.'))
            })
            .map(|(_, v)| v)
            .sum()
    }

    /// The snapshot as a [`json::Json`] object (`{"counters": {...},
    /// "gauges": {...}, "histograms": {...}, "spans": {...},
    /// "events": [...]}`).
    #[must_use]
    pub fn to_json(&self) -> json::Json {
        use json::Json;
        let counters = Json::Object(
            self.counters
                .iter()
                .map(|(k, &v)| ((*k).to_string(), Json::from(v)))
                .collect(),
        );
        let gauges = Json::Object(
            self.gauges
                .iter()
                .map(|(k, g)| {
                    (
                        (*k).to_string(),
                        Json::Object(vec![
                            ("last".into(), Json::from(g.last)),
                            ("max".into(), Json::from(g.max)),
                        ]),
                    )
                })
                .collect(),
        );
        let histograms = Json::Object(
            self.hists
                .iter()
                .map(|(k, h)| ((*k).to_string(), h.to_json()))
                .collect(),
        );
        let spans = Json::Object(
            self.spans
                .iter()
                .map(|(k, s)| {
                    (
                        (*k).to_string(),
                        Json::Object(vec![
                            ("count".into(), Json::from(s.count)),
                            ("total_ns".into(), Json::from(s.total_nanos)),
                        ]),
                    )
                })
                .collect(),
        );
        let events = Json::Array(
            self.events
                .iter()
                .map(|e| {
                    Json::Object(vec![
                        ("name".into(), Json::String(e.name.to_string())),
                        ("detail".into(), Json::String(e.detail.clone())),
                    ])
                })
                .collect(),
        );
        Json::Object(vec![
            ("counters".into(), counters),
            ("gauges".into(), gauges),
            ("histograms".into(), histograms),
            ("spans".into(), spans),
            ("events".into(), events),
        ])
    }
}

/// Streaming sink: every telemetry event becomes one JSON object per line.
///
/// Record shapes:
///
/// ```text
/// {"type":"counter","name":"engine.states_visited","delta":42}
/// {"type":"gauge","name":"engine.frontier_width","value":96}
/// {"type":"histogram","name":"space.intern.probe_len","value":3}
/// {"type":"span_start","name":"checker.check_consensus"}
/// {"type":"span_end","name":"checker.check_consensus","ns":10250}
/// {"type":"event","name":"layering.stuck","detail":"no_bivalent_successor depth=2"}
/// {"type":"progress","name":"scan.progress","detail":"depth=3 frontier=96 ..."}
/// ```
///
/// Write errors are deliberately swallowed: telemetry must never fail an
/// analysis. The writer is flushed when the observer is dropped (or
/// earlier, via [`JsonlObserver::into_inner`]), so buffered records
/// survive every exit path.
#[derive(Debug)]
pub struct JsonlObserver<W: Write> {
    out: Mutex<Option<W>>,
}

impl<W: Write> JsonlObserver<W> {
    /// Wraps a writer.
    pub fn new(out: W) -> Self {
        JsonlObserver {
            out: Mutex::new(Some(out)),
        }
    }

    /// Flushes and returns the underlying writer.
    ///
    /// # Panics
    ///
    /// Panics if the writer mutex was poisoned.
    pub fn into_inner(mut self) -> W {
        let mut w = self
            .out
            .get_mut()
            .expect("jsonl writer poisoned")
            .take()
            .expect("writer present until into_inner");
        let _ = w.flush();
        w
    }

    fn write_line(&self, line: &str) {
        if let Ok(mut out) = self.out.lock() {
            if let Some(out) = out.as_mut() {
                let _ = writeln!(out, "{line}");
            }
        }
    }
}

impl<W: Write> Drop for JsonlObserver<W> {
    fn drop(&mut self) {
        if let Ok(slot) = self.out.get_mut() {
            if let Some(w) = slot.as_mut() {
                let _ = w.flush();
            }
        }
    }
}

impl<W: Write + Send> Observer for JsonlObserver<W> {
    fn enabled(&self) -> bool {
        true
    }

    fn counter(&self, name: &'static str, delta: u64) {
        self.write_line(&format!(
            "{{\"type\":\"counter\",\"name\":\"{}\",\"delta\":{delta}}}",
            json::escape(name)
        ));
    }

    fn gauge(&self, name: &'static str, value: u64) {
        self.write_line(&format!(
            "{{\"type\":\"gauge\",\"name\":\"{}\",\"value\":{value}}}",
            json::escape(name)
        ));
    }

    fn histogram(&self, name: &'static str, value: u64) {
        self.write_line(&format!(
            "{{\"type\":\"histogram\",\"name\":\"{}\",\"value\":{value}}}",
            json::escape(name)
        ));
    }

    fn span_start(&self, name: &'static str) {
        self.write_line(&format!(
            "{{\"type\":\"span_start\",\"name\":\"{}\"}}",
            json::escape(name)
        ));
    }

    fn span_end(&self, name: &'static str, nanos: u64) {
        self.write_line(&format!(
            "{{\"type\":\"span_end\",\"name\":\"{}\",\"ns\":{nanos}}}",
            json::escape(name)
        ));
    }

    fn event(&self, name: &'static str, detail: &str) {
        self.write_line(&format!(
            "{{\"type\":\"event\",\"name\":\"{}\",\"detail\":\"{}\"}}",
            json::escape(name),
            json::escape(detail)
        ));
    }

    fn progress(&self, name: &'static str, detail: &str) {
        self.write_line(&format!(
            "{{\"type\":\"progress\",\"name\":\"{}\",\"detail\":\"{}\"}}",
            json::escape(name),
            json::escape(detail)
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_observer_is_disabled_and_silent() {
        let obs = NoopObserver;
        assert!(!obs.enabled());
        assert!(!obs.wants_span_records());
        obs.counter("x", 1);
        obs.gauge("x", 1);
        obs.histogram("x", 1);
        obs.event("x", "y");
        obs.progress("x", "y");
        {
            let span = Span::enter(&obs, "s");
            assert_eq!(span.id(), 0);
        }
    }

    #[test]
    fn registry_aggregates_counters_gauges_spans_events() {
        let reg = MetricsRegistry::new();
        reg.counter("a.count", 2);
        reg.counter("a.count", 3);
        reg.gauge("a.width", 7);
        reg.gauge("a.width", 4);
        reg.span_end("a.span", 100);
        reg.span_end("a.span", 50);
        reg.event("a.stuck", "why");
        let snap = reg.snapshot();
        assert_eq!(snap.counter("a.count"), 5);
        assert_eq!(snap.counter("missing"), 0);
        let g = snap.gauges["a.width"];
        assert_eq!((g.last, g.max), (4, 7));
        let s = snap.spans["a.span"];
        assert_eq!((s.count, s.total_nanos), (2, 150));
        assert_eq!(snap.events.len(), 1);
        assert_eq!(snap.events[0].detail, "why");
    }

    #[test]
    fn registry_aggregates_histograms() {
        let reg = MetricsRegistry::new();
        for v in [1u64, 2, 3, 100] {
            reg.histogram("a.dist", v);
        }
        let snap = reg.snapshot();
        let h = snap.histogram("a.dist").expect("recorded");
        assert_eq!(h.count(), 4);
        assert_eq!(h.max(), 100);
        assert!(snap.histogram("missing").is_none());
    }

    #[test]
    fn registry_ignores_progress() {
        let reg = MetricsRegistry::new();
        reg.progress("scan.progress", "depth=1");
        assert_eq!(reg.snapshot().events.len(), 0);
    }

    #[test]
    fn prefix_totals_sum_engine_counters() {
        let reg = MetricsRegistry::new();
        reg.counter("engine.states_visited", 10);
        reg.counter("engine.dedup_hits", 4);
        reg.counter("engineering.other", 99);
        let snap = reg.snapshot();
        assert_eq!(snap.counter_prefix_total("engine"), 14);
    }

    #[test]
    fn span_guard_records_into_registry() {
        let reg = MetricsRegistry::new();
        {
            let _span = Span::enter(&reg, "timed");
        }
        let snap = reg.snapshot();
        assert_eq!(snap.spans["timed"].count, 1);
    }

    #[test]
    fn fanout_tees_to_all_targets() {
        let a = MetricsRegistry::new();
        let b = MetricsRegistry::new();
        let tee = Fanout::new(&[&a, &b]);
        tee.counter("a.count", 1);
        tee.gauge("a.width", 2);
        tee.histogram("a.dist", 3);
        {
            let _span = Span::enter(&tee, "a.span");
        }
        for reg in [&a, &b] {
            let snap = reg.snapshot();
            assert_eq!(snap.counter("a.count"), 1);
            assert_eq!(snap.gauge_max("a.width"), 2);
            assert_eq!(snap.histogram("a.dist").map(Histogram::count), Some(1));
            assert_eq!(snap.spans["a.span"].count, 1);
        }
    }

    #[test]
    fn fanout_with_trace_gives_registry_aggregates_and_records() {
        let reg = MetricsRegistry::new();
        let tr = TraceObserver::new();
        let tee = Fanout::new(&[&reg, &tr]);
        {
            let _outer = Span::enter(&tee, "space.build");
            let _inner = Span::enter(&tee, "space.layer");
        }
        assert_eq!(reg.snapshot().spans["space.build"].count, 1);
        let spans = tr.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, spans[1].id);
    }

    #[test]
    fn heartbeat_period_zero_fires_every_tick() {
        let reg = MetricsRegistry::new();
        let jsonl = JsonlObserver::new(Vec::new());
        let tee = Fanout::new(&[&reg, &jsonl]);
        let mut hb = Heartbeat::with_period_ns(0);
        hb.tick(&tee, 1, 10, 100);
        hb.tick(&tee, 2, 20, 200);
        // The registry stays clean; the stream carries the progress lines.
        assert_eq!(reg.snapshot().events.len(), 0);
        let text = String::from_utf8(jsonl.into_inner()).expect("utf8");
        assert_eq!(text.lines().count(), 2);
        assert!(text.contains("\"type\":\"progress\""), "in {text}");
        assert!(text.contains("depth=2 frontier=20 states=200"), "in {text}");
    }

    #[test]
    fn heartbeat_long_period_fires_once() {
        let jsonl = JsonlObserver::new(Vec::new());
        let mut hb = Heartbeat::with_period_ns(u64::MAX);
        for i in 0..100 {
            hb.tick(&jsonl, i, 1, i);
        }
        let text = String::from_utf8(jsonl.into_inner()).expect("utf8");
        // Only the first tick (last_ns == 0) fires within u64::MAX period.
        assert_eq!(text.lines().count(), 1);
    }

    #[test]
    fn heartbeat_skips_clock_when_disabled() {
        let mut hb = Heartbeat::with_period_ns(0);
        hb.tick(&NOOP, 1, 1, 1);
        assert_eq!(hb.start_ns, 0, "disabled observer must not start the clock");
    }

    #[test]
    fn snapshot_json_round_trips() {
        let reg = MetricsRegistry::new();
        reg.counter("a.count", 5);
        reg.gauge("a.width", 7);
        reg.histogram("a.dist", 9);
        reg.span_end("a.span", 30);
        reg.event("a.evt", "de\"tail");
        let rendered = reg.snapshot().to_json().to_string();
        let parsed = json::Json::parse(&rendered).expect("valid json");
        assert_eq!(
            parsed["counters"]["a.count"].as_u64(),
            Some(5),
            "in {rendered}"
        );
        assert_eq!(parsed["gauges"]["a.width"]["max"].as_u64(), Some(7));
        assert_eq!(parsed["histograms"]["a.dist"]["count"].as_u64(), Some(1));
        assert_eq!(parsed["histograms"]["a.dist"]["p50"].as_u64(), Some(9));
        assert_eq!(parsed["spans"]["a.span"]["total_ns"].as_u64(), Some(30));
        assert_eq!(parsed["events"][0]["detail"].as_str(), Some("de\"tail"));
    }

    #[test]
    fn jsonl_observer_emits_one_valid_object_per_line() {
        let obs = JsonlObserver::new(Vec::new());
        obs.counter("c", 1);
        obs.gauge("g", 2);
        obs.histogram("h", 9);
        obs.span_start("s");
        obs.span_end("s", 3);
        obs.event("e", "detail with \"quotes\" and\nnewline");
        obs.progress("p", "depth=1");
        let buf = obs.into_inner();
        let text = String::from_utf8(buf).expect("utf8");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 7);
        for line in lines {
            let v = json::Json::parse(line).expect("each line parses");
            assert!(v["type"].as_str().is_some(), "line {line} has a type");
        }
    }

    /// A writer that marks a shared flag when flushed, so tests can see
    /// whether drop reached the underlying writer.
    struct FlagWriter {
        flushed: std::sync::Arc<std::sync::atomic::AtomicBool>,
        wrote: std::sync::Arc<std::sync::atomic::AtomicU64>,
    }

    impl Write for FlagWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.wrote.fetch_add(buf.len() as u64, Ordering::Relaxed);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            self.flushed.store(true, Ordering::Relaxed);
            Ok(())
        }
    }

    #[test]
    fn jsonl_observer_flushes_on_drop() {
        let flushed = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        let wrote = std::sync::Arc::new(AtomicU64::new(0));
        {
            let obs = JsonlObserver::new(FlagWriter {
                flushed: flushed.clone(),
                wrote: wrote.clone(),
            });
            obs.counter("c", 1);
            assert!(!flushed.load(Ordering::Relaxed));
        }
        assert!(
            flushed.load(Ordering::Relaxed),
            "drop must flush buffered records"
        );
        assert!(wrote.load(Ordering::Relaxed) > 0);
    }

    #[test]
    fn jsonl_into_inner_does_not_double_flush() {
        let flushed = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        let wrote = std::sync::Arc::new(AtomicU64::new(0));
        let obs = JsonlObserver::new(FlagWriter {
            flushed: flushed.clone(),
            wrote: wrote.clone(),
        });
        obs.event("e", "x");
        let _w = obs.into_inner();
        assert!(flushed.load(Ordering::Relaxed));
    }
}
