//! Dependency-free telemetry for the analysis engines.
//!
//! The engines in this crate — reachability ([`Region`](crate::Region)),
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
//! `layering.extensions`, …). Every name is a typed [`Name`] constant in
//! [`names`], so an unregistered name does not compile, and names of
//! timing-valued metrics end in `_ns` — the suffix the byte-stability
//! contract strips.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
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
pub use names::Name;
pub use trace::{InstantRecord, SpanRecord, TraceObserver};

/// Receiver for engine telemetry.
///
/// All methods default to no-ops so sinks only implement what they need.
/// Methods take `&self`: sinks use interior mutability, which lets one
/// observer be shared by several engines in a single analysis.
pub trait Observer {
    /// Whether this observer records anything. Engines may skip computing
    /// expensive telemetry (e.g. span timing) when this is `false`.
    fn enabled(&self) -> bool {
        false
    }

    /// Adds `delta` to the named monotone counter.
    fn counter(&self, name: Name, delta: u64) {
        let _ = (name, delta);
    }

    /// Records an instantaneous level (frontier width, chain length, …).
    /// Sinks keep both the last and the maximum observed value.
    fn gauge(&self, name: Name, value: u64) {
        let _ = (name, value);
    }

    /// Records one sample into the named distribution (probe length,
    /// fan-out, per-layer nanoseconds, …). Sinks bucket log-scale; see
    /// [`Histogram`].
    fn histogram(&self, name: Name, value: u64) {
        let _ = (name, value);
    }

    /// Marks the start of a named span. Paired with [`Observer::span_end`];
    /// prefer the RAII [`Span`] guard over calling these directly.
    fn span_start(&self, name: Name) {
        let _ = name;
    }

    /// Marks the end of a named span that took `nanos` nanoseconds.
    fn span_end(&self, name: Name, nanos: u64) {
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
    fn event(&self, name: Name, detail: &str) {
        let _ = (name, detail);
    }

    /// Receives a progress heartbeat (see [`Heartbeat`]). Deliberately a
    /// separate channel from [`Observer::event`]: heartbeats fire on a
    /// wall-clock cadence, so [`MetricsRegistry`] ignores them to keep
    /// snapshots deterministic, while streaming/trace sinks surface them.
    fn progress(&self, name: Name, detail: &str) {
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
/// use layered_core::telemetry::{names, Fanout, MetricsRegistry, Observer, TraceObserver};
///
/// let reg = MetricsRegistry::new();
/// let trace = TraceObserver::new();
/// let tee = Fanout::new(&[&reg, &trace]);
/// tee.counter(names::ENGINE_STATES_VISITED, 1);
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

    fn counter(&self, name: Name, delta: u64) {
        for t in &self.targets {
            t.counter(name, delta);
        }
    }

    fn gauge(&self, name: Name, value: u64) {
        for t in &self.targets {
            t.gauge(name, value);
        }
    }

    fn histogram(&self, name: Name, value: u64) {
        for t in &self.targets {
            t.histogram(name, value);
        }
    }

    fn span_start(&self, name: Name) {
        for t in &self.targets {
            t.span_start(name);
        }
    }

    fn span_end(&self, name: Name, nanos: u64) {
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

    fn event(&self, name: Name, detail: &str) {
        for t in &self.targets {
            t.event(name, detail);
        }
    }

    fn progress(&self, name: Name, detail: &str) {
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
    name: Name,
    started: Option<u64>,
    ctx: Option<TraceCtx>,
}

impl<'a> Span<'a> {
    /// Starts the span (and the clock, if `obs` records anything).
    pub fn enter(obs: &'a dyn Observer, name: Name) -> Self {
        Span::enter_with(obs, name, &[])
    }

    /// Starts the span with static attribute pairs (layer depth, chunk
    /// size, …) that ride along on the [`SpanRecord`] when tracing.
    pub fn enter_with(obs: &'a dyn Observer, name: Name, attrs: &[(&'static str, u64)]) -> Self {
        let tracing = obs.wants_span_records();
        if !obs.enabled() && !tracing {
            return Span {
                obs,
                name,
                started: None,
                ctx: None,
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
        self.obs.span_end(self.name, end.saturating_sub(started));
        if let Some(ctx) = self.ctx.take() {
            trace::pop_open(ctx.id);
            self.obs.span_record(&SpanRecord {
                id: ctx.id,
                parent: ctx.parent,
                name: self.name.as_str(),
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
            names::SCAN_PROGRESS,
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

/// The atomically updated statistics of one registered name.
#[derive(Debug, Default)]
struct Slot {
    counter: AtomicU64,
    /// Whether [`Observer::counter`] was called for the name, so a counter
    /// that only ever received zero deltas still appears in snapshots.
    counted: AtomicBool,
    gauge_last: AtomicU64,
    gauge_max: AtomicU64,
    gauged: AtomicBool,
    span_count: AtomicU64,
    span_nanos: AtomicU64,
}

impl Slot {
    /// Sets `flag` once; the relaxed load keeps repeat calls write-free.
    fn touch(flag: &AtomicBool) {
        if !flag.load(Ordering::Relaxed) {
            flag.store(true, Ordering::Relaxed);
        }
    }
}

/// What the registry still keeps behind its lock: the histograms, which
/// are too large to hold one per name, and the ordered event log.
#[derive(Debug, Default)]
struct Locked {
    hists: BTreeMap<Name, Histogram>,
    events: Vec<Event>,
}

/// In-memory metrics sink: aggregates counters, gauges, histograms, spans
/// and events. Progress heartbeats are deliberately *not* recorded (their
/// presence depends on wall-clock cadence; snapshots must not).
///
/// Counters, gauges and span totals live in one slot of atomics per
/// registered [`Name`], indexed by [`Name::index`] and updated with relaxed
/// ordering, so those calls never lock. Histogram samples and events take
/// a single mutex. The registry may be shared across threads; totals are
/// exact, and a snapshot taken while other threads record sees each slot
/// at some point of its own history.
///
/// # Examples
///
/// ```
/// use layered_core::telemetry::{names, MetricsRegistry, Observer};
///
/// let reg = MetricsRegistry::new();
/// reg.counter(names::ENGINE_STATES_VISITED, 3);
/// reg.gauge(names::ENGINE_FRONTIER_WIDTH, 12);
/// let snap = reg.snapshot();
/// assert_eq!(snap.counter("engine.states_visited"), 3);
/// assert_eq!(snap.gauge_max("engine.frontier_width"), 12);
/// ```
#[derive(Debug)]
pub struct MetricsRegistry {
    slots: [Slot; names::COUNT],
    locked: Mutex<Locked>,
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        MetricsRegistry {
            slots: std::array::from_fn(|_| Slot::default()),
            locked: Mutex::default(),
        }
    }
}

impl MetricsRegistry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    fn slot(&self, name: Name) -> &Slot {
        &self.slots[name.index()]
    }

    /// Freezes the current totals into an immutable snapshot.
    ///
    /// # Panics
    ///
    /// Panics if the registry mutex was poisoned.
    #[must_use]
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::default();
        for (name, slot) in names::NAMES.iter().zip(&self.slots) {
            let key = name.as_str();
            if slot.counted.load(Ordering::Relaxed) {
                snap.counters
                    .insert(key, slot.counter.load(Ordering::Relaxed));
            }
            if slot.gauged.load(Ordering::Relaxed) {
                let last = slot.gauge_last.load(Ordering::Relaxed);
                let max = slot.gauge_max.load(Ordering::Relaxed);
                snap.gauges.insert(key, GaugeStat { last, max });
            }
            let count = slot.span_count.load(Ordering::Relaxed);
            if count > 0 {
                let total_nanos = slot.span_nanos.load(Ordering::Relaxed);
                snap.spans.insert(key, SpanStat { count, total_nanos });
            }
        }
        let locked = self.locked.lock().expect("metrics registry poisoned");
        snap.hists = locked
            .hists
            .iter()
            .map(|(name, h)| (name.as_str(), h.clone()))
            .collect();
        snap.events = locked.events.clone();
        snap
    }
}

impl Observer for MetricsRegistry {
    fn enabled(&self) -> bool {
        true
    }

    fn counter(&self, name: Name, delta: u64) {
        let slot = self.slot(name);
        slot.counter.fetch_add(delta, Ordering::Relaxed);
        Slot::touch(&slot.counted);
    }

    fn gauge(&self, name: Name, value: u64) {
        let slot = self.slot(name);
        slot.gauge_last.store(value, Ordering::Relaxed);
        if value > slot.gauge_max.load(Ordering::Relaxed) {
            slot.gauge_max.fetch_max(value, Ordering::Relaxed);
        }
        Slot::touch(&slot.gauged);
    }

    fn histogram(&self, name: Name, value: u64) {
        let mut locked = self.locked.lock().expect("metrics registry poisoned");
        locked.hists.entry(name).or_default().record(value);
    }

    fn span_end(&self, name: Name, nanos: u64) {
        let slot = self.slot(name);
        slot.span_nanos.fetch_add(nanos, Ordering::Relaxed);
        slot.span_count.fetch_add(1, Ordering::Relaxed);
    }

    fn event(&self, name: Name, detail: &str) {
        let mut locked = self.locked.lock().expect("metrics registry poisoned");
        locked.events.push(Event {
            name: name.as_str(),
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_observer_is_disabled_and_silent() {
        let obs = NoopObserver;
        assert!(!obs.enabled());
        assert!(!obs.wants_span_records());
        obs.counter(names::VALENCE_QUERIES, 1);
        obs.gauge(names::ENGINE_FRONTIER_WIDTH, 1);
        obs.histogram(names::SPACE_SUCC_FANOUT, 1);
        obs.event(names::LAYERING_STUCK, "y");
        obs.progress(names::SCAN_PROGRESS, "y");
        {
            let span = Span::enter(&obs, names::SPACE_BUILD);
            assert_eq!(span.id(), 0);
        }
    }

    #[test]
    fn registry_aggregates_counters_gauges_spans_events() {
        let reg = MetricsRegistry::new();
        reg.counter(names::ENGINE_STATES_VISITED, 2);
        reg.counter(names::ENGINE_STATES_VISITED, 3);
        reg.gauge(names::ENGINE_FRONTIER_WIDTH, 7);
        reg.gauge(names::ENGINE_FRONTIER_WIDTH, 4);
        reg.span_end(names::SPACE_LAYER, 100);
        reg.span_end(names::SPACE_LAYER, 50);
        reg.event(names::LAYERING_STUCK, "why");
        let snap = reg.snapshot();
        assert_eq!(snap.counter("engine.states_visited"), 5);
        assert_eq!(snap.counter("missing"), 0);
        let g = snap.gauges["engine.frontier_width"];
        assert_eq!((g.last, g.max), (4, 7));
        let s = snap.spans["space.layer"];
        assert_eq!((s.count, s.total_nanos), (2, 150));
        assert_eq!(snap.events.len(), 1);
        assert_eq!(snap.events[0].detail, "why");
    }

    #[test]
    fn registry_aggregates_histograms() {
        let reg = MetricsRegistry::new();
        for v in [1u64, 2, 3, 100] {
            reg.histogram(names::SPACE_SUCC_FANOUT, v);
        }
        let snap = reg.snapshot();
        let h = snap.histogram("space.succ_fanout").expect("recorded");
        assert_eq!(h.count(), 4);
        assert_eq!(h.max(), 100);
        assert!(snap.histogram("missing").is_none());
    }

    #[test]
    fn registry_ignores_progress() {
        let reg = MetricsRegistry::new();
        reg.progress(names::SCAN_PROGRESS, "depth=1");
        assert_eq!(reg.snapshot().events.len(), 0);
    }

    #[test]
    fn prefix_totals_sum_engine_counters() {
        let reg = MetricsRegistry::new();
        reg.counter(names::SPACE_CANON_HITS, 10);
        reg.counter(names::SPACE_CANON_ORBIT_STATES, 4);
        reg.counter(names::SPACE_CANONICALIZE, 99);
        let snap = reg.snapshot();
        assert_eq!(snap.counter_prefix_total("space.canon"), 14);
    }

    #[test]
    fn span_guard_records_into_registry() {
        let reg = MetricsRegistry::new();
        {
            let _span = Span::enter(&reg, names::SPACE_BUILD);
        }
        let snap = reg.snapshot();
        assert_eq!(snap.spans["space.build"].count, 1);
    }

    #[test]
    fn fanout_tees_to_all_targets() {
        let a = MetricsRegistry::new();
        let b = MetricsRegistry::new();
        let tee = Fanout::new(&[&a, &b]);
        tee.counter(names::ENGINE_STATES_VISITED, 1);
        tee.gauge(names::ENGINE_FRONTIER_WIDTH, 2);
        tee.histogram(names::SPACE_SUCC_FANOUT, 3);
        {
            let _span = Span::enter(&tee, names::SPACE_LAYER);
        }
        for reg in [&a, &b] {
            let snap = reg.snapshot();
            assert_eq!(snap.counter("engine.states_visited"), 1);
            assert_eq!(snap.gauge_max("engine.frontier_width"), 2);
            assert_eq!(
                snap.histogram("space.succ_fanout").map(Histogram::count),
                Some(1)
            );
            assert_eq!(snap.spans["space.layer"].count, 1);
        }
    }

    #[test]
    fn fanout_with_trace_gives_registry_aggregates_and_records() {
        let reg = MetricsRegistry::new();
        let tr = TraceObserver::new();
        let tee = Fanout::new(&[&reg, &tr]);
        {
            let _outer = Span::enter(&tee, names::SPACE_BUILD);
            let _inner = Span::enter(&tee, names::SPACE_LAYER);
        }
        assert_eq!(reg.snapshot().spans["space.build"].count, 1);
        let spans = tr.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, spans[1].id);
    }

    #[test]
    fn heartbeat_period_zero_fires_every_tick() {
        let reg = MetricsRegistry::new();
        let trace = TraceObserver::new();
        let tee = Fanout::new(&[&reg, &trace]);
        let mut hb = Heartbeat::with_period_ns(0);
        hb.tick(&tee, 1, 10, 100);
        hb.tick(&tee, 2, 20, 200);
        // The registry stays clean; the trace ring carries the progress lines.
        assert_eq!(reg.snapshot().events.len(), 0);
        let lines = trace.instants();
        assert_eq!(lines.len(), 2);
        assert!(lines.iter().all(|l| l.name == "scan.progress"));
        assert!(
            lines[1].detail.contains("depth=2 frontier=20 states=200"),
            "in {lines:?}"
        );
    }

    #[test]
    fn heartbeat_long_period_fires_once() {
        let trace = TraceObserver::new();
        let mut hb = Heartbeat::with_period_ns(u64::MAX);
        for i in 0..100 {
            hb.tick(&trace, i, 1, i);
        }
        // Only the first tick (last_ns == 0) fires within u64::MAX period.
        assert_eq!(trace.instants().len(), 1);
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
        reg.counter(names::ENGINE_STATES_VISITED, 5);
        reg.gauge(names::ENGINE_FRONTIER_WIDTH, 7);
        reg.histogram(names::SPACE_SUCC_FANOUT, 9);
        reg.span_end(names::SPACE_LAYER, 30);
        reg.event(names::SIM_VIOLATION, "de\"tail");
        let rendered = reg.snapshot().to_json().to_string();
        let parsed = json::Json::parse(&rendered).expect("valid json");
        assert_eq!(
            parsed["counters"]["engine.states_visited"].as_u64(),
            Some(5),
            "in {rendered}"
        );
        assert_eq!(
            parsed["gauges"]["engine.frontier_width"]["max"].as_u64(),
            Some(7)
        );
        assert_eq!(
            parsed["histograms"]["space.succ_fanout"]["count"].as_u64(),
            Some(1)
        );
        assert_eq!(
            parsed["histograms"]["space.succ_fanout"]["p50"].as_u64(),
            Some(9)
        );
        assert_eq!(
            parsed["spans"]["space.layer"]["total_ns"].as_u64(),
            Some(30)
        );
        assert_eq!(parsed["events"][0]["detail"].as_str(), Some("de\"tail"));
    }
}
