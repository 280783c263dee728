//! Metric cells, stage spans and the registry that exposes them.
//!
//! The flow is: a component registers its metrics once at construction time
//! against a [`MetricsRegistry`] (getting back cheap clonable cells), then
//! increments/records through the cells on the hot path with no further
//! registry involvement. Reporting walks the registry cold: a
//! [`MetricsSnapshot`] is an owned point-in-time copy that can be rendered
//! as text or diffed against an earlier snapshot to isolate an interval.
//!
//! Counters and gauges are *always* live — exact per-call statistics
//! (`BatchStats`-style) are computed by diffing them around a call, so they
//! cannot be turned off. The [`Telemetry`] enabled flag gates only the parts
//! with measurable cost: clock reads in untraced [`Span`]s and histogram
//! recording.

use crate::clock::{Clock, MonotonicClock};
use crate::histogram::{Histogram, HistogramSnapshot};
use crate::trace::{SpanId, TraceCursor};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// A monotonically increasing atomic counter cell.
///
/// Clones share the same cell, so a component can keep one copy and hand
/// another to the registry.
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// A fresh, unregistered counter at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-value (or running-max) atomic gauge cell.
#[derive(Debug, Clone, Default)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// A fresh, unregistered gauge at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Overwrites the value.
    #[inline]
    pub fn set(&self, value: u64) {
        self.0.store(value, Ordering::Relaxed);
    }

    /// Raises the gauge to `value` if it is larger than the current reading
    /// (used for high-water marks like `checkpoint_stall_ns`).
    #[inline]
    pub fn record_max(&self, value: u64) {
        self.0.fetch_max(value, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// The shared time source and master enable switch for instrumentation.
///
/// Cloning is cheap (two `Arc`s); every [`Stage`] carries a clone so a
/// single [`Telemetry::set_enabled`] call flips the whole pipeline.
#[derive(Clone)]
pub struct Telemetry {
    clock: Arc<dyn Clock>,
    enabled: Arc<AtomicBool>,
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry")
            .field("enabled", &self.enabled())
            .finish_non_exhaustive()
    }
}

impl Telemetry {
    /// Production telemetry: monotonic clock, enabled.
    pub fn monotonic() -> Self {
        Self::with_clock(Arc::new(MonotonicClock::new()))
    }

    /// Telemetry over an explicit clock (tests pass a
    /// [`MockClock`](crate::MockClock)).
    pub fn with_clock(clock: Arc<dyn Clock>) -> Self {
        Telemetry {
            clock,
            enabled: Arc::new(AtomicBool::new(true)),
        }
    }

    /// Whether untraced spans and histograms are live.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Turns timing instrumentation on or off at runtime (counters and
    /// gauges stay live either way).
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Reads the clock.
    #[inline]
    pub fn now_nanos(&self) -> u64 {
        self.clock.now_nanos()
    }
}

impl Default for Telemetry {
    fn default() -> Self {
        Self::monotonic()
    }
}

/// A named pipeline stage whose latencies feed one histogram.
///
/// Created by [`MetricsRegistry::stage`]; enter it with [`Stage::enter`].
#[derive(Debug, Clone)]
pub struct Stage {
    name: &'static str,
    histogram: Arc<Histogram>,
    telemetry: Telemetry,
}

impl Stage {
    /// The histogram this stage records into.
    pub fn histogram(&self) -> &Arc<Histogram> {
        &self.histogram
    }

    /// Starts one pass through the stage — the one measurement its
    /// histogram, its trace span and the caller's own stats all report.
    /// When `cursor` records, a span named after the stage
    /// (`service.stage.cache_lookup_ns` → `cache_lookup`) opens under it and
    /// the pass is timed on the trace's clock, telemetry enabled or not;
    /// under [`TraceCursor::NONE`] it is timed iff telemetry is enabled.
    #[inline]
    pub fn enter<'a>(&'a self, cursor: TraceCursor<'a>) -> Span<'a> {
        let (started, span) = match cursor.ctx {
            Some(ctx) => {
                let at = ctx.now_nanos();
                let last = self.name.rsplit('.').next().unwrap_or(self.name);
                let name = last.strip_suffix("_ns").unwrap_or(last);
                (Some(at), ctx.begin_span_at(name, cursor.parent, at))
            }
            None => {
                let telemetry = &self.telemetry;
                let started = telemetry.enabled().then(|| telemetry.now_nanos());
                (started, SpanId::NONE)
            }
        };
        Span {
            stage: self,
            under: cursor.at(span),
            started,
        }
    }
}

/// An open pass through a [`Stage`], from [`Stage::enter`].
///
/// Finishing (or dropping) it reads the clock once, feeds the elapsed
/// nanoseconds to the stage's histogram iff telemetry is enabled and closes
/// the trace span iff one was opened. Untraced with telemetry disabled the
/// span never reads the clock and [`Span::finish`] returns
/// [`Duration::ZERO`] — callers that feed wall-clock fields from spans
/// therefore report zeros with metrics off.
#[derive(Debug)]
#[must_use = "a span measures nothing unless it lives across the timed code"]
pub struct Span<'a> {
    stage: &'a Stage,
    /// Rooted at this pass's trace span; `NONE` when untraced.
    under: TraceCursor<'a>,
    started: Option<u64>,
}

impl<'a> Span<'a> {
    /// A cursor parenting under this pass's trace span, for what runs
    /// inside the stage.
    pub fn cursor(&self) -> TraceCursor<'a> {
        self.under
    }

    /// Stops the span, records it, and returns the elapsed time.
    #[inline]
    pub fn finish(self) -> Duration {
        self.finish_with(&[])
    }

    /// [`Span::finish`], attaching `attrs` to the trace span.
    #[inline]
    pub fn finish_with(mut self, attrs: &[(&'static str, u64)]) -> Duration {
        self.close(attrs)
    }

    /// Abandons the pass as if it never ran: no histogram sample, and the
    /// trace span it opened is taken back
    /// ([`TraceContext::discard_span`](crate::TraceContext::discard_span)),
    /// so nothing may have been recorded under it.
    pub fn cancel(mut self) {
        self.started = None;
        if let Some(ctx) = self.under.ctx {
            ctx.discard_span(self.under.parent);
        }
    }

    fn close(&mut self, attrs: &[(&'static str, u64)]) -> Duration {
        let Some(started) = self.started.take() else {
            return Duration::ZERO;
        };
        let now = match self.under.ctx {
            Some(ctx) => ctx.now_nanos(),
            None => self.stage.telemetry.now_nanos(),
        };
        let nanos = now.saturating_sub(started);
        if self.stage.telemetry.enabled() {
            self.stage.histogram.record(nanos);
        }
        if let Some(ctx) = self.under.ctx {
            ctx.end_span_at(self.under.parent, now, attrs);
        }
        Duration::from_nanos(nanos)
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        self.close(&[]);
    }
}

/// One registered metric cell.
#[derive(Debug, Clone)]
pub enum Metric {
    /// A monotonically increasing count.
    Counter(Counter),
    /// A point-in-time or high-water value.
    Gauge(Gauge),
    /// A latency distribution.
    Histogram(Arc<Histogram>),
}

/// A stable handle to a registered metric (its index in registration order).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct MetricId(usize);

/// The set of metrics one component (or one service) exposes.
///
/// Registration happens once, at construction, through `&mut self`; after
/// that the registry is read-only and the returned cells are the only way to
/// write. Names must be unique `'static` strings — they double as the
/// stable exposition ids.
#[derive(Debug, Default, Clone)]
pub struct MetricsRegistry {
    telemetry: Telemetry,
    entries: Vec<(&'static str, Metric)>,
}

impl MetricsRegistry {
    /// An empty registry with production (monotonic) telemetry.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty registry over the given telemetry (tests inject a mock
    /// clock here).
    pub fn with_telemetry(telemetry: Telemetry) -> Self {
        MetricsRegistry {
            telemetry,
            entries: Vec::new(),
        }
    }

    /// The registry's shared clock + enable switch.
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    fn register(&mut self, name: &'static str, metric: Metric) {
        assert!(self.id(name).is_none(), "metric {name:?} registered twice");
        self.entries.push((name, metric));
    }

    /// Registers and returns a counter. Panics on a duplicate name.
    pub fn counter(&mut self, name: &'static str) -> Counter {
        let cell = Counter::new();
        self.register(name, Metric::Counter(cell.clone()));
        cell
    }

    /// Registers and returns a gauge. Panics on a duplicate name.
    pub fn gauge(&mut self, name: &'static str) -> Gauge {
        let cell = Gauge::new();
        self.register(name, Metric::Gauge(cell.clone()));
        cell
    }

    /// Registers and returns a histogram. Panics on a duplicate name.
    pub fn histogram(&mut self, name: &'static str) -> Arc<Histogram> {
        let cell = Arc::new(Histogram::new());
        self.register(name, Metric::Histogram(cell.clone()));
        cell
    }

    /// Registers a histogram and wraps it as an enterable [`Stage`] bound to
    /// this registry's telemetry. Panics on a duplicate name.
    pub fn stage(&mut self, name: &'static str) -> Stage {
        Stage {
            name,
            histogram: self.histogram(name),
            telemetry: self.telemetry.clone(),
        }
    }

    /// The id of a registered metric, if present.
    pub fn id(&self, name: &str) -> Option<MetricId> {
        self.entries
            .iter()
            .position(|&(n, _)| n == name)
            .map(MetricId)
    }

    /// The name behind an id. Panics if the id is from another registry.
    pub fn name(&self, id: MetricId) -> &'static str {
        self.entries[id.0].0
    }

    /// The cell behind an id. Panics if the id is from another registry.
    pub fn metric(&self, id: MetricId) -> &Metric {
        &self.entries[id.0].1
    }

    /// Number of registered metrics.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// An owned point-in-time copy of every metric, sorted by name.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut entries: Vec<(&'static str, MetricValue)> = self
            .entries
            .iter()
            .map(|(name, metric)| {
                let value = match metric {
                    Metric::Counter(c) => MetricValue::Counter(c.get()),
                    Metric::Gauge(g) => MetricValue::Gauge(g.get()),
                    Metric::Histogram(h) => MetricValue::Histogram(h.snapshot()),
                };
                (*name, value)
            })
            .collect();
        entries.sort_by_key(|&(name, _)| name);
        MetricsSnapshot { entries }
    }

    /// The current state in the text exposition format
    /// (see [`MetricsSnapshot::to_text`]).
    pub fn render_text(&self) -> String {
        self.snapshot().to_text()
    }
}

/// One metric's value inside a [`MetricsSnapshot`].
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// Counter reading.
    Counter(u64),
    /// Gauge reading.
    Gauge(u64),
    /// Histogram copy.
    Histogram(HistogramSnapshot),
}

/// An owned point-in-time copy of a [`MetricsRegistry`], sorted by name.
///
/// Snapshots render to text and diff: `later.diff(&earlier)` subtracts
/// counters and histogram buckets (isolating the interval's samples) and
/// keeps the later gauge readings.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsSnapshot {
    entries: Vec<(&'static str, MetricValue)>,
}

impl MetricsSnapshot {
    /// The value of a metric, if present.
    pub fn get(&self, name: &str) -> Option<&MetricValue> {
        self.entries
            .binary_search_by(|&(n, _)| n.cmp(name))
            .ok()
            .map(|i| &self.entries[i].1)
    }

    /// Counter reading by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        match self.get(name)? {
            MetricValue::Counter(v) => Some(*v),
            _ => None,
        }
    }

    /// Gauge reading by name.
    pub fn gauge(&self, name: &str) -> Option<u64> {
        match self.get(name)? {
            MetricValue::Gauge(v) => Some(*v),
            _ => None,
        }
    }

    /// Histogram copy by name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        match self.get(name)? {
            MetricValue::Histogram(h) => Some(h),
            _ => None,
        }
    }

    /// Iterates `(name, value)` pairs in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, &MetricValue)> {
        self.entries.iter().map(|(n, v)| (*n, v))
    }

    /// Number of metrics in the snapshot.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the snapshot is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The interval between `earlier` and `self` (both snapshots of the same
    /// registry, `earlier` taken first): counters and histograms subtract,
    /// gauges keep the later reading, metrics new in `self` pass through.
    pub fn diff(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        let entries = self
            .entries
            .iter()
            .map(|(name, value)| {
                let value = match (value, earlier.get(name)) {
                    (MetricValue::Counter(v), Some(MetricValue::Counter(e))) => {
                        MetricValue::Counter(v.saturating_sub(*e))
                    }
                    (MetricValue::Histogram(h), Some(MetricValue::Histogram(e))) => {
                        MetricValue::Histogram(h.diff(e))
                    }
                    _ => value.clone(),
                };
                (*name, value)
            })
            .collect();
        MetricsSnapshot { entries }
    }

    /// Renders the snapshot as one `key=value` row per metric:
    ///
    /// ```text
    /// counter=<name> value=<n>
    /// gauge=<name> value=<n>
    /// histogram=<name> count=<n> p50=<ns> p90=<ns> p99=<ns> p999=<ns> max=<ns> mean=<ns>
    /// ```
    ///
    /// Rows are sorted by metric name; all latency figures are nanoseconds.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for (name, value) in &self.entries {
            match value {
                MetricValue::Counter(v) => {
                    let _ = writeln!(out, "counter={name} value={v}");
                }
                MetricValue::Gauge(v) => {
                    let _ = writeln!(out, "gauge={name} value={v}");
                }
                MetricValue::Histogram(h) => {
                    let _ = writeln!(
                        out,
                        "histogram={name} count={} p50={} p90={} p99={} p999={} max={} mean={:.0}",
                        h.count(),
                        h.percentile(50.0),
                        h.percentile(90.0),
                        h.percentile(99.0),
                        h.percentile(99.9),
                        h.max().unwrap_or(0),
                        h.mean(),
                    );
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::MockClock;
    use crate::trace::{TraceContext, TraceId};

    fn mock_registry() -> (MetricsRegistry, Arc<MockClock>) {
        let clock = Arc::new(MockClock::new());
        let registry = MetricsRegistry::with_telemetry(Telemetry::with_clock(clock.clone()));
        (registry, clock)
    }

    #[test]
    fn counters_and_gauges_read_back() {
        let mut registry = MetricsRegistry::new();
        let hits = registry.counter("cache.hits");
        let stall = registry.gauge("checkpoint.stall");
        hits.inc();
        hits.add(4);
        stall.record_max(70);
        stall.record_max(30);
        let snap = registry.snapshot();
        assert_eq!(snap.counter("cache.hits"), Some(5));
        assert_eq!(snap.gauge("checkpoint.stall"), Some(70));
        assert_eq!(snap.counter("missing"), None);
    }

    #[test]
    #[should_panic(expected = "registered twice")]
    fn duplicate_names_panic() {
        let mut registry = MetricsRegistry::new();
        let _a = registry.counter("x");
        let _b = registry.gauge("x");
    }

    #[test]
    fn metric_ids_are_stable_handles() {
        let mut registry = MetricsRegistry::new();
        let _c = registry.counter("b.second");
        let _h = registry.histogram("a.first");
        let id = registry.id("a.first").expect("registered");
        assert_eq!(registry.name(id), "a.first");
        assert!(matches!(registry.metric(id), Metric::Histogram(_)));
        assert_eq!(registry.id("nope"), None);
        assert_eq!(registry.len(), 2);
    }

    #[test]
    fn spans_record_mock_elapsed_time() {
        let (mut registry, clock) = mock_registry();
        let stage = registry.stage("stage.filter_ns");
        let span = stage.enter(TraceCursor::NONE);
        clock.advance(1_500);
        assert_eq!(span.finish(), Duration::from_nanos(1_500));
        clock.advance(10);
        {
            let _implicit = stage.enter(TraceCursor::NONE);
            clock.advance(2_500);
            // Dropped without finish(): still records.
        }
        assert_eq!(stage.histogram().count(), 2);
        assert_eq!(stage.histogram().max(), Some(2_500));
    }

    #[test]
    fn disabled_telemetry_skips_spans_but_not_counters() {
        let (mut registry, clock) = mock_registry();
        let stage = registry.stage("stage.verify_ns");
        let ops = registry.counter("ops");
        registry.telemetry().set_enabled(false);
        let span = stage.enter(TraceCursor::NONE);
        clock.advance(9_999);
        ops.inc();
        assert_eq!(span.finish(), Duration::ZERO);
        assert!(stage.histogram().is_empty());
        assert_eq!(ops.get(), 1);
        registry.telemetry().set_enabled(true);
        let span = stage.enter(TraceCursor::NONE);
        clock.advance(5);
        span.finish();
        assert_eq!(stage.histogram().count(), 1);
    }

    /// One pass, one measurement: the histogram sample, the span and the
    /// returned duration are the same number.
    #[test]
    fn a_traced_pass_reports_once_to_histogram_and_span() {
        let (mut registry, clock) = mock_registry();
        let stage = registry.stage("service.stage.cache_lookup_ns");
        let ctx = TraceContext::begin(TraceId::from_raw(1), registry.telemetry().clone());
        let root = ctx.begin_span("request", SpanId::NONE);
        clock.advance(40);
        let span = stage.enter(TraceCursor::new(&ctx, root));
        let inner = span.cursor().begin("child");
        clock.advance(700);
        let elapsed = span.finish_with(&[("queries", 16), ("cache_hits", 3)]);
        assert_eq!(elapsed, Duration::from_nanos(700));
        assert_eq!(stage.histogram().count(), 1);
        assert_eq!(stage.histogram().max(), Some(700));
        let done = ctx.finish();
        let spans = done.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].name(), "cache_lookup");
        assert_eq!(spans[1].parent(), Some(root));
        assert_eq!((spans[1].start_ns(), spans[1].dur_ns()), (40, 700));
        assert_eq!(spans[1].attrs(), [("queries", 16), ("cache_hits", 3)]);
        assert_eq!(inner.index(), Some(2));
        assert_eq!(spans[2].parent().and_then(|p| p.index()), Some(1));
    }

    /// A cancelled pass leaves nothing behind: no sample, and its span is
    /// taken back from the trace, so the next span reuses its slot.
    #[test]
    fn a_cancelled_pass_records_nothing() {
        let (mut registry, clock) = mock_registry();
        let stage = registry.stage("service.stage.cache_lookup_ns");
        let ctx = TraceContext::begin(TraceId::from_raw(3), registry.telemetry().clone());
        let root = ctx.begin_span("request", SpanId::NONE);
        let span = stage.enter(TraceCursor::new(&ctx, root));
        clock.advance(300);
        span.cancel();
        stage.enter(TraceCursor::NONE).cancel();
        assert!(stage.histogram().is_empty());
        assert_eq!(ctx.span_count(), 1);
        // Only the latest span can be taken back.
        let kept = ctx.begin_span("queue", root);
        ctx.begin_span("later", root);
        ctx.discard_span(kept);
        assert_eq!(ctx.span_count(), 3);
    }

    #[test]
    fn an_untraced_pass_feeds_the_histogram_only() {
        let (mut registry, clock) = mock_registry();
        let stage = registry.stage("storage.wal.fsync_ns");
        let span = stage.enter(TraceCursor::NONE);
        assert!(!span.cursor().begin("child").is_some());
        clock.advance(90);
        assert_eq!(span.finish_with(&[("frames", 1)]), Duration::from_nanos(90));
        assert_eq!(stage.histogram().count(), 1);
    }

    /// Metrics off must not blank a trace: the span keeps the real duration
    /// (and the caller gets it), only the histogram stays empty.
    #[test]
    fn a_traced_pass_with_telemetry_disabled_keeps_the_real_duration() {
        let (mut registry, clock) = mock_registry();
        let stage = registry.stage("service.stage.finalize_ns");
        registry.telemetry().set_enabled(false);
        let ctx = TraceContext::begin(TraceId::from_raw(2), registry.telemetry().clone());
        let span = stage.enter(TraceCursor::new(&ctx, SpanId::NONE));
        clock.advance(1_234);
        assert_eq!(span.finish(), Duration::from_nanos(1_234));
        assert!(stage.histogram().is_empty());
        let done = ctx.finish();
        assert_eq!(done.spans().len(), 1);
        assert_eq!(done.spans()[0].name(), "finalize");
        assert_eq!(done.spans()[0].dur_ns(), 1_234);
    }

    #[test]
    fn exposition_text_is_sorted_and_parseable() {
        let (mut registry, clock) = mock_registry();
        let stage = registry.stage("b.stage_ns");
        let hits = registry.counter("a.hits");
        let depth = registry.gauge("c.depth");
        hits.add(3);
        depth.set(11);
        let span = stage.enter(TraceCursor::NONE);
        clock.advance(100);
        span.finish();
        let text = registry.render_text();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], "counter=a.hits value=3");
        assert!(lines[1].starts_with("histogram=b.stage_ns count=1 p50=100"));
        assert!(lines[1].contains("p999=100"));
        assert!(lines[1].contains("max=100"));
        assert_eq!(lines[2], "gauge=c.depth value=11");
    }

    #[test]
    fn snapshot_diff_subtracts_counters_and_keeps_gauges() {
        let mut registry = MetricsRegistry::new();
        let hits = registry.counter("hits");
        let depth = registry.gauge("depth");
        hits.add(10);
        depth.set(5);
        let earlier = registry.snapshot();
        hits.add(7);
        depth.set(2);
        let diff = registry.snapshot().diff(&earlier);
        assert_eq!(diff.counter("hits"), Some(7));
        assert_eq!(diff.gauge("depth"), Some(2));
    }
}
