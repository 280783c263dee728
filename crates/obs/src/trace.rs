//! Per-request distributed tracing: trace ids with deterministic head
//! sampling, a bounded per-trace span tree, and the slow-query log.
//!
//! A trace is born at the serving edge (or at a test/bench harness), carried
//! through every layer as a [`TraceContext`], and finished into a
//! [`CompletedTrace`] when the root request is answered. Three properties
//! are load-bearing:
//!
//! * **Deterministic sampling.** [`TraceId::sampled`] is a pure function of
//!   the trace id — a splitmix64 hash compared against the probability —
//!   so every shard, worker and layer makes the *same* keep/drop decision
//!   without any coordination. A distributed fleet never records half a
//!   trace.
//! * **Bounded, alloc-free span recording.** Each trace owns a slab of at
//!   most [`MAX_TRACE_SPANS`] fixed-size [`TraceSpan`]s, preallocated when
//!   the trace begins. Recording a span is one mutex hold and one slot
//!   write; when the slab is full further spans are counted as dropped,
//!   never reallocated.
//! * **Slow-query promotion.** A [`SlowQueryLog`] observes every completed
//!   trace; any trace whose root span exceeded the threshold is *promoted*
//!   into a fixed-capacity ring, retaining its full span tree. The
//!   `promoted == over_threshold` counter invariant is machine-independent
//!   and held by `rknnt-net`'s `net_server` suite.

use crate::metrics::Telemetry;
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Upper bound on spans retained per trace (the slab size).
pub const MAX_TRACE_SPANS: usize = 64;

/// Upper bound on attributes per span (extra attributes are truncated).
pub const MAX_SPAN_ATTRS: usize = 4;

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Identifies one end-to-end request trace.
///
/// Ids are opaque `u64`s chosen by the trace originator (the client or a
/// harness); the all-important property is that the *sampling decision*
/// ([`TraceId::sampled`]) depends only on the id, so independent processes
/// agree on it without coordination.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TraceId(u64);

impl TraceId {
    /// Wraps a raw id.
    pub fn from_raw(raw: u64) -> Self {
        TraceId(raw)
    }

    /// The raw id (what travels on the wire).
    pub fn raw(&self) -> u64 {
        self.0
    }

    /// The deterministic head-sampling decision at `probability` ∈ [0, 1].
    ///
    /// Pure in the id: every call, on every machine, returns the same
    /// answer for the same `(id, probability)` pair. `probability >= 1.0`
    /// always samples; `<= 0.0` (and NaN) never does.
    pub fn sampled(&self, probability: f64) -> bool {
        // NaN must fall into the "never sample" arm, so the comparison is
        // written to be false for NaN rather than negated.
        if probability.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
            return false;
        }
        if probability >= 1.0 {
            return true;
        }
        let threshold = (probability * (u64::MAX as f64)) as u64;
        splitmix64(self.0) <= threshold
    }
}

/// Handle to one span inside a trace's slab.
///
/// Handles are only meaningful against the [`TraceContext`] that issued
/// them. [`SpanId::NONE`] is the "no span" sentinel: it is returned when
/// the slab is full and is silently ignored by every recording method, so
/// callers never need to branch on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(u16);

impl SpanId {
    /// The "no parent / no span" sentinel.
    pub const NONE: SpanId = SpanId(u16::MAX);

    /// Whether this handle refers to a real slab slot.
    pub fn is_some(&self) -> bool {
        *self != SpanId::NONE
    }

    /// The slab index this handle refers to (`None` for the sentinel).
    /// Indexes [`CompletedTrace::spans`].
    pub fn index(&self) -> Option<usize> {
        if self.is_some() {
            Some(self.0 as usize)
        } else {
            None
        }
    }
}

/// One fixed-size span: a named interval with a parent link and up to
/// [`MAX_SPAN_ATTRS`] integer attributes. `Copy`, no heap — the slab of
/// these is the whole per-trace allocation.
#[derive(Debug, Clone, Copy)]
pub struct TraceSpan {
    name: &'static str,
    start_ns: u64,
    dur_ns: u64,
    parent: u16,
    attrs: [(&'static str, u64); MAX_SPAN_ATTRS],
    attr_len: u8,
}

impl TraceSpan {
    /// The span's static name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Start offset in nanoseconds (the trace telemetry clock's origin).
    pub fn start_ns(&self) -> u64 {
        self.start_ns
    }

    /// Duration in nanoseconds (0 while the span is still open).
    pub fn dur_ns(&self) -> u64 {
        self.dur_ns
    }

    /// The parent span, if any.
    pub fn parent(&self) -> Option<SpanId> {
        if self.parent == u16::MAX {
            None
        } else {
            Some(SpanId(self.parent))
        }
    }

    /// The recorded attributes, in recording order.
    pub fn attrs(&self) -> &[(&'static str, u64)] {
        &self.attrs[..self.attr_len as usize]
    }

    /// Looks up one attribute by name.
    pub fn attr(&self, name: &str) -> Option<u64> {
        self.attrs()
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }

    fn with_attrs(mut self, attrs: &[(&'static str, u64)]) -> Self {
        let take = attrs.len().min(MAX_SPAN_ATTRS);
        self.attrs[..take].copy_from_slice(&attrs[..take]);
        self.attr_len = take as u8;
        self
    }
}

struct TraceBuf {
    spans: Vec<TraceSpan>,
    dropped: u32,
}

/// A live trace: the id plus the shared span slab.
///
/// Cloning is cheap (an `Arc` bump) and every clone records into the same
/// slab, so the context threads freely across layers and worker threads.
/// Span recording never allocates: the slab is preallocated at
/// [`TraceContext::begin`] and capped at [`MAX_TRACE_SPANS`]; overflow
/// increments a dropped counter instead of growing.
#[derive(Clone)]
pub struct TraceContext {
    id: TraceId,
    telemetry: Telemetry,
    buf: Arc<Mutex<TraceBuf>>,
}

impl std::fmt::Debug for TraceContext {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceContext")
            .field("id", &self.id)
            .finish()
    }
}

impl TraceContext {
    /// Starts a trace: preallocates the span slab and captures the clock.
    pub fn begin(id: TraceId, telemetry: Telemetry) -> Self {
        TraceContext {
            id,
            telemetry,
            buf: Arc::new(Mutex::new(TraceBuf {
                spans: Vec::with_capacity(MAX_TRACE_SPANS),
                dropped: 0,
            })),
        }
    }

    /// The trace id.
    pub fn id(&self) -> TraceId {
        self.id
    }

    /// Reads the trace's clock (nanoseconds; same origin as span starts).
    pub fn now_nanos(&self) -> u64 {
        self.telemetry.now_nanos()
    }

    /// Opens a span under `parent` (pass [`SpanId::NONE`] for a root span).
    /// Returns [`SpanId::NONE`] — and counts a drop — if the slab is full.
    pub fn begin_span(&self, name: &'static str, parent: SpanId) -> SpanId {
        self.begin_span_at(name, parent, self.telemetry.now_nanos())
    }

    /// [`TraceContext::begin_span`] from a reading of this trace's clock the
    /// caller already took.
    pub(crate) fn begin_span_at(
        &self,
        name: &'static str,
        parent: SpanId,
        start_ns: u64,
    ) -> SpanId {
        self.push(TraceSpan {
            name,
            start_ns,
            dur_ns: 0,
            parent: parent.0,
            attrs: [("", 0); MAX_SPAN_ATTRS],
            attr_len: 0,
        })
    }

    /// Closes a span, setting its duration from the clock. No-op for
    /// [`SpanId::NONE`] or a handle from another trace.
    pub fn end_span(&self, span: SpanId) {
        self.end_span_with(span, &[]);
    }

    /// Closes a span and attaches attributes (truncated at
    /// [`MAX_SPAN_ATTRS`]).
    pub fn end_span_with(&self, span: SpanId, attrs: &[(&'static str, u64)]) {
        if span.is_some() {
            self.end_span_at(span, self.telemetry.now_nanos(), attrs);
        }
    }

    /// [`TraceContext::end_span_with`] from a reading of this trace's clock
    /// the caller already took.
    pub(crate) fn end_span_at(&self, span: SpanId, end_ns: u64, attrs: &[(&'static str, u64)]) {
        let mut buf = self.buf.lock().expect("trace buf poisoned");
        if let Some(slot) = buf.spans.get_mut(span.0 as usize) {
            slot.dur_ns = end_ns.saturating_sub(slot.start_ns);
            *slot = slot.with_attrs(attrs);
        }
    }

    /// Takes back `span` — a tentative span whose work turned out not to
    /// happen, such as a cache probe that missed. Only the latest span
    /// recorded can be taken back, so nothing may have been recorded under
    /// or after it; for any other span (or [`SpanId::NONE`]) this is a
    /// no-op.
    pub fn discard_span(&self, span: SpanId) {
        let mut buf = self.buf.lock().expect("trace buf poisoned");
        if span.is_some() && usize::from(span.0) + 1 == buf.spans.len() {
            buf.spans.pop();
        }
    }

    /// Records an already-measured interval as a closed span, its start
    /// back-dated `dur_ns` from "now" — a decision marker (`dur_ns` 0) or an
    /// interval measured elsewhere. A pipeline stage opens its span through
    /// [`Stage::enter`](crate::Stage::enter) instead.
    pub fn record_closed(
        &self,
        name: &'static str,
        parent: SpanId,
        dur_ns: u64,
        attrs: &[(&'static str, u64)],
    ) -> SpanId {
        let now = self.telemetry.now_nanos();
        let span = TraceSpan {
            name,
            start_ns: now.saturating_sub(dur_ns),
            dur_ns,
            parent: parent.0,
            attrs: [("", 0); MAX_SPAN_ATTRS],
            attr_len: 0,
        }
        .with_attrs(attrs);
        self.push(span)
    }

    /// Number of spans currently recorded.
    pub fn span_count(&self) -> usize {
        self.buf.lock().expect("trace buf poisoned").spans.len()
    }

    /// Finishes the trace, draining the slab into a [`CompletedTrace`].
    /// Clones of this context left behind record into an empty slab and
    /// are harmless.
    pub fn finish(&self) -> CompletedTrace {
        let mut buf = self.buf.lock().expect("trace buf poisoned");
        CompletedTrace {
            id: self.id,
            spans: std::mem::take(&mut buf.spans),
            dropped: std::mem::take(&mut buf.dropped),
        }
    }

    fn push(&self, span: TraceSpan) -> SpanId {
        let mut buf = self.buf.lock().expect("trace buf poisoned");
        if buf.spans.len() >= MAX_TRACE_SPANS {
            buf.dropped += 1;
            return SpanId::NONE;
        }
        let id = SpanId(buf.spans.len() as u16);
        buf.spans.push(span);
        id
    }
}

/// A position inside a live trace: the context plus the span a callee
/// should parent its own spans under — or nowhere at all. This is what
/// crosses layer boundaries: the server opens its `execute` span and hands
/// the service a cursor rooted there, so the service never needs to know
/// the net layer's span layout, and an untraced caller hands
/// [`TraceCursor::NONE`], on which every method is inert (no clock read, no
/// lock, [`SpanId::NONE`] handles), so no layer branches on "traced or not".
///
/// `Copy`: a cursor borrows its [`TraceContext`] and is passed by value.
#[derive(Debug, Clone, Copy)]
pub struct TraceCursor<'a> {
    pub(crate) ctx: Option<&'a TraceContext>,
    pub(crate) parent: SpanId,
}

impl<'a> TraceCursor<'a> {
    /// The untraced cursor: records nothing, and so does every cursor
    /// derived from it.
    pub const NONE: TraceCursor<'static> = TraceCursor {
        ctx: None,
        parent: SpanId::NONE,
    };

    /// A cursor parenting new spans under `parent`.
    pub fn new(ctx: &'a TraceContext, parent: SpanId) -> Self {
        TraceCursor {
            ctx: Some(ctx),
            parent,
        }
    }

    /// Opens a child span; close it with [`TraceCursor::end`] /
    /// [`TraceCursor::end_with`].
    pub fn begin(&self, name: &'static str) -> SpanId {
        self.ctx
            .map_or(SpanId::NONE, |ctx| ctx.begin_span(name, self.parent))
    }

    /// Closes a span opened by [`TraceCursor::begin`].
    pub fn end(&self, span: SpanId) {
        self.end_with(span, &[]);
    }

    /// Closes a span with attributes.
    pub fn end_with(&self, span: SpanId, attrs: &[(&'static str, u64)]) {
        if let Some(ctx) = self.ctx {
            ctx.end_span_with(span, attrs);
        }
    }

    /// Records an already-measured child span (see
    /// [`TraceContext::record_closed`]).
    pub fn record(&self, name: &'static str, dur_ns: u64, attrs: &[(&'static str, u64)]) -> SpanId {
        self.ctx.map_or(SpanId::NONE, |ctx| {
            ctx.record_closed(name, self.parent, dur_ns, attrs)
        })
    }

    /// A cursor over the same trace parenting under `span` instead.
    pub fn at(&self, span: SpanId) -> TraceCursor<'a> {
        TraceCursor {
            ctx: self.ctx,
            parent: span,
        }
    }
}

/// A finished trace: the id, the span slab in recording order (the root is
/// span 0 by convention), and how many spans overflowed the slab.
#[derive(Debug, Clone)]
pub struct CompletedTrace {
    id: TraceId,
    spans: Vec<TraceSpan>,
    dropped: u32,
}

impl CompletedTrace {
    /// The trace id.
    pub fn id(&self) -> TraceId {
        self.id
    }

    /// The recorded spans, in recording order.
    pub fn spans(&self) -> &[TraceSpan] {
        &self.spans
    }

    /// Spans that overflowed the slab and were not retained.
    pub fn dropped(&self) -> u32 {
        self.dropped
    }

    /// Duration of the first-recorded span — the root request span by
    /// convention. 0 for an empty trace.
    pub fn root_duration_ns(&self) -> u64 {
        self.spans.first().map(|s| s.dur_ns).unwrap_or(0)
    }

    /// Renders the span tree, indented by depth, one span per line.
    pub fn render(&self) -> String {
        let mut out = format!(
            "trace {:#018x} root_dur_ns={} spans={} dropped={}\n",
            self.id.raw(),
            self.root_duration_ns(),
            self.spans.len(),
            self.dropped
        );
        for span in &self.spans {
            let mut depth = 0usize;
            let mut cursor = span.parent;
            // Depth by parent walk; the slab is tiny and acyclic (parents
            // always precede children), so this terminates.
            while cursor != u16::MAX && depth <= MAX_TRACE_SPANS {
                depth += 1;
                cursor = match self.spans.get(cursor as usize) {
                    Some(p) => p.parent,
                    None => u16::MAX,
                };
            }
            let _ = write!(
                out,
                "{:indent$}{} start_ns={} dur_ns={}",
                "",
                span.name(),
                span.start_ns(),
                span.dur_ns(),
                indent = 2 * (depth + 1)
            );
            for (name, value) in span.attrs() {
                let _ = write!(out, " {name}={value}");
            }
            out.push('\n');
        }
        out
    }
}

/// One promoted slow trace with its full span tree.
#[derive(Debug, Clone)]
pub struct SlowQueryEntry {
    /// The promoted trace.
    pub trace: CompletedTrace,
}

/// A fixed-capacity ring of the slowest requests.
///
/// Every completed trace passes through [`SlowQueryLog::observe`]; traces
/// whose root duration exceeds the threshold are *promoted* into the ring
/// (evicting the oldest entry at capacity). Three counters make the
/// promotion pipeline auditable without timing assumptions:
/// `completed` ≥ `over_threshold` == `promoted`, always — the
/// `net_server` suite of `rknnt-net` asserts the equality exactly.
pub struct SlowQueryLog {
    threshold_ns: u64,
    capacity: usize,
    ring: Mutex<VecDeque<SlowQueryEntry>>,
    completed: AtomicU64,
    over_threshold: AtomicU64,
    promoted: AtomicU64,
}

impl std::fmt::Debug for SlowQueryLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SlowQueryLog")
            .field("threshold_ns", &self.threshold_ns)
            .field("capacity", &self.capacity)
            .field("completed", &self.completed.load(Ordering::Relaxed))
            .field("promoted", &self.promoted.load(Ordering::Relaxed))
            .finish()
    }
}

impl SlowQueryLog {
    /// A log promoting traces slower than `threshold_ns`, retaining the
    /// most recent `capacity` of them (clamped to at least 1).
    pub fn new(threshold_ns: u64, capacity: usize) -> Self {
        SlowQueryLog {
            threshold_ns,
            capacity: capacity.max(1),
            ring: Mutex::new(VecDeque::new()),
            completed: AtomicU64::new(0),
            over_threshold: AtomicU64::new(0),
            promoted: AtomicU64::new(0),
        }
    }

    /// The promotion threshold in nanoseconds.
    pub fn threshold_ns(&self) -> u64 {
        self.threshold_ns
    }

    /// The ring capacity (entries retained).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Observes a completed trace, promoting it if its root duration
    /// exceeds the threshold.
    pub fn observe(&self, trace: CompletedTrace) {
        self.completed.fetch_add(1, Ordering::Relaxed);
        if trace.root_duration_ns() <= self.threshold_ns {
            return;
        }
        self.over_threshold.fetch_add(1, Ordering::Relaxed);
        let mut ring = self.ring.lock().expect("slow-query ring poisoned");
        if ring.len() >= self.capacity {
            ring.pop_front();
        }
        ring.push_back(SlowQueryEntry { trace });
        self.promoted.fetch_add(1, Ordering::Relaxed);
    }

    /// Traces observed so far.
    pub fn completed(&self) -> u64 {
        self.completed.load(Ordering::Relaxed)
    }

    /// Observed traces whose root exceeded the threshold.
    pub fn over_threshold(&self) -> u64 {
        self.over_threshold.load(Ordering::Relaxed)
    }

    /// Traces promoted into the ring (equals
    /// [`SlowQueryLog::over_threshold`] by construction; the
    /// `net_server` suite asserts the equality end to end).
    pub fn promoted(&self) -> u64 {
        self.promoted.load(Ordering::Relaxed)
    }

    /// Entries currently retained.
    pub fn len(&self) -> usize {
        self.ring.lock().expect("slow-query ring poisoned").len()
    }

    /// Whether the ring is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Clones out the retained entries, oldest first.
    pub fn entries(&self) -> Vec<SlowQueryEntry> {
        self.ring
            .lock()
            .expect("slow-query ring poisoned")
            .iter()
            .cloned()
            .collect()
    }

    /// Renders the retained entries for humans (and for panic-time dumps).
    pub fn render(&self) -> String {
        let entries = self.entries();
        let mut out = format!(
            "slow-query log: {} retained of {} promoted ({} completed, threshold {} ns)\n",
            entries.len(),
            self.promoted(),
            self.completed(),
            self.threshold_ns
        );
        for entry in &entries {
            out.push_str(&entry.trace.render());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::MockClock;
    use crate::metrics::Telemetry;

    fn mock() -> (Arc<MockClock>, Telemetry) {
        let clock = Arc::new(MockClock::new());
        let telemetry = Telemetry::with_clock(clock.clone());
        (clock, telemetry)
    }

    #[test]
    fn sampling_is_deterministic_and_respects_extremes() {
        for raw in [0u64, 1, 42, u64::MAX] {
            let id = TraceId::from_raw(raw);
            assert!(id.sampled(1.0));
            assert!(id.sampled(2.5));
            assert!(!id.sampled(0.0));
            assert!(!id.sampled(-1.0));
            assert!(!id.sampled(f64::NAN));
            assert_eq!(id.sampled(0.3), id.sampled(0.3));
        }
    }

    #[test]
    fn sampling_rate_tracks_probability() {
        let hits = (0..10_000u64)
            .filter(|&raw| TraceId::from_raw(raw).sampled(0.5))
            .count();
        assert!((4_000..=6_000).contains(&hits), "hits={hits}");
        // Monotone in p for a fixed id: sampled at p implies sampled at p' > p.
        for raw in 0..500u64 {
            let id = TraceId::from_raw(raw);
            if id.sampled(0.2) {
                assert!(id.sampled(0.7));
            }
        }
    }

    #[test]
    fn span_tree_records_durations_parents_and_attrs() {
        let (clock, telemetry) = mock();
        let ctx = TraceContext::begin(TraceId::from_raw(7), telemetry);
        let root = ctx.begin_span("request", SpanId::NONE);
        clock.advance(10);
        let child = ctx.begin_span("execute", root);
        clock.advance(30);
        ctx.end_span_with(child, &[("batch", 4)]);
        clock.advance(5);
        ctx.end_span(root);

        let done = ctx.finish();
        assert_eq!(done.id(), TraceId::from_raw(7));
        assert_eq!(done.spans().len(), 2);
        assert_eq!(done.dropped(), 0);
        let spans = done.spans();
        assert_eq!(spans[0].name(), "request");
        assert_eq!(spans[0].parent(), None);
        assert_eq!(spans[0].dur_ns(), 45);
        assert_eq!(done.root_duration_ns(), 45);
        assert_eq!(spans[1].name(), "execute");
        assert_eq!(spans[1].parent(), Some(root));
        assert_eq!(spans[1].start_ns(), 10);
        assert_eq!(spans[1].dur_ns(), 30);
        assert_eq!(spans[1].attr("batch"), Some(4));
        assert_eq!(spans[1].attr("missing"), None);

        let text = done.render();
        assert!(text.contains("request"));
        assert!(text.contains("batch=4"));
    }

    #[test]
    fn slab_overflow_counts_drops_and_never_grows() {
        let (_, telemetry) = mock();
        let ctx = TraceContext::begin(TraceId::from_raw(1), telemetry);
        let root = ctx.begin_span("request", SpanId::NONE);
        for _ in 0..(MAX_TRACE_SPANS + 10) {
            let span = ctx.begin_span("child", root);
            ctx.end_span(span);
        }
        assert_eq!(ctx.span_count(), MAX_TRACE_SPANS);
        let done = ctx.finish();
        assert_eq!(done.spans().len(), MAX_TRACE_SPANS);
        assert_eq!(done.dropped() as usize, 11);
        // Overflow handles are inert sentinels.
        assert!(!SpanId::NONE.is_some());
    }

    #[test]
    fn record_closed_backdates_the_start() {
        let (clock, telemetry) = mock();
        clock.set(1_000);
        let ctx = TraceContext::begin(TraceId::from_raw(9), telemetry);
        let span = ctx.record_closed("cache_lookup", SpanId::NONE, 250, &[("hits", 3)]);
        assert!(span.is_some());
        let done = ctx.finish();
        assert_eq!(done.spans()[0].start_ns(), 750);
        assert_eq!(done.spans()[0].dur_ns(), 250);
        assert_eq!(done.spans()[0].attr("hits"), Some(3));
    }

    #[test]
    fn attrs_truncate_at_the_cap() {
        let (_, telemetry) = mock();
        let ctx = TraceContext::begin(TraceId::from_raw(2), telemetry);
        let attrs: Vec<(&'static str, u64)> =
            vec![("a", 1), ("b", 2), ("c", 3), ("d", 4), ("e", 5)];
        let span = ctx.record_closed("over", SpanId::NONE, 1, &attrs);
        assert!(span.is_some());
        let done = ctx.finish();
        assert_eq!(done.spans()[0].attrs().len(), MAX_SPAN_ATTRS);
        assert_eq!(done.spans()[0].attr("e"), None);
    }

    #[test]
    fn cursor_parents_children_under_its_span() {
        let (clock, telemetry) = mock();
        let ctx = TraceContext::begin(TraceId::from_raw(3), telemetry);
        let root = ctx.begin_span("request", SpanId::NONE);
        let cursor = TraceCursor::new(&ctx, root);
        let exec = cursor.begin("execute");
        clock.advance(12);
        cursor.end(exec);
        let nested = cursor.at(exec);
        nested.record("shard", 4, &[("shard", 2), ("pruned", 1)]);
        ctx.end_span(root);
        let done = ctx.finish();
        assert_eq!(done.spans()[1].parent(), Some(root));
        assert_eq!(done.spans()[2].parent(), Some(exec));
        assert_eq!(done.spans()[2].attr("pruned"), Some(1));
    }

    #[test]
    fn the_none_cursor_is_inert_and_stays_inert() {
        let cursor = TraceCursor::NONE;
        assert_eq!(cursor.begin("batch"), SpanId::NONE);
        let nested = cursor.at(SpanId(3));
        assert_eq!(nested.begin("group"), SpanId::NONE);
        assert_eq!(nested.record("shard", 0, &[("pruned", 1)]), SpanId::NONE);
        nested.end_with(SpanId(3), &[("jobs", 1)]);
    }

    #[test]
    fn slow_log_promotes_exactly_the_over_threshold_traces() {
        let (clock, telemetry) = mock();
        let log = SlowQueryLog::new(100, 2);
        let mut slow_ids = Vec::new();
        for i in 0..6u64 {
            let ctx = TraceContext::begin(TraceId::from_raw(i), telemetry.clone());
            let root = ctx.begin_span("request", SpanId::NONE);
            // Odd traces are slow (150 ns), even ones fast (50 ns).
            let dur = if i % 2 == 1 { 150 } else { 50 };
            clock.advance(dur);
            ctx.end_span(root);
            if i % 2 == 1 {
                slow_ids.push(TraceId::from_raw(i));
            }
            log.observe(ctx.finish());
        }
        assert_eq!(log.completed(), 6);
        assert_eq!(log.over_threshold(), 3);
        assert_eq!(log.promoted(), 3);
        // Capacity 2: the ring retains the two most recent promotions.
        assert_eq!(log.len(), 2);
        let retained: Vec<TraceId> = log.entries().iter().map(|e| e.trace.id()).collect();
        assert_eq!(retained, slow_ids[1..].to_vec());
        assert!(log.render().contains("threshold 100 ns"));
    }

    #[test]
    fn slow_log_exact_threshold_is_not_promoted() {
        let (clock, telemetry) = mock();
        let log = SlowQueryLog::new(100, 4);
        let ctx = TraceContext::begin(TraceId::from_raw(1), telemetry);
        let root = ctx.begin_span("request", SpanId::NONE);
        clock.advance(100);
        ctx.end_span(root);
        log.observe(ctx.finish());
        assert_eq!(log.completed(), 1);
        assert_eq!(log.over_threshold(), 0);
        assert_eq!(log.promoted(), 0);
        assert!(log.is_empty());
    }

    #[test]
    fn zero_capacity_clamps_to_one() {
        let log = SlowQueryLog::new(0, 0);
        assert_eq!(log.capacity(), 1);
    }
}
