//! Hermetic telemetry for the RkNNT workspace.
//!
//! The source paper's evaluation lives and dies by *stage-level* cost
//! breakdowns — filtering vs. verification time is what separates the four
//! engines — so the reproduction needs first-class measurement machinery,
//! not ad-hoc counters threaded by hand. This crate provides it with zero
//! external dependencies:
//!
//! * [`Histogram`] — a fixed-memory log-linear latency histogram
//!   (HdrHistogram-style): `record`/`percentile`/`merge` over `u64`
//!   nanoseconds, ≤6.25% relative bucket error, ~8 KiB per histogram.
//! * [`Counter`] / [`Gauge`] — cheap clonable atomic cells.
//! * [`MetricsRegistry`] — register-once metric cells with static string
//!   ids, a `key=value` text exposition format ([`MetricsSnapshot::to_text`])
//!   and point-in-time [`MetricsSnapshot`]s that diff to isolate intervals.
//! * [`Stage`] / [`Span`] — stage timing over a pluggable [`Clock`]
//!   (monotonic in production, [`MockClock`] in tests): one
//!   `stage.enter(cursor)` … `finish_with(attrs)` pass is one measurement,
//!   reported to the stage's histogram, to the request's span tree and back
//!   to the caller.
//! * [`TraceContext`] / [`TraceCursor`] — a bounded per-request span tree
//!   with deterministic head sampling; "untraced" is the value
//!   [`TraceCursor::NONE`], not an `Option`. [`SlowQueryLog`] retains the
//!   trees of the slowest requests.
//!
//! Everything on the hot path is allocation-free (preallocated cells and
//! span slots, relaxed atomics); the [`Telemetry`] enable switch turns the
//! costed parts (clock reads of untraced spans, histogram records) off at
//! runtime, while counters and gauges stay live so exact per-call stats
//! keep working. The `instrumentation_overhead` experiment gates the enabled
//! cost at ≤5% of service throughput.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod clock;
mod histogram;
mod metrics;
mod trace;

pub use clock::{Clock, MockClock, MonotonicClock};
pub use histogram::{Histogram, HistogramSnapshot};
pub use metrics::{
    Counter, Gauge, Metric, MetricId, MetricValue, MetricsRegistry, MetricsSnapshot, Span, Stage,
    Telemetry,
};
pub use trace::{
    CompletedTrace, SlowQueryEntry, SlowQueryLog, SpanId, TraceContext, TraceCursor, TraceId,
    TraceSpan, MAX_SPAN_ATTRS, MAX_TRACE_SPANS,
};
