//! The span tree one traced batch produces, on each backing:
//!
//! ```text
//! batch
//! ├── cache_lookup
//! ├── grouping
//! ├── execution
//! │   └── worker*
//! │       └── group*
//! │           ├── filter_build*
//! │           └── shard*          (sharded backing only)
//! └── finalize
//! ```
//!
//! Names, parent links and attribute keys are an interface: the benchmark's
//! per-layer catalogue and the `net_server` trace cases read them. The
//! phase spans must also carry the *same* measurements the returned
//! [`BatchStats::timings`] report, and a `filter_build` span lies inside the
//! filtering time of the one query that built the filter.

use rknnt_core::RknntQuery;
use rknnt_geo::Point;
use rknnt_index::{RouteStore, TransitionStore};
use rknnt_obs::{CompletedTrace, SpanId, Telemetry, TraceContext, TraceCursor, TraceId, TraceSpan};
use rknnt_service::{BatchStats, QueryService, ServiceConfig, ShardedConfig, ShardedService};
use std::collections::BTreeSet;
use std::time::Duration;

fn p(x: f64, y: f64) -> Point {
    Point::new(x, y)
}

fn world() -> (Vec<Vec<Point>>, Vec<(Point, Point)>) {
    let routes = (0..6)
        .map(|row| {
            let y = row as f64 * 120.0;
            vec![
                p(0.0, y),
                p(400.0, y + 10.0),
                p(800.0, y),
                p(1200.0, y - 10.0),
            ]
        })
        .collect();
    let pairs = (0..80)
        .map(|i| {
            let x = (i % 10) as f64 * 120.0 + 15.0;
            let y = (i / 10) as f64 * 80.0 + 25.0;
            (p(x, y), p(x + 60.0, y + 30.0))
        })
        .collect();
    (routes, pairs)
}

/// Two spatial groups (so two workers run), a shared `(route, k)` pair, an
/// exact duplicate and — once the batch is repeated — cache hits.
fn batch() -> Vec<RknntQuery> {
    let near = vec![p(10.0, 75.0), p(500.0, 95.0), p(1100.0, 75.0)];
    let far = vec![p(6000.0, 200.0), p(6400.0, 260.0)];
    vec![
        RknntQuery::exists(near.clone(), 2),
        RknntQuery::for_all(near.clone(), 2),
        RknntQuery::exists(near, 2),
        RknntQuery::exists(far, 2),
    ]
}

fn config() -> ServiceConfig {
    ServiceConfig::default().with_workers(2)
}

/// Runs `execute` under a fresh trace rooted at one `request` span.
fn traced<T>(execute: impl FnOnce(TraceCursor<'_>) -> T) -> (CompletedTrace, T) {
    let ctx = TraceContext::begin(TraceId::from_raw(7), Telemetry::monotonic());
    let root = ctx.begin_span("request", SpanId::NONE);
    let out = execute(TraceCursor::new(&ctx, root));
    ctx.end_span(root);
    (ctx.finish(), out)
}

fn keys(span: &TraceSpan) -> BTreeSet<&'static str> {
    span.attrs().iter().map(|(key, _)| *key).collect()
}

fn set(names: &[&'static str]) -> BTreeSet<&'static str> {
    names.iter().copied().collect()
}

fn assert_shape(trace: &CompletedTrace, stats: &BatchStats, sharded: bool) {
    assert_eq!(trace.dropped(), 0);
    let spans = trace.spans();
    let parent_name = |span: &TraceSpan| {
        span.parent()
            .and_then(|id| id.index())
            .map(|i| spans[i].name())
    };
    let named =
        |name: &str| -> Vec<&TraceSpan> { spans.iter().filter(|s| s.name() == name).collect() };
    for span in spans {
        let (expected_parent, expected_keys) = match span.name() {
            "request" => (None, vec![set(&[])]),
            "batch" => (
                Some("request"),
                vec![set(&["queries", "cache_hits", "groups"])],
            ),
            "cache_lookup" => (Some("batch"), vec![set(&["queries", "cache_hits"])]),
            "grouping" => (Some("batch"), vec![set(&["groups"])]),
            "execution" => (Some("batch"), vec![set(&["workers"])]),
            "finalize" => (Some("batch"), vec![set(&["filter_constructions"])]),
            "worker" => (Some("execution"), vec![set(&["worker", "groups"])]),
            "group" => (Some("worker"), vec![set(&["jobs", "filter_builds"])]),
            "filter_build" => (Some("group"), vec![set(&["k"])]),
            "shard" => (
                Some("group"),
                vec![
                    set(&["shard", "pruned", "certificate"]),
                    set(&["shard", "pruned", "candidates"]),
                ],
            ),
            other => panic!("unexpected span {other:?}"),
        };
        assert_eq!(
            parent_name(span),
            expected_parent,
            "parent of {}",
            span.name()
        );
        assert!(
            expected_keys.contains(&keys(span)),
            "attribute keys of {}: {:?}",
            span.name(),
            keys(span)
        );
    }
    for phase in ["batch", "cache_lookup", "grouping", "execution", "finalize"] {
        assert_eq!(named(phase).len(), 1, "exactly one {phase} span");
    }
    assert_eq!(named("worker").len(), stats.workers_used);
    assert_eq!(named("group").len(), stats.groups);
    assert_eq!(named("filter_build").len(), stats.filter_constructions);
    assert_eq!(
        named("shard").is_empty(),
        !sharded,
        "shard spans iff sharded"
    );
    if sharded {
        let (skipped, consulted): (Vec<&TraceSpan>, Vec<&TraceSpan>) = named("shard")
            .into_iter()
            .partition(|s| s.attr("pruned") == Some(1));
        assert!(skipped.iter().all(|s| s.attr("certificate") == Some(1)));
        assert!(consulted.iter().all(|s| s.attr("candidates").is_some()));
    }

    // The recorded phases *are* the stats' measurements; `execution` is
    // bracketed by its own pair of clock reads right next to the stage
    // timer's (its children need the span open while they run), so it
    // agrees to within scheduling noise rather than to the nanosecond.
    let dur = |name: &str| Duration::from_nanos(named(name)[0].dur_ns());
    assert_eq!(dur("cache_lookup"), stats.timings.lookup);
    assert_eq!(dur("grouping"), stats.timings.grouping);
    assert_eq!(dur("finalize"), stats.timings.finalize);
    let gap = dur("execution").abs_diff(stats.timings.execution);
    assert!(
        gap < Duration::from_millis(50),
        "execution span off by {gap:?}"
    );
    let batch_span = named("batch")[0];
    assert_eq!(batch_span.attr("queries"), Some(stats.queries as u64));
    assert_eq!(batch_span.attr("cache_hits"), Some(stats.cache_hits as u64));
    assert_eq!(batch_span.attr("groups"), Some(stats.groups as u64));
}

#[test]
fn flat_backing_span_tree() {
    let (routes, pairs) = world();
    let (route_store, _) = RouteStore::bulk_build(Default::default(), routes);
    let transition_store = TransitionStore::bulk_build(Default::default(), pairs);
    let service = QueryService::new(route_store, transition_store, config());
    let queries = batch();
    let (trace, stats) = traced(|t| service.execute_batch_traced(&queries, t).1);
    assert_eq!((stats.groups, stats.workers_used), (2, 2));
    assert_eq!((stats.filter_constructions, stats.filters_saved), (2, 1));
    assert_eq!(stats.duplicates_coalesced, 1);
    assert_shape(&trace, &stats, false);
    // All hits: the phases are still there, the execution subtree is empty.
    let (trace, stats) = traced(|t| service.execute_batch_traced(&queries, t).1);
    assert_eq!(
        (stats.cache_hits, stats.groups, stats.workers_used),
        (4, 0, 0)
    );
    assert_shape(&trace, &stats, false);
}

#[test]
fn sharded_backing_span_tree() {
    let (routes, pairs) = world();
    let service = ShardedService::bulk_build(
        ShardedConfig::default().with_shards(4).with_base(config()),
        routes,
        pairs,
    );
    let queries = batch();
    let (trace, stats) = traced(|t| service.execute_batch_traced(&queries, t).1);
    assert_eq!((stats.groups, stats.workers_used), (2, 2));
    assert_eq!((stats.filter_constructions, stats.filters_saved), (2, 1));
    assert_eq!(stats.duplicates_coalesced, 1);
    assert_shape(&trace, &stats, true);
    // Three fresh executions, each considering every non-empty shard once.
    let considered = trace.spans().iter().filter(|s| s.name() == "shard").count();
    let router = service.router_stats();
    assert_eq!(router.executions, 3);
    assert_eq!(considered as u64, router.dispatches + router.shards_pruned);
}

/// Filter construction is part of the filtering time, and of exactly one
/// query's: the one that built the filter carries it, the `∀` twin sharing
/// it reports only its prune, and the stage histogram holds those two
/// samples. No wall-clock threshold: the builder's filtering interval
/// encloses the `filter_build` span on the same monotonic clock.
#[test]
fn filter_construction_is_timed_into_the_query_that_built_it() {
    let (routes, pairs) = world();
    let (route_store, _) = RouteStore::bulk_build(Default::default(), routes);
    let transition_store = TransitionStore::bulk_build(Default::default(), pairs);
    let service = QueryService::new(route_store, transition_store, config());
    let route = vec![p(10.0, 75.0), p(500.0, 95.0), p(1100.0, 75.0)];
    let queries = [
        RknntQuery::exists(route.clone(), 2),
        RknntQuery::for_all(route, 2),
    ];
    let (trace, (results, stats)) = traced(|t| service.execute_batch_traced(&queries, t));
    assert_eq!((stats.filter_constructions, stats.filters_saved), (1, 1));
    let builds: Vec<&TraceSpan> = trace
        .spans()
        .iter()
        .filter(|s| s.name() == "filter_build")
        .collect();
    assert_eq!(builds.len(), 1);
    let build = Duration::from_nanos(builds[0].dur_ns());
    assert!(build > Duration::ZERO);
    let filtering: Vec<Duration> = results.iter().map(|r| r.timings.filtering).collect();
    assert!(
        filtering[0] >= build,
        "the building query reports {:?} of filtering around a {build:?} construction",
        filtering[0]
    );
    let snapshot = service.metrics_snapshot();
    let stage = snapshot
        .histogram("service.stage.filter_ns")
        .expect("registered");
    assert_eq!(stage.count(), 2, "one sample per fresh query");
    assert_eq!(
        u128::from(stage.sum()),
        (filtering[0] + filtering[1]).as_nanos(),
        "the samples are the results' own filtering times"
    );
    assert!(Duration::from_nanos(stage.sum()) >= build);
}
