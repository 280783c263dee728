//! One function per table / figure of the paper's evaluation (Section 7),
//! the three wall-clock experiments behind the CI gates, and the one table —
//! [`EXPERIMENTS`] — that names them all.
//!
//! Every function reports the rows/series of its figure or table (methods
//! compared, parameter sweeps, phase breakdowns) as typed [`Record`]s into
//! the [`Output`] it is handed. The RkNNT sweeps carry the engines' work
//! counts (`candidate_endpoints`, `verified_endpoints`,
//! `result_transitions`, and the filter / prune walks' `entries_tested` and
//! `filter_tests`) next to the milliseconds: absolute times are
//! machine- and scale-dependent, the counts are not, and the *shape* (which
//! method wins, how curves grow with k, |Q|, I, ψ(se), τ/ψ(se)) is what
//! reproduces the paper.
//!
//! [`Record`]: crate::record::Record

use crate::dataset::{Dataset, DatasetKind, ExperimentContext, ScaleConfig};
use crate::gate::Bound;
use crate::record::Output;
use rknnt_core::{
    DivideConquerEngine, FilterRefineEngine, QueryStats, RknnTEngine, RknntQuery, VoronoiEngine,
};
use rknnt_data::{stats, workload};
use rknnt_geo::Point;
use rknnt_graph::VertexId;
use rknnt_index::RouteStore;
use rknnt_obs::{SlowQueryLog, SpanId, Telemetry, TraceContext, TraceCursor, TraceId};
use rknnt_routeplan::{
    BruteForcePlanner, Objective, PlanQuery, PlannerConfig, PrePlanner, Precomputation,
    PruningPlanner, RoutePlanner,
};
use rknnt_service::{QueryService, ServiceConfig, StoreUpdate};
use std::time::{Duration, Instant};

/// Mean of a slice of durations (zero for an empty slice).
fn mean(durations: &[Duration]) -> Duration {
    if durations.is_empty() {
        Duration::ZERO
    } else {
        durations.iter().sum::<Duration>() / durations.len() as u32
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The five work counts every RkNNT row carries.
fn counts(stats: &QueryStats) -> [(&'static str, f64); 5] {
    [
        ("candidate_endpoints", stats.candidate_endpoints as f64),
        ("verified_endpoints", stats.verified_endpoints as f64),
        ("result_transitions", stats.result_transitions as f64),
        ("entries_tested", stats.entries_tested as f64),
        ("filter_tests", stats.filter_tests as f64),
    ]
}

fn add_counts(total: &mut QueryStats, one: &QueryStats) {
    total.candidate_endpoints += one.candidate_endpoints;
    total.verified_endpoints += one.verified_endpoints;
    total.result_transitions += one.result_transitions;
    total.entries_tested += one.entries_tested;
    total.filter_tests += one.filter_tests;
}

/// Runs every engine over the same query batch: per engine, the mean total
/// and per-phase milliseconds and the summed work counts.
fn run_engines(
    dataset: &Dataset,
    queries: &[Vec<Point>],
    k: usize,
) -> [(&'static str, Vec<(&'static str, f64)>); 3] {
    let fr = FilterRefineEngine::new(&dataset.routes, &dataset.transitions);
    let vo = VoronoiEngine::new(&dataset.routes, &dataset.transitions);
    let dc = DivideConquerEngine::new(&dataset.routes, &dataset.transitions);
    let engines: [(&'static str, &dyn RknnTEngine); 3] = [
        ("Filter-Refine", &fr),
        ("Voronoi", &vo),
        ("Divide-Conquer", &dc),
    ];
    engines.map(|(name, engine)| {
        let mut filtering = Vec::new();
        let mut verification = Vec::new();
        let mut stats = QueryStats::default();
        for q in queries {
            let out = engine.execute(&RknntQuery::exists(q.clone(), k));
            filtering.push(out.timings.filtering);
            verification.push(out.timings.verification);
            add_counts(&mut stats, &out.stats);
        }
        let (filtering, verification) = (mean(&filtering), mean(&verification));
        let mut measured = vec![
            ("cpu_ms", ms(filtering + verification)),
            ("filtering_ms", ms(filtering)),
            ("verification_ms", ms(verification)),
        ];
        measured.extend(counts(&stats));
        (name, measured)
    })
}

fn default_queries(
    ctx: &ExperimentContext,
    dataset: &Dataset,
    len: usize,
    interval: f64,
) -> Vec<Vec<Point>> {
    workload::rknnt_queries(
        &dataset.city,
        ctx.scale.queries_per_point,
        len,
        interval,
        ctx.scale.seed,
    )
}

/// One row per non-empty bucket: `labels`, the bucket's lower bound under
/// `lower_key` and its population under `count_key`.
fn histogram_rows(
    out: &mut Output,
    labels: &[(&'static str, &str)],
    histogram: &stats::Histogram,
    lower_key: &'static str,
    count_key: &'static str,
) {
    for (lower, count) in histogram.rows() {
        if count > 0 {
            out.row(labels, &[(lower_key, lower), (count_key, count as f64)]);
        }
    }
}

// ---------------------------------------------------------------------------
// Dataset characterisation: Tables 2 & 3, Figures 6, 8, 17
// ---------------------------------------------------------------------------

/// Tables 2 and 3: dataset statistics (paper: LA 1,208 routes / 109,036
/// transitions; NYC 2,022 routes / 195,833 transitions; synthetic 10M
/// transitions).
fn datasets(ctx: &ExperimentContext, out: &mut Output) {
    let synthetic = Dataset::build(DatasetKind::NycSynthetic, &ctx.scale);
    for dataset in [ctx.la(), ctx.nyc(), &synthetic] {
        out.row(
            &[("dataset", dataset.kind.name())],
            &[
                ("routes", dataset.routes.num_routes() as f64),
                ("vertices", dataset.graph.num_vertices() as f64),
                ("edges", dataset.graph.num_edges() as f64),
                ("transitions", dataset.transitions.len() as f64),
            ],
        );
    }
}

/// Figure 6: histogram of the detour ratio τ/ψ over all generated routes.
fn fig6(ctx: &ExperimentContext, out: &mut Output) {
    for dataset in [ctx.la(), ctx.nyc()] {
        let s = stats::route_stats(&dataset.city);
        let hist = stats::Histogram::build(&s.detour_ratios, 0.8, 0.2);
        let labels = [("dataset", dataset.kind.name())];
        histogram_rows(out, &labels, &hist, "ratio_lower", "routes");
    }
}

/// Figure 8: coarse density grids of route points and transition endpoints
/// (one row per non-empty cell, `row` 0 at the southern edge).
fn fig8(ctx: &ExperimentContext, out: &mut Output) {
    for dataset in [ctx.la(), ctx.nyc()] {
        let area = dataset.city.config.area();
        let route_points: Vec<Point> = dataset.city.routes.iter().flatten().copied().collect();
        let transition_points: Vec<Point> = dataset
            .transitions
            .transitions()
            .flat_map(|t| [t.origin, t.destination])
            .collect();
        for (layer, points) in [
            ("routes", &route_points),
            ("transitions", &transition_points),
        ] {
            let grid = stats::density_grid(points, &area, 10, 6);
            for (row, cells) in grid.iter().enumerate() {
                for (col, count) in cells.iter().enumerate().filter(|(_, c)| **c > 0) {
                    out.row(
                        &[("dataset", dataset.kind.name()), ("layer", layer)],
                        &[
                            ("row", row as f64),
                            ("col", col as f64),
                            ("points", *count as f64),
                        ],
                    );
                }
            }
        }
    }
}

/// Figure 17: histograms of ψ(se), mean interval and #stops per route.
fn fig17(ctx: &ExperimentContext, out: &mut Output) {
    for dataset in [ctx.la(), ctx.nyc()] {
        let s = stats::route_stats(&dataset.city);
        let stop_counts: Vec<f64> = s.stop_counts.iter().map(|c| *c as f64).collect();
        for (quantity, values, bucket) in [
            ("span_m", &s.spans, 2_000.0),
            ("interval_m", &s.intervals, 100.0),
            ("stops", &stop_counts, 10.0),
        ] {
            let hist = stats::Histogram::build(values, 0.0, bucket);
            let labels = [("dataset", dataset.kind.name()), ("quantity", quantity)];
            histogram_rows(out, &labels, &hist, "lower", "routes");
        }
    }
}

// ---------------------------------------------------------------------------
// RkNNT experiments: Figures 9–16
// ---------------------------------------------------------------------------

/// Which of Table 4's query parameters a sweep varies; the other two stay
/// at their defaults.
#[derive(Clone, Copy)]
enum Swept {
    K,
    QueryLen,
    Interval,
}

/// Table 4's query parameters at one point of a sweep.
#[derive(Clone, Copy)]
struct QueryShape {
    k: usize,
    len: usize,
    interval: f64,
}

/// One RkNNT sweep: at every point of the swept parameter, on each dataset,
/// the three engines over the same query batch — one row per engine with
/// the point's total and per-phase milliseconds and its work counts.
fn engine_sweep(ctx: &ExperimentContext, out: &mut Output, datasets: &[&Dataset], swept: Swept) {
    let base = QueryShape {
        k: ctx.default_k(),
        len: ctx.default_query_len(),
        interval: ctx.default_interval(),
    };
    let points: Vec<QueryShape> = match swept {
        Swept::K => ctx
            .k_values()
            .into_iter()
            .map(|k| QueryShape { k, ..base })
            .collect(),
        Swept::QueryLen => ctx
            .query_len_values()
            .into_iter()
            .map(|len| QueryShape { len, ..base })
            .collect(),
        Swept::Interval => ctx
            .interval_values()
            .into_iter()
            .map(|interval| QueryShape { interval, ..base })
            .collect(),
    };
    for dataset in datasets {
        for at in &points {
            let parameter = match swept {
                Swept::K => ("k", at.k as f64),
                Swept::QueryLen => ("query_len", at.len as f64),
                Swept::Interval => ("interval_km", at.interval / 1_000.0),
            };
            let queries = default_queries(ctx, dataset, at.len, at.interval);
            for (method, measured) in run_engines(dataset, &queries, at.k) {
                let mut values = vec![parameter];
                values.extend(measured);
                out.row(
                    &[("dataset", dataset.kind.name()), ("method", method)],
                    &values,
                );
            }
        }
    }
}

/// Figure 9: RkNNT running time vs k on the LA-like and NYC-like datasets.
fn fig9(ctx: &ExperimentContext, out: &mut Output) {
    engine_sweep(ctx, out, &[ctx.la(), ctx.nyc()], Swept::K);
}

/// Figure 10: filtering vs verification breakdown vs k (LA-like).
fn fig10(ctx: &ExperimentContext, out: &mut Output) {
    engine_sweep(ctx, out, &[ctx.la()], Swept::K);
}

/// Figure 11: running time vs query length |Q|.
fn fig11(ctx: &ExperimentContext, out: &mut Output) {
    engine_sweep(ctx, out, &[ctx.la(), ctx.nyc()], Swept::QueryLen);
}

/// Figure 12: phase breakdown vs |Q| (LA-like).
fn fig12(ctx: &ExperimentContext, out: &mut Output) {
    engine_sweep(ctx, out, &[ctx.la()], Swept::QueryLen);
}

/// Figure 13: effect of k and |Q| on the large synthetic transition set.
fn fig13(ctx: &ExperimentContext, out: &mut Output) {
    let synthetic = Dataset::build(DatasetKind::NycSynthetic, &ctx.scale);
    engine_sweep(ctx, out, &[&synthetic], Swept::K);
    engine_sweep(ctx, out, &[&synthetic], Swept::QueryLen);
}

/// Figure 14: running time vs the interval I between adjacent query points.
fn fig14(ctx: &ExperimentContext, out: &mut Output) {
    engine_sweep(ctx, out, &[ctx.la(), ctx.nyc()], Swept::Interval);
}

/// Figure 15: phase breakdown vs interval I (LA-like).
fn fig15(ctx: &ExperimentContext, out: &mut Output) {
    engine_sweep(ctx, out, &[ctx.la()], Swept::Interval);
}

/// A `summary` row (query count, mean time, `extra`) followed by the
/// distribution of the per-query times in 50 ms buckets.
fn time_distribution_rows(
    out: &mut Output,
    dataset: &Dataset,
    times: &[Duration],
    extra: &[(&'static str, f64)],
) {
    let mut values = vec![
        ("queries", times.len() as f64),
        ("mean_ms", ms(mean(times))),
    ];
    values.extend_from_slice(extra);
    out.row(
        &[("dataset", dataset.kind.name()), ("row", "summary")],
        &values,
    );
    let secs: Vec<f64> = times.iter().map(|d| d.as_secs_f64()).collect();
    let hist = stats::Histogram::build(&secs, 0.0, 0.05);
    let labels = [("dataset", dataset.kind.name()), ("row", "bucket")];
    histogram_rows(out, &labels, &hist, "time_lower_s", "queries");
}

/// Figure 16: per-query time distribution when every existing route is used
/// as a query (Divide-Conquer, k = 10); the query route is removed from the
/// RR-tree before being queried, as in the paper.
fn fig16(ctx: &ExperimentContext, out: &mut Output) {
    for dataset in [ctx.la(), ctx.nyc()] {
        let max_queries = (ctx.scale.queries_per_point * 3).max(6);
        let queries = workload::real_route_queries(&dataset.city, max_queries);
        let mut times = Vec::with_capacity(queries.len());
        let mut stats = QueryStats::default();
        for (i, q) in queries.iter().enumerate() {
            // Rebuild the store without this route (the paper removes the
            // route's points from the RR-tree before querying).
            let remaining: Vec<Vec<Point>> = dataset
                .city
                .routes
                .iter()
                .enumerate()
                .filter(|(j, _)| *j != i)
                .map(|(_, r)| r.clone())
                .collect();
            let (store, _) = RouteStore::bulk_build(Default::default(), remaining);
            let engine = DivideConquerEngine::new(&store, &dataset.transitions);
            let result = engine.execute(&RknntQuery::exists(q.clone(), ctx.default_k()));
            times.push(result.timings.total());
            add_counts(&mut stats, &result.stats);
        }
        time_distribution_rows(out, dataset, &times, &counts(&stats));
    }
}

// ---------------------------------------------------------------------------
// Route planning experiments: Table 5, Figures 18–21
// ---------------------------------------------------------------------------

/// Table 5: pre-computation time (per-vertex RkNNT + all-pairs shortest
/// distance) for k = 1, 5, 10.
fn table5(ctx: &ExperimentContext, out: &mut Output) {
    for dataset in [ctx.la(), ctx.nyc()] {
        for k in [1usize, 5, 10] {
            let pre = precompute(dataset, k);
            out.row(
                &[("dataset", dataset.kind.name())],
                &[
                    ("k", k as f64),
                    ("rknnt_s", pre.rknnt_time().as_secs_f64()),
                    ("shortest_s", pre.shortest_time().as_secs_f64()),
                ],
            );
        }
    }
}

fn precompute(dataset: &Dataset, k: usize) -> Precomputation {
    Precomputation::build(&dataset.graph, &dataset.routes, &dataset.transitions, k)
}

/// The graph vertices nearest a route's first and last stop.
fn terminals(dataset: &Dataset, route: &[Point]) -> (VertexId, VertexId) {
    let vertex = |stop: Option<&Point>| {
        dataset
            .graph
            .nearest_vertex(stop.expect("a route has stops"))
            .expect("the graph has vertices")
    };
    (vertex(route.first()), vertex(route.last()))
}

fn planner_config(ctx: &ExperimentContext) -> PlannerConfig {
    PlannerConfig {
        k: ctx.default_k(),
        max_candidate_paths: 512,
    }
}

/// `(start, end)` pairs as plan queries with τ = `tau_ratio` × the shortest
/// distance, dropping disconnected pairs.
fn plan_queries(
    pre: &Precomputation,
    pairs: &[(VertexId, VertexId)],
    tau_ratio: f64,
) -> Vec<PlanQuery> {
    pairs
        .iter()
        .map(|&(start, end)| PlanQuery {
            start,
            end,
            tau: pre.matrix().distance(start, end) * tau_ratio,
        })
        .filter(|q| q.tau.is_finite())
        .collect()
}

/// Runs the four planners on a batch of (start, end, τ) queries and reports
/// each one's mean search time at the sweep point `parameter`.
fn run_planners(
    dataset: &Dataset,
    pre: &Precomputation,
    queries: &[PlanQuery],
    config: PlannerConfig,
    out: &mut Output,
    parameter: (&'static str, f64),
) {
    let brute = BruteForcePlanner::new(
        &dataset.graph,
        &dataset.routes,
        &dataset.transitions,
        config,
    );
    let pre_planner = PrePlanner::new(&dataset.graph, pre, config);
    let pruning = PruningPlanner::new(&dataset.graph, pre);
    let planners: [(&str, &dyn RoutePlanner, Objective); 4] = [
        ("Bruteforce", &brute, Objective::Maximize),
        ("Pre", &pre_planner, Objective::Maximize),
        ("Pre-Max", &pruning, Objective::Maximize),
        ("Pre-Min", &pruning, Objective::Minimize),
    ];
    for (method, planner, objective) in planners {
        let times: Vec<Duration> = queries
            .iter()
            .map(|query| planner.plan(query, objective).elapsed)
            .collect();
        out.row(
            &[("dataset", dataset.kind.name()), ("method", method)],
            &[
                parameter,
                ("queries", times.len() as f64),
                ("cpu_ms", ms(mean(&times))),
            ],
        );
    }
}

/// Figure 18: MaxRkNNT running time as the origin–destination span ψ(se)
/// grows.
fn fig18(ctx: &ExperimentContext, out: &mut Output) {
    let config = planner_config(ctx);
    for dataset in [ctx.la(), ctx.nyc()] {
        let pre = precompute(dataset, config.k);
        for span in ctx.span_values(dataset) {
            let pairs = workload::plan_queries(
                &dataset.graph,
                (ctx.scale.queries_per_point / 3).max(2),
                span,
                span * 0.4,
                ctx.scale.seed,
            );
            let queries = plan_queries(&pre, &pairs, 1.4);
            run_planners(dataset, &pre, &queries, config, out, ("span_m", span));
        }
    }
}

/// Figure 19: running time as the threshold ratio τ/ψ(se) grows.
fn fig19(ctx: &ExperimentContext, out: &mut Output) {
    let config = planner_config(ctx);
    for dataset in [ctx.la(), ctx.nyc()] {
        let pre = precompute(dataset, config.k);
        let span = ctx.span_values(dataset)[1];
        let pairs = workload::plan_queries(
            &dataset.graph,
            (ctx.scale.queries_per_point / 3).max(2),
            span,
            span * 0.4,
            ctx.scale.seed ^ 7,
        );
        for ratio in ctx.tau_ratio_values() {
            let queries = plan_queries(&pre, &pairs, ratio);
            run_planners(dataset, &pre, &queries, config, out, ("tau_ratio", ratio));
        }
    }
}

/// Figure 20: distribution of MaxRkNNT running time over "real" route
/// queries (each existing route's endpoints and travel distance as the
/// query).
fn fig20(ctx: &ExperimentContext, out: &mut Output) {
    let config = planner_config(ctx);
    for dataset in [ctx.la(), ctx.nyc()] {
        let pre = precompute(dataset, config.k);
        let pruning = PruningPlanner::new(&dataset.graph, &pre);
        let max_queries = (ctx.scale.queries_per_point * 2).max(6);
        let mut times = Vec::new();
        for route in dataset.city.routes.iter().take(max_queries) {
            let (start, end) = terminals(dataset, route);
            if start == end {
                continue;
            }
            let tau = rknnt_geo::travel_distance(route).max(pre.matrix().distance(start, end));
            if !tau.is_finite() {
                continue;
            }
            let plan = pruning.plan(&PlanQuery { start, end, tau }, Objective::Maximize);
            times.push(plan.elapsed);
        }
        time_distribution_rows(out, dataset, &times, &[]);
    }
}

/// Figure 21: case study comparing the original route, the shortest route,
/// the MaxRkNNT route and the MinRkNNT route for one origin/destination
/// pair.
fn fig21(ctx: &ExperimentContext, out: &mut Output) {
    let dataset = ctx.nyc();
    let config = planner_config(ctx);
    let pre = precompute(dataset, config.k);
    // Pick the generated route with the most stops as the "original" line.
    let original = dataset
        .city
        .routes
        .iter()
        .max_by_key(|r| r.len())
        .expect("at least one route")
        .clone();
    let (start, end) = terminals(dataset, &original);
    let original_tau = rknnt_geo::travel_distance(&original);
    let engine = DivideConquerEngine::new(&dataset.routes, &dataset.transitions);
    let original_passengers = engine
        .execute(&RknntQuery::exists(original.clone(), config.k))
        .len();
    // The original line was not searched for: its row has no `search_ms`.
    out.row(
        &[("route", "Original")],
        &[
            ("passengers", original_passengers as f64),
            ("distance_m", original_tau),
            ("stops", original.len() as f64),
        ],
    );

    if let Some(path) = dataset.graph.shortest_path(start, end) {
        let positions: Vec<Point> = path
            .vertices
            .iter()
            .map(|v| dataset.graph.position(*v))
            .collect();
        let started = Instant::now();
        let passengers = engine
            .execute(&RknntQuery::exists(positions, config.k))
            .len();
        out.row(
            &[("route", "Shortest")],
            &[
                ("search_ms", ms(started.elapsed())),
                ("passengers", passengers as f64),
                ("distance_m", path.length),
                ("stops", path.len() as f64),
            ],
        );
    }

    let pruning = PruningPlanner::new(&dataset.graph, &pre);
    let tau = original_tau.max(pre.matrix().distance(start, end));
    for (label, objective) in [
        ("MaxRkNNT", Objective::Maximize),
        ("MinRkNNT", Objective::Minimize),
    ] {
        let plan = pruning.plan(&PlanQuery { start, end, tau }, objective);
        out.row(
            &[("route", label)],
            &[
                ("search_ms", ms(plan.elapsed)),
                ("passengers", plan.passenger_count() as f64),
                ("distance_m", plan.travel_distance()),
                (
                    "stops",
                    plan.route.as_ref().map(|r| r.len()).unwrap_or(0) as f64,
                ),
            ],
        );
    }
}

// ---------------------------------------------------------------------------
// Wall-clock experiments behind the CI gates (beyond the paper)
// ---------------------------------------------------------------------------
//
// All four run on the small synthetic city under ∃ semantics on one worker.
// What they gate is a ratio of two timings taken in the same run; throughput
// itself is measured by `benchmark/`.

fn serving_config() -> ServiceConfig {
    ServiceConfig::default().with_workers(1)
}

/// A service over copies of `dataset`'s stores.
fn service_over(dataset: &Dataset, config: ServiceConfig) -> QueryService {
    QueryService::new(dataset.routes.clone(), dataset.transitions.clone(), config)
}

/// `total` queries cycling a pool of generated routes, so the stream
/// contains the exact repetition (popular routes queried again and again) a
/// production service sees.
fn service_workload(ctx: &ExperimentContext, dataset: &Dataset, total: usize) -> Vec<RknntQuery> {
    let pool = workload::rknnt_queries(
        &dataset.city,
        (ctx.scale.queries_per_point * 8).max(24),
        ctx.default_query_len(),
        1_000.0,
        ctx.scale.seed ^ 0xbee,
    );
    (0..total)
        .map(|i| RknntQuery::exists(pool[i % pool.len()].clone(), ctx.default_k()))
        .collect()
}

/// Turns a churn stream's update events into concrete [`StoreUpdate`]s:
/// arrivals and new routes as drawn, expiries and removals spending the
/// draw on the ids `dataset` started with (never the last four routes).
fn churn_updates(dataset: &Dataset, stream: Vec<workload::ChurnEvent>) -> Vec<StoreUpdate> {
    let mut transitions = dataset.transitions.transition_ids();
    let mut routes = dataset.routes.route_ids();
    stream
        .into_iter()
        .filter_map(|event| match event {
            workload::ChurnEvent::Query(_) => None,
            workload::ChurnEvent::InsertTransition(origin, destination) => {
                Some(StoreUpdate::InsertTransition {
                    origin,
                    destination,
                })
            }
            workload::ChurnEvent::ExpireTransition(draw) => (!transitions.is_empty()).then(|| {
                let victim = draw as usize % transitions.len();
                StoreUpdate::ExpireTransition(transitions.swap_remove(victim))
            }),
            workload::ChurnEvent::InsertRoute(points) => Some(StoreUpdate::InsertRoute(points)),
            workload::ChurnEvent::RemoveRoute(draw) => (routes.len() > 4).then(|| {
                let victim = draw as usize % routes.len();
                StoreUpdate::RemoveRoute(routes.swap_remove(victim))
            }),
        })
        .collect()
}

/// Opening from a snapshot vs rebuilding from raw generation (ratio
/// `rebuild_ms / open_ms`, best-of-3 each), at the gate run's 20k
/// transitions. A same-run wall-clock ratio, held at parity: locally
/// ~1.2–1.5, and only a genuine inversion (opening a snapshot slower than
/// regenerating and re-indexing everything, e.g. a decode regression) dips
/// below 1.0.
const MIN_OPEN_SPEEDUP: Bound = Bound::AtLeast(1.0);

/// Cold start: opening a service from a durable snapshot
/// ([`QueryService::open`]) vs rebuilding it from raw generation (the
/// restart path before the storage engine existed), plus WAL replay
/// throughput for a recovery that arrives mid-stream.
///
/// Three timed paths, best-of-3 each:
///
/// * **rebuild** — [`Dataset::build`]: generate the city and transitions,
///   bulk-build the RR-/TR-trees and the graph;
/// * **open** — load the checksummed snapshot and reconstruct the stores;
/// * **recover** — open a directory whose snapshot is stale by a churn
///   stream's worth of WAL records, replaying them through
///   `apply_updates`.
///
/// Opened and recovered services must answer byte-identically to their
/// freshly built references — asserted inline.
fn cold_start(ctx: &ExperimentContext, out: &mut Output) {
    let service_config = serving_config();
    // No fsync: this experiment measures codec + rebuild cost, not disk
    // flush latency (the recovery suites cover durability semantics).
    let storage_config = rknnt_service::StorageConfig::default().with_fsync(false);
    let dir = std::env::temp_dir().join(format!("rknnt-cold-start-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // Rebuild-from-raw, best of 3.
    let mut rebuild_ms = f64::INFINITY;
    let mut built = None;
    for _ in 0..3 {
        let started = Instant::now();
        let dataset = Dataset::build(DatasetKind::Small, &ctx.scale);
        let service = service_over(&dataset, service_config);
        rebuild_ms = rebuild_ms.min(ms(started.elapsed()));
        drop(service);
        built = Some(dataset);
    }
    let dataset = built.expect("three rebuilds ran");

    // Seed the storage directory with a checkpoint of the built state.
    let mut seeded = service_over(&dataset, service_config);
    seeded
        .attach_storage(&dir, storage_config)
        .expect("attach cold-start storage");
    let snapshot_bytes = seeded
        .storage_stats()
        .expect("storage attached")
        .snapshot_bytes;
    drop(seeded);

    // Open-from-snapshot, best of 3, answers verified against a fresh build.
    let mut open_ms = f64::INFINITY;
    let mut opened = None;
    for _ in 0..3 {
        let started = Instant::now();
        let (service, stats) = QueryService::open(&dir, service_config, storage_config)
            .expect("open cold-start storage");
        open_ms = open_ms.min(ms(started.elapsed()));
        assert_eq!(stats.replayed_records, 0, "checkpoint left no tail");
        opened = Some(service);
    }
    let opened = opened.expect("three opens ran");
    let fresh = service_over(&dataset, service_config);
    let probes: Vec<RknntQuery> = workload::rknnt_queries(
        &dataset.city,
        4,
        ctx.default_query_len(),
        1_000.0,
        ctx.scale.seed,
    )
    .into_iter()
    .map(|route| RknntQuery::exists(route, ctx.default_k()))
    .collect();
    let assert_same_answers = |a: &QueryService, b: &QueryService, what: &str| {
        for (a, b) in a
            .execute_batch(&probes)
            .0
            .iter()
            .zip(&b.execute_batch(&probes).0)
        {
            assert_eq!(a.transitions, b.transitions, "{what}");
        }
    };
    assert_same_answers(
        &fresh,
        &opened,
        "opened-from-snapshot answers diverged from rebuild",
    );
    drop(opened);

    // Recovery replay: leave a churn stream in the WAL behind the snapshot.
    let events = (ctx.scale.queries_per_point * 60).clamp(120, 600);
    let mut churn_config = rknnt_data::ChurnConfig::new(events, 1.0, ctx.scale.seed ^ 0xc01d);
    churn_config.query_len = ctx.default_query_len();
    let updates = churn_updates(
        &dataset,
        workload::churn_stream(&dataset.city, &churn_config),
    );
    let (mut behind, _) =
        QueryService::open(&dir, service_config, storage_config).expect("reopen for churn");
    let mut reference = service_over(&dataset, service_config);
    for chunk in updates.chunks(16) {
        behind.apply_updates(chunk.to_vec());
        reference.apply_updates(chunk.to_vec());
    }
    drop(behind); // crash: snapshot + WAL tail on disk

    let started = Instant::now();
    let (recovered, stats) =
        QueryService::open(&dir, service_config, storage_config).expect("recover cold-start");
    let recover_ms = ms(started.elapsed());
    assert_eq!(stats.replayed_records as usize, updates.len());
    assert_same_answers(
        &reference,
        &recovered,
        "recovered answers diverged from the uninterrupted reference",
    );
    drop(recovered);
    let _ = std::fs::remove_dir_all(&dir);

    let open_speedup = rebuild_ms / open_ms.max(1e-6);
    out.row(&[("mode", "rebuild")], &[("ms", rebuild_ms)]);
    out.row(
        &[("mode", "open")],
        &[
            ("ms", open_ms),
            ("snapshot_bytes", snapshot_bytes as f64),
            ("speedup_vs_rebuild", open_speedup),
        ],
    );
    out.row(
        &[("mode", "recover")],
        &[
            ("ms", recover_ms),
            ("replayed", updates.len() as f64),
            (
                "records_per_sec",
                updates.len() as f64 / (recover_ms / 1e3).max(1e-9),
            ),
        ],
    );
    out.gate("open_speedup", open_speedup, MIN_OPEN_SPEEDUP);
}

/// Throughput cost of the metrics layer: `1 − metrics_on_qps /
/// metrics_off_qps` over the same service workload. Same-run wall-clock
/// ratio, so machine-independent in expectation; locally the cost is ~0–2 %
/// and often negative (noise). Anything above 5 % means a span or histogram
/// landed on the hot path.
const MAX_METRICS_COST: Bound = Bound::AtMost(0.05);

/// Throughput cost of tracing *every* request: `1 − traced_qps /
/// metrics_on_qps` over the same service workload. Same-run wall-clock
/// ratio; locally ~0–2 % and often negative (noise). Anything above 5 %
/// means span bookkeeping grew, or landed on the untraced path's side of
/// the comparison.
const MAX_TRACING_COST: Bound = Bound::AtMost(0.05);

/// Instrumentation overhead: the same pool-cycling workload, in batches of
/// 16, through a fresh service (cold cache) in three modes —
///
/// * **metrics-off** — [`QueryService::set_metrics_enabled`]`(false)`:
///   counters stay live (the per-call stats depend on them), clock reads
///   and histogram recording are gone;
/// * **metrics-on** — the default service;
/// * **traced** — metrics on, and every batch carries a `request` root span
///   and a cursor through `execute_batch_traced`, its finished trace
///   observed by a slow-query log: the serving edge's shape at trace
///   sampling 1.0.
///
/// Each mode is timed eleven times, the rounds interleaved so a drifting
/// machine drifts under all three alike, and keeps its median: on a shared
/// runner a pass now and then runs several percent *fast*, and a best-of
/// would hold one mode's lucky pass against another's ordinary one. All
/// modes must answer identically — asserted inline.
fn instrumentation_overhead(ctx: &ExperimentContext, out: &mut Output) {
    // (name, metrics enabled, every batch traced)
    const MODES: [(&str, bool, bool); 3] = [
        ("metrics-off", false, false),
        ("metrics-on", true, false),
        ("traced", true, true),
    ];

    let dataset = Dataset::build(DatasetKind::Small, &ctx.scale);
    let total = (ctx.scale.queries_per_point * 64).clamp(64, 1_024);
    let queries = service_workload(ctx, &dataset, total);

    // One timed pass: (seconds, summed result sizes, traces completed).
    let run_pass = |metrics: bool, traced: bool| -> (f64, usize, u64) {
        let service = service_over(&dataset, serving_config());
        service.set_metrics_enabled(metrics);
        let slow_log = SlowQueryLog::new(0, 8);
        let telemetry = Telemetry::monotonic();
        let started = Instant::now();
        let mut results = 0usize;
        for (seq, chunk) in queries.chunks(16).enumerate() {
            let outs = if traced {
                let trace =
                    TraceContext::begin(TraceId::from_raw(seq as u64 + 1), telemetry.clone());
                let root = trace.begin_span("request", SpanId::NONE);
                let cursor = TraceCursor::new(&trace, root);
                let outs = service.execute_batch_traced(chunk, cursor).0;
                trace.end_span(root);
                slow_log.observe(trace.finish());
                outs
            } else {
                service.execute_batch(chunk).0
            };
            results += outs.iter().map(|r| r.len()).sum::<usize>();
        }
        let secs = started.elapsed().as_secs_f64();
        (secs, results, slow_log.completed())
    };

    let mut secs = [const { Vec::new() }; 3];
    let (mut results, mut traces) = (None, 0);
    for _ in 0..11 {
        for (secs, (name, metrics, traced)) in secs.iter_mut().zip(MODES) {
            let (pass_secs, pass_results, pass_traces) = run_pass(metrics, traced);
            secs.push(pass_secs);
            assert_eq!(
                *results.get_or_insert(pass_results),
                pass_results,
                "{name} answers diverged"
            );
            traces = pass_traces;
        }
    }
    let [off, on, traced] = secs.map(|mut secs| {
        secs.sort_by(f64::total_cmp);
        queries.len() as f64 / secs[secs.len() / 2].max(1e-9)
    });
    let metrics_cost = 1.0 - on / off;
    let tracing_cost = 1.0 - traced / on;

    let results = (
        "result_transitions",
        results.expect("eleven rounds ran") as f64,
    );
    out.row(&[("mode", "metrics-off")], &[("qps", off), results]);
    out.row(
        &[("mode", "metrics-on")],
        &[("qps", on), results, ("cost_vs_metrics_off", metrics_cost)],
    );
    out.row(
        &[("mode", "traced")],
        &[
            ("qps", traced),
            results,
            ("traces", traces as f64),
            ("cost_vs_metrics_on", tracing_cost),
        ],
    );
    out.gate("metrics_cost", metrics_cost, MAX_METRICS_COST);
    out.gate("tracing_cost", tracing_cost, MAX_TRACING_COST);
}

/// One offered-load point of the open-loop sweep.
struct OpenLoopPoint {
    achieved_qps: f64,
    answered: usize,
    shed: usize,
    unanswered: usize,
    p50_ms: f64,
    p99_ms: f64,
    p999_ms: f64,
}

/// Drives `n` queries through a real client→TCP→server loop at `offered_qps`
/// (open loop: the sender paces on the wall clock and never waits for
/// replies), asserting every answered reply byte-identical to `expected`.
/// `offered_qps = 0` means closed-loop back-to-back (the overload burst).
fn open_loop_point(
    server: &rknnt_net::Server,
    pool: &[RknntQuery],
    expected: &[Vec<rknnt_index::TransitionId>],
    n: usize,
    offered_qps: f64,
) -> OpenLoopPoint {
    use rknnt_net::protocol::{read_frame, write_frame, Message};
    use std::collections::HashMap;
    use std::sync::Mutex;

    let stream = std::net::TcpStream::connect(server.local_addr()).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    // Guard against a silently dropped request hanging the experiment: a
    // reply gap of 60 s counts the remainder as unanswered (and fails the
    // gate) instead of wedging CI.
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .expect("read timeout");
    let mut write_half = stream.try_clone().expect("clone stream");
    let mut read_half = stream;

    // id -> (send instant, pool index); written by the sender thread,
    // consumed by the receiver as replies come back (sheds reply out of
    // order relative to queued requests, so matching is by id).
    let inflight: Mutex<HashMap<u64, (Instant, usize)>> = Mutex::new(HashMap::new());
    let latencies = rknnt_obs::Histogram::new();
    let mut answered = 0usize;
    let mut shed = 0usize;
    let started = Instant::now();

    std::thread::scope(|scope| {
        scope.spawn(|| {
            let interval = if offered_qps > 0.0 {
                Duration::from_secs_f64(1.0 / offered_qps)
            } else {
                Duration::ZERO
            };
            let t0 = Instant::now();
            for i in 0..n {
                let due = t0 + interval.mul_f64(i as f64);
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                let qi = i % pool.len();
                let id = (i + 1) as u64;
                inflight
                    .lock()
                    .expect("inflight poisoned")
                    .insert(id, (Instant::now(), qi));
                let frame = Message::Query {
                    id,
                    query: pool[qi].clone(),
                    trace: None,
                }
                .encode();
                if write_frame(&mut write_half, &frame).is_err() {
                    return; // server gone; the receiver accounts the loss
                }
            }
        });

        let mut buf = Vec::new();
        let mut received = 0usize;
        while received < n {
            match read_frame(&mut read_half, &mut buf) {
                Ok(Some(())) => {}
                Ok(None) | Err(_) => break,
            }
            match Message::decode(&buf).expect("server sent an undecodable frame") {
                Message::QueryOk { id, transitions } => {
                    let (sent_at, qi) = inflight
                        .lock()
                        .expect("inflight poisoned")
                        .remove(&id)
                        .expect("reply for an unknown request id");
                    latencies
                        .record(u64::try_from(sent_at.elapsed().as_nanos()).unwrap_or(u64::MAX));
                    assert_eq!(
                        transitions, expected[qi],
                        "served answer diverged from in-process execution (pool index {qi})"
                    );
                    answered += 1;
                    received += 1;
                }
                Message::Overloaded { id, .. } => {
                    inflight
                        .lock()
                        .expect("inflight poisoned")
                        .remove(&id)
                        .expect("shed reply for an unknown request id");
                    shed += 1;
                    received += 1;
                }
                other => panic!("unexpected message kind on the reply stream: {other:?}"),
            }
        }
    });

    let elapsed = started.elapsed().as_secs_f64().max(1e-9);
    OpenLoopPoint {
        achieved_qps: (answered + shed) as f64 / elapsed,
        answered,
        shed,
        unanswered: n - answered - shed,
        p50_ms: latencies.percentile(50.0) as f64 / 1e6,
        p99_ms: latencies.percentile(99.0) as f64 / 1e6,
        p999_ms: latencies.percentile(99.9) as f64 / 1e6,
    }
}

/// Fraction of the overload burst the serving edge *sheds* with a typed
/// `Overloaded` reply (the burst offers far more inflated-cost queries than
/// the 8-slot queue admits, all at once). A slower machine drains the queue
/// slower and therefore sheds MORE, never less, so a floor is
/// machine-independent: dipping below it means admission control stopped
/// rejecting and the server is violating latency instead. Locally
/// ~0.8–0.95.
const MIN_SHED_FRACTION_UNDER_OVERLOAD: Bound = Bound::AtLeast(0.30);

/// Every request of the burst must get exactly one reply — answered or
/// shed. Anything silently dropped (connection torn down, reply lost)
/// counts here, and zero is the only acceptable value.
const MAX_UNANSWERED_UNDER_OVERLOAD: Bound = Bound::AtMost(0.0);

/// Open-loop tail latency through the serving edge: a paced sender drives
/// the same pool-cycling workload through a real client→TCP→server loop at
/// offered rates from 0.25× to 4× the measured closed-loop capacity,
/// reporting p50/p99/p999 of answered requests and the saturation knee (the
/// highest rate the server absorbs without shedding while achieving ≥ 90 %
/// of the offered rate).
///
/// The last phase is the gate: a back-to-back burst against a deliberately
/// tiny admission queue. Under overload the server must *shed* (typed
/// `Overloaded` replies, counted by `net.shed`) rather than queue without
/// bound or drop silently. Every answered reply in every phase is asserted
/// byte-identical to in-process execution inline.
fn open_loop_latency(ctx: &ExperimentContext, out: &mut Output) {
    use rknnt_net::{Backend, Server, ServerConfig};

    let dataset = Dataset::build(DatasetKind::Small, &ctx.scale);
    let pool = service_workload(ctx, &dataset, 32);
    // The serving service runs with the result cache off so cycling the
    // pool costs real execution work on every request — an LRU would turn
    // the overload phase into a cache-hit benchmark.
    let fresh_service = || service_over(&dataset, serving_config().with_cache_capacity(0));
    let expected_for = |queries: &[RknntQuery]| -> Vec<Vec<rknnt_index::TransitionId>> {
        let (results, _) = fresh_service().execute_batch(queries);
        results.into_iter().map(|r| r.transitions).collect()
    };
    let expected = expected_for(&pool);

    // Phase 1: closed-loop capacity calibration (serial request/response
    // round-trips through the full socket path).
    let n_cal = (ctx.scale.queries_per_point * 24).clamp(48, 192);
    let capacity_qps = {
        let server = Server::start(Backend::Single(fresh_service()), ServerConfig::default())
            .expect("start calibration server");
        let mut client = rknnt_net::Client::connect(server.local_addr()).expect("connect");
        let started = Instant::now();
        for i in 0..n_cal {
            let query = &pool[i % pool.len()];
            let reply = client.query(query).expect("calibration query");
            let transitions = reply
                .answered()
                .expect("a serial client must never be shed at default budgets");
            assert_eq!(transitions, expected[i % pool.len()]);
        }
        n_cal as f64 / started.elapsed().as_secs_f64().max(1e-9)
    };
    out.row(
        &[("phase", "calibration")],
        &[
            ("closed_loop_qps", capacity_qps),
            ("requests", n_cal as f64),
        ],
    );

    // Phase 2: the offered-load sweep. Fresh server per point so queue
    // state and metrics start cold.
    let n_sweep = (ctx.scale.queries_per_point * 24).clamp(48, 192);
    let mut knee_x = 0.0;
    for offered_x in [0.25, 0.5, 1.0, 2.0, 4.0] {
        let server = Server::start(Backend::Single(fresh_service()), ServerConfig::default())
            .expect("start sweep server");
        let offered_qps = capacity_qps * offered_x;
        let point = open_loop_point(&server, &pool, &expected, n_sweep, offered_qps);
        assert_eq!(
            point.unanswered, 0,
            "open-loop sweep at {offered_x}x: every request must be answered or shed"
        );
        if point.shed == 0 && point.achieved_qps >= 0.9 * offered_qps {
            knee_x = offered_x;
        }
        out.row(
            &[("phase", "sweep")],
            &[
                ("offered_x", offered_x),
                ("offered_qps", offered_qps),
                ("achieved_qps", point.achieved_qps),
                ("answered", point.answered as f64),
                ("shed", point.shed as f64),
                ("p50_ms", point.p50_ms),
                ("p99_ms", point.p99_ms),
                ("p999_ms", point.p999_ms),
            ],
        );
    }
    out.row(&[("phase", "knee")], &[("saturation_knee_x", knee_x)]);

    // Phase 3: the overload burst behind the CI gate. Expensive queries
    // (4× k) against an 8-slot queue, sent back-to-back: the reader admits
    // and sheds in microseconds while the executor needs milliseconds per
    // drain, so nearly everything past the queue must come back as a typed
    // `Overloaded`.
    let burst_pool: Vec<RknntQuery> = pool
        .iter()
        .map(|q| RknntQuery::exists(q.route.clone(), (q.k * 4).max(8)))
        .collect();
    let burst_expected = expected_for(&burst_pool);
    let n_burst = (ctx.scale.queries_per_point * 64).clamp(192, 512);
    let server = Server::start(
        Backend::Single(fresh_service()),
        ServerConfig::default()
            .with_queue_capacity(8)
            .with_per_conn_inflight(u64::MAX),
    )
    .expect("start burst server");
    let burst = open_loop_point(&server, &burst_pool, &burst_expected, n_burst, 0.0);
    let shed_fraction = burst.shed as f64 / n_burst as f64;
    let unanswered_fraction = burst.unanswered as f64 / n_burst as f64;
    assert_eq!(
        burst.answered + burst.shed + burst.unanswered,
        n_burst,
        "burst accounting must cover every request"
    );
    assert_eq!(
        server.admitted() + server.shed(),
        n_burst as u64,
        "every burst request must pass through the admission decision"
    );
    out.row(
        &[("phase", "burst")],
        &[
            ("total", n_burst as f64),
            ("answered", burst.answered as f64),
            ("shed", burst.shed as f64),
            ("unanswered", burst.unanswered as f64),
            ("p99_ms", burst.p99_ms),
            ("shed_fraction", shed_fraction),
            ("unanswered_fraction", unanswered_fraction),
        ],
    );
    out.gate(
        "shed_fraction_under_overload",
        shed_fraction,
        MIN_SHED_FRACTION_UNDER_OVERLOAD,
    );
    out.gate(
        "unanswered_under_overload",
        unanswered_fraction,
        MAX_UNANSWERED_UNDER_OVERLOAD,
    );
}

// ---------------------------------------------------------------------------
// The table
// ---------------------------------------------------------------------------

/// One runnable experiment.
pub struct Experiment {
    /// The name `--exp` takes and the output file is called after.
    pub name: &'static str,
    /// Other names `--exp` accepts for it.
    pub aliases: &'static [&'static str],
    /// What it reproduces or measures, for the heading above its rows.
    pub title: &'static str,
    body: fn(&ExperimentContext, &mut Output),
}

impl Experiment {
    /// Runs the experiment on `ctx`'s datasets and scale.
    pub fn run(&self, ctx: &ExperimentContext) -> Output {
        let mut out = Output::new(self.name);
        (self.body)(ctx, &mut out);
        out
    }
}

macro_rules! experiment {
    ($body:ident, $aliases:expr, $title:expr) => {
        Experiment {
            name: stringify!($body),
            aliases: &$aliases,
            title: $title,
            body: $body,
        }
    };
}

/// Every experiment, in paper order, then the three wall-clock experiments.
/// `--exp all` runs the table top to bottom; `--help` lists it.
pub const EXPERIMENTS: &[Experiment] = &[
    experiment!(
        datasets,
        ["table2", "table3"],
        "Tables 2 & 3 — dataset statistics"
    ),
    experiment!(
        fig6,
        [],
        "Figure 6 — detour ratio histogram (travel / straight-line)"
    ),
    experiment!(fig8, [], "Figure 8 — density grids (routes vs transitions)"),
    experiment!(fig9, [], "Figure 9 — RkNNT running time vs k"),
    experiment!(fig10, [], "Figure 10 — phase breakdown vs k (LA-like)"),
    experiment!(fig11, [], "Figure 11 — RkNNT running time vs |Q|"),
    experiment!(fig12, [], "Figure 12 — phase breakdown vs |Q| (LA-like)"),
    experiment!(
        fig13,
        [],
        "Figure 13 — synthetic dataset, effect of k and |Q|"
    ),
    experiment!(fig14, [], "Figure 14 — RkNNT running time vs interval I"),
    experiment!(
        fig15,
        [],
        "Figure 15 — phase breakdown vs interval I (LA-like)"
    ),
    experiment!(
        fig16,
        [],
        "Figure 16 — real-route queries (Divide-Conquer, k = 10)"
    ),
    experiment!(
        fig17,
        [],
        "Figure 17 — route span / interval / stop-count histograms"
    ),
    experiment!(table5, [], "Table 5 — pre-computation time"),
    experiment!(fig18, [], "Figure 18 — MaxRkNNT running time vs ψ(se)"),
    experiment!(fig19, [], "Figure 19 — MaxRkNNT running time vs τ/ψ(se)"),
    experiment!(fig20, [], "Figure 20 — MaxRkNNT on real route queries"),
    experiment!(
        fig21,
        [],
        "Figure 21 — case study: original vs shortest vs Max/MinRkNNT"
    ),
    experiment!(
        cold_start,
        ["coldstart"],
        "Cold start — open-from-snapshot vs rebuild-from-raw"
    ),
    experiment!(
        instrumentation_overhead,
        ["instrumentation"],
        "Instrumentation overhead — metrics off vs metrics on vs every request traced"
    ),
    experiment!(
        open_loop_latency,
        ["openloop"],
        "Open-loop latency — offered-load sweep through the TCP serving edge"
    ),
];

/// The experiment called `name`, by name or alias.
pub fn find(name: &str) -> Option<&'static Experiment> {
    EXPERIMENTS
        .iter()
        .find(|e| e.name == name || e.aliases.contains(&name))
}

/// What `--exp gates` runs: each gated experiment at the transition count
/// its ratio needs (two queries per point, default seed). Cold start needs
/// regeneration to cost something, and 20k transitions keeps it to a few
/// seconds; the two serving experiments measure per-request overheads a
/// small store shows best.
const GATE_RUNS: [(&str, usize); 3] = [
    ("cold_start", 20_000),
    ("instrumentation_overhead", 400),
    ("open_loop_latency", 400),
];

/// Runs the three gated experiments at their `GATE_RUNS` scales, handing
/// each finished [`Output`] (rows and gate values) to `sink`.
pub fn run_gates(mut sink: impl FnMut(&'static Experiment, Output)) {
    for (name, transitions) in GATE_RUNS {
        let experiment = find(name).expect("gate runs name rows of the table");
        let ctx = ExperimentContext::new(ScaleConfig {
            transitions,
            queries_per_point: 2,
            ..ScaleConfig::default()
        });
        sink(experiment, experiment.run(&ctx));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_ctx() -> ExperimentContext {
        ExperimentContext::new(ScaleConfig::tiny())
    }

    fn run(name: &str, ctx: &ExperimentContext) -> Output {
        find(name).expect("a table row").run(ctx)
    }

    /// File names come from the table, so two rows can never write the same
    /// file: every name and alias is unique, nothing shadows the `all` and
    /// `gates` run modes, and one output per row through the one writer
    /// leaves exactly one file per row.
    #[test]
    fn every_table_row_has_its_own_name_and_its_own_file() {
        let mut names: Vec<&str> = EXPERIMENTS
            .iter()
            .flat_map(|e| std::iter::once(e.name).chain(e.aliases.iter().copied()))
            .collect();
        names.extend(["all", "gates"]);
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name or alias is used twice");
        for experiment in EXPERIMENTS {
            for name in std::iter::once(experiment.name).chain(experiment.aliases.iter().copied()) {
                assert_eq!(find(name).map(|e| e.name), Some(experiment.name));
            }
        }
        assert!(find("not-an-experiment").is_none());
        assert!(GATE_RUNS.iter().all(|(name, _)| find(name).is_some()));

        let dir = std::env::temp_dir().join(format!("rknnt-bench-files-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        for experiment in EXPERIMENTS {
            Output::new(experiment.name).write_jsonl(&dir).unwrap();
        }
        let mut written: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|entry| entry.unwrap().file_name().into_string().unwrap())
            .collect();
        written.sort();
        let mut expected: Vec<String> = EXPERIMENTS
            .iter()
            .map(|e| format!("{}.jsonl", e.name))
            .collect();
        expected.sort();
        assert_eq!(written, expected);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn dataset_and_shape_experiments_produce_rows() {
        let ctx = tiny_ctx();
        assert_eq!(run("datasets", &ctx).records.len(), 3);
        assert!(!run("fig6", &ctx).records.is_empty());
        assert!(!run("fig17", &ctx).records.is_empty());
        assert!(!run("fig8", &ctx).records.is_empty());
    }

    /// The reproduction cannot silently invert: over the Figure 9 sweep at a
    /// fixed seed the three engines agree on every answer, looking for more
    /// neighbours never shrinks an engine's candidate set, and the Voronoi
    /// filter never leaves more candidates to verify than Filter-Refine's —
    /// the paper's pruning order, held as a work count instead of a time.
    #[test]
    fn fig9_engines_agree_and_keep_the_papers_pruning_order() {
        let ctx = tiny_ctx();
        let out = run("fig9", &ctx);
        // 2 datasets × 6 k values × 3 methods.
        assert_eq!(out.records.len(), 2 * 6 * 3);
        let at = |dataset: &str, method: &str, k: usize, value: &str| -> f64 {
            out.records
                .iter()
                .find(|r| {
                    r.label("dataset") == Some(dataset)
                        && r.label("method") == Some(method)
                        && r.value("k") == Some(k as f64)
                })
                .and_then(|r| r.value(value))
                .unwrap_or_else(|| panic!("no {value} for {dataset} {method} k={k}"))
        };
        for dataset in ["LA-like", "NYC-like"] {
            let mut previous = [0.0; 3];
            for k in ctx.k_values() {
                let results = at(dataset, "Filter-Refine", k, "result_transitions");
                for (slot, method) in ["Filter-Refine", "Voronoi", "Divide-Conquer"]
                    .into_iter()
                    .enumerate()
                {
                    assert_eq!(
                        at(dataset, method, k, "result_transitions"),
                        results,
                        "{dataset} k={k}: {method} disagrees with Filter-Refine"
                    );
                    let candidates = at(dataset, method, k, "candidate_endpoints");
                    assert!(
                        candidates >= previous[slot],
                        "{dataset} {method}: candidates shrank from {} to {candidates} at k={k}",
                        previous[slot]
                    );
                    assert!(at(dataset, method, k, "verified_endpoints") <= candidates);
                    // The filter / prune work counts ride on every row.
                    assert!(at(dataset, method, k, "entries_tested") > 0.0);
                    assert!(at(dataset, method, k, "filter_tests") > 0.0);
                    previous[slot] = candidates;
                }
                assert!(
                    at(dataset, "Voronoi", k, "candidate_endpoints")
                        <= at(dataset, "Filter-Refine", k, "candidate_endpoints"),
                    "{dataset} k={k}: Voronoi left more candidates than Filter-Refine"
                );
            }
        }
        // Figure 10 is the same sweep on one dataset, split by phase.
        assert_eq!(run("fig10", &ctx).records.len(), 6 * 3);
    }

    #[test]
    fn planning_experiments_produce_rows() {
        // Table 5 is exercised implicitly through fig21's pre-computation;
        // running the full k = {1, 5, 10} sweep here would dominate the
        // test-suite's runtime for no extra coverage.
        let out = run("fig21", &tiny_ctx());
        let routes: Vec<_> = out.records.iter().map(|r| r.label("route")).collect();
        assert_eq!(
            routes,
            [
                Some("Original"),
                Some("Shortest"),
                Some("MaxRkNNT"),
                Some("MinRkNNT")
            ]
        );
    }

    /// Each wall-clock experiment reports its modes and its gate values
    /// (identical answers between the modes are asserted inside each).
    /// Only the count-like gates are held here: the timing ratios are what
    /// `experiments --exp gates` is for, at a scale where they mean
    /// something.
    #[test]
    fn wall_clock_experiments_report_their_modes_and_gates() {
        let ctx = tiny_ctx();
        for (name, modes, gates) in [("cold_start", 3, 1), ("instrumentation_overhead", 3, 2)] {
            let out = run(name, &ctx);
            assert_eq!(out.records.len(), modes, "{name}");
            assert_eq!(out.gates.len(), gates, "{name}");
            for gate in &out.gates {
                assert!(gate.name.starts_with(name), "{}", gate.name);
                assert!(gate.measured.is_finite(), "{gate}");
            }
        }
        let out = run("open_loop_latency", &ctx);
        // Calibration, five offered rates, the knee, the burst.
        assert_eq!(out.records.len(), 1 + 5 + 1 + 1);
        assert_eq!(out.gates.len(), 2);
        assert!(
            out.gates.iter().all(|gate| gate.passed()),
            "{:?}",
            out.gates
        );
    }
}
