//! Query workload generators matching Section 7's experimental setup.

use crate::city::City;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rknnt_geo::Point;
use rknnt_graph::{RouteGraph, VertexId};

/// Generates `count` synthetic RkNNT query routes with `len` points and a
/// mean interval of `interval` metres between consecutive points.
///
/// Each query starts at a random route point of the city and grows by
/// appending points one at a time; the heading may rotate by at most ±90°
/// per extension so the query route does not zigzag — exactly the procedure
/// described for the paper's synthetic query set.
pub fn rknnt_queries(
    city: &City,
    count: usize,
    len: usize,
    interval: f64,
    seed: u64,
) -> Vec<Vec<Point>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut queries = Vec::with_capacity(count);
    if city.routes.is_empty() || len == 0 {
        return queries;
    }
    for _ in 0..count {
        let route = &city.routes[rng.gen_range(0..city.routes.len())];
        let start = route[rng.gen_range(0..route.len())];
        let mut heading: f64 = rng.gen_range(0.0..std::f64::consts::TAU);
        let mut points = vec![start];
        while points.len() < len {
            // Rotate by at most ±90° (π/2) per extension.
            heading += rng.gen_range(-std::f64::consts::FRAC_PI_2..std::f64::consts::FRAC_PI_2);
            let last = *points.last().expect("non-empty");
            let next = Point::new(
                last.x + interval * heading.cos(),
                last.y + interval * heading.sin(),
            );
            points.push(next);
        }
        queries.push(points);
    }
    queries
}

/// Picks `count` (start, end) vertex pairs whose straight-line distance is
/// approximately `span` metres (within ±`tolerance`), for the MaxRkNNT
/// experiments parameterised by ψ(se).
///
/// Falls back to the vertex whose distance is closest to the requested span
/// when no vertex lands inside the tolerance band, so the workload never
/// comes back empty on small graphs.
pub fn plan_queries(
    graph: &RouteGraph,
    count: usize,
    span: f64,
    tolerance: f64,
    seed: u64,
) -> Vec<(VertexId, VertexId)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = graph.num_vertices();
    let mut out = Vec::with_capacity(count);
    if n < 2 {
        return out;
    }
    for _ in 0..count {
        let start = VertexId(rng.gen_range(0..n as u32));
        let sp = graph.position(start);
        let mut best: Option<(VertexId, f64)> = None;
        for end in graph.vertices() {
            if end == start {
                continue;
            }
            let gap = (graph.position(end).distance(&sp) - span).abs();
            match best {
                Some((_, b)) if b <= gap => {}
                _ => best = Some((end, gap)),
            }
        }
        if let Some((end, gap)) = best {
            if gap <= tolerance || tolerance <= 0.0 {
                out.push((start, end));
            } else {
                out.push((start, end)); // best effort on sparse graphs
            }
        }
    }
    out
}

/// One event of a [`churn_stream`]: a query to answer or a store update to
/// apply. Update events that reference existing objects (expiry / route
/// removal) carry a raw random draw instead of a concrete id, because the
/// generator cannot know which ids the consumer's store will assign; the
/// consumer resolves the draw against its current live-id list (for example
/// `live[draw as usize % live.len()]`), which keeps the stream fully
/// deterministic for a deterministic consumer.
#[derive(Debug, Clone, PartialEq)]
pub enum ChurnEvent {
    /// Answer an RkNNT query over the given route.
    Query(Vec<Point>),
    /// A new transition arrives with these endpoints.
    InsertTransition(Point, Point),
    /// An existing transition expires; resolve the draw against the live
    /// transition ids.
    ExpireTransition(u64),
    /// A new route appears.
    InsertRoute(Vec<Point>),
    /// An existing route is withdrawn; resolve the draw against the live
    /// route ids.
    RemoveRoute(u64),
}

/// Shape of a [`churn_stream`].
#[derive(Debug, Clone, PartialEq)]
pub struct ChurnConfig {
    /// Total number of events (queries + updates).
    pub events: usize,
    /// Fraction of events that are store updates (0.0 – 1.0).
    pub update_ratio: f64,
    /// Fraction of *updates* that touch routes rather than transitions
    /// (lines change rarely; passenger requests churn constantly).
    pub route_update_fraction: f64,
    /// Number of distinct query routes cycled by the query events (small
    /// pools model popular routes queried repeatedly — the shape that makes
    /// caching matter).
    pub query_pool: usize,
    /// Points per query route.
    pub query_len: usize,
    /// Mean interval between consecutive query points, in metres.
    pub query_interval: f64,
    /// RNG seed.
    pub seed: u64,
}

impl ChurnConfig {
    /// A stream of `events` events at the given update ratio, with
    /// paper-shaped defaults: transition-dominated updates (5% of updates
    /// touch routes), a pool of 12 popular query routes of 4 points.
    pub fn new(events: usize, update_ratio: f64, seed: u64) -> Self {
        ChurnConfig {
            events,
            update_ratio,
            route_update_fraction: 0.05,
            query_pool: 12,
            query_len: 4,
            query_interval: 1_000.0,
            seed,
        }
    }
}

/// Samples a transition endpoint: jittered around a random stop of a random
/// route with a uniform background, mirroring the check-in-shaped transition
/// generator.
fn sample_endpoint(city: &City, rng: &mut StdRng) -> Point {
    let area = city.config.area();
    if rng.gen_range(0.0..1.0) < 0.15 {
        // Uniform background.
        Point::new(
            rng.gen_range(area.min.x..area.max.x),
            rng.gen_range(area.min.y..area.max.y),
        )
    } else {
        // Jittered around a random stop of a random route.
        let route = &city.routes[rng.gen_range(0..city.routes.len())];
        let stop = route[rng.gen_range(0..route.len())];
        Point::new(
            stop.x + rng.gen_range(-600.0..600.0),
            stop.y + rng.gen_range(-600.0..600.0),
        )
    }
}

/// Samples one store-update event (never a query), preserving the
/// transition-dominated mix of [`churn_stream`].
fn sample_update(city: &City, rng: &mut StdRng, route_update_fraction: f64) -> ChurnEvent {
    if rng.gen_range(0.0..1.0) < route_update_fraction {
        if rng.gen_range(0.0..1.0) < 0.7 {
            // A short new line: a straight-ish walk between stops.
            let from = sample_endpoint(city, rng);
            let heading: f64 = rng.gen_range(0.0..std::f64::consts::TAU);
            let points: Vec<Point> = (0..rng.gen_range(3..7))
                .map(|i| {
                    let d = i as f64 * city.config.stop_spacing;
                    Point::new(from.x + d * heading.cos(), from.y + d * heading.sin())
                })
                .collect();
            ChurnEvent::InsertRoute(points)
        } else {
            ChurnEvent::RemoveRoute(rng.gen_range(0..u64::MAX))
        }
    } else if rng.gen_range(0.0..1.0) < 0.55 {
        ChurnEvent::InsertTransition(sample_endpoint(city, rng), sample_endpoint(city, rng))
    } else {
        ChurnEvent::ExpireTransition(rng.gen_range(0..u64::MAX))
    }
}

/// Generates an interleaved query/update stream over a city — the
/// update-heavy serving workload where "old transitions expire and new
/// transitions arrive" (and, rarely, bus lines change).
///
/// Update endpoints are sampled near random route stops with Gaussian-ish
/// jitter plus a uniform background, mirroring the check-in-shaped
/// transition generator; inserted routes are short lattice walks like the
/// city's own. The stream is deterministic in the configuration.
pub fn churn_stream(city: &City, config: &ChurnConfig) -> Vec<ChurnEvent> {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut events = Vec::with_capacity(config.events);
    if city.routes.is_empty() || config.events == 0 {
        return events;
    }
    let pool = rknnt_queries(
        city,
        config.query_pool.max(1),
        config.query_len.max(1),
        config.query_interval,
        config.seed ^ 0xc0ffee,
    );
    let mut query_cursor = 0usize;
    // Inserts outnumber expiries slightly so the store never drains.
    for _ in 0..config.events {
        if rng.gen_range(0.0..1.0) < config.update_ratio {
            events.push(sample_update(city, &mut rng, config.route_update_fraction));
        } else {
            events.push(ChurnEvent::Query(pool[query_cursor % pool.len()].clone()));
            query_cursor += 1;
        }
    }
    events
}

/// Takes every existing route of the city as a query (the "real route
/// queries" of Figures 16 and 20), optionally truncated to at most
/// `max_queries` routes for time-boxed runs.
pub fn real_route_queries(city: &City, max_queries: usize) -> Vec<Vec<Point>> {
    city.routes.iter().take(max_queries).cloned().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::city::{CityConfig, CityGenerator};
    use rknnt_geo::travel_distance;

    fn city() -> City {
        CityGenerator::new(CityConfig::small(2)).generate()
    }

    #[test]
    fn rknnt_queries_have_requested_shape() {
        let city = city();
        let queries = rknnt_queries(&city, 50, 5, 1_000.0, 4);
        assert_eq!(queries.len(), 50);
        for q in &queries {
            assert_eq!(q.len(), 5);
            // Interval is exact by construction: ψ(Q)/(|Q|-1) == interval.
            let psi = travel_distance(q);
            assert!((psi / 4.0 - 1_000.0).abs() < 1e-6);
        }
        // Determinism.
        assert_eq!(queries, rknnt_queries(&city, 50, 5, 1_000.0, 4));
        assert_ne!(queries, rknnt_queries(&city, 50, 5, 1_000.0, 5));
    }

    #[test]
    fn plan_queries_hit_the_requested_span() {
        let city = city();
        let graph = city.graph();
        let span = 6_000.0;
        let pairs = plan_queries(&graph, 20, span, 1_500.0, 7);
        assert_eq!(pairs.len(), 20);
        for (s, e) in pairs {
            assert_ne!(s, e);
            let d = graph.position(s).distance(&graph.position(e));
            assert!(
                (d - span).abs() < 2_000.0,
                "span {d} too far from requested {span}"
            );
        }
    }

    #[test]
    fn real_route_queries_truncate() {
        let city = city();
        let all = real_route_queries(&city, usize::MAX);
        assert_eq!(all.len(), city.num_routes());
        let some = real_route_queries(&city, 10);
        assert_eq!(some.len(), 10);
        assert_eq!(some[3], city.routes[3]);
    }

    #[test]
    fn churn_stream_is_deterministic_and_respects_the_mix() {
        let city = city();
        let config = ChurnConfig::new(400, 0.10, 21);
        let a = churn_stream(&city, &config);
        let b = churn_stream(&city, &config);
        assert_eq!(a.len(), 400);
        assert_eq!(a, b, "same config must generate the same stream");
        assert_ne!(a, churn_stream(&city, &ChurnConfig::new(400, 0.10, 22)));

        let updates = a
            .iter()
            .filter(|e| !matches!(e, ChurnEvent::Query(_)))
            .count();
        let ratio = updates as f64 / a.len() as f64;
        assert!(
            (0.03..0.25).contains(&ratio),
            "update ratio {ratio} far from requested 0.10"
        );
        // Transition churn dominates route churn.
        let route_updates = a
            .iter()
            .filter(|e| matches!(e, ChurnEvent::InsertRoute(_) | ChurnEvent::RemoveRoute(_)))
            .count();
        assert!(route_updates * 2 < updates.max(1));
        // Queries cycle a small pool: repetition is guaranteed.
        let queries: Vec<&Vec<Point>> = a
            .iter()
            .filter_map(|e| match e {
                ChurnEvent::Query(q) => Some(q),
                _ => None,
            })
            .collect();
        assert!(queries.len() > config.query_pool);
        assert_eq!(queries[0], queries[config.query_pool]);
        // All generated geometry is finite.
        for e in &a {
            match e {
                ChurnEvent::Query(q) | ChurnEvent::InsertRoute(q) => {
                    assert!(q.iter().all(Point::is_finite))
                }
                ChurnEvent::InsertTransition(o, d) => {
                    assert!(o.is_finite() && d.is_finite())
                }
                ChurnEvent::ExpireTransition(_) | ChurnEvent::RemoveRoute(_) => {}
            }
        }
    }

    #[test]
    fn degenerate_inputs() {
        let city = city();
        assert!(rknnt_queries(&city, 5, 0, 100.0, 1)
            .iter()
            .all(|q| q.is_empty()));
        let empty_graph = RouteGraph::new();
        assert!(plan_queries(&empty_graph, 5, 100.0, 10.0, 1).is_empty());
    }
}
