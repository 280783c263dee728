//! The filter footprint: the spatial region and pruning witnesses a filter
//! step actually used, reported alongside results so a serving layer can
//! invalidate cached answers *surgically* under store churn.
//!
//! A cached RkNNT result changes only when an update lands where the query
//! can "see" it. The footprint captures two things the filter phase already
//! computed:
//!
//! * **`region`** — the query route's MBR expanded by the filter radius
//!   actually used (the distance to the farthest filter point chosen by
//!   Algorithm 2). This is the bounding region the filter step touched.
//! * **`witnesses`** — the filter points themselves, each with the crossover
//!   route set recorded at query time.
//!
//! The witnesses double as a *soundness certificate*: every distance in this
//! workspace is the vertex distance of Definition 3 (`min` over route
//! points), so for an arbitrary point `u`, a witness `f` on a still-live
//! route `r` with `|u - f|² < min_q |u - q|²` (strictly, over the query
//! vertices `q`) proves `r` is strictly closer to `u` than the query is —
//! the exact comparison [`crate::count_closer_routes_sq`] performs when it
//! scans the stop `f`. Once `k` distinct live routes are certified closer,
//! `u` cannot take the query as a kNN, no matter what else changed; a new
//! transition endpoint there provably cannot enter the cached result.
//! Routes inserted after the footprint was recorded are simply not counted,
//! which only makes the certificate more conservative, never unsound.

use crate::filter::FilterOutcome;
use rknnt_geo::{point_route_distance_sq, Point, Rect};
use rknnt_index::{RouteId, RouteStore};

/// One pruning witness: a filter point and the crossover route set it
/// carried when the filter set was built.
#[derive(Debug, Clone, PartialEq)]
pub struct FilterWitness {
    /// Location of the filter point (a stop on every crossover route).
    pub point: Point,
    /// Routes passing through the point at filter-construction time.
    pub routes: Vec<RouteId>,
}

/// The region and witnesses a filter construction touched; see the module
/// documentation for the invalidation semantics.
///
/// `region`/`radius` are the coarse summary of the footprint (every witness
/// lies inside `region`, an invariant `from_outcome` checks); the serving
/// layer's eviction decisions use the `witnesses` directly, because a plain
/// "dirty rect intersects the region" test would be *unsound* in the keep
/// direction — a far-away point outside any bounded region can still gain a
/// qualifying transition when fewer than `k` routes lie beyond it — while
/// the certificate is point-precise in both directions.
#[derive(Debug, Clone, PartialEq)]
pub struct FilterFootprint {
    /// Query route MBR expanded by [`FilterFootprint::radius`] — the
    /// bounding region the filter step touched, kept for observability and
    /// as the containment envelope of the witnesses.
    pub region: Rect,
    /// Vertex distance from the query to the farthest filter point used
    /// (0 for an empty filter set).
    pub radius: f64,
    /// The filter points with their recorded crossover sets — the data the
    /// invalidation certificate ([`FilterFootprint::covers_point`]) runs on.
    pub witnesses: Vec<FilterWitness>,
}

impl FilterFootprint {
    /// Derives the footprint of a completed filter construction for the
    /// query route it was built against.
    pub fn from_outcome(query: &[Point], outcome: &FilterOutcome) -> Self {
        let mut radius = 0.0f64;
        let filter_set = &outcome.filter_set;
        let witnesses: Vec<FilterWitness> = filter_set
            .points()
            .iter()
            .enumerate()
            .map(|(index, fp)| {
                let d = point_route_distance_sq(&fp.point, query).sqrt();
                if d.is_finite() {
                    radius = radius.max(d);
                }
                FilterWitness {
                    point: fp.point,
                    routes: filter_set.crossover(index).to_vec(),
                }
            })
            .collect();
        let region = Rect::from_points(query)
            .unwrap_or_else(Rect::empty)
            .expanded(radius);
        debug_assert!(
            witnesses
                .iter()
                .all(|w| !w.point.is_finite() || region.contains_point(&w.point)),
            "every finite witness must lie inside the recorded region"
        );
        FilterFootprint {
            region,
            radius,
            witnesses,
        }
    }

    /// Runs a fresh filter construction for `(query, k)` and returns its
    /// footprint — for callers whose engine did not build one itself.
    pub fn compute(routes: &RouteStore, query: &[Point], k: usize) -> Self {
        Self::from_outcome(query, &crate::filter::build_filter_set(routes, query, k))
    }

    /// Whether `u` is certified covered: at least `k` *distinct* routes that
    /// are still live (per `route_live`) have a witness strictly closer to
    /// `u` than every query vertex is. See the module documentation for why
    /// this is sound against the exact verification arithmetic.
    pub fn covers_point<F>(&self, query: &[Point], u: &Point, k: usize, route_live: F) -> bool
    where
        F: Fn(RouteId) -> bool,
    {
        self.covers_point_with(query, u, k, route_live, &mut Vec::new())
    }

    /// [`FilterFootprint::covers_point`] on a caller-provided covering
    /// buffer (cleared on entry, capacity kept), so retention scans that
    /// certify many endpoints — the cache invalidation and subscription
    /// classification paths — stop allocating per endpoint tested.
    pub fn covers_point_with<F>(
        &self,
        query: &[Point],
        u: &Point,
        k: usize,
        route_live: F,
        covering: &mut Vec<RouteId>,
    ) -> bool
    where
        F: Fn(RouteId) -> bool,
    {
        if k == 0 {
            return true;
        }
        covering.clear();
        let threshold_sq = point_route_distance_sq(u, query);
        for w in &self.witnesses {
            if w.point.distance_sq(u) < threshold_sq {
                for r in &w.routes {
                    if !covering.contains(r) && route_live(*r) {
                        covering.push(*r);
                        if covering.len() >= k {
                            return true;
                        }
                    }
                }
            }
        }
        false
    }

    /// Whether *every* point of `rect` is certified covered: at least `k`
    /// distinct live routes each have a witness strictly closer to the whole
    /// rectangle than the query can ever be to any point of it.
    ///
    /// Per witness `w` the rectangle-level comparison is
    /// `MaxDist(rect, w)² < min_q MinDist(rect, q)²`, which implies the
    /// point-level `|w − u|² < min_q |u − q|²` for every `u ∈ rect`, so
    /// `covers_rect` ⇒ [`FilterFootprint::covers_point`] pointwise. The
    /// sharded router uses this as a *registration* bound (a subscription
    /// need not register on a shard whose territory is fully covered); with
    /// fewer than `k` live witness routes it never certifies anything.
    pub fn covers_rect<F>(&self, query: &[Point], rect: &Rect, k: usize, route_live: F) -> bool
    where
        F: Fn(RouteId) -> bool,
    {
        if k == 0 {
            return true;
        }
        if rect.is_empty() {
            // An empty territory holds no point that could need covering.
            return true;
        }
        let threshold_sq = query
            .iter()
            .map(|q| rect.min_dist_sq(q))
            .fold(f64::INFINITY, f64::min);
        let mut covering: Vec<RouteId> = Vec::new();
        for w in &self.witnesses {
            if rect.max_dist_sq(&w.point) < threshold_sq {
                for r in &w.routes {
                    if !covering.contains(r) && route_live(*r) {
                        covering.push(*r);
                        if covering.len() >= k {
                            return true;
                        }
                    }
                }
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rknnt_rtree::RTreeConfig;

    fn p(x: f64, y: f64) -> Point {
        Point::new(x, y)
    }

    fn ladder(n_routes: usize) -> RouteStore {
        let routes: Vec<Vec<Point>> = (0..n_routes)
            .map(|i| {
                let y = i as f64 * 10.0;
                (0..8).map(|j| p(j as f64 * 10.0, y)).collect()
            })
            .collect();
        let (store, _) = RouteStore::bulk_build(RTreeConfig::new(8, 3), routes);
        store
    }

    #[test]
    fn region_contains_query_and_all_witnesses_bound_the_radius() {
        let store = ladder(12);
        let query = vec![p(0.0, 45.0), p(30.0, 45.0), p(70.0, 45.0)];
        let fp = FilterFootprint::compute(&store, &query, 2);
        assert!(!fp.witnesses.is_empty());
        assert!(fp.radius > 0.0);
        for q in &query {
            assert!(fp.region.contains_point(q));
        }
        for w in &fp.witnesses {
            let d = point_route_distance_sq(&w.point, &query).sqrt();
            assert!(d <= fp.radius + 1e-9);
            assert!(!w.routes.is_empty());
        }
    }

    #[test]
    fn coverage_is_sound_against_the_route_scan() {
        // Wherever the certificate claims coverage, at least k routes really
        // are strictly closer (vertex distance) than the query.
        let store = ladder(10);
        let query = vec![p(0.0, 45.0), p(35.0, 45.0), p(70.0, 45.0)];
        let k = 2;
        let fp = FilterFootprint::compute(&store, &query, k);
        for i in -5..20 {
            for j in -5..20 {
                let u = p(i as f64 * 6.0, j as f64 * 7.0);
                if fp.covers_point(&query, &u, k, |_| true) {
                    let d_query = point_route_distance_sq(&u, &query);
                    let closer = store
                        .routes()
                        .filter(|r| point_route_distance_sq(&u, &r.points) < d_query)
                        .count();
                    assert!(closer >= k, "certificate overclaimed at {u}");
                }
            }
        }
    }

    #[test]
    fn dead_routes_do_not_count_as_witnesses() {
        let store = ladder(4);
        let query = vec![p(0.0, 100.0), p(70.0, 100.0)];
        let fp = FilterFootprint::compute(&store, &query, 4);
        let u = p(35.0, 0.0); // far from the query, near the routes
        assert!(fp.covers_point(&query, &u, 4, |_| true));
        // Declaring every route dead removes all certificates.
        assert!(!fp.covers_point(&query, &u, 1, |_| false));
        // k = 0 is trivially covered.
        assert!(fp.covers_point(&query, &u, 0, |_| false));
    }

    #[test]
    fn rect_coverage_implies_pointwise_coverage() {
        let store = ladder(10);
        let query = vec![p(0.0, 45.0), p(35.0, 45.0), p(70.0, 45.0)];
        let k = 2;
        let fp = FilterFootprint::compute(&store, &query, k);
        let mut certified = 0;
        for i in -3..12 {
            for j in -3..12 {
                let min = p(i as f64 * 8.0, j as f64 * 8.0);
                let rect = Rect::new(min, p(min.x + 6.0, min.y + 6.0));
                if !fp.covers_rect(&query, &rect, k, |_| true) {
                    continue;
                }
                certified += 1;
                // Sample the rectangle: every sampled point must be covered
                // by the point-level certificate too.
                for sx in 0..4 {
                    for sy in 0..4 {
                        let u = p(rect.min.x + sx as f64 * 2.0, rect.min.y + sy as f64 * 2.0);
                        assert!(
                            fp.covers_point(&query, &u, k, |_| true),
                            "rect certificate overclaimed at {u}"
                        );
                    }
                }
            }
        }
        assert!(certified > 0, "expected some rect to be certified");
    }

    #[test]
    fn rect_coverage_needs_k_live_witness_routes() {
        let store = ladder(4);
        let query = vec![p(0.0, 100.0), p(70.0, 100.0)];
        let fp = FilterFootprint::compute(&store, &query, 4);
        let rect = Rect::new(p(20.0, 10.0), p(40.0, 20.0));
        assert!(fp.covers_rect(&query, &rect, 4, |_| true));
        // Killing every witness route withdraws the certificate; fewer than
        // k live routes can never cover.
        assert!(!fp.covers_rect(&query, &rect, 1, |_| false));
        assert!(fp.covers_rect(&query, &rect, 0, |_| false));
        // Empty territories are trivially covered.
        assert!(fp.covers_rect(&query, &Rect::empty(), 4, |_| true));
    }

    #[test]
    fn degenerate_inputs_have_empty_footprints() {
        let store = RouteStore::default();
        let fp = FilterFootprint::compute(&store, &[p(0.0, 0.0), p(1.0, 0.0)], 3);
        assert!(fp.witnesses.is_empty());
        assert_eq!(fp.radius, 0.0);
        assert!(!fp.covers_point(&[p(0.0, 0.0)], &p(5.0, 5.0), 1, |_| true));
    }
}
