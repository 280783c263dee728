//! The Voronoi filtering space `H_{R:Q}` of Definition 8.
//!
//! Section 5.1 of the paper enlarges the pruning region by considering *all*
//! filtering points of one route `R` at once: in the Voronoi diagram of the
//! generator set `R ∪ Q`, the union of the cells whose generators belong to
//! `R` is the set of points that are closer to some point of `R` than to
//! every point of `Q` — i.e. points whose nearest route point among
//! `R ∪ Q` belongs to `R`.
//!
//! We implement the predicate directly from that characterisation instead of
//! constructing the Voronoi polygon geometry:
//!
//! * **Point test** (exact): `p ∈ H_{R:Q}` ⇔ `dist(p, R) <= dist(p, Q)`,
//!   which is exactly "the nearest generator of `p` is a point of `R`"
//!   (ties resolved in favour of `R`, consistent with the half-plane test).
//! * **Rectangle test** (sound, slightly conservative): the rectangle is
//!   declared inside when `min_{r∈R} MaxDist(rect, r) <= min_{q∈Q}
//!   MinDist(rect, q)`, or when every corner is inside **and** the rectangle
//!   is fully covered by the union of the per-point filtering spaces of the
//!   individual route points (checked by testing containment in at least one
//!   per-point space for each corner plus the centre — still conservative).
//!   In practice the first condition already fires for the far-away nodes
//!   that the optimisation targets (e.g. MBR1 in Figure 5), and a
//!   conservative "no" only costs extra refinement work, never correctness.
//!
//! The exactness/conservativeness trade-off is discussed in `DESIGN.md` §5.
//!
//! The strict tests the pruning walks run are slice-level functions
//! ([`strictly_covers_point`], [`strictly_covers_rect`]) that take the query
//! side as a number: it depends only on the tested entry, so a caller
//! judging one entry against many routes computes it once. They leave out
//! the per-point filtering spaces — a caller that has just run step 1 of
//! `IsFiltered` already knows those reject the entry for every route it
//! still asks about. [`VoronoiFilter`], the owning one-route form, adds the
//! per-point spaces back.

use crate::distance::{min_dist_sq_query_rect, point_route_distance, point_route_distance_sq};
use crate::filtering::FilteringSpace;
use crate::point::Point;
use crate::rect::Rect;
use crate::EPSILON;
use serde::{Deserialize, Serialize};

/// Strict point test of `H_{R:Q}`: some point of `route_points` is strictly
/// closer to `p` than the query is, `query_dist_sq` being
/// `min_{q∈Q} dist²(p, q)`.
#[inline]
pub fn strictly_covers_point(route_points: &[Point], p: &Point, query_dist_sq: f64) -> bool {
    point_route_distance_sq(p, route_points) < query_dist_sq - EPSILON
}

/// Strict rectangle test of `H_{R:Q}` without the per-point filtering
/// spaces: `query_min_dist_sq` is `min_{q∈Q} MinDist²(rect, q)`
/// ([`min_dist_sq_query_rect`]). True when one route point dominates the
/// whole rectangle (its `MaxDist` beats the query's `MinDist`), or when the
/// rectangle is small relative to its distance from the query — for the
/// route point `r*` nearest the centre `c`, `dist(c, r*) + diam(rect) <
/// MinDist(rect, Q)` puts every point of the rectangle strictly closer to
/// `r*` than to the query.
pub fn strictly_covers_rect(route_points: &[Point], rect: &Rect, query_min_dist_sq: f64) -> bool {
    let best_route_maxdist = route_points
        .iter()
        .map(|r| rect.max_dist_sq(r))
        .fold(f64::INFINITY, f64::min);
    if best_route_maxdist < query_min_dist_sq - EPSILON {
        return true;
    }
    // The root of the least squared distance is the least distance, bit for
    // bit: `sqrt` is correctly rounded, hence monotone.
    let d_centre_route = point_route_distance(&rect.center(), route_points);
    let diam = rect.min.distance(&rect.max);
    d_centre_route + diam < query_min_dist_sq.sqrt() - EPSILON
}

/// The Voronoi filtering space `H_{R:Q}` generated by a filtering route `R`
/// (all of its points available as filtering points) and the query `Q`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct VoronoiFilter {
    /// Points of the filtering route.
    route_points: Vec<Point>,
    /// Points of the query route.
    query_points: Vec<Point>,
    /// Per-route-point filtering spaces, reusing the bisectors that the
    /// per-point phase already needs (the paper notes the Voronoi
    /// information comes at no extra construction cost).
    per_point: Vec<FilteringSpace>,
}

impl VoronoiFilter {
    /// Builds the Voronoi filtering space for the given filtering-route
    /// points and query points.
    pub fn new(route_points: Vec<Point>, query_points: Vec<Point>) -> Self {
        let per_point = route_points
            .iter()
            .map(|r| FilteringSpace::new(*r, &query_points))
            .collect();
        VoronoiFilter {
            route_points,
            query_points,
            per_point,
        }
    }

    /// The filtering-route points.
    pub fn route_points(&self) -> &[Point] {
        &self.route_points
    }

    /// The query points.
    pub fn query_points(&self) -> &[Point] {
        &self.query_points
    }

    /// Exact point-in-`H_{R:Q}` test: the nearest generator among
    /// `R ∪ Q` is a point of `R` (ties in favour of `R`).
    pub fn contains_point(&self, p: &Point) -> bool {
        if self.route_points.is_empty() || self.query_points.is_empty() {
            return false;
        }
        let d_route = self
            .route_points
            .iter()
            .map(|r| p.distance_sq(r))
            .fold(f64::INFINITY, f64::min);
        let d_query = self
            .query_points
            .iter()
            .map(|q| p.distance_sq(q))
            .fold(f64::INFINITY, f64::min);
        d_route <= d_query + EPSILON
    }

    /// Strict variant of [`VoronoiFilter::contains_point`]: the nearest
    /// generator is a point of `R` and the distance is strictly smaller than
    /// the distance to every query point. Pruning rules use this so exact
    /// ties are never pruned.
    pub fn strictly_contains_point(&self, p: &Point) -> bool {
        if self.route_points.is_empty() || self.query_points.is_empty() {
            return false;
        }
        let d_query = point_route_distance_sq(p, &self.query_points);
        strictly_covers_point(&self.route_points, p, d_query)
    }

    /// Strict variant of [`VoronoiFilter::contains_rect`]: true only when
    /// every point of the rectangle is strictly closer to the filtering route
    /// than to the query.
    pub fn strictly_contains_rect(&self, rect: &Rect) -> bool {
        if self.route_points.is_empty() || self.query_points.is_empty() {
            return false;
        }
        let query_side = min_dist_sq_query_rect(&self.query_points, rect);
        strictly_covers_rect(&self.route_points, rect, query_side)
            || self
                .per_point
                .iter()
                .any(|fs| fs.strictly_contains_rect(rect))
    }

    /// Sound (conservative) rectangle-in-`H_{R:Q}` test.
    ///
    /// Returns `true` only when every point of `rect` is guaranteed to be
    /// closer to the filtering route than to the query. May return `false`
    /// for rectangles that are in fact fully inside; such rectangles are then
    /// opened and their children re-tested, so pruning power is lost but
    /// correctness is preserved.
    pub fn contains_rect(&self, rect: &Rect) -> bool {
        if self.route_points.is_empty() || self.query_points.is_empty() {
            return false;
        }
        // Condition A: some single route point dominates the whole rectangle:
        //   max-dist from the rect to r  <=  min-dist from the rect to any q.
        let best_route_maxdist = self
            .route_points
            .iter()
            .map(|r| rect.max_dist_sq(r))
            .fold(f64::INFINITY, f64::min);
        let best_query_mindist = self
            .query_points
            .iter()
            .map(|q| rect.min_dist_sq(q))
            .fold(f64::INFINITY, f64::min);
        if best_route_maxdist <= best_query_mindist + EPSILON {
            return true;
        }
        // Condition B: the rectangle is covered by the union of the per-point
        // filtering spaces of the route points, certified corner-by-corner.
        // Each per-point space is convex; if one single space contains the
        // whole rect we are done (this is the classic per-point test).
        if self.per_point.iter().any(|fs| fs.contains_rect(rect)) {
            return true;
        }
        // Condition C: every corner and the centre are inside H_{R:Q} *and*
        // the rectangle's diameter is small relative to its distance to the
        // query, so no interior point can flip preference. Specifically if
        // for the nearest route point r* of the centre c we have
        //   dist(c, r*) + diam(rect) <= min-dist(rect, Q)
        // then every p in rect satisfies dist(p, R) <= dist(p, Q).
        let c = rect.center();
        let d_centre_route = self
            .route_points
            .iter()
            .map(|r| c.distance(r))
            .fold(f64::INFINITY, f64::min);
        let diam = rect.min.distance(&rect.max);
        let min_q = best_query_mindist.sqrt();
        d_centre_route + diam <= min_q + EPSILON
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_filter() -> VoronoiFilter {
        // A horizontal filtering route below a horizontal query route,
        // mirroring Figure 5's layout.
        let route = vec![
            Point::new(0.0, 0.0),
            Point::new(10.0, 0.0),
            Point::new(20.0, 0.0),
            Point::new(30.0, 0.0),
        ];
        let query = vec![
            Point::new(0.0, 10.0),
            Point::new(10.0, 10.0),
            Point::new(20.0, 10.0),
            Point::new(30.0, 10.0),
        ];
        VoronoiFilter::new(route, query)
    }

    #[test]
    fn point_test_matches_nearest_generator() {
        let vf = sample_filter();
        // Below the corridor midline y = 5: closer to the route.
        assert!(vf.contains_point(&Point::new(15.0, 2.0)));
        assert!(vf.contains_point(&Point::new(-5.0, -8.0)));
        // Above the midline: closer to the query.
        assert!(!vf.contains_point(&Point::new(15.0, 8.0)));
        // On the midline: tie, resolved in favour of the route.
        assert!(vf.contains_point(&Point::new(15.0, 5.0)));
    }

    #[test]
    fn point_test_brute_force_equivalence() {
        let route = vec![
            Point::new(1.0, 1.0),
            Point::new(4.0, 7.0),
            Point::new(-3.0, 2.0),
        ];
        let query = vec![Point::new(8.0, 0.0), Point::new(0.0, -6.0)];
        let vf = VoronoiFilter::new(route.clone(), query.clone());
        for i in -10..10 {
            for j in -10..10 {
                let p = Point::new(i as f64 * 1.1, j as f64 * 1.1);
                let d_r = route
                    .iter()
                    .map(|r| p.distance(r))
                    .fold(f64::INFINITY, f64::min);
                let d_q = query
                    .iter()
                    .map(|q| p.distance(q))
                    .fold(f64::INFINITY, f64::min);
                assert_eq!(vf.contains_point(&p), d_r <= d_q + 1e-9, "p = {p}");
            }
        }
    }

    #[test]
    fn rect_test_is_sound() {
        // Every rect the conservative test accepts must have all sampled
        // interior points inside H_{R:Q}.
        let vf = sample_filter();
        for i in -4..8 {
            for j in -4..4 {
                let rect = Rect::new(
                    Point::new(i as f64 * 5.0, j as f64 * 5.0),
                    Point::new(i as f64 * 5.0 + 4.0, j as f64 * 5.0 + 3.0),
                );
                if vf.contains_rect(&rect) {
                    for sx in 0..=4 {
                        for sy in 0..=4 {
                            let p = Point::new(
                                rect.min.x + rect.width() * sx as f64 / 4.0,
                                rect.min.y + rect.height() * sy as f64 / 4.0,
                            );
                            assert!(vf.contains_point(&p), "rect {rect:?} point {p}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn rect_far_below_route_is_pruned() {
        let vf = sample_filter();
        // A node well below the filtering route: prunable (like MBR1 in Fig. 5).
        let far = Rect::new(Point::new(5.0, -40.0), Point::new(25.0, -30.0));
        assert!(vf.contains_rect(&far));
        // A node above the query: not prunable.
        let above = Rect::new(Point::new(5.0, 20.0), Point::new(25.0, 30.0));
        assert!(!vf.contains_rect(&above));
    }

    #[test]
    fn voronoi_is_at_least_as_strong_as_single_point_filtering() {
        // Any rect fully inside some single-point filtering space must also be
        // accepted by the Voronoi filter (condition B guarantees this).
        let vf = sample_filter();
        for i in -6..6 {
            for j in -6..2 {
                let rect = Rect::new(
                    Point::new(i as f64 * 4.0, j as f64 * 4.0),
                    Point::new(i as f64 * 4.0 + 3.0, j as f64 * 4.0 + 2.0),
                );
                let single = vf
                    .route_points()
                    .iter()
                    .any(|r| FilteringSpace::new(*r, vf.query_points()).contains_rect(&rect));
                if single {
                    assert!(vf.contains_rect(&rect), "rect {rect:?}");
                }
            }
        }
    }

    #[test]
    fn empty_inputs_never_prune() {
        let vf = VoronoiFilter::new(vec![], vec![Point::new(0.0, 0.0)]);
        assert!(!vf.contains_point(&Point::new(1.0, 1.0)));
        assert!(!vf.contains_rect(&Rect::from_point(Point::new(1.0, 1.0))));
        let vf2 = VoronoiFilter::new(vec![Point::new(0.0, 0.0)], vec![]);
        assert!(!vf2.contains_point(&Point::new(1.0, 1.0)));
    }
}
