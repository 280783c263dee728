//! The Voronoi filtering space `H_{R:Q}` of Definition 8.
//!
//! Section 5.1 of the paper enlarges the pruning region by considering *all*
//! filtering points of one route `R` at once: in the Voronoi diagram of the
//! generator set `R ∪ Q`, the union of the cells whose generators belong to
//! `R` is the set of points that are closer to some point of `R` than to
//! every point of `Q` — i.e. points whose nearest route point among
//! `R ∪ Q` belongs to `R`.
//!
//! That characterisation is a predicate, so no Voronoi polygon is ever
//! constructed — and after step 1 of `IsFiltered` most of the predicate has
//! already been evaluated:
//!
//! * At a **point** `p`, `p ∈ H_{R:Q}` is `min_{r∈R} |p − r|² < d²(p, Q)`:
//!   some single generator is strictly closer than the query, which is
//!   `p ∈ H_{r:Q}` for that generator — the comparison
//!   [`crate::filtering::PointEntry::is_inside`] makes, with the same two
//!   numbers. There is no separate Voronoi point test.
//! * A **rectangle** can be covered by several cells of one route and by no
//!   single one. [`strictly_covers_rect`] is a sound, conservative test for
//!   that: the rectangle is small relative to its distance from the query.
//!   (One generator dominating the whole rectangle — `MaxDist²(rect, r)`
//!   below `MinDist²(rect, Q)` — would be a second sufficient condition, but
//!   it implies that generator's four-corner test: `MaxDist²` *is* the
//!   farthest corner's distance and `MinDist²(rect, Q)` is at most any
//!   corner's. A route step 1 left uncounted cannot meet it.) A
//!   conservative "no" only costs extra refinement work, never correctness.

use crate::distance::point_route_distance;
use crate::filtering::strict_threshold;
use crate::point::Point;
use crate::rect::Rect;

/// Strict rectangle test of `H_{R:Q}` for a route none of whose generators'
/// own filtering spaces contains the rectangle: `query_min_dist_sq` is
/// `min_{q∈Q} MinDist²(rect, q)` ([`crate::min_dist_sq_query_rect`] — it
/// depends only on the rectangle, so a caller judging it against many routes
/// computes it once). True when, for the route point `r*` nearest the centre
/// `c`, `dist(c, r*) + diam(rect) < MinDist(rect, Q)`: every point of the
/// rectangle is then strictly closer to `r*` than to the query.
///
/// Unlike the tests of [`crate::filtering`] this one compares distances, not
/// squared distances, and is not implied downwards: a point of an accepted
/// rectangle need not pass the point test for any generator of the route
/// when it is within the tolerance band of the query.
pub fn strictly_covers_rect(route_points: &[Point], rect: &Rect, query_min_dist_sq: f64) -> bool {
    let diam = rect.min.distance(&rect.max);
    let limit = strict_threshold(query_min_dist_sq.sqrt());
    // A rectangle too large for any generator fails before the generators
    // are scanned: distances are ≥ 0 and the sum rounds monotonically, so the
    // first comparison never changes the answer. The root of the least
    // squared distance is the least distance, bit for bit: `sqrt` is
    // correctly rounded, hence monotone.
    diam < limit && point_route_distance(&rect.center(), route_points) + diam < limit
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::min_dist_sq_query_rect;
    use crate::filtering::PointEntry;

    /// A horizontal filtering route below a horizontal query route,
    /// mirroring Figure 5's layout.
    fn corridor() -> (Vec<Point>, Vec<Point>) {
        let along = |y: f64| (0..4).map(|i| Point::new(i as f64 * 10.0, y)).collect();
        (along(0.0), along(10.0))
    }

    fn covers(route: &[Point], query: &[Point], rect: &Rect) -> bool {
        strictly_covers_rect(route, rect, min_dist_sq_query_rect(query, rect))
    }

    #[test]
    fn small_rect_far_from_the_query_is_covered() {
        let (route, query) = corridor();
        // Between two generators, well below the route: inside no single
        // generator's space by much, but small next to its distance from
        // the query (like MBR1 in Figure 5).
        let far = Rect::new(Point::new(14.0, -40.0), Point::new(16.0, -39.0));
        assert!(covers(&route, &query, &far));
        // Above the query, on the midline, and a large one: not covered.
        let above = Rect::new(Point::new(5.0, 20.0), Point::new(25.0, 30.0));
        let midline = Rect::new(Point::new(14.0, 4.5), Point::new(16.0, 5.5));
        let large = Rect::new(Point::new(-30.0, -60.0), Point::new(60.0, -20.0));
        for rect in [above, midline, large] {
            assert!(!covers(&route, &query, &rect), "{rect:?}");
        }
        // No generators: nothing is covered.
        assert!(!covers(&[], &query, &far));
    }

    #[test]
    fn accepted_rectangles_hold_only_points_closer_to_the_route() {
        let (route, query) = corridor();
        for i in -4..8 {
            for j in -12..4 {
                let rect = Rect::new(
                    Point::new(i as f64 * 5.0, j as f64 * 5.0),
                    Point::new(i as f64 * 5.0 + 2.0, j as f64 * 5.0 + 1.5),
                );
                if !covers(&route, &query, &rect) {
                    continue;
                }
                for sx in 0..=4 {
                    for sy in 0..=4 {
                        let t = Point::new(
                            rect.min.x + rect.width() * sx as f64 / 4.0,
                            rect.min.y + rect.height() * sy as f64 / 4.0,
                        );
                        let entry = PointEntry::new(t, &query);
                        assert!(
                            route.iter().any(|r| entry.is_inside(r)),
                            "rect {rect:?} point {t}"
                        );
                    }
                }
            }
        }
    }
}
