//! Distance functions used by the query processing layer.

use crate::point::Point;
use crate::rect::Rect;

/// Point-to-route distance of Definition 3: the minimum Euclidean distance
/// from a transition point `t` to every point of the route `route`.
///
/// Returns `f64::INFINITY` for an empty route, which makes an empty route
/// "infinitely far" — it can never be a nearest neighbour, matching the
/// requirement that routes have at least two points.
pub fn point_route_distance(t: &Point, route: &[Point]) -> f64 {
    point_route_distance_sq(t, route).sqrt()
}

/// Squared variant of [`point_route_distance`]; prefer this in comparisons.
pub fn point_route_distance_sq(t: &Point, route: &[Point]) -> f64 {
    route
        .iter()
        .map(|r| t.distance_sq(r))
        .fold(f64::INFINITY, f64::min)
}

/// `MinDist(Q, c)` of Equation 3: the minimum over all query points of the
/// minimum distance from the query point to the rectangle `c`. This is the
/// priority used by the best-first traversals in Algorithms 2 and 4.
pub fn min_dist_query_rect(query: &[Point], rect: &Rect) -> f64 {
    min_dist_sq_query_rect(query, rect).sqrt()
}

/// Squared variant of [`min_dist_query_rect`] — also the query side of the
/// Voronoi rectangle test, which compares squared distances.
pub fn min_dist_sq_query_rect(query: &[Point], rect: &Rect) -> f64 {
    query
        .iter()
        .map(|q| rect.min_dist_sq(q))
        .fold(f64::INFINITY, f64::min)
}

/// Minimum distance from a query route to a single point (used when heap
/// entries are leaf points rather than nodes).
pub fn min_dist_query_point(query: &[Point], p: &Point) -> f64 {
    point_route_distance(p, query)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_route_distance_picks_closest_vertex() {
        let route = vec![
            Point::new(0.0, 0.0),
            Point::new(10.0, 0.0),
            Point::new(20.0, 0.0),
        ];
        let t = Point::new(11.0, 1.0);
        assert!((point_route_distance(&t, &route) - 2f64.sqrt()).abs() < 1e-12);
        assert_eq!(point_route_distance(&t, &[]), f64::INFINITY);
    }

    #[test]
    fn min_dist_query_rect_is_zero_when_a_query_point_is_inside() {
        let rect = Rect::new(Point::new(0.0, 0.0), Point::new(4.0, 4.0));
        let q_inside = vec![Point::new(10.0, 10.0), Point::new(2.0, 2.0)];
        let q_outside = vec![Point::new(10.0, 4.0), Point::new(7.0, 4.0)];
        assert_eq!(min_dist_query_rect(&q_inside, &rect), 0.0);
        assert_eq!(min_dist_query_rect(&q_outside, &rect), 3.0);
    }

    #[test]
    fn min_dist_query_point_matches_point_route_distance() {
        let q = vec![Point::new(0.0, 0.0), Point::new(5.0, 5.0)];
        let p = Point::new(4.0, 4.0);
        assert!((min_dist_query_point(&q, &p) - 2f64.sqrt()).abs() < 1e-12);
    }
}
