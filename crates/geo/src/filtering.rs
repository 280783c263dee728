//! The filtering space `H_{r:Q}` of Definition 6.
//!
//! Given a filtering point `r` (a route point) and a multi-point query route
//! `Q = {q_1, …, q_m}`, the filtering space is the intersection of the
//! half-planes `H_{r:q_i}` over all query points. Every point inside the
//! filtering space is closer to `r` than to *every* point of `Q`, hence (by
//! Lemma 2) closer to the route containing `r` than to the query route — so
//! it cannot take the query as its nearest route through `r`'s route.
//!
//! The strict predicates the pruning rules use are defined once, as
//! functions over a slice of half-planes ([`strictly_contains_point`] and the
//! three-way [`classify_rect`], whose `Inside` verdict is the strict
//! rectangle test): a filter set stores the half-planes of all its filter
//! points in one flat array and hands these functions one row at a time, and
//! [`FilteringSpace`] — the owning, one-point form — calls the same
//! functions.

use crate::bisector::HalfPlane;
use crate::point::Point;
use crate::rect::Rect;
use serde::{Deserialize, Serialize};

/// Fills `out` with the half-planes `H_{r:q}` for every `q` of `query`, in
/// query order — one row of a flat half-plane array.
pub fn push_half_planes(r: Point, query: &[Point], out: &mut Vec<HalfPlane>) {
    out.extend(query.iter().map(|q| HalfPlane::closer_to(r, *q)));
}

/// Whether `p` is *strictly* closer to the filtering point than to every
/// query point: `p` lies strictly inside every half-plane of the space.
/// An empty space (empty query) strictly contains nothing.
#[inline]
pub fn strictly_contains_point(planes: &[HalfPlane], p: &Point) -> bool {
    !planes.is_empty() && planes.iter().all(|hp| hp.strictly_contains_point(p))
}

/// How a filtering space relates to a rectangle, as far as the strict
/// predicates can tell — and, by the rounding-monotonicity of the half-plane
/// evaluation (see [`HalfPlane`]), to every point and sub-rectangle of it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RectVerdict {
    /// Every half-plane strictly contains the rectangle: the space strictly
    /// contains every point and sub-rectangle of it.
    Inside,
    /// Some half-plane strictly contains *no* point of the rectangle (a
    /// degenerate half-plane always): the space strictly contains no point
    /// and no sub-rectangle of it.
    Outside,
    /// Neither: points and sub-rectangles must be judged on their own.
    Straddling,
}

/// Classifies `rect` against the space whose half-planes are `planes`.
///
/// `Inside` *is* the strict rectangle test of the pruning rules (every
/// half-plane's max-corner test passes); `Outside` is its min-corner twin.
/// An empty space (empty query) strictly contains nothing and is `Outside`
/// everything.
#[inline]
pub fn classify_rect(planes: &[HalfPlane], rect: &Rect) -> RectVerdict {
    if planes.is_empty() {
        return RectVerdict::Outside;
    }
    let mut inside = true;
    for hp in planes {
        if !hp.strictly_intersects_rect(rect) {
            return RectVerdict::Outside;
        }
        inside = inside && hp.strictly_contains_rect(rect);
    }
    if inside {
        RectVerdict::Inside
    } else {
        RectVerdict::Straddling
    }
}

/// The filtering space `H_{r:Q} = ⋂_{q ∈ Q} H_{r:q}` generated by one
/// filtering point `r` and a query route `Q`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FilteringSpace {
    /// One half-plane per query point, in query order.
    half_planes: Vec<HalfPlane>,
}

impl FilteringSpace {
    /// Builds the filtering space for filtering point `r` against the query
    /// route `query` (one half-plane per query point).
    ///
    /// An empty query produces a space that contains everything, which is
    /// never useful for pruning; callers validate non-empty queries at the
    /// API boundary.
    pub fn new(r: Point, query: &[Point]) -> Self {
        let mut half_planes = Vec::with_capacity(query.len());
        push_half_planes(r, query, &mut half_planes);
        FilteringSpace { half_planes }
    }

    /// Number of half-planes (= number of query points).
    #[inline]
    pub fn len(&self) -> usize {
        self.half_planes.len()
    }

    /// Whether the space has no half-planes (empty query).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.half_planes.is_empty()
    }

    /// Whether point `p` lies in the filtering space, i.e. is closer to the
    /// filtering point than to every query point.
    pub fn contains_point(&self, p: &Point) -> bool {
        self.half_planes.iter().all(|hp| hp.contains_point(p))
    }

    /// Whether the whole rectangle lies in the filtering space.
    ///
    /// Because the filtering space is an intersection of convex half-planes,
    /// it is convex, and the rectangle is contained iff it is contained in
    /// each half-plane.
    pub fn contains_rect(&self, rect: &Rect) -> bool {
        self.half_planes.iter().all(|hp| hp.contains_rect(rect))
    }

    /// Whether point `p` is *strictly* closer to the filtering point than to
    /// every query point. Used by the pruning rules, which must not prune on
    /// exact ties (see [`crate::HalfPlane::strictly_contains_rect`]).
    pub fn strictly_contains_point(&self, p: &Point) -> bool {
        strictly_contains_point(&self.half_planes, p)
    }

    /// Whether the whole rectangle is strictly inside the filtering space.
    pub fn strictly_contains_rect(&self, rect: &Rect) -> bool {
        self.classify_rect(rect) == RectVerdict::Inside
    }

    /// The three-way verdict of [`classify_rect`] for this space.
    pub fn classify_rect(&self, rect: &Rect) -> RectVerdict {
        classify_rect(&self.half_planes, rect)
    }

    /// Access to the underlying half-planes, in query order.
    pub fn half_planes(&self) -> &[HalfPlane] {
        &self.half_planes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_query_point_reduces_to_half_plane() {
        let r = Point::new(0.0, 0.0);
        let q = Point::new(10.0, 0.0);
        let fs = FilteringSpace::new(r, &[q]);
        assert_eq!(fs.len(), 1);
        assert!(fs.contains_point(&Point::new(1.0, 0.0)));
        assert!(!fs.contains_point(&Point::new(9.0, 0.0)));
    }

    #[test]
    fn intersection_shrinks_with_more_query_points() {
        let r = Point::new(0.0, 0.0);
        // Query points surrounding r on the right and above.
        let q1 = Point::new(10.0, 0.0);
        let q2 = Point::new(0.0, 10.0);
        let fs1 = FilteringSpace::new(r, &[q1]);
        let fs2 = FilteringSpace::new(r, &[q1, q2]);
        // A point close to r but above the x axis midline of q2: inside fs1, outside fs2.
        let p = Point::new(1.0, 8.0);
        assert!(fs1.contains_point(&p));
        assert!(!fs2.contains_point(&p));
        // Points inside fs2 are necessarily inside fs1.
        for i in -10..10 {
            for j in -10..10 {
                let p = Point::new(i as f64 * 0.7, j as f64 * 0.7);
                if fs2.contains_point(&p) {
                    assert!(fs1.contains_point(&p));
                }
            }
        }
    }

    #[test]
    fn semantics_match_distance_definition() {
        // p is in H_{r:Q} iff dist(p, r) <= dist(p, q) for every q in Q.
        let r = Point::new(2.0, 3.0);
        let query = vec![
            Point::new(-5.0, 1.0),
            Point::new(0.0, 8.0),
            Point::new(6.0, -2.0),
        ];
        let fs = FilteringSpace::new(r, &query);
        for i in -12..12 {
            for j in -12..12 {
                let p = Point::new(i as f64 * 0.9, j as f64 * 0.9);
                let by_dist = query.iter().all(|q| p.distance(&r) <= p.distance(q) + 1e-9);
                assert_eq!(fs.contains_point(&p), by_dist, "point {p}");
            }
        }
    }

    #[test]
    fn rect_containment_requires_all_corners() {
        let r = Point::new(0.0, 0.0);
        let query = vec![Point::new(10.0, 0.0), Point::new(10.0, 10.0)];
        let fs = FilteringSpace::new(r, &query);
        let inside = Rect::new(Point::new(-2.0, -2.0), Point::new(0.0, 0.0));
        let straddling = Rect::new(Point::new(3.0, 0.0), Point::new(7.0, 1.0));
        assert!(fs.contains_rect(&inside));
        assert!(!fs.contains_rect(&straddling));
    }

    #[test]
    fn classification_has_three_verdicts() {
        let r = Point::new(0.0, 0.0);
        let query = vec![Point::new(10.0, 0.0), Point::new(0.0, 10.0)];
        let fs = FilteringSpace::new(r, &query);
        let rect = |x: f64, y: f64| Rect::new(Point::new(x, y), Point::new(x + 2.0, y + 2.0));
        // Bisectors are x = 5 and y = 5.
        assert_eq!(fs.classify_rect(&rect(-1.0, -1.0)), RectVerdict::Inside);
        assert_eq!(fs.classify_rect(&rect(4.0, 0.0)), RectVerdict::Straddling);
        // Beyond one bisector is enough to be outside, wherever the other is.
        assert_eq!(fs.classify_rect(&rect(6.0, 0.0)), RectVerdict::Outside);
        assert_eq!(fs.classify_rect(&rect(6.0, 4.0)), RectVerdict::Outside);
        // Touching a bisector from the far side holds ties, nothing strict.
        assert_eq!(fs.classify_rect(&rect(5.0, 0.0)), RectVerdict::Outside);
        assert!(fs.strictly_contains_rect(&rect(-1.0, -1.0)));
        assert!(!fs.strictly_contains_rect(&rect(4.0, 0.0)));
        // A filtering point that is itself a query point strictly contains
        // nothing (degenerate half-plane), and neither does an empty space.
        let on_query = FilteringSpace::new(query[0], &query);
        assert_eq!(
            on_query.classify_rect(&rect(9.0, -1.0)),
            RectVerdict::Outside
        );
        assert!(!on_query.strictly_contains_point(&query[0]));
        let empty = FilteringSpace::new(r, &[]);
        assert_eq!(empty.classify_rect(&rect(-1.0, -1.0)), RectVerdict::Outside);
        assert!(!empty.strictly_contains_point(&r));
    }

    #[test]
    fn empty_query_contains_everything() {
        let fs = FilteringSpace::new(Point::new(0.0, 0.0), &[]);
        assert!(fs.is_empty());
        assert!(fs.contains_point(&Point::new(1e6, -1e6)));
    }
}
