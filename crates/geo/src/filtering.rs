//! The filtering space `H_{r:Q}` of Definition 6, in distance form.
//!
//! Given a filtering point `r` (a route point) and a multi-point query route
//! `Q = {q_1, …, q_m}`, the filtering space is the intersection of the
//! half-planes `H_{r:q_i}` (Figure 2) over all query points. Every point
//! inside it is closer to `r` than to *every* point of `Q`, hence (by
//! Lemma 2) closer to the route containing `r` than to the query route — so
//! it cannot take the query as its nearest route through `r`'s route.
//!
//! `p ∈ H_{r:q}` is `|p − r| < |p − q|`, so `p ∈ H_{r:Q}` is one comparison,
//! `|p − r|² < d²(p, Q)`, against a number that depends only on `p`. The
//! tests here are built around that: an *entry* — a point ([`PointEntry`])
//! or a rectangle ([`RectEntry`]) — computes its side of the comparison
//! once, and every filter point judged against it costs a few distance
//! evaluations, whatever |Q| is. No bisector is ever materialised: the
//! comparison is between differences of nearby coordinates, never between
//! the squares `|q|² − |r|²` of a half-plane's constant term, which cancel
//! catastrophically far from the origin.
//!
//! Strictness is decided in one place, `strict_threshold`: `r` counts as
//! strictly closer only when `|p − r|²` is below `d²(p, Q) − EPSILON`, so an
//! exact tie (or anything within the tolerance band of one) is never a
//! pruning witness and falls through to exact verification.

use crate::distance::point_route_distance_sq;
use crate::point::Point;
use crate::rect::Rect;
use crate::EPSILON;

/// The single strictness site of the pruning predicates: a squared distance
/// (or, in the Voronoi rectangle test, a distance) counts as "strictly
/// below `limit`" only when it is below the returned value.
#[inline]
pub(crate) fn strict_threshold(limit: f64) -> f64 {
    limit - EPSILON
}

/// A point `p` as the strict test of `H_{r:Q}` sees it: `p` and
/// `d²(p, Q) − EPSILON`, computed once for all the filter points judged
/// against it.
#[derive(Debug, Clone, Copy)]
pub struct PointEntry {
    point: Point,
    threshold: f64,
}

impl PointEntry {
    /// Prepares `p` for tests against filter points of the query `query`.
    /// An empty query's filtering spaces contain nothing.
    #[inline]
    pub fn new(p: Point, query: &[Point]) -> Self {
        let threshold = if query.is_empty() {
            f64::NEG_INFINITY
        } else {
            strict_threshold(point_route_distance_sq(&p, query))
        };
        PointEntry {
            point: p,
            threshold,
        }
    }

    /// Whether the point lies strictly inside `H_{r:Q}`: `r` is strictly
    /// closer to it than every query point. The two numbers compared are
    /// `r.distance_sq(p)` and `point_route_distance_sq(p, Q)` — the ones
    /// exact verification compares at the same stop — so a point this test
    /// prunes through `r` is a point verification counts `r`'s routes for.
    #[inline]
    pub fn is_inside(&self, r: &Point) -> bool {
        r.distance_sq(&self.point) < self.threshold
    }
}

/// How a filtering space relates to a rectangle, as far as the strict
/// predicates can tell — and with it to every point and sub-rectangle of the
/// rectangle (see [`RectEntry::classify`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RectVerdict {
    /// The space strictly contains all four corners, hence (it is convex)
    /// every point and sub-rectangle of the rectangle.
    Inside,
    /// The space strictly contains no point and no sub-rectangle of the
    /// rectangle.
    Outside,
    /// Neither was shown: points and sub-rectangles must be judged on their
    /// own.
    Straddling,
}

/// A rectangle as the strict tests of `H_{r:Q}` see it: three rows of
/// numbers that depend only on the rectangle and the query, computed in one
/// pass over `Q` (4·|Q| distance evaluations), all in
/// [`Rect::corner_dist_sq`] order.
#[derive(Debug, Clone, Copy)]
pub struct RectEntry {
    rect: Rect,
    /// `strict_threshold(d²(c, Q))` per corner `c` — the corners'
    /// [`PointEntry`] thresholds.
    inside: [f64; 4],
    /// `strict_threshold(|c − q*|²)` per corner `c`, for the query point
    /// `q*` with the least sum over the corners — the one nearest the
    /// rectangle's centre: `Σ_c |c − q|² = 4·|centre − q|² + const`.
    witness: [f64; 4],
    /// `min_{q∈Q} MaxDist²(rect, q)`.
    max_dist_bound: f64,
}

impl RectEntry {
    /// Prepares `rect` for tests against filter points of the query `query`.
    /// An empty query's filtering spaces contain nothing: everything is
    /// outside them.
    pub fn new(rect: &Rect, query: &[Point]) -> Self {
        let mut nearest = [f64::INFINITY; 4];
        let mut witness = [f64::NEG_INFINITY; 4];
        let (mut witness_sum, mut max_dist_bound) = (f64::INFINITY, f64::INFINITY);
        for q in query {
            let dist_sq = rect.corner_dist_sq(q);
            for i in 0..4 {
                nearest[i] = nearest[i].min(dist_sq[i]);
            }
            let sum = (dist_sq[0] + dist_sq[1]) + (dist_sq[2] + dist_sq[3]);
            if sum < witness_sum {
                (witness_sum, witness) = (sum, dist_sq.map(strict_threshold));
            }
            let farthest = dist_sq[0].max(dist_sq[1]).max(dist_sq[2].max(dist_sq[3]));
            max_dist_bound = max_dist_bound.min(farthest);
        }
        let inside = if query.is_empty() {
            [f64::NEG_INFINITY; 4]
        } else {
            nearest.map(strict_threshold)
        };
        RectEntry {
            rect: *rect,
            inside,
            witness,
            max_dist_bound,
        }
    }

    /// Classifies the rectangle against `H_{r:Q}`.
    ///
    /// * **Inside** iff `r` passes the strict point test at all four
    ///   corners. A rectangle lies in a convex set iff its corners do, so
    ///   this is Definition 6's "every half-plane contains the rectangle".
    /// * **Outside** iff the query point nearest the rectangle's centre is
    ///   at least as close as `r` (up to the tolerance) to all four corners
    ///   — `|p − r|² − |p − q|²` is linear in `p`, so then it is to every
    ///   point of the rectangle: `H_{r:q}` misses it — or
    ///   `MinDist²(rect, r) ≥ min_q MaxDist²(rect, q)`, which says the same
    ///   of the query point that attains the minimum (`MaxDist²` is the
    ///   farthest corner's distance).
    /// * **Straddling** otherwise. Trying one witness instead of all of `Q`
    ///   calls some rectangles straddling that another query point would
    ///   show outside; that costs re-tests below, never an answer.
    ///
    /// In real arithmetic both decided verdicts hold for every point and
    /// sub-rectangle of the rectangle. In floating point each comparison is
    /// off by a few ulps of a squared distance between *nearby* points, so
    /// a descendant can disagree with its ancestor only when one of its own
    /// comparisons lies that close to its threshold — and on coordinates
    /// whose squared differences are exact (an integer lattice) never.
    #[inline]
    pub fn classify(&self, r: &Point) -> RectVerdict {
        let dist_sq = self.rect.corner_dist_sq(r);
        if (0..4).all(|i| dist_sq[i] < self.inside[i]) {
            RectVerdict::Inside
        } else if (0..4).all(|i| dist_sq[i] >= self.witness[i])
            || self.rect.min_dist_sq(r) >= self.max_dist_bound
        {
            RectVerdict::Outside
        } else {
            RectVerdict::Straddling
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(x: f64, y: f64) -> Point {
        Point::new(x, y)
    }

    fn classify(r: Point, query: &[Point], rect: &Rect) -> RectVerdict {
        RectEntry::new(rect, query).classify(&r)
    }

    #[test]
    fn point_test_is_the_distance_comparison() {
        let r = p(2.0, 3.0);
        let query = [p(-5.0, 1.0), p(0.0, 8.0), p(6.0, -2.0)];
        for i in -12..12 {
            for j in -12..12 {
                let t = p(i as f64 * 0.9, j as f64 * 0.9);
                let by_dist = query
                    .iter()
                    .all(|q| t.distance_sq(&r) < t.distance_sq(q) - EPSILON);
                assert_eq!(PointEntry::new(t, &query).is_inside(&r), by_dist, "{t}");
            }
        }
    }

    #[test]
    fn ties_coincidences_and_the_empty_query_are_never_inside() {
        let (r, q) = (p(0.0, 0.0), p(10.0, 0.0));
        // On the bisector x = 5: a tie.
        assert!(!PointEntry::new(p(5.0, -2.0), &[q]).is_inside(&r));
        assert!(PointEntry::new(p(4.0, -2.0), &[q]).is_inside(&r));
        // Closer, but by less than the tolerance: still a tie.
        let t = p(0.0, 0.0);
        let unit_away = [p(1.0, 0.0)];
        assert!(!PointEntry::new(t, &unit_away).is_inside(&p(0.0, (1.0f64 - 0.5e-9).sqrt())));
        assert!(PointEntry::new(t, &unit_away).is_inside(&p(0.0, (1.0f64 - 2.0e-9).sqrt())));
        // The filtering point is itself a query point.
        assert!(!PointEntry::new(p(1.0, 1.0), &[q, r]).is_inside(&r));
        assert!(!PointEntry::new(r, &[r]).is_inside(&r));
        // An empty query's spaces contain nothing and miss everything.
        assert!(!PointEntry::new(r, &[]).is_inside(&r));
        let unit = Rect::new(p(-1.0, -1.0), p(1.0, 1.0));
        assert_eq!(classify(r, &[], &unit), RectVerdict::Outside);
    }

    #[test]
    fn classification_has_three_verdicts() {
        let r = p(0.0, 0.0);
        let query = [p(10.0, 0.0), p(0.0, 10.0)];
        let rect = |x: f64, y: f64| Rect::new(p(x, y), p(x + 2.0, y + 2.0));
        // Bisectors are x = 5 and y = 5.
        assert_eq!(classify(r, &query, &rect(-1.0, -1.0)), RectVerdict::Inside);
        assert_eq!(
            classify(r, &query, &rect(4.0, 0.0)),
            RectVerdict::Straddling
        );
        // Beyond the bisector of the query point nearest the rectangle.
        assert_eq!(classify(r, &query, &rect(6.0, 0.0)), RectVerdict::Outside);
        assert_eq!(classify(r, &query, &rect(0.0, 6.0)), RectVerdict::Outside);
        // Touching it from the far side holds ties, nothing strict.
        assert_eq!(classify(r, &query, &rect(5.0, 0.0)), RectVerdict::Outside);
        // Farther from `r` than the far corner is from a query point: the
        // distance bound decides, whichever query point is the witness.
        assert_eq!(classify(r, &query, &rect(20.0, 20.0)), RectVerdict::Outside);
        // A filtering point that is itself a query point contains nothing.
        assert_eq!(
            classify(query[0], &query, &rect(9.0, -1.0)),
            RectVerdict::Outside
        );
    }

    #[test]
    fn decided_verdicts_hold_for_every_point_of_the_rectangle() {
        let r = p(3.0, -2.0);
        let query = [p(-1.0, 4.0), p(9.0, 5.0), p(4.0, -9.0)];
        for i in -8..8 {
            for j in -8..8 {
                let rect = Rect::new(p(i as f64, j as f64), p(i as f64 + 1.5, j as f64 + 0.75));
                let verdict = classify(r, &query, &rect);
                for (sx, sy) in [(0.0, 0.0), (0.3, 0.9), (0.5, 0.5), (1.0, 0.2), (1.0, 1.0)] {
                    let t = p(
                        rect.min.x + rect.width() * sx,
                        rect.min.y + rect.height() * sy,
                    );
                    let inside = PointEntry::new(t, &query).is_inside(&r);
                    match verdict {
                        RectVerdict::Inside => assert!(inside, "{rect:?} {t}"),
                        RectVerdict::Outside => assert!(!inside, "{rect:?} {t}"),
                        RectVerdict::Straddling => {}
                    }
                }
            }
        }
    }
}
