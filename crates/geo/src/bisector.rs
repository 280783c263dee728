//! Perpendicular-bisector half-planes.
//!
//! Given a query point `q` and a filtering (route) point `r`, the
//! perpendicular bisector `⊥(q, r)` splits the plane into two half-planes:
//! `H_{r:q}` containing `r` (every point in it is at least as close to `r` as
//! to `q`) and `H_{q:r}` containing `q`. Half-space pruning (Section 2.1,
//! Figure 2 of the paper) removes from consideration any object that lies in
//! `H_{r:q}`, because such an object prefers `r` over the query point `q`.

use crate::point::Point;
use crate::rect::Rect;
use crate::EPSILON;
use serde::{Deserialize, Serialize};

/// The half-plane `H_{r:q}` of points closer to `r` than to `q`.
///
/// Stored as the three coefficients of the linear inequality
/// `a·x + b·y <= c` with `(a, b) = 2(q - r)` (so that the inequality holds
/// exactly for points whose distance to `r` does not exceed their distance
/// to `q`) and nothing else: 24 bytes, so a filter set keeps every
/// half-plane of every filter point in one flat array and Algorithm 3's
/// tests are two multiplications each over contiguous memory.
///
/// # Why a node-level verdict holds for the whole subtree
///
/// Every predicate below evaluates the one expression `a·x + b·y - c` at a
/// point or at a rectangle corner. With `a` fixed, `a·x` is monotone in `x`
/// under IEEE rounding, and so are the sum and the subtraction; hence no
/// point or sub-rectangle of a rectangle can evaluate above the rectangle's
/// maximising corner or below its minimising corner. A rectangle that is
/// [strictly contained](HalfPlane::strictly_contains_rect) therefore
/// strictly contains every point and sub-rectangle of it, and one that is
/// not [strictly intersected](HalfPlane::strictly_intersects_rect) strictly
/// contains none — bit for bit, not just in real arithmetic. The inherited
/// `IsFiltered` walks of `rknnt-core` rest on exactly this.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HalfPlane {
    /// Coefficient of x in `a·x + b·y <= c`.
    a: f64,
    /// Coefficient of y in `a·x + b·y <= c`.
    b: f64,
    /// Right-hand side of `a·x + b·y <= c`.
    c: f64,
}

/// The single strictness site of the pruning predicates: a signed evaluation
/// counts as "strictly closer to `r`" only below `-EPSILON`, so an exact tie
/// (or anything within the tolerance band of one) is never a pruning
/// witness and falls through to exact verification.
#[inline]
fn strictly_negative(value: f64) -> bool {
    value < -EPSILON
}

impl HalfPlane {
    /// Builds the half-plane `H_{r:q}` of points no farther from `r` than
    /// from `q`.
    ///
    /// Derivation: `|p - r|² <= |p - q|²` expands to
    /// `2 (q - r)·p <= |q|² - |r|²`, hence `a = 2(q.x - r.x)`,
    /// `b = 2(q.y - r.y)`, `c = |q|² - |r|²`.
    ///
    /// When `q == r` the bisector is undefined; the returned half-plane
    /// accepts every point (coefficients all zero, `c = 0`), which is the
    /// conservative choice for pruning: a degenerate filtering point never
    /// prunes anything by itself but does not wrongly prune either. Callers
    /// that care can check [`HalfPlane::is_degenerate`].
    pub fn closer_to(r: Point, q: Point) -> Self {
        let a = 2.0 * (q.x - r.x);
        let b = 2.0 * (q.y - r.y);
        let c = (q.x * q.x + q.y * q.y) - (r.x * r.x + r.y * r.y);
        HalfPlane { a, b, c }
    }

    /// True when `q == r`, i.e. the bisector is undefined. Degenerate
    /// half-planes accept every point but callers should never treat a
    /// degenerate half-plane as a pruning witness (it is the *same* point).
    #[inline]
    pub fn is_degenerate(&self) -> bool {
        self.a == 0.0 && self.b == 0.0
    }

    /// Signed evaluation: negative (or ~0) means the point is in `H_{r:q}`.
    #[inline]
    fn eval(&self, p: &Point) -> f64 {
        self.a * p.x + self.b * p.y - self.c
    }

    /// Signed evaluation at the corner of `rect` that maximises it (the
    /// maximiser of `a·x` over `[min.x, max.x]` is `max.x` when `a > 0`,
    /// else `min.x`).
    #[inline]
    fn max_over_rect(&self, rect: &Rect) -> f64 {
        let x = if self.a > 0.0 { rect.max.x } else { rect.min.x };
        let y = if self.b > 0.0 { rect.max.y } else { rect.min.y };
        self.a * x + self.b * y - self.c
    }

    /// Signed evaluation at the corner of `rect` that minimises it.
    #[inline]
    fn min_over_rect(&self, rect: &Rect) -> f64 {
        let x = if self.a > 0.0 { rect.min.x } else { rect.max.x };
        let y = if self.b > 0.0 { rect.min.y } else { rect.max.y };
        self.a * x + self.b * y - self.c
    }

    /// Whether point `p` is closer to `r` than to `q` (ties count as inside,
    /// matching `dist(t, R) < dist(t, Q)` pruning being safe only for strict
    /// improvement; we keep ties inside because a tie already means `Q` is
    /// not *the* unique nearest and the refinement step re-verifies
    /// candidates exactly).
    #[inline]
    pub fn contains_point(&self, p: &Point) -> bool {
        self.is_degenerate() || self.eval(p) <= EPSILON
    }

    /// Whether point `p` is *strictly* closer to `r` than to `q`.
    #[inline]
    pub fn strictly_contains_point(&self, p: &Point) -> bool {
        !self.is_degenerate() && strictly_negative(self.eval(p))
    }

    /// Whether the whole rectangle lies inside `H_{r:q}`.
    ///
    /// A half-plane is convex, so it suffices that all four corners are
    /// inside; equivalently (and cheaper) the corner that maximises
    /// `a·x + b·y` must satisfy the inequality.
    #[inline]
    pub fn contains_rect(&self, rect: &Rect) -> bool {
        self.is_degenerate() || self.max_over_rect(rect) <= EPSILON
    }

    /// Whether the whole rectangle lies *strictly* inside `H_{r:q}`, i.e.
    /// every point of the rectangle is strictly closer to `r` than to `q`.
    ///
    /// This is the variant the RkNNT pruning rules use: a route only
    /// disqualifies a candidate when it is strictly closer, so exact ties
    /// (which occur whenever a query point coincides with a bus stop) are
    /// left to the verification phase instead of being pruned away.
    #[inline]
    pub fn strictly_contains_rect(&self, rect: &Rect) -> bool {
        !self.is_degenerate() && strictly_negative(self.max_over_rect(rect))
    }

    /// Whether the rectangle intersects `H_{r:q}` at all (i.e. at least one
    /// point of the rectangle is closer to `r` than to `q`).
    #[inline]
    pub fn intersects_rect(&self, rect: &Rect) -> bool {
        self.is_degenerate() || self.min_over_rect(rect) <= EPSILON
    }

    /// Strict twin of [`HalfPlane::intersects_rect`]: whether *some* point
    /// of the rectangle can be strictly closer to `r` than to `q`. When this
    /// is false no point and no sub-rectangle of `rect` is strictly
    /// contained (see the type-level note on rounding), which is the
    /// "outside" verdict a tree walk hands down to a whole subtree. A
    /// degenerate half-plane strictly contains nothing, so it never
    /// strictly intersects.
    #[inline]
    pub fn strictly_intersects_rect(&self, rect: &Rect) -> bool {
        !self.is_degenerate() && strictly_negative(self.min_over_rect(rect))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_side_matches_distance_comparison() {
        let r = Point::new(0.0, 0.0);
        let q = Point::new(10.0, 0.0);
        let hp = HalfPlane::closer_to(r, q);
        assert!(hp.contains_point(&Point::new(1.0, 3.0)));
        assert!(!hp.contains_point(&Point::new(9.0, 3.0)));
        // A point on the bisector (x = 5) is inside (ties allowed).
        assert!(hp.contains_point(&Point::new(5.0, -2.0)));
        assert!(!hp.strictly_contains_point(&Point::new(5.0, -2.0)));
    }

    #[test]
    fn degenerate_half_plane() {
        let p = Point::new(1.0, 1.0);
        let hp = HalfPlane::closer_to(p, p);
        assert!(hp.is_degenerate());
        assert!(hp.contains_point(&Point::new(100.0, -3.0)));
        assert!(!hp.strictly_contains_point(&Point::new(100.0, -3.0)));
        let rect = Rect::new(Point::new(0.0, 0.0), Point::new(1.0, 1.0));
        assert!(hp.contains_rect(&rect));
        assert!(!hp.strictly_contains_rect(&rect));
        assert!(!hp.strictly_intersects_rect(&rect));
    }

    #[test]
    fn rect_containment() {
        let r = Point::new(0.0, 0.0);
        let q = Point::new(10.0, 0.0);
        let hp = HalfPlane::closer_to(r, q);
        // Entirely on r's side.
        let near_r = Rect::new(Point::new(-2.0, -2.0), Point::new(2.0, 2.0));
        // Straddles the bisector x = 5.
        let straddle = Rect::new(Point::new(4.0, 0.0), Point::new(6.0, 1.0));
        // Entirely on q's side.
        let near_q = Rect::new(Point::new(8.0, -1.0), Point::new(9.0, 1.0));
        assert!(hp.contains_rect(&near_r));
        assert!(!hp.contains_rect(&straddle));
        assert!(hp.intersects_rect(&straddle));
        assert!(!hp.contains_rect(&near_q));
        assert!(!hp.intersects_rect(&near_q));
        // The strict twins: contained ⇒ intersected, and only the far rect
        // is intersected by nothing.
        assert!(hp.strictly_contains_rect(&near_r) && hp.strictly_intersects_rect(&near_r));
        assert!(!hp.strictly_contains_rect(&straddle) && hp.strictly_intersects_rect(&straddle));
        assert!(!hp.strictly_intersects_rect(&near_q));
        // A rectangle touching the bisector x = 5 from q's side holds a tie
        // but no strictly closer point; the non-strict test still accepts it.
        let touching = Rect::new(Point::new(5.0, 0.0), Point::new(7.0, 1.0));
        assert!(hp.intersects_rect(&touching));
        assert!(!hp.strictly_intersects_rect(&touching));
    }

    #[test]
    fn rect_containment_agrees_with_corner_test() {
        // Randomised-ish grid check without rand dependency: sample a lattice.
        let r = Point::new(3.0, -2.0);
        let q = Point::new(-1.0, 4.0);
        let hp = HalfPlane::closer_to(r, q);
        for i in -5..5 {
            for j in -5..5 {
                let rect = Rect::new(
                    Point::new(i as f64, j as f64),
                    Point::new(i as f64 + 1.5, j as f64 + 0.75),
                );
                let by_corners = rect.corners().iter().all(|c| hp.contains_point(c));
                assert_eq!(hp.contains_rect(&rect), by_corners, "rect {rect:?}");
                let any_corner_or_more = rect.corners().iter().any(|c| hp.contains_point(c));
                // intersects_rect is implied by any corner being inside.
                if any_corner_or_more {
                    assert!(hp.intersects_rect(&rect));
                }
            }
        }
    }

    #[test]
    fn generating_points_are_on_their_own_sides() {
        let r = Point::new(2.0, 7.0);
        let q = Point::new(-4.0, 1.0);
        let hp = HalfPlane::closer_to(r, q);
        assert!(hp.strictly_contains_point(&r));
        assert!(!hp.contains_point(&q));
        assert_eq!(std::mem::size_of::<HalfPlane>(), 24);
    }
}
