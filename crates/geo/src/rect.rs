//! Axis-aligned minimum bounding rectangles (MBRs).

use crate::point::Point;
use serde::{Deserialize, Serialize};

/// An axis-aligned rectangle, used as the minimum bounding rectangle of
/// R-tree nodes and of transitions (the paper's "maximum bounded box").
///
/// A `Rect` is always non-empty in the sense that `min <= max` on both axes;
/// a degenerate rectangle with `min == max` represents a single point.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Rect {
    /// Lower-left corner.
    pub min: Point,
    /// Upper-right corner.
    pub max: Point,
}

impl Rect {
    /// Creates a rectangle from two opposite corners, normalising the order
    /// of the coordinates.
    pub fn new(a: Point, b: Point) -> Self {
        Rect {
            min: Point::new(a.x.min(b.x), a.y.min(b.y)),
            max: Point::new(a.x.max(b.x), a.y.max(b.y)),
        }
    }

    /// The degenerate rectangle covering exactly one point.
    #[inline]
    pub fn from_point(p: Point) -> Self {
        Rect { min: p, max: p }
    }

    /// The smallest rectangle containing all `points`.
    ///
    /// Returns `None` for an empty slice.
    pub fn from_points(points: &[Point]) -> Option<Self> {
        let first = *points.first()?;
        let mut r = Rect::from_point(first);
        for p in &points[1..] {
            r.expand_to_point(p);
        }
        Some(r)
    }

    /// An "empty" rectangle useful as the identity for unions: any union with
    /// it yields the other rectangle. Its `min` is +inf and `max` is -inf.
    pub fn empty() -> Self {
        Rect {
            min: Point::new(f64::INFINITY, f64::INFINITY),
            max: Point::new(f64::NEG_INFINITY, f64::NEG_INFINITY),
        }
    }

    /// Whether this is the identity rectangle produced by [`Rect::empty`].
    pub fn is_empty(&self) -> bool {
        self.min.x > self.max.x || self.min.y > self.max.y
    }

    /// Width along the x axis.
    #[inline]
    pub fn width(&self) -> f64 {
        (self.max.x - self.min.x).max(0.0)
    }

    /// Height along the y axis.
    #[inline]
    pub fn height(&self) -> f64 {
        (self.max.y - self.min.y).max(0.0)
    }

    /// Area of the rectangle.
    #[inline]
    pub fn area(&self) -> f64 {
        if self.is_empty() {
            0.0
        } else {
            self.width() * self.height()
        }
    }

    /// Half-perimeter (the "margin" used by R*-style heuristics).
    #[inline]
    pub fn margin(&self) -> f64 {
        if self.is_empty() {
            0.0
        } else {
            self.width() + self.height()
        }
    }

    /// Center point of the rectangle.
    #[inline]
    pub fn center(&self) -> Point {
        self.min.midpoint(&self.max)
    }

    /// The four corners, in counterclockwise order starting at `min`.
    pub fn corners(&self) -> [Point; 4] {
        [
            self.min,
            Point::new(self.max.x, self.min.y),
            self.max,
            Point::new(self.min.x, self.max.y),
        ]
    }

    /// Whether the rectangle contains the point (boundary inclusive).
    #[inline]
    pub fn contains_point(&self, p: &Point) -> bool {
        p.x >= self.min.x && p.x <= self.max.x && p.y >= self.min.y && p.y <= self.max.y
    }

    /// Whether `other` lies entirely inside `self` (boundary inclusive).
    #[inline]
    pub fn contains_rect(&self, other: &Rect) -> bool {
        !other.is_empty()
            && self.min.x <= other.min.x
            && self.min.y <= other.min.y
            && self.max.x >= other.max.x
            && self.max.y >= other.max.y
    }

    /// Whether the two rectangles share at least one point.
    #[inline]
    pub fn intersects(&self, other: &Rect) -> bool {
        !(self.is_empty()
            || other.is_empty()
            || self.min.x > other.max.x
            || other.min.x > self.max.x
            || self.min.y > other.max.y
            || other.min.y > self.max.y)
    }

    /// Smallest rectangle containing both `self` and `other`.
    pub fn union(&self, other: &Rect) -> Rect {
        if self.is_empty() {
            return *other;
        }
        if other.is_empty() {
            return *self;
        }
        Rect {
            min: Point::new(self.min.x.min(other.min.x), self.min.y.min(other.min.y)),
            max: Point::new(self.max.x.max(other.max.x), self.max.y.max(other.max.y)),
        }
    }

    /// Grows the rectangle in place so that it covers `p`.
    pub fn expand_to_point(&mut self, p: &Point) {
        self.min.x = self.min.x.min(p.x);
        self.min.y = self.min.y.min(p.y);
        self.max.x = self.max.x.max(p.x);
        self.max.y = self.max.y.max(p.y);
    }

    /// Grows the rectangle in place so that it covers `other`.
    pub fn expand_to_rect(&mut self, other: &Rect) {
        *self = self.union(other);
    }

    /// Area of the intersection with `other` (0 when disjoint).
    pub fn intersection_area(&self, other: &Rect) -> f64 {
        let w = (self.max.x.min(other.max.x) - self.min.x.max(other.min.x)).max(0.0);
        let h = (self.max.y.min(other.max.y) - self.min.y.max(other.min.y)).max(0.0);
        w * h
    }

    /// Increase in area needed to enlarge `self` to cover `other`.
    ///
    /// This is the quantity minimised by the R-tree `ChooseSubtree` step.
    pub fn enlargement(&self, other: &Rect) -> f64 {
        self.union(other).area() - self.area()
    }

    /// Squared minimum distance from `p` to any point of the rectangle
    /// (0 when `p` is inside).
    #[inline]
    pub fn min_dist_sq(&self, p: &Point) -> f64 {
        let dx = (self.min.x - p.x).max(0.0).max(p.x - self.max.x);
        let dy = (self.min.y - p.y).max(0.0).max(p.y - self.max.y);
        dx * dx + dy * dy
    }

    /// Minimum distance from `p` to the rectangle (the `MinDist` metric used
    /// in best-first traversal, Equation 3).
    #[inline]
    pub fn min_dist(&self, p: &Point) -> f64 {
        self.min_dist_sq(p).sqrt()
    }

    /// Squared distances from `p` to the four corners, in [`Rect::corners`]
    /// order — each bit for bit `p.distance_sq(corner)`, for half the
    /// arithmetic: the corners share their coordinate differences.
    #[inline]
    pub fn corner_dist_sq(&self, p: &Point) -> [f64; 4] {
        let sq = |d: f64| d * d;
        let (x0, x1) = (sq(p.x - self.min.x), sq(p.x - self.max.x));
        let (y0, y1) = (sq(p.y - self.min.y), sq(p.y - self.max.y));
        [x0 + y0, x1 + y0, x1 + y1, x0 + y1]
    }

    /// Squared maximum distance from `p` to any point of the rectangle.
    #[inline]
    pub fn max_dist_sq(&self, p: &Point) -> f64 {
        let dx = (p.x - self.min.x).abs().max((p.x - self.max.x).abs());
        let dy = (p.y - self.min.y).abs().max((p.y - self.max.y).abs());
        dx * dx + dy * dy
    }

    /// Maximum distance from `p` to any point of the rectangle.
    #[inline]
    pub fn max_dist(&self, p: &Point) -> f64 {
        self.max_dist_sq(p).sqrt()
    }

    /// The rectangle grown by `margin` on every side (non-positive margins
    /// return the rectangle unchanged; the empty rectangle stays empty).
    pub fn expanded(&self, margin: f64) -> Rect {
        if self.is_empty() || margin.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
            return *self;
        }
        Rect {
            min: Point::new(self.min.x - margin, self.min.y - margin),
            max: Point::new(self.max.x + margin, self.max.y + margin),
        }
    }

    /// Minimum distance between two rectangles (0 when they intersect).
    pub fn min_dist_rect(&self, other: &Rect) -> f64 {
        let dx = (self.min.x - other.max.x)
            .max(0.0)
            .max(other.min.x - self.max.x);
        let dy = (self.min.y - other.max.y)
            .max(0.0)
            .max(other.min.y - self.max.y);
        (dx * dx + dy * dy).sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(ax: f64, ay: f64, bx: f64, by: f64) -> Rect {
        Rect::new(Point::new(ax, ay), Point::new(bx, by))
    }

    #[test]
    fn new_normalises_corners() {
        let a = Rect::new(Point::new(3.0, 4.0), Point::new(1.0, 2.0));
        assert_eq!(a.min, Point::new(1.0, 2.0));
        assert_eq!(a.max, Point::new(3.0, 4.0));
    }

    #[test]
    fn area_margin_center() {
        let a = r(0.0, 0.0, 4.0, 2.0);
        assert_eq!(a.area(), 8.0);
        assert_eq!(a.margin(), 6.0);
        assert_eq!(a.center(), Point::new(2.0, 1.0));
    }

    #[test]
    fn empty_rect_identity_for_union() {
        let e = Rect::empty();
        let a = r(1.0, 1.0, 2.0, 2.0);
        assert!(e.is_empty());
        assert_eq!(e.union(&a), a);
        assert_eq!(a.union(&e), a);
        assert_eq!(e.area(), 0.0);
    }

    #[test]
    fn containment_and_intersection() {
        let big = r(0.0, 0.0, 10.0, 10.0);
        let small = r(2.0, 2.0, 3.0, 3.0);
        let outside = r(11.0, 11.0, 12.0, 12.0);
        let overlapping = r(9.0, 9.0, 11.0, 11.0);
        assert!(big.contains_rect(&small));
        assert!(!small.contains_rect(&big));
        assert!(big.intersects(&small));
        assert!(!big.intersects(&outside));
        assert!(big.intersects(&overlapping));
        assert!(big.contains_point(&Point::new(10.0, 10.0)));
        assert!(!big.contains_point(&Point::new(10.0001, 10.0)));
    }

    #[test]
    fn from_points_covers_all() {
        let pts = vec![
            Point::new(1.0, 5.0),
            Point::new(-2.0, 3.0),
            Point::new(4.0, -1.0),
        ];
        let mbr = Rect::from_points(&pts).unwrap();
        for p in &pts {
            assert!(mbr.contains_point(p));
        }
        assert_eq!(mbr.min, Point::new(-2.0, -1.0));
        assert_eq!(mbr.max, Point::new(4.0, 5.0));
        assert!(Rect::from_points(&[]).is_none());
    }

    #[test]
    fn min_and_max_dist() {
        let a = r(0.0, 0.0, 2.0, 2.0);
        let inside = Point::new(1.0, 1.0);
        let right = Point::new(5.0, 1.0);
        let diag = Point::new(5.0, 6.0);
        assert_eq!(a.min_dist(&inside), 0.0);
        assert_eq!(a.min_dist(&right), 3.0);
        assert_eq!(a.min_dist(&diag), 5.0);
        // Max dist from the inside point is to the farthest corner (0,0)->... all corners sqrt(2)
        assert!((a.max_dist(&inside) - 2f64.sqrt()).abs() < 1e-12);
        // From (5,1): farthest corner is (0,0) or (0,2): sqrt(25+1)
        assert!((a.max_dist(&right) - 26f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn min_dist_rect_pairs() {
        let a = r(0.0, 0.0, 1.0, 1.0);
        let b = r(4.0, 5.0, 6.0, 7.0);
        let c = r(0.5, 0.5, 2.0, 2.0);
        assert!((a.min_dist_rect(&b) - 5.0).abs() < 1e-12);
        assert_eq!(a.min_dist_rect(&c), 0.0);
    }

    #[test]
    fn enlargement_and_intersection_area() {
        let a = r(0.0, 0.0, 2.0, 2.0);
        let b = r(1.0, 1.0, 3.0, 3.0);
        assert_eq!(a.intersection_area(&b), 1.0);
        assert_eq!(a.enlargement(&b), 9.0 - 4.0);
        assert_eq!(a.enlargement(&a), 0.0);
    }

    #[test]
    fn corners_are_inside() {
        let a = r(-1.0, -2.0, 3.0, 4.0);
        for c in a.corners() {
            assert!(a.contains_point(&c));
        }
    }

    #[test]
    fn expanded_grows_every_side() {
        let a = r(0.0, 0.0, 2.0, 2.0);
        assert_eq!(a.expanded(3.0), r(-3.0, -3.0, 5.0, 5.0));
        assert_eq!(a.expanded(0.0), a);
        assert_eq!(a.expanded(-1.0), a, "negative margins are ignored");
        assert_eq!(a.expanded(f64::NAN), a, "NaN margins are ignored");
        assert!(Rect::empty().expanded(10.0).is_empty());
    }

    #[test]
    fn expand_to_point_grows_minimally() {
        let mut a = Rect::from_point(Point::new(1.0, 1.0));
        a.expand_to_point(&Point::new(3.0, 0.0));
        assert_eq!(a, r(1.0, 0.0, 3.0, 1.0));
    }
}
