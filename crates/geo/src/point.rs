//! 2-D points and basic vector operations.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, Mul, Sub};

/// A point in the plane.
///
/// The paper represents route points and transition points as
/// (latitude, longitude) pairs and measures Euclidean distance between them;
/// we keep the same planar model. Coordinates are interpreted as metres in
/// the synthetic city generator, which keeps the Euclidean assumption honest
/// at city scale.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub struct Point {
    /// Horizontal coordinate (metres east in the synthetic model).
    pub x: f64,
    /// Vertical coordinate (metres north in the synthetic model).
    pub y: f64,
}

impl Point {
    /// Creates a point from its two coordinates.
    #[inline]
    pub const fn new(x: f64, y: f64) -> Self {
        Point { x, y }
    }

    /// The origin `(0, 0)`.
    pub const ORIGIN: Point = Point { x: 0.0, y: 0.0 };

    /// Euclidean distance to another point.
    #[inline]
    pub fn distance(&self, other: &Point) -> f64 {
        self.distance_sq(other).sqrt()
    }

    /// Squared Euclidean distance to another point.
    ///
    /// Cheaper than [`Point::distance`] and sufficient for comparisons, so
    /// the pruning predicates work on squared distances throughout.
    #[inline]
    pub fn distance_sq(&self, other: &Point) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        dx * dx + dy * dy
    }

    /// Midpoint between `self` and `other`.
    #[inline]
    pub fn midpoint(&self, other: &Point) -> Point {
        Point::new((self.x + other.x) * 0.5, (self.y + other.y) * 0.5)
    }

    /// Dot product treating the points as vectors from the origin.
    #[inline]
    pub fn dot(&self, other: &Point) -> f64 {
        self.x * other.x + self.y * other.y
    }

    /// Squared length of the vector from the origin to this point.
    #[inline]
    pub fn norm_sq(&self) -> f64 {
        self.dot(self)
    }

    /// Linear interpolation between `self` (t = 0) and `other` (t = 1).
    #[inline]
    pub fn lerp(&self, other: &Point, t: f64) -> Point {
        Point::new(
            self.x + (other.x - self.x) * t,
            self.y + (other.y - self.y) * t,
        )
    }

    /// Rotates the vector from the origin by `angle` radians counterclockwise.
    #[inline]
    pub fn rotate(&self, angle: f64) -> Point {
        let (s, c) = angle.sin_cos();
        Point::new(self.x * c - self.y * s, self.x * s + self.y * c)
    }

    /// Returns true when both coordinates are finite.
    #[inline]
    pub fn is_finite(&self) -> bool {
        self.x.is_finite() && self.y.is_finite()
    }

    /// Index of the nearest point in `candidates`, together with the squared
    /// distance to it. Returns `None` for an empty slice.
    pub fn nearest_in(&self, candidates: &[Point]) -> Option<(usize, f64)> {
        let mut best: Option<(usize, f64)> = None;
        for (i, c) in candidates.iter().enumerate() {
            let d = self.distance_sq(c);
            match best {
                Some((_, bd)) if bd <= d => {}
                _ => best = Some((i, d)),
            }
        }
        best
    }
}

impl Add for Point {
    type Output = Point;
    #[inline]
    fn add(self, rhs: Point) -> Point {
        Point::new(self.x + rhs.x, self.y + rhs.y)
    }
}

impl Sub for Point {
    type Output = Point;
    #[inline]
    fn sub(self, rhs: Point) -> Point {
        Point::new(self.x - rhs.x, self.y - rhs.y)
    }
}

impl Mul<f64> for Point {
    type Output = Point;
    #[inline]
    fn mul(self, rhs: f64) -> Point {
        Point::new(self.x * rhs, self.y * rhs)
    }
}

impl fmt::Display for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:.3}, {:.3})", self.x, self.y)
    }
}

impl From<(f64, f64)> for Point {
    fn from((x, y): (f64, f64)) -> Self {
        Point::new(x, y)
    }
}

impl From<Point> for (f64, f64) {
    fn from(p: Point) -> Self {
        (p.x, p.y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distance_is_symmetric_and_zero_on_self() {
        let a = Point::new(1.0, 2.0);
        let b = Point::new(4.0, 6.0);
        assert_eq!(a.distance(&b), 5.0);
        assert_eq!(b.distance(&a), 5.0);
        assert_eq!(a.distance(&a), 0.0);
    }

    #[test]
    fn distance_sq_matches_distance() {
        let a = Point::new(-3.0, 0.5);
        let b = Point::new(2.0, -7.25);
        let d = a.distance(&b);
        assert!((a.distance_sq(&b) - d * d).abs() < 1e-12);
    }

    #[test]
    fn midpoint_is_equidistant() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(10.0, 4.0);
        let m = a.midpoint(&b);
        assert!((m.distance(&a) - m.distance(&b)).abs() < 1e-12);
    }

    #[test]
    fn lerp_endpoints() {
        let a = Point::new(1.0, 1.0);
        let b = Point::new(3.0, 5.0);
        assert_eq!(a.lerp(&b, 0.0), a);
        assert_eq!(a.lerp(&b, 1.0), b);
        assert_eq!(a.lerp(&b, 0.5), a.midpoint(&b));
    }

    #[test]
    fn rotate_quarter_turn() {
        let p = Point::new(1.0, 0.0);
        let r = p.rotate(std::f64::consts::FRAC_PI_2);
        assert!((r.x - 0.0).abs() < 1e-12);
        assert!((r.y - 1.0).abs() < 1e-12);
    }

    #[test]
    fn nearest_in_picks_minimum() {
        let p = Point::new(0.0, 0.0);
        let cands = vec![
            Point::new(5.0, 5.0),
            Point::new(1.0, 1.0),
            Point::new(-0.5, 0.1),
        ];
        let (idx, d) = p.nearest_in(&cands).unwrap();
        assert_eq!(idx, 2);
        assert!((d - (0.25 + 0.01)).abs() < 1e-12);
        assert!(p.nearest_in(&[]).is_none());
    }

    #[test]
    fn arithmetic_operators() {
        let a = Point::new(1.0, 2.0);
        let b = Point::new(3.0, -1.0);
        assert_eq!(a + b, Point::new(4.0, 1.0));
        assert_eq!(a - b, Point::new(-2.0, 3.0));
        assert_eq!(a * 2.0, Point::new(2.0, 4.0));
    }

    #[test]
    fn conversions_roundtrip() {
        let p: Point = (2.5, -3.5).into();
        let t: (f64, f64) = p.into();
        assert_eq!(t, (2.5, -3.5));
        assert_eq!(format!("{p}"), "(2.500, -3.500)");
    }
}
