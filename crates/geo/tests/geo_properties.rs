//! Property-based tests for the geometric predicates that RkNNT pruning
//! soundness depends on.

use proptest::prelude::*;
use rknnt_geo::{
    point_route_distance, FilteringSpace, HalfPlane, Point, Rect, RectVerdict, VoronoiFilter,
};

fn pt() -> impl Strategy<Value = Point> {
    (-1000.0f64..1000.0, -1000.0f64..1000.0).prop_map(|(x, y)| Point::new(x, y))
}

fn rect() -> impl Strategy<Value = Rect> {
    (pt(), pt()).prop_map(|(a, b)| Rect::new(a, b))
}

fn route(max_len: usize) -> impl Strategy<Value = Vec<Point>> {
    prop::collection::vec(pt(), 1..max_len)
}

proptest! {
    /// The half-plane membership test must agree exactly with the distance
    /// comparison it encodes (Lemma 2's premise).
    #[test]
    fn half_plane_matches_distance(r in pt(), q in pt(), p in pt()) {
        prop_assume!(r.distance(&q) > 1e-6);
        let hp = HalfPlane::closer_to(r, q);
        let by_dist = p.distance(&r) <= p.distance(&q) + 1e-6;
        let by_hp = hp.contains_point(&p);
        // Allow disagreement only within the tolerance band around the bisector.
        if (p.distance(&r) - p.distance(&q)).abs() > 1e-6 {
            prop_assert_eq!(by_hp, by_dist);
        }
    }

    /// If a rectangle is fully contained in a half-plane then every sampled
    /// point of the rectangle is contained too (soundness of MBR pruning).
    #[test]
    fn half_plane_rect_containment_sound(r in pt(), q in pt(), rc in rect(),
                                         sx in 0.0f64..1.0, sy in 0.0f64..1.0) {
        prop_assume!(r.distance(&q) > 1e-6);
        let hp = HalfPlane::closer_to(r, q);
        if hp.contains_rect(&rc) {
            let p = Point::new(
                rc.min.x + rc.width() * sx,
                rc.min.y + rc.height() * sy,
            );
            prop_assert!(hp.contains_point(&p));
        }
    }

    /// The filtering space is the intersection of per-query-point half planes.
    #[test]
    fn filtering_space_is_intersection(r in pt(), q in route(6), p in pt()) {
        let fs = FilteringSpace::new(r, &q);
        let expected = q.iter().all(|qi| HalfPlane::closer_to(r, *qi).contains_point(&p));
        prop_assert_eq!(fs.contains_point(&p), expected);
    }

    /// Voronoi point membership equals the nearest-generator rule.
    #[test]
    fn voronoi_point_matches_nearest_generator(rp in route(6), qp in route(6), p in pt()) {
        let vf = VoronoiFilter::new(rp.clone(), qp.clone());
        let d_r = point_route_distance(&p, &rp);
        let d_q = point_route_distance(&p, &qp);
        if (d_r - d_q).abs() > 1e-6 {
            prop_assert_eq!(vf.contains_point(&p), d_r < d_q);
        }
    }

    /// Voronoi rectangle containment is sound: accepted rectangles only
    /// contain points that pass the exact point test.
    #[test]
    fn voronoi_rect_containment_sound(rp in route(6), qp in route(6), rc in rect(),
                                      sx in 0.0f64..1.0, sy in 0.0f64..1.0) {
        let vf = VoronoiFilter::new(rp, qp);
        if vf.contains_rect(&rc) {
            let p = Point::new(rc.min.x + rc.width() * sx, rc.min.y + rc.height() * sy);
            prop_assert!(vf.contains_point(&p));
        }
    }

    /// MBR invariants: union contains both operands; min_dist <= max_dist;
    /// min_dist is zero exactly when the point is inside.
    #[test]
    fn rect_metric_invariants(a in rect(), b in rect(), p in pt()) {
        let u = a.union(&b);
        prop_assert!(u.contains_rect(&a));
        prop_assert!(u.contains_rect(&b));
        prop_assert!(a.min_dist(&p) <= a.max_dist(&p) + 1e-9);
        prop_assert_eq!(a.min_dist(&p) == 0.0, a.contains_point(&p));
        prop_assert!(a.enlargement(&b) >= -1e-9);
    }

    /// Point-route distance is bounded by the distance to any single vertex.
    #[test]
    fn point_route_distance_lower_bound(p in pt(), r in route(8), idx in any::<prop::sample::Index>()) {
        let d = point_route_distance(&p, &r);
        let v = r[idx.index(r.len())];
        prop_assert!(d <= p.distance(&v) + 1e-9);
    }

    /// Strict containment implies non-strict containment, for both the
    /// half-plane and the per-point filtering space, on points and rects.
    #[test]
    fn strict_implies_nonstrict(r in pt(), q in route(5), p in pt(), rc in rect()) {
        let fs = FilteringSpace::new(r, &q);
        if fs.strictly_contains_point(&p) {
            prop_assert!(fs.contains_point(&p));
        }
        if fs.strictly_contains_rect(&rc) {
            prop_assert!(fs.contains_rect(&rc));
        }
        if let Some(q0) = q.first() {
            let hp = HalfPlane::closer_to(r, *q0);
            if hp.strictly_contains_rect(&rc) {
                prop_assert!(hp.contains_rect(&rc));
            }
        }
    }

    /// The strict Voronoi predicates never accept anything the non-strict
    /// ones reject, and the strict rect test is sound for sampled points.
    #[test]
    fn strict_voronoi_sound(rp in route(5), qp in route(5), rc in rect(),
                            sx in 0.0f64..1.0, sy in 0.0f64..1.0) {
        let vf = VoronoiFilter::new(rp, qp);
        if vf.strictly_contains_rect(&rc) {
            prop_assert!(vf.contains_rect(&rc));
            let p = Point::new(rc.min.x + rc.width() * sx, rc.min.y + rc.height() * sy);
            prop_assert!(vf.contains_point(&p));
        }
        let centre = rc.center();
        if vf.strictly_contains_point(&centre) {
            prop_assert!(vf.contains_point(&centre));
        }
    }

    /// A point exactly on the bisector (equidistant from r and q) is never
    /// strictly contained — the tie-safety property the RkNNT pruning relies
    /// on.
    #[test]
    fn ties_are_not_strictly_contained(a in pt(), b in pt(), t in 0.0f64..1.0) {
        prop_assume!(a.distance(&b) > 1e-3);
        // Construct a point equidistant from a and b: any point on the
        // perpendicular bisector. Parameterise by sliding along the bisector.
        let mid = a.midpoint(&b);
        let dir = Point::new(-(b.y - a.y), b.x - a.x);
        let on_bisector = Point::new(mid.x + dir.x * (t - 0.5), mid.y + dir.y * (t - 0.5));
        let hp = HalfPlane::closer_to(a, b);
        // Floating error can land the point a hair off the bisector; allow
        // the strict test to accept only when it is genuinely closer.
        if (on_bisector.distance(&a) - on_bisector.distance(&b)).abs() < 1e-9 {
            prop_assert!(!hp.strictly_contains_point(&on_bisector));
        }
    }

    /// A rectangle's verdict holds, bit for bit, for every point and
    /// sub-rectangle of it — what lets a tree walk hand "inside" and
    /// "outside" down to a whole subtree. Also far from the origin, where the
    /// half-plane evaluation is mostly rounding noise: the noise is monotone.
    #[test]
    fn rect_verdicts_are_inherited(r in pt(), q in route(5), centre in pt(),
                                   half in (0.0f64..80.0, 0.0f64..80.0),
                                   s in (0.0f64..1.0, 0.0f64..1.0, 0.0f64..1.0, 0.0f64..1.0),
                                   far in any::<bool>()) {
        let offset = if far { 3.0e9 } else { 0.0 };
        let shift = |p: &Point| Point::new(p.x + offset, p.y + offset);
        let q: Vec<Point> = q.iter().map(shift).collect();
        let fs = FilteringSpace::new(shift(&r), &q);
        // Small next to the ±1000 world, so all three verdicts are common.
        let rc = Rect::new(
            shift(&Point::new(centre.x - half.0, centre.y - half.1)),
            shift(&Point::new(centre.x + half.0, centre.y + half.1)),
        );
        let at = |sx: f64, sy: f64| Point::new(rc.min.x + rc.width() * sx, rc.min.y + rc.height() * sy);
        let (a, b) = (at(s.0, s.1), at(s.2, s.3));
        prop_assume!(rc.contains_point(&a) && rc.contains_point(&b));
        let sub = Rect::new(a, b);
        let verdict = fs.classify_rect(&rc);
        prop_assert_eq!(
            verdict == RectVerdict::Inside,
            fs.half_planes().iter().all(|hp| hp.strictly_contains_rect(&rc))
        );
        prop_assert_eq!(
            verdict == RectVerdict::Outside,
            fs.half_planes().iter().any(|hp| !hp.strictly_intersects_rect(&rc))
        );
        match verdict {
            RectVerdict::Inside => {
                prop_assert_eq!(fs.classify_rect(&sub), RectVerdict::Inside);
                prop_assert!(fs.strictly_contains_point(&a));
            }
            RectVerdict::Outside => {
                prop_assert_eq!(fs.classify_rect(&sub), RectVerdict::Outside);
                prop_assert!(!fs.strictly_contains_point(&a));
            }
            RectVerdict::Straddling => {}
        }
        // A point is the rectangle that holds only it.
        prop_assert_eq!(
            fs.classify_rect(&Rect::from_point(a)) == RectVerdict::Inside,
            fs.strictly_contains_point(&a)
        );
    }
}
