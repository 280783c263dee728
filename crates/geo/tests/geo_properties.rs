//! Property-based tests for the geometric predicates that RkNNT pruning
//! soundness depends on.
//!
//! The filtering-space tests come in two halves. On an integer lattice all
//! arithmetic is exact, so the distance-form predicates of
//! `rknnt_geo::filtering` are held against the paper's own definition — the
//! bisector half-planes of Figure 2 / Definition 6, evaluated by a test-local
//! [`bisector`] — as equalities, ties and coincidences included. On
//! continuous coordinates (also far from the origin) they are held against
//! plain distance comparisons outside the tolerance band.

use proptest::prelude::*;
use rknnt_geo::voronoi::strictly_covers_rect;
use rknnt_geo::{
    min_dist_sq_query_rect, point_route_distance, Point, PointEntry, Rect, RectEntry, RectVerdict,
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

/// Points of a 13 × 13 integer lattice: duplicates, collinear triples and
/// exact bisector ties are the rule, and every product below is an integer.
fn lattice_pt() -> impl Strategy<Value = Point> {
    (-6i32..7, -6i32..7).prop_map(|(x, y)| Point::new(x as f64, y as f64))
}

/// The signed bisector form of `H_{r:q}` (Figure 2): `|p − r|² − |p − q|²`
/// expanded to `2(q − r)·p − (|q|² − |r|²)`. Negative iff `p` is strictly
/// closer to `r`; zero on the bisector, and everywhere when `r == q`.
fn bisector(r: &Point, q: &Point, p: &Point) -> f64 {
    2.0 * ((q.x - r.x) * p.x + (q.y - r.y) * p.y) - (q.norm_sq() - r.norm_sq())
}

/// Extremes of [`bisector`] over a rectangle: it is linear in `p`, so they
/// are attained at corners.
fn bisector_range(r: &Point, q: &Point, rect: &Rect) -> (f64, f64) {
    let at = rect.corners().map(|c| bisector(r, q, &c));
    (
        at.iter().copied().fold(f64::INFINITY, f64::min),
        at.iter().copied().fold(f64::NEG_INFINITY, f64::max),
    )
}

fn classify(r: &Point, query: &[Point], rect: &Rect) -> RectVerdict {
    RectEntry::new(rect, query).classify(r)
}

proptest! {
    // Exact, cheap, and the verdicts that matter (inside, outside by a hair)
    // are a small share of random lattice draws: many cases.
    #![proptest_config(ProptestConfig::with_cases(4096))]

    /// Definition 6 on the lattice: `p` is strictly inside `H_{r:Q}` iff it
    /// is on `r`'s side of every bisector — for every `q`, in sign, ties and
    /// `r == q` (never inside) included; the empty query contains nothing.
    #[test]
    fn lattice_point_verdict_is_the_bisector_sign(
        r in lattice_pt(),
        query in prop::collection::vec(lattice_pt(), 0..5),
        p in lattice_pt(),
        r_is_a_query_point in any::<bool>(),
    ) {
        let r = if r_is_a_query_point { *query.first().unwrap_or(&r) } else { r };
        for q in &query {
            prop_assert_eq!(
                PointEntry::new(p, std::slice::from_ref(q)).is_inside(&r),
                bisector(&r, q, &p) < 0.0
            );
        }
        prop_assert_eq!(
            PointEntry::new(p, &query).is_inside(&r),
            !query.is_empty() && query.iter().all(|q| bisector(&r, q, &p) < 0.0)
        );
    }

    /// The rectangle verdicts on the lattice, single-point rectangles and
    /// segments included. *Inside* — all four corners pass — is max-corner
    /// containment in every half-plane. *Outside* — a witness holds all four
    /// corners — implies some half-plane's min corner is not strictly inside,
    /// is implied when every half-plane's is not, and for a one-point query
    /// (the witness is that point) is exactly min-corner exclusion.
    #[test]
    fn lattice_rect_verdicts_are_corner_containment(
        r in lattice_pt(),
        query in prop::collection::vec(lattice_pt(), 0..5),
        a in lattice_pt(),
        b in lattice_pt(),
        single_point in any::<bool>(),
        r_is_a_query_point in any::<bool>(),
    ) {
        let r = if r_is_a_query_point { *query.first().unwrap_or(&r) } else { r };
        let rect = if single_point { Rect::from_point(a) } else { Rect::new(a, b) };
        let verdict = classify(&r, &query, &rect);
        let ranges: Vec<(f64, f64)> = query.iter().map(|q| bisector_range(&r, q, &rect)).collect();
        prop_assert_eq!(
            verdict == RectVerdict::Inside,
            !query.is_empty() && ranges.iter().all(|(_, max)| *max < 0.0)
        );
        let misses = |(min, _): &(f64, f64)| *min >= 0.0;
        if verdict == RectVerdict::Outside {
            prop_assert!(query.is_empty() || ranges.iter().any(misses));
        }
        if ranges.iter().all(misses) {
            prop_assert_eq!(verdict, RectVerdict::Outside);
        }
        for q in &query {
            let alone = classify(&r, std::slice::from_ref(q), &rect);
            prop_assert_eq!(alone == RectVerdict::Outside, misses(&bisector_range(&r, q, &rect)));
        }
        // A point is the rectangle that holds only it.
        prop_assert_eq!(
            classify(&r, &query, &Rect::from_point(a)) == RectVerdict::Inside,
            PointEntry::new(a, &query).is_inside(&r)
        );
    }
}

proptest! {
    /// The point test agrees with the distance comparison it encodes
    /// (Lemma 2's premise) outside the tolerance band, and is the
    /// intersection over the query points.
    #[test]
    fn point_test_matches_distance(r in pt(), q in route(6), p in pt()) {
        let inside = PointEntry::new(p, &q).is_inside(&r);
        prop_assert_eq!(
            inside,
            q.iter().all(|qi| PointEntry::new(p, std::slice::from_ref(qi)).is_inside(&r))
        );
        let gap = point_route_distance(&p, &q) - p.distance(&r);
        if gap.abs() > 1e-6 {
            prop_assert_eq!(inside, gap > 0.0);
        }
    }

    /// A point exactly on the bisector (equidistant from r and q) is never
    /// strictly inside — the tie-safety property the RkNNT pruning relies on.
    #[test]
    fn ties_are_not_strictly_inside(a in pt(), b in pt(), t in 0.0f64..1.0) {
        prop_assume!(a.distance(&b) > 1e-3);
        // Any point of the perpendicular bisector, parameterised by sliding
        // along it.
        let mid = a.midpoint(&b);
        let dir = Point::new(-(b.y - a.y), b.x - a.x);
        let on_bisector = Point::new(mid.x + dir.x * (t - 0.5), mid.y + dir.y * (t - 0.5));
        // Floating error can land the point a hair off the bisector; allow
        // the strict test to accept only when it is genuinely closer.
        if (on_bisector.distance(&a) - on_bisector.distance(&b)).abs() < 1e-9 {
            prop_assert!(!PointEntry::new(on_bisector, &[b]).is_inside(&a));
        }
    }

    /// A rectangle's decided verdicts hold for every point and sub-rectangle
    /// of it — what lets a tree walk hand "inside" and "outside" down to a
    /// whole subtree — wherever the rectangle is: the predicates take
    /// coordinate differences first, so a translation by 3·10⁹ changes
    /// nothing but the last bits of the inputs. "Inside" is the four corners'
    /// own point tests, bit for bit.
    #[test]
    fn rect_verdicts_are_inherited(r in pt(), q in route(5), centre in pt(),
                                   half in (0.0f64..80.0, 0.0f64..80.0),
                                   s in (0.0f64..1.0, 0.0f64..1.0, 0.0f64..1.0, 0.0f64..1.0),
                                   far in any::<bool>()) {
        let offset = if far { 3.0e9 } else { 0.0 };
        let shift = |p: &Point| Point::new(p.x + offset, p.y + offset);
        let (r, q): (Point, Vec<Point>) = (shift(&r), q.iter().map(shift).collect());
        // Small next to the ±1000 world, so all three verdicts are common.
        let rc = Rect::new(
            shift(&Point::new(centre.x - half.0, centre.y - half.1)),
            shift(&Point::new(centre.x + half.0, centre.y + half.1)),
        );
        let at = |sx: f64, sy: f64| Point::new(rc.min.x + rc.width() * sx, rc.min.y + rc.height() * sy);
        let (a, b) = (at(s.0, s.1), at(s.2, s.3));
        prop_assume!(rc.contains_point(&a) && rc.contains_point(&b));
        let sub = Rect::new(a, b);
        let verdict = classify(&r, &q, &rc);
        prop_assert_eq!(
            verdict == RectVerdict::Inside,
            rc.corners().iter().all(|c| PointEntry::new(*c, &q).is_inside(&r))
        );
        let point_inside = PointEntry::new(a, &q).is_inside(&r);
        match verdict {
            RectVerdict::Inside => {
                prop_assert_eq!(classify(&r, &q, &sub), RectVerdict::Inside);
                prop_assert!(point_inside);
            }
            RectVerdict::Outside => {
                prop_assert_eq!(classify(&r, &q, &sub), RectVerdict::Outside);
                prop_assert!(!point_inside);
            }
            RectVerdict::Straddling => {}
        }
    }

    /// The Voronoi rectangle test is sound: an accepted rectangle only holds
    /// points closer to the route than to the query.
    #[test]
    fn voronoi_rect_test_is_sound(rp in route(6), qp in route(6), rc in rect(),
                                  sx in 0.0f64..1.0, sy in 0.0f64..1.0) {
        if strictly_covers_rect(&rp, &rc, min_dist_sq_query_rect(&qp, &rc)) {
            let p = Point::new(rc.min.x + rc.width() * sx, rc.min.y + rc.height() * sy);
            prop_assert!(point_route_distance(&p, &rp) < point_route_distance(&p, &qp));
        }
    }

    /// MBR invariants: union contains both operands; min_dist <= max_dist;
    /// min_dist is zero exactly when the point is inside; the corner
    /// distances are the corners' own, and MaxDist is the farthest's.
    #[test]
    fn rect_metric_invariants(a in rect(), b in rect(), p in pt()) {
        let u = a.union(&b);
        prop_assert!(u.contains_rect(&a));
        prop_assert!(u.contains_rect(&b));
        prop_assert!(a.min_dist(&p) <= a.max_dist(&p) + 1e-9);
        prop_assert_eq!(a.min_dist(&p) == 0.0, a.contains_point(&p));
        prop_assert!(a.enlargement(&b) >= -1e-9);
        let corner_dist_sq = a.corner_dist_sq(&p);
        prop_assert_eq!(corner_dist_sq, a.corners().map(|c| p.distance_sq(&c)));
        let farthest = corner_dist_sq.iter().copied().fold(0.0, f64::max);
        prop_assert_eq!(a.max_dist_sq(&p), farthest);
    }

    /// Point-route distance is bounded by the distance to any single vertex.
    #[test]
    fn point_route_distance_lower_bound(p in pt(), r in route(8), idx in any::<prop::sample::Index>()) {
        let d = point_route_distance(&p, &r);
        let v = r[idx.index(r.len())];
        prop_assert!(d <= p.distance(&v) + 1e-9);
    }
}
