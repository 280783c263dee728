//! The inherited-verdict walks against the scan they replaced.
//!
//! `build_filter_set` and `prune_into_scratch` hand a node's `IsFiltered`
//! verdicts down to its subtree (inside → routes counted once, outside →
//! filter point dropped, straddling → re-tested below). The [`reference`]
//! module keeps what they did before: **every** entry — RR-tree node, stop,
//! TR-tree node, endpoint — scans the whole filter set from the top, and it
//! spells the predicates out from `rknnt-geo`'s public point test alone: a
//! rectangle is inside a filter point's space iff its four corners each pass
//! `PointEntry::is_inside`, and the Voronoi step is the full Definition 8
//! test — a generator dominating the rectangle, a generator's own space
//! holding it, the small-rectangle condition; at a point, any generator
//! strictly closer than the query — including the parts the product leaves
//! out as implied by step 1. The claim is that the two are indistinguishable
//! except by the work they do: same filter points in the same order, same
//! `refine_nodes`, same candidate *sequence*, same pruned-node count, same
//! `entries_tested`, and never more `filter_tests`.
//!
//! The property test draws worlds half from a coarse integer lattice (exact
//! ties, duplicate stops, collinear routes, single-point MBRs are the common
//! case there) and half from a continuous square, with tiny R-tree fan-out so
//! the trees are deep, and a third of them translated by 3·10⁹. What holds:
//! on the lattice every squared distance is an exact integer, so an
//! inherited verdict is the scan's verdict, always. Elsewhere a walk can
//! differ from the scan only where a comparison of one of them lies within
//! rounding error — a few ulps of a squared distance between *nearby*
//! points, ≈ 10⁻¹² here — of its threshold, at any translation: the
//! predicates subtract coordinates before they square them. (The seeded
//! cases hold no such comparison; a failure here after a change to the
//! predicates is a real difference until shown to be one of those.) And at
//! a point the verdict is made of the very bits `verify_candidates` compares
//! (`point_verdicts_are_verifications_own_comparison` in
//! `engine_equivalence.rs`). The fixed opening walks the named degenerate
//! geometries one by one.
//!
//! # Mutations that must fail this suite
//!
//! Each is a one-line change to the product source, run once by hand and
//! reverted. Of the predicate (`rknnt_geo::filtering`; CHANGES, PR 19 — the
//! lattice cases of `geo_properties.rs` fail on 2 and 3 as well):
//!
//! 1. *Drop the `− EPSILON` on the point threshold* — in `PointEntry::new`
//!    use the squared distance itself: a stop 0.2 nm² short of strictly
//!    closer counts, and `voronoi_verdicts_are_not_inherited` loses `p1`.
//! 2. *Test only the tightest corner* — in `RectEntry::classify` call a
//!    rectangle inside on `dist_sq[0] < threshold[0]` alone: nodes are
//!    pruned whose far corner the reference finds outside.
//! 3. *Accept a witness on three corners* — in `RectEntry::classify` let
//!    `(1..4)` decide the witness half of outside: a straddler is dropped
//!    for the subtree, children under-count, nodes and endpoints survive
//!    that the scan prunes.
//!
//! Of the walks (CHANGES, PR 17; re-run with the predicates above):
//!
//! 4. *Let a Voronoi mark into the inherited-route stack* — in
//!    `FilterSet::rect_is_filtered` hand `counted` on to `voronoi_step` and
//!    call it beside `walk.marks.mark(route)`: an endpoint inherits a route
//!    whose point test it does not pass itself. Only
//!    `voronoi_verdicts_are_not_inherited` can see this one — see its
//!    comment for why every ordinary world hides it.
//! 5. *Forget the points added since the parent's pop* — in
//!    `build_filter_set` drop the `.chain(above.seen..)` from `live`: an
//!    entry misses the newest filter points, stops enter the set that the
//!    scan filters.

use proptest::prelude::*;
use rknnt_core::{
    build_filter_set, prune_into_scratch, prune_transitions, CandidateEndpoint,
    DivideConquerEngine, FilterOutcome, FilterRefineEngine, QueryScratch, RknnTEngine, RknntQuery,
    VoronoiEngine,
};
use rknnt_geo::{Point, Rect};
use rknnt_index::{RouteStore, TransitionId, TransitionStore};
use rknnt_rtree::RTreeConfig;

/// The per-entry full scan: the filter and prune code as it stood before the
/// walks inherited verdicts, plus the two work counters, over predicates
/// written out from `PointEntry`.
mod reference {
    use rknnt_core::CandidateEndpoint;
    use rknnt_geo::voronoi::strictly_covers_rect;
    use rknnt_geo::{
        min_dist_query_rect, min_dist_sq_query_rect, point_route_distance, Point, PointEntry, Rect,
        EPSILON,
    };
    use rknnt_index::{RouteId, RouteStore, StopId, TransitionId, TransitionStore};
    use rknnt_rtree::NodeId;
    use std::cell::Cell;
    use std::cmp::Ordering;
    use std::collections::{BinaryHeap, HashMap, HashSet};

    pub struct FilterPoint {
        pub stop: StopId,
        pub point: Point,
        pub crossover: Vec<RouteId>,
    }

    #[derive(Default)]
    pub struct FilterSet {
        query: Vec<Point>,
        pub points: Vec<FilterPoint>,
        pub by_route: HashMap<RouteId, Vec<Point>>,
        /// The generators of each route's Voronoi space, by ascending route.
        voronoi: Vec<(RouteId, Vec<Point>)>,
        /// Entries put through `filters_*`.
        pub entries_tested: Cell<usize>,
        /// `inside_space` evaluations.
        pub filter_tests: Cell<usize>,
    }

    impl FilterSet {
        fn add(&mut self, stop: StopId, point: Point, crossover: Vec<RouteId>) {
            for r in &crossover {
                self.by_route.entry(*r).or_default().push(point);
            }
            self.points.push(FilterPoint {
                stop,
                point,
                crossover,
            });
        }

        fn finalize(&mut self) {
            self.points
                .sort_by_key(|fp| std::cmp::Reverse(fp.crossover.len()));
            self.voronoi = self
                .by_route
                .iter()
                .map(|(route, pts)| (*route, pts.clone()))
                .collect();
            self.voronoi.sort_by_key(|(r, _)| *r);
        }

        /// `rect ⊂ H_{r:Q}` (strictly) iff its four corners are, and
        /// `rect ⊂ H_{R:Q}` by any of Definition 8's three conditions.
        pub fn filters_rect(&self, rect: &Rect, k: usize, use_voronoi: bool) -> bool {
            let corners = rect.corners().map(|c| PointEntry::new(c, &self.query));
            let inside_space = |r: &Point| corners.iter().all(|c| c.is_inside(r));
            let query_side = min_dist_sq_query_rect(&self.query, rect);
            self.filters_impl(k, use_voronoi, inside_space, |generators| {
                generators
                    .iter()
                    .any(|r| rect.max_dist_sq(r) < query_side - EPSILON || inside_space(r))
                    || strictly_covers_rect(generators, rect, query_side)
            })
        }

        /// `p ∈ H_{r:Q}` (strictly), and `p ∈ H_{R:Q}` iff some generator of
        /// `R` is strictly closer to `p` than the query is.
        pub fn filters_point(&self, p: &Point, k: usize, use_voronoi: bool) -> bool {
            let entry = PointEntry::new(*p, &self.query);
            let inside_space = |r: &Point| entry.is_inside(r);
            self.filters_impl(k, use_voronoi, inside_space, |generators| {
                generators.iter().any(inside_space)
            })
        }

        fn filters_impl(
            &self,
            k: usize,
            use_voronoi: bool,
            inside_space: impl Fn(&Point) -> bool,
            inside_voronoi: impl Fn(&[Point]) -> bool,
        ) -> bool {
            self.entries_tested.set(self.entries_tested.get() + 1);
            if k == 0 {
                return true;
            }
            let mut marks: HashSet<RouteId> = HashSet::new();
            for fp in &self.points {
                self.filter_tests.set(self.filter_tests.get() + 1);
                if inside_space(&fp.point) {
                    marks.extend(fp.crossover.iter().copied());
                    if marks.len() >= k {
                        return true;
                    }
                }
            }
            if !use_voronoi {
                return marks.len() >= k;
            }
            for (route, generators) in &self.voronoi {
                if marks.contains(route) {
                    continue;
                }
                if inside_voronoi(generators) {
                    marks.insert(*route);
                    if marks.len() >= k {
                        return true;
                    }
                }
            }
            marks.len() >= k
        }
    }

    enum HeapEntry {
        Node(NodeId),
        Stop(StopId, Point),
    }

    struct HeapItem {
        dist: f64,
        entry: HeapEntry,
    }

    impl PartialEq for HeapItem {
        fn eq(&self, other: &Self) -> bool {
            self.dist == other.dist
        }
    }
    impl Eq for HeapItem {}
    impl PartialOrd for HeapItem {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }
    impl Ord for HeapItem {
        fn cmp(&self, other: &Self) -> Ordering {
            other.dist.total_cmp(&self.dist)
        }
    }

    /// Algorithm 2 with a full scan per heap entry. The work counters of the
    /// returned set cover the construction.
    pub fn build(routes: &RouteStore, query: &[Point], k: usize) -> (FilterSet, Vec<NodeId>) {
        let mut filter_set = FilterSet {
            query: query.to_vec(),
            ..FilterSet::default()
        };
        let mut refine_nodes = Vec::new();
        let tree = routes.rtree();
        let Some(root) = tree.root() else {
            return (filter_set, refine_nodes);
        };
        if query.is_empty() {
            return (filter_set, refine_nodes);
        }
        let mut heap = BinaryHeap::new();
        heap.push(HeapItem {
            dist: min_dist_query_rect(query, &root.mbr()),
            entry: HeapEntry::Node(root.id()),
        });
        while let Some(item) = heap.pop() {
            match item.entry {
                HeapEntry::Node(id) => {
                    let node = tree.node_ref(id).expect("heap holds live nodes");
                    if filter_set.filters_rect(&node.mbr(), k, false) {
                        refine_nodes.push(id);
                        continue;
                    }
                    if node.is_leaf() {
                        for entry in node.entries() {
                            heap.push(HeapItem {
                                dist: point_route_distance(&entry.point, query),
                                entry: HeapEntry::Stop(entry.data, entry.point),
                            });
                        }
                    } else {
                        node.for_each_child(|child| {
                            heap.push(HeapItem {
                                dist: min_dist_query_rect(query, &child.mbr()),
                                entry: HeapEntry::Node(child.id()),
                            });
                        });
                    }
                }
                HeapEntry::Stop(stop, point) => {
                    if filter_set.filters_point(&point, k, false) {
                        continue;
                    }
                    filter_set.add(stop, point, routes.crossover(stop).to_vec());
                }
            }
        }
        filter_set.finalize();
        (filter_set, refine_nodes)
    }

    /// Algorithm 4 with a full scan per TR-tree entry; returns the candidates
    /// in visiting order and the pruned-node count. Adds to the set's work
    /// counters.
    pub fn prune(
        transitions: &TransitionStore,
        filter_set: &FilterSet,
        k: usize,
        use_voronoi: bool,
        to_global: impl Fn(TransitionId) -> TransitionId,
    ) -> (Vec<CandidateEndpoint>, usize) {
        let mut candidates = Vec::new();
        let tree = transitions.rtree();
        let Some(root) = tree.root() else {
            return (candidates, 0);
        };
        let mut pruned_nodes = 0usize;
        let mut stack = vec![root.id()];
        while let Some(id) = stack.pop() {
            let node = tree.node_ref(id).expect("stack holds live nodes");
            if filter_set.filters_rect(&node.mbr(), k, use_voronoi) {
                pruned_nodes += 1;
                continue;
            }
            if node.is_leaf() {
                for entry in node.entries() {
                    if filter_set.filters_point(&entry.point, k, use_voronoi) {
                        continue;
                    }
                    candidates.push(CandidateEndpoint {
                        transition: to_global(entry.data.transition),
                        kind: entry.data.kind,
                        point: entry.point,
                    });
                }
            } else {
                node.for_each_child(|child| stack.push(child.id()));
            }
        }
        (candidates, pruned_nodes)
    }
}

fn p(x: f64, y: f64) -> Point {
    Point::new(x, y)
}

/// A sharded-style id translation: injective, not the identity.
fn shard_global(local: TransitionId) -> TransitionId {
    TransitionId(local.raw() * 4 + 3)
}

/// Work of one Filter–Refine execution (construction + one plain prune
/// pass; construction alone for a degenerate query).
#[derive(Debug, Default, Clone, Copy)]
struct Work {
    /// Entries put through `IsFiltered` — the same for walks and scan.
    entries_tested: usize,
    /// Filter-point evaluations: `(inherited walks, reference scan)`.
    filter_tests: (usize, usize),
}

/// Runs construction and both pruning variants (twice: identity and
/// sharded-style ids) through the product and the reference and asserts they
/// cannot be told apart. Returns the product outcome and the work both did.
///
/// The reference's counters are cumulative over everything run on one set,
/// so each prune pass is measured as a difference.
fn assert_equivalent(
    routes: &RouteStore,
    transitions: &TransitionStore,
    query: &[Point],
    k: usize,
) -> (FilterOutcome, Work) {
    let outcome = build_filter_set(routes, query, k);
    let (expected, expected_refine) = reference::build(routes, query, k);
    let label = format!("k={k} |Q|={}", query.len());

    // Filter points, in order, with their crossover sets.
    let set = &outcome.filter_set;
    assert_eq!(set.num_points(), expected.points.len(), "{label}");
    for (i, (got, want)) in set.points().iter().zip(&expected.points).enumerate() {
        assert_eq!(got.stop, want.stop, "{label}: filter point {i}");
        assert_eq!(got.point, want.point, "{label}: filter point {i}");
        assert_eq!(set.crossover(i), &want.crossover[..], "{label}: point {i}");
    }
    assert_eq!(set.num_routes(), expected.by_route.len(), "{label}");
    assert_eq!(outcome.refine_nodes, expected_refine, "{label}");
    assert_eq!(
        outcome.entries_tested,
        expected.entries_tested.get(),
        "{label}: RR-tree entries tested"
    );
    let build_scan = expected.filter_tests.get();
    let mut work = Work {
        entries_tested: outcome.entries_tested,
        filter_tests: (outcome.filter_tests, build_scan),
    };
    assert!(outcome.filter_tests <= build_scan, "{label}");

    let mut scratch = QueryScratch::new();
    for use_voronoi in [false, true] {
        let label = format!("{label} voronoi={use_voronoi}");
        // One store, identity ids: the allocating wrapper.
        let before = (expected.entries_tested.get(), expected.filter_tests.get());
        let (want, want_pruned) = reference::prune(transitions, &expected, k, use_voronoi, |id| id);
        let got = prune_transitions(transitions, set, k, use_voronoi);
        assert_eq!(got.candidates, want, "{label}: candidate sequence");
        assert_eq!(got.pruned_nodes, want_pruned, "{label}: pruned nodes");
        let scan = (
            expected.entries_tested.get() - before.0,
            expected.filter_tests.get() - before.1,
        );

        // The same store consulted twice through a router-style id map on a
        // reused scratch: candidates append, counts add.
        let (want_global, _) =
            reference::prune(transitions, &expected, k, use_voronoi, shard_global);
        scratch.clear_candidates();
        let mut got_pruned = 0;
        for _ in 0..2 {
            got_pruned +=
                prune_into_scratch(transitions, set, k, use_voronoi, &mut scratch, shard_global);
        }
        let twice: Vec<CandidateEndpoint> =
            want_global.iter().chain(&want_global).copied().collect();
        assert_eq!(scratch.candidates(), &twice[..], "{label}: appended");
        assert_eq!(got_pruned, 2 * want_pruned, "{label}: pruned, two passes");

        // The work counts surface through the engine's stats; checked once
        // per setting against construction + one prune pass.
        let stats = if use_voronoi {
            VoronoiEngine::new(routes, transitions).execute(&RknntQuery::exists(query.to_vec(), k))
        } else {
            FilterRefineEngine::new(routes, transitions)
                .execute(&RknntQuery::exists(query.to_vec(), k))
        }
        .stats;
        if k > 0 && !query.is_empty() {
            assert_eq!(
                stats.entries_tested,
                outcome.entries_tested + scan.0,
                "{label}: entries tested, filter + prune"
            );
            assert!(stats.filter_tests <= build_scan + scan.1, "{label}");
            assert_eq!(stats.candidate_endpoints, want.len(), "{label}");
            assert_eq!(stats.pruned_tr_nodes, want_pruned, "{label}");
            assert_eq!(stats.refine_nodes, expected_refine.len(), "{label}");
            if !use_voronoi {
                work = Work {
                    entries_tested: stats.entries_tested,
                    filter_tests: (stats.filter_tests, build_scan + scan.1),
                };
            }
        }

        // The one-step public form, from the full list: probes around the
        // data, as rectangles and as points.
        for probe in probes(routes, transitions, query) {
            assert_eq!(
                set.filters_rect(&probe, k, use_voronoi),
                expected.filters_rect(&probe, k, use_voronoi),
                "{label}: filters_rect({probe:?})"
            );
            assert_eq!(
                set.filters_point(&probe.min, k, use_voronoi),
                expected.filters_point(&probe.min, k, use_voronoi),
                "{label}: filters_point({})",
                probe.min
            );
        }
    }
    (outcome, work)
}

/// A few rectangles (and, through their min corners, points) around the
/// world: the data's MBR, the nine cells of its 3 × 3 split, and single-point
/// rectangles on the query points and the first stops.
fn probes(routes: &RouteStore, transitions: &TransitionStore, query: &[Point]) -> Vec<Rect> {
    let mut corners: Vec<Point> = query.to_vec();
    corners.extend(routes.routes().flat_map(|r| r.points.iter().copied()));
    corners.extend(transitions.transitions().map(|t| t.origin));
    let Some(world) = Rect::from_points(&corners) else {
        return Vec::new();
    };
    let mut out = vec![world];
    let (w, h) = (world.width() / 3.0, world.height() / 3.0);
    for i in 0..3 {
        for j in 0..3 {
            let min = p(world.min.x + w * i as f64, world.min.y + h * j as f64);
            out.push(Rect::new(min, p(min.x + w, min.y + h)));
        }
    }
    out.extend(corners.iter().take(12).map(|c| Rect::from_point(*c)));
    out
}

fn stores(
    fanout: (usize, usize),
    routes: Vec<Vec<Point>>,
    transitions: Vec<(Point, Point)>,
) -> (RouteStore, TransitionStore) {
    let config = RTreeConfig::new(fanout.0, fanout.1);
    let (route_store, _) = RouteStore::bulk_build(config, routes);
    (
        route_store,
        TransitionStore::bulk_build(config, transitions),
    )
}

const KS: [usize; 6] = [0, 1, 2, 5, 10, 1_000];

#[test]
fn fixed_opening_degenerate_geometry() {
    // Integer coordinates throughout, so bisectors, ties and coincidences are
    // exact. Three horizontal routes, one vertical route crossing them at
    // shared stops (crossover sets of size 2), one route that doubles back
    // over its own stops.
    let routes = vec![
        (0..6).map(|i| p(i as f64 * 4.0, 0.0)).collect::<Vec<_>>(),
        (0..6).map(|i| p(i as f64 * 4.0, 8.0)).collect(),
        (0..6).map(|i| p(i as f64 * 4.0, 16.0)).collect(),
        (0..5).map(|j| p(8.0, j as f64 * 4.0)).collect(),
        vec![p(20.0, 4.0), p(24.0, 4.0), p(20.0, 4.0), p(24.0, 4.0)],
    ];
    // Endpoints exactly on the bisector of the stop (8, 8) and the query
    // point (8, 12) — the line y = 10 — and of (8, 8) / (12, 12); endpoints on
    // stops; endpoints on query points; a pile of identical endpoints so a
    // TR-tree leaf's MBR is a single point.
    let mut transitions = vec![
        (p(8.0, 10.0), p(2.0, 10.0)),
        (p(10.0, 10.0), p(12.0, 8.0)),
        (p(8.0, 8.0), p(8.0, 12.0)),
        (p(0.0, 0.0), p(20.0, 16.0)),
        (p(4.0, 2.0), p(16.0, 14.0)),
    ];
    transitions.extend((0..9).map(|_| (p(14.0, 3.0), p(14.0, 3.0))));
    transitions.extend((0..12).map(|i| (p(i as f64 * 2.0, 6.0), p(22.0 - i as f64, 13.0))));
    let (route_store, transition_store) = stores((4, 2), routes, transitions);

    // |Q| ∈ {1, 3, 8}; each query holds a point coinciding with a stop
    // (degenerate half-plane) next to points off the network.
    let q8: Vec<Point> = vec![
        p(8.0, 12.0),
        p(12.0, 12.0),
        p(8.0, 8.0),
        p(16.0, 12.0),
        p(20.0, 12.0),
        p(4.0, 12.0),
        p(0.0, 12.0),
        p(24.0, 12.0),
    ];
    let mut lowered = 0;
    for len in [1usize, 3, 8] {
        for k in KS {
            let (_, work) = assert_equivalent(&route_store, &transition_store, &q8[..len], k);
            lowered += usize::from(work.filter_tests.0 < work.filter_tests.1);
        }
    }
    assert!(lowered > 0, "the opening must exercise inheritance");

    // Collinear world: every route, endpoint and query point on y = 0, so
    // every MBR is a segment or a point.
    let line_routes = vec![
        (0..5).map(|i| p(i as f64 * 3.0, 0.0)).collect::<Vec<_>>(),
        (0..5).map(|i| p(20.0 + i as f64 * 3.0, 0.0)).collect(),
        (0..4).map(|i| p(6.0 + i as f64 * 5.0, 0.0)).collect(),
    ];
    let line_transitions = (0..14)
        .map(|i| (p(i as f64 * 2.5, 0.0), p(35.0 - i as f64 * 2.0, 0.0)))
        .collect();
    let (line_r, line_t) = stores((4, 2), line_routes, line_transitions);
    for k in KS {
        assert_equivalent(&line_r, &line_t, &[p(16.0, 0.0)], k);
        assert_equivalent(
            &line_r,
            &line_t,
            &[p(3.0, 0.0), p(16.0, 0.0), p(40.0, 0.0)],
            k,
        );
    }

    // Empty route store, empty TR-tree, both, and the empty query.
    let (no_routes, no_transitions) = stores((4, 2), Vec::new(), Vec::new());
    for k in KS {
        assert_equivalent(&no_routes, &transition_store, &q8[..3], k);
        assert_equivalent(&route_store, &no_transitions, &q8[..3], k);
        assert_equivalent(&no_routes, &no_transitions, &q8[..3], k);
        assert_equivalent(&route_store, &transition_store, &[], k);
    }
}

/// Why a Voronoi verdict stays with the entry it was computed for.
///
/// The Voronoi rectangle test is conservative and, unlike the half-plane
/// tests, not implied downwards: its small-rectangle condition compares
/// *distances* (`dist(c, r*) + diam < MinDist(rect, Q) − ε`) while the point
/// test compares *squared* distances (`|p − r|² < |p − q|² − ε`), and below
/// distance ½ from the query the first is the looser of the two. So a tiny
/// node a hair inside that band passes for a route whose point test then
/// fails at the node's own endpoint. This world is that case, with k = 2:
///
/// * the TR-tree is one leaf holding `p1 = (0, 0)` and `p2 = (δ, 0)`,
///   δ = 5 nm; the query is the single point straight above it at 0.1;
/// * route A's stop sits on the axis left of the leaf, close enough for the
///   rectangle condition and too far for the point test at `p2`;
/// * route B's stop is strictly inside for `p2` and (by 0.2 nm²) not for
///   `p1`, so it straddles the leaf and counts at `p2` only.
///
/// The scan — and the walk — mark A at the leaf (1 < k, the leaf is opened)
/// and count only B at `p2` (1 < k, `p2` survives). A walk that let the
/// leaf's Voronoi mark of A down to its entries would count 2 and prune `p2`.
#[test]
fn voronoi_verdicts_are_not_inherited() {
    let (delta, dist) = (5e-9f64, 0.1f64);
    let (p1, p2) = (p(0.0, 0.0), p(delta, 0.0));
    let query = [p(delta / 2.0, dist)];
    let stop_a = p(-(dist - 9.2e-9), 0.0);
    // |p1 − stop_b|² = |p1 − q|² − 0.8e-9: 0.2e-9 short of strictly inside.
    let bx = 0.05 + delta / 2.0;
    let by = (p1.distance_sq(&query[0]) - 0.8e-9 - bx * bx).sqrt();
    let stop_b = p(bx, by);
    let (routes, transitions) = stores(
        (4, 2),
        vec![vec![stop_a, p(-50.0, 0.0)], vec![stop_b, p(50.0, 50.0)]],
        vec![(p1, p2)],
    );
    let (outcome, _) = assert_equivalent(&routes, &transitions, &query, 2);

    // The fixture is the case described: the leaf passes for one route
    // through the Voronoi step alone, is opened at k = 2, and both endpoints
    // survive — `p2` with exactly one route counted.
    let set = &outcome.filter_set;
    let leaf = Rect::new(p1, p2);
    assert!(!set.filters_rect(&leaf, 1, false) && set.filters_rect(&leaf, 1, true));
    assert!(!set.filters_rect(&leaf, 2, true));
    assert!(set.filters_point(&p2, 1, false) && !set.filters_point(&p2, 2, true));
    let pruned = prune_transitions(&transitions, set, 2, true);
    assert_eq!(pruned.pruned_nodes, 0);
    let survivors: Vec<Point> = pruned.candidates.iter().map(|c| c.point).collect();
    assert_eq!(survivors, [p1, p2]);
}

fn coordinate() -> impl Strategy<Value = f64> {
    0.0f64..64.0
}

fn raw_point() -> impl Strategy<Value = (f64, f64)> {
    (coordinate(), coordinate())
}

/// Continuous points, or the same points snapped to a 17 × 17 integer
/// lattice — where duplicates, collinear triples and exact bisector ties are
/// the rule rather than the exception.
fn snap(lattice: bool, offset: f64, (x, y): (f64, f64)) -> Point {
    if lattice {
        p(
            offset + (x / 4.0).floor() * 4.0,
            offset + (y / 4.0).floor() * 4.0,
        )
    } else {
        p(offset + x, offset + y)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn inherited_walks_reproduce_the_full_scan(
        lattice in any::<bool>(),
        offset in prop_oneof![Just(0.0f64), Just(0.0f64), Just(3.0e9f64)],
        raw_routes in prop::collection::vec(prop::collection::vec(raw_point(), 2..9), 0..14),
        raw_transitions in prop::collection::vec((raw_point(), raw_point()), 0..90),
        raw_query in prop::collection::vec(raw_point(), 8..9),
        query_len in prop_oneof![Just(1usize), Just(3usize), Just(8usize)],
        k in prop_oneof![Just(1usize), Just(2usize), Just(5usize), Just(10usize), Just(1_000usize)],
        wide in any::<bool>(),
        on_a_stop in any::<bool>(),
    ) {
        let routes: Vec<Vec<Point>> = raw_routes
            .iter()
            .map(|r| r.iter().map(|c| snap(lattice, offset, *c)).collect())
            .collect();
        let transitions = raw_transitions
            .iter()
            .map(|(o, d)| (snap(lattice, offset, *o), snap(lattice, offset, *d)))
            .collect();
        let mut query: Vec<Point> = raw_query[..query_len]
            .iter()
            .map(|c| snap(lattice, offset, *c))
            .collect();
        // Half the time one query point sits exactly on a stop.
        if on_a_stop {
            if let Some(stop) = routes.first().and_then(|r| r.first()) {
                query[0] = *stop;
            }
        }
        let fanout = if wide { (8, 3) } else { (4, 2) };
        let (route_store, transition_store) = stores(fanout, routes, transitions);
        assert_equivalent(&route_store, &transition_store, &query, k);
    }
}

/// A fixed seeded world at the benchmark's operating point in miniature:
/// random-walk routes over a square, uniform transitions, |Q| = 8.
fn pinned_world() -> (RouteStore, TransitionStore, Vec<Vec<Point>>) {
    let mut rng = TestRng::from_label("inherited_walk_equivalence::pinned_world");
    let mut unit = move || rng.next_f64();
    let mut walk = |len: usize, step: f64| -> Vec<Point> {
        let (mut x, mut y) = (unit() * 100.0, unit() * 100.0);
        (0..len)
            .map(|_| {
                x = (x + (unit() - 0.5) * step).clamp(0.0, 100.0);
                y = (y + (unit() - 0.5) * step).clamp(0.0, 100.0);
                p(x, y)
            })
            .collect()
    };
    let routes: Vec<Vec<Point>> = (0..80).map(|_| walk(14, 12.0)).collect();
    let queries: Vec<Vec<Point>> = (0..6).map(|_| walk(8, 10.0)).collect();
    let transitions = (0..3_000)
        .map(|_| {
            let trip = walk(2, 30.0);
            (trip[0], trip[1])
        })
        .collect();
    let config = RTreeConfig::default();
    let (route_store, _) = RouteStore::bulk_build(config, routes);
    (
        route_store,
        TransitionStore::bulk_build(config, transitions),
        queries,
    )
}

/// `filter_tests` never increases at a fixed seed.
///
/// The pinned value is the sum over the six queries of the pinned world at
/// k = 10 of the Filter–Refine engine's `stats.filter_tests` (construction +
/// pruning). It is an upper bound: a change that makes the walks test fewer
/// filter points — ordering straddlers so the early exit fires sooner, a
/// tighter "outside" test — lowers the measured sum (run with `--nocapture`
/// to read it), and the constant should then be lowered to the new sum in
/// the same change. A change that raises it has made the filter or prune
/// phase hand more filter points down per query and needs a reason.
///
/// It has risen once, 482 701 → 504 040 (PR 19), for this reason: 482 701
/// was measured when a test cost up to |Q| half-planes and any one of them
/// missing the MBR made the verdict "outside". A test is now four distance
/// evaluations whatever |Q| is, and "outside" tries one query point as the
/// witness plus a distance bound, so a few filter points another query
/// point would have dropped are handed down as straddlers and re-tested
/// below (4.4 % more tests here; trying every query point as the witness
/// gives exactly 482 701 again and a slower prune). The count no longer
/// tracks the time — what it still pins is the inheritance: it stays below
/// half of the scan's. `entries_tested` is pinned by equality with the
/// reference scan instead: it is a property of the trees and the query, not
/// of how `IsFiltered` is evaluated.
#[test]
fn filter_tests_never_increase_on_the_pinned_world() {
    const PINNED_FILTER_TESTS_K10: usize = 504_040;
    let (routes, transitions, queries) = pinned_world();
    let (mut walks, mut scan) = (0usize, 0usize);
    for query in &queries {
        let (_, work) = assert_equivalent(&routes, &transitions, query, 10);
        walks += work.filter_tests.0;
        scan += work.filter_tests.1;
        // Divide & Conquer runs |Q| passes and adds them all up.
        let dc = DivideConquerEngine::new(&routes, &transitions)
            .execute(&RknntQuery::exists(query.clone(), 10))
            .stats;
        let passes: usize = query
            .iter()
            .map(|q| {
                let (_, work) = assert_equivalent(&routes, &transitions, &[*q], 10);
                work.entries_tested
            })
            .sum();
        assert_eq!(
            dc.entries_tested, passes,
            "divide & conquer adds its passes"
        );
    }
    println!("pinned world, k = 10: filter_tests {walks} (full scan {scan})");
    assert!(
        walks <= PINNED_FILTER_TESTS_K10,
        "filter_tests rose to {walks} (pinned {PINNED_FILTER_TESTS_K10})"
    );
    assert!(
        2 * walks < scan,
        "inherited walks made {walks} filter tests, the full scan {scan}: not below half"
    );
}
