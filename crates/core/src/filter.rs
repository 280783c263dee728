//! Filter-set construction (Algorithm 2) and the `IsFiltered` predicate
//! (Algorithm 3).
//!
//! The filter set `S_filter` is a small subset of route points chosen by a
//! best-first traversal of the RR-tree in increasing `MinDist` to the query:
//! a route point that cannot itself be pruned by the points already chosen is
//! added to the set (its half-space will help prune everything that comes
//! later). RR-tree nodes that *can* be pruned during this traversal form the
//! refinement node set `S_refine`.
//!
//! `IsFiltered` decides whether an entry (an R-tree node MBR or a single
//! point) is covered by the filtering spaces of at least `k` distinct routes:
//! first using the individual filter points (whose crossover sets may count
//! several routes at once — Definition 7), then, when enabled, using the
//! per-route Voronoi filtering spaces of Section 5.1.
//!
//! # Inherited verdicts
//!
//! Both tree walks — the RR-tree walk below and the TR-tree walk of
//! [`crate::prune_into_scratch`] — call `IsFiltered` on a node and then on
//! everything under it, and step 1 judges each filter point `r` against a
//! node MBR three ways ([`rknnt_geo::RectVerdict`]). `p ∈ H_{r:Q}` is
//! `|p − r|² < d²(p, Q)`, so the entry computes its side once — for an MBR
//! the thresholds of its four corners ([`rknnt_geo::RectEntry`], on the
//! stack) — and a filter point costs a few distance evaluations, not |Q|
//! half-planes:
//!
//! * **inside** — `r` is strictly closer than the query to all four corners,
//!   hence (the space is convex) to every point and sub-rectangle of the
//!   MBR: the point's crossover routes are counted once, for the whole
//!   subtree;
//! * **outside** — one query point is at least as close as `r` to all four
//!   corners, or `r` is farther from the MBR than a query point is from its
//!   farthest corner: the filter point can be inside for nothing below, and
//!   is dropped for the whole subtree;
//! * **straddling** — handed down: a child or leaf entry tests only its
//!   parent's straddlers, on top of the inherited distinct-route count.
//!
//! Both inherited verdicts are the ones a scan of the whole set per entry
//! reaches — exactly where squared coordinate differences are exact, and
//! elsewhere unless a comparison lies within rounding error of its
//! threshold ([`rknnt_geo::RectEntry::classify`]) — and `IsFiltered` is the
//! boolean "≥ k distinct routes", which neither scan order nor early exit
//! can change. At a point the test ([`rknnt_geo::PointEntry`]) compares the
//! two numbers exact verification compares at the same stop, so a pruned
//! endpoint is one verification would reject. The Voronoi step is *not*
//! inherited — its rectangle test is conservative and not implied downwards
//! — and runs per node MBR after step 1, on the routes step 1 left
//! uncounted; its marks never enter the inherited route list. It has no
//! point half: at a point the Voronoi test *is* step 1's.
//!
//! The set stores its filter points beside a CSR crossover array and
//! nothing per (filter point, query point) pair.

use crate::scratch::RouteMarks;
use rknnt_geo::voronoi::strictly_covers_rect;
use rknnt_geo::{
    min_dist_query_rect, min_dist_sq_query_rect, point_route_distance, Point, PointEntry, Rect,
    RectEntry, RectVerdict,
};
use rknnt_index::{RouteId, RouteStore, StopId};
use rknnt_rtree::NodeId;
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::ops::Range;
use std::sync::OnceLock;

/// One filtering point: a stop and its location. Its crossover route set is
/// [`FilterSet::crossover`] at the same index.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FilterPoint {
    /// Stop identifier in the route store.
    pub stop: StopId,
    /// Location of the stop.
    pub point: Point,
}

/// The filter points of each route of the set (`S_filter.R`), CSR by
/// ascending route id: the generators of the per-route Voronoi filtering
/// spaces `H_{R:Q}`.
#[derive(Debug, Clone, Default)]
struct RouteGroups {
    routes: Vec<RouteId>,
    offsets: Vec<u32>,
    points: Vec<Point>,
}

impl RouteGroups {
    fn build(set: &FilterSet) -> Self {
        let mut pairs: Vec<(RouteId, Point)> = (0..set.points.len())
            .flat_map(|i| {
                let point = set.points[i].point;
                set.crossover(i).iter().map(move |r| (*r, point))
            })
            .collect();
        pairs.sort_by_key(|(route, _)| *route);
        let mut groups = RouteGroups::default();
        for (route, point) in pairs {
            if groups.routes.last() != Some(&route) {
                groups.routes.push(route);
                groups.offsets.push(groups.points.len() as u32);
            }
            groups.points.push(point);
        }
        groups.offsets.push(groups.points.len() as u32);
        groups
    }

    fn iter(&self) -> impl Iterator<Item = (RouteId, &[Point])> {
        self.routes
            .iter()
            .zip(self.offsets.windows(2))
            .map(|(route, w)| (*route, &self.points[w[0] as usize..w[1] as usize]))
    }
}

/// The filter set `S_filter`: filtering points (`S_filter.P`) with their
/// crossover route sets, stored flat, the query their filtering spaces are
/// taken against, plus — built on first use — the per-route grouping
/// (`S_filter.R`) the Voronoi step runs on.
#[derive(Debug, Clone)]
pub struct FilterSet {
    /// The query `Q` of the filtering spaces `H_{r:Q}` (also the query side
    /// of the Voronoi test).
    query: Vec<Point>,
    points: Vec<FilterPoint>,
    /// CSR crossover sets: point `i` lies on
    /// `crossover[crossover_offsets[i] .. crossover_offsets[i + 1]]`.
    crossover_offsets: Vec<u32>,
    crossover: Vec<RouteId>,
    num_routes: usize,
    /// Only `use_voronoi` callers read the grouping, so it is derived from
    /// the arrays above by the first of them (a set is shared by reference
    /// across batch workers, hence the lock).
    route_groups: OnceLock<RouteGroups>,
}

impl Default for FilterSet {
    fn default() -> Self {
        FilterSet::for_query(&[])
    }
}

/// Two sets are equal when their query, points and crossover sets are; the
/// lazily derived per-route grouping does not take part.
impl PartialEq for FilterSet {
    fn eq(&self, other: &Self) -> bool {
        self.query == other.query
            && self.points == other.points
            && self.crossover_offsets == other.crossover_offsets
            && self.crossover == other.crossover
    }
}

impl FilterSet {
    fn for_query(query: &[Point]) -> Self {
        FilterSet {
            query: query.to_vec(),
            points: Vec::new(),
            crossover_offsets: vec![0],
            crossover: Vec::new(),
            num_routes: 0,
            route_groups: OnceLock::new(),
        }
    }

    /// A set from its parts as [`FilterSet::query`], [`FilterSet::points`]
    /// and [`FilterSet::crossover`] give them, in order: how a set built
    /// over the routes travels to a shard that holds only transitions.
    pub fn from_parts(query: &[Point], points: &[(FilterPoint, Vec<RouteId>)]) -> Self {
        let mut set = FilterSet::for_query(query);
        for (point, crossover) in points {
            set.add(point.stop, point.point, crossover);
        }
        let mut marks = RouteMarks::default();
        marks.begin_with(&set.crossover);
        set.num_routes = marks.count();
        set
    }

    /// The query `Q` the filtering spaces are taken against.
    pub fn query(&self) -> &[Point] {
        &self.query
    }

    /// Number of filtering points (|S_filter.P|).
    pub fn num_points(&self) -> usize {
        self.points.len()
    }

    /// Number of distinct routes represented (|S_filter.R|).
    pub fn num_routes(&self) -> usize {
        self.num_routes
    }

    /// The filtering points, sorted by decreasing crossover-set size once
    /// the set has been finalized.
    pub fn points(&self) -> &[FilterPoint] {
        &self.points
    }

    /// Crossover route set `C(r)` of the filtering point at `index` of
    /// [`FilterSet::points`].
    pub fn crossover(&self, index: usize) -> &[RouteId] {
        let offsets = &self.crossover_offsets;
        &self.crossover[offsets[index] as usize..offsets[index + 1] as usize]
    }

    /// Whether the set holds no filtering points.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Adds a filtering point discovered by the RR-tree traversal.
    fn add(&mut self, stop: StopId, point: Point, crossover: &[RouteId]) {
        self.points.push(FilterPoint { stop, point });
        self.crossover.extend_from_slice(crossover);
        self.crossover_offsets.push(self.crossover.len() as u32);
    }

    /// Sorts the points by decreasing crossover size (Algorithm 3 accesses
    /// points in that order so points shared by many routes are tried
    /// first), carrying their crossover sets along, and counts the distinct
    /// routes.
    fn finalize(&mut self, marks: &mut RouteMarks) {
        let mut order: Vec<usize> = (0..self.points.len()).collect();
        order.sort_by_key(|&i| std::cmp::Reverse(self.crossover(i).len()));
        let mut sorted = FilterSet::for_query(&self.query);
        for i in order {
            sorted.points.push(self.points[i]);
            sorted.crossover.extend_from_slice(self.crossover(i));
            sorted.crossover_offsets.push(sorted.crossover.len() as u32);
        }
        marks.begin_with(&sorted.crossover);
        sorted.num_routes = marks.count();
        *self = sorted;
    }

    /// `IsFiltered` for an R-tree node MBR: is the rectangle covered by the
    /// filtering spaces of at least `k` distinct routes?
    ///
    /// The *strict* geometric predicates are used: a route only counts as a
    /// pruning witness when it is strictly closer than the query. Exact ties
    /// (common when a query point coincides with a bus stop, e.g. in the
    /// per-vertex pre-computation of the route planner) are therefore left to
    /// the exact verification phase, matching the result definition "fewer
    /// than k routes strictly closer".
    pub fn filters_rect(&self, rect: &Rect, k: usize, use_voronoi: bool) -> bool {
        self.filters_rect_with(rect, k, use_voronoi, &mut RouteMarks::default())
    }

    /// `IsFiltered` for a single point (strict, like
    /// [`FilterSet::filters_rect`]). `use_voronoi` changes nothing here: a
    /// route's Voronoi space holds a point iff the space of one of its
    /// filter points does.
    pub fn filters_point(&self, p: &Point, k: usize, use_voronoi: bool) -> bool {
        self.filters_point_with(p, k, use_voronoi, &mut RouteMarks::default())
    }

    /// [`FilterSet::filters_rect`] on a caller-provided mark table: the
    /// step a tree walk takes at its root — every filter point live, nothing
    /// inherited, nothing handed down.
    pub fn filters_rect_with(
        &self,
        rect: &Rect,
        k: usize,
        use_voronoi: bool,
        marks: &mut RouteMarks,
    ) -> bool {
        marks.begin();
        let all = 0..self.points.len() as u32;
        let mut walk = Walk::new(k, use_voronoi, marks);
        self.rect_is_filtered(rect, all, &mut walk, |_| {}, |_| {})
    }

    /// [`FilterSet::filters_point`] on a caller-provided mark table.
    pub fn filters_point_with(
        &self,
        p: &Point,
        k: usize,
        use_voronoi: bool,
        marks: &mut RouteMarks,
    ) -> bool {
        marks.begin();
        let all = 0..self.points.len() as u32;
        self.point_is_filtered(p, all, &mut Walk::new(k, use_voronoi, marks))
    }

    /// `IsFiltered` for a node MBR whose ancestors have already judged part
    /// of the set: `walk.marks` holds the routes their inside verdicts
    /// counted, `live` are the filter points still undecided. Each route an
    /// inside verdict newly counts here goes to `counted` and each straddler
    /// to `handed_down` — what the node's own subtree inherits when the
    /// answer is `false`. The Voronoi step runs last and reports to neither.
    pub(crate) fn rect_is_filtered(
        &self,
        rect: &Rect,
        live: impl Iterator<Item = u32>,
        walk: &mut Walk<'_>,
        counted: impl FnMut(RouteId),
        handed_down: impl FnMut(u32),
    ) -> bool {
        let entry = RectEntry::new(rect, &self.query);
        if self.count_inside(live, walk, |r| entry.classify(r), counted, handed_down) {
            return true;
        }
        walk.use_voronoi && self.voronoi_step(rect, walk)
    }

    /// `IsFiltered` for a point under a node that handed down `live` and
    /// whose inherited routes are in `walk.marks`. Step 1 is all of it: a
    /// route's Voronoi space holds a point iff one of its generators' spaces
    /// does.
    pub(crate) fn point_is_filtered(
        &self,
        p: &Point,
        live: impl Iterator<Item = u32>,
        walk: &mut Walk<'_>,
    ) -> bool {
        let entry = PointEntry::new(*p, &self.query);
        let verdict = |r: &Point| {
            if entry.is_inside(r) {
                RectVerdict::Inside
            } else {
                RectVerdict::Outside
            }
        };
        self.count_inside(live, walk, verdict, |_| {}, |_| {})
    }

    /// Step 1 of `IsFiltered`, the one counting loop: judges every `live`
    /// filter point with `verdict` and marks the crossover routes of the
    /// inside ones, until `k` distinct routes are marked.
    fn count_inside(
        &self,
        live: impl Iterator<Item = u32>,
        walk: &mut Walk<'_>,
        verdict: impl Fn(&Point) -> RectVerdict,
        mut counted: impl FnMut(RouteId),
        mut handed_down: impl FnMut(u32),
    ) -> bool {
        walk.entries_tested += 1;
        if walk.marks.count() >= walk.k {
            return true;
        }
        for index in live {
            walk.filter_tests += 1;
            match verdict(&self.points[index as usize].point) {
                RectVerdict::Inside => {
                    for route in self.crossover(index as usize) {
                        if walk.marks.mark(*route) {
                            counted(*route);
                        }
                    }
                    if walk.marks.count() >= walk.k {
                        return true;
                    }
                }
                RectVerdict::Straddling => handed_down(index),
                RectVerdict::Outside => {}
            }
        }
        false
    }

    /// Step 2 of `IsFiltered` for a node MBR (Section 5.1): the per-route
    /// Voronoi filtering spaces, for the routes step 1 left uncounted — each
    /// a route none of whose generators' own spaces holds the rectangle.
    fn voronoi_step(&self, rect: &Rect, walk: &mut Walk<'_>) -> bool {
        let query_side = min_dist_sq_query_rect(&self.query, rect);
        let groups = self.route_groups.get_or_init(|| RouteGroups::build(self));
        for (route, generators) in groups.iter() {
            if !walk.marks.contains(route) && strictly_covers_rect(generators, rect, query_side) {
                walk.marks.mark(route);
                if walk.marks.count() >= walk.k {
                    return true;
                }
            }
        }
        false
    }
}

/// What stays the same from one `IsFiltered` call of a tree walk to the
/// next, and the two work counts the calls add up.
pub(crate) struct Walk<'a> {
    k: usize,
    use_voronoi: bool,
    /// Distinct-route count of the entry being judged. The caller seeds it
    /// with the entry's inherited routes ([`RouteMarks::begin_with`]) before
    /// each call.
    pub marks: &'a mut RouteMarks,
    /// Entries (node MBRs and points) put through `IsFiltered`.
    pub entries_tested: usize,
    /// Filter-point × entry evaluations of step 1.
    pub filter_tests: usize,
}

impl<'a> Walk<'a> {
    pub fn new(k: usize, use_voronoi: bool, marks: &'a mut RouteMarks) -> Self {
        Walk {
            k,
            use_voronoi,
            marks,
            entries_tested: 0,
            filter_tests: 0,
        }
    }
}

/// Output of the filter-route phase: the filter set, the RR-tree nodes
/// pruned during its construction (`S_refine`) and the work that took.
#[derive(Debug, Clone)]
pub struct FilterOutcome {
    /// The filter set `S_filter`.
    pub filter_set: FilterSet,
    /// Ids of the RR-tree nodes pruned during filter construction.
    pub refine_nodes: Vec<NodeId>,
    /// RR-tree entries (node MBRs and stops) put through `IsFiltered`.
    pub entries_tested: usize,
    /// Filter-point × entry evaluations those tests made.
    pub filter_tests: usize,
}

/// Heap entry for the best-first traversal of Algorithm 2.
enum HeapEntry {
    Node(NodeId),
    Stop(StopId, Point),
}

struct HeapItem {
    dist: f64,
    entry: HeapEntry,
    /// Index of the [`Inherited`] context the entry's parent node left.
    parent: u32,
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
        // Reverse: BinaryHeap is a max-heap, we want the closest entry first.
        other.dist.total_cmp(&self.dist)
    }
}

/// What an opened RR-tree node leaves its children: its verdicts on the
/// filter points that existed when it was popped. A best-first walk has no
/// stack discipline, so the lists of every open node stay in two arenas.
struct Inherited {
    /// Routes counted by inside verdicts on the path down to the node.
    routes: Range<usize>,
    /// Filter points that straddle the node's MBR.
    straddlers: Range<usize>,
    /// Filter-set length at the node's pop: points from here on are new to
    /// the subtree and judged from scratch.
    seen: u32,
}

/// `FilterRoute` (Algorithm 2): chooses the filter set by a best-first
/// traversal of the RR-tree, and records the pruned nodes for refinement.
///
/// The per-point half-space test (step 1 of `IsFiltered`) is always used
/// here; the Voronoi enlargement only participates in transition pruning,
/// after the filter set is complete.
///
/// Each heap entry is tested against its parent's straddlers plus the
/// filter points added since the parent was popped, on top of the routes
/// the path above it already counted (module docs, "Inherited verdicts").
pub fn build_filter_set(routes: &RouteStore, query: &[Point], k: usize) -> FilterOutcome {
    let mut filter_set = FilterSet::for_query(query);
    let mut refine_nodes = Vec::new();
    let mut marks = RouteMarks::default();
    let mut walk = Walk::new(k, false, &mut marks);
    let tree = routes.rtree();
    let mut heap = BinaryHeap::new();
    if let Some(root) = tree.root().filter(|_| !query.is_empty()) {
        heap.push(HeapItem {
            dist: min_dist_query_rect(query, &root.mbr()),
            entry: HeapEntry::Node(root.id()),
            parent: 0,
        });
    }
    let mut contexts = vec![Inherited {
        routes: 0..0,
        straddlers: 0..0,
        seen: 0,
    }];
    let (mut route_arena, mut straddler_arena) = (Vec::<RouteId>::new(), Vec::<u32>::new());
    let mut straddling = Vec::new();

    while let Some(item) = heap.pop() {
        let above = &contexts[item.parent as usize];
        let live = straddler_arena[above.straddlers.clone()]
            .iter()
            .copied()
            .chain(above.seen..filter_set.num_points() as u32);
        match item.entry {
            HeapEntry::Node(id) => {
                let Some(node) = tree.node_ref(id) else {
                    continue;
                };
                // The node's own route list starts as a copy of its
                // parent's and grows by what its inside verdicts count.
                let routes_start = route_arena.len();
                route_arena.extend_from_within(above.routes.clone());
                walk.marks.begin_with(&route_arena[routes_start..]);
                straddling.clear();
                if filter_set.rect_is_filtered(
                    &node.mbr(),
                    live,
                    &mut walk,
                    |route| route_arena.push(route),
                    |index| straddling.push(index),
                ) {
                    route_arena.truncate(routes_start);
                    refine_nodes.push(id);
                    continue;
                }
                let straddlers_start = straddler_arena.len();
                straddler_arena.extend_from_slice(&straddling);
                let parent = contexts.len() as u32;
                contexts.push(Inherited {
                    routes: routes_start..route_arena.len(),
                    straddlers: straddlers_start..straddler_arena.len(),
                    seen: filter_set.num_points() as u32,
                });
                if node.is_leaf() {
                    for entry in node.entries() {
                        heap.push(HeapItem {
                            dist: point_route_distance(&entry.point, query),
                            entry: HeapEntry::Stop(entry.data, entry.point),
                            parent,
                        });
                    }
                } else {
                    node.for_each_child(|child| {
                        heap.push(HeapItem {
                            dist: min_dist_query_rect(query, &child.mbr()),
                            entry: HeapEntry::Node(child.id()),
                            parent,
                        });
                    });
                }
            }
            HeapEntry::Stop(stop, point) => {
                walk.marks.begin_with(&route_arena[above.routes.clone()]);
                if filter_set.point_is_filtered(&point, live, &mut walk) {
                    continue;
                }
                filter_set.add(stop, point, routes.crossover(stop));
            }
        }
    }

    let (entries_tested, filter_tests) = (walk.entries_tested, walk.filter_tests);
    filter_set.finalize(&mut marks);
    FilterOutcome {
        filter_set,
        refine_nodes,
        entries_tested,
        filter_tests,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rknnt_rtree::RTreeConfig;

    fn p(x: f64, y: f64) -> Point {
        Point::new(x, y)
    }

    /// A ladder of horizontal routes; the query runs along the middle.
    fn ladder(n_routes: usize) -> RouteStore {
        let routes: Vec<Vec<Point>> = (0..n_routes)
            .map(|i| {
                let y = i as f64 * 10.0;
                (0..8).map(|j| p(j as f64 * 10.0, y)).collect()
            })
            .collect();
        let (store, _) = RouteStore::bulk_build(RTreeConfig::new(8, 3), routes);
        store
    }

    fn mid_query() -> Vec<Point> {
        vec![p(0.0, 45.0), p(30.0, 45.0), p(70.0, 45.0)]
    }

    #[test]
    fn filter_set_is_much_smaller_than_the_route_set() {
        let store = ladder(20);
        let query = mid_query();
        let outcome = build_filter_set(&store, &query, 2);
        assert!(!outcome.filter_set.is_empty());
        assert!(
            outcome.filter_set.num_points() < store.num_stops() / 2,
            "filter set ({}) should be far smaller than the stop set ({})",
            outcome.filter_set.num_points(),
            store.num_stops()
        );
        assert!(outcome.filter_set.num_routes() >= 2);
        // Some far-away RR-tree nodes must have been pruned.
        assert!(!outcome.refine_nodes.is_empty());
    }

    #[test]
    fn filters_rect_is_sound_for_points_inside() {
        let store = ladder(12);
        let query = mid_query();
        let outcome = build_filter_set(&store, &query, 1);
        let fs = &outcome.filter_set;
        // A rectangle hugging the route at y = 0, far from the query at y = 45.
        let rect = Rect::new(p(10.0, -2.0), p(30.0, 2.0));
        for use_voronoi in [false, true] {
            if fs.filters_rect(&rect, 1, use_voronoi) {
                // Soundness: every sampled point of the rect must itself be filtered,
                // i.e. closer to some filter point than to the query.
                for sx in 0..=4 {
                    for sy in 0..=4 {
                        let pt = p(
                            rect.min.x + rect.width() * sx as f64 / 4.0,
                            rect.min.y + rect.height() * sy as f64 / 4.0,
                        );
                        let d_query = point_route_distance(&pt, &query);
                        let closer_exists = store
                            .routes()
                            .any(|r| point_route_distance(&pt, &r.points) <= d_query);
                        assert!(closer_exists);
                    }
                }
            }
        }
    }

    #[test]
    fn region_near_query_is_never_filtered() {
        let store = ladder(12);
        let query = mid_query();
        let outcome = build_filter_set(&store, &query, 1);
        // Points hugging the query route are closer to it than to any route
        // (routes are at y = 40 and y = 50, the query at y = 45).
        let near = p(35.0, 45.0);
        assert!(!outcome.filter_set.filters_point(&near, 1, false));
        assert!(!outcome.filter_set.filters_point(&near, 1, true));
        let near_rect = Rect::new(p(34.0, 44.5), p(36.0, 45.5));
        assert!(!outcome.filter_set.filters_rect(&near_rect, 1, true));
    }

    #[test]
    fn voronoi_filters_at_least_as_much_as_points_alone() {
        let store = ladder(16);
        let query = mid_query();
        let outcome = build_filter_set(&store, &query, 3);
        let fs = &outcome.filter_set;
        for i in 0..20 {
            for j in 0..20 {
                let rect = Rect::new(
                    p(i as f64 * 5.0 - 10.0, j as f64 * 8.0 - 10.0),
                    p(i as f64 * 5.0 - 6.0, j as f64 * 8.0 - 4.0),
                );
                if fs.filters_rect(&rect, 3, false) {
                    assert!(
                        fs.filters_rect(&rect, 3, true),
                        "voronoi step must not lose pruning power for {rect:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn higher_k_needs_more_filter_routes() {
        let store = ladder(20);
        let query = mid_query();
        let k1 = build_filter_set(&store, &query, 1);
        let k10 = build_filter_set(&store, &query, 10);
        assert!(k10.filter_set.num_points() >= k1.filter_set.num_points());
        assert!(k10.filter_set.num_routes() >= k1.filter_set.num_routes());
    }

    #[test]
    fn empty_inputs() {
        let store = RouteStore::default();
        let outcome = build_filter_set(&store, &mid_query(), 2);
        assert!(outcome.filter_set.is_empty());
        assert!(outcome.refine_nodes.is_empty());
        let store = ladder(3);
        let outcome = build_filter_set(&store, &[], 2);
        assert!(outcome.filter_set.is_empty());
        // k = 0 means everything is trivially filtered.
        let outcome = build_filter_set(&store, &mid_query(), 1);
        assert!(outcome.filter_set.filters_point(&p(0.0, 0.0), 0, false));
    }

    #[test]
    fn filter_points_sorted_by_crossover_size() {
        // Two routes crossing at one stop: that stop's crossover has size 2
        // and must come first after finalize.
        let mut store = RouteStore::default();
        store.insert_route(vec![p(0.0, 0.0), p(10.0, 0.0), p(20.0, 0.0)]);
        store.insert_route(vec![p(10.0, -10.0), p(10.0, 0.0), p(10.0, 10.0)]);
        store.insert_route(vec![p(0.0, 30.0), p(20.0, 30.0)]);
        let query = vec![p(0.0, 100.0), p(20.0, 100.0)];
        let outcome = build_filter_set(&store, &query, 3);
        let fs = &outcome.filter_set;
        for i in 1..fs.num_points() {
            assert!(fs.crossover(i - 1).len() >= fs.crossover(i).len());
        }
    }
}
