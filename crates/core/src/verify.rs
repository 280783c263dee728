//! Exact verification: counting the distinct routes closer to a candidate
//! point than the query.
//!
//! A transition endpoint `t` takes the query route `Q` as one of its k
//! nearest routes iff fewer than `k` distinct routes of `D_R` are strictly
//! closer to `t` than `Q` is. The verification phase therefore needs, per
//! candidate, the count of distinct closer routes — capped at `k`, because
//! once `k` closer routes are known the candidate is disqualified.
//!
//! The traversal mirrors the paper's use of the `NList` (Section 4.2.3):
//! when a whole RR-tree node is known to be closer than the threshold (its
//! maximum distance to the candidate is below the threshold), all routes
//! listed for that node in the NList are accounted for at once without
//! descending further.
//!
//! A result kept current under churn judges the *same* endpoint against
//! many queries — every cached entry and subscription an arrival reaches.
//! For that the endpoint carries a nearest-route certificate
//! ([`EndpointCertificate`]): the ascending squared distances to its `k`
//! nearest distinct routes, computed once per route set by a best-first
//! RR-tree walk. Every later judgement is `|Q|` distance evaluations and one
//! compare: fewer than `k` routes are strictly closer than `Q` iff the
//! `k`-th nearest is not.

use crate::query::{RknntQuery, RknntResult, Semantics};
use crate::scratch::{QueryScratch, RouteMarks};
use rknnt_geo::{point_route_distance_sq, Point};
use rknnt_index::{EndpointKind, NList, RouteStore, StopId};
use rknnt_rtree::NodeId;
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::time::Instant;

/// The verification kernel: counts the distinct routes with a stop whose
/// squared distance to `t` is strictly below `threshold_sq`, stopping early
/// once `limit` distinct routes have been found; the result is
/// `min(distinct count, limit)`. `nlist` must have been built from the
/// current state of `routes`.
///
/// The threshold is squared, and the engines pass the squared point-route
/// distance to the query, so an exact tie (a stop as far from `t` as the
/// query, e.g. a query point on a stop) is compared without a
/// `sqrt`/re-square round trip that could turn it into "strictly closer".
/// The distinct route set is an epoch-stamped mark table and the traversal
/// reuses the caller's [`NodeId`] stack via
/// [`rknnt_rtree::NodeRef::for_each_child`], so after warm-up the call
/// performs zero heap allocations.
pub(crate) fn count_closer_routes_sq_scratch(
    routes: &RouteStore,
    nlist: &NList,
    t: &Point,
    threshold_sq: f64,
    limit: usize,
    marks: &mut RouteMarks,
    stack: &mut Vec<NodeId>,
) -> usize {
    if limit == 0 {
        return 0;
    }
    let tree = routes.rtree();
    let Some(root) = tree.root() else { return 0 };

    marks.begin();
    stack.clear();
    stack.push(root.id());

    while let Some(id) = stack.pop() {
        if marks.count() >= limit {
            break;
        }
        let Some(node) = tree.node_ref(id) else {
            continue;
        };
        let mbr = node.mbr();
        // Nothing under this node can be closer than the threshold.
        if mbr.min_dist_sq(t) >= threshold_sq {
            continue;
        }
        // Everything under this node is closer: account for all its routes
        // via the NList without descending (the paper's node-level shortcut).
        // The CSR layout returns the node's list as one contiguous slice.
        if mbr.max_dist_sq(t) < threshold_sq {
            for r in nlist.routes_under(id) {
                if marks.mark(*r) && marks.count() >= limit {
                    return limit;
                }
            }
            continue;
        }
        if node.is_leaf() {
            for entry in node.entries() {
                if entry.point.distance_sq(t) < threshold_sq {
                    for r in routes.crossover(entry.data) {
                        if marks.mark(*r) && marks.count() >= limit {
                            return limit;
                        }
                    }
                }
            }
        } else if marks.count() < limit {
            // Invariant guard, not an optimisation: the loop-top check
            // already guarantees `marks.count() < limit` here (every branch
            // that reaches the limit returns immediately). Kept so an edit
            // that adds counting between the top check and this descend
            // cannot silently reintroduce dead traversal.
            node.for_each_child(|child| stack.push(child.id()));
        }
    }
    marks.count().min(limit)
}

/// Convenience predicate: does the point `t` take the query as one of its k
/// nearest routes, given the *squared* threshold `dist²(t, Q)`? Runs on the
/// caller's scratch so the per-candidate verification loop never allocates.
pub(crate) fn qualifies(
    routes: &RouteStore,
    nlist: &NList,
    t: &Point,
    dist_sq_to_query: f64,
    k: usize,
    marks: &mut RouteMarks,
    stack: &mut Vec<NodeId>,
) -> bool {
    count_closer_routes_sq_scratch(routes, nlist, t, dist_sq_to_query, k, marks, stack) < k
}

/// The verify half of the Filter–Refine pipeline (`RefineCandidates`): checks
/// every endpoint in the scratch's candidate buffer against the full query,
/// groups the verdicts per transition and combines them under the query's
/// ∃/∀ semantics into a sorted result.
///
/// An endpoint qualifies iff fewer than `k` distinct routes are strictly
/// closer to it than the query is. The candidate buffer is whatever
/// [`crate::prune_into_scratch`] calls have appended since the last
/// [`QueryScratch::clear_candidates`]; `routes` must be the full route set
/// the answer is defined over (for a sharded caller: the planner-wide store,
/// not a shard's slice). The returned result carries the
/// transitions, the verification time, the candidate / verified / result
/// counts and the work counts of the prune walks that filled the buffer —
/// the caller adds its own filter-phase time and counters. After
/// the scratch is warmed the per-candidate path performs zero heap
/// allocations.
pub fn verify_candidates(
    routes: &RouteStore,
    query: &RknntQuery,
    scratch: &mut QueryScratch,
) -> RknntResult {
    let nlist = routes.nlist();
    let QueryScratch {
        marks,
        node_stack,
        candidates,
        per_transition,
        entries_tested,
        filter_tests,
        ..
    } = scratch;
    let started = Instant::now();
    let mut result = RknntResult::default();
    per_transition.clear();
    let mut verified_endpoints = 0usize;
    for cand in candidates.iter() {
        let threshold_sq = point_route_distance_sq(&cand.point, &query.route);
        let ok = qualifies(
            routes,
            nlist,
            &cand.point,
            threshold_sq,
            query.k,
            marks,
            node_stack,
        );
        if ok {
            verified_endpoints += 1;
        }
        let entry = per_transition
            .entry(cand.transition)
            .or_insert((false, false));
        match cand.kind {
            EndpointKind::Origin => entry.0 |= ok,
            EndpointKind::Destination => entry.1 |= ok,
        }
    }
    result.transitions.reserve_exact(per_transition.len());
    for (id, (origin_ok, dest_ok)) in per_transition.iter() {
        let include = match query.semantics {
            Semantics::Exists => *origin_ok || *dest_ok,
            Semantics::ForAll => *origin_ok && *dest_ok,
        };
        if include {
            result.transitions.push(*id);
        }
    }
    result.transitions.sort_unstable();
    result.timings.verification = started.elapsed();
    result.stats.candidate_endpoints = candidates.len();
    result.stats.verified_endpoints = verified_endpoints;
    result.stats.result_transitions = result.transitions.len();
    result.stats.entries_tested = *entries_tested;
    result.stats.filter_tests = *filter_tests;
    result
}

/// The exact admission kernel: does a transition with these two endpoints
/// belong to `RkNNT(query_route, k)` under `semantics`, against the current
/// `routes`?
///
/// By Definition 5 membership depends only on the transition's own endpoints
/// and the route set, so a maintained result follows a route insert exactly
/// by re-running this check on the members the new route comes strictly
/// closer to — no re-execution. Transition churn is judged by the same
/// contract through a [`TransitionCertificate`], which walks the RR-tree
/// once per route set instead of once per judgement.
/// Each endpoint is judged by the same `qualifies` call
/// [`verify_candidates`] makes (fewer than `k` distinct routes *strictly*
/// closer than the query; a route tied with the query does not count) and
/// the two verdicts combine under ∃/∀ as there. Degenerate queries admit
/// nothing. After the scratch is warmed the call performs zero heap
/// allocations.
pub fn admits_transition(
    routes: &RouteStore,
    query_route: &[Point],
    k: usize,
    semantics: Semantics,
    origin: &Point,
    destination: &Point,
    scratch: &mut QueryScratch,
) -> bool {
    if k == 0 || query_route.is_empty() {
        return false;
    }
    let nlist = routes.nlist();
    let QueryScratch {
        marks, node_stack, ..
    } = scratch;
    let mut ok = |u: &Point| {
        let threshold_sq = point_route_distance_sq(u, query_route);
        qualifies(routes, nlist, u, threshold_sq, k, marks, node_stack)
    };
    match semantics {
        Semantics::Exists => ok(origin) || ok(destination),
        Semantics::ForAll => ok(origin) && ok(destination),
    }
}

/// One entry of the certificate walk's queue: an RR-tree node keyed by its
/// MBR's `min_dist_sq` to the endpoint, or a stop keyed by its exact
/// `distance_sq`. Ordered so that [`BinaryHeap`] (a max-heap) pops the
/// smallest key first.
#[derive(Debug, Clone, Copy)]
struct Pending {
    dist_sq: f64,
    item: Item,
}

#[derive(Debug, Clone, Copy)]
enum Item {
    Node(NodeId),
    Stop(StopId),
}

impl Ord for Pending {
    fn cmp(&self, other: &Self) -> Ordering {
        other.dist_sq.total_cmp(&self.dist_sq)
    }
}

impl PartialOrd for Pending {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Pending {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Pending {}

/// Reusable buffers of the certificate walk: its best-first queue and its
/// distinct-route marks. Kept apart from [`QueryScratch`], which the
/// engines' query path carries and never walks this way. Threaded by `&mut`
/// like `QueryScratch`; after warm-up a walk allocates nothing of its own.
#[derive(Debug, Default)]
pub struct CertificateScratch {
    heap: BinaryHeap<Pending>,
    marks: RouteMarks,
}

impl CertificateScratch {
    /// Empty buffers; they grow to steady state over the first walks.
    pub fn new() -> Self {
        Self::default()
    }
}

/// The nearest-route certificate of one transition endpoint `u`: the
/// ascending squared distances from `u` to its `k` nearest distinct routes
/// (all of them when the store holds fewer). It depends on `u` and the
/// route set alone, so one certificate judges `u` against every query until
/// the routes change; keeping it valid across a route change is the
/// caller's business.
#[derive(Debug, Clone)]
pub struct EndpointCertificate {
    point: Point,
    /// The `k` the distances were computed at; 0 until first computed.
    k: usize,
    dist_sq: Vec<f64>,
}

impl EndpointCertificate {
    /// The certificate of `point`, not yet computed: the first judgement
    /// computes it.
    pub fn new(point: Point) -> Self {
        EndpointCertificate {
            point,
            k: 0,
            dist_sq: Vec::new(),
        }
    }

    /// Whether the endpoint takes `query_route` as one of its `k` nearest
    /// routes over `routes`: fewer than `k` distinct routes strictly closer
    /// than the query. That holds iff there are fewer than `k` routes or
    /// the `k`-th nearest is not strictly closer, `dist_sq[k-1] >=
    /// dist²(u, Q)` — the contrapositive of [`admits_transition`]'s count
    /// over the same squared values, so a route tied with `Q` does not
    /// count. A `k` larger than the certificate was computed at recomputes
    /// it once, at `k`. `routes` must be the route set every earlier
    /// judgement of this certificate ran against.
    pub fn qualifies(
        &mut self,
        routes: &RouteStore,
        query_route: &[Point],
        k: usize,
        scratch: &mut CertificateScratch,
    ) -> bool {
        if k == 0 {
            return false;
        }
        if self.k < k {
            self.compute(routes, k, scratch);
        }
        let threshold_sq = point_route_distance_sq(&self.point, query_route);
        self.dist_sq.len() < k || self.dist_sq[k - 1] >= threshold_sq
    }

    /// Fills the certificate at `k` by a best-first walk of the RR-tree: a
    /// node's key never exceeds the distance of a stop beneath it, so stops
    /// pop in ascending `distance_sq`, the first stop of a route to pop is
    /// its nearest, and that stop's `distance_sq` is exactly the route's
    /// distance². The walk stops at the `k`-th distinct route. Allocates
    /// only the certificate's own storage, once, when it lacks room for `k`.
    fn compute(&mut self, routes: &RouteStore, k: usize, scratch: &mut CertificateScratch) {
        let CertificateScratch { heap, marks } = scratch;
        let u = self.point;
        self.k = k;
        self.dist_sq.clear();
        self.dist_sq.reserve_exact(k.min(routes.num_routes()));
        let tree = routes.rtree();
        let Some(root) = tree.root() else { return };
        marks.begin();
        heap.clear();
        heap.push(Pending {
            dist_sq: root.mbr().min_dist_sq(&u),
            item: Item::Node(root.id()),
        });
        while let Some(Pending { dist_sq, item }) = heap.pop() {
            match item {
                Item::Stop(stop) => {
                    for route in routes.crossover(stop) {
                        if marks.mark(*route) {
                            self.dist_sq.push(dist_sq);
                            if self.dist_sq.len() == k {
                                return;
                            }
                        }
                    }
                }
                Item::Node(id) => {
                    let Some(node) = tree.node_ref(id) else {
                        continue;
                    };
                    for entry in node.entries() {
                        heap.push(Pending {
                            dist_sq: entry.point.distance_sq(&u),
                            item: Item::Stop(entry.data),
                        });
                    }
                    node.for_each_child(|child| {
                        heap.push(Pending {
                            dist_sq: child.mbr().min_dist_sq(&u),
                            item: Item::Node(child.id()),
                        })
                    });
                }
            }
        }
    }
}

/// The certificates of a transition's two endpoints: [`admits_transition`]
/// with the RR-tree walks done once per route set instead of once per
/// judgement.
#[derive(Debug, Clone)]
pub struct TransitionCertificate {
    origin: EndpointCertificate,
    destination: EndpointCertificate,
}

impl TransitionCertificate {
    /// The (not yet computed) certificate of the transition `origin →
    /// destination`.
    pub fn new(origin: Point, destination: Point) -> Self {
        TransitionCertificate {
            origin: EndpointCertificate::new(origin),
            destination: EndpointCertificate::new(destination),
        }
    }

    /// The transition's origin and destination.
    pub fn endpoints(&self) -> (Point, Point) {
        (self.origin.point, self.destination.point)
    }

    /// [`admits_transition`]'s exact contract — each endpoint judged by
    /// [`EndpointCertificate::qualifies`], the verdicts combined under ∃/∀
    /// with the same short-circuit, degenerate queries admitting nothing —
    /// against `routes`, which must be the route set of every earlier
    /// judgement of this certificate. Judging from computed certificates
    /// performs zero heap allocations.
    pub fn admits(
        &mut self,
        routes: &RouteStore,
        query_route: &[Point],
        k: usize,
        semantics: Semantics,
        scratch: &mut CertificateScratch,
    ) -> bool {
        if query_route.is_empty() {
            return false;
        }
        let mut ok = |c: &mut EndpointCertificate| c.qualifies(routes, query_route, k, scratch);
        match semantics {
            Semantics::Exists => ok(&mut self.origin) || ok(&mut self.destination),
            Semantics::ForAll => ok(&mut self.origin) && ok(&mut self.destination),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rknnt_geo::point_route_distance;
    use rknnt_rtree::RTreeConfig;

    fn p(x: f64, y: f64) -> Point {
        Point::new(x, y)
    }

    /// Parallel horizontal routes at y = 0, 10, 20, ..., 90.
    fn parallel_routes() -> RouteStore {
        let routes: Vec<Vec<Point>> = (0..10)
            .map(|i| {
                let y = i as f64 * 10.0;
                (0..6).map(|j| p(j as f64 * 10.0, y)).collect()
            })
            .collect();
        let (store, _) = RouteStore::bulk_build(RTreeConfig::new(8, 3), routes);
        store
    }

    /// The definition: routes whose squared distance to `t` is strictly
    /// below `threshold_sq`, capped at `limit`.
    fn brute_count(store: &RouteStore, t: &Point, threshold_sq: f64, limit: usize) -> usize {
        store
            .routes()
            .filter(|r| point_route_distance_sq(t, &r.points) < threshold_sq)
            .count()
            .min(limit)
    }

    #[test]
    fn counts_match_brute_force() {
        let store = parallel_routes();
        let nlist = NList::build(&store);
        let mut scratch = QueryScratch::new();
        let probes = [
            p(25.0, 5.0),
            p(25.0, 12.0),
            p(-10.0, 50.0),
            p(100.0, 100.0),
            p(25.0, 45.0),
        ];
        for t in probes {
            // 10 is exactly the distance from (-10, 50) to the stop (0, 50).
            for threshold in [1.0f64, 6.0, 10.0, 11.0, 26.0, 200.0] {
                for limit in [0usize, 1, 3, usize::MAX] {
                    let sq = threshold * threshold;
                    let got = scratch.count_closer_routes_sq(&store, &nlist, &t, sq, limit);
                    assert_eq!(
                        got,
                        brute_count(&store, &t, sq, limit),
                        "t = {t}, threshold = {threshold}, limit = {limit}"
                    );
                }
            }
        }
    }

    #[test]
    fn limit_caps_the_count() {
        let store = parallel_routes();
        let nlist = NList::build(&store);
        let mut scratch = QueryScratch::new();
        let mut count =
            |limit| scratch.count_closer_routes_sq(&store, &nlist, &p(25.0, 45.0), 1e12, limit);
        // With a huge threshold every route is closer; limit caps the answer.
        assert_eq!(count(3), 3);
        assert_eq!(count(0), 0);
        assert_eq!(count(usize::MAX), store.num_routes());
    }

    #[test]
    fn qualifies_matches_definition() {
        let store = parallel_routes();
        let nlist = NList::build(&store);
        let (mut marks, mut stack) = (RouteMarks::default(), Vec::new());
        let mut q = |t: &Point, d_sq: f64, k: usize| {
            qualifies(&store, &nlist, t, d_sq, k, &mut marks, &mut stack)
        };
        // A query route along y = 45 (between routes at 40 and 50).
        let query = vec![p(0.0, 45.0), p(20.0, 45.0), p(50.0, 45.0)];
        // A point at y = 44: the query is 1 away, routes at y=40 are 4 away.
        let close = p(25.0, 44.0);
        let d = point_route_distance(&close, &query);
        assert!(q(&close, d * d, 1));
        // A point at y = 10 sits on a route; many routes are closer than the
        // query (which is 35 away), so it does not qualify even for k = 3.
        let far = p(25.0, 10.0);
        let d_far = point_route_distance(&far, &query);
        assert!(!q(&far, d_far * d_far, 3));
        // ...but with a large enough k it does.
        assert!(q(&far, d_far * d_far, store.num_routes() + 1));
    }

    #[test]
    fn admission_is_strict_at_ties_and_combines_like_verification() {
        let store = parallel_routes();
        let mut scratch = crate::QueryScratch::new();
        let mut admits = |query: &[Point], k, semantics, o: Point, d: Point| {
            admits_transition(&store, query, k, semantics, &o, &d, &mut scratch)
        };
        // The endpoint (25, 43) is at distance² 34 from the nearest stops of
        // the y = 40 route, (20, 40) and (30, 40), and at distance² 25 + 9 =
        // 34 from the one-vertex query (30, 46): an exact tie.
        let query = [p(30.0, 46.0)];
        let tied = p(25.0, 43.0);
        let far = p(25.0, 10.0); // on a route, many routes closer
        assert_eq!(
            QueryScratch::new().count_closer_routes_sq(
                &store,
                &NList::build(&store),
                &tied,
                34.0,
                usize::MAX
            ),
            0,
            "the tied route is not strictly closer"
        );
        assert!(admits(&query, 1, Semantics::Exists, tied, far));
        assert!(admits(&query, 1, Semantics::Exists, far, tied));
        assert!(!admits(&query, 1, Semantics::ForAll, tied, far));
        assert!(admits(&query, 1, Semantics::ForAll, tied, tied));
        assert!(!admits(&query, 1, Semantics::Exists, far, far));
        // Nudged a hair towards the route, the route is strictly closer.
        let nudged = p(25.0, 42.999);
        assert!(!admits(&query, 1, Semantics::Exists, nudged, far));
        assert!(admits(&query, 2, Semantics::Exists, nudged, far));
        // Degenerate queries admit nothing.
        assert!(!admits(&[], 3, Semantics::Exists, tied, tied));
        assert!(!admits(&query, 0, Semantics::Exists, tied, tied));
        // The kernel agrees with the engines on every transition of a store.
        let mut transitions = rknnt_index::TransitionStore::default();
        for i in 0..60u32 {
            let o = p((i as f64 * 7.3) % 50.0, (i as f64 * 13.7) % 90.0);
            let d = p(
                (i as f64 * 3.1 + 11.0) % 50.0,
                (i as f64 * 17.9 + 23.0) % 90.0,
            );
            transitions.insert(o, d).unwrap();
        }
        let oracle = crate::BruteForceEngine::new(&store, &transitions);
        for semantics in [Semantics::Exists, Semantics::ForAll] {
            for k in [1usize, 2, 4] {
                let q = RknntQuery {
                    route: vec![p(5.0, 44.0), p(25.0, 46.0), p(45.0, 44.0)],
                    k,
                    semantics,
                };
                let expected = crate::RknnTEngine::execute(&oracle, &q).transitions;
                let got: Vec<_> = transitions
                    .transitions()
                    .filter(|t| admits(&q.route, k, semantics, t.origin, t.destination))
                    .map(|t| t.id)
                    .collect();
                assert_eq!(got, expected, "k={k} {semantics:?}");
            }
        }
    }

    #[test]
    fn empty_store_counts_zero() {
        let store = RouteStore::default();
        let nlist = NList::build(&store);
        assert_eq!(
            QueryScratch::new().count_closer_routes_sq(&store, &nlist, &p(0.0, 0.0), 100.0, 5),
            0
        );
    }
}
