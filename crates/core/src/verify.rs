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
//! RR-tree walk. Every later judgement is `|Q|` distance evaluations and a
//! count over at most `k` sorted distances: the routes strictly closer than
//! `Q` are a prefix of them. Verification and certificates both *report*
//! that count, capped at `k`, not just the verdict it implies, so a result
//! kept current can store it beside each member and follow a route change by
//! arithmetic.

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

/// The verify half of the Filter–Refine pipeline (`RefineCandidates`): checks
/// every endpoint in the scratch's candidate buffer against the full query,
/// groups the verdicts per transition and combines them under the query's
/// ∃/∀ semantics into a sorted result.
///
/// An endpoint qualifies iff fewer than `k` distinct routes are strictly
/// closer to it than the query is; that count, capped at `k`, stays in the
/// scratch for [`QueryScratch::verified_counts`]. The candidate buffer is
/// whatever [`crate::prune_into_scratch`] calls have appended since the last
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
    let cap = capped(query.k);
    let mut verified_endpoints = 0usize;
    for cand in candidates.iter() {
        let threshold_sq = point_route_distance_sq(&cand.point, &query.route);
        let count = capped(count_closer_routes_sq_scratch(
            routes,
            nlist,
            &cand.point,
            threshold_sq,
            query.k,
            marks,
            node_stack,
        ));
        if count < cap {
            verified_endpoints += 1;
        }
        let counts = per_transition.entry(cand.transition).or_insert([cap; 2]);
        let slot = match cand.kind {
            EndpointKind::Origin => &mut counts[0],
            EndpointKind::Destination => &mut counts[1],
        };
        *slot = (*slot).min(count);
    }
    result.transitions.reserve_exact(per_transition.len());
    for (id, [origin, destination]) in per_transition.iter() {
        let include = match query.semantics {
            Semantics::Exists => *origin < cap || *destination < cap,
            Semantics::ForAll => *origin < cap && *destination < cap,
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

/// A count capped at `k` as the per-endpoint `u32` the verification phase
/// keeps (and a `k` as the cap it is compared against): saturating, so a
/// `k` beyond `u32::MAX` keeps every real count — there are fewer routes
/// than that — below the cap.
pub(crate) fn capped(count: usize) -> u32 {
    u32::try_from(count).unwrap_or(u32::MAX)
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

    /// The verification kernel's count by the certificate walk: the number
    /// of distinct routes with a stop whose squared distance to `u` is
    /// strictly below `threshold_sq`, capped at `limit` — equal to
    /// [`QueryScratch::count_closer_routes_sq`] on the same arguments, but
    /// reading no NList, and stopping at the first stop not strictly closer.
    /// What a maintained result runs for an endpoint it holds no count for.
    /// After warm-up it performs zero heap allocations.
    pub fn count_closer_routes_sq(
        &mut self,
        routes: &RouteStore,
        u: &Point,
        threshold_sq: f64,
        limit: usize,
    ) -> usize {
        let mut count = 0;
        if limit > 0 {
            self.walk_nearest(routes, u, threshold_sq, |_| {
                count += 1;
                count < limit
            });
        }
        count
    }

    /// Best-first walk of the RR-tree from `u`: calls `visit` with the
    /// squared distance of each distinct route nearer than `below`, in
    /// ascending order, until `visit` returns `false` or they run out. A
    /// node's key never exceeds the distance of a stop beneath it, so stops
    /// pop in ascending `distance_sq`, the first stop of a route to pop is
    /// its nearest, and that stop's `distance_sq` is exactly the route's
    /// distance²; nothing keyed at `below` or more is queued.
    fn walk_nearest(
        &mut self,
        routes: &RouteStore,
        u: &Point,
        below: f64,
        mut visit: impl FnMut(f64) -> bool,
    ) {
        let CertificateScratch { heap, marks } = self;
        let tree = routes.rtree();
        let Some(root) = tree.root() else { return };
        marks.begin();
        heap.clear();
        let push = |heap: &mut BinaryHeap<Pending>, dist_sq: f64, item: Item| {
            if dist_sq < below {
                heap.push(Pending { dist_sq, item });
            }
        };
        push(heap, root.mbr().min_dist_sq(u), Item::Node(root.id()));
        while let Some(Pending { dist_sq, item }) = heap.pop() {
            match item {
                Item::Stop(stop) => {
                    for route in routes.crossover(stop) {
                        if marks.mark(*route) && !visit(dist_sq) {
                            return;
                        }
                    }
                }
                Item::Node(id) => {
                    let Some(node) = tree.node_ref(id) else {
                        continue;
                    };
                    for entry in node.entries() {
                        push(heap, entry.point.distance_sq(u), Item::Stop(entry.data));
                    }
                    node.for_each_child(|child| {
                        push(heap, child.mbr().min_dist_sq(u), Item::Node(child.id()))
                    });
                }
            }
        }
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

    /// The number of distinct routes strictly closer to the endpoint than
    /// `threshold_sq` (in practice `dist²(u, Q)`), capped at `k`: the
    /// verification kernel's count, read off the certificate as the prefix
    /// of its sorted distances below the threshold — a route tied with the
    /// query does not count. The cap needs one compare, of the `k`-th
    /// nearest distance; only a count below `k` is searched for. A `k`
    /// larger than the certificate was computed at recomputes it once, at
    /// `k`. `routes` must be the route set every earlier judgement of this
    /// certificate ran against.
    pub fn closer_routes(
        &mut self,
        routes: &RouteStore,
        threshold_sq: f64,
        k: usize,
        scratch: &mut CertificateScratch,
    ) -> usize {
        if k == 0 {
            return 0;
        }
        if self.k < k {
            self.compute(routes, k, scratch);
        }
        let nearest = &self.dist_sq[..self.dist_sq.len().min(k)];
        if nearest.len() == k && nearest[k - 1] < threshold_sq {
            return k;
        }
        nearest.partition_point(|&d| d < threshold_sq)
    }

    /// Fills the certificate at `k` by the best-first walk, stopping at the
    /// `k`-th distinct route. Allocates only the certificate's own storage,
    /// once, when it lacks room for `k`.
    fn compute(&mut self, routes: &RouteStore, k: usize, scratch: &mut CertificateScratch) {
        self.k = k;
        let dist_sq = &mut self.dist_sq;
        dist_sq.clear();
        dist_sq.reserve_exact(k.min(routes.num_routes()));
        scratch.walk_nearest(routes, &self.point, f64::INFINITY, |d| {
            dist_sq.push(d);
            dist_sq.len() < k
        });
    }
}

/// The certificates of a transition's two endpoints: the verification
/// kernel's judgement of the transition, with the RR-tree walks done once
/// per route set instead of once per judgement.
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

    /// Whether the transition belongs to `RkNNT(query_route, k)` under
    /// `semantics` over `routes`, and if so the capped strictly-closer
    /// counts ([`EndpointCertificate::closer_routes`]) of its (origin,
    /// destination): [`verify_candidates`]' judgement, with the ∃ / ∀
    /// short-circuit — an endpoint it never judged reads `k`. `None` when
    /// the transition is not a member; degenerate queries admit nothing.
    /// `routes` must be the route set of every earlier judgement of this
    /// certificate. Judging from computed certificates performs zero heap
    /// allocations.
    pub fn admit(
        &mut self,
        routes: &RouteStore,
        query_route: &[Point],
        k: usize,
        semantics: Semantics,
        scratch: &mut CertificateScratch,
    ) -> Option<[usize; 2]> {
        if query_route.is_empty() {
            return None;
        }
        let points = [self.origin.point, self.destination.point];
        self.admit_at(routes, k, semantics, scratch, |endpoint| {
            point_route_distance_sq(&points[endpoint], query_route)
        })
    }

    /// [`TransitionCertificate::admit`] against a non-degenerate query,
    /// given as `threshold_sq`: the squared distance from an endpoint (0
    /// the origin, 1 the destination) to the query — for a caller that has
    /// some of them already. Asked once per endpoint judged.
    pub fn admit_at(
        &mut self,
        routes: &RouteStore,
        k: usize,
        semantics: Semantics,
        scratch: &mut CertificateScratch,
        mut threshold_sq: impl FnMut(usize) -> f64,
    ) -> Option<[usize; 2]> {
        let mut count = |endpoint: usize, c: &mut EndpointCertificate| {
            c.closer_routes(routes, threshold_sq(endpoint), k, scratch)
        };
        let origin = count(0, &mut self.origin);
        match semantics {
            Semantics::Exists if origin < k => return Some([origin, k]),
            Semantics::ForAll if origin >= k => return None,
            _ => {}
        }
        let destination = count(1, &mut self.destination);
        (destination < k).then_some([origin, destination])
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
    fn counts_decide_qualification() {
        let store = parallel_routes();
        let nlist = NList::build(&store);
        let mut scratch = QueryScratch::new();
        let mut qualifies = |t: &Point, query: &[Point], k: usize| {
            let d = point_route_distance(t, query);
            scratch.count_closer_routes_sq(&store, &nlist, t, d * d, k) < k
        };
        // A query route along y = 45 (between routes at 40 and 50).
        let query = vec![p(0.0, 45.0), p(20.0, 45.0), p(50.0, 45.0)];
        // A point at y = 44: the query is 1 away, routes at y=40 are 4 away.
        assert!(qualifies(&p(25.0, 44.0), &query, 1));
        // A point at y = 10 sits on a route; many routes are closer than the
        // query (which is 35 away), so it does not qualify even for k = 3.
        let far = p(25.0, 10.0);
        assert!(!qualifies(&far, &query, 3));
        // ...but with a large enough k it does.
        assert!(qualifies(&far, &query, store.num_routes() + 1));
    }

    #[test]
    fn certificates_count_strictly_and_combine_like_verification() {
        let store = parallel_routes();
        let mut walk = CertificateScratch::new();
        let mut admit = |query: &[Point], k, semantics, o: Point, d: Point| {
            TransitionCertificate::new(o, d).admit(&store, query, k, semantics, &mut walk)
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
        assert_eq!(
            CertificateScratch::new().count_closer_routes_sq(&store, &tied, 34.0, usize::MAX),
            0
        );
        // ∃ never judges the second endpoint of an admitted transition: it
        // reads `k`. A rejected endpoint reads its count, capped at `k`.
        assert_eq!(admit(&query, 1, Semantics::Exists, tied, far), Some([0, 1]));
        assert_eq!(admit(&query, 1, Semantics::Exists, far, tied), Some([1, 0]));
        assert_eq!(admit(&query, 1, Semantics::ForAll, tied, far), None);
        assert_eq!(
            admit(&query, 1, Semantics::ForAll, tied, tied),
            Some([0, 0])
        );
        assert_eq!(admit(&query, 1, Semantics::Exists, far, far), None);
        // Nudged a hair towards the route, the route is strictly closer.
        let nudged = p(25.0, 42.999);
        assert_eq!(admit(&query, 1, Semantics::Exists, nudged, far), None);
        assert_eq!(
            admit(&query, 2, Semantics::Exists, nudged, far),
            Some([1, 2])
        );
        // Degenerate queries admit nothing.
        assert_eq!(admit(&[], 3, Semantics::Exists, tied, tied), None);
        assert_eq!(admit(&query, 0, Semantics::Exists, tied, tied), None);
        // Certificates, the certificate walk's count and the verification
        // kernel's count agree with the engines on every transition.
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
        let nlist = NList::build(&store);
        let (mut kernel, mut walk) = (QueryScratch::new(), CertificateScratch::new());
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
                    .filter(|t| admit(&q.route, k, semantics, t.origin, t.destination).is_some())
                    .map(|t| t.id)
                    .collect();
                assert_eq!(got, expected, "k={k} {semantics:?}");
                for t in transitions.transitions() {
                    for u in [t.origin, t.destination] {
                        let sq = point_route_distance_sq(&u, &q.route);
                        let counted = kernel.count_closer_routes_sq(&store, &nlist, &u, sq, k);
                        assert_eq!(walk.count_closer_routes_sq(&store, &u, sq, k), counted);
                        assert_eq!(brute_count(&store, &u, sq, k), counted);
                    }
                }
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
