//! Per-result maintenance evidence: how a cached result or a standing
//! query's result is kept current under store churn.
//!
//! Every cached result and every subscription carries an [`EntryRegion`]:
//! the query, the [`FilterFootprint`] its filter step recorded and the MBR of
//! its result endpoints. Two facts of this workspace make that enough:
//!
//! 1. A transition's membership in a result depends only on its own two
//!    endpoints and the route set (Definition 5). **Transition churn is
//!    therefore applied to the result, exactly, one op at a time**
//!    (`EntryRegion::replay`) — nothing is evicted or recomputed.
//! 2. Route *insertion* only adds "strictly closer" witnesses, so results
//!    can only shrink; route *removal* only removes witnesses, so results
//!    can only grow. All distances are the vertex distance of Definition 3,
//!    so the [`FilterFootprint`] witness certificate exactly mirrors the
//!    strict comparisons the verification phase performs (see
//!    `rknnt_core::footprint`). **Route churn is certified**: a result is
//!    kept when a sound test proves it unchanged and dropped (or
//!    re-executed) otherwise.
//!
//! Per update kind:
//!
//! * **Transition arrival `(o, d)`** — the result gains the new transition
//!   iff it qualifies. The footprint certificate is the cheap pre-test (≥ k
//!   still-live routes certified strictly closer at the endpoints that
//!   matter ⇒ it does not); otherwise the exact admission kernel
//!   ([`rknnt_core::admits_transition`]) decides, and an admitted id is
//!   inserted in place, growing the recorded result MBR and reach.
//! * **Transition expiry** — removes exactly that id if it is a member
//!   (qualification of other transitions depends only on routes). The
//!   recorded MBR is left as is: a superset only makes the route-insert
//!   test below more conservative.
//! * **Route insert** — can only evict transitions *from* results, which
//!   requires the new route to come strictly closer than the query to some
//!   recorded result endpoint. Keep the entry when the route's MBR stays at
//!   least [`EntryRegion::result_reach`] away from the recorded
//!   result-endpoint MBR.
//! * **Route removal** — results can grow anywhere the removed route was a
//!   load-bearing witness, which no bounded record rules out *a priori* (with
//!   k = 1 and a single far-away route, its removal changes answers
//!   arbitrarily far from the query). The universe of points that can enter
//!   a result is finite, though — the live transition endpoints — so
//!   [`EntryRegion::survives_route_remove`] walks the TR-tree, prunes every
//!   node provably outside the removed route's dominance region over the
//!   query, and re-certifies the few endpoints inside it against the
//!   footprint with the removed route excluded. Entries that cannot be
//!   certified within a work budget are evicted; when the budget runs out
//!   entirely the service falls back to the full cache drop.
//!
//! A lazily maintained (cached) result may be brought current *after* a
//! route change, against the post-change route set; the soundness argument
//! is with `ResultCache::catch_up_all`.

use crate::journal::TransitionOp;
use rknnt_core::{
    admits_transition, FilterFootprint, QueryScratch, RknntQuery, RknntResult, Semantics,
};
use rknnt_geo::{point_route_distance_sq, Point, Rect};
use rknnt_index::{RouteId, RouteStore, TransitionId, TransitionStore};
use std::sync::Arc;

/// The maintenance evidence recorded with one result; see the module
/// documentation for the rules.
#[derive(Debug, Clone)]
pub struct EntryRegion {
    /// The query route (vertex list) the entry answers.
    pub query_points: Vec<Point>,
    /// The query's `k`.
    pub k: usize,
    /// The query's semantics.
    pub semantics: Semantics,
    /// Footprint of the filter the query ran against (empty for a
    /// degenerate query, which builds no filter and is never maintained).
    pub footprint: Arc<FilterFootprint>,
    /// An MBR covering both endpoints of every transition in the result
    /// ([`Rect::empty`] for a result that never had a member); expiries do
    /// not shrink it.
    pub result_rect: Rect,
    /// Upper bound on the vertex distance from any point of
    /// [`EntryRegion::result_rect`] to the query route (0 for an empty
    /// result).
    pub result_reach: f64,
}

impl EntryRegion {
    /// Builds the region for a freshly computed result, recording the
    /// result-endpoint MBR and its reach bound. Endpoints are resolved
    /// through `lookup` rather than one [`TransitionStore`] so the same code
    /// serves results whose transitions live across many shard-local
    /// stores (the router resolves each global id through its directory).
    pub fn record_with<F>(
        query: &RknntQuery,
        result: &RknntResult,
        footprint: Arc<FilterFootprint>,
        lookup: F,
    ) -> Self
    where
        F: Fn(TransitionId) -> Option<(Point, Point)>,
    {
        let mut result_rect = Rect::empty();
        for id in &result.transitions {
            if let Some((origin, destination)) = lookup(*id) {
                result_rect.expand_to_point(&origin);
                result_rect.expand_to_point(&destination);
            }
        }
        let mut region = EntryRegion {
            query_points: query.route.clone(),
            k: query.k,
            semantics: query.semantics,
            footprint,
            result_rect,
            result_reach: 0.0,
        };
        region.update_reach();
        region
    }

    /// Recomputes [`EntryRegion::result_reach`] for the current
    /// [`EntryRegion::result_rect`]: for the query vertex `q` minimising it,
    /// every point of the rectangle is within `max_dist(rect, q)`.
    fn update_reach(&mut self) {
        self.result_reach = if self.result_rect.is_empty() {
            0.0
        } else {
            self.query_points
                .iter()
                .map(|q| self.result_rect.max_dist(q))
                .fold(f64::INFINITY, f64::min)
        };
    }

    /// Applies one journalled transition op to `result` — the sorted id list
    /// this region describes — and reports whether the result changed.
    ///
    /// Exact against `routes` (see the module documentation): an arrival
    /// enters iff it qualifies, decided by the footprint certificate when it
    /// can rule the transition out and by the admission kernel otherwise; an
    /// expiry leaves iff it is a member. `routes` must be the route set the
    /// op is to be judged against — the current one.
    pub(crate) fn replay(
        &mut self,
        result: &mut Vec<TransitionId>,
        op: &TransitionOp,
        routes: &RouteStore,
        scratch: &mut QueryScratch,
    ) -> bool {
        match op {
            TransitionOp::Arrived {
                id,
                origin,
                destination,
            } => {
                if self.survives_transition_insert(routes, origin, destination)
                    || !admits_transition(
                        routes,
                        &self.query_points,
                        self.k,
                        self.semantics,
                        origin,
                        destination,
                        scratch,
                    )
                {
                    return false;
                }
                let Err(pos) = result.binary_search(id) else {
                    return false;
                };
                result.insert(pos, *id);
                self.result_rect.expand_to_point(origin);
                self.result_rect.expand_to_point(destination);
                self.update_reach();
                true
            }
            TransitionOp::Expired(id) => match result.binary_search(id) {
                Ok(pos) => {
                    result.remove(pos);
                    true
                }
                Err(_) => false,
            },
        }
    }

    /// Whether the entry's query is degenerate (its result is the constant
    /// empty set, immune to store churn).
    fn is_degenerate(&self) -> bool {
        self.k == 0 || self.query_points.is_empty()
    }

    /// Whether the result provably survives inserting a transition with the
    /// given endpoints — the certificate in front of the exact admission
    /// check: `true` proves the transition does not qualify, `false` proves
    /// nothing.
    pub fn survives_transition_insert(
        &self,
        routes: &RouteStore,
        origin: &Point,
        destination: &Point,
    ) -> bool {
        if self.is_degenerate() {
            return true;
        }
        let live = |r| routes.route(r).is_some();
        // One covering buffer for both endpoint certificates.
        let mut covering = Vec::new();
        let mut covered = |u: &Point| {
            self.footprint
                .covers_point_with(&self.query_points, u, self.k, live, &mut covering)
        };
        match self.semantics {
            // ∃: the transition qualifies if either endpoint does, so both
            // must be certified disqualified.
            Semantics::Exists => covered(origin) && covered(destination),
            // ∀: both endpoints must qualify, so one certificate suffices.
            Semantics::ForAll => covered(origin) || covered(destination),
        }
    }

    /// Whether the cached result provably survives inserting a route whose
    /// points have the given MBR: results only shrink on route insertion,
    /// and they shrink only if the new route comes strictly closer than the
    /// query to a recorded result endpoint — impossible when the route stays
    /// `result_reach` away from the result-endpoint MBR.
    pub fn survives_route_insert(&self, route_mbr: &Rect) -> bool {
        if self.result_rect.is_empty() {
            return true;
        }
        self.result_rect.min_dist_rect(route_mbr) >= self.result_reach
    }

    /// Whether the cached result (`result`, sorted ids) provably survives
    /// removing the route `removed`, whose points were `removed_points`.
    ///
    /// Soundness argument: removing a route only *removes* closer-route
    /// witnesses, so per-endpoint closer-counts only decrease and
    /// qualification can only flip from "no" to "yes" — results only grow,
    /// and every transition already in the result stays. A transition
    /// *enters* only if some live endpoint `u` flips, which requires the
    /// removed route to have been strictly closer to `u` than the query is
    /// (otherwise `u`'s count is unchanged) *and* `u`'s remaining count to
    /// drop below `k`. This method therefore walks the TR-tree over the
    /// (finite) live endpoints, prunes every node where the removed route is
    /// provably never strictly closer than the query, and for each surviving
    /// endpoint not already in the result demands the footprint certify `k`
    /// still-live routes — the removed one excluded — strictly closer than
    /// the query. If every such endpoint is certified, no qualification flips
    /// in either direction and the result is unchanged under both semantics.
    ///
    /// `budget` bounds the work (units: nodes visited + endpoints tested +
    /// witnesses scanned); it is decremented in place and the method returns
    /// `false` (evict — always sound) once it reaches zero, letting the
    /// caller share one budget across many entries and fall back to a full
    /// drop when the scan is not paying for itself.
    pub fn survives_route_remove(
        &self,
        routes: &RouteStore,
        transitions: &TransitionStore,
        result: &[TransitionId],
        removed: RouteId,
        removed_points: &[Point],
        budget: &mut usize,
    ) -> bool {
        if self.is_degenerate() {
            return true;
        }
        if removed_points.is_empty() {
            // A route with no points is infinitely far from everything and
            // can never have been a closer-route witness.
            return true;
        }
        let tree = transitions.rtree();
        let Some(root) = tree.root() else {
            return true;
        };
        let live = |r: RouteId| r != removed && routes.route(r).is_some();
        // NodeId stack + `for_each_child` instead of a `Vec<NodeRef>` per
        // internal node, and one covering buffer reused across every
        // endpoint certificate: the scan allocates O(1) per entry checked.
        let mut covering: Vec<RouteId> = Vec::new();
        let mut stack = vec![root.id()];
        while let Some(id) = stack.pop() {
            if *budget == 0 {
                return false;
            }
            *budget -= 1;
            let Some(node) = tree.node_ref(id) else {
                continue;
            };
            let mbr = node.mbr();
            // Lower bound on dist²(u, removed route) over all u in the node…
            let removed_lb = removed_points
                .iter()
                .map(|p| mbr.min_dist_sq(p))
                .fold(f64::INFINITY, f64::min);
            // …and upper bound on dist²(u, Q): every u is within
            // max_dist(mbr, q) of the query vertex q minimising it.
            let query_ub = self
                .query_points
                .iter()
                .map(|q| mbr.max_dist_sq(q))
                .fold(f64::INFINITY, f64::min);
            if removed_lb >= query_ub {
                // The removed route is never strictly closer than the query
                // anywhere under this node: no endpoint here can flip.
                continue;
            }
            if !node.is_leaf() {
                node.for_each_child(|child| stack.push(child.id()));
                continue;
            }
            for entry in node.entries() {
                if *budget == 0 {
                    return false;
                }
                *budget -= 1;
                let u = &entry.point;
                let query_sq = point_route_distance_sq(u, &self.query_points);
                if point_route_distance_sq(u, removed_points) >= query_sq {
                    continue; // the removed route was not strictly closer
                }
                if result.binary_search(&entry.data.transition).is_ok() {
                    continue; // already in the result; results only grow
                }
                *budget = budget.saturating_sub(self.footprint.witnesses.len());
                if !self.footprint.covers_point_with(
                    &self.query_points,
                    u,
                    self.k,
                    live,
                    &mut covering,
                ) {
                    return false;
                }
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rknnt_index::{TransitionId, TransitionStore};

    fn p(x: f64, y: f64) -> Point {
        Point::new(x, y)
    }

    fn record(
        query: &RknntQuery,
        result: &RknntResult,
        footprint: Arc<FilterFootprint>,
        transitions: &TransitionStore,
    ) -> EntryRegion {
        EntryRegion::record_with(query, result, footprint, |id| {
            transitions.get(id).map(|t| (t.origin, t.destination))
        })
    }

    fn entry_with_result(result_ids: &[u32]) -> (EntryRegion, RknntResult) {
        let query = RknntQuery::exists(vec![p(0.0, 0.0), p(10.0, 0.0)], 2);
        let mut transitions = TransitionStore::default();
        let a = transitions.insert(p(1.0, 1.0), p(9.0, 1.0)).unwrap();
        let b = transitions.insert(p(2.0, 2.0), p(8.0, 2.0)).unwrap();
        let mut result = RknntResult::default();
        for id in result_ids {
            assert!([a, b].contains(&TransitionId(*id)));
            result.transitions.push(TransitionId(*id));
        }
        result.transitions.sort_unstable();
        // Computed against no routes: a footprint without witnesses.
        let footprint = FilterFootprint::compute(&RouteStore::default(), &query.route, query.k);
        let region = record(&query, &result, Arc::new(footprint), &transitions);
        (region, result)
    }

    #[test]
    fn replayed_expiry_removes_exactly_a_member_and_keeps_the_rect() {
        let (mut region, result) = entry_with_result(&[0, 1]);
        let mut ids = result.transitions;
        let (routes, mut scratch) = (RouteStore::default(), QueryScratch::new());
        let rect = region.result_rect;
        let mut expire = |ids: &mut Vec<TransitionId>, id| {
            region.replay(
                ids,
                &TransitionOp::Expired(TransitionId(id)),
                &routes,
                &mut scratch,
            )
        };
        assert!(!expire(&mut ids, 999));
        assert!(expire(&mut ids, 0));
        assert!(!expire(&mut ids, 0), "already gone");
        assert_eq!(ids, vec![TransitionId(1)]);
        assert_eq!(region.result_rect, rect, "a sound superset");
    }

    #[test]
    fn replayed_arrival_enters_iff_it_qualifies_and_grows_the_region() {
        let (routes, transitions, query) = ladder_world();
        let mut region = recorded_region(&routes, &transitions, &query, &[]);
        let mut scratch = QueryScratch::new();
        let mut ids = Vec::new();
        let mut arrive = |ids: &mut Vec<TransitionId>, id, origin, destination| {
            let op = TransitionOp::Arrived {
                id: TransitionId(id),
                origin,
                destination,
            };
            let entered = region.replay(ids, &op, &routes, &mut scratch);
            (entered, region.result_rect, region.result_reach)
        };
        // On a rung far from the query: two routes strictly closer, k = 2.
        let (entered, rect, reach) = arrive(&mut ids, 7, p(30.0, 0.0), p(40.0, 70.0));
        assert!(!entered);
        assert!(rect.is_empty());
        assert_eq!(reach, 0.0);
        // Hugging the query: enters, and the region now covers it.
        let (entered, rect, reach) = arrive(&mut ids, 9, p(34.0, 36.0), p(36.0, 34.0));
        assert!(entered);
        assert!(rect.contains_point(&p(34.0, 36.0)) && rect.contains_point(&p(36.0, 34.0)));
        assert!(reach > 0.0);
        // Ids stay sorted whatever order ops arrive in; a replayed
        // duplicate is a no-op.
        let (entered, ..) = arrive(&mut ids, 3, p(35.0, 35.5), p(35.5, 35.0));
        assert!(entered);
        assert_eq!(ids, vec![TransitionId(3), TransitionId(9)]);
        let (entered, ..) = arrive(&mut ids, 3, p(35.0, 35.5), p(35.5, 35.0));
        assert!(!entered);
        // With a witness-free footprint the kernel alone decides — same
        // verdicts.
        let mut bare = recorded_region(&RouteStore::default(), &transitions, &query, &[]);
        let mut bare_ids = Vec::new();
        let op = TransitionOp::Arrived {
            id: TransitionId(9),
            origin: p(34.0, 36.0),
            destination: p(36.0, 34.0),
        };
        assert!(bare.replay(&mut bare_ids, &op, &routes, &mut scratch));
        let op = TransitionOp::Arrived {
            id: TransitionId(7),
            origin: p(30.0, 0.0),
            destination: p(40.0, 70.0),
        };
        assert!(!bare.replay(&mut bare_ids, &op, &routes, &mut scratch));
    }

    /// A ladder world for the route-removal certificate: horizontal routes
    /// at y = 0, 10, …, 70 and a query along y = 35.
    fn ladder_world() -> (RouteStore, TransitionStore, RknntQuery) {
        let mut routes = RouteStore::default();
        for i in 0..8 {
            let y = i as f64 * 10.0;
            routes
                .insert_route((0..8).map(|j| p(j as f64 * 10.0, y)).collect())
                .unwrap();
        }
        let query = RknntQuery::exists(vec![p(5.0, 35.0), p(35.0, 35.0), p(65.0, 35.0)], 2);
        (routes, TransitionStore::default(), query)
    }

    fn recorded_region(
        routes: &RouteStore,
        transitions: &TransitionStore,
        query: &RknntQuery,
        result: &[TransitionId],
    ) -> EntryRegion {
        let footprint = Arc::new(FilterFootprint::compute(routes, &query.route, query.k));
        let value = RknntResult {
            transitions: result.to_vec(),
            ..RknntResult::default()
        };
        record(query, &value, footprint, transitions)
    }

    #[test]
    fn route_remove_far_from_endpoints_is_survived() {
        let (mut routes, mut transitions, query) = ladder_world();
        // One endpoint pair near the query; the removed route is the ladder
        // top (y = 70), far from both the query and every endpoint, and the
        // middle rungs keep every endpoint covered without it.
        let near = transitions.insert(p(34.0, 36.0), p(36.0, 34.0)).unwrap();
        let region = recorded_region(&routes, &transitions, &query, &[near]);
        let removed = RouteId(7);
        let removed_points: Vec<Point> = routes.route_points(removed).to_vec();
        assert!(routes.remove_route(removed));
        let mut budget = 100_000usize;
        assert!(
            region.survives_route_remove(
                &routes,
                &transitions,
                &[near],
                removed,
                &removed_points,
                &mut budget,
            ),
            "removing a far rung is certified harmless"
        );
        assert!(budget > 0);
    }

    #[test]
    fn route_remove_uncovered_endpoint_or_no_budget_evicts() {
        let (mut routes, mut transitions, query) = ladder_world();
        // An endpoint at (30, 25): exactly two routes — the rungs at y = 30
        // and y = 20, both through their (30, y) stops at distance² 25 — are
        // strictly closer than the query (distance² 125), so with k = 2 the
        // transition does not qualify and the true result is empty. Removing
        // the y = 30 rung drops the count to 1 and the transition *enters*
        // the result, so no sound certificate can keep the entry.
        let at_risk = transitions.insert(p(30.0, 25.0), p(500.0, 500.0)).unwrap();
        assert!(transitions.get(at_risk).is_some());
        let region = recorded_region(&routes, &transitions, &query, &[]);
        let removed = RouteId(3); // the y = 30 rung
        let removed_points: Vec<Point> = routes.route_points(removed).to_vec();
        assert!(routes.remove_route(removed));
        let mut budget = 100_000usize;
        assert!(
            !region.survives_route_remove(
                &routes,
                &transitions,
                &[],
                removed,
                &removed_points,
                &mut budget,
            ),
            "an endpoint whose disqualification depended on the removed \
             route must evict the entry"
        );
        // A zero budget always evicts.
        let mut empty_budget = 0usize;
        assert!(!region.survives_route_remove(
            &routes,
            &transitions,
            &[],
            removed,
            &removed_points,
            &mut empty_budget,
        ));
        // A footprint without witnesses certifies nothing.
        let no_witnesses = recorded_region(&RouteStore::default(), &transitions, &query, &[]);
        let mut budget = 100_000usize;
        assert!(!no_witnesses.survives_route_remove(
            &routes,
            &transitions,
            &[],
            removed,
            &removed_points,
            &mut budget,
        ));
        // Degenerate queries survive everything.
        let degenerate =
            recorded_region(&routes, &transitions, &RknntQuery::exists(vec![], 2), &[]);
        assert!(degenerate.survives_route_remove(
            &routes,
            &transitions,
            &[],
            removed,
            &removed_points,
            &mut 0,
        ));
    }

    #[test]
    fn route_insert_far_from_results_is_survived() {
        let (region, _) = entry_with_result(&[0, 1]);
        assert!(region.result_reach > 0.0);
        // A route far away cannot be closer than the query to any result
        // endpoint.
        let far = Rect::new(p(1_000.0, 1_000.0), p(1_100.0, 1_100.0));
        assert!(region.survives_route_insert(&far));
        // A route on top of the result endpoints must evict.
        let near = Rect::new(p(1.0, 1.0), p(9.0, 2.0));
        assert!(!region.survives_route_insert(&near));
        // Empty results survive any route insertion (results only shrink).
        let (empty_region, _) = entry_with_result(&[]);
        assert!(empty_region.survives_route_insert(&near));
    }

    #[test]
    fn witness_free_footprint_is_conservative_for_transition_inserts() {
        let (region, _) = entry_with_result(&[0]);
        let routes = RouteStore::default();
        assert!(!region.survives_transition_insert(&routes, &p(1e6, 1e6), &p(1e6, 1e6)));
    }

    #[test]
    fn degenerate_entries_survive_everything() {
        let (routes, transitions) = (RouteStore::default(), TransitionStore::default());
        let region = |query| recorded_region(&routes, &transitions, &query, &[]);
        let degenerate = region(RknntQuery::exists(vec![], 3));
        assert!(degenerate.survives_transition_insert(&routes, &p(0.0, 0.0), &p(1.0, 1.0)));
        let k0 = region(RknntQuery::exists(vec![p(0.0, 0.0)], 0));
        assert!(k0.survives_transition_insert(&routes, &p(0.0, 0.0), &p(1.0, 1.0)));
    }
}
