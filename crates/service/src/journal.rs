//! The transition journal: a bounded, append-only ring of the transition
//! arrivals and expiries the stores accepted, numbered by sequence, and the
//! three steps that keep a result exact in place: [`replay`] applies one
//! such op, [`recheck_members`] follows a route insert and
//! [`admit_candidates`] a route removal.
//!
//! By Definition 5 a transition's membership in `RkNNT(Q)` depends only on
//! its own two endpoints and the route set. A computed result therefore
//! stays exact under transition churn by applying each arrival / expiry to
//! it individually — there is nothing to recompute. The update path only
//! *appends* here (O(1), whatever the cache holds); a cached result
//! remembers the sequence it is current to and replays the suffix when it is
//! next read ([`crate::cache::ResultCache::get_resident`]). Subscriptions
//! apply the same op eagerly, in place, before it is appended.
//!
//! Every reader of an arrival judges the same two endpoints against the
//! same routes, so the op carries their nearest-route certificate
//! ([`TransitionCertificate`]): the first reader to judge an endpoint — a
//! subscription at update time, else the first cached entry to replay the
//! op — walks the RR-tree once, and every later reader judges from the
//! certificate with `|Q|` distance evaluations and one compare. A
//! certificate holds for the route set it was computed over, and no other
//! is ever read: every cached entry catches up on the journal *before* a
//! route change mutates the stores
//! ([`crate::cache::ResultCache::catch_up_all`]), so every op an entry
//! replays was journalled under the routes current at the replay.
//!
//! A route insert can only raise an endpoint's count of strictly-closer
//! routes, and only where the new route itself is strictly closer than `Q`,
//! so it can only remove members, and only those: [`recheck_members`]
//! re-judges exactly them. A route removal `R` is the mirror image: it can
//! only *add* members, and only through an endpoint `u` that `R` was
//! strictly closer to than `Q`. Every route strictly closer to such a `u`
//! than `R` is strictly closer than `Q` too, so if `u` qualifies for `Q` at
//! `k` after the removal it qualifies for `R` at `k`: every transition that
//! can enter any result lies in `RkNNT_∃(R, k_max)` over the post-removal
//! routes, one engine answer the update path computes once per removal,
//! each candidate with one certificate every result shares.
//! [`admit_candidates`] judges exactly its non-members.

use rknnt_core::{
    admits_transition, CertificateScratch, QueryScratch, RknntQuery, TransitionCertificate,
};
use rknnt_geo::{point_route_distance_sq, Point};
use rknnt_index::{RouteStore, TransitionId};
use std::collections::VecDeque;

/// How many ops the ring keeps. An entry that falls further behind is
/// dropped at its next read and recomputed, so the bound caps what a hit can
/// cost: replaying an arrival is `|Q|` distance evaluations and one compare
/// per endpoint judged (plus, for the op's first reader, one certificate
/// walk), an expiry a binary search.
pub const JOURNAL_CAPACITY: usize = 1_024;

/// One journalled store mutation, carrying everything replay needs (the
/// transition may have expired again by the time the op is replayed, so the
/// endpoints travel with the arrival, inside its certificate).
#[derive(Debug, Clone)]
pub(crate) enum TransitionOp {
    /// The transition `id` arrived.
    Arrived {
        /// The (global) id the stores assigned.
        id: TransitionId,
        /// Its endpoints and their nearest-route certificates, shared by
        /// every reader of the op.
        certificate: TransitionCertificate,
    },
    /// The transition `id` expired.
    Expired(TransitionId),
}

/// What the maintenance steps judge with: the certificate walk's buffers
/// (arrivals, a removal's candidates) and the admission kernel's scratch (a
/// route insert's recheck). One per cache and one per subscription
/// registry, guarded like its owner.
#[derive(Debug, Default)]
pub(crate) struct Scratch {
    pub(crate) walk: CertificateScratch,
    pub(crate) kernel: QueryScratch,
}

/// Applies one journalled op to `result`, the sorted ids answering `query`,
/// exactly against `routes` (the route set the op was journalled under): an
/// arrival enters iff its certificate admits it, an expiry leaves iff it is
/// a member. Reports whether the result changed.
pub(crate) fn replay(
    query: &RknntQuery,
    result: &mut Vec<TransitionId>,
    op: &mut TransitionOp,
    routes: &RouteStore,
    walk: &mut CertificateScratch,
) -> bool {
    match op {
        TransitionOp::Arrived { id, certificate } => {
            if !certificate.admits(routes, &query.route, query.k, query.semantics, walk) {
                return false;
            }
            let Err(pos) = result.binary_search(id) else {
                return false;
            };
            result.insert(pos, *id);
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

/// Whether the route `changed` (its points) is strictly closer to the
/// endpoint `u` than the query route: some point `s` of it has
/// `s.distance_sq(u) < dist²(u, Q)`, the comparison verification makes. A
/// route change moves `u`'s count of strictly-closer routes only then.
fn strictly_closer(changed: &[Point], query_route: &[Point], u: &Point) -> bool {
    let threshold_sq = point_route_distance_sq(u, query_route);
    changed.iter().any(|s| s.distance_sq(u) < threshold_sq)
}

/// Follows the insert of the route `inserted` (its points) into `routes`
/// in `result`, the sorted ids that answered `query` just before the
/// insert: every member with an endpoint the new route is
/// [`strictly_closer`] to than the query is re-judged by
/// [`admits_transition`] against `routes`; every other member keeps both
/// endpoint counts and stays. `endpoints` resolves a member's endpoints
/// (members of a current result are live). Returns the ids that left, in
/// ascending order.
pub(crate) fn recheck_members(
    query: &RknntQuery,
    result: &mut Vec<TransitionId>,
    inserted: &[Point],
    routes: &RouteStore,
    endpoints: impl Fn(TransitionId) -> Option<(Point, Point)>,
    scratch: &mut QueryScratch,
) -> Vec<TransitionId> {
    let closer = |u: &Point| strictly_closer(inserted, &query.route, u);
    let mut left = Vec::new();
    result.retain(|&id| {
        let (origin, destination) = endpoints(id).expect("members of a current result are live");
        if !closer(&origin) && !closer(&destination) {
            return true;
        }
        let stays = admits_transition(
            routes,
            &query.route,
            query.k,
            query.semantics,
            &origin,
            &destination,
            scratch,
        );
        if !stays {
            left.push(id);
        }
        stays
    });
    left
}

/// Follows the removal of the route `removed` (its points) from `routes`
/// in `result`, the sorted ids that answered `query` just before the
/// removal: every member stays (a removal only lowers counts), and every
/// non-member of `candidates` with an endpoint `removed` was
/// [`strictly_closer`] to than the query is judged by its certificate
/// against `routes`. `candidates` must be `RkNNT_∃(removed, k′)` over
/// `routes` for some `k′ ≥ query.k`, sorted by id, each with the
/// certificate of its endpoints — by the lemma in the module documentation
/// a superset of what can enter. Returns the ids that entered, in ascending
/// order.
pub(crate) fn admit_candidates(
    query: &RknntQuery,
    result: &mut Vec<TransitionId>,
    removed: &[Point],
    candidates: &mut [(TransitionId, TransitionCertificate)],
    routes: &RouteStore,
    walk: &mut CertificateScratch,
) -> Vec<TransitionId> {
    if query.is_degenerate() {
        return Vec::new();
    }
    let closer = |u: &Point| strictly_closer(removed, &query.route, u);
    let mut entered = Vec::new();
    for (id, certificate) in candidates.iter_mut() {
        if result.binary_search(id).is_ok() {
            continue;
        }
        let (origin, destination) = certificate.endpoints();
        if (closer(&origin) || closer(&destination))
            && certificate.admits(routes, &query.route, query.k, query.semantics, walk)
        {
            entered.push(*id);
        }
    }
    for &id in &entered {
        let pos = result.partition_point(|&member| member < id);
        result.insert(pos, id);
    }
    entered
}

/// The ring itself; see the module documentation.
#[derive(Debug)]
pub(crate) struct Journal {
    ops: VecDeque<TransitionOp>,
    /// Sequence number of the next op: the count of ops ever appended.
    head: u64,
    capacity: usize,
}

impl Journal {
    /// A ring keeping the last `capacity` (at least 1) ops.
    pub(crate) fn with_capacity(capacity: usize) -> Self {
        Journal {
            ops: VecDeque::new(),
            head: 0,
            capacity,
        }
    }

    /// The sequence a result computed against the current stores is current
    /// to.
    pub(crate) fn head(&self) -> u64 {
        self.head
    }

    pub(crate) fn push(&mut self, op: TransitionOp) {
        if self.ops.len() == self.capacity {
            self.ops.pop_front();
        }
        self.ops.push_back(op);
        self.head += 1;
    }

    /// The ops with sequence `seq..head`, oldest first, or `None` when the
    /// ring no longer holds all of them. Mutable, so a replay can fill the
    /// certificates the later readers of an op share.
    pub(crate) fn since_mut(
        &mut self,
        seq: u64,
    ) -> Option<impl Iterator<Item = &mut TransitionOp>> {
        let behind = usize::try_from(self.head - seq).ok()?;
        let start = self.ops.len().checked_sub(behind)?;
        Some(self.ops.range_mut(start..))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(x: f64, y: f64) -> Point {
        Point::new(x, y)
    }

    fn op(id: u32) -> TransitionOp {
        TransitionOp::Expired(TransitionId(id))
    }

    fn ids(journal: &mut Journal, seq: u64) -> Option<Vec<u32>> {
        journal.since_mut(seq).map(|ops| {
            ops.map(|op| match op {
                TransitionOp::Expired(id) => id.raw(),
                TransitionOp::Arrived { id, .. } => id.raw(),
            })
            .collect()
        })
    }

    #[test]
    fn suffixes_are_exact_until_the_ring_overwrites_them() {
        let mut journal = Journal::with_capacity(4);
        assert_eq!(ids(&mut journal, 0), Some(vec![]));
        for i in 0..4 {
            journal.push(op(i));
        }
        assert_eq!(journal.head(), 4);
        assert_eq!(ids(&mut journal, 0), Some(vec![0, 1, 2, 3]));
        assert_eq!(ids(&mut journal, 3), Some(vec![3]));
        assert_eq!(ids(&mut journal, 4), Some(vec![]));
        // The fifth op overwrites sequence 0: a reader current to 0 is lost,
        // one current to 1 sits exactly on the tail and is still served.
        journal.push(op(4));
        assert_eq!(ids(&mut journal, 0), None);
        assert_eq!(ids(&mut journal, 1), Some(vec![1, 2, 3, 4]));
        assert_eq!(ids(&mut journal, 5), Some(vec![]));
    }

    #[test]
    fn replayed_expiry_removes_exactly_a_member() {
        let query = RknntQuery::exists(vec![p(0.0, 0.0), p(10.0, 0.0)], 2);
        let (routes, mut walk) = (RouteStore::default(), CertificateScratch::new());
        let mut ids = vec![TransitionId(0), TransitionId(1)];
        let mut expire = |ids: &mut Vec<TransitionId>, id| {
            let mut op = TransitionOp::Expired(TransitionId(id));
            replay(&query, ids, &mut op, &routes, &mut walk)
        };
        assert!(!expire(&mut ids, 999));
        assert!(expire(&mut ids, 0));
        assert!(!expire(&mut ids, 0), "already gone");
        assert_eq!(ids, vec![TransitionId(1)]);
    }

    /// Horizontal routes at y = 0, 10, …, 70 with stops every 10 in x.
    fn ladder() -> RouteStore {
        let mut routes = RouteStore::default();
        for i in 0..8 {
            let y = i as f64 * 10.0;
            routes
                .insert_route((0..8).map(|j| p(j as f64 * 10.0, y)).collect())
                .unwrap();
        }
        routes
    }

    #[test]
    fn replayed_arrival_enters_iff_it_qualifies() {
        // A query along y = 35.
        let routes = ladder();
        let query = RknntQuery::exists(vec![p(5.0, 35.0), p(35.0, 35.0), p(65.0, 35.0)], 2);
        let mut walk = CertificateScratch::new();
        let mut ids = Vec::new();
        let mut arrive = |ids: &mut Vec<TransitionId>, id, origin, destination| {
            let mut op = TransitionOp::Arrived {
                id: TransitionId(id),
                certificate: TransitionCertificate::new(origin, destination),
            };
            replay(&query, ids, &mut op, &routes, &mut walk)
        };
        // On a rung far from the query: two routes strictly closer, k = 2.
        assert!(!arrive(&mut ids, 7, p(30.0, 0.0), p(40.0, 70.0)));
        // Hugging the query: enters.
        assert!(arrive(&mut ids, 9, p(34.0, 36.0), p(36.0, 34.0)));
        // Ids stay sorted whatever order ops arrive in; a replayed
        // duplicate is a no-op.
        assert!(arrive(&mut ids, 3, p(35.0, 35.5), p(35.5, 35.0)));
        assert_eq!(ids, vec![TransitionId(3), TransitionId(9)]);
        assert!(!arrive(&mut ids, 3, p(35.0, 35.5), p(35.5, 35.0)));
        // A degenerate query admits nothing.
        let degenerate = RknntQuery::exists(Vec::new(), 2);
        let mut op = TransitionOp::Arrived {
            id: TransitionId(11),
            certificate: TransitionCertificate::new(p(35.0, 35.0), p(35.0, 35.0)),
        };
        assert!(!replay(&degenerate, &mut ids, &mut op, &routes, &mut walk));
    }

    /// k = 1, and the endpoint (35, 35) is at distance² 50 from the ladder
    /// (its nearest stops) and 49 from the one-vertex query (35, 42). A
    /// route through (36, 37), distance² 5, is the only route strictly
    /// closer there, so its removal admits the transition — which lies in
    /// the removed route's own RkNNT answer, as the lemma says. A route
    /// through (42, 35) is exactly tied with the query: it hid nothing, so
    /// its removal admits nothing and the member stays, once.
    #[test]
    fn a_removal_admits_exactly_the_endpoints_it_was_strictly_closer_to() {
        use rknnt_core::{BruteForceEngine, RknnTEngine};
        use rknnt_index::TransitionStore;
        let query = RknntQuery::exists(vec![p(35.0, 42.0)], 1);
        let mut transitions = TransitionStore::default();
        // The destination sits on a stop, where every route is closer.
        let t = transitions.insert(p(35.0, 35.0), p(0.0, 0.0)).unwrap();
        transitions.insert(p(5.0, 5.0), p(65.0, 65.0)).unwrap();
        for (removed, hidden) in [
            (vec![p(36.0, 37.0), p(90.0, 95.0)], true),
            (vec![p(42.0, 35.0), p(90.0, 95.0)], false),
        ] {
            let mut routes = ladder();
            let id = routes.insert_route(removed.clone()).unwrap();
            let answer = |routes: &RouteStore, query: &RknntQuery| {
                BruteForceEngine::new(routes, &transitions)
                    .execute(query)
                    .transitions
            };
            let mut result = answer(&routes, &query);
            assert_eq!(result.contains(&t), !hidden);
            assert!(routes.remove_route(id));
            let candidates = answer(&routes, &RknntQuery::exists(removed.clone(), query.k));
            let mut certified: Vec<_> = candidates
                .iter()
                .map(|&id| {
                    let t = transitions.get(id).unwrap();
                    (id, TransitionCertificate::new(t.origin, t.destination))
                })
                .collect();
            let entered = admit_candidates(
                &query,
                &mut result,
                &removed,
                &mut certified,
                &routes,
                &mut CertificateScratch::new(),
            );
            assert_eq!(result, answer(&routes, &query));
            assert_eq!(result, vec![t]);
            if hidden {
                assert!(candidates.contains(&t));
                assert_eq!(entered, vec![t]);
            } else {
                assert!(entered.is_empty(), "a tie is not strictly closer");
            }
        }
    }
}
