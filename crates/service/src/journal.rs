//! The transition journal: a bounded, append-only ring of the transition
//! arrivals and expiries the stores accepted, numbered by sequence, and the
//! two steps that keep a result exact in place: [`replay`] applies one such
//! op, [`recheck_members`] follows a route insert.
//!
//! By Definition 5 a transition's membership in `RkNNT(Q)` depends only on
//! its own two endpoints and the route set. A computed result therefore
//! stays exact under transition churn by applying each arrival / expiry to
//! it individually — there is nothing to recompute. The update path only
//! *appends* here (O(1), whatever the cache holds); a cached result
//! remembers the sequence it is current to and replays the suffix when it is
//! next read ([`crate::ResultCache::get`]), judging each arrival against the
//! routes *current at the read*, which is exactly its membership then.
//! Subscriptions apply the same op eagerly, in place.
//!
//! A route insert can only raise an endpoint's count of strictly-closer
//! routes, and only where the new route itself is strictly closer than `Q`,
//! so it can only remove members, and only those: [`recheck_members`]
//! re-judges exactly them. Every cached entry catches up on the journal
//! before it is rechecked, so an entry never carries members judged against
//! a route set older than its last recheck. A route removal can only *add*
//! members, which no member scan finds: it drops cached results and
//! re-executes subscriptions.

use rknnt_core::{admits_transition, QueryScratch, RknntQuery};
use rknnt_geo::{point_route_distance_sq, Point};
use rknnt_index::{RouteStore, TransitionId};
use std::collections::VecDeque;

/// How many ops the ring keeps. An entry that falls further behind is
/// dropped at its next read and recomputed, so the bound caps what a hit can
/// cost: replaying an arrival is one admission check (0.2–0.45 µs measured
/// on the benchmark's 260-route city), an expiry a binary search (≈ 0.02
/// µs), so a hit that replays a full ring of arrivals costs 0.23–0.37 ms
/// where an uncached execution costs 0.75–1.1 ms.
pub const JOURNAL_CAPACITY: usize = 1_024;

/// One journalled store mutation, carrying everything replay needs (the
/// transition may have expired again by the time the op is replayed, so the
/// endpoints travel with the arrival).
#[derive(Debug, Clone, Copy)]
pub(crate) enum TransitionOp {
    /// The transition `id` arrived with these endpoints.
    Arrived {
        /// The (global) id the stores assigned.
        id: TransitionId,
        /// Origin endpoint.
        origin: Point,
        /// Destination endpoint.
        destination: Point,
    },
    /// The transition `id` expired.
    Expired(TransitionId),
}

/// Applies one journalled op to `result`, the sorted ids answering `query`,
/// exactly against `routes` (the current route set): an arrival enters iff
/// [`admits_transition`] admits it, an expiry leaves iff it is a member.
/// Reports whether the result changed.
pub(crate) fn replay(
    query: &RknntQuery,
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
            if !admits_transition(
                routes,
                &query.route,
                query.k,
                query.semantics,
                origin,
                destination,
                scratch,
            ) {
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

/// Follows the insert of the route `inserted` (its points) into `routes`
/// in `result`, the sorted ids that answered `query` just before the
/// insert: every member with an endpoint `u` that some point `s` of the
/// new route is strictly closer to than the query — `s.distance_sq(u) <
/// dist²(u, Q)`, the comparison verification makes — is re-judged by
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
    let closer = |u: &Point| {
        let threshold_sq = point_route_distance_sq(u, &query.route);
        inserted.iter().any(|s| s.distance_sq(u) < threshold_sq)
    };
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
    /// ring no longer holds all of them.
    pub(crate) fn since(&self, seq: u64) -> Option<impl Iterator<Item = &TransitionOp>> {
        let behind = usize::try_from(self.head - seq).ok()?;
        let start = self.ops.len().checked_sub(behind)?;
        Some(self.ops.range(start..))
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

    fn ids(journal: &Journal, seq: u64) -> Option<Vec<u32>> {
        journal.since(seq).map(|ops| {
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
        assert_eq!(ids(&journal, 0), Some(vec![]));
        for i in 0..4 {
            journal.push(op(i));
        }
        assert_eq!(journal.head(), 4);
        assert_eq!(ids(&journal, 0), Some(vec![0, 1, 2, 3]));
        assert_eq!(ids(&journal, 3), Some(vec![3]));
        assert_eq!(ids(&journal, 4), Some(vec![]));
        // The fifth op overwrites sequence 0: a reader current to 0 is lost,
        // one current to 1 sits exactly on the tail and is still served.
        journal.push(op(4));
        assert_eq!(ids(&journal, 0), None);
        assert_eq!(ids(&journal, 1), Some(vec![1, 2, 3, 4]));
        assert_eq!(ids(&journal, 5), Some(vec![]));
    }

    #[test]
    fn replayed_expiry_removes_exactly_a_member() {
        let query = RknntQuery::exists(vec![p(0.0, 0.0), p(10.0, 0.0)], 2);
        let (routes, mut scratch) = (RouteStore::default(), QueryScratch::new());
        let mut ids = vec![TransitionId(0), TransitionId(1)];
        let mut expire = |ids: &mut Vec<TransitionId>, id| {
            let op = TransitionOp::Expired(TransitionId(id));
            replay(&query, ids, &op, &routes, &mut scratch)
        };
        assert!(!expire(&mut ids, 999));
        assert!(expire(&mut ids, 0));
        assert!(!expire(&mut ids, 0), "already gone");
        assert_eq!(ids, vec![TransitionId(1)]);
    }

    #[test]
    fn replayed_arrival_enters_iff_it_qualifies() {
        // Horizontal routes at y = 0, 10, …, 70 and a query along y = 35.
        let mut routes = RouteStore::default();
        for i in 0..8 {
            let y = i as f64 * 10.0;
            routes
                .insert_route((0..8).map(|j| p(j as f64 * 10.0, y)).collect())
                .unwrap();
        }
        let query = RknntQuery::exists(vec![p(5.0, 35.0), p(35.0, 35.0), p(65.0, 35.0)], 2);
        let mut scratch = QueryScratch::new();
        let mut ids = Vec::new();
        let mut arrive = |ids: &mut Vec<TransitionId>, id, origin, destination| {
            let op = TransitionOp::Arrived {
                id: TransitionId(id),
                origin,
                destination,
            };
            replay(&query, ids, &op, &routes, &mut scratch)
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
        let op = TransitionOp::Arrived {
            id: TransitionId(11),
            origin: p(35.0, 35.0),
            destination: p(35.0, 35.0),
        };
        assert!(!replay(&degenerate, &mut ids, &op, &routes, &mut scratch));
    }
}
