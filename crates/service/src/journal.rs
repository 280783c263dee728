//! The transition journal — a bounded, append-only ring of the transition
//! arrivals and expiries the stores accepted, numbered by sequence — and the
//! one step that keeps a result exact in place: a [`Maintained`] result
//! (query, sorted ids, [`Bounds`]) follows every update, an [`Effect`],
//! through [`Maintained::follow`]. Its arms are [`Maintained::replay`] for a
//! journalled op, [`Maintained::recheck_members`] for a route insert and
//! [`Maintained::admit_candidates`] for a route removal. A cached entry and
//! a subscription are each one `Maintained`, and differ only in when they
//! follow a transition op: a subscription at the update, a cached entry at
//! its next read.
//!
//! By Definition 5 a transition's membership in `RkNNT(Q)` depends only on
//! its own two endpoints and the route set. A computed result therefore
//! stays exact under transition churn by applying each arrival / expiry to
//! it individually — there is nothing to recompute. The update path only
//! *appends* here (O(1), whatever the cache holds); a cached result
//! remembers the sequence it is current to and replays the suffix when it is
//! next read ([`crate::cache::ResultCache::get_resident`]). Subscriptions
//! follow the same op eagerly, in place, before it is appended.
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
//! so it can only remove members, and only those. A route removal `R` is the
//! mirror image: it can only *add* members, and only through an endpoint `u`
//! that `R` was strictly closer to than `Q`. Every route strictly closer to
//! such a `u` than `R` is strictly closer than `Q` too, so if `u` qualifies
//! for `Q` at `k` after the removal it qualifies for `R` at `k`: every
//! transition that can enter any result lies in `RkNNT_∃(R, k_max)` over the
//! post-removal routes, one engine answer the update path computes once per
//! removal, each candidate with one certificate every result shares.
//!
//! Both steps are arithmetic, because every maintained result keeps
//! [`Bounds`] beside its ids: per member endpoint, a bound `b ≤ k` on its
//! count of distinct routes strictly closer than `Q`, where `b < k` is that
//! count exactly and `b = k` claims nothing (the cap is `u16::MAX` for a
//! larger `k`, where a route insert also counts an unclaimed endpoint the
//! new route comes closer to). A miss takes them from the counts
//! verification computed anyway, an arrival or an admitted candidate from
//! its certificate (an endpoint the ∃ short-circuit never judged gets `k`).
//! Every member keeps a qualifying bound — one endpoint below `k` under ∃,
//! both under ∀ — so:
//!
//! * an insert adds exactly 1 to each count below `k` at an endpoint the new
//!   route is [`strictly_closer`] to. A ∀ member leaves when a count reaches
//!   `k`; an ∃ member when none is left below `k`,
//!   except that an endpoint whose bound claimed nothing may still qualify —
//!   only then is it counted, once, by the certificate walk over the
//!   post-insert routes;
//! * a removal subtracts exactly 1 from each count below `k` at an endpoint
//!   `R` was strictly closer to. By the lemma above every such endpoint lies
//!   in the candidate set, so the removal step does it in the loop that
//!   judges the candidates' non-members, with no scan of the members.
//!
//! In debug builds every route step ends with [`Maintained::check_bounds`],
//! every count against the verification kernel.
//!
//! Ties are unchanged, because every count comes from the same strict
//! compare of squared distances.

use rknnt_core::{CertificateScratch, RknntQuery, Semantics, TransitionCertificate};
use rknnt_geo::{point_route_distance_sq, Point, Rect};
use rknnt_index::{RouteId, RouteStore, TransitionId};
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

/// Per member of a maintained result, per endpoint (origin, destination):
/// a bound `b` on the endpoint's count of distinct routes strictly closer
/// than the query, at most the cap `bound(k)` — `k`, unless `k` exceeds
/// `u16::MAX`. Below the cap, `b` is that count exactly; at the cap it
/// claims nothing. Kept in a vector in step with the sorted ids, so a read
/// of the ids never copies them; two bytes per endpoint give it the ids'
/// element size, so the two vectors grow into blocks the allocator
/// recycles between them.
pub(crate) type Bounds = [u16; 2];

/// A count capped at `k` — or `k` itself, the cap — as a stored bound,
/// saturating at `u16::MAX`.
pub(crate) fn bound(count: usize) -> u16 {
    u16::try_from(count).unwrap_or(u16::MAX)
}

/// `dist²(u, Q)` for the endpoint `u` and the query route `Q` when a route
/// at squared distance at least `floor_sq` from `u` may be strictly closer
/// to it than the query — every query point is farther than `floor_sq` —
/// and `None` as soon as one is not. A route change moves `u`'s count of
/// strictly-closer routes only when the changed route is strictly closer,
/// by exactly one; most endpoints of a result are settled "no" here by a
/// query point or two, a changed route being local.
fn threshold_beyond(u: &Point, query_route: &[Point], floor_sq: f64) -> Option<f64> {
    let mut threshold_sq = f64::INFINITY;
    for q in query_route {
        let d = u.distance_sq(q);
        if d <= floor_sq {
            return None;
        }
        threshold_sq = threshold_sq.min(d);
    }
    Some(threshold_sq)
}

/// Whether the route `changed` (its points, inside `mbr`) is strictly
/// closer to the endpoint `u` than the query route: some point `s` of it
/// has `s.distance_sq(u) < dist²(u, Q)`, the comparison verification makes.
fn strictly_closer(changed: &[Point], mbr: &Rect, u: &Point, query_route: &[Point]) -> bool {
    threshold_beyond(u, query_route, mbr.min_dist_sq(u))
        .is_some_and(|threshold_sq| changed.iter().any(|s| s.distance_sq(u) < threshold_sq))
}

/// One candidate of a route removal: a transition of `RkNNT_∃(R, k_max)`
/// over the post-removal routes, the certificate of its endpoints, shared
/// by every result that judges it, and for its (origin, destination) the
/// squared distance to the removed route `R` and the count of routes
/// strictly closer than `R` there, capped at `k_max` — what verifying the
/// candidate query found.
#[derive(Debug)]
pub(crate) struct Candidate {
    pub(crate) id: TransitionId,
    pub(crate) certificate: TransitionCertificate,
    pub(crate) removed_sq: [f64; 2],
    pub(crate) closer_than_removed: Bounds,
}

impl Candidate {
    /// The candidate `id` with endpoints `origin → destination`, against
    /// the removed route `removed` (its points), with the counts the
    /// candidate query verified.
    pub(crate) fn new(
        id: TransitionId,
        origin: Point,
        destination: Point,
        removed: &[Point],
        closer_than_removed: Bounds,
    ) -> Self {
        Candidate {
            id,
            certificate: TransitionCertificate::new(origin, destination),
            removed_sq: [origin, destination].map(|u| point_route_distance_sq(&u, removed)),
            closer_than_removed,
        }
    }
}

/// One update the stores accepted, as a maintained result follows it. Built
/// after the store mutation succeeded, so every step judges against the
/// post-update stores.
pub(crate) enum Effect<'a> {
    /// A transition arrived or expired: the op the journal carries, whose
    /// arrival certificate its readers fill as far as they need it.
    Transition(&'a mut TransitionOp),
    /// The route with this id was inserted.
    RouteInserted(RouteId),
    /// A route was removed: its candidates, `RkNNT_∃(removed, k_max)` over
    /// the post-removal stores, sorted by id — every transition the removal
    /// can bring into a result or count out of a member's counts.
    RouteRemoved(&'a mut [Candidate]),
}

/// A result kept exact in place: the sorted ids answering `query` and their
/// [`Bounds`]. A cached entry and a subscription each hold one, and
/// [`Maintained::follow`] takes it through every update.
pub(crate) struct Maintained {
    pub(crate) query: RknntQuery,
    /// The members, sorted ascending.
    pub(crate) ids: Vec<TransitionId>,
    /// The members' bounds, in step with `ids`.
    pub(crate) bounds: Vec<Bounds>,
}

/// The largest `k` of a non-degenerate query among `results`; 0 when there
/// is none.
pub(crate) fn max_k<'a>(results: impl IntoIterator<Item = &'a Maintained>) -> usize {
    results
        .into_iter()
        .filter(|result| !result.query.is_degenerate())
        .map(|result| result.query.k)
        .max()
        .unwrap_or(0)
}

impl Maintained {
    /// Follows one update exactly, against `routes`: for a transition op
    /// the route set it was journalled under, for a route change the
    /// post-change routes (the result answering the pre-change ones).
    /// Returns the ids that entered (an arrival, a route removal) or left
    /// (an expiry, a route insert), in ascending order. `endpoints` resolves
    /// a member's endpoints (members of a current result are live) for a
    /// route insert's recheck and for the bound check every route step ends
    /// with in debug builds ([`Maintained::check_bounds`]); `walk` holds the
    /// certificate walks' buffers.
    pub(crate) fn follow(
        &mut self,
        effect: &mut Effect<'_>,
        routes: &RouteStore,
        endpoints: impl Fn(TransitionId) -> Option<(Point, Point)>,
        walk: &mut CertificateScratch,
    ) -> Vec<TransitionId> {
        let changed = match effect {
            Effect::Transition(op) => return self.replay(op, routes, walk),
            Effect::RouteInserted(id) => {
                self.recheck_members(routes.route_points(*id), routes, &endpoints, walk)
            }
            Effect::RouteRemoved(candidates) => self.admit_candidates(candidates, routes, walk),
        };
        self.check_bounds(routes, endpoints);
        changed
    }

    /// Applies one journalled op: an arrival enters iff its certificate
    /// admits it, with the counts the certificate reports, an expiry leaves
    /// iff it is a member.
    fn replay(
        &mut self,
        op: &mut TransitionOp,
        routes: &RouteStore,
        walk: &mut CertificateScratch,
    ) -> Vec<TransitionId> {
        let Maintained { query, ids, bounds } = self;
        match op {
            TransitionOp::Arrived { id, certificate } => {
                let Some(counts) =
                    certificate.admit(routes, &query.route, query.k, query.semantics, walk)
                else {
                    return Vec::new();
                };
                let Err(pos) = ids.binary_search(id) else {
                    return Vec::new();
                };
                ids.insert(pos, *id);
                bounds.insert(pos, counts.map(bound));
                vec![*id]
            }
            TransitionOp::Expired(id) => match ids.binary_search(id) {
                Ok(pos) => {
                    ids.remove(pos);
                    bounds.remove(pos);
                    vec![*id]
                }
                Err(_) => Vec::new(),
            },
        }
    }

    /// Follows the insert of the route `inserted` (its points) into
    /// `routes`: each count below the cap at an endpoint the new route is
    /// [`strictly_closer`] to grows by one, and a member leaves when its
    /// counts no longer qualify it. Where the counts cannot decide — an
    /// endpoint whose bound claims nothing — the endpoint is counted once by
    /// the certificate walk over `routes`: for an ∃ member whose counted
    /// endpoints stopped qualifying it, or, with `k` beyond the bounds'
    /// range, a member whose unclaimed endpoint the new route comes closer
    /// to. Returns the ids that left, in ascending order.
    fn recheck_members(
        &mut self,
        inserted: &[Point],
        routes: &RouteStore,
        endpoints: impl Fn(TransitionId) -> Option<(Point, Point)>,
        walk: &mut CertificateScratch,
    ) -> Vec<TransitionId> {
        let Some(mbr) = Rect::from_points(inserted) else {
            return Vec::new();
        };
        let Maintained { query, ids, bounds } = self;
        let cap = bound(query.k);
        // An exact count that reaches the cap still qualifies iff the cap lies
        // below `k`.
        let cap_qualifies = usize::from(cap) < query.k;
        let mut left = Vec::new();
        let mut kept = 0;
        for i in 0..ids.len() {
            let (id, before) = (ids[i], bounds[i]);
            let (origin, destination) =
                endpoints(id).expect("members of a current result are live");
            let points = [origin, destination];
            let closer = |e: usize| strictly_closer(inserted, &mbr, &points[e], &query.route);
            let mut after = before;
            let mut moved = false;
            for e in 0..2 {
                if after[e] < cap && closer(e) {
                    after[e] += 1;
                    moved = true;
                }
            }
            let unclaimed = |e: usize| before[e] == cap;
            let certain =
                |e: usize, after: &Bounds| after[e] < cap || (!unclaimed(e) && cap_qualifies);
            let mut counted = |e: usize, after: &mut Bounds| {
                let u = &points[e];
                let threshold_sq = point_route_distance_sq(u, &query.route);
                let count = walk.count_closer_routes_sq(routes, u, threshold_sq, query.k);
                after[e] = bound(count);
                count < query.k
            };
            let stays = match query.semantics {
                // An unclaimed endpoint of a member qualified, and still does
                // unless the new route came closer to it.
                Semantics::ForAll => (0..2).all(|e| {
                    certain(e, &after) || (unclaimed(e) && (!closer(e) || counted(e, &mut after)))
                }),
                // Nothing moved, nothing changed; else only a count of the
                // unclaimed endpoints can keep the member.
                Semantics::Exists => {
                    (0..2).any(|e| certain(e, &after))
                        || !(moved || (0..2).any(|e| unclaimed(e) && closer(e)))
                        || (0..2)
                            .filter(|&e| unclaimed(e))
                            .any(|e| counted(e, &mut after))
                }
            };
            if stays {
                ids[kept] = id;
                bounds[kept] = after;
                kept += 1;
            } else {
                left.push(id);
            }
        }
        ids.truncate(kept);
        bounds.truncate(kept);
        left
    }

    /// Follows the removal of a route `R` from `routes`. `candidates` must
    /// be `RkNNT_∃(R, k′)` over `routes` for some `k′ ≥ k`, sorted by id —
    /// by the lemma in the module documentation a superset of what can
    /// enter, and of the members with a count `R` was in. Every member stays
    /// (a removal only lowers counts), and each of its counts below the cap
    /// at an endpoint `R` was strictly closer to than the query drops by
    /// one; every non-member candidate with such an endpoint is judged by
    /// its certificate against `routes` and enters with the counts it
    /// reports, each `dist²(u, Q)` computed once for the closer test and the
    /// judgement. Returns the ids that entered, in ascending order.
    fn admit_candidates(
        &mut self,
        candidates: &mut [Candidate],
        routes: &RouteStore,
        walk: &mut CertificateScratch,
    ) -> Vec<TransitionId> {
        let Maintained { query, ids, bounds } = self;
        let Some(query_mbr) = Rect::from_points(&query.route) else {
            return Vec::new();
        };
        let cap = bound(query.k);
        let mut entered = Vec::new();
        for candidate in candidates.iter_mut() {
            // Only an endpoint `R` was strictly closer to than the query can
            // move: one with `k` routes strictly closer than `R` has at least
            // `k` strictly closer than the query, so it neither qualifies nor
            // holds a count below `k`. No candidate with two such endpoints can
            // change this result.
            let hidden_by_others = |&c: &u16| usize::from(c) >= query.k;
            if candidate.closer_than_removed.iter().all(hidden_by_others) {
                continue;
            }
            let (origin, destination) = candidate.certificate.endpoints();
            let points = [origin, destination];
            // A count only grows with its threshold, so what the certificate
            // rejects at each endpoint's distance² to the query's bounding box,
            // a floor under `dist²(u, Q)`, it rejects at `dist²(u, Q)`: neither
            // a member (members stay members) nor one that can enter. Most
            // candidates end here, the query being far.
            let floors_sq = points.map(|u| query_mbr.min_dist_sq(&u));
            if candidate
                .certificate
                .admit_at(routes, query.k, query.semantics, walk, |e| floors_sq[e])
                .is_none()
            {
                continue;
            }
            let beyond =
                |e: usize| threshold_beyond(&points[e], &query.route, candidate.removed_sq[e]);
            match ids.binary_search(&candidate.id) {
                Ok(pos) => {
                    // A count of 0 never held `R`.
                    for (e, b) in bounds[pos].iter_mut().enumerate() {
                        if (1..cap).contains(b) && beyond(e).is_some() {
                            *b -= 1;
                        }
                    }
                }
                Err(_) => {
                    let known = [beyond(0), beyond(1)];
                    if known == [None, None] {
                        continue;
                    }
                    let admitted = candidate.certificate.admit_at(
                        routes,
                        query.k,
                        query.semantics,
                        walk,
                        |e| {
                            known[e].unwrap_or_else(|| {
                                point_route_distance_sq(&points[e], &query.route)
                            })
                        },
                    );
                    if let Some(counts) = admitted {
                        entered.push((candidate.id, counts.map(bound)));
                    }
                }
            }
        }
        for &(id, counts) in &entered {
            let pos = ids.partition_point(|&member| member < id);
            ids.insert(pos, id);
            bounds.insert(pos, counts);
        }
        entered.into_iter().map(|(id, _)| id).collect()
    }

    /// In debug builds, after a route change: asserts that every bound keeps
    /// the invariant — the cap, or the verification kernel's exact count
    /// over `routes` — and that, unless `k` lies beyond the bounds' range,
    /// every member keeps a qualifying bound (∃: an endpoint below the cap,
    /// ∀: both). A no-op in release builds.
    fn check_bounds(
        &self,
        routes: &RouteStore,
        endpoints: impl Fn(TransitionId) -> Option<(Point, Point)>,
    ) {
        if !cfg!(debug_assertions) {
            return;
        }
        let Maintained { query, ids, bounds } = self;
        assert_eq!(ids.len(), bounds.len(), "one bound pair per member");
        let cap = bound(query.k);
        let mut kernel = rknnt_core::QueryScratch::new();
        for (id, counts) in ids.iter().zip(bounds) {
            let (origin, destination) =
                endpoints(*id).expect("members of a current result are live");
            for (&b, u) in counts.iter().zip(&[origin, destination]) {
                if b < cap {
                    let threshold_sq = point_route_distance_sq(u, &query.route);
                    let exact = kernel.count_closer_routes_sq(
                        routes,
                        routes.nlist(),
                        u,
                        threshold_sq,
                        query.k,
                    );
                    assert_eq!(
                        usize::from(b),
                        exact,
                        "{id} of {query:?}: a stale count at {u}"
                    );
                }
            }
            let qualifying = counts.iter().filter(|&&b| b < cap).count();
            let needed = match query.semantics {
                Semantics::Exists => 1,
                Semantics::ForAll => 2,
            };
            assert!(
                qualifying >= needed || usize::from(cap) < query.k,
                "{id} of {query:?}: bounds {counts:?} below the cap {cap} do not qualify it"
            );
        }
    }
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
        let mut result = Maintained {
            query,
            ids: vec![TransitionId(0), TransitionId(1)],
            bounds: vec![[0, 2], [1, 0]],
        };
        let mut expire = |result: &mut Maintained, id| {
            let mut op = TransitionOp::Expired(TransitionId(id));
            result.follow(
                &mut Effect::Transition(&mut op),
                &routes,
                |_| None,
                &mut walk,
            )
        };
        assert_eq!(expire(&mut result, 999), vec![]);
        assert_eq!(expire(&mut result, 0), vec![TransitionId(0)]);
        assert_eq!(expire(&mut result, 0), vec![], "already gone");
        assert_eq!(result.ids, vec![TransitionId(1)]);
        assert_eq!(
            result.bounds,
            vec![[1, 0]],
            "the bounds leave with their member"
        );
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
        let mut result = Maintained {
            query: RknntQuery::exists(vec![p(5.0, 35.0), p(35.0, 35.0), p(65.0, 35.0)], 2),
            ids: Vec::new(),
            bounds: Vec::new(),
        };
        let mut walk = CertificateScratch::new();
        let mut arrive = |result: &mut Maintained, id, o, d| {
            let mut op = TransitionOp::Arrived {
                id: TransitionId(id),
                certificate: TransitionCertificate::new(o, d),
            };
            result.follow(
                &mut Effect::Transition(&mut op),
                &routes,
                |_| None,
                &mut walk,
            )
        };
        // On a rung far from the query: two routes strictly closer, k = 2.
        assert_eq!(arrive(&mut result, 7, p(30.0, 0.0), p(40.0, 70.0)), vec![]);
        // Hugging the query: enters, its origin with no route strictly
        // closer, its destination never judged (∃): no claim.
        assert_eq!(
            arrive(&mut result, 9, p(34.0, 36.0), p(36.0, 34.0)),
            vec![TransitionId(9)]
        );
        // Ids stay sorted whatever order ops arrive in, the bounds in step
        // (the origin (30, 3) has four rungs strictly closer, capped at
        // k = 2, so the destination is judged); a replayed duplicate is a
        // no-op.
        assert_eq!(
            arrive(&mut result, 3, p(30.0, 3.0), p(35.0, 35.5)),
            vec![TransitionId(3)]
        );
        assert_eq!(result.ids, vec![TransitionId(3), TransitionId(9)]);
        assert_eq!(result.bounds, vec![[2, 0], [0, 2]]);
        assert_eq!(arrive(&mut result, 3, p(30.0, 3.0), p(35.0, 35.5)), vec![]);
        // A degenerate query admits nothing.
        result.query = RknntQuery::exists(Vec::new(), 2);
        assert_eq!(
            arrive(&mut result, 11, p(35.0, 35.0), p(35.0, 35.0)),
            vec![]
        );
        assert_eq!(result.bounds.len(), 2);
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
        let endpoints = |id| transitions.get(id).map(|t| (t.origin, t.destination));
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
            // Exact counts of both endpoints of every member.
            let exact = |routes: &RouteStore, result: &[TransitionId]| -> Vec<Bounds> {
                let mut walk = CertificateScratch::new();
                result
                    .iter()
                    .map(|&id| {
                        let t = transitions.get(id).unwrap();
                        [t.origin, t.destination].map(|u| {
                            let sq = point_route_distance_sq(&u, &query.route);
                            bound(walk.count_closer_routes_sq(routes, &u, sq, query.k))
                        })
                    })
                    .collect()
            };
            let ids = answer(&routes, &query);
            assert_eq!(ids.contains(&t), !hidden);
            let mut result = Maintained {
                query: query.clone(),
                bounds: exact(&routes, &ids),
                ids,
            };
            assert!(routes.remove_route(id));
            let candidates = answer(&routes, &RknntQuery::exists(removed.clone(), query.k));
            let mut certified: Vec<_> = candidates
                .iter()
                .map(|&id| {
                    let t = transitions.get(id).unwrap();
                    let closer = [t.origin, t.destination].map(|u| {
                        let sq = point_route_distance_sq(&u, &removed);
                        bound(CertificateScratch::new().count_closer_routes_sq(&routes, &u, sq, 1))
                    });
                    Candidate::new(id, t.origin, t.destination, &removed, closer)
                })
                .collect();
            let entered = result.follow(
                &mut Effect::RouteRemoved(&mut certified),
                &routes,
                endpoints,
                &mut CertificateScratch::new(),
            );
            assert_eq!(result.ids, answer(&routes, &query));
            assert_eq!(result.ids, vec![t]);
            // (0, 0) is on a stop: its count is capped at k, exact or not.
            assert_eq!(result.bounds, exact(&routes, &result.ids));
            assert_eq!(result.bounds, vec![[0, 1]]);
            if hidden {
                assert!(candidates.contains(&t));
                assert_eq!(entered, vec![t]);
            } else {
                assert!(entered.is_empty(), "a tie is not strictly closer");
            }
        }
    }

    /// A `k` beyond what a stored count can hold (`u16::MAX`) stays exact.
    /// Route `i` has a stop `i` away from the endpoint `(0, 0)`, so a
    /// one-vertex query `t` above it has `min(t, routes)` routes strictly
    /// closer there. With `k` one more than the routes, the endpoint
    /// qualifies for `t` = 10⁶ with a count past the cap, which claims
    /// nothing, and for `t` = 65 534 with an exact count one below the cap.
    /// A far route moves nothing; a route at the endpoint takes the first
    /// count to `k` (its members leave) and the second to the cap, still
    /// below `k` (its members stay).
    #[test]
    fn a_k_beyond_the_range_of_a_stored_count_stays_exact() {
        use rknnt_core::{BruteForceEngine, RknnTEngine};
        use rknnt_index::TransitionStore;
        let n = usize::from(u16::MAX) + 11;
        let k = n + 1;
        let routes: Vec<Vec<Point>> = (0..n)
            .map(|i| vec![p(i as f64, 0.0), p(i as f64, 1.0e6)])
            .collect();
        let mut routes = RouteStore::bulk_build(rknnt_rtree::RTreeConfig::default(), routes).0;
        let mut transitions = TransitionStore::default();
        let t = transitions.insert(p(0.0, 0.0), p(0.0, 0.0)).unwrap();
        let endpoints = |id| transitions.get(id).map(|t| (t.origin, t.destination));
        let answer = |routes: &RouteStore, query: &RknntQuery| {
            BruteForceEngine::new(routes, &transitions)
                .execute(query)
                .transitions
        };
        let mut walk = CertificateScratch::new();
        // What a miss keeps: each endpoint's count, capped at k.
        let mut results: Vec<Maintained> = [1.0e6, 65_534.0]
            .into_iter()
            .flat_map(|y| {
                [
                    RknntQuery::exists(vec![p(0.0, y)], k),
                    RknntQuery::for_all(vec![p(0.0, y)], k),
                ]
            })
            .map(|query| {
                let ids = answer(&routes, &query);
                assert_eq!(ids, vec![t]);
                let sq = point_route_distance_sq(&p(0.0, 0.0), &query.route);
                let count = bound(walk.count_closer_routes_sq(&routes, &p(0.0, 0.0), sq, k));
                Maintained {
                    query,
                    ids,
                    bounds: vec![[count; 2]],
                }
            })
            .collect();
        assert_eq!(
            results[0].bounds,
            vec![[u16::MAX; 2]],
            "past the cap: no claim"
        );
        assert_eq!(
            results[2].bounds,
            vec![[65_534; 2]],
            "exact, one below the cap"
        );
        for (inserted, at) in [
            (vec![p(-9.0e6, 0.0), p(-9.0e6, 1.0)], "far"),
            (vec![p(0.0, -0.5), p(0.0, -1.0e6)], "at the endpoint"),
        ] {
            let id = routes.insert_route(inserted).unwrap();
            for result in &mut results {
                let before = result.ids.clone();
                let left = result.follow(
                    &mut Effect::RouteInserted(id),
                    &routes,
                    endpoints,
                    &mut walk,
                );
                let query = &result.query;
                assert_eq!(result.ids, answer(&routes, query), "{at}: {query:?}");
                let gone: Vec<_> = before
                    .into_iter()
                    .filter(|id| !result.ids.contains(id))
                    .collect();
                assert_eq!(left, gone, "{at}: {query:?}");
            }
        }
        assert!(
            results[0].ids.is_empty() && results[1].ids.is_empty(),
            "count k"
        );
        assert_eq!(results[2].ids, vec![t], "count at the cap, below k");
        assert_eq!(results[3].ids, vec![t]);
    }
}
