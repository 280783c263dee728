//! Continuous RkNNT subscriptions: standing queries kept current across
//! [`QueryService::apply_updates`], with per-batch result deltas.
//!
//! A subscription is a registered [`RknntQuery`] whose result the service
//! maintains as the stores churn, instead of the client re-polling. Every
//! applied [`StoreUpdate`] is handled per live subscription:
//!
//! * **Transition arrivals and expiries are applied in place**, exactly (the
//!   journal's `replay`, the same step a cached result takes when it is next
//!   read): membership of a transition depends only on its own endpoints and
//!   the routes, so an arrival enters iff the admission kernel admits it — a
//!   delta with [`DeltaReason::TransitionArrived`] — and an expiry leaves iff
//!   it was a member — [`DeltaReason::TransitionExpired`]. Neither ever
//!   re-executes the query. Counted *unaffected* when no geometry ran (a
//!   degenerate query, an expired non-member) and *stable* otherwise.
//! * **Route inserts are applied in place** too (the journal's
//!   `recheck_members`, the same step every cached result takes at the
//!   insert): an insert can only remove members, and only those the new
//!   route comes strictly closer to than the query, so exactly those are
//!   re-judged by the admission kernel; the ones that leave become one
//!   `left`-only delta with [`DeltaReason::RouteInserted`]. Counted
//!   *stable*.
//! * **Route removals are applied in place** as well (the journal's
//!   `admit_candidates`, again the cached results' own step): a removal can
//!   only add members, and every transition that can enter lies in the
//!   removed route's own RkNNT answer at the largest watched or cached `k`,
//!   which the update path computes once per removal; its non-members with
//!   an endpoint the removed route was strictly closer to are judged by the
//!   admission kernel, and the ones that enter become one `entered`-only
//!   delta with [`DeltaReason::RouteRemoved`]. Counted *stable*.
//!
//! No update re-executes a subscription.
//!
//! Replaying a subscription's deltas, in order, over any earlier snapshot of
//! its result always reproduces the current result — the determinism suite
//! in `tests/service_monitor.rs` asserts this against freshly built
//! post-churn state, by each of the four engines, under both semantics.
//!
//! [`QueryService::apply_updates`]: crate::QueryService::apply_updates
//! [`StoreUpdate`]: crate::StoreUpdate

use crate::journal::{admit_candidates, recheck_members, replay, TransitionOp};
use crate::metrics::ServiceMetrics;
use rknnt_core::{QueryScratch, RknntQuery};
use rknnt_geo::Point;
use rknnt_index::{RouteId, RouteStore, TransitionId};
use std::collections::BTreeMap;

/// Opaque handle to a standing query registered with
/// [`QueryService::subscribe`].
///
/// [`QueryService::subscribe`]: crate::QueryService::subscribe
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SubscriptionId(pub(crate) u64);

impl SubscriptionId {
    /// The raw numeric id (stable for the lifetime of the service).
    pub fn raw(&self) -> u64 {
        self.0
    }
}

impl std::fmt::Display for SubscriptionId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "sub#{}", self.0)
    }
}

/// Why a [`SubscriptionDelta`] was emitted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeltaReason {
    /// A member transition expired; the result was updated in place without
    /// re-execution.
    TransitionExpired,
    /// A transition arrived that qualifies; the result was updated in place
    /// without re-execution.
    TransitionArrived,
    /// A route was withdrawn that had been strictly closer than the query
    /// to endpoints that then qualified; their transitions entered in
    /// place, without re-execution (the delta only ever has `entered` ids).
    RouteRemoved,
    /// A route was inserted that came strictly closer than the query to
    /// members that then stopped qualifying; they left in place, without
    /// re-execution (the delta only ever has `left` ids).
    RouteInserted,
}

/// One incremental change to a subscription's result set.
///
/// Deltas compose: applying a subscription's deltas in emission order to any
/// earlier snapshot of its (sorted) result reproduces the current result.
#[derive(Debug, Clone, PartialEq)]
pub struct SubscriptionDelta {
    /// The subscription the delta belongs to.
    pub subscription: SubscriptionId,
    /// Transitions that entered the result, sorted ascending.
    pub entered: Vec<TransitionId>,
    /// Transitions that left the result, sorted ascending.
    pub left: Vec<TransitionId>,
    /// Why the result changed.
    pub reason: DeltaReason,
}

impl SubscriptionDelta {
    /// Applies the delta to a sorted result snapshot, keeping it sorted.
    pub fn apply(&self, result: &mut Vec<TransitionId>) {
        result.retain(|t| self.left.binary_search(t).is_err());
        for t in &self.entered {
            if let Err(pos) = result.binary_search(t) {
                result.insert(pos, *t);
            }
        }
    }
}

/// One standing query and its maintained state.
pub(crate) struct Subscription {
    pub(crate) query: RknntQuery,
    /// Current result, sorted ascending.
    pub(crate) result: Vec<TransitionId>,
}

/// The store-facing view of one applied [`crate::StoreUpdate`], used to
/// classify subscriptions. Built by `apply_updates` *after* the store
/// mutation succeeded, so classification always runs against post-update
/// stores.
#[derive(Clone, Copy)]
pub(crate) enum UpdateEffect<'a> {
    /// A transition arrived or expired.
    Transition(TransitionOp),
    /// The route with this id was inserted.
    RouteInserted(RouteId),
    /// A route was removed.
    RouteRemoved {
        /// Its points, captured before the stores forgot them.
        removed: &'a [Point],
        /// `RkNNT_∃(removed, k_max)` over the post-removal stores, sorted:
        /// every transition the removal can bring into a result.
        candidates: &'a [TransitionId],
    },
}

/// The registry of live subscriptions. Iteration is in id order
/// (`BTreeMap`), so classification and delta emission are fully
/// deterministic.
#[derive(Default)]
pub(crate) struct SubscriptionRegistry {
    subs: BTreeMap<u64, Subscription>,
    next_id: u64,
    /// Scratch of the admission checks arrivals run.
    scratch: QueryScratch,
}

impl SubscriptionRegistry {
    pub(crate) fn insert(
        &mut self,
        query: RknntQuery,
        result: Vec<TransitionId>,
    ) -> SubscriptionId {
        let id = self.next_id;
        self.next_id += 1;
        self.subs.insert(id, Subscription { query, result });
        SubscriptionId(id)
    }

    pub(crate) fn remove(&mut self, id: SubscriptionId) -> bool {
        self.subs.remove(&id.0).is_some()
    }

    pub(crate) fn len(&self) -> usize {
        self.subs.len()
    }

    pub(crate) fn get(&self, id: SubscriptionId) -> Option<&Subscription> {
        self.subs.get(&id.0)
    }

    /// The largest `k` of a live non-degenerate subscription; 0 when there
    /// is none.
    pub(crate) fn max_k(&self) -> usize {
        self.subs
            .values()
            .filter(|sub| !sub.query.is_degenerate())
            .map(|sub| sub.query.k)
            .max()
            .unwrap_or(0)
    }

    /// Brings every live subscription up to date with one applied update,
    /// in place, against the current `routes`, emitting a delta when the
    /// result changes; `endpoints` resolves a live transition's endpoints
    /// for the members a new route is rechecked against and the candidates
    /// a removal admits from.
    pub(crate) fn classify_update(
        &mut self,
        effect: UpdateEffect<'_>,
        routes: &RouteStore,
        endpoints: impl Fn(TransitionId) -> Option<(Point, Point)>,
        metrics: &ServiceMetrics,
        deltas: &mut Vec<SubscriptionDelta>,
    ) {
        let (mut unaffected, mut stable) = (0u64, 0u64);
        let scratch = &mut self.scratch;
        for (id, sub) in self.subs.iter_mut() {
            if sub.query.is_degenerate() {
                // Constant empty result, immune to churn.
                unaffected += 1;
                continue;
            }
            match effect {
                UpdateEffect::Transition(op) => {
                    // Exact in-place maintenance: qualification of every
                    // other transition depends only on routes, so the result
                    // gains or loses exactly this one id, or nothing.
                    let changed = replay(&sub.query, &mut sub.result, &op, routes, scratch);
                    match (op, changed) {
                        // A membership test was the whole work.
                        (TransitionOp::Expired(_), false) => unaffected += 1,
                        _ => stable += 1,
                    }
                    if changed {
                        let (entered, left, reason) = match op {
                            TransitionOp::Arrived { id, .. } => {
                                (vec![id], Vec::new(), DeltaReason::TransitionArrived)
                            }
                            TransitionOp::Expired(id) => {
                                (Vec::new(), vec![id], DeltaReason::TransitionExpired)
                            }
                        };
                        deltas.push(SubscriptionDelta {
                            subscription: SubscriptionId(*id),
                            entered,
                            left,
                            reason,
                        });
                    }
                }
                UpdateEffect::RouteInserted(route) => {
                    stable += 1;
                    let left = recheck_members(
                        &sub.query,
                        &mut sub.result,
                        routes.route_points(route),
                        routes,
                        &endpoints,
                        scratch,
                    );
                    if !left.is_empty() {
                        deltas.push(SubscriptionDelta {
                            subscription: SubscriptionId(*id),
                            entered: Vec::new(),
                            left,
                            reason: DeltaReason::RouteInserted,
                        });
                    }
                }
                UpdateEffect::RouteRemoved {
                    removed,
                    candidates,
                } => {
                    stable += 1;
                    let entered = admit_candidates(
                        &sub.query,
                        &mut sub.result,
                        removed,
                        candidates,
                        routes,
                        &endpoints,
                        scratch,
                    );
                    if !entered.is_empty() {
                        deltas.push(SubscriptionDelta {
                            subscription: SubscriptionId(*id),
                            entered,
                            left: Vec::new(),
                            reason: DeltaReason::RouteRemoved,
                        });
                    }
                }
            }
        }
        metrics.subs_unaffected.add(unaffected);
        metrics.subs_stable.add(stable);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rknnt_geo::Point;

    fn id(raw: u32) -> TransitionId {
        TransitionId(raw)
    }

    #[test]
    fn delta_apply_composes_enter_and_leave() {
        let mut result = vec![id(1), id(4), id(9)];
        let delta = SubscriptionDelta {
            subscription: SubscriptionId(0),
            entered: vec![id(2), id(7)],
            left: vec![id(4)],
            reason: DeltaReason::TransitionArrived,
        };
        delta.apply(&mut result);
        assert_eq!(result, vec![id(1), id(2), id(7), id(9)]);
        // Applying an expiry delta removes exactly the member.
        let expiry = SubscriptionDelta {
            subscription: SubscriptionId(0),
            entered: Vec::new(),
            left: vec![id(7)],
            reason: DeltaReason::TransitionExpired,
        };
        expiry.apply(&mut result);
        assert_eq!(result, vec![id(1), id(2), id(9)]);
        // Idempotent against ids already present/absent.
        expiry.apply(&mut result);
        assert_eq!(result, vec![id(1), id(2), id(9)]);
    }

    #[test]
    fn registry_assigns_fresh_increasing_ids() {
        let mut registry = SubscriptionRegistry::default();
        let query = RknntQuery::exists(vec![Point::new(0.0, 0.0), Point::new(1.0, 0.0)], 1);
        let a = registry.insert(query.clone(), Vec::new());
        let b = registry.insert(query.clone(), Vec::new());
        assert!(a.raw() < b.raw());
        assert_eq!(registry.len(), 2);
        assert!(registry.remove(a));
        assert!(!registry.remove(a), "double unsubscribe must fail");
        assert_eq!(registry.len(), 1);
        // Ids are never reused.
        let c = registry.insert(query, Vec::new());
        assert!(c.raw() > b.raw());
        assert_eq!(format!("{c}"), format!("sub#{}", c.raw()));
    }
}
