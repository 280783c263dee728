//! Continuous RkNNT subscriptions: standing queries kept current across
//! [`QueryService::apply_updates`], with per-batch result deltas.
//!
//! A subscription is a registered [`RknntQuery`] whose result the service
//! maintains as the stores churn, instead of the client re-polling. It is
//! the same maintained result a cached entry is — a query, its sorted ids
//! and their strictly-closer counts (`journal::Maintained`) — and every
//! applied [`StoreUpdate`] takes it through the same step
//! (`Maintained::follow`), eagerly, in id order. The ids the step reports
//! become one delta, its reason read off the update:
//!
//! * **a transition arrival or expiry**: membership of a transition depends
//!   only on its own endpoints and the routes, so an arrival enters iff its
//!   nearest-route certificate admits it — [`DeltaReason::TransitionArrived`]
//!   — and an expiry leaves iff it was a member —
//!   [`DeltaReason::TransitionExpired`]. Subscriptions judge an arrival
//!   before it is journalled, so the first one to need an endpoint's
//!   certificate computes it and every later subscription and cached entry
//!   reuses it. Counted *unaffected* when no geometry ran (a degenerate
//!   query, an expired non-member) and *stable* otherwise.
//! * **a route insert** can only remove members, and only by coming
//!   strictly closer than the query to an endpoint, which adds one to the
//!   strictly-closer count every member keeps per endpoint; a member whose
//!   counts stop qualifying it leaves (an ∃ member's endpoint that held no
//!   count is counted once first), and the ones that leave become one
//!   `left`-only delta with [`DeltaReason::RouteInserted`]. Counted
//!   *stable*.
//! * **a route removal** can only add members, and every transition that
//!   can enter lies in the removed route's own RkNNT answer at the largest
//!   watched or cached `k`, which the update path computes once per
//!   removal; its members there count the removed route out, its
//!   non-members with an endpoint the removed route was strictly closer to
//!   are judged by the candidate's certificate, shared with every cached
//!   result, and the ones that enter become one `entered`-only delta with
//!   [`DeltaReason::RouteRemoved`]. Counted *stable*.
//!
//! No update re-executes a subscription.
//!
//! Replaying a subscription's deltas, in order, over any earlier snapshot of
//! its result always reproduces the current result — the repository's
//! tier-1 `tests/serving_layers.rs` asserts this against brute force after
//! every step, under both semantics, on every serving configuration.
//!
//! [`QueryService::apply_updates`]: crate::QueryService::apply_updates
//! [`RknntQuery`]: rknnt_core::RknntQuery
//! [`StoreUpdate`]: crate::StoreUpdate

use crate::journal::{Effect, Maintained, TransitionOp};
use crate::metrics::ServiceMetrics;
use rknnt_core::CertificateScratch;
use rknnt_geo::Point;
use rknnt_index::{RouteStore, TransitionId};
use std::collections::BTreeMap;

/// Handle to a standing query registered with [`QueryService::subscribe`]:
/// the raw id the service issued, which a client over the wire holds as a
/// number (an id never issued names no subscription).
///
/// [`QueryService::subscribe`]: crate::QueryService::subscribe
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SubscriptionId(pub u64);

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

/// The registry of live subscriptions, each a [`Maintained`] result.
/// Iteration is in id order (`BTreeMap`), so classification and delta
/// emission are fully deterministic.
#[derive(Default)]
pub(crate) struct SubscriptionRegistry {
    subs: BTreeMap<u64, Maintained>,
    next_id: u64,
}

impl SubscriptionRegistry {
    /// Registers a standing query with its current result.
    pub(crate) fn insert(&mut self, result: Maintained) -> SubscriptionId {
        let id = self.next_id;
        self.next_id += 1;
        self.subs.insert(id, result);
        SubscriptionId(id)
    }

    pub(crate) fn remove(&mut self, id: SubscriptionId) -> bool {
        self.subs.remove(&id.0).is_some()
    }

    pub(crate) fn len(&self) -> usize {
        self.subs.len()
    }

    pub(crate) fn get(&self, id: SubscriptionId) -> Option<&Maintained> {
        self.subs.get(&id.0)
    }

    /// Every live subscription with its result, in id order.
    pub(crate) fn iter_mut(&mut self) -> impl Iterator<Item = (SubscriptionId, &mut Maintained)> {
        let subs = self.subs.iter_mut();
        subs.map(|(id, sub)| (SubscriptionId(*id), sub))
    }

    /// The live subscriptions' results.
    pub(crate) fn results(&self) -> impl Iterator<Item = &Maintained> {
        self.subs.values()
    }

    /// Has every live subscription follow one applied update, in place,
    /// against the current `routes` ([`Maintained::follow`], `endpoints`
    /// resolving the members and `walk` holding the certificate walks'
    /// buffers), emitting a delta when the result changes and counting the
    /// classification. The certificates `effect` carries are filled as far
    /// as the judgements need them.
    pub(crate) fn follow(
        &mut self,
        effect: &mut Effect<'_>,
        routes: &RouteStore,
        endpoints: impl Fn(TransitionId) -> Option<(Point, Point)>,
        walk: &mut CertificateScratch,
        metrics: &ServiceMetrics,
        deltas: &mut Vec<SubscriptionDelta>,
    ) {
        let (mut unaffected, mut stable) = (0u64, 0u64);
        for (id, sub) in self.subs.iter_mut() {
            if sub.query.is_degenerate() {
                // Constant empty result, immune to churn.
                unaffected += 1;
                continue;
            }
            let changed = sub.follow(effect, routes, &endpoints, walk);
            match effect {
                // A membership test was the whole work.
                Effect::Transition(TransitionOp::Expired(_)) if changed.is_empty() => {
                    unaffected += 1
                }
                _ => stable += 1,
            }
            if changed.is_empty() {
                continue;
            }
            let (entered, left, reason) = match effect {
                Effect::Transition(TransitionOp::Arrived { .. }) => {
                    (changed, Vec::new(), DeltaReason::TransitionArrived)
                }
                Effect::Transition(TransitionOp::Expired(_)) => {
                    (Vec::new(), changed, DeltaReason::TransitionExpired)
                }
                Effect::RouteInserted(_) => (Vec::new(), changed, DeltaReason::RouteInserted),
                Effect::RouteRemoved(_) => (changed, Vec::new(), DeltaReason::RouteRemoved),
            };
            deltas.push(SubscriptionDelta {
                subscription: SubscriptionId(*id),
                entered,
                left,
                reason,
            });
        }
        metrics.subs_unaffected.add(unaffected);
        metrics.subs_stable.add(stable);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rknnt_core::RknntQuery;

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
        let result = || Maintained {
            query: query.clone(),
            ids: Vec::new(),
            bounds: Vec::new(),
        };
        let a = registry.insert(result());
        let b = registry.insert(result());
        assert!(a.raw() < b.raw());
        assert_eq!(registry.len(), 2);
        assert!(registry.remove(a));
        assert!(!registry.remove(a), "double unsubscribe must fail");
        assert_eq!(registry.len(), 1);
        // Ids are never reused.
        let c = registry.insert(result());
        assert!(c.raw() > b.raw());
        assert_eq!(format!("{c}"), format!("sub#{}", c.raw()));
    }
}
