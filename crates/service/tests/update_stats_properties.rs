//! Property test: after any random batch of store updates, the
//! [`UpdateStats`] counters must be mutually consistent with the observable
//! cache and subscription state — counters are load-bearing for the bench
//! gate and the monitoring experiments, so they may never drift from what
//! the service actually did.

use proptest::prelude::*;
use rknnt_core::{EngineKind, RknntQuery, Semantics};
use rknnt_geo::Point;
use rknnt_index::{RouteId, TransitionId};
use rknnt_service::{QueryService, ServiceConfig, StoreUpdate, SubscriptionId, UpdateStats};
use std::collections::BTreeMap;

fn p(x: f64, y: f64) -> Point {
    Point::new(x, y)
}

/// One raw update draw: an op selector plus coordinates / id draws, turned
/// into a concrete [`StoreUpdate`] against the live-id lists at apply time.
type RawUpdate = (u8, f64, f64, f64, f64, u64);

fn raw_updates(max: usize) -> impl Strategy<Value = Vec<RawUpdate>> {
    prop::collection::vec(
        (
            0u8..6,
            -40.0f64..120.0,
            -40.0f64..120.0,
            -40.0f64..120.0,
            -40.0f64..120.0,
            0u64..u64::MAX,
        ),
        1..max,
    )
}

/// Builds a small ladder world with a handful of live subscriptions.
fn build_service() -> (QueryService, Vec<SubscriptionId>) {
    let mut routes = rknnt_index::RouteStore::default();
    for i in 0..8 {
        let y = i as f64 * 10.0;
        routes
            .insert_route((0..8).map(|j| p(j as f64 * 10.0, y)).collect())
            .unwrap();
    }
    let mut transitions = rknnt_index::TransitionStore::default();
    for i in 0..40u32 {
        let ox = (i as f64 * 7.3) % 80.0;
        let oy = (i as f64 * 13.7) % 90.0;
        let dx = (i as f64 * 3.1 + 11.0) % 80.0;
        let dy = (i as f64 * 17.9 + 23.0) % 90.0;
        transitions.insert(p(ox, oy), p(dx, dy)).unwrap();
    }
    let mut service = QueryService::new(
        routes,
        transitions,
        ServiceConfig::default().with_workers(1),
    );
    let mut subs = Vec::new();
    for (route, k, semantics) in [
        (
            vec![p(5.0, 35.0), p(35.0, 35.0), p(65.0, 35.0)],
            2,
            Semantics::Exists,
        ),
        (vec![p(5.0, 15.0), p(65.0, 15.0)], 1, Semantics::ForAll),
        (
            vec![p(0.0, 55.0), p(40.0, 55.0), p(70.0, 55.0)],
            3,
            Semantics::Exists,
        ),
        (Vec::new(), 2, Semantics::Exists), // degenerate: permanently empty
    ] {
        subs.push(service.subscribe(RknntQuery {
            route,
            k,
            semantics,
        }));
    }
    (service, subs)
}

/// Resolves a raw draw into a concrete update, biased so every kind occurs:
/// 0/1 insert transitions, 2 expires, 3 inserts a route, 4 removes a route,
/// 5 is an intentionally rejected update (unknown id or bad geometry).
fn resolve(
    raw: &RawUpdate,
    live_transitions: &mut Vec<TransitionId>,
    live_routes: &mut Vec<RouteId>,
) -> StoreUpdate {
    let (op, a, b, c, d, draw) = *raw;
    match op {
        0 | 1 => StoreUpdate::InsertTransition {
            origin: p(a, b),
            destination: p(c, d),
        },
        2 if !live_transitions.is_empty() => {
            let victim = draw as usize % live_transitions.len();
            StoreUpdate::ExpireTransition(live_transitions.swap_remove(victim))
        }
        3 => StoreUpdate::InsertRoute(vec![p(a, b), p(c, d), p(a + 5.0, b + 5.0)]),
        4 if live_routes.len() > 3 => {
            let victim = draw as usize % live_routes.len();
            StoreUpdate::RemoveRoute(live_routes.swap_remove(victim))
        }
        // Rejected at the store boundary: unknown ids / non-finite points.
        _ => {
            if draw % 2 == 0 {
                StoreUpdate::ExpireTransition(TransitionId(u32::MAX - 7))
            } else {
                StoreUpdate::InsertTransition {
                    origin: p(f64::NAN, a),
                    destination: p(c, d),
                }
            }
        }
    }
}

/// Counts how many applied updates were route removals in this batch.
fn count_route_removals(batch: &[StoreUpdate]) -> usize {
    batch
        .iter()
        .filter(|u| matches!(u, StoreUpdate::RemoveRoute(_)))
        .count()
}

fn check_batch_invariants(
    service: &QueryService,
    stats: &UpdateStats,
    batch_len: usize,
    pre_cache_len: usize,
    pre_results: &BTreeMap<SubscriptionId, Vec<TransitionId>>,
    route_removals: usize,
) {
    let subs = service.subscriptions();
    // Every update either applied or was rejected.
    assert_eq!(stats.applied + stats.rejected, batch_len);
    assert!(stats.inserted_transitions.len() + stats.inserted_routes.len() <= stats.applied);
    // Cache bookkeeping: apply_updates never inserts, so the pre-call
    // population is exactly split between evicted and retained.
    assert_eq!(stats.retained_entries, service.cache_len());
    assert_eq!(
        pre_cache_len,
        stats.evicted_entries + stats.retained_entries
    );
    // Every applied route removal dropped the whole cache; a route insert
    // keeps it.
    assert_eq!(stats.full_drops, route_removals);
    if route_removals > 0 {
        assert_eq!(stats.retained_entries, 0);
    }
    // Subscription classification: each sub is dirtied at most once and
    // every dirtied sub is re-executed exactly once.
    assert_eq!(stats.subs_dirty, stats.subs_reexecuted);
    assert!(stats.subs_reexecuted <= subs);
    // Each applied update classifies every not-yet-dirty subscription
    // exactly once: at most subs per update, and no fewer than the
    // not-yet-dirty population can account for.
    let classifications = stats.subs_unaffected + stats.subs_stable + stats.subs_dirty;
    assert!(classifications <= stats.applied * subs);
    assert!(
        classifications + stats.applied.saturating_sub(1) * stats.subs_dirty
            >= stats.applied * subs,
        "classifications {} cannot be explained by {} applied updates over \
         {} subs with {} dirty marks",
        classifications,
        stats.applied,
        subs,
        stats.subs_dirty,
    );
    // Deltas: disjoint id sets, known subscriptions, and replaying them
    // over the pre-call snapshots reproduces the post-call results.
    let mut replayed = pre_results.clone();
    for delta in &stats.deltas {
        assert!(delta.entered.iter().all(|t| !delta.left.contains(t)));
        assert!(!delta.entered.is_empty() || !delta.left.is_empty());
        let result = replayed
            .get_mut(&delta.subscription)
            .expect("delta for a live subscription");
        delta.apply(result);
    }
    for (id, result) in &replayed {
        assert_eq!(
            service.subscription_result(*id).unwrap(),
            result.as_slice(),
            "delta replay must reproduce the maintained result"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Counters stay consistent over single-update calls and multi-update
    /// batches, and the maintained subscription results always match a
    /// fresh engine over the final stores.
    #[test]
    fn update_stats_are_consistent_with_observable_state(
        raws in raw_updates(24),
        batched in any::<bool>(),
    ) {
        let (mut service, subs) = build_service();
        let mut live_transitions = service.transitions().transition_ids();
        let mut live_routes = service.routes().route_ids();

        // Warm the cache so evictions have something to act on.
        for id in &subs {
            if let Some(query) = service.subscription_query(*id) {
                let query = query.clone();
                let _ = service.execute(&query);
            }
        }

        let snapshot = |service: &QueryService| -> BTreeMap<SubscriptionId, Vec<TransitionId>> {
            subs.iter()
                .map(|id| (*id, service.subscription_result(*id).unwrap().to_vec()))
                .collect()
        };

        let mut pending: Vec<StoreUpdate> = Vec::new();
        for raw in &raws {
            pending.push(resolve(raw, &mut live_transitions, &mut live_routes));
            // Batched mode groups updates 3 at a time; unbatched applies
            // each immediately (exercising per-update counter equality).
            if !batched || pending.len() == 3 {
                let batch = std::mem::take(&mut pending);
                let batch_len = batch.len();
                // Removal draws always come from the live-id list, so every
                // generated route removal applies — an independent ground
                // truth for full_drops.
                let route_removals = count_route_removals(&batch);
                let pre_cache_len = service.cache_len();
                let pre_results = snapshot(&service);
                let stats = service.apply_updates(batch);
                check_batch_invariants(
                    &service,
                    &stats,
                    batch_len,
                    pre_cache_len,
                    &pre_results,
                    route_removals,
                );
                live_transitions.extend(stats.inserted_transitions.iter().copied());
                live_routes.extend(stats.inserted_routes.iter().copied());
            }
        }
        if !pending.is_empty() {
            let batch = std::mem::take(&mut pending);
            let batch_len = batch.len();
            let route_removals = count_route_removals(&batch);
            let pre_cache_len = service.cache_len();
            let pre_results = snapshot(&service);
            let stats = service.apply_updates(batch);
            check_batch_invariants(
                &service,
                &stats,
                batch_len,
                pre_cache_len,
                &pre_results,
                route_removals,
            );
        }

        // Final ground truth: every maintained result equals a fresh
        // engine over the final stores.
        let fresh = EngineKind::BruteForce.build(service.routes(), service.transitions());
        for id in &subs {
            let query = service.subscription_query(*id).unwrap();
            prop_assert_eq!(
                service.subscription_result(*id).unwrap(),
                fresh.execute(query).transitions.as_slice()
            );
        }
    }
}
