//! Continuous-subscription determinism: applying a random churn stream to a
//! service with live subscriptions must yield, after replaying the emitted
//! deltas, result sets byte-identical to re-executing every subscription
//! against a freshly built post-churn state — by each of the four engines,
//! under both semantics. Nothing the monitor skips or maintains in place may
//! ever diverge from brute re-execution.

use rknnt_core::{EngineKind, RknntQuery, Semantics};
use rknnt_data::{
    workload, CityConfig, CityGenerator, SubscriptionEvent, SubscriptionStreamConfig,
    TransitionConfig, TransitionGenerator,
};
use rknnt_geo::Point;
use rknnt_index::{TransitionId, TransitionStore};
use rknnt_service::{DeltaReason, QueryService, ServiceConfig, StoreUpdate, SubscriptionId};
use std::collections::BTreeMap;

fn p(x: f64, y: f64) -> Point {
    Point::new(x, y)
}

/// Replays a subscription stream through a monitored service while keeping
/// a shadow store pair and per-subscription delta-replayed results; checks
/// after every update batch that replayed results match a fresh `oracle`
/// engine over the shadow state.
fn run_monitored_churn(oracle: EngineKind, semantics: Semantics, seed: u64) {
    let city = CityGenerator::new(CityConfig::small(seed)).generate();
    let routes = city.route_store();
    let transitions = TransitionGenerator::new(TransitionConfig::checkin_like(700, seed ^ 0x5e))
        .generate_store(&city);

    let mut shadow_routes = routes.clone();
    let mut shadow_transitions = transitions.clone();
    let mut live_transitions = transitions.transition_ids();
    let mut live_routes = routes.route_ids();

    let mut service = QueryService::new(
        routes,
        transitions,
        ServiceConfig::default().with_workers(2),
    );

    // Replayed results: what a client that only consumes deltas believes.
    let mut replayed: BTreeMap<SubscriptionId, Vec<TransitionId>> = BTreeMap::new();
    let mut live_subs: Vec<SubscriptionId> = Vec::new();

    let config = SubscriptionStreamConfig::new(160, 0.5, seed ^ 0xfeed);
    let stream = workload::subscription_stream(&city, &config);
    assert!(!stream.is_empty());

    let mut k_counter = 0usize;
    let mut checked = 0usize;

    let check_all = |service: &QueryService,
                     replayed: &BTreeMap<SubscriptionId, Vec<TransitionId>>,
                     shadow_routes: &rknnt_index::RouteStore,
                     shadow_transitions: &TransitionStore,
                     checked: &mut usize| {
        let fresh = oracle.build(shadow_routes, shadow_transitions);
        for (id, replayed_result) in replayed {
            let query = service
                .subscription_query(*id)
                .expect("live subscription has a query");
            let expected = fresh.execute(query).transitions;
            assert_eq!(
                service.subscription_result(*id).unwrap(),
                expected.as_slice(),
                "maintained result diverged from fresh post-churn state \
                 ({oracle} {semantics:?})"
            );
            assert_eq!(
                replayed_result, &expected,
                "delta-replayed result diverged from fresh post-churn state \
                 ({oracle} {semantics:?})"
            );
            *checked += 1;
        }
    };

    for event in stream {
        match event {
            SubscriptionEvent::Subscribe(route) => {
                let k = 1 + k_counter % 4;
                k_counter += 1;
                let query = RknntQuery {
                    route,
                    k,
                    semantics,
                };
                let id = service.subscribe(query);
                // The client snapshots the initial result, then follows
                // deltas only.
                replayed.insert(id, service.subscription_result(id).unwrap().to_vec());
                live_subs.push(id);
            }
            SubscriptionEvent::Unsubscribe(draw) => {
                if live_subs.is_empty() {
                    continue;
                }
                let victim = live_subs.swap_remove(draw as usize % live_subs.len());
                assert!(service.unsubscribe(victim));
                assert!(!service.unsubscribe(victim));
                replayed.remove(&victim);
            }
            SubscriptionEvent::Update(update_event) => {
                let update = match update_event {
                    workload::ChurnEvent::InsertTransition(origin, destination) => {
                        StoreUpdate::InsertTransition {
                            origin,
                            destination,
                        }
                    }
                    workload::ChurnEvent::ExpireTransition(draw) => {
                        if live_transitions.is_empty() {
                            continue;
                        }
                        let victim = draw as usize % live_transitions.len();
                        StoreUpdate::ExpireTransition(live_transitions.swap_remove(victim))
                    }
                    workload::ChurnEvent::InsertRoute(points) => StoreUpdate::InsertRoute(points),
                    workload::ChurnEvent::RemoveRoute(draw) => {
                        if live_routes.len() <= 4 {
                            continue;
                        }
                        let victim = draw as usize % live_routes.len();
                        StoreUpdate::RemoveRoute(live_routes.swap_remove(victim))
                    }
                    workload::ChurnEvent::Query(_) => {
                        unreachable!("subscription_stream updates never contain queries")
                    }
                };
                // Mirror into the shadow stores.
                match &update {
                    StoreUpdate::InsertTransition {
                        origin,
                        destination,
                    } => {
                        let id = shadow_transitions.insert(*origin, *destination);
                        assert!(id.is_some());
                    }
                    StoreUpdate::ExpireTransition(id) => {
                        assert!(shadow_transitions.remove(*id));
                    }
                    StoreUpdate::InsertRoute(points) => {
                        assert!(shadow_routes.insert_route(points.clone()).is_some());
                    }
                    StoreUpdate::RemoveRoute(id) => {
                        assert!(shadow_routes.remove_route(*id));
                    }
                }
                let stats = service.apply_updates(vec![update]);
                assert_eq!(stats.applied, 1);
                live_transitions.extend(stats.inserted_transitions.iter().copied());
                live_routes.extend(stats.inserted_routes.iter().copied());
                // A subscription is marked dirty at most once per call.
                assert_eq!(stats.subs_dirty, stats.subs_reexecuted);
                // One update, every live sub classified exactly once.
                assert_eq!(
                    stats.subs_unaffected + stats.subs_stable + stats.subs_dirty,
                    service.subscriptions(),
                    "three-way classification must cover every subscription"
                );
                // The client replays the deltas.
                for delta in &stats.deltas {
                    assert!(
                        delta.entered.iter().all(|t| !delta.left.contains(t)),
                        "entered and left must be disjoint"
                    );
                    if let Some(result) = replayed.get_mut(&delta.subscription) {
                        delta.apply(result);
                    }
                    if delta.reason == DeltaReason::TransitionExpired {
                        assert!(delta.entered.is_empty());
                        assert_eq!(delta.left.len(), 1);
                    }
                }
                check_all(
                    &service,
                    &replayed,
                    &shadow_routes,
                    &shadow_transitions,
                    &mut checked,
                );
            }
        }
    }
    check_all(
        &service,
        &replayed,
        &shadow_routes,
        &shadow_transitions,
        &mut checked,
    );
    assert!(checked > 50, "stream must actually exercise subscriptions");
}

#[test]
fn monitored_churn_matches_fresh_state_filter_refine() {
    run_monitored_churn(EngineKind::FilterRefine, Semantics::Exists, 21);
    run_monitored_churn(EngineKind::FilterRefine, Semantics::ForAll, 22);
}

#[test]
fn monitored_churn_matches_fresh_state_voronoi() {
    run_monitored_churn(EngineKind::Voronoi, Semantics::Exists, 23);
    run_monitored_churn(EngineKind::Voronoi, Semantics::ForAll, 24);
}

#[test]
fn monitored_churn_matches_fresh_state_divide_conquer() {
    run_monitored_churn(EngineKind::DivideConquer, Semantics::Exists, 25);
    run_monitored_churn(EngineKind::DivideConquer, Semantics::ForAll, 26);
}

#[test]
fn monitored_churn_matches_fresh_state_brute_force() {
    run_monitored_churn(EngineKind::BruteForce, Semantics::Exists, 27);
    run_monitored_churn(EngineKind::BruteForce, Semantics::ForAll, 28);
}

/// A hand-built world where every classification outcome is observable:
/// unaffected skips, stable in-place maintenance, in-place expiry and route
/// insert deltas, and the dirty re-execution every route removal causes.
#[test]
fn classification_outcomes_and_delta_reasons() {
    let mut routes = rknnt_index::RouteStore::default();
    for i in 0..8 {
        let y = i as f64 * 10.0;
        routes
            .insert_route((0..8).map(|j| p(j as f64 * 10.0, y)).collect())
            .unwrap();
    }
    let mut transitions = TransitionStore::default();
    let near = transitions.insert(p(34.0, 36.0), p(36.0, 34.0)).unwrap();
    let far = transitions.insert(p(35.0, 300.0), p(40.0, 300.0)).unwrap();
    let mut service = QueryService::new(
        routes,
        transitions,
        ServiceConfig::default().with_workers(1),
    );

    let query = RknntQuery::exists(vec![p(5.0, 35.0), p(35.0, 35.0), p(65.0, 35.0)], 2);
    let sub = service.subscribe(query.clone());
    assert_eq!(service.subscriptions(), 1);
    assert_eq!(service.subscription_query(sub), Some(&query));
    let initial = service.subscription_result(sub).unwrap().to_vec();
    assert!(initial.contains(&near));
    assert!(!initial.contains(&far));

    // 1. Far transition insert: the admission kernel rejects it — stable,
    //    no delta.
    let stats = service.apply_updates(vec![StoreUpdate::InsertTransition {
        origin: p(33.0, 299.0),
        destination: p(37.0, 301.0),
    }]);
    assert_eq!(stats.subs_stable, 1);
    assert_eq!(stats.subs_reexecuted, 0);
    assert!(stats.deltas.is_empty());
    assert_eq!(service.subscription_result(sub).unwrap(), &initial[..]);

    // 2. Near transition insert: admitted in place, delta enters the id.
    let stats = service.apply_updates(vec![StoreUpdate::InsertTransition {
        origin: p(34.5, 35.5),
        destination: p(35.5, 34.5),
    }]);
    let new_id = stats.inserted_transitions[0];
    assert_eq!(stats.subs_dirty, 0);
    assert_eq!(stats.subs_reexecuted, 0, "an arrival never re-executes");
    assert_eq!(stats.deltas.len(), 1);
    assert_eq!(stats.deltas[0].subscription, sub);
    assert_eq!(stats.deltas[0].reason, DeltaReason::TransitionArrived);
    assert_eq!(stats.deltas[0].entered, vec![new_id]);
    assert!(stats.deltas[0].left.is_empty());
    assert!(service.subscription_result(sub).unwrap().contains(&new_id));

    // 3. Expiring a non-member: unaffected, no delta.
    let stats = service.apply_updates(vec![StoreUpdate::ExpireTransition(far)]);
    assert_eq!(stats.subs_unaffected, 1);
    assert!(stats.deltas.is_empty());

    // 4. Expiring a member: in-place maintenance, TransitionExpired delta.
    let stats = service.apply_updates(vec![StoreUpdate::ExpireTransition(near)]);
    assert_eq!(stats.subs_stable, 1);
    assert_eq!(stats.subs_reexecuted, 0, "member expiry never re-executes");
    assert_eq!(stats.deltas.len(), 1);
    assert_eq!(stats.deltas[0].reason, DeltaReason::TransitionExpired);
    assert_eq!(stats.deltas[0].left, vec![near]);
    assert!(!service.subscription_result(sub).unwrap().contains(&near));

    // 5. A far route insert: rechecked in place (stable), no member has it
    //    strictly closer, no delta, nothing re-executed.
    let stats = service.apply_updates(vec![StoreUpdate::InsertRoute(
        (0..4).map(|i| p(300.0 + i as f64 * 10.0, 300.0)).collect(),
    )]);
    assert_eq!(stats.subs_stable, 1);
    assert_eq!((stats.subs_dirty, stats.subs_reexecuted), (0, 0));
    assert!(stats.deltas.is_empty());

    // 6. Removing the far ladder rung (no endpoint has it strictly closer
    //    than the query): dirty and re-executed, and the unchanged result
    //    emits no delta.
    let stats = service.apply_updates(vec![StoreUpdate::RemoveRoute(rknnt_index::RouteId(7))]);
    assert_eq!((stats.subs_dirty, stats.subs_reexecuted), (1, 1));
    assert!(stats.deltas.is_empty());

    // 7. Two routes laid through both endpoints of the arrival of step 2:
    //    the first one makes the member leave in place, the second finds
    //    it gone; nothing is re-executed.
    let through = vec![p(34.5, 35.5), p(35.5, 34.5)];
    let stats = service.apply_updates(vec![
        StoreUpdate::InsertRoute(through.clone()),
        StoreUpdate::InsertRoute(through),
    ]);
    assert_eq!((stats.subs_dirty, stats.subs_reexecuted), (0, 0));
    assert_eq!(stats.deltas.len(), 1);
    assert_eq!(stats.deltas[0].reason, DeltaReason::RouteInserted);
    assert_eq!(stats.deltas[0].left, vec![new_id]);
    assert!(stats.deltas[0].entered.is_empty());
    assert!(!service.subscription_result(sub).unwrap().contains(&new_id));

    // 8. Degenerate subscriptions are permanently unaffected.
    let degenerate = service.subscribe(RknntQuery::exists(vec![], 3));
    assert_eq!(
        service.subscription_result(degenerate).unwrap(),
        &[] as &[_]
    );
    let stats = service.apply_updates(vec![StoreUpdate::InsertTransition {
        origin: p(1.0, 1.0),
        destination: p(2.0, 2.0),
    }]);
    assert!(stats.subs_unaffected >= 1);

    // Unsubscribing stops maintenance.
    assert!(service.unsubscribe(sub));
    assert_eq!(service.subscriptions(), 1);
    assert!(service.subscription_result(sub).is_none());
    assert!(service.subscription_query(sub).is_none());
}
