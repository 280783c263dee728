//! Churn determinism: after any sequence of incremental updates
//! ([`QueryService::apply_updates`]) interleaved with query batches, every
//! answer must be byte-identical to a service freshly built from the
//! post-churn store state — i.e. journal replay never serves a stale cached
//! result — checked against all four engines, under both semantics.

use rknnt_core::{EngineKind, RknntQuery, Semantics};
use rknnt_data::{
    workload, ChurnConfig, ChurnEvent, CityConfig, CityGenerator, TransitionConfig,
    TransitionGenerator,
};
use rknnt_geo::Point;
use rknnt_index::{RouteId, RouteStore, TransitionId, TransitionStore};
use rknnt_service::{QueryService, ServiceConfig, StoreUpdate};

fn p(x: f64, y: f64) -> Point {
    Point::new(x, y)
}

/// Replays a churn stream through a service (batched, cached) and through a
/// shadow store pair mutated by the same operations, asserting each query
/// answer matches a fresh `oracle` engine over the shadow state.
fn run_churn(oracle: EngineKind, semantics: Semantics, seed: u64) {
    let city = CityGenerator::new(CityConfig::small(seed)).generate();
    let routes = city.route_store();
    let transitions = TransitionGenerator::new(TransitionConfig::checkin_like(900, seed ^ 0x77))
        .generate_store(&city);

    // The shadow world: the "freshly built from the post-churn state"
    // reference. It receives exactly the same operations in the same order,
    // so ids line up; queries against it go through a brand-new engine each
    // time — no cache, no batching, nothing to go stale.
    let mut shadow_routes = routes.clone();
    let mut shadow_transitions = transitions.clone();

    let mut live_transitions = transitions.transition_ids();
    let mut live_routes = routes.route_ids();
    let mut service = QueryService::new(
        routes,
        transitions,
        ServiceConfig::default().with_workers(2),
    );

    let stream = workload::churn_stream(&city, &ChurnConfig::new(140, 0.3, seed ^ 0xc4a2));
    let mut pending: Vec<RknntQuery> = Vec::new();
    let mut query_counter = 0usize;
    let mut checked = 0usize;

    let flush = |service: &QueryService,
                 pending: &mut Vec<RknntQuery>,
                 shadow_routes: &RouteStore,
                 shadow_transitions: &TransitionStore,
                 checked: &mut usize| {
        if pending.is_empty() {
            return;
        }
        let (results, _) = service.execute_batch(pending);
        let fresh = oracle.build(shadow_routes, shadow_transitions);
        for (query, result) in pending.iter().zip(&results) {
            assert_eq!(
                result.transitions,
                fresh.execute(query).transitions,
                "stale or wrong answer under churn ({oracle} {semantics:?} k={})",
                query.k
            );
            *checked += 1;
        }
        pending.clear();
    };

    for event in stream {
        match event {
            ChurnEvent::Query(route) => {
                let k = 1 + query_counter % 4;
                query_counter += 1;
                pending.push(RknntQuery {
                    route,
                    k,
                    semantics,
                });
                if pending.len() == 4 {
                    flush(
                        &service,
                        &mut pending,
                        &shadow_routes,
                        &shadow_transitions,
                        &mut checked,
                    );
                }
            }
            update_event => {
                // Updates see a consistent view: flush queued queries first.
                flush(
                    &service,
                    &mut pending,
                    &shadow_routes,
                    &shadow_transitions,
                    &mut checked,
                );
                let update = match update_event {
                    ChurnEvent::InsertTransition(origin, destination) => {
                        StoreUpdate::InsertTransition {
                            origin,
                            destination,
                        }
                    }
                    ChurnEvent::ExpireTransition(draw) => {
                        if live_transitions.is_empty() {
                            continue;
                        }
                        let victim = draw as usize % live_transitions.len();
                        StoreUpdate::ExpireTransition(live_transitions.swap_remove(victim))
                    }
                    ChurnEvent::InsertRoute(points) => StoreUpdate::InsertRoute(points),
                    ChurnEvent::RemoveRoute(draw) => {
                        if live_routes.len() <= 4 {
                            continue; // keep the world non-trivial
                        }
                        let victim = draw as usize % live_routes.len();
                        StoreUpdate::RemoveRoute(live_routes.swap_remove(victim))
                    }
                    ChurnEvent::Query(_) => unreachable!(),
                };
                // Mirror into the shadow stores and check the id assignment
                // agrees, then apply through the service.
                match &update {
                    StoreUpdate::InsertTransition {
                        origin,
                        destination,
                    } => {
                        let shadow_id = shadow_transitions.insert(*origin, *destination);
                        let stats = service.apply_updates(vec![update.clone()]);
                        assert_eq!(
                            stats.inserted_transitions,
                            shadow_id.into_iter().collect::<Vec<_>>()
                        );
                        live_transitions.extend(stats.inserted_transitions);
                    }
                    StoreUpdate::ExpireTransition(id) => {
                        assert!(shadow_transitions.remove(*id));
                        let stats = service.apply_updates(vec![update.clone()]);
                        assert_eq!(stats.applied, 1);
                    }
                    StoreUpdate::InsertRoute(points) => {
                        let shadow_id = shadow_routes.insert_route(points.clone());
                        let stats = service.apply_updates(vec![update.clone()]);
                        assert_eq!(
                            stats.inserted_routes,
                            shadow_id.into_iter().collect::<Vec<_>>()
                        );
                        assert_eq!(stats.full_drops, 0, "a route insert keeps the cache");
                        live_routes.extend(stats.inserted_routes);
                    }
                    StoreUpdate::RemoveRoute(id) => {
                        assert!(shadow_routes.remove_route(*id));
                        let cached = service.cache_len();
                        let stats = service.apply_updates(vec![update.clone()]);
                        assert_eq!(stats.applied, 1);
                        assert_eq!(stats.full_drops, 0, "a route removal keeps the cache");
                        assert_eq!(stats.evicted_entries + stats.retained_entries, cached);
                    }
                }
            }
        }
    }
    flush(
        &service,
        &mut pending,
        &shadow_routes,
        &shadow_transitions,
        &mut checked,
    );
    assert!(checked > 40, "stream must actually exercise queries");
    assert!(
        service.cache_stats().hits > 0,
        "the pool cycles queries; some must be served from a cache that \
         survived updates"
    );
}

#[test]
fn churned_service_matches_fresh_state_filter_refine() {
    run_churn(EngineKind::FilterRefine, Semantics::Exists, 11);
    run_churn(EngineKind::FilterRefine, Semantics::ForAll, 12);
}

#[test]
fn churned_service_matches_fresh_state_voronoi() {
    run_churn(EngineKind::Voronoi, Semantics::Exists, 13);
    run_churn(EngineKind::Voronoi, Semantics::ForAll, 14);
}

#[test]
fn churned_service_matches_fresh_state_divide_conquer() {
    run_churn(EngineKind::DivideConquer, Semantics::Exists, 15);
    run_churn(EngineKind::DivideConquer, Semantics::ForAll, 16);
}

#[test]
fn churned_service_matches_fresh_state_brute_force() {
    run_churn(EngineKind::BruteForce, Semantics::Exists, 17);
    run_churn(EngineKind::BruteForce, Semantics::ForAll, 18);
}

/// A hand-built world where each update kind's retention rule is observable:
/// no update evicts — the cached entry follows transition churn, route
/// inserts and route removals, far or near, and the read behind each is a
/// hit equal to a fresh engine.
#[test]
fn every_update_kind_retains_the_cached_entry() {
    // A ladder of 8 horizontal routes; the query runs along y = 35.
    let mut routes = RouteStore::default();
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

    let check_fresh = |service: &QueryService, label: &str| {
        let fresh = EngineKind::FilterRefine.build(service.routes(), service.transitions());
        assert_eq!(
            service.execute(&query).transitions,
            fresh.execute(&query).transitions,
            "{label}"
        );
    };

    let baseline = service.execute(&query);
    assert!(baseline.contains(near), "near transition must qualify");
    assert!(!baseline.contains(far), "far transition must not qualify");
    let hits = |s: &QueryService| s.cache_stats().hits;
    let h0 = hits(&service);
    assert_eq!(service.execute(&query).transitions, baseline.transitions);
    assert_eq!(hits(&service), h0 + 1, "warm cache must hit");

    // 1. Far transition insert: rejected by the admission kernel at the
    //    next read -> entry retained.
    let stats = service.apply_updates(vec![StoreUpdate::InsertTransition {
        origin: p(33.0, 299.0),
        destination: p(37.0, 301.0),
    }]);
    assert_eq!(stats.evicted_entries, 0, "far insert must not evict");
    let h1 = hits(&service);
    assert_eq!(service.execute(&query).transitions, baseline.transitions);
    assert_eq!(hits(&service), h1 + 1, "entry must survive far insert");

    // 2. Near transition insert: nothing is evicted, and the next read is
    //    a hit whose answer already contains the arrival.
    let stats = service.apply_updates(vec![StoreUpdate::InsertTransition {
        origin: p(34.5, 35.5),
        destination: p(35.5, 34.5),
    }]);
    assert_eq!(stats.evicted_entries, 0, "near insert must not evict");
    let new_id = stats.inserted_transitions[0];
    let h = hits(&service);
    let after_near = service.execute(&query);
    assert_eq!(hits(&service), h + 1, "entry must follow the near insert");
    assert!(after_near.contains(new_id));
    check_fresh(&service, "after near insert");

    // 3. Expiring a transition outside the result retains the entry.
    let h2 = hits(&service);
    let stats = service.apply_updates(vec![StoreUpdate::ExpireTransition(far)]);
    assert_eq!(stats.evicted_entries, 0, "expiry outside the result");
    assert_eq!(service.execute(&query).transitions, after_near.transitions);
    assert!(hits(&service) > h2, "entry must survive unrelated expiry");

    // 4. Expiring a member of the result: nothing is evicted, and the next
    //    read is a hit whose answer no longer contains it.
    let stats = service.apply_updates(vec![StoreUpdate::ExpireTransition(near)]);
    assert_eq!(stats.evicted_entries, 0, "expiry inside the result");
    let h = hits(&service);
    assert!(!service.execute(&query).contains(near));
    assert_eq!(hits(&service), h + 1, "entry must follow the member expiry");
    check_fresh(&service, "after member expiry");

    // 5. A far-away route insert retains the entry, and the next read is a
    //    hit.
    let stats = service.apply_updates(vec![StoreUpdate::InsertRoute(
        (0..4).map(|i| p(300.0 + i as f64 * 10.0, 300.0)).collect(),
    )]);
    assert_eq!(stats.full_drops, 0, "far route insert");
    assert_eq!((stats.evicted_entries, stats.retained_entries), (0, 1));
    let h = hits(&service);
    check_fresh(&service, "after far route insert");
    assert_eq!(hits(&service), h + 1, "the read behind a route insert hits");

    // 6. A route straight through the result region retains it too: the
    //    members it comes strictly closer to are re-judged in place.
    let stats = service.apply_updates(vec![StoreUpdate::InsertRoute(
        (0..8).map(|j| p(j as f64 * 10.0 + 2.0, 35.5)).collect(),
    )]);
    assert_eq!(stats.full_drops, 0, "route through the result region");
    assert_eq!((stats.evicted_entries, stats.retained_entries), (0, 1));
    let h = hits(&service);
    check_fresh(&service, "after near route insert");
    assert_eq!(hits(&service), h + 1, "the read behind a route insert hits");

    // 7. Removing the far ladder rung (y = 70), which changes no answer,
    //    retains the entry, and the next read is a hit.
    let stats = service.apply_updates(vec![StoreUpdate::RemoveRoute(RouteId(7))]);
    assert_eq!(stats.full_drops, 0, "far rung removal");
    assert_eq!((stats.evicted_entries, stats.retained_entries), (0, 1));
    let h = hits(&service);
    check_fresh(&service, "after far route removal");
    assert_eq!(
        hits(&service),
        h + 1,
        "the read behind a route removal hits"
    );

    // 8. Removing a rung adjacent to the query retains it too: what the
    //    rung hid is admitted in place.
    let stats = service.apply_updates(vec![StoreUpdate::RemoveRoute(RouteId(4))]);
    assert_eq!(stats.applied, 1);
    assert_eq!(stats.full_drops, 0, "near rung removal");
    assert_eq!((stats.evicted_entries, stats.retained_entries), (0, 1));
    let h = hits(&service);
    check_fresh(&service, "after near route removal");
    assert_eq!(
        hits(&service),
        h + 1,
        "the read behind a route removal hits"
    );

    // Rejected updates mutate nothing and are counted.
    let before_len = service.transitions().len();
    let stats = service.apply_updates(vec![
        StoreUpdate::InsertTransition {
            origin: p(f64::NAN, 0.0),
            destination: p(1.0, 1.0),
        },
        StoreUpdate::InsertRoute(vec![p(0.0, 0.0)]),
        StoreUpdate::ExpireTransition(TransitionId(9_999)),
        StoreUpdate::RemoveRoute(RouteId(9_999)),
    ]);
    assert_eq!(stats.applied, 0);
    assert_eq!(stats.rejected, 4);
    assert_eq!(service.transitions().len(), before_len);
}
