//! The service's central contract: batched / parallel / cached execution
//! returns byte-identical transition sets to sequential per-query
//! [`RknnTEngine::execute`] of all four engines, under both semantics — and
//! the cache never serves results across a store mutation.
//!
//! [`RknnTEngine::execute`]: rknnt_core::RknnTEngine::execute

use rknnt_core::{EngineKind, RknntQuery, Semantics};
use rknnt_data::{workload, CityConfig, CityGenerator, TransitionConfig, TransitionGenerator};
use rknnt_geo::Point;
use rknnt_index::{RouteStore, TransitionStore};
use rknnt_service::{QueryService, ServiceConfig};

fn build_world(seed: u64, transitions: usize) -> (Vec<Vec<Point>>, RouteStore, TransitionStore) {
    let city = CityGenerator::new(CityConfig::small(seed)).generate();
    let routes = city.route_store();
    let store = TransitionGenerator::new(TransitionConfig::checkin_like(transitions, seed ^ 0x77))
        .generate_store(&city);
    let queries = workload::rknnt_queries(&city, 6, 4, 1_200.0, seed ^ 0x3);
    (queries, routes, store)
}

/// A mixed batch: spatially spread queries, exact duplicates, and the same
/// route under both semantics and several k values — the shapes the
/// shared-filter and coalescing paths must handle.
fn mixed_batch(query_routes: &[Vec<Point>]) -> Vec<RknntQuery> {
    let mut batch = Vec::new();
    for (i, route) in query_routes.iter().enumerate() {
        let k = 1 + (i % 3) * 4;
        batch.push(RknntQuery::exists(route.clone(), k));
        batch.push(RknntQuery::for_all(route.clone(), k));
        // Same (route, k) twice -> filter reuse; identical query -> coalesce.
        batch.push(RknntQuery::exists(route.clone(), k));
    }
    // A couple of degenerate queries must flow through unharmed.
    batch.push(RknntQuery::exists(Vec::new(), 3));
    batch.push(RknntQuery::exists(query_routes[0].clone(), 0));
    batch
}

#[test]
fn batched_parallel_results_match_sequential_for_all_engines() {
    let (query_routes, routes, transitions) = build_world(23, 2_500);
    let batch = mixed_batch(&query_routes);

    // Batched over 4 workers, with the cache enabled; run the batch twice so
    // the second pass exercises the all-hits path too.
    let service = QueryService::new(
        routes.clone(),
        transitions.clone(),
        ServiceConfig::default().with_workers(4),
    );
    let passes: Vec<Vec<Vec<u32>>> = (0..2)
        .map(|pass| {
            let (results, stats) = service.execute_batch(&batch);
            assert_eq!(stats.queries, batch.len());
            if pass == 1 {
                assert_eq!(
                    stats.cache_hits,
                    batch.len(),
                    "second pass must be answered entirely from the cache"
                );
            }
            results
                .iter()
                .map(|r| r.transitions.iter().map(|t| t.raw()).collect())
                .collect()
        })
        .collect();

    for kind in EngineKind::ALL {
        // Sequential ground truth with a fresh single-threaded engine.
        let engine = kind.build(&routes, &transitions);
        let expected: Vec<Vec<u32>> = batch
            .iter()
            .map(|q| {
                engine
                    .execute(q)
                    .transitions
                    .iter()
                    .map(|t| t.raw())
                    .collect()
            })
            .collect();
        for (pass, got) in passes.iter().enumerate() {
            assert_eq!(got, &expected, "engine {kind} pass {pass}");
        }
    }
}

#[test]
fn shared_filters_and_coalescing_actually_trigger() {
    let (query_routes, routes, transitions) = build_world(31, 1_500);
    let batch = mixed_batch(&query_routes);
    let service = QueryService::new(
        routes,
        transitions,
        ServiceConfig::default()
            .with_workers(4)
            .with_cache_capacity(0), // isolate the grouping counters,
    );
    let (_, stats) = service.execute_batch(&batch);
    assert!(stats.groups > 0);
    assert!(stats.workers_used >= 2, "batch must actually fan out");
    assert!(
        stats.duplicates_coalesced > 0,
        "identical queries in the batch must be coalesced"
    );
    assert!(
        stats.filters_saved > 0,
        "same (route, k) under both semantics must share a filter construction"
    );
    assert!(stats.filter_constructions > 0);
    assert_eq!(stats.cache_hits, 0);
}

/// Every fresh miss builds its filter once, in the frontend, and that one
/// construction is shared by the `∀` twin — on the default configuration,
/// whatever the shape of the queries.
#[test]
fn the_default_service_builds_one_shared_filter_per_route_and_k() {
    let (query_routes, routes, transitions) = build_world(37, 1_500);
    let n = query_routes.len();
    let exists: Vec<RknntQuery> = query_routes
        .iter()
        .enumerate()
        .map(|(i, route)| {
            assert!(route.len() > 1, "multi-point routes");
            RknntQuery::exists(route.clone(), 1 + (i % 3) * 4)
        })
        .collect();
    let service = QueryService::new(
        routes.clone(),
        transitions.clone(),
        ServiceConfig::default(),
    );
    let (_, stats) = service.execute_batch(&exists);
    assert_eq!(stats.cache_hits, 0);
    assert_eq!(stats.filter_constructions, n);
    assert_eq!(stats.filters_saved, 0);

    let service = QueryService::new(routes, transitions, ServiceConfig::default());
    let mut twins = exists.clone();
    twins.extend(
        exists
            .iter()
            .map(|q| RknntQuery::for_all(q.route.clone(), q.k)),
    );
    let (_, stats) = service.execute_batch(&twins);
    assert_eq!(stats.cache_hits, 0);
    assert_eq!(stats.filter_constructions, n);
    assert_eq!(stats.filters_saved, n);
    assert_eq!(service.cache_len(), 2 * n);
}

#[test]
fn every_query_shape_matches_an_oracle() {
    let (query_routes, routes, transitions) = build_world(47, 1_200);
    let oracle = EngineKind::BruteForce.build(&routes, &transitions);
    let mut batch = Vec::new();
    for route in &query_routes {
        batch.push(RknntQuery::exists(route.clone(), 2));
        batch.push(RknntQuery::exists(route.clone(), 15)); // large k
        batch.push(RknntQuery::exists(vec![route[0]], 2)); // single point
    }
    let expected: Vec<Vec<u32>> = batch
        .iter()
        .map(|q| {
            oracle
                .execute(q)
                .transitions
                .iter()
                .map(|t| t.raw())
                .collect()
        })
        .collect();
    let service = QueryService::new(
        routes.clone(),
        transitions.clone(),
        ServiceConfig::default().with_workers(4),
    );
    let (results, _) = service.execute_batch(&batch);
    let got: Vec<Vec<u32>> = results
        .iter()
        .map(|r| r.transitions.iter().map(|t| t.raw()).collect())
        .collect();
    assert_eq!(got, expected);
}

#[test]
fn concurrent_batches_share_one_service() {
    let (query_routes, routes, transitions) = build_world(83, 1_000);
    let service = QueryService::new(
        routes.clone(),
        transitions.clone(),
        ServiceConfig::default().with_workers(2),
    );
    let oracle = EngineKind::BruteForce.build(&routes, &transitions);
    std::thread::scope(|scope| {
        for chunk in query_routes.chunks(2) {
            let service = &service;
            let oracle = &oracle;
            scope.spawn(move || {
                let batch: Vec<RknntQuery> = chunk
                    .iter()
                    .map(|r| RknntQuery::exists(r.clone(), 4))
                    .collect();
                let (results, _) = service.execute_batch(&batch);
                for (query, result) in batch.iter().zip(&results) {
                    assert_eq!(result.transitions, oracle.execute(query).transitions);
                }
            });
        }
    });
}

#[test]
fn both_semantics_agree_between_service_and_engines() {
    let (query_routes, routes, transitions) = build_world(97, 900);
    let service = QueryService::new(
        routes.clone(),
        transitions.clone(),
        ServiceConfig::default().with_workers(3),
    );
    for semantics in [Semantics::Exists, Semantics::ForAll] {
        for kind in EngineKind::ALL {
            let engine = kind.build(&routes, &transitions);
            let query = RknntQuery {
                route: query_routes[2].clone(),
                k: 3,
                semantics,
            };
            assert_eq!(
                service.execute(&query).transitions,
                engine.execute(&query).transitions,
                "{kind} {semantics}"
            );
        }
    }
}
