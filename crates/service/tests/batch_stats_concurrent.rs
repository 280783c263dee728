//! `BatchStats::cache_hits` is the batch's own count under concurrent
//! `&self` batches: it is counted from the batch's lookups, not diffed from
//! the shared `service.cache.hits` cell, which other batches advance inside
//! the window. (Diffed, 6–8 of these 8 000 batches reported more hits than
//! they had queries.)

use rknnt_core::RknntQuery;
use rknnt_geo::Point;
use rknnt_index::{RouteStore, TransitionStore};
use rknnt_service::{QueryService, ServiceConfig};
use std::sync::Barrier;

const THREADS: usize = 4;
const BATCHES_PER_THREAD: usize = 2_000;
const BATCH: usize = 16;

#[test]
fn concurrent_warm_batches_each_report_their_own_cache_hits() {
    let p = Point::new;
    let routes = (0..6)
        .map(|row| {
            let y = row as f64 * 120.0;
            vec![p(0.0, y), p(400.0, y + 10.0), p(800.0, y)]
        })
        .collect();
    let pairs = (0..80)
        .map(|i| {
            let (x, y) = (
                (i % 10) as f64 * 120.0 + 15.0,
                (i / 10) as f64 * 80.0 + 25.0,
            );
            (p(x, y), p(x + 60.0, y + 30.0))
        })
        .collect();
    let (route_store, _) = RouteStore::bulk_build(Default::default(), routes);
    let transition_store = TransitionStore::bulk_build(Default::default(), pairs);
    let service = QueryService::new(route_store, transition_store, ServiceConfig::default());
    let queries: Vec<RknntQuery> = (0..BATCH)
        .map(|i| {
            let x = i as f64 * 70.0;
            RknntQuery::exists(vec![p(x, 60.0), p(x + 300.0, 90.0)], 2)
        })
        .collect();
    let (_, cold) = service.execute_batch(&queries);
    assert_eq!(cold.cache_hits, 0);

    let start = Barrier::new(THREADS);
    std::thread::scope(|scope| {
        for _ in 0..THREADS {
            scope.spawn(|| {
                start.wait();
                for _ in 0..BATCHES_PER_THREAD {
                    let (_, stats) = service.execute_batch(&queries);
                    assert_eq!((stats.queries, stats.cache_hits), (BATCH, BATCH));
                }
            });
        }
    });
    // The shared cell stayed exact all along.
    let hits = service.metrics_snapshot().counter("service.cache.hits");
    assert_eq!(hits, Some((THREADS * BATCHES_PER_THREAD * BATCH) as u64));
}
