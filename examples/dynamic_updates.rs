//! Dynamic transition updates: the stream of arriving and expiring passenger
//! requests the paper's index is designed for (Uber-style demand).
//!
//! The example replays a sliding window over a day of synthetic passenger
//! requests through [`QueryService::apply_updates`] — the one way a
//! service's stores change. Each hour arrives as ten bursts of requests with
//! the popular-route capacity queries re-running between bursts, the
//! interleaving a live deployment sees. The update path only journals the
//! arrivals and expiries, and each cached answer replays what it missed when
//! it is next read — so transition churn evicts nothing (a route insert
//! would not either; only a route removal drops the cache), which the
//! day-level cache hit-rate printed at the end shows.
//!
//! Run with `cargo run --release --example dynamic_updates`.

use rknnt::prelude::*;
use rknnt::service::StoreUpdate;
use std::collections::VecDeque;

fn main() {
    let city = CityGenerator::new(CityConfig::small(31)).generate();
    let routes = city.route_store();

    // The "day" of requests: 12 hours × 10 bursts × 15 transitions; the
    // window keeps the 4 most recent hours (old requests expire).
    let generator = TransitionGenerator::new(TransitionConfig::checkin_like(6_000, 17));
    let all_pairs = generator.generate(&city);
    let bursts: Vec<_> = all_pairs.chunks(15).take(120).collect();
    let window_bursts = 40usize;

    let mut service =
        QueryService::new(routes, TransitionStore::default(), ServiceConfig::default());
    let mut window: VecDeque<Vec<TransitionId>> = VecDeque::new();

    // Monitor a handful of popular routes between bursts.
    let watched: Vec<RknntQuery> = city
        .routes
        .iter()
        .take(6)
        .map(|r| RknntQuery::exists(r.clone(), 1))
        .collect();
    println!(
        "monitoring {} routes (k = 1) between bursts\n",
        watched.len()
    );

    for hour in 0..12 {
        let mut evicted = 0usize;
        let mut retained = 0usize;
        let mut capacity = 0usize;
        for burst in 0..10 {
            let mut updates: Vec<StoreUpdate> = bursts[hour * 10 + burst]
                .iter()
                .map(|(origin, destination)| StoreUpdate::InsertTransition {
                    origin: *origin,
                    destination: *destination,
                })
                .collect();
            if window.len() >= window_bursts {
                updates.extend(
                    window
                        .pop_front()
                        .expect("non-empty window")
                        .into_iter()
                        .map(StoreUpdate::ExpireTransition),
                );
            }
            let stats = service.apply_updates(updates);
            window.push_back(stats.inserted_transitions);
            evicted += stats.evicted_entries;
            retained = stats.retained_entries;

            let (results, _) = service.execute_batch(&watched);
            capacity = results[0].len();
        }
        println!(
            "hour {hour:>2}: {:>5} live transitions -> {:>3} would take route #0 \
             ({:>2} cached answers evicted this hour, {} kept current)",
            service.transitions().len(),
            capacity,
            evicted,
            retained,
        );
    }

    let cache = service.cache_stats();
    println!(
        "\ncache over the whole day: {} hits / {} lookups ({:.0}% — a full-drop \
         update path would have scored 0%), {} evictions (no route changed)",
        cache.hits,
        cache.hits + cache.misses,
        100.0 * cache.hits as f64 / (cache.hits + cache.misses) as f64,
        cache.targeted_evictions,
    );
}
