//! Spatial sharding: a city partitioned into Z-order shards behind a router
//! that skips every shard its root-MBR certificate writes off.
//!
//! The example builds the same city twice — once as a single
//! [`QueryService`], once as a [`ShardedService`] with 8 shards — and runs
//! a round of localized demand probes (short routes, k = 1) against both.
//! Every transition lives in exactly one shard, chosen by the Z-order cell
//! of its origin; at query time the router builds the filter once against
//! its full-city planner replica and skips every shard whose TR-tree root
//! MBR the filter certifies candidate-free. Answers are byte-identical to
//! the unsharded service — asserted below — and the router's fan-out
//! counters show how much of the fleet each query actually touched.
//!
//! Run with `cargo run --release --example shard_scaleout`.

use rknnt::data::workload;
use rknnt::prelude::*;
use rknnt::service::{ShardedConfig, ShardedService};

/// Demand here is local trips: both endpoints in one neighbourhood. That
/// is the workload sharding is for — a hub-to-hub trip would pin its
/// far-away destination into its origin's shard and inflate that shard's
/// root MBR until no filter can write it off.
fn local_pairs(city: &rknnt::data::City, count: usize, seed: u64) -> Vec<(Point, Point)> {
    TransitionGenerator::new(TransitionConfig::checkin_like(count, seed))
        .generate(city)
        .into_iter()
        .map(|(origin, destination)| {
            let dx = destination.x - origin.x;
            let dy = destination.y - origin.y;
            let len = (dx * dx + dy * dy).sqrt().max(1.0);
            let cap = 600.0_f64.min(len);
            (
                origin,
                Point::new(origin.x + dx * cap / len, origin.y + dy * cap / len),
            )
        })
        .collect()
}

fn main() {
    let city = CityGenerator::new(CityConfig::small(42)).generate();
    let pairs = local_pairs(&city, 2_000, 7);

    let unsharded = QueryService::new(
        city.route_store(),
        TransitionStore::bulk_build(Default::default(), pairs.clone()),
        ServiceConfig::default(),
    );
    let sharded = ShardedService::bulk_build(
        ShardedConfig::default().with_shards(8),
        city.routes.clone(),
        pairs,
    );
    println!(
        "{} routes, {} transitions, {} shards",
        sharded.routes().num_routes(),
        sharded.num_transitions(),
        sharded.shard_count(),
    );

    // A round of neighbourhood demand probes: short routes, k = 1.
    let probes: Vec<RknntQuery> = workload::rknnt_queries(&city, 24, 3, 400.0, 42 ^ 0xbee)
        .into_iter()
        .map(|route| RknntQuery::exists(route, 1))
        .collect();
    let (expected, _) = unsharded.execute_batch(&probes);
    let (answers, _) = sharded.execute_batch(&probes);
    for (want, got) in expected.iter().zip(&answers) {
        assert_eq!(
            want.transitions, got.transitions,
            "sharded answers must be byte-identical to the unsharded service"
        );
    }
    println!(
        "{} probes answered, byte-identical to the unsharded service",
        probes.len()
    );

    let stats = sharded.router_stats();
    println!(
        "router: {} fresh executions, {} shard dispatches, {} shards pruned \
         -> mean fan-out {:.2} of {} shards",
        stats.executions,
        stats.dispatches,
        stats.shards_pruned,
        stats.mean_fanout(),
        sharded.shard_count(),
    );
    assert!(
        stats.shards_pruned > 0,
        "the root-MBR certificate should write off at least some shards"
    );
}
