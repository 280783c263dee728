//! Sharding at its edges: the router's shard-skip soundness (a skipped
//! shard provably holds no candidate of the unsharded execution), its fan-out
//! on local demand, and the one storage directory's sync points and single
//! writer. Answers, deltas, placement, reshards and recovery of a sharded
//! service against the brute-force definition, at 1 to 8 shards, are the
//! tier-1 stream in `tests/serving_layers.rs`.

use proptest::prelude::*;
use rknnt_core::{build_filter_set, EngineKind, RknntQuery, Semantics};
use rknnt_data::{
    workload, ChurnEvent, CityConfig, CityGenerator, TransitionConfig, TransitionGenerator,
};
use rknnt_geo::Point;
use rknnt_index::{RouteStore, TransitionId, TransitionStore};
use rknnt_obs::{SpanId, Telemetry, TraceContext, TraceCursor, TraceId};
use rknnt_rtree::RTreeConfig;
use rknnt_service::{
    QueryService, ServiceConfig, ShardedConfig, ShardedService, StorageConfig, StorageError,
    StoreUpdate,
};
use rknnt_storage::{Failpoints, WAL_FSYNC_SITE};
use std::path::PathBuf;

const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn p(x: f64, y: f64) -> Point {
    Point::new(x, y)
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rknnt-sharded-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn test_storage() -> StorageConfig {
    StorageConfig::default()
        .with_fsync(false)
        .with_segment_bytes(512)
}

fn unsharded_stores(
    routes: &[Vec<Point>],
    pairs: &[(Point, Point)],
) -> (RouteStore, TransitionStore) {
    let (store, _) = RouteStore::bulk_build(RTreeConfig::default(), routes.to_vec());
    let transitions = TransitionStore::bulk_build(RTreeConfig::default(), pairs.to_vec());
    (store, transitions)
}

// ---------------------------------------------------------------------------
// Router skip soundness
// ---------------------------------------------------------------------------

/// Asserts the decisions the router *took* for one fresh execution are
/// sound. They are read off the `shard` spans of a traced batch — the
/// executed router's own record, one span per non-empty shard — and checked
/// against brute force over each shard's transitions with the *unsharded*
/// filter: a skipped shard holds no unfiltered endpoint (so skipping it
/// cannot lose a candidate of the unsharded execution), a consulted shard
/// reports exactly its unfiltered endpoints, and the routed answer matches
/// all four unsharded engines. Returns the number of shards skipped.
fn assert_skips_sound(
    sharded: &ShardedService,
    full_routes: &RouteStore,
    full_transitions: &TransitionStore,
    query: &RknntQuery,
) -> usize {
    let ctx = TraceContext::begin(TraceId::from_raw(1), Telemetry::monotonic());
    let root = ctx.begin_span("request", SpanId::NONE);
    let cursor = TraceCursor::new(&ctx, root);
    let (mut results, stats) = sharded.execute_batch_traced(std::slice::from_ref(query), cursor);
    ctx.end_span(root);
    let trace = ctx.finish();
    assert_eq!(trace.dropped(), 0);
    assert_eq!(stats.cache_hits, 0, "only a fresh execution is routed");
    let routed = results.pop().unwrap().transitions;
    for kind in EngineKind::ALL {
        let engine = kind.build(full_routes, full_transitions);
        assert_eq!(
            routed,
            engine.execute(query).transitions,
            "routed answer diverged ({kind}, k={})",
            query.k
        );
    }
    let decisions: Vec<_> = trace
        .spans()
        .iter()
        .filter(|span| span.name() == "shard")
        .collect();
    if query.is_degenerate() {
        assert!(decisions.is_empty(), "a degenerate query is never routed");
        return 0;
    }
    let mut skips = 0;
    let outcome = build_filter_set(full_routes, &query.route, query.k);
    for index in 0..sharded.shard_count() {
        let store = sharded.shard_transitions(index).unwrap();
        let mut of_shard = decisions
            .iter()
            .filter(|span| span.attr("shard") == Some(index as u64));
        let decision = of_shard.next();
        assert!(of_shard.next().is_none(), "shard {index} decided twice");
        if store.rtree().root().is_none() {
            assert!(decision.is_none(), "empty shard {index} was considered");
            continue;
        }
        let decision = decision.unwrap_or_else(|| panic!("shard {index} was never decided"));
        let candidates = store
            .transitions()
            .flat_map(|t| [t.origin, t.destination])
            .filter(|u| !outcome.filter_set.filters_point(u, query.k, false))
            .count();
        if decision.attr("pruned") == Some(1) {
            assert_eq!(decision.attr("certificate"), Some(1));
            skips += 1;
            assert_eq!(
                candidates, 0,
                "router skipped shard {index} but it holds candidate endpoint(s) \
                 of the unsharded execution (k={})",
                query.k
            );
        } else {
            assert_eq!(
                decision.attr("candidates"),
                Some(candidates as u64),
                "candidates of consulted shard {index} (k={})",
                query.k
            );
        }
    }
    skips
}

/// Two far-apart clusters: the query and its everywhere-closer competitor
/// routes live in cluster A; cluster B has its own dominating route, so the
/// filter certifies every B-owned shard candidate-free and the router must
/// actually skip shards (not just stay vacuously sound).
#[test]
fn router_skips_certified_shards_and_loses_nothing() {
    let routes = vec![
        // Cluster A around the origin.
        vec![p(0.0, 50.0), p(500.0, 50.0), p(1_000.0, 50.0)],
        vec![p(0.0, -80.0), p(1_000.0, -80.0)],
        // Cluster B far away, with a route sitting right on its transitions.
        vec![p(15_000.0, 0.0), p(15_500.0, 0.0), p(16_000.0, 0.0)],
    ];
    let mut pairs = Vec::new();
    for i in 0..30 {
        let x = (i % 6) as f64 * 150.0;
        let y = (i / 6) as f64 * 60.0 - 120.0;
        pairs.push((p(x, y), p(x + 40.0, y + 20.0))); // cluster A
        pairs.push((p(15_000.0 + x, y * 0.2), p(15_040.0 + x, y * 0.2 + 10.0)));
        // cluster B
    }
    let (full_routes, full_transitions) = unsharded_stores(&routes, &pairs);
    let sharded =
        ShardedService::bulk_build(ShardedConfig::default().with_shards(8), routes, pairs);
    let query = RknntQuery::exists(vec![p(0.0, 0.0), p(400.0, 0.0), p(800.0, 0.0)], 1);
    let skips = assert_skips_sound(&sharded, &full_routes, &full_transitions, &query);
    assert!(
        skips > 0,
        "this world is built so the cluster-B shards are certified skippable"
    );
    assert!(
        sharded.router_stats().shards_pruned > 0,
        "execution must have recorded the skips"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random worlds, every shard count: any shard the router skips holds no
    /// candidate of the unsharded execution, and routed answers match, for
    /// all four engines and both semantics.
    #[test]
    fn skipped_shards_never_hold_candidates(
        raw_routes in prop::collection::vec(
            (-5_000.0f64..5_000.0, -5_000.0f64..5_000.0, -800.0f64..800.0, -800.0f64..800.0, 2u32..5),
            1..7,
        ),
        raw_pairs in prop::collection::vec(
            (-6_000.0f64..6_000.0, -6_000.0f64..6_000.0, -300.0f64..300.0, -300.0f64..300.0),
            0..40,
        ),
        qx in -5_000.0f64..5_000.0,
        qy in -5_000.0f64..5_000.0,
        qstep in -900.0f64..900.0,
        k in 1usize..4,
        shard_draw in 0usize..4,
        semantics_draw in 0u8..2,
    ) {
        let routes: Vec<Vec<Point>> = raw_routes
            .into_iter()
            .map(|(x, y, dx, dy, len)| {
                (0..len)
                    .map(|i| p(x + i as f64 * dx, y + i as f64 * dy))
                    .collect()
            })
            .collect();
        let pairs: Vec<(Point, Point)> = raw_pairs
            .into_iter()
            .map(|(x, y, dx, dy)| (p(x, y), p(x + dx, y + dy)))
            .collect();
        let query = RknntQuery {
            route: (0..3).map(|i| p(qx + i as f64 * qstep, qy - i as f64 * qstep)).collect(),
            k,
            semantics: if semantics_draw == 0 { Semantics::Exists } else { Semantics::ForAll },
        };
        let (full_routes, full_transitions) = unsharded_stores(&routes, &pairs);
        let sharded = ShardedService::bulk_build(
            ShardedConfig::default().with_shards(SHARD_COUNTS[shard_draw]),
            routes,
            pairs,
        );
        assert_skips_sound(&sharded, &full_routes, &full_transitions, &query);
    }
}

/// The footprint certificate keeps the router out of most of the fleet on
/// local demand (formerly the `shard_scaleout.fanout_fraction@8` CI gate).
/// A generated city whose trips are capped at 600 m — shards are keyed by
/// origin cell, so one hub-to-hub trip would stretch its shard's root MBR
/// across the city — serves short k = 1 queries under 1 % and 10 % churn
/// at 8 shards: every answer equals the unsharded service's, fresh
/// executions really were routed, and on average each consulted at most
/// half the shards.
///
/// Mutation that fails it: in `Shards::prune`, consult a shard without
/// testing its extent against the filter footprint (plan every non-empty
/// shard) — mean fan-out becomes 8 of 8.
#[test]
fn fanout_on_local_trips_stays_under_half_of_eight_shards() {
    const TRIP_CAP_METRES: f64 = 600.0;
    let cap = |origin: Point, destination: Point| {
        let len = origin.distance(&destination);
        if len <= TRIP_CAP_METRES {
            return destination;
        }
        let scale = TRIP_CAP_METRES / len;
        p(
            origin.x + (destination.x - origin.x) * scale,
            origin.y + (destination.y - origin.y) * scale,
        )
    };
    let seed = 42;
    let city = CityGenerator::new(CityConfig::small(seed)).generate();
    let routes = city.routes.clone();
    let pairs: Vec<(Point, Point)> =
        TransitionGenerator::new(TransitionConfig::checkin_like(400, seed ^ 15))
            .generate(&city)
            .into_iter()
            .map(|(o, d)| (o, cap(o, d)))
            .collect();
    let (route_store, transition_store) = unsharded_stores(&routes, &pairs);
    let base = ServiceConfig::default().with_workers(1);
    for ratio in [0.01, 0.10] {
        let mut config = rknnt_data::ChurnConfig::new(120, ratio, seed ^ 0x51a9);
        config.query_pool = 8;
        config.query_len = 3;
        config.query_interval = 400.0;
        let mut unsharded = QueryService::new(route_store.clone(), transition_store.clone(), base);
        let mut sharded = ShardedService::bulk_build(
            ShardedConfig::default().with_shards(8).with_base(base),
            routes.clone(),
            pairs.clone(),
        );
        let mut live_transitions = transition_store.transition_ids();
        let mut live_routes = route_store.route_ids();
        for (step, event) in workload::churn_stream(&city, &config)
            .into_iter()
            .enumerate()
        {
            // Draws resolve against the live ids; the last four routes stay.
            let update = match event {
                ChurnEvent::Query(route) => {
                    let query = RknntQuery::exists(route, 1);
                    assert_eq!(
                        sharded.execute(&query).transitions,
                        unsharded.execute(&query).transitions,
                        "answer diverged at step {step} (update ratio {ratio})"
                    );
                    continue;
                }
                ChurnEvent::InsertTransition(origin, d) => StoreUpdate::InsertTransition {
                    origin,
                    destination: cap(origin, d),
                },
                ChurnEvent::ExpireTransition(draw) if !live_transitions.is_empty() => {
                    let victim = draw as usize % live_transitions.len();
                    StoreUpdate::ExpireTransition(live_transitions.swap_remove(victim))
                }
                ChurnEvent::InsertRoute(points) => StoreUpdate::InsertRoute(points),
                ChurnEvent::RemoveRoute(draw) if live_routes.len() > 4 => {
                    let victim = draw as usize % live_routes.len();
                    StoreUpdate::RemoveRoute(live_routes.swap_remove(victim))
                }
                _ => continue,
            };
            let applied = unsharded.apply_updates(vec![update.clone()]);
            assert_eq!(
                sharded.apply_updates(vec![update]).inserted_transitions,
                applied.inserted_transitions
            );
            live_transitions.extend(&applied.inserted_transitions);
            live_routes.extend(&applied.inserted_routes);
        }
        let stats = sharded.router_stats();
        assert!(stats.executions > 0, "nothing was routed at ratio {ratio}");
        assert!(
            stats.mean_fanout() / 8.0 <= 0.5,
            "mean fan-out {:.3} of 8 shards at update ratio {ratio} ({stats:?})",
            stats.mean_fanout()
        );
    }
}

// ---------------------------------------------------------------------------
// One durable format
// ---------------------------------------------------------------------------

/// A durable fleet syncs once per update batch, and a directory has one
/// writer: an attach over one holding state, from either service, is
/// refused, and a checkpoint without storage is the typed `NotAttached`
/// error. (One directory reopened flat and at every shard count is the
/// tier-1 stream in `tests/serving_layers.rs`.)
#[test]
fn one_directory_syncs_once_per_batch_and_has_one_writer() {
    let routes = vec![
        vec![p(0.0, 0.0), p(1_000.0, 0.0)],
        vec![p(0.0, 500.0), p(1_000.0, 600.0)],
    ];
    let pairs: Vec<(Point, Point)> = (0..40)
        .map(|i| (p(25.0 * i as f64, 100.0), p(900.0 - 20.0 * i as f64, 450.0)))
        .collect();
    let arrivals = |n: usize| -> Vec<StoreUpdate> {
        let at = |i: usize| p(120.0 * i as f64, 50.0);
        let arrival = |i| StoreUpdate::InsertTransition {
            origin: at(i),
            destination: p(50.0, 80.0),
        };
        (0..n).map(arrival).collect()
    };
    let base = ServiceConfig::default().with_workers(1);
    let config = ShardedConfig::default().with_shards(4).with_base(base);

    // Written with fsync on, so the failpoint handle (no rules: it only
    // counts) sees the real sync points: a batch of 8 on 4 shards is one
    // append and one fsync, eight frames.
    let sharded_dir = temp_dir("one-writer-sharded");
    let mut fleet = ShardedService::bulk_build(config, routes.clone(), pairs.clone());
    fleet
        .attach_storage(&sharded_dir, StorageConfig::default())
        .unwrap();
    let sync_points = Failpoints::none();
    fleet.set_storage_failpoints(sync_points.clone());
    let stats = fleet.apply_updates(arrivals(8));
    assert_eq!(stats.wal_appends, 8);
    assert_eq!(sync_points.hits(WAL_FSYNC_SITE), 1);
    drop(fleet);
    let flat_dir = temp_dir("one-writer-flat");
    let (mut flat, _) = QueryService::open(&flat_dir, base, test_storage()).unwrap();
    flat.apply_updates(arrivals(1));
    drop(flat);

    // Live data is never shadowed: a second attach over either directory,
    // from either service, is refused.
    let mut other_fleet = ShardedService::bulk_build(config, routes, pairs);
    let mut other_flat = QueryService::new(Default::default(), Default::default(), base);
    for dir in [&flat_dir, &sharded_dir] {
        let err = other_fleet.attach_storage(dir, test_storage()).unwrap_err();
        assert!(
            matches!(err, StorageError::DirectoryNotEmpty { .. }),
            "got {err}"
        );
        let err = other_flat.attach_storage(dir, test_storage()).unwrap_err();
        assert!(
            matches!(err, StorageError::DirectoryNotEmpty { .. }),
            "got {err}"
        );
    }
    assert!(matches!(
        other_fleet.checkpoint().unwrap_err(),
        StorageError::NotAttached
    ));
    std::fs::remove_dir_all(&flat_dir).unwrap();
    std::fs::remove_dir_all(&sharded_dir).unwrap();
}

#[test]
fn open_on_a_fresh_directory_starts_an_empty_durable_fleet() {
    let dir = temp_dir("fresh");
    let config = ShardedConfig::default().with_shards(2);
    let (mut fleet, _) = ShardedService::open(&dir, config, test_storage()).unwrap();
    assert!(fleet.has_storage());
    assert_eq!(fleet.num_transitions(), 0);
    let stats = fleet.apply_updates(vec![
        StoreUpdate::InsertRoute(vec![p(0.0, 0.0), p(100.0, 0.0)]),
        StoreUpdate::InsertTransition {
            origin: p(10.0, 5.0),
            destination: p(90.0, 5.0),
        },
    ]);
    assert_eq!(stats.applied, 2);
    drop(fleet);
    let (fleet, _) = ShardedService::open(&dir, config, test_storage()).unwrap();
    assert_eq!(fleet.routes().num_routes(), 1);
    assert_eq!(fleet.num_transitions(), 1);
    let query = RknntQuery::exists(vec![p(0.0, 10.0), p(100.0, 10.0)], 1);
    assert_eq!(fleet.execute(&query).transitions, vec![TransitionId(0)]);
    std::fs::remove_dir_all(&dir).unwrap();
}
