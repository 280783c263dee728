//! Sharding invariants: a [`ShardedService`] — SFC-partitioned shards
//! behind a footprint-pruned router — answers byte-identically to an
//! unsharded [`QueryService`] over the same data (and to all four engines),
//! for every shard count and both semantics. That covers one-shot batches, the
//! router's shard-skip soundness (a skipped shard provably holds no
//! candidate of the unsharded execution), subscription delta streams under
//! churn, crash recovery from the one global-form WAL, a storage directory
//! opening as either service at any shard count, and reshard (split /
//! merge) keeping answers intact without touching the disk.

use proptest::prelude::*;
use rknnt_core::{build_filter_set, EngineKind, RknntQuery, Semantics};
use rknnt_data::{workload, CityConfig, CityGenerator, TransitionConfig, TransitionGenerator};
use rknnt_geo::Point;
use rknnt_index::{RouteId, RouteStore, TransitionId, TransitionStore};
use rknnt_obs::{SpanId, Telemetry, TraceContext, TraceCursor, TraceId};
use rknnt_rtree::RTreeConfig;
use rknnt_service::{
    QueryService, ServiceConfig, ShardedConfig, ShardedService, StorageConfig, StoreUpdate,
    SubscriptionId,
};
use rknnt_storage::{Failpoints, WAL_FSYNC_SITE};
use std::path::{Path, PathBuf};

const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn p(x: f64, y: f64) -> Point {
    Point::new(x, y)
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rknnt-sharded-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Name and size of every entry of a storage root, sorted — and the check
/// that it holds snapshot + WAL *files* only: no service keeps a
/// subdirectory there.
fn root_files(dir: &Path) -> Vec<(std::ffi::OsString, u64)> {
    let mut files = Vec::new();
    for entry in std::fs::read_dir(dir).unwrap() {
        let entry = entry.unwrap();
        assert!(
            entry.file_type().unwrap().is_file(),
            "storage root holds a non-file entry {:?}",
            entry.file_name()
        );
        files.push((entry.file_name(), entry.metadata().unwrap().len()));
    }
    files.sort();
    files
}

fn test_storage() -> StorageConfig {
    StorageConfig::default()
        .with_fsync(false)
        .with_segment_bytes(512)
}

/// Raw world: routes and transition endpoint pairs, so both the unsharded
/// stores and the sharded fleet are built from identical inputs (and global
/// ids line up by construction).
fn raw_world(seed: u64, transitions: usize) -> (Vec<Vec<Point>>, Vec<(Point, Point)>) {
    let city = CityGenerator::new(CityConfig::small(seed)).generate();
    let pairs = TransitionGenerator::new(TransitionConfig::checkin_like(transitions, seed ^ 0x77))
        .generate(&city);
    (city.routes.clone(), pairs)
}

fn unsharded_stores(
    routes: &[Vec<Point>],
    pairs: &[(Point, Point)],
) -> (RouteStore, TransitionStore) {
    let (store, _) = RouteStore::bulk_build(RTreeConfig::default(), routes.to_vec());
    let transitions = TransitionStore::bulk_build(RTreeConfig::default(), pairs.to_vec());
    (store, transitions)
}

fn mixed_batch(query_routes: &[Vec<Point>]) -> Vec<RknntQuery> {
    let mut batch = Vec::new();
    for (i, route) in query_routes.iter().enumerate() {
        let k = 1 + (i % 3) * 4;
        batch.push(RknntQuery::exists(route.clone(), k));
        batch.push(RknntQuery::for_all(route.clone(), k));
        batch.push(RknntQuery::exists(route.clone(), k)); // coalesce path
    }
    batch.push(RknntQuery::exists(Vec::new(), 3));
    batch.push(RknntQuery::exists(query_routes[0].clone(), 0));
    batch
}

fn raw_results(results: &[rknnt_core::RknntResult]) -> Vec<Vec<u32>> {
    results
        .iter()
        .map(|r| r.transitions.iter().map(|t| t.raw()).collect())
        .collect()
}

// ---------------------------------------------------------------------------
// Batch parity
// ---------------------------------------------------------------------------

#[test]
fn sharded_batches_match_unsharded_for_all_shard_counts() {
    let (routes, pairs) = raw_world(23, 2_000);
    let city = CityGenerator::new(CityConfig::small(23)).generate();
    let query_routes = workload::rknnt_queries(&city, 6, 4, 1_200.0, 23 ^ 0x3);
    let batch = mixed_batch(&query_routes);
    let (route_store, transition_store) = unsharded_stores(&routes, &pairs);

    let base = ServiceConfig::default().with_workers(4);
    let unsharded = QueryService::new(route_store, transition_store, base);
    let (expected, _) = unsharded.execute_batch(&batch);
    let expected = raw_results(&expected);

    for shards in SHARD_COUNTS {
        let sharded = ShardedService::bulk_build(
            ShardedConfig::default().with_shards(shards).with_base(base),
            routes.clone(),
            pairs.clone(),
        );
        assert_eq!(sharded.shard_count(), shards);
        for pass in 0..2 {
            let (results, stats) = sharded.execute_batch(&batch);
            assert_eq!(
                raw_results(&results),
                expected,
                "shards {shards} pass {pass}"
            );
            assert_eq!(stats.queries, batch.len());
            if pass == 1 {
                assert_eq!(
                    stats.cache_hits,
                    batch.len(),
                    "second pass must be answered entirely from the router cache"
                );
            }
        }
        let rs = sharded.router_stats();
        assert!(rs.executions > 0, "fresh routed executions must be counted");
        assert!(
            rs.dispatches <= rs.executions * shards as u64,
            "fan-out can never exceed the shard count"
        );
    }
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

// ---------------------------------------------------------------------------
// Churn + subscription delta parity
// ---------------------------------------------------------------------------

/// Turns an update event's random draw into a concrete [`StoreUpdate`]
/// against the ids live so far; `None` when there is nothing left to expire
/// or only the last four routes to remove.
fn resolve_update(
    event: workload::ChurnEvent,
    live_transitions: &mut Vec<TransitionId>,
    live_routes: &mut Vec<RouteId>,
) -> Option<StoreUpdate> {
    Some(match event {
        workload::ChurnEvent::InsertTransition(origin, destination) => {
            StoreUpdate::InsertTransition {
                origin,
                destination,
            }
        }
        workload::ChurnEvent::ExpireTransition(draw) => {
            if live_transitions.is_empty() {
                return None;
            }
            let victim = draw as usize % live_transitions.len();
            StoreUpdate::ExpireTransition(live_transitions.swap_remove(victim))
        }
        workload::ChurnEvent::InsertRoute(points) => StoreUpdate::InsertRoute(points),
        workload::ChurnEvent::RemoveRoute(draw) => {
            if live_routes.len() <= 4 {
                return None;
            }
            let victim = draw as usize % live_routes.len();
            StoreUpdate::RemoveRoute(live_routes.swap_remove(victim))
        }
        workload::ChurnEvent::Query(_) => unreachable!("queries are not updates"),
    })
}

/// Drives the same interleaved update/query/subscription stream through an
/// unsharded service and a sharded fleet: applied/rejected bookkeeping,
/// inserted global ids, every query answer, every maintained subscription
/// result and the full delta stream must be byte-identical.
fn run_churn_parity(semantics: Semantics, shards: usize, seed: u64) {
    let city = CityGenerator::new(CityConfig::small(seed)).generate();
    let pairs =
        TransitionGenerator::new(TransitionConfig::checkin_like(700, seed ^ 0x77)).generate(&city);
    let (route_store, transition_store) = unsharded_stores(&city.routes, &pairs);
    let base = ServiceConfig::default().with_workers(2);
    let mut unsharded = QueryService::new(route_store.clone(), transition_store.clone(), base);
    let mut sharded = ShardedService::bulk_build(
        ShardedConfig::default().with_shards(shards).with_base(base),
        city.routes.clone(),
        pairs,
    );

    let mut live_transitions = transition_store.transition_ids();
    let mut live_routes = route_store.route_ids();
    let mut live_subs: Vec<SubscriptionId> = Vec::new();

    let stream = workload::subscription_stream(
        &city,
        &workload::SubscriptionStreamConfig::new(90, 0.3, seed ^ 0x5ab5),
    );
    let queries = workload::rknnt_queries(&city, 8, 4, 1_000.0, seed ^ 0x91);
    let mut query_cursor = 0usize;
    let mut delta_batches = 0usize;

    for (step, event) in stream.into_iter().enumerate() {
        match event {
            workload::SubscriptionEvent::Subscribe(route) => {
                let query = RknntQuery {
                    route,
                    k: 1 + step % 3,
                    semantics,
                };
                let a = unsharded.subscribe(query.clone());
                let b = sharded.subscribe(query);
                assert_eq!(a, b, "subscription ids must line up");
                assert_eq!(
                    unsharded.subscription_result(a),
                    sharded.subscription_result(b),
                    "initial subscription result diverged ({semantics:?} N={shards} seed {seed})"
                );
                live_subs.push(a);
            }
            workload::SubscriptionEvent::Unsubscribe(draw) => {
                if live_subs.is_empty() {
                    continue;
                }
                let victim = live_subs.swap_remove(draw as usize % live_subs.len());
                assert_eq!(unsharded.unsubscribe(victim), sharded.unsubscribe(victim));
            }
            workload::SubscriptionEvent::Update(update_event) => {
                let Some(update) =
                    resolve_update(update_event, &mut live_transitions, &mut live_routes)
                else {
                    continue;
                };
                let a = unsharded.apply_updates(vec![update.clone()]);
                let b = sharded.apply_updates(vec![update]);
                assert_eq!(a.applied, b.applied, "applied diverged at step {step}");
                assert_eq!(a.rejected, b.rejected, "rejected diverged at step {step}");
                assert_eq!(
                    a.inserted_transitions, b.inserted_transitions,
                    "global transition ids diverged at step {step}"
                );
                assert_eq!(
                    a.inserted_routes, b.inserted_routes,
                    "global route ids diverged at step {step}"
                );
                assert_eq!(
                    a.deltas, b.deltas,
                    "delta stream diverged at step {step} ({semantics:?} N={shards} seed {seed})"
                );
                if !a.deltas.is_empty() {
                    delta_batches += 1;
                }
                live_transitions.extend(&a.inserted_transitions);
                live_routes.extend(&a.inserted_routes);
            }
        }
        // Interleave one-shot queries so the caches stay exercised.
        if step % 5 == 0 && !queries.is_empty() {
            let query = RknntQuery {
                route: queries[query_cursor % queries.len()].clone(),
                k: 1 + step % 4,
                semantics,
            };
            query_cursor += 1;
            assert_eq!(
                unsharded.execute(&query).transitions,
                sharded.execute(&query).transitions,
                "one-shot answer diverged at step {step} ({semantics:?} N={shards} seed {seed})"
            );
        }
    }
    // Every surviving subscription ends with the same maintained result.
    for id in &live_subs {
        assert_eq!(
            unsharded.subscription_result(*id),
            sharded.subscription_result(*id),
            "final subscription result diverged ({semantics:?} N={shards} seed {seed})"
        );
    }
    // Force a guaranteed delta pair: a transition with both endpoints ON a
    // subscribed route qualifies unconditionally (distance 0, so no route
    // is strictly closer), and expiring it must emit a TransitionExpired
    // delta — both streams byte-identical.
    let watched = if let Some(id) = live_subs.first() {
        unsharded.subscription_query(*id).unwrap().route.clone()
    } else {
        let query = RknntQuery {
            route: queries[0].clone(),
            k: 1,
            semantics,
        };
        let a = unsharded.subscribe(query.clone());
        let b = sharded.subscribe(query.clone());
        assert_eq!(a, b);
        query.route
    };
    let update = StoreUpdate::InsertTransition {
        origin: watched[0],
        destination: watched[1],
    };
    let a = unsharded.apply_updates(vec![update.clone()]);
    let b = sharded.apply_updates(vec![update]);
    assert_eq!(a.inserted_transitions, b.inserted_transitions);
    assert_eq!(a.deltas, b.deltas);
    assert!(
        !a.deltas.is_empty(),
        "an on-route insert must dirty the watching subscription"
    );
    delta_batches += 1;
    let expire = StoreUpdate::ExpireTransition(a.inserted_transitions[0]);
    let a = unsharded.apply_updates(vec![expire.clone()]);
    let b = sharded.apply_updates(vec![expire]);
    assert_eq!(a.deltas, b.deltas);
    assert!(
        !a.deltas.is_empty(),
        "expiring a result member must emit a delta"
    );
    assert!(
        delta_batches > 0,
        "the stream must actually emit deltas ({semantics:?} N={shards} seed {seed})"
    );
}

#[test]
fn churn_and_delta_parity_for_every_seed_semantics_and_shard_count() {
    run_churn_parity(Semantics::Exists, 4, 211);
    run_churn_parity(Semantics::ForAll, 8, 212);
    run_churn_parity(Semantics::Exists, 2, 213);
    run_churn_parity(Semantics::ForAll, 4, 214);
    run_churn_parity(Semantics::Exists, 8, 215);
    run_churn_parity(Semantics::ForAll, 1, 216);
    run_churn_parity(Semantics::Exists, 1, 217);
    run_churn_parity(Semantics::ForAll, 2, 218);
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
/// Mutation that fails it: in `ShardSet`, consult a shard without testing
/// its root MBR against the filter footprint (plan every non-empty shard) —
/// mean fan-out becomes 8 of 8.
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
            let event = match event {
                workload::ChurnEvent::Query(route) => {
                    let query = RknntQuery::exists(route, 1);
                    assert_eq!(
                        sharded.execute(&query).transitions,
                        unsharded.execute(&query).transitions,
                        "answer diverged at step {step} (update ratio {ratio})"
                    );
                    continue;
                }
                workload::ChurnEvent::InsertTransition(o, d) => {
                    workload::ChurnEvent::InsertTransition(o, cap(o, d))
                }
                other => other,
            };
            let Some(update) = resolve_update(event, &mut live_transitions, &mut live_routes)
            else {
                continue;
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
// Crash recovery from the snapshot + the one global-form WAL
// ---------------------------------------------------------------------------

/// Deterministic mixed update stream (splitmix64), including draws that the
/// stores reject — replay must reproduce the rejections exactly.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    fn f64(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (self.next() >> 11) as f64 / (1u64 << 53) as f64 * (hi - lo)
    }
}

fn make_updates(gen: &mut Gen, count: usize, transition_pool: usize) -> Vec<StoreUpdate> {
    let mut updates = Vec::with_capacity(count);
    for i in 0..count {
        let roll = gen.next() % 100;
        if roll < 55 {
            updates.push(StoreUpdate::InsertTransition {
                origin: p(gen.f64(0.0, 12_000.0), gen.f64(0.0, 12_000.0)),
                destination: p(gen.f64(0.0, 12_000.0), gen.f64(0.0, 12_000.0)),
            });
        } else if roll < 80 {
            let id = gen.next() % (transition_pool + i) as u64;
            updates.push(StoreUpdate::ExpireTransition(TransitionId(id as u32)));
        } else if roll < 92 {
            let len = 3 + (gen.next() % 3) as usize;
            let mut points = Vec::with_capacity(len);
            let (mut x, mut y) = (gen.f64(0.0, 11_000.0), gen.f64(0.0, 11_000.0));
            for _ in 0..len {
                points.push(p(x, y));
                x += gen.f64(200.0, 600.0);
                y += gen.f64(-300.0, 300.0);
            }
            updates.push(StoreUpdate::InsertRoute(points));
        } else {
            let id = gen.next() % 40;
            updates.push(StoreUpdate::RemoveRoute(RouteId(id as u32)));
        }
    }
    updates
}

/// Two fleets hold the same *global* state — the planner and every
/// transition slot below the id bound — whatever their placement, and in
/// each every live id is owned by exactly one shard.
fn assert_fleets_identical(a: &ShardedService, b: &ShardedService, label: &str) {
    assert_eq!(a.shard_count(), b.shard_count(), "{label}: shard count");
    assert_eq!(
        a.routes().export_state(),
        b.routes().export_state(),
        "{label}: planner diverged"
    );
    assert_eq!(
        a.transition_id_bound(),
        b.transition_id_bound(),
        "{label}: transition id bound diverged"
    );
    let mut live = 0;
    for raw in 0..a.transition_id_bound() as u32 {
        let id = TransitionId(raw);
        let endpoints = a.transition_endpoints(id);
        assert_eq!(
            endpoints,
            b.transition_endpoints(id),
            "{label}: transition {raw} diverged"
        );
        for fleet in [a, b] {
            let owner = fleet.transition_owner(id);
            assert_eq!(
                owner.is_some(),
                endpoints.is_some(),
                "{label}: owner of {raw}"
            );
            assert!(owner.is_none_or(|shard| shard < fleet.shard_count()));
        }
        live += usize::from(endpoints.is_some());
    }
    // `num_transitions` sums the shard stores: every live id resolves in its
    // one owner, so equal counts mean no shard holds anything else.
    assert_eq!(
        a.num_transitions(),
        live,
        "{label}: directory vs shard stores"
    );
    assert_eq!(
        b.num_transitions(),
        live,
        "{label}: directory vs shard stores"
    );
}

fn run_sharded_recovery(semantics: Semantics, shards: usize, seed: u64) {
    let city = CityGenerator::new(CityConfig::small(seed)).generate();
    let pairs =
        TransitionGenerator::new(TransitionConfig::checkin_like(250, seed ^ 0x33)).generate(&city);
    let base = ServiceConfig::default().with_workers(2);
    let config = ShardedConfig::default().with_shards(shards).with_base(base);

    let mut reference = ShardedService::bulk_build(config, city.routes.clone(), pairs.clone());
    let dir = temp_dir(&format!("rec-{semantics:?}-{shards}-{seed}"));
    let mut durable = ShardedService::bulk_build(config, city.routes.clone(), pairs);
    durable.attach_storage(&dir, test_storage()).unwrap();
    assert!(durable.has_storage());

    let mut gen = Gen(seed ^ 0xD15C);
    let phase1 = make_updates(&mut gen, 25, 250);
    let phase2 = make_updates(&mut gen, 25, 300);
    let phase3 = make_updates(&mut gen, 15, 350);

    let ref1 = reference.apply_updates(phase1.clone());
    let dur1 = durable.apply_updates(phase1.clone());
    assert_eq!(ref1.applied, dur1.applied);
    assert_eq!(ref1.rejected, dur1.rejected);
    assert_eq!(
        dur1.wal_appends,
        phase1.len(),
        "the router logs every submitted update in global form"
    );
    durable.checkpoint().unwrap();

    // Standing queries on the reference across the crash window.
    let standing: Vec<RknntQuery> = workload::rknnt_queries(&city, 4, 4, 800.0, seed ^ 0x5b)
        .into_iter()
        .map(|route| RknntQuery {
            route,
            k: 2,
            semantics,
        })
        .collect();
    let ref_subs: Vec<SubscriptionId> = standing
        .iter()
        .map(|q| reference.subscribe(q.clone()))
        .collect();

    // Phase 2 in small batches, then crash (drop): the WAL carries the
    // tail behind the phase-1 snapshot.
    for chunk in phase2.chunks(4) {
        reference.apply_updates(chunk.to_vec());
        durable.apply_updates(chunk.to_vec());
    }
    drop(durable);

    let (mut recovered, _) = ShardedService::open(&dir, config, test_storage()).unwrap();
    assert!(recovered.has_storage());
    assert_eq!(recovered.shard_count(), shards, "shard count from disk");
    assert_fleets_identical(&recovered, &reference, "after recovery");

    // Probe answers byte-identical.
    let probes: Vec<RknntQuery> = workload::rknnt_queries(&city, 6, 5, 700.0, seed ^ 0x77)
        .into_iter()
        .enumerate()
        .map(|(i, route)| RknntQuery {
            route,
            k: 1 + i % 3,
            semantics,
        })
        .collect();
    let (ref_answers, _) = reference.execute_batch(&probes);
    let (rec_answers, _) = recovered.execute_batch(&probes);
    assert_eq!(
        raw_results(&ref_answers),
        raw_results(&rec_answers),
        "recovered fleet answers diverged ({semantics:?} N={shards} seed {seed})"
    );

    // Re-register the standing queries; results and the continuing delta
    // stream must match the never-crashed fleet.
    let rec_subs: Vec<SubscriptionId> = standing
        .iter()
        .map(|q| recovered.subscribe(q.clone()))
        .collect();
    for (a, b) in ref_subs.iter().zip(&rec_subs) {
        assert_eq!(
            reference.subscription_result(*a),
            recovered.subscription_result(*b)
        );
    }
    let mut ref3 = reference.apply_updates(phase3.clone());
    let rec3 = recovered.apply_updates(phase3);
    assert_eq!(ref3.applied, rec3.applied);
    assert_eq!(ref3.rejected, rec3.rejected);
    assert_eq!(ref3.inserted_transitions, rec3.inserted_transitions);
    assert_eq!(ref3.inserted_routes, rec3.inserted_routes);
    // The reference buffered phase-2 deltas (it had subscriptions then);
    // compare only the non-empty deltas of the shared phase-3 window.
    ref3.deltas
        .retain(|d| !d.entered.is_empty() || !d.left.is_empty());
    let rec_deltas: Vec<_> = rec3
        .deltas
        .iter()
        .filter(|d| !d.entered.is_empty() || !d.left.is_empty())
        .cloned()
        .collect();
    assert_eq!(
        ref3.deltas, rec_deltas,
        "post-recovery delta stream diverged ({semantics:?} N={shards} seed {seed})"
    );
    assert_fleets_identical(&recovered, &reference, "after the stream continued");

    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn sharded_recovery_is_deterministic_for_every_seed_and_semantics() {
    for combo in 0..8 {
        let semantics = if combo % 2 == 0 {
            Semantics::Exists
        } else {
            Semantics::ForAll
        };
        run_sharded_recovery(semantics, SHARD_COUNTS[combo % 4], 61 + combo as u64);
    }
}

// ---------------------------------------------------------------------------
// One durable format
// ---------------------------------------------------------------------------

#[test]
fn one_directory_opens_flat_and_sharded() {
    // The directory holds one format whichever service wrote it: a
    // flat-written directory opens as a sharded service at any shard count,
    // a sharded-written one opens flat, and every reopen answers like the
    // unsharded twin that never crashed.
    let (routes, pairs) = raw_world(77, 300);
    let city = CityGenerator::new(CityConfig::small(77)).generate();
    let base = ServiceConfig::default().with_workers(1);
    let probes: Vec<RknntQuery> = workload::rknnt_queries(&city, 5, 4, 800.0, 77 ^ 0x77)
        .into_iter()
        .enumerate()
        .map(|(i, route)| RknntQuery {
            route,
            k: 1 + i % 3,
            semantics: if i % 2 == 0 {
                Semantics::Exists
            } else {
                Semantics::ForAll
            },
        })
        .collect();
    let (route_store, transition_store) = unsharded_stores(&routes, &pairs);
    let mut twin = QueryService::new(route_store.clone(), transition_store.clone(), base);
    let mut gen = Gen(0x0D1F);
    let logged = make_updates(&mut gen, 20, 300);
    twin.apply_updates(logged.clone());
    let (expected, _) = twin.execute_batch(&probes);
    let expected = raw_results(&expected);

    // Flat-written (snapshot + WAL tail) -> sharded at 1 and 3 shards.
    let flat_dir = temp_dir("format-flat");
    let mut flat = QueryService::new(route_store, transition_store, base);
    flat.attach_storage(&flat_dir, test_storage()).unwrap();
    flat.apply_updates(logged.clone());
    drop(flat);
    for shards in [1usize, 3] {
        let config = ShardedConfig::default().with_shards(shards).with_base(base);
        let (opened, stats) = ShardedService::open(&flat_dir, config, test_storage()).unwrap();
        assert_eq!(opened.shard_count(), shards, "the passed config decides");
        assert_eq!(stats.replayed_records, logged.len() as u64);
        let (answers, _) = opened.execute_batch(&probes);
        assert_eq!(
            raw_results(&answers),
            expected,
            "flat-written directory opened at {shards} shard(s)"
        );
    }

    // Sharded-written -> flat. Written with fsync on, so the failpoint
    // handle (no rules: it only counts) sees the real sync points: a batch
    // of 8 on 4 shards is one append and one fsync, eight frames.
    let sharded_dir = temp_dir("format-sharded");
    let config = ShardedConfig::default().with_shards(4).with_base(base);
    let mut fleet = ShardedService::bulk_build(config, routes.clone(), pairs.clone());
    fleet
        .attach_storage(&sharded_dir, StorageConfig::default())
        .unwrap();
    let sync_points = Failpoints::none();
    fleet.set_storage_failpoints(sync_points.clone());
    let stats = fleet.apply_updates(logged[..8].to_vec());
    assert_eq!(stats.wal_appends, 8);
    assert_eq!(sync_points.hits(WAL_FSYNC_SITE), 1);
    fleet.apply_updates(logged[8..].to_vec());
    drop(fleet);
    assert!(!root_files(&sharded_dir).is_empty());
    let (opened, stats) = QueryService::open(&sharded_dir, base, test_storage()).unwrap();
    assert_eq!(stats.replayed_records, logged.len() as u64);
    let (answers, _) = opened.execute_batch(&probes);
    assert_eq!(
        raw_results(&answers),
        expected,
        "sharded-written directory opened flat"
    );
    drop(opened);

    // Live data is never shadowed: a second attach over either directory,
    // from either service, is refused.
    let mut other_fleet = ShardedService::bulk_build(config, routes, pairs);
    let mut other_flat = QueryService::new(Default::default(), Default::default(), base);
    for dir in [&flat_dir, &sharded_dir] {
        let err = other_fleet.attach_storage(dir, test_storage()).unwrap_err();
        assert!(
            matches!(err, rknnt_service::StorageError::DirectoryNotEmpty { .. }),
            "got {err}"
        );
        let err = other_flat.attach_storage(dir, test_storage()).unwrap_err();
        assert!(
            matches!(err, rknnt_service::StorageError::DirectoryNotEmpty { .. }),
            "got {err}"
        );
    }
    assert!(matches!(
        other_fleet.checkpoint().unwrap_err(),
        rknnt_service::StorageError::NotAttached
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

// ---------------------------------------------------------------------------
// Reshard (split / merge)
// ---------------------------------------------------------------------------

#[test]
fn reshard_preserves_answers_subscriptions_and_durability() {
    let (routes, pairs) = raw_world(131, 900);
    let city = CityGenerator::new(CityConfig::small(131)).generate();
    let (route_store, transition_store) = unsharded_stores(&routes, &pairs);
    let base = ServiceConfig::default().with_workers(2);
    let mut unsharded = QueryService::new(route_store, transition_store, base);
    let dir = temp_dir("reshard");
    let mut fleet = ShardedService::bulk_build(
        ShardedConfig::default().with_shards(2).with_base(base),
        routes,
        pairs,
    );
    fleet.attach_storage(&dir, test_storage()).unwrap();

    // Churn a little so both live and dead global ids exist, and register a
    // standing query on both sides.
    let mut gen = Gen(0xE5);
    let updates = make_updates(&mut gen, 30, 900);
    unsharded.apply_updates(updates.clone());
    fleet.apply_updates(updates);
    let standing = RknntQuery::exists(
        workload::rknnt_queries(&city, 1, 4, 900.0, 131 ^ 0x5b)[0].clone(),
        2,
    );
    let sub_a = unsharded.subscribe(standing.clone());
    let sub_b = fleet.subscribe(standing);

    let probes: Vec<RknntQuery> = workload::rknnt_queries(&city, 6, 4, 800.0, 131 ^ 0x77)
        .into_iter()
        .enumerate()
        .map(|(i, route)| RknntQuery {
            route,
            k: 1 + i % 3,
            semantics: if i % 2 == 0 {
                Semantics::Exists
            } else {
                Semantics::ForAll
            },
        })
        .collect();
    let (expected, _) = unsharded.execute_batch(&probes);
    let expected = raw_results(&expected);
    assert_eq!(raw_results(&fleet.execute_batch(&probes).0), expected);
    let cached = fleet.cache_len();
    assert_eq!(cached, probes.len(), "the probes are resident");
    let metric_ids = |text: String| -> Vec<String> {
        text.lines()
            .map(|line| line.split_whitespace().next().unwrap().to_owned())
            .collect()
    };
    let ids_before = metric_ids(fleet.metrics_text());

    // Split 2 -> 8, then merge 8 -> 3: ids, answers and the subscription
    // survive both, the re-partitioned fleet keeps every item findable, and
    // neither the disk (the directory holds global state, which a reshard
    // does not change) nor the cache and the counters (results are keyed by
    // global ids) are touched.
    for (shards, bits) in [(8usize, 7u32), (3, 5)] {
        let stats_before = fleet.storage_stats().unwrap();
        let files_before = root_files(&dir);
        let (cache_before, router_before) = (fleet.cache_stats(), fleet.router_stats());
        fleet.reshard(shards, bits);
        assert_eq!(fleet.cache_len(), cached, "reshard to N={shards} evicted");
        assert_eq!(
            fleet.storage_stats().unwrap(),
            stats_before,
            "reshard to N={shards} wrote a snapshot or touched the WAL"
        );
        assert_eq!(root_files(&dir), files_before, "reshard changed a file");
        assert_eq!(fleet.shard_count(), shards);
        assert_eq!(fleet.config().grid_bits, bits);
        let (got, batch) = fleet.execute_batch(&probes);
        assert_eq!(
            raw_results(&got),
            expected,
            "answers changed across reshard to N={shards}"
        );
        assert_eq!(
            (batch.cache_hits, batch.filter_constructions),
            (probes.len(), 0),
            "the cache went cold across reshard to N={shards}"
        );
        assert_eq!(
            fleet.cache_stats().hits,
            cache_before.hits + probes.len() as u64,
            "cache counters restarted"
        );
        assert_eq!(
            fleet.router_stats().executions,
            router_before.executions,
            "router counters restarted"
        );
        assert!(router_before.executions > 0);
        assert_eq!(
            fleet.subscription_result(sub_b),
            unsharded.subscription_result(sub_a),
            "subscription result changed across reshard to N={shards}"
        );
        // Every live directory entry resolves in its new shard.
        let total: usize = (0..shards)
            .map(|i| fleet.shard_transitions(i).unwrap().len())
            .sum();
        assert_eq!(total, fleet.num_transitions());
    }
    assert_eq!(
        metric_ids(fleet.metrics_text()),
        ids_before,
        "the metric catalogue depends on the shard count"
    );

    // Keep churning after the reshards so a reopen replays a tail logged
    // under three different topologies, then crash.
    let config_at_drop = *fleet.config();
    let tail = make_updates(&mut gen, 10, 950);
    let a = unsharded.apply_updates(tail.clone());
    let b = fleet.apply_updates(tail);
    assert_eq!(
        a.deltas, b.deltas,
        "delta stream diverged after the reshards"
    );
    assert_eq!(
        b.wal_appends, 10,
        "the WAL kept logging across the reshards"
    );
    drop(fleet);

    // The one directory reopens at the shard count it was dropped with, at
    // one it was never run with, and as a flat service; each answers like
    // the unsharded twin and maintains a re-registered subscription through
    // further churn with the same delta stream. (A macro, not a function:
    // the two service types share no nameable trait.)
    macro_rules! serves_like_the_twin {
        ($label:expr, $reopened:expr) => {{
            let mut reopened = $reopened;
            let sub = reopened.subscribe(unsharded.subscription_query(sub_a).unwrap().clone());
            assert_eq!(sub, sub_a, "first subscription of a fresh registry");
            let churn = make_updates(&mut gen, 12, 960);
            let twin = unsharded.apply_updates(churn.clone());
            let stats = reopened.apply_updates(churn);
            assert_eq!(stats.applied, twin.applied, "reopened {}", $label);
            assert_eq!(stats.inserted_transitions, twin.inserted_transitions);
            assert_eq!(
                stats.deltas, twin.deltas,
                "delta stream, reopened {}",
                $label
            );
            assert_eq!(
                raw_results(&reopened.execute_batch(&probes).0),
                raw_results(&unsharded.execute_batch(&probes).0),
                "answers, reopened {}",
                $label
            );
            assert_eq!(
                reopened.subscription_result(sub),
                unsharded.subscription_result(sub_a),
                "subscription result, reopened {}",
                $label
            );
        }};
    }
    let (reopened, _) = ShardedService::open(&dir, config_at_drop, test_storage()).unwrap();
    assert_eq!(reopened.shard_count(), 3);
    serves_like_the_twin!("at 3 shards", reopened);
    let five = config_at_drop.with_shards(5);
    let (reopened, _) = ShardedService::open(&dir, five, test_storage()).unwrap();
    assert_eq!(reopened.shard_count(), 5, "the passed config decides");
    serves_like_the_twin!("at 5 shards", reopened);
    let (reopened, _) = QueryService::open(&dir, base, test_storage()).unwrap();
    serves_like_the_twin!("flat", reopened);
    std::fs::remove_dir_all(&dir).unwrap();
}
