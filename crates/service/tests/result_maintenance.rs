//! Results are *maintained*, not recomputed, and stay right: one targeted
//! test per maintenance rule, each observable as counts on a hand-built
//! ladder world — what every update kind does to a cached entry and to a
//! subscription, a route insert's recheck and a route removal's admission,
//! ties on either side of "strictly closer", the journal ring's tail, and
//! the removal lemma against brute force alone. Every seeded interleaving of
//! the same rules, through every serving configuration, is the tier-1
//! stream in `tests/serving_layers.rs`.

use rknnt_core::{BruteForceEngine, EngineKind, RknnTEngine, RknntQuery};
use rknnt_geo::Point;
use rknnt_index::{RouteId, RouteStore, TransitionId, TransitionStore};
use rknnt_service::{
    DeltaReason, QueryService, ServiceConfig, ShardedConfig, ShardedService, StoreUpdate,
    SubscriptionDelta, SubscriptionId, UpdateStats, JOURNAL_CAPACITY,
};

fn p(x: f64, y: f64) -> Point {
    Point::new(x, y)
}

/// Eight horizontal routes at y = 0, 10, …, 70 with stops every 10 in x.
fn ladder() -> Vec<Vec<Point>> {
    (0..8)
        .map(|i| {
            (0..8)
                .map(|j| p(j as f64 * 10.0, i as f64 * 10.0))
                .collect()
        })
        .collect()
}

fn scatter() -> Vec<(Point, Point)> {
    (0..60u32)
        .map(|i| {
            let i = i as f64;
            (
                p((i * 7.3) % 75.0, (i * 13.7) % 75.0),
                p((i * 3.1 + 11.0) % 75.0, (i * 17.9 + 23.0) % 75.0),
            )
        })
        .collect()
}

/// The endpoint (35, 33) is at distance² 34 from the y = 30 route's nearest
/// stops and from the vertex (30, 36) of `pool()[0]`, with nothing closer:
/// k = 1 must admit it.
const TIE_K1: (f64, f64) = (35.0, 33.0);

/// Five query routes, each as an `∃` query and its `∀` twin.
fn pool() -> Vec<RknntQuery> {
    let routes: [(Vec<Point>, usize); 5] = [
        (vec![p(30.0, 36.0), p(72.0, 76.0)], 1),
        (vec![p(5.0, 35.0), p(35.0, 35.0), p(65.0, 35.0)], 2),
        (vec![p(27.0, 37.0), p(-40.0, 90.0)], 2),
        (vec![p(12.0, 4.0), p(48.0, 6.0)], 1),
        (vec![p(55.0, 62.0)], 3),
    ];
    routes
        .into_iter()
        .flat_map(|(route, k)| {
            [
                RknntQuery::exists(route.clone(), k),
                RknntQuery::for_all(route, k),
            ]
        })
        .collect()
}

/// Mirror stores the same updates are applied to; ids agree because both
/// sides hand out dense slot indexes.
struct Mirror {
    routes: RouteStore,
    transitions: TransitionStore,
}

impl Mirror {
    fn new() -> Self {
        let mut routes = RouteStore::default();
        for route in ladder() {
            routes.insert_route(route).unwrap();
        }
        let mut transitions = TransitionStore::default();
        for (o, d) in scatter() {
            transitions.insert(o, d).unwrap();
        }
        Mirror {
            routes,
            transitions,
        }
    }

    fn apply(&mut self, update: &StoreUpdate) {
        match update {
            StoreUpdate::InsertTransition {
                origin,
                destination,
            } => {
                self.transitions.insert(*origin, *destination);
            }
            StoreUpdate::ExpireTransition(id) => {
                self.transitions.remove(*id);
            }
            StoreUpdate::InsertRoute(points) => {
                self.routes.insert_route(points.clone());
            }
            StoreUpdate::RemoveRoute(id) => {
                self.routes.remove_route(*id);
            }
        }
    }

    fn answer(&self, query: &RknntQuery) -> Vec<TransitionId> {
        BruteForceEngine::new(&self.routes, &self.transitions)
            .execute(query)
            .transitions
    }
}

const CACHE_CAPACITY: usize = 6;

fn config() -> ServiceConfig {
    ServiceConfig::default()
        .with_workers(2)
        .with_cache_capacity(CACHE_CAPACITY)
}

fn flat() -> QueryService {
    let mirror = Mirror::new();
    QueryService::new(mirror.routes, mirror.transitions, config())
}

fn sharded() -> ShardedService {
    ShardedService::bulk_build(
        ShardedConfig::default().with_shards(4).with_base(config()),
        ladder(),
        scatter(),
    )
}

fn arrival(origin: Point, destination: Point) -> StoreUpdate {
    StoreUpdate::InsertTransition {
        origin,
        destination,
    }
}

/// The update path's cost does not depend on what is cached or watched: a
/// batch of transition updates touches no entry — none evicted, the
/// population unchanged — and re-executes no standing query, yet every read
/// behind it is a hit with the right answer and every subscription is
/// current. (Formerly two CI gates read off experiment reports: the churn
/// `hit_rate_advantage`, which allowed the maintained cache's hit rate to
/// fall to 0.34 above a dropped cache's, and the monitoring `reexec_rate`,
/// which allowed half of all (update × subscription) pairs to re-execute.
/// Here a dropped cache would miss all ten reads and the maintained one
/// misses none, and nothing re-executes.)
///
/// Mutation that fails it: in `Service::apply_updates`, evict the cache
/// entries a transition arrival's endpoints fall inside instead of
/// journalling it (`evicted_entries`, `retained_entries` and the hit counts
/// below).
#[test]
fn transition_updates_never_touch_the_cache() {
    let mut service = QueryService::new(
        Mirror::new().routes,
        Mirror::new().transitions,
        config().with_cache_capacity(64),
    );
    let mut mirror = Mirror::new();
    let pool = pool();
    for query in &pool {
        service.execute(query);
    }
    assert_eq!(service.cache_len(), pool.len());
    let standing: Vec<SubscriptionId> = pool.iter().map(|q| service.subscribe(q.clone())).collect();
    // Members of cached results, to expire.
    let members: Vec<TransitionId> = pool
        .iter()
        .filter_map(|q| mirror.answer(q).first().copied())
        .collect();
    assert!(members.len() >= 4);
    let mut updates = vec![
        // Far from every entry, and near several.
        arrival(p(900.0, 900.0), p(950.0, 920.0)),
        arrival(p(34.0, 36.0), p(36.0, 34.0)),
        arrival(p(TIE_K1.0, TIE_K1.1), p(13.0, 5.0)),
        arrival(p(55.0, 61.0), p(56.0, 63.0)),
    ];
    updates.extend(members.iter().map(|id| StoreUpdate::ExpireTransition(*id)));
    for update in &updates {
        mirror.apply(update);
    }
    let before = service.cache_stats();
    let stats = service.apply_updates(updates);
    assert_eq!(stats.evicted_entries, 0);
    assert_eq!(stats.retained_entries, pool.len());
    assert_eq!(service.cache_len(), pool.len());
    assert_eq!(service.cache_stats(), before, "no cache counter moved");
    assert!(
        stats.deltas.len() >= 4,
        "the batch must reach subscriptions"
    );
    let mut changed = 0;
    for (n, query) in pool.iter().enumerate() {
        let got = service.execute(query).transitions;
        assert_eq!(got, mirror.answer(query), "{query:?}");
        assert_eq!(service.subscription_result(standing[n]), Some(&got[..]));
        assert_eq!(service.cache_stats().hits, before.hits + n as u64 + 1);
        changed += usize::from(got != Mirror::new().answer(query));
    }
    assert!(changed >= 4, "the batch must have changed cached answers");
    assert_eq!(service.cache_stats().misses, before.misses);
}

/// A route insert keeps the cache and re-executes nothing. A far insert
/// changes no answer and emits no delta; a route laid through both
/// endpoints of a member of a `k = 1` result comes strictly closer than the
/// query at each of them, so that member leaves — in place, as one
/// `RouteInserted` delta on its subscription — and every read behind either
/// insert is a hit equal to a fresh engine over the mirror.
///
/// Mutation that fails it: `Maintained::recheck_members` returns at once (the
/// member stays in the cached and the standing result, no delta).
#[test]
fn a_route_insert_keeps_the_cache_and_rechecks_only_the_members_it_beats() {
    let mut mirror = Mirror::new();
    let mut service = flat();
    let pool = pool();
    let standing: Vec<SubscriptionId> = pool.iter().map(|q| service.subscribe(q.clone())).collect();
    service.subscribe(RknntQuery::exists(Vec::new(), 2)); // degenerate
    let member = mirror.answer(&pool[0])[0];
    let (origin, destination) = {
        let t = mirror.transitions.get(member).unwrap();
        (t.origin, t.destination)
    };
    let far = vec![p(5_000.0, 5_000.0), p(5_100.0, 5_000.0)];
    for (update, at, member_leaves) in [
        (StoreUpdate::InsertRoute(far), "far insert", false),
        (
            StoreUpdate::InsertRoute(vec![origin, destination]),
            "insert through a member",
            true,
        ),
    ] {
        for query in &pool[..CACHE_CAPACITY] {
            service.execute(query);
        }
        assert_eq!(service.cache_len(), CACHE_CAPACITY, "{at}");
        mirror.apply(&update);
        let stats = service.apply_updates(vec![update]);
        assert_eq!(stats.full_drops, 0, "{at}");
        assert_eq!(
            (stats.evicted_entries, stats.retained_entries),
            (0, CACHE_CAPACITY),
            "{at}"
        );
        assert_eq!(stats.subs_stable, pool.len(), "{at}");
        assert_eq!(stats.subs_unaffected, 1, "{at}: the degenerate one");
        for delta in &stats.deltas {
            assert_eq!(delta.reason, DeltaReason::RouteInserted, "{at}");
            assert!(delta.entered.is_empty() && !delta.left.is_empty(), "{at}");
        }
        if member_leaves {
            assert!(!mirror.answer(&pool[0]).contains(&member), "{at}");
            let on_sub: Vec<&SubscriptionDelta> = stats
                .deltas
                .iter()
                .filter(|d| d.subscription == standing[0])
                .collect();
            assert_eq!(on_sub.len(), 1, "{at}: one delta per subscription");
            assert!(on_sub[0].left.contains(&member), "{at}");
        } else {
            assert!(stats.deltas.is_empty(), "{at}: no answer changed");
        }
        let hits = service.cache_stats().hits;
        for (n, query) in pool[..CACHE_CAPACITY].iter().enumerate() {
            assert_eq!(
                service.execute(query).transitions,
                mirror.answer(query),
                "{at}"
            );
            assert_eq!(
                service.cache_stats().hits,
                hits + n as u64 + 1,
                "{at}: a hit"
            );
        }
        for (query, id) in pool.iter().zip(&standing) {
            let answer = mirror.answer(query);
            assert_eq!(service.subscription_result(*id), Some(&answer[..]), "{at}");
        }
    }
}

/// A route removal keeps the cache and re-executes nothing. A far removal
/// changes no answer and emits no delta. Removing the ladder rung y = 40 —
/// next to the `k = 1` query through (30, 36) and the `k = 2` queries along
/// y = 35 — uncovers endpoints it was strictly closer to than the query,
/// some of them behind the rung y = 30 as well, so they qualify for the
/// removed rung at `k = 2` but not at `k = 1`. Each subscription that gains
/// gets exactly one `RouteRemoved` delta entering exactly the gain, and
/// every read behind either removal is a hit equal to a fresh engine over
/// the mirror.
///
/// Mutations that fail it: `Maintained::admit_candidates` returns at once (the
/// hidden members never enter); `Service::removal_candidates` runs the
/// candidate query at the smallest `k` cached or watched instead of the
/// largest (the `k = 2` gain is missing from the candidates).
#[test]
fn a_route_removal_keeps_the_cache_and_admits_the_members_it_hid() {
    let mut mirror = Mirror::new();
    let mut service = flat();
    let pool = pool();
    let standing: Vec<SubscriptionId> = pool.iter().map(|q| service.subscribe(q.clone())).collect();
    service.subscribe(RknntQuery::exists(Vec::new(), 2)); // degenerate
    let far = StoreUpdate::InsertRoute(vec![p(5_000.0, 5_000.0), p(5_100.0, 5_000.0)]);
    mirror.apply(&far);
    let far = service.apply_updates(vec![far]).inserted_routes[0];
    let rung = RouteId(4);
    let rung_points = mirror.routes.route_points(rung).to_vec();
    // (query, transition) pairs the rung hid.
    let mut uncovered: Vec<(RknntQuery, TransitionId)> = Vec::new();
    for (removed, at) in [(far, "far removal"), (rung, "rung removal")] {
        for query in &pool[..CACHE_CAPACITY] {
            service.execute(query);
        }
        assert_eq!(service.cache_len(), CACHE_CAPACITY, "{at}");
        let before: Vec<Vec<TransitionId>> = pool.iter().map(|q| mirror.answer(q)).collect();
        let update = StoreUpdate::RemoveRoute(removed);
        mirror.apply(&update);
        let stats = service.apply_updates(vec![update]);
        assert_eq!(stats.full_drops, 0, "{at}");
        assert_eq!(
            (stats.evicted_entries, stats.retained_entries),
            (0, CACHE_CAPACITY),
            "{at}"
        );
        assert_eq!(stats.subs_stable, pool.len(), "{at}");
        assert_eq!(stats.subs_unaffected, 1, "{at}: the degenerate one");
        for ((query, id), before) in pool.iter().zip(&standing).zip(&before) {
            let after = mirror.answer(query);
            assert!(before.iter().all(|t| after.contains(t)), "{at}: only gains");
            let gain: Vec<TransitionId> = after
                .iter()
                .filter(|t| !before.contains(t))
                .copied()
                .collect();
            let on_sub: Vec<&SubscriptionDelta> = stats
                .deltas
                .iter()
                .filter(|d| d.subscription == *id)
                .collect();
            if gain.is_empty() {
                assert!(on_sub.is_empty(), "{at}: {query:?} gained nothing");
            } else {
                assert_eq!(on_sub.len(), 1, "{at}: one delta per subscription");
                assert_eq!(on_sub[0].reason, DeltaReason::RouteRemoved, "{at}");
                assert_eq!(on_sub[0].entered, gain, "{at}: {query:?}");
                assert!(on_sub[0].left.is_empty(), "{at}");
            }
            assert_eq!(service.subscription_result(*id), Some(&after[..]), "{at}");
            uncovered.extend(gain.into_iter().map(|t| (query.clone(), t)));
        }
        if removed == far {
            assert!(stats.deltas.is_empty(), "{at}: no answer changed");
        }
        let hits = service.cache_stats().hits;
        for (n, query) in pool[..CACHE_CAPACITY].iter().enumerate() {
            assert_eq!(
                service.execute(query).transitions,
                mirror.answer(query),
                "{at}"
            );
            assert_eq!(
                service.cache_stats().hits,
                hits + n as u64 + 1,
                "{at}: a hit"
            );
        }
    }
    // The stream has teeth: the rung hid members of the `k = 1` query, and
    // members of a `k = 2` query that qualify for the rung only at `k = 2`.
    let rung_at_k1 = mirror.answer(&RknntQuery::exists(rung_points, 1));
    assert!(uncovered.iter().any(|(q, _)| q == &pool[0]));
    assert!(uncovered
        .iter()
        .any(|(q, t)| q.k == 2 && !rung_at_k1.contains(t)));
}

/// Route changes are strict at ties and backing-blind. With k = 1 a member
/// whose only qualifying endpoint is `TIE_K1` (the query's vertex (30, 36)
/// and the y = 30 route both at distance² 34) stays when a route is inserted
/// at exactly that distance too — a tie is not "strictly closer" — and
/// leaves when the same route is nudged 0.001 closer. Removing the tied
/// route moves nothing; removing the nudged one brings the member back as
/// one `RouteRemoved` delta. A flat and a 4-shard service fed the same
/// stream emit identical deltas, and every read behind it is a hit equal to
/// the mirror.
#[test]
fn a_tied_route_moves_nothing_and_a_nudged_one_moves_the_member() {
    let mut mirror = Mirror::new();
    let (mut flat, mut sharded) = (flat(), sharded());
    let pool = pool();
    let query = &pool[0];
    assert_eq!(
        (query.k, query.semantics),
        (1, rknnt_core::Semantics::Exists)
    );
    let (sub, sharded_sub) = (
        flat.subscribe(query.clone()),
        sharded.subscribe(query.clone()),
    );
    assert_eq!(sub, sharded_sub);
    flat.execute(query);
    sharded.execute(query);
    // Applies one update to both services and returns its stats with the
    // mirror's answer behind it.
    let mut apply = |update: StoreUpdate, at: &str| -> (UpdateStats, Vec<TransitionId>) {
        mirror.apply(&update);
        let stats = flat.apply_updates(vec![update.clone()]);
        assert_eq!(
            stats.deltas,
            sharded.apply_updates(vec![update]).deltas,
            "{at}: flat and sharded deltas"
        );
        let answer = mirror.answer(query);
        let hits = (flat.cache_stats().hits, sharded.cache_stats().hits);
        assert_eq!(flat.execute(query).transitions, answer, "{at}: flat");
        assert_eq!(sharded.execute(query).transitions, answer, "{at}: sharded");
        let after = (flat.cache_stats().hits, sharded.cache_stats().hits);
        assert_eq!(after, (hits.0 + 1, hits.1 + 1), "{at}: a hit on each");
        assert_eq!(flat.subscription_result(sub), Some(&answer[..]), "{at}");
        assert_eq!(sharded.subscription_result(sub), Some(&answer[..]), "{at}");
        (stats, answer)
    };
    // On a stop, the far endpoint has a route strictly closer: only the tie
    // qualifies.
    let arrival = arrival(p(TIE_K1.0, TIE_K1.1), p(0.0, 0.0));
    let (stats, answer) = apply(arrival, "the member arrives");
    let member = stats.inserted_transitions[0];
    assert!(answer.contains(&member));
    // (40, 36) is at distance² 5² + 3² = 34 from the tie endpoint.
    let (tied, answer) = apply(
        StoreUpdate::InsertRoute(vec![p(40.0, 36.0), p(45.0, 60.0)]),
        "a tied route",
    );
    assert!(tied.deltas.is_empty(), "a tie is not strictly closer");
    assert!(answer.contains(&member));
    let (nudged, answer) = apply(
        StoreUpdate::InsertRoute(vec![p(40.0, 35.999), p(45.0, 60.0)]),
        "the route nudged 0.001 closer",
    );
    assert!(!answer.contains(&member));
    assert_eq!(nudged.deltas.len(), 1);
    assert_eq!(nudged.deltas[0].reason, DeltaReason::RouteInserted);
    assert_eq!(nudged.deltas[0].left, vec![member]);
    assert_eq!((nudged.evicted_entries, nudged.retained_entries), (0, 1));
    let (untied, answer) = apply(
        StoreUpdate::RemoveRoute(tied.inserted_routes[0]),
        "the tied route removed",
    );
    assert!(untied.deltas.is_empty(), "it hid nothing");
    assert!(!answer.contains(&member), "the nudged route still hides it");
    let (unnudged, answer) = apply(
        StoreUpdate::RemoveRoute(nudged.inserted_routes[0]),
        "the nudged route removed",
    );
    assert!(answer.contains(&member));
    assert_eq!(unnudged.deltas.len(), 1);
    assert_eq!(unnudged.deltas[0].reason, DeltaReason::RouteRemoved);
    assert_eq!(unnudged.deltas[0].entered, vec![member]);
    assert_eq!(
        (unnudged.evicted_entries, unnudged.retained_entries),
        (0, 1)
    );
}

/// The lemma route-removal maintenance rests on, against the definition
/// alone: on seeded random worlds, for `∃` and `∀` and k ∈ {1, 2, 4},
/// removing a route `R` only adds members, and every transition that enters
/// a brute-force answer lies in `RkNNT_∃(R, k)` over the remaining routes —
/// hence in `RkNNT_∃(R, 4)`, the candidate set at the largest `k`.
#[test]
fn every_member_a_removal_adds_is_in_the_removed_routes_own_answer() {
    let mut entered = 0;
    for seed in 0..40u64 {
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        let mut coord = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as f64 / (1u64 << 31) as f64 * 100.0
        };
        let mut route = |len: usize| (0..len).map(|_| p(coord(), coord())).collect::<Vec<_>>();
        let shapes: Vec<Vec<Point>> = (0..10).map(|i| route(2 + i % 3)).collect();
        let queries: Vec<Vec<Point>> = (0..4).map(|i| route(1 + i % 3)).collect();
        let mut routes = RouteStore::default();
        for shape in &shapes {
            routes.insert_route(shape.clone()).unwrap();
        }
        let mut transitions = TransitionStore::default();
        for _ in 0..120 {
            let (origin, destination) = (p(coord(), coord()), p(coord(), coord()));
            transitions.insert(origin, destination).unwrap();
        }
        let removed = (seed % 10) as usize;
        let mut remaining = routes.clone();
        assert!(remaining.remove_route(RouteId(removed as u32)));
        let answer = |routes: &RouteStore, query: &RknntQuery| {
            BruteForceEngine::new(routes, &transitions)
                .execute(query)
                .transitions
        };
        let candidates = |k| answer(&remaining, &RknntQuery::exists(shapes[removed].clone(), k));
        let widest = candidates(4);
        for route in &queries {
            for k in [1, 2, 4] {
                let own = candidates(k);
                for query in [
                    RknntQuery::exists(route.clone(), k),
                    RknntQuery::for_all(route.clone(), k),
                ] {
                    let (before, after) = (answer(&routes, &query), answer(&remaining, &query));
                    assert!(before.iter().all(|t| after.contains(t)), "seed {seed}");
                    for t in after.iter().filter(|t| !before.contains(t)) {
                        assert!(own.contains(t), "seed {seed}: {t:?} {query:?}");
                        assert!(widest.contains(t), "seed {seed}");
                        entered += 1;
                    }
                }
            }
        }
    }
    assert!(entered >= 50, "only {entered} members entered");
}

/// The journal ring's tail, as counters: an entry exactly
/// `JOURNAL_CAPACITY` ops behind is still replayed and served (a hit), and
/// one op further behind it is dropped at its read and recomputed (a miss
/// and a targeted eviction); both answers equal the mirror's.
///
/// Mutation that fails it: `ResultCache::catch_up` returns `true` when
/// `since_mut` is `None` (the stranded entry is served stale, as a hit).
#[test]
fn an_entry_at_the_ring_tail_is_a_hit_and_one_op_past_it_is_dropped() {
    let mut mirror = Mirror::new();
    let mut service = flat();
    let pool = pool();
    let (at_tail, past_tail) = (&pool[0], &pool[2]);
    service.execute(at_tail);
    service.execute(past_tail);
    // Both entries are current to the same sequence. A full ring of
    // arrivals follows, some on both queries' first vertices.
    let ring: Vec<StoreUpdate> = (0..JOURNAL_CAPACITY)
        .map(|i| match i % 64 {
            0 => arrival(at_tail.route[0], past_tail.route[0]),
            _ => arrival(p(900.0 + i as f64, 900.0), p(950.0, 920.0)),
        })
        .collect();
    for update in &ring {
        mirror.apply(update);
    }
    service.apply_updates(ring);
    let before = service.cache_stats();
    assert_eq!(service.execute(at_tail).transitions, mirror.answer(at_tail));
    assert_eq!(service.cache_stats().hits, before.hits + 1, "at the tail");
    let one_more = arrival(past_tail.route[0], past_tail.route[0]);
    mirror.apply(&one_more);
    service.apply_updates(vec![one_more]);
    let before = service.cache_stats();
    let answer = service.execute(past_tail).transitions;
    assert_eq!(answer, mirror.answer(past_tail));
    let after = service.cache_stats();
    assert_eq!(after.hits, before.hits, "a stranded entry is not a hit");
    assert_eq!(after.misses, before.misses + 1);
    assert_eq!(after.targeted_evictions, before.targeted_evictions + 1);
}

/// A service over the ladder with one transition hugging the query along
/// y = 35 (`near`) and one far above the ladder (`far`).
fn near_and_far() -> (QueryService, RknntQuery, TransitionId, TransitionId) {
    let mut routes = RouteStore::default();
    for route in ladder() {
        routes.insert_route(route).unwrap();
    }
    let mut transitions = TransitionStore::default();
    let near = transitions.insert(p(34.0, 36.0), p(36.0, 34.0)).unwrap();
    let far = transitions.insert(p(35.0, 300.0), p(40.0, 300.0)).unwrap();
    let service = QueryService::new(
        routes,
        transitions,
        ServiceConfig::default().with_workers(1),
    );
    let query = RknntQuery::exists(vec![p(5.0, 35.0), p(35.0, 35.0), p(65.0, 35.0)], 2);
    (service, query, near, far)
}

/// Each update kind's retention rule, observable: no update evicts — the
/// cached entry follows transition churn, route inserts and route removals,
/// far or near, and the read behind each is a hit equal to a fresh engine.
#[test]
fn every_update_kind_retains_the_cached_entry() {
    let (mut service, query, near, far) = near_and_far();
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

    // 1. Far transition insert: rejected by its certificate at the
    //    next read -> entry retained.
    let stats = service.apply_updates(vec![arrival(p(33.0, 299.0), p(37.0, 301.0))]);
    assert_eq!(stats.evicted_entries, 0, "far insert must not evict");
    let h1 = hits(&service);
    assert_eq!(service.execute(&query).transitions, baseline.transitions);
    assert_eq!(hits(&service), h1 + 1, "entry must survive far insert");

    // 2. Near transition insert: nothing is evicted, and the next read is
    //    a hit whose answer already contains the arrival.
    let stats = service.apply_updates(vec![arrival(p(34.5, 35.5), p(35.5, 34.5))]);
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

    // 5.–8. A far route insert, a route straight through the result region
    // (the members it comes strictly closer to are re-judged in place), the
    // far ladder rung y = 70 removed (it changes no answer) and the rung
    // y = 40 next to the query removed (what it hid is admitted in place):
    // each retains the entry, and the read behind it is a hit.
    for (update, label) in [
        (
            StoreUpdate::InsertRoute((0..4).map(|i| p(300.0 + i as f64 * 10.0, 300.0)).collect()),
            "far route insert",
        ),
        (
            StoreUpdate::InsertRoute((0..8).map(|j| p(j as f64 * 10.0 + 2.0, 35.5)).collect()),
            "route through the result region",
        ),
        (StoreUpdate::RemoveRoute(RouteId(7)), "far rung removal"),
        (StoreUpdate::RemoveRoute(RouteId(4)), "near rung removal"),
    ] {
        let stats = service.apply_updates(vec![update]);
        assert_eq!(stats.applied, 1, "{label}");
        assert_eq!(stats.full_drops, 0, "{label}");
        assert_eq!(
            (stats.evicted_entries, stats.retained_entries),
            (0, 1),
            "{label}"
        );
        let h = hits(&service);
        check_fresh(&service, label);
        assert_eq!(hits(&service), h + 1, "the read behind a {label} hits");
    }

    // Rejected updates mutate nothing and are counted.
    let before_len = service.transitions().len();
    let stats = service.apply_updates(vec![
        arrival(p(f64::NAN, 0.0), p(1.0, 1.0)),
        StoreUpdate::InsertRoute(vec![p(0.0, 0.0)]),
        StoreUpdate::ExpireTransition(TransitionId(9_999)),
        StoreUpdate::RemoveRoute(RouteId(9_999)),
    ]);
    assert_eq!(stats.applied, 0);
    assert_eq!(stats.rejected, 4);
    assert_eq!(service.transitions().len(), before_len);
}

/// Every classification outcome, observable: unaffected skips and stable
/// in-place maintenance — of arrivals, expiries, route inserts and route
/// removals alike — with their deltas.
#[test]
fn classification_outcomes_and_delta_reasons() {
    let (mut service, query, near, far) = near_and_far();
    let sub = service.subscribe(query.clone());
    assert_eq!(service.subscriptions(), 1);
    assert_eq!(service.subscription_query(sub), Some(&query));
    let initial = service.subscription_result(sub).unwrap().to_vec();
    assert!(initial.contains(&near));
    assert!(!initial.contains(&far));

    // 1. Far transition insert: its certificate rejects it — stable,
    //    no delta.
    let stats = service.apply_updates(vec![arrival(p(33.0, 299.0), p(37.0, 301.0))]);
    assert_eq!(stats.subs_stable, 1);
    assert!(stats.deltas.is_empty());
    assert_eq!(service.subscription_result(sub).unwrap(), &initial[..]);

    // 2. Near transition insert: admitted in place, delta enters the id.
    let stats = service.apply_updates(vec![arrival(p(34.5, 35.5), p(35.5, 34.5))]);
    let new_id = stats.inserted_transitions[0];
    assert_eq!(stats.subs_stable, 1);
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
    assert_eq!(stats.deltas.len(), 1);
    assert_eq!(stats.deltas[0].reason, DeltaReason::TransitionExpired);
    assert_eq!(stats.deltas[0].left, vec![near]);
    assert!(!service.subscription_result(sub).unwrap().contains(&near));

    // 5. A far route insert: rechecked in place (stable), no member has it
    //    strictly closer, no delta.
    let stats = service.apply_updates(vec![StoreUpdate::InsertRoute(
        (0..4).map(|i| p(300.0 + i as f64 * 10.0, 300.0)).collect(),
    )]);
    assert_eq!(stats.subs_stable, 1);
    assert!(stats.deltas.is_empty());

    // 6. Removing the far ladder rung (no endpoint has it strictly closer
    //    than the query): followed in place (stable), and the unchanged
    //    result emits no delta.
    let stats = service.apply_updates(vec![StoreUpdate::RemoveRoute(RouteId(7))]);
    assert_eq!(stats.subs_stable, 1);
    assert!(stats.deltas.is_empty());

    // 7. Two routes laid through both endpoints of the arrival of step 2:
    //    the first one makes the member leave in place, the second finds
    //    it gone.
    let through = vec![p(34.5, 35.5), p(35.5, 34.5)];
    let stats = service.apply_updates(vec![
        StoreUpdate::InsertRoute(through.clone()),
        StoreUpdate::InsertRoute(through),
    ]);
    assert_eq!(stats.subs_stable, 2);
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
    let stats = service.apply_updates(vec![arrival(p(1.0, 1.0), p(2.0, 2.0))]);
    assert!(stats.subs_unaffected >= 1);

    // Unsubscribing stops maintenance.
    assert!(service.unsubscribe(sub));
    assert_eq!(service.subscriptions(), 1);
    assert!(service.subscription_result(sub).is_none());
    assert!(service.subscription_query(sub).is_none());
}

/// The flat service over the ladder with `queries` cached and subscribed,
/// its mirror, and the checks every strictly-closer-count test makes after
/// each update.
struct Counted {
    service: QueryService,
    mirror: Mirror,
    queries: Vec<RknntQuery>,
    subs: Vec<SubscriptionId>,
}

impl Counted {
    /// `arrivals` land first (so the counts of their members come from
    /// verification) when `before_reads`, after the queries are cached and
    /// subscribed (from their certificates) otherwise. Returns their ids.
    fn new(
        queries: Vec<RknntQuery>,
        arrivals: &[(Point, Point)],
        before_reads: bool,
    ) -> (Self, Vec<TransitionId>) {
        let mut counted = Counted {
            service: flat(),
            mirror: Mirror::new(),
            queries,
            subs: Vec::new(),
        };
        let updates = || arrivals.iter().map(|&(o, d)| arrival(o, d)).collect();
        let mut ids = Vec::new();
        if before_reads {
            ids = counted.apply(updates(), "arrivals").inserted_transitions;
        }
        for query in &counted.queries {
            counted.service.execute(query);
            counted.subs.push(counted.service.subscribe(query.clone()));
        }
        if !before_reads {
            ids = counted.apply(updates(), "arrivals").inserted_transitions;
        }
        (counted, ids)
    }

    /// Applies `updates` to the service and the mirror. Every cached query
    /// is then a hit equal to brute force, every subscription equals it, and
    /// each subscription whose answer moved has exactly one delta per
    /// update that moved it, together entering and leaving exactly the
    /// brute-force difference.
    fn apply(&mut self, updates: Vec<StoreUpdate>, at: &str) -> UpdateStats {
        let before: Vec<Vec<TransitionId>> =
            self.queries.iter().map(|q| self.mirror.answer(q)).collect();
        for update in &updates {
            self.mirror.apply(update);
        }
        let stats = self.service.apply_updates(updates);
        assert_eq!(stats.evicted_entries, 0, "{at}");
        for ((query, sub), before) in self.queries.iter().zip(&self.subs).zip(&before) {
            let answer = self.mirror.answer(query);
            let hits = self.service.cache_stats().hits;
            assert_eq!(
                self.service.execute(query).transitions,
                answer,
                "{at}: {query:?}"
            );
            assert_eq!(self.service.cache_stats().hits, hits + 1, "{at}: a hit");
            assert_eq!(
                self.service.subscription_result(*sub),
                Some(&answer[..]),
                "{at}: {query:?}"
            );
            let mut replayed = before.clone();
            for delta in stats.deltas.iter().filter(|d| d.subscription == *sub) {
                delta.apply(&mut replayed);
            }
            assert_eq!(replayed, answer, "{at}: deltas of {query:?}");
        }
        stats
    }

    fn answer(&self, n: usize) -> Vec<TransitionId> {
        self.mirror.answer(&self.queries[n])
    }
}

/// The endpoint `U` is at distance² 50 from the ladder (its nearest stops)
/// and 49 from the vertex (35, 42) of `two_bays()`; `V` is the same for the
/// vertex (65, 42). No ladder route is strictly closer to either.
const U: (f64, f64) = (35.0, 35.0);
const V: (f64, f64) = (65.0, 35.0);

/// A query with one vertex above each of `U` and `V`.
fn two_bays() -> Vec<Point> {
    vec![p(35.0, 42.0), p(65.0, 42.0)]
}

/// A route strictly closer to `U` than the query, at distance² `d2` below
/// it, and nowhere near `V`.
fn below_u(d2: f64) -> StoreUpdate {
    StoreUpdate::InsertRoute(vec![p(U.0, U.1 - d2.sqrt()), p(90.0, 95.0)])
}

/// Inserting routes strictly closer to `U` walks its count 0 → 1 → 2; at
/// k = 2 the member leaves exactly at the second, under ∃ (its other
/// endpoint sits on a stop, with routes strictly closer) and under ∀ (its
/// other endpoint is `V`, untouched). A route exactly as far from `U` as
/// the query, inserted between them, does not count: were it counted, both
/// would leave one insert early.
///
/// Mutations that fail it: the recheck's increment skipped; `<` → `<=` in
/// its leave test (`after[e] < cap` in `certain`).
#[test]
fn the_kth_strictly_closer_route_evicts_and_a_tied_one_does_not_count() {
    let queries = vec![
        RknntQuery::exists(two_bays(), 2),
        RknntQuery::for_all(two_bays(), 2),
    ];
    let (mut counted, ids) = Counted::new(
        queries,
        &[(p(U.0, U.1), p(0.0, 0.0)), (p(U.0, U.1), p(V.0, V.1))],
        true,
    );
    let (exists, for_all) = (ids[0], ids[1]);
    assert!(counted.answer(0).contains(&exists));
    assert!(counted.answer(1).contains(&for_all));
    counted.apply(vec![below_u(16.0)], "one route closer: k − 1");
    assert!(counted.answer(0).contains(&exists));
    assert!(counted.answer(1).contains(&for_all));
    // (42, 35) is at distance² 49 from `U`, exactly as far as the query.
    let tied = StoreUpdate::InsertRoute(vec![p(42.0, 35.0), p(90.0, 95.0)]);
    let stats = counted.apply(vec![tied], "a tied route");
    assert!(stats.deltas.is_empty(), "a tie is not strictly closer");
    let stats = counted.apply(vec![below_u(9.0)], "the k-th route closer");
    assert!(!counted.answer(0).contains(&exists));
    assert!(!counted.answer(1).contains(&for_all));
    assert_eq!(stats.deltas.len(), 2, "one delta per subscription");
    for delta in &stats.deltas {
        assert_eq!(delta.reason, DeltaReason::RouteInserted);
    }
}

/// A removal counts the removed route out of every member's counts: with
/// `U`'s count at 1 (k = 2), removing that route and inserting one just as
/// close brings it back to 1, so the member stays, and only a second insert
/// makes it leave. Without the decrement the count would read 2 after the
/// re-insert and the member would leave one insert early. Between the two,
/// removing a route that hid the member brings it back in, with its counts.
///
/// Mutation that fails it: the decrement in `admit_candidates` skipped.
#[test]
fn a_removal_counts_out_and_an_insert_at_the_same_endpoint_counts_in() {
    let queries = vec![
        RknntQuery::exists(two_bays(), 2),
        RknntQuery::for_all(two_bays(), 2),
    ];
    let (mut counted, ids) = Counted::new(
        queries,
        &[(p(U.0, U.1), p(0.0, 0.0)), (p(U.0, U.1), p(V.0, V.1))],
        true,
    );
    let first = counted
        .apply(vec![below_u(16.0)], "first route")
        .inserted_routes[0];
    let second = counted
        .apply(vec![below_u(9.0)], "second route")
        .inserted_routes[0];
    assert!(!counted.answer(0).contains(&ids[0]));
    let stats = counted.apply(vec![StoreUpdate::RemoveRoute(second)], "second removed");
    assert_eq!(stats.deltas.len(), 2, "both members re-enter");
    for delta in &stats.deltas {
        assert_eq!(delta.reason, DeltaReason::RouteRemoved);
    }
    counted.apply(vec![StoreUpdate::RemoveRoute(first)], "first removed");
    let stats = counted.apply(vec![below_u(4.0)], "re-inserted: count 1");
    assert!(stats.deltas.is_empty(), "k − 1 routes closer: both stay");
    assert!(counted.answer(0).contains(&ids[0]));
    assert!(counted.answer(1).contains(&ids[1]));
    counted.apply(vec![below_u(1.0)], "count 2");
    assert!(!counted.answer(0).contains(&ids[0]));
    assert!(!counted.answer(1).contains(&ids[1]));
}

/// An ∃ arrival whose origin qualifies is admitted without its destination
/// ever being judged, so its destination holds no count. When a route
/// then comes strictly closer to the origin at k = 1, only a count of the
/// destination decides: `V` qualifies, so the first arrival stays; a stop
/// does not, so the second leaves.
///
/// Mutation that fails it: `recheck_members` treats an ∃ member with no
/// count below `k` as gone without counting the unjudged endpoint.
#[test]
fn an_unjudged_endpoint_is_counted_once_when_it_decides() {
    let queries = vec![RknntQuery::exists(two_bays(), 1)];
    let (mut counted, ids) = Counted::new(
        queries,
        &[(p(U.0, U.1), p(V.0, V.1)), (p(U.0, U.1 + 0.5), p(0.0, 0.0))],
        false,
    );
    assert!(counted.answer(0).contains(&ids[0]) && counted.answer(0).contains(&ids[1]));
    let stats = counted.apply(vec![below_u(4.0)], "a route closer to both origins");
    assert!(counted.answer(0).contains(&ids[0]), "V qualifies");
    assert!(!counted.answer(0).contains(&ids[1]), "a stop does not");
    assert_eq!(stats.deltas.len(), 1);
    assert_eq!(stats.deltas[0].left, vec![ids[1]]);
}
