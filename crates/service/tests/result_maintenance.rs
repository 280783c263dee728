//! Property test: results are *maintained*, not recomputed, and stay right.
//!
//! Random interleavings of reads, transition arrivals and expiries, route
//! inserts and removals and reshards run against a
//! [`QueryService`] and a 4-shard [`ShardedService`] with a cache smaller
//! than the query pool. After every step every read — cache hits included,
//! and the stream makes sure there are hits right behind the churn that
//! should have changed them — equals a fresh [`BruteForceEngine`] answer
//! over mirror stores, and every subscription equals both its fresh answer
//! and the replay of its deltas.
//!
//! The stream carries the geometry the maintenance rules are strict about:
//! an arrival whose endpoint is exactly equidistant from the query and from
//! the k-th route (a tie is not "strictly closer", so it must be admitted),
//! duplicate endpoints, an arrival that expires before anything reads it,
//! `∀` twins of `∃` queries, and bursts sized around
//! [`JOURNAL_CAPACITY`] so entries fall off the ring — exactly at its tail
//! and one past it.

use proptest::prelude::*;
use rknnt_core::{BruteForceEngine, RknnTEngine, RknntQuery};
use rknnt_geo::Point;
use rknnt_index::{RouteId, RouteStore, TransitionId, TransitionStore};
use rknnt_service::{
    CacheStats, DeltaReason, QueryService, ServiceConfig, ShardedConfig, ShardedService,
    StoreUpdate, SubscriptionDelta, SubscriptionId, UpdateStats, JOURNAL_CAPACITY,
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
/// k = 1 must admit it. (35, 32) has the y = 30 route strictly closer (29)
/// and ties the y = 40 route and the vertex (27, 37) of `pool()[2]` at 89:
/// k = 2 must admit it.
const TIE_K1: (f64, f64) = (35.0, 33.0);
const TIE_K2: (f64, f64) = (35.0, 32.0);

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

/// What the driver needs of a service; both are the same frontend, so the
/// impls are the same text except for the reshard only one of them has.
trait Sut {
    fn read(&self, query: &RknntQuery) -> Vec<TransitionId>;
    fn update(&mut self, updates: Vec<StoreUpdate>) -> UpdateStats;
    fn watch(&mut self, query: RknntQuery) -> SubscriptionId;
    fn standing(&self, id: SubscriptionId) -> Vec<TransitionId>;
    fn stats(&self) -> CacheStats;
    fn cached(&self) -> usize;
    /// Re-places the data where the service has a placement: no answer, no
    /// cached entry and no subscription may change.
    fn reshard(&mut self, draw: u64);
}

macro_rules! sut_common {
    () => {
        fn read(&self, query: &RknntQuery) -> Vec<TransitionId> {
            self.execute(query).transitions
        }
        fn update(&mut self, updates: Vec<StoreUpdate>) -> UpdateStats {
            self.apply_updates(updates)
        }
        fn watch(&mut self, query: RknntQuery) -> SubscriptionId {
            self.subscribe(query)
        }
        fn standing(&self, id: SubscriptionId) -> Vec<TransitionId> {
            self.subscription_result(id).unwrap().to_vec()
        }
        fn stats(&self) -> CacheStats {
            self.cache_stats()
        }
        fn cached(&self) -> usize {
            self.cache_len()
        }
    };
}

impl Sut for QueryService {
    sut_common!();

    /// Flat stores have no placement to change.
    fn reshard(&mut self, _draw: u64) {}
}

impl Sut for ShardedService {
    sut_common!();

    /// Same data, new placement.
    fn reshard(&mut self, draw: u64) {
        ShardedService::reshard(self, 2 + (draw % 3) as usize, 4);
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

/// One step of the stream: an op selector and a draw it spends freely.
type RawStep = (u8, u64);

struct Driver<'s, S: Sut> {
    sut: &'s mut S,
    mirror: Mirror,
    pool: Vec<RknntQuery>,
    /// (subscription, its query, result rebuilt from initial + deltas).
    subs: Vec<(SubscriptionId, RknntQuery, Vec<TransitionId>)>,
    /// Ids the stream may expire (some already dead, on purpose).
    known: Vec<TransitionId>,
    hits: u64,
}

impl<'s, S: Sut> Driver<'s, S> {
    fn new(sut: &'s mut S) -> Self {
        let mirror = Mirror::new();
        let pool = pool();
        let known = mirror.transitions.transition_ids();
        let mut driver = Driver {
            sut,
            mirror,
            pool,
            subs: Vec::new(),
            known,
            hits: 0,
        };
        // Standing twins of the tie queries and one plain pair.
        for index in [0, 1, 4, 5, 2] {
            let query = driver.pool[index].clone();
            let id = driver.sut.watch(query.clone());
            let initial = driver.sut.standing(id);
            driver.subs.push((id, query, initial));
        }
        driver.check_standing("after subscribing");
        driver
    }

    fn read(&mut self, index: usize, at: &str) {
        let query = &self.pool[index % self.pool.len()];
        let before = self.sut.stats();
        let got = self.sut.read(query);
        let after = self.sut.stats();
        let hit = after.hits > before.hits;
        self.hits += u64::from(hit);
        assert_eq!(
            got,
            self.mirror.answer(query),
            "{} of {query:?} {at}",
            if hit { "hit" } else { "miss" }
        );
        assert!(self.sut.cached() <= CACHE_CAPACITY);
    }

    fn update(&mut self, updates: Vec<StoreUpdate>, at: &str) -> UpdateStats {
        for update in &updates {
            self.mirror.apply(update);
        }
        let route_change = updates
            .iter()
            .any(|u| matches!(u, StoreUpdate::InsertRoute(_) | StoreUpdate::RemoveRoute(_)));
        let cached = self.sut.cached();
        let stats = self.sut.update(updates);
        self.known
            .extend(stats.inserted_transitions.iter().copied());
        // The whole point: no update drops the cache — only a route change
        // drops the entries the journal no longer reaches — and transition
        // churn does not even scan it.
        assert_eq!(self.sut.cached(), cached - stats.evicted_entries, "{at}");
        if !route_change {
            assert_eq!(stats.evicted_entries, 0, "{at}");
        }
        self.replay(&stats.deltas, at);
        self.check_standing(at);
        stats
    }

    fn replay(&mut self, deltas: &[SubscriptionDelta], at: &str) {
        for delta in deltas {
            // Every reason has its shape: a transition op moves one id, a
            // route insert only removes, a route removal only adds.
            let shape = (delta.entered.len(), delta.left.len());
            match delta.reason {
                DeltaReason::TransitionArrived => assert_eq!(shape, (1, 0), "{at}"),
                DeltaReason::TransitionExpired => assert_eq!(shape, (0, 1), "{at}"),
                DeltaReason::RouteInserted => assert!(shape.0 == 0 && shape.1 > 0, "{at}"),
                DeltaReason::RouteRemoved => assert!(shape.0 > 0 && shape.1 == 0, "{at}"),
            }
            if let Some((_, _, result)) = self
                .subs
                .iter_mut()
                .find(|(id, ..)| *id == delta.subscription)
            {
                delta.apply(result);
            }
        }
    }

    fn check_standing(&self, at: &str) {
        for (id, query, replayed) in &self.subs {
            let expected = self.mirror.answer(query);
            assert_eq!(self.sut.standing(*id), expected, "maintained {id} {at}");
            assert_eq!(replayed, &expected, "replayed deltas of {id} {at}");
        }
    }

    /// `n` arrivals in one batch, drawn around the pool's query vertices so
    /// some of them enter cached and standing results.
    fn burst(&mut self, n: usize, mut draw: u64, at: &str) {
        let mut next = |m: u64| {
            draw = draw
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (draw >> 33) % m
        };
        let updates = (0..n)
            .map(|_| {
                let around = |v: u64| p((v % 75) as f64 + 0.25, (v / 75 % 75) as f64 + 0.75);
                arrival(around(next(5625)), around(next(5625)))
            })
            .collect();
        self.update(updates, at);
    }

    /// The fixed opening every case runs: each maintenance rule once, with a
    /// read right behind it that must be a hit.
    fn opening(&mut self) {
        let tie1 = p(TIE_K1.0, TIE_K1.1);
        let tie2 = p(TIE_K2.0, TIE_K2.1);
        let far = p(0.0, 0.0); // on a stop: a route is strictly closer
        for index in [0, 1, 4, 5] {
            self.read(index, "warming");
        }
        let hits = self.hits;
        // Ties, under both semantics: (tie, tie) qualifies for ∃ and ∀,
        // (tie, far) only for ∃. Duplicate endpoints ride along.
        let stats = self.update(
            vec![
                arrival(tie1, tie1),
                arrival(tie1, far),
                arrival(tie2, tie2),
                arrival(far, tie2),
            ],
            "tie arrivals",
        );
        let ids = stats.inserted_transitions;
        let exists_k1 = self.mirror.answer(&self.pool[0]);
        let forall_k1 = self.mirror.answer(&self.pool[1]);
        assert!(exists_k1.contains(&ids[0]) && exists_k1.contains(&ids[1]));
        assert!(forall_k1.contains(&ids[0]) && !forall_k1.contains(&ids[1]));
        let exists_k2 = self.mirror.answer(&self.pool[4]);
        let forall_k2 = self.mirror.answer(&self.pool[5]);
        assert!(exists_k2.contains(&ids[2]) && exists_k2.contains(&ids[3]));
        assert!(forall_k2.contains(&ids[2]) && !forall_k2.contains(&ids[3]));
        for index in [0, 1, 4, 5] {
            self.read(index, "right behind the tie arrivals");
        }
        assert_eq!(self.hits, hits + 4, "all four entries followed the churn");
        // A member expires; an arrival expires before anything reads it.
        let stats = self.update(
            vec![StoreUpdate::ExpireTransition(ids[0]), arrival(tie1, tie1)],
            "member expiry",
        );
        let ghost = stats.inserted_transitions[0];
        self.update(
            vec![StoreUpdate::ExpireTransition(ghost)],
            "arrival expired unread",
        );
        for index in [0, 1] {
            self.read(index, "behind the expiries");
        }
        assert_eq!(self.hits, hits + 6);
        // Falling off the ring: an entry exactly at the tail is still
        // served, one op further it is dropped and recomputed.
        self.read(0, "pinning entry 0 to the journal head");
        self.burst(JOURNAL_CAPACITY, 17, "a full ring");
        let before = self.sut.stats();
        self.read(0, "at the ring's tail");
        assert_eq!(self.sut.stats().hits, before.hits + 1);
        self.burst(JOURNAL_CAPACITY + 1, 19, "one past the ring");
        let before = self.sut.stats();
        self.read(0, "past the ring's tail");
        let after = self.sut.stats();
        assert_eq!(after.hits, before.hits, "a stale entry is not a hit");
        assert_eq!(after.misses, before.misses + 1);
        assert_eq!(after.targeted_evictions, before.targeted_evictions + 1);
    }

    fn step(&mut self, (op, draw): RawStep, n: usize) {
        let at = format!("at step {n} (op {op}, draw {draw})");
        let coord = |v: u64| (v % 800) as f64 / 10.0 - 2.0;
        match op {
            0..=3 => {
                for i in 0..1 + draw % 3 {
                    self.read((draw / 7 + i * 3) as usize, &at);
                }
            }
            4..=6 => {
                // Arrivals: near a query vertex, a tie, duplicate endpoints
                // on a stop, or anywhere.
                let vertex = {
                    let route = &self.pool[(draw % 10) as usize].route;
                    route[(draw / 10) as usize % route.len()]
                };
                let near = p(
                    vertex.x + (draw / 100 % 9) as f64 - 4.0,
                    vertex.y + (draw / 900 % 9) as f64 - 4.0,
                );
                let anywhere = p(coord(draw / 13), coord(draw / 10_400));
                let stop = p(
                    (draw / 17 % 8) as f64 * 10.0,
                    (draw / 136 % 8) as f64 * 10.0,
                );
                let (origin, destination) = match draw % 5 {
                    0 => (near, anywhere),
                    1 => (p(TIE_K1.0, TIE_K1.1), near),
                    2 => (stop, stop),
                    3 => (near, near),
                    _ => (anywhere, p(TIE_K2.0, TIE_K2.1)),
                };
                self.update(vec![arrival(origin, destination)], &at);
            }
            7..=8 => {
                // Expiries, two at a time; some of dead or unknown ids.
                let pick = |d: u64| {
                    let i = (d % (self.known.len() as u64 + 2)) as usize;
                    self.known
                        .get(i)
                        .copied()
                        .unwrap_or(TransitionId(1_000_000))
                };
                let updates = vec![
                    StoreUpdate::ExpireTransition(pick(draw)),
                    StoreUpdate::ExpireTransition(pick(draw / 31)),
                ];
                self.update(updates, &at);
            }
            9 => {
                let y = coord(draw);
                let route = vec![p(-5.0, y), p(35.0, y + 3.0), p(75.0, y)];
                self.update(vec![StoreUpdate::InsertRoute(route)], &at);
            }
            10 => {
                let bound = self.mirror.routes.route_id_bound() as u64;
                let id = RouteId((draw % (bound + 1)) as u32);
                // Transition churn in the same batch, on both sides of it.
                let updates = vec![
                    arrival(p(coord(draw / 3), coord(draw / 5)), p(34.0, 36.0)),
                    StoreUpdate::RemoveRoute(id),
                    arrival(p(36.0, 34.0), p(coord(draw / 7), coord(draw / 11))),
                ];
                self.update(updates, &at);
            }
            11 => {
                let (cached, stats) = (self.sut.cached(), self.sut.stats());
                self.sut.reshard(draw);
                assert_eq!(self.sut.cached(), cached, "a reshard evicts nothing {at}");
                assert_eq!(self.sut.stats(), stats, "no cache counter moved {at}");
                self.check_standing(&at);
            }
            _ => self.burst(JOURNAL_CAPACITY / 2 + (draw % 3) as usize, draw, &at),
        }
    }
}

fn run<S: Sut>(sut: &mut S, steps: &[RawStep]) {
    let mut driver = Driver::new(sut);
    driver.opening();
    for (n, step) in steps.iter().enumerate() {
        driver.step(*step, n);
    }
    // Every pool query once more, twice: the second round is all hits on
    // whatever the cache kept.
    for round in 0..2 {
        for index in 0..driver.pool.len() {
            driver.read(index, &format!("closing round {round}"));
        }
    }
}

fn steps() -> impl Strategy<Value = Vec<RawStep>> {
    prop::collection::vec((0u8..13, 0u64..u64::MAX), 1..40)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn flat_results_follow_every_interleaving(steps in steps()) {
        run(&mut flat(), &steps);
    }

    #[test]
    fn sharded_results_follow_every_interleaving(steps in steps()) {
        run(&mut sharded(), &steps);
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
/// Mutation that fails it: `journal::recheck_members` returns at once (the
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
            assert_eq!(service.standing(*id), mirror.answer(query), "{at}");
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
/// Mutations that fail it: `journal::admit_candidates` returns at once (the
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
            assert_eq!(service.standing(*id), after, "{at}");
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
        for sut in [&flat as &dyn Sut, &sharded as &dyn Sut] {
            let hits = sut.stats().hits;
            assert_eq!(sut.read(query), mirror.answer(query), "{at}");
            assert_eq!(sut.stats().hits, hits + 1, "{at}: a hit");
            assert_eq!(sut.standing(sub), mirror.answer(query), "{at}");
        }
        (stats, mirror.answer(query))
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
