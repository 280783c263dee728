//! One seeded request stream through every serving configuration.
//!
//! The stream runs in two worlds: a hand-built ladder of routes, and a
//! generated city (`CityConfig::small` with check-in-shaped transitions, its
//! query routes from `workload::rknnt_queries`, its update draws from
//! `workload::churn_stream` resolved against the live ids). Both carry a kit
//! of degenerate geometry: a route with a repeated consecutive stop, one with
//! three collinear stops, a two-point route whose points coincide, a
//! transition from a stop to itself, and arrivals exactly tied with the kit's
//! query at k = 1 and at k = 2, under ∃ and under ∀.
//!
//! The stream — query batches with exact duplicates, shared `(route, k)`
//! pairs and degenerate queries, k from 1 to 4 under both semantics; update
//! batches mixing the four [`StoreUpdate`] kinds with ones the stores must
//! reject; subscribe and unsubscribe; reshards; checkpoint and
//! crash-and-reopen; and, at its end, bursts of arrivals sized around
//! [`JOURNAL_CAPACITY`] — runs against a [`QueryService`], a
//! [`ShardedService`] at 1 and at 4 shards, a [`Server`] + [`Client`] pair
//! over each of those, and a durable service over one storage directory with
//! tiny WAL segments that every crash reopens in the next shape of the
//! rotation flat → 1 → 2 → 3 → 4 → 5 → 8 shards (the in-memory
//! configurations have nothing to lose, so the storage steps pass through
//! them). After every step each configuration's answers, update counts,
//! maintained subscription results and the results rebuilt by replaying its
//! deltas must equal what the definition says: [`BruteForceEngine`] over a
//! store pair the stream's updates are applied to one by one, each accepted
//! or rejected exactly as a plain `Vec` model that shares nothing with the
//! serving layers says. Beside that:
//!
//! * at every query step every engine of [`EngineKind::ALL`] over the model's
//!   stores agrees with brute force;
//! * every delta is non-empty, its `entered` and `left` are disjoint, its
//!   shape fits its [`DeltaReason`], and every configuration's per-step
//!   deltas (subscriptions named by creation ordinal) equal the flat one's;
//! * in process, every update batch's [`UpdateStats`] agree with the service
//!   and the model: inserted ids, the cache population before and after,
//!   one classification per (applied update, subscription), no drop and no
//!   re-execution, one WAL frame per submitted update exactly where there is
//!   storage; the stores hold what the model holds and, sharded, every id
//!   resolves through the directory to a shard below the shard count;
//! * a reshard moves no cached entry, cache or router counter, storage
//!   counter, file or metric id;
//! * right behind a transition-only batch or a reshard every re-asked query
//!   is a cache hit, and right behind a burst one past the ring every one is
//!   a miss and a targeted eviction;
//! * every reopen replays exactly the updates logged since the last
//!   checkpoint, with no torn tail.
//!
//! The stream also carries *probes* of result maintenance: a query and its
//! `∀` twin are asked (so they are cached), a transition-only update batch
//! lands an arrival inside their results, one far outside, one at a point
//! with exactly `k` routes strictly closer than the query (rejected — one
//! fewer would qualify), and expires a member and a non-member, and the same
//! queries are asked again right behind it — a read the cache serves by
//! replaying the journal, not by recomputing. The ladder's fixed opening
//! lands an arrival exactly tied with a `k = 1` query, under a `k = 1`
//! subscription that certifies every arrival before the `k = 2` subscription
//! and the cached `k = 2` queries read the same certificate; it ends with an
//! `∃` member whose destination was never judged losing its origin to a new
//! route, so that only a count of the destination keeps it.
//!
//! In debug builds every route change ends with a check of every cached and
//! standing result's strictly-closer counts against the verification kernel
//! (`Maintained::check_bounds`), so a count that went stale fails the step it
//! went stale in, read or not.
//!
//! Mutation checks — each of these edits must make this test fail (run when
//! the maintenance code changes):
//!
//! * skip arrival replay (`Maintained::replay` in
//!   `crates/service/src/journal.rs`, `Arrived` arm returns `Vec::new()` at
//!   once);
//! * skip expiry replay (same function, `Expired` arm returns `Vec::new()`);
//! * skip the `follow` loop in `ResultCache::catch_up` alone (subscriptions
//!   still right, cached answers stale);
//! * serve an entry that fell off the ring (`ResultCache::catch_up` returns
//!   `true` when `since_mut` is `None`);
//! * a nearest-route certificate is never widened
//!   (`EndpointCertificate::closer_routes` in `crates/core/src/verify.rs`,
//!   `self.k < k` → `self.k == 0`): the ladder's k = 1 subscription
//!   certifies every arrival first, so the k = 2 one admits what it must
//!   reject;
//! * a tie counted as strictly closer (same function, `<` → `<=` in the
//!   compare of the `k`-th nearest distance): the k = 1 subscription misses
//!   the arrival at (705, 335), exactly as far from its nearest stop as from
//!   the query;
//! * a route insert counts nothing in (`Maintained::recheck_members` in
//!   `crates/service/src/journal.rs`, `after[e] += 1` dropped);
//! * a route removal counts nothing out (`Maintained::admit_candidates`,
//!   same file, `*b -= 1` dropped);
//! * `<=` instead of `<` in a route insert's leave test (`recheck_members`,
//!   `after[e] < cap` in `certain`);
//! * an `∃` member is let go without counting its unjudged endpoint
//!   (`recheck_members`, `.any(|e| counted(e, &mut after))` → `.any(|_|
//!   false)`);
//! * a route insert rechecks nothing (`recheck_members` returns at once);
//! * a route insert is not counted as a stable classification
//!   (`SubscriptionRegistry::follow` in `crates/service/src/monitor.rs`,
//!   `_ => stable += 1` → `_ => stable +=
//!   u64::from(!matches!(effect, Effect::RouteInserted(_)))`);
//! * a route removal admits nothing (`Maintained::admit_candidates` returns
//!   at once);
//! * a route removal's candidate query runs at the smallest `k` cached or
//!   watched instead of the largest (`journal::max_k`, `.max()` →
//!   `.min()`; the stream mixes k = 1 to 4, so a subscription misses a
//!   member the removed route hid only at the larger k);
//! * a reshard restarts the router's counters (`ShardedService::reshard`
//!   places the set with fresh router cells instead of
//!   `self.backing.router.clone()`);
//! * a sharded insert records shard 0 in the directory whatever the owner
//!   (`Shards::insert_transition`);
//! * skip WAL replay of the tail on reopen (`Service::open` never calls
//!   `service.replay(updates)`, so only the snapshot comes back).

use rknnt::core::{BruteForceEngine, EngineKind, RknnTEngine, RknntQuery, Semantics};
use rknnt::data::{
    workload, ChurnConfig, ChurnEvent, CityConfig, CityGenerator, TransitionConfig,
    TransitionGenerator,
};
use rknnt::fault::splitmix64;
use rknnt::geo::{point_route_distance, Point};
use rknnt::index::{RouteId, RouteStore, TransitionId, TransitionStore};
use rknnt::net::{Backend, Client, ClientConfig, Server, ServerConfig};
use rknnt::service::{
    CacheStats, DeltaReason, QueryService, ServiceConfig, ShardedConfig, ShardedService,
    StorageConfig, StoreUpdate, SubscriptionId, UpdateStats, JOURNAL_CAPACITY,
};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt;
use std::path::{Path, PathBuf};
use std::time::Duration;

fn p(x: f64, y: f64) -> Point {
    Point::new(x, y)
}

const CACHE_CAPACITY: usize = 16;

/// Every shape a crash may reopen the storage directory in: flat (0), then
/// shard counts.
const SHAPES: [usize; 7] = [0, 1, 2, 3, 4, 5, 8];

// ---------------------------------------------------------------------------
// The reference model: plain vectors, ids are slot indexes, dead slots stay.
// ---------------------------------------------------------------------------

#[derive(Clone)]
struct Model {
    routes: Vec<(Vec<Point>, bool)>,
    transitions: Vec<((Point, Point), bool)>,
}

impl Model {
    fn new(routes: Vec<Vec<Point>>, transitions: Vec<(Point, Point)>) -> Self {
        Model {
            routes: routes.into_iter().map(|r| (r, true)).collect(),
            transitions: transitions.into_iter().map(|t| (t, true)).collect(),
        }
    }

    /// Applies one update by the store-boundary rules; `false` = rejected
    /// (nothing changes, no id consumed).
    fn apply(&mut self, update: &StoreUpdate) -> bool {
        match update {
            StoreUpdate::InsertTransition {
                origin,
                destination,
            } => {
                let valid = origin.is_finite() && destination.is_finite();
                if valid {
                    self.transitions.push(((*origin, *destination), true));
                }
                valid
            }
            StoreUpdate::ExpireTransition(id) => match self.transitions.get_mut(id.index()) {
                Some((_, live)) if *live => {
                    *live = false;
                    true
                }
                _ => false,
            },
            StoreUpdate::InsertRoute(points) => {
                let valid = points.len() >= 2 && points.iter().all(Point::is_finite);
                if valid {
                    self.routes.push((points.clone(), true));
                }
                valid
            }
            StoreUpdate::RemoveRoute(id) => match self.routes.get_mut(id.index()) {
                Some((_, live)) if *live => {
                    *live = false;
                    true
                }
                _ => false,
            },
        }
    }

    /// Stores rebuilt from scratch with the model's ids: every slot is
    /// inserted in order, then the dead ones are removed.
    fn stores(&self) -> Stores {
        let mut routes = RouteStore::default();
        for (points, _) in &self.routes {
            routes
                .insert_route(points.clone())
                .expect("model routes are valid");
        }
        for (slot, (_, live)) in self.routes.iter().enumerate() {
            if !live {
                assert!(routes.remove_route(RouteId(slot as u32)));
            }
        }
        let mut transitions = TransitionStore::default();
        for ((origin, destination), _) in &self.transitions {
            transitions
                .insert(*origin, *destination)
                .expect("model transitions are valid");
        }
        for (slot, (_, live)) in self.transitions.iter().enumerate() {
            if !live {
                assert!(transitions.remove(TransitionId(slot as u32)));
            }
        }
        (routes, transitions)
    }

    fn all_routes(&self) -> Vec<Vec<Point>> {
        self.routes
            .iter()
            .map(|(points, _)| points.clone())
            .collect()
    }

    fn all_pairs(&self) -> Vec<(Point, Point)> {
        self.transitions.iter().map(|(pair, _)| *pair).collect()
    }

    fn live_routes(&self) -> Vec<(RouteId, Vec<Point>)> {
        let slots = self.routes.iter().enumerate();
        let live = slots.filter(|(_, (_, live))| *live);
        live.map(|(slot, (points, _))| (RouteId(slot as u32), points.clone()))
            .collect()
    }

    fn live_transitions(&self) -> Vec<(TransitionId, (Point, Point))> {
        let slots = self.transitions.iter().enumerate();
        let live = slots.filter(|(_, (_, live))| *live);
        live.map(|(slot, (pair, _))| (TransitionId(slot as u32), *pair))
            .collect()
    }
}

type Stores = (RouteStore, TransitionStore);

/// Applies one update to a store pair; `false` when the stores reject it.
fn churn_stores((routes, transitions): &mut Stores, update: &StoreUpdate) -> bool {
    match update {
        StoreUpdate::InsertTransition {
            origin,
            destination,
        } => transitions.insert(*origin, *destination).is_some(),
        StoreUpdate::ExpireTransition(id) => transitions.remove(*id),
        StoreUpdate::InsertRoute(points) => routes.insert_route(points.clone()).is_some(),
        StoreUpdate::RemoveRoute(id) => routes.remove_route(*id),
    }
}

// ---------------------------------------------------------------------------
// The two worlds, each with the degenerate kit beside it.
// ---------------------------------------------------------------------------

struct World {
    name: &'static str,
    initial: Model,
    /// Routes the stream's queries run along; the last one is the kit's.
    queries: Vec<Vec<Point>>,
    /// The world's own fixed opening of the stream.
    opening: Vec<Op>,
    /// A generated city's update draws, used in order; empty for the ladder.
    churn: Vec<ChurnEvent>,
    /// Half the side of the square around a query vertex a probe searches.
    reach: f64,
    /// A corner far from every query route.
    far: Point,
    /// Integer anchor of the kit, so its squared distances are exact.
    kit: Point,
}

/// The kit's routes: a repeated consecutive stop, three collinear stops, a
/// two-point route whose points coincide, and a plain one. They come first,
/// so an endpoint near them finds its strictly-closer routes early in a
/// brute-force scan.
fn kit_routes(a: Point) -> Vec<Vec<Point>> {
    let at = |dx: f64, dy: f64| p(a.x + dx, a.y + dy);
    vec![
        vec![at(0.0, 0.0), at(0.0, 0.0), at(40.0, 0.0)],
        vec![at(0.0, 20.0), at(20.0, 20.0), at(40.0, 20.0)],
        vec![at(27.0, 17.0), at(27.0, 17.0)],
        // Beside the stop `a + (40, 0)`, the fourth route strictly closer
        // there than any query: burst arrivals land on that stop.
        vec![at(40.0, -20.0), at(60.0, -20.0)],
    ]
}

fn ladder() -> World {
    let kit = p(-400.0, -400.0);
    let mut routes = kit_routes(kit);
    let rung = routes.len() as u32; // id of the first ladder route
    for row in 0..6 {
        let y = row as f64 * 120.0;
        routes.push(vec![
            p(0.0, y),
            p(400.0, y + 10.0),
            p(800.0, y),
            p(1200.0, y - 10.0),
        ]);
    }
    let transitions = (0..80)
        .map(|i| {
            let x = (i % 10) as f64 * 120.0 + 15.0;
            let y = (i / 10) as f64 * 80.0 + 25.0;
            (p(x, y), p(x + 60.0, y + 30.0))
        })
        .collect();
    let queries = vec![
        vec![p(10.0, 75.0), p(500.0, 95.0), p(1100.0, 75.0)],
        vec![p(610.0, 310.0)],
        // Far from the city: a different spatial group in the same batch.
        vec![p(6000.0, 200.0), p(6400.0, 260.0)],
        vec![
            p(100.0, 40.0),
            p(420.0, 250.0),
            p(760.0, 430.0),
            p(1150.0, 600.0),
        ],
        vec![p(kit.x + 20.0, kit.y + 10.0)],
    ];
    let first_batch = vec![
        RknntQuery::exists(queries[0].clone(), 2),
        RknntQuery::for_all(queries[0].clone(), 2), // shares (route, k)
        RknntQuery::exists(queries[0].clone(), 2),  // exact duplicate
        RknntQuery::exists(queries[2].clone(), 1),  // another group
        RknntQuery::exists(Vec::new(), 3),          // degenerate: no route
        RknntQuery::for_all(queries[1].clone(), 0), // degenerate: k = 0
    ];
    let opening = vec![
        // The lowest id judges every arrival first, at k = 1, so it computes
        // each arrival's certificate there; the k = 2 subscription and the
        // cached k = 2 queries read it widened.
        Op::Subscribe(RknntQuery::exists(queries[1].clone(), 1)),
        Op::Subscribe(RknntQuery::exists(queries[0].clone(), 2)),
        Op::Subscribe(RknntQuery::for_all(queries[3].clone(), 1)),
        Op::Subscribe(RknntQuery::exists(Vec::new(), 2)),
        Op::Queries(first_batch.clone()),
        Op::Updates(vec![
            StoreUpdate::InsertTransition {
                origin: p(30.0, 70.0),
                destination: p(480.0, 100.0),
            },
            StoreUpdate::ExpireTransition(TransitionId(4)),
            StoreUpdate::ExpireTransition(TransitionId(4)), // already dead
            StoreUpdate::InsertRoute(vec![p(0.0, 60.0), p(1200.0, 70.0)]),
            StoreUpdate::RemoveRoute(RouteId(rung + 2)),
            StoreUpdate::RemoveRoute(RouteId(99)), // unknown
            StoreUpdate::InsertRoute(Vec::new()),  // too short
            StoreUpdate::InsertTransition {
                origin: p(1.0, 1.0),
                destination: p(f64::INFINITY, 1.0),
            },
        ]),
        // (705, 335) is at distance² 95² + 25² from both the query point
        // (610, 310) and its nearest stop, (800, 360): a tie, so it
        // qualifies at k = 1 (no route strictly closer). Two routes are
        // strictly closer than `queries[0]`, so the k = 2 readers reject it.
        Op::Updates(vec![StoreUpdate::InsertTransition {
            origin: p(705.0, 335.0),
            destination: p(705.0, 335.0),
        }]),
        Op::Queries(first_batch),
        // No route is strictly closer to (600, 300) or to (620, 320) than
        // the query point (610, 310), at distance² 200 from each: the k = 1
        // subscription admits this arrival at its origin and never judges
        // its destination. The route through (598, 298) then comes strictly
        // closer to the origin alone, and only a count of the destination
        // keeps the member.
        Op::Updates(vec![StoreUpdate::InsertTransition {
            origin: p(600.0, 300.0),
            destination: p(620.0, 320.0),
        }]),
        Op::Updates(vec![StoreUpdate::InsertRoute(vec![
            p(598.0, 298.0),
            p(598.0, 2000.0),
        ])]),
    ];
    World {
        name: "ladder",
        initial: Model::new(routes, transitions),
        queries,
        opening,
        churn: Vec::new(),
        reach: 600.0,
        far: p(3000.0, 3000.0),
        kit,
    }
}

fn city(seed: u64) -> World {
    let city = CityGenerator::new(CityConfig::small(seed)).generate();
    let kit = p(-1000.0, -1000.0);
    let mut routes = kit_routes(kit);
    routes.extend(city.routes.iter().cloned());
    let transitions =
        TransitionGenerator::new(TransitionConfig::checkin_like(150, seed ^ 0x77)).generate(&city);
    let mut queries = workload::rknnt_queries(&city, 3, 4, 800.0, seed ^ 0x5b);
    // A one-point query on a stop of the city.
    queries.extend(workload::rknnt_queries(&city, 1, 1, 0.0, seed ^ 0x5c));
    queries.push(vec![p(kit.x + 20.0, kit.y + 10.0)]);
    let mut config = ChurnConfig::new(400, 1.0, seed ^ 0xc4a2);
    config.route_update_fraction = 0.25;
    let opening = vec![
        Op::Subscribe(RknntQuery::exists(queries[0].clone(), 1)),
        Op::Subscribe(RknntQuery::for_all(queries[1].clone(), 3)),
        Op::Subscribe(RknntQuery::exists(Vec::new(), 2)),
        Op::Queries(vec![
            RknntQuery::exists(queries[0].clone(), 2),
            RknntQuery::for_all(queries[0].clone(), 2), // shares (route, k)
            RknntQuery::exists(queries[0].clone(), 2),  // exact duplicate
            RknntQuery::exists(queries[3].clone(), 4),  // a one-point query
            RknntQuery::exists(Vec::new(), 3),          // degenerate: no route
            RknntQuery::for_all(queries[2].clone(), 0), // degenerate: k = 0
        ]),
    ];
    World {
        name: "city",
        initial: Model::new(routes, transitions),
        queries,
        opening,
        churn: workload::churn_stream(&city, &config),
        reach: 1500.0,
        far: p(13_000.0, 13_000.0),
        kit,
    }
}

// ---------------------------------------------------------------------------
// The stream and what the definition says each step must produce.
// ---------------------------------------------------------------------------

#[derive(Clone, Debug)]
enum Op {
    Queries(Vec<RknntQuery>),
    Updates(Vec<StoreUpdate>),
    /// About [`JOURNAL_CAPACITY`] arrivals in one batch: some on vertices of
    /// the queries asked around it, the rest on a stop of the kit.
    Burst(Vec<StoreUpdate>),
    Subscribe(RknntQuery),
    /// Drops the n-th subscription ever created (possibly already dropped).
    Unsubscribe(usize),
    /// Re-places a sharded in-process configuration's transitions on this
    /// many shards at this many grid bits; nothing observable may change.
    Reshard(usize, u32),
    /// Folds the write-ahead log into a snapshot, where there is storage.
    Checkpoint,
    /// Where there is storage: the process dies — memory, cache and
    /// subscriptions with it — and the directory is opened again. Changes
    /// nothing the model knows about.
    CrashReopen,
}

struct Step {
    op: Op,
    /// `Queries`: one answer per query.
    answers: Vec<Vec<TransitionId>>,
    /// `Queries` right behind a transition-only batch, a burst or a
    /// reshard: in process, `Some(true)` when every query must be a cache
    /// hit, `Some(false)` when every one must have fallen off the journal
    /// ring (a miss and a targeted eviction).
    reread: Option<bool>,
    /// `Updates` / `Burst`: (applied, rejected).
    counts: (u64, u64),
    /// `Updates` / `Burst`: the ids the model handed out.
    inserted: (Vec<TransitionId>, Vec<RouteId>),
    /// `Unsubscribe`: whether the subscription was still live.
    existed: bool,
    /// After the step: (creation ordinal, result) of every live subscription.
    standing: Vec<(usize, Vec<TransitionId>)>,
}

/// Where a step is, for failure messages; formats only when one fires.
struct At<'a>(&'a str, usize, &'a Op);

impl fmt::Display for At<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let At(label, n, op) = self;
        match op {
            Op::Burst(updates) => write!(f, "{label}, step {n} (a burst of {})", updates.len()),
            op => write!(f, "{label}, step {n} ({op:?})"),
        }
    }
}

struct Rng(u64);

impl Rng {
    fn below(&mut self, n: u64) -> u64 {
        splitmix64(&mut self.0) % n
    }

    fn coord(&mut self, span: f64) -> f64 {
        (self.below(10_000) as f64 / 10_000.0) * span
    }

    fn pick<'v, T>(&mut self, items: &'v [T]) -> &'v T {
        &items[self.below(items.len() as u64) as usize]
    }
}

fn random_query(rng: &mut Rng, world: &World) -> RknntQuery {
    RknntQuery {
        route: rng.pick(&world.queries).clone(),
        k: 1 + rng.below(4) as usize,
        semantics: if rng.below(2) == 0 {
            Semantics::Exists
        } else {
            Semantics::ForAll
        },
    }
}

/// A query and its `∀` twin.
fn twins(route: &[Point], k: usize) -> [RknntQuery; 2] {
    [
        RknntQuery::exists(route.to_vec(), k),
        RknntQuery::for_all(route.to_vec(), k),
    ]
}

/// Four distinct queries: the twins over two query routes.
fn distinct_pair(rng: &mut Rng, world: &World) -> Vec<RknntQuery> {
    let n = world.queries.len() as u64;
    let a = rng.below(n);
    let b = (a + 1 + rng.below(n - 1)) % n;
    let k = 1 + rng.below(4) as usize;
    [a, b]
        .into_iter()
        .flat_map(|i| twins(&world.queries[i as usize], k))
        .collect()
}

fn random_update(rng: &mut Rng, model: &Model, world: &World, churn: &mut usize) -> StoreUpdate {
    match rng.below(10) {
        // Both endpoints hug vertices of a query route, so the insert lands
        // in answers that are cached and subscribed.
        0..=2 => {
            let route = rng.pick(&world.queries).clone();
            let mut near = || {
                let v = *rng.pick(&route);
                p(v.x + rng.coord(8.0) - 4.0, v.y + rng.coord(8.0) - 4.0)
            };
            StoreUpdate::InsertTransition {
                origin: near(),
                destination: near(),
            }
        }
        3..=8 if world.churn.is_empty() => match rng.below(6) {
            // Ids a little past the end: some expiries hit dead or unknown
            // slots.
            0..=1 => StoreUpdate::ExpireTransition(TransitionId(
                rng.below(model.transitions.len() as u64 + 3) as u32,
            )),
            2..=3 => {
                let y = rng.coord(640.0);
                StoreUpdate::InsertRoute(vec![p(0.0, y), p(600.0, y + 15.0), p(1200.0, y)])
            }
            // Route withdrawals are the hard case for every certificate, so
            // they are frequent; some name dead or unknown routes, some the
            // kit's degenerate ones.
            _ => StoreUpdate::RemoveRoute(RouteId(rng.below(model.routes.len() as u64 + 1) as u32)),
        },
        // The city's own churn, its draws resolved against the live ids.
        3..=8 => loop {
            let event = world.churn[*churn % world.churn.len()].clone();
            *churn += 1;
            match event {
                ChurnEvent::InsertTransition(origin, destination) => {
                    break StoreUpdate::InsertTransition {
                        origin,
                        destination,
                    }
                }
                ChurnEvent::ExpireTransition(draw) => {
                    let live = model.live_transitions();
                    if !live.is_empty() {
                        let (id, _) = live[draw as usize % live.len()];
                        break StoreUpdate::ExpireTransition(id);
                    }
                }
                ChurnEvent::InsertRoute(points) => break StoreUpdate::InsertRoute(points),
                ChurnEvent::RemoveRoute(draw) => {
                    let live = model.live_routes();
                    if live.len() > 4 {
                        break StoreUpdate::RemoveRoute(live[draw as usize % live.len()].0);
                    }
                }
                ChurnEvent::Query(_) => {}
            }
        },
        _ if rng.below(2) == 0 => StoreUpdate::InsertTransition {
            origin: p(f64::NAN, 10.0),
            destination: p(20.0, 20.0),
        },
        _ => StoreUpdate::InsertRoute(vec![p(5.0, 5.0)]),
    }
}

/// A maintenance probe against the model's current state: ask, churn
/// transitions inside / outside / on the boundary of the answers, ask again.
fn probe(rng: &mut Rng, stores: &Stores, world: &World) -> Vec<(Op, Option<bool>)> {
    let route = rng.pick(&world.queries).clone();
    let k = 1 + rng.below(4) as usize;
    let asked = twins(&route, k).to_vec();
    let (route_store, transition_store) = stores;
    let members = BruteForceEngine::new(route_store, transition_store)
        .execute(&asked[0])
        .transitions;
    let outsider = transition_store
        .transition_ids()
        .into_iter()
        .find(|id| !members.contains(id));
    // A point with exactly k live routes strictly closer than the query — a
    // transition there is rejected by its certificate, and would be
    // admitted with one fewer.
    let reach = world.reach;
    let boundary = (0..400)
        .map(|_| {
            let v = *rng.pick(&route);
            p(
                v.x + rng.coord(2.0 * reach) - reach,
                v.y + rng.coord(2.0 * reach) - reach,
            )
        })
        .find(|u| {
            let to_query = point_route_distance(u, &route);
            let closer = route_store
                .routes()
                .filter(|r| point_route_distance(u, &r.points) < to_query);
            closer.take(k + 1).count() == k
        });
    let vertex = *rng.pick(&route);
    let inside = p(
        vertex.x + rng.coord(4.0) - 2.0,
        vertex.y + rng.coord(4.0) - 2.0,
    );
    let far = world.far;
    let mut updates = vec![
        StoreUpdate::InsertTransition {
            origin: inside,
            destination: p(inside.x + 1.0, inside.y - 1.0),
        },
        StoreUpdate::InsertTransition {
            origin: p(far.x + rng.coord(50.0), far.y),
            destination: p(far.x + 100.0, far.y - 100.0 + rng.coord(50.0)),
        },
    ];
    updates.extend(boundary.map(|u| StoreUpdate::InsertTransition {
        origin: u,
        destination: u,
    }));
    updates.extend(members.first().map(|id| StoreUpdate::ExpireTransition(*id)));
    updates.extend(outsider.map(StoreUpdate::ExpireTransition));
    vec![
        (Op::Queries(asked.clone()), None),
        (Op::Updates(updates), None),
        (Op::Queries(asked), Some(true)),
    ]
}

/// The kit's arrivals, with its four queries asked right before and after:
/// a tie at k = 1 with the collinear route's middle stop (as origin and
/// destination, then as origin only, the destination on a stop), the same at
/// k = 2 with the coincident-point route (one route strictly closer), a
/// transition from a stop to itself, and an arrival that expires in the same
/// batch before anything reads it. `next` is the id the first one gets.
fn kit_ops(world: &World, next: usize) -> Vec<(Op, Option<bool>)> {
    let (a, query) = (world.kit, world.queries.last().unwrap());
    let at = |dx: f64, dy: f64| p(a.x + dx, a.y + dy);
    let (tie1, tie2, stop) = (at(20.0, 15.0), at(20.0, 17.0), at(40.0, 0.0));
    let arrival = |origin, destination| StoreUpdate::InsertTransition {
        origin,
        destination,
    };
    let asked: Vec<RknntQuery> = [1, 2].into_iter().flat_map(|k| twins(query, k)).collect();
    let updates = vec![
        arrival(tie1, tie1),
        arrival(tie1, stop),
        arrival(tie2, tie2),
        arrival(tie2, stop),
        arrival(stop, stop),
        arrival(tie1, tie1),
        StoreUpdate::ExpireTransition(TransitionId(next as u32 + 5)),
    ];
    vec![
        (Op::Queries(asked.clone()), None),
        (Op::Updates(updates), None),
        (Op::Queries(asked), Some(true)),
    ]
}

/// `n` arrivals in one batch: every 64th on vertices of `asked`, so each of
/// those queries gains members, the rest on a fine grid at the kit's stop
/// `a + (40, 0)`, where four routes are strictly closer than any query
/// (cheap to rule out by brute force).
fn burst(n: usize, asked: &[RknntQuery], a: Point) -> Op {
    Op::Burst(
        (0..n)
            .map(|i| {
                let (origin, destination) = if i % 64 == 0 {
                    let route = &asked[i / 64 % asked.len()].route;
                    (route[i / 64 % route.len()], route[0])
                } else {
                    let u = p(
                        a.x + 40.0 + (i % 32) as f64 / 256.0,
                        a.y + (i / 32) as f64 / 256.0,
                    );
                    (u, u)
                };
                StoreUpdate::InsertTransition {
                    origin,
                    destination,
                }
            })
            .collect(),
    )
}

/// The next ops of the random part, each with its `reread` expectation.
fn draw(
    rng: &mut Rng,
    (model, stores): (&Model, &Stores),
    world: &World,
    churn: &mut usize,
    created: usize,
) -> Vec<(Op, Option<bool>)> {
    let op = match rng.below(16) {
        12 => Op::Checkpoint,
        13 | 15 => Op::CrashReopen,
        10..=11 => return probe(rng, stores, world),
        14 => {
            let asked = distinct_pair(rng, world);
            let shards = *rng.pick(&[2, 3, 5, 8]);
            let bits = *rng.pick(&[4, 5, 7]);
            return vec![
                (Op::Queries(asked.clone()), None),
                (Op::Reshard(shards, bits), None),
                (Op::Queries(asked), Some(true)),
            ];
        }
        0..=3 => {
            let mut batch: Vec<RknntQuery> = (0..2 + rng.below(4))
                .map(|_| random_query(rng, world))
                .collect();
            let again = rng.pick(&batch).clone();
            batch.push(again);
            Op::Queries(batch)
        }
        4..=7 => Op::Updates(
            (0..1 + rng.below(4))
                .map(|_| random_update(rng, model, world, churn))
                .collect(),
        ),
        8 => Op::Subscribe(random_query(rng, world)),
        _ => Op::Unsubscribe(rng.below(created as u64) as usize),
    };
    vec![(op, None)]
}

/// Generates the stream and, alongside, the expected outcome of every step:
/// the world's opening, the kit, `steps` drawn ops, then the bursts.
fn script(world: &World, seed: u64, steps: usize) -> Vec<Step> {
    let mut rng = Rng(seed);
    let mut model = world.initial.clone();
    // The model's stores, churned in place like the services' own.
    let mut stores = model.stores();
    let mut churn = 0usize;
    let mut out: Vec<Step> = Vec::new();
    let mut standing: Vec<(usize, RknntQuery)> = Vec::new();
    let mut created = 0usize;
    let mut pending: Vec<(Op, Option<bool>)> = Vec::new();
    // Generated ops need the model state they will run against, so each
    // stage is drawn when the previous one is used up.
    let (mut stage, mut bursts_done) = (0, false);
    loop {
        if pending.is_empty() {
            stage += 1;
            pending = match stage {
                1 => world.opening.iter().map(|op| (op.clone(), None)).collect(),
                2 => kit_ops(world, model.transitions.len()),
                _ if out.len() < steps => {
                    draw(&mut rng, (&model, &stores), world, &mut churn, created)
                }
                _ if !bursts_done => {
                    // Entries right at the ring's tail, then one past it.
                    bursts_done = true;
                    let asked = distinct_pair(&mut rng, world);
                    let mut ops = vec![(Op::Queries(asked.clone()), None)];
                    for (n, hit) in [
                        (JOURNAL_CAPACITY / 2, true),
                        (JOURNAL_CAPACITY, true),
                        (JOURNAL_CAPACITY + 1, false),
                    ] {
                        ops.push((burst(n, &asked, world.kit), None));
                        ops.push((Op::Queries(asked.clone()), Some(hit)));
                    }
                    ops
                }
                _ => break,
            };
            pending.reverse();
        }
        let (op, reread) = pending.pop().expect("a stage is never empty");
        let mut step = Step {
            op: op.clone(),
            answers: Vec::new(),
            reread,
            counts: (0, 0),
            inserted: (Vec::new(), Vec::new()),
            existed: false,
            standing: Vec::new(),
        };
        match &op {
            Op::Updates(updates) | Op::Burst(updates) => {
                for update in updates {
                    let (t, r) = (model.transitions.len(), model.routes.len());
                    let accepted = model.apply(update);
                    assert_eq!(churn_stores(&mut stores, update), accepted, "{update:?}");
                    if !accepted {
                        step.counts.1 += 1;
                        continue;
                    }
                    step.counts.0 += 1;
                    if model.transitions.len() > t {
                        step.inserted.0.push(TransitionId(t as u32));
                    }
                    if model.routes.len() > r {
                        step.inserted.1.push(RouteId(r as u32));
                    }
                }
            }
            Op::Subscribe(query) => {
                standing.push((created, query.clone()));
                created += 1;
            }
            Op::Unsubscribe(ordinal) => {
                let before = standing.len();
                standing.retain(|(o, _)| o != ordinal);
                step.existed = standing.len() < before;
            }
            _ => {}
        }
        let (route_store, transition_store) = &stores;
        let oracle = BruteForceEngine::new(route_store, transition_store);
        if let Op::Queries(batch) = &op {
            step.answers = batch
                .iter()
                .map(|q| oracle.execute(q).transitions)
                .collect();
            for kind in EngineKind::ALL {
                let engine = kind.build(route_store, transition_store);
                for (query, answer) in batch.iter().zip(&step.answers) {
                    let got = engine.execute(query).transitions;
                    assert_eq!(&got, answer, "{kind} vs brute force, {query:?}");
                }
            }
        }
        step.standing = standing
            .iter()
            .map(|(ordinal, query)| (*ordinal, oracle.execute(query).transitions))
            .collect();
        out.push(step);
    }
    out
}

// ---------------------------------------------------------------------------
// The configurations under test.
// ---------------------------------------------------------------------------

/// (subscription handle, entered, left, why) — what a delta does to a result.
type Delta = (u64, Vec<TransitionId>, Vec<TransitionId>, DeltaReason);

/// One step's deltas, subscriptions named by creation ordinal.
type Deltas = Vec<(usize, Vec<TransitionId>, Vec<TransitionId>, DeltaReason)>;

struct Applied {
    /// (applied, rejected).
    counts: (u64, u64),
    deltas: Vec<Delta>,
    /// In process: the transition and route ids the stores handed out.
    inserted: Option<(Vec<TransitionId>, Vec<RouteId>)>,
}

trait Target {
    fn queries(&mut self, batch: &[RknntQuery]) -> Vec<Vec<TransitionId>>;
    fn updates(&mut self, updates: Vec<StoreUpdate>) -> Applied;
    fn subscribe(&mut self, query: &RknntQuery) -> (u64, Vec<TransitionId>);
    fn unsubscribe(&mut self, handle: u64) -> bool;
    /// The configuration's own view of a live subscription's result, where
    /// it exposes one (in-process; a wire client only sees deltas).
    fn maintained(&self, handle: u64) -> Option<Vec<TransitionId>>;
    /// The cache counters, in process.
    fn cache_stats(&self) -> Option<CacheStats> {
        None
    }
    /// Checks the stores against the model, in process.
    fn check_state(&self, _model: &Model) {}
    /// `Reshard`, where there is an in-process placement to change.
    fn reshard(&mut self, _shards: usize, _bits: u32) {}
    /// `Checkpoint`; nothing to do without storage.
    fn checkpoint(&mut self) {}
    /// `CrashReopen`; `true` when the configuration really lost its process
    /// state (so its subscriptions are gone) and recovered from disk.
    fn crash_reopen(&mut self) -> bool {
        false
    }
}

/// What one in-process `apply_updates` call must report, whatever it did:
/// `cached` is the cache population before and after the call.
fn check_update_stats(
    stats: &UpdateStats,
    submitted: usize,
    transitions_only: bool,
    cached: (usize, usize),
    subscriptions: usize,
    storage: bool,
) {
    assert_eq!(stats.applied + stats.rejected, submitted);
    assert_eq!(stats.retained_entries, cached.1, "retained = the cache");
    assert_eq!(stats.evicted_entries + stats.retained_entries, cached.0);
    if transitions_only {
        assert_eq!(stats.evicted_entries, 0, "transition churn evicts nothing");
    }
    assert_eq!(
        stats.subs_unaffected + stats.subs_stable,
        stats.applied * subscriptions,
        "each applied update classifies each subscription once"
    );
    assert_eq!((stats.full_drops, stats.subs_reexecuted), (0, 0));
    let logged = if storage { submitted } else { 0 };
    assert_eq!(
        stats.wal_appends, logged,
        "one WAL frame per submitted update"
    );
    assert_eq!(stats.wal_bytes > 0, logged > 0);
}

fn live_routes(routes: &RouteStore) -> Vec<(RouteId, Vec<Point>)> {
    routes.routes().map(|r| (r.id, r.points.clone())).collect()
}

/// Name and size of every entry of a storage root, sorted — and the check
/// that it holds snapshot + WAL *files* only: no service keeps a
/// subdirectory there.
fn root_files(dir: &Path) -> Vec<(std::ffi::OsString, u64)> {
    let mut files = Vec::new();
    for entry in std::fs::read_dir(dir).unwrap() {
        let entry = entry.unwrap();
        assert!(entry.file_type().unwrap().is_file(), "{entry:?} is no file");
        files.push((entry.file_name(), entry.metadata().unwrap().len()));
    }
    files.sort();
    files
}

/// What differs between the two in-process services: the stores they
/// expose, and whether there is a placement to change.
trait Backed {
    fn check_state(&self, model: &Model);
    fn reshard(&mut self, shards: usize, bits: u32);
}

impl Backed for QueryService {
    fn check_state(&self, model: &Model) {
        assert_eq!(live_routes(self.routes()), model.live_routes());
        let transitions = self.transitions().transitions();
        let transitions: Vec<_> = transitions
            .map(|t| (t.id, (t.origin, t.destination)))
            .collect();
        assert_eq!(transitions, model.live_transitions());
    }

    /// Flat stores have no placement to change.
    fn reshard(&mut self, _shards: usize, _bits: u32) {}
}

impl Backed for ShardedService {
    /// Every slot resolves through the directory to the model's endpoints
    /// and a live one to a shard below the shard count, and the shards hold
    /// nothing else.
    fn check_state(&self, model: &Model) {
        assert_eq!(live_routes(self.routes()), model.live_routes());
        assert_eq!(self.transition_id_bound(), model.transitions.len());
        for (slot, (pair, live)) in model.transitions.iter().enumerate() {
            let id = TransitionId(slot as u32);
            let endpoints = self.transition_endpoints(id);
            assert_eq!(endpoints, live.then_some(*pair), "transition {slot}");
            let owner = self.transition_owner(id);
            assert_eq!(owner.is_some(), *live, "owner of transition {slot}");
            assert!(owner.is_none_or(|shard| shard < self.shard_count()));
        }
        let live = model.transitions.iter().filter(|(_, live)| *live);
        assert_eq!(self.num_transitions(), live.count());
        // No execution consults more shards than the largest shape has.
        let router = self.router_stats();
        assert!(router.dispatches <= router.executions * 8);
    }

    fn reshard(&mut self, shards: usize, bits: u32) {
        let observed = |s: &ShardedService| {
            let text = s.metrics_text();
            let metric_ids: Vec<String> = text
                .lines()
                .map(|line| line.split_whitespace().next().unwrap().to_owned())
                .collect();
            let executions = s.router_stats().executions;
            (
                s.cache_len(),
                s.cache_stats(),
                executions,
                s.storage_stats(),
                metric_ids,
            )
        };
        let before = observed(self);
        ShardedService::reshard(self, shards, bits);
        assert_eq!(
            (self.shard_count(), self.config().grid_bits),
            (shards, bits)
        );
        assert_eq!(observed(self), before, "a reshard to {shards} shards");
    }
}

struct Local<S> {
    service: S,
    ids: HashMap<u64, SubscriptionId>,
}

// `QueryService` and `ShardedService` are the same frontend over a sealed
// backing, so the impl is the same text for both.
macro_rules! local_target {
    ($service:ty) => {
        impl Target for Local<$service> {
            fn queries(&mut self, batch: &[RknntQuery]) -> Vec<Vec<TransitionId>> {
                let (results, stats) = self.service.execute_batch(batch);
                assert_eq!(stats.queries, batch.len());
                assert!(self.service.cache_len() <= CACHE_CAPACITY);
                results.into_iter().map(|r| r.transitions).collect()
            }

            fn updates(&mut self, updates: Vec<StoreUpdate>) -> Applied {
                let submitted = updates.len();
                let transitions_only = updates.iter().all(|u| {
                    matches!(
                        u,
                        StoreUpdate::InsertTransition { .. } | StoreUpdate::ExpireTransition(_)
                    )
                });
                let before = self.service.cache_len();
                let subscriptions = self.service.subscriptions();
                let stats = self.service.apply_updates(updates);
                check_update_stats(
                    &stats,
                    submitted,
                    transitions_only,
                    (before, self.service.cache_len()),
                    subscriptions,
                    self.service.has_storage(),
                );
                let deltas = stats.deltas.into_iter();
                Applied {
                    counts: (stats.applied as u64, stats.rejected as u64),
                    deltas: deltas
                        .map(|d| (d.subscription.raw(), d.entered, d.left, d.reason))
                        .collect(),
                    inserted: Some((stats.inserted_transitions, stats.inserted_routes)),
                }
            }

            fn subscribe(&mut self, query: &RknntQuery) -> (u64, Vec<TransitionId>) {
                let id = self.service.subscribe(query.clone());
                self.ids.insert(id.raw(), id);
                let initial = self.service.subscription_result(id).unwrap().to_vec();
                (id.raw(), initial)
            }

            fn unsubscribe(&mut self, handle: u64) -> bool {
                self.service.unsubscribe(self.ids[&handle])
            }

            fn maintained(&self, handle: u64) -> Option<Vec<TransitionId>> {
                self.service
                    .subscription_result(self.ids[&handle])
                    .map(<[TransitionId]>::to_vec)
            }

            fn cache_stats(&self) -> Option<CacheStats> {
                Some(self.service.cache_stats())
            }

            fn check_state(&self, model: &Model) {
                Backed::check_state(&self.service, model);
            }

            fn reshard(&mut self, shards: usize, bits: u32) {
                Backed::reshard(&mut self.service, shards, bits);
            }

            fn checkpoint(&mut self) {
                if self.service.has_storage() {
                    self.service.checkpoint().expect("checkpoint");
                }
            }
        }
    };
}
local_target!(QueryService);
local_target!(ShardedService);

struct Wire {
    client: Client,
    server: Option<Server>,
}

impl Wire {
    fn over(backend: Backend) -> Self {
        let server = Server::start(backend, ServerConfig::default()).expect("start server");
        let client = Client::connect_with(
            server.local_addr(),
            ClientConfig::default().with_read_timeout(Duration::from_secs(20)),
        )
        .expect("connect");
        Wire {
            client,
            server: Some(server),
        }
    }
}

impl Drop for Wire {
    fn drop(&mut self) {
        if let Some(server) = self.server.take() {
            assert!(
                server.fault().is_none(),
                "server died: {:?}",
                server.fault()
            );
            drop(server.stop());
        }
    }
}

impl Target for Wire {
    fn queries(&mut self, batch: &[RknntQuery]) -> Vec<Vec<TransitionId>> {
        // Pipelined, so the server funnels the run through one batch.
        let ids: Vec<u64> = batch
            .iter()
            .map(|q| self.client.send_query(q).expect("send query"))
            .collect();
        let mut replies: HashMap<u64, Vec<TransitionId>> = HashMap::new();
        for _ in batch {
            let (id, reply) = self.client.recv_query_reply().expect("query reply");
            replies.insert(id, reply.answered().expect("not shed"));
        }
        ids.iter()
            .map(|id| replies.remove(id).expect("one reply per id"))
            .collect()
    }

    fn updates(&mut self, updates: Vec<StoreUpdate>) -> Applied {
        let counts = self
            .client
            .apply_updates(updates)
            .expect("apply updates")
            .answered()
            .expect("not shed");
        // Deltas are pushed right after the reply; a ping round-trips
        // through the same FIFO executor and connection, so once the pong
        // is back every delta of this batch has been buffered.
        self.client.ping().expect("fence ping");
        let deltas = self.client.take_deltas().into_iter();
        Applied {
            counts: (counts.applied, counts.rejected),
            deltas: deltas
                .map(|d| (d.subscription, d.entered, d.left, d.reason))
                .collect(),
            inserted: None,
        }
    }

    fn subscribe(&mut self, query: &RknntQuery) -> (u64, Vec<TransitionId>) {
        let sub = self
            .client
            .subscribe(query)
            .expect("subscribe")
            .answered()
            .expect("not shed");
        (sub.subscription, sub.transitions)
    }

    fn unsubscribe(&mut self, handle: u64) -> bool {
        self.client
            .unsubscribe(handle)
            .expect("unsubscribe")
            .answered()
            .expect("not shed")
    }

    fn maintained(&self, _handle: u64) -> Option<Vec<TransitionId>> {
        None
    }
}

/// One storage directory served by whichever service the rotation says:
/// written flat first, then reopened after every crash as the next of
/// [`SHAPES`], each recovering what the previous shape logged and
/// checkpointed.
struct Durable {
    dir: PathBuf,
    base: ServiceConfig,
    opens: usize,
    /// Updates submitted since the last checkpoint: the WAL tail a reopen
    /// must replay.
    logged: u64,
    /// The most WAL segments any reopen found.
    segments: usize,
    /// The shape of every reopen.
    opened: Vec<usize>,
    /// `None` only between a crash and the reopen (one writer per directory).
    serving: Option<Box<dyn Target>>,
}

impl Durable {
    /// No fsync (power loss is not what this measures) and tiny segments,
    /// so the WAL rotates and replay crosses segment boundaries.
    fn storage() -> StorageConfig {
        StorageConfig::default()
            .with_fsync(false)
            .with_segment_bytes(512)
    }

    fn over(model: &Model, base: ServiceConfig, tag: &str, first: usize) -> Self {
        let name = format!("rknnt-serving-layers-{tag}-{}", std::process::id());
        let dir = std::env::temp_dir().join(name);
        let _ = std::fs::remove_dir_all(&dir);
        let mut service = flat(model, base);
        service
            .attach_storage(&dir, Self::storage())
            .expect("attach storage");
        Durable {
            dir,
            base,
            opens: first,
            logged: 0,
            segments: 0,
            opened: Vec::new(),
            serving: Some(Box::new(local(service))),
        }
    }

    fn serving(&mut self) -> &mut dyn Target {
        self.serving.as_deref_mut().expect("serving")
    }
}

impl Drop for Durable {
    fn drop(&mut self) {
        self.serving = None;
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

impl Target for Durable {
    fn queries(&mut self, batch: &[RknntQuery]) -> Vec<Vec<TransitionId>> {
        self.serving().queries(batch)
    }

    fn updates(&mut self, updates: Vec<StoreUpdate>) -> Applied {
        self.logged += updates.len() as u64;
        self.serving().updates(updates)
    }

    fn subscribe(&mut self, query: &RknntQuery) -> (u64, Vec<TransitionId>) {
        self.serving().subscribe(query)
    }

    fn unsubscribe(&mut self, handle: u64) -> bool {
        self.serving().unsubscribe(handle)
    }

    fn maintained(&self, handle: u64) -> Option<Vec<TransitionId>> {
        self.serving.as_deref().expect("serving").maintained(handle)
    }

    fn cache_stats(&self) -> Option<CacheStats> {
        self.serving.as_deref().expect("serving").cache_stats()
    }

    fn check_state(&self, model: &Model) {
        self.serving.as_deref().expect("serving").check_state(model)
    }

    /// The directory holds global state, which a reshard does not change.
    fn reshard(&mut self, shards: usize, bits: u32) {
        let files = root_files(&self.dir);
        self.serving().reshard(shards, bits);
        assert_eq!(root_files(&self.dir), files, "a reshard touched the disk");
    }

    fn checkpoint(&mut self) {
        self.logged = 0;
        self.serving().checkpoint()
    }

    fn crash_reopen(&mut self) -> bool {
        self.serving = None;
        self.opens += 1;
        let shards = SHAPES[self.opens % SHAPES.len()];
        let storage = Self::storage();
        let (serving, stats): (Box<dyn Target>, _) = if shards == 0 {
            let (service, stats) =
                QueryService::open(&self.dir, self.base, storage).expect("reopen flat");
            (Box::new(local(service)), stats)
        } else {
            let config = ShardedConfig::default()
                .with_shards(shards)
                .with_base(self.base);
            let (service, stats) =
                ShardedService::open(&self.dir, config, storage).expect("reopen sharded");
            assert_eq!(service.shard_count(), shards, "the passed config decides");
            (Box::new(local(service)), stats)
        };
        assert_eq!(
            stats.replayed_records, self.logged,
            "the tail is exactly the updates logged since the last checkpoint"
        );
        assert!(!stats.torn_tail);
        self.segments = self.segments.max(stats.segments);
        root_files(&self.dir);
        self.opened.push(shards);
        self.serving = Some(serving);
        true
    }
}

fn flat(model: &Model, base: ServiceConfig) -> QueryService {
    let (routes, transitions) = model.stores();
    QueryService::new(routes, transitions, base)
}

fn sharded(model: &Model, base: ServiceConfig, shards: usize) -> ShardedService {
    ShardedService::bulk_build(
        ShardedConfig::default().with_shards(shards).with_base(base),
        model.all_routes(),
        model.all_pairs(),
    )
}

fn local<S>(service: S) -> Local<S> {
    Local {
        service,
        ids: HashMap::new(),
    }
}

/// Drives the script through one configuration, checking every step, and
/// returns its deltas step by step.
fn drive(label: &str, target: &mut dyn Target, model: &Model, script: &[Step]) -> Vec<Deltas> {
    let mut model = model.clone();
    // Creation ordinal -> (handle, standing query, result rebuilt from
    // initial + deltas).
    let mut replayed: BTreeMap<usize, (u64, RknntQuery, Vec<TransitionId>)> = BTreeMap::new();
    // Handles of dropped subscriptions, which a second unsubscribe refuses.
    let mut dropped: HashMap<usize, u64> = HashMap::new();
    let mut created = 0usize;
    let mut trace = Vec::new();
    for (n, step) in script.iter().enumerate() {
        let at = At(label, n, &step.op);
        let mut deltas = Deltas::new();
        match &step.op {
            Op::Queries(batch) => {
                let before = target.cache_stats();
                assert_eq!(target.queries(batch), step.answers, "answers: {at}");
                if let (Some(b), Some(a), Some(hit)) = (before, target.cache_stats(), step.reread) {
                    let asked = batch.len() as u64;
                    let (hits, dropped) = if hit { (asked, 0) } else { (0, asked) };
                    assert_eq!(
                        (a.hits, a.misses, a.targeted_evictions),
                        (
                            b.hits + hits,
                            b.misses + dropped,
                            b.targeted_evictions + dropped
                        ),
                        "re-asked right behind the previous step: {at}"
                    );
                }
            }
            Op::Updates(updates) | Op::Burst(updates) => {
                for update in updates {
                    model.apply(update);
                }
                let applied = target.updates(updates.clone());
                assert_eq!(applied.counts, step.counts, "update counts: {at}");
                if let Some(inserted) = applied.inserted {
                    assert_eq!(inserted, step.inserted, "inserted ids: {at}");
                }
                for (handle, entered, left, reason) in applied.deltas {
                    let shape = (entered.len(), left.len());
                    let fits = match reason {
                        DeltaReason::TransitionArrived => shape == (1, 0),
                        DeltaReason::TransitionExpired => shape == (0, 1),
                        DeltaReason::RouteInserted => shape.0 == 0 && shape.1 > 0,
                        DeltaReason::RouteRemoved => shape.0 > 0 && shape.1 == 0,
                    };
                    assert!(fits, "a {reason:?} delta of shape {shape:?}: {at}");
                    assert!(entered.iter().all(|t| !left.contains(t)), "{at}");
                    let (ordinal, (_, _, result)) = replayed
                        .iter_mut()
                        .find(|(_, (h, _, _))| *h == handle)
                        .unwrap_or_else(|| panic!("delta for no live subscription: {at}"));
                    result.retain(|t| !left.contains(t));
                    result.extend(&entered);
                    result.sort_unstable();
                    deltas.push((*ordinal, entered, left, reason));
                }
            }
            Op::Subscribe(query) => {
                let (handle, initial) = target.subscribe(query);
                replayed.insert(created, (handle, query.clone(), initial));
                created += 1;
            }
            Op::Unsubscribe(ordinal) => {
                let existed = match replayed.remove(ordinal) {
                    Some((handle, _, _)) => {
                        dropped.insert(*ordinal, handle);
                        target.unsubscribe(handle)
                    }
                    None => dropped.get(ordinal).is_some_and(|h| target.unsubscribe(*h)),
                };
                assert_eq!(existed, step.existed, "unsubscribe outcome: {at}");
            }
            Op::Reshard(shards, bits) => target.reshard(*shards, *bits),
            Op::Checkpoint => target.checkpoint(),
            Op::CrashReopen => {
                if target.crash_reopen() {
                    // Subscriptions die with the process (persisting them is
                    // an open ROADMAP item): register the live ones again, in
                    // creation order, so their deltas come in the same order
                    // as everywhere else. Their fresh results are checked
                    // against the model below like any maintained one.
                    dropped.clear();
                    for (handle, query, result) in replayed.values_mut() {
                        (*handle, *result) = target.subscribe(query);
                    }
                }
            }
        }
        if !matches!(
            step.op,
            Op::Queries(_) | Op::Subscribe(_) | Op::Unsubscribe(_)
        ) {
            target.check_state(&model);
        }
        assert_eq!(
            replayed.len(),
            step.standing.len(),
            "live subscriptions: {at}"
        );
        for (ordinal, expected) in &step.standing {
            let (handle, _, result) = &replayed[ordinal];
            assert_eq!(result, expected, "replayed deltas of sub {ordinal}: {at}");
            if let Some(maintained) = target.maintained(*handle) {
                assert_eq!(&maintained, expected, "maintained sub {ordinal}: {at}");
            }
        }
        trace.push(deltas);
    }
    trace
}

/// The streams of one world must actually exercise what they claim to:
/// answers that change under churn for queries asked before (a stale cache
/// entry would show), among them answers re-asked right behind a
/// transition-only batch that gained and that lost members (a skipped replay
/// would show), standing results that change (a missed delta would show),
/// rejected updates, unsubscribes, reshards and crashes; and in every stream
/// the kit's ties and a burst past the ring that changes every answer it
/// strands.
fn assert_streams_have_teeth(world: &World, scripts: &[Vec<Step>]) {
    let (mut answers_changed, mut standing_changed) = (0, 0);
    let (mut replay_gained, mut replay_lost) = (0, 0);
    let (mut crashes, mut tails_behind_snapshots, mut crashes_with_subscriptions) = (0, 0, 0);
    for script in scripts {
        for window in script.windows(3) {
            let [before, churn, after] = window else {
                unreachable!("windows(3)");
            };
            let answers = before.answers.iter().zip(&after.answers);
            match (&churn.op, after.reread) {
                (Op::Updates(_), Some(true)) => {
                    for (old, new) in answers {
                        replay_gained += usize::from(new.iter().any(|t| !old.contains(t)));
                        replay_lost += usize::from(old.iter().any(|t| !new.contains(t)));
                    }
                }
                (Op::Burst(_), Some(false)) => {
                    let unchanged = answers.filter(|(a, b)| a == b).count();
                    assert_eq!(unchanged, 0, "a burst past the ring changed no answer");
                }
                _ => {}
            }
        }
        let mut last_answer: HashMap<String, &Vec<TransitionId>> = HashMap::new();
        let mut last_standing: HashMap<usize, &Vec<TransitionId>> = HashMap::new();
        for step in script {
            if let Op::Queries(batch) = &step.op {
                for (query, answer) in batch.iter().zip(&step.answers) {
                    if let Some(previous) = last_answer.insert(format!("{query:?}"), answer) {
                        answers_changed += usize::from(previous != answer);
                    }
                }
            }
            for (ordinal, result) in &step.standing {
                if let Some(previous) = last_standing.insert(*ordinal, result) {
                    standing_changed += usize::from(previous != result);
                }
            }
        }
        // The kit: ∃ at k = 1 holds both tie-at-1 arrivals, ∀ the one tied at
        // both ends; at k = 2 the tie-at-2 ones join the same way; the
        // arrival from a stop to itself and the one expired unread are in no
        // answer.
        let kit = script
            .iter()
            .position(|s| s.inserted.0.len() == 6 && s.counts == (7, 0))
            .expect("the kit's arrivals");
        let base = script[kit].inserted.0[0].index();
        let ids = |offsets: &[usize]| -> Vec<TransitionId> {
            let ids = offsets.iter().map(|o| TransitionId((base + o) as u32));
            ids.collect()
        };
        let expected = [ids(&[0, 1]), ids(&[0]), ids(&[0, 1, 2, 3]), ids(&[0, 2])];
        for (answer, expected) in script[kit + 1].answers.iter().zip(&expected) {
            let kit_members = answer.iter().filter(|t| t.index() >= base).copied();
            let kit_members: Vec<_> = kit_members.collect();
            assert_eq!(
                &kit_members, expected,
                "the kit's ties in the {}",
                world.name
            );
        }
        // Storage: some crash finds a WAL tail behind a mid-stream snapshot
        // and some crash finds live subscriptions to lose.
        let (mut tail, mut snapshots) = (0u64, 0);
        for step in script {
            match &step.op {
                Op::Updates(_) => tail += step.counts.0,
                Op::Checkpoint => {
                    snapshots += 1;
                    tail = 0;
                }
                Op::CrashReopen => {
                    crashes += 1;
                    tails_behind_snapshots += usize::from(snapshots > 0 && tail > 0);
                    crashes_with_subscriptions += usize::from(!step.standing.is_empty());
                }
                _ => {}
            }
        }
    }
    let steps = || scripts.iter().flatten();
    assert!(
        replay_gained >= 5 && replay_lost >= 5,
        "re-asked answers gained members {replay_gained} times, lost {replay_lost} times"
    );
    assert!(
        answers_changed >= 5,
        "only {answers_changed} repeated answers changed"
    );
    assert!(
        standing_changed >= 5,
        "only {standing_changed} standing results changed"
    );
    assert!(steps().any(|s| s.counts.1 > 0), "no rejected update");
    assert!(steps().any(|s| s.existed), "no effective unsubscribe");
    let reshards = steps().filter(|s| matches!(s.op, Op::Reshard(..))).count();
    assert!(reshards >= 2, "only {reshards} reshards");
    assert!(crashes >= 7, "only {crashes} crash-reopens");
    assert!(tails_behind_snapshots >= 1, "no crash replays a tail");
    assert!(
        crashes_with_subscriptions >= 1,
        "no crash loses a subscription"
    );
}

/// Drives one stream through every configuration; returns the shapes the
/// durable directory was reopened in and the most WAL segments a reopen
/// found.
fn run(world: &World, seed: u64, script: &[Step], first: usize) -> (Vec<usize>, usize) {
    let model = &world.initial;
    let base = ServiceConfig::default()
        .with_workers(2)
        .with_cache_capacity(CACHE_CAPACITY);
    let label = |name: &str| format!("{} seed {seed}, {name}", world.name);
    let flat_deltas = drive(&label("flat"), &mut local(flat(model, base)), model, script);
    let check = |name: &str, target: &mut dyn Target| {
        let label = label(name);
        let trace = drive(&label, target, model, script);
        for (n, (got, flat)) in trace.iter().zip(&flat_deltas).enumerate() {
            assert_eq!(
                got, flat,
                "{label}: the deltas of step {n} differ from flat's"
            );
        }
    };
    for shards in [1, 4] {
        check(
            &format!("{shards}-shard"),
            &mut local(sharded(model, base, shards)),
        );
    }
    check(
        "flat over TCP",
        &mut Wire::over(Backend::Single(flat(model, base))),
    );
    for shards in [1, 4] {
        let backend = Backend::Sharded(sharded(model, base, shards));
        check(
            &format!("{shards}-shard over TCP"),
            &mut Wire::over(backend),
        );
    }
    let tag = format!("{}-{seed}", world.name);
    let mut durable = Durable::over(model, base, &tag, first);
    check("durable, reopened in every shape in turn", &mut durable);
    (durable.opened.clone(), durable.segments)
}

/// Streams of `steps` drawn ops over `seeds` through every configuration,
/// the world built per seed; every shape of the rotation must reopen, and
/// some reopen must replay across WAL segments.
fn run_seeds(world: impl Fn(u64) -> World, seeds: [u64; 3], steps: usize) {
    let worlds = seeds.map(world);
    let scripts: Vec<Vec<Step>> = worlds
        .iter()
        .zip(seeds)
        .map(|(world, seed)| script(world, seed, steps))
        .collect();
    assert_streams_have_teeth(&worlds[0], &scripts);
    let (mut opened, mut segments) = (Vec::new(), 0);
    for ((world, seed), script) in worlds.iter().zip(seeds).zip(&scripts) {
        // Each stream's rotation starts where the previous one stopped.
        let (shapes, most) = run(world, seed, script, opened.len());
        opened.extend(shapes);
        segments = segments.max(most);
    }
    let shapes: BTreeSet<usize> = opened.into_iter().collect();
    assert!(shapes.into_iter().eq(SHAPES), "some shape never reopened");
    assert!(segments > 1, "no reopen found more than one WAL segment");
}

#[test]
fn one_stream_every_configuration_matches_the_brute_force_model() {
    run_seeds(|_| ladder(), [0x5eed_1a7e, 2, 3], 110);
}

#[test]
fn one_stream_over_a_generated_city_matches_the_brute_force_model() {
    run_seeds(city, [1, 2, 3], 80);
}
