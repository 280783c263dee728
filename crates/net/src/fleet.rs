//! A distributed shard fleet with partial-failure semantics: the router is
//! the one serving frontend, a [`Service`] over remote transition shards,
//! each its own [`Server`] behind a health-tracked [`RemoteShard`].
//!
//! The router holds the only [`RouteStore`], the transition directory and
//! one update log per shard. Transitions are placed by origin cell on a
//! Z-order [`CellGrid`] with the [`rknnt_service::ShardedService`] global
//! ids; a shard server is a [`Backend::Single`] over an empty route store
//! and its slice. A query builds its filter over the router's routes, every
//! shard prunes its TR-tree against it ([`crate::Message::Prune`]), and the
//! router verifies the candidates once. A transition update goes into its
//! owner's log, a route update changes the router's routes only.
//!
//! A shard the router cannot reach within its retry/breaker budget is named
//! in [`FleetResult::missing_shards`], and the answer is exactly the other
//! shards' part. Three rules keep that exact:
//!
//! * **ship before prune** — a shard's unacknowledged log suffix is sent
//!   before it is pruned, and a shard that does not take it is missing;
//! * **no router cache** — every answer reaches every live shard, so no
//!   degraded answer is served after the outage ends;
//! * **resync when a shard returns** — through
//!   [`FleetRouter::restart_shard`] or a successful call after a failure,
//!   the router re-executes every subscription and emits the difference as
//!   resync deltas, keeping the members of any shard still missing.
//!
//! A restarted shard is reopened from its storage directory (durable
//! fleets) or rebuilt from its build-time slice, and a
//! [`crate::Client::health`] probe reports the watermark from which the
//! router ships the rest of its log.

use crate::client::{ClientError, Reply};
use crate::remote::{RemoteError, RemoteShard, RemoteShardConfig, RemoteShardStats, Sleeper};
use crate::server::{Backend, Server, ServerConfig};
use rknnt_core::{CandidateEndpoint, FilterSet, QueryScratch, RknntQuery};
use rknnt_fault::Failpoints;
use rknnt_geo::{CellGrid, Point};
use rknnt_index::EndpointKind::{Destination, Origin};
use rknnt_index::{
    partition_by_origin_cell, IdSpace, RouteId, RouteStore, TransitionId, TransitionStore,
};
use rknnt_obs::{Clock, Counter, MetricsRegistry, MonotonicClock, TraceCursor};
use rknnt_rtree::RTreeConfig;
use rknnt_service::{
    Backing, QueryService, Service, ServiceConfig, ServiceMetrics, StorageConfig, StoreUpdate,
    SubscriptionId,
};
use std::io;
use std::path::PathBuf;
use std::sync::{Arc, Mutex, MutexGuard};

/// Fleet-wide build and dispatch knobs.
#[derive(Clone)]
pub struct FleetConfig {
    /// Number of shard servers (at least 1 is always used).
    pub shards: usize,
    /// Z-order grid resolution for transition placement.
    pub grid_bits: u32,
    /// R-tree fan-out for every store in the fleet.
    pub rtree: RTreeConfig,
    /// Service configuration of the router and every shard, with caching
    /// off: the router serves no cached answer, a shard no query.
    pub service: ServiceConfig,
    /// Per-shard serving-edge configuration (admission budgets must be
    /// provisioned so router traffic is never shed — a shed dispatch is
    /// treated as a failed attempt).
    pub server: ServerConfig,
    /// Dispatch defence stack: deadline, retry schedule, breaker.
    pub remote: RemoteShardConfig,
    /// When set, each shard persists under `<root>/shard-<i>` and restarts
    /// recover from disk; when `None`, shards are in-memory and restarts
    /// rebuild from the build inputs plus a full log replay.
    pub storage_root: Option<PathBuf>,
    /// Storage knobs for durable fleets.
    pub storage: StorageConfig,
    /// Failpoints to arm on specific shards' servers at build time
    /// (`(shard index, plan)`). Restarted shards always run clean.
    pub shard_faults: Vec<(usize, Arc<Failpoints>)>,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            shards: 4,
            grid_bits: 6,
            rtree: RTreeConfig::default(),
            service: ServiceConfig::default(),
            server: ServerConfig::default(),
            remote: RemoteShardConfig::default(),
            storage_root: None,
            storage: StorageConfig::default(),
            shard_faults: Vec::new(),
        }
    }
}

/// A fleet answer: the answer over every reachable shard, with the
/// unreachable shards named. Never a silent wrong answer — a degraded
/// result says exactly which slice of the data it is missing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetResult {
    /// Qualifying transitions (global ids, sorted ascending) from every
    /// shard that answered.
    pub transitions: Vec<TransitionId>,
    /// Shards whose retry/breaker budget was exhausted; their transitions
    /// are absent from `transitions`.
    pub missing_shards: Vec<usize>,
}

impl FleetResult {
    /// Whether every shard contributed (the answer equals the unsharded
    /// service's answer).
    pub fn is_complete(&self) -> bool {
        self.missing_shards.is_empty()
    }
}

/// Outcome of routing one update batch through the fleet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetApply {
    /// Updates applied: transition records appended to their owner shard's
    /// log, route changes applied to the router's route set.
    pub routed: u64,
    /// Updates rejected at the router: non-finite points, unknown or
    /// expired ids, and invalid route records (a route too short to keep,
    /// the removal of an unknown one).
    pub rejected: u64,
    /// Shards that could not be reached; their records are deferred in the
    /// router log and ship before the shard is next pruned.
    pub deferred_shards: Vec<usize>,
}

/// A standing-query result change at fleet level, in global ids.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetDelta {
    /// The fleet subscription handle.
    pub subscription: u64,
    /// Transitions that entered the result, sorted ascending.
    pub entered: Vec<TransitionId>,
    /// Transitions that left the result, sorted ascending.
    pub left: Vec<TransitionId>,
}

/// A fleet-level failure (distinct from per-shard degradation, which is
/// expressed in [`FleetResult::missing_shards`], not as an error).
#[derive(Debug)]
pub enum FleetError {
    /// Building or restarting a shard failed at the storage/socket layer.
    Build(String),
    /// A resync step failed against a shard that should be reachable.
    Resync {
        /// Which shard.
        shard: usize,
        /// What failed.
        message: String,
    },
}

impl std::fmt::Display for FleetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FleetError::Build(m) => write!(f, "fleet build failed: {m}"),
            FleetError::Resync { shard, message } => {
                write!(f, "resync of shard {shard} failed: {message}")
            }
        }
    }
}

impl std::error::Error for FleetError {}

/// One shard as the router sees it.
struct FleetShard {
    server: Option<Server>,
    remote: RemoteShard,
    /// Local → global transition ids, grown as inserts route here.
    space: IdSpace,
    /// Every transition record routed here, in shard-local form, in order.
    log: Vec<StoreUpdate>,
    /// Records the shard acknowledged (its watermark while in sync).
    acked: u64,
    /// Whether the last call reached the shard; a resync keeps the members
    /// of a shard it did not reach.
    up: bool,
    /// Whether a call missed the shard, and whether one reached it after a
    /// failure, since the router last settled.
    missed: bool,
    returned: bool,
    /// The shard's build-time transition slice, for in-memory restarts.
    initial_pairs: Vec<(Point, Point)>,
    storage_dir: Option<PathBuf>,
}

impl FleetShard {
    /// Sends the unacknowledged log suffix, if any, in one call.
    fn ship(&mut self) -> Result<(), RemoteError> {
        if self.acked < self.log.len() as u64 {
            let batch = self.log[self.acked as usize..].to_vec();
            self.remote
                .call(|c| answered(c.apply_updates(batch.clone())))?;
            self.acked = self.log.len() as u64;
        }
        Ok(())
    }

    /// Runs `op` after [`FleetShard::ship`], recording if the shard was reached.
    fn reach<T>(&mut self, op: impl FnOnce(&mut Self) -> Result<T, RemoteError>) -> Option<T> {
        let outcome = self.ship().and_then(|()| op(self));
        let reached = outcome.is_ok();
        self.returned |= reached && !self.up;
        self.missed |= !reached;
        self.up = reached;
        outcome.ok()
    }
}

/// The fleet backing: the route set, the transition directory and the shards.
struct FleetShards {
    grid: CellGrid,
    routes: RouteStore,
    /// The endpoints of every global transition id, `None` once expired.
    directory: Vec<Option<(Point, Point)>>,
    shards: Vec<Mutex<FleetShard>>,
}

impl FleetShards {
    fn shard(&self, index: usize) -> MutexGuard<'_, FleetShard> {
        self.shards[index].lock().expect("fleet shard poisoned")
    }

    /// The shard that owns a live transition.
    fn owner(&self, id: TransitionId) -> Option<usize> {
        let (origin, _) = self.endpoints(id)?;
        Some(self.grid.shard_of_point(&origin, self.shards.len()))
    }
}

impl Backing for FleetShards {
    fn routes(&self) -> &RouteStore {
        &self.routes
    }

    /// Every shard prunes its own TR-tree against `filter`, after its
    /// deferred records have shipped; the surviving endpoints come back as
    /// local ids and enter the scratch under global ids, their points read
    /// off the directory. A shard that cannot be reached, or names an id its
    /// log does not hold, adds nothing and is recorded missing.
    fn prune(
        &self,
        scratch: &mut QueryScratch,
        filter: &FilterSet,
        k: usize,
        _trace: TraceCursor<'_>,
    ) -> usize {
        let mut pruned_nodes = 0;
        for index in 0..self.shards.len() {
            let reply = self.shard(index).reach(|shard| {
                let (origins, destinations, pruned) =
                    shard.remote.call(|c| answered(c.prune(filter, k)))?;
                let space = &shard.space;
                let sides = [(origins, Origin), (destinations, Destination)].into_iter();
                let candidates = sides.enumerate().flat_map(|(side, (locals, kind))| {
                    locals.into_iter().map(move |local| {
                        let transition = TransitionId(space.to_global(local.raw())?);
                        let (origin, destination) = self.endpoints(transition)?;
                        let point = [origin, destination][side];
                        Some(CandidateEndpoint {
                            transition,
                            kind,
                            point,
                        })
                    })
                });
                // A live id outside the shard's log: the shard is out of step.
                let candidates: Option<Vec<_>> = candidates.collect();
                scratch.extend_candidates(candidates.ok_or_else(|| RemoteError::Server {
                    message: "the shard named a transition its log does not hold".into(),
                })?);
                Ok(pruned as usize)
            });
            pruned_nodes += reply.unwrap_or(0);
        }
        pruned_nodes
    }

    fn insert_transition(&mut self, origin: Point, destination: Point) -> Option<TransitionId> {
        if !origin.is_finite() || !destination.is_finite() {
            return None;
        }
        let owner = self.grid.shard_of_point(&origin, self.shards.len());
        let shard = self.shards[owner].get_mut().expect("fleet shard poisoned");
        let global = self.directory.len() as u32;
        shard.space.push(global);
        shard.log.push(StoreUpdate::InsertTransition {
            origin,
            destination,
        });
        self.directory.push(Some((origin, destination)));
        Some(TransitionId(global))
    }

    fn expire_transition(&mut self, id: TransitionId) -> bool {
        let Some((origin, _)) = self.directory.get_mut(id.index()).and_then(Option::take) else {
            return false;
        };
        let owner = self.grid.shard_of_point(&origin, self.shards.len());
        let shard = self.shards[owner].get_mut().expect("fleet shard poisoned");
        let local = shard.space.to_local(id.raw()).expect("a live id is mapped");
        shard
            .log
            .push(StoreUpdate::ExpireTransition(TransitionId(local)));
        true
    }

    fn insert_route(&mut self, points: Vec<Point>) -> Option<RouteId> {
        self.routes.insert_route(points)
    }

    fn remove_route(&mut self, id: RouteId) -> bool {
        self.routes.remove_route(id)
    }

    fn endpoints(&self, id: TransitionId) -> Option<(Point, Point)> {
        *self.directory.get(id.index())?
    }
}

struct FleetMetrics {
    registry: MetricsRegistry,
    dispatches: Counter,
    partial_results: Counter,
    deferred_records: Counter,
    replayed_records: Counter,
    restarts: Counter,
    resync_deltas: Counter,
}

impl FleetMetrics {
    fn new() -> Self {
        let mut registry = MetricsRegistry::new();
        let mut counter = |name| registry.counter(name);
        FleetMetrics {
            dispatches: counter("fleet.dispatches"),
            partial_results: counter("fleet.partial_results"),
            deferred_records: counter("fleet.deferred_records"),
            replayed_records: counter("fleet.replayed_records"),
            restarts: counter("fleet.restarts"),
            resync_deltas: counter("fleet.resync_deltas"),
            registry,
        }
    }
}

/// The fleet router: owns every shard server, degrades on partial failure,
/// and resyncs recovered shards from its per-shard update logs.
pub struct FleetRouter {
    config: FleetConfig,
    service: Service<FleetShards>,
    pending_deltas: Vec<FleetDelta>,
    metrics: FleetMetrics,
}

impl FleetRouter {
    /// Builds the fleet: keeps the route set, partitions transitions by
    /// origin cell, starts one [`Server`] per shard over its slice (with
    /// storage attached when [`FleetConfig::storage_root`] is set) and
    /// dials each through a [`RemoteShard`].
    pub fn bulk_build(
        config: FleetConfig,
        routes: Vec<Vec<Point>>,
        transitions: Vec<(Point, Point)>,
    ) -> Result<FleetRouter, FleetError> {
        Self::bulk_build_with_parts(
            config,
            routes,
            transitions,
            Arc::new(MonotonicClock::new()),
            None,
        )
    }

    /// [`FleetRouter::bulk_build`] with an explicit breaker clock and
    /// backoff sleeper — the deterministic-test constructor.
    pub fn bulk_build_with_parts(
        mut config: FleetConfig,
        routes: Vec<Vec<Point>>,
        transitions: Vec<(Point, Point)>,
        clock: Arc<dyn Clock>,
        sleeper: Option<Arc<dyn Sleeper>>,
    ) -> Result<FleetRouter, FleetError> {
        let shard_count = config.shards.max(1);
        config.service = config.service.with_cache_capacity(0);
        let (routes, _) = RouteStore::bulk_build(config.rtree, routes);
        // Invalid pairs consume no global id, exactly like the unsharded
        // bulk build; every slot handed to the partition is live.
        let directory: Vec<Option<(Point, Point)>> = transitions
            .into_iter()
            .filter(|(origin, destination)| origin.is_finite() && destination.is_finite())
            .map(Some)
            .collect();
        let extent = routes.routes().flat_map(|route| &route.points);
        let extent = extent.chain(directory.iter().flatten().flat_map(|(o, d)| [o, d]));
        let (grid, partition) = partition_by_origin_cell(
            config.rtree,
            extent,
            config.grid_bits,
            directory.iter().copied(),
            shard_count,
        );
        let sleeper = sleeper.unwrap_or_else(|| Arc::new(crate::remote::ThreadSleeper));
        let mut shards = Vec::with_capacity(shard_count);
        let slices = partition.stores.into_iter().zip(partition.spaces);
        for (index, (store, space)) in slices.enumerate() {
            let initial_pairs = store
                .transitions()
                .map(|t| (t.origin, t.destination))
                .collect();
            let mut service = QueryService::new(RouteStore::default(), store, config.service);
            let mut storage_dir = None;
            if let Some(root) = &config.storage_root {
                let dir = root.join(format!("shard-{index}"));
                std::fs::create_dir_all(&dir)
                    .map_err(|e| FleetError::Build(format!("shard {index} dir: {e}")))?;
                service
                    .attach_storage(&dir, config.storage)
                    .map_err(|e| FleetError::Build(format!("shard {index} storage: {e}")))?;
                storage_dir = Some(dir);
            }
            let faults = config.shard_faults.iter().find(|(s, _)| *s == index);
            let server = start_shard(&config, index, service, faults.map(|(_, f)| f.clone()))?;
            let remote = RemoteShard::with_parts(
                server.local_addr(),
                config.remote.clone(),
                Arc::clone(&clock),
                Arc::clone(&sleeper),
            );
            shards.push(Mutex::new(FleetShard {
                server: Some(server),
                remote,
                space,
                log: Vec::new(),
                acked: 0,
                up: true,
                missed: false,
                returned: false,
                initial_pairs,
                storage_dir,
            }));
        }
        let fleet = FleetShards {
            grid,
            routes,
            directory,
            shards,
        };
        Ok(FleetRouter {
            service: Service::from_parts(fleet, config.service, ServiceMetrics::default()),
            config,
            pending_deltas: Vec::new(),
            metrics: FleetMetrics::new(),
        })
    }

    fn fleet(&self) -> &FleetShards {
        self.service.backing()
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.fleet().shards.len()
    }

    /// Dispatch counters for one shard.
    pub fn shard_stats(&self, index: usize) -> RemoteShardStats {
        self.fleet().shard(index).remote.stats()
    }

    /// The circuit-breaker state of one shard's dispatch path.
    pub fn shard_breaker_state(&mut self, index: usize) -> crate::remote::BreakerState {
        self.fleet().shard(index).remote.breaker_state()
    }

    /// `(acknowledged, total)` record counts in shard `index`'s router log
    /// — unequal while updates are deferring.
    pub fn shard_progress(&self, index: usize) -> (u64, u64) {
        let shard = self.fleet().shard(index);
        (shard.acked, shard.log.len() as u64)
    }

    /// Which shard owns a live global transition id (tests and experiments
    /// use this to compute the exact answer a degraded fleet must report).
    pub fn owner_of(&self, id: TransitionId) -> Option<usize> {
        self.fleet().owner(id)
    }

    /// Text exposition of the `fleet.*` metrics.
    pub fn metrics_text(&self) -> String {
        self.metrics.registry.render_text()
    }

    /// Chaos hook: kills shard `index`'s server exactly as the
    /// [`rknnt_fault::FaultAction::Kill`] failpoint would. The router does
    /// not learn of the death here — the next dispatch discovers it, as it
    /// would in production.
    pub fn kill_shard(&mut self, index: usize, reason: &str) {
        let mut shard = self.fleet().shard(index);
        if let Some(server) = &shard.server {
            server.kill(reason);
        }
        shard.remote.disconnect();
    }

    /// Executes one query across the fleet. Reachable shards contribute
    /// their slice; unreachable shards are named in the degraded result.
    pub fn execute(&mut self, query: &RknntQuery) -> FleetResult {
        self.metrics.dispatches.inc();
        let result = self.service.execute(query);
        let missing = self.settle();
        if !missing.is_empty() {
            self.metrics.partial_results.inc();
        }
        FleetResult {
            transitions: result.transitions,
            missing_shards: missing,
        }
    }

    /// Applies an update batch at the router — a transition to its owner
    /// shard's log (global id assigned here, exactly as the unsharded
    /// service would), a route change to the route set — and sends every
    /// shard its pending log suffix, records deferred while it was down
    /// included, in one wire call; shards that stay unreachable keep
    /// deferring.
    pub fn apply_updates(&mut self, updates: Vec<StoreUpdate>) -> FleetApply {
        let stats = self.service.apply_updates(updates);
        let deltas = stats.deltas.into_iter();
        self.queue_deltas(deltas.map(|d| (d.subscription, d.entered, d.left)));
        let mut deferred = Vec::new();
        for index in 0..self.shard_count() {
            let mut shard = self.fleet().shard(index);
            let pending = shard.log.len() as u64 - shard.acked;
            if pending > 0 && shard.reach(|_| Ok(())).is_none() {
                deferred.push(index);
                self.metrics.deferred_records.add(pending);
            }
        }
        self.settle();
        FleetApply {
            routed: stats.applied as u64,
            rejected: stats.rejected as u64,
            deferred_shards: deferred,
        }
    }

    /// Registers a standing query. The result is degraded like a query:
    /// down shards are named and contribute nothing until they return
    /// (resync then emits the catch-up delta).
    pub fn subscribe(&mut self, query: &RknntQuery) -> (u64, FleetResult) {
        let id = self.service.subscribe(query.clone());
        let transitions = self.service.subscription_result(id).map(<[_]>::to_vec);
        let missing_shards = self.settle();
        let result = FleetResult {
            transitions: transitions.expect("subscribed just now"),
            missing_shards,
        };
        (id.raw(), result)
    }

    /// The current fleet-level result of a subscription.
    pub fn subscription_result(&self, subscription: u64) -> Option<Vec<TransitionId>> {
        let id = SubscriptionId(subscription);
        self.service.subscription_result(id).map(<[_]>::to_vec)
    }

    /// Drains fleet-level deltas accumulated by update routing and resync.
    pub fn take_deltas(&mut self) -> Vec<FleetDelta> {
        std::mem::take(&mut self.pending_deltas)
    }

    /// Restarts a dead shard and resyncs it: reopen from storage (durable
    /// fleets) or rebuild from the build-time slice (in-memory fleets),
    /// health-probe for the applied-update watermark, ship the router log
    /// from that index, then re-execute every subscription and emit resync
    /// deltas for whatever the outage hid.
    pub fn restart_shard(&mut self, index: usize) -> Result<(), FleetError> {
        self.metrics.restarts.inc();
        let resync_err = |message: String| FleetError::Resync {
            shard: index,
            message,
        };
        let config = &self.config;
        let mut shard = self.service.backing().shard(index);
        if let Some(server) = shard.server.take() {
            // The old incarnation's backend dies with it.
            drop(server.stop());
        }
        let service = match &shard.storage_dir {
            Some(dir) => {
                let opened = QueryService::open(dir, config.service, config.storage);
                let build_err = |e| FleetError::Build(format!("shard {index} restart: {e}"));
                opened.map_err(build_err)?.0
            }
            None => {
                let slice = TransitionStore::bulk_build(config.rtree, shard.initial_pairs.clone());
                QueryService::new(RouteStore::default(), slice, config.service)
            }
        };
        // Recovered shards run clean: injected faults died with the old
        // process.
        let server = start_shard(config, index, service, None)?;
        shard.remote.set_addr(server.local_addr());
        shard.server = Some(server);
        // The shard holds exactly `watermark` of this log's records: the
        // router sends them in log order, and nowhere else.
        let status = shard
            .remote
            .call(|c| answered(c.health()))
            .map_err(|e| resync_err(format!("health probe: {e}")))?;
        let total = shard.log.len() as u64;
        shard.acked = status.watermark.min(total);
        let replay = total - shard.acked;
        shard
            .ship()
            .map_err(|e| resync_err(format!("log replay: {e}")))?;
        (shard.up, shard.returned) = (true, true);
        drop(shard);
        self.metrics.replayed_records.add(replay);
        self.settle();
        Ok(())
    }

    /// The shards the calls since the last look could not reach. While one
    /// answered again after a failure, every subscription is re-executed and
    /// what moved is queued as resync deltas. A member whose shard the
    /// re-execution missed is kept, not reported as left; that shard returns
    /// later, and only the caller's own misses are the caller's. The passes
    /// are bounded, so a flapping shard cannot hold the caller: a return
    /// seen in the last pass stays flagged for the next settle.
    fn settle(&mut self) -> Vec<usize> {
        let missing = self.take_flags(|shard| &mut shard.missed);
        for _ in 0..self.shard_count() {
            if self.take_flags(|shard| &mut shard.returned).is_empty() {
                break;
            }
            let unseen =
                |fleet: &FleetShards, id| fleet.owner(id).is_some_and(|i| !fleet.shard(i).up);
            let moved = self.service.reexecute_subscriptions(unseen);
            self.metrics.resync_deltas.add(moved.len() as u64);
            self.queue_deltas(moved.into_iter());
            self.take_flags(|shard| &mut shard.missed);
        }
        missing
    }

    /// The shards whose `flag` is set, clearing it.
    fn take_flags(&self, flag: impl Fn(&mut FleetShard) -> &mut bool) -> Vec<usize> {
        let shards = 0..self.shard_count();
        shards
            .filter(|&index| std::mem::take(flag(&mut self.fleet().shard(index))))
            .collect()
    }

    fn queue_deltas(
        &mut self,
        moved: impl Iterator<Item = (SubscriptionId, Vec<TransitionId>, Vec<TransitionId>)>,
    ) {
        let deltas = moved.map(|(id, entered, left)| FleetDelta {
            subscription: id.raw(),
            entered,
            left,
        });
        self.pending_deltas.extend(deltas);
    }

    /// Stops every shard server in an orderly way.
    pub fn shutdown(self) {
        for index in 0..self.shard_count() {
            if let Some(server) = self.fleet().shard(index).server.take() {
                drop(server.stop());
            }
        }
    }
}

/// Starts shard `index`'s server over `service`, with `failpoints` armed.
fn start_shard(
    config: &FleetConfig,
    index: usize,
    service: QueryService,
    failpoints: Option<Arc<Failpoints>>,
) -> Result<Server, FleetError> {
    let server_config = ServerConfig {
        failpoints,
        ..config.server.clone()
    };
    Server::start(Backend::Single(service), server_config)
        .map_err(|e| FleetError::Build(format!("shard {index} server: {e}")))
}

/// A reply's answer; a shed dispatch counts as a failed attempt: fleets
/// provision admission budgets so router traffic is never shed, and
/// anything else is treated as the shard being unable to serve.
fn answered<T>(reply: Result<Reply<T>, ClientError>) -> Result<T, ClientError> {
    match reply? {
        Reply::Answered(value) => Ok(value),
        Reply::Overloaded(_) => Err(ClientError::Io(io::Error::other("shard shed the request"))),
    }
}
