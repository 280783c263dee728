//! A distributed shard fleet with partial-failure semantics: the router is
//! the one serving frontend over the one sharded backing, a
//! [`Service`]`<`[`Shards`]`<RemoteLink>>` — placement, directory, extent
//! skip, `shard` span and router counters exactly as in a
//! [`rknnt_service::ShardedService`] — whose links are remote. A
//! `RemoteLink` keeps an endpoint mirror, an extent and an update log at
//! the router, and reaches its shard — a [`Server`] over a
//! [`Backend::Single`] with an empty route store and the slice, behind a
//! health-tracked [`RemoteShard`] — only to ship the log and to prune
//! ([`crate::Message::Prune`]). The router builds every filter and verifies
//! the candidates once.
//!
//! A shard the router cannot reach within its retry/breaker budget is named
//! in [`FleetResult::missing_shards`], and the answer is exactly the other
//! shards' part. Three rules keep that exact:
//!
//! * **ship before prune** — a shard's unacknowledged log suffix is sent
//!   before it is pruned, and a shard that does not take it is missing;
//! * **no router cache** — every answer reaches every live shard it cannot
//!   skip, so no degraded answer is served after the outage ends;
//! * **resync when a shard returns** — through
//!   [`FleetRouter::restart_shard`] or a successful call after a failure
//!   (each router call probes a shard still down that it did not try), the
//!   router re-executes every subscription and emits the difference as
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
use rknnt_geo::{Point, Rect};
use rknnt_index::EndpointKind::{Destination, Origin};
use rknnt_index::{RouteStore, TransitionId, TransitionStore};
use rknnt_obs::{Clock, Counter, MetricsRegistry, MonotonicClock};
use rknnt_rtree::RTreeConfig;
use rknnt_service::{
    Missed, QueryService, RouterStats, Service, ServiceConfig, ShardLink, ShardedConfig, Shards,
    StorageConfig, StoreUpdate, SubscriptionId,
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

/// One remote shard as a [`ShardLink`], locked per call.
struct RemoteLink(Mutex<FleetShard>);

/// One shard as the router sees it.
struct FleetShard {
    /// The endpoints of every transition routed here, by local id; `None`
    /// once expired.
    mirror: Vec<Option<(Point, Point)>>,
    /// Grows over every endpoint routed here, deferred ones included, and
    /// never shrinks: the skip certificate stays sound.
    extent: Rect,
    server: Option<Server>,
    remote: RemoteShard,
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

impl RemoteLink {
    fn shard(&self) -> MutexGuard<'_, FleetShard> {
        self.0.lock().expect("fleet shard poisoned")
    }
}

impl ShardLink for RemoteLink {
    fn insert(&mut self, origin: Point, destination: Point) -> Option<TransitionId> {
        if !origin.is_finite() || !destination.is_finite() {
            return None;
        }
        let shard = self.0.get_mut().expect("fleet shard poisoned");
        let local = TransitionId(shard.mirror.len() as u32);
        shard.mirror.push(Some((origin, destination)));
        shard.extent.expand_to_point(&origin);
        shard.extent.expand_to_point(&destination);
        shard.log.push(StoreUpdate::InsertTransition {
            origin,
            destination,
        });
        Some(local)
    }

    fn expire(&mut self, local: TransitionId) -> bool {
        let shard = self.0.get_mut().expect("fleet shard poisoned");
        let live = shard.mirror.get_mut(local.index()).and_then(Option::take);
        if live.is_some() {
            shard.log.push(StoreUpdate::ExpireTransition(local));
        }
        live.is_some()
    }

    fn endpoints(&self, local: TransitionId) -> Option<(Point, Point)> {
        *self.shard().mirror.get(local.index())?
    }

    /// The shard prunes its own TR-tree after its deferred records shipped;
    /// survivors come back as local ids, their points read off the mirror.
    fn prune(
        &self,
        scratch: &mut QueryScratch,
        filter: &FilterSet,
        k: usize,
        to_global: impl Fn(TransitionId) -> TransitionId,
    ) -> Result<usize, Missed> {
        let reply = self.shard().reach(|shard| {
            let (origins, destinations, pruned) =
                shard.remote.call(|c| answered(c.prune(filter, k)))?;
            let sides = [(origins, Origin), (destinations, Destination)].into_iter();
            let (mirror, to_global) = (&shard.mirror, &to_global);
            let candidates = sides.enumerate().flat_map(|(side, (locals, kind))| {
                locals.into_iter().map(move |local| {
                    let (origin, destination) = (*mirror.get(local.index())?)?;
                    Some(CandidateEndpoint {
                        transition: to_global(local),
                        kind,
                        point: [origin, destination][side],
                    })
                })
            });
            // An id outside the shard's log: the shard is out of step.
            let candidates: Option<Vec<_>> = candidates.collect();
            scratch.extend_candidates(candidates.ok_or_else(|| RemoteError::Server {
                message: "the shard named a transition its log does not hold".into(),
            })?);
            Ok(pruned as usize)
        });
        reply.ok_or(Missed)
    }

    fn extent(&self) -> Option<Rect> {
        let extent = self.shard().extent;
        (!extent.is_empty()).then_some(extent)
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
    service: Service<Shards<RemoteLink>>,
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
        config.service = config.service.with_cache_capacity(0);
        let placement = ShardedConfig {
            shards: config.shards,
            grid_bits: config.grid_bits,
            rtree: config.rtree,
            base: config.service,
        };
        let sleeper = sleeper.unwrap_or_else(|| Arc::new(crate::remote::ThreadSleeper));
        let link = |index: usize, store: TransitionStore| -> Result<RemoteLink, FleetError> {
            let initial_pairs: Vec<_> = store
                .transitions()
                .map(|t| (t.origin, t.destination))
                .collect();
            let extent = store.extent().unwrap_or_else(Rect::empty);
            let mut service = QueryService::new(RouteStore::default(), store, config.service);
            let dir = |root: &PathBuf| root.join(format!("shard-{index}"));
            let storage_dir = config.storage_root.as_ref().map(dir);
            if let Some(dir) = &storage_dir {
                let failed = |e: String| FleetError::Build(format!("shard {index} storage: {e}"));
                std::fs::create_dir_all(dir).map_err(|e| failed(e.to_string()))?;
                let attached = service.attach_storage(dir, config.storage);
                attached.map_err(|e| failed(e.to_string()))?;
            }
            let faults = config.shard_faults.iter().find(|(s, _)| *s == index);
            let server = start_shard(&config, index, service, faults.map(|(_, f)| f.clone()))?;
            let remote = RemoteShard::with_parts(
                server.local_addr(),
                config.remote.clone(),
                Arc::clone(&clock),
                Arc::clone(&sleeper),
            );
            Ok(RemoteLink(Mutex::new(FleetShard {
                mirror: initial_pairs.iter().copied().map(Some).collect(),
                extent,
                server: Some(server),
                remote,
                log: Vec::new(),
                acked: 0,
                up: true,
                missed: false,
                returned: false,
                initial_pairs,
                storage_dir,
            })))
        };
        let service = Service::bulk_build_with(placement, routes, transitions, link)?;
        Ok(FleetRouter {
            service,
            config,
            pending_deltas: Vec::new(),
            metrics: FleetMetrics::new(),
        })
    }

    fn shard(&self, index: usize) -> MutexGuard<'_, FleetShard> {
        self.service.backing().link(index).shard()
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.service.shard_count()
    }

    /// Point-in-time routing counters — executions, dispatches, shards the
    /// extent certificate skipped — counted exactly as a
    /// [`rknnt_service::ShardedService`] counts them.
    pub fn router_stats(&self) -> RouterStats {
        self.service.router_stats()
    }

    /// Dispatch counters for one shard.
    pub fn shard_stats(&self, index: usize) -> RemoteShardStats {
        self.shard(index).remote.stats()
    }

    /// The circuit-breaker state of one shard's dispatch path.
    pub fn shard_breaker_state(&mut self, index: usize) -> crate::remote::BreakerState {
        self.shard(index).remote.breaker_state()
    }

    /// `(acknowledged, total)` record counts in shard `index`'s router log
    /// — unequal while updates are deferring.
    pub fn shard_progress(&self, index: usize) -> (u64, u64) {
        let shard = self.shard(index);
        (shard.acked, shard.log.len() as u64)
    }

    /// Which shard owns a live global transition id (tests and experiments
    /// use this to compute the exact answer a degraded fleet must report).
    pub fn owner_of(&self, id: TransitionId) -> Option<usize> {
        self.service.transition_owner(id)
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
        let mut shard = self.shard(index);
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
            let mut shard = self.shard(index);
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
        let mut shard = self.service.backing().link(index).shard();
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

    /// The shards the calls since the last look could not reach. A shard
    /// still down from an earlier call is probed with a health call: the
    /// filter may skip it on every later query, and its return would go
    /// unseen. While one answered again after a failure, every subscription
    /// is re-executed and what moved is queued as resync deltas. A member
    /// whose shard the re-execution missed is kept, not reported as left;
    /// that shard returns later, and only the caller's own misses are the
    /// caller's. The passes are bounded, so a flapping shard cannot hold
    /// the caller: a return seen in the last pass stays flagged for the
    /// next settle.
    fn settle(&mut self) -> Vec<usize> {
        let missing = self.take_flags(|shard| &mut shard.missed);
        for index in (0..self.shard_count()).filter(|i| !missing.contains(i)) {
            let mut shard = self.shard(index);
            if !shard.up {
                shard.reach(|s| s.remote.call(|c| answered(c.health())).map(drop));
                shard.missed = false;
            }
        }
        for _ in 0..self.shard_count() {
            if self.take_flags(|shard| &mut shard.returned).is_empty() {
                break;
            }
            let unseen = |fleet: &Shards<RemoteLink>, id| {
                fleet.owner(id).is_some_and(|i| !fleet.link(i).shard().up)
            };
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
            .filter(|&index| std::mem::take(flag(&mut self.shard(index))))
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
            if let Some(server) = self.shard(index).server.take() {
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
