//! A distributed shard fleet with partial-failure semantics: every shard is
//! its own [`Server`], and the router dispatches over the wire through
//! health-tracked [`RemoteShard`] handles.
//!
//! # Data placement
//!
//! Transitions are partitioned to shards by origin cell on a Z-order
//! [`CellGrid`] (exactly the [`rknnt_service::ShardedService`] discipline,
//! same global-id assignment). Routes are *replicated* to every shard:
//! RkNNT verification counts routes globally, so a shard holding the full
//! route set plus its transition slice answers exactly the global result
//! restricted to its own transitions. The fleet answer is the union of
//! shard answers, translated from shard-local to global ids through each
//! shard's [`IdSpace`].
//!
//! # Partial failure
//!
//! A query dispatch that exhausts a shard's retry/breaker budget does not
//! fail the request and does not guess: the answer degrades to a typed
//! [`FleetResult`] naming the unreachable shards in
//! [`FleetResult::missing_shards`]. Updates routed to a down shard are
//! *deferred*: they stay in that shard's router-side update log (the
//! router WAL) and ship automatically once the shard answers again.
//!
//! # Recovery and resync
//!
//! [`FleetRouter::restart_shard`] brings a dead shard back — reopened from
//! its storage directory when the fleet is durable, rebuilt from the build
//! inputs plus a full log replay otherwise — then resyncs: a
//! [`crate::Client::health`] probe reports the shard's applied-update watermark,
//! the router replays its per-shard log from exactly that index, standing
//! queries are re-established, and the difference between the recovered
//! shard's view and the router's last recorded view is emitted as resync
//! deltas. After resync the shard is byte-identical to one that never
//! failed.

use crate::client::{ClientError, DeltaEvent, HealthStatus, Reply};
use crate::remote::{RemoteError, RemoteShard, RemoteShardConfig, RemoteShardStats, Sleeper};
use crate::server::{Backend, Server, ServerConfig};
use rknnt_core::RknntQuery;
use rknnt_fault::Failpoints;
use rknnt_geo::{CellGrid, Point};
use rknnt_index::{partition_by_origin_cell, IdSpace, RouteStore, TransitionId, TransitionStore};
use rknnt_obs::{Clock, Counter, MetricsRegistry, MonotonicClock};
use rknnt_rtree::RTreeConfig;
use rknnt_service::{QueryService, ServiceConfig, StorageConfig, StoreUpdate};
use std::collections::{BTreeSet, HashMap};
use std::io;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

/// Fleet-wide build and dispatch knobs.
#[derive(Clone)]
pub struct FleetConfig {
    /// Number of shard servers (at least 1 is always used).
    pub shards: usize,
    /// Z-order grid resolution for transition placement.
    pub grid_bits: u32,
    /// R-tree fan-out for every store in the fleet.
    pub rtree: RTreeConfig,
    /// Per-shard service configuration.
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

/// A fleet answer: the union of reachable shard answers, with the
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
    /// Update records appended to shard logs (broadcast records count once).
    pub routed: u64,
    /// Updates rejected at the router (non-finite points, unknown ids).
    pub rejected: u64,
    /// Shards that could not be reached; their records are deferred in the
    /// router log and ship on recovery.
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

struct FleetSub {
    query: RknntQuery,
    /// Per-shard wire handles (None while a shard is down / not yet
    /// re-established).
    handles: Vec<Option<u64>>,
    /// Per-shard recorded result views, in global raw ids. A down shard's
    /// view is the last one seen; recovery diffs against it.
    views: Vec<BTreeSet<u32>>,
}

struct FleetShard {
    server: Option<Server>,
    remote: RemoteShard,
    /// Transition local→global mapping, grown as inserts route here.
    space: IdSpace,
    /// The router WAL for this shard: every update record routed here, in
    /// shard-local form, in wire order.
    log: Vec<StoreUpdate>,
    /// Records acknowledged by the shard (its watermark while in sync).
    acked: u64,
    up: bool,
    /// The shard's build-time transition slice, for in-memory rebuilds.
    initial_pairs: Vec<(Point, Point)>,
    storage_dir: Option<PathBuf>,
    /// `RemoteShardStats::dials` at the time the shard's subscriptions
    /// were (re-)established; a moved count means the handles are stale.
    subscribed_dials: u64,
}

struct FleetMetrics {
    registry: Mutex<MetricsRegistry>,
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
        let dispatches = registry.counter("fleet.dispatches");
        let partial_results = registry.counter("fleet.partial_results");
        let deferred_records = registry.counter("fleet.deferred_records");
        let replayed_records = registry.counter("fleet.replayed_records");
        let restarts = registry.counter("fleet.restarts");
        let resync_deltas = registry.counter("fleet.resync_deltas");
        FleetMetrics {
            registry: Mutex::new(registry),
            dispatches,
            partial_results,
            deferred_records,
            replayed_records,
            restarts,
            resync_deltas,
        }
    }
}

/// The fleet router: owns every shard server, dispatches queries and
/// updates over the wire, degrades on partial failure, and resyncs
/// recovered shards from its per-shard update logs.
pub struct FleetRouter {
    config: FleetConfig,
    grid: CellGrid,
    shards: Vec<FleetShard>,
    /// The build-time route set (replicated on every shard), kept for
    /// in-memory rebuilds. Routes inserted later live in the shard logs.
    routes: Vec<Vec<Point>>,
    /// Owner shard of every global transition id.
    transition_owner: Vec<u32>,
    subs: HashMap<u64, FleetSub>,
    next_sub: u64,
    pending_deltas: Vec<FleetDelta>,
    metrics: FleetMetrics,
}

impl FleetRouter {
    /// Builds the fleet: partitions transitions by origin cell, replicates
    /// the full route set to every shard, starts one [`Server`] per shard
    /// (with storage attached when [`FleetConfig::storage_root`] is set)
    /// and dials each through a [`RemoteShard`].
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
        config: FleetConfig,
        routes: Vec<Vec<Point>>,
        transitions: Vec<(Point, Point)>,
        clock: Arc<dyn Clock>,
        sleeper: Option<Arc<dyn Sleeper>>,
    ) -> Result<FleetRouter, FleetError> {
        let shard_count = config.shards.max(1);
        let extent = routes.iter().flatten();
        let extent = extent.chain(transitions.iter().flat_map(|(o, d)| [o, d]));
        // Invalid pairs consume no global id, exactly like the unsharded
        // bulk build; every slot handed to the partition is live.
        let slots = transitions
            .iter()
            .filter(|(origin, destination)| origin.is_finite() && destination.is_finite())
            .map(|&pair| Some(pair));
        let (grid, tp) =
            partition_by_origin_cell(config.rtree, extent, config.grid_bits, slots, shard_count);
        let mut shards = Vec::with_capacity(shard_count);
        for (index, (store, space)) in tp.stores.into_iter().zip(tp.spaces).enumerate() {
            // The shard's pair slice in global order — in-memory restarts
            // rebuild from it.
            let initial_pairs = store
                .transitions()
                .map(|t| (t.origin, t.destination))
                .collect();
            let (route_store, _) = RouteStore::bulk_build(config.rtree, routes.clone());
            let mut service = QueryService::new(route_store, store, config.service);
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
            let mut server_config = config.server.clone();
            if let Some((_, fp)) = config.shard_faults.iter().find(|(s, _)| *s == index) {
                server_config.failpoints = Some(Arc::clone(fp));
            }
            let server = Server::start(Backend::Single(service), server_config)
                .map_err(|e| FleetError::Build(format!("shard {index} server: {e}")))?;
            let remote = RemoteShard::with_parts(
                server.local_addr(),
                config.remote.clone(),
                Arc::clone(&clock),
                sleeper
                    .clone()
                    .unwrap_or_else(|| Arc::new(crate::remote::ThreadSleeper)),
            );
            shards.push(FleetShard {
                server: Some(server),
                remote,
                space,
                log: Vec::new(),
                acked: 0,
                up: true,
                initial_pairs,
                storage_dir,
                subscribed_dials: 0,
            });
        }
        Ok(FleetRouter {
            config,
            grid,
            shards,
            routes,
            transition_owner: tp
                .directory
                .iter()
                .map(|at| at.expect("every partitioned slot was live").shard)
                .collect(),
            subs: HashMap::new(),
            next_sub: 1,
            pending_deltas: Vec::new(),
            metrics: FleetMetrics::new(),
        })
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Dispatch counters for one shard.
    pub fn shard_stats(&self, index: usize) -> RemoteShardStats {
        self.shards[index].remote.stats()
    }

    /// The circuit-breaker state of one shard's dispatch path.
    pub fn shard_breaker_state(&mut self, index: usize) -> crate::remote::BreakerState {
        self.shards[index].remote.breaker_state()
    }

    /// `(acknowledged, total)` record counts in shard `index`'s router log
    /// — unequal while updates are deferring.
    pub fn shard_progress(&self, index: usize) -> (u64, u64) {
        let shard = &self.shards[index];
        (shard.acked, shard.log.len() as u64)
    }

    /// Which shard owns a global transition id (tests and experiments use
    /// this to compute the exact answer a degraded fleet must report).
    pub fn owner_of(&self, id: TransitionId) -> Option<usize> {
        self.transition_owner
            .get(id.raw() as usize)
            .map(|&o| o as usize)
    }

    /// Text exposition of the `fleet.*` metrics.
    pub fn metrics_text(&self) -> String {
        self.metrics
            .registry
            .lock()
            .expect("fleet metrics poisoned")
            .render_text()
    }

    /// Chaos hook: kills shard `index`'s server exactly as the
    /// [`rknnt_fault::FaultAction::Kill`] failpoint would. The router does
    /// not learn of the death here — the next dispatch discovers it, as it
    /// would in production.
    pub fn kill_shard(&mut self, index: usize, reason: &str) {
        if let Some(server) = &self.shards[index].server {
            server.kill(reason);
        }
        self.shards[index].remote.disconnect();
    }

    /// Executes one query across the fleet. Reachable shards contribute
    /// their slice; unreachable shards are named in the degraded result.
    pub fn execute(&mut self, query: &RknntQuery) -> FleetResult {
        self.metrics.dispatches.inc();
        let mut missing = Vec::new();
        let mut acc: BTreeSet<u32> = BTreeSet::new();
        for index in 0..self.shards.len() {
            let shard = &mut self.shards[index];
            let outcome = shard.remote.call(|c| match c.query(query)? {
                Reply::Answered(transitions) => Ok(transitions),
                Reply::Overloaded(_) => Err(shed_error()),
            });
            match outcome {
                Ok(locals) => {
                    shard.up = true;
                    for local in locals {
                        if let Some(global) = shard.space.to_global(local.raw()) {
                            acc.insert(global);
                        }
                    }
                }
                Err(_) => {
                    shard.up = false;
                    missing.push(index);
                }
            }
        }
        if !missing.is_empty() {
            self.metrics.partial_results.inc();
        }
        FleetResult {
            transitions: acc.into_iter().map(TransitionId::from).collect(),
            missing_shards: missing,
        }
    }

    /// Routes an update batch: transitions to their owner shard (global id
    /// assigned here, exactly as the unsharded service would), route
    /// changes broadcast to every replica. Each shard receives its pending
    /// log suffix — including records deferred while it was down — in one
    /// wire call; shards that stay unreachable keep deferring.
    pub fn apply_updates(&mut self, updates: Vec<StoreUpdate>) -> FleetApply {
        let shard_count = self.shards.len();
        let mut routed = 0u64;
        let mut rejected = 0u64;
        for update in updates {
            match update {
                StoreUpdate::InsertTransition {
                    origin,
                    destination,
                } => {
                    if !origin.is_finite() || !destination.is_finite() {
                        rejected += 1;
                        continue;
                    }
                    let owner = self
                        .grid
                        .shard_of_point(&origin, shard_count)
                        .min(shard_count - 1);
                    let global = self.transition_owner.len() as u32;
                    self.transition_owner.push(owner as u32);
                    let shard = &mut self.shards[owner];
                    shard.space.push(global);
                    shard.log.push(StoreUpdate::InsertTransition {
                        origin,
                        destination,
                    });
                    routed += 1;
                }
                StoreUpdate::ExpireTransition(global) => {
                    let Some(&owner) = self.transition_owner.get(global.raw() as usize) else {
                        rejected += 1;
                        continue;
                    };
                    let shard = &mut self.shards[owner as usize];
                    let Some(local) = shard.space.to_local(global.raw()) else {
                        rejected += 1;
                        continue;
                    };
                    shard
                        .log
                        .push(StoreUpdate::ExpireTransition(TransitionId::from(local)));
                    routed += 1;
                }
                update @ (StoreUpdate::InsertRoute(_) | StoreUpdate::RemoveRoute(_)) => {
                    // Routes are replicated: every shard holds the full
                    // set under identical ids, so the record broadcasts
                    // verbatim.
                    for shard in &mut self.shards {
                        shard.log.push(update.clone());
                    }
                    routed += 1;
                }
            }
        }
        let mut deferred = Vec::new();
        for index in 0..shard_count {
            let shard = &mut self.shards[index];
            let pending = shard.log.len() as u64 - shard.acked;
            if pending == 0 {
                continue;
            }
            if Self::ship_log_suffix(shard).is_ok() {
                shard.up = true;
            } else {
                shard.up = false;
                deferred.push(index);
                self.metrics.deferred_records.add(pending);
            }
        }
        self.collect_deltas();
        FleetApply {
            routed,
            rejected,
            deferred_shards: deferred,
        }
    }

    /// Sends `shard`'s unacknowledged log suffix in one wire call.
    fn ship_log_suffix(shard: &mut FleetShard) -> Result<(), RemoteError> {
        let batch: Vec<StoreUpdate> = shard.log[shard.acked as usize..].to_vec();
        shard
            .remote
            .call(|c| match c.apply_updates(batch.clone())? {
                Reply::Answered(counts) => Ok(counts),
                Reply::Overloaded(_) => Err(shed_error()),
            })?;
        shard.acked = shard.log.len() as u64;
        Ok(())
    }

    /// Registers a standing query on every reachable shard. The result is
    /// degraded like a query: down shards are named and contribute nothing
    /// until they recover (resync then emits the catch-up delta).
    pub fn subscribe(&mut self, query: &RknntQuery) -> (u64, FleetResult) {
        let id = self.next_sub;
        self.next_sub += 1;
        let shard_count = self.shards.len();
        let mut sub = FleetSub {
            query: query.clone(),
            handles: vec![None; shard_count],
            views: vec![BTreeSet::new(); shard_count],
        };
        let mut missing = Vec::new();
        for index in 0..shard_count {
            match Self::subscribe_on_shard(&mut self.shards[index], query) {
                Ok((handle, view)) => {
                    sub.handles[index] = Some(handle);
                    sub.views[index] = view;
                }
                Err(_) => {
                    self.shards[index].up = false;
                    missing.push(index);
                }
            }
        }
        let transitions = union_views(&sub.views);
        self.subs.insert(id, sub);
        (
            id,
            FleetResult {
                transitions,
                missing_shards: missing,
            },
        )
    }

    /// The current fleet-level result of a subscription (union of recorded
    /// per-shard views; a down shard contributes its last synced view).
    pub fn subscription_result(&self, subscription: u64) -> Option<Vec<TransitionId>> {
        self.subs.get(&subscription).map(|s| union_views(&s.views))
    }

    /// Drains fleet-level deltas accumulated by update routing and resync.
    pub fn take_deltas(&mut self) -> Vec<FleetDelta> {
        std::mem::take(&mut self.pending_deltas)
    }

    /// Restarts a dead shard and resyncs it: reopen from storage (durable
    /// fleets) or rebuild from the build inputs (in-memory fleets), then
    /// health-probe for the applied-update watermark, replay the router log
    /// from that index, re-establish standing queries, and emit resync
    /// deltas for whatever changed while the shard was away.
    pub fn restart_shard(&mut self, index: usize) -> Result<(), FleetError> {
        self.metrics.restarts.inc();
        let build_err = |e: String| FleetError::Build(format!("shard {index} restart: {e}"));
        let service = {
            let shard = &mut self.shards[index];
            if let Some(server) = shard.server.take() {
                // The old incarnation's backend dies with it.
                drop(server.stop());
            }
            if let Some(dir) = &shard.storage_dir {
                let (service, _) =
                    QueryService::open(dir, self.config.service, self.config.storage)
                        .map_err(|e| build_err(e.to_string()))?;
                service
            } else {
                let (route_store, _) =
                    RouteStore::bulk_build(self.config.rtree, self.routes.clone());
                let transition_store =
                    TransitionStore::bulk_build(self.config.rtree, shard.initial_pairs.clone());
                QueryService::new(route_store, transition_store, self.config.service)
            }
        };
        // Recovered shards run clean: injected faults died with the old
        // process.
        let mut server_config = self.config.server.clone();
        server_config.failpoints = None;
        let server = Server::start(Backend::Single(service), server_config)
            .map_err(|e| build_err(e.to_string()))?;
        let shard = &mut self.shards[index];
        shard.remote.set_addr(server.local_addr());
        shard.server = Some(server);
        shard.up = true;
        self.resync_shard(index)
    }

    /// Brings shard `index` back in sync after it answered again: replay
    /// the log suffix past its watermark, re-establish subscriptions, emit
    /// resync deltas.
    fn resync_shard(&mut self, index: usize) -> Result<(), FleetError> {
        let resync_err = |message: String| FleetError::Resync {
            shard: index,
            message,
        };
        let shard = &mut self.shards[index];
        let status: HealthStatus = shard
            .remote
            .call(|c| match c.health()? {
                Reply::Answered(status) => Ok(status),
                Reply::Overloaded(_) => Err(shed_error()),
            })
            .map_err(|e| resync_err(format!("health probe: {e}")))?;
        // The shard has durably applied exactly `watermark` of this log's
        // records (the router sends records in log order, nowhere else).
        let watermark = status.watermark.min(shard.log.len() as u64);
        shard.acked = watermark;
        let replay = shard.log.len() as u64 - watermark;
        if replay > 0 {
            Self::ship_log_suffix(shard).map_err(|e| resync_err(format!("log replay: {e}")))?;
            self.metrics.replayed_records.add(replay);
        }
        self.sync_subscriptions(index)
            .map_err(|e| resync_err(format!("re-subscribe: {e}")))?;
        Ok(())
    }

    /// Re-establishes every standing query on shard `index` when its
    /// connection epoch moved (server-side subscriptions are
    /// per-connection), emitting the view difference as resync deltas.
    fn sync_subscriptions(&mut self, index: usize) -> Result<(), RemoteError> {
        let current_dials = self.shards[index].remote.stats().dials;
        if self.shards[index].subscribed_dials == current_dials {
            return Ok(());
        }
        let sub_ids: Vec<u64> = self.subs.keys().copied().collect();
        for id in sub_ids {
            let query = self.subs[&id].query.clone();
            let (handle, view) = Self::subscribe_on_shard(&mut self.shards[index], &query)?;
            let sub = self.subs.get_mut(&id).expect("sub id just listed");
            let old = std::mem::replace(&mut sub.views[index], view.clone());
            sub.handles[index] = Some(handle);
            let entered: Vec<TransitionId> = view
                .difference(&old)
                .map(|&g| TransitionId::from(g))
                .collect();
            let left: Vec<TransitionId> = old
                .difference(&view)
                .map(|&g| TransitionId::from(g))
                .collect();
            if !entered.is_empty() || !left.is_empty() {
                self.metrics.resync_deltas.inc();
                self.pending_deltas.push(FleetDelta {
                    subscription: id,
                    entered,
                    left,
                });
            }
        }
        self.shards[index].subscribed_dials = self.shards[index].remote.stats().dials;
        Ok(())
    }

    fn subscribe_on_shard(
        shard: &mut FleetShard,
        query: &RknntQuery,
    ) -> Result<(u64, BTreeSet<u32>), RemoteError> {
        let registered = shard.remote.call(|c| match c.subscribe(query)? {
            Reply::Answered(s) => Ok(s),
            Reply::Overloaded(_) => Err(shed_error()),
        })?;
        shard.subscribed_dials = shard.remote.stats().dials;
        let mut view = BTreeSet::new();
        for local in registered.transitions {
            if let Some(global) = shard.space.to_global(local.raw()) {
                view.insert(global);
            }
        }
        Ok((registered.subscription, view))
    }

    /// Harvests server-pushed deltas from every reachable, subscribed
    /// shard. A ping fences the harvest: per-connection FIFO means every
    /// delta from already-acknowledged updates is buffered once the pong
    /// arrives.
    fn collect_deltas(&mut self) {
        for index in 0..self.shards.len() {
            if !self.shards[index].up {
                continue;
            }
            let has_handles = self.subs.values().any(|s| s.handles[index].is_some());
            if !has_handles {
                continue;
            }
            // A re-dial mid-harvest would lose the old connection's deltas
            // along with its subscriptions; resync covers both, so the
            // harvest only trusts a same-connection ping.
            let dials_before = self.shards[index].remote.stats().dials;
            let outcome = self.shards[index].remote.call(|c| match c.ping()? {
                Reply::Answered(()) => Ok(c.take_deltas()),
                Reply::Overloaded(_) => Err(shed_error()),
            });
            let events = match outcome {
                Ok(events) if self.shards[index].remote.stats().dials == dials_before => events,
                Ok(_) => continue,
                Err(_) => {
                    self.shards[index].up = false;
                    continue;
                }
            };
            self.route_shard_deltas(index, events);
        }
    }

    /// Translates one shard's wire deltas into fleet deltas (global ids)
    /// and folds them into the recorded views.
    fn route_shard_deltas(&mut self, index: usize, events: Vec<DeltaEvent>) {
        for event in events {
            let space = &self.shards[index].space;
            let owner = self
                .subs
                .iter_mut()
                .find(|(_, s)| s.handles[index] == Some(event.subscription));
            let Some((&id, sub)) = owner else {
                // A delta for a superseded handle (pre-re-subscribe): the
                // resync diff already accounts for it.
                continue;
            };
            let mut entered = Vec::new();
            for local in event.entered {
                if let Some(global) = space.to_global(local.raw()) {
                    sub.views[index].insert(global);
                    entered.push(TransitionId::from(global));
                }
            }
            let mut left = Vec::new();
            for local in event.left {
                if let Some(global) = space.to_global(local.raw()) {
                    sub.views[index].remove(&global);
                    left.push(TransitionId::from(global));
                }
            }
            entered.sort_unstable();
            left.sort_unstable();
            if !entered.is_empty() || !left.is_empty() {
                self.pending_deltas.push(FleetDelta {
                    subscription: id,
                    entered,
                    left,
                });
            }
        }
    }

    /// Stops every shard server in an orderly way.
    pub fn shutdown(mut self) {
        for shard in &mut self.shards {
            if let Some(server) = shard.server.take() {
                drop(server.stop());
            }
        }
    }
}

/// A shed dispatch counts as a failed attempt: fleets provision admission
/// budgets so router traffic is never shed, and anything else is treated
/// as the shard being unable to serve.
fn shed_error() -> ClientError {
    ClientError::Io(io::Error::other("shard shed the request"))
}

fn union_views(views: &[BTreeSet<u32>]) -> Vec<TransitionId> {
    let mut all: BTreeSet<u32> = BTreeSet::new();
    for view in views {
        all.extend(view.iter().copied());
    }
    all.into_iter().map(TransitionId::from).collect()
}
