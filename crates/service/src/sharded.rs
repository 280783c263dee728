//! Spatial sharding: SFC-partitioned shards behind a footprint-pruned
//! router.
//!
//! [`ShardedService`] is the shared [`Service`] frontend — the same batch
//! pipeline, cache, update skeleton and subscription registry a
//! [`QueryService`] runs — over a [`ShardSet`] backing. The set splits one
//! city across `N` shards by Z-order cell of each item's representative
//! point (a route's first vertex, a transition's origin — see
//! [`rknnt_geo::CellGrid`]). Every shard owns a plain [`QueryService`] over
//! its slice of the data; the set also owns a **planner replica** of the
//! full [`RouteStore`] (routes are small and queried globally; transitions
//! are the bulk and are sharded) and the routing directory mapping every
//! global id to `(shard, local id, live)`.
//!
//! The routing insight is that the filter step already produces a
//! *shard-pruning certificate*: the same `filters_rect` test the TR-tree
//! descent uses on interior nodes applies verbatim to a shard's root MBR. A
//! query builds its filter once against the planner; any shard whose
//! TR-tree root the filter covers provably contains no candidate and is
//! never consulted. Because an endpoint survives pruning iff `filters_point`
//! accepts it — node-level tests are certificates for their subtrees, so
//! tree *shape* never changes survival — the union of per-shard candidate
//! sets equals the unsharded candidate set, and after identical per-endpoint
//! verification against the planner the merged, sorted result is
//! **byte-identical** to the unsharded service's. The same argument makes
//! subscription delta streams identical: classification certificates are
//! sound on both sides, and a spuriously dirty subscription re-executes to
//! an unchanged result and emits nothing.
//!
//! Durability is layered: each shard keeps its own WAL + snapshot directory
//! (`shard-NNN/`), and the router keeps its own (`router/`) holding the
//! planner snapshot, the routing directory (in the checkpoint's meta block)
//! and a WAL of every update in *global* form. Updates are logged by the
//! router first, then forwarded to the owning shard (which logs them again
//! locally), so a crash between the two appends is reconciled on
//! [`ShardedService::open`]: a replayed update whose owning shard already
//! shows it applied only re-records the directory mapping.

use crate::frontend::{new_cache, Backing, Service};
use crate::metrics::{RouterMetrics, ServiceMetrics};
use crate::region::EntryRegion;
use crate::service::{QueryService, ServiceConfig, StoreUpdate};
use rknnt_core::{
    build_filter_set, prune_into_scratch, verify_candidates, EngineKind, FilterOutcome,
    QueryScratch, RknntQuery, RknntResult,
};
use rknnt_data::codec::{CodecError, Decoder, Encoder};
use rknnt_geo::{CellGrid, Point, Rect};
use rknnt_index::{
    partition_routes, partition_transitions, IdSpace, RouteId, RouteStore, TransitionId,
    TransitionStore,
};
use rknnt_obs::{EventKind, TraceCursor};
use rknnt_rtree::RTreeConfig;
use rknnt_storage::{
    detect_shard_layout, dir_has_storage_data, parse_shard_subdir, shard_subdir, Storage,
    StorageConfig, StorageError, StorageStats, ROUTER_SUBDIR,
};
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::time::Instant;

/// Version byte of the router checkpoint's meta block.
const META_VERSION: u8 = 1;
/// Meta slot tag: no item ever held this global id (skipped at build time).
const SLOT_VACANT: u8 = 0;
/// Meta slot tag: a live item on `(shard, local)`.
const SLOT_LIVE: u8 = 1;
/// Meta slot tag: an item that lived on `(shard, local)` and was removed.
const SLOT_DEAD: u8 = 2;

/// Configuration of a [`ShardedService`].
#[derive(Debug, Clone, Copy)]
pub struct ShardedConfig {
    /// Number of shards the city is split into (at least 1 is always used).
    pub shards: usize,
    /// Z-order grid resolution: the dataset MBR is divided into
    /// `2^bits × 2^bits` cells (clamped to
    /// [`rknnt_geo::MAX_GRID_BITS`]).
    pub grid_bits: u32,
    /// R-tree fan-out for the per-shard stores and the planner replica.
    pub rtree: RTreeConfig,
    /// Configuration of the router's batch pipeline (workers, policy,
    /// cache) and of each shard's inner service.
    pub base: ServiceConfig,
}

impl Default for ShardedConfig {
    fn default() -> Self {
        ShardedConfig {
            shards: 4,
            grid_bits: 6,
            rtree: RTreeConfig::default(),
            base: ServiceConfig::default(),
        }
    }
}

impl ShardedConfig {
    /// Fixes the shard count.
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Fixes the Z-order grid resolution.
    pub fn with_grid_bits(mut self, bits: u32) -> Self {
        self.grid_bits = bits;
        self
    }

    /// Fixes the base service configuration.
    pub fn with_base(mut self, base: ServiceConfig) -> Self {
        self.base = base;
        self
    }
}

/// One entry of the routing directory: where a global id lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Slot {
    /// The global id was never assigned (the item was rejected at build
    /// time, consuming no id in the unsharded numbering — kept so directory
    /// indexes line up with store slot indexes).
    Vacant,
    /// The global id maps to `local` on `shard`; `live` tracks removal.
    Held { shard: u32, local: u32, live: bool },
}

/// One shard: its inner service plus the local→global id spaces.
struct Shard {
    service: QueryService,
    route_l2g: IdSpace,
    transition_l2g: IdSpace,
}

/// Decoded router checkpoint meta.
struct RouterMeta {
    grid: CellGrid,
    shards: usize,
    route_dir: Vec<Slot>,
    transition_dir: Vec<Slot>,
}

/// The shard-set backing: the planner replica, the shards, the routing
/// directories and the router's own metric cells.
pub struct ShardSet {
    grid: CellGrid,
    config: ShardedConfig,
    /// Full-city route store: filter construction and endpoint verification
    /// are global decisions, so the router keeps the complete (small) route
    /// set while transitions (the bulk) stay sharded. Global route ids are
    /// exactly this store's slot indexes.
    planner: RouteStore,
    shards: Vec<Shard>,
    route_dir: Vec<Slot>,
    transition_dir: Vec<Slot>,
    storage_root: Option<PathBuf>,
    storage_config: Option<StorageConfig>,
    router: RouterMetrics,
}

/// A spatially sharded [`QueryService`] fleet behind a footprint-pruned
/// router. Construction is [`ShardedService::bulk_build`] (in memory) or
/// [`ShardedService::open`] (from a per-shard storage layout); the query,
/// update and subscription API is the shared [`Service`] frontend's, and
/// every answer — batch results, subscription results and their delta
/// streams — is byte-identical to an unsharded service over the same data
/// (see the module docs for the argument, `tests/service_sharded.rs` for
/// the enforcement).
pub type ShardedService = Service<ShardSet>;

/// Translates a global sorted result into a shard's local id space, keeping
/// only the transitions the shard owns. `to_local` is monotone, so the
/// output stays sorted.
fn translate_result(space: &IdSpace, result: &[TransitionId]) -> Vec<TransitionId> {
    result
        .iter()
        .filter_map(|t| space.to_local(t.raw()).map(TransitionId))
        .collect()
}

impl Backing for ShardSet {
    /// The scratch every routed query of the worker reuses.
    type Worker<'a> = QueryScratch;

    fn routes(&self) -> &RouteStore {
        &self.planner
    }

    /// Resolves a global transition id through the routing directory.
    fn endpoints(&self, id: TransitionId) -> Option<(Point, Point)> {
        match self.transition_dir.get(id.index())? {
            Slot::Held {
                shard,
                local,
                live: true,
            } => self
                .shards
                .get(*shard as usize)?
                .service
                .transitions()
                .get(TransitionId(*local))
                .map(|t| (t.origin, t.destination)),
            _ => None,
        }
    }

    fn worker(&self) -> QueryScratch {
        QueryScratch::new()
    }

    /// Every kind routes through the filter pipeline: all engines agree on
    /// result transitions, so byte-identity is preserved, the filter doubles
    /// as the shard-pruning certificate, and every cached entry gets a real
    /// footprint.
    fn shares_filter(_kind: EngineKind) -> bool {
        true
    }

    /// Executes one routed query: per-shard prune behind the root-MBR
    /// skip certificate, then global verification against the planner.
    ///
    /// The result is byte-identical to the unsharded filter–refine
    /// execution (and therefore to every engine): an endpoint survives
    /// pruning iff `filters_point` accepts it — node-level `filters_rect`
    /// tests, including the shard-root test used here, are certificates for
    /// their whole subtree — so the union of per-shard candidates equals
    /// the unsharded candidate set; each transition is owned by exactly one
    /// shard, so the union has no duplicates; and verification per
    /// candidate uses the same planner-wide closer-route count.
    ///
    /// Under tracing, every shard the query considered gets one `shard`
    /// span carrying the routing decision: `pruned=1 certificate=1` when
    /// the root-MBR certificate skipped it without dispatching, or
    /// `pruned=0` with the local candidate count when it was consulted.
    fn execute(
        &self,
        scratch: &mut QueryScratch,
        kind: EngineKind,
        query: &RknntQuery,
        filter: Option<&FilterOutcome>,
        metrics: &ServiceMetrics,
        trace: Option<&TraceCursor>,
    ) -> RknntResult {
        let outcome = filter.expect("the router shares a filter for every engine kind");
        let use_voronoi = matches!(kind, EngineKind::Voronoi);

        let prune_started = Instant::now();
        scratch.clear_candidates();
        let mut pruned_nodes = 0usize;
        let mut consulted = 0u64;
        for (index, shard) in self.shards.iter().enumerate() {
            // An empty shard has nothing to consult or prune.
            let Some(root) = shard.service.transitions().rtree().root() else {
                continue;
            };
            if outcome
                .filter_set
                .filters_rect(&root.mbr(), query.k, use_voronoi)
            {
                // The certificate covers the shard's whole TR-tree: no
                // candidate can live there, skip without dispatching.
                self.router.shards_pruned.inc();
                pruned_nodes += 1;
                if let Some(t) = trace {
                    // Zero-duration marker: the decision itself is the
                    // interesting part, not the (sub-microsecond) test.
                    t.record(
                        "shard",
                        0,
                        &[("shard", index as u64), ("pruned", 1), ("certificate", 1)],
                    );
                }
                continue;
            }
            consulted += 1;
            self.router.dispatches.inc();
            self.router.shard_dispatches[index].inc();
            let shard_span = trace.map(|t| t.begin("shard"));
            let before = scratch.candidates().len();
            pruned_nodes += prune_into_scratch(
                shard.service.transitions(),
                &outcome.filter_set,
                query.k,
                use_voronoi,
                scratch,
                |local| {
                    let global = shard
                        .transition_l2g
                        .to_global(local.raw())
                        .expect("pruned transition must be in the shard's id space");
                    TransitionId(global)
                },
            );
            let found = (scratch.candidates().len() - before) as u64;
            if let (Some(t), Some(span)) = (trace, shard_span) {
                t.end_with(
                    span,
                    &[
                        ("shard", index as u64),
                        ("pruned", 0),
                        ("candidates", found),
                    ],
                );
            }
            metrics.record_event(EventKind::ShardDispatch {
                shard: index as u32,
                candidates: u32::try_from(found).unwrap_or(u32::MAX),
            });
        }
        self.router.executions.inc();
        self.router.fanout.record(consulted);
        let filtering = prune_started.elapsed();

        let mut result = verify_candidates(&self.planner, query, scratch);
        result.timings.filtering = filtering;
        result.stats.record_filter(outcome, pruned_nodes);
        result
    }

    // Updates: each is routed to its owning shard (transition and route
    // inserts by the representative point's grid cell; removals through the
    // routing directory), forwarded through the shard's own update path
    // (which double-logs it in the shard-local WAL) and recorded in the
    // directory; the planner replica is kept in lock-step.

    fn insert_transition(&mut self, origin: Point, destination: Point) -> Option<TransitionId> {
        let owner = self.grid.shard_of_point(&origin, self.shards.len());
        let global = self.transition_dir.len() as u32;
        let shard = &mut self.shards[owner];
        let forwarded = shard
            .service
            .apply_updates(vec![StoreUpdate::InsertTransition {
                origin,
                destination,
            }]);
        // A store-boundary rejection (non-finite endpoint) consumes no id,
        // mirroring the unsharded service.
        let local = forwarded.inserted_transitions.first().copied()?;
        debug_assert_eq!(local.index(), shard.transition_l2g.len());
        shard.transition_l2g.push(global);
        self.transition_dir.push(Slot::Held {
            shard: owner as u32,
            local: local.raw(),
            live: true,
        });
        Some(TransitionId(global))
    }

    fn expire_transition(&mut self, id: TransitionId) -> bool {
        let Some(Slot::Held {
            shard,
            local,
            live: true,
        }) = self.transition_dir.get(id.index()).copied()
        else {
            return false;
        };
        let forwarded = self.shards[shard as usize]
            .service
            .apply_updates(vec![StoreUpdate::ExpireTransition(TransitionId(local))]);
        debug_assert_eq!(forwarded.applied, 1, "directory said the id was live");
        self.transition_dir[id.index()] = Slot::Held {
            shard,
            local,
            live: false,
        };
        true
    }

    fn insert_route(&mut self, points: Vec<Point>) -> Option<RouteId> {
        let global = self.planner.insert_route(points.clone())?;
        debug_assert_eq!(global.index(), self.route_dir.len());
        let owner = self.grid.shard_of_point(&points[0], self.shards.len());
        let shard = &mut self.shards[owner];
        let forwarded = shard
            .service
            .apply_updates(vec![StoreUpdate::InsertRoute(points)]);
        let local = forwarded
            .inserted_routes
            .first()
            .copied()
            .expect("planner-accepted route cannot be rejected by a shard");
        debug_assert_eq!(local.index(), shard.route_l2g.len());
        shard.route_l2g.push(global.raw());
        self.route_dir.push(Slot::Held {
            shard: owner as u32,
            local: local.raw(),
            live: true,
        });
        Some(global)
    }

    fn remove_route(&mut self, id: RouteId) -> Option<Vec<Point>> {
        let removed_points: Vec<Point> = self.planner.route_points(id).to_vec();
        if !self.planner.remove_route(id) {
            return None;
        }
        let Some(Slot::Held {
            shard,
            local,
            live: true,
        }) = self.route_dir.get(id.index()).copied()
        else {
            panic!("planner accepted removing a route the directory does not hold");
        };
        let forwarded = self.shards[shard as usize]
            .service
            .apply_updates(vec![StoreUpdate::RemoveRoute(RouteId(local))]);
        debug_assert_eq!(forwarded.applied, 1, "directory said the route was live");
        self.route_dir[id.index()] = Slot::Held {
            shard,
            local,
            live: false,
        };
        Some(removed_points)
    }

    /// ANDs the per-shard certificates, each over the shard-local slice of
    /// the result against the shard's own TR-tree, all drawing on the one
    /// shared budget.
    fn survives_route_remove(
        &self,
        region: &EntryRegion,
        result: &[TransitionId],
        removed: RouteId,
        removed_points: &[Point],
        budget: &mut usize,
    ) -> bool {
        self.shards.iter().all(|shard| {
            let local_result = translate_result(&shard.transition_l2g, result);
            region.survives_route_remove(
                &self.planner,
                shard.service.transitions(),
                &local_result,
                removed,
                removed_points,
                budget,
            )
        })
    }
}

impl Service<ShardSet> {
    /// Builds a sharded service from raw data: computes the dataset MBR,
    /// lays a Z-order grid over it, partitions routes and transitions to
    /// shards by representative point (first route vertex / transition
    /// origin) and bulk-builds each shard's stores plus the planner replica.
    /// Global ids are assigned exactly as the unsharded bulk build would
    /// (invalid items are skipped and consume no id).
    pub fn bulk_build(
        config: ShardedConfig,
        routes: Vec<Vec<Point>>,
        transitions: Vec<(Point, Point)>,
    ) -> Self {
        let shard_count = config.shards.max(1);
        let mut mbr = Rect::empty();
        for route in &routes {
            for p in route {
                if p.is_finite() {
                    mbr.expand_to_point(p);
                }
            }
        }
        for (origin, destination) in &transitions {
            if origin.is_finite() {
                mbr.expand_to_point(origin);
            }
            if destination.is_finite() {
                mbr.expand_to_point(destination);
            }
        }
        if mbr.is_empty() {
            mbr = Rect::new(Point::new(0.0, 0.0), Point::new(1.0, 1.0));
        }
        let grid = CellGrid::new(mbr, config.grid_bits);
        let (planner, _) = RouteStore::bulk_build(config.rtree, routes.clone());
        let rp = partition_routes(config.rtree, routes, shard_count, |points| {
            grid.shard_of_point(&points[0], shard_count)
        });
        let tp = partition_transitions(config.rtree, transitions, shard_count, |origin, _| {
            grid.shard_of_point(origin, shard_count)
        });

        let mut next_route_local = vec![0u32; shard_count];
        let route_dir: Vec<Slot> = rp
            .owners
            .iter()
            .map(|&owner| {
                let local = next_route_local[owner as usize];
                next_route_local[owner as usize] += 1;
                Slot::Held {
                    shard: owner,
                    local,
                    live: true,
                }
            })
            .collect();
        let mut next_transition_local = vec![0u32; shard_count];
        let transition_dir: Vec<Slot> = tp
            .owners
            .iter()
            .map(|&owner| {
                let local = next_transition_local[owner as usize];
                next_transition_local[owner as usize] += 1;
                Slot::Held {
                    shard: owner,
                    local,
                    live: true,
                }
            })
            .collect();

        let shards: Vec<Shard> = rp
            .stores
            .into_iter()
            .zip(rp.spaces)
            .zip(tp.stores.into_iter().zip(tp.spaces))
            .map(
                |((route_store, route_l2g), (transition_store, transition_l2g))| Shard {
                    service: QueryService::new(route_store, transition_store, config.base),
                    route_l2g,
                    transition_l2g,
                },
            )
            .collect();

        let (metrics, router) = ServiceMetrics::new_with_router(shard_count);
        Service::from_parts(
            ShardSet {
                grid,
                config: ShardedConfig {
                    shards: shard_count,
                    ..config
                },
                planner,
                shards,
                route_dir,
                transition_dir,
                storage_root: None,
                storage_config: None,
                router,
            },
            config.base,
            metrics,
        )
    }

    // ------------------------------------------------------------------
    // Durability.
    // ------------------------------------------------------------------

    /// Attaches a storage root to an in-memory fleet and writes the initial
    /// checkpoints: one `shard-NNN/` directory per shard (each shard's own
    /// WAL + snapshot) plus `router/` for the planner snapshot, the routing
    /// directory (checkpoint meta) and the global-form WAL. The root must
    /// hold neither flat storage data ([`StorageError::DirectoryNotEmpty`])
    /// nor an existing sharded layout ([`StorageError::ShardedLayout`] —
    /// recover that with [`ShardedService::open`]).
    pub fn attach_storage(
        &mut self,
        root: &Path,
        storage_config: StorageConfig,
    ) -> Result<StorageStats, StorageError> {
        if let Some(layout) = detect_shard_layout(root) {
            return Err(StorageError::ShardedLayout {
                dir: root.to_path_buf(),
                shards: layout.shard_count(),
            });
        }
        if dir_has_storage_data(root) {
            return Err(StorageError::DirectoryNotEmpty {
                dir: root.to_path_buf(),
            });
        }
        for (index, shard) in self.backing.shards.iter_mut().enumerate() {
            shard
                .service
                .attach_storage(&root.join(shard_subdir(index)), storage_config)?;
        }
        let router_dir = root.join(ROUTER_SUBDIR);
        let (mut storage, recovery) = Storage::open(&router_dir, storage_config)?;
        if recovery.found_existing {
            return Err(StorageError::DirectoryNotEmpty { dir: router_dir });
        }
        storage.set_instruments(self.metrics.storage_instruments());
        let meta = self.backing.encode_meta();
        let stats = storage.checkpoint_with_meta(
            &self.backing.planner,
            &TransitionStore::default(),
            &meta,
        )?;
        self.storage = Some(storage);
        self.backing.storage_root = Some(root.to_path_buf());
        self.backing.storage_config = Some(storage_config);
        Ok(stats)
    }

    /// Checkpoints the whole fleet: every shard first, then the router
    /// (planner snapshot + routing directory meta + WAL truncation). The
    /// ordering makes a crash between the two phases recoverable: the
    /// router's WAL tail then *over*-covers what its snapshot misses, and
    /// replay reconciliation skips what the shards already applied.
    pub fn checkpoint(&mut self) -> Result<StorageStats, StorageError> {
        if self.storage.is_none() {
            return Err(StorageError::NotAttached);
        }
        for shard in &mut self.backing.shards {
            shard.service.checkpoint()?;
        }
        let meta = self.backing.encode_meta();
        let storage = self.storage.as_mut().expect("checked above");
        storage.checkpoint_with_meta(&self.backing.planner, &TransitionStore::default(), &meta)
    }

    /// Opens a sharded fleet from a storage root written by
    /// [`ShardedService::attach_storage`] / [`ShardedService::checkpoint`].
    /// A root with no sharded layout yields an empty fleet attached to it
    /// (mirroring [`QueryService::open`] on an empty directory).
    ///
    /// Recovery opens the router directory (planner snapshot + routing
    /// directory meta), opens every shard through [`QueryService::open`]
    /// (each replays its own local WAL tail), rebuilds the local→global id
    /// spaces from the directory, and then replays the router's global-form
    /// WAL tail with per-record reconciliation: an insert whose owning shard
    /// already holds the predicted local slot, or a removal the shard
    /// already shows dead, only re-records the directory mapping — the
    /// crash fell between the router's append and the shard's. Everything
    /// else is forwarded through the normal shard update path. The decoded
    /// `shards` / `grid_bits` on disk are authoritative and override the
    /// passed config's.
    pub fn open(
        root: &Path,
        config: ShardedConfig,
        storage_config: StorageConfig,
    ) -> Result<(Self, StorageStats), StorageError> {
        let Some(layout) = detect_shard_layout(root) else {
            let mut service = Self::bulk_build(config, Vec::new(), Vec::new());
            let stats = service.attach_storage(root, storage_config)?;
            return Ok((service, stats));
        };
        let router_dir = root.join(ROUTER_SUBDIR);
        if !layout.router {
            return Err(StorageError::Corrupt {
                path: router_dir,
                offset: None,
                detail: "sharded layout has shard directories but no router storage".to_string(),
            });
        }
        if !layout.is_contiguous() {
            return Err(StorageError::Corrupt {
                path: root.to_path_buf(),
                offset: None,
                detail: format!(
                    "shard directories are not contiguous from zero: {:?}",
                    layout.shards
                ),
            });
        }
        let (mut storage, recovery) = Storage::open(&router_dir, storage_config)?;
        let Some((planner, _)) = recovery.stores else {
            return Err(StorageError::Corrupt {
                path: router_dir,
                offset: None,
                detail: "router directory holds no snapshot".to_string(),
            });
        };
        let meta = decode_meta(&recovery.meta).map_err(|e| StorageError::Corrupt {
            path: router_dir.clone(),
            offset: None,
            detail: format!("undecodable router meta: {e}"),
        })?;
        if meta.shards != layout.shard_count() {
            return Err(StorageError::Corrupt {
                path: root.to_path_buf(),
                offset: None,
                detail: format!(
                    "router meta names {} shard(s) but the layout holds {}",
                    meta.shards,
                    layout.shard_count()
                ),
            });
        }
        let mut shards = Vec::with_capacity(meta.shards);
        for index in 0..meta.shards {
            let (service, _) =
                QueryService::open(&root.join(shard_subdir(index)), config.base, storage_config)?;
            shards.push(Shard {
                service,
                route_l2g: IdSpace::new(),
                transition_l2g: IdSpace::new(),
            });
        }
        // Rebuild the local→global spaces from the directory; dead slots are
        // included (store slots persist as dead slots, keeping local indexes
        // aligned).
        for (gid, slot) in meta.route_dir.iter().enumerate() {
            if let Slot::Held { shard, local, .. } = slot {
                let space = &mut shards[*shard as usize].route_l2g;
                debug_assert_eq!(*local as usize, space.len());
                space.push(gid as u32);
            }
        }
        for (gid, slot) in meta.transition_dir.iter().enumerate() {
            if let Slot::Held { shard, local, .. } = slot {
                let space = &mut shards[*shard as usize].transition_l2g;
                debug_assert_eq!(*local as usize, space.len());
                space.push(gid as u32);
            }
        }
        let (metrics, router) = ServiceMetrics::new_with_router(meta.shards);
        let mut service = Service::from_parts(
            ShardSet {
                config: ShardedConfig {
                    shards: meta.shards,
                    grid_bits: meta.grid.bits(),
                    ..config
                },
                grid: meta.grid,
                planner,
                shards,
                route_dir: meta.route_dir,
                transition_dir: meta.transition_dir,
                storage_root: Some(root.to_path_buf()),
                storage_config: Some(storage_config),
                router,
            },
            config.base,
            metrics,
        );
        for record in &recovery.tail {
            let update =
                StoreUpdate::from_wal_record(record).map_err(|e| StorageError::Corrupt {
                    path: router_dir.clone(),
                    offset: None,
                    detail: format!("undecodable router WAL record: {e}"),
                })?;
            service.backing.replay_update(update);
        }
        storage.set_instruments(service.metrics.storage_instruments());
        let stats = storage.stats();
        service.storage = Some(storage);
        Ok((service, stats))
    }

    // ------------------------------------------------------------------
    // Reshard (split / merge).
    // ------------------------------------------------------------------

    /// Re-partitions the fleet to a new shard count and grid resolution:
    /// shard *split* (`shards` grows) and *merge* (`shards` shrinks) are the
    /// same operation. The global id spaces — planner slots and the routing
    /// directory's indexes — are preserved (dead slots stay dead), so query
    /// results, subscription results and future update semantics are
    /// unchanged; only item *placement* moves. Live data is gathered in
    /// global id order, a fresh grid is laid over its MBR, and each shard's
    /// stores are bulk-built anew with dense local ids. Metrics and the
    /// result cache are rebuilt fresh (counters restart from zero);
    /// subscriptions are kept as-is — their results cannot change, so no
    /// deltas are emitted.
    ///
    /// With storage attached, the old `shard-NNN/` and `router/` directories
    /// are removed and the root is re-attached and checkpointed, making the
    /// reshard itself the durable baseline (checkpoint → re-partition →
    /// checkpoint, not WAL replay).
    pub fn reshard(&mut self, shards: usize, grid_bits: u32) -> Result<(), StorageError> {
        let shard_count = shards.max(1);
        // Gather live items in global id order.
        let mut live_transitions: Vec<(u32, Point, Point)> = Vec::new();
        for (gid, slot) in self.backing.transition_dir.iter().enumerate() {
            if let Slot::Held {
                shard,
                local,
                live: true,
            } = slot
            {
                let t = self.backing.shards[*shard as usize]
                    .service
                    .transitions()
                    .get(TransitionId(*local))
                    .expect("live directory entry must resolve in its shard");
                live_transitions.push((gid as u32, t.origin, t.destination));
            }
        }
        let mut mbr = Rect::empty();
        for route in self.backing.planner.routes() {
            for p in &route.points {
                mbr.expand_to_point(p);
            }
        }
        for (_, origin, destination) in &live_transitions {
            mbr.expand_to_point(origin);
            mbr.expand_to_point(destination);
        }
        if mbr.is_empty() {
            mbr = Rect::new(Point::new(0.0, 0.0), Point::new(1.0, 1.0));
        }
        let grid = CellGrid::new(mbr, grid_bits);

        // Re-place routes: fresh dense local ids, in global id order.
        let mut route_sets: Vec<Vec<Vec<Point>>> = vec![Vec::new(); shard_count];
        let mut route_spaces = vec![IdSpace::new(); shard_count];
        let mut new_route_dir = vec![Slot::Vacant; self.backing.route_dir.len()];
        for (gid, slot) in self.backing.route_dir.iter().enumerate() {
            if let Slot::Held { live: true, .. } = slot {
                let points = self
                    .backing
                    .planner
                    .route_points(RouteId(gid as u32))
                    .to_vec();
                let owner = grid.shard_of_point(&points[0], shard_count);
                let local = route_spaces[owner].len() as u32;
                route_spaces[owner].push(gid as u32);
                route_sets[owner].push(points);
                new_route_dir[gid] = Slot::Held {
                    shard: owner as u32,
                    local,
                    live: true,
                };
            }
        }
        // Re-place transitions the same way.
        let mut transition_sets: Vec<Vec<(Point, Point)>> = vec![Vec::new(); shard_count];
        let mut transition_spaces = vec![IdSpace::new(); shard_count];
        let mut new_transition_dir = vec![Slot::Vacant; self.backing.transition_dir.len()];
        for (gid, origin, destination) in &live_transitions {
            let owner = grid.shard_of_point(origin, shard_count);
            let local = transition_spaces[owner].len() as u32;
            transition_spaces[owner].push(*gid);
            transition_sets[owner].push((*origin, *destination));
            new_transition_dir[*gid as usize] = Slot::Held {
                shard: owner as u32,
                local,
                live: true,
            };
        }

        let shards: Vec<Shard> = route_sets
            .into_iter()
            .zip(route_spaces)
            .zip(transition_sets.into_iter().zip(transition_spaces))
            .map(|((routes, route_l2g), (transitions, transition_l2g))| {
                let (route_store, rejected) =
                    RouteStore::bulk_build(self.backing.config.rtree, routes);
                debug_assert_eq!(rejected, 0, "re-placed routes were already validated");
                let transition_store =
                    TransitionStore::bulk_build(self.backing.config.rtree, transitions);
                Shard {
                    service: QueryService::new(
                        route_store,
                        transition_store,
                        self.backing.config.base,
                    ),
                    route_l2g,
                    transition_l2g,
                }
            })
            .collect();

        // Install the new topology. Metrics and cache are rebuilt fresh —
        // the registry's names are per-shard-count, and an empty cache is
        // the honest state after a topology change.
        let (metrics, router) = ServiceMetrics::new_with_router(shard_count);
        self.backing.grid = grid;
        self.backing.config.shards = shard_count;
        self.backing.config.grid_bits = grid.bits();
        self.backing.shards = shards;
        self.backing.route_dir = new_route_dir;
        self.backing.transition_dir = new_transition_dir;
        self.cache = new_cache(&self.config, &metrics);
        self.metrics = metrics;
        self.backing.router = router;
        self.generation.fetch_add(1, Ordering::SeqCst);

        // Durable reshard: wipe the old layout and re-attach fresh (the old
        // shard services and router handle were just dropped with the swap).
        if let (Some(root), Some(storage_config)) = (
            self.backing.storage_root.clone(),
            self.backing.storage_config,
        ) {
            self.storage = None;
            let entries = std::fs::read_dir(&root).map_err(|e| StorageError::Io {
                context: "list storage root for reshard".to_string(),
                path: root.clone(),
                source: e,
            })?;
            for entry in entries {
                let entry = entry.map_err(|e| StorageError::Io {
                    context: "list storage root for reshard".to_string(),
                    path: root.clone(),
                    source: e,
                })?;
                let name = entry.file_name();
                let name = name.to_string_lossy();
                if name == ROUTER_SUBDIR || parse_shard_subdir(&name).is_some() {
                    std::fs::remove_dir_all(entry.path()).map_err(|e| StorageError::Io {
                        context: "remove stale shard directory".to_string(),
                        path: entry.path(),
                        source: e,
                    })?;
                }
            }
            self.attach_storage(&root, storage_config)?;
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Introspection.
    // ------------------------------------------------------------------

    /// The configuration the fleet currently runs with (`shards` and
    /// `grid_bits` reflect opens and reshards).
    pub fn config(&self) -> &ShardedConfig {
        &self.backing.config
    }

    /// The Z-order grid items are routed by.
    pub fn grid(&self) -> &CellGrid {
        &self.backing.grid
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.backing.shards.len()
    }

    /// Read access to one shard's inner service.
    pub fn shard_service(&self, index: usize) -> Option<&QueryService> {
        self.backing.shards.get(index).map(|shard| &shard.service)
    }

    /// Router metrics plus every shard's catalog in the text exposition
    /// format; shard lines are prefixed `shard.<i>.`.
    pub fn metrics_text(&self) -> String {
        let mut text = self.metrics.render_text();
        for (index, shard) in self.backing.shards.iter().enumerate() {
            for line in shard.service.metrics_text().lines() {
                text.push_str(&format!("shard.{index}.{line}\n"));
            }
        }
        text
    }

    /// Switches timing instrumentation on or off for the router and every
    /// shard together.
    pub fn set_metrics_enabled(&self, on: bool) {
        self.metrics.set_enabled(on);
        for shard in &self.backing.shards {
            shard.service.set_metrics_enabled(on);
        }
    }

    /// Point-in-time routing counters (executions, dispatches, prunes); the
    /// mean fan-out is `dispatches / executions`.
    pub fn router_stats(&self) -> crate::RouterStats {
        self.backing.router.stats()
    }

    /// The shards the router would consult for this query under the given
    /// engine kind — the shard-pruning certificate evaluated outside the
    /// execution path, for soundness testing and capacity planning. Every
    /// non-empty shard *not* listed is certified candidate-free for the
    /// query.
    pub fn planned_shards(&self, query: &RknntQuery, kind: EngineKind) -> Vec<usize> {
        if query.is_degenerate() {
            return Vec::new();
        }
        let outcome = build_filter_set(&self.backing.planner, &query.route, query.k);
        let use_voronoi = matches!(kind, EngineKind::Voronoi);
        let mut out = Vec::new();
        for (index, shard) in self.backing.shards.iter().enumerate() {
            let Some(root) = shard.service.transitions().rtree().root() else {
                continue;
            };
            if !outcome
                .filter_set
                .filters_rect(&root.mbr(), query.k, use_voronoi)
            {
                out.push(index);
            }
        }
        out
    }

    /// The owning shard of a live global transition id.
    pub fn transition_owner(&self, id: TransitionId) -> Option<usize> {
        match self.backing.transition_dir.get(id.index())? {
            Slot::Held {
                shard, live: true, ..
            } => Some(*shard as usize),
            _ => None,
        }
    }

    /// Endpoints of a live global transition id, resolved through the
    /// routing directory.
    pub fn transition_endpoints(&self, id: TransitionId) -> Option<(Point, Point)> {
        self.backing.endpoints(id)
    }

    /// Number of live transitions across the fleet.
    pub fn num_transitions(&self) -> usize {
        self.backing
            .shards
            .iter()
            .map(|shard| shard.service.transitions().len())
            .sum()
    }
}

impl ShardSet {
    /// Replays one router-WAL update during [`ShardedService::open`],
    /// reconciling the global ledger with what each shard already holds:
    /// the planner and directory always advance (they come from the router
    /// snapshot, strictly older than the WAL tail), but a record is
    /// forwarded to its owning shard only when the shard does not already
    /// show it applied — detected for inserts by comparing the predicted
    /// local slot with the shard's store bound, for removals by the item's
    /// liveness in the shard's store.
    fn replay_update(&mut self, update: StoreUpdate) {
        match update {
            StoreUpdate::InsertTransition {
                origin,
                destination,
            } => {
                if !origin.is_finite() || !destination.is_finite() {
                    // Was rejected originally; replay mirrors the rejection.
                    return;
                }
                let owner = self.grid.shard_of_point(&origin, self.shards.len());
                let global = self.transition_dir.len() as u32;
                let shard = &mut self.shards[owner];
                let predicted = shard.transition_l2g.len();
                if predicted >= shard.service.transitions().transition_id_bound() {
                    let forwarded =
                        shard
                            .service
                            .apply_updates(vec![StoreUpdate::InsertTransition {
                                origin,
                                destination,
                            }]);
                    debug_assert_eq!(
                        forwarded.inserted_transitions.first().map(|t| t.index()),
                        Some(predicted)
                    );
                }
                shard.transition_l2g.push(global);
                self.transition_dir.push(Slot::Held {
                    shard: owner as u32,
                    local: predicted as u32,
                    live: true,
                });
            }
            StoreUpdate::ExpireTransition(id) => {
                let Some(Slot::Held {
                    shard,
                    local,
                    live: true,
                }) = self.transition_dir.get(id.index()).copied()
                else {
                    return;
                };
                let owned = &mut self.shards[shard as usize];
                if owned
                    .service
                    .transitions()
                    .get(TransitionId(local))
                    .is_some()
                {
                    owned
                        .service
                        .apply_updates(vec![StoreUpdate::ExpireTransition(TransitionId(local))]);
                }
                self.transition_dir[id.index()] = Slot::Held {
                    shard,
                    local,
                    live: false,
                };
            }
            StoreUpdate::InsertRoute(points) => {
                let Some(global) = self.planner.insert_route(points.clone()) else {
                    return;
                };
                let owner = self.grid.shard_of_point(&points[0], self.shards.len());
                let shard = &mut self.shards[owner];
                let predicted = shard.route_l2g.len();
                if predicted >= shard.service.routes().route_id_bound() {
                    shard
                        .service
                        .apply_updates(vec![StoreUpdate::InsertRoute(points)]);
                }
                shard.route_l2g.push(global.raw());
                debug_assert_eq!(global.index(), self.route_dir.len());
                self.route_dir.push(Slot::Held {
                    shard: owner as u32,
                    local: predicted as u32,
                    live: true,
                });
            }
            StoreUpdate::RemoveRoute(id) => {
                if !self.planner.remove_route(id) {
                    return;
                }
                let Some(Slot::Held {
                    shard,
                    local,
                    live: true,
                }) = self.route_dir.get(id.index()).copied()
                else {
                    return;
                };
                let owned = &mut self.shards[shard as usize];
                if owned.service.routes().route(RouteId(local)).is_some() {
                    owned
                        .service
                        .apply_updates(vec![StoreUpdate::RemoveRoute(RouteId(local))]);
                }
                self.route_dir[id.index()] = Slot::Held {
                    shard,
                    local,
                    live: false,
                };
            }
        }
    }

    /// Encodes the routing state carried in the router checkpoint's meta
    /// block: grid MBR + bits, shard count and both directories.
    fn encode_meta(&self) -> Vec<u8> {
        let mut enc = Encoder::new();
        enc.u8(META_VERSION);
        let mbr = self.grid.mbr();
        enc.f64(mbr.min.x);
        enc.f64(mbr.min.y);
        enc.f64(mbr.max.x);
        enc.f64(mbr.max.y);
        enc.u32(self.grid.bits());
        enc.u32(self.shards.len() as u32);
        encode_dir(&mut enc, &self.route_dir);
        encode_dir(&mut enc, &self.transition_dir);
        enc.into_bytes()
    }
}

/// Encodes one routing directory (length-prefixed tagged slots).
fn encode_dir(enc: &mut Encoder, dir: &[Slot]) {
    enc.len_prefix(dir.len());
    for slot in dir {
        match slot {
            Slot::Vacant => enc.u8(SLOT_VACANT),
            Slot::Held { shard, local, live } => {
                enc.u8(if *live { SLOT_LIVE } else { SLOT_DEAD });
                enc.u32(*shard);
                enc.u32(*local);
            }
        }
    }
}

/// Decodes one routing directory.
fn decode_dir(dec: &mut Decoder<'_>) -> Result<Vec<Slot>, CodecError> {
    let len = dec.len_prefix(1)?;
    let mut out = Vec::with_capacity(len);
    for _ in 0..len {
        let slot = match dec.u8()? {
            SLOT_VACANT => Slot::Vacant,
            tag @ (SLOT_LIVE | SLOT_DEAD) => Slot::Held {
                shard: dec.u32()?,
                local: dec.u32()?,
                live: tag == SLOT_LIVE,
            },
            tag => {
                return Err(CodecError {
                    offset: 0,
                    detail: format!("unknown directory slot tag {tag}"),
                })
            }
        };
        out.push(slot);
    }
    Ok(out)
}

/// Decodes the router checkpoint's meta block.
fn decode_meta(bytes: &[u8]) -> Result<RouterMeta, CodecError> {
    let mut dec = Decoder::new(bytes);
    let version = dec.u8()?;
    if version != META_VERSION {
        return Err(CodecError {
            offset: 0,
            detail: format!("unsupported router meta version {version}"),
        });
    }
    let min = Point::new(dec.f64()?, dec.f64()?);
    let max = Point::new(dec.f64()?, dec.f64()?);
    let bits = dec.u32()?;
    let shards = dec.u32()? as usize;
    let route_dir = decode_dir(&mut dec)?;
    let transition_dir = decode_dir(&mut dec)?;
    dec.expect_exhausted()?;
    Ok(RouterMeta {
        grid: CellGrid::new(Rect::new(min, max), bits),
        shards,
        route_dir,
        transition_dir,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(x: f64, y: f64) -> Point {
        Point::new(x, y)
    }

    fn grid_world() -> (Vec<Vec<Point>>, Vec<(Point, Point)>) {
        let mut routes = Vec::new();
        for i in 0..6 {
            let y = 100.0 * i as f64;
            routes.push(vec![p(0.0, y), p(250.0, y + 20.0), p(500.0, y)]);
        }
        let mut transitions = Vec::new();
        for i in 0..40 {
            let x = (i % 8) as f64 * 60.0;
            let y = (i / 8) as f64 * 110.0;
            transitions.push((p(x, y + 5.0), p(x + 45.0, y + 35.0)));
        }
        (routes, transitions)
    }

    #[test]
    fn meta_codec_round_trips() {
        let (routes, transitions) = grid_world();
        let service = ShardedService::bulk_build(
            ShardedConfig::default().with_shards(3),
            routes,
            transitions,
        );
        let bytes = service.backing.encode_meta();
        let meta = decode_meta(&bytes).expect("round trip");
        assert_eq!(meta.shards, 3);
        assert_eq!(meta.route_dir, service.backing.route_dir);
        assert_eq!(meta.transition_dir, service.backing.transition_dir);
        assert_eq!(meta.grid.bits(), service.backing.grid.bits());
        assert_eq!(meta.grid.mbr(), service.backing.grid.mbr());
    }

    #[test]
    fn decode_meta_rejects_damage() {
        let (routes, transitions) = grid_world();
        let service = ShardedService::bulk_build(ShardedConfig::default(), routes, transitions);
        let bytes = service.backing.encode_meta();
        assert!(decode_meta(&[]).is_err(), "empty meta");
        let mut wrong_version = bytes.clone();
        wrong_version[0] = 99;
        assert!(decode_meta(&wrong_version).is_err(), "unknown version");
        let mut truncated = bytes.clone();
        truncated.truncate(bytes.len() - 1);
        assert!(decode_meta(&truncated).is_err(), "truncated payload");
        let mut trailing = bytes;
        trailing.push(0);
        assert!(decode_meta(&trailing).is_err(), "trailing bytes");
    }

    #[test]
    fn directory_and_id_spaces_agree() {
        let (routes, transitions) = grid_world();
        let service = ShardedService::bulk_build(
            ShardedConfig::default().with_shards(4),
            routes,
            transitions,
        );
        for (gid, slot) in service.backing.transition_dir.iter().enumerate() {
            let Slot::Held { shard, local, live } = slot else {
                panic!("bulk build of valid data leaves no vacant slots");
            };
            assert!(live);
            let space = &service.backing.shards[*shard as usize].transition_l2g;
            assert_eq!(space.to_global(*local), Some(gid as u32));
            assert_eq!(space.to_local(gid as u32), Some(*local));
        }
        let total: usize = service
            .backing
            .shards
            .iter()
            .map(|s| s.service.transitions().len())
            .sum();
        assert_eq!(total, service.backing.transition_dir.len());
    }
}
