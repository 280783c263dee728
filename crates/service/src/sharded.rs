//! Spatial sharding: SFC-partitioned transition shards behind a
//! footprint-pruned router.
//!
//! [`ShardedService`] is the shared [`Service`] frontend — the same batch
//! pipeline, cache, update skeleton, subscription registry and storage
//! handle a [`crate::QueryService`] runs — over a [`ShardSet`] backing. The
//! set keeps the one complete [`RouteStore`] (the **planner**: routes are
//! small, and every filter and every verification is defined over all of
//! them) and splits the *transitions* — the bulk — across `N` shards by
//! Z-order cell of each transition's origin (see [`rknnt_geo::CellGrid`]).
//! A shard is exactly a [`TransitionStore`] with dense local ids plus the
//! [`IdSpace`] mapping them back to global ids; the directory maps every
//! live global id to its `(shard, local id)`.
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
//! **byte-identical** to the unsharded service's. Subscription delta streams
//! are identical too: every update is applied in place against the same
//! planner on both sides (a member's or candidate's endpoints resolved
//! through the directory), and a route removal's candidate query runs
//! through that same byte-identical pipeline.
//!
//! Placement therefore never changes an answer, which is what lets
//! durability ignore it: the frontend logs updates in *global* form to one
//! WAL and checkpoints the *global* state (the set exports its transition
//! slots assembled from the directory) — the same storage format the flat
//! service writes. [`ShardedService::open`] lays the
//! recovered data out for whatever [`ShardedConfig`] it is given, and
//! [`ShardedService::reshard`] re-places it in memory without touching the
//! disk, the result cache, the subscriptions or the metric catalog.

use crate::frontend::{Backing, Service};
use crate::metrics::{RouterMetrics, ServiceMetrics};
use crate::service::ServiceConfig;
use rknnt_core::{prune_into_scratch, FilterSet, QueryScratch};
use rknnt_geo::{CellGrid, Point, Rect};
use rknnt_index::{
    partition_transitions, IdSpace, Placement, RouteId, RouteStore, RouteStoreState, Transition,
    TransitionId, TransitionStore, TransitionStoreState,
};
use rknnt_obs::TraceCursor;
use rknnt_rtree::RTreeConfig;

/// Configuration of a [`ShardedService`].
#[derive(Debug, Clone, Copy)]
pub struct ShardedConfig {
    /// Number of shards the city is split into (at least 1 is always used).
    pub shards: usize,
    /// Z-order grid resolution: the dataset MBR is divided into
    /// `2^bits × 2^bits` cells (clamped to
    /// [`rknnt_geo::MAX_GRID_BITS`]).
    pub grid_bits: u32,
    /// R-tree fan-out for the per-shard transition stores and the planner.
    pub rtree: RTreeConfig,
    /// Configuration of the batch pipeline (workers, cache).
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

    /// Fixes the base service configuration.
    pub fn with_base(mut self, base: ServiceConfig) -> Self {
        self.base = base;
        self
    }
}

/// One shard: a slice of the transitions under dense local ids, plus the
/// local→global id space.
struct Shard {
    transitions: TransitionStore,
    l2g: IdSpace,
}

/// The shard-set backing: the planner, the shards, the directory and the
/// router's own metric cells.
pub struct ShardSet {
    grid: CellGrid,
    config: ShardedConfig,
    /// The complete route store: filter construction and endpoint
    /// verification are global decisions, so routes (few) live here only
    /// while transitions (the bulk) are sharded. Global route ids are
    /// exactly this store's slot indexes.
    planner: RouteStore,
    shards: Vec<Shard>,
    /// Where each global transition id lives, indexed by raw id; `None`
    /// once it expired (the id stays consumed).
    transition_dir: Vec<Option<Placement>>,
    router: RouterMetrics,
}

/// Spatially sharded transitions behind a footprint-pruned router.
/// Construction is [`ShardedService::bulk_build`] (in memory) or
/// [`ShardedService::open`] (from a storage directory); the query, update,
/// subscription and durability API is the shared [`Service`] frontend's, and
/// every answer — batch results, subscription results and their delta
/// streams — is byte-identical to an unsharded service over the same data
/// (see the module docs for the argument, `tests/service_sharded.rs` for
/// the enforcement).
pub type ShardedService = Service<ShardSet>;

impl Backing for ShardSet {
    type Config = ShardedConfig;

    fn routes(&self) -> &RouteStore {
        &self.planner
    }

    /// Prunes one routed query: each shard's TR-tree behind the root-MBR
    /// skip certificate, candidates translated to global ids.
    ///
    /// The candidates are exactly the unsharded prune's: an endpoint
    /// survives pruning iff `filters_point` accepts it — node-level
    /// `filters_rect` tests, including the shard-root test used here, are
    /// certificates for their whole subtree — so the union of per-shard
    /// candidates equals the unsharded candidate set, and each transition is
    /// owned by exactly one shard, so the union has no duplicates. The
    /// frontend then verifies them against the planner, as it does on flat
    /// stores.
    ///
    /// Under tracing, every shard the query considered gets one `shard`
    /// span carrying the routing decision: `pruned=1 certificate=1` when
    /// the root-MBR certificate skipped it without dispatching, or
    /// `pruned=0` with the local candidate count when it was consulted.
    fn prune(
        &self,
        scratch: &mut QueryScratch,
        filter: &FilterSet,
        k: usize,
        trace: TraceCursor<'_>,
    ) -> usize {
        let mut pruned_nodes = 0usize;
        let mut consulted = 0u64;
        for (index, shard) in self.shards.iter().enumerate() {
            // An empty shard has nothing to consult or prune.
            let Some(root) = shard.transitions.rtree().root() else {
                continue;
            };
            if filter.filters_rect(&root.mbr(), k, false) {
                // The certificate covers the shard's whole TR-tree: no
                // candidate can live there, skip without dispatching.
                self.router.shards_pruned.inc();
                pruned_nodes += 1;
                // Zero-duration marker: the decision itself is the
                // interesting part, not the (sub-microsecond) test.
                trace.record(
                    "shard",
                    0,
                    &[("shard", index as u64), ("pruned", 1), ("certificate", 1)],
                );
                continue;
            }
            consulted += 1;
            self.router.dispatches.inc();
            let shard_span = trace.begin("shard");
            let before = scratch.candidates().len();
            pruned_nodes +=
                prune_into_scratch(&shard.transitions, filter, k, false, scratch, |local| {
                    let global = shard
                        .l2g
                        .to_global(local.raw())
                        .expect("pruned transition must be in the shard's id space");
                    TransitionId(global)
                });
            let found = (scratch.candidates().len() - before) as u64;
            trace.end_with(
                shard_span,
                &[
                    ("shard", index as u64),
                    ("pruned", 0),
                    ("candidates", found),
                ],
            );
        }
        self.router.executions.inc();
        self.router.fanout.record(consulted);
        pruned_nodes
    }

    // Updates: a transition insert is routed to the shard owning its
    // origin's grid cell, an expiry through the directory; routes only ever
    // touch the planner.

    fn insert_transition(&mut self, origin: Point, destination: Point) -> Option<TransitionId> {
        let owner = self.grid.shard_of_point(&origin, self.shards.len());
        let shard = &mut self.shards[owner];
        // A store-boundary rejection (non-finite endpoint) consumes no id,
        // mirroring the unsharded service.
        let local = shard.transitions.insert(origin, destination)?;
        let global = self.transition_dir.len() as u32;
        shard.l2g.push(global);
        self.transition_dir.push(Some(Placement {
            shard: owner as u32,
            local: local.raw(),
        }));
        Some(TransitionId(global))
    }

    fn expire_transition(&mut self, id: TransitionId) -> bool {
        let Some(at) = self
            .transition_dir
            .get_mut(id.index())
            .and_then(Option::take)
        else {
            return false;
        };
        let removed = self.shards[at.shard as usize]
            .transitions
            .remove(TransitionId(at.local));
        debug_assert!(removed, "the directory said the id was live");
        true
    }

    fn insert_route(&mut self, points: Vec<Point>) -> Option<RouteId> {
        self.planner.insert_route(points)
    }

    fn remove_route(&mut self, id: RouteId) -> bool {
        self.planner.remove_route(id)
    }

    /// Resolved through the directory.
    fn endpoints(&self, id: TransitionId) -> Option<(Point, Point)> {
        let at = (*self.transition_dir.get(id.index())?)?;
        self.shards[at.shard as usize]
            .transitions
            .get(TransitionId(at.local))
            .map(|t| (t.origin, t.destination))
    }

    fn export_state(&self) -> (RouteStoreState, TransitionStoreState) {
        let transitions = self
            .endpoint_slots()
            .enumerate()
            .map(|(id, slot)| {
                slot.map(|(origin, destination)| {
                    Transition::new(TransitionId(id as u32), origin, destination)
                })
            })
            .collect();
        let state = TransitionStoreState {
            config: self.config.rtree,
            transitions,
        };
        (self.planner.export_state(), state)
    }

    fn from_stores(
        routes: RouteStore,
        transitions: TransitionStore,
        config: ShardedConfig,
    ) -> ShardedService {
        let slots = transitions.export_state().transitions.into_iter();
        let slots = slots.map(|slot| slot.map(|t| (t.origin, t.destination)));
        ShardedService::placed(config, routes, slots.collect())
    }
}

impl ShardSet {
    /// The endpoints behind every global transition id, in id order,
    /// resolved through the directory (`None` for an expired id).
    fn endpoint_slots(&self) -> impl Iterator<Item = Option<(Point, Point)>> + '_ {
        (0..self.transition_dir.len() as u32).map(|raw| self.endpoints(TransitionId(raw)))
    }
}

/// Lays the global state out for `config` — the one placement function
/// behind [`ShardedService::bulk_build`], [`ShardedService::open`] and
/// [`ShardedService::reshard`]. `slots[i]` holds the endpoints of global
/// transition id `i` (`None` for an expired one, which stays consumed and is
/// placed nowhere).
/// A Z-order grid is laid over the MBR of the live data, every live
/// transition goes to the shard owning its origin's cell, and each shard's
/// store is bulk-built with dense local ids in global id order. `router` is
/// the set's routing cells: fresh ones for a new service, the running ones
/// on a reshard.
fn place(
    config: ShardedConfig,
    planner: RouteStore,
    slots: Vec<Option<(Point, Point)>>,
    router: RouterMetrics,
) -> ShardSet {
    let shard_count = config.shards.max(1);
    let mut mbr = Rect::empty();
    for route in planner.routes() {
        for p in &route.points {
            mbr.expand_to_point(p);
        }
    }
    for (origin, destination) in slots.iter().flatten() {
        mbr.expand_to_point(origin);
        mbr.expand_to_point(destination);
    }
    if mbr.is_empty() {
        mbr = Rect::new(Point::new(0.0, 0.0), Point::new(1.0, 1.0));
    }
    let grid = CellGrid::new(mbr, config.grid_bits);
    let partition = partition_transitions(config.rtree, slots, shard_count, |origin, _| {
        grid.shard_of_point(origin, shard_count)
    });
    let shards = partition
        .stores
        .into_iter()
        .zip(partition.spaces)
        .map(|(transitions, l2g)| Shard { transitions, l2g })
        .collect();
    ShardSet {
        grid,
        config: ShardedConfig {
            shards: shard_count,
            grid_bits: grid.bits(),
            ..config
        },
        planner,
        shards,
        transition_dir: partition.directory,
        router,
    }
}

impl Service<ShardSet> {
    /// A new service over the global state laid out for `config`: fresh
    /// metric catalog, empty cache, no subscriptions, no storage.
    fn placed(
        config: ShardedConfig,
        planner: RouteStore,
        slots: Vec<Option<(Point, Point)>>,
    ) -> Self {
        let (metrics, router) = ServiceMetrics::new_with_router();
        Service::from_parts(place(config, planner, slots, router), config.base, metrics)
    }

    /// Builds a sharded service from raw data. Global ids are assigned
    /// exactly as the unsharded bulk build would (invalid items are skipped
    /// and consume no id); the routes go to the planner and the transitions
    /// are placed on the shards.
    pub fn bulk_build(
        config: ShardedConfig,
        routes: Vec<Vec<Point>>,
        transitions: Vec<(Point, Point)>,
    ) -> Self {
        let (planner, _) = RouteStore::bulk_build(config.rtree, routes);
        let slots = transitions
            .into_iter()
            .filter(|(origin, destination)| origin.is_finite() && destination.is_finite())
            .map(Some)
            .collect();
        Self::placed(config, planner, slots)
    }

    /// Re-partitions the transitions to a new shard count and grid
    /// resolution: shard *split* (`shards` grows) and *merge* (`shards`
    /// shrinks) are the same operation. The global id spaces are preserved
    /// (expired ids stay consumed), so query results, subscription results
    /// and future update semantics are unchanged; only *placement* moves.
    /// Cached results and subscriptions are keyed and maintained by global
    /// ids against the planner, so both are kept as they are — the cache
    /// stays warm, no deltas are emitted — and every counter keeps counting.
    ///
    /// Nothing on disk is touched: the attached directory holds global
    /// state, which a reshard does not change, so the WAL keeps growing
    /// where it was and a crash at any point recovers exactly as before.
    pub fn reshard(&mut self, shards: usize, grid_bits: u32) {
        let config = ShardedConfig {
            shards,
            grid_bits,
            ..self.backing.config
        };
        let slots = self.backing.endpoint_slots().collect();
        let planner = std::mem::take(&mut self.backing.planner);
        let router = self.backing.router.clone();
        self.backing = place(config, planner, slots, router);
    }

    // ------------------------------------------------------------------
    // Introspection.
    // ------------------------------------------------------------------

    /// The configuration the service currently runs with (`shards` and
    /// `grid_bits` reflect clamping and reshards).
    pub fn config(&self) -> &ShardedConfig {
        &self.backing.config
    }

    /// The Z-order grid transitions are routed by.
    pub fn grid(&self) -> &CellGrid {
        &self.backing.grid
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.backing.shards.len()
    }

    /// Read access to one shard's transition store (local ids).
    pub fn shard_transitions(&self, index: usize) -> Option<&TransitionStore> {
        self.backing.shards.get(index).map(|s| &s.transitions)
    }

    /// Point-in-time routing counters (executions, dispatches, prunes); the
    /// mean fan-out is `dispatches / executions`.
    pub fn router_stats(&self) -> crate::RouterStats {
        self.backing.router.stats()
    }

    /// The owning shard of a live global transition id.
    pub fn transition_owner(&self, id: TransitionId) -> Option<usize> {
        let at = (*self.backing.transition_dir.get(id.index())?)?;
        Some(at.shard as usize)
    }

    /// Endpoints of a live global transition id, resolved through the
    /// directory.
    pub fn transition_endpoints(&self, id: TransitionId) -> Option<(Point, Point)> {
        self.backing.endpoints(id)
    }

    /// One past the largest global transition id ever handed out (expired
    /// transitions keep theirs).
    pub fn transition_id_bound(&self) -> usize {
        self.backing.transition_dir.len()
    }

    /// Number of live transitions across the shards.
    pub fn num_transitions(&self) -> usize {
        self.backing
            .shards
            .iter()
            .map(|shard| shard.transitions.len())
            .sum()
    }
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
    fn directory_and_id_spaces_agree() {
        let (routes, transitions) = grid_world();
        let service = ShardedService::bulk_build(
            ShardedConfig::default().with_shards(4),
            routes,
            transitions,
        );
        for (gid, slot) in service.backing.transition_dir.iter().enumerate() {
            let at = slot.expect("bulk build of valid data leaves no dead slots");
            let space = &service.backing.shards[at.shard as usize].l2g;
            assert_eq!(space.to_global(at.local), Some(gid as u32));
            assert_eq!(space.to_local(gid as u32), Some(at.local));
        }
        assert_eq!(
            service.num_transitions(),
            service.backing.transition_dir.len()
        );
    }
}
