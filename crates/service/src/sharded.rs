//! Spatial sharding, written once: SFC-partitioned transition shards behind
//! a router that skips every shard its extent certificate writes off.
//!
//! [`Shards<L>`](Shards) is the sharded [`Backing`] of the shared
//! [`Service`] frontend. It keeps the one complete [`RouteStore`] (the
//! **planner**: routes are few, and every filter and every verification is
//! defined over all of them) and splits the *transitions* across `N` shards
//! by Z-order cell of each transition's origin (see
//! [`rknnt_geo::CellGrid`]). What a shard *is* is its [`ShardLink`]: a
//! [`TransitionStore`] in process ([`ShardedService`]), a remote server in
//! `rknnt-net`'s fleet. Placement is the set's, once: the grid, the
//! directory of every live global id's `(shard, local id)`, one [`IdSpace`]
//! per shard mapping local ids back, owner-routed inserts and expiries, the
//! skip certificate, the `shard` span and the router counters.
//!
//! The filter step already produces a *shard-pruning certificate*: the
//! `filters_rect` test the TR-tree descent applies to interior nodes
//! applies verbatim to a rectangle holding every endpoint of a shard
//! ([`ShardLink::extent`]; in process the TR-tree root MBR). A shard whose
//! extent the query's filter covers provably holds no candidate and is
//! never consulted. An endpoint survives pruning iff `filters_point`
//! accepts it, whatever the tree shape, so the union of per-shard candidate
//! sets is the unsharded one, and after the same verification against the
//! planner every answer and every subscription delta stream is
//! **byte-identical** to the unsharded service's.
//!
//! Placement therefore never changes an answer, which is what lets
//! durability ignore it: the frontend logs updates in *global* form to one
//! WAL and checkpoints the *global* state — the storage format the flat
//! service writes. [`ShardedService::open`] lays the recovered data out for
//! whatever [`ShardedConfig`] it is given, and [`ShardedService::reshard`]
//! re-places it in memory without touching the disk, the result cache, the
//! subscriptions or the metric catalog.

use crate::frontend::{Backing, Durable, Service};
use crate::metrics::{RouterMetrics, ServiceMetrics};
use crate::service::ServiceConfig;
use rknnt_core::{prune_into_scratch, FilterSet, QueryScratch};
use rknnt_geo::{CellGrid, Point, Rect};
use rknnt_index::{
    partition_by_origin_cell, IdSpace, Placement, RouteStore, RouteStoreState, Transition,
    TransitionId, TransitionStore, TransitionStoreState,
};
use rknnt_obs::TraceCursor;
use rknnt_rtree::RTreeConfig;
use std::convert::Infallible;
use std::sync::atomic::{AtomicBool, Ordering};

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

/// What a shard *is*: the transitions placed on it, under dense local ids.
pub trait ShardLink: Sync {
    /// Stores a transition under the next local id; `None` (no id consumed)
    /// for a non-finite endpoint.
    fn insert(&mut self, origin: Point, destination: Point) -> Option<TransitionId>;

    /// Removes a live transition; `false` for an unknown or dead local id.
    fn expire(&mut self, local: TransitionId) -> bool;

    /// The endpoints of a live local id.
    fn endpoints(&self, local: TransitionId) -> Option<(Point, Point)>;

    /// Appends the endpoints `filter` (built at `k`) does not filter to
    /// `scratch`, under `to_global` of their local ids, and returns the
    /// TR-tree nodes pruned unopened; [`Missed`], appending nothing, when
    /// the shard could not be consulted.
    fn prune(
        &self,
        scratch: &mut QueryScratch,
        filter: &FilterSet,
        k: usize,
        to_global: impl Fn(TransitionId) -> TransitionId,
    ) -> Result<usize, Missed>;

    /// A rectangle holding every endpoint of the shard, `None` for none.
    fn extent(&self) -> Option<Rect>;
}

/// A shard that could not be consulted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Missed;

/// An in-process shard: the store itself, bounded by its TR-tree's root.
impl ShardLink for TransitionStore {
    fn insert(&mut self, origin: Point, destination: Point) -> Option<TransitionId> {
        TransitionStore::insert(self, origin, destination)
    }

    fn expire(&mut self, local: TransitionId) -> bool {
        self.remove(local)
    }

    fn endpoints(&self, local: TransitionId) -> Option<(Point, Point)> {
        self.get(local).map(|t| (t.origin, t.destination))
    }

    fn prune(
        &self,
        scratch: &mut QueryScratch,
        filter: &FilterSet,
        k: usize,
        to_global: impl Fn(TransitionId) -> TransitionId,
    ) -> Result<usize, Missed> {
        let pruned_nodes = prune_into_scratch(self, filter, k, false, scratch, to_global);
        Ok(pruned_nodes)
    }

    fn extent(&self) -> Option<Rect> {
        self.rtree().root().map(|root| root.mbr())
    }
}

/// The sharded backing: the planner, one link and one local→global id
/// space per shard, the directory and the router's metric cells.
pub struct Shards<L> {
    grid: CellGrid,
    config: ShardedConfig,
    /// The complete route store: filter construction and endpoint
    /// verification are global decisions, so routes (few) live here only
    /// while transitions (the bulk) are sharded. Global route ids are
    /// exactly this store's slot indexes.
    planner: RouteStore,
    links: Vec<L>,
    spaces: Vec<IdSpace>,
    /// Where each global transition id lives, indexed by raw id; `None`
    /// once it expired (the id stays consumed).
    directory: Vec<Option<Placement>>,
    router: RouterMetrics,
    /// Set when a link misses a prune, taken by [`Backing::take_missed`].
    missed: AtomicBool,
}

/// In-process spatial shards: built by [`ShardedService::bulk_build`] or
/// [`ShardedService::open`], served by the shared [`Service`] frontend,
/// byte-identical to an unsharded service over the same data (enforced by
/// the repository's tier-1 `tests/serving_layers.rs`).
pub type ShardedService = Service<Shards<TransitionStore>>;

impl<L: ShardLink> Backing for Shards<L> {
    fn routes(&self) -> &RouteStore {
        &self.planner
    }

    /// Prunes one routed query on every shard the extent certificate does
    /// not skip, candidates translated to global ids: exactly the unsharded
    /// prune's, since each transition has one owner (module docs).
    ///
    /// Under tracing, every shard the query considered gets one `shard`
    /// span: `pruned=1 certificate=1` when skipped, else `pruned=0` with
    /// its candidate count, or `missed=1` when its link missed.
    fn prune(
        &self,
        scratch: &mut QueryScratch,
        filter: &FilterSet,
        k: usize,
        trace: TraceCursor<'_>,
    ) -> usize {
        let mut pruned_nodes = 0usize;
        let mut consulted = 0u64;
        for (index, (link, space)) in self.links.iter().zip(&self.spaces).enumerate() {
            // An empty shard has nothing to consult or prune.
            let Some(extent) = link.extent() else {
                continue;
            };
            if filter.filters_rect(&extent, k, false) {
                // The certificate covers the whole shard: no candidate can
                // live there, skip without dispatching.
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
            let to_global = |local: TransitionId| {
                let global = space.to_global(local.raw());
                TransitionId(global.expect("pruned transition must be in the shard's id space"))
            };
            let found = match link.prune(scratch, filter, k, to_global) {
                Ok(pruned) => {
                    pruned_nodes += pruned;
                    ("candidates", (scratch.candidates().len() - before) as u64)
                }
                // A missed shard adds nothing; the fleet names it in its answer.
                Err(Missed) => {
                    self.missed.store(true, Ordering::Relaxed);
                    ("missed", 1)
                }
            };
            trace.end_with(shard_span, &[("shard", index as u64), ("pruned", 0), found]);
        }
        self.router.executions.inc();
        self.router.fanout.record(consulted);
        pruned_nodes
    }

    // Updates: a transition insert is routed to the shard owning its
    // origin's grid cell, an expiry through the directory; routes only ever
    // touch the planner.

    fn insert_transition(&mut self, origin: Point, destination: Point) -> Option<TransitionId> {
        let owner = self.grid.shard_of_point(&origin, self.links.len());
        // A store-boundary rejection (non-finite endpoint) consumes no id,
        // mirroring the unsharded service.
        let local = self.links[owner].insert(origin, destination)?;
        let global = self.directory.len() as u32;
        self.spaces[owner].push(global);
        self.directory.push(Some(Placement {
            shard: owner as u32,
            local: local.raw(),
        }));
        Some(TransitionId(global))
    }

    fn expire_transition(&mut self, id: TransitionId) -> bool {
        let Some(at) = self.directory.get_mut(id.index()).and_then(Option::take) else {
            return false;
        };
        let removed = self.links[at.shard as usize].expire(TransitionId(at.local));
        debug_assert!(removed, "the directory said the id was live");
        true
    }

    fn routes_mut(&mut self) -> &mut RouteStore {
        &mut self.planner
    }

    /// Resolved through the directory.
    fn endpoints(&self, id: TransitionId) -> Option<(Point, Point)> {
        let at = (*self.directory.get(id.index())?)?;
        self.links[at.shard as usize].endpoints(TransitionId(at.local))
    }

    fn take_missed(&self) -> bool {
        self.missed.swap(false, Ordering::Relaxed)
    }
}

impl Durable for Shards<TransitionStore> {
    type Config = ShardedConfig;

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
        let (metrics, router) = ServiceMetrics::new_with_router();
        let Ok(shards) = place(config, routes, slots.collect(), router, in_process_link);
        Service::from_parts(shards, config.base, metrics)
    }
}

impl<L: ShardLink> Shards<L> {
    /// Shard `index`'s link.
    pub fn link(&self, index: usize) -> &L {
        &self.links[index]
    }

    /// The shard that owns a live global transition id.
    pub fn owner(&self, id: TransitionId) -> Option<usize> {
        let at = (*self.directory.get(id.index())?)?;
        Some(at.shard as usize)
    }

    /// The endpoints behind every global transition id, in id order,
    /// resolved through the directory (`None` for an expired id).
    fn endpoint_slots(&self) -> impl Iterator<Item = Option<(Point, Point)>> + '_ {
        (0..self.directory.len() as u32).map(|raw| self.endpoints(TransitionId(raw)))
    }
}

/// Lays the global state out for `config` — the one placement function
/// behind every sharded construction and [`ShardedService::reshard`].
/// `slots[i]` holds the endpoints of global transition id `i` (`None` for an
/// expired one, which stays consumed and is placed nowhere).
/// A Z-order grid is laid over the MBR of the live data, every live
/// transition goes to the shard owning its origin's cell, each shard's
/// slice is bulk-built with dense local ids in global id order and made a
/// link by `link(index, store)`. `router` is the set's routing cells: fresh
/// ones for a new service, the running ones on a reshard.
fn place<L, E>(
    config: ShardedConfig,
    planner: RouteStore,
    slots: Vec<Option<(Point, Point)>>,
    router: RouterMetrics,
    mut link: impl FnMut(usize, TransitionStore) -> Result<L, E>,
) -> Result<Shards<L>, E> {
    let shard_count = config.shards.max(1);
    let extent = planner.routes().flat_map(|route| &route.points);
    let extent = extent.chain(slots.iter().flatten().flat_map(|(o, d)| [o, d]));
    let (grid, partition) = partition_by_origin_cell(
        config.rtree,
        extent,
        config.grid_bits,
        slots.iter().copied(),
        shard_count,
    );
    let stores = partition.stores.into_iter().enumerate();
    Ok(Shards {
        grid,
        config: ShardedConfig {
            shards: shard_count,
            grid_bits: grid.bits(),
            ..config
        },
        planner,
        links: stores
            .map(|(index, store)| link(index, store))
            .collect::<Result<_, _>>()?,
        spaces: partition.spaces,
        directory: partition.directory,
        router,
        missed: AtomicBool::new(false),
    })
}

/// The in-process link of a placed shard: its store.
fn in_process_link(_: usize, store: TransitionStore) -> Result<TransitionStore, Infallible> {
    Ok(store)
}

impl<L: ShardLink> Service<Shards<L>> {
    /// Builds a sharded service from raw data over the links `link` makes
    /// of the placed slices. Global ids are assigned exactly as the
    /// unsharded bulk build would (invalid items are skipped and consume no
    /// id); the routes go to the planner and the transitions are placed on
    /// the shards.
    pub fn bulk_build_with<E>(
        config: ShardedConfig,
        routes: Vec<Vec<Point>>,
        transitions: Vec<(Point, Point)>,
        link: impl FnMut(usize, TransitionStore) -> Result<L, E>,
    ) -> Result<Self, E> {
        let (planner, _) = RouteStore::bulk_build(config.rtree, routes);
        let slots = transitions
            .into_iter()
            .filter(|(origin, destination)| origin.is_finite() && destination.is_finite())
            .map(Some)
            .collect();
        let (metrics, router) = ServiceMetrics::new_with_router();
        let shards = place(config, planner, slots, router, link)?;
        Ok(Service::from_parts(shards, config.base, metrics))
    }

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
        self.backing.links.len()
    }

    /// Point-in-time routing counters (executions, dispatches, prunes); the
    /// mean fan-out is `dispatches / executions`.
    pub fn router_stats(&self) -> crate::RouterStats {
        self.backing.router.stats()
    }

    /// The owning shard of a live global transition id.
    pub fn transition_owner(&self, id: TransitionId) -> Option<usize> {
        self.backing.owner(id)
    }

    /// Endpoints of a live global transition id, resolved through the
    /// directory.
    pub fn transition_endpoints(&self, id: TransitionId) -> Option<(Point, Point)> {
        self.backing.endpoints(id)
    }

    /// One past the largest global transition id ever handed out (expired
    /// transitions keep theirs).
    pub fn transition_id_bound(&self) -> usize {
        self.backing.directory.len()
    }
}

impl Service<Shards<TransitionStore>> {
    /// Builds a sharded service from raw data ([`Service::bulk_build_with`]
    /// over in-process shards).
    pub fn bulk_build(
        config: ShardedConfig,
        routes: Vec<Vec<Point>>,
        transitions: Vec<(Point, Point)>,
    ) -> Self {
        let Ok(service) = Self::bulk_build_with(config, routes, transitions, in_process_link);
        service
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
        let Ok(backing) = place(config, planner, slots, router, in_process_link);
        self.backing = backing;
    }

    /// Read access to one shard's transition store (local ids).
    pub fn shard_transitions(&self, index: usize) -> Option<&TransitionStore> {
        self.backing.links.get(index)
    }

    /// Number of live transitions across the shards.
    pub fn num_transitions(&self) -> usize {
        self.backing.links.iter().map(TransitionStore::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rknnt_core::RknntQuery;
    use rknnt_obs::{SpanId, Telemetry, TraceContext, TraceId};

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
        for (gid, slot) in service.backing.directory.iter().enumerate() {
            let at = slot.expect("bulk build of valid data leaves no dead slots");
            let space = &service.backing.spaces[at.shard as usize];
            assert_eq!(space.to_global(at.local), Some(gid as u32));
            assert_eq!(space.to_local(gid as u32), Some(at.local));
        }
        assert_eq!(service.num_transitions(), service.backing.directory.len());
    }

    /// A link that holds its slice but never answers a prune.
    struct Down(TransitionStore);

    impl ShardLink for Down {
        fn insert(&mut self, origin: Point, destination: Point) -> Option<TransitionId> {
            ShardLink::insert(&mut self.0, origin, destination)
        }

        fn expire(&mut self, local: TransitionId) -> bool {
            self.0.remove(local)
        }

        fn endpoints(&self, local: TransitionId) -> Option<(Point, Point)> {
            ShardLink::endpoints(&self.0, local)
        }

        fn prune(
            &self,
            _: &mut QueryScratch,
            _: &FilterSet,
            _: usize,
            _: impl Fn(TransitionId) -> TransitionId,
        ) -> Result<usize, Missed> {
            Err(Missed)
        }

        fn extent(&self) -> Option<Rect> {
            ShardLink::extent(&self.0)
        }
    }

    #[test]
    fn a_missed_shard_is_marked_in_its_span_and_taken_once() {
        let (routes, transitions) = grid_world();
        let config = ShardedConfig::default().with_shards(4);
        let down = |_, store| Ok::<_, Infallible>(Down(store));
        let Ok(service) = Service::bulk_build_with(config, routes, transitions, down);
        let query = RknntQuery::exists(vec![p(0.0, 150.0), p(500.0, 150.0)], 2);
        let ctx = TraceContext::begin(TraceId::from_raw(1), Telemetry::monotonic());
        let root = ctx.begin_span("request", SpanId::NONE);
        let cursor = TraceCursor::new(&ctx, root);
        let (results, _) = service.execute_batch_traced(std::slice::from_ref(&query), cursor);
        ctx.end_span(root);
        let trace = ctx.finish();
        let consulted: Vec<_> = trace
            .spans()
            .iter()
            .filter(|span| span.name() == "shard" && span.attr("pruned") == Some(0))
            .collect();
        assert!(!consulted.is_empty(), "no shard was consulted");
        for span in consulted {
            assert_eq!(span.attr("missed"), Some(1));
            assert_eq!(span.attr("candidates"), None);
        }
        assert!(results[0].transitions.is_empty());
        assert!(service.backing().take_missed());
        assert!(
            !service.backing().take_missed(),
            "taking the mark clears it"
        );
    }
}
