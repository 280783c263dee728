//! The [`QueryService`]: the serving frontend over one flat pair of stores,
//! plus the configuration, update and stats types both services share.
//! Everything durable — `open`, `attach_storage`, `checkpoint` — is the
//! frontend's ([`Service`]); what is left here is what only a flat pair of
//! stores can offer: one prune walk over the one TR-tree.

use crate::frontend::{Backing, Durable, Service};
use crate::metrics::ServiceMetrics;
use crate::monitor::SubscriptionDelta;
use rknnt_core::{prune_into_scratch, FilterSet, QueryScratch};
use rknnt_geo::Point;
use rknnt_index::{
    RouteId, RouteStore, RouteStoreState, TransitionId, TransitionStore, TransitionStoreState,
};
use rknnt_obs::TraceCursor;

/// Tuning knobs for a [`QueryService`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServiceConfig {
    /// Upper bound on worker threads per batch (at least 1 is always used;
    /// a batch never uses more workers than it has groups).
    pub workers: usize,
    /// Result-cache capacity in entries; 0 disables caching.
    pub cache_capacity: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: std::thread::available_parallelism()
                .map(|n| n.get().min(8))
                .unwrap_or(4),
            cache_capacity: 4_096,
        }
    }
}

impl ServiceConfig {
    /// Fixes the worker count.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Fixes the cache capacity (0 disables caching).
    pub fn with_cache_capacity(mut self, capacity: usize) -> Self {
        self.cache_capacity = capacity;
        self
    }
}

/// One incremental store mutation for [`Service::apply_updates`] —
/// the paper's dynamic workload, where "old transitions expire and new
/// transitions arrive" and bus lines occasionally change.
#[derive(Debug, Clone, PartialEq)]
pub enum StoreUpdate {
    /// A new passenger transition arrives.
    InsertTransition {
        /// Origin endpoint.
        origin: Point,
        /// Destination endpoint.
        destination: Point,
    },
    /// An existing transition expires (e.g. the request was served).
    ExpireTransition(TransitionId),
    /// A new route (bus line) is added.
    InsertRoute(Vec<Point>),
    /// An existing route is withdrawn.
    RemoveRoute(RouteId),
}

/// Counters reported by one [`Service::apply_updates`] call.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct UpdateStats {
    /// Updates applied to the stores.
    pub applied: usize,
    /// Updates rejected at the store boundary (non-finite coordinates,
    /// too-short routes, unknown or already-removed ids).
    pub rejected: usize,
    /// Ids assigned to the inserted transitions, in update order.
    pub inserted_transitions: Vec<TransitionId>,
    /// Ids assigned to the inserted routes, in update order.
    pub inserted_routes: Vec<RouteId>,
    /// Cached results dropped by this call: the entries a route insert or
    /// removal found the journal no longer reaching back to. Transition
    /// updates never evict.
    pub evicted_entries: usize,
    /// Cached results still live when the call returned.
    pub retained_entries: usize,
    /// Always 0: no update drops the cache. Kept because the benchmark
    /// harness under `benchmark/` reads it.
    pub full_drops: usize,
    /// (update, subscription) classifications that skipped a subscription
    /// with an exact constant-time test (degenerate query, or an expired
    /// transition outside the result).
    pub subs_unaffected: usize,
    /// (update, subscription) classifications that kept the subscription
    /// current in place: an arrival, a member expiry, a route insert or a
    /// route removal (emitting its delta when the result changed).
    pub subs_stable: usize,
    /// Always 0: no update re-executes a subscription. Kept because the
    /// benchmark harness under `benchmark/` reads it.
    pub subs_reexecuted: usize,
    /// Per-subscription result deltas, in emission order (replaying them
    /// over the pre-call results reproduces the post-call results).
    pub deltas: Vec<SubscriptionDelta>,
    /// WAL frames appended for this call's updates (0 when no storage is
    /// attached). With storage, every submitted update — including ones the
    /// stores later reject — is logged *before* it applies, so this equals
    /// the submitted update count: replay reproduces rejections
    /// deterministically, exactly like the `applied`/`rejected` counters
    /// above.
    pub wal_appends: usize,
    /// Bytes those WAL frames occupied on disk, headers included (0 when no
    /// storage is attached).
    pub wal_bytes: u64,
}

/// The flat backing: one [`RouteStore`] / [`TransitionStore`] pair.
pub struct FlatStores {
    routes: RouteStore,
    transitions: TransitionStore,
}

/// A concurrent batch RkNNT query service over one pair of stores — the
/// shared [`Service`] frontend (batches, cache, updates, subscriptions)
/// over the owned [`RouteStore`] and [`TransitionStore`]. The stores change
/// through [`Service::apply_updates`] only; a rebuilt index is a new
/// [`QueryService::new`] or [`Service::open`].
pub type QueryService = Service<FlatStores>;

impl Backing for FlatStores {
    fn routes(&self) -> &RouteStore {
        &self.routes
    }

    fn prune(
        &self,
        scratch: &mut QueryScratch,
        filter: &FilterSet,
        k: usize,
        _trace: TraceCursor<'_>,
    ) -> usize {
        prune_into_scratch(&self.transitions, filter, k, false, scratch, |id| id)
    }

    fn insert_transition(&mut self, origin: Point, destination: Point) -> Option<TransitionId> {
        self.transitions.insert(origin, destination)
    }

    fn expire_transition(&mut self, id: TransitionId) -> bool {
        self.transitions.remove(id)
    }

    fn routes_mut(&mut self) -> &mut RouteStore {
        &mut self.routes
    }

    fn endpoints(&self, id: TransitionId) -> Option<(Point, Point)> {
        self.transitions.get(id).map(|t| (t.origin, t.destination))
    }
}

impl Durable for FlatStores {
    type Config = ServiceConfig;

    fn export_state(&self) -> (RouteStoreState, TransitionStoreState) {
        (self.routes.export_state(), self.transitions.export_state())
    }

    fn from_stores(
        routes: RouteStore,
        transitions: TransitionStore,
        config: ServiceConfig,
    ) -> QueryService {
        QueryService::new(routes, transitions, config)
    }
}

impl Service<FlatStores> {
    /// Creates a service over the given stores.
    pub fn new(routes: RouteStore, transitions: TransitionStore, config: ServiceConfig) -> Self {
        Service::from_parts(
            FlatStores {
                routes,
                transitions,
            },
            config,
            ServiceMetrics::default(),
        )
    }

    /// The configuration the service was built with.
    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    /// Read access to the transition store.
    pub fn transitions(&self) -> &TransitionStore {
        &self.backing.transitions
    }
}
