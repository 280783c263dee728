//! The serving frontend, written once: [`Service<B>`] owns the result cache,
//! the subscription registry, the storage handle and the metric catalog, and
//! runs the only copy of the batch pipeline, the worker pool, the update
//! skeleton, the subscription surface and durability (`open` /
//! `attach_storage` / `checkpoint`). What it serves
//! *from* is a [`Backing`]: one flat pair of stores
//! ([`crate::QueryService`]) or the complete routes plus the transitions
//! spread over spatial shards ([`crate::ShardedService`]).
//!
//! Durability is the frontend's because it is layout-blind: every update is
//! logged in global form before any backing sees it, a checkpoint stores
//! the global state a backing exports, and recovery hands a backing the
//! recovered stores to lay out as its configuration says. One directory
//! format, one WAL, whatever serves from it.

use crate::batch::{form_groups, run_group, BatchStats, Group, GroupOutput};
use crate::cache::{CacheKey, CacheStats, ResultCache};
use crate::journal::{admit_candidates, recheck_members, TransitionOp};
use crate::metrics::ServiceMetrics;
use crate::monitor::{SubscriptionDelta, SubscriptionId, SubscriptionRegistry, UpdateEffect};
use crate::service::{ServiceConfig, StoreUpdate, UpdateStats};
use rknnt_core::{FilterSet, QueryScratch, RknntQuery, RknntResult};
use rknnt_geo::Point;
use rknnt_index::{
    RouteId, RouteStore, RouteStoreState, TransitionId, TransitionStore, TransitionStoreState,
};
use rknnt_obs::{MetricsSnapshot, TraceCursor};
use rknnt_storage::{Failpoints, Storage, StorageConfig, StorageError, StorageStats};
use std::path::Path;
use std::sync::{Arc, Mutex};

/// Seed of the result cache's hash function.
const CACHE_SEED: u64 = 0x5eed;

/// What a [`Service`] serves from — exactly the parts of serving that differ
/// between one flat pair of stores and a set of shards. Everything else
/// (cache, grouping, coalescing, filter construction and sharing,
/// verification, worker pool, WAL append, checkpoint and recovery, eviction,
/// subscription upkeep, stats) is the frontend's and exists once.
///
/// Sealed: the trait lives in a private module, so only this crate's two
/// backings implement it.
pub trait Backing: Sync + Sized {
    /// What building the backing takes beyond the data: the frontend's
    /// [`ServiceConfig`] itself, or a configuration that embeds one.
    type Config;

    /// The complete route set answers are defined over. Filters are built,
    /// candidates verified and journalled arrivals admitted against it;
    /// global route ids are its slot indexes.
    fn routes(&self) -> &RouteStore;

    /// The prune step of one fresh, non-degenerate query: walks the
    /// transition store(s) against `filter` — the frontend's filter set for
    /// the query's `(route, k)` — and appends every surviving endpoint, under
    /// its global transition id, to `scratch`'s candidate buffer. Returns
    /// the number of TR-tree nodes pruned without being opened. The
    /// candidates must be exactly the endpoints `filter` does not filter
    /// over the whole data set, so that verifying them answers the query.
    fn prune(
        &self,
        scratch: &mut QueryScratch,
        filter: &FilterSet,
        k: usize,
        trace: TraceCursor<'_>,
    ) -> usize;

    /// Inserts a transition; the (global) id it consumed, or `None` when the
    /// stores reject it (no id consumed).
    fn insert_transition(&mut self, origin: Point, destination: Point) -> Option<TransitionId>;

    /// Removes a live transition; `false` for an unknown or dead id.
    fn expire_transition(&mut self, id: TransitionId) -> bool;

    /// Inserts a route; the (global) id it consumed, or `None` when rejected.
    fn insert_route(&mut self, points: Vec<Point>) -> Option<RouteId>;

    /// Removes a live route; `false` for an unknown or dead id.
    fn remove_route(&mut self, id: RouteId) -> bool;

    /// The endpoints of a live (global) transition id; `None` for an
    /// unknown or expired one. A route insert resolves the members it
    /// rechecks through it, a route removal the candidates it admits.
    fn endpoints(&self, id: TransitionId) -> Option<(Point, Point)>;

    /// The complete logical state in *global* form — the planner-wide route
    /// slots and every transition slot in global id order, dead ones
    /// included — which is what a snapshot stores whatever the backing.
    fn export_state(&self) -> (RouteStoreState, TransitionStoreState);

    /// A service over the given stores (empty, or recovered from a
    /// snapshot in the global form [`Backing::export_state`] writes): no
    /// cached results, no subscriptions, no storage. How the backing lays
    /// the data out is `config`'s call alone and never changes an answer.
    fn from_stores(
        routes: RouteStore,
        transitions: TransitionStore,
        config: Self::Config,
    ) -> Service<Self>;
}

/// A concurrent batch RkNNT query service over a (sealed) backing — use it
/// through its two instantiations, [`crate::QueryService`] and
/// [`crate::ShardedService`].
///
/// Queries execute against a consistent snapshot because store mutation
/// requires `&mut self`, which the borrow checker serialises against every
/// in-flight `&self` batch. The stores of a live service change one way:
/// [`Service::apply_updates`] / [`Service::try_apply_updates`] (and the WAL
/// replay inside [`Service::open`]) mutate them in place, update by update;
/// cached results follow transition churn through the journal, route
/// inserts through a member recheck and route removals through the removed
/// route's own RkNNT answer. A rebuilt index is a new service.
pub struct Service<B: Backing> {
    pub(crate) backing: B,
    /// Worker count and cache sizing of the pipeline.
    pub(crate) config: ServiceConfig,
    cache: Mutex<ResultCache>,
    monitor: SubscriptionRegistry,
    /// The WAL + snapshot directory updates are logged to before they
    /// apply.
    storage: Option<Storage>,
    metrics: ServiceMetrics,
}

impl<B: Backing> Service<B> {
    /// Assembles a service over `backing` with an empty cache, no
    /// subscriptions and no storage.
    pub(crate) fn from_parts(backing: B, config: ServiceConfig, metrics: ServiceMetrics) -> Self {
        Service {
            backing,
            config,
            cache: Mutex::new(ResultCache::with_counters(
                config.cache_capacity,
                CACHE_SEED,
                metrics.cache.clone(),
            )),
            monitor: SubscriptionRegistry::default(),
            storage: None,
            metrics,
        }
    }

    // ------------------------------------------------------------------
    // Accessors.
    // ------------------------------------------------------------------

    /// Read access to the complete route store (for a sharded service: the
    /// planner, whose slot indexes are the global route ids).
    pub fn routes(&self) -> &RouteStore {
        self.backing.routes()
    }

    /// Result-cache counter snapshot.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.lock().expect("cache lock").stats()
    }

    /// Number of results currently cached.
    pub fn cache_len(&self) -> usize {
        self.cache.lock().expect("cache lock").len()
    }

    /// The service's metric catalog: registry access, per-stage latency
    /// histograms and the enable switch.
    pub fn metrics(&self) -> &ServiceMetrics {
        &self.metrics
    }

    /// A point-in-time copy of every registered metric; diff two snapshots
    /// to isolate an interval.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.metrics.snapshot()
    }

    /// The current metrics in the text exposition format.
    pub fn metrics_text(&self) -> String {
        self.metrics.render_text()
    }

    /// Turns untraced span timing and histogram recording on or off.
    /// Counters stay live, so the exact per-call
    /// [`BatchStats`]/[`UpdateStats`] counts keep working; the wall-clock
    /// `timings` fields of an untraced call read zero while disabled.
    pub fn set_metrics_enabled(&self, on: bool) {
        self.metrics.set_enabled(on);
    }

    /// Whether a storage directory is attached.
    pub fn has_storage(&self) -> bool {
        self.storage.is_some()
    }

    /// Storage counters, when storage is attached.
    pub fn storage_stats(&self) -> Option<StorageStats> {
        self.storage.as_ref().map(Storage::stats)
    }

    /// Arms deterministic fault injection on the attached storage's WAL
    /// paths (`storage.wal.*` sites); a no-op without storage. An injected
    /// append failure surfaces through [`Service::try_apply_updates`].
    pub fn set_storage_failpoints(&mut self, failpoints: Arc<Failpoints>) {
        if let Some(storage) = &mut self.storage {
            storage.set_failpoints(failpoints);
        }
    }

    // ------------------------------------------------------------------
    // Durability.
    // ------------------------------------------------------------------

    /// Opens a durable service from a storage directory: loads the latest
    /// valid snapshot, replays the WAL tail through the normal update path
    /// (so cache state and future subscriptions come up consistent for
    /// free) and attaches the directory for further logging. An empty or
    /// brand-new directory yields an empty service.
    ///
    /// The directory holds one format whatever wrote it — a snapshot of the
    /// global state plus a WAL of global-form [`StoreUpdate`]s — so a
    /// directory written by either service opens as the other, and `config`
    /// is authoritative: a sharded service lays the recovered data out for
    /// the shard count and grid it is opened with, not the ones it was
    /// written under.
    ///
    /// Recovery tolerates a torn final WAL frame (a crash mid-append drops
    /// exactly the un-committed record, reported via
    /// [`StorageStats::torn_tail`]); every other form of damage — bad
    /// magic, checksum mismatches, undecodable records, truncation before
    /// the final frame — is a typed [`StorageError`].
    pub fn open(
        dir: &Path,
        config: B::Config,
        storage_config: StorageConfig,
    ) -> Result<(Self, StorageStats), StorageError> {
        let (mut storage, recovery) = Storage::open(dir, storage_config)?;
        let (routes, transitions) = recovery.stores.unwrap_or_default();
        let mut service = B::from_stores(routes, transitions, config);
        storage.set_instruments(service.metrics.storage_instruments());
        let mut updates = Vec::with_capacity(recovery.tail.len());
        for record in &recovery.tail {
            updates.push(StoreUpdate::from_wal_record(record).map_err(|e| {
                StorageError::Corrupt {
                    path: dir.to_path_buf(),
                    offset: None,
                    detail: format!("undecodable WAL record: {e}"),
                }
            })?);
        }
        if !updates.is_empty() {
            // Replay mutates the stores exactly like the original calls did
            // (ids are dense slot indexes, and the snapshot preserved dead
            // slots) — but must not re-append to the WAL.
            service.replay(updates);
        }
        let stats = storage.stats();
        service.storage = Some(storage);
        Ok((service, stats))
    }

    /// Attaches a storage directory to an in-memory service and writes the
    /// initial checkpoint, making the current state durable. The directory
    /// must not already hold snapshot or WAL data
    /// ([`StorageError::DirectoryNotEmpty`]) — recover existing state with
    /// [`Service::open`] instead.
    pub fn attach_storage(
        &mut self,
        dir: &Path,
        storage_config: StorageConfig,
    ) -> Result<StorageStats, StorageError> {
        let (mut storage, recovery) = Storage::open(dir, storage_config)?;
        if recovery.found_existing {
            return Err(StorageError::DirectoryNotEmpty {
                dir: dir.to_path_buf(),
            });
        }
        storage.set_instruments(self.metrics.storage_instruments());
        // Checkpoint *before* attaching: if the initial snapshot cannot be
        // written there is no durable baseline, and leaving the directory
        // attached would let the WAL grow against state recovery could
        // never reconstruct (replay onto empty stores).
        let (routes, transitions) = self.backing.export_state();
        let stats = storage.checkpoint(routes, transitions)?;
        self.storage = Some(storage);
        Ok(stats)
    }

    /// Writes a new snapshot covering every logged update and truncates the
    /// now-obsolete WAL segments. Requires attached storage
    /// ([`StorageError::NotAttached`] otherwise).
    pub fn checkpoint(&mut self) -> Result<StorageStats, StorageError> {
        let storage = self.storage.as_mut().ok_or(StorageError::NotAttached)?;
        let (routes, transitions) = self.backing.export_state();
        storage.checkpoint(routes, transitions)
    }

    // ------------------------------------------------------------------
    // Query path.
    // ------------------------------------------------------------------

    /// Answers one query (through the cache; see
    /// [`Service::execute_batch`] for the batched path).
    pub fn execute(&self, query: &RknntQuery) -> RknntResult {
        let (mut results, _) = self.execute_batch(std::slice::from_ref(query));
        results.pop().expect("one query in, one result out")
    }

    /// Executes a batch of queries and returns one result per query, in
    /// input order, plus the batch counters.
    ///
    /// Pipeline: cache lookup → spatial grouping of the misses → group
    /// execution across up to `workers` scoped threads (groups are dealt
    /// round-robin; a worker owns its scratch, builds one filter per
    /// distinct `(route, k)` of a group, has the backing prune against it,
    /// verifies the candidates and coalesces exact duplicates) →
    /// deterministic merge + cache insertion.
    ///
    /// The returned transition sets are byte-identical to executing every
    /// query sequentially with `FilterRefineEngine::execute`, and therefore
    /// every engine (`crates/core/tests/engine_equivalence.rs`), over the
    /// whole data set: grouping, sharing and sharding only decide *where*
    /// and *how often* work runs, never *what* it computes.
    pub fn execute_batch(&self, queries: &[RknntQuery]) -> (Vec<RknntResult>, BatchStats) {
        self.execute_batch_traced(queries, TraceCursor::NONE)
    }

    /// [`Service::execute_batch`] with request tracing: when `trace`
    /// records, a `batch` span is opened under the cursor's parent and each
    /// pipeline phase lands as a child span (`cache_lookup`,
    /// `grouping`, `execution`, `finalize`) carrying the batch counters as
    /// attributes; below `execution` come one `worker` span per worker, one
    /// `group` span per group with a `filter_build` child per fresh filter
    /// construction, and — on a sharded backing — one `shard` span per
    /// shard a routed query considered.
    ///
    /// Tracing never changes what is computed: results are byte-identical
    /// to the untraced call (asserted by `instrumentation_overhead`),
    /// and the per-phase span durations are the *same* measurements the
    /// returned [`BatchStats::timings`] report — each phase is one
    /// [`rknnt_obs::Stage::enter`] pass.
    pub fn execute_batch_traced(
        &self,
        queries: &[RknntQuery],
        trace: TraceCursor<'_>,
    ) -> (Vec<RknntResult>, BatchStats) {
        let mut stats = BatchStats {
            queries: queries.len(),
            ..BatchStats::default()
        };
        let mut slots: Vec<Option<RknntResult>> = vec![None; queries.len()];
        if queries.is_empty() {
            return (Vec::new(), stats);
        }
        let batch_span = trace.begin("batch");
        let bt = trace.at(batch_span);
        self.metrics.batches.inc();
        self.metrics.queries.add(queries.len() as u64);
        // Counter baseline the work counts are diffed from. Concurrent
        // batches each see the union of what happened during their own
        // window (the registry totals stay exact); single-batch callers see
        // exactly their own counts.
        let base = self.metrics.batch_view();

        // Phase 1: cache lookup.
        let span = self.metrics.stage_lookup.enter(bt);
        let caching = self.config.cache_capacity > 0;
        let mut keys = self.lookup_phase(queries, &mut slots);
        let miss_indexes: Vec<usize> = (0..queries.len()).filter(|&i| slots[i].is_none()).collect();
        if caching {
            self.metrics.cache.misses.add(miss_indexes.len() as u64);
        }
        // Counted, not diffed from `service.cache.hits`: a concurrent
        // batch's hits are not this batch's.
        stats.cache_hits = queries.len() - miss_indexes.len();
        stats.timings.lookup = span.finish_with(&[
            ("queries", queries.len() as u64),
            ("cache_hits", stats.cache_hits as u64),
        ]);

        // Phase 2: spatial grouping of the misses.
        let span = self.metrics.stage_grouping.enter(bt);
        let groups = form_groups(queries, &miss_indexes);
        stats.groups = groups.len();
        self.metrics.groups.add(groups.len() as u64);
        stats.timings.grouping = span.finish_with(&[("groups", groups.len() as u64)]);

        // Phase 3: execution over the worker pool.
        let span = self.metrics.stage_execution.enter(bt);
        let (computed, workers_used) = self.run_groups(&groups, span.cursor());
        stats.workers_used = workers_used;
        stats.timings.execution = span.finish_with(&[("workers", workers_used as u64)]);

        // Phase 4: merge into input order and feed the cache.
        let span = self.metrics.stage_finalize.enter(bt);
        if caching {
            // The stores cannot have changed since the lookup (that needs
            // `&mut self`), so every computed result is current.
            let mut cache = self.cache.lock().expect("cache lock");
            for (index, result) in computed {
                if let Some(key) = keys[index].take() {
                    cache.insert(key, &queries[index], result.clone());
                }
                slots[index] = Some(result);
            }
        } else {
            for (index, result) in computed {
                slots[index] = Some(result);
            }
        }
        let results: Vec<RknntResult> = slots
            .into_iter()
            .map(|slot| slot.expect("every query produced a result"))
            .collect();
        let view = self.metrics.batch_view();
        stats.filter_constructions =
            (view.filter_constructions - base.filter_constructions) as usize;
        stats.filters_saved = (view.filters_saved - base.filters_saved) as usize;
        stats.duplicates_coalesced =
            (view.duplicates_coalesced - base.duplicates_coalesced) as usize;
        stats.timings.finalize =
            span.finish_with(&[("filter_constructions", stats.filter_constructions as u64)]);
        trace.end_with(
            batch_span,
            &[
                ("queries", queries.len() as u64),
                ("cache_hits", stats.cache_hits as u64),
                ("groups", stats.groups as u64),
            ],
        );
        (results, stats)
    }

    /// Answers `query` from the cache alone when its answer is resident: the
    /// cached entry brought current by journal replay, which is exactly the
    /// answer [`Service::execute_batch`] would return. A hit moves exactly
    /// what a one-query batch that hits moves (`service.batch.count`,
    /// `service.batch.queries`, `service.cache.hits`, one `cache_lookup`
    /// pass, recorded as a span under `trace`). A miss moves nothing and
    /// leaves no span: the batch that then answers the query counts it
    /// once.
    pub fn lookup(&self, query: &RknntQuery, trace: TraceCursor<'_>) -> Option<RknntResult> {
        let span = self.metrics.stage_lookup.enter(trace);
        let mut slot = [None];
        self.lookup_phase(std::slice::from_ref(query), &mut slot);
        let [Some(result)] = slot else {
            span.cancel();
            return None;
        };
        self.metrics.batches.inc();
        self.metrics.queries.inc();
        span.finish_with(&[("queries", 1), ("cache_hits", 1)]);
        Some(result)
    }

    /// The cache-lookup phase, one copy for [`Service::lookup`] and the
    /// batch path: fills the slot of every query whose answer is resident
    /// and returns each query's cache key (`None` with caching off). Counts
    /// the hits; a miss is the caller's to count.
    fn lookup_phase(
        &self,
        queries: &[RknntQuery],
        slots: &mut [Option<RknntResult>],
    ) -> Vec<Option<CacheKey>> {
        if self.config.cache_capacity == 0 {
            return vec![None; queries.len()];
        }
        let mut cache = self.cache.lock().expect("cache lock");
        let routes = self.backing.routes();
        queries
            .iter()
            .zip(slots)
            .map(|(query, slot)| {
                let key = CacheKey::of(query);
                *slot = cache.get_resident(&key, routes);
                Some(key)
            })
            .collect()
    }

    /// Executes pre-formed groups over the worker pool, returning the
    /// outputs and the worker count used. Groups are dealt round-robin to
    /// one scoped thread per worker and joined in worker order (determinism
    /// does not depend on it — results carry their batch index — but a
    /// stable merge order is nice to have); a single worker runs in-line
    /// with no thread spawn. Work counters go straight to the registry
    /// cells (they are atomic, so workers increment them directly).
    fn run_groups(
        &self,
        groups: &[Group<'_>],
        trace: TraceCursor<'_>,
    ) -> (Vec<GroupOutput>, usize) {
        if groups.is_empty() {
            return (Vec::new(), 0);
        }
        let workers = self.config.workers.max(1).min(groups.len());
        // Each worker owns a scratch (see `rknnt_core::scratch` for the
        // ownership rules) and reuses it across every query it runs, under
        // its own "worker" span. The trace slab is behind a mutex, so
        // concurrent span pushes interleave safely (order within the slab is
        // scheduling-dependent, parenthood is not).
        let run_worker = |w: usize| -> Vec<GroupOutput> {
            let assigned: Vec<&Group> = groups.iter().skip(w).step_by(workers).collect();
            let span = trace.begin("worker");
            let child = trace.at(span);
            let mut scratch = QueryScratch::new();
            let mut out = Vec::new();
            for group in &assigned {
                run_group(
                    &self.backing,
                    &mut scratch,
                    group,
                    &mut out,
                    &self.metrics,
                    child,
                );
            }
            trace.end_with(
                span,
                &[("worker", w as u64), ("groups", assigned.len() as u64)],
            );
            out
        };
        let computed = if workers == 1 {
            run_worker(0)
        } else {
            let run_worker = &run_worker;
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..workers)
                    .map(|w| scope.spawn(move || run_worker(w)))
                    .collect();
                handles
                    .into_iter()
                    .flat_map(|h| h.join().expect("service worker panicked"))
                    .collect()
            })
        };
        (computed, workers)
    }

    /// Executes queries through grouping + the worker pool, bypassing the
    /// result cache in both directions. Used for a new subscription and for
    /// a route removal's candidate query, neither of which belongs in the
    /// LRU.
    fn execute_uncached(&self, queries: &[RknntQuery]) -> Vec<RknntResult> {
        let miss_indexes: Vec<usize> = (0..queries.len()).collect();
        let groups = form_groups(queries, &miss_indexes);
        let (computed, _) = self.run_groups(&groups, TraceCursor::NONE);
        let mut slots: Vec<Option<RknntResult>> = vec![None; queries.len()];
        for (index, result) in computed {
            slots[index] = Some(result);
        }
        slots
            .into_iter()
            .map(|slot| slot.expect("every query produced a result"))
            .collect()
    }

    // ------------------------------------------------------------------
    // Subscriptions.
    // ------------------------------------------------------------------

    /// Registers a standing query. The result is computed immediately (and
    /// readable via [`Service::subscription_result`]); from then on every
    /// [`Service::apply_updates`] call keeps it current and reports changes
    /// as [`SubscriptionDelta`]s. Ids, results and delta streams are
    /// byte-identical across backings over the same data.
    pub fn subscribe(&mut self, query: RknntQuery) -> SubscriptionId {
        let result = self
            .execute_uncached(std::slice::from_ref(&query))
            .pop()
            .expect("one query in, one result out");
        self.monitor.insert(query, result.transitions)
    }

    /// Drops a subscription. Returns `false` for an unknown or already
    /// dropped id.
    pub fn unsubscribe(&mut self, id: SubscriptionId) -> bool {
        self.monitor.remove(id)
    }

    /// Number of live subscriptions.
    pub fn subscriptions(&self) -> usize {
        self.monitor.len()
    }

    /// The standing query behind a subscription.
    pub fn subscription_query(&self, id: SubscriptionId) -> Option<&RknntQuery> {
        self.monitor.get(id).map(|sub| &sub.query)
    }

    /// The subscription's current result: the qualifying (global)
    /// transition ids, sorted ascending — always byte-identical to
    /// executing the standing query against the current stores.
    pub fn subscription_result(&self, id: SubscriptionId) -> Option<&[TransitionId]> {
        self.monitor.get(id).map(|sub| sub.result.as_slice())
    }

    // ------------------------------------------------------------------
    // Update path.
    // ------------------------------------------------------------------

    /// Applies incremental store updates in order, keeping every cached and
    /// standing result equal to what the post-update stores answer.
    ///
    /// A **transition arrival or expiry** is only appended to the cache's
    /// journal — O(1) however many entries are cached, nothing is evicted —
    /// and each entry replays what it missed when it is next read: an
    /// arrival through the exact admission kernel, an expiry as a membership
    /// test. A **route insert** brings every entry current and re-judges,
    /// by the same admission kernel, exactly the members the new route comes
    /// strictly closer to than the query (an insert can remove only those,
    /// and adds none). A **route removal** runs one uncached query — the
    /// removed route's own `RkNNT_∃` at the largest `k` cached or watched,
    /// which holds every transition the removal can add to any result —
    /// brings every entry current and judges, by the same kernel, exactly
    /// its non-members with an endpoint the removed route was strictly
    /// closer to than the query. No update drops the cache.
    ///
    /// `&mut self` serialises the call against in-flight batches, and
    /// retained entries remain byte-identical to what a freshly built
    /// service over the post-update stores would answer — asserted by the
    /// churn determinism suite in `tests/service_churn.rs`.
    ///
    /// Live subscriptions take the same steps eagerly, in place, and are
    /// never re-executed; the returned [`UpdateStats::deltas`] describe
    /// every subscription result change (see [`crate::monitor`]).
    ///
    /// With storage attached the batch is appended to the write-ahead log —
    /// one frame per update, one fsync per call — *before* anything
    /// applies, so a crash at any point replays to exactly a batch
    /// boundary. A WAL I/O failure panics here (durability must not be
    /// silently dropped); use [`Service::try_apply_updates`] to handle it
    /// instead.
    ///
    /// # Panics
    /// Panics when storage is attached and the WAL append fails.
    pub fn apply_updates(&mut self, updates: Vec<StoreUpdate>) -> UpdateStats {
        self.try_apply_updates(updates, TraceCursor::NONE)
            .expect("WAL append failed (use try_apply_updates to handle storage errors)")
    }

    /// Fallible form of [`Service::apply_updates`], with optional request
    /// tracing: returns the WAL append error instead of panicking, and when
    /// `trace` records the append (the update path's dominant latency
    /// source) gets a `wal_append` span carrying the frame count and
    /// payload bytes.
    ///
    /// This is the one site that mutates a live service's stores, and with
    /// storage attached the `Storage::append` below precedes it: every
    /// reachable state is the snapshot plus the WAL of [`StoreUpdate`]s.
    ///
    /// When it errors, the stores are untouched and the WAL rolls the
    /// failed batch's bytes back (a retry with the same or different
    /// updates is safe); if even the rollback fails, the log poisons itself
    /// and every further logged update errors rather than risk corrupting
    /// the stream.
    pub fn try_apply_updates(
        &mut self,
        updates: Vec<StoreUpdate>,
        trace: TraceCursor<'_>,
    ) -> Result<UpdateStats, StorageError> {
        // Read the counter baseline *before* the WAL append so the frames
        // and bytes the storage instruments record land in this call's diff.
        let base = self.metrics.update_view();
        if let Some(storage) = &mut self.storage {
            let (records, bytes) = crate::durable::wal_records(&updates);
            let span = trace.begin("wal_append");
            storage.append(&records)?;
            trace.end_with(span, &[("frames", records.len() as u64), ("bytes", bytes)]);
        }
        Ok(self.apply_logged(updates, base))
    }

    /// The update path proper for updates that are already durable: WAL
    /// replay during `open` must not re-append what it replays.
    fn replay(&mut self, updates: Vec<StoreUpdate>) -> UpdateStats {
        let base = self.metrics.update_view();
        self.apply_logged(updates, base)
    }

    /// Applies the updates and builds the [`UpdateStats`] by diffing the
    /// registry counters against `base` — updates hold `&mut self`, so the
    /// window is exclusive and the diff exact.
    fn apply_logged(
        &mut self,
        updates: Vec<StoreUpdate>,
        base: crate::metrics::UpdateCounterView,
    ) -> UpdateStats {
        let mut stats = UpdateStats::default();
        for update in updates {
            // Mutate the stores, then hand the store-facing view of what
            // happened to the cache and the subscriptions — both always see
            // post-update stores. A store-boundary rejection consumes no id
            // and touches nothing.
            match update {
                StoreUpdate::InsertTransition {
                    origin,
                    destination,
                } => match self.backing.insert_transition(origin, destination) {
                    Some(id) => {
                        stats.inserted_transitions.push(id);
                        self.applied(
                            UpdateEffect::Transition(TransitionOp::Arrived {
                                id,
                                origin,
                                destination,
                            }),
                            &mut stats.deltas,
                        );
                    }
                    None => self.metrics.update_rejected.inc(),
                },
                StoreUpdate::ExpireTransition(id) => {
                    if self.backing.expire_transition(id) {
                        self.applied(
                            UpdateEffect::Transition(TransitionOp::Expired(id)),
                            &mut stats.deltas,
                        );
                    } else {
                        self.metrics.update_rejected.inc();
                    }
                }
                StoreUpdate::InsertRoute(points) => match self.backing.insert_route(points) {
                    Some(id) => {
                        stats.inserted_routes.push(id);
                        self.applied(UpdateEffect::RouteInserted(id), &mut stats.deltas);
                    }
                    None => self.metrics.update_rejected.inc(),
                },
                StoreUpdate::RemoveRoute(id) => {
                    // The stores forget the points; the closer test needs them.
                    let removed = self.backing.routes().route_points(id).to_vec();
                    if self.backing.remove_route(id) {
                        let candidates = self.removal_candidates(&removed);
                        self.applied(
                            UpdateEffect::RouteRemoved {
                                removed: &removed,
                                candidates: &candidates,
                            },
                            &mut stats.deltas,
                        );
                    } else {
                        self.metrics.update_rejected.inc();
                    }
                }
            }
        }
        stats.retained_entries = self.cache.get_mut().expect("cache lock").len();
        let view = self.metrics.update_view();
        stats.applied = (view.applied - base.applied) as usize;
        stats.rejected = (view.rejected - base.rejected) as usize;
        stats.evicted_entries = (view.evicted_entries - base.evicted_entries) as usize;
        stats.subs_unaffected = (view.subs_unaffected - base.subs_unaffected) as usize;
        stats.subs_stable = (view.subs_stable - base.subs_stable) as usize;
        stats.wal_appends = (view.wal_appends - base.wal_appends) as usize;
        stats.wal_bytes = view.wal_bytes - base.wal_bytes;
        stats
    }

    /// The candidates of the removal of the route `removed` (its points)
    /// from the current stores: `RkNNT_∃(removed, k_max)`, `k_max` the
    /// largest `k` of a cached or watched non-degenerate query — every
    /// transition the removal can bring into any of their results (see
    /// [`crate::journal`]). Empty, and nothing executed, when there is no
    /// such query.
    fn removal_candidates(&mut self, removed: &[Point]) -> Vec<TransitionId> {
        let cached = self.cache.get_mut().expect("cache lock").max_k();
        let k_max = cached.max(self.monitor.max_k());
        if k_max == 0 {
            return Vec::new();
        }
        let query = RknntQuery::exists(removed.to_vec(), k_max);
        self.execute_uncached(std::slice::from_ref(&query))
            .pop()
            .expect("one query in, one result out")
            .transitions
    }

    /// Bookkeeping for one update the stores accepted: count it, journal it
    /// (transition ops) or take the route change's step on every cached
    /// entry — recheck the members a new route comes strictly closer to,
    /// admit the candidates of a removal — and bring every live subscription
    /// up to date.
    fn applied(&mut self, effect: UpdateEffect<'_>, deltas: &mut Vec<SubscriptionDelta>) {
        self.metrics.update_applied.inc();
        let cache = self.cache.get_mut().expect("cache lock");
        let backing = &self.backing;
        let routes = backing.routes();
        let endpoints = |id| backing.endpoints(id);
        match effect {
            UpdateEffect::Transition(op) => cache.record(op),
            UpdateEffect::RouteInserted(id) => {
                let inserted = routes.route_points(id);
                cache.route_changed(routes, |query, result, scratch| {
                    recheck_members(query, result, inserted, routes, endpoints, scratch);
                });
            }
            UpdateEffect::RouteRemoved {
                removed,
                candidates,
            } => cache.route_changed(routes, |query, result, scratch| {
                admit_candidates(
                    query, result, removed, candidates, routes, endpoints, scratch,
                );
            }),
        }
        self.monitor
            .classify_update(effect, routes, endpoints, &self.metrics, deltas);
    }
}
