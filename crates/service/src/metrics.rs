//! The service's metric catalog: every counter, gauge and stage histogram,
//! registered once per [`QueryService`] and threaded through the pipeline as
//! preallocated cells.
//!
//! Metric names are stable ids, grouped by layer:
//!
//! | prefix | what |
//! |---|---|
//! | `service.batch.*` | batch admission: queries, batches, groups, filter sharing, coalescing |
//! | `service.cache.*` | result-cache counters: hits, misses, insertions, LRU evictions, targeted evictions (entries the journal no longer reaches) |
//! | `service.stage.*_ns` | per-stage latency histograms: `cache_lookup`, `grouping`, `execution`, `finalize`, plus per fresh query `filter` (filter lookup or construction + prune) and `verify` |
//! | `service.update.*` | update admission: applied, rejected |
//! | `service.subs.*` | subscription classification outcomes: unaffected, stable |
//! | `storage.wal.*` | WAL appends, bytes, and `fsync_ns` latency |
//! | `storage.checkpoint*` | checkpoint duration and the `checkpoint_stall_ns` high-water gauge |
//! | `router.*` | sharded routing: `fanout` histogram (shards consulted per fresh execution), `shards_pruned`, `dispatches`, `executions` |
//!
//! The catalog does not depend on the shard count: per-shard load is the
//! `shard` trace span (`shard`, `pruned`, `candidates` attributes), not a
//! counter per shard.
//!
//! The public stats structs ([`BatchStats`](crate::BatchStats),
//! [`UpdateStats`](crate::UpdateStats)) are populated by diffing cheap
//! fixed-size counter views around each call rather than by hand-threaded
//! field increments; the views are plain `u64` arrays of relaxed loads, so
//! the hot path never snapshots histograms or allocates.
//!
//! [`QueryService`]: crate::QueryService

use crate::cache::CacheCounters;
use rknnt_obs::{Counter, Gauge, Histogram, MetricsRegistry, MetricsSnapshot, Stage};
use rknnt_storage::StorageInstruments;
use std::sync::Arc;
use std::time::Duration;

/// All metric cells of one [`crate::QueryService`], plus the registry that
/// exposes them.
///
/// Obtained via [`crate::QueryService::metrics`]. Counters and gauges are
/// always live (the exact per-call stats depend on them); untraced span
/// timing and histogram recording can be switched off with
/// [`ServiceMetrics::set_enabled`] — the `instrumentation_overhead` experiment
/// holds their enabled cost to ≤5% of throughput.
#[derive(Debug)]
pub struct ServiceMetrics {
    registry: MetricsRegistry,

    // Batch admission.
    pub(crate) queries: Counter,
    pub(crate) batches: Counter,
    pub(crate) groups: Counter,
    pub(crate) filter_constructions: Counter,
    pub(crate) filters_saved: Counter,
    pub(crate) duplicates_coalesced: Counter,

    // Result cache (shared cells with the cache itself).
    pub(crate) cache: CacheCounters,

    // Pipeline stages.
    pub(crate) stage_lookup: Stage,
    pub(crate) stage_grouping: Stage,
    pub(crate) stage_execution: Stage,
    pub(crate) stage_finalize: Stage,
    pub(crate) stage_filter: Stage,
    pub(crate) verify_ns: Arc<Histogram>,

    // Update path.
    pub(crate) update_applied: Counter,
    pub(crate) update_rejected: Counter,

    // Subscription classification.
    pub(crate) subs_unaffected: Counter,
    pub(crate) subs_stable: Counter,

    // Storage (incremented by the storage engine through
    // [`StorageInstruments`]).
    pub(crate) wal_appends: Counter,
    pub(crate) wal_bytes: Counter,
    wal_fsync: Stage,
    checkpoint: Stage,
    checkpoint_stall: Gauge,
}

impl Default for ServiceMetrics {
    /// Registers the full catalog against a fresh registry with production
    /// (monotonic) telemetry.
    fn default() -> Self {
        let mut registry = MetricsRegistry::new();
        let cache = CacheCounters {
            hits: registry.counter("service.cache.hits"),
            misses: registry.counter("service.cache.misses"),
            insertions: registry.counter("service.cache.insertions"),
            evictions: registry.counter("service.cache.evictions"),
            targeted_evictions: registry.counter("service.cache.targeted_evictions"),
        };
        ServiceMetrics {
            queries: registry.counter("service.batch.queries"),
            batches: registry.counter("service.batch.count"),
            groups: registry.counter("service.batch.groups"),
            filter_constructions: registry.counter("service.batch.filter_constructions"),
            filters_saved: registry.counter("service.batch.filters_saved"),
            duplicates_coalesced: registry.counter("service.batch.duplicates_coalesced"),
            cache,
            stage_lookup: registry.stage("service.stage.cache_lookup_ns"),
            stage_grouping: registry.stage("service.stage.grouping_ns"),
            stage_execution: registry.stage("service.stage.execution_ns"),
            stage_finalize: registry.stage("service.stage.finalize_ns"),
            stage_filter: registry.stage("service.stage.filter_ns"),
            verify_ns: registry.histogram("service.stage.verify_ns"),
            update_applied: registry.counter("service.update.applied"),
            update_rejected: registry.counter("service.update.rejected"),
            subs_unaffected: registry.counter("service.subs.unaffected"),
            subs_stable: registry.counter("service.subs.stable"),
            wal_appends: registry.counter("storage.wal.appends"),
            wal_bytes: registry.counter("storage.wal.bytes"),
            wal_fsync: registry.stage("storage.wal.fsync_ns"),
            checkpoint: registry.stage("storage.checkpoint_ns"),
            checkpoint_stall: registry.gauge("storage.checkpoint_stall_ns"),
            registry,
        }
    }
}

impl ServiceMetrics {
    /// Registers the single-service catalog *plus* the router-layer cells a
    /// [`crate::ShardedService`] adds on top: the fan-out histogram and the
    /// prune, dispatch and execution counters.
    pub(crate) fn new_with_router() -> (Self, RouterMetrics) {
        let mut metrics = Self::default();
        let router = RouterMetrics {
            fanout: metrics.registry.histogram("router.fanout"),
            shards_pruned: metrics.registry.counter("router.shards_pruned"),
            dispatches: metrics.registry.counter("router.dispatches"),
            executions: metrics.registry.counter("router.executions"),
        };
        (metrics, router)
    }

    /// The underlying registry (ids, individual cells, raw snapshots).
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// Whether timing instrumentation is live.
    pub fn enabled(&self) -> bool {
        self.registry.telemetry().enabled()
    }

    /// Turns untraced span timing and histogram recording on or off.
    /// Counters and gauges stay live either way, so the exact per-call stats
    /// keep working.
    pub fn set_enabled(&self, on: bool) {
        self.registry.telemetry().set_enabled(on);
    }

    /// A point-in-time copy of every metric.
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.registry.snapshot()
    }

    /// The current metrics in the text exposition format.
    pub fn render_text(&self) -> String {
        self.registry.render_text()
    }

    /// Feeds the verification time of one fresh execution into its stage
    /// histogram. [`rknnt_core::verify_candidates`] already measures it for
    /// [`rknnt_core::RknntResult::timings`], so this costs no extra clock
    /// read.
    #[inline]
    pub(crate) fn record_verification(&self, verification: Duration) {
        if self.registry.telemetry().enabled() {
            self.verify_ns.record_duration(verification);
        }
    }

    /// The cells the storage engine increments, pre-bound to this registry.
    pub(crate) fn storage_instruments(&self) -> StorageInstruments {
        StorageInstruments {
            wal_appends: self.wal_appends.clone(),
            wal_bytes: self.wal_bytes.clone(),
            wal_fsync: self.wal_fsync.clone(),
            checkpoint: self.checkpoint.clone(),
            checkpoint_stall: self.checkpoint_stall.clone(),
        }
    }

    /// Relaxed loads of the counters [`crate::BatchStats`] is diffed from.
    #[inline]
    pub(crate) fn batch_view(&self) -> BatchCounterView {
        BatchCounterView {
            filter_constructions: self.filter_constructions.get(),
            filters_saved: self.filters_saved.get(),
            duplicates_coalesced: self.duplicates_coalesced.get(),
        }
    }

    /// Relaxed loads of the counters [`crate::UpdateStats`] is diffed from.
    #[inline]
    pub(crate) fn update_view(&self) -> UpdateCounterView {
        UpdateCounterView {
            applied: self.update_applied.get(),
            rejected: self.update_rejected.get(),
            evicted_entries: self.cache.targeted_evictions.get(),
            subs_unaffected: self.subs_unaffected.get(),
            subs_stable: self.subs_stable.get(),
            wal_appends: self.wal_appends.get(),
            wal_bytes: self.wal_bytes.get(),
        }
    }
}

/// Router-layer metric cells of one [`crate::ShardedService`], registered
/// against the same registry as the service catalog (a shard is a bare
/// transition store and has no catalog of its own). A clone shares the
/// cells, which is how they outlive a reshard.
#[derive(Debug, Clone)]
pub(crate) struct RouterMetrics {
    /// Shards consulted per fresh (uncached, non-degenerate) execution.
    pub(crate) fanout: Arc<Histogram>,
    /// Non-empty shards skipped because the query's filter certified them
    /// candidate-free (an empty shard is neither consulted nor counted).
    pub(crate) shards_pruned: Counter,
    /// Total cross-shard dispatches.
    pub(crate) dispatches: Counter,
    /// Fresh executions routed (the fan-out histogram's count, mirrored as
    /// a counter so stats reads never touch histogram locks).
    pub(crate) executions: Counter,
}

impl RouterMetrics {
    /// Relaxed-load snapshot of the routing counters.
    pub(crate) fn stats(&self) -> RouterStats {
        RouterStats {
            executions: self.executions.get(),
            dispatches: self.dispatches.get(),
            shards_pruned: self.shards_pruned.get(),
        }
    }
}

/// Point-in-time routing counters of a [`crate::ShardedService`], read via
/// [`crate::ShardedService::router_stats`]. The mean fan-out —
/// `dispatches / executions` — is the sharding efficiency figure the
/// `shard_scaleout` bench gates on.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RouterStats {
    /// Fresh (uncached, non-degenerate) executions routed.
    pub executions: u64,
    /// Cross-shard dispatches issued for those executions.
    pub dispatches: u64,
    /// Shard consultations avoided by the root-MBR certificate.
    pub shards_pruned: u64,
}

impl RouterStats {
    /// Mean shards consulted per fresh execution (0 when nothing ran).
    pub fn mean_fanout(&self) -> f64 {
        if self.executions == 0 {
            0.0
        } else {
            self.dispatches as f64 / self.executions as f64
        }
    }
}

/// Counter readings taken before a batch executes; the readings afterwards
/// minus these are the batch's [`crate::BatchStats`] work counts (its cache
/// hits it counts itself). (Two batches
/// running concurrently each see the union of what happened during their
/// own window — the global registry stays exact.)
#[derive(Debug, Clone, Copy)]
pub(crate) struct BatchCounterView {
    pub(crate) filter_constructions: u64,
    pub(crate) filters_saved: u64,
    pub(crate) duplicates_coalesced: u64,
}

/// Counter readings taken before an update batch applies (updates hold
/// `&mut self`, so the window is exclusive and the diff exact).
#[derive(Debug, Clone, Copy)]
pub(crate) struct UpdateCounterView {
    pub(crate) applied: u64,
    pub(crate) rejected: u64,
    /// Targeted evictions: entries a route change found the journal no
    /// longer reaching (a lookup's own drops happen outside updates).
    pub(crate) evicted_entries: u64,
    pub(crate) subs_unaffected: u64,
    pub(crate) subs_stable: u64,
    pub(crate) wal_appends: u64,
    pub(crate) wal_bytes: u64,
}
