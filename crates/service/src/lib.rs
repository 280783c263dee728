//! Concurrent batch RkNNT query serving — the layer that turns the paper's
//! single-threaded engines into a server-shaped system.
//!
//! The engines in `rknnt-core` answer one query at a time on one thread;
//! they are the paper's curves and this crate's test oracles, and the
//! service composes the two kernel halves they are made of —
//! [`rknnt_core::build_filter_set`] + [`rknnt_core::prune_into_scratch`],
//! then [`rknnt_core::verify_candidates`] — itself, one way. A deployment
//! serving passenger-demand estimation for a live bus network sees
//! *streams* of queries with heavy spatial and exact repetition, plus a
//! store that mutates as transitions arrive and expire. This crate adds the
//! mechanisms that workload needs, with a hard invariant — every answer is
//! byte-identical to sequential single-query execution.
//!
//! The frontend is written once, as [`Service<B>`](Service): it owns the
//! result cache, the subscription registry, the storage handle and the
//! metric catalog, and runs the only copy of the batch pipeline, the worker
//! pool, the update path and the subscription surface. What differs between
//! deployments is the [`Backing`] it serves from; this crate has two, and
//! `rknnt-net`'s fleet router runs the second over remote shard links:
//!
//! * **[`QueryService`]** — one [`rknnt_index::RouteStore`] /
//!   [`rknnt_index::TransitionStore`] pair; each fresh query prunes the one
//!   TR-tree.
//! * **[`ShardedService`]** — the complete routes in one planner store and
//!   the transitions split across Z-order spatial shards ([`Shards`] over
//!   in-process [`rknnt_index::TransitionStore`] links; the fleet's links
//!   are remote); each fresh query prunes only the shards its filter cannot
//!   rule out and verifies the merged candidates once ([`sharded`]).
//!   Answers, subscription results and delta streams are byte-identical to
//!   the flat service's.
//!
//! Everything below is the shared frontend, available on both:
//!
//! * **Batch execution** — [`Service::execute_batch`] runs a batch across a
//!   scoped worker pool.
//! * **Shared-filter batching** — batch queries are grouped by spatial
//!   cell and `k`; within a group, queries with the same
//!   `(route, k)` share one filter-set construction and exact duplicates
//!   are coalesced outright. [`BatchStats`] reports groups formed, filter
//!   constructions saved and wall-clock per phase.
//! * **Result caching** — a seeded-hash LRU cache keyed on
//!   `(route, k, semantics)` whose entries are kept current by the update
//!   path below, so dynamic-update workloads keep serving correct results.
//! * **Incremental updates** — the two update entry points,
//!   [`Service::apply_updates`] (panics on a WAL failure) and
//!   [`Service::try_apply_updates`] (returns it; optionally traced), mutate
//!   the stores in place ([`StoreUpdate`]: transitions arrive and expire,
//!   routes appear and are withdrawn) and are the only way a live service's
//!   stores change. Under transition churn results are maintained rather
//!   than recomputed: a transition update is appended to a bounded journal
//!   and each cached result replays what it missed when it is next read —
//!   an exact two-endpoint admission check per arrival, from a
//!   nearest-route certificate the arrival's first reader computes and
//!   every later one shares — so transition churn evicts nothing. A route
//!   insert evicts nothing either: it can only remove members the new route
//!   comes strictly closer to than the query, and the strictly-closer
//!   counts every member keeps decide which. Nor does a route removal: it
//!   can only add members, and every transition that can enter any result
//!   lies in the removed route's own RkNNT answer at the largest cached or
//!   watched `k` — one uncached query per removal, whose non-members are
//!   judged for each entry from one shared certificate per candidate.
//! * **Continuous queries** — [`Service::subscribe`] registers a
//!   standing query whose result the service keeps current across
//!   `apply_updates`: every update — arrivals, expiries, route inserts and
//!   removals — is applied to it in place, nothing re-executes it, and
//!   result changes come back as per-batch [`SubscriptionDelta`]s instead
//!   of forcing clients to re-poll ([`monitor`]).
//! * **Durability** (a [`Durable`] backing) — [`Service::open`] /
//!   [`Service::attach_storage`] back either service with an
//!   `rknnt-storage` directory: `apply_updates` appends every update, in
//!   global form, to a CRC-guarded write-ahead log before applying it
//!   ([`durable`] owns the record codec),
//!   [`Service::checkpoint`] folds the log into a checksummed snapshot of
//!   the global state, and reopening after a crash replays the WAL tail
//!   through the normal update path — recovered answers are byte-identical
//!   to the uninterrupted service. The directory does not record which
//!   service wrote it: one written by either opens as the other, at any
//!   shard count (both asserted by the repository's tier-1
//!   `tests/serving_layers.rs`).
//!
//! ```
//! use rknnt_core::RknntQuery;
//! use rknnt_geo::Point;
//! use rknnt_index::{RouteStore, TransitionStore};
//! use rknnt_service::{QueryService, ServiceConfig};
//!
//! let mut routes = RouteStore::default();
//! routes.insert_route(vec![Point::new(0.0, 0.0), Point::new(100.0, 0.0)]);
//! let mut transitions = TransitionStore::default();
//! transitions.insert(Point::new(10.0, 5.0), Point::new(90.0, 5.0)).unwrap();
//!
//! let service = QueryService::new(routes, transitions, ServiceConfig::default());
//! let query = RknntQuery::exists(vec![Point::new(0.0, 10.0), Point::new(100.0, 10.0)], 1);
//! let (results, stats) = service.execute_batch(std::slice::from_ref(&query));
//! assert_eq!(results.len(), 1);
//! assert_eq!(stats.queries, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod batch;
mod cache;
pub mod durable;
mod frontend;
mod journal;
pub mod metrics;
pub mod monitor;
mod service;
pub mod sharded;

pub use batch::{BatchPhaseTimings, BatchStats};
pub use cache::CacheStats;
pub use frontend::{Backing, Durable, Service};
pub use journal::JOURNAL_CAPACITY;
pub use metrics::{RouterStats, ServiceMetrics};
pub use monitor::{DeltaReason, SubscriptionDelta, SubscriptionId};
pub use rknnt_storage::{StorageConfig, StorageError, StorageStats};
pub use service::{QueryService, ServiceConfig, StoreUpdate, UpdateStats};
pub use sharded::{Missed, ShardLink, ShardedConfig, ShardedService, Shards};
