//! # rknnt — Reverse k Nearest Neighbor search over trajectories
//!
//! Umbrella crate re-exporting the whole workspace:
//!
//! * [`geo`] — geometry primitives (points, MBRs, half-space and Voronoi
//!   filtering predicates).
//! * [`rtree`] — the from-scratch dynamic R-tree substrate.
//! * [`index`] — the paper's index layer: route store (RR-tree), transition
//!   store (TR-tree), `PList` and `NList`.
//! * [`core`] — the RkNNT query engines (filter–refine, Voronoi,
//!   divide & conquer, brute force oracle).
//! * [`graph`] — the bus-network graph substrate (Dijkstra, Floyd–Warshall,
//!   Yen's k-shortest paths).
//! * [`routeplan`] — MaxRkNNT / MinRkNNT optimal route planning.
//! * [`data`] — synthetic city, route and transition generators plus
//!   workload generators for the evaluation.
//! * [`service`] — the serving layer: concurrent batch query execution with
//!   shared-filter batching, a seeded LRU result cache, and
//!   `ShardedService` — Z-order spatial shards behind a router that skips
//!   every shard its root-MBR certificate writes off, byte-identical to one
//!   service.
//! * [`storage`] — the durable storage engine: checksummed snapshots plus a
//!   segmented write-ahead log with crash recovery, behind
//!   `QueryService::open` / `attach_storage` / `checkpoint`.
//! * [`obs`] — hermetic telemetry: log-linear latency histograms, stage
//!   spans over a pluggable clock, a metrics registry with text exposition
//!   and snapshot diffing, and bounded per-request span trees.
//! * [`net`] — the TCP serving edge: a length-prefixed checksummed binary
//!   protocol, a threaded server multiplexing connections onto the batch
//!   path with cost-based admission control (overload is shed with a typed
//!   reply, never silently dropped), a blocking client with typed read
//!   timeouts, and the distributed shard fleet — `RemoteShard` dispatch
//!   (deadlines, seeded retry backoff, circuit breaker) under a
//!   `FleetRouter` — the serving frontend over remote transition shards —
//!   that degrades to typed partial results when shards die and resyncs
//!   them from its update log on recovery.
//! * [`fault`] — deterministic fault injection: seeded, hermetic
//!   failpoints (`FaultPlan` → `Failpoints`) threaded through the net and
//!   storage crates so crashes, cuts, corruption and stalls are
//!   reproducible test inputs.
//!
//! See `README.md` for a quickstart and `DESIGN.md` for the architecture and
//! per-experiment index.

pub use rknnt_core as core;
pub use rknnt_data as data;
pub use rknnt_fault as fault;
pub use rknnt_geo as geo;
pub use rknnt_graph as graph;
pub use rknnt_index as index;
pub use rknnt_net as net;
pub use rknnt_obs as obs;
pub use rknnt_routeplan as routeplan;
pub use rknnt_rtree as rtree;
pub use rknnt_service as service;
pub use rknnt_storage as storage;

/// Commonly used items, suitable for `use rknnt::prelude::*;`.
pub mod prelude {
    pub use rknnt_core::{
        BruteForceEngine, DivideConquerEngine, EngineKind, FilterRefineEngine, QueryScratch,
        RknnTEngine, RknntQuery, Semantics, VoronoiEngine,
    };
    pub use rknnt_data::{CityConfig, CityGenerator, TransitionConfig, TransitionGenerator};
    pub use rknnt_fault::{Failpoints, FaultPlan};
    pub use rknnt_geo::{Point, Rect};
    pub use rknnt_graph::RouteGraph;
    pub use rknnt_index::{RouteId, RouteStore, TransitionId, TransitionStore};
    pub use rknnt_net::{
        Backend, Client, FleetConfig, FleetResult, FleetRouter, RemoteShardConfig, Reply, Server,
        ServerConfig,
    };
    pub use rknnt_routeplan::{Objective, PlannerConfig, Precomputation, RoutePlanner};
    pub use rknnt_service::{
        BatchStats, DeltaReason, QueryService, ServiceConfig, ShardedConfig, ShardedService,
        SubscriptionDelta, SubscriptionId,
    };
    pub use rknnt_storage::{StorageConfig, StorageError, StorageStats};
}
