//! The serving edge: RkNNT queries over TCP with admission control.
//!
//! Seven PRs of engine, batching, durability and sharding work all end at a
//! function call; production traffic arrives over sockets and is judged by
//! its p99s. This crate is that last hop, hermetically — no tokio, no serde
//! backend, just `std::net::TcpStream`, threads, and the same little-endian
//! codec + CRC framing the storage engine already trusts:
//!
//! * **[`protocol`]** — `crc | len | payload` frames (checksum covers
//!   length *and* payload, so corrupted lengths cannot re-frame the
//!   stream) carrying bounds-checked [`protocol::Message`] payloads, with
//!   a per-request cost estimate ([`protocol::estimate_cost`]).
//! * **[`Server`]** — one reader thread per connection feeding a bounded
//!   global queue; a single executor thread drains it onto a [`Backend`]
//!   ([`rknnt_service::QueryService`] or
//!   [`rknnt_service::ShardedService`]), funnelling consecutive queries
//!   through the batch path under a read lock, applying updates under the
//!   write lock and pushing subscription deltas to their owning
//!   connections. A query whose connection has nothing else in flight and
//!   whose answer is resident in the cache is answered by the reader
//!   itself, under the read lock, without crossing the executor.
//!   **Admission control** is the load-bearing part, and every request
//!   passes it: requests past the queue-capacity / queued-cost-budget /
//!   per-connection-inflight limits are fast-failed with a typed
//!   `Overloaded` reply — shed, never silently dropped — and every
//!   decision lands in the `net.*` metrics (`net.admitted`,
//!   `net.reader_hits`, per-reason `net.shed.*` counters,
//!   `net.queue_depth`, `net.request_ns`).
//! * **Tracing + introspection** — requests tagged with a trace id get a
//!   per-request span tree through admission, queueing, execution and the
//!   backend's batch pipeline (down to per-shard routing decisions and WAL
//!   appends); slow traces are retained in a bounded ring, and
//!   [`Message::Introspect`] / [`Client::introspect`] fetch metrics or slow
//!   queries remotely, answered from the reader thread even when the
//!   executor is saturated.
//! * **[`Client`]** — a blocking client speaking the same codec, used by
//!   the test suite and the `open_loop_latency` experiment. Answers are
//!   byte-identical to in-process execution; `Overloaded` is a typed
//!   [`Reply`] variant, not an error. Blocking reads carry an optional
//!   read deadline ([`ClientConfig::with_read_timeout`]) that surfaces as
//!   a typed [`ClientError::Timeout`] instead of hanging forever.
//! * **[`RemoteShard`]** — a health-tracked dispatch handle over one
//!   server: per-request deadlines, seeded exponential-backoff retry, and
//!   a closed/open/half-open **circuit breaker** driven by a pluggable
//!   clock so every state transition is deterministic under test.
//! * **[`FleetRouter`]** — the distributed fleet: the one serving
//!   frontend over the one sharded backing ([`rknnt_service::Shards`]),
//!   whose links are remote shards, each its own server behind a
//!   [`RemoteShard`]. The router holds the only route set, builds every
//!   filter, has each shard it cannot skip prune its TR-tree
//!   ([`Message::Prune`]) and verifies the candidates once. A dead shard
//!   degrades answers to a typed partial [`FleetResult`] naming it, its
//!   updates defer in a per-shard router log that ships before the shard is
//!   pruned again, and when it returns the router re-executes every
//!   subscription.
//! * **Fault injection** — the reader, writer and executor paths carry
//!   [`rknnt_fault`] failpoints ([`SERVER_READ_SITE`],
//!   [`SERVER_WRITE_SITE`], [`SERVER_EXECUTOR_SITE`],
//!   [`CLIENT_WRITE_SITE`]), so mid-frame cuts, corruption, stalls,
//!   panics and whole-process kills are deterministic, seeded test
//!   inputs rather than flaky sleeps.
//!
//! ```no_run
//! use rknnt_core::RknntQuery;
//! use rknnt_geo::Point;
//! use rknnt_index::{RouteStore, TransitionStore};
//! use rknnt_net::{Backend, Client, Reply, Server, ServerConfig};
//! use rknnt_service::{QueryService, ServiceConfig};
//!
//! let mut routes = RouteStore::default();
//! routes.insert_route(vec![Point::new(0.0, 0.0), Point::new(100.0, 0.0)]);
//! let mut transitions = TransitionStore::default();
//! transitions.insert(Point::new(10.0, 5.0), Point::new(90.0, 5.0)).unwrap();
//! let service = QueryService::new(routes, transitions, ServiceConfig::default());
//!
//! let server = Server::start(Backend::Single(service), ServerConfig::default()).unwrap();
//! let mut client = Client::connect(server.local_addr()).unwrap();
//! let query = RknntQuery::exists(vec![Point::new(0.0, 10.0), Point::new(100.0, 10.0)], 1);
//! match client.query(&query).unwrap() {
//!     Reply::Answered(transitions) => println!("{} qualifying transitions", transitions.len()),
//!     Reply::Overloaded(info) => println!("shed at queue depth {}", info.queue_depth),
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod client;
mod fleet;
pub mod protocol;
mod remote;
mod server;

pub use client::{
    Client, ClientConfig, ClientError, DeltaEvent, HealthStatus, Pruned, Reply, Subscription,
    UpdateCounts, CLIENT_WRITE_SITE,
};
pub use fleet::{FleetApply, FleetConfig, FleetDelta, FleetError, FleetResult, FleetRouter};
pub use protocol::{
    IntrospectReport, IntrospectWhat, Message, OverloadInfo, WireSlowQuery, WireSpan,
    MAX_FRAME_BYTES,
};
pub use remote::{
    BreakerState, CircuitBreaker, RecordingSleeper, RemoteError, RemoteShard, RemoteShardConfig,
    RemoteShardStats, RetryPolicy, Sleeper, ThreadSleeper,
};
pub use server::{
    Backend, Server, ServerConfig, SERVER_EXECUTOR_SITE, SERVER_READ_SITE, SERVER_WRITE_SITE,
};
