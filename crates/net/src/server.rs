//! Threaded TCP server multiplexing client connections onto the batch path,
//! with admission control and load shedding.
//!
//! # Architecture
//!
//! One acceptor thread, one reader thread per connection, and a single
//! executor thread; the [`Backend`] sits between them behind a read-write
//! lock:
//!
//! * **Readers** decode frames, estimate each request's cost
//!   ([`crate::protocol::estimate_cost`]) and run the admission decision.
//!   Shed requests are answered with a typed [`Message::Overloaded`] reply
//!   *immediately, from the reader thread* — a shed costs one frame write,
//!   never a queue slot, and is never silently dropped. An admitted query
//!   whose connection has nothing else in flight is looked up by the
//!   reader under the read lock, holding its reserved queue slot meanwhile:
//!   a resident answer (a cache hit brought current by journal replay) is
//!   written by the reader, a miss takes the slot in the queue. Every other
//!   admitted request enters the bounded global queue.
//! * The **executor** drains the queue in FIFO order up to
//!   [`ServerConfig::max_batch`] jobs at a time, funnels consecutive query
//!   runs through one `execute_batch` call under the read lock (the service
//!   parallelizes internally across its worker pool), applies control
//!   operations (subscribe / unsubscribe / updates) serially at their queue
//!   position under the write lock, and pushes [`Message::Delta`] frames to
//!   subscribed connections after every update batch, before releasing it.
//!
//! A request stays in flight until every frame it causes — its reply, and
//! for an update its deltas — is written. An idle connection therefore has
//! every earlier reply on the wire, so a reader-written answer keeps the
//! per-connection reply order and read-your-writes; and the read lock keeps
//! every mutation out while the answer is looked up, so it is the very
//! answer the executor's batch would return.
//!
//! # Admission policy
//!
//! A request is shed iff, at arrival:
//!
//! * the global queue already holds [`ServerConfig::queue_capacity`]
//!   requests, **or**
//! * admitting it would push the summed cost estimate of queued requests
//!   over [`ServerConfig::cost_budget`] (queue depth × per-request cost —
//!   many cheap requests and few expensive ones hit the same ceiling),
//!   **or**
//! * the connection already has [`ServerConfig::per_conn_inflight`]
//!   admitted-but-unanswered requests (one greedy pipeliner cannot starve
//!   the fleet).
//!
//! The queue depth and queued cost include the slots reserved by lookups in
//! progress, so both limits stay exact bounds. Resident answers pass the
//! same decision: a hit is admitted like any other request.
//!
//! Every decision lands in the metrics registry: a `net.admitted` counter
//! (of which `net.reader_hits` were answered by the reader), per-reason
//! shed counters (`net.shed.queue_full` / `net.shed.cost_budget` /
//! `net.shed.inflight`), a `net.queue_depth` gauge, and a `net.request_ns`
//! latency histogram over admitted requests (admission to reply write).
//!
//! # Request tracing and introspection
//!
//! A request carrying a trace id ([`Message::Query`] /
//! [`Message::ApplyUpdates`] with `trace: Some(..)`) that passes the
//! deterministic head sampler ([`ServerConfig::trace_sample`]) gets a
//! per-request span tree: a `request` root with `admission`, `queue` and
//! `execute` children recorded here, and the backend's `batch` / phase /
//! `worker` / `group` / `shard` / `wal_append` spans below the `execute`
//! span. A resident answer never queued, so its tree is `request` →
//! `admission`, `execute` → `cache_lookup`. Completed traces feed a
//! [`SlowQueryLog`]; those over
//! [`ServerConfig::slow_query_threshold_ns`] are retained with their full
//! tree. [`Message::Introspect`] fetches metrics or slow queries remotely —
//! it is answered *from the reader thread*, so introspection works even
//! while the executor is saturated, and is never queued or shed.

use crate::client::Pruned;
use crate::protocol::{
    estimate_cost, frame_bytes, read_frame, IntrospectReport, IntrospectWhat, Message,
    OverloadInfo, WireSlowQuery,
};
use rknnt_core::{CandidateEndpoint, FilterSet, QueryScratch, RknntQuery};
use rknnt_fault::{Failpoints, FaultAction};
use rknnt_index::EndpointKind;
use rknnt_obs::{
    Counter, Gauge, Histogram, MetricsRegistry, SlowQueryLog, SpanId, Telemetry, TraceContext,
    TraceCursor, TraceId,
};
use rknnt_service::{
    Backing, QueryService, Service, ShardedService, SubscriptionDelta, SubscriptionId,
};
use std::collections::{HashMap, VecDeque};
use std::io::{self, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Failpoint site hit once per frame a reader thread receives.
pub const SERVER_READ_SITE: &str = "net.server.read";
/// Failpoint site hit once per frame the server writes to any connection.
pub const SERVER_WRITE_SITE: &str = "net.server.write";
/// Failpoint site hit once per batch the executor drains.
pub const SERVER_EXECUTOR_SITE: &str = "net.server.executor";

/// The service a [`Server`] exposes: a single [`QueryService`] or a
/// [`ShardedService`] fleet — both present the same batch surface, so the
/// serving edge is backend-agnostic.
pub enum Backend {
    /// One `QueryService`.
    Single(QueryService),
    /// A Z-order-sharded fleet behind the router's root-MBR certificate.
    Sharded(ShardedService),
}

/// `$body` with `$s` bound to the service `$backend` holds: both are one
/// generic [`rknnt_service::Service`], so every call reads the same.
macro_rules! on_service {
    ($backend:expr, $s:ident => $body:expr) => {
        match $backend {
            Backend::Single($s) => $body,
            Backend::Sharded($s) => $body,
        }
    };
}

/// The prune step alone ([`Message::Prune`]) on a shard's service: the ids
/// of the transitions whose origin and whose destination `filter` does not
/// filter at `k`, and the TR-tree nodes pruned unopened.
fn prune<B: Backing>(service: &Service<B>, filter: &FilterSet, k: usize) -> Pruned {
    let mut scratch = QueryScratch::new();
    let backing = service.backing();
    let nodes = backing.prune(&mut scratch, filter, k, TraceCursor::NONE);
    let candidates = scratch.candidates().iter();
    let (origins, destinations): (Vec<_>, Vec<_>) =
        candidates.partition(|c| c.kind == EndpointKind::Origin);
    let ids = |side: Vec<&CandidateEndpoint>| side.iter().map(|c| c.transition).collect();
    (ids(origins), ids(destinations), nodes as u64)
}

/// Admission-control and batching knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Most jobs the executor drains per wakeup; consecutive queries within
    /// a drain share one `execute_batch` call.
    pub max_batch: usize,
    /// Global queue slot cap — requests beyond it are shed.
    pub queue_capacity: usize,
    /// Cap on the summed cost estimate of queued requests.
    pub cost_budget: u64,
    /// Per-connection cap on admitted-but-unanswered requests.
    pub per_conn_inflight: u64,
    /// Head-sampling probability for requests carrying a trace id
    /// (deterministic in the id — see [`rknnt_obs::TraceId::sampled`] — so
    /// every server in a fleet keeps or drops the same traces without
    /// coordination). `1.0` traces every tagged request, `0.0` none.
    pub trace_sample: f64,
    /// Completed traces whose root span exceeds this duration are promoted
    /// into the slow-query log with their full span tree.
    pub slow_query_threshold_ns: u64,
    /// Slow-query ring capacity (oldest entries are evicted first).
    pub slow_query_capacity: usize,
    /// Armed failpoints for deterministic fault injection on this server's
    /// read path ([`SERVER_READ_SITE`]), write path ([`SERVER_WRITE_SITE`])
    /// and executor ([`SERVER_EXECUTOR_SITE`]). `None` (the default) runs
    /// clean.
    pub failpoints: Option<Arc<Failpoints>>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            max_batch: 64,
            queue_capacity: 256,
            cost_budget: 1 << 20,
            per_conn_inflight: 64,
            trace_sample: 1.0,
            slow_query_threshold_ns: 10_000_000,
            slow_query_capacity: 32,
            failpoints: None,
        }
    }
}

impl ServerConfig {
    /// Sets the global queue slot cap.
    pub fn with_queue_capacity(mut self, queue_capacity: usize) -> Self {
        self.queue_capacity = queue_capacity;
        self
    }

    /// Sets the queued-cost budget.
    pub fn with_cost_budget(mut self, cost_budget: u64) -> Self {
        self.cost_budget = cost_budget;
        self
    }

    /// Sets the per-connection inflight cap.
    pub fn with_per_conn_inflight(mut self, per_conn_inflight: u64) -> Self {
        self.per_conn_inflight = per_conn_inflight;
        self
    }

    /// Sets the trace head-sampling probability.
    pub fn with_trace_sample(mut self, trace_sample: f64) -> Self {
        self.trace_sample = trace_sample;
        self
    }

    /// Sets the slow-query promotion threshold in nanoseconds.
    pub fn with_slow_query_threshold_ns(mut self, threshold_ns: u64) -> Self {
        self.slow_query_threshold_ns = threshold_ns;
        self
    }

    /// Sets the slow-query ring capacity.
    pub fn with_slow_query_capacity(mut self, capacity: usize) -> Self {
        self.slow_query_capacity = capacity;
        self
    }

    /// Arms failpoints on the server's read/write/executor paths.
    pub fn with_failpoints(mut self, failpoints: Arc<Failpoints>) -> Self {
        self.failpoints = Some(failpoints);
        self
    }
}

/// The serving-edge metric cells, registered once in a
/// [`MetricsRegistry`] under the `net.` prefix.
struct NetMetrics {
    registry: Mutex<MetricsRegistry>,
    admitted: Counter,
    shed_queue_full: Counter,
    shed_cost_budget: Counter,
    shed_inflight: Counter,
    queue_depth: Gauge,
    request_ns: Arc<Histogram>,
    connections_opened: Counter,
    connections_closed: Counter,
    deltas_pushed: Counter,
    subscriptions_reclaimed: Counter,
    reader_hits: Counter,
}

impl NetMetrics {
    fn new() -> Self {
        let mut registry = MetricsRegistry::new();
        let admitted = registry.counter("net.admitted");
        let shed_queue_full = registry.counter("net.shed.queue_full");
        let shed_cost_budget = registry.counter("net.shed.cost_budget");
        let shed_inflight = registry.counter("net.shed.inflight");
        let queue_depth = registry.gauge("net.queue_depth");
        let request_ns = registry.histogram("net.request_ns");
        let connections_opened = registry.counter("net.connections_opened");
        let connections_closed = registry.counter("net.connections_closed");
        let deltas_pushed = registry.counter("net.deltas_pushed");
        let subscriptions_reclaimed = registry.counter("net.subscriptions_reclaimed");
        let reader_hits = registry.counter("net.reader_hits");
        NetMetrics {
            registry: Mutex::new(registry),
            admitted,
            shed_queue_full,
            shed_cost_budget,
            shed_inflight,
            queue_depth,
            request_ns,
            connections_opened,
            connections_closed,
            deltas_pushed,
            subscriptions_reclaimed,
            reader_hits,
        }
    }

    /// Total sheds across every reason.
    fn shed_total(&self) -> u64 {
        self.shed_queue_full.get() + self.shed_cost_budget.get() + self.shed_inflight.get()
    }
}

/// Per-connection shared state. The writer half is a `try_clone` of the
/// socket behind a mutex, so reply writes from the reader thread (sheds,
/// resident answers) and the executor (queued answers, delta pushes)
/// interleave at frame granularity.
struct Conn {
    id: u64,
    writer: Mutex<TcpStream>,
    /// Admitted requests not yet [`finish`]ed — a request finishes only
    /// after every frame it causes is written, so 0 means every earlier
    /// request of this connection is fully answered.
    inflight: AtomicU64,
    /// Armed failpoints for the outgoing-frame path ([`SERVER_WRITE_SITE`]).
    failpoints: Option<Arc<Failpoints>>,
}

impl Conn {
    fn send(&self, msg: &Message) -> io::Result<()> {
        let mut frame = frame_bytes(&msg.encode())?;
        if let Some(fp) = &self.failpoints {
            match fp.hit(SERVER_WRITE_SITE) {
                Some(FaultAction::Cut { after }) => {
                    // Sever mid-frame: the client must see a hard EOF inside
                    // the frame, never a clean boundary.
                    let keep = after.unwrap_or(0).min(frame.len().saturating_sub(1));
                    let mut writer = self.writer.lock().expect("conn writer poisoned");
                    let _ = writer.write_all(&frame[..keep]);
                    let _ = writer.shutdown(Shutdown::Both);
                    return Err(io::Error::new(
                        io::ErrorKind::ConnectionAborted,
                        format!("injected cut after {keep} of {} frame bytes", frame.len()),
                    ));
                }
                Some(FaultAction::Corrupt { offset, mask }) => {
                    // The frame still ships; the client's checksum must
                    // catch the damage.
                    let at = offset.min(frame.len() - 1);
                    frame[at] ^= if mask == 0 { 0x01 } else { mask };
                }
                Some(FaultAction::Fail { message }) => {
                    return Err(io::Error::other(message));
                }
                Some(FaultAction::Delay { nanos }) => {
                    std::thread::sleep(Duration::from_nanos(nanos));
                }
                Some(FaultAction::Kill) | Some(FaultAction::Panic { .. }) | None => {}
            }
        }
        let mut writer = self.writer.lock().expect("conn writer poisoned");
        writer.write_all(&frame)
    }
}

enum Work {
    /// An admitted client request.
    Request(Message),
    /// Internal: the connection's reader exited; reclaim its subscriptions.
    Disconnect,
}

/// The span bookkeeping for one sampled request, threaded from admission
/// (where the root opens) through the executor (where `queue` ends and
/// `execute` brackets the backend call) — or through the reader's resident
/// lookup, which has no `queue` — to the reply write (where the root closes
/// and the completed trace feeds the slow-query log).
struct RequestTrace {
    ctx: TraceContext,
    root: SpanId,
    queue: Option<SpanId>,
    execute: Option<SpanId>,
}

impl RequestTrace {
    /// Opens the `queue` span the executor closes when it picks the job up.
    fn start_queue(&mut self) {
        self.queue = Some(TraceCursor::new(&self.ctx, self.root).begin("queue"));
    }

    /// Takes back the `execute` span of a resident lookup that missed: the
    /// request queues instead.
    fn abandon_execute(&mut self) {
        if let Some(execute) = self.execute.take() {
            self.ctx.discard_span(execute);
        }
    }

    /// Ends the `queue` span (if any) and opens `execute`.
    fn start_execute(&mut self) {
        let root = TraceCursor::new(&self.ctx, self.root);
        if let Some(queue) = self.queue.take() {
            root.end(queue);
        }
        self.execute = Some(root.begin("execute"));
    }

    /// A cursor under the `execute` span for the backend to hang its spans
    /// from.
    fn execute_cursor(&self) -> TraceCursor<'_> {
        TraceCursor::new(&self.ctx, self.execute.unwrap_or(SpanId::NONE))
    }

    /// Closes any open spans plus the root and hands the completed trace to
    /// the slow-query log.
    fn finish(mut self, shared: &Shared) {
        let root = TraceCursor::new(&self.ctx, self.root);
        if let Some(queue) = self.queue.take() {
            root.end(queue);
        }
        if let Some(execute) = self.execute.take() {
            root.end(execute);
        }
        self.ctx.end_span(self.root);
        shared.slow_log.observe(self.ctx.finish());
    }
}

struct Job {
    conn: Arc<Conn>,
    work: Work,
    cost: u64,
    accepted_at: Instant,
    trace: Option<RequestTrace>,
}

#[derive(Default)]
struct QueueState {
    jobs: VecDeque<Job>,
    /// Slots held by admitted queries whose reader is looking their answer
    /// up; a hit returns its slot, a miss turns it into a queued job.
    reserved: usize,
    /// Summed cost of the queued jobs and the reserved slots.
    cost: u64,
    open: bool,
}

impl QueueState {
    /// Slots taken against [`ServerConfig::queue_capacity`].
    fn depth(&self) -> usize {
        self.jobs.len() + self.reserved
    }

    /// Empties the queue of a dead server, leaving the reserved slots and
    /// their cost to the readers that hold them.
    fn drain(&mut self) -> VecDeque<Job> {
        let jobs = std::mem::take(&mut self.jobs);
        self.cost -= jobs.iter().map(|job| job.cost).sum::<u64>();
        jobs
    }
}

struct Shared {
    config: ServerConfig,
    metrics: NetMetrics,
    /// The service. The executor holds the read lock while it runs a query
    /// batch and the write lock while it applies a control operation
    /// (mutations, and the frames they cause); readers hold the read lock
    /// for a resident lookup only, never across a socket write. `None` once
    /// [`Server::stop`] has taken it out.
    backend: RwLock<Option<Backend>>,
    queue: Mutex<QueueState>,
    ready: Condvar,
    conns: Mutex<HashMap<u64, Arc<Conn>>>,
    shutting_down: AtomicBool,
    /// The listener address — needed to unblock the acceptor's blocking
    /// `accept()` with a throwaway connect ([`Shared::close_edge`]).
    addr: SocketAddr,
    /// Why the server died, when it died by fault (injected kill or a
    /// contained executor panic) rather than an orderly [`Server::stop`].
    dead: Mutex<Option<String>>,
    /// Clock for request traces (one source for every span in a tree).
    telemetry: Telemetry,
    /// Completed-trace ring; promotes over-threshold traces.
    slow_log: Arc<SlowQueryLog>,
    /// Live backend registry handle for reader-thread metrics
    /// introspection (registry clones share the cells).
    registry: MetricsRegistry,
}

impl Shared {
    /// Runs `f` on the backend under the read lock — the executor's side of
    /// a query batch, which resident lookups may share.
    fn with_backend<R>(&self, f: impl FnOnce(&Backend) -> R) -> R {
        let backend = self.backend.read().expect("backend lock poisoned");
        f(backend.as_ref().expect("the backend outlives the executor"))
    }

    /// Runs `f` on the backend under the write lock — a control operation,
    /// and every frame it causes, excludes every resident lookup.
    fn with_backend_mut<R>(&self, f: impl FnOnce(&mut Backend) -> R) -> R {
        let mut backend = self.backend.write().expect("backend lock poisoned");
        f(backend.as_mut().expect("the backend outlives the executor"))
    }

    /// Closes the serving edge once `shutting_down` is set: a throwaway
    /// connect unblocks the acceptor's blocking `accept()`, so it returns
    /// and the listener closes (reconnects then fail instantly instead of
    /// hanging); `acceptor`, when given, is joined; and every connection is
    /// severed, which unblocks its reader thread (readers are detached and
    /// exit on their own).
    fn close_edge(&self, acceptor: Option<JoinHandle<()>>) {
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = acceptor {
            let _ = handle.join();
        }
        let conns = self.conns.lock().expect("conns poisoned");
        for conn in conns.values() {
            if let Ok(writer) = conn.writer.lock() {
                let _ = writer.shutdown(Shutdown::Both);
            }
        }
    }
}

/// A running server. Dropping it (or calling [`Server::stop`]) shuts the
/// listener, wakes and joins the executor, and severs every connection.
pub struct Server {
    shared: Arc<Shared>,
    addr: SocketAddr,
    acceptor: Option<JoinHandle<()>>,
    executor: Option<JoinHandle<()>>,
}

impl Server {
    /// Binds a loopback listener on an ephemeral port and starts serving
    /// `backend`.
    pub fn start(mut backend: Backend, config: ServerConfig) -> io::Result<Server> {
        if let Some(failpoints) = &config.failpoints {
            on_service!(&mut backend, s => s.set_storage_failpoints(Arc::clone(failpoints)));
        }
        let listener = TcpListener::bind(("127.0.0.1", 0))?;
        let addr = listener.local_addr()?;
        // Registry clones share the cells: the readers' introspection stays
        // current without the backend lock.
        let registry = on_service!(&backend, s => s.metrics().registry().clone());
        let slow_log = Arc::new(SlowQueryLog::new(
            config.slow_query_threshold_ns,
            config.slow_query_capacity,
        ));
        let shared = Arc::new(Shared {
            config,
            metrics: NetMetrics::new(),
            backend: RwLock::new(Some(backend)),
            queue: Mutex::new(QueueState {
                open: true,
                ..QueueState::default()
            }),
            ready: Condvar::new(),
            conns: Mutex::new(HashMap::new()),
            shutting_down: AtomicBool::new(false),
            addr,
            dead: Mutex::new(None),
            telemetry: Telemetry::monotonic(),
            slow_log,
            registry,
        });
        let acceptor = std::thread::Builder::new()
            .name("rknnt-net-accept".into())
            .spawn({
                let shared = Arc::clone(&shared);
                move || accept_loop(listener, shared)
            })?;
        let executor = std::thread::Builder::new()
            .name("rknnt-net-exec".into())
            .spawn({
                let shared = Arc::clone(&shared);
                move || executor_loop(&shared)
            })?;
        Ok(Server {
            shared,
            addr,
            acceptor: Some(acceptor),
            executor: Some(executor),
        })
    }

    /// The address clients connect to.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Requests admitted so far: queued ones and resident queries answered
    /// by their connection's reader alike.
    pub fn admitted(&self) -> u64 {
        self.shared.metrics.admitted.get()
    }

    /// Requests shed with an `Overloaded` reply so far (all reasons; the
    /// per-reason split is in the `net.shed.*` counters of
    /// [`Server::metrics_text`]).
    pub fn shed(&self) -> u64 {
        self.shared.metrics.shed_total()
    }

    /// Shared handle to the slow-query log (the same ring `Introspect {
    /// SlowQueries }` answers from).
    pub fn slow_query_log(&self) -> Arc<SlowQueryLog> {
        Arc::clone(&self.shared.slow_log)
    }

    /// Subscription deltas pushed to clients so far.
    pub fn deltas_pushed(&self) -> u64 {
        self.shared.metrics.deltas_pushed.get()
    }

    /// Connections whose reader has exited (the backend-side subscription
    /// reclamation for each is already queued when this ticks).
    pub fn connections_closed(&self) -> u64 {
        self.shared.metrics.connections_closed.get()
    }

    /// Subscriptions dropped because their owning connection closed.
    pub fn subscriptions_reclaimed(&self) -> u64 {
        self.shared.metrics.subscriptions_reclaimed.get()
    }

    /// Snapshot of the admitted-request latency histogram.
    pub fn request_latency(&self) -> rknnt_obs::HistogramSnapshot {
        self.shared.metrics.request_ns.snapshot()
    }

    /// Why the server died by fault (injected kill or a contained executor
    /// panic), or `None` while it is healthy / after an orderly stop.
    pub fn fault(&self) -> Option<String> {
        self.shared.dead.lock().expect("dead poisoned").clone()
    }

    /// Whether the server died by fault. Dead servers refuse new work with
    /// typed errors or closed connections — never silence — and
    /// [`Server::stop`] still returns the backend.
    pub fn is_dead(&self) -> bool {
        self.fault().is_some()
    }

    /// Chaos hook: kills the serving side right now, exactly as the
    /// [`rknnt_fault::FaultAction::Kill`] failpoint would — the queue
    /// closes and empties unanswered, every connection is severed, and the
    /// listener shuts so reconnects fail instantly. Lets harness code place
    /// the kill at a deterministic point in a request stream without
    /// counting frames for a failpoint ordinal.
    pub fn kill(&self, reason: &str) {
        kill_server(&self.shared, reason);
    }

    /// Text exposition of the `net.*` metrics.
    pub fn metrics_text(&self) -> String {
        self.shared
            .metrics
            .registry
            .lock()
            .expect("metrics registry poisoned")
            .render_text()
    }

    /// Stops the server and returns the backend, with every queued job
    /// either answered or past the point of admission (the executor drains
    /// the queue before exiting).
    pub fn stop(mut self) -> Backend {
        self.halt();
        self.executor
            .take()
            .expect("executor already joined")
            .join()
            .expect("executor thread panicked");
        self.take_backend().expect("the backend is taken once")
    }

    /// Takes the backend out of the shared state; a reader that looks a
    /// query up afterwards finds nothing resident, and the closed queue
    /// refuses the query. A lock poisoned by a contained executor panic
    /// still yields the backend, half-applied batch and all.
    fn take_backend(&self) -> Option<Backend> {
        self.shared
            .backend
            .write()
            .unwrap_or_else(PoisonError::into_inner)
            .take()
    }

    fn halt(&mut self) {
        self.shared.shutting_down.store(true, Ordering::SeqCst);
        {
            let mut state = self.shared.queue.lock().expect("queue poisoned");
            state.open = false;
        }
        self.shared.ready.notify_all();
        self.shared.close_edge(self.acceptor.take());
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.halt();
        if let Some(handle) = self.executor.take() {
            let _ = handle.join();
        }
        // Readers are detached and keep `Shared` alive until they notice
        // the severed sockets; the backend (and its storage) goes now.
        drop(self.take_backend());
    }
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    let mut next_conn_id = 1u64;
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => {
                if shared.shutting_down.load(Ordering::SeqCst) {
                    return;
                }
                continue;
            }
        };
        if shared.shutting_down.load(Ordering::SeqCst) {
            return;
        }
        let _ = stream.set_nodelay(true);
        let writer = match stream.try_clone() {
            Ok(writer) => writer,
            Err(_) => continue,
        };
        let conn = Arc::new(Conn {
            id: next_conn_id,
            writer: Mutex::new(writer),
            inflight: AtomicU64::new(0),
            failpoints: shared.config.failpoints.clone(),
        });
        next_conn_id += 1;
        shared
            .conns
            .lock()
            .expect("conns poisoned")
            .insert(conn.id, Arc::clone(&conn));
        shared.metrics.connections_opened.inc();
        let spawned = std::thread::Builder::new()
            .name(format!("rknnt-net-conn-{}", conn.id))
            .spawn({
                let shared = Arc::clone(&shared);
                move || reader_loop(stream, conn, shared)
            });
        if spawned.is_err() {
            // Could not spawn a reader; the socket just closes.
            continue;
        }
    }
}

fn reader_loop(mut stream: TcpStream, conn: Arc<Conn>, shared: Arc<Shared>) {
    let mut buf = Vec::new();
    loop {
        match read_frame(&mut stream, &mut buf) {
            Ok(Some(())) => {}
            Ok(None) => break,
            Err(err) => {
                // Garbage on the wire (bad checksum, hostile length, torn
                // frame): answer with a typed error, then drop the
                // connection — framing can no longer be trusted.
                let _ = conn.send(&Message::Error {
                    id: 0,
                    message: format!("malformed frame: {err}"),
                });
                break;
            }
        }
        // Deterministic fault injection on the receive path: one hit per
        // frame, before the frame is acted on.
        if let Some(fp) = &shared.config.failpoints {
            match fp.hit(SERVER_READ_SITE) {
                Some(FaultAction::Cut { .. }) => break,
                Some(FaultAction::Fail { message }) => {
                    let _ = conn.send(&Message::Error { id: 0, message });
                    break;
                }
                Some(FaultAction::Kill) => {
                    kill_server(&shared, "injected kill at net.server.read");
                    break;
                }
                Some(FaultAction::Delay { nanos }) => {
                    std::thread::sleep(Duration::from_nanos(nanos));
                }
                Some(FaultAction::Corrupt { .. }) | Some(FaultAction::Panic { .. }) | None => {}
            }
        }
        let msg = match Message::decode(&buf) {
            Ok(msg) => msg,
            Err(err) => {
                let _ = conn.send(&Message::Error {
                    id: 0,
                    message: format!("malformed message: {err}"),
                });
                break;
            }
        };
        if !msg.is_request() {
            let _ = conn.send(&Message::Error {
                id: msg.request_id(),
                message: "expected a request message".into(),
            });
            break;
        }
        // Introspection is answered right here on the reader thread: it
        // must work while the executor is saturated, so it never takes a
        // queue slot and is never shed.
        if let Message::Introspect { id, what } = msg {
            let report = introspect(&shared, what);
            let _ = conn.send(&Message::IntrospectOk { id, report });
            continue;
        }
        admit(&shared, &conn, msg);
    }
    shared
        .conns
        .lock()
        .expect("conns poisoned")
        .remove(&conn.id);
    // Hand the executor a reclamation job so the backend drops this
    // connection's subscriptions. Bypasses admission: it is internal and
    // must not be sheddable. Enqueued *before* the closed counter ticks, so
    // once `connections_closed` is visible the reclamation is already ahead
    // of any later request in the FIFO queue.
    {
        let mut state = shared.queue.lock().expect("queue poisoned");
        if state.open {
            state.jobs.push_back(Job {
                conn: Arc::clone(&conn),
                work: Work::Disconnect,
                cost: 0,
                accepted_at: Instant::now(),
                trace: None,
            });
            shared.ready.notify_one();
        }
    }
    shared.metrics.connections_closed.inc();
}

/// Builds the reply to an [`Message::Introspect`] request from the shared
/// handles (never from the backend itself, so no lock is taken).
fn introspect(shared: &Shared, what: IntrospectWhat) -> IntrospectReport {
    match what {
        IntrospectWhat::Metrics => {
            let mut text = shared
                .metrics
                .registry
                .lock()
                .expect("metrics registry poisoned")
                .render_text();
            text.push_str(&shared.registry.render_text());
            IntrospectReport::Metrics { text }
        }
        IntrospectWhat::SlowQueries => IntrospectReport::SlowQueries {
            entries: shared
                .slow_log
                .entries()
                .iter()
                .map(WireSlowQuery::from)
                .collect(),
        },
    }
}

/// The trace id a request carries on the wire, if any.
fn wire_trace(msg: &Message) -> Option<u64> {
    match msg {
        Message::Query { trace, .. } | Message::ApplyUpdates { trace, .. } => *trace,
        _ => None,
    }
}

/// Opens the span tree for a tagged request that passes the head sampler:
/// a `request` root and a closed `admission` marker carrying the admission
/// inputs. A queued request adds `queue` ([`RequestTrace::start_queue`]), a
/// resident lookup `execute` ([`RequestTrace::start_execute`]).
fn begin_request_trace(
    shared: &Shared,
    msg: &Message,
    cost: u64,
    queue_depth: u64,
) -> Option<RequestTrace> {
    let id = TraceId::from_raw(wire_trace(msg)?);
    if !id.sampled(shared.config.trace_sample) {
        return None;
    }
    let ctx = TraceContext::begin(id, shared.telemetry.clone());
    let root = ctx.begin_span("request", SpanId::NONE);
    TraceCursor::new(&ctx, root).record(
        "admission",
        0,
        &[("cost", cost), ("queue_depth", queue_depth)],
    );
    Some(RequestTrace {
        ctx,
        root,
        queue: None,
        execute: None,
    })
}

/// Answer-or-close: a request that arrives after the queue closed gets a
/// typed refusal, never silence.
fn refuse(shared: &Shared, conn: &Conn, id: u64) {
    let reason = shared
        .dead
        .lock()
        .expect("dead poisoned")
        .clone()
        .unwrap_or_else(|| "server is shutting down".into());
    let _ = conn.send(&Message::Error {
        id,
        message: format!("request refused: {reason}"),
    });
}

/// Queues an admitted job, whose cost is already counted, and wakes the
/// executor.
fn enqueue(shared: &Shared, mut state: MutexGuard<'_, QueueState>, mut job: Job) {
    if let Some(rt) = &mut job.trace {
        rt.start_queue();
    }
    state.jobs.push_back(job);
    shared.metrics.queue_depth.set(state.jobs.len() as u64);
    drop(state);
    shared.ready.notify_one();
}

/// The admission decision. Runs on the reader thread so a shed never
/// touches the executor: the reply is written straight back and the request
/// never occupies a queue slot. An admitted query whose connection has
/// nothing else in flight is looked up right here ([`answer_resident`]);
/// every other admitted request is queued.
fn admit(shared: &Shared, conn: &Arc<Conn>, msg: Message) {
    let cost = estimate_cost(&msg);
    let id = msg.request_id();
    let mut state = shared.queue.lock().expect("queue poisoned");
    if !state.open {
        drop(state);
        refuse(shared, conn, id);
        return;
    }
    let inflight = conn.inflight.load(Ordering::Acquire);
    let over_capacity = state.depth() >= shared.config.queue_capacity;
    let over_budget = state.cost.saturating_add(cost) > shared.config.cost_budget;
    let over_inflight = inflight >= shared.config.per_conn_inflight;
    if over_capacity || over_budget || over_inflight {
        let info = OverloadInfo {
            queue_depth: state.depth() as u64,
            queue_cost: state.cost,
            estimated_cost: cost,
            cost_budget: shared.config.cost_budget,
        };
        drop(state);
        // One shed, one reason: the checks cascade, so attribute the shed
        // to the first tripwire in queue → budget → inflight order.
        if over_capacity {
            shared.metrics.shed_queue_full.inc();
        } else if over_budget {
            shared.metrics.shed_cost_budget.inc();
        } else {
            shared.metrics.shed_inflight.inc();
        }
        let _ = conn.send(&Message::Overloaded { id, info });
        return;
    }
    let resident = inflight == 0 && matches!(msg, Message::Query { .. });
    let job = Job {
        conn: Arc::clone(conn),
        trace: begin_request_trace(shared, &msg, cost, state.depth() as u64),
        work: Work::Request(msg),
        cost,
        accepted_at: Instant::now(),
    };
    state.cost += cost;
    conn.inflight.fetch_add(1, Ordering::AcqRel);
    shared.metrics.admitted.inc();
    if resident {
        state.reserved += 1;
        drop(state);
        answer_resident(shared, job);
    } else {
        enqueue(shared, state, job);
    }
}

/// The reader path of an admitted query on an idle connection, which holds
/// a reserved queue slot: a resident answer is written right here and the
/// slot returned; on a miss the slot becomes the queued job. Nothing else of
/// this connection is in flight, so the reply cannot overtake an earlier
/// one, and the read lock keeps every mutation out while the answer is
/// looked up.
fn answer_resident(shared: &Shared, mut job: Job) {
    let Work::Request(Message::Query { id, query, .. }) = &job.work else {
        unreachable!("only queries are looked up");
    };
    let id = *id;
    if let Some(rt) = &mut job.trace {
        rt.start_execute();
    }
    let cursor = job
        .trace
        .as_ref()
        .map_or(TraceCursor::NONE, RequestTrace::execute_cursor);
    // A poisoned lock or a taken backend is "not resident": the request
    // falls through to the queue, which refuses once it is closed.
    let answer = match shared.backend.read() {
        Ok(backend) => backend
            .as_ref()
            .and_then(|b| on_service!(b, s => s.lookup(query, cursor))),
        Err(_) => None,
    };
    let mut state = shared.queue.lock().expect("queue poisoned");
    state.reserved -= 1;
    let Some(result) = answer else {
        if let Some(rt) = &mut job.trace {
            rt.abandon_execute();
        }
        if state.open {
            enqueue(shared, state, job);
        } else {
            state.cost -= job.cost;
            drop(state);
            refuse(shared, &job.conn, id);
            finish(shared, &job.conn, job.accepted_at);
        }
        return;
    };
    state.cost -= job.cost;
    drop(state);
    shared.metrics.reader_hits.inc();
    // Finish the trace *before* the reply leaves, as the executor does.
    if let Some(rt) = job.trace.take() {
        rt.finish(shared);
    }
    let _ = job.conn.send(&Message::QueryOk {
        id,
        transitions: result.transitions,
    });
    finish(shared, &job.conn, job.accepted_at);
}

/// Executor state for live subscriptions: wire handle (the backend's raw
/// id) → owning connection, and each connection's handles.
#[derive(Default)]
struct SubscriptionTable {
    by_raw: HashMap<u64, u64>,
    by_conn: HashMap<u64, Vec<u64>>,
}

fn executor_loop(shared: &Shared) {
    let mut subs = SubscriptionTable::default();
    let mut batch: Vec<Job> = Vec::new();
    // Update records applied this process lifetime — the health watermark
    // for storage-less backends (in-memory state and executor lifetime
    // coincide, so a process-local count is exact).
    let mut applied_records: u64 = 0;
    loop {
        {
            let mut state = shared.queue.lock().expect("queue poisoned");
            while state.jobs.is_empty() {
                if !state.open {
                    return;
                }
                state = shared.ready.wait(state).expect("queue poisoned");
            }
            let take = state.jobs.len().min(shared.config.max_batch.max(1));
            for _ in 0..take {
                let job = state.jobs.pop_front().expect("checked non-empty");
                state.cost -= job.cost;
                batch.push(job);
            }
            shared.metrics.queue_depth.set(state.jobs.len() as u64);
        }
        let injected = shared
            .config
            .failpoints
            .as_ref()
            .and_then(|fp| fp.hit(SERVER_EXECUTOR_SITE));
        if matches!(injected, Some(FaultAction::Kill)) {
            kill_server(shared, "injected kill at net.server.executor");
            batch.clear();
            return;
        }
        if let Some(FaultAction::Delay { nanos }) = &injected {
            // An injected stall: the batch is delayed wholesale, exactly
            // like an executor wedged on a slow backend.
            std::thread::sleep(Duration::from_nanos(*nanos));
        }
        // Snapshot who is owed a reply *before* running the batch: if the
        // executor panics we can still answer every request in it.
        let pending: Vec<(Arc<Conn>, u64)> = batch
            .iter()
            .filter_map(|job| match &job.work {
                Work::Request(msg) => Some((Arc::clone(&job.conn), msg.request_id())),
                Work::Disconnect => None,
            })
            .collect();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            if let Some(FaultAction::Panic { message }) = &injected {
                panic!("{}", message.clone());
            }
            process_batch(shared, &mut subs, &mut batch, &mut applied_records);
        }));
        if let Err(payload) = outcome {
            executor_panicked(shared, &pending, payload);
            batch.clear();
            // The backend may hold a half-applied batch; it goes back to the
            // caller (via `Server::stop`) for inspection, but serves no
            // further traffic.
            return;
        }
    }
}

/// Extracts a human-readable message from a caught panic payload.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".into()
    }
}

/// Executor-panic containment: no request may be stranded waiting on a
/// reply that will never come. Every request in the failed batch and every
/// request still queued gets a typed [`Message::Error`], the queue closes
/// (later arrivals are refused in [`admit`]), and every connection is
/// severed so blocked readers observe a close rather than a hang. A reply
/// may duplicate one already written before the panic landed — an extra
/// `Error` for an answered id is noise the client discards; a missing reply
/// would be a hang.
fn executor_panicked(
    shared: &Shared,
    pending: &[(Arc<Conn>, u64)],
    payload: Box<dyn std::any::Any + Send>,
) {
    let message = format!("server executor panicked: {}", panic_message(payload));
    {
        let mut dead = shared.dead.lock().expect("dead poisoned");
        if dead.is_none() {
            *dead = Some(message.clone());
        }
    }
    shared.shutting_down.store(true, Ordering::SeqCst);
    for (conn, id) in pending {
        let _ = conn.send(&Message::Error {
            id: *id,
            message: message.clone(),
        });
    }
    // Close the queue and answer everything still in it, FIFO order.
    let drained = {
        let mut state = shared.queue.lock().expect("queue poisoned");
        state.open = false;
        state.drain()
    };
    for job in &drained {
        if let Work::Request(msg) = &job.work {
            let _ = job.conn.send(&Message::Error {
                id: msg.request_id(),
                message: message.clone(),
            });
        }
    }
    shared.ready.notify_all();
    shared.close_edge(None);
}

/// Injected hard kill: the process "dies" — the queue closes and empties
/// without answering (a real crash answers nothing), every connection is
/// severed so clients observe a close immediately, and the listener shuts
/// so reconnect attempts get connection-refused rather than a hang.
fn kill_server(shared: &Shared, reason: &str) {
    {
        let mut dead = shared.dead.lock().expect("dead poisoned");
        if dead.is_none() {
            *dead = Some(reason.to_string());
        }
    }
    shared.shutting_down.store(true, Ordering::SeqCst);
    {
        let mut state = shared.queue.lock().expect("queue poisoned");
        state.open = false;
        state.drain();
    }
    shared.ready.notify_all();
    shared.close_edge(None);
}

/// Processes one drained batch in FIFO order, funnelling consecutive
/// queries through a single `execute_batch` call so the service's grouping
/// and worker pool see them together.
fn process_batch(
    shared: &Shared,
    subs: &mut SubscriptionTable,
    batch: &mut Vec<Job>,
    applied_records: &mut u64,
) {
    let mut queries: Vec<RknntQuery> = Vec::new();
    let mut query_meta: Vec<QueryMeta> = Vec::new();
    let mut jobs = batch.drain(..).peekable();
    while let Some(job) = jobs.next() {
        match job.work {
            Work::Request(Message::Query { id, query, .. }) => {
                queries.push(query);
                query_meta.push((job.conn, id, job.accepted_at, job.trace));
                let next_is_query = matches!(
                    jobs.peek(),
                    Some(Job {
                        work: Work::Request(Message::Query { .. }),
                        ..
                    })
                );
                if !next_is_query {
                    flush_queries(shared, &mut queries, &mut query_meta);
                }
            }
            Work::Request(msg) => shared.with_backend_mut(|backend| {
                handle_control(
                    backend,
                    shared,
                    subs,
                    &job.conn,
                    msg,
                    job.accepted_at,
                    job.trace,
                    applied_records,
                )
            }),
            Work::Disconnect => shared.with_backend_mut(|backend| {
                for raw in subs.by_conn.remove(&job.conn.id).unwrap_or_default() {
                    if subs.by_raw.remove(&raw).is_some() {
                        on_service!(backend, s => s.unsubscribe(SubscriptionId(raw)));
                        shared.metrics.subscriptions_reclaimed.inc();
                    }
                }
            }),
        }
    }
}

/// Per-query reply bookkeeping through a funnelled batch: connection,
/// request id, admission time, and the request's trace (if sampled).
type QueryMeta = (Arc<Conn>, u64, Instant, Option<RequestTrace>);

fn flush_queries(shared: &Shared, queries: &mut Vec<RknntQuery>, meta: &mut Vec<QueryMeta>) {
    if queries.is_empty() {
        return;
    }
    // Every traced request in the funnel gets its `queue` span closed and
    // an `execute` span bracketing the backend call; the backend's own
    // span tree hangs off the *first* traced request (one `execute_batch`
    // serves the whole funnel, so its internals belong to one tree).
    for (_, _, _, trace) in meta.iter_mut() {
        if let Some(rt) = trace {
            rt.start_execute();
        }
    }
    let batch_cursor = meta
        .iter()
        .find_map(|(_, _, _, trace)| trace.as_ref())
        .map_or(TraceCursor::NONE, RequestTrace::execute_cursor);
    let (results, _stats) =
        shared.with_backend(|b| on_service!(b, s => s.execute_batch_traced(queries, batch_cursor)));
    for ((conn, id, accepted_at, trace), result) in meta.drain(..).zip(results) {
        // Finish the trace *before* the reply leaves: a client that has its
        // answer can immediately introspect and find the promoted trace.
        if let Some(rt) = trace {
            rt.finish(shared);
        }
        let _ = conn.send(&Message::QueryOk {
            id,
            transitions: result.transitions,
        });
        finish(shared, &conn, accepted_at);
    }
    queries.clear();
}

#[allow(clippy::too_many_arguments)]
fn handle_control(
    backend: &mut Backend,
    shared: &Shared,
    subs: &mut SubscriptionTable,
    conn: &Arc<Conn>,
    msg: Message,
    accepted_at: Instant,
    mut trace: Option<RequestTrace>,
    applied_records: &mut u64,
) {
    match msg {
        Message::Subscribe { id, query } => {
            let (sid, transitions) = on_service!(backend, s => {
                let sid = s.subscribe(query);
                (sid, s.subscription_result(sid).map(<[_]>::to_vec))
            });
            let raw = sid.raw();
            subs.by_raw.insert(raw, conn.id);
            subs.by_conn.entry(conn.id).or_default().push(raw);
            let _ = conn.send(&Message::SubscribeOk {
                id,
                subscription: raw,
                transitions: transitions.unwrap_or_default(),
            });
        }
        Message::Unsubscribe { id, subscription } => {
            // Only the owning connection may drop a subscription.
            let existed = if subs.by_raw.get(&subscription) == Some(&conn.id) {
                subs.by_raw.remove(&subscription);
                if let Some(raws) = subs.by_conn.get_mut(&conn.id) {
                    raws.retain(|&r| r != subscription);
                }
                on_service!(backend, s => s.unsubscribe(SubscriptionId(subscription)))
            } else {
                false
            };
            let _ = conn.send(&Message::UnsubscribeOk { id, existed });
        }
        Message::ApplyUpdates { id, updates, .. } => {
            let records = updates.len() as u64;
            let cursor = trace.as_mut().map_or(TraceCursor::NONE, |rt| {
                rt.start_execute();
                rt.execute_cursor()
            });
            let outcome = on_service!(backend, s => s.try_apply_updates(updates, cursor));
            // Finish the trace *before* the reply leaves: a client that has
            // its answer can immediately introspect and find the promoted
            // trace.
            if let Some(rt) = trace.take() {
                rt.finish(shared);
            }
            match outcome {
                Ok(stats) => {
                    // Counts records *received*, mirroring the WAL watermark
                    // (which appends every record before applying, rejected
                    // ones included).
                    *applied_records += records;
                    let _ = conn.send(&Message::UpdatesOk {
                        id,
                        applied: stats.applied as u64,
                        rejected: stats.rejected as u64,
                    });
                    push_deltas(shared, subs, stats.deltas);
                }
                // The WAL append failed and rolled back: nothing applied,
                // nothing counted, no deltas. The request gets a typed
                // error and the server keeps serving.
                Err(error) => {
                    let _ = conn.send(&Message::Error {
                        id,
                        message: format!("update batch not applied: {error}"),
                    });
                }
            }
        }
        Message::Ping { id } => {
            let _ = conn.send(&Message::Pong { id });
        }
        Message::Prune { id, filter, k } => {
            let (origins, destinations, pruned_nodes) =
                on_service!(backend, s => prune(s, &filter, k));
            let _ = conn.send(&Message::PruneOk {
                id,
                pruned_nodes,
                origins,
                destinations,
            });
        }
        Message::Health { id } => {
            // With storage attached, `next_seq − 1` (every record is
            // WAL-appended before it applies, one frame each: durable across
            // restarts); the executor-local count otherwise.
            let stats = on_service!(backend, s => s.storage_stats());
            let watermark = stats.map_or(*applied_records, |st| st.next_seq.saturating_sub(1));
            let _ = conn.send(&Message::HealthOk { id, watermark });
        }
        // Readers only enqueue request kinds; queries are flushed upstream.
        _ => {}
    }
    if let Some(rt) = trace {
        rt.finish(shared);
    }
    finish(shared, conn, accepted_at);
}

/// Streams result changes to the connections owning the affected
/// subscriptions. Deltas for connections that have since disconnected are
/// dropped — their subscriptions are reclaimed by the pending
/// [`Work::Disconnect`] job.
fn push_deltas(shared: &Shared, subs: &SubscriptionTable, deltas: Vec<SubscriptionDelta>) {
    for delta in deltas {
        let raw = delta.subscription.raw();
        let Some(&conn_id) = subs.by_raw.get(&raw) else {
            continue;
        };
        let conn = shared
            .conns
            .lock()
            .expect("conns poisoned")
            .get(&conn_id)
            .cloned();
        let Some(conn) = conn else { continue };
        // Count before writing: a client that has received the frame must
        // observe the incremented counter. Frames lost to a connection
        // closing mid-write still count — they were pushed, not dropped.
        shared.metrics.deltas_pushed.inc();
        let _ = conn.send(&Message::Delta {
            subscription: raw,
            entered: delta.entered,
            left: delta.left,
            reason: delta.reason,
        });
    }
}

fn finish(shared: &Shared, conn: &Conn, accepted_at: Instant) {
    conn.inflight.fetch_sub(1, Ordering::AcqRel);
    let elapsed = accepted_at.elapsed().as_nanos();
    shared
        .metrics
        .request_ns
        .record(u64::try_from(elapsed).unwrap_or(u64::MAX));
}
