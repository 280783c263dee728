//! `serve_hot`, `serve_cold` and `churn_durable`: one `Client` over one
//! loopback connection to a `Server`, closed loop.

use crate::inputs::{Inputs, Op, WorkloadKind};
use crate::live::{LabelledAnswers, Live, PassOutcome, PassTrace};
use crate::sys::{process_cpu_seconds, workers};
use rknnt_core::RknntQuery;
use rknnt_geo::Point;
use rknnt_index::{RouteStore, TransitionStore};
use rknnt_net::{Backend, Client, Reply, Server, ServerConfig};
use rknnt_rtree::RTreeConfig;
use rknnt_service::{
    QueryService, ServiceConfig, ShardedConfig, ShardedService, StorageConfig, StorageStats,
};
use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// How a served workload is put together.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// `None`: one `QueryService`; `Some(n)`: a `ShardedService` of n shards.
    pub shards: Option<usize>,
    /// Result-cache capacity in entries.
    pub cache_capacity: usize,
    /// Query requests kept in flight on the one connection.
    pub window: usize,
    /// Attach a storage directory (fsync on) before serving.
    pub durable: bool,
    /// Answer every distinct query once during set-up.
    pub warm_cache: bool,
}

impl Shape {
    pub fn of(kind: WorkloadKind) -> Shape {
        match kind {
            // `paper_engines` has no service on its path; its layer profile
            // drives the service, storage and net layers in this shape.
            WorkloadKind::PaperEngines | WorkloadKind::ServeHot => Shape {
                shards: None,
                cache_capacity: 1_024,
                window: 1,
                durable: false,
                warm_cache: true,
            },
            WorkloadKind::ServeCold => Shape {
                shards: Some(4),
                cache_capacity: 64,
                window: 8,
                durable: false,
                warm_cache: false,
            },
            WorkloadKind::ChurnDurable => Shape {
                shards: None,
                cache_capacity: 1_024,
                window: 1,
                durable: true,
                warm_cache: false,
            },
        }
    }

    pub fn service_config(&self) -> ServiceConfig {
        ServiceConfig::default()
            .with_workers(workers())
            .with_cache_capacity(self.cache_capacity)
    }

    /// Bulk-builds the backend this shape serves from.
    pub fn build_backend(
        &self,
        routes: Vec<Vec<Point>>,
        transitions: Vec<(Point, Point)>,
    ) -> Backend {
        match self.shards {
            None => {
                let (routes, _) = RouteStore::bulk_build(RTreeConfig::default(), routes);
                let transitions = TransitionStore::bulk_build(RTreeConfig::default(), transitions);
                Backend::Single(QueryService::new(
                    routes,
                    transitions,
                    self.service_config(),
                ))
            }
            Some(shards) => Backend::Sharded(ShardedService::bulk_build(
                ShardedConfig::default()
                    .with_shards(shards)
                    .with_base(self.service_config()),
                routes,
                transitions,
            )),
        }
    }
}

/// Storage settings of the durable workload: write-ahead log and
/// checkpoints, without the flush. This machine's disk flush drifts between
/// 0.27 and 0.45 ms from one minute to the next, which alone put a 13–19 %
/// spread on `update_p50_ms`; what the flush costs is measured by the
/// traced run (`storage.wal_append_us` against `storage.wal_append_nosync_us`).
pub fn storage_config() -> StorageConfig {
    StorageConfig::default().with_fsync(false)
}

/// Attaches `dir` to a backend (first checkpoint included).
pub fn attach_storage(backend: &mut Backend, dir: &Path) -> Result<StorageStats, String> {
    match backend {
        Backend::Single(s) => s.attach_storage(dir, storage_config()),
        Backend::Sharded(s) => s.attach_storage(dir, storage_config()),
    }
    .map_err(|e| format!("attach_storage: {e}"))
}

pub struct ServedWorkload {
    server: Option<Server>,
    client: Client,
    window: usize,
    storage_dir: Option<PathBuf>,
    /// Subscription deltas pushed to the client so far.
    pub deltas: u64,
}

impl ServedWorkload {
    /// Raw inputs → ready to serve: bulk build, service (or shard fleet)
    /// construction, storage attach + first checkpoint, server start,
    /// connect, subscriptions, cache warm-up.
    pub fn setup(
        inputs: &Inputs,
        routes: Vec<Vec<Point>>,
        transitions: Vec<(Point, Point)>,
        storage_dir: &Path,
    ) -> Result<Self, String> {
        let shape = Shape::of(inputs.kind);
        let mut backend = shape.build_backend(routes, transitions);
        let storage_dir = if shape.durable {
            std::fs::create_dir_all(storage_dir).map_err(|e| e.to_string())?;
            attach_storage(&mut backend, storage_dir)?;
            Some(storage_dir.to_path_buf())
        } else {
            None
        };
        let server =
            Server::start(backend, ServerConfig::default()).map_err(|e| format!("start: {e}"))?;
        let mut client =
            Client::connect(server.local_addr()).map_err(|e| format!("connect: {e}"))?;
        for query in &inputs.subscriptions {
            match client.subscribe(query) {
                Ok(Reply::Answered(_)) => {}
                other => return Err(format!("subscribe: {other:?}")),
            }
        }
        if shape.warm_cache {
            for query in &inputs.queries {
                match client.query(query) {
                    Ok(Reply::Answered(_)) => {}
                    other => return Err(format!("cache warm-up: {other:?}")),
                }
            }
        }
        Ok(ServedWorkload {
            server: Some(server),
            client,
            window: shape.window,
            storage_dir,
            deltas: 0,
        })
    }

    pub fn client(&mut self) -> &mut Client {
        &mut self.client
    }

    pub fn server(&self) -> &Server {
        self.server.as_ref().expect("server running")
    }

    /// Crash: drops the server and its backend with no checkpoint, then
    /// reopens the storage directory — recovery must rebuild the state from
    /// the first checkpoint plus the WAL. Returns the reopened service, the
    /// time the reopen took and what it replayed.
    pub fn crash_and_reopen(mut self) -> Result<(QueryService, f64, StorageStats), String> {
        let dir = self.storage_dir.take().ok_or("workload is not durable")?;
        drop(self.server.take());
        let t = Instant::now();
        let config = Shape::of(WorkloadKind::ChurnDurable).service_config();
        let (service, stats) = QueryService::open(&dir, config, storage_config())
            .map_err(|e| format!("reopen: {e}"))?;
        Ok((service, t.elapsed().as_secs_f64(), stats))
    }
}

/// A query request on the wire: its id, its op and when it was sent.
type InFlight = VecDeque<(u64, usize, Instant)>;

fn root_span(trace: &mut Option<PassTrace<'_>>, name: &'static str, op_id: usize, elapsed_ns: u64) {
    if let Some(trace) = trace.as_mut() {
        if trace.sampled(op_id) {
            let end = trace.tracer.now_ns();
            trace
                .tracer
                .record(name, end - elapsed_ns, end, None, op_id as u64);
        }
    }
}

/// Receives one query reply and books its latency.
fn receive(
    client: &mut Client,
    in_flight: &mut InFlight,
    out: &mut PassOutcome,
    trace: &mut Option<PassTrace<'_>>,
) -> Result<(), String> {
    let (id, reply) = client.recv_query_reply().map_err(|e| e.to_string())?;
    let at = in_flight
        .iter()
        .position(|(sent, _, _)| *sent == id)
        .ok_or("reply to a request never sent")?;
    let (_, op_id, sent_at) = in_flight.remove(at).expect("position is in range");
    let elapsed = sent_at.elapsed();
    match reply {
        Reply::Answered(transitions) => {
            std::hint::black_box(transitions);
            out.query_ms.push(elapsed.as_secs_f64() * 1e3);
        }
        Reply::Overloaded(_) => out.failed += 1,
    }
    root_span(trace, "client.query", op_id, elapsed.as_nanos() as u64);
    Ok(())
}

impl ServedWorkload {
    fn drive(
        &mut self,
        inputs: &Inputs,
        ops: &[Op],
        out: &mut PassOutcome,
        trace: &mut Option<PassTrace<'_>>,
    ) -> Result<(), String> {
        let mut in_flight = InFlight::new();
        for (op_id, op) in ops.iter().enumerate() {
            match op {
                Op::Query { index, .. } => {
                    if in_flight.len() == self.window {
                        receive(&mut self.client, &mut in_flight, out, trace)?;
                    }
                    let sent_at = Instant::now();
                    let id = self
                        .client
                        .send_query(&inputs.queries[*index as usize])
                        .map_err(|e| e.to_string())?;
                    in_flight.push_back((id, op_id, sent_at));
                }
                Op::Update(batch) => {
                    while !in_flight.is_empty() {
                        receive(&mut self.client, &mut in_flight, out, trace)?;
                    }
                    let owned = batch.clone();
                    let t = Instant::now();
                    let reply = self
                        .client
                        .apply_updates(owned)
                        .map_err(|e| e.to_string())?;
                    let elapsed = t.elapsed();
                    match reply {
                        Reply::Answered(counts)
                            if counts.rejected == 0 && counts.applied == batch.len() as u64 =>
                        {
                            out.update_ms.push(elapsed.as_secs_f64() * 1e3);
                        }
                        _ => out.failed += 1,
                    }
                    root_span(trace, "client.update", op_id, elapsed.as_nanos() as u64);
                    self.deltas += self.client.take_deltas().len() as u64;
                }
            }
        }
        while !in_flight.is_empty() {
            receive(&mut self.client, &mut in_flight, out, trace)?;
        }
        Ok(())
    }
}

impl Live for ServedWorkload {
    fn run(
        &mut self,
        inputs: &Inputs,
        ops: &[Op],
        mut trace: Option<PassTrace<'_>>,
    ) -> PassOutcome {
        let mut out = PassOutcome::default();
        let (started, cpu) = (Instant::now(), process_cpu_seconds());
        let outcome = self.drive(inputs, ops, &mut out, &mut trace);
        out.wall_s = started.elapsed().as_secs_f64();
        out.cpu_s = process_cpu_seconds() - cpu;
        if let Err(error) = outcome {
            eprintln!("pass aborted: {error}");
            out.failed = (ops.len() - out.query_ms.len() - out.update_ms.len()) as u64;
        }
        out
    }

    fn answers(&mut self, queries: &[RknntQuery]) -> Result<LabelledAnswers, String> {
        let mut answers = Vec::with_capacity(queries.len());
        for query in queries {
            match self.client.query(query) {
                Ok(Reply::Answered(transitions)) => answers.push(transitions),
                other => return Err(format!("probe query: {other:?}")),
            }
        }
        Ok(vec![("client".to_string(), answers)])
    }
}
