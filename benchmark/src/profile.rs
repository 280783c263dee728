//! The traced run (`--trace 1`): where does the time go, layer by layer?
//!
//! Everything is measured **from outside**: the benchmark times calls into
//! public functions and reads the stats structs and counters those calls
//! already return. Three sources feed the per-layer metrics:
//!
//! 1. **The workload's own path** — one set-up, the lead-in, three untraced
//!    passes and one traced pass whose sampled ops get a root span each
//!    (`engine.execute` or `client.query`/`client.update`).
//! 2. **The served instance** — the workload's own server, or for
//!    `paper_engines` (which has none) a server built over its world in the
//!    `serve_hot` shape: counter deltas over the passes (`Client::introspect`),
//!    `Server::request_latency`, ping round trips.
//! 3. **An in-process twin** — the same backend shape, never behind a
//!    socket, replaying the same ops: `BatchStats` and `UpdateStats` per
//!    call, each sampled op's wire steps (encode → frame → decode →
//!    `execute_batch` → encode → frame → decode) laid under its wire root,
//!    then storage attach, raw WAL appends and a crash-reopen.
//!
//! Plus the index, geometry and engine probes over raw stores built from
//! the same world. Every workload reports every layer: a layer that is not
//! on a workload's request path is still driven with that workload's inputs,
//! so a change to it shows up in all four traces, while the end-to-end
//! numbers only move where the path crosses it.

use crate::catalogue::PER_LAYER;
use crate::inputs::{Inputs, Op};
use crate::live::{Live, PassOutcome, PassTrace};
use crate::run::{
    apply_to_model, check, checked_inputs, lead_in, pass_ops, pass_qps, timed_setups, RunArgs,
    RunResult, Scratch, Workload,
};
use crate::served::{attach_storage, storage_config, ServedWorkload, Shape};
use crate::spans::Tracer;
use crate::stats::{iqr_over_median, mean, median};
use crate::sys::set_affinity;
use rknnt_core::{
    prune_transitions, DivideConquerEngine, FilterRefineEngine, RknnTEngine, RknntQuery,
    RknntResult,
};
use rknnt_geo::point_route_distance;
use rknnt_index::{RouteStore, TransitionStore};
use rknnt_net::protocol::{frame_bytes, read_frame};
use rknnt_net::{Backend, Client, IntrospectReport, IntrospectWhat, Message, Reply};
use rknnt_rtree::RTreeConfig;
use rknnt_service::{
    BatchStats, QueryService, ShardedConfig, ShardedService, StoreUpdate, UpdateStats,
};
use rknnt_storage::Storage;
use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

/// Untraced passes before the traced one.
const UNTRACED_PASSES: usize = 3;
/// About this many ops of the traced pass get spans.
const SAMPLED_OPS: usize = 512;
/// Distinct queries the engine probes run (each five times over).
const CORE_QUERIES: usize = 96;
/// Standing queries the twin carries when the workload has none of its own,
/// so subscription upkeep is measured on every update stream.
const PROBE_SUBSCRIPTIONS: usize = 32;

/// Update batches of a slice the twin and the storage probes replay (the
/// read-only workloads' write slices are 4 000 batches long; with standing
/// queries to keep current the twin needs milliseconds per batch).
const TWIN_BATCHES: usize = 256;

type Metrics = BTreeMap<&'static str, f64>;

/// `ops` up to and including its `batches`-th update batch.
fn prefix(ops: &[Op], batches: usize) -> &[Op] {
    let mut seen = 0;
    for (i, op) in ops.iter().enumerate() {
        if matches!(op, Op::Update(_)) {
            seen += 1;
            if seen == batches {
                return &ops[..=i];
            }
        }
    }
    ops
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn ratio(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        part / whole
    }
}

// ---------------------------------------------------------------------
// The backend, in-process.
// ---------------------------------------------------------------------

fn execute_batch(backend: &Backend, queries: &[RknntQuery]) -> (Vec<RknntResult>, BatchStats) {
    match backend {
        Backend::Single(s) => s.execute_batch(queries),
        Backend::Sharded(s) => s.execute_batch(queries),
    }
}

fn apply_updates(backend: &mut Backend, updates: Vec<StoreUpdate>) -> UpdateStats {
    match backend {
        Backend::Single(s) => s.apply_updates(updates),
        Backend::Sharded(s) => s.apply_updates(updates),
    }
}

fn subscribe(backend: &mut Backend, query: RknntQuery) {
    match backend {
        Backend::Single(s) => {
            s.subscribe(query);
        }
        Backend::Sharded(s) => {
            s.subscribe(query);
        }
    }
}

fn subscriptions(backend: &Backend) -> usize {
    match backend {
        Backend::Single(s) => s.subscriptions(),
        Backend::Sharded(s) => s.subscriptions(),
    }
}

// ---------------------------------------------------------------------
// Counters of the served instance, read over the wire.
// ---------------------------------------------------------------------

/// Every `counter=NAME value=N` line of the server's metrics text.
struct ServerCounters {
    counters: BTreeMap<String, f64>,
}

impl ServerCounters {
    fn read(client: &mut Client) -> Result<ServerCounters, String> {
        let text = match client.introspect(IntrospectWhat::Metrics) {
            Ok(IntrospectReport::Metrics { text }) => text,
            other => return Err(format!("introspect: {other:?}")),
        };
        let counters = text
            .lines()
            .filter_map(|line| {
                let mut words = line.split_whitespace();
                let name = words.next()?.strip_prefix("counter=")?;
                let value = words.next()?.strip_prefix("value=")?.parse().ok()?;
                Some((name.to_string(), value))
            })
            .collect();
        Ok(ServerCounters { counters })
    }

    /// How much a counter grew since `earlier`.
    fn grew(&self, earlier: &ServerCounters, name: &str) -> f64 {
        let at = |c: &ServerCounters| c.counters.get(name).copied().unwrap_or(0.0);
        at(self) - at(earlier)
    }
}

// ---------------------------------------------------------------------
// Layer probes over raw stores.
// ---------------------------------------------------------------------

fn index_geo_core(inputs: &Inputs, tracer: &mut Tracer, m: &mut Metrics) {
    let (routes, transitions) = (inputs.routes.clone(), inputs.transitions.clone());
    let ((routes, mut transitions), span) = tracer.time("index.bulk_build", None, 0, || {
        let (routes, _) = RouteStore::bulk_build(RTreeConfig::default(), routes);
        (
            routes,
            TransitionStore::bulk_build(RTreeConfig::default(), transitions),
        )
    });
    m.insert(
        "index.bulk_build_ms",
        tracer.spans()[span as usize].duration_ns() as f64 / 1e6,
    );
    m.insert("rtree.tr_nodes", transitions.rtree().node_count() as f64);
    m.insert("rtree.tr_height", transitions.rtree().height() as f64);
    m.insert("rtree.rr_nodes", routes.rtree().node_count() as f64);

    // geo: the public point-to-route kernel over the op list's own points.
    let points: Vec<_> = inputs.queries.iter().flat_map(|q| q.route.iter()).collect();
    let sample: Vec<_> = routes.routes().take(64).collect();
    let t = Instant::now();
    let mut sum = 0.0;
    for p in &points {
        for route in &sample {
            sum += point_route_distance(p, &route.points);
        }
    }
    std::hint::black_box(sum);
    m.insert(
        "geo.dist_eval_ns",
        t.elapsed().as_secs_f64() * 1e9 / (points.len() * sample.len()).max(1) as f64,
    );

    // core: the three phases of Algorithm 1 called one by one, then every
    // engine end to end, over the first distinct queries.
    let filter_refine = FilterRefineEngine::new(&routes, &transitions);
    let voronoi = FilterRefineEngine::with_voronoi(&routes, &transitions);
    let divide = DivideConquerEngine::new(&routes, &transitions);
    let (mut filter, mut prune, mut verify) = (Vec::new(), Vec::new(), Vec::new());
    let mut by_engine: [Vec<f64>; 3] = Default::default();
    let mut by_k: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
    let mut counts = [0usize; 7];
    for (i, query) in inputs.queries.iter().take(CORE_QUERIES).enumerate() {
        let op_id = 1_000_000 + i as u64;
        let start = tracer.now_ns();
        let (outcome, a) = tracer.time("core.build_filter", None, op_id, || {
            filter_refine.build_filter(query)
        });
        let (pruned, b) = tracer.time("core.prune_transitions", None, op_id, || {
            prune_transitions(&transitions, &outcome.filter_set, query.k, false)
        });
        std::hint::black_box(pruned);
        let result = filter_refine.execute_with_filter(query, &outcome);
        filter.push(tracer.spans()[a as usize].duration_ns() as f64 / 1e6);
        prune.push(tracer.spans()[b as usize].duration_ns() as f64 / 1e6);
        verify.push(ms(result.timings.verification));
        let s = result.stats;
        for (total, add) in counts.iter_mut().zip([
            s.filter_points,
            s.filter_routes,
            s.refine_nodes,
            s.pruned_tr_nodes,
            s.candidate_endpoints,
            s.verified_endpoints,
            s.result_transitions,
        ]) {
            *total += add;
        }
        let engines: [&dyn RknnTEngine; 3] = [&filter_refine, &voronoi, &divide];
        for (slot, engine) in engines.into_iter().enumerate() {
            let t = Instant::now();
            std::hint::black_box(engine.execute(query));
            let took = ms(t.elapsed());
            by_engine[slot].push(took);
            by_k.entry(query.k).or_default().push(took);
        }
        let end = tracer.now_ns();
        tracer.record("core.probe", start, end, None, op_id);
    }
    drop((filter_refine, voronoi, divide));
    m.insert("core.filter_ms", mean(&filter));
    m.insert("core.prune_ms", mean(&prune));
    m.insert("core.verify_ms", mean(&verify));
    m.insert(
        "core.verify_us_per_candidate",
        ratio(verify.iter().sum::<f64>() * 1e3, counts[4] as f64),
    );
    m.insert("core.filter_refine_ms", mean(&by_engine[0]));
    m.insert("core.voronoi_ms", mean(&by_engine[1]));
    m.insert("core.divide_conquer_ms", mean(&by_engine[2]));
    // Every workload's queries use k = 5 and k = 10.
    m.insert(
        "core.k5_ms",
        mean(by_k.get(&5).map_or(&[][..], Vec::as_slice)),
    );
    m.insert(
        "core.k10_ms",
        mean(by_k.get(&10).map_or(&[][..], Vec::as_slice)),
    );
    for (name, total) in [
        "core.filter_points",
        "core.filter_routes",
        "core.refine_nodes",
        "core.pruned_tr_nodes",
        "core.candidates",
        "core.verified",
        "core.results",
    ]
    .into_iter()
    .zip(counts)
    {
        m.insert(name, total as f64);
    }
    m.insert(
        "core.verify_yield",
        ratio(counts[5] as f64, counts[4] as f64),
    );

    // index: every transition update of the warm-up slice, one call each.
    let (mut inserts, mut removes) = (Vec::new(), Vec::new());
    for op in &inputs.slices[0] {
        let Op::Update(batch) = op else { continue };
        for update in batch {
            match update {
                StoreUpdate::InsertTransition {
                    origin,
                    destination,
                } => {
                    let t = Instant::now();
                    std::hint::black_box(transitions.insert(*origin, *destination));
                    inserts.push(us(t.elapsed()));
                }
                StoreUpdate::ExpireTransition(id) => {
                    let t = Instant::now();
                    std::hint::black_box(transitions.remove(*id));
                    removes.push(us(t.elapsed()));
                }
                _ => {}
            }
        }
    }
    m.insert("index.transition_insert_us", mean(&inserts));
    m.insert("index.transition_remove_us", mean(&removes));
}

// ---------------------------------------------------------------------
// The in-process twin.
// ---------------------------------------------------------------------

/// Sums of what the twin's calls reported.
#[derive(Default)]
struct TwinTotals {
    batches: f64,
    lookup: Duration,
    grouping: Duration,
    execution: Duration,
    finalize: Duration,
    /// In-process `execute_batch` wall time per query, for every query.
    per_query_us: Vec<f64>,
    encode_query: Vec<f64>,
    decode_query: Vec<f64>,
    encode_reply: Vec<f64>,
    decode_reply: Vec<f64>,
    frame: Vec<f64>,
    reply_bytes: Vec<f64>,
    apply_us: Vec<f64>,
    updates: f64,
    evicted: f64,
    retained: f64,
    cached_before: f64,
    full_drops: f64,
    reexecuted: f64,
    deltas: f64,
    sub_updates: f64,
}

/// One frame through the wire format without a wire: checksum + length on
/// the way out, length + checksum on the way in.
fn frame_round_trip(payload: &[u8], scratch: &mut Vec<u8>) -> Duration {
    let t = Instant::now();
    let framed = frame_bytes(payload).expect("payload under the frame cap");
    read_frame(&mut framed.as_slice(), scratch)
        .expect("a frame just built reads back")
        .expect("not at end of input");
    t.elapsed()
}

/// Replays `ops` on the twin the way the server would see them: queries in
/// batches of `window`, updates one batch at a time. When `tracer` is given,
/// each sampled query's wire steps are measured and laid under the root span
/// the traced pass recorded for the same op.
fn twin_replay(
    twin: &mut Backend,
    inputs: &Inputs,
    ops: &[Op],
    window: usize,
    totals: &mut TwinTotals,
    mut trace: Option<(&mut Tracer, usize)>,
) {
    let mut scratch = Vec::new();
    let mut pending: Vec<usize> = Vec::new();
    let mut flush = |twin: &mut Backend,
                     pending: &mut Vec<usize>,
                     totals: &mut TwinTotals,
                     trace: &mut Option<(&mut Tracer, usize)>| {
        if pending.is_empty() {
            return;
        }
        let queries: Vec<RknntQuery> = pending
            .iter()
            .map(|&op_id| match &ops[op_id] {
                Op::Query { index, .. } => inputs.queries[*index as usize].clone(),
                Op::Update(_) => unreachable!("only queries are pending"),
            })
            .collect();
        let t = Instant::now();
        let (results, stats) = execute_batch(twin, &queries);
        let took = t.elapsed();
        totals.batches += 1.0;
        totals.lookup += stats.timings.lookup;
        totals.grouping += stats.timings.grouping;
        totals.execution += stats.timings.execution;
        totals.finalize += stats.timings.finalize;
        let share = us(took) / queries.len() as f64;
        totals
            .per_query_us
            .extend(std::iter::repeat_n(share, queries.len()));
        if let Some((tracer, every)) = trace.as_mut() {
            for ((&op_id, query), result) in pending.iter().zip(&queries).zip(&results) {
                if op_id % *every != 0 {
                    continue;
                }
                let request = Message::Query {
                    id: op_id as u64,
                    query: query.clone(),
                    trace: None,
                };
                let t = Instant::now();
                let request_bytes = request.encode();
                let encode_query = t.elapsed();
                let frame_out = frame_round_trip(&request_bytes, &mut scratch);
                let t = Instant::now();
                std::hint::black_box(Message::decode(&request_bytes).expect("own encoding"));
                let decode_query = t.elapsed();
                let reply = Message::QueryOk {
                    id: op_id as u64,
                    transitions: result.transitions.clone(),
                };
                let t = Instant::now();
                let reply_bytes = reply.encode();
                let encode_reply = t.elapsed();
                let frame_back = frame_round_trip(&reply_bytes, &mut scratch);
                let t = Instant::now();
                std::hint::black_box(Message::decode(&reply_bytes).expect("own encoding"));
                let decode_reply = t.elapsed();
                totals.encode_query.push(us(encode_query));
                totals.decode_query.push(us(decode_query));
                totals.encode_reply.push(us(encode_reply));
                totals.decode_reply.push(us(decode_reply));
                totals.frame.push(us(frame_out + frame_back) / 2.0);
                totals.reply_bytes.push(reply_bytes.len() as f64);
                let root = tracer
                    .spans()
                    .iter()
                    .find(|s| s.op_id == op_id as u64 && s.name == "client.query")
                    .map(|s| s.id);
                if let Some(root) = root {
                    let ns = |d: Duration| d.as_nanos() as u64;
                    tracer.lay_children(
                        root,
                        &[
                            ("net.encode_query", ns(encode_query)),
                            ("net.frame", ns(frame_out)),
                            ("net.decode_query", ns(decode_query)),
                            ("service.execute_batch", (share * 1e3) as u64),
                            ("net.encode_reply", ns(encode_reply)),
                            ("net.frame", ns(frame_back)),
                            ("net.decode_reply", ns(decode_reply)),
                        ],
                    );
                }
            }
        }
        pending.clear();
    };
    for (op_id, op) in ops.iter().enumerate() {
        match op {
            Op::Query { .. } => {
                pending.push(op_id);
                if pending.len() == window {
                    flush(twin, &mut pending, totals, &mut trace);
                }
            }
            Op::Update(batch) => {
                flush(twin, &mut pending, totals, &mut trace);
                let cached = match twin {
                    Backend::Single(s) => s.cache_len(),
                    Backend::Sharded(s) => s.cache_len(),
                };
                let owned = batch.clone();
                let t = Instant::now();
                let stats = apply_updates(twin, owned);
                totals.apply_us.push(us(t.elapsed()));
                totals.updates += batch.len() as f64;
                totals.evicted += stats.evicted_entries as f64;
                totals.retained += stats.retained_entries as f64;
                totals.cached_before += cached as f64;
                totals.full_drops += stats.full_drops as f64;
                totals.reexecuted += stats.subs_reexecuted as f64;
                totals.deltas += stats.deltas.len() as f64;
                totals.sub_updates += (stats.applied * subscriptions(twin)) as f64;
            }
        }
    }
    flush(twin, &mut pending, totals, &mut trace);
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir).map_or(0, |entries| {
        entries
            .flatten()
            .map(|e| match e.metadata() {
                Ok(meta) if meta.is_dir() => dir_bytes(&e.path()),
                Ok(meta) => meta.len(),
                Err(_) => 0,
            })
            .sum()
    })
}

/// Storage, driven through the twin and through `Storage` directly.
fn storage_layer(
    mut twin: Backend,
    inputs: &Inputs,
    next_slice: &[Op],
    shape: Shape,
    scratch: &Scratch,
    tracer: &mut Tracer,
    m: &mut Metrics,
) -> Result<(), String> {
    // Attach: the first checkpoint writes the whole current state.
    let dir = scratch.dir("twin_storage");
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let (attached, span) = tracer.time("storage.checkpoint", None, 0, || {
        attach_storage(&mut twin, &dir)
    });
    let attached = attached?;
    m.insert(
        "storage.checkpoint_ms",
        tracer.spans()[span as usize].duration_ns() as f64 / 1e6,
    );
    m.insert("storage.snapshot_bytes", attached.snapshot_bytes as f64);

    // Raw WAL appends, one batch per call, with and without fsync.
    let batches: Vec<Vec<Vec<u8>>> = inputs
        .slices
        .last()
        .expect("at least one slice")
        .iter()
        .filter_map(|op| match op {
            Op::Update(batch) => Some(batch.iter().map(StoreUpdate::to_wal_record).collect()),
            Op::Query { .. } => None,
        })
        .take(4 * TWIN_BATCHES)
        .collect();
    let records: usize = batches.iter().map(Vec::len).sum();
    let mut append_us = [0.0f64; 2];
    for (slot, fsync) in [true, false].into_iter().enumerate() {
        let wal_dir = scratch.dir(if fsync { "wal_sync" } else { "wal_nosync" });
        std::fs::create_dir_all(&wal_dir).map_err(|e| e.to_string())?;
        let (mut storage, _) = Storage::open(&wal_dir, storage_config().with_fsync(fsync))
            .map_err(|e| format!("open WAL probe: {e}"))?;
        let mut took = Vec::with_capacity(batches.len());
        for batch in &batches {
            let t = Instant::now();
            storage.append(batch).map_err(|e| format!("append: {e}"))?;
            took.push(us(t.elapsed()));
        }
        append_us[slot] = median(&took);
        if fsync {
            let stats = storage.stats();
            m.insert(
                "storage.wal_bytes_per_update",
                ratio(stats.wal_bytes as f64, records as f64),
            );
            drop(storage);
            m.insert(
                "storage.disk_bytes_per_update",
                ratio(dir_bytes(&wal_dir) as f64, records as f64),
            );
        }
    }
    m.insert("storage.wal_append_us", append_us[0]);
    m.insert("storage.wal_append_nosync_us", append_us[1]);
    m.insert(
        "storage.fsync_share",
        1.0 - ratio(append_us[1], append_us[0]),
    );

    // Crash and reopen: log the next slice durably, drop without a
    // checkpoint, recover from the first checkpoint plus the WAL.
    for op in next_slice {
        if let Op::Update(batch) = op {
            apply_updates(&mut twin, batch.clone());
        }
    }
    drop(twin);
    let config = shape.service_config();
    let (replayed, span) = tracer.time("storage.reopen", None, 0, || match shape.shards {
        None => QueryService::open(&dir, config, storage_config())
            .map(|(_, stats)| stats.replayed_records),
        Some(shards) => ShardedService::open(
            &dir,
            ShardedConfig::default()
                .with_shards(shards)
                .with_base(config),
            storage_config(),
        )
        .map(|(_, stats)| stats.replayed_records),
    });
    let replayed = replayed.map_err(|e| format!("reopen twin: {e}"))?;
    let reopen_ns = tracer.spans()[span as usize].duration_ns() as f64;
    m.insert("storage.reopen_ms", reopen_ns / 1e6);
    m.insert(
        "storage.replay_records_per_s",
        ratio(replayed as f64, reopen_ns / 1e9),
    );
    Ok(())
}

// ---------------------------------------------------------------------
// The traced run.
// ---------------------------------------------------------------------

fn ping_rtt_us(client: &mut Client) -> Result<f64, String> {
    let mut took = Vec::with_capacity(200);
    for _ in 0..200 {
        let t = Instant::now();
        match client.ping() {
            Ok(Reply::Answered(())) => took.push(us(t.elapsed())),
            other => return Err(format!("ping: {other:?}")),
        }
    }
    Ok(median(&took))
}

pub fn traced_run(args: RunArgs) -> Result<RunResult, String> {
    let inputs = checked_inputs(args.kind, args.seed, false)?;
    let mut scratch = Scratch::new()?;
    let outcome = trace(&inputs, args, &scratch);
    if !matches!(&outcome, Ok(result) if result.correct) {
        scratch.keep();
    }
    outcome
}

fn trace(inputs: &Inputs, args: RunArgs, scratch: &Scratch) -> Result<RunResult, String> {
    let kind = inputs.kind;
    let shape = Shape::of(kind);
    let mut tracer = Tracer::new();
    let mut m = Metrics::new();

    // 1. The workload's own path.
    let (mut workload, _) = timed_setups(inputs, scratch, 1)?;
    let mut model = inputs.initial_model();
    let writes = lead_in(inputs, &mut workload, &mut model);
    let before = match &mut workload {
        Workload::Served(served) => Some((
            ServerCounters::read(served.client())?,
            served.server().request_latency(),
        )),
        Workload::Engines(_) => None,
    };
    let mut passes: Vec<PassOutcome> = Vec::new();
    for pass in 0..UNTRACED_PASSES {
        let ops = pass_ops(inputs, pass);
        passes.push(workload.live().run(inputs, ops, None));
        apply_to_model(&mut model, ops);
    }
    let traced_ops = pass_ops(inputs, UNTRACED_PASSES);
    let every = (traced_ops.len() / SAMPLED_OPS).max(1);
    let traced = workload.live().run(
        inputs,
        traced_ops,
        Some(PassTrace {
            tracer: &mut tracer,
            every,
        }),
    );
    apply_to_model(&mut model, traced_ops);
    let untraced_qps: Vec<f64> = passes.iter().map(pass_qps).collect();
    m.insert("bench.samples_per_pass", passes[0].query_ms.len() as f64);
    m.insert("bench.pass_spread_frac", iqr_over_median(&untraced_qps));
    m.insert(
        "bench.trace_overhead_frac",
        1.0 - pass_qps(&traced) / median(&untraced_qps),
    );
    let mut served_query_ms = traced.query_ms.clone();
    let mut attempted: u64 = passes
        .iter()
        .chain(&writes)
        .chain([&traced])
        .map(PassOutcome::attempted)
        .sum();
    let mut failed: u64 = passes
        .iter()
        .chain(&writes)
        .chain([&traced])
        .map(|p| p.failed)
        .sum();

    // 2. The served instance: the workload's own, or one built for it.
    let mut auxiliary = None;
    let (served, before) = match (&mut workload, before) {
        (Workload::Served(served), Some(before)) => (served, before),
        _ => {
            let mut built = ServedWorkload::setup(
                inputs,
                inputs.routes.clone(),
                inputs.transitions.clone(),
                &scratch.dir("auxiliary_storage"),
            )?;
            let before = (
                ServerCounters::read(built.client())?,
                built.server().request_latency(),
            );
            let over_the_wire = built.run(
                inputs,
                traced_ops,
                Some(PassTrace {
                    tracer: &mut tracer,
                    every,
                }),
            );
            attempted += over_the_wire.attempted();
            failed += over_the_wire.failed;
            served_query_ms = over_the_wire.query_ms;
            (&mut *auxiliary.insert(built), before)
        }
    };
    let (before, requests_before) = before;
    let after = ServerCounters::read(served.client())?;
    let grew = |name: &str| after.grew(&before, name);
    let batches = grew("service.batch.count");
    let queries = grew("service.batch.queries");
    let lookups = grew("service.cache.hits") + grew("service.cache.misses");
    m.insert("service.batch_size_mean", ratio(queries, batches));
    m.insert(
        "service.groups_per_batch",
        ratio(grew("service.batch.groups"), batches),
    );
    m.insert(
        "service.filters_saved_frac",
        ratio(
            grew("service.batch.filters_saved"),
            grew("service.batch.filters_saved") + grew("service.batch.filter_constructions"),
        ),
    );
    m.insert(
        "service.duplicates_coalesced_frac",
        ratio(grew("service.batch.duplicates_coalesced"), queries),
    );
    m.insert(
        "service.cache_hit_rate",
        ratio(grew("service.cache.hits"), lookups),
    );
    m.insert(
        "service.cache_evictions",
        grew("service.cache.evictions") + grew("service.cache.targeted_evictions"),
    );
    // One service is a fleet of one: every fresh execution consults it and
    // none can be written off.
    let executions = grew("router.executions");
    m.insert(
        "service.router.mean_fanout",
        if shape.shards.is_some() {
            ratio(grew("router.dispatches"), executions)
        } else {
            1.0
        },
    );
    m.insert(
        "service.router.pruned_frac",
        ratio(
            grew("router.shards_pruned"),
            grew("router.shards_pruned") + grew("router.dispatches"),
        ),
    );
    m.insert("net.ping_rtt_us", ping_rtt_us(served.client())?);
    m.insert(
        "net.server_request_us",
        served
            .server()
            .request_latency()
            .diff(&requests_before)
            .percentile(50.0) as f64
            / 1e3,
    );
    m.insert("net.admitted", grew("net.admitted"));
    m.insert(
        "net.shed",
        grew("net.shed.queue_full") + grew("net.shed.cost_budget") + grew("net.shed.inflight"),
    );

    // 3. The in-process twin, brought to the state the traced pass ran in.
    let mut twin = shape.build_backend(inputs.routes.clone(), inputs.transitions.clone());
    let standing: Vec<RknntQuery> = if inputs.subscriptions.is_empty() {
        inputs
            .queries
            .iter()
            .take(PROBE_SUBSCRIPTIONS)
            .cloned()
            .collect()
    } else {
        inputs.subscriptions.clone()
    };
    for query in standing {
        subscribe(&mut twin, query);
    }
    if shape.warm_cache {
        for query in &inputs.queries {
            execute_batch(&twin, std::slice::from_ref(query));
        }
    }
    let mut totals = TwinTotals::default();
    let mut warm = TwinTotals::default();
    if kind.interleaved() {
        for slice in &inputs.slices[..=UNTRACED_PASSES] {
            twin_replay(&mut twin, inputs, slice, shape.window, &mut warm, None);
        }
    } else {
        // Updates first, as on the workload's own path — against whatever
        // the cache holds after set-up — then one unmeasured read pass.
        let writes = prefix(&inputs.slices[0], TWIN_BATCHES);
        twin_replay(&mut twin, inputs, writes, shape.window, &mut totals, None);
        twin_replay(&mut twin, inputs, traced_ops, shape.window, &mut warm, None);
    }
    twin_replay(
        &mut twin,
        inputs,
        traced_ops,
        shape.window,
        &mut totals,
        Some((&mut tracer, every)),
    );
    m.insert(
        "service.lookup_us",
        ratio(us(totals.lookup), totals.batches),
    );
    m.insert(
        "service.grouping_us",
        ratio(us(totals.grouping), totals.batches),
    );
    m.insert(
        "service.execution_ms",
        ratio(ms(totals.execution), totals.batches),
    );
    m.insert(
        "service.finalize_us",
        ratio(us(totals.finalize), totals.batches),
    );
    m.insert("service.update.apply_us", median(&totals.apply_us));
    m.insert(
        "service.update.evicted_per_update",
        ratio(totals.evicted, totals.updates),
    );
    m.insert(
        "service.update.retained_frac",
        ratio(totals.retained, totals.cached_before),
    );
    m.insert("service.update.full_drops", totals.full_drops);
    m.insert(
        "service.subs.reexec_rate",
        ratio(totals.reexecuted, totals.sub_updates),
    );
    m.insert("service.subs.deltas", totals.deltas);
    m.insert("net.encode_query_us", mean(&totals.encode_query));
    m.insert("net.decode_query_us", mean(&totals.decode_query));
    m.insert("net.encode_reply_us", mean(&totals.encode_reply));
    m.insert("net.decode_reply_us", mean(&totals.decode_reply));
    m.insert("net.frame_us", mean(&totals.frame));
    m.insert("net.reply_bytes_mean", mean(&totals.reply_bytes));
    // What the wire adds: the client's median latency over the served
    // instance minus the same queries executed in-process.
    m.insert(
        "net.wire_overhead_us",
        median(&served_query_ms) * 1e3 - median(&totals.per_query_us),
    );
    // `paper_engines` is judged on its own roots, the in-process engine
    // calls; the served workloads on their wire calls.
    let root = if matches!(workload, Workload::Engines(_)) {
        "engine.execute"
    } else {
        "client.query"
    };
    m.insert("bench.unattributed_frac", tracer.unattributed_frac(root));

    // 4. Storage through the twin, then the raw-store probes.
    // The slice after the last one the twin has seen (a read-only twin
    // has seen a prefix of slice 0; the rest of it still applies cleanly).
    let next_slice = if kind.interleaved() {
        &inputs.slices[UNTRACED_PASSES + 2]
    } else {
        &inputs.slices[0][prefix(&inputs.slices[0], TWIN_BATCHES).len()..]
    };
    storage_layer(
        twin,
        inputs,
        prefix(next_slice, TWIN_BATCHES),
        shape,
        scratch,
        &mut tracer,
        &mut m,
    )?;
    index_geo_core(inputs, &mut tracer, &mut m);

    // The span file stays; everything else under the scratch goes.
    let trace_path = Path::new("target")
        .join("benchmark")
        .join(format!("trace_{}.json", kind.name()));
    std::fs::write(&trace_path, tracer.to_json().write())
        .map_err(|e| format!("{}: {e}", trace_path.display()))?;
    println!(
        "trace {} spans written to {}",
        tracer.spans().len(),
        trace_path.display()
    );

    if let Some(mask) = &args.unpinned {
        set_affinity(mask);
    }
    drop(auxiliary);
    let (probes, wrong) = check(inputs, workload, &model, args.seed)?;
    attempted += probes;
    failed += wrong;

    let metrics = PER_LAYER
        .iter()
        .map(|layer| {
            m.get(layer.name)
                .map(|value| (layer.name, *value, layer.unit))
                .ok_or_else(|| format!("the traced run produced no {}", layer.name))
        })
        .collect::<Result<Vec<_>, String>>()?;
    for (name, value, unit) in &metrics {
        println!("layer {name} {value} {unit}");
    }
    Ok(RunResult {
        correct: failed == 0,
        attempted,
        failed,
        metrics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_frame_round_trip_returns_the_payload() {
        let mut scratch = Vec::new();
        frame_round_trip(b"payload", &mut scratch);
        assert_eq!(scratch, b"payload");
    }

    #[test]
    fn prefix_ends_on_the_requested_batch() {
        let query = Op::Query {
            index: 0,
            engine: rknnt_core::EngineKind::default(),
        };
        let ops = vec![
            query.clone(),
            Op::Update(vec![]),
            query.clone(),
            Op::Update(vec![]),
            query,
        ];
        assert_eq!(prefix(&ops, 1).len(), 2);
        assert_eq!(prefix(&ops, 2).len(), 4);
        assert_eq!(prefix(&ops, 3).len(), 5);
    }
}
