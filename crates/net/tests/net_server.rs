//! Serving-edge invariants: answers over TCP are byte-identical to
//! in-process execution (for both backends), subscription deltas stream to
//! the owning connection, admission control sheds with a typed reply and
//! never silently drops a request, hostile bytes on the wire get a typed
//! error instead of undefined behaviour, and a resident answer written by
//! the connection's reader skips the executor without reordering replies
//! or miscounting.

use rknnt_core::{RknntQuery, Semantics};
use rknnt_fault::FaultPlan;
use rknnt_geo::Point;
use rknnt_index::{RouteStore, TransitionStore};
use rknnt_net::{
    Backend, Client, ClientConfig, ClientError, IntrospectReport, IntrospectWhat, Message, Reply,
    Server, ServerConfig, WireSlowQuery, SERVER_EXECUTOR_SITE,
};
use rknnt_service::{
    DeltaReason, QueryService, ServiceConfig, ShardedConfig, ShardedService, StorageConfig,
    StoreUpdate, SubscriptionDelta,
};
use std::collections::BTreeMap;
use std::net::TcpStream;
use std::path::PathBuf;
use std::time::{Duration, Instant};

fn p(x: f64, y: f64) -> Point {
    Point::new(x, y)
}

/// A deterministic little city: a grid of horizontal routes with transition
/// endpoints scattered between them.
fn small_world() -> (Vec<Vec<Point>>, Vec<(Point, Point)>) {
    let mut routes = Vec::new();
    for row in 0..6 {
        let y = row as f64 * 120.0;
        routes.push(vec![
            p(0.0, y),
            p(400.0, y + 10.0),
            p(800.0, y),
            p(1200.0, y - 10.0),
        ]);
    }
    let mut pairs = Vec::new();
    for i in 0..80 {
        let x = (i % 10) as f64 * 120.0 + 15.0;
        let y = (i / 10) as f64 * 80.0 + 25.0;
        pairs.push((p(x, y), p(x + 60.0, y + 30.0)));
    }
    (routes, pairs)
}

fn stores(routes: &[Vec<Point>], pairs: &[(Point, Point)]) -> (RouteStore, TransitionStore) {
    let mut route_store = RouteStore::default();
    for route in routes {
        route_store.insert_route(route.clone());
    }
    let mut transition_store = TransitionStore::default();
    for (origin, destination) in pairs {
        transition_store.insert(*origin, *destination).unwrap();
    }
    (route_store, transition_store)
}

fn query_mix() -> Vec<RknntQuery> {
    let mut queries = Vec::new();
    for k in [1usize, 2, 4] {
        for (i, semantics) in [Semantics::Exists, Semantics::ForAll]
            .into_iter()
            .enumerate()
        {
            let y = 35.0 + (k * 7 + i) as f64 * 40.0;
            queries.push(RknntQuery {
                route: vec![p(10.0, y), p(500.0, y + 20.0), p(1100.0, y)],
                k,
                semantics,
            });
        }
    }
    queries
}

fn single_backend(config: ServiceConfig) -> Backend {
    let (routes, pairs) = small_world();
    let (route_store, transition_store) = stores(&routes, &pairs);
    Backend::Single(QueryService::new(route_store, transition_store, config))
}

#[test]
fn answers_over_tcp_are_byte_identical_to_in_process() {
    let config = ServiceConfig::default().with_workers(2);
    let backend = single_backend(config);
    let (routes, pairs) = small_world();
    let (route_store, transition_store) = stores(&routes, &pairs);
    let twin = QueryService::new(route_store, transition_store, config);

    let server = Server::start(backend, ServerConfig::default()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();

    assert_eq!(client.ping().unwrap(), Reply::Answered(()));
    for query in query_mix() {
        let over_wire = client
            .query(&query)
            .unwrap()
            .answered()
            .expect("default budget must admit a serial client");
        let (expected, _) = twin.execute_batch(std::slice::from_ref(&query));
        assert_eq!(
            over_wire, expected[0].transitions,
            "k={} {:?}",
            query.k, query.semantics
        );
    }
    assert_eq!(server.shed(), 0);
    assert!(server.admitted() >= query_mix().len() as u64);
    assert!(server.request_latency().count() >= query_mix().len() as u64);
    let metrics = server.metrics_text();
    assert!(metrics.contains("net.admitted"), "metrics text: {metrics}");
}

#[test]
fn sharded_backend_matches_unsharded_twin_over_tcp() {
    let (routes, pairs) = small_world();
    let base = ServiceConfig::default();
    let sharded = ShardedService::bulk_build(
        ShardedConfig::default().with_shards(4).with_base(base),
        routes.clone(),
        pairs.clone(),
    );
    let backend = Backend::Sharded(sharded);
    let (route_store, transition_store) = stores(&routes, &pairs);
    let twin = QueryService::new(route_store, transition_store, base);

    let server = Server::start(backend, ServerConfig::default()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    for query in query_mix() {
        let over_wire = client.query(&query).unwrap().answered().unwrap();
        let (expected, _) = twin.execute_batch(std::slice::from_ref(&query));
        assert_eq!(over_wire, expected[0].transitions);
    }
}

#[test]
fn subscription_deltas_stream_to_the_owning_connection() {
    let config = ServiceConfig::default();
    let backend = single_backend(config);
    // Twin service receiving the same subscription and updates in the same
    // order, so ids and deltas line up exactly.
    let (routes, pairs) = small_world();
    let (route_store, transition_store) = stores(&routes, &pairs);
    let mut twin = QueryService::new(route_store, transition_store, config);

    let server = Server::start(backend, ServerConfig::default()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();

    let standing = RknntQuery::exists(vec![p(0.0, 40.0), p(600.0, 40.0), p(1200.0, 40.0)], 2);
    let sub = client.subscribe(&standing).unwrap().answered().unwrap();
    let twin_sub = twin.subscribe(standing.clone());
    assert_eq!(
        Some(sub.transitions.as_slice()),
        twin.subscription_result(twin_sub),
        "initial subscription result must match the twin"
    );

    // Churn the store through the wire; the twin gets the same updates.
    let updates = vec![
        StoreUpdate::InsertTransition {
            origin: p(100.0, 45.0),
            destination: p(200.0, 50.0),
        },
        StoreUpdate::InsertTransition {
            origin: p(300.0, 42.0),
            destination: p(420.0, 38.0),
        },
    ];
    let counts = client
        .apply_updates(updates.clone())
        .unwrap()
        .answered()
        .unwrap();
    assert_eq!(counts.applied, 2);
    assert_eq!(counts.rejected, 0);
    let twin_stats = twin.apply_updates(updates);
    let arrived = twin_stats.inserted_transitions[0];
    let mut expected_deltas = twin_stats.deltas;
    expected_deltas.retain(|d| d.subscription == twin_sub);

    // The server pushes the same deltas (frames arrive after the
    // UpdatesOk reply on this connection, in emission order).
    let expect_deltas = |client: &mut Client, expected_deltas: &[SubscriptionDelta]| {
        for expected in expected_deltas {
            let event = client.recv_delta().unwrap();
            assert_eq!(event.subscription, sub.subscription);
            assert_eq!(event.entered, expected.entered);
            assert_eq!(event.left, expected.left);
            assert_eq!(event.reason, expected.reason);
        }
    };
    expect_deltas(&mut client, &expected_deltas);
    assert_eq!(server.deltas_pushed(), expected_deltas.len() as u64);
    assert!(
        !expected_deltas.is_empty(),
        "this world is built so inserts near the standing route change its result"
    );

    // A route laid twice through both endpoints of the first arrival: the
    // second copy puts k = 2 routes strictly closer than the standing query
    // at each endpoint, so the arrival leaves in place — a `RouteInserted`
    // delta, wire tag 3.
    let through = vec![p(100.0, 45.0), p(200.0, 50.0)];
    let updates = vec![
        StoreUpdate::InsertRoute(through.clone()),
        StoreUpdate::InsertRoute(through),
    ];
    let counts = client
        .apply_updates(updates.clone())
        .unwrap()
        .answered()
        .unwrap();
    assert_eq!(counts.applied, 2);
    let twin_stats = twin.apply_updates(updates);
    let mut route_deltas = twin_stats.deltas;
    route_deltas.retain(|d| d.subscription == twin_sub);
    assert!(
        route_deltas
            .iter()
            .any(|d| d.reason == DeltaReason::RouteInserted && d.left.contains(&arrived)),
        "the arrival must leave behind the route insert: {route_deltas:?}"
    );
    expect_deltas(&mut client, &route_deltas);

    // Withdrawing one copy leaves one route strictly closer at each
    // endpoint, under k = 2: the arrival enters again in place — a
    // `RouteRemoved` delta, wire tag 1.
    let updates = vec![StoreUpdate::RemoveRoute(twin_stats.inserted_routes[1])];
    let counts = client
        .apply_updates(updates.clone())
        .unwrap()
        .answered()
        .unwrap();
    assert_eq!(counts.applied, 1);
    let mut removal_deltas = twin.apply_updates(updates).deltas;
    removal_deltas.retain(|d| d.subscription == twin_sub);
    assert!(
        removal_deltas
            .iter()
            .any(|d| d.reason == DeltaReason::RouteRemoved && d.entered.contains(&arrived)),
        "the arrival must re-enter behind the route removal: {removal_deltas:?}"
    );
    expect_deltas(&mut client, &removal_deltas);
    assert_eq!(
        server.deltas_pushed(),
        (expected_deltas.len() + route_deltas.len() + removal_deltas.len()) as u64
    );

    // Unsubscribe: first drop succeeds, second reports a dead handle.
    assert_eq!(
        client.unsubscribe(sub.subscription).unwrap(),
        Reply::Answered(true)
    );
    assert_eq!(
        client.unsubscribe(sub.subscription).unwrap(),
        Reply::Answered(false)
    );
}

#[test]
fn burst_replies_are_all_accounted_and_answered_ones_byte_identical() {
    let config = ServiceConfig::default().with_cache_capacity(0);
    let backend = single_backend(config);
    let (routes, pairs) = small_world();
    let (route_store, transition_store) = stores(&routes, &pairs);
    let twin = QueryService::new(route_store, transition_store, config);

    // Tiny queue so a pipelined burst overruns admission; replies must still
    // be one-per-request with nothing dropped.
    let server = Server::start(
        backend,
        ServerConfig::default()
            .with_queue_capacity(4)
            .with_per_conn_inflight(1_000),
    )
    .unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();

    let queries = query_mix();
    const ROUNDS: usize = 16;
    let mut sent: BTreeMap<u64, usize> = BTreeMap::new();
    for round in 0..ROUNDS {
        for (qi, query) in queries.iter().enumerate() {
            let id = client.send_query(query).unwrap();
            assert!(sent.insert(id, qi).is_none(), "round {round}: duplicate id");
        }
    }

    let total = sent.len();
    let mut answered = 0usize;
    let mut shed = 0usize;
    for _ in 0..total {
        let (id, reply) = client.recv_query_reply().unwrap();
        let qi = sent
            .remove(&id)
            .expect("reply for an unknown or repeated id");
        match reply {
            Reply::Answered(transitions) => {
                let (expected, _) = twin.execute_batch(std::slice::from_ref(&queries[qi]));
                assert_eq!(transitions, expected[0].transitions);
                answered += 1;
            }
            Reply::Overloaded(info) => {
                assert_eq!(info.cost_budget, ServerConfig::default().cost_budget);
                shed += 1;
            }
        }
    }
    assert!(sent.is_empty(), "every request must get exactly one reply");
    assert_eq!(answered + shed, total);
    assert_eq!(server.admitted() as usize, answered);
    assert_eq!(server.shed() as usize, shed);
}

#[test]
fn zero_cost_budget_sheds_every_query_with_a_typed_reply() {
    let backend = single_backend(ServiceConfig::default());
    let server = Server::start(backend, ServerConfig::default().with_cost_budget(0)).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    for query in query_mix() {
        match client.query(&query).unwrap() {
            Reply::Overloaded(info) => {
                assert_eq!(info.cost_budget, 0);
                assert!(info.estimated_cost >= 1);
            }
            Reply::Answered(_) => panic!("a zero budget must shed everything"),
        }
    }
    assert_eq!(server.admitted(), 0);
    assert_eq!(server.shed(), query_mix().len() as u64);
}

#[test]
fn per_connection_inflight_cap_sheds_independently_of_the_global_queue() {
    let backend = single_backend(ServiceConfig::default());
    let server = Server::start(backend, ServerConfig::default().with_per_conn_inflight(0)).unwrap();
    let mut greedy = Client::connect(server.local_addr()).unwrap();
    let query = &query_mix()[0];
    assert!(greedy.query(query).unwrap().is_overloaded());
    assert_eq!(server.shed(), 1);
}

#[test]
fn hostile_bytes_get_a_typed_error_then_the_connection_closes() {
    let backend = single_backend(ServiceConfig::default());
    let server = Server::start(backend, ServerConfig::default()).unwrap();

    // Garbage that cannot even frame (bogus checksum and hostile length):
    // the error reply has request id 0.
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    use std::io::Write;
    stream
        .write_all(&[0xDE, 0xAD, 0xBE, 0xEF, 0xFF, 0xFF, 0xFF, 0x7F])
        .unwrap();
    let mut buf = Vec::new();
    let mut replies = Vec::new();
    loop {
        match rknnt_net::protocol::read_frame(&mut stream, &mut buf) {
            Ok(Some(())) => replies.push(Message::decode(&buf).unwrap()),
            Ok(None) => break,
            Err(_) => break,
        }
    }
    let error = replies
        .iter()
        .find_map(|m| match m {
            Message::Error { id, message } => Some((*id, message.clone())),
            _ => None,
        })
        .expect("hostile bytes must produce a typed error reply");
    assert_eq!(error.0, 0);
    assert!(error.1.contains("malformed"), "got: {}", error.1);

    // A structurally valid frame carrying a *response* kind is a protocol
    // violation too.
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    rknnt_net::protocol::write_frame(&mut stream, &Message::Pong { id: 9 }.encode()).unwrap();
    let mut got_error = false;
    while let Ok(Some(())) = rknnt_net::protocol::read_frame(&mut stream, &mut buf) {
        if let Ok(Message::Error { id, .. }) = Message::decode(&buf) {
            assert_eq!(id, 9);
            got_error = true;
        }
    }
    assert!(
        got_error,
        "a response kind sent as a request must be rejected"
    );
}

/// A guard that writes a trace/introspection dump under
/// `target/test-dumps/` if the current thread panics while it is alive —
/// CI uploads that directory as an artifact on test failure.
struct DumpFileOnPanic {
    name: &'static str,
    text: String,
}

impl Drop for DumpFileOnPanic {
    fn drop(&mut self) {
        if !std::thread::panicking() {
            return;
        }
        let dir = std::env::var_os("CARGO_TARGET_DIR")
            .map(PathBuf::from)
            .unwrap_or_else(|| PathBuf::from("../../target"))
            .join("test-dumps");
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join(self.name);
        let _ = std::fs::write(&path, &self.text);
        eprintln!("wrote failure dump to {}", path.display());
    }
}

/// The index of the first span named `name`, or a panic naming what is
/// missing from the tree.
fn span_index(entry: &WireSlowQuery, name: &str) -> usize {
    entry
        .spans
        .iter()
        .position(|s| s.name == name)
        .unwrap_or_else(|| panic!("trace {:#x} has no {name:?} span", entry.trace_id))
}

/// An integer attribute of span `index`, or a panic naming what is missing.
fn span_attr(entry: &WireSlowQuery, index: usize, key: &str) -> u64 {
    entry.spans[index]
        .attrs
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| *v)
        .unwrap_or_else(|| {
            panic!(
                "span {:?} of trace {:#x} has no {key:?} attr",
                entry.spans[index].name, entry.trace_id
            )
        })
}

/// Whether span `index` sits under `ancestor` in the tree (or is it).
fn descends_from(entry: &WireSlowQuery, mut index: usize, ancestor: usize) -> bool {
    loop {
        if index == ancestor {
            return true;
        }
        match entry.spans[index].parent_index() {
            Some(parent) => index = parent,
            None => return false,
        }
    }
}

#[test]
fn introspect_fetches_the_slow_trace_span_tree_over_tcp() {
    // Sharded durable backend, so per-shard routing decisions and WAL
    // appends both appear in the trace.
    let (routes, pairs) = small_world();
    let base = ServiceConfig::default();
    let mut sharded = ShardedService::bulk_build(
        ShardedConfig::default().with_shards(4).with_base(base),
        routes.clone(),
        pairs.clone(),
    );
    let dir = std::env::temp_dir().join(format!("rknnt-net-trace-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    sharded
        .attach_storage(&dir, StorageConfig::default().with_fsync(false))
        .unwrap();
    let backend = Backend::Sharded(sharded);

    // Threshold 0: every completed trace counts as slow, so promotion is
    // deterministic on any machine.
    let server = Server::start(
        backend,
        ServerConfig::default()
            .with_trace_sample(1.0)
            .with_slow_query_threshold_ns(0),
    )
    .unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();

    // One traced update (exercises the WAL path) and one traced query
    // (exercises shard routing), with distinct caller-chosen trace ids.
    const UPDATE_TRACE: u64 = 0x0DECAF;
    const QUERY_TRACE: u64 = 0xC0FFEE;
    let counts = client
        .apply_updates_traced(
            vec![StoreUpdate::InsertTransition {
                origin: p(100.0, 45.0),
                destination: p(200.0, 50.0),
            }],
            UPDATE_TRACE,
        )
        .unwrap()
        .answered()
        .unwrap();
    assert_eq!(counts.applied, 1);
    let query = &query_mix()[0];
    client
        .query_traced(query, QUERY_TRACE)
        .unwrap()
        .answered()
        .expect("a serial client under the default budget is never shed");
    // An *untraced* request must not add a slow-log entry.
    client.query(query).unwrap().answered().unwrap();

    let report = client.introspect(IntrospectWhat::SlowQueries).unwrap();
    let IntrospectReport::SlowQueries { entries } = report else {
        panic!("asked for SlowQueries, got {report:?}");
    };
    let _entries_dump = DumpFileOnPanic {
        name: "introspect-slow-queries.txt",
        text: format!("{entries:#?}"),
    };
    assert_eq!(
        entries.len(),
        2,
        "exactly the two traced requests promote at threshold 0"
    );

    // The update trace: request -> execute -> wal_append with real frames.
    let update = entries
        .iter()
        .find(|e| e.trace_id == UPDATE_TRACE)
        .expect("the traced update must be in the slow log");
    assert_eq!(update.spans[0].name, "request");
    assert!(update.root_dur_ns > 0);
    let execute = span_index(update, "execute");
    let wal = span_index(update, "wal_append");
    assert!(descends_from(update, wal, execute));
    assert!(span_attr(update, wal, "frames") >= 1);
    assert!(span_attr(update, wal, "bytes") > 0);

    // The query trace: admission and queue under the root, the batch
    // pipeline under execute, and a routing decision for every shard.
    let entry = entries
        .iter()
        .find(|e| e.trace_id == QUERY_TRACE)
        .expect("the traced query must be in the slow log");
    assert_eq!(entry.spans[0].name, "request");
    let admission = span_index(entry, "admission");
    assert_eq!(entry.spans[admission].parent_index(), Some(0));
    assert!(span_attr(entry, admission, "cost") >= 1);
    span_attr(entry, admission, "queue_depth");
    assert_eq!(
        entry.spans[span_index(entry, "queue")].parent_index(),
        Some(0)
    );
    let execute = span_index(entry, "execute");
    for name in ["batch", "worker", "group"] {
        let index = span_index(entry, name);
        assert!(
            descends_from(entry, index, execute),
            "{name} must hang under execute"
        );
    }
    let shard_spans: Vec<usize> = entry
        .spans
        .iter()
        .enumerate()
        .filter(|(_, s)| s.name == "shard")
        .map(|(i, _)| i)
        .collect();
    let mut decided: Vec<u64> = Vec::new();
    for index in shard_spans {
        assert!(descends_from(entry, index, execute));
        decided.push(span_attr(entry, index, "shard"));
        match span_attr(entry, index, "pruned") {
            // Certificate-pruned shards record a zero-duration marker.
            1 => assert_eq!(span_attr(entry, index, "certificate"), 1),
            0 => {
                span_attr(entry, index, "candidates");
            }
            other => panic!("pruned attr must be 0 or 1, got {other}"),
        }
    }
    decided.sort_unstable();
    assert_eq!(
        decided,
        vec![0, 1, 2, 3],
        "the trace must record a prune decision for every shard"
    );

    // Metrics introspection reaches the per-reason shed counters and the
    // shard-prefixed backend registries from the reader thread.
    let IntrospectReport::Metrics { text } = client.introspect(IntrospectWhat::Metrics).unwrap()
    else {
        panic!("asked for Metrics, got something else");
    };
    for needle in [
        "net.shed.queue_full",
        "net.shed.cost_budget",
        "net.shed.inflight",
        "router.dispatches",
    ] {
        assert!(text.contains(needle), "metrics text missing {needle}");
    }

    // The server-side log agrees with what travelled over the wire.
    let log = server.slow_query_log();
    assert_eq!(log.promoted(), 2);
    assert_eq!(log.over_threshold(), 2);
}

/// The slow-query log's counters at threshold 0, where every completed
/// trace is over threshold, at both ends of the sampling range (formerly
/// the `slow_log_mismatch` CI gate, which held `|promoted − over_threshold|`
/// at 0 over a traced experiment run). Sampling 0.0 traces
/// nothing, whatever trace id the caller sends. Sampling 1.0 through a
/// two-entry ring promotes every one of the six traced requests — the ring
/// evicts old entries, it never misses a promotion — so `completed ==
/// over_threshold == promoted == 6` while only the last two are retained.
///
/// Mutation that fails it: in `SlowQueryLog::observe`, drop the
/// `promoted` increment — `promoted` stays 0 against `over_threshold == 6`
/// (or return once the ring is full instead of evicting — the ring keeps
/// the first two traces, not the last two).
#[test]
fn slow_log_promotes_every_over_threshold_trace_and_nothing_unsampled() {
    for (sample, traced) in [(0.0, 0u64), (1.0, query_mix().len() as u64)] {
        let backend = single_backend(ServiceConfig::default());
        let server = Server::start(
            backend,
            ServerConfig::default()
                .with_trace_sample(sample)
                .with_slow_query_threshold_ns(0)
                .with_slow_query_capacity(2),
        )
        .unwrap();
        let mut client = Client::connect(server.local_addr()).unwrap();
        for (i, query) in query_mix().iter().enumerate() {
            client
                .query_traced(query, 0x1000 + i as u64)
                .unwrap()
                .answered()
                .unwrap();
        }
        let IntrospectReport::SlowQueries { entries } =
            client.introspect(IntrospectWhat::SlowQueries).unwrap()
        else {
            panic!("asked for SlowQueries, got something else");
        };
        let retained: Vec<u64> = entries.iter().map(|e| e.trace_id).collect();
        let last_two: Vec<u64> = (0x1000 + traced.saturating_sub(2)..0x1000 + traced).collect();
        assert_eq!(retained, last_two, "sampling {sample}: got {entries:#?}");
        let log = server.slow_query_log();
        assert_eq!(log.completed(), traced, "sampling {sample}");
        assert_eq!(log.over_threshold(), traced, "sampling {sample}");
        assert_eq!(log.promoted(), log.over_threshold(), "sampling {sample}");
    }
}

#[test]
fn disconnect_reclaims_subscriptions_before_later_updates() {
    let config = ServiceConfig::default();
    let backend = single_backend(config);
    let server = Server::start(backend, ServerConfig::default()).unwrap();

    let mut subscriber = Client::connect(server.local_addr()).unwrap();
    let standing = RknntQuery::exists(vec![p(0.0, 40.0), p(600.0, 40.0), p(1200.0, 40.0)], 2);
    subscriber.subscribe(&standing).unwrap().answered().unwrap();
    drop(subscriber);

    // `connections_closed` ticking guarantees the reclamation job is ahead
    // of anything admitted afterwards.
    let deadline = Instant::now() + Duration::from_secs(10);
    while server.connections_closed() == 0 {
        assert!(Instant::now() < deadline, "reader never noticed the close");
        std::thread::sleep(Duration::from_millis(1));
    }

    let mut updater = Client::connect(server.local_addr()).unwrap();
    let counts = updater
        .apply_updates(vec![StoreUpdate::InsertTransition {
            origin: p(100.0, 45.0),
            destination: p(200.0, 50.0),
        }])
        .unwrap()
        .answered()
        .unwrap();
    assert_eq!(counts.applied, 1);
    assert_eq!(
        server.deltas_pushed(),
        0,
        "a dead connection's subscription must not generate pushes"
    );
}

/// Every counter of the server and its backend, read over the wire.
fn counters(client: &mut Client) -> BTreeMap<String, u64> {
    let IntrospectReport::Metrics { text } = client.introspect(IntrospectWhat::Metrics).unwrap()
    else {
        panic!("asked for Metrics, got something else");
    };
    text.lines()
        .filter_map(|line| {
            let mut words = line.split_whitespace();
            let name = words.next()?.strip_prefix("counter=")?;
            let value = words.next()?.strip_prefix("value=")?.parse().ok()?;
            Some((name.to_string(), value))
        })
        .collect()
}

/// How much each named counter grew between two readings.
fn grew(before: &BTreeMap<String, u64>, after: &BTreeMap<String, u64>, name: &str) -> u64 {
    after[name] - before[name]
}

/// Blocks until `n` admitted requests have finished — each one's
/// connection-inflight count is back down — without sleeping: the
/// latency sample is recorded right after the decrement.
fn await_finished(server: &Server, n: u64) {
    while server.request_latency().count() < n {
        std::thread::yield_now();
    }
}

/// A resident answer skips the executor: with the executor's second drain
/// stalled for 400 ms, a health probe (which crosses the executor) times
/// out at 40 ms, while the query warmed by the first drain is answered on
/// a fresh connection inside the same 40 ms. Through the queue, the query
/// would wait out the stall and time out too.
///
/// Mutation that fails it: in `admit`, never take the reader path
/// (`let resident = false`) — the re-sent query times out.
#[test]
fn a_resident_answer_skips_a_stalled_executor() {
    let stall = Duration::from_millis(400).as_nanos() as u64;
    let fp = FaultPlan::new(0x57A1)
        .delay(SERVER_EXECUTOR_SITE, 2, stall)
        .arm();
    let server = Server::start(
        single_backend(ServiceConfig::default()),
        ServerConfig::default().with_failpoints(fp),
    )
    .unwrap();
    let bounded = || {
        Client::connect_with(
            server.local_addr(),
            ClientConfig::default().with_read_timeout(Duration::from_millis(40)),
        )
        .unwrap()
    };
    let query = &query_mix()[0];
    let mut warmer = Client::connect(server.local_addr()).unwrap();
    let warm = warmer.query(query).unwrap().answered().unwrap();

    let mut prober = bounded();
    let err = prober.health().unwrap_err();
    assert!(
        matches!(err, ClientError::Timeout),
        "the health probe must wait out the stalled drain, got {err:?}"
    );
    let mut reader = bounded();
    match reader.query(query) {
        Ok(Reply::Answered(transitions)) => assert_eq!(transitions, warm),
        other => panic!("a resident answer must not wait for the executor, got {other:?}"),
    }
    assert_eq!(counters(&mut reader)["net.reader_hits"], 1);
}

/// Pipelined on one raw connection, an update whose arrival enters Q's
/// answer (Q subscribed) and then Q itself: the replies come back in
/// request order with the delta between them, Q's answer is the twin's
/// post-update answer, and Q re-sent on the now-idle connection — answered
/// by the reader — is the twin's answer again.
#[test]
fn a_pipelined_update_then_query_keeps_frame_order_and_reads_its_write() {
    let config = ServiceConfig::default();
    let server = Server::start(single_backend(config), ServerConfig::default()).unwrap();
    let (routes, pairs) = small_world();
    let (route_store, transition_store) = stores(&routes, &pairs);
    let mut twin = QueryService::new(route_store, transition_store, config);

    let standing = RknntQuery::exists(vec![p(0.0, 40.0), p(600.0, 40.0), p(1200.0, 40.0)], 2);
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    let mut buf = Vec::new();
    let mut next = |stream: &mut TcpStream| {
        rknnt_net::protocol::read_frame(stream, &mut buf)
            .unwrap()
            .expect("the server closed the connection");
        Message::decode(&buf).unwrap()
    };
    let send = |stream: &mut TcpStream, msg: Message| {
        rknnt_net::protocol::write_frame(stream, &msg.encode()).unwrap();
    };
    let query = |id: u64| Message::Query {
        id,
        query: standing.clone(),
        trace: None,
    };

    send(
        &mut stream,
        Message::Subscribe {
            id: 1,
            query: standing.clone(),
        },
    );
    let Message::SubscribeOk { subscription, .. } = next(&mut stream) else {
        panic!("wanted SubscribeOk");
    };
    let twin_sub = twin.subscribe(standing.clone());
    send(&mut stream, query(2));
    assert!(matches!(next(&mut stream), Message::QueryOk { id: 2, .. }));

    let updates = vec![StoreUpdate::InsertTransition {
        origin: p(100.0, 45.0),
        destination: p(200.0, 50.0),
    }];
    let twin_stats = twin.apply_updates(updates.clone());
    let arrived = twin_stats.inserted_transitions[0];
    let expected = twin.execute(&standing).transitions;
    assert!(
        expected.contains(&arrived),
        "the arrival must enter the standing answer"
    );
    send(
        &mut stream,
        Message::ApplyUpdates {
            id: 3,
            updates,
            trace: None,
        },
    );
    send(&mut stream, query(4));
    let frames = [next(&mut stream), next(&mut stream), next(&mut stream)];
    assert!(
        matches!(
            frames[0],
            Message::UpdatesOk {
                id: 3,
                applied: 1,
                rejected: 0
            }
        ),
        "got {frames:?}"
    );
    let Message::Delta {
        subscription: pushed,
        entered,
        ..
    } = &frames[1]
    else {
        panic!("the delta must precede the query reply, got {frames:?}");
    };
    assert_eq!(*pushed, subscription);
    assert_eq!(
        Some(entered.as_slice()),
        twin_stats
            .deltas
            .iter()
            .find(|d| d.subscription == twin_sub)
            .map(|d| d.entered.as_slice())
    );
    let Message::QueryOk { id: 4, transitions } = &frames[2] else {
        panic!("wanted the query reply last, got {frames:?}");
    };
    assert_eq!(transitions, &expected);

    // Subscribe, two queries and the update: once all four have finished,
    // the connection is idle and the reader answers the re-sent query.
    await_finished(&server, 4);
    let mut probe = Client::connect(server.local_addr()).unwrap();
    let hits = counters(&mut probe)["net.reader_hits"];
    send(&mut stream, query(5));
    let Message::QueryOk { id: 5, transitions } = next(&mut stream) else {
        panic!("wanted the re-sent query's reply");
    };
    assert_eq!(transitions, expected);
    assert_eq!(counters(&mut probe)["net.reader_hits"], hits + 1);
}

/// A reader hit is counted exactly like a one-query batch that hits, plus
/// `net.reader_hits`; a reader miss is counted once, by the batch that
/// answers it; a traced hit's tree is `request → {admission, execute →
/// cache_lookup}`; and a resident answer still passes admission — on a
/// zero-budget server it is shed like any other query.
#[test]
fn reader_hits_are_admitted_and_counted_once() {
    let server = Server::start(
        single_backend(ServiceConfig::default()),
        ServerConfig::default()
            .with_trace_sample(1.0)
            .with_slow_query_threshold_ns(0),
    )
    .unwrap();
    let (hot, cold) = (&query_mix()[0], &query_mix()[1]);
    // Warmed on another connection, so every request below arrives on an
    // idle one.
    let warm = Client::connect(server.local_addr())
        .unwrap()
        .query(hot)
        .unwrap()
        .answered()
        .unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let before = counters(&mut client);
    const HITS: u64 = 5;
    for _ in 0..HITS {
        assert_eq!(client.query(hot).unwrap(), Reply::Answered(warm.clone()));
    }
    const TRACE: u64 = 0x4EAD;
    assert_eq!(
        client.query_traced(hot, TRACE).unwrap(),
        Reply::Answered(warm.clone())
    );
    let after = counters(&mut client);
    for name in [
        "net.admitted",
        "net.reader_hits",
        "service.batch.count",
        "service.batch.queries",
        "service.cache.hits",
    ] {
        assert_eq!(grew(&before, &after, name), HITS + 1, "{name}");
    }
    assert_eq!(grew(&before, &after, "service.cache.misses"), 0);

    client.query(cold).unwrap().answered().unwrap();
    let missed = counters(&mut client);
    assert_eq!(grew(&after, &missed, "service.cache.misses"), 1);
    assert_eq!(grew(&after, &missed, "service.cache.hits"), 0);
    assert_eq!(grew(&after, &missed, "service.batch.queries"), 1);
    assert_eq!(grew(&after, &missed, "net.admitted"), 1);
    assert_eq!(grew(&after, &missed, "net.reader_hits"), 0);
    assert_eq!(server.admitted() + server.shed(), HITS + 3);

    let IntrospectReport::SlowQueries { entries } =
        client.introspect(IntrospectWhat::SlowQueries).unwrap()
    else {
        panic!("asked for SlowQueries, got something else");
    };
    let entry = entries
        .iter()
        .find(|e| e.trace_id == TRACE)
        .expect("the traced hit must be in the slow log");
    let tree: Vec<(&str, Option<&str>)> = entry
        .spans
        .iter()
        .map(|s| {
            let parent = s.parent_index().map(|i| entry.spans[i].name.as_str());
            (s.name.as_str(), parent)
        })
        .collect();
    assert_eq!(
        tree,
        [
            ("request", None),
            ("admission", Some("request")),
            ("execute", Some("request")),
            ("cache_lookup", Some("execute")),
        ]
    );

    // The same warm backend behind a zero budget: resident or not, every
    // query is shed.
    drop(client);
    let server = Server::start(server.stop(), ServerConfig::default().with_cost_budget(0)).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    assert!(client.query(hot).unwrap().is_overloaded());
    assert_eq!((server.admitted(), server.shed()), (0, 1));
}
