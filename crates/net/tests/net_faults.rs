//! Wire-fault invariants, driven by the deterministic failpoint layer:
//! whatever a hostile or unlucky connection does — mid-frame cuts,
//! single-byte corruption, a reader-side kill, an executor panic — the
//! server either answers with a typed reply or closes the connection. It
//! never hangs a client, never silently drops a request it accepted, and
//! never lets one connection's damage leak into another's answers: a fresh
//! connection is always byte-identical to in-process execution.

use proptest::prelude::*;
use rknnt_core::{RknntQuery, Semantics};
use rknnt_fault::FaultPlan;
use rknnt_geo::Point;
use rknnt_index::{RouteStore, TransitionStore};
use rknnt_net::{
    Backend, Client, ClientConfig, ClientError, Reply, Server, ServerConfig, CLIENT_WRITE_SITE,
    SERVER_EXECUTOR_SITE, SERVER_READ_SITE, SERVER_WRITE_SITE,
};
use rknnt_service::{QueryService, ServiceConfig, ShardedConfig, ShardedService, StoreUpdate};
use rknnt_storage::{StorageConfig, WAL_WRITE_SITE};
use std::path::Path;
use std::time::Duration;

fn p(x: f64, y: f64) -> Point {
    Point::new(x, y)
}

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

fn service() -> QueryService {
    let (routes, pairs) = small_world();
    let mut route_store = RouteStore::default();
    for route in &routes {
        route_store.insert_route(route.clone());
    }
    let mut transition_store = TransitionStore::default();
    for (origin, destination) in &pairs {
        transition_store.insert(*origin, *destination).unwrap();
    }
    QueryService::new(route_store, transition_store, ServiceConfig::default())
}

fn query(k: usize, semantics: Semantics) -> RknntQuery {
    RknntQuery {
        route: vec![p(10.0, 75.0), p(500.0, 95.0), p(1100.0, 75.0)],
        k,
        semantics,
    }
}

/// A client that can never hang the test: blocking reads give up after a
/// bounded wait with a typed [`ClientError::Timeout`].
fn bounded_client(server: &Server, config: ClientConfig) -> Client {
    Client::connect_with(
        server.local_addr(),
        config.with_read_timeout(Duration::from_secs(5)),
    )
    .expect("connect")
}

proptest! {
    /// Inject a mid-frame cut or a single-byte corruption into one of the
    /// first few frames a client writes. Every faulted call must return
    /// (typed reply or typed error — never a hang), the faulted
    /// connection's subscription must be reclaimed once the connection
    /// closes, and a fresh connection must still get byte-identical
    /// answers.
    #[test]
    fn client_frame_faults_never_wedge_the_server(
        at in 1u64..5,
        cut_draw in 0u32..2,
        after in 0u32..48,
        offset in 0u32..200,
        mask in 0u32..256,
    ) {
        let cut = cut_draw == 1;
        let (after, offset, mask) = (after as usize, offset as usize, mask as u8);
        let twin = service();
        let server = Server::start(Backend::Single(service()), ServerConfig::default()).unwrap();
        let plan = if cut {
            FaultPlan::new(0xFA17).cut_mid_frame(CLIENT_WRITE_SITE, at, after)
        } else {
            FaultPlan::new(0xFA17).corrupt(CLIENT_WRITE_SITE, at, offset, mask)
        };
        let fp = plan.arm();
        let mut faulted = bounded_client(
            &server,
            ClientConfig::default().with_failpoints(fp.clone()),
        );

        // A workload of 4 frames; the fault lands somewhere inside it.
        // Every call must come back, one way or another.
        let standing = query(2, Semantics::Exists);
        let mut conn_alive = true;
        let outcomes: [Result<(), ClientError>; 4] = [
            faulted.subscribe(&standing).map(|_| ()),
            faulted.query(&query(1, Semantics::Exists)).map(|_| ()),
            faulted.query(&query(2, Semantics::ForAll)).map(|_| ()),
            faulted.ping().map(|_| ()),
        ];
        for outcome in &outcomes {
            match outcome {
                Ok(()) => {}
                Err(ClientError::Timeout) => panic!("server failed to answer-or-close"),
                Err(_) => conn_alive = false,
            }
        }
        let subscribed = outcomes[0].is_ok();
        prop_assert!(fp.injected() > 0, "the fault must actually fire");
        // A cut always severs the connection. A corruption is detected by
        // the server's frame checksum, which closes the connection rather
        // than guess at the damage.
        prop_assert!(!conn_alive, "a faulted frame must close the connection");
        drop(faulted);

        // Fence: a fresh connection's ping round-trips through the same
        // FIFO queue as the disconnect reclamation job, so after the pong
        // the old connection's subscription (if it registered before the
        // fault) has been reclaimed.
        while server.connections_closed() < 1 {
            std::thread::yield_now();
        }
        let mut clean = bounded_client(&server, ClientConfig::default());
        prop_assert_eq!(clean.ping().unwrap(), Reply::Answered(()));
        prop_assert_eq!(
            server.subscriptions_reclaimed(),
            u64::from(subscribed),
            "a registered subscription must be reclaimed on close"
        );

        // Byte-identity through the surviving server.
        for (k, semantics) in [(1, Semantics::Exists), (2, Semantics::ForAll), (4, Semantics::Exists)] {
            let q = query(k, semantics);
            let over_wire = clean.query(&q).unwrap().answered().expect("admitted");
            let (expected, _) = twin.execute_batch(std::slice::from_ref(&q));
            prop_assert_eq!(&over_wire, &expected[0].transitions);
        }
    }
}

/// Satellite 2's proof: a panicking executor no longer strands readers.
/// Queued requests get a typed `Error` reply, the connections close
/// cleanly, and `Server::stop` still joins.
#[test]
fn executor_panic_answers_queued_requests_then_closes() {
    let fp = FaultPlan::new(0xDEAD)
        .panic_at(SERVER_EXECUTOR_SITE, 2, "injected executor panic")
        .arm();
    let server = Server::start(
        Backend::Single(service()),
        ServerConfig::default().with_failpoints(fp),
    )
    .unwrap();
    let mut client = bounded_client(&server, ClientConfig::default());
    // Batch 1 is clean; batch 2 panics before processing, so the query is
    // answered with a typed error — not silence.
    assert_eq!(client.ping().unwrap(), Reply::Answered(()));
    let err = client.query(&query(1, Semantics::Exists)).unwrap_err();
    match err {
        ClientError::Server { message, .. } => {
            assert!(
                message.contains("executor panicked"),
                "typed panic error, got: {message}"
            );
        }
        // The connection may be severed before the reply is read back.
        ClientError::Disconnected | ClientError::Io(_) => {}
        other => panic!("expected a typed error or a clean close, got {other:?}"),
    }
    // The server is dead (typed), connections are severed, and new
    // requests are refused rather than queued forever.
    assert!(server.is_dead());
    let fault = server.fault().expect("dead servers name their fault");
    assert!(fault.contains("injected executor panic"), "fault: {fault}");
    if let Ok(Reply::Answered(())) = client.ping() {
        panic!("dead server must not pong");
    }
    drop(client);
    drop(server.stop());
}

/// A reader-side kill mimics a crash: the in-flight frame is neither
/// applied nor acknowledged, every client sees a close (never a hang), and
/// reconnects are refused instantly.
#[test]
fn reader_kill_severs_clients_without_hanging() {
    let fp = FaultPlan::new(0x4B31).kill(SERVER_READ_SITE, 2).arm();
    let server = Server::start(
        Backend::Single(service()),
        ServerConfig::default().with_failpoints(fp),
    )
    .unwrap();
    let mut client = bounded_client(&server, ClientConfig::default());
    assert_eq!(client.ping().unwrap(), Reply::Answered(()));
    // Frame 2 trips the kill before it is decoded: no reply, typed close.
    match client.query(&query(1, Semantics::Exists)) {
        Err(ClientError::Timeout) => panic!("kill must sever, not hang"),
        Err(_) => {}
        Ok(reply) => panic!("killed server must not answer, got {reply:?}"),
    }
    assert!(server.is_dead());
    // The listener dies with the server: reconnection is refused rather
    // than accepted-and-ignored. (One handshake may still land in the
    // backlog while the acceptor thread winds down, hence the poll.)
    let refused = (0..2000).any(|_| {
        std::thread::sleep(Duration::from_millis(1));
        std::net::TcpStream::connect(server.local_addr()).is_err()
    });
    assert!(refused, "listener must die with the server");
    drop(server.stop());
}

/// A mid-frame cut on the server's write path: the client sees a typed
/// error on that connection, and the server keeps serving others.
#[test]
fn server_write_cut_is_typed_and_contained() {
    let fp = FaultPlan::new(0x5E7)
        .cut_mid_frame(SERVER_WRITE_SITE, 2, 3)
        .arm();
    let server = Server::start(
        Backend::Single(service()),
        ServerConfig::default().with_failpoints(fp),
    )
    .unwrap();
    let twin = service();
    let mut victim = bounded_client(&server, ClientConfig::default());
    assert_eq!(victim.ping().unwrap(), Reply::Answered(()));
    match victim.query(&query(1, Semantics::Exists)) {
        Err(ClientError::Timeout) => panic!("cut reply must close, not hang"),
        Err(_) => {}
        Ok(reply) => panic!("a 3-byte frame cannot decode, got {reply:?}"),
    }
    // Other connections are untouched.
    let mut clean = bounded_client(&server, ClientConfig::default());
    let q = query(2, Semantics::Exists);
    let over_wire = clean.query(&q).unwrap().answered().unwrap();
    let (expected, _) = twin.execute_batch(std::slice::from_ref(&q));
    assert_eq!(over_wire, expected[0].transitions);
    drop(server.stop());
}

/// Satellite 1's proof: a blocking read gives up after the configured
/// timeout with a typed [`ClientError::Timeout`] instead of blocking
/// forever on a stalled executor.
#[test]
fn blocking_reads_time_out_typed_on_a_stalled_server() {
    let fp = FaultPlan::new(0x71E)
        .delay(
            SERVER_EXECUTOR_SITE,
            2,
            Duration::from_millis(400).as_nanos() as u64,
        )
        .arm();
    let server = Server::start(
        Backend::Single(service()),
        ServerConfig::default().with_failpoints(fp),
    )
    .unwrap();
    let mut client = Client::connect_with(
        server.local_addr(),
        ClientConfig::default().with_read_timeout(Duration::from_millis(40)),
    )
    .unwrap();
    assert_eq!(client.ping().unwrap(), Reply::Answered(()));
    let err = client.query(&query(1, Semantics::Exists)).unwrap_err();
    assert!(
        matches!(err, ClientError::Timeout),
        "expected a typed timeout, got {err:?}"
    );
    drop(client);
    drop(server.stop());
}

/// A failed WAL append is the *request's* failure, not the server's: the
/// append rolls back, the request gets a typed error with nothing applied,
/// and the executor keeps serving — the next query, and a retry of the very
/// same update batch, both succeed and match an in-process twin. Holds for
/// both backends: a sharded service logs to the same single WAL, so there is
/// no second, shard-local append left to fail.
#[test]
fn failed_wal_append_is_a_typed_error_and_the_server_keeps_serving() {
    failed_wal_append_keeps_serving("flat", |dir| {
        let mut durable = service();
        durable
            .attach_storage(dir, StorageConfig::default())
            .expect("attach storage");
        Backend::Single(durable)
    });
    failed_wal_append_keeps_serving("sharded", |dir| {
        let (routes, pairs) = small_world();
        let config = ShardedConfig::default()
            .with_shards(4)
            .with_base(*service().config());
        let mut durable = ShardedService::bulk_build(config, routes, pairs);
        durable
            .attach_storage(dir, StorageConfig::default())
            .expect("attach storage");
        Backend::Sharded(durable)
    });
}

fn failed_wal_append_keeps_serving(tag: &str, durable: impl FnOnce(&Path) -> Backend) {
    let dir =
        std::env::temp_dir().join(format!("rknnt-netfaults-wal-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let durable = durable(&dir);
    let mut twin = service();
    let fp = FaultPlan::new(0x3A1)
        .fail(WAL_WRITE_SITE, 1, "injected WAL write failure")
        .arm();
    let server =
        Server::start(durable, ServerConfig::default().with_failpoints(fp.clone())).unwrap();
    let mut client = bounded_client(&server, ClientConfig::default());
    let standing = query(2, Semantics::Exists);
    let initial = client.subscribe(&standing).unwrap().answered().unwrap();
    let twin_sub = twin.subscribe(standing.clone());
    assert_eq!(
        initial.transitions,
        twin.subscription_result(twin_sub).unwrap()
    );

    let updates = vec![
        StoreUpdate::InsertTransition {
            origin: p(20.0, 80.0),
            destination: p(480.0, 90.0),
        },
        StoreUpdate::ExpireTransition(rknnt_index::TransitionId(3)),
    ];
    match client.apply_updates(updates.clone()) {
        Err(ClientError::Server { message, .. }) => assert!(
            message.contains("injected WAL write failure"),
            "the error must name the cause, got {message:?}"
        ),
        other => panic!("a rolled-back append must be a typed error, got {other:?}"),
    }
    assert_eq!(fp.injected(), 1, "the fault must actually fire");
    assert!(
        !server.is_dead(),
        "one failed append must not kill the server"
    );
    assert_eq!(server.deltas_pushed(), 0, "nothing applied, nothing pushed");
    let health = client.health().unwrap().answered().unwrap();
    assert_eq!(
        health.watermark, 0,
        "a rolled-back batch must not advance the watermark"
    );

    // Nothing was applied: answers still match the untouched twin.
    for q in [query(1, Semantics::Exists), query(2, Semantics::ForAll)] {
        let over_wire = client.query(&q).unwrap().answered().unwrap();
        assert_eq!(over_wire, twin.execute(&q).transitions);
    }

    // The retry commits, and from here server and twin move in lock-step.
    let counts = client
        .apply_updates(updates.clone())
        .unwrap()
        .answered()
        .unwrap();
    let expected = twin.apply_updates(updates);
    assert_eq!(
        (counts.applied, counts.rejected),
        (expected.applied as u64, expected.rejected as u64)
    );
    for q in [query(1, Semantics::Exists), query(2, Semantics::ForAll)] {
        let over_wire = client.query(&q).unwrap().answered().unwrap();
        assert_eq!(over_wire, twin.execute(&q).transitions);
    }
    let health = client.health().unwrap().answered().unwrap();
    assert_eq!(health.watermark, 2, "exactly the retried batch is durable");
    drop(client);
    drop(server.stop());
    let _ = std::fs::remove_dir_all(&dir);
}
