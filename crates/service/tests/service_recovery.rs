//! Crash recovery at its edges: a torn final WAL frame drops exactly the
//! uncommitted update, a fresh directory opens empty and durable, and an
//! attach over existing state is refused. Recovery mid-stream — snapshot
//! plus WAL tail, reopened flat and at every shard count — is the tier-1
//! stream in `tests/serving_layers.rs`.
//!
//! Also property-tests the `StoreUpdate` WAL record codec end to end:
//! arbitrary update sequences written through a real storage directory come
//! back identical.

use proptest::prelude::*;
use rknnt_data::{CityConfig, CityGenerator, TransitionConfig, TransitionGenerator};
use rknnt_geo::Point;
use rknnt_index::{RouteId, TransitionId};
use rknnt_service::{QueryService, ServiceConfig, StorageConfig, StoreUpdate};
use std::path::PathBuf;

fn p(x: f64, y: f64) -> Point {
    Point::new(x, y)
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rknnt-recovery-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Storage tuned for tests: no fsync (durability against power loss is not
/// what these tests measure) and small segments so replay crosses segment
/// boundaries.
fn test_storage() -> StorageConfig {
    StorageConfig::default()
        .with_fsync(false)
        .with_segment_bytes(512)
}

/// A fixed mixed batch: arrivals, an expiry of a live and of an unknown
/// transition, and a route.
fn mixed_updates() -> Vec<StoreUpdate> {
    let mut updates: Vec<StoreUpdate> = (0..8)
        .map(|i| StoreUpdate::InsertTransition {
            origin: p(500.0 * i as f64, 300.0),
            destination: p(250.0 * i as f64, 7_000.0),
        })
        .collect();
    updates.push(StoreUpdate::ExpireTransition(TransitionId(3)));
    updates.push(StoreUpdate::ExpireTransition(TransitionId(99_999)));
    updates.push(StoreUpdate::InsertRoute(vec![
        p(100.0, 100.0),
        p(600.0, 400.0),
    ]));
    updates.push(StoreUpdate::RemoveRoute(RouteId(2)));
    updates
}

#[test]
fn torn_tail_recovers_to_the_last_committed_update() {
    // Crash mid-append: the final WAL frame is incomplete. Recovery must
    // drop exactly that update and match a reference that never saw it.
    let city = CityGenerator::new(CityConfig::small(9)).generate();
    let routes = city.route_store();
    let transitions =
        TransitionGenerator::new(TransitionConfig::checkin_like(200, 5)).generate_store(&city);
    let config = ServiceConfig::default().with_workers(1);

    let dir = temp_dir("torn");
    let mut durable = QueryService::new(routes.clone(), transitions.clone(), config);
    // Large segments: everything lands in one file whose tail we can tear.
    durable
        .attach_storage(&dir, StorageConfig::default().with_fsync(false))
        .unwrap();
    let updates = mixed_updates();
    durable.apply_updates(updates.clone());
    drop(durable);

    // Tear the last frame: chop a couple of bytes off the single segment.
    let segment = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .find(|e| {
            let name = e.file_name().to_string_lossy().into_owned();
            name.starts_with("wal-") && name.ends_with(".log")
        })
        .expect("one WAL segment")
        .path();
    let bytes = std::fs::read(&segment).unwrap();
    std::fs::write(&segment, &bytes[..bytes.len() - 2]).unwrap();

    let (recovered, stats) = QueryService::open(&dir, config, test_storage()).unwrap();
    assert!(stats.torn_tail, "the torn frame must be reported");
    assert_eq!(stats.replayed_records as usize, updates.len() - 1);

    let mut reference = QueryService::new(routes, transitions, config);
    reference.apply_updates(updates[..updates.len() - 1].to_vec());
    assert_eq!(
        recovered.routes().export_state(),
        reference.routes().export_state()
    );
    assert_eq!(
        recovered.transitions().export_state(),
        reference.transitions().export_state()
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn open_on_a_fresh_directory_starts_empty_and_durable() {
    let dir = temp_dir("fresh");
    let config = ServiceConfig::default().with_workers(1);
    let (mut service, stats) = QueryService::open(&dir, config, test_storage()).unwrap();
    assert_eq!(stats.replayed_records, 0);
    assert!(service.routes().is_empty());
    assert!(service.transitions().is_empty());
    // It logs from the first update on.
    let stats = service.apply_updates(vec![StoreUpdate::InsertRoute(vec![
        p(0.0, 0.0),
        p(100.0, 0.0),
    ])]);
    assert_eq!(stats.wal_appends, 1);
    drop(service);
    let (service, stats) = QueryService::open(&dir, config, test_storage()).unwrap();
    assert_eq!(stats.replayed_records, 1);
    assert_eq!(service.routes().num_routes(), 1);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn attach_refuses_a_directory_with_existing_state() {
    let dir = temp_dir("attach-occupied");
    let config = ServiceConfig::default().with_workers(1);
    let (mut service, _) = QueryService::open(&dir, config, test_storage()).unwrap();
    service.apply_updates(vec![StoreUpdate::InsertTransition {
        origin: p(0.0, 0.0),
        destination: p(1.0, 1.0),
    }]);
    drop(service);
    let mut other = QueryService::new(Default::default(), Default::default(), config);
    let err = other.attach_storage(&dir, test_storage()).unwrap_err();
    assert!(
        matches!(err, rknnt_service::StorageError::DirectoryNotEmpty { .. }),
        "got {err}"
    );
    // And checkpoint without storage is the typed NotAttached error.
    assert!(matches!(
        other.checkpoint().unwrap_err(),
        rknnt_service::StorageError::NotAttached
    ));
    std::fs::remove_dir_all(&dir).unwrap();
}

// ---------------------------------------------------------------------------
// StoreUpdate WAL codec properties
// ---------------------------------------------------------------------------

/// Raw draw for one arbitrary update (tag + coordinates + id material).
type RawUpdate = (u8, f64, f64, f64, f64, u64);

fn to_update((tag, a, b, c, d, id): RawUpdate) -> StoreUpdate {
    match tag % 4 {
        0 => StoreUpdate::InsertTransition {
            origin: p(a, b),
            destination: p(c, d),
        },
        1 => StoreUpdate::ExpireTransition(TransitionId(id as u32)),
        2 => {
            let len = 2 + (id % 5) as usize;
            StoreUpdate::InsertRoute(
                (0..len)
                    .map(|i| p(a + i as f64 * c.abs().max(1.0), b + i as f64 * d))
                    .collect(),
            )
        }
        _ => StoreUpdate::RemoveRoute(RouteId(id as u32)),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn arbitrary_update_sequences_roundtrip_through_a_real_wal(
        raw in prop::collection::vec(
            (0u8..8, -1e6f64..1e6, -1e6f64..1e6, -1e6f64..1e6, -1e6f64..1e6, 0u64..u64::MAX),
            1..24,
        ),
        case in 0u64..u64::MAX,
    ) {
        let updates: Vec<StoreUpdate> = raw.into_iter().map(to_update).collect();
        // In-memory codec identity.
        for update in &updates {
            let record = update.to_wal_record();
            prop_assert_eq!(&StoreUpdate::from_wal_record(&record).unwrap(), update);
        }
        // Through an actual storage directory, batched arbitrarily.
        let dir = std::env::temp_dir().join(format!(
            "rknnt-walcodec-{}-{case}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let (mut storage, _) = rknnt_storage::Storage::open(
            &dir,
            rknnt_storage::StorageConfig::default().with_fsync(false).with_segment_bytes(256),
        ).unwrap();
        let records: Vec<Vec<u8>> = updates.iter().map(StoreUpdate::to_wal_record).collect();
        for chunk in records.chunks(5) {
            storage.append(chunk).unwrap();
        }
        drop(storage);
        let (_, recovery) = rknnt_storage::Storage::open(
            &dir,
            rknnt_storage::StorageConfig::default().with_fsync(false),
        ).unwrap();
        let back: Vec<StoreUpdate> = recovery
            .tail
            .iter()
            .map(|r| StoreUpdate::from_wal_record(r).unwrap())
            .collect();
        prop_assert_eq!(back, updates);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
