//! Crash-recovery determinism: a service recovered mid-stream — latest
//! snapshot plus partial WAL replay — must answer byte-identically to a
//! service that never crashed, for both semantics.
//! That covers one-shot query answers, store contents (full logical state),
//! re-registered subscription results, and the deltas both services emit
//! when the update stream continues after recovery.
//!
//! Also property-tests the `StoreUpdate` WAL record codec end to end:
//! arbitrary update sequences written through a real storage directory come
//! back identical.

use proptest::prelude::*;
use rknnt_core::{RknntQuery, Semantics};
use rknnt_data::{workload, CityConfig, CityGenerator, TransitionConfig, TransitionGenerator};
use rknnt_geo::Point;
use rknnt_index::{RouteId, TransitionId};
use rknnt_service::{QueryService, ServiceConfig, StorageConfig, StoreUpdate, SubscriptionId};
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

/// Tiny deterministic generator for update streams (splitmix64).
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    fn f64(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (self.next() >> 11) as f64 / (1u64 << 53) as f64 * (hi - lo)
    }
}

/// A deterministic mixed update stream. Expiry and removal targets are
/// drawn over a widening id range, so some updates are rejected at the
/// store boundary — replay must reproduce those rejections exactly.
fn make_updates(
    gen: &mut Gen,
    count: usize,
    transition_pool: usize,
    route_pool: usize,
) -> Vec<StoreUpdate> {
    let mut updates = Vec::with_capacity(count);
    for i in 0..count {
        let roll = gen.next() % 100;
        if roll < 50 {
            updates.push(StoreUpdate::InsertTransition {
                origin: p(gen.f64(0.0, 12_000.0), gen.f64(0.0, 12_000.0)),
                destination: p(gen.f64(0.0, 12_000.0), gen.f64(0.0, 12_000.0)),
            });
        } else if roll < 75 {
            let id = gen.next() % (transition_pool + i) as u64;
            updates.push(StoreUpdate::ExpireTransition(TransitionId(id as u32)));
        } else if roll < 90 {
            let len = 3 + (gen.next() % 3) as usize;
            let mut points = Vec::with_capacity(len);
            let (mut x, mut y) = (gen.f64(0.0, 11_000.0), gen.f64(0.0, 11_000.0));
            for _ in 0..len {
                points.push(p(x, y));
                x += gen.f64(200.0, 600.0);
                y += gen.f64(-300.0, 300.0);
            }
            updates.push(StoreUpdate::InsertRoute(points));
        } else {
            let id = gen.next() % (route_pool + i / 4 + 1) as u64;
            updates.push(StoreUpdate::RemoveRoute(RouteId(id as u32)));
        }
    }
    updates
}

fn subscription_results(service: &QueryService, ids: &[SubscriptionId]) -> Vec<Vec<TransitionId>> {
    ids.iter()
        .map(|id| service.subscription_result(*id).unwrap().to_vec())
        .collect()
}

/// The full scenario for one seed and semantics: reference service A never
/// crashes; durable service B checkpoints after phase 1, crashes (drops)
/// after phase 2; C recovers from disk and must match A exactly, including
/// when the stream continues.
fn run_recovery(semantics: Semantics, seed: u64) {
    let city = CityGenerator::new(CityConfig::small(seed)).generate();
    let routes = city.route_store();
    let transitions = TransitionGenerator::new(TransitionConfig::checkin_like(300, seed ^ 0x33))
        .generate_store(&city);
    let config = ServiceConfig::default().with_workers(2);
    let initial_routes = routes.num_routes();

    let mut reference = QueryService::new(routes.clone(), transitions.clone(), config);
    let dir = temp_dir(&format!("{semantics:?}-{seed}"));
    let mut durable = QueryService::new(routes, transitions, config);
    durable.attach_storage(&dir, test_storage()).unwrap();
    assert!(durable.has_storage());

    let mut gen = Gen(seed ^ 0xD15C);
    let phase1 = make_updates(&mut gen, 30, 300, initial_routes);
    let phase2 = make_updates(&mut gen, 30, 360, initial_routes + 8);
    let phase3 = make_updates(&mut gen, 20, 420, initial_routes + 16);

    // Phase 1 → checkpoint: the snapshot holds post-phase-1 state.
    let ref1 = reference.apply_updates(phase1.clone());
    let dur1 = durable.apply_updates(phase1.clone());
    assert_eq!(ref1.applied, dur1.applied);
    assert_eq!(ref1.rejected, dur1.rejected);
    assert_eq!(
        dur1.wal_appends,
        phase1.len(),
        "every submitted update is logged"
    );
    assert!(dur1.wal_bytes > 0);
    assert_eq!(ref1.wal_appends, 0, "no storage, no logging");
    durable.checkpoint().unwrap();

    // Standing queries registered on the reference before the crash window.
    let standing: Vec<RknntQuery> = workload::rknnt_queries(&city, 4, 4, 800.0, seed ^ 0x5b)
        .into_iter()
        .map(|route| RknntQuery {
            route,
            k: 2,
            semantics,
        })
        .collect();
    let ref_subs: Vec<SubscriptionId> = standing
        .iter()
        .map(|q| reference.subscribe(q.clone()))
        .collect();

    // Phase 2 → crash: logged but never checkpointed. Applied in small
    // batches so the tiny test segments rotate and replay crosses segment
    // boundaries.
    for chunk in phase2.chunks(5) {
        reference.apply_updates(chunk.to_vec());
        durable.apply_updates(chunk.to_vec());
    }
    drop(durable); // the crash: in-memory state gone, disk state stays

    // Recovery: snapshot + WAL tail replayed through the normal path.
    let (mut recovered, stats) = QueryService::open(&dir, config, test_storage()).unwrap();
    assert_eq!(
        stats.replayed_records as usize,
        phase2.len(),
        "the tail is exactly the records after the checkpoint"
    );
    assert!(!stats.torn_tail);
    assert!(stats.segments > 1, "tiny segments must have rotated");

    // Store contents: the full logical state must match the uninterrupted
    // service, dead slots and all.
    assert_eq!(
        recovered.routes().export_state(),
        reference.routes().export_state(),
        "recovered route store diverged ({semantics:?}, seed {seed})"
    );
    assert_eq!(
        recovered.transitions().export_state(),
        reference.transitions().export_state(),
        "recovered transition store diverged ({semantics:?}, seed {seed})"
    );

    // Query answers: byte-identical across a probe batch.
    let probes: Vec<RknntQuery> = workload::rknnt_queries(&city, 6, 5, 700.0, seed ^ 0x77)
        .into_iter()
        .enumerate()
        .map(|(i, route)| RknntQuery {
            route,
            k: 1 + i % 3,
            semantics,
        })
        .collect();
    let (ref_answers, _) = reference.execute_batch(&probes);
    let (rec_answers, _) = recovered.execute_batch(&probes);
    for (a, b) in ref_answers.iter().zip(&rec_answers) {
        assert_eq!(
            a.transitions, b.transitions,
            "recovered answer diverged ({semantics:?}, seed {seed})"
        );
    }

    // Subscriptions: re-registering the standing queries on the recovered
    // service reproduces the live results the reference maintained.
    let rec_subs: Vec<SubscriptionId> = standing
        .iter()
        .map(|q| recovered.subscribe(q.clone()))
        .collect();
    assert_eq!(
        subscription_results(&recovered, &rec_subs),
        subscription_results(&reference, &ref_subs),
        "recovered subscription results diverged ({semantics:?}, seed {seed})"
    );

    // The stream continues on both: applied/rejected bookkeeping, emitted
    // deltas and maintained results must stay identical.
    let mut ref3 = reference.apply_updates(phase3.clone());
    let rec3 = recovered.apply_updates(phase3);
    assert_eq!(ref3.applied, rec3.applied);
    assert_eq!(ref3.rejected, rec3.rejected);
    assert_eq!(ref3.inserted_transitions, rec3.inserted_transitions);
    assert_eq!(ref3.inserted_routes, rec3.inserted_routes);
    // The reference buffered deltas from phase 2 (it had live subscriptions
    // then); drop those — the comparable window starts at phase 3, where
    // both services carry the same subscriptions.
    ref3.deltas
        .retain(|d| !d.entered.is_empty() || !d.left.is_empty());
    let rec_deltas: Vec<_> = rec3
        .deltas
        .iter()
        .filter(|d| !d.entered.is_empty() || !d.left.is_empty())
        .cloned()
        .collect();
    assert_eq!(
        ref3.deltas, rec_deltas,
        "replayed deltas diverged ({semantics:?}, seed {seed})"
    );
    assert_eq!(
        subscription_results(&recovered, &rec_subs),
        subscription_results(&reference, &ref_subs),
        "post-recovery maintained results diverged ({semantics:?}, seed {seed})"
    );

    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn recovery_is_deterministic_for_every_seed_and_semantics() {
    for seed in 41..=48 {
        let semantics = if seed % 2 == 1 {
            Semantics::Exists
        } else {
            Semantics::ForAll
        };
        run_recovery(semantics, seed);
    }
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
    let mut gen = Gen(0xBEEF);
    let updates = make_updates(&mut gen, 12, 200, routes.num_routes());
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
