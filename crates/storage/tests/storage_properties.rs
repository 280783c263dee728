//! Property tests for the durable formats: arbitrary store pairs round-trip
//! byte-identically through the snapshot codec, and random single-byte
//! corruption or truncation of a snapshot or WAL segment is always detected
//! — with exactly one tolerated case, an incomplete (torn) final WAL frame,
//! which recovery reports and drops without losing any earlier record.

use proptest::prelude::*;
use rknnt_geo::Point;
use rknnt_index::{RouteStore, TransitionStore};
use rknnt_storage::snapshot::{encode_stores, read_snapshot, write_snapshot};
use rknnt_storage::wal::{scan_dir, Wal};
use rknnt_storage::StorageConfig;
use std::path::PathBuf;

fn p(x: f64, y: f64) -> Point {
    Point::new(x, y)
}

fn temp_dir(tag: &str, case: u64) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "rknnt-storprop-{tag}-{}-{case}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Raw draws for one churned store pair: route point sequences, transition
/// endpoint pairs, and removal selectors that leave dead slots behind.
type RawStores = (
    Vec<Vec<(f64, f64)>>,
    Vec<((f64, f64), (f64, f64))>,
    Vec<u64>,
    Vec<u64>,
);

fn churned_stores_strategy() -> impl Strategy<Value = RawStores> {
    let coord = -500.0f64..500.0;
    let route = prop::collection::vec((coord.clone(), coord.clone()), 2..6);
    let pair = (
        (-500.0f64..500.0, -500.0f64..500.0),
        (-500.0f64..500.0, -500.0f64..500.0),
    );
    (
        prop::collection::vec(route, 1..8),
        prop::collection::vec(pair, 0..12),
        prop::collection::vec(0u64..u64::MAX, 0..4), // route removals
        prop::collection::vec(0u64..u64::MAX, 0..6), // transition removals
    )
}

fn build_stores(
    (routes_raw, pairs, route_kills, transition_kills): RawStores,
) -> (RouteStore, TransitionStore) {
    let mut routes = RouteStore::default();
    let mut route_ids = Vec::new();
    for points in routes_raw {
        if let Some(id) = routes.insert_route(points.iter().map(|&(x, y)| p(x, y)).collect()) {
            route_ids.push(id);
        }
    }
    let mut transitions = TransitionStore::default();
    let mut transition_ids = Vec::new();
    for ((ox, oy), (dx, dy)) in pairs {
        if let Some(id) = transitions.insert(p(ox, oy), p(dx, dy)) {
            transition_ids.push(id);
        }
    }
    for kill in route_kills {
        if !route_ids.is_empty() {
            let victim = route_ids.swap_remove(kill as usize % route_ids.len());
            routes.remove_route(victim);
        }
    }
    for kill in transition_kills {
        if !transition_ids.is_empty() {
            let victim = transition_ids.swap_remove(kill as usize % transition_ids.len());
            transitions.remove(victim);
        }
    }
    (routes, transitions)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn arbitrary_store_pairs_roundtrip_byte_identically(raw in churned_stores_strategy()) {
        let (routes, transitions) = build_stores(raw);
        let payload = encode_stores(&routes, &transitions);
        let (r2, t2) = rknnt_storage::snapshot::decode_stores(&payload).unwrap();
        prop_assert_eq!(r2.export_state(), routes.export_state());
        prop_assert_eq!(t2.export_state(), transitions.export_state());
        prop_assert_eq!(encode_stores(&r2, &t2), payload);
        // And the reconstructed stores answer identically at the index
        // level: same live ids, same nearest stop for an arbitrary probe.
        prop_assert_eq!(r2.route_ids(), routes.route_ids());
        prop_assert_eq!(t2.transition_ids(), transitions.transition_ids());
        let probe = p(3.0, 4.0);
        let orig = routes.rtree().nearest(&probe).map(|n| n.distance);
        let back = r2.rtree().nearest(&probe).map(|n| n.distance);
        prop_assert_eq!(orig, back);
    }

    #[test]
    fn snapshot_single_byte_corruption_is_always_detected(
        raw in churned_stores_strategy(),
        victim in 0u64..u64::MAX,
        flip in 1u8..255,
    ) {
        let (routes, transitions) = build_stores(raw);
        let dir = temp_dir("snapcorrupt", victim ^ flip as u64);
        let path = dir.join("snapshot-x.snap");
        write_snapshot(&path, &routes, &transitions, 3).unwrap();
        let pristine = std::fs::read(&path).unwrap();
        let mut bytes = pristine.clone();
        let at = (victim as usize) % bytes.len();
        bytes[at] ^= flip;
        std::fs::write(&path, &bytes).unwrap();
        let err = read_snapshot(&path).unwrap_err();
        prop_assert!(
            err.is_corruption(),
            "flip at {} must be detected, got {}", at, err
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn snapshot_truncation_is_always_detected(
        raw in churned_stores_strategy(),
        cut in 0u64..u64::MAX,
    ) {
        let (routes, transitions) = build_stores(raw);
        let dir = temp_dir("snaptrunc", cut);
        let path = dir.join("snapshot-x.snap");
        write_snapshot(&path, &routes, &transitions, 3).unwrap();
        let pristine = std::fs::read(&path).unwrap();
        let keep = (cut as usize) % pristine.len(); // strictly shorter
        std::fs::write(&path, &pristine[..keep]).unwrap();
        let err = read_snapshot(&path).unwrap_err();
        prop_assert!(err.is_corruption(), "truncation to {} bytes must be detected, got {}", keep, err);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn wal_records_roundtrip_across_segment_rotation(
        records in prop::collection::vec(prop::collection::vec(0u8..255, 0..40), 1..20),
        segment_bytes in 32u64..256,
    ) {
        let dir = temp_dir("walround", segment_bytes ^ records.len() as u64);
        let mut wal = Wal::resume(&dir, StorageConfig { segment_bytes, fsync: false }, 1, Vec::new());
        for chunk in records.chunks(3) {
            wal.append_batch(chunk).unwrap();
        }
        let scan = scan_dir(&dir).unwrap();
        prop_assert!(!scan.torn_tail);
        prop_assert_eq!(
            scan.frames.iter().map(|(_, r)| r.clone()).collect::<Vec<_>>(),
            records.clone()
        );
        let seqs: Vec<u64> = scan.frames.iter().map(|(s, _)| *s).collect();
        prop_assert_eq!(seqs, (1..=records.len() as u64).collect::<Vec<_>>());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn wal_damage_is_detected_or_confined_to_the_torn_tail(
        records in prop::collection::vec(prop::collection::vec(0u8..255, 1..24), 2..12),
        victim in 0u64..u64::MAX,
        flip in 1u8..255,
        truncate in any::<bool>(),
    ) {
        // Single segment: every frame in one file, damage lands anywhere.
        let dir = temp_dir("waldamage", victim ^ (flip as u64) << 1);
        let mut wal = Wal::resume(&dir, StorageConfig { segment_bytes: 1 << 20, fsync: false }, 1, Vec::new());
        wal.append_batch(&records).unwrap();
        let seg = scan_dir(&dir).unwrap().segments[0].0.clone();
        let pristine = std::fs::read(&seg).unwrap();
        // Byte offsets at which a frame ends (0 = before any frame): a
        // truncation exactly on one is indistinguishable from a log that
        // simply held fewer records, the one loss a pure log cannot see.
        let mut boundaries = vec![0usize];
        for record in &records {
            boundaries.push(boundaries.last().unwrap() + 8 + 8 + record.len());
        }
        let mut bytes = pristine.clone();
        let mut on_boundary = false;
        if truncate {
            let keep = (victim as usize) % bytes.len();
            on_boundary = boundaries.contains(&keep);
            bytes.truncate(keep);
        } else {
            let at = (victim as usize) % bytes.len();
            bytes[at] ^= flip;
        }
        std::fs::write(&seg, &bytes).unwrap();
        match scan_dir(&dir) {
            // Detected outright: checksum mismatch or structural corruption.
            Err(err) => prop_assert!(err.is_corruption(), "unexpected error class: {}", err),
            // Otherwise the damage must be confined to a torn tail: flagged
            // (unless the cut landed exactly on a frame boundary) and the
            // surviving frames an exact prefix of what was written — damage
            // can never invent, alter or reorder records.
            Ok(scan) => {
                prop_assert!(
                    scan.torn_tail || on_boundary,
                    "undetected damage with {} frames intact", scan.frames.len()
                );
                prop_assert!(scan.frames.len() < records.len());
                for (i, (seq, record)) in scan.frames.iter().enumerate() {
                    prop_assert_eq!(*seq, i as u64 + 1);
                    prop_assert_eq!(record, &records[i]);
                }
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
