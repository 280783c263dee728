//! The versioned, checksummed binary snapshot format.
//!
//! A snapshot is one file holding the complete logical state a service
//! answers from, in *global* form: a [`RouteStoreState`] and a
//! [`TransitionStoreState`], exactly as the stores' `export_state` methods
//! produce them — including the `None` slots of removed routes/expired
//! transitions (id assignment depends on slot count, and replaying the WAL
//! tail must assign the same ids the live service did). Only id-ordered
//! slots are stored, never a tree, so how the writer laid the data out in
//! memory (one store, or transitions spread over shards) leaves no trace in
//! the file; loading rebuilds the R-trees.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! magic        8 bytes  "RKNTSNAP"
//! version      u32      1
//! last_seq     u64      highest WAL sequence number folded into the state
//! payload_len  u64      bytes of payload that follow the header
//! payload_crc  u32      CRC-32 (IEEE) of the payload
//! payload      payload_len bytes (route state, then transition state)
//! ```
//!
//! Writes go to a `.tmp` sibling, are fsynced, then renamed over the final
//! name (followed by a directory fsync), so a crash mid-write can never
//! leave a half-snapshot under a valid name. Reads verify magic, version,
//! length and checksum before decoding, and the decoder itself
//! bounds-checks every field — a corrupted snapshot is always a typed
//! [`StorageError`], never a panic or a silently wrong store.

use crate::error::StorageError;
use rknnt_data::codec::{crc32, CodecError, Decoder, Encoder};
use rknnt_index::{
    Route, RouteStore, RouteStoreState, StopId, Transition, TransitionStore, TransitionStoreState,
};
use rknnt_rtree::RTreeConfig;
use std::fs;
use std::io::Write;
use std::path::Path;

/// Magic bytes opening every snapshot file.
pub const SNAPSHOT_MAGIC: [u8; 8] = *b"RKNTSNAP";
/// Current snapshot format version.
pub const SNAPSHOT_VERSION: u32 = 1;
/// Fixed header size: magic + version + last_seq + payload_len + crc.
pub const SNAPSHOT_HEADER_BYTES: usize = 8 + 4 + 8 + 8 + 4;

// ---------------------------------------------------------------------------
// Store state codec
// ---------------------------------------------------------------------------

fn encode_rtree_config(enc: &mut Encoder, config: &RTreeConfig) {
    enc.len_prefix(config.max_entries);
    enc.len_prefix(config.min_entries);
}

fn decode_rtree_config(dec: &mut Decoder<'_>) -> Result<RTreeConfig, CodecError> {
    let max_entries = dec.usize()?;
    let min_entries = dec.usize()?;
    if max_entries < 4 || min_entries < 2 || min_entries > max_entries / 2 {
        return Err(CodecError {
            offset: dec.position(),
            detail: format!("invalid rtree config ({max_entries}, {min_entries})"),
        });
    }
    Ok(RTreeConfig::new(max_entries, min_entries))
}

/// Encodes a route-store state into `enc`.
pub fn encode_route_state(enc: &mut Encoder, state: &RouteStoreState) {
    encode_rtree_config(enc, &state.config);
    enc.len_prefix(state.routes.len());
    for slot in &state.routes {
        match slot {
            Some(route) => {
                enc.bool(true);
                enc.points(&route.points);
            }
            None => enc.bool(false),
        }
    }
    enc.points(&state.stops);
    enc.len_prefix(state.live_stops.len());
    for stop in &state.live_stops {
        enc.u32(stop.raw());
    }
    enc.len_prefix(state.plist.len());
    for list in &state.plist {
        enc.len_prefix(list.len());
        for route in list {
            enc.u32(route.raw());
        }
    }
}

/// Decodes a route-store state from `dec`.
pub fn decode_route_state(dec: &mut Decoder<'_>) -> Result<RouteStoreState, CodecError> {
    let config = decode_rtree_config(dec)?;
    let num_routes = dec.len_prefix(1)?;
    let mut routes = Vec::with_capacity(num_routes);
    for i in 0..num_routes {
        routes.push(if dec.bool()? {
            Some(Route {
                id: rknnt_index::RouteId(i as u32),
                points: dec.points()?,
            })
        } else {
            None
        });
    }
    let stops = dec.points()?;
    let num_live = dec.len_prefix(4)?;
    let mut live_stops = Vec::with_capacity(num_live);
    for _ in 0..num_live {
        live_stops.push(StopId(dec.u32()?));
    }
    let num_lists = dec.len_prefix(8)?;
    let mut plist = Vec::with_capacity(num_lists);
    for _ in 0..num_lists {
        let len = dec.len_prefix(4)?;
        let mut list = Vec::with_capacity(len);
        for _ in 0..len {
            list.push(rknnt_index::RouteId(dec.u32()?));
        }
        plist.push(list);
    }
    Ok(RouteStoreState {
        config,
        routes,
        stops,
        live_stops,
        plist,
    })
}

/// Encodes a transition-store state into `enc`.
pub fn encode_transition_state(enc: &mut Encoder, state: &TransitionStoreState) {
    encode_rtree_config(enc, &state.config);
    enc.len_prefix(state.transitions.len());
    for slot in &state.transitions {
        match slot {
            Some(t) => {
                enc.bool(true);
                enc.point(&t.origin);
                enc.point(&t.destination);
            }
            None => enc.bool(false),
        }
    }
}

/// Decodes a transition-store state from `dec`.
pub fn decode_transition_state(dec: &mut Decoder<'_>) -> Result<TransitionStoreState, CodecError> {
    let config = decode_rtree_config(dec)?;
    let num = dec.len_prefix(1)?;
    let mut transitions = Vec::with_capacity(num);
    for i in 0..num {
        transitions.push(if dec.bool()? {
            Some(Transition::new(
                rknnt_index::TransitionId(i as u32),
                dec.point()?,
                dec.point()?,
            ))
        } else {
            None
        });
    }
    Ok(TransitionStoreState {
        config,
        transitions,
    })
}

/// Encodes the full logical state — route state, then transition state —
/// into a standalone payload (no header).
pub fn encode_state(routes: &RouteStoreState, transitions: &TransitionStoreState) -> Vec<u8> {
    let mut enc = Encoder::new();
    encode_route_state(&mut enc, routes);
    encode_transition_state(&mut enc, transitions);
    enc.into_bytes()
}

/// [`encode_state`] of a store pair's exported state.
pub fn encode_stores(routes: &RouteStore, transitions: &TransitionStore) -> Vec<u8> {
    encode_state(&routes.export_state(), &transitions.export_state())
}

/// Decodes a store pair from a payload produced by [`encode_state`],
/// rebuilding both R-trees from the id-ordered slots.
pub fn decode_stores(payload: &[u8]) -> Result<(RouteStore, TransitionStore), String> {
    let mut dec = Decoder::new(payload);
    let route_state = decode_route_state(&mut dec).map_err(|e| e.to_string())?;
    let transition_state = decode_transition_state(&mut dec).map_err(|e| e.to_string())?;
    dec.expect_exhausted().map_err(|e| e.to_string())?;
    let routes = RouteStore::from_state(route_state)?;
    let transitions = TransitionStore::from_state(transition_state)?;
    Ok((routes, transitions))
}

// ---------------------------------------------------------------------------
// Snapshot files
// ---------------------------------------------------------------------------

/// Fsyncs a directory so a just-renamed file survives power loss. Best
/// effort: some filesystems reject directory fsync, which is not worth
/// failing a checkpoint over.
pub(crate) fn sync_dir(dir: &Path) {
    if let Ok(handle) = fs::File::open(dir) {
        let _ = handle.sync_all();
    }
}

/// Writes a snapshot of the store pair to `path` — see
/// [`write_snapshot_payload`]. Returns the snapshot size in bytes.
pub fn write_snapshot(
    path: &Path,
    routes: &RouteStore,
    transitions: &TransitionStore,
    last_seq: u64,
) -> Result<u64, StorageError> {
    write_snapshot_payload(path, &encode_stores(routes, transitions), last_seq)
}

/// Writes an [`encode_state`] payload to `path` as a snapshot file
/// (atomically, via a `.tmp` sibling), recording `last_seq` as the highest
/// WAL sequence number the state includes. Returns the snapshot size in
/// bytes.
pub fn write_snapshot_payload(
    path: &Path,
    payload: &[u8],
    last_seq: u64,
) -> Result<u64, StorageError> {
    let mut file_bytes = Vec::with_capacity(SNAPSHOT_HEADER_BYTES + payload.len());
    file_bytes.extend_from_slice(&SNAPSHOT_MAGIC);
    file_bytes.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
    file_bytes.extend_from_slice(&last_seq.to_le_bytes());
    file_bytes.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    file_bytes.extend_from_slice(&crc32(payload).to_le_bytes());
    file_bytes.extend_from_slice(payload);

    let tmp = path.with_extension("tmp");
    let mut file =
        fs::File::create(&tmp).map_err(|e| StorageError::io("create snapshot", &tmp, e))?;
    file.write_all(&file_bytes)
        .map_err(|e| StorageError::io("write snapshot", &tmp, e))?;
    file.sync_all()
        .map_err(|e| StorageError::io("fsync snapshot", &tmp, e))?;
    drop(file);
    fs::rename(&tmp, path).map_err(|e| StorageError::io("rename snapshot", path, e))?;
    if let Some(dir) = path.parent() {
        sync_dir(dir);
    }
    Ok(file_bytes.len() as u64)
}

/// Reads and fully validates a snapshot file, returning the reconstructed
/// stores and the `last_seq` recorded in its header.
pub fn read_snapshot(path: &Path) -> Result<(RouteStore, TransitionStore, u64), StorageError> {
    let bytes = fs::read(path).map_err(|e| StorageError::io("read snapshot", path, e))?;
    if bytes.len() < SNAPSHOT_HEADER_BYTES {
        return Err(StorageError::corrupt(
            path,
            Some(bytes.len() as u64),
            format!(
                "file is {} bytes, shorter than the {SNAPSHOT_HEADER_BYTES}-byte header",
                bytes.len()
            ),
        ));
    }
    if bytes[..8] != SNAPSHOT_MAGIC {
        return Err(StorageError::corrupt(path, Some(0), "bad magic"));
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
    if version != SNAPSHOT_VERSION {
        return Err(StorageError::UnsupportedVersion {
            path: path.to_path_buf(),
            version,
        });
    }
    let last_seq = u64::from_le_bytes(bytes[12..20].try_into().expect("8 bytes"));
    let payload_len = u64::from_le_bytes(bytes[20..28].try_into().expect("8 bytes"));
    let stored_crc = u32::from_le_bytes(bytes[28..32].try_into().expect("4 bytes"));
    let payload = &bytes[SNAPSHOT_HEADER_BYTES..];
    if payload.len() as u64 != payload_len {
        return Err(StorageError::corrupt(
            path,
            Some(20),
            format!(
                "header declares {payload_len} payload bytes, file holds {}",
                payload.len()
            ),
        ));
    }
    let computed = crc32(payload);
    if computed != stored_crc {
        return Err(StorageError::ChecksumMismatch {
            path: path.to_path_buf(),
            offset: SNAPSHOT_HEADER_BYTES as u64,
            stored: stored_crc,
            computed,
        });
    }
    let (routes, transitions) =
        decode_stores(payload).map_err(|detail| StorageError::corrupt(path, None, detail))?;
    Ok((routes, transitions, last_seq))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rknnt_geo::Point;

    fn p(x: f64, y: f64) -> Point {
        Point::new(x, y)
    }

    fn churned_stores() -> (RouteStore, TransitionStore) {
        let mut routes = RouteStore::default();
        let r0 = routes
            .insert_route(vec![p(0.0, 0.0), p(10.0, 0.0), p(20.0, 0.0)])
            .unwrap();
        routes
            .insert_route(vec![p(10.0, 0.0), p(10.0, 10.0)])
            .unwrap();
        routes
            .insert_route(vec![p(0.0, 5.0), p(20.0, 5.0)])
            .unwrap();
        routes.remove_route(r0); // leave a dead slot and a stale stop
        let mut transitions = TransitionStore::default();
        let t0 = transitions.insert(p(1.0, 1.0), p(9.0, 9.0)).unwrap();
        transitions.insert(p(2.0, 2.0), p(8.0, 8.0)).unwrap();
        transitions.remove(t0); // dead slot
        transitions.insert(p(3.0, 3.0), p(7.0, 7.0)).unwrap();
        (routes, transitions)
    }

    #[test]
    fn stores_roundtrip_byte_identically_through_the_payload_codec() {
        let (routes, transitions) = churned_stores();
        let payload = encode_stores(&routes, &transitions);
        let (r2, t2) = decode_stores(&payload).unwrap();
        assert_eq!(r2.export_state(), routes.export_state());
        assert_eq!(t2.export_state(), transitions.export_state());
        // Byte-identity: re-encoding the decoded stores reproduces the payload.
        assert_eq!(encode_stores(&r2, &t2), payload);
    }

    #[test]
    fn snapshot_file_roundtrips_and_records_last_seq() {
        let dir = std::env::temp_dir().join(format!("rknnt-snap-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snapshot-test.snap");
        let (routes, transitions) = churned_stores();
        let bytes = write_snapshot(&path, &routes, &transitions, 41).unwrap();
        assert_eq!(bytes, std::fs::metadata(&path).unwrap().len());
        let (r2, t2, last_seq) = read_snapshot(&path).unwrap();
        assert_eq!(last_seq, 41);
        assert_eq!(r2.export_state(), routes.export_state());
        assert_eq!(t2.export_state(), transitions.export_state());
        assert!(
            !path.with_extension("tmp").exists(),
            "tmp file must be renamed away"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bad_magic_version_and_checksum_are_typed_errors() {
        let dir = std::env::temp_dir().join(format!("rknnt-snap-bad-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snapshot-bad.snap");
        let (routes, transitions) = churned_stores();
        write_snapshot(&path, &routes, &transitions, 7).unwrap();
        let pristine = std::fs::read(&path).unwrap();

        // Flip a payload byte: checksum mismatch.
        let mut bytes = pristine.clone();
        let tail = bytes.len() - 1;
        bytes[tail] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            read_snapshot(&path).unwrap_err(),
            StorageError::ChecksumMismatch { .. }
        ));

        // Damage the magic.
        let mut bytes = pristine.clone();
        bytes[0] = b'X';
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            read_snapshot(&path).unwrap_err(),
            StorageError::Corrupt { .. }
        ));

        // Bump the version.
        let mut bytes = pristine.clone();
        bytes[8] = 99;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            read_snapshot(&path).unwrap_err(),
            StorageError::UnsupportedVersion { version: 99, .. }
        ));

        // Truncate the payload.
        std::fs::write(&path, &pristine[..pristine.len() - 5]).unwrap();
        let err = read_snapshot(&path).unwrap_err();
        assert!(err.is_corruption(), "truncation must be detected: {err}");

        // Truncate into the header.
        std::fs::write(&path, &pristine[..10]).unwrap();
        assert!(read_snapshot(&path).unwrap_err().is_corruption());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_stores_snapshot_cleanly() {
        let dir = std::env::temp_dir().join(format!("rknnt-snap-empty-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snapshot-empty.snap");
        let routes = RouteStore::default();
        let transitions = TransitionStore::default();
        write_snapshot(&path, &routes, &transitions, 0).unwrap();
        let (r2, t2, last_seq) = read_snapshot(&path).unwrap();
        assert_eq!(last_seq, 0);
        assert!(r2.is_empty());
        assert!(t2.is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
