//! Durable storage engine for the RkNNT service: checkpointed snapshots
//! plus a write-ahead log of store updates, with crash recovery.
//!
//! Everything upstream of this crate keeps the whole service state in
//! memory; a restart used to mean regenerating raw data and rebuilding
//! every index. This crate makes the update stream itself the system of
//! record, following the classic log-plus-snapshot design:
//!
//! * **Snapshots** ([`snapshot`]) — one versioned, checksummed binary file
//!   holding the complete logical state of a service in *global* form: the
//!   [`rknnt_index::RouteStoreState`] and the
//!   [`rknnt_index::TransitionStoreState`] — id-ordered slots, dead ones
//!   included, no tree — hand-encoded through [`rknnt_data::codec`] (the
//!   workspace is hermetic: no serde backend). Round-trips are
//!   byte-identical and `.tmp`+rename makes writes atomic.
//! * **Write-ahead log** ([`wal`]) — length-prefixed, CRC-guarded frames in
//!   rotating `wal-*.log` segments. Records are opaque bytes (the service
//!   owns the `StoreUpdate` codec); each carries a strictly increasing
//!   sequence number. Batches commit with a single write + fdatasync.
//! * **Recovery** ([`Storage::open`]) — loads the newest *valid* snapshot
//!   (rebuilding both R-trees from the slots), returns the WAL records its
//!   sequence does not cover for the service to replay through its normal
//!   update path, tolerates a torn final frame (a crash mid-append) and
//!   surfaces every other form of damage as a typed [`StorageError`].
//! * **Checkpoint** ([`Storage::checkpoint`]) — writes a new snapshot
//!   covering every appended record, deletes the obsolete segments and
//!   older snapshots, and reports [`StorageStats`].
//!
//! The crate is deliberately service-agnostic: a directory is one snapshot
//! lineage plus one WAL — flat files, no subdirectories — and what it
//! stores and recovers is the global state plus opaque update records,
//! whatever the layout the owner keeps in memory. `rknnt-service` layers
//! `Service::open` / `attach_storage` / `checkpoint` on top, once, for the
//! flat and the sharded service alike (a directory written by either opens
//! as the other), where replay can run through `apply_updates` so caches
//! and subscriptions come up consistent for free.
//!
//! One writer per directory is assumed (the service serialises mutation
//! through `&mut self`); there is no cross-process lock file.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod snapshot;
pub mod wal;

pub use error::StorageError;
/// The armed-failpoint handle [`Storage::set_failpoints`] takes, re-exported
/// so callers that only forward it need no dependency on `rknnt-fault`.
pub use rknnt_fault::Failpoints;
pub use wal::{WAL_FSYNC_SITE, WAL_ROLLBACK_SITE, WAL_WRITE_SITE};

use rknnt_index::{RouteStore, RouteStoreState, TransitionStore, TransitionStoreState};
use rknnt_obs::{Counter, Gauge, Stage, TraceCursor};
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use wal::Wal;

/// Tuning for a storage directory.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StorageConfig {
    /// Rotate WAL segments at this size.
    pub segment_bytes: u64,
    /// `fdatasync` every append batch and snapshot. Disable only where
    /// durability is not the point (tests, throughput measurements).
    pub fsync: bool,
}

impl Default for StorageConfig {
    fn default() -> Self {
        StorageConfig {
            segment_bytes: 4 * 1024 * 1024,
            fsync: true,
        }
    }
}

impl StorageConfig {
    /// Fixes the segment rotation size.
    pub fn with_segment_bytes(mut self, bytes: u64) -> Self {
        self.segment_bytes = bytes;
        self
    }

    /// Enables or disables fsync-on-commit.
    pub fn with_fsync(mut self, fsync: bool) -> Self {
        self.fsync = fsync;
        self
    }
}

/// Counters describing a storage directory's state, reported by
/// [`Storage::stats`] and [`Storage::checkpoint`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StorageStats {
    /// WAL segment files currently on disk.
    pub segments: usize,
    /// Total WAL bytes currently on disk.
    pub wal_bytes: u64,
    /// Frames appended through this handle since it was opened.
    pub wal_appends: u64,
    /// Size of the latest snapshot, in bytes (0 when none exists).
    pub snapshot_bytes: u64,
    /// Highest WAL sequence the latest snapshot covers (0 when none).
    pub snapshot_last_seq: u64,
    /// Next WAL sequence number an append will consume.
    pub next_seq: u64,
    /// WAL records recovery handed back for replay when this handle was
    /// opened.
    pub replayed_records: u64,
    /// Whether recovery found (and dropped) a torn final frame.
    pub torn_tail: bool,
}

/// What [`Storage::open`] recovered from the directory.
#[derive(Debug)]
pub struct Recovery {
    /// The store pair from the newest valid snapshot, or `None` when the
    /// directory held no snapshot.
    pub stores: Option<(RouteStore, TransitionStore)>,
    /// WAL records the snapshot does not cover, in sequence order, for the
    /// caller to replay through its normal update path.
    pub tail: Vec<Vec<u8>>,
    /// Whether the final WAL frame was torn (incomplete) and dropped.
    pub torn_tail: bool,
    /// Whether the directory held any snapshot or WAL data at all.
    pub found_existing: bool,
}

/// Telemetry cells the storage engine records into, pre-bound to the
/// owner's metrics registry (the service builds one from its
/// `ServiceMetrics`). Without instruments the engine stays silent — the
/// in-crate tests and any standalone use are unaffected.
#[derive(Debug, Clone)]
pub struct StorageInstruments {
    /// WAL frames appended through this handle.
    pub wal_appends: Counter,
    /// WAL bytes appended through this handle.
    pub wal_bytes: Counter,
    /// Latency of one [`Storage::append`] call — the write plus, per
    /// configuration, its fdatasync.
    pub wal_fsync: Stage,
    /// Checkpoint duration (snapshot write + WAL truncation + cleanup).
    pub checkpoint: Stage,
    /// High-water checkpoint duration in nanoseconds. Checkpoints run under
    /// the service's `&mut self`, so this is the maximum update-path pause a
    /// checkpoint has caused — the ROADMAP's `checkpoint_stall`.
    pub checkpoint_stall: Gauge,
}

/// Handle to one storage directory: the WAL for appends, plus checkpoint
/// bookkeeping.
#[derive(Debug)]
pub struct Storage {
    dir: PathBuf,
    wal: Wal,
    snapshot_last_seq: u64,
    snapshot_bytes: u64,
    replayed_records: u64,
    torn_tail: bool,
    instruments: Option<StorageInstruments>,
}

/// Snapshot file name for a snapshot covering sequences up to `last_seq`.
fn snapshot_name(last_seq: u64) -> String {
    format!("snapshot-{last_seq:020}.snap")
}

fn is_snapshot_name(name: &str) -> bool {
    name.starts_with("snapshot-") && name.ends_with(".snap")
}

impl Storage {
    /// Opens (creating if needed) a storage directory and recovers its
    /// state: the newest valid snapshot plus the WAL tail beyond it.
    ///
    /// Damage handling: a corrupted *newest* snapshot falls back to the
    /// next older valid one (the newest may be a crashed checkpoint's
    /// half-renamed debris on filesystems without atomic rename) — but if
    /// no snapshot is readable while at least one exists, the newest one's
    /// typed error is returned rather than silently starting empty. WAL
    /// frames covered by the chosen snapshot are skipped (an interrupted
    /// checkpoint leaves them behind harmlessly); a torn final frame is
    /// dropped and flagged; any other WAL damage is a typed error.
    pub fn open(dir: &Path, config: StorageConfig) -> Result<(Self, Recovery), StorageError> {
        fs::create_dir_all(dir).map_err(|e| StorageError::io("create storage dir", dir, e))?;
        // Leftover .tmp files are crashed snapshot writes: never valid state.
        let mut snapshots: Vec<String> = Vec::new();
        let mut found_wal = false;
        let entries =
            fs::read_dir(dir).map_err(|e| StorageError::io("list storage dir", dir, e))?;
        for entry in entries {
            let entry = entry.map_err(|e| StorageError::io("list storage dir", dir, e))?;
            let name = entry.file_name().to_string_lossy().into_owned();
            if is_snapshot_name(&name) {
                snapshots.push(name);
            } else if wal::is_segment_name(&name) {
                found_wal = true;
            } else if name.ends_with(".tmp") {
                let _ = fs::remove_file(entry.path());
            }
        }
        snapshots.sort();
        snapshots.reverse(); // newest first

        let mut stores = None;
        let mut snapshot_last_seq = 0u64;
        let mut snapshot_bytes = 0u64;
        let mut newest_error: Option<StorageError> = None;
        for name in &snapshots {
            let path = dir.join(name);
            match snapshot::read_snapshot(&path) {
                Ok((routes, transitions, last_seq)) => {
                    snapshot_bytes = fs::metadata(&path)
                        .map(|m| m.len())
                        .map_err(|e| StorageError::io("stat snapshot", &path, e))?;
                    snapshot_last_seq = last_seq;
                    stores = Some((routes, transitions));
                    break;
                }
                Err(err) => {
                    if newest_error.is_none() {
                        newest_error = Some(err);
                    }
                }
            }
        }
        if stores.is_none() {
            if let Some(err) = newest_error {
                return Err(err);
            }
        }

        let scan = wal::scan_dir(dir)?;
        let mut segments = scan.segments;
        // Repair a torn tail on disk, not just in memory: truncate the
        // incomplete frame away (or delete a segment with no complete
        // frame at all). Leaving the torn bytes would strand them mid-log
        // once a later append opens a newer segment, turning a tolerated
        // crash signature into permanent corruption on the next open.
        if let Some(valid_bytes) = scan.torn_at {
            let (path, _) = segments
                .last()
                .cloned()
                .expect("torn tail implies a segment");
            if valid_bytes == 0 {
                fs::remove_file(&path)
                    .map_err(|e| StorageError::io("remove torn WAL segment", &path, e))?;
                segments.pop();
            } else {
                let file = fs::OpenOptions::new()
                    .write(true)
                    .open(&path)
                    .map_err(|e| StorageError::io("open torn WAL segment", &path, e))?;
                file.set_len(valid_bytes)
                    .map_err(|e| StorageError::io("truncate torn WAL segment", &path, e))?;
                file.sync_all()
                    .map_err(|e| StorageError::io("fsync repaired WAL segment", &path, e))?;
                segments.last_mut().expect("segment kept").1 = valid_bytes;
            }
            snapshot::sync_dir(dir);
        }
        let mut tail = Vec::with_capacity(scan.frames.len());
        for (seq, record) in scan.frames {
            if seq > snapshot_last_seq {
                tail.push(record);
            }
        }
        let next_seq = scan.max_seq.max(snapshot_last_seq) + 1;
        let wal = Wal::resume(dir, config, next_seq, segments);
        let recovery = Recovery {
            stores,
            torn_tail: scan.torn_tail,
            found_existing: !snapshots.is_empty() || found_wal,
            tail,
        };
        let storage = Storage {
            dir: dir.to_path_buf(),
            wal,
            snapshot_last_seq,
            snapshot_bytes,
            replayed_records: recovery.tail.len() as u64,
            torn_tail: recovery.torn_tail,
            instruments: None,
        };
        Ok((storage, recovery))
    }

    /// The directory this handle owns.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Installs the telemetry cells this handle records into from now on.
    pub fn set_instruments(&mut self, instruments: StorageInstruments) {
        self.instruments = Some(instruments);
    }

    /// Arms a deterministic fault plan on the WAL's sync points
    /// ([`WAL_WRITE_SITE`], [`WAL_FSYNC_SITE`], [`WAL_ROLLBACK_SITE`]): an
    /// injected failure takes exactly the path a real disk error would —
    /// rollback to the pre-batch length, or poison when rollback itself
    /// fails.
    pub fn set_failpoints(&mut self, failpoints: Arc<rknnt_fault::Failpoints>) {
        self.wal.set_failpoints(failpoints);
    }

    /// Appends a batch of opaque records to the WAL (one write, one fsync).
    /// Returns `(frames, bytes)` appended.
    pub fn append<R: AsRef<[u8]>>(&mut self, records: &[R]) -> Result<(u64, u64), StorageError> {
        match &self.instruments {
            None => self.wal.append_batch(records),
            Some(instruments) => {
                let span = instruments.wal_fsync.enter(TraceCursor::NONE);
                let result = self.wal.append_batch(records);
                span.finish();
                if let Ok((frames, bytes)) = &result {
                    instruments.wal_appends.add(*frames);
                    instruments.wal_bytes.add(*bytes);
                }
                result
            }
        }
    }

    /// Writes a new snapshot of the given state — what the owner's stores
    /// export, in global form — covering every appended record, then
    /// truncates the now-obsolete WAL segments and deletes older snapshots.
    /// Crash-safe at every step: the snapshot lands via `.tmp`+rename, and
    /// until the old segments are gone their frames are skipped on recovery
    /// because the snapshot's sequence covers them.
    ///
    /// The state is taken by value and freed as soon as it is encoded, so
    /// the exported copy never coexists with the file image being written.
    pub fn checkpoint(
        &mut self,
        routes: RouteStoreState,
        transitions: TransitionStoreState,
    ) -> Result<StorageStats, StorageError> {
        let span = self
            .instruments
            .as_ref()
            .map(|instruments| instruments.checkpoint.enter(TraceCursor::NONE));
        let last_seq = self.wal.next_seq() - 1;
        let path = self.dir.join(snapshot_name(last_seq));
        let payload = snapshot::encode_state(&routes, &transitions);
        drop((routes, transitions));
        let bytes = snapshot::write_snapshot_payload(&path, &payload, last_seq)?;
        self.snapshot_last_seq = last_seq;
        self.snapshot_bytes = bytes;
        // The snapshot is durable; everything logged so far is obsolete.
        self.wal.truncate_all()?;
        let entries = fs::read_dir(&self.dir)
            .map_err(|e| StorageError::io("list storage dir", &self.dir, e))?;
        for entry in entries {
            let entry = entry.map_err(|e| StorageError::io("list storage dir", &self.dir, e))?;
            let name = entry.file_name().to_string_lossy().into_owned();
            if is_snapshot_name(&name) && name != snapshot_name(last_seq) {
                let _ = fs::remove_file(entry.path());
            }
        }
        if let (Some(span), Some(instruments)) = (span, self.instruments.as_ref()) {
            let nanos = u64::try_from(span.finish().as_nanos()).unwrap_or(u64::MAX);
            // The whole checkpoint ran under the service's `&mut self`, so
            // its duration is exactly the update-path stall it caused.
            instruments.checkpoint_stall.record_max(nanos);
        }
        Ok(self.stats())
    }

    /// Current counters for this handle.
    pub fn stats(&self) -> StorageStats {
        StorageStats {
            segments: self.wal.segments(),
            wal_bytes: self.wal.bytes(),
            wal_appends: self.wal.appends(),
            snapshot_bytes: self.snapshot_bytes,
            snapshot_last_seq: self.snapshot_last_seq,
            next_seq: self.wal.next_seq(),
            replayed_records: self.replayed_records,
            torn_tail: self.torn_tail,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rknnt_geo::Point;

    fn p(x: f64, y: f64) -> Point {
        Point::new(x, y)
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("rknnt-storage-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn test_config() -> StorageConfig {
        StorageConfig::default().with_fsync(false)
    }

    fn small_stores() -> (RouteStore, TransitionStore) {
        let mut routes = RouteStore::default();
        routes
            .insert_route(vec![p(0.0, 0.0), p(10.0, 0.0)])
            .unwrap();
        let mut transitions = TransitionStore::default();
        transitions.insert(p(1.0, 1.0), p(9.0, 1.0)).unwrap();
        (routes, transitions)
    }

    #[test]
    fn open_empty_append_reopen_replays_the_tail() {
        let dir = temp_dir("tail");
        let (mut storage, recovery) = Storage::open(&dir, test_config()).unwrap();
        assert!(recovery.stores.is_none());
        assert!(recovery.tail.is_empty());
        assert!(!recovery.found_existing);
        storage.append(&[b"r1".to_vec(), b"r2".to_vec()]).unwrap();
        storage.append(&[b"r3".to_vec()]).unwrap();
        assert_eq!(storage.stats().wal_appends, 3);
        drop(storage);

        let (storage, recovery) = Storage::open(&dir, test_config()).unwrap();
        assert!(recovery.found_existing);
        assert!(recovery.stores.is_none());
        assert_eq!(
            recovery.tail,
            vec![b"r1".to_vec(), b"r2".to_vec(), b"r3".to_vec()]
        );
        assert_eq!(storage.stats().replayed_records, 3);
        assert_eq!(storage.stats().next_seq, 4);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_truncates_and_recovery_skips_covered_frames() {
        let dir = temp_dir("checkpoint");
        let (mut storage, _) = Storage::open(&dir, test_config()).unwrap();
        storage.append(&[b"a".to_vec(), b"b".to_vec()]).unwrap();
        let (routes, transitions) = small_stores();
        let stats = storage
            .checkpoint(routes.export_state(), transitions.export_state())
            .unwrap();
        assert_eq!(stats.snapshot_last_seq, 2);
        assert_eq!(stats.segments, 0);
        assert_eq!(stats.wal_bytes, 0);
        storage.append(&[b"c".to_vec()]).unwrap();
        drop(storage);

        let (storage, recovery) = Storage::open(&dir, test_config()).unwrap();
        let (r, t) = recovery.stores.expect("snapshot must load");
        assert_eq!(r.export_state(), routes.export_state());
        assert_eq!(t.export_state(), transitions.export_state());
        assert_eq!(recovery.tail, vec![b"c".to_vec()]);
        assert_eq!(storage.stats().snapshot_last_seq, 2);
        assert_eq!(storage.stats().next_seq, 4);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn interrupted_checkpoint_leaves_replay_idempotent() {
        // Simulate a crash *between* snapshot write and segment truncation:
        // the snapshot exists, the old segments still hold frames its
        // sequence already covers. Recovery must not replay them.
        let dir = temp_dir("interrupted");
        let (mut storage, _) = Storage::open(&dir, test_config()).unwrap();
        storage.append(&[b"a".to_vec(), b"b".to_vec()]).unwrap();
        let (routes, transitions) = small_stores();
        // Write the snapshot by hand, skipping the truncation step.
        let last_seq = storage.stats().next_seq - 1;
        snapshot::write_snapshot(
            &dir.join(snapshot_name(last_seq)),
            &routes,
            &transitions,
            last_seq,
        )
        .unwrap();
        drop(storage);

        let (_, recovery) = Storage::open(&dir, test_config()).unwrap();
        assert!(recovery.stores.is_some());
        assert!(recovery.tail.is_empty(), "covered frames must be skipped");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_only_snapshot_is_a_typed_error_not_an_empty_start() {
        let dir = temp_dir("corrupt-snap");
        let (mut storage, _) = Storage::open(&dir, test_config()).unwrap();
        let (routes, transitions) = small_stores();
        storage
            .checkpoint(routes.export_state(), transitions.export_state())
            .unwrap();
        drop(storage);
        // Damage the single snapshot.
        let snap = fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .find(|e| is_snapshot_name(&e.file_name().to_string_lossy()))
            .unwrap()
            .path();
        let mut bytes = fs::read(&snap).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        fs::write(&snap, &bytes).unwrap();
        let err = Storage::open(&dir, test_config()).unwrap_err();
        assert!(err.is_corruption(), "expected typed corruption, got {err}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn newest_corrupt_snapshot_falls_back_to_an_older_valid_one() {
        let dir = temp_dir("fallback");
        fs::create_dir_all(&dir).unwrap();
        let (routes, transitions) = small_stores();
        snapshot::write_snapshot(&dir.join(snapshot_name(5)), &routes, &transitions, 5).unwrap();
        // A newer snapshot that is garbage.
        fs::write(dir.join(snapshot_name(9)), b"not a snapshot").unwrap();
        let (storage, recovery) = Storage::open(&dir, test_config()).unwrap();
        let (r, _) = recovery.stores.expect("older snapshot must win");
        assert_eq!(r.export_state(), routes.export_state());
        assert_eq!(storage.stats().snapshot_last_seq, 5);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn appending_after_torn_tail_recovery_keeps_the_directory_openable() {
        // Regression: (a) recovery must physically truncate the torn bytes,
        // or the next append makes the torn segment non-final and every
        // later open fails as corruption; (b) new segments must be named by
        // their *first* frame's sequence, or the post-recovery append can
        // collide with an existing file name.
        let dir = temp_dir("torn-append");
        let (mut storage, _) = Storage::open(&dir, test_config()).unwrap();
        storage.append(&[b"a".to_vec(), b"b".to_vec()]).unwrap();
        drop(storage);
        let seg = wal::scan_dir(&dir).unwrap().segments[0].0.clone();
        let bytes = fs::read(&seg).unwrap();
        fs::write(&seg, &bytes[..bytes.len() - 2]).unwrap(); // tear frame 2

        let (mut storage, recovery) = Storage::open(&dir, test_config()).unwrap();
        assert!(recovery.torn_tail);
        assert_eq!(recovery.tail, vec![b"a".to_vec()]);
        storage.append(&[b"c".to_vec()]).unwrap(); // must not collide
        drop(storage);

        let (_, recovery) = Storage::open(&dir, test_config()).unwrap();
        assert!(!recovery.torn_tail, "the torn bytes were repaired on disk");
        assert_eq!(recovery.tail, vec![b"a".to_vec(), b"c".to_vec()]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fully_torn_segment_is_removed_and_the_log_continues() {
        // A segment whose only frame is torn truncates to zero valid bytes:
        // recovery deletes it outright so the next append (which reuses the
        // same starting sequence) can recreate the name.
        let dir = temp_dir("torn-empty");
        let (mut storage, _) = Storage::open(&dir, test_config()).unwrap();
        storage.append(&[b"solo".to_vec()]).unwrap();
        drop(storage);
        let seg = wal::scan_dir(&dir).unwrap().segments[0].0.clone();
        let bytes = fs::read(&seg).unwrap();
        fs::write(&seg, &bytes[..3]).unwrap(); // tear inside the only frame

        let (mut storage, recovery) = Storage::open(&dir, test_config()).unwrap();
        assert!(recovery.torn_tail);
        assert!(recovery.tail.is_empty());
        storage.append(&[b"replacement".to_vec()]).unwrap();
        drop(storage);
        let (_, recovery) = Storage::open(&dir, test_config()).unwrap();
        assert!(!recovery.torn_tail);
        assert_eq!(recovery.tail, vec![b"replacement".to_vec()]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_reported_and_prefix_survives() {
        let dir = temp_dir("torn-open");
        let (mut storage, _) = Storage::open(&dir, test_config()).unwrap();
        storage
            .append(&[b"keep".to_vec(), b"torn".to_vec()])
            .unwrap();
        drop(storage);
        let seg = wal::scan_dir(&dir).unwrap().segments[0].0.clone();
        let bytes = fs::read(&seg).unwrap();
        fs::write(&seg, &bytes[..bytes.len() - 2]).unwrap();
        let (storage, recovery) = Storage::open(&dir, test_config()).unwrap();
        assert!(recovery.torn_tail);
        assert_eq!(recovery.tail, vec![b"keep".to_vec()]);
        assert!(storage.stats().torn_tail);
        fs::remove_dir_all(&dir).unwrap();
    }
}
