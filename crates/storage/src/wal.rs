//! The append-only write-ahead log: length-prefixed, CRC-guarded frames in
//! rotating segment files.
//!
//! Frame layout (all integers little-endian):
//!
//! ```text
//! crc      u32   CRC-32 of (len || payload)
//! len      u32   payload bytes that follow
//! payload  len bytes: seq u64, then the opaque record
//! ```
//!
//! The checksum covers the length field too, so a damaged length can never
//! silently re-frame the stream. Records are opaque bytes — the service
//! layer owns the `StoreUpdate` codec — and every record carries a strictly
//! increasing sequence number, which is what lets recovery skip frames a
//! snapshot already covers (and what makes an interrupted checkpoint
//! harmless: replay is idempotent by sequence, not by file set).
//!
//! Segments are named `wal-<first-seq>.log` (zero-padded, so lexicographic
//! order is numeric order). A batch append writes all its frames with one
//! `write(2)` and, when fsync is enabled, one `fdatasync` — the
//! fsync-on-commit batching the issue calls for. After recovery the log
//! never appends to an old segment: a fresh segment starts at the current
//! sequence, which keeps torn tails confined to where a crash actually
//! happened.
//!
//! **Torn tail vs corruption.** A frame whose bytes are incomplete (the
//! file ends mid-header or mid-payload) is a *torn tail*: legitimate after
//! a crash mid-append, tolerated only in the final segment, reported via
//! [`WalScan::torn_tail`], and the partial frame is dropped — then
//! physically truncated away by `Storage::open` ([`WalScan::torn_at`]), so
//! the repaired segment never strands garbage mid-log once newer segments
//! follow it. A frame whose bytes are all present but whose checksum fails
//! is *corruption* and is always a typed error — as is any incomplete
//! frame in a non-final segment, which no single crash can produce.

use crate::error::StorageError;
use crate::StorageConfig;
use rknnt_data::codec::crc32;
use rknnt_fault::{Failpoints, FaultAction};
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Frame header bytes: crc (u32) + len (u32).
const FRAME_HEADER_BYTES: usize = 8;

/// Segment file name for a segment whose first frame is `first_seq`.
fn segment_name(first_seq: u64) -> String {
    format!("wal-{first_seq:020}.log")
}

/// Whether `name` looks like a WAL segment file.
pub(crate) fn is_segment_name(name: &str) -> bool {
    name.starts_with("wal-") && name.ends_with(".log")
}

/// Result of scanning every segment in a directory.
#[derive(Debug, Default)]
pub struct WalScan {
    /// Every intact frame, in order: `(seq, record bytes)`.
    pub frames: Vec<(u64, Vec<u8>)>,
    /// Whether the final segment ended in an incomplete frame (dropped).
    pub torn_tail: bool,
    /// When torn, the byte length of the final segment's valid prefix —
    /// what the file must be truncated to before any further append, or
    /// the torn bytes would end up mid-log and turn into hard corruption
    /// on the next scan.
    pub torn_at: Option<u64>,
    /// Segment files found, ascending, with their sizes.
    pub segments: Vec<(PathBuf, u64)>,
    /// Highest sequence number seen (0 when no frames).
    pub max_seq: u64,
}

/// Scans every `wal-*.log` segment under `dir`, validating frame checksums
/// and sequence monotonicity. See the module docs for the torn-tail rules.
pub fn scan_dir(dir: &Path) -> Result<WalScan, StorageError> {
    let mut names: Vec<String> = Vec::new();
    let entries = fs::read_dir(dir).map_err(|e| StorageError::io("list WAL dir", dir, e))?;
    for entry in entries {
        let entry = entry.map_err(|e| StorageError::io("list WAL dir", dir, e))?;
        let name = entry.file_name().to_string_lossy().into_owned();
        if is_segment_name(&name) {
            names.push(name);
        }
    }
    names.sort(); // zero-padded, so lexicographic == numeric
    let mut scan = WalScan::default();
    let last_index = names.len().saturating_sub(1);
    for (i, name) in names.iter().enumerate() {
        let path = dir.join(name);
        let bytes = fs::read(&path).map_err(|e| StorageError::io("read WAL segment", &path, e))?;
        scan.segments.push((path.clone(), bytes.len() as u64));
        let is_last = i == last_index;
        let mut offset = 0usize;
        while offset < bytes.len() {
            let remaining = bytes.len() - offset;
            // Incomplete header?
            if remaining < FRAME_HEADER_BYTES {
                if is_last {
                    scan.torn_tail = true;
                    scan.torn_at = Some(offset as u64);
                    break;
                }
                return Err(StorageError::corrupt(
                    &path,
                    Some(offset as u64),
                    "segment truncated mid-header before the final segment",
                ));
            }
            let stored_crc = u32::from_le_bytes(bytes[offset..offset + 4].try_into().expect("4"));
            let len =
                u32::from_le_bytes(bytes[offset + 4..offset + 8].try_into().expect("4")) as usize;
            // Incomplete payload?
            if remaining - FRAME_HEADER_BYTES < len {
                if is_last {
                    scan.torn_tail = true;
                    scan.torn_at = Some(offset as u64);
                    break;
                }
                return Err(StorageError::corrupt(
                    &path,
                    Some(offset as u64),
                    "segment truncated mid-frame before the final segment",
                ));
            }
            let guarded = &bytes[offset + 4..offset + FRAME_HEADER_BYTES + len];
            let computed = crc32(guarded);
            if computed != stored_crc {
                return Err(StorageError::ChecksumMismatch {
                    path: path.clone(),
                    offset: offset as u64,
                    stored: stored_crc,
                    computed,
                });
            }
            let payload = &bytes[offset + FRAME_HEADER_BYTES..offset + FRAME_HEADER_BYTES + len];
            if payload.len() < 8 {
                return Err(StorageError::corrupt(
                    &path,
                    Some(offset as u64),
                    format!(
                        "frame payload is {} bytes, too short for a sequence",
                        payload.len()
                    ),
                ));
            }
            let seq = u64::from_le_bytes(payload[..8].try_into().expect("8"));
            if seq <= scan.max_seq {
                return Err(StorageError::corrupt(
                    &path,
                    Some(offset as u64),
                    format!("sequence {seq} not above previous {}", scan.max_seq),
                ));
            }
            scan.max_seq = seq;
            scan.frames.push((seq, payload[8..].to_vec()));
            offset += FRAME_HEADER_BYTES + len;
        }
    }
    Ok(scan)
}

/// The write-ahead log: an active segment plus the closed segments a future
/// checkpoint will truncate.
#[derive(Debug)]
pub struct Wal {
    dir: PathBuf,
    config: StorageConfig,
    active: Option<fs::File>,
    active_path: Option<PathBuf>,
    active_bytes: u64,
    closed: Vec<PathBuf>,
    closed_bytes: u64,
    next_seq: u64,
    appends: u64,
    /// Set when a failed append could not be rolled back: the active
    /// segment may end in partial frame bytes, and writing anything after
    /// them would make the whole directory unrecoverable. Every further
    /// append fails loudly instead.
    poisoned: bool,
    /// Armed fault plan, consulted at the append sync points
    /// ([`WAL_WRITE_SITE`], [`WAL_FSYNC_SITE`], [`WAL_ROLLBACK_SITE`]).
    failpoints: Option<Arc<Failpoints>>,
}

/// Failpoint site hit before the batched `write(2)` of an append.
pub const WAL_WRITE_SITE: &str = "storage.wal.write";
/// Failpoint site hit before the `fdatasync` of an append (fsync on).
pub const WAL_FSYNC_SITE: &str = "storage.wal.fsync";
/// Failpoint site hit inside rollback — a `Fail` here forces the
/// could-not-roll-back path, poisoning the log.
pub const WAL_ROLLBACK_SITE: &str = "storage.wal.rollback";

impl Wal {
    /// Resumes a log in `dir`: `next_seq` is the first sequence number to
    /// assign and `existing` the segment files recovery scanned (they stay
    /// on disk until a checkpoint truncates them; appends go to a fresh
    /// segment).
    pub fn resume(
        dir: &Path,
        config: StorageConfig,
        next_seq: u64,
        existing: Vec<(PathBuf, u64)>,
    ) -> Self {
        let closed_bytes = existing.iter().map(|(_, b)| *b).sum();
        Wal {
            dir: dir.to_path_buf(),
            config,
            active: None,
            active_path: None,
            active_bytes: 0,
            closed: existing.into_iter().map(|(p, _)| p).collect(),
            closed_bytes,
            next_seq: next_seq.max(1),
            appends: 0,
            poisoned: false,
            failpoints: None,
        }
    }

    /// Arms a fault plan on this log's sync points. Only
    /// [`FaultAction::Fail`] is meaningful here; other actions are ignored.
    pub fn set_failpoints(&mut self, failpoints: Arc<Failpoints>) {
        self.failpoints = Some(failpoints);
    }

    /// Consults the armed plan at `site`, returning the injected failure
    /// message if a `Fail` rule fires.
    fn injected_failure(&self, site: &str) -> Option<String> {
        match self.failpoints.as_ref()?.hit(site) {
            Some(FaultAction::Fail { message }) => Some(message),
            _ => None,
        }
    }

    /// The next sequence number an append will consume.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Segment files currently on disk (closed plus active).
    pub fn segments(&self) -> usize {
        self.closed.len() + usize::from(self.active.is_some())
    }

    /// Total WAL bytes currently on disk.
    pub fn bytes(&self) -> u64 {
        self.closed_bytes + self.active_bytes
    }

    /// Frames appended through this handle (not counting recovered ones).
    pub fn appends(&self) -> u64 {
        self.appends
    }

    /// Opens the active segment if none is open, naming it after
    /// `first_seq` — the sequence of the first frame it will hold, which
    /// must be captured *before* frame building advances `next_seq`.
    fn open_active(&mut self, first_seq: u64) -> Result<(), StorageError> {
        if self.active.is_none() {
            let path = self.dir.join(segment_name(first_seq));
            let file = fs::OpenOptions::new()
                .create_new(true)
                .write(true)
                .open(&path)
                .map_err(|e| StorageError::io("create WAL segment", &path, e))?;
            crate::snapshot::sync_dir(&self.dir);
            self.active = Some(file);
            self.active_path = Some(path);
            self.active_bytes = 0;
        }
        Ok(())
    }

    /// Appends a batch of records as one write (and, when fsync is on, one
    /// `fdatasync` — commit batching). Returns `(frames, bytes)` appended.
    /// An empty batch is a no-op that touches no file.
    ///
    /// A failed write or fsync rolls the active segment back to its
    /// pre-batch length (and `next_seq` to its pre-batch value), so a
    /// retried or abandoned batch never leaves partial frame bytes for
    /// later frames to land behind. When even the rollback fails the log
    /// poisons itself: every further append errors rather than risk
    /// writing after garbage.
    pub fn append_batch<R: AsRef<[u8]>>(
        &mut self,
        records: &[R],
    ) -> Result<(u64, u64), StorageError> {
        if records.is_empty() {
            return Ok((0, 0));
        }
        if self.poisoned {
            let path = self.active_path.clone().unwrap_or_else(|| self.dir.clone());
            return Err(StorageError::io(
                "append to poisoned WAL (an earlier failed write could not be rolled back)",
                path,
                std::io::Error::other("WAL poisoned"),
            ));
        }
        let first_seq = self.next_seq;
        self.open_active(first_seq)?;
        let mut buf = Vec::new();
        for record in records {
            let record = record.as_ref();
            let len = (8 + record.len()) as u32;
            let mut guarded = Vec::with_capacity(4 + 8 + record.len());
            guarded.extend_from_slice(&len.to_le_bytes());
            guarded.extend_from_slice(&self.next_seq.to_le_bytes());
            guarded.extend_from_slice(record);
            buf.extend_from_slice(&crc32(&guarded).to_le_bytes());
            buf.extend_from_slice(&guarded);
            self.next_seq += 1;
        }
        let fsync = self.config.fsync;
        // Fault decisions land *before* the file borrow: an injected write
        // failure takes the same rollback path a real one would, and an
        // injected fsync failure fails the batch after the bytes hit the
        // page cache — the classic lost-durability crash signature.
        let fail_write = self.injected_failure(WAL_WRITE_SITE);
        let fail_fsync = if fsync {
            self.injected_failure(WAL_FSYNC_SITE)
        } else {
            None
        };
        let path = self
            .active_path
            .clone()
            .expect("active path set with active file");
        let file = self.active.as_mut().expect("active file just opened");
        let committed = match fail_write {
            Some(message) => Err(StorageError::io(
                "append WAL frames",
                &path,
                std::io::Error::other(message),
            )),
            None => file
                .write_all(&buf)
                .map_err(|e| StorageError::io("append WAL frames", &path, e)),
        }
        .and_then(|()| {
            if !fsync {
                return Ok(());
            }
            if let Some(message) = fail_fsync {
                return Err(StorageError::io(
                    "fsync WAL segment",
                    &path,
                    std::io::Error::other(message),
                ));
            }
            file.sync_data()
                .map_err(|e| StorageError::io("fsync WAL segment", &path, e))
        });
        if let Err(err) = committed {
            self.rollback_failed_append(first_seq);
            return Err(err);
        }
        self.active_bytes += buf.len() as u64;
        self.appends += records.len() as u64;
        if self.active_bytes >= self.config.segment_bytes {
            self.rotate()?;
        }
        Ok((records.len() as u64, buf.len() as u64))
    }

    /// Restores the active segment to its pre-batch state after a failed
    /// write: truncate back to the known-good length and reposition the
    /// cursor. On success `next_seq` rolls back too (the failed frames
    /// never existed); on failure the log is poisoned.
    fn rollback_failed_append(&mut self, first_seq: u64) {
        use std::io::Seek;
        if self.injected_failure(WAL_ROLLBACK_SITE).is_some() {
            self.poisoned = true;
            return;
        }
        let restored = (|| -> std::io::Result<()> {
            let file = self
                .active
                .as_mut()
                .ok_or_else(|| std::io::Error::other("no active segment"))?;
            file.set_len(self.active_bytes)?;
            file.seek(std::io::SeekFrom::Start(self.active_bytes))?;
            Ok(())
        })();
        match restored {
            Ok(()) => self.next_seq = first_seq,
            Err(_) => self.poisoned = true,
        }
    }

    /// Closes the active segment; the next append starts a new one.
    fn rotate(&mut self) -> Result<(), StorageError> {
        if let (Some(file), Some(path)) = (self.active.take(), self.active_path.take()) {
            file.sync_all()
                .map_err(|e| StorageError::io("fsync rotated segment", &path, e))?;
            self.closed.push(path);
            self.closed_bytes += self.active_bytes;
            self.active_bytes = 0;
        }
        Ok(())
    }

    /// Deletes every segment — called by checkpoint once a snapshot covers
    /// all appended frames. Sequence numbering continues; only the files
    /// go.
    pub fn truncate_all(&mut self) -> Result<(), StorageError> {
        self.rotate()?;
        for path in self.closed.drain(..) {
            match fs::remove_file(&path) {
                Ok(()) => {}
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
                Err(e) => return Err(StorageError::io("truncate WAL segment", &path, e)),
            }
        }
        self.closed_bytes = 0;
        crate::snapshot::sync_dir(&self.dir);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("rknnt-wal-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn no_fsync(segment_bytes: u64) -> StorageConfig {
        StorageConfig {
            segment_bytes,
            fsync: false,
        }
    }

    #[test]
    fn append_scan_roundtrip_with_rotation() {
        let dir = temp_dir("roundtrip");
        let mut wal = Wal::resume(&dir, no_fsync(64), 1, Vec::new());
        let records: Vec<Vec<u8>> = (0u8..10).map(|i| vec![i; 7]).collect();
        for chunk in records.chunks(3) {
            wal.append_batch(chunk).unwrap();
        }
        assert!(wal.segments() >= 2, "tiny segment size must rotate");
        assert_eq!(wal.appends(), 10);
        let scan = scan_dir(&dir).unwrap();
        assert!(!scan.torn_tail);
        assert_eq!(scan.max_seq, 10);
        assert_eq!(
            scan.frames
                .iter()
                .map(|(_, r)| r.clone())
                .collect::<Vec<_>>(),
            records
        );
        assert_eq!(
            scan.frames.iter().map(|(s, _)| *s).collect::<Vec<_>>(),
            (1..=10).collect::<Vec<u64>>()
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_batch_touches_nothing() {
        let dir = temp_dir("empty");
        let mut wal = Wal::resume(&dir, no_fsync(1024), 1, Vec::new());
        assert_eq!(wal.append_batch::<Vec<u8>>(&[]).unwrap(), (0, 0));
        assert_eq!(wal.segments(), 0);
        assert!(scan_dir(&dir).unwrap().frames.is_empty());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncated_final_frame_is_a_tolerated_torn_tail() {
        let dir = temp_dir("torn");
        let mut wal = Wal::resume(&dir, no_fsync(1 << 20), 1, Vec::new());
        wal.append_batch(&[b"alpha".to_vec(), b"beta".to_vec()])
            .unwrap();
        let seg = scan_dir(&dir).unwrap().segments[0].0.clone();
        let bytes = fs::read(&seg).unwrap();
        // Cut into the middle of the second frame.
        fs::write(&seg, &bytes[..bytes.len() - 3]).unwrap();
        let scan = scan_dir(&dir).unwrap();
        assert!(scan.torn_tail);
        assert_eq!(scan.frames.len(), 1);
        assert_eq!(scan.frames[0].1, b"alpha");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncation_before_the_final_segment_is_corruption() {
        let dir = temp_dir("midlog");
        let mut wal = Wal::resume(&dir, no_fsync(32), 1, Vec::new());
        for i in 0u8..6 {
            wal.append_batch(&[vec![i; 20]]).unwrap();
        }
        let scan = scan_dir(&dir).unwrap();
        assert!(scan.segments.len() >= 2);
        let first = scan.segments[0].0.clone();
        let bytes = fs::read(&first).unwrap();
        fs::write(&first, &bytes[..bytes.len() - 3]).unwrap();
        let err = scan_dir(&dir).unwrap_err();
        assert!(err.is_corruption(), "mid-log truncation must error: {err}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn flipped_bytes_fail_the_frame_checksum() {
        let dir = temp_dir("flip");
        let mut wal = Wal::resume(&dir, no_fsync(1 << 20), 1, Vec::new());
        wal.append_batch(&[b"payload-one".to_vec(), b"payload-two".to_vec()])
            .unwrap();
        let seg = scan_dir(&dir).unwrap().segments[0].0.clone();
        let pristine = fs::read(&seg).unwrap();
        // Flip a byte inside the *first* frame's payload: always corruption.
        let mut bytes = pristine.clone();
        bytes[FRAME_HEADER_BYTES + 8] ^= 0x40;
        fs::write(&seg, &bytes).unwrap();
        assert!(matches!(
            scan_dir(&dir).unwrap_err(),
            StorageError::ChecksumMismatch { .. }
        ));
        // Flip a byte in the first frame's length field: the checksum covers
        // the length too, so re-framing cannot slip through.
        let mut bytes = pristine;
        bytes[4] ^= 0x01;
        fs::write(&seg, &bytes).unwrap();
        let err = scan_dir(&dir).unwrap_err();
        assert!(err.is_corruption(), "length damage must be detected: {err}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn resume_appends_to_a_fresh_segment_and_truncate_clears_all() {
        let dir = temp_dir("resume");
        let mut wal = Wal::resume(&dir, no_fsync(1 << 20), 1, Vec::new());
        wal.append_batch(&[b"one".to_vec()]).unwrap();
        drop(wal);
        let scan = scan_dir(&dir).unwrap();
        let mut wal = Wal::resume(&dir, no_fsync(1 << 20), scan.max_seq + 1, scan.segments);
        wal.append_batch(&[b"two".to_vec()]).unwrap();
        assert_eq!(wal.segments(), 2, "resume must not reopen the old segment");
        let scan = scan_dir(&dir).unwrap();
        assert_eq!(scan.frames.len(), 2);
        assert_eq!(scan.frames[1], (2, b"two".to_vec()));
        wal.truncate_all().unwrap();
        assert_eq!(wal.segments(), 0);
        assert_eq!(wal.bytes(), 0);
        assert!(scan_dir(&dir).unwrap().frames.is_empty());
        // Sequence numbering continues after truncation.
        wal.append_batch(&[b"three".to_vec()]).unwrap();
        let scan = scan_dir(&dir).unwrap();
        assert_eq!(scan.frames, vec![(3, b"three".to_vec())]);
        fs::remove_dir_all(&dir).unwrap();
    }
}
