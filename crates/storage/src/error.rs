//! The typed error surface of the storage engine.

use std::fmt;
use std::path::PathBuf;

/// Everything that can go wrong opening, appending to or checkpointing a
/// storage directory. Corruption is always a *typed* error naming the file
/// and what failed — never a panic, never a silent fallback — with one
/// documented exception: an incomplete (torn) final WAL frame, which a crash
/// mid-append legitimately produces and recovery tolerates by dropping it.
#[derive(Debug)]
pub enum StorageError {
    /// An underlying filesystem operation failed.
    Io {
        /// What the engine was doing (e.g. "append WAL frame").
        context: String,
        /// The failing path.
        path: PathBuf,
        /// The OS error.
        source: std::io::Error,
    },
    /// A file's contents are structurally invalid: bad magic, impossible
    /// lengths, undecodable payload, out-of-range ids.
    Corrupt {
        /// The corrupted file.
        path: PathBuf,
        /// Byte offset of the corruption, when known.
        offset: Option<u64>,
        /// What was wrong.
        detail: String,
    },
    /// A checksum did not match: the payload was damaged after it was
    /// written (bit rot, partial overwrite, manual tampering).
    ChecksumMismatch {
        /// The damaged file.
        path: PathBuf,
        /// Byte offset of the guarded region.
        offset: u64,
        /// Checksum stored in the file.
        stored: u32,
        /// Checksum computed over the bytes actually present.
        computed: u32,
    },
    /// The file was written by an incompatible (newer) format version.
    UnsupportedVersion {
        /// The file.
        path: PathBuf,
        /// Version found in its header.
        version: u32,
    },
    /// `attach` requires a directory with no existing snapshot or WAL data;
    /// attaching over live state would silently shadow it. Recover the
    /// state with `open` instead — there is one directory format, so either
    /// service opens it whichever wrote it.
    DirectoryNotEmpty {
        /// The offending directory.
        dir: PathBuf,
    },
    /// A durability operation was requested on a service with no storage
    /// attached.
    NotAttached,
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::Io {
                context,
                path,
                source,
            } => write!(f, "{context} ({}): {source}", path.display()),
            StorageError::Corrupt {
                path,
                offset,
                detail,
            } => match offset {
                Some(at) => write!(f, "corrupt {} at byte {at}: {detail}", path.display()),
                None => write!(f, "corrupt {}: {detail}", path.display()),
            },
            StorageError::ChecksumMismatch {
                path,
                offset,
                stored,
                computed,
            } => write!(
                f,
                "checksum mismatch in {} at byte {offset}: stored {stored:#010x}, computed {computed:#010x}",
                path.display()
            ),
            StorageError::UnsupportedVersion { path, version } => write!(
                f,
                "{} uses unsupported format version {version}",
                path.display()
            ),
            StorageError::DirectoryNotEmpty { dir } => write!(
                f,
                "storage directory {} already holds snapshot/WAL data",
                dir.display()
            ),
            StorageError::NotAttached => write!(f, "no storage attached to this service"),
        }
    }
}

impl std::error::Error for StorageError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StorageError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl StorageError {
    /// Whether this error indicates damaged on-disk state (as opposed to an
    /// environmental I/O failure or API misuse).
    pub fn is_corruption(&self) -> bool {
        matches!(
            self,
            StorageError::Corrupt { .. }
                | StorageError::ChecksumMismatch { .. }
                | StorageError::UnsupportedVersion { .. }
        )
    }

    pub(crate) fn io(context: &str, path: impl Into<PathBuf>, source: std::io::Error) -> Self {
        StorageError::Io {
            context: context.to_string(),
            path: path.into(),
            source,
        }
    }

    pub(crate) fn corrupt(
        path: impl Into<PathBuf>,
        offset: Option<u64>,
        detail: impl Into<String>,
    ) -> Self {
        StorageError::Corrupt {
            path: path.into(),
            offset,
            detail: detail.into(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_file_and_classifies_corruption() {
        let err = StorageError::corrupt("/tmp/x.snap", Some(12), "bad magic");
        assert!(err.to_string().contains("x.snap"));
        assert!(err.to_string().contains("byte 12"));
        assert!(err.is_corruption());
        let err = StorageError::ChecksumMismatch {
            path: "/tmp/w.log".into(),
            offset: 0,
            stored: 1,
            computed: 2,
        };
        assert!(err.is_corruption());
        let err = StorageError::io(
            "read",
            "/tmp/gone",
            std::io::Error::new(std::io::ErrorKind::NotFound, "nope"),
        );
        assert!(!err.is_corruption());
        assert!(std::error::Error::source(&err).is_some());
        assert!(!StorageError::NotAttached.is_corruption());
    }
}
