//! Storage-layer errors.

use std::fmt;
use std::io;

/// Everything that can go wrong beneath the disk model.
#[derive(Debug)]
pub enum StorageError {
    /// An OS-level I/O failure.
    Io(io::Error),
    /// A page or log frame failed its integrity checks. `detail` says which
    /// check (magic, checksum, length, identity) and where.
    Corrupt { detail: String },
    /// A log frame at byte `offset` failed its checks (`detail` says which)
    /// and an intact frame follows it: the damage is not a torn final
    /// append, so recovery stops rather than truncate acknowledged records.
    MidLogCorrupt { offset: u64, detail: String },
    /// A named blob is not in the store's directory.
    UnknownBlob { name: String },
    /// A relation blob failed to decode back into a `MultiRelation`.
    Codec { detail: String },
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::Io(e) => write!(f, "storage io: {e}"),
            StorageError::Corrupt { detail } => write!(f, "corrupt storage: {detail}"),
            StorageError::MidLogCorrupt { offset, detail } => write!(
                f,
                "corrupt log frame at byte {offset} with intact frames after it: {detail}"
            ),
            StorageError::UnknownBlob { name } => write!(f, "unknown blob: {name}"),
            StorageError::Codec { detail } => write!(f, "relation codec: {detail}"),
        }
    }
}

impl std::error::Error for StorageError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StorageError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for StorageError {
    fn from(e: io::Error) -> Self {
        StorageError::Io(e)
    }
}

/// Shorthand used across the crate.
pub type Result<T> = std::result::Result<T, StorageError>;
