//! Error type for the integrated-machine simulator.

use std::fmt;

use systolic_core::CoreError;
use systolic_relation::RelationError;

/// Errors raised while planning or executing a transaction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MachineError {
    /// An operator failed (relational precondition or schedule violation).
    Core(CoreError),
    /// A named relation was not found on disk or in memory.
    UnknownRelation {
        /// The missing name.
        name: String,
    },
    /// No device in the configuration can execute the requested operation.
    NoDevice {
        /// The operation kind wanted.
        kind: String,
    },
    /// A memory module overflowed its capacity.
    MemoryOverflow {
        /// The module that overflowed.
        module: usize,
        /// Bytes requested.
        requested: u64,
        /// Bytes available.
        available: u64,
    },
    /// The machine has no memory modules / devices at all.
    EmptyConfiguration,
    /// The durable storage layer beneath a disk failed (I/O, corruption).
    /// Carries the rendered detail: the underlying error is not `Clone`.
    Storage {
        /// What went wrong.
        detail: String,
    },
}

impl fmt::Display for MachineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MachineError::Core(e) => write!(f, "{e}"),
            MachineError::UnknownRelation { name } => write!(f, "unknown relation {name:?}"),
            MachineError::NoDevice { kind } => {
                write!(f, "no systolic device can execute {kind}")
            }
            MachineError::MemoryOverflow {
                module,
                requested,
                available,
            } => write!(
                f,
                "memory module {module} overflow: need {requested} bytes, {available} free"
            ),
            MachineError::EmptyConfiguration => {
                write!(f, "machine has no memories or devices")
            }
            MachineError::Storage { detail } => write!(f, "storage layer: {detail}"),
        }
    }
}

impl std::error::Error for MachineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            MachineError::Core(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CoreError> for MachineError {
    fn from(e: CoreError) -> Self {
        MachineError::Core(e)
    }
}

impl From<RelationError> for MachineError {
    fn from(e: RelationError) -> Self {
        MachineError::Core(CoreError::Relation(e))
    }
}

/// Convenience alias.
pub type Result<T> = std::result::Result<T, MachineError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_and_conversions() {
        let e = MachineError::UnknownRelation { name: "emp".into() };
        assert!(e.to_string().contains("emp"));
        let e: MachineError = RelationError::DuplicateTuple.into();
        assert!(matches!(e, MachineError::Core(_)));
        let e = MachineError::MemoryOverflow {
            module: 2,
            requested: 10,
            available: 5,
        };
        assert!(e.to_string().contains("module 2"));
        let e = MachineError::NoDevice {
            kind: "join".into(),
        };
        assert!(e.to_string().contains("join"));
    }
}
