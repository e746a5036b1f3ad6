//! Error types for the durable store.

use std::fmt;

use mera_core::prelude::CoreError;
use mera_lang::LangError;
use mera_txn::{DdlError, Diagnostic};

/// Errors raised by the durability layer.
///
/// The variants separate three very different situations a storage engine
/// must keep apart: *environmental* failures (I/O errors, the injected
/// [`Crashed`](StoreError::Crashed) fault), *data* failures (corrupt WAL or
/// snapshot bytes that passed the length check but not the semantic one),
/// and *logic* failures surfaced by the layers below (an ill-typed
/// snapshot relation).
#[derive(Debug, Clone, PartialEq)]
pub enum StoreError {
    /// An operating-system I/O failure (rendered, to stay comparable).
    Io(String),
    /// The fault-injecting storage backend simulated a crash; every
    /// operation on the "dead" store fails with this until it is reopened.
    Crashed,
    /// The write-ahead log is structurally unreadable: bad magic, an
    /// unknown record version, or an intact (CRC-verified) record whose
    /// payload does not decode. Torn tails are *not* errors — recovery
    /// truncates them — so this variant always means real corruption or a
    /// format change without a version bump.
    CorruptWal(String),
    /// The snapshot file is unreadable: bad magic, unknown version, CRC
    /// mismatch, or an undecodable body.
    CorruptSnapshot(String),
    /// The WAL holds a program-text commit past the snapshot, as earlier
    /// builds logged them. Migrate by checkpointing with such a build.
    TextCommitRecord {
        /// Logical time of the first such record.
        time: u64,
    },
    /// A transaction submitted through the durable API aborted (the
    /// database is unchanged; nothing was written).
    TransactionAborted(String),
    /// A schema change was refused with diagnostics (a view definition's
    /// `E0301`/`E0303`, a key's `E0401`–`E0403`), and nothing was written.
    Refused(Vec<Diagnostic>),
    /// An error from the core data model (schema mismatches, etc.).
    Core(CoreError),
    /// A parse or lowering error from the textual front-ends.
    Lang(LangError),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(msg) => write!(f, "storage I/O error: {msg}"),
            StoreError::Crashed => write!(f, "storage crashed (injected fault)"),
            StoreError::CorruptWal(msg) => write!(f, "corrupt write-ahead log: {msg}"),
            StoreError::CorruptSnapshot(msg) => write!(f, "corrupt snapshot: {msg}"),
            StoreError::TextCommitRecord { time } => write!(
                f,
                "the write-ahead log holds a program-text commit at t={time}, which this \
                 build does not replay: checkpoint the store with the previous build first"
            ),
            StoreError::TransactionAborted(reason) => {
                write!(f, "transaction aborted: {reason}")
            }
            StoreError::Refused(diags) => match diags.iter().find(|d| d.is_error()) {
                Some(d) => write!(f, "{d}"),
                None => write!(f, "schema change refused"),
            },
            StoreError::Core(e) => write!(f, "{e}"),
            StoreError::Lang(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<CoreError> for StoreError {
    fn from(e: CoreError) -> Self {
        StoreError::Core(e)
    }
}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e.to_string())
    }
}

impl From<LangError> for StoreError {
    fn from(e: LangError) -> Self {
        StoreError::Lang(e)
    }
}

impl From<DdlError> for StoreError {
    fn from(e: DdlError) -> Self {
        match e {
            DdlError::Rejected(diags) => StoreError::Refused(diags),
            DdlError::Error(e) => StoreError::Core(e),
        }
    }
}

/// Result alias for the durable store.
pub type StoreResult<T> = Result<T, StoreError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        assert!(StoreError::Crashed.to_string().contains("injected fault"));
        let e = StoreError::TextCommitRecord { time: 7 };
        assert!(e.to_string().contains("t=7"));
        assert!(e.to_string().contains("checkpoint"));
        let e: StoreError = CoreError::DivisionByZero.into();
        assert_eq!(e.to_string(), "division by zero");
    }
}
