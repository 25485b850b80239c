//! Unified error type for the workspace.

use crate::types::{Key, Lsn, PageId, TableId, TxnId};
use std::fmt;

/// Workspace-wide result alias.
pub type Result<T> = std::result::Result<T, Error>;

/// Errors surfaced by the storage engine and recovery machinery.
///
/// The variants are deliberately specific: tests assert on them, and the
/// recovery code distinguishes "page genuinely absent" from "corrupt state"
/// (the latter must abort recovery rather than silently skip work).
#[derive(Debug)]
pub enum Error {
    /// A page id outside the disk's allocated range was requested.
    PageOutOfRange { pid: PageId, pages: u64 },
    /// A slotted-page operation did not fit in the remaining free space.
    PageFull { pid: PageId, needed: usize, free: usize },
    /// A key lookup failed where the caller required presence.
    KeyNotFound { table: TableId, key: Key },
    /// A key insert collided with an existing key.
    DuplicateKey { table: TableId, key: Key },
    /// Table id not present in the DC catalog.
    UnknownTable(TableId),
    /// Transaction id not present in the TC transaction table.
    UnknownTxn(TxnId),
    /// Operation submitted against a transaction that is no longer active.
    TxnNotActive(TxnId),
    /// Lock acquisition failed (conflict with another active transaction).
    LockConflict { txn: TxnId, table: TableId, key: Key },
    /// The buffer pool has no evictable frame (every frame pinned).
    PoolExhausted { capacity: usize },
    /// Log bytes failed structural validation while decoding.
    LogCorrupt { lsn: Lsn, reason: String },
    /// Write-ahead-log rule would be violated (page flush ahead of stable log).
    WalViolation { pid: PageId, plsn: Lsn, elsn: Lsn },
    /// B-tree structural verification failed.
    TreeCorrupt(String),
    /// Recovery-internal invariant violation.
    RecoveryInvariant(String),
    /// A server refused a new connection: the max-session admission cap
    /// is already occupied. Carries the occupancy so clients can report
    /// (and tests can assert) the exact admission state.
    ServerBusy { active: u64, cap: u64 },
    /// A message-boundary token names no parked guard on the DC: the
    /// prepared op it staged was already applied or released, or the
    /// token was never issued.
    UnknownToken(u64),
    /// Underlying file I/O failure (file-backed disk only).
    Io(std::io::Error),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::PageOutOfRange { pid, pages } => {
                write!(f, "page {pid} out of range (disk has {pages} pages)")
            }
            Error::PageFull { pid, needed, free } => {
                write!(f, "page {pid} full: need {needed} bytes, {free} free")
            }
            Error::KeyNotFound { table, key } => {
                write!(f, "key {key} not found in table {table:?}")
            }
            Error::DuplicateKey { table, key } => {
                write!(f, "duplicate key {key} in table {table:?}")
            }
            Error::UnknownTable(t) => write!(f, "unknown table {t:?}"),
            Error::UnknownTxn(t) => write!(f, "unknown transaction {t}"),
            Error::TxnNotActive(t) => write!(f, "transaction {t} is not active"),
            Error::LockConflict { txn, table, key } => {
                write!(f, "{txn} lock conflict on {table:?}/{key}")
            }
            Error::PoolExhausted { capacity } => {
                write!(f, "buffer pool exhausted ({capacity} frames, all pinned)")
            }
            Error::LogCorrupt { lsn, reason } => {
                write!(f, "log corrupt at LSN {lsn}: {reason}")
            }
            Error::WalViolation { pid, plsn, elsn } => {
                write!(f, "WAL violation: flushing page {pid} with pLSN {plsn} > eLSN {elsn}")
            }
            Error::TreeCorrupt(msg) => write!(f, "B-tree corrupt: {msg}"),
            Error::RecoveryInvariant(msg) => write!(f, "recovery invariant violated: {msg}"),
            Error::ServerBusy { active, cap } => {
                write!(f, "server busy: {active} of {cap} sessions in use")
            }
            Error::UnknownToken(t) => write!(f, "unknown or already-consumed DC token {t}"),
            Error::Io(e) => write!(f, "I/O error: {e}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for Error {
    fn from(e: std::io::Error) -> Self {
        Error::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = Error::WalViolation { pid: PageId(4), plsn: Lsn(100), elsn: Lsn(50) };
        let s = e.to_string();
        assert!(s.contains("WAL violation"));
        assert!(s.contains("100"));
        assert!(s.contains("50"));
    }

    #[test]
    fn io_error_source_chains() {
        let inner = std::io::Error::other("boom");
        let e: Error = inner.into();
        assert!(std::error::Error::source(&e).is_some());
        assert!(e.to_string().contains("boom"));
    }

    #[test]
    fn key_not_found_mentions_key() {
        let e = Error::KeyNotFound { table: TableId(1), key: 99 };
        assert!(e.to_string().contains("99"));
    }
}
