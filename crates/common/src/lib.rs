//! # lr-common
//!
//! Shared foundation for the logical-recovery reproduction: identifier
//! newtypes ([`Lsn`], [`PageId`], [`TableId`], [`TxnId`]), the error type,
//! the simulated clock and disk-service model used to *time* recovery
//! ([`clock::SimClock`], [`iomodel`]), counters ([`stats`]) and the binary
//! codec helpers used by the write-ahead log and both wires ([`codec`]), and
//! the RPC stack both wire boundaries run on ([`rpc`]).
//!
//! Everything in the workspace is deterministic: time only advances when the
//! I/O model charges it, and randomness always flows from caller-provided
//! seeds. That is what makes the paper's side-by-side methodology (§5 of
//! Lomet/Tzoumas/Zwilling, VLDB 2011) reproducible here: two recovery methods
//! replayed against the same log observe exactly the same simulated disk.

pub mod clock;
pub mod codec;
pub mod crc;
pub mod error;
pub mod histogram;
pub mod iomodel;
pub mod latch;
pub mod rpc;
pub mod stats;
pub mod types;

pub use clock::SimClock;
pub use crc::crc32;
pub use error::{Error, Result};
pub use histogram::Histogram;
pub use iomodel::{IoModel, IoScheduler};
pub use latch::{Latch, LatchReadGuard, LatchWriteGuard};
pub use stats::{IoStats, RecoveryBreakdown};
pub use types::{shard_index, Key, Lsn, PageId, TableId, TxnId, Value};
