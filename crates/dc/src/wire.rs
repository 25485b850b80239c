//! The TC↔DC wire protocol: every [`crate::DcApi`] operation as a
//! serializable request/reply pair.
//!
//! The paper's architecture (§2, Figure 1) allows the TC and DC to live in
//! separate processes or on separate machines — the contract is a *message*
//! protocol, not a shared-memory API. This module pins that down: a
//! [`DcRequest`] names one logical operation and its arguments, a
//! [`DcReply`] carries the result (or a [`WireError`] mirroring
//! [`lr_common::Error`]). Each enum is one [`lr_common::wire_enum!`]
//! table, which generates its tags, names and codec; both travel on the
//! shared RPC stack ([`lr_common::rpc`]).
//!
//! Two trait methods need reshaping for message passing, because their
//! local signatures hand out borrow-carrying guards:
//!
//! * [`crate::DcApi::prepare_op`] returns a [`crate::PreparedOp`] whose
//!   guard pins latches until apply. Over the wire the *server* parks that
//!   guard in a token map and replies
//!   [`DcReply::Prepared`]`{token, pid, before}`. The client's
//!   [`DcRequest::Apply`]`{token, rec}` applies under the parked guard and
//!   frees it in the same exchange; only a prepared op dropped without
//!   being applied sends [`DcRequest::ReleaseOp`]`{token}`.
//! * [`crate::DcApi::lock_table_exclusive`] likewise becomes
//!   [`DcReply::TableLocked`]`{token}` + [`DcRequest::ReleaseTable`].
//!
//! Both releases are idempotent (releasing an unknown token is a no-op), so
//! a client retrying over a flaky transport can never wedge the server. An
//! `Apply` naming an unknown token is an error instead
//! ([`WireError::UnknownToken`]): applying without the latches the prepare
//! took would be unsound.
//!
//! One trait method has no message of its own: [`crate::DcApi::eosl`].
//! Every request carries the client's EOSL watermark as its trailer, the
//! last 8 bytes of the body ([`DcRequest::encode_with`]), and the server
//! publishes it to the backend before dispatching the request. EOSL is
//! monotone and only gates flushing, and every flush the DC performs
//! (eviction, cleaner pass, RSSP) runs inside some request — which already
//! carries the latest watermark. So the write-ahead gate holds without an
//! EOSL round trip.

use crate::api::{Located, PreloadStats, TableSummary};
use crate::dc::{DcStats, PrepareInfo, WriteIntent};
use crate::dpt::Dpt;
use crate::recovery::SmoBarrierOutcome;
use crate::telemetry::WireTelemetrySnapshot;
use lr_common::codec::{CodecError, Decoder, Encoder, Field};
use lr_common::rpc::Reply;
use lr_common::{wire_enum, wire_struct, Key, Lsn, PageId, TableId, Value};
use lr_wal::{LogRecord, SmoRecord};

pub use lr_common::rpc::WireError;

wire_enum! {
    /// One logical operation crossing the TC→DC boundary, followed on the
    /// wire by the client's EOSL watermark. Variants map 1:1 onto
    /// [`crate::DcApi`] methods except for the two token-based reshapes
    /// described in the module docs ([`DcRequest::ReleaseOp`] /
    /// [`DcRequest::ReleaseTable`]) and [`DcRequest::Stats`], which carries
    /// the [`crate::DcIntrospect::stats`] snapshot for deployments where the
    /// DC's counters live on the far side.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub enum DcRequest + Lsn as "dc request" {
        1 read Read { table: TableId, key: Key },
        2 read_range ReadRange { table: TableId, from: Key, to: Key },
        3 scan_all ScanAll { table: TableId },
        4 prepare_op PrepareOp { table: TableId, key: Key, intent: WireIntent },
        /// Drop the server-held guard of a parked [`DcReply::Prepared`]
        /// that will never be applied.
        5 release_op ReleaseOp { token: u64 },
        6 prepare_write PrepareWrite { table: TableId, key: Key, intent: WireIntent },
        /// Apply `rec` under the guard parked as `token`, then drop that
        /// guard. Token 0 names no guard: an unguarded apply, for callers
        /// that staged through `PrepareWrite`.
        7 apply Apply { token: u64, rec: LogRecord },
        8 apply_at ApplyAt { pid: PageId, rec: LogRecord },
        9 over_garbage_watermark OverGarbageWatermark,
        10 rssp Rssp { rssp_lsn: Lsn },
        11 drain_in_flight_ops DrainInFlightOps,
        12 crash Crash,
        13 reload_catalog ReloadCatalog,
        14 pump_events PumpEvents,
        15 force_emit ForceEmit,
        16 discard_events DiscardEvents,
        17 cleaner_pass CleanerPass,
        18 over_dirty_watermark OverDirtyWatermark,
        19 create_table CreateTable { table: TableId },
        20 register_table RegisterTable { table: TableId, root: PageId },
        21 table_root TableRoot { table: TableId },
        22 set_root SetRoot { table: TableId, root: PageId },
        23 save_catalog SaveCatalog { lsn: Lsn },
        24 tables Tables,
        25 lock_table_exclusive LockTableExclusive { table: TableId },
        /// Drop the server-held latch of a parked [`DcReply::TableLocked`].
        26 release_table ReleaseTable { token: u64 },
        27 verify_table VerifyTable { table: TableId },
        28 smo_redo SmoRedo { window: Vec<LogRecord> },
        29 replay_smo_screened ReplaySmoScreened { lsn: Lsn, smo: SmoRecord, dpt: WireDpt },
        30 resolve_redo_pid ResolveRedoPid { table: TableId, key: Key, logged_pid: PageId },
        31 locate_key LocateKey { table: TableId, key: Key },
        32 preload_index PreloadIndex,
        33 finish_redo FinishRedo,
        34 stats Stats,
        /// Pull the server's [`WireTelemetrySnapshot`] — its per-op view
        /// of this conversation — across the boundary.
        35 introspect Introspect,
        36 compact_pass CompactPass,
    }
}

/// The highest assigned request tag — sizes per-op telemetry tables.
pub const MAX_REQ_TAG: u8 = DcRequest::MAX_TAG;

/// Human-readable name of a request tag, for telemetry rows and trace
/// events. Unknown tags render as `"unknown"`.
pub fn op_name(tag: u8) -> &'static str {
    DcRequest::name_of(tag)
}

wire_enum! {
    /// [`WriteIntent`] with a fixed-width length (the in-memory type uses
    /// `usize`, which has no portable wire width).
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub enum WireIntent as "write intent" {
        0 insert Insert { value_len: u64 },
        1 update Update { value_len: u64 },
        2 delete Delete,
    }
}

impl From<WriteIntent> for WireIntent {
    fn from(i: WriteIntent) -> WireIntent {
        match i {
            WriteIntent::Insert { value_len } => WireIntent::Insert { value_len: value_len as u64 },
            WriteIntent::Update { value_len } => WireIntent::Update { value_len: value_len as u64 },
            WriteIntent::Delete => WireIntent::Delete,
        }
    }
}

impl From<WireIntent> for WriteIntent {
    fn from(i: WireIntent) -> WriteIntent {
        match i {
            WireIntent::Insert { value_len } => {
                WriteIntent::Insert { value_len: value_len as usize }
            }
            WireIntent::Update { value_len } => {
                WriteIntent::Update { value_len: value_len as usize }
            }
            WireIntent::Delete => WriteIntent::Delete,
        }
    }
}

/// A [`Dpt`] flattened for transit: `(pid, rLSN, lastLSN)` triples in PID
/// order. Reconstruction exploits [`Dpt::add`]'s sticky-rLSN rule — the
/// first add pins rLSN, the second only advances lastLSN.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct WireDpt(pub Vec<(PageId, Lsn, Lsn)>);

impl From<&Dpt> for WireDpt {
    fn from(dpt: &Dpt) -> WireDpt {
        WireDpt(dpt.sorted_entries().iter().map(|(p, e)| (*p, e.rlsn, e.last_lsn)).collect())
    }
}

impl From<&WireDpt> for Dpt {
    fn from(w: &WireDpt) -> Dpt {
        let mut dpt = Dpt::new();
        for (pid, rlsn, last_lsn) in &w.0 {
            dpt.add(*pid, *rlsn);
            dpt.add(*pid, *last_lsn);
        }
        dpt
    }
}

impl Field for WireDpt {
    fn put(&self, e: &mut Encoder) {
        self.0.put(e);
    }

    fn get(d: &mut Decoder<'_>) -> Result<WireDpt, CodecError> {
        Ok(WireDpt(Field::get(d)?))
    }
}

wire_struct!(TableSummary { records, leaf_pages, internal_pages, height });
wire_struct!(PrepareInfo { pid, before });
wire_struct!(Located { pid, levels, stall_us });
wire_struct!(PreloadStats { pages_loaded, prefetch_ios, prefetch_pages });
wire_struct!(SmoBarrierOutcome { pages_applied, skipped_no_dpt_entry, skipped_rlsn, skipped_plsn });

wire_enum! {
    /// The result of one [`DcRequest`]. Exactly one reply variant is valid
    /// per request variant; a proxy receiving any other shape treats the
    /// exchange as a protocol violation.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub enum DcReply as "dc reply" {
        1 unit Unit,
        2 value Value(value: Option<Value>),
        3 rows Rows(rows: Vec<(Key, Value)>),
        /// A prepared write parked server-side: apply with
        /// [`DcRequest::Apply`]`{token, ..}` once logged (which frees it),
        /// or release with [`DcRequest::ReleaseOp`]`{token}` to abandon it.
        4 prepared Prepared { token: u64, pid: PageId, before: Option<Value> },
        /// Latch-free placement info.
        5 info Info(info: PrepareInfo),
        6 flag Flag(flag: bool),
        7 count Count(count: u64),
        8 pid Pid(pid: PageId),
        9 table_ids TableIds(tables: Vec<TableId>),
        /// An exclusive table latch parked server-side: release with
        /// [`DcRequest::ReleaseTable`]`{token}`.
        10 table_locked TableLocked { token: u64 },
        11 summary Summary(summary: TableSummary),
        12 pair Pair(a: u64, b: u64),
        13 smo_replayed SmoReplayed { moved_root: Option<Lsn>, outcome: SmoBarrierOutcome },
        14 located LocatedAt(located: Located),
        15 preload Preload(stats: PreloadStats),
        // Boxed: a DcStats snapshot (two inline histograms) dwarfs every
        // other reply shape, and stats crossings are cold-path.
        16 stats Stats(stats: Box<DcStats>),
        17 err Err(error: WireError),
        /// The server's per-op wire accumulators ([`DcRequest::Introspect`]).
        18 wire_telemetry WireTelemetry(snapshot: WireTelemetrySnapshot),
    }
}

impl Reply for DcReply {
    fn from_error(e: WireError) -> DcReply {
        DcReply::Err(e)
    }

    fn error(&self) -> Option<&WireError> {
        match self {
            DcReply::Err(e) => Some(e),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lr_common::{Error, TxnId};
    use lr_wal::LogPayload;

    fn roundtrip_req(req: DcRequest) {
        let bytes = req.encode();
        assert_eq!(DcRequest::decode(&bytes).unwrap(), req);
        let bytes = req.encode_with(&Lsn(4242));
        assert_eq!(DcRequest::decode_with(&bytes).unwrap(), (req, Lsn(4242)));
    }

    fn roundtrip_rep(rep: DcReply) {
        let bytes = rep.encode();
        assert_eq!(DcReply::decode(&bytes).unwrap(), rep);
    }

    #[test]
    fn every_request_variant_roundtrips() {
        let rec = LogRecord {
            lsn: Lsn(99),
            payload: LogPayload::Insert {
                txn: TxnId(3),
                table: TableId(1),
                key: 42,
                pid: PageId(7),
                prev_lsn: Lsn::NULL,
                value: vec![1, 2, 3],
            },
        };
        let smo = SmoRecord {
            pages: vec![(PageId(9), vec![0xAB; 32])],
            new_root: Some((TableId(1), PageId(9))),
        };
        for req in [
            DcRequest::Read { table: TableId(1), key: 5 },
            DcRequest::ReadRange { table: TableId(1), from: 0, to: 100 },
            DcRequest::ScanAll { table: TableId(2) },
            DcRequest::PrepareOp {
                table: TableId(1),
                key: 5,
                intent: WireIntent::Insert { value_len: 16 },
            },
            DcRequest::ReleaseOp { token: 77 },
            DcRequest::PrepareWrite {
                table: TableId(1),
                key: 5,
                intent: WireIntent::Update { value_len: 8 },
            },
            DcRequest::Apply { token: 5, rec: rec.clone() },
            DcRequest::ApplyAt { pid: PageId(7), rec: rec.clone() },
            DcRequest::Rssp { rssp_lsn: Lsn(400) },
            DcRequest::DrainInFlightOps,
            DcRequest::Crash,
            DcRequest::ReloadCatalog,
            DcRequest::PumpEvents,
            DcRequest::ForceEmit,
            DcRequest::DiscardEvents,
            DcRequest::CleanerPass,
            DcRequest::OverDirtyWatermark,
            DcRequest::CompactPass,
            DcRequest::OverGarbageWatermark,
            DcRequest::CreateTable { table: TableId(3) },
            DcRequest::RegisterTable { table: TableId(3), root: PageId(11) },
            DcRequest::TableRoot { table: TableId(3) },
            DcRequest::SetRoot { table: TableId(3), root: PageId(12) },
            DcRequest::SaveCatalog { lsn: Lsn(600) },
            DcRequest::Tables,
            DcRequest::LockTableExclusive { table: TableId(1) },
            DcRequest::ReleaseTable { token: 88 },
            DcRequest::VerifyTable { table: TableId(1) },
            DcRequest::SmoRedo { window: vec![rec.clone()] },
            DcRequest::ReplaySmoScreened {
                lsn: Lsn(700),
                smo: smo.clone(),
                dpt: WireDpt(vec![(PageId(9), Lsn(100), Lsn(200))]),
            },
            DcRequest::ResolveRedoPid { table: TableId(1), key: 5, logged_pid: PageId(7) },
            DcRequest::LocateKey { table: TableId(1), key: 5 },
            DcRequest::PreloadIndex,
            DcRequest::FinishRedo,
            DcRequest::Stats,
            DcRequest::Introspect,
        ] {
            roundtrip_req(req);
        }
    }

    #[test]
    fn every_request_tag_has_a_name() {
        for tag in 1..=MAX_REQ_TAG {
            assert_ne!(op_name(tag), "unknown", "tag {tag} has no op name");
        }
        assert_eq!(op_name(0), "unknown");
        assert_eq!(op_name(MAX_REQ_TAG + 1), "unknown");
    }

    #[test]
    fn tag_matches_encoded_first_byte() {
        for req in [DcRequest::Read { table: TableId(1), key: 5 }, DcRequest::Introspect] {
            assert_eq!(req.encode()[0], req.tag());
        }
    }

    #[test]
    fn every_reply_variant_roundtrips() {
        let mut stats = DcStats { optimistic_point_reads: 9, ..DcStats::default() };
        stats.read_restart_hist.record_n(2, 5);
        for rep in [
            DcReply::Unit,
            DcReply::Value(Some(vec![1, 2, 3])),
            DcReply::Value(None),
            DcReply::Rows(vec![(1, vec![4]), (2, vec![5, 6])]),
            DcReply::Prepared { token: 1, pid: PageId(7), before: Some(vec![9]) },
            DcReply::Info(PrepareInfo { pid: PageId(8), before: None }),
            DcReply::Flag(true),
            DcReply::Count(17),
            DcReply::Pid(PageId(5)),
            DcReply::TableIds(vec![TableId(1), TableId(2)]),
            DcReply::TableLocked { token: 4 },
            DcReply::Summary(TableSummary {
                records: 100,
                leaf_pages: 10,
                internal_pages: 2,
                height: 3,
            }),
            DcReply::Pair(3, 4),
            DcReply::SmoReplayed {
                moved_root: Some(Lsn(42)),
                outcome: SmoBarrierOutcome {
                    pages_applied: 2,
                    skipped_no_dpt_entry: 1,
                    skipped_rlsn: 0,
                    skipped_plsn: 3,
                },
            },
            DcReply::LocatedAt(Located { pid: PageId(3), levels: 2, stall_us: 120 }),
            DcReply::Preload(PreloadStats { pages_loaded: 5, prefetch_ios: 1, prefetch_pages: 4 }),
            DcReply::Stats(Box::new(stats)),
            DcReply::WireTelemetry({
                let t = crate::telemetry::WireTelemetry::new();
                t.record(DcRequest::Read { table: TableId(1), key: 0 }.tag(), 10, 20, 5, true);
                t.snapshot()
            }),
            DcReply::Err(WireError::KeyNotFound { table: TableId(1), key: 42 }),
        ] {
            roundtrip_rep(rep);
        }
    }

    #[test]
    fn every_error_variant_survives_the_wire() {
        let errors = vec![
            Error::PageOutOfRange { pid: PageId(9), pages: 100 },
            Error::PageFull { pid: PageId(1), needed: 64, free: 10 },
            Error::KeyNotFound { table: TableId(1), key: 5 },
            Error::DuplicateKey { table: TableId(1), key: 5 },
            Error::UnknownTable(TableId(7)),
            Error::UnknownTxn(TxnId(3)),
            Error::TxnNotActive(TxnId(3)),
            Error::LockConflict { txn: TxnId(3), table: TableId(1), key: 5 },
            Error::PoolExhausted { capacity: 256 },
            Error::LogCorrupt { lsn: Lsn(10), reason: "torn tail".into() },
            Error::WalViolation { pid: PageId(1), plsn: Lsn(100), elsn: Lsn(50) },
            Error::TreeCorrupt("bad link".into()),
            Error::RecoveryInvariant("oops".into()),
            Error::ServerBusy { active: 8, cap: 8 },
            Error::UnknownToken(77),
            Error::Io(std::io::Error::other("disk gone")),
        ];
        for err in errors {
            let display = err.to_string();
            let wire = WireError::from(&err);
            let bytes = DcReply::Err(wire.clone()).encode();
            let back = match DcReply::decode(&bytes).unwrap() {
                DcReply::Err(w) => w,
                other => panic!("expected Err reply, got {other:?}"),
            };
            assert_eq!(back, wire);
            let rebuilt: Error = back.into();
            // Io is string-lossy; everything else reconstructs the exact
            // variant, so Display output matches end to end.
            if matches!(err, Error::Io(_)) {
                assert!(rebuilt.to_string().contains("disk gone"));
            } else {
                assert_eq!(rebuilt.to_string(), display);
            }
        }
    }

    #[test]
    fn dpt_survives_the_flatten_rebuild_cycle() {
        let mut dpt = Dpt::new();
        dpt.add(PageId(1), Lsn(100));
        dpt.add(PageId(1), Lsn(300)); // lastLSN advances, rLSN sticky
        dpt.add(PageId(2), Lsn(150));
        let wire = WireDpt::from(&dpt);
        let back: Dpt = (&wire).into();
        assert_eq!(back.sorted_entries(), dpt.sorted_entries());
    }

    #[test]
    fn corrupt_tag_is_rejected() {
        assert!(matches!(DcRequest::decode(&[0xFF]), Err(CodecError::BadTag { .. })));
        assert!(matches!(DcReply::decode(&[0xFF]), Err(CodecError::BadTag { .. })));
        // Trailing garbage after a well-formed message is rejected too.
        let mut bytes = DcRequest::Tables.encode();
        bytes.push(0);
        assert!(matches!(DcRequest::decode(&bytes), Err(CodecError::Truncated { .. })));
    }
}
