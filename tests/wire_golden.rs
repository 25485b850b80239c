//! Golden wire bytes: one sample of every message variant on both wires,
//! encoded and compared byte for byte against a pinned hex rendering.
//!
//! The TC↔DC samples carry the EOSL trailer (a nonzero watermark), so the
//! whole request frame body is pinned. Any change to a tag, a field order
//! or a field encoding shows up here as a diff — a protocol change has to
//! be made on purpose, never as a side effect of a codec refactor.

use lr_common::{Lsn, PageId, TableId, TxnId};
use lr_dc::api::{Located, PreloadStats, TableSummary};
use lr_dc::dc::{DcStats, PrepareInfo};
use lr_dc::recovery::SmoBarrierOutcome;
use lr_dc::wire::{WireDpt, WireIntent};
use lr_dc::{DcReply, DcRequest, WireError, WireTelemetry};
use lr_server::{ClientReply, ClientRequest};
use lr_wal::{LogPayload, LogRecord, SmoRecord};

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn rec() -> LogRecord {
    LogRecord {
        lsn: Lsn(0x99),
        payload: LogPayload::Insert {
            txn: TxnId(3),
            table: TableId(1),
            key: 42,
            pid: PageId(7),
            prev_lsn: Lsn(5),
            value: vec![1, 2, 3],
        },
    }
}

const EOSL: Lsn = Lsn(0x0102_0304_0506_0708);

fn dc_requests() -> Vec<DcRequest> {
    let smo = SmoRecord {
        pages: vec![(PageId(9), vec![0xAB; 4])],
        new_root: Some((TableId(1), PageId(9))),
    };
    vec![
        DcRequest::Read { table: TableId(1), key: 5 },
        DcRequest::ReadRange { table: TableId(1), from: 2, to: 100 },
        DcRequest::ScanAll { table: TableId(2) },
        DcRequest::PrepareOp {
            table: TableId(1),
            key: 5,
            intent: WireIntent::Insert { value_len: 16 },
        },
        DcRequest::ReleaseOp { token: 77 },
        DcRequest::PrepareWrite {
            table: TableId(1),
            key: 6,
            intent: WireIntent::Update { value_len: 8 },
        },
        DcRequest::Apply { token: 5, rec: rec() },
        DcRequest::ApplyAt { pid: PageId(7), rec: rec() },
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
        DcRequest::SmoRedo { window: vec![rec(), rec()] },
        DcRequest::ReplaySmoScreened {
            lsn: Lsn(700),
            smo,
            dpt: WireDpt(vec![(PageId(9), Lsn(100), Lsn(200))]),
        },
        DcRequest::ResolveRedoPid { table: TableId(1), key: 5, logged_pid: PageId(7) },
        DcRequest::LocateKey { table: TableId(1), key: 9 },
        DcRequest::PreloadIndex,
        DcRequest::FinishRedo,
        DcRequest::Stats,
        DcRequest::Introspect,
        DcRequest::PrepareOp { table: TableId(4), key: 1, intent: WireIntent::Delete },
    ]
}

fn dc_replies() -> Vec<DcReply> {
    let mut stats =
        DcStats { optimistic_point_reads: 9, log_read_cache_misses: 4, ..DcStats::default() };
    stats.read_restart_hist.record(2);
    stats.write_restart_hist.record(0);
    let telemetry = WireTelemetry::new();
    telemetry.record(1, 10, 20, 5, true);
    telemetry.record(7, 30, 1, 9, false);
    vec![
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
        DcReply::SmoReplayed { moved_root: None, outcome: SmoBarrierOutcome::default() },
        DcReply::LocatedAt(Located { pid: PageId(3), levels: 2, stall_us: 120 }),
        DcReply::Preload(PreloadStats { pages_loaded: 5, prefetch_ios: 1, prefetch_pages: 4 }),
        DcReply::Stats(Box::new(stats)),
        DcReply::WireTelemetry(telemetry.snapshot()),
        DcReply::Err(WireError::KeyNotFound { table: TableId(1), key: 42 }),
    ]
}

fn errors() -> Vec<WireError> {
    vec![
        WireError::PageOutOfRange { pid: PageId(9), pages: 100 },
        WireError::PageFull { pid: PageId(1), needed: 64, free: 10 },
        WireError::KeyNotFound { table: TableId(1), key: 5 },
        WireError::DuplicateKey { table: TableId(1), key: 6 },
        WireError::UnknownTable(TableId(7)),
        WireError::UnknownTxn(TxnId(3)),
        WireError::TxnNotActive(TxnId(4)),
        WireError::LockConflict { txn: TxnId(3), table: TableId(1), key: 5 },
        WireError::PoolExhausted { capacity: 256 },
        WireError::LogCorrupt { lsn: Lsn(10), reason: "torn".into() },
        WireError::WalViolation { pid: PageId(1), plsn: Lsn(100), elsn: Lsn(50) },
        WireError::TreeCorrupt("link".into()),
        WireError::RecoveryInvariant("oops".into()),
        WireError::Io("gone".into()),
        WireError::ServerBusy { active: 8, cap: 8 },
        WireError::UnknownToken(77),
    ]
}

fn client_requests() -> Vec<ClientRequest> {
    let t = TableId(3);
    vec![
        ClientRequest::Hello,
        ClientRequest::Begin,
        ClientRequest::Read { table: t, key: 7 },
        ClientRequest::ReadForUpdate { table: t, key: 8 },
        ClientRequest::Update { table: t, key: 9, value: b"v".to_vec() },
        ClientRequest::Insert { table: t, key: 10, value: vec![] },
        ClientRequest::Delete { table: t, key: 11 },
        ClientRequest::ScanRange { table: t, from: 1, to: 99 },
        ClientRequest::Commit,
        ClientRequest::Abort,
        ClientRequest::Savepoint,
        ClientRequest::RollbackTo { sp: Lsn(42) },
        ClientRequest::Ping,
        ClientRequest::Stats,
        ClientRequest::Metrics,
    ]
}

fn client_replies() -> Vec<ClientReply> {
    vec![
        ClientReply::Welcome { session_id: 5, max_sessions: 64 },
        ClientReply::Txn(TxnId(9)),
        ClientReply::Value(None),
        ClientReply::Value(Some(b"payload".to_vec())),
        ClientReply::Rows(vec![(1, b"a".to_vec()), (2, vec![])]),
        ClientReply::Unit,
        ClientReply::Undone { ops: 3 },
        ClientReply::SavepointAt(Lsn(77)),
        ClientReply::Pong,
        ClientReply::Text("server_requests 12\n".to_string()),
        ClientReply::Err(WireError::ServerBusy { active: 2, cap: 2 }),
    ]
}

/// Compare every sample's encoding with its pinned hex, reporting all
/// mismatches at once.
fn check(wire: &str, got: Vec<String>, want: &[&str]) {
    assert_eq!(got.len(), want.len(), "{wire}: sample count");
    let diffs: Vec<String> = got
        .iter()
        .zip(want)
        .enumerate()
        .filter(|(_, (g, w))| g != *w)
        .map(|(i, (g, w))| format!("{wire} sample {i}:\n  want {w}\n  got  {g}"))
        .collect();
    assert!(diffs.is_empty(), "{}", diffs.join("\n"));
}

#[test]
fn dc_request_bytes_are_pinned() {
    let got = dc_requests().iter().map(|r| hex(&r.encode_with(&EOSL))).collect();
    check("dc request", got, DC_REQUESTS);
}

#[test]
fn dc_reply_bytes_are_pinned() {
    let got = dc_replies().iter().map(|r| hex(&r.encode())).collect();
    check("dc reply", got, DC_REPLIES);
}

#[test]
fn wire_error_bytes_are_pinned() {
    let got = errors().into_iter().map(|w| hex(&DcReply::Err(w).encode())).collect();
    check("wire error", got, WIRE_ERRORS);
}

#[test]
fn client_request_bytes_are_pinned() {
    let got = client_requests().iter().map(|r| hex(&r.encode())).collect();
    check("client request", got, CLIENT_REQUESTS);
}

#[test]
fn client_reply_bytes_are_pinned() {
    let got = client_replies().iter().map(|r| hex(&r.encode())).collect();
    check("client reply", got, CLIENT_REPLIES);
}

#[test]
fn golden_samples_decode_back() {
    for r in dc_requests() {
        assert_eq!(DcRequest::decode_with(&r.encode_with(&EOSL)).unwrap(), (r, EOSL));
    }
    for r in dc_replies() {
        assert_eq!(DcReply::decode(&r.encode()).unwrap(), r);
    }
    for r in client_requests() {
        assert_eq!(ClientRequest::decode(&r.encode()).unwrap(), r);
    }
    for r in client_replies() {
        assert_eq!(ClientReply::decode(&r.encode()).unwrap(), r);
    }
}

const DC_REQUESTS: &[&str] = &[
    "010100000005000000000000000807060504030201",
    "0201000000020000000000000064000000000000000807060504030201",
    "03020000000807060504030201",
    "040100000005000000000000000010000000000000000807060504030201",
    "054d000000000000000807060504030201",
    "060100000006000000000000000108000000000000000807060504030201",
    "07050000000000000099000000000000002c000000050300000000000000010000002a0000000000000007000000000000000500000000000000030000000102030807060504030201",
    "08070000000000000099000000000000002c000000050300000000000000010000002a0000000000000007000000000000000500000000000000030000000102030807060504030201",
    "0a90010000000000000807060504030201",
    "0b0807060504030201",
    "0c0807060504030201",
    "0d0807060504030201",
    "0e0807060504030201",
    "0f0807060504030201",
    "100807060504030201",
    "110807060504030201",
    "120807060504030201",
    "240807060504030201",
    "090807060504030201",
    "13030000000807060504030201",
    "14030000000b000000000000000807060504030201",
    "15030000000807060504030201",
    "16030000000c000000000000000807060504030201",
    "1758020000000000000807060504030201",
    "180807060504030201",
    "19010000000807060504030201",
    "1a58000000000000000807060504030201",
    "1b010000000807060504030201",
    "1c0200000099000000000000002c000000050300000000000000010000002a00000000000000070000000000000005000000000000000300000001020399000000000000002c000000050300000000000000010000002a0000000000000007000000000000000500000000000000030000000102030807060504030201",
    "1dbc02000000000000220000000801000000090000000000000004000000abababab010100000009000000000000000100000009000000000000006400000000000000c8000000000000000807060504030201",
    "1e01000000050000000000000007000000000000000807060504030201",
    "1f0100000009000000000000000807060504030201",
    "200807060504030201",
    "210807060504030201",
    "220807060504030201",
    "230807060504030201",
    "04040000000100000000000000020807060504030201",
];
const DC_REPLIES: &[&str] = &[
    "01",
    "020103000000010203",
    "0200",
    "0302000000010000000000000001000000040200000000000000020000000506",
    "0401000000000000000700000000000000010100000009",
    "05080000000000000000",
    "0601",
    "071100000000000000",
    "080500000000000000",
    "09020000000100000002000000",
    "0a0400000000000000",
    "0b64000000000000000a00000000000000020000000000000003000000",
    "0c03000000000000000400000000000000",
    "0d012a000000000000000200000000000000010000000000000000000000000000000300000000000000",
    "0d000000000000000000000000000000000000000000000000000000000000000000",
    "0e0300000000000000020000007800000000000000",
    "0f050000000000000001000000000000000400000000000000",
    "1000000000000000000000000000000000000000000000000000000000000000000000000000000000090000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000004000000000000000101010000000000000001000000000000000200000000000000020000000000000001000100000000000000010000000000000000000000000000000000000000000000",
    "120200000001010000000000000000000000000000000a0000000000000014000000000000000102010000000000000001000000000000000500000000000000050000000000000007010000000000000001000000000000001e00000000000000010000000000000001030100000000000000010000000000000009000000000000000900000000000000",
    "1103010000002a00000000000000",
];
const WIRE_ERRORS: &[&str] = &[
    "110109000000000000006400000000000000",
    "1102010000000000000040000000000000000a00000000000000",
    "1103010000000500000000000000",
    "1104010000000600000000000000",
    "110507000000",
    "11060300000000000000",
    "11070400000000000000",
    "11080300000000000000010000000500000000000000",
    "11090001000000000000",
    "110a0a0000000000000004000000746f726e",
    "110b010000000000000064000000000000003200000000000000",
    "110c040000006c696e6b",
    "110d040000006f6f7073",
    "110e04000000676f6e65",
    "110f08000000000000000800000000000000",
    "11104d00000000000000",
];
const CLIENT_REQUESTS: &[&str] = &[
    "01",
    "02",
    "03030000000700000000000000",
    "04030000000800000000000000",
    "050300000009000000000000000100000076",
    "06030000000a0000000000000000000000",
    "07030000000b00000000000000",
    "080300000001000000000000006300000000000000",
    "09",
    "0a",
    "0b",
    "0c2a00000000000000",
    "0d",
    "0e",
    "0f",
];
const CLIENT_REPLIES: &[&str] = &[
    "0105000000000000004000000000000000",
    "020900000000000000",
    "0300",
    "0301070000007061796c6f6164",
    // Rows: a u32 row count, the shared field codec's sequence prefix.
    "040200000001000000000000000100000061020000000000000000000000",
    "05",
    "060300000000000000",
    "074d00000000000000",
    "08",
    "09130000007365727665725f72657175657374732031320a",
    "0a0f02000000000000000200000000000000",
];
