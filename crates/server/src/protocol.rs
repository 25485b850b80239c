//! The client-facing wire protocol.
//!
//! Same RPC stack as the TC↔DC wire ([`lr_common::rpc`]: CRC frames
//! around an 8-byte request-id envelope, messages declared as
//! [`lr_common::wire_enum!`] tables over the shared field codec), but a
//! different vocabulary: where [`lr_dc::wire`] speaks page-level DC
//! operations, this protocol speaks the [`lr_core::Session`] surface —
//! transactions, reads, writes, savepoints, and server introspection.
//! Errors reuse [`WireError`] wholesale, so a client sees the *same* typed
//! errors a local session sees, plus [`WireError::ServerBusy`] from
//! admission control.

use lr_common::rpc::{Reply, WireError};
use lr_common::{wire_enum, Key, Lsn, TableId, TxnId, Value};

wire_enum! {
    /// One client request: the full [`lr_core::Session`] surface plus
    /// handshake, liveness, and introspection.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub enum ClientRequest as "client request" {
        /// Handshake: first request on every connection. The server
        /// answers [`ClientReply::Welcome`] — or an unsolicited
        /// [`WireError::ServerBusy`] under request id 0 if admission
        /// control refused the connection before reading anything.
        1 hello Hello,
        2 begin Begin,
        3 read Read { table: TableId, key: Key },
        4 read_for_update ReadForUpdate { table: TableId, key: Key },
        5 update Update { table: TableId, key: Key, value: Value },
        6 insert Insert { table: TableId, key: Key, value: Value },
        7 delete Delete { table: TableId, key: Key },
        8 scan_range ScanRange { table: TableId, from: Key, to: Key },
        9 commit Commit,
        10 abort Abort,
        11 savepoint Savepoint,
        12 rollback_to RollbackTo { sp: Lsn },
        13 ping Ping,
        /// Engine + server metrics as JSON lines.
        14 stats Stats,
        /// Engine + server metrics in Prometheus exposition format.
        15 metrics Metrics,
    }
}

wire_enum! {
    /// One server reply. The shape is fixed per request kind; a mismatch
    /// is a protocol error the client surfaces as `RecoveryInvariant`.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub enum ClientReply as "client reply" {
        /// Handshake accepted: the connection's session id and the
        /// server's admission cap.
        1 welcome Welcome { session_id: u64, max_sessions: u64 },
        /// `Begin` succeeded.
        2 txn Txn(txn: TxnId),
        /// Point-read result.
        3 value Value(value: Option<Value>),
        /// Range-scan result.
        4 rows Rows(rows: Vec<(Key, Value)>),
        /// Success with nothing to report (writes, commit).
        5 unit Unit,
        /// `Abort` / `RollbackTo` succeeded, undoing this many operations.
        6 undone Undone { ops: u64 },
        /// `Savepoint` established at this LSN.
        7 savepoint_at SavepointAt(lsn: Lsn),
        8 pong Pong,
        /// Introspection text (JSON lines or Prometheus exposition).
        9 text Text(text: String),
        10 err Err(error: WireError),
    }
}

impl Reply for ClientReply {
    fn from_error(e: WireError) -> ClientReply {
        ClientReply::Err(e)
    }

    fn error(&self) -> Option<&WireError> {
        match self {
            ClientReply::Err(e) => Some(e),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_req(req: ClientRequest) {
        let decoded = ClientRequest::decode(&req.encode()).unwrap();
        assert_eq!(req, decoded);
    }

    fn roundtrip_rep(rep: ClientReply) {
        let decoded = ClientReply::decode(&rep.encode()).unwrap();
        assert_eq!(rep, decoded);
    }

    #[test]
    fn every_request_survives_the_wire() {
        let t = TableId(3);
        let reqs = vec![
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
        ];
        assert_eq!(reqs.len(), ClientRequest::MAX_TAG as usize, "one sample per tag");
        let mut seen = std::collections::HashSet::new();
        for req in reqs {
            assert!(seen.insert(req.tag()), "duplicate tag {}", req.tag());
            assert_ne!(req.name(), "unknown");
            roundtrip_req(req);
        }
    }

    #[test]
    fn every_reply_survives_the_wire() {
        let reps = vec![
            ClientReply::Welcome { session_id: 5, max_sessions: 64 },
            ClientReply::Txn(lr_common::TxnId(9)),
            ClientReply::Value(None),
            ClientReply::Value(Some(b"payload".to_vec())),
            ClientReply::Rows(vec![(1, b"a".to_vec()), (2, vec![])]),
            ClientReply::Unit,
            ClientReply::Undone { ops: 3 },
            ClientReply::SavepointAt(Lsn(77)),
            ClientReply::Pong,
            ClientReply::Text("server_requests 12\n".to_string()),
            ClientReply::Err(WireError::ServerBusy { active: 2, cap: 2 }),
            ClientReply::Err(WireError::TxnNotActive(lr_common::TxnId(4))),
        ];
        for rep in reps {
            roundtrip_rep(rep);
        }
    }

    #[test]
    fn garbage_decodes_to_typed_codec_errors() {
        assert!(ClientRequest::decode(&[]).is_err());
        assert!(ClientRequest::decode(&[0xEE]).is_err());
        assert!(ClientReply::decode(&[0xEE]).is_err());
        // Trailing bytes are a protocol violation, not silently ignored.
        let mut buf = ClientRequest::Ping.encode();
        buf.push(0);
        assert!(ClientRequest::decode(&buf).is_err());
    }

    #[test]
    fn value_option_tags_other_than_zero_and_one_are_rejected() {
        // ClientReply::Value with option tag 7 in front of a 1-byte value.
        let bytes = [3, 7, 1, 0, 0, 0, 1];
        assert!(matches!(
            ClientReply::decode(&bytes),
            Err(lr_common::codec::CodecError::BadTag { tag: 7, .. })
        ));
        // A Rows count far beyond the bytes present fails without
        // preallocating for it.
        let mut rows = vec![4];
        rows.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(ClientReply::decode(&rows).is_err());
    }
}
