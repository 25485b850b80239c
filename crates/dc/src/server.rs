//! The DC-side message dispatcher.
//!
//! A [`DcServer`] owns a registered local backend (any [`DcApi`]) and
//! answers [`DcRequest`]s against it. The frame pipeline — unframe, open
//! the request-id envelope, decode, encode, frame, and the typed answer to
//! a corrupt frame — is the shared [`rpc::serve_frame`]; the server adds
//! only its own duties: dispatch, parked guards, the EOSL trailer, wire
//! telemetry and trace events, and last-connection cleanup. It is the
//! process-boundary half of the Deuteronomy split — a TC connecting over
//! any [`rpc::Conn`] talks to this and never to the backend directly.
//!
//! ## Server-held guards
//!
//! The local [`DcApi::prepare_op`] / [`DcApi::lock_table_exclusive`] return
//! borrow-carrying guards that cannot cross a message boundary. The server
//! parks them: each prepare gets a token, the guard lives in a token map
//! (keeping its latches held, exactly as if the caller's stack held it).
//! The client's `Apply { token, rec }` removes the parked guard, applies
//! under it and drops it — one exchange both applies and releases, and
//! the release is still journaled as a `token_release` trace event. An
//! `Apply` whose token is stale or unknown fails with
//! [`Error::UnknownToken`] and touches nothing. `ReleaseOp { token }` is
//! left for prepared ops the client abandons unapplied. Releases are
//! idempotent.
//!
//! ## Last-connection cleanup
//!
//! Parked guards belong to the client, not to any one connection (a
//! client's pooled connection may simply be retired). Every connection —
//! a socket's serve thread, or an inline loopback while it is connected —
//! holds an [`Attachment`]; when the last one goes, the client is gone and
//! [`DcServer::disconnect`] releases every orphaned guard, so a vanished
//! client can never wedge the DC.
//!
//! ## EOSL rides on every request
//!
//! There is no EOSL message. Each request carries the client's EOSL
//! watermark as its trailer ([`DcRequest::decode_with`]), and
//! [`DcServer::serve_frame`] publishes it to the backend *before*
//! dispatching the request, so any flush that request triggers already
//! sees the TC's latest stable LSN.

use crate::api::{DcApi, PreparedOp, TableGuard};
use crate::recovery::SmoBarrierOutcome;
use crate::telemetry::{WireTelemetry, WireTelemetrySnapshot};
use crate::wire::{DcReply, DcRequest, WireError};
use lr_common::rpc;
use lr_common::{Error, Lsn, PageId, Result};
use lr_obs::{EventKind, TraceSink};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A parked [`PreparedOp`] with the `Arc` that keeps its borrowed backend
/// alive. Field order is drop order: the guard must die before the owner
/// it borrows from.
struct HeldOp {
    op: PreparedOp<'static>,
    owner: Arc<dyn DcApi>,
}

/// A parked exclusive table latch (same ownership discipline).
struct HeldTable {
    _guard: TableGuard<'static>,
    _owner: Arc<dyn DcApi>,
}

/// Serves the wire protocol against one registered backend.
pub struct DcServer {
    inner: Arc<dyn DcApi>,
    held_ops: Mutex<HashMap<u64, HeldOp>>,
    held_tables: Mutex<HashMap<u64, HeldTable>>,
    /// Token source; starts at 1 so 0 never names a live guard.
    next_token: AtomicU64,
    /// Per-op dispatch accumulators — the server's half of the wire
    /// telemetry, pullable by a client through [`DcRequest::Introspect`].
    telemetry: WireTelemetry,
    trace: std::sync::OnceLock<TraceSink>,
    /// Live [`Attachment`]s: connections the client holds open.
    live: AtomicU64,
}

impl DcServer {
    pub fn new(inner: Arc<dyn DcApi>) -> DcServer {
        DcServer {
            inner,
            held_ops: Mutex::new(HashMap::new()),
            held_tables: Mutex::new(HashMap::new()),
            next_token: AtomicU64::new(1),
            telemetry: WireTelemetry::new(),
            trace: std::sync::OnceLock::new(),
            live: AtomicU64::new(0),
        }
    }

    /// Count one live connection until the returned [`Attachment`] drops.
    pub(crate) fn attach(self: &Arc<Self>) -> Attachment {
        self.live.fetch_add(1, Ordering::AcqRel);
        Attachment(self.clone())
    }

    /// The frame handler an inline loopback connection runs. The handler
    /// holds an [`Attachment`] for as long as any connection uses it.
    pub(crate) fn handler(self: &Arc<Self>) -> rpc::Handler {
        let attached = self.attach();
        Arc::new(move |raw: &[u8]| attached.0.serve_frame(raw))
    }

    /// Attach a trace journal; wire request/reply/disconnect events are
    /// emitted into it. First sink wins (matching the engine's one-shot
    /// wiring); later calls are ignored.
    pub fn set_trace(&self, sink: TraceSink) {
        let _ = self.trace.set(sink);
    }

    #[inline]
    fn trace(&self) -> Option<&TraceSink> {
        self.trace.get().filter(|s| s.is_enabled())
    }

    /// The server's per-op wire accumulators (dispatch-side latencies).
    pub fn telemetry(&self) -> WireTelemetrySnapshot {
        self.telemetry.snapshot()
    }

    /// The backend this server fronts.
    pub fn backend(&self) -> &Arc<dyn DcApi> {
        &self.inner
    }

    /// Guards currently parked (prepared ops + table latches). Zero in a
    /// quiesced server; a nonzero count after a client disconnect means a
    /// cleanup path was missed.
    pub fn held_guards(&self) -> usize {
        self.held_ops.lock().len() + self.held_tables.lock().len()
    }

    /// Drop every parked guard — the client-teardown duty (last
    /// connection gone, or a crash), so half-finished prepares release
    /// their latches instead of wedging every later writer. Returns the
    /// number of guards released; each release is traced.
    pub fn release_all(&self) -> u64 {
        let ops: Vec<u64> = {
            let mut held = self.held_ops.lock();
            let tokens = held.keys().copied().collect();
            held.clear();
            tokens
        };
        let tables: Vec<u64> = {
            let mut held = self.held_tables.lock();
            let tokens = held.keys().copied().collect();
            held.clear();
            tokens
        };
        let released = (ops.len() + tables.len()) as u64;
        if let Some(t) = self.trace() {
            for token in ops.into_iter().chain(tables) {
                t.emit(EventKind::TokenRelease { token });
            }
        }
        released
    }

    /// Connection-teardown entry point: release every parked guard and
    /// trace the disconnect with the count of guards it orphaned.
    pub fn disconnect(&self) {
        let tokens_released = self.release_all();
        if let Some(t) = self.trace() {
            t.emit(EventKind::WireDisconnect { tokens_released });
        }
    }

    /// Serve one raw request frame, returning the sealed reply frame.
    /// Codec failures (bad frame, bad tag) come back as typed error
    /// replies, not panics — a corrupt message must not take the DC down
    /// (see [`rpc::serve_frame`] for which request id each one echoes).
    /// Every exchange lands in the server's [`WireTelemetry`] under its
    /// request tag (tag 0 collects frames too corrupt to attribute).
    pub fn serve_frame(&self, raw: &[u8]) -> Vec<u8> {
        let mut tag = 0u8;
        let (reply, ex) = rpc::serve_frame(raw, |req_id, (req, eosl): (DcRequest, Lsn), bytes| {
            // Publish the piggybacked EOSL before the request can trigger
            // a flush (monotone: a stale value is a no-op).
            if eosl > Lsn::NULL {
                self.inner.eosl(eosl);
            }
            tag = req.tag();
            if let Some(t) = self.trace() {
                t.emit(EventKind::WireRequest { req_id, op: tag as u64, bytes: bytes as u64 });
            }
            self.serve(req)
        });
        self.telemetry.record(tag, ex.req_bytes, ex.rep_bytes, ex.lat_us, ex.ok);
        if let Some(t) = self.trace() {
            t.emit(EventKind::WireReply {
                req_id: ex.req_id,
                op: tag as u64,
                bytes: ex.rep_bytes as u64,
                lat_us: ex.lat_us,
                ok: ex.ok,
            });
        }
        reply
    }

    /// Dispatch one decoded request.
    pub fn serve(&self, req: DcRequest) -> DcReply {
        match self.dispatch(req) {
            Ok(reply) => reply,
            Err(e) => DcReply::Err(WireError::from(&e)),
        }
    }

    fn park_op(&self, mut op: PreparedOp<'_>) -> (u64, PageId, Option<lr_common::Value>) {
        let pid = op.pid;
        // The before-image travels to the client; the parked op keeps
        // only its latches.
        let before = op.before.take();
        // SAFETY: the guard borrows from `self.inner`'s referent, which the
        // HeldOp's `owner` Arc keeps alive for at least as long as the
        // guard; field order drops the guard first, and the apply path
        // drops `owner` only after consuming the guard.
        let guard: PreparedOp<'static> = unsafe { std::mem::transmute(op) };
        let token = self.next_token.fetch_add(1, Ordering::Relaxed);
        self.held_ops.lock().insert(token, HeldOp { op: guard, owner: self.inner.clone() });
        (token, pid, before)
    }

    fn park_table(&self, guard: TableGuard<'_>) -> u64 {
        // SAFETY: as in `park_op`.
        let guard: TableGuard<'static> = unsafe { std::mem::transmute(guard) };
        let token = self.next_token.fetch_add(1, Ordering::Relaxed);
        self.held_tables
            .lock()
            .insert(token, HeldTable { _guard: guard, _owner: self.inner.clone() });
        token
    }

    /// Drop the guard parked as `token`, if any — idempotent, so a release
    /// raced by a disconnect cleanup finds nothing and that is fine.
    fn release<T>(&self, held: &Mutex<HashMap<u64, T>>, token: u64) -> DcReply {
        if held.lock().remove(&token).is_some() {
            if let Some(t) = self.trace() {
                t.emit(EventKind::TokenRelease { token });
            }
        }
        DcReply::Unit
    }

    fn dispatch(&self, req: DcRequest) -> Result<DcReply> {
        let dc = &self.inner;
        let unit = |()| DcReply::Unit;
        Ok(match req {
            DcRequest::Read { table, key } => DcReply::Value(dc.read(table, key)?),
            DcRequest::ReadRange { table, from, to } => {
                DcReply::Rows(dc.read_range(table, from, to)?)
            }
            DcRequest::ScanAll { table } => DcReply::Rows(dc.scan_all(table)?),
            DcRequest::PrepareOp { table, key, intent } => {
                let op = dc.prepare_op(table, key, intent.into())?;
                let (token, pid, before) = self.park_op(op);
                DcReply::Prepared { token, pid, before }
            }
            DcRequest::ReleaseOp { token } => self.release(&self.held_ops, token),
            DcRequest::PrepareWrite { table, key, intent } => {
                DcReply::Info(dc.prepare_write(table, key, intent.into())?)
            }
            DcRequest::Apply { token: 0, rec } => {
                let pid = rec.payload.data_pid().unwrap_or(PageId(0));
                dc.apply(PreparedOp::unguarded(pid), &rec).map(unit)?
            }
            DcRequest::Apply { token, rec } => {
                // Claim the parked guard first: a stale or unknown token is
                // an error, never an apply without the prepare's latches.
                let held = self.held_ops.lock().remove(&token);
                let HeldOp { op, owner } = held.ok_or(Error::UnknownToken(token))?;
                let applied = dc.apply(op, &rec);
                drop(owner); // only after the guard borrowing from it is gone
                if let Some(t) = self.trace() {
                    t.emit(EventKind::TokenRelease { token });
                }
                applied.map(unit)?
            }
            DcRequest::ApplyAt { pid, rec } => dc.apply_at(pid, &rec).map(unit)?,
            DcRequest::Rssp { rssp_lsn } => dc.rssp(rssp_lsn).map(unit)?,
            DcRequest::DrainInFlightOps => {
                dc.drain_in_flight_ops();
                DcReply::Unit
            }
            DcRequest::Crash => {
                // A crash obliterates in-flight state first: parked guards
                // belong to sessions that just died with the TC.
                self.release_all();
                dc.crash();
                DcReply::Unit
            }
            DcRequest::ReloadCatalog => dc.reload_catalog().map(unit)?,
            DcRequest::PumpEvents => {
                dc.pump_events();
                DcReply::Unit
            }
            DcRequest::ForceEmit => {
                dc.force_emit();
                DcReply::Unit
            }
            DcRequest::DiscardEvents => {
                dc.discard_events();
                DcReply::Unit
            }
            DcRequest::CleanerPass => DcReply::Count(dc.cleaner_pass()? as u64),
            DcRequest::OverDirtyWatermark => DcReply::Flag(dc.over_dirty_watermark()),
            DcRequest::CompactPass => DcReply::Count(dc.compact_pass()? as u64),
            DcRequest::OverGarbageWatermark => DcReply::Flag(dc.over_garbage_watermark()),
            DcRequest::CreateTable { table } => dc.create_table(table).map(unit)?,
            DcRequest::RegisterTable { table, root } => dc.register_table(table, root).map(unit)?,
            DcRequest::TableRoot { table } => DcReply::Pid(dc.table_root(table)?),
            DcRequest::SetRoot { table, root } => {
                dc.set_root(table, root);
                DcReply::Unit
            }
            DcRequest::SaveCatalog { lsn } => dc.save_catalog(lsn).map(unit)?,
            DcRequest::Tables => DcReply::TableIds(dc.tables()),
            DcRequest::LockTableExclusive { table } => {
                let guard = dc.lock_table_exclusive(table);
                DcReply::TableLocked { token: self.park_table(guard) }
            }
            DcRequest::ReleaseTable { token } => self.release(&self.held_tables, token),
            DcRequest::VerifyTable { table } => DcReply::Summary(dc.verify_table(table)?),
            DcRequest::SmoRedo { window } => {
                let (applied, skipped) = dc.smo_redo(&window)?;
                DcReply::Pair(applied, skipped)
            }
            DcRequest::ReplaySmoScreened { lsn, smo, dpt } => {
                let dpt = (&dpt).into();
                let mut outcome = SmoBarrierOutcome::default();
                let moved_root = dc.replay_smo_screened(lsn, &smo, &dpt, &mut outcome)?;
                DcReply::SmoReplayed { moved_root, outcome }
            }
            DcRequest::ResolveRedoPid { table, key, logged_pid } => {
                DcReply::LocatedAt(dc.resolve_redo_pid(table, key, logged_pid)?)
            }
            DcRequest::LocateKey { table, key } => DcReply::LocatedAt(dc.locate_key(table, key)?),
            DcRequest::PreloadIndex => DcReply::Preload(dc.preload_index()?),
            DcRequest::FinishRedo => dc.finish_redo().map(unit)?,
            DcRequest::Stats => DcReply::Stats(Box::new(dc.stats())),
            DcRequest::Introspect => DcReply::WireTelemetry(self.telemetry.snapshot()),
        })
    }
}

/// One live connection to a [`DcServer`] ([`DcServer::attach`]). When
/// the last attachment drops, the client is gone and the server runs its
/// orphaned-guard cleanup.
pub(crate) struct Attachment(Arc<DcServer>);

impl Attachment {
    pub(crate) fn server(&self) -> &Arc<DcServer> {
        &self.0
    }
}

impl Drop for Attachment {
    fn drop(&mut self) {
        if self.0.live.fetch_sub(1, Ordering::AcqRel) == 1 {
            self.0.disconnect();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dc::{DataComponent, DcConfig};
    use crate::wire::WireIntent;
    use lr_common::codec::{frame, unframe};
    use lr_common::rpc::{envelope, open_envelope};
    use lr_common::{IoModel, Lsn, SimClock, TableId, TxnId};
    use lr_storage::SimDisk;
    use lr_wal::{LogPayload, LogRecord, Wal};

    const T: TableId = TableId(1);

    fn server() -> DcServer {
        let mut disk = SimDisk::new(512, 0, SimClock::new(), IoModel::zero());
        DataComponent::format_disk(&mut disk).unwrap();
        let wal = Wal::new_shared(4096);
        let dc = DataComponent::open(Box::new(disk), wal, DcConfig::default()).unwrap();
        let srv = DcServer::new(Arc::new(dc));
        srv.serve(DcRequest::CreateTable { table: T });
        srv
    }

    /// One framed exchange with request id 7, asserting the id echoes.
    impl DcServer {
        fn read_back(&self, key: u64) -> Option<Vec<u8>> {
            match self.serve(DcRequest::Read { table: T, key }) {
                DcReply::Value(v) => v,
                other => panic!("expected a value, got {other:?}"),
            }
        }
    }

    fn call_frame(srv: &DcServer, req: &DcRequest) -> DcReply {
        let framed = srv.serve_frame(&frame(&envelope(7, &req.encode())));
        let (id, body) = open_envelope(unframe(&framed).unwrap()).unwrap();
        assert_eq!(id, 7);
        DcReply::decode(body).unwrap()
    }

    #[test]
    fn framed_write_protocol_end_to_end() {
        let srv = server();
        // prepare → log → apply, all through frames; the apply frees the
        // parked guard, so no release message is needed.
        let req =
            DcRequest::PrepareOp { table: T, key: 7, intent: WireIntent::Insert { value_len: 3 } };
        let (token, pid) = match call_frame(&srv, &req) {
            DcReply::Prepared { token, pid, before } => {
                assert!(before.is_none());
                (token, pid)
            }
            other => panic!("expected Prepared, got {other:?}"),
        };
        assert_eq!(srv.held_guards(), 1);

        let payload = LogPayload::Insert {
            txn: TxnId(1),
            table: T,
            key: 7,
            pid,
            prev_lsn: Lsn::NULL,
            value: vec![1, 2, 3],
        };
        let lsn = srv.backend().wal().append(&payload);
        let apply = DcRequest::Apply { token, rec: LogRecord { lsn, payload } };
        assert_eq!(call_frame(&srv, &apply), DcReply::Unit);
        assert_eq!(srv.held_guards(), 0);

        match srv.serve(DcRequest::Read { table: T, key: 7 }) {
            DcReply::Value(Some(v)) => assert_eq!(v, vec![1, 2, 3]),
            other => panic!("expected the inserted value, got {other:?}"),
        }
    }

    fn insert_rec(srv: &DcServer, key: u64, pid: PageId) -> LogRecord {
        let payload = LogPayload::Insert {
            txn: TxnId(1),
            table: T,
            key,
            pid,
            prev_lsn: Lsn::NULL,
            value: vec![1],
        };
        LogRecord { lsn: srv.backend().wal().append(&payload), payload }
    }

    #[test]
    fn apply_with_a_stale_or_unknown_token_is_a_typed_error() {
        let srv = server();
        let prepare = |key| match srv.serve(DcRequest::PrepareOp {
            table: T,
            key,
            intent: WireIntent::Insert { value_len: 1 },
        }) {
            DcReply::Prepared { token, pid, .. } => (token, pid),
            other => panic!("expected Prepared, got {other:?}"),
        };
        // Never issued.
        let rec = insert_rec(&srv, 1, PageId(1));
        let rep = srv.serve(DcRequest::Apply { token: 999, rec });
        assert_eq!(rep, DcReply::Err(WireError::UnknownToken(999)));
        assert_eq!(srv.read_back(1), None, "a rejected apply must not write");

        // Stale: the token was already consumed by its own apply.
        let (token, pid) = prepare(2);
        let rec = insert_rec(&srv, 2, pid);
        assert_eq!(srv.serve(DcRequest::Apply { token, rec: rec.clone() }), DcReply::Unit);
        let rep = srv.serve(DcRequest::Apply { token, rec });
        assert_eq!(rep, DcReply::Err(WireError::UnknownToken(token)));

        // Stale: the token was released unapplied.
        let (token, pid) = prepare(3);
        srv.serve(DcRequest::ReleaseOp { token });
        let rep = srv.serve(DcRequest::Apply { token, rec: insert_rec(&srv, 3, pid) });
        assert_eq!(rep, DcReply::Err(WireError::UnknownToken(token)));
        assert_eq!(srv.read_back(3), None);

        // No guard leaked along the way: the table is still writable.
        assert_eq!(srv.held_guards(), 0);
        let (token, pid) = prepare(4);
        assert_eq!(
            srv.serve(DcRequest::Apply { token, rec: insert_rec(&srv, 4, pid) }),
            DcReply::Unit
        );
        assert_eq!(srv.held_guards(), 0);
    }

    fn send_with_eosl(srv: &DcServer, req: DcRequest, eosl: Lsn) {
        srv.serve_frame(&frame(&envelope(1, &req.encode_with(&eosl))));
    }

    #[test]
    fn every_request_publishes_its_piggybacked_eosl_monotonically() {
        let srv = server();
        let elsn = || srv.backend().pool().current_elsn();
        send_with_eosl(&srv, DcRequest::Tables, Lsn(40));
        assert_eq!(elsn(), Lsn(40));
        // An older watermark (or none) never lowers it.
        send_with_eosl(&srv, DcRequest::Tables, Lsn(10));
        send_with_eosl(&srv, DcRequest::Tables, Lsn::NULL);
        assert_eq!(elsn(), Lsn(40));
    }

    #[test]
    fn piggybacked_eosl_is_published_before_dispatch() {
        // A checkpoint flush inside the very request that carries the
        // watermark finds the write-ahead gate already open, so the pool
        // never has to demand an EOSL advance.
        let srv = server();
        let (token, pid) = match srv.serve(DcRequest::PrepareOp {
            table: T,
            key: 5,
            intent: WireIntent::Insert { value_len: 1 },
        }) {
            DcReply::Prepared { token, pid, .. } => (token, pid),
            other => panic!("expected Prepared, got {other:?}"),
        };
        let rec = insert_rec(&srv, 5, pid);
        let stable = srv.backend().wal().force_all();
        let pool = srv.backend().pool();
        assert!(stable >= rec.lsn && rec.lsn > pool.current_elsn(), "page ahead of the gate");
        assert_eq!(srv.serve(DcRequest::Apply { token, rec }), DcReply::Unit);
        let demands = pool.stats().eosl_demands;
        send_with_eosl(&srv, DcRequest::Rssp { rssp_lsn: stable }, stable);
        assert_eq!(pool.current_elsn(), stable);
        assert_eq!(pool.dirty_count(), 0, "rssp flushed the page");
        assert_eq!(pool.stats().eosl_demands, demands, "the flush needed no EOSL demand");
    }

    #[test]
    fn errors_cross_as_err_replies() {
        let srv = server();
        match srv.serve(DcRequest::Read { table: TableId(99), key: 1 }) {
            DcReply::Err(WireError::UnknownTable(t)) => assert_eq!(t, TableId(99)),
            other => panic!("expected UnknownTable, got {other:?}"),
        }
    }

    #[test]
    fn corrupt_frames_are_rejected_not_fatal() {
        let srv = server();
        let mut corrupt = frame(&envelope(7, &DcRequest::Tables.encode()));
        let last = corrupt.len() - 1;
        corrupt[last] ^= 0xFF;
        let framed = srv.serve_frame(&corrupt);
        let (_, body) = open_envelope(unframe(&framed).unwrap()).unwrap();
        match DcReply::decode(body).unwrap() {
            DcReply::Err(WireError::RecoveryInvariant(m)) => {
                assert!(m.contains("wire"), "{m}");
            }
            other => panic!("expected a wire error, got {other:?}"),
        }
        // A payload too short for the request-id envelope is rejected the
        // same way (reply echoes id 0).
        let framed = srv.serve_frame(&frame(&[1, 2, 3]));
        let (id, body) = open_envelope(unframe(&framed).unwrap()).unwrap();
        assert_eq!(id, 0);
        assert!(matches!(
            DcReply::decode(body).unwrap(),
            DcReply::Err(WireError::RecoveryInvariant(_))
        ));
        // The server still works afterwards.
        assert!(matches!(srv.serve(DcRequest::Tables), DcReply::TableIds(_)));
    }

    #[test]
    fn server_telemetry_attributes_ops_and_introspect_serves_it() {
        let srv = server();
        call_frame(&srv, &DcRequest::Tables);
        call_frame(&srv, &DcRequest::Tables);
        call_frame(&srv, &DcRequest::Read { table: TableId(99), key: 1 }); // error
        let snap = srv.telemetry();
        let tables = snap.op(DcRequest::Tables.tag()).unwrap();
        assert_eq!((tables.count, tables.errors), (2, 0));
        assert_eq!(tables.lat_us.count(), 2);
        let read = snap.op(DcRequest::Read { table: T, key: 0 }.tag()).unwrap();
        assert_eq!((read.count, read.errors), (1, 1));
        // Introspect serves the accumulators over the wire; by the time
        // the reply is sized the introspect op itself is being recorded,
        // so compare against the pre-call snapshot.
        match call_frame(&srv, &DcRequest::Introspect) {
            DcReply::WireTelemetry(wired) => {
                assert_eq!(wired, snap);
            }
            other => panic!("expected WireTelemetry, got {other:?}"),
        }
    }

    #[test]
    fn release_is_idempotent_and_release_all_unwedges() {
        let srv = server();
        srv.serve(DcRequest::ReleaseOp { token: 12345 }); // unknown: no-op
        let rep = srv.serve(DcRequest::PrepareOp {
            table: T,
            key: 1,
            intent: WireIntent::Insert { value_len: 2 },
        });
        let token = match rep {
            DcReply::Prepared { token, .. } => token,
            other => panic!("expected Prepared, got {other:?}"),
        };
        assert_eq!(srv.held_guards(), 1);
        srv.release_all();
        assert_eq!(srv.held_guards(), 0);
        // A fresh prepare on the same table proves no latch stayed wedged.
        assert!(matches!(
            srv.serve(DcRequest::PrepareOp {
                table: T,
                key: 2,
                intent: WireIntent::Insert { value_len: 2 },
            }),
            DcReply::Prepared { .. }
        ));
        srv.release_all();
        // Double release of the dead token: still a no-op.
        srv.serve(DcRequest::ReleaseOp { token });
        let _ = srv.serve(DcRequest::Read { table: T, key: 1 });
    }

    #[test]
    fn table_lock_tokens_park_and_release() {
        let srv = server();
        let token = match srv.serve(DcRequest::LockTableExclusive { table: T }) {
            DcReply::TableLocked { token } => token,
            other => panic!("expected TableLocked, got {other:?}"),
        };
        assert_eq!(srv.held_guards(), 1);
        srv.serve(DcRequest::ReleaseTable { token });
        assert_eq!(srv.held_guards(), 0);
        // Table writable again.
        assert!(matches!(
            srv.serve(DcRequest::PrepareOp {
                table: T,
                key: 3,
                intent: WireIntent::Insert { value_len: 2 },
            }),
            DcReply::Prepared { .. }
        ));
        srv.release_all();
    }
}
