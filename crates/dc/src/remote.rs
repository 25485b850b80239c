//! The TC-side proxy: [`DcApi`] over the RPC stack.
//!
//! [`RemoteDc`] implements the full DC contract by encoding every call as
//! a [`DcRequest`], sending it through a [`Transport`] — a pool of
//! [`rpc::Conn`]s to one [`DcServer`] — and decoding the [`DcReply`]. The
//! engine, recovery drivers, undo and maintenance run against it
//! unmodified — proving the [`DcApi`] contract really is a message
//! protocol, not a shared-memory API with trait syntax.
//!
//! A transport's connections are either the inline loopback
//! ([`Transport::loopback`]: the server's dispatch runs on the caller's
//! thread, moving exactly the bytes a socket would) or sockets
//! ([`crate::tcp::tcp_deploy`]). Swapping one for the other is a
//! connection-only change — including teardown:
//! [`Transport::disconnect`] fails later calls with a broken-pipe error,
//! and once its connections are gone the server runs the same
//! orphaned-guard cleanup a socket server runs when a client vanishes.
//!
//! ## Why a connection *pool* and not one shared connection
//!
//! One connection behind a mutex deadlocks: caller A's dispatch can block
//! server-side (waiting on a latch a parked guard holds) while caller B,
//! queued behind A's in-flight exchange, is the very caller whose `Apply`
//! (or `ReleaseOp`) would free that guard. Each exchange therefore checks
//! a connection out of the pool (dialing a fresh one when the pool is
//! empty), so blocked exchanges never gate other exchanges.
//!
//! ## Guard proxies
//!
//! `prepare_op` / `lock_table_exclusive` hand out guards backed by
//! server-held tokens (see [`crate::server`]). A prepared op is
//! [`PreparedOp::parked`]: [`DcApi::apply`] consumes it and sends its
//! token inside the `Apply` request, which frees the server-side guard in
//! the same exchange — a write costs prepare + apply, two round trips.
//! Only an op dropped without being applied sends `ReleaseOp`; the table
//! guard's `Drop` sends `ReleaseTable`. A release over a dead transport is
//! swallowed — the disconnect cleanup has already freed the server-side
//! guard, so there is nothing left to release.
//!
//! ## EOSL is piggybacked
//!
//! [`DcApi::eosl`] sends nothing: it raises a client-side watermark
//! (`fetch_max`), and every request carries the current watermark as its
//! trailer to the server, which publishes it before dispatch. A commit
//! therefore costs no EOSL round trip, and the DC learns the new stable
//! LSN with the next request — before that request can flush anything.

use crate::api::{
    DcApi, DcIntrospect, Located, PreloadStats, PreparedOp, TableGuard, TableSummary,
};
use crate::backend::Deployment;
use crate::dc::{DcConfig, DcStats, PrepareInfo, WriteIntent};
use crate::dpt::Dpt;
use crate::recovery::SmoBarrierOutcome;
use crate::server::DcServer;
use crate::telemetry::{WireTelemetry, WireTelemetrySnapshot};
use crate::wire::{DcReply, DcRequest, WireDpt};
use lr_buffer::BufferPool;
use lr_common::rpc::{self, Conn, InlineConn};
use lr_common::{ask, Error, Key, Lsn, PageId, Result, TableId, Value};
use lr_obs::{EventKind, TraceSink};
use lr_storage::Disk;
use lr_wal::{LogRecord, SharedWal, SmoRecord};
use parking_lot::{Mutex, RwLock};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Idle connections kept for reuse; beyond this, returned connections
/// are closed. Deep enough that a fleet of concurrent sessions plus their
/// guard-drop traffic reuses connections instead of re-dialing per call.
const POOL_CAP: usize = 16;

/// Opens one more connection to the server.
pub(crate) type Dial = Box<dyn Fn() -> std::io::Result<Box<dyn Conn>> + Send + Sync>;

/// Where a connected transport's connections come from.
struct Link {
    dial: Dial,
    /// The server, when it lives in this process (tests compare both
    /// sides' telemetry and watch its guard table; tracing reaches it
    /// through this).
    server: Option<Arc<DcServer>>,
}

/// The TC's end of the TC↔DC connection: a pool of [`rpc::Conn`]s to one
/// [`DcServer`], one checked out per in-flight exchange. A connection
/// goes back in the pool only after a complete exchange, so a broken
/// stream never serves a second call.
pub struct Transport {
    link: RwLock<Option<Link>>,
    idle: Mutex<Vec<Box<dyn Conn>>>,
}

impl Transport {
    /// The inline loopback to an in-process server: each exchange runs the
    /// server's dispatch on the caller's thread, so concurrent TC sessions
    /// dispatch concurrently exactly as a thread-per-connection server
    /// would.
    pub fn loopback(server: Arc<DcServer>) -> Transport {
        let transport = Transport { link: RwLock::new(None), idle: Mutex::new(Vec::new()) };
        transport.reconnect(server);
        transport
    }

    /// A transport over `dial`. The first connection is dialed eagerly —
    /// to fail fast, and to hold the server's live-connection count above
    /// zero while the client is alive.
    pub(crate) fn dialing(dial: Dial, server: Option<Arc<DcServer>>) -> Result<Transport> {
        let first = dial()?;
        Ok(Transport {
            link: RwLock::new(Some(Link { dial, server })),
            idle: Mutex::new(vec![first]),
        })
    }

    /// Sever the connection: close every pooled connection and fail all
    /// later calls with a broken-pipe error. Once in-flight exchanges
    /// drain, the server's last-connection cleanup releases the guards
    /// this client left parked.
    pub fn disconnect(&self) {
        let mut link = self.link.write();
        *link = None;
        self.idle.lock().clear();
    }

    /// Re-attach to an in-process server over the inline loopback (a
    /// client re-establishing its connection).
    pub fn reconnect(&self, server: Arc<DcServer>) {
        let handler = server.handler();
        let dial: Dial =
            Box::new(move || Ok(Box::new(InlineConn::new(handler.clone())) as Box<dyn Conn>));
        let mut link = self.link.write();
        *link = Some(Link { dial, server: Some(server) });
        self.idle.lock().clear();
    }

    pub fn is_connected(&self) -> bool {
        self.link.read().is_some()
    }

    /// The server on the far side, when it lives in this process.
    pub fn server(&self) -> Option<Arc<DcServer>> {
        self.link.read().as_ref().and_then(|link| link.server.clone())
    }

    /// One exchange: the request body under `req_id`, on a pooled
    /// connection. Returns the reply and its body size.
    pub(crate) fn call(&self, req_id: u64, body: &[u8]) -> Result<(DcReply, usize)> {
        let mut conn = self.checkout()?;
        let answer = rpc::call(conn.as_mut(), req_id, body)?;
        let link = self.link.read();
        let mut idle = self.idle.lock();
        if link.is_some() && idle.len() < POOL_CAP {
            idle.push(conn);
        }
        Ok(answer)
    }

    fn checkout(&self) -> Result<Box<dyn Conn>> {
        let link = self.link.read();
        let Some(link) = link.as_ref() else {
            return Err(Error::Io(std::io::Error::new(
                std::io::ErrorKind::BrokenPipe,
                "DC transport disconnected",
            )));
        };
        let pooled = self.idle.lock().pop();
        match pooled {
            Some(conn) => Ok(conn),
            None => Ok((link.dial)()?),
        }
    }
}

/// The client half of the wire: request-id stamping, EOSL piggybacking,
/// round-trip timing, and per-op telemetry around a [`Transport`]. Shared
/// (via `Arc`) by the proxy and its guard drops so *every* exchange —
/// releases included — lands in one set of accumulators.
struct WireClient {
    transport: Arc<Transport>,
    /// Request-id source; starts at 1 so 0 only ever means "the server
    /// could not read an id off the frame".
    next_req_id: AtomicU64,
    /// Highest EOSL the TC has published; every request carries it.
    eosl: AtomicU64,
    telemetry: WireTelemetry,
    trace: std::sync::OnceLock<TraceSink>,
}

impl WireClient {
    #[inline]
    fn trace(&self) -> Option<&TraceSink> {
        self.trace.get().filter(|s| s.is_enabled())
    }

    /// One round trip: stamp a fresh request id and the current EOSL
    /// watermark, time the exchange, and record it.
    fn call(&self, req: &DcRequest) -> Result<DcReply> {
        let tag = req.tag();
        let req_id = self.next_req_id.fetch_add(1, Ordering::Relaxed);
        let body = req.encode_with(&Lsn(self.eosl.load(Ordering::Acquire)));
        if let Some(t) = self.trace() {
            t.emit(EventKind::WireRequest { req_id, op: tag as u64, bytes: body.len() as u64 });
        }
        let start = Instant::now();
        let (rep, rep_bytes) = self.transport.call(req_id, &body)?;
        let lat_us = start.elapsed().as_micros() as u64;
        let ok = !matches!(rep, DcReply::Err(_));
        self.telemetry.record(tag, body.len(), rep_bytes, lat_us, ok);
        if let Some(t) = self.trace() {
            t.emit(EventKind::WireReply {
                req_id,
                op: tag as u64,
                bytes: rep_bytes as u64,
                lat_us,
                ok,
            });
        }
        match rep {
            DcReply::Err(w) => Err(w.into()),
            other => Ok(other),
        }
    }
}

/// Proxy guard for a server-parked exclusive table latch.
struct RemoteTableGuard {
    client: Arc<WireClient>,
    token: u64,
}

impl Drop for RemoteTableGuard {
    fn drop(&mut self) {
        let _ = self.client.call(&DcRequest::ReleaseTable { token: self.token });
    }
}

/// [`DcApi`] over a [`Transport`].
///
/// The introspection facet ([`DcIntrospect`]'s `pool`/`config`/`wal`) is
/// served from a deployment-local handle to the backend — those hand out
/// references into shared engine infrastructure (the pool and the common
/// log live DC-side in this co-located deployment), while **every data,
/// control and recovery operation** goes through the wire. `stats()`
/// crosses the wire too: counter snapshots are plain data, and shipping
/// them exercises the histogram codec a remote-node deployment needs.
pub struct RemoteDc {
    client: Arc<WireClient>,
    /// Deployment-local introspection handle (NOT used for operations).
    local: Arc<dyn DcApi>,
    name: &'static str,
    /// How [`DcApi::reopen`] stands a fresh deployment up around the
    /// reopened backend.
    deployment: Deployment,
}

impl RemoteDc {
    pub fn new(
        transport: Arc<Transport>,
        local: Arc<dyn DcApi>,
        name: &'static str,
        deployment: Deployment,
    ) -> RemoteDc {
        let client = Arc::new(WireClient {
            transport,
            next_req_id: AtomicU64::new(1),
            eosl: AtomicU64::new(Lsn::NULL.0),
            telemetry: WireTelemetry::new(),
            trace: std::sync::OnceLock::new(),
        });
        RemoteDc { client, local, name, deployment }
    }

    fn call(&self, req: &DcRequest) -> Result<DcReply> {
        self.client.call(req)
    }

    /// A call whose only success is [`DcReply::Unit`].
    fn expect_unit(&self, req: DcRequest) -> Result<()> {
        ask!(self, req, DcReply::Unit => ())
    }

    /// Fire-and-forget call for `()`-returning trait methods: transport
    /// failures surface on the next fallible operation instead.
    fn call_unit(&self, req: DcRequest) {
        let _ = self.call(&req);
    }

    /// The client-side per-op accumulators: round-trip latencies as this
    /// proxy observed them through the transport.
    pub fn wire_telemetry(&self) -> WireTelemetrySnapshot {
        self.client.telemetry.snapshot()
    }

    /// The co-located frame server, when the transport can reach one.
    pub fn server(&self) -> Option<Arc<DcServer>> {
        self.client.transport.server()
    }

    /// The EOSL watermark the next request will carry.
    pub fn eosl_watermark(&self) -> Lsn {
        Lsn(self.client.eosl.load(Ordering::Acquire))
    }

    /// Pull the *server's* per-op accumulators across the boundary via
    /// [`DcRequest::Introspect`] — dispatch-side latencies, so the gap to
    /// [`RemoteDc::wire_telemetry`] is pure transport overhead.
    pub fn server_telemetry(&self) -> Result<WireTelemetrySnapshot> {
        ask!(self, DcRequest::Introspect, DcReply::WireTelemetry(snap) => snap)
    }
}

/// Wrap a backend in an inline loopback deployment: server + transport +
/// proxy. Returns the proxy (what the engine holds) and the transport
/// (tests use it to sever and re-establish the connection).
pub fn remote_loopback(
    inner: Arc<dyn DcApi>,
    name: &'static str,
) -> (Arc<RemoteDc>, Arc<Transport>) {
    let transport = Arc::new(Transport::loopback(Arc::new(DcServer::new(inner.clone()))));
    (Arc::new(RemoteDc::new(transport.clone(), inner, name, Deployment::Remote)), transport)
}

impl DcIntrospect for RemoteDc {
    fn backend_name(&self) -> &'static str {
        self.name
    }

    fn pool(&self) -> &BufferPool {
        self.local.pool()
    }

    fn stats(&self) -> DcStats {
        match self.call(&DcRequest::Stats) {
            Ok(DcReply::Stats(s)) => *s,
            _ => DcStats::default(),
        }
    }

    fn config(&self) -> &DcConfig {
        self.local.config()
    }

    fn wal(&self) -> SharedWal {
        self.local.wal()
    }

    fn as_remote(&self) -> Option<&RemoteDc> {
        Some(self)
    }
}

impl DcApi for RemoteDc {
    fn read(&self, table: TableId, key: Key) -> Result<Option<Value>> {
        ask!(self, DcRequest::Read { table, key }, DcReply::Value(v) => v)
    }

    fn read_range(&self, table: TableId, from: Key, to: Key) -> Result<Vec<(Key, Value)>> {
        ask!(self, DcRequest::ReadRange { table, from, to }, DcReply::Rows(rows) => rows)
    }

    fn scan_all(&self, table: TableId) -> Result<Vec<(Key, Value)>> {
        ask!(self, DcRequest::ScanAll { table }, DcReply::Rows(rows) => rows)
    }

    fn prepare_op(&self, table: TableId, key: Key, intent: WriteIntent) -> Result<PreparedOp<'_>> {
        let (token, pid, before) = ask!(
            self,
            DcRequest::PrepareOp { table, key, intent: intent.into() },
            DcReply::Prepared { token, pid, before } => (token, pid, before)
        )?;
        // Dropped unapplied, the op frees its server-side guard
        // (best-effort: a dead transport means the disconnect cleanup
        // already did).
        let client = self.client.clone();
        let release = move |token| {
            let _ = client.call(&DcRequest::ReleaseOp { token });
        };
        Ok(PreparedOp::parked(pid, before, token, release))
    }

    fn prepare_write(&self, table: TableId, key: Key, intent: WriteIntent) -> Result<PrepareInfo> {
        let req = DcRequest::PrepareWrite { table, key, intent: intent.into() };
        ask!(self, req, DcReply::Info(info) => info)
    }

    fn apply(&self, mut op: PreparedOp<'_>, rec: &LogRecord) -> Result<()> {
        // The token travels with the apply, which frees the parked guard
        // server-side whatever the apply's outcome; an op staged locally
        // (token 0) keeps its own hold until it drops after the exchange.
        let token = op.take_token();
        let out =
            self.expect_unit(DcRequest::Apply { token: token.unwrap_or(0), rec: rec.clone() });
        if let (Err(_), Some(token)) = (&out, token) {
            // A request lost in transit left its guard parked. Releasing
            // is idempotent, so free it whether or not the apply arrived
            // (best-effort, as on drop).
            self.call_unit(DcRequest::ReleaseOp { token });
        }
        drop(op);
        out
    }

    fn apply_at(&self, pid: PageId, rec: &LogRecord) -> Result<()> {
        self.expect_unit(DcRequest::ApplyAt { pid, rec: rec.clone() })
    }

    fn eosl(&self, elsn: Lsn) {
        // No message: the next request carries the watermark.
        self.client.eosl.fetch_max(elsn.0, Ordering::AcqRel);
    }

    fn rssp(&self, rssp_lsn: Lsn) -> Result<()> {
        self.expect_unit(DcRequest::Rssp { rssp_lsn })
    }

    fn drain_in_flight_ops(&self) {
        self.call_unit(DcRequest::DrainInFlightOps);
    }

    fn crash(&self) {
        self.call_unit(DcRequest::Crash);
    }

    fn reload_catalog(&self) -> Result<()> {
        self.expect_unit(DcRequest::ReloadCatalog)
    }

    fn pump_events(&self) {
        self.call_unit(DcRequest::PumpEvents);
    }

    fn force_emit(&self) {
        self.call_unit(DcRequest::ForceEmit);
    }

    fn discard_events(&self) {
        self.call_unit(DcRequest::DiscardEvents);
    }

    fn cleaner_pass(&self) -> Result<usize> {
        ask!(self, DcRequest::CleanerPass, DcReply::Count(c) => c as usize)
    }

    fn over_dirty_watermark(&self) -> bool {
        matches!(self.call(&DcRequest::OverDirtyWatermark), Ok(DcReply::Flag(true)))
    }

    fn compact_pass(&self) -> Result<usize> {
        ask!(self, DcRequest::CompactPass, DcReply::Count(c) => c as usize)
    }

    fn over_garbage_watermark(&self) -> bool {
        matches!(self.call(&DcRequest::OverGarbageWatermark), Ok(DcReply::Flag(true)))
    }

    fn create_table(&self, table: TableId) -> Result<()> {
        self.expect_unit(DcRequest::CreateTable { table })
    }

    fn register_table(&self, table: TableId, root: PageId) -> Result<()> {
        self.expect_unit(DcRequest::RegisterTable { table, root })
    }

    fn table_root(&self, table: TableId) -> Result<PageId> {
        ask!(self, DcRequest::TableRoot { table }, DcReply::Pid(pid) => pid)
    }

    fn set_root(&self, table: TableId, root: PageId) {
        self.call_unit(DcRequest::SetRoot { table, root });
    }

    fn save_catalog(&self, lsn: Lsn) -> Result<()> {
        self.expect_unit(DcRequest::SaveCatalog { lsn })
    }

    fn tables(&self) -> Vec<TableId> {
        match self.call(&DcRequest::Tables) {
            Ok(DcReply::TableIds(ts)) => ts,
            _ => Vec::new(),
        }
    }

    fn lock_table_exclusive(&self, table: TableId) -> TableGuard<'_> {
        // The trait has no error channel here; a dead transport is a
        // deployment failure, not a recoverable condition for a caller
        // that needs an exclusive latch.
        match self.call(&DcRequest::LockTableExclusive { table }) {
            Ok(DcReply::TableLocked { token }) => {
                TableGuard::new(RemoteTableGuard { client: self.client.clone(), token })
            }
            Ok(other) => panic!("wire: unexpected reply for lock_table_exclusive: {other:?}"),
            Err(e) => panic!("wire: lock_table_exclusive failed: {e}"),
        }
    }

    fn verify_table(&self, table: TableId) -> Result<TableSummary> {
        ask!(self, DcRequest::VerifyTable { table }, DcReply::Summary(s) => s)
    }

    fn smo_redo(&self, window: &[LogRecord]) -> Result<(u64, u64)> {
        let req = DcRequest::SmoRedo { window: window.to_vec() };
        ask!(self, req, DcReply::Pair(applied, skipped) => (applied, skipped))
    }

    fn replay_smo_screened(
        &self,
        lsn: Lsn,
        smo: &SmoRecord,
        dpt: &Dpt,
        out: &mut SmoBarrierOutcome,
    ) -> Result<Option<Lsn>> {
        let req = DcRequest::ReplaySmoScreened { lsn, smo: smo.clone(), dpt: WireDpt::from(dpt) };
        let (moved_root, outcome) =
            ask!(self, req, DcReply::SmoReplayed { moved_root, outcome } => (moved_root, outcome))?;
        out.pages_applied += outcome.pages_applied;
        out.skipped_no_dpt_entry += outcome.skipped_no_dpt_entry;
        out.skipped_rlsn += outcome.skipped_rlsn;
        out.skipped_plsn += outcome.skipped_plsn;
        Ok(moved_root)
    }

    fn resolve_redo_pid(&self, table: TableId, key: Key, logged_pid: PageId) -> Result<Located> {
        ask!(self, DcRequest::ResolveRedoPid { table, key, logged_pid }, DcReply::LocatedAt(l) => l)
    }

    fn locate_key(&self, table: TableId, key: Key) -> Result<Located> {
        ask!(self, DcRequest::LocateKey { table, key }, DcReply::LocatedAt(l) => l)
    }

    fn preload_index(&self) -> Result<PreloadStats> {
        ask!(self, DcRequest::PreloadIndex, DcReply::Preload(stats) => stats)
    }

    fn finish_redo(&self) -> Result<()> {
        self.expect_unit(DcRequest::FinishRedo)
    }

    fn set_trace(&self, sink: TraceSink) {
        // Three parties see the sink: the client (round-trip events), the
        // co-located server (dispatch events), and the local backend
        // handle (pool/OLC events in this co-located deployment).
        let _ = self.client.trace.set(sink.clone());
        if let Some(server) = self.server() {
            server.set_trace(sink.clone());
        }
        self.local.set_trace(sink);
    }

    fn reopen(&self, disk: Box<dyn Disk>, wal: SharedWal, cfg: DcConfig) -> Result<Arc<dyn DcApi>> {
        // Reopen the backend, then stand up a fresh server + connection
        // around it — a crash fork gets its own deployment, exactly as a
        // restarted TC process would re-dial the DC.
        let inner = self.local.reopen(disk, wal, cfg)?;
        self.deployment.deploy(inner, self.name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dc::DataComponent;
    use lr_common::{IoModel, SimClock, TxnId};
    use lr_storage::SimDisk;
    use lr_wal::{LogPayload, Wal};

    const T: TableId = TableId(1);

    fn deployment() -> (Arc<RemoteDc>, Arc<Transport>) {
        let mut disk = SimDisk::new(512, 0, SimClock::new(), IoModel::zero());
        DataComponent::format_disk(&mut disk).unwrap();
        let wal = Wal::new_shared(4096);
        let dc = DataComponent::open(Box::new(disk), wal, DcConfig::default()).unwrap();
        let (remote, transport) = remote_loopback(Arc::new(dc), "remote:btree");
        remote.create_table(T).unwrap();
        (remote, transport)
    }

    fn insert(dc: &dyn DcApi, key: Key, value: Vec<u8>) {
        let op = dc.prepare_op(T, key, WriteIntent::Insert { value_len: value.len() }).unwrap();
        let payload = LogPayload::Insert {
            txn: TxnId(1),
            table: T,
            key,
            pid: op.pid,
            prev_lsn: Lsn::NULL,
            value,
        };
        let lsn = dc.wal().append(&payload);
        dc.apply(op, &LogRecord { lsn, payload }).unwrap();
    }

    #[test]
    fn full_write_read_cycle_through_the_proxy() {
        let (remote, _transport) = deployment();
        for k in 0..50u64 {
            insert(remote.as_ref(), k, vec![k as u8; 16]);
        }
        assert_eq!(remote.read(T, 7).unwrap().unwrap(), vec![7u8; 16]);
        assert_eq!(remote.read(T, 999).unwrap(), None);
        let rows = remote.scan_all(T).unwrap();
        assert_eq!(rows.len(), 50);
        let summary = remote.verify_table(T).unwrap();
        assert_eq!(summary.records, 50);
        assert_eq!(remote.backend_name(), "remote:btree");
        // Typed errors survive the boundary.
        assert!(matches!(remote.read(TableId(99), 1), Err(Error::UnknownTable(TableId(99)))));
        assert!(matches!(
            remote.prepare_op(T, 7, WriteIntent::Insert { value_len: 1 }),
            Err(Error::DuplicateKey { key: 7, .. })
        ));
    }

    #[test]
    fn disconnect_fails_cleanly_and_releases_parked_guards() {
        let (remote, transport) = deployment();
        insert(remote.as_ref(), 1, vec![1; 8]);

        // Park a prepare server-side, then drop the connection under it.
        let op = remote.prepare_op(T, 2, WriteIntent::Insert { value_len: 8 }).unwrap();
        transport.disconnect();
        assert!(!transport.is_connected());

        // Calls now fail with a clean transport error, not a wedge/panic.
        match remote.read(T, 1) {
            Err(Error::Io(e)) => assert_eq!(e.kind(), std::io::ErrorKind::BrokenPipe),
            other => panic!("expected a broken-pipe error, got {other:?}"),
        }
        // Dropping the proxy guard over the dead transport is harmless —
        // the disconnect cleanup already released the server-side token.
        drop(op);

        // Reconnect: the table is writable again (no wedged latch).
        let server = Arc::new(DcServer::new(remote.local.clone()));
        transport.reconnect(server);
        let op = remote.prepare_op(T, 2, WriteIntent::Insert { value_len: 8 }).unwrap();
        drop(op);
        assert_eq!(remote.read(T, 1).unwrap().unwrap(), vec![1; 8]);
    }

    #[test]
    fn unguarded_apply_crosses_the_wire() {
        // A single-threaded prepare_write caller hands apply an unguarded
        // op: it travels as token 0 and applies without a parked guard.
        let (remote, transport) = deployment();
        let info = remote.prepare_write(T, 3, WriteIntent::Insert { value_len: 4 }).unwrap();
        let payload = LogPayload::Insert {
            txn: TxnId(1),
            table: T,
            key: 3,
            pid: info.pid,
            prev_lsn: Lsn::NULL,
            value: vec![3; 4],
        };
        let lsn = remote.wal().append(&payload);
        remote.apply(PreparedOp::unguarded(info.pid), &LogRecord { lsn, payload }).unwrap();
        assert_eq!(remote.read(T, 3).unwrap().unwrap(), vec![3; 4]);
        assert_eq!(transport.server().unwrap().held_guards(), 0);
    }

    /// An inline connection that loses the next `Apply` request in transit.
    struct LosesNextApply {
        inner: InlineConn,
        armed: Arc<std::sync::atomic::AtomicBool>,
        lost: bool,
    }

    impl Conn for LosesNextApply {
        fn send(&mut self, frame: Vec<u8>) -> std::io::Result<()> {
            let (_, body) = rpc::open(&frame).unwrap();
            let is_apply = matches!(DcRequest::decode(body), Ok(DcRequest::Apply { .. }));
            self.lost = is_apply && self.armed.swap(false, Ordering::SeqCst);
            if self.lost {
                return Ok(());
            }
            self.inner.send(frame)
        }

        fn recv(&mut self) -> std::io::Result<Option<Vec<u8>>> {
            if self.lost {
                return Err(std::io::ErrorKind::ConnectionReset.into());
            }
            self.inner.recv()
        }
    }

    #[test]
    fn apply_lost_in_transit_still_frees_its_parked_guard() {
        let (local, _) = deployment();
        let server = Arc::new(DcServer::new(local.local.clone()));
        let handler = server.handler();
        let armed = Arc::new(std::sync::atomic::AtomicBool::new(true));
        let dial: Dial = Box::new(move || {
            let inner = InlineConn::new(handler.clone());
            Ok(Box::new(LosesNextApply { inner, armed: armed.clone(), lost: false })
                as Box<dyn Conn>)
        });
        let transport = Arc::new(Transport::dialing(dial, Some(server.clone())).unwrap());
        let remote =
            RemoteDc::new(transport, local.local.clone(), "remote:lossy", Deployment::Remote);
        let op = remote.prepare_op(T, 4, WriteIntent::Insert { value_len: 4 }).unwrap();
        let payload = LogPayload::Insert {
            txn: TxnId(1),
            table: T,
            key: 4,
            pid: op.pid,
            prev_lsn: Lsn::NULL,
            value: vec![4; 4],
        };
        let lsn = remote.wal().append(&payload);
        let rec = LogRecord { lsn, payload };
        assert!(matches!(remote.apply(op, &rec), Err(Error::Io(_))));
        // The failed exchange released the guard the lost request would
        // have freed, so the key is free for the retry.
        assert_eq!(server.held_guards(), 0);
        insert(&remote, 4, vec![5; 4]);
        assert_eq!(remote.read(T, 4).unwrap().unwrap(), vec![5; 4]);
    }

    #[test]
    fn client_and_server_telemetry_agree_on_loopback() {
        let (remote, transport) = deployment();
        for k in 0..10u64 {
            insert(remote.as_ref(), k, vec![0; 8]);
        }
        for k in 0..10u64 {
            remote.read(T, k).unwrap();
        }
        let _ = remote.read(TableId(99), 1); // one error exchange
        let client = remote.wire_telemetry();
        let server = transport.server().unwrap().telemetry();
        // Same ops, same counts, same byte totals on both sides; only the
        // latencies differ (round-trip vs dispatch-only), so compare the
        // histograms by recorded-sample count.
        assert!(!client.ops.is_empty());
        assert_eq!(client.ops.len(), server.ops.len());
        for (c, s) in client.ops.iter().zip(&server.ops) {
            assert_eq!(c.op, s.op, "op order diverged");
            assert_eq!(c.count, s.count, "count for {}", c.name());
            assert_eq!(c.errors, s.errors, "errors for {}", c.name());
            assert_eq!(c.req_bytes, s.req_bytes, "req bytes for {}", c.name());
            assert_eq!(c.rep_bytes, s.rep_bytes, "rep bytes for {}", c.name());
            assert_eq!(c.lat_us.count(), s.lat_us.count(), "lat samples for {}", c.name());
        }
        let read = client.op(DcRequest::Read { table: T, key: 0 }.tag()).unwrap();
        assert_eq!((read.count, read.errors), (11, 1));
    }

    #[test]
    fn server_telemetry_crosses_the_wire_intact() {
        let (remote, transport) = deployment();
        for k in 0..5u64 {
            insert(remote.as_ref(), k, vec![0; 8]);
        }
        // The introspect exchange is recorded only after its reply has
        // been sized, so the shipped snapshot equals the server's local
        // snapshot taken just before the call.
        let local = transport.server().unwrap().telemetry();
        let wired = remote.server_telemetry().unwrap();
        assert_eq!(wired, local);
        assert!(wired.total_count() > 0);
    }

    /// A connection that echoes the wrong request id on every reply.
    struct WrongId(Option<Vec<u8>>);

    impl Conn for WrongId {
        fn send(&mut self, _frame: Vec<u8>) -> std::io::Result<()> {
            self.0 = Some(rpc::seal(u64::MAX, &DcReply::Unit.encode()));
            Ok(())
        }

        fn recv(&mut self) -> std::io::Result<Option<Vec<u8>>> {
            Ok(self.0.take())
        }
    }

    #[test]
    fn mismatched_reply_id_is_a_protocol_error() {
        let (remote, _transport) = deployment();
        let dial: Dial = Box::new(|| Ok(Box::new(WrongId(None)) as Box<dyn Conn>));
        let transport = Arc::new(Transport::dialing(dial, None).unwrap());
        let broken =
            RemoteDc::new(transport, remote.local.clone(), "remote:bad", Deployment::Remote);
        match broken.read(T, 1) {
            Err(Error::RecoveryInvariant(m)) => assert!(m.contains("does not match"), "{m}"),
            other => panic!("expected a protocol error, got {other:?}"),
        }
    }

    #[test]
    fn stats_snapshot_crosses_the_wire_with_histograms() {
        let (remote, _transport) = deployment();
        for k in 0..20u64 {
            insert(remote.as_ref(), k, vec![0; 8]);
        }
        for k in 0..20u64 {
            remote.read(T, k).unwrap();
        }
        let stats = remote.stats();
        assert!(stats.optimistic_point_reads > 0);
        // The restart histogram made the trip intact: every optimistic
        // read recorded its restart count.
        assert_eq!(stats.read_restart_hist.count(), stats.optimistic_point_reads);
    }
}
