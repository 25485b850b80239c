//! The multi-session server: admission control and per-connection
//! request dispatch onto engine [`Session`]s, on the shared RPC stack.
//!
//! ## Threading shape
//!
//! One accept thread per server, one handler thread per admitted
//! connection ([`rpc::Acceptor`]) — the same invariant the engine's
//! session layer is built on: a connection *is* a session, a session runs
//! one transaction at a time, so the TC's per-transaction state stays
//! un-latched while any number of connections run concurrently. Framing,
//! the request-id envelope and the typed answer to a corrupt frame are
//! [`rpc::serve_frame`]'s; this module keeps only sessions, admission and
//! the `server_` metrics.
//!
//! ## Admission control
//!
//! The accept loop never reads from a new connection (a silent client
//! cannot wedge admission). If the active-session cap is reached it
//! writes one unsolicited [`ClientReply::Err`] frame carrying
//! [`WireError::ServerBusy`] under request id 0 and closes; the kernel's
//! TCP backlog provides bounded queueing in front of that decision.
//!
//! ## Disconnect semantics
//!
//! A connection that dies — cleanly or mid-transaction — aborts its open
//! transaction on the way out, so a vanished client can never strand key
//! locks (the session `Drop` already guarantees this; the handler does it
//! explicitly so the abort is counted and traced).

use crate::protocol::{ClientReply, ClientRequest};
use lr_common::rpc::{self, Acceptor, ChannelConnector, ChannelListener, Conn, ConnJob};
use lr_common::rpc::{Listener, TcpPort, WireError};
use lr_common::{counter_struct, Result};
use lr_core::{Engine, EventKind, MetricsSnapshot, Session};
use parking_lot::Mutex;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Admission cap: connections admitted while this many sessions are
    /// already active are refused with [`WireError::ServerBusy`].
    pub max_sessions: usize,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig { max_sessions: 64 }
    }
}

counter_struct! {
    /// Server-side connection and request counters. Defined through
    /// [`lr_common::counter_struct!`], which also generates
    /// `COUNTER_NAMES` / `delta_since` / `counters()` / `histograms()`,
    /// so the metrics export enumerates every field by construction.
    pub struct ServerStats {
        counters {
            /// Connections admitted past the session cap check.
            pub connections_accepted: u64,
            /// Connections refused with `ServerBusy`.
            pub connections_rejected: u64,
            /// Admitted connections that have fully torn down.
            pub connections_closed: u64,
            /// Requests dispatched (any outcome).
            pub requests: u64,
            /// Requests answered with an error reply (including corrupt
            /// frames answered under request id 0).
            pub request_errors: u64,
            /// Transactions aborted because their connection died while
            /// the transaction was still open.
            pub disconnect_aborts: u64,
            /// Frame bytes received (headers included).
            pub bytes_in: u64,
            /// Frame bytes sent (headers included).
            pub bytes_out: u64,
        }
        histograms {
            /// Per-request dispatch latency in microseconds, measured
            /// from frame-decoded to reply-encoded.
            pub request_latency_us: Histogram,
        }
    }
}

/// Shared server state: everything the accept loop and the handler
/// threads both touch.
struct ServerInner {
    engine: Arc<Engine>,
    cfg: ServerConfig,
    stats: Mutex<ServerStats>,
    active: AtomicU64,
    next_conn_id: AtomicU64,
}

impl ServerInner {
    /// Engine metrics plus the server's own counters under the `server_`
    /// prefix — one enumeration for dashboards and tripwire tests.
    fn metrics(&self) -> MetricsSnapshot {
        let mut m = self.engine.metrics();
        let s = self.stats.lock().clone();
        m.push_counters("server", &s.counters());
        m.push_histograms("server", &s.histograms());
        m.push_gauge("server_active_sessions", self.active.load(Ordering::Acquire) as f64);
        m.push_gauge("server_max_sessions", self.cfg.max_sessions as f64);
        m
    }
}

/// A running server: an engine behind a [`Listener`], accepting until
/// shut down or dropped.
pub struct Server {
    inner: Arc<ServerInner>,
    acceptor: Acceptor,
}

impl Server {
    /// Start serving `engine` on `listener`.
    pub fn start(
        engine: Arc<Engine>,
        listener: Arc<dyn Listener>,
        cfg: ServerConfig,
    ) -> Result<Server> {
        let inner = Arc::new(ServerInner {
            engine,
            cfg,
            stats: Mutex::new(ServerStats::default()),
            active: AtomicU64::new(0),
            // Session ids start at 1 so 0 never names a live session.
            next_conn_id: AtomicU64::new(1),
        });
        let admitting = inner.clone();
        let acceptor = Acceptor::spawn("lr-server", listener, move |conn| admit(&admitting, conn))?;
        Ok(Server { inner, acceptor })
    }

    /// Start on a fresh loopback TCP port; returns the server and the
    /// address clients dial.
    pub fn start_tcp(engine: Arc<Engine>, cfg: ServerConfig) -> Result<(Server, SocketAddr)> {
        let port = Arc::new(TcpPort::bind_loopback()?);
        let addr = port.addr();
        Ok((Server::start(engine, port, cfg)?, addr))
    }

    /// Start on an in-process channel front; returns the server and the
    /// connector in-process clients dial through.
    pub fn start_channel(
        engine: Arc<Engine>,
        cfg: ServerConfig,
    ) -> Result<(Server, ChannelConnector)> {
        let (listener, connector) = ChannelListener::new();
        Ok((Server::start(engine, Arc::new(listener), cfg)?, connector))
    }

    /// The engine this server fronts.
    pub fn engine(&self) -> &Arc<Engine> {
        &self.inner.engine
    }

    /// Snapshot of the server's connection/request counters.
    pub fn stats(&self) -> ServerStats {
        self.inner.stats.lock().clone()
    }

    /// Sessions currently admitted and not yet torn down.
    pub fn active_sessions(&self) -> u64 {
        self.inner.active.load(Ordering::Acquire)
    }

    /// Engine + server metrics (see [`ServerInner::metrics`] docs: the
    /// server's counters ride under the `server_` prefix).
    pub fn metrics(&self) -> MetricsSnapshot {
        self.inner.metrics()
    }

    /// Stop accepting and join the accept thread. Handler threads for
    /// still-open connections exit when their clients hang up — they hold
    /// their own engine references, so this never blocks on a client.
    pub fn shutdown(&mut self) {
        self.acceptor.shutdown();
    }
}

/// Admission, on the accept thread (which never reads from a new
/// connection, so a silent client cannot wedge it).
fn admit(inner: &Arc<ServerInner>, mut conn: Box<dyn Conn>) -> ConnJob {
    let active = inner.active.load(Ordering::Acquire);
    let cap = inner.cfg.max_sessions as u64;
    if active >= cap {
        inner.stats.lock().connections_rejected += 1;
        // One unsolicited Busy frame under request id 0, then a graceful
        // close — on the connection's own thread, because the close must
        // drain the peer's pending bytes (or a TCP RST could discard the
        // Busy reply).
        let busy = rpc::seal(0, &ClientReply::Err(WireError::ServerBusy { active, cap }).encode());
        return Box::new(move || {
            let _ = conn.send(busy);
            conn.graceful_close();
        });
    }
    let slot = Slot::take(inner);
    let conn_id = inner.next_conn_id.fetch_add(1, Ordering::Relaxed);
    Box::new(move || handle_conn(slot, conn, conn_id))
}

/// One admitted session's place under the cap, held from admission to
/// teardown — and released even if the connection's thread never starts.
struct Slot(Arc<ServerInner>);

impl Slot {
    fn take(inner: &Arc<ServerInner>) -> Slot {
        inner.active.fetch_add(1, Ordering::AcqRel);
        inner.stats.lock().connections_accepted += 1;
        Slot(inner.clone())
    }
}

impl Drop for Slot {
    fn drop(&mut self) {
        self.0.stats.lock().connections_closed += 1;
        self.0.active.fetch_sub(1, Ordering::AcqRel);
    }
}

/// One connection's lifetime: session open → request loop → teardown.
fn handle_conn(slot: Slot, mut conn: Box<dyn Conn>, conn_id: u64) {
    let inner = &slot.0;
    let mut session = Engine::session(&inner.engine);
    let trace = inner.engine.trace();
    if trace.is_enabled() {
        trace.emit(EventKind::ClientConnect {
            conn: conn_id,
            active: inner.active.load(Ordering::Acquire),
        });
    }
    // A clean close, a torn frame, or an oversized length prefix ends the
    // loop; teardown below aborts any open transaction.
    rpc::serve_conn(conn.as_mut(), |raw| {
        let (reply, ex) =
            rpc::serve_frame(raw, |_, req, _| dispatch(inner, &mut session, conn_id, req));
        let mut s = inner.stats.lock();
        s.requests += 1;
        s.request_errors += u64::from(!ex.ok);
        s.bytes_in += raw.len() as u64;
        s.bytes_out += reply.len() as u64;
        s.request_latency_us.record(ex.lat_us);
        reply
    });
    // Abort-on-disconnect: a dead connection must strand no locks.
    let aborted_txn = session.current_txn().is_some();
    if aborted_txn {
        let _ = session.abort();
    }
    drop(session);
    inner.stats.lock().disconnect_aborts += u64::from(aborted_txn);
    let trace = trace.clone();
    drop(slot);
    if trace.is_enabled() {
        trace.emit(EventKind::ClientDisconnect { conn: conn_id, aborted_txn });
    }
}

/// Map one decoded request onto the session / engine surface.
fn dispatch(
    inner: &ServerInner,
    session: &mut Session,
    conn_id: u64,
    req: ClientRequest,
) -> ClientReply {
    let unit = |()| ClientReply::Unit;
    let outcome = match req {
        ClientRequest::Hello => Ok(ClientReply::Welcome {
            session_id: conn_id,
            max_sessions: inner.cfg.max_sessions as u64,
        }),
        ClientRequest::Begin => session.begin().map(ClientReply::Txn),
        ClientRequest::Read { table, key } => session.read(table, key).map(ClientReply::Value),
        ClientRequest::ReadForUpdate { table, key } => {
            session.read_for_update(table, key).map(ClientReply::Value)
        }
        ClientRequest::Update { table, key, value } => {
            session.update_in(table, key, value).map(unit)
        }
        ClientRequest::Insert { table, key, value } => {
            session.insert_in(table, key, value).map(unit)
        }
        ClientRequest::Delete { table, key } => session.delete_in(table, key).map(unit),
        ClientRequest::ScanRange { table, from, to } => {
            session.scan_range(table, from, to).map(ClientReply::Rows)
        }
        ClientRequest::Commit => session.commit().map(unit),
        ClientRequest::Abort => session.abort().map(|u| ClientReply::Undone { ops: u.ops_undone }),
        ClientRequest::Savepoint => session.savepoint().map(ClientReply::SavepointAt),
        ClientRequest::RollbackTo { sp } => {
            session.rollback_to(sp).map(|u| ClientReply::Undone { ops: u.ops_undone })
        }
        ClientRequest::Ping => Ok(ClientReply::Pong),
        ClientRequest::Stats => Ok(ClientReply::Text(inner.metrics().to_json_lines())),
        ClientRequest::Metrics => Ok(ClientReply::Text(inner.metrics().to_prometheus())),
    };
    outcome.unwrap_or_else(|e| ClientReply::Err(WireError::from(&e)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn server_stats_enumerates_every_field() {
        // Tripwire: adding a ServerStats field without it flowing into
        // counters()/histograms() is impossible by construction, but the
        // *names* feeding the metrics export are worth pinning.
        assert_eq!(
            ServerStats::COUNTER_NAMES,
            [
                "connections_accepted",
                "connections_rejected",
                "connections_closed",
                "requests",
                "request_errors",
                "disconnect_aborts",
                "bytes_in",
                "bytes_out",
            ]
        );
        assert_eq!(ServerStats::HISTOGRAM_NAMES, ["request_latency_us"]);
    }
}
