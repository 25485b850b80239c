//! Real-socket deployment of the TC↔DC wire: a [`DcServer`] behind a
//! loopback TCP port with thread-per-connection dispatch (the shared
//! [`rpc::Acceptor`]), dialed by a [`Transport`] whose pool holds
//! [`rpc::TcpConn`]s.
//!
//! Each frame leaves in one `write` and each side reads through a
//! per-stream buffer, so one `read` normally returns a whole frame.
//! Together with the apply-consumes-token and piggybacked-EOSL protocol
//! (see [`crate::remote`]), a 2-update transaction crosses this socket in
//! six exchanges of two syscalls per side.
//!
//! Corrupt *streams* (torn header, oversized length prefix) drop the
//! connection, while corrupt *frames* (bad CRC, garbage payload) arrive
//! intact and come back as typed error replies. Each serve thread holds an
//! [`crate::server::Attachment`], so when the client's last connection
//! closes the server releases the guards it left parked; the transport
//! keeps its first connection pooled, which holds the count above zero
//! while the client is alive.

use crate::api::DcApi;
use crate::backend::Deployment;
use crate::remote::{RemoteDc, Transport};
use crate::server::DcServer;
use lr_common::rpc::{self, Acceptor, Conn, TcpConn, TcpPort};
use lr_common::Result;
use std::net::SocketAddr;
use std::sync::Arc;

/// A [`DcServer`] listening on an OS-assigned loopback port. Dropping it
/// stops accepting; connection threads end when their clients hang up.
pub struct TcpDcServer {
    server: Arc<DcServer>,
    addr: SocketAddr,
    _acceptor: Acceptor,
}

impl TcpDcServer {
    /// Bind `127.0.0.1:0` and start accepting.
    pub fn spawn(server: Arc<DcServer>) -> Result<TcpDcServer> {
        let port = Arc::new(TcpPort::bind_loopback()?);
        let addr = port.addr();
        let serving = server.clone();
        let acceptor = Acceptor::spawn("lr-dc-tcp", port, move |mut conn| {
            let attached = serving.attach();
            Box::new(move || {
                rpc::serve_conn(conn.as_mut(), |raw| attached.server().serve_frame(raw))
            })
        })?;
        Ok(TcpDcServer { server, addr, _acceptor: acceptor })
    }

    /// The bound loopback address clients dial.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The wrapped frame server (tests compare both sides' telemetry).
    pub fn server(&self) -> &Arc<DcServer> {
        &self.server
    }
}

/// Wrap a backend in a full TCP message deployment: frame server in its
/// own accept/connection threads, socket transport, proxy. The engine
/// talks to the returned [`RemoteDc`] exactly as it talks to a loopback
/// deployment — every operation now crosses a real socket. Crash forks
/// redeploy by re-dialing a fresh server around the reopened backend.
pub fn tcp_deploy(
    inner: Arc<dyn DcApi>,
    name: &'static str,
) -> Result<(Arc<RemoteDc>, Arc<Transport>)> {
    let server = Arc::new(DcServer::new(inner.clone()));
    let deployment = TcpDcServer::spawn(server.clone())?;
    // The dialer owns the deployment: the socket server lives exactly as
    // long as the transport can dial it.
    let dial = Box::new(move || Ok(Box::new(TcpConn::dial(deployment.addr())?) as Box<dyn Conn>));
    let transport = Arc::new(Transport::dialing(dial, Some(server))?);
    Ok((Arc::new(RemoteDc::new(transport.clone(), inner, name, Deployment::Tcp)), transport))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dc::{DataComponent, DcConfig};
    use crate::wire::{DcReply, DcRequest, WireError, WireIntent};
    use lr_common::{IoModel, SimClock, TableId};
    use lr_storage::SimDisk;
    use lr_wal::Wal;

    const T: TableId = TableId(1);

    fn test_backend() -> Arc<dyn DcApi> {
        let mut disk = SimDisk::new(512, 0, SimClock::new(), IoModel::zero());
        DataComponent::format_disk(&mut disk).unwrap();
        let wal = Wal::new_shared(4096);
        let dc = DataComponent::open(Box::new(disk), wal, DcConfig::default()).unwrap();
        dc.create_table(T).unwrap();
        Arc::new(dc)
    }

    fn roundtrip(transport: &Transport, req_id: u64, req: &DcRequest) -> DcReply {
        transport.call(req_id, &req.encode()).unwrap().0
    }

    #[test]
    fn frames_cross_a_real_socket() {
        let (_dc, transport) = tcp_deploy(test_backend(), "tcp-test").unwrap();
        match roundtrip(&transport, 7, &DcRequest::Stats) {
            DcReply::Stats(_) => {}
            other => panic!("expected Stats reply, got {other:?}"),
        }
    }

    #[test]
    fn concurrent_callers_get_their_own_streams() {
        let (_dc, transport) = tcp_deploy(test_backend(), "tcp-test").unwrap();
        let threads: Vec<_> = (0..8)
            .map(|i| {
                let t = transport.clone();
                std::thread::spawn(move || {
                    for j in 0..20 {
                        let id = 1 + i * 100 + j;
                        match roundtrip(&t, id, &DcRequest::Stats) {
                            DcReply::Stats(_) => {}
                            other => panic!("unexpected reply {other:?}"),
                        }
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
    }

    #[test]
    fn corrupt_frame_gets_typed_reply_not_a_dropped_connection() {
        let tcp = TcpDcServer::spawn(Arc::new(DcServer::new(test_backend()))).unwrap();
        let mut conn = TcpConn::dial(tcp.addr()).unwrap();
        let mut framed = rpc::seal(3, &DcRequest::Stats.encode());
        let last = framed.len() - 1;
        framed[last] ^= 0x40; // body bit-flip: CRC check fails server-side
        conn.send(framed).unwrap();
        let reply = conn.recv().unwrap().unwrap();
        let (echo, body) = rpc::open(&reply).unwrap();
        assert_eq!(echo, 0, "server cannot trust a corrupt frame's request id");
        match DcReply::decode(body).unwrap() {
            DcReply::Err(WireError::RecoveryInvariant(msg)) => {
                assert!(msg.contains("wire"), "got: {msg}")
            }
            other => panic!("expected wire error, got {other:?}"),
        }
        // The same connection still serves well-formed frames.
        match rpc::call(&mut conn, 4, &DcRequest::Stats.encode()).unwrap().0 {
            DcReply::Stats(_) => {}
            other => panic!("expected Stats reply, got {other:?}"),
        }
    }

    #[test]
    fn disconnect_fails_calls_and_releases_parked_guards() {
        let (_dc, transport) = tcp_deploy(test_backend(), "tcp-test").unwrap();
        let req =
            DcRequest::PrepareOp { table: T, key: 10, intent: WireIntent::Insert { value_len: 3 } };
        match roundtrip(&transport, 1, &req) {
            DcReply::Prepared { .. } => {}
            other => panic!("expected Prepared, got {other:?}"),
        }
        let server = transport.server().unwrap();
        assert_eq!(server.held_guards(), 1);
        transport.disconnect();
        let stats = DcRequest::Stats.encode();
        assert!(transport.call(2, &stats).is_err(), "calls must fail after disconnect");
        // Guard cleanup is asynchronous: the connection threads observe
        // EOF, and the last one out runs the orphaned-guard release.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        while server.held_guards() != 0 {
            assert!(std::time::Instant::now() < deadline, "parked guard leaked past disconnect");
            std::thread::yield_now();
        }
    }

    #[test]
    fn server_drop_is_clean_while_client_streams_exist() {
        let (_dc, transport) = tcp_deploy(test_backend(), "tcp-test").unwrap();
        match roundtrip(&transport, 1, &DcRequest::Stats) {
            DcReply::Stats(_) => {}
            other => panic!("unexpected reply {other:?}"),
        }
        // Dropping the proxy + transport tears the deployment down: the
        // accept thread joins, connection threads exit on EOF.
        drop(transport);
        drop(_dc);
    }
}
