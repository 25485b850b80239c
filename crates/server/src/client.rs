//! The client half of the protocol: a [`Client`] is a remote
//! [`lr_core::Session`] — same method surface, same typed errors, every
//! call one round trip through [`rpc::call`].

use crate::protocol::{ClientReply, ClientRequest};
use lr_common::rpc::{self, ChannelConnector, Conn, TcpConn};
use lr_common::{ask, Error, Key, Lsn, Result, TableId, TxnId, Value};
use std::net::SocketAddr;

/// A connected client session. Holds one connection, runs one request at
/// a time (mirroring the one-transaction-at-a-time session invariant).
///
/// Dropping the client closes the connection; the server aborts any
/// transaction left open — so, like a local session, a panicking client
/// thread cannot strand key locks.
pub struct Client {
    conn: Box<dyn Conn>,
    next_req_id: u64,
    session_id: u64,
    max_sessions: u64,
}

impl Client {
    /// Dial a TCP server and run the handshake. A server at capacity
    /// answers the handshake with [`Error::ServerBusy`].
    pub fn connect_tcp(addr: SocketAddr) -> Result<Client> {
        Client::connect(Box::new(TcpConn::dial(addr)?))
    }

    /// Connect through an in-process channel front.
    pub fn connect_channel(connector: &ChannelConnector) -> Result<Client> {
        Client::connect(Box::new(connector.connect()?))
    }

    /// Run the handshake on an established connection.
    pub fn connect(conn: Box<dyn Conn>) -> Result<Client> {
        let mut client = Client { conn, next_req_id: 1, session_id: 0, max_sessions: 0 };
        (client.session_id, client.max_sessions) = ask!(
            client,
            ClientRequest::Hello,
            ClientReply::Welcome { session_id, max_sessions } => (session_id, max_sessions)
        )?;
        Ok(client)
    }

    /// The server-assigned session id (1-based, unique per server).
    pub fn session_id(&self) -> u64 {
        self.session_id
    }

    /// The server's admission cap, as reported in the handshake.
    pub fn max_sessions(&self) -> u64 {
        self.max_sessions
    }

    /// One round trip; an error reply becomes the typed error it carries.
    fn call(&mut self, req: &ClientRequest) -> Result<ClientReply> {
        let req_id = self.next_req_id;
        self.next_req_id += 1;
        match rpc::call(self.conn.as_mut(), req_id, &req.encode())?.0 {
            ClientReply::Err(w) => Err(w.into()),
            rep => Ok(rep),
        }
    }

    fn unit(&mut self, req: ClientRequest) -> Result<()> {
        ask!(self, req, ClientReply::Unit => ())
    }

    pub fn begin(&mut self) -> Result<TxnId> {
        ask!(self, ClientRequest::Begin, ClientReply::Txn(txn) => txn)
    }

    pub fn read(&mut self, table: TableId, key: Key) -> Result<Option<Value>> {
        ask!(self, ClientRequest::Read { table, key }, ClientReply::Value(v) => v)
    }

    pub fn read_for_update(&mut self, table: TableId, key: Key) -> Result<Option<Value>> {
        ask!(self, ClientRequest::ReadForUpdate { table, key }, ClientReply::Value(v) => v)
    }

    pub fn update(&mut self, table: TableId, key: Key, value: Value) -> Result<()> {
        self.unit(ClientRequest::Update { table, key, value })
    }

    pub fn insert(&mut self, table: TableId, key: Key, value: Value) -> Result<()> {
        self.unit(ClientRequest::Insert { table, key, value })
    }

    pub fn delete(&mut self, table: TableId, key: Key) -> Result<()> {
        self.unit(ClientRequest::Delete { table, key })
    }

    pub fn scan_range(&mut self, table: TableId, from: Key, to: Key) -> Result<Vec<(Key, Value)>> {
        ask!(self, ClientRequest::ScanRange { table, from, to }, ClientReply::Rows(rows) => rows)
    }

    pub fn commit(&mut self) -> Result<()> {
        self.unit(ClientRequest::Commit)
    }

    /// Abort the open transaction; returns the number of operations
    /// undone.
    pub fn abort(&mut self) -> Result<u64> {
        ask!(self, ClientRequest::Abort, ClientReply::Undone { ops } => ops)
    }

    pub fn savepoint(&mut self) -> Result<Lsn> {
        ask!(self, ClientRequest::Savepoint, ClientReply::SavepointAt(lsn) => lsn)
    }

    /// Partial rollback; returns the number of operations undone.
    pub fn rollback_to(&mut self, sp: Lsn) -> Result<u64> {
        ask!(self, ClientRequest::RollbackTo { sp }, ClientReply::Undone { ops } => ops)
    }

    pub fn ping(&mut self) -> Result<()> {
        ask!(self, ClientRequest::Ping, ClientReply::Pong => ())
    }

    /// Engine + server metrics as JSON lines.
    pub fn server_stats_json(&mut self) -> Result<String> {
        ask!(self, ClientRequest::Stats, ClientReply::Text(s) => s)
    }

    /// Engine + server metrics in Prometheus exposition format.
    pub fn server_metrics_prometheus(&mut self) -> Result<String> {
        ask!(self, ClientRequest::Metrics, ClientReply::Text(s) => s)
    }

    /// Run `body` as one transaction with no-wait conflict retry — the
    /// client-side analog of [`lr_core::Session::run_txn`]: on
    /// [`Error::LockConflict`] the transaction is aborted and retried (up
    /// to `max_retries` times) with the same yield-then-exponential
    /// backoff. Returns the number of retries that were needed.
    pub fn run_txn<F>(&mut self, max_retries: usize, mut body: F) -> Result<usize>
    where
        F: FnMut(&mut Client) -> Result<()>,
    {
        let mut retries = 0;
        loop {
            self.begin()?;
            match body(self) {
                Ok(()) => return self.commit().map(|()| retries),
                Err(Error::LockConflict { .. }) if retries < max_retries => {
                    self.abort()?;
                    retries += 1;
                    conflict_backoff(retries);
                }
                Err(e) => {
                    let _ = self.abort();
                    return Err(e);
                }
            }
        }
    }
}

/// Same shape as the session layer's conflict backoff: the first few
/// retries just yield, persistent conflicts sleep exponentially longer
/// (capped at ~1.3 ms).
fn conflict_backoff(attempt: usize) {
    const YIELD_ATTEMPTS: usize = 3;
    if attempt <= YIELD_ATTEMPTS {
        std::thread::yield_now();
    } else {
        let exp = (attempt - YIELD_ATTEMPTS).min(7) as u32;
        std::thread::sleep(std::time::Duration::from_micros(10u64 << exp));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lr_common::rpc::WireError;

    /// A server that welcomes the handshake, then answers every request
    /// with an error under a foreign request id.
    struct ForeignIdServer(Option<Vec<u8>>);

    impl Conn for ForeignIdServer {
        fn send(&mut self, frame: Vec<u8>) -> std::io::Result<()> {
            let (req_id, body) = rpc::open(&frame).unwrap();
            let reply = match ClientRequest::decode(body).unwrap() {
                ClientRequest::Hello => rpc::seal(
                    req_id,
                    &ClientReply::Welcome { session_id: 1, max_sessions: 1 }.encode(),
                ),
                _ => {
                    rpc::seal(777, &ClientReply::Err(WireError::UnknownTable(TableId(9))).encode())
                }
            };
            self.0 = Some(reply);
            Ok(())
        }

        fn recv(&mut self) -> std::io::Result<Option<Vec<u8>>> {
            Ok(self.0.take())
        }
    }

    #[test]
    fn an_error_under_a_foreign_request_id_is_a_desync() {
        let mut client = Client::connect(Box::new(ForeignIdServer(None))).unwrap();
        match client.ping() {
            Err(Error::RecoveryInvariant(m)) => assert!(m.contains("does not match"), "{m}"),
            other => panic!("expected a protocol desync, got {other:?}"),
        }
    }
}
