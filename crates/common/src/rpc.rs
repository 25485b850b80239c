//! One RPC stack for both wire boundaries.
//!
//! The workspace speaks two message protocols — TC↔DC (`lr_dc::wire`) and
//! client↔TC (`lr_server::protocol`) — and both run on this one stack:
//!
//! * **messages** — [`wire_enum!`](crate::wire_enum) declares a message
//!   enum once, as a table of `tag name Variant fields` rows, and generates
//!   its tag, name, encode and decode from that table over the shared
//!   [`Field`] codec. [`WireError`], the typed error both protocols carry,
//!   is declared the same way.
//! * **frames** — a message travels as a CRC frame
//!   ([`crate::codec::frame`]) around an 8-byte little-endian request id
//!   ([`envelope`]); a reply echoes its request's id. A frame whose CRC or
//!   envelope cannot be trusted is answered with a typed `wire:` error
//!   under request id 0 — never a dropped connection.
//! * **connections** — one [`Conn`] / [`Listener`] pair with three
//!   implementations: TCP ([`TcpConn`] / [`TcpPort`]), in-process channels
//!   ([`ChannelConn`] / [`ChannelListener`]), and the inline loopback
//!   ([`InlineConn`]), which runs the server's frame handler on the
//!   caller's thread.
//! * **serving** — [`Acceptor`] (an accept thread with wake and shutdown,
//!   plus a thread per connection), [`serve_conn`] (one connection's
//!   frames in, replies out) and [`serve_frame`] (unframe → envelope →
//!   decode → dispatch → encode → frame).
//! * **calling** — [`call`]: stamp the request id, send, receive, check
//!   the echoed id, decode.

use crate::codec::{self, frame, read_raw_frame_from, unframe, CodecError, Field};
use crate::codec::{FRAME_HEADER, MAX_FRAME_BODY};
use crate::{Error, Key, Lsn, PageId, Result, TableId, TxnId};
use std::io::{self, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

// ----------------------------------------------------------------------
// message tables
// ----------------------------------------------------------------------

/// Declare a wire message enum as one table. Each row is
/// `tag name Variant`, then the variant's fields: `{ field: Type, .. }`
/// for a struct variant, `(binding: Type, ..)` for a tuple variant (the
/// binding names only the position), nothing for a unit variant. The
/// table generates the enum itself plus:
///
/// * [`Field`] — the tag byte, then each field in row order;
/// * `tag()`, `name()`, `name_of(tag)` and `MAX_TAG`;
/// * `encode()` / `decode()`, and `encode_with` / `decode_with` for an
///   enum declared `enum Name + Trailer`, whose messages end in one more
///   field after the variant's own (a `Default` trailer for `encode`).
///
/// A tag listed twice is an unreachable match arm, so the compiler
/// rejects the table.
#[macro_export]
macro_rules! wire_enum {
    (@trailer) => { () };
    (@trailer $t:ty) => { $t };
    (
        $(#[$meta:meta])*
        $vis:vis enum $name:ident $(+ $trailer:ty)? as $context:literal {
            $(
                $(#[$vmeta:meta])*
                $tag:literal $op:ident $variant:ident
                    $( { $($field:ident : $fty:ty),* $(,)? } )?
                    $( ( $($pos:ident : $pty:ty),* $(,)? ) )?
            ),* $(,)?
        }
    ) => {
        $(#[$meta])*
        $vis enum $name {
            $( $(#[$vmeta])* $variant $( { $($field: $fty),* } )? $( ( $($pty),* ) )?, )*
        }

        impl $name {
            /// The highest tag in the table.
            pub const MAX_TAG: u8 = $crate::rpc::max_tag(&[$($tag),*]);

            /// This message's tag: its first byte on the wire.
            pub fn tag(&self) -> u8 {
                match self {
                    $( Self::$variant { .. } => $tag, )*
                }
            }

            /// This message's name, for telemetry and protocol errors.
            pub fn name(&self) -> &'static str {
                Self::name_of(self.tag())
            }

            /// The name of a tag, or `"unknown"` for a tag the table lacks.
            pub fn name_of(tag: u8) -> &'static str {
                match tag {
                    $( $tag => stringify!($op), )*
                    _ => "unknown",
                }
            }

            /// Encode as a message body (with a default trailer).
            pub fn encode(&self) -> ::std::vec::Vec<u8> {
                self.encode_with(&::std::default::Default::default())
            }

            /// Encode as a message body ending in `trailer`.
            pub fn encode_with(
                &self,
                trailer: &$crate::wire_enum!(@trailer $($trailer)?),
            ) -> ::std::vec::Vec<u8> {
                let mut e = $crate::codec::Encoder::with_capacity(64);
                $crate::codec::Field::put(self, &mut e);
                $crate::codec::Field::put(trailer, &mut e);
                e.finish()
            }

            /// Decode a whole message body, discarding its trailer.
            pub fn decode(bytes: &[u8]) -> ::std::result::Result<Self, $crate::codec::CodecError> {
                Self::decode_with(bytes).map(|(message, _)| message)
            }

            /// Decode a whole message body and its trailer.
            pub fn decode_with(
                bytes: &[u8],
            ) -> ::std::result::Result<
                (Self, $crate::wire_enum!(@trailer $($trailer)?)),
                $crate::codec::CodecError,
            > {
                $crate::codec::from_bytes(bytes)
            }
        }

        impl $crate::codec::Field for $name {
            fn put(&self, e: &mut $crate::codec::Encoder) {
                match self {
                    $(
                        Self::$variant $( { $($field),* } )? $( ( $($pos),* ) )? => {
                            e.put_u8($tag);
                            $( $( $crate::codec::Field::put($field, e); )* )?
                            $( $( $crate::codec::Field::put($pos, e); )* )?
                        }
                    )*
                }
            }

            fn get(
                d: &mut $crate::codec::Decoder<'_>,
            ) -> ::std::result::Result<Self, $crate::codec::CodecError> {
                Ok(match d.get_u8()? {
                    $(
                        $tag => Self::$variant
                            $( { $($field: $crate::codec::Field::get(d)?),* } )?
                            $( ( $(<$pty as $crate::codec::Field>::get(d)?),* ) )?,
                    )*
                    tag => {
                        return Err($crate::codec::CodecError::BadTag { context: $context, tag })
                    }
                })
            }
        }
    };
}

/// The largest of `tags` (for [`wire_enum!`](crate::wire_enum)'s
/// `MAX_TAG`).
pub const fn max_tag(tags: &[u8]) -> u8 {
    let (mut i, mut max) = (0, 0);
    while i < tags.len() {
        if tags[i] > max {
            max = tags[i];
        }
        i += 1;
    }
    max
}

crate::wire_enum! {
    /// [`Error`] flattened for the wire — variant for variant, with the
    /// one lossy edge that `Io` carries only the error's message (a raw
    /// `std::io::Error` is not serializable). Both protocols carry it, so
    /// a remote caller sees the same typed errors a local one does.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub enum WireError as "wire error" {
        1 page_out_of_range PageOutOfRange { pid: PageId, pages: u64 },
        2 page_full PageFull { pid: PageId, needed: u64, free: u64 },
        3 key_not_found KeyNotFound { table: TableId, key: Key },
        4 duplicate_key DuplicateKey { table: TableId, key: Key },
        5 unknown_table UnknownTable(table: TableId),
        6 unknown_txn UnknownTxn(txn: TxnId),
        7 txn_not_active TxnNotActive(txn: TxnId),
        8 lock_conflict LockConflict { txn: TxnId, table: TableId, key: Key },
        9 pool_exhausted PoolExhausted { capacity: u64 },
        10 log_corrupt LogCorrupt { lsn: Lsn, reason: String },
        11 wal_violation WalViolation { pid: PageId, plsn: Lsn, elsn: Lsn },
        12 tree_corrupt TreeCorrupt(msg: String),
        13 recovery_invariant RecoveryInvariant(msg: String),
        14 io Io(msg: String),
        15 server_busy ServerBusy { active: u64, cap: u64 },
        16 unknown_token UnknownToken(token: u64),
    }
}

impl From<&Error> for WireError {
    fn from(e: &Error) -> WireError {
        match e {
            Error::PageOutOfRange { pid, pages } => {
                WireError::PageOutOfRange { pid: *pid, pages: *pages }
            }
            Error::PageFull { pid, needed, free } => {
                WireError::PageFull { pid: *pid, needed: *needed as u64, free: *free as u64 }
            }
            Error::KeyNotFound { table, key } => {
                WireError::KeyNotFound { table: *table, key: *key }
            }
            Error::DuplicateKey { table, key } => {
                WireError::DuplicateKey { table: *table, key: *key }
            }
            Error::UnknownTable(t) => WireError::UnknownTable(*t),
            Error::UnknownTxn(t) => WireError::UnknownTxn(*t),
            Error::TxnNotActive(t) => WireError::TxnNotActive(*t),
            Error::LockConflict { txn, table, key } => {
                WireError::LockConflict { txn: *txn, table: *table, key: *key }
            }
            Error::PoolExhausted { capacity } => {
                WireError::PoolExhausted { capacity: *capacity as u64 }
            }
            Error::LogCorrupt { lsn, reason } => {
                WireError::LogCorrupt { lsn: *lsn, reason: reason.clone() }
            }
            Error::WalViolation { pid, plsn, elsn } => {
                WireError::WalViolation { pid: *pid, plsn: *plsn, elsn: *elsn }
            }
            Error::TreeCorrupt(m) => WireError::TreeCorrupt(m.clone()),
            Error::RecoveryInvariant(m) => WireError::RecoveryInvariant(m.clone()),
            Error::ServerBusy { active, cap } => {
                WireError::ServerBusy { active: *active, cap: *cap }
            }
            Error::UnknownToken(t) => WireError::UnknownToken(*t),
            Error::Io(e) => WireError::Io(e.to_string()),
        }
    }
}

impl From<WireError> for Error {
    fn from(w: WireError) -> Error {
        match w {
            WireError::PageOutOfRange { pid, pages } => Error::PageOutOfRange { pid, pages },
            WireError::PageFull { pid, needed, free } => {
                Error::PageFull { pid, needed: needed as usize, free: free as usize }
            }
            WireError::KeyNotFound { table, key } => Error::KeyNotFound { table, key },
            WireError::DuplicateKey { table, key } => Error::DuplicateKey { table, key },
            WireError::UnknownTable(t) => Error::UnknownTable(t),
            WireError::UnknownTxn(t) => Error::UnknownTxn(t),
            WireError::TxnNotActive(t) => Error::TxnNotActive(t),
            WireError::LockConflict { txn, table, key } => Error::LockConflict { txn, table, key },
            WireError::PoolExhausted { capacity } => {
                Error::PoolExhausted { capacity: capacity as usize }
            }
            WireError::LogCorrupt { lsn, reason } => Error::LogCorrupt { lsn, reason },
            WireError::WalViolation { pid, plsn, elsn } => Error::WalViolation { pid, plsn, elsn },
            WireError::TreeCorrupt(m) => Error::TreeCorrupt(m),
            WireError::RecoveryInvariant(m) => Error::RecoveryInvariant(m),
            WireError::ServerBusy { active, cap } => Error::ServerBusy { active, cap },
            WireError::UnknownToken(t) => Error::UnknownToken(t),
            WireError::Io(m) => Error::Io(std::io::Error::other(m)),
        }
    }
}

/// A reply message: every protocol's replies can carry a [`WireError`].
pub trait Reply: Field {
    /// The error reply carrying `e`.
    fn from_error(e: WireError) -> Self;

    /// The error this reply carries, if it is an error reply.
    fn error(&self) -> Option<&WireError>;
}

/// A codec failure on the wire, as the `wire:`-prefixed error both sides
/// report it as.
fn wire_fault(e: CodecError) -> WireError {
    WireError::RecoveryInvariant(format!("wire: {e}"))
}

/// A codec failure on the wire, as the workspace error.
pub fn wire_error(e: CodecError) -> Error {
    wire_fault(e).into()
}

/// A reply whose shape the request does not allow.
pub fn unexpected(request: &str, got: &dyn std::fmt::Debug) -> Error {
    Error::RecoveryInvariant(format!("wire: unexpected reply for {request}: {got:?}"))
}

/// Send a request through `$client.call(&request)` and match the reply
/// against the one shape the request allows; any other shape is a
/// protocol error naming the request.
#[macro_export]
macro_rules! ask {
    ($client:expr, $request:expr, $shape:pat => $out:expr) => {{
        let request = $request;
        match $client.call(&request)? {
            $shape => Ok($out),
            other => Err($crate::rpc::unexpected(request.name(), &other)),
        }
    }};
}

// ----------------------------------------------------------------------
// the request-id envelope
// ----------------------------------------------------------------------

/// Prefix `body` with the 8-byte little-endian request id — the payload
/// both directions of both wires carry inside the frame.
pub fn envelope(req_id: u64, body: &[u8]) -> Vec<u8> {
    let mut p = Vec::with_capacity(8 + body.len());
    p.extend_from_slice(&req_id.to_le_bytes());
    p.extend_from_slice(body);
    p
}

/// Split an unframed payload into its request id and message body.
pub fn open_envelope(payload: &[u8]) -> std::result::Result<(u64, &[u8]), CodecError> {
    if payload.len() < 8 {
        return Err(CodecError::Truncated { wanted: 8, remaining: payload.len() });
    }
    let (id, body) = payload.split_at(8);
    Ok((u64::from_le_bytes(id.try_into().expect("8-byte split")), body))
}

/// Frame `body` under `req_id`: the bytes one message puts on the wire.
pub fn seal(req_id: u64, body: &[u8]) -> Vec<u8> {
    frame(&envelope(req_id, body))
}

/// Check a raw frame's length and CRC and open its envelope.
pub fn open(raw: &[u8]) -> std::result::Result<(u64, &[u8]), CodecError> {
    open_envelope(unframe(raw)?)
}

// ----------------------------------------------------------------------
// connections
// ----------------------------------------------------------------------

/// One established connection, either side.
pub trait Conn: Send {
    /// Send one complete frame.
    fn send(&mut self, frame: Vec<u8>) -> io::Result<()>;

    /// Receive one raw frame (`[len][crc][body]`, CRC unchecked, so a
    /// server can answer a corrupt frame instead of dropping it).
    /// `Ok(None)` is a clean close; an error is a torn or oversized frame
    /// — either way the connection is finished.
    fn recv(&mut self) -> io::Result<Option<Vec<u8>>>;

    /// Best-effort graceful close for rejection paths: stop sending, then
    /// drain the peer (bounded) until it hangs up. A TCP close with
    /// unread input resets the connection, which can discard the very
    /// reply the rejection wanted delivered. Default: nothing.
    fn graceful_close(&mut self) {}
}

/// Something a server accepts connections from. `accept` returning
/// `Ok(None)` means the listener was woken for shutdown; an error is a
/// transient accept failure.
pub trait Listener: Send + Sync {
    fn accept(&self) -> io::Result<Option<Box<dyn Conn>>>;

    /// Unblock a pending `accept` so shutdown never hangs.
    fn wake(&self);
}

/// A TCP connection. Reads go through a per-stream [`BufReader`], so one
/// `read` normally returns a frame's header and body together; each frame
/// leaves in one `write`.
pub struct TcpConn {
    stream: BufReader<TcpStream>,
}

impl TcpConn {
    pub fn new(stream: TcpStream) -> TcpConn {
        let _ = stream.set_nodelay(true);
        TcpConn { stream: BufReader::new(stream) }
    }

    pub fn dial(addr: SocketAddr) -> io::Result<TcpConn> {
        Ok(TcpConn::new(TcpStream::connect(addr)?))
    }
}

impl Conn for TcpConn {
    fn send(&mut self, frame: Vec<u8>) -> io::Result<()> {
        self.stream.get_mut().write_all(&frame)
    }

    fn recv(&mut self) -> io::Result<Option<Vec<u8>>> {
        read_raw_frame_from(&mut self.stream)
    }

    fn graceful_close(&mut self) {
        use io::Read;
        let _ = self.stream.get_ref().shutdown(std::net::Shutdown::Write);
        let _ = self.stream.get_ref().set_read_timeout(Some(std::time::Duration::from_millis(250)));
        let mut sink = [0u8; 256];
        while matches!(self.stream.read(&mut sink), Ok(n) if n > 0) {}
    }
}

/// A bound TCP port on `127.0.0.1:0`, so tests and benches never fight
/// over ports.
pub struct TcpPort {
    listener: TcpListener,
    addr: SocketAddr,
    stopped: AtomicBool,
}

impl TcpPort {
    pub fn bind_loopback() -> io::Result<TcpPort> {
        let listener = TcpListener::bind(("127.0.0.1", 0))?;
        let addr = listener.local_addr()?;
        Ok(TcpPort { listener, addr, stopped: AtomicBool::new(false) })
    }

    /// The address clients dial.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }
}

impl Listener for TcpPort {
    fn accept(&self) -> io::Result<Option<Box<dyn Conn>>> {
        let accepted = self.listener.accept();
        if self.stopped.load(Ordering::Acquire) {
            return Ok(None);
        }
        Ok(Some(Box::new(TcpConn::new(accepted?.0))))
    }

    fn wake(&self) {
        self.stopped.store(true, Ordering::Release);
        // `TcpListener::accept` has no portable interrupt: a throwaway
        // self-connection bounces the blocked accept, which then observes
        // the stop flag.
        let _ = TcpStream::connect(self.addr);
    }
}

/// One end of an in-process connection: frames out via a sender, frames
/// in via a receiver. Dropping either end closes the connection (the
/// peer sees a clean EOF).
pub struct ChannelConn {
    tx: mpsc::Sender<Vec<u8>>,
    rx: mpsc::Receiver<Vec<u8>>,
}

impl ChannelConn {
    /// A connected pair of ends.
    pub fn pair() -> (ChannelConn, ChannelConn) {
        let (a_tx, b_rx) = mpsc::channel();
        let (b_tx, a_rx) = mpsc::channel();
        (ChannelConn { tx: a_tx, rx: a_rx }, ChannelConn { tx: b_tx, rx: b_rx })
    }
}

impl Conn for ChannelConn {
    fn send(&mut self, frame: Vec<u8>) -> io::Result<()> {
        self.tx.send(frame).map_err(|_| io::Error::new(io::ErrorKind::BrokenPipe, "peer hung up"))
    }

    fn recv(&mut self) -> io::Result<Option<Vec<u8>>> {
        match self.rx.recv() {
            // The same stream-robustness rules a socket applies, so both
            // transports reject runts and absurd lengths identically.
            Ok(f) if f.len() < FRAME_HEADER => {
                Err(io::Error::new(io::ErrorKind::UnexpectedEof, "stream closed mid frame header"))
            }
            Ok(f) if f.len() > FRAME_HEADER + MAX_FRAME_BODY => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("frame length {} exceeds cap {MAX_FRAME_BODY}", f.len() - FRAME_HEADER),
            )),
            Ok(f) => Ok(Some(f)),
            Err(mpsc::RecvError) => Ok(None),
        }
    }
}

/// The server half of an in-process front: connections arrive on a queue
/// on which `None` is the shutdown sentinel.
pub struct ChannelListener {
    rx: Mutex<mpsc::Receiver<Option<ChannelConn>>>,
    tx: mpsc::Sender<Option<ChannelConn>>,
}

/// The client half: `connect` returns the client's end of a fresh
/// connection.
#[derive(Clone)]
pub struct ChannelConnector {
    tx: mpsc::Sender<Option<ChannelConn>>,
}

impl ChannelListener {
    pub fn new() -> (ChannelListener, ChannelConnector) {
        let (tx, rx) = mpsc::channel();
        (ChannelListener { rx: Mutex::new(rx), tx: tx.clone() }, ChannelConnector { tx })
    }
}

impl ChannelConnector {
    pub fn connect(&self) -> io::Result<ChannelConn> {
        let (client_end, server_end) = ChannelConn::pair();
        self.tx
            .send(Some(server_end))
            .map_err(|_| io::Error::new(io::ErrorKind::ConnectionRefused, "server gone"))?;
        Ok(client_end)
    }
}

impl Listener for ChannelListener {
    fn accept(&self) -> io::Result<Option<Box<dyn Conn>>> {
        let rx = self.rx.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
        // The shutdown sentinel, or every connector dropped: either way
        // accepting is over.
        Ok(rx.recv().ok().flatten().map(|conn| Box::new(conn) as Box<dyn Conn>))
    }

    fn wake(&self) {
        let _ = self.tx.send(None);
    }
}

/// A server's frame handler: one raw request frame in, one sealed reply
/// out.
pub type Handler = Arc<dyn Fn(&[u8]) -> Vec<u8> + Send + Sync>;

/// The inline loopback: `send` runs the server's [`Handler`] on the
/// caller's thread and `recv` hands back its reply. The frames are the
/// bytes a socket would carry; there is no thread hop.
pub struct InlineConn {
    handler: Handler,
    reply: Option<Vec<u8>>,
}

impl InlineConn {
    pub fn new(handler: Handler) -> InlineConn {
        InlineConn { handler, reply: None }
    }
}

impl Conn for InlineConn {
    fn send(&mut self, frame: Vec<u8>) -> io::Result<()> {
        self.reply = Some((self.handler)(&frame));
        Ok(())
    }

    fn recv(&mut self) -> io::Result<Option<Vec<u8>>> {
        Ok(self.reply.take())
    }
}

// ----------------------------------------------------------------------
// serving
// ----------------------------------------------------------------------

/// Work for one accepted connection, run on a thread of its own.
pub type ConnJob = Box<dyn FnOnce() + Send>;

/// An accept loop on its own thread. Each accepted connection goes to
/// `admit` on the accept thread — which must never block on the client —
/// and the job `admit` returns runs on a fresh thread: thread per
/// connection. A job whose thread cannot start is dropped, along with any
/// accounting it owns. Dropping the acceptor wakes the listener and joins
/// the accept thread; connection threads end when their peers hang up.
pub struct Acceptor {
    listener: Arc<dyn Listener>,
    thread: Option<JoinHandle<()>>,
}

impl Acceptor {
    pub fn spawn(
        name: &str,
        listener: Arc<dyn Listener>,
        mut admit: impl FnMut(Box<dyn Conn>) -> ConnJob + Send + 'static,
    ) -> io::Result<Acceptor> {
        let accepting = listener.clone();
        let conn_name = format!("{name}-conn");
        let thread =
            std::thread::Builder::new().name(format!("{name}-accept")).spawn(move || loop {
                match accepting.accept() {
                    Ok(Some(conn)) => {
                        let job = admit(conn);
                        let _ = std::thread::Builder::new().name(conn_name.clone()).spawn(job);
                    }
                    Ok(None) => return,
                    Err(_) => continue,
                }
            })?;
        Ok(Acceptor { listener, thread: Some(thread) })
    }

    /// Stop accepting and join the accept thread.
    pub fn shutdown(&mut self) {
        self.listener.wake();
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

impl Drop for Acceptor {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// One connection's serve loop: every frame in is answered by `handle`,
/// until the peer closes or the stream breaks (a torn or oversized frame
/// ends the connection; a corrupt frame is the handler's to answer).
pub fn serve_conn(conn: &mut dyn Conn, mut handle: impl FnMut(&[u8]) -> Vec<u8>) {
    while let Ok(Some(raw)) = conn.recv() {
        if conn.send(handle(&raw)).is_err() {
            return;
        }
    }
}

/// One served exchange, as the server's accounting sees it.
pub struct Exchange {
    /// The id the reply went out under (0 if the frame was untrusted).
    pub req_id: u64,
    /// Request body bytes (envelope excluded; 0 if the frame was
    /// untrusted).
    pub req_bytes: usize,
    /// Reply body bytes (envelope excluded).
    pub rep_bytes: usize,
    /// Microseconds from frame in to reply sealed.
    pub lat_us: u64,
    /// Whether the reply is a success.
    pub ok: bool,
}

/// The server pipeline for one raw frame: check it, open its envelope,
/// decode the request, let `serve(req_id, request, body_bytes)` answer,
/// and seal the reply under the request's id. A frame failing its length
/// or CRC check, or too short for an envelope, is answered under id 0 —
/// its id cannot be trusted; a request that does not decode is answered
/// under its own id. Both answers are typed `wire:` errors.
pub fn serve_frame<Q: Field, R: Reply>(
    raw: &[u8],
    serve: impl FnOnce(u64, Q, usize) -> R,
) -> (Vec<u8>, Exchange) {
    let start = Instant::now();
    let (req_id, req_bytes, reply) = match open(raw) {
        Err(e) => (0, 0, R::from_error(wire_fault(e))),
        Ok((req_id, body)) => {
            let reply = match codec::from_bytes(body) {
                Ok(request) => serve(req_id, request, body.len()),
                Err(e) => R::from_error(wire_fault(e)),
            };
            (req_id, body.len(), reply)
        }
    };
    let body = codec::to_bytes(&reply);
    let exchange = Exchange {
        req_id,
        req_bytes,
        rep_bytes: body.len(),
        lat_us: start.elapsed().as_micros() as u64,
        ok: reply.error().is_none(),
    };
    (seal(req_id, &body), exchange)
}

// ----------------------------------------------------------------------
// calling
// ----------------------------------------------------------------------

/// One round trip on `conn`: seal `body` under `req_id`, send it, read
/// the reply, check the echoed id and decode. A reply may come back under
/// the request's own id, or under id 0 if it is an error (the server
/// could not trust the frame, or refused the connection); any other id is
/// a protocol desync. Returns the reply — possibly an error reply — and
/// its body size.
pub fn call<R: Reply>(conn: &mut dyn Conn, req_id: u64, body: &[u8]) -> Result<(R, usize)> {
    conn.send(seal(req_id, body))?;
    let raw = conn.recv()?.ok_or_else(|| {
        Error::Io(io::Error::new(io::ErrorKind::BrokenPipe, "server closed the connection"))
    })?;
    let (echo, body) = open(&raw).map_err(wire_error)?;
    let reply: R = codec::from_bytes(body).map_err(wire_error)?;
    if echo != req_id && !(echo == 0 && reply.error().is_some()) {
        return Err(Error::RecoveryInvariant(format!(
            "wire: reply id {echo} does not match request id {req_id}"
        )));
    }
    Ok((reply, body.len()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn channel_pair_moves_frames_both_ways() {
        let (mut a, mut b) = ChannelConn::pair();
        a.send(frame(b"ping")).unwrap();
        let raw = b.recv().unwrap().unwrap();
        assert_eq!(unframe(&raw).unwrap(), b"ping");
        b.send(frame(b"pong")).unwrap();
        let raw = a.recv().unwrap().unwrap();
        assert_eq!(unframe(&raw).unwrap(), b"pong");
        drop(b);
        assert!(a.send(frame(b"x")).is_err());
        assert!(a.recv().unwrap().is_none(), "peer drop is a clean close");
    }

    #[test]
    fn tcp_conn_moves_frames_over_a_socket() {
        let port = TcpPort::bind_loopback().unwrap();
        let addr = port.addr();
        let server = std::thread::spawn(move || {
            let mut conn = port.accept().unwrap().unwrap();
            let raw = conn.recv().unwrap().unwrap();
            assert_eq!(unframe(&raw).unwrap(), b"hello");
            conn.send(frame(b"world")).unwrap();
            assert!(conn.recv().unwrap().is_none(), "client drop is a clean close");
        });
        let mut client = TcpConn::dial(addr).unwrap();
        client.send(frame(b"hello")).unwrap();
        let raw = client.recv().unwrap().unwrap();
        assert_eq!(unframe(&raw).unwrap(), b"world");
        drop(client);
        server.join().unwrap();
    }

    #[test]
    fn wake_unblocks_a_pending_accept() {
        let port = Arc::new(TcpPort::bind_loopback().unwrap());
        let p2 = port.clone();
        let t = std::thread::spawn(move || p2.accept().map(|c| c.is_some()));
        std::thread::sleep(std::time::Duration::from_millis(10));
        port.wake();
        assert!(!t.join().unwrap().unwrap(), "woken accept reports shutdown");

        let (listener, connector) = ChannelListener::new();
        listener.wake();
        assert!(listener.accept().unwrap().is_none());
        drop(connector);
    }

    // A two-variant protocol for the pipeline tests; most of its generated
    // API goes unused here.
    #[allow(dead_code)]
    mod probe {
        use super::WireError;

        crate::wire_enum! {
            #[derive(Clone, Debug, PartialEq)]
            pub enum Probe as "probe" {
                1 num Num(n: u64),
                2 fail Fail(e: WireError),
            }
        }
    }
    use probe::Probe;

    impl Reply for Probe {
        fn from_error(e: WireError) -> Probe {
            Probe::Fail(e)
        }

        fn error(&self) -> Option<&WireError> {
            match self {
                Probe::Fail(e) => Some(e),
                Probe::Num(_) => None,
            }
        }
    }

    /// An echo server on the inline loopback: replies `Ok(n + 1)`.
    fn inline_echo() -> InlineConn {
        InlineConn::new(Arc::new(|raw: &[u8]| serve_frame(raw, |_, n: u64, _| Probe::Num(n + 1)).0))
    }

    #[test]
    fn inline_loopback_serves_on_the_callers_thread() {
        let mut conn = inline_echo();
        let (reply, bytes) = call::<Probe>(&mut conn, 9, &codec::to_bytes(&41u64)).unwrap();
        assert_eq!((reply, bytes), (Probe::Num(42), 9));
    }

    /// A connection answering every request under a fixed id.
    struct AnswersAs(u64, Probe, Option<Vec<u8>>);

    impl Conn for AnswersAs {
        fn send(&mut self, _frame: Vec<u8>) -> io::Result<()> {
            self.2 = Some(seal(self.0, &codec::to_bytes(&self.1)));
            Ok(())
        }

        fn recv(&mut self) -> io::Result<Option<Vec<u8>>> {
            Ok(self.2.take())
        }
    }

    #[test]
    fn only_the_echoed_id_or_an_id_zero_error_is_accepted() {
        let busy = Probe::Fail(WireError::ServerBusy { active: 1, cap: 1 });
        let mut conn = AnswersAs(0, busy.clone(), None);
        assert_eq!(call::<Probe>(&mut conn, 5, &[]).unwrap().0, busy);
        for foreign in [AnswersAs(6, busy, None), AnswersAs(0, Probe::Num(1), None)] {
            let mut conn = foreign;
            match call::<Probe>(&mut conn, 5, &[]) {
                Err(Error::RecoveryInvariant(m)) => assert!(m.contains("does not match"), "{m}"),
                other => panic!("expected a desync error, got {other:?}"),
            }
        }
    }

    #[test]
    fn tables_generate_tags_names_and_bounds() {
        assert_eq!(WireError::MAX_TAG, 16);
        assert_eq!(WireError::UnknownToken(3).tag(), 16);
        assert_eq!(WireError::UnknownToken(3).name(), "unknown_token");
        assert_eq!(WireError::name_of(0), "unknown");
        assert!(matches!(
            WireError::decode(&[99]),
            Err(CodecError::BadTag { context: "wire error", tag: 99 })
        ));
    }
}
