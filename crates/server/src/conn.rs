//! Byte-stream connections and listeners the server accepts on.
//!
//! Two implementations of the same pair of traits:
//!
//! * **TCP** ([`TcpConn`] / [`TcpFrontend`]) — real loopback sockets via
//!   `std::net`, one OS connection per client;
//! * **channel** ([`ChannelConn`] / [`ChannelListener`]) — in-process
//!   `mpsc` pairs, for tests and embedded deployments that want the full
//!   server path (framing, admission, per-connection sessions) without a
//!   kernel socket.
//!
//! Both move *frames*: [`Conn::send_frame`] CRC-frames a body;
//! [`Conn::recv_frame`] returns the raw frame (header + body) with the
//! CRC deliberately **unchecked**, so the server can answer a corrupt
//! frame with a typed error reply instead of dropping the connection.

use lr_common::codec::{frame, read_raw_frame_from, write_frame_to, FRAME_HEADER, MAX_FRAME_BODY};
use parking_lot::Mutex;
use std::io::{self, BufReader};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;

/// One established connection, either side.
pub trait Conn: Send {
    /// Frame `body` and send it.
    fn send_frame(&mut self, body: &[u8]) -> io::Result<()>;

    /// Receive one raw frame (`[len][crc][body]`, CRC unchecked).
    /// `Ok(None)` is a clean close; errors are torn or oversized frames —
    /// either way the connection is finished.
    fn recv_frame(&mut self) -> io::Result<Option<Vec<u8>>>;

    /// Best-effort graceful close for rejection paths: stop sending, then
    /// drain the peer (bounded) until it hangs up. A TCP close with
    /// unread input RSTs the connection, which can discard the very reply
    /// the rejection wanted delivered — draining first prevents that.
    /// Default: nothing (channel transports have no RST semantics).
    fn graceful_close(&mut self) {}
}

/// Something the server can accept connections from. `accept` returning
/// `Ok(None)` means the listener was shut down and the accept loop should
/// exit; `wake` unblocks a pending `accept` so shutdown never hangs.
pub trait Listener: Send + Sync {
    fn accept(&self) -> io::Result<Option<Box<dyn Conn>>>;
    fn wake(&self);
}

// ----------------------------------------------------------------------
// TCP
// ----------------------------------------------------------------------

/// A TCP connection (either side of the protocol). Reads go through a
/// per-stream [`BufReader`], so one `read` syscall normally returns a
/// frame's header and body together; writes go straight to the socket,
/// one buffer per frame.
pub struct TcpConn {
    stream: BufReader<TcpStream>,
}

impl TcpConn {
    pub fn new(stream: TcpStream) -> TcpConn {
        let _ = stream.set_nodelay(true);
        TcpConn { stream: BufReader::new(stream) }
    }

    /// Dial a server.
    pub fn dial(addr: SocketAddr) -> io::Result<TcpConn> {
        Ok(TcpConn::new(TcpStream::connect(addr)?))
    }
}

impl Conn for TcpConn {
    fn send_frame(&mut self, body: &[u8]) -> io::Result<()> {
        write_frame_to(self.stream.get_mut(), body)
    }

    fn recv_frame(&mut self) -> io::Result<Option<Vec<u8>>> {
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

/// A bound TCP accept front: `127.0.0.1:0` by default, so tests and
/// benches never fight over ports.
pub struct TcpFrontend {
    listener: TcpListener,
    addr: SocketAddr,
    stopped: AtomicBool,
}

impl TcpFrontend {
    pub fn bind_loopback() -> io::Result<TcpFrontend> {
        let listener = TcpListener::bind(("127.0.0.1", 0))?;
        let addr = listener.local_addr()?;
        Ok(TcpFrontend { listener, addr, stopped: AtomicBool::new(false) })
    }

    /// The address clients dial.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }
}

impl Listener for TcpFrontend {
    fn accept(&self) -> io::Result<Option<Box<dyn Conn>>> {
        let (stream, _) = self.listener.accept()?;
        if self.stopped.load(Ordering::Acquire) {
            return Ok(None);
        }
        Ok(Some(Box::new(TcpConn::new(stream))))
    }

    fn wake(&self) {
        self.stopped.store(true, Ordering::Release);
        // `TcpListener::accept` has no portable interrupt: a throwaway
        // self-connection bounces the blocked accept, which then observes
        // the stop flag.
        let _ = TcpStream::connect(self.addr);
    }
}

// ----------------------------------------------------------------------
// in-process channels
// ----------------------------------------------------------------------

/// One direction-paired in-process connection: frames out via a sender,
/// frames in via a receiver. Dropping either side closes the connection
/// (the peer sees a clean EOF).
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
    fn send_frame(&mut self, body: &[u8]) -> io::Result<()> {
        self.tx
            .send(frame(body))
            .map_err(|_| io::Error::new(io::ErrorKind::BrokenPipe, "peer hung up"))
    }

    fn recv_frame(&mut self) -> io::Result<Option<Vec<u8>>> {
        match self.rx.recv() {
            // Apply the same stream-robustness rules a socket applies, so
            // both transports reject runts and absurd lengths identically.
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

/// The server half of the in-process front: connections arrive on an
/// mpsc queue. `None` on the queue is the shutdown sentinel.
pub struct ChannelListener {
    rx: Mutex<mpsc::Receiver<Option<ChannelConn>>>,
    tx: Mutex<mpsc::Sender<Option<ChannelConn>>>,
}

/// The client half: hand one to each in-process client; `connect`
/// returns the client's end of a fresh connection.
#[derive(Clone)]
pub struct ChannelConnector {
    tx: mpsc::Sender<Option<ChannelConn>>,
}

impl ChannelListener {
    pub fn new() -> (ChannelListener, ChannelConnector) {
        let (tx, rx) = mpsc::channel();
        let connector = ChannelConnector { tx: tx.clone() };
        (ChannelListener { rx: Mutex::new(rx), tx: Mutex::new(tx) }, connector)
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
        match self.rx.lock().recv() {
            Ok(Some(conn)) => Ok(Some(Box::new(conn))),
            // Shutdown sentinel, or every connector dropped: either way
            // the accept loop is done.
            Ok(None) | Err(mpsc::RecvError) => Ok(None),
        }
    }

    fn wake(&self) {
        let _ = self.tx.lock().send(None);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lr_common::codec::unframe;

    #[test]
    fn channel_pair_moves_frames_both_ways() {
        let (mut a, mut b) = ChannelConn::pair();
        a.send_frame(b"ping").unwrap();
        let raw = b.recv_frame().unwrap().unwrap();
        assert_eq!(unframe(&raw).unwrap(), b"ping");
        b.send_frame(b"pong").unwrap();
        let raw = a.recv_frame().unwrap().unwrap();
        assert_eq!(unframe(&raw).unwrap(), b"pong");
        drop(b);
        assert!(a.send_frame(b"x").is_err());
        assert!(a.recv_frame().unwrap().is_none(), "peer drop is a clean close");
    }

    #[test]
    fn tcp_conn_moves_frames_over_a_socket() {
        let front = TcpFrontend::bind_loopback().unwrap();
        let addr = front.addr();
        let server = std::thread::spawn(move || {
            let mut conn = front.accept().unwrap().unwrap();
            let raw = conn.recv_frame().unwrap().unwrap();
            assert_eq!(unframe(&raw).unwrap(), b"hello");
            conn.send_frame(b"world").unwrap();
            assert!(conn.recv_frame().unwrap().is_none(), "client drop is a clean close");
        });
        let mut client = TcpConn::dial(addr).unwrap();
        client.send_frame(b"hello").unwrap();
        let raw = client.recv_frame().unwrap().unwrap();
        assert_eq!(unframe(&raw).unwrap(), b"world");
        drop(client);
        server.join().unwrap();
    }

    #[test]
    fn wake_unblocks_a_pending_accept() {
        let front = std::sync::Arc::new(TcpFrontend::bind_loopback().unwrap());
        let f2 = front.clone();
        let t = std::thread::spawn(move || f2.accept().map(|c| c.is_some()));
        std::thread::sleep(std::time::Duration::from_millis(10));
        front.wake();
        assert!(!t.join().unwrap().unwrap(), "woken accept reports shutdown");

        let (listener, connector) = ChannelListener::new();
        listener.wake();
        assert!(listener.accept().unwrap().is_none());
        drop(connector);
    }
}
