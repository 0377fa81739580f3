//! The transport layer: how coordinator and workers exchange
//! [`WireMsg`] frames when they are *not* sharing an address space.
//!
//! Two implementations of one [`Transport`] trait:
//!
//! - [`LoopbackTransport`] — a deterministic in-memory pipe: `mpsc`
//!   channels carrying *encoded frames*, so the loopback path exercises
//!   the exact codec the sockets use and differs from UDS only in the
//!   byte pipe underneath. This is the default; the classic in-process
//!   engine ([`crate::Engine`]) remains untouched above it.
//! - [`FramedTransport`] — length-prefixed frames over a byte stream
//!   ([`NetStream`]: Unix-domain or TCP socket), with buffered partial
//!   reads, per-receive deadlines, and per-send bounded-backoff retry.
//!
//! Failure discipline: every error is typed ([`TransportError`]); a
//! malformed peer surfaces as a [`FrameError`], a dead peer as
//! [`TransportError::Disconnected`], a slow peer as
//! [`TransportError::Timeout`] — never a panic, never an unbounded block.
//!
//! Wall-clock note: this module is one of the two sanctioned wall-clock
//! quarantines (with [`crate::clock`]), the only `runtime` modules that opt
//! out of `clippy::disallowed_methods`. Socket deadlines are
//! wall-clock by nature — a receive budget must keep draining across
//! partial reads, and retry pacing is real elapsed time. Nothing here
//! feeds round *outcomes*: timing only decides when a typed failure is
//! reported, and lease accounting upstream is round-based.

#![expect(
    clippy::disallowed_methods,
    reason = "the wall-clock quarantine: socket receive deadlines and retry pacing read `Instant::now`"
)]

use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::time::{Duration, Instant};

use crate::frame::{
    self, FrameError, WireMsg, PROTOCOL_VERSION, REJECT_UNKNOWN_RA, REJECT_VERSION,
};
use crate::supervisor::exponential_backoff;

/// A typed transport failure. `Timeout` and `Disconnected` are ordinary
/// protocol observations (the registration plane turns sustained silence
/// into lease expiry); the rest are diagnostics for the caller.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransportError {
    /// The peer sent bytes that do not decode.
    Frame(FrameError),
    /// An OS-level I/O failure outside the timeout/disconnect taxonomy.
    Io {
        /// The failing operation (`"read"`, `"write"`, `"connect"`, ...).
        op: &'static str,
        /// The `std::io::ErrorKind` observed.
        kind: ErrorKind,
        /// The OS error message.
        detail: String,
    },
    /// No complete frame arrived within the receive budget.
    Timeout,
    /// The peer is gone: EOF, closed channel, or reset connection.
    Disconnected,
    /// The peer speaks a different protocol version.
    VersionMismatch {
        /// Our [`PROTOCOL_VERSION`].
        ours: u32,
        /// The version the peer announced.
        theirs: u32,
    },
    /// The peer refused the connection with a `REJECT_*` code.
    Rejected {
        /// The rejection code.
        code: u32,
    },
    /// A send was abandoned after exhausting its retry budget.
    SendExhausted {
        /// Write attempts made.
        attempts: usize,
        /// The final failure, rendered.
        last: String,
    },
    /// The peer answered the handshake with an unexpected message.
    HandshakeProtocol(&'static str),
}

impl std::fmt::Display for TransportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransportError::Frame(e) => write!(f, "frame error: {e}"),
            TransportError::Io { op, kind, detail } => {
                write!(f, "i/o error during {op} ({kind:?}): {detail}")
            }
            TransportError::Timeout => write!(f, "receive deadline expired"),
            TransportError::Disconnected => write!(f, "peer disconnected"),
            TransportError::VersionMismatch { ours, theirs } => {
                write!(f, "protocol version mismatch: ours {ours}, peer {theirs}")
            }
            TransportError::Rejected { code } => {
                write!(f, "peer rejected connection (code {code})")
            }
            TransportError::SendExhausted { attempts, last } => {
                write!(f, "send abandoned after {attempts} attempts: {last}")
            }
            TransportError::HandshakeProtocol(what) => {
                write!(f, "handshake protocol violation: {what}")
            }
        }
    }
}

impl std::error::Error for TransportError {}

impl From<FrameError> for TransportError {
    fn from(e: FrameError) -> Self {
        TransportError::Frame(e)
    }
}

/// Per-link send counters, drained by the coordinator into
/// [`crate::net::NetStats`] so `RunReport` can distinguish "network
/// flaked but recovered" (retries) from "worker died" (abandoned sends,
/// lease expiry).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkStats {
    /// Write attempts retried after a transient failure.
    pub retries: usize,
    /// Sends abandoned after the retry budget ran out.
    pub abandoned: usize,
}

impl LinkStats {
    /// Folds `other` into `self`.
    pub fn absorb(&mut self, other: LinkStats) {
        self.retries += other.retries;
        self.abandoned += other.abandoned;
    }
}

/// Bounded-backoff retry policy for sends: up to `max_attempts` writes,
/// sleeping `backoff_base * 2^n` (capped at `backoff_max`) between them,
/// all under a hard `send_budget` wall-clock ceiling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total write attempts per frame (first try included).
    pub max_attempts: usize,
    /// Backoff before the first retry; doubles per retry.
    pub backoff_base: Duration,
    /// Cap on any single backoff sleep.
    pub backoff_max: Duration,
    /// Hard wall-clock ceiling on one frame's send (attempts + sleeps).
    pub send_budget: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 3,
            backoff_base: Duration::from_millis(5),
            backoff_max: Duration::from_millis(200),
            send_budget: Duration::from_secs(2),
        }
    }
}

impl RetryPolicy {
    /// The backoff slept before retry `n` (0-based), doubling and
    /// saturating at `backoff_max`.
    #[must_use]
    pub(crate) fn backoff(&self, n: usize) -> Duration {
        exponential_backoff(self.backoff_base, self.backoff_max, n)
    }
}

/// A bidirectional, message-oriented link carrying [`WireMsg`] frames.
pub trait Transport: Send {
    /// Sends one message (retrying per the transport's policy).
    fn send(&mut self, msg: &WireMsg) -> Result<(), TransportError>;

    /// Receives the next message, waiting at most `timeout`.
    fn recv_timeout(&mut self, timeout: Duration) -> Result<WireMsg, TransportError>;

    /// Drains and resets this link's send counters.
    fn take_stats(&mut self) -> LinkStats {
        LinkStats::default()
    }

    /// A short label for diagnostics (`"loopback"`, `"uds"`, `"tcp"`).
    fn kind(&self) -> &'static str;
}

/// The deterministic in-memory transport: encoded frames over `mpsc`.
/// Sends cannot flake (no retry machinery), receives decode the exact
/// bytes a socket peer would have seen.
#[derive(Debug)]
pub struct LoopbackTransport {
    tx: Sender<Vec<u8>>,
    rx: Receiver<Vec<u8>>,
}

/// A connected pair of loopback endpoints.
pub fn loopback_pair() -> (LoopbackTransport, LoopbackTransport) {
    let (a_tx, b_rx) = mpsc::channel();
    let (b_tx, a_rx) = mpsc::channel();
    (
        LoopbackTransport { tx: a_tx, rx: a_rx },
        LoopbackTransport { tx: b_tx, rx: b_rx },
    )
}

impl Transport for LoopbackTransport {
    fn send(&mut self, msg: &WireMsg) -> Result<(), TransportError> {
        let bytes = frame::encode(msg)?;
        self.tx
            .send(bytes)
            .map_err(|_| TransportError::Disconnected)
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Result<WireMsg, TransportError> {
        match self.rx.recv_timeout(timeout) {
            Ok(bytes) => {
                let (msg, consumed) = frame::decode(&bytes)?;
                if consumed != bytes.len() {
                    return Err(FrameError::Trailing {
                        extra: bytes.len() - consumed,
                    }
                    .into());
                }
                Ok(msg)
            }
            Err(RecvTimeoutError::Timeout) => Err(TransportError::Timeout),
            Err(RecvTimeoutError::Disconnected) => Err(TransportError::Disconnected),
        }
    }

    fn kind(&self) -> &'static str {
        "loopback"
    }
}

/// The byte-stream interface [`FramedTransport`] frames over: blocking
/// reads/writes plus a read timeout — implemented by real sockets
/// ([`NetStream`]) and by test fakes injecting transient write failures.
pub trait ByteStream: Send {
    /// Reads into `buf`, returning 0 at EOF.
    fn read_bytes(&mut self, buf: &mut [u8]) -> std::io::Result<usize>;
    /// Writes the whole buffer.
    fn write_bytes(&mut self, buf: &[u8]) -> std::io::Result<()>;
    /// Sets the blocking-read timeout (never `None` here; the framed
    /// layer always reads under a deadline).
    fn set_read_timeout(&mut self, timeout: Duration) -> std::io::Result<()>;
    /// The stream flavor (`"uds"` / `"tcp"`).
    fn kind(&self) -> &'static str;
}

/// A real socket: Unix-domain on Unix hosts, TCP everywhere.
#[derive(Debug)]
pub enum NetStream {
    /// A Unix-domain stream socket.
    #[cfg(unix)]
    Unix(UnixStream),
    /// A TCP stream.
    Tcp(TcpStream),
}

impl ByteStream for NetStream {
    fn read_bytes(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            #[cfg(unix)]
            NetStream::Unix(s) => s.read(buf),
            NetStream::Tcp(s) => s.read(buf),
        }
    }

    fn write_bytes(&mut self, buf: &[u8]) -> std::io::Result<()> {
        match self {
            #[cfg(unix)]
            NetStream::Unix(s) => s.write_all(buf),
            NetStream::Tcp(s) => s.write_all(buf),
        }
    }

    fn set_read_timeout(&mut self, timeout: Duration) -> std::io::Result<()> {
        // A zero timeout means "disable timeouts" to the OS; clamp up so
        // an expired deadline still surfaces as WouldBlock, not a hang.
        let t = timeout.max(Duration::from_millis(1));
        match self {
            #[cfg(unix)]
            NetStream::Unix(s) => s.set_read_timeout(Some(t)),
            NetStream::Tcp(s) => s.set_read_timeout(Some(t)),
        }
    }

    fn kind(&self) -> &'static str {
        match self {
            #[cfg(unix)]
            NetStream::Unix(_) => "uds",
            NetStream::Tcp(_) => "tcp",
        }
    }
}

/// Length-prefixed framing over a [`ByteStream`]: buffers partial reads
/// until a complete frame is available, retries transient write failures
/// under [`RetryPolicy`].
#[derive(Debug)]
pub struct FramedTransport<S: ByteStream = NetStream> {
    stream: S,
    rbuf: Vec<u8>,
    retry: RetryPolicy,
    stats: LinkStats,
}

impl<S: ByteStream> FramedTransport<S> {
    /// Frames over `stream` with the given retry policy.
    pub fn new(stream: S, retry: RetryPolicy) -> Self {
        Self {
            stream,
            rbuf: Vec::with_capacity(4096),
            retry,
            stats: LinkStats::default(),
        }
    }

    /// Whether an I/O failure is worth retrying: transient conditions
    /// only. A broken pipe or reset connection is terminal — the peer is
    /// gone and the lease, not the retry loop, decides what that means.
    fn transient(kind: ErrorKind) -> bool {
        matches!(
            kind,
            ErrorKind::Interrupted | ErrorKind::WouldBlock | ErrorKind::TimedOut
        )
    }
}

impl<S: ByteStream> Transport for FramedTransport<S> {
    fn send(&mut self, msg: &WireMsg) -> Result<(), TransportError> {
        let bytes = frame::encode(msg)?;
        let deadline = Instant::now() + self.retry.send_budget;
        let mut attempts = 0usize;
        loop {
            attempts += 1;
            let err = match self.stream.write_bytes(&bytes) {
                Ok(()) => return Ok(()),
                Err(e) => e,
            };
            let out_of_budget = attempts >= self.retry.max_attempts || Instant::now() >= deadline;
            if Self::transient(err.kind()) && !out_of_budget {
                self.stats.retries += 1;
                let backoff = self.retry.backoff(attempts - 1);
                if !backoff.is_zero() {
                    std::thread::sleep(backoff);
                }
                continue;
            }
            self.stats.abandoned += 1;
            return Err(TransportError::SendExhausted {
                attempts,
                last: err.to_string(),
            });
        }
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Result<WireMsg, TransportError> {
        let deadline = Instant::now() + timeout;
        loop {
            if let Some(total) = frame::frame_len(&self.rbuf)? {
                if self.rbuf.len() >= total {
                    let (msg, consumed) = frame::decode(&self.rbuf)?;
                    self.rbuf.drain(..consumed);
                    return Ok(msg);
                }
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(TransportError::Timeout);
            }
            if self.stream.set_read_timeout(deadline - now).is_err() {
                return Err(TransportError::Disconnected);
            }
            let mut chunk = [0u8; 4096];
            match self.stream.read_bytes(&mut chunk) {
                Ok(0) => return Err(TransportError::Disconnected),
                Ok(n) => self.rbuf.extend_from_slice(&chunk[..n]),
                Err(e) if Self::transient(e.kind()) => continue,
                Err(e)
                    if matches!(
                        e.kind(),
                        ErrorKind::BrokenPipe
                            | ErrorKind::ConnectionReset
                            | ErrorKind::ConnectionAborted
                            | ErrorKind::UnexpectedEof
                    ) =>
                {
                    return Err(TransportError::Disconnected)
                }
                Err(e) => {
                    return Err(TransportError::Io {
                        op: "read",
                        kind: e.kind(),
                        detail: e.to_string(),
                    })
                }
            }
        }
    }

    fn take_stats(&mut self) -> LinkStats {
        std::mem::take(&mut self.stats)
    }

    fn kind(&self) -> &'static str {
        self.stream.kind()
    }
}

/// A listening socket accepting [`NetStream`] peers without blocking the
/// round loop (the listener is non-blocking; `poll_accept` returns
/// `Ok(None)` when nobody is knocking).
#[derive(Debug)]
pub enum NetListener {
    /// A Unix-domain listener.
    #[cfg(unix)]
    Unix(UnixListener),
    /// A TCP listener.
    Tcp(TcpListener),
}

impl NetListener {
    /// Binds a non-blocking Unix-domain listener at `path`.
    #[cfg(unix)]
    pub fn bind_uds(path: &std::path::Path) -> Result<Self, TransportError> {
        let l = UnixListener::bind(path).map_err(|e| io_err("bind", &e))?;
        l.set_nonblocking(true).map_err(|e| io_err("bind", &e))?;
        Ok(NetListener::Unix(l))
    }

    /// Binds a non-blocking TCP listener at `addr` (e.g. `127.0.0.1:0`).
    // lint:allow(dead-pub): README "Multi-process mode" promises UDS or TCP; no bin wires TCP in
    pub fn bind_tcp(addr: &str) -> Result<Self, TransportError> {
        let l = TcpListener::bind(addr).map_err(|e| io_err("bind", &e))?;
        l.set_nonblocking(true).map_err(|e| io_err("bind", &e))?;
        Ok(NetListener::Tcp(l))
    }

    /// The bound TCP address, if this is a TCP listener.
    // lint:allow(dead-pub): README "Multi-process mode" promises UDS or TCP; no bin wires TCP in
    pub fn tcp_addr(&self) -> Option<std::net::SocketAddr> {
        match self {
            NetListener::Tcp(l) => l.local_addr().ok(),
            #[cfg(unix)]
            NetListener::Unix(_) => None,
        }
    }

    /// Accepts one pending peer, or `Ok(None)` if none is waiting.
    /// Accepted streams are switched back to blocking mode (the framed
    /// layer drives them with read timeouts).
    pub fn poll_accept(
        &self,
        retry: RetryPolicy,
    ) -> Result<Option<FramedTransport<NetStream>>, TransportError> {
        let stream = match self {
            #[cfg(unix)]
            NetListener::Unix(l) => match l.accept() {
                Ok((s, _)) => {
                    s.set_nonblocking(false).map_err(|e| io_err("accept", &e))?;
                    NetStream::Unix(s)
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(None),
                Err(e) => return Err(io_err("accept", &e)),
            },
            NetListener::Tcp(l) => match l.accept() {
                Ok((s, _)) => {
                    s.set_nonblocking(false).map_err(|e| io_err("accept", &e))?;
                    NetStream::Tcp(s)
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(None),
                Err(e) => return Err(io_err("accept", &e)),
            },
        };
        Ok(Some(FramedTransport::new(stream, retry)))
    }
}

fn io_err(op: &'static str, e: &std::io::Error) -> TransportError {
    TransportError::Io {
        op,
        kind: e.kind(),
        detail: e.to_string(),
    }
}

/// Connects to a Unix-domain coordinator socket, retrying while the
/// listener comes up (bounded by `budget`).
#[cfg(unix)]
pub fn connect_uds(
    path: &std::path::Path,
    retry: RetryPolicy,
    budget: Duration,
) -> Result<FramedTransport<NetStream>, TransportError> {
    let deadline = Instant::now() + budget;
    loop {
        match UnixStream::connect(path) {
            Ok(s) => return Ok(FramedTransport::new(NetStream::Unix(s), retry)),
            Err(e) => {
                if Instant::now() >= deadline {
                    return Err(io_err("connect", &e));
                }
                std::thread::sleep(Duration::from_millis(10));
            }
        }
    }
}

/// Connects to a TCP coordinator socket, retrying while the listener
/// comes up (bounded by `budget`).
// lint:allow(dead-pub): README "Multi-process mode" promises UDS or TCP; no bin wires TCP in
pub fn connect_tcp(
    addr: &str,
    retry: RetryPolicy,
    budget: Duration,
) -> Result<FramedTransport<NetStream>, TransportError> {
    let deadline = Instant::now() + budget;
    loop {
        match TcpStream::connect(addr) {
            Ok(s) => return Ok(FramedTransport::new(NetStream::Tcp(s), retry)),
            Err(e) => {
                if Instant::now() >= deadline {
                    return Err(io_err("connect", &e));
                }
                std::thread::sleep(Duration::from_millis(10));
            }
        }
    }
}

/// The client half of the versioned handshake: announce `Hello`, await
/// `HelloAck`. A silent server is a typed [`TransportError::Timeout`], a
/// dead one [`TransportError::Disconnected`] — never a hang past
/// `timeout`.
pub(crate) fn client_handshake<T: Transport>(
    t: &mut T,
    ra: usize,
    timeout: Duration,
) -> Result<(), TransportError> {
    t.send(&WireMsg::Hello {
        version: PROTOCOL_VERSION,
        ra: ra as u64,
    })?;
    match t.recv_timeout(timeout)? {
        WireMsg::HelloAck { version } if version == PROTOCOL_VERSION => Ok(()),
        WireMsg::HelloAck { version } => Err(TransportError::VersionMismatch {
            ours: PROTOCOL_VERSION,
            theirs: version,
        }),
        WireMsg::Reject { code } => Err(TransportError::Rejected { code }),
        WireMsg::Hello { .. }
        | WireMsg::Register { .. }
        | WireMsg::RegisterAck { .. }
        | WireMsg::Refresh { .. }
        | WireMsg::Round(_)
        | WireMsg::Report { .. }
        | WireMsg::Ctl(_)
        | WireMsg::Down { .. } => Err(TransportError::HandshakeProtocol(
            "expected HelloAck or Reject",
        )),
    }
}

/// The server half of the versioned handshake: await `Hello`, answer
/// `HelloAck` — or `Reject`, before any ack, on a version mismatch or an
/// RA outside `0..n_ras`. Returns the RA the connection announces.
/// Bounded by `timeout`: a connecting-but-silent client cannot stall the
/// coordinator.
pub(crate) fn server_handshake<T: Transport>(
    t: &mut T,
    n_ras: usize,
    timeout: Duration,
) -> Result<usize, TransportError> {
    match t.recv_timeout(timeout)? {
        WireMsg::Hello { version, ra } if version == PROTOCOL_VERSION => {
            let ra = match usize::try_from(ra) {
                Ok(ra) if ra < n_ras => ra,
                _ => {
                    let _ = t.send(&WireMsg::Reject {
                        code: REJECT_UNKNOWN_RA,
                    });
                    return Err(TransportError::HandshakeProtocol("ra out of range"));
                }
            };
            t.send(&WireMsg::HelloAck {
                version: PROTOCOL_VERSION,
            })?;
            Ok(ra)
        }
        WireMsg::Hello { version, .. } => {
            let _ = t.send(&WireMsg::Reject {
                code: REJECT_VERSION,
            });
            Err(TransportError::VersionMismatch {
                ours: PROTOCOL_VERSION,
                theirs: version,
            })
        }
        WireMsg::HelloAck { .. }
        | WireMsg::Reject { .. }
        | WireMsg::Register { .. }
        | WireMsg::RegisterAck { .. }
        | WireMsg::Refresh { .. }
        | WireMsg::Round(_)
        | WireMsg::Report { .. }
        | WireMsg::Ctl(_)
        | WireMsg::Down { .. } => Err(TransportError::HandshakeProtocol("expected Hello")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Mutex};

    #[test]
    fn loopback_round_trips_and_reports_disconnect() {
        let (mut a, mut b) = loopback_pair();
        a.send(&WireMsg::Refresh { ra: 1, round: 4 }).unwrap();
        assert_eq!(
            b.recv_timeout(Duration::from_secs(1)).unwrap(),
            WireMsg::Refresh { ra: 1, round: 4 }
        );
        assert_eq!(
            b.recv_timeout(Duration::from_millis(5)),
            Err(TransportError::Timeout)
        );
        drop(a);
        assert_eq!(
            b.recv_timeout(Duration::from_millis(5)),
            Err(TransportError::Disconnected)
        );
        assert_eq!(
            b.send(&WireMsg::Refresh { ra: 1, round: 5 }),
            Err(TransportError::Disconnected)
        );
    }

    /// A scriptable byte stream: a shared in-memory pipe whose writes can
    /// be told to fail transiently or terminally.
    #[derive(Clone, Default)]
    struct FakeStream {
        inner: Arc<Mutex<FakeInner>>,
    }

    #[derive(Default)]
    struct FakeInner {
        data: Vec<u8>,
        transient_failures: usize,
        terminal: bool,
        eof: bool,
    }

    impl ByteStream for FakeStream {
        fn read_bytes(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let mut g = self.inner.lock().expect("invariant: test mutex unpoisoned");
            if g.data.is_empty() {
                if g.eof {
                    return Ok(0);
                }
                return Err(std::io::Error::new(ErrorKind::WouldBlock, "no data"));
            }
            let n = buf.len().min(g.data.len());
            buf[..n].copy_from_slice(&g.data[..n]);
            g.data.drain(..n);
            Ok(n)
        }

        fn write_bytes(&mut self, buf: &[u8]) -> std::io::Result<()> {
            let mut g = self.inner.lock().expect("invariant: test mutex unpoisoned");
            if g.terminal {
                return Err(std::io::Error::new(ErrorKind::BrokenPipe, "gone"));
            }
            if g.transient_failures > 0 {
                g.transient_failures -= 1;
                return Err(std::io::Error::new(ErrorKind::Interrupted, "flake"));
            }
            g.data.extend_from_slice(buf);
            Ok(())
        }

        fn set_read_timeout(&mut self, _t: Duration) -> std::io::Result<()> {
            Ok(())
        }

        fn kind(&self) -> &'static str {
            "fake"
        }
    }

    fn fast_retry() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 3,
            backoff_base: Duration::ZERO,
            backoff_max: Duration::ZERO,
            send_budget: Duration::from_secs(1),
        }
    }

    #[test]
    fn transient_write_failures_are_retried_and_counted() {
        let stream = FakeStream::default();
        stream.inner.lock().unwrap().transient_failures = 2;
        let mut t = FramedTransport::new(stream.clone(), fast_retry());
        t.send(&WireMsg::HelloAck { version: 1 }).unwrap();
        assert_eq!(
            t.take_stats(),
            LinkStats {
                retries: 2,
                abandoned: 0
            }
        );
        // The frame landed after the flakes: readable from the same pipe.
        let mut rx = FramedTransport::new(stream, fast_retry());
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(50)).unwrap(),
            WireMsg::HelloAck { version: 1 }
        );
    }

    #[test]
    fn retry_budget_is_bounded_then_typed() {
        let stream = FakeStream::default();
        stream.inner.lock().unwrap().transient_failures = 99;
        let mut t = FramedTransport::new(stream, fast_retry());
        let err = t.send(&WireMsg::HelloAck { version: 1 }).unwrap_err();
        assert!(
            matches!(err, TransportError::SendExhausted { attempts: 3, .. }),
            "{err:?}"
        );
        assert_eq!(t.take_stats().abandoned, 1);
    }

    #[test]
    fn terminal_write_failures_abandon_immediately() {
        let stream = FakeStream::default();
        stream.inner.lock().unwrap().terminal = true;
        let mut t = FramedTransport::new(stream, fast_retry());
        let err = t.send(&WireMsg::HelloAck { version: 1 }).unwrap_err();
        assert!(matches!(
            err,
            TransportError::SendExhausted { attempts: 1, .. }
        ));
        let stats = t.take_stats();
        assert_eq!(stats.retries, 0, "broken pipes are not retried");
        assert_eq!(stats.abandoned, 1);
    }

    #[test]
    fn partial_frames_are_buffered_across_reads() {
        let stream = FakeStream::default();
        let frame = frame::encode(&WireMsg::Refresh { ra: 2, round: 9 }).unwrap();
        // Feed the frame three bytes at a time.
        let mut t = FramedTransport::new(stream.clone(), fast_retry());
        for chunk in frame.chunks(3) {
            stream.inner.lock().unwrap().data.extend_from_slice(chunk);
            if stream.inner.lock().unwrap().data.is_empty() && chunk.len() < 3 {
                continue;
            }
        }
        assert_eq!(
            t.recv_timeout(Duration::from_millis(100)).unwrap(),
            WireMsg::Refresh { ra: 2, round: 9 }
        );
    }

    #[test]
    fn eof_mid_frame_is_disconnected_within_deadline() {
        let stream = FakeStream::default();
        let frame = frame::encode(&WireMsg::Refresh { ra: 2, round: 9 }).unwrap();
        {
            let mut g = stream.inner.lock().unwrap();
            g.data.extend_from_slice(&frame[..4]); // header cut short
            g.eof = true;
        }
        let mut t = FramedTransport::new(stream, fast_retry());
        assert_eq!(
            t.recv_timeout(Duration::from_millis(100)),
            Err(TransportError::Disconnected)
        );
    }

    #[test]
    fn garbage_bytes_surface_as_typed_frame_errors() {
        let stream = FakeStream::default();
        {
            let mut g = stream.inner.lock().unwrap();
            g.data.push(0xEE); // unknown tag
            g.data.extend_from_slice(&0u32.to_le_bytes());
        }
        let mut t = FramedTransport::new(stream, fast_retry());
        assert_eq!(
            t.recv_timeout(Duration::from_millis(100)),
            Err(TransportError::Frame(FrameError::UnknownTag(0xEE)))
        );
    }

    #[test]
    fn recv_deadline_is_honored() {
        let stream = FakeStream::default(); // never delivers
        let mut t = FramedTransport::new(stream, fast_retry());
        let start = Instant::now();
        assert_eq!(
            t.recv_timeout(Duration::from_millis(30)),
            Err(TransportError::Timeout)
        );
        assert!(start.elapsed() < Duration::from_secs(5), "must not hang");
    }

    #[test]
    fn handshake_happy_path_and_version_mismatch() {
        let (mut client, mut server) = loopback_pair();
        let t = std::thread::spawn(move || {
            let ra = server_handshake(&mut server, 8, Duration::from_secs(1)).unwrap();
            assert_eq!(ra, 5);
        });
        client_handshake(&mut client, 5, Duration::from_secs(1)).unwrap();
        t.join().unwrap();

        // A server that acks a different version is a typed mismatch.
        let (mut client, mut bad_server) = loopback_pair();
        bad_server
            .send(&WireMsg::HelloAck { version: 999 })
            .unwrap();
        let err = client_handshake(&mut client, 0, Duration::from_secs(1)).unwrap_err();
        assert_eq!(
            err,
            TransportError::VersionMismatch {
                ours: PROTOCOL_VERSION,
                theirs: 999
            }
        );
    }

    #[test]
    fn mid_handshake_disconnect_is_typed_not_hung() {
        let (mut client, server) = loopback_pair();
        drop(server); // peer dies before answering Hello
        let err = client_handshake(&mut client, 0, Duration::from_secs(5)).unwrap_err();
        assert_eq!(err, TransportError::Disconnected);

        // Server side: client connects then goes silent — bounded wait.
        let (client, mut server) = loopback_pair();
        let start = Instant::now();
        let err = server_handshake(&mut server, 1, Duration::from_millis(30)).unwrap_err();
        assert_eq!(err, TransportError::Timeout);
        assert!(start.elapsed() < Duration::from_secs(5));
        drop(client);
    }

    #[test]
    fn uds_sockets_carry_frames_end_to_end() {
        #[cfg(unix)]
        {
            let dir = std::env::temp_dir()
                .join(format!("edgeslice-transport-test-{}", std::process::id()));
            std::fs::create_dir_all(&dir).unwrap();
            let path = dir.join("t.sock");
            let _ = std::fs::remove_file(&path);
            let listener = NetListener::bind_uds(&path).unwrap();
            let clientside = std::thread::spawn({
                let path = path.clone();
                move || {
                    let mut t =
                        connect_uds(&path, RetryPolicy::default(), Duration::from_secs(2)).unwrap();
                    client_handshake(&mut t, 3, Duration::from_secs(2)).unwrap();
                    t.send(&WireMsg::Refresh { ra: 3, round: 1 }).unwrap();
                    t
                }
            });
            let mut server = loop {
                if let Some(t) = listener.poll_accept(RetryPolicy::default()).unwrap() {
                    break t;
                }
                std::thread::sleep(Duration::from_millis(5));
            };
            let ra = server_handshake(&mut server, 4, Duration::from_secs(2)).unwrap();
            assert_eq!(ra, 3);
            assert_eq!(
                server.recv_timeout(Duration::from_secs(2)).unwrap(),
                WireMsg::Refresh { ra: 3, round: 1 }
            );
            let client = clientside.join().unwrap();
            drop(client);
            // EOF after the peer drops: typed disconnect.
            assert_eq!(
                server.recv_timeout(Duration::from_secs(2)),
                Err(TransportError::Disconnected)
            );
            let _ = std::fs::remove_file(&path);
            let _ = std::fs::remove_dir(&dir);
        }
    }

    #[test]
    fn tcp_sockets_carry_frames_both_ways_and_report_hang_up() {
        let listener = NetListener::bind_tcp("127.0.0.1:0").unwrap();
        let addr = listener.tcp_addr().expect("a TCP listener has an address");
        let clientside = std::thread::spawn(move || {
            let mut t = connect_tcp(
                &addr.to_string(),
                RetryPolicy::default(),
                Duration::from_secs(2),
            )
            .unwrap();
            client_handshake(&mut t, 3, Duration::from_secs(2)).unwrap();
            t.send(&WireMsg::Refresh { ra: 3, round: 1 }).unwrap();
            assert_eq!(
                t.recv_timeout(Duration::from_secs(2)).unwrap(),
                WireMsg::Refresh { ra: 3, round: 2 }
            );
            // Dropping the transport hangs up.
        });
        let deadline = Instant::now() + Duration::from_secs(5);
        let mut server = loop {
            if let Some(t) = listener.poll_accept(RetryPolicy::default()).unwrap() {
                break t;
            }
            assert!(Instant::now() < deadline, "no peer connected");
            std::thread::sleep(Duration::from_millis(5));
        };
        assert_eq!(server.kind(), "tcp");
        let ra = server_handshake(&mut server, 4, Duration::from_secs(2)).unwrap();
        assert_eq!(ra, 3);
        assert_eq!(
            server.recv_timeout(Duration::from_secs(2)).unwrap(),
            WireMsg::Refresh { ra: 3, round: 1 }
        );
        server.send(&WireMsg::Refresh { ra: 3, round: 2 }).unwrap();
        clientside.join().unwrap();
        assert_eq!(
            server.recv_timeout(Duration::from_secs(2)),
            Err(TransportError::Disconnected)
        );
    }
}
