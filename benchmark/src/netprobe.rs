//! A benchmark-owned [`Transport`] wrapper: `run-net`'s trace point.
//!
//! `serve_ra`'s loop cannot be stepped from outside, so the networked
//! workload is traced where the benchmark can stand: around every `send`
//! and `recv_timeout` of every link, coordinator side and peer side. The
//! wrapper records one span per call and, at the sending end, the exact bytes
//! the frame occupies on the wire (by re-encoding it — traced runs only).
//! The receiving end does not: re-encoding every 38 KB `Report` on the
//! coordinator's thread would put the probe's own work into the round it
//! measures, while a peer re-encodes after its `send`, when it would
//! otherwise wait for the next `Round`.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use edgeslice_runtime::frame::{self, WireMsg};
use edgeslice_runtime::{LinkStats, Transport, TransportError};

use crate::trace::Span;

/// Span names of the wrapper.
pub mod span {
    /// A `send` call.
    pub const SEND: &str = "runtime.transport.send";
    /// A `recv_timeout` call that returned a frame.
    pub const RECV: &str = "runtime.transport.recv";
    /// A `recv_timeout` call that timed out or failed: pure waiting.
    pub const RECV_IDLE: &str = "runtime.transport.recv_idle";
}

/// What a frame is to the round protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameKind {
    /// A coordinator → worker `Round` broadcast.
    Round,
    /// A worker → coordinator `Report`.
    Report,
    /// Handshake, registration, refresh, control.
    Other,
}

/// One frame seen on a link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameSeen {
    /// Index (in the same log) of the span of the call that moved it.
    pub span: u32,
    /// Whether this end sent (true) or received (false) it.
    pub sent: bool,
    /// What it was.
    pub kind: FrameKind,
    /// Its round (0 for `Other`).
    pub round: u32,
    /// Its exact size on the wire, header included; 0 at the receiving end
    /// (the sender's log holds it).
    pub bytes: u32,
}

/// Everything one link's wrapper recorded.
#[derive(Debug, Default)]
pub struct LinkLog {
    /// One span per `send`/`recv_timeout` call.
    pub spans: Vec<Span>,
    /// Every frame that crossed this end of the link.
    pub frames: Vec<FrameSeen>,
}

/// A shared handle to a link's log.
pub type SharedLog = Arc<Mutex<LinkLog>>;

/// The wrapper.
pub struct Probe<T> {
    inner: T,
    origin: Instant,
    log: SharedLog,
}

impl<T> Probe<T> {
    /// Wraps `inner`; spans are stamped relative to `origin`.
    pub fn new(inner: T, origin: Instant, log: SharedLog) -> Self {
        Self { inner, origin, log }
    }

    fn note(&self, name: &'static str, start: Instant, sent: bool, msg: Option<&WireMsg>) {
        let end_ns = self.origin.elapsed().as_nanos() as u64;
        let start_ns = start.duration_since(self.origin).as_nanos() as u64;
        let (kind, round) = match msg {
            Some(WireMsg::Round(info)) => (FrameKind::Round, info.round as u32),
            Some(WireMsg::Report { round, .. }) => (FrameKind::Report, *round as u32),
            _ => (FrameKind::Other, 0),
        };
        let bytes = msg
            .filter(|_| sent)
            .and_then(|m| frame::encode(m).ok())
            .map_or(0, |b| b.len() as u32);
        // A poisoned log means another thread panicked mid-push; the
        // vectors are valid at every step, so keep recording.
        let mut log = self.log.lock().unwrap_or_else(|e| e.into_inner());
        let span = log.spans.len() as u32;
        log.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent: None,
            round,
        });
        if msg.is_some() {
            log.frames.push(FrameSeen {
                span,
                sent,
                kind,
                round,
                bytes,
            });
        }
    }
}

impl<T: Transport> Transport for Probe<T> {
    fn send(&mut self, msg: &WireMsg) -> Result<(), TransportError> {
        let start = Instant::now();
        let result = self.inner.send(msg);
        self.note(span::SEND, start, true, result.is_ok().then_some(msg));
        result
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Result<WireMsg, TransportError> {
        let start = Instant::now();
        let result = self.inner.recv_timeout(timeout);
        match &result {
            Ok(msg) => self.note(span::RECV, start, false, Some(msg)),
            Err(_) => self.note(span::RECV_IDLE, start, false, None),
        }
        result
    }

    fn take_stats(&mut self) -> LinkStats {
        self.inner.take_stats()
    }

    fn kind(&self) -> &'static str {
        self.inner.kind()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edgeslice_runtime::{loopback_pair, CoordInfo};

    #[test]
    fn probe_counts_exact_frame_bytes_and_tags_rounds() {
        let origin = Instant::now();
        let (a, b) = loopback_pair();
        let (log_a, log_b) = (SharedLog::default(), SharedLog::default());
        let mut a = Probe::new(a, origin, Arc::clone(&log_a));
        let mut b = Probe::new(b, origin, Arc::clone(&log_b));
        let msg = WireMsg::Round(CoordInfo {
            round: 7,
            ra: 1,
            zy: vec![1.5, -2.5],
            lifecycle: Vec::new(),
        });
        a.send(&msg).unwrap();
        assert_eq!(b.recv_timeout(Duration::from_secs(1)).unwrap(), msg);
        assert!(b.recv_timeout(Duration::from_millis(1)).is_err());

        let wire = frame::encode(&msg).unwrap().len() as u32;
        let seen_a = log_a.lock().unwrap().frames.clone();
        let seen_b = log_b.lock().unwrap().frames.clone();
        let expect = |sent, bytes| FrameSeen {
            span: 0,
            sent,
            kind: FrameKind::Round,
            round: 7,
            bytes,
        };
        assert_eq!(seen_a, vec![expect(true, wire)]);
        assert_eq!(seen_b, vec![expect(false, 0)], "only the sender sizes it");
        let names: Vec<_> = log_b.lock().unwrap().spans.iter().map(|s| s.name).collect();
        assert_eq!(names, vec![span::RECV, span::RECV_IDLE]);
    }
}
