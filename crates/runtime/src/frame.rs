//! The length-prefixed wire format for the networked runtime.
//!
//! Every message crossing a transport is one *frame*:
//!
//! ```text
//! ┌─────────┬──────────────┬───────────────────┐
//! │ tag: u8 │ len: u32 LE  │ payload: len bytes │
//! └─────────┴──────────────┴───────────────────┘
//! ```
//!
//! The payload encoding is hand-rolled little-endian (the runtime crate is
//! dependency-free by design): integers as fixed-width LE, `f64` as its
//! IEEE-754 bit pattern (bit-exact round-trip — the determinism contract
//! extends across the wire), sequences as a `u32` count followed by the
//! elements, byte strings as a `u32` length followed by the bytes.
//!
//! Decoding NEVER panics: truncated frames, oversized length prefixes,
//! unknown tags, trailing garbage, and malformed payloads all surface as a
//! typed [`FrameError`]. Length prefixes are validated against
//! `MAX_PAYLOAD_LEN` *before* any allocation, so a hostile or corrupt
//! peer cannot trigger an allocation bomb.

use crate::msg::{Control, CoordInfo};

/// Version carried in the `Hello`/`HelloAck` handshake. Peers with
/// different versions refuse to talk (typed
/// [`crate::TransportError::VersionMismatch`]), never mis-parse.
///
/// History: v2 added the slice-lifecycle byte sequence to the `Round`
/// frame (dynamic workloads).
pub const PROTOCOL_VERSION: u32 = 2;

/// Upper bound on a frame payload (1 MiB). A length prefix beyond this is
/// rejected as [`FrameError::Oversized`] before allocating.
pub(crate) const MAX_PAYLOAD_LEN: usize = 1 << 20;

/// Bytes in the frame header (`tag` + `len`).
pub const HEADER_LEN: usize = 5;

/// Rejection code: peer speaks an incompatible protocol version.
pub(crate) const REJECT_VERSION: u32 = 1;
/// Rejection code: the announced RA index is outside the coordinator's
/// worker range.
pub(crate) const REJECT_UNKNOWN_RA: u32 = 2;

/// A typed frame-decode failure. Every variant is a protocol observation,
/// not a crash: the codec is total over arbitrary byte strings.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The buffer ended before the announced frame did.
    Truncated {
        /// Bytes the frame (or field) announced.
        needed: usize,
        /// Bytes actually available.
        have: usize,
    },
    /// The length prefix exceeds `MAX_PAYLOAD_LEN`.
    Oversized {
        /// The announced payload length.
        len: usize,
        /// The enforced maximum.
        max: usize,
    },
    /// The tag byte names no known message.
    UnknownTag(u8),
    /// The payload decoded cleanly but left unconsumed bytes behind.
    Trailing {
        /// Leftover byte count.
        extra: usize,
    },
    /// A field held a value outside its domain (bad bool byte, unknown
    /// control kind, invalid UTF-8, ...).
    BadValue(&'static str),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Truncated { needed, have } => {
                write!(f, "truncated frame: needed {needed} bytes, have {have}")
            }
            FrameError::Oversized { len, max } => {
                write!(f, "oversized frame: payload {len} exceeds max {max}")
            }
            FrameError::UnknownTag(tag) => write!(f, "unknown frame tag {tag:#04x}"),
            FrameError::Trailing { extra } => {
                write!(f, "malformed payload: {extra} trailing bytes")
            }
            FrameError::BadValue(what) => write!(f, "malformed payload: bad {what}"),
        }
    }
}

impl std::error::Error for FrameError {}

/// The complete wire vocabulary: handshake, registration plane, and the
/// round protocol ([`CoordInfo`] down, report up, [`Control`] sideband).
/// Report bodies cross the wire as opaque bytes — the orchestration layer
/// owns their encoding, the runtime only frames them.
#[derive(Debug, Clone, PartialEq)]
pub enum WireMsg {
    /// Client → server: first frame on a connection.
    Hello {
        /// The client's [`PROTOCOL_VERSION`].
        version: u32,
        /// The RA this connection serves.
        ra: u64,
    },
    /// Server → client: handshake accepted (versions match).
    HelloAck {
        /// The server's [`PROTOCOL_VERSION`].
        version: u32,
    },
    /// Server → client: connection refused; see the `REJECT_*` codes.
    Reject {
        /// Why the connection was refused.
        code: u32,
    },
    /// Worker → coordinator: ε-ORC-style node registration.
    Register {
        /// The registering RA.
        ra: u64,
        /// Capability bitmask (see [`crate::registration::caps`]).
        capabilities: u32,
        /// Advertised capacity (slices servable).
        capacity: f64,
        /// The node's self-declared failure deadline: rounds without a
        /// refresh after which it must be considered down.
        lease_rounds: u64,
    },
    /// Coordinator → worker: registration recorded.
    RegisterAck {
        /// The next round the coordinator will broadcast.
        next_round: u64,
        /// Whether this registration re-joined a previously expired node.
        rejoin: bool,
    },
    /// Worker → coordinator: lease refresh, tagged with the last round the
    /// worker processed so liveness accounting stays round-deterministic.
    Refresh {
        /// The refreshing RA.
        ra: u64,
        /// The last round the worker served.
        round: u64,
    },
    /// Coordinator → worker: one round's `z − y` broadcast.
    Round(CoordInfo),
    /// Worker → coordinator: one round's outcome; `body` is the
    /// orchestration payload, already encoded.
    Report {
        /// The reporting RA.
        ra: u64,
        /// The round the report belongs to.
        round: u64,
        /// The report exists but missed its deadline (straggler).
        deadline_missed: bool,
        /// Encoded round outcome, or `None` for a dark RA.
        body: Option<Vec<u8>>,
    },
    /// Coordinator → worker: a control message.
    Ctl(Control),
    /// Worker → coordinator: the worker's supervisor downed it and it
    /// cannot report this round; mirrors the in-process supervisor's down
    /// event.
    Down {
        /// The downed RA.
        ra: u64,
        /// The round the failure was observed in.
        round: u64,
        /// The [`crate::DownCause`] as its `Display` text (`"panic: …"`,
        /// `"restart budget exhausted"`); the coordinator reads it back
        /// typed, and a foreign peer's free text as a panic message.
        cause: String,
    },
}

impl WireMsg {
    /// The tag byte this message is framed under.
    pub(crate) fn tag(&self) -> Tag {
        match self {
            WireMsg::Hello { .. } => Tag::Hello,
            WireMsg::HelloAck { .. } => Tag::HelloAck,
            WireMsg::Reject { .. } => Tag::Reject,
            WireMsg::Register { .. } => Tag::Register,
            WireMsg::RegisterAck { .. } => Tag::RegisterAck,
            WireMsg::Refresh { .. } => Tag::Refresh,
            WireMsg::Round(_) => Tag::Round,
            WireMsg::Report { .. } => Tag::Report,
            WireMsg::Ctl(_) => Tag::Ctl,
            WireMsg::Down { .. } => Tag::Down,
        }
    }
}

/// A frame's first byte, one per [`WireMsg`] variant. rustc holds the
/// protocol's shape: a duplicate byte is E0081, and [`WireMsg::tag`] and
/// [`decode`] are exhaustive matches, so a new variant without its tag or
/// its decoder arm does not build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub(crate) enum Tag {
    Hello = 1,
    HelloAck = 2,
    Reject = 3,
    Register = 4,
    RegisterAck = 5,
    Refresh = 6,
    Round = 7,
    Report = 8,
    Ctl = 9,
    Down = 10,
}

impl Tag {
    /// Every tag, for decoding a byte back to its tag. The one list rustc
    /// does not check: the round-trip tests do, through one sample frame
    /// per tag.
    const ALL: [Tag; 10] = [
        Tag::Hello,
        Tag::HelloAck,
        Tag::Reject,
        Tag::Register,
        Tag::RegisterAck,
        Tag::Refresh,
        Tag::Round,
        Tag::Report,
        Tag::Ctl,
        Tag::Down,
    ];
}

impl TryFrom<u8> for Tag {
    type Error = FrameError;

    fn try_from(byte: u8) -> Result<Self, FrameError> {
        Tag::ALL
            .into_iter()
            .find(|&tag| tag as u8 == byte)
            .ok_or(FrameError::UnknownTag(byte))
    }
}

/// The one control kind. Kinds 0 and 1 named a checkpoint and a rejoin
/// request that no v2 coordinator ever sent (workers take both from their
/// fault view), so they are retired without a version bump and decode as
/// a bad value; `Shutdown` keeps its byte.
const CTL_SHUTDOWN: u8 = 2;

/// Encodes `msg` as one complete frame (header + payload). Fails only if
/// the payload would exceed `MAX_PAYLOAD_LEN` (an oversized report
/// body).
pub fn encode(msg: &WireMsg) -> Result<Vec<u8>, FrameError> {
    let mut p = Vec::with_capacity(64);
    match msg {
        WireMsg::Hello { version, ra } => {
            put_u32(&mut p, *version);
            put_u64(&mut p, *ra);
        }
        WireMsg::HelloAck { version } => put_u32(&mut p, *version),
        WireMsg::Reject { code } => put_u32(&mut p, *code),
        WireMsg::Register {
            ra,
            capabilities,
            capacity,
            lease_rounds,
        } => {
            put_u64(&mut p, *ra);
            put_u32(&mut p, *capabilities);
            put_f64(&mut p, *capacity);
            put_u64(&mut p, *lease_rounds);
        }
        WireMsg::RegisterAck { next_round, rejoin } => {
            put_u64(&mut p, *next_round);
            p.push(u8::from(*rejoin));
        }
        WireMsg::Refresh { ra, round } => {
            put_u64(&mut p, *ra);
            put_u64(&mut p, *round);
        }
        WireMsg::Round(info) => {
            put_u64(&mut p, info.round as u64);
            put_u64(&mut p, info.ra as u64);
            put_f64_seq(&mut p, &info.zy)?;
            put_bytes(&mut p, &info.lifecycle)?;
        }
        WireMsg::Report {
            ra,
            round,
            deadline_missed,
            body,
        } => {
            put_u64(&mut p, *ra);
            put_u64(&mut p, *round);
            p.push(u8::from(*deadline_missed));
            match body {
                None => p.push(0),
                Some(bytes) => {
                    p.push(1);
                    put_bytes(&mut p, bytes)?;
                }
            }
        }
        WireMsg::Ctl(Control::Shutdown) => {
            p.push(CTL_SHUTDOWN);
            put_u64(&mut p, 0); // A round field no kind left reads.
        }
        WireMsg::Down { ra, round, cause } => {
            put_u64(&mut p, *ra);
            put_u64(&mut p, *round);
            put_bytes(&mut p, cause.as_bytes())?;
        }
    }
    if p.len() > MAX_PAYLOAD_LEN {
        return Err(FrameError::Oversized {
            len: p.len(),
            max: MAX_PAYLOAD_LEN,
        });
    }
    let mut frame = Vec::with_capacity(HEADER_LEN + p.len());
    frame.push(msg.tag() as u8);
    frame.extend_from_slice(&(p.len() as u32).to_le_bytes());
    frame.extend_from_slice(&p);
    Ok(frame)
}

/// Inspects a (possibly partial) buffer: `Ok(Some(total))` when the header
/// is readable and announces a `total`-byte frame (header included);
/// `Ok(None)` when more header bytes are needed; `Err` when the header
/// itself is invalid (oversized length prefix) — the streaming reader's
/// "how much to read next" primitive.
pub(crate) fn frame_len(buf: &[u8]) -> Result<Option<usize>, FrameError> {
    if buf.len() < HEADER_LEN {
        return Ok(None);
    }
    let mut len_bytes = [0u8; 4];
    len_bytes.copy_from_slice(&buf[1..HEADER_LEN]);
    let len = u32::from_le_bytes(len_bytes) as usize;
    if len > MAX_PAYLOAD_LEN {
        return Err(FrameError::Oversized {
            len,
            max: MAX_PAYLOAD_LEN,
        });
    }
    Ok(Some(HEADER_LEN + len))
}

/// Decodes exactly one complete frame from the front of `buf`, returning
/// the message and the bytes consumed. A buffer shorter than the frame is
/// [`FrameError::Truncated`] (streaming readers call `frame_len` first
/// and only decode complete frames, so `Truncated` there means EOF
/// mid-frame).
pub fn decode(buf: &[u8]) -> Result<(WireMsg, usize), FrameError> {
    let total = match frame_len(buf)? {
        Some(total) => total,
        None => {
            return Err(FrameError::Truncated {
                needed: HEADER_LEN,
                have: buf.len(),
            })
        }
    };
    if buf.len() < total {
        return Err(FrameError::Truncated {
            needed: total,
            have: buf.len(),
        });
    }
    let tag = Tag::try_from(buf.first().copied().unwrap_or_default())?;
    let mut r = Reader {
        buf: &buf[HEADER_LEN..total],
        pos: 0,
    };
    let msg = match tag {
        Tag::Hello => WireMsg::Hello {
            version: r.u32()?,
            ra: r.u64()?,
        },
        Tag::HelloAck => WireMsg::HelloAck { version: r.u32()? },
        Tag::Reject => WireMsg::Reject { code: r.u32()? },
        Tag::Register => WireMsg::Register {
            ra: r.u64()?,
            capabilities: r.u32()?,
            capacity: r.f64()?,
            lease_rounds: r.u64()?,
        },
        Tag::RegisterAck => WireMsg::RegisterAck {
            next_round: r.u64()?,
            rejoin: r.bool()?,
        },
        Tag::Refresh => WireMsg::Refresh {
            ra: r.u64()?,
            round: r.u64()?,
        },
        Tag::Round => {
            let round = r.index()?;
            let ra = r.index()?;
            let zy = r.f64_seq()?;
            let lifecycle = r.bytes()?.to_vec();
            WireMsg::Round(CoordInfo {
                round,
                ra,
                zy,
                lifecycle,
            })
        }
        Tag::Report => {
            let ra = r.u64()?;
            let round = r.u64()?;
            let deadline_missed = r.bool()?;
            let body = if r.bool()? {
                Some(r.bytes()?.to_vec())
            } else {
                None
            };
            WireMsg::Report {
                ra,
                round,
                deadline_missed,
                body,
            }
        }
        Tag::Ctl => {
            if r.u8()? != CTL_SHUTDOWN {
                return Err(FrameError::BadValue("control kind"));
            }
            r.u64()?; // The unread round field.
            WireMsg::Ctl(Control::Shutdown)
        }
        Tag::Down => {
            let ra = r.u64()?;
            let round = r.u64()?;
            let cause = match String::from_utf8(r.bytes()?.to_vec()) {
                Ok(s) => s,
                Err(_) => return Err(FrameError::BadValue("utf-8 string")),
            };
            WireMsg::Down { ra, round, cause }
        }
    };
    let extra = r.remaining();
    if extra > 0 {
        return Err(FrameError::Trailing { extra });
    }
    Ok((msg, total))
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_bits().to_le_bytes());
}

fn put_bytes(out: &mut Vec<u8>, bytes: &[u8]) -> Result<(), FrameError> {
    if bytes.len() > MAX_PAYLOAD_LEN {
        return Err(FrameError::Oversized {
            len: bytes.len(),
            max: MAX_PAYLOAD_LEN,
        });
    }
    put_u32(out, bytes.len() as u32);
    out.extend_from_slice(bytes);
    Ok(())
}

fn put_f64_seq(out: &mut Vec<u8>, xs: &[f64]) -> Result<(), FrameError> {
    if xs.len() > MAX_PAYLOAD_LEN / 8 {
        return Err(FrameError::Oversized {
            len: xs.len() * 8,
            max: MAX_PAYLOAD_LEN,
        });
    }
    put_u32(out, xs.len() as u32);
    for &x in xs {
        put_f64(out, x);
    }
    Ok(())
}

/// A bounds-checked payload cursor: every read is total, returning
/// [`FrameError::Truncated`] instead of slicing out of range.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], FrameError> {
        let have = self.buf.len() - self.pos;
        if n > have {
            return Err(FrameError::Truncated { needed: n, have });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn u8(&mut self) -> Result<u8, FrameError> {
        Ok(self.take(1)?.first().copied().unwrap_or_default())
    }

    fn bool(&mut self) -> Result<bool, FrameError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(FrameError::BadValue("bool byte")),
        }
    }

    fn u32(&mut self) -> Result<u32, FrameError> {
        let mut b = [0u8; 4];
        b.copy_from_slice(self.take(4)?);
        Ok(u32::from_le_bytes(b))
    }

    fn u64(&mut self) -> Result<u64, FrameError> {
        let mut b = [0u8; 8];
        b.copy_from_slice(self.take(8)?);
        Ok(u64::from_le_bytes(b))
    }

    fn f64(&mut self) -> Result<f64, FrameError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// A `u64` narrowed to `usize` (round/RA indices).
    fn index(&mut self) -> Result<usize, FrameError> {
        usize::try_from(self.u64()?).map_err(|_| FrameError::BadValue("index width"))
    }

    fn bytes(&mut self) -> Result<&'a [u8], FrameError> {
        let len = self.u32()? as usize;
        // Validate against the remaining payload *before* `take` so a
        // hostile length can never drive an allocation.
        let have = self.remaining();
        if len > have {
            return Err(FrameError::Truncated { needed: len, have });
        }
        self.take(len)
    }

    fn f64_seq(&mut self) -> Result<Vec<f64>, FrameError> {
        let count = self.u32()? as usize;
        let have = self.remaining();
        if count.saturating_mul(8) > have {
            return Err(FrameError::Truncated {
                needed: count.saturating_mul(8),
                have,
            });
        }
        let mut xs = Vec::with_capacity(count);
        for _ in 0..count {
            xs.push(self.f64()?);
        }
        Ok(xs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples() -> Vec<WireMsg> {
        vec![
            WireMsg::Hello {
                version: PROTOCOL_VERSION,
                ra: 3,
            },
            WireMsg::HelloAck {
                version: PROTOCOL_VERSION,
            },
            WireMsg::Reject {
                code: REJECT_VERSION,
            },
            WireMsg::Register {
                ra: 1,
                capabilities: 0b101,
                capacity: 3.5,
                lease_rounds: 2,
            },
            WireMsg::RegisterAck {
                next_round: 7,
                rejoin: true,
            },
            WireMsg::Refresh { ra: 0, round: 41 },
            WireMsg::Round(CoordInfo {
                round: 12,
                ra: 1,
                zy: vec![0.25, -1.5, f64::MIN_POSITIVE, 0.1 + 0.2],
                lifecycle: vec![7, 0, 255, 1],
            }),
            WireMsg::Round(CoordInfo {
                round: 13,
                ra: 0,
                zy: vec![],
                lifecycle: vec![],
            }),
            WireMsg::Report {
                ra: 2,
                round: 12,
                deadline_missed: true,
                body: Some(vec![0, 1, 2, 255]),
            },
            WireMsg::Report {
                ra: 2,
                round: 13,
                deadline_missed: false,
                body: None,
            },
            WireMsg::Ctl(Control::Shutdown),
            WireMsg::Down {
                ra: 1,
                round: 4,
                cause: "panic: injected".to_string(),
            },
        ]
    }

    #[test]
    fn every_message_round_trips_bit_exactly() {
        for msg in samples() {
            let frame = encode(&msg).expect("encode");
            let (decoded, consumed) = decode(&frame).expect("decode");
            assert_eq!(consumed, frame.len());
            assert_eq!(decoded, msg, "round-trip mismatch");
        }
    }

    #[test]
    fn every_tag_decodes_to_itself_and_has_a_sample() {
        let sampled: std::collections::BTreeSet<u8> =
            samples().iter().map(|m| m.tag() as u8).collect();
        assert_eq!(sampled.len(), Tag::ALL.len());
        for tag in Tag::ALL {
            assert_eq!(Tag::try_from(tag as u8), Ok(tag));
            assert!(sampled.contains(&(tag as u8)), "no sample of {tag:?}");
        }
    }

    #[test]
    fn f64_payloads_round_trip_by_bits() {
        for x in [0.0, -0.0, 1.0 / 3.0, f64::MAX, f64::MIN_POSITIVE, 1e-300] {
            let msg = WireMsg::Round(CoordInfo {
                round: 0,
                ra: 0,
                zy: vec![x],
                lifecycle: Vec::new(),
            });
            let (decoded, _) = decode(&encode(&msg).unwrap()).unwrap();
            let WireMsg::Round(info) = decoded else {
                panic!("wrong variant");
            };
            assert_eq!(info.zy[0].to_bits(), x.to_bits());
        }
    }

    #[test]
    fn truncated_frames_are_typed_never_panic() {
        // Fuzz-style: every strict prefix of every sample frame decodes to
        // a typed Truncated error (or, for header prefixes, needs-more).
        for msg in samples() {
            let frame = encode(&msg).unwrap();
            for cut in 0..frame.len() {
                let prefix = &frame[..cut];
                match decode(prefix) {
                    Err(FrameError::Truncated { .. }) => {}
                    other => panic!("prefix {cut}/{} of {msg:?}: {other:?}", frame.len()),
                }
                // The streaming primitive agrees: short header => None,
                // short payload => known total length.
                match frame_len(prefix) {
                    Ok(None) => assert!(cut < HEADER_LEN),
                    Ok(Some(total)) => assert_eq!(total, frame.len()),
                    Err(e) => panic!("frame_len on prefix {cut}: {e}"),
                }
            }
        }
    }

    #[test]
    fn oversized_length_prefix_is_rejected_before_allocation() {
        let mut frame = vec![Tag::Report as u8];
        frame.extend_from_slice(&(u32::MAX).to_le_bytes());
        assert_eq!(
            frame_len(&frame),
            Err(FrameError::Oversized {
                len: u32::MAX as usize,
                max: MAX_PAYLOAD_LEN,
            })
        );
        assert!(matches!(decode(&frame), Err(FrameError::Oversized { .. })));
    }

    #[test]
    fn unknown_and_garbage_tags_are_typed() {
        for tag in [0u8, 42, 99, 255] {
            let mut frame = vec![tag];
            frame.extend_from_slice(&0u32.to_le_bytes());
            assert_eq!(decode(&frame), Err(FrameError::UnknownTag(tag)));
        }
    }

    #[test]
    fn inner_length_bombs_are_truncated_not_allocated() {
        // A Report whose body length field claims 500 KiB with 4 bytes
        // present: the decoder must reject without allocating 500 KiB.
        let mut p = Vec::new();
        put_u64(&mut p, 0); // ra
        put_u64(&mut p, 0); // round
        p.push(0); // deadline_missed
        p.push(1); // has body
        put_u32(&mut p, 512 * 1024); // hostile body length
        p.extend_from_slice(&[1, 2, 3, 4]);
        let mut frame = vec![Tag::Report as u8];
        frame.extend_from_slice(&(p.len() as u32).to_le_bytes());
        frame.extend_from_slice(&p);
        assert!(matches!(
            decode(&frame),
            Err(FrameError::Truncated { needed, .. }) if needed == 512 * 1024
        ));
        // Same for a Round claiming 2^31 f64s.
        let mut p = Vec::new();
        put_u64(&mut p, 0);
        put_u64(&mut p, 0);
        put_u32(&mut p, u32::MAX / 2);
        let mut frame = vec![Tag::Round as u8];
        frame.extend_from_slice(&(p.len() as u32).to_le_bytes());
        frame.extend_from_slice(&p);
        assert!(matches!(decode(&frame), Err(FrameError::Truncated { .. })));
    }

    #[test]
    fn trailing_bytes_and_bad_values_are_typed() {
        // Trailing garbage after a valid HelloAck payload.
        let mut frame = vec![Tag::HelloAck as u8];
        frame.extend_from_slice(&8u32.to_le_bytes());
        frame.extend_from_slice(&PROTOCOL_VERSION.to_le_bytes());
        frame.extend_from_slice(&[0xde, 0xad, 0xbe, 0xef]);
        assert_eq!(decode(&frame), Err(FrameError::Trailing { extra: 4 }));
        // Bad bool byte in a RegisterAck.
        let mut p = Vec::new();
        put_u64(&mut p, 1);
        p.push(7); // rejoin flag must be 0/1
        let mut frame = vec![Tag::RegisterAck as u8];
        frame.extend_from_slice(&(p.len() as u32).to_le_bytes());
        frame.extend_from_slice(&p);
        assert_eq!(decode(&frame), Err(FrameError::BadValue("bool byte")));
        // An unknown control kind, and the two retired ones.
        for kind in [9, 0, 1] {
            let mut p = vec![kind];
            put_u64(&mut p, 0);
            let mut frame = vec![Tag::Ctl as u8];
            frame.extend_from_slice(&(p.len() as u32).to_le_bytes());
            frame.extend_from_slice(&p);
            assert_eq!(
                decode(&frame),
                Err(FrameError::BadValue("control kind")),
                "kind {kind}"
            );
        }
        // `Shutdown` keeps its byte.
        assert_eq!(
            encode(&WireMsg::Ctl(Control::Shutdown)).unwrap()[5],
            CTL_SHUTDOWN
        );
    }

    #[test]
    fn random_byte_soup_never_panics() {
        // Deterministic xorshift soup: decode must return *something* typed
        // for every slice — the codec is total.
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut soup = Vec::with_capacity(4096);
        for _ in 0..4096 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            soup.push((state & 0xff) as u8);
        }
        for start in (0..soup.len()).step_by(7) {
            let slice = &soup[start..];
            let _ = decode(slice); // must not panic
            let _ = frame_len(slice);
        }
    }

    #[test]
    fn oversized_encode_is_refused() {
        let msg = WireMsg::Report {
            ra: 0,
            round: 0,
            deadline_missed: false,
            body: Some(vec![0u8; MAX_PAYLOAD_LEN + 1]),
        };
        assert!(matches!(encode(&msg), Err(FrameError::Oversized { .. })));
    }
}
