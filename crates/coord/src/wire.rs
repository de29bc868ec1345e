//! Length-prefixed, versioned wire protocol for the campaign service.
//!
//! The codec is dependency-free and fully deterministic. Every message
//! travels in one frame:
//!
//! ```text
//! [payload length: u32 BE][payload][FNV-1a-64(payload): u64 BE]
//! ```
//!
//! The payload's first byte is the message tag; all integers are
//! big-endian and strings are `[length: u32 BE][UTF-8 bytes]`. A frame
//! longer than [`MAX_FRAME`] is rejected before any allocation sized
//! from the length prefix, a frame whose trailing checksum does not
//! match is rejected without being parsed, and every malformed input
//! maps to a typed [`WireError`] — the decoder never panics.
//!
//! Protocol evolution is guarded twice: the [`PROTOCOL_VERSION`] string
//! is exchanged in the `Hello`/`Welcome` handshake (mismatched peers
//! are rejected before any lease moves), and the on-wire layout is
//! FNV-fingerprinted ([`WIRE_FINGERPRINT`] over the [`WIRE_DESCRIPTOR`]
//! region below) so `therm3d_lint`'s salt-drift rule fails CI whenever
//! the frame shape changes without a version bump — exactly the
//! mechanism that guards the sweep cache's cell descriptor.

use std::fmt;
use std::io::{ErrorKind, Read, Write};

/// Version string exchanged in the `Hello`/`Welcome` handshake. Bump it
/// (and re-record [`WIRE_FINGERPRINT`]) whenever the frame layout or
/// message set changes incompatibly.
pub const PROTOCOL_VERSION: &str = "therm3d-coord/v2";

/// Hard ceiling on a frame's payload length. Large enough for a
/// `ResultBatch` covering any realistic lease (result lines are a few
/// hundred bytes each), small enough that a corrupt length prefix can
/// never drive an allocation into the gigabytes.
pub const MAX_FRAME: usize = 16 * 1024 * 1024;

/// FNV-1a-64 fingerprint of [`WIRE_DESCRIPTOR`] (salted with
/// [`PROTOCOL_VERSION`]), recorded so the lint can detect drift: editing
/// the descriptor region without bumping the protocol version fails
/// `therm3d_lint`. The failing lint prints the expected value.
pub const WIRE_FINGERPRINT: u64 = 0xc569_cf6a_4c55_1a10;

// The protocol's on-wire shape as one canonical string. This is what
// the lint fingerprints: any change to the framing or message layout
// must edit this descriptor, and editing it without bumping
// PROTOCOL_VERSION (and re-recording WIRE_FINGERPRINT) is a CI failure.
// lint: region(fingerprint: wire-protocol)
/// Canonical one-line description of the wire format, fingerprinted by
/// the lint's salt-drift rule (see [`WIRE_FINGERPRINT`]).
pub const WIRE_DESCRIPTOR: &str = "frame=[len:u32be][payload][fnv1a64:u64be];max_frame=16MiB;\
     ints=be;string=[len:u32be][utf8];payload=[tag:u8][fields];\
     hello:1{protocol:string,engine:string};\
     welcome:2{spec_toml:string,total_cells:u64,lease_cells:u64};\
     lease_request:3{};\
     lease_grant:4{lease_id:u64,start:u64,len:u64;len>=1};\
     result_batch:5{lease_id:u64,rows:[count:u32][(cell:u64,line:string)]};\
     heartbeat:6{lease_id:u64};\
     drain:7{};\
     ack:8{};\
     reject:9{reason:string}";
// lint: end-region

/// Typed decode/transport failure. Every malformed input maps here —
/// the codec never panics on wire data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ends before the frame does (length prefix, payload
    /// or trailing checksum). Read more bytes and retry.
    Truncated,
    /// The length prefix exceeds [`MAX_FRAME`]; the payload length is
    /// carried for diagnostics.
    Oversized(usize),
    /// The trailing FNV-64 does not match the payload (bit corruption
    /// in transit or a desynchronized stream).
    Checksum,
    /// The payload's leading tag byte names no known message.
    UnknownTag(u8),
    /// The frame is intact but its fields do not parse (short string,
    /// invalid UTF-8, trailing bytes, ...).
    Malformed(String),
    /// The peer closed the connection cleanly at a frame boundary.
    Closed,
    /// An underlying socket/file error.
    Io(String),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Truncated => write!(f, "truncated frame"),
            Self::Oversized(n) => write!(f, "oversized frame: {n} bytes > {MAX_FRAME}"),
            Self::Checksum => write!(f, "frame checksum mismatch"),
            Self::UnknownTag(t) => write!(f, "unknown message tag {t}"),
            Self::Malformed(why) => write!(f, "malformed payload: {why}"),
            Self::Closed => write!(f, "connection closed"),
            Self::Io(why) => write!(f, "i/o error: {why}"),
        }
    }
}

impl std::error::Error for WireError {}

/// The campaign service's message set. Tags and layouts are recorded in
/// [`WIRE_DESCRIPTOR`]; the conversation is strict request/response
/// (worker sends `Hello`/`LeaseRequest`/`ResultBatch`/`Heartbeat`, the
/// coordinator answers `Welcome`/`LeaseGrant`/`Drain`/`Ack`/`Reject`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Msg {
    /// Worker → coordinator handshake: protocol and engine versions.
    /// Either mismatch is answered with `Reject` — a worker built
    /// against a different cache salt would poison the result store.
    Hello {
        /// The worker's [`PROTOCOL_VERSION`].
        protocol: String,
        /// The worker's `therm3d_sweep::ENGINE_VERSION` (cache salt).
        engine: String,
    },
    /// Coordinator → worker handshake reply: the canonical spec (as
    /// TOML, so the worker expands the identical matrix) plus campaign
    /// dimensions for logging.
    Welcome {
        /// The full sweep spec, serialized with `therm3d_sweep::to_toml`.
        spec_toml: String,
        /// Canonical expansion size.
        total_cells: u64,
        /// Cells per lease the coordinator will grant.
        lease_cells: u64,
    },
    /// Worker → coordinator: ready for (more) work. Answered with a
    /// `LeaseGrant` or `Drain`; while other workers hold every
    /// remaining range, the answer waits until one is re-queued or the
    /// campaign completes.
    LeaseRequest,
    /// Coordinator → worker: a leased range of canonical cell indices
    /// `start .. start + len`.
    LeaseGrant {
        /// Coordinator-assigned lease id, echoed in results/heartbeats.
        lease_id: u64,
        /// First canonical cell index of the range.
        start: u64,
        /// Number of cells in the range (at least 1).
        len: u64,
    },
    /// Worker → coordinator: completed cells from a lease. Batches may
    /// be partial (a throttled worker streams one cell at a time); the
    /// lease completes when every cell of its range has arrived.
    ResultBatch {
        /// The lease these rows belong to.
        lease_id: u64,
        /// `(canonical cell index, encoded result line)` pairs; the
        /// line is the sweep cache's checksummed `results.tsv` codec
        /// (`therm3d_sweep::cache::encode_line`).
        rows: Vec<(u64, String)>,
    },
    /// Worker → coordinator: still alive on this lease; extends the
    /// lease deadline.
    Heartbeat {
        /// The lease being kept alive.
        lease_id: u64,
    },
    /// Coordinator → worker: the campaign is complete; disconnect.
    Drain,
    /// Coordinator → worker: positive acknowledgement of a
    /// `ResultBatch` or `Heartbeat`.
    Ack,
    /// Coordinator → worker: the request was refused (version mismatch,
    /// unknown lease, corrupt rows); the connection closes after this.
    Reject {
        /// Human-readable refusal reason.
        reason: String,
    },
}

/// FNV-1a 64-bit hash — the same function the sweep cache uses, local
/// so the codec stays dependency-free.
#[must_use]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_be_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_be_bytes());
}

fn put_str(buf: &mut Vec<u8>, s: &str) -> Result<(), WireError> {
    let len = u32::try_from(s.len())
        .map_err(|_| WireError::Malformed(format!("string of {} bytes", s.len())))?;
    put_u32(buf, len);
    buf.extend_from_slice(s.as_bytes());
    Ok(())
}

/// Bounds-checked reader over one frame's payload.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| WireError::Malformed("field past end of payload".into()))?;
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_be_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_be_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    fn str(&mut self) -> Result<String, WireError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| WireError::Malformed("invalid UTF-8 in string field".into()))
    }

    fn finish(&self) -> Result<(), WireError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(WireError::Malformed(format!(
                "{} trailing byte(s) after message",
                self.buf.len() - self.pos
            )))
        }
    }
}

/// Serializes one message into its payload bytes (tag + fields, no
/// framing).
fn encode_payload(msg: &Msg) -> Result<Vec<u8>, WireError> {
    let mut buf = Vec::new();
    match msg {
        Msg::Hello { protocol, engine } => {
            buf.push(1);
            put_str(&mut buf, protocol)?;
            put_str(&mut buf, engine)?;
        }
        Msg::Welcome { spec_toml, total_cells, lease_cells } => {
            buf.push(2);
            put_str(&mut buf, spec_toml)?;
            put_u64(&mut buf, *total_cells);
            put_u64(&mut buf, *lease_cells);
        }
        Msg::LeaseRequest => buf.push(3),
        Msg::LeaseGrant { lease_id, start, len } => {
            buf.push(4);
            put_u64(&mut buf, *lease_id);
            put_u64(&mut buf, *start);
            put_u64(&mut buf, *len);
        }
        Msg::ResultBatch { lease_id, rows } => {
            buf.push(5);
            put_u64(&mut buf, *lease_id);
            let count = u32::try_from(rows.len())
                .map_err(|_| WireError::Malformed(format!("{} rows in batch", rows.len())))?;
            put_u32(&mut buf, count);
            for (cell, line) in rows {
                put_u64(&mut buf, *cell);
                put_str(&mut buf, line)?;
            }
        }
        Msg::Heartbeat { lease_id } => {
            buf.push(6);
            put_u64(&mut buf, *lease_id);
        }
        Msg::Drain => buf.push(7),
        Msg::Ack => buf.push(8),
        Msg::Reject { reason } => {
            buf.push(9);
            put_str(&mut buf, reason)?;
        }
    }
    Ok(buf)
}

/// Parses one payload (tag + fields) back into a message.
fn decode_payload(payload: &[u8]) -> Result<Msg, WireError> {
    let mut r = Reader { buf: payload, pos: 0 };
    let tag = r.u8().map_err(|_| WireError::Malformed("empty payload".into()))?;
    let msg = match tag {
        1 => Msg::Hello { protocol: r.str()?, engine: r.str()? },
        2 => Msg::Welcome { spec_toml: r.str()?, total_cells: r.u64()?, lease_cells: r.u64()? },
        3 => Msg::LeaseRequest,
        4 => Msg::LeaseGrant { lease_id: r.u64()?, start: r.u64()?, len: r.u64()? },
        5 => {
            let lease_id = r.u64()?;
            let count = r.u32()? as usize;
            // Each row is at least 8 + 4 bytes; cap the pre-allocation
            // by what the payload could actually hold.
            if count > payload.len() / 12 + 1 {
                return Err(WireError::Malformed(format!("row count {count} exceeds payload")));
            }
            let mut rows = Vec::with_capacity(count);
            for _ in 0..count {
                rows.push((r.u64()?, r.str()?));
            }
            Msg::ResultBatch { lease_id, rows }
        }
        6 => Msg::Heartbeat { lease_id: r.u64()? },
        7 => Msg::Drain,
        8 => Msg::Ack,
        9 => Msg::Reject { reason: r.str()? },
        t => return Err(WireError::UnknownTag(t)),
    };
    r.finish()?;
    Ok(msg)
}

/// Encodes one message as a complete frame (length prefix + payload +
/// checksum), ready to write to a stream.
pub fn encode_frame(msg: &Msg) -> Result<Vec<u8>, WireError> {
    let payload = encode_payload(msg)?;
    if payload.len() > MAX_FRAME {
        return Err(WireError::Oversized(payload.len()));
    }
    let mut frame = Vec::with_capacity(4 + payload.len() + 8);
    put_u32(&mut frame, payload.len() as u32);
    frame.extend_from_slice(&payload);
    put_u64(&mut frame, fnv1a64(&payload));
    Ok(frame)
}

/// Decodes one frame from the front of `buf`. On success returns the
/// message and the number of bytes consumed; [`WireError::Truncated`]
/// means the buffer holds only a frame prefix — read more and retry.
pub fn decode_frame(buf: &[u8]) -> Result<(Msg, usize), WireError> {
    if buf.len() < 4 {
        return Err(WireError::Truncated);
    }
    let len = u32::from_be_bytes(buf[..4].try_into().expect("4 bytes")) as usize;
    if len > MAX_FRAME {
        return Err(WireError::Oversized(len));
    }
    let total = 4 + len + 8;
    if buf.len() < total {
        return Err(WireError::Truncated);
    }
    let payload = &buf[4..4 + len];
    let recorded = u64::from_be_bytes(buf[4 + len..total].try_into().expect("8 bytes"));
    if fnv1a64(payload) != recorded {
        return Err(WireError::Checksum);
    }
    Ok((decode_payload(payload)?, total))
}

/// Writes one framed message to a stream and flushes it.
pub fn write_msg<W: Write>(w: &mut W, msg: &Msg) -> Result<(), WireError> {
    let frame = encode_frame(msg)?;
    w.write_all(&frame).map_err(|e| WireError::Io(e.to_string()))?;
    w.flush().map_err(|e| WireError::Io(e.to_string()))
}

/// Reads one framed message from a stream (blocking). EOF exactly at a
/// frame boundary is [`WireError::Closed`] — a clean disconnect — while
/// EOF inside a frame is [`WireError::Truncated`].
pub fn read_msg<R: Read>(r: &mut R) -> Result<Msg, WireError> {
    let mut header = [0u8; 4];
    if let Err(e) = r.read_exact(&mut header) {
        return Err(if e.kind() == ErrorKind::UnexpectedEof {
            WireError::Closed
        } else {
            WireError::Io(e.to_string())
        });
    }
    let len = u32::from_be_bytes(header) as usize;
    if len > MAX_FRAME {
        return Err(WireError::Oversized(len));
    }
    let mut rest = vec![0u8; len + 8];
    if let Err(e) = r.read_exact(&mut rest) {
        return Err(if e.kind() == ErrorKind::UnexpectedEof {
            WireError::Truncated
        } else {
            WireError::Io(e.to_string())
        });
    }
    let payload = &rest[..len];
    let recorded = u64::from_be_bytes(rest[len..].try_into().expect("8 bytes"));
    if fnv1a64(payload) != recorded {
        return Err(WireError::Checksum);
    }
    decode_payload(payload)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_messages() -> Vec<Msg> {
        vec![
            Msg::Hello { protocol: PROTOCOL_VERSION.into(), engine: "engine/v3".into() },
            Msg::Welcome {
                spec_toml: "[sweep]\nname = \"x\"\n".into(),
                total_cells: 16,
                lease_cells: 2,
            },
            Msg::LeaseRequest,
            Msg::LeaseGrant { lease_id: 7, start: 4, len: 2 },
            Msg::ResultBatch {
                lease_id: 7,
                rows: vec![(4, "line-a\tb".into()), (5, String::new())],
            },
            Msg::Heartbeat { lease_id: 7 },
            Msg::Drain,
            Msg::Ack,
            Msg::Reject { reason: "protocol mismatch".into() },
        ]
    }

    #[test]
    fn every_message_round_trips() {
        for msg in sample_messages() {
            let frame = encode_frame(&msg).unwrap();
            let (back, used) = decode_frame(&frame).unwrap();
            assert_eq!(back, msg);
            assert_eq!(used, frame.len());
            // And through the stream API.
            let mut cursor = std::io::Cursor::new(frame);
            assert_eq!(read_msg(&mut cursor).unwrap(), msg);
        }
    }

    #[test]
    fn every_truncation_is_rejected_not_panicking() {
        for msg in sample_messages() {
            let frame = encode_frame(&msg).unwrap();
            for cut in 0..frame.len() {
                assert_eq!(decode_frame(&frame[..cut]), Err(WireError::Truncated), "cut={cut}");
            }
        }
    }

    #[test]
    fn bit_flips_fail_the_checksum_or_parse() {
        let frame = encode_frame(&Msg::Heartbeat { lease_id: 99 }).unwrap();
        for bit in 0..frame.len() * 8 {
            let mut bad = frame.clone();
            bad[bit / 8] ^= 1 << (bit % 8);
            // A flip in the length prefix usually shows as Truncated or
            // Oversized; anywhere else as Checksum. Never Ok, never a
            // panic.
            assert!(decode_frame(&bad).is_err(), "bit={bit}");
        }
    }

    #[test]
    fn oversized_frames_are_rejected_before_allocation() {
        let mut frame = Vec::new();
        put_u32(&mut frame, (MAX_FRAME + 1) as u32);
        frame.extend_from_slice(&[0u8; 16]);
        assert_eq!(decode_frame(&frame), Err(WireError::Oversized(MAX_FRAME + 1)));
        let mut cursor = std::io::Cursor::new(frame);
        assert_eq!(read_msg(&mut cursor), Err(WireError::Oversized(MAX_FRAME + 1)));
    }

    #[test]
    fn unknown_tags_and_trailing_bytes_are_typed_errors() {
        let mut frame = Vec::new();
        let payload = [42u8];
        put_u32(&mut frame, 1);
        frame.extend_from_slice(&payload);
        put_u64(&mut frame, fnv1a64(&payload));
        assert_eq!(decode_frame(&frame), Err(WireError::UnknownTag(42)));

        let mut payload = encode_payload(&Msg::Ack).unwrap();
        payload.push(0);
        let mut frame = Vec::new();
        put_u32(&mut frame, payload.len() as u32);
        frame.extend_from_slice(&payload);
        put_u64(&mut frame, fnv1a64(&payload));
        assert!(matches!(decode_frame(&frame), Err(WireError::Malformed(_))));
    }

    #[test]
    fn eof_at_frame_boundary_is_closed() {
        let mut empty = std::io::Cursor::new(Vec::<u8>::new());
        assert_eq!(read_msg(&mut empty), Err(WireError::Closed));
        let frame = encode_frame(&Msg::Drain).unwrap();
        let mut partial = std::io::Cursor::new(frame[..5].to_vec());
        assert_eq!(read_msg(&mut partial), Err(WireError::Truncated));
    }

    #[test]
    fn descriptor_names_every_tag() {
        // The fingerprinted descriptor must cover the whole message
        // set: adding a variant without recording it (and re-salting)
        // is exactly the drift the lint exists to catch.
        for needle in [
            "hello:1",
            "welcome:2",
            "lease_request:3",
            "lease_grant:4",
            "result_batch:5",
            "heartbeat:6",
            "drain:7",
            "ack:8",
            "reject:9",
        ] {
            assert!(WIRE_DESCRIPTOR.contains(needle), "descriptor missing {needle}");
        }
    }
}
