//! The wire protocol between the server node and the display clients:
//! length-prefixed messages over TCP, with bounded message sizes and
//! deadline-aware variants of every exchange.
//!
//! Every message is a `u32` little-endian body length followed by the body.
//! There are two kinds of body, and each [`Message`] variant has exactly one:
//!
//! * **Control messages** (every variant but the two below) are the JSON
//!   text of the `Message`. They are small and rare.
//! * **Pixel messages** (`FrameKey`, `FrameDelta`) are a compact binary
//!   record. Their first byte is a tag that cannot begin a JSON text, so the
//!   decoder tells the kinds apart from that byte alone. A JSON body naming
//!   a pixel variant is a protocol error.
//!
//! All integers are little-endian; `u64` unless noted; `len` / `count`
//! fields are `u32`; a byte string is its `u32` length then the bytes.
//!
//! ```text
//! FrameKey      0x01 client_id frame epoch seq width height frame_hash payload
//! FrameDelta    0x02 client_id frame epoch seq frame_hash count(u32) tile*
//!     tile      tx ty hash data
//! ```
//!
//! Every hash is the word-at-a-time pixel hash of wire revision 5, defined
//! in the [`crate::frame_delta`] docs. A tile's `hash` is that of its
//! decoded RGBA8 rect. `frame_hash` is the same fold over the `u64` hash of
//! every tile of the frame the message leaves, in grid order.
//!
//! The decoder bounds every declared length, and the tile count, by the
//! bytes actually present before it allocates, and rejects trailing bytes.
//! A body that starts with any other byte, `0x03` (revision 5's motion
//! preview) among them, is read as JSON and refused as a protocol error.

// Hot path: the wire codec decodes attacker-shaped input.
#![cfg_attr(not(test), deny(clippy::indexing_slicing))]
#![allow(
    clippy::disallowed_methods,
    reason = "the raw `read_message`/`write_message` live here; the `_deadline` variants wrap them"
)]

use crate::frame_delta::WireTile;
use crate::{Result, WallError};
use dv3d::interaction::ConfigOp;
use serde::{Deserialize, Serialize};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Hard cap on one message body, checked on both sides: [`encode_frame`]
/// refuses to build a larger message and the readers reject a larger
/// length prefix before allocating for it, so a corrupt or hostile prefix
/// cannot make the peer allocate gigabytes. The largest legitimate message
/// is a `FrameKey`: RLE expands an incompressible frame to 5 bytes per
/// pixel, so the worst case is `width * height * 5 +` [`KEY_HEADER_BYTES`]
/// (864 061 bytes for a 480×360 panel). A panel above ~1.6 Mpx of pure
/// noise would not fit; its keyframe is refused at the sender.
pub const MAX_MESSAGE_BYTES: usize = 8 << 20;

/// The one wire revision this crate speaks, declared in every
/// [`Message::Hello`]: every panel ships its frames as the binary
/// dirty-tile transport (`FrameKey` / `FrameDelta`, answered by
/// `ResyncRequest`). A hello declaring any other revision is refused as a
/// protocol error, and so is a body in an older handshake's form.
///
/// Revision 6 is revision 5 with two things taken out: the motion preview
/// (tag `0x03`, a box filter of the frame sent right after it, which
/// nothing read) and the metadata-only panel (the revision-1
/// `Hello { client_id }`, and revision 5's versioned hello declaring less
/// than the delta revision: frame reports and no pixels). Every byte of a
/// key or a delta sits where revision 5 put it. Revision 5 hashes pixels a
/// word at a time (the [`crate::frame_delta`] docs define the hash);
/// revision 2 carried the pixel messages as JSON; revision 3's `frame_hash`
/// was FNV-1a over the frame's bytes, and revision 4's FNV-1a over the
/// tiles' FNV-1a hashes.
pub(crate) const PROTO_DELTA: u32 = 6;

/// First body byte of a binary `FrameKey`.
const TAG_KEY: u8 = 0x01;
/// First body byte of a binary `FrameDelta`.
const TAG_DELTA: u8 = 0x02;

/// Body bytes of a `FrameKey` besides its payload: tag, seven `u64`
/// fields, payload length.
pub const KEY_HEADER_BYTES: usize = 1 + 7 * 8 + 4;
/// Body bytes of a `FrameDelta` besides its tiles: tag, five `u64` fields,
/// tile count.
pub const DELTA_HEADER_BYTES: usize = 1 + 5 * 8 + 4;
/// Body bytes of one delta tile besides its data: `tx`, `ty`, `hash`, data
/// length.
pub const TILE_HEADER_BYTES: usize = 3 * 8 + 4;

/// Messages exchanged between server and clients.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[non_exhaustive]
pub enum Message {
    /// Client → server: identify after connecting (also used when a
    /// recovering client re-handshakes after a disconnect), declaring the
    /// wire revision it speaks; anything but `PROTO_DELTA` is refused.
    Hello { client_id: usize, proto: u32 },
    /// Server → client: the 1-cell sub-workflow to own.
    AssignWorkflow {
        /// Serialized `vistrails::Pipeline`.
        pipeline_json: String,
        /// The cell (sink) module id within the pipeline.
        cell_module: u64,
        /// Full-resolution render size for this display.
        width: usize,
        height: usize,
    },
    /// Client → server: the assigned workflow executed and the cell is live.
    Ready { client_id: usize },
    /// Server → client: apply an interaction op (propagated navigation /
    /// configuration from the server GUI).
    Op(ConfigOp),
    /// Server → client: render frame `frame` now.
    Execute { frame: u64 },
    /// Client → server: frame finished.
    FrameDone {
        client_id: usize,
        frame: u64,
        /// Fraction of non-background pixels (sanity signal).
        coverage: f64,
        /// Render wall time in milliseconds.
        render_ms: f64,
    },
    /// Server → client: liveness probe between frames.
    Heartbeat { seq: u64 },
    /// Client → server: heartbeat echo.
    HeartbeatAck { client_id: usize, seq: u64 },
    /// Server → client: shut down cleanly.
    Shutdown,
    /// Client → server: a full-frame keyframe — RLE-compressed RGBA8 of the
    /// whole panel, starting a new delta epoch. Sent on the first frame,
    /// on a periodic cadence, and in answer to [`Message::ResyncRequest`].
    FrameKey {
        client_id: usize,
        frame: u64,
        /// Keyframe lineage this message starts.
        epoch: u64,
        /// Always 0 for a keyframe (deltas continue 1, 2, …).
        seq: u64,
        width: usize,
        height: usize,
        /// RLE-compressed RGBA8 (see `crate::frame_delta::rle_encode`).
        payload: Vec<u8>,
        /// The pixel hash folded over the pixel hashes of the decoded
        /// frame's tiles, in grid order (the [`crate::frame_delta`] docs).
        frame_hash: u64,
    },
    /// Client → server: only the tiles that changed since the previous
    /// frame, each hash-guarded; the receiver applies all tiles or none.
    FrameDelta {
        client_id: usize,
        frame: u64,
        /// Must match the receiver's current keyframe lineage.
        epoch: u64,
        /// Strictly sequential within the epoch.
        seq: u64,
        tiles: Vec<WireTile>,
        /// The same hash of tile hashes as a keyframe's, of the full
        /// assembled frame after this delta.
        frame_hash: u64,
    },
    /// Server → client: this panel's frame content was missing, corrupt or
    /// out of sequence — the next frame must be a keyframe. Resync instead
    /// of degradation: the panel stays live, only its pixel stream restarts.
    ResyncRequest { client_id: usize, epoch: u64 },
}

/// Starts a wire frame for a body of `body_len` bytes: checks the cap,
/// allocates the whole frame once and writes the length prefix.
fn start_frame(body_len: usize) -> Result<Vec<u8>> {
    let prefix = u32::try_from(body_len)
        .ok()
        .filter(|_| body_len <= MAX_MESSAGE_BYTES)
        .ok_or_else(|| {
            WallError::Protocol(format!(
                "refusing to send {body_len} byte message (cap {MAX_MESSAGE_BYTES})"
            ))
        })?;
    let mut framed = Vec::with_capacity(4 + body_len);
    framed.extend_from_slice(&prefix.to_le_bytes());
    Ok(framed)
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_size(out: &mut Vec<u8>, v: usize) {
    put_u64(out, v as u64); // usize is at most 64 bits wide: lossless
}

/// Appends a `u32` length or count. Each one measures part of a body that
/// [`start_frame`] held under [`MAX_MESSAGE_BYTES`], so it fits; saturating
/// only keeps the function total.
fn put_len(out: &mut Vec<u8>, n: usize) {
    out.extend_from_slice(&u32::try_from(n).unwrap_or(u32::MAX).to_le_bytes());
}

/// Appends a byte string: its length, then the bytes.
fn put_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    put_len(out, bytes.len());
    out.extend_from_slice(bytes);
}

/// Encodes one message into its wire form (u32-LE length prefix + body)
/// without sending it: the binary record for the two pixel variants, JSON
/// for the rest (see the module docs). Fault-injection paths use this to
/// dribble or truncate a frame byte-by-byte; everything else should call
/// `write_message_deadline`. A message whose body would exceed
/// [`MAX_MESSAGE_BYTES`] is refused here rather than sent.
pub fn encode_frame(msg: &Message) -> Result<Vec<u8>> {
    match msg {
        Message::FrameKey {
            client_id,
            frame,
            epoch,
            seq,
            width,
            height,
            payload,
            frame_hash,
        } => {
            let mut out = start_frame(KEY_HEADER_BYTES.saturating_add(payload.len()))?;
            out.push(TAG_KEY);
            put_size(&mut out, *client_id);
            put_u64(&mut out, *frame);
            put_u64(&mut out, *epoch);
            put_u64(&mut out, *seq);
            put_size(&mut out, *width);
            put_size(&mut out, *height);
            put_u64(&mut out, *frame_hash);
            put_bytes(&mut out, payload);
            Ok(out)
        }
        Message::FrameDelta { client_id, frame, epoch, seq, tiles, frame_hash } => {
            let body_len = tiles.iter().fold(DELTA_HEADER_BYTES, |n, t| {
                n.saturating_add(TILE_HEADER_BYTES).saturating_add(t.data.len())
            });
            let mut out = start_frame(body_len)?;
            out.push(TAG_DELTA);
            put_size(&mut out, *client_id);
            put_u64(&mut out, *frame);
            put_u64(&mut out, *epoch);
            put_u64(&mut out, *seq);
            put_u64(&mut out, *frame_hash);
            put_len(&mut out, tiles.len());
            for t in tiles {
                put_size(&mut out, t.tx);
                put_size(&mut out, t.ty);
                put_u64(&mut out, t.hash);
                put_bytes(&mut out, &t.data);
            }
            Ok(out)
        }
        control => {
            // control messages are a few hundred bytes (an `AssignWorkflow`
            // a few KiB), so the one copy of the JSON text is not worth a
            // streaming serializer
            let body =
                serde_json::to_vec(control).map_err(|e| WallError::Protocol(e.to_string()))?;
            let mut out = start_frame(body.len())?;
            out.extend_from_slice(&body);
            Ok(out)
        }
    }
}

/// Cursor over a binary body. Every read is bounded by the bytes left, so a
/// lying length field is an error, never an allocation or a panic.
struct BodyReader<'a> {
    rest: &'a [u8],
}

impl<'a> BodyReader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        let (head, tail) = self.rest.split_at_checked(n).ok_or_else(|| {
            WallError::Protocol(format!(
                "pixel message truncated: field needs {n} bytes, {} left",
                self.rest.len()
            ))
        })?;
        self.rest = tail;
        Ok(head)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N]> {
        let mut b = [0u8; N];
        b.copy_from_slice(self.take(N)?);
        Ok(b)
    }

    fn u32(&mut self) -> Result<u32> {
        self.array().map(u32::from_le_bytes)
    }

    fn u64(&mut self) -> Result<u64> {
        self.array().map(u64::from_le_bytes)
    }

    fn size(&mut self) -> Result<usize> {
        let v = self.u64()?;
        usize::try_from(v)
            .map_err(|_| WallError::Protocol(format!("field value {v} does not fit usize")))
    }

    /// A byte string: the declared length is checked against the bytes
    /// present before anything is copied.
    fn bytes(&mut self) -> Result<Vec<u8>> {
        let n = self.u32()? as usize;
        Ok(self.take(n)?.to_vec())
    }

    /// How many tiles follow: each needs at least its header, so a count the
    /// remaining bytes cannot hold is refused before it sizes a `Vec`.
    fn tile_count(&mut self) -> Result<usize> {
        let n = self.u32()? as usize;
        if n > self.rest.len() / TILE_HEADER_BYTES {
            return Err(WallError::Protocol(format!(
                "delta declares {n} tiles, {} bytes left",
                self.rest.len()
            )));
        }
        Ok(n)
    }

    fn finish(self) -> Result<()> {
        if self.rest.is_empty() {
            Ok(())
        } else {
            Err(WallError::Protocol(format!(
                "{} trailing bytes after pixel message",
                self.rest.len()
            )))
        }
    }
}

/// Decodes a control message from its JSON body. The two pixel variants
/// have no JSON form: a body that names one is refused, well-formed or not.
fn decode_control(body: &[u8]) -> Result<Message> {
    match serde_json::from_slice(body).map_err(|e| WallError::Protocol(e.to_string()))? {
        Message::FrameKey { .. } | Message::FrameDelta { .. } => Err(WallError::Protocol(
            "pixel message with a JSON body (binary is its only wire form)".into(),
        )),
        control => Ok(control),
    }
}

/// Decodes one message body (the bytes after the length prefix).
fn decode_body(body: &[u8]) -> Result<Message> {
    let mut r = BodyReader { rest: body.get(1..).unwrap_or_default() };
    let msg = match body.first() {
        Some(&TAG_KEY) => Message::FrameKey {
            client_id: r.size()?,
            frame: r.u64()?,
            epoch: r.u64()?,
            seq: r.u64()?,
            width: r.size()?,
            height: r.size()?,
            frame_hash: r.u64()?,
            payload: r.bytes()?,
        },
        Some(&TAG_DELTA) => {
            let (client_id, frame, epoch, seq, frame_hash) =
                (r.size()?, r.u64()?, r.u64()?, r.u64()?, r.u64()?);
            let n = r.tile_count()?;
            let mut tiles = Vec::with_capacity(n);
            for _ in 0..n {
                tiles.push(WireTile {
                    tx: r.size()?,
                    ty: r.size()?,
                    hash: r.u64()?,
                    data: r.bytes()?,
                });
            }
            Message::FrameDelta { client_id, frame, epoch, seq, tiles, frame_hash }
        }
        _ => return decode_control(body),
    };
    r.finish()?;
    Ok(msg)
}

/// Writes one message (u32-LE length prefix + body).
pub(crate) fn write_message(stream: &mut impl Write, msg: &Message) -> Result<()> {
    let framed = encode_frame(msg)?;
    stream.write_all(&framed)?;
    stream.flush()?;
    Ok(())
}

/// Reads one frame through `fill`, which fills a whole buffer or fails:
/// the length prefix, checked against [`MAX_MESSAGE_BYTES`] before it sizes
/// an allocation, then the body. Returns the message and the frame's size
/// on the wire. The one reader under the blocking and the deadline read.
fn read_frame(mut fill: impl FnMut(&mut [u8]) -> Result<()>) -> Result<(Message, usize)> {
    let mut len_buf = [0u8; 4];
    fill(&mut len_buf)?;
    let len = u32::from_le_bytes(len_buf) as usize;
    if len > MAX_MESSAGE_BYTES {
        return Err(WallError::Protocol(format!(
            "implausible message length {len} (cap {MAX_MESSAGE_BYTES})"
        )));
    }
    let mut body = vec![0u8; len];
    fill(&mut body)?;
    Ok((decode_body(&body)?, len_buf.len() + len))
}

/// Reads one message; blocks until a full frame arrives. Length prefixes
/// above [`MAX_MESSAGE_BYTES`] are rejected as protocol errors before any
/// allocation happens.
pub fn read_message(stream: &mut impl Read) -> Result<Message> {
    read_frame(|buf| Ok(stream.read_exact(buf)?)).map(|(msg, _)| msg)
}

/// True when an I/O error is a deadline expiry rather than a dead peer.
/// (`read` under `set_read_timeout` reports `WouldBlock` on some platforms
/// and `TimedOut` on others.)
fn is_timeout(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

/// Maps a deadline expiry to [`WallError::Timeout`] saying `what_expired`;
/// any other failure keeps its I/O or protocol classification.
fn expiry_as_timeout(e: WallError, what_expired: std::fmt::Arguments<'_>) -> WallError {
    match e {
        WallError::Io(io) if is_timeout(&io) => WallError::Timeout(what_expired.to_string()),
        other => other,
    }
}

/// Reads one message with a deadline covering the *whole frame*, not just
/// the next syscall. Expiry maps to [`WallError::Timeout`] (`what` names
/// the exchange for diagnostics); any other failure keeps its I/O or
/// protocol classification. The socket's timeout is cleared again before
/// returning so later blocking reads behave normally.
///
/// The total-frame budget is what defeats a slow-loris peer: with a plain
/// per-read timeout, a client dribbling one byte every few milliseconds
/// makes every syscall "succeed" and holds the reader hostage for as long
/// as it likes. Here one clock covers length prefix and body together, and
/// the entire message must land before it runs out.
pub(crate) fn read_message_deadline(
    stream: &mut TcpStream,
    deadline: Duration,
    what: &str,
) -> Result<Message> {
    read_message_deadline_sized(stream, deadline, what).map(|(msg, _)| msg)
}

/// [`read_message_deadline`] plus the frame's size on the wire (length
/// prefix + body), for the server's transport byte accounting.
pub(crate) fn read_message_deadline_sized(
    stream: &mut TcpStream,
    deadline: Duration,
    what: &str,
) -> Result<(Message, usize)> {
    parking_lot::assert_unlocked(what);
    let end = std::time::Instant::now() + deadline;
    let out = read_frame(|buf| read_exact_deadline(stream, buf, end));
    stream.set_read_timeout(None).ok();
    out.map_err(|e| expiry_as_timeout(e, format_args!("{what} not received within {deadline:?}")))
}

/// Fills `buf` from the stream, giving up (with a timeout-kinded I/O
/// error) once `end` passes — regardless of how many partial reads kept
/// "succeeding" along the way. The caller restores the socket's blocking
/// mode.
fn read_exact_deadline(
    stream: &mut TcpStream,
    buf: &mut [u8],
    end: std::time::Instant,
) -> Result<()> {
    let mut filled = 0;
    while filled < buf.len() {
        let remaining = end.saturating_duration_since(std::time::Instant::now());
        if remaining.is_zero() {
            return Err(WallError::Io(std::io::Error::new(
                std::io::ErrorKind::TimedOut,
                "frame deadline expired",
            )));
        }
        // set_read_timeout rejects Some(0); the clamp keeps the last slice legal
        stream.set_read_timeout(Some(remaining.max(Duration::from_millis(1))))?;
        let Some(rest) = buf.get_mut(filled..) else { break };
        match stream.read(rest) {
            Ok(0) => {
                return Err(WallError::Io(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "peer closed mid-frame",
                )))
            }
            Ok(n) => filled += n,
            // a sliced read expiring is not fatal by itself; the loop's
            // remaining-time check decides when the whole frame is late
            Err(e) if is_timeout(&e) => continue,
            Err(e) => return Err(e.into()),
        }
    }
    Ok(())
}

/// Waits indefinitely for the next message, in bounded slices. Unlike
/// [`read_message_deadline`], a silent peer is not an error here — an idle
/// command loop is a legitimate state — but the wait never blocks longer
/// than `slice` at a time, and once bytes start arriving the whole frame
/// must complete within `deadline`, so a slow-loris peer trips
/// [`WallError::Timeout`] instead of wedging the thread. Peeking (not
/// reading) during the idle wait means an idle slice can never
/// desynchronise a half-received frame.
pub(crate) fn read_message_idle(
    stream: &mut TcpStream,
    slice: Duration,
    deadline: Duration,
    what: &str,
) -> Result<Message> {
    let mut probe = [0u8; 1];
    loop {
        stream.set_read_timeout(Some(slice))?;
        let peeked = stream.peek(&mut probe);
        stream.set_read_timeout(None).ok();
        match peeked {
            // data (or EOF) ready: read_message_deadline reports either
            Ok(_) => return read_message_deadline(stream, deadline, what),
            Err(e) if is_timeout(&e) => continue,
            Err(e) => return Err(e.into()),
        }
    }
}

/// Writes one message with a deadline; expiry maps to [`WallError::Timeout`].
pub(crate) fn write_message_deadline(
    stream: &mut TcpStream,
    msg: &Message,
    deadline: Duration,
    what: &str,
) -> Result<()> {
    parking_lot::assert_unlocked(what);
    stream.set_write_timeout(Some(deadline))?;
    let out = write_message(stream, msg);
    stream.set_write_timeout(None).ok();
    out.map_err(|e| expiry_as_timeout(e, format_args!("{what} not sent within {deadline:?}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dv3d::interaction::{Axis3, CameraOp};

    /// One of every message variant — kept in sync with `Message` by the
    /// match below, which fails to compile when a variant is added here
    /// without a sample.
    fn all_variants() -> Vec<Message> {
        let msgs = vec![
            Message::Hello { client_id: 3, proto: PROTO_DELTA },
            Message::AssignWorkflow {
                pipeline_json: "{}".into(),
                cell_module: 12,
                width: 1920,
                height: 1080,
            },
            Message::Ready { client_id: 3 },
            Message::Op(ConfigOp::MoveSlice { axis: Axis3::Z, delta: 2 }),
            Message::Op(ConfigOp::Camera(CameraOp::Azimuth(15.0))),
            Message::Execute { frame: 7 },
            Message::FrameDone { client_id: 3, frame: 7, coverage: 0.42, render_ms: 12.5 },
            Message::Heartbeat { seq: 11 },
            Message::HeartbeatAck { client_id: 3, seq: 11 },
            Message::Shutdown,
            Message::FrameKey {
                client_id: 3,
                frame: 7,
                epoch: 1,
                seq: 0,
                width: 8,
                height: 4,
                payload: vec![128, 10, 20, 30, 255],
                frame_hash: 0x1234_5678_9abc_def0,
            },
            Message::FrameDelta {
                client_id: 3,
                frame: 8,
                epoch: 1,
                seq: 1,
                tiles: vec![WireTile {
                    tx: 0,
                    ty: 0,
                    hash: 0xfeed_f00d,
                    data: vec![4, 1, 2, 3, 255],
                }],
                frame_hash: 0x0dd_ba11,
            },
            Message::ResyncRequest { client_id: 3, epoch: 1 },
        ];
        for m in &msgs {
            match m {
                Message::Hello { .. }
                | Message::AssignWorkflow { .. }
                | Message::Ready { .. }
                | Message::Op(_)
                | Message::Execute { .. }
                | Message::FrameDone { .. }
                | Message::Heartbeat { .. }
                | Message::HeartbeatAck { .. }
                | Message::Shutdown
                | Message::FrameKey { .. }
                | Message::FrameDelta { .. }
                | Message::ResyncRequest { .. } => {}
            }
        }
        msgs
    }

    #[test]
    fn roundtrip_through_a_buffer() {
        let msgs = all_variants();
        let mut buf: Vec<u8> = Vec::new();
        for m in &msgs {
            write_message(&mut buf, m).unwrap();
        }
        let mut cursor = std::io::Cursor::new(buf);
        for expect in &msgs {
            let got = read_message(&mut cursor).unwrap();
            assert_eq!(&got, expect);
        }
    }

    #[test]
    fn truncated_stream_errors() {
        let mut buf: Vec<u8> = Vec::new();
        write_message(&mut buf, &Message::Shutdown).unwrap();
        buf.truncate(buf.len() - 1);
        let mut cursor = std::io::Cursor::new(buf);
        assert!(read_message(&mut cursor).is_err());
    }

    #[test]
    fn oversized_length_rejected() {
        // just above the cap, and the pathological u32::MAX
        for len in [(MAX_MESSAGE_BYTES + 1) as u32, u32::MAX] {
            let mut buf = len.to_le_bytes().to_vec();
            buf.extend_from_slice(b"xx");
            let mut cursor = std::io::Cursor::new(buf);
            let err = read_message(&mut cursor).unwrap_err();
            assert!(matches!(err, WallError::Protocol(_)), "{err}");
        }
        // the deadline read refuses the same prefix in the same words
        let prefix = ((MAX_MESSAGE_BYTES + 1) as u32).to_le_bytes();
        let blocking = read_message(&mut std::io::Cursor::new(prefix)).unwrap_err();
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let mut peer = std::net::TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (mut stream, _) = listener.accept().unwrap();
        peer.write_all(&prefix).unwrap();
        let timed = read_message_deadline(&mut stream, Duration::from_secs(1), "x").unwrap_err();
        assert!(matches!(timed, WallError::Protocol(_)), "{timed}");
        assert_eq!(timed.to_string(), blocking.to_string());
        assert!(timed.to_string().contains("implausible message length"), "{timed}");
        // exactly at the cap the length itself is legal (the read then
        // fails on the missing body, an Io error, not a Protocol one)
        let mut buf = (MAX_MESSAGE_BYTES as u32).to_le_bytes().to_vec();
        buf.extend_from_slice(b"xx");
        let mut cursor = std::io::Cursor::new(buf);
        assert!(matches!(read_message(&mut cursor), Err(WallError::Io(_))));
    }

    #[test]
    fn works_over_real_tcp() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let msg = read_message(&mut stream).unwrap();
            write_message(&mut stream, &msg).unwrap(); // echo
        });
        let mut stream = std::net::TcpStream::connect(addr).unwrap();
        let msg = Message::Execute { frame: 99 };
        write_message(&mut stream, &msg).unwrap();
        let back = read_message(&mut stream).unwrap();
        assert_eq!(back, msg);
        handle.join().unwrap();
    }

    #[test]
    fn read_deadline_trips_on_silent_peer() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut stream = std::net::TcpStream::connect(addr).unwrap();
        let (_held, _) = listener.accept().unwrap(); // peer connects, never writes
        let start = std::time::Instant::now();
        let err =
            read_message_deadline(&mut stream, Duration::from_millis(50), "FrameDone")
                .unwrap_err();
        assert!(matches!(err, WallError::Timeout(_)), "{err}");
        assert!(err.to_string().contains("FrameDone"));
        assert!(start.elapsed() < Duration::from_secs(2));
        // deadline must be cleared afterwards: a normal exchange still works
        let msg = Message::Heartbeat { seq: 1 };
        let mut held = _held;
        write_message(&mut held, &msg).unwrap();
        assert_eq!(read_message(&mut stream).unwrap(), msg);
    }

    /// A guard held across a deadline read keeps its lock for as long as
    /// the peer takes: the lock checker refuses the read before it starts.
    /// Read first and lock after, and the same exchange passes.
    #[cfg(debug_assertions)]
    #[test]
    fn a_guard_held_across_a_deadline_read_panics() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let mut stream = std::net::TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (mut peer, _) = listener.accept().unwrap();
        let state = parking_lot::Mutex::new(0);
        let held = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _state = state.lock();
            read_message_deadline(&mut stream, Duration::from_millis(50), "frame")
        }));
        let msg = held.expect_err("a read under a guard").downcast::<String>().unwrap();
        assert!(msg.starts_with("lock held across a blocking call: frame"), "{msg}");
        write_message(&mut peer, &Message::Heartbeat { seq: 1 }).unwrap();
        let got = read_message_deadline(&mut stream, Duration::from_secs(2), "frame").unwrap();
        *state.lock() += 1;
        assert_eq!(got, Message::Heartbeat { seq: 1 });
    }

    #[test]
    fn heartbeat_roundtrip_over_tcp() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let echo = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            match read_message(&mut s).unwrap() {
                Message::Heartbeat { seq } => {
                    write_message(&mut s, &Message::HeartbeatAck { client_id: 0, seq }).unwrap()
                }
                other => panic!("{other:?}"),
            }
        });
        let mut stream = std::net::TcpStream::connect(addr).unwrap();
        write_message_deadline(
            &mut stream,
            &Message::Heartbeat { seq: 42 },
            Duration::from_secs(1),
            "Heartbeat",
        )
        .unwrap();
        let ack = read_message_deadline(&mut stream, Duration::from_secs(1), "HeartbeatAck")
            .unwrap();
        assert_eq!(ack, Message::HeartbeatAck { client_id: 0, seq: 42 });
        echo.join().unwrap();
    }
}
