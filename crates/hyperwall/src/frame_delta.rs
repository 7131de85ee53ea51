//! Dirty-tile frame-delta transport: the pixel side of the wall protocol.
//!
//! Protocol v2 clients ship their rendered panels to the server as
//! RGBA8 pixel streams: a periodic **keyframe** carrying the whole frame,
//! and between keyframes a **delta** carrying only the tiles whose content
//! changed since the previous frame (the same 32×32 tiling the rvtk
//! rasterizer bins by — [`rvtk::render::TileGrid`] is shared). Payloads are
//! losslessly RLE-compressed, every tile carries an FNV-1a content hash,
//! and every message carries a whole-frame hash, so a corrupted or dropped
//! message is *detected and rejected atomically* — the receiving
//! [`FrameAssembler`] never commits a torn frame. Rejection feeds the
//! resync path: the server answers with a `ResyncRequest` and the client's
//! [`FrameStreamer`] promotes its next frame to a keyframe.
//!
//! Epoch/sequence discipline: every keyframe starts a new *epoch* and
//! resets the *sequence*; deltas are only valid against the epoch they
//! were encoded in and in strict sequence order. A delta from a stale
//! epoch (e.g. one that raced a resync) is rejected without touching the
//! assembled frame — "zero stale-epoch tiles" is enforced here, not by
//! the transport's good behaviour.
//!
//! During camera motion a client can additionally send a low-resolution
//! [`crate::protocol::Message::FramePreview`] ahead of the full-resolution
//! delta — the wall-scale version of the low-res-mirror trick the server
//! already uses for degraded panels: photons early, fidelity a moment
//! later.

use rvtk::render::TileGrid;
use serde::{Deserialize, Serialize};

/// How many frames a [`FrameStreamer`] sends between periodic keyframes
/// when the caller does not override the cadence (0 disables periodic
/// keyframes entirely; the first frame and forced resyncs still produce
/// them).
pub const DEFAULT_KEYFRAME_EVERY: u64 = 16;

/// Downsample factor for motion previews (each axis).
pub const PREVIEW_DOWNSAMPLE: usize = 4;

// FNV-1a content hash.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over a byte slice.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// A payload-level codec failure (truncated run, length mismatch). Carried
/// as the `source()` of [`DeltaError::Codec`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CodecError {
    /// The RLE stream ended mid-run.
    Truncated { at: usize },
    /// A run of length zero (never produced by the encoder).
    ZeroRun { at: usize },
    /// Decoded length disagrees with the geometry it claims to cover.
    LengthMismatch { expected: usize, got: usize },
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Truncated { at } => write!(f, "RLE stream truncated at byte {at}"),
            CodecError::ZeroRun { at } => write!(f, "zero-length RLE run at byte {at}"),
            CodecError::LengthMismatch { expected, got } => {
                write!(f, "decoded {got} bytes, geometry needs {expected}")
            }
        }
    }
}

impl std::error::Error for CodecError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        None // leaf error: the byte offsets in the variants are the cause
    }
}

/// Why a frame message was rejected. Rejection is always all-or-nothing:
/// the assembled frame is untouched whenever one of these is returned.
#[derive(Debug)]
#[non_exhaustive]
pub enum DeltaError {
    /// The RLE payload would not decode.
    Codec(CodecError),
    /// The message's geometry disagrees with the assembler's.
    WrongSize { expected: (usize, usize), got: (usize, usize) },
    /// A delta from an epoch other than the current keyframe lineage.
    StaleEpoch { current: u64, got: u64 },
    /// A delta arrived out of sequence (a message was lost or duplicated).
    SeqGap { expected: u64, got: u64 },
    /// A delta arrived before any keyframe established a base frame.
    NotSynced,
    /// A tile coordinate outside the frame's tile grid.
    TileOutOfRange { tx: usize, ty: usize },
    /// A tile payload failed its content hash — wire corruption.
    TileHashMismatch { tx: usize, ty: usize },
    /// The assembled frame failed the whole-frame hash — the delta was
    /// internally consistent but does not reproduce the sender's frame.
    FrameHashMismatch { expected: u64, got: u64 },
}

impl std::fmt::Display for DeltaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeltaError::Codec(e) => write!(f, "payload codec: {e}"),
            DeltaError::WrongSize { expected, got } => {
                write!(f, "frame geometry {got:?}, assembler expects {expected:?}")
            }
            DeltaError::StaleEpoch { current, got } => {
                write!(f, "delta from epoch {got}, current epoch {current}")
            }
            DeltaError::SeqGap { expected, got } => {
                write!(f, "delta seq {got}, expected {expected}")
            }
            DeltaError::NotSynced => write!(f, "delta before any keyframe"),
            DeltaError::TileOutOfRange { tx, ty } => {
                write!(f, "tile ({tx},{ty}) outside the frame grid")
            }
            DeltaError::TileHashMismatch { tx, ty } => {
                write!(f, "tile ({tx},{ty}) failed its content hash")
            }
            DeltaError::FrameHashMismatch { expected, got } => {
                write!(f, "assembled frame hash {got:#x}, sender claims {expected:#x}")
            }
        }
    }
}

impl std::error::Error for DeltaError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DeltaError::Codec(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CodecError> for DeltaError {
    fn from(e: CodecError) -> DeltaError {
        DeltaError::Codec(e)
    }
}

/// One dirty tile on the wire: grid coordinates, an FNV-1a hash of the
/// *decoded* tile bytes, and the RLE-compressed RGBA8 payload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WireTile {
    /// Tile column in the frame's tile grid.
    pub tx: usize,
    /// Tile row in the frame's tile grid.
    pub ty: usize,
    /// FNV-1a over the decoded (raw RGBA8) tile bytes.
    pub hash: u64,
    /// RLE-compressed RGBA8, row-major within the tile rect.
    pub data: Vec<u8>,
}

// ---- lossless RLE over RGBA8 pixels ----
//
// Runs of identical 4-byte pixels become `[count, r, g, b, a]` (count in
// 1..=255). Constant regions — background, cleared tiles — compress ~200x;
// the worst case (no two equal neighbours) expands by 5/4. Lossless by
// construction: decode(encode(x)) == x for every pixel stream.

/// RLE-encodes a raw RGBA8 pixel stream.
pub fn rle_encode(rgba: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(rgba.len() / 4 + 8);
    let mut current: Option<[u8; 4]> = None;
    let mut count: u8 = 0;
    for chunk in rgba.chunks_exact(4) {
        let Ok(px) = <[u8; 4]>::try_from(chunk) else { continue };
        match current {
            Some(c) if c == px && count < u8::MAX => count += 1,
            Some(c) => {
                out.push(count);
                out.extend_from_slice(&c);
                current = Some(px);
                count = 1;
            }
            None => {
                current = Some(px);
                count = 1;
            }
        }
    }
    if let Some(c) = current {
        out.push(count);
        out.extend_from_slice(&c);
    }
    out
}

/// Decodes an RLE stream, validating against the byte length the claimed
/// geometry requires. Never panics on attacker-shaped input; never
/// allocates beyond `expected_len`.
pub fn rle_decode(data: &[u8], expected_len: usize) -> Result<Vec<u8>, CodecError> {
    let mut out = Vec::new();
    rle_decode_into(data, expected_len, &mut out)?;
    Ok(out)
}

/// [`rle_decode`] appending to a caller-owned buffer, so a receiver can
/// reuse one allocation across frames. On success exactly `expected_len`
/// bytes were appended; on error `out` holds a partial run the caller must
/// discard.
fn rle_decode_into(
    data: &[u8],
    expected_len: usize,
    out: &mut Vec<u8>,
) -> Result<(), CodecError> {
    out.reserve(expected_len);
    let base = out.len();
    let mut consumed = 0usize;
    for chunk in data.chunks(5) {
        let Ok(run) = <[u8; 5]>::try_from(chunk) else {
            return Err(CodecError::Truncated { at: consumed });
        };
        let [count, r, g, b, a] = run;
        if count == 0 {
            return Err(CodecError::ZeroRun { at: consumed });
        }
        let got = out.len() - base + usize::from(count) * 4;
        if got > expected_len {
            return Err(CodecError::LengthMismatch { expected: expected_len, got });
        }
        for _ in 0..count {
            out.extend_from_slice(&[r, g, b, a]);
        }
        consumed += 5;
    }
    if out.len() - base != expected_len {
        return Err(CodecError::LengthMismatch { expected: expected_len, got: out.len() - base });
    }
    Ok(())
}

/// Appends one tile rect of a full row-major RGBA8 frame to `out`.
fn tile_bytes(rgba: &[u8], width: usize, rect: &rvtk::render::TileRect, out: &mut Vec<u8>) {
    for row in 0..rect.h {
        let start = ((rect.y0 + row) * width + rect.x0) * 4;
        if let Some(s) = rgba.get(start..start + rect.w * 4) {
            out.extend_from_slice(s);
        }
    }
}

/// True when the tile rect differs between two frames (row-slice compare,
/// no allocation).
fn tile_differs(a: &[u8], b: &[u8], width: usize, rect: &rvtk::render::TileRect) -> bool {
    for row in 0..rect.h {
        let start = ((rect.y0 + row) * width + rect.x0) * 4;
        let span = start..start + rect.w * 4;
        if a.get(span.clone()) != b.get(span) {
            return true;
        }
    }
    false
}

/// Writes decoded tile bytes back into a full frame buffer.
fn write_tile(buf: &mut [u8], width: usize, rect: &rvtk::render::TileRect, data: &[u8]) {
    for (row, src) in data.chunks_exact(rect.w * 4).enumerate() {
        let start = ((rect.y0 + row) * width + rect.x0) * 4;
        if let Some(dst) = buf.get_mut(start..start + rect.w * 4) {
            dst.copy_from_slice(src);
        }
    }
}

/// What one encoded frame turned out to be.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EncodedKind {
    /// A full-frame keyframe (new epoch).
    Key,
    /// A dirty-tile delta with this many tiles.
    Delta { tiles: usize },
}

/// The sender half: tracks the previous frame, decides keyframe vs delta,
/// and stamps epoch/sequence numbers.
#[derive(Debug, Clone)]
pub struct FrameStreamer {
    width: usize,
    height: usize,
    grid: TileGrid,
    prev: Option<Vec<u8>>,
    epoch: u64,
    seq: u64,
    since_key: u64,
    keyframe_every: u64,
    force_key: bool,
}

impl FrameStreamer {
    /// A streamer for `width`×`height` frames, sending a keyframe every
    /// `keyframe_every` frames (0 = only the first frame and forced
    /// resyncs).
    pub fn new(width: usize, height: usize, keyframe_every: u64) -> FrameStreamer {
        FrameStreamer {
            width,
            height,
            grid: TileGrid::with_default_tile(width, height),
            prev: None,
            epoch: 0,
            seq: 0,
            since_key: 0,
            keyframe_every,
            force_key: false,
        }
    }

    /// Promote the next encoded frame to a keyframe — the client-side half
    /// of resync: called when the server reports a rejected or missing
    /// delta (`ResyncRequest`).
    pub fn force_keyframe(&mut self) {
        self.force_key = true;
    }

    /// Epoch of the current keyframe lineage (0 before the first frame).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Encodes one rendered frame into the fields of a `FrameKey` or
    /// `FrameDelta` message (the caller wraps them with its client id /
    /// frame number). Errors only on a caller bug (wrong buffer size).
    pub fn encode(
        &mut self,
        client_id: usize,
        frame: u64,
        rgba: &[u8],
    ) -> Result<(crate::protocol::Message, EncodedKind), DeltaError> {
        let expected = self.width * self.height * 4;
        if rgba.len() != expected {
            return Err(DeltaError::WrongSize {
                expected: (self.width, self.height),
                got: (rgba.len() / 4, 1),
            });
        }
        let key_due = self.prev.is_none()
            || self.force_key
            || (self.keyframe_every > 0 && self.since_key + 1 >= self.keyframe_every);
        if key_due {
            self.force_key = false;
            self.epoch += 1;
            self.seq = 0;
            self.since_key = 0;
            let msg = crate::protocol::Message::FrameKey {
                client_id,
                frame,
                epoch: self.epoch,
                seq: 0,
                width: self.width,
                height: self.height,
                payload: rle_encode(rgba),
                frame_hash: fnv1a(rgba),
            };
            self.remember(rgba);
            return Ok((msg, EncodedKind::Key));
        }
        // delta: walk the tile grid, ship only the rects whose bytes moved
        self.seq += 1;
        self.since_key += 1;
        let mut tiles = Vec::new();
        if let Some(prev) = &self.prev {
            let mut raw = Vec::new();
            for idx in 0..self.grid.len() {
                let rect = self.grid.rect(idx);
                if !tile_differs(prev, rgba, self.width, &rect) {
                    continue;
                }
                raw.clear();
                tile_bytes(rgba, self.width, &rect, &mut raw);
                tiles.push(WireTile {
                    tx: rect.x0 / self.grid.tile(),
                    ty: rect.y0 / self.grid.tile(),
                    hash: fnv1a(&raw),
                    data: rle_encode(&raw),
                });
            }
        }
        let n = tiles.len();
        let msg = crate::protocol::Message::FrameDelta {
            client_id,
            frame,
            epoch: self.epoch,
            seq: self.seq,
            tiles,
            frame_hash: fnv1a(rgba),
        };
        self.remember(rgba);
        Ok((msg, EncodedKind::Delta { tiles: n }))
    }

    /// Keeps `rgba` as the frame the next delta is taken against, reusing
    /// the previous frame's buffer (`encode` has checked the length).
    fn remember(&mut self, rgba: &[u8]) {
        match &mut self.prev {
            Some(prev) if prev.len() == rgba.len() => prev.copy_from_slice(rgba),
            _ => self.prev = Some(rgba.to_vec()),
        }
    }

    /// Encodes a low-resolution preview frame (progressive refinement
    /// during camera motion). Previews ride outside the epoch/seq
    /// discipline: they are advisory photons, not state transitions.
    pub fn encode_preview(
        &self,
        client_id: usize,
        frame: u64,
        rgba: &[u8],
        width: usize,
        height: usize,
    ) -> Result<crate::protocol::Message, DeltaError> {
        if rgba.len() != width * height * 4 {
            return Err(DeltaError::WrongSize {
                expected: (width, height),
                got: (rgba.len() / 4, 1),
            });
        }
        Ok(crate::protocol::Message::FramePreview {
            client_id,
            frame,
            epoch: self.epoch,
            width,
            height,
            payload: rle_encode(rgba),
            hash: fnv1a(rgba),
        })
    }
}

/// What a successfully applied message was.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Applied {
    /// A keyframe replaced the whole frame (new epoch).
    Key,
    /// A delta patched this many tiles.
    Delta { tiles: usize },
    /// A low-res preview was stored (frame content unchanged).
    Preview,
}

/// The receiver half: validates and applies keyframes/deltas with
/// all-or-nothing semantics. The committed frame is only ever replaced by
/// a fully-validated next frame — a rejected message leaves it untouched,
/// so the wall can keep showing the last good frame while resync runs.
#[derive(Debug, Clone)]
pub struct FrameAssembler {
    width: usize,
    height: usize,
    grid: TileGrid,
    buf: Vec<u8>,
    /// Decoded bytes of the message being applied: a keyframe's whole
    /// frame, or a delta's tiles back to back. Kept between calls so the
    /// steady state allocates nothing.
    staged: Vec<u8>,
    /// What the tiles of the delta being applied overwrote in `buf`, laid
    /// out like `staged`; written back if the whole-frame hash fails.
    undo: Vec<u8>,
    epoch: u64,
    next_seq: u64,
    synced: bool,
    last_hash: u64,
    preview: Option<(usize, usize, Vec<u8>)>,
    keys_applied: u64,
    deltas_applied: u64,
}

impl FrameAssembler {
    /// An assembler for `width`×`height` frames; unsynced until the first
    /// keyframe lands.
    pub fn new(width: usize, height: usize) -> FrameAssembler {
        FrameAssembler {
            width,
            height,
            grid: TileGrid::with_default_tile(width, height),
            buf: vec![0u8; width * height * 4],
            staged: Vec::new(),
            undo: Vec::new(),
            epoch: 0,
            next_seq: 0,
            synced: false,
            last_hash: 0,
            preview: None,
            keys_applied: 0,
            deltas_applied: 0,
        }
    }

    /// True once a keyframe has established a valid base and every
    /// subsequent delta validated.
    pub fn is_synced(&self) -> bool {
        self.synced
    }

    /// The last committed frame, raw RGBA8, if synced.
    pub fn frame(&self) -> Option<&[u8]> {
        if self.synced {
            Some(&self.buf)
        } else {
            None
        }
    }

    /// The latest low-res preview, `(width, height, rgba)`, if any.
    pub fn preview(&self) -> Option<(usize, usize, &[u8])> {
        self.preview.as_ref().map(|(w, h, d)| (*w, *h, d.as_slice()))
    }

    /// Epoch of the committed frame (0 before the first keyframe).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Keyframes committed so far.
    pub fn keys_applied(&self) -> u64 {
        self.keys_applied
    }

    /// Deltas committed so far.
    pub fn deltas_applied(&self) -> u64 {
        self.deltas_applied
    }

    /// Recomputes the committed frame's hash — true when the stored pixels
    /// still match what the sender claimed. A torn or stale commit (which
    /// the all-or-nothing apply is designed to make impossible) would show
    /// up here.
    pub fn verify(&self) -> bool {
        self.synced && fnv1a(&self.buf) == self.last_hash
    }

    /// Validates and applies one transport message. On any error the
    /// committed frame is untouched; errors that imply the stream state is
    /// unrecoverable without a keyframe also clear `synced`, so later
    /// deltas are refused until resync completes.
    pub fn apply(&mut self, msg: &crate::protocol::Message) -> Result<Applied, DeltaError> {
        use crate::protocol::Message;
        match msg {
            Message::FrameKey { epoch, width, height, payload, frame_hash, .. } => {
                self.apply_key(*epoch, *width, *height, payload, *frame_hash)
            }
            Message::FrameDelta { epoch, seq, tiles, frame_hash, .. } => {
                self.apply_delta(*epoch, *seq, tiles, *frame_hash)
            }
            Message::FramePreview { width, height, payload, hash, .. } => {
                self.apply_preview(*width, *height, payload, *hash)
            }
            _ => Err(DeltaError::NotSynced),
        }
    }

    fn apply_key(
        &mut self,
        epoch: u64,
        width: usize,
        height: usize,
        payload: &[u8],
        frame_hash: u64,
    ) -> Result<Applied, DeltaError> {
        if (width, height) != (self.width, self.height) {
            return Err(DeltaError::WrongSize {
                expected: (self.width, self.height),
                got: (width, height),
            });
        }
        self.staged.clear();
        rle_decode_into(payload, self.width * self.height * 4, &mut self.staged)?;
        let got = fnv1a(&self.staged);
        if got != frame_hash {
            return Err(DeltaError::FrameHashMismatch { expected: frame_hash, got });
        }
        std::mem::swap(&mut self.buf, &mut self.staged);
        self.epoch = epoch;
        self.next_seq = 1;
        self.synced = true;
        self.last_hash = frame_hash;
        self.keys_applied += 1;
        Ok(Applied::Key)
    }

    fn apply_delta(
        &mut self,
        epoch: u64,
        seq: u64,
        tiles: &[WireTile],
        frame_hash: u64,
    ) -> Result<Applied, DeltaError> {
        if !self.synced {
            return Err(DeltaError::NotSynced);
        }
        if epoch != self.epoch {
            // a stale-epoch delta (raced a resync) is rejected WITHOUT
            // clearing synced: the committed frame is still valid, and a
            // current-epoch delta may legitimately follow
            if epoch < self.epoch {
                return Err(DeltaError::StaleEpoch { current: self.epoch, got: epoch });
            }
            // an epoch from the future means we missed its keyframe
            self.synced = false;
            return Err(DeltaError::StaleEpoch { current: self.epoch, got: epoch });
        }
        if seq != self.next_seq {
            self.synced = false;
            return Err(DeltaError::SeqGap { expected: self.next_seq, got: seq });
        }
        // Stage 1: decode and validate EVERY tile before touching the
        // frame — a tile that fails its own checks never reaches `buf`.
        self.staged.clear();
        let mut rects: Vec<(rvtk::render::TileRect, usize)> = Vec::with_capacity(tiles.len());
        for t in tiles {
            if t.tx >= self.grid.cols() || t.ty >= self.grid.rows() {
                self.synced = false;
                return Err(DeltaError::TileOutOfRange { tx: t.tx, ty: t.ty });
            }
            let rect = self.grid.rect(self.grid.index(t.tx, t.ty));
            let at = self.staged.len();
            if let Err(e) = rle_decode_into(&t.data, rect.w * rect.h * 4, &mut self.staged) {
                self.synced = false;
                return Err(e.into());
            }
            if fnv1a(self.staged.get(at..).unwrap_or_default()) != t.hash {
                self.synced = false;
                return Err(DeltaError::TileHashMismatch { tx: t.tx, ty: t.ty });
            }
            rects.push((rect, at));
        }
        // Stage 2: patch the frame in place, keeping what each tile
        // overwrote, and check the whole-frame hash; a mismatch writes the
        // old bytes back, so the commit is still all-or-nothing.
        self.undo.clear();
        for (rect, at) in &rects {
            let len = rect.w * rect.h * 4;
            tile_bytes(&self.buf, self.width, rect, &mut self.undo);
            let decoded = self.staged.get(*at..*at + len).unwrap_or_default();
            write_tile(&mut self.buf, self.width, rect, decoded);
        }
        let got = fnv1a(&self.buf);
        if got != frame_hash {
            // newest first: a tile sent twice must end on its oldest bytes
            for (rect, at) in rects.iter().rev() {
                let old = self.undo.get(*at..*at + rect.w * rect.h * 4).unwrap_or_default();
                write_tile(&mut self.buf, self.width, rect, old);
            }
            self.synced = false;
            return Err(DeltaError::FrameHashMismatch { expected: frame_hash, got });
        }
        self.next_seq = seq + 1;
        self.last_hash = frame_hash;
        self.deltas_applied += 1;
        Ok(Applied::Delta { tiles: rects.len() })
    }

    fn apply_preview(
        &mut self,
        width: usize,
        height: usize,
        payload: &[u8],
        hash: u64,
    ) -> Result<Applied, DeltaError> {
        // a preview is a downsample of the panel; the bound also keeps a
        // wire-declared geometry from sizing the decode buffer
        if width > self.width || height > self.height {
            return Err(DeltaError::WrongSize {
                expected: (self.width, self.height),
                got: (width, height),
            });
        }
        let decoded = rle_decode(payload, width * height * 4)?;
        let got = fnv1a(&decoded);
        if got != hash {
            return Err(DeltaError::FrameHashMismatch { expected: hash, got });
        }
        self.preview = Some((width, height, decoded));
        Ok(Applied::Preview)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::Message;

    fn frame(w: usize, h: usize, seed: u64) -> Vec<u8> {
        // deterministic pseudo-content with large constant regions (like a
        // real render: background plus a moving blob)
        let mut out = vec![0u8; w * h * 4];
        for y in 0..h {
            for x in 0..w {
                let i = (y * w + x) * 4;
                let lit = ((x as u64 + seed * 3) % 17 < 4) && ((y as u64 + seed) % 13 < 5);
                let px: [u8; 4] =
                    if lit { [200, (seed % 255) as u8, 40, 255] } else { [10, 10, 30, 255] };
                out[i..i + 4].copy_from_slice(&px);
            }
        }
        out
    }

    #[test]
    fn rle_roundtrips_losslessly() {
        for seed in 0..8u64 {
            let raw = frame(37, 23, seed);
            let enc = rle_encode(&raw);
            assert!(enc.len() < raw.len(), "constant regions must compress");
            assert_eq!(rle_decode(&enc, raw.len()).unwrap(), raw);
        }
        // worst case: every pixel distinct still roundtrips
        let noisy: Vec<u8> = (0..64u32 * 4).map(|i| (i * 37 % 251) as u8).collect();
        let enc = rle_encode(&noisy);
        assert_eq!(rle_decode(&enc, noisy.len()).unwrap(), noisy);
        // empty stream
        assert_eq!(rle_decode(&rle_encode(&[]), 0).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn rle_decode_rejects_malformed_input() {
        let raw = frame(16, 16, 1);
        let enc = rle_encode(&raw);
        // truncated mid-run
        let err = rle_decode(&enc[..enc.len() - 2], raw.len()).unwrap_err();
        assert!(matches!(err, CodecError::Truncated { .. }), "{err}");
        // zero run count
        let mut zeroed = enc.clone();
        zeroed[0] = 0;
        assert!(matches!(rle_decode(&zeroed, raw.len()), Err(CodecError::ZeroRun { .. })));
        // wrong claimed geometry, both directions
        assert!(matches!(
            rle_decode(&enc, raw.len() - 4),
            Err(CodecError::LengthMismatch { .. })
        ));
        assert!(matches!(
            rle_decode(&enc, raw.len() + 4),
            Err(CodecError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn streamer_emits_key_then_deltas_and_assembler_tracks_exactly() {
        let (w, h) = (70, 50); // not tile-aligned on purpose
        let mut streamer = FrameStreamer::new(w, h, 0);
        let mut asm = FrameAssembler::new(w, h);
        assert!(!asm.is_synced());
        for i in 0..6u64 {
            let rgba = frame(w, h, i);
            let (msg, kind) = streamer.encode(3, i, &rgba).unwrap();
            if i == 0 {
                assert_eq!(kind, EncodedKind::Key);
            } else {
                assert!(matches!(kind, EncodedKind::Delta { .. }), "{kind:?}");
            }
            asm.apply(&msg).unwrap();
            assert_eq!(asm.frame().unwrap(), rgba.as_slice(), "frame {i} diverged");
            assert!(asm.verify());
        }
        assert_eq!(asm.keys_applied(), 1);
        assert_eq!(asm.deltas_applied(), 5);
    }

    #[test]
    fn identical_frames_produce_empty_deltas() {
        let (w, h) = (64, 64);
        let mut streamer = FrameStreamer::new(w, h, 0);
        let rgba = frame(w, h, 7);
        streamer.encode(0, 0, &rgba).unwrap();
        let (msg, kind) = streamer.encode(0, 1, &rgba).unwrap();
        assert_eq!(kind, EncodedKind::Delta { tiles: 0 });
        match msg {
            Message::FrameDelta { tiles, .. } => assert!(tiles.is_empty()),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn keyframe_cadence_and_force_keyframe() {
        let (w, h) = (40, 40);
        let mut streamer = FrameStreamer::new(w, h, 3);
        let kinds: Vec<EncodedKind> = (0..7u64)
            .map(|i| streamer.encode(0, i, &frame(w, h, i)).unwrap().1)
            .collect();
        // cadence 3: key, delta, delta, key, delta, delta, key
        let keys: Vec<bool> = kinds.iter().map(|k| *k == EncodedKind::Key).collect();
        assert_eq!(keys, [true, false, false, true, false, false, true], "{kinds:?}");
        // force_keyframe promotes the very next frame
        let mut s2 = FrameStreamer::new(w, h, 0);
        s2.encode(0, 0, &frame(w, h, 0)).unwrap();
        s2.force_keyframe();
        let (_, kind) = s2.encode(0, 1, &frame(w, h, 1)).unwrap();
        assert_eq!(kind, EncodedKind::Key);
        assert_eq!(s2.epoch(), 2, "each keyframe starts a new epoch");
    }

    #[test]
    fn corrupt_delta_is_rejected_without_partial_mutation() {
        let (w, h) = (70, 50);
        let mut streamer = FrameStreamer::new(w, h, 0);
        let mut asm = FrameAssembler::new(w, h);
        let f0 = frame(w, h, 0);
        let (key, _) = streamer.encode(0, 0, &f0).unwrap();
        asm.apply(&key).unwrap();
        let before = asm.frame().unwrap().to_vec();
        let (mut delta, kind) = streamer.encode(0, 1, &frame(w, h, 1)).unwrap();
        assert!(matches!(kind, EncodedKind::Delta { tiles } if tiles > 1));
        // corrupt one payload byte of the SECOND tile: the first tile
        // decodes fine, but nothing of it may reach the committed frame
        if let Message::FrameDelta { tiles, .. } = &mut delta {
            if let Some(b) = tiles.get_mut(1).and_then(|t| t.data.get_mut(2)) {
                *b ^= 0xA5;
            }
        }
        let err = asm.apply(&delta).unwrap_err();
        assert!(matches!(err, DeltaError::TileHashMismatch { .. }), "{err}");
        // all-or-nothing: the committed frame is byte-identical to before
        assert_eq!(asm.buf, before, "partial tile application leaked through");
        assert!(!asm.is_synced(), "a corrupt delta must force resync");
        // resync: a fresh keyframe restores sync
        streamer.force_keyframe();
        let f2 = frame(w, h, 2);
        let (key2, kind2) = streamer.encode(0, 2, &f2).unwrap();
        assert_eq!(kind2, EncodedKind::Key);
        asm.apply(&key2).unwrap();
        assert_eq!(asm.frame().unwrap(), f2.as_slice());
        assert!(asm.verify());
    }

    /// The `FrameHashMismatch` twin of the test above: every tile is valid,
    /// so all of them are written into the frame before the whole-frame
    /// hash exposes the lie — and all of them must be taken out again.
    #[test]
    fn lying_frame_hash_is_rejected_without_partial_mutation() {
        let (w, h) = (70, 50);
        let mut streamer = FrameStreamer::new(w, h, 0);
        let mut asm = FrameAssembler::new(w, h);
        let (key, _) = streamer.encode(0, 0, &frame(w, h, 0)).unwrap();
        asm.apply(&key).unwrap();
        let before = asm.frame().unwrap().to_vec();
        let (mut delta, kind) = streamer.encode(0, 1, &frame(w, h, 1)).unwrap();
        assert!(matches!(kind, EncodedKind::Delta { tiles } if tiles > 1));
        if let Message::FrameDelta { tiles, frame_hash, .. } = &mut delta {
            *frame_hash ^= 1;
            // the same tile a second time with other (valid) content: the
            // restore must end on the committed bytes, not on the first copy
            let rect = asm.grid.rect(asm.grid.index(tiles[0].tx, tiles[0].ty));
            let raw = vec![77u8; rect.w * rect.h * 4];
            let again =
                WireTile { hash: fnv1a(&raw), data: rle_encode(&raw), ..tiles[0].clone() };
            tiles.push(again);
        }
        let err = asm.apply(&delta).unwrap_err();
        assert!(matches!(err, DeltaError::FrameHashMismatch { .. }), "{err}");
        assert_eq!(asm.buf, before, "tiles of a rejected delta stayed in the frame");
        assert!(!asm.is_synced(), "a lying delta must force resync");
        assert!(asm.frame().is_none());
        // resync: a fresh keyframe restores sync
        streamer.force_keyframe();
        let f2 = frame(w, h, 2);
        let (key2, _) = streamer.encode(0, 2, &f2).unwrap();
        asm.apply(&key2).unwrap();
        assert_eq!(asm.frame().unwrap(), f2.as_slice());
        assert!(asm.verify());
    }

    /// A key, a delta of several tiles, a delta of no tiles and a preview
    /// go over the wire with one byte damaged. Each either fails to decode,
    /// or decodes to something the assembler refuses with its committed
    /// bytes untouched, or — when the flip hit a field that carries no
    /// pixel state (`client_id`, `frame`, a keyframe's `epoch`) — is applied
    /// whole: the committed frame is then exactly the sender's. There is
    /// no fourth outcome, and no panic.
    #[test]
    fn wire_byte_flips_never_tear_the_frame() {
        use crate::protocol::{encode_frame, read_message};
        let (w, h) = (70, 50);
        let mut streamer = FrameStreamer::new(w, h, 0);
        let mut asm = FrameAssembler::new(w, h);
        let mut rng = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        for (i, name) in ["key", "delta", "empty delta", "preview"].into_iter().enumerate() {
            let shown = frame(w, h, (i as u64).min(1));
            let msg = match name {
                "preview" => streamer.encode_preview(3, 3, &frame(16, 12, 5), 16, 12).unwrap(),
                _ => streamer.encode(3, i as u64, &shown).unwrap().0,
            };
            if name == "delta" {
                assert!(matches!(&msg, Message::FrameDelta { tiles, .. } if tiles.len() > 1));
            }
            let framed = encode_frame(&msg).unwrap();
            let mut rejected = 0;
            for _ in 0..400 {
                let mut bad = framed.clone();
                let at = (next() % bad.len() as u64) as usize;
                bad[at] ^= (next() % 255 + 1) as u8;
                let Ok(got) = read_message(&mut bad.as_slice()) else {
                    rejected += 1;
                    continue;
                };
                assert_ne!(got, msg, "{name}: flip at {at} decoded unchanged");
                let mut hit = asm.clone();
                match hit.apply(&got) {
                    Err(_) => {
                        rejected += 1;
                        assert_eq!(hit.buf, asm.buf, "{name}: flip at {at} tore the frame");
                        assert_eq!(hit.preview, asm.preview, "{name}: flip at {at}");
                    }
                    Ok(_) => {
                        assert_eq!(hit.frame(), Some(shown.as_slice()), "{name}: flip at {at}");
                        assert!(hit.verify(), "{name}: flip at {at}");
                    }
                }
            }
            assert!(rejected > 0, "{name}: no flip was ever caught");
            asm.apply(&msg).unwrap();
        }
    }

    #[test]
    fn stale_epoch_and_seq_gaps_are_rejected() {
        let (w, h) = (64, 48);
        let mut streamer = FrameStreamer::new(w, h, 0);
        let mut asm = FrameAssembler::new(w, h);
        let (key, _) = streamer.encode(0, 0, &frame(w, h, 0)).unwrap();
        asm.apply(&key).unwrap();
        let (d1, _) = streamer.encode(0, 1, &frame(w, h, 1)).unwrap();
        let (d2, _) = streamer.encode(0, 2, &frame(w, h, 2)).unwrap();
        // seq gap: applying d2 before d1
        let err = asm.apply(&d2).unwrap_err();
        assert!(matches!(err, DeltaError::SeqGap { expected: 1, got: 2 }), "{err}");
        assert!(!asm.is_synced());
        // resync, then replay a delta from the OLD epoch: stale, rejected,
        // and the committed frame stays valid (synced is NOT cleared)
        streamer.force_keyframe();
        let f3 = frame(w, h, 3);
        let (key2, _) = streamer.encode(0, 3, &f3).unwrap();
        asm.apply(&key2).unwrap();
        let err = asm.apply(&d1).unwrap_err();
        assert!(matches!(err, DeltaError::StaleEpoch { .. }), "{err}");
        assert!(asm.is_synced(), "stale-epoch rejection must not unsync");
        assert_eq!(asm.frame().unwrap(), f3.as_slice());
    }

    #[test]
    fn delta_before_keyframe_is_refused() {
        let (w, h) = (32, 32);
        let mut streamer = FrameStreamer::new(w, h, 0);
        streamer.encode(0, 0, &frame(w, h, 0)).unwrap();
        let (d, _) = streamer.encode(0, 1, &frame(w, h, 1)).unwrap();
        let mut asm = FrameAssembler::new(w, h);
        assert!(matches!(asm.apply(&d), Err(DeltaError::NotSynced)));
        assert!(asm.frame().is_none());
    }

    #[test]
    fn preview_applies_without_touching_frame_state() {
        let (w, h) = (64, 48);
        let mut streamer = FrameStreamer::new(w, h, 0);
        let mut asm = FrameAssembler::new(w, h);
        let (key, _) = streamer.encode(0, 0, &frame(w, h, 0)).unwrap();
        asm.apply(&key).unwrap();
        let hash_before = asm.last_hash;
        let low = frame(16, 12, 5);
        let preview = streamer.encode_preview(0, 1, &low, 16, 12).unwrap();
        assert_eq!(asm.apply(&preview).unwrap(), Applied::Preview);
        let (pw, ph, data) = asm.preview().unwrap();
        assert_eq!((pw, ph), (16, 12));
        assert_eq!(data, low.as_slice());
        assert_eq!(asm.last_hash, hash_before, "previews are advisory only");
        // corrupt preview: rejected, old preview kept
        let mut bad = streamer.encode_preview(0, 2, &frame(16, 12, 6), 16, 12).unwrap();
        if let Message::FramePreview { payload, .. } = &mut bad {
            if let Some(b) = payload.get_mut(3) {
                *b ^= 0xFF;
            }
        }
        assert!(asm.apply(&bad).is_err());
        assert_eq!(asm.preview().unwrap().2, low.as_slice());
        assert!(asm.is_synced(), "a bad preview must not unsync the frame");
    }

    #[test]
    fn wrong_geometry_is_rejected() {
        let mut streamer = FrameStreamer::new(32, 32, 0);
        assert!(matches!(
            streamer.encode(0, 0, &[0u8; 16]),
            Err(DeltaError::WrongSize { .. })
        ));
        let mut asm = FrameAssembler::new(16, 16);
        let (key, _) =
            FrameStreamer::new(32, 32, 0).encode(0, 0, &frame(32, 32, 0)).unwrap();
        let err = asm.apply(&key).unwrap_err();
        assert!(matches!(err, DeltaError::WrongSize { .. }), "{err}");
    }

    #[test]
    fn error_chain_carries_codec_source() {
        use std::error::Error;
        let e: DeltaError = CodecError::Truncated { at: 3 }.into();
        assert!(e.source().is_some());
        assert!(e.source().unwrap().to_string().contains("truncated"));
        let plain = DeltaError::NotSynced;
        assert!(plain.source().is_none());
    }
}
