//! Dirty-tile frame-delta transport: the pixel side of the wall protocol.
//!
//! Every client ships its rendered panel to the server as an RGBA8 pixel
//! stream: a periodic **keyframe** carrying the whole frame,
//! and between keyframes a **delta** carrying only the tiles whose content
//! changed since the previous frame (the same 32×32 tiling the rvtk
//! rasterizer bins by — [`rvtk::render::TileGrid`] is shared). Payloads are
//! losslessly RLE-compressed, every tile carries a content hash, and every
//! message carries a whole-frame hash, so a corrupted or dropped message is
//! *detected and rejected atomically* — the receiving [`FrameAssembler`]
//! never commits a torn frame. Rejection feeds the resync path: the server
//! answers with a `ResyncRequest` and the client's [`FrameStreamer`]
//! promotes its next frame to a keyframe.
//!
//! # The pixel hash (wire revision 5)
//!
//! Every pixel hash on the wire — a tile's [`WireTile::hash`], every entry
//! of the tile-hash tables below, and `frame_hash` — is one fold over
//! little-endian `u64` words:
//!
//! ```text
//! step(h, w)   = ((h ^ w) · K).rotate_left(29)        K    = 0x9e37_79b9_7f4a_7c15
//! hash(words)  = fmix64(fold(step, SEED, words) ^ n)   SEED = 0x243f_6a88_85a3_08d3
//! ```
//!
//! with wrapping `u64` arithmetic and MurmurHash3's `fmix64` finalizer. An
//! image's words are its rows' in order, top to bottom, each row's bytes
//! read eight at a time; in a row of odd width the last pixel's four bytes
//! are zero-extended to a word of their own. `n` is the image's byte count,
//! `4·w·h`. A tile is hashed as the image of its rect, row-major within
//! it. `frame_hash` is the same fold over the tile-hash table's words, with
//! `n` = 8 × the tile count.
//!
//! *One changed word always changes the hash.* For a fixed state `h`, the
//! word enters injectively (`h ^ w`, then a multiply by the odd `K` and a
//! rotate, both bijections of `u64`); with the word fixed, a step is a
//! bijection of the state, and so is `fmix64` of a state xored with the
//! same `n`. So two images of one geometry that differ in a single word
//! part at that word and stay apart to the end — the certainty FNV-1a gave
//! for a single byte, at a word a step. The rotate moves the top bits of a
//! product down, where the next multiply spreads them upwards again:
//! without it a change confined to the high bytes — the alpha of every
//! second pixel — would stay in the top 8 bits of the state, and two such
//! changes would cancel one time in 256.
//!
//! # The whole-frame hash is a hash of tile hashes
//!
//! `frame_hash` folds the hashes of the frame's tiles in grid order (180
//! words for 480×360); position binds through the order of the words. Both
//! ends keep that **tile-hash table**. A keyframe rebuilds it from pixels;
//! a delta touches only the entries of its dirty tiles — whose hashes both
//! ends compute for the wire anyway — and then hashes the 1 440-byte table,
//! not the 691 200-byte frame. Tiles are hashed four abreast, in place in
//! the frame or among the packed tiles of a delta: nothing is copied to be
//! hashed.
//!
//! The receiver holds this invariant: *every table entry equals the hash of
//! that tile's bytes in the committed frame.* A keyframe establishes it
//! from decoded bytes; a delta preserves it because every tile it writes
//! was hash-checked against the entry it installs. So a `frame_hash` that
//! matches the receiver's candidate table means the receiver's frame is
//! tile for tile the sender's — a corrupt, dropped, reordered, duplicated
//! or stale message, or a sender whose previous frame differs from the
//! receiver's, is rejected. Apply is check-then-commit: tiles are decoded
//! and checked in a staging buffer, the claimed hashes go into a candidate
//! copy of the table, and only when the candidate's hash equals
//! `frame_hash` are pixels written and the candidate adopted. A rejected
//! message therefore leaves frame and table untouched by construction.
//!
//! What this gives up is the saving: `apply` no longer re-reads pixels it
//! did not write. A frame buffer damaged *in the receiver's memory*
//! between frames is caught by [`FrameAssembler::verify`], which recomputes
//! every tile hash from the pixels, and no longer by the next `apply`.
//! Everything that arrives on the wire is checked as before, and a
//! keyframe — also the answer to every `ResyncRequest` — rebuilds both
//! tables from pixels.
//!
//! # Epochs
//!
//! Epoch/sequence discipline: every keyframe starts a new *epoch* and
//! resets the *sequence*; deltas are only valid against the epoch they
//! were encoded in and in strict sequence order. A delta from a stale
//! epoch (e.g. one that raced a resync) is rejected without touching the
//! assembled frame — "zero stale-epoch tiles" is enforced here, not by
//! the transport's good behaviour.
//!
//! A key or a delta is the only pixel content on the wire. The server
//! derives the touchscreen's mirror of a live panel from what it already
//! holds: `box_filter` over the panel's assembled frame.

// Hot path: pixel messages are decoded off the wire inside every frame.
#![cfg_attr(not(test), deny(clippy::indexing_slicing))]

use rvtk::render::{TileGrid, TileRect};
use serde::{Deserialize, Serialize};

/// How many frames a [`FrameStreamer`] sends between periodic keyframes
/// when the caller does not override the cadence (0 disables periodic
/// keyframes entirely; the first frame and forced resyncs still produce
/// them).
pub const DEFAULT_KEYFRAME_EVERY: u64 = 16;

/// Resamples a row-major RGBA8 `width`×`height` frame to `out_w`×`out_h`.
/// Output pixel `(x, y)` is the rounded mean, channel by channel, of the
/// source rect `[x·w/ow, (x+1)·w/ow) × [y·h/oh, (y+1)·h/oh)`, widened to
/// one pixel where the output is finer than the source. Integer
/// arithmetic only, so a frame gives the same bytes on every host and
/// thread count. Source pixels missing from a short `rgba` count as zero.
///
/// Each output row first sums its source rows column by column, then each
/// output pixel sums its columns of that: every source byte is read once.
pub(crate) fn box_filter(
    rgba: &[u8],
    width: usize,
    height: usize,
    out_w: usize,
    out_h: usize,
) -> Vec<u8> {
    let span = |i: usize, n: usize, out: usize| {
        let lo = i * n / out;
        lo..((i + 1) * n / out).max(lo + 1)
    };
    let cols: Vec<_> = (0..out_w).map(|x| span(x, width, out_w)).collect();
    let row_bytes = width * 4;
    let mut column_sums = vec![0u32; row_bytes];
    let mut out = Vec::with_capacity(out_w * out_h * 4);
    for y in 0..out_h {
        let rows = span(y, height, out_h);
        column_sums.fill(0);
        for r in rows.clone() {
            let row = rgba.get(r * row_bytes..).unwrap_or_default();
            for (s, &b) in column_sums.iter_mut().zip(row) {
                *s += u32::from(b);
            }
        }
        for c in &cols {
            let mut sum = [0u64; 4];
            let px = column_sums.get(c.start * 4..c.end * 4).unwrap_or_default();
            for p in px.chunks_exact(4) {
                for (s, &v) in sum.iter_mut().zip(p) {
                    *s += u64::from(v);
                }
            }
            let n = (rows.len() * c.len()) as u64;
            out.extend(sum.map(|s| ((s + n / 2) / n) as u8));
        }
    }
    out
}

/// FNV-1a over a byte slice: the pixel hash of wire revisions 3 and 4, kept
/// as their reference for tests, and as the checksum of pins recorded
/// with it.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

/// The multiplier of [`step`]; odd, so multiplying by it permutes `u64`.
const K: u64 = 0x9e37_79b9_7f4a_7c15;

/// The state every pixel hash starts from.
const SEED: u64 = 0x243f_6a88_85a3_08d3;

/// One word into the hash state (module docs).
fn step(h: u64, w: u64) -> u64 {
    (h ^ w).wrapping_mul(K).rotate_left(29)
}

/// Ends a fold of `byte_len` bytes: MurmurHash3's `fmix64` of the state
/// xored with the length.
fn finish(h: u64, byte_len: usize) -> u64 {
    let mut h = h ^ byte_len as u64;
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^ (h >> 33)
}

/// Folds one row into a state: its whole words, then the last pixel of an
/// odd-width row, zero-extended.
fn fold_row(h: u64, row: &[u8]) -> u64 {
    let (words, tail) = row.as_chunks::<8>();
    let h = words.iter().fold(h, |h, w| step(h, u64::from_le_bytes(*w)));
    if tail.is_empty() {
        return h;
    }
    let mut last = [0u8; 8];
    for (to, from) in last.iter_mut().zip(tail) {
        *to = *from;
    }
    step(h, u64::from_le_bytes(last))
}

/// Images hashed abreast. One chain takes a word per xor→multiply→rotate
/// latency (≈ 5 cycles); four independent chains issue a multiply on most
/// cycles.
const LANES: usize = 4;

/// Advances [`LANES`] states over one row each, in lockstep. Each lane ends
/// exactly where [`fold_row`] takes it, whatever the other lanes hold; an
/// empty row leaves its lane's state as it was.
fn fold_rows(states: [u64; LANES], rows: [&[u8]; LANES]) -> [u64; LANES] {
    // The whole words every non-empty row has go four abreast. An empty
    // lane rides along on the shortest row and its result is thrown away,
    // so the loop always has four chains to interleave.
    let live = rows.iter().copied().filter(|r| !r.is_empty());
    let Some(shortest) = live.min_by_key(|r| r.len()) else {
        return states;
    };
    let shared = shortest.len() / 8 * 8;
    let [a, b, c, d] = rows.map(|r| {
        let r = if r.is_empty() { shortest } else { r };
        r.get(..shared).unwrap_or_default().as_chunks::<8>().0
    });
    let [mut h0, mut h1, mut h2, mut h3] = states;
    for (((a, b), c), d) in a.iter().zip(b).zip(c).zip(d) {
        h0 = step(h0, u64::from_le_bytes(*a));
        h1 = step(h1, u64::from_le_bytes(*b));
        h2 = step(h2, u64::from_le_bytes(*c));
        h3 = step(h3, u64::from_le_bytes(*d));
    }
    let mut out = states;
    for ((state, row), h) in out.iter_mut().zip(rows).zip([h0, h1, h2, h3]) {
        if !row.is_empty() {
            *state = fold_row(h, row.get(shared..).unwrap_or_default());
        }
    }
    out
}

/// The pixel rows of one RGBA8 image inside a larger buffer: `rows` rows of
/// `row_bytes` bytes, `stride` bytes apart — a tile in place in its frame,
/// or a tile among the packed tiles of a delta.
#[derive(Debug, Clone, Copy, Default)]
struct Rows<'a> {
    bytes: &'a [u8],
    row_bytes: usize,
    stride: usize,
    rows: usize,
}

impl<'a> Rows<'a> {
    /// Tile `rect` in place in a row-major frame `width` pixels wide.
    fn in_frame(rgba: &'a [u8], width: usize, rect: &TileRect) -> Rows<'a> {
        Rows {
            bytes: rgba.get(row_span(width, rect, 0).start..).unwrap_or_default(),
            row_bytes: rect.w * 4,
            stride: width * 4,
            rows: rect.h,
        }
    }

    /// A `width`×`height` image whose rows lie back to back in `bytes`.
    fn packed(bytes: &'a [u8], width: usize, height: usize) -> Rows<'a> {
        Rows { bytes, row_bytes: width * 4, stride: width * 4, rows: height }
    }

    /// Row `r`; empty past the last row.
    fn row(&self, r: usize) -> &'a [u8] {
        if r >= self.rows {
            return &[];
        }
        let start = r * self.stride;
        self.bytes.get(start..start + self.row_bytes).unwrap_or_default()
    }

    /// The rows, top to bottom.
    fn iter(&self) -> impl Iterator<Item = &'a [u8]> + '_ {
        (0..self.rows).map(|r| self.row(r))
    }

    /// The byte count the hash binds: what the geometry holds.
    fn byte_len(&self) -> usize {
        self.rows * self.row_bytes
    }
}

/// The pixel hash of up to [`LANES`] images, computed abreast and in place:
/// every pixel hash but the table's own goes through here.
fn hash_images(images: [Rows; LANES]) -> [u64; LANES] {
    let rows = images.iter().map(|i| i.rows).max().unwrap_or(0);
    let mut states = (0..rows).fold([SEED; LANES], |s, r| fold_rows(s, images.map(|i| i.row(r))));
    for (h, image) in states.iter_mut().zip(images) {
        *h = finish(*h, image.byte_len());
    }
    states
}

/// The pixel hash of one `width`×`height` image packed in `rgba`.
#[cfg(test)]
fn image_hash(rgba: &[u8], width: usize, height: usize) -> u64 {
    let image = Rows::packed(rgba, width, height);
    let [h, ..] = hash_images([image, Rows::default(), Rows::default(), Rows::default()]);
    h
}

/// Byte span of pixel row `row` of a tile rect in a row-major RGBA8 frame.
fn row_span(width: usize, rect: &TileRect, row: usize) -> std::ops::Range<usize> {
    let start = ((rect.y0 + row) * width + rect.x0) * 4;
    start..start + rect.w * 4
}

/// The hash of every tile of a row-major RGBA8 frame, in grid order: what
/// [`WireTile::hash`] carries for each, computed in place [`LANES`] tiles
/// at a time.
fn tile_hashes<'a>(rgba: &'a [u8], grid: &'a TileGrid) -> impl Iterator<Item = u64> + 'a {
    (0..grid.len()).step_by(LANES).flat_map(move |first| {
        // past the last tile `rect` is empty, and an empty lane costs nothing
        let images = std::array::from_fn(|lane| {
            Rows::in_frame(rgba, grid.width(), &grid.rect(first + lane))
        });
        hash_images(images).into_iter().take(grid.len() - first)
    })
}

/// The whole-frame hash: the fold over the table's words.
fn table_hash(table: &[u64]) -> u64 {
    finish(table.iter().fold(SEED, |h, &w| step(h, w)), table.len() * 8)
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
    /// A pixel buffer handed to a [`FrameStreamer`] is not the
    /// `width`×`height` RGBA8 frame it was said to be.
    WrongLength { width: usize, height: usize, got: usize },
    /// A delta from an epoch other than the current keyframe lineage.
    StaleEpoch { current: u64, got: u64 },
    /// A delta arrived out of sequence (a message was lost or duplicated).
    SeqGap { expected: u64, got: u64 },
    /// A delta arrived before any keyframe established a base frame.
    NotSynced,
    /// [`FrameAssembler::apply`] was handed a message that carries no
    /// pixels (not a `FrameKey` or `FrameDelta`).
    NotPixels,
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
            DeltaError::WrongLength { width, height, got } => write!(
                f,
                "pixel buffer of {got} bytes, a {width}×{height} RGBA8 frame is {}",
                width * height * 4
            ),
            DeltaError::NotSynced => write!(f, "delta before any keyframe"),
            DeltaError::NotPixels => write!(f, "not a pixel message"),
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

/// One dirty tile on the wire: grid coordinates, the pixel hash of the
/// *decoded* tile, and the RLE-compressed RGBA8 payload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WireTile {
    /// Tile column in the frame's tile grid.
    pub tx: usize,
    /// Tile row in the frame's tile grid.
    pub ty: usize,
    /// The pixel hash (module docs) of the decoded RGBA8 tile.
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
pub(crate) fn rle_encode(rgba: &[u8]) -> Vec<u8> {
    rle_encode_rows(Rows::packed(rgba, rgba.len() / 4, 1))
}

/// [`rle_encode`] of an image's rows, as if they lay back to back: a tile
/// straight from its frame.
fn rle_encode_rows(image: Rows) -> Vec<u8> {
    let mut out = Vec::with_capacity(image.byte_len() / 4 + 8);
    let mut current: Option<[u8; 4]> = None;
    let mut count: u8 = 0;
    for row in image.iter() {
        for &px in row.as_chunks::<4>().0 {
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
    }
    if let Some(c) = current {
        out.push(count);
        out.extend_from_slice(&c);
    }
    out
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

/// True when the tile rect differs between two frames (row-slice compare,
/// no allocation).
fn tile_differs(a: &[u8], b: &[u8], width: usize, rect: &TileRect) -> bool {
    (0..rect.h).any(|row| {
        let span = row_span(width, rect, row);
        a.get(span.clone()) != b.get(span)
    })
}

/// Writes a tile's rows into rect `rect` of a full frame buffer.
fn write_tile(buf: &mut [u8], width: usize, rect: &TileRect, tile: Rows) {
    for (row, src) in tile.iter().enumerate() {
        let dst = buf.get_mut(row_span(width, rect, row)).filter(|d| d.len() == src.len());
        if let Some(dst) = dst {
            dst.copy_from_slice(src);
        }
    }
}

/// Splits the next tile off `packed`, where whole tiles lie back to back
/// (a receiver's decoded payloads).
fn next_tile<'a>(packed: &mut &'a [u8], rect: &TileRect) -> Rows<'a> {
    let (tile, rest) = packed.split_at_checked(rect.w * rect.h * 4).unwrap_or_default();
    *packed = rest;
    Rows::packed(tile, rect.w, rect.h)
}

/// What one encoded frame turned out to be.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EncodedKind {
    /// A full-frame keyframe (new epoch).
    Key,
    /// A dirty-tile delta with this many tiles.
    Delta { tiles: usize },
}

/// The sender half: tracks the previous frame and its tile-hash table,
/// decides keyframe vs delta, and stamps epoch/sequence numbers.
#[derive(Debug, Clone)]
pub struct FrameStreamer {
    width: usize,
    height: usize,
    grid: TileGrid,
    /// The frame the next delta is taken against.
    prev: Option<Vec<u8>>,
    /// The hash of every tile of `prev`, in grid order.
    table: Vec<u64>,
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
            table: Vec::new(),
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
            return Err(DeltaError::WrongLength {
                width: self.width,
                height: self.height,
                got: rgba.len(),
            });
        }
        let key_due = self.force_key
            || (self.keyframe_every > 0 && self.since_key + 1 >= self.keyframe_every);
        let prev = match &mut self.prev {
            Some(prev) if !key_due => prev,
            _ => return Ok((self.encode_key(client_id, frame, rgba), EncodedKind::Key)),
        };
        // delta: ship only the rects whose bytes moved, and bring `prev`
        // and the table up to date tile by tile
        self.seq += 1;
        self.since_key += 1;
        let dirty: Vec<TileRect> = (0..self.grid.len())
            .map(|idx| self.grid.rect(idx))
            .filter(|rect| tile_differs(prev, rgba, self.width, rect))
            .collect();
        let mut tiles = Vec::with_capacity(dirty.len());
        for group in dirty.chunks(LANES) {
            let mut images = [Rows::default(); LANES];
            for (image, rect) in images.iter_mut().zip(group) {
                *image = Rows::in_frame(rgba, self.width, rect);
            }
            for ((rect, image), hash) in group.iter().zip(images).zip(hash_images(images)) {
                let (tx, ty) = (rect.x0 / self.grid.tile(), rect.y0 / self.grid.tile());
                write_tile(prev, self.width, rect, image);
                if let Some(entry) = self.table.get_mut(self.grid.index(tx, ty)) {
                    *entry = hash;
                }
                tiles.push(WireTile { tx, ty, hash, data: rle_encode_rows(image) });
            }
        }
        let n = tiles.len();
        let msg = crate::protocol::Message::FrameDelta {
            client_id,
            frame,
            epoch: self.epoch,
            seq: self.seq,
            tiles,
            frame_hash: table_hash(&self.table),
        };
        Ok((msg, EncodedKind::Delta { tiles: n }))
    }

    /// A keyframe: new epoch, and `prev` and the table rebuilt from `rgba`
    /// (`encode` has checked the length).
    fn encode_key(
        &mut self,
        client_id: usize,
        frame: u64,
        rgba: &[u8],
    ) -> crate::protocol::Message {
        self.force_key = false;
        self.epoch += 1;
        self.seq = 0;
        self.since_key = 0;
        self.table.clear();
        self.table.extend(tile_hashes(rgba, &self.grid));
        match &mut self.prev {
            Some(prev) => prev.copy_from_slice(rgba),
            None => self.prev = Some(rgba.to_vec()),
        }
        crate::protocol::Message::FrameKey {
            client_id,
            frame,
            epoch: self.epoch,
            seq: 0,
            width: self.width,
            height: self.height,
            payload: rle_encode(rgba),
            frame_hash: table_hash(&self.table),
        }
    }
}

/// What a successfully applied message was.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Applied {
    /// A keyframe replaced the whole frame (new epoch).
    Key,
    /// A delta patched this many tiles.
    Delta { tiles: usize },
}

/// The receiver half: validates and applies keyframes/deltas with
/// all-or-nothing semantics. The committed frame is only ever replaced by
/// a fully-validated next frame — a rejected message leaves it untouched,
/// so the wall can keep showing the last good frame while resync runs.
///
/// Every buffer a message is decoded or checked in is kept between calls
/// and only grows: once it has seen a stream's largest key and delta,
/// applying allocates nothing.
#[derive(Debug, Clone)]
pub struct FrameAssembler {
    width: usize,
    height: usize,
    grid: TileGrid,
    buf: Vec<u8>,
    /// The hash of every tile of `buf`, in grid order (the module docs
    /// state the invariant).
    table: Vec<u64>,
    /// Decoded bytes of the message being applied: a keyframe's whole
    /// frame, or a delta's tiles back to back.
    staged: Vec<u8>,
    /// Where each tile of the delta being applied goes, in message order.
    rects: Vec<TileRect>,
    /// The table as the message being applied would leave it; adopted only
    /// once its hash equals the message's `frame_hash`.
    candidate: Vec<u64>,
    epoch: u64,
    next_seq: u64,
    synced: bool,
    last_hash: u64,
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
            table: Vec::new(),
            staged: Vec::new(),
            rects: Vec::new(),
            candidate: Vec::new(),
            epoch: 0,
            next_seq: 0,
            synced: false,
            last_hash: 0,
            keys_applied: 0,
            deltas_applied: 0,
        }
    }

    /// True once a keyframe has established a valid base and every
    /// subsequent delta validated.
    pub(crate) fn is_synced(&self) -> bool {
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

    /// Epoch of the committed frame (0 before the first keyframe).
    pub(crate) fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Audits the committed frame by reading it: recomputes every tile's
    /// hash from the stored pixels and requires them equal to the table,
    /// and the table's hash equal to what the sender last claimed. This is
    /// the check that catches pixels damaged in memory after they were
    /// committed; a torn or stale commit (which the all-or-nothing apply is
    /// designed to make impossible) would show up here too.
    pub fn verify(&self) -> bool {
        self.synced
            && tile_hashes(&self.buf, &self.grid).eq(self.table.iter().copied())
            && table_hash(&self.table) == self.last_hash
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
            _ => Err(DeltaError::NotPixels),
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
        self.candidate.clear();
        self.candidate.extend(tile_hashes(&self.staged, &self.grid));
        let got = table_hash(&self.candidate);
        if got != frame_hash {
            return Err(DeltaError::FrameHashMismatch { expected: frame_hash, got });
        }
        std::mem::swap(&mut self.buf, &mut self.staged);
        std::mem::swap(&mut self.table, &mut self.candidate);
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
        // Check: decode every tile, hash them, and build the table this
        // delta would leave — all beside the committed frame and table.
        self.staged.clear();
        self.rects.clear();
        for t in tiles {
            if t.tx >= self.grid.cols() || t.ty >= self.grid.rows() {
                self.synced = false;
                return Err(DeltaError::TileOutOfRange { tx: t.tx, ty: t.ty });
            }
            let rect = self.grid.rect(self.grid.index(t.tx, t.ty));
            if let Err(e) = rle_decode_into(&t.data, rect.w * rect.h * 4, &mut self.staged) {
                self.synced = false;
                return Err(e.into());
            }
            self.rects.push(rect);
        }
        self.candidate.clone_from(&self.table);
        let mut packed = self.staged.as_slice();
        for (group, sent) in self.rects.chunks(LANES).zip(tiles.chunks(LANES)) {
            let mut images = [Rows::default(); LANES];
            for (image, rect) in images.iter_mut().zip(group) {
                *image = next_tile(&mut packed, rect);
            }
            for (t, got) in sent.iter().zip(hash_images(images)) {
                if got != t.hash {
                    self.synced = false;
                    return Err(DeltaError::TileHashMismatch { tx: t.tx, ty: t.ty });
                }
                // a tile sent twice ends on its later copy, here and below
                if let Some(entry) = self.candidate.get_mut(self.grid.index(t.tx, t.ty)) {
                    *entry = got;
                }
            }
        }
        let got = table_hash(&self.candidate);
        if got != frame_hash {
            self.synced = false;
            return Err(DeltaError::FrameHashMismatch { expected: frame_hash, got });
        }
        // Commit: nothing below can fail.
        let mut packed = self.staged.as_slice();
        for rect in &self.rects {
            write_tile(&mut self.buf, self.width, rect, next_tile(&mut packed, rect));
        }
        std::mem::swap(&mut self.table, &mut self.candidate);
        self.next_seq = seq + 1;
        self.last_hash = frame_hash;
        self.deltas_applied += 1;
        Ok(Applied::Delta { tiles: tiles.len() })
    }
}

/// Decodes an RLE stream, validating against the byte length the claimed
/// geometry requires. Never panics on attacker-shaped input; never
/// allocates beyond `expected_len`.
#[cfg(test)]
pub(crate) fn rle_decode(data: &[u8], expected_len: usize) -> Result<Vec<u8>, CodecError> {
    let mut out = Vec::new();
    rle_decode_into(data, expected_len, &mut out)?;
    Ok(out)
}

#[cfg(test)]
impl FrameStreamer {
    /// Epoch of the current keyframe lineage (0 before the first frame).
    pub(crate) fn epoch(&self) -> u64 {
        self.epoch
    }
}

#[cfg(test)]
impl FrameAssembler {
    /// Keyframes committed so far.
    pub(crate) fn keys_applied(&self) -> u64 {
        self.keys_applied
    }

    /// Deltas committed so far.
    pub(crate) fn deltas_applied(&self) -> u64 {
        self.deltas_applied
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
            let again = WireTile {
                hash: reference_hash(&raw, rect.w),
                data: rle_encode(&raw),
                ..tiles[0].clone()
            };
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

    /// A key, a delta of several tiles and a delta of no tiles go over the
    /// wire with one byte damaged. Each either fails to decode,
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
        for (i, name) in ["key", "delta", "empty delta"].into_iter().enumerate() {
            let shown = frame(w, h, (i as u64).min(1));
            let msg = streamer.encode(3, i as u64, &shown).unwrap().0;
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

    fn xorshift(seed: u64) -> impl FnMut() -> u64 {
        let mut rng = seed | 1;
        move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        }
    }

    fn noise(len: usize, seed: u64) -> Vec<u8> {
        let mut next = xorshift(seed);
        (0..len).map(|_| (next() >> 24) as u8).collect()
    }

    /// Appends one tile rect of a full row-major RGBA8 frame to `out`.
    fn tile_bytes(rgba: &[u8], width: usize, rect: &TileRect, out: &mut Vec<u8>) {
        for row in 0..rect.h {
            out.extend_from_slice(&rgba[row_span(width, rect, row)]);
        }
    }

    /// Writes a packed tile's bytes into rect `rect` of a frame.
    fn write_packed(buf: &mut [u8], width: usize, rect: &TileRect, data: &[u8]) {
        write_tile(buf, width, rect, Rows::packed(data, rect.w, rect.h));
    }

    /// The little-endian word of up to eight bytes, zero-extended.
    fn le_word(bytes: &[u8]) -> u64 {
        bytes.iter().rev().fold(0, |w, &b| w << 8 | u64::from(b))
    }

    /// One row into a state, a word at a time, by the module docs.
    fn scalar_fold(h: u64, row: &[u8]) -> u64 {
        row.chunks(8).fold(h, |h, w| step(h, le_word(w)))
    }

    /// The module docs' pixel hash of a `width`-pixel-wide image whose rows
    /// lie back to back, one word at a time: the reference every laned path
    /// is held to.
    fn reference_hash(bytes: &[u8], width: usize) -> u64 {
        let h = bytes.chunks((width * 4).max(1)).fold(SEED, scalar_fold);
        finish(h, bytes.len())
    }

    /// The reference table: each tile copied out of the frame and hashed
    /// by [`reference_hash`].
    fn scalar_tile_hashes(rgba: &[u8], grid: &TileGrid) -> Vec<u64> {
        (0..grid.len())
            .map(|idx| {
                let rect = grid.rect(idx);
                let mut raw = Vec::new();
                tile_bytes(rgba, grid.width(), &rect, &mut raw);
                reference_hash(&raw, rect.w)
            })
            .collect()
    }

    fn table_of(rgba: &[u8], grid: &TileGrid) -> Vec<u64> {
        tile_hashes(rgba, grid).collect()
    }

    #[test]
    fn laned_kernel_equals_the_scalar_reference_per_lane() {
        let start = [SEED, 0, 1, u64::MAX];
        let scalar = |states: [u64; LANES], rows: [&[u8]; LANES]| -> [u64; LANES] {
            std::array::from_fn(|l| scalar_fold(states[l], rows[l]))
        };
        for len in [0, 4, 8, 124, 128, 4096] {
            let data: [Vec<u8>; LANES] = std::array::from_fn(|l| noise(len, 11 + l as u64));
            let rows = data.each_ref().map(|d| d.as_slice());
            assert_eq!(fold_rows(start, rows), scalar(start, rows), "four lanes of {len}");
        }
        // ragged groups: every lane its own length, whole words or an odd
        // row's last pixel, empty lanes anywhere
        let ragged = [
            [128, 128, 128, 0],
            [0, 0, 0, 4096],
            [0, 4, 0, 0],
            [124, 0, 4096, 4],
            [4096, 1024, 1020, 1024],
            [24, 128, 128, 20],
            [20, 16, 12, 8],
            [4, 4, 4, 4],
            [12, 0, 0, 0],
        ];
        for (i, lens) in ragged.into_iter().enumerate() {
            let data = lens.map(|len| noise(len, 97 + i as u64 + len as u64));
            let rows = data.each_ref().map(|d| d.as_slice());
            assert_eq!(fold_rows(start, rows), scalar(start, rows), "lanes of {lens:?}");
        }
        // states carry over: rows fed one call at a time are one chain,
        // each odd-width row ending in its own zero-extended word
        let widths = [124, 100, 4, 28];
        let data: [Vec<u8>; LANES] =
            std::array::from_fn(|l| noise(4 * widths[l], 5 + l as u64));
        let (mut laned, mut want) = (start, start);
        for row in 0..4 {
            let rows = std::array::from_fn(|l| data[l].chunks(widths[l]).nth(row).unwrap());
            laned = fold_rows(laned, rows);
            want = scalar(want, rows);
        }
        assert_eq!(laned, want);
        // whole images: packed, of every width class, beside empty lanes
        for dims in [[(32, 32), (33, 5), (0, 0), (1, 7)], [(6, 32), (0, 0), (0, 0), (0, 0)]] {
            let data = dims.map(|(w, h)| noise(w * h * 4, (w * 100 + h) as u64));
            let images = std::array::from_fn(|l| Rows::packed(&data[l], dims[l].0, dims[l].1));
            let want = std::array::from_fn(|l| reference_hash(&data[l], dims[l].0));
            assert_eq!(hash_images(images), want, "{dims:?}");
            assert_eq!(image_hash(&data[0], dims[0].0, dims[0].1), want[0]);
        }
    }

    /// Flips the bits `mask` in the word of `img` that begins at byte `at`
    /// (eight bytes, or four at the end of an odd-width row).
    fn flip_word(img: &mut [u8], at: usize, len: usize, mask: u64) {
        for (b, m) in img[at..at + len].iter_mut().zip(mask.to_le_bytes()) {
            *b ^= m;
        }
    }

    /// Where each word of a `w`×`h` image begins, and its byte count.
    fn word_spans(w: usize, h: usize) -> Vec<(usize, usize)> {
        let row = w * 4;
        (0..h)
            .flat_map(|y| (0..row).step_by(8).map(move |x| (y * row + x, (row - x).min(8))))
            .collect()
    }

    /// A nonzero mask of the low `len` bytes.
    fn word_mask(next: &mut impl FnMut() -> u64, len: usize) -> u64 {
        let keep = if len >= 8 { u64::MAX } else { (1 << (8 * len)) - 1 };
        loop {
            let m = next() & keep;
            if m != 0 {
                return m;
            }
        }
    }

    /// One changed word always changes the hash (module docs): any change,
    /// at every word of a 32 × 32 tile, of a 33 × 5 image whose rows end in
    /// a zero-extended pixel, and of the 1 × 5 edge tile of a 33 × 5 frame
    /// hashed in place.
    #[test]
    fn every_single_word_change_changes_the_hash() {
        let mut next = xorshift(41);
        for (w, h) in [(32, 32), (33, 5)] {
            let mut img = noise(w * h * 4, (w * h) as u64);
            let base = image_hash(&img, w, h);
            assert_eq!(base, reference_hash(&img, w));
            for (at, len) in word_spans(w, h) {
                let top = 0xffu64 << (8 * (len - 1));
                let masks = [1, top, word_mask(&mut next, len), word_mask(&mut next, len)];
                for mask in masks {
                    flip_word(&mut img, at, len, mask);
                    assert_ne!(image_hash(&img, w, h), base, "{w}×{h}, word at {at}, {mask:#x}");
                    flip_word(&mut img, at, len, mask);
                }
            }
        }
        let (w, h) = (33, 5);
        let grid = TileGrid::with_default_tile(w, h);
        let edge = grid.rect(grid.index(1, 0));
        assert_eq!((edge.w, edge.h), (1, 5));
        let mut rgba = noise(w * h * 4, 8);
        let base = table_of(&rgba, &grid);
        for y in 0..h {
            let at = row_span(w, &edge, y).start;
            for mask in [1, 0xff00_0000, word_mask(&mut next, 4)] {
                flip_word(&mut rgba, at, 4, mask);
                let hit = table_of(&rgba, &grid);
                assert_eq!(hit[0], base[0]);
                assert_ne!(hit[1], base[1], "edge row {y}, {mask:#x}");
                flip_word(&mut rgba, at, 4, mask);
            }
        }
    }

    /// The rotate at work: changes confined to the high byte of two words
    /// (the alpha of a pixel at an odd column) never cancel.
    #[test]
    fn two_high_byte_changes_are_caught() {
        let (w, h) = (32, 32);
        let mut img = noise(w * h * 4, 12);
        let base = image_hash(&img, w, h);
        let mut next = xorshift(10_000);
        for trial in 0..10_000 {
            let first = (next() % 512) as usize;
            let second = (first + 1 + (next() % 511) as usize) % 512;
            let masks = [first, second].map(|word| (word * 8 + 7, (next() % 255 + 1) as u8));
            for (at, m) in masks {
                img[at] ^= m;
            }
            assert_ne!(image_hash(&img, w, h), base, "trial {trial}: {masks:?}");
            for (at, m) in masks {
                img[at] ^= m;
            }
        }
    }

    /// Every byte of a 32 × 32 tile and of an odd-width tile (the 15 × 32
    /// right-edge tile of a 79 × 32 frame, hashed in place) set to each of
    /// its 255 other values: no change goes unseen. ≈ 1.3 M hashes, four
    /// abreast; run it in a release build.
    #[test]
    #[ignore = "exhaustive; run with `cargo test -p hyperwall --release -- --ignored`"]
    fn every_single_byte_change_changes_the_hash() {
        let tile = noise(32 * 32 * 4, 21);
        let base = image_hash(&tile, 32, 32);
        let mut copies: [Vec<u8>; LANES] = std::array::from_fn(|_| tile.clone());
        for at in 0..tile.len() {
            let values: Vec<u8> = (0..=255u8).filter(|&v| v != tile[at]).collect();
            for group in values.chunks(LANES) {
                for (copy, &v) in copies.iter_mut().zip(group) {
                    copy[at] = v;
                }
                let images = std::array::from_fn(|l| Rows::packed(&copies[l], 32, 32));
                for (h, v) in hash_images(images).into_iter().zip(group) {
                    assert_ne!(h, base, "byte {at} = {v}");
                }
            }
            for copy in &mut copies {
                copy[at] = tile[at];
            }
        }

        let (w, h) = (79, 32);
        let grid = TileGrid::with_default_tile(w, h);
        let edge = grid.rect(grid.index(2, 0));
        assert_eq!((edge.w, edge.h), (15, 32));
        let frame = noise(w * h * 4, 22);
        let base = hash_images([Rows::in_frame(&frame, w, &edge); LANES])[0];
        let mut copies: [Vec<u8>; LANES] = std::array::from_fn(|_| frame.clone());
        for at in (0..h).flat_map(|y| row_span(w, &edge, y)) {
            let values: Vec<u8> = (0..=255u8).filter(|&v| v != frame[at]).collect();
            for group in values.chunks(LANES) {
                for (copy, &v) in copies.iter_mut().zip(group) {
                    copy[at] = v;
                }
                let images = std::array::from_fn(|l| Rows::in_frame(&copies[l], w, &edge));
                for (h, v) in hash_images(images).into_iter().zip(group) {
                    assert_ne!(h, base, "byte {at} = {v}");
                }
            }
            for copy in &mut copies {
                copy[at] = frame[at];
            }
        }
    }

    #[test]
    fn tile_hashes_equal_scalar_hashes_tile_by_tile() {
        // full quadruples, a ragged last group, a short bottom row, single
        // rows and columns, and grids of fewer tiles than lanes
        // (79 × 40: 15-pixel edge tiles, every row ending in a lone pixel)
        let sizes = [(480, 360), (256, 192), (70, 50), (79, 40), (33, 1), (1, 1), (96, 20), (0, 0)];
        for (w, h) in sizes {
            let grid = TileGrid::with_default_tile(w, h);
            let rgba = noise(w * h * 4, (w * 1000 + h) as u64);
            let got = table_of(&rgba, &grid);
            assert_eq!(got.len(), grid.len(), "{w}×{h}");
            assert_eq!(got, scalar_tile_hashes(&rgba, &grid), "{w}×{h}");
        }
    }

    #[test]
    fn frame_hash_binds_tiles_to_their_positions() {
        let (w, h) = (96, 64);
        let grid = TileGrid::with_default_tile(w, h);
        let rgba = noise(w * h * 4, 3);
        // swap the contents of tiles 1 and 3 (both 32×32)
        let (mut a, mut b) = (Vec::new(), Vec::new());
        tile_bytes(&rgba, w, &grid.rect(1), &mut a);
        tile_bytes(&rgba, w, &grid.rect(3), &mut b);
        let mut swapped = rgba.clone();
        write_packed(&mut swapped, w, &grid.rect(1), &b);
        write_packed(&mut swapped, w, &grid.rect(3), &a);
        let (before, mut after) = (table_of(&rgba, &grid), table_of(&swapped, &grid));
        assert_ne!(table_hash(&before), table_hash(&after));
        // the same hashes in another order, nothing else
        after.swap(1, 3);
        assert_eq!(before, after);
    }

    /// Frame `i` of a seeded sequence: the moving blob of `frame`, plus a
    /// few tiles of noise that come and go.
    fn busy_frame(w: usize, h: usize, i: u64) -> Vec<u8> {
        let grid = TileGrid::with_default_tile(w, h);
        let mut rgba = frame(w, h, i / 2); // every other frame repeats the blob
        let mut next = xorshift(i + 1);
        for _ in 0..next() % 4 {
            let rect = grid.rect((next() % grid.len() as u64) as usize);
            write_packed(&mut rgba, w, &rect, &noise(rect.w * rect.h * 4, next()));
        }
        rgba
    }

    #[test]
    fn both_tables_track_the_frame_through_keys_deltas_and_a_resync() {
        let (w, h) = (200, 72); // 7 columns (4 + 3), bottom row 8 px high
        let grid = TileGrid::with_default_tile(w, h);
        let mut streamer = FrameStreamer::new(w, h, 7);
        let mut asm = FrameAssembler::new(w, h);
        let (mut keys, mut deltas) = (0, 0);
        for i in 0..40u64 {
            if i == 18 {
                streamer.force_keyframe(); // a resync in mid-cadence
            }
            let rgba = busy_frame(w, h, i);
            let (msg, kind) = streamer.encode(0, i, &rgba).unwrap();
            match kind {
                EncodedKind::Key => keys += 1,
                EncodedKind::Delta { .. } => deltas += 1,
            }
            assert_eq!(kind == EncodedKind::Key, i == 18 || [0, 7, 14, 25, 32, 39].contains(&i));
            asm.apply(&msg).unwrap();
            let scratch = scalar_tile_hashes(&rgba, &grid);
            assert_eq!(streamer.table, scratch, "sender table, frame {i}");
            assert_eq!(asm.table, scratch, "receiver table, frame {i}");
            assert_eq!(streamer.prev.as_deref(), Some(rgba.as_slice()), "sender prev, frame {i}");
            assert_eq!(asm.frame(), Some(rgba.as_slice()), "frame {i}");
            assert_eq!(asm.last_hash, table_hash(&scratch));
            assert!(asm.verify());
        }
        assert_eq!((asm.keys_applied(), asm.deltas_applied()), (keys, deltas));
        assert!(keys == 7 && deltas == 33);
    }

    #[test]
    fn verify_recomputes_from_the_pixels() {
        let (w, h) = (70, 50);
        let mut streamer = FrameStreamer::new(w, h, 0);
        let mut asm = FrameAssembler::new(w, h);
        assert!(!asm.verify(), "nothing committed yet");
        for i in 0..2 {
            asm.apply(&streamer.encode(0, i, &frame(w, h, i)).unwrap().0).unwrap();
        }
        assert!(asm.verify());
        // one byte of the committed pixels, in the last (ragged) tile
        let mut hit = asm.clone();
        *hit.buf.last_mut().unwrap() ^= 1;
        assert!(!hit.verify(), "verify must read the pixels");
        // one word of the table, pixels intact
        for idx in [0, asm.table.len() - 1] {
            let mut hit = asm.clone();
            hit.table[idx] ^= 1;
            assert!(!hit.verify(), "verify must check table word {idx}");
        }
        // the claimed hash alone
        let mut hit = asm.clone();
        hit.last_hash ^= 1;
        assert!(!hit.verify());
        assert!(asm.verify());
    }

    /// Rejected deltas leave pixels AND table as they were; a delta that
    /// carries one tile twice, honestly hashed, ends on the later copy in
    /// both.
    #[test]
    fn rejected_deltas_touch_neither_frame_nor_table() {
        let (w, h) = (200, 72);
        let mut streamer = FrameStreamer::new(w, h, 0);
        let mut asm = FrameAssembler::new(w, h);
        asm.apply(&streamer.encode(0, 0, &busy_frame(w, h, 0)).unwrap().0).unwrap();
        let next = busy_frame(w, h, 3);
        let (delta, kind) = streamer.encode(0, 1, &next).unwrap();
        assert!(matches!(kind, EncodedKind::Delta { tiles } if tiles > LANES));
        let Message::FrameDelta { tiles, frame_hash, .. } = &delta else { panic!("{delta:?}") };
        let rebuilt = |tiles: Vec<WireTile>, frame_hash: u64| Message::FrameDelta {
            client_id: 0,
            frame: 1,
            epoch: 1,
            seq: 1,
            tiles,
            frame_hash,
        };

        // every tile valid, the frame hash a lie
        let mut hit = asm.clone();
        let err = hit.apply(&rebuilt(tiles.clone(), frame_hash ^ 1)).unwrap_err();
        assert!(matches!(err, DeltaError::FrameHashMismatch { .. }), "{err}");
        assert_eq!((&hit.buf, &hit.table), (&asm.buf, &asm.table));
        assert!(!hit.is_synced());

        // the LAST tile fails its hash: all before it were decoded and hashed
        let mut bad = tiles.clone();
        bad.last_mut().unwrap().hash ^= 1;
        let mut hit = asm.clone();
        let err = hit.apply(&rebuilt(bad, *frame_hash)).unwrap_err();
        let last = tiles.last().unwrap();
        let at = (last.tx, last.ty);
        assert!(matches!(err, DeltaError::TileHashMismatch { tx, ty } if (tx, ty) == at), "{err}");
        assert_eq!((&hit.buf, &hit.table), (&asm.buf, &asm.table));
        assert!(!hit.is_synced());

        // the first tile a second time, with other content and the frame
        // hash of the frame that results: applied, later copy wins
        let rect = asm.grid.rect(asm.grid.index(tiles[0].tx, tiles[0].ty));
        let raw = noise(rect.w * rect.h * 4, 77);
        let mut twice = tiles.clone();
        let hash = reference_hash(&raw, rect.w);
        twice.push(WireTile { hash, data: rle_encode(&raw), ..tiles[0].clone() });
        let mut want = next.clone();
        write_packed(&mut want, w, &rect, &raw);
        let want_table = scalar_tile_hashes(&want, &asm.grid);
        let mut hit = asm.clone();
        let applied = hit.apply(&rebuilt(twice.clone(), table_hash(&want_table))).unwrap();
        assert_eq!(applied, Applied::Delta { tiles: twice.len() });
        assert_eq!(hit.buf, want);
        assert_eq!(hit.table, want_table);
        assert!(hit.verify());
        // ... and with the hash of the frame WITHOUT the second copy: refused
        let mut hit = asm.clone();
        assert!(hit.apply(&rebuilt(twice, *frame_hash)).is_err());
        assert_eq!((&hit.buf, &hit.table), (&asm.buf, &asm.table));

        // the honest delta still applies to the untouched original
        asm.apply(&delta).unwrap();
        assert_eq!(asm.frame(), Some(next.as_slice()));
    }

    /// Revision 3 defined `frame_hash` as FNV-1a over the frame's bytes. A
    /// peer still computing that is refused on its first message and on any
    /// later one, with nothing of the assembler's state moved.
    #[test]
    fn revision_3_frame_hashes_are_rejected() {
        let (w, h) = (70, 50);
        let mut streamer = FrameStreamer::new(w, h, 0);
        let mut asm = FrameAssembler::new(w, h);
        let (f0, f1) = (frame(w, h, 0), frame(w, h, 1));
        let (mut key, _) = streamer.encode(0, 0, &f0).unwrap();
        let (mut delta, _) = streamer.encode(0, 1, &f1).unwrap();
        if let Message::FrameKey { frame_hash, .. } = &mut key {
            assert_ne!(*frame_hash, fnv1a(&f0));
            *frame_hash = fnv1a(&f0);
        }
        if let Message::FrameDelta { frame_hash, .. } = &mut delta {
            *frame_hash = fnv1a(&f1);
        }
        let fresh = asm.clone();
        let err = asm.apply(&key).unwrap_err();
        assert!(matches!(err, DeltaError::FrameHashMismatch { .. }), "{err}");
        assert_eq!((&asm.buf, &asm.table, asm.epoch()), (&fresh.buf, &fresh.table, 0));
        assert!(!asm.is_synced());
        // an honest keyframe (epoch 2), then the old-style delta
        streamer.force_keyframe();
        asm.apply(&streamer.encode(0, 2, &f0).unwrap().0).unwrap();
        if let Message::FrameDelta { epoch, .. } = &mut delta {
            *epoch = 2;
        }
        let synced = asm.clone();
        let err = asm.apply(&delta).unwrap_err();
        assert!(matches!(err, DeltaError::FrameHashMismatch { .. }), "{err}");
        assert_eq!((&asm.buf, &asm.table, asm.epoch()), (&synced.buf, &synced.table, 2));
        assert!(!asm.is_synced(), "a delta that does not add up forces a resync");
    }

    /// Revision 4 hashed tiles and the table with FNV-1a, byte by byte. A
    /// peer still doing so is refused on its keyframe and on its deltas,
    /// with nothing of the assembler's state moved.
    #[test]
    fn revision_4_frame_hashes_are_rejected() {
        let (w, h) = (70, 50);
        let grid = TileGrid::with_default_tile(w, h);
        let fnv_tiles = |rgba: &[u8]| -> Vec<u8> {
            (0..grid.len())
                .flat_map(|idx| {
                    let mut raw = Vec::new();
                    tile_bytes(rgba, w, &grid.rect(idx), &mut raw);
                    fnv1a(&raw).to_le_bytes()
                })
                .collect()
        };
        let revision_4 = |rgba: &[u8]| fnv1a(&fnv_tiles(rgba));
        let mut streamer = FrameStreamer::new(w, h, 0);
        let mut asm = FrameAssembler::new(w, h);
        let (f0, f1) = (frame(w, h, 0), frame(w, h, 1));
        let (mut key, _) = streamer.encode(0, 0, &f0).unwrap();
        let (delta, _) = streamer.encode(0, 1, &f1).unwrap();
        if let Message::FrameKey { frame_hash, .. } = &mut key {
            assert_ne!(*frame_hash, revision_4(&f0));
            *frame_hash = revision_4(&f0);
        }
        let fresh = asm.clone();
        let err = asm.apply(&key).unwrap_err();
        assert!(matches!(err, DeltaError::FrameHashMismatch { .. }), "{err}");
        assert_eq!((&asm.buf, &asm.table, asm.epoch()), (&fresh.buf, &fresh.table, 0));
        assert!(!asm.is_synced());

        // an honest keyframe (epoch 2), then the delta as revision 4 sends
        // it: every tile FNV-1a-hashed, and the frame hash over those
        streamer.force_keyframe();
        asm.apply(&streamer.encode(0, 2, &f0).unwrap().0).unwrap();
        let Message::FrameDelta { tiles, .. } = &delta else { panic!("{delta:?}") };
        assert!(tiles.len() > 1);
        let old_tiles: Vec<WireTile> = tiles
            .iter()
            .map(|t| {
                let rect = grid.rect(grid.index(t.tx, t.ty));
                let raw = rle_decode(&t.data, rect.w * rect.h * 4).unwrap();
                assert_ne!(t.hash, fnv1a(&raw));
                WireTile { hash: fnv1a(&raw), ..t.clone() }
            })
            .collect();
        let as_revision_4 = |tiles: Vec<WireTile>, frame_hash: u64| Message::FrameDelta {
            client_id: 0,
            frame: 1,
            epoch: 2,
            seq: 1,
            tiles,
            frame_hash,
        };
        let synced = asm.clone();
        let first = (old_tiles[0].tx, old_tiles[0].ty);
        let err = asm.apply(&as_revision_4(old_tiles, revision_4(&f1))).unwrap_err();
        let at_first = matches!(err, DeltaError::TileHashMismatch { tx, ty } if (tx, ty) == first);
        assert!(at_first, "{err}");
        assert_eq!((&asm.buf, &asm.table, asm.epoch()), (&synced.buf, &synced.table, 2));
        assert!(!asm.is_synced(), "a delta that does not add up forces a resync");
        // ... and with today's tile hashes under revision 4's frame hash
        let mut asm = synced.clone();
        let err = asm.apply(&as_revision_4(tiles.clone(), revision_4(&f1))).unwrap_err();
        assert!(matches!(err, DeltaError::FrameHashMismatch { .. }), "{err}");
        assert_eq!((&asm.buf, &asm.table, asm.epoch()), (&synced.buf, &synced.table, 2));
        assert!(!asm.is_synced());
        // the honest delta still applies
        let mut asm = synced;
        let Message::FrameDelta { frame_hash, .. } = &delta else { unreachable!() };
        asm.apply(&as_revision_4(tiles.clone(), *frame_hash)).unwrap();
        assert_eq!(asm.frame(), Some(f1.as_slice()));
    }

    /// After one key and one delta, a second round of each allocates
    /// nothing: every kept buffer is one of the same allocations
    /// (pairs trade places on commit) at the same capacity.
    #[test]
    fn steady_state_apply_keeps_its_buffers() {
        let (w, h) = (200, 72);
        let mut streamer = FrameStreamer::new(w, h, 0);
        let mut asm = FrameAssembler::new(w, h);
        let mut round = |asm: &mut FrameAssembler| {
            streamer.force_keyframe();
            asm.apply(&streamer.encode(0, 0, &busy_frame(w, h, 0)).unwrap().0).unwrap();
            let (delta, kind) = streamer.encode(0, 1, &busy_frame(w, h, 3)).unwrap();
            assert!(matches!(kind, EncodedKind::Delta { tiles } if tiles > LANES));
            asm.apply(&delta).unwrap();
            assert!(asm.verify());
            let bytes = |v: &Vec<u8>| (v.as_ptr() as usize, v.capacity());
            let words = |v: &Vec<u64>| (v.as_ptr() as usize, v.capacity());
            let mut kept = vec![
                bytes(&asm.buf),
                bytes(&asm.staged),
                words(&asm.table),
                words(&asm.candidate),
                (asm.rects.as_ptr() as usize, asm.rects.capacity()),
            ];
            kept.sort_unstable();
            kept
        };
        let first = round(&mut asm);
        assert!(first.iter().all(|&(_, capacity)| capacity > 0), "{first:?}");
        assert_eq!(round(&mut asm), first, "the second round reallocated");
        assert_eq!(round(&mut asm), first, "the third round reallocated");
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
    fn wrong_geometry_is_rejected() {
        let mut streamer = FrameStreamer::new(32, 32, 0);
        assert!(matches!(
            streamer.encode(0, 0, &[0u8; 16]),
            Err(DeltaError::WrongLength { .. })
        ));
        let mut asm = FrameAssembler::new(16, 16);
        let (key, _) =
            FrameStreamer::new(32, 32, 0).encode(0, 0, &frame(32, 32, 0)).unwrap();
        let err = asm.apply(&key).unwrap_err();
        assert!(matches!(err, DeltaError::WrongSize { .. }), "{err}");
    }

    /// A buffer of the wrong length is reported as the byte count it is,
    /// against the frame it should have been, and sends nothing.
    #[test]
    fn wrong_length_buffers_are_reported_as_lengths() {
        let mut streamer = FrameStreamer::new(32, 32, 0);
        let err = streamer.encode(0, 0, &[0u8; 16]).unwrap_err();
        assert!(matches!(err, DeltaError::WrongLength { width: 32, height: 32, got: 16 }));
        let text = err.to_string();
        for part in ["16 bytes", "32×32", "4096"] {
            assert!(text.contains(part), "{text}");
        }
        assert!(!text.contains("assembler") && !text.contains("(4, 1)"), "{text}");
        assert_eq!(streamer.epoch(), 0, "nothing was encoded");
    }

    /// A control message handed to the assembler is refused as what it is,
    /// synced or not, and moves nothing.
    #[test]
    fn a_message_without_pixels_is_refused_as_such() {
        let (w, h) = (64, 48);
        let mut streamer = FrameStreamer::new(w, h, 0);
        let mut asm = FrameAssembler::new(w, h);
        for msg in [Message::Ready { client_id: 0 }, Message::Execute { frame: 3 }] {
            let err = asm.apply(&msg).unwrap_err();
            assert!(matches!(err, DeltaError::NotPixels), "{err}");
            assert!(!err.to_string().contains("keyframe"), "{err}");
        }
        asm.apply(&streamer.encode(0, 0, &frame(w, h, 0)).unwrap().0).unwrap();
        let before = asm.clone();
        let err = asm.apply(&Message::Ready { client_id: 0 }).unwrap_err();
        assert!(matches!(err, DeltaError::NotPixels), "{err}");
        assert!(asm.is_synced(), "a stray control message must not unsync");
        assert_eq!((&asm.buf, &asm.table), (&before.buf, &before.table));
        assert_eq!(asm.last_hash, before.last_hash);
    }

    /// The box filter written out by hand: float mean, rounded, over the
    /// rect the filter's contract names.
    fn box_reference(rgba: &[u8], w: usize, h: usize, ow: usize, oh: usize) -> Vec<u8> {
        let span = |i: usize, n: usize, o: usize| (i * n / o, ((i + 1) * n / o).max(i * n / o + 1));
        let mut out = Vec::new();
        for y in 0..oh {
            let (y0, y1) = span(y, h, oh);
            for x in 0..ow {
                let (x0, x1) = span(x, w, ow);
                for c in 0..4 {
                    let mut sum = 0.0;
                    for sy in y0..y1 {
                        for sx in x0..x1 {
                            sum += f64::from(rgba[(sy * w + sx) * 4 + c]);
                        }
                    }
                    out.push((sum / ((y1 - y0) * (x1 - x0)) as f64).round() as u8);
                }
            }
        }
        out
    }

    #[test]
    fn box_filter_of_a_constant_frame_is_constant() {
        let px = [7u8, 99, 200, 255];
        let flat: Vec<u8> = px.repeat(70 * 50);
        for (ow, oh) in [(17, 12), (70, 50), (1, 1), (140, 3)] {
            assert_eq!(box_filter(&flat, 70, 50, ow, oh), px.repeat(ow * oh), "{ow}×{oh}");
        }
        // pixels missing from a frame cut short count as zero, in whole
        // rows and in part of one: 4 × 2 of 200, then 6 of its 8 pixels
        let full = [200u8; 4 * 2 * 4];
        assert_eq!(box_filter(&full[..16], 4, 2, 1, 1), [100; 4]);
        assert_eq!(box_filter(&full[..24], 4, 2, 1, 1), [150; 4]);
    }

    #[test]
    fn box_filter_means_the_source_rect() {
        // the wall_drag mirror, a 4 × 4 block a pixel
        let big = noise(256 * 192 * 4, 1);
        let low = box_filter(&big, 256, 192, 64, 48);
        assert_eq!(low.len(), 64 * 48 * 4);
        assert_eq!(low, box_reference(&big, 256, 192, 64, 48));
        // the first output pixel by hand
        let corner: Vec<u32> = (0..4)
            .map(|c| {
                (0..4)
                    .flat_map(|y| (0..4).map(move |x| (y * 256 + x) * 4 + c))
                    .map(|i| u32::from(big[i]))
                    .sum()
            })
            .collect();
        let want: Vec<u8> = corner.iter().map(|&s| ((s + 8) / 16) as u8).collect();
        assert_eq!(low[..4], want[..]);
        // 32 × 24 panels to 8 × 8: rows of 3 source rows, not 4
        let small = noise(32 * 24 * 4, 2);
        assert_eq!(box_filter(&small, 32, 24, 8, 8), box_reference(&small, 32, 24, 8, 8));
        // uneven rects both ways
        let odd = noise(70 * 50 * 4, 3);
        assert_eq!(box_filter(&odd, 70, 50, 17, 12), box_reference(&odd, 70, 50, 17, 12));
    }

    #[test]
    fn box_filter_finer_than_the_source_copies_one_pixel_each() {
        // 3 × 2 → 7 × 5: every output rect is one source pixel, x·w/ow
        let src = noise(3 * 2 * 4, 4);
        let up = box_filter(&src, 3, 2, 7, 5);
        assert_eq!(up, box_reference(&src, 3, 2, 7, 5));
        for y in 0..5 {
            for x in 0..7 {
                let (at, from) = ((y * 7 + x) * 4, ((y * 2 / 5) * 3 + x * 3 / 7) * 4);
                assert_eq!(up[at..at + 4], src[from..from + 4], "({x}, {y})");
            }
        }
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
