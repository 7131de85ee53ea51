//! `.ncr` format **v3** — the chunked, multi-resolution streaming layout,
//! and the one generation this build writes and reads.
//!
//! A v3 file is a container of CRC32C-framed sections with a trailer
//! directory and a checksummed footer (byte layout in the module docs of
//! `container.rs`); the header, axis and variable-head payload codecs are
//! in [`crate::format`]. Each variable's bulk data is split into **chunk
//! frames**, one per (time window, pyramid level), so a reader can fetch
//! exactly the bytes one animation frame needs via `Storage::read_at`
//! instead of slurping the whole file. In this order:
//!
//! ```text
//! Header   (kind 1) dataset id, global attrs, axis count, varmeta count
//! Axis     (kind 2) one deduplicated axis per section
//! VarMeta  (kind 5) head (id, axis refs, attrs, shape) | window u32 |
//!                   levels u32 — metadata only, no bulk data
//! Chunk    (kind 6) var u32 | window u32 | level u32 | codec u8 |
//!                   n u64 | body              (ordered by (var, win, lvl))
//! ChunkDir (kind 7) count u32, then per chunk, in the same order:
//!                   var u32 | window u32 | level u32 |
//!                   frame offset u64 | payload len u64 | crc u32
//! ```
//!
//! A chunk's body is the window's data (`f32 × n`) plus its bit-packed
//! mask, either raw (codec 0, [`crate::format`]'s raw body) or
//! PackBits-RLE compressed (codec 1 — chosen per chunk only when it is
//! actually smaller, so constant fields shrink and noisy fields pay
//! nothing). Level 0 is full resolution; level *k* downsamples the two
//! trailing non-time dimensions by `2^k`, averaging valid cells (a cell
//! with no valid source cells is masked). The pyramid is what lets
//! [`crate::stream`] degrade a damaged or slow chunk to a coarser level
//! instead of stalling playback.
//!
//! The strict reader (behind [`crate::format::from_bytes`]) and the ranged
//! open ([`read_meta_with`]) read the metadata through one function, so
//! they refuse the same files. The strict reader's metadata step, which the
//! catalog indexes by, verifies the whole image first; the strict reader
//! then decodes every chunk and rebuilds variables from level 0 —
//! `from_bytes(to_bytes(ds))` is bit-exact with the source dataset. Salvage (behind
//! [`crate::format::from_bytes_salvage`]) recovers per chunk by the policy
//! the streamer serves by (`best_window`): a corrupt level-0 chunk falls
//! back to the best intact pyramid level (upsampled, nearest-neighbor), or
//! to a fully-masked window at worst.

use crate::attr::Attributes;
use crate::axis::{Axis, AxisKind};
use crate::container::{self, get_u32, get_u64, get_u8, Entry, PutLe, Writer};
use crate::dataset::Dataset;
use crate::error::{CdmsError, Result};
use crate::format::{
    self, AxisSlot, Salvage, SalvageReport, Salvaged, SectionKind, SectionSpan,
};
use crate::storage::{crc32c, Storage};
use crate::{MaskedArray, Variable};
use rayon::prelude::*;
use std::borrow::{Borrow, Cow};
use std::collections::BTreeMap;
use std::ops::Range;
use std::path::Path;

/// Bytes of a chunk payload ahead of its body: identity triple u32 × 3,
/// codec u8, element count u64.
const CHUNK_HEAD_LEN: usize = 21;
/// Where the codec byte sits in a chunk payload: after the identity triple.
const CODEC_AT: usize = 12;
/// Raw (uncompressed) chunk body.
pub(crate) const CODEC_RAW: u8 = 0;
/// PackBits run-length-encoded chunk body.
pub const CODEC_RLE: u8 = 1;

/// Writer knobs for the v3 layout.
#[derive(Debug, Clone)]
pub struct V3Options {
    /// Time steps per chunk window (≥ 1).
    pub window: usize,
    /// Pyramid levels per window (≥ 1; level 0 is full resolution). The
    /// writer caps this per variable once every spatial dimension has
    /// collapsed to a single cell.
    pub levels: usize,
    /// Try PackBits compression per chunk (kept only when smaller).
    pub compress: bool,
}

impl Default for V3Options {
    fn default() -> V3Options {
        V3Options { window: 4, levels: 3, compress: true }
    }
}

/// Byte extents of one chunk frame — the fuzzer/fault-storm oracle for
/// "which (variable, window, level) does this byte belong to".
#[derive(Debug, Clone)]
pub struct ChunkSpan {
    pub var: usize,
    pub window: usize,
    pub level: usize,
    /// The whole frame: kind byte through trailing CRC.
    pub frame: Range<usize>,
    /// The payload bytes within the file.
    pub payload: Range<usize>,
}

/// Full byte map of an encoded v3 file.
#[derive(Debug, Clone)]
pub struct V3Layout {
    /// All sections in file order (header, axes, varmetas, chunks,
    /// chunkdir, trailer). Chunk sections appear here too, with
    /// `variable: None`.
    pub sections: Vec<SectionSpan>,
    /// The chunk frames with their (var, window, level) identity.
    pub chunks: Vec<ChunkSpan>,
    /// The 12-byte end-of-file footer.
    pub footer: Range<usize>,
}

/// Per-variable metadata decoded from a `VarMeta` section.
#[derive(Debug, Clone, PartialEq)]
pub struct V3VarMeta {
    pub id: String,
    /// Ordinals into the deduplicated axis list.
    pub axis_refs: Vec<usize>,
    pub attributes: Attributes,
    pub shape: Vec<usize>,
    /// Time steps per chunk window.
    pub window: usize,
    /// Pyramid levels actually written for this variable.
    pub levels: usize,
    /// Position of the time axis among this variable's dims (derived from
    /// the axis kinds, not serialized).
    pub time_axis: Option<usize>,
}

impl V3VarMeta {
    /// Number of time steps (1 when there is no time axis).
    pub fn n_times(&self) -> usize {
        match self.time_axis {
            Some(t) => self.shape.get(t).copied().unwrap_or(0),
            None => 1,
        }
    }

    /// Number of chunk windows along time.
    pub fn n_windows(&self) -> usize {
        match self.time_axis {
            Some(_) => self.n_times().div_ceil(self.window.max(1)),
            None => 1,
        }
    }

    /// Time-step range covered by window `w`.
    pub fn window_range(&self, w: usize) -> Range<usize> {
        match self.time_axis {
            Some(_) => {
                let start = w * self.window;
                start..(start + self.window).min(self.n_times())
            }
            None => 0..1,
        }
    }

    /// Shape of the level-0 slab for window `w` (full shape with the time
    /// dim cut to the window length).
    pub fn slab_shape(&self, w: usize) -> Vec<usize> {
        let mut shape = self.shape.clone();
        if let Some(t) = self.time_axis {
            if let Some(d) = shape.get_mut(t) {
                *d = self.window_range(w).len();
            }
        }
        shape
    }

    /// The (up to two) trailing non-time dims the pyramid downsamples.
    pub(crate) fn pyramid_dims(&self) -> Vec<usize> {
        let mut dims: Vec<usize> =
            (0..self.shape.len()).filter(|&d| Some(d) != self.time_axis).collect();
        let keep = dims.len().min(2);
        dims.split_off(dims.len() - keep)
    }

    /// Shape of the chunk for window `w` at pyramid `level`.
    pub fn level_shape(&self, w: usize, level: usize) -> Vec<usize> {
        let mut shape = self.slab_shape(w);
        let factor = 1usize << level.min(63);
        for d in self.pyramid_dims() {
            if let Some(v) = shape.get_mut(d) {
                *v = v.div_ceil(factor).max(1);
            }
        }
        shape
    }

    /// Element count of the chunk for window `w` at `level`.
    pub fn level_volume(&self, w: usize, level: usize) -> Option<usize> {
        format::checked_volume(&self.level_shape(w, level))
    }

    /// Binds freshly decoded metadata to the file's axis table: resolves
    /// the refs, holds the shape to the axes' lengths and derives the
    /// time-axis position. Returns the variable's axes, or the reason it
    /// cannot be built.
    fn bind(&mut self, table: &[impl AxisSlot]) -> std::result::Result<Vec<Axis>, String> {
        let axes = format::resolve_axes(&self.id, &self.axis_refs, table)?;
        for (d, (ax, &dim)) in axes.iter().zip(&self.shape).enumerate() {
            if ax.len() != dim {
                return Err(format!(
                    "variable '{}': dim {d} is {dim}, axis '{}' has {} points",
                    self.id,
                    ax.id,
                    ax.len()
                ));
            }
        }
        self.time_axis = axes.iter().position(|a| a.kind == AxisKind::Time);
        Ok(axes)
    }
}

/// One entry of the `ChunkDir` section: where a chunk frame lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkDirEntry {
    pub var: usize,
    pub window: usize,
    pub level: usize,
    /// File offset of the chunk *frame* (kind byte).
    pub offset: u64,
    /// Payload length.
    pub len: u64,
    /// CRC32C of the payload.
    pub crc: u32,
}

/// Bytes of one `ChunkDir` entry.
const CHUNKDIR_ENTRY_LEN: usize = 32;

impl ChunkDirEntry {
    /// Byte length of the whole frame on disk.
    pub fn frame_len(&self) -> usize {
        self.located().frame_len()
    }

    /// The chunk frame as the container locates it — the form a fetched
    /// frame is held to ([`Entry::hold`]).
    pub(crate) fn located(&self) -> Entry {
        Entry { kind: SectionKind::Chunk, offset: self.offset, len: self.len, crc: self.crc }
    }
}

/// Everything a streaming reader needs to locate chunks without scanning:
/// the decoded header, axes, per-variable metadata, and chunk directory.
#[derive(Debug, Clone)]
pub struct V3Meta {
    pub id: String,
    pub attributes: Attributes,
    pub axes: Vec<Axis>,
    pub vars: Vec<V3VarMeta>,
    /// Sorted by (var, window, level).
    pub chunks: Vec<ChunkDirEntry>,
    /// Total file length, for bounds-checking ranged reads.
    pub file_len: u64,
}

impl V3Meta {
    /// Directory entry for (var, window, level), by binary search.
    pub fn chunk(&self, var: usize, window: usize, level: usize) -> Option<&ChunkDirEntry> {
        self.chunks
            .binary_search_by_key(&(var, window, level), |e| (e.var, e.window, e.level))
            .ok()
            .and_then(|i| self.chunks.get(i))
    }

    /// Ordinal of the variable with the given id.
    pub fn var_index(&self, id: &str) -> Option<usize> {
        self.vars.iter().position(|v| v.id == id)
    }

    /// The axes of variable `var`, resolved through its refs.
    pub(crate) fn var_axes(&self, var: usize) -> Result<Vec<Axis>> {
        let meta = self
            .vars
            .get(var)
            .ok_or_else(|| CdmsError::NotFound(format!("variable ordinal {var}")))?;
        format::resolve_axes(&meta.id, &meta.axis_refs, &self.axes).map_err(CdmsError::Format)
    }
}

// ---- encoding ----

/// Serializes a dataset in v3, returning the byte map alongside.
///
/// Chunk payloads (downsample, optional compression and the payload's
/// CRC32C — the expensive part) are encoded in parallel into pre-allocated
/// slots, and `container::Writer::frames` copies them into the image on a
/// second region at offsets their lengths fix, so the output bytes are
/// identical at any `RAYON_NUM_THREADS`. The metadata sections are framed
/// serially.
pub fn to_bytes_v3_with(ds: &Dataset, opts: &V3Options) -> (Vec<u8>, V3Layout) {
    let window = opts.window.max(1);
    let req_levels = opts.levels.max(1);

    let (axes, refs_per_var) = format::dedup_axes(ds);
    let metas: Vec<V3VarMeta> = ds
        .variables()
        .iter()
        .zip(refs_per_var)
        .map(|(var, axis_refs)| {
            let mut meta = V3VarMeta {
                id: var.id.clone(),
                axis_refs,
                attributes: var.attributes.clone(),
                shape: var.array.shape().to_vec(),
                window,
                levels: 1,
                time_axis: var.axis_index(AxisKind::Time),
            };
            meta.levels = effective_levels(&meta, req_levels);
            meta
        })
        .collect();

    // One job per (var, window, level), in file order.
    let jobs: Vec<(usize, usize, usize)> = metas
        .iter()
        .enumerate()
        .flat_map(|(vi, m)| {
            (0..m.n_windows())
                .flat_map(move |w| (0..m.levels).map(move |l| (vi, w, l)))
        })
        .collect();
    let mut payloads: Vec<(Vec<u8>, u32)> = vec![(Vec::new(), crc32c(&[])); jobs.len()];
    {
        let metas = &metas;
        payloads.par_iter_mut().zip(jobs.par_iter()).for_each(|(slot, &(vi, w, l))| {
            // jobs were enumerated from the same variable list, so the
            // ordinal is always in range; fall back to an empty payload
            // (caught by the strict reader) rather than panicking
            if let (Some(var), Some(meta)) = (ds.variables().get(vi), metas.get(vi)) {
                *slot = encode_chunk_payload(var, meta, vi, w, l, opts.compress);
            }
        });
    }

    let variables = || ds.variables().iter().zip(&metas);
    let sizes = std::iter::once(format::header_size(ds))
        .chain(axes.iter().map(|ax| format::axis_size(ax)))
        .chain(variables().map(|(var, meta)| format::var_head_size(var, &meta.axis_refs) + 8))
        .chain(payloads.iter().map(|(payload, _)| payload.len()))
        .chain(std::iter::once(4 + CHUNKDIR_ENTRY_LEN * jobs.len()));
    let mut w = Writer::new(sizes);
    w.section(SectionKind::Header, None, |buf| format::put_header(buf, ds, axes.len()));
    for ax in &axes {
        w.section(SectionKind::Axis, None, |buf| format::put_axis(buf, ax));
    }
    for (var, meta) in variables() {
        let names = Some((meta.id.clone(), meta.axis_refs.clone()));
        w.section(SectionKind::VarMeta, names, |buf| {
            format::put_var_head(buf, var, &meta.axis_refs);
            buf.put_u32_le(meta.window as u32);
            buf.put_u32_le(meta.levels as u32);
        });
    }

    let located = w.frames(SectionKind::Chunk, &payloads);
    let (chunk_dir, chunk_spans): (Vec<ChunkDirEntry>, Vec<ChunkSpan>) = jobs
        .iter()
        .zip(&located)
        .map(|(&(var, window, level), at)| {
            let (offset, len, crc) = (at.offset, at.len, at.crc);
            let span = ChunkSpan { var, window, level, frame: at.frame(), payload: at.payload() };
            (ChunkDirEntry { var, window, level, offset, len, crc }, span)
        })
        .unzip();
    w.section(SectionKind::ChunkDir, None, |buf| put_chunkdir(buf, &chunk_dir));

    let (bytes, sections, footer) = w.finish();
    (bytes, V3Layout { sections, chunks: chunk_spans, footer })
}

/// `ChunkDir` payload: count u32, then each entry (see the module docs).
fn put_chunkdir(buf: &mut Vec<u8>, entries: &[ChunkDirEntry]) {
    buf.put_u32_le(entries.len() as u32);
    for e in entries {
        buf.put_u32_le(e.var as u32);
        buf.put_u32_le(e.window as u32);
        buf.put_u32_le(e.level as u32);
        buf.put_u64_le(e.offset);
        buf.put_u64_le(e.len);
        buf.put_u32_le(e.crc);
    }
}

/// Levels worth writing: stop once every pyramid dim has collapsed to 1.
fn effective_levels(meta: &V3VarMeta, requested: usize) -> usize {
    let dims = meta.pyramid_dims();
    if dims.is_empty() {
        return 1;
    }
    let mut halvings = 0usize;
    for d in dims {
        let mut v = meta.shape.get(d).copied().unwrap_or(1);
        let mut h = 0usize;
        while v > 1 {
            v = v.div_ceil(2);
            h += 1;
        }
        halvings = halvings.max(h);
    }
    requested.min(halvings + 1)
}

/// Encodes one chunk payload: header, then the (possibly downsampled,
/// possibly compressed) data + mask body. Returns it with its CRC32C.
///
/// The head and the raw body are written into one buffer. PackBits reads
/// that body and writes the head and its runs into a second buffer, which
/// replaces the first, codec byte patched, only when it is smaller.
fn encode_chunk_payload(
    var: &Variable,
    meta: &V3VarMeta,
    vi: usize,
    w: usize,
    level: usize,
    compress: bool,
) -> (Vec<u8>, u32) {
    // Window slab (full resolution). With time first (or no time axis) it
    // is one contiguous run of the variable's data and mask; otherwise it
    // is sliced out. `time_window` only fails when the range is
    // empty/out of bounds, which `n_windows` precludes.
    let sliced;
    let (data, mask) = match meta.time_axis {
        Some(0) => {
            let step: usize = meta.shape.iter().skip(1).product();
            let times = meta.window_range(w);
            let run = times.start * step..times.end * step;
            (&var.array.data()[run.clone()], &var.array.mask()[run])
        }
        Some(_) => {
            sliced = var
                .time_window(meta.window_range(w))
                .map_or_else(|_| var.array.clone(), |v| v.array);
            (sliced.data(), sliced.mask())
        }
        None => (var.array.data(), var.array.mask()),
    };
    let pyramid;
    let (data, mask) = if level == 0 {
        (data, mask)
    } else {
        pyramid = downsample(data, mask, &meta.slab_shape(w), &meta.pyramid_dims(), level);
        (&pyramid.0[..], &pyramid.1[..])
    };

    let n = data.len();
    let mut out = Vec::with_capacity(CHUNK_HEAD_LEN + format::raw_body_size(n).unwrap_or(0));
    out.put_u32_le(vi as u32);
    out.put_u32_le(w as u32);
    out.put_u32_le(level as u32);
    out.push(CODEC_RAW);
    out.put_u64_le(n as u64);
    format::put_raw_body(&mut out, data, mask);

    if compress {
        let (head, raw) = out.split_at(CHUNK_HEAD_LEN);
        // PackBits' worst case, one tag per 128 literal bytes: it never grows
        let mut packed = Vec::with_capacity(out.len() + out.len().div_ceil(128));
        packed.extend_from_slice(head);
        packbits_encode_into(raw, &mut packed);
        if packed.len() < out.len() {
            if let Some(codec) = packed.get_mut(CODEC_AT) {
                *codec = CODEC_RLE;
            }
            out = packed;
        }
    }
    let crc = crc32c(&out);
    (out, crc)
}

/// Mean-of-valid-cells downsampling of `dims` by `2^level`. A destination
/// cell whose source block holds no valid cell is masked.
///
/// One row-major pass over the source adds every valid cell into its
/// destination's `f64` sum and count, so each destination sums its block
/// in row-major order.
fn downsample(
    data: &[f32],
    mask: &[bool],
    shape: &[usize],
    dims: &[usize],
    level: usize,
) -> (Vec<f32>, Vec<bool>) {
    let factor = 1usize << level.min(63);
    let step = |d: usize| if dims.contains(&d) { factor } else { 1 };
    let out_shape: Vec<usize> = shape
        .iter()
        .enumerate()
        .map(|(d, &n)| if dims.contains(&d) { n.div_ceil(factor).max(1) } else { n })
        .collect();
    let out_n = out_shape.iter().product::<usize>();
    let mut sum = vec![0.0f64; out_n];
    let mut count = vec![0usize; out_n];
    let out_strides = row_major_strides(&out_shape);

    // The innermost dim is walked in place; `outer` is the multi-index of
    // the row over the dims before it.
    let rank = shape.len();
    let row_len = shape.last().copied().unwrap_or(1).max(1);
    // the innermost dim's step is 1 or `factor`, a power of two: a shift
    let row_shift = step(rank.saturating_sub(1)).trailing_zeros();
    let mut outer = vec![0usize; rank.saturating_sub(1)];
    for (vals, masks) in data.chunks(row_len).zip(mask.chunks(row_len)) {
        let base: usize =
            outer.iter().zip(&out_strides).enumerate().map(|(d, (&i, &s))| i / step(d) * s).sum();
        for (j, (&v, &m)) in vals.iter().zip(masks).enumerate() {
            let at = base + (j >> row_shift);
            if let (false, Some(s), Some(c)) = (m, sum.get_mut(at), count.get_mut(at)) {
                *s += v as f64;
                *c += 1;
            }
        }
        for (i, &n) in outer.iter_mut().zip(shape).rev() {
            *i += 1;
            if *i < n {
                break;
            }
            *i = 0;
        }
    }
    sum.iter()
        .zip(&count)
        .map(|(&s, &c)| if c > 0 { ((s / c as f64) as f32, false) } else { (0.0, true) })
        .unzip()
}

/// Nearest-neighbor upsampling from `from_shape` to `to_shape` (same rank).
pub fn upsample_nearest(
    data: &[f32],
    mask: &[bool],
    from_shape: &[usize],
    to_shape: &[usize],
) -> Result<(Vec<f32>, Vec<bool>)> {
    if from_shape.len() != to_shape.len() {
        return Err(CdmsError::ShapeMismatch {
            expected: to_shape.to_vec(),
            got: from_shape.to_vec(),
        });
    }
    let from_n = format::checked_volume(from_shape)
        .ok_or_else(|| CdmsError::Format("upsample source shape overflows".into()))?;
    if data.len() != from_n || mask.len() != from_n {
        return Err(CdmsError::Format(format!(
            "upsample source has {} elements, shape wants {from_n}",
            data.len()
        )));
    }
    let to_n = format::checked_volume(to_shape)
        .ok_or_else(|| CdmsError::Format("upsample target shape overflows".into()))?;
    let rank = to_shape.len();
    let from_strides = row_major_strides(from_shape);
    let to_strides = row_major_strides(to_shape);
    let mut out = vec![0.0f32; to_n];
    let mut out_mask = vec![true; to_n];
    for oi in 0..to_n {
        let mut rem = oi;
        let mut src = 0usize;
        for d in 0..rank {
            let i = rem / to_strides[d];
            rem %= to_strides[d];
            let (td, fd) = (to_shape[d].max(1), from_shape[d].max(1));
            let si = if td == fd { i } else { (i * fd / td).min(fd - 1) };
            src += si * from_strides[d];
        }
        if let (Some(&v), Some(&m)) = (data.get(src), mask.get(src)) {
            out[oi] = v;
            out_mask[oi] = m;
        }
    }
    Ok((out, out_mask))
}

fn row_major_strides(shape: &[usize]) -> Vec<usize> {
    let mut strides = vec![1usize; shape.len()];
    for d in (0..shape.len().saturating_sub(1)).rev() {
        strides[d] = strides[d + 1] * shape[d + 1].max(1);
    }
    strides
}

// ---- PackBits codec ----

/// Classic PackBits: tag `0..=127` = literal run of tag+1 bytes; tag
/// `129..=255` = the next byte repeated `257-tag` times; 128 is unused.
/// Appends the encoding of `input` to `out`.
///
/// A repeat is the longest run (≤ 128) of one byte at the current position,
/// taken when it is at least 3 long. Otherwise a literal runs up to the next
/// position that starts a triple (three equal bytes), 128 bytes at most.
/// [`next_triple`] finds that position eight candidates at a time; the
/// byte-wise loop it replaced is the test module's oracle.
pub(crate) fn packbits_encode_into(input: &[u8], out: &mut Vec<u8>) {
    let n = input.len();
    let mut i = 0usize;
    while let Some(&b) = input.get(i) {
        // measure the run starting here
        let run = input.get(i..n.min(i + 128)).map_or(1, |r| {
            r.iter().take_while(|&&c| c == b).count()
        });
        if run >= 3 {
            out.push((257 - run) as u8);
            out.push(b);
            i += run;
            continue;
        }
        // literal run: until the next triple or 128 bytes; no triple
        // starts at `i` itself, so it holds at least one byte
        let end = n.min(i + 128);
        let j = next_triple(input, i + 1, end.min(n.saturating_sub(2))).unwrap_or(end);
        let lit = input.get(i..j).unwrap_or_default();
        out.push((lit.len() - 1) as u8);
        out.extend_from_slice(lit);
        i = j;
    }
}

/// The first `p` in `from..to` with `input[p] == input[p + 1] ==
/// input[p + 2]`, if any; `to + 2 <= input.len()`.
///
/// Eight candidates a step: the words at `p`, `p + 1` and `p + 2` are
/// equal in byte `k` exactly when candidate `p + k` starts a triple, so
/// the first zero byte of `(a ^ b) | (b ^ c)` names the first one. The
/// zero-byte test is exact in every byte (no borrow crosses bytes), and
/// the words are little-endian, so the lowest zero byte is the first
/// candidate.
fn next_triple(input: &[u8], from: usize, to: usize) -> Option<usize> {
    const LOW7: u64 = 0x7f7f_7f7f_7f7f_7f7f;
    let word = |at: usize| input.get(at..)?.first_chunk::<8>().map(|w| u64::from_le_bytes(*w));
    let mut p = from;
    while p + 8 <= to {
        let (Some(a), Some(b), Some(c)) = (word(p), word(p + 1), word(p + 2)) else { break };
        let diff = (a ^ b) | (b ^ c);
        // 0x80 in each byte of `diff` that is zero, 0 in every other
        let zero = !(((diff & LOW7) + LOW7) | diff | LOW7);
        if zero != 0 {
            return Some(p + (zero.trailing_zeros() / 8) as usize);
        }
        p += 8;
    }
    (p..to).find(|&p| matches!(input.get(p..p + 3), Some([a, b, c]) if a == b && b == c))
}

/// Decodes PackBits into `out`, replacing what it held, requiring exactly
/// `expected_len` output bytes. `out` keeps its allocation between calls
/// and never grows past `expected_len`: a reused buffer's capacity is the
/// largest body it has held.
pub(crate) fn packbits_decode_into(
    input: &[u8],
    expected_len: usize,
    out: &mut Vec<u8>,
) -> Result<()> {
    out.clear();
    out.reserve_exact(expected_len);
    let mut i = 0usize;
    while i < input.len() {
        let tag = input[i];
        i += 1;
        if tag == 128 {
            return Err(CdmsError::Format("packbits: reserved tag 128".into()));
        }
        if tag < 128 {
            let n = tag as usize + 1;
            let lit = input
                .get(i..i + n)
                .ok_or_else(|| CdmsError::Format("packbits: literal run truncated".into()))?;
            if out.len() + n > expected_len {
                return Err(CdmsError::Format("packbits: output overruns declared size".into()));
            }
            out.extend_from_slice(lit);
            i += n;
        } else {
            let n = 257 - tag as usize;
            let &b = input
                .get(i)
                .ok_or_else(|| CdmsError::Format("packbits: repeat run truncated".into()))?;
            if out.len() + n > expected_len {
                return Err(CdmsError::Format("packbits: output overruns declared size".into()));
            }
            out.resize(out.len() + n, b);
            i += 1;
        }
    }
    if out.len() != expected_len {
        return Err(CdmsError::Format(format!(
            "packbits: decoded {} bytes, expected {expected_len}",
            out.len()
        )));
    }
    Ok(())
}

// ---- chunk decode ----

/// Decoded chunk: data plus validity mask.
pub(crate) type ChunkData = (Vec<f32>, Vec<bool>);

/// The (var, window, level) triple a chunk payload opens with.
fn chunk_identity(buf: &mut &[u8]) -> Result<(usize, usize, usize)> {
    Ok((get_u32(buf)? as usize, get_u32(buf)? as usize, get_u32(buf)? as usize))
}

/// Decodes a chunk payload, checking its identity triple and element count
/// against the directory/metadata. Returns (data, mask).
pub fn decode_chunk_payload(
    payload: &[u8],
    expect: (usize, usize, usize),
    expect_n: usize,
) -> Result<(Vec<f32>, Vec<bool>)> {
    let mut unpacked = Vec::new();
    let stored = chunk_body(payload, expect, expect_n, &mut unpacked)?;
    format::get_raw_body(&mut stored.unwrap_or(&unpacked), expect_n)
}

/// The serial half of decoding a chunk payload, which every reader of a
/// chunk runs: checks the identity triple, codec and element count against
/// the directory/metadata, and finds the raw body. A `CODEC_RAW` body is
/// returned as the payload's own bytes; a `CODEC_RLE` body is PackBits-
/// decoded into `unpacked`, and `None` says that it is there. The other
/// half is [`format::get_raw_body`].
pub(crate) fn chunk_body<'p>(
    payload: &'p [u8],
    expect: (usize, usize, usize),
    expect_n: usize,
    unpacked: &mut Vec<u8>,
) -> Result<Option<&'p [u8]>> {
    let mut cur = payload;
    let buf = &mut cur;
    let (var, window, level) = chunk_identity(buf)?;
    if (var, window, level) != expect {
        return Err(CdmsError::Format(format!(
            "chunk identity ({var},{window},{level}) != expected {expect:?}"
        )));
    }
    let codec = get_u8(buf)?;
    let n = get_u64(buf)? as usize;
    if n != expect_n {
        return Err(CdmsError::Format(format!(
            "chunk ({var},{window},{level}) declares {n} elements, metadata wants {expect_n}"
        )));
    }
    let raw_len = format::raw_body_size(n)
        .ok_or_else(|| CdmsError::Format("chunk size overflows".into()))?;
    let (body_len, stored) = match codec {
        CODEC_RAW => (buf.len(), Some(*buf)),
        CODEC_RLE => {
            packbits_decode_into(buf, raw_len, unpacked)?;
            (unpacked.len(), None)
        }
        c => return Err(CdmsError::Format(format!("unknown chunk codec {c}"))),
    };
    if body_len != raw_len {
        return Err(CdmsError::Format(format!(
            "chunk body is {body_len} bytes, expected {raw_len}"
        )));
    }
    Ok(stored)
}

// ---- windows ----

/// What [`best_window`] found for one window.
pub(crate) enum Window<C> {
    /// The level-0 chunk, as fetched.
    Full(C),
    /// A coarser level, upsampled to full resolution.
    Degraded(ChunkData),
    /// Every level is gone: the window is masked fill.
    Masked,
}

/// The per-window fallback policy, shared by the streamer and salvage:
/// level 0, else the first intact coarser level upsampled to full
/// resolution (nearest-neighbor), else masked. `fetch(level)` yields window
/// `w`'s chunk at that level, or `None` when it is lost.
pub(crate) fn best_window<C: Borrow<ChunkData>>(
    meta: &V3VarMeta,
    w: usize,
    mut fetch: impl FnMut(usize) -> Option<C>,
) -> Window<C> {
    if let Some(full) = fetch(0) {
        return Window::Full(full);
    }
    let full_shape = meta.slab_shape(w);
    for level in 1..meta.levels {
        let Some(coarse) = fetch(level) else { continue };
        let (data, mask) = coarse.borrow();
        if let Ok(up) = upsample_nearest(data, mask, &meta.level_shape(w, level), &full_shape) {
            return Window::Degraded(up);
        }
    }
    Window::Masked
}

/// Rebuilds a whole variable from its windows. `window(w)` yields window
/// `w` at full resolution, or `None` to leave it masked.
pub(crate) fn assemble_variable<C: Borrow<ChunkData>>(
    meta: &V3VarMeta,
    axes: Vec<Axis>,
    mut window: impl FnMut(usize) -> Result<Option<C>>,
) -> Result<Variable> {
    let volume = format::checked_volume(&meta.shape)
        .ok_or_else(|| CdmsError::Format(format!("variable '{}': shape overflows", meta.id)))?;
    let mut data = vec![0.0f32; volume];
    let mut mask = vec![true; volume];
    for w in 0..meta.n_windows() {
        if let Some(slab) = window(w)? {
            let (slab_data, slab_mask) = slab.borrow();
            scatter_window(
                slab_data,
                slab_mask,
                &mut data,
                &mut mask,
                &meta.shape,
                meta.time_axis,
                meta.window_range(w),
            )?;
        }
    }
    let array = MaskedArray::with_mask(data, mask, &meta.shape)?;
    let mut var = Variable::new(&meta.id, array, axes)?;
    var.attributes = meta.attributes.clone();
    Ok(var)
}

/// Copies a window slab (time dim cut to `range`) into the full array.
fn scatter_window(
    slab_data: &[f32],
    slab_mask: &[bool],
    full_data: &mut [f32],
    full_mask: &mut [bool],
    shape: &[usize],
    time_axis: Option<usize>,
    range: Range<usize>,
) -> Result<()> {
    let Some(t) = time_axis else {
        // single-window variable: the slab IS the array
        if slab_data.len() != full_data.len() {
            return Err(CdmsError::Format(format!(
                "window slab has {} elements, variable wants {}",
                slab_data.len(),
                full_data.len()
            )));
        }
        full_data.copy_from_slice(slab_data);
        full_mask.copy_from_slice(slab_mask);
        return Ok(());
    };
    let nt = shape.get(t).copied().unwrap_or(0);
    if range.start >= range.end || range.end > nt {
        return Err(CdmsError::Format(format!("window {range:?} out of range for {nt} steps")));
    }
    let pre: usize = shape.get(..t).map(|s| s.iter().product()).unwrap_or(1);
    let post: usize = shape.get(t + 1..).map(|s| s.iter().product()).unwrap_or(1);
    let wlen = range.len();
    if slab_data.len() != pre * wlen * post {
        return Err(CdmsError::Format(format!(
            "window slab has {} elements, expected {}",
            slab_data.len(),
            pre * wlen * post
        )));
    }
    for p in 0..pre {
        for (k, ti) in range.clone().enumerate() {
            let src = (p * wlen + k) * post;
            let dst = (p * nt + ti) * post;
            let (Some(sd), Some(dd)) =
                (slab_data.get(src..src + post), full_data.get_mut(dst..dst + post))
            else {
                return Err(CdmsError::Format("window scatter out of bounds".into()));
            };
            dd.copy_from_slice(sd);
            let (Some(sm), Some(dm)) =
                (slab_mask.get(src..src + post), full_mask.get_mut(dst..dst + post))
            else {
                return Err(CdmsError::Format("window scatter out of bounds".into()));
            };
            dm.copy_from_slice(sm);
        }
    }
    Ok(())
}

// ---- metadata ----

/// Decodes a `VarMeta` payload. The time-axis position is not serialized:
/// [`V3VarMeta::bind`] derives it once the axes are known.
fn decode_varmeta_payload(payload: &[u8]) -> Result<V3VarMeta> {
    let mut cur = payload;
    let buf = &mut cur;
    let format::VarHead { id, axis_refs, attributes, shape } = format::get_var_head(buf)?;
    let window = get_u32(buf)? as usize;
    let levels = get_u32(buf)? as usize;
    if !buf.is_empty() {
        return Err(CdmsError::Format(format!("varmeta '{id}' payload has trailing bytes")));
    }
    if window == 0 || levels == 0 || levels > 32 {
        return Err(CdmsError::Format(format!(
            "varmeta '{id}': implausible window {window} / levels {levels}"
        )));
    }
    Ok(V3VarMeta { id, axis_refs, attributes, shape, window, levels, time_axis: None })
}

/// Decodes a `ChunkDir` payload into its entries (file order).
fn decode_chunkdir_payload(payload: &[u8]) -> Result<Vec<ChunkDirEntry>> {
    let mut cur = payload;
    let buf = &mut cur;
    let n = get_u32(buf)? as usize;
    if n > buf.len() / CHUNKDIR_ENTRY_LEN {
        return Err(CdmsError::Format(format!("implausible chunk count {n}")));
    }
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(ChunkDirEntry {
            var: get_u32(buf)? as usize,
            window: get_u32(buf)? as usize,
            level: get_u32(buf)? as usize,
            offset: get_u64(buf)?,
            len: get_u64(buf)?,
            crc: get_u32(buf)?,
        });
    }
    if !buf.is_empty() {
        return Err(CdmsError::Format("chunk directory has trailing bytes".into()));
    }
    Ok(out)
}

/// Reads a v3 file's metadata off its section directory, `fetch` producing
/// each listed section's payload — the one reading of "header, axes,
/// varmetas, chunks, chunk directory" under both the strict reader and the
/// ranged open, so the two refuse the same files. No chunk is fetched.
fn read_meta<'a>(
    directory: &[Entry],
    file_len: u64,
    fetch: impl FnMut(&Entry) -> Result<Cow<'a, [u8]>>,
) -> Result<V3Meta> {
    let mut sections = format::Sections::new(directory, fetch);
    let (ds, axes, n_vars) = sections.open()?;
    let mut vars = Vec::with_capacity(n_vars);
    for _ in 0..n_vars {
        let mut meta = decode_varmeta_payload(&sections.next(SectionKind::VarMeta)?)?;
        meta.bind(&axes).map_err(CdmsError::Format)?;
        vars.push(meta);
    }
    let located = sections.run_of(SectionKind::Chunk);
    let chunks = decode_chunkdir_payload(&sections.next(SectionKind::ChunkDir)?)?;
    sections.end()?;

    // The chunk directory must list exactly the chunks the metadata
    // implies — every (variable, window, level), in that order, which is
    // also the sorted order `V3Meta::chunk` searches — each where the
    // trailer directory locates a chunk frame.
    if chunks.len() != located.len() {
        return Err(CdmsError::Format(format!(
            "chunk directory lists {} chunks, file has {}",
            chunks.len(),
            located.len()
        )));
    }
    let mut listed = chunks.iter().zip(located);
    let implied = vars.iter().enumerate().flat_map(|(vi, m)| {
        (0..m.n_windows()).flat_map(move |w| (0..m.levels).map(move |l| (vi, w, l)))
    });
    for id in implied {
        match listed.next() {
            Some((c, at)) if (c.var, c.window, c.level) == id && c.located() == *at => {}
            Some((c, _)) => {
                return Err(CdmsError::Format(format!(
                    "chunk directory disagrees with chunk at byte {}",
                    c.offset
                )))
            }
            None => return Err(CdmsError::Format(format!("no chunk for {id:?} in the file"))),
        }
    }
    if let Some((c, _)) = listed.next() {
        return Err(CdmsError::Format(format!(
            "chunk ({},{},{}) belongs to no variable",
            c.var, c.window, c.level
        )));
    }
    Ok(V3Meta { id: ds.id, attributes: ds.attributes, axes, vars, chunks, file_len })
}

// ---- strict decode ----

/// The strict reader's metadata step, and all of it that the catalog
/// runs: the preamble check, then the container verifies every frame, the
/// trailer directory and the footer, then [`read_meta`] reads the
/// metadata and the chunk directory off the verified image. No chunk is
/// decoded.
pub(crate) fn verified_meta(full: &[u8]) -> Result<V3Meta> {
    container::check_preamble(full)?;
    let directory = container::verify_all(full)?;
    read_meta(&directory, full.len() as u64, |e| e.slice_of(full).map(Cow::Borrowed))
}

/// Strict v3 decoder: [`verified_meta`], then every chunk of every level
/// gets a full decode — so a corrupt-but-CRC-consistent pyramid cannot
/// hide — and variables are rebuilt from level 0.
pub(crate) fn from_bytes_v3(full: &[u8]) -> Result<Dataset> {
    let meta = verified_meta(full)?;
    let mut ds = Dataset::new(&meta.id);
    ds.attributes = meta.attributes.clone();
    for (vi, vm) in meta.vars.iter().enumerate() {
        let var = assemble_variable(vm, meta.var_axes(vi)?, |w| {
            let mut levels = (0..vm.levels).map(|l| {
                let lost = || CdmsError::Format(format!("chunk ({vi},{w},{l}) cannot be located"));
                let entry = meta.chunk(vi, w, l).ok_or_else(lost)?;
                let n = vm.level_volume(w, l).ok_or_else(lost)?;
                decode_chunk_payload(entry.located().slice_of(full)?, (vi, w, l), n)
            });
            let level0 = levels.next().transpose()?;
            levels.try_for_each(|coarse| coarse.map(drop))?;
            Ok(level0)
        })?;
        ds.add_variable(var);
    }
    Ok(ds)
}

// ---- salvage ----

/// Per-chunk best-effort decode: every variable whose metadata and axes
/// survive is rebuilt window by window — full resolution when the level-0
/// chunk is intact, the best intact pyramid level (upsampled) otherwise,
/// and a fully-masked window when every level of a window is gone.
pub(crate) fn salvage_v3(full: &[u8]) -> (Dataset, SalvageReport) {
    let Salvage { mut ds, mut report, axes, bodies } = format::salvage_prelude(full);
    let mut varmetas: Vec<Option<&[u8]>> = Vec::new();
    // intact chunks, by their self-declared identity triple
    let mut chunks: BTreeMap<(usize, usize, usize), &[u8]> = BTreeMap::new();
    for (kind, payload) in bodies {
        match (kind, payload) {
            (SectionKind::VarMeta, _) => varmetas.push(payload),
            (SectionKind::Chunk, Some(payload)) => {
                if let Ok(id) = chunk_identity(&mut &*payload) {
                    chunks.insert(id, payload);
                }
            }
            _ => {}
        }
    }
    for (vi, payload) in varmetas.into_iter().enumerate() {
        // a payload that failed its checksum was counted by the prelude;
        // one that passes it and still does not decode is counted here
        let meta = payload.and_then(|p| {
            decode_varmeta_payload(p).map_err(|_| report.sections_corrupt += 1).ok()
        });
        let outcome = match meta {
            Some(meta) => salvage_variable_v3(vi, meta, &axes, &chunks, &mut report),
            None => Err((None, "varmeta section checksum mismatch".into())),
        };
        report.settle(&mut ds, vi, outcome);
    }
    (ds, report)
}

/// Rebuilds one variable from whatever chunks survive.
fn salvage_variable_v3(
    vi: usize,
    mut meta: V3VarMeta,
    axes: &[Option<Axis>],
    chunks: &BTreeMap<(usize, usize, usize), &[u8]>,
    report: &mut SalvageReport,
) -> Salvaged {
    let var_axes =
        meta.bind(axes).map_err(|reason| (Some(meta.id.clone()), reason))?;
    assemble_variable(&meta, var_axes, |w| {
        let found = best_window(&meta, w, |l| {
            let n = meta.level_volume(w, l)?;
            let decoded = decode_chunk_payload(chunks.get(&(vi, w, l))?, (vi, w, l), n);
            decoded.map_err(|_| report.sections_corrupt += 1).ok()
        });
        Ok(match found {
            Window::Full(slab) | Window::Degraded(slab) => Some(slab),
            Window::Masked => None,
        })
    })
    .map_err(|e| (Some(meta.id.clone()), e.to_string()))
}

// ---- metadata bootstrap for streaming readers ----

/// Reads only the metadata of a v3 file through ranged reads: footer →
/// trailer → header/axes/varmetas/chunkdir, every fetched frame held to
/// its directory entry. No chunk payload is touched, so opening a
/// petascale series costs a handful of small reads.
pub fn read_meta_with(storage: &dyn Storage, path: &Path) -> Result<V3Meta> {
    let read = |offset, len| read_exact_at(storage, path, offset, len);
    let open = || {
        let file_len = storage.len(path)?;
        container::check_preamble(&storage.read_at(path, 0, container::PREAMBLE_LEN)?)?;
        let (directory, _) =
            container::read_directory(file_len, |offset, len| read(offset, len).map(Cow::Owned))?;
        read_meta(&directory, file_len, |e| {
            Ok(Cow::Owned(e.hold(&read(e.offset, e.frame_len())?)?.to_vec()))
        })
    };
    open().map_err(|e| format::with_path(e, path))
}

/// Ranged read that treats a short result as corruption (the caller asked
/// for bytes the format says must exist).
fn read_exact_at(
    storage: &dyn Storage,
    path: &Path,
    offset: u64,
    len: usize,
) -> Result<Vec<u8>> {
    let got = storage.read_at(path, offset, len)?;
    if got.len() != len {
        return Err(CdmsError::Format(format!(
            "{}: short read at byte {offset}: got {} of {len} bytes",
            path.display(),
            got.len()
        )));
    }
    Ok(got)
}

// ---- file I/O ----

/// Writes v3 crash-safely (atomic temp-file + fsync + rename + parent-dir
/// fsync via `crate::storage::write_atomic`) through an explicit backend
/// with explicit options; [`crate::format::write_dataset`] writes the
/// defaults.
pub fn write_dataset_v3_with(
    storage: &dyn Storage,
    ds: &Dataset,
    path: &Path,
    opts: &V3Options,
) -> Result<()> {
    crate::storage::write_atomic(storage, path, &to_bytes_v3_with(ds, opts).0)
}

/// Files damaged behind valid checksums, for this module's tests and the
/// catalog's. Each is framed by `container::Writer`, so every frame CRC,
/// the trailer and the footer are valid and only the structural checks or
/// a chunk decode can refuse it.
#[cfg(test)]
pub(crate) mod fixtures {
    use super::*;

    pub(crate) fn packbits_encode(input: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        packbits_encode_into(input, &mut out);
        out
    }

    /// The sections of `ds`'s encode at `opts`, after `edit` has changed
    /// their payloads, framed anew; then a chunk directory listing the
    /// chunk frames as written, after `edit_dir` has changed it (given the
    /// offset the trailer will land at).
    pub(crate) fn reframe(
        ds: &Dataset,
        opts: &V3Options,
        edit: impl FnOnce(&mut Vec<(SectionKind, Vec<u8>)>),
        edit_dir: impl FnOnce(&mut Vec<ChunkDirEntry>, u64),
    ) -> Vec<u8> {
        let (bytes, layout) = to_bytes_v3_with(ds, opts);
        let mut sections: Vec<_> = layout
            .sections
            .iter()
            .filter(|s| !matches!(s.kind, SectionKind::ChunkDir | SectionKind::Trailer))
            .map(|s| (s.kind, bytes[s.payload.clone()].to_vec()))
            .collect();
        edit(&mut sections);
        let n_chunks = sections.iter().filter(|(kind, _)| *kind == SectionKind::Chunk).count();
        let dir_len = 4 + CHUNKDIR_ENTRY_LEN * n_chunks;
        let mut w = Writer::new(sections.iter().map(|(_, p)| p.len()).chain([dir_len]));
        let (mut dir, mut end) = (Vec::new(), container::PREAMBLE_LEN as u64);
        for (kind, payload) in &sections {
            let at = w.section(*kind, None, |buf| buf.extend_from_slice(payload));
            end = at.offset + at.frame_len() as u64;
            if *kind == SectionKind::Chunk {
                let (var, window, level) = chunk_identity(&mut &payload[..]).unwrap();
                let (offset, len, crc) = (at.offset, at.len, at.crc);
                dir.push(ChunkDirEntry { var, window, level, offset, len, crc });
            }
        }
        let len = dir_len as u64;
        let chunkdir = Entry { kind: SectionKind::ChunkDir, offset: end, len, crc: 0 };
        edit_dir(&mut dir, chunkdir.frame().end as u64);
        assert_eq!(dir.len(), n_chunks, "an edit keeps the directory's size");
        w.section(SectionKind::ChunkDir, None, |buf| put_chunkdir(buf, &dir));
        w.finish().0
    }

    /// A chunk payload with its body PackBits-coded, then `tail` — encoded
    /// runs — appended after the runs that make up the body.
    fn rle_coded(payload: &[u8], tail: &[u8]) -> Vec<u8> {
        let identity = chunk_identity(&mut &payload[..]).unwrap();
        // the element count follows the identity triple and the codec byte
        let n = get_u64(&mut &payload[13..]).unwrap() as usize;
        let mut unpacked = Vec::new();
        let raw = chunk_body(payload, identity, n, &mut unpacked).unwrap().map(<[u8]>::to_vec);
        let mut out = payload[..CHUNK_HEAD_LEN].to_vec();
        out[12] = CODEC_RLE;
        out.extend(packbits_encode(&raw.unwrap_or(unpacked)));
        out.extend_from_slice(tail);
        out
    }

    /// `ds` encoded at the default options with every chunk PackBits-coded,
    /// and the chunk `victim` given `run`, one run past its body: every CRC
    /// holds, and only decoding that chunk refuses the file.
    pub(crate) fn rle_overrun(ds: &Dataset, victim: (usize, usize, usize), run: &[u8]) -> Vec<u8> {
        let chunks = |sections: &mut Vec<(SectionKind, Vec<u8>)>| {
            for (_, payload) in sections.iter_mut().filter(|(kind, _)| *kind == SectionKind::Chunk) {
                let hit = chunk_identity(&mut &payload[..]).unwrap() == victim;
                *payload = rle_coded(payload, if hit { run } else { &[] });
            }
        };
        reframe(ds, &V3Options::default(), chunks, |_, _| {})
    }
}

#[cfg(test)]
mod tests {
    use super::fixtures::*;
    use super::*;
    use crate::calendar::Calendar;
    use crate::format::{from_bytes, from_bytes_salvage, to_bytes};
    use crate::storage::{crc32c, LocalDisk};
    use crate::synth::SynthesisSpec;

    fn sample() -> Dataset {
        SynthesisSpec::new(6, 2, 8, 12).seed(11).build()
    }

    #[test]
    fn v3_roundtrip_is_bit_exact_with_source() {
        let ds = sample();
        let (bytes, layout) = to_bytes_v3_with(&ds, &V3Options::default());
        assert!(!layout.chunks.is_empty());
        let back = from_bytes(&bytes).unwrap();
        assert_eq!(back.id, ds.id);
        assert_eq!(back.attributes, ds.attributes);
        for var in ds.variables() {
            let b = back.variable(&var.id).unwrap();
            assert_eq!(b.array, var.array, "variable '{}'", var.id);
            assert_eq!(b.axes, var.axes);
            assert_eq!(b.attributes, var.attributes);
        }
    }

    #[test]
    fn chunk_layout_is_complete_and_ordered() {
        let ds = sample();
        let opts = V3Options { window: 2, levels: 3, compress: true };
        let (bytes, layout) = to_bytes_v3_with(&ds, &opts);
        // every chunk span's CRC verifies against the bytes
        for c in &layout.chunks {
            let payload = &bytes[c.payload.clone()];
            let crc_at = c.frame.end - 4;
            let stored = u32::from_le_bytes([
                bytes[crc_at],
                bytes[crc_at + 1],
                bytes[crc_at + 2],
                bytes[crc_at + 3],
            ]);
            assert_eq!(crc32c(payload), stored);
        }
        // (var, window, level) strictly increasing in file order
        let keys: Vec<_> = layout.chunks.iter().map(|c| (c.var, c.window, c.level)).collect();
        let mut sorted = keys.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(keys, sorted);
    }

    #[test]
    fn salvage_degrades_corrupt_level0_to_pyramid() {
        let ds = sample();
        let opts = V3Options { window: 2, levels: 3, compress: true };
        let (mut bytes, layout) = to_bytes_v3_with(&ds, &opts);
        // kill the level-0 chunk of (var 0, window 1)
        let target = layout
            .chunks
            .iter()
            .find(|c| c.var == 0 && c.window == 1 && c.level == 0)
            .unwrap();
        bytes[target.payload.start + 20] ^= 0xFF;
        assert!(from_bytes(&bytes).is_err());
        let (salvaged, report) = from_bytes_salvage(&bytes).unwrap();
        assert_eq!(report.sections_corrupt, 1, "{report}");
        assert_eq!(report.recovered_variables.len(), ds.variables().len());
        // the damaged window is filled from the pyramid: values exist (not
        // fully masked), but differ from the original at full resolution
        let vid = &ds.variables()[0].id;
        let orig = ds.variable(vid).unwrap();
        let got = salvaged.variable(vid).unwrap();
        assert_eq!(got.array.shape(), orig.array.shape());
        let w1 = got.time_window(2..4).unwrap();
        assert!(w1.array.valid_count() > 0, "pyramid fallback should fill the window");
    }

    #[test]
    fn salvage_masks_window_when_all_levels_die() {
        let ds = sample();
        let opts = V3Options { window: 2, levels: 2, compress: false };
        let (mut bytes, layout) = to_bytes_v3_with(&ds, &opts);
        for c in layout.chunks.iter().filter(|c| c.var == 0 && c.window == 0) {
            bytes[c.payload.start + 15] ^= 0xFF;
        }
        let (salvaged, report) = from_bytes_salvage(&bytes).unwrap();
        assert!(report.sections_corrupt >= 2, "{report}");
        let vid = &ds.variables()[0].id;
        let got = salvaged.variable(vid).unwrap();
        assert_eq!(got.time_window(0..2).unwrap().array.valid_count(), 0);
        assert_eq!(
            got.time_window(2..6).unwrap().array,
            ds.variable(vid).unwrap().time_window(2..6).unwrap().array,
            "undamaged windows must be bit-exact"
        );
    }

    /// The byte-wise PackBits encoder that `packbits_encode_into` replaced:
    /// its literal scan tests three bytes at every position.
    fn packbits_encode_bytewise(input: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(input.len() / 4 + 16);
        let mut i = 0usize;
        while i < input.len() {
            // measure the run starting here
            let b = input[i];
            let mut run = 1usize;
            while run < 128 && i + run < input.len() && input[i + run] == b {
                run += 1;
            }
            if run >= 3 {
                out.push((257 - run) as u8);
                out.push(b);
                i += run;
                continue;
            }
            // literal run: until the next ≥3 repeat or 128 bytes
            let lit_start = i;
            let mut j = i;
            while j < input.len() && j - lit_start < 128 {
                let c = input[j];
                let mut r = 1usize;
                while r < 3 && j + r < input.len() && input[j + r] == c {
                    r += 1;
                }
                if r >= 3 {
                    break;
                }
                j += 1;
            }
            let lit = &input[lit_start..j.max(lit_start + 1)];
            out.push((lit.len() - 1) as u8);
            out.extend_from_slice(lit);
            i = lit_start + lit.len();
        }
        out
    }

    /// One input for the PackBits property: pieces of random bytes, runs of
    /// 1–300 bytes, repeats of 1–4 copies placed so they straddle an 8-byte
    /// boundary, and literals of 127, 128 or 129 distinct bytes, ending
    /// just before a run or at the end.
    fn packbits_case(rng: &mut rand::rngs::StdRng) -> Vec<u8> {
        use rand::Rng;
        let mut out = Vec::new();
        for _ in 0..rng.gen_range(0usize..=6) {
            match rng.gen_range(0u8..4) {
                0 => out.extend((0..rng.gen_range(0usize..=40)).map(|_| rng.gen_range(0u8..=3))),
                1 => out.extend(std::iter::repeat_n(rng.gen_range(0u8..=255), rng.gen_range(1usize..=300))),
                2 => {
                    // start the repeat 1–7 bytes before the next multiple of 8
                    let pad = (8 - out.len() % 8) % 8 + 8 - rng.gen_range(1usize..=7);
                    out.extend((0..pad).map(|k| (k % 2) as u8 + 100));
                    out.extend(std::iter::repeat_n(rng.gen_range(0u8..=255), rng.gen_range(1usize..=4)));
                }
                _ => {
                    let len = rng.gen_range(127usize..=129);
                    let start = rng.gen_range(0u8..=255);
                    out.extend((0..len).map(|k| start.wrapping_add(k as u8)));
                }
            }
        }
        out
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(3000))]
        /// The word-at-a-time encoder writes the byte-wise encoder's bytes,
        /// and the decoder returns the input. Empty and 1–2-byte inputs
        /// come from the case builder's empty and short draws, and from the
        /// prefixes checked beside each case.
        #[test]
        fn packbits_is_the_bytewise_encoder(seed in 0u64..u64::MAX) {
            use rand::SeedableRng;
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let case = packbits_case(&mut rng);
            let mut dec = Vec::new();
            for input in [&case[..], &case[..case.len().min(1)], &case[..case.len().min(2)]] {
                let enc = packbits_encode(input);
                proptest::prop_assert_eq!(&enc, &packbits_encode_bytewise(input), "{:?}", input);
                packbits_decode_into(&enc, input.len(), &mut dec).unwrap();
                proptest::prop_assert_eq!(&dec[..], input);
            }
        }
    }

    #[test]
    fn packbits_roundtrips() {
        let cases: Vec<Vec<u8>> = vec![
            vec![],
            vec![7],
            vec![1, 2, 3, 4, 5],
            vec![0; 1000],
            (0..=255u8).cycle().take(700).collect(),
            [vec![9u8; 200], (0..100u8).collect(), vec![3u8; 5]].concat(),
        ];
        // one buffer for every case, as the streamer reuses it
        let mut dec = Vec::new();
        for case in cases {
            let enc = packbits_encode(&case);
            packbits_decode_into(&enc, case.len(), &mut dec).unwrap();
            assert_eq!(dec, case);
        }
        assert_eq!(dec.capacity(), 1000, "grown to the largest body, not past it");
        // constant input compresses hard
        let enc = packbits_encode(&[0u8; 1000]);
        assert!(enc.len() < 20, "{}", enc.len());
    }

    #[test]
    fn compression_only_kept_when_smaller() {
        // a constant field: RLE wins, and the roundtrip stays exact
        let mut ds = Dataset::new("flat");
        let ax = Axis::new("x", (0..64).map(f64::from).collect(), "m", AxisKind::Generic)
            .unwrap();
        ds.add_variable(
            Variable::new("c", MaskedArray::filled(2.5, &[64]), vec![ax]).unwrap(),
        );
        let (with, _) = to_bytes_v3_with(&ds, &V3Options { compress: true, ..Default::default() });
        let (without, _) =
            to_bytes_v3_with(&ds, &V3Options { compress: false, ..Default::default() });
        assert!(with.len() < without.len());
        assert_eq!(
            from_bytes(&with).unwrap().variable("c").unwrap().array,
            ds.variable("c").unwrap().array
        );
    }

    #[test]
    fn meta_bootstrap_reads_no_chunks() {
        let dir = std::env::temp_dir().join("cdms_v3_meta_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("meta.ncr");
        let ds = sample();
        crate::format::write_dataset(&ds, &path).unwrap();
        let meta = read_meta_with(&LocalDisk, &path).unwrap();
        assert_eq!(meta.id, ds.id);
        assert_eq!(meta.vars.len(), ds.variables().len());
        let m0 = &meta.vars[0];
        assert_eq!(m0.n_windows(), 6usize.div_ceil(4));
        for e in &meta.chunks {
            assert!(meta.chunk(e.var, e.window, e.level).is_some());
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn upsample_nearest_covers_shape() {
        let (data, mask) =
            upsample_nearest(&[1.0, 2.0, 3.0, 4.0], &[false, false, true, false], &[2, 2], &[4, 4])
                .unwrap();
        assert_eq!(data.len(), 16);
        assert_eq!(data[0], 1.0);
        assert_eq!(data[15], 4.0);
        assert!(mask[2 * 4 + 1], "masked source cell propagates");
        assert!(upsample_nearest(&[1.0], &[false], &[1], &[2, 2]).is_err());
    }

    #[test]
    fn downsample_masks_empty_blocks_and_averages_valid() {
        let data = vec![1.0, 3.0, 5.0, 7.0];
        let mask = vec![false, false, true, true];
        let (d, m) = downsample(&data, &mask, &[2, 2], &[0, 1], 1);
        assert_eq!(d.len(), 1);
        assert!(!m[0]);
        assert_eq!(d[0], 2.0, "mean of the two valid cells");
        let (_, m) = downsample(&data, &[true; 4], &[2, 2], &[0, 1], 1);
        assert!(m[0], "block with no valid cells is masked");
    }

    #[test]
    fn scalar_and_no_time_variables_roundtrip() {
        let mut ds = Dataset::new("edge");
        ds.add_variable(Variable::new("s", MaskedArray::filled(1.5, &[]), vec![]).unwrap());
        let lat = Axis::latitude(vec![-10.0, 10.0]).unwrap();
        ds.add_variable(
            Variable::new("g", MaskedArray::filled(4.0, &[2]), vec![lat]).unwrap(),
        );
        let back = from_bytes(&to_bytes(&ds)).unwrap();
        assert_eq!(back.variable("s").unwrap().array.data(), &[1.5]);
        assert_eq!(back.variable("g").unwrap().array.data(), &[4.0, 4.0]);
    }

    // ---- structural damage behind valid checksums (`fixtures`) ----

    /// The strict read and the ranged open refuse `file`, each with an
    /// error naming `why`, and salvage does not panic on it.
    fn refused_everywhere(tag: &str, file: &[u8], why: &str) {
        let err = from_bytes(file).unwrap_err().to_string();
        assert!(err.contains(why), "{tag}, strict: {err}");
        let dir = std::env::temp_dir().join(format!("cdms_v3_structure_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("{tag}.ncr"));
        std::fs::write(&path, file).unwrap();
        let err = read_meta_with(&LocalDisk, &path).unwrap_err().to_string();
        assert!(err.contains(why), "{tag}, ranged: {err}");
        std::fs::remove_file(&path).ok();
        let _ = from_bytes_salvage(file);
    }

    #[test]
    fn reframing_alone_changes_no_byte() {
        // what the tests below change, and nothing else, is what is refused
        let ds = sample();
        for opts in [V3Options::default(), V3Options { window: 2, levels: 3, compress: false }] {
            assert_eq!(reframe(&ds, &opts, |_| {}, |_, _| {}), to_bytes_v3_with(&ds, &opts).0);
        }
    }

    #[test]
    fn a_chunk_directory_reordered_overlapping_or_into_the_trailer_is_refused() {
        let ds = sample();
        let opts = V3Options::default();
        type Edit = fn(&mut Vec<ChunkDirEntry>, u64);
        let edits: [(&str, Edit); 4] = [
            ("reordered", |dir, _| dir.swap(0, 1)),
            ("overlapping", |dir, _| dir[1].offset = dir[0].offset + 4),
            ("overrunning", |dir, _| dir[0].len += 8),
            ("into_the_trailer", |dir, trailer_at| dir.last_mut().unwrap().offset = trailer_at),
        ];
        for (tag, edit) in edits {
            let file = reframe(&ds, &opts, |_| {}, edit);
            refused_everywhere(tag, &file, "chunk directory disagrees");
        }
    }

    #[test]
    fn a_varmeta_whose_levels_disagree_with_the_chunks_is_refused() {
        let ds = sample();
        let opts = V3Options::default();
        for (tag, delta) in [("fewer_levels", -1i64), ("more_levels", 1)] {
            let file = reframe(
                &ds,
                &opts,
                |sections| {
                    // `levels` is the last u32 of the first VarMeta payload
                    let is_meta = |s: &&mut (SectionKind, Vec<u8>)| s.0 == SectionKind::VarMeta;
                    let (_, meta) = sections.iter_mut().find(is_meta).unwrap();
                    let at = meta.len() - 4;
                    let levels = u32::from_le_bytes(meta[at..].try_into().unwrap());
                    let levels = (i64::from(levels) + delta) as u32;
                    meta[at..].copy_from_slice(&levels.to_le_bytes());
                },
                |_, _| {},
            );
            refused_everywhere(tag, &file, "chunk directory disagrees");
        }
    }

    #[test]
    fn packbits_runs_past_the_declared_size_fail_in_a_reused_buffer() {
        let large: Vec<u8> = (0..=255u8).cycle().take(1000).collect();
        let small = [5u8, 5, 5, 5, 1, 2, 3];
        let good = packbits_encode(&small);
        let mut buf = Vec::new();
        packbits_decode_into(&packbits_encode(&large), large.len(), &mut buf).unwrap();
        // after the body: a literal run of three, a repeat run of four; and
        // a run that starts inside the body and ends past it
        let literal_past = [&good[..], &[2, 9, 9, 9]].concat();
        let repeat_past = [&good[..], &[253, 7]].concat();
        for (what, input, expected_len) in [
            ("literal past", &literal_past[..], small.len()),
            ("repeat past", &repeat_past[..], small.len()),
            ("literal across", &packbits_encode(&[1, 2, 3, 4]), 3),
            ("repeat across", &packbits_encode(&[6; 5]), 4),
        ] {
            let err = packbits_decode_into(input, expected_len, &mut buf).unwrap_err();
            assert!(err.to_string().contains("overruns declared size"), "{what}: {err}");
            // the next good decode returns exactly its own bytes, and the
            // buffer kept the capacity of the largest body it held
            packbits_decode_into(&good, small.len(), &mut buf).unwrap();
            assert_eq!(buf, small, "{what}");
            assert_eq!(buf.capacity(), large.len(), "{what}");
        }
    }

    #[test]
    fn a_packbits_run_past_its_chunk_refuses_the_chunk() {
        // every chunk RLE-coded, and window 1 of `ta` (two steps, after a
        // four-step window 0) given one run past its body: the ranged open
        // reads no chunk, so the streamer meets the chunk when it reads it,
        // with the session's PackBits buffer last holding a larger body
        let ds = sample();
        let victim = (0, 1, 0);
        assert_eq!(ds.variables()[0].id, "ta");
        for (tag, run) in [("literal_past", &[2u8, 9, 9, 9][..]), ("repeat_past", &[253, 7])] {
            let file = rle_overrun(&ds, victim, run);
            let err = from_bytes(&file).unwrap_err().to_string();
            assert!(err.contains("overruns declared size"), "{tag}, strict: {err}");
            // salvage serves the window from the pyramid
            let (salvaged, report) = from_bytes_salvage(&file).unwrap();
            assert_eq!(report.sections_corrupt, 1, "{tag}: {report}");
            assert_eq!(salvaged.len(), ds.len(), "{tag}: {report}");

            let dir = std::env::temp_dir().join(format!("cdms_v3_packbits_{}", std::process::id()));
            std::fs::create_dir_all(&dir).unwrap();
            let path = dir.join(format!("{tag}.ncr"));
            std::fs::write(&path, &file).unwrap();
            let sd = crate::stream::StreamingDataset::open(&path).unwrap();
            let window = |id: &str, w| sd.variable(id).unwrap().window_variable(w);
            let want = |id: &str, steps| ds.variable(id).unwrap().time_window(steps).unwrap().array;
            assert_eq!(window("ta", 0).unwrap().array, want("ta", 0..4), "{tag}");
            let err = window("ta", 1).unwrap_err().to_string();
            assert!(err.contains("overruns declared size"), "{tag}, streamed: {err}");
            assert_eq!(window("zg", 1).unwrap().array, want("zg", 4..6), "{tag}");
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn time_axis_not_first_roundtrips() {
        // (lat, time) order: windows must scatter through the stride logic
        let time =
            Axis::time(vec![0.0, 1.0, 2.0, 3.0, 4.0], "days since 2000-01-01", Calendar::NoLeap365)
                .unwrap();
        let lat = Axis::latitude(vec![-30.0, 30.0]).unwrap();
        let arr = MaskedArray::from_fn(&[2, 5], |ix| (ix[0] * 10 + ix[1]) as f32);
        let mut ds = Dataset::new("tmid");
        ds.add_variable(Variable::new("v", arr, vec![lat, time]).unwrap());
        let opts = V3Options { window: 2, levels: 2, compress: true };
        let back = from_bytes(&to_bytes_v3_with(&ds, &opts).0).unwrap();
        assert_eq!(back.variable("v").unwrap().array, ds.variable("v").unwrap().array);
    }
}
