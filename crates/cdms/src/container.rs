//! The `.ncr` container — the one module that knows how a file is framed.
//!
//! A `.ncr` file starts with a preamble naming its format version, then
//! carries its data in checksummed frames, located by a trailer directory
//! and a footer. All integers are little-endian.
//!
//! ```text
//! part      bytes     layout
//! --------  --------  ----------------------------------------------------
//! preamble  8         magic "NCRS" | version u32
//! frame     13 + len  kind u8 | payload_len u64 | payload | crc32c(payload) u32
//! trailer   a frame   kind 4; payload = count u32 | entry × count | file_crc u32
//!   entry   21        kind u8 | frame offset u64 | payload_len u64 | crc u32
//!   file_crc          crc32c over the entries' crc fields, in order
//! footer    12        trailer frame offset u64 | crc32c(those 8 bytes) u32
//! ```
//!
//! A file is `preamble | frame* | trailer | footer`, nothing between. The
//! trailer directory lists every frame before it, in file order. What the
//! payloads *mean* — which section kinds a file carries, in which order,
//! holding what — belongs to [`crate::format_v3`], with the payload codecs
//! in [`crate::format`].
//!
//! There is one readable version, [`VERSION_V3`], and [`check_preamble`] is
//! the one place that says so: the strict read, salvage and the ranged open
//! all go through it, and refuse any other version — v1 and v2, which
//! earlier builds wrote, included — as `unsupported version N`.
//!
//! One [`Writer`] frames metadata sections in place (length placeholder,
//! payload streamed straight into the output, length patched, CRC
//! appended), copies a run of chunk frames whose CRCs the caller computed
//! into the image on one parallel region, and emits trailer and footer.
//! Reading has three entry points over one frame parser and one directory
//! parser:
//!
//! * [`verify_all`] — the strict whole-file check: every frame is parsed,
//!   CRC-verified and held to its directory entry, contiguously.
//! * [`read_directory`] — the bootstrap from the file's tail, over any
//!   byte source (a slice, or ranged `Storage::read_at` calls); a frame
//!   fetched later is held to its entry by [`Entry::hold`] — kind, length
//!   and CRC — metadata sections and chunks alike (a chunk takes the two
//!   halves of `hold` separately, so its decode can run beside the CRC).
//! * [`locate`] — salvage: the directory when it survives, else a
//!   sequential walk; [`Entry::payload_in`] then vouches for a payload by
//!   the entry's CRC alone, so destroyed framing bytes cost nothing.
//!
//! This module turns untrusted offsets and lengths into slices, so it is a
//! hot-path file that denies `clippy::indexing_slicing`: `.get()` and
//! iterators only.

// Hot path: a file's untrusted offsets and lengths become slices here.
#![cfg_attr(not(test), deny(clippy::indexing_slicing))]

use crate::error::{CdmsError, Result};
use crate::storage::crc32c;
use std::borrow::Cow;
use std::ops::Range;

const MAGIC: &[u8; 4] = b"NCRS";
/// The format version every file is written in, and the only one read:
/// chunked, with a resolution pyramid (see [`crate::format_v3`]).
pub const VERSION_V3: u32 = 3;
/// Bytes of the preamble: magic + version u32.
pub(crate) const PREAMBLE_LEN: usize = 8;
/// Bytes of a frame besides the payload: kind u8 + len u64 + crc u32.
const FRAME_OVERHEAD: usize = 13;
/// Where the payload starts inside a frame: after kind u8 + len u64.
const PAYLOAD_AT: usize = 9;
/// Bytes of one trailer-directory entry.
const ENTRY_LEN: usize = 21;
/// Bytes of the end-of-file footer: trailer offset u64 + crc u32.
const FOOTER_LEN: usize = 12;

/// The kind tag of a section.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SectionKind {
    Header,
    Axis,
    /// Tag 3, reserved: the whole-variable section (head + raw body) of
    /// format v2, which this build no longer reads. No file carries it, and
    /// the tag is never to be reused.
    Variable,
    Trailer,
    /// Per-variable metadata (id, axis refs, attrs, shape) with no bulk
    /// data — the data lives in [`SectionKind::Chunk`] frames.
    VarMeta,
    /// One (variable, time-window, pyramid-level) data chunk.
    Chunk,
    /// The chunk directory mapping (var, window, level) → frame.
    ChunkDir,
}

impl SectionKind {
    fn as_u8(self) -> u8 {
        match self {
            SectionKind::Header => 1,
            SectionKind::Axis => 2,
            SectionKind::Variable => 3,
            SectionKind::Trailer => 4,
            SectionKind::VarMeta => 5,
            SectionKind::Chunk => 6,
            SectionKind::ChunkDir => 7,
        }
    }

    fn from_u8(b: u8) -> Option<SectionKind> {
        match b {
            1 => Some(SectionKind::Header),
            2 => Some(SectionKind::Axis),
            3 => Some(SectionKind::Variable),
            4 => Some(SectionKind::Trailer),
            5 => Some(SectionKind::VarMeta),
            6 => Some(SectionKind::Chunk),
            7 => Some(SectionKind::ChunkDir),
            _ => None,
        }
    }
}

/// Byte extents of one encoded section — the corruption fuzzer's oracle
/// for "which variables must survive a given mutation".
#[derive(Debug, Clone)]
pub struct SectionSpan {
    pub kind: SectionKind,
    /// The whole frame: kind byte through trailing CRC.
    pub frame: Range<usize>,
    /// The payload bytes within the file.
    pub payload: Range<usize>,
    /// For varmeta sections: the variable id and the ordinals (among axis
    /// sections) of the axes it references.
    pub variable: Option<(String, Vec<usize>)>,
}

fn format_err<T>(msg: String) -> Result<T> {
    Err(CdmsError::Format(msg))
}

// ---- byte cursor ----

pub(crate) fn take_bytes<'a>(buf: &mut &'a [u8], n: usize) -> Result<&'a [u8]> {
    if buf.len() < n {
        return format_err(format!("truncated: need {n} bytes, have {}", buf.len()));
    }
    let (head, tail) = buf.split_at(n);
    *buf = tail;
    Ok(head)
}

pub(crate) fn get_u8(buf: &mut &[u8]) -> Result<u8> {
    match take_bytes(buf, 1)? {
        [b] => Ok(*b),
        _ => format_err("unreachable: take_bytes(1) returned another length".into()),
    }
}

pub(crate) fn get_u32(buf: &mut &[u8]) -> Result<u32> {
    Ok(take_bytes(buf, 4)?.iter().rev().fold(0u32, |acc, &b| (acc << 8) | b as u32))
}

pub(crate) fn get_u64(buf: &mut &[u8]) -> Result<u64> {
    Ok(take_bytes(buf, 8)?.iter().rev().fold(0u64, |acc, &b| (acc << 8) | b as u64))
}

/// `bytes[start .. start + len]`, or a `Format` error naming what was
/// being read when the range falls outside the bytes present.
fn slice_at<'a>(bytes: &'a [u8], start: u64, len: usize, what: &str) -> Result<&'a [u8]> {
    usize::try_from(start)
        .ok()
        .and_then(|s| bytes.get(s..s.checked_add(len)?))
        .ok_or_else(|| CdmsError::Format(format!("truncated {what} at byte {start}")))
}

// ---- byte image ----

/// Little-endian appends onto a file image: every multi-byte integer a
/// `.ncr` file holds is written through these (a float through its bits).
pub(crate) trait PutLe {
    fn put_u32_le(&mut self, v: u32);
    fn put_u64_le(&mut self, v: u64);
}

impl PutLe for Vec<u8> {
    fn put_u32_le(&mut self, v: u32) {
        self.extend_from_slice(&v.to_le_bytes());
    }

    fn put_u64_le(&mut self, v: u64) {
        self.extend_from_slice(&v.to_le_bytes());
    }
}

// ---- preamble ----

/// Checks the magic and that the file is [`VERSION_V3`]: the one decision
/// of which versions are readable. `head` is the start of the file (at
/// least the first 8 bytes).
pub(crate) fn check_preamble(head: &[u8]) -> Result<()> {
    let mut cur = head.get(..PREAMBLE_LEN).ok_or_else(|| {
        CdmsError::Format(format!(
            "truncated: {} bytes is too short for magic + version",
            head.len()
        ))
    })?;
    if take_bytes(&mut cur, MAGIC.len())? != MAGIC {
        return format_err("bad magic (not an .ncr file)".into());
    }
    match get_u32(&mut cur)? {
        VERSION_V3 => Ok(()),
        v => format_err(format!("unsupported version {v}")),
    }
}

// ---- located sections ----

/// One located section: what a trailer-directory entry records, and what a
/// parsed frame says about itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Entry {
    pub(crate) kind: SectionKind,
    /// File offset of the frame (its kind byte).
    pub(crate) offset: u64,
    /// Payload length.
    pub(crate) len: u64,
    /// CRC32C of the payload.
    pub(crate) crc: u32,
}

impl Entry {
    /// Byte length of the whole frame.
    pub(crate) fn frame_len(&self) -> usize {
        (self.len as usize).saturating_add(FRAME_OVERHEAD)
    }

    /// The frame's extent in the file.
    pub(crate) fn frame(&self) -> Range<usize> {
        let start = self.offset as usize;
        start..start.saturating_add(self.frame_len())
    }

    /// The payload's extent in the file.
    pub(crate) fn payload(&self) -> Range<usize> {
        let start = (self.offset as usize).saturating_add(PAYLOAD_AT);
        start..start.saturating_add(self.len as usize)
    }

    /// The payload bytes of a whole-file image this entry points at, bounds
    /// checked but not checksummed — for entries [`verify_all`] returned.
    pub(crate) fn slice_of<'a>(&self, full: &'a [u8]) -> Result<&'a [u8]> {
        let start = self.offset.saturating_add(PAYLOAD_AT as u64);
        slice_at(full, start, self.len as usize, "section payload")
    }

    /// The salvage rule: the payload this entry locates, vouched for by the
    /// entry's CRC alone. The frame's own kind, length and CRC bytes are
    /// not consulted, so a payload survives destroyed framing.
    pub(crate) fn payload_in<'a>(&self, full: &'a [u8]) -> Option<&'a [u8]> {
        let payload = self.slice_of(full).ok()?;
        (crc32c(payload) == self.crc).then_some(payload)
    }

    /// The strict rule: holds `frame` — the bytes read at this entry's
    /// offset — to the entry, [`Entry::structure`] then [`Entry::checksum`].
    /// Returns the payload.
    pub(crate) fn hold<'a>(&self, frame: &'a [u8]) -> Result<&'a [u8]> {
        let payload = self.structure(frame)?;
        self.checksum(payload)?;
        Ok(payload)
    }

    /// The structural half of [`Entry::hold`]: exact length (a short read
    /// shows up here), then kind, payload length and stored CRC. Returns the
    /// payload, which nothing has vouched for yet.
    pub(crate) fn structure<'a>(&self, frame: &'a [u8]) -> Result<&'a [u8]> {
        if frame.len() != self.frame_len() {
            return format_err(format!(
                "{:?} frame at byte {} is {} bytes, directory promises {}",
                self.kind,
                self.offset,
                frame.len(),
                self.frame_len()
            ));
        }
        let parsed = frame_at(frame, 0, frame.len())?;
        if (Entry { offset: self.offset, ..parsed.entry }) != *self {
            return format_err(format!(
                "{:?} section at byte {} disagrees with its directory entry",
                self.kind, self.offset
            ));
        }
        Ok(parsed.payload)
    }

    /// The other half: `payload` hashes to this entry's CRC.
    pub(crate) fn checksum(&self, payload: &[u8]) -> Result<()> {
        self.crc_is(crc32c(payload))
    }

    /// [`Entry::checksum`] of a payload whose CRC32C the caller computed.
    pub(crate) fn crc_is(&self, crc: u32) -> Result<()> {
        if crc != self.crc {
            return format_err(format!(
                "{:?} section at byte {}: checksum mismatch",
                self.kind, self.offset
            ));
        }
        Ok(())
    }
}

/// One parsed frame: what it says about itself, and its payload.
struct Frame<'a> {
    entry: Entry,
    payload: &'a [u8],
}

/// Parses the frame at `start`, which must end at or before `limit`. The
/// CRC is read, not verified: strict callers compare it, the salvage walk
/// records it.
fn frame_at(bytes: &[u8], start: usize, limit: usize) -> Result<Frame<'_>> {
    let room = limit
        .min(bytes.len())
        .checked_sub(start)
        .and_then(|r| r.checked_sub(FRAME_OVERHEAD))
        .ok_or_else(|| CdmsError::Format(format!("truncated section frame at byte {start}")))?;
    let mut cur = slice_at(bytes, start as u64, PAYLOAD_AT, "section frame")?;
    let kind = SectionKind::from_u8(get_u8(&mut cur)?)
        .ok_or_else(|| CdmsError::Format(format!("unknown section kind at byte {start}")))?;
    let len = get_u64(&mut cur)?;
    if len > room as u64 {
        return format_err(format!(
            "section at byte {start} claims {len} payload bytes, only {room} remain"
        ));
    }
    let payload_at = (start + PAYLOAD_AT) as u64;
    let payload = slice_at(bytes, payload_at, len as usize, "section payload")?;
    let crc = get_u32(&mut slice_at(bytes, payload_at + len, 4, "section checksum")?)?;
    Ok(Frame { entry: Entry { kind, offset: start as u64, len, crc }, payload })
}

// ---- writing ----

/// Exact size of a file image whose sections have the given payload
/// lengths (trailer and footer included).
fn encoded_len(payload_lens: impl Iterator<Item = usize>) -> usize {
    let (count, framed) =
        payload_lens.fold((0usize, 0usize), |(n, total), len| (n + 1, total + FRAME_OVERHEAD + len));
    PREAMBLE_LEN + framed + FRAME_OVERHEAD + 4 + ENTRY_LEN * count + 4 + FOOTER_LEN
}

/// Writes a [`VERSION_V3`] file image: preamble, then each section framed in
/// place, then trailer and footer. Every byte of the image is written
/// once, into one allocation sized up front.
pub(crate) struct Writer {
    buf: Vec<u8>,
    reserved: usize,
    entries: Vec<Entry>,
    spans: Vec<SectionSpan>,
}

impl Writer {
    /// `payload_lens` are the exact payload lengths of the sections to
    /// come, so one allocation serves the whole encode.
    pub(crate) fn new(payload_lens: impl Iterator<Item = usize>) -> Writer {
        let reserved = encoded_len(payload_lens);
        let mut buf = Vec::with_capacity(reserved);
        buf.extend_from_slice(MAGIC);
        buf.put_u32_le(VERSION_V3);
        Writer { buf, reserved, entries: Vec::new(), spans: Vec::new() }
    }

    /// Appends one section: `fill` streams the payload straight into the
    /// output. `variable` annotates the section's span for the layout
    /// oracles. Returns where the section landed.
    pub(crate) fn section(
        &mut self,
        kind: SectionKind,
        variable: Option<(String, Vec<usize>)>,
        fill: impl FnOnce(&mut Vec<u8>),
    ) -> Entry {
        let offset = self.buf.len();
        self.buf.push(kind.as_u8());
        self.buf.put_u64_le(0); // patched below, once the payload is in
        fill(&mut self.buf);
        let payload = offset + PAYLOAD_AT..self.buf.len();
        let crc = crc32c(self.buf.get(payload.clone()).unwrap_or_default());
        if let Some(len_field) = self.buf.get_mut(offset + 1..payload.start) {
            len_field.copy_from_slice(&(payload.len() as u64).to_le_bytes());
        }
        self.buf.put_u32_le(crc);
        let entry = Entry { kind, offset: offset as u64, len: payload.len() as u64, crc };
        self.entries.push(entry);
        self.spans.push(SectionSpan { kind, frame: offset..self.buf.len(), payload, variable });
        entry
    }

    /// Appends one frame of `kind` per `(payload, crc)`, in order, where
    /// `crc` is the payload's CRC32C, computed by the caller beside its
    /// encode. The frames are copied into the image on one parallel region,
    /// each at the offset the lengths before it fix, so the image is the
    /// same at any thread count. Returns where each frame landed.
    pub(crate) fn frames(&mut self, kind: SectionKind, payloads: &[(Vec<u8>, u32)]) -> Vec<Entry> {
        let mut offset = self.buf.len() as u64;
        let entries: Vec<Entry> = payloads
            .iter()
            .map(|(payload, crc)| {
                let entry = Entry { kind, offset, len: payload.len() as u64, crc: *crc };
                offset += entry.frame_len() as u64;
                entry
            })
            .collect();
        let counts: Vec<usize> = entries.iter().map(Entry::frame_len).collect();
        rayon::extend_counted(&mut self.buf, &counts, |i, mut frame| {
            if let Some((payload, crc)) = payloads.get(i) {
                frame.push(kind.as_u8());
                frame.extend_from_slice(&(payload.len() as u64).to_le_bytes());
                frame.extend_from_slice(payload);
                frame.extend_from_slice(&crc.to_le_bytes());
            }
            frame.finish();
        });
        self.entries.extend_from_slice(&entries);
        self.spans.extend(entries.iter().map(|e| SectionSpan {
            kind,
            frame: e.frame(),
            payload: e.payload(),
            variable: None,
        }));
        entries
    }

    /// Emits the trailer — the directory of every section written, plus the
    /// file CRC chained over their CRCs — and the footer that locates it
    /// from EOF. Returns the image, every section's span (trailer
    /// included) and the footer's extent.
    pub(crate) fn finish(mut self) -> (Vec<u8>, Vec<SectionSpan>, Range<usize>) {
        let entries = std::mem::take(&mut self.entries);
        let trailer = self.section(SectionKind::Trailer, None, |buf| {
            buf.put_u32_le(entries.len() as u32);
            let mut crcs = Vec::with_capacity(entries.len() * 4);
            for e in &entries {
                buf.push(e.kind.as_u8());
                buf.put_u64_le(e.offset);
                buf.put_u64_le(e.len);
                buf.put_u32_le(e.crc);
                crcs.extend_from_slice(&e.crc.to_le_bytes());
            }
            buf.put_u32_le(crc32c(&crcs));
        });
        let footer_at = self.buf.len();
        self.buf.put_u64_le(trailer.offset);
        self.buf.put_u32_le(crc32c(&trailer.offset.to_le_bytes()));
        debug_assert_eq!(self.buf.len(), self.reserved, "size precomputation must be exact");
        (self.buf, self.spans, footer_at..footer_at + FOOTER_LEN)
    }
}

// ---- reading ----

/// Bootstraps the section directory from the file's tail: footer →
/// trailer frame → entries. `read(offset, len)` supplies exactly `len`
/// bytes at `offset` — from a slice, or from ranged storage reads.
///
/// Refuses a footer whose CRC fails or that points outside the section
/// region, a trailer frame that fails its CRC, is not a trailer or does
/// not end exactly at the footer, an entry of unknown kind or lying
/// outside `8 .. footer`, a count the payload cannot hold, a file CRC that
/// disagrees with the entries, and trailing payload bytes. Returns the
/// entries and the trailer frame's offset.
pub(crate) fn read_directory<'a>(
    file_len: u64,
    mut read: impl FnMut(u64, usize) -> Result<Cow<'a, [u8]>>,
) -> Result<(Vec<Entry>, u64)> {
    let footer_at = file_len
        .checked_sub(FOOTER_LEN as u64)
        .filter(|&at| at >= (PREAMBLE_LEN + FRAME_OVERHEAD) as u64)
        .ok_or_else(|| CdmsError::Format(format!("truncated file ({file_len} bytes)")))?;
    let footer = read(footer_at, FOOTER_LEN)?;
    let mut cur = &*footer;
    let offset_bytes = take_bytes(&mut cur, 8)?;
    if crc32c(offset_bytes) != get_u32(&mut cur)? {
        return format_err("footer checksum mismatch".into());
    }
    let trailer_at = get_u64(&mut &*offset_bytes)?;
    let trailer_len = footer_at
        .checked_sub(trailer_at)
        .filter(|&len| trailer_at >= PREAMBLE_LEN as u64 && len >= FRAME_OVERHEAD as u64)
        .ok_or_else(|| {
            CdmsError::Format(format!("footer points outside the file (byte {trailer_at})"))
        })? as usize;
    let trailer_bytes = read(trailer_at, trailer_len)?;
    let frame = frame_at(&trailer_bytes, 0, trailer_len)?;
    if frame.entry.kind != SectionKind::Trailer || frame.entry.frame_len() != trailer_len {
        return format_err(format!(
            "no trailer frame spans byte {trailer_at} to the footer (found {:?}, {} bytes)",
            frame.entry.kind,
            frame.entry.frame_len()
        ));
    }
    Entry { offset: trailer_at, ..frame.entry }.checksum(frame.payload)?;
    let mut cur = frame.payload;

    let count = get_u32(&mut cur)? as usize;
    if count > cur.len() / ENTRY_LEN {
        return format_err("trailer directory truncated".into());
    }
    let mut entries = Vec::with_capacity(count);
    let mut crcs = Vec::with_capacity(count * 4);
    for _ in 0..count {
        let kind = get_u8(&mut cur)?;
        let (offset, len, crc) = (get_u64(&mut cur)?, get_u64(&mut cur)?, get_u32(&mut cur)?);
        let kind = SectionKind::from_u8(kind).ok_or_else(|| {
            CdmsError::Format(format!("directory entry at byte {offset} has unknown kind {kind}"))
        })?;
        let end = offset.checked_add(FRAME_OVERHEAD as u64).and_then(|e| e.checked_add(len));
        if offset < PREAMBLE_LEN as u64 || end.is_none_or(|end| end > footer_at) {
            return format_err(format!("directory entry at byte {offset} overruns the file"));
        }
        entries.push(Entry { kind, offset, len, crc });
        crcs.extend_from_slice(&crc.to_le_bytes());
    }
    if get_u32(&mut cur)? != crc32c(&crcs) {
        return format_err("file-level checksum mismatch".into());
    }
    if !cur.is_empty() {
        return format_err("trailer payload has trailing bytes".into());
    }
    Ok((entries, trailer_at))
}

/// [`read_directory`] over a whole-file image.
fn directory_of(full: &[u8]) -> Result<(Vec<Entry>, u64)> {
    read_directory(full.len() as u64, |offset, len| {
        slice_at(full, offset, len, "file tail").map(Cow::Borrowed)
    })
}

/// The strict whole-file check: bootstraps the directory, then walks the
/// frames from the preamble on, each CRC-verified and equal to its entry —
/// kind, offset, length, CRC — with nothing between them and nothing
/// before the trailer. Returns the directory; [`Entry::slice_of`] then
/// yields each verified payload.
pub(crate) fn verify_all(full: &[u8]) -> Result<Vec<Entry>> {
    let (entries, trailer_at) = directory_of(full)?;
    let mut pos = PREAMBLE_LEN as u64;
    for entry in &entries {
        if entry.offset != pos {
            return format_err(format!("trailer directory disagrees with section at byte {pos}"));
        }
        entry.hold(slice_at(full, pos, entry.frame_len(), "section frame")?)?;
        pos += entry.frame_len() as u64;
    }
    if pos != trailer_at {
        return format_err(format!(
            "listed sections end at byte {pos}, the trailer starts at byte {trailer_at}"
        ));
    }
    Ok(entries)
}

/// Salvage's section locator: the trailer directory when it survives
/// (robust to corrupt mid-file framing — the flag says so), else a
/// sequential walk that stops at the first frame it cannot follow.
pub(crate) fn locate(full: &[u8]) -> (Vec<Entry>, bool) {
    if let Ok((entries, _)) = directory_of(full) {
        return (entries, true);
    }
    let mut entries = Vec::new();
    let mut pos = PREAMBLE_LEN;
    // framing destroyed = cannot resync without the directory
    while let Ok(frame) = frame_at(full, pos, full.len()) {
        if frame.entry.kind == SectionKind::Trailer {
            break;
        }
        pos += frame.entry.frame_len();
        entries.push(frame.entry);
    }
    (entries, false)
}
