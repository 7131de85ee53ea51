//! The `.ncr` self-describing binary file — this repo's NetCDF stand-in.
//!
//! Every file is little-endian and starts with `magic "NCRS" | version u32`,
//! then carries *sections*: checksummed frames, a trailer directory and a
//! footer, whose byte layout has one owner and one table — the module docs
//! of `container.rs`. Every file is format v3, which [`to_bytes`],
//! [`write_dataset`] and `Dataset::save` write at [`V3Options::default`]:
//! chunked, with a resolution pyramid, read piecewise via
//! `Storage::read_at` by [`crate::stream`]. Which sections it carries, and
//! how they are read, lives in [`crate::format_v3`]. A file of any other
//! version — v1 and v2, which earlier builds wrote, included — is refused
//! as `unsupported version N`, by the one preamble check every reader goes
//! through.
//!
//! This module holds the entry points and what the sections share: the
//! payload codecs (header, axis, variable head, raw `f32 | mask` body), the
//! axis dedup and axis-ref resolution, the strict in-order section reader
//! and the salvage prelude.
//!
//! The strict reader ([`from_bytes`]) verifies every section checksum, the
//! trailer directory and the footer, and bounds every allocation against
//! the bytes actually present so hostile length fields fail cleanly
//! instead of exhausting memory. [`from_bytes_salvage`] instead skips
//! sections whose checksums fail — locating them through the trailer
//! directory when it survives, or by a sequential walk when it doesn't —
//! and returns the intact variables plus a [`SalvageReport`] saying exactly
//! what was lost and why.
//!
//! Strings are `u32 length + UTF-8 bytes`. Corrupt input fails with
//! [`CdmsError::Format`] rather than panicking.

use crate::attr::{AttValue, Attributes};
use crate::axis::{Axis, AxisKind};
use crate::calendar::Calendar;
use crate::container::{self, get_u32, get_u64, get_u8, take_bytes, Entry, PutLe};
use crate::dataset::Dataset;
use crate::error::{CdmsError, Result};
use crate::format_v3::V3Options;
use crate::storage::{LocalDisk, Storage};
use crate::Variable;
use std::borrow::Cow;
use std::path::Path;

pub use crate::container::{SectionKind, SectionSpan, VERSION_V3};

pub(crate) const MAX_AXES: usize = 1 << 20;
pub(crate) const MAX_VARS: usize = 1_000_000;

/// One variable salvage could not recover.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LostVariable {
    /// The id, when the variable's own section was intact enough to name it.
    pub id: Option<String>,
    /// Ordinal of the variable section among recovered+lost variables.
    pub section: usize,
    /// Why it was dropped.
    pub reason: String,
}

/// What a salvage pass found: which sections survived checksum
/// verification, which variables were recovered, and why the rest were not.
#[derive(Debug, Clone, Default)]
pub struct SalvageReport {
    /// Sections located (via directory or sequential walk).
    pub sections_total: usize,
    /// Sections whose checksum (or payload decode) failed.
    pub sections_corrupt: usize,
    /// The header section survived (dataset id and global attrs are real).
    pub header_intact: bool,
    /// Sections were located through the trailer directory (robust to
    /// corrupt framing); false means the sequential-walk fallback ran.
    pub directory_intact: bool,
    /// Ids of the variables recovered into the returned dataset.
    pub recovered_variables: Vec<String>,
    /// Variables dropped, with reasons.
    pub lost_variables: Vec<LostVariable>,
}

impl SalvageReport {
    /// True when nothing at all was lost.
    pub fn is_clean(&self) -> bool {
        self.sections_corrupt == 0 && self.lost_variables.is_empty() && self.header_intact
    }

    /// One-line human summary (used by catalog quarantine reasons).
    pub(crate) fn summary(&self) -> String {
        format!(
            "{} of {} sections corrupt; recovered {} variable(s), lost {}{}",
            self.sections_corrupt,
            self.sections_total,
            self.recovered_variables.len(),
            self.lost_variables.len(),
            if self.header_intact { "" } else { "; header lost" }
        )
    }

    /// Books the outcome of rebuilding the variable of body section
    /// `section`: recovered into `ds`, or lost with its id (when it could
    /// be read) and the reason.
    pub(crate) fn settle(&mut self, ds: &mut Dataset, section: usize, outcome: Salvaged) {
        match outcome {
            Ok(var) => {
                self.recovered_variables.push(var.id.clone());
                ds.add_variable(var);
            }
            Err((id, reason)) => self.lost_variables.push(LostVariable { id, section, reason }),
        }
    }
}

/// A variable salvage rebuilt, or the id (when readable) and reason it is lost.
pub(crate) type Salvaged = std::result::Result<Variable, (Option<String>, String)>;

impl std::fmt::Display for SalvageReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.summary())
    }
}

// ---- encoding ----

/// Serializes a dataset to bytes: v3 at [`V3Options::default`].
pub fn to_bytes(ds: &Dataset) -> Vec<u8> {
    crate::format_v3::to_bytes_v3_with(ds, &V3Options::default()).0
}

/// Deduplicates axes across variables: each distinct axis is written once
/// and referenced by its ordinal. Returns the axes to write and, per
/// variable, its refs.
pub(crate) fn dedup_axes(ds: &Dataset) -> (Vec<&Axis>, Vec<Vec<usize>>) {
    let mut axes: Vec<&Axis> = Vec::new();
    let refs_per_var = ds
        .variables()
        .iter()
        .map(|var| {
            var.axes
                .iter()
                .map(|ax| match axes.iter().position(|a| *a == ax) {
                    Some(i) => i,
                    None => {
                        axes.push(ax);
                        axes.len() - 1
                    }
                })
                .collect()
        })
        .collect();
    (axes, refs_per_var)
}

// ---- section payloads ----
//
// Each `*_size` is exact and mirrors its `put_*` writer.

/// Header payload: dataset id, global attrs, axis count, variable count.
pub(crate) fn put_header(buf: &mut Vec<u8>, ds: &Dataset, n_axes: usize) {
    put_string(buf, &ds.id);
    put_attrs(buf, &ds.attributes);
    buf.put_u32_le(n_axes as u32);
    buf.put_u32_le(ds.variables().len() as u32);
}

pub(crate) fn header_size(ds: &Dataset) -> usize {
    string_size(&ds.id) + attrs_size(&ds.attributes) + 8
}

/// Decodes a header payload into an empty dataset carrying the id and
/// global attrs, plus the declared axis and variable counts.
pub(crate) fn decode_header(payload: &[u8]) -> Result<(Dataset, usize, usize)> {
    let mut cur = payload;
    let buf = &mut cur;
    let mut ds = Dataset::new(&get_string(buf)?);
    ds.attributes = get_attrs(buf)?;
    let n_axes = get_u32(buf)? as usize;
    let n_vars = get_u32(buf)? as usize;
    if n_axes > MAX_AXES {
        return Err(CdmsError::Format(format!("implausible axis count {n_axes}")));
    }
    if n_vars > MAX_VARS {
        return Err(CdmsError::Format(format!("implausible variable count {n_vars}")));
    }
    if !buf.is_empty() {
        return Err(CdmsError::Format("header payload has trailing bytes".into()));
    }
    Ok((ds, n_axes, n_vars))
}

pub(crate) fn decode_axis_payload(payload: &[u8]) -> Result<Axis> {
    let mut cur = payload;
    let buf = &mut cur;
    let ax = get_axis(buf)?;
    if !buf.is_empty() {
        return Err(CdmsError::Format(format!("axis '{}' payload has trailing bytes", ax.id)));
    }
    Ok(ax)
}

/// What a variable says about itself ahead of its data: a `VarMeta`
/// payload is this head plus window and pyramid depth.
pub(crate) struct VarHead {
    pub(crate) id: String,
    /// Ordinals into the file's axis sections.
    pub(crate) axis_refs: Vec<usize>,
    pub(crate) attributes: Attributes,
    pub(crate) shape: Vec<usize>,
}

pub(crate) fn put_var_head(buf: &mut Vec<u8>, var: &Variable, refs: &[usize]) {
    put_string(buf, &var.id);
    buf.put_u32_le(refs.len() as u32);
    for &r in refs {
        buf.put_u32_le(r as u32);
    }
    put_attrs(buf, &var.attributes);
    buf.put_u32_le(var.array.rank() as u32);
    for &d in var.array.shape() {
        buf.put_u64_le(d as u64);
    }
}

pub(crate) fn var_head_size(var: &Variable, refs: &[usize]) -> usize {
    string_size(&var.id)
        + 4
        + 4 * refs.len()
        + attrs_size(&var.attributes)
        + 4
        + 8 * var.array.rank()
}

pub(crate) fn get_var_head(buf: &mut &[u8]) -> Result<VarHead> {
    let id = get_string(buf)?;
    let naxes = get_u32(buf)? as usize;
    if naxes > 64 {
        return Err(CdmsError::Format(format!("implausible rank {naxes}")));
    }
    let mut axis_refs = Vec::with_capacity(naxes);
    for _ in 0..naxes {
        axis_refs.push(get_u32(buf)? as usize);
    }
    let attributes = get_attrs(buf)?;
    let rank = get_u32(buf)? as usize;
    if rank != naxes {
        let reason = format!("variable '{id}': rank {rank} != axis count {naxes}");
        return Err(CdmsError::Format(reason));
    }
    let shape = (0..rank).map(|_| Ok(get_u64(buf)? as usize)).collect::<Result<_>>()?;
    Ok(VarHead { id, axis_refs, attributes, shape })
}

/// Raw data body: `f32 × n`, then the validity mask bit-packed into
/// `⌈n/8⌉` bytes — a `CODEC_RAW` chunk body, and what a `CODEC_RLE` body
/// decodes to.
pub(crate) fn put_raw_body(buf: &mut Vec<u8>, data: &[f32], mask: &[bool]) {
    put_f32_bulk(buf, data);
    put_mask(buf, mask);
}

/// Bytes of a raw body of `n` elements; `None` when a hostile `n` overflows.
pub(crate) fn raw_body_size(n: usize) -> Option<usize> {
    n.checked_mul(4)?.checked_add(n.div_ceil(8))
}

/// Elements per item of [`get_raw_body`]'s region: 64 KiB of floats. A
/// multiple of eight, so every item's mask starts on a byte.
pub(crate) const CONVERT_CHUNK: usize = 16 * 1024;

/// Elements an item converts at a time, on the stack, before it copies them
/// into its slots: the conversion loops then vectorize, and a slot copy
/// checks its room once per stage rather than once per element.
const CONVERT_STAGE: usize = 256;

/// A packed mask byte's eight flags: `MASK_BITS[b][i]` is bit `i` of `b`,
/// the flag of the byte's element `i`.
static MASK_BITS: [[bool; 8]; 256] = {
    let mut rows = [[false; 8]; 256];
    let mut b = 0;
    while b < 256 {
        let mut bit = 0;
        while bit < 8 {
            rows[b][bit] = b & (1 << bit) != 0;
            bit += 1;
        }
        b += 1;
    }
    rows
};

/// Decodes a raw body of `n` elements (see [`put_raw_body`]). Floats and
/// mask are written once each, chunk for chunk, on one parallel region.
pub(crate) fn get_raw_body(buf: &mut &[u8], n: usize) -> Result<(Vec<f32>, Vec<bool>)> {
    let float_bytes = n
        .checked_mul(4)
        .ok_or_else(|| CdmsError::Format(format!("implausible element count {n}")))?;
    // `take_bytes` proves the bytes are present before anything is sized
    // by `n`
    let words = take_bytes(buf, float_bytes)?.as_chunks::<4>().0;
    let packed = take_bytes(buf, n.div_ceil(8))?;
    let (mut data, mut mask) = (Vec::new(), Vec::new());
    rayon::extend_chunks_pair(&mut data, &mut mask, n, CONVERT_CHUNK, |i, mut values, mut valid| {
        let first = i * CONVERT_CHUNK;
        let words = words.get(first..first + values.len()).unwrap_or_default();
        let bytes = packed.get(first / 8..).unwrap_or_default();
        let mut floats = [0f32; CONVERT_STAGE];
        let mut flags = [false; CONVERT_STAGE];
        for (words, bytes) in words.chunks(CONVERT_STAGE).zip(bytes.chunks(CONVERT_STAGE / 8)) {
            for (f, w) in floats.iter_mut().zip(words) {
                *f = f32::from_le_bytes(*w);
            }
            values.extend_from_slice(&floats[..words.len()]);
            for (eight, &b) in flags.as_chunks_mut::<8>().0.iter_mut().zip(bytes) {
                *eight = MASK_BITS[b as usize];
            }
            // a partial last byte gives its low `n % 8` bits; the padding
            // bits above them are not read
            valid.extend_from_slice(&flags[..words.len()]);
        }
        values.finish();
        valid.finish();
    });
    Ok((data, mask))
}

/// Product of `shape` without overflow (empty shape = scalar = 1 element).
pub(crate) fn checked_volume(shape: &[usize]) -> Option<usize> {
    shape.iter().try_fold(1usize, |acc, &d| acc.checked_mul(d))
}

/// One entry of a file's axis table: every entry has its axis when
/// reading strictly; salvage's table has holes where a section was lost.
pub(crate) trait AxisSlot {
    fn axis(&self) -> Option<&Axis>;
}

impl AxisSlot for Axis {
    fn axis(&self) -> Option<&Axis> {
        Some(self)
    }
}

impl AxisSlot for Option<Axis> {
    fn axis(&self) -> Option<&Axis> {
        self.as_ref()
    }
}

/// Resolves a variable's axis refs against the file's axis sections. The
/// error is the reason the variable cannot be built.
pub(crate) fn resolve_axes(
    id: &str,
    refs: &[usize],
    table: &[impl AxisSlot],
) -> std::result::Result<Vec<Axis>, String> {
    refs.iter()
        .map(|&r| match table.get(r) {
            Some(slot) => slot.axis().cloned().ok_or_else(|| format!("axis section {r} corrupt")),
            None => Err(format!(
                "variable '{id}' references axis section {r}, only {} exist",
                table.len()
            )),
        })
        .collect()
}

// ---- decoding (strict) ----

/// Deserializes a dataset from bytes. Verifies every checksum; any
/// mismatch, and any version but [`VERSION_V3`], is a
/// [`CdmsError::Format`].
pub fn from_bytes(buf: &[u8]) -> Result<Dataset> {
    crate::format_v3::from_bytes_v3(buf)
}

/// A file's section directory being consumed in file order — how the
/// reader says which sections a file carries: "the next one must be a
/// header", "then this many axes". `fetch` produces a listed section's
/// payload: a slice of an image [`container::verify_all`] has vouched
/// for, or a ranged read held to its entry.
pub(crate) struct Sections<'d, F> {
    rest: std::slice::Iter<'d, Entry>,
    fetch: F,
}

impl<'d, 'a, F: FnMut(&Entry) -> Result<Cow<'a, [u8]>>> Sections<'d, F> {
    pub(crate) fn new(directory: &'d [Entry], fetch: F) -> Self {
        Sections { rest: directory.iter(), fetch }
    }

    /// The payload of the next section, which must be of kind `want`.
    pub(crate) fn next(&mut self, want: SectionKind) -> Result<Cow<'a, [u8]>> {
        match self.rest.next() {
            Some(entry) if entry.kind == want => (self.fetch)(entry),
            Some(entry) => Err(CdmsError::Format(format!(
                "expected {want:?} section at byte {}, found {:?}",
                entry.offset, entry.kind
            ))),
            None => Err(CdmsError::Format(format!("file ends where a {want:?} section belongs"))),
        }
    }

    /// The run of `kind` sections next in line: located, not fetched.
    pub(crate) fn run_of(&mut self, kind: SectionKind) -> &'d [Entry] {
        let all = self.rest.as_slice();
        let (run, rest) = all.split_at(all.iter().take_while(|e| e.kind == kind).count());
        self.rest = rest.iter();
        run
    }

    /// What every file opens with: the header, then as many axis
    /// sections as it declares. Returns the empty dataset (id and global
    /// attrs), the axis table and the declared variable count.
    pub(crate) fn open(&mut self) -> Result<(Dataset, Vec<Axis>, usize)> {
        let (ds, n_axes, n_vars) = decode_header(&self.next(SectionKind::Header)?)?;
        let axes = (0..n_axes)
            .map(|_| decode_axis_payload(&self.next(SectionKind::Axis)?))
            .collect::<Result<_>>()?;
        Ok((ds, axes, n_vars))
    }

    /// Nothing may follow what the reader asked for.
    pub(crate) fn end(mut self) -> Result<()> {
        match self.rest.next() {
            Some(entry) => Err(CdmsError::Format(format!(
                "unexpected {:?} section at byte {}",
                entry.kind, entry.offset
            ))),
            None => Ok(()),
        }
    }
}

// ---- decoding (salvage) ----

/// Best-effort decode: recovers every variable whose metadata section and
/// referenced axis sections pass checksum verification, window by window
/// from the chunks that survive (see [`crate::format_v3`]). Returns the
/// (possibly partial, possibly empty) dataset plus a [`SalvageReport`].
/// A damaged file never errors here; what does is input that is not an
/// `.ncr` file, and a version this build does not read.
pub fn from_bytes_salvage(buf: &[u8]) -> Result<(Dataset, SalvageReport)> {
    container::check_preamble(buf)?;
    Ok(crate::format_v3::salvage_v3(buf))
}

/// What salvage establishes before it looks at the variables' sections.
pub(crate) struct Salvage<'a> {
    /// Empty, carrying the header's id and global attrs when it survived.
    pub(crate) ds: Dataset,
    pub(crate) report: SalvageReport,
    /// The axis sections in file order, so refs resolve by ordinal; `None`
    /// where a section failed its checksum or decode.
    pub(crate) axes: Vec<Option<Axis>>,
    /// Every other located section in file order; `None` where the payload
    /// failed its checksum (already counted in `report.sections_corrupt`).
    pub(crate) bodies: Vec<(SectionKind, Option<&'a [u8]>)>,
}

/// The salvage prelude: locates the sections, checksums every one of them,
/// and decodes header and axes.
pub(crate) fn salvage_prelude(full: &[u8]) -> Salvage<'_> {
    let (located, directory_intact) = container::locate(full);
    let mut report = SalvageReport {
        sections_total: located.len(),
        directory_intact,
        ..SalvageReport::default()
    };
    let mut ds = Dataset::new("");
    let mut axes = Vec::new();
    let mut bodies = Vec::new();
    for entry in &located {
        let payload = entry.payload_in(full);
        let intact = match entry.kind {
            SectionKind::Header => match payload.map(decode_header) {
                Some(Ok((header, _, _))) => {
                    ds = header;
                    report.header_intact = true;
                    true
                }
                _ => false,
            },
            SectionKind::Axis => {
                axes.push(payload.and_then(|p| decode_axis_payload(p).ok()));
                axes.last().is_some_and(Option::is_some)
            }
            kind => {
                bodies.push((kind, payload));
                payload.is_some()
            }
        };
        report.sections_corrupt += usize::from(!intact);
    }
    Salvage { ds, report, axes, bodies }
}

// ---- file I/O ----

/// Writes a dataset to a `.ncr` file crash-safely (v3 at
/// [`V3Options::default`], atomic temp-file + fsync + rename via
/// `crate::storage::write_atomic`).
pub fn write_dataset(ds: &Dataset, path: &Path) -> Result<()> {
    write_dataset_with(&LocalDisk, ds, path)
}

/// Writes through an explicit storage backend (fault injection, tests).
pub fn write_dataset_with(storage: &dyn Storage, ds: &Dataset, path: &Path) -> Result<()> {
    crate::storage::write_atomic(storage, path, &to_bytes(ds))
}

/// Reads a dataset from a `.ncr` file (strict: any checksum failure errors).
pub fn read_dataset(path: &Path) -> Result<Dataset> {
    let bytes = LocalDisk.read(path).map_err(|e| with_path(e, path))?;
    from_bytes(&bytes).map_err(|e| with_path(e, path))
}

/// Prefixes `Format`/`Io` error messages with the offending file path so a
/// failure in a multi-file workload names which file was bad. Other
/// variants — notably `TransientIo`, which retry layers match on — pass
/// through unchanged (`is_transient` only checks the variant, but keeping
/// the message pristine keeps retry logs grep-able).
pub(crate) fn with_path(e: CdmsError, path: &Path) -> CdmsError {
    match e {
        CdmsError::Format(msg) => CdmsError::Format(format!("{}: {msg}", path.display())),
        CdmsError::Io(msg) => CdmsError::Io(format!("{}: {msg}", path.display())),
        other => other,
    }
}

// ---- encoding helpers ----

pub(crate) fn string_size(s: &str) -> usize {
    4 + s.len()
}

pub(crate) fn attrs_size(attrs: &Attributes) -> usize {
    let mut n = 4;
    for (k, v) in attrs {
        n += string_size(k) + 1;
        n += match v {
            AttValue::Text(s) => string_size(s),
            AttValue::Float(_) | AttValue::Int(_) => 8,
            AttValue::FloatVec(v) => 4 + 8 * v.len(),
        };
    }
    n
}

pub(crate) fn axis_size(ax: &Axis) -> usize {
    string_size(&ax.id)
        + string_size(&ax.units)
        + 2 // kind + calendar
        + 8
        + 8 * ax.values.len()
        + 1
        + ax.bounds.as_ref().map_or(0, |b| 16 * b.len())
        + attrs_size(&ax.attributes)
}

pub(crate) fn put_string(buf: &mut Vec<u8>, s: &str) {
    buf.put_u32_le(s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}

pub(crate) fn put_attrs(buf: &mut Vec<u8>, attrs: &Attributes) {
    buf.put_u32_le(attrs.len() as u32);
    for (k, v) in attrs {
        put_string(buf, k);
        match v {
            AttValue::Text(s) => {
                buf.push(0);
                put_string(buf, s);
            }
            AttValue::Float(f) => {
                buf.push(1);
                buf.put_u64_le(f.to_bits());
            }
            AttValue::Int(i) => {
                buf.push(2);
                buf.put_u64_le(*i as u64);
            }
            AttValue::FloatVec(v) => {
                buf.push(3);
                buf.put_u32_le(v.len() as u32);
                for &f in v {
                    buf.put_u64_le(f.to_bits());
                }
            }
        }
    }
}

pub(crate) fn put_axis(buf: &mut Vec<u8>, ax: &Axis) {
    put_string(buf, &ax.id);
    put_string(buf, &ax.units);
    buf.push(match ax.kind {
        AxisKind::Latitude => 0,
        AxisKind::Longitude => 1,
        AxisKind::Level => 2,
        AxisKind::Time => 3,
        AxisKind::Generic => 4,
    });
    buf.push(match ax.calendar {
        Calendar::Gregorian => 0,
        Calendar::NoLeap365 => 1,
        Calendar::AllLeap366 => 2,
        Calendar::Day360 => 3,
    });
    buf.put_u64_le(ax.values.len() as u64);
    for &v in &ax.values {
        buf.put_u64_le(v.to_bits());
    }
    match &ax.bounds {
        Some(b) => {
            buf.push(1);
            for (lo, hi) in b {
                buf.put_u64_le(lo.to_bits());
                buf.put_u64_le(hi.to_bits());
            }
        }
        None => buf.push(0),
    }
    put_attrs(buf, &ax.attributes);
}

/// Streams an `f32` slice into the buffer through a stack staging block,
/// amortizing the per-element bookkeeping of an append per float.
fn put_f32_bulk(buf: &mut Vec<u8>, data: &[f32]) {
    let mut stage = [0u8; 4096];
    for chunk in data.chunks(1024) {
        let mut n = 0;
        for &v in chunk {
            stage[n..n + 4].copy_from_slice(&v.to_le_bytes());
            n += 4;
        }
        buf.extend_from_slice(&stage[..n]);
    }
}

fn put_mask(buf: &mut Vec<u8>, mask: &[bool]) {
    let nbytes = mask.len().div_ceil(8);
    let mut packed = vec![0u8; nbytes];
    for (i, &m) in mask.iter().enumerate() {
        if m {
            packed[i / 8] |= 1 << (i % 8);
        }
    }
    buf.extend_from_slice(&packed);
}

// ---- decoding helpers ----

fn get_f64(buf: &mut &[u8]) -> Result<f64> {
    Ok(f64::from_bits(get_u64(buf)?))
}

fn get_i64(buf: &mut &[u8]) -> Result<i64> {
    Ok(get_u64(buf)? as i64)
}

pub(crate) fn get_string(buf: &mut &[u8]) -> Result<String> {
    let len = get_u32(buf)? as usize;
    if len > 1 << 24 {
        return Err(CdmsError::Format(format!("implausible string length {len}")));
    }
    let raw = take_bytes(buf, len)?;
    String::from_utf8(raw.to_vec()).map_err(|e| CdmsError::Format(format!("bad utf8: {e}")))
}

pub(crate) fn get_attrs(buf: &mut &[u8]) -> Result<Attributes> {
    let n = get_u32(buf)? as usize;
    if n > 100_000 {
        return Err(CdmsError::Format(format!("implausible attribute count {n}")));
    }
    let mut attrs = Attributes::new();
    for _ in 0..n {
        let key = get_string(buf)?;
        let tag = get_u8(buf)?;
        let value = match tag {
            0 => AttValue::Text(get_string(buf)?),
            1 => AttValue::Float(get_f64(buf)?),
            2 => AttValue::Int(get_i64(buf)?),
            3 => {
                let len = get_u32(buf)? as usize;
                // bound allocation against the bytes actually present
                if len > buf.len() / 8 {
                    return Err(CdmsError::Format("implausible vector length".into()));
                }
                let mut v = Vec::with_capacity(len);
                for _ in 0..len {
                    v.push(get_f64(buf)?);
                }
                AttValue::FloatVec(v)
            }
            t => return Err(CdmsError::Format(format!("unknown attribute tag {t}"))),
        };
        attrs.insert(key, value);
    }
    Ok(attrs)
}

pub(crate) fn get_axis(buf: &mut &[u8]) -> Result<Axis> {
    let id = get_string(buf)?;
    let units = get_string(buf)?;
    let kind = match get_u8(buf)? {
        0 => AxisKind::Latitude,
        1 => AxisKind::Longitude,
        2 => AxisKind::Level,
        3 => AxisKind::Time,
        4 => AxisKind::Generic,
        t => return Err(CdmsError::Format(format!("unknown axis kind {t}"))),
    };
    let calendar = match get_u8(buf)? {
        0 => Calendar::Gregorian,
        1 => Calendar::NoLeap365,
        2 => Calendar::AllLeap366,
        3 => Calendar::Day360,
        t => return Err(CdmsError::Format(format!("unknown calendar {t}"))),
    };
    let n = get_u64(buf)? as usize;
    // bound allocation against the bytes actually present, not a fixed cap:
    // a hostile length field must fail before Vec::with_capacity
    if n > buf.len() / 8 {
        return Err(CdmsError::Format(format!("implausible axis length {n}")));
    }
    let mut values = Vec::with_capacity(n);
    for _ in 0..n {
        values.push(get_f64(buf)?);
    }
    let bounds = if get_u8(buf)? == 1 {
        if n > buf.len() / 16 {
            return Err(CdmsError::Format("axis bounds exceed remaining bytes".into()));
        }
        let mut b = Vec::with_capacity(n);
        for _ in 0..n {
            b.push((get_f64(buf)?, get_f64(buf)?));
        }
        Some(b)
    } else {
        None
    };
    let attributes = get_attrs(buf)?;
    let mut ax = if values.is_empty() {
        Axis::empty(&id, &units, kind)
    } else {
        Axis::new(&id, values, &units, kind)?
    };
    ax.calendar = calendar;
    ax.bounds = bounds;
    ax.attributes = attributes;
    Ok(ax)
}

/// Unpacks a bit-packed mask element by element: the oracle of
/// [`get_raw_body`]'s table-driven unpacking.
#[cfg(test)]
pub(crate) fn get_mask(buf: &mut &[u8], n: usize) -> Result<Vec<bool>> {
    let packed = take_bytes(buf, n.div_ceil(8))?;
    // element `i` is bit `i % 8` of byte `i / 8`: a whole byte yields eight
    // elements at once, a partial last byte its low `n % 8` bits (the
    // padding bits above them are not read)
    let mut mask = Vec::with_capacity(n);
    for &b in packed.iter().take(n / 8) {
        mask.extend_from_slice(&[
            b & 1 != 0,
            b & 2 != 0,
            b & 4 != 0,
            b & 8 != 0,
            b & 16 != 0,
            b & 32 != 0,
            b & 64 != 0,
            b & 128 != 0,
        ]);
    }
    if let Some(&last) = packed.get(n / 8) {
        mask.extend((0..n % 8).map(|bit| last & (1 << bit) != 0));
    }
    Ok(mask)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attr::attrs;
    use crate::format_v3::{read_meta_with, to_bytes_v3_with, V3Layout};
    use crate::synth::SynthesisSpec;
    use crate::MaskedArray;

    fn sample_dataset() -> Dataset {
        let time =
            Axis::time(vec![0.0, 30.0], "days since 2000-01-01", Calendar::NoLeap365).unwrap();
        let mut lat = Axis::latitude(vec![-45.0, 0.0, 45.0]).unwrap();
        lat.gen_bounds();
        let lon = Axis::longitude(vec![0.0, 120.0, 240.0]).unwrap();
        let mut arr = MaskedArray::from_fn(&[2, 3, 3], |ix| ix.iter().sum::<usize>() as f32);
        arr.mask_at(&[0, 1, 2]).unwrap();
        let mut var = Variable::new("ta", arr, vec![time, lat, lon]).unwrap();
        var.attributes = attrs([("units", "K"), ("long_name", "air temperature")]);
        var.attributes.insert("missing_value".into(), AttValue::Float(1e20));
        var.attributes.insert("valid_range".into(), AttValue::FloatVec(vec![150.0, 350.0]));
        var.attributes.insert("realization".into(), AttValue::Int(1));
        let mut ds = Dataset::new("cmip_sample").with_attr("institution", "NASA NCCS");
        ds.add_variable(var);
        ds
    }

    /// A dataset with two variables sharing axes, for salvage tests.
    fn two_var_dataset() -> Dataset {
        let mut ds = sample_dataset();
        let ta = ds.variable("ta").unwrap().clone();
        let mut ua = ta.clone();
        ua.id = "ua".into();
        ua.array = MaskedArray::filled(7.0, &[2, 3, 3]);
        ds.add_variable(ua);
        ds
    }

    /// The bytes `to_bytes` writes, with their byte map.
    fn encode(ds: &Dataset) -> (Vec<u8>, V3Layout) {
        to_bytes_v3_with(ds, &V3Options::default())
    }

    #[test]
    fn deduplicates_shared_axes() {
        let ds = two_var_dataset();
        let (_, layout) = encode(&ds);
        let n_axis_sections =
            layout.sections.iter().filter(|s| s.kind == SectionKind::Axis).count();
        assert_eq!(n_axis_sections, 3, "two variables share one time/lat/lon trio");
        // both variables reference the same three axis ordinals
        let refs: Vec<_> = layout
            .sections
            .iter()
            .filter_map(|s| s.variable.as_ref().map(|(_, r)| r.clone()))
            .collect();
        assert_eq!(refs, vec![vec![0, 1, 2], vec![0, 1, 2]]);
    }

    #[test]
    fn roundtrip_through_file() {
        let dir = std::env::temp_dir().join("cdms_format_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sample.ncr");
        let ds = sample_dataset();
        ds.save(&path).unwrap();
        let back = Dataset::open(&path).unwrap();
        assert_eq!(back.variable("ta").unwrap().array, ds.variable("ta").unwrap().array);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn bad_magic_rejected() {
        let err = from_bytes(b"NOPE....").unwrap_err();
        assert!(matches!(err, CdmsError::Format(_)));
    }

    #[test]
    fn truncated_file_rejected() {
        let ds = sample_dataset();
        let bytes = to_bytes(&ds);
        for cut in [3, 8, 20, bytes.len() / 2, bytes.len() - 1] {
            let err = from_bytes(&bytes[..cut]).unwrap_err();
            assert!(matches!(err, CdmsError::Format(_) | CdmsError::Invalid(_)), "cut={cut}");
        }
    }

    #[test]
    fn bad_version_rejected() {
        let ds = sample_dataset();
        let dir = std::env::temp_dir().join(format!("cdms_format_version_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("version.ncr");
        // 1 and 2 are the generations earlier builds wrote, which no build
        // reads now: the strict read, salvage and the ranged open refuse
        // them, and any other version, with one error
        for version in [99, 1, 2] {
            let mut bytes = to_bytes(&ds);
            bytes[4] = version;
            assert!(matches!(from_bytes(&bytes), Err(CdmsError::Format(_))));
            std::fs::write(&path, &bytes).unwrap();
            for err in [
                from_bytes(&bytes).unwrap_err(),
                from_bytes_salvage(&bytes).unwrap_err(),
                read_meta_with(&LocalDisk, &path).unwrap_err(),
            ] {
                let want = format!("unsupported version {version}");
                assert!(err.to_string().contains(&want), "{err}");
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_tag_rejected() {
        let ds = sample_dataset();
        let bytes = to_bytes(&ds);
        // Flip every byte one at a time over the header region; must never panic.
        for i in 8..bytes.len().min(120) {
            let mut corrupt = bytes.clone();
            corrupt[i] ^= 0xFF;
            let _ = from_bytes(&corrupt); // any Result is fine, panics are not
        }
    }

    #[test]
    fn any_single_byte_flip_fails_strict_decode() {
        // silent corruption cannot pass the strict reader: every byte after
        // the preamble, of a one-window file and of a multi-variable,
        // multi-window one
        let several = SynthesisSpec::new(3, 1, 4, 6).seed(3).build();
        for ds in [sample_dataset(), several] {
            let bytes = to_bytes(&ds);
            for i in 8..bytes.len() {
                let mut corrupt = bytes.clone();
                corrupt[i] ^= 0x01;
                let id = &ds.id;
                assert!(from_bytes(&corrupt).is_err(), "{id}: flip at byte {i} went undetected");
            }
        }
    }

    #[test]
    fn mask_bit_packing_roundtrips_odd_lengths() {
        for n in [1usize, 7, 8, 9, 17] {
            let mut arr = MaskedArray::zeros(&[n]);
            for i in (0..n).step_by(3) {
                arr.mask_at(&[i]).unwrap();
            }
            let ax = Axis::new("x", (0..n).map(|i| i as f64).collect(), "m", AxisKind::Generic)
                .unwrap();
            let mut ds = Dataset::new("m");
            ds.add_variable(Variable::new("v", arr.clone(), vec![ax]).unwrap());
            let back = from_bytes(&to_bytes(&ds)).unwrap();
            assert_eq!(back.variable("v").unwrap().array.mask(), arr.mask(), "n={n}");
        }
    }

    #[test]
    fn salvage_of_clean_file_is_clean() {
        let ds = two_var_dataset();
        let (ds2, report) = from_bytes_salvage(&to_bytes(&ds)).unwrap();
        assert!(report.is_clean(), "{report}");
        assert!(report.directory_intact);
        assert_eq!(report.recovered_variables, vec!["ta", "ua"]);
        assert_eq!(ds2.variable("ua").unwrap().array, ds.variable("ua").unwrap().array);
    }

    #[test]
    fn salvage_recovers_intact_variable_when_other_corrupts() {
        let ds = two_var_dataset();
        let (mut bytes, layout) = encode(&ds);
        // corrupt a payload byte of the "ta" VarMeta section
        let ta = layout
            .sections
            .iter()
            .find(|s| matches!(&s.variable, Some((id, _)) if id == "ta"))
            .unwrap();
        bytes[ta.payload.start + ta.payload.len() / 2] ^= 0xFF;
        assert!(from_bytes(&bytes).is_err(), "strict reader must refuse");
        let (salvaged, report) = from_bytes_salvage(&bytes).unwrap();
        assert_eq!(report.recovered_variables, vec!["ua"]);
        assert_eq!(report.lost_variables.len(), 1);
        assert_eq!(report.sections_corrupt, 1);
        assert!(report.header_intact);
        assert_eq!(salvaged.variable("ua").unwrap().array, ds.variable("ua").unwrap().array);
        assert!(salvaged.variable("ta").is_none());
    }

    #[test]
    fn salvage_drops_variables_of_corrupt_axis() {
        let ds = two_var_dataset();
        let (mut bytes, layout) = encode(&ds);
        // corrupt the first axis section: both variables reference it
        let ax = layout.sections.iter().find(|s| s.kind == SectionKind::Axis).unwrap();
        bytes[ax.payload.start] ^= 0xFF;
        let (salvaged, report) = from_bytes_salvage(&bytes).unwrap();
        assert!(salvaged.is_empty());
        assert_eq!(report.lost_variables.len(), 2);
        assert!(report.lost_variables[0].reason.contains("axis section"), "{report:?}");
        assert_eq!(report.lost_variables[0].id.as_deref(), Some("ta"));
        // one section is damaged and one is counted; the variables that
        // merely reference it are named, and blamed on the axis
        assert_eq!(report.sections_corrupt, 1, "{report:?}");
        for (lost, id) in report.lost_variables.iter().zip(["ta", "ua"]) {
            assert_eq!(lost.id.as_deref(), Some(id), "{report:?}");
            assert!(lost.reason.contains("axis section"), "{report:?}");
        }
    }

    #[test]
    fn same_damage_gets_the_recorded_report() {
        let ds = two_var_dataset();
        // where to flip one byte, given the file's byte map
        type Aim = fn(&V3Layout) -> usize;
        // directory intact, header intact, recovered ids, lost ids
        type Report = (bool, bool, &'static [&'static str], &'static [Option<&'static str>]);
        // Each report is what the v2 reader of earlier builds gave for the
        // same damage to the same dataset (v3 agreed): literal expectations
        // read off an independent decoder, not off this one.
        let both: &[&str] = &["ta", "ua"];
        let table: [(&str, Aim, Report); 5] = [
            ("header payload", |l| l.sections[0].payload.start + 2, (true, false, both, &[])),
            (
                "axis payload",
                |l| l.sections.iter().find(|s| s.kind == SectionKind::Axis).unwrap().payload.start,
                (true, true, &[], &[Some("ta"), Some("ua")]),
            ),
            (
                "varmeta payload",
                |l| {
                    let ta = |s: &&SectionSpan| matches!(&s.variable, Some((id, _)) if id == "ta");
                    l.sections.iter().find(ta).unwrap().payload.start + 1
                },
                (true, true, &["ua"], &[None]),
            ),
            (
                "framing destroyed, directory intact",
                |l| l.sections[0].frame.start + 3,
                (true, true, both, &[]),
            ),
            ("footer destroyed", |l| l.footer.start, (false, true, both, &[])),
        ];
        for (damage, aim, want) in table {
            let (mut bytes, layout) = encode(&ds);
            bytes[aim(&layout)] ^= 0xFF;
            let (salvaged, report) = from_bytes_salvage(&bytes).unwrap();
            assert_eq!(salvaged.variable_ids(), report.recovered_variables, "{damage}");
            let recovered: Vec<_> = report.recovered_variables.iter().map(String::as_str).collect();
            let lost: Vec<_> = report.lost_variables.iter().map(|l| l.id.as_deref()).collect();
            let got = (report.directory_intact, report.header_intact, &recovered[..], &lost[..]);
            assert_eq!(got, want, "{damage}");
        }
    }

    #[test]
    fn salvage_survives_destroyed_framing_via_directory() {
        let ds = two_var_dataset();
        let (mut bytes, layout) = encode(&ds);
        // destroy the length field of the header frame: a sequential walk
        // is now lost immediately, but the trailer directory still locates
        // every section
        let header = &layout.sections[0];
        bytes[header.frame.start + 3] ^= 0xFF;
        let (salvaged, report) = from_bytes_salvage(&bytes).unwrap();
        assert!(report.directory_intact);
        assert_eq!(report.recovered_variables, vec!["ta", "ua"]);
        // header *payload* is untouched, so id and attrs survive too
        assert!(report.header_intact);
        assert_eq!(salvaged.id, "cmip_sample");
    }

    #[test]
    fn salvage_falls_back_to_walk_when_footer_dies() {
        let ds = two_var_dataset();
        let (mut bytes, layout) = encode(&ds);
        bytes[layout.footer.start] ^= 0xFF; // footer checksum now fails
        let (salvaged, report) = from_bytes_salvage(&bytes).unwrap();
        assert!(!report.directory_intact);
        assert_eq!(report.recovered_variables, vec!["ta", "ua"]);
        assert_eq!(salvaged.len(), 2);
    }

    #[test]
    fn hostile_length_fields_fail_before_allocating() {
        // axis claiming 2^60 values inside a 60-byte section must error
        let mut p = Vec::new();
        put_string(&mut p, "x");
        put_string(&mut p, "m");
        p.push(4); // Generic
        p.push(0); // Gregorian
        p.put_u64_le(1 << 60); // hostile value count
        let mut cur = &p[..];
        let err = get_axis(&mut cur).unwrap_err();
        assert!(err.to_string().contains("implausible axis length"), "{err}");

        // attribute float-vec claiming 2^24 entries in a tiny buffer
        let mut p = Vec::new();
        p.put_u32_le(1); // one attribute
        put_string(&mut p, "k");
        p.push(3); // FloatVec
        p.put_u32_le(1 << 24);
        let mut cur = &p[..];
        let err = get_attrs(&mut cur).unwrap_err();
        assert!(err.to_string().contains("implausible vector length"), "{err}");
    }

    proptest::proptest! {
        /// `get_mask` against its per-bit definition — element `i` is bit
        /// `i % 8` of byte `i / 8` — at every length around the whole-byte
        /// and tail boundaries, over arbitrary bytes: set padding bits in
        /// the last byte change nothing, and exactly `⌈n/8⌉` bytes are
        /// consumed.
        #[test]
        fn get_mask_is_the_per_bit_definition(
            bytes in proptest::collection::vec(0u8..=255, 10),
        ) {
            for n in 0..=67usize {
                let mut cur = &bytes[..];
                let mask = get_mask(&mut cur, n).unwrap();
                let want: Vec<bool> = (0..n).map(|i| bytes[i / 8] & (1 << (i % 8)) != 0).collect();
                proptest::prop_assert_eq!(mask, want, "n = {}", n);
                proptest::prop_assert_eq!(cur.len(), bytes.len() - n.div_ceil(8));
            }
            // one element short of bytes present is a truncation, not a panic
            proptest::prop_assert!(get_mask(&mut &bytes[..8], 65).is_err());
        }
    }

    #[test]
    fn scalar_variable_roundtrips() {
        // rank-0: no axes, one element
        let arr = MaskedArray::filled(3.25, &[]);
        let mut ds = Dataset::new("scalar");
        ds.add_variable(Variable::new("t0", arr, vec![]).unwrap());
        let back = from_bytes(&to_bytes(&ds)).unwrap();
        assert_eq!(back.variable("t0").unwrap().array.data(), &[3.25]);
    }
}
