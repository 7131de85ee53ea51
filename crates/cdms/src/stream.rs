//! Out-of-core streaming reads of `.ncr` v3 files.
//!
//! [`StreamingDataset`] opens a v3 file by reading only its metadata (a
//! handful of ranged reads: footer → trailer → header/axes/varmetas/chunk
//! directory — see [`crate::format_v3::read_meta_with`]), then serves any
//! (variable, time window, pyramid level) through [`Storage::read_at`],
//! one chunk frame per call. Nothing else of the file is ever resident,
//! so a time series far larger than RAM plays back in bounded memory.
//!
//! The layer is built for hostile storage:
//!
//! * **Bounded-memory cache** — decoded chunks live in a byte-budgeted
//!   LRU ([`StreamOptions::cache_bytes`]). The budget is a hard ceiling:
//!   eviction runs *before* insertion, so resident bytes never exceed it,
//!   not even transiently. Hits, misses, evictions and the high-water
//!   mark are all counted.
//! * **Transient retry** — EINTR-style failures retry up to
//!   [`StreamOptions::max_retries`] times with capped exponential backoff.
//!   Hard failures (media errors, checksum mismatches, short reads) do
//!   not retry: the chunk is negative-cached so later frames fail fast
//!   instead of re-paying the I/O.
//! * **Per-chunk salvage** — [`StreamingVariable::time_slab_degraded`]
//!   never stalls on a damaged chunk: it falls back to the best intact
//!   pyramid level (upsampled to full resolution) and, at worst, to a
//!   fully-masked slab. Playback always gets *a* frame.
//! * **Deadline bookkeeping** — fetches that exceed
//!   [`StreamOptions::deadline_ms`] (e.g. a disk spinning up under an
//!   injected [`crate::storage::StorageFault::DelayedRead`]) are counted
//!   as deadline misses.
//!
//! Every event lands in a [`StreamReport`], which fault-storm tests
//! assert against exactly: with a scripted
//! [`crate::storage::StorageFaultPlan`], the counters are a deterministic
//! function of the plan and of the sequence of requests.
//!
//! **A request fetches the chunk it shows and nothing else.** There is no
//! readahead. There was one: after serving a frame, `time_slab_degraded`
//! decoded the next two windows on the caller's thread before it returned.
//! A prefetch the caller waits for moves a decode to an earlier frame; it
//! cannot hide one. On the pipeline benchmark's file (12 windows, a cache
//! of three) it cost every far jump three decodes to show one frame (144
//! chunk reads a session where demand alone reads 41) and every first
//! frame three, and on an in-order scan the window fetched ahead carried
//! the oldest LRU stamp, so the next fetch-ahead evicted exactly it: 21
//! reads for 12 windows. The only readahead that could earn its lines
//! overlaps the decode with the caller's render, off the caller's thread;
//! that is parked in ROADMAP.md until a trace can show the overlap.
//!
//! The one miss that is left is verified and decoded on both cores, split
//! into even halves: see `held_and_decoded_into`.

// Hot path: bytes off hostile storage are decoded inside every played frame.
#![cfg_attr(not(test), deny(clippy::indexing_slicing))]

use crate::axis::AxisKind;
use crate::error::{CdmsError, Result};
use crate::format;
use crate::format_v3::{self, ChunkData, ChunkDirEntry, V3Meta, V3VarMeta, Window};
use crate::storage::{crc32c_block, crc32c_join, crc32c_update, LocalDisk, Storage, CRC_BLOCK};
use crate::{MaskedArray, Variable};
use parking_lot::Mutex;
use rayon::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Tuning knobs for a streaming session.
#[derive(Debug, Clone)]
pub struct StreamOptions {
    /// Chunk-cache budget in bytes of decoded data. A hard ceiling, never
    /// exceeded; chunks larger than the whole budget are served without
    /// being cached.
    pub cache_bytes: usize,
    /// Retries for *transient* read failures (hard failures never retry).
    pub max_retries: u32,
    /// First retry backoff; doubles each retry.
    pub backoff_base_ms: u64,
    /// Backoff ceiling.
    pub backoff_cap_ms: u64,
    /// Soft per-fetch deadline; fetches that take longer are counted in
    /// [`StreamReport::deadline_missed`]. `None` disables the bookkeeping.
    pub deadline_ms: Option<u64>,
}

impl Default for StreamOptions {
    fn default() -> StreamOptions {
        StreamOptions {
            cache_bytes: 8 << 20,
            max_retries: 3,
            backoff_base_ms: 1,
            backoff_cap_ms: 50,
            deadline_ms: None,
        }
    }
}

/// Identity of one cached chunk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct ChunkKey {
    var: usize,
    window: usize,
    level: usize,
}

/// One resident chunk; the decoded data is shared between cache and
/// callers without copying.
struct CacheEntry {
    data: Arc<ChunkData>,
    bytes: usize,
    stamp: u64,
}

/// Byte-budgeted LRU of decoded chunks. All counters live here so a
/// single lock covers lookup + accounting.
struct ChunkCache {
    budget: usize,
    map: BTreeMap<ChunkKey, CacheEntry>,
    tick: u64,
    bytes: usize,
    peak_bytes: usize,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl ChunkCache {
    fn new(budget: usize) -> ChunkCache {
        ChunkCache {
            budget,
            map: BTreeMap::new(),
            tick: 0,
            bytes: 0,
            peak_bytes: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// Looks a chunk up, counting the hit/miss and refreshing recency.
    fn get(&mut self, key: &ChunkKey) -> Option<Arc<ChunkData>> {
        self.tick += 1;
        let tick = self.tick;
        match self.map.get_mut(key) {
            Some(e) => {
                e.stamp = tick;
                self.hits += 1;
                Some(Arc::clone(&e.data))
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Inserts a decoded chunk, evicting least-recently-used entries
    /// *first* so resident bytes never exceed the budget. A chunk larger
    /// than the whole budget is not cached at all. A chunk already resident
    /// — two threads missed it at once — only has its recency refreshed:
    /// nothing is evicted for bytes that are not added.
    fn insert(&mut self, key: ChunkKey, data: Arc<ChunkData>, bytes: usize) {
        if bytes > self.budget {
            return;
        }
        self.tick += 1;
        let stamp = self.tick;
        if let Some(resident) = self.map.get_mut(&key) {
            resident.stamp = stamp;
            return;
        }
        while self.bytes + bytes > self.budget {
            let Some(oldest) =
                self.map.iter().min_by_key(|(_, e)| e.stamp).map(|(k, _)| *k)
            else {
                break;
            };
            if let Some(e) = self.map.remove(&oldest) {
                self.bytes -= e.bytes;
                self.evictions += 1;
            }
        }
        self.map.insert(key, CacheEntry { data, bytes, stamp });
        self.bytes += bytes;
        self.peak_bytes = self.peak_bytes.max(self.bytes);
    }
}

/// Counters of everything a streaming session did, for asserting
/// fault-storm behaviour exactly and for benchmarking overhead.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StreamReport {
    /// Chunk frames successfully fetched and decoded from storage.
    pub chunk_reads: u64,
    /// Bytes of chunk frames read from storage (successful reads).
    pub bytes_read: u64,
    /// Cache hits / misses / evictions.
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub evictions: u64,
    /// Resident decoded bytes high-water mark (≤ the configured budget).
    pub peak_cache_bytes: u64,
    /// Transient-failure retries performed.
    pub retried: u64,
    /// Chunks permanently failed (negative-cached): hard I/O errors,
    /// checksum mismatches, short reads, or retry exhaustion.
    pub failed_chunks: u64,
    /// Frame serves that fell back to a coarser pyramid level.
    pub degraded: u64,
    /// Frame serves where every level was gone — masked fill.
    pub salvaged: u64,
    /// Fetches that blew the soft deadline.
    pub deadline_missed: u64,
}

impl std::fmt::Display for StreamReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} chunk reads ({} B), cache {}h/{}m/{}e (peak {} B), \
             {} retried, {} failed, {} degraded, {} salvaged, {} deadline-missed",
            self.chunk_reads,
            self.bytes_read,
            self.cache_hits,
            self.cache_misses,
            self.evictions,
            self.peak_cache_bytes,
            self.retried,
            self.failed_chunks,
            self.degraded,
            self.salvaged,
            self.deadline_missed
        )
    }
}

/// Non-cache counters, behind their own lock.
#[derive(Default)]
struct ReportCore {
    chunk_reads: u64,
    bytes_read: u64,
    retried: u64,
    failed_chunks: u64,
    degraded: u64,
    salvaged: u64,
    deadline_missed: u64,
}

struct Shared {
    storage: Arc<dyn Storage>,
    path: PathBuf,
    meta: V3Meta,
    opts: StreamOptions,
    cache: Mutex<ChunkCache>,
    /// Chunks that failed permanently; later fetches fail fast.
    failed: Mutex<BTreeSet<ChunkKey>>,
    report: Mutex<ReportCore>,
    /// The PackBits body buffer, reused from miss to miss. A miss takes it
    /// under a short lock and puts it back when it is done; a miss that
    /// finds it taken decodes into a buffer of its own and never waits, and
    /// whichever is put back last is kept. So a session holds at most one,
    /// and since a body is decoded into exactly its own length
    /// ([`format_v3::packbits_decode_into`]), its capacity is at most the
    /// file's largest level-0 raw body.
    body: Mutex<Vec<u8>>,
}

/// A v3 file opened for streaming: metadata resident, bulk data fetched
/// chunk-by-chunk on demand.
pub struct StreamingDataset {
    shared: Arc<Shared>,
}

impl std::fmt::Debug for StreamingDataset {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StreamingDataset")
            .field("path", &self.shared.path)
            .field("id", &self.shared.meta.id)
            .field("vars", &self.shared.meta.vars.len())
            .field("chunks", &self.shared.meta.chunks.len())
            .finish()
    }
}

impl StreamingDataset {
    /// Opens a v3 file on the local filesystem with default options.
    pub fn open(path: &Path) -> Result<StreamingDataset> {
        StreamingDataset::open_with(Arc::new(LocalDisk), path, StreamOptions::default())
    }

    /// Opens a v3 file through an explicit backend. Only metadata is read
    /// here; the first chunk I/O happens on the first frame access.
    pub fn open_with(
        storage: Arc<dyn Storage>,
        path: &Path,
        opts: StreamOptions,
    ) -> Result<StreamingDataset> {
        let meta = format_v3::read_meta_with(storage.as_ref(), path)?;
        let cache = Mutex::new(ChunkCache::new(opts.cache_bytes.max(1)));
        Ok(StreamingDataset {
            shared: Arc::new(Shared {
                storage,
                path: path.to_path_buf(),
                meta,
                opts,
                cache,
                failed: Mutex::new(BTreeSet::new()),
                report: Mutex::new(ReportCore::default()),
                body: Mutex::new(Vec::new()),
            }),
        })
    }

    /// A lazy view of one variable.
    pub fn variable(&self, id: &str) -> Result<StreamingVariable> {
        let var = self
            .shared
            .meta
            .var_index(id)
            .ok_or_else(|| CdmsError::NotFound(format!("variable '{id}'")))?;
        Ok(StreamingVariable { shared: Arc::clone(&self.shared), var })
    }

    /// Snapshot of everything the session has done so far.
    pub fn report(&self) -> StreamReport {
        let core = self.shared.report.lock();
        let cache = self.shared.cache.lock();
        StreamReport {
            chunk_reads: core.chunk_reads,
            bytes_read: core.bytes_read,
            cache_hits: cache.hits,
            cache_misses: cache.misses,
            evictions: cache.evictions,
            peak_cache_bytes: cache.peak_bytes as u64,
            retried: core.retried,
            failed_chunks: core.failed_chunks,
            degraded: core.degraded,
            salvaged: core.salvaged,
            deadline_missed: core.deadline_missed,
        }
    }
}

/// A lazy, bounded-memory view of one variable in a streaming session.
/// Cloning is cheap (shared cache, report, and negative cache).
#[derive(Clone)]
pub struct StreamingVariable {
    shared: Arc<Shared>,
    var: usize,
}

impl std::fmt::Debug for StreamingVariable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StreamingVariable")
            .field("id", &self.id())
            .field("shape", &self.shape())
            .finish()
    }
}

impl StreamingVariable {
    fn meta(&self) -> Result<&V3VarMeta> {
        self.shared
            .meta
            .vars
            .get(self.var)
            .ok_or_else(|| CdmsError::NotFound(format!("variable ordinal {}", self.var)))
    }

    /// The variable's id.
    pub fn id(&self) -> &str {
        self.shared
            .meta
            .vars
            .get(self.var)
            .map(|m| m.id.as_str())
            .unwrap_or("")
    }

    /// Full (not per-window) shape.
    pub(crate) fn shape(&self) -> &[usize] {
        self.shared
            .meta
            .vars
            .get(self.var)
            .map(|m| m.shape.as_slice())
            .unwrap_or(&[])
    }

    /// Number of time steps (1 when there is no time axis).
    pub fn n_times(&self) -> usize {
        self.shared.meta.vars.get(self.var).map(|m| m.n_times()).unwrap_or(0)
    }

    /// Number of chunk windows.
    pub fn n_windows(&self) -> usize {
        self.shared.meta.vars.get(self.var).map(|m| m.n_windows()).unwrap_or(0)
    }

    /// Whether the variable carries a time axis (and hence real frames).
    pub fn has_time_axis(&self) -> bool {
        self.shared.meta.vars.get(self.var).is_some_and(|m| m.time_axis.is_some())
    }

    /// Session counters (shared with the owning dataset).
    pub fn report(&self) -> StreamReport {
        StreamingDataset { shared: Arc::clone(&self.shared) }.report()
    }

    // ---- chunk fetch ----

    /// Fetches and decodes one chunk: cache → negative cache → ranged
    /// read with transient retry. No lock is held across I/O or backoff.
    fn fetch_chunk(&self, key: ChunkKey) -> Result<Arc<ChunkData>> {
        if let Some(data) = self.shared.cache.lock().get(&key) {
            return Ok(data);
        }
        if self.shared.failed.lock().contains(&key) {
            return Err(CdmsError::Io(format!(
                "chunk ({},{},{}) previously failed permanently",
                key.var, key.window, key.level
            )));
        }
        let entry: ChunkDirEntry =
            *self.shared.meta.chunk(key.var, key.window, key.level).ok_or_else(|| {
                CdmsError::NotFound(format!(
                    "chunk ({},{},{}) in directory",
                    key.var, key.window, key.level
                ))
            })?;
        let meta = self.meta()?;
        let n = meta.level_volume(key.window, key.level).ok_or_else(|| {
            CdmsError::Format(format!("variable '{}': level shape overflows", meta.id))
        })?;

        let opts = &self.shared.opts;
        let started = Instant::now();
        let mut attempt = 0u32;
        let decoded: ChunkData = loop {
            match self.shared.storage.read_at(&self.shared.path, entry.offset, entry.frame_len())
            {
                Ok(frame) => {
                    let mut body = std::mem::take(&mut *self.shared.body.lock());
                    let held = held_and_decoded_into(&entry, &frame, n, &mut body);
                    *self.shared.body.lock() = body;
                    match held {
                        Ok(dm) => break dm,
                        // corruption (bad CRC, short frame, bad codec):
                        // retrying the same bytes cannot help
                        Err(e) => return Err(self.fail_chunk(key, e)),
                    }
                }
                Err(e) if e.is_transient() && attempt < opts.max_retries => {
                    attempt += 1;
                    self.shared.report.lock().retried += 1;
                    let shift = (attempt - 1).min(16);
                    let ms = opts
                        .backoff_base_ms
                        .saturating_mul(1u64 << shift)
                        .min(opts.backoff_cap_ms);
                    parking_lot::assert_unlocked("the chunk retry backoff");
                    std::thread::sleep(Duration::from_millis(ms));
                }
                Err(e) => return Err(self.fail_chunk(key, e)),
            }
        };
        if let Some(dl) = opts.deadline_ms {
            if started.elapsed() > Duration::from_millis(dl) {
                self.shared.report.lock().deadline_missed += 1;
            }
        }
        {
            let mut core = self.shared.report.lock();
            core.chunk_reads += 1;
            core.bytes_read += entry.frame_len() as u64;
        }
        let bytes = decoded.0.len() * 4 + decoded.1.len();
        let data = Arc::new(decoded);
        self.shared.cache.lock().insert(key, Arc::clone(&data), bytes);
        Ok(data)
    }

    /// Negative-caches a permanently failed chunk and counts it once.
    fn fail_chunk(&self, key: ChunkKey, e: CdmsError) -> CdmsError {
        if self.shared.failed.lock().insert(key) {
            self.shared.report.lock().failed_chunks += 1;
        }
        e
    }

    /// Window `w` at full resolution, strict: any failure propagates.
    fn window_strict(&self, w: usize) -> Result<Arc<ChunkData>> {
        self.fetch_chunk(ChunkKey { var: self.var, window: w, level: 0 })
    }

    /// Window `w` at the best available fidelity. Never fails on I/O or
    /// corruption: [`format_v3::best_window`] is the policy, this books
    /// its outcome.
    fn window_degraded(&self, w: usize) -> Result<Arc<ChunkData>> {
        let meta = self.meta()?;
        let fetch = |level| self.fetch_chunk(ChunkKey { var: self.var, window: w, level }).ok();
        Ok(match format_v3::best_window(meta, w, fetch) {
            Window::Full(data) => data,
            Window::Degraded(data) => {
                self.shared.report.lock().degraded += 1;
                Arc::new(data)
            }
            Window::Masked => {
                let n = format::checked_volume(&meta.slab_shape(w)).ok_or_else(|| {
                    CdmsError::Format(format!("variable '{}': shape overflows", meta.id))
                })?;
                self.shared.report.lock().salvaged += 1;
                Arc::new((vec![0.0; n], vec![true; n]))
            }
        })
    }

    // ---- frame access ----

    /// One time step at full resolution, strict: the time axis is dropped,
    /// like [`Variable::time_slab`]. Any storage fault propagates.
    pub fn time_slab(&self, t: usize) -> Result<Variable> {
        let (w, k) = self.locate(t)?;
        let data = self.window_strict(w)?;
        self.assemble_step(&data, w, k)
    }

    /// One time step at the best available fidelity — the call that keeps
    /// an animation running through a fault storm. Falls back to a coarser
    /// pyramid level (upsampled) or a masked slab; the only remaining
    /// errors are out-of-range `t` and metadata inconsistencies.
    pub fn time_slab_degraded(&self, t: usize) -> Result<Variable> {
        let (w, k) = self.locate(t)?;
        let data = self.window_degraded(w)?;
        self.assemble_step(&data, w, k)
    }

    /// Chunk window `w` as a [`Variable`] with the time axis kept (sliced
    /// to the window's steps) — the unit a streaming task-graph source
    /// serves. Strict: any storage fault propagates.
    pub fn window_variable(&self, w: usize) -> Result<Variable> {
        let data = self.window_strict(w)?;
        self.assemble_window(&data, w)
    }

    /// Like [`StreamingVariable::window_variable`] at the best available
    /// fidelity: a damaged window degrades to an upsampled pyramid level
    /// or, at worst, a fully-masked slab instead of failing.
    pub fn window_variable_degraded(&self, w: usize) -> Result<Variable> {
        let data = self.window_degraded(w)?;
        self.assemble_window(&data, w)
    }

    // ---- internals ----

    /// Maps a global time step to (window, index-within-window).
    fn locate(&self, t: usize) -> Result<(usize, usize)> {
        let meta = self.meta()?;
        let n = meta.n_times();
        match meta.time_axis {
            Some(_) => {
                if t >= n {
                    return Err(CdmsError::Invalid(format!(
                        "time step {t} out of range for {n} step(s) on '{}'",
                        meta.id
                    )));
                }
                Ok((t / meta.window.max(1), t % meta.window.max(1)))
            }
            None => {
                if t != 0 {
                    return Err(CdmsError::Invalid(format!(
                        "time step {t} on '{}' which has no time axis",
                        meta.id
                    )));
                }
                Ok((0, 0))
            }
        }
    }

    /// Builds the window-`w` [`Variable`] (time axis kept, sliced to the
    /// window) from that window's full-resolution-shaped data.
    fn assemble_window(&self, chunk: &ChunkData, w: usize) -> Result<Variable> {
        let meta = self.meta()?;
        let slab_shape = meta.slab_shape(w);
        let range = meta.window_range(w);
        let axes = self.shared.meta.var_axes(self.var)?;
        let out_axes = axes
            .into_iter()
            .map(|ax| {
                if ax.kind == AxisKind::Time {
                    ax.subset(range.start, range.end)
                } else {
                    Ok(ax)
                }
            })
            .collect::<Result<Vec<_>>>()?;
        let array = MaskedArray::with_mask(chunk.0.clone(), chunk.1.clone(), &slab_shape)?;
        let mut var = Variable::new(&meta.id, array, out_axes)?;
        var.attributes = meta.attributes.clone();
        Ok(var)
    }

    /// Builds the time-axis-dropped [`Variable`] for step `k` of window
    /// `w` from that window's full-resolution-shaped data.
    fn assemble_step(&self, chunk: &ChunkData, w: usize, k: usize) -> Result<Variable> {
        let meta = self.meta()?;
        let slab_shape = meta.slab_shape(w);
        let (data, mask) = extract_step(&chunk.0, &chunk.1, &slab_shape, meta.time_axis, k)?;
        let out_shape: Vec<usize> = slab_shape
            .iter()
            .enumerate()
            .filter(|(d, _)| Some(*d) != meta.time_axis)
            .map(|(_, &v)| v)
            .collect();
        let axes = self.shared.meta.var_axes(self.var)?;
        let out_axes = axes
            .into_iter()
            .filter(|ax| ax.kind != AxisKind::Time)
            .collect();
        let array = MaskedArray::with_mask(data, mask, &out_shape)?;
        let mut var = Variable::new(&meta.id, array, out_axes)?;
        var.attributes = meta.attributes.clone();
        Ok(var)
    }
}

/// Holds a fetched chunk frame to its directory entry — length, kind,
/// payload length, stored CRC, computed CRC, as every metadata frame was at
/// open — and decodes it, on both cores, in two parallel regions. `body`
/// is the buffer a PackBits body is decoded into.
///
/// The structure is checked first. The first region is then flat: item 0
/// checks the chunk's head and PackBits-decodes its body into `body`
/// ([`format_v3::chunk_body`]), and items 1… CRC the payload's whole
/// [`CRC_BLOCK`]s. Item 0 is the one piece that cannot be split, and claims
/// go in ascending order, so it starts first and the blocks balance around
/// it. The block CRCs are folded in order, then the tail after them, and
/// the checksum decides: the decode arm saw bytes nothing had vouched for
/// yet, which is what `chunk_body` is written for, and what it made of
/// them is looked at only once the checksum has passed. So a damaged chunk
/// reports the checksum mismatch, as it does when the two run one after the
/// other. The second region converts the body into floats and mask
/// ([`format::get_raw_body`]).
fn held_and_decoded_into(
    entry: &ChunkDirEntry,
    frame: &[u8],
    n: usize,
    body: &mut Vec<u8>,
) -> Result<ChunkData> {
    let located = entry.located();
    let payload = located.structure(frame)?;
    let identity = (entry.var, entry.window, entry.level);
    let (blocks, tail) = payload.as_chunks::<CRC_BLOCK>();
    // slot 0 is the decode arm's; slot 1 + b holds block b's CRC
    let mut crcs = vec![0u32; 1 + blocks.len()];
    let unpack = Mutex::new((body, Err(CdmsError::Format("chunk decode did not run".into()))));
    crcs.par_iter_mut().enumerate().for_each(|(i, crc)| match i.checked_sub(1) {
        None => {
            let mut arm = unpack.lock();
            let (body, stored) = &mut *arm;
            *stored = format_v3::chunk_body(payload, identity, n, body);
        }
        Some(b) => {
            if let Some(block) = blocks.get(b) {
                *crc = crc32c_block(block);
            }
        }
    });
    let whole = crcs.iter().skip(1).fold(0, |crc, &block| crc32c_join(crc, block));
    located.crc_is(crc32c_update(whole, tail))?;
    let (body, stored) = unpack.into_inner();
    format::get_raw_body(&mut stored?.unwrap_or(body), n)
}

/// Copies time step `k` out of a window slab, dropping the time dim.
fn extract_step(
    data: &[f32],
    mask: &[bool],
    slab_shape: &[usize],
    time_axis: Option<usize>,
    k: usize,
) -> Result<ChunkData> {
    let Some(t) = time_axis else {
        if k != 0 {
            return Err(CdmsError::Invalid(format!("step {k} of a windowless slab")));
        }
        return Ok((data.to_vec(), mask.to_vec()));
    };
    let wlen = slab_shape.get(t).copied().unwrap_or(0);
    if k >= wlen {
        return Err(CdmsError::Invalid(format!("step {k} out of range for window of {wlen}")));
    }
    let pre: usize = slab_shape.get(..t).map(|s| s.iter().product()).unwrap_or(1);
    let post: usize = slab_shape.get(t + 1..).map(|s| s.iter().product()).unwrap_or(1);
    let mut out = Vec::with_capacity(pre * post);
    let mut out_mask = Vec::with_capacity(pre * post);
    for p in 0..pre {
        let src = (p * wlen + k) * post;
        let (Some(d), Some(m)) = (data.get(src..src + post), mask.get(src..src + post)) else {
            return Err(CdmsError::Format("window slab shorter than its shape".into()));
        };
        out.extend_from_slice(d);
        out_mask.extend_from_slice(m);
    }
    Ok((out, out_mask))
}

#[cfg(test)]
impl StreamingDataset {
    /// Dataset id from the header.
    pub(crate) fn id(&self) -> &str {
        &self.shared.meta.id
    }

    /// The decoded file metadata (axes, per-variable shapes, chunk map).
    pub(crate) fn meta(&self) -> &V3Meta {
        &self.shared.meta
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format_v3::V3Options;
    use crate::storage::{FaultyStorage, StorageFault, StorageFaultPlan};
    use crate::synth::SynthesisSpec;
    use crate::Dataset;

    /// A miss decoding into a buffer of its own, as a concurrent miss
    /// does.
    fn held_and_decoded(entry: &ChunkDirEntry, frame: &[u8], n: usize) -> Result<ChunkData> {
        held_and_decoded_into(entry, frame, n, &mut Vec::new())
    }

    fn write_sample(name: &str, opts: &V3Options) -> (Dataset, std::path::PathBuf) {
        let dir = std::env::temp_dir().join("cdms_stream_unit");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        let ds = SynthesisSpec::new(8, 2, 6, 10).seed(5).build();
        crate::storage::write_atomic(&LocalDisk, &path, &crate::format_v3::to_bytes_v3_with(&ds, opts).0)
            .unwrap();
        (ds, path)
    }

    #[test]
    fn streamed_frames_match_in_memory_slabs() {
        let opts = V3Options { window: 3, levels: 2, compress: true };
        let (ds, path) = write_sample("frames.ncr", &opts);
        let sd = StreamingDataset::open(&path).unwrap();
        assert_eq!(sd.id(), ds.id);
        for var in ds.variables() {
            let sv = sd.variable(&var.id).unwrap();
            if var.axis_index(AxisKind::Time).is_none() {
                // windowless variable: one "step" carrying the whole array
                let streamed = sv.time_slab(0).unwrap();
                assert_eq!(streamed.array, var.array, "var '{}'", var.id);
                assert_eq!(streamed.axes, var.axes);
                continue;
            }
            assert_eq!(sv.n_times(), var.n_times());
            for t in 0..sv.n_times() {
                let streamed = sv.time_slab(t).unwrap();
                let direct = var.time_slab(t).unwrap();
                assert_eq!(streamed.array, direct.array, "var '{}' t={t}", var.id);
                assert_eq!(streamed.axes, direct.axes);
            }
        }
        let report = sd.report();
        assert!(report.chunk_reads > 0);
        assert_eq!(report.failed_chunks, 0);
        assert_eq!(report.degraded + report.salvaged, 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn window_variables_match_in_memory_time_windows() {
        let opts = V3Options { window: 3, levels: 2, compress: true };
        let (ds, path) = write_sample("winvar.ncr", &opts);
        let sd = StreamingDataset::open(&path).unwrap();
        let ta = ds.variable("ta").unwrap();
        let sv = sd.variable("ta").unwrap();
        for w in 0..sv.n_windows() {
            let got = sv.window_variable(w).unwrap();
            let vi = sd.meta().var_index("ta").unwrap();
            let range = sd.meta().vars[vi].window_range(w);
            let want = ta.time_window(range).unwrap();
            assert_eq!(got.array, want.array, "window {w}");
            assert_eq!(got.axes, want.axes, "window {w}");
            // and the degraded path is identical on healthy storage
            assert_eq!(sv.window_variable_degraded(w).unwrap().array, want.array);
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn cache_budget_is_a_hard_ceiling() {
        let opts = V3Options { window: 1, levels: 1, compress: false };
        let (_, path) = write_sample("budget.ncr", &opts);
        // one window = 2*6*10 floats = 540 B decoded; budget of ~2 windows
        let sopts = StreamOptions {
            cache_bytes: 1200,
            ..StreamOptions::default()
        };
        let sd = StreamingDataset::open_with(Arc::new(LocalDisk), &path, sopts).unwrap();
        let sv = sd.variable("ta").unwrap();
        for t in 0..sv.n_times() {
            sv.time_slab(t).unwrap();
        }
        // revisit to force churn
        for t in (0..sv.n_times()).rev() {
            sv.time_slab(t).unwrap();
        }
        let report = sd.report();
        assert!(report.peak_cache_bytes <= 1200, "{report}");
        assert!(report.evictions > 0, "{report}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn transient_read_faults_retry_and_succeed() {
        let opts = V3Options { window: 2, levels: 2, compress: true };
        let (ds, path) = write_sample("transient.ncr", &opts);
        let meta = format_v3::read_meta_with(&LocalDisk, &path).unwrap();
        let entry = *meta.chunk(0, 0, 0).unwrap();
        let plan = StorageFaultPlan::none().inject_read(
            entry.offset..entry.offset + 1,
            StorageFault::Transient { times: 0 },
            2,
        );
        let faulty: Arc<dyn Storage> = Arc::new(FaultyStorage::new(plan));
        let sopts = StreamOptions {
            backoff_base_ms: 0,
            ..StreamOptions::default()
        };
        let sd = StreamingDataset::open_with(faulty, &path, sopts).unwrap();
        let vid = meta.vars.first().unwrap().id.clone();
        let sv = sd.variable(&vid).unwrap();
        let got = sv.time_slab(0).unwrap();
        assert_eq!(got.array, ds.variable(&vid).unwrap().time_slab(0).unwrap().array);
        let report = sd.report();
        assert_eq!(report.retried, 2, "{report}");
        assert_eq!(report.failed_chunks, 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn hard_fault_degrades_then_masks() {
        let opts = V3Options { window: 2, levels: 2, compress: true };
        let (ds, path) = write_sample("degrade.ncr", &opts);
        let meta = format_v3::read_meta_with(&LocalDisk, &path).unwrap();
        let vid = meta.vars.first().unwrap().id.clone();
        let e00 = *meta.chunk(0, 0, 0).unwrap();
        let e10 = *meta.chunk(0, 1, 0).unwrap();
        let e11 = *meta.chunk(0, 1, 1).unwrap();
        // window 0: level 0 dead, level 1 intact → degraded
        // window 1: both levels dead → masked
        let plan = StorageFaultPlan::none()
            .inject_read(e00.offset..e00.offset + 1, StorageFault::ReadError, 0)
            .inject_read(e10.offset..e10.offset + 1, StorageFault::ReadError, 0)
            .inject_read(e11.offset..e11.offset + 1, StorageFault::BitFlip { bit: 400 }, 0);
        let sopts = StreamOptions::default();
        let sd =
            StreamingDataset::open_with(Arc::new(FaultyStorage::new(plan)), &path, sopts).unwrap();
        let sv = sd.variable(&vid).unwrap();
        // strict access fails…
        assert!(sv.time_slab(0).is_err());
        // …degraded access always yields a frame
        let f0 = sv.time_slab_degraded(0).unwrap();
        assert!(f0.array.valid_count() > 0, "window 0 comes from the pyramid");
        let f2 = sv.time_slab_degraded(2).unwrap();
        assert_eq!(f2.array.valid_count(), 0, "window 1 is masked fill");
        // undamaged window is bit-exact
        let f4 = sv.time_slab_degraded(4).unwrap();
        assert_eq!(f4.array, ds.variable(&vid).unwrap().time_slab(4).unwrap().array);
        let report = sd.report();
        assert_eq!(report.degraded, 1, "{report}");
        assert_eq!(report.salvaged, 1, "{report}");
        assert_eq!(report.failed_chunks, 3, "{report}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn delayed_read_counts_deadline_miss() {
        let opts = V3Options { window: 2, levels: 1, compress: false };
        let (_, path) = write_sample("deadline.ncr", &opts);
        let meta = format_v3::read_meta_with(&LocalDisk, &path).unwrap();
        let entry = *meta.chunk(0, 0, 0).unwrap();
        let plan = StorageFaultPlan::none().inject_read(
            entry.offset..entry.offset + 1,
            StorageFault::DelayedRead { ms: 40 },
            1,
        );
        let sopts = StreamOptions {
            deadline_ms: Some(5),
            ..StreamOptions::default()
        };
        let sd =
            StreamingDataset::open_with(Arc::new(FaultyStorage::new(plan)), &path, sopts).unwrap();
        let vid = meta.vars.first().unwrap().id.clone();
        let sv = sd.variable(&vid).unwrap();
        sv.time_slab(0).unwrap(); // slow but correct
        sv.time_slab(2).unwrap(); // clean
        let report = sd.report();
        assert_eq!(report.deadline_missed, 1, "{report}");
        assert_eq!(report.failed_chunks, 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn bit_flip_in_an_rle_body_is_a_checksum_mismatch_and_never_a_frame() {
        let opts = V3Options { window: 2, levels: 2, compress: true };
        let (_, path) = write_sample("rle_flip.ncr", &opts);
        let meta = format_v3::read_meta_with(&LocalDisk, &path).unwrap();
        let vid = meta.vars.first().unwrap().id.clone();
        let e00 = *meta.chunk(0, 0, 0).unwrap();
        let frame = LocalDisk.read_at(&path, e00.offset, e00.frame_len()).unwrap();
        // frame head (9 bytes), chunk identity (12), then the codec byte
        assert_eq!(frame[9 + 12], format_v3::CODEC_RLE, "the premise: an RLE chunk");
        // a bit well inside the PackBits body, flipped on every read
        let in_body = 8 * (9 + 21 + 40) + 3;
        let session = |fault| {
            let plan =
                StorageFaultPlan::none().inject_read(e00.offset..e00.offset + 1, fault, 0);
            let sd = StreamingDataset::open_with(
                Arc::new(FaultyStorage::new(plan)),
                &path,
                StreamOptions::default(),
            )
            .unwrap();
            (sd.variable(&vid).unwrap(), sd)
        };
        let (sv, sd) = session(StorageFault::BitFlip { bit: in_body });
        // the decode ran beside the CRC; what it made of the damaged bytes
        // is not what the caller hears about
        let first = sv.time_slab(0).unwrap_err();
        assert_eq!(
            first.to_string(),
            format!("format error: Chunk section at byte {}: checksum mismatch", e00.offset)
        );
        // negative-cached, once
        let second = sv.time_slab(0).unwrap_err();
        assert!(second.to_string().contains("previously failed permanently"), "{second}");
        assert_eq!(sd.report().failed_chunks, 1);
        assert_eq!(sd.report().chunk_reads, 0, "a chunk that failed is not a chunk read");
        // the frame served instead is the pyramid's — the very frame a
        // session serves whose level-0 chunk cannot be read at all
        let served = sv.time_slab_degraded(0).unwrap();
        let (dead, _) = session(StorageFault::ReadError);
        assert_eq!(served.array, dead.time_slab_degraded(0).unwrap().array);
        assert!(served.array.valid_count() > 0);
        let report = sd.report();
        assert_eq!((report.degraded, report.salvaged, report.failed_chunks), (1, 0, 1), "{report}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn valid_crc_with_the_wrong_identity_is_a_decode_error() {
        let opts = V3Options { window: 2, levels: 1, compress: true };
        let (_, path) = write_sample("identity.ncr", &opts);
        let meta = format_v3::read_meta_with(&LocalDisk, &path).unwrap();
        let e1 = *meta.chunk(0, 1, 0).unwrap();
        let n = meta.vars[0].level_volume(1, 0).unwrap();
        let mut frame = LocalDisk.read_at(&path, e1.offset, e1.frame_len()).unwrap();
        assert!(held_and_decoded(&e1, &frame, n).is_ok());
        // window 1's frame, intact, under a directory entry that says
        // window 0: structure and checksum hold, the identity does not
        let lying = ChunkDirEntry { window: 0, ..e1 };
        let err = held_and_decoded(&lying, &frame, n).unwrap_err();
        assert_eq!(
            err.to_string(),
            "format error: chunk identity (0,1,0) != expected (0, 0, 0)"
        );
        // and a damaged body outranks it: structure → checksum → decode
        frame[9 + 21 + 40] ^= 0x08;
        let err = held_and_decoded(&lying, &frame, n).unwrap_err();
        assert!(err.to_string().ends_with("checksum mismatch"), "{err}");
        // while a damaged stored CRC is a structure error before either
        let last = frame.len() - 1;
        frame[last] ^= 0x01;
        let err = held_and_decoded(&lying, &frame, n).unwrap_err();
        assert!(err.to_string().ends_with("disagrees with its directory entry"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    /// The miss as it was before it was split evenly across both cores,
    /// kept verbatim as the oracle of the one that replaced it: a serial
    /// PackBits decode into a fresh buffer, a serial float conversion and
    /// bool-mask expansion, with the CRC and that decode as the two arms
    /// of one region.
    mod oracle {
        use crate::container::{get_u32, get_u64, get_u8, take_bytes};
        use crate::error::{CdmsError, Result};
        use crate::format::{self, get_mask};
        use crate::format_v3::{ChunkData, ChunkDirEntry, CODEC_RAW, CODEC_RLE};
        use rayon::prelude::*;

        /// Decodes PackBits, requiring exactly `expected_len` output bytes.
        pub(crate) fn packbits_decode(input: &[u8], expected_len: usize) -> Result<Vec<u8>> {
            let mut out = Vec::with_capacity(expected_len);
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
            Ok(out)
        }

        pub(crate) fn get_raw_body(buf: &mut &[u8], n: usize) -> Result<(Vec<f32>, Vec<bool>)> {
            let float_bytes = n
                .checked_mul(4)
                .ok_or_else(|| CdmsError::Format(format!("implausible element count {n}")))?;
            // `take_bytes` proves the bytes are present before anything is sized
            // by `n`; chunk-wise conversion is what the compiler vectorizes
            let floats = take_bytes(buf, float_bytes)?;
            let data = floats.chunks_exact(4).map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]));
            Ok((data.collect(), get_mask(buf, n)?))
        }

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
            let unpacked;
            let mut body: &[u8] = match codec {
                CODEC_RAW => buf,
                CODEC_RLE => {
                    unpacked = packbits_decode(buf, raw_len)?;
                    &unpacked
                }
                c => return Err(CdmsError::Format(format!("unknown chunk codec {c}"))),
            };
            if body.len() != raw_len {
                return Err(CdmsError::Format(format!(
                    "chunk body is {} bytes, expected {raw_len}",
                    body.len()
                )));
            }
            get_raw_body(&mut body, n)
        }

        pub(crate) fn held_and_decoded(entry: &ChunkDirEntry, frame: &[u8], n: usize) -> Result<ChunkData> {
            let located = entry.located();
            let payload = located.structure(frame)?;
            let identity = (entry.var, entry.window, entry.level);
            let mut checked = Ok(());
            let mut decoded = Err(CdmsError::Format("chunk decode did not run".into()));
            let mut arms: [&mut (dyn FnMut() + Send); 2] = [
                &mut || checked = located.checksum(payload),
                &mut || decoded = decode_chunk_payload(payload, identity, n),
            ];
            arms.par_iter_mut().for_each(|arm| arm());
            checked.and(decoded)
        }
    }

    /// A (time, lat, lon) field of `nt` steps written as v3: zero runs
    /// between stretches of noise, so that PackBits wins where `compress`
    /// asks for it, and about one element in eight masked.
    fn field_file(name: &str, (nt, nlat, nlon): (usize, usize, usize), opts: &V3Options) -> PathBuf {
        use crate::axis::Axis;
        use crate::calendar::Calendar;
        let time = (0..nt).map(|t| t as f64).collect();
        let axes = vec![
            Axis::time(time, "days since 2000-01-01", Calendar::NoLeap365).unwrap(),
            Axis::latitude((0..nlat).map(|j| -80.0 + 160.0 * j as f64 / nlat as f64).collect())
                .unwrap(),
            Axis::longitude((0..nlon).map(|i| 360.0 * i as f64 / nlon as f64).collect()).unwrap(),
        ];
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        let (data, mask): (Vec<f32>, Vec<bool>) = (0..nt * nlat * nlon)
            .map(|i| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let v = if (i / 97) % 3 == 0 { (x >> 40) as f32 / 1e3 } else { 0.0 };
                (v, x >> 61 == 0)
            })
            .unzip();
        let array = MaskedArray::with_mask(data, mask, &[nt, nlat, nlon]).unwrap();
        let mut ds = Dataset::new("field");
        ds.add_variable(Variable::new("f", array, axes).unwrap());
        let dir = std::env::temp_dir().join("cdms_stream_unit");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        let bytes = crate::format_v3::to_bytes_v3_with(&ds, opts).0;
        crate::storage::write_atomic(&LocalDisk, &path, &bytes).unwrap();
        path
    }

    /// Every chunk of a file: its directory entry, frame and element count.
    fn chunks_of(path: &Path) -> Vec<(ChunkDirEntry, Vec<u8>, usize)> {
        let meta = format_v3::read_meta_with(&LocalDisk, path).unwrap();
        let var = &meta.vars[0];
        let mut out = Vec::new();
        for w in 0..var.n_windows() {
            for level in 0..var.levels {
                let e = *meta.chunk(0, w, level).unwrap();
                let frame = LocalDisk.read_at(path, e.offset, e.frame_len()).unwrap();
                out.push((e, frame, var.level_volume(w, level).unwrap()));
            }
        }
        out
    }

    fn bits(decoded: &ChunkData) -> (Vec<u32>, &[bool]) {
        (decoded.0.iter().map(|v| v.to_bits()).collect(), &decoded.1)
    }

    #[test]
    fn the_split_miss_is_the_serial_miss_bit_for_bit() {
        let (mut residues, mut codecs) = (BTreeSet::new(), BTreeSet::new());
        let (mut small, mut multi_chunk, mut multi_block) = (false, false, false);
        let mut body = Vec::new();
        let shapes = [(7, 13, 11), (7, 9, 17), (7, 16, 10), (7, 91, 97)];
        for (k, shape) in shapes.into_iter().enumerate() {
            for compress in [false, true] {
                let opts = V3Options { window: 3, levels: 3, compress };
                let path = field_file(&format!("split_{k}_{compress}.ncr"), shape, &opts);
                for (e, frame, n) in chunks_of(&path) {
                    let want = oracle::held_and_decoded(&e, &frame, n).unwrap();
                    for threads in [1, 2, 8] {
                        let got = rayon::with_threads(threads, || {
                            held_and_decoded_into(&e, &frame, n, &mut body).unwrap()
                        });
                        assert_eq!(bits(&got), bits(&want), "{shape:?} {e:?}, {threads} threads");
                    }
                    residues.insert(n % 8);
                    codecs.insert(frame[9 + 12]);
                    small |= n < format::CONVERT_CHUNK;
                    multi_chunk |= n > format::CONVERT_CHUNK;
                    multi_block |= e.len as usize > 2 * CRC_BLOCK;
                }
                std::fs::remove_file(&path).ok();
            }
        }
        assert_eq!(residues, (0..8).collect(), "every n % 8");
        assert_eq!(codecs, [format_v3::CODEC_RAW, format_v3::CODEC_RLE].into(), "both codecs");
        assert!(small && multi_chunk && multi_block, "{small} {multi_chunk} {multi_block}");
    }

    #[test]
    fn a_flipped_bit_in_any_crc_block_or_the_tail_is_the_checksum_mismatch() {
        // a raw chunk of 50 000 elements: four whole blocks and a tail
        for compress in [false, true] {
            let opts = V3Options { window: 4, levels: 1, compress };
            let path = field_file(&format!("flip_{compress}.ncr"), (4, 100, 125), &opts);
            let (e, frame, n) = chunks_of(&path).remove(0);
            let blocks = e.len as usize / CRC_BLOCK;
            assert!(blocks >= if compress { 1 } else { 4 }, "{blocks} blocks");
            let mut places = vec![5, blocks / 2 * CRC_BLOCK + 77, (blocks - 1) * CRC_BLOCK + 4000];
            places.push(blocks * CRC_BLOCK + (e.len as usize - blocks * CRC_BLOCK) / 2);
            let mismatch =
                format!("format error: Chunk section at byte {}: checksum mismatch", e.offset);
            for at in places {
                let mut damaged = frame.clone();
                damaged[9 + at] ^= 0x10;
                let want = oracle::held_and_decoded(&e, &damaged, n).unwrap_err();
                assert_eq!(want.to_string(), mismatch);
                for threads in [1, 2, 8] {
                    let got = rayon::with_threads(threads, || {
                        held_and_decoded_into(&e, &damaged, n, &mut Vec::new()).unwrap_err()
                    });
                    assert_eq!(got.to_string(), mismatch, "payload byte {at}, {threads} threads");
                }
            }
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn a_session_keeps_one_body_buffer_no_larger_than_a_level0_body() {
        // windows of 3, 3 and 1 steps at three levels, PackBits throughout
        let opts = V3Options { window: 3, levels: 3, compress: true };
        let path = field_file("ceiling.ncr", (7, 45, 61), &opts);
        let chunks = chunks_of(&path);
        assert!(chunks.iter().all(|(_, frame, _)| frame[9 + 12] == format_v3::CODEC_RLE));
        let sd = StreamingDataset::open(&path).unwrap();
        let sv = sd.variable("f").unwrap();
        let var = &sd.meta().vars[0];
        for window in 0..var.n_windows() {
            for level in 0..var.levels {
                sv.fetch_chunk(ChunkKey { var: 0, window, level }).unwrap();
            }
        }
        let largest = (0..var.n_windows())
            .map(|w| format::raw_body_size(var.level_volume(w, 0).unwrap()).unwrap())
            .max()
            .unwrap();
        let held = sd.shared.body.lock().capacity();
        assert!(held > 0 && held <= largest, "{held} B held, largest level-0 body {largest} B");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_chunk_inserted_twice_evicts_nothing() {
        let chunk = || Arc::new((vec![0.0f32; 2], vec![false; 2]));
        let key = |window| ChunkKey { var: 0, window, level: 0 };
        let mut cache = ChunkCache::new(20);
        cache.insert(key(0), chunk(), 10);
        cache.insert(key(1), chunk(), 10);
        // window 1 is now the least recently used: a second insert of
        // window 0, as when two threads miss it at once, must not evict it
        assert!(cache.get(&key(0)).is_some());
        cache.insert(key(0), chunk(), 10);
        assert_eq!(cache.evictions, 0);
        assert_eq!(cache.bytes, 20);
        assert!(cache.get(&key(1)).is_some(), "the neighbour stays resident");
    }

    #[test]
    fn open_rejects_v2_files() {
        let dir = std::env::temp_dir().join("cdms_stream_unit");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("v2.ncr");
        let ds = SynthesisSpec::new(2, 1, 4, 4).seed(1).build();
        // a file of format version 2, which earlier builds wrote
        let mut bytes = crate::format::to_bytes(&ds);
        bytes[4] = 2;
        std::fs::write(&path, bytes).unwrap();
        let err = StreamingDataset::open(&path).unwrap_err();
        assert!(err.to_string().contains("unsupported version 2"), "{err}");
        std::fs::remove_file(&path).ok();
    }
}
