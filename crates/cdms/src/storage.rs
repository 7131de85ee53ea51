//! Crash-safe storage backends for `.ncr` persistence.
//!
//! Every byte `cdms` puts on disk goes through this module (machine-checked
//! by clippy: `crates/cdms/clippy.toml` disallows the raw writes, and
//! `LocalDisk::write_all` alone expects them). It provides:
//!
//! * [`crc32c`] — the Castagnoli CRC used by `.ncr` section checksums
//!   (software table-driven; no dependencies).
//! * [`Storage`] — the primitive-operation trait the atomic writer is built
//!   from (`read` / `write_all` / `sync` / `len` / `rename` / `remove`).
//! * [`LocalDisk`] — the real filesystem.
//! * [`FaultyStorage`] — a deterministic fault-injecting wrapper mirroring
//!   `hyperwall::fault::FaultPlan` semantics: short writes, torn writes at
//!   byte *k*, bit flips, ENOSPC, EINTR-style transient errors and scripted
//!   crashes, addressed by primitive-operation index.
//! * `write_atomic` — temp file + fsync + length + read-back comparison +
//!   atomic rename. After a crash at *any* primitive step the destination
//!   path holds either the complete old file or the complete new file,
//!   never a hybrid (the crash-safety tests enumerate every step).
//!
//! Transient errors ([`CdmsError::TransientIo`]) are retried up to
//! [`TRANSIENT_RETRIES`] times per primitive before giving up.

use crate::error::{CdmsError, Result};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

// ---- CRC32C (Castagnoli), reflected polynomial 0x82F63B78 ----
//
// Slicing-by-16: sixteen 256-entry tables let the hot loop fold 16 input
// bytes per iteration with independent lookups instead of a bytewise
// dependency chain. On a single-core box this is the difference between
// the checksums costing ~4x a whole unchecksummed encode and costing a
// few percent of it.

const fn crc32c_tables() -> [[u32; 256]; 16] {
    let mut tables = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ 0x82F6_3B78 } else { crc >> 1 };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    // tables[k][b] = crc of byte b followed by k zero bytes
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

static CRC32C_TABLES: [[u32; 256]; 16] = crc32c_tables();

/// Bytes in each of a block's three interleaved streams.
const CRC_STREAM: usize = 16 * 1024;

/// Bytes of one CRC block: three 16 KiB streams walked in one interleaved
/// slicing-by-16 loop, so that their three dependency chains overlap and
/// hide the table-lookup latency a single chain serializes on. Every buffer
/// is CRC'd as whole blocks, each folded on with [`crc32c_join`], then a
/// serial tail; the streamer runs the blocks of a chunk on both cores.
pub(crate) const CRC_BLOCK: usize = 3 * CRC_STREAM;

/// The zero-byte shift operators that stitch a block's streams together
/// and blocks onto each other, built at compile time: applying one costs a
/// GF(2) matrix–vector product, where building one at run time costs
/// ≈ 19 µs.
static SHIFT_STREAM: [u32; 32] = shift_operator(CRC_STREAM as u64);
static SHIFT_BLOCK: [u32; 32] = shift_operator(CRC_BLOCK as u64);

/// CRC32C (Castagnoli) of `bytes` — the checksum guarding every `.ncr`
/// section.
pub fn crc32c(bytes: &[u8]) -> u32 {
    crc32c_update(0, bytes)
}

/// Continues a CRC32C computation: `crc32c_update(crc32c(a), b)` equals
/// `crc32c` of `a` and `b` concatenated.
pub(crate) fn crc32c_update(seed: u32, bytes: &[u8]) -> u32 {
    let (blocks, tail) = bytes.as_chunks::<CRC_BLOCK>();
    let crc = blocks.iter().fold(seed, |crc, block| crc32c_join(crc, crc32c_block(block)));
    crc32c_serial(crc, tail)
}

/// CRC32C of one block, as three interleaved streams whose finalized CRCs
/// are stitched back into one (zlib's `crc32_combine`):
/// `crc(x ++ y) = shift(crc(x), y.len()) ^ crc(y)`.
pub(crate) fn crc32c_block(block: &[u8; CRC_BLOCK]) -> u32 {
    let t = &CRC32C_TABLES;
    let (a, bc) = block.as_chunks::<16>().0.split_at(CRC_STREAM / 16);
    let (b, c) = bc.split_at(CRC_STREAM / 16);
    let (mut ca, mut cb, mut cc) = (!0u32, !0u32, !0u32);
    for ((x, y), z) in a.iter().zip(b).zip(c) {
        ca = fold16(t, ca, x);
        cb = fold16(t, cb, y);
        cc = fold16(t, cc, z);
    }
    let ab = gf2_times(&SHIFT_STREAM, !ca) ^ !cb;
    gf2_times(&SHIFT_STREAM, ab) ^ !cc
}

/// Continues the CRC32C `crc` across one block whose own CRC32C is
/// `block_crc` — the same stitch, one block long.
pub(crate) fn crc32c_join(crc: u32, block_crc: u32) -> u32 {
    gf2_times(&SHIFT_BLOCK, crc) ^ block_crc
}

/// One slicing-by-16 fold: absorbs a 16-byte block into `crc`.
#[inline(always)]
fn fold16(t: &[[u32; 256]; 16], crc: u32, c: &[u8; 16]) -> u32 {
    let lo = u32::from_le_bytes([c[0], c[1], c[2], c[3]]) ^ crc;
    t[15][(lo & 0xFF) as usize]
        ^ t[14][((lo >> 8) & 0xFF) as usize]
        ^ t[13][((lo >> 16) & 0xFF) as usize]
        ^ t[12][(lo >> 24) as usize]
        ^ t[11][c[4] as usize]
        ^ t[10][c[5] as usize]
        ^ t[9][c[6] as usize]
        ^ t[8][c[7] as usize]
        ^ t[7][c[8] as usize]
        ^ t[6][c[9] as usize]
        ^ t[5][c[10] as usize]
        ^ t[4][c[11] as usize]
        ^ t[3][c[12] as usize]
        ^ t[2][c[13] as usize]
        ^ t[1][c[14] as usize]
        ^ t[0][c[15] as usize]
}

/// Single-stream slicing-by-16 (small buffers and the tail after the
/// blocks).
fn crc32c_serial(seed: u32, bytes: &[u8]) -> u32 {
    let t = &CRC32C_TABLES;
    let (chunks, rest) = bytes.as_chunks::<16>();
    let mut crc = chunks.iter().fold(!seed, |crc, c| fold16(t, crc, c));
    for &b in rest {
        crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

/// GF(2) matrix × vector product (zlib's `gf2_matrix_times` idiom).
const fn gf2_times(mat: &[u32; 32], vec: u32) -> u32 {
    let mut sum = 0;
    let mut i = 0;
    while i < 32 {
        // every row, without a branch on the bit: the bit picks the row
        sum ^= mat[i] & 0u32.wrapping_sub((vec >> i) & 1);
        i += 1;
    }
    sum
}

const fn gf2_square(square: &mut [u32; 32], mat: &[u32; 32]) {
    let mut n = 0;
    while n < 32 {
        square[n] = gf2_times(mat, mat[n]);
        n += 1;
    }
}

/// Advances `crc` (a finalized CRC32C of some prefix) across `len` zero
/// bytes: `crc32c_shift(crc32c(a), b.len()) ^ crc32c(b)` equals
/// `crc32c(a ++ b)` up to the shared pre/post inversion handled by the
/// caller. This is zlib's `crc32_combine` with the Castagnoli polynomial.
/// It builds its squared operators as it goes, so it runs only at compile
/// time, in [`shift_operator`].
const fn crc32c_shift(mut crc: u32, mut len: u64) -> u32 {
    if len == 0 {
        return crc;
    }
    // odd = shift-by-one-bit operator for the reflected polynomial
    let mut odd = [0u32; 32];
    odd[0] = 0x82F6_3B78;
    let mut row = 1u32;
    let mut i = 1;
    while i < 32 {
        odd[i] = row;
        row <<= 1;
        i += 1;
    }
    let mut even = [0u32; 32];
    gf2_square(&mut even, &odd); // shift by two bits
    gf2_square(&mut odd, &even); // shift by four bits
    loop {
        // apply len.bit() worth of byte shifts, squaring as we go
        gf2_square(&mut even, &odd);
        if len & 1 != 0 {
            crc = gf2_times(&even, crc);
        }
        len >>= 1;
        if len == 0 {
            break;
        }
        gf2_square(&mut odd, &even);
        if len & 1 != 0 {
            crc = gf2_times(&odd, crc);
        }
        len >>= 1;
        if len == 0 {
            break;
        }
    }
    crc
}

/// The matrix of the shift across `len` zero bytes: the shift is linear in
/// the CRC, so row `i` is where it takes the CRC `1 << i`.
const fn shift_operator(len: u64) -> [u32; 32] {
    let mut op = [0u32; 32];
    let mut i = 0;
    while i < 32 {
        op[i] = crc32c_shift(1 << i, len);
        i += 1;
    }
    op
}

// ---- the storage primitive trait ----

/// The primitive filesystem operations the `.ncr` persistence layer is
/// built from. Keeping the surface this small lets [`FaultyStorage`]
/// misbehave at every individual step of `write_atomic`, so crash-safety
/// is testable as an enumeration rather than a hope.
pub trait Storage: Send + Sync {
    /// Reads a whole file.
    fn read(&self, path: &Path) -> Result<Vec<u8>>;
    /// Ranged read: up to `len` bytes starting at byte `offset`. A read
    /// past EOF returns the bytes that exist (possibly empty) — callers
    /// that know the exact extent they asked for treat a short result as
    /// corruption, the same way they treat a failed checksum. This is the
    /// primitive the out-of-core `.ncr` v3 streaming layer is built on:
    /// one chunk frame per call, never the whole file.
    fn read_at(&self, path: &Path, offset: u64, len: usize) -> Result<Vec<u8>>;
    /// Creates/truncates `path` and writes `bytes` in full.
    fn write_all(&self, path: &Path, bytes: &[u8]) -> Result<()>;
    /// Flushes file content to stable storage (`fsync`).
    fn sync(&self, path: &Path) -> Result<()>;
    /// Flushes a *directory* to stable storage. POSIX makes the rename in
    /// `write_atomic` atomic but not durable: until the parent directory
    /// is fsynced, a power loss can roll the directory entry back to the
    /// old file. Called on the destination's parent after every rename.
    fn sync_dir(&self, dir: &Path) -> Result<()>;
    /// Size of the file in bytes.
    fn len(&self, path: &Path) -> Result<u64>;
    /// Atomically renames `from` onto `to` (same directory).
    fn rename(&self, from: &Path, to: &Path) -> Result<()>;
    /// Removes a file (used for temp-file cleanup; best-effort callers
    /// ignore the result).
    fn remove(&self, path: &Path) -> Result<()>;
}

/// The real local filesystem.
#[derive(Debug, Clone, Copy, Default)]
pub struct LocalDisk;

impl Storage for LocalDisk {
    fn read(&self, path: &Path) -> Result<Vec<u8>> {
        Ok(std::fs::read(path)?)
    }

    fn read_at(&self, path: &Path, offset: u64, len: usize) -> Result<Vec<u8>> {
        use std::io::{Read, Seek, SeekFrom};
        let mut f = std::fs::File::open(path)?;
        f.seek(SeekFrom::Start(offset))?;
        // read into capacity, not over zeros: `read_to_end` stops at EOF
        // (the short prefix) and retries `Interrupted` itself
        let mut buf = Vec::with_capacity(len);
        f.take(len as u64).read_to_end(&mut buf)?;
        Ok(buf)
    }

    #[expect(
        clippy::disallowed_methods,
        reason = "the raw write under `write_atomic`, which writes a temporary and renames it"
    )]
    fn write_all(&self, path: &Path, bytes: &[u8]) -> Result<()> {
        Ok(std::fs::write(path, bytes)?)
    }

    fn sync(&self, path: &Path) -> Result<()> {
        parking_lot::assert_unlocked("an fsync");
        Ok(std::fs::File::open(path)?.sync_all()?)
    }

    fn sync_dir(&self, dir: &Path) -> Result<()> {
        let dir = if dir.as_os_str().is_empty() { Path::new(".") } else { dir };
        parking_lot::assert_unlocked("a directory fsync");
        Ok(std::fs::File::open(dir)?.sync_all()?)
    }

    fn len(&self, path: &Path) -> Result<u64> {
        Ok(std::fs::metadata(path)?.len())
    }

    fn rename(&self, from: &Path, to: &Path) -> Result<()> {
        Ok(std::fs::rename(from, to)?)
    }

    fn remove(&self, path: &Path) -> Result<()> {
        Ok(std::fs::remove_file(path)?)
    }
}

// ---- the atomic writer ----

/// How many times a transient ([`CdmsError::TransientIo`]) primitive
/// failure is retried inside `write_atomic` before it is reported.
pub const TRANSIENT_RETRIES: u32 = 3;

static TEMP_COUNTER: AtomicU64 = AtomicU64::new(0);

/// A unique temp-file sibling of `path` (same directory, so the final
/// rename cannot cross filesystems).
fn temp_sibling(path: &Path) -> PathBuf {
    let n = TEMP_COUNTER.fetch_add(1, Ordering::Relaxed);
    let name = path.file_name().map(|f| f.to_string_lossy().into_owned()).unwrap_or_default();
    path.with_file_name(format!("{name}.tmp.{}.{n}", std::process::id()))
}

fn retry_transient<T>(mut op: impl FnMut() -> Result<T>) -> Result<T> {
    let mut last = CdmsError::TransientIo("retry budget exhausted".into());
    for _ in 0..=TRANSIENT_RETRIES {
        match op() {
            Err(e) if e.is_transient() => last = e,
            other => return other,
        }
    }
    Err(last)
}

/// Writes `bytes` to `path` crash-safely: temp file in the same directory,
/// fsync, length + read-back comparison, an atomic rename, then an
/// fsync of the parent directory so the rename itself is durable (without
/// it a power loss can roll the directory entry back to the old file).
///
/// The guarantee (enumerated by the crash-safety tests): whatever primitive
/// step fails — torn write, short write, bit flip, ENOSPC, scripted crash —
/// `path` afterwards holds either its complete previous content or the
/// complete new content. Transient errors are retried per primitive. A
/// failure of the final directory sync is reported as an error even though
/// the rename has already landed: the caller must treat the publish as
/// not-yet-durable, but the destination still parses as exactly one of the
/// two complete states.
pub(crate) fn write_atomic(storage: &dyn Storage, path: &Path, bytes: &[u8]) -> Result<()> {
    let tmp = temp_sibling(path);
    let result = write_atomic_steps(storage, &tmp, path, bytes);
    if result.is_err() {
        // Best effort: a dangling temp file is harmless (never scanned as
        // `.ncr`), but tidy up when the backend still responds.
        storage.remove(&tmp).ok();
    }
    result
}

fn write_atomic_steps(storage: &dyn Storage, tmp: &Path, path: &Path, bytes: &[u8]) -> Result<()> {
    retry_transient(|| storage.write_all(tmp, bytes))?;
    retry_transient(|| storage.sync(tmp))?;
    let on_disk = retry_transient(|| storage.len(tmp))?;
    if on_disk != bytes.len() as u64 {
        return Err(CdmsError::Io(format!(
            "short write: {on_disk} of {} bytes reached {}",
            bytes.len(),
            tmp.display()
        )));
    }
    // Read-back verification catches silent corruption between the buffer
    // and the media (bit flips, lying writes) before the rename publishes
    // anything. Equality misses no difference, where two checksums could
    // collide.
    let readback = retry_transient(|| storage.read(tmp))?;
    if readback != bytes {
        return Err(CdmsError::Io(format!(
            "write verification failed: read-back differs from the buffer on {}",
            tmp.display()
        )));
    }
    retry_transient(|| storage.rename(tmp, path))?;
    // Durability barrier for the rename itself: fsync the parent directory
    // entry. Paths with no named parent live in the current directory.
    let parent = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p,
        _ => Path::new("."),
    };
    retry_transient(|| storage.sync_dir(parent))?;
    Ok(())
}

// ---- deterministic fault injection ----

/// One scripted misbehaviour of the storage substrate, fired at a specific
/// primitive-operation index (the storage-layer analogue of a field of
/// `hyperwall::fault::ClientFaults`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StorageFault {
    /// `write_all` persists only the first `keep` bytes but reports
    /// success — a lying lower layer. Caught by the length verification.
    ShortWrite { keep: usize },
    /// The process "dies" `at` bytes into a write: the prefix reaches disk
    /// and the operation (and every later one) fails.
    TornWrite { at: usize },
    /// One bit of the payload flips between buffer and media (silent
    /// corruption). Caught by the read-back comparison; on a read, the
    /// returned bytes are corrupted instead.
    BitFlip { bit: u64 },
    /// The disk fills mid-operation (half the payload lands, then ENOSPC).
    Enospc,
    /// EINTR-style flakiness: this and the next `times - 1` primitive
    /// calls fail transiently, then the backend recovers.
    Transient { times: u32 },
    /// The process dies before the operation runs at all.
    CrashBefore,
    /// A read completes only after `ms` milliseconds — a contended or
    /// spinning-up disk. The data that eventually arrives is correct;
    /// deadline-aware readers count the miss and move on.
    DelayedRead { ms: u64 },
    /// A read returns only the first `keep` bytes of what was asked for —
    /// a torn page or truncated object. Callers treat the short result
    /// like a checksum failure.
    ShortRead { keep: usize },
    /// A hard, non-transient read failure (media error). Retrying does not
    /// help; streaming readers degrade to a coarser pyramid level instead.
    ReadError,
}

/// One scripted read-side fault, addressed by the *byte offset* of a
/// [`Storage::read_at`] call instead of a primitive-operation index. This
/// is what lets a fault storm target one specific `.ncr` v3 chunk — the
/// chunk's frame offset is known from the file layout — deterministically,
/// regardless of how many unrelated reads come first.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct ReadFault {
    /// `read_at` calls whose starting offset falls in this range trigger
    /// the fault.
    pub offsets: Range<u64>,
    /// What happens. Read-meaningful kinds: [`StorageFault::DelayedRead`],
    /// [`StorageFault::ShortRead`], [`StorageFault::ReadError`],
    /// [`StorageFault::BitFlip`], [`StorageFault::Transient`] (whose inner
    /// `times` is ignored here — `times` below is the budget).
    pub fault: StorageFault,
    /// How many matching reads fire the fault; 0 means every one, forever.
    pub times: u32,
}

/// A scripted failure scenario for a storage backend: primitive-operation
/// index → fault, plus offset-addressed read faults. Plain data, chainable,
/// deterministic — the same plan always produces the same failure, so
/// crash-safety tests are ordinary unit tests, not flaky chaos runs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StorageFaultPlan {
    per_op: BTreeMap<u64, StorageFault>,
    reads: Vec<ReadFault>,
}

impl StorageFaultPlan {
    /// The empty plan: the backend behaves.
    pub fn none() -> StorageFaultPlan {
        StorageFaultPlan::default()
    }

    /// Scripts `fault` to fire on the `op`-th primitive call (0-based,
    /// counted across all primitives). Chainable.
    pub fn inject(mut self, op: u64, fault: StorageFault) -> StorageFaultPlan {
        self.per_op.insert(op, fault);
        self
    }

    /// Scripts `fault` to fire on the first `times` [`Storage::read_at`]
    /// calls whose starting offset falls in `offsets` (`times == 0`: every
    /// matching call). Chainable; earlier entries win on overlap.
    pub fn inject_read(
        mut self,
        offsets: Range<u64>,
        fault: StorageFault,
        times: u32,
    ) -> StorageFaultPlan {
        self.reads.push(ReadFault { offsets, fault, times });
        self
    }

    /// The fault scripted for `op`, if any.
    pub(crate) fn at(&self, op: u64) -> Option<&StorageFault> {
        self.per_op.get(&op)
    }

    /// The scripted read faults, in priority order.
    pub(crate) fn read_faults(&self) -> &[ReadFault] {
        &self.reads
    }
}

/// A [`Storage`] wrapper that misbehaves exactly as its
/// [`StorageFaultPlan`] scripts. Once a crash fault fires the backend is
/// "dead": every further operation fails, like talking to a kernel that is
/// no longer there.
pub struct FaultyStorage {
    inner: LocalDisk,
    plan: StorageFaultPlan,
    op: AtomicU64,
    crashed: AtomicBool,
    transient_left: Mutex<u32>,
    /// Remaining fire budget per scripted read fault (`u32::MAX` = forever).
    read_budgets: Mutex<Vec<u32>>,
}

impl FaultyStorage {
    /// Wraps the local filesystem with a fault script.
    pub fn new(plan: StorageFaultPlan) -> FaultyStorage {
        let budgets = plan
            .read_faults()
            .iter()
            .map(|r| if r.times == 0 { u32::MAX } else { r.times })
            .collect();
        FaultyStorage {
            inner: LocalDisk,
            plan,
            op: AtomicU64::new(0),
            crashed: AtomicBool::new(false),
            transient_left: Mutex::new(0),
            read_budgets: Mutex::new(budgets),
        }
    }

    /// Pops the read fault scripted for a `read_at` call at `offset`, if
    /// one is armed, decrementing its budget.
    fn read_fault_at(&self, offset: u64) -> Option<StorageFault> {
        let mut budgets = self.read_budgets.lock();
        for (i, rf) in self.plan.read_faults().iter().enumerate() {
            if !rf.offsets.contains(&offset) {
                continue;
            }
            let left = budgets.get_mut(i)?;
            if *left == 0 {
                continue;
            }
            if *left != u32::MAX {
                *left -= 1;
            }
            return Some(rf.fault.clone());
        }
        None
    }

    /// Primitive operations issued so far.
    pub(crate) fn ops(&self) -> u64 {
        self.op.load(Ordering::SeqCst)
    }

    /// True once a scripted crash has fired.
    pub(crate) fn crashed(&self) -> bool {
        self.crashed.load(Ordering::SeqCst)
    }

    /// Marks the backend dead and returns the crash error — a torn-write
    /// fault landing on a non-write primitive still means the process died
    /// at that step.
    fn crash_now(&self) -> CdmsError {
        self.crashed.store(true, Ordering::SeqCst);
        CdmsError::Io("process died mid-operation (injected)".into())
    }

    /// Runs the pre-operation part of the fault script. Returns the fault
    /// scheduled for this op (already handled when it yields an error).
    fn gate(&self) -> Result<Option<StorageFault>> {
        if self.crashed() {
            return Err(CdmsError::Io("storage backend crashed (injected)".into()));
        }
        {
            let mut left = self.transient_left.lock();
            if *left > 0 {
                *left -= 1;
                self.op.fetch_add(1, Ordering::SeqCst);
                return Err(CdmsError::TransientIo("interrupted (injected EINTR)".into()));
            }
        }
        let op = self.op.fetch_add(1, Ordering::SeqCst);
        match self.plan.at(op) {
            None => Ok(None),
            Some(StorageFault::CrashBefore) => {
                self.crashed.store(true, Ordering::SeqCst);
                Err(CdmsError::Io("process died before operation (injected)".into()))
            }
            Some(StorageFault::Transient { times }) => {
                // this call fails; `times - 1` successors fail too
                *self.transient_left.lock() = times.saturating_sub(1);
                Err(CdmsError::TransientIo("interrupted (injected EINTR)".into()))
            }
            Some(StorageFault::DelayedRead { ms }) => {
                // a slow primitive, not a failed one: stall, then behave
                parking_lot::assert_unlocked("an injected slow primitive");
                std::thread::sleep(std::time::Duration::from_millis(*ms));
                Ok(None)
            }
            Some(f) => Ok(Some(f.clone())),
        }
    }
}

impl std::fmt::Debug for FaultyStorage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultyStorage")
            .field("plan", &self.plan)
            .field("ops", &self.ops())
            .field("crashed", &self.crashed())
            .finish()
    }
}

fn flip_bit(bytes: &mut [u8], bit: u64) {
    if bytes.is_empty() {
        return;
    }
    let i = (bit / 8) as usize % bytes.len();
    bytes[i] ^= 1 << (bit % 8);
}

impl Storage for FaultyStorage {
    fn read(&self, path: &Path) -> Result<Vec<u8>> {
        match self.gate()? {
            Some(StorageFault::BitFlip { bit }) => {
                let mut bytes = self.inner.read(path)?;
                flip_bit(&mut bytes, bit);
                Ok(bytes)
            }
            // on a read, "torn at k" models a crash mid-read
            Some(StorageFault::TornWrite { .. }) => Err(self.crash_now()),
            Some(StorageFault::ShortRead { keep }) => {
                let mut bytes = self.inner.read(path)?;
                bytes.truncate(keep);
                Ok(bytes)
            }
            Some(StorageFault::ReadError) => {
                Err(CdmsError::Io("media error on read (injected)".into()))
            }
            Some(_) | None => self.inner.read(path),
        }
    }

    fn read_at(&self, path: &Path, offset: u64, len: usize) -> Result<Vec<u8>> {
        // per-op faults first (crash/transient machinery), then the
        // offset-addressed script the streaming fault storms use
        let per_op = self.gate()?;
        let fault = match per_op {
            Some(f) => Some(f),
            None => self.read_fault_at(offset),
        };
        match fault {
            None => self.inner.read_at(path, offset, len),
            Some(StorageFault::DelayedRead { ms }) => {
                parking_lot::assert_unlocked("an injected slow read");
                std::thread::sleep(std::time::Duration::from_millis(ms));
                self.inner.read_at(path, offset, len)
            }
            Some(StorageFault::ShortRead { keep }) => {
                let mut bytes = self.inner.read_at(path, offset, len)?;
                bytes.truncate(keep);
                Ok(bytes)
            }
            Some(StorageFault::BitFlip { bit }) => {
                let mut bytes = self.inner.read_at(path, offset, len)?;
                flip_bit(&mut bytes, bit);
                Ok(bytes)
            }
            Some(StorageFault::ReadError) => {
                Err(CdmsError::Io("media error on read (injected)".into()))
            }
            Some(StorageFault::Transient { .. }) => {
                Err(CdmsError::TransientIo("interrupted read (injected EINTR)".into()))
            }
            Some(StorageFault::TornWrite { .. }) => Err(self.crash_now()),
            Some(_) => self.inner.read_at(path, offset, len),
        }
    }

    fn write_all(&self, path: &Path, bytes: &[u8]) -> Result<()> {
        match self.gate()? {
            None => self.inner.write_all(path, bytes),
            Some(StorageFault::ShortWrite { keep }) => {
                self.inner.write_all(path, &bytes[..keep.min(bytes.len())])
            }
            Some(StorageFault::TornWrite { at }) => {
                self.inner.write_all(path, &bytes[..at.min(bytes.len())])?;
                self.crashed.store(true, Ordering::SeqCst);
                Err(CdmsError::Io("process died mid-write (injected torn write)".into()))
            }
            Some(StorageFault::BitFlip { bit }) => {
                let mut corrupt = bytes.to_vec();
                flip_bit(&mut corrupt, bit);
                self.inner.write_all(path, &corrupt)
            }
            Some(StorageFault::Enospc) => {
                self.inner.write_all(path, &bytes[..bytes.len() / 2])?;
                Err(CdmsError::Io("no space left on device (injected ENOSPC)".into()))
            }
            // crash/transient already handled by gate()
            Some(_) => self.inner.write_all(path, bytes),
        }
    }

    fn sync(&self, path: &Path) -> Result<()> {
        match self.gate()? {
            Some(StorageFault::Enospc) => {
                Err(CdmsError::Io("no space left on device (injected ENOSPC)".into()))
            }
            Some(StorageFault::TornWrite { .. }) => Err(self.crash_now()),
            _ => self.inner.sync(path),
        }
    }

    fn sync_dir(&self, dir: &Path) -> Result<()> {
        match self.gate()? {
            Some(StorageFault::Enospc) => {
                Err(CdmsError::Io("no space left on device (injected ENOSPC)".into()))
            }
            Some(StorageFault::TornWrite { .. }) => Err(self.crash_now()),
            _ => self.inner.sync_dir(dir),
        }
    }

    fn len(&self, path: &Path) -> Result<u64> {
        match self.gate()? {
            Some(StorageFault::Enospc) => {
                Err(CdmsError::Io("no space left on device (injected ENOSPC)".into()))
            }
            Some(StorageFault::TornWrite { .. }) => Err(self.crash_now()),
            _ => self.inner.len(path),
        }
    }

    fn rename(&self, from: &Path, to: &Path) -> Result<()> {
        match self.gate()? {
            Some(StorageFault::Enospc) => {
                Err(CdmsError::Io("no space left on device (injected ENOSPC)".into()))
            }
            Some(StorageFault::TornWrite { .. }) => Err(self.crash_now()),
            _ => self.inner.rename(from, to),
        }
    }

    fn remove(&self, path: &Path) -> Result<()> {
        // Cleanup is exempt from the fault script once crashed — callers
        // treat it as best-effort anyway.
        if self.crashed() {
            return Err(CdmsError::Io("storage backend crashed (injected)".into()));
        }
        self.inner.remove(path)
    }
}

#[cfg(test)]
impl StorageFaultPlan {
    /// True when nothing is scripted.
    pub(crate) fn is_empty(&self) -> bool {
        self.per_op.is_empty() && self.reads.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("cdms_storage_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{tag}.bin"))
    }

    #[test]
    fn crc32c_known_vectors() {
        // RFC 3720 §B.4 test vectors.
        assert_eq!(crc32c(b""), 0);
        assert_eq!(crc32c(&[0u8; 32]), 0x8A91_36AA);
        assert_eq!(crc32c(&[0xFFu8; 32]), 0x62A8_AB43);
        let ascending: Vec<u8> = (0u8..32).collect();
        assert_eq!(crc32c(&ascending), 0x46DD_794E);
        assert_eq!(crc32c(b"123456789"), 0xE306_9283);
    }

    #[test]
    fn crc32c_update_chains() {
        let all = crc32c(b"hello world");
        let chained = crc32c_update(crc32c(b"hello "), b"world");
        assert_eq!(all, chained);
    }

    /// The block length under the name the multi-stream tests know it by.
    const MULTISTREAM_MIN: usize = CRC_BLOCK;

    /// Deterministic pseudo-random buffer for the bulk-CRC tests.
    fn noise(len: usize) -> Vec<u8> {
        noise_from(0x9E37_79B9_7F4A_7C15, len)
    }

    /// [`noise`] from another starting state.
    fn noise_from(mut x: u64, len: usize) -> Vec<u8> {
        (0..len)
            .map(|_| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                (x >> 33) as u8
            })
            .collect()
    }

    #[test]
    fn crc32c_multistream_matches_serial() {
        // Lengths straddling the multi-stream threshold, including awkward
        // remainders, must agree with the single-stream reference.
        for len in [
            0,
            1,
            15,
            MULTISTREAM_MIN - 1,
            MULTISTREAM_MIN,
            MULTISTREAM_MIN + 1,
            MULTISTREAM_MIN + 17,
            3 * MULTISTREAM_MIN + 5,
            1 << 20,
            (1 << 20) + 47,
        ] {
            let buf = noise(len);
            assert_eq!(crc32c(&buf), crc32c_serial(0, &buf), "len {len}");
            assert_eq!(
                crc32c_update(0xDEAD_BEEF, &buf),
                crc32c_serial(0xDEAD_BEEF, &buf),
                "seeded, len {len}"
            );
        }
    }

    #[test]
    fn crc32c_update_chains_across_bulk_splits() {
        let buf = noise(300_000);
        let whole = crc32c(&buf);
        for split in [1, 100, 99_991, 150_000, 299_999] {
            let (a, b) = buf.split_at(split);
            assert_eq!(crc32c_update(crc32c(a), b), whole, "split {split}");
        }
    }

    /// Lengths around the stream and block boundaries, and the benchmark's
    /// chunk frame.
    const BLOCK_EDGE_LENGTHS: [usize; 9] = [
        0,
        1,
        CRC_STREAM - 1,
        CRC_STREAM + 1,
        CRC_BLOCK - 1,
        CRC_BLOCK + 1,
        2 * CRC_BLOCK,
        2 * CRC_BLOCK + 7,
        2_090_836,
    ];

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(6))]

        /// Whole blocks stitched by the compile-time operators, then the
        /// tail, are the single-stream CRC of the same bytes from any seed.
        #[test]
        fn crc32c_blocks_are_the_serial_crc(
            seed in 0u32..u32::MAX,
            state in 0u64..u64::MAX,
        ) {
            for len in BLOCK_EDGE_LENGTHS {
                let buf = noise_from(state, len);
                proptest::prop_assert_eq!(
                    crc32c_update(seed, &buf),
                    crc32c_serial(seed, &buf),
                    "len {}", len
                );
            }
        }
    }

    #[test]
    fn parallel_block_fold_plus_tail_is_crc32c() {
        use rayon::prelude::*;
        for len in BLOCK_EDGE_LENGTHS {
            let buf = noise(len);
            let (blocks, tail) = buf.as_chunks::<CRC_BLOCK>();
            for threads in [1, 2, 8] {
                let mut crcs = vec![0u32; blocks.len()];
                rayon::with_threads(threads, || {
                    crcs.par_iter_mut()
                        .zip(blocks.par_iter())
                        .for_each(|(crc, block)| *crc = crc32c_block(block));
                });
                let folded = crcs.iter().fold(0, |crc, &block| crc32c_join(crc, block));
                assert_eq!(crc32c_update(folded, tail), crc32c(&buf), "len {len}, {threads} threads");
            }
        }
    }

    #[test]
    fn crc32c_shift_is_zero_byte_extension() {
        // shift(crc(x), n) must equal crc(x ++ n zero bytes) ^ crc(n zeros).
        let x = b"the quick brown fox";
        for n in [0usize, 1, 7, 64, 1000] {
            let mut extended = x.to_vec();
            extended.resize(x.len() + n, 0);
            let zeros = vec![0u8; n];
            assert_eq!(
                crc32c_shift(crc32c(x), n as u64) ^ crc32c(&zeros),
                crc32c(&extended),
                "n {n}"
            );
        }
    }

    #[test]
    fn atomic_write_roundtrips_and_replaces() {
        let path = temp_path("roundtrip");
        write_atomic(&LocalDisk, &path, b"old content").unwrap();
        assert_eq!(LocalDisk.read(&path).unwrap(), b"old content");
        write_atomic(&LocalDisk, &path, b"new content").unwrap();
        assert_eq!(LocalDisk.read(&path).unwrap(), b"new content");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_write_leaves_old_content() {
        let path = temp_path("torn");
        write_atomic(&LocalDisk, &path, b"old content").unwrap();
        let faulty =
            FaultyStorage::new(StorageFaultPlan::none().inject(0, StorageFault::TornWrite { at: 3 }));
        let err = write_atomic(&faulty, &path, b"new content").unwrap_err();
        assert!(err.to_string().contains("torn"), "{err}");
        assert!(faulty.crashed());
        assert_eq!(LocalDisk.read(&path).unwrap(), b"old content");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn short_write_detected_by_length_check() {
        let path = temp_path("short");
        write_atomic(&LocalDisk, &path, b"old content").unwrap();
        let faulty = FaultyStorage::new(
            StorageFaultPlan::none().inject(0, StorageFault::ShortWrite { keep: 5 }),
        );
        let err = write_atomic(&faulty, &path, b"new content").unwrap_err();
        assert!(err.to_string().contains("short write"), "{err}");
        assert_eq!(LocalDisk.read(&path).unwrap(), b"old content");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn bit_flip_detected_by_readback_checksum() {
        let path = temp_path("bitflip");
        write_atomic(&LocalDisk, &path, b"old content").unwrap();
        let faulty =
            FaultyStorage::new(StorageFaultPlan::none().inject(0, StorageFault::BitFlip { bit: 17 }));
        let err = write_atomic(&faulty, &path, b"new content").unwrap_err();
        assert!(err.to_string().contains("verification"), "{err}");
        assert_eq!(LocalDisk.read(&path).unwrap(), b"old content");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn transient_errors_are_retried_through() {
        let path = temp_path("transient");
        let faulty = FaultyStorage::new(
            StorageFaultPlan::none().inject(0, StorageFault::Transient { times: TRANSIENT_RETRIES }),
        );
        write_atomic(&faulty, &path, b"content").unwrap();
        assert_eq!(LocalDisk.read(&path).unwrap(), b"content");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn transient_errors_beyond_budget_surface() {
        let path = temp_path("transient_exhausted");
        write_atomic(&LocalDisk, &path, b"old content").unwrap();
        let faulty = FaultyStorage::new(StorageFaultPlan::none().inject(
            0,
            StorageFault::Transient { times: TRANSIENT_RETRIES + 5 },
        ));
        let err = write_atomic(&faulty, &path, b"new content").unwrap_err();
        assert!(err.is_transient(), "{err}");
        assert_eq!(LocalDisk.read(&path).unwrap(), b"old content");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn crash_leaves_backend_dead() {
        let path = temp_path("dead");
        let faulty =
            FaultyStorage::new(StorageFaultPlan::none().inject(1, StorageFault::CrashBefore));
        assert!(write_atomic(&faulty, &path, b"x").is_err());
        assert!(faulty.crashed());
        assert!(faulty.read(&path).is_err());
        assert!(faulty.write_all(&path, b"y").is_err());
    }

    #[test]
    fn read_at_ranges_and_eof() {
        let path = temp_path("ranged");
        write_atomic(&LocalDisk, &path, b"0123456789").unwrap();
        assert_eq!(LocalDisk.read_at(&path, 0, 4).unwrap(), b"0123");
        assert_eq!(LocalDisk.read_at(&path, 4, 3).unwrap(), b"456");
        // reads past EOF return the short prefix, not an error
        assert_eq!(LocalDisk.read_at(&path, 8, 10).unwrap(), b"89");
        assert_eq!(LocalDisk.read_at(&path, 20, 5).unwrap(), b"");
        // a length far past EOF reserves it but returns what exists
        assert_eq!(LocalDisk.read_at(&path, 0, 1 << 20).unwrap(), b"0123456789");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn offset_read_faults_fire_with_budget() {
        let path = temp_path("readfaults");
        write_atomic(&LocalDisk, &path, b"abcdefghij").unwrap();
        let faulty = FaultyStorage::new(
            StorageFaultPlan::none()
                .inject_read(0..4, StorageFault::Transient { times: 0 }, 2)
                .inject_read(4..8, StorageFault::ReadError, 0)
                .inject_read(8..10, StorageFault::ShortRead { keep: 1 }, 1),
        );
        // budget 2: two transient failures, then clean
        assert!(faulty.read_at(&path, 0, 4).unwrap_err().is_transient());
        assert!(faulty.read_at(&path, 2, 4).unwrap_err().is_transient());
        assert_eq!(faulty.read_at(&path, 0, 4).unwrap(), b"abcd");
        // budget 0 = forever
        assert!(faulty.read_at(&path, 5, 2).is_err());
        assert!(faulty.read_at(&path, 5, 2).is_err());
        // short read fires once
        assert_eq!(faulty.read_at(&path, 8, 2).unwrap(), b"i");
        assert_eq!(faulty.read_at(&path, 8, 2).unwrap(), b"ij");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn bit_flip_read_fault_corrupts_payload() {
        let path = temp_path("readflip");
        write_atomic(&LocalDisk, &path, b"abcdefghij").unwrap();
        let faulty = FaultyStorage::new(
            StorageFaultPlan::none().inject_read(0..1, StorageFault::BitFlip { bit: 0 }, 1),
        );
        let got = faulty.read_at(&path, 0, 4).unwrap();
        assert_ne!(got, b"abcd");
        assert_eq!(faulty.read_at(&path, 0, 4).unwrap(), b"abcd", "budget spent");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn delayed_read_returns_correct_bytes_late() {
        let path = temp_path("delayed");
        write_atomic(&LocalDisk, &path, b"abcdefghij").unwrap();
        let faulty = FaultyStorage::new(
            StorageFaultPlan::none().inject_read(0..4, StorageFault::DelayedRead { ms: 30 }, 1),
        );
        let t0 = std::time::Instant::now();
        assert_eq!(faulty.read_at(&path, 0, 4).unwrap(), b"abcd");
        assert!(t0.elapsed() >= std::time::Duration::from_millis(25));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn sync_dir_fault_surfaces_after_rename() {
        // op 5 is the parent-directory fsync: the rename already landed, so
        // the new content is visible even though the write reports failure.
        let path = temp_path("dirsync");
        write_atomic(&LocalDisk, &path, b"old content").unwrap();
        let faulty =
            FaultyStorage::new(StorageFaultPlan::none().inject(5, StorageFault::Enospc));
        let err = write_atomic(&faulty, &path, b"new content").unwrap_err();
        assert!(err.to_string().contains("ENOSPC"), "{err}");
        assert_eq!(LocalDisk.read(&path).unwrap(), b"new content");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn sync_dir_transient_is_retried_through() {
        let path = temp_path("dirsync_transient");
        let faulty = FaultyStorage::new(
            StorageFaultPlan::none().inject(5, StorageFault::Transient { times: TRANSIENT_RETRIES }),
        );
        write_atomic(&faulty, &path, b"content").unwrap();
        assert_eq!(LocalDisk.read(&path).unwrap(), b"content");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn fault_plan_queries() {
        let plan = StorageFaultPlan::none()
            .inject(2, StorageFault::Enospc)
            .inject(0, StorageFault::CrashBefore);
        assert_eq!(plan.at(2), Some(&StorageFault::Enospc));
        assert_eq!(plan.at(1), None);
        assert!(!plan.is_empty());
        assert!(StorageFaultPlan::none().is_empty());
    }
}
