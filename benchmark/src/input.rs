//! The shared `.ncr` v3 input: generated from the seed and written through
//! the production writer during set-up.

use crate::stats;
use cdms::format_v3::{self, V3Options};
use cdms::storage::LocalDisk;
use cdms::synth::SynthesisSpec;
use cdms::{Dataset, StreamOptions, StreamingDataset, Variable};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Shape of the synthetic series `(time, level, lat, lon)`.
pub const SHAPE: (usize, usize, usize, usize) = (48, 8, 90, 180);
/// Time steps per chunk window; with the default 8 MiB chunk cache about
/// three of the twelve decoded windows of `ta` (2.6 MB each) are resident.
pub const WINDOW: usize = 4;
pub const N_WINDOWS: usize = SHAPE.0 / WINDOW;
/// Set-up is repeated so `setup_s` is a median, not one sample.
const SETUP_REPEATS: usize = 3;

#[derive(Debug)]
pub struct FileInput {
    pub path: PathBuf,
    /// In-memory `ta`, the reference the streamed slabs are checked against.
    pub ta: Variable,
    pub setup_s: f64,
    pub write_ms: f64,
    pub write_mb_per_s: f64,
}

/// Elements of one time slab of `ta`.
pub fn slab_elements() -> usize {
    SHAPE.1 * SHAPE.2 * SHAPE.3
}

pub fn open(path: &Path) -> Result<StreamingDataset, String> {
    StreamingDataset::open_with(Arc::new(LocalDisk), path, StreamOptions::default())
        .map_err(|e| format!("open {}: {e}", path.display()))
}

/// Synthesises the dataset, writes `ta` + `sftlf` as v3, reopens it and
/// checks the first and last slab against memory. Everything a file
/// workload does before its first timed operation.
fn setup_once(seed: u64, path: &Path) -> Result<(Variable, f64, u64), String> {
    let full = SynthesisSpec::new(SHAPE.0, SHAPE.1, SHAPE.2, SHAPE.3)
        .seed(seed)
        .build();
    let mut ds = Dataset::new("bench");
    for id in ["ta", "sftlf"] {
        ds.add_variable(full.require(id).map_err(|e| e.to_string())?.clone());
    }
    drop(full);
    let opts = V3Options {
        window: WINDOW,
        levels: 3,
        compress: true,
    };
    let t = Instant::now();
    format_v3::write_dataset_v3_with(&LocalDisk, &ds, path, &opts).map_err(|e| e.to_string())?;
    let write_ms = t.elapsed().as_secs_f64() * 1e3;
    let bytes = std::fs::metadata(path).map_err(|e| e.to_string())?.len();

    let ta = ds.require("ta").map_err(|e| e.to_string())?.clone();
    let sv = open(path)?.variable("ta").map_err(|e| e.to_string())?;
    if sv.n_times() != SHAPE.0 || sv.n_windows() != N_WINDOWS {
        return Err(format!(
            "reopened file has {} steps in {} windows",
            sv.n_times(),
            sv.n_windows()
        ));
    }
    for t in [0, SHAPE.0 - 1] {
        let streamed = sv.time_slab(t).map_err(|e| e.to_string())?;
        if streamed.array != ta.time_slab(t).map_err(|e| e.to_string())?.array {
            return Err(format!("reopened slab {t} differs from memory"));
        }
    }
    Ok((ta, write_ms, bytes))
}

pub fn setup_file(seed: u64, out_dir: &Path) -> Result<FileInput, String> {
    std::fs::create_dir_all(out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    // one file per process so concurrent runs never share a path
    let path = out_dir.join(format!("input-{seed}-{}.ncr", std::process::id()));
    let (mut setups, mut writes) = (Vec::new(), Vec::new());
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        let t = Instant::now();
        let (ta, write_ms, bytes) = setup_once(seed, &path)?;
        setups.push(t.elapsed().as_secs_f64());
        writes.push(write_ms);
        last = Some((ta, bytes));
    }
    let (ta, bytes) = last.ok_or("no set-up ran")?;
    let write_ms = stats::median(&writes);
    Ok(FileInput {
        path,
        ta,
        setup_s: stats::median(&setups),
        write_ms,
        write_mb_per_s: bytes as f64 / 1e6 / (write_ms / 1e3),
    })
}

impl Drop for FileInput {
    fn drop(&mut self) {
        std::fs::remove_file(&self.path).ok();
    }
}
