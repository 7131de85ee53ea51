#![forbid(unsafe_code)]
// R1 (DESIGN.md §10): library code returns an error where it could panic;
// a site whose invariant rules the panic out says why in an `#[expect]`.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
#![cfg_attr(not(test), deny(clippy::unreachable, clippy::todo, clippy::unimplemented))]
#![cfg_attr(not(test), deny(clippy::allow_attributes_without_reason))]
// Outside `storage.rs` the raw file writes are disallowed (`clippy.toml`,
// R6); tests write damaged files directly.
#![cfg_attr(test, allow(clippy::disallowed_methods))]
#![allow(
    clippy::needless_range_loop,
    reason = "index-form loops over several parallel arrays are clearer here than iterator chains"
)]

//! # cdms — Climate Data Management System substrate
//!
//! A from-scratch Rust reproduction of the data-management layer that DV3D and
//! UV-CDAT sit on in the SC 2012 paper: CDMS (Climate Data Management System)
//! plus the NetCDF-style self-describing file model it fronts.
//!
//! The crate provides:
//!
//! * [`MaskedArray`] — an n-dimensional array of `f32` with an element-wise
//!   validity mask, strided views, broadcasting arithmetic and axis reductions
//!   (the equivalent of CDMS "transient variables" backed by numpy masked
//!   arrays).
//! * [`Axis`] — CF-convention coordinate axes (latitude, longitude, vertical
//!   level, time) carrying values, cell bounds, units and metadata.
//! * [`calendar`] — model calendars (Gregorian, 365-day, 360-day, …) and
//!   "units since epoch" relative-time encoding/decoding.
//! * [`grid`] — rectilinear latitude–longitude grids, uniform and gaussian,
//!   with cell areas and area weights.
//! * [`Variable`] — a named masked array bound to a domain of axes plus
//!   attributes; supports coordinate-range subsetting like CDMS `var(...)`
//!   calls.
//! * [`Dataset`] + [`mod@format`] — a self-describing binary container (`.ncr`)
//!   with full write/read round-tripping, standing in for NetCDF. Every
//!   file is written, and read, as format v3 (below); a file of any other
//!   version is refused as unsupported. It splits the file into
//!   CRC32C-checksummed sections so corruption is detected per section;
//!   [`format::from_bytes_salvage`] recovers the intact variables from a
//!   damaged file and reports what was lost.
//! * [`storage`] — the hardened I/O layer beneath the format: a [`Storage`]
//!   trait with a [`storage::LocalDisk`] backend, crash-safe atomic writes
//!   (temp file + fsync + verify + rename), bounded retries of transient
//!   errors, and a deterministic [`storage::FaultyStorage`] for injecting
//!   short writes, torn writes, bit flips, ENOSPC and EINTR-style faults in
//!   tests.
//! * [`format_v3`] + [`stream`] — the out-of-core layer: format v3 splits
//!   each variable into per-time-window chunk frames with a coarse-to-fine
//!   resolution pyramid, indexed by a trailer chunk directory;
//!   [`StreamingVariable`] reads any (window, level) piecewise through
//!   `Storage::read_at` behind a byte-budgeted LRU chunk cache with
//!   per-chunk retry and pyramid/masked-fill degradation, so
//!   animation of a series far larger than RAM never stalls on a fault.
//! * [`catalog`] — a directory-backed stand-in for Earth System Grid (ESG)
//!   federated data access: search by attribute, open remote variables.
//!   Files are indexed from their verified metadata, no chunk decoded;
//!   corrupt files are salvaged or quarantined with a recorded reason.
//! * [`synth`] — deterministic synthetic climate fields (temperature,
//!   geopotential, humidity, divergence-free winds, propagating equatorial
//!   waves, land/sea mask) substituting for NASA model output.
//!
//! ## Quickstart
//!
//! ```
//! use cdms::synth::SynthesisSpec;
//!
//! // Build a small synthetic atmosphere: 4 timesteps, 5 levels, 16x32 grid.
//! let ds = SynthesisSpec::new(4, 5, 16, 32).seed(7).build();
//! let ta = ds.variable("ta").unwrap();
//! assert_eq!(ta.shape(), &[4, 5, 16, 32]);
//! // Subset the tropics at the first timestep.
//! let tropics = ta.subset_lat_lon((-20.0, 20.0), (0.0, 360.0)).unwrap();
//! assert!(tropics.array.valid_count() > 0);
//! ```

pub mod array;
pub(crate) mod attr;
pub mod axis;
pub mod calendar;
pub mod catalog;
mod container;
pub(crate) mod dataset;
pub(crate) mod error;
pub mod format;
pub mod format_v3;
pub mod grid;
pub mod storage;
pub mod stream;
pub mod synth;
pub(crate) mod variable;

pub use array::MaskedArray;
pub use attr::AttValue;
pub use axis::{Axis, AxisKind};
pub use dataset::Dataset;
pub use error::{CdmsError, Result};
pub use grid::RectGrid;
pub use storage::Storage;
pub use stream::{StreamOptions, StreamReport, StreamingDataset, StreamingVariable};
pub use variable::Variable;
