#![forbid(unsafe_code)]
// R1 (DESIGN.md §10): library code returns an error where it could panic;
// a site whose invariant rules the panic out says why in an `#[expect]`.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
#![cfg_attr(not(test), deny(clippy::unreachable, clippy::todo, clippy::unimplemented))]
#![cfg_attr(not(test), deny(clippy::allow_attributes_without_reason))]
#![allow(
    clippy::needless_range_loop,
    reason = "index-form loops over several parallel arrays are clearer here than iterator chains"
)]

//! # cdat — Climate Data Analysis Tools
//!
//! The analysis-operation suite the paper's workflows draw on (§III.G):
//! "simple arithmetic operations, regridding, conditioned comparisons,
//! weighted averages, various statistical operations, etc." — plus the
//! parallel task execution DV3D advertises, as a dependency-aware task
//! graph run on `vistrails`' DAG scheduler.
//!
//! All operations act on [`cdms::Variable`]s, propagate masks, and keep
//! axis metadata consistent with the data.
//!
//! ## Quickstart
//!
//! ```
//! use cdms::synth::SynthesisSpec;
//! use cdat::{averager, climatology, regrid};
//!
//! let ds = SynthesisSpec::new(8, 3, 16, 32).build();
//! let ta = ds.variable("ta").unwrap();
//!
//! // Area-weighted global mean time series.
//! let series = averager::spatial_mean(ta).unwrap();
//! assert_eq!(series.shape()[0], 8);
//!
//! // Anomalies from the time mean.
//! let anom = climatology::anomaly(ta).unwrap();
//! assert!(anom.array.mean().unwrap().abs() < 0.5);
//!
//! // Regrid to a coarser grid.
//! let coarse = cdms::RectGrid::uniform(8, 16).unwrap();
//! let ta_lo = regrid::bilinear(ta, &coarse).unwrap();
//! assert_eq!(&ta_lo.shape()[2..], &[8, 16]);
//! ```

pub mod averager;
pub mod climatology;
pub mod eager_ref;
pub mod ensemble;
pub mod eof;
pub mod expr;
pub mod hovmoller;
pub mod ops;
pub mod pipeline;
pub mod plan_cache;
pub mod reduce;
pub mod regrid;
pub mod regrid_plan;
pub mod statistics;
pub mod taskgraph;

pub use cdms::{CdmsError, Result};

#[cfg(test)]
mod conditioned;
