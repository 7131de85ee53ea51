#![forbid(unsafe_code)]
// R1 (DESIGN.md §10): library code returns an error where it could panic;
// a site whose invariant rules the panic out says why in an `#[expect]`.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
#![cfg_attr(not(test), deny(clippy::unreachable, clippy::todo, clippy::unimplemented))]
#![cfg_attr(not(test), deny(clippy::allow_attributes_without_reason))]

//! # dv3d — exploratory 3D climate visualization (the paper's contribution)
//!
//! DV3D is "a package of high-level modules … providing user-friendly
//! workflow interfaces for advanced visualization and analysis of climate
//! data at a level appropriate for scientists" (Maxwell, SC 2012). This
//! crate is that package, built on the substrates in this workspace:
//! `cdms` (data), `cdat` (analysis), `rvtk` (rendering) and `vistrails`
//! (workflow + provenance).
//!
//! The pieces map to the paper section by section:
//!
//! * [`translation`] — converts CDMS variables into renderable image data
//!   (the "DV3D translation module", §III.G).
//! * [`plots`] — the plot types of §III.C: [`plots::SlicerPlot`],
//!   [`plots::VolumePlot`], [`plots::IsosurfacePlot`],
//!   `plots::HovmollerPlot` (slicer + volume over time-as-height) and
//!   `plots::VectorSlicerPlot` — and `plots::PALETTE`, the one list of
//!   them that every front-end below reads (§III.E).
//! * `transfer` — the interactive *leveling* editor that reshapes color
//!   and opacity transfer functions with mouse drags (§III.F).
//! * [`cell`] — the DV3D spreadsheet cell: plot + base map + labels +
//!   colorbar + pick display + navigation (§III.G).
//! * [`spreadsheet`] — multi-cell coordination with configuration
//!   propagation to active cells (§III.E).
//! * [`animation`] — 4D browsing by animating over time (§III.D): one
//!   playhead over frames held in memory or streamed off disk.
//! * [`modules`] — registration of CDMS/CDAT/DV3D as VisTrails packages
//!   (the plot modules by walking the palette), and the one recorded cell
//!   chain under the prebuilt workflows, the CLI and the hyperwall
//!   (§III.A, §III.F).
//! * [`calculator`] — the command-line/calculator interface for deriving
//!   variables with CDAT operations (§III.E).
//! * [`gui`] — the headless model of the UV-CDAT GUI's panes: project
//!   view, variable view; its plot view is the palette itself (§III.E).
//! * [`interaction`] — key/mouse events → configuration operations,
//!   recorded as provenance (§III.F).
//!
//! ## Quickstart
//!
//! ```
//! use cdms::synth::SynthesisSpec;
//! use dv3d::prelude::*;
//!
//! // Synthesize a small atmosphere and show a temperature slicer.
//! let ds = SynthesisSpec::new(2, 4, 16, 32).build();
//! let ta = ds.variable("ta").unwrap().time_slab(0).unwrap();
//! let image = translate_scalar(&ta, &TranslationOptions::default()).unwrap();
//! let mut cell = Dv3dCell::new("quick", PlotSpec::slicer(image));
//! let frame = cell.render(160, 120).unwrap();
//! assert!(frame.covered_pixels(rvtk::Color::BLACK) > 100);
//! ```

pub mod animation;
pub mod calculator;
pub mod cell;
pub mod gui;
pub mod interaction;
pub mod modules;
pub mod plots;
pub mod spreadsheet;
pub(crate) mod transfer;
pub mod translation;

/// Errors raised by DV3D operations.
///
/// Substrate failures are wrapped as their typed errors (not stringified),
/// so `source()` walks the real cause chain.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Dv3dError {
    /// Underlying data-management failure.
    Cdms(cdms::CdmsError),
    /// Underlying visualization failure.
    Vtk(rvtk::VtkError),
    /// Underlying workflow failure.
    Workflow(vistrails::WfError),
    /// Bad plot configuration.
    Config(String),
}

impl std::fmt::Display for Dv3dError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Dv3dError::Cdms(e) => write!(f, "cdms: {e}"),
            Dv3dError::Vtk(e) => write!(f, "vtk: {e}"),
            Dv3dError::Workflow(e) => write!(f, "workflow: {e}"),
            Dv3dError::Config(m) => write!(f, "config: {m}"),
        }
    }
}

impl std::error::Error for Dv3dError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Dv3dError::Cdms(e) => Some(e),
            Dv3dError::Vtk(e) => Some(e),
            Dv3dError::Workflow(e) => Some(e),
            Dv3dError::Config(_) => None,
        }
    }
}

impl From<cdms::CdmsError> for Dv3dError {
    fn from(e: cdms::CdmsError) -> Self {
        Dv3dError::Cdms(e)
    }
}

impl From<rvtk::VtkError> for Dv3dError {
    fn from(e: rvtk::VtkError) -> Self {
        Dv3dError::Vtk(e)
    }
}

impl From<vistrails::WfError> for Dv3dError {
    fn from(e: vistrails::WfError) -> Self {
        Dv3dError::Workflow(e)
    }
}

/// Convenient result alias.
pub type Result<T> = std::result::Result<T, Dv3dError>;

/// The common imports.
pub mod prelude {
    pub use crate::cell::Dv3dCell;
    pub use crate::interaction::{CameraOp, ConfigOp};
    pub use crate::plots::{Plot, PlotSpec};
    pub use crate::spreadsheet::Dv3dSpreadsheet;
    pub use crate::translation::{translate_scalar, translate_vector, TranslationOptions};
    pub use crate::{Dv3dError, Result};
}
