#![forbid(unsafe_code)]
// R1 (DESIGN.md §10): library code returns an error where it could panic;
// a site whose invariant rules the panic out says why in an `#[expect]`.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
#![cfg_attr(not(test), deny(clippy::unreachable, clippy::todo, clippy::unimplemented))]
#![cfg_attr(not(test), deny(clippy::allow_attributes_without_reason))]

//! # rvtk — a VTK-like visualization substrate in pure Rust
//!
//! DV3D builds on VTK: structured image data flows through filters
//! (isosurface extraction, slicing, contouring, streamline integration) into
//! mappers, actors and renderers. This crate reproduces that pipeline with a
//! software implementation — no GPU required:
//!
//! * [`ImageData`] — structured points (regular 3D grids) with scalars and
//!   optional vectors; trilinear sampling and central-difference gradients.
//! * [`PolyData`] — points + triangles + polylines with per-point scalars
//!   and normals.
//! * [`filters`] — isosurface (marching tetrahedra), 2D contour lines
//!   (marching squares), RK4 streamlines, arrow glyphs, thresholding and
//!   point probing.
//! * [`LookupTable`] / transfer functions — scalar→color maps and the
//!   piecewise color/opacity functions volume rendering uses.
//! * [`render`] — cameras, lights, actors, slice planes drawn as textured
//!   quads, a z-buffered triangle rasterizer (rayon-parallel), a
//!   front-to-back ray-cast volume renderer, offscreen framebuffers with
//!   PPM export, anaglyph/side-by-side stereo, and bitmap-font
//!   annotations.
//!
//! ## Quickstart
//!
//! ```
//! use rvtk::{ImageData, filters::isosurface};
//! use rvtk::render::{Actor, Renderer, RenderWindow};
//!
//! // A sphere-ish scalar field.
//! let img = ImageData::from_fn([24, 24, 24], [1.0; 3], [0.0; 3], |x, y, z| {
//!     let (dx, dy, dz) = (x - 12.0, y - 12.0, z - 12.0);
//!     ((dx * dx + dy * dy + dz * dz) as f32).sqrt()
//! });
//! let surf = isosurface(&img, 8.0).unwrap();
//! assert!(!surf.triangles.is_empty());
//!
//! // Render it offscreen.
//! let mut window = RenderWindow::new(160, 120);
//! let mut renderer = Renderer::new();
//! renderer.add_actor(Actor::from_poly_data(surf));
//! renderer.reset_camera();
//! renderer.render(window.framebuffer_mut());
//! ```

pub mod color;
pub mod filters;
pub mod image_data;
pub mod lookup_table;
pub mod math;
pub mod poly_data;
pub mod render;

pub use color::Color;
pub use image_data::ImageData;
pub use lookup_table::{ColorTransferFunction, LookupTable, OpacityTransferFunction};
pub use math::{Mat4, Vec3};
pub use poly_data::PolyData;

/// Errors raised by visualization operations.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum VtkError {
    /// Input data is missing a required attribute (scalars, vectors…).
    MissingData(String),
    /// Sizes or dimensions are inconsistent.
    Invalid(String),
}

impl std::fmt::Display for VtkError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VtkError::MissingData(m) => write!(f, "missing data: {m}"),
            VtkError::Invalid(m) => write!(f, "invalid: {m}"),
        }
    }
}

impl std::error::Error for VtkError {
    /// Both variants are leaves with string payloads; no deeper cause.
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        None
    }
}

/// Convenient result alias.
pub(crate) type Result<T> = std::result::Result<T, VtkError>;
