//! Geometry and data filters — the middle of the VTK-style pipeline.
//!
//! Each filter is a function from data to data:
//!
//! * [`isosurface`] / [`isosurface_colored`] — marching-tetrahedra surface
//!   extraction (DV3D's Isosurface plot).
//! * [`SliceAxis`] — the axis a slice plane is perpendicular to. The
//!   Slicer's pseudocolour planes are not a filter's output: each is drawn
//!   as one textured quad, [`crate::render::ImageSlice`].
//! * [`contour_lines`] — marching-squares contour overlays.
//! * [`streamlines`] / [`glyphs_on_slice`] — vector-field visualization
//!   (Vector slicer).
//! * [`threshold`] — keep points whose scalar passes a predicate.

mod contour2d;
mod glyph;
mod isosurface;
mod outline;
mod slice;
mod streamline;
mod threshold;

pub use contour2d::{auto_levels, contour_lines};
pub use glyph::{glyphs_on_slice, GlyphOptions};
pub use isosurface::{isosurface, isosurface_colored};
pub use outline::outline;
pub use slice::SliceAxis;
pub use streamline::{streamlines, StreamlineOptions};
pub use threshold::threshold;
