//! Slice axes: which grid axis a slice plane is perpendicular to.
//!
//! The Slicer's pseudocolour planes are not extracted as geometry: each is
//! a [`render::ImageSlice`](crate::render::ImageSlice), one textured quad
//! whose cost follows the pixels it covers rather than the plane's cells.
//! The axis is shared by that prop, the contour and glyph filters, which
//! work in the same planes, and DV3D's slice interaction.

/// Which axis a slice plane is perpendicular to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SliceAxis {
    X,
    Y,
    Z,
}

impl SliceAxis {
    /// Axis index into dims/spacing/origin arrays.
    pub fn index(self) -> usize {
        match self {
            SliceAxis::X => 0,
            SliceAxis::Y => 1,
            SliceAxis::Z => 2,
        }
    }
}
