//! Software rendering: cameras, lights, actors, a z-buffered rasterizer,
//! a ray-cast volume renderer, offscreen framebuffers and stereo modes.
//!
//! The pipeline mirrors VTK: a [`Renderer`] owns [`Actor`]s (surface/line
//! geometry), [`ImageSlice`]s (pseudocolour planes drawn as textured
//! quads), [`Volume`]s (ray-cast scalar fields), a [`Camera`] and
//! [`Light`]s, and draws into the [`Framebuffer`] of a [`RenderWindow`].
//! DV3D hides all of these behind its plot types, exactly as the paper
//! describes ("without exposing details such as actors, cameras, renderers,
//! and transfer functions").

mod actor;
mod camera;
mod framebuffer;
mod image_slice;
mod light;
mod renderer;
mod text;
mod volume;
mod window;

pub(crate) mod rasterizer;
pub(crate) mod tile;

pub mod scanline_ref;

pub use actor::{Actor, Property, Representation};
pub use camera::Camera;
pub use framebuffer::{Framebuffer, TileGrid, TileRect};
pub use image_slice::ImageSlice;
pub use light::Light;
pub use renderer::Renderer;
pub use text::{draw_colorbar, draw_text, text_width, GLYPH_HEIGHT};
pub use volume::{BlendMode, Volume, VolumeProperty};
pub use window::{RenderWindow, StereoMode};

/// The deterministic PRNG of this module's seeded unit tests.
#[cfg(test)]
pub(crate) mod test_rng {
    /// xorshift64*: no external crates, no wall clock. Seed it non-zero.
    pub(crate) struct Rng(pub(crate) u64);

    impl Rng {
        pub(crate) fn next(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            self.0 = x;
            x.wrapping_mul(0x2545f4914f6cdd1d)
        }
    }
}
