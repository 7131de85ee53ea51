//! The render window: an offscreen surface with stereo support.
//!
//! The paper notes DV3D inherits "active and passive 3D stereo visualization
//! support" from VTK; here stereo renders the scene twice from an eye pair
//! and combines the images (red/cyan anaglyph or side-by-side for passive
//! stereo walls).

use crate::color::Color;
use crate::render::framebuffer::Framebuffer;
use crate::render::renderer::Renderer;
use std::cell::OnceCell;

/// Stereo rendering modes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StereoMode {
    /// Plain mono rendering.
    #[default]
    Off,
    /// Red (left) / cyan (right) anaglyph composite.
    Anaglyph,
    /// Left and right images side by side (half width each).
    SideBySide,
}

/// An offscreen render window.
#[derive(Debug, Clone)]
pub struct RenderWindow {
    width: usize,
    height: usize,
    /// The image of the last `render`, which writes each of its pixels
    /// once. Before the first, an accessor makes it black.
    image: OnceCell<Framebuffer>,
    /// Stereo mode applied at `render`.
    pub stereo: StereoMode,
    /// World-space eye separation for stereo pairs.
    pub eye_separation: f64,
}

impl RenderWindow {
    /// Creates a window with the given pixel size.
    pub fn new(width: usize, height: usize) -> RenderWindow {
        RenderWindow {
            width,
            height,
            image: OnceCell::new(),
            stereo: StereoMode::Off,
            eye_separation: 0.0,
        }
    }

    /// The current image: black before the first `render`.
    pub(crate) fn framebuffer(&self) -> &Framebuffer {
        self.image.get_or_init(|| Framebuffer::new(self.width, self.height))
    }

    /// Mutable framebuffer (for overlays drawn after `render`).
    #[expect(clippy::expect_used, reason = "`framebuffer` has just made the image")]
    pub fn framebuffer_mut(&mut self) -> &mut Framebuffer {
        self.framebuffer();
        self.image.get_mut().expect("the image exists once `framebuffer` has run")
    }

    /// Consumes the window, handing its image over without a copy.
    pub fn into_framebuffer(self) -> Framebuffer {
        let (width, height) = (self.width, self.height);
        self.image.into_inner().unwrap_or_else(|| Framebuffer::new(width, height))
    }

    /// Renders `renderer` into this window honouring the stereo mode. The
    /// new image replaces the old one; nothing of the old one is read.
    pub fn render(&mut self, renderer: &Renderer) {
        let (width, height) = (self.width, self.height);
        let eye = |cam| {
            let mut eye = renderer.clone();
            eye.camera = cam;
            eye
        };
        let image = match self.stereo {
            StereoMode::Off => renderer.render_image(width, height),
            StereoMode::Anaglyph => {
                let (lc, rc) = renderer.camera.stereo_pair(self.effective_separation(renderer));
                let fb_l = eye(lc).render_image(width, height);
                let fb_r = eye(rc).render_image(width, height);
                // red channel from the left eye, green+blue from the right
                let mut fb = Framebuffer::new(width, height);
                for y in 0..height {
                    for x in 0..width {
                        let l = fb_l.pixel(x, y).luminance();
                        let r = fb_r.pixel(x, y);
                        fb.set_pixel(x, y, Color::rgb(l, r.g, r.b));
                    }
                }
                fb
            }
            StereoMode::SideBySide => {
                let (lc, rc) = renderer.camera.stereo_pair(self.effective_separation(renderer));
                let half = (width / 2).max(1);
                let mut fb = Framebuffer::new(width, height);
                for (cam, x_off) in [(lc, 0usize), (rc, half)] {
                    let fb_half = eye(cam).render_image(half, height);
                    for y in 0..height {
                        for x in 0..half {
                            fb.set_pixel(x + x_off, y, fb_half.pixel(x, y));
                        }
                    }
                }
                fb
            }
        };
        self.image = OnceCell::from(image);
    }

    fn effective_separation(&self, renderer: &Renderer) -> f64 {
        if self.eye_separation > 0.0 {
            self.eye_separation
        } else {
            renderer.camera.distance() / 30.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::math::Vec3;
    use crate::poly_data::PolyData;
    use crate::render::actor::Actor;

    fn scene() -> Renderer {
        let mut pd = PolyData::new();
        pd.add_point(Vec3::new(-1.0, -1.0, 0.0));
        pd.add_point(Vec3::new(1.0, -1.0, 0.0));
        pd.add_point(Vec3::new(0.0, 1.0, 0.5));
        pd.triangles.push([0, 1, 2]);
        let mut a = Actor::from_poly_data(pd).with_color(Color::WHITE);
        a.property.lighting = false;
        let mut r = Renderer::new();
        r.add_actor(a);
        r.reset_camera();
        r
    }

    #[test]
    fn mono_render_draws() {
        let mut w = RenderWindow::new(48, 48);
        w.render(&scene());
        assert!(w.framebuffer().covered_pixels(Color::BLACK) > 40);
    }

    #[test]
    fn anaglyph_produces_color_fringes() {
        let mut w = RenderWindow::new(64, 64);
        w.stereo = StereoMode::Anaglyph;
        w.render(&scene());
        // somewhere there must be a pixel that is red-only or cyan-only
        // (the eyes see slightly different silhouettes)
        let mut red_fringe = false;
        let mut cyan_fringe = false;
        for c in w.framebuffer().colors() {
            if c.r > 0.5 && c.g < 0.1 && c.b < 0.1 {
                red_fringe = true;
            }
            if c.r < 0.1 && (c.g > 0.5 || c.b > 0.5) {
                cyan_fringe = true;
            }
        }
        assert!(red_fringe && cyan_fringe, "expected stereo fringes");
    }

    #[test]
    fn side_by_side_mirrors_scene_in_both_halves() {
        let mut w = RenderWindow::new(96, 48);
        w.stereo = StereoMode::SideBySide;
        w.render(&scene());
        let fb = w.framebuffer();
        let count_in = |x0: usize, x1: usize| {
            let mut n = 0;
            for y in 0..48 {
                for x in x0..x1 {
                    if fb.pixel(x, y).luminance() > 0.1 {
                        n += 1;
                    }
                }
            }
            n
        };
        let left = count_in(0, 48);
        let right = count_in(48, 96);
        assert!(left > 20 && right > 20, "left {left} right {right}");
        // roughly the same silhouette size
        let ratio = left as f64 / right as f64;
        assert!((0.5..2.0).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn explicit_eye_separation_used() {
        let mut w = RenderWindow::new(32, 32);
        w.stereo = StereoMode::Anaglyph;
        w.eye_separation = 2.0;
        w.render(&scene()); // must not panic; fringes grow with separation
        assert!(w.framebuffer().covered_pixels(Color::BLACK) > 0);
    }
}
