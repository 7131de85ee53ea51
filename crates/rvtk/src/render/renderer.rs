//! The renderer: a scene of actors, slice planes, volumes and lights seen
//! by a camera.

use crate::color::Color;
use crate::math::Bounds;
use crate::render::actor::Actor;
use crate::render::camera::Camera;
use crate::render::framebuffer::Framebuffer;
use crate::render::image_slice::ImageSlice;
use crate::render::rasterizer;
use crate::render::light::Light;
use crate::render::volume::{render_volume, Volume};

/// A scene plus a camera.
#[derive(Debug, Clone)]
pub struct Renderer {
    actors: Vec<Actor>,
    slices: Vec<ImageSlice>,
    volumes: Vec<Volume>,
    /// Scene lights (empty = ambient only).
    pub lights: Vec<Light>,
    /// The scene camera.
    pub camera: Camera,
    /// Clear color.
    pub background: Color,
}

impl Default for Renderer {
    fn default() -> Renderer {
        Renderer::new()
    }
}

impl Renderer {
    /// An empty scene with one default light.
    pub fn new() -> Renderer {
        Renderer {
            actors: Vec::new(),
            slices: Vec::new(),
            volumes: Vec::new(),
            lights: vec![Light::default()],
            camera: Camera::default(),
            background: Color::BLACK,
        }
    }

    /// Adds an actor, returning its index.
    pub fn add_actor(&mut self, actor: Actor) -> usize {
        self.actors.push(actor);
        self.actors.len() - 1
    }

    /// Adds a slice plane, returning its index.
    pub fn add_image_slice(&mut self, slice: ImageSlice) -> usize {
        self.slices.push(slice);
        self.slices.len() - 1
    }

    /// Adds a volume, returning its index.
    pub fn add_volume(&mut self, volume: Volume) -> usize {
        self.volumes.push(volume);
        self.volumes.len() - 1
    }

    /// All actors.
    pub fn actors(&self) -> &[Actor] {
        &self.actors
    }

    /// Mutable actor access (for interactive reconfiguration).
    pub fn actors_mut(&mut self) -> &mut Vec<Actor> {
        &mut self.actors
    }

    /// All slice planes.
    pub fn image_slices(&self) -> &[ImageSlice] {
        &self.slices
    }

    /// All volumes.
    pub fn volumes(&self) -> &[Volume] {
        &self.volumes
    }

    /// Mutable volume access.
    pub fn volumes_mut(&mut self) -> &mut Vec<Volume> {
        &mut self.volumes
    }

    /// Removes everything from the scene.
    pub fn clear_scene(&mut self) {
        self.actors.clear();
        self.slices.clear();
        self.volumes.clear();
    }

    /// Combined world bounds of all visible props.
    pub fn scene_bounds(&self) -> Bounds {
        let mut b = Bounds::empty();
        for a in self.actors.iter().filter(|a| a.visible) {
            b.union(&a.bounds());
        }
        for s in &self.slices {
            b.union(&s.bounds());
        }
        for v in self.volumes.iter().filter(|v| v.visible) {
            b.union(&v.image.bounds());
        }
        b
    }

    /// Frames the scene with the camera (VTK `ResetCamera`).
    pub fn reset_camera(&mut self) {
        let b = self.scene_bounds();
        self.camera.reset_to_bounds(&b);
    }

    /// Renders the scene into a framebuffer, replacing every pixel: the
    /// tile pass writes each band as the background and rasterizes slice
    /// planes and geometry into it, then volumes are ray-cast against the
    /// depth. Nothing of what `fb` held before is read.
    pub fn render(&self, fb: &mut Framebuffer) {
        let vp = self
            .camera
            .projection_matrix(fb.aspect())
            .mul_mat(&self.camera.view_matrix());
        rasterizer::draw(&self.actors, &self.slices, &vp, &self.lights, self.background, fb);
        for v in &self.volumes {
            render_volume(v, &vp, fb);
        }
    }

    /// The scene rendered into a new `width`×`height` framebuffer, each of
    /// whose pixels is written once by the tile pass before it is drawn on.
    pub(crate) fn render_image(&self, width: usize, height: usize) -> Framebuffer {
        let mut fb = Framebuffer::unwritten(width, height);
        self.render(&mut fb);
        fb
    }

    /// Casts a pick ray through pixel `(px, py)` and probes the first
    /// volume it passes through, returning the world position and scalar at
    /// the nearest valid sample. This backs the DV3D cell pick display.
    pub fn pick(
        &self,
        fb_width: usize,
        fb_height: usize,
        px: f64,
        py: f64,
    ) -> Option<(crate::math::Vec3, f32)> {
        let vp = self
            .camera
            .projection_matrix(fb_width as f64 / fb_height.max(1) as f64)
            .mul_mat(&self.camera.view_matrix());
        let (origin, dir) = rasterizer::pixel_ray(&vp, fb_width, fb_height, px, py)?;
        for v in &self.volumes {
            let bounds = v.image.bounds();
            if let Some((t0, t1)) = bounds.ray_intersect(origin, dir) {
                let step = bounds.diagonal() / 200.0;
                let mut t = t0.max(0.0);
                while t <= t1 {
                    let p = origin + dir * t;
                    if let Some(s) = v.image.sample_world(p) {
                        return Some((p, s));
                    }
                    t += step;
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filters::SliceAxis;
    use crate::image_data::ImageData;
    use crate::math::Vec3;
    use crate::poly_data::PolyData;

    fn tri_actor() -> Actor {
        let mut pd = PolyData::new();
        pd.add_point(Vec3::new(-1.0, -1.0, 0.0));
        pd.add_point(Vec3::new(1.0, -1.0, 0.0));
        pd.add_point(Vec3::new(0.0, 1.0, 0.0));
        pd.triangles.push([0, 1, 2]);
        let mut a = Actor::from_poly_data(pd).with_color(Color::RED);
        a.property.lighting = false;
        a
    }

    #[test]
    fn full_scene_renders() {
        let mut r = Renderer::new();
        r.add_actor(tri_actor());
        r.reset_camera();
        let mut fb = Framebuffer::new(64, 64);
        r.render(&mut fb);
        assert!(fb.covered_pixels(r.background) > 50);
    }

    #[test]
    fn background_color_applied() {
        let mut r = Renderer::new();
        r.background = Color::rgb(0.1, 0.2, 0.3);
        let mut fb = Framebuffer::new(8, 8);
        r.render(&mut fb);
        let c = fb.pixel(4, 4);
        assert!((c.g - 0.2).abs() < 1e-6);
    }

    #[test]
    fn scene_bounds_union_actors_and_volumes() {
        let mut r = Renderer::new();
        r.add_actor(tri_actor());
        let img = ImageData::from_fn([4, 4, 4], [1.0; 3], [10.0, 0.0, 0.0], |_, _, _| 1.0);
        r.add_volume(Volume::from_image(img.clone()));
        let b = r.scene_bounds();
        assert_eq!(b.min.x, -1.0);
        assert_eq!(b.max.x, 13.0);
        // a slice plane counts too: the x = 16 plane of the grid moved on
        let mut img = img;
        img.origin = [14.0, -5.0, 0.0];
        let lut = crate::lookup_table::LookupTable::default();
        r.add_image_slice(ImageSlice::from_image(&img, SliceAxis::X, 2, lut).unwrap());
        let b = r.scene_bounds();
        assert_eq!((b.min.y, b.max.x), (-5.0, 16.0));
        r.clear_scene();
        assert!(r.scene_bounds().is_empty());
        assert!(r.image_slices().is_empty());
    }

    #[test]
    fn reset_camera_sees_everything() {
        let mut r = Renderer::new();
        r.add_actor(tri_actor());
        r.reset_camera();
        let d = r.camera.distance();
        assert!(d > 1.0 && d.is_finite());
    }

    #[test]
    fn pick_finds_volume_scalar() {
        let mut r = Renderer::new();
        let img = ImageData::from_fn([8, 8, 8], [1.0; 3], [0.0; 3], |x, _, _| x as f32);
        r.add_volume(Volume::from_image(img));
        r.reset_camera();
        let hit = r.pick(64, 64, 32.0, 32.0);
        assert!(hit.is_some());
        let (p, s) = hit.unwrap();
        assert!((s as f64 - p.x).abs() < 0.8, "scalar {s} at {p:?}");
        // a ray that misses
        let miss = r.pick(64, 64, 0.0, 0.0);
        assert!(miss.is_none() || miss.unwrap().1.is_finite());
    }

    #[test]
    fn render_with_geometry_and_volume_together() {
        let mut r = Renderer::new();
        r.add_actor(tri_actor());
        let img = ImageData::from_fn([6, 6, 6], [0.3; 3], [-0.9, -0.9, -2.0], |_, _, _| 5.0);
        let mut vol = Volume::from_image(img);
        vol.property.opacity =
            crate::lookup_table::OpacityTransferFunction::from_nodes(vec![(0.0, 0.3)]);
        r.add_volume(vol);
        r.reset_camera();
        let mut fb = Framebuffer::new(48, 48);
        r.render(&mut fb);
        assert!(fb.covered_pixels(r.background) > 100);
    }
}
