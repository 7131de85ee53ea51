//! The pre-tile row-band rasterizer, frozen as a reference engine.
//!
//! This is the engine the tile-binned path (`tile.rs`) replaced: the
//! framebuffer splits into one horizontal band per rayon worker and every
//! band scans **every** primitive — lines re-walk all their steps and point
//! sprites re-test their full bounding box once per band. It is kept
//! verbatim (not updated for speed) so property tests can assert the tile
//! engine is bit-identical to it for random scenes at any thread count,
//! and so `benches/render.rs` can measure the speedup honestly. Mirrors
//! the `cdat::expr` ↔ eager-reference precedent from PR 5.
//!
//! Its triangle kernel still takes corners by value and derives the
//! bbox from them in `f64`; the frame now stores triangles as vertex
//! indices, so each band builds that `RasterTri` view per triangle
//! (`PrimitiveList::raster_tri`) — a cost of the oracle, not of the
//! engine it once was. It shares the tile engine's vertex pass but not its
//! triangle assembly: it draws every triangle whose corners survive the
//! projection, where the tile engine drops those that reach no pixel
//! centre. It sorts every frame into painter order, the tile engine only
//! a frame that can blend.

use crate::color::Color;
use crate::math::Mat4;
use crate::render::framebuffer::Framebuffer;
use crate::render::rasterizer::{
    project_actor, sort_far_to_near, PrimitiveList, RasterLine, RasterPoint, RasterTri,
};
use crate::render::renderer::Renderer;
use crate::render::volume::render_volume;
use rayon::prelude::*;

/// Renders `r`'s scene with the historic row-band engine: clear, scanline
/// rasterization, then the (shared) volume ray-cast pass. The public
/// counterpart of [`Renderer::render`] for identity tests and benches over
/// scenes of actors: the reference has no quad kernel and draws none of
/// the scene's slice planes.
pub fn render_scene_scanline(r: &Renderer, fb: &mut Framebuffer) {
    fb.clear(r.background);
    let vp = r.camera.projection_matrix(fb.aspect()).mul_mat(&r.camera.view_matrix());
    let prims = scanline_primitives(r, &vp, fb.width(), fb.height());
    rasterize_scanline(&prims, fb);
    for v in r.volumes() {
        render_volume(v, &vp, fb);
    }
}

/// The reference's primitives: every actor through the shared vertex
/// pass, then every triangle whose three corners survived, in painter
/// order.
fn scanline_primitives(r: &Renderer, vp: &Mat4, width: usize, height: usize) -> PrimitiveList {
    let mut prims = PrimitiveList::default();
    for actor in r.actors() {
        if let Some(surface) = project_actor(actor, vp, &r.lights, width, height, &mut prims) {
            prims.tris.extend(surface.every_triangle());
        }
    }
    sort_far_to_near(&prims.verts, &mut prims.tris);
    prims
}

/// Rasterizes all primitives with one band per rayon worker, every band
/// scanning the full primitive list.
pub(crate) fn rasterize_scanline(prims: &PrimitiveList, fb: &mut Framebuffer) {
    let mut bands = fb.thread_bands();
    bands.par_iter_mut().for_each(|band| {
        let mut band = Band {
            y0: band.y0,
            rows: band.rows,
            width: band.width,
            colors: band.colors,
            depths: band.depths,
        };
        for t in &prims.tris {
            band.triangle(&prims.raster_tri(t));
        }
        for l in &prims.lines {
            band.line(l);
        }
        for p in &prims.points {
            band.point(p);
        }
    });
}

/// A horizontal slice of the framebuffer owned by one rasterizer thread.
struct Band<'a> {
    y0: usize,
    rows: usize,
    width: usize,
    colors: &'a mut [Color],
    depths: &'a mut [f32],
}

impl Band<'_> {
    #[inline]
    fn plot(&mut self, x: usize, y: usize, z: f32, c: Color) {
        if y < self.y0 || y >= self.y0 + self.rows || x >= self.width {
            return;
        }
        let i = (y - self.y0) * self.width + x;
        if z < self.depths[i] {
            if c.a >= 0.999 {
                self.colors[i] = c;
                self.depths[i] = z;
            } else if c.a > 0.001 {
                self.colors[i] = Color { a: 1.0, ..c }.lerp(self.colors[i], 1.0 - c.a);
            }
        }
    }

    fn triangle(&mut self, t: &RasterTri) {
        let ymin = t.sy.iter().cloned().fold(f64::INFINITY, f64::min).floor().max(self.y0 as f64);
        let ymax = t
            .sy
            .iter()
            .cloned()
            .fold(f64::NEG_INFINITY, f64::max)
            .ceil()
            .min((self.y0 + self.rows - 1) as f64);
        if ymin > ymax {
            return;
        }
        let xmin = t.sx.iter().cloned().fold(f64::INFINITY, f64::min).floor().max(0.0);
        let xmax = t
            .sx
            .iter()
            .cloned()
            .fold(f64::NEG_INFINITY, f64::max)
            .ceil()
            .min((self.width - 1) as f64);
        if xmin > xmax {
            return;
        }
        // signed area; reject degenerate
        let area = (t.sx[1] - t.sx[0]) * (t.sy[2] - t.sy[0])
            - (t.sx[2] - t.sx[0]) * (t.sy[1] - t.sy[0]);
        if area.abs() < 1e-12 {
            return;
        }
        let inv_area = 1.0 / area;
        for y in (ymin as usize)..=(ymax as usize) {
            let py = y as f64;
            for x in (xmin as usize)..=(xmax as usize) {
                let px = x as f64;
                // barycentric coordinates
                let w0 = ((t.sx[1] - px) * (t.sy[2] - py) - (t.sx[2] - px) * (t.sy[1] - py))
                    * inv_area;
                let w1 = ((t.sx[2] - px) * (t.sy[0] - py) - (t.sx[0] - px) * (t.sy[2] - py))
                    * inv_area;
                let w2 = 1.0 - w0 - w1;
                if w0 < -1e-9 || w1 < -1e-9 || w2 < -1e-9 {
                    continue;
                }
                let z = (w0 * t.z[0] as f64 + w1 * t.z[1] as f64 + w2 * t.z[2] as f64) as f32;
                if !(-1.001..=1.001).contains(&z) {
                    continue; // outside clip volume
                }
                let c = Color {
                    r: (w0 as f32) * t.color[0].r + (w1 as f32) * t.color[1].r
                        + (w2 as f32) * t.color[2].r,
                    g: (w0 as f32) * t.color[0].g + (w1 as f32) * t.color[1].g
                        + (w2 as f32) * t.color[2].g,
                    b: (w0 as f32) * t.color[0].b + (w1 as f32) * t.color[1].b
                        + (w2 as f32) * t.color[2].b,
                    a: (w0 as f32) * t.color[0].a + (w1 as f32) * t.color[1].a
                        + (w2 as f32) * t.color[2].a,
                };
                self.plot(x, y, z, c);
            }
        }
    }

    fn line(&mut self, l: &RasterLine) {
        let dx = l.b.0 - l.a.0;
        let dy = l.b.1 - l.a.1;
        let steps = dx.abs().max(dy.abs()).ceil().max(1.0);
        // skip lines entirely outside this band
        let (ly_min, ly_max) = (l.a.1.min(l.b.1), l.a.1.max(l.b.1));
        if ly_max < self.y0 as f64 - 1.0 || ly_min > (self.y0 + self.rows) as f64 {
            return;
        }
        let n = steps as usize;
        for s in 0..=n {
            let t = s as f64 / steps;
            let x = l.a.0 + dx * t;
            let y = l.a.1 + dy * t;
            if x < 0.0 || y < 0.0 {
                continue;
            }
            let z = l.a.2 + (l.b.2 - l.a.2) * t as f32;
            if !(-1.001..=1.001).contains(&z) {
                continue;
            }
            // nudge lines toward the viewer so they win ties against the
            // coplanar surfaces they annotate
            let c = l.color_a.lerp(l.color_b, t as f32);
            self.plot(x.round() as usize, y.round() as usize, z - 2e-4, c);
        }
    }

    fn point(&mut self, p: &RasterPoint) {
        if !(-1.001..=1.001).contains(&p.z) {
            return;
        }
        let r = p.radius.max(0.5) as f64;
        let (x0, x1) = ((p.x - r).floor().max(0.0), (p.x + r).ceil());
        let (y0, y1) = ((p.y - r).floor().max(0.0), (p.y + r).ceil());
        for y in (y0 as usize)..=(y1 as usize) {
            for x in (x0 as usize)..=(x1 as usize) {
                let d2 = (x as f64 - p.x).powi(2) + (y as f64 - p.y).powi(2);
                if d2 <= r * r {
                    self.plot(x, y, p.z, p.color);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::math::Vec3;
    use crate::poly_data::PolyData;
    use crate::render::actor::Actor;
    use crate::render::rasterizer::build_primitives;

    #[test]
    fn the_reference_keeps_every_triangle_whose_corners_survive() {
        // A parallel camera on a 65 × 65 screen puts world (x, y) at
        // pixel (16x + 32, 32 − 16y). Eight 0.3-pixel triangles sit
        // half-way between pixel centres (no centre within reach), eight
        // have a corner on a centre, one is degenerate and one has a
        // corner the projection drops.
        let mut pd = PolyData::new();
        let mut tri = |corners: [(f64, f64); 3]| {
            let world = |(px, py): (f64, f64)| Vec3::new(px / 16.0 - 2.0, 2.0 - py / 16.0, 0.0);
            let ids = corners.map(|p| pd.add_point(world(p)));
            pd.triangles.push(ids);
        };
        for i in 0..8 {
            let x = f64::from(20 + 4 * i);
            tri([(x + 0.4, 30.4), (x + 0.7, 30.4), (x + 0.4, 30.7)]);
            tri([(x, 40.0), (x + 0.3, 40.0), (x, 40.3)]);
        }
        tri([(20.0, 50.0), (30.0, 50.0), (40.0, 50.0)]);
        tri([(20.0, 55.0), (f64::INFINITY, 55.0), (20.0, 58.0)]);
        let mut r = Renderer::new();
        r.add_actor(Actor::from_poly_data(pd));
        r.camera.position = Vec3::new(0.0, 0.0, 5.0);
        r.camera.focal_point = Vec3::ZERO;
        r.camera.parallel_projection = true;
        r.camera.parallel_scale = 2.0;
        r.camera.clipping_range = (1.0, 9.0);
        let vp = r.camera.projection_matrix(1.0).mul_mat(&r.camera.view_matrix());
        let reference = scanline_primitives(&r, &vp, 65, 65);
        assert_eq!(reference.tris.len(), 8 + 8 + 1);
        let mut tile = PrimitiveList::default();
        for actor in r.actors() {
            build_primitives(actor, &vp, &r.lights, 65, 65, &mut tile);
        }
        assert_eq!(tile.tris.len(), 8);
    }
}
