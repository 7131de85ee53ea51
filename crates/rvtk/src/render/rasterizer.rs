//! Tile-binned software rasterization: triangles (Gouraud-shaded,
//! z-buffered), depth-interpolated lines and point sprites.
//!
//! Geometry is first transformed and shaded into screen-space primitive
//! lists; a bucketing pass then bins each primitive into the 32×32 screen
//! tiles its bbox overlaps, and rayon rasterizes tile-row bands in parallel
//! — each tile owns its pixels, so no locking is needed, and a tile visits
//! only the primitives binned into it (see `tile.rs`). Output is
//! bit-identical to the historic row-band engine kept in `scanline_ref.rs`.

use crate::color::Color;
use crate::math::{Mat4, Vec3};
use crate::render::actor::{Actor, Representation};
use crate::render::framebuffer::{Framebuffer, TileGrid};
use crate::render::light::Light;
use crate::render::tile;

/// A transformed, shaded triangle ready to rasterize.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct RasterTri {
    /// Screen x/y per vertex.
    pub sx: [f64; 3],
    pub sy: [f64; 3],
    /// NDC depth per vertex.
    pub z: [f32; 3],
    /// Shaded vertex colors.
    pub color: [Color; 3],
}

/// A screen-space line segment.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct RasterLine {
    pub a: (f64, f64, f32),
    pub b: (f64, f64, f32),
    pub color_a: Color,
    pub color_b: Color,
}

/// A screen-space point sprite.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct RasterPoint {
    pub x: f64,
    pub y: f64,
    pub z: f32,
    pub radius: f32,
    pub color: Color,
}

/// All primitives of a frame, in screen space.
#[derive(Debug, Default)]
pub(crate) struct PrimitiveList {
    pub tris: Vec<RasterTri>,
    pub lines: Vec<RasterLine>,
    pub points: Vec<RasterPoint>,
}

/// Transforms and shades one actor into screen-space primitives.
pub(crate) fn build_primitives(
    actor: &Actor,
    view_proj: &Mat4,
    lights: &[Light],
    width: usize,
    height: usize,
    out: &mut PrimitiveList,
) {
    if !actor.visible || actor.property.opacity <= 0.0 {
        return;
    }
    let pd = &actor.poly_data;
    let mvp = view_proj.mul_mat(&actor.transform);
    let (w, h) = (width as f64, height as f64);

    // Transform all points once.
    let mut screen: Vec<Option<(f64, f64, f32)>> = Vec::with_capacity(pd.points.len());
    for &p in &pd.points {
        let (clip, cw) = mvp.transform_point4(p);
        if cw <= 1e-9 {
            screen.push(None); // behind the camera
            continue;
        }
        let ndc = clip / cw;
        if !(ndc.x.is_finite() && ndc.y.is_finite() && ndc.z.is_finite()) {
            screen.push(None);
            continue;
        }
        let sx = (ndc.x + 1.0) / 2.0 * (w - 1.0);
        let sy = (1.0 - ndc.y) / 2.0 * (h - 1.0);
        screen.push(Some((sx, sy, ndc.z as f32)));
    }

    // Shade all points once.
    let prop = &actor.property;
    let base_alpha = prop.opacity;
    let vertex_color = |i: usize| -> Color {
        let mut c = match (&prop.lookup_table, &pd.scalars) {
            (Some(lut), Some(s)) => lut.map(s[i]),
            _ => prop.color,
        };
        c.a *= base_alpha;
        if prop.lighting {
            if let Some(normals) = &pd.normals {
                let n = actor.transform.transform_vector(normals[i]);
                let mut diffuse = 0.0f32;
                for light in lights {
                    diffuse += light.diffuse(n);
                }
                let k = (prop.ambient + (1.0 - prop.ambient) * diffuse.min(1.0)).min(1.0);
                c = c.scaled(k);
            }
        }
        c.clamped()
    };
    let colors: Vec<Color> = (0..pd.points.len()).map(vertex_color).collect();

    match prop.representation {
        Representation::Surface => {
            for tri in &pd.triangles {
                let [a, b, c] = tri.map(|i| i as usize);
                if let (Some(pa), Some(pb), Some(pc)) = (screen[a], screen[b], screen[c]) {
                    out.tris.push(RasterTri {
                        sx: [pa.0, pb.0, pc.0],
                        sy: [pa.1, pb.1, pc.1],
                        z: [pa.2, pb.2, pc.2],
                        color: [colors[a], colors[b], colors[c]],
                    });
                }
            }
            push_polylines(pd, &screen, &colors, out);
        }
        Representation::Wireframe => {
            for tri in &pd.triangles {
                for (a, b) in [(tri[0], tri[1]), (tri[1], tri[2]), (tri[2], tri[0])] {
                    let (a, b) = (a as usize, b as usize);
                    if let (Some(pa), Some(pb)) = (screen[a], screen[b]) {
                        out.lines.push(RasterLine {
                            a: pa,
                            b: pb,
                            color_a: colors[a],
                            color_b: colors[b],
                        });
                    }
                }
            }
            push_polylines(pd, &screen, &colors, out);
        }
        Representation::Points => {
            for (i, s) in screen.iter().enumerate() {
                if let Some(p) = s {
                    out.points.push(RasterPoint {
                        x: p.0,
                        y: p.1,
                        z: p.2,
                        radius: prop.point_size / 2.0,
                        color: colors[i],
                    });
                }
            }
        }
    }
}

fn push_polylines(
    pd: &crate::poly_data::PolyData,
    screen: &[Option<(f64, f64, f32)>],
    colors: &[Color],
    out: &mut PrimitiveList,
) {
    for line in &pd.lines {
        for seg in line.windows(2) {
            let (a, b) = (seg[0] as usize, seg[1] as usize);
            if let (Some(pa), Some(pb)) = (screen[a], screen[b]) {
                out.lines.push(RasterLine {
                    a: pa,
                    b: pb,
                    color_a: colors[a],
                    color_b: colors[b],
                });
            }
        }
    }
}

/// Rasterizes all primitives into the framebuffer via the tile-binned
/// engine: bin into the default 32×32 grid, then rasterize occupied tiles
/// with rayon (tile-row bands in parallel).
pub(crate) fn rasterize(prims: &PrimitiveList, fb: &mut Framebuffer) {
    let grid = TileGrid::with_default_tile(fb.width(), fb.height());
    let bins = tile::bin_primitives(prims, &grid);
    tile::rasterize_bins(prims, &bins, &grid, fb);
}

/// Builds the frame's screen-space primitives for `actors` and sorts
/// triangles far→near (painter-friendly ordering for translucency) —
/// the shared front half of both the tile and scanline engines.
pub(crate) fn build_sorted_primitives(
    actors: &[Actor],
    view_proj: &Mat4,
    lights: &[Light],
    width: usize,
    height: usize,
) -> PrimitiveList {
    let mut prims = PrimitiveList::default();
    for actor in actors {
        build_primitives(actor, view_proj, lights, width, height, &mut prims);
    }
    // Painter-friendly ordering for translucent surfaces: draw far→near.
    prims.tris.sort_by(|a, b| {
        let za = a.z.iter().sum::<f32>();
        let zb = b.z.iter().sum::<f32>();
        zb.total_cmp(&za)
    });
    prims
}

/// Convenience entry point: builds primitives for `actors` and rasterizes
/// them into `fb` using `view_proj` and `lights`.
pub(crate) fn draw_actors(
    actors: &[Actor],
    view_proj: &Mat4,
    lights: &[Light],
    fb: &mut Framebuffer,
) {
    let prims = build_sorted_primitives(actors, view_proj, lights, fb.width(), fb.height());
    rasterize(&prims, fb);
}

/// Unprojects a screen pixel back to a world-space ray; used by pick
/// operations. Returns `(origin, direction)` or `None` for singular
/// matrices.
pub fn pixel_ray(
    view_proj: &Mat4,
    width: usize,
    height: usize,
    px: f64,
    py: f64,
) -> Option<(Vec3, Vec3)> {
    let inv = view_proj.inverse()?;
    let ndc_x = 2.0 * px / (width.max(2) - 1) as f64 - 1.0;
    let ndc_y = 1.0 - 2.0 * py / (height.max(2) - 1) as f64;
    let near = inv.transform_point(Vec3::new(ndc_x, ndc_y, -1.0));
    let far = inv.transform_point(Vec3::new(ndc_x, ndc_y, 1.0));
    Some((near, (far - near).normalized()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::poly_data::PolyData;
    use crate::render::camera::Camera;

    fn screen_tri() -> Actor {
        // Big triangle in the z=0 plane, camera straight on.
        let mut pd = PolyData::new();
        pd.add_point(Vec3::new(-1.0, -1.0, 0.0));
        pd.add_point(Vec3::new(1.0, -1.0, 0.0));
        pd.add_point(Vec3::new(0.0, 1.0, 0.0));
        pd.triangles.push([0, 1, 2]);
        let mut a = Actor::from_poly_data(pd).with_color(Color::RED);
        a.property.lighting = false;
        a
    }

    fn front_camera() -> Mat4 {
        let cam = Camera {
            position: Vec3::new(0.0, 0.0, 5.0),
            focal_point: Vec3::ZERO,
            clipping_range: (0.1, 100.0),
            ..Camera::default()
        };
        cam.projection_matrix(1.0).mul_mat(&cam.view_matrix())
    }

    #[test]
    fn triangle_covers_pixels() {
        let mut fb = Framebuffer::new(64, 64);
        draw_actors(&[screen_tri()], &front_camera(), &[Light::default()], &mut fb);
        let covered = fb.covered_pixels(Color::BLACK);
        assert!(covered > 200, "covered {covered}");
        // centre pixel is red
        let c = fb.pixel(32, 40);
        assert!(c.r > 0.9 && c.g < 0.1, "{c:?}");
    }

    #[test]
    fn nearer_triangle_occludes() {
        let near = screen_tri(); // z = 0
        let mut far_pd = PolyData::new();
        far_pd.add_point(Vec3::new(-1.0, -1.0, -1.0));
        far_pd.add_point(Vec3::new(1.0, -1.0, -1.0));
        far_pd.add_point(Vec3::new(0.0, 1.0, -1.0));
        far_pd.triangles.push([0, 1, 2]);
        let mut far = Actor::from_poly_data(far_pd).with_color(Color::GREEN);
        far.property.lighting = false;

        let mut fb = Framebuffer::new(64, 64);
        // draw far one *after* near one: depth test must still favour near
        draw_actors(&[near, far], &front_camera(), &[], &mut fb);
        let c = fb.pixel(32, 40);
        assert!(c.r > 0.9 && c.g < 0.1, "near (red) should win: {c:?}");
    }

    #[test]
    fn behind_camera_geometry_skipped() {
        let mut a = screen_tri();
        a.transform = Mat4::translate(Vec3::new(0.0, 0.0, 100.0)); // behind eye at z=5
        let mut fb = Framebuffer::new(32, 32);
        draw_actors(&[a], &front_camera(), &[], &mut fb);
        assert_eq!(fb.covered_pixels(Color::BLACK), 0);
    }

    #[test]
    fn invisible_actor_skipped() {
        let mut a = screen_tri();
        a.visible = false;
        let mut fb = Framebuffer::new(32, 32);
        draw_actors(&[a], &front_camera(), &[], &mut fb);
        assert_eq!(fb.covered_pixels(Color::BLACK), 0);
    }

    #[test]
    fn wireframe_draws_fewer_pixels_than_surface() {
        let mut fb_s = Framebuffer::new(64, 64);
        draw_actors(&[screen_tri()], &front_camera(), &[], &mut fb_s);
        let mut wf = screen_tri();
        wf.property.representation = Representation::Wireframe;
        let mut fb_w = Framebuffer::new(64, 64);
        draw_actors(&[wf], &front_camera(), &[], &mut fb_w);
        let (s, w) = (fb_s.covered_pixels(Color::BLACK), fb_w.covered_pixels(Color::BLACK));
        assert!(w > 0 && w < s, "wireframe {w} vs surface {s}");
    }

    #[test]
    fn points_mode_draws_sprites() {
        let mut a = screen_tri();
        a.property.representation = Representation::Points;
        a.property.point_size = 6.0;
        let mut fb = Framebuffer::new(64, 64);
        draw_actors(&[a], &front_camera(), &[], &mut fb);
        let covered = fb.covered_pixels(Color::BLACK);
        assert!(covered >= 3, "{covered}");
        assert!(covered < 200);
    }

    #[test]
    fn scalar_coloring_via_lut() {
        use crate::lookup_table::{ColormapName, LookupTable};
        let mut a = screen_tri();
        a.poly_data.scalars = Some(vec![0.0, 0.0, 1.0]);
        a.property.lookup_table = Some(LookupTable::new(ColormapName::Grayscale, (0.0, 1.0)));
        a.property.lighting = false;
        let mut fb = Framebuffer::new(64, 64);
        draw_actors(&[a], &front_camera(), &[], &mut fb);
        // bottom of the triangle (scalar 0) is darker than the top (scalar 1)
        let bottom = fb.pixel(32, 55);
        let top = fb.pixel(32, 12);
        assert!(top.luminance() > bottom.luminance(), "top {top:?} bottom {bottom:?}");
    }

    #[test]
    fn lighting_darkens_grazing_surfaces() {
        let mut lit = screen_tri();
        lit.property.lighting = true;
        lit.poly_data.normals = Some(vec![Vec3::new(1.0, 0.0, 0.0); 3]); // ⊥ to light below
        let mut fb = Framebuffer::new(32, 32);
        let light = Light::directional(Vec3::new(0.0, 0.0, -1.0));
        draw_actors(&[lit], &front_camera(), &[light], &mut fb);
        let c = fb.pixel(16, 20);
        // only ambient survives
        assert!(c.r > 0.0 && c.r < 0.35, "{c:?}");
    }

    #[test]
    fn translucent_blends_with_background() {
        let mut a = screen_tri().with_opacity(0.5);
        a.property.lighting = false;
        let mut fb = Framebuffer::new(32, 32);
        fb.clear(Color::BLUE);
        draw_actors(&[a], &front_camera(), &[], &mut fb);
        let c = fb.pixel(16, 20);
        assert!(c.r > 0.3 && c.b > 0.3, "{c:?}");
    }

    #[test]
    fn degenerate_triangle_is_skipped() {
        // all three vertices collinear: zero area, no pixels, no panic
        let mut pd = PolyData::new();
        pd.add_point(Vec3::new(-1.0, 0.0, 0.0));
        pd.add_point(Vec3::new(0.0, 0.0, 0.0));
        pd.add_point(Vec3::new(1.0, 0.0, 0.0));
        pd.triangles.push([0, 1, 2]);
        let mut a = Actor::from_poly_data(pd).with_color(Color::WHITE);
        a.property.lighting = false;
        let mut fb = Framebuffer::new(32, 32);
        draw_actors(&[a], &front_camera(), &[], &mut fb);
        // a 1-pixel-wide line of coverage at most (the bbox sweep may hit
        // the exact edge); nothing blows up
        assert!(fb.covered_pixels(Color::BLACK) <= 64);
    }

    #[test]
    fn partially_behind_camera_geometry_is_partially_culled() {
        // one vertex behind the eye: the triangle is dropped (conservative
        // near-plane handling), not smeared across the screen
        let mut pd = PolyData::new();
        pd.add_point(Vec3::new(-1.0, -1.0, 0.0));
        pd.add_point(Vec3::new(1.0, -1.0, 0.0));
        pd.add_point(Vec3::new(0.0, 1.0, 50.0)); // behind the eye at z=5
        pd.triangles.push([0, 1, 2]);
        let mut a = Actor::from_poly_data(pd).with_color(Color::WHITE);
        a.property.lighting = false;
        let mut fb = Framebuffer::new(32, 32);
        draw_actors(&[a], &front_camera(), &[], &mut fb);
        assert_eq!(fb.covered_pixels(Color::BLACK), 0);
    }

    #[test]
    fn parallel_projection_renders() {
        let cam = Camera {
            position: Vec3::new(0.0, 0.0, 5.0),
            focal_point: Vec3::ZERO,
            parallel_projection: true,
            parallel_scale: 2.0,
            clipping_range: (0.1, 100.0),
            ..Camera::default()
        };
        let vp = cam.projection_matrix(1.0).mul_mat(&cam.view_matrix());
        let mut fb = Framebuffer::new(64, 64);
        draw_actors(&[screen_tri()], &vp, &[], &mut fb);
        assert!(fb.covered_pixels(Color::BLACK) > 100);
        // orthographic: depth ordering still works
        assert!(fb.depth_at(32, 40) < 1.0);
    }

    #[test]
    fn tiny_framebuffer_does_not_panic() {
        let mut fb = Framebuffer::new(2, 2);
        draw_actors(&[screen_tri()], &front_camera(), &[], &mut fb);
        let mut fb1 = Framebuffer::new(1, 1);
        draw_actors(&[screen_tri()], &front_camera(), &[], &mut fb1);
    }

    #[test]
    fn pixel_ray_hits_focal_plane() {
        let vp = front_camera();
        let (o, d) = pixel_ray(&vp, 64, 64, 31.5, 31.5).unwrap();
        // centre ray travels toward -z through the origin
        assert!(d.z < -0.9, "{d:?}");
        let t = -o.z / d.z;
        let hit = o + d * t;
        assert!(hit.x.abs() < 0.05 && hit.y.abs() < 0.05, "{hit:?}");
    }
}
