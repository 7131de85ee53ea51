//! Tile-binned software rasterization: triangles (Gouraud-shaded,
//! z-buffered), depth-interpolated lines and point sprites.
//!
//! Geometry is first transformed and shaded into screen-space primitive
//! lists and the triangles put in painter order (a sort of 8-byte
//! key/index words, then one gather of the payloads — see
//! `sort_far_to_near`); a bucketing pass then bins each primitive into
//! the 32×32 screen tiles its bbox overlaps, and rayon rasterizes tile-row
//! bands in parallel — each tile owns its pixels, so no locking is needed,
//! and a tile visits only the primitives binned into it (see `tile.rs`).
//! Output is bit-identical to the historic row-band engine kept in
//! `scanline_ref.rs`.

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
    let incident: Vec<_> = lights.iter().map(Light::incident).collect();
    let vertex_color = |i: usize| -> Color {
        let mut c = match (&prop.lookup_table, &pd.scalars) {
            (Some(lut), Some(s)) => lut.map(s[i]),
            _ => prop.color,
        };
        c.a *= base_alpha;
        if prop.lighting {
            if let Some(normals) = &pd.normals {
                let n = actor.transform.transform_vector(normals[i]).normalized();
                let mut diffuse = 0.0f32;
                for light in &incident {
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
            out.tris.reserve(pd.triangles.len());
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
/// the one front half of both the tile and scanline engines, so the
/// reference sees the same primitive order the tile engine bins.
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
    sort_far_to_near(&mut prims.tris);
    prims
}

/// Maps a z-sum to a `u32` whose unsigned order is the *reverse* of
/// `f32::total_cmp`: greater z (farther) gives a smaller key. Distinct
/// bit patterns (±0.0, NaN payloads) keep distinct keys, exactly the
/// cases `total_cmp` tells apart.
fn far_first_key(z_sum: f32) -> u32 {
    let bits = z_sum.to_bits();
    if bits >> 31 == 0 {
        !bits & 0x7fff_ffff
    } else {
        bits
    }
}

/// Painter order: far→near by the sum of the vertex depths, equal sums
/// in list order — the permutation a stable sort comparing
/// `zb.total_cmp(&za)` yields. The sort runs on 8-byte
/// `(key << 32 | index)` words instead of the 112-byte payloads: each
/// z-sum is computed once, the index in the low half breaks ties in
/// list order (so an unstable sort is exact — no two words are equal),
/// and one gather then moves every payload once.
fn sort_far_to_near(tris: &mut Vec<RasterTri>) {
    // dv3dlint: allow(no_panic) -- 2^32 triangles are 480 GB of payload; the CSR bin offsets are u32 too
    let n = u32::try_from(tris.len()).expect("triangle count fits the u32 sort index");
    let mut order: Vec<u64> = tris
        .iter()
        .zip(0..n)
        .map(|(t, i)| u64::from(far_first_key(t.z.iter().sum::<f32>())) << 32 | u64::from(i))
        .collect();
    order.sort_unstable();
    *tris = order.iter().map(|&word| tris[(word & 0xffff_ffff) as usize]).collect();
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
    use crate::render::test_rng::Rng;

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

    /// A finite depth: both zeros, subnormals, a small pool (so sums tie
    /// exactly) and plain values.
    fn finite_depth(rng: &mut Rng) -> f32 {
        const POOL: [f32; 6] = [0.25, -0.25, 0.5, 1.0, -1.0, 1e-3];
        match rng.next() % 8 {
            0 => 0.0,
            1 => -0.0,
            2 => f32::from_bits(rng.next() as u32 & 0x007f_ffff), // subnormal
            3 => -f32::from_bits(rng.next() as u32 & 0x007f_ffff),
            4 | 5 => POOL[(rng.next() % POOL.len() as u64) as usize],
            _ => (rng.next() % 2_000_001) as f32 / 1_000_000.0 - 1.0,
        }
    }

    /// Depth triples that stress the key: finite ones, sums that collide
    /// as `+0.0` / `-0.0`, one NaN (either sign, any payload, quiet or
    /// signalling), infinities, and `∞ + -∞`. At most one NaN enters a
    /// sum: which payload an x86 add of *two* NaNs keeps depends on
    /// operand order, the compiler may order the comparator's two sums
    /// differently, and std's sort then panics ("does not correctly
    /// implement a total order") — the old comparator defines no order
    /// to compare against there.
    fn stress_depths(rng: &mut Rng) -> [f32; 3] {
        let (x, y) = (finite_depth(rng), finite_depth(rng));
        let payload = rng.next() as u32 & 0x007f_ffff | 1;
        match rng.next() % 12 {
            0 => [x * 0.0, 0.0, -0.0],
            1 => [-0.0, -0.0, -0.0],
            2 => [f32::from_bits(0x7f80_0000 | payload), x, y],
            3 => [x, f32::from_bits(0xff80_0000 | payload), y],
            4 => [f32::INFINITY, x, y],
            5 => [x, y, f32::NEG_INFINITY],
            6 => [f32::INFINITY, f32::NEG_INFINITY, x],
            _ => [x, y, finite_depth(rng)],
        }
    }

    #[test]
    fn key_sort_is_the_stable_total_cmp_permutation() {
        let mut rng = Rng(0x9e37_79b9_7f4a_7c15);
        for len in [0usize, 1, 2, 3, 17, 1_000, 120_000] {
            // sx[0] remembers the list position, so a permutation that
            // orders equal sums differently is caught
            let tris: Vec<RasterTri> = (0..len)
                .map(|i| RasterTri {
                    sx: [i as f64, 0.0, 0.0],
                    z: stress_depths(&mut rng),
                    ..RasterTri::default()
                })
                .collect();
            let mut expected = tris.clone();
            // the comparator `build_sorted_primitives` used before the
            // key sort, verbatim
            expected.sort_by(|a, b| {
                let za = a.z.iter().sum::<f32>();
                let zb = b.z.iter().sum::<f32>();
                zb.total_cmp(&za)
            });
            let mut sorted = tris;
            sort_far_to_near(&mut sorted);
            assert_eq!(sorted.len(), expected.len());
            for (at, (got, want)) in sorted.iter().zip(&expected).enumerate() {
                assert_eq!(
                    (got.sx[0], got.z.map(f32::to_bits)),
                    (want.sx[0], want.z.map(f32::to_bits)),
                    "len {len}: position {at} differs"
                );
            }
        }
    }

    #[test]
    fn far_first_key_reverses_total_cmp() {
        let specials = [
            f32::NAN,
            -f32::NAN,
            f32::from_bits(0x7f80_0001),
            f32::from_bits(0xffc0_1234),
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::MAX,
            f32::MIN,
            f32::MIN_POSITIVE,
            -f32::MIN_POSITIVE,
            f32::from_bits(1),
            f32::from_bits(0x8000_0001),
            0.0,
            -0.0,
            1.0,
            -1.0,
            0.75,
            -0.75,
        ];
        for &a in &specials {
            for &b in &specials {
                assert_eq!(
                    far_first_key(a).cmp(&far_first_key(b)),
                    b.total_cmp(&a),
                    "{a:?} ({:#x}) vs {b:?} ({:#x})",
                    a.to_bits(),
                    b.to_bits()
                );
            }
        }
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
