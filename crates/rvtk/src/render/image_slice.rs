//! Slice planes drawn as images: one texture-mapped quad per plane, the way
//! VTK draws a slice (`vtkImageActor`), not a mesh of two triangles per
//! grid cell.
//!
//! An [`ImageSlice`] holds the plane's four world-space corners and its
//! `nu × nv` texture — the plane's grid values, colour-mapped once when the
//! slice is built. At draw time the rasterizer turns it into a
//! [`ScreenQuad`]: the inverse of the plane's homography and its NDC depth,
//! both as functions of the pixel centre, plus the pixel box of the
//! projected corners. The quad is binned to every tile that box covers, and
//! the kernel in `tile.rs` shades each covered pixel, so the cost follows
//! the pixels the plane covers, not its cell count. DESIGN §21 has the
//! rules (diagonal split, depth and clip, draw order) and why the mesh it
//! replaced is a bound for it, not an identity.
//!
//! A hot-path file that denies `clippy::indexing_slicing`: the texture is
//! built inside every frame the slicer draws.

// Hot path: a slice plane's texture is built from image data every frame.
#![cfg_attr(not(test), deny(clippy::indexing_slicing))]

use crate::color::Color;
use crate::filters::SliceAxis;
use crate::image_data::{value_range, ImageData};
use crate::lookup_table::LookupTable;
use crate::math::{Bounds, Mat4, Vec3};
use crate::{Result, VtkError};
use std::sync::Arc;

/// A pseudocolour slice plane through image data, drawn as one textured
/// quad.
#[derive(Debug, Clone, PartialEq)]
pub struct ImageSlice {
    /// World positions of the grid points `(0, 0)`, `(nu − 1, 0)`,
    /// `(0, nv − 1)` and `(nu − 1, nv − 1)` of the plane — the extreme
    /// points of the mesh that drew it before, so the scene bounds do not
    /// move. The plane is a parallelogram: the last corner is the sum of
    /// the middle two less the first.
    corners: [Vec3; 4],
    /// Texels per row (`u`) and rows (`v`).
    nu: usize,
    nv: usize,
    /// The plane's grid values colour-mapped, row after row: `nu × nv` of
    /// them. Shared, so a cloned scene (a stereo eye) copies no texel.
    texels: Arc<[Color]>,
}

impl ImageSlice {
    /// The plane `axis = slice_index` of `img`, each grid value mapped to
    /// the colour the slicer's mesh actor gave that grid point: `lut.map`
    /// (a NaN takes the table's NaN colour) at full opacity, clamped to
    /// `[0, 1]`. A table whose range is degenerate is first ranged to the
    /// plane's non-NaN values, as `Actor::with_lookup_table` ranges it. The
    /// in-plane axes are `(y, z)`, `(x, z)` and `(x, y)` for the three
    /// axes, the order that keeps `+normal` consistent.
    pub fn from_image(
        img: &ImageData,
        axis: SliceAxis,
        slice_index: usize,
        mut lut: LookupTable,
    ) -> Result<ImageSlice> {
        let [nx, ny, nz] = img.dims;
        let (n, nu, nv) = match axis {
            SliceAxis::X => (nx, ny, nz),
            SliceAxis::Y => (ny, nx, nz),
            SliceAxis::Z => (nz, nx, ny),
        };
        if slice_index >= n {
            return Err(VtkError::Invalid(format!(
                "slice index {slice_index} out of range for axis {} (len {n})",
                axis.index()
            )));
        }
        let ijk = |u: usize, v: usize| match axis {
            SliceAxis::X => (slice_index, u, v),
            SliceAxis::Y => (u, slice_index, v),
            SliceAxis::Z => (u, v, slice_index),
        };
        let values: Vec<f32> = (0..nv)
            .flat_map(|v| (0..nu).map(move |u| ijk(u, v)))
            .map(|(i, j, k)| img.scalars.get(img.index(i, j, k)).copied().unwrap_or(f32::NAN))
            .collect();
        if lut.range.0 >= lut.range.1 {
            if let Some(range) = value_range(&values) {
                lut.set_range(range);
            }
        }
        let corner = |u: usize, v: usize| {
            let (i, j, k) = ijk(u, v);
            img.point(i, j, k)
        };
        let (last_u, last_v) = (nu.saturating_sub(1), nv.saturating_sub(1));
        Ok(ImageSlice {
            corners: [corner(0, 0), corner(last_u, 0), corner(0, last_v), corner(last_u, last_v)],
            nu,
            nv,
            texels: values.iter().map(|&v| lut.map(v).clamped()).collect(),
        })
    }

    /// World-space bounds: the box of the four corners.
    pub(crate) fn bounds(&self) -> Bounds {
        let mut b = Bounds::empty();
        for &p in &self.corners {
            b.include(p);
        }
        b
    }

    /// The colour-mapped texture, row after row, and its `(nu, nv)` size.
    pub fn texels(&self) -> (&[Color], (usize, usize)) {
        (&self.texels, (self.nu, self.nv))
    }

    /// The slice as `view_proj` puts it on a `width × height` screen, or
    /// `None` when it covers no pixel centre: fewer than two texels along
    /// an axis (no cell, as the mesh had no triangle), or a plane seen
    /// exactly edge-on.
    pub(crate) fn to_screen(
        &self,
        view_proj: &Mat4,
        width: usize,
        height: usize,
    ) -> Option<ScreenQuad> {
        if self.nu < 2 || self.nv < 2 {
            return None;
        }
        // the plane point at grid coordinates (s, t) is p00 + s·du + t·dv,
        // so its clip coordinates are o + s·u + t·v
        let [p00, p10, p01, _] = self.corners;
        let du = (p10 - p00) / (self.nu - 1) as f64;
        let dv = (p01 - p00) / (self.nv - 1) as f64;
        let clip = |p: Vec3, w: f64| view_proj.m.map(|[a, b, c, d]| a * p.x + b * p.y + c * p.z + d * w);
        let ([ux, uy, uz, uw], [vx, vy, vz, vw], [ox, oy, oz, ow]) =
            (clip(du, 0.0), clip(dv, 0.0), clip(p00, 1.0));
        // the screen mapping of `build_primitives` — sx = (x/w + 1)/2·(W − 1),
        // sy = (1 − y/w)/2·(H − 1) — times w is linear in (s, t, 1): this
        // homography takes (s, t, 1) to w·(sx, sy, 1)
        let (hw, hh) = ((width as f64 - 1.0) / 2.0, (height as f64 - 1.0) / 2.0);
        let homography = [
            [hw * (ux + uw), hw * (vx + vw), hw * (ox + ow)],
            [hh * (uw - uy), hh * (vw - vy), hh * (ow - oy)],
            [uw, vw, ow],
        ];
        let to_plane = inverse3(homography)?;
        // NDC depth (oz + s·uz + t·vz)/w is linear in (s/w, t/w, 1/w), which
        // `to_plane` gives as linear functions of the pixel centre
        let [[a0, a1, a2], [b0, b1, b2], [c0, c1, c2]] = to_plane;
        let depth = [
            uz * a0 + vz * b0 + oz * c0,
            uz * a1 + vz * b1 + oz * c1,
            uz * a2 + vz * b2 + oz * c2,
        ];
        let [[h00, h01, h02], [h10, h11, h12], [h20, h21, h22]] = homography;
        let on_screen = |s: f64, t: f64| {
            let w = h20 * s + h21 * t + h22;
            let (sx, sy) = ((h00 * s + h01 * t + h02) / w, (h10 * s + h11 * t + h12) / w);
            (w > 1e-9 && sx.is_finite() && sy.is_finite()).then_some((sx, sy))
        };
        let (last_u, last_v) = ((self.nu - 1) as f64, (self.nv - 1) as f64);
        let corners = [(0.0, 0.0), (last_u, 0.0), (0.0, last_v), (last_u, last_v)];
        // with every corner in front of the eye the whole plane is (w is
        // affine), and its picture is the hull of the corners'; otherwise
        // the part in front may reach any pixel
        let bbox = match corners.map(|(s, t)| on_screen(s, t)) {
            [Some(a), Some(b), Some(c), Some(d)] => {
                let xs = [a.0, b.0, c.0, d.0];
                let ys = [a.1, b.1, c.1, d.1];
                let lo = |v: [f64; 4]| v.into_iter().fold(f64::INFINITY, f64::min).floor() as i32;
                let hi = |v: [f64; 4]| v.into_iter().fold(f64::NEG_INFINITY, f64::max).ceil() as i32;
                [lo(xs), hi(xs), lo(ys), hi(ys)]
            }
            _ => [i32::MIN, i32::MAX, i32::MIN, i32::MAX],
        };
        Some(ScreenQuad {
            texels: Arc::clone(&self.texels),
            nu: self.nu,
            nv: self.nv,
            to_plane,
            depth,
            bbox,
        })
    }
}

/// The inverse of a 3×3 matrix (adjugate over determinant), or `None`
/// when it is singular.
fn inverse3([[a, b, c], [d, e, f], [g, h, i]]: [[f64; 3]; 3]) -> Option<[[f64; 3]; 3]> {
    let (c00, c01, c02) = (e * i - f * h, f * g - d * i, d * h - e * g);
    let det = a * c00 + b * c01 + c * c02;
    if det == 0.0 || !det.is_finite() {
        return None;
    }
    let k = 1.0 / det;
    Some([
        [c00 * k, (c * h - b * i) * k, (b * f - c * e) * k],
        [c01 * k, (a * i - c * g) * k, (c * d - a * f) * k],
        [c02 * k, (b * g - a * h) * k, (a * e - b * d) * k],
    ])
}

/// An [`ImageSlice`] in screen space: what a tile reads to shade the
/// pixels it covers.
#[derive(Debug, Clone)]
pub(crate) struct ScreenQuad {
    /// The slice's texture, `nu × nv`, row after row; `nu, nv ≥ 2`.
    pub texels: Arc<[Color]>,
    pub nu: usize,
    pub nv: usize,
    /// Rows giving `s/w`, `t/w` and `1/w` of the plane point under a pixel
    /// centre `(x, y)` as `r·(x, y, 1)`: `(s, t)` its grid coordinates, `w`
    /// its clip w.
    pub to_plane: [[f64; 3]; 3],
    /// The plane's NDC depth under the pixel centre `(x, y)`, as
    /// `depth·(x, y, 1)` — affine in screen space, as on any plane.
    pub depth: [f64; 3],
    /// Pixel box `[x0, x1, y0, y1]`, `⌊min⌋` / `⌈max⌉` of the projected
    /// corners, or every pixel when a corner is not in front of the eye.
    pub bbox: [i32; 4],
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lookup_table::ColormapName;
    use crate::render::camera::Camera;

    fn ramp() -> ImageData {
        ImageData::from_fn([5, 4, 3], [1.0, 2.0, 0.5], [1.0, -1.0, 3.0], |x, y, z| {
            (x + 10.0 * y + 100.0 * z) as f32
        })
    }

    fn jet(range: (f32, f32)) -> LookupTable {
        LookupTable::new(ColormapName::Jet, range)
    }

    #[test]
    fn texels_are_the_planes_values_mapped_row_after_row() {
        let img = ramp();
        let lut = jet((0.0, 300.0));
        // (axis, index, in-plane sizes, the (i, j, k) of texel (u, v))
        type Ijk = fn(usize, usize) -> (usize, usize, usize);
        let cases: [(SliceAxis, usize, (usize, usize), Ijk); 3] = [
            (SliceAxis::X, 3, (4, 3), |u, v| (3, u, v)),
            (SliceAxis::Y, 1, (5, 3), |u, v| (u, 1, v)),
            (SliceAxis::Z, 2, (5, 4), |u, v| (u, v, 2)),
        ];
        for (axis, index, (nu, nv), ijk) in cases {
            let s = ImageSlice::from_image(&img, axis, index, lut.clone()).unwrap();
            let (texels, size) = s.texels();
            assert_eq!(size, (nu, nv), "{axis:?}");
            for v in 0..nv {
                for u in 0..nu {
                    let (i, j, k) = ijk(u, v);
                    let want = lut.map(img.scalar(i, j, k)).clamped();
                    assert_eq!(texels[v * nu + u], want, "{axis:?} texel ({u}, {v})");
                }
            }
            let [p00, p10, p01, p11] = s.corners;
            assert_eq!(p00, img.point(ijk(0, 0).0, ijk(0, 0).1, ijk(0, 0).2));
            let far = ijk(nu - 1, nv - 1);
            assert_eq!(p11, img.point(far.0, far.1, far.2));
            assert_eq!(p11, p10 + p01 - p00, "{axis:?}: a parallelogram");
        }
    }

    #[test]
    fn out_of_range_slice_rejected() {
        let img = ramp();
        for (axis, index) in [(SliceAxis::Z, 3), (SliceAxis::X, 5), (SliceAxis::Y, 4)] {
            let err = ImageSlice::from_image(&img, axis, index, jet((0.0, 1.0))).unwrap_err();
            assert!(err.to_string().contains("out of range"), "{err}");
        }
    }

    #[test]
    fn nan_takes_the_tables_nan_colour_and_a_degenerate_range_auto_ranges() {
        let mut img = ramp();
        let at = img.index(0, 0, 1);
        img.scalars[at] = f32::NAN;
        let lut = jet((0.0, 0.0));
        let s = ImageSlice::from_image(&img, SliceAxis::Z, 1, lut.clone()).unwrap();
        let (texels, _) = s.texels();
        assert_eq!(texels[0], lut.nan_color);
        // ranged to the plane's finite values, 101 ..= 134
        let ranged = jet((101.0, 134.0));
        assert_eq!(texels[1], ranged.map(101.0));
        assert_eq!(texels[19], ranged.map(134.0));
        assert_ne!(texels[1], texels[19]);
        // a constant plane keeps its degenerate range: every texel is the
        // table's middle colour
        let flat = ImageData::from_fn([3, 3, 2], [1.0; 3], [0.0; 3], |_, _, _| 7.0);
        let s = ImageSlice::from_image(&flat, SliceAxis::Z, 0, lut.clone()).unwrap();
        assert!(s.texels().0.iter().all(|&c| c == lut.map(7.0)));
    }

    #[test]
    fn bounds_are_the_planes_extent() {
        let img = ramp();
        let b = ImageSlice::from_image(&img, SliceAxis::X, 2, jet((0.0, 1.0))).unwrap().bounds();
        assert_eq!((b.min, b.max), (Vec3::new(3.0, -1.0, 3.0), Vec3::new(3.0, 5.0, 4.0)));
    }

    fn front_view() -> Mat4 {
        let cam = Camera {
            position: Vec3::new(0.5, 0.5, 5.0),
            focal_point: Vec3::new(0.5, 0.5, 0.0),
            clipping_range: (0.1, 100.0),
            ..Camera::default()
        };
        cam.projection_matrix(1.0).mul_mat(&cam.view_matrix())
    }

    #[test]
    fn to_plane_inverts_the_projection_of_every_grid_point() {
        let img = ImageData::from_fn([3, 2, 1], [0.5, 1.0, 1.0], [0.0; 3], |x, _, _| x as f32);
        let s = ImageSlice::from_image(&img, SliceAxis::Z, 0, jet((0.0, 2.0))).unwrap();
        let vp = front_view().mul_mat(&Mat4::rotate(Vec3::new(1.0, 0.3, 0.0), 0.4));
        let q = s.to_screen(&vp, 64, 48).unwrap();
        let [row_s, row_t, row_w] = q.to_plane;
        let dot = |r: [f64; 3], x: f64, y: f64| r[0] * x + r[1] * y + r[2];
        for (u, v) in [(0usize, 0usize), (2, 0), (0, 1), (2, 1), (1, 1)] {
            let p = img.point(u, v, 0);
            let (clip, w) = vp.transform_point4(p);
            let (x, y) = ((clip.x / w + 1.0) / 2.0 * 63.0, (1.0 - clip.y / w) / 2.0 * 47.0);
            let inv_w = dot(row_w, x, y);
            assert!((inv_w * w - 1.0).abs() < 1e-12, "1/w at ({u}, {v})");
            assert!((dot(row_s, x, y) / inv_w - u as f64).abs() < 1e-9, "s at ({u}, {v})");
            assert!((dot(row_t, x, y) / inv_w - v as f64).abs() < 1e-9, "t at ({u}, {v})");
            assert!((dot(q.depth, x, y) - clip.z / w).abs() < 1e-12, "depth at ({u}, {v})");
            let [x0, x1, y0, y1] = q.bbox;
            assert!((x0 as f64..=x1 as f64).contains(&x) && (y0 as f64..=y1 as f64).contains(&y));
        }
    }

    #[test]
    fn a_plane_without_cells_or_seen_edge_on_draws_nothing() {
        let line = ImageData::from_fn([4, 1, 1], [1.0; 3], [0.0; 3], |x, _, _| x as f32);
        let s = ImageSlice::from_image(&line, SliceAxis::Z, 0, jet((0.0, 3.0))).unwrap();
        assert_eq!(s.texels().1, (4, 1));
        assert!(s.to_screen(&front_view(), 32, 32).is_none());
        // the x = 0 plane seen from a camera on it
        let img = ImageData::from_fn([2, 2, 2], [1.0; 3], [0.0; 3], |_, _, _| 1.0);
        let s = ImageSlice::from_image(&img, SliceAxis::X, 0, jet((0.0, 2.0))).unwrap();
        let cam = Camera {
            position: Vec3::new(0.0, 0.5, 5.0),
            focal_point: Vec3::new(0.0, 0.5, 0.0),
            clipping_range: (0.1, 100.0),
            ..Camera::default()
        };
        let vp = cam.projection_matrix(1.0).mul_mat(&cam.view_matrix());
        assert!(s.to_screen(&vp, 32, 32).is_none());
    }

    /// A slice's frame through the renderer, as RGBA8 and depth bits.
    fn frame(r: &crate::render::Renderer, w: usize, h: usize) -> (Vec<u8>, Vec<u32>) {
        let mut fb = crate::render::Framebuffer::new(w, h);
        r.render(&mut fb);
        let depth = (0..h).flat_map(|y| (0..w).map(move |x| (x, y)));
        (fb.to_rgba8(), depth.map(|(x, y)| fb.depth_at(x, y).to_bits()).collect())
    }

    #[test]
    fn face_on_orthographic_pixels_mix_the_texels_of_their_triangle() {
        // 2 px per grid step, grid point (u, v) at pixel (2u, 8 − 2v): where
        // perspective-correct and screen-affine weights are one and the same
        let img = ImageData::from_fn([5, 4, 1], [1.0; 3], [0.0; 3], |x, y, _| (x * x + 3.0 * y) as f32);
        let s = ImageSlice::from_image(&img, SliceAxis::Z, 0, jet((0.0, 25.0))).unwrap();
        let mut r = crate::render::Renderer::new();
        r.add_image_slice(s.clone());
        r.camera = Camera {
            position: Vec3::new(2.0, 2.0, 5.0),
            focal_point: Vec3::new(2.0, 2.0, 0.0),
            parallel_projection: true,
            parallel_scale: 2.0,
            clipping_range: (0.1, 100.0),
            ..Camera::default()
        };
        let (rgba, depth) = frame(&r, 9, 9);
        let texel = |u: usize, v: usize| s.texels[v * 5 + u];
        let px = |x: usize, y: usize| &rgba[(y * 9 + x) * 4..(y * 9 + x) * 4 + 4];
        let mix = |a: Color, b: Color| Color {
            r: 0.5 * a.r + 0.5 * b.r,
            g: 0.5 * a.g + 0.5 * b.g,
            b: 0.5 * a.b + 0.5 * b.b,
            a: 0.5 * a.a + 0.5 * b.a,
        };
        for v in 0..4 {
            for u in 0..5 {
                assert_eq!(px(2 * u, 8 - 2 * v), texel(u, v).to_u8(), "grid point ({u}, {v})");
                if u < 4 {
                    // half way along a row edge, shared by the cell's lower triangle
                    let want = mix(texel(u, v), texel(u + 1, v)).to_u8();
                    assert_eq!(px(2 * u + 1, 8 - 2 * v), want, "edge ({u}.5, {v})");
                }
                if u < 4 && v < 3 {
                    // the cell centre lies on the p00–p11 diagonal
                    let want = mix(texel(u, v), texel(u + 1, v + 1)).to_u8();
                    assert_eq!(px(2 * u + 1, 7 - 2 * v), want, "centre ({u}.5, {v}.5)");
                }
            }
        }
        // outside the plane: the top row, a flat depth everywhere inside
        assert!((0..9).all(|x| depth[x] == f32::INFINITY.to_bits()));
        let inside: Vec<u32> = depth.iter().copied().filter(|&d| d != f32::INFINITY.to_bits()).collect();
        assert_eq!(inside.len(), 9 * 7);
        assert!(inside.iter().all(|&d| (f32::from_bits(d) - f32::from_bits(inside[0])).abs() < 1e-6));
    }

    #[test]
    fn slice_frames_do_not_depend_on_the_thread_count() {
        use crate::render::{Actor, Renderer};
        let img = ImageData::from_fn([23, 17, 9], [1.0, 0.5, 2.0], [0.0; 3], |x, y, z| {
            (x * 0.3 - y * 0.7 + z * z * 0.1) as f32
        });
        let mut r = Renderer::new();
        for (axis, index) in [(SliceAxis::X, 11), (SliceAxis::Y, 4), (SliceAxis::Z, 5)] {
            r.add_image_slice(ImageSlice::from_image(&img, axis, index, jet((-12.0, 10.0))).unwrap());
        }
        // a translucent triangle across the planes, drawn after them
        let mut tri = crate::poly_data::PolyData::new();
        tri.add_point(Vec3::new(0.0, 0.0, 9.0));
        tri.add_point(Vec3::new(22.0, 0.0, 9.0));
        tri.add_point(Vec3::new(11.0, 8.0, 0.0));
        tri.triangles.push([0, 1, 2]);
        r.add_actor(Actor::from_poly_data(tri).with_opacity(0.5));
        r.reset_camera();
        r.camera.azimuth(25.0);
        let want = rayon::with_threads(1, || frame(&r, 97, 80));
        let lit = want.0.chunks_exact(4).filter(|px| px[..3] != [0, 0, 0]).count();
        assert!(lit > 1_000, "{lit} px lit");
        for threads in [2, 3, 8] {
            assert!(rayon::with_threads(threads, || frame(&r, 97, 80)) == want, "{threads} threads");
        }
    }

    #[test]
    fn inverse3_inverts() {
        let m = [[2.0, -1.0, 0.5], [0.25, 3.0, 1.0], [1.0, 0.0, 4.0]];
        let [r0, r1, r2] = inverse3(m).unwrap();
        let product = m.map(|[a, b, c]| [0, 1, 2].map(|j| a * r0[j] + b * r1[j] + c * r2[j]));
        for (i, row) in product.iter().enumerate() {
            for (j, &v) in row.iter().enumerate() {
                assert!((v - f64::from(u8::from(i == j))).abs() < 1e-12, "({i}, {j})");
            }
        }
        assert!(inverse3([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [0.0, 1.0, 1.0]]).is_none());
    }
}
