//! Tile-binned software rasterization: slice quads (textured, see
//! `image_slice.rs`), triangles (Gouraud-shaded, z-buffered),
//! depth-interpolated lines and point sprites.
//!
//! Geometry is first transformed and shaded into screen space. Every mesh
//! point becomes one 40-byte [`ScreenVertex`] in a frame-wide array,
//! written once; a triangle is a 28-byte [`TriRef`] — three indices into
//! that array plus the integer box of the pixel centres it can reach — and
//! nothing downstream copies a vertex again: a bucketing pass bins ref
//! copies into the 32×32 screen tiles their box overlaps, and tile-row
//! bands are rasterized in parallel — each tile owns its pixels, so no
//! locking is needed, and a tile visits only the primitives binned into it
//! (see `tile.rs`). A triangle whose box holds no pixel centre the kernel
//! would plot is not assembled at all. Lines and point sprites carry their
//! endpoints by value; a slice quad carries its texture and the inverse of
//! its homography, and is drawn in each tile it covers before the tile's
//! triangles. Output is bit-identical to the historic row-band engine kept
//! in `scanline_ref.rs`, which draws no quads and every triangle whose
//! corners survive the projection: the identity is over scenes of actors.
//!
//! Triangles go into painter order ([`sort_far_to_near`]) only when one
//! can blend ([`PrimitiveList::blends`]): the tile kernel settles exact
//! depth ties by painter key, so an opaque frame in mesh order shows the
//! same pixels (DESIGN §23). The reference always sorts.
//!
//! The per-vertex transform and shade, the triangle assembly and, in
//! `tile.rs`, the binning and the tile rows are parallel regions over
//! fixed-size chunks. A chunk
//! writes only its own slots, so no bit of the frame depends on the thread
//! count; a mesh smaller than one chunk never leaves the calling thread.
//!
//! A hot-path file that denies `clippy::indexing_slicing`: mesh-supplied
//! indices are looked up with `.get()`, so a malformed `PolyData` drops
//! cells instead of panicking mid-frame.

// Hot path: an unvalidated `PolyData`'s indices are looked up every frame.
#![cfg_attr(not(test), deny(clippy::indexing_slicing))]

use crate::color::Color;
use crate::math::{Mat4, Vec3};
use crate::render::actor::{Actor, Representation};
use crate::render::framebuffer::{Framebuffer, TileGrid};
use crate::render::image_slice::{ImageSlice, ScreenQuad};
use crate::render::light::Light;
use crate::render::tile;
use rayon::prelude::*;
use std::sync::atomic::{AtomicBool, Ordering};

/// Mesh points transformed and shaded per parallel item.
const VERTEX_CHUNK: usize = 4096;

/// Mesh triangles assembled per parallel item, into a part of their own.
const TRI_CHUNK: usize = 8192;

/// The small-triangle rule (DESIGN §24): a triangle whose corner extent is
/// at most `SMALL_EXTENT` on both axes and whose kernel area is at least
/// `SMALL_AREA` in magnitude reaches no pixel centre farther than
/// `SAMPLE_MARGIN` outside its corners. The three are fixed by that proof.
const SAMPLE_MARGIN: f64 = 1.0 / 64.0;
const SMALL_EXTENT: f64 = 62.0;
const SMALL_AREA: f64 = 1.0 / 1_048_576.0;

/// The tile kernel rejects a triangle whose [`signed_area`] is below this
/// in magnitude.
pub(crate) const DEGENERATE_AREA: f64 = 1e-12;

/// One transformed, shaded mesh point: what every triangle corner that
/// indexes it used to carry a copy of.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct ScreenVertex {
    /// Screen x/y.
    pub sx: f64,
    pub sy: f64,
    /// NDC depth.
    pub z: f32,
    /// Shaded color.
    pub color: Color,
}

/// A triangle of the frame, by reference: 28 bytes that the sort gathers
/// and the bins copy in place of the vertices themselves.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct TriRef {
    /// Corner indices into [`PrimitiveList::verts`], in range by
    /// construction (assembly from a [`Surface`] is the only writer).
    pub v: [u32; 3],
    /// Inclusive box `[x0, x1, y0, y1]` of the pixel centres the tile
    /// kernel may plot, saturated to `i32` and never empty (see [`reach`]):
    /// for a small triangle `⌈min − s⌉` / `⌊max + s⌋` per axis, and of a
    /// micro-triangle's at most 2 × 2 such centres only those that pass the
    /// kernel's edge test; for any other `⌊min⌋` / `⌈max⌉`, the scanline
    /// box. It travels with the ref so that binning, and a tile rejecting
    /// an entry that misses its rectangle, never touch a vertex.
    pub bbox: [i32; 4],
}

/// A triangle with its corners by value — the row-band oracle's input,
/// built only by [`PrimitiveList::raster_tri`].
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
    /// Every actor's points, actor after actor in mesh order (a point
    /// dropped by the projection keeps its slot, unreferenced).
    pub verts: Vec<ScreenVertex>,
    pub tris: Vec<TriRef>,
    pub lines: Vec<RasterLine>,
    pub points: Vec<RasterPoint>,
    pub quads: Vec<ScreenQuad>,
    /// Some point of a surface actor has a shaded alpha below 1, so a
    /// triangle fragment may blend and the painter order may show.
    pub blends: bool,
}

impl PrimitiveList {
    /// The triangle `t` names, corners by value.
    pub(crate) fn raster_tri(&self, t: &TriRef) -> RasterTri {
        let [a, b, c] = t.v.map(|i| self.verts.get(i as usize).copied().unwrap_or_default());
        RasterTri {
            sx: [a.sx, b.sx, c.sx],
            sy: [a.sy, b.sy, c.sy],
            z: [a.z, b.z, c.z],
            color: [a.color, b.color, c.color],
        }
    }
}

/// `(⌊v⌋ as i32, ⌈v⌉ as i32)` without the two libm calls: the saturating
/// cast truncates toward zero, one comparison says whether that moved the
/// value up or down, and the step back saturates where `⌊v⌋` or `⌈v⌉`
/// itself lies beyond `i32` (and NaN casts to 0 and compares false, as
/// `NaN.floor() as i32` is 0).
fn floor_ceil(v: f64) -> (i32, i32) {
    let t = v as i32;
    let back = f64::from(t);
    (t.saturating_sub(i32::from(back > v)), t.saturating_add(i32::from(back < v)))
}

/// The pixel centres within `s` of a screen position:
/// `[⌈sx − s⌉, ⌊sx + s⌋, ⌈sy − s⌉, ⌊sy + s⌋]`, cast saturating — empty on
/// an axis where the position is more than `s` from every integer.
fn sample_box(sx: f64, sy: f64) -> [i32; 4] {
    let near = |v: f64| (floor_ceil(v - SAMPLE_MARGIN).1, floor_ceil(v + SAMPLE_MARGIN).0);
    let ((x0, x1), (y0, y1)) = (near(sx), near(sy));
    [x0, x1, y0, y1]
}

/// A triangle's sample box from the sample boxes of its corners: min of
/// the lower bounds, max of the upper ones. This *is* `⌈min3(x) − s⌉` /
/// `⌊max3(x) + s⌋` cast to `i32`: the rounded `± s`, ceil, floor and the
/// saturating cast are each monotone non-decreasing on `[-∞, +∞]`, and a
/// monotone `g` commutes with min and max (`g(min(a, b)) = min(g(a),
/// g(b))`). One pair of casts per *vertex* then serves every triangle
/// around it.
fn union3(a: [i32; 4], b: [i32; 4], c: [i32; 4]) -> [i32; 4] {
    let ([ax0, ax1, ay0, ay1], [bx0, bx1, by0, by1], [cx0, cx1, cy0, cy1]) = (a, b, c);
    [ax0.min(bx0).min(cx0), ax1.max(bx1).max(cx1), ay0.min(by0).min(cy0), ay1.max(by1).max(cy1)]
}

/// Twice the signed screen area of `[a, b, c]`: the one expression the
/// tile kernel rejects a degenerate triangle by and divides its weights
/// by, and assembly drops and boxes a triangle by, so the two agree to the
/// bit.
#[inline]
pub(crate) fn signed_area(a: &ScreenVertex, b: &ScreenVertex, c: &ScreenVertex) -> f64 {
    (b.sx - a.sx) * (c.sy - a.sy) - (c.sx - a.sx) * (b.sy - a.sy)
}

/// The tile kernel's inside test at pixel centre `(px, py)`: the
/// barycentric weights `[ŵ₀, ŵ₁, ŵ₂]` of `[a, b, c]` there, taken with
/// `inv_area = 1 / signed_area(a, b, c)`, or `None` when one is below
/// `−1e-9`. The kernel plots by it and assembly boxes a micro-triangle by
/// it, so the two agree to the bit.
#[inline]
pub(crate) fn weights_at(
    [a, b, c]: [&ScreenVertex; 3],
    inv_area: f64,
    px: f64,
    py: f64,
) -> Option<[f64; 3]> {
    let w0 = ((b.sx - px) * (c.sy - py) - (c.sx - px) * (b.sy - py)) * inv_area;
    let w1 = ((c.sx - px) * (a.sy - py) - (a.sx - px) * (c.sy - py)) * inv_area;
    let w2 = 1.0 - w0 - w1;
    if w0 < -1e-9 || w1 < -1e-9 || w2 < -1e-9 {
        return None;
    }
    Some([w0, w1, w2])
}

/// The ref of the triangle over frame vertices `v` — corners `[a, b, c]`
/// with sample boxes `samples` — boxed by the pixel centres the tile
/// kernel can plot, or `None` when there are none: the kernel rejects a
/// degenerate triangle outright, and a small triangle whose sample box is
/// empty reaches no centre. Small means a corner extent of at most
/// `SMALL_EXTENT` on both axes (no infinite corner passes) and an area of
/// at least `SMALL_AREA`; DESIGN §24 proves that the kernel rejects every
/// centre of the scanline box that a small triangle's sample box leaves
/// out. A small triangle whose sample box holds at most 2 × 2 centres — a
/// micro-triangle — is tested at each of them by [`weights_at`], as the
/// kernel would test it, and is boxed by the centres that pass, or dropped
/// when none does. Any other triangle keeps the scanline box `⌊min3⌋` /
/// `⌈max3⌉`, which is never empty; no NaN reaches it (a non-finite
/// projection drops the vertex, and scaling a finite NDC coordinate to the
/// screen can overflow to ±∞ but not to NaN).
fn reach(v: [u32; 3], [a, b, c]: [&ScreenVertex; 3], samples: [[i32; 4]; 3]) -> Option<TriRef> {
    let area = signed_area(a, b, c);
    if area.abs() < DEGENERATE_AREA {
        return None;
    }
    let (x_lo, x_hi) = (a.sx.min(b.sx).min(c.sx), a.sx.max(b.sx).max(c.sx));
    let (y_lo, y_hi) = (a.sy.min(b.sy).min(c.sy), a.sy.max(b.sy).max(c.sy));
    let small =
        area.abs() >= SMALL_AREA && x_hi - x_lo <= SMALL_EXTENT && y_hi - y_lo <= SMALL_EXTENT;
    if !small {
        let bbox = [floor_ceil(x_lo).0, floor_ceil(x_hi).1, floor_ceil(y_lo).0, floor_ceil(y_hi).1];
        return Some(TriRef { v, bbox });
    }
    let [sa, sb, sc] = samples;
    let bbox @ [x0, x1, y0, y1] = union3(sa, sb, sc);
    if x0 > x1 || y0 > y1 {
        return None;
    }
    if x1.abs_diff(x0) > 1 || y1.abs_diff(y0) > 1 {
        return Some(TriRef { v, bbox });
    }
    // The box's four corner centres, tested even where they coincide: a
    // branch on the box's shape costs more than the repeated tests (DESIGN
    // §24). Each side then keeps its bound if a covered centre lies on it,
    // else takes the opposite one.
    let inv_area = 1.0 / area;
    let covers = |x: i32, y: i32| weights_at([a, b, c], inv_area, x.into(), y.into()).is_some();
    let (c00, c10, c01, c11) = (covers(x0, y0), covers(x1, y0), covers(x0, y1), covers(x1, y1));
    if !(c00 | c10 | c01 | c11) {
        return None;
    }
    let side = |on: bool, own: i32, opposite: i32| if on { own } else { opposite };
    let (x0, x1) = (side(c00 | c01, x0, x1), side(c10 | c11, x1, x0));
    let (y0, y1) = (side(c00 | c10, y0, y1), side(c01 | c11, y1, y0));
    Some(TriRef { v, bbox: [x0, x1, y0, y1] })
}

/// An actor's surface triangles between the vertex pass and assembly: its
/// mesh cells, the frame id of its first point, and per point `None` if
/// the projection dropped it, else its [`sample_box`].
pub(crate) struct Surface<'a> {
    cells: &'a [[u32; 3]],
    base: u32,
    samples: Vec<Option<[i32; 4]>>,
}

impl Surface<'_> {
    /// The tile engine's triangles: every cell, in mesh order, whose
    /// corners survived and which [`reach`]es a pixel centre. Assembled in
    /// parallel, `TRI_CHUNK` cells to a part of their own — before any
    /// painter sort, while a triangle's three corners are still neighbours
    /// in memory — and the parts then written once into `tris`, each at the
    /// offset the counts of the parts before it give, in parallel too.
    /// (Counting first and writing the refs straight into `tris` evaluates
    /// [`reach`] twice a triangle, which costs more than the move saves:
    /// DESIGN §27.)
    fn assemble(&self, verts: &[ScreenVertex], tris: &mut Vec<TriRef>) {
        let mine = verts.get(self.base as usize..).unwrap_or(&[]);
        let corner = |i: u32| {
            let sample = self.samples.get(i as usize).copied().flatten()?;
            Some((mine.get(i as usize)?, sample))
        };
        let chunks: Vec<&[[u32; 3]]> = self.cells.chunks(TRI_CHUNK).collect();
        let mut parts: Vec<Vec<TriRef>> = vec![Vec::new(); chunks.len()];
        parts.par_iter_mut().zip(chunks.par_iter()).for_each(|(part, cells)| {
            // filled where it stands, the part would write its length into
            // `parts` on every push, a cache line the other threads' parts
            // share
            let mut refs = Vec::with_capacity(cells.len());
            refs.extend(cells.iter().filter_map(|&[a, b, c]| {
                let ((va, sa), (vb, sb), (vc, sc)) = (corner(a)?, corner(b)?, corner(c)?);
                // the corners exist, so their ids are below the frame's
                // vertex count
                reach([a, b, c].map(|i| self.base + i), [va, vb, vc], [sa, sb, sc])
            }));
            *part = refs;
        });
        let counts: Vec<usize> = parts.iter().map(Vec::len).collect();
        rayon::extend_counted(tris, &counts, |c, mut slots| {
            slots.extend_from_slice(parts.get(c).map_or(&[], Vec::as_slice));
            slots.finish();
        });
    }

    /// The scanline reference's triangles: every cell whose three corners
    /// survived, in mesh order. Their box is the whole plane; the reference
    /// derives its own from the corners.
    pub(crate) fn every_triangle(&self) -> impl Iterator<Item = TriRef> + '_ {
        let survived = |i: u32| self.samples.get(i as usize).is_some_and(Option::is_some);
        self.cells.iter().filter(move |cell| cell.iter().all(|&i| survived(i))).map(|cell| TriRef {
            v: cell.map(|i| self.base + i),
            bbox: [i32::MIN, i32::MAX, i32::MIN, i32::MAX],
        })
    }
}

/// The tile engine's front half for one actor: [`project_actor`], then
/// the assembly of the surface triangles that reach a pixel centre.
pub(crate) fn build_primitives(
    actor: &Actor,
    view_proj: &Mat4,
    lights: &[Light],
    width: usize,
    height: usize,
    out: &mut PrimitiveList,
) {
    if let Some(surface) = project_actor(actor, view_proj, lights, width, height, out) {
        surface.assemble(&out.verts, &mut out.tris);
    }
}

/// Transforms and shades one actor into screen-space primitives: its
/// points into `out.verts`, and its lines and point sprites into `out`;
/// a surface actor's triangles are left to the caller to assemble. Total
/// over any `PolyData`: a cell naming a point that does not exist is
/// dropped like one naming a point behind the camera, and a point without
/// a scalar or a normal takes the flat color / unlit path.
pub(crate) fn project_actor<'a>(
    actor: &'a Actor,
    view_proj: &Mat4,
    lights: &[Light],
    width: usize,
    height: usize,
    out: &mut PrimitiveList,
) -> Option<Surface<'a>> {
    if !actor.visible || actor.property.opacity <= 0.0 {
        return None;
    }
    let pd = &*actor.poly_data;
    let mvp = view_proj.mul_mat(&actor.transform);
    let (w, h) = (width as f64, height as f64);
    let to_screen = |p: Vec3| -> Option<(f64, f64, f32)> {
        let (clip, cw) = mvp.transform_point4(p);
        if cw <= 1e-9 {
            return None; // behind the camera
        }
        let ndc = clip / cw;
        if !(ndc.x.is_finite() && ndc.y.is_finite() && ndc.z.is_finite()) {
            return None;
        }
        let sx = (ndc.x + 1.0) / 2.0 * (w - 1.0);
        let sy = (1.0 - ndc.y) / 2.0 * (h - 1.0);
        Some((sx, sy, ndc.z as f32))
    };

    let prop = &actor.property;
    let base_alpha = prop.opacity;
    let incident: Vec<_> = lights.iter().map(Light::incident).collect();
    let scalars = prop.lookup_table.as_ref().zip(pd.scalars.as_deref());
    let normals = pd.normals.as_deref().filter(|_| prop.lighting);
    let shade = |i: usize| -> Color {
        let mut c = scalars
            .and_then(|(lut, s)| s.get(i).map(|&v| lut.map(v)))
            .unwrap_or(prop.color);
        c.a *= base_alpha;
        if let Some(&normal) = normals.and_then(|n| n.get(i)) {
            let n = actor.transform.transform_vector(normal).normalized();
            let mut diffuse = 0.0f32;
            for light in &incident {
                diffuse += light.diffuse(n);
            }
            let k = (prop.ambient + (1.0 - prop.ambient) * diffuse.min(1.0)).min(1.0);
            c = c.scaled(k);
        }
        c.clamped()
    };

    // Transform and shade every point once, into the frame's vertex array;
    // `px` says which points survived (`None`: dropped, no cell may use
    // it) and, for a surface — the one representation whose cells read
    // it — holds each survivor's sample box. Both are written once, chunk
    // by chunk, into spare capacity; a chunk that shades a survivor
    // translucent says so.
    let PrimitiveList { verts, lines, points, blends, .. } = out;
    let n = pd.points.len();
    #[expect(
        clippy::expect_used,
        reason = "2^32 vertices are 171 GB of `ScreenVertex`; the sort and CSR indices are u32 too"
    )]
    let end = u32::try_from(verts.len() + n).expect("frame vertex count fits the u32 ids");
    let base = end - n as u32;
    let surface = prop.representation == Representation::Surface;
    let mut px: Vec<Option<[i32; 4]>> = Vec::new();
    let translucent = AtomicBool::new(false);
    rayon::extend_chunks_pair(verts, &mut px, n, VERTEX_CHUNK, |chunk, mut slots, mut boxes| {
        let first = chunk * VERTEX_CHUNK;
        let mesh_points = pd.points.get(first..first + slots.len()).unwrap_or(&[]);
        let mut any = false;
        for (i, &p) in (first..).zip(mesh_points) {
            match to_screen(p) {
                Some((sx, sy, z)) => {
                    let color = shade(i);
                    any |= color.a < 1.0;
                    slots.push(ScreenVertex { sx, sy, z, color });
                    boxes.push(Some(if surface { sample_box(sx, sy) } else { [0; 4] }));
                }
                None => {
                    slots.push(ScreenVertex::default());
                    boxes.push(None);
                }
            }
        }
        slots.finish();
        boxes.finish();
        if any {
            // Relaxed: read after the region, which publishes it
            translucent.store(true, Ordering::Relaxed);
        }
    });
    *blends |= surface && translucent.into_inner();
    let mine = verts.get(base as usize..).unwrap_or(&[]);
    let corner = |i: u32| px.get(i as usize).copied().flatten();
    let vertex = |i: u32| corner(i).and(mine.get(i as usize));
    let segment = |a: u32, b: u32| -> Option<RasterLine> {
        let (va, vb) = (vertex(a)?, vertex(b)?);
        Some(RasterLine {
            a: (va.sx, va.sy, va.z),
            b: (vb.sx, vb.sy, vb.z),
            color_a: va.color,
            color_b: vb.color,
        })
    };
    let push_polylines = |lines: &mut Vec<RasterLine>| {
        for line in &pd.lines {
            for seg in line.windows(2) {
                if let [a, b] = *seg {
                    lines.extend(segment(a, b));
                }
            }
        }
    };

    match prop.representation {
        Representation::Surface => push_polylines(lines),
        Representation::Wireframe => {
            for &[a, b, c] in &pd.triangles {
                for (a, b) in [(a, b), (b, c), (c, a)] {
                    lines.extend(segment(a, b));
                }
            }
            push_polylines(lines);
        }
        Representation::Points => {
            let radius = prop.point_size / 2.0;
            points.extend(mine.iter().zip(&px).filter(|(_, on_screen)| on_screen.is_some()).map(
                |(v, _)| RasterPoint { x: v.sx, y: v.sy, z: v.z, radius, color: v.color },
            ));
        }
    }
    surface.then(|| Surface { cells: &pd.triangles, base, samples: px })
}

/// Rasterizes all primitives via the tile-binned engine into a
/// framebuffer it writes anew over `background`: bin into the default
/// 32×32 grid, then fill and rasterize tile-row bands in parallel.
pub(crate) fn rasterize(prims: &PrimitiveList, background: Color, fb: &mut Framebuffer) {
    let grid = TileGrid::with_default_tile(fb.width(), fb.height());
    let bins = tile::bin_primitives(prims, &grid);
    tile::rasterize_bins(prims, &bins, &grid, background, fb);
}

/// Builds the frame's screen-space primitives for `actors`, and puts the
/// triangles in painter order only when one can blend (DESIGN §23).
fn frame_primitives(
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
    if prims.blends {
        sort_far_to_near(&prims.verts, &mut prims.tris);
    }
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

/// A triangle's painter key: the one expression the sort and the tile
/// kernel's tie rule both evaluate, so the two agree to the bit.
pub(crate) fn painter_key(z: [f32; 3]) -> u32 {
    far_first_key(z.iter().sum::<f32>())
}

/// Painter order: far→near by the sum of the corner depths, equal sums
/// in list order — the permutation a stable sort comparing
/// `zb.total_cmp(&za)` yields. The sort runs on 8-byte
/// `(key << 32 | index)` words: each z-sum is computed once (three
/// vertex reads in mesh order), the index in the low half breaks ties in
/// list order (so no two words are equal and the words have exactly one
/// sorted order), and one gather then moves every 28-byte ref once.
pub(crate) fn sort_far_to_near(verts: &[ScreenVertex], tris: &mut Vec<TriRef>) {
    #[expect(
        clippy::expect_used,
        reason = "2^32 triangles are 120 GB of refs; the CSR bin offsets are u32 too"
    )]
    u32::try_from(tris.len()).expect("triangle count fits the u32 sort index");
    let depth = |i: u32| verts.get(i as usize).map_or(0.0, |v| v.z);
    let mut order: Vec<u64> = (0u64..)
        .zip(tris.iter())
        .map(|(i, t)| u64::from(painter_key(t.v.map(depth))) << 32 | i)
        .collect();
    order.sort_unstable();
    *tris = order.iter().filter_map(|&w| tris.get((w & 0xffff_ffff) as usize).copied()).collect();
}

/// The renderer's entry point: builds primitives for `actors`, projects
/// `slices` to screen quads, and rasterizes both, using `view_proj` and
/// `lights`, into `fb`, every pixel of which it writes anew over
/// `background`.
pub(crate) fn draw(
    actors: &[Actor],
    slices: &[ImageSlice],
    view_proj: &Mat4,
    lights: &[Light],
    background: Color,
    fb: &mut Framebuffer,
) {
    let (width, height) = (fb.width(), fb.height());
    let mut prims = frame_primitives(actors, view_proj, lights, width, height);
    prims.quads = slices.iter().filter_map(|s| s.to_screen(view_proj, width, height)).collect();
    rasterize(&prims, background, fb);
}

/// Unprojects a screen pixel back to a world-space ray; used by pick
/// operations. Returns `(origin, direction)` or `None` for singular
/// matrices.
pub(crate) fn pixel_ray(
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
    use crate::image_data::ImageData;
    use crate::render::renderer::Renderer;
    use crate::render::test_rng::Rng;
    use std::sync::Arc;

    fn draw_actors(actors: &[Actor], view_proj: &Mat4, lights: &[Light], fb: &mut Framebuffer) {
        draw(actors, &[], view_proj, lights, Color::BLACK, fb);
    }

    impl PrimitiveList {
        /// Appends three new vertices and the triangle over them, boxed —
        /// or dropped — the way assembly treats a mesh triangle; says
        /// whether it was kept (also the fixture of the `tile.rs` tests).
        pub(crate) fn push_tri(&mut self, corners: [ScreenVertex; 3]) -> bool {
            let base = self.verts.len() as u32;
            let samples = corners.map(|v| sample_box(v.sx, v.sy));
            let [a, b, c] = &corners;
            let tri = reach([base, base + 1, base + 2], [a, b, c], samples);
            self.verts.extend(corners);
            self.tris.extend(tri);
            tri.is_some()
        }
    }

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
        Arc::make_mut(&mut a.poly_data).scalars = Some(vec![0.0, 0.0, 1.0]);
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
        // ⊥ to the light below
        Arc::make_mut(&mut lit.poly_data).normals = Some(vec![Vec3::new(1.0, 0.0, 0.0); 3]);
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
        draw(&[a], &[], &front_camera(), &[], Color::BLUE, &mut fb);
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
    fn a_ref_is_28_bytes_and_a_vertex_40() {
        // the sizes the bytes-per-frame argument (DESIGN §16) stands on
        assert_eq!(std::mem::size_of::<TriRef>(), 28);
        assert_eq!(std::mem::size_of::<ScreenVertex>(), 40);
        assert_eq!(std::mem::size_of::<RasterTri>(), 112);
    }

    #[test]
    fn key_sort_is_the_stable_total_cmp_permutation() {
        let mut rng = Rng(0x9e37_79b9_7f4a_7c15);
        for len in [0usize, 1, 2, 3, 17, 1_000, 120_000] {
            // sx of the first corner remembers the list position, so a
            // permutation that orders equal sums differently is caught
            let mut prims = PrimitiveList::default();
            for i in 0..len {
                let [za, zb, zc] = stress_depths(&mut rng);
                let at = |sx, sy, z| ScreenVertex { sx, sy, z, ..ScreenVertex::default() };
                let x = i as f64;
                assert!(prims.push_tri([at(x, 0.0, za), at(x + 1.0, 0.0, zb), at(x, 1.0, zc)]));
            }
            let by_value =
                |tris: &[TriRef]| tris.iter().map(|t| prims.raster_tri(t)).collect::<Vec<_>>();
            let mut expected = by_value(&prims.tris);
            // the comparator the painter sort used before the key sort,
            // verbatim
            expected.sort_by(|a, b| {
                let za = a.z.iter().sum::<f32>();
                let zb = b.z.iter().sum::<f32>();
                zb.total_cmp(&za)
            });
            let mut sorted = prims.tris.clone();
            sort_far_to_near(&prims.verts, &mut sorted);
            let sorted = by_value(&sorted);
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
    fn only_a_frame_that_can_blend_is_painter_sorted() {
        // three stacked triangles listed near to far: mesh order is the
        // reverse of painter order, and `v` shows which one a list has
        let mut stack = PolyData::new();
        for (k, z) in [0.5, 0.0, -0.5].into_iter().enumerate() {
            stack.add_point(Vec3::new(-1.0, -1.0, z));
            stack.add_point(Vec3::new(1.0, -1.0, z));
            stack.add_point(Vec3::new(0.0, 1.0, z));
            let k = 3 * k as u32;
            stack.triangles.push([k, k + 1, k + 2]);
        }
        let opaque = Actor::from_poly_data(stack).with_color(Color::RED);
        let (vp, lights) = (front_camera(), [Light::default()]);
        let order = |actors: &[Actor]| {
            let prims = frame_primitives(actors, &vp, &lights, 64, 48);
            (prims.blends, prims.tris.iter().map(|t| t.v).collect::<Vec<_>>())
        };
        let mesh_order = vec![[0, 1, 2], [3, 4, 5], [6, 7, 8]];
        // opaque surfaces, and beside them a translucent wireframe (lines
        // are never sorted): mesh order, no sort
        let wire = opaque.clone().with_representation(Representation::Wireframe).with_opacity(0.5);
        assert_eq!(order(&[opaque.clone(), wire]), (false, mesh_order));
        // one translucent surface actor, by opacity or by color: the whole
        // frame far→near, the twins' equal sums in list order
        let painter =
            vec![[6, 7, 8], [15, 16, 17], [3, 4, 5], [12, 13, 14], [0, 1, 2], [9, 10, 11]];
        let by_color = opaque.clone().with_color(Color::rgba(0.2, 0.9, 0.3, 0.75));
        for translucent in [opaque.clone().with_opacity(0.5), by_color] {
            assert_eq!(order(&[opaque.clone(), translucent]), (true, painter.clone()));
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

    /// A mesh that uses every per-point array: a lit, LUT-colored fan of
    /// six triangles round a raised hub, plus two polylines.
    fn fan_mesh() -> PolyData {
        let mut pd = PolyData::new();
        for i in 0..6 {
            let a = i as f64 / 6.0 * std::f64::consts::TAU;
            pd.add_point(Vec3::new(a.cos(), a.sin(), 0.0));
        }
        let hub = pd.add_point(Vec3::new(0.0, 0.0, 0.6));
        for i in 0..6 {
            pd.triangles.push([i, (i + 1) % 6, hub]);
        }
        pd.lines.push(vec![0, 2, 4, 0]);
        pd.lines.push(vec![1, hub, 4]);
        pd.scalars = Some((0..7).map(|i| i as f32 / 6.0).collect());
        pd.compute_normals();
        pd
    }

    fn fan_actor(pd: PolyData, rep: Representation) -> Actor {
        use crate::lookup_table::{ColormapName, LookupTable};
        let mut a = Actor::from_poly_data(pd)
            .with_lookup_table(LookupTable::new(ColormapName::Jet, (0.0, 1.0)))
            .with_representation(rep);
        a.property.point_size = 5.0;
        a
    }

    fn frame_bits(actors: &[Actor]) -> Vec<u32> {
        let mut fb = Framebuffer::new(64, 48);
        draw_actors(actors, &front_camera(), &[Light::default()], &mut fb);
        let depths = (0..48).flat_map(|y| (0..64).map(move |x| (x, y)));
        fb.colors()
            .iter()
            .flat_map(|c| [c.r, c.g, c.b, c.a])
            .chain(depths.map(|(x, y)| fb.depth_at(x, y)))
            .map(f32::to_bits)
            .collect()
    }

    const REPRESENTATIONS: [Representation; 3] =
        [Representation::Surface, Representation::Wireframe, Representation::Points];

    #[test]
    fn cells_naming_missing_points_are_dropped_and_the_rest_renders_identically() {
        for rep in REPRESENTATIONS {
            // the cells that survive, spelled out: of `[2, 3, ∞, 4, 5]`
            // the segments 2–3 and 4–5, of `[0, 7, 1]` nothing
            let mut clean = fan_mesh();
            clean.lines.push(vec![2, 3]);
            clean.lines.push(vec![4, 5]);
            let mut bad = fan_mesh();
            bad.triangles.insert(0, [0, 1, 7]); // one past the last point
            bad.triangles.insert(3, [u32::MAX, 2, 3]);
            bad.triangles.push([9, 8, 7]);
            bad.lines.push(vec![2, 3, u32::MAX, 4, 5]);
            bad.lines.push(vec![0, 7, 1]);
            bad.lines.push(vec![7]);
            // behind another actor, so that the fan's vertex ids have a base
            let mut behind = screen_tri();
            behind.transform = Mat4::translate(Vec3::new(0.0, 0.0, -1.0));
            let want = frame_bits(&[behind.clone(), fan_actor(clean, rep)]);
            assert_eq!(frame_bits(&[behind, fan_actor(bad, rep)]), want, "{rep:?}");
            assert!(want.iter().any(|&b| b == 1.0f32.to_bits()), "{rep:?} drew nothing");
        }
        // cells over no points at all
        let mut empty = PolyData::new();
        empty.triangles.push([0, 1, 2]);
        empty.lines.push(vec![0, 1]);
        for rep in REPRESENTATIONS {
            let blank = frame_bits(&[]);
            assert_eq!(frame_bits(&[fan_actor(empty.clone(), rep)]), blank, "{rep:?}");
        }
    }

    #[test]
    fn a_missing_scalar_or_normal_falls_back_for_that_vertex_only() {
        let colors = |a: &Actor| -> Vec<Color> {
            let mut prims = PrimitiveList::default();
            build_primitives(a, &front_camera(), &[Light::default()], 64, 48, &mut prims);
            prims.verts.iter().map(|v| v.color).collect()
        };
        let full = fan_actor(fan_mesh(), Representation::Surface);
        let mut flat = full.clone();
        flat.property.lookup_table = None;
        let mut unlit = full.clone();
        unlit.property.lighting = false;
        let (full, flat, unlit) = (colors(&full), colors(&flat), colors(&unlit));
        assert_ne!(full, flat);
        assert_ne!(full, unlit);
        for keep in [0usize, 1, 4, 6] {
            let mut short_scalars = fan_mesh();
            short_scalars.scalars.as_mut().unwrap().truncate(keep);
            let mut short_normals = fan_mesh();
            short_normals.normals.as_mut().unwrap().truncate(keep);
            for rep in REPRESENTATIONS {
                // the first `keep` vertices are untouched, the rest take
                // the path an actor without the array takes
                let got = colors(&fan_actor(short_scalars.clone(), rep));
                assert_eq!(got[..keep], full[..keep], "{rep:?}, {keep} scalars");
                assert_eq!(got[keep..], flat[keep..], "{rep:?}, {keep} scalars");
                let got = colors(&fan_actor(short_normals.clone(), rep));
                assert_eq!(got[..keep], full[..keep], "{rep:?}, {keep} normals");
                assert_eq!(got[keep..], unlit[keep..], "{rep:?}, {keep} normals");
                // and the frame renders
                frame_bits(&[
                    fan_actor(short_scalars.clone(), rep),
                    fan_actor(short_normals.clone(), rep),
                ]);
            }
        }
    }

    #[test]
    fn every_tri_ref_names_the_vertex_its_actor_meant() {
        // three actors with 7, 4 and 3 points: the second has a vertex
        // behind the eye (so a slot no triangle may name) and the third is
        // a wireframe (vertices, no triangles); flat unlit colors tell
        // whose vertex a ref resolved to
        let mut partly_behind = PolyData::new();
        partly_behind.add_point(Vec3::new(-1.5, -1.0, -1.0));
        partly_behind.add_point(Vec3::new(0.0, 0.0, 50.0)); // behind the eye at z=5
        partly_behind.add_point(Vec3::new(1.5, -1.0, -1.0));
        partly_behind.add_point(Vec3::new(0.0, 1.5, -1.0));
        partly_behind.triangles.push([0, 1, 2]); // dropped
        partly_behind.triangles.push([0, 2, 3]);
        let flat = |pd: PolyData, c: Color| {
            let mut a = Actor::from_poly_data(pd).with_color(c);
            a.property.lighting = false;
            a
        };
        let mut fan = fan_mesh();
        fan.scalars = None;
        let fan_tris = fan.triangles.clone();
        // each actor with the mesh triangles that survive the projection
        let actors = [
            (flat(fan, Color::RED), fan_tris),
            (flat(partly_behind, Color::GREEN), vec![[0, 2, 3]]),
            (screen_tri().with_representation(Representation::Wireframe), vec![]),
            (screen_tri().with_color(Color::BLUE), vec![[0, 1, 2]]),
        ];
        let (vp, lights) = (front_camera(), [Light::default()]);
        let mut frame = PrimitiveList::default();
        let mut want: Vec<RasterTri> = Vec::new();
        for (a, surviving) in &actors {
            build_primitives(a, &vp, &lights, 64, 48, &mut frame);
            // the actor alone in a list: its ids are its mesh indices
            let mut alone = PrimitiveList::default();
            build_primitives(a, &vp, &lights, 64, 48, &mut alone);
            assert_eq!(&alone.tris.iter().map(|t| t.v).collect::<Vec<_>>(), surviving);
            for t in &alone.tris {
                let tri = alone.raster_tri(t);
                assert_eq!(tri.color, [a.property.color; 3]);
                want.push(tri);
            }
        }
        assert_eq!(frame.verts.len(), 7 + 4 + 3 + 3);
        assert_eq!(frame.tris.len(), 6 + 1 + 1);
        assert_eq!(frame.tris.len(), want.len());
        for (t, want) in frame.tris.iter().zip(&want) {
            let got = frame.raster_tri(t);
            assert_eq!(
                (got.sx, got.sy, got.z.map(f32::to_bits), got.color),
                (want.sx, want.sy, want.z.map(f32::to_bits), want.color),
                "ref {t:?}"
            );
            // boxed by its own corners' sample boxes (`tile.rs` holds
            // `reach` itself to an `f64` spelling of the rule)
            let corners = t.v.map(|i| frame.verts[i as usize]);
            let samples = corners.map(|v| sample_box(v.sx, v.sy));
            let [a, b, c] = &corners;
            assert_eq!(reach(t.v, [a, b, c], samples).map(|r| r.bbox), Some(t.bbox));
        }
    }

    /// The work of one `drag_iso`-shaped frame: the isosurface of an
    /// analytic field on the benchmark's 180 × 90 × 8 grid (2° apart, levels
    /// 10 apart) at its range midpoint, seen at 480 × 360 by the reset
    /// camera turned 30°. Its vertices, the refs assembly keeps and their
    /// tile bin entries.
    fn iso_frame_work() -> [usize; 3] {
        let wave = |i: f64, j: f64, k: f64| {
            ((0.31 * i).sin() * (0.23 * j).cos() + 0.6 * (0.9 * k + 0.13 * i - 0.07 * j).sin())
                as f32
        };
        let field = ImageData::from_fn([180, 90, 8], [2.0, 2.0, 10.0], [0.0, -89.0, 0.0], wave);
        let (lo, hi) = field.scalar_range().unwrap();
        let mesh = crate::filters::isosurface(&field, (lo + hi) / 2.0).unwrap();
        let mut scene = Renderer::new();
        scene.add_actor(Actor::from_poly_data(mesh));
        scene.reset_camera();
        scene.camera.azimuth(30.0);
        let (w, h) = (480, 360);
        let cam = &scene.camera;
        let vp = cam.projection_matrix(w as f64 / h as f64).mul_mat(&cam.view_matrix());
        let prims = frame_primitives(scene.actors(), &vp, &scene.lights, w, h);
        let grid = TileGrid::with_default_tile(w, h);
        let bins = tile::bin_primitives(&prims, &grid);
        let entries = (0..grid.len()).map(|t| bins.tris(t).count()).sum();
        [prims.verts.len(), prims.tris.len(), entries]
    }

    #[test]
    fn the_work_of_an_isosurface_frame_is_pinned() {
        // exact counts, so a change that culls less (or more) moves a pin
        for threads in [1, 2, 8] {
            let work = rayon::with_threads(threads, iso_frame_work);
            assert_eq!(work, [125_546, 103_779, 109_401], "{threads} threads");
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
