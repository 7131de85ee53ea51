//! Ray-cast volume rendering with color/opacity transfer functions —
//! the engine behind DV3D's Volume render plot.
//!
//! The kernel has the shape of VTK's fixed-point ray-cast mapper
//! (DESIGN §25):
//!
//! - **Footprint.** Rays are set up only over the projected box's
//!   silhouette — per row, the columns its edges reach — widened by 2 px;
//!   over the whole frame when a corner lies at or behind the eye. No ray
//!   outside it can meet the volume.
//! - **One table per frame.** Composite shades through [`TABLE_LEN`]
//!   knots of colour and step-corrected opacity over the transfer
//!   functions' span, mixing the two around a sample: no node scan and no
//!   `powf` per sample. MIP and Average map their one value per ray
//!   through the functions.
//! - **Index space.** A ray marches in continuous grid coordinates by a
//!   constant increment, in `f32`, and interpolates trilinearly in lerp form
//!   with the grid's own strides; a NaN corner gives no sample.
//! - **Clear cells.** Per frame, one parallel pass marks each cell whose
//!   corners hold a NaN, or whose value range the table shades to alpha 0;
//!   Composite skips a sample in such a cell before fetching it. The skip
//!   never changes a pixel.
//!
//! The kernel it replaced — a world-space fetch and both node scans per
//! sample — is kept as the oracle in `tests/support/volume_reference.rs`;
//! `tests/volume_oracle.rs` holds the two to within 4 RGBA8 levels on at
//! most 5 % of a frame's pixels.

// Hot path: scalars, shading table and clear-cell flags are read per sample.
#![cfg_attr(not(test), deny(clippy::indexing_slicing))]

use crate::color::Color;
use crate::image_data::ImageData;
use crate::lookup_table::{ColorTransferFunction, ColormapName, OpacityTransferFunction};
use crate::math::{Bounds, Mat4, Vec3};
use crate::render::framebuffer::{Framebuffer, TileGrid};
use rayon::prelude::*;

/// How samples along a ray combine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BlendMode {
    /// Front-to-back alpha compositing (the classic volume rendering).
    #[default]
    Composite,
    /// Maximum intensity projection.
    Mip,
    /// Mean of samples along the ray.
    Average,
}

/// Appearance of a volume.
#[derive(Debug, Clone)]
pub struct VolumeProperty {
    /// Scalar → color.
    pub color: ColorTransferFunction,
    /// Scalar → opacity (per unit reference length).
    pub opacity: OpacityTransferFunction,
    /// Blend mode.
    pub blend: BlendMode,
    /// World distance between samples.
    pub sample_distance: f64,
    /// Stop a ray once accumulated alpha exceeds this (Composite only).
    /// Values ≥ 1 disable early termination.
    pub early_termination_alpha: f32,
}

impl VolumeProperty {
    /// A reasonable default over the given scalar range.
    pub(crate) fn over_range(range: (f32, f32)) -> VolumeProperty {
        let level = (range.0 + range.1) / 2.0;
        let window = (range.1 - range.0).max(1e-6);
        VolumeProperty {
            color: ColorTransferFunction::from_colormap(ColormapName::Jet, range),
            opacity: OpacityTransferFunction::leveling(level, window, 0.6),
            blend: BlendMode::Composite,
            sample_distance: 1.0,
            early_termination_alpha: 0.98,
        }
    }
}

/// A renderable volume: image data plus appearance.
#[derive(Debug, Clone)]
pub struct Volume {
    /// The scalar field.
    pub image: ImageData,
    /// Appearance.
    pub property: VolumeProperty,
    /// Skip rendering when false.
    pub visible: bool,
}

impl Volume {
    /// Wraps image data with a default transfer function over its range.
    pub fn from_image(image: ImageData) -> Volume {
        let range = image.scalar_range().unwrap_or((0.0, 1.0));
        Volume { property: VolumeProperty::over_range(range), image, visible: true }
    }
}

/// Entries in the per-frame shading table. A constant, not an option.
const TABLE_LEN: usize = 1024;

/// Pixels the ray footprint is widened by on each side, for the rounding
/// of the per-pixel unprojection.
const FOOTPRINT_MARGIN: f64 = 2.0;

/// A cell's scalar range is widened by this many times `f32::EPSILON` of
/// its largest magnitude before the table is read over it: more than the
/// rounding of three nested lerps (DESIGN §25).
const LERP_SLACK: f32 = 32.0;

/// Ray-casts `volume` into `fb` (which may already hold rasterized
/// geometry — rays terminate at the geometry depth and composite over it).
pub(crate) fn render_volume(volume: &Volume, view_proj: &Mat4, fb: &mut Framebuffer) {
    if !volume.visible {
        return;
    }
    let Some(inv) = view_proj.inverse() else {
        return;
    };
    let width = fb.width();
    let height = fb.height();
    if width < 2 || height < 2 {
        return;
    }
    let bounds = volume.image.bounds();
    let Some(footprint) = Footprint::new(view_proj, &bounds, width, height) else {
        return;
    };
    let (y0, y1) = footprint.rows;
    let prop = &volume.property;
    let step = prop.sample_distance.max(bounds.diagonal() / 4096.0).max(1e-6);
    // opacity correction reference length: one sample distance at the
    // property's nominal setting
    let reference = prop.sample_distance.max(1e-6);
    let grid = Grid::new(&volume.image);
    let shade = match prop.blend {
        BlendMode::Composite => {
            let table = Table::new(prop, (step / reference) as f32);
            let clear = grid.clear_cells(&table);
            Shade::Composite { table, clear, stop: prop.early_termination_alpha }
        }
        BlendMode::Mip => Shade::Mip,
        BlendMode::Average => Shade::Average,
    };
    let march = |ray: &Ray| match &shade {
        Shade::Composite { table, clear, stop } => grid.composite(ray, table, clear, *stop),
        Shade::Mip => grid.mip(ray).map(|m| mapped(prop, m)),
        Shade::Average => grid.average(ray).map(|m| mapped(prop, m)),
    };
    let ndc = |v: usize, size: usize| 2.0 * v as f64 / (size - 1) as f64 - 1.0;

    // bands of a quarter tile row, whatever the thread count: claimed one
    // at a time, so rows that miss the volume cost their thread nothing, and
    // the few tile rows a volume covers, whose rays cost unevenly, still
    // split evenly over the threads
    let mut bands = fb.band_views(TileGrid::TILE / 4);
    bands.par_iter_mut().for_each(|band| {
        let (colors, depths) = (&mut *band.colors, &*band.depths);
        for y in y0.max(band.y0)..=y1.min(band.y0 + band.rows - 1) {
            let Some((x0, x1)) = footprint.columns(y) else {
                continue;
            };
            let ndc_y = -ndc(y, height);
            let row = (y - band.y0) * width;
            let (Some(colors), Some(depths)) =
                (colors.get_mut(row + x0..=row + x1), depths.get(row + x0..=row + x1))
            else {
                continue;
            };
            for ((x, px), &zbuf) in (x0..=x1).zip(colors).zip(depths) {
                let ndc_x = ndc(x, width);
                let Some((near, dir, t0, mut t1)) = pixel_ray(&inv, &bounds, ndc_x, ndc_y) else {
                    continue;
                };
                // stop at existing geometry
                if zbuf.is_finite() {
                    let geom = inv.transform_point(Vec3::new(ndc_x, ndc_y, zbuf as f64));
                    t1 = t1.min((geom - near).dot(dir));
                }
                if t1 <= t0 {
                    continue;
                }
                if let Some(c) = march(&grid.ray(near, dir, t0, t1, step)) {
                    *px = c.over(Color { a: 1.0, ..*px });
                }
            }
        }
    });
}

/// The pixels whose rays can meet a box. When every box corner lies in
/// front of the eye (`w > 1e-9`) so does the whole box, and its picture is
/// the convex hull of the corners' projections, bounded by projected box
/// edges; a pixel whose ray meets the box sees a point of it. A row's
/// rays are therefore set up only over the hull's columns within
/// [`FOOTPRINT_MARGIN`] rows of it, widened by the margin — for the
/// rounding of the per-pixel unprojection — and only on rows within the
/// margin of the hull. With a corner at or behind the eye every pixel is
/// set up — the rule of the slice quad's `to_screen`.
struct Footprint {
    /// First and last row to set up.
    rows: (usize, usize),
    /// Last column.
    last_x: f64,
    /// The twelve box edges in pixel coordinates; none when a corner lies
    /// at or behind the eye.
    edges: Vec<[(f64, f64); 2]>,
}

impl Footprint {
    /// `None` when no pixel can be hit.
    fn new(view_proj: &Mat4, bounds: &Bounds, width: usize, height: usize) -> Option<Footprint> {
        let (last_x, last_y) = ((width - 1) as f64, (height - 1) as f64);
        let (lo, hi) = (bounds.min, bounds.max);
        // corner `c` takes the high end on x, y, z as its bits 1, 2, 4 say
        let corners: Option<Vec<(f64, f64)>> = (0..8)
            .map(|c| {
                let pick = |bit: usize, a: f64, b: f64| if c & bit == 0 { a } else { b };
                let p = Vec3::new(pick(1, lo.x, hi.x), pick(2, lo.y, hi.y), pick(4, lo.z, hi.z));
                let (clip, w) = view_proj.transform_point4(p);
                let sx = (clip.x / w + 1.0) / 2.0 * last_x;
                let sy = (1.0 - clip.y / w) / 2.0 * last_y;
                (w > 1e-9 && sx.is_finite() && sy.is_finite()).then_some((sx, sy))
            })
            .collect();
        let Some(corners) = corners else {
            return Some(Footprint { rows: (0, height - 1), last_x, edges: Vec::new() });
        };
        let widened = |pick: fn(&(f64, f64)) -> f64, last: f64| {
            let ends = (f64::INFINITY, f64::NEG_INFINITY);
            let (lo, hi) = corners.iter().map(pick).fold(ends, |(a, b), v| (a.min(v), b.max(v)));
            ((lo.floor() - FOOTPRINT_MARGIN).max(0.0), (hi.ceil() + FOOTPRINT_MARGIN).min(last))
        };
        let ((x0, x1), (y0, y1)) = (widened(|c| c.0, last_x), widened(|c| c.1, last_y));
        if x0 > x1 || y0 > y1 {
            return None;
        }
        let edges = corners
            .iter()
            .enumerate()
            .flat_map(|(c, &a)| {
                let ends = [1, 2, 4].into_iter().filter(move |bit| c & bit == 0);
                ends.filter_map(|bit| corners.get(c | bit).map(|&b| [a, b])).collect::<Vec<_>>()
            })
            .collect();
        Some(Footprint { rows: (y0 as usize, y1 as usize), last_x, edges })
    }

    /// The first and last column of row `y` to set up, or `None`: the
    /// columns any edge reaches within the margin's rows, widened by it.
    fn columns(&self, y: usize) -> Option<(usize, usize)> {
        if self.edges.is_empty() {
            return Some((0, self.last_x as usize));
        }
        let (lo, hi) = (y as f64 - FOOTPRINT_MARGIN, y as f64 + FOOTPRINT_MARGIN);
        let (mut x_min, mut x_max) = (f64::INFINITY, f64::NEG_INFINITY);
        for &[(ax, ay), (bx, by)] in &self.edges {
            // the part of the edge between rows `lo` and `hi`
            let (t0, t1) = if ay == by {
                if ay < lo || ay > hi {
                    continue;
                }
                (0.0, 1.0)
            } else {
                let (ta, tb) = ((lo - ay) / (by - ay), (hi - ay) / (by - ay));
                (ta.min(tb).max(0.0), ta.max(tb).min(1.0))
            };
            if t0 > t1 {
                continue;
            }
            for t in [t0, t1] {
                let x = ax + (bx - ax) * t;
                (x_min, x_max) = (x_min.min(x), x_max.max(x));
            }
        }
        let x0 = (x_min.floor() - FOOTPRINT_MARGIN).max(0.0);
        let x1 = (x_max.ceil() + FOOTPRINT_MARGIN).min(self.last_x);
        (x0 <= x1).then_some((x0 as usize, x1 as usize))
    }
}

/// The ray through NDC `(ndc_x, ndc_y)` — its near point, unit direction
/// and the span `t0 ≥ 0 .. t1` it spends inside `bounds` — or `None` when
/// it misses.
fn pixel_ray(
    inv: &Mat4,
    bounds: &Bounds,
    ndc_x: f64,
    ndc_y: f64,
) -> Option<(Vec3, Vec3, f64, f64)> {
    let near = inv.transform_point(Vec3::new(ndc_x, ndc_y, -1.0));
    let far = inv.transform_point(Vec3::new(ndc_x, ndc_y, 1.0));
    let dir_full = far - near;
    let len = dir_full.length();
    if len < 1e-12 {
        return None;
    }
    let dir = dir_full / len;
    let (t0, t1) = bounds.ray_intersect(near, dir)?;
    Some((near, dir, t0.max(0.0), t1))
}

/// How a frame's samples become a pixel.
enum Shade {
    /// Front-to-back through the table, skipping clear cells.
    Composite { table: Table, clear: Vec<bool>, stop: f32 },
    Mip,
    Average,
}

/// MIP's and Average's one value per ray, through the transfer functions.
fn mapped(prop: &VolumeProperty, m: f32) -> Color {
    Color { a: prop.opacity.map(m).max(0.05), ..prop.color.map(m) }
}

/// The frame's colour and step-corrected opacity, sampled at [`TABLE_LEN`]
/// knots evenly over the union of the two functions' node spans. A sample
/// mixes the two knots around it linearly. Knot 0 holds the values at and
/// below the span's low end and the last knot the values past its high
/// end; both functions are constant out there, so a sample outside the
/// span is shaded exactly.
struct Table {
    /// Scalar of knot 0.
    lo: f32,
    /// Knots per scalar unit.
    per_unit: f32,
    /// Per knot, its colour — alpha the step-corrected opacity, 0 where the
    /// nominal opacity is at most 1e-4, the threshold below which the ray
    /// has always skipped a sample — and the change to the next knot
    /// (zero from the last).
    knots: Vec<[Color; 2]>,
    /// `lit_before[e]`: knots below `e` whose alpha is not 0.
    lit_before: Vec<u32>,
}

impl Table {
    fn new(prop: &VolumeProperty, exponent: f32) -> Table {
        let (lo, hi) = match (prop.color.span(), prop.opacity.span()) {
            (Some(c), Some(o)) => (c.0.min(o.0), c.1.max(o.1)),
            (Some(s), None) | (None, Some(s)) => s,
            (None, None) => (0.0, 0.0),
        };
        let last = (TABLE_LEN - 1) as f32;
        let values: Vec<Color> = (0..TABLE_LEN)
            .map(|e| {
                let s = if e + 1 == TABLE_LEN {
                    f32::INFINITY
                } else {
                    lo + (hi - lo) * (e as f32 / last)
                };
                let a = prop.opacity.map(s);
                // correct opacity for the actual step length
                let a = if a > 1e-4 { 1.0 - (1.0 - a).powf(exponent) } else { 0.0 };
                Color { a, ..prop.color.map(s) }
            })
            .collect();
        let lit_before = std::iter::once(0)
            .chain(values.iter().scan(0, |lit, c| {
                *lit += u32::from(c.a > 0.0);
                Some(*lit)
            }))
            .collect();
        let next = values.iter().skip(1).chain(values.last());
        let knots = values
            .iter()
            .zip(next)
            .map(|(&c, &n)| [c, Color { r: n.r - c.r, g: n.g - c.g, b: n.b - c.b, a: n.a - c.a }])
            .collect();
        Table { lo, per_unit: last / (hi - lo), knots, lit_before }
    }

    /// The knot at or below `s` and the fraction of the way to the next.
    /// The knot is monotone in `s`: every step rounds monotonically, and a
    /// NaN (a degenerate span at its one scalar) clamps to knot 0.
    #[inline]
    fn locate(&self, s: f32) -> (usize, f32) {
        let x = ((s - self.lo) * self.per_unit).max(0.0).min((TABLE_LEN - 1) as f32);
        let e = x as i32;
        (e as usize, x - e as f32)
    }

    /// `s` shaded: the two knots around it mixed linearly.
    #[inline]
    fn shade(&self, s: f32) -> Color {
        let (e, t) = self.locate(s);
        let Some([c, d]) = self.knots.get(e) else { return Color::TRANSPARENT };
        Color { r: c.r + d.r * t, g: c.g + d.g * t, b: c.b + d.b * t, a: c.a + d.a * t }
    }

    /// True when every sample a cell with corner values in `[min, max]` can
    /// produce shades to alpha 0. The lerps put a sample within
    /// `LERP_SLACK · ε · max(|min|, |max|)` of that range and `locate` is
    /// monotone, so such a sample lies between the knots the widened
    /// range's ends locate, and gives weight to the knot after the upper
    /// one only if the upper end does.
    fn clear_over(&self, min: f32, max: f32) -> bool {
        let slack = LERP_SLACK * f32::EPSILON * min.abs().max(max.abs());
        let (a, (b, t)) = (self.locate(min - slack).0, self.locate(max + slack));
        let end = b + 1 + usize::from(t > 0.0);
        matches!((self.lit_before.get(a), self.lit_before.get(end)), (Some(x), Some(y)) if x == y)
    }
}

/// One ray in the grid's continuous index space: `n` samples at
/// `c0 + k·dc`.
struct Ray {
    c0: [f32; 3],
    dc: [f32; 3],
    n: usize,
}

impl Ray {
    fn samples(&self) -> impl Iterator<Item = [f32; 3]> {
        let ([x0, y0, z0], [dx, dy, dz]) = (self.c0, self.dc);
        (0..self.n).map(move |k| {
            let k = k as f32;
            [x0 + k * dx, y0 + k * dy, z0 + k * dz]
        })
    }
}

/// Where a sample falls: the flat index of its cell, of the cell's first
/// corner, and its fractions along each axis.
struct At {
    cell: usize,
    base: usize,
    f: [f32; 3],
}

/// The image's scalars as the march reads them.
struct Grid<'a> {
    img: &'a ImageData,
    /// Index units per world unit along each axis.
    per_unit: [f64; 3],
    /// Last point index per axis.
    last: [f32; 3],
    /// Cells per axis; an axis of one point has one, of zero width.
    cells: [usize; 3],
    /// Offsets from a cell's first corner to its next corner along each
    /// axis (0 on an axis of one point).
    offsets: [usize; 3],
}

impl<'a> Grid<'a> {
    fn new(img: &'a ImageData) -> Grid<'a> {
        let [nx, ny, nz] = img.dims;
        let next = |n: usize, stride: usize| if n > 1 { stride } else { 0 };
        Grid {
            img,
            per_unit: img.spacing.map(|s| 1.0 / s),
            last: img.dims.map(|n| n.saturating_sub(1) as f32),
            cells: img.dims.map(|n| n.saturating_sub(1).max(1)),
            offsets: [next(nx, 1), next(ny, nx), next(nz, nx * ny)],
        }
    }

    /// The ray from `near` along `dir` sampled at `t0 + step/2 + k·step`
    /// while below `t1`, in continuous index coordinates.
    fn ray(&self, near: Vec3, dir: Vec3, t0: f64, t1: f64, step: f64) -> Ray {
        let p = near + dir * (t0 + step / 2.0);
        let ([ox, oy, oz], [rx, ry, rz]) = (self.img.origin, self.per_unit);
        let d = dir * step;
        Ray {
            c0: [((p.x - ox) * rx) as f32, ((p.y - oy) * ry) as f32, ((p.z - oz) * rz) as f32],
            dc: [(d.x * rx) as f32, (d.y * ry) as f32, (d.z * rz) as f32],
            n: ((t1 - t0) / step - 0.5).ceil().max(0.0) as usize,
        }
    }

    /// The cell of continuous index `c`, or `None` outside the grid — the
    /// cell `ImageData::sample_continuous` interpolates in.
    #[inline]
    fn locate(&self, [cx, cy, cz]: [f32; 3]) -> Option<At> {
        // in `i32`: a float conversion to or from `usize` costs a branch
        // sequence on x86-64, and every index here is far below 2³¹
        let axis = |c: f32, last: f32, cells: usize| {
            (c >= 0.0 && c <= last).then(|| {
                let i = (c as i32).min(cells as i32 - 1);
                (i as usize, c - i as f32)
            })
        };
        let ([lx, ly, lz], [ncx, ncy, ncz], [nx, ny, _]) = (self.last, self.cells, self.img.dims);
        let (i, fx) = axis(cx, lx, ncx)?;
        let (j, fy) = axis(cy, ly, ncy)?;
        let (k, fz) = axis(cz, lz, ncz)?;
        Some(At { cell: i + ncx * (j + ncy * k), base: i + nx * (j + ny * k), f: [fx, fy, fz] })
    }

    /// The eight corners of the cell whose first corner is `base`,
    /// x-fastest.
    #[inline]
    fn corners(&self, base: usize) -> Option<[f32; 8]> {
        let [sx, sy, sz] = self.offsets;
        let at = |o: usize| self.img.scalars.get(base + o).copied();
        Some([
            at(0)?,
            at(sx)?,
            at(sy)?,
            at(sx + sy)?,
            at(sz)?,
            at(sx + sz)?,
            at(sy + sz)?,
            at(sx + sy + sz)?,
        ])
    }

    /// Trilinear interpolation in lerp form, or `None` when a corner is
    /// NaN (the NaN reaches the result through every lerp).
    #[inline]
    fn sample(&self, at: &At) -> Option<f32> {
        let [a, b, c, d, e, f, g, h] = self.corners(at.base)?;
        let [fx, fy, fz] = at.f;
        let lerp = |u: f32, v: f32, t: f32| u + (v - u) * t;
        let near = lerp(lerp(a, b, fx), lerp(c, d, fx), fy);
        let far = lerp(lerp(e, f, fx), lerp(g, h, fx), fy);
        let s = lerp(near, far, fz);
        (!s.is_nan()).then_some(s)
    }

    /// One flag per cell, in one parallel pass: true when a corner is NaN
    /// (no sample there) or when the table is clear over the corners'
    /// range (no sample there has alpha). Rebuilt every frame: the plot
    /// hands over a new volume each frame, and a leveling drag changes the
    /// table.
    fn clear_cells(&self, table: &Table) -> Vec<bool> {
        let [ncx, ncy, ncz] = self.cells;
        let [nx, ny, _] = self.img.dims;
        let mut clear = vec![true; ncx * ncy * ncz];
        clear.par_chunks_mut(ncx).enumerate().for_each(|(row, out)| {
            let (j, k) = (row % ncy, row / ncy);
            for (i, flag) in out.iter_mut().enumerate() {
                let Some(v) = self.corners(i + nx * (j + ny * k)) else { continue };
                if v.iter().any(|s| s.is_nan()) {
                    continue;
                }
                let (min, max) = v.iter().fold((f32::INFINITY, f32::NEG_INFINITY), |(lo, hi), &s| {
                    (lo.min(s), hi.max(s))
                });
                *flag = table.clear_over(min, max);
            }
        });
        clear
    }

    /// Front-to-back compositing through `table`: a sample in a clear cell
    /// is skipped before it is fetched; the ray stops once its alpha
    /// reaches `stop`. Returns the un-premultiplied colour, alpha the
    /// coverage, or `None` when nothing was hit.
    fn composite(&self, ray: &Ray, table: &Table, clear: &[bool], stop: f32) -> Option<Color> {
        let mut acc = Color::TRANSPARENT;
        let mut alpha = 0.0f32;
        for c in ray.samples() {
            let Some(at) = self.locate(c) else { continue };
            if clear.get(at.cell) != Some(&false) {
                continue;
            }
            let Some(s) = self.sample(&at) else { continue };
            let e = table.shade(s);
            if e.a > 0.0 {
                let w = (1.0 - alpha) * e.a;
                acc.r += e.r * w;
                acc.g += e.g * w;
                acc.b += e.b * w;
                alpha += w;
                if alpha >= stop {
                    break;
                }
            }
        }
        (alpha > 1e-4).then(|| Color {
            r: acc.r / alpha,
            g: acc.g / alpha,
            b: acc.b / alpha,
            a: alpha.min(1.0),
        })
    }

    /// The largest sample along the ray.
    fn mip(&self, ray: &Ray) -> Option<f32> {
        let samples = ray.samples().filter_map(|c| self.sample(&self.locate(c)?));
        samples.reduce(f32::max)
    }

    /// The mean sample along the ray.
    fn average(&self, ray: &Ray) -> Option<f32> {
        let (sum, count) = ray
            .samples()
            .filter_map(|c| self.sample(&self.locate(c)?))
            .fold((0.0f64, 0usize), |(sum, n), s| (sum + s as f64, n + 1));
        (count > 0).then(|| (sum / count as f64) as f32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::render::camera::Camera;

    fn ball_volume(n: usize) -> Volume {
        let c = (n - 1) as f64 / 2.0;
        let img = ImageData::from_fn([n, n, n], [1.0; 3], [0.0; 3], move |x, y, z| {
            let d = (((x - c).powi(2) + (y - c).powi(2) + (z - c).powi(2)) as f32).sqrt();
            (c as f32 - d).max(0.0) // bright core, zero outside the ball
        });
        let mut v = Volume::from_image(img);
        v.property.opacity = OpacityTransferFunction::from_nodes(vec![
            (0.0, 0.0),
            (1.0, 0.0),
            (2.0, 0.5),
        ]);
        v.property.sample_distance = 0.5;
        v
    }

    fn camera_for(volume: &Volume, aspect: f64) -> Mat4 {
        let mut cam = Camera::default();
        cam.reset_to_bounds(&volume.image.bounds());
        cam.projection_matrix(aspect).mul_mat(&cam.view_matrix())
    }

    #[test]
    fn composite_renders_a_blob() {
        let v = ball_volume(16);
        let vp = camera_for(&v, 1.0);
        let mut fb = Framebuffer::new(48, 48);
        render_volume(&v, &vp, &mut fb);
        let covered = fb.covered_pixels(Color::BLACK);
        assert!(covered > 50, "covered {covered}");
        // blob is centred: centre pixel lit, corner dark
        assert!(fb.pixel(24, 24).luminance() > 0.05);
        assert_eq!(fb.pixel(0, 0), Color::BLACK);
    }

    #[test]
    fn invisible_volume_renders_nothing() {
        let mut v = ball_volume(12);
        v.visible = false;
        let vp = camera_for(&v, 1.0);
        let mut fb = Framebuffer::new(32, 32);
        render_volume(&v, &vp, &mut fb);
        assert_eq!(fb.covered_pixels(Color::BLACK), 0);
    }

    #[test]
    fn mip_mode_lights_up() {
        let mut v = ball_volume(16);
        v.property.blend = BlendMode::Mip;
        let vp = camera_for(&v, 1.0);
        let mut fb = Framebuffer::new(32, 32);
        render_volume(&v, &vp, &mut fb);
        assert!(fb.pixel(16, 16).luminance() > 0.05);
    }

    #[test]
    fn average_mode_lights_up() {
        let mut v = ball_volume(16);
        v.property.blend = BlendMode::Average;
        v.property.opacity = OpacityTransferFunction::from_nodes(vec![(0.0, 0.8)]);
        let vp = camera_for(&v, 1.0);
        let mut fb = Framebuffer::new(32, 32);
        render_volume(&v, &vp, &mut fb);
        assert!(fb.covered_pixels(Color::BLACK) > 20);
    }

    #[test]
    fn volume_composites_over_geometry_depth() {
        // Fill the framebuffer with geometry *in front of* the volume: the
        // volume must not overwrite it.
        let v = ball_volume(16);
        let vp = camera_for(&v, 1.0);
        let mut fb = Framebuffer::new(32, 32);
        // fake near geometry covering everything at NDC depth -0.999
        for band in fb.band_views(32) {
            band.colors.fill(Color::GREEN);
            band.depths.fill(-0.999);
        }
        render_volume(&v, &vp, &mut fb);
        let c = fb.pixel(16, 16);
        assert!(c.g > 0.9 && c.r < 0.05, "geometry should stay in front: {c:?}");
    }

    #[test]
    fn early_termination_matches_full_march_visually() {
        let mut v = ball_volume(20);
        v.property.opacity =
            OpacityTransferFunction::from_nodes(vec![(0.0, 0.0), (2.0, 0.95)]);
        let vp = camera_for(&v, 1.0);
        let mut fb_early = Framebuffer::new(24, 24);
        render_volume(&v, &vp, &mut fb_early);
        v.property.early_termination_alpha = 2.0; // disabled
        let mut fb_full = Framebuffer::new(24, 24);
        render_volume(&v, &vp, &mut fb_full);
        // same pixels covered, similar centre color
        assert_eq!(
            fb_early.covered_pixels(Color::BLACK),
            fb_full.covered_pixels(Color::BLACK)
        );
        let a = fb_early.pixel(12, 12);
        let b = fb_full.pixel(12, 12);
        assert!((a.luminance() - b.luminance()).abs() < 0.12, "{a:?} vs {b:?}");
    }

    #[test]
    fn empty_transfer_function_renders_nothing() {
        let mut v = ball_volume(12);
        v.property.opacity = OpacityTransferFunction::from_nodes(vec![(0.0, 0.0), (1e9, 0.0)]);
        let vp = camera_for(&v, 1.0);
        let mut fb = Framebuffer::new(24, 24);
        render_volume(&v, &vp, &mut fb);
        assert_eq!(fb.covered_pixels(Color::BLACK), 0);
    }

    /// Every ray the kernel would not set up misses: no pixel outside the
    /// footprint has `t1 > t0`. Returns how the footprint came out.
    fn footprint_holds(volume: &Volume, cam: &Camera, (width, height): (usize, usize)) -> Seen {
        let vp = cam.projection_matrix(width as f64 / height as f64).mul_mat(&cam.view_matrix());
        let inv = vp.inverse().unwrap();
        let bounds = volume.image.bounds();
        let fp = Footprint::new(&vp, &bounds, width, height);
        let ndc = |v: usize, size: usize| 2.0 * v as f64 / (size - 1) as f64 - 1.0;
        let (mut hits, mut set_up) = (0, 0);
        let mut spans = [usize::MAX, 0, usize::MAX, 0];
        for y in 0..height {
            let row = fp.as_ref().filter(|f| (f.rows.0..=f.rows.1).contains(&y));
            let columns = row.and_then(|f| f.columns(y));
            if let Some((x0, x1)) = columns {
                set_up += x1 - x0 + 1;
                let [a, b, c, d] = spans;
                spans = [a.min(x0), b.max(x1), c.min(y), d.max(y)];
            }
            for x in 0..width {
                let inside = columns.is_some_and(|(x0, x1)| (x0..=x1).contains(&x));
                let ray = pixel_ray(&inv, &bounds, ndc(x, width), -ndc(y, height));
                let hit = ray.is_some_and(|(_, _, t0, t1)| t1 > t0);
                assert!(inside || !hit, "pixel ({x}, {y}) meets the volume outside {columns:?}");
                hits += usize::from(hit);
            }
        }
        match fp {
            None => Seen::OffScreen,
            Some(f) if f.edges.is_empty() => Seen::Whole(hits),
            Some(_) => Seen::Silhouette { hits, set_up, spans },
        }
    }

    /// How a footprint came out.
    #[derive(Debug, PartialEq)]
    enum Seen {
        OffScreen,
        Whole(usize),
        /// Rays that hit, rays set up, and the columns and rows spanned.
        Silhouette { hits: usize, set_up: usize, spans: [usize; 4] },
    }

    #[test]
    fn no_ray_outside_the_footprint_meets_the_volume() {
        let v = ball_volume(9);
        let size = (97, 61);
        let mut cam = Camera::default();
        cam.reset_to_bounds(&v.image.bounds());
        let reset = cam.clone();
        let framed = |f: Seen| match f {
            Seen::Silhouette { hits, set_up, spans } => (hits, set_up, spans),
            other => panic!("{other:?}"),
        };
        // the silhouette is tighter than the box it spans
        let (hits, set_up, [x0, x1, y0, y1]) = framed(footprint_holds(&v, &cam, size));
        assert!(hits > 500 && set_up < (x1 - x0 + 1) * (y1 - y0 + 1), "{hits} / {set_up}");
        // parallel projection, turned and tilted
        cam.parallel_projection = true;
        cam.azimuth(37.0);
        cam.elevation(-21.0);
        assert!(framed(footprint_holds(&v, &cam, size)).0 > 500);
        // partly off screen, past the right and top edges
        let r = v.image.bounds().diagonal() / 2.0;
        let mut cam = reset.clone();
        cam.pan(-1.6 * r, -0.9 * r);
        let (hits, _, spans) = framed(footprint_holds(&v, &cam, size));
        assert!(hits > 100 && matches!(spans, [_, 96, 0, _]), "{hits} {spans:?}");
        // entirely off screen
        let mut cam = reset.clone();
        cam.pan(5.0 * r, 0.0);
        assert_eq!(footprint_holds(&v, &cam, size), Seen::OffScreen);
        // corners behind the eye: the eye inside the box, near one face
        let mut cam = reset.clone();
        cam.position = Vec3::new(4.0, 0.5, 4.0);
        cam.focal_point = Vec3::new(4.0, 8.0, 4.5);
        cam.clipping_range = (0.01, 50.0);
        let behind = footprint_holds(&v, &cam, size);
        assert!(matches!(behind, Seen::Whole(n) if n > 500), "{behind:?}");
        // seeded cameras near and far, wide and narrow
        let mut rng = crate::render::test_rng::Rng(0x5eed_f007);
        let mut unit = || (rng.next() >> 11) as f64 / (1u64 << 53) as f64;
        let mut seen = [0usize; 3];
        for _ in 0..60 {
            let mut cam = reset.clone();
            cam.view_angle_deg = 10.0 + 100.0 * unit();
            cam.parallel_projection = unit() < 0.25;
            let centre = v.image.bounds().center();
            let dir = Vec3::new(unit() - 0.5, unit() - 0.5, unit() - 0.5).normalized();
            cam.position = centre + dir * (1.0 + 25.0 * unit());
            cam.focal_point = centre + Vec3::new(unit() - 0.5, unit() - 0.5, unit() - 0.5) * 60.0;
            cam.clipping_range = (0.01 + unit(), 80.0);
            match footprint_holds(&v, &cam, (48, 40)) {
                Seen::OffScreen => seen[0] += 1,
                Seen::Whole(_) => seen[1] += 1,
                Seen::Silhouette { .. } => seen[2] += 1,
            }
        }
        assert!(seen.iter().all(|&n| n >= 3), "every kind of footprint: {seen:?}");
    }

    /// A field with NaN holes under a random leveling ramp and colour map.
    fn random_case(rng: &mut crate::render::test_rng::Rng) -> (ImageData, VolumeProperty, f32) {
        let mut unit = || (rng.next() >> 40) as f32 / (1u64 << 24) as f32;
        let mut up_to = |n: f32| (unit() * n) as usize;
        let dims = [3 + up_to(9.0), 2 + up_to(9.0), 1 + up_to(6.0)];
        let (scale, offset) = (0.1 + 200.0 * unit(), 500.0 * (unit() - 0.5));
        let phase = 10.0 * unit() as f64;
        let mut img = ImageData::from_fn(dims, [1.0; 3], [0.0; 3], |x, y, z| {
            offset + scale * ((0.7 * x + phase).sin() * (0.9 * y).cos() + 0.3 * z) as f32
        });
        let n = img.scalars.len();
        for _ in 0..n / 9 {
            img.scalars[((unit() * n as f32) as usize).min(n - 1)] = f32::NAN;
        }
        let (lo, hi) = img.scalar_range().unwrap();
        let span = (hi - lo).max(1e-3);
        let mut p = VolumeProperty::over_range((lo, hi));
        let level = lo + span * (1.4 * unit() - 0.2);
        p.opacity = OpacityTransferFunction::leveling(level, span * (0.02 + unit()), unit());
        p.color = ColorTransferFunction::from_colormap(ColormapName::Hot, (lo + span * unit(), hi));
        (img, p, 0.2 + 2.0 * unit())
    }

    #[test]
    fn a_clear_cell_holds_no_sample_with_alpha() {
        let mut rng = crate::render::test_rng::Rng(0xc1ea_5eed);
        let (mut by_nan, mut by_table, mut lit) = (0, 0, 0);
        for _ in 0..40 {
            let (img, prop, exponent) = random_case(&mut rng);
            let grid = Grid::new(&img);
            let table = Table::new(&prop, exponent);
            let clear = grid.clear_cells(&table);
            let [ncx, ncy, _] = grid.cells;
            let [nx, ny, _] = img.dims;
            for (cell, _) in clear.iter().enumerate().filter(|(_, &c)| c) {
                let (i, j, k) = (cell % ncx, cell / ncx % ncy, cell / (ncx * ncy));
                let base = i + nx * (j + ny * k);
                if grid.corners(base).unwrap().iter().any(|v| v.is_nan()) {
                    by_nan += 1;
                    continue;
                }
                by_table += 1;
                for n in 0..200u32 {
                    // the eight corners, then random points
                    let f = if n < 8 {
                        [n & 1, n >> 1 & 1, n >> 2 & 1].map(|bit| bit as f32)
                    } else {
                        let mut unit = || (rng.next() >> 40) as f32 / (1u64 << 24) as f32;
                        [unit(), unit(), unit()]
                    };
                    let s = grid.sample(&At { cell, base, f }).unwrap();
                    assert_eq!(table.shade(s).a, 0.0, "cell {cell} at {f:?}: {s}");
                }
            }
            lit += clear.iter().filter(|&&c| !c).count();
        }
        assert!(by_nan > 50 && by_table > 50 && lit > 50, "{by_nan} / {by_table} / {lit}");
    }

    /// A cell whose range reaches between a clear knot and a lit one mixes
    /// the lit knot into its samples: it is not clear, at either end of a
    /// ramp. One that stops at a clear knot is.
    #[test]
    fn a_cell_reaching_a_lit_knot_is_not_clear() {
        let mut p = VolumeProperty::over_range((0.0, 100.0));
        let nodes = vec![(20.0, 0.0), (40.0, 0.5), (70.0, 0.0)];
        p.opacity = OpacityTransferFunction::from_nodes(nodes);
        let table = Table::new(&p, 1.0);
        let lit = |e: usize| table.knots[e][0].a > 0.0;
        let edges: Vec<usize> = (0..TABLE_LEN - 1).filter(|&e| lit(e) != lit(e + 1)).collect();
        assert_eq!(edges.len(), 2, "one rising and one falling edge");
        let h = 100.0 / (TABLE_LEN - 1) as f32;
        for e in edges {
            // the field's values stay in the clear knots but for one corner
            // a third of the way into the interval toward the lit knot
            let inside = h * (e as f32 + if lit(e) { 2.0 / 3.0 } else { 1.0 / 3.0 });
            let away = if lit(e) { inside + 5.0 * h } else { inside - 5.0 * h };
            let img = ImageData::from_fn([2, 2, 2], [1.0; 3], [0.0; 3], |x, y, z| {
                if x + y + z == 0.0 { inside } else { away }
            });
            let grid = Grid::new(&img);
            assert_eq!(grid.clear_cells(&table), vec![false], "edge at knot {e}");
            let s = grid.sample(&At { cell: 0, base: 0, f: [0.0; 3] }).unwrap();
            assert!(table.shade(s).a > 0.0, "edge at knot {e}: {s}");
        }
        // a ramp rising from the span's low end lights knot 1, but a cell
        // wholly below the span mixes knot 0 alone: it is clear
        p.color = ColorTransferFunction::from_colormap(ColormapName::Jet, (20.0, 40.0));
        p.opacity = OpacityTransferFunction::leveling(30.0, 20.0, 0.5);
        let table = Table::new(&p, 1.0);
        assert!(table.knots[0][0].a == 0.0 && table.knots[1][0].a > 0.0);
        let below = ImageData::from_fn([2; 3], [1.0; 3], [0.0; 3], |x, y, z| {
            (12.0 + x + y + z) as f32
        });
        assert_eq!(Grid::new(&below).clear_cells(&table), vec![true]);
    }

    /// Skipping clear cells never changes a ray's colour.
    #[test]
    fn the_skip_changes_no_ray() {
        let mut rng = crate::render::test_rng::Rng(0x5417_c0de);
        let (mut skipped, mut drawn) = (0, 0);
        for _ in 0..40 {
            let (img, prop, exponent) = random_case(&mut rng);
            let grid = Grid::new(&img);
            let table = Table::new(&prop, exponent);
            let clear = grid.clear_cells(&table);
            let none = vec![false; clear.len()];
            let mut unit = || (rng.next() >> 40) as f32 / (1u64 << 24) as f32;
            for _ in 0..200 {
                let [lx, ly, lz] = grid.last;
                let ray = Ray {
                    c0: [unit() * lx, unit() * ly, unit() * lz],
                    dc: [unit() - 0.5, unit() - 0.5, (unit() - 0.5) * 0.3],
                    n: 40,
                };
                let c = grid.composite(&ray, &table, &clear, 0.98);
                assert_eq!(c, grid.composite(&ray, &table, &none, 0.98));
                drawn += usize::from(c.is_some());
                let cells = ray.samples().filter_map(|c| grid.locate(c));
                skipped += cells.filter(|at| clear[at.cell]).count();
            }
        }
        assert!(skipped > 1000 && drawn > 500, "{skipped} samples skipped, {drawn} rays drawn");
    }

    #[test]
    fn the_table_is_exact_outside_the_span() {
        let mut rng = crate::render::test_rng::Rng(0x7ab1e);
        for _ in 0..20 {
            let (_, prop, exponent) = random_case(&mut rng);
            let table = Table::new(&prop, exponent);
            let (c, o) = (prop.color.span().unwrap(), prop.opacity.span().unwrap());
            let (lo, hi) = (c.0.min(o.0), c.1.max(o.1));
            let below = [lo - 1.0, lo - 1e6, f32::NEG_INFINITY];
            for s in below.into_iter().chain([hi + 1.0, hi * 2.0 + 1e6, f32::INFINITY]) {
                let a = prop.opacity.map(s);
                let a = if a > 1e-4 { 1.0 - (1.0 - a).powf(exponent) } else { 0.0 };
                assert_eq!(table.shade(s), Color { a, ..prop.color.map(s) }, "at {s}");
            }
        }
        // a degenerate span: below, at and above its one scalar
        let mut p = VolumeProperty::over_range((7.0, 7.0));
        p.opacity = OpacityTransferFunction::from_nodes(vec![(7.0, 0.0), (7.0, 0.5)]);
        let table = Table::new(&p, 1.0);
        assert_eq!(table.shade(6.5).a, 0.0);
        assert_eq!(table.shade(7.0).a, 0.0);
        assert_eq!(table.shade(7.5).a, 0.5);
    }

    #[test]
    fn default_property_spans_scalar_range() {
        let v = ball_volume(10);
        let p = VolumeProperty::over_range((0.0, 10.0));
        assert_eq!(p.blend, BlendMode::Composite);
        assert!(p.opacity.map(0.0) < 1e-6);
        assert!(p.opacity.map(10.0) > 0.5);
        drop(v);
    }
}
