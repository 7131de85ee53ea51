//! Tile-binned rasterization: the sort-middle core of the renderer.
//!
//! A cheap bucketing pass assigns each screen-space primitive to the fixed
//! 32×32 [`TileGrid`] tiles its bounding box overlaps; tile-row bands are
//! then rasterized in parallel — a band is one item of the region, claimed
//! by whichever thread is free, so a surface that sits in one half of the
//! screen still loads every core — and each band walks only the *occupied*
//! tiles it owns, visiting only the primitives binned there. Contrast with
//! the old row-band engine (preserved in `scanline_ref`), where every band
//! scanned every primitive and point sprites/lines re-walked their full
//! extent once per band.
//!
//! Binning evaluates each primitive's geometry once. A slice quad is
//! binned by index to every tile its pixel box covers, and a tile draws
//! its quads before anything else (see [`TileView::quad`]). A triangle arrives as
//! a 28-byte [`TriRef`] whose integer box of reachable pixel centres was
//! joined from its corners when the mesh was assembled; binning clamps that box to a
//! 16-byte [`TileSpan`] (the tile rectangle `TileGrid::for_tiles_over`
//! would walk) without reading a vertex. Lines and point sprites resolve
//! to `(tile, entry)` pairs. The one CSR builder, [`csr_pairs`], then
//! counts, prefix-sums and scatters from those stored spans and pairs.
//! The triangle list is binned in parallel, [`BIN_CHUNK`] triangles to a
//! bin set of their own; a tile replays the sets in chunk order, which is
//! list order.
//!
//! Bit-identity with the scanline engine is a hard invariant over scenes
//! of actors, relied on by the hyperwall delta transport (which diffs
//! consecutive frames) and kept by the reference, which has no quad kernel:
//! the triangle, line and point kernels below are the scanline kernels
//! verbatim — identical
//! expression trees, identical fold/clamp semantics — with their iteration
//! domains intersected with the tile rectangle. A triangle's domain is its
//! [`TriRef::bbox`]: the scanline `⌊min3⌋` / `⌈max3⌉` box, less, for a
//! small triangle, the pixel centres farther than `s = 2⁻⁶` outside its
//! corners, which the edge test rejects, and less, for a micro-triangle
//! (at most 2 × 2 centres left), the centres that fail the edge test
//! itself, [`weights_at`], which assembly runs on them (DESIGN §24). A
//! triangle that reaches no centre, or that the kernel would reject as
//! degenerate, is not in the list. Since every pixel belongs to exactly
//! one tile, and primitives are replayed per tile in list order (quads, then
//! triangles, then lines, then points), each pixel sees the plot sequence
//! the scanline engine would have issued, less visits that plot nothing,
//! at any thread count — exactly
//! when the frame can blend and its triangles are in painter order; up to
//! exact depth ties, which [`TileView::plot`] settles by painter key, when
//! it cannot and they are in mesh order (DESIGN §23). The quad kernel is a
//! function of the pixel alone, so slices keep every frame independent of
//! the thread count too.
//!
//! A hot-path file that denies `clippy::indexing_slicing`: no bracket
//! indexing — slice-pattern destructuring, iterators and `.get()` only.

// Hot path: the rasterizer's primitives are binned and filled every frame.
#![cfg_attr(not(test), deny(clippy::indexing_slicing))]

use crate::color::Color;
use crate::render::framebuffer::{BandView, Framebuffer, TileGrid, TileSpan};
use crate::render::image_slice::ScreenQuad;
use crate::render::rasterizer::{
    painter_key, signed_area, weights_at, PrimitiveList, RasterLine, RasterPoint, ScreenVertex,
    TriRef, DEGENERATE_AREA,
};
use rayon::prelude::*;

/// Triangles binned per parallel item, into a [`Csr`] of their own.
const BIN_CHUNK: usize = 8_192;

/// One class of per-tile entries in CSR layout: tile `t` holds
/// `items[off[t]..off[t + 1]]`.
#[derive(Debug, Default)]
struct Csr<T> {
    off: Vec<u32>,
    items: Vec<T>,
}

impl<T> Csr<T> {
    fn tile(&self, t: usize) -> &[T] {
        let (Some(&a), Some(&b)) = (self.off.get(t), self.off.get(t + 1)) else {
            return &[];
        };
        self.items.get(a as usize..b as usize).unwrap_or(&[])
    }
}

/// Per-tile primitive entries in CSR (offsets + flat items) layout, one
/// class per [`Csr`] — a sort-middle command buffer. A counting sort
/// ([`csr_pairs`]) builds each one — count, prefix-sum, fill — so a
/// frame costs a handful of exact-sized allocations instead of three
/// growable `Vec`s per tile.
///
/// What an entry holds is what a tile visit needs, weighed against what
/// copying it into every overlapped tile costs. A point sprite is binned
/// by value. A triangle is binned as its 28-byte [`TriRef`], not as its
/// corners: bins of corner copies (112 bytes an entry) were once argued
/// for here as streaming reads against a cache miss per visit, and
/// measured wrong on large meshes — a 97 138-triangle isosurface wrote
/// and read back 12 MB of such bins per frame for vertices that, stored
/// once, fit in 2 MB and stay cache-resident while the tiles gather from
/// them. The pixel box travels with the ref because it is all that
/// binning reads and all a tile needs to turn away an entry that misses
/// its rectangle — neither touches a vertex.
///
/// Within a tile, entries stay in primitive-list order (the fill pass
/// walks primitives in order), which the draw-order invariant depends
/// on; for triangles that list order — painter order in a frame that can
/// blend, mesh order otherwise — is kept across the chunk bin sets by
/// reading them first to last.
#[derive(Debug, Default)]
pub(crate) struct TileBins {
    /// Indices into `PrimitiveList::quads` of the slices whose box
    /// overlaps the tile, in list order.
    quads: Csr<u32>,
    /// One bin set per [`BIN_CHUNK`] triangles of the sorted list.
    tris: Vec<Csr<TriRef>>,
    lines: Csr<BinnedLine>,
    points: Csr<RasterPoint>,
}

/// A binned line entry: the index of the line in the frame's
/// `PrimitiveList` plus the conservative step-index range covering this
/// tile. The range falls out of the slab/column t-intervals the binning
/// pass already computes, so storing it here lets the kernel start
/// walking immediately instead of re-deriving the range (two interval
/// solves, i.e. divisions) per tile entry. Like triangles and unlike
/// points, lines bin by index rather than by copy: a zoomed full-height
/// segment crosses a whole tile column, and copying an 80-byte payload
/// per crossed tile costs more in binning memory traffic than the gather
/// indirection saves in the kernel.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct BinnedLine {
    pub(crate) idx: u32,
    s0: u32,
    s1: u32,
}

impl TileBins {
    fn quads(&self, t: usize) -> &[u32] {
        self.quads.tile(t)
    }

    /// Tile `t`'s triangles, in list order.
    pub(crate) fn tris(&self, t: usize) -> impl Iterator<Item = &TriRef> {
        self.tris.iter().flat_map(move |chunk| chunk.tile(t))
    }

    pub(crate) fn lines(&self, t: usize) -> &[BinnedLine] {
        self.lines.tile(t)
    }

    pub(crate) fn points(&self, t: usize) -> &[RasterPoint] {
        self.points.tile(t)
    }

    fn is_empty(&self, t: usize) -> bool {
        self.quads(t).is_empty()
            && self.tris(t).next().is_none()
            && self.lines(t).is_empty()
            && self.points(t).is_empty()
    }
}

/// Counting-sorts `(tile, payload)` entries into CSR form: count per
/// tile, prefix-sum, scatter payload copies through per-tile write
/// cursors. `entries` is walked twice, so it must be cheap to replay — a
/// slice of resolved pairs, or stored tile spans, never a geometry
/// traversal. Entries stay in iteration order within a tile, which the
/// draw-order invariant depends on.
fn csr_pairs<'a, T, I>(n: usize, entries: I) -> Csr<T>
where
    T: Copy + Default + 'a,
    I: Iterator<Item = (usize, &'a T)> + Clone,
{
    let mut off = vec![0u32; n + 1];
    entries.clone().for_each(|(idx, _)| {
        if let Some(c) = off.get_mut(idx + 1) {
            *c += 1;
        }
    });
    let mut sum = 0u32;
    for c in off.iter_mut() {
        sum += *c;
        *c = sum;
    }
    let mut items = vec![T::default(); sum as usize];
    let mut cursor: Vec<u32> = off.get(..n).map(<[u32]>::to_vec).unwrap_or_default();
    entries.for_each(|(idx, prim)| {
        if let Some(cur) = cursor.get_mut(idx) {
            if let Some(slot) = items.get_mut(*cur as usize) {
                *slot = *prim;
            }
            *cur += 1;
        }
    });
    Csr { off, items }
}

/// Bins every primitive into the tiles its conservative screen bbox
/// overlaps. Over-binning is harmless (the kernels re-derive exact
/// bounds); under-binning would drop pixels, so boxes are expanded to
/// cover rounding (`line`) and sprite radius (`point`).
pub(crate) fn bin_primitives(prims: &PrimitiveList, grid: &TileGrid) -> TileBins {
    let cols = grid.cols();
    let quad_ids: Vec<u32> = (0..).take(prims.quads.len()).collect();
    let quads = csr_pairs(
        grid.len(),
        quad_ids
            .iter()
            .zip(&prims.quads)
            .flat_map(|(id, q)| grid.tile_span(q.bbox).tiles(cols).map(move |idx| (idx, id))),
    );
    let chunks: Vec<&[TriRef]> = prims.tris.chunks(BIN_CHUNK).collect();
    let mut tris: Vec<Csr<TriRef>> = chunks.iter().map(|_| Csr::default()).collect();
    tris.par_iter_mut().zip(chunks.par_iter()).for_each(|(bins, chunk)| {
        // One clamp per triangle: its pixel box becomes a 16-byte tile
        // span here, and both counting-sort passes replay the spans, not
        // the clamps and divisions.
        let spans: Vec<TileSpan> = chunk.iter().map(|t| grid.tile_span(t.bbox)).collect();
        *bins = csr_pairs(
            grid.len(),
            chunk
                .iter()
                .zip(spans.iter())
                .flat_map(|(t, span)| span.tiles(cols).map(move |idx| (idx, t))),
        );
    });
    // The line traversal (slab/column walk with interval solves) is the
    // expensive part of binning, and each slab/column pair targets
    // exactly one tile — so walk the geometry once into a flat
    // (tile, entry) scratch list and counting-sort that.
    let mut line_scratch: Vec<(u32, BinnedLine)> = Vec::new();
    {
        let ts = grid.tile() as f64;
        let (sw, sh) = (grid.width() as f64, grid.height() as f64);
        for (li, l) in prims.lines.iter().enumerate() {
            let (ax, ay, _) = l.a;
            let (bx, by, _) = l.b;
            let dx = bx - ax;
            let dy = by - ay;
            // Same formula as the kernel, so stored step indices agree.
            let steps = dx.abs().max(dy.abs()).ceil().max(1.0);
            // Walk tile-row slabs, then tile columns within the slab's
            // x-extent, rather than the whole bbox: a diagonal segment's
            // bbox covers rows×cols tiles but the segment only passes
            // through ~rows+cols of them, and every spurious tile costs
            // kernel setup. Both coordinates are monotone in t, so each
            // slab/column pair pins an exact t-interval; its intersection
            // becomes the entry's stored step range. The ±0.5px slack in
            // `slab_t` covers nearest-pixel rounding on both axes.
            let (y0, y1) = (ay.min(by).floor() - 1.0, ay.max(by).ceil() + 1.0);
            let inv_dy = if dy.abs() < 1e-12 { 0.0 } else { 1.0 / dy };
            let inv_dx = if dx.abs() < 1e-12 { 0.0 } else { 1.0 / dx };
            // Clamp the slab walk to the screen: off-screen slabs can
            // never produce a visible entry, and a zoomed-in camera can
            // leave most of a segment's extent outside the viewport.
            let y_end = y1.min(sh - 1.0);
            let mut ry0 = ((y0 / ts).floor() * ts).max(0.0);
            while ry0 <= y_end {
                let ry1 = ry0 + ts - 1.0;
                let (tya, tyb) = slab_t(ay, inv_dy, ry0, ry1);
                if tyb >= tya {
                    let xa = ax + dx * tya;
                    let xb = ax + dx * tyb;
                    let (xlo, xhi) = (xa.min(xb).floor() - 1.0, xa.max(xb).ceil() + 1.0);
                    let x_end = xhi.min(sw - 1.0);
                    let mut cx0 = ((xlo / ts).floor() * ts).max(0.0);
                    while cx0 <= x_end {
                        let cx1 = cx0 + ts - 1.0;
                        let (txa, txb) = slab_t(ax, inv_dx, cx0, cx1);
                        let (ta, tb) = (tya.max(txa), tyb.min(txb));
                        // The entry's screen extent is the slab/column
                        // intersection clipped to the line bbox; it maps
                        // to one tile (or to none, when off-screen —
                        // mirroring `for_tiles_over`'s clamp semantics).
                        let (bx0, bx1) = (cx0.max(xlo), cx1.min(xhi));
                        let (by0, by1) = (ry0.max(y0), ry1.min(y1));
                        let visible = bx1 >= 0.0
                            && by1 >= 0.0
                            && bx0 <= sw - 1.0
                            && by0 <= sh - 1.0
                            && bx0.max(0.0) <= bx1.min(sw - 1.0)
                            && by0.max(0.0) <= by1.min(sh - 1.0);
                        if tb >= ta && visible {
                            // floor/ceil give ≤1 step of slack each side
                            // on top of the ±0.5px interval slack; the
                            // kernel's pre-reject discards the excess.
                            let s0 = (ta * steps).floor().max(0.0);
                            let s1 = (tb * steps).ceil().min(steps);
                            let tc = bx0.max(0.0) as usize / grid.tile();
                            let tr = by0.max(0.0) as usize / grid.tile();
                            line_scratch.push((
                                grid.index(tc, tr) as u32,
                                BinnedLine {
                                    idx: li as u32,
                                    s0: s0 as u32,
                                    s1: s1 as u32,
                                },
                            ));
                        }
                        cx0 += ts;
                    }
                }
                ry0 += ts;
            }
        }
    }
    let lines = csr_pairs(grid.len(), line_scratch.iter().map(|(idx, l)| (*idx as usize, l)));
    let mut point_scratch: Vec<(usize, &RasterPoint)> = Vec::new();
    for p in prims.points.iter() {
        if !(-1.001..=1.001).contains(&p.z) {
            continue; // the kernel rejects the whole sprite anyway
        }
        let r = p.radius.max(0.5) as f64;
        grid.for_tiles_over(
            (p.x - r).floor(),
            (p.x + r).ceil(),
            (p.y - r).floor(),
            (p.y + r).ceil(),
            |idx| point_scratch.push((idx, p)),
        );
    }
    let points = csr_pairs(grid.len(), point_scratch.iter().copied());
    TileBins { quads, tris, lines, points }
}

/// Rasterizes binned primitives into a framebuffer it writes anew:
/// tile-row bands in parallel, each written as `background` at depth +∞ and
/// then its occupied tiles rasterized serially while the band is still in
/// cache (each tile's pixels belong to exactly one band, so no locking).
/// Which thread takes which band is decided as the bands are claimed, top
/// to bottom. Within a tile the slice quads go first: they are opaque
/// images under everything else, and what the mesh they replaced wrote
/// before any translucent triangle blended.
pub(crate) fn rasterize_bins(
    prims: &PrimitiveList,
    bins: &TileBins,
    grid: &TileGrid,
    background: Color,
    fb: &mut Framebuffer,
) {
    let cols = grid.cols();
    fb.redraw_bands(grid.tile(), background, |ty, band| {
        let mut owners = vec![0u32; grid.tile() * band.rows];
        for tx in 0..cols {
            let idx = grid.index(tx, ty);
            if bins.is_empty(idx) {
                continue;
            }
            let rect = grid.rect(idx);
            let mut view = TileView::new(band, rect.x0, rect.x0 + rect.w, &mut owners);
            for q in bins.quads(idx).iter().filter_map(|&q| prims.quads.get(q as usize)) {
                view.quad(q);
            }
            for t in bins.tris(idx) {
                view.triangle(&prims.verts, t);
            }
            for b in bins.lines(idx) {
                if let Some(l) = prims.lines.get(b.idx as usize) {
                    view.line(l, b.s0 as usize, b.s1 as usize);
                }
            }
            for p in bins.points(idx) {
                view.point(p);
            }
        }
    });
}

/// One tile of one band: the x-range `[x0, x1)` of the tile plus the
/// rows the owning band covers. Holds the pixel slices directly (not a
/// `&mut BandView` indirection) so the plot path compiles to the same
/// register-resident loads the scanline `Band` gets. The kernels below
/// are the scanline kernels with their loops clipped to this rectangle.
struct TileView<'a> {
    x0: usize,
    x1: usize,
    y0: usize,
    rows: usize,
    width: usize,
    /// The same rectangle as the inclusive pixel box `[x0, x1, y0, y1]`
    /// a [`TriRef::bbox`] is clipped against.
    rect: [i32; 4],
    colors: &'a mut [Color],
    depths: &'a mut [f32],
    /// Per pixel, row-major at the tile's width: the painter key of the
    /// triangle fragment that set the depth, 0 for the background or a quad.
    owners: &'a mut [u32],
}

/// `w0·c0 + w1·c1 + w2·c2` per channel in the scanline triangle kernel's
/// expression form: a triangle fragment's colour, and a quad's texel mix.
#[inline]
fn mix([w0, w1, w2]: [f64; 3], [c0, c1, c2]: [&Color; 3]) -> Color {
    let (w0, w1, w2) = (w0 as f32, w1 as f32, w2 as f32);
    Color {
        r: w0 * c0.r + w1 * c1.r + w2 * c2.r,
        g: w0 * c0.g + w1 * c1.g + w2 * c2.g,
        b: w0 * c0.b + w1 * c1.b + w2 * c2.b,
        a: w0 * c0.a + w1 * c1.a + w2 * c2.a,
    }
}

impl<'a> TileView<'a> {
    /// Columns `x0..x1` of `band`, its owner keys zeroed.
    fn new(band: &'a mut BandView<'_>, x0: usize, x1: usize, owners: &'a mut [u32]) -> Self {
        owners.fill(0);
        TileView {
            x0,
            x1,
            y0: band.y0,
            rows: band.rows,
            width: band.width,
            rect: [x0, x1 - 1, band.y0, band.y0 + band.rows - 1]
                .map(|px| i32::try_from(px).unwrap_or(i32::MAX)),
            colors: &mut *band.colors,
            depths: &mut *band.depths,
            owners,
        }
    }

    /// The depth test: a nearer fragment writes (opaque) or blends. A
    /// triangle fragment passes its [`painter_key`], also wins an exact
    /// depth tie against a greater owner key, and owns what it writes; a
    /// quad (first in a tile), line or point (last) passes `None` and does
    /// neither. So the pixel keeps the least (depth, key, list index) —
    /// what painter order leaves there, in any list order if nothing
    /// blends (DESIGN §23).
    #[inline]
    fn plot(&mut self, x: usize, y: usize, z: f32, c: Color, key: Option<u32>) {
        if y < self.y0 || y >= self.y0 + self.rows || x < self.x0 || x >= self.x1 {
            return;
        }
        let i = (y - self.y0) * self.width + x;
        let (Some(d), Some(px)) = (self.depths.get_mut(i), self.colors.get_mut(i)) else {
            return;
        };
        let o = (y - self.y0) * (self.x1 - self.x0) + (x - self.x0);
        let owner = key.and_then(|k| Some((k, self.owners.get_mut(o)?)));
        if z < *d || owner.as_ref().is_some_and(|(k, owner)| z == *d && *k < **owner) {
            if c.a >= 0.999 {
                *px = c;
                *d = z;
                if let Some((k, owner)) = owner {
                    *owner = k;
                }
            } else if c.a > 0.001 {
                *px = Color { a: 1.0, ..c }.lerp(*px, 1.0 - c.a);
            }
        }
    }

    fn triangle(&mut self, verts: &[ScreenVertex], t: &TriRef) {
        // Clip the integer box against the tile before touching a vertex:
        // `x0.max(lo)` / `x1.min(hi)` in `i32`, where a saturated bound
        // still lands on the same side of the tile. The box is the scanline
        // box less centres the edge test rejects (`TriRef::bbox`).
        let [bx0, bx1, by0, by1] = t.bbox;
        let [rx0, rx1, ry0, ry1] = self.rect;
        let (ymin, ymax) = (by0.max(ry0), by1.min(ry1));
        if ymin > ymax {
            return;
        }
        let (xmin, xmax) = (bx0.max(rx0), bx1.min(rx1));
        if xmin > xmax {
            return;
        }
        let [Some(a), Some(b), Some(c)] = t.v.map(|i| verts.get(i as usize)) else {
            return;
        };
        let (az, bz, cz) = (a.z, b.z, c.z);
        // signed area; reject degenerate (assembly already dropped these)
        let area = signed_area(a, b, c);
        if area.abs() < DEGENERATE_AREA {
            return;
        }
        let inv_area = 1.0 / area;
        let key = Some(painter_key([az, bz, cz]));
        // the clipped bounds lie inside the tile, so they are non-negative
        for y in (ymin.unsigned_abs() as usize)..=(ymax.unsigned_abs() as usize) {
            let py = y as f64;
            for x in (xmin.unsigned_abs() as usize)..=(xmax.unsigned_abs() as usize) {
                // barycentric coordinates, by the test assembly boxed by
                let Some([w0, w1, w2]) = weights_at([a, b, c], inv_area, x as f64, py) else {
                    continue;
                };
                let z = (w0 * az as f64 + w1 * bz as f64 + w2 * cz as f64) as f32;
                if !(-1.001..=1.001).contains(&z) {
                    continue; // outside clip volume
                }
                self.plot(x, y, z, mix([w0, w1, w2], [&a.color, &b.color, &c.color]), key);
            }
        }
    }

    /// A slice quad, clipped to the tile. Each pixel centre in the box goes
    /// through the inverse homography to the plane point under it, at grid
    /// coordinates `(s, t)`. A centre is drawn when that point is in front
    /// of the eye (`1/w > 0`; per-pixel clipping, where the mesh dropped
    /// every triangle with a corner at `w ≤ 1e-9`), on the plane to the
    /// mesh's `1e-9` edge tolerance, and at an NDC depth inside the clip
    /// range. Its colour is the texels of the cell triangle it falls in —
    /// the mesh's own split along the `p00–p11` diagonal — mixed with the
    /// barycentric weights of `(s, t)` in that triangle, and it is written
    /// with the plane's exact depth under the triangle kernel's `z < d`
    /// rule. The weights are perspective-correct where the mesh's were
    /// screen-affine; DESIGN §21 bounds the difference.
    fn quad(&mut self, q: &ScreenQuad) {
        const EDGE: f64 = 1e-9;
        let [bx0, bx1, by0, by1] = q.bbox;
        let [rx0, rx1, ry0, ry1] = self.rect;
        let (ymin, ymax) = (by0.max(ry0), by1.min(ry1));
        let (xmin, xmax) = (bx0.max(rx0), bx1.min(rx1));
        if ymin > ymax || xmin > xmax {
            return;
        }
        let [[sx, sy, s1], [tx, ty, t1], [wx, wy, w1]] = q.to_plane;
        let [zx, zy, z1] = q.depth;
        let nu = q.nu;
        let (last_u, last_v) = (nu.saturating_sub(1) as f64, q.nv.saturating_sub(1) as f64);
        let (cell_u, cell_v) = (nu.saturating_sub(2), q.nv.saturating_sub(2));
        // the clipped bounds lie inside the tile, so they are non-negative
        for y in (ymin.unsigned_abs() as usize)..=(ymax.unsigned_abs() as usize) {
            let py = y as f64;
            let (s_row, t_row, w_row, z_row) = (sy * py + s1, ty * py + t1, wy * py + w1, zy * py + z1);
            for x in (xmin.unsigned_abs() as usize)..=(xmax.unsigned_abs() as usize) {
                let px = x as f64;
                let inv_w = wx * px + w_row;
                if inv_w <= 0.0 {
                    continue; // behind the eye, or on its plane (a NaN fails the next test)
                }
                let w = 1.0 / inv_w;
                let (s, t) = ((sx * px + s_row) * w, (tx * px + t_row) * w);
                if !(s >= -EDGE && s <= last_u + EDGE && t >= -EDGE && t <= last_v + EDGE) {
                    continue; // off the plane
                }
                let z = (zx * px + z_row) as f32;
                if !(-1.001..=1.001).contains(&z) {
                    continue; // outside clip volume
                }
                let (s, t) = (s.clamp(0.0, last_u), t.clamp(0.0, last_v));
                let (u0, v0) = ((s as usize).min(cell_u), (t as usize).min(cell_v));
                let (fs, ft) = (s - u0 as f64, t - v0 as f64);
                let p00 = v0 * nu + u0;
                let (p10, p01, p11) = (p00 + 1, p00 + nu, p00 + nu + 1);
                // [p00, p10, p11] on the p10 side of the diagonal, else [p00, p11, p01]
                let (w0, w1, w2, ib, ic) = if fs >= ft {
                    (1.0 - fs, fs - ft, ft, p10, p11)
                } else {
                    (1.0 - ft, fs, ft - fs, p11, p01)
                };
                let (Some(col_a), Some(col_b), Some(col_c)) =
                    (q.texels.get(p00), q.texels.get(ib), q.texels.get(ic))
                else {
                    continue;
                };
                self.plot(x, y, z, mix([w0, w1, w2], [col_a, col_b, col_c]), None);
            }
        }
    }

    fn line(&mut self, l: &RasterLine, bs0: usize, bs1: usize) {
        let (ax, ay, az) = l.a;
        let (bx, by, bz) = l.b;
        let dx = bx - ax;
        let dy = by - ay;
        let steps = dx.abs().max(dy.abs()).ceil().max(1.0);
        let n = steps as usize;
        // Conservative step range for this tile, precomputed at bin
        // time; each visited step runs the scanline arithmetic verbatim
        // (t derives from the absolute step index, so shared pixels get
        // bit-identical samples) and the pre-reject below discards the
        // slack steps before any interpolation.
        let s0 = bs0.min(n);
        let s1 = bs1.min(n);
        for s in s0..=s1 {
            let t = s as f64 / steps;
            let x = ax + dx * t;
            let y = ay + dy * t;
            if x < 0.0 || y < 0.0 {
                continue;
            }
            // Pre-reject steps that round outside this tile before the
            // z/color interpolation: the walk range is conservative, so
            // edge steps land out of rect and their interpolants would be
            // discarded by `plot` anyway. Plotted pixels are untouched —
            // in-rect steps run the scanline arithmetic verbatim below.
            let (xi, yi) = (x.round() as usize, y.round() as usize);
            if yi < self.y0 || yi >= self.y0 + self.rows || xi < self.x0 || xi >= self.x1 {
                continue;
            }
            let z = az + (bz - az) * t as f32;
            if !(-1.001..=1.001).contains(&z) {
                continue;
            }
            // nudge lines toward the viewer so they win ties against the
            // coplanar surfaces they annotate
            let c = l.color_a.lerp(l.color_b, t as f32);
            self.plot(xi, yi, z - 2e-4, c, None);
        }
    }

    fn point(&mut self, p: &RasterPoint) {
        if !(-1.001..=1.001).contains(&p.z) {
            return;
        }
        let r = p.radius.max(0.5) as f64;
        let (x0, x1) = ((p.x - r).floor().max(0.0), (p.x + r).ceil());
        let (y0, y1) = ((p.y - r).floor().max(0.0), (p.y + r).ceil());
        // clip the sprite bbox to this tile; the d² test is unchanged
        let xs = x0.max(self.x0 as f64);
        let xe = x1.min((self.x1 - 1) as f64);
        let ys = y0.max(self.y0 as f64);
        let ye = y1.min((self.y0 + self.rows - 1) as f64);
        for y in (ys as usize)..=(ye as usize) {
            for x in (xs as usize)..=(xe as usize) {
                let d2 = (x as f64 - p.x).powi(2) + (y as f64 - p.y).powi(2);
                if d2 <= r * r {
                    self.plot(x, y, p.z, p.color, None);
                }
            }
        }
    }
}

/// t-interval over which `p0 + d·t` lies within `[lo - 0.5, hi + 0.5]`
/// (the half-pixel slack is exactly what nearest-pixel rounding needs),
/// intersected with `[0, 1]`. `inv_d` is the hoisted reciprocal of the
/// coordinate delta, or `0.0` for a (near-)constant coordinate — there
/// the interval is the full line, since the caller's slab/column loops
/// already bound which slabs a constant coordinate visits.
fn slab_t(p0: f64, inv_d: f64, lo: f64, hi: f64) -> (f64, f64) {
    if inv_d == 0.0 {
        return if p0 >= lo - 0.5 && p0 <= hi + 0.5 { (0.0, 1.0) } else { (1.0, 0.0) };
    }
    let u = (lo - 0.5 - p0) * inv_d;
    let v = (hi + 0.5 - p0) * inv_d;
    (u.min(v).max(0.0), u.max(v).min(1.0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::render::test_rng::Rng;

    /// The scanline reference's `fold(INFINITY, f64::min)` /
    /// `fold(NEG_INFINITY, f64::max)` (NaN-skipping included), as the
    /// tile kernel and the binning pass spelled them before triangles
    /// carried an integer box.
    fn min3(a: f64, b: f64, c: f64) -> f64 {
        f64::INFINITY.min(a).min(b).min(c)
    }

    fn max3(a: f64, b: f64, c: f64) -> f64 {
        f64::NEG_INFINITY.max(a).max(b).max(c)
    }

    /// The bbox those engines derived per triangle, per tile entry.
    fn float_box([ax, bx, cx]: [f64; 3], [ay, by, cy]: [f64; 3]) -> [f64; 4] {
        [
            min3(ax, bx, cx).floor(),
            max3(ax, bx, cx).ceil(),
            min3(ay, by, cy).floor(),
            max3(ay, by, cy).ceil(),
        ]
    }

    fn push_tri(prims: &mut PrimitiveList, [ax, bx, cx]: [f64; 3], [ay, by, cy]: [f64; 3]) -> bool {
        let at = |sx, sy| ScreenVertex { sx, sy, z: 0.0, color: Color::WHITE };
        prims.push_tri([at(ax, ay), at(bx, by), at(cx, cy)])
    }

    #[test]
    fn plot_keeps_the_least_depth_then_the_least_painter_key() {
        // per pixel: fragments (depth, color, key) in arrival order, and the
        // color and depth the pixel must end with; key `None` is a quad,
        // line or point fragment, `Some` a triangle's with its painter key
        let (red, green, blue) = (Color::RED, Color::GREEN, Color::BLUE);
        let glass = Color::rgba(0.0, 0.0, 1.0, 0.5);
        let blend = Color { a: 1.0, ..glass }.lerp(red, 0.5);
        type Fragment = (f32, Color, Option<u32>);
        let cases: [(&[Fragment], Color, f32); 7] = [
            // the nearest fragment wins, whatever its kind
            (&[(0.5, red, None), (0.8, green, Some(0)), (0.2, blue, Some(9))], blue, 0.2),
            // a translucent one in front blends and leaves the depth
            (&[(0.5, red, Some(9)), (0.3, glass, Some(2))], blend, 0.5),
            // a quad keeps a tie even against the least key
            (&[(0.5, red, None), (0.5, green, Some(0))], red, 0.5),
            // a lower key takes a tie; an equal one (later) or a higher one not
            (&[(0.25, red, Some(7)), (0.25, green, Some(3)), (0.25, blue, Some(3))], green, 0.25),
            // ±0 tie, and the winner keeps its own depth bits
            (&[(0.0, red, Some(5)), (-0.0, green, Some(2))], green, -0.0),
            // a line or point level with a triangle never wins
            (&[(0.1, red, Some(4)), (0.1, green, None)], red, 0.1),
            (&[], Color::BLACK, f32::INFINITY),
        ];
        let n = cases.len();
        let mut fb = Framebuffer::new(n, 1);
        {
            let mut band = fb.band_views(1).into_iter().next().expect("one band");
            let mut owners = vec![0; n];
            let mut tile = TileView::new(&mut band, 0, n, &mut owners);
            for (x, (fragments, _, _)) in cases.iter().enumerate() {
                for &(z, c, key) in fragments.iter() {
                    tile.plot(x, 0, z, c, key);
                }
            }
            tile.plot(n, 0, 0.0, Color::WHITE, None); // outside the tile: ignored
        }
        for (x, &(_, color, depth)) in cases.iter().enumerate() {
            let got = (fb.pixel(x, 0), fb.depth_at(x, 0).to_bits());
            assert_eq!(got, (color, depth.to_bits()), "pixel {x}");
        }
    }

    #[test]
    fn unit_corner_alphas_make_every_triangle_fragment_opaque() {
        // weights as the kernel keeps them — w0, w1 and w2 = 1 − w0 − w1 all
        // ≥ −1e-9 — drawn down to that tolerance and up past 1: with every
        // corner alpha 1, no fragment of an opaque frame may blend
        let mut rng = Rng(0x0a1f_a0e5_7a11);
        let draw = |rng: &mut Rng| {
            let u = (rng.next() % 1_000_001) as f64 / 1e6;
            match rng.next() % 4 {
                0 => -1e-9 * u,
                1 => 1.0 + 2e-9 * u,
                _ => u,
            }
        };
        let mut lowest = f32::INFINITY;
        for _ in 0..200_000 {
            let (w0, w1) = (draw(&mut rng), draw(&mut rng));
            let w2 = 1.0 - w0 - w1;
            if w2 >= -1e-9 {
                lowest = lowest.min(mix([w0, w1, w2], [&Color::WHITE; 3]).a);
            }
        }
        assert!((0.999..1.0).contains(&lowest), "least fragment alpha {lowest}");
    }

    #[test]
    fn binning_hits_overlapping_tiles_only() {
        let grid = TileGrid::new(64, 64, 32);
        let mut prims = PrimitiveList::default();
        push_tri(&mut prims, [2.0, 10.0, 5.0], [2.0, 10.0, 9.0]); // tile 0 only
        push_tri(&mut prims, [20.0, 44.0, 30.0], [2.0, 40.0, 9.0]); // spans all four
        let bins = bin_primitives(&prims, &grid);
        let first_sx = |t: usize| -> Vec<f64> {
            bins.tris(t).map(|t| prims.raster_tri(t).sx).map(|[a, _, _]| a).collect()
        };
        // tile 0 holds refs to both triangles, in draw order
        assert_eq!(first_sx(0), vec![2.0, 20.0]);
        for t in 1..4 {
            assert_eq!(first_sx(t), vec![20.0], "only the spanning triangle lands in tile {t}");
        }
    }

    /// How the rule treats a triangle, in the `f64` spelling of the
    /// scanline engine (DESIGN §24's constants restated).
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Boxed {
        /// `|area| < 1e-12`: the kernel rejects it, assembly drops it.
        Degenerate,
        /// Small, and no pixel centre within `s` of it — or, when at most
        /// 2 × 2 centres are, none of them passes the kernel's edge test.
        Unreached,
        /// Small, at most 2 × 2 centres within `s`, and some pass the
        /// kernel's edge test: the box of those that pass.
        Covered([i32; 4]),
        /// Small: `⌈min − s⌉` / `⌊max + s⌋`, cast saturating.
        Small([i32; 4]),
        /// Anything else: the scanline `⌊min⌋` / `⌈max⌉`, cast saturating.
        Scanline([i32; 4]),
    }

    /// A small triangle's box: `⌈min − s⌉` / `⌊max + s⌋`, cast saturating.
    fn sample_box([ax, bx, cx]: [f64; 3], [ay, by, cy]: [f64; 3]) -> [i32; 4] {
        let ([x_lo, x_hi], [y_lo, y_hi]) =
            ([min3(ax, bx, cx), max3(ax, bx, cx)], [min3(ay, by, cy), max3(ay, by, cy)]);
        [(x_lo - S).ceil(), (x_hi + S).floor(), (y_lo - S).ceil(), (y_hi + S).floor()]
            .map(|b| b as i32)
    }

    /// The inclusive box `[x0, x1, y0, y1]` of some pixel centres.
    fn box_of(centres: &[(i32, i32)]) -> Option<[i32; 4]> {
        let (xs, ys) = (centres.iter().map(|&(x, _)| x), centres.iter().map(|&(_, y)| y));
        Some([xs.clone().min()?, xs.max()?, ys.clone().min()?, ys.max()?])
    }

    fn rule(sx @ [ax, bx, cx]: [f64; 3], sy @ [ay, by, cy]: [f64; 3]) -> Boxed {
        let signed = (bx - ax) * (cy - ay) - (cx - ax) * (by - ay);
        let area = signed.abs();
        if area < 1e-12 {
            return Boxed::Degenerate;
        }
        let ([x_lo, x_hi], [y_lo, y_hi]) =
            ([min3(ax, bx, cx), max3(ax, bx, cx)], [min3(ay, by, cy), max3(ay, by, cy)]);
        if area >= 2f64.powi(-20) && x_hi - x_lo <= 62.0 && y_hi - y_lo <= 62.0 {
            // empty once cast: beyond the i32 limits both bounds saturate
            // to one value, and such a box is kept (and bins to no tile)
            let [x0, x1, y0, y1] = sample_box(sx, sy);
            if x0 > x1 || y0 > y1 {
                return Boxed::Unreached;
            }
            if x1.abs_diff(x0) > 1 || y1.abs_diff(y0) > 1 {
                return Boxed::Small([x0, x1, y0, y1]);
            }
            // the kernel's barycentric test at each of those centres
            let inv = 1.0 / signed;
            let covered = |px: f64, py: f64| {
                let w0 = ((bx - px) * (cy - py) - (cx - px) * (by - py)) * inv;
                let w1 = ((cx - px) * (ay - py) - (ax - px) * (cy - py)) * inv;
                let w2 = 1.0 - w0 - w1;
                !(w0 < -1e-9 || w1 < -1e-9 || w2 < -1e-9)
            };
            let hits: Vec<(i32, i32)> = (y0..=y1)
                .flat_map(|y| (x0..=x1).map(move |x| (x, y)))
                .filter(|&(x, y)| covered(f64::from(x), f64::from(y)))
                .collect();
            return box_of(&hits).map_or(Boxed::Unreached, Boxed::Covered);
        }
        Boxed::Scanline(float_box(sx, sy).map(|b| b as i32))
    }

    /// The sample margin `s`, and `2⁻³⁰` for nudges either side of it.
    const S: f64 = 0.015_625;
    const EPS: f64 = 1.0 / 1_073_741_824.0;
    const BIG: f64 = 1e300;

    /// Coordinates the casts can get wrong: exactly integral, sub-pixel on
    /// either side of an integer and of zero, negative, beyond i32 and
    /// beyond any integer type.
    const POOL: [f64; 36] = [
        0.0, -0.0, 1.0, -1.0, 7.0, 31.0, 32.0, 479.0, 0.25, -0.25, 0.999_999, -0.999_999,
        31.5, 32.000_001, 2_147_483_647.0, 2_147_483_647.5, 2_147_483_648.0,
        -2_147_483_648.0, -2_147_483_648.5, -2_147_483_649.0, 4.0e9, -4.0e9, BIG, -BIG,
        f64::MAX, f64::MIN, f64::MAX / 2.0, f64::INFINITY, f64::NEG_INFINITY,
        f64::MIN_POSITIVE, -f64::MIN_POSITIVE,
        // either side of the two i32 limits, where the casts saturate
        // and the step back from them must
        2_147_483_646.5, 2_147_483_648.5, -2_147_483_647.5, 2_147_483_646.0,
        -2_147_483_647.0,
    ];

    /// Offsets from an integer either side of the sample margin.
    const NUDGES: [f64; 7] = [0.0, 1e-12, S - EPS, S, S + EPS, 0.5, 1.0 - S];

    fn pick(rng: &mut Rng, from: &[f64]) -> f64 {
        from.get((rng.next() % from.len() as u64) as usize).copied().unwrap_or(0.0)
    }

    #[test]
    fn a_tri_box_is_its_sample_box_when_small_and_the_scanline_box_otherwise() {
        let (pool, nudges) = (POOL, NUDGES);
        let mut seen: [usize; 5] = [0; 5];
        let mut saturated_small = 0;
        let mut check = |sx: [f64; 3], sy: [f64; 3]| {
            let mut prims = PrimitiveList::default();
            let kept = push_tri(&mut prims, sx, sy);
            let got = prims.tris.first().map(|t| t.bbox);
            let want = rule(sx, sy);
            let (slot, bbox) = match want {
                Boxed::Degenerate => (0, None),
                Boxed::Unreached => (1, None),
                Boxed::Small(b) => (2, Some(b)),
                Boxed::Scanline(b) => (3, Some(b)),
                Boxed::Covered(b) => (4, Some(b)),
            };
            assert_eq!((kept, got), (bbox.is_some(), bbox), "corners {sx:?} {sy:?}: {want:?}");
            if let Some(n) = seen.get_mut(slot) {
                *n += 1;
            }
            let limits = bbox.is_some_and(|b| b.contains(&i32::MAX) || b.contains(&i32::MIN));
            saturated_small += usize::from(slot == 2 && limits);
        };
        // every pool value as the corner of a unit right triangle (both
        // windings), so no edge waits on the draw
        for &v in &pool {
            check([v, v + 1.0, v], [v, v, v + 1.0]);
            check([v, v, v + 1.0], [v, v + 1.0, v]);
        }
        let mut rng = Rng(0x0dd_ba11_5eed);
        let coord = |rng: &mut Rng| match rng.next() % 3 {
            0 => pick(rng, &pool),
            1 => (rng.next() % 1_000) as f64 - 500.0, // integral
            _ => (rng.next() % 2_000_000) as f64 / 1_000.0 - 1_000.0,
        };
        // per axis, corners a nudge (either sign) off an anchor on, or
        // half-way between, pixel centres, or off the anchor one spread
        // on: extents either side of 62, areas either side of 2⁻²⁰ and
        // 1e-12, and all three corners in one pixel column or row
        let axis = |rng: &mut Rng| -> [f64; 3] {
            let anchor = pick(rng, &pool).round() + pick(rng, &[0.0, 0.5]);
            let spread = pick(rng, &[0.0, 0.0, 1.0, 2.0, 31.0, 62.0, 63.0]);
            [(); 3].map(|()| {
                let nudge = pick(rng, &nudges) * pick(rng, &[1.0, -1.0]);
                anchor + spread * pick(rng, &[0.0, 1.0]) + nudge
            })
        };
        for round in 0..24_000 {
            let (sx, sy) = if round % 2 == 0 {
                (axis(&mut rng), axis(&mut rng))
            } else {
                let sx = [coord(&mut rng), coord(&mut rng), coord(&mut rng)];
                (sx, [coord(&mut rng), coord(&mut rng), coord(&mut rng)])
            };
            check(sx, sy);
        }
        let [degenerate, unreached, small, scanline, covered] = seen;
        assert!(
            degenerate > 200 && unreached > 200 && small > 200 && scanline > 200 && covered > 200,
            "every rule must be reached: {seen:?}"
        );
        assert!(saturated_small > 400, "small boxes must reach the limits: {saturated_small}");
    }

    #[test]
    fn a_micro_triangle_is_kept_exactly_when_the_kernel_plots_a_centre_and_boxed_by_those() {
        // The kernel is the oracle: each micro-triangle (small, at most
        // 2 × 2 centres within `s`) is drawn alone on an empty 48 × 48 tile
        // through its old sample box, and assembly must keep it exactly
        // when a centre is plotted, boxed by the plotted centres. The box
        // contract's pool values that land on the tile once moved 8 px in,
        // its nudges, both windings.
        const IN: f64 = 8.0;
        const SIDE: usize = 48;
        let pool: Vec<f64> = POOL.into_iter().filter(|v| (-IN..=32.0).contains(v)).collect();
        let mut fb = Framebuffer::new(SIDE, SIDE);
        let mut owners = vec![0u32; SIDE * SIDE];
        let mut seen = [0usize; 2];
        let mut two_by_two = 0;
        let mut check = |sx: [f64; 3], sy: [f64; 3]| {
            if !matches!(rule(sx, sy), Boxed::Covered(_) | Boxed::Unreached) {
                return; // not small
            }
            let [x0, x1, y0, y1] = sample_box(sx, sy);
            if x0 > x1 || y0 > y1 || x1 - x0 > 1 || y1 - y0 > 1 {
                return; // no centre within `s`, or not a micro-triangle
            }
            fb.clear(Color::BLACK);
            let at = |i: usize| ScreenVertex { sx: sx[i], sy: sy[i], z: 0.0, color: Color::WHITE };
            {
                let mut band = fb.band_views(SIDE).into_iter().next().expect("one band");
                let mut tile = TileView::new(&mut band, 0, SIDE, &mut owners);
                tile.triangle(&[0, 1, 2].map(at), &TriRef { v: [0, 1, 2], bbox: [x0, x1, y0, y1] });
            }
            let plotted: Vec<(i32, i32)> = (y0..=y1)
                .flat_map(|y| (x0..=x1).map(move |x| (x, y)))
                .filter(|&(x, y)| fb.depth_at(x as usize, y as usize) != f32::INFINITY)
                .collect();
            let want = box_of(&plotted);
            let mut prims = PrimitiveList::default();
            let kept = push_tri(&mut prims, sx, sy);
            let got = prims.tris.first().map(|t| t.bbox);
            assert_eq!((kept, got), (want.is_some(), want), "corners {sx:?} {sy:?}");
            seen[usize::from(kept)] += 1;
            two_by_two += usize::from(x1 > x0 && y1 > y0);
        };
        for &v in &pool {
            let v = v + IN;
            check([v, v + 1.0, v], [v, v, v + 1.0]);
            check([v, v, v + 1.0], [v, v + 1.0, v]);
        }
        let mut rng = Rng(0x5eed_0c0e_2ed0);
        // per axis, corners a nudge (either sign) off an anchor on, or
        // half-way between, pixel centres, or off the anchor one pixel on
        let axis = |rng: &mut Rng| -> [f64; 3] {
            let anchor = pick(rng, &pool).round() + IN + pick(rng, &[0.0, 0.5]);
            let spread = pick(rng, &[0.0, 1.0]);
            [(); 3].map(|()| {
                let nudge = pick(rng, &NUDGES) * pick(rng, &[1.0, -1.0]);
                anchor + spread * pick(rng, &[0.0, 1.0]) + nudge
            })
        };
        for round in 0..12_000 {
            let (sx, sy) = (axis(&mut rng), axis(&mut rng));
            // every other draw with two corners swapped: the other winding
            let swap = |[a, b, c]: [f64; 3]| if round % 2 == 0 { [a, b, c] } else { [b, a, c] };
            check(swap(sx), swap(sy));
        }
        let [dropped, kept] = seen;
        assert!(dropped > 500 && kept > 500 && two_by_two > 200, "{seen:?}, {two_by_two} 2 × 2");
    }

    /// `TileGrid::for_tiles_over` as it stood when binning replayed every
    /// triangle's bbox through it twice, verbatim (fields read through
    /// the accessors): the `f64` clamp / reject rules, and so the oracle
    /// for the stored-span binning and for the integer `tile_span`.
    fn tiles_over_reference(
        grid: &TileGrid,
        x0: f64,
        x1: f64,
        y0: f64,
        y1: f64,
        mut f: impl FnMut(usize),
    ) {
        let (width, height, tile) = (grid.width(), grid.height(), grid.tile());
        if width == 0 || height == 0 || x1 < 0.0 || y1 < 0.0 {
            return;
        }
        if x0 > (width - 1) as f64 || y0 > (height - 1) as f64 {
            return;
        }
        let px0 = x0.max(0.0) as usize;
        let py0 = y0.max(0.0) as usize;
        let px1 = (x1 as usize).min(width - 1);
        let py1 = (y1 as usize).min(height - 1);
        if px0 > px1 || py0 > py1 {
            return;
        }
        for ty in (py0 / tile)..=(py1 / tile) {
            for tx in (px0 / tile)..=(px1 / tile) {
                f(grid.index(tx, ty));
            }
        }
    }

    #[test]
    fn triangle_bins_equal_the_bbox_walk_in_primitive_order() {
        const NAN: f64 = f64::NAN;
        const INF: f64 = f64::INFINITY;
        let grids = [(70usize, 33usize, 32usize), (33, 70, 32), (96, 64, 32), (50, 50, 7), (1, 1, 32)];
        for (w, h, tile) in grids {
            let grid = TileGrid::new(w, h, tile);
            let (fw, fh) = (w as f64, h as f64);
            let mut cases: Vec<([f64; 3], [f64; 3])> = vec![
                ([2.0, 10.0, 5.0], [2.0, 10.0, 9.0]),               // inside one tile
                ([20.3, 44.7, 30.1], [2.2, 31.9, 9.5]),             // straddles a tile edge
                ([31.0, 32.0, 31.5], [31.0, 32.0, 31.5]),           // straddles a corner
                ([-5.5, 12.0, 3.0], [4.0, 9.0, 20.0]),              // straddles the left edge
                ([fw - 3.0, fw + 9.0, fw - 1.0], [1.0, 2.0, 8.0]),  // straddles the right edge
                ([3.0, 9.0, 5.0], [-7.0, 4.0, 2.0]),                // straddles the top
                ([3.0, 9.0, 5.0], [fh - 2.0, fh + 30.0, fh - 1.0]), // straddles the bottom
                ([-9.0, -1.2, -4.0], [3.0, 8.0, 5.0]),              // off-screen left
                ([-0.9, -0.2, -0.5], [3.0, 8.0, 5.0]),              // ceil reaches column 0
                ([fw, fw + 4.0, fw + 2.0], [3.0, 8.0, 5.0]),        // off-screen right
                ([fw - 0.5, fw + 4.0, fw + 2.0], [3.0, 8.0, 5.0]),  // floor reaches the last column
                ([3.0, 8.0, 5.0], [-20.0, -1.5, -3.0]),             // off-screen above
                ([3.0, 8.0, 5.0], [fh + 0.1, fh + 9.0, fh + 2.0]),  // off-screen below
                ([NAN, 12.0, 40.0], [5.0, 6.0, 20.0]),              // one NaN coordinate
                ([NAN, NAN, NAN], [5.0, 6.0, 20.0]),                // a NaN axis
                ([5.0, 6.0, 20.0], [NAN, NAN, 3.0]),
                ([-INF, 10.0, 20.0], [4.0, INF, 8.0]),              // infinite extent
                ([INF, INF, INF], [1.0, 2.0, 3.0]),
                ([1e300, -1e300, 0.0], [-1e300, 1e300, 0.0]),       // beyond any integer type
                ([4.0, 4.0, 4.0], [4.0, 4.0, 4.0]),                 // zero area: a point
                ([4.0, 40.0, 22.0], [9.0, 9.0, 9.0]),               // zero area: a row
                ([33.0, 33.0, 33.0], [-4.0, fh + 4.0, 12.0]),       // zero area: a column
                ([-50.0, fw + 50.0, fw / 2.0], [-50.0, -50.0, fh + 50.0]), // full screen
                ([0.0, fw - 1.0, 0.0], [0.0, 0.0, fh - 1.0]),       // exactly the screen
            ];
            // a seeded sweep on top of the named cases
            let mut rng = Rng(0x2545_f491_4f6c_dd1d ^ (w * 131 + h) as u64);
            let mut coord = |span: f64| (rng.next() % 4_000) as f64 / 4_000.0 * 3.0 * span - span;
            for _ in 0..400 {
                cases.push((
                    [coord(fw), coord(fw), coord(fw)],
                    [coord(fh), coord(fh), coord(fh)],
                ));
            }
            // the integer box is the saturating cast of the float one;
            // v[0] carries the list position into the bins
            let boxes: Vec<[f64; 4]> = cases.iter().map(|(sx, sy)| float_box(*sx, *sy)).collect();
            let mut prims = PrimitiveList::default();
            for (id, b) in boxes.iter().enumerate() {
                prims.tris.push(TriRef { v: [id as u32, 0, 0], bbox: b.map(|bound| bound as i32) });
            }
            let mut expected: Vec<Vec<usize>> = vec![Vec::new(); grid.len()];
            for (id, &[x0, x1, y0, y1]) in boxes.iter().enumerate() {
                let mut want = Vec::new();
                tiles_over_reference(&grid, x0, x1, y0, y1, |idx| want.push(idx));
                // the public walk casts its float bounds into the same span
                let mut walked = Vec::new();
                grid.for_tiles_over(x0, x1, y0, y1, |idx| walked.push(idx));
                assert_eq!(walked, want, "{w}x{h} tile {tile}: case {id}");
                for idx in want {
                    expected.get_mut(idx).expect("tile in range").push(id);
                }
            }
            let bins = bin_primitives(&prims, &grid);
            for (t, want) in expected.iter().enumerate() {
                let got: Vec<usize> = bins
                    .tris(t)
                    .map(|tri| {
                        let [id, _, _] = tri.v;
                        id as usize
                    })
                    .collect();
                assert_eq!(&got, want, "{w}x{h} tile {tile}: tile {t}");
            }
            // NaN and infinite *bounds* (no triangle box has them, a
            // caller's sprite box may): NaN clamps to pixel 0
            let odd = [NAN, INF, -INF, -3.0, 0.0, 5.0, fw - 1.0, fw + 40.0];
            for (i, &x0) in odd.iter().enumerate() {
                for &x1 in &odd {
                    let (y0, y1) = (odd.get((i + 3) % odd.len()).copied().unwrap_or(0.0), x1);
                    let mut want = Vec::new();
                    tiles_over_reference(&grid, x0, x1, y0, y1, |idx| want.push(idx));
                    let mut walked = Vec::new();
                    grid.for_tiles_over(x0, x1, y0, y1, |idx| walked.push(idx));
                    assert_eq!(walked, want, "{w}x{h} tile {tile}: bounds {x0} {x1} {y0} {y1}");
                }
            }
            assert!(expected.iter().any(|l| l.len() > 100), "the sweep must load the bins");
        }
    }

    #[test]
    fn quads_bin_by_index_to_every_tile_their_box_covers() {
        use crate::render::image_slice::ScreenQuad;
        let grid = TileGrid::new(96, 64, 32);
        let mut prims = PrimitiveList::default();
        let quad = |bbox| ScreenQuad {
            texels: Vec::new().into(),
            nu: 2,
            nv: 2,
            to_plane: [[0.0; 3]; 3],
            depth: [0.0; 3],
            bbox,
        };
        prims.quads.push(quad([20, 44, 2, 40])); // tiles (0..=1, 0..=1)
        prims.quads.push(quad([i32::MIN, i32::MAX, i32::MIN, i32::MAX])); // every tile
        prims.quads.push(quad([-9, -1, 0, 63])); // off screen
        let bins = bin_primitives(&prims, &grid);
        for t in 0..grid.len() {
            let (tx, ty) = (t % 3, t / 3);
            let want: Vec<u32> = if tx <= 1 && ty <= 1 { vec![0, 1] } else { vec![1] };
            assert_eq!(bins.quads(t), want.as_slice(), "tile {t}");
            assert!(!bins.is_empty(t));
        }
    }

    #[test]
    fn line_binning_covers_rounding_slack() {
        let grid = TileGrid::new(64, 64, 32);
        let mut prims = PrimitiveList::default();
        // horizontal line at y = 31.6: every pixel rounds to y = 32, the
        // bottom tile row — binning must cover that row, and the ±0.5px
        // slack must NOT leak it into the top row (whose pixels it can
        // never touch)
        prims.lines.push(RasterLine {
            a: (0.0, 31.6, 0.0),
            b: (63.0, 31.6, 0.0),
            color_a: Color::WHITE,
            color_b: Color::WHITE,
        });
        let bins = bin_primitives(&prims, &grid);
        assert_eq!(bins.lines(grid.index(0, 1)).len(), 1);
        assert_eq!(bins.lines(grid.index(1, 1)).len(), 1);
        assert!(bins.lines(grid.index(0, 0)).is_empty());
        assert!(bins.lines(grid.index(1, 0)).is_empty());
    }

    #[test]
    fn point_z_clip_skips_binning() {
        let grid = TileGrid::new(64, 64, 32);
        let mut prims = PrimitiveList::default();
        prims.points.push(RasterPoint {
            x: 5.0,
            y: 5.0,
            z: 2.0, // outside clip volume
            radius: 3.0,
            color: Color::WHITE,
        });
        let bins = bin_primitives(&prims, &grid);
        assert!((0..grid.len()).all(|t| bins.points(t).is_empty()));
    }

    #[test]
    fn slab_t_brackets_the_slab() {
        // p(t) = 0 + 64·t: the slab [16, 31] is hit for t in [16/64, 31/64]
        let (ta, tb) = slab_t(0.0, 1.0 / 64.0, 16.0, 31.0);
        assert!(ta < 16.0 / 64.0 && tb > 31.0 / 64.0);
        // constant coordinate: full interval (the caller's loops bound it)
        assert_eq!(slab_t(20.0, 0.0, 16.0, 31.0), (0.0, 1.0));
        // interval is clamped to [0, 1]
        let (ta, tb) = slab_t(0.0, 1.0 / 8.0, -100.0, 200.0);
        assert_eq!((ta, tb), (0.0, 1.0));
    }

    #[test]
    fn binned_line_step_range_covers_tile_pixels() {
        // a diagonal across a 64×64 screen: each tile's stored range must
        // include every step whose rounded pixel lands in that tile
        let grid = TileGrid::new(64, 64, 32);
        let mut prims = PrimitiveList::default();
        let l = RasterLine {
            a: (3.0, 7.0, 0.0),
            b: (61.0, 58.0, 0.0),
            color_a: Color::WHITE,
            color_b: Color::WHITE,
        };
        prims.lines.push(l);
        let bins = bin_primitives(&prims, &grid);
        let steps = (61.0f64 - 3.0).max(58.0 - 7.0).ceil();
        for s in 0..=(steps as usize) {
            let t = s as f64 / steps;
            let x = (3.0 + 58.0 * t).round() as usize;
            let y = (7.0 + 51.0 * t).round() as usize;
            let idx = grid.index(x / 32, y / 32);
            assert!(
                bins.lines(idx).iter().any(|b| (b.s0 as usize..=b.s1 as usize).contains(&s)),
                "step {s} (pixel {x},{y}) missing from tile {idx}"
            );
        }
    }
}
