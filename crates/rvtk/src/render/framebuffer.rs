//! Offscreen framebuffer: color + depth, with PPM export, plus the
//! tile/band partition helpers shared by the rasterizer and volume paths.

use crate::color::Color;
use std::io::Write;
use std::path::Path;

/// A fixed-size screen-tile decomposition of a framebuffer.
///
/// Both the tile-binned rasterizer and the hyperwall frame-delta transport
/// partition the screen with this grid, so a "tile" means the same pixel
/// rectangle on both sides of the wire. Tiles are `tile × tile` pixels
/// except at the right/bottom edges, where they are clipped to the screen.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TileGrid {
    width: usize,
    height: usize,
    tile: usize,
}

/// The pixel rectangle of one tile (clipped to the screen).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TileRect {
    /// Left column (inclusive).
    pub x0: usize,
    /// Top row (inclusive).
    pub y0: usize,
    /// Width in pixels (≥ 1 for a valid tile).
    pub w: usize,
    /// Height in pixels.
    pub h: usize,
}

impl TileGrid {
    /// The default tile edge in pixels.
    pub(crate) const TILE: usize = 32;

    /// A grid of `tile × tile` tiles over a `width × height` screen.
    pub(crate) fn new(width: usize, height: usize, tile: usize) -> TileGrid {
        TileGrid { width, height, tile: tile.max(1) }
    }

    /// Grid over a screen with the default tile edge.
    pub fn with_default_tile(width: usize, height: usize) -> TileGrid {
        TileGrid::new(width, height, TileGrid::TILE)
    }

    /// Screen width in pixels.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Screen height in pixels.
    pub(crate) fn height(&self) -> usize {
        self.height
    }

    /// Tile edge in pixels.
    pub fn tile(&self) -> usize {
        self.tile
    }

    /// Number of tile columns.
    pub fn cols(&self) -> usize {
        self.width.div_ceil(self.tile)
    }

    /// Number of tile rows.
    pub fn rows(&self) -> usize {
        self.height.div_ceil(self.tile)
    }

    /// Total number of tiles.
    pub fn len(&self) -> usize {
        self.cols() * self.rows()
    }

    /// True when the screen is empty (zero tiles).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Flat tile index of tile column `tx`, tile row `ty`.
    pub fn index(&self, tx: usize, ty: usize) -> usize {
        ty * self.cols() + tx
    }

    /// Pixel rectangle of the tile at flat index `idx`, clipped to the
    /// screen. Out-of-range indices yield an empty rect.
    pub fn rect(&self, idx: usize) -> TileRect {
        let cols = self.cols().max(1);
        let (tx, ty) = (idx % cols, idx / cols);
        let x0 = (tx * self.tile).min(self.width);
        let y0 = (ty * self.tile).min(self.height);
        TileRect {
            x0,
            y0,
            w: self.tile.min(self.width - x0),
            h: self.tile.min(self.height - y0),
        }
    }

    /// The tiles overlapping the inclusive pixel box `[x0, x1, y0, y1]`
    /// (screen-clamped) — the one copy of the clamp / reject rules, shared
    /// by triangle binning (whose boxes are born as integers) and
    /// [`TileGrid::for_tiles_over`]. The box may extend past the screen
    /// or sit saturated at the `i32` limits; an empty overlap yields the
    /// empty span. A screen edge beyond `i32::MAX` pixels saturates: one
    /// framebuffer row of that width is 43 GB.
    pub(crate) fn tile_span(&self, [x0, x1, y0, y1]: [i32; 4]) -> TileSpan {
        if self.width == 0 || self.height == 0 {
            return TileSpan::EMPTY;
        }
        let last = |n: usize| i32::try_from(n - 1).unwrap_or(i32::MAX);
        let (px0, px1) = (x0.max(0), x1.min(last(self.width)));
        let (py0, py1) = (y0.max(0), y1.min(last(self.height)));
        // the one reject: a box that ends before pixel 0 has its clamped
        // end below its clamped start, and so has one that starts past the
        // last pixel
        if px0 > px1 || py0 > py1 {
            return TileSpan::EMPTY;
        }
        // the clamped bounds are non-negative; a power-of-two edge (the
        // default 32) divides by a shift, four times a triangle
        let edge = u32::try_from(self.tile).unwrap_or(u32::MAX);
        let shift = edge.is_power_of_two().then(|| edge.trailing_zeros());
        let tile = |px: i32| match shift {
            Some(s) => px.unsigned_abs() >> s,
            None => px.unsigned_abs() / edge,
        };
        TileSpan { tx0: tile(px0), tx1: tile(px1), ty0: tile(py0), ty1: tile(py1) }
    }

    /// Calls `f(flat_index)` for every tile overlapping the inclusive
    /// pixel bbox `[x0, x1] × [y0, y1]` (screen-clamped), row-major.
    /// Bounds are pixel coordinates — whole numbers, possibly ±∞ — and are
    /// cast saturating to `i32`; a NaN bound casts to pixel 0.
    pub(crate) fn for_tiles_over(&self, x0: f64, x1: f64, y0: f64, y1: f64, f: impl FnMut(usize)) {
        self.tile_span([x0, x1, y0, y1].map(|b| b as i32)).tiles(self.cols()).for_each(f);
    }
}

/// An inclusive rectangle of tile coordinates — what a screen bbox
/// reduces to once clamped to a [`TileGrid`]. 16 bytes, so a frame can
/// keep one per primitive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct TileSpan {
    tx0: u32,
    tx1: u32,
    ty0: u32,
    ty1: u32,
}

impl TileSpan {
    /// Covers no tile.
    const EMPTY: TileSpan = TileSpan { tx0: 1, tx1: 0, ty0: 1, ty1: 0 };

    /// Flat indices of the covered tiles in a grid `cols` tiles wide,
    /// row-major.
    pub(crate) fn tiles(self, cols: usize) -> impl Iterator<Item = usize> + Clone {
        let TileSpan { tx0, tx1, ty0, ty1 } = self;
        (ty0..=ty1).flat_map(move |ty| (tx0..=tx1).map(move |tx| ty as usize * cols + tx as usize))
    }
}

/// A horizontal slice of a framebuffer, written by one thread at a time —
/// the partition unit shared by the tile rasterizer, the scanline
/// reference and the volume ray-caster.
pub(crate) struct BandView<'a> {
    /// First framebuffer row of this band.
    pub y0: usize,
    /// Number of rows.
    pub rows: usize,
    /// Framebuffer width.
    pub width: usize,
    /// Color storage for exactly `rows * width` pixels.
    pub colors: &'a mut [Color],
    /// Depth storage for exactly `rows * width` pixels.
    pub depths: &'a mut [f32],
}

/// An RGBA + depth framebuffer.
#[derive(Debug, Clone)]
pub struct Framebuffer {
    width: usize,
    height: usize,
    /// Row-major colors (y = 0 is the top row).
    color: Vec<Color>,
    /// NDC depth in [-1, 1]; +∞ means empty.
    depth: Vec<f32>,
}

impl Framebuffer {
    /// Creates a framebuffer cleared to black.
    pub fn new(width: usize, height: usize) -> Framebuffer {
        Framebuffer {
            width,
            height,
            color: vec![Color::BLACK; width * height],
            depth: vec![f32::INFINITY; width * height],
        }
    }

    /// A `width`×`height` framebuffer whose pixels are not written yet: no
    /// storage at all. Only for a caller that hands it straight to
    /// [`Framebuffer::redraw_bands`] (through `Renderer::render`), which
    /// writes every pixel before anything can read one.
    pub(crate) fn unwritten(width: usize, height: usize) -> Framebuffer {
        Framebuffer { width, height, color: Vec::new(), depth: Vec::new() }
    }

    /// Width in pixels.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Height in pixels.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Aspect ratio (w/h).
    pub fn aspect(&self) -> f64 {
        self.width as f64 / self.height.max(1) as f64
    }

    /// Clears color and depth.
    pub(crate) fn clear(&mut self, background: Color) {
        self.color.fill(background);
        self.depth.fill(f32::INFINITY);
    }

    /// Pixel color at `(x, y)`; panics out of range (test/diagnostic use).
    pub fn pixel(&self, x: usize, y: usize) -> Color {
        self.color[y * self.width + x]
    }

    /// Depth at `(x, y)`.
    pub fn depth_at(&self, x: usize, y: usize) -> f32 {
        self.depth[y * self.width + x]
    }

    /// Sets a pixel unconditionally (no depth test), for 2D overlays.
    pub fn set_pixel(&mut self, x: usize, y: usize, c: Color) {
        if x < self.width && y < self.height {
            let i = y * self.width + x;
            self.color[i] = if c.a >= 1.0 { c } else { c.over(self.color[i]) };
        }
    }

    /// Raw color slice.
    pub fn colors(&self) -> &[Color] {
        &self.color
    }

    /// Splits the framebuffer into horizontal bands of `rows_per_band`
    /// rows (the last may be shorter) — each band owns disjoint rows so
    /// they can be written in parallel without locking: the partition of
    /// the scanline reference and the volume ray-caster, which draw over
    /// pixels already written. The tile rasterizer writes its bands
    /// through [`Framebuffer::redraw_bands`].
    pub(crate) fn band_views(&mut self, rows_per_band: usize) -> Vec<BandView<'_>> {
        let rows_per = rows_per_band.clamp(1, self.height.max(1));
        let width = self.width;
        let mut out = Vec::with_capacity(self.height.div_ceil(rows_per));
        let mut color_rest: &mut [Color] = &mut self.color;
        let mut depth_rest: &mut [f32] = &mut self.depth;
        let mut y = 0usize;
        while y < self.height {
            let rows = rows_per.min(self.height - y);
            let (c, cr) = color_rest.split_at_mut(rows * width);
            let (d, dr) = depth_rest.split_at_mut(rows * width);
            color_rest = cr;
            depth_rest = dr;
            out.push(BandView { y0: y, rows, width, colors: c, depths: d });
            y += rows;
        }
        out
    }

    /// One band per rayon worker — the historic row-band split of the
    /// scanline reference rasterizer.
    pub(crate) fn thread_bands(&mut self) -> Vec<BandView<'_>> {
        let n = rayon::current_num_threads().max(1).min(self.height.max(1));
        self.band_views(self.height.max(1).div_ceil(n))
    }

    /// Writes every pixel anew, band by band, on one parallel region: band
    /// `b` covers the `rows_per_band` rows from `b * rows_per_band` (the
    /// last may be shorter), is written as `background` at depth +∞ straight
    /// into the storage's spare capacity, and is then handed to
    /// `draw(b, band)` while it is still in cache. No pixel is written
    /// before its band's fill, so none is written twice to clear it. A
    /// panic in `draw` leaves the framebuffer cleared to `background`.
    pub(crate) fn redraw_bands(
        &mut self,
        rows_per_band: usize,
        background: Color,
        draw: impl Fn(usize, &mut BandView<'_>) + Sync,
    ) {
        /// Restores whole storage if the growth below unwinds.
        struct Cleared<'a>(&'a mut Framebuffer, Color);
        impl Drop for Cleared<'_> {
            fn drop(&mut self) {
                let n = self.0.width * self.0.height;
                if self.0.color.len() != n || self.0.depth.len() != n {
                    self.0.color.clear();
                    self.0.color.resize(n, self.1);
                    self.0.depth.clear();
                    self.0.depth.resize(n, f32::INFINITY);
                }
            }
        }
        let rows_per = rows_per_band.clamp(1, self.height.max(1));
        let (width, n) = (self.width, self.width * self.height);
        self.color.clear();
        self.depth.clear();
        let fb = Cleared(self, background);
        let (color, depth) = (&mut fb.0.color, &mut fb.0.depth);
        let band_px = (rows_per * width).max(1);
        rayon::extend_chunks_pair(color, depth, n, band_px, |b, colors, depths| {
            let colors = colors.fill(background);
            let rows = colors.len() / width;
            let depths = depths.fill(f32::INFINITY);
            draw(b, &mut BandView { y0: b * rows_per, rows, width, colors, depths });
        });
    }

    /// Quantizes the image to packed RGBA8 bytes (row-major, y = 0 top) —
    /// the lossless wire format of the hyperwall frame-delta transport.
    /// Bands of `TileGrid::TILE` rows are quantized in parallel, each
    /// written once into the output's spare capacity.
    pub fn to_rgba8(&self) -> Vec<u8> {
        let mut out = Vec::new();
        let band = self.width.max(1) * TileGrid::TILE;
        rayon::extend_chunks(&mut out, self.color.len() * 4, band * 4, |b, mut bytes| {
            let colors = self.color.get(b * band..).unwrap_or(&[]);
            for c in colors.iter().take(bytes.len() / 4) {
                bytes.extend_from_slice(&c.to_u8());
            }
            bytes.finish();
        });
        out
    }

    /// A `width`×`height` framebuffer holding packed RGBA8 pixels, the
    /// inverse of [`Framebuffer::to_rgba8`] (empty depth). Pixels missing
    /// from a short `rgba` stay black.
    pub fn from_rgba8(width: usize, height: usize, rgba: &[u8]) -> Framebuffer {
        let mut fb = Framebuffer::new(width, height);
        for (c, px) in fb.color.iter_mut().zip(rgba.chunks_exact(4)) {
            if let Ok(px) = <[u8; 4]>::try_from(px) {
                *c = Color::from_u8(px);
            }
        }
        fb
    }

    /// Mean luminance over all pixels — a cheap "did anything render" probe
    /// used heavily by tests.
    pub fn mean_luminance(&self) -> f32 {
        if self.color.is_empty() {
            return 0.0;
        }
        self.color.iter().map(|c| c.luminance()).sum::<f32>() / self.color.len() as f32
    }

    /// Number of pixels whose color differs from `background`.
    pub fn covered_pixels(&self, background: Color) -> usize {
        self.color
            .iter()
            .filter(|&&c| {
                (c.r - background.r).abs() > 1e-3
                    || (c.g - background.g).abs() > 1e-3
                    || (c.b - background.b).abs() > 1e-3
            })
            .count()
    }

    /// Copies `src` into this framebuffer with its top-left corner at
    /// `(x0, y0)`, clipping at the edges (no depth transfer) — used to
    /// assemble mosaics like the hyperwall's touchscreen mirror.
    pub fn blit(&mut self, src: &Framebuffer, x0: usize, y0: usize) {
        for sy in 0..src.height() {
            let dy = y0 + sy;
            if dy >= self.height {
                break;
            }
            for sx in 0..src.width() {
                let dx = x0 + sx;
                if dx >= self.width {
                    break;
                }
                self.color[dy * self.width + dx] = src.pixel(sx, sy);
            }
        }
    }

    /// Writes a binary PPM (P6) image.
    pub fn save_ppm(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(f, "P6\n{} {}\n255", self.width, self.height)?;
        for c in &self.color {
            let [r, g, b, _] = c.to_u8();
            f.write_all(&[r, g, b])?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clear_and_pixel_access() {
        let mut fb = Framebuffer::new(4, 3);
        assert_eq!(fb.width(), 4);
        assert_eq!(fb.height(), 3);
        fb.clear(Color::BLUE);
        assert_eq!(fb.pixel(3, 2), Color::BLUE);
        assert_eq!(fb.depth_at(0, 0), f32::INFINITY);
        assert!((fb.aspect() - 4.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn redraw_bands_fills_each_band_before_drawing_it_and_survives_a_panic() {
        for threads in [1, 2, 8] {
            rayon::with_threads(threads, || {
                // a ragged last band, over storage that held another frame
                let mut fb = Framebuffer::new(7, 10);
                fb.clear(Color::RED);
                fb.redraw_bands(3, Color::BLUE, |b, band| {
                    assert_eq!((band.y0, band.rows), (b * 3, if b == 3 { 1 } else { 3 }));
                    assert!(band.colors.iter().all(|&c| c == Color::BLUE), "band {b}");
                    assert!(band.depths.iter().all(|&d| d == f32::INFINITY), "band {b}");
                    band.colors[0] = Color::GREEN;
                    band.depths[0] = 0.5;
                });
                for y in 0..10 {
                    let first = y % 3 == 0;
                    assert_eq!(fb.pixel(0, y), if first { Color::GREEN } else { Color::BLUE });
                    assert_eq!(fb.depth_at(0, y), if first { 0.5 } else { f32::INFINITY });
                    assert_eq!(fb.pixel(6, y), Color::BLUE);
                }
                // a panicking band leaves the framebuffer whole, cleared
                let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    fb.redraw_bands(3, Color::WHITE, |b, band| {
                        band.colors[0] = Color::GREEN;
                        assert!(b != 2, "band 2");
                    });
                }));
                assert!(caught.is_err());
                assert_eq!(fb.colors().len(), 70);
                assert!(fb.colors().iter().all(|&c| c == Color::WHITE), "at {threads}");
                assert!((0..10).all(|y| fb.depth_at(3, y) == f32::INFINITY));
            });
        }
        // a framebuffer with no pixels, and one with no storage yet
        Framebuffer::new(0, 4).redraw_bands(2, Color::BLUE, |_, _| panic!("no band"));
        let mut fb = Framebuffer::unwritten(5, 2);
        fb.redraw_bands(32, Color::BLUE, |_, _| {});
        assert!(fb.colors().len() == 10 && fb.colors().iter().all(|&c| c == Color::BLUE));
    }

    #[test]
    fn out_of_range_set_pixel_ignored() {
        let mut fb = Framebuffer::new(2, 2);
        fb.set_pixel(5, 5, Color::WHITE);
        assert_eq!(fb.covered_pixels(Color::BLACK), 0);
    }

    #[test]
    fn coverage_and_luminance_probes() {
        let mut fb = Framebuffer::new(2, 2);
        assert_eq!(fb.mean_luminance(), 0.0);
        fb.set_pixel(0, 0, Color::WHITE);
        assert_eq!(fb.covered_pixels(Color::BLACK), 1);
        assert!((fb.mean_luminance() - 0.25).abs() < 1e-6);
    }

    #[test]
    fn bands_partition_all_rows() {
        let mut fb = Framebuffer::new(3, 10);
        let bands = fb.band_views(3);
        let total_rows: usize = bands.iter().map(|b| b.rows).sum();
        assert_eq!(total_rows, 10);
        assert!(bands.iter().all(|b| b.colors.len() == b.rows * 3));
        // bands start at increasing y
        let ys: Vec<usize> = bands.iter().map(|b| b.y0).collect();
        assert!(ys.windows(2).all(|w| w[1] > w[0]));
        // rows_per_band of 0 clamps to 1; tiny framebuffers survive
        let mut fb2 = Framebuffer::new(2, 2);
        assert_eq!(fb2.band_views(0).len(), 2);
        assert!(Framebuffer::new(4, 0).band_views(2).is_empty());
    }

    #[test]
    fn tile_grid_partitions_screen() {
        let g = TileGrid::new(70, 33, 32);
        assert_eq!((g.cols(), g.rows(), g.len()), (3, 2, 6));
        // interior tile
        let r = g.rect(g.index(1, 0));
        assert_eq!((r.x0, r.y0, r.w, r.h), (32, 0, 32, 32));
        // clipped right/bottom edges
        let r = g.rect(g.index(2, 1));
        assert_eq!((r.x0, r.y0, r.w, r.h), (64, 32, 6, 1));
        // rects tile the screen exactly
        let area: usize = (0..g.len()).map(|i| g.rect(i).w * g.rect(i).h).sum();
        assert_eq!(area, 70 * 33);
        // bands of one tile row align with tile rows
        let mut fb = Framebuffer::new(70, 33);
        let bands = fb.band_views(g.tile());
        assert_eq!(bands.len(), g.rows());
        assert_eq!(bands[1].rows, 1);
    }

    #[test]
    fn tiles_over_bbox_visits_overlaps_only() {
        let g = TileGrid::new(64, 64, 32);
        let mut seen = Vec::new();
        g.for_tiles_over(30.0, 34.0, 10.0, 12.0, |i| seen.push(i));
        assert_eq!(seen, vec![0, 1]);
        seen.clear();
        // off-screen bbox visits nothing
        g.for_tiles_over(-10.0, -1.0, 0.0, 5.0, |i| seen.push(i));
        g.for_tiles_over(100.0, 200.0, 0.0, 5.0, |i| seen.push(i));
        assert!(seen.is_empty());
        // bbox spilling past the screen clamps
        g.for_tiles_over(-5.0, 500.0, 40.0, 500.0, |i| seen.push(i));
        assert_eq!(seen, vec![2, 3]);
    }

    #[test]
    fn rgba8_is_row_major_packed_bytes() {
        let mut fb = Framebuffer::new(4, 4);
        fb.set_pixel(1, 1, Color::RED);
        let bytes = fb.to_rgba8();
        assert_eq!(bytes.len(), 64);
        assert_eq!(&bytes[(4 + 1) * 4..(4 + 1) * 4 + 4], &[255, 0, 0, 255]);
    }

    #[test]
    fn rgba8_quantizes_every_pixel_like_color_to_u8() {
        // a frame whose channels leave [0, 1] in every way `to_u8` clamps
        let odd =
            [-1.0, -0.0, 0.0, 0.25, 0.5, 1.0, 1.5, 300.0, f32::NAN, f32::INFINITY, f32::NEG_INFINITY];
        let (w, h) = (7, 5);
        let mut fb = Framebuffer::new(w, h);
        for (i, px) in fb.color.iter_mut().enumerate() {
            let at = |k: usize| odd[(i * 3 + k * 5) % odd.len()];
            *px = Color { r: at(0), g: at(1), b: at(2), a: at(3) };
        }
        let bytes = fb.to_rgba8();
        assert_eq!(bytes.len(), w * h * 4);
        for (i, c) in fb.colors().iter().enumerate() {
            assert_eq!(bytes[i * 4..i * 4 + 4], c.to_u8(), "pixel {i}: {c:?}");
        }
    }

    #[test]
    fn from_rgba8_inverts_to_rgba8_for_every_byte() {
        // every byte value in every channel, and a short input
        let bytes: Vec<u8> = (0..=255u8).flat_map(|v| [v, 255 - v, v / 3, v]).collect();
        let fb = Framebuffer::from_rgba8(16, 16, &bytes);
        assert_eq!(fb.to_rgba8(), bytes);
        let short = Framebuffer::from_rgba8(2, 1, &[9, 9, 9, 255]);
        assert_eq!(short.to_rgba8(), [9, 9, 9, 255, 0, 0, 0, 255]);
    }

    #[test]
    fn blit_copies_with_clipping() {
        let mut dst = Framebuffer::new(6, 6);
        let mut src = Framebuffer::new(3, 3);
        src.set_pixel(0, 0, Color::RED);
        src.set_pixel(2, 2, Color::GREEN);
        dst.blit(&src, 2, 2);
        assert_eq!(dst.pixel(2, 2), Color::RED);
        assert_eq!(dst.pixel(4, 4), Color::GREEN);
        assert_eq!(dst.pixel(0, 0), Color::BLACK);
        // clipping at the edge must not panic; the visible corner copies
        dst.blit(&src, 5, 5);
        assert_eq!(dst.pixel(5, 5), Color::RED);
    }

    #[test]
    fn ppm_export_writes_header_and_payload() {
        let mut fb = Framebuffer::new(3, 2);
        fb.set_pixel(0, 0, Color::RED);
        let path = std::env::temp_dir().join(format!("rvtk_fb_{}.ppm", std::process::id()));
        fb.save_ppm(&path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        assert!(bytes.starts_with(b"P6\n3 2\n255\n"));
        assert_eq!(bytes.len(), 11 + 3 * 2 * 3);
        // first pixel red
        let off = 11;
        assert_eq!(&bytes[off..off + 3], &[255, 0, 0]);
        std::fs::remove_file(&path).ok();
    }
}
