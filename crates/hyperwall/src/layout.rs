//! Wall geometry: mapping workflow cells onto display panels.
//!
//! The NCCS wall of Fig 5: "a 5×3 array of 46" displays … and a 17 by
//! 6-foot, 15.7 million pixel display".

/// A rectangular display wall.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WallLayout {
    /// Panel rows.
    pub rows: usize,
    /// Panel columns.
    pub cols: usize,
    /// Pixels per panel (width, height).
    pub panel_px: (usize, usize),
}

impl WallLayout {
    /// The NCCS configuration: 5×3 panels at 1366×768 ≈ 15.7 Mpixels,
    /// matching the paper's "15.7 million pixel display".
    pub fn nccs() -> WallLayout {
        WallLayout { rows: 3, cols: 5, panel_px: (1366, 768) }
    }

    /// Number of panels (= client nodes = workflow cells).
    pub fn n_panels(&self) -> usize {
        self.rows * self.cols
    }

    /// Total pixels across the wall.
    pub fn total_pixels(&self) -> usize {
        self.n_panels() * self.panel_px.0 * self.panel_px.1
    }

    /// Panel (row, col) of a cell index, row-major.
    pub(crate) fn panel_of(&self, cell: usize) -> Option<(usize, usize)> {
        if cell >= self.n_panels() {
            return None;
        }
        Some((cell / self.cols, cell % self.cols))
    }
}

#[cfg(test)]
impl WallLayout {
    /// A reduced wall for tests/benches.
    pub(crate) fn small(rows: usize, cols: usize, panel_px: (usize, usize)) -> WallLayout {
        WallLayout { rows, cols, panel_px }
    }

    /// Cell index of a panel position.
    pub(crate) fn cell_of(&self, row: usize, col: usize) -> Option<usize> {
        if row >= self.rows || col >= self.cols {
            return None;
        }
        Some(row * self.cols + col)
    }

    /// The server's low-resolution mirror size for one cell, given a
    /// downsample factor.
    pub(crate) fn mirror_px(&self, downsample: usize) -> (usize, usize) {
        let d = downsample.max(1);
        (self.panel_px.0 / d, self.panel_px.1 / d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nccs_wall_matches_paper_scale() {
        let w = WallLayout::nccs();
        assert_eq!(w.n_panels(), 15);
        let mp = w.total_pixels() as f64 / 1e6;
        assert!((mp - 15.7).abs() < 0.5, "{mp} Mpixels");
    }

    #[test]
    fn panel_cell_mapping_roundtrips() {
        let w = WallLayout::nccs();
        for cell in 0..w.n_panels() {
            let (r, c) = w.panel_of(cell).unwrap();
            assert_eq!(w.cell_of(r, c), Some(cell));
        }
        assert_eq!(w.panel_of(15), None);
        assert_eq!(w.cell_of(3, 0), None);
        assert_eq!(w.cell_of(0, 5), None);
        // row-major: cell 7 is row 1, col 2
        assert_eq!(w.panel_of(7), Some((1, 2)));
    }

    #[test]
    fn mirror_downsampling() {
        let w = WallLayout::small(2, 2, (800, 600));
        assert_eq!(w.mirror_px(4), (200, 150));
        assert_eq!(w.mirror_px(0), (800, 600)); // clamped
        assert_eq!(w.total_pixels(), 4 * 800 * 600);
    }
}
