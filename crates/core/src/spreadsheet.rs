//! The DV3D visualization spreadsheet: a grid of live cells with
//! synchronized interaction.
//!
//! "Cells in the spreadsheet can be individually activated or deactivated
//! by selection. Configuration and navigation operations are propagated to
//! all active cells" (§III.G). This is the runtime counterpart of the
//! `vistrails` spreadsheet (which binds cells to provenance versions).

use crate::cell::Dv3dCell;
use crate::interaction::ConfigOp;
use crate::{Dv3dError, Result};
use rvtk::render::Framebuffer;
use std::collections::BTreeMap;

/// A grid of live DV3D cells.
pub struct Dv3dSpreadsheet {
    rows: usize,
    cols: usize,
    cells: BTreeMap<(usize, usize), Dv3dCell>,
    active: Vec<(usize, usize)>,
}

impl std::fmt::Debug for Dv3dSpreadsheet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Dv3dSpreadsheet")
            .field("size", &(self.rows, self.cols))
            .field("cells", &self.cells.len())
            .field("active", &self.active.len())
            .finish()
    }
}

impl Dv3dSpreadsheet {
    /// An empty sheet.
    pub fn new(rows: usize, cols: usize) -> Dv3dSpreadsheet {
        Dv3dSpreadsheet {
            rows: rows.max(1),
            cols: cols.max(1),
            cells: BTreeMap::new(),
            active: Vec::new(),
        }
    }

    /// Places a cell; newly placed cells start active.
    pub fn place(&mut self, at: (usize, usize), cell: Dv3dCell) -> Result<()> {
        if at.0 >= self.rows || at.1 >= self.cols {
            return Err(Dv3dError::Config(format!(
                "cell {at:?} outside {}x{} sheet",
                self.rows, self.cols
            )));
        }
        self.cells.insert(at, cell);
        if !self.active.contains(&at) {
            self.active.push(at);
        }
        Ok(())
    }

    /// The cell at a position.
    pub fn cell(&self, at: (usize, usize)) -> Option<&Dv3dCell> {
        self.cells.get(&at)
    }

    /// Activates or deactivates a cell.
    pub fn set_active(&mut self, at: (usize, usize), active: bool) -> Result<()> {
        if !self.cells.contains_key(&at) {
            return Err(Dv3dError::Config(format!("no cell at {at:?}")));
        }
        self.active.retain(|&a| a != at);
        if active {
            self.active.push(at);
        }
        Ok(())
    }

    /// Applies a configuration op to all active cells — the synchronized
    /// interaction the spreadsheet exists for. Returns how many cells
    /// accepted it (cells whose plot type ignores the op don't count as
    /// failures).
    pub fn configure_active(&mut self, op: &ConfigOp) -> Result<usize> {
        let mut applied = 0;
        for at in self.active.clone() {
            if let Some(cell) = self.cells.get_mut(&at) {
                match cell.configure(op) {
                    Ok(()) => applied += 1,
                    Err(Dv3dError::Config(_)) => {} // not meaningful for this plot
                    Err(e) => return Err(e),
                }
            }
        }
        Ok(applied)
    }

    /// Mirrors one cell's camera into every other active cell
    /// (synchronized navigation across plots of the same domain).
    pub fn sync_cameras_from(&mut self, source: (usize, usize)) -> Result<()> {
        let camera = self
            .cells
            .get(&source)
            .ok_or_else(|| Dv3dError::Config(format!("no cell at {source:?}")))?
            .camera()
            .clone();
        for at in self.active.clone() {
            if at != source {
                if let Some(c) = self.cells.get_mut(&at) {
                    c.set_camera(camera.clone());
                }
            }
        }
        Ok(())
    }

    /// Renders every placed cell at the given per-cell size, returning
    /// frames keyed by position.
    pub fn render_all(
        &mut self,
        cell_width: usize,
        cell_height: usize,
    ) -> Result<BTreeMap<(usize, usize), Framebuffer>> {
        let mut frames = BTreeMap::new();
        for (at, cell) in &mut self.cells {
            frames.insert(*at, cell.render(cell_width, cell_height)?);
        }
        Ok(frames)
    }
}

#[cfg(test)]
impl Dv3dSpreadsheet {
    /// Grid size `(rows, cols)`.
    pub(crate) fn size(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Mutable cell access.
    pub(crate) fn cell_mut(&mut self, at: (usize, usize)) -> Option<&mut Dv3dCell> {
        self.cells.get_mut(&at)
    }

    /// Number of placed cells.
    pub(crate) fn len(&self) -> usize {
        self.cells.len()
    }

    /// Positions of the active cells.
    pub(crate) fn active_cells(&self) -> &[(usize, usize)] {
        &self.active
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interaction::{Axis3, CameraOp};
    use crate::plots::PlotSpec;
    use crate::translation::{translate_scalar, TranslationOptions};
    use cdms::synth::SynthesisSpec;
    use rvtk::ImageData;

    fn image() -> ImageData {
        let ds = SynthesisSpec::new(1, 3, 12, 24).build();
        let ta = ds.variable("ta").unwrap().time_slab(0).unwrap();
        translate_scalar(&ta, &TranslationOptions::default()).unwrap()
    }

    fn sheet() -> Dv3dSpreadsheet {
        let mut s = Dv3dSpreadsheet::new(2, 2);
        s.place((0, 0), Dv3dCell::new("slicer", PlotSpec::slicer(image()))).unwrap();
        s.place((0, 1), Dv3dCell::new("volume", PlotSpec::volume(image()))).unwrap();
        s.place((1, 0), Dv3dCell::new("iso", PlotSpec::isosurface(image()))).unwrap();
        s
    }

    #[test]
    fn placement_rules() {
        let mut s = sheet();
        assert_eq!(s.len(), 3);
        assert_eq!(s.size(), (2, 2));
        assert!(s
            .place((5, 0), Dv3dCell::new("x", PlotSpec::slicer(image())))
            .is_err());
        assert!(s.cell((0, 0)).is_some());
        assert!(s.cell((1, 1)).is_none());
    }

    #[test]
    fn ops_propagate_to_active_cells_only() {
        let mut s = sheet();
        // MoveSlice is meaningful for the slicer only
        let n = s.configure_active(&ConfigOp::MoveSlice { axis: Axis3::Z, delta: 1 }).unwrap();
        assert_eq!(n, 3); // all cells accept (volume/iso ignore but don't error)
        // deactivate the slicer; leveling affects the other two
        s.set_active((0, 0), false).unwrap();
        let slicer_frame =
            |s: &mut Dv3dSpreadsheet| s.cell_mut((0, 0)).unwrap().render(48, 48).unwrap().to_rgba8();
        let before = slicer_frame(&mut s);
        let n = s.configure_active(&ConfigOp::Leveling { dx: 0.1, dy: 0.0 }).unwrap();
        assert_eq!(n, 2);
        // the inactive slicer's frame is untouched by the second op
        assert_eq!(slicer_frame(&mut s), before);
    }

    #[test]
    fn camera_ops_synchronize_views() {
        // two cells of the same plot type see the same scene bounds, so the
        // same op sequence yields identical cameras
        let mut s = Dv3dSpreadsheet::new(1, 2);
        s.place((0, 0), Dv3dCell::new("a", PlotSpec::slicer(image()))).unwrap();
        s.place((0, 1), Dv3dCell::new("b", PlotSpec::slicer(image()))).unwrap();
        s.render_all(32, 32).unwrap();
        s.configure_active(&ConfigOp::Camera(CameraOp::Azimuth(45.0))).unwrap();
        s.render_all(32, 32).unwrap();
        let c0 = s.cell((0, 0)).unwrap().camera().position;
        let c1 = s.cell((0, 1)).unwrap().camera().position;
        assert!((c0 - c1).length() < 1e-9);
    }

    #[test]
    fn sync_cameras_from_source() {
        let mut s = sheet();
        s.render_all(32, 32).unwrap();
        s.cell_mut((0, 0))
            .unwrap()
            .configure(&ConfigOp::Camera(CameraOp::Zoom(2.0)))
            .unwrap();
        s.render_all(32, 32).unwrap();
        s.sync_cameras_from((0, 0)).unwrap();
        let cam0 = s.cell((0, 0)).unwrap().camera().clone();
        let cam1 = s.cell((0, 1)).unwrap().camera().clone();
        assert_eq!(cam0.view_angle_deg, cam1.view_angle_deg);
        assert!(s.sync_cameras_from((9, 9)).is_err());
    }

    #[test]
    fn render_all_produces_frames() {
        let mut s = sheet();
        let frames = s.render_all(48, 48).unwrap();
        assert_eq!(frames.len(), 3);
        for fb in frames.values() {
            assert!(fb.covered_pixels(rvtk::Color::BLACK) > 10);
        }
    }

    #[test]
    fn activation_validation() {
        let mut s = sheet();
        assert!(s.set_active((1, 1), true).is_err());
        s.set_active((0, 1), false).unwrap();
        assert_eq!(s.active_cells().len(), 2);
    }
}
