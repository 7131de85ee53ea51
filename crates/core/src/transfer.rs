//! Interactive transfer-function editing — DV3D's *leveling* operation.
//!
//! "Pressing a button in a configuration panel and then clicking and
//! dragging in a spreadsheet cell … initiates a leveling operation that
//! controls the shape of the plot's opacity or color transfer function.
//! The volume render plot changes interactively as the user drags the mouse
//! around the cell" (§III.F). [`TransferEditor`] holds the `(window,
//! level)` state those drags adjust and produces the transfer functions
//! the renderer consumes.

use crate::interaction::ConfigOp;
use crate::{Dv3dError, Result};
use rvtk::lookup_table::ColormapName;
use rvtk::{ColorTransferFunction, LookupTable, OpacityTransferFunction};

/// Window/level state plus colormap selection.
#[derive(Debug, Clone, PartialEq)]
pub struct TransferEditor {
    /// Scalar range of the underlying data.
    pub data_range: (f32, f32),
    /// Centre of the opacity ramp.
    pub level: f32,
    /// Width of the opacity ramp.
    pub window: f32,
    /// Peak opacity.
    pub max_opacity: f32,
    /// Colormap for both LUTs and volume color functions.
    pub colormap: ColormapName,
    /// Invert the colormap.
    pub inverted: bool,
}

impl TransferEditor {
    /// An editor initialized to show the middle half of the data range.
    pub(crate) fn new(data_range: (f32, f32)) -> TransferEditor {
        let span = (data_range.1 - data_range.0).max(1e-6);
        TransferEditor {
            data_range,
            level: (data_range.0 + data_range.1) / 2.0,
            window: span / 2.0,
            max_opacity: 0.7,
            colormap: ColormapName::Jet,
            inverted: false,
        }
    }

    /// Applies `op` when it is one of the colormap / leveling ops every
    /// plot hands to its editor; `Ok(false)` means the op is not the
    /// editor's and the plot should look at it.
    pub(crate) fn configure(&mut self, op: &ConfigOp) -> Result<bool> {
        match op {
            ConfigOp::Leveling { dx, dy } => self.drag(*dx, *dy),
            ConfigOp::NextColormap => self.next_colormap(),
            ConfigOp::SetColormap(name) => {
                if !self.set_colormap(name) {
                    return Err(Dv3dError::Config(format!("unknown colormap '{name}'")));
                }
            }
            ConfigOp::ToggleInvert => self.toggle_invert(),
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// Applies a mouse drag: horizontal motion moves the *level* across the
    /// data range, vertical motion scales the *window*. `dx`/`dy` are in
    /// normalized cell coordinates (−1 ‥ 1 spans the whole cell).
    pub(crate) fn drag(&mut self, dx: f64, dy: f64) {
        let span = (self.data_range.1 - self.data_range.0).max(1e-6);
        self.level = (self.level + dx as f32 * span / 2.0)
            .clamp(self.data_range.0, self.data_range.1);
        let factor = (2.0f32).powf(dy as f32);
        self.window = (self.window * factor).clamp(span * 0.01, span * 2.0);
    }

    /// The opacity transfer function for the current state.
    pub(crate) fn opacity_function(&self) -> OpacityTransferFunction {
        OpacityTransferFunction::leveling(self.level, self.window, self.max_opacity)
    }

    /// The color transfer function over the *windowed* sub-range, so color
    /// contrast follows the leveling operation too; inverted with the
    /// colormap, as [`TransferEditor::lookup_table`] is.
    pub(crate) fn color_function(&self) -> ColorTransferFunction {
        let lo = (self.level - self.window / 2.0).max(self.data_range.0);
        let hi = (self.level + self.window / 2.0).min(self.data_range.1);
        let (lo, hi) = if hi > lo { (lo, hi) } else { self.data_range };
        let range = if self.inverted { (hi, lo) } else { (lo, hi) };
        ColorTransferFunction::from_colormap(self.colormap, range)
    }

    /// A lookup table over the full data range (for slice/isosurface
    /// pseudocolor and colorbars).
    pub fn lookup_table(&self) -> LookupTable {
        LookupTable::with_resolution(self.colormap, self.data_range, 256, self.inverted)
    }

    /// Cycles to the next available colormap (the keypress operation).
    pub(crate) fn next_colormap(&mut self) {
        self.colormap = match self.colormap {
            ColormapName::Jet => ColormapName::Viridis,
            ColormapName::Viridis => ColormapName::CoolWarm,
            ColormapName::CoolWarm => ColormapName::Grayscale,
            ColormapName::Grayscale => ColormapName::Rainbow,
            ColormapName::Rainbow => ColormapName::Hot,
            ColormapName::Hot => ColormapName::Jet,
        };
    }

    /// Selects a colormap by name; returns false for unknown names.
    pub(crate) fn set_colormap(&mut self, name: &str) -> bool {
        match ColormapName::parse(name) {
            Some(c) => {
                self.colormap = c;
                true
            }
            None => false,
        }
    }

    /// Toggles colormap inversion.
    pub(crate) fn toggle_invert(&mut self) {
        self.inverted = !self.inverted;
    }

    /// Rescales to a new data range, preserving the *relative* window and
    /// level (used when animation steps to a timestep with a new range).
    pub(crate) fn rescale(&mut self, new_range: (f32, f32)) {
        let old_span = (self.data_range.1 - self.data_range.0).max(1e-6);
        let rel_level = (self.level - self.data_range.0) / old_span;
        let rel_window = self.window / old_span;
        let new_span = (new_range.1 - new_range.0).max(1e-6);
        self.data_range = new_range;
        self.level = new_range.0 + rel_level * new_span;
        self.window = rel_window * new_span;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn initial_state_covers_middle() {
        let e = TransferEditor::new((0.0, 100.0));
        assert_eq!(e.level, 50.0);
        assert_eq!(e.window, 50.0);
        let otf = e.opacity_function();
        assert_eq!(otf.map(0.0), 0.0);
        assert!(otf.map(80.0) > 0.6);
    }

    #[test]
    fn horizontal_drag_moves_level() {
        let mut e = TransferEditor::new((0.0, 100.0));
        e.drag(0.5, 0.0);
        assert_eq!(e.level, 75.0);
        e.drag(-2.0, 0.0); // clamped at range min
        assert_eq!(e.level, 0.0);
        e.drag(5.0, 0.0);
        assert_eq!(e.level, 100.0);
    }

    #[test]
    fn vertical_drag_scales_window() {
        let mut e = TransferEditor::new((0.0, 100.0));
        let w0 = e.window;
        e.drag(0.0, 1.0);
        assert!((e.window - w0 * 2.0).abs() < 1e-4);
        e.drag(0.0, -2.0);
        assert!((e.window - w0 / 2.0).abs() < 1e-4);
        // clamped to 1% of the span
        for _ in 0..30 {
            e.drag(0.0, -1.0);
        }
        assert!(e.window >= 1.0 - 1e-6);
    }

    #[test]
    fn leveling_shapes_opacity_interactively() {
        let mut e = TransferEditor::new((0.0, 10.0));
        let before = e.opacity_function().map(3.0);
        e.drag(-0.8, 0.0); // move level down: 3.0 becomes more opaque
        let after = e.opacity_function().map(3.0);
        assert!(after > before, "{after} !> {before}");
    }

    #[test]
    fn color_function_follows_window() {
        let mut e = TransferEditor::new((0.0, 100.0));
        e.level = 20.0;
        e.window = 10.0;
        let ctf = e.color_function();
        // colors saturate at the window edges
        let lo = ctf.map(15.0);
        let below = ctf.map(0.0);
        assert_eq!(lo, below);
        let hi = ctf.map(25.0);
        let above = ctf.map(100.0);
        assert_eq!(hi, above);
    }

    #[test]
    fn colormap_cycling_returns_home() {
        let mut e = TransferEditor::new((0.0, 1.0));
        let start = e.colormap;
        for _ in 0..6 {
            e.next_colormap();
        }
        assert_eq!(e.colormap, start);
    }

    #[test]
    fn set_colormap_by_name() {
        let mut e = TransferEditor::new((0.0, 1.0));
        assert!(e.set_colormap("viridis"));
        assert_eq!(e.colormap, ColormapName::Viridis);
        assert!(!e.set_colormap("nope"));
        assert_eq!(e.colormap, ColormapName::Viridis);
    }

    #[test]
    fn invert_toggles_lut() {
        let mut e = TransferEditor::new((0.0, 1.0));
        e.set_colormap("grayscale");
        let lo_before = e.lookup_table().map(0.0).luminance();
        e.toggle_invert();
        let lo_after = e.lookup_table().map(0.0).luminance();
        assert!(lo_after > lo_before);
        e.toggle_invert();
        assert_eq!(e.lookup_table().map(0.0).luminance(), lo_before);
    }

    #[test]
    fn rescale_preserves_relative_state() {
        let mut e = TransferEditor::new((0.0, 100.0));
        e.level = 25.0; // 25% of range
        e.window = 10.0; // 10% of range
        e.rescale((200.0, 400.0));
        assert!((e.level - 250.0).abs() < 1e-4);
        assert!((e.window - 20.0).abs() < 1e-4);
    }
}
