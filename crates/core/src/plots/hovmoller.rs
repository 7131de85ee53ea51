//! The Hovmöller plots: slicer and volume render over a data volume whose
//! vertical dimension is *time* instead of height — "browse the 3D
//! structure of spatial time series" (§III.C, Fig 4).

use crate::interaction::ConfigOp;
use crate::plots::{Plot, SlicerPlot, VolumePlot};
use crate::transfer::TransferEditor;
use crate::Result;
use rvtk::render::Renderer;
use rvtk::ImageData;

/// Which underlying view a Hovmöller plot uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HovmollerMode {
    Slicer,
    Volume,
}

/// A Hovmöller plot: delegates to a slicer or volume plot over a
/// time-as-z volume, but identifies itself distinctly (labels, palette).
pub(crate) struct HovmollerPlot {
    inner: Box<dyn Plot>,
    mode: HovmollerMode,
}

impl std::fmt::Debug for HovmollerPlot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HovmollerPlot").field("mode", &self.mode).finish()
    }
}

impl HovmollerPlot {
    /// Wraps a time-as-z image in the requested mode.
    pub(crate) fn new(image: ImageData, mode: HovmollerMode) -> Result<HovmollerPlot> {
        let inner: Box<dyn Plot> = match mode {
            HovmollerMode::Slicer => Box::new(SlicerPlot::new(image, None)?),
            HovmollerMode::Volume => Box::new(VolumePlot::new(image)?),
        };
        Ok(HovmollerPlot { inner, mode })
    }
}

impl Plot for HovmollerPlot {
    fn type_name(&self) -> &'static str {
        match self.mode {
            HovmollerMode::Slicer => super::HOVMOLLER_SLICER.label,
            HovmollerMode::Volume => super::HOVMOLLER_VOLUME.label,
        }
    }

    fn configure(&mut self, op: &ConfigOp) -> Result<bool> {
        self.inner.configure(op)
    }

    fn populate(&self, renderer: &mut Renderer) -> Result<()> {
        self.inner.populate(renderer)
    }

    fn editor(&self) -> &TransferEditor {
        self.inner.editor()
    }

    fn check_image(&self, image: &ImageData) -> Result<()> {
        self.inner.check_image(image)
    }

    fn set_image(&mut self, image: ImageData) -> Result<()> {
        self.inner.set_image(image)
    }

    fn image(&self) -> &ImageData {
        self.inner.image()
    }

    fn status_line(&self) -> String {
        format!("hovmoller(time-as-z) {}", self.inner.status_line())
    }
}

#[cfg(test)]
impl HovmollerPlot {
    /// The underlying mode.
    pub(crate) fn mode(&self) -> HovmollerMode {
        self.mode
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interaction::{Axis3, ConfigOp};
    use rvtk::render::Framebuffer;
    use rvtk::Color;

    fn wave_volume() -> ImageData {
        // z is "time": an eastward-shifting sine in x
        ImageData::from_fn([24, 8, 10], [1.0, 1.0, 2.0], [0.0; 3], |x, _, t| {
            ((0.5 * (x - 2.0 * t)).sin()) as f32
        })
    }

    #[test]
    fn both_modes_construct_and_name_themselves() {
        let s = HovmollerPlot::new(wave_volume(), HovmollerMode::Slicer).unwrap();
        assert_eq!(s.type_name(), "Hovmoller Slicer");
        assert_eq!(s.mode(), HovmollerMode::Slicer);
        let v = HovmollerPlot::new(wave_volume(), HovmollerMode::Volume).unwrap();
        assert_eq!(v.type_name(), "Hovmoller Volume");
        assert!(s.status_line().contains("hovmoller"));
    }

    #[test]
    fn slicer_mode_moves_time_planes() {
        let mut p = HovmollerPlot::new(wave_volume(), HovmollerMode::Slicer).unwrap();
        // the z axis is time here: moving it browses the time series
        assert!(p.configure(&ConfigOp::MoveSlice { axis: Axis3::Z, delta: 2 }).unwrap());
        let mut r = Renderer::new();
        p.populate(&mut r).unwrap();
        assert_eq!(r.image_slices().len(), 1);
    }

    #[test]
    fn volume_mode_renders_ridges() {
        let p = HovmollerPlot::new(wave_volume(), HovmollerMode::Volume).unwrap();
        let mut r = Renderer::new();
        p.populate(&mut r).unwrap();
        r.reset_camera();
        let mut fb = Framebuffer::new(48, 48);
        r.render(&mut fb);
        assert!(fb.covered_pixels(Color::BLACK) > 30);
    }

    #[test]
    fn set_image_delegates() {
        let mut p = HovmollerPlot::new(wave_volume(), HovmollerMode::Volume).unwrap();
        let img = ImageData::from_fn([12, 4, 5], [1.0; 3], [0.0; 3], |x, _, _| x as f32);
        p.set_image(img).unwrap();
        assert_eq!(p.image().dims, [12, 4, 5]);
        assert_eq!(p.scalar_range(), (0.0, 11.0));
    }
}
