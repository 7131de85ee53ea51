//! The composite plot: several plots of the same domain sharing one cell —
//! Fig 3's top panel is "a combination volume render and slicer plot".
//!
//! Configuration ops are offered to every member (each takes what it
//! understands), so a leveling drag reshapes the volume while slice keys
//! move the planes, exactly like interacting with the combined cell in the
//! paper's screenshot.

use crate::interaction::ConfigOp;
use crate::plots::Plot;
use crate::transfer::TransferEditor;
use crate::Result;
use rvtk::render::Renderer;
use rvtk::ImageData;

/// Several plots rendered into one cell.
pub struct CompositePlot {
    members: Vec<Box<dyn Plot>>,
}

impl std::fmt::Debug for CompositePlot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let names: Vec<&str> = self.members.iter().map(|m| m.type_name()).collect();
        f.debug_struct("CompositePlot").field("members", &names).finish()
    }
}

impl CompositePlot {
    /// Combines ready-built plots; at least one required.
    pub fn new(members: Vec<Box<dyn Plot>>) -> Result<CompositePlot> {
        if members.is_empty() {
            return Err(crate::Dv3dError::Config("composite of nothing".into()));
        }
        Ok(CompositePlot { members })
    }

}

impl Plot for CompositePlot {
    fn type_name(&self) -> &'static str {
        "Composite"
    }

    fn configure(&mut self, op: &ConfigOp) -> Result<bool> {
        let mut any = false;
        for m in &mut self.members {
            if m.configure(op)? {
                any = true;
            }
        }
        Ok(any)
    }

    fn populate(&self, renderer: &mut Renderer) -> Result<()> {
        for m in &self.members {
            m.populate(renderer)?;
        }
        Ok(())
    }

    fn editor(&self) -> &TransferEditor {
        self.members[0].editor()
    }

    fn check_image(&self, image: &ImageData) -> Result<()> {
        self.members.iter().try_for_each(|m| m.check_image(image))
    }

    /// All or nothing: no member takes the frame unless every member will.
    fn set_image(&mut self, image: ImageData) -> Result<()> {
        self.check_image(&image)?;
        for m in &mut self.members {
            m.set_image(image.clone())?;
        }
        Ok(())
    }

    fn image(&self) -> &ImageData {
        self.members[0].image()
    }

    fn status_line(&self) -> String {
        self.members
            .iter()
            .map(|m| m.type_name())
            .collect::<Vec<_>>()
            .join(" + ")
    }
}

#[cfg(test)]
impl CompositePlot {
    /// The member plots.
    pub(crate) fn members(&self) -> &[Box<dyn Plot>] {
        &self.members
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interaction::Axis3;
    use crate::plots::PlotSpec;
    use rvtk::render::Framebuffer;
    use rvtk::Color;

    fn ball() -> ImageData {
        ImageData::from_fn([12, 12, 12], [1.0; 3], [0.0; 3], |x, y, z| {
            let d2 = (x - 5.5).powi(2) + (y - 5.5).powi(2) + (z - 5.5).powi(2);
            (40.0 - d2 as f32).max(0.0)
        })
    }

    fn combined() -> CompositePlot {
        CompositePlot::new(vec![
            PlotSpec::volume(ball()).build().unwrap(),
            PlotSpec::slicer(ball()).build().unwrap(),
        ])
        .unwrap()
    }

    #[test]
    fn empty_composite_rejected() {
        assert!(CompositePlot::new(vec![]).is_err());
    }

    #[test]
    fn populates_all_members() {
        let c = combined();
        let mut r = Renderer::new();
        c.populate(&mut r).unwrap();
        assert_eq!(r.image_slices().len(), 1); // slicer plane
        assert!(r.actors().is_empty());
        assert_eq!(r.volumes().len(), 1); // volume
        r.reset_camera();
        let mut fb = Framebuffer::new(64, 64);
        r.render(&mut fb);
        assert!(fb.covered_pixels(Color::BLACK) > 100);
    }

    #[test]
    fn ops_dispatch_to_whoever_understands() {
        let mut c = combined();
        // slice op: only the slicer takes it, composite reports handled
        assert!(c.configure(&ConfigOp::MoveSlice { axis: Axis3::Z, delta: 2 }).unwrap());
        // leveling: both volume and slicer editors take it
        assert!(c.configure(&ConfigOp::Leveling { dx: 0.1, dy: 0.1 }).unwrap());
        // isovalue: nobody
        assert!(!c.configure(&ConfigOp::SetIsovalue(1.0)).unwrap());
        assert_eq!(c.status_line(), "Volume + Slicer");
    }

    #[test]
    fn set_image_updates_every_member() {
        let mut c = combined();
        let ramp = ImageData::from_fn([8, 8, 8], [1.0; 3], [0.0; 3], |x, _, _| x as f32);
        c.set_image(ramp).unwrap();
        for m in c.members() {
            assert_eq!(m.image().dims, [8, 8, 8]);
        }
        assert_eq!(c.scalar_range(), (0.0, 7.0));
    }

    /// A frame one member refuses reaches no member: the volume ahead of
    /// an overlay-carrying slicer keeps its image, range and rendering.
    #[test]
    fn refused_frame_reaches_no_member() {
        let grid = |dims| ImageData::from_fn(dims, [1.0; 3], [0.0; 3], |x, y, z| (x + y + z) as f32);
        let mut c = PlotSpec::Combined {
            members: vec![
                PlotSpec::volume(grid([6, 6, 4])),
                PlotSpec::slicer_with_overlay(grid([6, 6, 4]), grid([6, 6, 4])),
            ],
        }
        .build()
        .unwrap();
        let render = |plot: &dyn Plot| {
            let mut r = Renderer::new();
            plot.populate(&mut r).unwrap();
            r.reset_camera();
            let mut fb = Framebuffer::new(48, 48);
            r.render(&mut fb);
            fb.colors().iter().map(|c| c.to_u8()).collect::<Vec<_>>()
        };
        let (range, frame) = (c.scalar_range(), render(c.as_ref()));
        assert!(c.set_image(grid([5, 5, 3])).is_err());
        assert_eq!(c.image().dims, [6, 6, 4]);
        assert_eq!(c.scalar_range(), range);
        assert!(render(c.as_ref()) == frame, "a refused frame changed the rendering");
        // a frame every member takes still goes through
        c.set_image(grid([6, 6, 4])).unwrap();
    }

    #[test]
    fn works_inside_a_cell() {
        use crate::cell::Dv3dCell;
        let mut cell = Dv3dCell::from_plot("fig3 top", Box::new(combined()));
        let fb = cell.render(96, 72).unwrap();
        assert!(fb.covered_pixels(Color::BLACK) > 100);
    }
}
