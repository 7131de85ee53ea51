//! The Slicer plot: interactively draggable slice planes showing
//! pseudocolor images, optionally overlaid with a second variable's
//! contour map (§III.C).
//!
//! Each enabled plane is one `rvtk::render::ImageSlice`: a textured quad
//! whose texture is the plane's grid values through the editor's lookup
//! table, drawn at a cost that follows the pixels it covers. The Hovmöller
//! slicer and the combined volume + slicer cell are this plot too.

use crate::interaction::ConfigOp;
use crate::plots::{image_range, offset_index, same_dims, Plot};
use crate::transfer::TransferEditor;
use crate::{Dv3dError, Result};
use rvtk::filters::{auto_levels, contour_lines, SliceAxis};
use rvtk::render::{Actor, ImageSlice, Renderer};
use rvtk::{Color, ImageData};

/// Interactive slice planes through a scalar volume.
#[derive(Debug, Clone)]
pub struct SlicerPlot {
    image: ImageData,
    /// Optional second variable contoured over the z plane.
    overlay: Option<ImageData>,
    /// Current slice index per axis.
    pub slice_index: [usize; 3],
    /// Which planes are visible.
    pub plane_enabled: [bool; 3],
    /// Transfer-function state (colormap + range).
    pub editor: TransferEditor,
    /// Number of overlay contour levels.
    pub n_contours: usize,
}

impl SlicerPlot {
    /// A slicer with the z plane enabled at mid-volume.
    pub fn new(image: ImageData, overlay: Option<ImageData>) -> Result<SlicerPlot> {
        same_dims("overlay", overlay.as_ref(), &image)?;
        let editor = TransferEditor::new(image_range(&image));
        let slice_index = [image.dims[0] / 2, image.dims[1] / 2, image.dims[2] / 2];
        Ok(SlicerPlot {
            image,
            overlay,
            slice_index,
            plane_enabled: [false, false, true],
            editor,
            n_contours: 6,
        })
    }
}

impl Plot for SlicerPlot {
    fn type_name(&self) -> &'static str {
        super::SLICER.label
    }

    fn configure(&mut self, op: &ConfigOp) -> Result<bool> {
        if self.editor.configure(op)? {
            return Ok(true);
        }
        match op {
            ConfigOp::MoveSlice { axis, delta } => {
                let ai = SliceAxis::from(*axis).index();
                let n = self.image.dims[ai];
                self.slice_index[ai] = offset_index(self.slice_index[ai], *delta, n);
                Ok(true)
            }
            ConfigOp::SetSlice { axis, index } => {
                let ai = SliceAxis::from(*axis).index();
                if *index >= self.image.dims[ai] {
                    return Err(Dv3dError::Config(format!(
                        "slice index {index} out of range for axis {ai}"
                    )));
                }
                self.slice_index[ai] = *index;
                Ok(true)
            }
            ConfigOp::TogglePlane { axis } => {
                let ai = SliceAxis::from(*axis).index();
                self.plane_enabled[ai] = !self.plane_enabled[ai];
                Ok(true)
            }
            _ => Ok(false),
        }
    }

    fn populate(&self, renderer: &mut Renderer) -> Result<()> {
        for (ai, axis) in [SliceAxis::X, SliceAxis::Y, SliceAxis::Z].into_iter().enumerate() {
            if !self.plane_enabled[ai] {
                continue;
            }
            let lut = self.editor.lookup_table();
            let plane = ImageSlice::from_image(&self.image, axis, self.slice_index[ai], lut)?;
            renderer.add_image_slice(plane);
        }
        // overlay contours on the z plane
        if let Some(ov) = &self.overlay {
            if self.plane_enabled[2] {
                let range = image_range(ov);
                let levels = auto_levels(range, self.n_contours);
                let mut lines = contour_lines(ov, SliceAxis::Z, self.slice_index[2], &levels)?;
                // lift contour lines slightly above the plane so they show
                for p in &mut lines.points {
                    p.z += self.image.spacing[2] * 0.02;
                }
                let mut actor = Actor::from_poly_data(lines).with_color(Color::WHITE);
                actor.property.lighting = false;
                renderer.add_actor(actor);
            }
        }
        Ok(())
    }

    fn editor(&self) -> &TransferEditor {
        &self.editor
    }

    fn check_image(&self, image: &ImageData) -> Result<()> {
        same_dims("overlay", self.overlay.as_ref(), image)
    }

    fn set_image(&mut self, image: ImageData) -> Result<()> {
        self.check_image(&image)?;
        for ai in 0..3 {
            self.slice_index[ai] = self.slice_index[ai].min(image.dims[ai].saturating_sub(1));
        }
        self.editor.rescale(image_range(&image));
        self.image = image;
        Ok(())
    }

    fn image(&self) -> &ImageData {
        &self.image
    }

    fn status_line(&self) -> String {
        format!(
            "slices x:{} y:{} z:{} [{}{}{}]",
            self.slice_index[0],
            self.slice_index[1],
            self.slice_index[2],
            if self.plane_enabled[0] { 'X' } else { '-' },
            if self.plane_enabled[1] { 'Y' } else { '-' },
            if self.plane_enabled[2] { 'Z' } else { '-' },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interaction::Axis3;
    use rvtk::render::Framebuffer;

    fn image() -> ImageData {
        ImageData::from_fn([8, 8, 6], [1.0; 3], [0.0; 3], |x, y, z| (x + y + z) as f32)
    }

    #[test]
    fn starts_mid_volume_with_z_plane() {
        let p = SlicerPlot::new(image(), None).unwrap();
        assert_eq!(p.slice_index, [4, 4, 3]);
        assert_eq!(p.plane_enabled, [false, false, true]);
    }

    #[test]
    fn move_slice_clamps() {
        let mut p = SlicerPlot::new(image(), None).unwrap();
        p.configure(&ConfigOp::MoveSlice { axis: Axis3::Z, delta: 100 }).unwrap();
        assert_eq!(p.slice_index[2], 5);
        p.configure(&ConfigOp::MoveSlice { axis: Axis3::Z, delta: -100 }).unwrap();
        assert_eq!(p.slice_index[2], 0);
        // from the mid-volume start, so that index + delta overflows
        for (delta, lands_on) in [(i64::MAX, 5), (i64::MIN, 0)] {
            let mut p = SlicerPlot::new(image(), None).unwrap();
            p.configure(&ConfigOp::MoveSlice { axis: Axis3::Z, delta }).unwrap();
            assert_eq!(p.slice_index[2], lands_on);
        }
    }

    #[test]
    fn set_slice_validates() {
        let mut p = SlicerPlot::new(image(), None).unwrap();
        assert!(p.configure(&ConfigOp::SetSlice { axis: Axis3::X, index: 7 }).unwrap());
        assert!(p.configure(&ConfigOp::SetSlice { axis: Axis3::X, index: 8 }).is_err());
    }

    #[test]
    fn toggling_planes_changes_scene_size() {
        let mut p = SlicerPlot::new(image(), None).unwrap();
        let mut r1 = Renderer::new();
        p.populate(&mut r1).unwrap();
        assert_eq!(r1.image_slices().len(), 1);
        p.configure(&ConfigOp::TogglePlane { axis: Axis3::X }).unwrap();
        p.configure(&ConfigOp::TogglePlane { axis: Axis3::Y }).unwrap();
        let mut r3 = Renderer::new();
        p.populate(&mut r3).unwrap();
        assert_eq!(r3.image_slices().len(), 3);
        assert!(r3.actors().is_empty());
    }

    #[test]
    fn overlay_contours_add_line_actor() {
        let ov = ImageData::from_fn([8, 8, 6], [1.0; 3], [0.0; 3], |x, _, _| x as f32);
        let p = SlicerPlot::new(image(), Some(ov)).unwrap();
        let mut r = Renderer::new();
        p.populate(&mut r).unwrap();
        assert_eq!(r.image_slices().len(), 1);
        assert_eq!(r.actors().len(), 1);
        assert!(!r.actors()[0].poly_data.lines.is_empty());
    }

    #[test]
    fn overlay_dims_validated() {
        let ov = ImageData::from_fn([4, 4, 4], [1.0; 3], [0.0; 3], |_, _, _| 0.0);
        assert!(SlicerPlot::new(image(), Some(ov)).is_err());
    }

    #[test]
    fn unhandled_ops_return_false() {
        let mut p = SlicerPlot::new(image(), None).unwrap();
        assert!(!p.configure(&ConfigOp::SetIsovalue(1.0)).unwrap());
        assert!(!p.configure(&ConfigOp::StepTime(1)).unwrap());
    }

    #[test]
    fn renders_pseudocolor_slice() {
        let p = SlicerPlot::new(image(), None).unwrap();
        let mut r = Renderer::new();
        p.populate(&mut r).unwrap();
        r.reset_camera();
        let mut fb = Framebuffer::new(64, 64);
        r.render(&mut fb);
        assert!(fb.covered_pixels(Color::BLACK) > 100);
    }

    #[test]
    fn set_image_rescales_and_clamps() {
        let mut p = SlicerPlot::new(image(), None).unwrap();
        p.slice_index = [7, 7, 5];
        let smaller =
            ImageData::from_fn([4, 4, 2], [1.0; 3], [0.0; 3], |x, _, _| 100.0 * x as f32);
        p.set_image(smaller).unwrap();
        assert_eq!(p.slice_index, [3, 3, 1]);
        assert_eq!(p.scalar_range(), (0.0, 300.0));
    }

    #[test]
    fn status_line_reflects_state() {
        let p = SlicerPlot::new(image(), None).unwrap();
        assert_eq!(p.status_line(), "slices x:4 y:4 z:3 [--Z]");
    }
}
