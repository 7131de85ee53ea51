//! The Vector slicer plot: a draggable plane showing the vector field as
//! arrow glyphs or streamlines — "browse the structure of variables (such
//! as wind velocity) that have both magnitude and direction" (§III.C).

use crate::interaction::{Axis3, ConfigOp, VectorMode};
use crate::plots::{image_range, offset_index, Plot};
use crate::transfer::TransferEditor;
use crate::{Dv3dError, Result};
use rvtk::filters::{glyphs_on_slice, streamlines, GlyphOptions, SliceAxis, StreamlineOptions};
use rvtk::math::Vec3;
use rvtk::render::{Actor, Renderer};
use rvtk::ImageData;

/// An interactive vector-field slice plane.
#[derive(Debug, Clone)]
pub(crate) struct VectorSlicerPlot {
    image: ImageData,
    /// The slicing axis (planes are perpendicular to it).
    pub axis: Axis3,
    /// Slice position along the axis.
    pub slice_index: usize,
    /// Glyphs or streamlines.
    pub mode: VectorMode,
    /// Color state (colors by speed).
    pub editor: TransferEditor,
    /// Glyph controls.
    pub glyph_options: GlyphOptions,
    /// Streamline controls.
    pub streamline_options: StreamlineOptions,
    /// Streamline seeds per in-plane direction.
    pub seed_density: usize,
}

/// The check on construction and on every new frame.
fn has_vectors(image: &ImageData) -> Result<()> {
    match image.vectors {
        Some(_) => Ok(()),
        None => Err(Dv3dError::Config("vector slicer needs a vector field".into())),
    }
}

impl VectorSlicerPlot {
    /// A vector slicer over `image` (must carry vectors), z-plane default.
    pub(crate) fn new(image: ImageData, mode: VectorMode) -> Result<VectorSlicerPlot> {
        has_vectors(&image)?;
        let editor = TransferEditor::new(image_range(&image));
        let slice_index = image.dims[2] / 2;
        let diag = image.bounds().diagonal();
        Ok(VectorSlicerPlot {
            image,
            axis: Axis3::Z,
            slice_index,
            mode,
            editor,
            glyph_options: GlyphOptions {
                stride: 2,
                scale: diag / 400.0,
                ..Default::default()
            },
            streamline_options: StreamlineOptions {
                step_size: diag / 200.0,
                max_steps: 300,
                ..Default::default()
            },
            seed_density: 6,
        })
    }

    fn slice_axis(&self) -> SliceAxis {
        SliceAxis::from(self.axis)
    }

    /// Seed points on the current plane for streamline integration.
    fn plane_seeds(&self) -> Vec<Vec3> {
        let b = self.image.bounds();
        let ai = self.slice_axis().index();
        let coord = self.image.origin[ai] + self.slice_index as f64 * self.image.spacing[ai];
        let n = self.seed_density.max(1);
        let mut seeds = Vec::with_capacity(n * n);
        let (u_ax, v_ax) = match self.slice_axis() {
            SliceAxis::X => (1, 2),
            SliceAxis::Y => (0, 2),
            SliceAxis::Z => (0, 1),
        };
        let lo = [b.min.x, b.min.y, b.min.z];
        let hi = [b.max.x, b.max.y, b.max.z];
        for j in 0..n {
            for i in 0..n {
                let mut p = [0.0f64; 3];
                p[ai] = coord;
                p[u_ax] = lo[u_ax]
                    + (hi[u_ax] - lo[u_ax]) * (i as f64 + 0.5) / n as f64;
                p[v_ax] = lo[v_ax]
                    + (hi[v_ax] - lo[v_ax]) * (j as f64 + 0.5) / n as f64;
                seeds.push(Vec3::new(p[0], p[1], p[2]));
            }
        }
        seeds
    }
}

impl Plot for VectorSlicerPlot {
    fn type_name(&self) -> &'static str {
        super::VECTOR_SLICER.label
    }

    fn configure(&mut self, op: &ConfigOp) -> Result<bool> {
        if self.editor.configure(op)? {
            return Ok(true);
        }
        match op {
            ConfigOp::MoveSlice { axis, delta } => {
                if *axis == self.axis {
                    let n = self.image.dims[self.slice_axis().index()];
                    self.slice_index = offset_index(self.slice_index, *delta, n);
                } else {
                    // switching axes re-centres the plane
                    self.axis = *axis;
                    let ai = self.slice_axis().index();
                    self.slice_index = self.image.dims[ai] / 2;
                }
                Ok(true)
            }
            ConfigOp::SetSlice { axis, index } => {
                if *index >= self.image.dims[SliceAxis::from(*axis).index()] {
                    return Err(Dv3dError::Config(format!("slice index {index} out of range")));
                }
                self.axis = *axis;
                self.slice_index = *index;
                Ok(true)
            }
            ConfigOp::SetVectorMode(mode) => {
                self.mode = *mode;
                Ok(true)
            }
            _ => Ok(false),
        }
    }

    fn populate(&self, renderer: &mut Renderer) -> Result<()> {
        let geometry = match self.mode {
            VectorMode::Glyphs => glyphs_on_slice(
                &self.image,
                self.slice_axis(),
                self.slice_index,
                &self.glyph_options,
            )?,
            VectorMode::Streamlines => {
                streamlines(&self.image, &self.plane_seeds(), &self.streamline_options)?
            }
        };
        let mut actor =
            Actor::from_poly_data(geometry).with_lookup_table(self.editor.lookup_table());
        actor.property.lighting = false;
        renderer.add_actor(actor);
        Ok(())
    }

    fn editor(&self) -> &TransferEditor {
        &self.editor
    }

    fn check_image(&self, image: &ImageData) -> Result<()> {
        has_vectors(image)
    }

    fn set_image(&mut self, image: ImageData) -> Result<()> {
        self.check_image(&image)?;
        let ai = self.slice_axis().index();
        self.slice_index = self.slice_index.min(image.dims[ai].saturating_sub(1));
        self.editor.rescale(image_range(&image));
        self.image = image;
        Ok(())
    }

    fn image(&self) -> &ImageData {
        &self.image
    }

    fn status_line(&self) -> String {
        format!("vectors {:?} {:?}@{}", self.mode, self.axis, self.slice_index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rvtk::render::Framebuffer;
    use rvtk::Color;

    fn wind() -> ImageData {
        let n = 12;
        let mut vectors = Vec::with_capacity(n * n * n);
        for _k in 0..n {
            for j in 0..n {
                for i in 0..n {
                    let (x, y) = (i as f64 - 5.5, j as f64 - 5.5);
                    vectors.push([-y as f32, x as f32, 0.0]);
                }
            }
        }
        ImageData::from_fn([12, 12, 12], [1.0; 3], [0.0; 3], |x, y, _| {
            (((x - 5.5).powi(2) + (y - 5.5).powi(2)) as f32).sqrt()
        })
        .with_vectors(vectors)
        .unwrap()
    }

    #[test]
    fn requires_vectors() {
        let img = ImageData::from_fn([4, 4, 4], [1.0; 3], [0.0; 3], |_, _, _| 0.0);
        assert!(VectorSlicerPlot::new(img, VectorMode::Glyphs).is_err());
    }

    #[test]
    fn glyph_mode_renders_arrows() {
        let p = VectorSlicerPlot::new(wind(), VectorMode::Glyphs).unwrap();
        let mut r = Renderer::new();
        p.populate(&mut r).unwrap();
        assert!(!r.actors()[0].poly_data.lines.is_empty());
        r.reset_camera();
        let mut fb = Framebuffer::new(48, 48);
        r.render(&mut fb);
        assert!(fb.covered_pixels(Color::BLACK) > 20);
    }

    #[test]
    fn streamline_mode_renders_circles() {
        let mut p = VectorSlicerPlot::new(wind(), VectorMode::Glyphs).unwrap();
        p.configure(&ConfigOp::SetVectorMode(VectorMode::Streamlines)).unwrap();
        let mut r = Renderer::new();
        p.populate(&mut r).unwrap();
        let lines = &r.actors()[0].poly_data.lines;
        assert!(!lines.is_empty());
        // streamlines are long polylines, not 2-point glyph segments
        assert!(lines.iter().any(|l| l.len() > 10));
    }

    #[test]
    fn moving_and_switching_axes() {
        let mut p = VectorSlicerPlot::new(wind(), VectorMode::Glyphs).unwrap();
        assert_eq!(p.axis, Axis3::Z);
        p.configure(&ConfigOp::MoveSlice { axis: Axis3::Z, delta: 3 }).unwrap();
        assert_eq!(p.slice_index, 9);
        // switching axis re-centres
        p.configure(&ConfigOp::MoveSlice { axis: Axis3::X, delta: 1 }).unwrap();
        assert_eq!(p.axis, Axis3::X);
        assert_eq!(p.slice_index, 6);
        assert!(p.configure(&ConfigOp::SetSlice { axis: Axis3::Y, index: 99 }).is_err());
        assert_eq!(p.axis, Axis3::X, "a refused op leaves the plane where it was");
        // drags off the socket saturate at the last / first plane (from
        // plane 6, so that index + delta overflows)
        p.configure(&ConfigOp::MoveSlice { axis: Axis3::X, delta: i64::MAX }).unwrap();
        assert_eq!(p.slice_index, 11);
        p.configure(&ConfigOp::MoveSlice { axis: Axis3::X, delta: i64::MIN }).unwrap();
        assert_eq!(p.slice_index, 0);
    }

    #[test]
    fn colormap_ops_go_to_the_editor() {
        let mut p = VectorSlicerPlot::new(wind(), VectorMode::Glyphs).unwrap();
        assert!(p.configure(&ConfigOp::NextColormap).unwrap());
        assert!(p.configure(&ConfigOp::SetColormap("bogus".into())).is_err());
        // taken since every plot hands its editor the same four ops
        assert!(p.configure(&ConfigOp::ToggleInvert).unwrap());
        assert!(p.editor.inverted);
        assert!(p.configure(&ConfigOp::Leveling { dx: 0.1, dy: 0.0 }).unwrap());
    }

    #[test]
    fn seeds_lie_on_the_plane() {
        let p = VectorSlicerPlot::new(wind(), VectorMode::Streamlines).unwrap();
        for s in p.plane_seeds() {
            assert!((s.z - p.slice_index as f64).abs() < 1e-9);
        }
        assert_eq!(p.plane_seeds().len(), 36);
    }

    #[test]
    fn set_image_validates_vectors() {
        let mut p = VectorSlicerPlot::new(wind(), VectorMode::Glyphs).unwrap();
        let plain = ImageData::from_fn([4, 4, 4], [1.0; 3], [0.0; 3], |_, _, _| 0.0);
        assert!(p.set_image(plain).is_err());
        assert!(p.set_image(wind()).is_ok());
    }
}
