//! The Volume render plot: maps variable values to opacity and color,
//! revealing 3D structure at a glance; the interactive leveling interface
//! "greatly simplifies" transfer-function construction (§III.C).

use crate::interaction::ConfigOp;
use crate::plots::{image_range, Plot};
use crate::transfer::TransferEditor;
use crate::Result;
use rvtk::render::{BlendMode, Renderer, Volume, VolumeProperty};
use rvtk::ImageData;

/// An interactive volume rendering.
#[derive(Debug, Clone)]
pub struct VolumePlot {
    image: ImageData,
    /// Transfer-function state driven by leveling drags.
    pub editor: TransferEditor,
    /// Blend mode (composite / MIP / average).
    pub blend: BlendMode,
    /// Ray sample distance in world units.
    pub sample_distance: f64,
}

impl VolumePlot {
    /// A volume plot with leveling initialized to the upper half range.
    pub fn new(image: ImageData) -> Result<VolumePlot> {
        let range = image_range(&image);
        let mut editor = TransferEditor::new(range);
        // start with the upper values emphasized, like DV3D's default
        editor.level = range.0 + 0.65 * (range.1 - range.0);
        editor.window = (range.1 - range.0) * 0.5;
        let diag = image.bounds().diagonal();
        Ok(VolumePlot {
            image,
            editor,
            blend: BlendMode::Composite,
            sample_distance: (diag / 150.0).max(1e-3),
        })
    }

    fn volume_property(&self) -> VolumeProperty {
        VolumeProperty {
            color: self.editor.color_function(),
            opacity: self.editor.opacity_function(),
            blend: self.blend,
            sample_distance: self.sample_distance,
            early_termination_alpha: 0.98,
        }
    }
}

impl Plot for VolumePlot {
    fn type_name(&self) -> &'static str {
        super::VOLUME.label
    }

    fn configure(&mut self, op: &ConfigOp) -> Result<bool> {
        self.editor.configure(op)
    }

    fn populate(&self, renderer: &mut Renderer) -> Result<()> {
        renderer.add_volume(Volume {
            image: self.image.clone(),
            property: self.volume_property(),
            visible: true,
        });
        Ok(())
    }

    fn editor(&self) -> &TransferEditor {
        &self.editor
    }

    fn set_image(&mut self, image: ImageData) -> Result<()> {
        self.editor.rescale(image_range(&image));
        self.image = image;
        Ok(())
    }

    fn image(&self) -> &ImageData {
        &self.image
    }

    fn status_line(&self) -> String {
        format!(
            "volume L:{:.3} W:{:.3} {:?}",
            self.editor.level, self.editor.window, self.blend
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interaction::ConfigOp;
    use rvtk::render::Framebuffer;
    use rvtk::Color;

    fn ball() -> ImageData {
        ImageData::from_fn([16, 16, 16], [1.0; 3], [0.0; 3], |x, y, z| {
            let d2 = (x - 7.5).powi(2) + (y - 7.5).powi(2) + (z - 7.5).powi(2);
            (60.0 - d2 as f32).max(0.0)
        })
    }

    #[test]
    fn renders_a_blob() {
        let p = VolumePlot::new(ball()).unwrap();
        let mut r = Renderer::new();
        p.populate(&mut r).unwrap();
        r.reset_camera();
        let mut fb = Framebuffer::new(48, 48);
        r.render(&mut fb);
        assert!(fb.covered_pixels(Color::BLACK) > 30);
    }

    #[test]
    fn leveling_changes_the_rendering() {
        let mut p = VolumePlot::new(ball()).unwrap();
        let render = |p: &VolumePlot| {
            let mut r = Renderer::new();
            p.populate(&mut r).unwrap();
            r.reset_camera();
            let mut fb = Framebuffer::new(32, 32);
            r.render(&mut fb);
            fb.mean_luminance()
        };
        let before = render(&p);
        // push the ramp all the way up: much less becomes visible
        p.configure(&ConfigOp::Leveling { dx: 1.0, dy: 0.0 }).unwrap();
        let after = render(&p);
        assert!(after < before, "{after} !< {before}");
    }

    #[test]
    fn handles_colormap_ops_only() {
        let mut p = VolumePlot::new(ball()).unwrap();
        assert!(p.configure(&ConfigOp::NextColormap).unwrap());
        assert!(p.configure(&ConfigOp::ToggleInvert).unwrap());
        assert!(p.configure(&ConfigOp::SetColormap("hot".into())).unwrap());
        assert!(p.configure(&ConfigOp::SetColormap("bogus".into())).is_err());
        assert!(!p
            .configure(&ConfigOp::MoveSlice {
                axis: crate::interaction::Axis3::X,
                delta: 1
            })
            .unwrap());
    }

    /// Inverting the colormap recolours the volume, not only its legend.
    #[test]
    fn toggle_invert_recolours_the_volume() {
        let mut p = VolumePlot::new(ball()).unwrap();
        let color = |p: &VolumePlot| {
            let mut r = Renderer::new();
            p.populate(&mut r).unwrap();
            r.volumes()[0].property.color.clone()
        };
        let half = p.editor.window / 2.0;
        let (lo, hi) = (p.editor.level - half, p.editor.level + half);
        let before = color(&p);
        p.configure(&ConfigOp::ToggleInvert).unwrap();
        let after = color(&p);
        assert_ne!(before.map(lo), before.map(hi));
        assert_eq!(after.map(lo), before.map(hi));
        assert_eq!(after.map(hi), before.map(lo));
        let legend = p.legend();
        assert_eq!(after.map(lo), legend.map(legend.range.0));
        assert_eq!(after.map(hi), legend.map(legend.range.1));
    }

    #[test]
    fn set_image_rescales_editor() {
        let mut p = VolumePlot::new(ball()).unwrap();
        let img2 = ImageData::from_fn([8, 8, 8], [1.0; 3], [0.0; 3], |x, _, _| 1000.0 * x as f32);
        p.set_image(img2).unwrap();
        assert_eq!(p.scalar_range(), (0.0, 7000.0));
        assert!(p.editor.level > 0.0);
    }

    #[test]
    fn status_line_mentions_blend() {
        let p = VolumePlot::new(ball()).unwrap();
        assert!(p.status_line().contains("Composite"));
    }
}
