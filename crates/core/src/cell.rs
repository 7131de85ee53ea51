//! The DV3D cell: what one spreadsheet slot renders.
//!
//! "The DV3D cell module includes a configurable base map, navigation
//! controls, onscreen dataset and variable labels, a pick operation
//! display, and legend/colormap displays" (§III.G). A [`Dv3dCell`] owns a
//! plot, its camera and overlay annotations.

use crate::interaction::{CameraOp, ConfigOp};
use crate::plots::{Plot, PlotSpec};
use crate::translation::{translate_scalar, TranslationOptions};
use crate::Result;
use cdms::Variable;
use rvtk::filters::{contour_lines, SliceAxis};
use rvtk::math::Vec3;
use rvtk::render::{
    draw_colorbar, draw_text, Actor, Camera, Framebuffer, Renderer, StereoMode, RenderWindow,
};
use rvtk::{Color, PolyData};

/// One visualization cell.
pub struct Dv3dCell {
    /// Display name (typically "variable / dataset").
    pub name: String,
    plot: Box<dyn Plot>,
    camera: Camera,
    camera_valid: bool,
    /// Synthetic coastlines drawn at the volume base.
    base_map: Option<PolyData>,
    /// Draw the colorbar legend.
    pub show_colorbar: bool,
    /// Draw the dataset's bounding-box outline.
    pub show_outline: bool,
    /// Draw the name/status labels.
    pub show_labels: bool,
    /// Last pick result shown in the cell.
    pub pick_display: Option<(Vec3, f32)>,
    /// Stereo mode for this cell's renders.
    pub stereo: StereoMode,
    /// Background color.
    pub background: Color,
}

impl std::fmt::Debug for Dv3dCell {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Dv3dCell")
            .field("name", &self.name)
            .field("plot", &self.plot.type_name())
            .finish()
    }
}

impl Dv3dCell {
    /// Builds a cell around a plot spec.
    #[expect(
        clippy::expect_used,
        reason = "infallible convenience constructor; callers that can handle failure use try_new"
    )]
    pub fn new(name: &str, spec: PlotSpec) -> Dv3dCell {
        Self::try_new(name, spec).expect("plot construction")
    }

    /// Fallible constructor.
    pub fn try_new(name: &str, spec: PlotSpec) -> Result<Dv3dCell> {
        Ok(Self::from_plot(name, spec.build()?))
    }

    /// Wraps an already-built plot (composite plots take this path).
    pub(crate) fn from_plot(name: &str, plot: Box<dyn Plot>) -> Dv3dCell {
        Dv3dCell {
            name: name.to_string(),
            plot,
            camera: Camera::default(),
            camera_valid: false,
            base_map: None,
            show_colorbar: true,
            show_outline: false,
            show_labels: true,
            pick_display: None,
            stereo: StereoMode::Off,
            background: Color::BLACK,
        }
    }

    /// The plot.
    pub fn plot(&self) -> &dyn Plot {
        self.plot.as_ref()
    }

    /// Mutable plot access (animation uses this).
    pub fn plot_mut(&mut self) -> &mut dyn Plot {
        self.plot.as_mut()
    }

    /// Installs a base map: coastlines contoured from a `(lat, lon)`
    /// land-fraction variable (`sftlf`) at the 0.5 level, drawn at the
    /// volume floor — on the grid the translation module puts every plot on.
    pub fn set_base_map(&mut self, land_fraction: &Variable) -> Result<()> {
        let img = translate_scalar(land_fraction, &TranslationOptions::default())?;
        let mut coast = contour_lines(&img, SliceAxis::Z, 0, &[0.5])?;
        // drop slightly below the data so slice planes stay readable
        for p in &mut coast.points {
            p.z = -0.1;
        }
        self.base_map = Some(coast);
        Ok(())
    }

    /// Applies a configuration operation: camera ops are handled here, the
    /// rest go to the plot. A camera op on
    /// a cell that has not framed its camera yet frames it first, so the op
    /// moves the view the first render would have shown.
    pub fn configure(&mut self, op: &ConfigOp) -> Result<()> {
        match op {
            ConfigOp::Camera(cam_op) => {
                if *cam_op != CameraOp::Reset {
                    self.frame_camera()?;
                }
                match cam_op {
                    CameraOp::Azimuth(d) => self.camera.azimuth(*d),
                    CameraOp::Elevation(d) => self.camera.elevation(*d),
                    CameraOp::Zoom(f) => self.camera.zoom(*f),
                    CameraOp::Pan(dx, dy) => self.camera.pan(*dx, *dy),
                    CameraOp::Roll(d) => self.camera.roll(*d),
                    CameraOp::Reset => self.camera_valid = false,
                }
            }
            other => {
                self.plot.configure(other)?;
            }
        }
        Ok(())
    }

    /// Frames the camera on the current scene, as the first render does,
    /// unless it is framed already. Copies of one cell that must show the
    /// same view (a wall panel, its mirror, the panel rebuilt on reconnect)
    /// each frame at build, before any op, so one op log moves them alike.
    pub fn frame_camera(&mut self) -> Result<()> {
        if !self.camera_valid {
            self.scene()?;
        }
        Ok(())
    }

    /// Builds the scene for the current state, framing the camera on it if
    /// it is not framed yet.
    fn scene(&mut self) -> Result<Renderer> {
        let mut renderer = Renderer::new();
        renderer.background = self.background;
        self.plot.populate(&mut renderer)?;
        if let Some(map) = &self.base_map {
            let mut actor = Actor::from_poly_data(map.clone())
                .with_color(Color::rgb(0.9, 0.9, 0.5));
            actor.property.lighting = false;
            renderer.add_actor(actor);
        }
        if self.show_outline {
            let box_lines = rvtk::filters::outline(&self.plot.image().bounds());
            let mut actor = Actor::from_poly_data(box_lines)
                .with_color(Color::rgb(0.45, 0.45, 0.45));
            actor.property.lighting = false;
            renderer.add_actor(actor);
        }
        if !self.camera_valid {
            renderer.reset_camera();
            self.camera = renderer.camera.clone();
            self.camera_valid = true;
        } else {
            renderer.camera = self.camera.clone();
        }
        Ok(renderer)
    }

    /// Renders the cell at the given size, with overlays.
    pub fn render(&mut self, width: usize, height: usize) -> Result<Framebuffer> {
        let renderer = self.scene()?;
        let mut window = RenderWindow::new(width, height);
        window.stereo = self.stereo;
        window.render(&renderer);
        let fb = window.framebuffer_mut();
        if self.show_colorbar && width > 60 && height > 40 {
            let bar_h = height * 6 / 10;
            draw_colorbar(
                fb,
                width - 46,
                (height - bar_h) / 2,
                10,
                bar_h,
                &self.plot.legend(),
            );
        }
        if self.show_labels && height > 24 {
            draw_text(fb, 3, 3, &self.name, Color::WHITE, 1);
            draw_text(fb, 3, 12, &self.plot.status_line(), Color::rgb(0.8, 0.8, 0.8), 1);
            if let Some((p, v)) = self.pick_display {
                let msg = format!("pick ({:.0},{:.0},{:.0}) = {:.3}", p.x, p.y, p.z, v);
                draw_text(fb, 3, height - 11, &msg, Color::rgb(1.0, 1.0, 0.6), 1);
            }
        }
        Ok(window.into_framebuffer())
    }

    /// Picks through a pixel: probes the plot's image along the view ray
    /// and stores the result for display.
    pub fn pick(&mut self, px: f64, py: f64, width: usize, height: usize) -> Option<(Vec3, f32)> {
        let mut r = self.scene().ok()?;
        // ensure a volume exists to probe: probe the plot image directly
        r.clear_scene();
        r.add_volume(rvtk::render::Volume::from_image(self.plot.image().clone()));
        let hit = r.pick(width, height, px, py);
        self.pick_display = hit;
        hit
    }

    /// The camera (for synchronization across cells / hyperwall mirroring).
    pub fn camera(&self) -> &Camera {
        &self.camera
    }

    /// Overrides the camera (synchronized navigation).
    pub(crate) fn set_camera(&mut self, camera: Camera) {
        self.camera = camera;
        self.camera_valid = true;
    }
}

#[cfg(test)]
impl Dv3dCell {
    /// True when a base map is installed.
    pub(crate) fn has_base_map(&self) -> bool {
        self.base_map.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interaction::Axis3;
    use crate::translation::{translate_scalar, TranslationOptions};
    use cdms::synth::SynthesisSpec;

    fn cell() -> Dv3dCell {
        let ds = SynthesisSpec::new(1, 4, 16, 32).build();
        let ta = ds.variable("ta").unwrap().time_slab(0).unwrap();
        let img = translate_scalar(&ta, &TranslationOptions::default()).unwrap();
        Dv3dCell::new("ta / synth", PlotSpec::slicer(img))
    }

    #[test]
    fn renders_with_overlays() {
        let mut c = cell();
        let fb = c.render(160, 120).unwrap();
        assert!(fb.covered_pixels(Color::BLACK) > 300);
        // top-left label pixels present
        let mut label_pixels = 0;
        for y in 0..20 {
            for x in 0..100 {
                if fb.pixel(x, y).luminance() > 0.5 {
                    label_pixels += 1;
                }
            }
        }
        assert!(label_pixels > 20, "labels missing");
    }

    #[test]
    fn overlays_can_be_disabled() {
        let mut c = cell();
        c.show_colorbar = false;
        c.show_labels = false;
        let fb1 = c.render(160, 120).unwrap();
        let mut c2 = cell();
        let fb2 = c2.render(160, 120).unwrap();
        assert!(fb1.covered_pixels(Color::BLACK) < fb2.covered_pixels(Color::BLACK));
    }

    #[test]
    fn camera_ops_persist_across_renders() {
        let mut c = cell();
        c.render(64, 64).unwrap();
        let before = c.camera().position;
        c.configure(&ConfigOp::Camera(CameraOp::Azimuth(30.0))).unwrap();
        c.render(64, 64).unwrap();
        assert_ne!(c.camera().position, before);
        // reset restores the framing
        c.configure(&ConfigOp::Camera(CameraOp::Reset)).unwrap();
        c.render(64, 64).unwrap();
        let dist = (c.camera().position - before).length();
        assert!(dist < 1e-6, "reset should reframe identically: {dist}");
    }

    #[test]
    fn base_map_draws_coastlines() {
        let ds = SynthesisSpec::new(1, 1, 24, 48).build();
        let mut c = cell();
        c.set_base_map(ds.variable("sftlf").unwrap()).unwrap();
        assert!(c.has_base_map());
        // hide the slice plane so the floor coastlines are unoccluded
        c.configure(&ConfigOp::TogglePlane { axis: Axis3::Z }).unwrap();
        c.show_colorbar = false;
        c.show_labels = false;
        let fb = c.render(128, 96).unwrap();
        // coastline color is yellow-ish (r ≈ g > b)
        let coast_pixels = fb
            .colors()
            .iter()
            .filter(|c| c.r > 0.7 && c.g > 0.7 && c.b > 0.3 && c.b < 0.6)
            .count();
        assert!(coast_pixels > 20, "coastlines missing ({coast_pixels} px)");
    }

    #[test]
    fn base_map_requires_horizontal_axes() {
        let ds = SynthesisSpec::new(2, 1, 8, 16).build();
        let series = cdat::averager::spatial_mean(ds.variable("pr").unwrap()).unwrap();
        let mut c = cell();
        assert!(c.set_base_map(&series).is_err());
    }

    #[test]
    fn pick_probes_the_data() {
        let mut c = cell();
        c.render(64, 64).unwrap();
        let hit = c.pick(32.0, 32.0, 64, 64);
        assert!(hit.is_some());
        let (_, v) = hit.unwrap();
        assert!((150.0..330.0).contains(&v), "picked {v}");
        assert!(c.pick_display.is_some());
    }

    #[test]
    fn raw_events_drive_the_cell() {
        // the full input path: toolkit event -> ConfigOps -> cell state
        use crate::interaction::{map_event, DragMode, Event, MouseButton};
        let mut c = cell();
        c.render(64, 64).unwrap();
        let start_cam = c.camera().position;
        let events = [
            (Event::Key { ch: 'x', shift: false }, DragMode::Navigate), // move x slice
            (Event::Key { ch: 'c', shift: false }, DragMode::Navigate), // next colormap
            (Event::Drag { button: MouseButton::Left, dx: 0.2, dy: 0.0 }, DragMode::Navigate),
            (Event::Drag { button: MouseButton::Left, dx: 0.1, dy: 0.1 }, DragMode::Leveling),
            (Event::Scroll { delta: 2.0 }, DragMode::Navigate),
        ];
        let mut applied = 0;
        for (ev, mode) in events {
            for op in map_event(ev, mode) {
                c.configure(&op).unwrap();
                applied += 1;
            }
        }
        assert!(applied >= 5);
        c.render(64, 64).unwrap();
        assert_ne!(c.camera().position, start_cam);
    }

    #[test]
    fn stereo_render_works() {
        let mut c = cell();
        c.stereo = StereoMode::Anaglyph;
        let fb = c.render(96, 72).unwrap();
        assert!(fb.covered_pixels(Color::BLACK) > 100);
    }

    #[test]
    fn outline_adds_box_edges() {
        let mut c = cell();
        c.show_labels = false;
        c.show_colorbar = false;
        let without = c.render(96, 72).unwrap().covered_pixels(Color::BLACK);
        c.show_outline = true;
        let with = c.render(96, 72).unwrap().covered_pixels(Color::BLACK);
        assert!(with > without, "outline should add pixels: {with} vs {without}");
    }

    #[test]
    fn plot_error_propagates() {
        let mut c = cell();
        let before = c.render(64, 64).unwrap().to_rgba8();
        let err = c.configure(&ConfigOp::SetColormap("bogus".into()));
        assert!(err.is_err());
        // a failed op leaves the frame as it was
        assert_eq!(c.render(64, 64).unwrap().to_rgba8(), before);
    }
}
