//! Ray-cast volume rendering with color/opacity transfer functions —
//! the engine behind DV3D's Volume render plot.

use crate::color::Color;
use crate::image_data::ImageData;
use crate::lookup_table::{ColorTransferFunction, ColormapName, OpacityTransferFunction};
use crate::math::{Mat4, Vec3};
use crate::render::framebuffer::{Framebuffer, TileGrid};
use rayon::prelude::*;

/// How samples along a ray combine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BlendMode {
    /// Front-to-back alpha compositing (the classic volume rendering).
    #[default]
    Composite,
    /// Maximum intensity projection.
    Mip,
    /// Mean of samples along the ray.
    Average,
}

/// Appearance of a volume.
#[derive(Debug, Clone)]
pub struct VolumeProperty {
    /// Scalar → color.
    pub color: ColorTransferFunction,
    /// Scalar → opacity (per unit reference length).
    pub opacity: OpacityTransferFunction,
    /// Blend mode.
    pub blend: BlendMode,
    /// World distance between samples.
    pub sample_distance: f64,
    /// Stop a ray once accumulated alpha exceeds this (Composite only).
    /// Values ≥ 1 disable early termination.
    pub early_termination_alpha: f32,
}

impl VolumeProperty {
    /// A reasonable default over the given scalar range.
    pub fn over_range(range: (f32, f32)) -> VolumeProperty {
        let level = (range.0 + range.1) / 2.0;
        let window = (range.1 - range.0).max(1e-6);
        VolumeProperty {
            color: ColorTransferFunction::from_colormap(ColormapName::Jet, range),
            opacity: OpacityTransferFunction::leveling(level, window, 0.6),
            blend: BlendMode::Composite,
            sample_distance: 1.0,
            early_termination_alpha: 0.98,
        }
    }
}

/// A renderable volume: image data plus appearance.
#[derive(Debug, Clone)]
pub struct Volume {
    /// The scalar field.
    pub image: ImageData,
    /// Appearance.
    pub property: VolumeProperty,
    /// Skip rendering when false.
    pub visible: bool,
}

impl Volume {
    /// Wraps image data with a default transfer function over its range.
    pub fn from_image(image: ImageData) -> Volume {
        let range = image.scalar_range().unwrap_or((0.0, 1.0));
        Volume { property: VolumeProperty::over_range(range), image, visible: true }
    }
}

/// Ray-casts `volume` into `fb` (which may already hold rasterized
/// geometry — rays terminate at the geometry depth and composite over it).
pub(crate) fn render_volume(volume: &Volume, view_proj: &Mat4, fb: &mut Framebuffer) {
    if !volume.visible {
        return;
    }
    let Some(inv) = view_proj.inverse() else {
        return;
    };
    let width = fb.width();
    let height = fb.height();
    if width < 2 || height < 2 {
        return;
    }
    let bounds = volume.image.bounds();
    let prop = &volume.property;
    let step = prop.sample_distance.max(bounds.diagonal() / 4096.0).max(1e-6);
    // opacity correction reference length: one sample distance at the
    // property's nominal setting
    let reference = prop.sample_distance.max(1e-6);

    // bands of the tile-row height, whatever the thread count: claimed one
    // at a time, so rows that miss the volume cost their thread nothing
    let mut bands = fb.band_views(TileGrid::TILE);
    bands.par_iter_mut().for_each(|band| {
        let (colors, depths) = (&mut *band.colors, &mut *band.depths);
        for row in 0..band.rows {
            let y = band.y0 + row;
            let ndc_y = 1.0 - 2.0 * y as f64 / (height - 1) as f64;
            for x in 0..width {
                let ndc_x = 2.0 * x as f64 / (width - 1) as f64 - 1.0;
                let near = inv.transform_point(Vec3::new(ndc_x, ndc_y, -1.0));
                let far = inv.transform_point(Vec3::new(ndc_x, ndc_y, 1.0));
                let dir_full = far - near;
                let len = dir_full.length();
                if len < 1e-12 {
                    continue;
                }
                let dir = dir_full / len;
                let Some((mut t0, mut t1)) = bounds.ray_intersect(near, dir) else {
                    continue;
                };
                t0 = t0.max(0.0);
                // stop at existing geometry
                let i = row * width + x;
                let zbuf = depths[i];
                if zbuf.is_finite() {
                    let geom = inv.transform_point(Vec3::new(ndc_x, ndc_y, zbuf as f64));
                    let t_geom = (geom - near).dot(dir);
                    t1 = t1.min(t_geom);
                }
                if t1 <= t0 {
                    continue;
                }
                if let Some(c) = march(volume, near, dir, t0, t1, step, reference, prop) {
                    colors[i] = c.over(Color { a: 1.0, ..colors[i] });
                }
            }
        }
    });
}

/// Marches one ray; returns the accumulated premixed color (alpha =
/// coverage) or `None` when nothing was hit.
#[allow(clippy::too_many_arguments)]
fn march(
    volume: &Volume,
    origin: Vec3,
    dir: Vec3,
    t0: f64,
    t1: f64,
    step: f64,
    reference: f64,
    prop: &VolumeProperty,
) -> Option<Color> {
    let img = &volume.image;
    let mut acc = Color::TRANSPARENT;
    let mut alpha = 0.0f32;
    let mut mip: Option<f32> = None;
    let mut sum = 0.0f64;
    let mut count = 0usize;
    let mut t = t0 + step / 2.0;
    while t < t1 {
        let p = origin + dir * t;
        if let Some(s) = img.sample_world(p) {
            match prop.blend {
                BlendMode::Composite => {
                    let a_nominal = prop.opacity.map(s);
                    if a_nominal > 1e-4 {
                        // correct opacity for the actual step length
                        let a = 1.0 - (1.0 - a_nominal).powf((step / reference) as f32);
                        let c = prop.color.map(s);
                        let w = (1.0 - alpha) * a;
                        acc.r += c.r * w;
                        acc.g += c.g * w;
                        acc.b += c.b * w;
                        alpha += w;
                        if alpha >= prop.early_termination_alpha {
                            break;
                        }
                    }
                }
                BlendMode::Mip => {
                    mip = Some(mip.map_or(s, |m| m.max(s)));
                }
                BlendMode::Average => {
                    sum += s as f64;
                    count += 1;
                }
            }
        }
        t += step;
    }
    match prop.blend {
        BlendMode::Composite => {
            if alpha <= 1e-4 {
                None
            } else {
                // un-premultiply for `over`
                Some(Color {
                    r: acc.r / alpha,
                    g: acc.g / alpha,
                    b: acc.b / alpha,
                    a: alpha.min(1.0),
                })
            }
        }
        BlendMode::Mip => mip.map(|m| {
            let c = prop.color.map(m);
            Color { a: prop.opacity.map(m).max(0.05), ..c }
        }),
        BlendMode::Average => {
            if count == 0 {
                None
            } else {
                let m = (sum / count as f64) as f32;
                let c = prop.color.map(m);
                Some(Color { a: prop.opacity.map(m).max(0.05), ..c })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::render::camera::Camera;

    fn ball_volume(n: usize) -> Volume {
        let c = (n - 1) as f64 / 2.0;
        let img = ImageData::from_fn([n, n, n], [1.0; 3], [0.0; 3], move |x, y, z| {
            let d = (((x - c).powi(2) + (y - c).powi(2) + (z - c).powi(2)) as f32).sqrt();
            (c as f32 - d).max(0.0) // bright core, zero outside the ball
        });
        let mut v = Volume::from_image(img);
        v.property.opacity = OpacityTransferFunction::from_nodes(vec![
            (0.0, 0.0),
            (1.0, 0.0),
            (2.0, 0.5),
        ]);
        v.property.sample_distance = 0.5;
        v
    }

    fn camera_for(volume: &Volume, aspect: f64) -> Mat4 {
        let mut cam = Camera::default();
        cam.reset_to_bounds(&volume.image.bounds());
        cam.projection_matrix(aspect).mul_mat(&cam.view_matrix())
    }

    #[test]
    fn composite_renders_a_blob() {
        let v = ball_volume(16);
        let vp = camera_for(&v, 1.0);
        let mut fb = Framebuffer::new(48, 48);
        render_volume(&v, &vp, &mut fb);
        let covered = fb.covered_pixels(Color::BLACK);
        assert!(covered > 50, "covered {covered}");
        // blob is centred: centre pixel lit, corner dark
        assert!(fb.pixel(24, 24).luminance() > 0.05);
        assert_eq!(fb.pixel(0, 0), Color::BLACK);
    }

    #[test]
    fn invisible_volume_renders_nothing() {
        let mut v = ball_volume(12);
        v.visible = false;
        let vp = camera_for(&v, 1.0);
        let mut fb = Framebuffer::new(32, 32);
        render_volume(&v, &vp, &mut fb);
        assert_eq!(fb.covered_pixels(Color::BLACK), 0);
    }

    #[test]
    fn mip_mode_lights_up() {
        let mut v = ball_volume(16);
        v.property.blend = BlendMode::Mip;
        let vp = camera_for(&v, 1.0);
        let mut fb = Framebuffer::new(32, 32);
        render_volume(&v, &vp, &mut fb);
        assert!(fb.pixel(16, 16).luminance() > 0.05);
    }

    #[test]
    fn average_mode_lights_up() {
        let mut v = ball_volume(16);
        v.property.blend = BlendMode::Average;
        v.property.opacity = OpacityTransferFunction::from_nodes(vec![(0.0, 0.8)]);
        let vp = camera_for(&v, 1.0);
        let mut fb = Framebuffer::new(32, 32);
        render_volume(&v, &vp, &mut fb);
        assert!(fb.covered_pixels(Color::BLACK) > 20);
    }

    #[test]
    fn volume_composites_over_geometry_depth() {
        // Fill the framebuffer with geometry *in front of* the volume: the
        // volume must not overwrite it.
        let v = ball_volume(16);
        let vp = camera_for(&v, 1.0);
        let mut fb = Framebuffer::new(32, 32);
        // fake near geometry covering everything at NDC depth -0.999
        for band in fb.band_views(32) {
            band.colors.fill(Color::GREEN);
            band.depths.fill(-0.999);
        }
        render_volume(&v, &vp, &mut fb);
        let c = fb.pixel(16, 16);
        assert!(c.g > 0.9 && c.r < 0.05, "geometry should stay in front: {c:?}");
    }

    #[test]
    fn early_termination_matches_full_march_visually() {
        let mut v = ball_volume(20);
        v.property.opacity =
            OpacityTransferFunction::from_nodes(vec![(0.0, 0.0), (2.0, 0.95)]);
        let vp = camera_for(&v, 1.0);
        let mut fb_early = Framebuffer::new(24, 24);
        render_volume(&v, &vp, &mut fb_early);
        v.property.early_termination_alpha = 2.0; // disabled
        let mut fb_full = Framebuffer::new(24, 24);
        render_volume(&v, &vp, &mut fb_full);
        // same pixels covered, similar centre color
        assert_eq!(
            fb_early.covered_pixels(Color::BLACK),
            fb_full.covered_pixels(Color::BLACK)
        );
        let a = fb_early.pixel(12, 12);
        let b = fb_full.pixel(12, 12);
        assert!((a.luminance() - b.luminance()).abs() < 0.12, "{a:?} vs {b:?}");
    }

    #[test]
    fn empty_transfer_function_renders_nothing() {
        let mut v = ball_volume(12);
        v.property.opacity = OpacityTransferFunction::from_nodes(vec![(0.0, 0.0), (1e9, 0.0)]);
        let vp = camera_for(&v, 1.0);
        let mut fb = Framebuffer::new(24, 24);
        render_volume(&v, &vp, &mut fb);
        assert_eq!(fb.covered_pixels(Color::BLACK), 0);
    }

    #[test]
    fn default_property_spans_scalar_range() {
        let v = ball_volume(10);
        let p = VolumeProperty::over_range((0.0, 10.0));
        assert_eq!(p.blend, BlendMode::Composite);
        assert!(p.opacity.map(0.0) < 1e-6);
        assert!(p.opacity.map(10.0) > 0.5);
        drop(v);
    }
}
