//! The volume ray-caster as it was before it shaded through a per-frame
//! table and marched in index space, kept as the oracle for the kernel that
//! replaced it: per pixel, two inverse projections and a slab test; per
//! sample, a world-space trilinear fetch (`ImageData::sample_world`), a
//! scan of the opacity nodes, a `powf` and a scan of the colour nodes.
//! `render_volume`'s loop and `march` are the production code of that time,
//! verbatim but for reaching the framebuffer through its public API
//! (`depth_at`, `pixel`, `set_pixel`) one pixel at a time instead of
//! through parallel row bands. Every pixel was independent, so the serial
//! order changes nothing: `c.over(opaque)` has alpha exactly 1, which
//! `set_pixel` writes as given.
//!
//! Both `tests/volume_oracle.rs` of `rvtk` and the root package's
//! `tests/volume_oracle.rs` include this file.

use rvtk::math::{Mat4, Vec3};
use rvtk::render::{BlendMode, Framebuffer, Renderer, Volume, VolumeProperty};
use rvtk::Color;

/// `renderer.render(fb)` with every volume drawn by the reference kernel:
/// the scene's geometry and slice planes by the production rasterizer,
/// then each volume against their depth.
pub fn render(renderer: &Renderer, fb: &mut Framebuffer) {
    geometry(renderer).render(fb);
    let cam = &renderer.camera;
    let vp = cam.projection_matrix(fb.aspect()).mul_mat(&cam.view_matrix());
    for v in renderer.volumes() {
        render_volume(v, &vp, fb);
    }
}

/// The scene without its volumes.
fn geometry(renderer: &Renderer) -> Renderer {
    let mut r = renderer.clone();
    r.volumes_mut().clear();
    r
}

/// Ray-casts `volume` into `fb` (which may already hold rasterized
/// geometry — rays terminate at the geometry depth and composite over it).
pub fn render_volume(volume: &Volume, view_proj: &Mat4, fb: &mut Framebuffer) {
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

    for y in 0..height {
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
            let zbuf = fb.depth_at(x, y);
            if zbuf.is_finite() {
                let geom = inv.transform_point(Vec3::new(ndc_x, ndc_y, zbuf as f64));
                let t_geom = (geom - near).dot(dir);
                t1 = t1.min(t_geom);
            }
            if t1 <= t0 {
                continue;
            }
            if let Some(c) = march(volume, near, dir, t0, t1, step, reference, prop) {
                let under = fb.pixel(x, y);
                fb.set_pixel(x, y, c.over(Color { a: 1.0, ..under }));
            }
        }
    }
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

/// What one comparison of two RGBA8 frames saw.
#[derive(Debug, Default, Clone, Copy)]
pub struct Diff {
    /// Pixels compared.
    pub pixels: usize,
    /// Pixels with any channel apart.
    pub differing: usize,
    /// The largest channel difference.
    pub max_level: u8,
    /// Pixels the volumes drew on, by the reference.
    pub lit: usize,
}

impl Diff {
    /// Compares two RGBA8 frames of one size.
    pub fn of(got: &[u8], want: &[u8]) -> Diff {
        assert_eq!(got.len(), want.len(), "frames of different sizes");
        let mut d = Diff { pixels: got.len() / 4, ..Diff::default() };
        for (a, b) in got.chunks_exact(4).zip(want.chunks_exact(4)) {
            let level = a.iter().zip(b).map(|(x, y)| x.abs_diff(*y)).max().unwrap_or(0);
            d.max_level = d.max_level.max(level);
            d.differing += usize::from(level > 0);
        }
        d
    }

    /// Folds another comparison into this one.
    pub fn absorb(&mut self, o: Diff) {
        self.pixels += o.pixels;
        self.differing += o.differing;
        self.max_level = self.max_level.max(o.max_level);
        self.lit += o.lit;
    }

    /// Share of compared pixels that differ.
    pub fn share(&self) -> f64 {
        self.differing as f64 / self.pixels.max(1) as f64
    }
}

/// The bound every case is held to, stated before the first run: no
/// RGBA8 channel more than this many levels from the reference…
pub const MAX_LEVEL: u8 = 4;
/// …and at most this share of the frame's pixels different at all.
pub const MAX_SHARE: f64 = 0.05;

/// Renders `renderer` with both kernels at `size` and returns what the
/// comparison saw, with `lit` the pixels the reference volumes changed.
pub fn compare(renderer: &Renderer, (width, height): (usize, usize)) -> Diff {
    let mut got = Framebuffer::new(width, height);
    renderer.render(&mut got);
    let mut want = Framebuffer::new(width, height);
    render(renderer, &mut want);
    let mut bare = Framebuffer::new(width, height);
    geometry(renderer).render(&mut bare);
    let (want, bare) = (want.to_rgba8(), bare.to_rgba8());
    let lit = want.chunks_exact(4).zip(bare.chunks_exact(4)).filter(|(a, b)| a != b).count();
    Diff { lit, ..Diff::of(&got.to_rgba8(), &want) }
}

/// Asserts `diff` inside the bound, over a volume that drew something,
/// and prints it beside the bound.
pub fn assert_within_bound(case: &str, diff: Diff) {
    println!(
        "{case}: {} of {} px differ ({:.3} %), max {} levels (bound {MAX_LEVEL} levels, {:.0} %); \
         {} px lit",
        diff.differing,
        diff.pixels,
        100.0 * diff.share(),
        diff.max_level,
        100.0 * MAX_SHARE,
        diff.lit
    );
    assert!(diff.lit > 0, "{case}: the volume drew nothing");
    assert!(diff.max_level <= MAX_LEVEL, "{case}: {diff:?}");
    assert!(diff.share() <= MAX_SHARE, "{case}: {diff:?}");
}
