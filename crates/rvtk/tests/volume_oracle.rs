//! The volume ray-caster oracle. `rvtk::render::Renderer` ray-casts each
//! volume through one colour + opacity table built per frame, marching in
//! continuous index space and skipping samples in cells the table shows
//! clear; the kernel it replaced (kept in `support/volume_reference.rs`)
//! fetched every sample in world space and mapped it through both transfer
//! functions and a `powf`. The table holds the functions at 1 024 knots,
//! so the two cannot agree bit for bit. The bound, stated before the first
//! run (`volume_reference::{MAX_LEVEL, MAX_SHARE}`): no RGBA8 channel more
//! than 4 levels from the reference, and at most 5 % of a case's pixels
//! different at all — for Composite, MIP and Average, each for a volume
//! alone and for one composited over geometry depth.
//!
//! Measured: the largest difference in levels, and the share of the
//! case's pixels that differ, over all its views.
//!
//! | case | Composite | MIP | Average |
//! |---|---|---|---|
//! | smooth field, NaN block | 1, 0.029 % | 0 | 0 |
//! | constant field | 0 | 0 | 0 |
//! | camera inside the volume | 1, 0.145 % | 0 | 0 |
//! | over a slice plane's depth | 1, 0.007 % | 0 | 0 |
//!
//! A sample mixes the two knots around its scalar. Taking the nearest knot
//! instead broke the bound where the volume fills the frame: the camera
//! inside it differed on 15.5 % of the pixels (by up to 3 levels), the
//! NaN-block views on 4.9 %.
//!
//! The root package's `tests/volume_oracle.rs` holds the application's
//! scenes: the wall's volume cell over its drag, the benchmark grid, and
//! the Fig 3 fixture's volume + slicer cell.

#[path = "support/volume_reference.rs"]
mod volume_reference;

use rayon::with_threads;
use rvtk::filters::SliceAxis;
use rvtk::lookup_table::{ColormapName, LookupTable};
use rvtk::math::Vec3;
use rvtk::render::{BlendMode, Framebuffer, ImageSlice, Renderer, Volume};
use rvtk::{ColorTransferFunction, ImageData, OpacityTransferFunction};
use volume_reference::{assert_within_bound, compare, Diff};

const MODES: [BlendMode; 3] = [BlendMode::Composite, BlendMode::Mip, BlendMode::Average];

/// The reset view, then turned and tilted.
const VIEWS: [(f64, f64); 4] = [(0.0, 0.0), (35.0, -20.0), (120.0, 25.0), (200.0, -60.0)];

/// A smooth field with structure on several scales.
fn smooth(dims: [usize; 3]) -> ImageData {
    ImageData::from_fn(dims, [1.0, 1.2, 0.8], [-3.0, 2.0, 0.5], |x, y, z| {
        ((0.31 * x).sin() * (0.23 * y).cos() + 0.4 * (0.5 * z + 0.2 * x).sin() + 0.05 * y) as f32
    })
}

fn nan_block(mut img: ImageData) -> ImageData {
    for k in 2..6 {
        for j in 4..11 {
            for i in 5..14 {
                let at = img.index(i, j, k);
                img.scalars[at] = f32::NAN;
            }
        }
    }
    img
}

fn volume(img: ImageData, blend: BlendMode) -> Volume {
    let mut v = Volume::from_image(img);
    v.property.sample_distance = 0.4;
    v.property.blend = blend;
    v
}

/// The scene framed by the reset camera, then turned by `view`.
fn scene(v: Volume, slices: Vec<ImageSlice>, (azimuth, elevation): (f64, f64)) -> Renderer {
    let mut r = Renderer::new();
    r.add_volume(v);
    for s in slices {
        r.add_image_slice(s);
    }
    r.reset_camera();
    r.camera.azimuth(azimuth);
    r.camera.elevation(elevation);
    r
}

/// Every view of `make(mode)` for each blend mode, held to the bound.
fn check_views(case: &str, size: (usize, usize), make: impl Fn(BlendMode, (f64, f64)) -> Renderer) {
    for mode in MODES {
        let mut all = Diff::default();
        for view in VIEWS {
            all.absorb(compare(&make(mode, view), size));
        }
        assert_within_bound(&format!("{case}, {mode:?}"), all);
    }
}

#[test]
fn smooth_field_with_a_nan_block() {
    let img = nan_block(smooth([24, 18, 10]));
    check_views("NaN block", (96, 72), |mode, view| scene(volume(img.clone(), mode), vec![], view));
}

/// Every sample of a constant field has one value, inside an explicit
/// ramp: every sample of every ray is the same scalar.
#[test]
fn constant_field() {
    let img = ImageData::from_fn([12, 10, 6], [1.0; 3], [0.0; 3], |_, _, _| 7.0);
    check_views("constant field", (64, 48), |mode, view| {
        let mut v = volume(img.clone(), mode);
        v.property.color = ColorTransferFunction::from_colormap(ColormapName::Viridis, (0.0, 10.0));
        v.property.opacity = OpacityTransferFunction::leveling(5.0, 8.0, 0.6);
        scene(v, vec![], view)
    });
}

/// The eye inside the volume: a box corner lies behind it, so rays are
/// set up over the whole frame.
#[test]
fn camera_inside_the_volume() {
    let img = nan_block(smooth([24, 18, 10]));
    for mode in MODES {
        let mut r = scene(volume(img.clone(), mode), vec![], (0.0, 0.0));
        r.camera.position = Vec3::new(4.0, 9.0, 4.0);
        r.camera.focal_point = Vec3::new(14.0, 14.0, 3.0);
        r.camera.view_up = Vec3::new(0.0, 0.0, 1.0);
        r.camera.view_angle_deg = 70.0;
        r.camera.clipping_range = (0.01, 100.0);
        assert_within_bound(&format!("camera inside, {mode:?}"), compare(&r, (96, 72)));
    }
}

/// A slice plane through the volume: rays stop at the depth it wrote and
/// composite over its colours.
#[test]
fn volume_over_a_slice_plane() {
    let img = smooth([24, 18, 10]);
    let lut = LookupTable::new(ColormapName::Grayscale, img.scalar_range().unwrap());
    let plane = ImageSlice::from_image(&img, SliceAxis::Y, 9, lut).unwrap();
    check_views("over a slice plane", (96, 72), |mode, view| {
        scene(volume(img.clone(), mode), vec![plane.clone()], view)
    });
}

/// Each pixel's ray is a function of that pixel alone: frames are the same
/// bits at 1, 2 and 8 threads, in every blend mode, over geometry or not.
#[test]
fn frames_are_bit_identical_at_any_thread_count() {
    let img = nan_block(smooth([24, 18, 10]));
    let lut = LookupTable::new(ColormapName::Jet, img.scalar_range().unwrap());
    let plane = ImageSlice::from_image(&img, SliceAxis::X, 12, lut).unwrap();
    for mode in MODES {
        for slices in [vec![], vec![plane.clone()]] {
            let r = scene(volume(img.clone(), mode), slices, (35.0, -20.0));
            let frame = |threads| {
                with_threads(threads, || {
                    let mut fb = Framebuffer::new(120, 90);
                    r.render(&mut fb);
                    fb.to_rgba8()
                })
            };
            let one = frame(1);
            assert!(one.chunks_exact(4).any(|px| px != [0, 0, 0, 255]), "{mode:?}: nothing drawn");
            assert!(frame(2) == one, "{mode:?}: 2 threads");
            assert!(frame(8) == one, "{mode:?}: 8 threads");
        }
    }
}
