//! The volume oracle on the application's own scenes. `rvtk`'s
//! `tests/volume_oracle.rs` states the bound and holds the synthetic
//! cases; the kernel the ray-caster replaced is kept in
//! `crates/rvtk/tests/support/volume_reference.rs`. Here, each held to the
//! same bound (no RGBA8 channel more than 4 levels from the reference, at
//! most 5 % of the pixels different), with the measured largest
//! difference and share of differing pixels (Composite; MIP; Average):
//!
//! - the wall's volume cell (`zg`, 48 × 24 × 4, at the client's 256 × 192)
//!   over `wall_drag`'s 61-frame, 2°-a-frame azimuth drag: 1 level on
//!   0.007 % (201 of 2 998 272 pixels); 1 on 3 pixels; 1 on 1 pixel;
//! - the benchmark grid (`ta`, 180 × 90 × 8, seed 1) at 480 × 360 from the
//!   reset view: 1 level on 0.023 %; 1 on 0.002 %; 1 on 0.002 %;
//! - the Fig 3 fixture's combined volume + slicer cell, where rays stop at
//!   the depth the slice plane wrote: 1 level on 0.011 %; 1 on 1 pixel;
//!   none.

#[path = "../crates/rvtk/tests/support/volume_reference.rs"]
mod volume_reference;

use uvcdat::cdms::synth::SynthesisSpec;
use uvcdat::dv3d::plots::{CompositePlot, Plot, SlicerPlot, VolumePlot};
use uvcdat::dv3d::translation::{translate_scalar, TranslationOptions};
use uvcdat::rvtk::render::{BlendMode, Renderer};
use uvcdat::rvtk::ImageData;
use volume_reference::{assert_within_bound, compare, Diff};

const MODES: [BlendMode; 3] = [BlendMode::Composite, BlendMode::Mip, BlendMode::Average];

/// Field `var` at t = 0 of a synthetic dataset, as the plots see it.
fn field(spec: SynthesisSpec, var: &str) -> ImageData {
    let ds = spec.build();
    let slab = ds.variable(var).unwrap().time_slab(0).unwrap();
    translate_scalar(&slab, &TranslationOptions::default()).unwrap()
}

/// The scene `plot` populates under the reset camera, with every volume
/// in blend `mode`.
fn scene(plot: &dyn Plot, mode: BlendMode) -> Renderer {
    let mut r = Renderer::new();
    plot.populate(&mut r).unwrap();
    for v in r.volumes_mut() {
        v.property.blend = mode;
    }
    r.reset_camera();
    r
}

/// The wall's volume cell: frame 0 at the reset camera, then 60 frames
/// each turned 2° further, as `wall_drag` drives it. Composite, the
/// plot's own mode, is held on every frame; MIP and Average on every
/// fifth.
#[test]
fn wall_volume_cell_over_the_drag() {
    let img = field(SynthesisSpec::new(2, 4, 24, 48), "zg");
    assert_eq!(img.dims, [48, 24, 4]);
    let plot = VolumePlot::new(img).unwrap();
    for mode in MODES {
        let mut r = scene(&plot, mode);
        let every = if mode == BlendMode::Composite { 1 } else { 5 };
        let mut all = Diff::default();
        for frame in 0..=60 {
            if frame > 0 {
                r.camera.azimuth(2.0);
            }
            if frame % every == 0 {
                all.absorb(compare(&r, (256, 192)));
            }
        }
        assert_within_bound(&format!("wall drag, {mode:?}"), all);
    }
}

#[test]
fn benchmark_grid_at_the_benchmark_frame() {
    let img = field(SynthesisSpec::new(1, 8, 90, 180).seed(1), "ta");
    assert_eq!(img.dims, [180, 90, 8]);
    let plot = VolumePlot::new(img).unwrap();
    for mode in MODES {
        let diff = compare(&scene(&plot, mode), (480, 360));
        assert_within_bound(&format!("benchmark grid, {mode:?}"), diff);
    }
}

/// The Fig 3 fixture's volume + slicer cell: the slice plane is geometry
/// the rays stop at.
#[test]
fn fig3_volume_and_slicer() {
    let img = field(SynthesisSpec::new(1, 6, 24, 48), "ta");
    let plot = CompositePlot::new(vec![
        Box::new(VolumePlot::new(img.clone()).unwrap()),
        Box::new(SlicerPlot::new(img, None).unwrap()),
    ])
    .unwrap();
    for mode in MODES {
        let mut all = Diff::default();
        let mut r = scene(&plot, mode);
        for (azimuth, elevation) in [(0.0, 0.0), (30.0, -25.0), (110.0, 20.0)] {
            r.camera.azimuth(azimuth);
            r.camera.elevation(elevation);
            all.absorb(compare(&r, (256, 192)));
        }
        assert_within_bound(&format!("Fig 3 volume + slicer, {mode:?}"), all);
    }
}
