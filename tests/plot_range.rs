//! The seam between a field's range and the plots that colour by it. Every
//! plot with a range editor (slicer, volume, isosurface, vector slicer)
//! ranges its colormap through `rvtk`'s lane fold when it is built and again
//! on every `set_image`, the call each step of a time scrub makes (DESIGN
//! §29). Here the editor's data range after both must be, bit for bit, what
//! the serial NaN-skipping loop the fold replaced gives on the same field:
//! the benchmark-shaped `ta` with NaN holes punched in.

use uvcdat::cdms::synth::SynthesisSpec;
use uvcdat::cdms::Variable;
use uvcdat::dv3d::plots::PlotSpec;
use uvcdat::dv3d::translation::{translate_scalar, TranslationOptions};
use uvcdat::rvtk::ImageData;

/// The scalar reference: the serial loop `ImageData::scalar_range` ran
/// before the fold, with the plots' `(0, 1)` fallback for a field that has
/// no range.
fn serial_range(values: &[f32]) -> (f32, f32) {
    let mut lo = f32::INFINITY;
    let mut hi = f32::NEG_INFINITY;
    for &v in values {
        if v.is_nan() {
            continue;
        }
        lo = lo.min(v);
        hi = hi.max(v);
    }
    if lo.is_finite() {
        (lo, hi)
    } else {
        (0.0, 1.0)
    }
}

fn bits((lo, hi): (f32, f32)) -> (u32, u32) {
    (lo.to_bits(), hi.to_bits())
}

/// Timestep `t` of the benchmark's `ta` (180 × 90 × 8), holed with NaN:
/// the first group of eight values, every `stride`-th value and the last
/// five, so holes fall at the start, inside and at the end of the fold's
/// lanes. It carries a uniform wind for the vector slicer; the other plots
/// ignore it.
fn holed_frame(ta: &Variable, t: usize, stride: usize) -> ImageData {
    let slab = ta.time_slab(t).unwrap();
    let mut img = translate_scalar(&slab, &TranslationOptions::default()).unwrap();
    let n = img.scalars.len();
    for at in (0..8).chain((0..n).step_by(stride)).chain(n - 5..n) {
        img.scalars[at] = f32::NAN;
    }
    img.with_vectors(vec![[1.0, 0.5, 0.0]; n]).unwrap()
}

/// A plot's constructor.
type Build = fn(ImageData) -> PlotSpec;

#[test]
fn every_range_editor_matches_the_serial_reference_after_new_and_set_image() {
    let ds = SynthesisSpec::new(2, 8, 90, 180).seed(1).build();
    let ta = ds.variable("ta").unwrap();
    let (first, next) = (holed_frame(ta, 0, 37), holed_frame(ta, 1, 41));
    // so that `set_image` has a new range to take
    assert_ne!(bits(serial_range(&first.scalars)), bits(serial_range(&next.scalars)));
    let specs: [(&str, Build); 4] = [
        ("slicer", PlotSpec::slicer),
        ("volume", PlotSpec::volume),
        ("isosurface", PlotSpec::isosurface),
        ("vector slicer", PlotSpec::vector_slicer),
    ];
    for (name, spec) in specs {
        let mut plot = spec(first.clone()).build().unwrap();
        let want = serial_range(&first.scalars);
        assert_eq!(bits(plot.editor().data_range), bits(want), "{name} after new");
        plot.set_image(next.clone()).unwrap();
        let want = serial_range(&next.scalars);
        assert_eq!(bits(plot.editor().data_range), bits(want), "{name} after set_image");
        assert_eq!(bits(plot.scalar_range()), bits(want), "{name}: the range it reports");
    }
}
