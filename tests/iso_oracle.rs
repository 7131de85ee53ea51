//! The isosurface oracle on the application's own data. The extractor it
//! replaced (kept in `crates/rvtk/tests/support/iso_reference.rs`) welded
//! points by rounded coordinates; the new one names each vertex by its
//! lattice edge, or by the grid point it lands on. `rvtk`'s
//! `tests/iso_oracle.rs` holds the two to bit-identity on synthetic fields
//! at 1, 2 and 8 threads. Here:
//!
//! - the Fig 3 fixture (`ta` coloured by `hus`) is bit-identical too;
//! - the benchmark's field (seed 1, t = 0, 180 × 90 × 8, the plot's
//!   midpoint isovalue) is where the weld merged two *distinct* edges,
//!   (68,83,2)→(68,84,3) and (67,83,2)→(68,84,3): both interpolants fall
//!   within the weld tolerance of the grid point (68,84,3), whose value is
//!   just below the isovalue, and round to the same key. The edge-keyed
//!   mesh keeps them apart: 49 520 vertices and 97 140 triangles against
//!   49 519 and 97 138. Every other vertex and triangle matches.

#[path = "../crates/rvtk/tests/support/iso_reference.rs"]
mod iso_reference;

use iso_reference::{assert_bit_identical, emit, merge_by_key, reference, weld, weld_tolerance, Key};
use std::collections::HashMap;
use uvcdat::cdms::synth::SynthesisSpec;
use uvcdat::dv3d::plots::IsosurfacePlot;
use uvcdat::dv3d::translation::{translate_scalar, TranslationOptions};
use uvcdat::rvtk::filters::{isosurface, isosurface_colored};
use uvcdat::rvtk::{ImageData, PolyData};

/// Field `var` at t = 0 of a seeded synthetic dataset, as the plots see it.
fn field(spec: SynthesisSpec, var: &str) -> ImageData {
    let ds = spec.build();
    let slab = ds.variable(var).unwrap().time_slab(0).unwrap();
    translate_scalar(&slab, &TranslationOptions::default()).unwrap()
}

/// The isovalue an isosurface plot of `img` starts at.
fn default_isovalue(img: &ImageData) -> f32 {
    IsosurfacePlot::new(img.clone(), None, None).unwrap().isovalue
}

#[test]
fn fig3_coloured_isosurface_matches_the_weld() {
    let spec = || SynthesisSpec::new(1, 6, 24, 48);
    let (ta, hus) = (field(spec(), "ta"), field(spec(), "hus"));
    let value = default_isovalue(&ta);
    let got = isosurface_colored(&ta, value, &hus).unwrap();
    assert!(!got.triangles.is_empty());
    assert_bit_identical(&got, &reference(&ta, value, Some(&hus)), "Fig 3 fixture");
}

/// True when every edge of the mesh is shared by two triangles, except
/// edges with both ends on the grid's bounding box, which the surface
/// leaves through.
fn closed_inside(mesh: &PolyData, img: &ImageData) -> bool {
    let b = img.bounds();
    let on_box = |i: u32| {
        let p = mesh.points[i as usize];
        [(p.x, b.min.x, b.max.x), (p.y, b.min.y, b.max.y), (p.z, b.min.z, b.max.z)]
            .iter()
            .any(|&(v, lo, hi)| v == lo || v == hi)
    };
    let mut uses: HashMap<(u32, u32), u32> = HashMap::new();
    for t in &mesh.triangles {
        for (a, c) in [(t[0], t[1]), (t[1], t[2]), (t[2], t[0])] {
            *uses.entry((a.min(c), a.max(c))).or_default() += 1;
        }
    }
    uses.iter().all(|(&(a, c), &n)| n == 2 || (n == 1 && on_box(a) && on_box(c)))
}

#[test]
fn benchmark_field_differs_from_the_weld_by_one_cross_edge_merge() {
    let img = field(SynthesisSpec::new(1, 8, 90, 180).seed(1), "ta");
    assert_eq!(img.dims, [180, 90, 8]);
    let value = default_isovalue(&img);
    let got = isosurface(&img, value).unwrap();
    let emitted = emit(&img, value, None);
    let (by_key, key_of) = merge_by_key(&emitted);
    assert_bit_identical(&got, &by_key, "benchmark field against the key merge");

    let mut welded = emitted.mesh.clone();
    let weld_of = weld(&mut welded, weld_tolerance(&img));
    assert_eq!(emitted.mesh.points.len(), 243_372);
    assert_eq!((welded.points.len(), welded.triangles.len()), (49_519, 97_138));
    assert_eq!((got.points.len(), got.triangles.len()), (49_520, 97_140));

    // every welded vertex holds its first emission, which is also the
    // first emission of that emission's key: the same bits
    let mut first = vec![None; welded.points.len()];
    for (i, &w) in weld_of.iter().enumerate() {
        first[w as usize].get_or_insert(i);
    }
    let bits = |pd: &PolyData, v: u32| {
        let (p, n) = (pd.points[v as usize], pd.normals.as_ref().unwrap()[v as usize]);
        let s = pd.scalars.as_ref().unwrap()[v as usize];
        [p.x, p.y, p.z, n.x, n.y, n.z, f64::from(s)].map(f64::to_bits)
    };
    for (w, i) in first.iter().enumerate() {
        let i = i.unwrap();
        assert_eq!(bits(&welded, w as u32), bits(&got, key_of[i]), "vertex {w}");
    }

    // the triangles: the weld's, in order, plus two slivers each spanning
    // the two edges it merged
    let merged = [Key::Edge([68, 83, 2], [68, 84, 3]), Key::Edge([67, 83, 2], [68, 84, 3])];
    let degenerate = |t: [u32; 3]| t[0] == t[1] || t[1] == t[2] || t[0] == t[2];
    let (mut kept, mut slivers) = (Vec::new(), 0);
    for t in &emitted.mesh.triangles {
        let by_key = t.map(|i| key_of[i as usize]);
        let by_weld = t.map(|i| weld_of[i as usize]);
        match (degenerate(by_key), degenerate(by_weld)) {
            (false, false) => kept.push(by_weld),
            (false, true) => {
                let keys = t.map(|i| emitted.keys[i as usize]);
                assert!(merged.iter().all(|m| keys.contains(m)), "unexpected sliver {keys:?}");
                slivers += 1;
            }
            (true, false) => panic!("the key merge collapsed a triangle the weld kept"),
            (true, true) => {}
        }
    }
    assert_eq!(slivers, 2);
    assert_eq!(kept, welded.triangles);
    assert!(closed_inside(&got, &img), "the edge-keyed surface must be closed inside the grid");
}
