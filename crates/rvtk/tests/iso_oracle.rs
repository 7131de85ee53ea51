//! The isosurface oracle. `rvtk::filters::isosurface` names each vertex by
//! the lattice edge it lies on (or the grid point it lands on) and
//! interpolates it once. The extractor it replaced interpolated an edge
//! for every tetrahedron using it and then welded coincident points by
//! rounded coordinates; `support/iso_reference.rs` keeps that one.
//!
//! On each field here the weld merged exactly the points that share a key,
//! so the two must agree bit for bit — points, normals, scalars and
//! triangles, in order — at pools of 1, 2 and 8 threads. The fields cover
//! NaN holes, a NaN plane right under a slab boundary (where the upper
//! slab owns the edges of the plane it shares with the lower one), and an
//! integer field cut at grid values, where vertices land on grid points
//! and triangles collapse. The root package's `tests/iso_oracle.rs` holds
//! the Fig 3 fixture and the benchmark's field, the one place the weld
//! merged two distinct edges.

#[path = "support/iso_reference.rs"]
mod iso_reference;

use iso_reference::{assert_bit_identical, emit, merge_by_key, reference, Key};
use rayon::with_threads;
use rvtk::filters::{isosurface, isosurface_colored};
use rvtk::ImageData;

/// Checks that the weld merged exactly the emitted points that share a
/// key, and the extractor against the reference at 1, 2 and 8 threads;
/// returns the vertex count.
fn check(img: &ImageData, value: f32, color: Option<&ImageData>, case: &str) -> usize {
    let want = reference(img, value, color);
    let (by_key, _) = merge_by_key(&emit(img, value, color));
    assert_bit_identical(&by_key, &want, &format!("{case}: weld against key merge"));
    for threads in [1, 2, 8] {
        let got = with_threads(threads, || match color {
            Some(c) => isosurface_colored(img, value, c),
            None => isosurface(img, value),
        })
        .unwrap();
        assert_bit_identical(&got, &want, &format!("{case} at {threads} threads"));
    }
    want.points.len()
}

fn sphere_field(n: usize) -> ImageData {
    let c = (n - 1) as f64 / 2.0;
    ImageData::from_fn([n, n, n], [1.0; 3], [0.0; 3], move |x, y, z| {
        (((x - c).powi(2) + (y - c).powi(2) + (z - c).powi(2)) as f32).sqrt()
    })
}

fn set_nan(img: &mut ImageData, i: usize, j: usize, k: usize) {
    let at = img.index(i, j, k);
    img.scalars[at] = f32::NAN;
}

#[test]
fn sphere_fields_match_the_weld() {
    let mut holed = sphere_field(20);
    set_nan(&mut holed, 2, 3, 4);
    for value in [6.0, 2.0, 8.5] {
        check(&holed, value, None, &format!("20³ sphere with a NaN at {value}"));
    }
    check(&sphere_field(24), 7.0, None, "24³ sphere");
    let mut cornered = sphere_field(16);
    set_nan(&mut cornered, 0, 0, 0);
    check(&cornered, 5.0, None, "16³ sphere with a NaN corner");
    let spaced = ImageData::from_fn([8, 8, 8], [2.0; 3], [100.0, 0.0, 0.0], |x, y, z| {
        (((x - 3.5).powi(2) + (y - 3.5).powi(2) + (z - 3.5).powi(2)) as f32).sqrt()
    });
    check(&spaced, 2.0, None, "offset, spaced sphere");
}

#[test]
fn gyroid_matches_the_weld() {
    // the field of `tile_identity.rs`' large frame
    let wave = |t: f64| 4.0 * (t / 14.0 - (t / 14.0 + 0.5).floor()).abs() - 1.0;
    let field = ImageData::from_fn([36, 36, 36], [1.0; 3], [0.0; 3], |x, y, z| {
        (wave(x) * wave(y + 3.5) + wave(y) * wave(z + 3.5) + wave(z) * wave(x + 3.5)) as f32
    });
    assert_eq!(check(&field, 0.05, None, "gyroid"), 44_350);
}

#[test]
fn colored_surface_matches_the_weld() {
    let img = sphere_field(16);
    let color = ImageData::from_fn([16, 16, 16], [1.0; 3], [0.0; 3], |x, y, z| {
        if x + y < 4.0 {
            f32::NAN
        } else {
            (z * 0.5 - y) as f32
        }
    });
    check(&img, 5.0, Some(&color), "sphere coloured by a second field");
}

#[test]
fn nan_plane_under_a_slab_boundary_hands_the_plane_to_the_upper_slab() {
    // NaN over half of plane k = 6: slabs 5 and 6 skip every cell there, so
    // in that half the edges of plane 7 are reached first by slab 7, the
    // slab above the boundary they lie on
    let n = 16;
    let mut img = sphere_field(n);
    for j in 0..n {
        for i in 0..n / 2 {
            set_nan(&mut img, i, j, 6);
        }
    }
    let keys = emit(&img, 6.0, None).keys;
    let upper_owned = keys.iter().any(|key| match *key {
        Key::Edge([i, _, 7], [_, _, 7]) => i < n / 2,
        _ => false,
    });
    assert!(upper_owned, "the surface must cross plane 7 beside the NaN plane");
    check(&img, 6.0, None, "NaN half-plane under plane 7");
}

#[test]
fn integer_field_cut_at_grid_values_keys_vertices_by_grid_point() {
    // every grid value is an integer, so cutting at one puts vertices on
    // grid points (t = 0) that several edges share, and collapses the
    // triangles between them
    let img = ImageData::from_fn([9, 8, 7], [1.0; 3], [0.0; 3], |x, y, z| (x + 2.0 * y - z) as f32);
    let ramp = ImageData::from_fn([7, 7, 7], [1.0; 3], [0.0; 3], |x, _, _| x as f32);
    for (field, value) in [(&img, 5.0), (&img, 0.0), (&img, 11.0), (&ramp, 3.0)] {
        let emitted = emit(field, value, None);
        assert!(emitted.keys.iter().any(|k| matches!(k, Key::Point(_))), "no grid-point vertex at {value}");
        let want = reference(field, value, None);
        assert!(want.triangles.len() < emitted.mesh.triangles.len(), "nothing collapsed at {value}");
        check(field, value, None, &format!("integer field at {value}"));
    }
}
