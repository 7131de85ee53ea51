//! Property-based tests on cross-crate invariants (proptest).

#[path = "../crates/rvtk/tests/support/iso_reference.rs"]
#[allow(dead_code, reason = "the properties use the old march and its key merge, not the weld")]
mod iso_reference;

use iso_reference::{emit, merge_by_key};
use proptest::prelude::*;
use uvcdat::cdat::regrid;
use uvcdat::cdms::array::{MaskedArray, Reduction};
use uvcdat::cdms::calendar::{Calendar, RelTime};
use uvcdat::cdms::format;
use uvcdat::cdms::{Axis, Dataset, RectGrid, Variable};
use uvcdat::rvtk::filters::isosurface;
use uvcdat::rvtk::math::Vec3;
use uvcdat::rvtk::{ImageData, PolyData};
use uvcdat::vistrails::provenance::{Action, Vistrail};
use uvcdat::vistrails::value::ParamValue;

/// The edges of `surf` not shared by exactly two triangles, by their end
/// points.
fn unpaired_edges(surf: &PolyData) -> Vec<(Vec3, Vec3)> {
    let mut uses = std::collections::BTreeMap::new();
    for t in &surf.triangles {
        for (a, b) in [(t[0], t[1]), (t[1], t[2]), (t[2], t[0])] {
            *uses.entry((a.min(b), a.max(b))).or_insert(0) += 1;
        }
    }
    uses.into_iter()
        .filter(|&(_, n)| n != 2)
        .map(|((a, b), _)| (surf.points[a as usize], surf.points[b as usize]))
        .collect()
}

/// A mesh as bits: points, normals, scalars and triangles, in order.
type MeshBits = (Vec<[u64; 3]>, Vec<[u64; 3]>, Vec<u32>, Vec<[u32; 3]>);

fn mesh_bits(surf: &PolyData) -> MeshBits {
    let vec_bits = |v: &[Vec3]| v.iter().map(|p| [p.x, p.y, p.z].map(f64::to_bits)).collect();
    (
        vec_bits(&surf.points),
        vec_bits(surf.normals.as_deref().unwrap_or_default()),
        surf.scalars.iter().flatten().map(|s| s.to_bits()).collect(),
        surf.triangles.clone(),
    )
}

/// Strategy: a small masked array with arbitrary data and mask.
fn masked_array(max_len: usize) -> impl Strategy<Value = MaskedArray> {
    (1..=max_len).prop_flat_map(|n| {
        (
            proptest::collection::vec(-1e6f32..1e6f32, n),
            proptest::collection::vec(any::<bool>(), n),
        )
            .prop_map(move |(data, mask)| {
                MaskedArray::with_mask(data, mask, &[n]).unwrap()
            })
    })
}

/// Strategy: a pair of masked arrays of the *same* length.
fn masked_pair(max_len: usize) -> impl Strategy<Value = (MaskedArray, MaskedArray)> {
    (1..=max_len).prop_flat_map(|n| {
        let one = move || {
            (
                proptest::collection::vec(-1e6f32..1e6f32, n),
                proptest::collection::vec(any::<bool>(), n),
            )
                .prop_map(move |(data, mask)| {
                    MaskedArray::with_mask(data, mask, &[n]).unwrap()
                })
        };
        (one(), one())
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// a + b == b + a with identical masks.
    #[test]
    fn masked_add_commutes((a, b) in masked_pair(64)) {
        let ab = a.add(&b).unwrap();
        let ba = b.add(&a).unwrap();
        prop_assert_eq!(ab.mask(), ba.mask());
        for i in 0..ab.len() {
            prop_assert!((ab.data()[i] - ba.data()[i]).abs() <= f32::EPSILON * ab.data()[i].abs().max(1.0));
        }
    }

    /// The output mask of a binary op is exactly the OR of input masks.
    #[test]
    fn mask_propagation_is_union((a, b) in masked_pair(48)) {
        let sum = a.add(&b).unwrap();
        for i in 0..sum.len() {
            prop_assert_eq!(sum.mask()[i], a.mask()[i] || b.mask()[i]);
        }
    }

    /// Reductions never count masked elements.
    #[test]
    fn reduction_count_matches_mask(a in masked_array(64)) {
        let count = a.reduce_all(Reduction::Count).unwrap() as usize;
        prop_assert_eq!(count, a.valid_count());
        if count > 0 {
            let mn = a.reduce_all(Reduction::Min).unwrap();
            let mx = a.reduce_all(Reduction::Max).unwrap();
            let mean = a.reduce_all(Reduction::Mean).unwrap();
            prop_assert!(mn <= mx);
            prop_assert!(mean >= mn - 1e-3 && mean <= mx + 1e-3);
        }
    }

    /// Relative-time encode/decode round-trips under every calendar.
    #[test]
    fn calendar_roundtrip(value in -50_000.0f64..50_000.0, cal_i in 0usize..4) {
        let cal = [Calendar::Gregorian, Calendar::NoLeap365, Calendar::AllLeap366, Calendar::Day360][cal_i];
        let rel = RelTime::parse("hours since 1980-01-01").unwrap();
        let t = rel.decode(value, cal);
        let back = rel.encode(&t, cal);
        prop_assert!((back - value).abs() < 1e-4, "{} -> {} ({:?})", value, back, cal);
    }

    /// The .ncr format round-trips arbitrary 2D masked variables exactly.
    #[test]
    fn ncr_roundtrips_arbitrary_variables(
        ny in 1usize..6,
        nx in 1usize..6,
        seed_vals in proptest::collection::vec(-1e5f32..1e5f32, 36),
        seed_mask in proptest::collection::vec(any::<bool>(), 36),
    ) {
        let n = ny * nx;
        let data = seed_vals[..n].to_vec();
        let mask = seed_mask[..n].to_vec();
        let arr = MaskedArray::with_mask(data, mask, &[ny, nx]).unwrap();
        let lat = Axis::linspace("lat", -80.0, 80.0, ny, "degrees_north").unwrap();
        let lon = Axis::linspace("lon", 0.0, 300.0, nx, "degrees_east").unwrap();
        let var = Variable::new("v", arr, vec![lat, lon]).unwrap();
        let mut ds = Dataset::new("prop");
        ds.add_variable(var.clone());
        let bytes = format::to_bytes(&ds);
        let back = format::from_bytes(&bytes).unwrap();
        prop_assert_eq!(&back.variable("v").unwrap().array, &var.array);
    }

    /// Conservative regridding preserves the area-weighted mean for
    /// arbitrary smooth fields on arbitrary grid pairs.
    #[test]
    fn conservative_regrid_conserves(
        src_n in 6usize..20,
        dst_n in 6usize..20,
        a in -5.0f64..5.0,
        b in -5.0f64..5.0,
        c in 1.0f64..4.0,
    ) {
        let src = RectGrid::uniform(src_n, src_n * 2).unwrap();
        let arr = MaskedArray::from_fn(&[src_n, src_n * 2], |ix| {
            let phi = src.lat.values[ix[0]].to_radians();
            let lam = src.lon.values[ix[1]].to_radians();
            (10.0 + a * (c * lam).sin() * phi.cos() + b * (2.0 * phi).sin()) as f32
        });
        let v = Variable::new("f", arr, vec![src.lat.clone(), src.lon.clone()]).unwrap();
        let dst = RectGrid::uniform(dst_n, dst_n * 2).unwrap();
        let r = regrid::conservative(&v, &dst).unwrap();
        let before = regrid::area_mean_2d(&v).unwrap();
        let after = regrid::area_mean_2d(&r).unwrap();
        prop_assert!((before - after).abs() < 1e-3 * before.abs().max(1.0),
            "src {} dst {}: {} vs {}", src_n, dst_n, before, after);
    }

    /// Isosurfaces of radial fields are watertight for any centre/radius
    /// that stays inside the grid. With `on_grid` the centre is a grid
    /// point and the isovalue an integer, so vertices land exactly on grid
    /// points and the triangles between them collapse. A NaN voxel removes
    /// the cells around it: the surface may open there, and only there.
    #[test]
    fn isosurface_watertight(
        n in 8usize..18,
        radius_frac in 0.15f64..0.4,
        cx in 0.4f64..0.6,
        on_grid in any::<bool>(),
        nan in any::<bool>(),
        voxel in (0usize..64, 0usize..64, 0usize..64),
    ) {
        let c = (n - 1) as f64;
        let (mut px, mut py, mut pz) = (c * cx, c * 0.5, c * 0.5);
        let mut r = radius_frac * c;
        if on_grid {
            (px, py, pz, r) = (px.round(), py.round(), pz.round(), r.round().max(2.0));
        }
        let mut img = ImageData::from_fn([n, n, n], [1.0; 3], [0.0; 3], move |x, y, z| {
            (((x - px).powi(2) + (y - py).powi(2) + (z - pz).powi(2)) as f32).sqrt()
        });
        let hole = nan.then(|| Vec3::new((voxel.0 % n) as f64, (voxel.1 % n) as f64, (voxel.2 % n) as f64));
        if let Some(v) = hole {
            let at = img.index(v.x as usize, v.y as usize, v.z as usize);
            img.scalars[at] = f32::NAN;
        }
        let surf = isosurface(&img, r as f32).unwrap();
        prop_assert!(!surf.triangles.is_empty());
        match hole {
            None => prop_assert!(surf.is_closed_surface(), "n={} r={} on_grid={}", n, r, on_grid),
            Some(v) => {
                let near = |p: Vec3| {
                    let d = p - v;
                    d.x.abs().max(d.y.abs()).max(d.z.abs()) <= 1.0
                };
                for (a, b) in unpaired_edges(&surf) {
                    prop_assert!(near(a) && near(b), "n={} r={} open edge {:?}-{:?} far from NaN at {:?}", n, r, a, b, v);
                }
            }
        }
    }

    /// The isosurface is the same bits at every pool, and the same as the
    /// old march with its points merged by key: random small fields (2–12
    /// points per axis, so the cell rows of some split into two bands),
    /// values on a quarter-unit lattice, random NaN voxels, and half the
    /// time an isovalue equal to a grid value, where vertices land on grid
    /// points and triangles collapse.
    #[test]
    fn isosurface_is_bit_identical_at_every_pool(
        (nx, ny, nz) in (2usize..13, 2usize..13, 2usize..13),
        values in proptest::collection::vec(-16i32..16, 1728),
        nans in proptest::collection::vec(0usize..1728, 0..5),
        on_grid in any::<bool>(),
        pick in 0usize..1728,
        off_grid in -3.9f32..3.9,
    ) {
        let n = nx * ny * nz;
        let mut scalars: Vec<f32> = values[..n].iter().map(|&v| v as f32 * 0.25).collect();
        for &v in &nans {
            scalars[v % n] = f32::NAN;
        }
        let value = match (0..n).map(|i| scalars[(pick + i) % n]).find(|v| !v.is_nan()) {
            Some(v) if on_grid => v,
            _ => off_grid,
        };
        let img = ImageData::new([nx, ny, nz], [1.0, 0.5, 2.0], [0.0; 3], scalars).unwrap();
        let want = mesh_bits(&merge_by_key(&emit(&img, value, None)).0);
        for threads in [1, 2, 8] {
            let got = mesh_bits(&rayon::with_threads(threads, || isosurface(&img, value)).unwrap());
            prop_assert!(got == want, "{:?} at {} differs at {} threads", [nx, ny, nz], value, threads);
        }
    }

    /// Provenance materialization is a pure function of the action path:
    /// rebuilding the same tree yields identical pipelines at every version.
    #[test]
    fn provenance_replay_is_pure(params in proptest::collection::vec(-100i64..100, 1..12)) {
        let build = |params: &[i64]| {
            let mut vt = Vistrail::new("p");
            let mut head = Vistrail::ROOT;
            head = vt.add_action(head, Action::AddModule { id: 1, type_name: "m".into() }).unwrap();
            for (i, &v) in params.iter().enumerate() {
                head = vt.add_action(head, Action::SetParameter {
                    module: 1,
                    name: format!("p{i}"),
                    value: ParamValue::Int(v),
                }).unwrap();
            }
            (vt, head)
        };
        let (vt1, h1) = build(&params);
        let (vt2, h2) = build(&params);
        prop_assert_eq!(vt1.materialize(h1).unwrap(), vt2.materialize(h2).unwrap());
        // serde round-trip preserves materialization too
        let json = vt1.to_json().unwrap();
        let vt3 = Vistrail::from_json(&json).unwrap();
        prop_assert_eq!(vt3.materialize(h1).unwrap(), vt1.materialize(h1).unwrap());
    }

    /// Axis coordinate subsetting returns exactly the in-range points.
    #[test]
    fn axis_subset_selects_in_range(
        n in 2usize..40,
        lo in -90.0f64..90.0,
        hi in -90.0f64..90.0,
    ) {
        let ax = Axis::linspace("lat", -90.0, 90.0, n, "degrees_north").unwrap();
        match ax.index_range(lo, hi) {
            Ok((a, b)) => {
                let (lo, hi) = if lo <= hi { (lo, hi) } else { (hi, lo) };
                for (i, &v) in ax.values.iter().enumerate() {
                    let inside = v >= lo - 1e-9 && v <= hi + 1e-9;
                    prop_assert_eq!(inside, (a..b).contains(&i));
                }
            }
            Err(_) => {
                let (lo, hi) = if lo <= hi { (lo, hi) } else { (hi, lo) };
                prop_assert!(ax.values.iter().all(|&v| v < lo || v > hi));
            }
        }
    }

    /// The calculator agrees with direct f64 arithmetic on scalar
    /// expressions of arbitrary shape.
    #[test]
    fn calculator_scalar_arithmetic_is_sound(
        a in -1e3f64..1e3,
        b in -1e3f64..1e3,
        c in 1.0f64..1e3,
    ) {
        let mut ds = uvcdat::cdms::Dataset::new("empty");
        let expr = format!("({a} + {b}) * {c} - {b} / {c}");
        let got = uvcdat::dv3d::calculator::evaluate(&mut ds, &expr)
            .unwrap()
            .as_scalar()
            .unwrap();
        let want = (a + b) * c - b / c;
        prop_assert!((got - want).abs() <= 1e-9 * want.abs().max(1.0), "{} vs {}", got, want);
    }

    /// Variable identities hold through the calculator: (x + k) - k == x.
    #[test]
    fn calculator_variable_roundtrip(k in -1e3f32..1e3) {
        let mut ds = uvcdat::cdms::synth::SynthesisSpec::new(1, 1, 4, 8).build();
        let expr = format!("y = (pr + {k}) - {k}");
        uvcdat::dv3d::calculator::evaluate(&mut ds, &expr).unwrap();
        let y = ds.variable("y").unwrap();
        let pr = ds.variable("pr").unwrap();
        for i in 0..y.array.len() {
            let err = (y.array.data()[i] - pr.array.data()[i]).abs();
            prop_assert!(err <= 1e-2 + 1e-4 * pr.array.data()[i].abs().max(k.abs()), "{}", err);
        }
    }

    /// Bilinear regridding is exact for fields linear in latitude.
    #[test]
    fn bilinear_exact_on_linear_fields(src_n in 6usize..24, dst_n in 4usize..20) {
        let src = RectGrid::uniform(src_n, src_n).unwrap();
        let arr = MaskedArray::from_fn(&[src_n, src_n], |ix| src.lat.values[ix[0]] as f32);
        let v = Variable::new("f", arr, vec![src.lat.clone(), src.lon.clone()]).unwrap();
        let dst = RectGrid::uniform(dst_n, dst_n).unwrap();
        let r = regrid::bilinear(&v, &dst).unwrap();
        // interior target latitudes (within the source's coverage)
        let (src_lo, src_hi) = src.lat.range();
        for (j, &phi) in dst.lat.values.iter().enumerate() {
            if phi > src_lo && phi < src_hi {
                let got = r.array.get(&[j, 0]).unwrap() as f64;
                prop_assert!((got - phi).abs() < 1e-3, "lat {}: got {}", phi, got);
            }
        }
    }
}
