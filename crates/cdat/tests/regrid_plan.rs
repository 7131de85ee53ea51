//! Plan/apply regridding vs the pre-split direct implementations.
//!
//! `reference_bilinear` / `reference_conservative` below are verbatim
//! copies of the stencil-per-call implementations that `cdat::regrid`
//! shipped before the CSR plan/apply engine replaced them. The property
//! tests check that planning + applying reproduces them (masks exactly,
//! values within a relative 1e-6 — the slack is one f32 ulp from summing
//! the same products in a different order), plus cache behaviour:
//! fingerprint collisions-by-construction, LRU eviction, and
//! cross-variable plan reuse.

// The reference copies must stay verbatim, pre-split idiom included.
#![allow(clippy::needless_range_loop, clippy::manual_is_multiple_of)]

use cdat::plan_cache::{self, SharedPlanCache};
use cdat::regrid;
use cdat::regrid_plan::{plan_key, RegridMethod, RegridPlan};
use cdms::axis::AxisKind;
use cdms::grid::axes_fingerprint;
use cdms::synth::SynthesisSpec;
use cdms::{Axis, MaskedArray, RectGrid, Result, Variable};
use proptest::prelude::*;
use std::sync::Arc;

// ---------------------------------------------------------------------------
// Reference implementations (pre-split direct regridders, copied verbatim)
// ---------------------------------------------------------------------------

fn horizontal_axes(var: &Variable) -> (usize, usize) {
    let lat = var.axis_index(AxisKind::Latitude).unwrap();
    let lon = var.axis_index(AxisKind::Longitude).unwrap();
    assert!(lon == var.rank() - 1 && lat == var.rank() - 2);
    (lat, lon)
}

fn normalize_lon(lam: f64, base: f64) -> f64 {
    let mut l = (lam - base).rem_euclid(360.0) + base;
    if l < base {
        l += 360.0;
    }
    l
}

fn order(a: f64, b: f64) -> (f64, f64) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

fn reference_bilinear(var: &Variable, target: &RectGrid) -> Result<Variable> {
    let (lat_i, lon_i) = horizontal_axes(var);
    let src_lat = &var.axes[lat_i];
    let src_lon = &var.axes[lon_i];
    let (ny_s, nx_s) = (src_lat.len(), src_lon.len());
    let (ny_t, nx_t) = target.shape();
    let wrap = src_lon.is_circular();

    let lat_stencil: Vec<(usize, f64)> =
        target.lat.values.iter().map(|&phi| src_lat.fractional_index(phi)).collect();
    let lon_stencil: Vec<(usize, usize, f64)> = target
        .lon
        .values
        .iter()
        .map(|&lam| {
            if wrap {
                let lam_n = normalize_lon(lam, src_lon.values[0]);
                let span = 360.0 / nx_s as f64;
                let mut i0 = 0usize;
                let mut frac = 0.0f64;
                let mut found = false;
                for i in 0..nx_s {
                    let a = src_lon.values[i];
                    let b = if i + 1 < nx_s {
                        src_lon.values[i + 1]
                    } else {
                        src_lon.values[0] + 360.0
                    };
                    if lam_n >= a - 1e-9 && lam_n <= b + 1e-9 && (b - a).abs() < 2.0 * span {
                        i0 = i;
                        frac = ((lam_n - a) / (b - a)).clamp(0.0, 1.0);
                        found = true;
                        break;
                    }
                }
                if !found {
                    let (i, f) = src_lon.fractional_index(lam_n);
                    (i, (i + 1).min(nx_s - 1), f)
                } else {
                    (i0, (i0 + 1) % nx_s, frac)
                }
            } else {
                let (i, f) = src_lon.fractional_index(lam);
                (i, (i + 1).min(nx_s - 1), f)
            }
        })
        .collect();

    let leading: usize = var.shape()[..lat_i].iter().product();
    let src_plane = ny_s * nx_s;
    let dst_plane = ny_t * nx_t;
    let mut data = vec![0.0f32; leading * dst_plane];
    let mut mask = vec![false; leading * dst_plane];

    for l in 0..leading {
        let src_off = l * src_plane;
        let dst_off = l * dst_plane;
        for (jt, &(j0, fy)) in lat_stencil.iter().enumerate() {
            let j1 = (j0 + 1).min(ny_s - 1);
            for (it, &(i0, i1, fx)) in lon_stencil.iter().enumerate() {
                let idx = |j: usize, i: usize| src_off + j * nx_s + i;
                let corners = [idx(j0, i0), idx(j0, i1), idx(j1, i0), idx(j1, i1)];
                let dst = dst_off + jt * nx_t + it;
                if corners.iter().any(|&c| var.array.mask()[c]) {
                    mask[dst] = true;
                    continue;
                }
                let d = var.array.data();
                let v0 = d[corners[0]] as f64 * (1.0 - fx) + d[corners[1]] as f64 * fx;
                let v1 = d[corners[2]] as f64 * (1.0 - fx) + d[corners[3]] as f64 * fx;
                data[dst] = (v0 * (1.0 - fy) + v1 * fy) as f32;
            }
        }
    }

    let mut out_shape = var.shape()[..lat_i].to_vec();
    out_shape.push(ny_t);
    out_shape.push(nx_t);
    let array = MaskedArray::with_mask(data, mask, &out_shape)?;
    let mut axes = var.axes[..lat_i].to_vec();
    axes.push(target.lat.clone());
    axes.push(target.lon.clone());
    Variable::new(&var.id, array, axes)
}

fn reference_conservative(var: &Variable, target: &RectGrid) -> Result<Variable> {
    let (lat_i, lon_i) = horizontal_axes(var);
    let mut src_lat = var.axes[lat_i].clone();
    let mut src_lon = var.axes[lon_i].clone();
    let slat_b = src_lat.bounds_or_gen();
    let slon_b = src_lon.bounds_or_gen();
    let tlat_b = target.lat.clone().bounds_or_gen();
    let tlon_b = target.lon.clone().bounds_or_gen();
    let (ny_s, nx_s) = (src_lat.len(), src_lon.len());
    let (ny_t, nx_t) = target.shape();

    let overlap_lat: Vec<Vec<(usize, f64)>> = tlat_b
        .iter()
        .map(|&(lo_t, hi_t)| {
            let (lo_t, hi_t) = order(lo_t, hi_t);
            let mut v = Vec::new();
            for (j, &(lo_s, hi_s)) in slat_b.iter().enumerate() {
                let (lo_s, hi_s) = order(lo_s, hi_s);
                let lo = lo_t.max(lo_s);
                let hi = hi_t.min(hi_s);
                if hi > lo {
                    let w = hi.to_radians().sin() - lo.to_radians().sin();
                    if w > 0.0 {
                        v.push((j, w));
                    }
                }
            }
            v
        })
        .collect();
    let overlap_lon: Vec<Vec<(usize, f64)>> = tlon_b
        .iter()
        .map(|&(lo_t, hi_t)| {
            let (lo_t, hi_t) = order(lo_t, hi_t);
            let mut v = Vec::new();
            for (i, &(lo_s, hi_s)) in slon_b.iter().enumerate() {
                let (lo_s, hi_s) = order(lo_s, hi_s);
                for shift in [-360.0, 0.0, 360.0] {
                    let lo = lo_t.max(lo_s + shift);
                    let hi = hi_t.min(hi_s + shift);
                    if hi > lo {
                        v.push((i, hi - lo));
                    }
                }
            }
            v
        })
        .collect();

    let leading: usize = var.shape()[..lat_i].iter().product();
    let src_plane = ny_s * nx_s;
    let dst_plane = ny_t * nx_t;
    let mut data = vec![0.0f32; leading * dst_plane];
    let mut mask = vec![false; leading * dst_plane];

    for l in 0..leading {
        let src_off = l * src_plane;
        let dst_off = l * dst_plane;
        for jt in 0..ny_t {
            for it in 0..nx_t {
                let mut wsum = 0.0f64;
                let mut vsum = 0.0f64;
                for &(js, wy) in &overlap_lat[jt] {
                    for &(is, wx) in &overlap_lon[it] {
                        let src = src_off + js * nx_s + is;
                        if !var.array.mask()[src] {
                            let w = wy * wx;
                            wsum += w;
                            vsum += w * var.array.data()[src] as f64;
                        }
                    }
                }
                let dst = dst_off + jt * nx_t + it;
                if wsum > 0.0 {
                    data[dst] = (vsum / wsum) as f32;
                } else {
                    mask[dst] = true;
                }
            }
        }
    }

    let mut out_shape = var.shape()[..lat_i].to_vec();
    out_shape.push(ny_t);
    out_shape.push(nx_t);
    let array = MaskedArray::with_mask(data, mask, &out_shape)?;
    let mut axes = var.axes[..lat_i].to_vec();
    axes.push(target.lat.clone());
    axes.push(target.lon.clone());
    Variable::new(&var.id, array, axes)
}

// ---------------------------------------------------------------------------
// Helpers
// ---------------------------------------------------------------------------

/// Same masks everywhere; unmasked values within `rel_tol` relative.
fn assert_vars_match(got: &Variable, want: &Variable, rel_tol: f64) {
    assert_eq!(got.shape(), want.shape());
    let (gd, gm) = (got.array.data(), got.array.mask());
    let (wd, wm) = (want.array.data(), want.array.mask());
    for i in 0..gd.len() {
        assert_eq!(gm[i], wm[i], "mask mismatch at flat index {i}");
        if !gm[i] {
            let (a, b) = (gd[i] as f64, wd[i] as f64);
            let tol = rel_tol * a.abs().max(b.abs()).max(1.0);
            assert!((a - b).abs() <= tol, "value mismatch at {i}: {a} vs {b}");
        }
    }
}

/// A smooth 2-plane (time × lat × lon) field with a deterministic mask
/// pattern controlled by `mask_mod` (0 = unmasked).
fn field(ny: usize, nx: usize, amp: f64, freq: f64, mask_mod: usize) -> Variable {
    let grid = RectGrid::uniform(ny, nx).unwrap();
    let nt = 2usize;
    let mut data = Vec::with_capacity(nt * ny * nx);
    let mut mask = Vec::with_capacity(nt * ny * nx);
    for t in 0..nt {
        for j in 0..ny {
            for i in 0..nx {
                let phi = grid.lat.values[j].to_radians();
                let lam = grid.lon.values[i].to_radians();
                data.push(
                    (10.0 + amp * (freq * lam).sin() * phi.cos()
                        + 0.5 * t as f64
                        + 2.0 * (2.0 * phi).sin()) as f32,
                );
                mask.push(mask_mod != 0 && (t + j * nx + i) % mask_mod == 0);
            }
        }
    }
    let arr = MaskedArray::with_mask(data, mask, &[nt, ny, nx]).unwrap();
    let time = Axis::linspace("time", 0.0, 1.0, nt, "days since 2000-1-1").unwrap();
    Variable::new("f", arr, vec![time, grid.lat.clone(), grid.lon.clone()]).unwrap()
}

fn plan_apply(var: &Variable, target: &RectGrid, method: RegridMethod) -> Variable {
    let (lat_i, lon_i) = (var.rank() - 2, var.rank() - 1);
    let plan = RegridPlan::build(method, &var.axes[lat_i], &var.axes[lon_i], target).unwrap();
    plan.apply(var).unwrap()
}

// ---------------------------------------------------------------------------
// Property tests: plan+apply ≡ direct implementation
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Bilinear plan+apply matches the pre-split direct implementation:
    /// identical masks, values within a relative 1e-6, on arbitrary
    /// grid-pair shapes and mask densities.
    #[test]
    fn bilinear_plan_apply_matches_direct(
        src_n in 4usize..16,
        dst_n in 3usize..20,
        amp in 0.5f64..8.0,
        freq in 1.0f64..4.0,
        mask_mod in 0usize..9,
    ) {
        let v = field(src_n, src_n * 2, amp, freq, mask_mod);
        let dst = RectGrid::uniform(dst_n, dst_n * 2).unwrap();
        let want = reference_bilinear(&v, &dst).unwrap();
        let got = plan_apply(&v, &dst, RegridMethod::Bilinear);
        assert_vars_match(&got, &want, 1e-6);
    }

    /// Conservative plan+apply matches the pre-split direct implementation
    /// under masks.
    #[test]
    fn conservative_plan_apply_matches_direct(
        src_n in 4usize..16,
        dst_n in 3usize..20,
        amp in 0.5f64..8.0,
        freq in 1.0f64..4.0,
        mask_mod in 0usize..9,
    ) {
        let v = field(src_n, src_n * 2, amp, freq, mask_mod);
        let dst = RectGrid::uniform(dst_n, dst_n * 2).unwrap();
        let want = reference_conservative(&v, &dst).unwrap();
        let got = plan_apply(&v, &dst, RegridMethod::Conservative);
        assert_vars_match(&got, &want, 1e-6);
    }

    /// Renormalizing conservative remapping is exact for constant fields
    /// whatever the mask pattern: every unmasked target cell reproduces the
    /// constant, so the valid-area global mean is conserved exactly.
    #[test]
    fn conservative_conserves_constant_fields_under_masks(
        src_n in 4usize..14,
        dst_n in 3usize..16,
        mask_mod in 2usize..7,
        value in -50.0f64..50.0,
    ) {
        let src = RectGrid::uniform(src_n, src_n * 2).unwrap();
        let n = src_n * src_n * 2;
        let mask: Vec<bool> = (0..n).map(|i| i % mask_mod == 0).collect();
        let arr = MaskedArray::with_mask(vec![value as f32; n], mask, &[src_n, src_n * 2]).unwrap();
        let v = Variable::new("c", arr, vec![src.lat.clone(), src.lon.clone()]).unwrap();
        let dst = RectGrid::uniform(dst_n, dst_n * 2).unwrap();
        let r = plan_apply(&v, &dst, RegridMethod::Conservative);
        prop_assert!(r.array.valid_count() > 0);
        for (i, &m) in r.array.mask().iter().enumerate() {
            if !m {
                let got = r.array.data()[i] as f64;
                prop_assert!((got - value).abs() < 1e-4 * value.abs().max(1.0),
                    "cell {}: {} vs {}", i, got, value);
            }
        }
        let before = regrid::area_mean_2d(&v).unwrap();
        let after = regrid::area_mean_2d(&r).unwrap();
        prop_assert!((before - after).abs() < 1e-4 * before.abs().max(1.0));
    }
}

/// Conservative regridding of a smooth masked field still conserves the
/// valid-area global mean to first order (renormalization shifts weight
/// only at mask boundaries).
#[test]
fn conservative_conserves_global_mean_under_masks() {
    let v = field(24, 48, 5.0, 2.0, 5).time_slab(0).unwrap();
    assert!(v.array.valid_count() < v.array.len(), "field must actually be masked");
    let before = regrid::area_mean_2d(&v).unwrap();
    for (nlat, nlon) in [(12, 24), (10, 20), (32, 64)] {
        let dst = RectGrid::uniform(nlat, nlon).unwrap();
        let r = plan_apply(&v, &dst, RegridMethod::Conservative);
        let after = regrid::area_mean_2d(&r).unwrap();
        assert!(
            (before - after).abs() < 0.02 * before.abs().max(1.0),
            "{nlat}x{nlon}: {before} vs {after}"
        );
        // and the plan must agree with the direct reference exactly
        assert_vars_match(&r, &reference_conservative(&v, &dst).unwrap(), 1e-6);
    }
}

// ---------------------------------------------------------------------------
// Cache behaviour
// ---------------------------------------------------------------------------

/// Grid pairs engineered to collide under a naive "hash the concatenated
/// values" fingerprint must get distinct plan keys.
#[test]
fn fingerprint_collisions_by_construction_get_distinct_keys() {
    // Same flattened stream [0, 10, 20, 30] split (2, 2) vs (1, 3).
    let lat_a = Axis::latitude(vec![0.0, 10.0]).unwrap();
    let lon_a = Axis::longitude(vec![20.0, 30.0]).unwrap();
    let lat_b = Axis::latitude(vec![0.0]).unwrap();
    let lon_b = Axis::longitude(vec![10.0, 20.0, 30.0]).unwrap();
    let dst = RectGrid::uniform(3, 6).unwrap();
    assert_ne!(axes_fingerprint(&lat_a, &lon_a), axes_fingerprint(&lat_b, &lon_b));
    let key_a = plan_key(axes_fingerprint(&lat_a, &lon_a), dst.fingerprint(), RegridMethod::Bilinear);
    let key_b = plan_key(axes_fingerprint(&lat_b, &lon_b), dst.fingerprint(), RegridMethod::Bilinear);
    assert_ne!(key_a, key_b, "colliding keys would serve the wrong cached plan");

    // Same geometry, different method → distinct keys too.
    let key_c = plan_key(axes_fingerprint(&lat_a, &lon_a), dst.fingerprint(), RegridMethod::Conservative);
    assert_ne!(key_a, key_c);

    // Same centres, different bounds (conservative weights differ).
    let mut lat_wide = Axis::latitude(vec![-30.0, 30.0]).unwrap();
    lat_wide.bounds = Some(vec![(-60.0, 0.0), (0.0, 60.0)]);
    let mut lat_narrow = Axis::latitude(vec![-30.0, 30.0]).unwrap();
    lat_narrow.bounds = Some(vec![(-40.0, -20.0), (20.0, 40.0)]);
    let lon = Axis::longitude(vec![0.0, 180.0]).unwrap();
    assert_ne!(axes_fingerprint(&lat_wide, &lon), axes_fingerprint(&lat_narrow, &lon));

    // And the cache actually treats them as distinct entries.
    let cache = SharedPlanCache::new(8);
    cache.get_or_build(key_a, || RegridPlan::bilinear(&lat_a, &lon_a, &dst)).unwrap();
    cache.get_or_build(key_b, || RegridPlan::bilinear(&lat_b, &lon_b, &dst)).unwrap();
    assert_eq!(cache.len(), 2);
    assert_eq!(cache.stats().misses, 2);
    assert_eq!(cache.stats().hits, 0);
}

/// A capacity-bounded cache evicts the least recently used plan and
/// counts it.
#[test]
fn lru_eviction_with_real_plans() {
    let src = RectGrid::uniform(8, 16).unwrap();
    let targets: Vec<RectGrid> =
        (3..7).map(|n| RectGrid::uniform(n, 2 * n).unwrap()).collect();
    let keys: Vec<u64> = targets
        .iter()
        .map(|t| plan_key(src.fingerprint(), t.fingerprint(), RegridMethod::Conservative))
        .collect();
    let cache = SharedPlanCache::new(2);
    for (k, t) in keys.iter().zip(&targets).take(3) {
        cache
            .get_or_build(*k, || RegridPlan::conservative(&src.lat, &src.lon, t))
            .unwrap();
    }
    assert_eq!(cache.len(), 2);
    assert_eq!(cache.stats().evictions, 1);
    // oldest key was evicted → rebuilding it is a miss
    assert!(cache.get(keys[0]).is_none());
    // the two most recent are still resident
    assert!(cache.get(keys[1]).is_some());
    assert!(cache.get(keys[2]).is_some());
}

/// Two different variables on the same grid pair share one plan: the
/// second regrid is a pure cache hit, and both results match their direct
/// references.
#[test]
fn cross_variable_plan_reuse() {
    let ds = SynthesisSpec::new(3, 2, 16, 32).seed(7).build();
    let ta = ds.variable("ta").unwrap();
    let ua = ds.variable("ua").unwrap();
    // odd target shape → the key is unique to this test even when the
    // whole suite shares the global cache
    let dst = RectGrid::uniform(11, 23).unwrap();

    let before = plan_cache::global_stats();
    let ta_lo = regrid::bilinear(ta, &dst).unwrap();
    let mid = plan_cache::global_stats();
    let ua_lo = regrid::bilinear(ua, &dst).unwrap();
    let after = plan_cache::global_stats();

    assert!(mid.hits + mid.misses > before.hits + before.misses);
    assert!(after.hits > mid.hits, "second variable must hit the first variable's plan");
    assert_vars_match(&ta_lo, &reference_bilinear(ta, &dst).unwrap(), 1e-6);
    assert_vars_match(&ua_lo, &reference_bilinear(ua, &dst).unwrap(), 1e-6);

    // the shared plan is literally the same allocation
    let key = plan_key(
        axes_fingerprint(&ta.axes[ta.rank() - 2], &ta.axes[ta.rank() - 1]),
        dst.fingerprint(),
        RegridMethod::Bilinear,
    );
    let p1 = plan_cache::shared_global().get(key).unwrap();
    let p2 = plan_cache::shared_global().get(key).unwrap();
    assert!(Arc::ptr_eq(&p1, &p2));
}
