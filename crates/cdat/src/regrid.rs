//! Regridding: horizontal bilinear and conservative remapping between
//! rectilinear grids, plus vertical interpolation to new pressure levels —
//! the `regrid2` / `vertical` equivalents.
//!
//! The horizontal paths are thin wrappers over the plan/apply engine in
//! [`crate::regrid_plan`]: the sparse weight matrix for a `(source grid,
//! target grid, method)` triple is planned once, cached in the
//! process-global [`crate::plan_cache`], and re-applied as a parallel
//! sparse mat-vec — so animations and spreadsheet cells that regrid the
//! same grid pair every timestep only pay the apply cost.

use crate::plan_cache;
use crate::regrid_plan::{horizontal_axes, plan_key, RegridMethod, RegridPlan};
use cdms::grid::{axes_fingerprint, RectGrid};
use cdms::axis::AxisKind;
use cdms::{CdmsError, MaskedArray, Result, Variable};
use std::sync::Arc;

/// The plan taking `var`'s horizontal grid onto `target`, built at most
/// once per `(source grid, target grid, method)` through the global plan
/// cache.
fn cached_plan(
    var: &Variable,
    target: &RectGrid,
    method: RegridMethod,
) -> Result<Arc<RegridPlan>> {
    let (lat_i, lon_i) = horizontal_axes(var)?;
    let (src_lat, src_lon) = match (var.axes.get(lat_i), var.axes.get(lon_i)) {
        (Some(a), Some(b)) => (a, b),
        _ => return Err(CdmsError::Invalid("horizontal axes out of range".into())),
    };
    let key = plan_key(axes_fingerprint(src_lat, src_lon), target.fingerprint(), method);
    plan_cache::shared_global()
        .get_or_build(key, || RegridPlan::build(method, src_lat, src_lon, target))
}

/// Regrids `var` onto `target` with `method`, planning through the global
/// plan cache.
pub fn regrid(var: &Variable, target: &RectGrid, method: RegridMethod) -> Result<Variable> {
    cached_plan(var, target, method)?.apply(var)
}

/// Regrids N ensemble members onto `target` with one plan-cache consult
/// followed by one [`RegridPlan::apply`] per member: a 200-member
/// ensemble touches the cache once instead of contending 200 times.
/// Every member must sit on the same source grid (`apply` rejects one
/// that does not); outputs are byte-identical to per-member [`regrid`]
/// calls.
pub fn regrid_batch(
    members: &[&Variable],
    target: &RectGrid,
    method: RegridMethod,
) -> Result<Vec<Variable>> {
    let Some(first) = members.first() else {
        return Ok(Vec::new());
    };
    let plan = cached_plan(first, target, method)?;
    members.iter().map(|m| plan.apply(m)).collect()
}

/// Bilinear regridding onto `target`. Longitude wraps for circular source
/// axes; masked source corners invalidate the interpolated point (a
/// conservative mask-propagation choice). Leading (time/level) axes are
/// preserved.
pub fn bilinear(var: &Variable, target: &RectGrid) -> Result<Variable> {
    regrid(var, target, RegridMethod::Bilinear)
}

/// First-order conservative remapping: each target cell's value is the
/// area-weighted mean of the overlapping source cells. Conserves the
/// area-weighted integral of valid data (the property test checks this).
pub fn conservative(var: &Variable, target: &RectGrid) -> Result<Variable> {
    regrid(var, target, RegridMethod::Conservative)
}

fn order(a: f64, b: f64) -> (f64, f64) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

/// Area-weighted global integral mean of the last-two-axes field (helper
/// used by conservation tests and diagnostics).
pub fn area_mean_2d(var: &Variable) -> Result<f64> {
    let (lat_i, _) = horizontal_axes(var)?;
    if var.rank() != 2 {
        return Err(CdmsError::Invalid("area_mean_2d wants a rank-2 field".into()));
    }
    let grid = RectGrid::new(var.axes[lat_i].clone(), var.axes[lat_i + 1].clone())?;
    let areas = grid.cell_areas();
    let mut wsum = 0.0;
    let mut vsum = 0.0;
    for (i, &a) in areas.iter().enumerate() {
        if !var.array.mask()[i] {
            wsum += a;
            vsum += a * var.array.data()[i] as f64;
        }
    }
    if wsum <= 0.0 {
        return Err(CdmsError::EmptySelection("all masked".into()));
    }
    Ok(vsum / wsum)
}

/// Linear-in-log-pressure vertical interpolation onto new pressure levels.
/// Levels outside the source range are masked (no extrapolation).
pub fn pressure_interp(var: &Variable, new_levels: &[f64]) -> Result<Variable> {
    let lev_i = var
        .axis_index(AxisKind::Level)
        .ok_or_else(|| CdmsError::NotFound(format!("level axis on '{}'", var.id)))?;
    let src = &var.axes[lev_i];
    if new_levels.is_empty() {
        return Err(CdmsError::Invalid("no target levels".into()));
    }
    // work in ln(p); source must be monotonic (Axis guarantees it)
    let src_logs: Vec<f64> = src.values.iter().map(|&p| p.ln()).collect();
    let (src_lo, src_hi) = {
        let (a, b) = src.range();
        order(a, b)
    };

    let nl_s = src.len();
    let nl_t = new_levels.len();
    let outer: usize = var.shape()[..lev_i].iter().product();
    let inner: usize = var.shape()[lev_i + 1..].iter().product();

    let mut out_shape = var.shape().to_vec();
    out_shape[lev_i] = nl_t;
    let mut data = vec![0.0f32; outer * nl_t * inner];
    let mut mask = vec![false; data.len()];

    for (lt, &p_new) in new_levels.iter().enumerate() {
        if p_new < src_lo - 1e-9 || p_new > src_hi + 1e-9 || p_new <= 0.0 {
            for o in 0..outer {
                for i in 0..inner {
                    mask[(o * nl_t + lt) * inner + i] = true;
                }
            }
            continue;
        }
        let lp = p_new.ln();
        // find bracketing source levels in log space
        let mut k0 = 0usize;
        for k in 0..nl_s - 1 {
            let (a, b) = order(src_logs[k], src_logs[k + 1]);
            if lp >= a - 1e-12 && lp <= b + 1e-12 {
                k0 = k;
                break;
            }
        }
        let (la, lb) = (src_logs[k0], src_logs[k0 + 1]);
        let f = if (lb - la).abs() < 1e-12 { 0.0 } else { ((lp - la) / (lb - la)).clamp(0.0, 1.0) };
        for o in 0..outer {
            for i in 0..inner {
                let s0 = (o * nl_s + k0) * inner + i;
                let s1 = (o * nl_s + k0 + 1) * inner + i;
                let dst = (o * nl_t + lt) * inner + i;
                if var.array.mask()[s0] || var.array.mask()[s1] {
                    mask[dst] = true;
                } else {
                    let v = var.array.data()[s0] as f64 * (1.0 - f)
                        + var.array.data()[s1] as f64 * f;
                    data[dst] = v as f32;
                }
            }
        }
    }

    let array = MaskedArray::with_mask(data, mask, &out_shape)?;
    let mut axes = var.axes.clone();
    axes[lev_i] = cdms::Axis::pressure_levels(new_levels.to_vec())?;
    let mut v = Variable::new(&var.id, array, axes)?;
    v.attributes = var.attributes.clone();
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdms::synth::SynthesisSpec;
    use cdms::Axis;

    #[test]
    fn bilinear_preserves_linear_fields() {
        // f(lat, lon) = lat → regridding must be exact for interior points
        let src_grid = RectGrid::uniform(18, 36).unwrap();
        let arr = MaskedArray::from_fn(&[18, 36], |ix| src_grid.lat.values[ix[0]] as f32);
        let v = Variable::new("f", arr, vec![src_grid.lat.clone(), src_grid.lon.clone()]).unwrap();
        let dst = RectGrid::uniform(12, 24).unwrap();
        let r = bilinear(&v, &dst).unwrap();
        assert_eq!(r.shape(), &[12, 24]);
        for j in 1..11 {
            for i in 0..24 {
                let got = r.array.get(&[j, i]).unwrap() as f64;
                let want = dst.lat.values[j];
                assert!((got - want).abs() < 1e-3, "({j},{i}): {got} vs {want}");
            }
        }
    }

    #[test]
    fn bilinear_wraps_longitude() {
        // f = cos(lon) is continuous across the wrap point
        let src = RectGrid::uniform(8, 36).unwrap();
        let arr = MaskedArray::from_fn(&[8, 36], |ix| {
            (src.lon.values[ix[1]].to_radians().cos()) as f32
        });
        let v = Variable::new("f", arr, vec![src.lat.clone(), src.lon.clone()]).unwrap();
        // a target grid whose first lon is between src's last cell and 360
        let lat = Axis::latitude(vec![-10.0, 10.0]).unwrap();
        let lon = Axis::longitude(vec![355.0, 359.0]).unwrap();
        let dst = RectGrid::new(lat, lon).unwrap();
        let r = bilinear(&v, &dst).unwrap();
        for i in 0..2 {
            let got = r.array.get(&[0, i]).unwrap() as f64;
            let want = dst.lon.values[i].to_radians().cos();
            assert!((got - want).abs() < 0.02, "{got} vs {want}");
        }
    }

    #[test]
    fn bilinear_preserves_leading_axes_and_masks() {
        let ds = SynthesisSpec::new(2, 3, 16, 32).build();
        let ta = ds.variable("ta").unwrap();
        let dst = RectGrid::uniform(8, 16).unwrap();
        let r = bilinear(ta, &dst).unwrap();
        assert_eq!(r.shape(), &[2, 3, 8, 16]);
        // masked field keeps holes
        let tos = ds.variable("tos").unwrap();
        let r2 = bilinear(tos, &dst).unwrap();
        assert!(r2.array.valid_count() < r2.array.len());
        assert!(r2.array.valid_count() > 0);
    }

    #[test]
    fn requires_trailing_lat_lon() {
        let ds = SynthesisSpec::new(2, 1, 8, 16).build();
        let ta = ds.variable("ta").unwrap();
        let scrambled = Variable::new(
            "x",
            ta.array.transpose(&[3, 0, 1, 2]).unwrap(),
            vec![
                ta.axes[3].clone(),
                ta.axes[0].clone(),
                ta.axes[1].clone(),
                ta.axes[2].clone(),
            ],
        )
        .unwrap();
        let dst = RectGrid::uniform(4, 8).unwrap();
        assert!(bilinear(&scrambled, &dst).is_err());
        assert!(conservative(&scrambled, &dst).is_err());
    }

    #[test]
    fn conservative_conserves_global_mean() {
        let src_grid = RectGrid::uniform(24, 48).unwrap();
        // a bumpy field
        let arr = MaskedArray::from_fn(&[24, 48], |ix| {
            let phi = src_grid.lat.values[ix[0]].to_radians();
            let lam = src_grid.lon.values[ix[1]].to_radians();
            (10.0 + 5.0 * (2.0 * lam).sin() * phi.cos() + 3.0 * (3.0 * phi).sin()) as f32
        });
        let v =
            Variable::new("f", arr, vec![src_grid.lat.clone(), src_grid.lon.clone()]).unwrap();
        let before = area_mean_2d(&v).unwrap();
        for (nlat, nlon) in [(12, 24), (10, 20), (32, 64)] {
            let dst = RectGrid::uniform(nlat, nlon).unwrap();
            let r = conservative(&v, &dst).unwrap();
            let after = area_mean_2d(&r).unwrap();
            assert!(
                (before - after).abs() < 1e-4 * before.abs().max(1.0),
                "{nlat}x{nlon}: {before} vs {after}"
            );
        }
    }

    #[test]
    fn conservative_handles_masks() {
        let ds = SynthesisSpec::new(1, 1, 16, 32).build();
        let tos = ds.variable("tos").unwrap().time_slab(0).unwrap();
        let dst = RectGrid::uniform(8, 16).unwrap();
        let r = conservative(&tos, &dst).unwrap();
        // some cells masked (all-land target cells), most valid
        assert!(r.array.valid_count() > 0);
        let (lo, hi) = r.array.min_max().unwrap();
        assert!(lo > 260.0 && hi < 310.0, "[{lo}, {hi}]");
    }

    #[test]
    fn coarse_to_fine_and_back_is_stable() {
        let src = RectGrid::uniform(8, 16).unwrap();
        let arr = MaskedArray::from_fn(&[8, 16], |ix| (ix[0] * 16 + ix[1]) as f32);
        let v = Variable::new("f", arr, vec![src.lat.clone(), src.lon.clone()]).unwrap();
        let fine = RectGrid::uniform(32, 64).unwrap();
        let up = conservative(&v, &fine).unwrap();
        let back = conservative(&up, &src).unwrap();
        let m0 = area_mean_2d(&v).unwrap();
        let m1 = area_mean_2d(&back).unwrap();
        assert!((m0 - m1).abs() < 1e-3);
    }

    #[test]
    fn pressure_interp_log_linear() {
        let ds = SynthesisSpec::new(1, 8, 6, 12).noise(0.0).build();
        let ta = ds.variable("ta").unwrap();
        // interpolating onto the source levels reproduces them
        let src_levels = ta.axis(AxisKind::Level).unwrap().values.clone();
        let same = pressure_interp(ta, &src_levels).unwrap();
        for i in 0..40 {
            assert!(
                (same.array.data()[i] - ta.array.data()[i]).abs() < 1e-3,
                "{i}"
            );
        }
        // a midpoint level lands between its neighbours
        let mid = pressure_interp(ta, &[962.0]).unwrap();
        let v0 = ta.array.get(&[0, 0, 3, 3]).unwrap();
        let v1 = ta.array.get(&[0, 1, 3, 3]).unwrap();
        let vm = mid.array.get(&[0, 0, 3, 3]).unwrap();
        assert!((vm - v0.min(v1)) > -0.01 && (v0.max(v1) - vm) > -0.01, "{v0} {vm} {v1}");
    }

    #[test]
    fn pressure_interp_masks_out_of_range() {
        let ds = SynthesisSpec::new(1, 4, 4, 8).build();
        let ta = ds.variable("ta").unwrap(); // levels 1000..700
        let r = pressure_interp(ta, &[2000.0, 850.0, 10.0]).unwrap();
        assert_eq!(r.shape()[1], 3);
        assert_eq!(r.array.get_valid(&[0, 0, 0, 0]).unwrap(), None); // 2000 hPa below ground
        assert!(r.array.get_valid(&[0, 1, 0, 0]).unwrap().is_some());
        assert_eq!(r.array.get_valid(&[0, 2, 0, 0]).unwrap(), None); // 10 hPa above top
        assert!(pressure_interp(ta, &[]).is_err());
        let lf = ds.variable("sftlf").unwrap();
        assert!(pressure_interp(lf, &[500.0]).is_err());
    }
}
