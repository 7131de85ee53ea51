//! Weighted averagers: reduce variables over named axes with the correct
//! weights (sphere-area weights for latitude, cell widths elsewhere) —
//! CDAT's `averager` / `cdutil` functionality.
//!
//! Axis means route through [`crate::reduce::weighted_mean_axis`]: output
//! cells are distributed over the rayon pool while each cell accumulates
//! serially in ascending axis order, so results are bit-identical to the
//! eager serial kernel and invariant under `RAYON_NUM_THREADS`. The
//! running mean uses masked-count-aware prefix sums — O(n) total instead
//! of the old O(n·window) sliding recompute (see
//! [`crate::eager_ref::running_mean_time`]).

use cdms::axis::AxisKind;
use cdms::{CdmsError, Result, Variable};
use rayon::prelude::*;

/// Averages over the first axis of the given kind, weighting by the axis's
/// natural weights ([`cdms::Axis::weights`]). The axis is removed.
pub(crate) fn average_over(var: &Variable, kind: AxisKind) -> Result<Variable> {
    let idx = var
        .axis_index(kind)
        .ok_or_else(|| CdmsError::NotFound(format!("{kind:?} axis on '{}'", var.id)))?;
    let weights = var.axes[idx].weights();
    let array = crate::reduce::weighted_mean_axis(&var.array, idx, &weights)?;
    let mut axes = var.axes.clone();
    axes.remove(idx);
    if axes.is_empty() {
        axes.push(cdms::Axis::new("scalar", vec![0.0], "", AxisKind::Generic)?);
    }
    let mut v = Variable::new(&var.id, array, axes)?;
    v.attributes = var.attributes.clone();
    Ok(v)
}

/// Averages over several axis kinds in sequence.
pub fn average_over_kinds(var: &Variable, kinds: &[AxisKind]) -> Result<Variable> {
    let mut v = var.clone();
    for &k in kinds {
        v = average_over(&v, k)?;
    }
    Ok(v)
}

/// Area-weighted spatial mean over latitude and longitude, leaving the
/// remaining axes (e.g. a global-mean time series).
pub fn spatial_mean(var: &Variable) -> Result<Variable> {
    average_over_kinds(var, &[AxisKind::Latitude, AxisKind::Longitude])
}

/// Zonal mean: average over longitude only.
pub fn zonal_mean(var: &Variable) -> Result<Variable> {
    average_over(var, AxisKind::Longitude)
}

/// Running mean along the time axis with an odd window; endpoints use the
/// available part of the window. Masked points are skipped.
pub fn running_mean_time(var: &Variable, window: usize) -> Result<Variable> {
    if window == 0 || window.is_multiple_of(2) {
        return Err(CdmsError::Invalid(format!("window {window} must be odd and > 0")));
    }
    let t_idx = var
        .axis_index(AxisKind::Time)
        .ok_or_else(|| CdmsError::NotFound(format!("time axis on '{}'", var.id)))?;
    let nt = var.axes[t_idx].len();
    let half = window / 2;
    let shape = var.shape();
    let outer: usize = shape.iter().take(t_idx).product();
    let inner: usize = shape.iter().skip(t_idx + 1).product::<usize>().max(1);

    // Masked-count-aware prefix sums along time: psum[o][t'][i] holds the
    // running Σ of valid values (and pcnt the valid count) over t < t', so
    // any window reduces to two lookups. One O(n) build pass replaces the
    // old O(n·window) per-element window recompute.
    let (src_d, src_m) = (var.array.data(), var.array.mask());
    let plane = (nt + 1) * inner;
    let mut psum = vec![0.0f64; outer * plane];
    let mut pcnt = vec![0u32; outer * plane];
    for o in 0..outer {
        for t in 0..nt {
            let src = (o * nt + t) * inner;
            let dst = o * plane + (t + 1) * inner;
            let drow = src_d.get(src..src + inner).unwrap_or_default();
            let mrow = src_m.get(src..src + inner).unwrap_or_default();
            for i in 0..inner {
                let prev_s = psum[dst - inner + i];
                let prev_c = pcnt[dst - inner + i];
                if mrow[i] {
                    psum[dst + i] = prev_s;
                    pcnt[dst + i] = prev_c;
                } else {
                    psum[dst + i] = prev_s + drow[i] as f64;
                    pcnt[dst + i] = prev_c + 1;
                }
            }
        }
    }

    // Each output row (o, t) reads two prefix rows — independent, so the
    // rows distribute over the pool; results don't depend on the split.
    let mut out = var.array.clone();
    let (out_d, out_m) = out.parts_mut();
    out_d
        .par_chunks_mut(inner)
        .zip(out_m.par_chunks_mut(inner))
        .enumerate()
        .for_each(|(row, (dd, mm))| {
            let (o, t) = (row / nt, row % nt);
            let lo = t.saturating_sub(half);
            let hi = (t + half).min(nt - 1);
            let base = o * plane;
            let s_lo = &psum[base + lo * inner..base + (lo + 1) * inner];
            let s_hi = &psum[base + (hi + 1) * inner..base + (hi + 2) * inner];
            let c_lo = &pcnt[base + lo * inner..base + (lo + 1) * inner];
            let c_hi = &pcnt[base + (hi + 1) * inner..base + (hi + 2) * inner];
            for i in 0..inner {
                let cnt = c_hi[i] - c_lo[i];
                if cnt > 0 {
                    dd[i] = ((s_hi[i] - s_lo[i]) / cnt as f64) as f32;
                    mm[i] = false;
                } else {
                    mm[i] = true;
                }
            }
        });
    let mut v = Variable::new(&var.id, out, var.axes.clone())?;
    v.attributes = var.attributes.clone();
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdms::calendar::Calendar;
    use cdms::synth::SynthesisSpec;
    use cdms::{Axis, MaskedArray};

    #[test]
    fn spatial_mean_drops_horizontal_axes() {
        let ds = SynthesisSpec::new(3, 2, 8, 16).build();
        let ta = ds.variable("ta").unwrap();
        let m = spatial_mean(ta).unwrap();
        assert_eq!(m.shape(), &[3, 2]);
        assert!(m.axis(AxisKind::Latitude).is_none());
        // global mean temperature is physical
        let v = m.array.mean().unwrap();
        assert!((200.0..300.0).contains(&v), "{v}");
    }

    #[test]
    fn area_weighting_differs_from_flat_mean() {
        // A field equal to |latitude| has a flat mean of 45 on a uniform
        // axis, but an area-weighted mean lower than that (poles shrink).
        let lat = Axis::linspace("lat", -87.5, 87.5, 36, "degrees_north").unwrap();
        let lon = Axis::longitude(vec![0.0, 180.0]).unwrap();
        let arr = MaskedArray::from_fn(&[36, 2], |ix| {
            (lat.values[ix[0]].abs()) as f32
        });
        let v = Variable::new("абс", arr, vec![lat, lon]).unwrap();
        let weighted = spatial_mean(&v).unwrap().array.data()[0];
        let flat = v.array.mean().unwrap();
        assert!(weighted < flat - 5.0, "weighted {weighted} flat {flat}");
        // analytic: ∫|φ|cosφ dφ / ∫cosφ dφ = (π/2 − 1) rad ≈ 32.7°
        assert!((weighted - 32.7).abs() < 1.0, "{weighted}");
    }

    #[test]
    fn zonal_mean_keeps_latitude() {
        let ds = SynthesisSpec::new(2, 2, 8, 16).build();
        let ta = ds.variable("ta").unwrap();
        let z = zonal_mean(ta).unwrap();
        assert_eq!(z.shape(), &[2, 2, 8]);
        assert!(z.axis(AxisKind::Latitude).is_some());
        assert!(z.axis(AxisKind::Longitude).is_none());
    }

    #[test]
    fn missing_axis_errors() {
        let ds = SynthesisSpec::new(2, 1, 4, 8).build();
        let lf = ds.variable("sftlf").unwrap(); // (lat, lon) only
        assert!(average_over(lf, AxisKind::Time).is_err());
    }

    #[test]
    fn masked_cells_excluded_from_average() {
        let ds = SynthesisSpec::new(1, 1, 8, 16).build();
        let tos = ds.variable("tos").unwrap(); // masked over land
        let m = spatial_mean(tos).unwrap();
        let v = m.array.get_valid(&[0]).unwrap().unwrap();
        assert!((250.0..305.0).contains(&v), "{v}");
    }

    #[test]
    fn running_mean_smooths() {
        let time = Axis::time(
            (0..10).map(|t| t as f64).collect(),
            "days since 2000-01-01",
            Calendar::NoLeap365,
        )
        .unwrap();
        // alternating series
        let arr = MaskedArray::from_fn(&[10], |ix| if ix[0] % 2 == 0 { 0.0 } else { 2.0 });
        let v = Variable::new("x", arr, vec![time]).unwrap();
        let sm = running_mean_time(&v, 3).unwrap();
        // interior points average to ~(0+2+0)/3 or (2+0+2)/3
        for t in 1..9 {
            let val = sm.array.get(&[t]).unwrap();
            assert!((val - if t % 2 == 0 { 4.0 / 3.0 } else { 2.0 / 3.0 }).abs() < 1e-5);
        }
        // window validation
        assert!(running_mean_time(&v, 2).is_err());
        assert!(running_mean_time(&v, 0).is_err());
    }

    #[test]
    fn running_mean_on_multidim() {
        let ds = SynthesisSpec::new(6, 1, 4, 8).build();
        let w = ds.variable("wave").unwrap();
        let sm = running_mean_time(w, 3).unwrap();
        assert_eq!(sm.shape(), w.shape());
        // smoothing reduces variance of the propagating wave
        let var_raw = w.array.reduce_all(cdms::array::Reduction::Var).unwrap();
        let var_sm = sm.array.reduce_all(cdms::array::Reduction::Var).unwrap();
        assert!(var_sm < var_raw);
    }
}
