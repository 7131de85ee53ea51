//! Frozen pre-fusion reference implementations.
//!
//! These are verbatim copies of the eager, serial analysis kernels as they
//! stood *before* the fused expression engine ([`crate::expr`]) and the
//! deterministic reduction kernel ([`crate::reduce`]) replaced them. They
//! exist for two reasons:
//!
//! 1. **Oracles.** The property tests in `crates/cdat/tests/expr_fusion.rs`
//!    check the fused paths against these bit-for-bit (elementwise ops,
//!    axis means) or within tight tolerances (compensated global sums).
//! 2. **Ablation baseline.** `benches/analysis.rs` times the
//!    anomaly → standardize → spatial-mean pipeline through these kernels
//!    to measure what fusion actually buys.
//!
//! Do not "improve" this module: its value is that it does not change.
//! Elementwise chains need no copies here — the eager `cdms::MaskedArray`
//! ops (`binop`/`map`) remain the materializing reference and
//! are composed directly by the tests.

use cdms::axis::AxisKind;
use cdms::{CdmsError, Result, Variable};

/// Pre-fusion `averager::average_over`: eager serial `weighted_mean_axis`.
pub(crate) fn average_over(var: &Variable, kind: AxisKind) -> Result<Variable> {
    let idx = var
        .axis_index(kind)
        .ok_or_else(|| CdmsError::NotFound(format!("{kind:?} axis on '{}'", var.id)))?;
    let weights = var.axes[idx].weights();
    let array = var.array.weighted_mean_axis(idx, &weights)?;
    let mut axes = var.axes.clone();
    axes.remove(idx);
    if axes.is_empty() {
        axes.push(cdms::Axis::new("scalar", vec![0.0], "", AxisKind::Generic)?);
    }
    let mut v = Variable::new(&var.id, array, axes)?;
    v.attributes = var.attributes.clone();
    Ok(v)
}

/// Pre-fusion `averager::spatial_mean`.
pub fn spatial_mean(var: &Variable) -> Result<Variable> {
    let lat = average_over(var, AxisKind::Latitude)?;
    average_over(&lat, AxisKind::Longitude)
}

/// Pre-fusion `averager::running_mean_time`: the O(n·window) sliding
/// recompute — every output element re-walks its whole window.
pub fn running_mean_time(var: &Variable, window: usize) -> Result<Variable> {
    if window == 0 || window.is_multiple_of(2) {
        return Err(CdmsError::Invalid(format!("window {window} must be odd and > 0")));
    }
    let t_idx = var
        .axis_index(AxisKind::Time)
        .ok_or_else(|| CdmsError::NotFound(format!("time axis on '{}'", var.id)))?;
    let nt = var.axes[t_idx].len();
    let half = window / 2;
    let mut out = var.array.clone();
    let strides = var.array.strides();
    let t_stride = strides[t_idx] as i64;
    for flat in 0..var.array.len() {
        // time index of this element
        let t = (flat / strides[t_idx]) % nt;
        let lo = t.saturating_sub(half);
        let hi = (t + half).min(nt - 1);
        let mut sum = 0.0f64;
        let mut cnt = 0usize;
        for tt in lo..=hi {
            let src = (flat as i64 + (tt as i64 - t as i64) * t_stride) as usize;
            if !var.array.mask()[src] {
                sum += var.array.data()[src] as f64;
                cnt += 1;
            }
        }
        if cnt > 0 {
            out.data_mut()[flat] = (sum / cnt as f64) as f32;
            out.mask_mut()[flat] = false;
        } else {
            out.mask_mut()[flat] = true;
        }
    }
    let mut v = Variable::new(&var.id, out, var.axes.clone())?;
    v.attributes = var.attributes.clone();
    Ok(v)
}

/// Pre-fusion `climatology::anomaly`: eager time mean, clone, then a
/// serial subtract loop over every element.
pub fn anomaly(var: &Variable) -> Result<Variable> {
    let t_idx = var
        .axis_index(AxisKind::Time)
        .ok_or_else(|| CdmsError::NotFound(format!("time axis on '{}'", var.id)))?;
    let mean = var.array.reduce_axis(t_idx, cdms::array::Reduction::Mean)?;
    let nt = var.shape()[t_idx];
    let inner: usize = var.shape()[t_idx + 1..].iter().product();
    let mut out = var.array.clone();
    // subtract the mean slab from each time slab
    for t in 0..nt {
        for slab_i in 0..mean.len() {
            let o = slab_i / inner;
            let i = slab_i % inner;
            let flat = o * (nt * inner) + t * inner + i;
            if mean.mask()[slab_i] || out.mask()[flat] {
                out.mask_mut()[flat] = true;
            } else {
                out.data_mut()[flat] -= mean.data()[slab_i];
            }
        }
    }
    let mut v = Variable::new(&format!("{}_anom", var.id), out, var.axes.clone())?;
    v.attributes = var.attributes.clone();
    Ok(v)
}

/// Pre-fusion `statistics::standardize`: two eager global reductions plus
/// a materializing `map`.
pub fn standardize(var: &Variable) -> Result<Variable> {
    let mean = var
        .array
        .mean()
        .ok_or_else(|| CdmsError::EmptySelection("all masked".into()))?;
    let std = var.array.std().unwrap_or(0.0);
    if std <= 0.0 {
        return Err(CdmsError::Invalid("zero variance".into()));
    }
    let arr = var.array.map(|x| (x - mean) / std);
    let mut v = Variable::new(&format!("{}_std", var.id), arr, var.axes.clone())?;
    v.attributes = var.attributes.clone();
    Ok(v)
}
