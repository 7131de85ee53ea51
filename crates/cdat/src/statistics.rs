//! Statistical operations: variance, correlation, trends, RMSE —
//! `genutil.statistics` equivalents, mask-aware throughout.
//!
//! Global reductions (correlation, RMSE, the standardize moments) run on
//! the deterministic blocked kernel in [`crate::reduce`]: parallel over
//! fixed-size blocks, Neumaier-compensated partials merged in a fixed tree
//! order — bit-identical results for any `RAYON_NUM_THREADS`. Per-gridpoint
//! reductions (the trend) parallelize over output cells while keeping each
//! cell's accumulation in eager order, so they are additionally
//! bit-identical to the pre-fusion serial code (see [`crate::eager_ref`]).

use crate::reduce;
use cdms::axis::AxisKind;
use cdms::{CdmsError, Result, Variable};
use rayon::prelude::*;

/// Pearson correlation between two variables over all mutually valid
/// elements (pattern correlation when fed spatial fields).
pub fn correlation(a: &Variable, b: &Variable) -> Result<f64> {
    crate::ops::check_domains(a, b)?;
    let p = reduce::pair_sums(&a.array, &b.array);
    if p.n < 2 {
        return Err(CdmsError::EmptySelection("fewer than 2 valid pairs".into()));
    }
    p.correlation().ok_or_else(|| CdmsError::Invalid("zero variance".into()))
}

/// Least-squares linear trend along the time axis, per grid point:
/// returns a variable of slopes in units of `[var]/[time unit]`.
/// Points with fewer than 3 valid times are masked.
pub fn linear_trend(var: &Variable) -> Result<Variable> {
    let t_idx = var
        .axis_index(AxisKind::Time)
        .ok_or_else(|| CdmsError::NotFound(format!("time axis on '{}'", var.id)))?;
    let times = &var.axes[t_idx].values;
    let nt = times.len();
    let strides = var.array.strides();
    let t_stride = strides[t_idx];

    let mut out_shape = var.shape().to_vec();
    out_shape.remove(t_idx);
    if out_shape.is_empty() {
        out_shape.push(1);
    }
    let outer: usize = var.shape()[..t_idx].iter().product();
    let inner: usize = var.shape()[t_idx + 1..].iter().product();

    // Output cells are independent: distribute the outer slabs over the
    // pool, keep each cell's time accumulation serial in ascending order —
    // the eager order, so slopes are bit-identical to the serial reference
    // and invariant under thread count.
    let src_mask = var.array.mask();
    let src_data = var.array.data();
    let mut data = vec![0.0f32; outer * inner];
    let mut mask = vec![false; outer * inner];
    data.par_chunks_mut(inner.max(1))
        .zip(mask.par_chunks_mut(inner.max(1)))
        .enumerate()
        .for_each(|(o, (dd, mm))| {
            for (i, (d, mk)) in dd.iter_mut().zip(mm.iter_mut()).enumerate() {
                let base = o * t_stride * nt + i;
                let (mut n, mut st, mut sv, mut stt, mut stv) = (0usize, 0.0f64, 0.0, 0.0, 0.0);
                for (t, &tv) in times.iter().enumerate() {
                    let idx = base + t * t_stride;
                    if src_mask.get(idx).copied().unwrap_or(true) {
                        continue;
                    }
                    let v = src_data.get(idx).copied().unwrap_or_default() as f64;
                    n += 1;
                    st += tv;
                    sv += v;
                    stt += tv * tv;
                    stv += tv * v;
                }
                let mut fitted = false;
                if n >= 3 {
                    let nf = n as f64;
                    let denom = stt - st * st / nf;
                    if denom.abs() > 1e-12 {
                        *d = ((stv - st * sv / nf) / denom) as f32;
                        fitted = true;
                    }
                }
                if !fitted {
                    *mk = true;
                }
            }
        });
    let array = cdms::MaskedArray::with_mask(data, mask, &out_shape)?;
    let mut axes = var.axes.clone();
    axes.remove(t_idx);
    if axes.is_empty() {
        axes.push(cdms::Axis::new("scalar", vec![0.0], "", AxisKind::Generic)?);
    }
    let mut v = Variable::new(&format!("{}_trend", var.id), array, axes)?;
    v.attributes = var.attributes.clone();
    Ok(v)
}

/// Standardizes a variable: `(x - mean) / std` over valid elements.
///
/// One deterministic blocked pass gathers mean and std together (the eager
/// path reduced twice), then a fused parallel map applies the transform.
pub fn standardize(var: &Variable) -> Result<Variable> {
    let m = reduce::moments(&var.array);
    let mean =
        m.mean().ok_or_else(|| CdmsError::EmptySelection("all masked".into()))? as f32;
    let std = m.std().unwrap_or(0.0) as f32;
    if std <= 0.0 {
        return Err(CdmsError::Invalid("zero variance".into()));
    }
    let arr = crate::expr::Expr::leaf(&var.array).sub_div(mean, std).eval()?;
    let mut v = Variable::new(&format!("{}_std", var.id), arr, var.axes.clone())?;
    v.attributes = var.attributes.clone();
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdms::calendar::Calendar;
    use cdms::synth::SynthesisSpec;
    use cdms::{Axis, MaskedArray};

    fn time_var(values: Vec<f32>) -> Variable {
        let n = values.len();
        let time = Axis::time(
            (0..n).map(|t| t as f64).collect(),
            "days since 2000-01-01",
            Calendar::NoLeap365,
        )
        .unwrap();
        Variable::new("x", MaskedArray::from_vec(values, &[n]).unwrap(), vec![time]).unwrap()
    }

    #[test]
    fn self_correlation_is_one() {
        let ds = SynthesisSpec::new(2, 2, 8, 16).build();
        let ta = ds.variable("ta").unwrap();
        let r = correlation(ta, ta).unwrap();
        assert!((r - 1.0).abs() < 1e-9);
    }

    #[test]
    fn anticorrelation_is_minus_one() {
        let a = time_var(vec![1.0, 2.0, 3.0, 4.0]);
        let mut b = a.clone();
        b.array = a.array.mul_scalar(-2.0).add_scalar(10.0);
        let r = correlation(&a, &b).unwrap();
        assert!((r + 1.0).abs() < 1e-9);
    }

    #[test]
    fn correlation_needs_valid_pairs_and_variance() {
        let a = time_var(vec![1.0, 1.0, 1.0]);
        let b = time_var(vec![1.0, 2.0, 3.0]);
        assert!(correlation(&a, &b).is_err()); // zero variance
        let mut c = time_var(vec![1.0, 2.0, 3.0]);
        for i in 0..3 {
            c.array.mask_at(&[i]).unwrap();
        }
        assert!(correlation(&c, &b).is_err()); // no pairs
    }

    #[test]
    fn trend_of_linear_series() {
        let v = time_var((0..10).map(|t| 3.0 * t as f32 + 5.0).collect());
        let tr = linear_trend(&v).unwrap();
        assert_eq!(tr.array.len(), 1);
        assert!((tr.array.data()[0] - 3.0).abs() < 1e-5);
    }

    #[test]
    fn trend_per_gridpoint_with_masking() {
        let ds = SynthesisSpec::new(6, 1, 4, 8).noise(0.0).build();
        let mut ta = ds.variable("ta").unwrap().clone();
        // mask one point's entire series except two steps → masked output
        for t in 0..4 {
            ta.array.mask_at(&[t, 0, 0, 0]).unwrap();
        }
        let tr = linear_trend(&ta).unwrap();
        assert_eq!(tr.shape(), &[1, 4, 8]);
        assert_eq!(tr.array.get_valid(&[0, 0, 0]).unwrap(), None);
        assert!(tr.array.get_valid(&[0, 1, 1]).unwrap().is_some());
    }

    #[test]
    fn trend_requires_time_axis() {
        let ds = SynthesisSpec::new(2, 1, 4, 8).build();
        let lf = ds.variable("sftlf").unwrap();
        assert!(linear_trend(lf).is_err());
    }

    #[test]
    fn standardize_zero_mean_unit_std() {
        let v = time_var(vec![2.0, 4.0, 6.0, 8.0]);
        let s = standardize(&v).unwrap();
        assert!(s.array.mean().unwrap().abs() < 1e-6);
        assert!((s.array.std().unwrap() - 1.0).abs() < 1e-5);
        let flat = time_var(vec![1.0, 1.0]);
        assert!(standardize(&flat).is_err());
    }
}
