//! Climatologies, anomalies and seasonal means — `cdutil.times`
//! equivalents built on the calendar-aware time axis.
//!
//! The month-subset means route through
//! `crate::reduce::selected_mean_axis` and the anomaly through
//! [`crate::reduce::mean_axis`] plus a fused parallel subtract pass — both
//! deterministic under any `RAYON_NUM_THREADS` and bit-identical to the
//! pre-fusion serial kernels (see [`crate::eager_ref`]).

use cdms::array::MaskedArray;
use cdms::axis::AxisKind;
use cdms::calendar::RelTime;
use cdms::{CdmsError, Result, Variable};
use rayon::prelude::*;

/// Decodes the month (1–12) of every timestep.
pub(crate) fn months_of(var: &Variable) -> Result<Vec<u32>> {
    let t_idx = var
        .axis_index(AxisKind::Time)
        .ok_or_else(|| CdmsError::NotFound(format!("time axis on '{}'", var.id)))?;
    let axis = &var.axes[t_idx];
    let rel = RelTime::parse(&axis.units)?;
    Ok(axis.values.iter().map(|&v| rel.decode(v, axis.calendar).month).collect())
}

/// Mean over the timesteps selected by `pred(month)`. The time axis is
/// removed. Errors if the predicate selects nothing.
pub(crate) fn mean_over_months(var: &Variable, pred: impl Fn(u32) -> bool) -> Result<Variable> {
    let t_idx = var.axis_index(AxisKind::Time).unwrap_or(0);
    let months = months_of(var)?;
    let selected: Vec<usize> =
        months.iter().enumerate().filter(|(_, &m)| pred(m)).map(|(i, _)| i).collect();
    if selected.is_empty() {
        return Err(CdmsError::EmptySelection("no timesteps match".into()));
    }
    // average the selected slabs: one parallel pass over output cells,
    // bit-identical to the old gather-and-accumulate loop
    let a = crate::reduce::selected_mean_axis(&var.array, t_idx, &selected)?;
    let mut axes = var.axes.clone();
    axes.remove(t_idx);
    if axes.is_empty() {
        axes.push(cdms::Axis::new("scalar", vec![0.0], "", AxisKind::Generic)?);
    }
    let mut v = Variable::new(&var.id, a, axes)?;
    v.attributes = var.attributes.clone();
    Ok(v)
}

/// Monthly climatology: a 12-step time series of per-month means
/// (months absent from the record are masked).
pub fn monthly_climatology(var: &Variable) -> Result<Variable> {
    let t_idx = var
        .axis_index(AxisKind::Time)
        .ok_or_else(|| CdmsError::NotFound(format!("time axis on '{}'", var.id)))?;
    let mut slabs = Vec::with_capacity(12);
    for month in 1..=12u32 {
        match mean_over_months(var, |m| m == month) {
            Ok(v) => {
                // reinsert a length-1 month axis position by reshaping later
                slabs.push(v.array);
            }
            Err(CdmsError::EmptySelection(_)) => {
                let mut shape = var.shape().to_vec();
                shape.remove(t_idx);
                slabs.push(MaskedArray::all_masked(&shape));
            }
            Err(e) => return Err(e),
        }
    }
    // stack along a new leading "month" axis
    let slab_shape = slabs[0].shape().to_vec();
    let mut full_shape = vec![12usize];
    full_shape.extend(&slab_shape);
    let mut data = Vec::new();
    let mut mask = Vec::new();
    for s in &slabs {
        data.extend_from_slice(s.data());
        mask.extend_from_slice(s.mask());
    }
    let array = MaskedArray::with_mask(data, mask, &full_shape)?;
    let month_axis = cdms::Axis::new(
        "month",
        (1..=12).map(|m| m as f64).collect(),
        "month of year",
        AxisKind::Generic,
    )?;
    let mut axes = vec![month_axis];
    let mut rest = var.axes.clone();
    rest.remove(t_idx);
    axes.extend(rest);
    let mut v = Variable::new(&format!("{}_clim", var.id), array, axes)?;
    v.attributes = var.attributes.clone();
    Ok(v)
}

/// Departure from the time mean ("anomaly"): `x(t) - mean_t(x)` per point.
pub fn anomaly(var: &Variable) -> Result<Variable> {
    let t_idx = var
        .axis_index(AxisKind::Time)
        .ok_or_else(|| CdmsError::NotFound(format!("time axis on '{}'", var.id)))?;
    let mean = crate::reduce::mean_axis(&var.array, t_idx)?;
    let nt = var.shape()[t_idx];
    let inner: usize = var.shape()[t_idx + 1..].iter().product::<usize>().max(1);
    let mut out = var.array.clone();
    let (mean_d, mean_m) = (mean.data(), mean.mask());
    let (out_d, out_m) = out.parts_mut();
    // subtract the mean slab from each (outer, t) row; rows are independent,
    // so distribute them over the pool — each row's work is elementwise,
    // hence deterministic and bit-identical to the old serial loop
    out_d
        .par_chunks_mut(inner)
        .zip(out_m.par_chunks_mut(inner))
        .enumerate()
        .for_each(|(row, (dd, mm))| {
            let o = row / nt;
            let mrow_d = mean_d.get(o * inner..(o + 1) * inner).unwrap_or_default();
            let mrow_m = mean_m.get(o * inner..(o + 1) * inner).unwrap_or_default();
            for (((d, mk), &mv), &mmk) in
                dd.iter_mut().zip(mm.iter_mut()).zip(mrow_d).zip(mrow_m)
            {
                if mmk || *mk {
                    *mk = true;
                } else {
                    *d -= mv;
                }
            }
        });
    let mut v = Variable::new(&format!("{}_anom", var.id), out, var.axes.clone())?;
    v.attributes = var.attributes.clone();
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdms::calendar::Calendar;
    use cdms::synth::SynthesisSpec;
    use cdms::Axis;

    /// A monthly series: value = month number at every point.
    fn monthly_var(n_months: usize) -> Variable {
        let time = Axis::time(
            (0..n_months).map(|t| t as f64).collect(),
            "months since 2000-01-01",
            Calendar::NoLeap365,
        )
        .unwrap();
        let lat = Axis::latitude(vec![0.0, 10.0]).unwrap();
        let arr = MaskedArray::from_fn(&[n_months, 2], |ix| ((ix[0] % 12) + 1) as f32);
        Variable::new("x", arr, vec![time, lat]).unwrap()
    }

    #[test]
    fn months_decode() {
        let v = monthly_var(14);
        let m = months_of(&v).unwrap();
        assert_eq!(&m[..3], &[1, 2, 3]);
        assert_eq!(m[12], 1); // wraps to January of year 2
    }

    #[test]
    fn climatology_is_identity_for_pure_cycle() {
        let v = monthly_var(24);
        let clim = monthly_climatology(&v).unwrap();
        assert_eq!(clim.shape(), &[12, 2]);
        for m in 0..12 {
            assert!((clim.array.get(&[m, 0]).unwrap() - (m as f32 + 1.0)).abs() < 1e-5);
        }
        assert_eq!(clim.axes[0].id, "month");
    }

    #[test]
    fn climatology_masks_absent_months() {
        let v = monthly_var(3); // only Jan-Mar present
        let clim = monthly_climatology(&v).unwrap();
        assert!(clim.array.get_valid(&[0, 0]).unwrap().is_some());
        assert_eq!(clim.array.get_valid(&[6, 0]).unwrap(), None);
    }

    #[test]
    fn anomaly_zero_mean_per_point() {
        let ds = SynthesisSpec::new(8, 2, 4, 8).build();
        let ta = ds.variable("ta").unwrap();
        let an = anomaly(ta).unwrap();
        assert_eq!(an.shape(), ta.shape());
        // time-mean of the anomaly is ~0 at a few sampled points
        let t_mean = an.array.reduce_axis(0, cdms::array::Reduction::Mean).unwrap();
        let (lo, hi) = t_mean.min_max().unwrap();
        assert!(lo.abs() < 1e-3 && hi.abs() < 1e-3, "[{lo}, {hi}]");
    }

    #[test]
    fn anomaly_respects_masks() {
        let ds = SynthesisSpec::new(4, 1, 4, 8).build();
        let tos = ds.variable("tos").unwrap();
        let an = anomaly(tos).unwrap();
        assert_eq!(an.array.valid_count(), tos.array.valid_count());
    }

    #[test]
    fn requires_time_axis() {
        let ds = SynthesisSpec::new(2, 1, 4, 8).build();
        let lf = ds.variable("sftlf").unwrap();
        assert!(anomaly(lf).is_err());
        assert!(monthly_climatology(lf).is_err());
        assert!(months_of(lf).is_err());
    }

}
