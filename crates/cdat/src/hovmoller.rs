//! Hovmöller extraction: restructure `(time, lat, lon)` data with *time as
//! the vertical dimension* — the data preparation behind DV3D's Hovmöller
//! slicer and volume plots (paper §III.C, Fig 4).

use cdms::axis::AxisKind;
use cdms::{CdmsError, Result, Variable};

/// Averages over a latitude band and returns a `(time, lon)` section —
/// the classic 2D Hovmöller diagram.
pub fn lon_time_section(var: &Variable, lat_band: (f64, f64)) -> Result<Variable> {
    let sub = var.subset_kind(AxisKind::Latitude, lat_band.0, lat_band.1)?;
    crate::averager::average_over(&sub, AxisKind::Latitude)
}

/// Builds the Hovmöller *volume*: a `(time, lat, lon)` variable reordered
/// so DV3D can treat time as the vertical axis. The data is canonical
/// `(time, lat, lon)` order; the marker attribute tells the translation
/// stage to map time → z.
pub fn hovmoller_volume(var: &Variable) -> Result<Variable> {
    if var.axis_index(AxisKind::Time).is_none() {
        return Err(CdmsError::NotFound(format!("time axis on '{}'", var.id)));
    }
    let mut v = var.to_canonical_order()?;
    if v.axis_index(AxisKind::Level).is_some() {
        return Err(CdmsError::Invalid(format!(
            "'{}' still has a level axis; select one level before building a Hovmöller volume",
            var.id
        )));
    }
    if v.rank() != 3 {
        return Err(CdmsError::Invalid(format!(
            "Hovmöller volume wants (time, lat, lon); got rank {}",
            v.rank()
        )));
    }
    v.attributes.insert("dv3d_vertical".into(), "time".into());
    Ok(v)
}

/// Measures the zonal phase speed (degrees of longitude per time unit) of
/// the dominant propagating signal in a `(time, lon)` section by
/// cross-correlating consecutive time rows — the quantitative readout of a
/// Hovmöller diagram's ridge slope. Returns the mean shift per step.
pub fn zonal_phase_speed(section: &Variable) -> Result<f64> {
    if section.rank() != 2 {
        return Err(CdmsError::Invalid("phase speed wants a (time, lon) section".into()));
    }
    let t_idx = section
        .axis_index(AxisKind::Time)
        .ok_or_else(|| CdmsError::NotFound("time axis".into()))?;
    if t_idx != 0 {
        return Err(CdmsError::Invalid("time must be the leading axis".into()));
    }
    let lon = section
        .axis(AxisKind::Longitude)
        .ok_or_else(|| CdmsError::NotFound("longitude axis".into()))?;
    let nt = section.shape()[0];
    let nx = section.shape()[1];
    if nt < 2 || nx < 4 {
        return Err(CdmsError::Invalid("section too small".into()));
    }
    let dlon = (lon.values[1] - lon.values[0]).abs();
    let times = &section.axes[0].values;

    let row = |t: usize| -> Vec<f32> {
        (0..nx)
            .map(|i| section.array.get(&[t, i]).unwrap_or(0.0))
            .collect()
    };
    let mut total_shift_deg = 0.0f64;
    let mut total_dt = 0.0f64;
    for t in 0..nt - 1 {
        let a = row(t);
        let b = row(t + 1);
        // Circular correlation as a function of signed lag. A periodic
        // signal peaks at every wavelength; resolve the ambiguity the way a
        // human reads a Hovmöller ridge: search only small displacements
        // (|shift| ≤ nx/8 grid steps per time step) and refine the winning
        // lag sub-grid with a parabolic fit through its neighbours.
        let corr_at = |s: i64| -> f64 {
            let lag = s.rem_euclid(nx as i64) as usize;
            (0..nx).map(|i| a[i] as f64 * b[(i + lag) % nx] as f64).sum()
        };
        let window = (nx as i64 / 8).max(1);
        let mut best_s = 0i64;
        let mut best_c = f64::NEG_INFINITY;
        for s in -window..=window {
            let c = corr_at(s);
            if c > best_c {
                best_c = c;
                best_s = s;
            }
        }
        let (cm, c0, cp) = (corr_at(best_s - 1), best_c, corr_at(best_s + 1));
        let denom = cm - 2.0 * c0 + cp;
        let refine = if denom.abs() > 1e-12 {
            (0.5 * (cm - cp) / denom).clamp(-0.5, 0.5)
        } else {
            0.0
        };
        total_shift_deg += (best_s as f64 + refine) * dlon;
        total_dt += times[t + 1] - times[t];
    }
    if total_dt <= 0.0 {
        return Err(CdmsError::Invalid("non-increasing time axis".into()));
    }
    Ok(total_shift_deg / total_dt)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdms::synth::SynthesisSpec;

    #[test]
    fn lon_time_section_shape_and_axes() {
        let ds = SynthesisSpec::new(6, 1, 16, 32).build();
        let wave = ds.variable("wave").unwrap();
        let s = lon_time_section(wave, (-15.0, 15.0)).unwrap();
        assert_eq!(s.shape(), &[6, 32]);
        assert_eq!(s.axes[0].kind, AxisKind::Time);
        assert_eq!(s.axes[1].kind, AxisKind::Longitude);
    }

    #[test]
    fn measured_phase_speed_matches_synthesis() {
        let ds = SynthesisSpec::new(6, 1, 16, 72).noise(0.0).wave(8.0, 5.0).build();
        let wave = ds.variable("wave").unwrap();
        let s = lon_time_section(wave, (-20.0, 20.0)).unwrap();
        let c = zonal_phase_speed(&s).unwrap();
        // grid resolution is 5°, so the per-day shift quantizes
        assert!((c - 8.0).abs() <= 5.0 / 2.0 + 1e-9, "measured {c}°/day");
        assert!(c > 0.0, "eastward");
    }

    #[test]
    fn westward_wave_measures_negative() {
        let ds = SynthesisSpec::new(6, 1, 16, 72).noise(0.0).wave(-10.0, 4.0).build();
        let wave = ds.variable("wave").unwrap();
        let s = lon_time_section(wave, (-20.0, 20.0)).unwrap();
        let c = zonal_phase_speed(&s).unwrap();
        assert!(c < -5.0, "measured {c}°/day");
    }

    #[test]
    fn hovmoller_volume_marks_vertical() {
        let ds = SynthesisSpec::new(5, 1, 8, 16).build();
        let wave = ds.variable("wave").unwrap();
        let v = hovmoller_volume(wave).unwrap();
        assert_eq!(v.shape(), &[5, 8, 16]);
        assert_eq!(
            v.attributes.get("dv3d_vertical").and_then(|a| a.as_text()),
            Some("time")
        );
    }

    #[test]
    fn hovmoller_volume_rejects_4d_and_timeless() {
        let ds = SynthesisSpec::new(3, 2, 8, 16).build();
        assert!(hovmoller_volume(ds.variable("ta").unwrap()).is_err()); // has level
        assert!(hovmoller_volume(ds.variable("sftlf").unwrap()).is_err()); // no time
    }

    #[test]
    fn phase_speed_input_validation() {
        let ds = SynthesisSpec::new(3, 1, 8, 16).build();
        let wave = ds.variable("wave").unwrap();
        assert!(zonal_phase_speed(wave).is_err()); // rank 3
        let tiny = SynthesisSpec::new(1, 1, 4, 8).build();
        let s = lon_time_section(tiny.variable("wave").unwrap(), (-30.0, 30.0)).unwrap();
        assert!(zonal_phase_speed(&s).is_err()); // nt < 2
    }
}
