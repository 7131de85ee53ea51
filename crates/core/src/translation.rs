//! The DV3D translation module: CDMS variables → renderable image data.
//!
//! "A DV3D translation module converts the processed CDMS data volumes into
//! VTK image data instances to initialize the visualization branch of a
//! DV3D workflow" (§III.G). The mapping is:
//!
//! * longitude → x (degrees east),
//! * latitude → y (degrees north),
//! * level → z (level *index* stretched by a vertical scale — pressure
//!   levels are non-uniform, so index space keeps the grid regular), or
//! * time → z for Hovmöller volumes (variables tagged `dv3d_vertical=time`
//!   by [`cdat::hovmoller::hovmoller_volume`]).
//!
//! Masked elements become NaNs, which every downstream filter and renderer
//! treats as missing.

use crate::{Dv3dError, Result};
use cdms::axis::AxisKind;
use cdms::Variable;
use rvtk::ImageData;

/// Options controlling variable → image conversion.
#[derive(Debug, Clone)]
pub struct TranslationOptions {
    /// World-units of z per level (or per timestep for Hovmöller volumes).
    /// Chosen so a typical volume is visually box-like next to a 360°-wide
    /// horizontal domain.
    pub vertical_scale: f64,
    /// Override the automatic vertical-axis choice: `Some(true)` forces
    /// time-as-z, `Some(false)` forces level-as-z.
    pub time_as_vertical: Option<bool>,
}

impl Default for TranslationOptions {
    fn default() -> TranslationOptions {
        TranslationOptions { vertical_scale: 10.0, time_as_vertical: None }
    }
}

fn is_hovmoller(var: &Variable, opts: &TranslationOptions) -> bool {
    match opts.time_as_vertical {
        Some(b) => b,
        None => var
            .attributes
            .get("dv3d_vertical")
            .and_then(|a| a.as_text())
            .map(|s| s == "time")
            .unwrap_or(false),
    }
}

/// The axis kinds mapped to (x, y, z) for this variable.
fn axis_layout(var: &Variable, opts: &TranslationOptions) -> Result<(usize, usize, Option<usize>)> {
    let lat = var
        .axis_index(AxisKind::Latitude)
        .ok_or_else(|| Dv3dError::Config(format!("'{}' has no latitude axis", var.id)))?;
    let lon = var
        .axis_index(AxisKind::Longitude)
        .ok_or_else(|| Dv3dError::Config(format!("'{}' has no longitude axis", var.id)))?;
    let vertical = if is_hovmoller(var, opts) {
        var.axis_index(AxisKind::Time)
    } else {
        var.axis_index(AxisKind::Level)
    };
    Ok((lat, lon, vertical))
}

/// For each image row `j + ny * k`, in image order, the row of the canonical
/// `(z, lat, lon)` array it is filled from. Level index `k` ascends with
/// height already (pressure axes store 1000→10 hPa, so index order *is*
/// bottom-up); y must ascend with latitude, so rows flip when that axis
/// descends. Fails for ranks translation does not support.
fn source_rows(
    canon: &Variable,
    vertical: Option<usize>,
    lat_ascending: bool,
) -> Result<impl Iterator<Item = usize>> {
    let (nz, ny) = match (vertical, canon.shape()) {
        (Some(_), &[nz, ny, _]) => (nz, ny),
        (None, &[ny, _]) => (1, ny),
        _ => {
            return Err(Dv3dError::Config(format!(
                "'{}' rank {} unsupported by translation",
                canon.id,
                canon.rank()
            )))
        }
    };
    Ok((0..nz).flat_map(move |k| {
        (0..ny).map(move |j| k * ny + if lat_ascending { j } else { ny - 1 - j })
    }))
}

/// Converts a scalar variable to image data.
///
/// Accepts `(lat, lon)`, `(lev, lat, lon)`, or — tagged Hovmöller —
/// `(time, lat, lon)` variables. 2D fields produce a one-layer volume.
/// Returns an error for variables that still have both time and level axes
/// (select a time slab first).
pub fn translate_scalar(var: &Variable, opts: &TranslationOptions) -> Result<ImageData> {
    let hov = is_hovmoller(var, opts);
    if !hov && var.axis_index(AxisKind::Time).is_some() && var.n_times() > 1 {
        return Err(Dv3dError::Config(format!(
            "'{}' still has {} timesteps; take a time slab or build a Hovmöller volume",
            var.id,
            var.n_times()
        )));
    }
    let canon = var.to_canonical_order()?;
    let (lat_i, lon_i, vert_i) = axis_layout(&canon, opts)?;
    let lat = &canon.axes[lat_i];
    let lon = &canon.axes[lon_i];
    let nz = vert_i.map(|i| canon.axes[i].len()).unwrap_or(1);
    let (ny, nx) = (lat.len(), lon.len());

    // Horizontal spacing from the (assumed uniform) axes.
    let dx = if nx > 1 { (lon.values[1] - lon.values[0]).abs() } else { 1.0 };
    let dy = if ny > 1 { (lat.values[1] - lat.values[0]).abs() } else { 1.0 };
    let (lon_a, lon_b) = lon.range();
    let origin = [lon_a.min(lon_b), lat.range().0.min(lat.range().1), 0.0];

    let mut scalars = vec![f32::NAN; nx * ny * nz];
    let (data, mask) = (canon.array.data(), canon.array.mask());
    let rows = source_rows(&canon, vert_i, lat.direction() >= 0)?;
    for (row, src) in scalars.chunks_mut(nx.max(1)).zip(rows) {
        let lanes = src * nx..(src + 1) * nx;
        for ((out, &v), &masked) in row.iter_mut().zip(&data[lanes.clone()]).zip(&mask[lanes]) {
            *out = if masked { f32::NAN } else { v };
        }
    }
    ImageData::new([nx, ny, nz], [dx, dy, opts.vertical_scale], origin, scalars)
        .map_err(Dv3dError::from)
}

/// Converts a `(u, v)` wind pair to image data with vectors (w = 0).
/// The scalar field carries the wind speed for color mapping.
pub fn translate_vector(
    u: &Variable,
    v: &Variable,
    opts: &TranslationOptions,
) -> Result<ImageData> {
    if u.shape() != v.shape() {
        return Err(Dv3dError::Config(format!(
            "wind components differ in shape: {:?} vs {:?}",
            u.shape(),
            v.shape()
        )));
    }
    let speed = cdat::ops::magnitude(u, v)?;
    let mut img = translate_scalar(&speed, opts)?;

    // Re-walk the grid to attach vectors in the same layout.
    let canon_u = u.to_canonical_order()?;
    let canon_v = v.to_canonical_order()?;
    let (lat_i, _, vert_i) = axis_layout(&canon_u, opts)?;
    let rows = source_rows(&canon_u, vert_i, canon_u.axes[lat_i].direction() >= 0)?;
    let [nx, ny, nz] = img.dims;
    let mut vectors = vec![[0.0f32; 3]; nx * ny * nz];
    let (u_d, u_m) = (canon_u.array.data(), canon_u.array.mask());
    let (v_d, v_m) = (canon_v.array.data(), canon_v.array.mask());
    for (row, src) in vectors.chunks_mut(nx.max(1)).zip(rows) {
        let lanes = src * nx..(src + 1) * nx;
        let u = u_d[lanes.clone()].iter().zip(&u_m[lanes.clone()]);
        let v = v_d[lanes.clone()].iter().zip(&v_m[lanes]);
        for (out, ((&uu, &u_masked), (&vv, &v_masked))) in row.iter_mut().zip(u.zip(v)) {
            *out = [if u_masked { 0.0 } else { uu }, if v_masked { 0.0 } else { vv }, 0.0];
        }
    }
    img = img.with_vectors(vectors).map_err(Dv3dError::from)?;
    Ok(img)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdat::hovmoller::hovmoller_volume;
    use cdms::synth::SynthesisSpec;
    use rvtk::Vec3;

    #[test]
    fn translate_3d_scalar_layout() {
        let ds = SynthesisSpec::new(1, 4, 16, 32).build();
        let ta = ds.variable("ta").unwrap().time_slab(0).unwrap();
        let img = translate_scalar(&ta, &TranslationOptions::default()).unwrap();
        assert_eq!(img.dims, [32, 16, 4]);
        // spacing: 360/32 = 11.25° in x, 180/16 = 11.25° in y, 10 per level
        assert!((img.spacing[0] - 11.25).abs() < 1e-9);
        assert!((img.spacing[1] - 11.25).abs() < 1e-9);
        assert_eq!(img.spacing[2], 10.0);
        // value at (i, j, k) equals variable at (k, lat j, lon i)
        let expect = ta.array.get(&[1, 3, 5]).unwrap();
        assert_eq!(img.scalar(5, 3, 1), expect);
    }

    #[test]
    fn translate_2d_scalar_single_layer() {
        let ds = SynthesisSpec::new(1, 1, 8, 16).build();
        let lf = ds.variable("sftlf").unwrap();
        let img = translate_scalar(lf, &TranslationOptions::default()).unwrap();
        assert_eq!(img.dims, [16, 8, 1]);
        assert_eq!(img.scalar(3, 2, 0), lf.array.get(&[2, 3]).unwrap());
    }

    #[test]
    fn masked_values_become_nan() {
        let ds = SynthesisSpec::new(1, 1, 8, 16).build();
        let tos = ds.variable("tos").unwrap().time_slab(0).unwrap();
        let img = translate_scalar(&tos, &TranslationOptions::default()).unwrap();
        let n_nan = img.scalars.iter().filter(|v| v.is_nan()).count();
        assert_eq!(n_nan, tos.array.len() - tos.array.valid_count());
    }

    /// The fill as it was before the row copy: one `get_valid` per element.
    fn per_element_scalars(var: &Variable, opts: &TranslationOptions) -> Vec<f32> {
        let canon = var.to_canonical_order().unwrap();
        let (lat_i, lon_i, vert_i) = axis_layout(&canon, opts).unwrap();
        let lat = &canon.axes[lat_i];
        let nz = vert_i.map(|i| canon.axes[i].len()).unwrap_or(1);
        let (ny, nx) = (lat.len(), canon.axes[lon_i].len());
        let lat_ascending = lat.direction() >= 0;
        let mut scalars = vec![f32::NAN; nx * ny * nz];
        for k in 0..nz {
            for j in 0..ny {
                let jj = if lat_ascending { j } else { ny - 1 - j };
                for i in 0..nx {
                    let value = match (vert_i, canon.rank()) {
                        (Some(_), 3) => canon.array.get_valid(&[k, jj, i]),
                        (None, 2) => canon.array.get_valid(&[jj, i]),
                        _ => panic!("unsupported rank"),
                    }
                    .unwrap();
                    scalars[i + nx * (j + ny * k)] = value.unwrap_or(f32::NAN);
                }
            }
        }
        scalars
    }

    /// Masks every 5th lane of `var`, storing NaN / ∞ / garbage under the
    /// mask, and optionally turns the latitude axis (and the rows with it)
    /// north-to-south.
    fn hostile(var: &Variable, descending: bool) -> Variable {
        let mut v = var.clone();
        let (d, m) = v.array.parts_mut();
        for (i, (d, m)) in d.iter_mut().zip(m.iter_mut()).enumerate() {
            if i % 5 == 2 {
                *d = [f32::from_bits(0x7fa0_0001), f32::INFINITY, f32::NEG_INFINITY, 1.0e38][i / 5 % 4];
                *m = true;
            }
        }
        if descending {
            let lat_i = v.axis_index(AxisKind::Latitude).unwrap();
            let mut perm: Vec<usize> = (0..v.rank()).collect();
            perm.swap(lat_i, v.rank() - 1);
            // reverse latitude by reversing the lanes of a lat-innermost copy
            let mut t = v.array.transpose(&perm).unwrap();
            let ny = v.axes[lat_i].len();
            let (d, m) = t.parts_mut();
            d.chunks_mut(ny).for_each(<[f32]>::reverse);
            m.chunks_mut(ny).for_each(<[bool]>::reverse);
            v.array = t.transpose(&perm).unwrap();
            let mut values = v.axes[lat_i].values.clone();
            values.reverse();
            v.axes[lat_i] = cdms::Axis::latitude(values).unwrap();
            assert!(v.axes[lat_i].direction() < 0);
        }
        v
    }

    #[test]
    fn row_copy_fill_equals_the_per_element_fill_bit_for_bit() {
        let ds = SynthesisSpec::new(5, 4, 16, 32).build();
        let opts = TranslationOptions::default();
        let three_d = ds.variable("ta").unwrap().time_slab(0).unwrap();
        let two_d = ds.variable("sftlf").unwrap().clone();
        let hov = hovmoller_volume(ds.variable("wave").unwrap()).unwrap();
        for (name, var) in [("3-D", &three_d), ("2-D", &two_d), ("Hovmöller", &hov)] {
            for descending in [false, true] {
                let var = hostile(var, descending);
                let want: Vec<u32> =
                    per_element_scalars(&var, &opts).iter().map(|v| v.to_bits()).collect();
                let img = translate_scalar(&var, &opts).unwrap();
                let got: Vec<u32> = img.scalars.iter().map(|v| v.to_bits()).collect();
                assert_eq!(got, want, "{name}, descending {descending}");
                let nan = f32::NAN.to_bits();
                let masked = var.array.len() - var.array.valid_count();
                assert_eq!(got.iter().filter(|&&b| b == nan).count(), masked, "{name}");
                // the flip is real: image row 0 is the southernmost latitude
                let lat = var.axis(AxisKind::Latitude).unwrap();
                assert_eq!(img.origin[1], lat.range().0.min(lat.range().1));
            }
        }
    }

    #[test]
    fn vector_fill_zeroes_masked_components_in_flipped_rows() {
        let ds = SynthesisSpec::new(1, 3, 8, 16).build();
        let opts = TranslationOptions::default();
        for descending in [false, true] {
            let u = hostile(&ds.variable("ua").unwrap().time_slab(0).unwrap(), descending);
            let v = hostile(&ds.variable("va").unwrap().time_slab(0).unwrap(), descending);
            let img = translate_vector(&u, &v, &opts).unwrap();
            let vectors = img.vectors.as_ref().unwrap();
            let [nx, ny, nz] = img.dims;
            for k in 0..nz {
                for j in 0..ny {
                    let jj = if descending { ny - 1 - j } else { j };
                    for i in 0..nx {
                        let uu = u.array.get_valid(&[k, jj, i]).unwrap().unwrap_or(0.0);
                        let vv = v.array.get_valid(&[k, jj, i]).unwrap().unwrap_or(0.0);
                        let want = [uu, vv, 0.0].map(f32::to_bits);
                        assert_eq!(vectors[img.index(i, j, k)].map(f32::to_bits), want);
                    }
                }
            }
        }
    }

    #[test]
    fn multi_time_without_hovmoller_tag_rejected() {
        let ds = SynthesisSpec::new(3, 2, 8, 16).build();
        let ta = ds.variable("ta").unwrap();
        assert!(translate_scalar(ta, &TranslationOptions::default()).is_err());
    }

    #[test]
    fn unsupported_rank_is_an_error_not_a_panic() {
        // one timestep passes the time-slab check but leaves rank 4
        let ds = SynthesisSpec::new(1, 4, 8, 16).build();
        let (ta, ua, va) = (ds.variable("ta"), ds.variable("ua"), ds.variable("va"));
        let opts = TranslationOptions::default();
        assert!(matches!(translate_scalar(ta.unwrap(), &opts), Err(Dv3dError::Config(_))));
        assert!(translate_vector(ua.unwrap(), va.unwrap(), &opts).is_err());
    }

    #[test]
    fn hovmoller_volume_maps_time_to_z() {
        let ds = SynthesisSpec::new(5, 1, 8, 16).build();
        let wave = hovmoller_volume(ds.variable("wave").unwrap()).unwrap();
        let img = translate_scalar(&wave, &TranslationOptions::default()).unwrap();
        assert_eq!(img.dims, [16, 8, 5]);
        let expect = wave.array.get(&[3, 2, 7]).unwrap();
        assert_eq!(img.scalar(7, 2, 3), expect);
    }

    #[test]
    fn explicit_time_as_vertical_override() {
        let ds = SynthesisSpec::new(4, 1, 8, 16).build();
        let pr = ds.variable("pr").unwrap(); // untagged (time, lat, lon)
        let opts =
            TranslationOptions { time_as_vertical: Some(true), ..Default::default() };
        let img = translate_scalar(pr, &opts).unwrap();
        assert_eq!(img.dims, [16, 8, 4]);
    }

    #[test]
    fn vector_translation_carries_speed_and_components() {
        let ds = SynthesisSpec::new(1, 3, 8, 16).build();
        let u = ds.variable("ua").unwrap().time_slab(0).unwrap();
        let v = ds.variable("va").unwrap().time_slab(0).unwrap();
        let img = translate_vector(&u, &v, &TranslationOptions::default()).unwrap();
        assert_eq!(img.dims, [16, 8, 3]);
        let vectors = img.vectors.as_ref().unwrap();
        let vec0 = vectors[img.index(4, 3, 1)];
        let uu = u.array.get(&[1, 3, 4]).unwrap();
        let vv = v.array.get(&[1, 3, 4]).unwrap();
        assert!((vec0[0] - uu).abs() < 1e-6);
        assert!((vec0[1] - vv).abs() < 1e-6);
        // scalar is the speed
        let s = img.scalar(4, 3, 1);
        assert!((s - (uu * uu + vv * vv).sqrt()).abs() < 1e-4);
    }

    #[test]
    fn vector_translation_shape_mismatch_rejected() {
        let a = SynthesisSpec::new(1, 2, 8, 16).build();
        let b = SynthesisSpec::new(1, 2, 8, 8).build();
        let u = a.variable("ua").unwrap().time_slab(0).unwrap();
        let v = b.variable("va").unwrap().time_slab(0).unwrap();
        assert!(translate_vector(&u, &v, &TranslationOptions::default()).is_err());
    }

    #[test]
    fn world_coordinates_are_degrees() {
        let ds = SynthesisSpec::new(1, 2, 16, 32).build();
        let ta = ds.variable("ta").unwrap().time_slab(0).unwrap();
        let img = translate_scalar(&ta, &TranslationOptions::default()).unwrap();
        let b = img.bounds();
        // lon spans 0..360-dlon, lat spans ±(90-dlat/2)
        assert!((b.min.x - 0.0).abs() < 1e-9);
        assert!((b.max.x - 348.75).abs() < 1e-6);
        assert!((b.min.y + 84.375).abs() < 1e-6);
        // sampling in world space works
        assert!(img.sample_world(Vec3::new(180.0, 0.0, 5.0)).is_some());
    }

    #[test]
    fn requires_horizontal_axes() {
        let ds = SynthesisSpec::new(4, 1, 8, 16).build();
        let series = cdat::averager::spatial_mean(ds.variable("pr").unwrap()).unwrap();
        assert!(translate_scalar(&series, &TranslationOptions::default()).is_err());
    }
}
