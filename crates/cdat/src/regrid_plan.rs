//! Plan/apply regridding engine: build a sparse CSR weight matrix once per
//! (source grid, target grid, method) and re-apply it as one sparse
//! mat-vec per leading time/level plane — repeated regrids over the same
//! grid pair scale with plane count instead of grid arithmetic. Mask
//! handling is folded into the apply kernel: bilinear propagates any
//! masked stencil corner (strict), conservative renormalizes by the
//! unmasked overlap weight. See DESIGN.md §11 for the CSR layout and the
//! fingerprint scheme.
//!
//! A hot-path file that denies `clippy::indexing_slicing`: the kernel must
//! not panic mid-animation, so all element access goes through `.get()`
//! and iterators.

// Hot path: the regrid plan/apply kernels run inside every animation frame.
#![cfg_attr(not(test), deny(clippy::indexing_slicing))]

use cdms::axis::{Axis, AxisKind};
use cdms::grid::{axes_fingerprint, RectGrid};
use rayon::prelude::*;
use std::collections::BTreeMap;
use cdms::{CdmsError, MaskedArray, Result, Variable};

/// Version of the weight-generation math. Mixed into every plan key and
/// exported as the vistrails module-cache salt for `cdat.Regrid`, so
/// bumping it invalidates both cached plans and cached pipeline outputs.
pub const ENGINE_VERSION: u64 = 1;

/// Horizontal regridding method.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RegridMethod {
    /// Four-corner bilinear interpolation; any masked corner masks the
    /// output cell (strict mask propagation, no renormalization).
    Bilinear,
    /// First-order conservative remapping; output is the overlap-weighted
    /// mean of unmasked source cells, masked only when no valid source
    /// cell overlaps.
    Conservative,
}

impl RegridMethod {
    /// Stable tag mixed into plan keys.
    fn tag(self) -> u64 {
        match self {
            RegridMethod::Bilinear => 1,
            RegridMethod::Conservative => 2,
        }
    }

    /// Parses a method name as used by calculator strings and workflow
    /// module parameters.
    pub fn parse(s: &str) -> Option<RegridMethod> {
        match s.trim().to_ascii_lowercase().as_str() {
            "bilinear" | "linear" => Some(RegridMethod::Bilinear),
            "conservative" => Some(RegridMethod::Conservative),
            _ => None,
        }
    }
}

/// Cache key for a `(source grid, target grid, method)` triple, salted
/// with [`ENGINE_VERSION`].
pub fn plan_key(src_fp: u64, dst_fp: u64, method: RegridMethod) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in [ENGINE_VERSION, method.tag(), src_fp, dst_fp] {
        for b in w.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }
    h
}

/// Validates the variable ends with (…, lat, lon) axes and returns their
/// indices. Shared by the plan engine and the `regrid` wrappers.
pub(crate) fn horizontal_axes(var: &Variable) -> Result<(usize, usize)> {
    let lat = var
        .axis_index(AxisKind::Latitude)
        .ok_or_else(|| CdmsError::NotFound(format!("latitude axis on '{}'", var.id)))?;
    let lon = var
        .axis_index(AxisKind::Longitude)
        .ok_or_else(|| CdmsError::NotFound(format!("longitude axis on '{}'", var.id)))?;
    if lon != var.rank() - 1 || lat != var.rank() - 2 {
        return Err(CdmsError::Invalid(format!(
            "'{}' must end with (lat, lon) axes; use to_canonical_order() first",
            var.id
        )));
    }
    Ok((lat, lon))
}

/// A precomputed sparse regridding operator in CSR form: row `r` of the
/// matrix holds the source-cell weights of flattened target cell `r`
/// (`cols`/`weights` in `row_ptr[r]..row_ptr[r+1]`). Build once with
/// [`RegridPlan::bilinear`] / [`RegridPlan::conservative`], then
/// [`RegridPlan::apply`] it to any variable on the same source grid.
#[derive(Debug, Clone)]
pub struct RegridPlan {
    method: RegridMethod,
    src_shape: (usize, usize),
    dst_shape: (usize, usize),
    src_fp: u64,
    row_ptr: Vec<usize>,
    cols: Vec<u32>,
    weights: Vec<f64>,
    dst_lat: Axis,
    dst_lon: Axis,
}

impl RegridPlan {
    /// Plans bilinear interpolation from `(src_lat, src_lon)` onto `target`.
    pub fn bilinear(src_lat: &Axis, src_lon: &Axis, target: &RectGrid) -> Result<RegridPlan> {
        RegridPlan::build(RegridMethod::Bilinear, src_lat, src_lon, target)
    }

    /// Plans first-order conservative remapping onto `target`.
    pub fn conservative(src_lat: &Axis, src_lon: &Axis, target: &RectGrid) -> Result<RegridPlan> {
        RegridPlan::build(RegridMethod::Conservative, src_lat, src_lon, target)
    }

    /// Plans `method` regridding from `(src_lat, src_lon)` onto `target`.
    pub fn build(
        method: RegridMethod,
        src_lat: &Axis,
        src_lon: &Axis,
        target: &RectGrid,
    ) -> Result<RegridPlan> {
        let (ny_s, nx_s) = (src_lat.len(), src_lon.len());
        let (ny_t, nx_t) = target.shape();
        if ny_s == 0 || nx_s == 0 || ny_t == 0 || nx_t == 0 {
            return Err(CdmsError::Invalid("cannot plan a regrid on an empty grid".into()));
        }
        if ny_s * nx_s > u32::MAX as usize {
            return Err(CdmsError::Invalid("source grid too large for a u32-column plan".into()));
        }
        let (row_ptr, cols, weights) = match method {
            RegridMethod::Bilinear => bilinear_weights(src_lat, src_lon, target),
            RegridMethod::Conservative => conservative_weights(src_lat, src_lon, target),
        };
        Ok(RegridPlan {
            method,
            src_shape: (ny_s, nx_s),
            dst_shape: (ny_t, nx_t),
            src_fp: axes_fingerprint(src_lat, src_lon),
            row_ptr,
            cols,
            weights,
            dst_lat: target.lat.clone(),
            dst_lon: target.lon.clone(),
        })
    }

    /// Number of stored (column, weight) pairs.
    pub fn nnz(&self) -> usize {
        self.weights.len()
    }

    /// Applies the planned operator to `var`: one sparse mat-vec per
    /// leading (time × level) plane, parallel across planes. The variable
    /// must end with the same (lat, lon) axes the plan was built from.
    pub fn apply(&self, var: &Variable) -> Result<Variable> {
        let (lat_i, lon_i) = horizontal_axes(var)?;
        let (src_lat, src_lon) = match (var.axes.get(lat_i), var.axes.get(lon_i)) {
            (Some(a), Some(b)) => (a, b),
            _ => return Err(CdmsError::Invalid("horizontal axes out of range".into())),
        };
        if axes_fingerprint(src_lat, src_lon) != self.src_fp {
            return Err(CdmsError::Invalid(format!(
                "regrid plan mismatch: '{}' is not on the source grid this plan was built for",
                var.id
            )));
        }
        let (ny_s, nx_s) = self.src_shape;
        let (ny_t, nx_t) = self.dst_shape;
        let leading: usize =
            var.shape().get(..lat_i).unwrap_or_default().iter().product();
        let src_plane = ny_s * nx_s;
        let dst_plane = ny_t * nx_t;
        let src_data = var.array.data();
        let src_mask = var.array.mask();
        let mut data = vec![0.0f32; leading * dst_plane];
        let mut mask = vec![false; leading * dst_plane];

        // Each leading plane is an independent sparse mat-vec.
        data.par_chunks_mut(dst_plane)
            .zip(mask.par_chunks_mut(dst_plane))
            .enumerate()
            .for_each(|(l, (data_sl, mask_sl))| {
                let off = l * src_plane;
                let sd = src_data.get(off..off + src_plane).unwrap_or_default();
                let sm = src_mask.get(off..off + src_plane).unwrap_or_default();
                self.apply_plane(sd, sm, data_sl, mask_sl);
            });

        let mut out_shape = var.shape().get(..lat_i).unwrap_or_default().to_vec();
        out_shape.push(ny_t);
        out_shape.push(nx_t);
        let array = MaskedArray::with_mask(data, mask, &out_shape)?;
        let mut axes = var.axes.get(..lat_i).unwrap_or_default().to_vec();
        axes.push(self.dst_lat.clone());
        axes.push(self.dst_lon.clone());
        let mut v = Variable::new(&var.id, array, axes)?;
        v.attributes = var.attributes.clone();
        Ok(v)
    }

    /// The CSR kernel for one horizontal plane, mask rule folded in:
    /// strict (bilinear) masks the row on the first masked source cell;
    /// renormalizing (conservative) divides by the unmasked weight sum and
    /// masks only when it is zero.
    fn apply_plane(&self, sd: &[f32], sm: &[bool], out: &mut [f32], out_mask: &mut [bool]) {
        let renorm = matches!(self.method, RegridMethod::Conservative);
        let mut start = self.row_ptr.first().copied().unwrap_or(0);
        let row_ends = self.row_ptr.iter().skip(1);
        for ((o, om), &end) in out.iter_mut().zip(out_mask.iter_mut()).zip(row_ends) {
            let row_cols = self.cols.get(start..end).unwrap_or_default();
            let row_w = self.weights.get(start..end).unwrap_or_default();
            start = end;
            accum_row(renorm, row_cols, row_w, sd, sm, o, om);
        }
    }
}

/// One CSR row × one source plane — the accumulation kernel of
/// [`RegridPlan::apply`]. Strict mode (bilinear) masks the output on the
/// first masked source cell; renormalizing mode (conservative) divides by
/// the unmasked weight sum and masks only when it is zero.
#[inline]
fn accum_row(
    renorm: bool,
    row_cols: &[u32],
    row_w: &[f64],
    sd: &[f32],
    sm: &[bool],
    o: &mut f32,
    om: &mut bool,
) {
    let mut vsum = 0.0f64;
    let mut wsum = 0.0f64;
    let mut any_masked = row_cols.is_empty();
    for (&c, &w) in row_cols.iter().zip(row_w) {
        let ci = c as usize;
        if sm.get(ci).copied().unwrap_or(true) {
            any_masked = true;
            if !renorm {
                break;
            }
        } else {
            let v = f64::from(sd.get(ci).copied().unwrap_or(0.0));
            wsum += w;
            vsum += w * v;
        }
    }
    finalize_cell(renorm, vsum, wsum, any_masked, o, om);
}

/// Epilogue of [`accum_row`]: renormalizing mode divides by the unmasked
/// weight sum (masking only when it is zero), strict mode masks when any
/// contributing cell — or the whole row — was masked.
#[inline]
fn finalize_cell(
    renorm: bool,
    vsum: f64,
    wsum: f64,
    any_masked: bool,
    o: &mut f32,
    om: &mut bool,
) {
    if renorm {
        if wsum > 0.0 {
            *o = (vsum / wsum) as f32;
        } else {
            *om = true;
        }
    } else if any_masked {
        *om = true;
    } else {
        *o = vsum as f32;
    }
}

/// CSR triple for bilinear interpolation. Each row holds the (up to) four
/// corner weights of one target cell; duplicate corners (clamped edges)
/// are coalesced, and zero-weight corners are kept so strict mask
/// propagation sees exactly the corners the direct implementation checked.
fn bilinear_weights(
    src_lat: &Axis,
    src_lon: &Axis,
    target: &RectGrid,
) -> (Vec<usize>, Vec<u32>, Vec<f64>) {
    let (ny_s, nx_s) = (src_lat.len(), src_lon.len());
    let (ny_t, nx_t) = target.shape();
    let wrap = src_lon.is_circular() && src_lon.direction() > 0;
    let step = uniform_step(&src_lon.values);

    let lat_stencil: Vec<(usize, f64)> =
        target.lat.values.iter().map(|&phi| src_lat.fractional_index(phi)).collect();
    let lon_stencil: Vec<(usize, usize, f64)> = target
        .lon
        .values
        .iter()
        .map(|&lam| {
            if wrap {
                lon_bracket_wrapped(src_lon, step, lam)
            } else {
                let (i, f) = src_lon.fractional_index(lam);
                (i, (i + 1).min(nx_s - 1), f)
            }
        })
        .collect();

    let n_rows = ny_t * nx_t;
    let mut row_ptr = Vec::with_capacity(n_rows + 1);
    row_ptr.push(0);
    let mut cols = Vec::with_capacity(4 * n_rows);
    let mut weights = Vec::with_capacity(4 * n_rows);
    let mut corners: Vec<(u32, f64)> = Vec::with_capacity(4);
    for &(j0, fy) in &lat_stencil {
        let j1 = (j0 + 1).min(ny_s - 1);
        for &(i0, i1, fx) in &lon_stencil {
            corners.clear();
            push_coalesced(&mut corners, (j0 * nx_s + i0) as u32, (1.0 - fy) * (1.0 - fx));
            push_coalesced(&mut corners, (j0 * nx_s + i1) as u32, (1.0 - fy) * fx);
            push_coalesced(&mut corners, (j1 * nx_s + i0) as u32, fy * (1.0 - fx));
            push_coalesced(&mut corners, (j1 * nx_s + i1) as u32, fy * fx);
            for &(c, w) in &corners {
                cols.push(c);
                weights.push(w);
            }
            row_ptr.push(cols.len());
        }
    }
    (row_ptr, cols, weights)
}

fn push_coalesced(corners: &mut Vec<(u32, f64)>, col: u32, w: f64) {
    for entry in corners.iter_mut() {
        if entry.0 == col {
            entry.1 += w;
            return;
        }
    }
    corners.push((col, w));
}

/// CSR triple for first-order conservative remapping: separable overlap
/// weights (sin-lat bands × longitude widths modulo 360), duplicates from
/// the ±360° shifts coalesced per row in column order.
fn conservative_weights(
    src_lat: &Axis,
    src_lon: &Axis,
    target: &RectGrid,
) -> (Vec<usize>, Vec<u32>, Vec<f64>) {
    let slat_b = src_lat.clone().bounds_or_gen();
    let slon_b = src_lon.clone().bounds_or_gen();
    let tlat_b = target.lat.clone().bounds_or_gen();
    let tlon_b = target.lon.clone().bounds_or_gen();
    let nx_s = src_lon.len();

    // Latitude overlaps in sin-lat (exact sphere areas).
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
    // Longitude overlaps modulo 360.
    let overlap_lon: Vec<Vec<(usize, f64)>> = tlon_b
        .iter()
        .map(|&(lo_t, hi_t)| {
            let (lo_t, hi_t) = order(lo_t, hi_t);
            let mut v = Vec::new();
            for (i, &(lo_s, hi_s)) in slon_b.iter().enumerate() {
                let (lo_s, hi_s) = order(lo_s, hi_s);
                // try the source cell shifted by -360, 0, +360
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

    let n_rows = overlap_lat.len() * overlap_lon.len();
    let mut row_ptr = Vec::with_capacity(n_rows + 1);
    row_ptr.push(0);
    let mut cols = Vec::new();
    let mut weights = Vec::new();
    let mut acc: BTreeMap<u32, f64> = BTreeMap::new();
    for lat_row in &overlap_lat {
        for lon_row in &overlap_lon {
            acc.clear();
            for &(js, wy) in lat_row {
                for &(is, wx) in lon_row {
                    *acc.entry((js * nx_s + is) as u32).or_insert(0.0) += wy * wx;
                }
            }
            for (&c, &w) in &acc {
                if w > 0.0 {
                    cols.push(c);
                    weights.push(w);
                }
            }
            row_ptr.push(cols.len());
        }
    }
    (row_ptr, cols, weights)
}

/// `Some(step)` when the values are uniformly spaced (ascending) within a
/// relative 1e-9 — the fast path for direct bracket computation.
fn uniform_step(values: &[f64]) -> Option<f64> {
    let first = values.first().copied()?;
    let second = values.get(1).copied()?;
    let step = second - first;
    if step <= 0.0 {
        return None;
    }
    let tol = step * 1e-9 + 1e-12;
    let ok = values
        .iter()
        .zip(values.iter().skip(1))
        .all(|(a, b)| ((b - a) - step).abs() <= tol);
    if ok {
        Some(step)
    } else {
        None
    }
}

/// Bracketing cell of `lam` on an ascending circular longitude axis:
/// O(1) on uniform spacing, O(log n) binary search otherwise — replacing
/// the former O(n) scan per target column. Returns `(i0, i1, frac)` with
/// `i1 = (i0 + 1) % n` so the wrap cell `[last, first + 360)` works.
fn lon_bracket_wrapped(src_lon: &Axis, step: Option<f64>, lam: f64) -> (usize, usize, f64) {
    let nx = src_lon.len();
    let values = &src_lon.values;
    let first = values.first().copied().unwrap_or(0.0);
    let last = values.last().copied().unwrap_or(0.0);
    let lam_n = normalize_lon(lam, first);
    let mean_span = 360.0 / nx as f64;

    if let Some(st) = step {
        // First cell i with lam_n <= upper_bound(i) + 1e-9, upper bounds at
        // first + st*(i+1): same tie behaviour as the original scan.
        let u = (lam_n - first - 1e-9) / st;
        let i0 = if u <= 0.0 { 0 } else { (u.ceil() as usize).saturating_sub(1).min(nx - 1) };
        let a = first + st * i0 as f64;
        let frac = ((lam_n - a) / st).clamp(0.0, 1.0);
        return (i0, (i0 + 1) % nx, frac);
    }

    // Binary search for the first cell whose upper bound admits lam_n.
    // Upper bounds are values[1..] followed by first + 360.
    let i0 = values
        .get(1..)
        .map(|uppers| uppers.partition_point(|&v| v + 1e-9 < lam_n))
        .unwrap_or(0)
        .min(nx - 1);
    let a = values.get(i0).copied().unwrap_or(first);
    let b = if i0 + 1 < nx {
        values.get(i0 + 1).copied().unwrap_or(last)
    } else {
        first + 360.0
    };
    if (b - a).abs() >= 2.0 * mean_span || (b - a).abs() < 1e-12 {
        // Pathologically wide (or degenerate) cell: fall back to the
        // clamped fractional index, as the scan-based implementation did.
        let (i, f) = src_lon.fractional_index(lam_n);
        return (i, (i + 1).min(nx - 1), f);
    }
    let frac = ((lam_n - a) / (b - a)).clamp(0.0, 1.0);
    (i0, (i0 + 1) % nx, frac)
}

/// Shifts `lam` by whole turns into `[base, base + 360)`.
pub(crate) fn normalize_lon(lam: f64, base: f64) -> f64 {
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

#[cfg(test)]
impl RegridMethod {
    /// Canonical lowercase name (`"bilinear"` / `"conservative"`).
    pub(crate) fn name(self) -> &'static str {
        match self {
            RegridMethod::Bilinear => "bilinear",
            RegridMethod::Conservative => "conservative",
        }
    }
}

#[cfg(test)]
impl RegridPlan {
    /// `(nlat, nlon)` of the target grid.
    pub(crate) fn dst_shape(&self) -> (usize, usize) {
        self.dst_shape
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn method_names_round_trip() {
        for m in [RegridMethod::Bilinear, RegridMethod::Conservative] {
            assert_eq!(RegridMethod::parse(m.name()), Some(m));
        }
        assert_eq!(RegridMethod::parse(" Conservative "), Some(RegridMethod::Conservative));
        assert_eq!(RegridMethod::parse("cubic"), None);
    }

    #[test]
    fn bilinear_rows_have_at_most_four_corners_summing_to_one() {
        let src = RectGrid::uniform(6, 12).unwrap();
        let dst = RectGrid::uniform(9, 17).unwrap();
        let p = RegridPlan::bilinear(&src.lat, &src.lon, &dst).unwrap();
        assert_eq!(p.row_ptr.len(), 9 * 17 + 1);
        for r in 0..9 * 17 {
            let (s, e) = (p.row_ptr[r], p.row_ptr[r + 1]);
            assert!(e - s >= 1 && e - s <= 4, "row {r} has {} entries", e - s);
            let sum: f64 = p.weights[s..e].iter().sum();
            assert!((sum - 1.0).abs() < 1e-12, "row {r} weight sum {sum}");
        }
    }

    #[test]
    fn uniform_step_detection() {
        assert_eq!(uniform_step(&[0.0, 10.0, 20.0, 30.0]), Some(10.0));
        assert_eq!(uniform_step(&[0.0, 10.0, 21.0]), None);
        assert_eq!(uniform_step(&[30.0, 20.0, 10.0]), None); // descending
        assert_eq!(uniform_step(&[5.0]), None);
    }

    #[test]
    fn wrapped_bracket_matches_linear_scan() {
        // non-uniform circular axis → binary-search path
        let lon = Axis::longitude(vec![0.0, 20.0, 90.0, 200.0, 300.0]).unwrap();
        assert!(lon.is_circular());
        let nx = lon.len();
        let span = 360.0 / nx as f64;
        for lam in [0.0, 5.0, 19.9, 20.0, 150.0, 299.0, 330.0, 359.9, 361.0, -5.0] {
            let lam_n = normalize_lon(lam, 0.0);
            // reference: the original O(n) scan
            let mut want = None;
            for i in 0..nx {
                let a = lon.values[i];
                let b = if i + 1 < nx { lon.values[i + 1] } else { lon.values[0] + 360.0 };
                if lam_n >= a - 1e-9 && lam_n <= b + 1e-9 && (b - a).abs() < 2.0 * span {
                    want = Some((i, (i + 1) % nx, ((lam_n - a) / (b - a)).clamp(0.0, 1.0)));
                    break;
                }
            }
            let want = want.unwrap_or_else(|| {
                let (i, f) = lon.fractional_index(lam_n);
                (i, (i + 1).min(nx - 1), f)
            });
            let got = lon_bracket_wrapped(&lon, uniform_step(&lon.values), lam);
            assert_eq!(got.0, want.0, "lam={lam}");
            assert_eq!(got.1, want.1, "lam={lam}");
            assert!((got.2 - want.2).abs() < 1e-9, "lam={lam}: {} vs {}", got.2, want.2);
        }
    }

    #[test]
    fn uniform_fast_path_matches_scan_at_boundaries() {
        let lon = Axis::longitude((0..36).map(|i| i as f64 * 10.0).collect()).unwrap();
        let st = uniform_step(&lon.values);
        assert_eq!(st, Some(10.0));
        for lam in [0.0, 10.0, 15.0, 355.0, 359.999, 350.0, 345.0] {
            let fast = lon_bracket_wrapped(&lon, st, lam);
            let slow = lon_bracket_wrapped(&lon, None, lam);
            assert_eq!(fast.0, slow.0, "lam={lam}");
            assert_eq!(fast.1, slow.1, "lam={lam}");
            assert!((fast.2 - slow.2).abs() < 1e-9, "lam={lam}");
        }
    }

    #[test]
    fn apply_rejects_wrong_source_grid() {
        let src = RectGrid::uniform(8, 16).unwrap();
        let other = RectGrid::uniform(10, 20).unwrap();
        let dst = RectGrid::uniform(4, 8).unwrap();
        let plan = RegridPlan::bilinear(&src.lat, &src.lon, &dst).unwrap();
        let arr = MaskedArray::from_fn(&[10, 20], |ix| ix[0] as f32);
        let v = Variable::new("f", arr, vec![other.lat.clone(), other.lon.clone()]).unwrap();
        assert!(plan.apply(&v).is_err());
    }
}
