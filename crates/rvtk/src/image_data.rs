//! Structured points ("image data"): a regular 3D grid with scalars and
//! optional vectors — the dataset type DV3D's translation stage produces
//! from CDMS variables.

use crate::math::{Bounds, Vec3};
use crate::{Result, VtkError};

/// The range of `values` with NaNs skipped; `None` when none is left or the
/// minimum is not finite (a +∞ maximum is kept; of ±0 either may come back).
/// Eight min and max lanes stepped by compare-select — a NaN compares false
/// both ways — then merged, so no step waits on the last (DESIGN §29).
pub fn value_range(values: &[f32]) -> Option<(f32, f32)> {
    const LANES: usize = 8;
    let mut lo = [f32::INFINITY; LANES];
    let mut hi = [f32::NEG_INFINITY; LANES];
    let chunks = values.chunks_exact(LANES);
    let tail = chunks.remainder();
    // the tail rides the same loop: handled apart, the groups run ≈ 6× slower (DESIGN §29)
    for chunk in chunks.chain([tail]) {
        for ((l, h), &v) in lo.iter_mut().zip(&mut hi).zip(chunk) {
            *l = if v < *l { v } else { *l };
            *h = if v > *h { v } else { *h };
        }
    }
    let lo = lo.into_iter().fold(f32::INFINITY, |a, v| if v < a { v } else { a });
    let hi = hi.into_iter().fold(f32::NEG_INFINITY, |a, v| if v > a { v } else { a });
    lo.is_finite().then_some((lo, hi))
}

/// A regular 3D grid. Point `(i, j, k)` lives at
/// `origin + (i·sx, j·sy, k·sz)`; scalars are stored x-fastest
/// (`index = i + dims[0]·(j + dims[1]·k)`), matching VTK.
#[derive(Debug, Clone, PartialEq)]
pub struct ImageData {
    /// Points per axis `(nx, ny, nz)`.
    pub dims: [usize; 3],
    /// Grid spacing per axis.
    pub spacing: [f64; 3],
    /// World position of point `(0, 0, 0)`.
    pub origin: [f64; 3],
    /// Point scalars, `dims` product long. NaN marks missing data.
    pub scalars: Vec<f32>,
    /// Optional point vectors (same length as `scalars`).
    pub vectors: Option<Vec<[f32; 3]>>,
}

impl ImageData {
    /// Creates image data from scalars, validating the length.
    pub fn new(
        dims: [usize; 3],
        spacing: [f64; 3],
        origin: [f64; 3],
        scalars: Vec<f32>,
    ) -> Result<ImageData> {
        let n = dims[0] * dims[1] * dims[2];
        if scalars.len() != n {
            return Err(VtkError::Invalid(format!(
                "scalars length {} != dims product {n}",
                scalars.len()
            )));
        }
        if dims.contains(&0) {
            return Err(VtkError::Invalid("zero-sized dimension".into()));
        }
        Ok(ImageData { dims, spacing, origin, scalars, vectors: None })
    }

    /// Builds image data by evaluating `f(x, y, z)` at grid *indices*
    /// (not world coordinates), a convenient test-field constructor.
    pub fn from_fn(
        dims: [usize; 3],
        spacing: [f64; 3],
        origin: [f64; 3],
        f: impl Fn(f64, f64, f64) -> f32,
    ) -> ImageData {
        let mut scalars = Vec::with_capacity(dims[0] * dims[1] * dims[2]);
        for k in 0..dims[2] {
            for j in 0..dims[1] {
                for i in 0..dims[0] {
                    scalars.push(f(i as f64, j as f64, k as f64));
                }
            }
        }
        ImageData { dims, spacing, origin, scalars, vectors: None }
    }

    /// Attaches per-point vectors.
    pub fn with_vectors(mut self, vectors: Vec<[f32; 3]>) -> Result<ImageData> {
        if vectors.len() != self.scalars.len() {
            return Err(VtkError::Invalid(format!(
                "vectors length {} != point count {}",
                vectors.len(),
                self.scalars.len()
            )));
        }
        self.vectors = Some(vectors);
        Ok(self)
    }

    /// Flat index of point `(i, j, k)`.
    #[inline]
    pub fn index(&self, i: usize, j: usize, k: usize) -> usize {
        i + self.dims[0] * (j + self.dims[1] * k)
    }

    /// Scalar at `(i, j, k)`.
    #[inline]
    pub fn scalar(&self, i: usize, j: usize, k: usize) -> f32 {
        self.scalars[self.index(i, j, k)]
    }

    /// World position of point `(i, j, k)`.
    pub fn point(&self, i: usize, j: usize, k: usize) -> Vec3 {
        Vec3::new(
            self.origin[0] + i as f64 * self.spacing[0],
            self.origin[1] + j as f64 * self.spacing[1],
            self.origin[2] + k as f64 * self.spacing[2],
        )
    }

    /// World-space bounding box.
    pub fn bounds(&self) -> Bounds {
        let mut b = Bounds::empty();
        b.include(self.point(0, 0, 0));
        b.include(self.point(self.dims[0] - 1, self.dims[1] - 1, self.dims[2] - 1));
        b
    }

    /// Scalar range ignoring NaNs: [`value_range`] of the scalars.
    pub fn scalar_range(&self) -> Option<(f32, f32)> {
        value_range(&self.scalars)
    }

    /// Continuous (fractional-index) coordinates of a world point.
    pub fn world_to_continuous(&self, p: Vec3) -> Vec3 {
        Vec3::new(
            (p.x - self.origin[0]) / self.spacing[0],
            (p.y - self.origin[1]) / self.spacing[1],
            (p.z - self.origin[2]) / self.spacing[2],
        )
    }

    /// Trilinear interpolation of the scalar field at a *continuous index*
    /// coordinate. Returns `None` outside the grid or when any corner is NaN.
    pub fn sample_continuous(&self, c: Vec3) -> Option<f32> {
        let [nx, ny, nz] = self.dims;
        if c.x < 0.0 || c.y < 0.0 || c.z < 0.0 {
            return None;
        }
        if c.x > (nx - 1) as f64 || c.y > (ny - 1) as f64 || c.z > (nz - 1) as f64 {
            return None;
        }
        let i0 = (c.x.floor() as usize).min(nx.saturating_sub(2));
        let j0 = (c.y.floor() as usize).min(ny.saturating_sub(2));
        let k0 = (c.z.floor() as usize).min(nz.saturating_sub(2));
        let i1 = (i0 + 1).min(nx - 1);
        let j1 = (j0 + 1).min(ny - 1);
        let k1 = (k0 + 1).min(nz - 1);
        let fx = (c.x - i0 as f64) as f32;
        let fy = (c.y - j0 as f64) as f32;
        let fz = (c.z - k0 as f64) as f32;
        let mut acc = 0.0f32;
        for (kk, wz) in [(k0, 1.0 - fz), (k1, fz)] {
            for (jj, wy) in [(j0, 1.0 - fy), (j1, fy)] {
                for (ii, wx) in [(i0, 1.0 - fx), (i1, fx)] {
                    let v = self.scalar(ii, jj, kk);
                    if v.is_nan() {
                        return None;
                    }
                    acc += v * wx * wy * wz;
                }
            }
        }
        Some(acc)
    }

    /// Trilinear sample at a world coordinate.
    pub fn sample_world(&self, p: Vec3) -> Option<f32> {
        self.sample_continuous(self.world_to_continuous(p))
    }

    /// Trilinear interpolation of the vector field at a continuous index
    /// coordinate.
    pub(crate) fn sample_vector_continuous(&self, c: Vec3) -> Option<[f32; 3]> {
        let vectors = self.vectors.as_ref()?;
        let [nx, ny, nz] = self.dims;
        if c.x < 0.0 || c.y < 0.0 || c.z < 0.0 {
            return None;
        }
        if c.x > (nx - 1) as f64 || c.y > (ny - 1) as f64 || c.z > (nz - 1) as f64 {
            return None;
        }
        let i0 = (c.x.floor() as usize).min(nx.saturating_sub(2));
        let j0 = (c.y.floor() as usize).min(ny.saturating_sub(2));
        let k0 = (c.z.floor() as usize).min(nz.saturating_sub(2));
        let i1 = (i0 + 1).min(nx - 1);
        let j1 = (j0 + 1).min(ny - 1);
        let k1 = (k0 + 1).min(nz - 1);
        let fx = (c.x - i0 as f64) as f32;
        let fy = (c.y - j0 as f64) as f32;
        let fz = (c.z - k0 as f64) as f32;
        let mut acc = [0.0f32; 3];
        for (kk, wz) in [(k0, 1.0 - fz), (k1, fz)] {
            for (jj, wy) in [(j0, 1.0 - fy), (j1, fy)] {
                for (ii, wx) in [(i0, 1.0 - fx), (i1, fx)] {
                    let v = vectors[self.index(ii, jj, kk)];
                    let w = wx * wy * wz;
                    acc[0] += v[0] * w;
                    acc[1] += v[1] * w;
                    acc[2] += v[2] * w;
                }
            }
        }
        Some(acc)
    }

    /// Central-difference gradient at point `(i, j, k)` in world units
    /// (one-sided at boundaries). NaN neighbours degrade to zero slope.
    pub fn gradient(&self, i: usize, j: usize, k: usize) -> Vec3 {
        let [nx, ny, nz] = self.dims;
        let diff = |vm: f32, vp: f32, h: f64| -> f64 {
            if vm.is_nan() || vp.is_nan() || h == 0.0 {
                0.0
            } else {
                ((vp - vm) as f64) / h
            }
        };
        let gx = {
            let (im, ip) = (i.saturating_sub(1), (i + 1).min(nx - 1));
            diff(self.scalar(im, j, k), self.scalar(ip, j, k), (ip - im) as f64 * self.spacing[0])
        };
        let gy = {
            let (jm, jp) = (j.saturating_sub(1), (j + 1).min(ny - 1));
            diff(self.scalar(i, jm, k), self.scalar(i, jp, k), (jp - jm) as f64 * self.spacing[1])
        };
        let gz = {
            let (km, kp) = (k.saturating_sub(1), (k + 1).min(nz - 1));
            diff(self.scalar(i, j, km), self.scalar(i, j, kp), (kp - km) as f64 * self.spacing[2])
        };
        Vec3::new(gx, gy, gz)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp() -> ImageData {
        // scalar = x + 10y + 100z at unit spacing
        ImageData::from_fn([4, 4, 4], [1.0; 3], [0.0; 3], |x, y, z| (x + 10.0 * y + 100.0 * z) as f32)
    }

    #[test]
    fn construction_validates() {
        assert!(ImageData::new([2, 2, 2], [1.0; 3], [0.0; 3], vec![0.0; 8]).is_ok());
        assert!(ImageData::new([2, 2, 2], [1.0; 3], [0.0; 3], vec![0.0; 7]).is_err());
        assert!(ImageData::new([0, 2, 2], [1.0; 3], [0.0; 3], vec![]).is_err());
    }

    #[test]
    fn indexing_is_x_fastest() {
        let img = ramp();
        assert_eq!(img.scalar(1, 0, 0), 1.0);
        assert_eq!(img.scalar(0, 1, 0), 10.0);
        assert_eq!(img.scalar(0, 0, 1), 100.0);
        assert_eq!(img.index(1, 2, 3), 1 + 4 * (2 + 4 * 3));
    }

    #[test]
    fn points_and_bounds() {
        let img = ImageData::from_fn([3, 3, 3], [2.0, 1.0, 0.5], [10.0, 0.0, -1.0], |_, _, _| 0.0);
        let p = img.point(2, 2, 2);
        assert_eq!((p.x, p.y, p.z), (14.0, 2.0, 0.0));
        let b = img.bounds();
        assert_eq!(b.min.x, 10.0);
        assert_eq!(b.max.z, 0.0);
    }

    #[test]
    fn scalar_range_ignores_nan() {
        let mut img = ramp();
        img.scalars[0] = f32::NAN;
        let (lo, hi) = img.scalar_range().unwrap();
        assert_eq!(lo, 1.0);
        assert_eq!(hi, 333.0);
        let all_nan = ImageData::new([1, 1, 1], [1.0; 3], [0.0; 3], vec![f32::NAN]).unwrap();
        assert_eq!(all_nan.scalar_range(), None);
    }

    #[test]
    fn trilinear_is_exact_on_linear_fields() {
        let img = ramp();
        for c in [
            Vec3::new(0.5, 0.5, 0.5),
            Vec3::new(1.25, 2.75, 0.1),
            Vec3::new(3.0, 3.0, 3.0),
            Vec3::new(0.0, 0.0, 0.0),
        ] {
            let v = img.sample_continuous(c).unwrap();
            let expect = (c.x + 10.0 * c.y + 100.0 * c.z) as f32;
            assert!((v - expect).abs() < 1e-4, "at {c:?}: {v} vs {expect}");
        }
        assert!(img.sample_continuous(Vec3::new(-0.1, 0.0, 0.0)).is_none());
        assert!(img.sample_continuous(Vec3::new(3.1, 0.0, 0.0)).is_none());
    }

    #[test]
    fn sample_world_respects_origin_and_spacing() {
        let img = ImageData::from_fn([4, 4, 4], [2.0; 3], [10.0, 0.0, 0.0], |x, _, _| x as f32);
        // world x = 13 → index 1.5 → scalar 1.5
        let v = img.sample_world(Vec3::new(13.0, 2.0, 2.0)).unwrap();
        assert!((v - 1.5).abs() < 1e-6);
    }

    #[test]
    fn nan_poisons_interpolation_cell() {
        let mut img = ramp();
        let idx = img.index(1, 1, 1);
        img.scalars[idx] = f32::NAN;
        assert!(img.sample_continuous(Vec3::new(0.9, 0.9, 0.9)).is_none());
        // far corner unaffected
        assert!(img.sample_continuous(Vec3::new(2.5, 2.5, 2.5)).is_some());
    }

    #[test]
    fn vector_attachment_and_sampling() {
        let n = 4 * 4 * 4;
        let img = ramp().with_vectors(vec![[1.0, 2.0, 3.0]; n]).unwrap();
        let v = img.sample_vector_continuous(Vec3::new(1.5, 1.5, 1.5)).unwrap();
        assert_eq!(v, [1.0, 2.0, 3.0]);
        assert!(ramp().with_vectors(vec![[0.0; 3]; 5]).is_err());
        assert!(ramp().sample_vector_continuous(Vec3::ZERO).is_none());
    }

    #[test]
    fn gradient_of_linear_field() {
        let img = ramp();
        for (i, j, k) in [(1, 1, 1), (0, 0, 0), (3, 3, 3)] {
            let g = img.gradient(i, j, k);
            assert!((g.x - 1.0).abs() < 1e-9, "{g:?}");
            assert!((g.y - 10.0).abs() < 1e-9);
            assert!((g.z - 100.0).abs() < 1e-9);
        }
    }

    #[test]
    fn gradient_respects_spacing() {
        let img = ImageData::from_fn([4, 4, 4], [2.0, 1.0, 1.0], [0.0; 3], |x, _, _| x as f32);
        let g = img.gradient(1, 1, 1);
        assert!((g.x - 0.5).abs() < 1e-9); // d(scalar)/d(world x) = 1 index / 2 world
    }
}
